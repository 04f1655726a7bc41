"""One workload in one fresh process: set it up, then measure or trace it.

Started by run.py, never by hand.  ``--mode setup`` stops after set-up and
reports its time; ``--mode measure`` runs whole rounds of the operation list
untraced; ``--mode trace`` runs whole rounds untraced, then the same number
of rounds traced, and reports the per-layer metrics.  The last line of
standard output is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports onward

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The median needs ten samples beyond it.
MIN_SAMPLES = 20


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []


def nearest_rank(values, q):
    """The ceil(q n)-th smallest value, no interpolation."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def run_round(ops, times, tally, full, tracer=None):
    for op in ops:
        fn = op.run
        if tracer is not None:
            tracer.op_id = tally.attempted
            fn = tracer.span(f"op.{op.kind}", op.run)
        t0 = time.perf_counter_ns()
        try:
            out = fn()
        except Exception as exc:  # an operation that raises has failed
            times.append(time.perf_counter_ns() - t0)
            tally.attempted += 1
            tally.failed += 1
            tally.errors.append(f"{op.kind} {op.group}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter_ns() - t0)
        tally.attempted += 1
        try:
            if not op.check(out, full):
                tally.failed += 1
        except checks.CheckFailed as exc:
            tally.wrong.append(f"{op.kind} {op.group}: {exc}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    make_ops, warmup = workloads.WORKLOADS[args.workload]
    ops = make_ops(args.seed)
    for op in warmup(ops):
        op.run()
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    times = []
    rounds = 0
    # a traced run repeats its untraced rounds traced, so it measures less
    budget = args.seconds if args.mode == "measure" else args.seconds / 3
    start = time.perf_counter()
    while True:
        run_round(ops, times, tally, rounds == 0)
        rounds += 1
        if time.perf_counter() - start >= budget and (
            args.mode == "trace" or len(times) >= MIN_SAMPLES
        ):
            break
    if args.mode == "measure":
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(times) / (sum(times) / 1e9),
            "latency_p50_s": nearest_rank(times, 0.5) / 1e9,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        tracer = tracing.Tracer()
        traced = []
        tracer.install()
        try:
            for _ in range(rounds):
                run_round(ops, traced, tally, False, tracer)
        finally:
            tracer.uninstall()
        if tracer.missing:
            print(f"not found, so not traced: {', '.join(tracer.missing)}", file=sys.stderr)
        overhead_s = (sum(traced) - sum(times)) / 1e9
        metrics = tracing.layer_metrics(tracer.spans, rounds, overhead_s)
        tracer.write(os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
    out = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "wrong": tally.wrong[:5],
        "errors": tally.errors[:5],
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
