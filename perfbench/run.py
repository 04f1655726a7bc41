"""Benchmark of the zerosum package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload pipeline_favorable --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload is measured untraced and every end-to-end
metric is printed; with ``--trace 1`` a traced run prints every per-layer
metric.  Every workload runs in fresh single-threaded worker processes
(worker.py).  Set-up is timed in SETUP_REPEATS fresh processes and the
median is reported.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the same object is written
to ``perfbench/results/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("pipeline_favorable", "structural_grid", "oracles")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
DEADLINE_S = 170  # every run must end within 180 s

# numpy and BLAS on one thread; a fixed hash seed for the interpreter
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out-dir", RESULTS,
    ]
    env = dict(os.environ, **PINNED_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before the worker started")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "zerosum", "__init__.py")):
        print(f"no zerosum package under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(RESULTS, exist_ok=True)

    try:
        if args.trace:
            res = run_worker(args, "trace", deadline)
            from tracing import METRICS as units
        else:
            setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
            res = run_worker(args, "measure", deadline)
            setups.append(res["metrics"]["setup_s"])
            res["metrics"]["setup_s"] = statistics.median(setups)
            units = END_TO_END
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for msg in res["wrong"] + res["errors"]:
        print(f"{args.workload}: {msg}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {res['attempted']} operations "
        f"({res['rounds']} rounds of {res['ops_per_round']}), {res['failed']} failed"
    )
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
