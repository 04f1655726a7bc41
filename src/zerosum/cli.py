"""Command-line front door.

Commands: olson, subsums, find-zero-sum, decompose, tube, nul, expand,
pipeline, verify, bench, gen.  Reports are JSON (CSV for bench), written
atomically; every command is deterministic given --seed, and timings are
only embedded when --timings is passed so repeated runs stay byte-identical.

Exit codes: 0 success, 1 usage or input error, 2 stage failure or failed
verification, 3 internal invariant failure (a bug; stderr then carries the
JSON object {"error": "invariant", "name", "lhs", "op", "rhs"}).
"""

from __future__ import annotations

import argparse
import base64
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, generators, serialize, verify
from .expansion import ExpansionParams, ExpansionStagnation, expansion_cover
from .group import GroupParams, InvariantError
from .multiset import GroupMultiset
from .pipeline import PipelineConfig, find_zero_sum
from .subsums import (
    OlsonResult,
    SearchBudget,
    enumerate_subsums,
    find_zero_sum_subset,
    naive_max_zero_sum_free,
    olson_constant,
)
from .thickness import GrowthFunction, decompose, tube_decompose
from .weighted import WeightedInstance, weighted_zero_sum

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _report(command: str, args, result: dict, started: float) -> dict:
    rep = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "command": command,
        "seed": getattr(args, "seed", None),
        "threads": 1,
        "result": result,
        "timings": None,
    }
    if getattr(args, "timings", False):
        rep["timings"] = {"wall_s": round(time.monotonic() - started, 6)}
    return rep


def _emit(text: str, args) -> None:
    out = getattr(args, "output", None)
    if out:
        tmp = out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_json(path: str, what: str) -> dict:
    """The JSON object stored at path; anything else is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}")
    if not isinstance(obj, dict):
        raise UsageError(f"malformed {what} {path}: expected a JSON object")
    return obj


def _load_instance(path: str) -> GroupMultiset:
    obj = _load_json(path, "instance")
    try:
        return serialize.instance_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed instance {path}: {exc}")


def _parse_points(text: str):
    return [tuple(int(c) for c in chunk.split(",")) for chunk in text.split(";") if chunk]


def _budget_ms(text: str) -> int:
    ms = int(text)
    if ms < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {ms}")
    return ms


def _common(sub, p_d=True):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", default=None)
    sub.add_argument("--timings", action="store_true")
    if p_d:
        sub.add_argument("--p", type=int, required=True)
        sub.add_argument("--d", type=int, required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="zerosum", description="zero-sum subsets in F_p^d")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("olson", help="Olson constant by exact search")
    _common(s)
    s.add_argument("--budget-ms", dest="budget_ms", type=_budget_ms, default=None)
    s.add_argument("--naive", action="store_true", help="force the 2^(p^d) oracle")

    s = subs.add_parser("subsums", help="reachability table of nonempty subsums")
    _common(s, p_d=False)
    s.add_argument("--input", required=True)

    s = subs.add_parser("find-zero-sum", help="zero-sum subset by the DP oracle")
    _common(s, p_d=False)
    s.add_argument("--input", required=True)

    s = subs.add_parser("decompose", help="hull-thick decomposition")
    _common(s, p_d=False)
    s.add_argument("--input", required=True)
    s.add_argument("--epsilon", default="1/2")
    s.add_argument("--k0", type=int, default=0)
    s.add_argument("--growth", default="4K+4")

    s = subs.add_parser("tube", help="single tube reduction")
    _common(s, p_d=False)
    s.add_argument("--input", required=True)
    s.add_argument("--delta", default=None, help="defaults to 2^-(d+2)")
    s.add_argument("--k0", type=int, default=0)
    s.add_argument("--growth", default="4K+4")

    s = subs.add_parser("nul", help="weighted zero-sum coefficients")
    _common(s)
    s.add_argument("--points", required=True, help='e.g. "1,2;3,4"')
    s.add_argument("--weights", required=True, help='e.g. "5,5"')
    s.add_argument("--r", type=int, default=0)

    s = subs.add_parser("expand", help="expansion cover over fibers")
    _common(s, p_d=False)
    s.add_argument("--input", required=True, help="fibers JSON")
    s.add_argument("--T", type=int, default=2)

    s = subs.add_parser("pipeline", help="end-to-end zero-sum search")
    _common(s, p_d=False)
    s.add_argument("--input", required=True)
    s.add_argument("--epsilon", default="1/2")
    s.add_argument("--growth", default="K+1")
    s.add_argument("--trace", default=None, help="write the full trace JSON here")

    s = subs.add_parser("verify", help="re-check a stored artifact")
    _common(s, p_d=False)
    s.add_argument("--input", required=True)

    s = subs.add_parser("bench", help="timing harness (CSV)")
    _common(s, p_d=False)
    s.add_argument("--budget-ms", dest="budget_ms", type=_budget_ms, default=None)
    s.add_argument("--suite", default="dp", choices=["dp", "pipeline", "all", "none"])

    s = subs.add_parser("gen", help="generate an instance")
    _common(s)
    s.add_argument("--kind", default="random-cloud", choices=list(generators.KINDS))
    s.add_argument("--size", type=int, default=None)
    s.add_argument("--n-fibers", type=int, default=3)
    s.add_argument("--fiber-size", type=int, default=None)
    s.add_argument("--K", type=int, default=1)
    s.add_argument("--skew", action="store_true")
    s.add_argument("--offset", type=int, default=0)
    s.add_argument("--elements", default=None, help='for --kind explicit: "1,2;3,4"')

    return parser


def cmd_olson(args, started) -> int:
    params = GroupParams(args.p, args.d)
    if args.naive:
        res = naive_max_zero_sum_free(params)
        value = res.size + 1
        result = OlsonResult(params, value, True, res.witness, value, value, res.nodes).as_dict()
    else:
        result = olson_constant(params, SearchBudget(max_ms=args.budget_ms)).as_dict()
    _emit(serialize.dumps(_report("olson", args, result, started)), args)
    return 0


def cmd_subsums(args, started) -> int:
    X = _load_instance(args.input)
    table = enumerate_subsums(X)
    zero = X.params.zero()
    result = {
        "p": X.params.p,
        "d": X.params.d,
        "input_size": len(X),
        "reachable": table.reachable_count(),
        "zero_attainable": table.contains(zero),
        "bitset_le_b64": base64.b64encode(table.to_bitset_bytes()).decode(),
    }
    _emit(serialize.dumps(_report("subsums", args, result, started)), args)
    return 0


def cmd_find_zero_sum(args, started) -> int:
    X = _load_instance(args.input)
    cert = find_zero_sum_subset(X)
    if cert is None:
        result = {"status": "absent"}
    else:
        result = {
            "status": "certificate",
            "certificate": serialize.certificate_to_json(X, cert),
        }
    _emit(serialize.dumps(_report("find-zero-sum", args, result, started)), args)
    return 0


def cmd_decompose(args, started) -> int:
    X = _load_instance(args.input)
    g = GrowthFunction.parse(args.growth)
    dec = decompose(X, args.k0, Fraction(args.epsilon), g)
    result = serialize.decomposition_to_json(X, dec)
    _emit(serialize.dumps(_report("decompose", args, result, started)), args)
    return 0


def cmd_tube(args, started) -> int:
    X = _load_instance(args.input)
    g = GrowthFunction.parse(args.growth)
    delta = Fraction(args.delta) if args.delta else Fraction(1, 2 ** (X.params.d + 2))
    Y, cert = tube_decompose(X, args.k0, delta, g)
    result = {
        "kept": len(Y),
        "input_size": len(X),
        "certificate": serialize.tubular_to_json(Y, cert),
    }
    _emit(serialize.dumps(_report("tube", args, result, started)), args)
    return 0


def cmd_nul(args, started) -> int:
    params = GroupParams(args.p, args.d)
    points = tuple(params.reduce(pt) for pt in _parse_points(args.points))
    weights = tuple(int(w) for w in args.weights.split(","))
    inst = WeightedInstance(params, points, weights, args.r)
    sol = weighted_zero_sum(inst)
    result = {
        "p": args.p,
        "d": args.d,
        "r": args.r,
        "hypothesis_holds": inst.hypothesis_holds(),
        "status": "solution" if sol else "infeasible",
        "coefficients": list(sol.coefficients) if sol else None,
    }
    _emit(serialize.dumps(_report("nul", args, result, started)), args)
    return 0


def cmd_expand(args, started) -> int:
    obj = _load_json(args.input, "fibers")
    try:
        params = serialize.params_from_json(obj)
        fibers = {
            tuple(int(x) for x in item["label"]): serialize.multiset_from_json(
                params, item["entries"]
            )
            for item in obj["fibers"]
        }
        l = int(obj["l"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed fibers {args.input}: {exc}")
    try:
        cover = expansion_cover(fibers, l, ExpansionParams(T=args.T, seed=args.seed))
    except ExpansionStagnation as exc:
        result = {
            "status": "stagnation",
            "reason": exc.reason,
            "covered": exc.covered,
            "total": exc.total,
        }
        _emit(serialize.dumps(_report("expand", args, result, started)), args)
        return 2
    result = {"status": "cover", "cover": serialize.cover_to_json(cover)}
    _emit(serialize.dumps(_report("expand", args, result, started)), args)
    return 0


def cmd_pipeline(args, started) -> int:
    X = _load_instance(args.input)
    config = PipelineConfig(
        epsilon=Fraction(args.epsilon),
        growth=GrowthFunction.parse(args.growth),
        seed=args.seed,
    )
    res = find_zero_sum(X, config)
    if args.trace:
        with open(args.trace + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(serialize.trace_to_json(X, res.trace)))
        os.replace(args.trace + ".tmp", args.trace)
    if res.ok:
        result = {
            "status": "certificate",
            "config_digest": config.digest(),
            "certificate": serialize.certificate_to_json(X, res.certificate),
        }
        _emit(serialize.dumps(_report("pipeline", args, result, started)), args)
        return 0
    result = {
        "status": "failure",
        "config_digest": config.digest(),
        "failure": res.failure.as_dict(),
    }
    _emit(serialize.dumps(_report("pipeline", args, result, started)), args)
    return 2


def cmd_verify(args, started) -> int:
    obj = _load_json(args.input, "artifact")
    try:
        checks = verify.verify_payload(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"schema mismatch: {exc}")
    result = {
        "kind": obj.get("kind"),
        "checks": [{"name": name, "passed": ok} for name, ok in checks],
        "all_passed": all(ok for _name, ok in checks),
    }
    _emit(serialize.dumps(_report("verify", args, result, started)), args)
    return 0 if result["all_passed"] else 2


def cmd_bench(args, started) -> int:
    rows = []
    budget_s = (args.budget_ms / 1000.0) if args.budget_ms is not None else None

    def timed(fn):
        t0 = time.monotonic()
        fn()
        return time.monotonic() - t0

    if args.suite in ("dp", "all"):
        grid = [(11, 2, 100), (31, 2, 300), (101, 3, 1000)]
        for p, d, n in grid:
            params = GroupParams(p, d)
            X = generators.random_cloud(params, min(n, params.order), args.seed)
            secs = timed(lambda: enumerate_subsums(X))
            rows.append(("dp", f"subsums_p{p}_d{d}_n{n}", p, d, n, f"{secs:.4f}"))
            if budget_s is not None and time.monotonic() - started > budget_s:
                break
    if args.suite in ("pipeline", "all"):
        params = GroupParams(31, 2)
        X = generators.fiber_union(params, 9, seed=args.seed)
        secs = timed(lambda: find_zero_sum(X, PipelineConfig(seed=args.seed)))
        rows.append(("pipeline", "fiber_union_p31_d2", 31, 2, len(X), f"{secs:.4f}"))

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["suite", "name", "p", "d", "n", "seconds"])
    for row in rows:
        writer.writerow(row)
    _emit(buf.getvalue(), args)
    return 0


def cmd_gen(args, started) -> int:
    params = GroupParams(args.p, args.d)
    kw = {}
    if args.kind == "explicit":
        if not args.elements:
            raise UsageError("--kind explicit needs --elements")
        kw["elements"] = _parse_points(args.elements)
    elif args.kind == "random-cloud":
        kw["size"] = args.size or 2 * args.p
    elif args.kind == "fiber-union":
        kw.update(
            n_fibers=args.n_fibers,
            fiber_size=args.fiber_size,
            skew=args.skew,
            offset=args.offset,
        )
    elif args.kind == "box":
        kw.update(K=args.K, size=args.size)
    elif args.kind == "adversarial-thin":
        kw.update(size=args.size or 2 * args.p, K=args.K)
    X = generators.generate(args.kind, params, args.seed, **kw)
    _emit(serialize.dumps(serialize.instance_to_json(X)), args)
    return 0


_DISPATCH = {
    "olson": cmd_olson,
    "subsums": cmd_subsums,
    "find-zero-sum": cmd_find_zero_sum,
    "decompose": cmd_decompose,
    "tube": cmd_tube,
    "nul": cmd_nul,
    "expand": cmd_expand,
    "pipeline": cmd_pipeline,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args, started)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        report = {"error": "invariant", "name": exc.name, "lhs": exc.lhs, "op": exc.op, "rhs": exc.rhs}
        print(json.dumps(report, default=str), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
