"""The three workloads: inputs made from the seed, and their operations.

A workload is a fixed list of operations, one round.  The measuring loop
repeats whole rounds, so every run attempts the same operations in the same
proportions whatever the seed and the run length.  The seed picks the
instances inside each stratum; the number of operations per stratum is fixed,
which keeps the median inside one cost class instead of in the gap between
two (see README.md).

Functions of the package are looked up on their module at call time, so the
traced run sees calls made here and calls made inside the package alike.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from zerosum import generators, pipeline, subsums, thickness
from zerosum.group import GroupParams
from zerosum.multiset import GroupMultiset

import checks

G1 = thickness.GrowthFunction("affine", 1, 1)


@dataclass
class Op:
    """One operation: ``run`` calls the package, ``check`` judges its output
    and returns False when the operation failed (raises when it is wrong).
    ``data`` is the generated input as a plain Counter of points."""

    kind: str
    group: tuple
    run: Callable[[], object]
    check: Callable[[object, bool], bool]
    data: Optional[Counter] = None


# ---------------------------------------------------------------------------
# pipeline_favorable: find_zero_sum on the criterion-7 family
# ---------------------------------------------------------------------------

# (p, fibers) strata of one round.  Cost classes on this family: 9 fibers
# ~0.2 s (p=31), 5 fibers ~0.4 s (p=31) / ~1.2 s (p=61), 6 fibers ~1.0 s
# (p=31) / ~2.4 s (p=61), 7 fibers ~2.7 s (p=31).  Six (31, 5) instances
# sit between four cheaper and four costlier ones, so the median lands in the
# middle of one cost class instead of in the gap between two, and it is
# spread over six instances.  The costly strata set the throughput.  The first
# operation of each prime is the warm-up.
PIPELINE_STRATA = (
    (31, 9), (61, 5), (31, 9), (31, 9), (31, 9),
    (31, 5), (31, 5), (31, 5), (31, 5), (31, 5), (31, 5),
    (31, 6), (61, 6), (31, 7),
)


def _pipeline_op(p: int, n_fibers: int, rng: random.Random) -> Op:
    params = GroupParams(p, 2)
    fiber_size = None if rng.random() < 0.5 else p - rng.randrange(1, 5)
    X = generators.fiber_union(
        params,
        n_fibers,
        fiber_size=fiber_size,
        seed=rng.randrange(2 ** 31),
        skew=rng.random() < 0.5,
        offset=rng.randrange(1, 4),
    )
    config = pipeline.PipelineConfig(seed=rng.randrange(2 ** 31))
    Xc = checks.counter_of(X)
    return Op(
        "find_zero_sum",
        (p, 2),
        lambda: pipeline.find_zero_sum(X, config),
        lambda out, full: checks.check_pipeline(Xc, p, 2, out),
        Xc,
    )


def pipeline_ops(seed: int) -> List[Op]:
    rng = random.Random(f"pipeline_favorable/{seed}")
    return [_pipeline_op(p, nf, rng) for p, nf in PIPELINE_STRATA]


# ---------------------------------------------------------------------------
# structural_grid: tube_decompose / decompose / strong_decompose
# ---------------------------------------------------------------------------


def _grid_instances(rng: random.Random) -> List[GroupMultiset]:
    """Instances of every kind of the criterion-6 grid: clouds, line unions,
    boxes (m = 9 single-point parts, 511 unions), thin slabs, d = 1 sets.

    Sorted by cost, the three F_31^2 clouds put their tube reductions
    (~6 ms) in the middle of the round; the five d = 1 sets put as many
    cheap operations below them as there are costlier ones above, so the
    median falls inside that cluster.
    """
    s = lambda: rng.randrange(2 ** 31)  # noqa: E731
    out = [generators.random_cloud(GroupParams(11, 2), 33, seed=s())]
    out += [generators.random_cloud(GroupParams(31, 2), 93, seed=s()) for _ in range(3)]
    for n_fibers in (2, 3, 4):
        out.append(
            generators.fiber_union(GroupParams(31, 2), n_fibers, seed=s(), offset=rng.randrange(5))
        )
    for p in (11, 31):
        shift = (rng.randrange(p), rng.randrange(p))
        out.append(generators.box(GroupParams(p, 2), 1).translate(shift))
    out.append(generators.adversarial_thin(GroupParams(31, 2), 75, K=1, seed=s()))
    for p in (11, 13, 17, 19, 31):
        out.append(generators.random_cloud(GroupParams(p, 1), max(3, p // 2), seed=s()))
    return out


def _grid_ops(X: GroupMultiset, check_seed: int) -> List[Op]:
    p, d = X.params.p, X.params.d
    Xc = checks.counter_of(X)
    delta = Fraction(1, 2 ** (d + 2))
    half, quarter = Fraction(1, 2), Fraction(1, 4)

    def check_tube(out, full):
        checks.check_tube(Xc, p, d, delta, out)
        return True

    def check_dec(out, full):
        checks.check_decompose(Xc, p, d, half, out)
        return True

    def check_strong(out, full):
        checks.check_strong(Xc, p, d, quarter, out, check_seed, full)
        return True

    return [
        Op("tube_decompose", (p, d), lambda: thickness.tube_decompose(X, 0, delta, G1), check_tube, Xc),
        Op("decompose", (p, d), lambda: thickness.decompose(X, 0, half, G1), check_dec, Xc),
        Op(
            "strong_decompose",
            (p, d),
            lambda: thickness.strong_decompose(X, 0, quarter, G1, m_budget=12),
            check_strong,
            Xc,
        ),
    ]


def grid_ops(seed: int) -> List[Op]:
    rng = random.Random(f"structural_grid/{seed}")
    ops: List[Op] = []
    for X in _grid_instances(rng):
        ops.extend(_grid_ops(X, rng.randrange(2 ** 31)))
    return ops


# ---------------------------------------------------------------------------
# oracles: find_zero_sum_subset and olson_constant
# ---------------------------------------------------------------------------

# Random sets of d(p-1)+1 points on both sides of the 4096-state switch
# between the int-bitset and numpy DP paths.  F_61^2 (3721 states) is left
# out: its cold permutation table alone takes ~9 s and ~500 MB (see
# CHANGES.md).  The second sets in F_19^2, F_23^2, F_17^3, F_19^3 and F_23^3
# make a cluster of ~1 ms operations, and those in F_5^2, F_7^2 and F_13^2
# put as many cheaper operations below it as there are costlier ones above,
# so the median falls inside the cluster.
DP_GROUPS = (
    (3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (19, 2), (23, 2),
    (11, 3), (17, 3), (19, 3), (23, 3), (31, 2), (31, 3), (101, 3),
    (5, 2), (7, 2), (13, 2), (19, 2), (23, 2), (17, 3), (19, 3), (23, 3),
)
FREE_GROUPS = ((5, 2), (11, 2), (31, 2), (11, 3), (17, 3), (23, 3))
# Exact Olson constants whose search ends in under a second; budgeted
# searches are left out because their time is the budget itself.  The
# searches set the throughput.
OLSON_GROUPS = ((11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (29, 1), (31, 1), (37, 1), (3, 2), (5, 2))
# The set-based DP check runs up to this many states.
SET_DP_LIMIT = 2500


def _random_matrix(p: int, d: int, rng: random.Random):
    while True:
        m = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if checks.det_mod(m, p):
            return m


def _dp_op(params: GroupParams, A: GroupMultiset, zero_sum: bool) -> Op:
    p, d = params.p, params.d
    Ac = checks.counter_of(A)

    def check(cert, full):
        checks.check_witness_or_none(Ac, p, d, cert, zero_sum)
        if full and params.order <= SET_DP_LIMIT:
            checks.check_reach(Ac, p, subsums.enumerate_subsums(A).reachable_values())
        return True

    return Op("find_zero_sum_subset", (p, d), lambda: subsums.find_zero_sum_subset(A), check, Ac)


def _free_op(p: int, d: int, rng: random.Random) -> Op:
    params = GroupParams(p, d)
    m = _random_matrix(p, d, rng)
    cols = {tuple(m[r][c] for r in range(d)): p - 1 for c in range(d)}
    op = _dp_op(params, GroupMultiset(params, cols), zero_sum=False)
    dp_check = op.check

    def check(cert, full):
        checks.check_free_construction(op.data, p, d, m)
        return dp_check(cert, full)

    op.check = check
    return op


def _olson_op(p: int, d: int) -> Op:
    params = GroupParams(p, d)

    def check(res, full):
        checks.check_olson(p, d, res)
        return True

    return Op("olson_constant", (p, d), lambda: subsums.olson_constant(params), check)


def oracle_ops(seed: int) -> List[Op]:
    rng = random.Random(f"oracles/{seed}")
    ops: List[Op] = []
    for p, d in DP_GROUPS:
        params = GroupParams(p, d)
        pts = set()
        while len(pts) < d * (p - 1) + 1:
            pts.add(tuple(rng.randrange(p) for _ in range(d)))
        ops.append(_dp_op(params, GroupMultiset.from_points(params, sorted(pts)), zero_sum=True))
    ops.extend(_free_op(p, d, rng) for p, d in FREE_GROUPS)
    ops.extend(_olson_op(p, d) for p, d in OLSON_GROUPS)
    return ops


# ---------------------------------------------------------------------------


def first_per_group(ops: List[Op], kinds=None) -> List[Op]:
    """Warm-up: the first operation of each (kind, group), which fills the
    package's per-group caches."""
    seen = set()
    out = []
    for op in ops:
        key = (op.kind, op.group)
        if key in seen or (kinds is not None and op.kind not in kinds):
            continue
        seen.add(key)
        out.append(op)
    return out


WORKLOADS = {
    "pipeline_favorable": (pipeline_ops, lambda ops: first_per_group(ops)),
    "structural_grid": (grid_ops, lambda ops: first_per_group(ops, ("tube_decompose",))),
    "oracles": (oracle_ops, lambda ops: first_per_group(ops, ("find_zero_sum_subset",))),
}
