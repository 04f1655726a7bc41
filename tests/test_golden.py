"""Golden comparison: seeded pipeline traces, strong decompositions, covers
and the exact subset-sum and Olson oracles.

`tests/data/golden.json` holds the outputs of the instances below as they were
before the thickness scan was batched over directions; the two `failure_*`
traces were added before `find_zero_sum` was split into stage functions, the
`cover_*` summaries before the cover's growth step became one scorer, the
`subsums_*` and `olson_*` keys before the subset-sum DP and the Olson search
moved from numpy tables and frozensets onto one packed-integer kernel, and the
`cover_relation_*` keys before each cover step was rebuilt around one growth
table.  The `pipeline_relation_*` keys were regenerated when fiber-label
relations came to be found by the bounded-support search alone, and with
`cover_collinear` and `cover_relation_{010,018,025,032,107,109}` when each
cover step that samples relations came to draw them from its own generator.
Every later change that claims to keep outputs identical must reproduce them
byte for byte; a failure names every key that differs.

Regenerate (only when an output change is intended and recorded in
CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py

which prints the keys it changed.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from zerosum.expansion import ExpansionParams, ExpansionStagnation, expansion_cover
from zerosum.generators import box, fiber_union, random_cloud
from zerosum.group import GroupParams
from zerosum.multiset import GroupMultiset
from zerosum.pipeline import PipelineConfig, find_zero_sum
from zerosum.serialize import frac_str, multiset_to_json, trace_to_json
from zerosum.subsums import SearchBudget, enumerate_subsums, max_zero_sum_free, olson_constant
from zerosum.thickness import GrowthFunction, strong_decompose

FIXTURE = Path(__file__).parent / "data" / "golden.json"

# indices into the criterion-7 favorable family: p = 31 and p = 61, full and
# trimmed fibers, one skewed union
PIPELINE_CASES = (0, 1, 2, 3, 6, 9)


def _favorable(i: int) -> GroupMultiset:
    """Instance i of the criterion-7 family (tests/test_acceptance.py); the
    test modules import nothing from each other."""
    p = 31 if i % 2 == 0 else 61
    return fiber_union(
        GroupParams(p, 2),
        [5, 6, 7, 9][i % 4],
        fiber_size=None if i % 3 else p - (i % 5),
        seed=i,
        skew=(i % 5 == 2),
        offset=1 + (i % 3),
    )


def _strong_cases():
    # three parallel lines 3x - y = c, so the certificates carry scaled,
    # non-axis functionals
    lines = [(b, (3 * b - c) % 31) for c in (3, 4, 9) for b in range(31)]
    return {
        "box_11": box(GroupParams(11, 2), 1),
        "box_31": box(GroupParams(31, 2), 1).translate((5, 29)),
        "lines_31": GroupMultiset.from_points(GroupParams(31, 2), lines),
    }


# fiber_union arguments and pipeline seed of two criterion-7-style instances
# whose cover takes a relation pair: the tenth operation of the benchmark's
# seed-7 pipeline_favorable round, and one skewed union
RELATION_PIPELINES = (
    (dict(n_fibers=5, fiber_size=None, seed=246438873, skew=False, offset=2), 1597832986),
    (dict(n_fibers=5, fiber_size=None, seed=360, skew=True, offset=1), 360),
)


def _failing_cases():
    """The instances of tests/test_pipeline.py that fail at the weighted
    stage (ten random points of F_31^2) and at the strong decomposition
    (three planes of F_11^3, where the exponent cap fires)."""
    rng = random.Random(0)
    pts = sorted({(rng.randrange(31), rng.randrange(31)) for _ in range(12)} - {(0, 0)})[:10]
    planes = [(c, a, b) for c in (1, 2, 3) for a in range(11) for b in range(11)]
    return {
        "failure_weighted": (GroupMultiset.from_points(GroupParams(31, 2), pts), 0),
        "failure_strong": (GroupMultiset.from_points(GroupParams(11, 3), planes), 1),
    }


# _relation_family seeds whose cover took a relation pair after at least one
# fiber pair, while growing, past the half-space mark, or both, when every
# cover step drew from one generator; family 032 no longer takes one
RELATION_FAMILIES = (1, 2, 10, 18, 25, 32, 107, 109)


def _relation_family(i: int):
    """Three or four fibers of F_11^2 or F_13^2 whose second coordinates lie
    in a window of width 3 or 4, with multiplicities 1-3: pairs inside one
    fiber shift by less than the window, so relations reach further."""
    rng = random.Random(f"golden/relation/{i}")
    p = rng.choice([11, 13])
    params = GroupParams(p, 2)
    labels = rng.choice([(-1, 0, 1), (-2, -1, 0, 1), (-1, 0, 1, 2), (-2, 0, 2)])
    width = rng.choice([3, 4])
    fibers = {}
    for lab in labels:
        pts = [(lab % p, v) for v in range(width) for _ in range(rng.randrange(1, 4))]
        fibers[(lab,)] = GroupMultiset.from_points(params, pts)
    return fibers


def _cover_cases():
    """Criterion 5's twenty fiber families (tests/test_acceptance.py) at each
    rung of its ladder, the collinear fibers that need a relation pair
    (tests/test_expansion.py), the relation families above and one stagnation
    in each phase."""
    ladder = [
        ExpansionParams(T=2, per_step_samples=8, seed=0),
        ExpansionParams(T=4, per_step_samples=16, seed=1),
        ExpansionParams(T=4, per_step_samples=32, seed=2),
    ]
    families = []
    for i in range(10):  # l = 0
        p = [11, 13, 31][i % 3]
        params = GroupParams(p, 2)
        size = {11: 50, 13: 60, 31: 70}[p]
        families.append(({(): random_cloud(params, size, seed=100 + i)}, 0))
    for i in range(10):  # l = 1
        p = [13, 31][i % 2]
        params = GroupParams(p, 2)
        fibers = {}
        for lab in (-1, 0, 1) if i % 3 else (-2, -1, 0, 1):
            vals = random.Random(1000 + 10 * i + lab).sample(range(p), 8)
            fibers[(lab,)] = GroupMultiset.from_points(params, [(lab % p, v) for v in vals])
        families.append((fibers, 1))
    out = {}
    for i, (fibers, l) in enumerate(families):
        for rung, eparams in enumerate(ladder):
            out[f"cover_ladder_{i:02d}_{rung}"] = (fibers, l, eparams)
    p11 = GroupParams(11, 2)
    counts = {-1: (2, 2, 1), 0: (3, 3, 1), 1: (1, 3, 3)}
    collinear = {
        (lab,): GroupMultiset.from_points(
            p11, [(lab % 11, v) for v, m in enumerate(mult) for _ in range(m)]
        )
        for lab, mult in counts.items()
    }
    out["cover_collinear"] = (collinear, 1, ExpansionParams(T=2, seed=0))
    for i in RELATION_FAMILIES:
        out[f"cover_relation_{i:03d}"] = (_relation_family(i), 1, ExpansionParams(T=2, seed=i))
    # two fibers of F_7^2 that stall past the half-space mark, and three
    # whose pairs stop growing the reachable set after one step
    p7 = GroupParams(7, 2)
    stalls = {
        "completion": {(-1,): [(6, 0), (6, 3)], (0,): [(0, 0), (0, 2), (0, 5), (0, 6)]},
        "growth": {(-1,): [(6, 1), (6, 2), (6, 6)], (0,): [(0, 6), (0, 6)], (1,): [(1, 6)]},
    }
    for name, pts in stalls.items():
        fibers = {lab: GroupMultiset.from_points(p7, xs) for lab, xs in pts.items()}
        out[f"cover_stagnating_{name}"] = (fibers, 1, ExpansionParams())
    return out


# the oracles benchmark's subset-sum groups: d(p-1)+1 distinct random points each
DP_GROUPS = (
    (3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (19, 2), (23, 2),
    (11, 3), (17, 3), (19, 3), (23, 3), (31, 2), (31, 3), (101, 3),
    (5, 2), (7, 2), (13, 2), (19, 2), (23, 2), (17, 3), (19, 3), (23, 3),
)
# exact Olson searches: the oracles benchmark's groups, F_3^3 and F_41
OLSON_GROUPS = (
    (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (29, 1), (31, 1), (37, 1), (3, 2), (5, 2),
    (3, 3), (41, 1),
)


def _subsum_cases():
    """The DP inputs: one random set per DP_GROUPS entry, then for d = 1..3 a
    lone zero, a repeated element, an early saturation (every state, twice)
    and a zero-sum-free set."""
    rng = random.Random("golden/subsums")
    out = {}
    for i, (p, d) in enumerate(DP_GROUPS):
        params = GroupParams(p, d)
        pts = set()
        while len(pts) < d * (p - 1) + 1:
            pts.add(tuple(rng.randrange(p) for _ in range(d)))
        out[f"subsums_random_{i:02d}"] = GroupMultiset.from_points(params, sorted(pts))
    for p, d in ((7, 1), (5, 2), (3, 3)):
        params = GroupParams(p, d)
        every = list(params.elements())
        out[f"subsums_zero_{d}"] = GroupMultiset.from_points(params, [params.zero()])
        out[f"subsums_repeated_{d}"] = GroupMultiset(params, {(1,) * d: p, (2,) + (0,) * (d - 1): 2})
        out[f"subsums_saturating_{d}"] = GroupMultiset.from_points(params, every + every)
        basis = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        out[f"subsums_free_{d}"] = GroupMultiset(params, {e: p - 1 for e in basis})
    return out


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def _subsum_summary(A) -> dict:
    """SHA-256 prefixes of the table, first_round, order and zero witness."""
    table = enumerate_subsums(A)
    witness = table.witness(A.params.zero())
    return {
        "shape": list(table.table.shape),
        "table": _digest(table.table.astype("u1").tobytes()),
        "first_round": _digest(table.first_round.astype("<i4").tobytes()),
        "order": _digest(_dump([list(x) for x in table.order]).encode()),
        "zero_witness": None if witness is None else _digest(_dump(multiset_to_json(witness)).encode()),
    }


def _olson_summaries() -> dict:
    out = {}
    for p, d in OLSON_GROUPS:
        res = max_zero_sum_free(GroupParams(p, d))
        out[f"olson_free_{p}_{d}"] = {
            "size": res.size,
            "witness": [list(v) for v in res.witness],
            "nodes": res.nodes,
            "exact": res.exact,
        }
    budgeted = olson_constant(GroupParams(13, 2), SearchBudget(max_nodes=50))
    out["olson_budget_13_2"] = budgeted.as_dict()
    return out


def oracle_outputs() -> dict:
    out = {name: _dump(_subsum_summary(A)) for name, A in _subsum_cases().items()}
    out.update((name, _dump(summary)) for name, summary in _olson_summaries().items())
    return out


def _cover_summary(fibers, l, eparams) -> dict:
    """k, base, the pairs (j1, j2, sigma, source) and a SHA-256 prefix of
    first_step; for a stagnating run its reason, coverage and pair count."""
    try:
        cover = expansion_cover(fibers, l, eparams)
    except ExpansionStagnation as exc:
        return {"reason": exc.reason, "covered": exc.covered, "pairs": exc.pairs}
    return {
        "k": cover.k,
        "base": list(cover.base),
        "pairs": [
            [[list(x) for x in pr.j1], [list(x) for x in pr.j2], list(pr.sigma), pr.source]
            for pr in cover.pairs
        ],
        "first_step": hashlib.sha256(_dump(list(cover.first_step)).encode()).hexdigest()[:16],
    }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _strong_summary(sdec) -> dict:
    """x0 and, per union, [subset, [[a0, linear], ...], achieved, delta_j].

    delta_j has thousands of digits on the boxes (its denominator carries
    2^((d+m+4)j)), so it is kept as a SHA-256 prefix of its exact decimal
    form.
    """
    certs = []
    for subset in sorted(sdec.subset_certs):
        sc = sdec.subset_certs[subset]
        certs.append(
            [
                list(subset),
                [[f.a0, list(f.linear)] for f in sc.cert.functionals],
                frac_str(sc.achieved),
                hashlib.sha256(frac_str(sc.delta_schedule).encode()).hexdigest()[:16],
            ]
        )
    return {"x0": multiset_to_json(sdec.x0), "certs": certs}


def golden_outputs() -> dict:
    out = {}
    for i in PIPELINE_CASES:
        X = _favorable(i)
        res = find_zero_sum(X, PipelineConfig(seed=i))
        out[f"pipeline_{i}"] = _dump(trace_to_json(X, res.trace))
    for i, (args, seed) in enumerate(RELATION_PIPELINES):
        X = fiber_union(GroupParams(31, 2), **args)
        res = find_zero_sum(X, PipelineConfig(seed=seed))
        out[f"pipeline_relation_{i}"] = _dump(trace_to_json(X, res.trace))
    for name, (X, seed) in _failing_cases().items():
        res = find_zero_sum(X, PipelineConfig(seed=seed))
        out[name] = _dump(trace_to_json(X, res.trace))
    g = GrowthFunction("affine", 1, 1)
    for name, X in _strong_cases().items():
        sdec = strong_decompose(X, 0, Fraction(1, 4), g)
        out[f"strong_{name}"] = _dump(_strong_summary(sdec))
    for name, (fibers, l, eparams) in _cover_cases().items():
        out[name] = _dump(_cover_summary(fibers, l, eparams))
    out.update(oracle_outputs())
    return out


def _changed_keys(old: dict, new: dict) -> list:
    """Every key present in only one of the two, or with different values."""
    return sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))


def test_golden_outputs_are_byte_identical():
    changed = _changed_keys(json.loads(FIXTURE.read_text()), golden_outputs())
    assert not changed, f"{len(changed)} keys differ from the golden fixture: {', '.join(changed)}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    new = golden_outputs()
    FIXTURE.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    for key in _changed_keys(old, new):
        print(f"changed: {key}")
