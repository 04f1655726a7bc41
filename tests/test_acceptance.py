"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS line; every
tolerance is pinned here and nowhere else.  Expected constants were computed
first from independent oracles (naive 2^n subset enumeration, the naive
2^(p^d) zero-sum-free search, Cartesian brute force) and frozen below.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from zerosum.expansion import (
    ExpansionParams,
    ExpansionStagnation,
    expansion_cover,
    alon_dubiner_step,
)
from zerosum.generators import adversarial_thin, box, fiber_union, random_cloud
from zerosum.group import GroupParams, canonical_linear_parts
from zerosum.multiset import GroupMultiset
from zerosum.pipeline import PipelineConfig, find_zero_sum, verify_certificate
from zerosum.subsums import (
    enumerate_subsums,
    find_zero_sum_subset,
    naive_max_zero_sum_free,
    olson_constant,
)
from zerosum.thickness import (
    GrowthFunction,
    IteratedGrowth,
    decompose,
    hull_thickness,
    min_outside_fraction,
    strong_decompose,
    tube_decompose,
)
from zerosum.weighted import (
    WeightedInstance,
    brute_force_solvable,
    verify_coefficients,
    weighted_zero_sum,
)

G1 = GrowthFunction("affine", 1, 1)


def announce(n, name, detail=""):
    print(f"ACCEPTANCE {n} {name}: PASS {detail}")


def test_criterion_1_zero_sum_bound():
    """n > d(p-1) forces a zero-sum subset: exhaustive at (3,2), sampled at (5,2)."""
    t0 = time.monotonic()
    params = GroupParams(3, 2)
    pts = [params.unindex(i) for i in range(9)]
    for comb in combinations(pts, 5):
        cert = find_zero_sum_subset(GroupMultiset.from_points(params, comb))
        assert cert is not None, comb

    params5 = GroupParams(5, 2)
    pts5 = [params5.unindex(i) for i in range(25)]
    rng = random.Random(20240)
    successes = 0
    trials = 100_000
    for _ in range(trials):
        sub = rng.sample(pts5, 9)
        if find_zero_sum_subset(GroupMultiset.from_points(params5, sub)) is not None:
            successes += 1
    elapsed = time.monotonic() - t0
    assert successes == trials
    assert elapsed < 120, f"criterion 1 took {elapsed:.1f}s"
    announce(1, "zero-sum bound", f"(126 exhaustive + {trials} sampled, {elapsed:.1f}s)")


def test_criterion_2_exact_olson_values():
    """OL(F_p) = 2, 3, 4 for p = 3, 5, 7 and an exact value <= 5 at (3,2)."""
    # oracle first: direct enumeration over every subset of the group
    expected = {3: 2, 5: 3, 7: 4}
    for p, value in expected.items():
        naive = naive_max_zero_sum_free(GroupParams(p, 1))
        assert naive.size + 1 == value, f"naive oracle disagrees at p={p}"
    for p, value in expected.items():
        res = olson_constant(GroupParams(p, 1))
        assert res.exact and res.olson == value
    naive32 = naive_max_zero_sum_free(GroupParams(3, 2))
    res32 = olson_constant(GroupParams(3, 2))
    assert res32.exact and res32.olson == naive32.size + 1
    assert res32.olson <= 5
    announce(2, "exact Olson values", f"(3,5,7 -> 2,3,4; OL(F_3^2) = {res32.olson})")


def _weighted_instance(rng):
    p = rng.choice([3, 5, 7, 11, 13])
    d = rng.randrange(1, 4)
    params = GroupParams(p, d)
    n = rng.randrange(1, min(9, p ** d + 1))
    points = set()
    while len(points) < n:
        points.add(tuple(rng.randrange(p) for _ in range(d)))
    points = tuple(sorted(points))
    r = rng.randrange(0, 4)
    weights = [rng.randrange(max(1, 2 * r), max(2, 2 * r) + 8) for _ in points]
    need = d * (p - 1) + 2 * r * len(points) + 1
    while sum(weights) < need:
        weights[rng.randrange(len(points))] += rng.randrange(1, 6)
    return WeightedInstance(params, points, tuple(weights), r)


def test_criterion_3_weighted_completeness():
    """200 hypothesis-satisfying instances all solve, verify, and agree with
    Cartesian brute force wherever the product of coefficient sets is <= 1e6."""
    rng = random.Random(777)
    brute_checked = 0
    for i in range(200):
        inst = _weighted_instance(rng)
        assert inst.hypothesis_holds()
        sol = weighted_zero_sum(inst)
        assert sol is not None, f"instance {i} came back infeasible"
        assert verify_coefficients(inst, sol)
        verdict = brute_force_solvable(inst, cap=10 ** 6)
        if verdict is not None:
            brute_checked += 1
            assert verdict is True
    announce(3, "weighted completeness", f"(200/200 solved, {brute_checked} brute-checked)")


def _thick_difference_multiset(params, rng, size):
    pts = set()
    while len(pts) < size:
        pts.add(tuple(rng.randrange(params.p) for _ in range(params.d)))
    pts = sorted(pts)
    diffs = sorted(
        {
            tuple((a - b) % params.p for a, b in zip(x, y))
            for x in pts
            for y in pts
            if x != y
        }
    )
    return GroupMultiset.from_points(params, diffs)


def test_criterion_4_growth_step_bound():
    """Exhaustive maximiser beats ceil(|Y|^{(d-1)/d} / 2) on 50 thick instances."""
    rng = random.Random(4242)
    checked = 0
    while checked < 50:
        d = 1 if checked % 2 == 0 else 2
        p = rng.choice([11, 13, 31] if d == 1 else [11, 13])
        params = GroupParams(p, d)
        A = _thick_difference_multiset(params, rng, max(8, params.order // 3))
        # the growth bound needs A thick along every functional without
        # constant term; re-check the precondition before asserting the bound
        frac, _ = min_outside_fraction(
            A, 1, canonical_linear_parts(p, d), zero_constant_term=True
        )
        if frac < Fraction(1, 4):
            continue
        ysize = rng.randrange(1, params.order // 2 + 1)
        Y = set()
        while len(Y) < ysize:
            Y.add(tuple(rng.randrange(p) for _ in range(d)))
        _a, growth = alon_dubiner_step(A, Y)
        bound = math.ceil(len(Y) ** ((d - 1) / d) / 2)
        assert growth >= bound, (p, d, len(Y), growth, bound)
        checked += 1
    announce(4, "growth step bound", "(50/50 instances)")


def test_criterion_5_expansion_coverage():
    """Covers verify on every target; stagnation <= 20% before escalation and
    0% after."""
    rng = random.Random(555)
    attempts = 0
    stagnated_first = 0
    ladder = [
        ExpansionParams(T=2, per_step_samples=8, seed=0),
        ExpansionParams(T=4, per_step_samples=16, seed=1),
        ExpansionParams(T=4, per_step_samples=32, seed=2),
    ]

    cases = []
    for i in range(10):  # l = 0
        p = [11, 13, 31][i % 3]
        params = GroupParams(p, 2)
        size = {11: 50, 13: 60, 31: 70}[p]
        cloud = random_cloud(params, size, seed=100 + i)
        cases.append(({(): cloud}, 0))
    for i in range(10):  # l = 1
        p = [13, 31][i % 2]
        params = GroupParams(p, 2)
        labels = (-1, 0, 1) if i % 3 else (-2, -1, 0, 1)
        fibers = {}
        for lab in labels:
            vals = random.Random(1000 + 10 * i + lab).sample(range(p), 8)
            fibers[(lab,)] = GroupMultiset.from_points(params, [(lab % p, v) for v in vals])
        cases.append((fibers, 1))

    for fibers, l in cases:
        attempts += 1
        cover = None
        for rung, eparams in enumerate(ladder):
            try:
                cover = expansion_cover(fibers, l, eparams)
                break
            except ExpansionStagnation:
                if rung == 0:
                    stagnated_first += 1
        assert cover is not None, "stagnation survived escalation"
        assert cover.verify_all_targets()
        # fixed selection cardinality across every target
        D = cover.params.d - l
        sub = GroupParams(cover.params.p, D)
        sizes = {
            sum(len(v) for v in cover.select(sub.unindex(t)).values())
            for t in range(sub.order)
        }
        assert sizes == {cover.k}
    assert stagnated_first <= attempts // 5
    announce(
        5,
        "expansion coverage",
        f"({attempts} instances, {stagnated_first} first-rung stagnations)",
    )


def _grid_instances():
    """A deterministic mix of clouds, line unions, boxes, thin slabs, and
    d = 1 sets.

    Families are sized so the strong decomposition stays inside the 2^m
    sweep budget: tiny boxes shatter to m = 9 single points, slab fibers at
    p = 31 hold more than a saturated window can swallow (so they stay whole
    parts), and unions keep one part per line.
    """
    out = []
    i = 0
    while len(out) < 100:
        kind = i % 5
        seed = 9000 + i
        if kind == 0:
            p = [11, 31][i % 2]
            out.append(random_cloud(GroupParams(p, 2), 3 * p, seed=seed))
        elif kind == 1:
            out.append(fiber_union(GroupParams(31, 2), 2 + (i % 3), seed=seed, offset=i % 5))
        elif kind == 2:
            p = [11, 31][(i // 5) % 2]
            out.append(box(GroupParams(p, 2), 1, seed=seed))
        elif kind == 3:
            out.append(adversarial_thin(GroupParams(31, 2), 75, K=1, seed=seed))
        else:
            p = [11, 13, 31][i % 3]
            out.append(random_cloud(GroupParams(p, 1), max(3, p // 2), seed=seed))
        i += 1
    return out


def test_criterion_6_structural_postconditions():
    """Tube, decomposition, and strong decomposition postconditions re-check
    exactly on a 100-instance grid, zero exceptions."""
    instances = _grid_instances()
    assert len(instances) == 100
    for idx, X in enumerate(instances):
        d = X.params.d
        delta = Fraction(1, 2 ** (d + 2))
        Y, cert = tube_decompose(X, 0, delta, G1)
        assert Fraction(len(Y)) >= (1 - Fraction(2 ** (d + 1)) * delta) * len(X)
        ok, _, _ = cert.validate(Y)
        assert ok, f"tube certificate failed on instance {idx}"

        dec = decompose(X, 0, Fraction(1, 2), G1)
        assert sum(len(part) for part in dec.parts) + len(dec.x0) == len(X)
        assert all(passed for _name, passed in dec.validate(X)), idx

        sdec = strong_decompose(X, 0, Fraction(1, 4), G1, m_budget=12)
        for subset, sc in sdec.subset_certs.items():
            valid, frac, _ = sc.cert.validate(sdec.union(subset))
            assert valid and frac >= sc.cert.delta, (idx, subset)
        assert all(passed for _name, passed in sdec.validate(X)), idx
    announce(6, "structural postconditions", "(100 instances, 3 operations each)")


def _favorable_family():
    cases = []
    for i in range(25):
        p = 31 if i % 2 == 0 else 61
        params = GroupParams(p, 2)
        n_fibers = [5, 6, 7, 9][i % 4]
        fiber_size = None if i % 3 else p - (i % 5)
        cases.append(
            (
                fiber_union(
                    params,
                    n_fibers,
                    fiber_size=fiber_size,
                    seed=i,
                    skew=(i % 5 == 2),
                    offset=1 + (i % 3),
                ),
                i,
            )
        )
    return cases


def test_criterion_7_pipeline_end_to_end():
    """>= 90% of 25 favorable instances yield certificates; every certificate
    verifies and agrees with the subset-sum oracle; every failure carries a
    re-violating inequality; each run < 60 s."""
    successes = 0
    for X, seed in _favorable_family():
        t0 = time.monotonic()
        res = find_zero_sum(X, PipelineConfig(seed=seed))
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"instance {seed} took {elapsed:.1f}s"
        if res.ok:
            successes += 1
            assert verify_certificate(X, res.certificate)
            assert find_zero_sum_subset(X) is not None
        else:
            assert not res.failure.holds(), "failure inequality re-validated as true"
    assert successes >= 23, f"only {successes}/25 succeeded"
    announce(7, "pipeline end-to-end", f"({successes}/25 certificates)")


def test_criterion_8_deterministic_reports(tmp_path):
    """Byte-identical reports for repeated seeded runs."""
    from zerosum.cli import main

    def run_twice(argv, name):
        out1 = tmp_path / f"{name}_1.json"
        out2 = tmp_path / f"{name}_2.json"
        assert main(argv + ["--output", str(out1)]) in (0, 2)
        assert main(argv + ["--output", str(out2)]) in (0, 2)
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2, f"{name} reports differ"
        return b1

    xpath = tmp_path / "X.json"
    assert (
        main(
            [
                "gen", "--kind", "fiber-union", "--p", "31", "--d", "2",
                "--n-fibers", "5", "--offset", "1", "--seed", "0",
                "--output", str(xpath),
            ]
        )
        == 0
    )
    run_twice(["gen", "--kind", "random-cloud", "--p", "13", "--d", "2", "--size", "20", "--seed", "4"], "gen")
    run_twice(["olson", "--p", "5", "--d", "1", "--seed", "1"], "olson")
    run_twice(["pipeline", "--input", str(xpath), "--seed", "5"], "pipeline")
    run_twice(["nul", "--p", "5", "--d", "1", "--points", "1;2", "--weights", "5,5", "--r", "1"], "nul")
    announce(8, "deterministic reports", "(gen, olson, pipeline, nul)")


def test_criterion_9_subsum_dp_performance():
    """About 1e6 states with 1000 elements in under 10 seconds."""
    params = GroupParams(101, 3)
    assert abs(params.order - 10 ** 6) < 10 ** 5
    X = random_cloud(params, 1000, seed=0)
    t0 = time.monotonic()
    table = enumerate_subsums(X)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"DP took {elapsed:.2f}s"
    assert table.reachable_count() > 0
    announce(9, "subsum DP performance", f"({params.order} states in {elapsed:.2f}s)")
