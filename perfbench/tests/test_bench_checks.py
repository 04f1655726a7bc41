"""The benchmark's independent checkers accept right answers and reject
corrupted ones.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import os
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from worker import nearest_rank  # noqa: E402
from zerosum.generators import box, fiber_union, random_cloud  # noqa: E402
from zerosum.group import GroupParams  # noqa: E402
from zerosum.multiset import GroupMultiset  # noqa: E402
from zerosum.pipeline import PipelineConfig, StageFailure, find_zero_sum  # noqa: E402
from zerosum.subsums import enumerate_subsums, find_zero_sum_subset, olson_constant  # noqa: E402
from zerosum.thickness import decompose, strong_decompose, tube_decompose  # noqa: E402

G1 = workloads.G1


def cert_of(params, points):
    return SimpleNamespace(subset=GroupMultiset.from_points(params, points))


def test_pipeline_certificate_and_corruptions():
    params = GroupParams(31, 2)
    X = fiber_union(params, 9, seed=0, offset=1)
    Xc = checks.counter_of(X)
    res = find_zero_sum(X, PipelineConfig(seed=0))
    assert checks.check_pipeline(Xc, 31, 2, res) is True

    sub = list(res.certificate.subset.iter_with_multiplicity())
    nonzero = SimpleNamespace(certificate=cert_of(params, sub[1:]), failure=None)
    with pytest.raises(CheckFailed, match="sums to"):
        checks.check_pipeline(Xc, 31, 2, nonzero)
    outside = [x for x in params.elements() if x not in Xc][:1]
    foreign = SimpleNamespace(certificate=cert_of(params, outside * 31), failure=None)
    with pytest.raises(CheckFailed, match="sub-multiset"):
        checks.check_pipeline(Xc, 31, 2, foreign)
    empty = SimpleNamespace(certificate=cert_of(params, []), failure=None)
    with pytest.raises(CheckFailed, match="empty"):
        checks.check_pipeline(Xc, 31, 2, empty)


def test_stage_failure_must_be_false():
    false = StageFailure("s", "n", 3, ">=", Fraction(7, 2), "")
    assert checks.check_pipeline(Counter(), 31, 2, SimpleNamespace(certificate=None, failure=false)) is False
    true = StageFailure("s", "n", 4, ">=", Fraction(7, 2), "")
    with pytest.raises(CheckFailed, match="re-validates"):
        checks.check_stage_failure(true)


def test_tube_certificate_and_corruptions():
    params = GroupParams(31, 2)
    X = fiber_union(params, 3, seed=2, offset=1)
    Xc = checks.counter_of(X)
    delta = Fraction(1, 16)
    Y, cert = tube_decompose(X, 0, delta, G1)
    assert cert.l >= 1
    checks.check_tube(Xc, 31, 2, delta, (Y, cert))

    inflated = dataclasses.replace(cert, delta=Fraction(99, 100))
    with pytest.raises(CheckFailed, match="thick"):
        checks.check_tube(Xc, 31, 2, Fraction(99, 100), (Y, inflated))
    narrower = dataclasses.replace(cert, K=0, K_prime=1)
    with pytest.raises(CheckFailed, match="leaves"):
        checks.check_tubular(checks.counter_of(Y), narrower, 31, 2)


def test_decompositions_and_inflated_tube_count():
    params = GroupParams(11, 2)
    X = random_cloud(params, 33, seed=1)
    Xc = checks.counter_of(X)
    dec = decompose(X, 0, Fraction(1, 2), G1)
    checks.check_decompose(Xc, 11, 2, Fraction(1, 2), dec)
    first = dec.parts[0]
    dropped = first.minus(GroupMultiset.from_points(params, first.support()[:1]))
    lost = dataclasses.replace(dec, parts=(dropped,) + dec.parts[1:])
    with pytest.raises(CheckFailed, match="add up"):
        checks.check_decompose(Xc, 11, 2, Fraction(1, 2), lost)

    B = box(params, 1)
    Bc = checks.counter_of(B)
    sdec = strong_decompose(B, 0, Fraction(1, 4), G1, m_budget=12)
    assert sdec.m == 9
    checks.check_strong(Bc, 11, 2, Fraction(1, 4), sdec, seed=5, full=True)
    extra = dict(sdec.subset_certs)
    extra[(0, 0)] = sdec.subset_certs[(0,)]
    with pytest.raises(CheckFailed, match="union certificates"):
        checks.check_strong(Bc, 11, 2, Fraction(1, 4), dataclasses.replace(sdec, subset_certs=extra), 5, False)

    # two lines: every union is tubular with l = 1 and a thick fiber factor
    L = fiber_union(GroupParams(31, 2), 2, seed=1, offset=1)
    Lc = checks.counter_of(L)
    sdec = strong_decompose(L, 0, Fraction(1, 4), G1, m_budget=12)
    checks.check_strong(Lc, 31, 2, Fraction(1, 4), sdec, seed=5, full=True)
    bad = dict(sdec.subset_certs)
    sc = bad[(0, 1)]
    assert sc.cert.l == 1
    bad[(0, 1)] = dataclasses.replace(sc, cert=dataclasses.replace(sc.cert, delta=Fraction(1)))
    with pytest.raises(CheckFailed, match="thick"):
        checks.check_strong(Lc, 31, 2, Fraction(1, 4), dataclasses.replace(sdec, subset_certs=bad), 5, True)


def test_sampled_unions_are_deterministic():
    a = checks.sample_unions(9, seed=3)
    assert a == checks.sample_unions(9, seed=3)
    assert a[0] == (0,) and tuple(range(9)) in a and len(a) == 4


def test_brute_force_thickness_matches_hand_count():
    # five points on the line x_2 = 0 in F_7^2: the functional x_2 holds all
    # of them in [-0, 0], so the hull of the line is the only admissible span
    pts = Counter({(i, 0): 1 for i in range(5)})
    lam = checks.all_linear_parts(7, 2)
    assert checks.min_outside_fraction(pts, 7, 0, lam) == 0
    # inside its hull (the line), the best window of width 3 holds 3 points
    assert checks.hull_min_outside(pts, 7, 2, 1) == Fraction(2, 5)


def test_dp_witness_reach_and_corruptions():
    params = GroupParams(7, 2)
    A = random_cloud(params, 13, seed=4)
    Ac = checks.counter_of(A)
    cert = find_zero_sum_subset(A)
    checks.check_witness_or_none(Ac, 7, 2, cert, True)
    values = enumerate_subsums(A).reachable_values()
    checks.check_reach(Ac, 7, values)
    with pytest.raises(CheckFailed, match="reachable"):
        checks.check_reach(Ac, 7, values[1:])
    nonzero = [x for x in Ac if any(x)][:1]
    with pytest.raises(CheckFailed, match="sums to"):
        checks.check_witness_or_none(Ac, 7, 2, cert_of(params, nonzero), True)
    with pytest.raises(CheckFailed, match="no zero-sum witness"):
        checks.check_witness_or_none(Ac, 7, 2, None, True)


def test_set_dp_matches_subset_enumeration():
    from itertools import combinations

    elems = [(1, 2), (3, 3), (4, 0), (1, 2)]
    want = {
        tuple(sum(c) % 5 for c in zip(*comb))
        for r in range(1, 5)
        for comb in combinations(elems, r)
    }
    assert checks.set_dp_reach(elems, 5) == want


def test_zero_sum_free_construction():
    m = [[1, 2], [3, 1]]
    cols = Counter({(1, 3): 6, (2, 1): 6})
    checks.check_free_construction(cols, 7, 2, m)
    with pytest.raises(CheckFailed):
        checks.check_free_construction(Counter({(1, 3): 6, (2, 1): 5}), 7, 2, m)
    with pytest.raises(CheckFailed, match="singular"):
        checks.check_free_construction(cols, 7, 2, [[1, 2], [2, 4]])


def test_olson_values_and_corruptions():
    assert [checks.balandraud(p) for p in (3, 5, 7, 11, 37, 41)] == [2, 3, 4, 5, 9, 9]
    res = olson_constant(GroupParams(11, 1))
    checks.check_olson(11, 1, res)
    res2 = olson_constant(GroupParams(3, 2))
    checks.check_olson(3, 2, res2)
    for off in (-1, 1):
        with pytest.raises(CheckFailed, match="expected"):
            checks.check_olson(11, 1, dataclasses.replace(res, olson=res.olson + off))
    with pytest.raises(CheckFailed, match="sums to zero"):
        checks.check_olson(11, 1, dataclasses.replace(res, witness=((1,), (2,), (3,), (6,))))


def test_inputs_depend_only_on_the_seed():
    for make_ops, _warmup in workloads.WORKLOADS.values():
        a, b, c = make_ops(7), make_ops(7), make_ops(8)
        assert [(o.kind, o.group, o.data) for o in a] == [(o.kind, o.group, o.data) for o in b]
        assert [(o.kind, o.group) for o in a] == [(o.kind, o.group) for o in c]
        assert [o.data for o in a] != [o.data for o in c]


def test_nearest_rank_median():
    assert nearest_rank([5, 1, 3, 2, 4], 0.5) == 3
    assert nearest_rank([4, 1, 3, 2], 0.5) == 2
