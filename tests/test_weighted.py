import random
from itertools import combinations

import pytest

from zerosum.group import GroupParams
from zerosum.multiset import GroupMultiset
from zerosum.subsums import zero_sum_sequence
from zerosum.weighted import (
    CoefficientSolution,
    WeightedInstance,
    brute_force_solvable,
    verify_coefficients,
    weighted_zero_sum,
)


def test_forced_multiple_of_p():
    # Y = {1} in F_3, w = 3, r = 0: the only nonzero choice with zero sum is 3
    inst = WeightedInstance(GroupParams(3, 1), ((1,),), (3,), 0)
    assert inst.hypothesis_holds()
    sol = weighted_zero_sum(inst)
    assert sol is not None and sol.coefficients == (3,)


def test_zero_point_gets_smallest_positive():
    inst = WeightedInstance(GroupParams(5, 2), ((0, 0),), (3,), 1)
    sol = weighted_zero_sum(inst)
    assert sol is not None and sol.coefficients == (1,)


def test_two_point_instance():
    inst = WeightedInstance(GroupParams(5, 1), ((1,), (2,)), (5, 5), 1)
    assert inst.hypothesis_holds()  # 10 >= 4 + 4 + 1
    sol = weighted_zero_sum(inst)
    assert sol is not None
    a1, a2 = sol.coefficients
    assert (a1 + 2 * a2) % 5 == 0
    for a in (a1, a2):
        assert a == 0 or 1 <= a <= 4
    assert verify_coefficients(inst, sol)


def test_verify_rejects_bad_vectors():
    inst = WeightedInstance(GroupParams(5, 1), ((1,), (2,)), (5, 5), 2)
    assert not verify_coefficients(inst, CoefficientSolution((0, 0)))
    # 1 + 2*2 = 5 = 0: right sum, but a_1 = 1 sits in the (0, r) gap
    assert not verify_coefficients(inst, CoefficientSolution((1, 2)))
    # membership fine, wrong sum
    assert not verify_coefficients(inst, CoefficientSolution((2, 0)))
    # r = 1 widens the allowed set and (1, 2) becomes a genuine solution
    inst_r1 = WeightedInstance(GroupParams(5, 1), ((1,), (2,)), (5, 5), 1)
    assert verify_coefficients(inst_r1, CoefficientSolution((1, 2)))


def test_gap_violation_rejected():
    inst = WeightedInstance(GroupParams(5, 1), ((1,), (2,)), (6, 6), 2)
    # a = (1, 2): 1 < r = 2 violates membership even though 1 + 4 = 5 = 0
    assert not verify_coefficients(inst, CoefficientSolution((1, 2)))


def test_infeasible_requires_failed_hypothesis():
    # single point 1 in F_5, w = 2, r = 1: allowed {0, 1}, no zero sum
    inst = WeightedInstance(GroupParams(5, 1), ((1,),), (2,), 1)
    assert not inst.hypothesis_holds()
    assert weighted_zero_sum(inst) is None


def _random_instance(rng, force_hypothesis):
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
    if force_hypothesis:
        need = d * (p - 1) + 2 * r * len(points) + 1
        while sum(weights) < need:
            weights[rng.randrange(len(points))] += rng.randrange(1, 6)
    return WeightedInstance(params, points, tuple(weights), r)


def test_completeness_under_hypothesis():
    rng = random.Random(2024)
    for _ in range(60):
        inst = _random_instance(rng, True)
        sol = weighted_zero_sum(inst)
        assert sol is not None, inst
        assert verify_coefficients(inst, sol)


def test_agreement_with_brute_force():
    rng = random.Random(99)
    checked = 0
    for _ in range(120):
        inst = _random_instance(rng, False)
        verdict = brute_force_solvable(inst, cap=200_000)
        if verdict is None:
            continue
        checked += 1
        sol = weighted_zero_sum(inst)
        assert (sol is not None) == verdict, inst
        if sol is not None:
            assert verify_coefficients(inst, sol)
    assert checked >= 30


def test_weight_monotonicity():
    rng = random.Random(5)
    for _ in range(40):
        inst = _random_instance(rng, False)
        sol = weighted_zero_sum(inst)
        if sol is None:
            continue
        i = rng.randrange(len(inst.points))
        bumped = list(inst.weights)
        bumped[i] += rng.randrange(1, 4)
        inst2 = WeightedInstance(inst.params, inst.points, tuple(bumped), inst.r)
        assert weighted_zero_sum(inst2) is not None


def test_zero_sum_sequence_triple_ones():
    params = GroupParams(3, 1)
    cert = zero_sum_sequence([(1,), (1,), (1,)], params)
    assert cert is not None and dict(cert.subset.items()) == {(1,): 3}


def test_zero_sum_sequence_contains_zero():
    params = GroupParams(5, 2)
    seq = [(0, 0)] + [(1, 2)] * 8  # n = 9 > d(p-1) = 8
    cert = zero_sum_sequence(seq, params)
    assert cert is not None
    assert cert.verify(GroupMultiset.from_points(params, seq))


def test_zero_sum_sequence_guaranteed_regime_small_grid():
    # every multiset of 5 elements of F_3^2 (n > d(p-1) = 4) has a zero sum;
    # spot-check across seeded draws including repeats
    params = GroupParams(3, 2)
    rng = random.Random(1)
    pts = [params.unindex(i) for i in range(9)]
    for _ in range(300):
        seq = [pts[rng.randrange(9)] for _ in range(5)]
        cert = zero_sum_sequence(seq, params)
        assert cert is not None
        assert cert.verify(GroupMultiset.from_points(params, seq))


def test_zero_sum_sequence_fallback_below_threshold():
    params = GroupParams(5, 1)
    assert zero_sum_sequence([(1,), (2,)], params) is None
    cert = zero_sum_sequence([(2,), (3,)], params)
    assert cert is not None
