import math
import random
from fractions import Fraction

import pytest

from zerosum.expansion import (
    DifferenceEntry,
    DifferenceMultiset,
    ExpansionParams,
    ExpansionStagnation,
    RelationVector,
    alon_dubiner_step,
    build_difference_multiset,
    enumerate_relations,
    expansion_cover,
    verify_fiber_thickness,
)
from zerosum.group import GroupParams
from zerosum.multiset import GroupMultiset


def ms(params, pts):
    return GroupMultiset.from_points(params, pts)


# -- relations ---------------------------------------------------------------


def test_relation_vector_invariants():
    rel = RelationVector((((-1,), 1), ((0,), -2), ((1,), 1)))
    assert rel.norm_inf() == 2
    with pytest.raises(ValueError):
        RelationVector((((-1,), 1), ((0,), -1)))  # coefficients sum to 0 but labels not killed
    with pytest.raises(ValueError):
        RelationVector((((0,), 1), ((1,), 1)))  # sum of coefficients nonzero


def test_enumerate_relations_collinear_triple():
    rels = enumerate_relations([(-1,), (0,), (1,)], 2)
    assert any(dict(r.entries) == {(-1,): 1, (0,): -2, (1,): 1} for r in rels)
    # every reported relation annihilates labels over the integers
    for rel in rels:
        assert sum(c for _l, c in rel.entries) == 0
        assert sum(c * lab[0] for lab, c in rel.entries) == 0


def test_enumerate_relations_parallelogram():
    rels = enumerate_relations([(-2,), (-1,), (1,), (2,)], 1)
    assert any(
        dict(r.entries) == {(-2,): 1, (2,): 1, (-1,): -1, (1,): -1} for r in rels
    )


def test_enumerate_relations_no_relation():
    assert enumerate_relations([(0,)], 4) == []
    # two distinct labels admit no bounded relation
    assert enumerate_relations([(0,), (1,)], 4) == []


# -- difference multisets ----------------------------------------------------


def test_single_fiber_diagnostic():
    params = GroupParams(11, 2)
    fibers = {(0,): ms(params, [(0, b) for b in range(5)])}
    A = build_difference_multiset(fibers, 1)
    assert not A.entries and A.diagnostic is not None


def test_collinear_fibers_produce_relation_entries():
    params = GroupParams(11, 2)
    rng = random.Random(0)
    fibers = {
        (lab,): ms(params, [(lab % 11, v) for v in rng.sample(range(11), 5)])
        for lab in (-1, 0, 1)
    }
    A = build_difference_multiset(fibers, 1, T=2, sample_budget=16, rng=random.Random(1))
    assert A.entries and A.validate()
    assert all(e.sigma[0] == 0 for e in A.entries)
    assert any(e.relation is not None for e in A.entries)


def test_fiber_pairs_flag():
    params = GroupParams(11, 2)
    fibers = {(0,): ms(params, [(0, b) for b in range(5)])}
    A = build_difference_multiset(fibers, 1, include_fiber_pairs=True)
    assert A.entries and all(e.source == "fiber-pair" for e in A.entries)
    assert A.validate()


def test_fiber_geometry_validation():
    params = GroupParams(11, 2)
    bad = {(0,): ms(params, [(0, 1), (1, 2)])}
    with pytest.raises(ValueError):
        build_difference_multiset(bad, 1)


# -- thickness report --------------------------------------------------------


def test_fiber_thickness_full_space():
    params = GroupParams(11, 2)
    entries = tuple(
        DifferenceEntry((0, b), ((0, b),), ((0, 0),), "fiber-pair") for b in range(11)
    )
    A = DifferenceMultiset(params, 1, entries)
    rep = verify_fiber_thickness(A, 2, Fraction(6, 11))
    assert rep.passed and rep.worst_fraction == Fraction(6, 11)


def test_fiber_thickness_concentrated_fails():
    params = GroupParams(11, 2)
    entries = tuple(
        DifferenceEntry((0, 3), ((0, 3),), ((0, 0),), "fiber-pair") for _ in range(6)
    )
    A = DifferenceMultiset(params, 1, entries)
    rep = verify_fiber_thickness(A, 1, Fraction(1, 10))
    assert not rep.passed and rep.worst_functional is not None


# -- growth step -------------------------------------------------------------


def test_ad_step_singleton():
    params = GroupParams(11, 1)
    A = ms(params, [(3,), (5,)])
    a, growth = alon_dubiner_step(A, [(0,)])
    assert growth == 1 and a == (3,)  # lexicographic tie-break


def test_ad_step_d1_interval():
    p = 13
    params = GroupParams(p, 1)
    A = ms(params, [(i,) for i in range(p)])
    Y = [(i,) for i in range(p // 4)]
    a, growth = alon_dubiner_step(A, Y)
    assert growth >= 1  # the d = 1 bound ceil(|Y|^0 / 2) = 1


def test_ad_step_d2_exhaustive_bound():
    params = GroupParams(11, 2)
    rng = random.Random(4)
    X = ms(params, sorted({(rng.randrange(11), rng.randrange(11)) for _ in range(30)}))
    diffs = sorted(
        {params.sub(x, y) for x in X.support() for y in X.support() if x != y}
    )
    A = ms(params, diffs)
    Y = sorted({(rng.randrange(11), rng.randrange(11)) for _ in range(30)})
    a, growth = alon_dubiner_step(A, Y)
    assert growth >= math.ceil(math.sqrt(len(Y)) / 2)
    # exhaustive recount of the maximiser
    best = max(
        len({params.add(y, c) for y in Y} - set(Y)) for c in A.support()
    )
    assert growth == best


def test_ad_step_preconditions():
    params = GroupParams(5, 1)
    with pytest.raises(ValueError):
        alon_dubiner_step(GroupMultiset.empty(params), [(0,)])
    A = ms(params, [(1,)])
    with pytest.raises(ValueError):
        alon_dubiner_step(A, [(i,) for i in range(4)])  # |Y| > p/2


# -- covers -------------------------------------------------------------------


def test_cover_degenerate_full_tube():
    params = GroupParams(13, 2)
    fibers = {(0, 0): ms(params, [(0, 0)])}
    cover = expansion_cover(fibers, 2)
    assert cover.k == 0 and not cover.pairs
    assert cover.verify_all_targets()


def test_cover_line_l0():
    params = GroupParams(11, 1)
    X = ms(params, [(i,) for i in range(11)])
    cover = expansion_cover({(): X}, 0, ExpansionParams(seed=1))
    assert cover.verify_all_targets()
    # every selection is a sub-multiset of X with the same cardinality and sum
    for u in range(11):
        sel = cover.select((u,))
        chosen = [x for elems in sel.values() for x in elems]
        assert len(chosen) == cover.k
        assert X.contains_submultiset(GroupMultiset.from_points(params, chosen))
        assert sum(c for (c,) in chosen) % 11 == u


def test_cover_three_fibers_l1():
    params = GroupParams(13, 2)
    rng = random.Random(7)
    fibers = {
        (lab,): ms(params, [(lab % 13, v) for v in rng.sample(range(13), 6)])
        for lab in (-1, 0, 1)
    }
    cover = expansion_cover(fibers, 1, ExpansionParams(seed=3))
    assert cover.verify_all_targets()
    # pairs are globally disjoint within each fiber's multiset
    used = {}
    for pair in cover.pairs:
        for x in pair.j1 + pair.j2:
            used[x] = used.get(x, 0) + 1
    for x, count in used.items():
        label = tuple([params.signed(x[0] % 13)])
        assert fibers[label].multiplicity(x) >= count


def test_cover_cloud_l0_d2():
    params = GroupParams(11, 2)
    rng = random.Random(9)
    cloud = ms(params, sorted({(rng.randrange(11), rng.randrange(11)) for _ in range(45)}))
    cover = expansion_cover({(): cloud}, 0, ExpansionParams(seed=2))
    assert cover.verify_all_targets()
    assert cover.k == sum(len(pr.j1) for pr in cover.pairs)


def test_cover_stagnates_on_tiny_fiber():
    params = GroupParams(11, 2)
    fibers = {(0,): ms(params, [(0, 1), (0, 2)])}
    with pytest.raises(ExpansionStagnation):
        expansion_cover(fibers, 1, ExpansionParams(seed=0))


def test_cover_determinism():
    params = GroupParams(13, 2)
    rng = random.Random(7)
    fibers = {
        (lab,): ms(params, [(lab % 13, v) for v in rng.sample(range(13), 6)])
        for lab in (-1, 0, 1)
    }
    c1 = expansion_cover(fibers, 1, ExpansionParams(seed=3))
    c2 = expansion_cover(fibers, 1, ExpansionParams(seed=3))
    assert c1.pairs == c2.pairs and c1.coverage == c2.coverage


def test_cover_growth_strictly_increases_until_half():
    # replay the recorded pairs: the reachable set grows strictly at every
    # step while at most half the space is covered
    import numpy as np

    params = GroupParams(11, 2)
    rng = random.Random(9)
    cloud = ms(params, sorted({(rng.randrange(11), rng.randrange(11)) for _ in range(45)}))
    cover = expansion_cover({(): cloud}, 0, ExpansionParams(seed=2))
    p, D = 11, 2
    Y = np.zeros((p,) * D, dtype=bool)
    Y[(0, 0)] = True
    prev = 1
    for pair in cover.pairs:
        shifted = np.roll(Y, shift=pair.sigma, axis=(0, 1))
        Y |= shifted
        now = int(Y.sum())
        if prev * 2 <= p ** D:
            assert now > prev
        prev = now
    assert prev == p ** D


def test_enumerate_relations_two_dim_labels():
    labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rels = enumerate_relations(labels, 1)
    assert any(
        dict(r.entries) == {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1} for r in rels
    )
    for rel in rels:
        for k in range(2):
            assert sum(c * lab[k] for lab, c in rel.entries) == 0
