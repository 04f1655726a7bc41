import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import expansion, serialize, verify
from zerosum.expansion import (
    ExpansionParams,
    ExpansionStagnation,
    RelationVector,
    alon_dubiner_step,
    enumerate_relations,
    expansion_cover,
)
from zerosum.group import GroupParams, InvariantError, canonical_linear_parts
from zerosum.multiset import GroupMultiset
from zerosum.thickness import min_outside_fraction

SRC = str(Path(__file__).resolve().parents[1] / "src")


def ms(params, pts):
    return GroupMultiset.from_points(params, pts)


def _spread_fibers():
    """Three 6-element fibers of F_13^2 whose fiber pairs reach the growth
    table's bound at every cover step."""
    params = GroupParams(13, 2)
    rng = random.Random(7)
    return {
        (lab,): ms(params, [(lab % 13, v) for v in rng.sample(range(13), 6)])
        for lab in (-1, 0, 1)
    }


def _collinear_fibers():
    """Three fibers of F_11^2 whose second coordinates in {0, 1, 2} leave
    fiber pairs only the shifts +-1 and +-2, so the cover reaches for the
    (1, -2, 1) relation."""
    p11 = GroupParams(11, 2)
    counts = {-1: (2, 2, 1), 0: (3, 3, 1), 1: (1, 3, 3)}
    return {
        (lab,): ms(p11, [(lab % 11, v) for v, m in enumerate(mult) for _ in range(m)])
        for lab, mult in counts.items()
    }


# -- relations ---------------------------------------------------------------


def test_relation_vector_invariants():
    RelationVector((((-1,), 1), ((0,), -2), ((1,), 1)))
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


def test_enumerate_relations_computed_once_per_label_set():
    rels = enumerate_relations([(1,), (-1,), (0,)], 2)
    assert isinstance(rels, tuple)
    assert enumerate_relations([(-1,), (0,), (1,)], 2) is rels
    assert enumerate_relations([(-1,), (0,), (1,)], 1) is not rels


def test_enumerate_relations_no_relation():
    assert enumerate_relations([(0,)], 4) == ()
    # two distinct labels admit no bounded relation
    assert enumerate_relations([(0,), (1,)], 4) == ()


def naive_relations(labels, T):
    """Every nonzero coefficient vector on the sorted labels with entries in
    [-T, T], zero sum, zero label sum and support at most
    max(_SUPPORT_CAP, l + 2), as relations sorted by entries."""
    labels = sorted(labels)
    n, l = len(labels), len(labels[0])
    vecs = np.array(list(itertools.product(range(-T, T + 1), repeat=n)), dtype=np.int64)
    rows = np.vstack([np.ones(n, dtype=np.int64), np.array(labels, dtype=np.int64).T])
    support = np.count_nonzero(vecs, axis=1)
    keep = (vecs @ rows.T == 0).all(axis=1) & (support > 0)
    keep &= support <= max(expansion._SUPPORT_CAP, l + 2)
    rels = [
        RelationVector(tuple((lab, int(c)) for lab, c in zip(labels, vec) if c))
        for vec in vecs[keep]
    ]
    return tuple(sorted(rels, key=lambda rel: rel.entries))


@st.composite
def label_sets(draw):
    l = draw(st.integers(1, 3))
    # narrower boxes in higher l, so that labels often admit short relations
    r = {1: 3, 2: 2, 3: 1}[l]
    label = st.tuples(*[st.integers(-r, r)] * l)
    n = draw(st.integers(2, 6))
    return draw(st.lists(label, min_size=n, max_size=n, unique=True)), draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(label_sets())
def test_enumerate_relations_matches_naive_search(case):
    labels, T = case
    assert enumerate_relations(labels, T) == naive_relations(labels, T)


def test_enumerate_relations_reaches_support_l_plus_2():
    # five labels of Z^3 in general position: no four are affinely
    # dependent, so the only relations are +-(2, -1, -1, -1, 1)
    labels = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    assert enumerate_relations(labels, 1) == ()
    rels = enumerate_relations(labels, 2)
    assert [[c for _lab, c in rel.entries] for rel in rels] == [[-2, 1, 1, 1, -1], [2, -1, -1, -1, 1]]


# -- pair provenance ---------------------------------------------------------


def all_passed(cover):
    return all(ok for _name, ok in cover.validate())


def test_single_fiber_diagnostic():
    # one fiber admits no relation, and five elements feed at most two
    # fiber pairs: four reachable states of eleven
    params = GroupParams(11, 2)
    fibers = {(0,): ms(params, [(0, b) for b in range(5)])}
    with pytest.raises(ExpansionStagnation) as info:
        expansion_cover(fibers, 1)
    assert info.value.reason and info.value.covered < info.value.total


def test_collinear_fibers_produce_relation_entries():
    cover = expansion_cover(_collinear_fibers(), 1, ExpansionParams(T=2, seed=0))
    assert all_passed(cover)
    assert all(pair.sigma[0] == 0 for pair in cover.pairs)
    assert any(pair.source == "relation" for pair in cover.pairs)
    assert all((pair.relation is None) == (pair.source == "fiber-pair") for pair in cover.pairs)


def test_fiber_pairs_flag():
    params = GroupParams(11, 2)
    fibers = {(0,): ms(params, [(0, b) for b in range(11)])}
    cover = expansion_cover(fibers, 1)
    assert cover.pairs and all(pair.source == "fiber-pair" for pair in cover.pairs)
    assert all_passed(cover)


def test_fiber_geometry_validation():
    params = GroupParams(11, 2)
    bad = {(0,): ms(params, [(0, 1), (1, 2)])}
    with pytest.raises(ValueError):
        expansion_cover(bad, 1)
    fiber = {(0,): ms(params, [(0, 1), (0, 2)])}
    with pytest.raises(ValueError, match="outside"):
        expansion_cover({(0, 0, 0): fiber[(0,)]}, 3)
    with pytest.raises(ValueError, match="outside"):
        expansion_cover({(): fiber[(0,)]}, -1)
    with pytest.raises(ValueError, match="coordinates"):
        expansion_cover({(0, 0): fiber[(0,)]}, 1)
    with pytest.raises(ValueError, match="negative"):
        expansion_cover(fiber, 1, ExpansionParams(T=-1))
    with pytest.raises(ValueError, match="per_step_samples"):
        expansion_cover(fiber, 1, ExpansionParams(per_step_samples=-1))


# -- thickness of the pair differences ----------------------------------------


def fiber_thickness(params, sigmas, k):
    """Worst outside-fraction of projected differences over every functional
    with zero constant term on the fiber factor F_p^1."""
    projected = ms(GroupParams(params.p, 1), [s[1:] for s in sigmas])
    parts = canonical_linear_parts(params.p, 1)
    return min_outside_fraction(projected, k, parts, zero_constant_term=True)


def test_fiber_thickness_full_space():
    params = GroupParams(11, 2)
    frac, _worst = fiber_thickness(params, [(0, b) for b in range(11)], 2)
    assert frac == Fraction(6, 11)


def test_fiber_thickness_concentrated_fails():
    params = GroupParams(11, 2)
    frac, worst = fiber_thickness(params, [(0, 3)] * 6, 1)
    assert frac < Fraction(1, 10) and worst is not None


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


# d = 1-3 with at most 125 states, so Y can fill half the space
AD_SHAPES = [(3, 1), (11, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]


@st.composite
def growth_instances(draw):
    """(params, points of A, Y) with A nonempty and 1 <= |Y| <= p^d / 2."""
    p, d = draw(st.sampled_from(AD_SHAPES))
    params = GroupParams(p, d)
    point = st.tuples(*[st.integers(0, p - 1)] * d)
    A = draw(st.lists(point, min_size=1, max_size=12))
    Y = draw(st.lists(point, min_size=1, max_size=params.order // 2, unique=True))
    return params, A, Y


@settings(max_examples=200, deadline=None)
@given(growth_instances())
def test_ad_step_matches_set_arithmetic(inst):
    params, pts, Y = inst
    growth_of = {a: len({params.add(y, a) for y in Y} - set(Y)) for a in set(pts)}
    best = max(growth_of.values())
    a, growth = alon_dubiner_step(ms(params, pts), Y)
    assert growth == best
    # the lexicographically first maximiser
    assert a == min(c for c, g in growth_of.items() if g == best)


@st.composite
def grids(draw):
    """Boolean (p,)^d arrays, d = 1-3: empty, full or random."""
    p, d = draw(st.sampled_from([(2, 1), (3, 1), (11, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]))
    kind = draw(st.sampled_from(["empty", "full", "random"]))
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=p ** d, max_size=p ** d))
    else:
        bits = [kind == "full"] * p ** d
    return np.array(bits, dtype=bool).reshape((p,) * d)


@settings(max_examples=200, deadline=None)
@given(grids())
def test_growth_table_matches_roll_counts(Y):
    table = expansion._growth_table(Y)
    assert table.shape == Y.shape
    axes = tuple(range(Y.ndim))
    for shift in np.ndindex(Y.shape):
        assert table[shift] == np.count_nonzero(np.roll(Y, shift, axis=axes) & ~Y)


def test_growth_table_recount_survives_optimize_flag():
    # a table entry that overstates one shift's growth makes the scorer pick
    # that shift; its recount must raise under python -O too
    script = (
        "from zerosum import expansion\n"
        "from zerosum.group import GroupParams, InvariantError\n"
        "from zerosum.multiset import GroupMultiset\n"
        "table = expansion._growth_table\n"
        "def wrong(Y):\n"
        "    out = table(Y)\n"
        "    out[(5,) * Y.ndim] += 3\n"
        "    return out\n"
        "expansion._growth_table = wrong\n"
        "for call in (\n"
        "    lambda: expansion.expansion_cover(\n"
        "        {(): GroupMultiset.from_points(GroupParams(11, 1), [(i,) for i in range(11)])}, 0),\n"
        "    lambda: expansion.alon_dubiner_step(\n"
        "        GroupMultiset.from_points(GroupParams(11, 2), [(1, 0), (5, 5)]), [(0, 0)]),\n"
        "):\n"
        "    try:\n"
        "        call()\n"
        "    except InvariantError as exc:\n"
        "        print(exc.name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        # no .pyc files: an -O child would leave *.opt-1.pyc files in src
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["growth_table_recount"] * 2


def naive_fiber_pairs(free, l, p):
    """sigma tail -> the least (a, b) over ordered pairs of distinct free
    points inside one fiber, by dictionary."""
    best = {}
    for support in free.values():
        pts = sorted(set(support))
        for a in pts:
            for b in pts:
                if a != b:
                    tail = tuple((x - y) % p for x, y in zip(a[l:], b[l:]))
                    best[tail] = min(best.get(tail, (a, b)), (a, b))
    return best


@st.composite
def free_lists(draw):
    """Free lists of one to four fibers of F_p^d, l = d - 1 or l = 0."""
    p, d = draw(st.sampled_from([(3, 1), (5, 2), (7, 2), (3, 3)]))
    l = draw(st.sampled_from([0, d - 1]))
    labels = [()] if l == 0 else [(i,) * l for i in range(draw(st.integers(1, min(4, p))))]
    free = {}
    for label in labels:
        tail = st.tuples(*[st.integers(0, p - 1)] * (d - l))
        tails = draw(st.lists(tail, max_size=8))
        free[label] = sorted(tuple(c % p for c in label) + t for t in tails)
    return free, l, p, d


@settings(max_examples=200, deadline=None)
@given(free_lists(), st.sampled_from([1, 5, 1 << 16]))
def test_fiber_pairs_match_pairwise_offers(inst, block_rows):
    # block_rows = 1 reduces every a point's pairs on its own; 5 splits
    # fibers into blocks; the default builds each fiber in one block
    free, l, p, d = inst
    saved = expansion._PAIR_ROWS
    expansion._PAIR_ROWS = block_rows
    try:
        least_a = expansion._fiber_pairs(free, l, p, d)
    finally:
        expansion._PAIR_ROWS = saved
    want = naive_fiber_pairs(free, l, p)
    assert least_a.shape == (p,) * (d - l)
    for tail in np.ndindex(least_a.shape):
        if tail not in want:
            assert least_a[tail] == p ** d
            continue
        a = tuple(int(c) for c in np.unravel_index(least_a[tail], (p,) * d))
        b = tuple((x - y) % p for x, y in zip(a, (0,) * l + tail))
        assert (a, b) == want[tail]


@st.composite
def offer_grids(draw):
    """(Y, cost) on (p,)^D, p <= 7, D = 1-2: Y nonempty, cost in {0, 2, 4,
    inf}, with no offer at all in some draws."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    D = draw(st.integers(1, 2))
    bits = draw(st.lists(st.booleans(), min_size=p ** D, max_size=p ** D))
    Y = np.array(bits, dtype=bool).reshape((p,) * D)
    Y[(0,) * D] = True
    costs = st.sampled_from([0.0, 2.0, 4.0, np.inf])
    if draw(st.booleans()):
        costs = st.just(np.inf)
    cost = np.array(draw(st.lists(costs, min_size=p ** D, max_size=p ** D))).reshape(Y.shape)
    return Y, cost


@settings(max_examples=300, deadline=None)
@given(offer_grids())
def test_best_shift_matches_roll_counts(inst):
    Y, cost = inst
    axes = tuple(range(Y.ndim))
    ranked = sorted(
        (-np.count_nonzero(np.roll(Y, s, axis=axes) & ~Y), cost[s], s)
        for s in np.ndindex(Y.shape)
        if np.isfinite(cost[s])
    )
    s, growth, new = expansion._best_shift(Y, expansion._growth_table(Y), cost)
    if not ranked:
        assert (s, growth, new) == (None, 0, None)
        return
    neg_growth, _cost, want = ranked[0]
    assert (s, growth) == (want, -neg_growth)
    assert np.array_equal(new, np.roll(Y, want, axis=axes) & ~Y)


def test_relations_sampled_only_where_they_can_win(monkeypatch):
    # the fiber pairs of three 6-element fibers of F_13^2 reach the table's
    # bound at every step, so no relation selection is built; the collinear
    # fibers need one
    calls = []
    candidates = expansion._relation_candidates
    monkeypatch.setattr(
        expansion, "_relation_candidates", lambda *args: calls.append(1) or candidates(*args)
    )
    expansion_cover(_spread_fibers(), 1, ExpansionParams(seed=3))
    assert not calls
    cover = expansion_cover(_collinear_fibers(), 1, ExpansionParams(T=2, seed=0))
    assert calls and any(pair.source == "relation" for pair in cover.pairs)


def test_cover_without_relation_steps_draws_nothing(monkeypatch):
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            self.words = 0
            made.append(self)
            super().__init__(seed)

        def getrandbits(self, k):
            self.words += 1
            return super().getrandbits(k)

    monkeypatch.setattr(expansion, "random", SimpleNamespace(Random=Counting))
    expansion_cover(_spread_fibers(), 1, ExpansionParams(seed=3))
    assert sum(r.words for r in made) == 0
    cover = expansion_cover(_collinear_fibers(), 1, ExpansionParams(T=2, seed=0))
    assert any(pair.source == "relation" for pair in cover.pairs)
    assert made and sum(r.words for r in made) > 0


@pytest.mark.parametrize("seed", [0, 5])
def test_relation_step_samples_from_its_own_generator(monkeypatch, seed):
    # each sampling step's candidates are _relation_candidates on that step's
    # free lists with a fresh random.Random(f"{seed}/{step}"), the step being
    # the number of pairs taken before it
    steps, seen = [], []
    scorer, candidates = expansion._best_shift, expansion._relation_candidates

    def scored(*args):
        steps.append(1)
        return scorer(*args)

    def sampled(relations, free, samples, rng, params):
        free = {lab: list(xs) for lab, xs in free.items()}
        fresh = random.Random(f"{seed}/{len(steps)}")
        out = candidates(relations, free, samples, rng, params)
        assert out == candidates(relations, free, samples, fresh, params)
        seen.append(out)
        return out

    monkeypatch.setattr(expansion, "_best_shift", scored)
    monkeypatch.setattr(expansion, "_relation_candidates", sampled)
    cover = expansion_cover(_collinear_fibers(), 1, ExpansionParams(T=2, seed=seed))
    relation_pairs = [pair for pair in cover.pairs if pair.source == "relation"]
    assert relation_pairs and any(seen)
    for pair in relation_pairs:
        assert any(c.get(pair.sigma) == (pair.j1, pair.j2, pair.relation) for c in seen)


def test_cover_steps_run_the_growth_step(monkeypatch):
    # one scorer call per cover step, and one per alon_dubiner_step
    calls = []
    scorer = expansion._best_shift

    def counted(*args):
        calls.append(args[0].ndim)
        return scorer(*args)

    monkeypatch.setattr(expansion, "_best_shift", counted)
    X = ms(GroupParams(11, 1), [(i,) for i in range(11)])
    cover = expansion_cover({(): X}, 0, ExpansionParams(seed=1))
    assert len(calls) == len(cover.pairs) == 4
    alon_dubiner_step(ms(GroupParams(5, 2), [(1, 0)]), [(0, 0)])
    assert calls == [1, 1, 1, 1, 2]


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
    # sigma provenance, disjoint pairs within the fibers, every target reached
    assert cover.validate() == [
        ("sigma_provenance", True),
        ("pairs_disjoint", True),
        ("covers_all_targets", True),
    ]


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
    assert c1.pairs == c2.pairs and c1.first_step == c2.first_step


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


# -- stored first_step --------------------------------------------------------


def line_cover_artifact():
    """Cover of F_11 by the pairs with sigmas 1, 2, 4, 3 (base 2)."""
    X = ms(GroupParams(11, 1), [(i,) for i in range(11)])
    obj = serialize.cover_to_json(expansion_cover({(): X}, 0, ExpansionParams(seed=1)))
    assert [pair["sigma"] for pair in obj["pairs"]] == [[1], [2], [4], [3]]
    assert obj["first_step"] == [0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4]
    return obj


def checks_of(obj):
    return dict(verify.verify_payload(obj))


def test_corrupt_first_step_fails_verification():
    obj = line_cover_artifact()
    assert all(checks_of(obj).values())
    obj["first_step"] = [0] + [1] * 10
    checks = checks_of(obj)
    assert checks["sigma_provenance"] and checks["pairs_disjoint"]
    assert not checks["covers_all_targets"]


@pytest.mark.parametrize(
    "first_step",
    [
        [0, 1, 2, 2, 3, 3, 3, 3, 4, 4],        # one entry short
        [0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4],  # one entry long
        [0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5],     # no fifth pair
        [0, 1, 2, 2, 3, 3, 3, 3, 4, 4, -1],    # unreached state
        [0, 1, 1, 2, 3, 3, 3, 3, 4, 4, 4],     # state 2 walks pair 1 twice
    ],
)
def test_malformed_first_step_reports_false(first_step):
    obj = line_cover_artifact()
    obj["first_step"] = first_step
    assert checks_of(obj)["covers_all_targets"] is False


def test_cyclic_first_step_terminates():
    # 5 -> 1 -> 9 -> 5 through the pairs with sigmas 4, 3, 4: the walk from
    # target 7 (state 5 after the base) loops unless indices must decrease
    obj = line_cover_artifact()
    obj["first_step"][5], obj["first_step"][1], obj["first_step"][9] = 3, 4, 3
    script = (
        "import json, sys\n"
        "from zerosum import verify\n"
        "print(json.dumps(dict(verify.verify_payload(json.load(sys.stdin)))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(obj),
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["covers_all_targets"] is False
