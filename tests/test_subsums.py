import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.group import GroupParams, InvariantError
from zerosum.multiset import GroupMultiset
from zerosum.pipeline import verify_certificate
from zerosum.subsums import (
    FreeSetResult,
    SearchBudget,
    ZeroSumCertificate,
    _constructive_free_set,
    _frame_bytes,
    _moves,
    _rotate,
    _subsums,
    enumerate_subsums,
    find_zero_sum_subset,
    max_zero_sum_free,
    naive_max_zero_sum_free,
    naive_subsums,
    olson_constant,
)


def ms(params, pts):
    return GroupMultiset.from_points(params, pts)


def reachable_set(table):
    return set(map(tuple, table.reachable_values()))


def test_enumerate_examples():
    p5 = GroupParams(5, 1)
    assert reachable_set(enumerate_subsums(ms(p5, [(1,), (2,)]))) == {(1,), (2,), (3,)}

    assert reachable_set(enumerate_subsums(ms(p5, [(0,)]))) == {(0,)}

    p32 = GroupParams(3, 2)
    A = ms(p32, [(1, 0), (0, 1), (2, 2)])
    table = enumerate_subsums(A)
    # brute force over the 7 nonempty subsets
    assert reachable_set(table) == naive_subsums(A)
    assert table.reachable_count() == 7
    assert table.contains((0, 0))


def test_enumerate_rejects_empty():
    with pytest.raises(ValueError):
        enumerate_subsums(GroupMultiset.empty(GroupParams(5, 1)))


def test_find_zero_sum_examples():
    p3 = GroupParams(3, 1)
    cert = find_zero_sum_subset(ms(p3, [(1,), (2,)]))
    assert cert is not None and dict(cert.subset.items()) == {(1,): 1, (2,): 1}

    p5 = GroupParams(5, 1)
    assert find_zero_sum_subset(ms(p5, [(1,), (2,)])) is None

    containing_zero = ms(p5, [(0,), (1,), (3,)])
    cert = find_zero_sum_subset(containing_zero)
    assert cert is not None and cert.verify(containing_zero)
    assert dict(cert.subset.items()) == {(0,): 1}


def test_dp_equals_naive_random():
    rng = random.Random(42)
    groups = [(p, d) for p in (3, 5, 7, 11) for d in (1, 2, 3)]
    # and a larger group: F_17^3 has 4,913 states
    groups += [(17, 3)] * 4
    for trial in range(80):
        p, d = groups[trial % len(groups)]
        params = GroupParams(p, d)
        n = rng.randrange(1, 13)
        A = ms(params, [tuple(rng.randrange(p) for _ in range(d)) for _ in range(n)])
        table = enumerate_subsums(A)
        expected = naive_subsums(A)
        assert reachable_set(table) == expected
        for target in expected:
            w = table.witness(target)
            assert len(w) > 0 and A.contains_submultiset(w) and w.total() == target


def test_monotonicity_on_nested_pairs():
    rng = random.Random(7)
    params = GroupParams(7, 2)
    for _ in range(25):
        small = [tuple(rng.randrange(7) for _ in range(2)) for _ in range(rng.randrange(1, 6))]
        extra = [tuple(rng.randrange(7) for _ in range(2)) for _ in range(rng.randrange(0, 5))]
        inner = reachable_set(enumerate_subsums(ms(params, small)))
        outer = reachable_set(enumerate_subsums(ms(params, small + extra)))
        assert inner <= outer


def test_witnesses_always_verify():
    rng = random.Random(11)
    params = GroupParams(5, 2)
    for _ in range(50):
        n = rng.randrange(1, 10)
        A = ms(params, [tuple(rng.randrange(5) for _ in range(2)) for _ in range(n)])
        table = enumerate_subsums(A)
        for target in list(reachable_set(table))[:5]:
            w = table.witness(target)
            assert w is not None
            assert A.contains_submultiset(w)
            assert w.total() == target
            assert len(w) >= 1


def test_witness_respects_multiplicities():
    params = GroupParams(7, 1)
    A = GroupMultiset(params, {(3,): 2})
    table = enumerate_subsums(A)
    w = table.witness((6,))
    assert w is not None and w.multiplicity((3,)) == 2


def test_state_budget_error():
    params = GroupParams(13, 3, state_budget=13 ** 3)
    X = ms(params, [(1, 2, 3)])
    # shrink the budget after the fact by rebuilding with a smaller cap
    with pytest.raises(ValueError):
        GroupParams(13, 3, state_budget=100)
    assert enumerate_subsums(X).reachable_count() == 1


def test_max_zero_sum_free_small():
    res3 = max_zero_sum_free(GroupParams(3, 1))
    assert (res3.size, res3.exact) == (1, True) and res3.witness == ((1,),)

    res7 = max_zero_sum_free(GroupParams(7, 1))
    assert res7.size == 3 and res7.exact
    # {1, 2, 3} works: its subsums are 1..6
    assert naive_subsums(ms(GroupParams(7, 1), list(res7.witness))) == {
        (1,), (2,), (3,), (4,), (5,), (6,),
    }


@pytest.mark.parametrize("p,expect", [(3, 2), (5, 3), (7, 4)])
def test_olson_dimension_one(p, expect):
    params = GroupParams(p, 1)
    naive = naive_max_zero_sum_free(params)
    assert naive.size + 1 == expect
    res = olson_constant(params)
    assert res.olson == expect and res.exact


def test_olson_3_2_exact_and_bounded():
    params = GroupParams(3, 2)
    naive = naive_max_zero_sum_free(params)
    res = olson_constant(params)
    assert res.exact and res.olson == naive.size + 1
    assert res.olson <= 5  # the d(p-1)+1 zero-sum bound


def test_olson_budget_interval():
    params = GroupParams(13, 2)
    res = olson_constant(params, SearchBudget(max_nodes=50))
    if not res.exact:
        assert res.olson is None
        assert res.lower <= res.upper
        assert res.upper == 2 * 12 + 1
        # the witness behind the lower bound really is zero-sum-free
        free = ms(params, list(res.witness))
        assert find_zero_sum_subset(free) is None


def test_free_set_witness_maximality_small():
    # exactness means: witness free, and no free set of size+1 (checked naively)
    params = GroupParams(5, 1)
    res = max_zero_sum_free(params)
    assert res.exact
    naive = naive_max_zero_sum_free(params)
    assert res.size == naive.size


def test_bitset_export_roundtrip():
    import numpy as np

    params = GroupParams(5, 2)
    A = ms(params, [(1, 2), (3, 4), (2, 0)])
    table = enumerate_subsums(A)
    raw = table.to_bitset_bytes()
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    flat = table.table.reshape(-1)
    assert (bits[: flat.size] == flat).all()


def test_olson_sqrt_bound_sanity():
    # consistent with the optimal OL(F_p) <= sqrt(2p) regime; the +2 absorbs
    # small-prime slack
    import math

    for p in (3, 5, 7, 11, 13):
        res = olson_constant(GroupParams(p, 1))
        assert res.exact
        assert res.olson <= math.sqrt(2 * p) + 2, (p, res.olson)


def test_certificate_rejects_other_group():
    # the same tuples sum to zero in F_5 but not in F_7
    X = ms(GroupParams(7, 1), [(1,), (4,)])
    p5 = GroupParams(5, 1)
    cert = ZeroSumCertificate(p5, ms(p5, [(1,), (4,)]))
    assert not cert.verify(X)
    assert not verify_certificate(X, cert)


# ---------------------------------------------------------------------------
# The packed-integer reach kernel
# ---------------------------------------------------------------------------

SHAPES = [(3, 1), (5, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]


@st.composite
def reach_and_shift(draw):
    """A reach set, a shift x (its axis-0 coordinate zero in about half the
    draws) and a mask, often the full one."""
    p, d = draw(st.sampled_from(SHAPES))
    size = p ** d
    reach = draw(st.integers(0, (1 << size) - 1))
    x = draw(st.tuples(*[st.integers(0, p - 1)] * d))
    if draw(st.booleans()):
        x = (0,) + x[1:]
    mask = draw(st.one_of(st.just((1 << size) - 1), st.integers(0, (1 << size) - 1)))
    return p, d, reach, x, mask


@settings(max_examples=300, deadline=None)
@given(reach_and_shift())
def test_rotation_matches_np_roll(case):
    p, d, reach, x, mask = case
    table = np.array([reach >> i & 1 for i in range(p ** d)], dtype=bool).reshape((p,) * d)
    rolled = np.roll(table, shift=x, axis=tuple(range(d))).reshape(-1)
    expected = sum(1 << int(i) for i in np.flatnonzero(rolled)) & mask
    assert _rotate(reach, _moves(p, d, x), mask) == expected


@st.composite
def small_multisets(draw):
    p, d = draw(st.sampled_from(SHAPES))
    pts = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * d), min_size=1, max_size=10))
    return ms(GroupParams(p, d), pts)


@settings(max_examples=150, deadline=None)
@given(small_multisets())
def test_kernel_matches_naive_subsums(A):
    table = enumerate_subsums(A)
    expected = naive_subsums(A)
    assert reachable_set(table) == expected
    assert table.reachable_count() == len(expected)
    assert (table.first_round >= 0).tolist() == table.table.tolist()
    assert table.to_bitset_bytes() == np.packbits(table.table.reshape(-1), bitorder="little").tobytes()
    for target in expected:
        assert table.contains(target)
        w = table.witness(target)
        assert len(w) > 0 and A.contains_submultiset(w) and w.total() == target


@st.composite
def multisets_with_multiplicity(draw):
    """A multiset over d in {1, 2, 3}, multiplicities up to 3.  In about half
    the draws it is zero-sum-free by construction: its first coordinates are
    positive and, with multiplicity, sum to less than p, so no nonempty
    subsum has a zero first coordinate."""
    p, d = draw(st.sampled_from(SHAPES))
    point = st.tuples(*[st.integers(0, p - 1)] * d)
    entries = {}
    if draw(st.booleans()):
        total = 0
        for _ in range(draw(st.integers(1, 5))):
            x = (draw(st.integers(1, p - 1)),) + draw(point)[1:]
            m = draw(st.integers(1, 3))
            if total + x[0] * m < p and entries.get(x, 0) + m <= 3:
                entries[x] = entries.get(x, 0) + m
                total += x[0] * m
        entries = entries or {(1,) + (0,) * (d - 1): 1}
    else:
        for x in draw(st.lists(point, min_size=1, max_size=8)):
            entries[x] = min(3, entries.get(x, 0) + draw(st.integers(1, 3)))
    return GroupMultiset(GroupParams(p, d), entries)


@settings(max_examples=200, deadline=None)
@given(multisets_with_multiplicity())
def test_early_stopped_witness_matches_full_table(A):
    """find_zero_sum_subset stops at the round that first reaches 0; its
    witness is the full table's, None exactly when 0 is no nonempty sum,
    and every state it reached was first reached in the same round."""
    zero = A.params.zero()
    full = enumerate_subsums(A)
    expected = full.witness(zero)
    cert = find_zero_sum_subset(A)
    if expected is None:
        assert cert is None
    else:
        assert cert is not None and cert.verify(A)
        assert list(cert.subset.items()) == list(expected.items())
    if all(x[0] for x in A.support()) and sum(x[0] * m for x, m in A.items()) < A.params.p:
        assert cert is None
    stopped = _subsums(A, until_zero=True)
    reached = stopped.first_round >= 0
    assert (stopped.first_round[reached] == full.first_round[reached]).all()
    if expected is not None:
        assert stopped.first_round.max() == stopped.first_round[zero]
    else:
        assert stopped.reach == full.reach


def _with_round(table, state, r):
    """table with first_round of `state` set to r (-1: unreached)."""
    i, tag = table.params.index(state), r + 1
    planes = table.rounds + (0,) * (tag.bit_length() - len(table.rounds))
    rounds = tuple((pl & ~(1 << i)) | ((tag >> b & 1) << i) for b, pl in enumerate(planes))
    return dataclasses.replace(table, rounds=rounds)


def test_witness_rejects_corrupt_rounds():
    # rounds 0, 1, 2 add 1, 2, 4: 3 = 1 + 2 is first reached in round 1, and
    # 6 = 2 + 4 in round 2
    params = GroupParams(7, 1)
    table = enumerate_subsums(ms(params, [(1,), (2,), (4,)]))
    assert table.first_round.tolist() == [2, 0, 1, 1, 2, 2, 2]
    with pytest.raises(InvariantError, match="witness_round_reached"):
        _with_round(table, (3,), -1).witness((3,))
    # claimed by round 2, 3 backs out 4 to 6, which round 2 reached too
    with pytest.raises(InvariantError, match="witness_round_falls"):
        _with_round(table, (3,), 2).witness((3,))
    # a round past the end of the processing order
    with pytest.raises(InvariantError, match="witness_round_falls"):
        _with_round(table, (3,), 3).witness((3,))


def test_olson_memory_budget_interval():
    params = GroupParams(5, 2)
    exact = olson_constant(params)
    assert exact.exact and exact.olson == 7
    # no room for even the root frame: the constructive set is the witness
    none = olson_constant(params, SearchBudget(max_bytes=0))
    assert (none.exact, none.olson, none.nodes) == (False, None, 1)
    assert none.lower <= exact.olson <= none.upper == 2 * 4 + 1
    # room for two frames: the search stops at the first set of three points
    tight = olson_constant(params, SearchBudget(max_bytes=2 * _frame_bytes(params)))
    assert not tight.exact and 1 < tight.nodes < exact.nodes
    assert tight.nodes == 3
    assert none.lower <= tight.lower <= exact.olson
    for res in (none, tight):
        assert find_zero_sum_subset(ms(params, list(res.witness))) is None
    roomy = olson_constant(params, SearchBudget(max_bytes=1 << 20))
    assert roomy.as_dict() == exact.as_dict()


def _list_search(params):
    """The search as it ran on list frames, unbounded: each frame filters its
    candidates into a Python list of addable indices, and every child is a
    call.  A frame's subsums are a set of state indices, grown by
    `params.add`, apart from the reach kernel.  Also returns the size and
    witness held as each node was counted: a budget of k nodes ends the
    search as it counts node k + 1, with held[k]."""
    p = params.p
    points = [params.unindex(j) for j in range(params.order)]
    neg = [params.index(tuple(-c % p for c in x)) for x in points]
    plus = [[params.index(params.add(s, x)) for x in points] for s in points]
    seed = _constructive_free_set(params)
    best = (len(seed), tuple(sorted(seed)))
    held, path = [], [1]

    def dfs(size, reach, cands):
        nonlocal best
        held.append(best)
        addable = [j for j in cands if neg[j] not in reach]
        if size + len(addable) <= best[0]:
            return
        path.append(0)
        for i, j in enumerate(addable):
            if size + len(addable) - i <= best[0]:
                break
            path[-1] = j
            if size + 1 > best[0]:
                best = (size + 1, tuple(points[k] for k in sorted(path)))
            dfs(size + 1, reach | {plus[s][j] for s in reach} | {j}, addable[i + 1:])
        path.pop()

    dfs(1, {1}, range(2, params.order))
    return FreeSetResult(*best, True, len(held)), held


@pytest.mark.parametrize(
    "p, d", [(3, 2), (5, 2)] + [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23)]
)
def test_bitset_search_matches_list_search(p, d):
    """Under every node budget up to exhaustion the bitset frames stop where
    the list frames stop, with the same size, witness and node count."""
    params = GroupParams(p, d)
    full, held = _list_search(params)
    for max_nodes in range(1, full.nodes):
        got = max_zero_sum_free(params, SearchBudget(max_nodes=max_nodes))
        assert got == FreeSetResult(*held[max_nodes], False, max_nodes + 1), max_nodes
    assert max_zero_sum_free(params, SearchBudget(max_nodes=full.nodes)) == full
    if params.order <= 16:
        assert full.size == naive_max_zero_sum_free(params).size


def _run_script(script, *flags):
    """A script run by a fresh interpreter on the package in src/."""
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        # no .pyc files: an -O child would leave *.opt-1.pyc files in src
        env={
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )


# VmHWM, not getrusage: a child's ru_maxrss starts at the RSS of the process
# that forked it
SEQUENCE_RSS_SCRIPT = (
    "import random\n"
    "from zerosum.group import GroupParams\n"
    "from zerosum.multiset import GroupMultiset\n"
    "from zerosum.subsums import zero_sum_sequence\n"
    "def peak_kb():\n"
    "    with open('/proc/self/status') as f:\n"
    "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM'))\n"
    "params = GroupParams(61, 3)\n"
    "rng = random.Random(7)\n"
    "seq = [tuple(rng.randrange(61) for _ in range(3)) for _ in range(181)]\n"
    "before = peak_kb()\n"
    "cert = zero_sum_sequence(seq, params)\n"
    "print(cert.verify(GroupMultiset.from_points(params, seq)), before, peak_kb())\n"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_zero_sum_sequence_past_the_bound_memory_bounded():
    """181 = d(p-1) + 1 points of F_61^3 must have a zero sum, and the reach
    kernel finds it in a few 61^3-bit ints, 0.5 MB over the peak before the
    call; the weighted DP's 181 int64 layers of 61^3 states took 317 MB."""
    proc = _run_script(SEQUENCE_RSS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    verified, before, after = proc.stdout.split()
    assert verified == "True"
    assert int(after) - int(before) < 20 * 1024, f"peak RSS grew by {(int(after) - int(before)) // 1024} MB"


OLSON_RSS_SCRIPT = (
    "from zerosum.group import GroupParams\n"
    "from zerosum.subsums import SearchBudget, olson_constant\n"
    "def peak_kb():\n"
    "    with open('/proc/self/status') as f:\n"
    "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM'))\n"
    "before = peak_kb()\n"
    "res = olson_constant(GroupParams(101, 3), SearchBudget(max_nodes=30))\n"
    "print(res.exact, res.nodes, before, peak_kb())\n"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_olson_search_memory_bounded():
    """A frame of the F_101^3 search is two 1,030,301-bit ints, 129 KB each,
    so 30 nodes hold a few MB; frames that listed their addable candidates
    held about 10^6 Python ints each and grew the peak by 321 MB."""
    proc = _run_script(OLSON_RSS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    exact, nodes, before, after = proc.stdout.split()
    assert (exact, nodes) == ("False", "31")
    assert int(after) - int(before) < 32 * 1024, f"peak RSS grew by {(int(after) - int(before)) // 1024} MB"


DEEP_SEARCH_SCRIPT = (
    "import sys\n"
    "from zerosum.group import GroupParams\n"
    "from zerosum.subsums import SearchBudget, max_zero_sum_free\n"
    "sys.setrecursionlimit(100)\n"
    "res = max_zero_sum_free(GroupParams(20011, 1), SearchBudget(max_nodes=400))\n"
    "print(res.size, res.nodes, res.exact)\n"
)


def test_search_depth_needs_no_recursion():
    """The search dives to {1, ..., 199} in F_20011 first: 199 frames, past
    a recursion limit of 100, which a search of one call per frame hits."""
    proc = _run_script(DEEP_SEARCH_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["199", "401", "False"]


SEED_CHECK_SCRIPT = (
    "from zerosum import subsums\n"
    "from zerosum.group import GroupParams, InvariantError\n"
    "subsums._constructive_free_set = lambda params: ((1,), (2,), (4,))\n"
    "try:\n"
    "    subsums.max_zero_sum_free(GroupParams(7, 1))\n"
    "except InvariantError as exc:\n"
    "    print(exc.name, __debug__)\n"
)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_seed_holding_a_zero_sum_raises(flags):
    """1 + 2 + 4 = 0 in F_7: a seed that holds a zero sum is an internal
    fault, reported as one with or without asserts, never replaced."""
    proc = _run_script(SEED_CHECK_SCRIPT, *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["seed_zero_sum_free", str(not flags)]
