"""Exact subset-sum machinery over F_p^d.

The reachability table marks every value attainable as a nonempty subsum of a
multiset, built by the incremental rule

    new = old | (old + x) | {x}

processed one element copy at a time.  The DP holds the empty sum in its
state, so (old + x) | {x} is one translation, (old | {0}) + x.  A
first-reached-round array makes witness extraction a straight backtrack.

There is one reach kernel, shared by the DP and the Olson search: a reach set
is one Python int whose bit i is the state with C-order index i (the bitset
`ReachabilityTable.to_bitset_bytes` emits).  Adding x permutes the state
space, so (old + x) is a d-fold cyclic rotation of that int: along axis i,
with stride st = p^(d-1-i) and shift s = x_i, the states whose i-th
coordinate is below p - s move up by s*st and the others down by (p-s)*st.
On axes i > 0 that is a masked pair of shifts.  Axis 0 has the largest
stride, so its shift is a cyclic rotation of the whole p^d-bit int and needs
no mask; the caller's mask (all states for the DP, the free set for the
Olson search) cuts its two halves.  The DP stops early once every state is
reachable, and the zero-sum search once 0 is.

On top of the kernel sit the ground-truth services: zero-sum witnesses of
a multiset or a sequence, largest zero-sum-free sets (branch and bound), and
Olson constants.  Every one of them asks the kernel whether a set has a
nonempty zero sum; `naive_subsums` is the 2^n oracle the tests check the
kernel against.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from .group import GroupParams, Vec, _check
from .multiset import GroupMultiset


# ---------------------------------------------------------------------------
# The packed-integer reach kernel
# ---------------------------------------------------------------------------


def _repunit(p: int, d: int, axis: int) -> int:
    """p^axis one bits, one every p^(d-axis) bits from bit 0: the lowest
    state of each run of states that share their first `axis` coordinates.

    Built by doubling, so no big-int division runs.
    """
    period = p ** (d - axis)
    rep, copies = 1, 1
    for bit in bin(p ** axis)[3:]:
        rep |= rep << (copies * period)
        copies *= 2
        if bit == "1":
            rep = (rep << period) | 1
            copies += 1
    return rep


@lru_cache(maxsize=64)
def _axis_moves(p: int, d: int) -> Tuple[Tuple[tuple, ...], ...]:
    """Per axis and shift s: on axis 0 the pair (up shift s*st, down shift
    (p-s)*st), s = 0 included; on the others (repunit, up, down), None for
    s = 0.  The cache holds one repunit per (p, d, axis > 0)."""
    out = []
    for axis in range(d):
        st = p ** (d - 1 - axis)
        if axis == 0:
            out.append(tuple((s * st, (p - s) * st) for s in range(p)))
        else:
            rep = _repunit(p, d, axis)
            out.append((None,) + tuple((rep, s * st, (p - s) * st) for s in range(1, p)))
    return tuple(out)


def _moves(p: int, d: int, x: Vec):
    """x's `_axis_moves` entries: the axis-0 pair, and the masked moves of
    the other nonzero coordinates."""
    table = _axis_moves(p, d)
    return table[0][x[0]], tuple(table[axis][x[axis]] for axis in range(1, d) if x[axis])


def _rotate(reach: int, moves, mask: int) -> int:
    """The reach set translated by x, given x's `_moves`, cut to `mask`.

    Along axis i > 0 the mask `lo` marks the states whose coordinate is
    below p - s: a run of (p-s)*st ones at the start of each period of p*st
    bits.  Along axis 0 the period is the whole p^d-bit int, so the shift is
    a cyclic rotation by up = s*st and needs no mask: the states below bit
    p^d - up move up, the others down by p^d - up.  `mask` cuts each half
    as it is taken, so no intermediate int grows past p^d bits.
    """
    (up, down), rest = moves
    for rep, rest_up, rest_down in rest:
        lo = (rep << rest_down) - rep
        kept = reach & lo
        reach = (kept << rest_up) | ((reach ^ kept) >> rest_down)
    return (((mask >> up) & reach) << up) | ((reach >> down) & mask)


def _bits(n: int, size: int) -> np.ndarray:
    """Bits 0..size-1 of n as a uint8 array."""
    raw = np.frombuffer(n.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little")


@dataclass
class ReachabilityTable:
    """All nonempty subsums of a multiset, with witness backtracking data.

    Bit i of `reach` is set when the state with C-order index i is a nonempty
    subsum.  first_round[s] is the index of the element copy whose processing
    first reached state s (-1 if unreachable), held bit-sliced: bit i of
    rounds[b] is bit b of first_round[i] + 1.  order is the processing
    sequence.  `table` and `first_round` give the same data as numpy arrays
    of shape (p,) * d, built on first use.
    """

    params: GroupParams
    reach: int = field(repr=False)
    rounds: Tuple[int, ...] = field(repr=False)
    order: Tuple[Vec, ...]

    @cached_property
    def table(self) -> np.ndarray:
        """Boolean, shape (p,) * d."""
        pr = self.params
        return _bits(self.reach, pr.order).view(bool).reshape((pr.p,) * pr.d)

    @cached_property
    def first_round(self) -> np.ndarray:
        """int32, shape (p,) * d."""
        pr = self.params
        first = np.zeros(pr.order, dtype=np.int32)
        for plane in reversed(self.rounds):
            first <<= 1
            first += _bits(plane, pr.order)
        first -= 1
        return first.reshape((pr.p,) * pr.d)

    @cached_property
    def _round_bytes(self) -> Tuple[bytes, ...]:
        """`rounds` as little-endian bytes, which test one bit in O(1)."""
        n = (self.params.order + 7) // 8
        return tuple(plane.to_bytes(n, "little") for plane in self.rounds)

    def _round_at(self, i: int) -> int:
        byte, bit = i >> 3, i & 7
        r = 0
        for b, raw in enumerate(self._round_bytes):
            r |= (raw[byte] >> bit & 1) << b
        return r - 1

    def contains(self, v: Vec) -> bool:
        pr = self.params
        return bool(self.reach >> pr.index(pr.reduce(v)) & 1)

    def reachable_count(self) -> int:
        return self.reach.bit_count()

    def reachable_values(self) -> List[Vec]:
        idx = np.argwhere(self.table)
        return [tuple(int(c) for c in row) for row in idx]

    def to_bitset_bytes(self) -> bytes:
        """Raw little-endian bitset over mixed-radix state indices."""
        return self.reach.to_bytes((self.params.order + 7) // 8, "little")

    def witness(self, target: Vec) -> Optional[GroupMultiset]:
        """A nonempty sub-multiset summing to target, or None.

        Each step backs out the element copy that first reached the current
        state, whose predecessor was reached strictly earlier; the round thus
        falls strictly inside [0, len(order)), so the walk takes at most
        len(order) steps, and a table that breaks this raises InvariantError.
        """
        pr = self.params
        t = pr.reduce(target)
        if not self.reach >> pr.index(t) & 1:
            return None
        picked: Dict[Vec, int] = {}
        cur = t
        last = len(self.order)
        while True:
            r = self._round_at(pr.index(cur))
            _check("witness_round_reached", r, ">=", 0)
            _check("witness_round_falls", r, "<", last)
            x = self.order[r]
            picked[x] = picked.get(x, 0) + 1
            if cur == x:
                break
            cur = pr.sub(cur, x)
            last = r
        # the points come from `order`, a multiset's canonical keys
        return GroupMultiset._trusted(pr, dict(sorted(picked.items())))


def _subsums(A: GroupMultiset, until_zero: bool) -> ReachabilityTable:
    """The DP of `enumerate_subsums`; with until_zero, the table stops after
    the first round that reaches 0 as a nonempty sum.

    The state holds the empty sum (bit 0, the zero state) from the start,
    so one rotation adds reach + x and the singleton {x} together.  Its bit
    never shows as new; the round that first reaches 0 as a nonempty sum is
    the first whose rotation sets bit 0, and is tagged by hand.  Without a
    nonempty zero sum the empty one is taken out at the end.  A growing step
    ORs its new states into the bit planes of its round number plus one
    (`ReachabilityTable.rounds`).
    """
    if len(A) == 0:
        raise ValueError("subsum enumeration needs at least one element")
    params = A.params
    seq = list(A.iter_with_multiplicity())
    p, d = params.p, params.d
    full = (1 << params.order) - 1
    planes = [0] * len(seq).bit_length()
    reach = 1  # the empty sum
    zero_reached = False
    for r, x in enumerate(seq):
        rotated = _rotate(reach, _moves(p, d, x), full)
        grown = reach | rotated
        new = grown ^ reach
        if not zero_reached and rotated & 1:
            new |= 1
            zero_reached = True
        if new:
            tag = r + 1
            for b in range(tag.bit_length()):
                if tag >> b & 1:
                    planes[b] |= new
            reach = grown
        if zero_reached and (until_zero or reach == full):
            break
    if not zero_reached:
        reach ^= 1
    return ReachabilityTable(params, reach, tuple(planes), tuple(seq))


def enumerate_subsums(A: GroupMultiset) -> ReachabilityTable:
    """Reachability table of all nonempty subsums of A.  The DP stops early
    once every state is reachable."""
    return _subsums(A, until_zero=False)


def naive_subsums(A: GroupMultiset) -> set:
    """All nonempty subsums by direct 2^|A| enumeration (oracle for tests)."""
    seq = list(A.iter_with_multiplicity())
    if len(seq) > 22:
        raise ValueError("naive enumeration limited to 22 elements")
    params = A.params
    out = set()
    for r in range(1, len(seq) + 1):
        for comb in combinations(range(len(seq)), r):
            acc = params.zero()
            for i in comb:
                acc = params.add(acc, seq[i])
            out.add(acc)
    return out


@dataclass(frozen=True)
class ZeroSumCertificate:
    """A nonempty sub-multiset with vanishing sum; verification recomputes
    everything from scratch."""

    params: GroupParams
    subset: GroupMultiset

    def verify(self, A: GroupMultiset) -> bool:
        """B nonempty, inside A, over A's group, and summing to zero there."""
        if self.params != A.params or self.subset.params != A.params:
            return False
        if len(self.subset) == 0:
            return False
        if not A.contains_submultiset(self.subset):
            return False
        return self.subset.total() == A.params.zero()


def find_zero_sum_subset(A: GroupMultiset) -> Optional[ZeroSumCertificate]:
    """Certificate that 0 is a nonempty subsum of A, or None if it is not.

    The DP stops at the first round that reaches 0: the backtrack from 0
    only visits states reached in earlier rounds, so the witness is the one
    the full table gives.
    """
    table = _subsums(A, until_zero=True)
    witness = table.witness(A.params.zero())
    if witness is None:
        return None
    cert = ZeroSumCertificate(A.params, witness)
    _check("witness_verifies", cert.verify(A), "==", True)
    return cert


def zero_sum_sequence(elements, params: GroupParams) -> Optional[ZeroSumCertificate]:
    """Nonempty zero-sum sub-multiset of a sequence of n elements, or None.

    The reach kernel answers every length (`find_zero_sum_subset`), so the
    witness is the first one its backtrack finds.  For n > d(p-1) one always
    exists (the r = 0 case of the weighted solver's guarantee), and a None
    there raises InvariantError.
    """
    seq = [params.reduce(tuple(x)) for x in elements]
    if not seq:
        raise ValueError("empty sequence")
    cert = find_zero_sum_subset(GroupMultiset.from_points(params, seq))
    if len(seq) > params.d * (params.p - 1):
        _check("guaranteed_regime_solvable", cert is not None, "==", True)
    return cert


# ---------------------------------------------------------------------------
# Zero-sum-free search and Olson constants
# ---------------------------------------------------------------------------


@dataclass
class SearchBudget:
    """Limits of a branch-and-bound search; passing any one of them ends it
    with an interval instead of an exact value.

    max_bytes bounds a running estimate of the live search frames, which
    `_frame_bytes` counts as two ints of up to p^d bits each: a node holding
    k points has k frames live.  The default bounds them at 1 GiB.
    """

    max_nodes: int = 20_000_000
    max_ms: Optional[int] = None
    max_bytes: Optional[int] = 1 << 30


@dataclass
class FreeSetResult:
    size: int
    witness: Tuple[Vec, ...]
    exact: bool
    nodes: int


def _is_zero_sum_free(points, params: GroupParams) -> bool:
    """No nonempty subset of `points` sums to zero, by direct enumeration:
    the subsets holding the i-th point are those of the points before it,
    each with it added, so each subset's sum is one addition, and the first
    zero sum returns.  The oracle of `naive_max_zero_sum_free` only."""
    zero = params.zero()
    sums = [zero]  # the sums of the subsets of the points so far, empty included
    for x in points:
        grown = [params.add(s, x) for s in sums]
        if zero in grown:
            return False
        sums += grown
    return True


def naive_max_zero_sum_free(params: GroupParams) -> FreeSetResult:
    """Oracle by direct enumeration of all 2^(p^d) subsets; tiny groups only."""
    pts = list(params.elements())
    if len(pts) > 16:
        raise ValueError("naive search limited to groups with at most 16 elements")
    best: Tuple[Vec, ...] = ()
    n = len(pts)
    for mask in range(1, 1 << n):
        sel = [pts[i] for i in range(n) if (mask >> i) & 1]
        if len(sel) <= len(best):
            continue
        if _is_zero_sum_free(sel, params):
            best = tuple(sel)
    return FreeSetResult(len(best), best, True, 1 << n)


def _constructive_free_set(params: GroupParams) -> Tuple[Vec, ...]:
    """Triangular progression on the first axis plus unit vectors elsewhere.

    {e_1, 2 e_1, ..., k e_1} is zero-sum-free while k(k+1)/2 < p; the extra
    basis vectors e_2..e_d keep every subsum off zero in the other
    coordinates.  Gives a quick lower bound to seed the search.
    """
    p, d = params.p, params.d
    k = 0
    while (k + 1) * (k + 2) // 2 < p:
        k += 1
    pts = [tuple((j if i == 0 else 0) for i in range(d)) for j in range(1, k + 1)]
    for axis in range(1, d):
        pts.append(tuple(1 if i == axis else 0 for i in range(d)))
    return tuple(pts)


def _frame_bytes(params: GroupParams) -> int:
    """The bytes `SearchBudget.max_bytes` counts per search frame: two ints
    of up to p^d bits, its free set and its candidates not yet visited."""
    return 2 * sys.getsizeof((1 << params.order) - 1)


def max_zero_sum_free(params: GroupParams, budget: Optional[SearchBudget] = None) -> FreeSetResult:
    """Largest zero-sum-free subset of F_p^d by branch and bound.

    GL_d(F_p) acts transitively on nonzero vectors and preserves
    zero-sum-freeness, so some maximum set contains the lexicographically
    least nonzero vector; the root of the search fixes it.  A candidate x can
    join the current set S exactly when -x is not an attainable subsum, which
    doubles as the feasibility pruning rule.

    A frame holds two ints of the DP's kernel and no lists.  Its free set
    marks the states that are no subsum of -S, the empty sum included, so
    the candidates that can join S are `cands & free`: the frame keeps
    those not yet visited and walks them lowest bit first, the order of
    the state indices.  Adding x rotates the subsums of -S by -x; the free
    set, their complement, takes the same rotation, so the child's is
    `_rotate(free, moves of -x, free)`, inlined: a call per node made the
    d = 1 searches 7-10% slower.  A child is counted and tested in its
    parent, and only a child that the size bound keeps gets a frame, on an
    explicit stack: the depth is not bounded by Python's recursion limit.
    """
    if budget is None:
        budget = SearchBudget()
    deadline = None
    if budget.max_ms is not None:
        deadline = time.monotonic() + budget.max_ms / 1000.0
    p, d, size_all = params.p, params.d, params.order
    max_nodes = budget.max_nodes
    # a node holding k points has k live frames
    max_frames = size_all if budget.max_bytes is None else budget.max_bytes // _frame_bytes(params)
    # the moves of -x per candidate index of x, filled as candidates are expanded
    moves_of: Dict[int, tuple] = {}

    seed = _constructive_free_set(params)
    seed_zero = find_zero_sum_subset(GroupMultiset.from_points(params, seed))
    _check("seed_zero_sum_free", seed_zero is None, "==", True)
    best_size = len(seed)
    best_witness = tuple(sorted(seed))
    exhausted = False

    # the root {(0, ..., 0, 1)}, index 1: the sums of -S are 0 and
    # (0, ..., 0, p-1); path[-1] is the child being visited
    path: List[int] = [1, 0]
    nodes = 1
    if max_nodes < 1 or (deadline is not None and time.monotonic() >= deadline) or max_frames < 1:
        exhausted = True
    else:
        # the frame being walked; its ancestors wait on the stack
        size, free = 1, ((1 << size_all) - 1) ^ 1 ^ (1 << (p - 1))
        addable = free & ~0b11
        count = addable.bit_count()
        stack: List[Tuple[int, int, int, int]] = []
        while True:
            if size + count <= best_size:
                if not stack:
                    break
                path.pop()
                size, free, addable, count = stack.pop()
                continue
            j = (addable & -addable).bit_length() - 1
            addable &= addable - 1
            count -= 1
            path[-1] = j
            new_size = size + 1
            if new_size > best_size:
                best_size = new_size
                best_witness = tuple(params.unindex(k) for k in sorted(path))
            moves = moves_of.get(j)
            if moves is None:
                moves = moves_of[j] = _moves(p, d, tuple(-c % p for c in params.unindex(j)))
            # _rotate(free, moves, free), inlined
            (up, down), rest = moves
            child = free
            for rep, rest_up, rest_down in rest:
                lo = (rep << rest_down) - rep
                kept = child & lo
                child = (kept << rest_up) | ((child ^ kept) >> rest_down)
            child = (((free >> up) & child) << up) | ((child >> down) & free)
            nodes += 1
            if (
                nodes > max_nodes
                or (deadline is not None and time.monotonic() >= deadline)
                or new_size > max_frames
            ):
                exhausted = True
                break
            child_addable = addable & child
            child_count = child_addable.bit_count()
            # a child the size bound prunes is counted here and never entered
            if new_size + child_count > best_size:
                stack.append((size, free, addable, count))
                path.append(0)
                size, free, addable, count = new_size, child, child_addable, child_count

    exact = not exhausted
    if exact:
        check = GroupMultiset.from_points(params, best_witness)
        _check("witness_zero_sum_free", find_zero_sum_subset(check) is None, "==", True)
    return FreeSetResult(best_size, best_witness, exact, nodes)


@dataclass
class OlsonResult:
    params: GroupParams
    olson: Optional[int]
    exact: bool
    witness: Tuple[Vec, ...]
    lower: int
    upper: int
    nodes: int

    def as_dict(self) -> dict:
        return {
            "p": self.params.p,
            "d": self.params.d,
            "olson": self.olson,
            "exact": self.exact,
            "witness": [list(v) for v in self.witness],
            "lower": self.lower,
            "upper": self.upper,
            "nodes": self.nodes,
        }


def olson_constant(params: GroupParams, budget: Optional[SearchBudget] = None) -> OlsonResult:
    """OL(F_p^d): one more than the largest zero-sum-free set size.

    With an exhausted budget the result is an interval: the witness found so
    far gives the lower end, and the zero-sum bound d(p-1)+1 caps the top.
    """
    res = max_zero_sum_free(params, budget)
    cap = params.d * (params.p - 1) + 1
    if res.exact:
        value = res.size + 1
        _check("olson_within_bound", value, "<=", cap)
        return OlsonResult(params, value, True, res.witness, value, value, res.nodes)
    return OlsonResult(params, None, False, res.witness, res.size + 1, cap, res.nodes)
