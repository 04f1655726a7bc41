"""Exact subset-sum machinery over F_p^d.

The reachability table marks every value attainable as a nonempty subsum of a
multiset, built by the incremental rule

    new = old | (old + x) | {x}

processed one element copy at a time.  Adding x permutes the state space, so
(old + x) is a d-fold cyclic roll of the table.  A first-reached-round array
makes witness extraction a straight backtrack.  There is one DP path: a numpy
boolean table of shape (p,) * d, rolled once per element copy, for every
group size; it stops early once every state is reachable.

On top of the table sit the ground-truth services: zero-sum witnesses,
largest zero-sum-free sets (branch and bound), and Olson constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from .group import GroupParams, Vec, _check
from .multiset import GroupMultiset


class StateBudgetError(ValueError):
    pass


@dataclass
class ReachabilityTable:
    """All nonempty subsums of a multiset, with witness backtracking data.

    first_round[s] is the index of the element copy whose processing first
    reached state s (-1 if unreachable); order is the processing sequence.
    """

    params: GroupParams
    table: np.ndarray          # boolean, shape (p,) * d
    first_round: np.ndarray    # int32, same shape
    order: Tuple[Vec, ...]

    def contains(self, v: Vec) -> bool:
        return bool(self.table[tuple(v)])

    def reachable_count(self) -> int:
        return int(self.table.sum())

    def reachable_values(self) -> List[Vec]:
        idx = np.argwhere(self.table)
        return [tuple(int(c) for c in row) for row in idx]

    def to_bitset_bytes(self) -> bytes:
        """Raw little-endian bitset over mixed-radix state indices."""
        flat = self.table.reshape(-1)
        return np.packbits(flat, bitorder="little").tobytes()

    def witness(self, target: Vec) -> Optional[GroupMultiset]:
        """A nonempty sub-multiset summing to target, or None."""
        pr = self.params
        t = pr.reduce(target)
        if not self.table[t]:
            return None
        picked: List[Vec] = []
        cur = t
        while True:
            r = int(self.first_round[cur])
            x = self.order[r]
            picked.append(x)
            if cur == x:
                break
            cur = pr.sub(cur, x)
        return GroupMultiset.from_points(pr, picked)


def enumerate_subsums(A: GroupMultiset) -> ReachabilityTable:
    """Reachability table of all nonempty subsums of A."""
    if len(A) == 0:
        raise ValueError("subsum enumeration needs at least one element")
    params = A.params
    if params.order > params.state_budget:
        raise StateBudgetError("state space exceeds budget")
    seq = list(A.iter_with_multiplicity())
    p, d = params.p, params.d
    shape = (p,) * d
    reach = np.zeros(shape, dtype=bool)
    first = np.full(shape, -1, dtype=np.int32)
    count = 0
    axes = tuple(range(d))
    for r, x in enumerate(seq):
        if count == params.order:
            break
        shifted = np.roll(reach, shift=x, axis=axes)
        shifted[tuple(x)] = True
        new = shifted & ~reach
        grown = np.count_nonzero(new)
        if grown:
            first[new] = r
            reach |= new
            count += grown
    return ReachabilityTable(params, reach, first, tuple(seq))


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
    """Certificate that 0 is a nonempty subsum of A, or None if it is not."""
    table = enumerate_subsums(A)
    witness = table.witness(A.params.zero())
    if witness is None:
        return None
    cert = ZeroSumCertificate(A.params, witness)
    _check("witness_verifies", cert.verify(A), "==", True)
    return cert


# ---------------------------------------------------------------------------
# Zero-sum-free search and Olson constants
# ---------------------------------------------------------------------------


@dataclass
class SearchBudget:
    max_nodes: int = 20_000_000
    max_ms: Optional[int] = None


@dataclass
class FreeSetResult:
    size: int
    witness: Tuple[Vec, ...]
    exact: bool
    nodes: int


def _is_zero_sum_free(points, params: GroupParams) -> bool:
    if not points:
        return True
    return params.zero() not in naive_subsums(GroupMultiset.from_points(params, points))


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


def max_zero_sum_free(params: GroupParams, budget: Optional[SearchBudget] = None) -> FreeSetResult:
    """Largest zero-sum-free subset of F_p^d by branch and bound.

    GL_d(F_p) acts transitively on nonzero vectors and preserves
    zero-sum-freeness, so some maximum set contains the lexicographically
    least nonzero vector; the root of the search fixes it.  A candidate x can
    join the current set S exactly when -x is not an attainable subsum, which
    doubles as the feasibility pruning rule.
    """
    if budget is None:
        budget = SearchBudget()
    p = params.p
    zero = params.zero()
    pts = [v for v in params.elements() if v != zero]
    v0 = pts[0]  # (0, ..., 0, 1)
    others = [v for v in pts if v != v0]

    seed = _constructive_free_set(params)
    if not _is_zero_sum_free(list(seed), params):  # pragma: no cover - sanity
        seed = (v0,)
    best_size = len(seed)
    best_witness = tuple(sorted(seed))

    deadline = None
    if budget.max_ms is not None:
        deadline = time.monotonic() + budget.max_ms / 1000.0
    nodes = 0
    exhausted = False

    neg = params.neg
    add = params.add

    def reach_with(reach: frozenset, x: Vec) -> frozenset:
        return reach | {add(s, x) for s in reach} | {x}

    def dfs(size: int, reach: frozenset, cands: List[Vec]):
        nonlocal best_size, best_witness, nodes, exhausted
        nodes += 1
        if exhausted:
            return
        if nodes > budget.max_nodes or (deadline is not None and time.monotonic() >= deadline):
            exhausted = True
            return
        addable = [x for x in cands if neg(x) not in reach]
        if size + len(addable) <= best_size:
            return
        stack_path.append(None)
        for i, x in enumerate(addable):
            if size + (len(addable) - i) <= best_size:
                break
            stack_path[-1] = x
            new_size = size + 1
            if new_size > best_size:
                best_size = new_size
                best_witness = tuple(sorted(v for v in stack_path if v is not None))
            dfs(new_size, reach_with(reach, x), addable[i + 1 :])
            if exhausted:
                break
        stack_path.pop()

    stack_path: List[Optional[Vec]] = [v0]
    if 1 > best_size:
        best_size, best_witness = 1, (v0,)
    dfs(1, frozenset({v0}), others)

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
