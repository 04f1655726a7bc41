"""Weighted zero-sum solver.

Given distinct points y with positive weights w(y) and a margin r, find
coefficients a_y in {0} ∪ [r, w(y)-r], not all zero, with sum a_y * y = 0.
When sum w(y) >= d(p-1) + 2r|Y| + 1 a solution always exists; the solver
realises that existence claim by exhaustive dynamic programming over the p^d
partial-sum states, so an Infeasible answer is a proof of unsolvability (and
is only possible when the hypothesis fails).

Only a_y mod p affects the sum, so per point the DP branches over the
distinct residues reachable from the allowed set, each tagged with its
smallest literal representative.  The returned witness maximises the number
of nonzero coefficients (the downstream sum-lifting search wants mass on as
many points as possible) and is lexicographically minimal among those.

The DP holds one p^d layer per point.  A layer is the maximum, over the
point's candidate residues, of the next layer read at the shifted states:
one gather through flat state indices per block of candidates, the block
bounded by _GATHER_CELLS cells.  Whether a plain sequence has a
nonempty zero sum is the r = 0 case with its multiplicities as weights, but
it wants no maximal support, so `subsums.zero_sum_sequence` answers it with
the reach kernel and none of these layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .group import GroupParams, Vec, _check


@dataclass(frozen=True)
class WeightedInstance:
    params: GroupParams
    points: Tuple[Vec, ...]
    weights: Tuple[int, ...]
    r: int

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must align")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        for pt in self.points:
            if self.params.reduce(pt) != pt:
                raise ValueError(f"point {pt} is not canonical")

    def allowed(self, i: int) -> Tuple[int, int]:
        """Positive-coefficient range [lo, hi] for point i (may be empty)."""
        lo = max(self.r, 1)
        hi = self.weights[i] - self.r
        return lo, hi

    def hypothesis_holds(self) -> bool:
        lhs = sum(self.weights)
        rhs = self.params.d * (self.params.p - 1) + 2 * self.r * len(self.points) + 1
        return lhs >= rhs

    def candidate_values(self, i: int) -> List[Tuple[int, int]]:
        """(literal value, residue) candidates for point i, smallest literal
        per residue class, sorted by literal.  Always contains (0, 0)."""
        p = self.params.p
        lo, hi = self.allowed(i)
        out = [(0, 0)]
        if hi >= lo:
            for res in range(p):
                v = lo + ((res - lo) % p)
                if v <= hi:
                    out.append((v, res))
        out.sort()
        return out


@dataclass(frozen=True)
class CoefficientSolution:
    coefficients: Tuple[int, ...]


def verify_coefficients(inst: WeightedInstance, sol: CoefficientSolution) -> bool:
    """Membership, non-triviality, and the zero sum, recomputed from scratch."""
    if len(sol.coefficients) != len(inst.points):
        return False
    if all(a == 0 for a in sol.coefficients):
        return False
    total = [0] * inst.params.d
    for a, y, w in zip(sol.coefficients, inst.points, inst.weights):
        if a != 0 and not (inst.r <= a <= w - inst.r):
            return False
        if a < 0:
            return False
        for k, c in enumerate(y):
            total[k] += a * c
    return all(t % inst.params.p == 0 for t in total)


# most cells one gather of a DP layer reads at once (one shift's layer at least)
_GATHER_CELLS = 1 << 16


def _layers(inst: WeightedInstance) -> List[np.ndarray]:
    """layers[i][s], over the (p,)^d grid of partial sums s: the largest
    nonzero-coefficient count of a completion from point i that ends at
    total 0, and -1_000_000 (less any count) where none does; layers[n] is 0
    at the origin only.

    Taking residue res at point i moves s to s + res*y_i, so a layer is the
    maximum over point i's candidates of the next layer read at the shifted
    states plus the candidate's count.  Each block of up to _GATHER_CELLS
    cells reads the next layer at once through flat state indices.
    """
    params = inst.params
    p, d = params.p, params.d
    shape, size = (p,) * d, p ** d
    per = max(1, _GATHER_CELLS // size)  # candidate shifts per block
    NEG = -1_000_000
    best = np.full(size, NEG, dtype=np.int64)
    best[0] = 0
    layers = [best]
    for i in range(len(inst.points) - 1, -1, -1):
        cands = inst.candidate_values(i)
        shifts = np.array([res for _v, res in cands])[:, None] * np.array(inst.points[i]) % p
        counts = np.array([1 if v > 0 else 0 for v, _res in cands])
        nxt = layers[-1]
        cur = np.full(size, NEG, dtype=np.int64)
        for start in range(0, len(cands), per):
            block = shifts[start : start + per]
            # the flat index of s + shift, summed one axis at a time
            idx = np.zeros((len(block),) + shape, dtype=np.int64)
            for k in range(d):
                axis = (np.arange(p) + block[:, k, None]) % p * p ** (d - 1 - k)
                idx += axis.reshape((len(block),) + (1,) * k + (p,) + (1,) * (d - 1 - k))
            gathered = nxt[idx.reshape(len(block), size)] + counts[start : start + per, None]
            np.maximum(cur, gathered.max(axis=0), out=cur)
        layers.append(cur)
    layers.reverse()  # layers[i] = best over points i..n-1
    return [layer.reshape(shape) for layer in layers]


def weighted_zero_sum(inst: WeightedInstance) -> Optional[CoefficientSolution]:
    """Exhaustive DP over partial sums; None means provably no solution.

    Backward pass (`_layers`): best[i][s] = largest nonzero-coefficient
    count over all completions from point i with accumulated sum s ending at
    total 0.  A maximum of 0 at the start state means the all-zero vector is
    the only solution, i.e. the instance is infeasible.
    """
    params = inst.params
    p, d = params.p, params.d
    n = len(inst.points)

    def step(i: int, res: int) -> Vec:
        """The state shift res * y_i of choosing residue res at point i."""
        return tuple((res * c) % p for c in inst.points[i])

    layers = _layers(inst)
    max_support = int(layers[0][params.zero()])
    if max_support <= 0:
        if inst.hypothesis_holds():
            _check("hypothesis_instance_solvable", max_support, ">", 0)
        return None

    coeffs = []
    state = params.zero()
    remaining = max_support
    for i in range(n):
        chosen = None
        for v, res in inst.candidate_values(i):
            cost = 1 if v > 0 else 0
            nxt_state = params.add(state, step(i, res))
            if cost + int(layers[i + 1][nxt_state]) == remaining:
                chosen = (v, nxt_state, cost)
                break
        _check("dp_path_continues", chosen is not None, "==", True, f"point {i}")
        coeffs.append(chosen[0])
        state = chosen[1]
        remaining -= chosen[2]
    sol = CoefficientSolution(tuple(coeffs))
    _check("dp_witness_valid", verify_coefficients(inst, sol), "==", True)
    return sol


def brute_force_solvable(inst: WeightedInstance, cap: int = 10 ** 6) -> Optional[bool]:
    """Cartesian enumeration over the literal coefficient sets.

    Returns None when the product of set sizes exceeds cap.  The all-zero
    vector always sums to zero, so the instance is solvable exactly when at
    least two combinations do.
    """
    sets = []
    total = 1
    for i in range(len(inst.points)):
        lo, hi = inst.allowed(i)
        vals = [0] + list(range(lo, hi + 1))
        total *= len(vals)
        if total > cap:
            return None
        sets.append(vals)
    p, d = inst.params.p, inst.params.d
    sums = np.zeros((1, d), dtype=np.int64)
    for vals, y in zip(sets, inst.points):
        contrib = np.asarray(vals, dtype=np.int64)[:, None] * np.asarray(y, dtype=np.int64)
        sums = (sums[:, None, :] + contrib[None, :, :]).reshape(-1, d) % p
    zero_count = int((sums == 0).all(axis=1).sum())
    return zero_count >= 2
