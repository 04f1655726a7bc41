"""Thickness along linear functionals and the tube/decomposition machinery.

A multiset X is (K, delta)-thick along a functional xi when at least a
delta-fraction of X (with multiplicity) lies outside the slab H(xi, K).
Everything below is built from exhaustive scans over all directions at once,
in blocks: one bincount gives the value histograms of a block of canonical
directions (leading coefficient 1), one gather through a cached index table
expands them to the scalar multiples c <= (p-1)/2 -- scaling is not a
symmetry here, since [-K, K] pulls back along c to an arithmetic
progression, while -c gives the same counts as c -- and cumulative sums give
the in-tube count for every constant term.

Three operations mirror the structural reductions used by the search
pipeline: a single tube reduction, a recursive decomposition into parts that
are thick inside their affine hulls, and a strengthened decomposition whose
part-unions all carry re-checkable tubular certificates.  The inequalities
those reductions guarantee are checked explicitly and raise InvariantError.

Deltas and epsilons are Fractions throughout; no comparison ever goes
through floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .group import InvariantError  # re-exported as zerosum.thickness.InvariantError
from .group import (
    AffineIso,
    GroupParams,
    LinearFunctional,
    Vec,
    _check,
    affine_hull,
    canonical_linear_parts,
    nonconstant_on_span,
)
from .multiset import GroupMultiset


class DecompositionBudgetError(RuntimeError):
    """Raised when the iterate exponent outruns its cap (a sign the growth
    function is pathological for this instance)."""


class SubsetSweepBudgetError(RuntimeError):
    """Raised when 2^m subset sweeps would exceed the configured budget."""

    def __init__(self, message: str, m: int, budget: int):
        super().__init__(message)
        self.m = m
        self.budget = budget


# ---------------------------------------------------------------------------
# Growth functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFunction:
    """Strictly increasing g: N -> N with g(K) > K, evaluated exactly.

    kinds: affine a*K+b, polynomial (K+b)^a, exponential a^K.
    """

    kind: str
    a: int
    b: int = 0

    def __post_init__(self):
        if self.kind == "affine":
            if self.a < 1 or self.b < 1:
                raise ValueError("affine growth needs a >= 1 and b >= 1")
        elif self.kind == "polynomial":
            if self.a < 2 or self.b < 1:
                raise ValueError("polynomial growth needs exponent >= 2 and shift >= 1")
        elif self.kind == "exponential":
            if self.a < 2:
                raise ValueError("exponential growth needs base >= 2")
        else:
            raise ValueError(f"unknown growth kind {self.kind!r}")

    def __call__(self, K: int) -> int:
        if K < 0:
            raise ValueError("growth functions are defined on N")
        if self.kind == "affine":
            return self.a * K + self.b
        if self.kind == "polynomial":
            return (K + self.b) ** self.a
        return self.a ** K if self.a ** K > K else K + 1  # exponential; g(K) > K

    def iterate(self, times: int, K: int) -> int:
        v = K
        for _ in range(times):
            v = self(v)
        return v

    def describe(self) -> str:
        if self.kind == "affine":
            if self.a == 1:
                return f"K+{self.b}"
            return f"{self.a}K+{self.b}"
        if self.kind == "polynomial":
            return f"(K+{self.b})^{self.a}"
        return f"{self.a}^K"

    @staticmethod
    def parse(text: str) -> "GrowthFunction":
        s = text.replace(" ", "")
        m = re.fullmatch(r"(?:(\d+))?K\+(\d+)", s)
        if m:
            return GrowthFunction("affine", int(m.group(1) or 1), int(m.group(2)))
        m = re.fullmatch(r"\(K\+(\d+)\)\^(\d+)", s)
        if m:
            return GrowthFunction("polynomial", int(m.group(2)), int(m.group(1)))
        m = re.fullmatch(r"(\d+)\^K", s)
        if m:
            return GrowthFunction("exponential", int(m.group(1)))
        raise ValueError(f"cannot parse growth function {text!r}")


class IteratedGrowth:
    """g^j as a growth function; used where a proof substitutes g -> g^{j}."""

    def __init__(self, base: GrowthFunction, times: int):
        if times < 1:
            raise ValueError("iteration count must be positive")
        self.base = base
        self.times = times

    def __call__(self, K: int) -> int:
        return self.base.iterate(self.times, K)

    def iterate(self, times: int, K: int) -> int:
        return self.base.iterate(self.times * times, K)

    def describe(self) -> str:
        return f"({self.base.describe()})^{self.times}"


DEFAULT_GROWTH = GrowthFunction("affine", 4, 4)


@dataclass(frozen=True)
class ThicknessParams:
    K: int
    delta: Fraction

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be nonnegative")
        if not (0 < self.delta <= 1):
            raise ValueError("delta must lie in (0, 1]")


# ---------------------------------------------------------------------------
# Histogram scans
# ---------------------------------------------------------------------------


# Directions scanned per block: a block's (n, L) projection and its
# (L, (p-1)/2, p+2K) gathered histograms stay under 2^15 cells (256 KB of
# int64).  Blocks of 2^14 cells measured 5-8% slower on the structural
# workloads and 2^16 no faster; unblocked, d = 3 scans of large sets would
# hold an n x L projection of tens of MB.
_BLOCK_CELLS = 2 ** 15


def value_histogram(X: GroupMultiset, directions) -> np.ndarray:
    """(L, p) matrix: row i is the multiplicity-weighted histogram of
    x -> <directions[i], x> over F_p, from one bincount over all rows."""
    p, d = X.params.p, X.params.d
    dirs = np.asarray(directions, dtype=np.int64).reshape(-1, d)
    L = len(dirs)
    pts, mults = X.arrays()
    if len(pts) == 0:
        return np.zeros((L, p), dtype=np.int64)
    vals = (pts @ dirs.T) % p + p * np.arange(L)  # direction-offset values
    hist = np.bincount(vals.ravel(), weights=np.repeat(mults, L), minlength=L * p)
    return hist.astype(np.int64).reshape(L, p)


@lru_cache(maxsize=64)
def _scaling_index(p: int) -> np.ndarray:
    """idx[c-1, v] = c^{-1} v mod p for c <= (p-1)/2: a histogram of linear
    gathered through row c-1 is the histogram of c * linear."""
    inv = np.array([pow(c, -1, p) for c in range(1, (p + 1) // 2)], dtype=np.int64)
    return (inv[:, None] * np.arange(p)[None, :]) % p


def scaling_window_table(
    hists: np.ndarray, K: int, p: int, zero_constant_term: bool = False
) -> np.ndarray:
    """In-tube counts for the scalar multiples of a block of directions.

    The value histogram of (c * linear) is the c-permutation of the histogram
    of linear, so entry [i, c-1, a0] holds |X ∩ H(c*linear_i + a0, K)| for
    c <= (p-1)/2; with zero_constant_term only the a0 = 0 column is built.
    Scalings matter: [-K, K] pulls back along c to an arithmetic progression,
    not an interval, so thickness along a direction says nothing about its
    multiples.  The other half needs no table: [-K, K] is symmetric, so row
    p-c is row c read at -a0 and holds the same counts, one row later.
    """
    w = min(2 * K + 1, p)
    # column j lists the value K - j of c * linear, so the w columns from a0
    # on are exactly {v : a0 + v in [-K, K]}; K % p keeps any K within int64
    idx = _scaling_index(p)[:, (K % p - np.arange(p + w - 1)) % p]
    if zero_constant_term:
        return hists[:, idx[:, :w]].sum(axis=2, keepdims=True)
    csum = np.cumsum(hists[:, idx], axis=2)
    table = csum[:, :, w - 1 : w - 1 + p].copy()
    table[:, :, 1:] -= csum[:, :, : p - 1]
    return table


def _scan(
    X: GroupMultiset, K: int, directions, zero_constant_term: bool
) -> Optional[Tuple[int, Vec, int]]:
    """(largest in-tube count over all scalings c*lam + a0 of all directions,
    lex-min c*lam, its a0), or None for an empty family.

    Directions are canonical (leading coefficient 1), so c*lam compares by c
    alone: the row-major first maximiser of a direction's table is its lex-min
    maximiser (rows past (p-1)/2 repeat earlier rows' counts, so never come
    first), and only the directions tied for the overall maximum need their
    scaled functional built to break the tie.
    """
    p, d = X.params.p, X.params.d
    dirs = np.asarray(directions, dtype=np.int64).reshape(-1, d)
    if len(dirs) == 0:
        return None
    block = max(1, _BLOCK_CELLS // max(p * (p - 1), X.support_size()))
    counts, firsts = [], []
    for start in range(0, len(dirs), block):
        table = scaling_window_table(
            value_histogram(X, dirs[start : start + block]), K, p, zero_constant_term
        )
        flat = table.reshape(len(table), -1)
        first = flat.argmax(axis=1)
        firsts.append(first)
        counts.append(flat[np.arange(len(flat)), first])
    count = np.concatenate(counts)
    first = np.concatenate(firsts)
    top = int(count.max())
    cols = 1 if zero_constant_term else p
    tied = []
    for i in np.flatnonzero(count == top).tolist():
        row, a0 = divmod(int(first[i]), cols)
        tied.append((tuple((row + 1) * a % p for a in dirs[i].tolist()), a0))
    scaled, a0 = min(tied)
    return top, scaled, a0


def _values(X: GroupMultiset, functionals: Sequence[LinearFunctional]) -> np.ndarray:
    """(support size, len(functionals)) residues f(x), rows in `items()` order."""
    p, d = X.params.p, X.params.d
    linear = np.array(
        [[a % p for a in f.linear] for f in functionals], dtype=np.int64
    ).reshape(-1, d)
    a0 = np.array([f.a0 % p for f in functionals], dtype=np.int64)
    pts, _ = X.arrays()
    return (pts @ linear.T + a0) % p


def _in_slab(residues: np.ndarray, K: int, p: int) -> np.ndarray:
    """Elementwise `in_interval` for residues in [0, p-1]."""
    K = min(K, p)  # K may be a huge growth iterate; beyond p it is all of F_p
    return (residues <= K) | (residues >= p - K)


def inside_count(X: GroupMultiset, xi: LinearFunctional, K: int) -> int:
    p = X.params.p
    table = scaling_window_table(value_histogram(X, [xi.linear]), K, p)
    return int(table[0, 0, xi.a0 % p])  # scaling c = 1


def is_thick(X: GroupMultiset, xi: LinearFunctional, params: ThicknessParams):
    """(thick?, outside count): at least delta|X| mass outside H(xi, K)."""
    if xi.is_constant():
        raise ValueError("thickness along a constant functional is undefined")
    if len(X) == 0:
        raise ValueError("thickness of an empty multiset is undefined")
    outside = len(X) - inside_count(X, xi, params.K)
    return Fraction(outside) >= params.delta * len(X), outside


def _span_filter(parts: Sequence[Vec], excluded: Sequence[Vec], p: int) -> List[Vec]:
    if not excluded:
        return list(parts)
    reduced, pivots = linalg.rref(excluded, p)
    out = []
    for lam in parts:
        v = list(lam)
        for row, c in zip(reduced, pivots):
            if v[c] % p:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        if any(x % p for x in v):
            out.append(lam)
    return out


def candidate_parts(
    X: GroupMultiset,
    excluded: Sequence[Vec] = (),
    hull_basis: Optional[Sequence[Vec]] = None,
    fiber_start: Optional[int] = None,
) -> List[Vec]:
    """Canonical linear parts, optionally filtered to those independent from
    `excluded`, non-constant on a hull with direction basis `hull_basis`, or
    non-constant on the fiber subspace {0}^l x F_p^{d-l} (fiber_start = l)."""
    p, d = X.params.p, X.params.d
    parts: Sequence[Vec] = canonical_linear_parts(p, d)
    if fiber_start is not None:
        parts = [lam for lam in parts if any(lam[fiber_start:])]
    if hull_basis is not None:
        parts = [lam for lam in parts if nonconstant_on_span(lam, hull_basis, p)]
    return _span_filter(parts, excluded, p)


def find_thin_functional(
    X: GroupMultiset,
    K: int,
    delta: Fraction,
    excluded: Sequence[Vec] = (),
    hull_basis: Optional[Sequence[Vec]] = None,
) -> Optional[LinearFunctional]:
    """A functional along which X fails to be (K, delta)-thick.

    All directions are scanned in blocks through their canonical
    representatives and expanded to all scalar multiples through histogram
    permutations; the constant term is chosen to maximise |X ∩ H(xi, K)|.
    Among thin functionals the largest in-tube count wins, ties broken by the
    lexicographic encoding.  Returns None when X is thick along every
    admissible functional.
    """
    n = len(X)
    found = _scan(X, K, candidate_parts(X, excluded=excluded, hull_basis=hull_basis), False)
    # thinness only grows with the in-tube count, so the best is thin or none is
    if found is None or not Fraction(n - found[0]) < delta * n:
        return None
    return LinearFunctional(found[2], found[1])


def min_outside_fraction(
    X: GroupMultiset,
    K: int,
    linear_parts: Sequence[Vec],
    zero_constant_term: bool = False,
) -> Tuple[Fraction, Optional[LinearFunctional]]:
    """Worst-case thickness over a family of directions and all their scalar
    multiples.

    For each functional the binding constant term maximises the in-tube count
    (fixed to a0 = 0 when zero_constant_term is set).  Returns the minimum
    outside fraction and a functional attaining it; an empty family yields
    (1, None), i.e. vacuous thickness.
    """
    n = len(X)
    if n == 0:
        raise ValueError("empty multiset")
    found = _scan(X, K, linear_parts, zero_constant_term)
    if found is None:
        return Fraction(1), None
    return Fraction(n - found[0], n), LinearFunctional(found[2], found[1])


def hull_thickness(X: GroupMultiset, K: int) -> Tuple[Fraction, Optional[LinearFunctional]]:
    """Worst outside-fraction at radius K over directions non-constant on the
    affine hull of X.  dim-0 hulls have no such direction: vacuously (1, None)."""
    dim, _base, basis = affine_hull(X.support(), X.params.p)
    if dim == 0:
        return Fraction(1), None
    parts = candidate_parts(X, hull_basis=basis)
    return min_outside_fraction(X, K, parts)


# ---------------------------------------------------------------------------
# Tubular certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TubularCertificate:
    """Witness that a set is (K, K', delta)-tubular: psi maps it into
    [-K, K]^l x F_p^{d-l}, and the image is (K', delta)-thick along every
    functional that is non-constant on the fiber factor."""

    params: GroupParams
    l: int
    psi: AffineIso
    K: int
    K_prime: int
    delta: Fraction
    functionals: Tuple[LinearFunctional, ...]

    def validate(self, X: GroupMultiset):
        """(ok, achieved outside-fraction, worst functional) by full rescan.

        A singular psi, or a point mapped outside the box, gives
        (False, 0, None); a psi of the wrong shape raises ValueError.
        """
        p = self.params.p
        img = X.apply_iso(self.psi)
        if linalg.invert_matrix(self.psi.matrix, p) is None:
            return False, Fraction(0), None
        pts, _ = img.arrays()
        if not _in_slab(pts[:, : self.l], self.K, p).all():
            return False, Fraction(0), None
        if self.l == self.params.d:
            return True, Fraction(1), None
        parts = candidate_parts(img, fiber_start=self.l)
        frac, worst = min_outside_fraction(img, self.K_prime, parts)
        return frac >= self.delta, frac, worst


def tube_decompose(
    X: GroupMultiset,
    K0: int,
    delta: Fraction,
    g: GrowthFunction,
    validate: bool = True,
) -> Tuple[GroupMultiset, TubularCertificate]:
    """Single tube reduction.

    Greedily accumulates independent directions xi_i along which X is
    (g^i(K0), 2^i delta)-thin, then keeps Y = X ∩ ⋂ H(xi_i, K) with
    K = g^l(K0).  The leftover set is at most a 2^{d+1} delta fraction, and Y
    is (g(K), delta)-tubular via the coordinate change sending xi_1..xi_l to
    the first l coordinates.
    """
    params = X.params
    d, p = params.d, params.p
    delta = Fraction(delta)
    if not 0 < delta < Fraction(1, 2 ** (d + 1)):
        raise ValueError("tube reduction requires 0 < delta < 2^-(d+1)")
    if len(X) == 0:
        raise ValueError("empty multiset")

    chosen: List[LinearFunctional] = []
    for i in range(1, d + 1):
        Ki = g.iterate(i, K0)
        thin = find_thin_functional(
            X, Ki, (2 ** i) * delta, excluded=[f.linear for f in chosen]
        )
        if thin is None:
            break
        chosen.append(thin)

    l = len(chosen)
    K = g.iterate(l, K0)
    Y = X.select(_in_slab(_values(X, chosen), K, p).all(axis=1)) if chosen else X

    lower = (Fraction(1) - Fraction(2 ** (d + 1)) * delta) * len(X)
    _check("tube_mass", Fraction(len(Y)), ">=", lower)

    if l > 0:
        matrix = linalg.complete_basis([f.linear for f in chosen], p)
        shift = tuple(f.a0 % p for f in chosen) + (0,) * (d - l)
    else:
        matrix = linalg.identity(d)
        shift = (0,) * d
    psi = AffineIso(matrix, shift)
    cert = TubularCertificate(params, l, psi, K, g(K), delta, tuple(chosen))
    if validate:
        # validate's ok is frac >= delta: it reports 0 when a point leaves
        # the box, and delta > 0
        _ok, frac, worst = cert.validate(Y)
        _check("tube_rescan", frac, ">=", cert.delta, f"worst {worst}")
    return Y, cert


# ---------------------------------------------------------------------------
# Decomposition into hull-thick parts
# ---------------------------------------------------------------------------


@dataclass
class Decomposition:
    """X = X_0 ∪ X_1 ∪ ... ∪ X_m with |X_0| <= eps|X|, each part at least a
    mu-fraction of X and (g(K), delta)-thick in its affine hull, K = g^l(K0).

    delta and mu are the concrete values achieved by the run; n_cap is the a
    priori bound enforced on the iterate exponent l.
    """

    params: GroupParams
    input_size: int
    x0: GroupMultiset
    parts: Tuple[GroupMultiset, ...]
    l: int
    K: int
    K0: int
    delta: Fraction
    mu: Fraction
    epsilon: Fraction
    growth: GrowthFunction
    n_cap: int

    @property
    def m(self) -> int:
        return len(self.parts)

    def hulls(self):
        return [affine_hull(part.support(), self.params.p) for part in self.parts]

    def validate(self, X: GroupMultiset) -> List[Tuple[str, bool]]:
        checks = []
        rebuilt = self.x0
        for part in self.parts:
            rebuilt = rebuilt.union(part)
        checks.append(("partition", rebuilt == X))
        checks.append(
            ("x0_bound", Fraction(len(self.x0)) <= self.epsilon * self.input_size)
        )
        checks.append(
            (
                "part_sizes",
                all(Fraction(len(pt)) >= self.mu * self.input_size for pt in self.parts),
            )
        )
        Kp = self.growth(self.K)
        ok = True
        for part in self.parts:
            frac, _worst = hull_thickness(part, Kp)
            if frac < self.delta:
                ok = False
                break
        checks.append(("hull_thickness", ok))
        return checks


def decompose(
    X: GroupMultiset,
    K0: int,
    epsilon,
    g: GrowthFunction,
    n_cap: int = 32,
) -> Decomposition:
    """Recursive decomposition into hull-thick parts.

    Each level either certifies the current piece thick inside its hull or
    slices it along a concentrating direction into fibers over [-R, R],
    dropping undersized fibers into X_0 and recursing.  The iterate exponent
    is threaded through the recursion; parts certified at an earlier, lower
    iterate are re-checked at the final one and re-sliced if the check fails,
    with a geometrically shrinking share of the X_0 allowance so the total
    stays below eps|X|.
    """
    eps = Fraction(epsilon)
    if not (0 < eps < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    if len(X) == 0:
        raise ValueError("cannot decompose an empty multiset")
    params = X.params
    p = params.p

    exponent = 0
    parts: List[GroupMultiset] = []
    removed: List[GroupMultiset] = []

    def slicer(P: GroupMultiset, eps_lvl: Fraction):
        nonlocal exponent
        if exponent >= n_cap:
            raise DecompositionBudgetError(
                f"iterate exponent exceeded n_cap={n_cap}; growth {g.describe()}"
            )
        dim, _base, basis = affine_hull(P.support(), p)
        if dim == 0:
            parts.append(P)
            return
        K_search = g.iterate(exponent + 1, K0)
        thin = find_thin_functional(P, K_search, eps_lvl / 2, hull_basis=basis)
        if thin is None:
            parts.append(P)
            return
        exponent += 1
        entry_size = len(P)
        values = _values(P, [thin])[:, 0]
        keep = _in_slab(values, K_search, p)
        # one piece per signed slab value; None collects the trimmed points
        labels = [
            params.signed(v) if k else None
            for v, k in zip(values.tolist(), keep.tolist())
        ]
        fibers = P.split(labels)
        trimmed = fibers.pop(None, None)
        if trimmed is not None:
            removed.append(trimmed)
        R = K_search
        eps_next = eps_lvl / (8 * R)
        for y in sorted(fibers):
            fiber = fibers[y]
            if Fraction(len(fiber)) < eps_next * entry_size:
                removed.append(fiber)
            else:
                slicer(fiber, eps_next)

    slicer(X, eps / 2)

    # Re-verification sweeps: every part must end up thick at the final
    # iterate; failures are re-sliced on a shrinking removal allowance.  The
    # last sweep's fractions give delta.
    while True:
        K = g.iterate(exponent, K0)
        Kp = g(K)
        fracs = [hull_thickness(part, Kp)[0] for part in parts]
        failing = [i for i, frac in enumerate(fracs) if frac == 0]
        if not failing:
            break
        total_removed = sum(len(r) for r in removed)
        allowance = eps * len(X) - total_removed
        _check("x0_allowance", allowance, ">", 0)
        redo = [parts[i] for i in failing]
        for i in sorted(failing, reverse=True):
            del parts[i]
        for piece in redo:
            eps_local = allowance / (2 * len(redo) * len(piece))
            slicer(piece, eps_local)

    # 1 when every part is a single point: vacuously thick
    delta = min(fracs, default=Fraction(1))
    mu = min(Fraction(len(part), len(X)) for part in parts)

    x0 = GroupMultiset.empty(params)
    for r in removed:
        x0 = x0.union(r)
    _check("x0_budget", Fraction(len(x0)), "<=", eps * len(X))

    return Decomposition(
        params=params,
        input_size=len(X),
        x0=x0,
        parts=tuple(parts),
        l=exponent,
        K=K,
        K0=K0,
        delta=delta,
        mu=mu,
        epsilon=eps,
        growth=g,
        n_cap=n_cap,
    )


# ---------------------------------------------------------------------------
# Strong decomposition: tubular certificates for every part union
# ---------------------------------------------------------------------------


def _union(params: GroupParams, parts: Sequence[GroupMultiset], subset) -> GroupMultiset:
    out = GroupMultiset.empty(params)
    for i in subset:
        out = out.union(parts[i])
    return out


def _subset_unions(parts: Sequence[GroupMultiset]):
    """(S, X_S) for every nonempty subset S of part indices, in lexicographic
    order of the sorted tuples S.  Each union is built once, as
    X_{S minus max S} ∪ part_{max S}, and at most len(parts) are held at a
    time."""

    def walk(prefix, X_prefix, start):
        for i in range(start, len(parts)):
            subset = prefix + (i,)
            X_S = X_prefix.union(parts[i])
            yield subset, X_S
            yield from walk(subset, X_S, i + 1)

    if parts:
        yield from walk((), GroupMultiset.empty(parts[0].params), 0)


@dataclass
class SubsetCertificate:
    subset: Tuple[int, ...]          # part indices, 0-based
    cert: TubularCertificate
    delta_schedule: Fraction         # the delta_j used for the sweep
    achieved: Fraction               # outside fraction on the final union


@dataclass
class StrongDecomposition:
    params: GroupParams
    input_size: int
    x0: GroupMultiset
    parts: Tuple[GroupMultiset, ...]
    l: int                            # exponent of g at the inner decomposition
    K: int
    delta: Fraction                   # part hull-thickness after sweeps
    delta0: Fraction                  # inner decomposition thickness
    mu0: Fraction
    mu: Fraction                      # min(part fraction, tubular thickness)
    epsilon: Fraction
    growth: GrowthFunction
    subset_certs: Dict[Tuple[int, ...], SubsetCertificate]
    removed_in_sweeps: int

    @property
    def m(self) -> int:
        return len(self.parts)

    def union(self, subset: Sequence[int]) -> GroupMultiset:
        return _union(self.params, self.parts, subset)

    def validate(self, X: GroupMultiset) -> List[Tuple[str, bool]]:
        checks = []
        rebuilt = self.x0
        for part in self.parts:
            rebuilt = rebuilt.union(part)
        checks.append(("partition", rebuilt == X))
        checks.append(("x0_bound", Fraction(len(self.x0)) <= self.epsilon * self.input_size))
        gp = IteratedGrowth(self.growth, self.params.d + 1)
        ok = True
        for part in self.parts:
            frac, _ = hull_thickness(part, gp(self.K))
            if frac < self.delta:
                ok = False
        checks.append(("part_thickness", ok))
        # every one of the 2^m - 1 unions needs a valid certificate; the
        # count is checked first, so a forged m cannot start 2^m unions
        certs = self.subset_certs
        ok = len(certs) == 2 ** self.m - 1
        if ok:
            for subset, X_S in _subset_unions(self.parts):
                sc = certs.get(subset)
                if sc is None or not sc.cert.validate(X_S)[0]:
                    ok = False
        checks.append(("tubular_certs", ok))
        return checks


def strong_decompose(
    X: GroupMultiset,
    K0: int,
    epsilon,
    g: GrowthFunction,
    m_budget: int = 12,
    n_cap: int = 32,
) -> StrongDecomposition:
    """Decomposition plus a tubular certificate for every nonempty part union.

    Runs the basic decomposition with g^{d+1} and eps/2, then sweeps the
    2^m - 1 unions with tube reductions on the schedule
    delta_j = eps mu0 delta0 2^{-d-2-m} 2^{-(d+m+4) j}; the schedule shrinks
    fast enough that total removals stay below eps|X|/2, every part keeps
    half its thickness, and each union stays tubular at half its sweep delta.
    All three facts are checked on exact integers, not assumed.
    """
    eps = Fraction(epsilon)
    params = X.params
    d = params.d
    gp = IteratedGrowth(g, d + 1)
    dec = decompose(X, K0, eps / 2, gp, n_cap=n_cap)
    m = dec.m
    if m > m_budget:
        raise SubsetSweepBudgetError(
            f"decomposition produced m={m} parts; subset sweep budget is {m_budget}",
            m,
            m_budget,
        )
    K = dec.K
    l_in_g = dec.l * (d + 1)
    delta0, mu0 = dec.delta, dec.mu

    parts = list(dec.parts)
    owner: Dict[Vec, int] = {}
    for i, part in enumerate(parts):
        for elem, _mult in part.items():
            owner[elem] = i

    sweeps: Dict[Tuple[int, ...], Tuple[TubularCertificate, Fraction]] = {}
    removed_total = 0
    removed_sets: List[GroupMultiset] = []

    for j, mask in enumerate(range(1, 2 ** m), start=1):
        subset = tuple(i for i in range(m) if (mask >> i) & 1)
        delta_j = (
            eps
            * mu0
            * delta0
            * Fraction(1, 2 ** (d + 2 + m))
            * Fraction(1, 2 ** ((d + m + 4) * j))
        )
        X_S = _union(params, parts, subset)
        Y, cert = tube_decompose(X_S, K, delta_j, g, validate=False)
        dropped = X_S.minus(Y)
        if dropped:
            removed_total += len(dropped)
            removed_sets.append(dropped)
            pieces = dropped.split([owner[elem] for elem in dropped.support()])
            for i, piece in pieces.items():
                parts[i] = parts[i].minus(piece)
        sweeps[subset] = (cert, delta_j)

    # bullet 1: sweep removals stay below eps|X|/2
    _check("sweep_removals", Fraction(removed_total), "<", eps * len(X) / 2)

    # bullet 2: parts keep half their hull thickness at g^{d+1}(K)
    part_delta = None
    for part in parts:
        _check("part_nonempty", len(part), ">", 0)
        frac, worst = hull_thickness(part, gp(K))
        _check("part_thickness", frac, ">=", delta0 / 2, f"worst {worst}")
        if frac < Fraction(1):
            part_delta = frac if part_delta is None else min(part_delta, frac)
    if part_delta is None:
        part_delta = Fraction(1)

    # bullet 3: every final union is tubular at half its sweep delta
    rescanned: Dict[Tuple[int, ...], SubsetCertificate] = {}
    tubular_min: Optional[Fraction] = None
    for subset, X_S in _subset_unions(parts):
        cert, delta_j = sweeps[subset]
        final_cert = TubularCertificate(
            params, cert.l, cert.psi, cert.K, cert.K_prime, delta_j / 2, cert.functionals
        )
        _ok, frac, worst = final_cert.validate(X_S)
        _check("union_tubular", frac, ">=", final_cert.delta, f"union {subset}, worst {worst}")
        rescanned[subset] = SubsetCertificate(subset, final_cert, delta_j, frac)
        if cert.l < d:
            tubular_min = frac if tubular_min is None else min(tubular_min, frac)
    subset_certs = {subset: rescanned[subset] for subset in sweeps}  # mask order

    size_mu = min(Fraction(len(part), len(X)) for part in parts)
    mu = size_mu if tubular_min is None else min(size_mu, tubular_min)

    x0 = dec.x0
    for r in removed_sets:
        x0 = x0.union(r)
    _check("strong_x0_budget", Fraction(len(x0)), "<=", eps * len(X))

    return StrongDecomposition(
        params=params,
        input_size=len(X),
        x0=x0,
        parts=tuple(parts),
        l=l_in_g,
        K=K,
        delta=part_delta,
        delta0=delta0,
        mu0=mu0,
        mu=mu,
        epsilon=eps,
        growth=g,
        subset_certs=subset_certs,
        removed_in_sweeps=removed_total,
    )
