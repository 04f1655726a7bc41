"""Thickness along linear functionals and the tube/decomposition machinery.

A multiset X is (K, delta)-thick along a functional xi when at least a
delta-fraction of X (with multiplicity) lies outside the slab H(xi, K).
Everything below is built from exhaustive scans over a family of directions
at once, and every scan reads one kernel.  A multiset projects itself once:
`GroupMultiset.histograms` holds its value histograms along every canonical
direction (leading coefficient 1), p cells per direction in the narrowest
unsigned dtype that holds |X|, read-only (`_histograms`, blocks of
`value_histogram` calls).  One gather through a cached index expands them to
the scalar multiples c <= (p-1)/2 -- scaling is not a symmetry here, since
[-K, K] pulls back along c to an arithmetic progression, while -c gives the
same counts as c -- and p - 1 in-place row adds make a cumulative table that
serves every radius (`_cumulative_table`), built a slice of directions at a
time within 8 _BLOCK_CELLS bytes (`_Tables`).  The window at radius K
(`scaling_window_table`) takes differences of its rows and holds the
in-tube count of every (constant term, scaling, direction); `_maxima` and
`_pick` read the best functional off it (`_read`), over the directions a
row mask allows.  `inside_count` reads one cell of a window, and
`min_outside_fraction(zero_constant_term=True)` its row a0 = 0.

Every family comes from one rule, `nonconstant_directions`: the canonical
directions non-constant on the span of a basis, picked by one array mask
over a cached array of all of them; the scans read the mask itself
(`_nonconstant_rows`), and a family handed in as directions is turned
back into one (`_family_rows`).  The basis is a part's affine hull
(decompositions), the kernel of a tube certificate's leading rows (its
rescan), or the kernel of the directions a tube reduction has already
chosen, whose non-constant directions are exactly those outside their span.

Three operations mirror the structural reductions used by the search
pipeline: a single tube reduction, a recursive decomposition into parts that
are thick inside their affine hulls, and a strengthened decomposition whose
part-unions all carry re-checkable tubular certificates.  The inequalities
those reductions guarantee are checked explicitly and raise InvariantError.

A certificate's rescan pulls psi back instead of mapping the set through
it (`TubularCertificate.validate`), so it reports its worst functional in
the set's coordinates.  The strengthened decomposition needs a tube
reduction of each of the 2^m - 1 unions of its parts.  The scan that ends
a reduction is its certificate's rescan, so the builder rescans the unions
only after a sweep that dropped points; `StrongDecomposition.validate`
always rescans every one.  Value histograms are linear in the multiset
and the parts are disjoint, so a union's are the sum of its parts':
`_UnionTables` reads each part's own, the ones its scans read.  The
sweep and the rescans both read the unions a block at a time
(`_UnionTables.blocks`): the unions of a block share their high mask bits,
and their histograms are the low parts' subset sums, built once per pass,
plus the high parts' running sum; a block's tables are `_cumulative_table`
of those sums, the kernel single scans use.  `_tube_reduce`, which reduces
a batch of sets (a single set is a batch of one), reads one window, one
`_maxima` and one `_pick` per level for the whole block; `_rescan` reads
one per radius and l among the block's certificates.  Around the scans,
each union's bookkeeping is in integers (`_thin_at`, the tube_mass and
union_tubular checks cross-multiplied), and its kernels, psi and
functionals are built once per distinct tuple of chosen functionals in a
reduction, as psi's checks are once per distinct psi in a rescan.
Directions keep canonical order, so the scans pick the same functionals as
a scan of the union itself.  A single set is a block of one union over its
own histograms (`_set_scanner`), read by the same window, `_maxima` and
`_pick`; when one slice holds its table, the table is kept across the
levels of a tube reduction, and the certificate's rescan when the tube
keeps the whole set.  Histograms take p cells per
direction each, a sweep's m + 2 at once, and a table and its window at most
8 _BLOCK_CELLS bytes each: a set or union whose table passes that is
scanned one direction slice at a time.  A decomposition artifact whose
certificate count is wrong starts no union block.

Deltas and epsilons are Fractions throughout; no comparison ever goes
through floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .group import InvariantError  # re-exported as zerosum.thickness.InvariantError
from .group import (
    AffineIso,
    GroupParams,
    LinearFunctional,
    Vec,
    _check,
    canonical_linear_parts,
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
        return self.a ** K  # exponential: a^K > K for a >= 2

    def iterate(self, times: int, K: int) -> int:
        v = K
        for _ in range(times):
            v = self(v)
        return v

    def capped(self, K: int, cap: int) -> int:
        """min(g(K), cap) without building an integer much past the cap: as
        g(K) > K, any K >= cap is at the cap, and so is a power whose base is
        at least 2 and whose exponent passes cap.bit_length()."""
        if K >= cap:
            return cap
        if self.kind == "polynomial" and K + self.b >= 2 and self.a > cap.bit_length():
            return cap
        if self.kind == "exponential" and K > cap.bit_length():
            return cap
        return min(self(K), cap)

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
        if not isinstance(text, str):
            raise ValueError(f"growth must be a string such as 'K+1', got {text!r}")
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


def capped_iterate(g, times: int, K: int, cap: int) -> int:
    """min(g^times(K), cap) through g.capped.  Below the cap each step
    raises K by at least one, so the loop stops within cap steps, however
    large a forged `times` is."""
    K = min(K, cap)
    for _ in range(times):
        if K >= cap:
            break
        K = g.capped(K, cap)
    return K


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

    def capped(self, K: int, cap: int) -> int:
        return capped_iterate(self.base, self.times, K, cap)

    def describe(self) -> str:
        return f"({self.base.describe()})^{self.times}"


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


# The scans' unit of memory.  A `value_histogram` call projects a block of
# directions whose (support, block) projection and (block, p) histograms stay
# within _BLOCK_CELLS cells (`_histograms`); unblocked, d = 3 scans of large
# sets would hold an n x L projection of tens of MB.  Cumulative tables and
# their windows, p (p-1)/2 cells per direction in the narrowest unsigned
# dtype that holds the counts, are built one slice of directions at a time,
# within 8 _BLOCK_CELLS bytes (256 KB) each (`_direction_slices`).
_BLOCK_CELLS = 2 ** 15


# float64 sums of integers are exact below 2^53; `value_histogram` weighs by
# multiplicity only while |X| stays below it, and otherwise counts the low
# _WEIGHT_SPLIT bits and the rest of each multiplicity apart: a bin's low
# sum stays below support size * 2^_WEIGHT_SPLIT, its high sum below
# 2^(63 - _WEIGHT_SPLIT)
_EXACT_WEIGHTS = 2 ** 53
_WEIGHT_SPLIT = 26


def value_histogram(X: GroupMultiset, directions) -> np.ndarray:
    """(L, p) matrix: row i is the multiplicity-weighted histogram of
    x -> <directions[i], x> over F_p, from one bincount over all rows
    (two past 2^53 points, so that every count is exact)."""
    p, d = X.params.p, X.params.d
    dirs = np.asarray(directions, dtype=np.int64).reshape(-1, d)
    L = len(dirs)
    pts, mults = X.arrays()
    if len(pts) == 0:
        return np.zeros((L, p), dtype=np.int64)
    vals = ((pts @ dirs.T) % p + p * np.arange(L)).ravel()  # direction-offset values

    def counts(weights):
        hist = np.bincount(vals, weights=np.repeat(weights, L), minlength=L * p)
        return hist.astype(np.int64).reshape(L, p)

    if len(X) < _EXACT_WEIGHTS:
        return counts(mults)
    low = mults & (2 ** _WEIGHT_SPLIT - 1)
    return (counts(mults >> _WEIGHT_SPLIT) << _WEIGHT_SPLIT) + counts(low)


@lru_cache(maxsize=64)
def _scaling_index(p: int) -> np.ndarray:
    """idx[j, c-1] = -j c^{-1} mod p for c <= (p-1)/2: the value of linear
    at which c * linear takes the value -j."""
    inv = np.array([pow(c, -1, p) for c in range(1, (p + 1) // 2)], dtype=np.int64)
    idx = (-np.arange(p)[:, None] * inv[None, :]) % p
    idx.setflags(write=False)
    return idx


def _cumulative_table(hists: np.ndarray, p: int) -> np.ndarray:
    """C[j, c-1, i] = #{x : c * linear_i(x) in {0, -1, ..., -j}} for
    c <= (p-1)/2, in hists' dtype, from the (L, p) value histograms of a
    block of directions: the histogram of c * linear is the c-permutation
    of linear's, so one gather through `_scaling_index` and p - 1 in-place
    row adds build it (`np.cumsum` along the first axis ran 4-9 times
    slower on tables past about 30K cells).  It serves every radius
    (`scaling_window_table`).

    Scalings matter: [-K, K] pulls back along c to an arithmetic
    progression, not an interval, so thickness along a direction says
    nothing about its multiples.  The other half needs no table: [-K, K] is
    symmetric, so p-c gives the same counts as c, one row later.
    """
    C = hists.T[_scaling_index(p)]
    for j in range(1, p):
        np.add(C[j], C[j - 1], out=C[j])
    return C


def scaling_window_table(
    C: np.ndarray, K: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """In-tube counts at radius K from a cumulative table C
    (`_cumulative_table`, or a sum of such tables over disjoint multisets):
    out[a0, c-1, i] = #{x : c * linear_i(x) + a0 in [-K, K]}, into a new
    array of C's shape and dtype unless `out` is given.

    a0 + c * linear(x) lies in [-K, K] exactly when -c * linear(x) lies in
    the cyclic interval [a0-K, a0+K], so the count is C[a0+K] - C[a0-K-1],
    reading C[j + p] as C[j] + n (n = C[p-1], every row's total).  In an
    unsigned dtype the differences may wrap around, but every count they end
    at lies in [0, n].  With a0 first, each step is one contiguous block; a
    radius with 2K + 1 >= p, however large, covers F_p.
    """
    p = len(C)
    n = C[p - 1]
    if out is None:
        out = np.empty_like(C)
    if 2 * K + 1 >= p:
        out[...] = n
        return out
    out[: p - K] = C[K:]
    out[p - K :] = C[:K]
    out[p - K :] += n
    out[K + 1 :] -= C[: p - K - 1]
    out[: K + 1] -= C[p - K - 1 :]
    out[: K + 1] += n
    return out


def _histograms(X: GroupMultiset, dirs: np.ndarray) -> np.ndarray:
    """The value histograms of X along dirs, laid out [value, direction],
    in the narrowest unsigned dtype that holds |X|, read-only: one
    `value_histogram` per block of directions, blocks sized by
    _BLOCK_CELLS.  `GroupMultiset.histograms` keeps those along all
    canonical directions."""
    p = X.params.p
    hists = np.empty((p, len(dirs)), dtype=np.min_scalar_type(len(X)))
    block = max(1, _BLOCK_CELLS // max(p, X.support_size()))
    for start in range(0, len(dirs), block):
        hists[:, start : start + block] = value_histogram(X, dirs[start : start + block]).T
    hists.setflags(write=False)
    return hists


def _direction_slices(p: int, L: int, dtype) -> List[slice]:
    """The slices of L directions that tables are built in: as wide as keep
    one set's table, p (p-1)/2 cells per direction in dtype, within
    8 _BLOCK_CELLS bytes."""
    width = max(1, 8 * _BLOCK_CELLS // (p * ((p - 1) // 2) * np.dtype(dtype).itemsize))
    return [slice(s, s + width) for s in range(0, L, width)]


class _Tables:
    """The in-tube windows, at any radius, of value histograms laid out
    [value, ..., direction]: their `_cumulative_table`, laid out
    [j, c-1, ..., direction], is built one direction slice at a time
    (`_direction_slices`) and each slice's window read off it.  A table
    that one slice holds is built at the first scan, and kept, with a
    buffer its windows are derived into, until `drop`."""

    def __init__(self, p: int, slices: List[slice]):
        self.p, self.slices = p, slices
        self.table: Optional[np.ndarray] = None
        self.out: Optional[np.ndarray] = None

    def _build(self, hists: np.ndarray):
        p = self.p
        for directions in self.slices:
            sliced = hists[..., directions]
            C = _cumulative_table(sliced.reshape(p, -1).T, p)
            yield C.reshape((p, (p - 1) // 2) + sliced.shape[1:])

    def windows(self, K: int, hists: Callable[[], np.ndarray]):
        """The windows at radius K, one per slice, in order; hists() gives
        the histograms, and is called only when a table is built."""
        if len(self.slices) > 1:
            return (scaling_window_table(C, K) for C in self._build(hists()))
        if self.table is None:
            self.table = next(self._build(hists()))
            if self.out is None:
                self.out = np.empty_like(self.table)
        return [scaling_window_table(self.table, K, self.out)]

    def drop(self) -> None:
        self.table = None


def _maxima(window: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(each direction's largest count, the least c-1 attaining it, the
    least a0 at which that scaling does) of an in-tube window
    [a0, c-1, i]: the first maximiser in (c, a0) order."""
    best = window.max(axis=0)
    c = best.argmax(axis=0)
    at = np.arange(len(c))
    return best[c, at], c, window[:, c, at].argmax(axis=0)


def _read(windows, p: int, dirs: np.ndarray, columns, allowed=None) -> List[Optional[Tuple[int, Vec, int]]]:
    """The scan of each set whose in-tube window over the directions `dirs`
    is column block j of `windows`, for j in `columns`, over the directions
    `allowed` marks, one row of marks per column (all when None).  Each
    window covers one slice of dirs, in order, laid out [a0, c-1, j, i],
    and may hold only the first rows a0; their `_maxima` are joined along
    the directions, and one `_pick` serves them all."""
    maxima = [[a.reshape(w.shape[2:]) for a in _maxima(w.reshape(len(w), (p - 1) // 2, -1))] for w in windows]
    joined = maxima[0] if len(maxima) == 1 else [np.concatenate(a, axis=1) for a in zip(*maxima)]
    count, c, a0 = (a[columns] for a in joined)
    return _pick(count, c, a0, dirs, p, allowed)


def _scanner(X: GroupMultiset, dirs: np.ndarray, hists: Callable[[], np.ndarray], slices: List[slice]):
    """scan(K, allowed, rows): the `_scan` of X at radius K over the
    directions of dirs that `allowed` marks (all when None), reading the
    rows a0 < rows of each window (all when None); hists() gives X's value
    histograms along dirs (`_histograms`).  Tables are built in `slices`;
    a table that one slice holds is built at the first scan and kept for
    the later ones."""
    p = X.params.p
    tables = _Tables(p, slices)

    def scan(K: int, allowed, rows) -> Optional[Tuple[int, Vec, int]]:
        if allowed is not None and not allowed.any():
            return None
        windows = (w[:rows] for w in tables.windows(K, lambda: hists()[:, None]))
        return _read(windows, p, dirs, [0], None if allowed is None else allowed[None])[0]

    return scan


# The last `_set_scanner`, with the set and the direction slices it scans
# in: a tube reduction scans one set at each level, and `tube_decompose`
# rescans it for the certificate through `TubularCertificate.validate`, so
# their scans share one kept table.
_last_scanner: list = [None, None, None]


def _set_scanner(X: GroupMultiset):
    """The `_scanner` of X over all canonical directions, read off X's
    histograms (`GroupMultiset.histograms`); the last one built is reused
    while the set and its slices stay the same."""
    p, d = X.params.p, X.params.d
    dirs = _canonical_directions(p, d)
    slices = _direction_slices(p, len(dirs), np.min_scalar_type(len(X)))
    if _last_scanner[0] is not X or _last_scanner[1] != slices:
        _last_scanner[:] = [X, slices, _scanner(X, dirs, X.histograms, slices)]
    return _last_scanner[2]


def _scan(
    X: GroupMultiset, K: int, directions, zero_constant_term: bool = False
) -> Optional[Tuple[int, Vec, int]]:
    """(largest in-tube count over all scalings c*lam + a0 of all directions,
    lex-min c*lam, its a0), or None for an empty family; a0 = 0 throughout
    with zero_constant_term, which reads row a0 = 0 of each window.

    A family of canonical directions (rows reduced mod p) is a mask over
    X's histograms (`_set_scanner`).  Any other direction's scalings are
    not those of a canonical one, so such a family is projected afresh and
    scanned as given."""
    p, d = X.params.p, X.params.d
    dirs = np.asarray(directions, dtype=np.int64).reshape(-1, d)
    if len(dirs) == 0:
        return None
    rows = 1 if zero_constant_term else None
    allowed = _family_rows(p, d, dirs)
    if allowed is not None:
        return _set_scanner(X)(K, allowed, rows)
    hists = _histograms(X, dirs)
    return _scanner(X, dirs, lambda: hists, _direction_slices(p, len(dirs), hists.dtype))(K, None, rows)


@lru_cache(maxsize=64)
def _lex_weights(p: int, d: int) -> np.ndarray:
    """(p^(d-1), ..., p, 1): a vector of F_p^d dotted with it is its place
    in lex order."""
    weights = p ** np.arange(d - 1, -1, -1, dtype=np.int64)
    weights.setflags(write=False)
    return weights


def _pick(count, c, a0, dirs: np.ndarray, p: int, allowed=None) -> List[Optional[Tuple[int, Vec, int]]]:
    """For each row of `_maxima` results laid out (unions, directions), over
    the canonical directions `dirs` in canonical order: (top count, lex-min
    c*lam attaining it, its a0), taken over the directions that `allowed`
    marks (all when None), or None for a row where it marks none.

    Directions are canonical (leading coefficient 1), so c*lam compares by c
    alone: a direction's first maximiser in (c, a0) order is its lex-min
    maximiser (scalings past (p-1)/2 repeat earlier ones' counts, so never
    come first).  Among the directions tied for a row's top count the least
    rank wins, rank being c*lam's place in lex order (`_lex_weights`).
    Distinct directions have distinct c*lam, so a0 never breaks a tie.
    """
    if allowed is not None:
        count = count.astype(np.int64)
        count[~allowed] = -1
    top = count.max(axis=1)
    tied = count == top[:, None]
    if np.count_nonzero(tied) == len(top):  # no tie to break
        best = tied.argmax(axis=1)
    else:
        ranks = ((c[..., None] + 1) * dirs % p) @ _lex_weights(p, dirs.shape[1])
        ranks[~tied] = np.iinfo(np.int64).max
        best = ranks.argmin(axis=1)
    at = np.arange(len(best))
    return [
        None if t < 0 else (t, tuple((k + 1) * x % p for x in lam), a)
        for t, k, lam, a in zip(top.tolist(), c[at, best].tolist(), dirs[best].tolist(), a0[at, best].tolist())
    ]


def _thin_at(count: int, n: int, delta: Tuple[int, int], i: int) -> bool:
    """Whether a functional with an in-tube count of n points is
    (K, 2^i delta)-thin, n - count < 2^i delta n, on integers: with
    delta = a/b given as (a, b), b > 0, it is (n - count) b < (a << i) n."""
    a, b = delta
    return (n - count) * b < (a << i) * n


def _outside(found, n: int) -> Tuple[Fraction, Optional[LinearFunctional]]:
    """(outside fraction, functional) of a `_scan` result on n points, and
    (1, None) for an empty family: vacuous thickness."""
    if found is None:
        return Fraction(1), None
    return Fraction(n - found[0], n), LinearFunctional(found[2], found[1])


def _plain_scan(X: GroupMultiset):
    """scan(K, basis): `_scan` of X at radius K over the directions
    non-constant on span(basis) (`_set_scanner`)."""
    p, d = X.params.p, X.params.d
    scan = _set_scanner(X)
    return lambda K, basis: scan(K, _nonconstant_rows(p, d, basis), None)


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
    C = _cumulative_table(value_histogram(X, [xi.linear]), p)
    return int(scaling_window_table(C, K)[xi.a0 % p, 0, 0])  # scaling c = 1


def is_thick(X: GroupMultiset, xi: LinearFunctional, params: ThicknessParams):
    """(thick?, outside count): at least delta|X| mass outside H(xi, K)."""
    if xi.is_constant():
        raise ValueError("thickness along a constant functional is undefined")
    if len(X) == 0:
        raise ValueError("thickness of an empty multiset is undefined")
    outside = len(X) - inside_count(X, xi, params.K)
    return Fraction(outside) >= params.delta * len(X), outside


@lru_cache(maxsize=64)
def _canonical_directions(p: int, d: int) -> np.ndarray:
    """canonical_linear_parts(p, d) as one read-only (L, d) int64 array."""
    dirs = np.array(canonical_linear_parts(p, d), dtype=np.int64).reshape(-1, d)
    dirs.setflags(write=False)
    return dirs


def nonconstant_directions(p: int, d: int, basis) -> np.ndarray:
    """The canonical directions non-constant on the span of `basis` (rows
    reduced mod p), in canonical order: lam is kept when lam . b != 0 for
    some row b.

    One rule serves every family the structural steps scan.  A hull basis
    gives the directions non-constant on an affine hull; the fiber axes
    e_l..e_{d-1} give those non-constant on {0}^l x F_p^{d-l}; a kernel
    basis of E gives those outside span(E), since span(E) is the
    annihilator of ker(E).  An empty basis gives an empty family.
    """
    return _canonical_directions(p, d)[_nonconstant_rows(p, d, basis)]


def _nonconstant_rows(p: int, d: int, basis) -> np.ndarray:
    """The mask `nonconstant_directions` picks its rows by; a stack of bases
    of one size, shaped (bases, rows, d), gives one mask per basis."""
    B = np.asarray(basis, dtype=np.int64)
    if B.ndim < 3:
        B = B.reshape(-1, d)
    return ((B @ _canonical_directions(p, d).T) % p).any(axis=-2)


def _family_rows(p: int, d: int, dirs: np.ndarray) -> Optional[np.ndarray]:
    """The mask over the canonical directions of those among the rows of
    dirs, reduced mod p, or None when some row is not canonical.  Canonical
    order is lex order, so the canonical directions' places in it
    (`_lex_weights`) are sorted."""
    weights = _lex_weights(p, d)
    canon = _canonical_directions(p, d) @ weights
    ranks = (dirs % p) @ weights
    at = np.minimum(np.searchsorted(canon, ranks), len(canon) - 1)
    if not (canon[at] == ranks).all():
        return None
    rows = np.zeros(len(canon), dtype=bool)
    rows[at] = True
    return rows


def find_thin_functional(
    X: GroupMultiset, K: int, delta: Fraction, linear_parts: Sequence[Vec]
) -> Optional[LinearFunctional]:
    """A functional along which X fails to be (K, delta)-thick, over a family
    of canonical directions (as from `nonconstant_directions`) and all their
    scalar multiples.

    The directions are read off X's histograms (`_scan`) and expanded to all
    scalar multiples through histogram permutations; the constant term is
    chosen to maximise |X ∩ H(xi, K)|.  Among thin functionals the largest
    in-tube count wins, ties broken by the lexicographic encoding.  Returns
    None when X is thick along every functional of the family, or the
    family is empty.
    Thinness only grows with the in-tube count, so the best functional is
    thin or none is.
    """
    return _thin(_scan(X, K, linear_parts), len(X), delta)


def _thin(found, n: int, delta) -> Optional[LinearFunctional]:
    """The functional of a `_scan` result on n points when it is
    (K, delta)-thin, else None, as is an empty family's."""
    delta = Fraction(delta)
    if found is None or not _thin_at(found[0], n, (delta.numerator, delta.denominator), 0):
        return None
    return LinearFunctional(found[2], found[1])


def min_outside_fraction(
    X: GroupMultiset,
    K: int,
    linear_parts: Sequence[Vec],
    zero_constant_term: bool = False,
) -> Tuple[Fraction, Optional[LinearFunctional]]:
    """Worst-case thickness over a family of canonical directions (as from
    `nonconstant_directions`) and all their scalar multiples.

    For each functional the binding constant term maximises the in-tube count
    (fixed to a0 = 0 when zero_constant_term is set).  Returns the minimum
    outside fraction and a functional attaining it; an empty family yields
    (1, None), i.e. vacuous thickness.
    """
    n = len(X)
    if n == 0:
        raise ValueError("empty multiset")
    return _outside(_scan(X, K, linear_parts, zero_constant_term), n)


def hull_thickness(X: GroupMultiset, K: int) -> Tuple[Fraction, Optional[LinearFunctional]]:
    """Worst outside-fraction at radius K over directions non-constant on the
    affine hull of X; a single point's hull has none, so it gives (1, None)."""
    _dim, _base, basis = X.hull()
    return _outside(_plain_scan(X)(K, basis), len(X))


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
        (False, 0, None) (`_frame`, `_in_box`); a psi of the wrong shape
        raises ValueError.

        The rescan pulls psi back rather than mapping X: the functionals
        non-constant on the fiber factor pull back through psi = (M, s) to
        exactly the directions of X outside the span of M's first l rows,
        and s only moves the constant term, which the scan maximises over.
        So X is scanned over the directions non-constant on the kernel of
        those rows, and `worst` is in X's coordinates.
        """
        frame = self._frame()
        if frame is None or not self._in_box(frame, X.arrays()[0]):
            return False, Fraction(0), None
        if self.l == self.params.d:
            return True, Fraction(1), None
        return self._verdict(_plain_scan(X)(min(self.K_prime, self.params.p), frame[2]), len(X))

    def _frame(self):
        """psi's checks that read no point: (psi's first l rows, their
        shift, the kernel of those rows, over which the rescan runs), or
        None when psi is singular.  A psi of the wrong shape raises
        ValueError.  It depends on params, psi and l alone, so a rescan of
        many certificates runs it once per distinct (params, psi, l)."""
        p, d, l = self.params.p, self.params.d, self.l
        psi = self.psi.reduced(p, d)
        if linalg.invert_matrix(psi.matrix, p) is None:
            return None
        lead = np.array(psi.matrix[:l], dtype=np.int64).reshape(l, d)
        shift = np.array(psi.shift[:l], dtype=np.int64)
        return lead, shift, linalg.kernel_basis(psi.matrix[:l], p) if l else linalg.identity(d)

    def _in_box(self, frame, points: np.ndarray) -> bool:
        """Whether psi, through its `_frame`, maps every row of `points`
        into the box [-K, K]^l."""
        lead, shift, _kernel = frame
        p = self.params.p
        return bool(_in_slab((points @ lead.T + shift) % p, self.K, p).all())

    def _verdict(self, found, n: int):
        """(ok, outside fraction, worst functional) of the rescan `found`
        on n points; ValueError when there are none."""
        if n == 0:
            raise ValueError("empty multiset")
        frac, worst = _outside(found, n)
        return frac >= self.delta, frac, worst


def tube_decompose(
    X: GroupMultiset, K0: int, delta: Fraction, g: GrowthFunction
) -> Tuple[GroupMultiset, TubularCertificate]:
    """Single tube reduction, its certificate rescanned on the kept set.

    Greedily accumulates independent directions xi_i along which X is
    (g^i(K0), 2^i delta)-thin, then keeps Y = X ∩ ⋂ H(xi_i, K) with
    K = g^l(K0).  The leftover set is at most a 2^{d+1} delta fraction, and Y
    is (g(K), delta)-tubular via the coordinate change sending xi_1..xi_l to
    the first l coordinates.
    """
    Y, cert, _last = _tube_reduce(_alone(X), [delta], K0, g)[0]
    Y = X if Y is None else Y
    # validate's ok is frac >= delta: it reports 0 when a point leaves the
    # box, and delta > 0
    _ok, frac, worst = cert.validate(Y)
    _check("tube_rescan", frac, ">=", cert.delta, f"worst {worst}")
    return Y, cert


@dataclass
class _Batch:
    """Multisets X_0, X_1, ... that one `_tube_reduce` call reduces
    together, or one `_rescan` rescans: their sizes; scan(K, active,
    kernels), the `_scan` of each X_j with j in `active` at radius K over
    the canonical directions non-constant on its kernel (kernels aligned
    with active, all of one size); and union(j), which builds X_j."""

    params: GroupParams
    sizes: List[int]
    scan: Callable[[int, List[int], list], List[Optional[Tuple[int, Vec, int]]]]
    union: Callable[[int], GroupMultiset]


def _alone(X: GroupMultiset) -> _Batch:
    """A batch of X alone, scanned as `_plain_scan(X)` scans it."""
    scan = _plain_scan(X)
    return _Batch(X.params, [len(X)], lambda K, active, kernels: [scan(K, kernels[0])], lambda j: X)


def _tube_reduce(
    batch: _Batch,
    deltas: Sequence[Fraction],
    K0: int,
    g: GrowthFunction,
    recorded: Optional[Sequence[Fraction]] = None,
) -> List[Tuple[Optional[GroupMultiset], TubularCertificate, Optional[Tuple[int, Vec, int]]]]:
    """`tube_decompose` of every multiset X_j of a batch at deltas[j]
    without the rescan, level i of all those still choosing read off one
    batch.scan at g^i(K0): for each X_j (Y, or None when the tube keeps all
    of X_j; certificate; the scan that ended the reduction, or None when all
    d levels chose).  Each certificate records deltas[j], or recorded[j]
    when given.

    A level whose functional holds every point of X_j in its slab needs no
    delta test, and the slab at K = g^l(K0) >= g^i(K0) holds them too; so
    only an X_j with points outside some chosen slab is built (batch.union)
    and has its tube selected.

    The bookkeeping of each X_j is in integers: with delta = a/b, the level
    test is `_thin_at` and the tube_mass check compares (n - |Y|) b with
    (a << (d+1)) n.  The functionals, kernel bases and psi are built once
    per distinct tuple of chosen functionals in a call, so the unions of a
    block that choose alike share them.

    That last scan is the certificate's rescan on X_j: it read radius
    g^(l+1)(K0) = K', over the directions outside the span of the chosen
    functionals, which are psi's first l rows.  So while Y is X_j,
    `_outside(last, len(X_j))` is the fraction `validate` would find, and
    for l = d both are 1."""
    params = batch.params
    d, p = params.d, params.p
    deltas = [Fraction(delta) for delta in deltas]
    ratios = [(delta.numerator, delta.denominator) for delta in deltas]
    if not all(0 < a and a << (d + 1) < b for a, b in ratios):
        raise ValueError("tube reduction requires 0 < delta < 2^-(d+1)")
    if not all(batch.sizes):
        raise ValueError("empty multiset")

    # (linear, a0) of each functional chosen so far; the directions outside
    # their span are those non-constant on the kernel of the linear parts
    picks: List[Tuple[Tuple[Vec, int], ...]] = [()] * len(deltas)
    kernels = [linalg.identity(d)] * len(deltas)
    kernel_of: Dict[tuple, tuple] = {}
    last: List[Optional[Tuple[int, Vec, int]]] = [None] * len(deltas)
    outside = [False] * len(deltas)
    radii = [K0]
    active = list(range(len(deltas)))
    for i in range(1, d + 1):
        if not active:
            break
        radii.append(g(radii[-1]))
        found = batch.scan(radii[i], active, [kernels[j] for j in active])
        going = []
        for j, top in zip(active, found):
            n = batch.sizes[j]
            if top is None or top[0] < n and not _thin_at(top[0], n, ratios[j], i):
                last[j] = top
                continue
            outside[j] = outside[j] or top[0] < n
            chosen = picks[j] = picks[j] + (top[1:],)
            if i < d:
                kernel = kernel_of.get(chosen)
                if kernel is None:
                    kernel = kernel_of[chosen] = linalg.kernel_basis(tuple(lin for lin, _ in chosen), p)
                kernels[j] = kernel
            going.append(j)
        active = going

    frames: Dict[tuple, Tuple[Tuple[LinearFunctional, ...], AffineIso]] = {}
    reduced = []
    for j, (n, (a, b)) in enumerate(zip(batch.sizes, ratios)):
        chosen = picks[j]
        l = len(chosen)
        K = radii[l]
        if l + 1 == len(radii):
            radii.append(g(K))
        frame = frames.get(chosen)
        if frame is None:
            functionals = tuple(LinearFunctional(a0, lin) for lin, a0 in chosen)
            if l > 0:
                matrix = linalg.complete_basis(tuple(lin for lin, _ in chosen), p)
                shift = tuple(a0 % p for _, a0 in chosen) + (0,) * (d - l)
            else:
                matrix = linalg.identity(d)
                shift = (0,) * d
            frame = frames[chosen] = functionals, AffineIso(matrix, shift)
        functionals, psi = frame
        Y, kept = None, n
        if outside[j]:
            X = batch.union(j)
            Y = X.select(_in_slab(_values(X, functionals), K, p).all(axis=1))
            kept = len(Y)
        _check(
            "tube_mass", kept * b, ">=", (b - (a << (d + 1))) * n,
            shown=lambda: (Fraction(kept), n - 2 ** (d + 1) * n * deltas[j]),
        )
        delta = deltas[j] if recorded is None else recorded[j]
        reduced.append((Y, TubularCertificate(params, l, psi, K, radii[l + 1], delta, functionals), last[j]))
    return reduced


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

    def validate(self, X: GroupMultiset) -> List[Tuple[str, bool]]:
        """The partition checks, K tied to K0 and l (through min(., p)),
        then the parts rescanned at g(K): delta is re-derived from them and
        must be positive, as every run's is."""
        p = self.params.p
        Kp = self.growth.capped(self.K, p)
        scans, delta = _part_scan(self.parts, Kp)
        sizes = all(Fraction(len(pt)) >= self.mu * self.input_size for pt in self.parts)
        return _partition_checks(self, X) + [
            ("K", min(self.K, p) == capped_iterate(self.growth, self.l, self.K0, p)),
            ("part_sizes", sizes),
            ("hull_thickness", all(frac >= self.delta for frac, _ in scans)),
            ("delta", self.delta == delta),
            ("delta_positive", self.delta > 0),
            ("mu", self.mu == _least_share(self.parts, self.input_size)),
        ]


def _partition_checks(dec, X: GroupMultiset) -> List[Tuple[str, bool]]:
    """The checks both decompositions open with: x0 and the parts rebuild X,
    and x0 is within its epsilon share."""
    rebuilt = dec.x0
    for part in dec.parts:
        rebuilt = rebuilt.union(part)
    return [
        ("partition", rebuilt == X),
        ("x0_bound", Fraction(len(dec.x0)) <= dec.epsilon * dec.input_size),
    ]


def _part_scan(parts: Sequence[GroupMultiset], Kp: int):
    """(each part's `hull_thickness` at radius Kp, and delta: their least
    fraction, 1 when every part is a single point and so vacuously thick).

    The validators pass g(K) capped at p: the scans read a radius only
    through min(radius, p), so a forged K or growth in an artifact cannot
    make a check build an arbitrarily large integer.
    """
    scans = [hull_thickness(part, Kp) for part in parts]
    return scans, min((frac for frac, _ in scans), default=Fraction(1))


def _least_share(parts: Sequence[GroupMultiset], n: int, fractions=()) -> Optional[Fraction]:
    """mu as the decompositions record it: the least share of the n input
    points held by one part, or one of `fractions` if smaller; None for an
    empty input or no parts, which no decomposition produces."""
    if n == 0 or not parts:
        return None
    return min([Fraction(len(part), n) for part in parts] + list(fractions))


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
        dim, _base, basis = P.hull()
        if dim == 0:
            parts.append(P)
            return
        K_search = g.iterate(exponent + 1, K0)
        thin = _thin(_plain_scan(P)(K_search, basis), len(P), eps_lvl / 2)
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
        scans, delta = _part_scan(parts, g(K))
        failing = [i for i, (frac, _) in enumerate(scans) if frac == 0]
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


class _UnionTables:
    """In-tube tables of the unions of disjoint parts, over all canonical
    directions, from one set of value histograms per part.

    Each part's value histograms over all canonical directions are its
    own (`GroupMultiset.histograms`), read-only, laid out [value,
    direction].  Histograms are linear in the multiset and the parts are
    disjoint, so a union's are the sum of its parts', summed in the dtype
    of every union's counts (`_dtype`), and its cumulative table, which
    serves every radius, is `_cumulative_table` of that sum (`blocks`).  A
    part that shrinks is a new multiset, with histograms of its own.
    """

    def __init__(self, parts: Sequence[GroupMultiset]):
        self.parts = list(parts)

    def _dtype(self):
        """The dtype of every sum of part histograms and of its table: it
        holds all the parts' counts."""
        return np.min_scalar_type(sum(len(part) for part in self.parts))

    def _union_bytes(self) -> int:
        """The bytes of one union's table, p (p-1)/2 cells per direction."""
        p, d = self.parts[0].params.p, self.parts[0].params.d
        return p * ((p - 1) // 2) * len(_canonical_directions(p, d)) * self._dtype().itemsize

    def _move(self, running: np.ndarray, held: int, mask: int) -> None:
        """Turns running, the sum of the histograms of the parts in `held`,
        into that of the parts in `mask`: one add or subtract per differing
        part."""
        for i in _subset(held ^ mask):
            move = np.add if (mask >> i) & 1 else np.subtract
            move(running, self.parts[i].histograms(), out=running)

    def _low_bits(self) -> int:
        """b, the low mask bits one block covers: as many, up to m, as keep
        its 2^b union tables within 8 _BLOCK_CELLS bytes (256 KB), or 0 when
        one union's table alone passes that.

        A block holds two such arrays (its tables and their window), and its
        histograms and the low sums, (p-1)/2 times smaller.  Nine single
        points of F_31^2 get b = 4; six lines of F_61^2 get b = 0, one union
        per block.  Larger blocks timed no faster on the structural_grid
        round."""
        union = self._union_bytes()
        bits = 0
        while bits < len(self.parts) and union << (bits + 1) <= 8 * _BLOCK_CELLS:
            bits += 1
        return bits

    def _slices(self) -> List[slice]:
        """The slices of the canonical directions a block's tables are built
        in (`_direction_slices`), so a block of more than one union
        (`_low_bits`) has one."""
        p, d = self.parts[0].params.p, self.parts[0].params.d
        return _direction_slices(p, len(_canonical_directions(p, d)), self._dtype())

    def blocks(self, start: int):
        """(masks, batch) for the masks from `start` on, in increasing order
        and in blocks: batch is the `_Batch` of their unions X_S.  The parts
        must not change while the blocks are drawn; a caller that shrinks one
        calls `blocks` again.

        A block's masks share their high bits, from bit b = `_low_bits()`
        on.  The sums of the low parts' histograms over all 2^b subsets are
        built once per call, by doubling; the high parts' sum is one running
        sum, moved from block to block by adding and subtracting the parts
        that differ (`_move`).  A block's histograms are the low sums plus
        the high sum, and its tables, laid out [a0, c-1, low bits,
        direction], are their `_cumulative_table`, built at the block's
        first scan and kept for its later ones (`_Tables`), so a block that
        is never scanned costs none.  One window and one `_read` serve a
        scan of every union in the block at one radius; columns below
        `start`, and the empty union, are read by none.  A union whose table
        passes 8 _BLOCK_CELLS bytes is a block of its own, and each of its
        scans builds its tables one direction slice at a time (`_slices`)
        and keeps none.
        """
        if not self.parts:
            return
        params = self.parts[0].params
        p, d, m = params.p, params.d, len(self.parts)
        dtype, bits, dirs = self._dtype(), self._low_bits(), _canonical_directions(p, d)
        running = np.zeros((p, len(dirs)), dtype=dtype)
        lows = None
        if bits:
            lows = np.zeros((p, 2 ** bits, len(dirs)), dtype=dtype)
            for k in range(bits):
                np.add(lows[:, : 2 ** k], self.parts[k].histograms()[:, None], out=lows[:, 2 ** k : 2 ** (k + 1)])
        sizes = [len(part) for part in self.parts]
        tables, held = _Tables(p, self._slices()), 0

        def hists():
            """The held block's histograms, [value, low bits, direction]."""
            return running[:, None] if lows is None else lows + running[:, None]

        for high in range(start >> bits << bits, 2 ** m, 2 ** bits):
            first = max(start, high, 1) - high
            masks = list(range(high + first, high + 2 ** bits))

            def scan(K: int, active, kernels, high=high, first=first):
                nonlocal held
                if held != high:
                    self._move(running, held, high)
                    held = high
                    tables.drop()
                bases = np.asarray(kernels, dtype=np.int64).reshape(len(kernels), -1, d)
                allowed = _nonconstant_rows(p, d, bases)
                return _read(tables.windows(K, hists), p, dirs, [first + j for j in active], allowed)

            def union(j: int, masks=masks) -> GroupMultiset:
                return _fold(params, self.parts, _subset(masks[j]))

            yield masks, _Batch(
                params,
                [sum(sizes[i] for i in _subset(mask)) for mask in masks],
                scan,
                union,
            )


@lru_cache(maxsize=4096)
def _subset(mask: int) -> Tuple[int, ...]:
    """The part indices whose bits are set in mask."""
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _fold(params: GroupParams, parts: Sequence[GroupMultiset], subset: Sequence[int]) -> GroupMultiset:
    """The union of the parts indexed by subset."""
    out = GroupMultiset.empty(params)
    for i in subset:
        out = out.union(parts[i])
    return out


def _schedule_shift(m: int, d: int, mask: int) -> int:
    """e with delta_j = eps mu0 delta0 / 2^e, the sweep's delta for the
    union of mask j: e = d + 2 + m + (d + m + 4) j."""
    return d + 2 + m + (d + m + 4) * mask


def _delta_schedule(eps: Fraction, mu0: Fraction, delta0: Fraction, m: int, d: int):
    """mask -> the sweep's delta_j = eps mu0 delta0 2^{-d-2-m} 2^{-(d+m+4) j}
    for the union of mask j, the product eps mu0 delta0 taken once."""
    base = eps * mu0 * delta0
    return lambda mask: Fraction(base.numerator, base.denominator << _schedule_shift(m, d, mask))


def _rescan(tables: _UnionTables, Kp: int, certs):
    """Bullets 2 and 3 of a strong decomposition, re-derived from its parts:
    `_part_scan` at Kp, then for every mask in increasing order
    (mask, certs[S], certs[S].cert rescanned on X_S, as
    `TubularCertificate.validate` gives it) -- or None in place of that
    list when the certificates are not one per union.  `validate` runs it
    on every artifact; the builder only after a sweep that dropped points
    (`_settle`).

    A count other than 2^m - 1 returns before any block, so a forged part
    count cannot start 2^m unions: the count bounds m by the artifact's
    size.  The unions are read a block at
    a time (`_UnionTables.blocks`).  psi's matrix checks (`_frame`) run once
    per distinct psi, and its box test (`_in_box`) once per part: a union's
    points are its parts', so no union is built.  The unions of a block
    that pass them are rescanned together, one `batch.scan` per (radius,
    l), and each scan pulls psi back, so `worst` comes in X's coordinates.
    A block's tables serve every radius, so a certificate's K' costs one
    window derivation per direction slice whatever its value, and it is
    read through min(K', p).
    """
    parts = tables.parts
    scans, delta = _part_scan(parts, Kp)
    if len(certs) != 2 ** len(parts) - 1:
        return scans, delta, None
    points = [part.arrays()[0] for part in parts]
    frames: Dict[tuple, Optional[tuple]] = {}
    boxed: Dict[tuple, List[bool]] = {}

    def kernel(cert: TubularCertificate, subset: Tuple[int, ...]):
        """`_frame`'s kernel when psi passes its checks on the parts of
        subset, else None: the frame once per (params, psi, l), and the box
        test of every part once per (params, psi, l, K)."""
        key = (cert.params, cert.psi, cert.l)
        if key not in frames:
            frames[key] = cert._frame()
        frame = frames[key]
        if frame is None:
            return None
        inside = boxed.get(key + (cert.K,))
        if inside is None:
            inside = boxed[key + (cert.K,)] = [cert._in_box(frame, pts) for pts in points]
        return frame[2] if all(inside[i] for i in subset) else None

    rescans = []
    for masks, batch in tables.blocks(1):
        scs, verdicts, groups = [], [None] * len(masks), {}
        for j, mask in enumerate(masks):
            subset = _subset(mask)
            sc = certs.get(subset)
            if sc is None:
                return scans, delta, None
            scs.append(sc)
            cert = sc.cert
            basis = kernel(cert, subset)
            if basis is None:
                verdicts[j] = False, Fraction(0), None
            elif cert.l == batch.params.d:
                verdicts[j] = True, Fraction(1), None
            else:
                groups.setdefault((min(cert.K_prime, batch.params.p), cert.l), []).append((j, basis))
        for (K, _l), members in groups.items():
            active = [j for j, _ in members]
            for j, top in zip(active, batch.scan(K, active, [basis for _, basis in members])):
                verdicts[j] = scs[j].cert._verdict(top, batch.sizes[j])
        rescans.extend(zip(masks, scs, verdicts))
    return scans, delta, rescans


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
    K: int                            # g^l(K0)
    K0: int
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
        return _fold(self.params, self.parts, subset)

    def validate(self, X: GroupMultiset) -> List[Tuple[str, bool]]:
        """The partition checks, K tied to K0 and l (through min(., p)),
        bullets 2 and 3 rescanned, then the recorded numbers re-derived:
        delta, mu and each union's achieved fraction from the rescans, and
        each delta_schedule from eps, mu0 delta0, m, d and its mask, on
        cross-multiplied integers, as its certificate's delta is with half
        of it.
        removed_in_sweeps is only bounded, by |x0| and eps|X|/2, and mu0
        and delta0 enter only through their product and delta0/2.
        A union certificate passes only with its radii tied to K, as the
        sweep's tube reduction sets them: K_cert = g^l(K) and K' = g(K_cert),
        both compared through min(., p), so a forged radius builds no huge
        integer."""
        p, d, m, n, g = self.params.p, self.params.d, self.m, self.input_size, self.growth
        Kp = capped_iterate(g, d + 1, self.K, p)

        def radii(cert: TubularCertificate) -> bool:
            K = capped_iterate(g, cert.l, self.K, p)
            return min(cert.K, p) == K and min(cert.K_prime, p) == g.capped(cert.K, p)

        scans, delta, rescans = _rescan(_UnionTables(self.parts), Kp, self.subset_certs)
        whole = rescans is not None
        rescans = rescans or []
        base = self.epsilon * self.mu0 * self.delta0

        def scheduled(mask: int, sc: SubsetCertificate) -> bool:
            a, b, half = sc.delta_schedule.numerator, sc.delta_schedule.denominator, sc.cert.delta
            on_schedule = (a * base.denominator) << _schedule_shift(m, d, mask) == base.numerator * b
            return on_schedule and half.numerator * b << 1 == a * half.denominator

        schedule = self.mu0 * self.delta0 > 0 and all(scheduled(mask, sc) for mask, sc, _ in rescans)
        certified = whole and all(ok and radii(sc.cert) for _, sc, (ok, _, _) in rescans)
        fracs = [frac for _, _, (_, frac, _) in rescans]
        removed = self.removed_in_sweeps
        return _partition_checks(self, X) + [
            ("K", min(self.K, p) == capped_iterate(g, self.l, self.K0, p)),
            ("part_thickness", all(frac >= self.delta for frac, _ in scans)),
            ("tubular_certs", certified),
            ("delta", self.delta == delta),
            ("delta0", self.delta >= self.delta0 / 2),
            ("mu", whole and self.mu == _least_share(self.parts, n, fracs)),
            ("achieved", whole and all(sc.achieved == f for (_, sc, _), f in zip(rescans, fracs))),
            ("delta_schedule", whole and schedule),
            ("removed_in_sweeps", 0 <= removed <= len(self.x0) and removed < self.epsilon * n / 2),
        ]


def _sweep(tables: _UnionTables, K: int, g: GrowthFunction, schedule):
    """({subset: its certificate}, [the points each dropping union dropped])
    from a tube reduction of every union X_S in mask order, at delta
    schedule(mask) from K, the unions of a block reduced together, each
    level read off the block's tables (`blocks`).

    The union's points outside its tube leave their parts.  A union that
    drops points ends its block and the pass over the blocks: the unions
    after it in the block are dropped unrecorded, the shrunken parts'
    histograms are rebuilt and the next pass starts at the following mask.
    Each certificate is recorded at half its sweep delta, with achieved the
    outside fraction of the scan that ended its reduction: its rescan on
    X_S (`_tube_reduce`), which holds on the final union unless some union
    dropped points.
    """
    owner = {elem: i for i, part in enumerate(tables.parts) for elem in part.support()}
    certs: Dict[Tuple[int, ...], SubsetCertificate] = {}
    removed: List[GroupMultiset] = []
    mask = 0
    while mask + 1 < 2 ** len(tables.parts):
        for masks, batch in tables.blocks(mask + 1):
            dropped = None
            deltas = [schedule(mask) for mask in masks]
            halves = [delta / 2 for delta in deltas]
            for j, (Y, cert, last) in enumerate(_tube_reduce(batch, deltas, K, g, halves)):
                mask, n = masks[j], batch.sizes[j]
                subset = _subset(mask)
                certs[subset] = SubsetCertificate(subset, cert, deltas[j], _outside(last, n)[0])
                if Y is not None and len(Y) < n:
                    dropped = batch.union(j).minus(Y)
                    break
            if dropped is not None:
                removed.append(dropped)
                pieces = dropped.split([owner[elem] for elem in dropped.support()])
                for i, piece in pieces.items():
                    tables.parts[i] = tables.parts[i].minus(piece)
                break
    return certs, removed


def _settle(tables: _UnionTables, Kp: int, certs, dropped: bool, delta0: Fraction, n: int):
    """(delta, mu) of a swept strong decomposition of n points, with bullet
    2 (parts keep half their hull thickness delta0 at Kp = g^{d+1}(K)) and
    bullet 3 (every final union is tubular at half its sweep delta) checked.

    When nothing dropped, the parts are `decompose`'s, whose last
    re-verification sweep scanned them at Kp, so delta is delta0; and each
    union is the one its tube reduction ended on, so the achieved fraction
    the sweep recorded is its rescan.  A drop shrinks parts after some
    unions were certified: then `_rescan` derives delta and every achieved
    fraction afresh.
    """
    for part in tables.parts:
        _check("part_nonempty", len(part), ">", 0)
    delta = delta0
    if dropped:
        _scans, delta, rescans = _rescan(tables, Kp, certs)
        for _mask, sc, (_ok, frac, _worst) in rescans:
            sc.achieved = frac
    _check("part_thickness", delta, ">=", delta0 / 2)
    for sc in certs.values():
        achieved, half = sc.achieved, sc.cert.delta
        _check(
            "union_tubular", achieved.numerator * half.denominator, ">=", half.numerator * achieved.denominator,
            f"union {sc.subset}", shown=lambda: (achieved, half),
        )
    return delta, _least_share(tables.parts, n, [sc.achieved for sc in certs.values()])


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
    All three facts are checked on exact integers, not assumed: on the
    fractions the sweep's scans found when it dropped nothing, and on a
    rescan of the final parts and unions when it did (`_settle`).
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

    tables = _UnionTables(dec.parts)
    subset_certs, removed_sets = _sweep(tables, K, g, _delta_schedule(eps, mu0, delta0, m, d))
    removed_total = sum(len(r) for r in removed_sets)

    # bullet 1: sweep removals stay below eps|X|/2
    _check("sweep_removals", Fraction(removed_total), "<", eps * len(X) / 2)
    part_delta, mu = _settle(tables, gp(K), subset_certs, bool(removed_sets), delta0, len(X))

    x0 = dec.x0
    for r in removed_sets:
        x0 = x0.union(r)
    _check("strong_x0_budget", Fraction(len(x0)), "<=", eps * len(X))

    return StrongDecomposition(
        params=params,
        input_size=len(X),
        x0=x0,
        parts=tuple(tables.parts),
        l=l_in_g,
        K=K,
        K0=K0,
        delta=part_delta,
        delta0=delta0,
        mu0=mu0,
        mu=mu,
        epsilon=eps,
        growth=g,
        subset_certs=subset_certs,
        removed_in_sweeps=removed_total,
    )
