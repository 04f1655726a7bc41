"""Exact arithmetic in F_p^d: group parameters, points, linear functionals,
symmetric intervals, and affine coordinate changes.

Points are plain tuples of residues in [0, p-1], kept canonical by
construction.  All arithmetic is exact integer arithmetic; "signed" values
refer to the symmetric representative in [-(p-1)/2, (p-1)/2].

Also home to InvariantError and `_check`, the one internal-error mechanism
of the package: the lowest module every other one imports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, Sequence, Tuple

from . import linalg

Vec = Tuple[int, ...]

DEFAULT_STATE_BUDGET = 1 << 24
DEFAULT_DIM_CAP = 6


class InvariantError(AssertionError):
    """An inequality the argument guarantees failed to hold: always a bug.

    Carries the inequality with both sides evaluated, like a pipeline
    StageFailure, and is raised by `_check`, which `python -O` keeps.
    """

    def __init__(self, name: str, lhs, op: str, rhs, context: str = ""):
        self.name, self.lhs, self.op, self.rhs = name, lhs, op, rhs
        detail = f" ({context})" if context else ""
        super().__init__(f"invariant {name} failed: {lhs} {op} {rhs}{detail}")


_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}


def _check(name: str, lhs, op: str, rhs, context: str = "", shown=None) -> None:
    """Raise InvariantError unless `lhs op rhs`.  A check made on integers
    that stand for fractions (both sides scaled by one positive number)
    passes `shown`, which returns the (lhs, rhs) fractions to report."""
    if not _OPS[op](lhs, rhs):
        if shown is not None:
            lhs, rhs = shown()
        raise InvariantError(name, lhs, op, rhs, context)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class GroupParams:
    """Ambient group F_p^d with desk-scale guardrails.

    p must be an odd prime, d a small dimension, and p^d must fit the state
    budget used by the subset-sum tables and exhaustive functional scans.
    """

    p: int
    d: int
    state_budget: int = DEFAULT_STATE_BUDGET

    def __post_init__(self):
        # the cheap checks first: they bound p before trial division runs
        if self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if not (1 <= self.d <= DEFAULT_DIM_CAP):
            raise ValueError(f"d must be in [1, {DEFAULT_DIM_CAP}], got {self.d}")
        if self.p ** self.d > self.state_budget:
            raise ValueError(
                f"p^d = {self.p ** self.d} exceeds the state budget {self.state_budget}"
            )
        if not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")

    @property
    def order(self) -> int:
        return self.p ** self.d

    def zero(self) -> Vec:
        return (0,) * self.d

    def reduce(self, coords: Sequence[int]) -> Vec:
        if len(coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(coords)}")
        return tuple(int(c) % self.p for c in coords)

    def add(self, a: Vec, b: Vec) -> Vec:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a: Vec, b: Vec) -> Vec:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def signed(self, r: int) -> int:
        """Symmetric representative of the residue r in [-(p-1)/2, (p-1)/2]."""
        r %= self.p
        return r if r <= (self.p - 1) // 2 else r - self.p

    def index(self, v: Vec) -> int:
        """Mixed-radix state index; lexicographic tuple order = numeric order."""
        i = 0
        for c in v:
            i = i * self.p + c
        return i

    def unindex(self, i: int) -> Vec:
        out = []
        for _ in range(self.d):
            i, r = divmod(i, self.p)
            out.append(r)
        return tuple(reversed(out))

    def elements(self) -> Iterator[Vec]:
        """All points in lexicographic order (small spaces only)."""
        for i in range(self.order):
            yield self.unindex(i)


@dataclass(frozen=True)
class SymmetricInterval:
    """The interval [-K, K] viewed inside F_p via the two arcs {0..K} and
    {p-K..p-1}; covers all of F_p once 2K+1 >= p."""

    K: int

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be nonnegative")

    def contains(self, residue: int, p: int) -> bool:
        r = residue % p
        return r <= self.K or r >= p - self.K


def in_interval(residue: int, K: int, p: int) -> bool:
    r = residue % p
    return r <= K or r >= p - K


@dataclass(frozen=True)
class LinearFunctional:
    """Affine-linear map x -> a0 + sum(a_i x_i) on F_p^d."""

    a0: int
    linear: Vec

    def evaluate(self, x: Vec, p: int) -> int:
        return (self.a0 + sum(a * c for a, c in zip(self.linear, x))) % p

    def is_constant(self) -> bool:
        return all(a == 0 for a in self.linear)


def eval_functional(xi: LinearFunctional, x: Vec, p: int) -> int:
    if len(xi.linear) != len(x):
        raise ValueError("functional/point dimension mismatch")
    return xi.evaluate(x, p)


def in_tube_set(x: Vec, xi: LinearFunctional, K: SymmetricInterval, p: int) -> bool:
    """Membership in H(xi, K) = preimage of [-K, K] under xi."""
    return K.contains(xi.evaluate(x, p), p)


@lru_cache(maxsize=64)
def canonical_linear_parts(p: int, d: int) -> Tuple[Vec, ...]:
    """All nonzero linear parts with leading coefficient 1, in lex order.

    There are (p^d - 1)/(p - 1) of them, one per hyperplane direction.
    """
    parts = []
    for j in range(d):
        # first j coordinates zero, coordinate j equal to 1, rest free
        tail_dims = d - j - 1
        for i in range(p ** tail_dims):
            tail = []
            k = i
            for _ in range(tail_dims):
                k, r = divmod(k, p)
                tail.append(r)
            parts.append((0,) * j + (1,) + tuple(reversed(tail)))
    return tuple(sorted(parts))


def count_canonical_functionals(p: int, d: int) -> tuple[int, int]:
    """(non-constant canonical functionals, constant functionals)."""
    return (p ** d - 1) // (p - 1) * p, p


@dataclass(frozen=True)
class AffineIso:
    """Invertible affine map psi(x) = M x + shift on F_p^d."""

    matrix: Tuple[Vec, ...]
    shift: Vec

    def validate(self, p: int) -> None:
        if linalg.invert_matrix(self.matrix, p) is None:
            raise ValueError("matrix is not invertible mod p")

    def reduced(self, p: int, d: int) -> "AffineIso":
        """psi with every entry reduced mod p; ValueError unless the matrix
        is d x d and the shift has length d."""
        if (
            len(self.matrix) != d
            or any(len(row) != d for row in self.matrix)
            or len(self.shift) != d
        ):
            raise ValueError(f"psi must be a {d}x{d} matrix with a length-{d} shift")
        return AffineIso(
            tuple(tuple(int(a) % p for a in row) for row in self.matrix),
            tuple(int(s) % p for s in self.shift),
        )

    def apply(self, x: Vec, p: int) -> Vec:
        return tuple(
            (sum(m * c for m, c in zip(row, x, strict=True)) + s) % p
            for row, s in zip(self.matrix, self.shift, strict=True)
        )

    def inverse(self, p: int) -> "AffineIso":
        minv = linalg.invert_matrix(self.matrix, p)
        if minv is None:
            raise ValueError("matrix is not invertible mod p")
        neg_shift = linalg.matvec(minv, tuple((-s) % p for s in self.shift), p)
        return AffineIso(minv, neg_shift)

    @staticmethod
    def identity(d: int) -> "AffineIso":
        return AffineIso(linalg.identity(d), (0,) * d)

    @staticmethod
    def translation(v: Vec) -> "AffineIso":
        return AffineIso(linalg.identity(len(v)), tuple(v))


def affine_hull(points: Iterable[Vec], p: int):
    """Smallest affine subspace containing the given points.

    Returns (dimension, basepoint, basis) where basis rows are independent
    directions in reduced row echelon form.  The basepoint is the
    lexicographically smallest input point, so the output is deterministic.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("affine hull of an empty set")
    base = pts[0]
    d = len(base)
    # independent differences, each scaled to 1 at its pivot and 0 at the
    # pivots before it; d of them span F_p^d, whose rref is the identity
    echelon: List[Tuple[int, List[int]]] = []
    for q in pts[1:]:
        v = [(x - b) % p for x, b in zip(q, base)]
        for c, row in echelon:
            if v[c]:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, row)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        inv = pow(v[c], -1, p)
        echelon.append((c, [x * inv % p for x in v]))
        if len(echelon) == d:
            return d, base, linalg.identity(d)
    basis, _ = linalg.rref([row for _, row in echelon], p)
    return len(basis), base, tuple(basis)
