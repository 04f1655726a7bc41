"""Exact linear algebra over Z/pZ.

Everything here works on small dense matrices given as sequences of row
tuples, with explicit inverses mod p (p prime), so no floating point is
involved anywhere.
"""

from __future__ import annotations

from functools import lru_cache

# distinct arguments cached per helper: a pipeline round repeats a few dozen
_CACHE_SIZE = 1024


def _rows(mat):
    """mat as a tuple of int row tuples: the cache key of the helpers below."""
    return tuple(tuple(int(x) for x in row) for row in mat)


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def rref(rows, p):
    """Reduced row echelon form mod p.

    Returns (reduced_rows, pivot_columns).  Zero rows are dropped.
    """
    mat = [list(r % p for r in row) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = inv_mod(mat[r][c], p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p != 0:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows, p) -> int:
    return len(rref(rows, p)[0])


def matvec(mat, vec, p):
    return tuple(sum(m * v for m, v in zip(row, vec)) % p for row in mat)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def invert_matrix(mat, p):
    """Inverse of a square matrix mod p, or None if singular."""
    return _invert_matrix(_rows(mat), p)


@lru_cache(maxsize=_CACHE_SIZE)
def _invert_matrix(mat, p):
    n = len(mat)
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    reduced, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced[:n])


def solve(mat, rhs, p):
    """One solution of mat @ x = rhs mod p, or None if inconsistent."""
    if not mat:
        return None
    ncols = len(mat[0])
    aug = [list(row) + [b % p] for row, b in zip(mat, rhs)]
    reduced, pivots = rref(aug, p)
    for row in reduced:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [0] * ncols
    for row, c in zip(reduced, [q for q in pivots if q < ncols]):
        x[c] = row[ncols]
    # pivots may include the augmented column on inconsistent systems,
    # which the loop above already rejected.
    if pivots and pivots[-1] == ncols:
        return None
    return tuple(x)


def kernel_basis(mat, p):
    """Basis of the null space of mat over F_p (tuple of tuples)."""
    return _kernel_basis(_rows(mat), p)


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel_basis(mat, p):
    if not mat:
        return ()
    ncols = len(mat[0])
    reduced, pivots = rref(mat, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for row, c in zip(reduced, pivots):
            vec[c] = (-row[f]) % p
        basis.append(tuple(vec))
    return tuple(basis)


def complete_basis(rows, p):
    """Extend independent rows to an invertible d x d matrix over F_p.

    Missing rows are filled greedily with standard basis vectors, smallest
    index first, so the completion is deterministic.
    """
    return _complete_basis(_rows(rows), p)


@lru_cache(maxsize=_CACHE_SIZE)
def _complete_basis(rows, p):
    rows = [tuple(x % p for x in r) for r in rows]
    if rows:
        d = len(rows[0])
    else:
        raise ValueError("cannot infer dimension from empty row list")
    if rank(rows, p) != len(rows):
        raise ValueError("rows are not linearly independent")
    out = list(rows)
    for j in range(d):
        if len(out) == d:
            break
        cand = tuple(1 if i == j else 0 for i in range(d))
        if rank(out + [cand], p) > len(out):
            out.append(cand)
    if len(out) != d:
        raise ValueError("failed to complete basis")
    return tuple(out)

