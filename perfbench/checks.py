"""Output checkers written apart from the package.

Nothing here calls the package's own validators (``verify``,
``verify_certificate``, ``TubularCertificate.validate``, the
``Decomposition.validate`` methods, thickness scans).  Sums are taken over
raw integers, thickness is re-measured by a brute-force scan over every
nonzero linear functional and every constant term, and subset-sum reach is
recomputed with a plain set-based DP.  Inputs are plain ``Counter``s of
point tuples that the benchmark kept when it generated them.

Every checker raises ``CheckFailed`` with a message on a wrong answer.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

import numpy as np

Point = Tuple[int, ...]


class CheckFailed(Exception):
    """A program output that an independent check rejects."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def counter_of(multiset) -> Counter:
    """Plain Counter view of a package multiset (read through ``items()``)."""
    return Counter({tuple(int(c) for c in x): int(m) for x, m in multiset.items()})


def size(c: Counter) -> int:
    return sum(c.values())


def is_submultiset(small: Counter, big: Counter) -> bool:
    return all(big.get(x, 0) >= m for x, m in small.items())


def raw_sum(c: Counter, d: int) -> Tuple[int, ...]:
    acc = [0] * d
    for x, m in c.items():
        for k in range(d):
            acc[k] += m * x[k]
    return tuple(acc)


def in_window(r: int, K: int, p: int) -> bool:
    r %= p
    return r <= K or r >= p - K


def det_mod(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Determinant mod p by Gaussian elimination."""
    a = [[int(v) % p for v in row] for row in matrix]
    n = len(a)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p


# ---------------------------------------------------------------------------
# Zero-sum certificates
# ---------------------------------------------------------------------------


def check_zero_sum(X: Counter, subset: Counter, p: int, d: int) -> None:
    """A nonempty sub-multiset of X whose coordinate sums vanish mod p."""
    require(size(subset) > 0, "zero-sum certificate is empty")
    require(is_submultiset(subset, X), "certificate is not a sub-multiset of X")
    total = raw_sum(subset, d)
    require(all(t % p == 0 for t in total), f"certificate sums to {total} mod {p}, not 0")


_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
}


def check_stage_failure(failure) -> None:
    """A reported stage failure must carry an inequality that is false."""
    require(failure.op in _OPS, f"stage failure has unknown operator {failure.op!r}")
    require(not failure.holds(), f"stage failure {failure.name} re-validates as true")
    lhs, rhs = Fraction(failure.lhs), Fraction(failure.rhs)
    require(
        not _OPS[failure.op](lhs, rhs),
        f"stage failure {failure.name}: {lhs} {failure.op} {rhs} holds",
    )


def check_pipeline(X: Counter, p: int, d: int, result) -> bool:
    """True for a checked certificate, False for a checked stage failure."""
    if result.certificate is not None:
        require(result.failure is None, "result carries a certificate and a failure")
        check_zero_sum(X, counter_of(result.certificate.subset), p, d)
        return True
    require(result.failure is not None, "result carries neither certificate nor failure")
    check_stage_failure(result.failure)
    return False


# ---------------------------------------------------------------------------
# Brute-force thickness
# ---------------------------------------------------------------------------


def all_linear_parts(p: int, d: int) -> np.ndarray:
    """Every nonzero vector of F_p^d, one row each."""
    grid = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
    return grid[1:]


def min_outside_fraction(
    points: Counter, p: int, K: int, lambdas: np.ndarray
) -> Fraction:
    """Smallest share of the multiset outside {x : a0 + <lam, x> in [-K, K]}
    over the given linear parts and every constant term a0; 1 when no part
    is given."""
    n = size(points)
    if len(lambdas) == 0 or n == 0:
        return Fraction(1)
    if 2 * K + 1 >= p:
        return Fraction(0)
    pts = np.array(list(points.keys()), dtype=np.int64)
    w = np.array(list(points.values()), dtype=np.int64)
    vals = (lambdas @ pts.T) % p  # (L, n)
    best_inside = np.zeros(len(lambdas), dtype=np.int64)
    for a0 in range(p):
        r = (vals + a0) % p
        inside = ((r <= K) | (r >= p - K)) @ w
        np.maximum(best_inside, inside, out=best_inside)
    return Fraction(int(n - best_inside.max()), n)


def hull_min_outside(points: Counter, p: int, d: int, K: int) -> Fraction:
    """Thickness inside the affine hull: a linear part is non-constant on the
    hull exactly when it takes two values on the points themselves."""
    lam = all_linear_parts(p, d)
    pts = np.array(list(points.keys()), dtype=np.int64)
    vals = (lam @ pts.T) % p
    nonconstant = (vals != vals[:, :1]).any(axis=1)
    return min_outside_fraction(points, p, K, lam[nonconstant])


# ---------------------------------------------------------------------------
# Tubes and decompositions
# ---------------------------------------------------------------------------


def apply_affine(matrix, shift, x: Point, p: int) -> Point:
    return tuple(
        (sum(int(m) * c for m, c in zip(row, x)) + int(s)) % p
        for row, s in zip(matrix, shift)
    )


def check_tubular(Y: Counter, cert, p: int, d: int) -> None:
    """psi(Y) lies in [-K, K]^l x F_p^(d-l) and is (K', delta)-thick along
    every linear part that is non-constant on the fiber factor, with
    K' = g(K) for the growth g(K) = K + 1 that every workload uses."""
    l = cert.l
    require(0 <= l <= d, f"tube has l={l} bounded directions in dimension {d}")
    require(len(cert.functionals) == l, f"tube lists {len(cert.functionals)} functionals for l={l}")
    require(det_mod(cert.psi.matrix, p) != 0, "tube coordinate change is not invertible")
    require(cert.K_prime == cert.K + 1, f"K'={cert.K_prime} is not g(K) for K={cert.K}")
    image: Counter = Counter()
    for x, m in Y.items():
        y = apply_affine(cert.psi.matrix, cert.psi.shift, x, p)
        require(
            all(in_window(c, cert.K, p) for c in y[:l]),
            f"psi({x}) = {y} leaves [-{cert.K}, {cert.K}]^{l}",
        )
        image[y] += m
    if l == d:
        return
    lam = all_linear_parts(p, d)
    lam = lam[(lam[:, l:] != 0).any(axis=1)]
    frac = min_outside_fraction(image, p, cert.K_prime, lam)
    require(
        frac >= Fraction(cert.delta),
        f"tube image is only {frac}-thick at K'={cert.K_prime}, certificate claims {cert.delta}",
    )


def check_tube(X: Counter, p: int, d: int, delta: Fraction, out) -> None:
    Y, cert = out
    Yc = counter_of(Y)
    require(is_submultiset(Yc, X), "tube part is not a sub-multiset of X")
    require(
        Fraction(size(Yc)) >= (1 - 2 ** (d + 1) * delta) * size(X),
        f"tube kept {size(Yc)} of {size(X)} points",
    )
    require(cert.K == cert.l, f"K={cert.K} is not g^l(0) for l={cert.l} with g(K)=K+1")
    require(Fraction(cert.delta) == delta, "tube certificate changed delta")
    check_tubular(Yc, cert, p, d)


def check_partition(X: Counter, x0, parts) -> list:
    pieces = [counter_of(x0)] + [counter_of(part) for part in parts]
    rebuilt: Counter = Counter()
    for piece in pieces:
        rebuilt.update(piece)
    require(rebuilt == X, "x0 and the parts do not add up to X")
    require(all(size(piece) > 0 for piece in pieces[1:]), "a part is empty")
    return pieces


def check_decompose(X: Counter, p: int, d: int, eps: Fraction, dec) -> None:
    pieces = check_partition(X, dec.x0, dec.parts)
    require(Fraction(size(pieces[0])) <= eps * size(X), "x0 exceeds eps|X|")
    require(dec.delta > 0, "decomposition reports zero thickness")
    for part in pieces[1:]:
        require(Fraction(size(part)) >= dec.mu * size(X), "a part is smaller than mu|X|")
        frac = hull_min_outside(part, p, d, dec.K + 1)
        require(frac >= dec.delta, f"a part is only {frac}-thick in its hull, claimed {dec.delta}")


def sample_unions(m: int, seed: int, k: int = 4) -> list:
    """A deterministic sample of nonempty part unions: the first, the full
    union, and k - 2 more drawn from the seed."""
    masks = list(range(1, 2 ** m))
    chosen = {masks[0], masks[-1]}
    rng = np.random.default_rng(seed)
    while len(chosen) < min(k, len(masks)):
        chosen.add(int(masks[rng.integers(len(masks))]))
    return [tuple(i for i in range(m) if (mask >> i) & 1) for mask in sorted(chosen)]


def check_strong(X: Counter, p: int, d: int, eps: Fraction, sdec, seed: int, full: bool) -> None:
    pieces = check_partition(X, sdec.x0, sdec.parts)
    require(Fraction(size(pieces[0])) <= eps * size(X), "x0 exceeds eps|X|")
    m = len(pieces) - 1
    want = {tuple(i for i in range(m) if (mask >> i) & 1) for mask in range(1, 2 ** m)}
    require(
        set(sdec.subset_certs) == want,
        f"{len(sdec.subset_certs)} union certificates for m={m} parts, expected {len(want)}",
    )
    if not full:
        return
    for part in pieces[1:]:
        frac = hull_min_outside(part, p, d, sdec.K + d + 1)
        require(frac >= sdec.delta, f"a part is only {frac}-thick in its hull, claimed {sdec.delta}")
    for subset in sample_unions(m, seed):
        union: Counter = Counter()
        for i in subset:
            union.update(pieces[1 + i])
        cert = sdec.subset_certs[subset].cert
        require(cert.K == sdec.K + cert.l, f"union {subset}: K={cert.K} is not g^l(K) for K={sdec.K}")
        check_tubular(union, cert, p, d)


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def set_dp_reach(elements: Iterable[Point], p: int) -> set:
    """Every nonempty subsum, by the plain rule reach |= (reach + x) | {x}."""
    reach: set = set()
    for x in elements:
        reach |= {tuple((a + b) % p for a, b in zip(s, x)) for s in reach}
        reach.add(tuple(c % p for c in x))
    return reach


def balandraud(p: int) -> int:
    """OL(F_p) = max{k : k(k+1)/2 < p} + 1."""
    k = 0
    while (k + 1) * (k + 2) // 2 < p:
        k += 1
    return k + 1


def check_witness_or_none(X: Counter, p: int, d: int, cert, expect_zero_sum: bool) -> None:
    if expect_zero_sum:
        require(cert is not None, f"no zero-sum witness for {size(X)} > d(p-1) points")
        check_zero_sum(X, counter_of(cert.subset), p, d)
    else:
        require(cert is None, "a witness was returned for a zero-sum-free input")


def check_reach(X: Counter, p: int, reachable_values) -> None:
    want = set_dp_reach(X.elements(), p)
    got = {tuple(int(c) for c in v) for v in reachable_values}
    require(got == want, f"reachable set has {len(got)} states, set DP gives {len(want)}")


def check_free_construction(X: Counter, p: int, d: int, matrix) -> None:
    """X is (p-1) copies of each column of an invertible matrix, hence
    zero-sum-free: a subsum is M a with 0 <= a_i < p, a != 0."""
    require(det_mod(matrix, p) != 0, "construction matrix is singular")
    cols = Counter({tuple(int(matrix[r][c]) % p for r in range(d)): p - 1 for c in range(d)})
    require(X == cols, "input is not the zero-sum-free construction")


def check_olson(p: int, d: int, res) -> None:
    require(res.exact, f"Olson constant of F_{p}^{d} is not exact")
    if d == 1:
        want = balandraud(p)
    elif d == 2:
        want = p - 1 + balandraud(p)
    else:
        raise CheckFailed(f"no independent Olson value for d={d}")
    require(res.olson == want, f"OL(F_{p}^{d}) = {res.olson}, expected {want}")
    wit = [tuple(int(c) % p for c in v) for v in res.witness]
    require(len(wit) == want - 1, f"witness has {len(wit)} points, expected {want - 1}")
    require(len(set(wit)) == len(wit), "witness repeats a point")
    require(all(len(v) == d for v in wit), "witness point has the wrong dimension")
    require((0,) * d not in wit, "witness contains zero")
    for r in range(1, len(wit) + 1):
        for comb in itertools.combinations(wit, r):
            s = tuple(sum(c) % p for c in zip(*comb))
            require(any(s), f"witness subset {comb} sums to zero")
