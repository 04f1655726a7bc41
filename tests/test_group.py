import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.group import (
    AffineIso,
    GroupParams,
    LinearFunctional,
    SymmetricInterval,
    affine_hull,
    canonical_linear_parts,
    count_canonical_functionals,
    eval_functional,
    in_tube_set,
)
from zerosum.multiset import GroupMultiset, change_coords
from zerosum import linalg


def test_eval_examples():
    assert eval_functional(LinearFunctional(0, (1, 0)), (3, 5), 7) == 3
    assert eval_functional(LinearFunctional(2, (0, 0)), (4, 1), 7) == 2
    # 1 + 2*4 + 3*5 = 24 = 3 mod 7
    assert eval_functional(LinearFunctional(1, (2, 3)), (4, 5), 7) == 3


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_functional(LinearFunctional(0, (1,)), (1, 2), 7)


def test_in_tube_examples():
    xi = LinearFunctional(0, (1, 0))
    assert in_tube_set((6, 0), xi, SymmetricInterval(1), 7)  # 6 = -1
    assert not in_tube_set((3, 0), xi, SymmetricInterval(1), 7)
    # saturated interval covers everything
    assert in_tube_set((3, 0), xi, SymmetricInterval(3), 7)


def test_params_validation():
    with pytest.raises(ValueError):
        GroupParams(4, 1)  # not prime
    with pytest.raises(ValueError):
        GroupParams(2, 1)  # even
    with pytest.raises(ValueError):
        GroupParams(5, 0)
    with pytest.raises(ValueError):
        GroupParams(101, 6)  # exceeds the default state budget


def test_index_roundtrip_and_order():
    params = GroupParams(5, 3)
    elems = [params.unindex(i) for i in range(params.order)]
    assert elems == sorted(elems)  # numeric order = lex order
    assert all(params.index(v) == i for i, v in enumerate(elems))


def test_affine_hull_examples():
    params = GroupParams(5, 2)
    dim, base, basis = affine_hull([(1, 1)], 5)
    assert dim == 0 and base == (1, 1) and basis == ()

    dim, base, basis = affine_hull([(0, 0), (0, 1), (0, 2)], 5)
    assert dim == 1 and basis == ((0, 1),)

    with pytest.raises(ValueError):
        affine_hull([], 5)


def test_affine_hull_spanning_cloud():
    # ten random points of F_5^2: expected dimension recomputed by an
    # independent rank calculation on the raw difference vectors
    rng = random.Random(3)
    pts = sorted({(rng.randrange(5), rng.randrange(5)) for _ in range(10)})
    dim, base, basis = affine_hull(pts, 5)
    diffs = [tuple((a - b) % 5 for a, b in zip(q, pts[0])) for q in pts[1:]]
    assert dim == linalg.rank(diffs, 5) == 2


@st.composite
def subspace_points(draw):
    """(p, points of F_p^d): on a random affine subspace, or scattered."""
    p, d = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, p - 1)] * d)
    spanning = draw(st.lists(vec, max_size=d))
    base = draw(vec)
    coeffs = st.lists(st.integers(0, p - 1), min_size=len(spanning), max_size=len(spanning))
    pts = [
        tuple((b + sum(c * v[i] for c, v in zip(draw(coeffs), spanning))) % p for i, b in enumerate(base))
        for _ in range(draw(st.integers(1, 8)))
    ]
    return p, pts + draw(st.lists(vec, max_size=2))


@settings(max_examples=300, deadline=None)
@given(subspace_points())
def test_affine_hull_matches_rref_of_all_differences(case):
    # the hull stops eliminating at d independent differences; the rref of
    # every difference must come out the same
    p, pts = case
    base = min(pts)
    diffs = [tuple((x - b) % p for x, b in zip(q, base)) for q in sorted(set(pts)) if q != base]
    basis, _ = linalg.rref(diffs, p)
    assert affine_hull(pts, p) == (len(basis), base, tuple(basis))


def test_linalg_helpers_return_cached_tuples():
    # cached results are shared between callers, so they must be immutable;
    # lists and tuples of the same rows share one entry
    rows = [[1, 2, 0], [0, 1, 1]]
    kernel = linalg.kernel_basis(rows, 5)
    assert kernel == ((2, 4, 1),) and linalg.kernel_basis(tuple(map(tuple, rows)), 5) is kernel
    assert linalg.kernel_basis([], 5) == ()
    full = linalg.complete_basis(rows, 5)
    assert full == ((1, 2, 0), (0, 1, 1), (1, 0, 0)) and linalg.complete_basis(rows, 5) is full
    inverse = linalg.invert_matrix(full, 5)
    assert isinstance(inverse, tuple) and linalg.invert_matrix(list(full), 5) is inverse
    assert linalg.invert_matrix([[1, 2], [2, 4]], 5) is None


def test_change_coords_roundtrip_and_cardinality():
    params = GroupParams(5, 2)
    rng = random.Random(0)
    X = GroupMultiset.from_points(
        params, [(rng.randrange(5), rng.randrange(5)) for _ in range(20)]
    )
    swap = AffineIso(((0, 1), (1, 0)), (0, 0))
    Y = change_coords(X, swap)
    assert len(Y) == len(X)
    assert {(b, a) for a, b in X.support()} == set(Y.support())
    back = change_coords(Y, swap.inverse(5))
    assert back == X

    ident = AffineIso.identity(2)
    assert change_coords(X, ident) == X
    shift = AffineIso.translation((1, 2))
    assert change_coords(GroupMultiset.from_points(params, [(0, 0)]), shift).support() == ((1, 2),)


def test_change_coords_rejects_singular():
    params = GroupParams(5, 2)
    X = GroupMultiset.from_points(params, [(1, 1)])
    with pytest.raises(ValueError):
        change_coords(X, AffineIso(((1, 1), (2, 2)), (0, 0)))


def test_canonical_functional_count():
    # (p^d - 1)/(p - 1) directions, p constant terms each, plus p constants
    nonconst, const = count_canonical_functionals(3, 2)
    assert (nonconst, const) == (12, 3)
    assert len(canonical_linear_parts(3, 2)) == 4
    for p, d in [(5, 2), (7, 1), (3, 3)]:
        parts = canonical_linear_parts(p, d)
        assert len(parts) == (p ** d - 1) // (p - 1)
        assert len(set(parts)) == len(parts)
        # leading coefficient is 1
        for lam in parts:
            lead = next(x for x in lam if x)
            assert lead == 1


def test_tube_membership_invariant_under_iso():
    # in_tube_set(x, xi, K) == in_tube_set(psi x, xi o psi^{-1}, K)
    p = 7
    params = GroupParams(p, 2)
    rng = random.Random(5)
    psi = AffineIso(((2, 1), (1, 1)), (3, 4))
    psi.validate(p)
    inv = psi.inverse(p)
    for _ in range(50):
        x = (rng.randrange(p), rng.randrange(p))
        xi = LinearFunctional(rng.randrange(p), (rng.randrange(p), rng.randrange(p)))
        K = SymmetricInterval(rng.randrange(3))
        # xi o psi^{-1} as an explicit functional
        lin = tuple(
            sum(a * inv.matrix[i][j] for i, a in enumerate(xi.linear)) % p
            for j in range(2)
        )
        a0 = (xi.a0 + sum(a * s for a, s in zip(xi.linear, inv.shift))) % p
        composed = LinearFunctional(a0, lin)
        assert in_tube_set(x, xi, K, p) == in_tube_set(psi.apply(x, p), composed, K, p)


def test_hull_dimension_invariant_under_iso():
    p = 11
    rng = random.Random(9)
    psi = AffineIso(((3, 1), (5, 2)), (1, 6))
    psi.validate(p)
    for _ in range(20):
        pts = sorted({(rng.randrange(p), rng.randrange(p)) for _ in range(rng.randrange(1, 7))})
        dim, _, _ = affine_hull(pts, p)
        image = [psi.apply(x, p) for x in pts]
        dim2, _, _ = affine_hull(image, p)
        assert dim == dim2


def test_multiset_bookkeeping():
    params = GroupParams(5, 1)
    X = GroupMultiset.from_points(params, [(1,), (1,), (2,)])
    assert len(X) == 3 and X.support_size() == 2
    assert X.multiplicity((1,)) == 2
    Y = X.minus(GroupMultiset.from_points(params, [(1,)]))
    assert len(Y) == 2 and Y.multiplicity((1,)) == 1
    with pytest.raises(ValueError):
        X.minus(GroupMultiset.from_points(params, [(3,)]))
    assert X.union(Y).cardinality == 5
    assert X.total() == (4 % 5,)
