import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import thickness
from zerosum.generators import fiber_union
from zerosum.group import GroupParams, LinearFunctional, canonical_linear_parts, in_interval
from zerosum.multiset import GroupMultiset
from zerosum.thickness import (
    GrowthFunction,
    IteratedGrowth,
    ThicknessParams,
    decompose,
    find_thin_functional,
    hull_thickness,
    inside_count,
    is_thick,
    strong_decompose,
    tube_decompose,
)

G1 = GrowthFunction("affine", 1, 1)
G44 = GrowthFunction("affine", 4, 4)


def ms(params, pts):
    return GroupMultiset.from_points(params, pts)


def full_line(p):
    return ms(GroupParams(p, 1), [(i,) for i in range(p)])


def test_growth_function_parse_and_iterate():
    g = GrowthFunction.parse("4K+4")
    assert g(0) == 4 and g(4) == 20 and g.iterate(2, 0) == 20
    g2 = GrowthFunction.parse("(K+2)^2")
    assert g2(0) == 4 and g2(4) == 36
    g3 = GrowthFunction.parse("2^K")
    assert g3(0) == 1 and g3(3) == 8
    assert GrowthFunction.parse("K+1")(5) == 6
    it = IteratedGrowth(G1, 3)
    assert it(0) == 3 and it.iterate(2, 1) == 7
    with pytest.raises(ValueError):
        GrowthFunction("affine", 1, 0)  # g(K) = K is not allowed
    with pytest.raises(ValueError):
        GrowthFunction.parse("K^2")


def test_growth_capped_matches_min():
    cap = 31
    for g in (G1, G44, GrowthFunction("polynomial", 3, 1), GrowthFunction("exponential", 2)):
        for K in range(40):
            assert g.capped(K, cap) == min(g(K), cap)
        for K in range(5):  # 2^2^2^K stays computable only this far
            assert IteratedGrowth(g, 3).capped(K, cap) == min(IteratedGrowth(g, 3)(K), cap)
    # never built: 2^(10^12) and (10^12 + 1)^(10^6)
    assert GrowthFunction("exponential", 2).capped(10 ** 12, cap) == cap
    assert GrowthFunction("exponential", 2).capped(30, cap) == cap
    assert GrowthFunction("polynomial", 10 ** 6, 1).capped(1, cap) == cap
    assert GrowthFunction("polynomial", 10 ** 6, 1).capped(0, cap) == 1


def test_is_thick_full_line():
    X = full_line(7)
    thick, outside = is_thick(X, LinearFunctional(0, (1,)), ThicknessParams(1, Fraction(1, 2)))
    assert thick and outside == 4  # H = {-1,0,1}, 4 of 7 outside >= 3.5


def test_is_thick_concentrated_set():
    params = GroupParams(11, 1)
    X = ms(params, [(0,), (1,), (10,)])
    thick, outside = is_thick(X, LinearFunctional(0, (1,)), ThicknessParams(1, Fraction(1, 100)))
    assert not thick and outside == 0


def test_is_thick_rejects_constant():
    X = full_line(7)
    with pytest.raises(ValueError):
        is_thick(X, LinearFunctional(3, (0,)), ThicknessParams(1, Fraction(1, 2)))


def test_is_thick_matches_naive_recount():
    rng = random.Random(17)
    params = GroupParams(11, 2)
    X = ms(params, [(rng.randrange(11), rng.randrange(11)) for _ in range(40)])
    for _ in range(30):
        lin = (rng.randrange(11), rng.randrange(11))
        if lin == (0, 0):
            continue
        xi = LinearFunctional(rng.randrange(11), lin)
        _, outside = is_thick(X, xi, ThicknessParams(2, Fraction(3, 10)))
        naive = sum(
            m
            for x, m in X.items()
            if not in_interval(xi.evaluate(x, 11), 2, 11)
        )
        assert outside == naive


def test_inside_count_past_int64():
    # iterated growth functions pass 2^63 quickly; a window that wide holds
    # every point
    rng = random.Random(3)
    X = ms(GroupParams(31, 2), [(rng.randrange(31), rng.randrange(31)) for _ in range(50)])
    for K in (2 ** 70, 2 ** 70 + 5):
        assert inside_count(X, LinearFunctional(7, (1, 3)), K) == len(X)


def test_find_thin_box_and_thick_line():
    params = GroupParams(11, 2)
    box = ms(params, [(a % 11, b % 11) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    thin = find_thin_functional(box, 1, Fraction(1, 10), canonical_linear_parts(11, 2))
    assert thin is not None and thin.linear in ((0, 1), (1, 0))

    line = full_line(11)
    # 2K+1 < p and delta <= (p - 2K - 1)/p: the full line is thick everywhere
    assert find_thin_functional(line, 2, Fraction(6, 11), canonical_linear_parts(11, 1)) is None


def test_find_thin_two_clusters():
    params = GroupParams(31, 2)
    rng = random.Random(23)
    pts = set()
    while len(pts) < 30:
        pts.add((rng.choice([0, 1, 2]) % 31, rng.randrange(31)))
    while len(pts) < 60:
        pts.add(((rng.choice([15, 16, 17])) % 31, rng.randrange(31)))
    X = ms(params, sorted(pts))
    # clusters sit at x_1 in {0,1,2} u {15,16,17}; the doubling map sends the
    # labels to {30,0,1,2,3,4}, so a K=3 window along 2*x_1 swallows all of X
    found = find_thin_functional(X, 3, Fraction(1, 100), canonical_linear_parts(31, 2))
    assert found is not None
    assert found.linear[1] == 0 and found.linear[0] != 0
    n_inside = sum(
        m for x, m in X.items()
        if in_interval(found.evaluate(x, 31), 3, 31)
    )
    assert n_inside == len(X)
    # at K = 1 no scaling fits six label values into a width-3 window
    assert find_thin_functional(X, 1, Fraction(1, 100), canonical_linear_parts(31, 2)) is None


def test_tube_box_keeps_everything():
    params = GroupParams(11, 2)
    box = ms(params, [(a % 11, b % 11) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    Y, cert = tube_decompose(box, 1, Fraction(1, 16), G44)
    assert cert.l == 2 and len(Y) == len(box)
    ok, _, _ = cert.validate(Y)
    assert ok


def test_tube_full_line_is_already_tubular():
    line = full_line(11)
    Y, cert = tube_decompose(line, 0, Fraction(1, 100), G44)
    assert cert.l == 0 and len(Y) == len(line)
    ok, frac, _ = cert.validate(Y)
    assert ok and frac >= Fraction(1, 100)


def test_tube_slab():
    params = GroupParams(11, 2)
    slab = ms(params, [(a % 11, b) for a in (-1, 0, 1) for b in range(11)])
    Y, cert = tube_decompose(slab, 0, Fraction(1, 16), G1)
    assert cert.l == 1 and len(Y) == 33
    # the thin direction moved to coordinate 1
    assert cert.psi.matrix[0] == (1, 0)
    ok, frac, worst = cert.validate(Y)
    assert ok, (frac, worst)


def test_tube_mass_bound_exact():
    rng = random.Random(3)
    for trial in range(20):
        p = rng.choice([11, 13])
        params = GroupParams(p, 2)
        pts = {(rng.randrange(p), rng.randrange(p)) for _ in range(rng.randrange(5, 40))}
        X = ms(params, sorted(pts))
        delta = Fraction(1, rng.choice([16, 20, 32]))
        Y, cert = tube_decompose(X, 0, delta, G1)
        assert Fraction(len(Y)) >= (1 - Fraction(2 ** 3) * delta) * len(X)
        ok, _, _ = cert.validate(Y)
        assert ok


def test_tube_requires_small_delta():
    with pytest.raises(ValueError):
        tube_decompose(full_line(11), 0, Fraction(1, 2), G1)


def test_decompose_thick_instance_is_trivial():
    params = GroupParams(31, 2)
    rng = random.Random(5)
    cloud = ms(params, sorted({(rng.randrange(31), rng.randrange(31)) for _ in range(200)}))
    dec = decompose(cloud, 0, Fraction(1, 2), G1)
    assert dec.m == 1 and len(dec.x0) == 0 and dec.l == 0
    assert all(ok for _, ok in dec.validate(cloud))


def test_decompose_two_parallel_lines():
    params = GroupParams(31, 2)
    X = ms(params, [(0, b) for b in range(31)] + [(1, b) for b in range(31)])
    dec = decompose(X, 0, Fraction(1, 2), G1)
    assert dec.m == 2
    assert sorted(len(part) for part in dec.parts) == [31, 31]
    assert len(dec.x0) == 0
    assert all(ok for name, ok in dec.validate(X)), dec.validate(X)
    # each part is a line: 1-dimensional hull
    from zerosum.group import affine_hull

    for part in dec.parts:
        dim, _, _ = affine_hull(part.support(), 31)
        assert dim == 1


def test_decompose_drops_tiny_fiber():
    params = GroupParams(31, 2)
    pts = [(0, b) for b in range(31)] + [(1, b) for b in range(31)] + [(2, 7)]
    X = ms(params, pts)
    dec = decompose(X, 0, Fraction(1, 2), G1)
    assert len(dec.x0) >= 1 and (2, 7) in dec.x0
    assert Fraction(len(dec.x0)) <= Fraction(1, 2) * len(X)


def test_decompose_partition_conservation():
    rng = random.Random(8)
    for _ in range(10):
        params = GroupParams(11, 2)
        pts = sorted({(rng.randrange(11), rng.randrange(11)) for _ in range(rng.randrange(3, 60))})
        X = ms(params, pts)
        dec = decompose(X, 0, Fraction(1, 3), G1)
        assert sum(len(part) for part in dec.parts) + len(dec.x0) == len(X)
        assert all(ok for _, ok in dec.validate(X))


def test_decompose_idempotent_on_parts():
    params = GroupParams(31, 2)
    X = ms(params, [(0, b) for b in range(31)] + [(1, b) for b in range(31)])
    dec = decompose(X, 0, Fraction(1, 2), G1)
    for part, frac in [(pt, hull_thickness(pt, G1(dec.K))[0]) for pt in dec.parts]:
        eps = min(Fraction(1, 2), frac)
        again = decompose(part, dec.K, eps, G1)
        assert again.m == 1 and len(again.x0) == 0


def test_strong_decompose_single_part():
    params = GroupParams(31, 2)
    rng = random.Random(5)
    cloud = ms(params, sorted({(rng.randrange(31), rng.randrange(31)) for _ in range(150)}))
    sdec = strong_decompose(cloud, 0, Fraction(1, 4), G1)
    assert sdec.m == 1
    assert set(sdec.subset_certs) == {(0,)}
    assert all(ok for _, ok in sdec.validate(cloud))


def test_strong_decompose_two_lines_all_unions_tubular():
    params = GroupParams(31, 2)
    X = ms(params, [(0, b) for b in range(31)] + [(1, b) for b in range(31)])
    sdec = strong_decompose(X, 0, Fraction(1, 4), G1)
    assert sdec.m == 2
    assert set(sdec.subset_certs) == {(0,), (1,), (0, 1)}
    for subset, sc in sdec.subset_certs.items():
        ok, frac, _ = sc.cert.validate(sdec.union(subset))
        assert ok and frac >= sc.cert.delta
    assert all(ok for _, ok in sdec.validate(X))


def test_strong_decompose_diagonal_union():
    # two parts thick in their hulls whose union is thin along x1 + x2
    params = GroupParams(31, 2)
    pts = [(b % 31, (0 - b) % 31) for b in range(31)]  # x + y = 0
    pts += [(b % 31, (1 - b) % 31) for b in range(31)]  # x + y = 1
    X = ms(params, pts)
    sdec = strong_decompose(X, 0, Fraction(1, 4), G1)
    assert sdec.m == 2
    cert = sdec.subset_certs[(0, 1)].cert
    assert cert.l >= 1
    assert any(f.linear == (1, 1) for f in cert.functionals)


def test_strong_decompose_removal_accounting():
    rng = random.Random(12)
    params = GroupParams(31, 2)
    pts = set()
    for c in (3, 4):
        for b in range(31):
            pts.add((c, b))
    pts |= {(rng.randrange(31), rng.randrange(31)) for _ in range(40)}
    X = ms(params, sorted(pts))
    eps = Fraction(1, 4)
    sdec = strong_decompose(X, 0, eps, G1)
    assert Fraction(sdec.removed_in_sweeps) < eps * len(X) / 2
    assert Fraction(len(sdec.x0)) <= eps * len(X)
    assert all(ok for _, ok in sdec.validate(X))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mask_unions_match_plain_folds(data):
    """The walk yields every mask from `start` on, in increasing order, each
    with the multiset of all points of the parts whose bits it sets."""
    params = GroupParams(5, 2)
    point = st.tuples(st.integers(0, 4), st.integers(0, 4))
    lists = data.draw(st.lists(st.lists(point, max_size=5), min_size=1, max_size=6))
    m = len(lists)
    parts = [ms(params, pts) for pts in lists]
    start = data.draw(st.integers(1, 2 ** m + 1))
    walked = list(thickness._mask_unions(parts, start))
    assert [mask for mask, _ in walked] == list(range(start, 2 ** m))
    for mask, X_S in walked:
        assert X_S == ms(params, [pt for i in range(m) if (mask >> i) & 1 for pt in lists[i]])


def _naive_sweep(X, eps, g, tube):
    """The sweep as a plain loop: every union folded afresh from the current
    parts, in mask order.  Returns (parts, x0, removed, {subset: (cert,
    delta_j)}, the unions handed to `tube`)."""
    params, d = X.params, X.params.d
    dec = decompose(X, 0, eps / 2, IteratedGrowth(g, d + 1))
    parts, x0, m = list(dec.parts), dec.x0, dec.m
    removed, certs, seen = 0, {}, []
    for mask in range(1, 2 ** m):
        subset = tuple(i for i in range(m) if (mask >> i) & 1)
        X_S = GroupMultiset.empty(params)
        for i in subset:
            X_S = X_S.union(parts[i])
        seen.append(X_S)
        delta_j = eps * dec.mu * dec.delta / 2 ** (d + 2 + m + (d + m + 4) * mask)
        Y, cert = tube(X_S, dec.K, delta_j, g, validate=False)
        certs[subset] = (cert, delta_j)
        dropped = X_S.minus(Y)
        removed += len(dropped)
        x0 = x0.union(dropped)
        for i in subset:
            mine = [e for e in dropped.iter_with_multiplicity() if e in parts[i]]
            parts[i] = parts[i].minus(ms(params, mine))
    return parts, x0, removed, certs, seen


def test_strong_sweep_restarts_after_a_drop(monkeypatch):
    """No real instance drops a point in the sweep, so the tube reduction is
    patched to trim one point z of the second part from every union that
    holds it.  The first such union is mask 2; mask 3 is built on mask 2's
    union, so a walk that went on after the drop would hand the reduction a
    stale union that still holds z."""
    X = fiber_union(GroupParams(31, 2), 3, seed=0, offset=1)
    eps = Fraction(1, 4)
    z = strong_decompose(X, 0, eps, G1).parts[1].support()[-1]
    real_tube = thickness.tube_decompose
    seen = []

    def trimming(X_S, K, delta, g, validate=True):
        seen.append(X_S)
        Y, cert = real_tube(X_S, K, delta, g, validate=validate)
        return Y.select([e != z for e in Y.support()]), cert

    parts, x0, removed, certs, naive_seen = _naive_sweep(X, eps, G1, trimming)
    seen.clear()
    monkeypatch.setattr(thickness, "tube_decompose", trimming)
    sdec = strong_decompose(X, 0, eps, G1)
    assert seen == naive_seen
    assert sdec.m == 3 and sdec.removed_in_sweeps == removed == 1
    assert list(sdec.parts) == parts and z not in sdec.union(range(3))
    assert sdec.x0 == x0 and z in sdec.x0
    assert list(sdec.subset_certs) == list(certs)  # mask order
    for subset, (cert, delta_j) in certs.items():
        sc = sdec.subset_certs[subset]
        assert sc.cert == replace(cert, delta=delta_j / 2)
        assert sc.delta_schedule == delta_j
        assert sc.achieved == cert.validate(sdec.union(subset))[1]
    assert all(ok for _, ok in sdec.validate(X))


def test_strong_decompose_subset_budget_error():
    # 25 box points shatter into 25 single-point parts: the 2^m sweep is
    # hopeless and must fail as a structured budget error
    from zerosum.thickness import SubsetSweepBudgetError
    from zerosum.generators import box

    X = box(GroupParams(11, 2), 2)
    with pytest.raises(SubsetSweepBudgetError):
        strong_decompose(X, 0, Fraction(1, 4), G1, m_budget=12)


def test_decompose_exponent_cap_error():
    from zerosum.thickness import DecompositionBudgetError

    params = GroupParams(31, 2)
    X = ms(params, [(0, b) for b in range(31)] + [(1, b) for b in range(31)])
    with pytest.raises(DecompositionBudgetError):
        decompose(X, 0, Fraction(1, 2), G1, n_cap=0)
