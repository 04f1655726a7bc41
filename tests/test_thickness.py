import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import linalg, multiset, thickness
from zerosum.generators import box, fiber_union, random_cloud
from zerosum.group import AffineIso, GroupParams, LinearFunctional, canonical_linear_parts, in_interval
from zerosum.multiset import GroupMultiset
from zerosum.thickness import (
    GrowthFunction,
    IteratedGrowth,
    ThicknessParams,
    TubularCertificate,
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


def test_value_histogram_exact_past_2_53():
    # float64 weights round 2^53 + 1 down to 2^53; past 2^53 points the
    # counts are summed in two exact halves
    params = GroupParams(7, 1)
    X = GroupMultiset(params, {(0,): 2 ** 53 + 1, (3,): 1})
    x = LinearFunctional(0, (1,))
    assert inside_count(X, x, 1) == 2 ** 53 + 1
    assert is_thick(X, x, ThicknessParams(1, Fraction(1, 2 ** 60))) == (True, 1)
    big = {(0,): 2 ** 62 + 12345, (3,): 2 ** 61 + 7, (5,): 2 ** 26 - 1}
    hist = thickness.value_histogram(GroupMultiset(params, big), [(1,), (2,)])
    assert hist.tolist() == [
        [big.get((v,), 0) for v in range(7)],
        [big.get(((v * 4) % 7,), 0) for v in range(7)],  # 2x = v at x = 4v
    ]


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


def test_tube_reduction_reads_one_kept_table(monkeypatch):
    """When one direction slice holds a set's table, a tube reduction's
    levels, and the certificate's rescan of a tube that keeps the whole
    set, read one table built once: two lines of F_31^2 choose at level 1,
    stop at level 2 and are rescanned (three windows), and a 3 x 3 box of
    F_11^2 chooses at both levels (two windows)."""
    built, real_table = [], thickness._cumulative_table
    windows, real_window = [], thickness.scaling_window_table
    monkeypatch.setattr(thickness, "_cumulative_table", lambda h, p: built.append(p) or real_table(h, p))
    monkeypatch.setattr(thickness, "scaling_window_table", lambda *a: windows.append(a[1]) or real_window(*a))
    lines = fiber_union(GroupParams(31, 2), 2, seed=0, offset=1)
    for X, K0, levels in ((lines, 0, 3), (box(GroupParams(11, 2), 1), 1, 2)):
        built.clear()
        windows.clear()
        Y, cert = tube_decompose(X, K0, Fraction(1, 16), G1)
        assert Y is X and len(built) == 1 and len(windows) == levels


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


@pytest.mark.parametrize("case", ["trims", "re_slices"])
def test_decompose_trims_and_re_slices(monkeypatch, case):
    """Two branches of `decompose` that no other test reaches.  Slicing a
    cloud of F_11^2 with growth 4K+4 leaves points outside the slab, and
    they go to x0.  Ten points of F_11^2 with growth K+1 hold a part,
    certified at an early iterate, that the re-verification sweep finds
    thin at the final one (fraction 0), so it is sliced again on what is
    left of the x0 allowance.  Either way every check of `validate` passes
    and x0 stays within eps|X|."""
    params, eps = GroupParams(11, 2), Fraction(1, 2)
    if case == "trims":
        X, g = random_cloud(params, 33, seed=0), G44
    else:
        pts = [(0, 9), (3, 0), (3, 9), (3, 10), (4, 9), (4, 10), (5, 0), (5, 9), (5, 10), (7, 3)]
        X, g = ms(params, pts), G1
    trimmed, sweeps = [], []
    real_slab, real_part_scan = thickness._in_slab, thickness._part_scan

    def slab(residues, K, p):
        keep = real_slab(residues, K, p)
        trimmed.append(not keep.all())
        return keep

    def part_scan(parts, Kp):
        sweeps.append(len(parts))
        return real_part_scan(parts, Kp)

    monkeypatch.setattr(thickness, "_in_slab", slab)
    monkeypatch.setattr(thickness, "_part_scan", part_scan)
    dec = decompose(X, 0, eps, g)
    assert any(trimmed)
    assert len(sweeps) >= (2 if case == "re_slices" else 1)
    assert all(ok for _, ok in dec.validate(X)), dec.validate(X)
    assert Fraction(len(dec.x0)) <= eps * len(X)


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


def _plain_tube(X, K, delta, g):
    """A tube reduction of X alone, over `_plain_scan(X)`, without the
    rescan `tube_decompose` adds."""
    Y, cert, _last = thickness._tube_reduce(thickness._alone(X), [delta], K, g)[0]
    return (X if Y is None else Y), cert


def _plain_sweep(params, parts, K, g, schedule, tube):
    """The sweep as a plain loop: every union folded afresh from the current
    parts, in mask order, and reduced by `tube` at delta schedule(mask).
    Returns (parts, [dropped], {subset: (cert, delta_j)}, the unions handed
    to `tube`)."""
    parts, m = list(parts), len(parts)
    dropped_sets, certs, seen = [], {}, []
    for mask in range(1, 2 ** m):
        subset = tuple(i for i in range(m) if (mask >> i) & 1)
        X_S = GroupMultiset.empty(params)
        for i in subset:
            X_S = X_S.union(parts[i])
        seen.append(X_S)
        delta_j = schedule(mask)
        Y, cert = tube(X_S, K, delta_j, g)
        certs[subset] = (cert, delta_j)
        dropped = X_S.minus(Y)
        if dropped:
            dropped_sets.append(dropped)
        for i in subset:
            mine = [e for e in dropped.iter_with_multiplicity() if e in parts[i]]
            parts[i] = parts[i].minus(ms(params, mine))
    return parts, dropped_sets, certs, seen


def _naive_sweep(X, eps, g, tube):
    """`strong_decompose`'s sweep as a plain loop.  Returns (parts, x0,
    removed, {subset: (cert, delta_j)}, the unions handed to `tube`)."""
    params, d = X.params, X.params.d
    dec = decompose(X, 0, eps / 2, IteratedGrowth(g, d + 1))
    m = dec.m
    schedule = lambda mask: eps * dec.mu * dec.delta / 2 ** (d + 2 + m + (d + m + 4) * mask)  # noqa: E731
    parts, dropped, certs, seen = _plain_sweep(params, dec.parts, dec.K, g, schedule, tube)
    x0 = dec.x0
    for r in dropped:
        x0 = x0.union(r)
    return parts, x0, sum(len(r) for r in dropped), certs, seen


def _count_rescans(monkeypatch):
    """Patches `thickness._rescan` to record each call; returns the record."""
    calls = []
    real_rescan = thickness._rescan

    def counting(tables, Kp, certs):
        calls.append(Kp)
        return real_rescan(tables, Kp, certs)

    monkeypatch.setattr(thickness, "_rescan", counting)
    return calls


def test_strong_decompose_without_drops_rescans_nothing(monkeypatch):
    """The scan that ends each union's tube reduction is its rescan, so a
    sweep that drops nothing rescans no union; `validate` still rescans
    them all, and finds the recorded numbers."""
    X = fiber_union(GroupParams(31, 2), 3, seed=0, offset=1)
    rescans = _count_rescans(monkeypatch)
    sdec = strong_decompose(X, 0, Fraction(1, 4), G1)
    assert sdec.removed_in_sweeps == 0 and rescans == []
    assert all(ok for _, ok in sdec.validate(X))
    assert len(rescans) == 1


def _union_blocks():
    """Runs the body of a loop over it three times: with the module's union
    blocks, and with _BLOCK_CELLS forced so that a block holds one union,
    scanned one direction slice at a time, or all 2^m - 1 of them.  Yields
    m -> the low bits a block then covers (`_low_bits`), or None for the
    module's own."""
    for cells, bits in ((None, lambda m: None), (1, lambda m: 0), (2 ** 40, lambda m: m)):
        with pytest.MonkeyPatch.context() as mp:
            if cells is not None:
                mp.setattr(thickness, "_BLOCK_CELLS", cells)
            yield bits


def test_strong_sweep_restarts_after_a_drop():
    """No real instance drops a point in the sweep, so the sweep's tube
    reduction is patched to trim one point z of the second part from every
    union that holds it.  The first such union is mask 2; mask 3 is built on
    mask 2's union, so a walk that went on after the drop would hand the
    reduction a stale union that still holds z, and histograms not rebuilt
    after it would scan a union that still counts z.  The patched reduction
    trims every union of its block, so a sweep that recorded a union past a
    drop in its block would record a stale one, and a second drop.  It runs
    with each size of union block (`_union_blocks`)."""
    X = fiber_union(GroupParams(31, 2), 3, seed=0, offset=1)
    eps = Fraction(1, 4)
    z = strong_decompose(X, 0, eps, G1).parts[1].support()[-1]
    real_reduce = thickness._tube_reduce
    seen, blocks = [], []

    def trimming(X_S, K, delta, g):
        seen.append(X_S)
        Y, cert = _plain_tube(X_S, K, delta, g)
        return Y.select([e != z for e in Y.support()]), cert

    def trimming_reduce(batch, deltas, K, g, recorded=None):
        reduced = []
        for j, (Y, cert, last) in enumerate(real_reduce(batch, deltas, K, g, recorded)):
            X_S = batch.union(j)
            for i in (1, 2):
                for basis in ([(1, 0), (0, 1)], [(1, 0)], [(0, 1)], [(1, 1)]):
                    Ki = g.iterate(i, K)
                    assert batch.scan(Ki, [j], [basis]) == [thickness._plain_scan(X_S)(Ki, basis)]
            Y = X_S if Y is None else Y
            reduced.append((Y.select([e != z for e in Y.support()]), cert, last))
        # the unions up to the first drop are the ones the sweep records
        kept = next((j + 1 for j, (Y, _, _) in enumerate(reduced) if len(Y) < batch.sizes[j]), len(reduced))
        seen.extend(batch.union(j) for j in range(kept))
        blocks.append(len(reduced))
        return reduced

    parts, x0, removed, certs, naive_seen = _naive_sweep(X, eps, G1, trimming)
    for bits in _union_blocks():
        seen.clear()
        blocks.clear()
        with pytest.MonkeyPatch.context() as mp:
            rescans = _count_rescans(mp)
            mp.setattr(thickness, "_tube_reduce", trimming_reduce)
            sdec = strong_decompose(X, 0, eps, G1)
        assert len(rescans) == 1  # the drop makes the builder rescan every union
        assert seen == naive_seen
        # one union per block, or the first walk's block 1..7 cut at mask 2
        # and the next walk's 3..7
        assert blocks == {None: [7, 5], 0: [1] * 7, 3: [7, 5]}[bits(3)]
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


def test_validate_builds_one_table_per_part(monkeypatch):
    """Forged radii cost no tables: `validate` projects each part once,
    into the histograms that every scan of it reads
    (`GroupMultiset.histograms`), however many distinct K' the union
    certificates carry, and still re-derives every achieved fraction.  The
    parts are rebuilt first, so none holds the histograms the build left on
    it; at p = 31 one `value_histogram` call covers every direction."""
    X = fiber_union(GroupParams(31, 2), 3, seed=0, offset=1)
    sdec = strong_decompose(X, 0, Fraction(1, 4), G1)
    for k, sc in enumerate(sdec.subset_certs.values()):
        sc.cert = replace(sc.cert, K_prime=sdec.K + 4 + k)
        sc.achieved = sc.cert.validate(sdec.union(sc.subset))[1]
    sdec.parts = tuple(GroupMultiset(part.params, dict(part.items())) for part in sdec.parts)
    projected = _count_projections(monkeypatch)
    checks = dict(sdec.validate(X))
    assert not checks["tubular_certs"] and checks["achieved"]
    assert len(projected) == 3 and all(Y is part for Y, part in zip(projected, sdec.parts))


def _count_projections(monkeypatch) -> list:
    """The multisets `value_histogram` projects from now on, one entry per
    call, held so that their ids stay distinct."""
    projected, real = [], thickness.value_histogram

    def recording(X, directions):
        projected.append(X)
        return real(X, directions)

    monkeypatch.setattr(thickness, "value_histogram", recording)
    return projected


def test_strong_decompose_projects_each_multiset_once(monkeypatch):
    """Across `strong_decompose` and then `validate`, `value_histogram` runs
    once per distinct multiset scanned: the sets `decompose` slices or
    certifies, the re-verification sweeps over its parts, the union blocks'
    part histograms and `validate`'s part scans and rescans all read the
    histograms built on each set once.  At p <= 31 in d = 2 one call covers
    every direction.  Each set's affine hull is found once as well
    (`GroupMultiset.hull`): distinct sets here have distinct supports."""
    projected = _count_projections(monkeypatch)
    hulls, real_hull = [], multiset.affine_hull

    def hull(points, p):
        hulls.append(tuple(points))
        return real_hull(points, p)

    monkeypatch.setattr(multiset, "affine_hull", hull)
    instances = [
        fiber_union(GroupParams(31, 2), 3, seed=0, offset=1),
        random_cloud(GroupParams(31, 2), 93, seed=4),
        box(GroupParams(11, 2), 1),
        random_cloud(GroupParams(17, 1), 8, seed=1),
    ]
    for X in instances:
        sdec = strong_decompose(X, 0, Fraction(1, 4), G1)
        assert all(ok for _, ok in sdec.validate(X))
        assert all(any(Y is part for Y in projected) for part in sdec.parts)
        assert all(part.support() in hulls for part in sdec.parts)
    assert len({id(Y) for Y in projected}) == len(projected)
    assert len(set(hulls)) == len(hulls)


def test_part_histograms_are_read_only():
    """A multiset's histograms are read-only: an in-place write raises.  A
    scan of every union block, with each size of block and with one low
    bit per block, builds its sums in arrays of its own (`lows`, and the
    running sum `_move` adds parts into and subtracts them from), and
    leaves each part holding the same histograms with the same counts."""
    params = GroupParams(7, 2)
    parts = [ms(params, [(x, y) for y in range(7)] + [(x + 3, x)]) for x in range(3)]
    hists = [part.histograms() for part in parts]
    counts = [h.copy() for h in hists]
    assert not any(h.flags.writeable for h in hists)
    with pytest.raises(ValueError):
        hists[0][0, 0] = 1
    with pytest.raises(ValueError):
        np.add(hists[0], 1, out=hists[0])
    one_low_bit = -(-thickness._UnionTables(parts)._union_bytes() // 4)
    for cells in (None, 1, 2 ** 40, one_low_bit):
        with pytest.MonkeyPatch.context() as mp:
            if cells is not None:
                mp.setattr(thickness, "_BLOCK_CELLS", cells)
            for masks, batch in thickness._UnionTables(parts).blocks(1):
                columns = list(range(len(masks)))
                assert all(batch.scan(1, columns, [linalg.identity(2)] * len(masks)))
        assert all(part.histograms() is h for part, h in zip(parts, hists))
        assert all(np.array_equal(h, c) for h, c in zip(hists, counts))


@pytest.mark.parametrize("p, d, n_fibers", [(31, 2, 3), (61, 2, 6), (31, 3, 2)])
def test_unions_scanned_alone_match_summed_tables(monkeypatch, p, d, n_fibers):
    """With _BLOCK_CELLS = 1 each union is a block of its own, scanned one
    direction at a time: the decomposition, every certificate and every
    achieved fraction agree with the module's blocks, and so does
    `validate`."""
    X = fiber_union(GroupParams(p, d), n_fibers, seed=0, offset=1)
    tabled = strong_decompose(X, 0, Fraction(1, 4), G1)
    monkeypatch.setattr(thickness, "_BLOCK_CELLS", 1)
    tables = thickness._UnionTables(tabled.parts)
    assert tables._low_bits() == 0 and len(tables._slices()) == len(thickness._canonical_directions(p, d))
    alone = strong_decompose(X, 0, Fraction(1, 4), G1)
    assert alone == tabled
    assert tabled.validate(X) == alone.validate(X)
    assert all(ok for _, ok in alone.validate(X))


def test_validate_with_wrong_certificate_count_builds_no_table(monkeypatch):
    """A certificate count that cannot be 2^m - 1 stops `_rescan` before its
    first block, and the part scans, which read each part's own
    histograms, start no union block."""
    X = fiber_union(GroupParams(31, 2), 3, seed=0, offset=1)
    sdec = strong_decompose(X, 0, Fraction(1, 4), G1)
    del sdec.subset_certs[(0, 1, 2)]
    monkeypatch.setattr(thickness._UnionTables, "blocks", lambda self, start: pytest.fail("union block started"))
    checks = dict(sdec.validate(X))
    assert checks["part_thickness"] and checks["delta"]
    assert not checks["tubular_certs"] and not checks["achieved"]


# The peak is read from VmHWM, not getrusage: a child's ru_maxrss starts at
# the RSS of the process that forked it, so under pytest it hides the peak.
# VmHWM also holds the compiler's transient, so the child reports the
# `tracemalloc` peaks of the two calls as well, which count numpy's buffers
# and nothing allocated before each call.
STRONG_RSS_SCRIPT = (
    "import sys, tracemalloc\n"
    "from fractions import Fraction\n"
    "from zerosum.generators import fiber_union\n"
    "from zerosum.group import GroupParams\n"
    "from zerosum.thickness import GrowthFunction, strong_decompose\n"
    "def peak_kb():\n"
    "    with open('/proc/self/status') as f:\n"
    "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM'))\n"
    "p, d, n = map(int, sys.argv[1:])\n"
    "X = fiber_union(GroupParams(p, d), n, seed=0, offset=1)\n"
    "before = peak_kb()\n"
    "tracemalloc.start()\n"
    "sdec = strong_decompose(X, 0, Fraction(1, 4), GrowthFunction('affine', 1, 1))\n"
    "swept, traced_sweep = peak_kb(), tracemalloc.get_traced_memory()[1]\n"
    "tracemalloc.reset_peak()\n"
    "valid = all(ok for _, ok in sdec.validate(X))\n"
    "traced_validate = tracemalloc.get_traced_memory()[1]\n"
    "print(sdec.m, before, swept, peak_kb(), int(valid), traced_sweep // 1024, traced_validate // 1024)\n"
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
@pytest.mark.parametrize(
    "p, d, n_fibers, bound_mb", [(61, 2, 6, 2), (31, 3, 3, 8), (41, 3, 3, 3)]
)
def test_strong_decompose_memory_bounded(tmp_path, p, d, n_fibers, bound_mb):
    """The sweep holds each part's value histograms, p cells per direction,
    and those of the input, which `decompose` scanned, a running union sum,
    and one union block's table and window, in the smallest unsigned dtype:
    one byte a cell for the 61-point lines of F_61^2, two for the planes of
    F_31^3 and F_41^3.  One union's table there passes half the union
    block's budget, so a block is one union (`_UnionTables._low_bits`), and
    in d = 3 it passes the whole budget, so each scan builds its tables one
    direction slice at a time.  Measured in a child that compiles its
    modules, as VmHWM growth over the peak before the call and as the
    sweep's `tracemalloc` peak, for 61-2-6, 31-3-3 and 41-3-3: 0.96, 1.21
    and 1.81 MB, and 0.88, 1.54 and 2.22 MB.  When the hull scans projected
    each set afresh and the union tables kept histograms of their own, they
    were 0.89, 1.03 and 1.34 MB, and 0.68, 1.48 and 2.08 MB; with per-part
    cumulative tables, before that, 0.84, 5.35 and 1.12 MB, and 1.56, 5.76
    and 1.96 MB (three planes of F_41^3 were then past the tables' bound and
    each union was folded and projected on its own).  `validate` reads the
    same blocks, and both its peaks stay under the same bound: 0.96, 1.33
    and 1.81 MB of VmHWM growth, and `tracemalloc` peaks of 0.90, 1.41 and
    2.08 MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", STRONG_RSS_SCRIPT, str(p), str(d), str(n_fibers)],
        capture_output=True,
        text=True,
        timeout=300,
        # a fresh bytecode cache: the child compiles the package as a fresh
        # checkout does, whatever .pyc files src holds
        env={**os.environ, "PYTHONPATH": src, "PYTHONPYCACHEPREFIX": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr
    m, before, swept, validated, valid, traced_sweep, traced_validate = map(int, proc.stdout.split())
    assert m == n_fibers and valid
    assert swept - before < bound_mb * 1024, f"peak RSS grew by {(swept - before) // 1024} MB"
    assert validated - before < bound_mb * 1024, f"validate's peak RSS grew by {(validated - before) // 1024} MB"
    assert traced_sweep < bound_mb * 1024, f"the sweep's traced peak is {traced_sweep // 1024} MB"
    assert traced_validate < bound_mb * 1024, f"validate's traced peak is {traced_validate // 1024} MB"


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


def _direct_windows(X, K, dirs):
    """[a0, c-1, i] = the points of X, with multiplicity, at which
    c * dirs[i] + a0 lies in [-K, K], for every a0 and c <= (p-1)/2: the
    value of every point under every such functional, in one broadcast."""
    p = X.params.p
    pts, mults = X.arrays()
    a0 = np.arange(p)[:, None, None, None]
    c = np.arange(1, (p + 1) // 2)[None, :, None, None]
    values = (c * (dirs @ pts.T) + a0) % p  # [a0, c-1, i, point]
    K = min(K, p)  # as in_interval reads it: past p every residue is inside
    inside = (values <= K) | (values >= p - K)
    return inside.astype(np.int64) @ mults


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_union_tables_sum_their_parts(data):
    """The in-tube windows of `_cumulative_table` of a sum of part
    histograms count the union's points directly, at every radius from 0
    to p + 1 and at 2^64, and `blocks` yields every mask from `start` on,
    in increasing order, with its union and scans that are the scans of
    each union, whichever blocks were left unscanned before it: with each
    size of union block (`_union_blocks`), with one low bit per block, and
    with each union scanned in slices of four directions, the last of two.
    Multiplicities up to 200 make a union of two parts overflow one
    byte."""
    params = GroupParams(5, 2)
    point = st.tuples(st.integers(0, 4), st.integers(0, 4))
    entries = data.draw(
        st.lists(st.dictionaries(point, st.integers(1, 200), min_size=1, max_size=4), min_size=1, max_size=5)
    )
    parts, m = [GroupMultiset(params, e) for e in entries], len(entries)
    dirs = thickness._canonical_directions(5, 2)
    dtype = np.min_scalar_type(sum(len(part) for part in parts))
    bases = st.sampled_from([[(1, 0), (0, 1)], [(1, 0)], [(0, 1)], [(1, 2)]])
    start = data.draw(st.integers(1, 2 ** m + 1))

    def union(mask):
        points = {}
        for i in thickness._subset(mask):
            for x, mult in entries[i].items():
                points[x] = points.get(x, 0) + mult
        return GroupMultiset(params, points)

    def walk(windows):
        tables, masks_seen = thickness._UnionTables(parts), []
        for masks, batch in tables.blocks(start):
            masks_seen += masks
            for j, mask in enumerate(masks):
                X_S = batch.union(j)
                assert X_S == union(mask) and batch.sizes[j] == len(X_S)
                if windows:
                    hists = sum(tables.parts[i].histograms().astype(dtype) for i in thickness._subset(mask))
                    summed = thickness._cumulative_table(hists.T, 5)
                    for r in list(range(7)) + [2 ** 64]:
                        window = thickness.scaling_window_table(summed, r)
                        assert window.dtype == dtype
                        assert (window == _direct_windows(X_S, r, dirs)).all()
            if not data.draw(st.booleans()):
                continue  # a block left unscanned
            for j in range(len(masks)):
                K, basis = data.draw(st.integers(0, 6)), data.draw(bases)
                assert batch.scan(K, [j], [basis]) == [thickness._plain_scan(batch.union(j))(K, basis)]
            # several columns of a block in one scan
            active = data.draw(st.lists(st.integers(0, len(masks) - 1), min_size=1, unique=True))
            K, basis = data.draw(st.integers(0, 6)), data.draw(bases)
            plain = [thickness._plain_scan(batch.union(j))(K, basis) for j in active]
            assert batch.scan(K, active, [basis] * len(active)) == plain
        assert masks_seen == list(range(start, 2 ** m))

    for bits in _union_blocks():
        walk(windows=bits(m) is None)
    with pytest.MonkeyPatch.context() as mp:
        # one low bit: blocks of two unions, each past the first on moved
        # high sums
        mp.setattr(thickness, "_BLOCK_CELLS", -(-thickness._UnionTables(parts)._union_bytes() // 4))
        assert thickness._UnionTables(parts)._low_bits() == min(m, 1)
        walk(windows=False)
        # a slice holds four of the six directions: 8 _BLOCK_CELLS bytes
        # are four directions' p (p-1)/2 cells
        mp.setattr(thickness, "_BLOCK_CELLS", 5 * dtype.itemsize)
        tables = thickness._UnionTables(parts)
        assert tables._low_bits() == 0 and tables._slices() == [slice(0, 4), slice(4, 8)]
        walk(windows=False)


def test_union_scans_read_scaling_window_table(monkeypatch):
    """Each of the sweep's tube reductions reads its windows through the
    public `scaling_window_table`, so a wrapper of it counts union scans as
    well as single ones: one call per level for a whole block of unions."""
    calls = []
    real_window = thickness.scaling_window_table

    def counting(C, K, out=None):
        calls.append(K)
        return real_window(C, K, out)

    per_block = []
    real_reduce = thickness._tube_reduce

    def reducing(batch, deltas, K, g, recorded=None):
        before = len(calls)
        found = real_reduce(batch, deltas, K, g, recorded)
        per_block.append((len(batch.sizes), len(calls) - before))
        return found

    monkeypatch.setattr(thickness, "scaling_window_table", counting)
    monkeypatch.setattr(thickness, "_tube_reduce", reducing)
    sdec = strong_decompose(fiber_union(GroupParams(31, 2), 3, seed=0, offset=1), 0, Fraction(1, 4), G1)
    assert sum(size for size, _ in per_block) == 2 ** sdec.m - 1 == 7
    # the seven unions share one block, and each level reads one window for
    # all of them: at least one level, at most d = 2
    assert [size for size, _ in per_block] == [7]
    assert all(1 <= k <= 2 for _, k in per_block)


@st.composite
def part_families(draw):
    """(params, disjoint nonempty parts with multiplicities) in d = 1..3."""
    p, d = draw(st.sampled_from([(5, 1), (11, 1), (7, 2), (11, 2), (5, 3)]))
    coords = st.tuples(*[st.integers(0, p - 1)] * d)
    points = draw(st.lists(coords, min_size=1, max_size=30, unique=True))
    m = draw(st.integers(1, min(4, len(points))))
    rest = len(points) - m
    owner = list(range(m)) + draw(st.lists(st.integers(0, m - 1), min_size=rest, max_size=rest))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    params = GroupParams(p, d)
    return params, [
        GroupMultiset(params, {x: k for x, o, k in zip(points, owner, mults) if o == i}) for i in range(m)
    ]


def _invertible_psi(data, p, d):
    """A random psi = (P L U, s): L unit lower triangular, U upper triangular
    with a nonzero diagonal, P a row permutation."""
    entry = st.integers(0, p - 1)
    unit = st.integers(1, p - 1)
    low = [[data.draw(entry) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    up = [[data.draw(entry if j > i else unit) if j >= i else 0 for j in range(d)] for i in range(d)]
    lu = [[sum(low[i][k] * up[k][j] for k in range(d)) % p for j in range(d)] for i in range(d)]
    order = data.draw(st.permutations(range(d)))
    shift = data.draw(st.lists(entry, min_size=d, max_size=d))
    return AffineIso(tuple(tuple(lu[i]) for i in order), tuple(shift))


def _brute_fiber_scan(Y, l, K):
    """The largest count of Y in H(f, K) over every f non-constant on the
    fiber factor {0}^l x F_p^(d-l), counted point by point."""
    p, d = Y.params.p, Y.params.d
    return max(
        sum(m for y, m in Y.items() if in_interval(LinearFunctional(a0, lam).evaluate(y, p), K, p))
        for lam in itertools.product(range(p), repeat=d)
        if any(lam[l:])
        for a0 in range(p)
    )


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(5, 1), (11, 1), (7, 2), (11, 2), (5, 3)]), st.data())
def test_certificate_rescan_matches_fiber_scan_of_image(shape, data):
    """`validate` with no scan pulls psi back onto X: its (ok, fraction) are
    those of a point-by-point scan of psi(X) along the fiber axes, and its
    `worst`, in X's coordinates, leaves that fraction of X outside.  X is
    psi^-1 of a set in [-B, B]^l x F_p^(d-l), so the directions the rescan
    must leave out are the thin ones."""
    p, d = shape
    params = GroupParams(p, d)
    psi = _invertible_psi(data, p, d)
    l, B = data.draw(st.integers(0, d)), data.draw(st.integers(0, p // 2))
    coords = st.tuples(*[st.integers(-B, B)] * l, *[st.integers(0, p - 1)] * (d - l))
    image = data.draw(st.lists(st.tuples(coords, st.integers(1, 3)), min_size=1, max_size=30))
    inverse, entries = psi.inverse(p), {}
    for y, mult in image:
        x = inverse.apply(y, p)
        entries[x] = entries.get(x, 0) + mult
    X = GroupMultiset(params, entries)
    K, K_prime = data.draw(st.one_of(st.just(B), st.integers(0, p))), data.draw(st.integers(0, p + 1))
    delta = data.draw(st.fractions(min_value=Fraction(1, 50), max_value=1))
    ok, frac, worst = TubularCertificate(params, l, psi, K, K_prime, delta, ()).validate(X)
    Y = GroupMultiset.from_points(params, [psi.apply(x, p) for x, m in X.items() for _ in range(m)])
    if not all(in_interval(y[k], K, p) for y in Y.support() for k in range(l)):
        assert (ok, frac, worst) == (False, 0, None)
        return
    if l == d:
        assert (ok, frac, worst) == (True, 1, None)
        return
    n = len(X)
    inside = _brute_fiber_scan(Y, l, K_prime)
    assert (ok, frac) == (Fraction(n - inside, n) >= delta, Fraction(n - inside, n))
    outside = sum(m for x, m in X.items() if not in_interval(worst.evaluate(x, p), K_prime, p))
    assert Fraction(outside, n) == frac


def _check_rescans(tables, certs, Kp):
    """`_rescan` gives `TubularCertificate.validate` of every union X_S,
    folded from the current parts, in mask order: on `tables`, and again
    with each union a block of its own, scanned one direction at a time
    (_BLOCK_CELLS = 1).  No window is derived at a radius past p, however
    large a K' is, other than the part scans' at Kp."""
    parts = tables.parts
    params = parts[0].params
    unions = {mask: thickness._fold(params, parts, thickness._subset(mask)) for mask in range(1, 2 ** len(parts))}
    want = [(mask, certs[thickness._subset(mask)]) for mask in unions]
    verdicts = [sc.cert.validate(unions[mask]) for mask, sc in want]
    real_window, radii = thickness.scaling_window_table, []

    def recording(C, K, out=None):
        radii.append(K)
        return real_window(C, K, out)

    for sliced in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if sliced:
                mp.setattr(thickness, "_BLOCK_CELLS", 1)
                tables = thickness._UnionTables(parts)
                assert len(tables._slices()) == len(thickness._canonical_directions(params.p, params.d))
            mp.setattr(thickness, "scaling_window_table", recording)
            _scans, _delta, rescans = thickness._rescan(tables, Kp, certs)
        assert [(mask, sc) for mask, sc, _ in rescans] == want
        assert [verdict for _, _, verdict in rescans] == verdicts
        assert all(K <= max(params.p, Kp) for K in radii)
    for (mask, sc), (ok, frac, worst) in zip(want, verdicts):
        if worst is not None:  # in X's coordinates, it attains the fraction
            X_S = unions[mask]
            n = len(X_S)
            assert Fraction(n - inside_count(X_S, worst, sc.cert.K_prime), n) == frac


def test_rescan_block_mixes_forged_certificates():
    """One block holds all 15 unions of four lines of F_11^2, and their
    certificates mix every way a forged one can go: a singular psi, a psi
    that maps a point outside the box, l = d, and K' of 0, (p-1)/2 and
    2^64, the radii shared across values of l.  Each union's rescan is
    `TubularCertificate.validate` on the union, with each size of union
    block and with each union scanned a direction at a time
    (`_check_rescans`).  An artifact with no parts has no union to
    rescan."""
    p = 11
    params = GroupParams(p, 2)
    parts = [ms(params, [(x, y) for y in range(p)]) for x in range(4)]
    identity = AffineIso(((1, 0), (0, 1)), (0, 0))
    swap = AffineIso(((0, 1), (1, 3)), (2, 5))

    def cert(l, psi, K, K_prime, delta=Fraction(1, 8)):
        return TubularCertificate(params, l, psi, K, K_prime, delta, ())

    kinds = [
        cert(1, AffineIso(((1, 2), (2, 4)), (0, 0)), p, 1),  # singular
        cert(1, identity, 0, 1),  # x = 1, 2, 3 leave [-0, 0]
        cert(2, identity, p, 3),  # l = d
        cert(0, swap, 0, 0),
        cert(1, identity, 5, 0),
        cert(1, swap, p, (p - 1) // 2),
        cert(0, identity, 3, 2 ** 64),
        cert(1, swap, p, 2 ** 64, delta=Fraction(1)),
    ]
    certs = {}
    for mask in range(1, 2 ** 4):
        subset = thickness._subset(mask)
        certs[subset] = thickness.SubsetCertificate(subset, kinds[mask % len(kinds)], Fraction(1, 4), Fraction(0))
    for bits in _union_blocks():
        tables = thickness._UnionTables(parts)
        assert bits(4) is not None or [len(masks) for masks, _ in tables.blocks(1)] == [15]
        _check_rescans(tables, certs, 1)
    assert thickness._rescan(thickness._UnionTables([]), 1, {}) == ([], 1, [])


def _sweep_against_oracle(params, parts, K, g, schedule, data=None, bits=None):
    """Runs the sweep on union tables and the plain sweep over `_plain_tube`
    on the same parts, and requires the same parts, drops, certificates (so
    the same chosen functionals), and rescans that agree with
    `TubularCertificate.validate` on each final union: for the sweep's
    certificates and, when `data` is given, for ones with a random
    invertible psi and any K'.  A block covers `bits` low mask bits, when
    given.  Returns the number of unions that dropped points."""
    p, d = params.p, params.d
    tables = thickness._UnionTables(parts)
    assert bits is None or tables._low_bits() == bits
    try:
        exp_parts, exp_dropped, exp_certs, _ = _plain_sweep(params, parts, K, g, schedule, _plain_tube)
    except ValueError:  # a part emptied by a drop leaves an empty union
        with pytest.raises(ValueError):
            thickness._sweep(tables, K, g, schedule)
        return 0
    certs, dropped = thickness._sweep(tables, K, g, schedule)
    assert tables.parts == exp_parts and dropped == exp_dropped
    assert list(certs) == list(exp_certs)  # mask order
    for subset, (cert, delta_j) in exp_certs.items():
        assert certs[subset].cert == replace(cert, delta=delta_j / 2)
        assert certs[subset].delta_schedule == delta_j
    if not all(tables.parts):
        return len(dropped)
    _check_rescans(tables, certs, g(K))
    if data is not None:
        for sc in certs.values():
            K_prime = data.draw(st.integers(0, 2 * p))
            sc.cert = TubularCertificate(
                params, data.draw(st.integers(0, d)), _invertible_psi(data, p, d),
                data.draw(st.one_of(st.just(p), st.integers(0, p))), K_prime, Fraction(1, 8), (),
            )
        _check_rescans(tables, certs, g(K))
    return len(dropped)


@settings(max_examples=100, deadline=None)
@given(part_families(), st.integers(0, 2), st.sampled_from([G1, G44]), st.integers(1, 24), st.data())
def test_sweep_matches_per_union_oracle(family, K, g, k, data):
    params, parts = family
    d = params.d
    schedule = lambda mask: Fraction(1, 2 ** (d + 1) + k + mask)  # noqa: E731
    for bits in _union_blocks():
        _sweep_against_oracle(params, parts, K, g, schedule, data, bits(len(parts)))



def test_sweep_matches_per_union_oracle_on_a_box():
    """`part_families` draws at most four parts.  The box [-1, 1]^2 of
    F_11^2 decomposes into nine single points, so its sweep reduces 511
    unions, in blocks of 256, in one block and one by one, and every union
    chooses the same two functionals: one psi serves them all, built once
    per block, against a psi built per union by the oracle."""
    X = box(GroupParams(11, 2), 1)
    eps, d = Fraction(1, 4), 2
    dec = decompose(X, 0, eps / 2, IteratedGrowth(G1, d + 1))
    assert dec.m == 9 and all(len(part) == 1 for part in dec.parts)
    schedule = thickness._delta_schedule(eps, dec.mu, dec.delta, dec.m, d)
    for bits in _union_blocks():
        assert _sweep_against_oracle(X.params, dec.parts, dec.K, G1, schedule, None, bits(9)) == 0
    certs, _dropped = thickness._sweep(thickness._UnionTables(dec.parts), dec.K, G1, schedule)
    assert len(certs) == 511 and len({sc.cert.psi for sc in certs.values()}) == 1


def test_union_tubular_check_reports_fractions():
    """`_settle` compares each union's achieved fraction with its
    certificate's delta on integers, and a failure reports the two
    Fractions themselves."""
    params = GroupParams(7, 2)
    parts = [ms(params, [(0, y) for y in range(7)])]
    cert = TubularCertificate(params, 0, AffineIso(((1, 0), (0, 1)), (0, 0)), 0, 1, Fraction(3, 14), ())
    certs = {(0,): thickness.SubsetCertificate((0,), cert, Fraction(3, 7), Fraction(3, 14))}
    assert thickness._settle(thickness._UnionTables(parts), 1, certs, False, Fraction(1, 2), 7)[0] == Fraction(1, 2)
    certs[(0,)].achieved = Fraction(1, 5)
    with pytest.raises(thickness.InvariantError) as info:
        thickness._settle(thickness._UnionTables(parts), 1, certs, False, Fraction(1, 2), 7)
    exc = info.value
    assert (exc.name, exc.lhs, exc.op, exc.rhs) == ("union_tubular", Fraction(1, 5), ">=", Fraction(3, 14))
    assert type(exc.lhs) is type(exc.rhs) is Fraction
    assert str(exc) == "invariant union_tubular failed: 1/5 >= 3/14 (union (0,))"

def _settled_against_rescan(params, parts, K, g, schedule):
    """Sweeps the parts and settles the builder's numbers as
    `strong_decompose` does (`_settle`, with delta0 the parts' least hull
    fraction at g^(d+1)(K), as `decompose` leaves it), then requires each
    union's achieved fraction, delta and mu to equal what `_rescan` derives
    on the final parts, or the bound that `_settle` found broken to be
    broken there.  Returns the number of unions that dropped points."""
    Kp = IteratedGrowth(g, params.d + 1)(K)
    _scans, delta0 = thickness._part_scan(parts, Kp)
    n = sum(len(part) for part in parts) + 1  # x0 holds one more point
    tables = thickness._UnionTables(parts)
    try:
        certs, dropped = thickness._sweep(tables, K, g, schedule)
    except ValueError:  # a part emptied by a drop leaves an empty union
        return 0
    try:
        settled = thickness._settle(tables, Kp, certs, bool(dropped), delta0, n)
    except thickness.InvariantError as exc:
        assert dropped  # without a drop every bound holds by construction
        if exc.name == "part_nonempty":
            assert not all(tables.parts)
            return len(dropped)
        settled = None
    _scans, rescanned, rescans = thickness._rescan(thickness._UnionTables(tables.parts), Kp, certs)
    fracs = [frac for _, _, (_, frac, _) in rescans]
    if settled is None:
        assert rescanned < delta0 / 2 or any(f < sc.cert.delta for (_, sc, _), f in zip(rescans, fracs))
        return len(dropped)
    delta, mu = settled
    assert [sc.achieved for _, sc, _ in rescans] == fracs
    assert delta == rescanned
    assert mu == thickness._least_share(tables.parts, n, fracs)
    return len(dropped)


@settings(max_examples=100, deadline=None)
@given(part_families(), st.integers(0, 2), st.sampled_from([G1, G44]), st.integers(1, 24))
def test_builder_numbers_match_rescan(family, K, g, k):
    params, parts = family
    d = params.d
    for bits in _union_blocks():
        if bits(len(parts)) is not None:
            assert thickness._UnionTables(parts)._low_bits() == bits(len(parts))
        _settled_against_rescan(params, parts, K, g, lambda mask: Fraction(1, 2 ** (d + 1) + k + mask))


@pytest.mark.parametrize("whole", [True, False])
def test_sweep_that_drops_points_matches_oracle(monkeypatch, whole):
    # the second part is a line and one point off it: each union holding it
    # is thin along x, and its tube leaves (3, 3) out; with blocks, the
    # drop at mask 2 cuts the block of masks 1..3; without `whole` the
    # first round of the loop scans one direction at a time
    params = GroupParams(7, 2)
    parts = [ms(params, [(0, y) for y in range(7)]), ms(params, [(1, y) for y in range(7)] + [(3, 3)])]
    if not whole:
        monkeypatch.setattr(thickness, "_BLOCK_CELLS", 1)
    assert (len(thickness._UnionTables(parts)._slices()) == 1) is whole
    for bits in _union_blocks():
        drops = _sweep_against_oracle(params, parts, 0, G1, lambda mask: Fraction(1, 9), bits=bits(2))
        assert drops > 0
        assert _settled_against_rescan(params, parts, 0, G1, lambda mask: Fraction(1, 9)) > 0
