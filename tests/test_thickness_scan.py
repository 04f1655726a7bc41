"""The blocked all-directions thickness scan against a brute-force oracle.

The oracle enumerates every nonzero linear part of F_p^d and every constant
term, decides admissibility from the definitions (span membership and
non-constancy on a span by enumerating the span, non-constancy on the fiber
factor by its coordinates), and picks the largest in-tube count with the
lexicographically smallest (linear, a0).  The direction families themselves
come from one rule, `nonconstant_directions`, checked against the same
admissibility oracle.
"""

import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zerosum import linalg, thickness
from zerosum.group import GroupParams, LinearFunctional, affine_hull, canonical_linear_parts
from zerosum.multiset import GroupMultiset
from zerosum.thickness import (
    find_thin_functional,
    hull_thickness,
    min_outside_fraction,
    nonconstant_directions,
)

SHAPES = [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 3), (11, 3)]


def _span(vectors, p, d):
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        out.add(tuple(sum(c * v[k] for c, v in zip(coeffs, vectors)) % p for k in range(d)))
    return out


def _family(mode, vectors, l, p, d):
    """(basis handed to nonconstant_directions, admissibility of a nonzero
    linear part decided from the definitions) for one family.

    hull: non-constant on the span of `vectors`; fiber: non-constant on
    {0}^l x F_p^(d-l); excluded: outside the span of `vectors`, whose
    annihilator (the kernel, or all of F_p^d when nothing is excluded) is the
    basis.
    """
    vectors = [tuple(c % p for c in v[:d]) for v in vectors]
    if mode == "hull":
        span = _span(vectors, p, d)
        return vectors, lambda v: any(sum(a * b for a, b in zip(v, s)) % p for s in span)
    if mode == "fiber":
        l = min(l, d)
        return linalg.identity(d)[l:], lambda v: any(v[l:])
    span = _span(vectors, p, d)
    kernel = linalg.kernel_basis(vectors, p) if vectors else linalg.identity(d)
    return kernel, lambda v: v not in span


def _brute_best(X, K, admissible, zero_constant_term):
    """(count, linear, a0) maximising |X ∩ H(linear + a0, K)|, lex-min
    (linear, a0) among maximisers, over admissible nonzero linear parts."""
    p, d = X.params.p, X.params.d
    lin = np.array(
        [v for v in itertools.product(range(p), repeat=d) if any(v) and admissible(v)],
        dtype=np.int64,
    ).reshape(-1, d)
    if len(lin) == 0:
        return None
    pts, mults = X.arrays()
    vals = (lin @ pts.T) % p  # (F, n)
    best = None
    for a0 in [0] if zero_constant_term else range(p):
        r = (vals + a0) % p
        inside = ((r <= K) | (r >= p - K)) @ mults
        for i in range(len(lin)):
            key = (-int(inside[i]), tuple(int(a) for a in lin[i]), a0)
            if best is None or key < best:
                best = key
    return -best[0], best[1], best[2]


def _multiset(p, d, raw):
    params = GroupParams(p, d)
    entries = {}
    for pt, mult in raw:
        key = tuple(c % p for c in pt[:d])
        entries[key] = entries.get(key, 0) + mult
    return GroupMultiset(params, entries)


instances = st.tuples(
    st.sampled_from(SHAPES),
    st.lists(
        st.tuples(st.tuples(*[st.integers(0, 12)] * 3), st.integers(1, 3)),
        min_size=1,
        max_size=25,
    ),
    st.integers(0, 8),
)


@pytest.fixture(params=[None, 1, 500], ids=["default_block", "block_1", "block_cells_500"])
def block_cells(request, monkeypatch):
    """Run each check with the module's block size and with forced small
    blocks, so ties are carried across block boundaries."""
    if request.param is not None:
        monkeypatch.setattr(thickness, "_BLOCK_CELLS", request.param)


families = st.tuples(
    st.sampled_from(["hull", "fiber", "excluded"]),
    st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=3),
    st.integers(0, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SHAPES), families)
def test_nonconstant_directions_match_definitions(shape, family):
    p, d = shape
    basis, admissible = _family(*family, p, d)
    expected = [list(v) for v in canonical_linear_parts(p, d) if admissible(v)]
    dirs = nonconstant_directions(p, d, basis)
    assert dirs.shape == (len(expected), d) and dirs.tolist() == expected


def test_nonconstant_on_span():
    # (1, 0) . (1, 1) = 1 but (1, 4) . (1, 1) = 0 mod 5
    dirs = nonconstant_directions(5, 2, [(1, 1)]).tolist()
    assert [1, 0] in dirs and [1, 4] not in dirs


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instances, families, st.fractions(min_value=Fraction(1, 50), max_value=1))
def test_find_thin_functional_matches_brute_force(block_cells, inst, family, delta):
    (p, d), raw, K = inst
    X = _multiset(p, d, raw)
    basis, admissible = _family(*family, p, d)
    found = find_thin_functional(X, K, delta, nonconstant_directions(p, d, basis))
    best = _brute_best(X, K, admissible, False)
    n = len(X)
    if best is None or not Fraction(n - best[0]) < delta * n:
        assert found is None
    else:
        assert found == LinearFunctional(best[2], best[1])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instances, st.booleans())
def test_min_outside_fraction_matches_brute_force(block_cells, inst, zero_constant_term):
    (p, d), raw, K = inst
    X = _multiset(p, d, raw)
    parts = canonical_linear_parts(p, d)
    frac, worst = min_outside_fraction(X, K, parts, zero_constant_term=zero_constant_term)
    count, linear, a0 = _brute_best(X, K, lambda v: True, zero_constant_term)
    assert (frac, worst) == (Fraction(len(X) - count, len(X)), LinearFunctional(a0, linear))
    assert all(type(a) is int for a in worst.linear) and type(worst.a0) is int


def test_scan_spans_several_blocks():
    """A 400-point set of F_11^3 projects its 133 directions in two blocks
    (`_histograms`)."""
    p, d = 11, 3
    pts = sorted(itertools.product(range(p), repeat=d), key=lambda v: (v[0] * 7 + v[1] * v[2]) % 29)
    X = _multiset(p, d, [(v, 1 + sum(v) % 2) for v in pts[:400]])
    block = max(1, thickness._BLOCK_CELLS // max(p, X.support_size()))
    parts = canonical_linear_parts(p, d)
    assert block < len(parts)
    for K in (0, 2, 5):
        for zero in (False, True):
            count, linear, a0 = _brute_best(X, K, lambda v: True, zero)
            assert min_outside_fraction(X, K, parts, zero_constant_term=zero) == (
                Fraction(len(X) - count, len(X)),
                LinearFunctional(a0, linear),
            )


def _explicit_scan(X, K, dirs, zero_constant_term=False):
    """A scan as one projection of the explicit family: `value_histogram`
    of X along dirs, in int64 and unblocked, then one cumulative table, one
    window, `_maxima` and `_pick` over dirs as given; None for no
    direction."""
    p, d = X.params.p, X.params.d
    dirs = np.asarray(dirs, dtype=np.int64).reshape(-1, d)
    if len(dirs) == 0:
        return None
    hists = thickness.value_histogram(X, dirs)
    window = thickness.scaling_window_table(thickness._cumulative_table(hists, p), K)
    count, c, a0 = thickness._maxima(window[: 1 if zero_constant_term else p])
    return thickness._pick(count[None], c[None], a0[None], dirs, p)[0]


def _as_fraction(found, n):
    return (Fraction(1), None) if found is None else (Fraction(n - found[0], n), LinearFunctional(found[2], found[1]))


@st.composite
def weighted_sets(draw):
    """(X, K, K2) in F_p^d, d = 1..3, with multiplicities scaled so that
    |X| passes 255 or 65535 at times, widening the histograms past uint8."""
    p, d = draw(st.sampled_from([(5, 1), (13, 1), (5, 2), (7, 2), (11, 2), (5, 3), (7, 3)]))
    scale = draw(st.sampled_from([1, 40, 3000]))
    raw = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, p - 1)] * d), st.integers(1, 3)), min_size=1, max_size=25))
    return _multiset(p, d, [(pt, mult * scale) for pt, mult in raw]), draw(st.integers(0, p)), draw(st.integers(0, p))


@settings(max_examples=80, deadline=None)
@given(weighted_sets(), families, st.fractions(min_value=Fraction(1, 50), max_value=1), st.data())
def test_single_set_scans_match_explicit_projection(inst, family, delta, data):
    """`_plain_scan`, `find_thin_functional`, `min_outside_fraction` with and
    without zero_constant_term, and `hull_thickness`, all read off a set's
    cached histograms, against `_explicit_scan` of the family they scan:
    with _BLOCK_CELLS at its default, at 1 (one direction per projection
    and per table slice), and where a table takes two slices.  Each setting
    scans a fresh copy of X, so its histograms are built under it, and one
    scanner at two radii, so a kept table serves both.  A family with
    directions scaled off the canonical ones is scanned as given."""
    X, K, K2 = inst
    p, d = X.params.p, X.params.d
    n, dtype = len(X), np.min_scalar_type(len(X))
    basis, _admissible = _family(*family, p, d)
    dirs = nonconstant_directions(p, d, basis)
    L = len(thickness._canonical_directions(p, d))
    half = -(-L // 2)  # ceil(L/2) directions a slice
    two_slices = -(-half * p * ((p - 1) // 2) * dtype.itemsize // 8)  # their cells in 8 _BLOCK_CELLS bytes
    hull = nonconstant_directions(p, d, affine_hull(X.support(), p)[2])
    scales = np.array(data.draw(st.lists(st.integers(1, p - 1), min_size=len(dirs), max_size=len(dirs))), dtype=np.int64)
    scaled = dirs * scales[:, None] % p
    for cells, slices in ((None, None), (1, L), (two_slices, min(L, 2))):
        with pytest.MonkeyPatch.context() as mp:
            if cells is not None:
                mp.setattr(thickness, "_BLOCK_CELLS", cells)
            assert slices is None or len(thickness._direction_slices(p, L, dtype)) == slices
            Y = GroupMultiset(X.params, dict(X.items()))
            scan = thickness._plain_scan(Y)
            for radius in (K, K2):
                expected = _explicit_scan(X, radius, dirs)
                assert scan(radius, basis) == expected
                thin = find_thin_functional(Y, radius, delta, dirs)
                if expected is not None and Fraction(n - expected[0]) < delta * n:
                    assert thin == LinearFunctional(expected[2], expected[1])
                else:
                    assert thin is None
                for zero in (False, True):
                    frac = min_outside_fraction(Y, radius, dirs, zero_constant_term=zero)
                    assert frac == _as_fraction(_explicit_scan(X, radius, dirs, zero), n)
                    frac = min_outside_fraction(Y, radius, scaled, zero_constant_term=zero)
                    assert frac == _as_fraction(_explicit_scan(X, radius, scaled, zero), n)
                assert hull_thickness(Y, radius) == _as_fraction(_explicit_scan(X, radius, hull), n)
            assert Y.histograms().dtype == dtype


def test_non_canonical_family_is_scanned_as_given():
    """A direction off the canonical ones is scanned along its own
    scalings, c * lam for c <= (p-1)/2, not read off the set's cached
    histograms: along 3x in F_7 the set {0, 1, 2} is first held whole by
    6x + 1, where along x it is by x + 6."""
    X = _multiset(7, 1, [((0,), 1), ((1,), 1), ((2,), 1)])
    assert min_outside_fraction(X, 1, [(3,)]) == (Fraction(0), LinearFunctional(1, (6,)))
    assert min_outside_fraction(X, 1, [(1,)]) == (Fraction(0), LinearFunctional(6, (1,)))
    assert min_outside_fraction(X, 1, [(3,)], zero_constant_term=True) == (Fraction(1, 3), LinearFunctional(0, (3,)))
    Y = _multiset(7, 2, [((0, 0), 1), ((1, 2), 1), ((2, 4), 1), ((3, 1), 1), ((1, 1), 1)])
    assert min_outside_fraction(Y, 1, [(2, 4), (1, 0)]) == (Fraction(0), LinearFunctional(1, (4, 1)))
    assert min_outside_fraction(Y, 1, [(1, 2), (1, 0)]) == (Fraction(0), LinearFunctional(6, (3, 6)))


def _lexsort_pick(count, c, a0, dirs, p):
    """The tie-break the vectorized `_pick` replaced: among the directions
    tied for the top count, np.lexsort over their scaled functionals c*lam
    (first coordinate primary), then over a0."""
    top = count.max()
    tied = np.flatnonzero(count == top)
    scaled = (c[tied, None] + 1) * dirs[tied] % p
    best = np.lexsort((a0[tied],) + tuple(scaled.T[::-1]))[0]
    return int(top), tuple(scaled[best].tolist()), int(a0[tied][best])


@st.composite
def tied_sets(draw):
    """A translated box [-r, r]^d or a few translated parallel lines in
    F_p^d: their symmetries make many functionals tie for the top count."""
    p, d = draw(st.sampled_from([(5, 1), (7, 2), (11, 2), (5, 3), (7, 3)]))
    if draw(st.booleans()):
        r = draw(st.integers(0, 2))
        pts = list(itertools.product(range(-r, r + 1), repeat=d))
    else:
        v = draw(st.sampled_from(canonical_linear_parts(p, d)))
        offsets = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=4, unique=True))
        pts = [tuple(o[k] + t * v[k] for k in range(d)) for o in offsets for t in range(p)]
    shift = draw(st.tuples(*[st.integers(0, p - 1)] * d))
    return _multiset(p, d, [(tuple(x + s for x, s in zip(pt, shift)), 1) for pt in pts])


@settings(max_examples=200, deadline=None)
@given(tied_sets(), st.integers(0, 3), st.data())
def test_pick_matches_lexsort_tie_break(X, K, data):
    """`_pick` over the windows of all canonical directions agrees with the
    lexsort tie-break: on one row, and on rows stacked as a block's unions
    are, each over its own subset of the directions."""
    p, d = X.params.p, X.params.d
    dirs = thickness._canonical_directions(p, d)
    window = thickness.scaling_window_table(
        thickness._cumulative_table(thickness.value_histogram(X, dirs), p), K
    )
    count, c, a0 = thickness._maxima(window)
    assert thickness._pick(count[None], c[None], a0[None], dirs, p) == [_lexsort_pick(count, c, a0, dirs, p)]
    masks = st.lists(st.booleans(), min_size=len(dirs), max_size=len(dirs))
    allowed = np.array(data.draw(st.lists(masks, min_size=1, max_size=4)), dtype=bool)
    rows = len(allowed)
    picked = thickness._pick(
        np.tile(count, (rows, 1)), np.tile(c, (rows, 1)), np.tile(a0, (rows, 1)), dirs, p, allowed
    )
    for mask, found in zip(allowed, picked):
        expected = _lexsort_pick(count[mask], c[mask], a0[mask], dirs[mask], p) if mask.any() else None
        assert found == expected


def test_pick_breaks_a_box_tie_by_lex_order():
    """At K = 1 the two axes are the only functionals that hold all nine
    points of the box [-1, 1]^2, and (0, 1) comes before (1, 0) in lex
    order."""
    X = _multiset(7, 2, [(pt, 1) for pt in itertools.product(range(-1, 2), repeat=2)])
    dirs = thickness._canonical_directions(7, 2)
    count, c, a0 = thickness._maxima(
        thickness.scaling_window_table(thickness._cumulative_table(thickness.value_histogram(X, dirs), 7), 1)
    )
    assert (count == 9).sum() == 2
    assert thickness._pick(count[None], c[None], a0[None], dirs, 7) == [(9, (0, 1), 0)]


def test_empty_direction_family():
    X = _multiset(7, 2, [((1, 2), 1), ((3, 4), 2)])
    assert min_outside_fraction(X, 1, []) == (Fraction(1), None)
    assert min_outside_fraction(X, 1, [], zero_constant_term=True) == (Fraction(1), None)
    # excluding a basis leaves an empty kernel, hence no direction
    no_dirs = nonconstant_directions(7, 2, linalg.kernel_basis([(1, 0), (0, 1)], 7))
    assert no_dirs.shape == (0, 2)
    assert find_thin_functional(X, 1, Fraction(1), no_dirs) is None
    # a single point's hull has an empty basis: vacuously thick
    assert hull_thickness(_multiset(7, 2, [((1, 2), 3)]), 1) == (Fraction(1), None)


def _run_optimized(script: str) -> str:
    """The standard output of `script` run by a `python -O` child, which
    must exit 0."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        # no .pyc files for src: the memory tests' children start as a fresh checkout does
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    return out.stdout.strip()


def test_invariant_check_survives_optimize_flag():
    """Under python -O a failed certificate rescan still raises InvariantError."""
    script = """
from fractions import Fraction
from zerosum.generators import box
from zerosum.group import GroupParams
from zerosum.thickness import GrowthFunction, InvariantError, TubularCertificate, tube_decompose
if __debug__:
    raise SystemExit("not running under -O")
TubularCertificate.validate = lambda self, X: (False, Fraction(0), None)
try:
    tube_decompose(box(GroupParams(11, 2), 1), 1, Fraction(1, 16), GrowthFunction("affine", 4, 4))
except InvariantError as exc:
    print("raised", exc.name, exc.lhs, exc.op, exc.rhs)
else:
    raise SystemExit("tube_decompose accepted a failed rescan")
"""
    assert _run_optimized(script) == "raised tube_rescan 0 >= 1/16"


def test_tube_mass_check_survives_optimize_flag():
    """Under python -O a tube that keeps no point fails tube_mass, a check
    made on integers, with the fractions |Y| >= n - 2^(d+1) n delta: the
    line x = 0 of F_11^2 and two points off it, n = 13, is thin along x
    at delta = 1/9, and with `_in_slab` patched its tube keeps nothing, so
    0 >= 13 - 8 * 13/9 = 13/9."""
    script = """
from fractions import Fraction
import numpy as np
from zerosum import thickness
from zerosum.group import GroupParams
from zerosum.multiset import GroupMultiset
from zerosum.thickness import GrowthFunction, InvariantError, tube_decompose
if __debug__:
    raise SystemExit("not running under -O")
X = GroupMultiset.from_points(GroupParams(11, 2), [(0, y) for y in range(11)] + [(1, 3), (3, 7)])
thickness._in_slab = lambda residues, K, p: np.zeros(residues.shape, dtype=bool)
try:
    tube_decompose(X, 0, Fraction(1, 9), GrowthFunction("affine", 1, 1))
except InvariantError as exc:
    print("raised", exc.name, repr(exc.lhs), exc.op, repr(exc.rhs))
else:
    raise SystemExit("tube_decompose accepted an empty tube")
"""
    assert _run_optimized(script) == "raised tube_mass Fraction(0, 1) >= Fraction(13, 9)"


@st.composite
def thin_cases(draw):
    """(in-tube count, n, delta, level i) for `_tube_reduce`'s level test:
    delta below 2^-(d+1), either any fraction or a sweep delta from
    `_delta_schedule` with m up to 12, whose denominator runs to thousands
    of bits.  Half the cases sit at the boundary n - count = 2^i delta n,
    or one point either side of it."""
    d = draw(st.integers(1, 3))
    i = draw(st.integers(1, d))
    bound = Fraction(1, 2 ** (d + 1))
    unit = st.fractions(min_value=Fraction(1, 1000), max_value=1)
    if draw(st.booleans()):
        m = draw(st.integers(1, 12))
        schedule = thickness._delta_schedule(draw(unit), draw(unit), draw(unit), m, d)
        delta = schedule(draw(st.integers(1, 2 ** m - 1)))
    else:
        delta = draw(st.fractions(min_value=0, max_value=bound).filter(lambda x: 0 < x < bound))
    if draw(st.booleans()):
        n = delta.denominator * draw(st.integers(1, 4))  # 2^i delta n is an integer
        count = n - 2 ** i * delta * n + draw(st.sampled_from([-1, 0, 1]))
        count = int(min(max(count, 0), n))
    else:
        n = draw(st.integers(1, 10 ** 6))
        count = draw(st.integers(0, n))
    return count, n, delta, i


@settings(max_examples=150, deadline=None)
@given(thin_cases())
def test_integer_thin_test_matches_fraction_test(case):
    """`_thin_at`, the thinness test `_tube_reduce` and
    `find_thin_functional` make on integers, agrees with the Fraction
    inequality n - count < 2^i delta n, strict inequality included."""
    count, n, delta, i = case
    by_fractions = Fraction(n - count) < 2 ** i * delta * n
    assert thickness._thin_at(count, n, (delta.numerator, delta.denominator), i) == by_fractions


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 31]),
    st.integers(1, 300),
    st.sampled_from([np.int64, np.uint8, np.uint16, np.uint32]),
    st.booleans(),
    st.data(),
)
def test_cumulative_table_matches_cumsum(p, L, dtype, value_major, data):
    """`_cumulative_table`'s p - 1 row adds against `np.cumsum` of the same
    gather, the oracle kept here, in int64 and in the unsigned dtypes that
    `_UnionTables` sums histograms in.  Rows run up to the dtype's largest
    total, so a table in it must not wrap; value-major histograms are
    passed as a transposed view, as the union blocks pass theirs.  The
    table keeps the histograms' dtype and leaves them unchanged."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    top = np.iinfo(dtype).max // p
    hists = rng.integers(0, top + 1, size=(L, p)).astype(dtype)
    hists[rng.random(L) < 0.2] = top  # full rows
    if value_major:
        hists = np.ascontiguousarray(hists.T).T
    before = hists.copy()
    oracle = np.cumsum(hists.T[thickness._scaling_index(p)], axis=0)
    table = thickness._cumulative_table(hists, p)
    assert table.dtype == hists.dtype and table.shape == (p, (p - 1) // 2, L)
    assert np.array_equal(table, oracle)
    assert np.array_equal(hists, before)
