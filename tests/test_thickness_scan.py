"""The blocked all-directions thickness scan against a brute-force oracle.

The oracle enumerates every nonzero linear part of F_p^d and every constant
term, decides admissibility from the definitions (span membership by
enumerating the span, non-constancy on the hull by dot products), and picks
the largest in-tube count with the lexicographically smallest (linear, a0).
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

from zerosum import thickness
from zerosum.group import GroupParams, LinearFunctional, canonical_linear_parts
from zerosum.multiset import GroupMultiset
from zerosum.thickness import find_thin_functional, min_outside_fraction

SHAPES = [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (11, 2), (3, 3), (5, 3), (11, 3)]


def _span(vectors, p, d):
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        out.add(tuple(sum(c * v[k] for c, v in zip(coeffs, vectors)) % p for k in range(d)))
    return out


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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    instances,
    st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=2),
    st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=2),
    st.booleans(),
    st.booleans(),
    st.fractions(min_value=Fraction(1, 50), max_value=1),
)
def test_find_thin_functional_matches_brute_force(
    block_cells, inst, excluded, hull, use_excluded, use_hull, delta
):
    (p, d), raw, K = inst
    X = _multiset(p, d, raw)
    excluded = [tuple(c % p for c in v[:d]) for v in excluded] if use_excluded else []
    hull_basis = [tuple(c % p for c in v[:d]) for v in hull] if use_hull else None
    span = _span(excluded, p, d)

    def admissible(v):
        if v in span:
            return False
        return hull_basis is None or any(
            sum(a * b for a, b in zip(v, row)) % p for row in hull_basis
        )

    found = find_thin_functional(X, K, delta, excluded=excluded, hull_basis=hull_basis)
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
    """A 400-point set of F_11^3 splits its 133 directions over two blocks."""
    p, d = 11, 3
    pts = sorted(itertools.product(range(p), repeat=d), key=lambda v: (v[0] * 7 + v[1] * v[2]) % 29)
    X = _multiset(p, d, [(v, 1 + sum(v) % 2) for v in pts[:400]])
    block = max(1, thickness._BLOCK_CELLS // max(p * (p - 1), X.support_size()))
    parts = canonical_linear_parts(p, d)
    assert block < len(parts)
    for K in (0, 2, 5):
        for zero in (False, True):
            count, linear, a0 = _brute_best(X, K, lambda v: True, zero)
            assert min_outside_fraction(X, K, parts, zero_constant_term=zero) == (
                Fraction(len(X) - count, len(X)),
                LinearFunctional(a0, linear),
            )


def test_empty_direction_family():
    X = _multiset(7, 2, [((1, 2), 1), ((3, 4), 2)])
    assert min_outside_fraction(X, 1, []) == (Fraction(1), None)
    assert min_outside_fraction(X, 1, [], zero_constant_term=True) == (Fraction(1), None)
    # excluding a basis leaves no admissible direction
    assert find_thin_functional(X, 1, Fraction(1), excluded=[(1, 0), (0, 1)]) is None


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
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "raised tube_rescan 0 >= 1/16"
