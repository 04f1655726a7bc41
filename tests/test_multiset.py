"""The trusted multiset operations against the validating constructor.

`union`, `minus`, `select`, `split`, `translate` and `apply_iso`
build their results without `GroupMultiset.__init__`.  Each must equal the
multiset that `__init__` builds from the same entries: the same `items()`
order, cardinality and `arrays()`, with plain Python ints throughout.
`apply_iso` is also checked point by point against `AffineIso.apply`, on
matrices with negative entries and entries of 2^63 and more.
"""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.generators import box, fiber_union
from zerosum.group import AffineIso, GroupParams
from zerosum.multiset import GroupMultiset
from zerosum.pipeline import K0, PipelineConfig
from zerosum.thickness import strong_decompose

SHAPES = [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]

# coordinates and psi entries: small, negative, and past the int64 range
big_ints = st.one_of(
    st.integers(-40, 40),
    st.integers(2 ** 63, 2 ** 70),
    st.integers(-(2 ** 70), -(2 ** 63)),
)


def _canonical(params, raw):
    entries = Counter()
    for pt, mult in raw:
        entries[params.reduce(pt[: params.d])] += mult
    return dict(entries)


def _validated(params, entries):
    return GroupMultiset(params, dict(entries))


def _assert_same(got, want):
    assert list(got.items()) == list(want.items())
    assert len(got) == len(want) and got.support_size() == want.support_size()
    for elem, mult in got.items():
        assert type(mult) is int and all(type(c) is int for c in elem)
    (gp, gm), (wp, wm) = got.arrays(), want.arrays()
    assert gp.dtype == wp.dtype == gm.dtype == wm.dtype == np.int64
    assert gp.shape == wp.shape and np.array_equal(gp, wp) and np.array_equal(gm, wm)


points = st.lists(
    st.tuples(st.tuples(*[st.integers(-30, 30)] * 3), st.integers(1, 3)), max_size=20
)


@st.composite
def multisets(draw, n=1):
    """(params, [entries dict] * n) over one shape."""
    p, d = draw(st.sampled_from(SHAPES))
    params = GroupParams(p, d)
    return params, [_canonical(params, draw(points)) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(multisets(n=2))
def test_union_matches_validating_constructor(inst):
    params, (a, b) = inst
    A, B = _validated(params, a), _validated(params, b)
    want = _validated(params, Counter(a) + Counter(b))
    _assert_same(A.union(B), want)
    _assert_same(B.union(A), want)


@settings(max_examples=150, deadline=None)
@given(multisets(), st.data())
def test_minus_matches_validating_constructor(inst, data):
    params, (a,) = inst
    b = {e: data.draw(st.integers(0, m)) for e, m in a.items()}
    A, B = _validated(params, a), _validated(params, b)
    _assert_same(A.minus(B), _validated(params, {e: a[e] - b[e] for e in a}))
    extra = {e: m + 1 for e, m in a.items()}
    if extra:
        with pytest.raises(ValueError):
            A.minus(_validated(params, extra))


@settings(max_examples=150, deadline=None)
@given(multisets(), st.data())
def test_select_split_match_validating_constructor(inst, data):
    params, (a,) = inst
    A = _validated(params, a)
    support = A.support()
    keep = data.draw(st.lists(st.booleans(), min_size=len(support), max_size=len(support)))
    kept = {e for e, k in zip(support, keep) if k}
    want = _validated(params, {e: a[e] for e in kept})
    _assert_same(A.select(np.array(keep, dtype=bool)), want)
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(support), max_size=len(support)))
    pieces = A.split(labels)
    assert sorted(pieces) == sorted(set(labels))
    for label, piece in pieces.items():
        _assert_same(
            piece, _validated(params, {e: a[e] for e, lb in zip(support, labels) if lb == label})
        )
    _assert_same(GroupMultiset.empty(params), _validated(params, {}))


@settings(max_examples=150, deadline=None)
@given(multisets(), st.lists(big_ints, min_size=3, max_size=3))
def test_translate_matches_validating_constructor(inst, v):
    params, (a,) = inst
    p, d = params.p, params.d
    shift = tuple(v[:d])
    want = {tuple((c + s) % p for c, s in zip(e, shift)): m for e, m in a.items()}
    _assert_same(_validated(params, a).translate(shift), _validated(params, want))


@settings(max_examples=200, deadline=None)
@given(multisets(), st.lists(big_ints, min_size=12, max_size=12), st.booleans())
def test_apply_iso_matches_pointwise_apply(inst, raw, singular):
    params, (a,) = inst
    p, d = params.p, params.d
    matrix = tuple(tuple(raw[i * d : (i + 1) * d]) for i in range(d))
    if singular:  # repeat a row: images collide and multiplicities add
        matrix = (matrix[0],) * d
    psi = AffineIso(matrix, tuple(raw[9 : 9 + d]))
    want = Counter()
    for e, m in a.items():
        want[psi.apply(e, p)] += m
    _assert_same(_validated(params, a).apply_iso(psi), _validated(params, want))


def test_misshapen_arguments_are_rejected():
    params = GroupParams(5, 2)
    X = GroupMultiset.from_points(params, [(1, 2), (3, 4)])
    for psi in (
        AffineIso(((1, 0, 0), (0, 1)), (0, 0)),
        AffineIso(((1, 0),), (0, 0)),
        AffineIso(((1, 0), (0, 1)), (0,)),
    ):
        with pytest.raises(ValueError):
            X.apply_iso(psi)
        with pytest.raises(ValueError):
            GroupMultiset.empty(params).apply_iso(psi)
    with pytest.raises(ValueError):
        AffineIso(((1, 0, 0), (0, 1)), (0, 0)).apply((1, 2), 5)
    with pytest.raises(ValueError):
        X.translate((1, 2, 3))
    with pytest.raises(ValueError):
        X.select([True])
    with pytest.raises(ValueError):
        X.split([0])
    with pytest.raises(ValueError):
        X.union(GroupMultiset.from_points(GroupParams(7, 2), [(1, 2)]))


def strong_init_calls():
    """GroupMultiset.__init__ calls made by strong_decompose on the box
    [-1, 1]^2 of F_11^2 and on criterion-7 instance 2 (skewed, 7 fibers of
    F_31^2), counted by wrapping __init__, with the part counts."""
    X_box = box(GroupParams(11, 2), 1)
    X_fav = fiber_union(GroupParams(31, 2), 7, fiber_size=None, seed=2, skew=True, offset=3)
    config = PipelineConfig()
    calls = []
    original = GroupMultiset.__init__

    def counting(self, params, entries):
        calls.append(1)
        original(self, params, entries)

    GroupMultiset.__init__ = counting
    try:
        m_box = strong_decompose(X_box, 0, Fraction(1, 4), config.growth).m
        m_fav = strong_decompose(X_fav, K0, config.epsilon / 4, config.growth).m
    finally:
        GroupMultiset.__init__ = original
    return len(calls), m_box, m_fav


def test_strong_decompose_never_revalidates():
    assert strong_init_calls() == (0, 9, 7)


def test_strong_decompose_never_revalidates_under_optimize_flag():
    tests = Path(__file__).resolve().parent
    script = (
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "from test_multiset import strong_init_calls\n"
        "print(*strong_init_calls())\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        # no .pyc files: an -O child would leave *.opt-1.pyc files in src and tests
        env={
            "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        timeout=120,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "0 9 7"
