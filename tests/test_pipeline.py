import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import linalg, pipeline
from zerosum.generators import fiber_union, random_cloud
from zerosum.group import GroupParams, affine_hull
from zerosum.multiset import GroupMultiset
from zerosum.pipeline import (
    HyperplaneError,
    PipelineConfig,
    StageFailure,
    ThinningError,
    find_zero_sum,
    random_thinning,
    sample_hyperplane,
    verify_certificate,
)
from zerosum.subsums import ZeroSumCertificate, find_zero_sum_subset
from zerosum.thickness import GrowthFunction

P31 = GroupParams(31, 2)
G1 = GrowthFunction("affine", 1, 1)


def ms(params, pts):
    return GroupMultiset.from_points(params, pts)


def test_short_circuit_on_zero():
    X = fiber_union(P31, 5, seed=0)  # contains the origin
    assert (0, 0) in X
    res = find_zero_sum(X, PipelineConfig(seed=0))
    assert res.ok and dict(res.certificate.subset.items()) == {(0, 0): 1}
    assert res.trace["stages"][0]["stage"] == "short_circuit"


def test_rejects_multisets_and_d1():
    X = GroupMultiset(P31, {(1, 1): 2})
    with pytest.raises(ValueError):
        find_zero_sum(X, PipelineConfig())
    with pytest.raises(ValueError):
        find_zero_sum(ms(GroupParams(31, 1), [(1,)]), PipelineConfig())


def test_favorable_instance_certificate():
    X = fiber_union(P31, 5, seed=0, offset=1)
    res = find_zero_sum(X, PipelineConfig(seed=7))
    assert res.ok
    cert = res.certificate
    assert verify_certificate(X, cert)
    # independent oracle agrees that X contains a zero-sum subset
    assert find_zero_sum_subset(X) is not None
    # the exact subset B re-verifies as its own oracle instance
    assert find_zero_sum_subset(cert.subset) is not None
    # trace identities hold
    for stage in res.trace["stages"]:
        for ident in stage.get("identities", []):
            assert ident["holds"], (stage["stage"], ident)


def test_undersized_instance_fails_at_weighted_stage():
    rng = random.Random(0)
    pts = sorted({(rng.randrange(31), rng.randrange(31)) for _ in range(12)} - {(0, 0)})[:10]
    X = ms(P31, pts)
    res = find_zero_sum(X, PipelineConfig(seed=0))
    assert not res.ok
    f = res.failure
    assert f.stage == "weighted_zero_sum" and f.name == "weight_sum_hypothesis"
    assert not f.holds()  # the precondition really is violated
    assert f.lhs < f.rhs


def test_failure_reports_are_serializable():
    X = ms(P31, [(1, 2), (3, 4), (5, 6)])
    res = find_zero_sum(X, PipelineConfig(seed=1))
    assert not res.ok
    back = json.loads(json.dumps(res.failure.as_dict()))
    assert back["inequality"]["op"] in ("<", "<=", ">", ">=", "==")
    assert back["stage"] and back["suggestion"]


def test_pipeline_determinism():
    X = fiber_union(P31, 5, seed=3, offset=2)
    a = find_zero_sum(X, PipelineConfig(seed=11))
    b = find_zero_sum(X, PipelineConfig(seed=11))
    assert json.dumps(a.trace, sort_keys=True, default=str) == json.dumps(
        b.trace, sort_keys=True, default=str
    )
    if a.ok:
        assert dict(a.certificate.subset.items()) == dict(b.certificate.subset.items())


def test_seed_changes_run_but_not_validity():
    X = fiber_union(P31, 5, seed=3, offset=2)
    for seed in (1, 2, 3):
        res = find_zero_sum(X, PipelineConfig(seed=seed))
        assert res.ok and verify_certificate(X, res.certificate)


# -- sample_hyperplane ---------------------------------------------------------


def test_hyperplane_single_full_hull():
    hull = affine_hull([(i % 31, (3 * i) % 31) for i in range(20)] + [(5, 5), (6, 9)], 31)
    rng = random.Random(0)
    xi, pts = sample_hyperplane([hull], 31, 2, rng)
    assert xi.a0 == 0 and any(xi.linear)
    x = pts[0]
    assert sum(a * b for a, b in zip(xi.linear, x)) % 31 == 0


def test_hyperplane_two_lines():
    # two non-parallel lines off the origin
    h1 = affine_hull([(1, t % 31) for t in range(31)], 31)
    h2 = affine_hull([((t + 2) % 31, t % 31) for t in range(31)], 31)
    rng = random.Random(1)
    xi, pts = sample_hyperplane([h1, h2], 31, 2, rng)
    for x, hull in zip(pts, (h1, h2)):
        assert sum(a * b for a, b in zip(xi.linear, x)) % 31 == 0
    assert pts[0] != pts[1]


def enumerated_hyperplane_point(base, basis, normal, p):
    """The least point of (base + span basis) ∩ {<normal, .> = 0}, by
    enumerating every coefficient vector of the basis."""
    best = None
    for t in itertools.product(range(p), repeat=len(basis)):
        x = tuple(
            (b + sum(c * row[k] for c, row in zip(t, basis))) % p for k, b in enumerate(base)
        )
        if sum(n * c for n, c in zip(normal, x)) % p == 0 and (best is None or x < best):
            best = x
    return best


@st.composite
def hull_cuts(draw):
    """(base, basis, normal, p) in F_p^d, p <= 7, d = 1-3, with up to d basis
    rows (dependent ones too) and a nonzero normal."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, p - 1)] * d)
    base = draw(vec)
    basis = tuple(draw(st.lists(vec, max_size=d)))
    normal = draw(vec.filter(any))
    return base, basis, normal, p


@settings(max_examples=500, deadline=None)
@given(hull_cuts())
def test_hyperplane_point_matches_enumeration(inst):
    assert pipeline._hull_hyperplane_point(*inst) == enumerated_hyperplane_point(*inst)


def test_hyperplane_adversarial_points_exhaust_budget():
    # three point-hulls in F_3^2 that no origin hyperplane meets simultaneously
    hulls = [(0, (1, 0), ()), (0, (0, 1), ()), (0, (1, 1), ())]
    # an origin line through (1,0) is {y=0}; through (0,1) is {x=0}; through
    # (1,1) is {x=2y}: pairwise distinct, so no single kernel hits all three
    rng = random.Random(0)
    with pytest.raises(HyperplaneError):
        sample_hyperplane(hulls, 3, 2, rng, budget=200)
    # two copies of one point-hull: every kernel through it meets both at the
    # same point, and coinciding points are never accepted
    with pytest.raises(HyperplaneError):
        sample_hyperplane([(0, (1, 1), ())] * 2, 3, 2, rng, budget=200)


# -- random_thinning -----------------------------------------------------------


def _line_fibers(p, labels, params):
    return {
        (lab,): ms(params, [(lab % p, b) for b in range(p)]) for lab in labels
    }


def test_thinning_windows_and_determinism():
    params = GroupParams(31, 2)
    fibers = _line_fibers(31, (-1, 0, 1), params)
    mu = Fraction(1, 4)
    Z1 = random_thinning(fibers, mu, Fraction(1, 2), 1, G1, seed=5, budget=100, l=1, upper_cap=8)
    Z2 = random_thinning(fibers, mu, Fraction(1, 2), 1, G1, seed=5, budget=100, l=1, upper_cap=8)
    for lab in fibers:
        assert Z1[lab] == Z2[lab]
        lo = -((-mu * 31) // 20)
        assert lo <= len(Z1[lab]) <= 8
        assert fibers[lab].contains_submultiset(Z1[lab])


def test_thinning_single_full_line():
    params = GroupParams(31, 2)
    fibers = {(0,): ms(params, [(0, b) for b in range(31)])}
    Z = random_thinning(fibers, Fraction(1, 4), Fraction(1, 4), 1, G1, seed=0, budget=100, l=1, upper_cap=10)
    assert (0,) in Z and 1 <= len(Z[(0,)]) <= 10


def test_thinning_rejects_thin_fibers_forever():
    # all fibers inside a narrow second-coordinate band: the union can never
    # be thick along x_2, so every draw is rejected and the budget names it
    params = GroupParams(31, 2)
    fibers = {
        (lab,): ms(params, [(lab % 31, b % 31) for b in (-1, 0, 1)])
        for lab in (-1, 0, 1)
    }
    with pytest.raises(ThinningError) as err:
        random_thinning(
            fibers, Fraction(1, 2), Fraction(1, 2), 1, G1, seed=1, budget=20, l=1, upper_cap=2
        )
    assert err.value.attempts == 20 or err.value.worst_functional is not None


# -- verify_certificate --------------------------------------------------------


def test_verify_certificate_cases():
    X = ms(P31, [(1, 2), (30, 29), (4, 4)])
    good = ZeroSumCertificate(P31, ms(P31, [(1, 2), (30, 29)]))
    assert verify_certificate(X, good)
    # tampered: dropped element
    assert not verify_certificate(X, ZeroSumCertificate(P31, ms(P31, [(1, 2)])))
    # empty
    assert not verify_certificate(X, ZeroSumCertificate(P31, GroupMultiset.empty(P31)))
    # not a subset
    assert not verify_certificate(X, ZeroSumCertificate(P31, ms(P31, [(2, 1), (29, 30)])))


def test_trace_records_config_and_rng():
    X = fiber_union(P31, 5, seed=0, offset=1)
    res = find_zero_sum(X, PipelineConfig(seed=3))
    assert res.trace["rng"] == "MT19937"
    assert res.trace["seed"] == 3
    assert res.trace["config"]["epsilon"] == "1/2"


def test_dimension_three_end_to_end():
    # two full planes {x1 = c} x F_19^2: the tube machinery is dimension
    # generic, with plane fibers feeding the cover through same-fiber pairs
    params = GroupParams(19, 3)
    pts = [(c, a, b) for c in (1, 2) for a in range(19) for b in range(19)]
    X = ms(params, pts)
    res = find_zero_sum(X, PipelineConfig(seed=1))
    assert res.ok and verify_certificate(X, res.certificate)
    stages = {st["stage"]: st for st in res.trace["stages"]}
    assert stages["strong_decompose"]["m"] == 2
    assert stages["tube_projection"]["l"] == 1


def test_dimension_three_saturation_fails_structurally():
    # at p = 11 the g^{d+1} iterates pass (p-1)/2 by the second slicing
    # level, the decomposition shatters, and the exponent cap fires as a
    # structured stage failure rather than a wrong answer
    params = GroupParams(11, 3)
    pts = [(c, a, b) for c in (1, 2, 3) for a in range(11) for b in range(11)]
    X = ms(params, pts)
    res = find_zero_sum(X, PipelineConfig(seed=1))
    assert not res.ok
    assert res.failure.stage == "strong_decompose"
    assert not res.failure.holds()


def matvec_projection(run):
    """The tube projection of run's parts point by point with linalg.matvec:
    (fibers, back_map, a_y)."""
    p, params, l, v = run.p, run.params, run.l, run.v
    M = run.sc.cert.psi.matrix
    entries, back_map, a_y = {}, {}, {}
    for i in run.S:
        labels = set()
        for x, mult in run.sdec.parts[i].items():
            xt = linalg.matvec(M, x, p)
            back_map[xt] = x
            label = tuple(params.signed((h - vv) % p) for h, vv in zip(xt[:l], v[:l]))
            labels.add(label)
            entries.setdefault(label, {})[xt] = mult
        assert len(labels) == 1
        label = labels.pop()
        a_y[label] = a_y.get(label, 0) + run.a[i]
    return {label: GroupMultiset(params, e) for label, e in entries.items()}, back_map, a_y


@pytest.mark.parametrize(
    "p, d, n_fibers, fiber_size, skew, seed",
    [
        (31, 2, 5, None, False, 1),
        (31, 2, 6, 28, True, 2),
        (61, 2, 5, 58, True, 3),
        (19, 3, 2, None, True, 0),
        (19, 3, 3, 200, True, 1),
        (23, 3, 2, 400, True, 2),
    ],
)
def test_tube_projection_matches_per_point_matvec(p, d, n_fibers, fiber_size, skew, seed):
    X = fiber_union(
        GroupParams(p, d), n_fibers, fiber_size=fiber_size, seed=seed, skew=skew, offset=1
    )
    run = pipeline._Run(X, PipelineConfig(seed=seed))
    for stage in pipeline._STAGES[:4]:
        record, failure = stage(run)
        assert failure is None
    assert record["stage"] == "tube_projection" and run.sc.cert.l >= 1
    fibers, back_map, a_y = matvec_projection(run)
    assert list(run.fibers) == list(fibers) and run.fibers == fibers
    for label, fib in fibers.items():
        # the array path's cached arrays agree with its entries
        got, want = run.fibers[label].arrays(), fib.arrays()
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert run.back_map == back_map
    assert run.a_y == a_y and record["labels"] == pipeline._labelled(a_y)
