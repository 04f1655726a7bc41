"""End-to-end zero-sum search, mirroring the structural proof stage by stage.

Given a set X in F_p^d, the run strong-decomposes it, meets every part's
affine hull with a random hyperplane through the origin, solves a weighted
zero-sum instance in the hyperplane's (d-1)-dimensional coordinates, and
lifts that solution back to an actual subset of X through the tubular
structure: random thinning reserves fibers for an expansion cover, the cover
fixes per-fiber cardinalities k_y, deterministic fill sets A_y contribute the
remaining a_y - k_y elements, and a final selector call cancels the total.

`find_zero_sum` is a loop over `_STAGES`, one function per trace stage.  Each
takes the `_Run` that holds the products of the stages before it and returns
`(record, failure)`: the stage's trace record, or a StageFailure naming the
precondition that did not hold with both sides evaluated.  The driver alone
appends records, turns a failure into the failed result, and re-checks the
final certificate independently.

Every inequality the argument relies on is checked at run time on exact
integers or Fractions.  A hypothesis that can fail on a given input is a
StageFailure; an identity the argument guarantees is a `_check`, whose
InvariantError is always a bug.  The asymptotic "sufficiently large p" has no
other footprint in the code.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .expansion import ExpansionParams, ExpansionStagnation, expansion_cover
from .group import _OPS, GroupParams, LinearFunctional, Vec, _check
from .multiset import GroupMultiset
from .subsums import ZeroSumCertificate
from .thickness import (
    DecompositionBudgetError,
    GrowthFunction,
    SubsetSweepBudgetError,
    min_outside_fraction,
    nonconstant_directions,
    strong_decompose,
)
from .weighted import WeightedInstance, weighted_zero_sum

RNG_ALGORITHM = "MT19937"  # python random.Random; reproducible given the seed
TRACE_SCHEMA_VERSION = 2

# Fixed run parameters.  The trace's config record lists them, together with
# "oracle_prepass": false, so config digests match those of earlier traces.
K0 = 0  # starting tube scale of the strong decomposition
HYPERPLANE_BUDGET = 1000  # normals drawn before the hyperplane stage fails
THINNING_BUDGET = 100  # draws per thinning attempt
EXPANSION_ESCALATIONS = 3  # thinning + cover rungs, each with a fresh seed
RELATION_BOUND = 2  # T of the first cover rung; later rungs double it
M_BUDGET = 12  # most parts whose 2^m unions the decomposition sweeps
N_CAP = 32  # cap on the decomposition's iterate exponent


@dataclass
class PipelineConfig:
    epsilon: Fraction = Fraction(1, 2)
    growth: GrowthFunction = GrowthFunction("affine", 1, 1)
    seed: int = 0

    def __post_init__(self):
        self.epsilon = Fraction(self.epsilon)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def as_dict(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "growth": self.growth.describe(),
            "seed": self.seed,
            "k0": K0,
            "hyperplane_budget": HYPERPLANE_BUDGET,
            "thinning_budget": THINNING_BUDGET,
            "expansion_escalations": EXPANSION_ESCALATIONS,
            "relation_bound": RELATION_BOUND,
            "m_budget": M_BUDGET,
            "n_cap": N_CAP,
            "oracle_prepass": False,
            "rng": RNG_ALGORITHM,
        }

    def digest(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _num(x):
    if isinstance(x, Fraction):
        return str(x)
    return x


def _vsum(terms: Iterable[Tuple[int, Sequence[int]]], length: int, p: int) -> Vec:
    """sum of c * x over the (c, x) terms, reduced mod p; x has `length` coordinates."""
    acc = [0] * length
    for c, x in terms:
        for k, xk in enumerate(x):
            acc[k] += c * xk
    return tuple(t % p for t in acc)


@dataclass
class StageFailure:
    """A stage precondition that failed, with both sides evaluated.

    The inequality states the precondition; on a failure it evaluates False,
    and `holds()` re-evaluates it so honesty is checkable from the record.
    """

    stage: str
    name: str
    lhs: object
    op: str
    rhs: object
    suggestion: str
    context: dict = field(default_factory=dict)

    def holds(self) -> bool:
        return _OPS[self.op](Fraction(self.lhs), Fraction(self.rhs))

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "inequality": {
                "name": self.name,
                "lhs": _num(self.lhs),
                "op": self.op,
                "rhs": _num(self.rhs),
            },
            "suggestion": self.suggestion,
            "context": self.context,
        }


def iterate_cap_failure(stage: str, exc: DecompositionBudgetError) -> StageFailure:
    """The failure of a stage whose decomposition ran past N_CAP."""
    return StageFailure(
        stage,
        "iterate_exponent_within_cap",
        N_CAP + 1,
        "<=",
        N_CAP,
        "choose a slower-growing g",
        {"error": str(exc)},
    )


@dataclass
class PipelineResult:
    certificate: Optional[ZeroSumCertificate]
    failure: Optional[StageFailure]
    trace: dict

    @property
    def ok(self) -> bool:
        return self.certificate is not None


# ---------------------------------------------------------------------------
# Hyperplane sampling
# ---------------------------------------------------------------------------


class HyperplaneError(RuntimeError):
    def __init__(self, attempts: int):
        super().__init__(f"no admissible hyperplane in {attempts} attempts")
        self.attempts = attempts


def _hull_hyperplane_point(base: Vec, basis: Sequence[Vec], normal: Vec, p: int) -> Optional[Vec]:
    """Lexicographically smallest point of (base + span basis) ∩ {<normal, .> = 0}.

    The intersection is one point x plus the span of some directions.  With
    the directions in reduced row echelon form, each pivot coordinate ranges
    freely over F_p and every other coordinate is fixed by the ones before
    it, so x with its pivot coordinates cleared is the least point.
    """
    c0 = sum(n * b for n, b in zip(normal, base)) % p
    w = [sum(n * b for n, b in zip(normal, row)) % p for row in basis]
    pivot = next((i for i, x in enumerate(w) if x), None)
    if pivot is None:
        if c0:
            return None
        x, directions = _vsum([(1, base)], len(base), p), basis
    else:
        inv = linalg.inv_mod(w[pivot], p)
        x = _vsum([(1, base), (-c0 * inv, basis[pivot])], len(base), p)
        directions = [
            _vsum([(1, row), (-wi * inv, basis[pivot])], len(base), p)
            for i, (wi, row) in enumerate(zip(w, basis))
            if i != pivot
        ]
    for row, c in zip(*linalg.rref(directions, p)):
        x = _vsum([(1, x), (-x[c], row)], len(x), p)
    return x


def sample_hyperplane(
    hulls: Sequence[Tuple[int, Vec, Tuple[Vec, ...]]],
    p: int,
    d: int,
    rng: random.Random,
    budget: int = 1000,
) -> Tuple[LinearFunctional, List[Vec]]:
    """Uniform nonzero normals until the kernel hyperplane meets every hull
    at pairwise distinct lexicographically smallest points.

    Returns the functional (zero constant term) and those points, one per
    hull.  Raises HyperplaneError when the budget runs out, the signal that
    p is too small for this many hulls.
    """
    if not hulls:
        raise ValueError("need at least one hull")
    for _attempt in range(budget):
        normal = tuple(rng.randrange(p) for _ in range(d))
        if all(x == 0 for x in normal):
            continue
        points = []
        for _dim, base, basis in hulls:
            pt = _hull_hyperplane_point(base, basis, normal, p)
            if pt is None:
                break
            points.append(pt)
        else:
            if len(set(points)) != len(points):
                continue
            return LinearFunctional(0, normal), points
    raise HyperplaneError(budget)


# ---------------------------------------------------------------------------
# Random thinning
# ---------------------------------------------------------------------------


class ThinningError(RuntimeError):
    def __init__(self, attempts, worst_functional, worst_outside, required, z_size):
        super().__init__(f"thinning rejected {attempts} attempts")
        self.attempts = attempts
        self.worst_functional = worst_functional
        self.worst_outside = worst_outside
        self.required = required
        self.z_size = z_size


def random_thinning(
    fibers: Dict[Vec, GroupMultiset],
    mu: Fraction,
    delta: Fraction,
    K_S: int,
    g: GrowthFunction,
    seed: int,
    budget: int = 100,
    *,
    l: int,
    upper_cap: int,
) -> Dict[Vec, GroupMultiset]:
    """Binomial subsets Z_y with per-fiber size windows and a joint
    (g(K_S), delta/4)-thickness requirement on the union.

    The lower window edge is ceil(mu |X_y| / 20), and 2 where the window
    reaches that high; the upper edge is anything up to the larger of
    ceil(mu |X_y| / 10) and upper_cap (the pipeline passes its margin r),
    but at most |X_y| - 1, which keeps the later cardinality chain
    k_y <= |Z_y| <= a_y intact at small p.  The thickness scan runs over the
    functionals non-constant on {0}^l x F_p^(d-l).  Draws are rejected until
    every window and the thickness scan pass; deterministic given the seed.
    """
    rng = random.Random(seed)
    params = next(iter(fibers.values())).params
    Kp = g(K_S)
    fiber_dirs = nonconstant_directions(params.p, params.d, linalg.identity(params.d)[l:])
    windows = {}
    for label in sorted(fibers):
        n = len(fibers[label])
        lo = -((-mu * n) // 20)  # ceil of a Fraction
        lo = max(1, int(lo))
        hi = -((-mu * n) // 10)
        hi = max(lo, int(hi))
        hi = min(max(hi, upper_cap), n - 1) if n > 1 else 0
        # one element makes no pair; insist on two whenever the window
        # reaches that high, so the expansion stage has raw material
        lo = min(max(lo, 2), hi) if hi >= 1 else lo
        if hi < lo:
            raise ThinningError(0, None, None, None, (label, lo, hi))
        windows[label] = (lo, hi)

    worst_info = (None, None, None, None)
    for attempt in range(budget):
        draw: Dict[Vec, GroupMultiset] = {}
        ok = True
        for label in sorted(fibers):
            fib = fibers[label]
            lo, hi = windows[label]
            # aim at the upper quarter of the window: the expansion stage
            # consumes two elements per pair, so spare mass is pure slack
            q = (lo + 3 * hi) / (4.0 * len(fib))
            q = min(max(q, 1.0 / len(fib)), 0.9)
            # one draw per element in sorted order, so the kept points
            # count up in sorted order too
            chosen: Dict[Vec, int] = {}
            for x in fib.iter_with_multiplicity():
                if rng.random() < q:
                    chosen[x] = chosen.get(x, 0) + 1
            if not (lo <= sum(chosen.values()) <= hi):
                ok = False
                break
            draw[label] = GroupMultiset._trusted(params, chosen)
        if not ok:
            continue
        union = GroupMultiset.empty(params)
        for z in draw.values():
            union = union.union(z)
        frac, worst = min_outside_fraction(union, Kp, fiber_dirs)
        if frac >= delta / 4:
            return draw
        worst_info = (attempt + 1, worst, frac, len(union))
    raise ThinningError(budget, worst_info[1], worst_info[2], delta / 4, worst_info[3])


# ---------------------------------------------------------------------------
# Certificate verification
# ---------------------------------------------------------------------------


def verify_certificate(X: GroupMultiset, cert: ZeroSumCertificate) -> bool:
    """Independent end check: B nonempty, inside X, over X's group, and sums
    to zero (ZeroSumCertificate.verify).  Never trusts the trace."""
    return cert.verify(X)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def _identity(name, lhs, rhs) -> dict:
    """Trace record of an identity the argument guarantees, checked first."""
    _check(name, lhs, "==", rhs)
    return {"name": name, "lhs": _num(lhs), "rhs": _num(rhs), "holds": True}


def _labelled(values: Dict[Vec, int]) -> Dict[str, int]:
    return {str(list(label)): values[label] for label in sorted(values)}


class _Run:
    """One search: the input, the config, and what the stages produced so far."""

    def __init__(self, X: GroupMultiset, config: PipelineConfig):
        self.X = X
        self.config = config
        self.params = X.params
        self.p, self.d = X.params.p, X.params.d
        self.rng = random.Random(config.seed)
        self.cert: Optional[ZeroSumCertificate] = None


def _strong_decompose_stage(run: _Run):
    """Strong decomposition with eps' = eps / 2d."""
    eps = run.config.epsilon
    try:
        sdec = strong_decompose(run.X, K0, eps / (2 * run.d), run.config.growth, M_BUDGET, N_CAP)
    except SubsetSweepBudgetError as exc:
        return None, StageFailure(
            "strong_decompose",
            "part_count_within_budget",
            exc.m,
            "<=",
            exc.budget,
            "use a larger epsilon",
            {"error": str(exc)},
        )
    except DecompositionBudgetError as exc:
        return None, iterate_cap_failure("strong_decompose", exc)
    run.sdec = sdec
    run.weights = tuple(len(part) for part in sdec.parts)
    run.total_w = sum(run.weights)  # |X'|, the points the parts retain
    return {
        "stage": "strong_decompose",
        "m": sdec.m,
        "K": sdec.K,
        "l": sdec.l,
        "delta": _num(sdec.delta),
        "mu": _num(sdec.mu),
        "x0_size": len(sdec.x0),
        "retained": run.total_w,
        "mu_norm_mu_m_lt_eps_over_100": bool(sdec.mu * sdec.m < eps / 100),
    }, None


def _hyperplane_stage(run: _Run):
    """A hyperplane through the origin meeting every part's affine hull."""
    run.hulls = [part.hull() for part in run.sdec.parts]
    dims = [h[0] for h in run.hulls]
    if min(dims) < 1:
        return None, StageFailure(
            "hyperplane",
            "hull_dimension_positive",
            min(dims),
            ">=",
            1,
            "a part degenerated to one point; use a larger instance",
            {"dims": dims},
        )
    try:
        run.normal, run.points = sample_hyperplane(
            run.hulls, run.p, run.d, run.rng, HYPERPLANE_BUDGET
        )
    except HyperplaneError as exc:
        return None, StageFailure(
            "hyperplane",
            "admissible_hyperplanes_found",
            0,
            ">=",
            1,
            "p is too small relative to m; use a larger prime",
            {"attempts": exc.attempts},
        )
    return {
        "stage": "hyperplane",
        "normal": list(run.normal.linear),
        "points": [list(x) for x in run.points],
    }, None


def _weighted_zero_sum_stage(run: _Run):
    """Weighted zero-sum of the hull points inside the hyperplane (dimension d - 1)."""
    p, d, m, total_w = run.p, run.d, run.sdec.m, run.total_w
    mu0 = run.sdec.mu
    base_threshold = (d - 1) * (p - 1) + 1
    if total_w < base_threshold:
        r_nominal = int(-((-mu0 * total_w) // 3))  # ceil(mu0 |X'| / 3)
        return None, StageFailure(
            "weighted_zero_sum",
            "weight_sum_hypothesis",
            total_w,
            ">=",
            base_threshold + 2 * r_nominal * m,
            "instance too small: grow |X| or shrink epsilon",
            {"r": r_nominal, "m": m, "dim": d - 1},
        )
    r_max = (total_w - base_threshold) // (2 * m)
    mu_used = min(mu0, Fraction(3 * r_max, total_w)) if r_max > 0 else Fraction(0)
    if mu_used <= 0:
        return None, StageFailure(
            "weighted_zero_sum",
            "weight_sum_hypothesis",
            total_w,
            ">=",
            base_threshold + 2 * m,  # the r = 1 requirement
            "no positive margin r fits the weighted hypothesis",
            {"m": m, "dim": d - 1},
        )
    # r <= r_max is exactly total_w >= base_threshold + 2 r m
    r = int(-((-mu_used * total_w) // 3))
    _check("margin_r_positive", r, ">=", 1)
    _check("margin_r_within_max", r, "<=", r_max)

    h_basis = linalg.kernel_basis([run.normal.linear], p)
    _check("hyperplane_basis_dimension", len(h_basis), "==", d - 1)
    columns = list(zip(*h_basis))
    h_coords = []
    for x in run.points:
        c = linalg.solve(columns, x, p)
        _check("hyperplane_point_in_basis", c is not None, "==", True)
        h_coords.append(tuple(c))
    _check("hyperplane_coordinates_distinct", len(set(h_coords)), "==", m)
    sol = weighted_zero_sum(WeightedInstance(GroupParams(p, d - 1), tuple(h_coords), run.weights, r))
    _check("weighted_stage_solvable", sol is not None, "==", True)
    a = sol.coefficients
    id_axi = _identity("sum_a_i_x_i", _vsum(zip(a, run.points), d, p), run.params.zero())
    run.a, run.r, run.mu_used = a, r, mu_used
    run.S = tuple(i for i in range(m) if a[i] > 0)
    return {
        "stage": "weighted_zero_sum",
        "dim": d - 1,
        "r": r,
        "mu_used": _num(mu_used),
        "weights": list(run.weights),
        "coefficients": list(a),
        "support": list(run.S),
        "identities": [id_axi],
    }, None


def _tube_projection_stage(run: _Run):
    """Tubular coordinates of X_S, fiber labels and the aggregated a_y."""
    p, params, S, a = run.p, run.params, run.S, run.a
    run.sc = run.sdec.subset_certs[S]
    cert_S = run.sc.cert
    l = run.l = cert_S.l
    M, b_shift = cert_S.psi.matrix, cert_S.psi.shift
    _check("tube_shift_in_label_coordinates", tuple(b_shift[l:]), "==", (0,) * (run.d - l))
    v = run.v = tuple((-c) % p for c in b_shift)  # in F_p^l x {0}
    K_S = run.K_S = cert_S.K

    proj_rank = 0
    for i in S:
        mapped = [linalg.matvec(M, row, p) for row in run.hulls[i][2]]
        rk = linalg.rank([row[:l] for row in mapped], p) if l else 0
        proj_rank = max(proj_rank, rk)
    if proj_rank > 0:
        return None, StageFailure(
            "tube_projection",
            "projected_hull_dimension",
            proj_rank,
            "<=",
            0,
            "K_S is not small enough against the part thickness scale",
            {"S": list(S), "l": l},
        )

    # each part maps with one product; its points share one label
    M_arr = np.array([[c % p for c in row] for row in M], dtype=np.int64)
    part_labels: Dict[int, Vec] = {}
    fiber_rows: Dict[Vec, List[Tuple[np.ndarray, np.ndarray]]] = {}
    run.back_map = {}
    for i in S:
        pts, mults = run.sdec.parts[i].arrays()
        img = pts @ M_arr.T % p
        run.back_map.update(zip(map(tuple, img.tolist()), map(tuple, pts.tolist())))
        heads = (img[:, :l] - np.array(v[:l], dtype=np.int64)) % p
        n_labels = 1 if (heads == heads[0]).all() else len(np.unique(heads, axis=0))
        _check("part_has_one_label", n_labels, "==", 1, f"part {i}")
        label = part_labels[i] = tuple(params.signed(int(h)) for h in heads[0])
        fiber_rows.setdefault(label, []).append((img, mults))
    run.fibers = {}
    for label, rows in fiber_rows.items():
        _check("label_inside_tube_box", max(map(abs, label), default=0), "<=", K_S)
        run.fibers[label] = GroupMultiset._from_arrays(
            params, np.concatenate([img for img, _m in rows]), np.concatenate([m for _i, m in rows])
        )

    ys = ((a[i], linalg.matvec(M, run.points[i], p)[:l]) for i in S)
    id_ys = _identity("sum_a_i_y_i", _vsum(ys, l, p), (0,) * l)
    run.a_y = {}
    for i in S:
        run.a_y[part_labels[i]] = run.a_y.get(part_labels[i], 0) + a[i]
    return {
        "stage": "tube_projection",
        "S": list(S),
        "l": l,
        "K_S": K_S,
        "v": list(v),
        "labels": _labelled(run.a_y),
        "identities": [id_ys],
    }, None


def _thinning_stage(run: _Run):
    """Random thinning feeding the expansion cover.

    Each escalation rung redraws Z with a fresh seed and raises the relation
    search effort, so an unluckily lopsided draw cannot starve the cover.
    """
    delta_S = run.sc.achieved if run.sc.achieved < 1 else run.sdec.delta
    thin_seed = run.rng.randrange(1 << 62)
    run.exp_seed = run.rng.randrange(1 << 62)
    last_stag: Optional[ExpansionStagnation] = None
    last_thin: Optional[ThinningError] = None
    for attempt in range(1, EXPANSION_ESCALATIONS + 1):
        try:
            Z = random_thinning(
                run.fibers,
                run.mu_used,
                delta_S,
                run.K_S,
                run.config.growth,
                thin_seed + attempt - 1,
                THINNING_BUDGET,
                l=run.l,
                upper_cap=run.r,
            )
        except ThinningError as exc:
            last_thin = exc
            continue
        eparams = ExpansionParams(
            T=RELATION_BOUND * min(attempt, 2),
            per_step_samples=8 * attempt,
            seed=run.exp_seed + attempt - 1,
        )
        try:
            run.cover = expansion_cover(Z, run.l, eparams)
        except ExpansionStagnation as exc:
            last_stag = exc
            continue
        run.Z, run.attempts = Z, attempt
        return {
            "stage": "random_thinning",
            "seed": thin_seed + attempt - 1,
            "sizes": _labelled({label: len(Z[label]) for label in Z}),
            "delta_target": _num(delta_S / 4),
        }, None
    if last_stag is None:  # every rung failed at thinning
        worst = last_thin.worst_functional
        return None, StageFailure(
            "random_thinning",
            "thinned_union_thickness",
            last_thin.worst_outside if last_thin.worst_outside is not None else 0,
            ">=",
            last_thin.required if last_thin.required is not None else _num(delta_S / 4),
            "fibers too small or union too thin; escalate epsilon or p",
            {
                "attempts": last_thin.attempts,
                "worst_functional": (
                    {"a0": worst.a0, "linear": list(worst.linear)} if worst else None
                ),
            },
        )
    return None, StageFailure(
        "expansion",
        "cover_growth",
        0,
        ">=",
        1,
        "expansion stagnated after escalation; fibers carry too few pairs",
        {
            "reason": last_stag.reason,
            "covered": last_stag.covered,
            "total": last_stag.total,
            "pairs": last_stag.pairs,
        },
    )


def _expansion_stage(run: _Run):
    """The cover's selector at 0 fixes the per-fiber cardinalities k_y."""
    p, l, cover, Z = run.p, run.l, run.cover, run.Z
    sel0 = cover.select((0,) * (run.d - l))
    run.k_y = {label: len(sel0[label]) for label in sorted(Z)}
    k = cover.k
    id_k = _identity("sum_k_y", sum(run.k_y.values()), k)
    run.u0_shift = _vsum(((cnt, label) for label, cnt in run.k_y.items()), l, p)
    u0_full = _vsum([(1, run.u0_shift), (k, run.v[:l])], l, p)
    id_u0 = _identity("sum_k_y_labels", u0_full, cover.u0)
    for label in sorted(Z):
        ky, zy, ay = run.k_y[label], len(Z[label]), run.a_y[label]
        if not (ky <= zy <= ay):
            return None, StageFailure(
                "expansion",
                "cardinality_chain_k_y<=|Z_y|<=a_y",
                zy,
                "<=",
                ay,
                "thinning produced oversized Z_y for this label",
                {"label": list(label), "k_y": ky, "r": run.r},
            )
    return {
        "stage": "expansion",
        "seed": run.exp_seed,
        "escalation_attempts": run.attempts,
        "k": k,
        "k_y": _labelled(run.k_y),
        "u0": list(cover.u0),
        "pairs": len(cover.pairs),
        "identities": [id_k, id_u0],
    }, None


def _fill_selection_stage(run: _Run):
    """Deterministic fill sets A_y and the residual vector u."""
    p, l, k = run.p, run.l, run.cover.k
    run.fill = {}
    for label in sorted(run.fibers):
        need = run.a_y[label] - run.k_y[label]
        _check("fill_size_nonnegative", need, ">=", 0)
        avail = sorted(x for x, _m in run.fibers[label].items() if x not in run.Z[label])
        if len(avail) < need:
            return None, StageFailure(
                "fill_selection",
                "fill_pool_large_enough",
                len(avail),
                ">=",
                need,
                "fiber too small after thinning",
                {"label": list(label)},
            )
        run.fill[label] = avail[:need]
    u = _vsum(((1, x) for elems in run.fill.values() for x in elems), run.d, p)
    run.u2 = u[l:]
    want_u1 = _vsum([(-1, run.u0_shift), (-k, run.v[:l])], l, p)
    id_u1 = _identity("u1_=_-u0-kv", u[:l], want_u1)
    return {
        "stage": "fill_selection",
        "sizes": _labelled({label: len(elems) for label, elems in run.fill.items()}),
        "u": list(u),
        "identities": [id_u1],
    }, None


def _assembly_stage(run: _Run):
    """Final selector call, assembly of B and its pullback to X."""
    p, d, cover = run.p, run.d, run.cover
    target = tuple((-c) % p for c in run.u2)
    sel = cover.select(target)
    sel_total = _vsum(((1, x) for elems in sel.values() for x in elems), d, p)
    id_sel = _identity("selector_sum", sel_total, tuple(cover.u0) + target)
    _check("selector_cardinality", sum(len(elems) for elems in sel.values()), "==", cover.k)

    b_elements: List[Vec] = []
    for label in sorted(run.fibers):
        b_elements.extend(run.fill[label])
        b_elements.extend(sel.get(label, []))
    _check("B_distinct", len(set(b_elements)), "==", len(b_elements))
    id_b = _identity("sum_B_tilde", _vsum(((1, x) for x in b_elements), d, p), run.params.zero())

    size_ledger = sum(run.a_y[lab] - run.k_y[lab] for lab in run.a_y) + cover.k
    _check("ledger_is_B_size", size_ledger, "==", len(b_elements))
    _check("ledger_is_sum_a_i", size_ledger, "==", sum(run.a[i] for i in run.S))
    # back_map's values are X's points, canonical already
    pulled = sorted(run.back_map[x] for x in b_elements)
    subset = GroupMultiset._trusted(run.params, dict.fromkeys(pulled, 1))
    _check("pullback_injective", len(subset), "==", len(b_elements))
    run.cert = ZeroSumCertificate(run.params, subset)
    return {
        "stage": "assembly",
        "target": list(target),
        "B_size": len(b_elements),
        "identities": [id_sel, id_b],
    }, None


_STAGES = (
    _strong_decompose_stage,
    _hyperplane_stage,
    _weighted_zero_sum_stage,
    _tube_projection_stage,
    _thinning_stage,
    _expansion_stage,
    _fill_selection_stage,
    _assembly_stage,
)


def find_zero_sum(X: GroupMultiset, config: Optional[PipelineConfig] = None) -> PipelineResult:
    """Find a nonempty subset of X with vanishing sum, or fail with a named,
    re-checkable inequality."""
    run = _Run(X, config if config is not None else PipelineConfig())
    if run.d < 2:
        raise ValueError("the pipeline needs d >= 2; use the subset-sum oracle for d = 1")
    if not X.is_set():
        raise ValueError("the pipeline takes a set (all multiplicities 1)")
    if len(X) == 0:
        raise ValueError("empty input")
    trace: dict = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "rng": RNG_ALGORITHM,
        "seed": run.config.seed,
        "config": run.config.as_dict(),
        "p": run.p,
        "d": run.d,
        "input_size": len(X),
        "stages": [],
    }
    zero = run.params.zero()
    if zero in X:
        trace["stages"].append({"stage": "short_circuit", "outcome": "zero element present"})
        run.cert = ZeroSumCertificate(run.params, GroupMultiset(run.params, {zero: 1}))
    else:
        for stage in _STAGES:
            record, failure = stage(run)
            if failure is not None:
                trace["stages"].append({"stage": failure.stage, "outcome": "failure", **failure.as_dict()})
                trace["result"] = {"status": "failure"}
                return PipelineResult(None, failure, trace)
            trace["stages"].append(record)
    _check("certificate_verifies", verify_certificate(X, run.cert), "==", True)
    trace["result"] = {
        "status": "certificate",
        "subset": [[list(e), m] for e, m in run.cert.subset.items()],
        "size": len(run.cert.subset),
    }
    return PipelineResult(run.cert, None, trace)
