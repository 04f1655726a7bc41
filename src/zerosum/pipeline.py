"""End-to-end zero-sum search, mirroring the structural proof stage by stage.

Given a set X in F_p^d, the run strong-decomposes it, meets every part's
affine hull with a random hyperplane through the origin, solves a weighted
zero-sum instance in the hyperplane's (d-1)-dimensional coordinates, and
lifts that solution back to an actual subset of X through the tubular
structure: random thinning reserves fibers for an expansion cover, the cover
fixes per-fiber cardinalities k_y, deterministic fill sets A_y contribute the
remaining a_y - k_y elements, and a final selector call cancels the total.

Every inequality the argument relies on is asserted at run time on exact
integers or Fractions; a violated one aborts the stage with a StageFailure
recording the precondition and both evaluated sides.  The asymptotic
"sufficiently large p" has no other footprint in the code.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .expansion import ExpansionParams, ExpansionStagnation, expansion_cover
from .group import GroupParams, LinearFunctional, Vec, affine_hull
from .multiset import GroupMultiset
from .subsums import ZeroSumCertificate, find_zero_sum_subset
from .thickness import (
    DecompositionBudgetError,
    GrowthFunction,
    SubsetSweepBudgetError,
    candidate_parts,
    min_outside_fraction,
    strong_decompose,
)
from .weighted import CoefficientSolution, WeightedInstance, weighted_zero_sum

RNG_ALGORITHM = "MT19937"  # python random.Random; reproducible given the seed
TRACE_SCHEMA_VERSION = 2


class PipelineInternalError(AssertionError):
    """An identity the argument guarantees failed to hold; always a bug."""


@dataclass
class PipelineConfig:
    epsilon: Fraction = Fraction(1, 2)
    growth: GrowthFunction = GrowthFunction("affine", 1, 1)
    seed: int = 0
    k0: int = 0
    hyperplane_budget: int = 1000
    thinning_budget: int = 100
    expansion_escalations: int = 3
    relation_bound: int = 2
    m_budget: int = 12
    n_cap: int = 32
    oracle_prepass: bool = False

    def __post_init__(self):
        self.epsilon = Fraction(self.epsilon)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        for name in ("hyperplane_budget", "thinning_budget", "expansion_escalations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def as_dict(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "growth": self.growth.describe(),
            "seed": self.seed,
            "k0": self.k0,
            "hyperplane_budget": self.hyperplane_budget,
            "thinning_budget": self.thinning_budget,
            "expansion_escalations": self.expansion_escalations,
            "relation_bound": self.relation_bound,
            "m_budget": self.m_budget,
            "n_cap": self.n_cap,
            "oracle_prepass": self.oracle_prepass,
            "rng": RNG_ALGORITHM,
        }

    def digest(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _num(x):
    if isinstance(x, Fraction):
        return str(x)
    return x


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

    _OPS = {
        ">=": lambda a, b: a >= b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        "<": lambda a, b: a < b,
        "==": lambda a, b: a == b,
    }

    def holds(self) -> bool:
        return self._OPS[self.op](Fraction(self.lhs), Fraction(self.rhs))

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
    """Lexicographically smallest point of (base + span basis) ∩ {<normal, .> = 0}."""
    c0 = sum(n * b for n, b in zip(normal, base)) % p
    w = [sum(n * b for n, b in zip(normal, row)) % p for row in basis]
    h = len(basis)
    if all(x == 0 for x in w):
        if c0 != 0:
            return None
        free = h
        pivot = None
    else:
        pivot = next(i for i, x in enumerate(w) if x != 0)
        free = h - 1
    if p ** free > 200_000:
        raise ValueError("hull too large for exhaustive hyperplane intersection")
    best = None
    for idx in range(p ** free):
        t = [0] * h
        rem = idx
        slots = [i for i in range(h) if i != pivot]
        for pos in reversed(slots):
            rem, r = divmod(rem, p)
            t[pos] = r
        if pivot is not None:
            acc = (-c0 - sum(w[i] * t[i] for i in slots)) % p
            t[pivot] = (acc * linalg.inv_mod(w[pivot], p)) % p
        x = tuple(
            (b + sum(t[i] * basis[i][k] for i in range(h))) % p
            for k, b in enumerate(base)
        )
        if best is None or x < best:
            best = x
    return best


def sample_hyperplane(
    hulls: Sequence[Tuple[int, Vec, Tuple[Vec, ...]]],
    p: int,
    d: int,
    rng: random.Random,
    budget: int = 1000,
    require_distinct_points: bool = False,
) -> Tuple[LinearFunctional, List[Vec]]:
    """Uniform nonzero normals until the kernel hyperplane meets every hull.

    Returns the functional (zero constant term) and one lexicographically
    smallest intersection point per hull.  Raises HyperplaneError when the
    budget runs out, the signal that p is too small for this many hulls.
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
            if require_distinct_points and len(set(points)) != len(points):
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
    l: Optional[int] = None,
    upper_cap: Optional[int] = None,
) -> Dict[Vec, GroupMultiset]:
    """Binomial subsets Z_y with per-fiber size windows and a joint
    (g(K_S), delta/4)-thickness requirement on the union.

    The lower window edge is ceil(mu |X_y| / 20); the upper edge is
    ceil(mu |X_y| / 10) or, when upper_cap is given (the pipeline passes its
    margin r), anything up to min(upper_cap, |X_y| - 1), which keeps the
    later cardinality chain k_y <= |Z_y| <= a_y intact at small p.  Draws are
    rejected until every window and the thickness scan pass; deterministic
    given the seed.
    """
    rng = random.Random(seed)
    if l is None:
        l = len(next(iter(fibers)))
    params = next(iter(fibers.values())).params
    Kp = g(K_S)
    windows = {}
    for label in sorted(fibers):
        n = len(fibers[label])
        lo = -((-mu * n) // 20)  # ceil of a Fraction
        lo = max(1, int(lo))
        hi = -((-mu * n) // 10)
        hi = max(lo, int(hi))
        if upper_cap is not None:
            hi = min(max(hi, upper_cap), n - 1) if n > 1 else 0
            hi = max(hi, 0)
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
            chosen = [x for x in fib.iter_with_multiplicity() if rng.random() < q]
            if not (lo <= len(chosen) <= hi):
                ok = False
                break
            draw[label] = GroupMultiset.from_points(params, chosen)
        if not ok:
            continue
        union = GroupMultiset.empty(params)
        for z in draw.values():
            union = union.union(z)
        parts = candidate_parts(union, fiber_start=l)
        frac, worst = min_outside_fraction(union, Kp, parts)
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
    return {"name": name, "lhs": _num(lhs), "rhs": _num(rhs), "holds": lhs == rhs}


def _require(cond: bool, message: str):
    if not cond:
        raise PipelineInternalError(message)


def find_zero_sum(X: GroupMultiset, config: Optional[PipelineConfig] = None) -> PipelineResult:
    """Find a nonempty subset of X with vanishing sum, or fail with a named,
    re-checkable inequality."""
    if config is None:
        config = PipelineConfig()
    params = X.params
    p, d = params.p, params.d
    if d < 2:
        raise ValueError("the pipeline needs d >= 2; use the subset-sum oracle for d = 1")
    if not X.is_set():
        raise ValueError("the pipeline takes a set (all multiplicities 1)")
    if len(X) == 0:
        raise ValueError("empty input")

    eps = config.epsilon
    g = config.growth
    rng = random.Random(config.seed)
    trace: dict = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "rng": RNG_ALGORITHM,
        "seed": config.seed,
        "config": config.as_dict(),
        "p": p,
        "d": d,
        "input_size": len(X),
        "stages": [],
    }
    stages: List[dict] = trace["stages"]

    def fail(sf: StageFailure) -> PipelineResult:
        stages.append({"stage": sf.stage, "outcome": "failure", **sf.as_dict()})
        trace["result"] = {"status": "failure"}
        return PipelineResult(None, sf, trace)

    def success(cert: ZeroSumCertificate) -> PipelineResult:
        ok = verify_certificate(X, cert)
        _require(ok, "produced certificate failed independent verification")
        trace["result"] = {
            "status": "certificate",
            "subset": [[list(e), m] for e, m in cert.subset.items()],
            "size": len(cert.subset),
        }
        return PipelineResult(cert, None, trace)

    # stage 0: short circuits
    zero = params.zero()
    if zero in X:
        stages.append({"stage": "short_circuit", "outcome": "zero element present"})
        return success(ZeroSumCertificate(params, GroupMultiset(params, {zero: 1})))
    if config.oracle_prepass and Fraction(len(X)) < (d - 1 + eps) * p:
        cert = find_zero_sum_subset(X)
        stages.append({"stage": "oracle_prepass", "outcome": "certificate" if cert else "absent"})
        if cert is not None:
            return success(cert)
        return fail(
            StageFailure(
                "oracle_prepass",
                "zero_in_subsums",
                0,
                ">=",
                1,
                "0 is provably not a nonempty subsum of X",
                {"input_size": len(X)},
            )
        )

    # stage 1: strong decomposition with eps' = eps / 2d
    eps_dec = eps / (2 * d)
    try:
        sdec = strong_decompose(X, config.k0, eps_dec, g, config.m_budget, config.n_cap)
    except SubsetSweepBudgetError as exc:
        return fail(
            StageFailure(
                "strong_decompose",
                "part_count_within_budget",
                exc.m,
                "<=",
                exc.budget,
                "raise m_budget or use a larger epsilon",
                {"error": str(exc)},
            )
        )
    except DecompositionBudgetError as exc:
        return fail(
            StageFailure(
                "strong_decompose",
                "iterate_exponent_within_cap",
                config.n_cap + 1,
                "<=",
                config.n_cap,
                "choose a slower-growing g or raise n_cap",
                {"error": str(exc)},
            )
        )
    m = sdec.m
    X_prime = GroupMultiset.empty(params)
    for part in sdec.parts:
        X_prime = X_prime.union(part)
    mu0 = sdec.mu
    mu_norm_ok = mu0 * m < eps / 100
    stages.append(
        {
            "stage": "strong_decompose",
            "m": m,
            "K": sdec.K,
            "l": sdec.l,
            "delta": _num(sdec.delta),
            "mu": _num(mu0),
            "x0_size": len(sdec.x0),
            "retained": len(X_prime),
            "mu_norm_mu_m_lt_eps_over_100": bool(mu_norm_ok),
        }
    )

    # stage 2: hyperplane through the origin meeting every hull
    hulls = [affine_hull(part.support(), p) for part in sdec.parts]
    min_dim = min(h[0] for h in hulls)
    if min_dim < 1:
        return fail(
            StageFailure(
                "hyperplane",
                "hull_dimension_positive",
                min_dim,
                ">=",
                1,
                "a part degenerated to one point; use a larger instance",
                {"dims": [h[0] for h in hulls]},
            )
        )
    try:
        normal, points = sample_hyperplane(
            hulls, p, d, rng, config.hyperplane_budget, require_distinct_points=True
        )
    except HyperplaneError as exc:
        return fail(
            StageFailure(
                "hyperplane",
                "admissible_hyperplanes_found",
                0,
                ">=",
                1,
                "p is too small relative to m; use a larger prime",
                {"attempts": exc.attempts},
            )
        )
    stages.append(
        {
            "stage": "hyperplane",
            "normal": list(normal.linear),
            "points": [list(x) for x in points],
        }
    )

    # stage 3: weighted zero-sum inside the hyperplane (dimension d - 1)
    weights = tuple(len(part) for part in sdec.parts)
    total_w = sum(weights)
    _require(total_w == len(X_prime), "weights do not add up to |X'|")
    base_threshold = (d - 1) * (p - 1) + 1
    r_nominal = -((-mu0 * len(X_prime)) // 3)  # ceil(mu0 |X'| / 3)
    if total_w < base_threshold:
        rhs = base_threshold + 2 * int(r_nominal) * m
        return fail(
            StageFailure(
                "weighted_zero_sum",
                "weight_sum_hypothesis",
                total_w,
                ">=",
                rhs,
                "instance too small: grow |X| or shrink epsilon",
                {"r": int(r_nominal), "m": m, "dim": d - 1},
            )
        )
    r_max = (total_w - base_threshold) // (2 * m)
    mu_cap = Fraction(3 * r_max, len(X_prime)) if r_max > 0 else Fraction(0)
    mu_used = min(mu0, mu_cap) if mu_cap > 0 else Fraction(0)
    if mu_used <= 0:
        rhs = base_threshold + 2 * m  # the r = 1 requirement
        return fail(
            StageFailure(
                "weighted_zero_sum",
                "weight_sum_hypothesis",
                total_w,
                ">=",
                rhs,
                "no positive margin r fits the weighted hypothesis",
                {"m": m, "dim": d - 1},
            )
        )
    r = int(-((-mu_used * len(X_prime)) // 3))
    _require(1 <= r <= r_max, "margin r fell outside its feasible range")
    _require(total_w >= base_threshold + 2 * r * m, "r <= r_max yet the weight sum is short")

    h_basis = linalg.kernel_basis([normal.linear], p)
    _require(len(h_basis) == d - 1, "hyperplane basis has wrong dimension")
    sub = GroupParams(p, d - 1)
    h_coords = []
    for x in points:
        c = linalg.solve(list(zip(*h_basis)), x, p)
        _require(c is not None, "hyperplane point failed to express in basis")
        h_coords.append(tuple(c))
    _require(len(set(h_coords)) == m, "hyperplane coordinates collided")
    inst = WeightedInstance(sub, tuple(h_coords), weights, r)
    sol = weighted_zero_sum(inst)
    _require(sol is not None, "weighted stage is guaranteed yet returned infeasible")
    a = sol.coefficients
    lift = [0] * d
    for ai, x in zip(a, points):
        for k, c in enumerate(x):
            lift[k] += ai * c
    id_axi = _identity("sum_a_i_x_i", tuple(t % p for t in lift), zero)
    _require(id_axi["holds"], "sum a_i x_i != 0 after lifting")
    S = tuple(i for i in range(m) if a[i] > 0)
    stages.append(
        {
            "stage": "weighted_zero_sum",
            "dim": d - 1,
            "r": r,
            "mu_used": _num(mu_used),
            "weights": list(weights),
            "coefficients": list(a),
            "support": list(S),
            "identities": [id_axi],
        }
    )

    # stage 4: tubular coordinates of X_S, labels, aggregated a_y
    sc = sdec.subset_certs[S]
    cert_S = sc.cert
    l = cert_S.l
    M = cert_S.psi.matrix
    b_shift = cert_S.psi.shift
    _require(all(c == 0 for c in b_shift[l:]), "tube shift leaks into fiber coords")
    v = tuple((-c) % p for c in b_shift)  # in F_p^l x {0}
    K_S = cert_S.K

    proj_rank = 0
    for i in S:
        _dim, _base, basis = hulls[i]
        mapped = [linalg.matvec(M, row, p) for row in basis]
        rk = linalg.rank([row[:l] for row in mapped], p) if l else 0
        proj_rank = max(proj_rank, rk)
    if proj_rank > 0:
        return fail(
            StageFailure(
                "tube_projection",
                "projected_hull_dimension",
                proj_rank,
                "<=",
                0,
                "K_S is not small enough against the part thickness scale",
                {"S": list(S), "l": l},
            )
        )

    def tilde(x: Vec) -> Vec:
        return linalg.matvec(M, x, p)

    part_labels: Dict[int, Vec] = {}
    fibers: Dict[Vec, GroupMultiset] = {}
    fiber_entries: Dict[Vec, Dict[Vec, int]] = {}
    back_map: Dict[Vec, Vec] = {}
    for i in S:
        labels_seen = set()
        for x, mult in sdec.parts[i].items():
            xt = tilde(x)
            back_map[xt] = x
            label = tuple(params.signed((h - vv) % p) for h, vv in zip(xt[:l], v[:l]))
            labels_seen.add(label)
            fiber_entries.setdefault(label, {})[xt] = mult
        _require(len(labels_seen) == 1, "a part spread over several labels")
        part_labels[i] = labels_seen.pop()
    for label, entries in fiber_entries.items():
        _require(all(abs(c) <= K_S for c in label), "label outside the tube box")
        fibers[label] = GroupMultiset(params, entries)

    ys_sum = [0] * l
    for i in S:
        yi = tuple(tilde(points[i])[:l])
        for k, c in enumerate(yi):
            ys_sum[k] += a[i] * c
    id_ys = _identity("sum_a_i_y_i", tuple(t % p for t in ys_sum), (0,) * l)
    _require(id_ys["holds"], "projected coefficient identity failed")

    a_y: Dict[Vec, int] = {}
    for i in S:
        a_y[part_labels[i]] = a_y.get(part_labels[i], 0) + a[i]
    stages.append(
        {
            "stage": "tube_projection",
            "S": list(S),
            "l": l,
            "K_S": K_S,
            "v": list(v),
            "labels": {str(list(lab)): a_y[lab] for lab in sorted(a_y)},
            "identities": [id_ys],
        }
    )

    # stages 5 and 6: random thinning feeding the expansion cover.  Each
    # escalation rung redraws Z with a fresh seed and raises the relation
    # search effort, so an unluckily lopsided draw cannot starve the cover.
    delta_S = sc.achieved if sc.achieved < 1 else sdec.delta
    thin_seed = rng.randrange(1 << 62)
    exp_seed = rng.randrange(1 << 62)
    cover = None
    Z = None
    attempts_used = 0
    last_stag: Optional[ExpansionStagnation] = None
    last_thin: Optional[ThinningError] = None
    rungs = max(1, config.expansion_escalations)
    for attempt in range(1, rungs + 1):
        try:
            Z_try = random_thinning(
                fibers,
                mu_used,
                delta_S,
                K_S,
                g,
                thin_seed + attempt - 1,
                config.thinning_budget,
                l=l,
                upper_cap=r,
            )
        except ThinningError as exc:
            last_thin = exc
            continue
        eparams = ExpansionParams(
            T=config.relation_bound * min(attempt, 2),
            per_step_samples=8 * attempt,
            seed=exp_seed + attempt - 1,
        )
        try:
            cover = expansion_cover(Z_try, l, eparams)
            Z = Z_try
            attempts_used = attempt
            break
        except ExpansionStagnation as exc:
            last_stag = exc
    if cover is None:
        if last_stag is None and last_thin is not None:
            worst = last_thin.worst_functional
            return fail(
                StageFailure(
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
            )
        _require(last_stag is not None, "no cover, yet no expansion attempt failed")
        return fail(
            StageFailure(
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
        )
    stages.append(
        {
            "stage": "random_thinning",
            "seed": thin_seed + attempts_used - 1,
            "sizes": {str(list(lab)): len(Z[lab]) for lab in sorted(Z)},
            "delta_target": _num(delta_S / 4),
        }
    )

    sel0 = cover.select((0,) * (d - l))
    k_y = {label: len(sel0[label]) for label in sorted(Z)}
    k = cover.k
    id_k = _identity("sum_k_y", sum(k_y.values()), k)
    _require(id_k["holds"], "selector at 0 has wrong cardinality")
    u0_shift = [0] * l
    for label, cnt in k_y.items():
        for kk, c in enumerate(label):
            u0_shift[kk] += cnt * c
    u0_shift = tuple(t % p for t in u0_shift)
    u0_full = tuple((us + k * vv) % p for us, vv in zip(u0_shift, v[:l]))
    id_u0 = _identity("sum_k_y_labels", u0_full, cover.u0)
    _require(id_u0["holds"], "k_y label sum disagrees with the cover's u0")

    for label in sorted(Z):
        ky, zy, ay = k_y[label], len(Z[label]), a_y[label]
        if not (ky <= zy <= ay):
            return fail(
                StageFailure(
                    "expansion",
                    "cardinality_chain_k_y<=|Z_y|<=a_y",
                    zy,
                    "<=",
                    ay,
                    "thinning produced oversized Z_y for this label",
                    {"label": list(label), "k_y": ky, "r": r},
                )
            )
    stages.append(
        {
            "stage": "expansion",
            "seed": exp_seed,
            "escalation_attempts": attempts_used,
            "k": k,
            "k_y": {str(list(lab)): k_y[lab] for lab in sorted(k_y)},
            "u0": list(cover.u0),
            "pairs": len(cover.pairs),
            "identities": [id_k, id_u0],
        }
    )

    # stage 7: deterministic fill sets A_y and the residual vector u
    fill: Dict[Vec, List[Vec]] = {}
    for label in sorted(fibers):
        need = a_y[label] - k_y[label]
        _require(need >= 0, "k_y <= a_y passed, yet the fill size is negative")
        avail = sorted(
            x for x, _m in fibers[label].items() if x not in Z[label]
        )
        if len(avail) < need:
            return fail(
                StageFailure(
                    "fill_selection",
                    "fill_pool_large_enough",
                    len(avail),
                    ">=",
                    need,
                    "fiber too small after thinning",
                    {"label": list(label)},
                )
            )
        fill[label] = avail[:need]
    u = [0] * d
    for elems in fill.values():
        for x in elems:
            for kk, c in enumerate(x):
                u[kk] += c
    u = tuple(t % p for t in u)
    u1, u2 = u[:l], u[l:]
    want_u1 = tuple((-(us) - k * vv) % p for us, vv in zip(u0_shift, v[:l]))
    id_u1 = _identity("u1_=_-u0-kv", u1, want_u1)
    _require(id_u1["holds"], "bounded coordinates of the fill sum are off")
    stages.append(
        {
            "stage": "fill_selection",
            "sizes": {str(list(lab)): len(fill[lab]) for lab in sorted(fill)},
            "u": list(u),
            "identities": [id_u1],
        }
    )

    # stage 8: final selector call and assembly of B
    target = tuple((-c) % p for c in u2)
    sel = cover.select(target)
    sel_total = [0] * d
    sel_count = 0
    for label, elems in sel.items():
        sel_count += len(elems)
        for x in elems:
            for kk, c in enumerate(x):
                sel_total[kk] += c
    sel_total = tuple(t % p for t in sel_total)
    id_sel = _identity(
        "selector_sum", sel_total, tuple(cover.u0) + tuple(target)
    )
    _require(id_sel["holds"], "final selector sum mismatch")
    _require(sel_count == k, "final selector cardinality mismatch")

    b_elements: List[Vec] = []
    for label in sorted(fibers):
        b_elements.extend(fill[label])
        b_elements.extend(sel.get(label, []))
    _require(len(set(b_elements)) == len(b_elements), "assembled B has collisions")
    total = [0] * d
    for x in b_elements:
        for kk, c in enumerate(x):
            total[kk] += c
    id_b = _identity("sum_B_tilde", tuple(t % p for t in total), zero)
    _require(id_b["holds"], "assembled B does not vanish in tube coordinates")

    size_ledger = sum(a_y[lab] - k_y[lab] for lab in a_y) + k
    _require(size_ledger == len(b_elements), "cardinality ledger mismatch")
    _require(size_ledger == sum(a[i] for i in S), "ledger disagrees with sum a_i")

    original = [back_map[x] for x in b_elements]
    subset = GroupMultiset.from_points(params, original)
    _require(len(subset) == len(b_elements), "pullback collapsed elements")
    cert = ZeroSumCertificate(params, subset)
    stages.append(
        {
            "stage": "assembly",
            "target": list(target),
            "B_size": len(b_elements),
            "identities": [id_sel, id_b],
        }
    )
    return success(cert)
