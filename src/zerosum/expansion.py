"""Sumset expansion machinery.

Fibers are multisets X_y indexed by small integer label vectors y (the bounded
coordinates of a tube).  Differences that kill the bounded coordinates come
from two sources:

* integer relations lambda on the labels with sum(lambda) = 0 and
  sum(lambda_y * y) = 0: picking |lambda_y| elements from each fiber on the
  positive/negative side makes sigma = sum(J1) - sum(J2) vanish on the first
  l coordinates;
* pairs inside a single fiber, whose difference vanishes there trivially.
  (With l = 0 there is a single fiber and this source *is* the difference
  multiset X - X.)

The cover construction grows a reachable set by repeatedly adjoining the pair
whose difference maximises |(Y + sigma) \\ Y|, exactly the expansion growth
step; past the half-space mark each remaining target is finished by an
exhaustive search for a pair landing on it.  All pairs are disjoint, drawn
from per-fiber free lists, so the final object selects, for every target u,
sub-multisets S_y with a fixed total cardinality and prescribed sum.

Each step builds two tables over the same (p,)^(d-l) grid of sigma: the
growth table, |(Y + sigma) \\ Y| for every sigma from a single FFT
autocorrelation of Y, and the offer table, the number of elements the
cheapest pair with difference sigma consumes (inf where none is offered or
sigma is not admissible).  The step is one masked argmax over the two, and
the chosen shift is recounted exactly.  A fiber pair is stored as its least
free point a, which fixes b = a - sigma; fiber pairs are built in numpy, in
blocks of bounded size whatever the fibers hold.  A relation pair uses at
least four elements against a fiber pair's two, so it wins only with
strictly larger growth: relations are sampled only on steps where the best
fiber pair falls short of the table's maximum over admissible sigma.  Such a
step draws its samples from its own random.Random(f"{seed}/{step}"), step
being the number of pairs taken so far; the other steps draw nothing.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .group import GroupParams, Vec, _check
from .multiset import GroupMultiset


class ExpansionStagnation(RuntimeError):
    """Cover construction stopped before every target was reached."""

    def __init__(self, reason: str, covered: int, total: int, pairs: int):
        super().__init__(
            f"expansion stagnated ({reason}): covered {covered}/{total} after {pairs} pairs"
        )
        self.reason = reason
        self.covered = covered
        self.total = total
        self.pairs = pairs


# ---------------------------------------------------------------------------
# Relations among fiber labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationVector:
    """Integer vector lambda on fiber labels with sum(lambda) = 0 and
    sum(lambda_y * y) = 0 over the integers (hence mod p)."""

    entries: Tuple[Tuple[Vec, int], ...]  # (label, coefficient), nonzero only

    def __post_init__(self):
        if not self.entries:
            raise ValueError("relation must be nonzero")
        labels = [lab for lab, _c in self.entries]
        if labels != sorted(labels):
            raise ValueError("relation entries must be sorted by label")
        if sum(c for _lab, c in self.entries) != 0:
            raise ValueError("relation coefficients must sum to zero")
        l = len(labels[0])
        for k in range(l):
            if sum(c * lab[k] for lab, c in self.entries) != 0:
                raise ValueError("relation does not annihilate the labels")

    def positive(self):
        return [(lab, c) for lab, c in self.entries if c > 0]

    def negative(self):
        return [(lab, -c) for lab, c in self.entries if c < 0]


# the most work one support size of enumerate_relations may cost, counted as
# (2T+1)^size coefficient vectors per label subset, and the least support
# bound it searches to, whatever the label dimension
_COMBO_CAP = 2_000_000
_SUPPORT_CAP = 4


def enumerate_relations(labels: Sequence[Vec], T: int) -> Tuple[RelationVector, ...]:
    """Usable relations with infinity norm at most T.

    One search over label subsets: every integer vector with support from 3
    to max(_SUPPORT_CAP, l + 2), nonzero entries in [-T, T], zero sum and
    zero label sum.  Distinct labels admit no relation of support 2 or less;
    any l + 2 labels admit a rational one (l + 2 points of Q^l are affinely
    dependent), and labels in general position none of smaller support, so
    tubes of any l get relations.  Support sizes are searched in increasing
    order until one would cost more than _COMBO_CAP.  Every vector found is
    a distinct relation; the result is sorted by entries and computed once
    per sorted label set and T.
    """
    return _relations(tuple(sorted(tuple(lab) for lab in labels)), T)


# fiber unions with the same number of fibers share one label set, so a few
# sets recur over a whole run of covers
@functools.lru_cache(maxsize=64)
def _relations(labels: Tuple[Vec, ...], T: int) -> Tuple[RelationVector, ...]:
    ny = len(labels)
    if ny == 0:
        return ()
    l = len(labels[0])
    nonzero = [c for c in range(-T, T + 1) if c]
    found = []
    for size in range(3, min(max(_SUPPORT_CAP, l + 2), ny) + 1):
        if comb(ny, size) * (2 * T + 1) ** size > _COMBO_CAP:
            break
        # labels are sorted, so each subset lists its entries in label order
        for subs in combinations(labels, size):
            for coeffs in product(nonzero, repeat=size):
                if sum(coeffs) == 0 and not any(
                    sum(c * lab[k] for c, lab in zip(coeffs, subs)) for k in range(l)
                ):
                    found.append(RelationVector(tuple(zip(subs, coeffs))))
    return tuple(sorted(found, key=lambda rel: rel.entries))


# ---------------------------------------------------------------------------
# Pair sampling
# ---------------------------------------------------------------------------


def _relation_candidates(
    relations: Sequence[RelationVector],
    free: Dict[Vec, List[Vec]],
    samples: int,
    rng: random.Random,
    params: GroupParams,
) -> Dict[Vec, Tuple]:
    """sigma -> (j1, j2, rel) from `samples` selections of every relation
    the free lists can still serve, keeping per sigma the cheapest
    realization (fewest elements, then least (j1, j2)): pairs eat free
    elements, and a wasteful one can starve the later completion steps.
    One selection takes rng.sample(free[lab], c) per label, positive side
    first."""
    cands: Dict[Vec, Tuple] = {}
    for rel in relations:
        if any(len(free[lab]) < abs(c) for lab, c in rel.entries):
            continue
        pos, neg = rel.positive(), rel.negative()
        for _ in range(samples):
            j1, j2 = (
                tuple(sorted(x for lab, c in side for x in rng.sample(free[lab], c)))
                for side in (pos, neg)
            )
            sigma = _sigma(j1, j2, params)
            held = cands.get(sigma)
            if held is None or (len(held[0]) + len(held[1]), held[0], held[1]) > (
                len(j1) + len(j2), j1, j2,
            ):
                cands[sigma] = (j1, j2, rel)
    return cands


def _check_fiber_geometry(fibers: Dict[Vec, GroupMultiset], l: int, p: int):
    """Each fiber constant on the first l coordinates, offsets matching labels,
    and no two labels congruent mod p (their fibers would share one slab)."""
    base_label = None
    base_coords = None
    residues: Dict[Vec, Vec] = {}
    for label in sorted(fibers):
        key = tuple(c % p for c in label)
        if key in residues:
            raise ValueError(f"fiber labels {residues[key]} and {label} are congruent mod {p}")
        residues[key] = label
        fib = fibers[label]
        if len(fib) == 0:
            raise ValueError(f"fiber {label} is empty")
        first = None
        for x, _m in fib.items():
            head = x[:l]
            if first is None:
                first = head
            elif head != first:
                raise ValueError(f"fiber {label} spans several label slabs")
        if base_label is None:
            base_label, base_coords = label, first
        else:
            expect = tuple(
                (bc + (lab - bl)) % p
                for bc, lab, bl in zip(base_coords, label, base_label)
            )
            if first != expect:
                raise ValueError(
                    f"fiber {label} offset does not match its label (got {first})"
                )


def _sigma(j1: Iterable[Vec], j2: Iterable[Vec], params: GroupParams) -> Vec:
    acc = [0] * params.d
    for x in j1:
        for k, c in enumerate(x):
            acc[k] += c
    for x in j2:
        for k, c in enumerate(x):
            acc[k] -= c
    return tuple(a % params.p for a in acc)


# ---------------------------------------------------------------------------
# The growth step and the cover
# ---------------------------------------------------------------------------


def _growth_table(Y: np.ndarray) -> np.ndarray:
    """|(Y + s) \\ Y| for every shift s of (p,)^D: |Y| minus the overlap
    sum_z 1_Y(z) 1_Y(z - s), a cyclic autocorrelation taken with one real
    FFT and rounded to integers."""
    axes = tuple(range(Y.ndim))
    spectrum = np.fft.rfftn(Y, axes=axes)
    overlap = np.fft.irfftn(spectrum * spectrum.conj(), s=Y.shape, axes=axes)
    counts = np.rint(overlap)
    _check("growth_table_rounding", float(np.abs(overlap - counts).max()), "<=", 0.25)
    return np.count_nonzero(Y) - counts.astype(np.int64)


def _best_shift(
    Y: np.ndarray, table: np.ndarray, cost: np.ndarray
) -> Tuple[Optional[Vec], int, Optional[np.ndarray]]:
    """The growth step: (s, growth, new) for the shift s that maximises
    |(Y + s) \\ Y|, then minimises cost[s], the least in C order on ties,
    where new marks the states Y + s adds.  cost has Y's shape, inf where no
    shift is offered.  Growths are read from table, the _growth_table of Y,
    and the chosen one is recounted with one roll.  (None, 0, None) when no
    shift is offered."""
    offered = np.isfinite(cost)
    if not offered.any():
        return None, 0, None
    top = table[offered].max()
    s = np.unravel_index(np.argmin(np.where(offered & (table == top), cost, np.inf)), Y.shape)
    s = tuple(int(c) for c in s)
    new = np.roll(Y, shift=s, axis=tuple(range(Y.ndim))) & ~Y
    _check("growth_table_recount", int(np.count_nonzero(new)), "==", int(top))
    return s, int(top), new


# most ordered pairs _fiber_pairs holds at once (one a point's pairs at least)
_PAIR_ROWS = 1 << 16


def _fiber_pairs(free: Dict[Vec, List[Vec]], l: int, p: int, d: int) -> np.ndarray:
    """The table over sigma in (p,)^(d-l) of the C-order code in (p,)^d of
    the least free point a with a partner b = a - sigma, b != a, in its own
    fiber; p^d where there is none.  The first l coordinates of sigma are
    zero, so a fixes its fiber and with it b.  Pairs are built in blocks of
    about _PAIR_ROWS, each reduced into the table with np.minimum.at."""
    least_a = np.full((p,) * (d - l), p ** d, dtype=np.int64)
    for support in free.values():
        pts = np.array(sorted(set(support)), dtype=np.int64).reshape(-1, d)
        n = len(pts)
        codes = np.ravel_multi_index(pts.T, (p,) * d)
        per = max(1, _PAIR_ROWS // max(n, 1))  # a points per block
        for start in range(0, n, per):
            ia = np.repeat(np.arange(start, min(start + per, n)), n)
            ib = np.tile(np.arange(n), len(ia) // n)
            ia, ib = ia[ia != ib], ib[ia != ib]
            sigma = tuple(((pts[ia, l:] - pts[ib, l:]) % p).T)
            np.minimum.at(least_a, sigma, codes[ia])
    return least_a


def alon_dubiner_step(A: GroupMultiset, ycur: Iterable[Vec]) -> Tuple[Vec, int]:
    """Element of A maximising |(Y + a) \\ Y|, ties broken lexicographically.

    The maximisation is exhaustive and is the step expansion_cover repeats.
    When A is (K, delta)-thick along every functional with zero constant
    term, the growth is at least max(|Y|^{(d-1)/d} / 2, K delta |Y| / (c0 p)).
    """
    if len(A) == 0:
        raise ValueError("empty difference multiset")
    params = A.params
    p, d = params.p, params.d
    yset = set(tuple(v) for v in ycur)
    if not yset:
        raise ValueError("Y must be nonempty")
    if 2 * len(yset) > params.order:
        raise ValueError("growth step requires |Y| <= p^d / 2")
    shape = (p,) * d
    Y = np.zeros(shape, dtype=bool)
    for v in yset:
        Y[v] = True
    cost = np.full(shape, np.inf)
    cost[tuple(np.array(A.support(), dtype=np.int64).T)] = 0
    sigma, growth, _new = _best_shift(Y, _growth_table(Y), cost)
    return sigma, growth


@dataclass(frozen=True)
class CoverPair:
    j1: Tuple[Vec, ...]
    j2: Tuple[Vec, ...]
    sigma: Vec
    relation: Optional[RelationVector] = None

    @property
    def source(self) -> str:
        return "fiber-pair" if self.relation is None else "relation"


class ExpansionCover:
    """Disjoint pair family whose branch choices hit every coset target.

    For every u in F_p^{d-l} some choice of J1 or J2 per pair sums to
    (u0, u), always with the same total cardinality k.  first_step[s] is the
    1-based index of the pair that first reached state s (0 at the origin,
    -1 if never reached); walking it back from a target yields the choices,
    so a stored cover re-checks offline from its pairs and first_step alone.
    """

    def __init__(
        self,
        params: GroupParams,
        l: int,
        fibers: Dict[Vec, GroupMultiset],
        pairs: Tuple[CoverPair, ...],
        base: Vec,
        k: int,
        first_step: Tuple[int, ...],
    ):
        self.params = params
        self.l = l
        self.fibers = dict(fibers)
        self.pairs = tuple(pairs)
        self.base = tuple(base)
        self.u0 = self.base[:l]
        self.k = k
        self.first_step = tuple(first_step)
        self._label_of: Dict[Vec, Vec] = {}
        for label in sorted(self.fibers):
            for x, _m in self.fibers[label].items():
                self._label_of[x] = label

    @property
    def fiber_dim(self) -> int:
        return self.params.d - self.l

    def _sub(self) -> GroupParams:
        return GroupParams(self.params.p, self.fiber_dim)

    def choices_for(self, u: Vec) -> int:
        """Choice bitmask reaching projected target u (bit i set = take J1).

        Each step's pair must come strictly before the previous one, as it
        does in every cover expansion_cover builds (a state is first reached
        after its predecessor), so the walk takes at most len(pairs) steps
        and a corrupt first_step raises KeyError instead of looping.
        """
        D = self.fiber_dim
        if D == 0:
            return 0
        if len(u) != D:
            raise ValueError(f"target must have {D} coordinates")
        p = self.params.p
        sub = self._sub()
        cur = sub.reduce(tuple((c - b) % p for c, b in zip(u, self.base[self.l :])))
        zero = sub.zero()
        mask = 0
        prev = len(self.pairs) + 1
        while cur != zero:
            i = sub.index(cur)
            t = self.first_step[i] if i < len(self.first_step) else -1
            if not 0 < t < prev:
                raise KeyError(f"target {u} is not covered")
            prev = t
            mask |= 1 << (t - 1)
            sigma_proj = self.pairs[t - 1].sigma[self.l :]
            cur = sub.sub(cur, sigma_proj)
        return mask

    def select(self, u: Vec) -> Dict[Vec, List[Vec]]:
        """Per-fiber selections S_y with sum (u0, u) and total size k."""
        mask = self.choices_for(u)
        out: Dict[Vec, List[Vec]] = {label: [] for label in self.fibers}
        for i, pair in enumerate(self.pairs):
            branch = pair.j1 if (mask >> i) & 1 else pair.j2
            for x in branch:
                out[self._label_of[x]].append(x)
        return out

    def verify_target(self, u: Vec) -> bool:
        params = self.params
        try:
            sel = self.select(u)
        except KeyError:
            return False
        total = [0] * params.d
        count = 0
        for label, elems in sel.items():
            chosen = GroupMultiset.from_points(params, elems) if elems else None
            if chosen is not None and not self.fibers[label].contains_submultiset(chosen):
                return False
            count += len(elems)
            for x in elems:
                for kk, c in enumerate(x):
                    total[kk] += c
        if count != self.k:
            return False
        want = tuple(self.u0) + tuple(c % params.p for c in u)
        return tuple(t % params.p for t in total) == want

    def verify_all_targets(self) -> bool:
        D = self.fiber_dim
        if D == 0:
            return self.k == 0 and not self.pairs
        sub = self._sub()
        if len(self.first_step) != sub.order:
            return False
        return all(self.verify_target(sub.unindex(i)) for i in range(sub.order))

    def validate(self) -> List[Tuple[str, bool]]:
        """Re-check the cover from its fibers, pairs and first_step alone."""
        sigma_ok = all(
            _sigma(pair.j1, pair.j2, self.params) == pair.sigma
            and not any(pair.sigma[: self.l])
            for pair in self.pairs
        )
        used: Dict[Vec, int] = {}
        for pair in self.pairs:
            for x in pair.j1 + pair.j2:
                used[x] = used.get(x, 0) + 1
        pool = GroupMultiset.empty(self.params)
        for fib in self.fibers.values():
            pool = pool.union(fib)
        disjoint = all(pool.multiplicity(x) >= count for x, count in used.items())
        return [
            ("sigma_provenance", sigma_ok),
            ("pairs_disjoint", disjoint),
            ("covers_all_targets", self.verify_all_targets()),
        ]


@dataclass
class ExpansionParams:
    T: int = 2
    per_step_samples: int = 8
    seed: int = 0


def expansion_cover(
    fibers: Dict[Vec, GroupMultiset],
    l: int,
    params: Optional[ExpansionParams] = None,
) -> ExpansionCover:
    """Cover of a full coset {u0} x F_p^{d-l} by disjoint pair selections.

    Raises ExpansionStagnation when no available pair grows the reachable set
    (or, past the half-space mark, none lands on the next uncovered target);
    ValueError unless 0 <= l <= d, every label has l coordinates, no two
    labels are congruent mod p, T >= 0 and per_step_samples >= 0.
    With l = d the target coset is a single point and the empty cover (k = 0)
    is returned.
    """
    if params is None:
        params = ExpansionParams()
    if not fibers:
        raise ValueError("need at least one fiber")
    gparams = next(iter(fibers.values())).params
    p, d = gparams.p, gparams.d
    if not 0 <= l <= d:
        raise ValueError(f"l = {l} outside [0, {d}]")
    if any(len(label) != l for label in fibers):
        raise ValueError(f"every fiber label must have l = {l} coordinates")
    if params.T < 0:
        raise ValueError(f"relation bound T = {params.T} is negative")
    if params.per_step_samples < 0:
        raise ValueError(f"per_step_samples = {params.per_step_samples} is negative")
    D = d - l
    _check_fiber_geometry(fibers, l, p)

    if D == 0:
        return ExpansionCover(gparams, l, fibers, (), (0,) * d, 0, ())

    labels = sorted(fibers)
    relations = enumerate_relations(labels, params.T) if l > 0 else ()
    # per label, the elements no pair has taken yet, sorted with multiplicity
    free = {label: sorted(fibers[label].iter_with_multiplicity()) for label in labels}
    label_of = {x: label for label in labels for x in fibers[label].support()}

    shape = (p,) * D
    Y = np.zeros(shape, dtype=bool)
    zero_state = (0,) * D
    Y[zero_state] = True
    first_step = np.full(shape, -1, dtype=np.int64)
    first_step[zero_state] = 0
    total_states = p ** D

    pairs: List[CoverPair] = []
    hard_cap = 2 * total_states + 16

    while not Y.all():
        covered = int(Y.sum())
        table = _growth_table(Y)
        # past the half-space mark only sigmas landing on the first uncovered
        # target compete
        growing = 2 * covered <= total_states
        if growing:
            admissible = np.ones(shape, dtype=bool)
        else:
            target = np.argwhere(~Y)[0]
            admissible = Y[np.ix_(*[(t - np.arange(p)) % p for t in target])]
        bound = table[admissible].max()
        least_a = _fiber_pairs(free, l, p, d)
        fiber = least_a < p ** d
        # a relation pair uses >= 4 elements against a fiber pair's 2, so it
        # can win only when no admissible fiber pair reaches the bound
        rel_cands = {}
        if not (fiber & admissible & (table == bound)).any():
            rng = random.Random(f"{params.seed}/{len(pairs)}")
            rel_cands = _relation_candidates(
                relations, free, params.per_step_samples, rng, gparams
            )
        # the elements an offer consumes (both branches of a pair have the
        # same size): maximise growth, then spend the fewest, then least sigma
        cost = np.where(fiber, 2.0, np.inf)
        for sigma, (j1, _j2, _rel) in rel_cands.items():
            cost[sigma[l:]] = min(cost[sigma[l:]], 2 * len(j1))
        if np.isinf(cost).all():
            raise ExpansionStagnation("no available pairs", covered, total_states, len(pairs))
        cost[~admissible] = np.inf
        s, growth, new = _best_shift(Y, table, cost)
        if growth < 1:
            reason = "no growth" if growing else "completion blocked"
            raise ExpansionStagnation(reason, covered, total_states, len(pairs))
        sigma = (0,) * l + s
        if fiber[s]:
            a = tuple(int(c) for c in np.unravel_index(least_a[s], (p,) * d))
            j1, j2, rel = (a,), (gparams.sub(a, sigma),), None
        else:
            j1, j2, rel = rel_cands[sigma]
        for x in j1 + j2:
            free[label_of[x]].remove(x)
        first_step[new] = len(pairs) + 1
        Y |= new
        pairs.append(CoverPair(j1, j2, sigma, rel))
        if len(pairs) > hard_cap:
            raise ExpansionStagnation("pair cap", int(Y.sum()), total_states, len(pairs))

    for pair in pairs:
        s1 = _sigma(pair.j1, (), gparams)
        s2 = _sigma(pair.j2, (), gparams)
        _check("pair_branch_heads_equal", s1[:l], "==", s2[:l])
        _check("pair_branch_sizes_equal", len(pair.j1), "==", len(pair.j2))
    base = _sigma([x for pair in pairs for x in pair.j2], (), gparams)
    k = sum(len(pair.j1) for pair in pairs)
    return ExpansionCover(
        gparams, l, fibers, tuple(pairs), base, k,
        tuple(int(x) for x in first_step.reshape(-1)),
    )

