"""
Expansion covers
================

To hit a prescribed sum inside a tube we build pairs (J1, J2) of disjoint
selections whose difference sigma = sum(J1) - sum(J2) vanishes on the
bounded coordinates, then let the reachable set double: each pair
contributes either branch, and the pair whose difference maximises
|(Y + sigma) \\ Y| is adjoined until the whole coset is covered.  Past the
half-space mark one extra pair per remaining target finishes the job.
"""

from fractions import Fraction

from zerosum import GroupParams, alon_dubiner_step
from zerosum.expansion import ExpansionParams, enumerate_relations, expansion_cover
from zerosum.group import canonical_linear_parts
from zerosum.multiset import GroupMultiset
from zerosum.thickness import min_outside_fraction

# Integer relations on fiber labels: coefficients summing to zero that also
# kill the labels.  Three collinear labels admit the classic (1, -2, 1).
rels = enumerate_relations([(-1,), (0,), (1,)], T=2)
for rel in rels:
    print("relation:", dict(rel.entries))

# Three fibers whose second coordinates lie in {0, 1, 2}: a pair inside one
# fiber only shifts by +-1 or +-2, so the cover also samples selections for
# the relations, whose differences vanish on the first coordinate too.
params = GroupParams(11, 2)
counts = {-1: (2, 2, 1), 0: (3, 3, 1), 1: (1, 3, 3)}
fibers = {
    (lab,): GroupMultiset.from_points(
        params, [(lab % 11, v) for v, m in enumerate(mult) for _ in range(m)]
    )
    for lab, mult in counts.items()
}
cover = expansion_cover(fibers, l=1, params=ExpansionParams(seed=0))
print("\ncover built:", len(cover.pairs), "pairs | k =", cover.k, "| u0 =", cover.u0)
for i, pair in enumerate(cover.pairs, 1):
    origin = dict(pair.relation.entries) if pair.relation else "same fiber"
    print(f"  pair {i}: sigma {pair.sigma} ({pair.source}, {origin})")
    print(f"          J1 {list(pair.j1)}  J2 {list(pair.j2)}")
print("checks:", cover.validate())

# One growth step: the exhaustive maximiser of |(Y + a) \ Y| over the pair
# differences.
sigmas = GroupMultiset.from_points(params, (pair.sigma for pair in cover.pairs))
a, growth = alon_dubiner_step(sigmas, [(0, 0)])
print("\nfirst growth step: shift", a, "grows Y by", growth)

# Thickness of the differences on the fiber factor F_11: the worst fraction
# outside a window of half-width K = 2 over every functional without
# constant term.
fiber = GroupParams(11, 1)
projected = GroupMultiset.from_points(fiber, (pair.sigma[1:] for pair in cover.pairs))
frac, _worst = min_outside_fraction(
    projected, 2, canonical_linear_parts(11, 1), zero_constant_term=True
)
print("fiber thickness: worst outside fraction", frac, ">= 1/8:", frac >= Fraction(1, 8))

# Every target u is reached with selections of the same total cardinality k.
sel = cover.select((4,))
print("\nselection for target u = 4:")
for label in sorted(sel):
    if sel[label]:
        print("  fiber", label, "->", sel[label])

# The l = 0 case degenerates to the single multiset X whose pairs come from
# X - X.
params11 = GroupParams(11, 1)
X = GroupMultiset.from_points(params11, [(i,) for i in range(11)])
cover0 = expansion_cover({(): X}, l=0, params=ExpansionParams(seed=1))
print("\nl = 0 over F_11:", len(cover0.pairs), "pairs, k =", cover0.k,
      "| all targets verify:", cover0.verify_all_targets())
