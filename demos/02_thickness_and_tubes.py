"""
Thickness, tube reductions, and decompositions
==============================================

A multiset is (K, delta)-thick along a functional xi when a delta-fraction
of it escapes the slab H(xi, K).  Sets that are thin somewhere concentrate
in tubes; slicing those tubes recursively yields parts that are thick inside
their own affine hulls, and a subset-sweep upgrades the decomposition so
every union of parts carries a tubular certificate.
"""

from fractions import Fraction

from zerosum import (
    GroupParams,
    GrowthFunction,
    LinearFunctional,
    ThicknessParams,
    decompose,
    find_thin_functional,
    is_thick,
    nonconstant_directions,
    strong_decompose,
    tube_decompose,
)
from zerosum.generators import fiber_union, random_cloud
from zerosum.multiset import GroupMultiset

g = GrowthFunction.parse("K+1")  # slow growth suits desk-scale primes

# The full line F_7 is thick along the identity: H(x, 1) = {-1, 0, 1} holds
# three of seven points, so four escape -- more than half.
line = GroupMultiset.from_points(GroupParams(7, 1), [(i,) for i in range(7)])
thick, outside = is_thick(line, LinearFunctional(0, (1,)), ThicknessParams(1, Fraction(1, 2)))
print("full line F_7 thick at (K=1, delta=1/2)?", thick, "| outside mass:", outside)

# Scans run over a family of canonical directions (leading coefficient 1):
# those non-constant on the span of a basis.  Spanning the whole plane keeps
# all 12 directions of F_11^2; spanning the line through (1, 1) drops the one
# direction (1, 10) that is constant along it.
everywhere = nonconstant_directions(11, 2, [(1, 0), (0, 1)])
print("directions of F_11^2:", len(everywhere),
      "| non-constant along (1, 1):", len(nonconstant_directions(11, 2, [(1, 1)])))

# A box is thin in every coordinate direction: the whole set fits in a slab.
p11 = GroupParams(11, 2)
boxpts = [(a % 11, b % 11) for a in (-1, 0, 1) for b in (-1, 0, 1)]
box = GroupMultiset.from_points(p11, boxpts)
xi = find_thin_functional(box, 1, Fraction(1, 10), everywhere)
print("\nbox [-1,1]^2: thin along", xi)

# Scalar multiples matter.  Two clusters at x1 in {0,1,2} and {15,16,17} of
# F_31 look spread out, but doubling maps the labels onto {30,0,1,2,3,4}:
# one window of radius 3 swallows everything.  Exhaustive scans therefore
# sweep every scaling of every direction.
import random

rng = random.Random(1)
p31 = GroupParams(31, 2)
pts = {(c % 31, rng.randrange(31)) for c in (0, 1, 2, 15, 16, 17) for _ in range(12)}
clusters = GroupMultiset.from_points(p31, sorted(pts))
xi = find_thin_functional(
    clusters, 3, Fraction(1, 100), nonconstant_directions(31, 2, [(1, 0), (0, 1)])
)
print("two clusters: thin along", xi.linear, "(a scaled multiple of x1)")

# tube_decompose implements the greedy reduction: pick independent thin
# directions at growing radii, keep the survivors, and certify the result
# tubular.  A slab keeps everything with l = 1 bounded coordinate.
slab = GroupMultiset.from_points(p11, [(a % 11, b) for a in (-1, 0, 1) for b in range(11)])
Y, cert = tube_decompose(slab, 0, Fraction(1, 16), g)
print("\nslab [-1,1] x F_11: kept", len(Y), "of", len(slab), "| l =", cert.l, "K =", cert.K)
ok, achieved, _ = cert.validate(Y)
print("certificate re-validates:", ok, "| achieved fiber thickness:", achieved)

# decompose splits a multiset into parts that are thick in their own hulls.
# Two parallel lines become two parts, each a line, nothing discarded.
two = GroupMultiset.from_points(
    p31, [(0, b) for b in range(31)] + [(1, b) for b in range(31)]
)
dec = decompose(two, 0, Fraction(1, 2), g)
print("\ntwo parallel lines: m =", dec.m, "| |X_0| =", len(dec.x0), "| mu =", dec.mu)

# strong_decompose additionally sweeps all 2^m - 1 part unions with tube
# reductions on a fast-shrinking delta schedule; each union ends up with a
# re-checkable tubular certificate.
five = fiber_union(p31, 5, seed=0, offset=1)
sdec = strong_decompose(five, 0, Fraction(1, 8), g)
print("\nfive lines: m =", sdec.m, "| K =", sdec.K, "| sweep removals:", sdec.removed_in_sweeps)
for subset in sorted(sdec.subset_certs)[:4]:
    sc = sdec.subset_certs[subset]
    print(f"  union {subset}: l = {sc.cert.l}, K_S = {sc.cert.K}, achieved {sc.achieved}")
print("  ... and", 2 ** sdec.m - 1 - 4, "more unions, all certified")
checks = sdec.validate(five)
print("full validation:", all(ok for _, ok in checks))
