"""
Weighted zero-sum coefficients
==============================

Given distinct points y with weights w(y) and a margin r, we need integers
a_y in {0} u [r, w(y)-r], not all zero, with sum a_y y = 0.  Whenever
sum w(y) >= d(p-1) + 2r|Y| + 1 a solution exists, and the solver realises
that guarantee by exhaustive dynamic programming over partial sums, so its
"infeasible" answers are proofs.
"""

import random
from collections import Counter

from zerosum import GroupParams, WeightedInstance, verify_coefficients, weighted_zero_sum
from zerosum.multiset import GroupMultiset
from zerosum.weighted import brute_force_solvable

# A forced case: Y = {1} in F_3 with weight 3.  The only way to cancel is to
# take the coefficient 3 itself (3 * 1 = 0 mod 3).
inst = WeightedInstance(GroupParams(3, 1), ((1,),), (3,), 0)
print("Y={1}, w=3, r=0  ->  a =", weighted_zero_sum(inst).coefficients)

# A margin keeps coefficients away from the ends: a_y is 0 or in [r, w-r].
inst = WeightedInstance(GroupParams(5, 1), ((1,), (2,)), (5, 5), 1)
sol = weighted_zero_sum(inst)
print("Y={1,2} in F_5, w=(5,5), r=1  ->  a =", sol.coefficients)
print("verifies:", verify_coefficients(inst, sol))

# Only a_y mod p moves the sum, so the DP branches over residues with their
# smallest literal representatives; the hypothesis line decides whether a
# miss is legal.
tight = WeightedInstance(GroupParams(5, 1), ((1,),), (2,), 1)
print("\nhypothesis holds for w=2, r=1?", tight.hypothesis_holds())
print("solver says:", weighted_zero_sum(tight))

# Against Cartesian brute force on a random small instance.
rng = random.Random(3)
params = GroupParams(7, 2)
points = tuple(sorted({(rng.randrange(7), rng.randrange(7)) for _ in range(4)}))
inst = WeightedInstance(params, points, (4, 5, 3, 6), 1)
print("\nrandom instance solvable?", weighted_zero_sum(inst) is not None,
      "| brute force:", brute_force_solvable(inst))

# The r = 0 specialisation: any n > d(p-1) elements (repeats allowed)
# contain a nonempty zero-sum subsequence.  Here d(p-1) = 4 and n = 5: the
# weights are the multiplicities, and a coefficient says how many copies of
# its point the subsequence takes.
params = GroupParams(3, 2)
seq = [(1, 0), (1, 0), (2, 1), (0, 2), (1, 2)]
counts = Counter(seq)
points = tuple(sorted(counts))
inst = WeightedInstance(params, points, tuple(counts[y] for y in points), 0)
print("\nhypothesis holds for 5 elements of F_3^2?", inst.hypothesis_holds())
sol = weighted_zero_sum(inst)
sub = GroupMultiset(params, {y: a for y, a in zip(points, sol.coefficients) if a})
print("sequence of 5 in F_3^2 -> zero-sum sub-multiset:", dict(sub.items()))
assert sub.total() == params.zero()
assert GroupMultiset.from_points(params, seq).contains_submultiset(sub)
