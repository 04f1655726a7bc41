"""Zero-sum subsets in F_p^d.

Exact subset-sum oracles (reachability tables, Olson constants), thickness
and tube decompositions, weighted zero-sum solving, sumset expansion covers,
and the end-to-end certificate-producing search that ties them together.
"""

from .group import (
    AffineIso,
    GroupParams,
    LinearFunctional,
    SymmetricInterval,
    affine_hull,
    eval_functional,
    in_tube_set,
)
from .multiset import GroupMultiset, change_coords
from .subsums import (
    ReachabilityTable,
    ZeroSumCertificate,
    enumerate_subsums,
    find_zero_sum_subset,
    max_zero_sum_free,
    naive_subsums,
    olson_constant,
)
from .thickness import (
    Decomposition,
    GrowthFunction,
    StrongDecomposition,
    ThicknessParams,
    TubularCertificate,
    decompose,
    find_thin_functional,
    is_thick,
    nonconstant_directions,
    strong_decompose,
    tube_decompose,
)
from .weighted import (
    CoefficientSolution,
    WeightedInstance,
    verify_coefficients,
    weighted_zero_sum,
    zero_sum_sequence,
)
from .expansion import ExpansionCover, alon_dubiner_step, expansion_cover
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    StageFailure,
    find_zero_sum,
    random_thinning,
    sample_hyperplane,
    verify_certificate,
)

__version__ = "0.1.0"
