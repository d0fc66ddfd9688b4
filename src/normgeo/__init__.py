"""normgeo: norm geometry on R^n.

Norm families (lp, weighted lp, gram), the line functional t -> ||x+ty||,
angular distances, a catalog of triangle-type inequalities, and a
counterexample search that tells inner-product norms from the rest.
"""

__version__ = "0.1.0"

from .distances import DistancePair, angular_distance, distance_pair, skew_angular_distance
from .detect import (
    CONSISTENT,
    VIOLATED,
    DetectionVerdict,
    RefinedMaxResult,
    SearchConfig,
    SearchResult,
    detect_inner_product,
    dw_constant_estimate,
    parallelogram_defect_search,
    violation_search,
)
from .errors import (
    DerivativeConvergenceError,
    DimensionMismatchError,
    GramValidationError,
    NormGeoError,
    NormSpecError,
    ZeroVectorError,
)
from .functional import (
    LEFT,
    RIGHT,
    CurveSample,
    DerivativeEstimate,
    convexity_defect,
    n_curve,
    n_eval,
    one_sided_derivative,
    quadratic_difference_defect,
    reciprocal_order_agreement,
    reflection_identity_defect,
    write_curve_csv,
)
from .inequalities import (
    CONDITIONAL_IDS,
    UNIVERSAL_IDS,
    BatchResult,
    InequalityId,
    InequalityReport,
    Witness,
    batch_min_slack,
    evaluate_inequality,
)
from .norms import (
    LP,
    QUADRATIC,
    WEIGHTED_LP,
    AxiomReport,
    NormSpec,
    gram_validate,
    load_norm_spec,
    lp_norm,
    norm_eval,
    parse_norm_spec,
    quadratic_norm,
    sample_pair,
    sample_points,
    spec_to_dict,
    validate_norm_axioms,
    weighted_lp_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
