"""normgeo: norm geometry on R^n.

Norm families (lp, weighted lp, gram), the line functional t -> ||x+ty||,
angular distances, a catalog of triangle-type inequalities, and a
counterexample search that tells inner-product norms from the rest.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# Each public name and the submodule that defines it. A submodule is imported
# on the first use of one of its names (PEP 562), so a process that only
# builds norm specs never compiles the searches or imports the sweep's thread
# pool. `normgeo.cli` still imports what it runs eagerly.
_SUBMODULE_EXPORTS = {
    "distances": ("DistancePair", "angular_distance", "distance_pair", "skew_angular_distance"),
    "detect": (
        "CONSISTENT",
        "VIOLATED",
        "DetectionVerdict",
        "RefinedMaxResult",
        "SearchConfig",
        "SearchResult",
        "detect_inner_product",
        "dw_constant_estimate",
        "parallelogram_defect_search",
        "violation_search",
    ),
    "errors": (
        "DerivativeConvergenceError",
        "DimensionMismatchError",
        "GramValidationError",
        "NormGeoError",
        "NormSpecError",
        "ZeroVectorError",
    ),
    "functional": (
        "LEFT",
        "RIGHT",
        "CurveSample",
        "DerivativeEstimate",
        "convexity_defect",
        "n_curve",
        "n_eval",
        "one_sided_derivative",
        "quadratic_difference_defect",
        "reciprocal_order_agreement",
        "reflection_identity_defect",
        "write_curve_csv",
    ),
    "inequalities": (
        "CONDITIONAL_IDS",
        "UNIVERSAL_IDS",
        "BatchResult",
        "InequalityId",
        "InequalityReport",
        "Witness",
        "batch_min_slack",
        "evaluate_inequality",
    ),
    "norms": (
        "LP",
        "QUADRATIC",
        "WEIGHTED_LP",
        "AxiomReport",
        "NormSpec",
        "gram_validate",
        "load_norm_spec",
        "lp_norm",
        "norm_eval",
        "parse_norm_spec",
        "quadratic_norm",
        "sample_pair",
        "sample_points",
        "spec_to_dict",
        "validate_norm_axioms",
        "weighted_lp_norm",
    ),
}

_HOME = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULE_EXPORTS])


def __getattr__(name):
    if name in _SUBMODULE_EXPORTS:
        # importing a submodule binds it as an attribute of this package
        return _import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
