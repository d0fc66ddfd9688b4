"""The package's public surface, and what `import normgeo` loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import normgeo as ng

PUBLIC = [
    "AxiomReport", "BatchResult", "CONDITIONAL_IDS", "CONSISTENT", "CurveSample",
    "DerivativeConvergenceError", "DerivativeEstimate", "DetectionVerdict",
    "DimensionMismatchError", "DistancePair", "GramValidationError", "InequalityId",
    "InequalityReport", "LEFT", "LP", "NormGeoError", "NormSpec", "NormSpecError",
    "QUADRATIC", "RIGHT", "RefinedMaxResult", "SearchConfig", "SearchResult",
    "UNIVERSAL_IDS", "VIOLATED", "WEIGHTED_LP", "Witness", "ZeroVectorError",
    "angular_distance", "batch_min_slack", "convexity_defect", "detect",
    "detect_inner_product", "distance_pair", "distances", "dw_constant_estimate",
    "errors", "evaluate_inequality", "functional", "gram_validate", "inequalities",
    "load_norm_spec", "lp_norm", "n_curve", "n_eval", "norm_eval", "norms",
    "one_sided_derivative", "parallelogram_defect_search", "parse_norm_spec",
    "quadratic_difference_defect", "quadratic_norm", "reciprocal_order_agreement",
    "reflection_identity_defect", "sample_pair", "sample_points",
    "skew_angular_distance", "spec_to_dict", "validate_norm_axioms",
    "violation_search", "weighted_lp_norm", "write_curve_csv",
]
SUBMODULES = ["detect", "distances", "errors", "functional", "inequalities", "norms"]

# the names perfbench/tracer.py wraps on normgeo.cli; the CLI must bind them
# at import, so a wrapper installed on their home modules afterwards is not
# picked up a second time
CLI_TRACED = [
    "detect_inner_product", "batch_min_slack", "dw_constant_estimate", "n_curve",
    "validate_norm_axioms",
]


def test_all_keeps_the_public_names():
    assert sorted(ng.__all__) == PUBLIC
    assert "cli" not in ng.__all__


def test_each_export_is_its_submodules_object():
    modules = [importlib.import_module(f"normgeo.{m}") for m in SUBMODULES]
    for name in set(PUBLIC) - set(SUBMODULES):
        value = getattr(ng, name)
        if hasattr(value, "__qualname__"):
            homes = [sys.modules[value.__module__]]
        else:
            # a constant: every submodule that holds the name holds this object
            homes = [m for m in modules if hasattr(m, name)]
        assert homes, name
        for home in homes:
            assert value is getattr(home, name), name


def test_submodule_names_resolve_to_the_submodules():
    for name in SUBMODULES:
        assert getattr(ng, name) is importlib.import_module(f"normgeo.{name}")


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(ng))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from normgeo import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(ng, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'normgeo'"):
        ng.no_such_name  # noqa: B018
    assert not hasattr(ng, "no_such_name")


_SPEC_ONLY = """
import json, sys
import normgeo as ng
ng.lp_norm(3, 2)
ng.weighted_lp_norm(1, [1.0, 2.0])
ng.quadratic_norm([[2.0, 0.5], [0.5, 1.0]])
json.dump({"normgeo": sorted(m for m in sys.modules if m.split(".")[0] == "normgeo"),
           "futures": "concurrent.futures" in sys.modules}, sys.stdout)
"""


def _fresh(code):
    """stdout of `code` run in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(ng.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_building_specs_loads_only_errors_and_norms():
    loaded = json.loads(_fresh(_SPEC_ONLY))
    assert loaded == {"normgeo": ["normgeo", "normgeo.errors", "normgeo.norms"], "futures": False}


def test_submodules_resolve_in_a_fresh_process():
    code = f"import normgeo as ng; print([getattr(ng, m).__name__ for m in {SUBMODULES!r}])"
    assert _fresh(code).strip() == repr([f"normgeo.{m}" for m in SUBMODULES])


def test_cli_binds_the_traced_names_at_import():
    import normgeo.cli

    names = vars(normgeo.cli)
    for name in CLI_TRACED:
        assert name in names, name
