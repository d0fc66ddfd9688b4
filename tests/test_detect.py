import math
import warnings

import numpy as np
import pytest

import normgeo as ng
from normgeo.detect import (
    CONSISTENT,
    VIOLATED,
    SearchConfig,
    detect_inner_product,
    dw_constant_estimate,
    parallelogram_defect_search,
    violation_search,
)
from normgeo.inequalities import CONDITIONAL_IDS, InequalityId
from support import random_spd

L1 = ng.lp_norm(1, 2)
L2 = ng.lp_norm(2, 2)

# reduced budgets keep the unit tests fast; acceptance uses the defaults
SMALL = SearchConfig(dim=2, seed=7, restarts=12, iters_per_restart=600)


def replay(spec, res):
    w = res.witness
    rep = ng.evaluate_inequality(
        res.objective, spec, w.x, w.y, t=w.t, gamma=w.gamma
    )
    return rep.slack


@pytest.mark.parametrize("objective", CONDITIONAL_IDS, ids=lambda o: o.value)
def test_search_finds_violations_on_l1(objective):
    res = violation_search(L1, objective, SMALL)
    assert res.best_violation > 1e-3
    assert res.witness_slack == -res.best_violation
    assert replay(L1, res) == res.witness_slack
    assert res.evaluations <= SMALL.restarts * SMALL.iters_per_restart


@pytest.mark.parametrize("objective", CONDITIONAL_IDS, ids=lambda o: o.value)
def test_search_sound_on_euclidean(objective):
    res = violation_search(L2, objective, SMALL)
    assert res.best_violation <= 1e-9
    # the best point is still a valid witness whose slack replays exactly
    assert replay(L2, res) == res.witness_slack


def test_search_accepts_string_objective():
    res = violation_search(L1, "ALPHA_BETA", SMALL)
    assert res.objective is InequalityId.ALPHA_BETA


def test_more_restarts_never_hurt():
    few = violation_search(L1, InequalityId.N_ORDERING, SMALL)
    cfg = SearchConfig(dim=2, seed=7, restarts=24, iters_per_restart=600)
    more = violation_search(L1, InequalityId.N_ORDERING, cfg)
    assert more.best_violation >= few.best_violation


def test_search_validation():
    with pytest.raises(ng.NormGeoError, match="universal"):
        violation_search(L1, InequalityId.MASSERA_SCHAFFER, SMALL)
    with pytest.raises(ng.NormGeoError, match="dim"):
        violation_search(ng.lp_norm(1, 3), InequalityId.LORCH, SMALL)
    for bad in (dict(restarts=0), dict(iters_per_restart=0)):
        with pytest.raises(ng.NormGeoError):
            SearchConfig(dim=2, seed=1, **bad)


def test_lorch_witness_is_equal_norm():
    res = violation_search(L1, InequalityId.LORCH, SMALL)
    w = res.witness
    nx = ng.norm_eval(L1, w.x)
    ny = ng.norm_eval(L1, w.y)
    assert abs(nx - ny) <= 1e-9 * max(nx, ny)
    assert 0.125 <= abs(w.gamma) <= 8.0


def test_dw_constant_euclidean_is_two():
    res = dw_constant_estimate(L2, budget=2000, seed=3)
    assert res.value == pytest.approx(2.0, abs=1e-6)
    assert res.value <= 2.0 + 1e-9


def test_dw_constant_l1_approaches_four():
    res = dw_constant_estimate(L1, budget=3000, seed=3)
    assert 3.3 <= res.value <= 4.0 + 1e-9
    # the reported pair reproduces the reported value
    nx = ng.norm_eval(L1, res.x)
    ny = ng.norm_eval(L1, res.y)
    c = ng.angular_distance(L1, res.x, res.y) * (nx + ny) / ng.norm_eval(
        L1, res.x - res.y
    )
    assert c == pytest.approx(res.value, rel=1e-12)


def test_dw_constant_quadratic_is_two():
    spec = ng.quadratic_norm(random_spd(3, 5))
    res = dw_constant_estimate(spec, budget=2000, seed=11)
    assert res.value == pytest.approx(2.0, abs=1e-6)


def test_parallelogram_quadratic_defect_is_rounding_only():
    spec = ng.quadratic_norm(random_spd(3, 5))
    res = parallelogram_defect_search(spec, budget=2000, seed=13)
    assert 0.0 <= res.value <= 1e-9


def test_parallelogram_l1_defect_is_large():
    res = parallelogram_defect_search(L1, budget=2000, seed=13)
    assert res.value >= 1.5
    assert res.skipped == 0
    assert res.evaluations >= 2000


def test_dw_constant_skips_pairs_with_vanishing_norms():
    # radii down to 1e-200 square to zero in l_2, so these pairs have a zero
    # ||x|| or ||y|| and must be skipped, never divided through
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dw_constant_estimate(L2, budget=200, seed=5, radius_range=(1e-200, 1.0))
    assert res.skipped == 200
    assert res.value == -math.inf


def test_side_check_validation():
    with pytest.raises(ng.NormGeoError, match="budget"):
        dw_constant_estimate(L1, budget=0, seed=1)


def test_detect_l1_is_violated():
    cfg = SearchConfig(dim=2, seed=9, restarts=10, iters_per_restart=500)
    verdict = detect_inner_product(L1, cfg, side_budget=500)
    assert verdict.verdict == VIOLATED
    assert set(verdict.per_objective) == set(CONDITIONAL_IDS)
    assert not verdict.discrepancy_flagged
    assert verdict.wall_time_s > 0.0
    assert verdict.parallelogram.value > 1.0
    assert verdict.dw_estimate.value > 2.5


def test_detect_euclidean_is_consistent():
    cfg = SearchConfig(dim=2, seed=9, restarts=10, iters_per_restart=500)
    verdict = detect_inner_product(L2, cfg, side_budget=500)
    assert verdict.verdict == CONSISTENT
    assert not verdict.discrepancy_flagged
    assert verdict.dw_estimate.value <= 2.0 + 1e-6
    assert verdict.parallelogram.value <= 1e-9


def test_detect_determinism_across_workers():
    cfg = SearchConfig(dim=2, seed=17, restarts=8, iters_per_restart=400)
    a = detect_inner_product(L1, cfg, workers=1, side_budget=300).to_dict()
    b = detect_inner_product(L1, cfg, workers=4, side_budget=300).to_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_verdict_dict_shape():
    cfg = SearchConfig(dim=2, seed=1, restarts=2, iters_per_restart=100)
    d = detect_inner_product(L1, cfg, side_budget=50).to_dict()
    assert d["verdict"] in (VIOLATED, CONSISTENT)
    assert set(d["per_objective"]) == {o.value for o in CONDITIONAL_IDS}
    assert d["config"]["seed"] == 1
    assert isinstance(d["discrepancy_flagged"], bool)
    for key in ("parallelogram", "dw_estimate"):
        assert set(d[key]) == {"value", "witness", "evaluations", "skipped", "seed"}
