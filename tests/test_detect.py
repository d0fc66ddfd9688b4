import concurrent.futures.process
import json
import math
import multiprocessing
import os
import subprocess
import sys
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


def test_flat_optimum_stops_well_inside_the_budget():
    # On an inner-product norm every LORCH slack is 0 up to rounding; the
    # sufficient-decrease rule lets restarts reach the step floor instead of
    # climbing rounding noise until their budgets run out, and quartering
    # the step after a failed sweep gets them there in 14 levels, not 28.
    spec = ng.quadratic_norm(random_spd(4, 77))
    cfg = SearchConfig(dim=4, seed=20240805, restarts=16)
    res = violation_search(spec, InequalityId.LORCH, cfg)
    assert res.evaluations <= 0.3 * cfg.restarts * cfg.iters_per_restart
    assert res.best_violation <= 1e-12
    assert res.budget_stops < cfg.restarts


def test_budget_stops_count_restarts_and_refines_cut_by_their_budget():
    cfg = SearchConfig(dim=2, seed=7, restarts=12, iters_per_restart=5)
    res = violation_search(L1, InequalityId.N_ORDERING, cfg)
    assert (res.budget_stops, res.evaluations) == (12, 60)
    res = dw_constant_estimate(ng.weighted_lp_norm(2, [1e-40] * 2), 300, 1)
    assert (res.skipped, res.budget_stops) == (300, 0)


def test_search_validation():
    with pytest.raises(ng.NormGeoError, match="universal"):
        violation_search(L1, InequalityId.MASSERA_SCHAFFER, SMALL)
    with pytest.raises(ng.NormGeoError, match="dim"):
        violation_search(ng.lp_norm(1, 3), InequalityId.LORCH, SMALL)
    for bad, name in (
        (dict(restarts=0), "restarts"),
        (dict(restarts=2.5), "restarts"),
        (dict(restarts=True), "restarts"),
        (dict(restarts=8193), "restarts"),
        (dict(iters_per_restart=0), "iters_per_restart"),
        (dict(iters_per_restart=1.5), "iters_per_restart"),
        (dict(seed=-1), "seed"),
        (dict(seed=2.5), "seed"),
        (dict(dim=3.0), "dim"),
        (dict(dim="2"), "dim"),
        (dict(dim=0), "dim"),
    ):
        with pytest.raises(ng.NormGeoError, match=name):
            SearchConfig(**{"dim": 2, "seed": 1, **bad})
    SearchConfig(dim=2, seed=0, restarts=np.int64(8192), iters_per_restart=np.int32(1))


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
    # l_2 scaled by 1e-20: every sampled ||x|| and ||y|| lies far below the
    # 1e-12 floor, so every pair must be skipped, never divided through
    spec = ng.weighted_lp_norm(2, [1e-40] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dw_constant_estimate(spec, budget=200, seed=5)
    assert res.skipped == 200
    assert res.value == -math.inf


@pytest.mark.parametrize("search", [dw_constant_estimate, parallelogram_defect_search])
def test_all_skipped_fallback_pair_owns_its_data(search):
    # Views into the first sampled block would keep its whole stacks alive
    # for as long as the result lives.
    res = search(ng.weighted_lp_norm(2, [1e-40] * 2), budget=4000, seed=1)
    assert res.skipped == 4000
    assert res.x.base is None and res.y.base is None
    assert res.x.shape == res.y.shape == (2,)


def test_side_check_validation():
    for search in (dw_constant_estimate, parallelogram_defect_search):
        for budget, seed, name in ((0, 1, "budget"), (2.5, 1, "budget"),
                                   (True, 1, "budget"), (10, -1, "seed"), (10, 1.5, "seed")):
            with pytest.raises(ng.NormGeoError, match=name):
                search(L1, budget=budget, seed=seed)


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
    a.pop("wall_time_s")
    for workers in (4, 2, 7):
        b = detect_inner_product(L1, cfg, workers=workers, side_budget=300).to_dict()
        b.pop("wall_time_s")
        assert a == b, workers


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    task in this process."""

    def __init__(self, built):
        self.built = built

    def __call__(self, max_workers, mp_context=None):
        self.built.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def built(monkeypatch):
    """The max_workers of every process pool built during the test."""
    out = []
    monkeypatch.setattr(
        concurrent.futures.process, "ProcessPoolExecutor", RecordingPool(out)
    )
    return out


TINY = SearchConfig(dim=2, seed=3, restarts=2, iters_per_restart=40)


def _report(verdict):
    d = verdict.to_dict()
    d.pop("wall_time_s")
    return d


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "call, match",
    [
        (dict(spec=ng.lp_norm(1, 3)), "dim"),
        (dict(config=SearchConfig(dim=3, seed=1)), "dim"),
        (dict(side_budget=0), "side_budget"),
        (dict(side_budget=-3), "side_budget"),
        (dict(side_budget=2.5), "side_budget"),
    ],
    ids=["spec-dim", "config-dim", "zero-side-budget", "negative-side-budget",
         "fractional-side-budget"],
)
def test_detect_rejects_bad_arguments_before_any_process(workers, call, match, built):
    kwargs = {**dict(spec=L1, config=TINY, side_budget=30), **call}
    with pytest.raises(ng.NormGeoError, match=match):
        detect_inner_product(workers=workers, **kwargs)
    assert built == []


@pytest.mark.parametrize("workers", [0, -3, 2.0, "2", None, True])
def test_bad_workers_are_rejected_before_any_process(workers, built):
    with pytest.raises(ng.NormGeoError, match="workers"):
        detect_inner_product(L1, TINY, workers=workers, side_budget=30)
    with pytest.raises(ng.NormGeoError, match="workers"):
        ng.batch_min_slack(InequalityId.MALIGRANDA_UPPER, L1, 100, 1, workers=workers)
    assert built == []


def test_pool_is_capped_at_the_four_parts(built):
    serial = _report(detect_inner_product(L1, TINY, side_budget=30))
    assert built == []
    for workers in (10**6, 3):
        pooled = detect_inner_product(L1, TINY, workers=workers, side_budget=30)
        assert _report(pooled) == serial
    assert built == [4, 3]


def test_platform_without_fork_runs_in_process(monkeypatch, built):
    serial = _report(detect_inner_product(L1, TINY, side_budget=30))
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _report(detect_inner_product(L1, TINY, workers=2, side_budget=30)) == serial
    assert built == []


_AFTER_THREADS = """
import json, sys
import normgeo as ng
spec = ng.lp_norm(1, 2)
ng.batch_min_slack(ng.InequalityId.MALIGRANDA_UPPER, spec, 40000, 5, workers=3)
cfg = ng.SearchConfig(dim=2, seed=17, restarts=4, iters_per_restart=200)
verdict = ng.detect_inner_product(spec, cfg, workers=2, side_budget=200)
json.dump(verdict.to_dict(), sys.stdout)
"""


def test_forked_detect_after_a_thread_pool_does_not_hang():
    # A fork taken while some lock is held would leave the children blocked
    # on it; the timeout turns such a hang into a failure.
    src = os.path.dirname(os.path.dirname(ng.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _AFTER_THREADS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    forked = json.loads(proc.stdout)
    forked.pop("wall_time_s")
    cfg = SearchConfig(dim=2, seed=17, restarts=4, iters_per_restart=200)
    serial = _report(detect_inner_product(L1, cfg, workers=1, side_budget=200))
    assert forked == json.loads(json.dumps(serial))


def test_verdict_dict_shape():
    cfg = SearchConfig(dim=2, seed=1, restarts=2, iters_per_restart=100)
    d = detect_inner_product(L1, cfg, side_budget=50).to_dict()
    assert d["verdict"] in (VIOLATED, CONSISTENT)
    assert set(d["per_objective"]) == {o.value for o in CONDITIONAL_IDS}
    assert d["config"]["seed"] == 1
    assert isinstance(d["discrepancy_flagged"], bool)
    for key in ("parallelogram", "dw_estimate"):
        assert set(d[key]) == {
            "value", "witness", "evaluations", "budget_stops", "skipped",
        }


# Key order of every report's to_dict(): the order of the JSON reports.
_REPORT_KEYS = {
    ng.Witness: ["x", "y", "t", "gamma"],
    ng.InequalityReport: ["id", "lhs", "rhs", "slack", "witness", "universal"],
    ng.BatchResult: [
        "id", "lhs", "rhs", "slack", "witness", "universal",
        "trial_index", "min_normalized_slack",
    ],
    ng.AxiomReport: [
        "worst_homogeneity_defect", "worst_triangle_slack",
        "worst_positivity", "passed",
    ],
    ng.SearchConfig: ["dim", "seed", "restarts", "iters_per_restart"],
    ng.SearchResult: [
        "objective", "best_violation", "witness", "witness_slack", "evaluations",
        "budget_stops",
    ],
    ng.RefinedMaxResult: [
        "value", "witness", "evaluations", "budget_stops", "skipped",
    ],
    ng.DetectionVerdict: [
        "verdict", "per_objective", "parallelogram", "dw_estimate",
        "discrepancy_flagged", "config", "wall_time_s",
    ],
}


def _assert_plain(value):
    # exact types: a numpy float or a str enum would pass an isinstance check
    if type(value) is dict:
        for k, v in value.items():
            assert type(k) is str
            _assert_plain(v)
    elif type(value) is list:
        for v in value:
            _assert_plain(v)
    else:
        assert type(value) in (float, int, bool, str, type(None)), type(value)


def test_report_dicts_follow_field_order_with_plain_values():
    cfg = SearchConfig(dim=2, seed=1, restarts=2, iters_per_restart=100)
    verdict = detect_inner_product(L1, cfg, side_budget=50)
    batch = ng.batch_min_slack(InequalityId.MALIGRANDA_UPPER, L1, trials=64, seed=1)
    lorch = ng.evaluate_inequality(InequalityId.LORCH, L1, [1, 0], [0, 1], gamma=2.0)
    reports = [
        verdict,
        verdict.config,
        verdict.parallelogram,
        verdict.dw_estimate,
        *verdict.per_objective.values(),
        batch,
        batch.report,
        batch.report.witness,
        lorch,
        lorch.witness,
        ng.validate_norm_axioms(L1, 100, 1),
    ]
    assert {type(r) for r in reports} == set(_REPORT_KEYS)
    for r in reports:
        d = r.to_dict()
        assert list(d) == _REPORT_KEYS[type(r)]
        _assert_plain(d)
    d = verdict.to_dict()
    assert list(d["per_objective"]) == [o.value for o in CONDITIONAL_IDS]
    assert list(d["parallelogram"]["witness"]) == ["x", "y"]
