"""The side checks as a detect runs them, refined in one engine call,
against dw_constant_estimate and parallelogram_defect_search run alone;
and the norm kernel calls one search objective makes per score."""

import json
import math

import numpy as np
import pytest

import normgeo as ng
import normgeo.detect as det
import normgeo.inequalities as ineq
import normgeo.norms as norms
from normgeo.inequalities import InequalityId
from support import random_spd

SPECS = {
    "l1": ng.lp_norm(1, 2),
    "linf": ng.lp_norm(math.inf, 3),
    "l3": ng.lp_norm(3, 3),
    "wl1": ng.weighted_lp_norm(1, [0.5, 2.0, 1.25]),
    "gram3": ng.quadratic_norm(random_spd(3, 19)),
    # l_2 scaled by 1e-20: both checks skip every sampled pair
    "vanishing": ng.weighted_lp_norm(2, [1e-40] * 2),
    # l_2 scaled by 2.4e-13: every norm is at most 0.96e-12, so the DW
    # estimate skips every pair, while the parallelogram probe keeps the
    # pairs whose n(x)^2 + n(y)^2 passes 1e-24
    "dw-blind": ng.weighted_lp_norm(2, [5.76e-26] * 2),
}
SEED = 11


def bits(report):
    # json writes each float's repr, so equal strings mean equal bits
    return json.dumps(report.to_dict(), sort_keys=True)


def fused_and_alone(spec, side_budget):
    engine = det._compass_search
    rows = []

    def spy(fn, p0, *args):
        rows.append(len(p0))
        return engine(fn, p0, *args)

    config = ng.SearchConfig(dim=spec.dim, seed=SEED, restarts=2, iters_per_restart=30)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(det, "_compass_search", spy)
        verdict = det.detect_inner_product(spec, config, side_budget=side_budget)
    alone = (
        det.dw_constant_estimate(spec, side_budget, SEED),
        det.parallelogram_defect_search(spec, side_budget, SEED),
    )
    return verdict, alone, rows


@pytest.mark.parametrize("name", sorted(SPECS))
def test_fused_side_checks_match_the_standalone_ones(name):
    spec = SPECS[name]
    verdict, (dw, pg), rows = fused_and_alone(spec, 300)
    assert bits(verdict.dw_estimate) == bits(dw)
    assert bits(verdict.parallelogram) == bits(pg)
    # one engine call per search (2 restarts), and one for both side
    # checks' kept pairs (8 each)
    refined = [r.evaluations > 300 for r in (dw, pg)]
    assert sorted(rows) == [2, 2, 2] + ([8 * sum(refined)] if any(refined) else [])
    if name == "vanishing":
        assert (dw.skipped, pg.skipped) == (300, 300)
        assert dw.value == pg.value == -math.inf
    elif name == "dw-blind":
        assert dw.skipped == 300 and dw.value == -math.inf
        assert 0 < pg.skipped < 300 and pg.evaluations > 300
    else:
        assert dw.skipped == pg.skipped == 0 and all(refined)


@pytest.mark.parametrize("name", ["l1", "gram3", "vanishing", "dw-blind"])
def test_fused_side_checks_match_with_small_blocks_and_budget(name, monkeypatch):
    # 9 blocks of at most 7 pairs, so each running top merges across
    # blocks, and refines of 37 evaluations that end on their budget
    monkeypatch.setattr(det, "_SIDE_BUDGET", 37)
    monkeypatch.setattr(norms, "_BLOCK", 7)
    verdict, (dw, pg), _ = fused_and_alone(SPECS[name], 60)
    assert bits(verdict.dw_estimate) == bits(dw)
    assert bits(verdict.parallelogram) == bits(pg)
    if name in ("l1", "gram3"):
        assert dw.budget_stops > 0 and pg.budget_stops > 0


def counting_kernel(monkeypatch):
    """Count _norm_rows calls wherever the searches look the kernel up."""
    calls = []
    kernel = norms._norm_rows

    def counted(spec, v):
        calls.append(len(v))
        return kernel(spec, v)

    monkeypatch.setattr(det, "_norm_rows", counted)
    monkeypatch.setattr(ineq, "_norm_rows", counted)
    return calls


@pytest.mark.parametrize("objective", ng.CONDITIONAL_IDS, ids=lambda o: o.value)
@pytest.mark.parametrize("floor_rows", [0, 2], ids=["all-counted", "some-floored"])
def test_each_search_score_makes_four_kernel_calls(objective, floor_rows, monkeypatch):
    spec = SPECS["wl1"]
    q = np.random.default_rng(8).normal(size=(6, 2 * spec.dim + 1))
    q[:floor_rows, : spec.dim] = 0.0  # ||x|| = 0: ALPHA_BETA and LORCH skip the row
    want = det._score_points(spec, objective, q)
    calls = counting_kernel(monkeypatch)
    got = det._score_points(spec, objective, q)
    assert len(calls) == 4
    assert np.array_equal(got, want)
    if objective is not InequalityId.N_ORDERING:
        assert np.isneginf(got[:floor_rows]).all() and np.isfinite(got[floor_rows:]).all()


def test_alpha_beta_score_reuses_the_decoder_norms_bit_for_bit(monkeypatch):
    spec = SPECS["gram3"]
    q = np.random.default_rng(9).normal(size=(7, 2 * spec.dim))
    xs, ys = q[:, : spec.dim], q[:, spec.dim :]
    lhs, rhs = ineq._batch_lhs_rhs(InequalityId.ALPHA_BETA, spec, xs, ys)
    calls = counting_kernel(monkeypatch)
    assert np.array_equal(det._score_points(spec, InequalityId.ALPHA_BETA, q), lhs - rhs)
    assert calls == [7, 7, 7, 7]
