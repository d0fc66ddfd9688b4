"""Chunked scoring of sample blocks: every chunk height gives the same bits,
ties still go to the earliest trial, and a block holds little beyond its
two pair stacks."""

import itertools
import math

import numpy as np
import pytest

import normgeo as ng
import normgeo.detect as det
import normgeo.inequalities as ineq
import normgeo.norms as norms
from normgeo.inequalities import UNIVERSAL_IDS, InequalityId
from support import random_spd, traced_peak

SPECS = {
    "l1": ng.lp_norm(1, 3),
    "l3": ng.lp_norm(3, 3),
    "linf": ng.lp_norm(math.inf, 3),
    "wl2": ng.weighted_lp_norm(2, [0.5, 1.5, 2.5]),
    "gram": ng.quadratic_norm(random_spd(3, 42)),
}
TRIALS = 40


def set_chunk_rows(monkeypatch, rows, dim):
    monkeypatch.setattr(norms, "_CHUNK_CELLS", rows * dim)
    assert len(norms._chunks(TRIALS, dim)) == -(-TRIALS // rows)


def reports(spec):
    # a fresh sweep per chunk height: the memo would hand back the last one
    ineq._sweep.cache_clear()
    out = [
        ng.batch_min_slack(iq, spec, TRIALS, 3, workers=workers).to_dict()
        for workers in (1, 2)
        for iq in UNIVERSAL_IDS
    ]
    out.append(ng.validate_norm_axioms(spec, TRIALS, 3).to_dict())
    out.append(ng.dw_constant_estimate(spec, TRIALS, 3).to_dict())
    out.append(ng.parallelogram_defect_search(spec, TRIALS, 3).to_dict())
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_chunk_height_moves_no_bit(name, monkeypatch):
    # 1-row chunks send the gram norm down the kernel's 2-row gemm path
    monkeypatch.setattr(det, "_SIDE_BUDGET", 200)
    spec = SPECS[name]
    set_chunk_rows(monkeypatch, norms._BLOCK, spec.dim)
    whole = reports(spec)
    for rows in (1, 7):
        set_chunk_rows(monkeypatch, rows, spec.dim)
        assert reports(spec) == whole, rows


@pytest.mark.parametrize("rows", [1, 7, norms._BLOCK])
def test_tie_across_a_chunk_boundary_goes_to_the_earliest_trial(rows, monkeypatch):
    # Trials 0-5 are pair a, every later trial is pair b with the lower
    # slack, so the minimum ties from trial 6 on, across the boundary of
    # 7-row chunks and of every 1-row chunk.
    spec, iq = SPECS["l1"], InequalityId.ANGULAR_LOWER
    a, b = np.random.default_rng(5).standard_normal((2, 2, spec.dim))
    slack_a, slack_b = (ng.evaluate_inequality(iq, spec, *p).slack for p in (a, b))
    if slack_b > slack_a:
        a, b, slack_b = b, a, slack_a
    calls = itertools.count()

    def sample(dim, rng, count):
        which = next(calls) % 2  # each block draws its xs, then its ys
        out = np.empty((count, dim))
        out[:6], out[6:] = a[which], b[which]
        return out

    monkeypatch.setattr(norms, "sample_points", sample)
    set_chunk_rows(monkeypatch, rows, spec.dim)
    res = ng.batch_min_slack(iq, spec, TRIALS, 3)
    assert res.trial_index == 6
    assert res.report.slack == slack_b


STACK = 8192 * 256 * 8  # one 8192-row pair stack at d256: 16 MiB


@pytest.mark.parametrize(
    "score",
    [
        lambda spec: ineq._batch_block(spec, 8192, 3, 0),
        lambda spec: ng.validate_norm_axioms(spec, 8192, 1),
    ],
    ids=["maligranda", "axioms"],
)
def test_one_block_peaks_under_two_and_a_half_pair_stacks(score):
    # The block's xs and ys take two stacks; every other temporary is
    # chunk-sized, so a full-height one would cross the bound. A sweep block
    # scores all six universal inequalities at once.
    spec = ng.lp_norm(3, 256)
    assert traced_peak(lambda: score(spec)) < 2.5 * STACK
