"""The lockstep compass search against a one-point-at-a-time reference.

The reference below is the plain scalar compass loop: one restart, one
candidate, one norm_eval-based objective call at a time. The batched
engine in normgeo.detect must reproduce it exactly, restart by restart:
the same best value, the same point and the same evaluation count.
"""

import math

import numpy as np
import pytest

import normgeo as ng
import normgeo.detect as det
from normgeo.inequalities import CONDITIONAL_IDS, InequalityId
from normgeo.norms import DEFAULT_TOL, norm_eval, sample_points, stream
from support import random_spd

SPECS = {
    "l1": ng.lp_norm(1, 2),
    "linf": ng.lp_norm(math.inf, 3),
    "l3": ng.lp_norm(3, 2),
    "wl1": ng.weighted_lp_norm(1, [0.5, 2.0, 1.25]),
    "gram4": ng.quadratic_norm(random_spd(4, 77)),
}
SIDE_BUDGET = 300


def ref_compass(fn, p0, step_init, shrink, max_evals, lo, hi, project, skips=None):
    p = project(np.clip(p0, lo, hi))
    best = fn(p)
    evals = 1
    step = step_init
    n = p.size
    while step >= 1e-9 and evals < max_evals:
        improved = False
        for i in range(n):
            for s in (step, -step):
                if evals >= max_evals:
                    break
                q = p.copy()
                q[i] += s
                q = project(np.clip(q, lo, hi))
                if q[i] == p[i]:
                    if skips is not None:
                        skips.append(i)
                    continue
                v = fn(q)
                evals += 1
                if v > best:
                    p = q
                    best = v
                    improved = True
                    break
            if evals >= max_evals:
                break
        if not improved:
            step *= shrink
    return best, p, evals


def ref_project(d, r_lo, fired):
    def project(q):
        for lo_i in (0, d):
            block = q[lo_i : lo_i + d]
            m = math.sqrt(float((block * block).sum()))
            if m < r_lo:
                fired.append(m)
                if m == 0.0:
                    block[0] = r_lo
                else:
                    block *= r_lo / m
        return q

    return project


def ref_objective(spec, objective, d, sign):
    def n(v):
        return norm_eval(spec, v)

    if objective is InequalityId.N_ORDERING:

        def fn(q):
            x, y, t = q[:d], q[d : 2 * d], float(q[-1])
            if n(x) > n(y):
                x, y = y, x
            return n(x + t * y) - n(y + t * x)

        return fn
    if objective is InequalityId.ALPHA_BETA:

        def fn(q):
            x, y = q[:d], q[d : 2 * d]
            nx, ny = n(x), n(y)
            if not (nx > 0.0 and ny > 0.0):
                return -math.inf
            return n(x / nx - y / ny) - n(x / ny - y / nx)

        return fn

    def fn(q):
        x, yf = q[:d], q[d : 2 * d]
        nx, nyf = n(x), n(yf)
        if not (nx > 1e-12 and nyf > 1e-12):
            return -math.inf
        y = yf * (nx / nyf)
        gamma = sign * math.exp(q[-1])
        return n(x + y) - n(gamma * x + (1.0 / gamma) * y)

    return fn


def ref_restart(spec, objective, config, r, fired, skips=None):
    d = config.dim
    rng = stream(config.seed, 2, CONDITIONAL_IDS.index(objective), r)
    pts = sample_points(d, rng, 2, config.radius_range)
    sign = 1.0
    lo = np.full(2 * d, -math.inf)
    hi = np.full(2 * d, math.inf)
    if objective is InequalityId.N_ORDERING:
        p0 = np.concatenate([pts[0], pts[1], [rng.uniform(0.0, 1.0)]])
        lo, hi = np.append(lo, 0.0), np.append(hi, 1.0)
    elif objective is InequalityId.ALPHA_BETA:
        p0 = np.concatenate([pts[0], pts[1]])
    else:
        sign = -1.0 if rng.random() < 0.5 else 1.0
        band = (math.log(0.125), math.log(8.0))
        p0 = np.concatenate([pts[0], pts[1], [rng.uniform(*band)]])
        lo, hi = np.append(lo, band[0]), np.append(hi, band[1])
    return ref_compass(
        ref_objective(spec, objective, d, sign),
        p0,
        0.25,
        0.5,
        config.iters_per_restart,
        lo,
        hi,
        ref_project(d, config.radius_range[0], fired),
        skips,
    )


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("objective", CONDITIONAL_IDS, ids=lambda o: o.value)
def test_restarts_match_scalar_reference(name, objective):
    spec = SPECS[name]
    # a narrow radius band makes the projection fire on many trajectories
    config = ng.SearchConfig(
        dim=spec.dim, seed=31, restarts=6, iters_per_restart=250, radius_range=(1.0, 1.5)
    )
    vals, points, _, evals = det._search_restarts(spec, objective, config)
    fired = []
    refs = [ref_restart(spec, objective, config, r, fired) for r in range(config.restarts)]
    for r, (val, p, used) in enumerate(refs):
        assert vals[r] == val, (r, vals[r], val)
        assert np.array_equal(points[r], p), r
        assert evals[r] == used, r
    res = det.violation_search(spec, objective, config)
    first_best = max(range(len(refs)), key=lambda r: (refs[r][0], -r))
    assert res.witness_slack == -refs[first_best][0]
    assert res.evaluations == sum(used for _, _, used in refs)
    rep = ng.evaluate_inequality(
        objective, spec, res.witness.x, res.witness.y, t=res.witness.t, gamma=res.witness.gamma
    )
    assert rep.slack == res.witness_slack


@pytest.mark.parametrize("objective", [InequalityId.ALPHA_BETA, InequalityId.LORCH])
def test_rows_with_vanishing_norms_match_scalar_reference(objective):
    # Starts this small square to zero in l_2, so their norms are 0 and both
    # objectives score them -inf until a step lifts them off.
    spec = ng.lp_norm(2, 2)
    config = ng.SearchConfig(
        dim=2, seed=5, restarts=8, iters_per_restart=60, radius_range=(1e-200, 1.0)
    )
    obj_index = CONDITIONAL_IDS.index(objective)
    start_norms = [
        norm_eval(spec, sample_points(2, stream(5, 2, obj_index, r), 2, config.radius_range))
        for r in range(config.restarts)
    ]
    assert 0.0 in np.concatenate(start_norms)
    vals, points, _, evals = det._search_restarts(spec, objective, config)
    for r in range(config.restarts):
        val, p, used = ref_restart(spec, objective, config, r, [])
        assert vals[r] == val and np.array_equal(points[r], p) and evals[r] == used


def test_reference_exercises_projection_and_clamp_skips():
    spec = SPECS["l1"]
    config = ng.SearchConfig(
        dim=2, seed=31, restarts=6, iters_per_restart=250, radius_range=(1.0, 1.5)
    )
    fired, skips = [], []
    for r in range(config.restarts):
        ref_restart(spec, InequalityId.N_ORDERING, config, r, fired, skips)
    # the projection fires, and a t held at a bound is polled past
    assert fired
    assert 2 * spec.dim in skips


def ref_refine(spec, budget, seed, tag, scalar_fn):
    dim = spec.dim
    rng = stream(seed, tag, 0)
    xs = sample_points(dim, rng, budget)
    ys = sample_points(dim, rng, budget)
    scores = np.array([scalar_fn(x, y) for x, y in zip(xs, ys)])
    order = np.argsort(-scores, kind="stable")
    top = [i for i in order[:8] if math.isfinite(scores[i])]
    best_val = float(scores[top[0]])
    best_pair = (xs[top[0]], ys[top[0]])
    evals = 0
    lo = np.full(2 * dim, -math.inf)
    hi = np.full(2 * dim, math.inf)
    project = ref_project(dim, 0.5, [])
    for i in top:
        p0 = np.concatenate([xs[i], ys[i]])
        val, p, used = ref_compass(
            lambda q: scalar_fn(q[:dim], q[dim:]), p0, 0.25, 0.5, SIDE_BUDGET, lo, hi, project
        )
        evals += used
        if val > best_val:
            best_val = val
            best_pair = (p[:dim].copy(), p[dim:].copy())
    return best_val, best_pair, budget + evals


def dw_scalar(spec):
    def fn(x, y):
        nx, ny = norm_eval(spec, x), norm_eval(spec, y)
        if not (nx > 1e-12 and ny > 1e-12):
            return -math.inf
        d = norm_eval(spec, x - y)
        s = nx + ny
        if d < DEFAULT_TOL.dw_separation_rel * s:
            return -math.inf
        return norm_eval(spec, x / nx - y / ny) * s / d

    return fn


def pg_scalar(spec):
    def fn(x, y):
        nx, ny = norm_eval(spec, x), norm_eval(spec, y)
        den = nx * nx + ny * ny
        if not den > 1e-24:
            return -math.inf
        a, b = norm_eval(spec, x + y), norm_eval(spec, x - y)
        return abs(a * a + b * b - 2.0 * nx * nx - 2.0 * ny * ny) / den

    return fn


@pytest.mark.parametrize("name", sorted(SPECS))
def test_side_check_refine_matches_scalar_reference(name, monkeypatch):
    monkeypatch.setattr(det, "_SIDE_BUDGET", SIDE_BUDGET)
    spec = SPECS[name]
    for search, tag, scalar in (
        (det.dw_constant_estimate, 3, dw_scalar(spec)),
        (det.parallelogram_defect_search, 4, pg_scalar(spec)),
    ):
        res = search(spec, 200, 13)
        val, (x, y), evals = ref_refine(spec, 200, 13, tag, scalar)
        assert res.value == val
        assert np.array_equal(res.x, x) and np.array_equal(res.y, y)
        assert res.evaluations == evals
