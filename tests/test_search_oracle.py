"""The lockstep compass search against a one-point-at-a-time reference.

The reference below is the plain scalar compass loop: one restart, one
candidate, one norm_eval-based objective call at a time. The batched
engine in normgeo.detect must reproduce it exactly, restart by restart:
the same best value, the same point and the same evaluation count. The
violation searches multiply their step by detect._SEARCH_SHRINK after a
failed sweep and score LORCH per unit of ||x||; the side checks' refines
halve their step and add the Hooke-Jeeves pattern move (pattern=True).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normgeo as ng
import normgeo.detect as det
import normgeo.norms as norms
from normgeo.inequalities import CONDITIONAL_IDS, InequalityId
from normgeo.norms import norm_eval, sample_points, stream
from support import random_spd

SPECS = {
    "l1": ng.lp_norm(1, 2),
    "linf": ng.lp_norm(math.inf, 3),
    "l3": ng.lp_norm(3, 2),
    "wl1": ng.weighted_lp_norm(1, [0.5, 2.0, 1.25]),
    "gram4": ng.quadratic_norm(random_spd(4, 77)),
}
REFINE_BUDGET = 300
R_LO = 0.5  # lower end of the sampling radius: the projection's floor


def beats(v, best, step):
    """Sufficient decrease; a best of -inf takes any finite value."""
    size = abs(best) if math.isfinite(best) else 0.0
    return v > best + 1e-4 * (step * step) + 1e-12 * (1.0 + size)


def ref_compass(
    fn, p0, step_init, shrink, max_evals, lo, hi, project, skips=None, pattern=False
):
    p = project(np.clip(p0, lo, hi))
    best = fn(p)
    evals = 1
    step = step_init
    n = p.size
    anchor = p  # where the last sweep ended; the start before that
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
                if beats(v, best, step):
                    p = q
                    best = v
                    improved = True
                    break
            if evals >= max_evals:
                break
        end = p
        if not improved:
            step *= shrink
        elif pattern and evals < max_evals:
            # the pattern move: one poll as far again past the sweep's end
            z = project(np.clip(p + (p - anchor), lo, hi))
            v = fn(z)
            evals += 1
            if beats(v, best, step):
                p = z
                best = v
        anchor = end
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


def ref_objective(spec, objective, d, sign, per_scale=True):
    """The search's score of one parameter row: -slack, and for LORCH, with
    per_scale, -slack / ||x|| (y is rescaled to ||x||)."""

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
            if not (nx > 1e-12 and ny > 1e-12):
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
        score = n(x + y) - n(gamma * x + (1.0 / gamma) * y)
        return score / nx if per_scale else score

    return fn


def ref_restart(spec, objective, config, r, fired, skips=None):
    d = config.dim
    rng = stream(config.seed, 2, CONDITIONAL_IDS.index(objective), r)
    pts = sample_points(d, rng, 2)
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
        det._SEARCH_SHRINK,
        config.iters_per_restart,
        lo,
        hi,
        ref_project(d, R_LO, fired),
        skips,
    )


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("objective", CONDITIONAL_IDS, ids=lambda o: o.value)
def test_restarts_match_scalar_reference(name, objective):
    spec = SPECS[name]
    config = ng.SearchConfig(dim=spec.dim, seed=31, restarts=6, iters_per_restart=250)
    vals, points, _, evals = det._search_restarts(spec, objective, config)
    fired = []
    refs = [ref_restart(spec, objective, config, r, fired) for r in range(config.restarts)]
    for r, (val, p, used) in enumerate(refs):
        assert vals[r] == val, (r, vals[r], val)
        assert np.array_equal(points[r], p), r
        assert evals[r] == used, r
    res = det.violation_search(spec, objective, config)
    first_best = max(range(len(refs)), key=lambda r: (refs[r][0], -r))
    # restarts are ranked by their score; the report holds the raw slack
    raw = ref_objective(spec, objective, config.dim, 1.0, per_scale=False)
    assert res.witness_slack == -raw(refs[first_best][1])
    assert res.evaluations == sum(used for _, _, used in refs)
    x, y, t, gamma = ref_witness(spec, objective, config, first_best, refs[first_best][1])
    assert np.array_equal(res.witness.x, x) and np.array_equal(res.witness.y, y)
    assert (res.witness.t, res.witness.gamma) == (t, gamma)
    rep = ng.evaluate_inequality(
        objective, spec, res.witness.x, res.witness.y, t=res.witness.t, gamma=res.witness.gamma
    )
    assert rep.slack == res.witness_slack


def ref_witness(spec, objective, config, r, p):
    """The pair restart r's final point p stands for, decoded one scalar
    at a time; LORCH takes the sign restart r drew."""
    d = config.dim
    x, y = p[:d], p[d : 2 * d]
    if objective is InequalityId.N_ORDERING:
        return x, y, float(p[-1]), None
    if objective is InequalityId.ALPHA_BETA:
        return x, y, None, None
    rng = stream(config.seed, 2, CONDITIONAL_IDS.index(objective), r)
    sample_points(d, rng, 2)
    sign = -1.0 if rng.random() < 0.5 else 1.0
    nx, ny = norm_eval(spec, x), norm_eval(spec, y)
    if nx > 1e-12 and ny > 1e-12:
        y = y * (nx / ny)
    return x, y, None, sign * math.exp(p[-1])


# l_2 and a gram norm scaled down by 1e-12, so the sampled starts' norms
# (about 5e-13 to 4e-12 for l_2) lie on both sides of the 1e-12 floor. By
# homogeneity this is what a search at a tiny Euclidean scale meets.
VANISHING = {
    "l2": ng.weighted_lp_norm(2, [1e-24] * 2),
    "gram4": ng.quadratic_norm(1e-24 * random_spd(4, 77)),
}


@pytest.mark.parametrize("name", sorted(VANISHING))
@pytest.mark.parametrize("objective", [InequalityId.ALPHA_BETA, InequalityId.LORCH])
def test_rows_with_vanishing_norms_match_scalar_reference(objective, name):
    # Both objectives score a row -inf while ||x|| or ||y|| is at most
    # 1e-12, and count it once a step lifts both norms past the floor.
    spec = VANISHING[name]
    config = ng.SearchConfig(dim=spec.dim, seed=5, restarts=8, iters_per_restart=60)
    obj_index = CONDITIONAL_IDS.index(objective)
    start_norms = np.concatenate([
        norm_eval(spec, sample_points(spec.dim, stream(5, 2, obj_index, r), 2))
        for r in range(config.restarts)
    ])
    assert start_norms.min() <= 1e-12 < start_norms.max()
    vals, points, _, evals = det._search_restarts(spec, objective, config)
    for r in range(config.restarts):
        val, p, used = ref_restart(spec, objective, config, r, [])
        assert vals[r] == val and np.array_equal(points[r], p) and evals[r] == used


@pytest.mark.parametrize("objective", [InequalityId.ALPHA_BETA, InequalityId.LORCH])
def test_search_without_a_counted_point_reports_the_first_restart_raw(objective):
    # Norms of about 1e-20 on the sampled starts: within 40 steps of at
    # most 0.25 no candidate gets a norm above 1e-12, so every restart
    # ties at -inf.
    spec = ng.weighted_lp_norm(2, [1e-40] * 2)
    config = ng.SearchConfig(dim=2, seed=5, restarts=4, iters_per_restart=40)
    res = det.violation_search(spec, objective, config)
    assert (res.best_violation, res.witness_slack) == (0.0, math.inf)
    _, points, _, _ = det._search_restarts(spec, objective, config)
    x, y, _, gamma = ref_witness(spec, objective, config, 0, points[0])
    assert np.array_equal(res.witness.x, x) and np.array_equal(res.witness.y, y)
    assert np.array_equal(res.witness.y, points[0][2:4])
    assert res.witness.gamma == gamma


def test_reference_exercises_projection_and_clamp_skips():
    # The configuration of test_restarts_match_scalar_reference: LORCH
    # pushes a block out to the floor on every norm, and N_ORDERING on
    # l_1 polls past a t held at a bound.
    for name, spec in SPECS.items():
        config = ng.SearchConfig(dim=spec.dim, seed=31, restarts=6, iters_per_restart=250)
        fired = []
        for r in range(config.restarts):
            ref_restart(spec, InequalityId.LORCH, config, r, fired)
        assert fired, name
    spec = SPECS["l1"]
    config = ng.SearchConfig(dim=spec.dim, seed=31, restarts=6, iters_per_restart=250)
    skips = []
    for r in range(config.restarts):
        ref_restart(spec, InequalityId.N_ORDERING, config, r, [], skips)
    assert 2 * spec.dim in skips


def test_projection_lifts_zero_and_short_blocks_like_the_reference():
    # A search from the sampled starts cannot drive a block to exactly 0,
    # so the zero-block branch is checked on a stack built by hand.
    d = 3
    q = np.array([
        [0.0, 0.0, 0.0, 0.1, -0.2, 0.05, 0.7],  # zero x, short y
        [3.0, -1.0, 2.0, 0.0, 0.0, 0.0, -0.4],  # long x, zero y
        [0.2, 0.1, -0.3, 1.5, 0.25, -2.0, 0.1],  # short x, long y
    ])
    got = det._make_project(d)(q.copy())
    fired = []
    want = np.array([ref_project(d, R_LO, fired)(row.copy()) for row in q])
    assert len(fired) == 4
    assert np.array_equal(got, want)
    assert np.array_equal(got[0, :3], [R_LO, 0.0, 0.0])
    assert np.array_equal(got[1, 3:6], [R_LO, 0.0, 0.0])
    assert np.array_equal(got[1, :3], q[1, :3]) and np.array_equal(got[2, 3:], q[2, 3:])
    assert np.array_equal(got[:, -1], q[:, -1])


def ref_refine(spec, budget, seed, tag, scalar_fn, block=None):
    """One unblocked selection over the per-block draws of the library:
    block b of `block` pairs comes from the (seed, tag, b) stream."""
    dim = spec.dim
    block = block or budget
    xs, ys = [], []
    for b, start in enumerate(range(0, budget, block)):
        rng = stream(seed, tag, b)
        count = min(block, budget - start)
        xs.append(sample_points(dim, rng, count))
        ys.append(sample_points(dim, rng, count))
    xs, ys = np.concatenate(xs), np.concatenate(ys)
    scores = np.array([scalar_fn(x, y) for x, y in zip(xs, ys)])
    skipped = int(np.isneginf(scores).sum())
    order = np.argsort(-scores, kind="stable")
    top = [i for i in order[:8] if math.isfinite(scores[i])]
    best_val = float(scores[top[0]])
    best_pair = (xs[top[0]], ys[top[0]])
    evals = 0
    lo = np.full(2 * dim, -math.inf)
    hi = np.full(2 * dim, math.inf)
    project = ref_project(dim, R_LO, [])
    for i in top:
        p0 = np.concatenate([xs[i], ys[i]])
        val, p, used = ref_compass(
            lambda q: scalar_fn(q[:dim], q[dim:]),
            p0,
            0.25,
            0.5,
            REFINE_BUDGET,
            lo,
            hi,
            project,
            pattern=True,
        )
        evals += used
        if val > best_val:
            best_val = val
            best_pair = (p[:dim].copy(), p[dim:].copy())
    starts = np.concatenate([xs[top], ys[top]], axis=1)
    return best_val, best_pair, budget + evals, skipped, starts


def dw_scalar(spec):
    def fn(x, y):
        nx, ny = norm_eval(spec, x), norm_eval(spec, y)
        if not (nx > 1e-12 and ny > 1e-12):
            return -math.inf
        d = norm_eval(spec, x - y)
        s = nx + ny
        if d < det._DW_SEPARATION_REL * s:
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
    monkeypatch.setattr(det, "_REFINE_BUDGET", REFINE_BUDGET)
    spec = SPECS[name]
    for search, tag, scalar in (
        (det.dw_constant_estimate, 3, dw_scalar(spec)),
        (det.parallelogram_defect_search, 4, pg_scalar(spec)),
    ):
        res = search(spec, 200, 13)
        val, (x, y), evals, skipped, _ = ref_refine(spec, 200, 13, tag, scalar)
        assert res.value == val
        assert np.array_equal(res.x, x) and np.array_equal(res.y, y)
        assert (res.evaluations, res.skipped) == (evals, skipped)


@pytest.mark.parametrize(
    "spec",
    [SPECS["l3"], ng.weighted_lp_norm(3, [1e-36] * 2)],
    ids=["default", "vanishing"],
)
def test_blocked_side_check_matches_unblocked_selection(spec, monkeypatch):
    # the "vanishing" norm is l_3 scaled by 1e-12, so some pairs fall on
    # or below the 1e-12 floor and are skipped
    # 5 blocks of at most 7 pairs, so the running top 8 merges across blocks
    monkeypatch.setattr(det, "_REFINE_BUDGET", REFINE_BUDGET)
    monkeypatch.setattr(norms, "_BLOCK", 7)
    starts = []
    engine = det._compass_search

    def spy(fn, p0, *args, **kwargs):
        starts.append(p0.copy())
        return engine(fn, p0, *args, **kwargs)

    monkeypatch.setattr(det, "_compass_search", spy)
    res = det.dw_constant_estimate(spec, 30, 13)
    val, (x, y), evals, skipped, top = ref_refine(spec, 30, 13, 3, dw_scalar(spec), block=7)
    assert len(starts) == 1 and np.array_equal(starts[0], top)
    assert res.value == val
    assert np.array_equal(res.x, x) and np.array_equal(res.y, y)
    assert (res.evaluations, res.skipped) == (evals, skipped)
    assert (skipped > 0) == (spec is not SPECS["l3"])


@pytest.mark.parametrize("objective", CONDITIONAL_IDS, ids=lambda o: o.value)
@pytest.mark.parametrize("name", ["l1", "gram4"])
def test_tiny_budgets_cut_the_stencil_like_the_scalar_reference(name, objective, monkeypatch):
    spec = SPECS[name]
    n = 2 * spec.dim + (objective is not InequalityId.ALPHA_BETA)
    for cells in (det._STENCIL_CELLS, 1):
        # cells=1 puts every restart in an fn call of its own
        monkeypatch.setattr(det, "_STENCIL_CELLS", cells)
        for budget in (1, 2, 3, 2 * n - 1, 2 * n + 1):
            config = ng.SearchConfig(
                dim=spec.dim, seed=17, restarts=5, iters_per_restart=budget
            )
            vals, points, _, evals = det._search_restarts(spec, objective, config)
            for r in range(config.restarts):
                val, p, used = ref_restart(spec, objective, config, r, [])
                assert (vals[r], evals[r]) == (val, used), (cells, budget, r)
                assert np.array_equal(points[r], p), (cells, budget, r)


def toy_fn(q, rows):
    """Rows scored independently with exact arithmetic only; maximum at c."""
    c = np.array([0.3, -1.1, 0.05, 2.0])
    return -np.abs(q - c).sum(axis=1) - 0.01 * q[:, 0] * q[:, 2]


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 7, 8, 9, 40, 400])
def test_pinned_coordinates_are_skipped_without_cost(budget):
    # Coordinates 0 and 3 are pinned by lo == hi, so every sweep skips 4 of
    # its 8 polls; a budget must be spent on the other 4 alone.
    lo = np.array([0.5, -math.inf, -1.0, 1.0])
    hi = np.array([0.5, math.inf, 1.0, 1.0])
    p0 = np.random.default_rng(3).normal(size=(6, 4))
    vals, points, evals = det._compass_search(toy_fn, p0, budget, lo, hi, lambda q: q)
    for r in range(len(p0)):
        val, p, used = ref_compass(
            lambda q: toy_fn(q[None], [r])[0], p0[r], 0.25, 0.5, budget, lo, hi, lambda q: q
        )
        assert (vals[r], evals[r]) == (val, used), r
        assert np.array_equal(points[r], p), r


def test_all_polls_skipped_stops_at_the_step_floor_after_one_evaluation():
    sizes = []

    def fn(q, rows):
        sizes.append(len(q))
        return toy_fn(q, rows)

    p0 = np.random.default_rng(4).normal(size=(3, 4))
    bound = np.array([0.5, -0.25, 0.0, 1.0])
    vals, points, evals = det._compass_search(fn, p0, 2000, bound, bound, lambda q: q)
    assert sizes == [3]
    assert evals.tolist() == [1, 1, 1]
    assert np.array_equal(points, np.tile(bound, (3, 1)))
    assert np.array_equal(vals, toy_fn(points, np.arange(3)))


def test_a_finite_poll_beats_a_start_scored_minus_inf():
    # The start scores -inf; the first poll (+0.25 along coordinate 0) is
    # finite and must be taken, with no floor added to -inf.
    def fn(q, rows):
        return np.where(q[:, 0] > 0.2, -np.abs(q[:, 0] - 1.0), -math.inf)

    p0 = np.zeros((1, 2))
    none = np.full(2, -math.inf), np.full(2, math.inf)
    vals, points, evals = det._compass_search(fn, p0, 2, *none, lambda q: q)
    assert (vals[0], evals[0]) == (-0.75, 2)
    assert np.array_equal(points[0], [0.25, 0.0])
    vals, points, evals = det._compass_search(fn, p0, 2000, *none, lambda q: q)
    val, p, used = ref_compass(
        lambda q: fn(q[None], [0])[0], p0[0], 0.25, 0.5, 2000, *none, lambda q: q
    )
    assert (vals[0], evals[0]) == (val, used) and np.array_equal(points[0], p)
    assert val == 0.0


def toy_fn2(q, rows):
    """A second objective, scoring rows independently; maximum at d."""
    d = np.array([-0.7, 0.4, 1.5, -0.25])
    return -np.abs(q - d).max(axis=1) + 0.125 * q[:, 1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=st.lists(st.integers(0, 1), min_size=1, max_size=7),
    budget=st.integers(1, 30),
    pinned=st.lists(st.booleans(), min_size=4, max_size=4),
    cells=st.sampled_from([1, det._STENCIL_CELLS]),
)
def test_rows_of_two_objectives_in_one_call_match_separate_calls(
    seed, labels, budget, pinned, cells
):
    # Each row is scored by the objective its label names. Pinned
    # coordinates (lo == hi) are skipped at no cost, coordinate 2 is
    # clamped to [-1, 1], and cells=1 gives every row an fn call of its own.
    labels = np.array(labels)
    p0 = np.random.default_rng(seed).normal(size=(len(labels), 4))
    pin = np.array([0.5, -0.25, 0.0, 1.0])
    lo = np.where(pinned, pin, [-math.inf, -math.inf, -1.0, -math.inf])
    hi = np.where(pinned, pin, [math.inf, math.inf, 1.0, math.inf])
    fns = (toy_fn, toy_fn2)

    def labelled(q, rows):
        assert rows.shape == (len(q),)
        return np.where(labels[rows] == 0, toy_fn(q, rows), toy_fn2(q, rows))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(det, "_STENCIL_CELLS", cells)
        vals, points, evals = det._compass_search(labelled, p0, budget, lo, hi, lambda q: q)
        for k, fn in enumerate(fns):
            mine = labels == k
            if not mine.any():
                continue
            alone = det._compass_search(fn, p0[mine], budget, lo, hi, lambda q: q)
            assert np.array_equal(vals[mine], alone[0])
            assert np.array_equal(points[mine], alone[1])
            assert np.array_equal(evals[mine], alone[2])
    for r, k in enumerate(labels):
        val, p, used = ref_compass(
            lambda q: fns[k](q[None], [r])[0], p0[r], 0.25, 0.5, budget, lo, hi, lambda q: q
        )
        assert (vals[r], evals[r]) == (val, used), r
        assert np.array_equal(points[r], p), r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=st.lists(st.integers(0, 1), min_size=1, max_size=7),
    budget=st.integers(1, 60),
    pinned=st.lists(st.booleans(), min_size=4, max_size=4),
    cells=st.sampled_from([1, det._STENCIL_CELLS]),
)
def test_pattern_move_rows_match_scalar_reference(seed, labels, budget, pinned, cells):
    # As above, with the pattern move: a budget may run out on a pattern
    # poll, and a pinned or clamped coordinate stays put in the pattern point.
    labels = np.array(labels)
    p0 = 3.0 * np.random.default_rng(seed).normal(size=(len(labels), 4))
    pin = np.array([0.5, -0.25, 0.0, 1.0])
    lo = np.where(pinned, pin, [-math.inf, -math.inf, -1.0, -math.inf])
    hi = np.where(pinned, pin, [math.inf, math.inf, 1.0, math.inf])
    fns = (toy_fn, toy_fn2)

    def labelled(q, rows):
        assert np.all(np.diff(rows) >= 0)
        return np.where(labels[rows] == 0, toy_fn(q, rows), toy_fn2(q, rows))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(det, "_STENCIL_CELLS", cells)
        vals, points, evals = det._compass_search(
            labelled, p0, budget, lo, hi, lambda q: q, pattern=True
        )
    for r, k in enumerate(labels):
        val, p, used = ref_compass(
            lambda q: fns[k](q[None], [r])[0],
            p0[r],
            0.25,
            0.5,
            budget,
            lo,
            hi,
            lambda q: q,
            pattern=True,
        )
        assert (vals[r], evals[r]) == (val, used), r
        assert np.array_equal(points[r], p), r


def test_pattern_move_reaches_a_far_optimum_in_fewer_evaluations():
    # From starts about 20 away, the plain search gains at most one step
    # per coordinate and sweep; the pattern move doubles each sweep's stride.
    p0 = 20.0 * np.random.default_rng(6).normal(size=(5, 4))
    none = np.full(4, -math.inf), np.full(4, math.inf)
    plain = det._compass_search(toy_fn, p0, 5000, *none, lambda q: q)
    fast = det._compass_search(toy_fn, p0, 5000, *none, lambda q: q, pattern=True)
    assert (fast[2] < plain[2]).all() and (plain[2] < 5000).all()
    assert (fast[0] >= plain[0] - 1e-6).all()


@pytest.mark.parametrize("shrink, sweeps", [(0.5, 28), (0.25, 14)])
def test_flat_objective_ends_every_row_after_one_sweep_per_step_level(shrink, sweeps):
    # No poll beats a constant best, so every sweep fails and scales the
    # step from 0.25 by shrink until it drops below 1e-9: 28 levels at 1/2,
    # 14 at 1/4, each one full sweep of 2n polls.
    p0 = np.random.default_rng(8).normal(size=(5, 3))
    none = np.full(3, -math.inf), np.full(3, math.inf)
    vals, points, evals = det._compass_search(
        lambda q, rows: np.zeros(len(q)), p0, 10**6, *none, lambda q: q, shrink=shrink
    )
    assert evals.tolist() == [1 + sweeps * 2 * 3] * 5
    assert np.array_equal(points, p0) and not vals.any()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["l1", "l3", "linf", "wl1", "gram4"]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-20, 20),
)
def test_lorch_score_does_not_change_when_x_doubles(name, seed, exponent):
    # Scaling x by 2 scales ||x||, the rescaled y and both sides of the
    # slack by exactly 2, so the score per unit of ||x|| keeps every bit.
    spec = SPECS[name]
    d = spec.dim
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(6, 2 * d + 1)) * 2.0**exponent
    q[:, -1] = rng.uniform(math.log(0.125), math.log(8.0), size=6)
    doubled = q.copy()
    doubled[:, :d] *= 2.0
    score = det._score_points(spec, InequalityId.LORCH, q)
    assert np.isfinite(score).all()
    assert np.array_equal(det._score_points(spec, InequalityId.LORCH, doubled), score)
