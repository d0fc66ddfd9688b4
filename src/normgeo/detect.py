"""Inner-product detection by derivative-free counterexample search.

A multi-start coordinate pattern search drives the slack of the three
conditional inequalities (N_ORDERING, ALPHA_BETA, LORCH) negative. Finding
a violation certifies the norm is not induced by an inner product; finding
none is evidence, never proof, and is cross-checked against an independent
parallelogram-law probe plus an estimate of the best constant c with
alpha <= c*||x-y||/(||x||+||y||).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NormGeoError
from .inequalities import (
    CONDITIONAL_IDS,
    InequalityId,
    Witness,
    _batch_lhs_rhs,
    _norm_rows,
    _parse_id,
)
from .norms import (
    _RADIUS_RANGE,
    _blocks,
    _check_count,
    _chunks,
    _pair_block,
    _Report,
    sample_points,
    stream,
)

# perfbench/tracer.py substitutes detect.norm_eval, so the name stays
# importable although nothing here calls it.
from .norms import norm_eval  # noqa: F401

VIOLATED = "VIOLATED"
CONSISTENT = "CONSISTENT"

_STEP_INIT = 0.25
_STEP_SHRINK = 0.5
_STEP_FLOOR = 1e-9
# Sufficient decrease: a poll counts only if it beats the best by more than
# _DECREASE_RHO * step**2 + _NOISE_REL * (1 + |best|), so a search on a flat
# optimum stops climbing rounding noise and shrinks its step instead.
_DECREASE_RHO = 1e-4
_NOISE_REL = 1e-12
_STENCIL_CELLS = 1 << 22  # doubles in the poll stencils of one fn call (32 MiB)
_VIOLATION_THRESHOLD = 1e-7
_SIDE_BUDGET = 4000
_REFINE_TOP = 8
_SEARCH_STREAM = 2
_DW_STREAM = 3
_PG_STREAM = 4
_PG_DISCREPANCY = 1e-6
_DW_SEPARATION_REL = 1e-8
# A pair counts only if both norms exceed this: dividing by a smaller norm
# can overflow, so ALPHA_BETA, LORCH and the DW estimate skip such pairs.
_NORM_FLOOR = 1e-12
# Most restarts one search runs: its starts and engine state grow with them.
_MAX_RESTARTS = 8192
# The coordinate after x and y: t for N_ORDERING, log|gamma| for LORCH,
# with |gamma| in [1/8, 8].
_LAST_COORD_BAND = {
    InequalityId.N_ORDERING: (0.0, 1.0),
    InequalityId.LORCH: (math.log(0.125), math.log(8.0)),
}


@dataclass(frozen=True)
class SearchConfig(_Report):
    dim: int
    seed: int
    restarts: int = 64
    iters_per_restart: int = 2000

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
        _check_count("restarts", self.restarts, highest=_MAX_RESTARTS)
        _check_count("iters_per_restart", self.iters_per_restart)


@dataclass(frozen=True)
class SearchResult(_Report):
    objective: InequalityId
    best_violation: float
    witness: Witness
    witness_slack: float
    evaluations: int
    # restarts that ended on their evaluation budget, not at the step floor
    budget_stops: int


def _compass_search(fn, p0, max_evals, lo, hi, project):
    """Greedy compass search from every row of p0 at once, maximizing fn.

    fn(q) scores an (m, n) stack q of points. Each row follows the
    trajectory a lone search from it would: poll the 2n points +-step
    along each coordinate in order, +step before -step; take the first
    sufficient improvement and go on to the next coordinate; halve the
    step (from 0.25) after a sweep without one. A poll value v improves
    on the best b only if v > b + 1e-4 * step**2 + 1e-12 * (1 + |b|): a
    decrease of order step**2 (Kolda, Lewis & Torczon, SIAM Review 45(3),
    2003) and a relative rounding-noise floor. A best of -inf takes any
    finite value. A poll is clamped to [lo, hi] and projected into the
    feasible set (project must keep a point inside [lo, hi]); one that
    leaves its own coordinate unchanged is skipped and costs no
    evaluation. A row stops when its step drops below 1e-9 or its budget
    runs out.

    Each tick stacks, for every live row, the rest of its current sweep
    into one fn call: every poll from the current point that is not
    skipped, up to the row's remaining budget. The first improvement in
    poll order is taken. The polls after it would have started from the
    moved point, so their values are discarded and never counted as
    evaluations. fn gives a row the same value in any stack, so every row
    ends exactly where the one-poll-at-a-time search would, after about
    one tick per move or sweep instead of one per evaluation. A tick
    splits its rows over several fn calls only when their stencils would
    pass _STENCIL_CELLS doubles together. Returns the best values, points
    and evaluations per row.
    """
    p = project(np.clip(p0, lo, hi))
    count, n = p.shape
    best = fn(p)
    evals = np.ones(count, dtype=np.int64)
    step = np.full(count, _STEP_INIT)
    pos = np.zeros(count, dtype=np.int64)  # next poll: 2 * coordinate + (0: +step, 1: -step)
    improved = np.zeros(count, dtype=bool)
    polls = np.arange(2 * n)
    coord = polls // 2
    sign = np.where(polls % 2 == 0, 1.0, -1.0)
    chunk = max(1, _STENCIL_CELLS // (2 * n * n))
    live = np.flatnonzero(evals < max_evals)
    while live.size:
        for start in range(0, live.size, chunk):
            rows = live[start : start + chunk]
            m = rows.size
            base = p[rows]
            cand = np.repeat(base[:, None], 2 * n, axis=1)
            # p is inside [lo, hi], so clamping a poll clamps its own coordinate
            cand[:, polls, coord] = np.clip(
                base[:, coord] + sign * step[rows, None], lo[coord], hi[coord]
            )
            cand = project(cand.reshape(-1, n))
            moves = cand.reshape(m, 2 * n, n)[:, polls, coord] != base[:, coord]
            active = (polls >= pos[rows, None]) & moves
            rank = active.cumsum(axis=1)
            room = max_evals - evals[rows]
            kept = np.flatnonzero(active & (rank <= room[:, None]))
            vals = np.full(m * 2 * n, -math.inf)
            if kept.size:
                vals[kept] = fn(cand[kept])
            need = _sufficient(best[rows], step[rows])
            better = vals.reshape(m, 2 * n) > need[:, None]
            hit = better.any(axis=1)
            first = better.argmax(axis=1)
            evals[rows] += np.where(
                hit, rank[np.arange(m), first], np.minimum(rank[:, -1], room)
            )
            moved, at = rows[hit], np.flatnonzero(hit) * 2 * n + first[hit]
            p[moved] = cand[at]
            best[moved] = vals[at]
            improved[moved] = True
            pos[moved] = first[hit] // 2 * 2 + 2
            pos[rows[~hit]] = 2 * n
        live = live[evals[live] < max_evals]
        wrap = live[pos[live] == 2 * n]
        step[wrap] = np.where(improved[wrap], step[wrap], step[wrap] * _STEP_SHRINK)
        improved[wrap] = False
        pos[wrap] = 0
        live = live[step[live] >= _STEP_FLOOR]
    return best, p, evals


def _sufficient(best, step):
    """The value a poll must beat, per row, under the sufficient-decrease
    rule; -inf where the best is -inf (never -inf + inf)."""
    size = np.abs(np.where(np.isinf(best), 0.0, best))
    return best + _DECREASE_RHO * (step * step) + _NOISE_REL * (1.0 + size)


def _decode_points(spec, objective, q):
    """The pairs a parameter stack q stands for: (ok, xs, ys, ts, gammas).

    Each row is x, y and, for N_ORDERING and LORCH, one more coordinate:
    t itself, or log|gamma|. ALPHA_BETA and LORCH rows count (ok) only if
    ||x|| and ||y|| both exceed 1e-12. LORCH rescales y to ||x|| on those
    rows and keeps the raw y on the rest; its gamma is the positive
    exp(q[-1]), because negating gamma negates gamma*x + y/gamma and
    leaves its norm, and so the slack, unchanged.
    """
    d = spec.dim
    xs, ys = q[:, :d], q[:, d : 2 * d]
    if objective is InequalityId.N_ORDERING:
        return np.ones(len(q), dtype=bool), xs, ys, q[:, -1], None
    nx = _norm_rows(spec, xs)
    ny = _norm_rows(spec, ys)
    ok = (nx > _NORM_FLOOR) & (ny > _NORM_FLOOR)
    if objective is InequalityId.ALPHA_BETA:
        return ok, xs, ys, None, None
    scale = np.ones(len(q))
    scale[ok] = nx[ok] / ny[ok]
    ys = ys * scale[:, None]
    # math.exp, not np.exp, so a witness's gamma replays to the bit; a
    # stack repeats each restart's log-gamma in all but two of its polls.
    logs, back = np.unique(q[:, -1], return_inverse=True)
    return ok, xs, ys, None, np.array([math.exp(v) for v in logs.tolist()])[back]


def _score_points(spec, objective, q):
    """-slack of each parameter row (higher = worse violation); rows the
    decoder does not count score -inf."""
    ok, xs, ys, ts, gammas = _decode_points(spec, objective, q)
    rows = slice(None) if ok.all() else ok  # a slice takes views, not copies
    lhs, rhs = _batch_lhs_rhs(
        objective,
        spec,
        xs[rows],
        ys[rows],
        ts=None if ts is None else ts[rows],
        gammas=None if gammas is None else gammas[rows],
    )
    out = np.full(len(q), -math.inf)
    out[rows] = lhs - rhs
    return out


def _make_project(d):
    """Push each x and y block of a parameter stack out to Euclidean length
    0.5, the lower end of the sampling radius; a zero block becomes
    (0.5, 0, ...)."""
    r_lo = _RADIUS_RANGE[0]

    def project(q):
        blocks = q[:, : 2 * d].reshape(len(q), 2, d)
        m = np.sqrt((blocks * blocks).sum(axis=-1))
        short = m < r_lo
        if short.any():
            zero = short & (m == 0.0)
            grow = short & ~zero
            blocks[grow] *= (r_lo / m[grow])[:, None]
            blocks[zero, 0] = r_lo
        return q

    return project


def _search_restarts(spec, objective, config):
    """Run every restart of one objective; restart r draws its start from
    the (seed, objective, r) stream. Returns per-restart best values,
    points, LORCH gamma signs (applied only to the reported witness) and
    evaluations."""
    d = config.dim
    obj_index = CONDITIONAL_IDS.index(objective)
    band = _LAST_COORD_BAND.get(objective)
    bounds = [(-math.inf, math.inf)] * (2 * d) + ([band] if band else [])
    lo, hi = np.array(bounds).T
    starts = []
    signs = np.ones(config.restarts)
    for r in range(config.restarts):
        rng = stream(config.seed, _SEARCH_STREAM, obj_index, r)
        start = list(sample_points(d, rng, 2))
        if objective is InequalityId.LORCH:
            signs[r] = -1.0 if rng.random() < 0.5 else 1.0
        if band:
            start.append([rng.uniform(*band)])
        starts.append(np.concatenate(start))
    best, p, evals = _compass_search(
        lambda q: _score_points(spec, objective, q),
        np.array(starts),
        config.iters_per_restart,
        lo,
        hi,
        _make_project(d),
    )
    return best, p, signs, evals


def _check_dim(spec, config):
    if config.dim != spec.dim:
        raise NormGeoError(f"config dim {config.dim} != norm dim {spec.dim}")


def violation_search(spec, objective, config):
    """Multi-start pattern search for a negative-slack witness.

    All restarts advance together on one thread, and restart r draws from
    the (seed, objective, r) stream, so adding restarts can only improve
    the result (ties keep the earliest restart). The witness is the best
    restart's point put through the search's own decoder, so it replays
    to the reported slack bit for bit.
    """
    objective = _parse_id(objective)
    if objective not in CONDITIONAL_IDS:
        raise NormGeoError(f"{objective.value} is universal; nothing to search")
    _check_dim(spec, config)
    vals, points, signs, evals = _search_restarts(spec, objective, config)
    r_best = int(np.argmax(vals))
    val = float(vals[r_best])
    _, xs, ys, ts, gammas = _decode_points(spec, objective, points[r_best : r_best + 1])
    witness = Witness(
        x=xs[0].copy(),
        y=ys[0].copy(),
        t=None if ts is None else float(ts[0]),
        gamma=None if gammas is None else float(signs[r_best] * gammas[0]),
    )
    return SearchResult(
        objective=objective,
        best_violation=max(0.0, val),
        witness=witness,
        witness_slack=-val,
        evaluations=int(evals.sum()),
        budget_stops=int((evals >= config.iters_per_restart).sum()),
    )


@dataclass(frozen=True)
class RefinedMaxResult(_Report):
    """Outcome of a sampled-and-refined maximization over nonzero pairs."""

    value: float
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    evaluations: int
    # refines that ended on their evaluation budget, not at the step floor
    budget_stops: int
    skipped: int

    def to_dict(self):
        # x and y go under "witness", in the place of their fields
        out = super().to_dict()
        witness = {"x": out.pop("x"), "y": out.pop("y")}
        return {"value": out.pop("value"), "witness": witness, **out}


def _refine_pairs(spec, budget, seed, tag, batch_fn):
    """Sample `budget` pairs, score them with batch_fn, refine the best few
    with the same compass search the violation searches use, and return
    the best pair found as a RefinedMaxResult.

    Pairs are drawn block by block (norms._pair_block on stream tag) and
    scored in chunks, so memory stays bounded for any budget. A running top
    _REFINE_TOP keeps the best finite scores, ties going to the earliest
    pair.
    """
    dim = spec.dim
    _check_count("budget", budget)
    _check_count("seed", seed, 0)
    top_s = np.empty(0)
    top_x = top_y = np.empty((0, dim))
    skipped = 0
    for b in _blocks(budget):
        _, _, xs, ys = _pair_block(dim, budget, seed, tag, b)
        if b == 0:
            # copies: views would pin block 0's whole stacks
            first = (xs[0].copy(), ys[0].copy())
        scores = np.empty(len(xs))
        for sl in _chunks(len(xs), dim):
            scores[sl] = batch_fn(xs[sl], ys[sl])
        skipped += int(np.isneginf(scores).sum())
        # stable: earlier pairs come first, so they win ties; a row outside
        # its block's own top cannot enter the running top
        keep = np.argsort(-scores, kind="stable")[:_REFINE_TOP]
        top_s = np.concatenate([top_s, scores[keep]])
        top_x = np.concatenate([top_x, xs[keep]])
        top_y = np.concatenate([top_y, ys[keep]])
        order = np.argsort(-top_s, kind="stable")[:_REFINE_TOP]
        order = order[np.isfinite(top_s[order])]
        top_s, top_x, top_y = top_s[order], top_x[order], top_y[order]
    if not top_s.size:
        return RefinedMaxResult(-math.inf, *first, budget, 0, skipped)
    best_val = float(top_s[0])
    best_pair = (top_x[0], top_y[0])
    vals, points, evals = _compass_search(
        lambda q: batch_fn(q[:, :dim], q[:, dim:]),
        np.concatenate([top_x, top_y], axis=1),
        _SIDE_BUDGET,
        np.full(2 * dim, -math.inf),
        np.full(2 * dim, math.inf),
        _make_project(dim),
    )
    for val, p in zip(vals, points):
        if val > best_val:
            best_val = float(val)
            best_pair = (p[:dim].copy(), p[dim:].copy())
    stops = int((evals >= _SIDE_BUDGET).sum())
    evals = budget + int(evals.sum())
    return RefinedMaxResult(best_val, *best_pair, evals, stops, skipped)


def dw_constant_estimate(spec, budget, seed):
    """Lower-bound estimate of the best c in alpha <= c*||x-y||/(||x||+||y||).

    Maximizes c(x,y) = alpha * (||x||+||y||) / ||x-y|| over sampled and
    refined pairs; pairs with ||x|| or ||y|| at most 1e-12, or with ||x-y||
    below 1e-8*(||x||+||y||), are skipped (and counted), never divided
    through. The true constant can only be larger. Equals 2 for
    inner-product norms, at most 4 for any norm.
    """

    def batch_fn(xs, ys):
        nx = _norm_rows(spec, xs)
        ny = _norm_rows(spec, ys)
        d = _norm_rows(spec, xs - ys)
        s = nx + ny
        ok = (nx > _NORM_FLOOR) & (ny > _NORM_FLOOR) & (d >= _DW_SEPARATION_REL * s)
        nx, ny, d = (np.where(ok, v, 1.0) for v in (nx, ny, d))
        alpha = _norm_rows(spec, xs / nx[:, None] - ys / ny[:, None])
        return np.where(ok, alpha * s / d, -math.inf)

    return _refine_pairs(spec, budget, seed, _DW_STREAM, batch_fn)


def parallelogram_defect_search(spec, budget, seed):
    """Largest relative parallelogram-law defect found by sampling + refining.

    defect = |n(x+y)^2 + n(x-y)^2 - 2n(x)^2 - 2n(y)^2| / (n(x)^2 + n(y)^2).
    Independent of the inequality catalog; used as a cross-check oracle.
    """

    def batch_fn(xs, ys):
        nx = _norm_rows(spec, xs)
        ny = _norm_rows(spec, ys)
        np_ = _norm_rows(spec, xs + ys)
        nm = _norm_rows(spec, xs - ys)
        den = nx * nx + ny * ny
        num = np.abs(np_ * np_ + nm * nm - 2.0 * nx * nx - 2.0 * ny * ny)
        ok = den > 1e-24
        return np.where(ok, num / np.where(ok, den, 1.0), -math.inf)

    return _refine_pairs(spec, budget, seed, _PG_STREAM, batch_fn)


@dataclass(frozen=True)
class DetectionVerdict(_Report):
    verdict: str
    per_objective: dict
    parallelogram: RefinedMaxResult
    dw_estimate: RefinedMaxResult
    discrepancy_flagged: bool
    config: SearchConfig
    wall_time_s: float


# The five parts of a detect, longest first: the order a pool starts them in.
_PARTS = (
    InequalityId.LORCH,
    "dw",
    "parallelogram",
    InequalityId.ALPHA_BETA,
    InequalityId.N_ORDERING,
)


def _run_part(part, spec, config, side_budget):
    """One of the _PARTS: a violation search or a side check. It lives at
    module level so that a pool pickles only its arguments."""
    if part == "parallelogram":
        return parallelogram_defect_search(spec, side_budget, config.seed)
    if part == "dw":
        return dw_constant_estimate(spec, side_budget, config.seed)
    return violation_search(spec, part, config)


def _fork_context(workers):
    """The fork start method's context when workers > 1 and the platform
    has it; None otherwise, without importing multiprocessing for one
    worker."""
    if workers == 1:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def detect_inner_product(spec, config, workers=1, side_budget=_SIDE_BUDGET):
    """Searches all three conditional inequalities and renders a verdict.

    VIOLATED iff some objective's violation exceeds 1e-7; witnesses
    are machine-checkable via evaluate_inequality. CONSISTENT claims only
    that the search found nothing. If the independent parallelogram probe
    finds a defect above 1e-6 while the verdict stays CONSISTENT, the
    verdict is flagged as discrepant (search insufficiency).

    The three searches and the two side checks share no state. With
    workers >= 2 on a platform that can fork, they run on a pool of
    min(workers, 5) forked processes, longest first; otherwise they run
    one after another in this process. Each part returns the same bits
    either way, so the report does not depend on workers. Arguments are
    checked before any process starts.
    """
    _check_count("workers", workers)
    _check_count("side_budget", side_budget)
    _check_dim(spec, config)
    t0 = time.perf_counter()
    args = (spec, config, side_budget)
    context = _fork_context(workers)
    if context is None:
        done = {part: _run_part(part, *args) for part in _PARTS}
    else:
        from concurrent.futures.process import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, len(_PARTS)), mp_context=context
        ) as pool:
            futures = [pool.submit(_run_part, part, *args) for part in _PARTS]
            done = {part: f.result() for part, f in zip(_PARTS, futures)}
    per = {objective: done[objective] for objective in CONDITIONAL_IDS}
    pg = done["parallelogram"]
    violated = any(r.best_violation > _VIOLATION_THRESHOLD for r in per.values())
    verdict = VIOLATED if violated else CONSISTENT
    flagged = (not violated) and pg.value > _PG_DISCREPANCY
    return DetectionVerdict(
        verdict=verdict,
        per_objective=per,
        parallelogram=pg,
        dw_estimate=done["dw"],
        discrepancy_flagged=flagged,
        config=config,
        wall_time_s=time.perf_counter() - t0,
    )
