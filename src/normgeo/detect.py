"""Inner-product detection by derivative-free counterexample search.

A multi-start coordinate pattern search drives the slack of the three
conditional inequalities (N_ORDERING, ALPHA_BETA, LORCH) negative. Finding
a violation certifies the norm is not induced by an inner product; finding
none is evidence, never proof, and is cross-checked against an independent
parallelogram-law probe plus an estimate of the best constant c with
alpha <= c*||x-y||/(||x||+||y||).
"""

from __future__ import annotations

import functools
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
    _DW_STREAM,
    _PG_STREAM,
    _RADIUS_RANGE,
    _SEARCH_STREAM,
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
        _check_count("dim", self.dim)
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

    fn(q, rows) scores an (m, n) stack q of points, where rows[i] is the
    row of p0 that point i belongs to; a stack lists its points in row
    order, so rows does not decrease down q. Each row
    follows the trajectory a lone search from it would: poll the 2n
    points +-step along each coordinate in order, +step before -step;
    take the first sufficient improvement and go on to the next
    coordinate; halve the step (from 0.25) after a sweep without one. A
    poll value v improves on the best b only if v > b + 1e-4 * step**2 +
    1e-12 * (1 + |b|): a decrease of order step**2 (Kolda, Lewis &
    Torczon, SIAM Review 45(3), 2003) and a relative rounding-noise floor.
    A best of -inf takes any finite value. A poll is clamped to [lo, hi]
    and projected into the feasible set (project must keep a point inside
    [lo, hi]); one that leaves its own coordinate unchanged is skipped and
    costs no evaluation. A row stops when its step drops below 1e-9 or its
    budget runs out.

    Each tick stacks, for every live row, the rest of its current sweep
    into one fn call: every poll from the current point that is not
    skipped, up to the row's remaining budget. The first improvement in
    poll order is taken. The polls after it would have started from the
    moved point, so their values are discarded and never counted as
    evaluations. fn gives a row the same value in any stack, so every row
    ends exactly where the one-poll-at-a-time search would, after about
    one tick per move or sweep instead of one per evaluation, whichever
    rows share the call. A tick splits its rows over several fn calls only
    when their stencils would pass _STENCIL_CELLS doubles together.
    Returns the best values, points and evaluations per row.
    """
    p = project(np.clip(p0, lo, hi))
    count, n = p.shape
    best = fn(p, np.arange(count))
    evals = np.ones(count, dtype=np.int64)
    width = 2 * n
    polls = np.arange(width)
    coord = polls // 2
    copies = np.tile(np.arange(n), width)  # a row's stencil: its point 2n times over
    cells = polls * n + coord  # each poll's moved cell in a row's stencil
    sign = np.where(polls % 2 == 0, 1.0, -1.0)
    after = coord * 2 + 2  # where a sweep goes on after a move by each poll
    lo_c, hi_c = lo[coord], hi[coord]
    clamp = bool(np.isfinite(lo_c).any() or np.isfinite(hi_c).any())
    chunk = max(1, _STENCIL_CELLS // (width * n))
    # The live rows' state, kept compact: a tick reads and writes it in
    # place, and rows leave it only when they stop. delta holds each
    # row's signed poll steps, tol its 1e-4 * step**2 and need the value a
    # poll must beat; they change only when the row's best or step does.
    ids = np.flatnonzero(evals < max_evals)
    at, val, used = p[ids], best[ids], evals[ids]
    step = np.full(ids.size, _STEP_INIT)
    delta = sign * step[:, None]
    tol = _DECREASE_RHO * (step * step)
    need = _sufficient(val, tol)
    pos = np.zeros(ids.size, dtype=np.int64)  # next poll: 2 * coordinate + (0: +step, 1: -step)
    improved = np.zeros(ids.size, dtype=bool)
    while ids.size:
        for start in range(0, ids.size, chunk):
            sl = slice(start, start + chunk)
            base = at[sl]
            m = len(base)
            old = base.take(coord, axis=1)
            new = old + delta[sl]
            stencil = base.take(copies, axis=1)
            # the point is inside [lo, hi], so clamping a poll clamps its own coordinate
            stencil[:, cells] = np.clip(new, lo_c, hi_c) if clamp else new
            flat = project(stencil.reshape(-1, n))
            active = flat.reshape(m, -1).take(cells, axis=1) != old
            active &= polls >= pos[sl, None]
            rank = active.cumsum(axis=1)
            room = max_evals - used[sl]
            kept = np.flatnonzero(active & (rank <= room[:, None]))
            vals = np.full((m, width), -math.inf)
            if kept.size:
                q = flat.take(kept, axis=0)
                vals.flat[kept] = fn(q, ids[sl].take(kept // width))
            better = vals > need[sl, None]
            first = better.argmax(axis=1)
            last = np.minimum(rank[:, -1], room)
            pos[sl] = width
            r = np.flatnonzero(better.any(axis=1))
            if r.size:
                f = first[r]
                k = r * width + f
                last[r] = rank.take(k)
                moved = start + r
                at[moved] = flat.take(k, axis=0)
                val[moved] = vals.take(k)
                improved[moved] = True
                pos[moved] = after.take(f)
                need[moved] = _sufficient(val[moved], tol[moved])
            used[sl] += last
        wrap = pos == width
        shrink = wrap & ~improved
        if shrink.any():
            step[shrink] *= _STEP_SHRINK
            delta[shrink] = sign * step[shrink, None]
            tol[shrink] = _DECREASE_RHO * (step[shrink] * step[shrink])
            need[shrink] = _sufficient(val[shrink], tol[shrink])
        improved &= ~wrap
        pos[wrap] = 0
        alive = (used < max_evals) & (step >= _STEP_FLOOR)
        if not alive.all():
            done = ids[~alive]
            best[done], p[done], evals[done] = val[~alive], at[~alive], used[~alive]
            ids, at, val, used, step, delta, tol, need, pos, improved = (
                a[alive] for a in (ids, at, val, used, step, delta, tol, need, pos, improved)
            )
    return best, p, evals


def _sufficient(best, tol):
    """The value a poll must beat, per row, under the sufficient-decrease
    rule, given tol = 1e-4 * step**2; -inf where the best is -inf (never
    -inf + inf)."""
    size = np.abs(np.where(np.isinf(best), 0.0, best))
    return best + tol + _NOISE_REL * (1.0 + size)


def _decode_points(spec, objective, q):
    """The pairs a parameter stack q stands for: (ok, xs, ys, extra), where
    extra holds the formula table's keyword rows for the objective.

    Each row is x, y and, for N_ORDERING and LORCH, one more coordinate:
    t itself ({"ts": ...}), or log|gamma| ({"gammas": ...}). ALPHA_BETA and
    LORCH rows count (ok) only if ||x|| and ||y|| both exceed 1e-12; for
    ALPHA_BETA, extra is {"nx": ..., "ny": ...}, those ||x|| and ||y|| rows,
    for the formula table to reuse. LORCH rescales y
    to ||x|| on the rows that count and keeps the raw y on the rest; its
    gamma is the positive exp(q[-1]), because negating gamma negates
    gamma*x + y/gamma and leaves its norm, and so the slack, unchanged.
    """
    d = spec.dim
    xs, ys = q[:, :d], q[:, d : 2 * d]
    if objective is InequalityId.N_ORDERING:
        return np.ones(len(q), dtype=bool), xs, ys, {"ts": q[:, -1]}
    nx = _norm_rows(spec, xs)
    ny = _norm_rows(spec, ys)
    ok = (nx > _NORM_FLOOR) & (ny > _NORM_FLOOR)
    if objective is InequalityId.ALPHA_BETA:
        return ok, xs, ys, {"nx": nx, "ny": ny}
    scale = np.ones(len(q))
    scale[ok] = nx[ok] / ny[ok]
    ys = ys * scale[:, None]
    # math.exp, not np.exp, so a witness's gamma replays to the bit; a
    # stack repeats each restart's log-gamma in all but two of its polls.
    logs, back = np.unique(q[:, -1], return_inverse=True)
    return ok, xs, ys, {"gammas": np.array([math.exp(v) for v in logs.tolist()])[back]}


def _score_points(spec, objective, q):
    """-slack of each parameter row (higher = worse violation); rows the
    decoder does not count score -inf."""
    ok, xs, ys, extra = _decode_points(spec, objective, q)
    rows = slice(None) if ok.all() else ok  # a slice takes views, not copies
    extra = {key: v[rows] for key, v in extra.items()}
    lhs, rhs = _batch_lhs_rhs(objective, spec, xs[rows], ys[rows], **extra)
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
        lambda q, rows: _score_points(spec, objective, q),
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
    _, xs, ys, extra = _decode_points(spec, objective, points[r_best : r_best + 1])
    witness = Witness(
        x=xs[0].copy(),
        y=ys[0].copy(),
        t=float(extra["ts"][0]) if "ts" in extra else None,
        gamma=float(signs[r_best] * extra["gammas"][0]) if "gammas" in extra else None,
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


def _dw_values(spec, xs, ys, nx, ny, nd):
    """c(x, y) = alpha * (||x||+||y||) / ||x-y|| of each row, from its
    ||x||, ||y|| and ||x-y||; -inf on the rows the DW estimate skips."""
    s = nx + ny
    ok = (nx > _NORM_FLOOR) & (ny > _NORM_FLOOR) & (nd >= _DW_SEPARATION_REL * s)
    nx, ny, nd = (np.where(ok, v, 1.0) for v in (nx, ny, nd))
    alpha = _norm_rows(spec, xs / nx[:, None] - ys / ny[:, None])
    return np.where(ok, alpha * s / nd, -math.inf)


def _pg_values(spec, xs, ys, nx, ny, nd):
    """The relative parallelogram defect of each row, from its ||x||, ||y||
    and ||x-y||; -inf where n(x)^2 + n(y)^2 is at most 1e-24."""
    ns = _norm_rows(spec, xs + ys)
    den = nx * nx + ny * ny
    num = np.abs(ns * ns + nd * nd - 2.0 * nx * nx - 2.0 * ny * ny)
    ok = den > 1e-24
    return np.where(ok, num / np.where(ok, den, 1.0), -math.inf)


# The side checks: each draws its pairs from its own stream tag.
_DW = (_DW_STREAM, _dw_values)
_PG = (_PG_STREAM, _pg_values)


def _side_values(spec, checks, owner, xs, ys):
    """Each row's value under its own side check: checks[owner[i]] scores
    row i. owner is non-decreasing (one check's rows, then the next's), so
    each check scores a slice of the stack, without copies. ||x||, ||y||
    and ||x-y|| are computed once for all the checks."""
    nx = _norm_rows(spec, xs)
    ny = _norm_rows(spec, ys)
    nd = _norm_rows(spec, xs - ys)
    out = np.empty(len(xs))
    cuts = np.searchsorted(owner, np.arange(len(checks) + 1)).tolist()
    for (_, values), a, b in zip(checks, cuts, cuts[1:]):
        if a < b:
            rows = slice(a, b)
            out[rows] = values(spec, xs[rows], ys[rows], nx[rows], ny[rows], nd[rows])
    return out


def _top_pairs(spec, budget, seed, check):
    """Sample `budget` pairs on the check's stream and keep the best few:
    (scores, xs, ys, first pair, skipped).

    Pairs are drawn block by block (norms._pair_block) and scored in
    chunks, so memory stays bounded for any budget. A running top
    _REFINE_TOP keeps the best finite scores, ties going to the earliest
    pair.
    """
    dim = spec.dim
    top_s = np.empty(0)
    top_x = top_y = np.empty((0, dim))
    skipped = 0
    for b in _blocks(budget):
        _, _, xs, ys = _pair_block(dim, budget, seed, check[0], b)
        if b == 0:
            # copies: views would pin block 0's whole stacks
            first = (xs[0].copy(), ys[0].copy())
        scores = np.empty(len(xs))
        owner = np.zeros(len(xs), dtype=np.int64)  # every row is the check's own
        for sl in _chunks(len(xs), dim):
            scores[sl] = _side_values(spec, (check,), owner[sl], xs[sl], ys[sl])
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
    return top_s, top_x, top_y, first, skipped


def _refine_pairs(spec, budget, seed, checks):
    """Run each side check in checks and return one RefinedMaxResult per
    check, in order.

    Each check samples `budget` pairs on its own stream and keeps its best
    few (_top_pairs). Then one compass search, the engine the violation
    searches use, refines every check's kept pairs at once, each row scored
    by its own check; a row's trajectory does not depend on the rows
    beside it, so each check reports the same bits as when run alone.
    """
    dim = spec.dim
    _check_count("budget", budget)
    _check_count("seed", seed, 0)
    tops = [_top_pairs(spec, budget, seed, check) for check in checks]
    # one check's kept pairs after another, so owner does not decrease
    owner = np.concatenate([np.full(len(top_s), k) for k, (top_s, *_) in enumerate(tops)])
    starts = np.concatenate([np.concatenate([xs, ys], axis=1) for _, xs, ys, *_ in tops])
    if owner.size:
        vals, points, evals = _compass_search(
            lambda q, rows: _side_values(spec, checks, owner[rows], q[:, :dim], q[:, dim:]),
            starts,
            _SIDE_BUDGET,
            np.full(2 * dim, -math.inf),
            np.full(2 * dim, math.inf),
            _make_project(dim),
        )
    results = []
    for k, (top_s, top_x, top_y, first, skipped) in enumerate(tops):
        if not top_s.size:
            results.append(RefinedMaxResult(-math.inf, *first, budget, 0, skipped))
            continue
        best_val = float(top_s[0])
        best_pair = (top_x[0], top_y[0])
        mine = owner == k
        for val, p in zip(vals[mine], points[mine]):
            if val > best_val:
                best_val = float(val)
                best_pair = (p[:dim].copy(), p[dim:].copy())
        stops = int((evals[mine] >= _SIDE_BUDGET).sum())
        used = budget + int(evals[mine].sum())
        results.append(RefinedMaxResult(best_val, *best_pair, used, stops, skipped))
    return results


def dw_constant_estimate(spec, budget, seed):
    """Lower-bound estimate of the best c in alpha <= c*||x-y||/(||x||+||y||).

    Maximizes c(x,y) = alpha * (||x||+||y||) / ||x-y|| over sampled and
    refined pairs; pairs with ||x|| or ||y|| at most 1e-12, or with ||x-y||
    below 1e-8*(||x||+||y||), are skipped (and counted), never divided
    through. The true constant can only be larger. Equals 2 for
    inner-product norms, at most 4 for any norm.
    """
    return _refine_pairs(spec, budget, seed, (_DW,))[0]


def parallelogram_defect_search(spec, budget, seed):
    """Largest relative parallelogram-law defect found by sampling + refining.

    defect = |n(x+y)^2 + n(x-y)^2 - 2n(x)^2 - 2n(y)^2| / (n(x)^2 + n(y)^2).
    Independent of the inequality catalog; used as a cross-check oracle.
    """
    return _refine_pairs(spec, budget, seed, (_PG,))[0]


@dataclass(frozen=True)
class DetectionVerdict(_Report):
    verdict: str
    per_objective: dict
    parallelogram: RefinedMaxResult
    dw_estimate: RefinedMaxResult
    discrepancy_flagged: bool
    config: SearchConfig
    wall_time_s: float


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

    A detect runs in four parts that share no state: the three searches,
    and the two side checks, which sample their pairs apart and refine
    them in one engine call. The side checks report the same bits as
    dw_constant_estimate and parallelogram_defect_search with the same
    budget and seed. With workers >= 2 on a platform that can fork, the
    parts run on a pool of min(workers, 4) forked processes, longest
    first; otherwise they run one after another in this process. Each
    part returns the same bits either way, so the report does not depend
    on workers. Arguments are checked before any process starts.
    """
    _check_count("workers", workers)
    _check_count("side_budget", side_budget)
    _check_dim(spec, config)
    t0 = time.perf_counter()
    # longest first: the order a pool starts them in
    parts = (
        functools.partial(violation_search, spec, InequalityId.LORCH, config),
        functools.partial(_refine_pairs, spec, side_budget, config.seed, (_DW, _PG)),
        functools.partial(violation_search, spec, InequalityId.ALPHA_BETA, config),
        functools.partial(violation_search, spec, InequalityId.N_ORDERING, config),
    )
    context = _fork_context(workers)
    if context is None:
        done = [part() for part in parts]
    else:
        from concurrent.futures.process import ProcessPoolExecutor

        with ProcessPoolExecutor(min(workers, len(parts)), context) as pool:
            done = [f.result() for f in [pool.submit(part) for part in parts]]
    lorch, (dw, pg), alpha_beta, n_ordering = done
    per = dict(zip(CONDITIONAL_IDS, (n_ordering, alpha_beta, lorch)))
    violated = any(r.best_violation > _VIOLATION_THRESHOLD for r in per.values())
    verdict = VIOLATED if violated else CONSISTENT
    flagged = (not violated) and pg.value > _PG_DISCREPANCY
    return DetectionVerdict(
        verdict=verdict,
        per_objective=per,
        parallelogram=pg,
        dw_estimate=dw,
        discrepancy_flagged=flagged,
        config=config,
        wall_time_s=time.perf_counter() - t0,
    )
