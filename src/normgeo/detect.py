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

from .errors import NormGeoError, ZeroVectorError
from .inequalities import (
    _GAMMA_LOG_BAND,
    CONDITIONAL_IDS,
    InequalityId,
    Witness,
    _batch_lhs_rhs,
    _norm_rows,
)
from .norms import DEFAULT_RADIUS_RANGE, DEFAULT_TOL, norm_eval, sample_points, stream

VIOLATED = "VIOLATED"
CONSISTENT = "CONSISTENT"

_STEP_INIT = 0.25
_STEP_SHRINK = 0.5
_STEP_FLOOR = 1e-9
_VIOLATION_THRESHOLD = 1e-7
_SIDE_BUDGET = 4000
_REFINE_TOP = 8
_SEARCH_STREAM = 2
_DW_STREAM = 3
_PG_STREAM = 4
_PG_DISCREPANCY = 1e-6


@dataclass(frozen=True)
class SearchConfig:
    dim: int
    seed: int
    restarts: int = 64
    iters_per_restart: int = 2000
    radius_range: tuple = DEFAULT_RADIUS_RANGE

    def __post_init__(self):
        if self.restarts < 1 or self.iters_per_restart < 1:
            raise NormGeoError("restarts and iters_per_restart must be >= 1")

    def to_dict(self):
        return {
            "dim": self.dim,
            "seed": self.seed,
            "restarts": self.restarts,
            "iters_per_restart": self.iters_per_restart,
            "radius_range": [float(self.radius_range[0]), float(self.radius_range[1])],
        }


@dataclass(frozen=True)
class SearchResult:
    objective: InequalityId
    best_violation: float
    witness: Witness
    witness_slack: float
    evaluations: int
    seed: int

    def to_dict(self):
        return {
            "objective": self.objective.value,
            "best_violation": self.best_violation,
            "witness": self.witness.to_dict(),
            "witness_slack": self.witness_slack,
            "evaluations": self.evaluations,
            "seed": self.seed,
        }


def _compass_search(fn, p0, max_evals, lo, hi, project):
    """Greedy compass search from every row of p0 at once, maximizing fn.

    fn(q) scores an (m, n) stack q of points. Each row follows the
    trajectory a lone search from it would: poll the coordinates in order,
    +step before -step, take the first strict improvement and go on to the
    next coordinate, and halve the step (from 0.25) after a sweep without
    one. Candidates are clamped to [lo, hi] and projected into the
    feasible set before evaluation; one that leaves its own coordinate
    unchanged is skipped without costing an evaluation. A row stops when
    its step drops below 1e-9 or its budget runs out. Each tick stacks the
    next poll point of every live row into one fn call. Returns the best
    values, points and evaluations per row.
    """
    p = project(np.clip(p0, lo, hi))
    count, n = p.shape
    best = fn(p)
    evals = np.ones(count, dtype=np.int64)
    step = np.full(count, _STEP_INIT)
    pos = np.zeros(count, dtype=np.int64)  # 2 * coordinate + (0: +step, 1: -step)
    improved = np.zeros(count, dtype=bool)

    def poll(rows):
        """The next candidates of `rows`, and which of them are skipped."""
        coord = pos[rows] // 2
        at = np.arange(rows.size)
        q = p[rows]
        q[at, coord] += np.where(pos[rows] % 2 == 0, step[rows], -step[rows])
        q = project(np.clip(q, lo, hi))
        return q, q[at, coord] == p[rows, coord]

    def end_sweeps(rows):
        """Close the sweep of the rows whose cursor ran off its end; return
        which of `rows` are still searching."""
        wrap = rows[pos[rows] == 2 * n]
        if wrap.size:
            step[wrap] = np.where(improved[wrap], step[wrap], step[wrap] * _STEP_SHRINK)
            improved[wrap] = False
            pos[wrap] = 0
        return step[rows] >= _STEP_FLOOR

    live = np.flatnonzero((step >= _STEP_FLOOR) & (evals < max_evals))
    while live.size:
        cand, skip = poll(live)
        while skip.any():
            # A skipped poll costs nothing: move on and poll again.
            pos[live[skip]] += 1
            redo = np.flatnonzero(skip)[end_sweeps(live[skip])]
            keep = ~skip
            keep[redo] = True
            cand[redo], skip[redo] = poll(live[redo])
            live, cand, skip = live[keep], cand[keep], skip[keep]
        if not live.size:
            break
        vals = fn(cand)
        evals[live] += 1
        better = vals > best[live]
        moved = live[better]
        p[moved] = cand[better]
        best[moved] = vals[better]
        improved[moved] = True
        pos[live] = np.where(better, pos[live] // 2 * 2 + 2, pos[live] + 1)
        live = live[evals[live] < max_evals]
        live = live[end_sweeps(live)]
    return best, p, evals


def _search_objective(spec, objective, d):
    """fn(q) -> -slack of each parameter row (higher = worse violation).

    LORCH scores the positive gamma exp(q[-1]): negating gamma negates
    gamma*x + y/gamma, which leaves its norm and so the slack unchanged.
    """
    if objective is InequalityId.N_ORDERING:

        def fn(q):
            lhs, rhs = _batch_lhs_rhs(
                objective, spec, q[:, :d], q[:, d : 2 * d], ts=q[:, -1]
            )
            return lhs - rhs

        return fn
    if objective is InequalityId.ALPHA_BETA:

        def fn(q):
            xs, ys = q[:, :d], q[:, d : 2 * d]
            try:
                lhs, rhs = _batch_lhs_rhs(objective, spec, xs, ys)
            except ZeroVectorError:
                ok = (_norm_rows(spec, xs) > 0.0) & (_norm_rows(spec, ys) > 0.0)
                out = np.full(len(q), -math.inf)
                out[ok] = fn(q[ok])
                return out
            return lhs - rhs

        return fn

    def fn(q):
        xs, yfs = q[:, :d], q[:, d : 2 * d]
        nx = _norm_rows(spec, xs)
        nyf = _norm_rows(spec, yfs)
        ok = (nx > 1e-12) & (nyf > 1e-12)
        ys = yfs[ok] * (nx[ok] / nyf[ok])[:, None]
        gammas = np.array([math.exp(v) for v in q[ok, -1]])
        lhs, rhs = _batch_lhs_rhs(objective, spec, xs[ok], ys, gammas=gammas)
        out = np.full(len(q), -math.inf)
        out[ok] = lhs - rhs
        return out

    return fn


def _make_project(d, r_lo):
    """Push each x and y block of a parameter stack out to Euclidean length
    r_lo; a zero block becomes (r_lo, 0, ...)."""

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
    starts = []
    signs = np.ones(config.restarts)
    lo = np.full(2 * d, -math.inf)
    hi = np.full(2 * d, math.inf)
    if objective is InequalityId.N_ORDERING:
        lo = np.append(lo, 0.0)
        hi = np.append(hi, 1.0)
    elif objective is InequalityId.LORCH:
        lo = np.append(lo, _GAMMA_LOG_BAND[0])
        hi = np.append(hi, _GAMMA_LOG_BAND[1])
    for r in range(config.restarts):
        rng = stream(config.seed, _SEARCH_STREAM, obj_index, r)
        pts = sample_points(d, rng, 2, config.radius_range)
        start = [pts[0], pts[1]]
        if objective is InequalityId.N_ORDERING:
            start.append([rng.uniform(0.0, 1.0)])
        elif objective is InequalityId.LORCH:
            signs[r] = -1.0 if rng.random() < 0.5 else 1.0
            start.append([rng.uniform(*_GAMMA_LOG_BAND)])
        starts.append(np.concatenate(start))
    best, p, evals = _compass_search(
        _search_objective(spec, objective, d),
        np.array(starts),
        config.iters_per_restart,
        lo,
        hi,
        _make_project(d, config.radius_range[0]),
    )
    return best, p, signs, evals


def _decode_witness(spec, objective, d, p, sign):
    x = p[:d].copy()
    if objective is InequalityId.N_ORDERING:
        return Witness(x=x, y=p[d : 2 * d].copy(), t=float(p[-1]))
    if objective is InequalityId.ALPHA_BETA:
        return Witness(x=x, y=p[d : 2 * d].copy())
    yf = p[d : 2 * d]
    y = yf * (norm_eval(spec, x) / norm_eval(spec, yf))
    return Witness(x=x, y=y, gamma=sign * math.exp(float(p[-1])))


def violation_search(spec, objective, config):
    """Multi-start pattern search for a negative-slack witness.

    All restarts advance together on one thread, and restart r draws from
    the (seed, objective, r) stream, so adding restarts can only improve
    the result (ties keep the earliest restart).
    """
    objective = InequalityId(objective)
    if objective not in CONDITIONAL_IDS:
        raise NormGeoError(f"{objective.value} is universal; nothing to search")
    if config.dim != spec.dim:
        raise NormGeoError(f"config dim {config.dim} != norm dim {spec.dim}")
    vals, points, signs, evals = _search_restarts(spec, objective, config)
    r_best = 0
    for r in range(1, config.restarts):
        if vals[r] > vals[r_best]:
            r_best = r
    val = float(vals[r_best])
    witness = _decode_witness(
        spec, objective, config.dim, points[r_best], float(signs[r_best])
    )
    return SearchResult(
        objective=objective,
        best_violation=max(0.0, val),
        witness=witness,
        witness_slack=-val,
        evaluations=int(evals.sum()),
        seed=config.seed,
    )


@dataclass(frozen=True)
class RefinedMaxResult:
    """Outcome of a sampled-and-refined maximization over nonzero pairs."""

    value: float
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    evaluations: int
    skipped: int
    seed: int

    def to_dict(self):
        return {
            "value": self.value,
            "witness": {
                "x": [float(v) for v in self.x],
                "y": [float(v) for v in self.y],
            },
            "evaluations": self.evaluations,
            "skipped": self.skipped,
            "seed": self.seed,
        }


def _refine_pairs(spec, budget, seed, tag, batch_fn, radius_range):
    """Sample `budget` pairs, score them with batch_fn, refine the best few
    with the same compass search the violation searches use."""
    dim = spec.dim
    if budget < 1:
        raise NormGeoError("budget must be >= 1")
    rng = stream(seed, tag, 0)
    xs = sample_points(dim, rng, budget, radius_range)
    ys = sample_points(dim, rng, budget, radius_range)
    scores = batch_fn(xs, ys)
    skipped = int(np.isneginf(scores).sum())
    order = np.argsort(-scores, kind="stable")
    top = [int(i) for i in order[:_REFINE_TOP] if math.isfinite(scores[i])]
    if not top:
        return -math.inf, (xs[0], ys[0]), budget, skipped
    best_val = float(scores[top[0]])
    best_pair = (xs[top[0]], ys[top[0]])
    vals, points, evals = _compass_search(
        lambda q: batch_fn(q[:, :dim], q[:, dim:]),
        np.concatenate([xs[top], ys[top]], axis=1),
        _SIDE_BUDGET,
        np.full(2 * dim, -math.inf),
        np.full(2 * dim, math.inf),
        _make_project(dim, radius_range[0]),
    )
    for val, p in zip(vals, points):
        if val > best_val:
            best_val = float(val)
            best_pair = (p[:dim].copy(), p[dim:].copy())
    return best_val, best_pair, budget + int(evals.sum()), skipped


def dw_constant_estimate(spec, budget, seed, radius_range=DEFAULT_RADIUS_RANGE):
    """Lower-bound estimate of the best c in alpha <= c*||x-y||/(||x||+||y||).

    Maximizes c(x,y) = alpha * (||x||+||y||) / ||x-y|| over sampled and
    refined pairs; pairs with ||x|| or ||y|| at most 1e-12, or with ||x-y||
    below 1e-8*(||x||+||y||), are skipped (and counted), never divided
    through. The true constant can only be larger. Equals 2 for
    inner-product norms, at most 4 for any norm.
    """
    floor = DEFAULT_TOL.dw_separation_rel

    def batch_fn(xs, ys):
        nx = _norm_rows(spec, xs)
        ny = _norm_rows(spec, ys)
        d = _norm_rows(spec, xs - ys)
        s = nx + ny
        ok = (nx > 1e-12) & (ny > 1e-12) & (d >= floor * s)
        nx, ny, d = (np.where(ok, v, 1.0) for v in (nx, ny, d))
        alpha = _norm_rows(spec, xs / nx[:, None] - ys / ny[:, None])
        return np.where(ok, alpha * s / d, -math.inf)

    val, (x, y), evals, skipped = _refine_pairs(
        spec, budget, seed, _DW_STREAM, batch_fn, radius_range
    )
    return RefinedMaxResult(
        value=val, x=x, y=y, evaluations=evals, skipped=skipped, seed=seed
    )


def parallelogram_defect_search(spec, budget, seed, radius_range=DEFAULT_RADIUS_RANGE):
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

    val, (x, y), evals, skipped = _refine_pairs(
        spec, budget, seed, _PG_STREAM, batch_fn, radius_range
    )
    return RefinedMaxResult(
        value=val, x=x, y=y, evaluations=evals, skipped=skipped, seed=seed
    )


@dataclass(frozen=True)
class DetectionVerdict:
    verdict: str
    per_objective: dict
    parallelogram: RefinedMaxResult
    dw_estimate: RefinedMaxResult
    discrepancy_flagged: bool
    config: SearchConfig
    wall_time_s: float

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "per_objective": {
                k.value: v.to_dict() for k, v in self.per_objective.items()
            },
            "parallelogram": self.parallelogram.to_dict(),
            "dw_estimate": self.dw_estimate.to_dict(),
            "discrepancy_flagged": self.discrepancy_flagged,
            "config": self.config.to_dict(),
            "wall_time_s": self.wall_time_s,
        }


def detect_inner_product(spec, config, workers=1, side_budget=_SIDE_BUDGET):
    """Searches all three conditional inequalities and renders a verdict.

    VIOLATED iff some objective's violation exceeds 1e-7; witnesses
    are machine-checkable via evaluate_inequality. CONSISTENT claims only
    that the search found nothing. If the independent parallelogram probe
    finds a defect above 1e-6 while the verdict stays CONSISTENT, the
    verdict is flagged as discrepant (search insufficiency). `workers` is
    accepted for interface stability and has no effect: the searches run
    on one thread.
    """
    del workers
    t0 = time.perf_counter()
    per = {}
    for objective in CONDITIONAL_IDS:
        per[objective] = violation_search(spec, objective, config)
    pg = parallelogram_defect_search(
        spec, side_budget, config.seed, radius_range=config.radius_range
    )
    dw = dw_constant_estimate(
        spec, side_budget, config.seed, radius_range=config.radius_range
    )
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
