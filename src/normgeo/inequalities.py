"""Catalog of norm inequalities with a shared lhs <= rhs convention.

Every check reports slack = rhs - lhs, so a negative slack is a violation.
Six of the nine hold in every normed space; N_ORDERING, ALPHA_BETA and
LORCH can fail exactly when the norm does not come from an inner product,
which is what the search module exploits.
"""

from __future__ import annotations

import collections
import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NormGeoError, ZeroVectorError
from .norms import (
    _BLOCK,
    _check_count,
    _chunks,
    _Report,
    _norm_rows,
    _vector_pair,
    norm_eval,
    sample_points,
    stream,
)


class InequalityId(str, enum.Enum):
    MALIGRANDA_UPPER = "MALIGRANDA_UPPER"
    MALIGRANDA_LOWER = "MALIGRANDA_LOWER"
    ANGULAR_LOWER = "ANGULAR_LOWER"
    ANGULAR_UPPER = "ANGULAR_UPPER"
    MASSERA_SCHAFFER = "MASSERA_SCHAFFER"
    DUNKL_WILLIAMS_4 = "DUNKL_WILLIAMS_4"
    N_ORDERING = "N_ORDERING"
    ALPHA_BETA = "ALPHA_BETA"
    LORCH = "LORCH"


UNIVERSAL_IDS = (
    InequalityId.MALIGRANDA_UPPER,
    InequalityId.MALIGRANDA_LOWER,
    InequalityId.ANGULAR_LOWER,
    InequalityId.ANGULAR_UPPER,
    InequalityId.MASSERA_SCHAFFER,
    InequalityId.DUNKL_WILLIAMS_4,
)

CONDITIONAL_IDS = (
    InequalityId.N_ORDERING,
    InequalityId.ALPHA_BETA,
    InequalityId.LORCH,
)

_GAMMA_LOG_BAND = (math.log(0.125), math.log(8.0))  # |gamma| in [1/8, 8]
_BATCH_STREAM = 1
_EQUAL_NORM_REL = 1e-9


@dataclass(frozen=True)
class Witness(_Report):
    x: np.ndarray
    y: np.ndarray
    t: float | None = None
    gamma: float | None = None


@dataclass(frozen=True)
class InequalityReport(_Report):
    id: InequalityId
    lhs: float
    rhs: float
    slack: float
    witness: Witness
    universal: bool


def evaluate_inequality(iq, spec, x, y, t=None, gamma=None):
    """Evaluate one inequality at a concrete witness and report the slack."""
    iq = InequalityId(iq)
    x, y = _vector_pair(spec, x, y)
    if iq is InequalityId.N_ORDERING:
        if t is None:
            raise NormGeoError("N_ORDERING needs t")
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise NormGeoError(f"N_ORDERING needs t in [0, 1], got {t}")
    elif t is not None:
        raise NormGeoError(f"{iq.value} takes no t")
    if iq is InequalityId.LORCH:
        if gamma is None:
            raise NormGeoError("LORCH needs gamma")
        gamma = float(gamma)
        if gamma == 0.0 or not math.isfinite(gamma):
            raise NormGeoError(f"LORCH needs finite nonzero gamma, got {gamma}")
        nx = norm_eval(spec, x)
        ny = norm_eval(spec, y)
        if abs(nx - ny) > _EQUAL_NORM_REL * max(nx, ny):
            raise NormGeoError(
                f"LORCH needs ||x|| = ||y|| (got {nx:.17g} vs {ny:.17g}); "
                "rescale before calling"
            )
    elif gamma is not None:
        raise NormGeoError(f"{iq.value} takes no gamma")
    lhs, rhs = _batch_lhs_rhs(
        iq,
        spec,
        x[None, :],
        y[None, :],
        ts=None if t is None else np.array([t]),
        gammas=None if gamma is None else np.array([gamma]),
    )
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return InequalityReport(
        id=iq,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        witness=Witness(x=x.copy(), y=y.copy(), t=t, gamma=gamma),
        universal=iq in UNIVERSAL_IDS,
    )


def _batch_lhs_rhs(iq, spec, xs, ys, ts=None, gammas=None):
    """Formula table over (rows, dim) stacks: returns the lhs and rhs rows.

    The searches, the sampled sweeps and evaluate_inequality (a 1-row
    stack) all land here, and the norm kernel gives a row the same bits
    in any stack, so every reported value replays exactly. Callers own
    argument validation; a zero x or y row raises ZeroVectorError for
    the inequalities that normalize by ||x|| and ||y||.
    """
    if iq is InequalityId.N_ORDERING:
        nx = _norm_rows(spec, xs)
        ny = _norm_rows(spec, ys)
        swap = nx > ny
        a = np.where(swap[:, None], ys, xs)
        b = np.where(swap[:, None], xs, ys)
        tt = ts[:, None]
        return _norm_rows(spec, a + tt * b), _norm_rows(spec, b + tt * a)
    if iq is InequalityId.LORCH:
        g = gammas[:, None]
        return (
            _norm_rows(spec, xs + ys),
            _norm_rows(spec, g * xs + (1.0 / g) * ys),
        )
    nx = _norm_rows(spec, xs)
    ny = _norm_rows(spec, ys)
    if not ((nx > 0.0) & (ny > 0.0)).all():
        raise ZeroVectorError(f"{iq.value} needs nonzero x and y")
    u = xs / nx[:, None]
    v = ys / ny[:, None]
    if iq is InequalityId.MALIGRANDA_UPPER:
        return (
            _norm_rows(spec, xs + ys),
            nx + ny - (2.0 - _norm_rows(spec, u + v)) * np.minimum(nx, ny),
        )
    if iq is InequalityId.MALIGRANDA_LOWER:
        return (
            nx + ny - (2.0 - _norm_rows(spec, u + v)) * np.maximum(nx, ny),
            _norm_rows(spec, xs + ys),
        )
    alpha = _norm_rows(spec, u - v)
    if iq is InequalityId.ANGULAR_LOWER:
        lhs = (_norm_rows(spec, xs - ys) - np.abs(nx - ny)) / np.minimum(nx, ny)
        return lhs, alpha
    if iq is InequalityId.ANGULAR_UPPER:
        rhs = (_norm_rows(spec, xs - ys) + np.abs(nx - ny)) / np.maximum(nx, ny)
        return alpha, rhs
    if iq is InequalityId.MASSERA_SCHAFFER:
        return alpha, 2.0 * _norm_rows(spec, xs - ys) / np.maximum(nx, ny)
    if iq is InequalityId.DUNKL_WILLIAMS_4:
        return alpha, 4.0 * _norm_rows(spec, xs - ys) / (nx + ny)
    if iq is InequalityId.ALPHA_BETA:
        return alpha, _norm_rows(spec, xs / ny[:, None] - ys / nx[:, None])
    raise NormGeoError(f"unknown inequality id {iq!r}")


@dataclass(frozen=True)
class BatchResult(_Report):
    report: InequalityReport
    trial_index: int
    min_normalized_slack: float

    def to_dict(self):
        # the report's keys first, then the batch's own
        out = super().to_dict()
        return {**out.pop("report"), **out}


def _batch_block(iq, spec, seed, block_index, start, count):
    rng = stream(seed, _BATCH_STREAM, block_index)
    xs = sample_points(spec.dim, rng, count)
    ys = sample_points(spec.dim, rng, count)
    ts = gammas = None
    if iq is InequalityId.N_ORDERING:
        ts = rng.uniform(0.0, 1.0, count)
    elif iq is InequalityId.LORCH:
        gammas = np.exp(rng.uniform(*_GAMMA_LOG_BAND, count))
        gammas *= np.where(rng.random(count) < 0.5, -1.0, 1.0)
    # scored in chunks: only the pair stacks and these two rows span the block
    slack = np.empty(count)
    normalized = np.empty(count)
    for sl in _chunks(count, spec.dim):
        x, y = xs[sl], ys[sl]
        if gammas is not None:
            y *= (_norm_rows(spec, x) / _norm_rows(spec, y))[:, None]
        lhs, rhs = _batch_lhs_rhs(
            iq,
            spec,
            x,
            y,
            ts=None if ts is None else ts[sl],
            gammas=None if gammas is None else gammas[sl],
        )
        slack[sl] = rhs - lhs
        normalized[sl] = slack[sl] / (1.0 + np.abs(lhs) + np.abs(rhs))
    i = int(np.argmin(slack))
    # copies: a view would keep the block's whole xs and ys stacks alive
    return (
        float(slack[i]),
        start + i,
        xs[i].copy(),
        ys[i].copy(),
        None if ts is None else float(ts[i]),
        None if gammas is None else float(gammas[i]),
        float(normalized.min()),
    )


def _map_in_order(pool, fn, items, window):
    """pool.map(fn, items) with at most `window` calls submitted and not yet
    read: pool.map submits every call before the first result comes back,
    so its futures alone would grow with len(items)."""
    pending = collections.deque()
    for item in items:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def _usable_cpus():
    """The CPUs this process may run on (all of them where the platform
    cannot tell)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def batch_min_slack(iq, spec, trials, seed, workers=1):
    """Sample trials random pairs and return the report with minimal slack.

    Trials are split into fixed-size blocks, each with its own seed-derived
    stream, so the result is byte-identical for any worker count. Ties go to
    the earliest trial. LORCH pairs are made equal-norm by rescaling the
    second sample; t is uniform on [0,1] and gamma log-uniform on
    +-[1/8, 8]. Each block is folded into a running best as it returns.
    The blocks run on min(workers, blocks, usable CPUs) threads, which keep
    at most twice their number of blocks submitted, so memory grows with
    neither trials nor workers.
    """
    iq = InequalityId(iq)
    _check_count("workers", workers)
    _check_count("trials", trials)
    _check_count("seed", seed, 0)

    def run(b):
        start = b * _BLOCK
        count = min(_BLOCK, trials - start)
        return _batch_block(iq, spec, seed, b, start, count)

    def fold(results):
        # blocks arrive in order, so a strict < keeps the earliest of a tie
        best = None
        min_norm_slack = math.inf
        for res in results:
            min_norm_slack = min(min_norm_slack, res[-1])
            if best is None or res[0] < best[0]:
                best = res
        return best, min_norm_slack

    blocks = range(-(-trials // _BLOCK))
    threads = min(workers, len(blocks), _usable_cpus())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            best, min_norm_slack = fold(_map_in_order(pool, run, blocks, 2 * threads))
    else:
        best, min_norm_slack = fold(map(run, blocks))
    _, index, x, y, t, gamma, _ = best
    report = evaluate_inequality(iq, spec, x, y, t=t, gamma=gamma)
    return BatchResult(
        report=report,
        trial_index=index,
        min_normalized_slack=min_norm_slack,
    )
