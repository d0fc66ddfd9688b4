"""Catalog of norm inequalities with a shared lhs <= rhs convention.

Every check reports slack = rhs - lhs, so a negative slack is a violation.
Six of the nine hold in every normed space; N_ORDERING, ALPHA_BETA and
LORCH can fail exactly when the norm does not come from an inner product,
which is what the search module exploits.
"""

from __future__ import annotations

import collections
import enum
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NormGeoError, ZeroVectorError
from .norms import (
    _BATCH_STREAM,
    _blocks,
    _check_count,
    _chunks,
    _pair_block,
    _Report,
    _norm_rows,
    _real,
    _vector_pair,
    norm_eval,
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
    iq = _parse_id(iq)
    x, y = _vector_pair(spec, x, y)
    if iq is InequalityId.N_ORDERING:
        if t is None:
            raise NormGeoError("N_ORDERING needs t")
        t = _real(t, "t")
        if not 0.0 <= t <= 1.0:
            raise NormGeoError(f"N_ORDERING needs t in [0, 1], got {t}")
    elif t is not None:
        raise NormGeoError(f"{iq.value} takes no t")
    if iq is InequalityId.LORCH:
        if gamma is None:
            raise NormGeoError("LORCH needs gamma")
        gamma = _real(gamma, "gamma")
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


def _parse_id(iq):
    """The InequalityId that iq (an id or its name) stands for; anything else
    raises NormGeoError naming the valid ids."""
    try:
        return InequalityId(iq)
    except ValueError:
        valid = ", ".join(i.value for i in InequalityId)
        raise NormGeoError(f"unknown inequality id {iq!r}; expected one of {valid}") from None


def _unit_rows(spec, xs, ys, asked, nx=None, ny=None):
    """||x||, ||y||, x/||x|| and y/||y|| row by row, taking ||x|| and ||y||
    from nx and ny when the caller has them; a zero x or y row raises
    ZeroVectorError naming `asked`, the inequality that needed them."""
    nx = _norm_rows(spec, xs) if nx is None else nx
    ny = _norm_rows(spec, ys) if ny is None else ny
    if not ((nx > 0.0) & (ny > 0.0)).all():
        raise ZeroVectorError(f"{asked} needs nonzero x and y")
    return nx, ny, xs / nx[:, None], ys / ny[:, None]


def _universal_lhs_rhs(spec, xs, ys, asked="every universal inequality"):
    """The (lhs, rhs) rows of all six universal inequalities, in UNIVERSAL_IDS
    order, with each norm and each min or max computed once for all six."""
    nx, ny, u, v = _unit_rows(spec, xs, ys, asked)
    n_sum = _norm_rows(spec, xs + ys)
    n_diff = _norm_rows(spec, xs - ys)
    n_usum = _norm_rows(spec, u + v)
    alpha = _norm_rows(spec, u - v)
    lo = np.minimum(nx, ny)
    hi = np.maximum(nx, ny)
    gap = np.abs(nx - ny)
    return (
        (n_sum, nx + ny - (2.0 - n_usum) * lo),  # MALIGRANDA_UPPER
        (nx + ny - (2.0 - n_usum) * hi, n_sum),  # MALIGRANDA_LOWER
        ((n_diff - gap) / lo, alpha),  # ANGULAR_LOWER
        (alpha, (n_diff + gap) / hi),  # ANGULAR_UPPER
        (alpha, 2.0 * n_diff / hi),  # MASSERA_SCHAFFER
        (alpha, 4.0 * n_diff / (nx + ny)),  # DUNKL_WILLIAMS_4
    )


def _batch_lhs_rhs(iq, spec, xs, ys, ts=None, gammas=None, nx=None, ny=None):
    """Formula table over (rows, dim) stacks: returns the lhs and rhs rows.

    The searches, the sampled sweeps and evaluate_inequality (a 1-row
    stack) all land here, and the norm kernel gives a row the same bits
    in any stack, so every reported value replays exactly. The six
    universal inequalities come from one shared table, _universal_lhs_rhs.
    ALPHA_BETA takes ||x|| and ||y|| from nx and ny when the caller
    already computed them. Callers own argument validation; a zero x or y
    row raises ZeroVectorError for the inequalities that normalize by
    ||x|| and ||y||.
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
    if iq is InequalityId.ALPHA_BETA:
        nx, ny, u, v = _unit_rows(spec, xs, ys, iq.value, nx, ny)
        return (
            _norm_rows(spec, u - v),
            _norm_rows(spec, xs / ny[:, None] - ys / nx[:, None]),
        )
    return _universal_lhs_rhs(spec, xs, ys, iq.value)[UNIVERSAL_IDS.index(iq)]


@dataclass(frozen=True)
class BatchResult(_Report):
    report: InequalityReport
    trial_index: int
    min_normalized_slack: float

    def to_dict(self):
        # the report's keys first, then the batch's own
        out = super().to_dict()
        return {**out.pop("report"), **out}


def _batch_block(spec, trials, seed, b):
    """Block b of the universal sweep, scored for all six inequalities: for
    each, in UNIVERSAL_IDS order, its least slack, the trial index and pair
    (copies) that reach it, and its least normalized slack."""
    start, _, xs, ys = _pair_block(spec.dim, trials, seed, _BATCH_STREAM, b)
    # scored in chunks: only the pair stacks and these rows span the block
    slack = np.empty((len(UNIVERSAL_IDS), len(xs)))
    normalized = np.empty_like(slack)
    for sl in _chunks(len(xs), spec.dim):
        for k, (lhs, rhs) in enumerate(_universal_lhs_rhs(spec, xs[sl], ys[sl])):
            slack[k, sl] = rhs - lhs
            normalized[k, sl] = slack[k, sl] / (1.0 + np.abs(lhs) + np.abs(rhs))
    # argmin takes the first minimum, so a tie goes to the earliest trial;
    # copies: a view would keep the block's whole xs and ys stacks alive
    return [
        (float(slack[k, i]), start + int(i), xs[i].copy(), ys[i].copy(), float(least))
        for k, (i, least) in enumerate(zip(np.argmin(slack, axis=1), normalized.min(axis=1)))
    ]


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


# The last sweep is kept: specs are frozen and hash by identity, and two
# racing threads at worst run a sweep twice.
@functools.lru_cache(maxsize=1)
def _sweep(spec, trials, seed, workers):
    """Fold every block of the sweep into each universal inequality's winner:
    (trial index, x, y, least normalized slack), in UNIVERSAL_IDS order."""

    def run(b):
        return _batch_block(spec, trials, seed, b)

    def fold(results):
        # blocks arrive in order, so a strict < keeps the earliest of a tie
        best = [None] * len(UNIVERSAL_IDS)
        min_norm_slack = [math.inf] * len(UNIVERSAL_IDS)
        for block in results:
            for k, res in enumerate(block):
                min_norm_slack[k] = min(min_norm_slack[k], res[-1])
                if best[k] is None or res[0] < best[k][0]:
                    best[k] = res
        return [(index, x, y, m) for (_, index, x, y, _), m in zip(best, min_norm_slack)]

    blocks = _blocks(trials)
    threads = min(workers, len(blocks), _usable_cpus())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return fold(_map_in_order(pool, run, blocks, 2 * threads))
    return fold(map(run, blocks))


def batch_min_slack(iq, spec, trials, seed, workers=1):
    """Sample trials random pairs and return the report with minimal slack
    for one of the six universal inequalities; violation_search searches
    the three conditional ones.

    One sweep scores all six inequalities on each block it draws, and the
    last sweep is kept for the next call with the same spec object, trials,
    seed and workers, so asking for the six ids in turn draws and scores
    each block once. Trials are split into fixed-size blocks, each with its
    own seed-derived stream, so the result is byte-identical for any worker
    count. Ties go to the earliest trial. Each block is folded into a
    running best as it returns. The blocks run on min(workers, blocks,
    usable CPUs) threads, which keep at most twice their number of blocks
    submitted, so memory grows with neither trials nor workers.
    """
    iq = _parse_id(iq)
    if iq not in UNIVERSAL_IDS:
        raise NormGeoError(f"{iq.value} is conditional; violation_search searches it")
    _check_count("workers", workers)
    _check_count("trials", trials)
    _check_count("seed", seed, 0)
    winners = _sweep(spec, trials, seed, workers)
    index, x, y, min_norm_slack = winners[UNIVERSAL_IDS.index(iq)]
    # the replay copies x and y, so no two calls share a witness array
    report = evaluate_inequality(iq, spec, x, y)
    return BatchResult(
        report=report,
        trial_index=index,
        min_normalized_slack=min_norm_slack,
    )
