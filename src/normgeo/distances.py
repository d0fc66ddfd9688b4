"""Angular-type distances between nonzero vectors."""

from __future__ import annotations

from dataclasses import dataclass

from .inequalities import InequalityId, _batch_lhs_rhs
from .norms import _vector_pair, norm_eval


@dataclass(frozen=True)
class DistancePair:
    alpha: float
    beta: float
    norm_x: float
    norm_y: float


def distance_pair(spec, x, y):
    """Both distances plus the two norms in one record.

    alpha and beta are the two sides of the ALPHA_BETA row of the
    inequality table, so they carry the same bits as a search or a replay
    of that inequality. Values are raw: alpha may overshoot 2 by rounding
    and is never clamped here.
    """
    x, y = _vector_pair(spec, x, y)
    alpha, beta = _batch_lhs_rhs(InequalityId.ALPHA_BETA, spec, x[None, :], y[None, :])
    return DistancePair(
        alpha=float(alpha[0]),
        beta=float(beta[0]),
        norm_x=norm_eval(spec, x),
        norm_y=norm_eval(spec, y),
    )


def angular_distance(spec, x, y):
    """|| x/||x|| - y/||y|| ||, the gap between the normalized directions."""
    return distance_pair(spec, x, y).alpha


def skew_angular_distance(spec, x, y):
    """|| x/||y|| - y/||x|| ||, each vector scaled by the other's norm."""
    return distance_pair(spec, x, y).beta
