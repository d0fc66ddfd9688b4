"""The scalar map t -> ||x + t*y|| and its structure.

Everything here treats the norm as a black box: curves on uniform grids,
one-sided difference-quotient derivatives, convexity and symmetry defects,
and the exact quadratic-difference identity that holds for gram norms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DerivativeConvergenceError, NormGeoError
from .norms import (
    NormSpec,
    _check_count,
    _norm_rows,
    _vector_pair,
    norm_eval,
    quadratic_norm,
)

LEFT = "left"
RIGHT = "right"

_DERIVATIVE_AGREE_REL = 1e-7
_DERIVATIVE_STEP_FLOOR = 1e-10
_ORDER_TIE_REL = 1e-12
# Most grid points of one curve: it holds two steps x dim stacks.
_MAX_STEPS = 8192


def _line_norms(spec, x, y, ts):
    """||x + t*y|| for each t of the 1-D array ts. A point or a norm that
    overflows raises NormGeoError naming the first such t, without a
    floating-point warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _norm_rows(spec, x[None, :] + ts[:, None] * y[None, :])
    bad = ~np.isfinite(out)
    if bad.any():
        raise NormGeoError(f"the norm overflows at t={ts[bad][0]:.17g}")
    return out


def n_eval(spec, x, y, t):
    """||x + t*y|| for scalar t."""
    t = float(t)
    if not math.isfinite(t):
        raise NormGeoError(f"t must be finite, got {t}")
    x, y = _vector_pair(spec, x, y)
    return float(_line_norms(spec, x, y, np.array([t]))[0])


@dataclass(frozen=True)
class CurveSample:
    t: float
    value: float


def n_curve(spec, x, y, t_min, t_max, steps):
    """Sample ||x + t*y|| and ||y + t*x|| on a uniform inclusive grid of
    2 to 8192 steps.

    Returns a list of (CurveSample, CurveSample) pairs sharing the same t.
    """
    t_min, t_max = float(t_min), float(t_max)
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or t_min >= t_max:
        raise NormGeoError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    _check_count("steps", steps, 2, _MAX_STEPS)
    x, y = _vector_pair(spec, x, y)
    ts = np.linspace(t_min, t_max, steps)
    n_xy = _line_norms(spec, x, y, ts)
    n_yx = _line_norms(spec, y, x, ts)
    return [
        (CurveSample(float(t), float(a)), CurveSample(float(t), float(b)))
        for t, a, b in zip(ts, n_xy, n_yx)
    ]


def write_curve_csv(rows, fh):
    """Write curve pairs as CSV with header t,n_xy,n_yx (17 significant digits)."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["t", "n_xy", "n_yx"])
    for a, b in rows:
        writer.writerow([f"{a.t:.17g}", f"{a.value:.17g}", f"{b.value:.17g}"])


@dataclass(frozen=True)
class DerivativeEstimate:
    t: float
    side: str
    value: float
    step_sequence_floor: float


def one_sided_derivative(spec, x, y, t, side):
    """One-sided derivative of t -> ||x + t*y|| by halved difference quotients.

    Quotients at steps h_k = 1e-2*(1+|t|)*2^-k are Richardson-extrapolated
    pairwise; the stabilized value is returned once successive extrapolants
    agree to relative 1e-7. Running out of steps (floor 1e-10) raises

    DerivativeConvergenceError rather than returning a bad number.
    """
    if side not in (LEFT, RIGHT):
        raise NormGeoError(f"side must be {LEFT!r} or {RIGHT!r}, got {side!r}")
    t = float(t)
    x, y = _vector_pair(spec, x, y)
    sgn = 1.0 if side == RIGHT else -1.0
    f0 = n_eval(spec, x, y, t)
    h = 1e-2 * (1.0 + abs(t))
    prev_q = None
    prev_r = None
    while True:
        q = (n_eval(spec, x, y, t + sgn * h) - f0) / (sgn * h)
        if prev_q is not None:
            r = 2.0 * q - prev_q
            agree = _DERIVATIVE_AGREE_REL * (1.0 + abs(r))
            if prev_r is not None and abs(r - prev_r) < agree:
                return DerivativeEstimate(
                    t=t, side=side, value=r, step_sequence_floor=h
                )
            prev_r = r
        prev_q = q
        if h <= _DERIVATIVE_STEP_FLOOR:
            raise DerivativeConvergenceError(
                f"difference quotients did not stabilize above step {h:.3e} "
                f"at t={t} ({side})"
            )
        h *= 0.5


def convexity_defect(spec, x, y, t_grid):
    """Worst midpoint convexity defect n(m) - (n(a)+n(b))/2 along the grid.

    For each consecutive triple the outer points (a, b) are paired with their
    exact midpoint m. Nonpositive up to rounding for every norm.
    """
    g = np.asarray(t_grid, dtype=float)
    if g.ndim != 1 or g.size < 3:
        raise NormGeoError(f"grid must hold at least 3 points, got {g.size}")
    if not np.all(np.isfinite(g)) or not np.all(np.diff(g) > 0.0):
        raise NormGeoError("grid must be finite and strictly increasing")
    x, y = _vector_pair(spec, x, y)
    a = g[:-2]
    b = g[2:]
    mid = 0.5 * (a + b)
    vals_ab = _line_norms(spec, x, y, g)
    vals_mid = _line_norms(spec, x, y, mid)
    defects = vals_mid - 0.5 * (vals_ab[:-2] + vals_ab[2:])
    return float(defects.max())


def reflection_identity_defect(spec, x, y, t):
    """|n_{x,y}(t) - n_{x,-y}(-t)|, both sides evaluated independently."""
    x, y = _vector_pair(spec, x, y)
    a = n_eval(spec, x, y, t)
    b = n_eval(spec, x, -y, -t)
    return abs(a - b)


def reciprocal_order_agreement(spec, x, y, t):
    """Check ||y+tx|| <= ||x+ty||  iff  ||x+(1/t)y|| <= ||y+(1/t)x||.

    Near-ties (within 1e-12 relative of the largest value involved) are
    treated as equalities and agree with anything; only strictly opposite
    orderings count as disagreement.
    """
    t = float(t)
    if t == 0.0 or not math.isfinite(t):
        raise NormGeoError(f"t must be finite and nonzero, got {t}")
    x, y = _vector_pair(spec, x, y)
    a = n_eval(spec, y, x, t)
    b = n_eval(spec, x, y, t)
    c = n_eval(spec, x, y, 1.0 / t)
    d = n_eval(spec, y, x, 1.0 / t)
    tol = _ORDER_TIE_REL * (1.0 + max(a, b, c, d))

    def rel(u, v):
        if u < v - tol:
            return -1
        if u > v + tol:
            return 1
        return 0

    return rel(a, b) * rel(c, d) >= 0


def quadratic_difference_defect(gram_or_spec, x, y, t):
    """Defect of n_{x,y}(t)^2 - n_{y,x}(t)^2 = (||x||^2 - ||y||^2)(1 - t^2).

    The identity is exact for gram norms; the returned absolute defect is
    rounding-level relative to ||x||^2 + ||y||^2.
    """
    if isinstance(gram_or_spec, NormSpec):
        spec = gram_or_spec
        if spec.kind != "quadratic":
            raise NormGeoError("quadratic_difference_defect needs a gram norm")
    else:
        spec = quadratic_norm(gram_or_spec)
    t = float(t)
    x, y = _vector_pair(spec, x, y)
    nxy = n_eval(spec, x, y, t)
    nyx = n_eval(spec, y, x, t)
    nx = norm_eval(spec, x)
    ny = norm_eval(spec, y)
    lhs = nxy * nxy - nyx * nyx
    rhs = (nx * nx - ny * ny) * (1.0 - t * t)
    return abs(lhs - rhs)
