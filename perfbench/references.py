"""Quality references, computed here from closed forms and plain norm_eval
arithmetic so that no search code takes part in its own reference."""

from __future__ import annotations

import math

import numpy as np


def parallelogram_optimum(spec):
    """Largest relative parallelogram defect 2*(C_NJ - 1) of an l_p norm.

    C_NJ = 2^(2/min(p, p') - 1) is the von Neumann-Jordan constant of l_p
    in any dimension >= 2 (Clarkson 1937; Kato, Maligranda and Takahashi,
    Studia Math. 144, 2001). A weighted l_p norm is isometric to l_p, so it
    has the same constant. Returns None for gram norms and for p = 2, whose
    optimum 0 makes a relative gap meaningless.
    """
    if spec.kind not in ("lp", "weighted_lp") or spec.dim < 2 or spec.p == 2.0:
        return None
    p = spec.p
    if p == math.inf or p == 1.0:
        r = 1.0
    else:
        r = min(p, p / (p - 1.0))
    return 2.0 * (2.0 ** (2.0 / r - 1.0) - 1.0)


def dunkl_williams_constant(spec):
    """Best c in alpha <= c*||x-y||/(||x||+||y||) where it is known in closed
    form: 2 for inner-product norms, 4 for l_1 and l_inf (weighted or not) in
    dim >= 2. None otherwise."""
    if spec.kind == "quadratic" or (spec.kind == "lp" and spec.p == 2.0):
        return 2.0
    if spec.kind in ("lp", "weighted_lp") and spec.p in (1.0, math.inf) and spec.dim >= 2:
        return 4.0
    return None


# Violations of these objectives are homogeneous of degree 1 in (x, y);
# ALPHA_BETA compares unit vectors and is already scale-free.
DEGREE_ONE = ("N_ORDERING", "LORCH")


def scale_free(objective, violation, norm_x, norm_y):
    """A violation per unit of witness scale: degree-1 objectives are divided
    by max(||x||, ||y||), so that a search that walks outward scores no
    better than one that finds the same direction nearer the origin."""
    if objective in DEGREE_ONE:
        return violation / np.maximum(norm_x, norm_y)
    return violation


def grid_oracle(ng, spec):
    """Exhaustive largest scale-free violation (see scale_free) of each
    conditional inequality on a dim-2 norm: x and y range over the
    [-4, 4]^2 grid of step 0.5, t over 21 points of [0, 1] and gamma over
    49 dyadic-log points of [1/8, 8].

    Only norm_eval is called, on stacks of rows; the slack formulas are
    written out here.
    """
    if spec.dim != 2:
        raise ValueError("the grid oracle covers dim-2 norms only")
    axis = np.arange(-4.0, 4.25, 0.5)
    pts = np.array([[a, b] for a in axis for b in axis])
    n = ng.norm_eval(spec, pts)
    pts, n = pts[n > 0.0], n[n > 0.0]
    xi, yi = (i.ravel() for i in np.meshgrid(np.arange(len(pts)), np.arange(len(pts)), indexing="ij"))
    xs, ys, nx, ny = pts[xi], pts[yi], n[xi], n[yi]
    out = {}
    swap = (nx > ny)[:, None]
    a = np.where(swap, ys, xs)
    b = np.where(swap, xs, ys)
    out["N_ORDERING"] = max(
        float(scale_free("N_ORDERING", ng.norm_eval(spec, a + t * b) - ng.norm_eval(spec, b + t * a),
                         nx, ny).max())
        for t in np.linspace(0.0, 1.0, 21)
    )
    alpha = ng.norm_eval(spec, xs / nx[:, None] - ys / ny[:, None])
    beta = ng.norm_eval(spec, xs / ny[:, None] - ys / nx[:, None])
    out["ALPHA_BETA"] = float((alpha - beta).max())
    yr = ys * (nx / ny)[:, None]
    lhs = ng.norm_eval(spec, xs + yr)
    out["LORCH"] = max(
        float(scale_free("LORCH", lhs - ng.norm_eval(spec, g * xs + (1.0 / g) * yr), nx, nx).max())
        for g in 2.0 ** np.linspace(-3.0, 3.0, 49)
    )
    return out
