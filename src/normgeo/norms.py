"""Norm families on R^n: evaluation, validation, and pair sampling.

Three kinds are supported: LP (p >= 1, p = +inf means the max norm),
WEIGHTED_LP (positive weights), and QUADRATIC (sqrt(x' G x) for an SPD
gram matrix G, certified by a triangular factorization).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    GramValidationError,
    NormGeoError,
    NormSpecError,
)

LP = "lp"
WEIGHTED_LP = "weighted_lp"
QUADRATIC = "quadratic"

DEFAULT_RADIUS_RANGE = (0.5, 4.0)

_AXIOM_STREAM = 0
_AXIOM_TOL = 1e-9
_GRAM_SYMMETRY_REL = 1e-12
_BLOCK = 1 << 14
# Largest accepted dim: an 8192-row stack of such vectors is 64 MiB.
_MAX_DIM = 1024


def _float_array(value, what, error=NormSpecError):
    """np.asarray(value, dtype=float), with ragged, non-numeric or
    out-of-range input reported as `error` instead of a raw numpy error."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be a rectangular array of numbers ({exc})") from exc


def _freeze(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Validated description of one norm. Construction rejects bad input."""

    kind: str
    dim: int
    p: float | None = None
    weights: np.ndarray | None = None
    gram: np.ndarray | None = None
    chol: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise NormSpecError(f"dim must be a positive integer, got {self.dim!r}")
        if self.dim > _MAX_DIM:
            raise NormSpecError(f"dim must be at most {_MAX_DIM}, got {self.dim}")
        if self.kind in (LP, WEIGHTED_LP):
            p = self.p
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise NormSpecError(f"p must be a number or inf, got {p!r}")
            p = float(p)
            if math.isnan(p) or p < 1.0:
                raise NormSpecError(f"p must satisfy p >= 1, got {p}")
            object.__setattr__(self, "p", p)
        if self.kind == LP:
            if self.weights is not None or self.gram is not None:
                raise NormSpecError("lp norm takes no weights or gram")
        elif self.kind == WEIGHTED_LP:
            if self.gram is not None:
                raise NormSpecError("weighted_lp norm takes no gram")
            w = _float_array(self.weights, "weights")
            if w.ndim != 1 or w.size != self.dim:
                raise NormSpecError("weights must be a flat list of length dim")
            if not np.all(np.isfinite(w)) or not np.all(w > 0.0):
                raise NormSpecError("weights must be finite and strictly positive")
            object.__setattr__(self, "weights", _freeze(w))
        elif self.kind == QUADRATIC:
            if self.p is not None or self.weights is not None:
                raise NormSpecError("quadratic norm takes only a gram matrix")
            g = _float_array(self.gram, "gram")
            if g.shape != (self.dim, self.dim):
                raise NormSpecError(
                    f"gram must be {self.dim}x{self.dim}, got shape {g.shape}"
                )
            chol = gram_validate(g)
            object.__setattr__(self, "gram", _freeze(g))
            object.__setattr__(self, "chol", _freeze(chol))
        else:
            raise NormSpecError(f"unknown norm kind {self.kind!r}")


def lp_norm(p, dim):
    """LP norm spec; p may be math.inf for the max norm."""
    return NormSpec(kind=LP, dim=dim, p=p)


def weighted_lp_norm(p, weights):
    w = _float_array(weights, "weights")
    return NormSpec(kind=WEIGHTED_LP, dim=int(w.size), p=p, weights=w)


def quadratic_norm(gram):
    g = _float_array(gram, "gram")
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NormSpecError(f"gram must be square, got shape {g.shape}")
    return NormSpec(kind=QUADRATIC, dim=int(g.shape[0]), gram=g)


def gram_validate(gram):
    """Certify that a matrix is SPD; return the lower-triangular factor.

    Elimination proceeds pivot by pivot so a failure can report exactly
    which pivot went nonpositive (e.g. [[1,2],[2,1]] fails at index 1
    with pivot -3). Symmetry is required up to a relative 1e-12.
    """
    a = _float_array(gram, "gram", GramValidationError)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GramValidationError(f"gram must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GramValidationError("gram has nonfinite entries")
    scale = float(np.abs(a).max()) if a.size else 0.0
    asym = float(np.abs(a - a.T).max())
    if asym > _GRAM_SYMMETRY_REL * max(scale, 1e-300):
        raise GramValidationError(
            f"gram is not symmetric: max |G - G'| = {asym:.3e} "
            f"exceeds {_GRAM_SYMMETRY_REL:.1e} * {scale:.3e}"
        )
    n = a.shape[0]
    work = a.copy()
    factor = np.zeros_like(work)
    for k in range(n):
        pivot = work[k, k]
        if not pivot > 0.0:
            raise GramValidationError(
                f"gram is not positive definite: pivot {pivot:.6g} at index {k}",
                pivot_index=k,
                pivot=float(pivot),
            )
        d = math.sqrt(pivot)
        factor[k, k] = d
        if k + 1 < n:
            col = work[k + 1 :, k] / d
            factor[k + 1 :, k] = col
            work[k + 1 :, k + 1 :] -= np.outer(col, col)
    return factor


def norm_eval(spec, x):
    """Evaluate the norm. Accepts a vector or an (..., dim) stack of vectors.

    Returns a float for a single vector, an array of norms otherwise.
    The zero vector maps to exactly 0.0.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0 or v.shape[-1] != spec.dim:
        raise DimensionMismatchError(
            f"expected vectors of length {spec.dim}, got shape {v.shape}"
        )
    out = _norm_rows(spec, v)
    return float(out) if v.ndim == 1 else out


def _norm_rows(spec, v):
    """Norms of an (..., dim) stack; a 1-D vector gives a 0-d array.

    Every row gets the same bits whatever the height of the stack it sits
    in, so a lone vector, a search tick and a sampled block agree exactly.
    Two details keep it so: the stack is flattened to 2-D first, so a
    vector goes through the same array loops as any other row (a 1-D
    general-p norm would end in a 0-d power that takes a different pow);
    and a lone gram row is evaluated as a 2-row stack, because BLAS
    rounds a 1-row product (gemv) differently from a taller one (gemm).
    """
    shape = v.shape[:-1]
    v = v.reshape(-1, v.shape[-1])
    if spec.kind == QUADRATIC:
        if v.shape[0] == 1:
            z = (np.concatenate([v, v]) @ spec.chol)[:1]
        else:
            z = v @ spec.chol
        return np.sqrt((z * z).sum(axis=-1)).reshape(shape)
    return _lp_rows(spec, v).reshape(shape)


def _lp_rows(spec, v):
    a = np.abs(v)
    w = spec.weights
    p = spec.p
    if p == math.inf:
        # Weighted sup norm: the weights stay meaningful at p = inf.
        return (a if w is None else w * a).max(axis=-1)
    if p == 1.0:
        return (a if w is None else w * a).sum(axis=-1)
    if p == 2.0:
        sq = a * a
        return np.sqrt((sq if w is None else w * sq).sum(axis=-1))
    # General p: rescale by the largest coordinate before exponentiation so
    # large p cannot overflow; an all-zero row stays exactly 0.
    m = a.max(axis=-1, keepdims=True)
    safe = np.where(m > 0.0, m, 1.0)
    r = (a / safe) ** p
    s = (r if w is None else w * r).sum(axis=-1) ** (1.0 / p)
    return m[..., 0] * s


def _vector_pair(spec, x, y):
    """x and y as float vectors of length spec.dim with finite entries; the
    check every library entry point that takes a pair x, y makes."""
    pair = []
    for v in (x, y):
        v = _float_array(v, "x and y", NormGeoError)
        if v.shape != (spec.dim,):
            raise DimensionMismatchError(
                f"expected vectors of length {spec.dim}, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise NormGeoError("x and y must have finite entries (no NaN or inf)")
        pair.append(v)
    return pair


def stream(seed, *key):
    """Deterministic child generator for (seed, key...). Worker-count free."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def sample_points(dim, rng, count, radius_range=DEFAULT_RADIUS_RANGE):
    """Isotropic directions with log-uniform Euclidean magnitudes.

    Directions come from normalized standard normals; magnitudes are
    log-uniform in [r_lo, r_hi]. Never returns a zero vector.
    """
    r_lo, r_hi = float(radius_range[0]), float(radius_range[1])
    if not (0.0 < r_lo <= r_hi) or not math.isfinite(r_hi):
        raise NormSpecError(f"bad radius range {radius_range!r}")
    dirs = rng.standard_normal((count, dim))
    norms = np.sqrt((dirs * dirs).sum(axis=1))
    while True:
        bad = norms < 1e-12
        if not bad.any():
            break
        dirs[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms[bad] = np.sqrt((dirs[bad] * dirs[bad]).sum(axis=1))
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), count))
    return dirs * (radii / norms)[:, None]


def sample_pair(dim, rng, radius_range=DEFAULT_RADIUS_RANGE):
    pts = sample_points(dim, rng, 2, radius_range)
    return pts[0], pts[1]


@dataclass(frozen=True)
class AxiomReport:
    trials: int
    worst_homogeneity_defect: float
    worst_triangle_slack: float
    worst_positivity: float
    passed: bool
    seed: int

    def to_dict(self):
        return {
            "trials": self.trials,
            "worst_homogeneity_defect": self.worst_homogeneity_defect,
            "worst_triangle_slack": self.worst_triangle_slack,
            "worst_positivity": self.worst_positivity,
            "passed": self.passed,
            "seed": self.seed,
        }


def validate_norm_axioms(spec, trials, seed, tol=None):
    """Sampled smoke test of the norm axioms.

    Records the worst relative homogeneity defect |n(lx)-|l|n(x)|, the worst
    relative triangle slack n(x)+n(y)-n(x+y), and the smallest norm seen over
    nonzero samples; both defects must stay within tol (default 1e-9),
    which must be finite and >= 0. Deterministic for a fixed seed.
    """
    if trials < 1:
        raise NormSpecError("trials must be >= 1")
    tol = _AXIOM_TOL if tol is None else float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise NormGeoError(f"tol must be finite and >= 0, got {tol}")
    worst_h = 0.0
    worst_t = math.inf
    worst_p = math.inf
    done = 0
    block = 0
    while done < trials:
        n_b = min(_BLOCK, trials - done)
        rng = stream(seed, _AXIOM_STREAM, block)
        xs = sample_points(spec.dim, rng, n_b)
        ys = sample_points(spec.dim, rng, n_b)
        lam = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), n_b))
        lam *= np.where(rng.random(n_b) < 0.5, -1.0, 1.0)
        nx = _norm_rows(spec, xs)
        ny = _norm_rows(spec, ys)
        nlx = _norm_rows(spec, lam[:, None] * xs)
        hom = np.abs(nlx - np.abs(lam) * nx) / (1.0 + np.abs(lam) * nx)
        tri = (nx + ny - _norm_rows(spec, xs + ys)) / (1.0 + nx + ny)
        worst_h = max(worst_h, float(hom.max()))
        worst_t = min(worst_t, float(tri.min()))
        worst_p = min(worst_p, float(nx.min()), float(ny.min()))
        done += n_b
        block += 1
    passed = worst_t >= -tol and worst_h <= tol and worst_p >= 0.0
    return AxiomReport(
        trials=trials,
        worst_homogeneity_defect=worst_h,
        worst_triangle_slack=worst_t,
        worst_positivity=worst_p,
        passed=passed,
        seed=seed,
    )


_KEYS = {
    LP: {"kind", "p", "dim"},
    WEIGHTED_LP: {"kind", "p", "weights", "dim"},
    QUADRATIC: {"kind", "gram", "dim"},
}


def _parse_p(raw):
    if isinstance(raw, str):
        if raw.strip().lower() == "inf":
            return math.inf
        raise NormSpecError(f'p must be a number or "inf", got {raw!r}')
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise NormSpecError(f'p must be a number or "inf", got {raw!r}')
    try:
        return float(raw)
    except OverflowError as exc:
        raise NormSpecError(f"p is too large for a float ({exc})") from exc


def parse_norm_spec(obj):
    """Build a NormSpec from a parsed JSON object; unknown keys are rejected."""
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise NormSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise NormSpecError("norm spec must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KEYS:
        raise NormSpecError(f"unknown norm kind {kind!r}")
    extra = set(obj) - _KEYS[kind]
    missing = _KEYS[kind] - set(obj)
    if extra:
        raise NormSpecError(f"unknown keys for kind {kind!r}: {sorted(extra)}")
    if missing:
        raise NormSpecError(f"missing keys for kind {kind!r}: {sorted(missing)}")
    p = _parse_p(obj["p"]) if "p" in obj else None
    return NormSpec(kind, obj["dim"], p, obj.get("weights"), obj.get("gram"))


def load_norm_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_norm_spec(fh.read())


def spec_to_dict(spec):
    """JSON-ready echo of a spec (p = inf serializes as the string "inf")."""
    if spec.kind == LP:
        p = "inf" if spec.p == math.inf else spec.p
        return {"kind": LP, "p": p, "dim": spec.dim}
    if spec.kind == WEIGHTED_LP:
        p = "inf" if spec.p == math.inf else spec.p
        return {
            "kind": WEIGHTED_LP,
            "p": p,
            "weights": [float(w) for w in spec.weights],
            "dim": spec.dim,
        }
    return {
        "kind": QUADRATIC,
        "gram": [[float(g) for g in row] for row in spec.gram],
        "dim": spec.dim,
    }
