"""Norm families on R^n: evaluation, validation, and pair sampling.

Three kinds are supported: LP (p >= 1, p = +inf means the max norm),
WEIGHTED_LP (positive weights), and QUADRATIC (sqrt(x' G x) for an SPD
gram matrix G, certified by a triangular factorization).
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass, field, fields

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
# Each kind's keys, in the order spec_to_dict echoes them.
_KEYS = {
    LP: ("kind", "p", "dim"),
    WEIGHTED_LP: ("kind", "p", "weights", "dim"),
    QUADRATIC: ("kind", "gram", "dim"),
}

# Euclidean magnitudes of sampled points. Every quantity the package scores
# is positively homogeneous in (x, y), so the scale carries no information.
_RADIUS_RANGE = (0.5, 4.0)

_AXIOM_TOL = 1e-9
_GRAM_SYMMETRY_REL = 1e-12
# Rows of one sampled block: the axiom check, the sweep and the side checks
# draw and score their pairs this many at a time.
_BLOCK = 1 << 13
# Doubles in one chunk: a block is scored _CHUNK_CELLS // dim rows at a time,
# so each temporary stays near 512 KiB and a block holds little beyond its
# pair stacks. Every value is computed row by row, so chunking moves no bit.
_CHUNK_CELLS = 1 << 16
# A sum of squares at or above _SUMSQ_LO (times the largest weight, if that
# is above 1) loses nothing that matters to subnormal squares, even over
# _MAX_DIM coordinates; the p=2, weighted p=2 and gram kernels rescale only
# the rows below it and the rows that overflow.
_SUMSQ_LO = 2.0**-900
# Largest accepted dim: a _BLOCK-row stack of such vectors is 64 MiB, and a
# block peaks near two such stacks.
_MAX_DIM = 1024


def _float_array(value, what, error=NormSpecError):
    """value as a float ndarray, the gate for every array or number from outside:
    a bool, string or None anywhere in it (which np.asarray reads as 1.0, 3.0
    or nan), or a ragged, non-numeric or too large value raises `error`."""
    pending = [value]
    while pending:
        v = pending.pop()
        if isinstance(v, (list, tuple)):
            pending.extend(v)
        elif isinstance(v, (np.ndarray, np.generic)):
            if v.dtype.kind not in "iuf":
                raise error(f"{what} must hold numbers only, got dtype {v.dtype}")
        elif v is None or isinstance(v, (bool, str, bytes)):
            raise error(f"{what} must hold numbers only, got {v!r}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise error(f"{what} is too large for a float ({exc})") from exc
    except (TypeError, ValueError) as exc:
        raise error(f"{what} must be a rectangular array of numbers ({exc})") from exc


def _real(value, what, error=NormGeoError):
    """One real number as a Python float, through _float_array; anything else raises `error`."""
    v = _float_array(value, what, error)
    if v.ndim:
        raise error(f"{what} must be a single number, got shape {v.shape}")
    return float(v)


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
    # not a field: the p=2 kernels' lower bound on a row's sum of squares
    _sumsq_lo = _SUMSQ_LO

    def __post_init__(self):
        keys = _KEYS.get(self.kind) if isinstance(self.kind, str) else None
        if keys is None:
            raise NormSpecError(f"unknown norm kind {self.kind!r}")
        dim = _check_count("dim", self.dim, highest=_MAX_DIM, error=NormSpecError)
        object.__setattr__(self, "dim", dim)
        for key in ("p", "weights", "gram"):
            if key not in keys and getattr(self, key) is not None:
                raise NormSpecError(f"{self.kind} norm takes no {key}")
        if "p" in keys:
            p = _real(self.p, "p", NormSpecError)
            if math.isnan(p) or p < 1.0:
                raise NormSpecError(f"p must satisfy p >= 1, got {p}")
            object.__setattr__(self, "p", p)
        if self.kind == WEIGHTED_LP:
            w = _float_array(self.weights, "weights")
            if w.ndim != 1 or w.size != self.dim:
                raise NormSpecError("weights must be a flat list of length dim")
            if not np.all(np.isfinite(w)) or not np.all(w > 0.0):
                raise NormSpecError("weights must be finite and strictly positive")
            object.__setattr__(self, "weights", _freeze(w))
            object.__setattr__(self, "_sumsq_lo", _SUMSQ_LO * max(1.0, float(w.max())))
        elif self.kind == QUADRATIC:
            g = _float_array(self.gram, "gram")
            if g.shape != (self.dim, self.dim):
                raise NormSpecError(
                    f"gram must be {self.dim}x{self.dim}, got shape {g.shape}"
                )
            chol = gram_validate(g)
            object.__setattr__(self, "gram", _freeze(g))
            object.__setattr__(self, "chol", _freeze(chol))


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
    v = _float_array(x, "x", NormGeoError)
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
    if spec.kind == QUADRATIC or spec.p == 2.0:
        return _sumsq_rows(spec, v).reshape(shape)
    return _lp_rows(spec, v).reshape(shape)


def _gram_map(chol, v):
    """v @ chol for a 2-D stack; a lone row goes through as a 2-row stack."""
    if v.shape[0] == 1:
        return (np.concatenate([v, v]) @ chol)[:1]
    return v @ chol


def _sumsq(spec, v):
    z = _gram_map(spec.chol, v) if spec.kind == QUADRATIC else v
    sq = z * z
    return (sq if spec.weights is None else spec.weights * sq).sum(axis=-1)


def _sumsq_rows(spec, v):
    """Norms of a 2-D stack under p=2, weighted p=2 or a gram matrix: the
    square root of a (weighted) sum of squares. Rows whose sum overflows or
    falls below spec._sumsq_lo are recomputed from x / max|x_i| (the mapped
    vector rescaled once more by its own largest entry), so huge and tiny
    vectors get finite, nonzero norms; every other row keeps its bits."""
    lo = spec._sumsq_lo
    try:
        with np.errstate(over="raise"):
            s = _sumsq(spec, v)
        if not s.size or np.minimum.reduce(s) >= lo:
            return np.sqrt(s)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            s = _sumsq(spec, v)
    out = np.sqrt(s)
    m = np.abs(v).max(axis=-1)
    bad = ~((s >= lo) & (s < math.inf)) & (m > 0.0) & (m < math.inf)
    if bad.any():
        u = v[bad] / m[bad, None]
        w = spec.weights
        if spec.kind == QUADRATIC:
            u = _gram_map(spec.chol, u)
        elif w is not None:
            u = u * np.sqrt(w)
        mu = np.abs(u).max(axis=-1)
        u /= mu[:, None]
        with np.errstate(over="ignore"):
            out[bad] = m[bad] * (mu * np.sqrt((u * u).sum(axis=-1)))
    return out


def _lp_rows(spec, v):
    a = np.abs(v)
    w = spec.weights
    p = spec.p
    if p == math.inf:
        # Weighted sup norm: the weights stay meaningful at p = inf.
        return (a if w is None else w * a).max(axis=-1)
    if p == 1.0:
        return (a if w is None else w * a).sum(axis=-1)
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


def _chunks(count, dim):
    """Slices that cover range(count) in runs of _CHUNK_CELLS // dim rows
    (at least one row each); at dim <= 8 a whole block is one run."""
    step = max(1, _CHUNK_CELLS // dim)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _check_count(name, value, lowest=1, highest=None, error=NormGeoError):
    """Require an integer (not a bool) in [lowest, highest] and return it
    as a Python int; raise `error` otherwise. The check every library
    count and seed goes through, so a numpy integer reaches no report."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < lowest
        or (highest is not None and value > highest)
    ):
        bound = f">= {lowest}" + ("" if highest is None else f" and at most {highest}")
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


class _Report:
    """Base of the report dataclasses: to_dict() gives every field, in
    declaration order, made JSON-ready by _plain."""

    def to_dict(self):
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    """A report as its to_dict(), an enum as its value, an array as a list
    of Python floats, a dict with its keys and values converted alike;
    anything else as it is."""
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    return value


# One sample-stream tag per consumer, so none moves another's bits; the next takes 5.
_AXIOM_STREAM = 0
_BATCH_STREAM = 1
_SEARCH_STREAM = 2
_DW_STREAM = 3
_PG_STREAM = 4


def stream(seed, *key):
    """Deterministic child generator for (seed, key...). Worker-count free."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def sample_points(dim, rng, count):
    """Isotropic directions with log-uniform Euclidean magnitudes.

    Directions come from normalized standard normals; magnitudes are
    log-uniform in [0.5, 4]. Never returns a zero vector.
    """
    r_lo, r_hi = _RADIUS_RANGE
    dirs = rng.standard_normal((count, dim))
    norms = np.empty(count)
    for sl in _chunks(count, dim):
        d = dirs[sl]
        norms[sl] = np.sqrt((d * d).sum(axis=1))
    while True:
        bad = norms < 1e-12
        if not bad.any():
            break
        dirs[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms[bad] = np.sqrt((dirs[bad] * dirs[bad]).sum(axis=1))
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), count))
    dirs *= (radii / norms)[:, None]
    return dirs


def sample_pair(dim, rng):
    pts = sample_points(dim, rng, 2)
    return pts[0], pts[1]


def _blocks(total):
    """The indices of the _BLOCK-row blocks that hold `total` sampled pairs."""
    return range(-(-total // _BLOCK))


def _pair_block(dim, total, seed, tag, b):
    """Block b of `total` pairs sampled on stream `tag`: (start, rng, xs, ys).
    It holds pairs start = b * _BLOCK up to min(start + _BLOCK, total), drawn
    from the (seed, tag, b) stream, xs first; the caller may draw more from rng.
    """
    start = b * _BLOCK
    count = min(_BLOCK, total - start)
    rng = stream(seed, tag, b)
    xs = sample_points(dim, rng, count)
    ys = sample_points(dim, rng, count)
    return start, rng, xs, ys


@dataclass(frozen=True)
class AxiomReport(_Report):
    worst_homogeneity_defect: float
    worst_triangle_slack: float
    worst_positivity: float
    passed: bool


def validate_norm_axioms(spec, trials, seed, tol=None):
    """Sampled smoke test of the norm axioms.

    Records the worst relative homogeneity defect |n(lx)-|l|n(x)|, the worst
    relative triangle slack n(x)+n(y)-n(x+y), and the smallest norm seen over
    nonzero samples; both defects must stay within tol (default 1e-9),
    which must be finite and >= 0. Deterministic for a fixed seed.
    """
    trials = _check_count("trials", trials, error=NormSpecError)
    seed = _check_count("seed", seed, 0)
    tol = _AXIOM_TOL if tol is None else _real(tol, "tol")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise NormGeoError(f"tol must be finite and >= 0, got {tol}")
    worst_h = 0.0
    worst_t = math.inf
    worst_p = math.inf
    for b in _blocks(trials):
        _, rng, xs, ys = _pair_block(spec.dim, trials, seed, _AXIOM_STREAM, b)
        n_b = len(xs)
        lam = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), n_b))
        lam *= np.where(rng.random(n_b) < 0.5, -1.0, 1.0)
        nx, ny, hom, tri = (np.empty(n_b) for _ in range(4))
        for sl in _chunks(n_b, spec.dim):
            x, y, a = xs[sl], ys[sl], np.abs(lam[sl])
            cx, cy = _norm_rows(spec, x), _norm_rows(spec, y)
            nlx = _norm_rows(spec, lam[sl, None] * x)
            nx[sl], ny[sl] = cx, cy
            hom[sl] = np.abs(nlx - a * cx) / (1.0 + a * cx)
            tri[sl] = (cx + cy - _norm_rows(spec, x + y)) / (1.0 + cx + cy)
        worst_h = max(worst_h, float(hom.max()))
        worst_t = min(worst_t, float(tri.min()))
        worst_p = min(worst_p, float(nx.min()), float(ny.min()))
    passed = worst_t >= -tol and worst_h <= tol and worst_p >= 0.0
    return AxiomReport(
        worst_homogeneity_defect=worst_h,
        worst_triangle_slack=worst_t,
        worst_positivity=worst_p,
        passed=passed,
    )


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
    keys = set(_KEYS[kind])
    extra = set(obj) - keys
    missing = keys - set(obj)
    if extra:
        raise NormSpecError(f"unknown keys for kind {kind!r}: {sorted(extra)}")
    if missing:
        raise NormSpecError(f"missing keys for kind {kind!r}: {sorted(missing)}")
    p = obj.get("p")
    if isinstance(p, str) and p.strip().lower() == "inf":  # NormSpec checks any other p
        p = math.inf
    return NormSpec(kind, obj["dim"], p, obj.get("weights"), obj.get("gram"))


def load_norm_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise NormSpecError(f"{path} is not UTF-8 text ({exc})") from exc
    return parse_norm_spec(text)


def spec_to_dict(spec):
    """JSON-ready echo of a spec, its kind's _KEYS in order: p = inf as the
    string "inf", weights and gram as (nested) lists of floats."""

    def echo(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        return "inf" if value == math.inf else value

    return {key: echo(getattr(spec, key)) for key in _KEYS[spec.kind]}
