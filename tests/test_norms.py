import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import normgeo as ng
from normgeo.norms import sample_points, stream
from support import random_spd


@pytest.mark.parametrize(
    "p,vec,expected",
    [
        (1, [0.0, 2.0], 2.0),
        (1, [2.0, -1.0], 3.0),
        (2, [3.0, 4.0], 5.0),
        (3, [1.0, -1.0], 2.0 ** (1.0 / 3.0)),
        (math.inf, [3.0, -7.0, 2.0], 7.0),
    ],
)
def test_lp_examples(p, vec, expected):
    spec = ng.lp_norm(p, len(vec))
    assert ng.norm_eval(spec, vec) == pytest.approx(expected, rel=1e-15)


def test_zero_vector_maps_to_exact_zero():
    for spec in [
        ng.lp_norm(3.5, 4),
        ng.lp_norm(math.inf, 4),
        ng.weighted_lp_norm(2.5, [1.0, 2.0, 0.5, 4.0]),
        ng.quadratic_norm(random_spd(4, 3)),
    ]:
        assert ng.norm_eval(spec, np.zeros(4)) == 0.0


def test_large_p_does_not_overflow():
    spec = ng.lp_norm(600.0, 2)
    v = [1e12, 1e12]
    # without max-rescaling, (1e12)**600 would overflow to inf
    val = ng.norm_eval(spec, v)
    assert math.isfinite(val)
    assert val == pytest.approx(1e12 * 2.0 ** (1.0 / 600.0), rel=1e-12)


def _exact_norm(gram, x):
    """sqrt(x' G x) in 60-digit decimal arithmetic, rounded to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        xs = [decimal.Decimal(v) for v in x]
        q = sum(
            decimal.Decimal(g) * a * b
            for row, a in zip(gram, xs)
            for g, b in zip(row, xs)
        )
        return float(q.sqrt())


@pytest.mark.parametrize(
    "spec,x",
    [
        (ng.lp_norm(2, 2), [1e200, 0.0]),
        (ng.quadratic_norm([[2.0, 0.5], [0.5, 1.0]]), [1e200, 0.0]),
        (ng.lp_norm(2, 3), [1e-170, 0.0, 0.0]),
        (ng.weighted_lp_norm(2, [4.0, 1.0, 0.5]), [-3e250, 1e-300, 2e249]),
        (ng.weighted_lp_norm(2, [1e300, 1.0]), [1e-160, 0.0]),
        (ng.quadratic_norm([[2.0, 0.5], [0.5, 1.0]]), [3e-200, -1e-199]),
    ],
    ids=["l2-huge", "gram-huge", "l2-tiny", "weighted-huge", "weighted-tiny", "gram-tiny"],
)
def test_sum_of_squares_kernels_neither_overflow_nor_underflow(spec, x):
    gram = np.diag(spec.weights) if spec.weights is not None else spec.gram
    gram = np.eye(spec.dim) if gram is None else gram
    exact = _exact_norm(gram, x)
    val = ng.norm_eval(spec, x)
    assert 0.0 < val < math.inf
    assert abs(val - exact) <= 4 * math.ulp(exact), (val, exact)


@pytest.mark.parametrize("family", ["l2", "weighted", "gram"])
def test_rescaled_rows_leave_the_other_rows_bits_alone(family):
    spec = {
        "l2": ng.lp_norm(2, 3),
        "weighted": ng.weighted_lp_norm(2, [0.5, 2.0, 1.5]),
        "gram": ng.quadratic_norm(random_spd(3, 5)),
    }[family]
    stack = np.random.default_rng(9).standard_normal((6, 3))
    plain = ng.norm_eval(spec, stack)
    mixed = stack.copy()
    mixed[1] *= 2.0**700
    mixed[4] *= 2.0**-700
    got = ng.norm_eval(spec, mixed)
    keep = [0, 2, 3, 5]
    assert np.array_equal(got[keep], plain[keep])
    # scaling by a power of 2 is exact, so only the rescaled path's rounding shows
    assert got[1] == pytest.approx(plain[1] * 2.0**700, rel=1e-15)
    assert got[4] == pytest.approx(plain[4] * 2.0**-700, rel=1e-15)
    assert got[1] == ng.norm_eval(spec, mixed[1]) and got[4] == ng.norm_eval(spec, mixed[4])


def test_weighted_lp_examples():
    spec = ng.weighted_lp_norm(2, [4.0, 1.0])
    assert ng.norm_eval(spec, [1.0, 2.0]) == pytest.approx(math.sqrt(8.0))
    spec_inf = ng.weighted_lp_norm(math.inf, [4.0, 1.0])
    assert ng.norm_eval(spec_inf, [1.0, 2.0]) == pytest.approx(4.0)


def test_quadratic_example():
    spec = ng.quadratic_norm([[2.0, 0.0], [0.0, 1.0]])
    assert ng.norm_eval(spec, [1.0, 0.0]) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_lp2_matches_identity_gram():
    lp2 = ng.lp_norm(2, 3)
    quad = ng.quadratic_norm(np.eye(3))
    rng = stream(5, 0)
    pts = sample_points(3, rng, 200)
    a = ng.norm_eval(lp2, pts)
    b = ng.norm_eval(quad, pts)
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(a, 1.0))


def test_norm_eval_is_pure():
    spec = ng.quadratic_norm(random_spd(3, 11))
    v = np.array([0.3, -1.7, 2.2])
    assert ng.norm_eval(spec, v) == ng.norm_eval(spec, v)


def test_p_below_one_rejected():
    with pytest.raises(ng.NormSpecError):
        ng.lp_norm(0.5, 2)
    with pytest.raises(ng.NormSpecError):
        ng.weighted_lp_norm(0.99, [1.0, 1.0])


def test_p_too_large_for_a_float_is_a_spec_error():
    for make in (
        lambda: ng.lp_norm(10**400, 2),
        lambda: ng.weighted_lp_norm(-(10**400), [1.0, 1.0]),
        lambda: ng.parse_norm_spec('{"kind":"lp","p":1' + "0" * 400 + ',"dim":2}'),
    ):
        with pytest.raises(ng.NormSpecError, match="p is too large for a float"):
            make()


def test_bad_weights_rejected():
    with pytest.raises(ng.NormSpecError):
        ng.weighted_lp_norm(2, [1.0, 0.0])
    with pytest.raises(ng.NormSpecError):
        ng.weighted_lp_norm(2, [1.0, -2.0])
    with pytest.raises(ng.NormSpecError):
        ng.weighted_lp_norm(2, [1.0, math.nan])


def test_dimension_mismatch():
    spec = ng.lp_norm(2, 3)
    with pytest.raises(ng.DimensionMismatchError):
        ng.norm_eval(spec, [1.0, 2.0])


def test_gram_validate_reports_failing_pivot():
    with pytest.raises(ng.GramValidationError) as err:
        ng.gram_validate([[1.0, 2.0], [2.0, 1.0]])
    assert err.value.pivot_index == 1
    assert err.value.pivot == pytest.approx(-3.0)


def test_gram_validate_zero_pivot():
    with pytest.raises(ng.GramValidationError) as err:
        ng.gram_validate([[1.0, 0.0], [0.0, 0.0]])
    assert err.value.pivot_index == 1
    assert err.value.pivot == 0.0


def test_gram_validate_asymmetry():
    with pytest.raises(ng.GramValidationError) as err:
        ng.gram_validate([[1.0, 0.5], [0.2, 1.0]])
    assert err.value.pivot_index is None


def test_gram_certificate_reproduces_norm():
    g = random_spd(4, 21)
    factor = ng.gram_validate(g)
    assert np.allclose(factor @ factor.T, g, atol=1e-12)
    spec = ng.quadratic_norm(g)
    v = np.array([0.3, -0.4, 1.2, 0.9])
    direct = math.sqrt(v @ g @ v)
    assert ng.norm_eval(spec, v) == pytest.approx(direct, rel=1e-12)


def test_quadratic_parallelogram_defect_tiny():
    spec = ng.quadratic_norm(random_spd(3, 7))
    rng = stream(8, 0)
    xs = sample_points(3, rng, 500)
    ys = sample_points(3, rng, 500)
    nx = ng.norm_eval(spec, xs)
    ny = ng.norm_eval(spec, ys)
    s = ng.norm_eval(spec, xs + ys)
    d = ng.norm_eval(spec, xs - ys)
    defect = np.abs(s * s + d * d - 2 * nx * nx - 2 * ny * ny) / (nx * nx + ny * ny)
    assert defect.max() <= 1e-9


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_sampled_axioms_hold(dim):
    for spec in [
        ng.lp_norm(1, dim),
        ng.lp_norm(2.5, dim),
        ng.lp_norm(math.inf, dim),
        ng.weighted_lp_norm(3, np.linspace(0.5, 2.0, dim)),
        ng.quadratic_norm(random_spd(dim, dim)),
    ]:
        report = ng.validate_norm_axioms(spec, trials=2000, seed=3)
        assert report.passed, report
        assert report.worst_homogeneity_defect <= 1e-12
        assert report.worst_triangle_slack >= -1e-12
        assert report.worst_positivity > 0.0


def test_axiom_report_is_deterministic():
    spec = ng.lp_norm(3, 4)
    a = ng.validate_norm_axioms(spec, trials=500, seed=9)
    b = ng.validate_norm_axioms(spec, trials=500, seed=9)
    assert a == b


def test_axiom_check_rejects_bad_counts_and_seeds():
    spec = ng.lp_norm(3, 2)
    for trials in (0, 2.5, True):
        with pytest.raises(ng.NormSpecError, match="trials"):
            ng.validate_norm_axioms(spec, trials=trials, seed=1)
    for seed in (-1, 1.5):
        with pytest.raises(ng.NormGeoError, match="seed"):
            ng.validate_norm_axioms(spec, trials=10, seed=seed)


def test_sample_pair_deterministic_and_in_range():
    x1, y1 = ng.sample_pair(2, stream(17, 0))
    x2, y2 = ng.sample_pair(2, stream(17, 0))
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    rng = stream(18, 0)
    pts = sample_points(3, rng, 5000)
    mags = np.sqrt((pts * pts).sum(axis=1))
    assert mags.min() >= 0.5 and mags.max() <= 4.0


def test_sample_points_isotropic():
    rng = stream(19, 0)
    pts = sample_points(3, rng, 10**4)
    dirs = pts / np.sqrt((pts * pts).sum(axis=1))[:, None]
    assert np.linalg.norm(dirs.mean(axis=0)) < 0.05


def test_parse_norm_spec_round_trip():
    for text, kind in [
        ('{"kind":"lp","p":1,"dim":2}', "lp"),
        ('{"kind":"lp","p":"inf","dim":4}', "lp"),
        ('{"kind":"weighted_lp","p":2,"weights":[1.0,2.0,0.5],"dim":3}', "weighted_lp"),
        ('{"kind":"quadratic","gram":[[2.0,0.3],[0.3,1.0]],"dim":2}', "quadratic"),
    ]:
        spec = ng.parse_norm_spec(text)
        assert spec.kind == kind
        again = ng.parse_norm_spec(json.dumps(ng.spec_to_dict(spec)))
        assert again.kind == spec.kind and again.dim == spec.dim
        v = np.arange(1.0, spec.dim + 1.0)
        assert ng.norm_eval(spec, v) == ng.norm_eval(again, v)


def test_spec_to_dict_echoes_each_kinds_keys_in_order():
    for spec, text in [
        (ng.lp_norm(math.inf, 3), '{"kind": "lp", "p": "inf", "dim": 3}'),
        (
            ng.weighted_lp_norm(1, [0.5, 2]),
            '{"kind": "weighted_lp", "p": 1.0, "weights": [0.5, 2.0], "dim": 2}',
        ),
        (
            ng.quadratic_norm([[2, 0.5], [0.5, 1]]),
            '{"kind": "quadratic", "gram": [[2.0, 0.5], [0.5, 1.0]], "dim": 2}',
        ),
    ]:
        assert json.dumps(ng.spec_to_dict(spec)) == text


def test_parse_norm_spec_rejects_unknown_keys():
    with pytest.raises(ng.NormSpecError):
        ng.parse_norm_spec('{"kind":"lp","p":1,"dim":2,"extra":5}')
    with pytest.raises(ng.NormSpecError):
        ng.parse_norm_spec('{"kind":"lp","p":1}')
    with pytest.raises(ng.NormSpecError):
        ng.parse_norm_spec('{"kind":"elliptic","dim":2}')
    with pytest.raises(ng.NormSpecError):
        ng.parse_norm_spec('{"kind":"lp","p":1,"dim":2.5}')
    with pytest.raises(ng.NormSpecError):
        ng.parse_norm_spec("not json at all {")


def test_parse_norm_spec_dim_consistency():
    with pytest.raises(ng.NormSpecError):
        ng.parse_norm_spec('{"kind":"weighted_lp","p":2,"weights":[1.0,2.0],"dim":3}')
    with pytest.raises(ng.NormSpecError):
        ng.parse_norm_spec('{"kind":"quadratic","gram":[[1.0]],"dim":2}')


def test_parse_norm_spec_bounds_dim():
    assert ng.parse_norm_spec('{"kind":"lp","p":2,"dim":1024}').dim == 1024
    for dim in (1025, 10**30):
        with pytest.raises(ng.NormSpecError, match="at most 1024"):
            ng.parse_norm_spec(json.dumps({"kind": "lp", "p": 2, "dim": dim}))
    with pytest.raises(ng.NormSpecError, match="at most 1024"):
        ng.weighted_lp_norm(2, np.ones(1025))


def test_malformed_weights_and_gram_are_spec_errors():
    with pytest.raises(ng.NormSpecError, match="weights"):
        ng.parse_norm_spec('{"kind":"weighted_lp","p":2,"weights":["a"],"dim":1}')
    with pytest.raises(ng.NormSpecError, match="weights"):
        ng.parse_norm_spec('{"kind":"weighted_lp","p":2,"weights":{"a":1},"dim":1}')
    with pytest.raises(ng.NormSpecError, match="gram"):
        ng.parse_norm_spec('{"kind":"quadratic","gram":[[1.0,0.0],[0.0]],"dim":2}')
    with pytest.raises(ng.GramValidationError):
        ng.gram_validate([[1.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "text",
    [
        '{"kind":"weighted_lp","p":2,"weights":[true,"3"],"dim":2}',
        '{"kind":"weighted_lp","p":2,"weights":[1.0,false],"dim":2}',
        '{"kind":"weighted_lp","p":2,"weights":"12","dim":2}',
        '{"kind":"quadratic","gram":[[1.0,0.0],[0.0,true]],"dim":2}',
        '{"kind":"quadratic","gram":[[1.0,"0"],[0.0,1.0]],"dim":2}',
        pytest.param(lambda: ng.weighted_lp_norm(2, [True, "3"]), id="weighted_lp_norm"),
        pytest.param(lambda: ng.quadratic_norm([[True, "0"], [0, 1]]), id="quadratic_norm"),
        pytest.param(lambda: ng.NormSpec("weighted_lp", 2, 2, [1.0, "2"]), id="NormSpec"),
        pytest.param(lambda: ng.gram_validate([[1.0, 0.0], [0.0, True]]), id="gram_validate"),
        pytest.param(lambda: ng.weighted_lp_norm(2, np.ones(2, dtype=bool)), id="numpy-bool"),
        pytest.param(lambda: ng.weighted_lp_norm(2, [1.0, None]), id="None-entry"),
    ],
)
def test_weights_and_gram_hold_numbers_only(text):
    # np.asarray would read true as 1.0, "3" as 3.0 and None as nan
    with pytest.raises(ng.NormSpecError, match="numbers only"):
        ng.parse_norm_spec(text) if isinstance(text, str) else text()


_X, _Y = [0.0, 2.0], [2.0, -1.0]
_L2 = ng.lp_norm(2, 2)
# every library argument that takes one number, an array or a count, as a
# call of the value
_NUMBER_SLOTS = {
    "lp_norm.p": lambda v: ng.lp_norm(v, 2),
    "lp_norm.dim": lambda v: ng.lp_norm(2, v),
    "weighted_lp_norm.p": lambda v: ng.weighted_lp_norm(v, [1.0, 2.0]),
    "weighted_lp_norm.weights": lambda v: ng.weighted_lp_norm(2, v),
    "quadratic_norm.gram": ng.quadratic_norm,
    "gram_validate": ng.gram_validate,
    "NormSpec.dim": lambda v: ng.NormSpec("lp", v, 2),
    "norm_eval.x": lambda v: ng.norm_eval(ng.lp_norm(2, 3), v),
    "validate_norm_axioms.tol": lambda v: ng.validate_norm_axioms(_L2, 8, 1, tol=v),
    "n_eval.t": lambda v: ng.n_eval(_L2, _X, _Y, v),
    "n_eval.x": lambda v: ng.n_eval(ng.lp_norm(2, 3), v, [1.0, 2.0, 3.0], 0.5),
    "n_curve.t_min": lambda v: ng.n_curve(_L2, _X, _Y, v, 1.0, 3),
    "n_curve.t_max": lambda v: ng.n_curve(_L2, _X, _Y, 0.0, v, 3),
    "one_sided_derivative.t": lambda v: ng.one_sided_derivative(_L2, _X, _Y, v, "right"),
    "convexity_defect.grid": lambda v: ng.convexity_defect(_L2, _X, _Y, v),
    "reflection_identity_defect.t": lambda v: ng.reflection_identity_defect(_L2, _X, _Y, v),
    "reciprocal_order_agreement.t": lambda v: ng.reciprocal_order_agreement(_L2, _X, _Y, v),
    "quadratic_difference_defect.t": lambda v: ng.quadratic_difference_defect(
        np.eye(2), _X, _Y, v
    ),
    "evaluate_inequality.t": lambda v: ng.evaluate_inequality("N_ORDERING", _L2, _X, _Y, t=v),
    "evaluate_inequality.gamma": lambda v: ng.evaluate_inequality(
        "LORCH", _L2, [1.0, 0.0], [0.0, 1.0], gamma=v
    ),
    "SearchConfig.dim": lambda v: ng.SearchConfig(dim=v, seed=1),
}
# None is tol's default, and [1, 2] a valid weights vector
_VALID_HERE = [("validate_norm_axioms.tol", None), ("weighted_lp_norm.weights", [1, 2])]


def _error_for(slot):
    """The constructors raise NormSpecError, every other function NormGeoError."""
    makers = ("lp_norm", "weighted_lp_norm", "quadratic_norm", "gram_validate", "NormSpec")
    return ng.NormSpecError if slot.split(".")[0] in makers else ng.NormGeoError


@pytest.mark.parametrize(
    "slot, value",
    [
        (slot, value)
        for slot in sorted(_NUMBER_SLOTS)
        for value in ("x", None, True, [1, 2])
        if (slot, value) not in _VALID_HERE
    ],
)
def test_malformed_numbers_raise_the_package_error(slot, value):
    with pytest.raises(_error_for(slot)):
        _NUMBER_SLOTS[slot](value)


@pytest.mark.parametrize("p", [np.int64(3), np.float32(2.5)], ids=repr)
def test_numpy_dim_and_p_are_accepted(p):
    for spec in (ng.lp_norm(p, np.int64(2)), ng.weighted_lp_norm(p, np.ones(2))):
        assert type(spec.dim) is int and type(spec.p) is float and spec.p == float(p)
        assert json.loads(json.dumps(ng.spec_to_dict(spec)))["dim"] == 2


# what json.loads can return, including integers too large for a float
_NUMBERS = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400), "inf"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_DIM = st.integers(-1, 3) | _JSON_VALUES
_P = _NUMBERS | _JSON_VALUES
_SPEC_LIKE = (
    st.fixed_dictionaries({"kind": st.just("lp"), "p": _P, "dim": _DIM})
    | st.fixed_dictionaries(
        {
            "kind": st.just("weighted_lp"),
            "p": _P,
            "weights": st.lists(_NUMBERS, max_size=3) | _JSON_VALUES,
            "dim": _DIM,
        }
    )
    | st.fixed_dictionaries(
        {
            "kind": st.just("quadratic"),
            "gram": st.lists(st.lists(_NUMBERS, max_size=3), max_size=3) | _JSON_VALUES,
            "dim": _DIM,
        }
    )
    | st.dictionaries(
        st.sampled_from(["kind", "p", "dim", "weights", "gram"]), _JSON_VALUES
    )
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(obj=_JSON_VALUES | _SPEC_LIKE | _SPEC_LIKE.map(json.dumps))
@example(obj="1" + "0" * 5000)  # past the int-from-text digit limit
def test_parse_norm_spec_raises_only_norm_spec_error(obj):
    try:
        ng.parse_norm_spec(obj)
    except ng.NormSpecError:
        pass


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(slot=st.sampled_from(sorted(_NUMBER_SLOTS)), value=_JSON_VALUES)
def test_number_arguments_raise_only_the_package_error(slot, value):
    try:
        _NUMBER_SLOTS[slot](value)
    except _error_for(slot):
        pass


def _family_spec(family, dim, seed):
    rng = np.random.default_rng(seed)
    if family == "l1":
        return ng.lp_norm(1, dim)
    if family == "l2":
        return ng.lp_norm(2, dim)
    if family == "lp":
        return ng.lp_norm(float(rng.uniform(1.05, 9.0)), dim)
    if family == "linf":
        return ng.lp_norm(math.inf, dim)
    if family == "weighted":
        p = [1.0, 2.0, 3.5, math.inf][seed % 4]
        return ng.weighted_lp_norm(p, np.exp(rng.uniform(-1.0, 1.0, dim)))
    return ng.quadratic_norm(random_spd(dim, seed))


@pytest.mark.parametrize("height", [1, 2, 3, 64, 257])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(["l1", "l2", "lp", "linf", "weighted", "gram"]),
    dim=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_row_matches_its_lone_evaluation_bit_for_bit(height, family, dim, seed):
    spec = _family_spec(family, dim, seed)
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-6.0, 6.0, (height, 1)))
    stack = rng.standard_normal((height, dim)) * scale
    stack[rng.random((height, dim)) < 0.1] = 0.0
    rows = ng.norm_eval(spec, stack)
    lone = np.array([ng.norm_eval(spec, v) for v in stack])
    assert rows.shape == (height,)
    assert np.array_equal(rows, lone)
    # a strided view of a wider stack, as the search hands it over
    wide = np.concatenate([stack, stack[:, :1]], axis=1)
    assert np.array_equal(ng.norm_eval(spec, wide[:, :dim]), lone)
