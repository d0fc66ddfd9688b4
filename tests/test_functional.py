import io
import math

import numpy as np
import pytest

import normgeo as ng
from normgeo.norms import sample_pair, stream
from support import family_specs, random_spd

L1 = ng.lp_norm(1, 2)
L2 = ng.lp_norm(2, 2)
X = np.array([0.0, 2.0])
Y = np.array([2.0, -1.0])


def test_n_eval_crossing_example():
    # ||x||_1 = 2 < 3 = ||y||_1 yet the curves cross order at t = 1/2
    assert ng.n_eval(L1, X, Y, 0.5) == 2.5
    assert ng.n_eval(L1, Y, X, 0.5) == 2.0


def test_n_eval_at_zero_is_norm():
    for spec in family_specs(3):
        rng = stream(23, 0)
        x, y = sample_pair(3, rng)
        assert ng.n_eval(spec, x, y, 0.0) == ng.norm_eval(spec, x)


def test_n_eval_rejects_nonfinite_t():
    with pytest.raises(ng.NormGeoError):
        ng.n_eval(L1, X, Y, math.inf)


def test_n_eval_rejects_nonfinite_vectors():
    with pytest.raises(ng.NormGeoError, match="finite"):
        ng.n_eval(L1, [math.nan, 0.0], Y, 0.5)


@pytest.mark.parametrize(
    "spec", [L1, L2, ng.lp_norm(3, 2), ng.quadratic_norm([[2.0, 0.5], [0.5, 1.0]])]
)
def test_line_overflow_is_an_error_naming_t(spec):
    x, y = [1e300, 0.0], [1e300, 1.0]
    with pytest.raises(ng.NormGeoError, match="t=10000000000$"):
        ng.n_eval(spec, x, y, 1e10)
    with pytest.raises(ng.NormGeoError, match="t=5000000000$"):
        ng.n_curve(spec, x, y, 0.0, 1e10, 3)
    with pytest.raises(ng.NormGeoError, match="t=10000000000$"):
        ng.convexity_defect(spec, x, y, [0.0, 1e10, 2e10])


def test_norm_overflow_on_finite_points_is_an_error():
    # the points are finite, but their p=2 norm passes the largest float
    big = [1.7e308, 1.7e308]
    with pytest.raises(ng.NormGeoError, match="t=0$"):
        ng.n_eval(L2, big, [0.0, 1.0], 0.0)


def test_n_curve_grid_contract():
    rows = ng.n_curve(L1, X, Y, 0.0, 1.0, 101)
    assert len(rows) == 101
    a, b = rows[0]
    assert a.t == 0.0 and a.value == 2.0 and b.value == 3.0
    a, b = rows[50]
    assert a.t == 0.5 and a.value == 2.5 and b.value == 2.0
    a, b = rows[-1]
    assert a.t == 1.0
    # both ends inclusive, uniform spacing
    ts = np.array([r[0].t for r in rows])
    assert np.allclose(np.diff(ts), 0.01)


def test_n_curve_minimal_grid():
    rows = ng.n_curve(L2, X, Y, -1.0, 1.0, 2)
    assert len(rows) == 2
    assert rows[0][0].t == -1.0 and rows[1][0].t == 1.0


def test_n_curve_rejects_degenerate_grid():
    with pytest.raises(ng.NormGeoError):
        ng.n_curve(L1, X, Y, 0.0, 0.0, 11)
    for steps in (1, 2.5, True, 8193):
        with pytest.raises(ng.NormGeoError, match="steps"):
            ng.n_curve(L1, X, Y, 0.0, 1.0, steps)
    assert len(ng.n_curve(L1, X, Y, 0.0, 1.0, 8192)) == 8192


def test_write_curve_csv_format():
    buf = io.StringIO()
    ng.write_curve_csv(ng.n_curve(L1, X, Y, 0.0, 1.0, 3), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,n_xy,n_yx"
    assert lines[1] == "0,2,3"
    assert lines[2] == "0.5,2.5,2"
    # 17 significant digits survive a round trip
    third = 1.0 / 3.0
    buf = io.StringIO()
    ng.write_curve_csv(ng.n_curve(L1, X, Y, 0.0, third, 2), buf)
    t_back = float(buf.getvalue().splitlines()[2].split(",")[0])
    assert t_back == third


def test_one_sided_derivatives_at_kink():
    x = np.array([1.0, 0.0])
    y = np.array([-1.0, 0.0])
    right = ng.one_sided_derivative(L1, x, y, 1.0, ng.RIGHT)
    left = ng.one_sided_derivative(L1, x, y, 1.0, ng.LEFT)
    assert right.value == pytest.approx(1.0, abs=1e-6)
    assert left.value == pytest.approx(-1.0, abs=1e-6)
    assert right.step_sequence_floor > 0.0


def test_one_sided_derivative_smooth_case():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    est = ng.one_sided_derivative(L2, x, y, 0.0, ng.RIGHT)
    assert est.value == pytest.approx(0.0, abs=1e-6)
    est = ng.one_sided_derivative(L2, x, y, 2.0, ng.RIGHT)
    # d/dt sqrt(1+t^2) = t/sqrt(1+t^2)
    assert est.value == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-6)


def test_one_sided_derivative_monotone_in_t():
    # convexity: the right derivative is nondecreasing along the line
    spec = ng.lp_norm(3, 3)
    rng = stream(29, 0)
    for _ in range(20):
        x, y = sample_pair(3, rng)
        ts = sorted(rng.uniform(-2.0, 2.0, 3))
        vals = [ng.one_sided_derivative(spec, x, y, t, ng.RIGHT).value for t in ts]
        assert vals[0] <= vals[1] + 1e-5 and vals[1] <= vals[2] + 1e-5


def test_one_sided_derivative_bad_side():
    with pytest.raises(ng.NormGeoError):
        ng.one_sided_derivative(L1, X, Y, 0.0, "up")


def test_convexity_defect_example():
    defect = ng.convexity_defect(L2, [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0, 1.0])
    assert defect == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-15)


def test_convexity_defect_zero_direction():
    grid = np.linspace(-2.0, 2.0, 9)
    assert ng.convexity_defect(L2, [1.0, 1.0], [0.0, 0.0], grid) == 0.0


def test_convexity_defect_nonpositive_on_samples():
    grid = np.linspace(-2.0, 2.0, 101)
    for spec in family_specs(3):
        rng = stream(31, 0)
        for _ in range(50):
            x, y = sample_pair(3, rng)
            scale = 1.0 + ng.norm_eval(spec, x) + ng.norm_eval(spec, y)
            assert ng.convexity_defect(spec, x, y, grid) <= 1e-12 * scale


def test_convexity_defect_rejects_bad_grid():
    with pytest.raises(ng.NormGeoError):
        ng.convexity_defect(L1, X, Y, [0.0, 1.0])
    with pytest.raises(ng.NormGeoError):
        ng.convexity_defect(L1, X, Y, [0.0, 1.0, 0.5])


def test_reflection_identity_defect():
    for spec in family_specs(4):
        rng = stream(37, 0)
        for _ in range(100):
            x, y = sample_pair(4, rng)
            t = rng.uniform(-3.0, 3.0)
            d = ng.reflection_identity_defect(spec, x, y, t)
            assert d <= 1e-15 * (1.0 + ng.n_eval(spec, x, y, t))


def test_reciprocal_order_agreement_holds():
    for spec in family_specs(3):
        rng = stream(41, 0)
        for _ in range(200):
            x, y = sample_pair(3, rng)
            t = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            if rng.random() < 0.5:
                t = -t
            assert ng.reciprocal_order_agreement(spec, x, y, t)


def test_reciprocal_order_agreement_rejects_zero_t():
    with pytest.raises(ng.NormGeoError):
        ng.reciprocal_order_agreement(L1, X, Y, 0.0)


def test_quadratic_difference_identity():
    rng = stream(43, 0)
    for trial in range(200):
        dim = 2 + trial % 5
        gram = random_spd(dim, 1000 + trial)
        x, y = sample_pair(dim, rng)
        t = rng.uniform(-2.0, 2.0)
        spec = ng.quadratic_norm(gram)
        nx = ng.norm_eval(spec, x)
        ny = ng.norm_eval(spec, y)
        defect = ng.quadratic_difference_defect(gram, x, y, t)
        assert defect <= 1e-9 * (nx * nx + ny * ny)


ENTRY_POINTS = {
    "n_curve": lambda x, y: ng.n_curve(L1, x, y, 0.0, 1.0, 3),
    "convexity_defect": lambda x, y: ng.convexity_defect(L1, x, y, [0.0, 0.5, 1.0]),
    "one_sided_derivative": lambda x, y: ng.one_sided_derivative(L1, x, y, 0.5, ng.RIGHT),
    "reflection_identity_defect": lambda x, y: ng.reflection_identity_defect(L1, x, y, 0.5),
    "reciprocal_order_agreement": lambda x, y: ng.reciprocal_order_agreement(L1, x, y, 0.5),
    "quadratic_difference_defect": lambda x, y: ng.quadratic_difference_defect(
        [[2.0, 0.5], [0.5, 1.0]], x, y, 0.5
    ),
}


@pytest.mark.parametrize(
    "x, y",
    [([1.0], Y), ([math.nan, 0.0], Y), (X, [math.inf, 1.0])],
    ids=["short-x", "nan-x", "inf-y"],
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_bad_vectors(entry, x, y):
    # A short x used to broadcast against the other length-2 vector, and a
    # NaN came back as the answer, instead of an error.
    with pytest.raises(ng.NormGeoError):
        ENTRY_POINTS[entry](x, y)


def test_quadratic_difference_rejects_non_gram_spec():
    with pytest.raises(ng.NormGeoError):
        ng.quadratic_difference_defect(L1, X, Y, 0.5)
