import math

import numpy as np
import pytest

import normgeo as ng
from normgeo.norms import sample_pair, stream
from support import family_specs, random_spd

L1 = ng.lp_norm(1, 2)
L2 = ng.lp_norm(2, 2)


def test_angular_examples():
    assert ng.angular_distance(L2, [3.0, 0.0], [0.0, 4.0]) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )
    assert ng.angular_distance(L1, [1.0, 0.0], [1.0, 1.0 / 9.0]) == pytest.approx(
        0.2, rel=1e-12
    )


def test_skew_angular_examples():
    assert ng.skew_angular_distance(L1, [0.0, 2.0], [2.0, -1.0]) == pytest.approx(
        13.0 / 6.0, rel=1e-15
    )
    assert ng.skew_angular_distance(L2, [3.0, 0.0], [0.0, 4.0]) == pytest.approx(
        math.sqrt(337.0) / 12.0, rel=1e-12
    )


def test_angular_endpoints():
    for spec in family_specs(3):
        rng = stream(47, 0)
        x, _ = sample_pair(3, rng)
        # powers of two keep the normalized copies bitwise identical
        assert ng.angular_distance(spec, x, 2.0 * x) == 0.0
        assert ng.angular_distance(spec, x, -0.5 * x) == pytest.approx(2.0, rel=1e-12)


def test_angular_range_and_symmetry():
    for spec in family_specs(3):
        rng = stream(53, 0)
        for _ in range(100):
            x, y = sample_pair(3, rng)
            a = ng.angular_distance(spec, x, y)
            assert 0.0 <= a <= 2.0 + 1e-12
            assert a == pytest.approx(ng.angular_distance(spec, y, x), rel=1e-14, abs=1e-14)
            b = ng.skew_angular_distance(spec, x, y)
            assert b == pytest.approx(ng.skew_angular_distance(spec, y, x), rel=1e-14, abs=1e-14)


def test_scale_invariance_of_alpha():
    for spec in family_specs(3):
        rng = stream(59, 0)
        for _ in range(50):
            x, y = sample_pair(3, rng)
            a = ng.angular_distance(spec, x, y)
            b = ng.angular_distance(spec, 3.7 * x, 0.2 * y)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_equal_norms_make_alpha_equal_beta():
    for spec in family_specs(3):
        rng = stream(61, 0)
        for _ in range(50):
            x, y = sample_pair(3, rng)
            y = y * (ng.norm_eval(spec, x) / ng.norm_eval(spec, y))
            pair = ng.distance_pair(spec, x, y)
            assert pair.alpha == pytest.approx(pair.beta, rel=1e-12, abs=1e-14)


def test_quadratic_norm_never_has_alpha_above_beta():
    spec = ng.quadratic_norm(random_spd(3, 13))
    rng = stream(67, 0)
    for _ in range(300):
        x, y = sample_pair(3, rng)
        pair = ng.distance_pair(spec, x, y)
        assert pair.beta - pair.alpha >= -1e-9


def test_zero_vector_raises():
    z = np.zeros(2)
    x = np.array([1.0, 2.0])
    for fn in (ng.angular_distance, ng.skew_angular_distance, ng.distance_pair):
        with pytest.raises(ng.ZeroVectorError):
            fn(L2, z, x)
        with pytest.raises(ng.ZeroVectorError):
            fn(L2, x, z)


def test_nonfinite_vectors_raise():
    x = np.array([1.0, 2.0])
    with pytest.raises(ng.NormGeoError, match="finite"):
        ng.distance_pair(L2, x, [math.inf, 1.0])
