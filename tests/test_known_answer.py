"""detect_inner_product against the answer every accepted spec has.

A spec is an inner-product norm iff support.known_answer says so. detect
must answer CONSISTENT, unflagged, on those, and VIOLATED or a flagged
CONSISTENT on the rest. The resolution ladder pins how close to p = 2 the
default search resolves today; its xfail rungs are today's misses, each
with the open ROADMAP item that should mend it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normgeo as ng
from support import known_answer

FLAGGED = "FLAGGED"


def outcome(verdict):
    """VIOLATED, CONSISTENT, or FLAGGED for a CONSISTENT verdict whose
    parallelogram check disagrees."""
    return FLAGGED if verdict.discrepancy_flagged else verdict.verdict


def agrees(spec, verdict):
    if known_answer(spec):
        return outcome(verdict) == ng.CONSISTENT
    return outcome(verdict) in (ng.VIOLATED, FLAGGED)


def test_known_answer_examples():
    assert known_answer(ng.lp_norm(2, 3))
    assert known_answer(ng.weighted_lp_norm(2, [1.0, 5.0]))
    assert known_answer(ng.quadratic_norm([[2.0, 0.5], [0.5, 1.0]]))
    assert known_answer(ng.lp_norm(1, 1))
    assert known_answer(ng.weighted_lp_norm(math.inf, [3.0]))
    assert not known_answer(ng.lp_norm(1, 2))
    assert not known_answer(ng.lp_norm(2.001, 3))
    assert not known_answer(ng.weighted_lp_norm(math.inf, [1.0, 2.0]))


@st.composite
def specs(draw):
    """Dims 2-4; p from {1, inf, 2}, from [1, 10] or 2 +- 10^U(-3, -1);
    weights 10^U(-4, 4); gram aa' + dI scaled by 10^U(-8, 8)."""
    dim = draw(st.integers(2, 4))
    kind, p_range = draw(
        st.sampled_from([("quadratic", None)]
                        + [(k, r) for k in ("lp", "weighted_lp") for r in range(3)])
    )
    if kind == "quadratic":
        a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        d = draw(st.floats(0.1, 1.0))
        scale = 10.0 ** draw(st.floats(-8.0, 8.0))
        return ng.quadratic_norm(scale * (np.outer(a, a) + d * np.eye(dim)))
    if p_range == 0:
        p = draw(st.sampled_from([1.0, math.inf, 2.0]))
    elif p_range == 1:
        p = draw(st.floats(1.0, 10.0))
    else:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        p = 2.0 + sign * 10.0 ** draw(st.floats(-3.0, -1.0))
    if kind == "lp":
        return ng.lp_norm(p, dim)
    exps = draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim))
    return ng.weighted_lp_norm(p, [10.0**e for e in exps])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(spec=specs())
def test_detect_agrees_with_the_known_answer(spec):
    config = ng.SearchConfig(dim=spec.dim, seed=1, restarts=16, iters_per_restart=400)
    verdict = ng.detect_inner_product(spec, config, side_budget=500)
    assert agrees(spec, verdict), (ng.spec_to_dict(spec), verdict.to_dict())


def _miss(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


# (spec, outcomes the default search must give); the eps rungs are
# l_{2+eps} on R^2
_LADDER = [
    pytest.param(ng.lp_norm(2.1, 2), {ng.VIOLATED}, id="eps=1e-1"),
    pytest.param(ng.lp_norm(2.01, 2), {ng.VIOLATED}, id="eps=1e-2"),
    pytest.param(ng.lp_norm(2.001, 2), {ng.VIOLATED}, id="eps=1e-3"),
    pytest.param(ng.lp_norm(2 + 1e-4, 2), {ng.VIOLATED, FLAGGED}, id="eps=1e-4"),
    pytest.param(ng.lp_norm(2 + 1e-5, 2), {ng.VIOLATED, FLAGGED}, id="eps=1e-5"),
    pytest.param(
        ng.lp_norm(2 + 1e-6, 2),
        {ng.VIOLATED, FLAGGED},
        id="eps=1e-6",
        marks=_miss("unflagged CONSISTENT: no search finds the violation "
                    "near p = 2 (ROADMAP item 11)"),
    ),
    pytest.param(ng.weighted_lp_norm(2, [1e24] * 3), {ng.CONSISTENT}, id="l2-weights-1e24"),
    pytest.param(
        ng.weighted_lp_norm(1, [1e-14] * 3),
        {ng.VIOLATED, FLAGGED},
        id="l1-weights-1e-14",
        marks=_miss("unflagged CONSISTENT: the absolute norm floors blind "
                    "ALPHA_BETA, LORCH and both side checks (ROADMAP item 1)"),
    ),
]


@pytest.mark.parametrize("spec, expected", _LADDER)
def test_resolution_ladder(spec, expected):
    config = ng.SearchConfig(dim=spec.dim, seed=20240805)
    assert outcome(ng.detect_inner_product(spec, config)) in expected
