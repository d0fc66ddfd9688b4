"""The fused universal sweep: one formula table scores all six universal
inequalities with the bits of the per-inequality formulas, and one sweep,
memoized on its arguments, serves every batch_min_slack id."""

import math
import sys
import threading

import numpy as np
import pytest

import normgeo as ng
import normgeo.inequalities as ineq
import normgeo.norms as norms
from normgeo.inequalities import UNIVERSAL_IDS, InequalityId
from normgeo.norms import _norm_rows, sample_points, stream
from support import random_spd

L1 = ng.lp_norm(1, 2)
SPECS = {
    "l1": ng.lp_norm(1, 3),
    "l3": ng.lp_norm(3, 3),
    "linf": ng.lp_norm(math.inf, 3),
    "wl2": ng.weighted_lp_norm(2, [0.5, 1.5, 2.5]),
    "gram4": ng.quadratic_norm(random_spd(4, 42)),
}
# three blocks, the last one short
TRIALS = 2 * 8192 + 5


def reference_lhs_rhs(iq, spec, xs, ys):
    """The six universal formulas, one inequality at a time, as they were
    written before the shared table: the oracle the table must match bit
    for bit."""
    nx = _norm_rows(spec, xs)
    ny = _norm_rows(spec, ys)
    u = xs / nx[:, None]
    v = ys / ny[:, None]
    if iq is InequalityId.MALIGRANDA_UPPER:
        return (
            _norm_rows(spec, xs + ys),
            nx + ny - (2.0 - _norm_rows(spec, u + v)) * np.minimum(nx, ny),
        )
    if iq is InequalityId.MALIGRANDA_LOWER:
        return (
            nx + ny - (2.0 - _norm_rows(spec, u + v)) * np.maximum(nx, ny),
            _norm_rows(spec, xs + ys),
        )
    alpha = _norm_rows(spec, u - v)
    if iq is InequalityId.ANGULAR_LOWER:
        lhs = (_norm_rows(spec, xs - ys) - np.abs(nx - ny)) / np.minimum(nx, ny)
        return lhs, alpha
    if iq is InequalityId.ANGULAR_UPPER:
        rhs = (_norm_rows(spec, xs - ys) + np.abs(nx - ny)) / np.maximum(nx, ny)
        return alpha, rhs
    if iq is InequalityId.MASSERA_SCHAFFER:
        return alpha, 2.0 * _norm_rows(spec, xs - ys) / np.maximum(nx, ny)
    if iq is InequalityId.DUNKL_WILLIAMS_4:
        return alpha, 4.0 * _norm_rows(spec, xs - ys) / (nx + ny)
    raise AssertionError(iq)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("rows", [1, 2, 257])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_shared_table_matches_the_formulas_bit_for_bit(name, rows):
    spec = SPECS[name]
    rng = stream(17, rows)
    xs = sample_points(spec.dim, rng, rows)
    ys = sample_points(spec.dim, rng, rows)
    table = ineq._universal_lhs_rhs(spec, xs, ys)
    assert len(table) == len(UNIVERSAL_IDS)
    for iq, (lhs, rhs) in zip(UNIVERSAL_IDS, table):
        ref_lhs, ref_rhs = reference_lhs_rhs(iq, spec, xs, ys)
        assert same_bits(lhs, ref_lhs) and same_bits(rhs, ref_rhs), iq
        # the per-inequality entry point reads the same table
        one_lhs, one_rhs = ineq._batch_lhs_rhs(iq, spec, xs, ys)
        assert same_bits(one_lhs, ref_lhs) and same_bits(one_rhs, ref_rhs), iq


@pytest.mark.parametrize("iq", [*UNIVERSAL_IDS, InequalityId.ALPHA_BETA], ids=str)
def test_a_zero_row_raises_naming_the_inequality_asked_for(iq):
    ok = np.array([[1.0, 2.0], [3.0, -1.0]])
    zero = ok.copy()
    zero[1] = 0.0
    for xs, ys in ((zero, ok), (ok, zero)):
        with pytest.raises(ng.ZeroVectorError, match=f"^{iq.value} needs nonzero x and y"):
            ineq._batch_lhs_rhs(iq, L1, xs, ys)
        with pytest.raises(ng.ZeroVectorError, match=f"^{iq.value} needs nonzero x and y"):
            ng.evaluate_inequality(iq, L1, xs[1], ys[1])


@pytest.fixture
def drawn(monkeypatch):
    """The block indices the sweep draws, in order."""
    calls = []

    def counted(dim, total, seed, tag, b):
        calls.append(b)
        return norms._pair_block(dim, total, seed, tag, b)

    monkeypatch.setattr(ineq, "_pair_block", counted)
    return calls


def test_six_ids_draw_each_block_once(drawn):
    got = [ng.batch_min_slack(iq, L1, TRIALS, 3).to_dict() for iq in UNIVERSAL_IDS]
    assert drawn == [0, 1, 2]
    for iq, memoized in zip(UNIVERSAL_IDS, got):
        ineq._sweep.cache_clear()
        assert ng.batch_min_slack(iq, L1, TRIALS, 3).to_dict() == memoized, iq


def test_each_call_owns_its_witness_arrays():
    iq = InequalityId.MASSERA_SCHAFFER
    first = ng.batch_min_slack(iq, L1, 64, 3)
    x = first.report.witness.x.copy()
    first.report.witness.x[:] = 0.0
    assert np.array_equal(ng.batch_min_slack(iq, L1, 64, 3).report.witness.x, x)


@pytest.mark.parametrize(
    "change",
    [
        dict(trials=TRIALS + 1),
        dict(seed=4),
        dict(workers=2),
        dict(spec=ng.lp_norm(1, 2)),  # equal values, another object
    ],
    ids=["trials", "seed", "workers", "spec"],
)
def test_any_other_argument_runs_a_new_sweep(drawn, change):
    base = dict(spec=L1, trials=TRIALS, seed=3, workers=1)
    ng.batch_min_slack(InequalityId.MALIGRANDA_UPPER, **base)
    ng.batch_min_slack(InequalityId.MALIGRANDA_LOWER, **{**base, **change})
    # a threaded sweep may draw its blocks out of order
    assert sorted(drawn) == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize(
    "call, match",
    [
        (dict(iq=InequalityId.N_ORDERING), "is conditional"),
        (dict(iq="FOO"), "unknown inequality id"),
        (dict(trials=True), "trials"),
        (dict(trials=1.0), "trials"),
        (dict(seed=True), "seed"),
        (dict(workers=True), "workers"),
        (dict(workers=1.0), "workers"),
    ],
    ids=["conditional", "unknown", "trials-bool", "trials-float", "seed-bool",
         "workers-bool", "workers-float"],
)
def test_arguments_are_checked_even_right_after_an_equal_sweep(call, match):
    # every bad count below compares equal to the memoized sweep's own
    base = dict(iq=InequalityId.MALIGRANDA_UPPER, spec=L1, trials=1, seed=1, workers=1)
    ng.batch_min_slack(**base)
    with pytest.raises(ng.NormGeoError, match=match):
        ng.batch_min_slack(**{**base, **call})


def test_threads_sharing_the_memo_each_get_their_own_arguments_result():
    # Each thread asks for its own spec and seed while the others replace
    # the one memo entry; a result read from another thread's sweep would
    # differ from the serial one.
    cases = [(SPECS[name], seed) for seed, name in enumerate(sorted(SPECS), 1)]
    want = {
        (id(spec), seed, iq): ng.batch_min_slack(iq, spec, 300, seed).to_dict()
        for spec, seed in cases
        for iq in UNIVERSAL_IDS
    }
    wrong = []
    start = threading.Barrier(len(cases))

    def ask(spec, seed):
        start.wait(timeout=60)
        for _ in range(50):
            for iq in UNIVERSAL_IDS:
                try:
                    got = ng.batch_min_slack(iq, spec, 300, seed).to_dict()
                except Exception as exc:  # a thread's exception would not fail the test
                    got = exc
                if got != want[id(spec), seed, iq]:
                    wrong.append((seed, iq, got))

    threads = [threading.Thread(target=ask, args=case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
