import concurrent.futures
import math

import numpy as np
import pytest

import normgeo as ng
import normgeo.inequalities as ineq
from normgeo.inequalities import CONDITIONAL_IDS, UNIVERSAL_IDS, InequalityId
from normgeo.norms import sample_pair, stream
from support import family_specs, random_spd, traced_peak

L1 = ng.lp_norm(1, 2)
L2 = ng.lp_norm(2, 2)

# One crossing pair reused across tests: ||x||_1 = 2 < 3 = ||y||_1.
XC = np.array([0.0, 2.0])
YC = np.array([2.0, -1.0])


def test_id_partition():
    assert set(UNIVERSAL_IDS) | set(CONDITIONAL_IDS) == set(InequalityId)
    assert not set(UNIVERSAL_IDS) & set(CONDITIONAL_IDS)


def test_n_ordering_violation_example():
    rep = ng.evaluate_inequality(InequalityId.N_ORDERING, L1, XC, YC, t=0.5)
    assert rep.lhs == 2.5
    assert rep.rhs == 2.0
    assert rep.slack == -0.5
    assert not rep.universal


def test_n_ordering_relabels_by_norm():
    # passing the pair in either order must give the same comparison
    a = ng.evaluate_inequality(InequalityId.N_ORDERING, L1, XC, YC, t=0.5)
    b = ng.evaluate_inequality(InequalityId.N_ORDERING, L1, YC, XC, t=0.5)
    assert a.lhs == b.lhs
    assert a.rhs == b.rhs


def test_n_ordering_t_one_is_exact_tie():
    for spec in family_specs(3):
        rng = stream(29, 0)
        x, y = sample_pair(3, rng)
        rep = ng.evaluate_inequality(InequalityId.N_ORDERING, spec, x, y, t=1.0)
        assert rep.slack == 0.0


def test_n_ordering_holds_in_l2():
    rng = stream(31, 0)
    for _ in range(200):
        x, y = sample_pair(2, rng)
        t = float(rng.uniform(0.0, 1.0))
        rep = ng.evaluate_inequality(InequalityId.N_ORDERING, L2, x, y, t=t)
        assert rep.slack >= -1e-12 * (1.0 + rep.lhs + rep.rhs)


def test_alpha_beta_violation_example():
    rep = ng.evaluate_inequality(
        InequalityId.ALPHA_BETA, L1, [1.0, 0.5], [0.0, 1.0]
    )
    assert rep.lhs == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert rep.rhs == pytest.approx(7.0 / 6.0, rel=1e-15)
    assert rep.slack == pytest.approx(-1.0 / 6.0, rel=1e-12)


def test_alpha_beta_holding_example():
    rep = ng.evaluate_inequality(InequalityId.ALPHA_BETA, L1, XC, YC)
    assert rep.lhs == pytest.approx(2.0, rel=1e-15)
    assert rep.rhs == pytest.approx(13.0 / 6.0, rel=1e-15)
    assert rep.slack > 0.0


def test_alpha_beta_swap_symmetry():
    for spec in family_specs(3):
        rng = stream(37, 0)
        x, y = sample_pair(3, rng)
        a = ng.evaluate_inequality(InequalityId.ALPHA_BETA, spec, x, y)
        b = ng.evaluate_inequality(InequalityId.ALPHA_BETA, spec, y, x)
        assert a.slack == pytest.approx(b.slack, rel=1e-12, abs=1e-14)


def test_lorch_violation_example():
    x = np.array([1.0, 0.0])
    y = np.array([-0.5, 0.5])
    gamma = 2.0 ** -0.5
    rep = ng.evaluate_inequality(InequalityId.LORCH, L1, x, y, gamma=gamma)
    assert rep.lhs == 1.0
    assert rep.rhs == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert rep.slack == pytest.approx(math.sqrt(0.5) - 1.0, rel=1e-12)


def test_lorch_gamma_one_is_exact_tie():
    for spec in family_specs(3):
        rng = stream(41, 0)
        x, y = sample_pair(3, rng)
        y = y * (ng.norm_eval(spec, x) / ng.norm_eval(spec, y))
        rep = ng.evaluate_inequality(InequalityId.LORCH, spec, x, y, gamma=1.0)
        assert rep.slack == 0.0


def test_lorch_holds_in_l2():
    spec = ng.lp_norm(2, 3)
    rng = stream(43, 0)
    for _ in range(200):
        x, y = sample_pair(3, rng)
        y = y * (ng.norm_eval(spec, x) / ng.norm_eval(spec, y))
        g = float(np.exp(rng.uniform(math.log(0.125), math.log(8.0))))
        if rng.random() < 0.5:
            g = -g
        rep = ng.evaluate_inequality(InequalityId.LORCH, spec, x, y, gamma=g)
        assert rep.slack >= -1e-12 * (1.0 + rep.lhs + rep.rhs)


def test_maligranda_examples():
    x = np.array([3.0, 0.0])
    y = np.array([0.0, 4.0])
    up = ng.evaluate_inequality(InequalityId.MALIGRANDA_UPPER, L2, x, y)
    assert up.lhs == 5.0
    assert up.rhs == pytest.approx(1.0 + 3.0 * math.sqrt(2.0), rel=1e-15)
    lo = ng.evaluate_inequality(InequalityId.MALIGRANDA_LOWER, L2, x, y)
    assert lo.rhs == 5.0
    assert lo.lhs == pytest.approx(4.0 * math.sqrt(2.0) - 1.0, rel=1e-15)
    assert up.universal and lo.universal


def test_angular_bound_examples():
    x = np.array([3.0, 0.0])
    y = np.array([0.0, 4.0])
    alpha = math.sqrt(2.0)
    lo = ng.evaluate_inequality(InequalityId.ANGULAR_LOWER, L2, x, y)
    assert lo.lhs == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert lo.rhs == pytest.approx(alpha, rel=1e-15)
    up = ng.evaluate_inequality(InequalityId.ANGULAR_UPPER, L2, x, y)
    assert up.lhs == pytest.approx(alpha, rel=1e-15)
    assert up.rhs == pytest.approx(1.5, rel=1e-15)
    ms = ng.evaluate_inequality(InequalityId.MASSERA_SCHAFFER, L2, x, y)
    assert ms.rhs == pytest.approx(2.5, rel=1e-15)
    dw = ng.evaluate_inequality(InequalityId.DUNKL_WILLIAMS_4, L2, x, y)
    assert dw.rhs == pytest.approx(20.0 / 7.0, rel=1e-15)


def test_massera_schaffer_tight_case():
    # alpha and the bound coincide when y sits on the segment scaling of x
    rep = ng.evaluate_inequality(
        InequalityId.MASSERA_SCHAFFER, L1, [1.0, 0.0], [1.0, 1.0 / 9.0]
    )
    assert rep.lhs == pytest.approx(0.2, rel=1e-12)
    assert rep.rhs == pytest.approx(0.2, rel=1e-12)
    assert abs(rep.slack) <= 1e-15


def test_bound_chain_orderings():
    # angular upper bound refines Massera-Schaffer refines Dunkl-Williams
    for spec in family_specs(3):
        rng = stream(71, 0)
        for _ in range(50):
            x, y = sample_pair(3, rng)
            au = ng.evaluate_inequality(InequalityId.ANGULAR_UPPER, spec, x, y)
            ms = ng.evaluate_inequality(InequalityId.MASSERA_SCHAFFER, spec, x, y)
            dw = ng.evaluate_inequality(InequalityId.DUNKL_WILLIAMS_4, spec, x, y)
            scale = 1e-12 * (1.0 + dw.rhs)
            assert au.rhs <= ms.rhs + scale
            assert ms.rhs <= dw.rhs + scale


def test_maligranda_refines_triangle():
    for spec in family_specs(3):
        rng = stream(73, 0)
        for _ in range(50):
            x, y = sample_pair(3, rng)
            nx = ng.norm_eval(spec, x)
            ny = ng.norm_eval(spec, y)
            up = ng.evaluate_inequality(InequalityId.MALIGRANDA_UPPER, spec, x, y)
            assert up.rhs <= nx + ny + 1e-12 * (1.0 + nx + ny)
            assert up.slack >= -1e-12 * (1.0 + up.lhs + abs(up.rhs))


def test_universal_ids_hold_on_random_pairs():
    for spec in family_specs(3):
        rng = stream(79, 0)
        for _ in range(50):
            x, y = sample_pair(3, rng)
            for iq in UNIVERSAL_IDS:
                rep = ng.evaluate_inequality(iq, spec, x, y)
                norm_slack = rep.slack / (1.0 + abs(rep.lhs) + abs(rep.rhs))
                assert norm_slack >= -1e-9, (spec.kind, iq, norm_slack)


def test_validation_errors():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    with pytest.raises(ng.NormGeoError, match="needs t"):
        ng.evaluate_inequality(InequalityId.N_ORDERING, L1, x, y)
    with pytest.raises(ng.NormGeoError, match="t in"):
        ng.evaluate_inequality(InequalityId.N_ORDERING, L1, x, y, t=1.5)
    with pytest.raises(ng.NormGeoError, match="t in"):
        ng.evaluate_inequality(InequalityId.N_ORDERING, L1, x, y, t=-0.1)
    with pytest.raises(ng.NormGeoError, match="takes no t"):
        ng.evaluate_inequality(InequalityId.MASSERA_SCHAFFER, L1, x, y, t=0.5)
    with pytest.raises(ng.NormGeoError, match="needs gamma"):
        ng.evaluate_inequality(InequalityId.LORCH, L1, x, y)
    with pytest.raises(ng.NormGeoError, match="nonzero gamma"):
        ng.evaluate_inequality(InequalityId.LORCH, L1, x, y, gamma=0.0)
    with pytest.raises(ng.NormGeoError, match="nonzero gamma"):
        ng.evaluate_inequality(InequalityId.LORCH, L1, x, y, gamma=math.inf)
    with pytest.raises(ng.NormGeoError, match="takes no gamma"):
        ng.evaluate_inequality(InequalityId.ALPHA_BETA, L1, x, y, gamma=2.0)
    with pytest.raises(ng.NormGeoError, match="rescale"):
        ng.evaluate_inequality(InequalityId.LORCH, L1, x, 2.0 * y, gamma=2.0)
    with pytest.raises(ng.ZeroVectorError):
        ng.evaluate_inequality(InequalityId.ALPHA_BETA, L1, np.zeros(2), y)
    with pytest.raises(ng.DimensionMismatchError):
        ng.evaluate_inequality(InequalityId.N_ORDERING, L1, x, [0.0, 1.0, 2.0], t=0.5)
    with pytest.raises(ng.DimensionMismatchError):
        ng.evaluate_inequality(InequalityId.LORCH, L1, [x], [y], gamma=2.0)
    with pytest.raises(ng.NormGeoError, match="finite"):
        ng.evaluate_inequality(InequalityId.N_ORDERING, L1, x, [math.nan, 1.0], t=0.5)


def test_report_dict_shape():
    rep = ng.evaluate_inequality(InequalityId.N_ORDERING, L1, XC, YC, t=0.5)
    d = rep.to_dict()
    assert d["id"] == "N_ORDERING"
    assert d["slack"] == -0.5
    assert d["witness"]["x"] == [0.0, 2.0]
    assert d["witness"]["t"] == 0.5
    assert d["witness"]["gamma"] is None
    assert d["universal"] is False


def test_batch_min_slack_universal_floor():
    for spec in (L1, ng.lp_norm(math.inf, 3), ng.quadratic_norm(random_spd(3, 7))):
        for iq in (InequalityId.MALIGRANDA_UPPER, InequalityId.DUNKL_WILLIAMS_4):
            res = ng.batch_min_slack(iq, spec, trials=5000, seed=11)
            assert res.min_normalized_slack >= -1e-9
            assert 0 <= res.trial_index < 5000


def test_batch_min_slack_finds_conditional_violations_on_l1():
    for iq in CONDITIONAL_IDS:
        res = ng.batch_min_slack(iq, L1, trials=20000, seed=5)
        assert res.report.slack < 0.0, iq
        assert res.min_normalized_slack < 0.0


def test_batch_witness_replays_exactly():
    res = ng.batch_min_slack(InequalityId.N_ORDERING, L1, trials=4096, seed=3)
    w = res.report.witness
    rep = ng.evaluate_inequality(
        InequalityId.N_ORDERING, L1, w.x, w.y, t=w.t
    )
    assert rep.slack == res.report.slack
    assert rep.lhs == res.report.lhs


def test_batch_lorch_pairs_are_equal_norm():
    res = ng.batch_min_slack(InequalityId.LORCH, L1, trials=4096, seed=9)
    w = res.report.witness
    nx = ng.norm_eval(L1, w.x)
    ny = ng.norm_eval(L1, w.y)
    assert abs(nx - ny) <= 1e-9 * max(nx, ny)
    assert w.gamma is not None and w.gamma != 0.0


def test_batch_determinism_and_worker_independence():
    kw = dict(trials=3 * 8192 + 17, seed=21)
    a = ng.batch_min_slack(InequalityId.ALPHA_BETA, L1, workers=1, **kw)
    b = ng.batch_min_slack(InequalityId.ALPHA_BETA, L1, workers=3, **kw)
    c = ng.batch_min_slack(InequalityId.ALPHA_BETA, L1, workers=1, **kw)
    assert a.to_dict() == b.to_dict() == c.to_dict()


def test_batch_input_validation():
    for trials, seed, name in ((0, 1, "trials"), (2.5, 1, "trials"), (True, 1, "trials"),
                               (100, -1, "seed"), (100, 1.5, "seed")):
        with pytest.raises(ng.NormGeoError, match=name):
            ng.batch_min_slack(InequalityId.ALPHA_BETA, L1, trials=trials, seed=seed)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_memory_does_not_grow_with_trials(workers):
    # A block's pair stacks are 8 MiB at d64. A call holds at most `workers`
    # blocks at a time, so its traced peak must not grow with the number of
    # blocks: 16 blocks stay within 1.25x of `workers` serial 2-block calls.
    spec = ng.lp_norm(2, 64)

    def peak(blocks, workers):
        return traced_peak(
            lambda: ng.batch_min_slack(
                InequalityId.MALIGRANDA_UPPER, spec, blocks * 8192, 3, workers=workers
            )
        )

    assert peak(16, workers) <= 1.25 * workers * peak(2, 1)


def test_threads_keep_a_bounded_number_of_blocks_in_flight(monkeypatch):
    # Each stubbed block returns at once, so the traced peak is what the
    # scheduling itself holds. Submitting all 20,000 blocks up front, as
    # pool.map does, takes tens of MiB in futures alone.
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    def block(iq, spec, seed, block_index, start, count):
        return 0.0, start, x, y, None, None, 0.0

    monkeypatch.setattr(ineq, "_batch_block", block)
    res = []
    peak = traced_peak(
        lambda: res.append(
            ng.batch_min_slack(InequalityId.MALIGRANDA_UPPER, L1, 20000 * 8192, 3, workers=2)
        )
    )
    assert res[0].trial_index == 0
    assert peak < 4 * 2**20


def test_batch_accepts_string_id():
    res = ng.batch_min_slack("MASSERA_SCHAFFER", L2, trials=512, seed=2)
    assert res.report.id is InequalityId.MASSERA_SCHAFFER


class RecordingThreads:
    """Stands in for ThreadPoolExecutor: records max_workers and runs each
    task in this thread."""

    def __init__(self, built):
        self.built = built

    def __call__(self, max_workers):
        self.built.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_sweep_threads_are_capped_by_workers_blocks_and_cpus(monkeypatch):
    built = []
    monkeypatch.setattr(ineq, "ThreadPoolExecutor", RecordingThreads(built))
    monkeypatch.setattr(ineq, "_usable_cpus", lambda: 4)

    def sweep(blocks, workers):
        iq = InequalityId.MALIGRANDA_UPPER
        return ng.batch_min_slack(iq, L1, blocks * 8192, 3, workers=workers).to_dict()

    for blocks in (1, 3, 6):
        serial = sweep(blocks, 1)
        for workers in (10**6, 2):
            assert sweep(blocks, workers) == serial
    # one block runs in this thread; 3 blocks take 3 threads, 6 blocks the 4 CPUs
    assert built == [3, 2, 4, 2]
