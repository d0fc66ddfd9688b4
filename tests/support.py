"""Shared helpers for the test suite."""

import math
import tracemalloc

import numpy as np

import normgeo as ng

# filled by test_acceptance, echoed by the conftest terminal-summary hook
ACCEPTANCE_LINES = []


def record_criterion(number, failures):
    """Append one pass/fail line; failures is a list of reasons (empty = pass)."""
    status = "PASS" if not failures else "FAIL"
    ACCEPTANCE_LINES.append(f"[criterion {number}] {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def traced_peak(fn):
    """Call fn() under tracemalloc and return the peak traced bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_spd(dim, seed, eig_lo=0.5, eig_hi=2.0):
    """Well-conditioned random SPD gram via a random rotation of log-uniform
    eigenvalues."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    eigs = np.exp(rng.uniform(math.log(eig_lo), math.log(eig_hi), dim))
    return (q * eigs) @ q.T


def family_specs(dim=3):
    """One spec per norm family at a common dimension."""
    return [
        ng.lp_norm(1, dim),
        ng.lp_norm(2, dim),
        ng.lp_norm(3, dim),
        ng.lp_norm(math.inf, dim),
        ng.weighted_lp_norm(2, np.linspace(0.5, 2.5, dim)),
        ng.quadratic_norm(random_spd(dim, seed=42)),
    ]
