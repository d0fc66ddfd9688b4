"""Kernel probe: public norm_eval on 1-row and 8192-row stacks, and the
count of rows whose batched value differs in bits from the 1-row value.
The program receives only the arrays generated here from the seed."""

from __future__ import annotations

import statistics
import time

import numpy as np

from metrics import FAMILIES, SWEEP_DIMS
from workloads import seeded_rng, family_spec

ONE_ROW_DIM = 4  # the dims detect runs at are 2 to 4
ONE_ROW_CALLS = 2000
STACK_ROWS = 8192
MISMATCH_ROWS = 1000


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe(ng, seed, smoke=False):
    rng = seeded_rng(seed, 6)
    calls = 50 if smoke else ONE_ROW_CALLS
    reps = 1 if smoke else 5
    out = {}
    for f in FAMILIES:
        spec = family_spec(ng, f, ONE_ROW_DIM, rng)
        x = rng.standard_normal(ONE_ROW_DIM)

        def one_row(spec=spec, x=x):
            for _ in range(calls):
                ng.norm_eval(spec, x)

        out[f"norms.ns_per_row.1.{f}"] = _median_time(one_row, reps) / calls * 1e9
    for d in SWEEP_DIMS:
        for f in FAMILIES:
            spec = family_spec(ng, f, d, rng)
            stack = rng.standard_normal((STACK_ROWS, d))
            t = _median_time(lambda spec=spec, stack=stack: ng.norm_eval(spec, stack), reps * 4)
            out[f"norms.ns_per_row.8192.{f}.d{d}"] = t / STACK_ROWS * 1e9
            rows = stack[:MISMATCH_ROWS]
            batched = ng.norm_eval(spec, rows)
            single = np.array([ng.norm_eval(spec, r) for r in rows])
            out[f"norms.row_mismatch.{f}.d{d}"] = int((batched != single).sum())
    return out
