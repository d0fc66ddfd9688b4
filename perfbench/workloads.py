"""Seeded inputs of the four workloads.

`--seed` draws the gram matrices and weights of the generated norms, the
sample streams of the sweep and the inputs of the CLI commands. The
searches (`SearchConfig.seed`, the side checks, `detect --seed`) run on one
fixed seed instead: the quality figures are extremes of a randomised
search, and with a per-run search seed `pg_gap` spreads by about 40% of its
median across seeds, wider than any bound the benchmark may set. With a
fixed search seed they repeat exactly for the same code and inputs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from metrics import FAMILIES, SWEEP_DIMS

SEARCH_SEED = 20240805

DETECT_IP_WORKERS = 1
DETECT_NONIP_WORKERS = 2
SWEEP_WORKERS = 2

# Sweep trials per (inequality, norm) call: one full sweep of 72 calls takes
# about 1.5 s on a 2-core box, so a run holds several to take a median of.
SWEEP_TRIALS = 16384
# A sweep this small warms the threaded kernel up before a timed sweep.
SWEEP_WARMUP_TRIALS = 512
CLI_INEQUALITY_TRIALS = 20000


def seeded_rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


def random_spd(rng, dim):
    """Well-conditioned SPD matrix: a random rotation of eigenvalues drawn
    log-uniformly from [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.exp(rng.uniform(math.log(0.5), math.log(2.0), dim))
    g = (q * eigs) @ q.T
    return (g + g.T) / 2.0


def family_spec(ng, family, dim, rng):
    """One norm of the named sweep family; weights and grams come from rng."""
    if family == "l1":
        return ng.lp_norm(1, dim)
    if family == "l2":
        return ng.lp_norm(2, dim)
    if family == "l3":
        return ng.lp_norm(3, dim)
    if family == "linf":
        return ng.lp_norm(math.inf, dim)
    if family == "wl2":
        return ng.weighted_lp_norm(2, np.exp(rng.uniform(math.log(0.5), math.log(2.0), dim)))
    if family == "gram":
        return ng.quadratic_norm(random_spd(rng, dim))
    raise ValueError(f"unknown family {family!r}")


def detect_ip_specs(ng, seed):
    """(label, spec) pairs; every norm here comes from an inner product."""
    rng = seeded_rng(seed, 1)
    return [
        ("l2.d3", ng.lp_norm(2, 3)),
        ("gram.d2", ng.quadratic_norm(random_spd(rng, 2))),
        ("gram.d4", ng.quadratic_norm(random_spd(rng, 4))),
    ]


def detect_nonip_specs(ng, seed):
    """One norm per kernel path, all of dim 2 so the grid oracle covers them.

    The list is fixed: its verdicts are the quality reference, and a
    seed-drawn weight vector moves the weighted norm's parallelogram gap by
    a factor of 3 from seed to seed.
    """
    del seed
    return [
        ("wl1.d2", ng.weighted_lp_norm(1, [0.5, 2.0])),
        ("linf.d2", ng.lp_norm(math.inf, 2)),
        ("l3.d2", ng.lp_norm(3, 2)),
    ]


def sweep_specs(ng, seed):
    rng = seeded_rng(seed, 3)
    return [
        (f"{f}.d{d}", family_spec(ng, f, d, rng)) for d in SWEEP_DIMS for f in FAMILIES
    ]


@dataclass(frozen=True)
class CliCall:
    command: str
    args: tuple
    expected_rc: int


def cli_specs(ng, seed):
    rng = seeded_rng(seed, 4)
    return {
        "verify": ng.weighted_lp_norm(2, np.exp(rng.uniform(math.log(0.5), math.log(2.0), 4))),
        "curve": ng.lp_norm(1, 2),
        "inequalities": ng.lp_norm(math.inf, 3),
        "detect": ng.lp_norm(1, 2),
        "dw-constant": ng.quadratic_norm(random_spd(rng, 2)),
    }


def cli_plan(ng, seed, workdir):
    """Write the spec files into workdir and return the command list."""
    specs = cli_specs(ng, seed)
    paths = {}
    for command, spec in specs.items():
        path = os.path.join(workdir, f"{command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ng.spec_to_dict(spec), fh)
        paths[command] = path
    rng = seeded_rng(seed, 5)
    x = ",".join(repr(float(v)) for v in rng.uniform(-2.0, 2.0, 2))
    y = ",".join(repr(float(v)) for v in rng.uniform(-2.0, 2.0, 2))
    small_seed = int(rng.integers(0, 2**31))
    calls = (
        CliCall("verify", ("--norm", paths["verify"], "--seed", str(small_seed),
                           "--trials", "1000"), 0),
        CliCall("curve", ("--norm", paths["curve"], f"--x={x}", f"--y={y}", "--steps", "101",
                          "--out", os.path.join(workdir, "curve.csv")), 0),
        CliCall("inequalities", ("--norm", paths["inequalities"], "--seed", str(small_seed),
                                 "--trials", str(CLI_INEQUALITY_TRIALS)), 0),
        CliCall("detect", ("--norm", paths["detect"], "--seed", str(SEARCH_SEED),
                           "--restarts", "8", "--iters", "400"), 3),
        CliCall("dw-constant", ("--norm", paths["dw-constant"], "--seed", str(SEARCH_SEED),
                                "--budget", "4000"), 0),
    )
    return specs, calls


def build_specs(ng, workload, seed):
    """Every spec a workload builds and validates before it can start."""
    if workload == "detect-ip":
        return [s for _, s in detect_ip_specs(ng, seed)]
    if workload == "detect-nonip":
        return [s for _, s in detect_nonip_specs(ng, seed)]
    if workload == "sweep":
        return [s for _, s in sweep_specs(ng, seed)]
    if workload == "cli":
        return list(cli_specs(ng, seed).values())
    raise ValueError(f"unknown workload {workload!r}")
