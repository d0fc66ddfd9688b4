"""Names, units and bounds of every figure the benchmark reports.

`BENCHMARK.json` at the repository root is generated from these tables
(`python3 perfbench/run.py --write-manifest`), and the smoke test checks
that the committed file still matches them.
"""

from __future__ import annotations

RUN_SECONDS = 16

WORKLOADS = (
    (
        "detect-ip",
        "detect_inner_product with the default search on inner-product norms, "
        "where the searches take most of each verdict's time: the hot path a "
        "faster search must speed up",
    ),
    (
        "detect-nonip",
        "the same search on one norm per kernel path (p=1 weighted, p=inf, "
        "general p) with 2 worker threads; closed-form optima guard its quality",
    ),
    (
        "sweep",
        "batch_min_slack on 8192-row blocks for six families at d8 and d64; no "
        "search runs, so it bypasses search changes and exposes the kernel",
    ),
    (
        "cli",
        "the five subcommands as fresh processes on small inputs: start-up, "
        "JSON emit, the atomic write and n_curve are only reached here",
    ),
)

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("verdict_s", "s/verdict", "lower", 0.25),
    ("sweep_trials_per_s", "trials/s", "higher", 0.25),
    ("cli_s", "s/call", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("pg_gap", "ratio", "lower", 0.25),
    ("dw_gap", "abs", "lower", 0.25),
    ("violation_ratio", "ratio", "higher", 0.1),
)

FAMILIES = ("l1", "l2", "l3", "linf", "wl2", "gram")
SWEEP_DIMS = (8, 64)
OBJECTIVES = ("N_ORDERING", "ALPHA_BETA", "LORCH")
CLI_COMMANDS = ("verify", "curve", "inequalities", "detect", "dw-constant")
LAYERS = ("norms", "inequalities", "detect", "functional", "cli")


def _per_layer():
    rows = []
    rows += [(f"norms.ns_per_row.1.{f}", "ns", "lower") for f in FAMILIES]
    rows += [
        (f"norms.ns_per_row.8192.{f}.d{d}", "ns", "lower")
        for d in SWEEP_DIMS
        for f in FAMILIES
    ]
    rows += [
        (f"norms.row_mismatch.{f}.d{d}", "count", "lower")
        for d in SWEEP_DIMS
        for f in FAMILIES
    ]
    rows += [
        ("norms.calls_per_eval", "calls/eval", "lower"),
        ("norms.norm_eval.calls", "count", "lower"),
        ("norms.norm_eval.busy_s", "s", "lower"),
        ("norms.spec_build_us", "us", "lower"),
    ]
    rows += [(f"detect.violation_search.busy_s.{o}", "s", "lower") for o in OBJECTIVES]
    rows += [(f"detect.violation_search.evals.{o}", "count", "lower") for o in OBJECTIVES]
    rows += [(f"detect.budget_use.{o}", "ratio", "lower") for o in OBJECTIVES]
    rows += [
        ("detect.violation_search.share", "ratio", "lower"),
        ("detect.evals_per_s", "evals/s", "higher"),
        ("detect.parallelogram.busy_s", "s", "lower"),
        ("detect.parallelogram.evals", "count", "lower"),
        ("detect.dw.busy_s", "s", "lower"),
        ("detect.dw.evals", "count", "lower"),
    ]
    rows += [
        (f"inequalities.batch_min_slack.busy_s.{f}.d{d}", "s", "lower")
        for d in SWEEP_DIMS
        for f in FAMILIES
    ]
    rows += [
        ("inequalities.batch_min_slack.busy_s", "s", "lower"),
        ("inequalities.evaluate_inequality.calls", "count", "lower"),
        ("functional.n_curve.busy_s", "s", "lower"),
    ]
    rows += [(f"cli.wall_s.{c}", "s", "lower") for c in CLI_COMMANDS]
    rows += [("cli.import_s", "s", "lower")]
    rows += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    rows += [("trace.overhead", "ratio", "lower")]
    return tuple(rows)


PER_LAYER = _per_layer()

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
