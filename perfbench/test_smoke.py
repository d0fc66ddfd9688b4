"""Smoke tests of the benchmark itself. Not part of the package's tier-1
suite; run with

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import normgeo as ng  # noqa: E402

import metrics as M  # noqa: E402
import references as refs  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_manifest_is_current_and_within_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == M.manifest(), "run `python3 perfbench/run.py --write-manifest`"
    names = [w["name"] for w in on_disk["workloads"]]
    names += [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in on_disk["end_to_end"] + on_disk["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(on_disk["workloads"]) <= 8 and len(on_disk["per_layer"]) <= 128


@pytest.mark.parametrize("workload", [n for n, _ in M.WORKLOADS])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, *_ in M.END_TO_END}
    for name, unit, *_ in M.END_TO_END:
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(value) and value > 0, (name, value)


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "detect-ip", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == {n for n, *_ in M.PER_LAYER}
    assert values["detect.violation_search.evals.LORCH"] > 0
    assert values["norms.calls_per_eval"] >= 1
    assert values["cli.wall_s.detect"] > 0 and values["functional.n_curve.busy_s"] > 0
    printed = dict(line.split(" = ", 1) for line in proc.stdout.splitlines() if " = " in line)
    assert printed["cli.wall_s.detect"].endswith("(cli pass)")
    assert printed["functional.n_curve.busy_s"].endswith("(cli pass)")
    assert not printed["detect.violation_search.evals.LORCH"].endswith("(cli pass)")
    assert not printed["norms.ns_per_row.1.l1"].endswith("(cli pass)")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_references():
    assert refs.parallelogram_optimum(ng.lp_norm(1, 2)) == 2.0
    assert refs.parallelogram_optimum(ng.lp_norm(math.inf, 3)) == 2.0
    assert refs.parallelogram_optimum(ng.lp_norm(3, 3)) == pytest.approx(2 * (2 ** (1 / 3) - 1))
    assert refs.parallelogram_optimum(ng.lp_norm(1.5, 3)) == pytest.approx(2 * (2 ** (1 / 3) - 1))
    assert refs.parallelogram_optimum(ng.lp_norm(2, 3)) is None
    assert refs.dunkl_williams_constant(ng.weighted_lp_norm(1, [1.0, 2.0])) == 4.0
    assert refs.dunkl_williams_constant(ng.lp_norm(2, 2)) == 2.0
    assert refs.dunkl_williams_constant(ng.lp_norm(3, 2)) is None
    euclid = refs.grid_oracle(ng, ng.lp_norm(2, 2))
    assert all(v < 1e-12 for v in euclid.values())
    l1 = refs.grid_oracle(ng, ng.lp_norm(1, 2))
    assert l1["N_ORDERING"] >= 0.4 and l1["LORCH"] >= 0.25 and l1["ALPHA_BETA"] > 0


def test_scale_free_violation_ignores_witness_scale():
    assert refs.scale_free("N_ORDERING", 0.6, 1.0, 3.0) == pytest.approx(0.2)
    assert refs.scale_free("LORCH", 0.6, 2.0, 2.0) == pytest.approx(0.3)
    assert refs.scale_free("ALPHA_BETA", 0.6, 2.0, 2.0) == 0.6
    spec = ng.lp_norm(1, 2)
    x, y, t = [1.0, 0.0], [0.0, 1.0], 0.5
    small = ng.evaluate_inequality("N_ORDERING", spec, x, y, t=t)
    large = ng.evaluate_inequality("N_ORDERING", spec, [4 * v for v in x], [4 * v for v in y], t=t)
    assert refs.scale_free("N_ORDERING", -small.slack, 1.0, 1.0) == pytest.approx(
        refs.scale_free("N_ORDERING", -large.slack, 4.0, 4.0))


def test_tracer_counts_calls_from_inside_the_package_and_restores():
    original = ng.detect.violation_search
    spec = ng.lp_norm(1, 2)
    config = ng.SearchConfig(dim=2, seed=5, restarts=2, iters_per_restart=40)
    tracer = Tracer()
    with tracer:
        with tracer.span("detect.detect_inner_product"):
            verdict = ng.detect.detect_inner_product(spec, config, side_budget=20)
    assert ng.detect.violation_search is original
    searches = [s for s in tracer.spans if s[1] == "detect.violation_search"]
    assert [s[5]["objective"] for s in searches] == ["N_ORDERING", "ALPHA_BETA", "LORCH"]
    assert [s[5]["evals"] for s in searches] == [
        r.evaluations for r in verdict.per_objective.values()]
    ids = {s[0] for s in searches}
    calls = sum(c for sid, (c, _) in tracer.hot.items() if sid in ids)
    assert calls >= sum(s[5]["evals"] for s in searches)
