"""normgeo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --write-manifest

Run from the repository root. The package is imported from ./src, never
from an installed copy. With --trace 0 the run prints every end-to-end
metric; with --trace 1 it runs one untraced and one traced unit of the
workload, whatever --seconds says, and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --smoke shrinks
every size so that a run takes seconds. --write-manifest regenerates
BENCHMARK.json from metrics.py.

Every workload reports every end-to-end metric. On the detect workloads,
sweep_trials_per_s comes from one sweep after the timed loop, marked
"(sweep pass)". The other figures a workload's own operations do not
produce come from the cli workload's command list, run once before and once
after the timed loop; the report marks each such figure "(cli pass)".
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150

import gate as gates  # noqa: E402
import kernel_probe  # noqa: E402
import metrics as M  # noqa: E402
import references as refs  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@dataclass(frozen=True)
class Size:
    search: dict  # SearchConfig overrides; empty means the defaults
    side_budget: int
    sweep_trials: int
    smoke: bool

    @classmethod
    def full(cls):
        return cls({}, 4000, W.SWEEP_TRIALS, False)

    @classmethod
    def smoke_size(cls):
        return cls({"restarts": 4, "iters_per_restart": 200}, 200, 512, True)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliRecord:
    """What the passes over the cli command list have measured so far."""

    specs: dict
    calls: tuple
    previous: dict = field(default_factory=dict)  # command -> stdout, for the repeat check
    per_call: list = field(default_factory=list)  # seconds per call, one per pass
    sweep: list = field(default_factory=list)  # inequalities trials/s, one per pass
    verdict: list = field(default_factory=list)  # detect wall_time_s, one per pass
    report: dict | None = None  # the last detect report


def _exited_zero(proc):
    if proc.returncode == 0:
        return []
    return [f"exited {proc.returncode}: {proc.stderr.strip()[-200:]}"]


def median(values):
    return statistics.median(values) if values else float("nan")


class Bench:
    def __init__(self, ng, args, size, workdir):
        self.ng = ng
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = size
        self.workdir = workdir
        self.gate = gates.Gate()
        self.env = child_env()
        self.notes = []  # human-readable lines: references beside found values
        self._oracles = {}
        self.child_import_s = []
        self.setup_times = []
        self.setup_wall = 0.0  # seconds spent in set-up reps, measured or not

    # ----- set-up ---------------------------------------------------------

    def setup_rep(self, measured=True):
        """One fresh interpreter that imports normgeo and builds and validates
        the workload's specs, timed whole; the time goes to setup_times."""
        argv = [sys.executable, CHILD, "setup", self.workload, str(self.seed)]
        t0 = time.perf_counter()
        proc = self.gate.run("setup", lambda: subprocess.run(
            argv, capture_output=True, text=True, env=self.env, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S), check=_exited_zero)
        took = time.perf_counter() - t0
        self.setup_wall += took
        if measured and proc is not None and proc.returncode == 0:
            self.setup_times.append(took)

    def repeat(self, unit, between=None):
        """Run unit() until the next run would end after --seconds of unit
        time; at least once. between(), if given, runs between two units.
        Set-up reps, here or inside a unit, are not counted. Returns the
        results in order."""
        results = []
        spent = 0.0
        while True:
            t0, setup0 = time.perf_counter(), self.setup_wall
            results.append(unit())
            took = time.perf_counter() - t0 - (self.setup_wall - setup0)
            spent += took
            if spent + took > self.seconds:
                return results
            if between is not None:
                between()

    # ----- quality --------------------------------------------------------

    def oracle(self, label, spec):
        if label not in self._oracles:
            self._oracles[label] = refs.grid_oracle(self.ng, spec)
        return self._oracles[label]

    def quality(self, found):
        """pg_gap, dw_gap and violation_ratio over norms without an inner
        product. found: (label, spec, parallelogram value, dw value,
        {objective: (best_violation, witness x, witness y)}). On
        inner-product norms both optima are met to rounding, which is no
        quality figure, so they are left out. violation_ratio compares
        scale-free violations (references.scale_free) on both sides."""
        pg, dw, ratio = [], [], []
        for label, spec, pg_value, dw_value, best in found:
            exact = refs.parallelogram_optimum(spec)
            if exact is not None:
                pg.append((exact - pg_value) / exact)
                self.notes.append(f"reference {label} parallelogram: found {pg_value!r} "
                                  f"exact {exact!r} gap {pg[-1]:.3e}")
            known = refs.dunkl_williams_constant(spec)
            if known is not None and known != 2.0:
                dw.append(abs(known - dw_value))
                self.notes.append(f"reference {label} dunkl-williams: found {dw_value!r} "
                                  f"known {known!r} gap {dw[-1]:.3e}")
            if spec.dim == 2:
                oracle = self.oracle(label, spec)
                for objective, (violation, x, y) in best.items():
                    value = float(refs.scale_free(objective, violation, self.ng.norm_eval(spec, x),
                                                  self.ng.norm_eval(spec, y)))
                    ratio.append(value / oracle[objective])
                    self.notes.append(f"reference {label} {objective}: found {value!r} "
                                      f"grid oracle {oracle[objective]!r} ratio {ratio[-1]:.4f}")
        out = {}
        if pg:
            out["pg_gap"] = max(pg)
        if dw:
            out["dw_gap"] = max(dw)
        if ratio:
            out["violation_ratio"] = min(ratio)
        return out

    # ----- detect workloads -----------------------------------------------

    def _config(self, spec, **overrides):
        return self.ng.SearchConfig(dim=spec.dim, seed=W.SEARCH_SEED, **{**self.size.search, **overrides})

    def _detect_inputs(self):
        if self.workload == "detect-ip":
            return W.detect_ip_specs(self.ng, self.seed), True, W.DETECT_IP_WORKERS
        return W.detect_nonip_specs(self.ng, self.seed), False, W.DETECT_NONIP_WORKERS

    def detect_warmup(self):
        specs, _, workers = self._detect_inputs()
        spec = specs[-1][1]
        self.ng.detect_inner_product(spec, self._config(spec, restarts=2, iters_per_restart=50),
                                     workers=workers, side_budget=50)

    def detect_pass(self, tracer=None, between=None):
        """detect_inner_product over the whole norm list; returns the summed
        wall time of the calls and the verdicts. between(), if given, runs
        between two calls and is not counted."""
        specs, inner_product, workers = self._detect_inputs()
        verdicts = []
        wall = 0.0
        for i, (label, spec) in enumerate(specs):
            if i and between is not None:
                between()
            def call(spec=spec, label=label):
                span = nullcontext() if tracer is None else tracer.span(
                    "detect.detect_inner_product", family=label)
                with span:
                    return self.ng.detect_inner_product(spec, self._config(spec), workers=workers,
                                                        side_budget=self.size.side_budget)

            t0 = time.perf_counter()
            verdict = self.gate.run(
                f"detect {label}", call,
                lambda v, spec=spec: gates.check_verdict(self.ng, spec, v, inner_product))
            wall += time.perf_counter() - t0
            verdicts.append((label, spec, verdict))
        return wall, verdicts

    def detect_metrics(self, between):
        """verdict_s, and on detect-nonip what quality() needs of the last
        pass's verdicts."""
        self.detect_warmup()
        results = self.repeat(lambda: self.detect_pass(between=between), between)
        passes = [wall for wall, _ in results]
        verdicts = results[-1][1]
        out = {"verdict_s": median(passes) / len(verdicts)}
        found = []
        self.notes.append(f"detect passes: {len(passes)} of {len(verdicts)} norms, "
                          f"seconds per pass {[round(p, 3) for p in passes]}")
        self.notes.append("last pass, seconds per norm: " + ", ".join(
            f"{label} {v.wall_time_s:.3f}" for label, _, v in verdicts if v is not None))
        if self.workload == "detect-nonip":
            found = [
                (label, spec, v.parallelogram.value, v.dw_estimate.value,
                 {k.value: (r.best_violation, r.witness.x, r.witness.y)
                  for k, r in v.per_objective.items()})
                for label, spec, v in verdicts if v is not None]
        return out, found

    # ----- sweep ----------------------------------------------------------

    def sweep_rep(self, trials=None):
        trials = trials or self.size.sweep_trials
        specs = W.sweep_specs(self.ng, self.seed)
        batch_seed = int(W.seeded_rng(self.seed, 7).integers(0, 2**31))
        t0 = time.perf_counter()
        for label, spec in specs:
            for iq in self.ng.UNIVERSAL_IDS:
                self.gate.run(
                    f"sweep {label} {iq.value}",
                    lambda iq=iq, spec=spec: self.ng.inequalities.batch_min_slack(
                        iq, spec, trials, batch_seed, workers=W.SWEEP_WORKERS),
                    gates.check_batch)
        return time.perf_counter() - t0, len(specs) * len(self.ng.UNIVERSAL_IDS) * trials

    def sweep_metrics(self, between):
        self.sweep_rep()  # warm-up: the first threaded repetition runs slow
        results = self.repeat(self.sweep_rep, between)
        reps = [wall for wall, _ in results]
        trials = results[-1][1]
        self.notes.append(f"sweep repetitions: {len(reps)}, {trials} trials each, "
                          f"seconds {[round(r, 3) for r in reps]}")
        return {"sweep_trials_per_s": trials / median(reps)}

    def sweep_probe(self):
        """sweep_trials_per_s for the detect workloads, whose own work runs no
        sweep: one full sweep after a small warm-up sweep, in this process,
        so that it times batch_min_slack and not interpreter start-up."""
        self.sweep_rep(trials=W.SWEEP_WARMUP_TRIALS)
        wall, trials = self.sweep_rep()
        self.notes.append(f"sweep pass: {trials} trials in {wall:.3f} s")
        return trials / wall

    # ----- cli ------------------------------------------------------------

    def cli_pass(self, calls, specs, previous, tracer=None, between=None):
        """Run the command list once, each call a fresh process. Returns wall
        time per command and the parsed detect report. between(), if given,
        runs between two calls."""
        walls, detect_report = {}, None
        for i, call in enumerate(calls):
            if i and between is not None:
                between()
            if tracer is None:
                argv = [sys.executable, "-m", "normgeo.cli", call.command, *call.args]
            else:
                trace_file = os.path.join(self.workdir, f"child-{len(tracer.spans)}.json")
                argv = [sys.executable, CHILD, "cli", trace_file, "--", call.command, *call.args]
            label = f"cli {call.command}"
            try:
                t0 = time.perf_counter()
                proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                                      cwd=ROOT, timeout=CHILD_TIMEOUT_S)
                walls[call.command] = time.perf_counter() - t0
                reasons = gates.check_cli(self.ng, call, proc.returncode, proc.stdout, proc.stderr,
                                          specs[call.command],
                                          os.path.join(self.workdir, "curve.csv"),
                                          previous.get(call.command))
                previous[call.command] = gates.strip_wall_time(proc.stdout)
                if call.command == "detect" and not reasons:
                    detect_report = json.loads(proc.stdout)
                if tracer is not None and proc.returncode == call.expected_rc:
                    with open(trace_file, encoding="utf-8") as fh:
                        dumped = json.load(fh)
                    with tracer.span(f"cli.{call.command}"):
                        tracer.merge(dumped)
                    self.child_import_s.append(dumped["import_s"])
            except Exception as exc:  # a failed call is counted, never fatal
                reasons = [f"raised {exc!r}"]
            self.gate.record(label, reasons)
        return walls, detect_report

    def cli_round(self, record, between=None):
        """One timed pass over the command list, added to record."""
        walls, report = self.cli_pass(record.calls, record.specs, record.previous,
                                      between=between)
        if len(walls) == len(record.calls):
            record.per_call.append(sum(walls.values()) / len(walls))
            trials = len(self.ng.UNIVERSAL_IDS) * W.CLI_INEQUALITY_TRIALS
            record.sweep.append(trials / walls["inequalities"])
        if report is not None:
            record.verdict.append(report["wall_time_s"])
            record.report = report

    def cli_figures(self, record):
        """Medians over the passes in record."""
        self.notes.append(f"cli passes: {len(record.per_call)}, seconds per call "
                          f"{[round(c, 3) for c in record.per_call]}")
        return {"cli_s": median(record.per_call), "sweep_trials_per_s": median(record.sweep),
                "verdict_s": median(record.verdict)}

    @staticmethod
    def cli_found(record):
        """What quality() needs of the last detect report in record."""
        report = record.report
        if report is None:
            return []
        return [("cli detect l1.d2", record.specs["detect"], report["parallelogram"]["value"],
                 report["dw_estimate"]["value"],
                 {k: (v["best_violation"], np.asarray(v["witness"]["x"]),
                      np.asarray(v["witness"]["y"]))
                  for k, v in report["per_objective"].items()})]

    # ----- runs -----------------------------------------------------------

    def untraced(self):
        """Every end-to-end metric, and where each came from.

        Workloads other than cli run one cli pass before their timed loop
        and one after it, so that the figures taken from it span the run.
        The set-up reps are spread over the run too: one after an unmeasured
        rep that writes the bytecode cache, one between every two timed
        operations (units, cli passes, the norms of a detect pass and, on
        the cli workload, the calls of a cli pass) and one at the end.
        setup_s is their median.
        """
        self.setup_rep(measured=False)
        self.setup_rep()
        specs, calls = W.cli_plan(self.ng, self.seed, self.workdir)
        record = CliRecord(specs, calls)
        found = []
        if self.workload == "cli":
            self.repeat(lambda: self.cli_round(record, self.setup_rep), self.setup_rep)
            own = self.cli_figures(record)
            found = self.cli_found(record)
        else:
            self.cli_round(record)
            self.setup_rep()
            if self.workload == "sweep":
                own = self.sweep_metrics(self.setup_rep)
            else:
                own, found = self.detect_metrics(self.setup_rep)
            self.setup_rep()
            self.cli_round(record)
        # The peak is read before any quality reference is computed: the grid
        # oracle's arrays belong to the benchmark, not to the program.
        who = resource.RUSAGE_CHILDREN if self.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        probe = {}
        if self.workload in ("detect-ip", "detect-nonip"):
            probe["sweep_trials_per_s"] = self.sweep_probe()
        self.setup_rep()
        self.notes.append(f"setup reps: {len(self.setup_times)}, seconds "
                          f"{[round(t, 3) for t in self.setup_times]}")
        values = {"setup_s": median(self.setup_times), "peak_rss_mb": peak_rss_mb}
        source = {"setup_s": "own",
                  "peak_rss_mb": "largest child" if self.workload == "cli" else "own"}
        values.update(own)
        source.update(dict.fromkeys(own, "own"))
        values.update(probe)
        source.update(dict.fromkeys(probe, "sweep pass"))
        if self.workload != "cli":
            for name, value in self.cli_figures(record).items():
                if name not in values:
                    values[name] = value
                    source[name] = "cli pass"
        quality_source = "own"
        if not found:
            found = self.cli_found(record)
            quality_source = "cli pass"
        quality = self.quality(found)
        values.update(quality)
        source.update(dict.fromkeys(quality, quality_source))
        return values, source

    def unit(self, tracer=None):
        """One unit of the workload's own work, timed. Returns the seconds and,
        for the cli workload, each command's wall time."""
        t0 = time.perf_counter()
        walls = {}
        if self.workload == "cli":
            specs, calls = W.cli_plan(self.ng, self.seed, self.workdir)
            walls, _ = self.cli_pass(calls, specs, {}, tracer)
        elif self.workload == "sweep":
            self.sweep_rep()
        else:
            self.detect_pass(tracer)
        return time.perf_counter() - t0, walls

    def traced(self):
        """Per-layer metrics from one traced unit, after one untraced unit;
        their difference is the tracing overhead. Workloads other than cli
        then run one cli pass under a second tracer. As with the end-to-end
        figures, a figure the workload's own unit produces (nonzero) is
        reported from that unit, and any other from the cli pass. Returns
        the values and, for each figure from the cli pass, "cli pass"."""
        if self.workload == "sweep":
            self.sweep_rep()
        elif self.workload != "cli":
            self.detect_warmup()
        untraced, _ = self.unit()
        own = Tracer()
        with own:
            traced, cli_walls = self.unit(own)
        own.write(os.path.join(self.workdir, "trace.json"))
        values = layer_metrics(own)
        source = {}
        if self.workload != "cli":
            cli = Tracer()
            with cli:
                specs, calls = W.cli_plan(self.ng, self.seed, self.workdir)
                cli_walls, _ = self.cli_pass(calls, specs, {}, cli)
            cli.write(os.path.join(self.workdir, "trace-cli-pass.json"))
            for name, value in layer_metrics(cli).items():
                if not values[name] and value:
                    values[name] = value
                    source[name] = "cli pass"
            source.update(dict.fromkeys(
                [f"cli.wall_s.{command}" for command in cli_walls] + ["cli.import_s"], "cli pass"))
        values.update(kernel_probe.probe(self.ng, self.seed, smoke=self.size.smoke))
        values["norms.spec_build_us"] = self.spec_build_us()
        for command, wall in cli_walls.items():
            values[f"cli.wall_s.{command}"] = wall
        values["cli.import_s"] = median(self.child_import_s) if self.child_import_s else 0.0
        values["trace.overhead"] = (traced - untraced) / untraced
        self.notes.append(f"unit seconds: untraced {untraced:.3f}, traced {traced:.3f}")
        return values, source

    def spec_build_us(self):
        reps = 3 if self.size.smoke else 50
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            W.build_specs(self.ng, self.workload, self.seed)
            times.append(time.perf_counter() - t0)
        return median(times) * 1e6


def layer_metrics(tracer):
    """Per-layer figures from the spans; a layer this workload never reaches
    reads 0."""
    out = {name: 0 for name, *_ in M.PER_LAYER}
    spans = tracer.spans

    def busy(selected):
        return sum(s[4] - s[3] for s in selected)

    searches = [s for s in spans if s[1] == "detect.violation_search"]
    for objective in M.OBJECTIVES:
        chosen = [s for s in searches if s[5]["objective"] == objective]
        evals = sum(s[5]["evals"] for s in chosen)
        budget = sum(s[5]["budget"] for s in chosen)
        out[f"detect.violation_search.busy_s.{objective}"] = busy(chosen)
        out[f"detect.violation_search.evals.{objective}"] = evals
        out[f"detect.budget_use.{objective}"] = evals / budget if budget else 0
    search_busy = busy(searches)
    search_evals = sum(s[5]["evals"] for s in searches)
    verdict_busy = busy(s for s in spans if s[1] == "detect.detect_inner_product")
    out["detect.evals_per_s"] = search_evals / search_busy if search_busy else 0
    out["detect.violation_search.share"] = search_busy / verdict_busy if verdict_busy else 0
    for short in ("parallelogram", "dw"):
        chosen = [s for s in spans if s[1] == f"detect.{short}"]
        out[f"detect.{short}.busy_s"] = busy(chosen)
        out[f"detect.{short}.evals"] = sum(s[5]["evals"] for s in chosen)
    search_ids = {s[0] for s in searches}
    hot = tracer.hot
    calls_in_search = sum(c for sid, (c, _) in hot.items() if sid in search_ids)
    out["norms.calls_per_eval"] = calls_in_search / search_evals if search_evals else 0
    out["norms.norm_eval.calls"] = sum(c for c, _ in hot.values())
    out["norms.norm_eval.busy_s"] = sum(t for _, t in hot.values())
    for s in spans:
        if s[1] == "inequalities.batch_min_slack":
            key = f"inequalities.batch_min_slack.busy_s.{s[5]['family']}.d{s[5]['dim']}"
            if key in out:
                out[key] += s[4] - s[3]
            out["inequalities.batch_min_slack.busy_s"] += s[4] - s[3]
    out["inequalities.evaluate_inequality.calls"] = sum(
        1 for s in spans if s[1] == "inequalities.evaluate_inequality")
    out["functional.n_curve.busy_s"] = busy(s for s in spans if s[1] == "functional.n_curve")
    for layer, secs in self_times(tracer).items():
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] = secs
    return out


def write_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(M.manifest(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def load_package():
    """Import normgeo from ./src; exit 2 when the checkout has no package."""
    init = os.path.join(SRC, "normgeo", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: no package source at {init}; run from a repository checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import normgeo

    if os.path.abspath(normgeo.__file__) != init:
        print(f"error: normgeo imported from {normgeo.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)
    return normgeo


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in M.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=M.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; finishes in seconds")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.write_manifest:
        write_manifest()
        return 0
    ng = load_package()
    size = Size.smoke_size() if args.smoke else Size.full()
    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    bench = Bench(ng, args, size, workdir)
    if args.trace:
        values, source = bench.traced()
        names = M.PER_LAYER
    else:
        values, source = bench.untraced()
        names = M.END_TO_END
    g = bench.gate
    for note in bench.notes:
        print(note)
    for name, *_ in names:
        tag = f" ({source[name]})" if source.get(name, "own") != "own" else ""
        print(f"{name} = {values[name]!r} {M.UNITS[name]}{tag}")
    print(f"error_rate = {g.failed / max(g.attempted, 1)!r} ratio "
          f"({g.failed} failed of {g.attempted} operations)")
    for label, reason in g.failures:
        print(f"FAILED {label}: {reason}")
    result = {
        "correct": g.failed == 0,
        "attempted": g.attempted,
        "failed": g.failed,
        "metrics": {name: {"value": values[name], "unit": M.UNITS[name]} for name, *_ in names},
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "notes": bench.notes, "failures": g.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
