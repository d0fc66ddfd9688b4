"""Correctness gate. Every operation the benchmark runs is counted here, and
each failed check is kept with the operation it failed on; `error_rate` is
failed / attempted."""

from __future__ import annotations

import json
import math

UNIVERSAL_SLACK_FLOOR = -1e-9
CONSISTENT_MAX_VIOLATION = 1e-8


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (operation label, reason)

    def record(self, label, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.extend((label, reason) for reason in reasons)

    def run(self, label, fn, check=None):
        """Call fn(); an exception or a failed check marks the operation failed.
        Returns fn's result, or None when it raised."""
        try:
            result = fn()
        except Exception as exc:  # any exception is a failed operation
            self.record(label, [f"raised {exc!r}"])
            return None
        self.record(label, check(result) if check else [])
        return result


def replay_misses(ng, spec, results):
    """Replay each (objective, witness, witness_slack) through
    evaluate_inequality; the slack must come back to the bit."""
    reasons = []
    for objective, witness, slack in results:
        report = ng.evaluate_inequality(
            objective, spec, witness["x"], witness["y"],
            t=witness.get("t"), gamma=witness.get("gamma"),
        )
        if report.slack != slack:
            reasons.append(
                f"{objective} witness replays to {report.slack!r}, reported {slack!r}"
            )
    return reasons


def check_verdict(ng, spec, verdict, inner_product):
    """Checks on one detect_inner_product result."""
    reasons = []
    per = verdict.per_objective
    if inner_product:
        if verdict.verdict != ng.CONSISTENT:
            reasons.append(f"verdict {verdict.verdict} on an inner-product norm")
        top = max(r.best_violation for r in per.values())
        if top > CONSISTENT_MAX_VIOLATION:
            reasons.append(f"best_violation {top:.3e} > {CONSISTENT_MAX_VIOLATION}")
        if verdict.discrepancy_flagged:
            reasons.append("discrepancy flagged")
    elif verdict.verdict != ng.VIOLATED:
        reasons.append(f"verdict {verdict.verdict} on a norm with no inner product")
    reasons += replay_misses(
        ng,
        spec,
        [(r.objective.value, r.witness.to_dict(), r.witness_slack) for r in per.values()],
    )
    return reasons


def check_batch(result):
    if not result.min_normalized_slack >= UNIVERSAL_SLACK_FLOOR:
        return [
            f"{result.report.id.value}: universal slack "
            f"{result.min_normalized_slack:.3e} < {UNIVERSAL_SLACK_FLOOR}"
        ]
    return []


def strip_wall_time(stdout):
    """CLI stdout with the one field allowed to vary removed."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    if isinstance(payload, dict):
        payload.pop("wall_time_s", None)
    return json.dumps(payload, sort_keys=True)


def check_cli(ng, call, rc, stdout, stderr, spec, curve_path, previous):
    """Exit code, output shape and repeat-determinism of one CLI call."""
    reasons = []
    if rc != call.expected_rc:
        tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
        reasons.append(f"exit code {rc}, expected {call.expected_rc} {tail}")
        return reasons
    if previous is not None and strip_wall_time(stdout) != previous:
        reasons.append("stdout differs from the previous run of the same command")
    if call.command == "curve":
        with open(curve_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[:1] != ["t,n_xy,n_yx"] or len(lines) != 102:
            reasons.append(f"curve file has {len(lines)} lines")
        return reasons
    payload = json.loads(stdout)
    if call.command == "verify" and payload["passed"] is not True:
        reasons.append("verify did not pass")
    if call.command == "inequalities":
        if payload["worst_normalized_slack"] < UNIVERSAL_SLACK_FLOOR:
            reasons.append(f"universal slack {payload['worst_normalized_slack']:.3e}")
    if call.command == "detect":
        if payload["verdict"] != ng.VIOLATED:
            reasons.append(f"verdict {payload['verdict']} on l_1")
        reasons += replay_misses(
            ng,
            spec,
            [(k, v["witness"], v["witness_slack"]) for k, v in payload["per_objective"].items()],
        )
    if call.command == "dw-constant" and not math.isfinite(payload["estimate"]):
        reasons.append("dw estimate is not finite")
    return reasons
