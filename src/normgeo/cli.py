"""Command-line interface.

Subcommands: verify, curve, inequalities, detect, dw-constant. Exit codes:
0 success / consistent, 1 input error, 2 universal-property failure,
3 violation verdict. Randomized commands require --seed and echo it, and
rerunning the same command line reproduces the numeric output byte for
byte (wall_time_s is wall-clock metadata and the worker count is never
echoed). Reports go to stdout and, with --out, to a file written
atomically; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile

from . import __version__
from .detect import (
    _SIDE_BUDGET,
    VIOLATED,
    SearchConfig,
    detect_inner_product,
    dw_constant_estimate,
)
from .errors import NormGeoError
from .functional import n_curve, write_curve_csv
from .inequalities import UNIVERSAL_IDS, batch_min_slack
from .norms import _AXIOM_TOL, load_norm_spec, spec_to_dict, validate_norm_axioms

_UNIVERSAL_SLACK_FLOOR = -1e-9


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors (exit 1); argparse's default of 2 is
    # reserved for universal-property failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_vector(text):
    parts = text.split(",")
    if any(part.strip() == "" for part in parts):
        raise NormGeoError(f"bad vector {text!r}: empty coordinate")
    try:
        return [float(part) for part in parts]
    except ValueError as exc:
        raise NormGeoError(f"bad vector {text!r}: {exc}") from exc


def _write_atomic(path, data):
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".normgeo-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        # name the path the user gave, not the temporary file beside it
        raise NormGeoError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _strict(value):
    """value with each non-finite float spelled "inf", "-inf" or "nan", as
    spec_to_dict spells p, so a report is strict JSON (RFC 8259)."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def _emit(args, spec, body):
    """Print a report, and with --out also write it: the command, tool
    version, seed and spec once, then the subcommand's body, as strict
    JSON."""
    payload = {
        "command": args.command.replace("-", "_"),
        "tool_version": __version__,
        "seed": args.seed,
        "spec": spec_to_dict(spec),
        **body,
    }
    text = json.dumps(_strict(payload), indent=2, allow_nan=False)
    print(text)
    if args.out:
        _write_atomic(args.out, text + "\n")


def _load(args):
    spec = load_norm_spec(args.norm)
    if getattr(args, "dim", None) is not None and args.dim != spec.dim:
        raise NormGeoError(f"--dim {args.dim} does not match norm dim {spec.dim}")
    return spec


def _cmd_verify(args):
    spec = _load(args)
    report = validate_norm_axioms(spec, args.trials, args.seed, tol=args.tol)
    _emit(args, spec, {"trials": args.trials, **report.to_dict()})
    return 0 if report.passed else 2


def _cmd_curve(args):
    spec = _load(args)
    x, y = _parse_vector(args.x), _parse_vector(args.y)
    rows = n_curve(spec, x, y, args.t_min, args.t_max, args.steps)
    buf = io.StringIO()
    write_curve_csv(rows, buf)
    text = buf.getvalue()
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_inequalities(args):
    spec = _load(args)
    results = {}
    worst = 0.0
    for iq in UNIVERSAL_IDS:
        batch = batch_min_slack(
            iq, spec, args.trials, args.seed, workers=args.workers
        )
        results[iq.value] = batch.to_dict()
        worst = min(worst, batch.min_normalized_slack)
    all_hold = worst >= _UNIVERSAL_SLACK_FLOOR
    body = {
        "trials": args.trials,
        "results": results,
        "worst_normalized_slack": worst,
        "all_universal_hold": all_hold,
    }
    _emit(args, spec, body)
    return 0 if all_hold else 2


def _cmd_detect(args):
    spec = _load(args)
    config = SearchConfig(
        dim=spec.dim,
        seed=args.seed,
        restarts=args.restarts,
        iters_per_restart=args.iters,
    )
    verdict = detect_inner_product(spec, config, workers=args.workers)
    _emit(args, spec, verdict.to_dict())
    return 3 if verdict.verdict == VIOLATED else 0


def _cmd_dw_constant(args):
    spec = _load(args)
    body = dw_constant_estimate(spec, args.budget, args.seed).to_dict()
    _emit(args, spec, {"estimate": body.pop("value"), **body})
    return 0


def _build_parser():
    parser = _Parser(prog="normgeo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, seed=True, dim=False, workers=False):
        p.add_argument("--norm", required=True, help="path to a norm spec JSON file")
        if seed:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (>= 0)")
        if dim:
            p.add_argument("--dim", type=int, help="expected dimension (validated)")
        if workers:
            p.add_argument(
                "--workers",
                type=int,
                default=1,
                help="inequalities: threads for the sample blocks; detect: "
                "forked processes for its four parts (three searches, side "
                "checks), at most 4, where the platform can fork (no output "
                "effect)",
            )
        p.add_argument("--out", help="also write the report here (atomic)")

    p = sub.add_parser("verify", help="sampled norm-axiom check")
    common(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tol", type=float, default=_AXIOM_TOL)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("curve", help="CSV of ||x+ty|| and ||y+tx|| on a grid")
    common(p, seed=False)
    p.add_argument("--x", required=True, help="comma-separated coordinates, e.g. 0,2")
    p.add_argument("--y", required=True)
    p.add_argument("--t-min", type=float, default=0.0, dest="t_min")
    p.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    p.add_argument("--steps", type=int, default=101, help="grid points, 2 to 8192")
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("inequalities", help="minimum sampled slack per universal inequality")
    common(p, dim=True, workers=True)
    p.add_argument("--trials", type=int, default=100000)
    p.set_defaults(fn=_cmd_inequalities)

    p = sub.add_parser("detect", help="search for inner-product violations")
    common(p, dim=True, workers=True)
    p.add_argument(
        "--restarts", type=int, default=64, help="restarts per objective, 1 to 8192"
    )
    p.add_argument("--iters", type=int, default=2000)
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("dw-constant", help="estimate the best angular-distance constant")
    common(p, dim=True)
    p.add_argument(
        "--budget", type=int, default=_SIDE_BUDGET, help="pairs sampled before the refine"
    )
    p.set_defaults(fn=_cmd_dw_constant)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NormGeoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
