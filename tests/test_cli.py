import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normgeo as ng
from normgeo.cli import main


@pytest.fixture
def specs(tmp_path):
    paths = {}

    def put(name, payload):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)

    put("l1", {"kind": "lp", "p": 1, "dim": 2})
    put("l2", {"kind": "lp", "p": 2, "dim": 2})
    put("linf", {"kind": "lp", "p": "inf", "dim": 2})
    put("quad", {"kind": "quadratic", "dim": 2, "gram": [[2.0, 0.5], [0.5, 1.0]]})
    put(
        "indefinite",
        {"kind": "quadratic", "dim": 2, "gram": [[1.0, 2.0], [2.0, 1.0]]},
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    return paths


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_passes_on_lp(specs, capsys):
    rc, out, err = run(
        capsys, "verify", "--norm", specs["l2"], "--seed", "1", "--trials", "500"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert payload["tool_version"] == ng.__version__
    assert payload["seed"] == 1
    assert payload["spec"] == {"kind": "lp", "p": 2.0, "dim": 2}
    assert payload["passed"] is True
    assert payload["trials"] == 500


def test_verify_indefinite_gram_is_input_error(specs, capsys):
    rc, out, err = run(capsys, "verify", "--norm", specs["indefinite"], "--seed", "1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


def test_verify_failure_exits_two(specs, capsys, monkeypatch):
    # no JSON-expressible spec fails the axioms, so stub the report
    class FakeReport:
        passed = False

        def to_dict(self):
            return {"passed": False}

    monkeypatch.setattr(
        "normgeo.cli.validate_norm_axioms", lambda *a, **k: FakeReport()
    )
    rc, out, _ = run(capsys, "verify", "--norm", specs["l2"], "--seed", "1")
    assert rc == 2
    assert json.loads(out)["passed"] is False


def test_curve_stdout(specs, capsys):
    rc, out, _ = run(
        capsys,
        "curve",
        "--norm",
        specs["l1"],
        "--x",
        "0,2",
        "--y",
        "2,-1",
        "--steps",
        "3",
    )
    assert rc == 0
    assert out.splitlines() == ["t,n_xy,n_yx", "0,2,3", "0.5,2.5,2", "1,3,3"]


def test_curve_of_a_huge_vector_stays_finite(tmp_path, capsys):
    spec = tmp_path / "l2.json"
    spec.write_text(json.dumps({"kind": "lp", "p": 2, "dim": 3}))
    rc, out, err = run(
        capsys, "curve", "--norm", str(spec), "--x", "1e200,0,0", "--y", "0,1,0"
    )
    assert rc == 0 and err == ""
    assert "inf" not in out
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows and all(0.0 < float(v) < math.inf for row in rows for v in row[1:])


def test_curve_out_file_matches_stdout(specs, capsys, tmp_path):
    argv = ["curve", "--norm", specs["l1"], "--x", "0,2", "--y", "2,-1"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    target = tmp_path / "curve.csv"
    rc2, out2, _ = run(capsys, *argv, "--out", str(target))
    assert rc2 == 0
    assert out2 == ""
    assert target.read_text() == out
    assert len(out.splitlines()) == 102
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".normgeo-")]
    assert leftovers == []


def test_curve_rejects_bad_vector(specs, capsys):
    rc, _, err = run(
        capsys, "curve", "--norm", specs["l1"], "--x", "0,zz", "--y", "1,2"
    )
    assert rc == 1
    assert "bad vector" in err


def test_curve_rejects_wrong_length(specs, capsys):
    rc, _, err = run(capsys, "curve", "--norm", specs["l1"], "--x", "1", "--y", "1,2")
    assert rc == 1
    assert err.startswith("error:")


def test_curve_rejects_degenerate_grid(specs, capsys):
    rc, _, err = run(
        capsys,
        "curve",
        "--norm",
        specs["l1"],
        "--x",
        "1,0",
        "--y",
        "0,1",
        "--t-min",
        "1",
        "--t-max",
        "0",
    )
    assert rc == 1
    assert err.startswith("error:")


def test_inequalities_hold_and_echo_seed(specs, capsys):
    rc, out, _ = run(
        capsys,
        "inequalities",
        "--norm",
        specs["linf"],
        "--seed",
        "5",
        "--trials",
        "2000",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_universal_hold"] is True
    assert payload["worst_normalized_slack"] >= -1e-9
    assert len(payload["results"]) == 6
    assert payload["trials"] == 2000
    assert payload["seed"] == 5


def test_inequalities_dim_mismatch(specs, capsys):
    rc, _, err = run(
        capsys,
        "inequalities",
        "--norm",
        specs["l1"],
        "--seed",
        "5",
        "--trials",
        "100",
        "--dim",
        "3",
    )
    assert rc == 1
    assert "--dim" in err


def test_inequalities_byte_determinism_across_workers(specs, capsys):
    argv = [
        "inequalities",
        "--norm",
        specs["quad"],
        "--seed",
        "5",
        "--trials",
        "2000",
    ]
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv, "--workers", "4")
    _, c, _ = run(capsys, *argv)
    assert a == b == c
    assert "workers" not in a


def test_detect_violated_exit_code(specs, capsys):
    rc, out, _ = run(
        capsys,
        "detect",
        "--norm",
        specs["l1"],
        "--seed",
        "9",
        "--restarts",
        "8",
        "--iters",
        "400",
    )
    assert rc == 3
    payload = json.loads(out)
    assert payload["verdict"] == "VIOLATED"
    assert payload["config"]["restarts"] == 8


def test_detect_consistent_exit_code(specs, capsys):
    rc, out, _ = run(
        capsys,
        "detect",
        "--norm",
        specs["l2"],
        "--seed",
        "9",
        "--restarts",
        "8",
        "--iters",
        "400",
    )
    assert rc == 0
    assert json.loads(out)["verdict"] == "CONSISTENT"


def test_detect_workers_only_change_wall_time(specs, capsys):
    argv = [
        "detect",
        "--norm",
        specs["l1"],
        "--seed",
        "2",
        "--restarts",
        "6",
        "--iters",
        "300",
    ]
    _, a, _ = run(capsys, *argv, "--workers", "1")
    pa = json.loads(a)
    pa.pop("wall_time_s")
    for workers in ("4", "2", "7"):
        _, b, _ = run(capsys, *argv, "--workers", workers)
        pb = json.loads(b)
        pb.pop("wall_time_s")
        assert pa == pb, workers


def test_dw_constant(specs, capsys, tmp_path):
    target = tmp_path / "dw.json"
    rc, out, _ = run(
        capsys,
        "dw-constant",
        "--norm",
        specs["l2"],
        "--seed",
        "3",
        "--budget",
        "800",
        "--out",
        str(target),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["estimate"] == pytest.approx(2.0, abs=1e-6)
    assert payload["skipped"] == 0
    assert json.loads(target.read_text()) == payload
    assert target.read_text().endswith("\n")


def test_missing_seed_is_usage_error(specs, capsys):
    with pytest.raises(SystemExit) as info:
        main(["detect", "--norm", specs["l1"]])
    assert info.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_unknown_flag_is_usage_error(specs, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--norm", specs["l1"], "--seed", "1", "--loud"])
    assert info.value.code == 1


def test_missing_file_is_input_error(capsys, tmp_path):
    rc, _, err = run(
        capsys, "verify", "--norm", str(tmp_path / "nope.json"), "--seed", "1"
    )
    assert rc == 1
    assert err.startswith("error:")


def test_malformed_json_is_input_error(specs, capsys):
    rc, _, err = run(capsys, "verify", "--norm", specs["bad"], "--seed", "1")
    assert rc == 1
    assert err.startswith("error:")


def test_bad_search_config_is_input_error(specs, capsys):
    rc, _, err = run(
        capsys,
        "detect",
        "--norm",
        specs["l1"],
        "--seed",
        "1",
        "--restarts",
        "0",
    )
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--seed", "1", "--restarts", "200000000"],
        ["curve", "--x", "1,0", "--y", "0,1", "--steps", "2000000000"],
    ],
    ids=["restarts", "steps"],
)
def test_flags_above_their_memory_caps_are_input_errors(argv, specs, capsys):
    # both flags allocate in proportion to their value, so they are capped
    # at 8192; values this far above the cap are refused before any work
    rc, out, err = run(capsys, argv[0], "--norm", specs["l1"], *argv[1:])
    assert rc == 1
    assert out == ""
    _single_error_line(err)
    assert "8192" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == ng.__version__


def _single_error_line(err):
    lines = err.strip().splitlines()
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in lines) == 1
    assert lines[-1].startswith("error:")


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "weighted_lp", "p": 2, "weights": ["a"], "dim": 1},
        {"kind": "quadratic", "gram": [[1.0, 0.0], [0.0]], "dim": 2},
        {"kind": "lp", "p": 2, "dim": 10**30},
    ],
    ids=["non-numeric-weights", "ragged-gram", "huge-dim"],
)
def test_malformed_spec_values_are_input_errors(payload, capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "verify", "--norm", str(path), "--seed", "1")
    assert rc == 1
    assert out == ""
    _single_error_line(err)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_is_input_error(tol, specs, capsys):
    # exit 2 would claim the norm failed its axioms; inf would pass any norm
    rc, out, err = run(capsys, "verify", "--norm", specs["l2"], "--seed", "1", f"--tol={tol}")
    assert rc == 1
    assert out == ""
    _single_error_line(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "-1"],
        ["detect", "--seed", "1", "--workers", "-3"],
        ["detect", "--seed", "1", "--workers", "0"],
        ["inequalities", "--seed", "1", "--workers", "0"],
    ],
    ids=["negative-seed", "negative-workers", "zero-workers", "zero-workers-ineq"],
)
def test_out_of_range_flags_are_usage_errors(argv, specs, capsys):
    # the library's count check rejects them before any work or output
    rc, out, err = run(capsys, argv[0], "--norm", specs["l1"], *argv[1:])
    assert rc == 1
    assert out == ""
    _single_error_line(err)


@pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1"])
def test_curve_rejects_empty_coordinate(text, specs, capsys):
    rc, out, err = run(capsys, "curve", "--norm", specs["l1"], f"--x={text}", "--y", "1,2")
    assert rc == 1
    assert out == ""
    assert "empty coordinate" in err
    _single_error_line(err)


# The p=2 and gram kernels overflow past about 1e154, so well-formed numbers
# stay within 1e3 of zero; that overflow is a separate matter.
_BOUND = 1e3


def _within_bound(text):
    """False if some comma-separated part reads as a finite number past _BOUND."""
    for part in text.split(","):
        try:
            v = float(part)
        except ValueError:
            continue
        if math.isfinite(v) and abs(v) > _BOUND:
            return False
    return True


_NUMBER = st.floats(-_BOUND, _BOUND).map(repr) | st.integers(-1000, 1000).map(str)
_ODD = st.sampled_from(["nan", "inf", "-inf", "", " ", "x", "1e999", "0x10", "1_0"])
_TEXT = st.text(max_size=12).filter(_within_bound)
_SCALAR = _NUMBER | _ODD | _TEXT
_VECTOR = st.lists(_NUMBER | _ODD, max_size=4).map(",".join) | _TEXT
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2).map(",".join)
_T_ORDERED = st.lists(st.floats(-_BOUND, _BOUND), min_size=2, max_size=2, unique=True).map(
    lambda ts: tuple(repr(t) for t in sorted(ts))
)
# x, y, t_min and t_max: half of the draws well-formed, so that a fair
# share of curve calls get through to the output
_CURVE_ARGS = st.tuples(_PAIR, _PAIR, _T_ORDERED) | st.tuples(
    _VECTOR, _VECTOR, st.tuples(_SCALAR, _SCALAR)
)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    for name, payload in {
        "l1": {"kind": "lp", "p": 1, "dim": 2},
        "l2": {"kind": "lp", "p": 2, "dim": 2},
        "linf": {"kind": "lp", "p": "inf", "dim": 2},
        "quad": {"kind": "quadratic", "dim": 2, "gram": [[2.0, 0.5], [0.5, 1.0]]},
    }.items():
        (root / f"{name}.json").write_text(json.dumps(payload))
    return root


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["curve", "verify"]),
    norm=st.sampled_from(["l1", "l2", "linf", "quad"]),
    curve_args=_CURVE_ARGS,
    count=st.integers(2, 1000) | st.integers(-5, 1),
    tol=_SCALAR,
)
def test_main_fuzz_exits_cleanly(spec_dir, command, norm, curve_args, count, tol):
    argv = [command, "--norm", str(spec_dir / f"{norm}.json")]
    if command == "curve":
        x, y, (t_min, t_max) = curve_args
        argv += [f"--x={x}", f"--y={y}", f"--t-min={t_min}", f"--t-max={t_max}"]
        argv += [f"--steps={count}"]
    else:
        argv += ["--seed", "1", f"--trials={count}", f"--tol={tol}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    if rc == 1:
        assert err.strip().splitlines()[-1].startswith("error:")
    elif command == "verify" and rc == 2:
        # only a tol at rounding level, such as 0, fails a norm on its rounding
        assert 0.0 <= float(tol) < 1e-9
        assert json.loads(out.getvalue())["passed"] is False
    else:
        assert rc == 0, (rc, err)


def test_non_utf8_norm_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe")
    rc, out, err = run(capsys, "verify", "--norm", str(path), "--seed", "1")
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    _single_error_line(err)


def test_curve_overflow_is_input_error(specs, capsys):
    argv = ["--x", "1e300,0", "--y", "1e300,1", "--t-max", "1e10", "--steps", "3"]
    rc, out, err = run(capsys, "curve", "--norm", specs["l1"], *argv)
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    _single_error_line(err)
    assert "t=5000000000" in err


@pytest.mark.parametrize("target", ["taken", "missing/report.json"])
def test_out_errors_name_the_given_path(target, specs, capsys, tmp_path):
    (tmp_path / "taken").mkdir()
    out_path = str(tmp_path / target)
    argv = ["verify", "--norm", specs["l1"], "--seed", "1", "--out", out_path]
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert len(err.splitlines()) == 1
    _single_error_line(err)
    assert f"cannot write {out_path}:" in err
    assert ".normgeo-" not in err
    assert list(tmp_path.rglob(".normgeo-*")) == []
