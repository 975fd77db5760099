"""End-to-end checks of the command-line runner."""

import csv
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eddymh.cli
from eddymh.cli import (
    EXIT_BOUND,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    MAX_MESH_N,
    ConfigError,
    RunConfig,
    main,
)
from eddymh.estimator import FluxWorkspace


def _write_config(tmp_path, name="config.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _drop_ctime(rows):
    return [[cell for i, cell in enumerate(row) if i != 1] for row in rows]


def test_config_defaults_and_roundtrip():
    config = RunConfig.from_dict({"mesh_n": 3, "alphas": [0.5, 2.0]})
    assert config.mesh_n == 3
    assert config.alphas == (0.5, 2.0)
    assert config.period == pytest.approx(2.0 * math.pi)
    assert config.truncation == 1


@pytest.mark.parametrize(
    "fields",
    [
        {"bogus_key": 1},
        {"mesh_n": 0},
        {"mesh_n": 2.5},
        {"truncation": -1},
        {"period": 0.0},
        {"alphas": []},
        {"alphas": [1.0, -2.0]},
        {"minres_tol": -1e-10},
        {"majorant_maxit": 0},
        {"friedrichs": 0.0},
        {"problem": "heat"},
        {"preset": "mystery"},
        {"exact_substitution": "yes"},
        {"preset": []},
        {"preset": 1},
        {"alphas": True},
        {"alphas": [True]},
    ],
)
def test_config_rejects_bad_fields(fields):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(fields)


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**308, 10**330)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["forward", "ocp", "trig", "paper-ocp"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]), _JSON_VALUES
    )
)
def test_config_from_any_json_object_returns_or_raises_config_error(data):
    # whatever a JSON config object holds, validation ends in a config or
    # a ConfigError (exit 2), never in another exception
    try:
        RunConfig.from_dict(data)
    except ConfigError:
        pass


def test_config_error_exit_codes(tmp_path):
    assert main(["forward", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["forward", "--config", str(broken)]) == EXIT_CONFIG
    mismatched = _write_config(tmp_path, preset="paper-ocp")
    assert main(["forward", "--config", mismatched]) == EXIT_CONFIG
    wrong_problem = _write_config(tmp_path, name="p.json", problem="ocp")
    assert main(["forward", "--config", wrong_problem]) == EXIT_CONFIG
    scaled = _write_config(tmp_path, name="s.json", sigma=2.0)
    assert main(["forward", "--config", scaled]) == EXIT_CONFIG
    shifted = _write_config(tmp_path, name="t.json", period=1.0)
    assert main(["forward", "--config", shifted]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "fields",
    [
        {"mesh_n": True},
        {"truncation": True},
        {"minres_maxit": True},
        {"majorant_maxit": True},
        {"period": math.inf},
        {"sigma": math.inf},
        {"nu": math.inf},
        {"minres_tol": math.inf},
        {"majorant_tol": math.inf},
        {"alphas": [1.0, math.inf]},
        {"friedrichs": math.inf},
    ],
    ids=lambda fields: next(iter(fields)),
)
def test_config_rejects_booleans_and_non_finite_numbers(tmp_path, fields):
    # the trig preset accepts any period, so only validation can stop these
    base = {"preset": "trig", "mesh_n": 1, "truncation": 1}
    config = _write_config(tmp_path, **{**base, **fields})
    out = tmp_path / "out"
    assert main(["ocp", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "ocp"])
def test_vanishing_exact_error_is_a_config_error(tmp_path, capsys, command):
    # at this period mode 1's exact and discrete amplitudes both vanish,
    # leaving no error for the efficiency index to divide by
    config = _write_config(
        tmp_path, preset="trig", period=1e-300, mesh_n=1, truncation=1
    )
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@settings(max_examples=25, deadline=None)
@given(
    command=st.sampled_from(["forward", "ocp"]),
    preset=st.sampled_from([None, "trig"]),
    mesh_n=st.integers(1, 2),
    truncation=st.integers(0, 2),
    period=st.one_of(st.just(2.0 * math.pi), _log_uniform(1e-6, 1e6)),
    alphas=st.lists(_log_uniform(1e-4, 1e4), min_size=1, max_size=2),
)
def test_any_small_run_ends_in_a_documented_exit_code(
    command, preset, mesh_n, truncation, period, alphas
):
    # extreme alphas push the flux matrices out of the shared factor's
    # band, so this also runs the one-shot factorization path
    fields = {
        "mesh_n": mesh_n,
        "truncation": truncation,
        "period": period,
        "alphas": alphas,
    }
    if preset is not None:
        fields["preset"] = preset
    with tempfile.TemporaryDirectory() as tmp:
        config = _write_config(Path(tmp), **fields)
        argv = [command, "--config", config, "--out", str(Path(tmp) / "out")]
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_BOUND)


def test_oversized_mesh_is_a_config_error(tmp_path):
    # validated before anything is meshed
    assert RunConfig.from_dict({"mesh_n": MAX_MESH_N}).mesh_n == MAX_MESH_N
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"mesh_n": MAX_MESH_N + 1})
    config = _write_config(tmp_path, mesh_n=100000, truncation=1)
    out = tmp_path / "out"
    assert main(["forward", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["forward", "--threads", "2"], ["verify", "--verbose"], ["verify", "--out", "x"]],
)
def test_flags_only_where_they_act(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_CONFIG


def test_ocp_sweep_shares_its_setup(tmp_path, monkeypatch):
    calls = {"build_benchmark": 0, "from_mesh": 0, "remainder": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_benchmark", "remainder"):
        monkeypatch.setattr(eddymh.cli, name, counted(name, getattr(eddymh.cli, name)))
    from_mesh = FluxWorkspace.from_mesh.__func__
    monkeypatch.setattr(
        FluxWorkspace, "from_mesh", classmethod(counted("from_mesh", from_mesh))
    )
    config = _write_config(tmp_path, mesh_n=1, truncation=1, alphas=[0.5, 1.0, 2.0])
    out = tmp_path / "out"
    assert main(["ocp", "--config", config, "--out", str(out)]) == EXIT_OK
    assert calls == {"build_benchmark": 1, "from_mesh": 1, "remainder": 1}
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [case["alpha"] for case in report["cases"]] == [0.5, 1.0, 2.0]


def test_solver_failure_exit_code(tmp_path):
    config = _write_config(tmp_path, mesh_n=2, truncation=1, minres_maxit=2)
    out = tmp_path / "out"
    assert main(["forward", "--config", config, "--out", str(out)]) == EXIT_SOLVER


def test_forward_run_tables(tmp_path):
    config = _write_config(tmp_path, mesh_n=2, truncation=1, write_mesh=True)
    out = tmp_path / "out"
    assert main(["forward", "--config", config, "--out", str(out)]) == EXIT_OK
    for k in (0, 1):
        rows = _read_csv(out / f"table_forward_k{k}.csv")
        assert rows[0] == ["iteration", "ctime", "beta", "majorant_sq", "i_eff"]
        body = rows[1:]
        assert [row[0] for row in body] == [str(i + 1) for i in range(len(body))]
        majorants = [float(row[3]) for row in body]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(majorants, majorants[1:]))
        assert all(float(row[4]) >= 1.0 - 1e-6 for row in body)
        assert float(body[0][2]) == 1.0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["problem"] == "forward"
    assert report["bound_satisfied"] is True
    case = report["cases"][0]
    assert case["total"]["i_eff"] >= 1.0 - 1e-6
    assert case["total"]["tail"] > 0.0
    assert len(case["modes"]) == 2
    assert all(entry["converged"] for entry in case["minres"])
    mesh_lines = (out / "mesh.txt").read_text(encoding="utf-8").splitlines()
    counts = dict(line.split() for line in mesh_lines)
    assert counts["tets"] == "48"
    assert counts["free_edges"] == "26"


def test_verbose_run_prints_flux_solve_counts(tmp_path, capsys):
    config = _write_config(tmp_path, mesh_n=2, truncation=1)
    out = tmp_path / "out"
    assert main(["forward", "--config", config, "--out", str(out), "--verbose"]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if "i_eff=" in line]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    case = report["cases"][0]
    assert len(lines) == len(case["modes"]) + 1
    for line, bound in zip(lines, case["modes"] + [case["total"]]):
        assert f"{bound['pcg_steps']} pcg steps" in line
        assert f"{bound['direct_solves']} direct solves" in line


def test_forward_run_deterministic(tmp_path):
    config = _write_config(tmp_path, mesh_n=2, truncation=1)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["forward", "--config", config, "--out", str(out_a)]) == EXIT_OK
    assert main(["forward", "--config", config, "--out", str(out_b)]) == EXIT_OK
    for k in (0, 1):
        rows_a = _read_csv(out_a / f"table_forward_k{k}.csv")
        rows_b = _read_csv(out_b / f"table_forward_k{k}.csv")
        assert _drop_ctime(rows_a) == _drop_ctime(rows_b)


def test_ocp_run_sweeps_alphas(tmp_path):
    config = _write_config(
        tmp_path, preset="paper-ocp", mesh_n=2, truncation=1, alphas=[0.5, 1.0]
    )
    out = tmp_path / "out"
    assert main(["ocp", "--config", config, "--out", str(out)]) == EXIT_OK
    for k in (0, 1):
        rows = _read_csv(out / f"table_ocp_k{k}.csv")
        assert rows[0] == ["alpha", "ctime", "majorant_sq", "i_eff"]
        assert [row[0] for row in rows[1:]] == ["0.5", "1"]
        assert all(float(row[3]) >= 1.0 - 1e-6 for row in rows[1:])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [case["alpha"] for case in report["cases"]] == [0.5, 1.0]
    assert len(report["constants"]) == 2


def test_ocp_threads_match_serial(tmp_path):
    config = _write_config(tmp_path, mesh_n=2, truncation=1, alphas=[0.5, 2.0])
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    assert main(["ocp", "--config", config, "--out", str(serial)]) == EXIT_OK
    args = ["ocp", "--config", config, "--out", str(threaded), "--threads", "2"]
    assert main(args) == EXIT_OK
    for k in (0, 1):
        rows_s = _read_csv(serial / f"table_ocp_k{k}.csv")
        rows_t = _read_csv(threaded / f"table_ocp_k{k}.csv")
        assert _drop_ctime(rows_s) == _drop_ctime(rows_t)
    # the whole report, flux-solve counts included, apart from wall time
    reports = []
    for out in (serial, threaded):
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for case in report["cases"]:
            del case["estimate_seconds"]
        reports.append(report)
    assert reports[0] == reports[1]
    for bound in reports[0]["cases"][0]["modes"] + [reports[0]["cases"][0]["total"]]:
        assert bound["pcg_steps"] > 0 and bound["direct_solves"] == 0


def test_exact_substitution_majorant_refines(tmp_path):
    totals = []
    for n in (2, 3):
        config = _write_config(
            tmp_path, name=f"n{n}.json", mesh_n=n, truncation=1, exact_substitution=True
        )
        out = tmp_path / f"out{n}"
        assert main(["forward", "--config", config, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        case = report["cases"][0]
        assert case["minres"] == []
        totals.append(case["total"]["majorant_sq"])
    assert totals[1] < totals[0]


def test_trig_preset_runs_for_other_periods(tmp_path):
    config = _write_config(
        tmp_path, preset="trig", period=3.0, mesh_n=2, truncation=2
    )
    out = tmp_path / "out"
    assert main(["forward", "--config", config, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    case = report["cases"][0]
    assert case["total"]["tail"] <= 1e-12
    assert case["total"]["i_eff"] >= 1.0 - 1e-6


def test_verify_passes():
    assert main(["verify"]) == EXIT_OK


def test_verify_flags_corrupted_friedrichs(tmp_path, capsys):
    config = _write_config(tmp_path, friedrichs=1e-3)
    assert main(["verify", "--config", config]) == EXIT_CHECK
    captured = capsys.readouterr()
    assert "guaranteed bound" in captured.out
    assert "FAIL" in captured.out


def test_bound_violation_exit_code(tmp_path):
    # An undersized Friedrichs constant invalidates the bound, which the
    # runner must report while still writing its outputs.
    config = _write_config(tmp_path, mesh_n=2, truncation=1, friedrichs=1e-3)
    out = tmp_path / "out"
    assert main(["forward", "--config", config, "--out", str(out)]) == EXIT_BOUND
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["bound_satisfied"] is False
