"""The benchmark's own test: every workload at the smoke size (n=2, N=1).

    python3 -m pytest -q perfbench/test_smoke.py

Each run goes through the same code path as a full run (run.py, worker
interpreters, output gate, tracer) and must emit exactly the metrics
BENCHMARK.json declares, each with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, load_references  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_gate_and_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_moves_only_ocp_inputs():
    from workloads import inputs

    for workload in WORKLOADS.values():
        a, b = inputs(workload, 1), inputs(workload, 2)
        assert (a == b) != (workload.problem == "ocp")
        assert inputs(workload, 1) == a


def test_every_drawable_alpha_has_references():
    from workloads import SMOKE_SIZE, alpha_key, drawable_alphas, size_key

    table = load_references()["ocp-sweep"]
    for size in (WORKLOADS["ocp-sweep"].size, SMOKE_SIZE):
        assert set(table[size_key(*size)]) == {alpha_key(a) for a in drawable_alphas()}


def test_error_gate_rejects_a_changed_answer():
    from worker import _check_errors

    failures = []
    _check_errors(failures, {"state": 1.0 + 1e-9}, {"state": 1.0}, "x")
    assert failures == []
    _check_errors(failures, {"state": 1.0 + 1e-7}, {"state": 1.0}, "x")
    assert len(failures) == 1
    _check_errors(failures, {"state": 1.0}, {"state": 1.0, "adjoint": 2.0}, "x")
    assert len(failures) == 2


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "forward-bound", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
