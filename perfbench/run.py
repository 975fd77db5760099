"""eddymh benchmark: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload forward-bound --seed 1 --seconds 40 --trace 0

Run from the repository root (the package is imported from ``src/``).
Every interpreter the benchmark starts is a fresh ``worker.py`` process
with BLAS capped at one thread, and they run one after another:

* ``--trace 0``: SETUP_REPEATS cold set-ups (import eddymh, build the
  workload's benchmark and its flux workspace), then one closed loop of
  cases for ``--seconds``.  Prints the end-to-end metrics.
* ``--trace 1``: an untraced loop and a traced loop, each for half of
  ``--seconds``.  The traced loop wraps eddymh's public functions (see
  ``tracer.py``) and gives the per-layer metrics, the tracing overhead
  and the span coverage of each case.

The last line of standard output is the JSON result; the full record
(seed, inputs, environment, every case) goes to ``perfbench/out/``.
Workloads, metrics and the layer map are described in README.md here.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import HERE, WORKLOADS, inputs

ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_REPEATS = 3
# Everything the run starts must be over by then.
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The traced spans must cover at least this share of every case.
MIN_COVERAGE = 0.95

# Per-layer self-time metrics: metric name -> span names summed.
SELF_TIME_METRICS = {
    "mesh.build_box_mesh_s": ("mesh.build_box_mesh",),
    "edge_fem.basis_data_s": ("edge_fem.basis_data",),
    "edge_fem.assemble_s": ("edge_fem.assemble",),
    "edge_fem.curl_load_s": ("edge_fem.curl_load",),
    "edge_fem.field_eval_s": ("edge_fem.field_eval",),
    "harmonics.remainder_s": ("harmonics.remainder",),
    "systems.matrices_s": ("systems.matrices",),
    "systems.build_s": ("systems.build",),
    "systems.solve_mode_s": ("systems.solve_mode",),
    "presets.build_benchmark_s": ("presets.build_benchmark",),
    "presets.errors_s": ("presets.errors",),
    "estimator.workspace_s": ("estimator.workspace",),
    "estimator.flux_solve_s": ("estimator.flux_solve",),
    "estimator.residuals_s": ("estimator.residuals",),
    "estimator.self_s": ("estimator.majorant", "estimator.constants"),
    "cli.self_s": ("cli.main",),
}
COUNT_METRICS = (
    "mesh.tets",
    "systems.factorizations",
    "systems.lu_nnz",
    "systems.minres_iters",
    "estimator.flux_solve_calls",
    "estimator.flux_rhs",
    "estimator.factorizations",
    "estimator.lu_nnz",
    "estimator.majorant_iters",
)
# Self time of these spans is not attributed to a library layer.
UNATTRIBUTED = ("case", "cli.main")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "blas_env": list(BLAS_ENV),
    }


class Runner:
    """Starts worker interpreters one at a time under a shared deadline."""

    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.inputs = inputs(self.workload, args.seed, args.smoke)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.env = dict(os.environ)
        self.env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
        self.env["PYTHONHASHSEED"] = "0"

    def _worker(self, request):
        request = {
            "src": str(SRC),
            "workload": self.workload.name,
            "inputs": self.inputs,
            **request,
        }
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the run ended")
        try:
            done = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(request)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the time limit: {exc}") from exc
        if done.returncode != 0:
            raise BenchError(
                f"worker ({request['mode']}) exited with {done.returncode}:\n"
                f"{done.stderr.strip()}"
            )

    def setup_seconds(self):
        start = time.perf_counter()
        self._worker({"mode": "setup"})
        return time.perf_counter() - start

    def loop(self, seconds, trace):
        name = f"{self.tag}-{'traced' if trace else 'plain'}"
        result_path = OUT / f"{name}.json"
        self._worker(
            {
                "mode": "loop",
                "seconds": seconds,
                "trace": trace,
                "workdir": str(OUT / "work" / self.workload.name),
                "result": str(result_path),
                "spans": str(OUT / f"{name}-spans.json"),
            }
        )
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)


def _case_summary(loop):
    seconds = [c["seconds"] for c in loop["cases"]]
    failed = sum(1 for c in loop["cases"] if c["failures"])
    summary = {
        "case_s": statistics.median(seconds),
        "case_max_s": max(seconds),
        "cases": len(seconds),
        "failed": failed,
        "failed_share": failed / len(seconds),
    }
    for key in ("estimate_s", "i_eff_total"):
        values = [c[key] for c in loop["cases"] if key in c]
        if values:
            summary[key] = statistics.median(values)
    return summary


def _layer_metrics(traced, plain):
    """Per-layer medians over the traced cases, plus overhead and coverage."""
    layers = traced["layers"]
    cases = traced["cases"]
    metrics = {}
    for name, spans in SELF_TIME_METRICS.items():
        values = [sum(c["self_s"].get(s, 0.0) for s in spans) for c in layers]
        metrics[name] = _metric(statistics.median(values), "s")
    metrics["estimator.majorant_s"] = _metric(
        statistics.median(c["estimator.majorant_s"] for c in layers), "s"
    )
    for name in COUNT_METRICS:
        values = [c["counters"].get(name, 0) for c in layers]
        metrics[name] = _metric(statistics.median(values), "count")
    summary = _case_summary(traced)
    metrics["estimate_s"] = _metric(summary.get("estimate_s", 0.0), "s")
    metrics["i_eff_total"] = _metric(summary.get("i_eff_total", 0.0), "ratio")
    metrics["trace.case_s"] = _metric(summary["case_s"], "s")
    metrics["trace.overhead_s"] = _metric(
        summary["case_s"] - _case_summary(plain)["case_s"], "s"
    )
    coverage = [
        1.0 - sum(c["self_s"].get(s, 0.0) for s in UNATTRIBUTED) / case["seconds"]
        for c, case in zip(layers, cases)
    ]
    metrics["trace.coverage"] = _metric(min(coverage), "share")
    return metrics


def _self_time_table(traced):
    """Median self seconds per span name and per layer, for the record."""
    names = sorted({name for c in traced["layers"] for name in c["self_s"]})
    spans = {
        name: statistics.median(c["self_s"].get(name, 0.0) for c in traced["layers"])
        for name in names
    }
    layers = {}
    for name, value in spans.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return {"spans": spans, "layers": layers}


def run(args):
    """Run one workload; returns (result line, full record)."""
    if not (SRC / "eddymh" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(args)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": runner.inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": _environment(),
    }
    if args.trace:
        half = args.seconds / 2.0
        plain = runner.loop(half, trace=False)
        traced = runner.loop(half, trace=True)
        loops = [plain, traced]
        metrics = _layer_metrics(traced, plain)
        record["self_time"] = _self_time_table(traced)
        # At the smoke size fixed costs (config, tables) dominate a case,
        # so coverage is only gated at the benchmark size.
        covered = args.smoke or metrics["trace.coverage"]["value"] >= MIN_COVERAGE
    else:
        repeats = 1 if args.smoke else SETUP_REPEATS
        setups = [runner.setup_seconds() for _ in range(repeats)]
        plain = runner.loop(args.seconds, trace=False)
        loops = [plain]
        metrics = {
            "case_s": _metric(statistics.median(c["seconds"] for c in plain["cases"]), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(plain["peak_rss_mb"], "MB"),
        }
        record["setup_samples_s"] = setups
        covered = True
    record["environment"]["versions"] = plain["versions"]
    record["summary"] = [_case_summary(loop) for loop in loops]
    record["cases"] = [loop["cases"] for loop in loops]
    attempted = sum(s["cases"] for s in record["summary"])
    failed = sum(s["failed"] for s in record["summary"])
    result = {
        "correct": failed == 0 and covered,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    with open(OUT / f"{runner.tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return result, record


def _print_summary(record):
    env = record["environment"]
    given = record["inputs"]
    alphas = given["alphas"]
    drawn = f"alphas {alphas}" if alphas else "seed-independent inputs"
    print(
        f"workload {record['workload']} seed {record['seed']} ({drawn}); "
        f"n={given['n']} N={given['N']}"
    )
    print(
        f"environment: python {env['versions']['python']}, numpy "
        f"{env['versions']['numpy']}, scipy {env['versions']['scipy']}, "
        f"nproc {env['nproc']}, cpu {env['cpu_model']!r}, "
        f"BLAS threads {env['blas_threads']}"
    )
    for label, summary in zip(("untraced", "traced"), record["summary"]):
        extra = "".join(
            f" {key} {summary[key]:.6g}"
            for key in ("estimate_s", "i_eff_total")
            if key in summary
        )
        print(
            f"{label}: case_s median {summary['case_s']:.4f} max {summary['case_max_s']:.4f} "
            f"over {summary['cases']} cases; failed_share {summary['failed_share']:.3g}{extra}"
        )
    for cases in record["cases"]:
        for i, case in enumerate(cases):
            for failure in case["failures"]:
                print(f"case {i} failed: {failure}", file=sys.stderr)
    if "self_time" in record:
        ranked = sorted(record["self_time"]["spans"].items(), key=lambda kv: -kv[1])
        print("self time per span (s): " + ", ".join(f"{k} {v:.4f}" for k, v in ranked))
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the workload at n=2, N=1 (the benchmark's own test)",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    _print_summary(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
