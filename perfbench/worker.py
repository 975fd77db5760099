"""One benchmark interpreter: a cold set-up, or a closed loop of cases.

Started by ``run.py`` as ``python3 worker.py '<request json>'``, one at a
time.  The request names the mode (``setup`` or ``loop``), the workload,
its inputs, the package source directory and the output files.  A loop
runs cases back to back until the next one would end after ``seconds``
(at least one case), checks every case's output, and writes the case
records (plus spans and per-layer figures when traced) as JSON.
"""

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
from tracer import ROOT, Tracer, install
from workloads import (
    BOUND_SLACK,
    ERROR_RTOL,
    WORKLOADS,
    load_references,
    reference_errors,
)


def _import_eddymh(src):
    sys.path.insert(0, src)
    import eddymh

    found = Path(eddymh.__file__).resolve()
    if Path(src).resolve() not in found.parents:
        raise SystemExit(f"eddymh imported from {found}, not from {src}")
    return eddymh


def _check_errors(failures, got, want, where):
    if set(got) != set(want):
        failures.append(f"{where}: error fields {sorted(got)} != {sorted(want)}")
        return
    for field, value in want.items():
        if abs(got[field] - value) > ERROR_RTOL * abs(value):
            failures.append(
                f"{where}: {field} semi_total {got[field]!r} != reference {value!r}"
            )


def cli_case(workload, inputs, workdir, references):
    """``eddymh forward|ocp`` through ``eddymh.cli.main``."""
    import eddymh.cli

    n, N, alphas = inputs["n"], inputs["N"], inputs["alphas"]
    config = {"preset": workload.preset, "mesh_n": n, "truncation": N}
    if alphas is not None:
        config["alphas"] = alphas
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = workdir / "out"
    report_path = out_dir / "report.json"
    argv = [workload.problem, "--config", str(config_path), "--out", str(out_dir)]

    def timed():
        return eddymh.cli.main(argv)

    def check(code):
        failures = []
        if code != 0:
            return [f"exit code {code}"], {}
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        report_path.unlink()
        if not report["bound_satisfied"]:
            failures.append("bound_satisfied is false")
        cases = report["cases"]
        expected = alphas if alphas is not None else [None]
        if len(cases) != len(expected):
            failures.append(f"{len(cases)} cases in report, expected {len(expected)}")
        for case, alpha in zip(cases, expected):
            where = "forward" if alpha is None else f"alpha={alpha!r}"
            effs = [m["i_eff"] for m in case["modes"]] + [case["total"]["i_eff"]]
            if min(effs) < 1.0 - BOUND_SLACK:
                failures.append(f"{where}: efficiency index {min(effs)!r} < 1")
            if not all(m["converged"] for m in case["minres"]):
                failures.append(f"{where}: MINRES did not converge")
            _check_errors(
                failures,
                {k: v["semi_total"] for k, v in case["errors"].items()},
                reference_errors(references, workload, n, N, alpha),
                where,
            )
        values = {
            "estimate_s": sum(c["estimate_seconds"] for c in cases),
            "i_eff_total": max(c["total"]["i_eff"] for c in cases),
        }
        return failures, values

    return timed, check


def library_case(workload, inputs, workdir, references):
    """``build_benchmark`` -> ``solve_benchmark`` -> ``benchmark_errors``."""
    import eddymh

    n, N = inputs["n"], inputs["N"]

    def timed():
        bench = eddymh.build_benchmark(workload.problem, n, N, preset=workload.preset)
        fields, stats = eddymh.solve_benchmark(bench)
        return stats, eddymh.benchmark_errors(bench, fields)

    def check(result):
        stats, errors = result
        failures = []
        if not all(st.converged for st in stats):
            failures.append("MINRES did not converge")
        _check_errors(
            failures,
            {k: v.semi_total for k, v in errors.items()},
            reference_errors(references, workload, n, N),
            "solve",
        )
        return failures, {}

    return timed, check


CASES = {"cli": cli_case, "library": library_case}


def run_setup(request):
    eddymh = _import_eddymh(request["src"])
    workload = WORKLOADS[request["workload"]]
    inputs = request["inputs"]
    alpha = inputs["alphas"][0] if inputs["alphas"] else None
    bench = eddymh.build_benchmark(workload.problem, inputs["n"], inputs["N"], alpha=alpha)
    eddymh.FluxWorkspace.from_mesh(bench.mesh, bench.coefficients)


def run_loop(request):
    _import_eddymh(request["src"])
    workload = WORKLOADS[request["workload"]]
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        install(tracer)
    workdir = Path(request["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    timed, check = CASES[workload.path](
        workload, request["inputs"], workdir, load_references()
    )
    if tracer is not None:
        timed = tracer.wrap(ROOT, timed)

    records = []
    laps = []
    start = time.perf_counter()
    while True:
        case = len(records)
        if tracer is not None:
            tracer.begin_case(case)
        lap = time.perf_counter()
        try:
            result = timed()
            seconds = time.perf_counter() - lap
            failures, values = check(result)
        except Exception:  # a case that raises counts as failed; keep going
            seconds = time.perf_counter() - lap
            failures, values = [traceback.format_exc()], {}
        if tracer is not None:
            tracer.end_case()
        records.append({"seconds": seconds, "failures": failures, **values})
        if case == 0:
            # ru_maxrss only grows; read it after one case so the figure
            # does not depend on how many cases fit in the run.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        now = time.perf_counter()
        laps.append(now - lap)
        if now - start + statistics.median(laps) > request["seconds"]:
            break

    result = {
        "cases": records,
        "peak_rss_mb": peak_kib / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        self_times = tracer.self_times()
        majorant = tracer.inclusive_times("estimator.majorant")
        result["layers"] = [
            {
                "self_s": dict(self_times[case]),
                "counters": tracer.case_counters[case],
                "estimator.majorant_s": majorant[case],
            }
            for case in range(len(records))
        ]
        with open(request["spans"], "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "case"],
                    "spans": tracer.spans,
                },
                handle,
            )
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main():
    request = json.loads(sys.argv[1])
    if request["mode"] == "setup":
        run_setup(request)
    else:
        run_loop(request)


if __name__ == "__main__":
    main()
