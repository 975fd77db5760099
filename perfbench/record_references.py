"""Record the exact-error totals the benchmark's output gate pins.

    PYTHONPATH=src python3 perfbench/record_references.py

Writes ``references.json``: for every workload, at its benchmark size and
at the smoke size, the ``semi_total`` of each error field (state, and
adjoint for the control problem); for ocp-sweep, one entry per alpha a
case can use.  The values come from the library path the CLI also
takes (build_benchmark -> solve_benchmark -> benchmark_errors with the
CLI's default MINRES settings), so they are bitwise the CLI's values.
Only re-record on purpose: the gate exists to catch changed answers.
"""

import json

from eddymh import benchmark_errors, build_benchmark, solve_benchmark
from workloads import (
    REFERENCES,
    SMOKE_SIZE,
    WORKLOADS,
    alpha_key,
    drawable_alphas,
    size_key,
)


def semi_totals(problem, n, N, alpha=None):
    bench = build_benchmark(problem, n, N, alpha=alpha)
    fields, stats = solve_benchmark(bench)
    if not all(st.converged for st in stats):
        raise RuntimeError(f"MINRES did not converge for {problem} n={n} N={N}")
    return {k: v.semi_total for k, v in benchmark_errors(bench, fields).items()}


def main():
    alphas = drawable_alphas()
    references = {}
    for workload in WORKLOADS.values():
        tables = {}
        for n, N in (workload.size, SMOKE_SIZE):
            if workload.problem == "ocp":
                tables[size_key(n, N)] = {
                    alpha_key(a): semi_totals("ocp", n, N, a) for a in alphas
                }
            else:
                tables[size_key(n, N)] = semi_totals(workload.problem, n, N)
        references[workload.name] = tables
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
