"""Command-line runner for the benchmark problems and self checks.

``forward`` and ``ocp`` solve the selected benchmark, minimize the
guaranteed error bound of every mode, add the mode bounds and the data
tail's bound into the total, and write one CSV table per mode plus a JSON
report into the output directory.  ``ocp`` sweeps the configured list of
cost parameters; one mesh, one set of system matrices and one flux
workspace serve every alpha.  ``verify`` runs a fast self-check suite
(element quadrature, gauge kernel, Fourier identities, dense-solve
agreement, Friedrichs eigenvalue, residual forms, guaranteed bound) and
prints a pass/fail table.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 guaranteed-bound violation, 5 failed self check.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .edge_fem import Coefficients, DofMap, interpolate_tangential
from .estimator import (
    FluxWorkspace,
    StabilityConstants,
    minimize_majorant,
    residual_forms,
    residuals_forward,
    residuals_ocp,
    stability_constants,
)
from .harmonics import FourierField, PeriodSpec, fourier_coeff, remainder
from .harmonics import friedrichs_constant
from .mesh import build_box_mesh
from .presets import (
    PROFILE_NORM_SQ,
    available_cores,
    benchmark_errors,
    build_benchmark,
    full_field,
    mode_evaluators,
    profile,
    solve_benchmark,
)
from .quadrature import TET_P5_POINTS, TET_P5_WEIGHTS
from .systems import SystemMatrices, build_forward, build_ocp, reconstruct, solve_mode

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BOUND = 4
EXIT_CHECK = 5

BOUND_SLACK = 1e-6

# Largest accepted mesh_n (6 n^3 tets): extrapolated from the README's
# measured footprints, a forward run peaks near 3.5 GB here and 8 GB at 24.
MAX_MESH_N = 20
# Largest accepted truncation N; see the README for its footprint.
MAX_TRUNCATION = 64
# Largest accepted friedrichs: in the flux matrices cf^2 K + M, the entries
# of M fall below the rounding of cf^2 K once cf passes about h / sqrt(eps)
# (3.4e6 at mesh_n 20), and SuperLU then finds them singular or overflows.
MAX_FRIEDRICHS = 1e6
# Accepted alphas.  The ocp lower constant carries min(alpha, 1 / alpha),
# so i_eff grows like its inverse square: about 1e25 at either end
# (mesh_n 2, 6 and 12, truncation 2), and inf from about 1e-150, where the
# square underflows.  Far above, M + sqrt(alpha)(K + kw Ms) is numerically
# the singular sqrt(alpha) K, and MINRES fails (1e40) or the factor does
# (1e30 at mesh_n 6).
ALPHA_RANGE = (1e-12, 1e12)

# thread caps of the BLAS and OpenMP runtimes; report.json records those set
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_PRESETS = {
    "paper-forward": ("forward", "exp"),
    "paper-ocp": ("ocp", "exp"),
    "trig": (None, "trig"),
}


class ConfigError(ValueError):
    """Rejected configuration file or option combination."""


class SolverFailure(RuntimeError):
    """A mode solve missed its tolerance, or SuperLU refused a factor."""


def _is_positive_number(value):
    # JSON true/false arrive as bool, which is an int subclass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and value > 0
    except OverflowError:  # an integer too large for a float
        return False


@dataclass
class RunConfig:
    """Run settings, loadable from a flat JSON object.

    ``preset`` may stay unset; the subcommand then picks the matching
    exponential data set.  A preset named for one problem is refused by
    the other's subcommand.  The README lists every key with its range.
    """

    preset: str = None
    mesh_n: int = 2
    period: float = 2.0 * math.pi
    truncation: int = 1
    alphas: tuple = (1.0,)
    minres_tol: float = 1e-10
    minres_maxit: int = 2000
    majorant_tol: float = 1e-4
    majorant_maxit: int = 50
    friedrichs: float = None
    exact_substitution: bool = False

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config = cls(**data)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(data)

    def validate(self):
        if self.preset is not None and (
            not isinstance(self.preset, str) or self.preset not in _PRESETS
        ):
            raise ConfigError(
                f"unknown preset {self.preset!r}; choose from {sorted(_PRESETS)}"
            )
        for name, least in (
            ("mesh_n", 1),
            ("truncation", 0),
            ("minres_maxit", 1),
            ("majorant_maxit", 1),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= least):
                raise ConfigError(f"{name} must be an integer >= {least}")
        if self.mesh_n > MAX_MESH_N:
            raise ConfigError(f"mesh_n must be at most {MAX_MESH_N}")
        if self.truncation > MAX_TRUNCATION:
            raise ConfigError(f"truncation must be at most {MAX_TRUNCATION}")
        for name in ("period", "minres_tol", "majorant_tol"):
            if not _is_positive_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite positive number")
        alphas = self.alphas
        if not (
            isinstance(alphas, (list, tuple))
            and alphas
            and all(_is_positive_number(a) for a in alphas)
            and ALPHA_RANGE[0] <= min(alphas) <= max(alphas) <= ALPHA_RANGE[1]
        ):
            low, high = ALPHA_RANGE
            raise ConfigError(f"alphas must be a non-empty list of numbers in [{low:g}, {high:g}]")
        self.alphas = tuple(float(a) for a in alphas)
        if self.friedrichs is not None and not (
            _is_positive_number(self.friedrichs) and self.friedrichs <= MAX_FRIEDRICHS
        ):
            raise ConfigError(f"friedrichs must be a positive number <= {MAX_FRIEDRICHS:g}")
        if not isinstance(self.exact_substitution, bool):
            raise ConfigError("exact_substitution must be a boolean")

    def resolve_preset(self, problem):
        """Internal data-set name for ``problem``, after consistency checks."""
        if self.preset is None:
            return "exp"
        wants, name = _PRESETS[self.preset]
        if wants is not None and wants != problem:
            raise ConfigError(f"preset {self.preset!r} pairs with the {wants} problem")
        return name


@dataclass(eq=False)
class CaseResult:
    """One solved benchmark with its bound reports (the modes' in ``total.modes``)."""

    alpha: float
    constants: StabilityConstants
    stats: list
    errors: dict
    total: object
    estimate_time: float

    def bound_ok(self):
        reports = self.total.modes + [self.total]
        return all(r.efficiency >= 1.0 - BOUND_SLACK for r in reports)


def _interpolant_fields(bench):
    """Replace the discrete solution by the exact solution's interpolant."""
    free = interpolate_tangential(bench.mesh, profile)[bench.dofmap.free]

    def expand(exact):
        mode0 = float(exact(0)[0]) * free
        modes = []
        for k in range(1, bench.period.N + 1):
            c, s = exact(k)
            modes.append((float(c) * free, float(s) * free))
        return reconstruct([mode0] + modes, bench.period)

    fields = {"state": expand(bench.exact_state)}
    if bench.kind == "ocp":
        fields["adjoint"] = expand(bench.exact_adjoint)
    return fields


def _run_case(config, bench, workspace, tail, verbose):
    """Solve one case of a run and bound its error, mode by mode and in total.

    ``workspace`` and ``tail`` (the data's Parseval remainder) do not
    depend on alpha; the run builds them once for all its cases.
    """
    if config.exact_substitution:
        fields, stats = _interpolant_fields(bench), []
    else:
        try:
            fields, stats = solve_benchmark(
                bench, tol=config.minres_tol, maxit=config.minres_maxit
            )
        except (ValueError, RuntimeError) as exc:  # RuntimeError: SuperLU
            raise SolverFailure(str(exc)) from exc
        for k, st in enumerate(stats):
            if not st.converged:
                raise SolverFailure(
                    f"mode {k} stopped at relative residual "
                    f"{st.relative_residual:.3e} after {st.iterations} iterations"
                )
    errors = benchmark_errors(bench, fields)
    state = full_field(bench.dofmap, fields["state"])
    adjoint = None
    if bench.kind == "ocp":
        adjoint = full_field(bench.dofmap, fields["adjoint"])
    constants = stability_constants(
        bench.kind,
        "seminorm",
        bench.coefficients,
        alpha=bench.alpha,
        friedrichs=config.friedrichs,
    )
    label = "" if bench.alpha is None else f" alpha={bench.alpha:g}"
    exact = [
        sum(e.semi_modes[k] for e in errors.values()) for k in range(config.truncation + 1)
    ] + [sum(e.semi_total for e in errors.values())]
    for k, value in enumerate(exact):
        # the efficiency index divides by the exact error value; at extreme
        # periods the exact and discrete mode amplitudes both vanish
        if not (math.isfinite(value) and value > 0.0):
            what = "total" if k > config.truncation else f"mode {k}"
            raise ConfigError(
                f"the {what} exact error is {value!r} at period "
                f"{config.period!r}, so its efficiency index is undefined"
            )
    start = time.perf_counter()
    try:
        total = minimize_majorant(
            bench.mesh,
            bench.coefficients,
            bench.period,
            bench.kind,
            state,
            mode_evaluators(bench),
            constants,
            adjoint=adjoint,
            alpha=bench.alpha,
            tail=tail,
            error_sq=exact[-1],
            tol=config.majorant_tol,
            maxit=config.majorant_maxit,
            workspace=workspace,
        )
    except RuntimeError as exc:
        # at a huge friedrichs, cf^2 K swamps M in the flux matrices
        # and SuperLU finds them singular
        raise SolverFailure(f"bound{label}: {exc}") from exc
    estimate_time = time.perf_counter() - start
    modes = [dataclasses.replace(r, error_sq=e) for r, e in zip(total.modes, exact)]
    total = dataclasses.replace(total, modes=modes)
    if verbose:
        for report in modes + [total]:
            what = "total" if report.mode is None else f"mode {report.mode}"
            print(
                f"  {what}{label}: majorant_sq={report.majorant_sq:.6e} "
                f"i_eff={report.efficiency:.3f} ({len(report.trace)} iterations, "
                f"{report.pcg_steps} pcg steps, {report.direct_solves} direct solves)"
            )
    return CaseResult(
        bench.alpha, constants, stats, errors, total, estimate_time
    )


def _sweep(problem, config, threads=None, verbose=False):
    """Build a run's alpha-independent data once and solve every case.

    A forward run is one case; an ocp run has one case per alpha, each
    on ``dataclasses.replace(bench, alpha=a)`` of the same benchmark.
    """
    preset = config.resolve_preset(problem)
    # every run meshes the unit cube; a smaller constant voids the guarantee
    if (config.friedrichs or 1.0) < friedrichs_constant() * (1.0 - 1e-12):
        raise ConfigError("friedrichs is below the unit cube's constant")
    alphas = config.alphas if problem == "ocp" else (None,)
    try:
        bench = build_benchmark(
            problem,
            config.mesh_n,
            config.truncation,
            alpha=alphas[0],
            T=config.period,
            preset=preset,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    workspace = FluxWorkspace.from_mesh(bench.mesh, bench.coefficients)
    tail = remainder(bench.data_profile, PROFILE_NORM_SQ, bench.period)

    def case(alpha):
        return _run_case(
            config, dataclasses.replace(bench, alpha=alpha), workspace, tail, verbose
        )

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return bench, list(pool.map(case, alphas))
    return bench, [case(alpha) for alpha in alphas]


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_forward_tables(out_dir, case):
    for k, report in enumerate(case.total.modes):
        ctimes = itertools.accumulate(row.wall_time for row in report.trace)
        rows = [
            [row.iteration, f"{ctime:.6f}", f"{row.betas[0]:.10e}"]
            + [f"{row.majorant_sq:.10e}", f"{row.majorant_sq / report.error_sq:.10e}"]
            for row, ctime in zip(report.trace, ctimes)
        ]
        header = ["iteration", "ctime", "beta", "majorant_sq", "i_eff"]
        _write_csv(out_dir / f"table_forward_k{k}.csv", header, rows)


def _write_ocp_tables(out_dir, cases):
    for k in range(len(cases[0].total.modes)):
        rows = []
        for case in cases:
            report = case.total.modes[k]
            ctime = sum(row.wall_time for row in report.trace)
            rows.append(
                [f"{case.alpha:.6g}", f"{ctime:.6f}"]
                + [f"{report.majorant_sq:.10e}", f"{report.efficiency:.10e}"]
            )
        header = ["alpha", "ctime", "majorant_sq", "i_eff"]
        _write_csv(out_dir / f"table_ocp_k{k}.csv", header, rows)


def _error_entry(breakdown):
    return {
        "semi_modes": [float(v) for v in breakdown.semi_modes],
        "semi_tail": float(breakdown.semi_tail),
        "semi_total": float(breakdown.semi_total),
        "norm_modes": [float(v) for v in breakdown.norm_modes],
        "norm_tail": float(breakdown.norm_tail),
        "norm_total": float(breakdown.norm_total),
    }


def _report_entry(report):
    return {
        "betas": [float(b) for b in report.betas],
        "majorant_sq": float(report.majorant_sq),
        "i_eff": float(report.efficiency),
        "iterations": len(report.trace),
        "converged": bool(report.converged),
        "pcg_steps": report.pcg_steps,
        "direct_solves": report.direct_solves,
        "tail": float(report.tail),
        "residual_sums": {k: float(v) for k, v in report.residual_sums.items()},
    }


def _case_entry(case):
    entry = {
        "minres": [
            {
                "mode": k,
                "iterations": st.iterations,
                "relative_residual": float(st.relative_residual),
                "converged": bool(st.converged),
                "seconds": float(st.wall_time),
            }
            for k, st in enumerate(case.stats)
        ],
        "errors": {name: _error_entry(b) for name, b in case.errors.items()},
        "modes": [_report_entry(r) for r in case.total.modes],
        "total": _report_entry(case.total),
        "estimate_seconds": float(case.estimate_time),
        "bound_satisfied": case.bound_ok(),
    }
    if case.alpha is not None:
        entry["alpha"] = float(case.alpha)
    return entry


def _write_report(out_dir, config, bench, cases):
    mesh = bench.mesh
    report = {
        "problem": bench.kind,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cores": available_cores(),
            "thread_variables": {
                name: os.environ[name] for name in THREAD_VARIABLES if name in os.environ
            },
        },
        "config": dataclasses.asdict(config),
        "mesh": {
            "vertices": mesh.num_vertices,
            "tets": mesh.num_tets,
            "edges": mesh.num_edges,
            "boundary_edges": len(mesh.boundary_edges),
            "free_edges": len(bench.dofmap.free),
            "interior_nodes": len(mesh.interior_nodes()),
        },
        "constants": [dataclasses.asdict(case.constants) for case in cases],
        "cases": [_case_entry(case) for case in cases],
        "bound_satisfied": all(case.bound_ok() for case in cases),
    }
    report["config"]["alphas"] = [float(a) for a in config.alphas]
    with open(out_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run(problem, config, out_dir, threads=None, verbose=False):
    """Solve, bound and tabulate a forward run or an ocp alpha sweep."""
    bench, cases = _sweep(problem, config, threads, verbose)
    out_dir.mkdir(parents=True, exist_ok=True)
    if problem == "forward":
        _write_forward_tables(out_dir, cases[0])
    else:
        _write_ocp_tables(out_dir, cases)
    _write_report(out_dir, config, bench, cases)
    print(f"{problem} run complete; tables written to {out_dir}")
    if not all(case.bound_ok() for case in cases):
        print("guaranteed bound violated; see report.json", file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


def _reference_tet_monomial(powers):
    """Exact integral of x^a y^b z^c over the unit reference tet."""
    a, b, c = powers
    return (
        math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def _check_quadrature():
    worst = 0.0
    x, y, z = TET_P5_POINTS.T
    for a in range(6):
        for b in range(6 - a):
            for c in range(6 - a - b):
                value = float(TET_P5_WEIGHTS @ (x**a * y**b * z**c))
                worst = max(worst, abs(value - _reference_tet_monomial((a, b, c))))
    return (
        "element quadrature",
        worst <= 1e-14,
        f"max monomial defect {worst:.2e}",
    )


def _check_gauge_kernel():
    mesh = build_box_mesh(2)
    dofmap = DofMap.from_mesh(mesh)
    matrices = SystemMatrices.from_mesh(mesh, Coefficients.constant(mesh), dofmap)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        psi = rng.standard_normal(matrices.G.shape[1])
        worst = max(worst, float(np.abs(matrices.K @ (matrices.G @ psi)).max()))
    return (
        "gauge kernel",
        worst <= 1e-11,
        f"max |K G psi| {worst:.2e} over 100 draws",
    )


def _check_fourier():
    period = PeriodSpec(2.0 * math.pi, 2)
    omega = period.omega
    coeffs = {0: (0.3, 0.0), 1: (1.2, 0.0), 2: (0.0, -0.7)}

    def signal(t):
        return sum(
            c * np.cos(k * omega * t) + s * np.sin(k * omega * t)
            for k, (c, s) in coeffs.items()
        )

    worst = 0.0
    for k, (c, s) in coeffs.items():
        got_c, got_s = fourier_coeff(signal, k, period)
        worst = max(worst, abs(got_c - c), abs(got_s - s))
    tail = remainder(signal, 1.0, period)
    worst = max(worst, abs(tail))

    rng = np.random.default_rng(1)
    field = FourierField(
        rng.standard_normal(5),
        [(rng.standard_normal(5), rng.standard_normal(5)) for _ in range(3)],
    )
    perp = field.perp()
    inner = period.T * float(field.mode0 @ perp.mode0)
    for (c, s), (pc, ps) in zip(field.modes, perp.modes):
        inner += 0.5 * period.T * float(c @ pc + s @ ps)
    worst_perp = abs(inner)
    ok = worst <= 1e-8 and worst_perp <= 1e-12
    return (
        "fourier identities",
        ok,
        f"coefficient/tail defect {worst:.2e}, perp pairing {worst_perp:.2e}",
    )


def _check_dense_agreement():
    mesh = build_box_mesh(1)
    dofmap = DofMap.from_mesh(mesh)
    coeffs = Coefficients.constant(mesh)
    matrices = SystemMatrices.from_mesh(mesh, coeffs, dofmap)
    period = PeriodSpec(2.0 * math.pi, 1)
    rng = np.random.default_rng(2)
    u_c = rng.standard_normal(len(dofmap.free))
    u_s = rng.standard_normal(len(dofmap.free))
    worst = 0.0
    systems = [
        build_forward(1, matrices, period, u_c, u_s),
        build_ocp(1, matrices, 1.0, period, u_c, u_s),
    ]
    for system in systems:
        direct = np.linalg.solve(system.A.toarray(), system.rhs)
        parts, stats = solve_mode(system, tol=1e-12, maxit=500)
        iterative = np.concatenate([parts[name] for name in sorted(parts)])
        reference = system.unpack(direct)
        expected = np.concatenate([reference[name] for name in sorted(reference)])
        scale = float(np.linalg.norm(expected))
        worst = max(worst, float(np.linalg.norm(iterative - expected)) / scale)
        if not stats.converged:
            return ("dense-solve agreement", False, "minres did not converge")
    return (
        "dense-solve agreement",
        worst <= 1e-8,
        f"max relative deviation {worst:.2e}",
    )


def _check_friedrichs_eigenvalue():
    mesh = build_box_mesh(3)
    dofmap = DofMap.from_mesh(mesh)
    matrices = SystemMatrices.from_mesh(mesh, Coefficients.constant(mesh), dofmap)
    values = scipy.linalg.eigh(
        matrices.K.toarray(), matrices.M.toarray(), eigvals_only=True
    )
    kernel_dim = matrices.G.shape[1]
    spurious = float(abs(values[kernel_dim - 1])) if kernel_dim else 0.0
    smallest = float(values[kernel_dim])
    ratio = smallest / (2.0 * math.pi**2)
    ok = spurious <= 1e-8 and 0.8 <= ratio <= 1.05
    return (
        "friedrichs eigenvalue",
        ok,
        f"discrete/continuous ratio {ratio:.4f}, kernel residue {spurious:.2e}",
    )


def _check_residual_forms():
    # the per-tet sums that steer and report the majorant against the
    # reference quadrature, on random fields and fluxes
    bench = build_benchmark("ocp", 2, 1, alpha=0.5)
    mesh, co, period = bench.mesh, bench.coefficients, bench.period
    ws = FluxWorkspace.from_mesh(mesh, co)
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in (0, 1):
        eta, zeta, tau, rho = rng.standard_normal((4, 2, mesh.num_edges))
        f = mode_evaluators(bench)(k)
        quadrature = residuals_forward(mesh, co, period, k, eta, tau, f)
        quadrature += residuals_ocp(mesh, co, period, k, eta, zeta, tau, rho, f, 0.5)
        forms = residual_forms(ws, period, k, eta, (tau,), f)
        forms += residual_forms(ws, period, k, eta, (tau, rho), f, zeta, 0.5)
        worst = max(worst, *(abs(a - b) / b for a, b in zip(forms, quadrature)))
    return ("residual forms", worst <= 1e-10, f"max relative gap {worst:.2e}")


def _check_guaranteed_bound(config):
    quick = RunConfig(
        mesh_n=2,
        truncation=1,
        friedrichs=config.friedrichs,
        minres_tol=config.minres_tol,
        minres_maxit=config.minres_maxit,
    )
    try:
        _, (case,) = _sweep("forward", quick)
    except (ConfigError, SolverFailure) as exc:
        return ("guaranteed bound", False, str(exc))
    lowest = min(r.efficiency for r in case.total.modes + [case.total])
    return (
        "guaranteed bound",
        case.bound_ok(),
        f"minimum efficiency index {lowest:.6f}",
    )


def run_verify(config):
    """Self-check suite; returns 0 only if every check passes."""
    checks = [
        _check_quadrature(),
        _check_gauge_kernel(),
        _check_fourier(),
        _check_dense_agreement(),
        _check_friedrichs_eigenvalue(),
        _check_residual_forms(),
        _check_guaranteed_bound(config),
    ]
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eddymh",
        description="Multiharmonic eddy-current benchmarks with guaranteed "
        "a posteriori error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, doc in (
        ("forward", "solve the forward benchmark and bound its error"),
        ("ocp", "solve the control benchmark over the alpha list"),
        ("verify", "run the self-check suite"),
    ):
        commands[name] = sub.add_parser(name, help=doc)
        commands[name].add_argument("--config", metavar="PATH", help="JSON config file")
    for name in ("forward", "ocp"):
        commands[name].add_argument(
            "--out",
            metavar="DIR",
            default="eddymh-out",
            help="output directory (default %(default)s)",
        )
        commands[name].add_argument(
            "--verbose", action="store_true", help="per-mode progress"
        )
    commands["ocp"].add_argument(
        "--threads", type=int, metavar="N", help="worker threads for the alpha sweep"
    )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    threads = getattr(args, "threads", None)
    try:
        if threads is not None and threads < 1:
            raise ConfigError("--threads must be at least 1")
        if args.config is not None:
            config = RunConfig.from_file(args.config)
        else:
            config = RunConfig()
        if args.command == "verify":
            return run_verify(config)
        out_dir = Path(args.out)
        return run(args.command, config, out_dir, threads, args.verbose)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
