"""Workload definitions shared by run.py and its worker interpreters.

Pure Python on purpose: run.py imports this module without numpy,
scipy or eddymh, so it can refuse to run (and say why) when the package
source is missing.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Mesh size n and truncation N used by the benchmark's own smoke test.
SMOKE_SIZE = (2, 1)

# ocp-sweep sweeps three alphas.  The low one is fixed at 10**-1.9375, a
# point where mode 1's majorant minimization runs to maxit (50) without
# converging: its cost is erratic over [1e-2, 1e-1] (3 to 10 s per alpha at
# n=6), so a seeded draw there spread case_s across seeds past the bound,
# and this point keeps that defect in view.  The other two are drawn per
# seed, log-uniformly over a grid of ALPHA_GRID log-cell midpoints per
# interval, so every alpha a seed can draw has pinned reference errors.
LOW_ALPHA = 10.0**-1.9375
ALPHA_INTERVALS = ((0.5, 2.0), (1e1, 1e2))
ALPHA_GRID = 8

# Relative tolerance of the exact-error totals against the references.
ERROR_RTOL = 1e-8
# Efficiency indices may not fall below 1 by more than this.
BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class Workload:
    """One named workload: which path runs a case, on which problem size."""

    name: str
    path: str  # "cli" runs eddymh.cli.main, "library" the presets API
    problem: str
    preset: str
    size: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload("forward-bound", "cli", "forward", "paper-forward", (8, 2)),
        Workload("ocp-sweep", "cli", "ocp", "paper-ocp", (6, 2)),
        Workload("solve-only", "library", "forward", "exp", (12, 4)),
    )
}


def grid_alpha(interval, j):
    """Alpha at the midpoint of log-cell ``j`` of ``interval``."""
    lo, hi = (math.log10(v) for v in interval)
    return 10.0 ** (lo + (j + 0.5) * (hi - lo) / ALPHA_GRID)


def drawable_alphas():
    """Every alpha an ocp-sweep case can use, whatever the seed."""
    grid = [grid_alpha(iv, j) for iv in ALPHA_INTERVALS for j in range(ALPHA_GRID)]
    return [LOW_ALPHA] + grid


def draw_alphas(seed):
    """The ocp-sweep alphas for ``seed``, ascending."""
    rng = random.Random(seed)
    return [LOW_ALPHA] + [
        grid_alpha(iv, rng.randrange(ALPHA_GRID)) for iv in ALPHA_INTERVALS
    ]


def inputs(workload, seed, smoke=False):
    """Everything a case of ``workload`` depends on, as plain data.

    Only ocp-sweep depends on the seed (through two of its alphas); the
    other two workloads are fixed by (preset, n, N).
    """
    n, N = SMOKE_SIZE if smoke else workload.size
    alphas = draw_alphas(seed) if workload.problem == "ocp" else None
    return {"n": n, "N": N, "alphas": alphas}


def size_key(n, N):
    return f"n{n}-N{N}"


def alpha_key(alpha):
    return repr(float(alpha))


def load_references():
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def reference_errors(references, workload, n, N, alpha=None):
    """Pinned exact-error totals {field: semi_total} for one solve."""
    table = references[workload.name][size_key(n, N)]
    return table if alpha is None else table[alpha_key(alpha)]
