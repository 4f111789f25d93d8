"""Layer scaling sweep, informational and not gated.

    PYTHONPATH=src python perfbench/sweep.py REPORT.json SEED

Times public uconvex functions directly (no tracer) at several sizes:
``sequences.separation`` on n random unit vectors of l^2_128 for
n in {250, 500, 1000}, and ``search.refine`` minimising the modulus
objective ``1 - ||x+y||/2`` over unit pairs with ``||x-y|| >= 1`` in
l^1.5_d for d in {4, 16, 64} at a fixed evaluation budget.  Writes the
rates to REPORT.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from uconvex.search import EvalBudget, refine
from uconvex.sequences import separation
from uconvex.spaces import SpaceSpec, norm, normalize

SEPARATION_NS = (250, 500, 1000)
SEPARATION_D = 128
REFINE_DS = (4, 16, 64)
REFINE_EVALS = 20000


def separation_rate(n: int, rng: np.random.Generator) -> float:
    space = SpaceSpec(p=2.0, d=SEPARATION_D)
    g = rng.standard_normal((n, SEPARATION_D))
    seq = g / np.linalg.norm(g, axis=1)[:, None]
    t0 = time.perf_counter()
    separation(space, seq)
    return n * (n - 1) / 2 / (time.perf_counter() - t0)


def refine_rate(d: int, rng: np.random.Generator) -> float:
    space = SpaceSpec(p=1.5, d=d)
    evals = 0

    def objective(z):
        nonlocal evals
        evals += 1
        return 1.0 - 0.5 * norm(space, z[:d] + z[d:])

    def project(z):
        return np.concatenate([normalize(space, z[:d]),
                               normalize(space, z[d:])])

    def feasible(z):
        return norm(space, z[:d] - z[d:]) >= 1.0

    x = normalize(space, rng.standard_normal(d))
    z0 = np.concatenate([x, -x])
    t0 = time.perf_counter()
    refine(z0, objective, project, feasible, EvalBudget(REFINE_EVALS))
    return evals / (time.perf_counter() - t0)


def main(argv: list[str]) -> int:
    report, seed = Path(argv[0]), int(argv[1])
    rng = np.random.default_rng(seed)
    metrics = {}
    for n in SEPARATION_NS:
        metrics[f"sweep.separation.n{n}.pairs_per_s"] = separation_rate(n, rng)
    for d in REFINE_DS:
        metrics[f"sweep.refine.d{d}.evals_per_s"] = refine_rate(d, rng)
    report.write_text(json.dumps(metrics, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
