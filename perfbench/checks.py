"""Independent checks of the outputs of the benchmark's CLI steps.

    python perfbench/checks.py STEP OUTPUT

Recomputes each output's claims with numpy, and ``scipy.optimize.brentq``
as the Hanner-equation oracle; nothing here imports uconvex, so the library
never checks itself.  Prints one JSON object: ``{"error": null, ...}`` plus
any measured extras (``delta_rel_err`` for the empirical modulus), or the
first property found false in ``error``.  Exit code 0 when the output
passes, 1 when it does not.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from workloads import (STEPS, ConstructP3, ExtractP2, ModulusEmpirical,
                       VerifyGrid)

# Tolerance for comparing a value recomputed here with the value a workload
# wrote.  The outputs carry 17 significant digits; recomputation may sum in
# another order.
REL_TOL = 1e-12
# The library's documented witness feasibility slack (modulus.WITNESS_TOL).
WITNESS_TOL = 1e-9


class CheckError(Exception):
    """An output property that the independent check found false."""


def lp_norm(a, p: float) -> np.ndarray:
    """p-norms along the last axis."""
    a = np.abs(np.asarray(a, dtype=float))
    return np.sum(a ** p, axis=-1) ** (1.0 / p)


def delta_true(p: float, eps: float) -> float:
    """Modulus of convexity of l^p: Clarkson for p >= 2, Hanner below."""
    if p >= 2.0:
        return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)
    return brentq(lambda d: abs(1.0 - d + eps / 2.0) ** p
                  + abs(1.0 - d - eps / 2.0) ** p - 2.0,
                  0.0, 1.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_extract(w: ExtractP2, out: Path) -> dict:
    res = json.loads(out.read_text())
    sel = np.asarray(res["selected"], dtype=int)
    _require(len(sel) >= 2, "fewer than two selected indices")
    _require(len(set(sel.tolist())) == len(sel)
             and sel.min() >= 0 and sel.max() < w.d,
             "selected indices are not distinct indices of the sequence")
    # The sequence is the basis of l^2_d and x = e_0.  With p = 2,
    # ||x - (v_i - v_j)||^2 expands through the Gram matrix, an algorithm
    # independent of the library's coordinate-wise scan.
    x = np.zeros(w.d)
    x[0] = 1.0
    vs = np.eye(w.d)[sel]
    gram = vs @ vs.T
    xv = vs @ x
    sq = np.diag(gram)
    d2 = (x @ x + sq[:, None] + sq[None, :] - 2.0 * xv[:, None]
          + 2.0 * xv[None, :] - 2.0 * gram)
    np.fill_diagonal(d2, np.inf)
    pair_min = float(np.sqrt(d2.min()))
    _require(_close(pair_min, res["pair_min"]),
             f"recomputed pair minimum {pair_min!r} != {res['pair_min']!r}")
    _require(res["pair_min"] >= res["guaranteed"],
             "pair minimum below the guaranteed bound")
    # the basis is sqrt(2)-separated in l^2
    guaranteed = 1.0 + delta_true(2.0, 2.0 * math.sqrt(2.0) / 3.0)
    _require(_close(guaranteed, res["guaranteed"]),
             f"guaranteed {res['guaranteed']!r} != 1 + delta(2 eps/3) "
             f"= {guaranteed!r}")
    return {}


def check_construct(w: ConstructP3, out: Path) -> dict:
    p = 3.0
    trace = json.loads(out.read_text())
    vecs = np.asarray(trace["output"], dtype=float)
    k = w.d - 1
    _require(trace["status"] == "exhausted", "status is not exhausted")
    _require(vecs.shape == (k // 2, w.d),
             f"output shape {vecs.shape}, expected ({k // 2}, {w.d})")
    _require(bool(np.all(np.abs(lp_norm(vecs, p) - 1.0) <= 10 * REL_TOL)),
             "an output vector is not unit")
    min_dist = min(float(lp_norm(vecs[i + 1:] - vecs[i], p).min())
                   for i in range(len(vecs) - 1))
    target = 1.0 + 0.5 * delta_true(p, 2.0 / 3.0)
    _require(min_dist >= target,
             f"minimum pairwise distance {min_dist!r} below {target!r}")
    cert = trace["final_certificate"]
    _require(_close(min_dist, cert["min_pairwise"]),
             f"certificate {cert['min_pairwise']!r} != recomputed "
             f"{min_dist!r}")
    _require(_close(target, cert["threshold"]),
             "certificate threshold is not 1 + delta(2/3)/2")
    return {}


def check_modulus(w: ModulusEmpirical, out: Path) -> dict:
    p = w.p
    points = json.loads(out.read_text())["points"]
    start, stop, count = w.eps.split(":")
    grid = np.linspace(float(start), float(stop), int(count))
    _require(len(points) == len(grid), "wrong number of curve points")
    rel_errs = []
    for pt, eps in zip(points, grid):
        _require(_close(pt["eps"], eps), f"eps {pt['eps']!r} != {eps!r}")
        delta = pt["delta"]
        x = np.array([float(t) for t in pt["witness_x"].split(";")])
        y = np.array([float(t) for t in pt["witness_y"].split(";")])
        _require(x.shape == y.shape == (w.d,), "witness dimension")
        for v in (x, y):
            _require(abs(lp_norm(v, p) - 1.0) <= WITNESS_TOL,
                     f"witness not unit at eps={eps}")
        _require(lp_norm(x - y, p) >= eps - WITNESS_TOL,
                 f"witness infeasible at eps={eps}")
        achieved = 1.0 - 0.5 * lp_norm(x + y, p)
        _require(abs(achieved - delta) <= WITNESS_TOL,
                 f"witness achieves {achieved!r}, point says {delta!r}")
        _require(delta <= eps / 2.0 + WITNESS_TOL,
                 f"delta {delta!r} above eps/2 at eps={eps}")
        true = delta_true(p, eps)
        # the estimator minimises over feasible pairs, so it can only
        # overestimate the infimum
        _require(delta >= true - WITNESS_TOL,
                 f"delta {delta!r} below the true modulus {true!r}")
        rel_errs.append((delta - true) / true)
    return {"delta_rel_err": max(rel_errs)}


def check_verify(w: VerifyGrid, out: Path) -> dict:
    reports = json.loads(out.read_text())
    cells = [(float(p), int(d), float(e)) for p in w.ps.split(",")
             for d in w.ds.split(",") for e in w.eps.split(",")]
    expected = [(s, c) for s in w.statements for c in cells]
    _require(len(reports) == len(expected),
             f"{len(reports)} reports, expected {len(expected)}")
    for rep, (statement, (p, d, eps)) in zip(reports, expected):
        where = f"{statement} p={p} d={d} eps={eps}"
        _require((rep["statement"], rep["p"], rep["d"], rep["eps"])
                 == (statement, p, d, eps), f"cell order at {where}")
        _require(rep["kept"] >= w.trials,
                 f"kept {rep['kept']} below quota at {where}")
        _require(rep["trials"] >= rep["kept"], f"kept > trials at {where}")
        _require(not rep["violations"], f"violations at {where}")
    return {}


CHECKS = {ExtractP2: check_extract, ConstructP3: check_construct,
          ModulusEmpirical: check_modulus, VerifyGrid: check_verify}


def check(step, out: Path) -> dict:
    """Run the step's check; raises :class:`CheckError` on failure."""
    try:
        return CHECKS[type(step)](step, out)
    except (KeyError, IndexError, TypeError, ValueError,
            AttributeError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from exc


def main(argv: list[str]) -> int:
    step, out = STEPS[argv[0]], Path(argv[1])
    try:
        result = {"error": None, **check(step, out)}
    except CheckError as exc:
        result = {"error": str(exc)}
    print(json.dumps(result))
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
