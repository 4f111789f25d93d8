"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are pinned here and nowhere else."""

import json
import math
import time

import numpy as np
import pytest

from uconvex.cli import main as cli_main
from uconvex.curves import (ModulusCurve, build_curve,
                            check_modulus_properties, clarkson_delta,
                            hanner_delta, lp_delta)
from uconvex.modulus import empirical_delta
from uconvex.sequences import (ramsey_extract, shifted_basis_seed,
                               theorem1_extract, theorem3_construct,
                               unit_basis_seed)
from uconvex.spaces import SpaceSpec, normalize
from uconvex.verify import run_grid

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# oracle values for criterion 2, evaluated at 40-digit precision
# (1 - sqrt(3)/2 and 1 - (15/16)^(1/4); the second corrects a transcribed
# digit, see the decisions ledger)
SPOT_2_1 = 0.13397459621556135
SPOT_4_1 = 0.01600516436728479


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_formula_agreement():
    start = time.perf_counter()
    grid = np.linspace(0.02, 2.0, 100)
    worst = max(abs(clarkson_delta(2.0, e) - hanner_delta(2.0, e))
                for e in grid)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, ok, f"clarkson/hanner agreement at p=2 on 100 points: "
                  f"max diff {worst:.3e} (tol 1e-10), {elapsed:.2f}s (< 1s)")


def test_criterion_2_closed_form_spot_values():
    errs = {
        "clarkson(2,1)": abs(clarkson_delta(2, 1) - SPOT_2_1),
        "clarkson(4,1)": abs(clarkson_delta(4, 1) - SPOT_4_1),
    }
    ok = all(e <= 1e-8 for e in errs.values())
    for p in (1.1, 1.5, 2.0):
        errs[f"hanner({p},2)"] = abs(hanner_delta(p, 2.0) - 1.0)
        ok = ok and errs[f"hanner({p},2)"] <= 1e-9
    worst = max(errs, key=errs.get)
    report(2, ok, f"spot values within tolerance; worst {worst} "
                  f"err {errs[worst]:.3e}")


@pytest.fixture(scope="module")
def empirical_grid():
    results = {}
    start = time.perf_counter()
    for p in (1.5, 2.0, 3.0, 4.0):
        for eps in (0.5, 1.0, 1.5):
            space = SpaceSpec(p=p, d=2)
            results[(p, eps)] = empirical_delta(space, eps, budget=100_000,
                                                rng_seed=1234)
    return results, time.perf_counter() - start


def test_criterion_3_empirical_estimator(empirical_grid):
    results, elapsed = empirical_grid
    worst_abs, lower_ok = 0.0, True
    for (p, eps), pt in results.items():
        ref = lp_delta(p, eps)
        worst_abs = max(worst_abs, abs(pt.delta - ref))
        lower_ok = lower_ok and pt.delta >= ref - 1e-9
    ok = worst_abs <= 1e-3 and lower_ok and elapsed < 60.0
    report(3, ok, f"12 cells at budget 1e5: max |emp - formula| "
                  f"{worst_abs:.2e} (tol 1e-3), one-sided bound "
                  f"{'held' if lower_ok else 'VIOLATED'}, "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_4_modulus_properties(empirical_grid):
    results, _ = empirical_grid
    curves = []
    grid = np.linspace(0.02, 2.0, 100)
    for p in (1.5, 2.0):
        curves.append(build_curve(p, grid, "hanner"))
    for p in (2.0, 3.0, 4.0):
        curves.append(build_curve(p, grid, "clarkson"))
    for p in (1.5, 2.0, 3.0, 4.0):
        pts = tuple(results[(p, eps)] for eps in (0.5, 1.0, 1.5))
        curves.append(ModulusCurve(space=f"l^{p:g}_2", points=pts))
    violations = sum(len(check_modulus_properties(c).violations)
                     for c in curves)
    ok = violations == 0
    report(4, ok, f"delta <= eps/2 and monotonicity on {len(curves)} curves "
                  f"({sum(len(c.points) for c in curves)} points): "
                  f"{violations} violations")


def test_criterion_5_theorem1_certificates():
    space = SpaceSpec(p=2, d=200)
    seq = unit_basis_seed(space, 200)
    res = theorem1_extract(space, seq, seq[0], eps=SQRT2)
    basis_ok = (len(res.selected) == 199
                and abs(res.pair_min - SQRT3) <= 1e-9
                and res.pair_min >= 1.1180829 - 1e-9)

    space64 = SpaceSpec(p=2, d=64)
    rng = np.random.default_rng(20260808)
    violations = 0
    for _ in range(100):
        q, _r = np.linalg.qr(rng.standard_normal((64, 64)))
        c = rng.uniform(0.5, 1.4)
        rotated = [c * q[:, i] for i in range(64)]
        x = normalize(space64, rng.standard_normal(64))
        out = theorem1_extract(space64, rotated, x, eps=c * SQRT2)
        if out.pair_min < out.guaranteed - 1e-9:
            violations += 1
    ok = basis_ok and violations == 0
    report(5, ok, f"basis l^2_200: cluster {len(res.selected)}, pair_min "
                  f"{res.pair_min:.10f} = sqrt(3) >= 1.1180829; 100 "
                  f"randomized scaled/rotated bases: {violations} violations")


def test_criterion_6_theorem3_construction():
    start = time.perf_counter()
    space = SpaceSpec(p=2, d=64)
    trace = theorem3_construct(space, shifted_basis_seed(space, 63),
                               max_len=64)
    accepted = [s for s in trace.steps if s.accepted]
    low_ok = (trace.branch == "low"
              and len(trace.output) == 31
              and abs(trace.final_certificate.min_pairwise - SQRT2) <= 1e-9
              and trace.final_certificate.min_pairwise >= 1.0285955 - 1e-9
              and all(abs(s.y_norm - 1.0) <= 1e-9 for s in accepted))

    space16 = SpaceSpec(p=2, d=16)
    high = theorem3_construct(space16, unit_basis_seed(space16, 16),
                              max_len=16)
    high_ok = high.branch == "high" and high.steps == ()
    elapsed = time.perf_counter() - start
    ok = low_ok and high_ok and elapsed < 10.0
    report(6, ok, f"shifted l^2_64: branch low, {len(trace.output)} vectors "
                  f"at {trace.final_certificate.min_pairwise:.10f} >= "
                  f"1.0285955; basis l^2_16 short-circuits high; "
                  f"{elapsed:.1f}s (< 10s)")


def test_criterion_7_ramsey_extractor():
    rng = np.random.default_rng(777)
    n = 64
    floor = math.ceil(math.log2(n)) // 2
    bad = 0
    for _ in range(200):
        m = np.where(rng.random((n, n)) < 0.5, 0.0, 2.0)
        m = np.triu(m, 1)
        m = m + m.T
        idx, branch = ramsey_extract([m[i, i + 1:] for i in range(n)],
                                     split=1.0)
        sub = m[np.ix_(idx, idx)]
        off_diag = sub[~np.eye(len(idx), dtype=bool)]
        mono = (np.all(off_diag <= 1.0) if branch == "low"
                else np.all(off_diag > 1.0))
        if not mono or len(idx) < max(floor, 1):
            bad += 1
    ok = bad == 0
    report(7, ok, f"200 random two-valued 64x64 matrices: monochromatic "
                  f"with size >= {floor}, {bad} failures")


def test_criterion_8_adversarial_verification():
    start = time.perf_counter()
    ps, ds, eps_values = (1.5, 2.0, 3.0), (2, 8), (0.5, 1.0, 1.9)
    quota = math.ceil(100_000 / (len(ps) * len(ds) * len(eps_values)))
    summary = {}
    ok = True
    for statement in ("lemma23", "thm2_condition3", "remark45"):
        reports = run_grid(statement, ps, ds, eps_values,
                           trials=quota, rng_seed=424242)
        kept = sum(r.kept for r in reports)
        violations = sum(len(r.violations) for r in reports)
        per_cell_ok = all(r.kept > 0 for r in reports)
        summary[statement] = (kept, violations)
        ok = ok and kept >= 100_000 and violations == 0 and per_cell_ok
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    detail = "; ".join(f"{s}: kept {k}, violations {v}"
                       for s, (k, v) in summary.items())
    report(8, ok, f"{detail}; {elapsed:.1f}s (< 600s)")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    cases = [
        ("modulus", "--p", "1.5", "--d", "2", "--method", "empirical",
         "--eps", "0.5,1.5", "--budget", "20000", "--seed", "11"),
        ("construct", "--p", "3", "--d", "12", "--seed-kind",
         "shifted-basis", "--n", "11", "--max-len", "3"),
        ("verify", "--statement", "remark45", "--p", "2", "--d", "2",
         "--eps", "1", "--trials", "500", "--seed", "11"),
        ("extract", "--mode", "theorem1", "--p", "2", "--d", "50",
         "--seq-kind", "basis"),
    ]
    identical = True
    for i, args in enumerate(cases):
        a, b = tmp_path / f"{i}_a.out", tmp_path / f"{i}_b.out"
        code_a = cli_main([*args, "--out", str(a)])
        code_b = cli_main([*args, "--out", str(b)])
        capsys.readouterr()
        identical = (identical and code_a == code_b
                     and a.read_bytes() == b.read_bytes())
    report(9, identical,
           f"{len(cases)} CLI commands rerun with identical flags and seed "
           f"produce byte-identical files")
