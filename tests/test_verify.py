import json
import math

import numpy as np
import pytest

from uconvex import curves, verify
from uconvex.curves import (ModulusCurve, ModulusPoint, build_curve,
                            check_modulus_properties, delta_from_constraint,
                            lp_delta, summary_line)
from uconvex.errors import CertificateError, UconvexError
from uconvex.sequences import unit_basis_seed
from uconvex.spaces import SpaceSpec, norm, norming_functional, unit_batch
from uconvex.verify import (check_lemma23, check_remark45,
                            check_thm2_condition3, reverify_violation,
                            run_grid)

GRID_P = (1.5, 2.0, 3.0)
GRID_D = (2, 8)
GRID_EPS = (0.5, 1.0, 1.9)


# ----------------------------- sampler checks -----------------------------

@pytest.mark.parametrize("p,d,eps", [(1.5, 2, 0.5), (2.0, 8, 1.0),
                                     (3.0, 2, 1.9)])
def test_lemma23_zero_violations(p, d, eps):
    rep = check_lemma23(SpaceSpec(p=p, d=d), eps, trials=3000, rng_seed=11)
    assert rep.violations == ()
    assert rep.kept >= 3000
    assert rep.trials >= rep.kept
    assert rep.delta_used == pytest.approx(lp_delta(p, 2 * eps / 3), abs=1e-12)


@pytest.mark.parametrize("p,d,eps", [(1.5, 2, 0.5), (2.0, 8, 1.0),
                                     (3.0, 2, 1.9)])
def test_thm2_condition3_zero_violations(p, d, eps):
    rep = check_thm2_condition3(SpaceSpec(p=p, d=d), eps, trials=3000,
                                rng_seed=12)
    assert rep.violations == ()
    assert rep.kept >= 3000
    expected = delta_from_constraint(p, eps)
    assert rep.delta_used == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("k", [1, 4])
def test_remark45_zero_violations(k):
    for p, d, eps in ((1.5, 2, 0.5), (2.0, 8, 1.0), (3.0, 2, 1.9)):
        rep = check_remark45(SpaceSpec(p=p, d=d), eps, trials=2500, k=k,
                             rng_seed=13)
        assert rep.violations == ()
        assert rep.kept >= 2500
        assert rep.delta_used == pytest.approx(
            0.5 * lp_delta(p, 0.8 * eps), abs=1e-12)


def test_remark45_rejects_bad_rank():
    with pytest.raises(ValueError):
        check_remark45(SpaceSpec(p=2, d=2), 1.0, trials=10, k=0, rng_seed=0)


def test_reports_are_deterministic():
    space = SpaceSpec(p=2, d=4)
    a = check_lemma23(space, 1.0, trials=2000, rng_seed=21)
    b = check_lemma23(space, 1.0, trials=2000, rng_seed=21)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == \
        json.dumps(b.to_json_dict(), sort_keys=True)
    c = check_lemma23(space, 1.0, trials=2000, rng_seed=22)
    assert (c.kept, c.trials) != (a.kept, a.trials)  # different stream


def test_run_grid_covers_cells_and_quota():
    reports = run_grid("lemma23", GRID_P, GRID_D, GRID_EPS,
                       trials=100, rng_seed=5)
    assert len(reports) == 18
    assert all(rep.kept >= 100 for rep in reports)
    assert all(rep.kept > 0 for rep in reports)
    assert sum(rep.kept for rep in reports) >= 1800
    with pytest.raises(ValueError):
        run_grid("lemma23", [], [], [], trials=10, rng_seed=0)
    with pytest.raises(ValueError):
        run_grid("nope", GRID_P, GRID_D, GRID_EPS, trials=10, rng_seed=0)


def test_summary_line_format():
    rep = check_lemma23(SpaceSpec(p=2, d=2), 1.0, trials=100, rng_seed=1)
    line = summary_line(rep)
    fields = line.split(",")
    assert fields[0] == "lemma23"
    assert fields[1] == "2" and fields[2] == "2" and fields[3] == "1"
    assert fields[-1] == "0"


# ----------------------------- crafted trials -----------------------------

def test_lemma23_trivial_and_radial_cases():
    # x' = x and x' = (1 + 0.99 delta) x both satisfy the hypotheses and
    # the conclusion; neither may re-verify as a violation
    space = SpaceSpec(p=2, d=3)
    x = unit_batch(space, np.random.default_rng(0), 1)[0]
    f = norming_functional(space, x)
    eps = 1.0
    delta = lp_delta(space.p, 2 * eps / 3)
    for xp in (x.copy(), (1 + 0.99 * delta) * x):
        record = {
            "p": space.p, "eps": eps, "delta": delta,
            "x": x.tolist(), "x_prime": xp.tolist(),
            "functional": f.tolist(),
        }
        assert abs(1 - norm(space, xp)) < delta
        assert abs(float(np.dot(x - xp, f))) < delta
        assert norm(space, x - xp) < eps
        assert not reverify_violation("lemma23", record)


def test_thm2_antipodal_trial_is_rejected_not_violating():
    # x' = -x: condition (iv) holds for the norming functional but (v)
    # fails since |<x - x', x*>| = 2 > delta, so the trial is filtered out
    space = SpaceSpec(p=2, d=3)
    x = unit_batch(space, np.random.default_rng(1), 1)[0]
    f = norming_functional(space, x)
    eps = 1.0
    delta = delta_from_constraint(space.p, eps)
    assert abs(float(np.dot(x, f))) > 1 - delta
    assert abs(float(np.dot(x - (-x), f))) >= 2 * (1 - delta) > delta
    record = {
        "p": space.p, "eps": eps, "delta": delta,
        "x": x.tolist(), "x_prime": (-x).tolist(), "functional": f.tolist(),
    }
    assert not reverify_violation("thm2_condition3", record)


def test_fabricated_violation_reverifies():
    # a hand-built record that genuinely violates lemma23's shape: the
    # hypotheses hold but the conclusion fails (possible only because the
    # "functional" here is not a norming functional, delta not a modulus)
    space = SpaceSpec(p=2, d=2)
    x = np.array([1.0, 0.0])
    xp = np.array([0.0, 1.0])
    record = {
        "p": 2.0, "eps": 0.5, "delta": 0.9,
        "x": x.tolist(), "x_prime": xp.tolist(),
        "functional": [0.5, 0.5],
    }
    assert reverify_violation("lemma23", record)
    record["x_prime"] = x.tolist()  # conclusion now holds: not a violation
    assert not reverify_violation("lemma23", record)
    record["x_prime"] = (3.0 * xp).tolist()  # hypothesis (i) now fails
    assert not reverify_violation("lemma23", record)


def test_remark45_reverify_shapes():
    space = SpaceSpec(p=2, d=2)
    x = np.array([1.0, 0.0])
    record = {
        "p": 2.0, "eps": 0.5, "delta": 0.9,
        "x": x.tolist(), "x_prime": [0.0, 1.0],
        "rows": [[0.2, 0.0], [0.0, 0.2]],
    }
    assert reverify_violation("remark45", record)
    assert not reverify_violation(
        "remark45", {**record, "x_prime": x.tolist()})
    # ||Tx||_sup = 0.05 is not above 1 - delta: hypothesis (ii) fails
    assert not reverify_violation(
        "remark45", {**record, "rows": [[0.05, 0.0], [0.0, 0.2]]})
    with pytest.raises(ValueError):
        reverify_violation("unknown", record)


MISSING = object()  # a change that removes the field


@pytest.mark.parametrize("statement, change, named", [
    ("lemma23", {"functional": [1.0]}, "functional"),  # was broadcast
    ("lemma23", {"functional": [[1.0, 0.0]]}, "functional"),  # raw einsum
    ("lemma23", {"functional": [1.0, math.nan]}, "functional"),
    ("lemma23", {"delta": math.nan}, "delta"),   # was a silent False
    ("lemma23", {"eps": math.nan}, "eps"),       # was a silent False
    ("lemma23", {"delta": 0.0}, "delta"),
    ("remark45", {"rows": [1.0, 0.0]}, "rows"),
    ("remark45", {"rows": []}, "rows"),
    ("lemma23", {"x": [1.0, "a"]}, "'x'"),  # was numpy's plain ValueError
    ("lemma23", {"functional": [[1.0], [0.0, 1.0]]}, "functional"),  # ragged
    ("lemma23", {"p": math.nan}, "exponent p"),  # was SpaceSpec's ValueError
    ("lemma23", {"x": []}, "dimension d"),       # d = 0: the same
    # each was a plain ValueError, TypeError or KeyError
    ("lemma23", {"p": "abc"}, "'p'"),
    ("lemma23", {"p": None}, "'p'"),
    ("lemma23", {"eps": "a"}, "'eps'"),
    ("lemma23", {"eps": None}, "'eps'"),
    ("lemma23", {"delta": None}, "'delta'"),
    ("lemma23", {"x": [{}, 0.0]}, "'x'"),
    ("lemma23", {"x": 5.0}, "'x'"),
    ("lemma23", {"x": MISSING}, "'x'"),
], ids=["short", "2d", "nan-functional", "nan-delta", "nan-eps", "zero-delta",
        "flat-rows", "no-rows", "non-numeric-x", "ragged-functional", "nan-p",
        "empty-x", "text-p", "none-p", "text-eps", "none-eps", "none-delta",
        "dict-in-x", "scalar-x", "missing-x"])
def test_reverify_rejects_malformed_records(statement, change, named):
    # x = e_0, x' = e_1 in l^2_2; each change makes a field unreadable, and
    # the error names it
    record = {"p": 2.0, "eps": 0.5, "delta": 0.01, "x": [1.0, 0.0],
              "x_prime": [0.0, 1.0], "functional": [1.0, 0.0],
              "rows": [[1.0, 0.0]]}
    record = {k: v for k, v in {**record, **change}.items()
              if v is not MISSING}
    with pytest.raises(UconvexError, match=named):
        reverify_violation(statement, record)


# ----------------------------- curve properties -----------------------------

def test_modulus_properties_pass_closed_form():
    curve = build_curve(2.0, np.linspace(0.02, 2.0, 100), "clarkson")
    rep = check_modulus_properties(curve)
    assert rep.violations == ()
    assert rep.statement == "modulus_properties"
    assert rep.trials == 199  # 100 bound checks + 99 monotone checks
    assert all(reverify_violation(rep.statement, r) for r in rep.violations)


def test_modulus_properties_boundary_point():
    curve = ModulusCurve(space="l^2",
                         points=(ModulusPoint(2.0, 1.0, "clarkson"),))
    assert check_modulus_properties(curve).violations == ()


def test_modulus_properties_corrupted_curve():
    pts = (ModulusPoint(0.5, 0.4, "clarkson"),   # 0.4 > 0.25 = eps/2
           ModulusPoint(1.0, 0.1, "clarkson"))   # also a monotone drop
    rep = check_modulus_properties(ModulusCurve(space="l^2", points=pts))
    kinds = sorted(v["kind"] for v in rep.violations)
    assert kinds == ["bound", "monotonicity"]
    assert all(reverify_violation(rep.statement, r) for r in rep.violations)
    line = summary_line(rep)
    assert line.startswith("modulus_properties,")
    assert line.endswith(",2")


def test_build_curve_rejects_what_the_checker_reports(monkeypatch):
    # an engine that breaks both invariants: over eps/2 at 0.5, then a drop
    fake = {0.5: 0.3, 1.0: 0.1, 1.5: 0.2}
    monkeypatch.setattr(curves, "clarkson_delta", lambda p, e: fake[e])
    with pytest.raises(CertificateError, match="breaking bound at eps=0.5"):
        build_curve(2.0, list(fake), "clarkson")
    pts = tuple(ModulusPoint(e, d, "clarkson") for e, d in fake.items())
    rep = check_modulus_properties(ModulusCurve(space="l^2", points=pts))
    assert [v["kind"] for v in rep.violations] == ["bound", "monotonicity"]
    assert rep.trials == rep.kept == 5
    assert all(reverify_violation(rep.statement, r) for r in rep.violations)


def test_modulus_properties_empirical_slack():
    pts = (ModulusPoint(0.5, 0.03, "empirical"),
           ModulusPoint(1.0, 0.029, "empirical"),  # dip within 2e-3 slack
           ModulusPoint(1.5, 0.75 + 1e-15, "empirical"))  # within rounding
    rep = check_modulus_properties(ModulusCurve(space="l^2_2", points=pts))
    assert rep.violations == ()


def test_modulus_properties_empirical_bound_has_only_rounding_slack():
    # the bound's slack is the rounding of the Clarkson candidate, about
    # 2e-15, so 5e-10 above eps/2 is a violation
    pts = (ModulusPoint(1.5, 0.75 + 5e-10, "empirical"),)
    rep = check_modulus_properties(ModulusCurve(space="l^2_2", points=pts))
    assert [v["kind"] for v in rep.violations] == ["bound"]
    assert 0.0 < rep.violations[0]["slack"] < 1e-14
    assert reverify_violation(rep.statement, rep.violations[0])


def test_report_json_dict_is_json_serializable():
    curve = build_curve(2.0, [0.5, 1.0], "clarkson")
    rep = check_modulus_properties(curve)
    payload = json.dumps(rep.to_json_dict())  # a curve report has no p
    assert json.loads(payload)["p"] is None
    rep2 = check_lemma23(SpaceSpec(p=2, d=2), 1.0, trials=50, rng_seed=0)
    assert json.loads(json.dumps(rep2.to_json_dict()))["p"] == 2.0


# ----------------------------- counts and flags checked up front -----------------------------

@pytest.mark.parametrize("call", [
    lambda sp: check_lemma23(sp, 1.0, 0, 0),
    lambda sp: check_thm2_condition3(sp, 1.0, -1, 0),
    lambda sp: check_remark45(sp, 1.0, -5, 2, 0),
    lambda sp: check_remark45(sp, 1.0, 10, 0, 0),
], ids=["lemma23-0", "thm2-negative", "remark45-negative", "remark45-k0"])
def test_sampler_cell_rejects_no_trials_before_drawing(monkeypatch, call):
    draws = []
    monkeypatch.setattr(verify, "unit_batch",
                        lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=">= 1"):
        call(SpaceSpec(p=2, d=4))
    assert draws == []


@pytest.mark.parametrize("statement, kwargs", [
    ("lemma23", {"trials": 0}),
    ("lemma23", {"trials": -100}),
    ("lemma23", {"eps_values": [1.0, 3.0]}),
    ("thm2_condition3", {"eps_values": [0.0]}),
    ("lemma23", {"k": 0}),
    ("remark45", {"k": 0}),
])
def test_run_grid_rejects_bad_arguments_before_any_cell(monkeypatch,
                                                        statement, kwargs):
    calls = []
    for name in verify.SAMPLERS:
        monkeypatch.setattr(verify, f"check_{name}",
                            lambda *args: calls.append(args))
    grid = {"eps_values": GRID_EPS, "trials": 100, **kwargs}
    with pytest.raises(ValueError):
        run_grid(statement, GRID_P, GRID_D, grid.pop("eps_values"),
                 rng_seed=0, **grid)
    assert calls == []
