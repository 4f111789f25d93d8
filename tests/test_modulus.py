import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from uconvex.cli import _json_text
from uconvex.curves import (ModulusCurve, ModulusPoint, _bisect, build_curve,
                            clarkson_delta, delta_from_constraint,
                            hanner_delta, lp_delta)
from uconvex.errors import CertificateError, PreconditionError
from uconvex.modulus import empirical_delta, validate_witness
from uconvex.spaces import SpaceSpec, norm

# frozen oracle values; formulas evaluated at 40-digit precision, roots
# located independently with scipy.optimize.brentq at xtol=1e-15
CLARKSON_2_1 = 0.1339745962155614    # 1 - sqrt(3)/2
CLARKSON_4_1 = 0.01600516436728483   # 1 - (15/16)^(1/4)
CLARKSON_3_1 = 0.04353440861380542   # 1 - (7/8)^(1/3)
HANNER_15_1 = 0.06712261032901637
FIXEDPOINT_L2_EPS1_HALF = 0.058823529411764705  # 1/17, exact


def hanner_oracle(p, eps):
    """Independent root of the implicit equation (brentq, not bisection)."""
    def f(d):
        return abs(1 - d + eps / 2) ** p + abs(1 - d - eps / 2) ** p - 2
    if f(1.0) == 0.0:
        return 1.0
    return brentq(f, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)


def l2_curve(e):
    return 1.0 - math.sqrt(max(0.0, 1.0 - (e / 2.0) ** 2))


# ----------------------------- closed forms -----------------------------

def test_clarkson_spot_values():
    assert clarkson_delta(2, 2) == pytest.approx(1.0, abs=1e-15)
    assert clarkson_delta(2, 1) == pytest.approx(CLARKSON_2_1, abs=1e-12)
    assert clarkson_delta(4, 1) == pytest.approx(CLARKSON_4_1, abs=1e-12)


def test_clarkson_domain_errors():
    with pytest.raises(ValueError):
        clarkson_delta(1.5, 1.0)
    with pytest.raises(ValueError):
        clarkson_delta(2.0, 0.0)
    with pytest.raises(ValueError):
        clarkson_delta(2.0, 2.5)
    for eps in ("a", None):  # was a plain TypeError
        with pytest.raises(PreconditionError, match="eps must lie"):
            clarkson_delta(2.0, eps)


def test_hanner_matches_independent_root_finder():
    for p in (1.1, 1.3, 1.5, 1.8, 2.0):
        for eps in (0.05, 0.5, 1.0, 1.5, 1.99):
            assert hanner_delta(p, eps) == pytest.approx(
                hanner_oracle(p, eps), abs=1e-12)


def test_hanner_spot_p15():
    assert hanner_delta(1.5, 1.0) == pytest.approx(HANNER_15_1, abs=1e-10)


def test_hanner_eps2_exact_root():
    for p in (1.1, 1.5, 2.0):
        assert hanner_delta(p, 2.0) == 1.0


def test_hanner_small_eps_limit():
    assert hanner_delta(1.5, 1e-9) <= 1e-9


def test_hanner_domain_errors():
    with pytest.raises(ValueError):
        hanner_delta(3.0, 1.0)
    with pytest.raises(ValueError):
        hanner_delta(1.0, 1.0)
    with pytest.raises(ValueError):
        hanner_delta(1.5, -0.5)


@given(st.floats(min_value=1.01, max_value=2.0),
       st.floats(min_value=1e-6, max_value=2.0))
@settings(max_examples=150, deadline=None)
def test_hanner_residual_bound(p, eps):
    d = hanner_delta(p, eps)
    residual = (abs(1 - d + eps / 2) ** p + abs(1 - d - eps / 2) ** p - 2)
    assert abs(residual) <= 1e-10
    assert 0.0 <= d <= 1.0


def test_lp_delta_dispatch_and_agreement():
    # both engines cover p = 2 and must agree there
    grid = np.linspace(0.02, 2.0, 100)
    for eps in grid:
        assert abs(clarkson_delta(2, eps) - hanner_delta(2, eps)) <= 1e-10
    assert lp_delta(3, 1) == pytest.approx(CLARKSON_3_1, abs=1e-12)
    assert lp_delta(1.5, 1) == pytest.approx(HANNER_15_1, abs=1e-10)
    with pytest.raises(ValueError):
        lp_delta(1.0, 1.0)
    with pytest.raises(ValueError):
        lp_delta(math.inf, 1.0)


def test_lp_delta_at_p2_is_clarkson_without_hanner(monkeypatch):
    import uconvex.curves

    calls = []
    monkeypatch.setattr(uconvex.curves, "hanner_delta",
                        lambda *args: calls.append(args))
    for eps in np.linspace(0.02, 2.0, 100):
        assert lp_delta(2.0, eps) == clarkson_delta(2.0, eps)
    assert calls == []


@given(st.floats(min_value=1.05, max_value=6.0),
       st.floats(min_value=1e-6, max_value=2.0))
@settings(max_examples=150, deadline=None)
def test_delta_at_most_half_eps(p, eps):
    assert lp_delta(p, eps) <= eps / 2.0


@given(st.floats(min_value=1.05, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_delta_monotone_in_eps(p):
    grid = np.linspace(0.05, 2.0, 40)
    deltas = [lp_delta(p, e) for e in grid]
    assert all(b >= a for a, b in zip(deltas, deltas[1:]))


# ----------------------------- constraint solver -----------------------------

def test_delta_from_constraint_fixed_point():
    for eps in (0.3, 1.0, 1.7):
        d = delta_from_constraint(2.0, eps)
        assert d == pytest.approx(0.5 * l2_curve(eps - d), abs=1e-9)
        assert 0.0 < d < eps


def test_delta_from_constraint_frozen_value():
    assert delta_from_constraint(2.0, 1.0) == pytest.approx(
        FIXEDPOINT_L2_EPS1_HALF, abs=1e-9)


def test_delta_from_constraint_dominates_paper_choice():
    # d = delta(2 eps / 3) / 2 <= eps / 6 leaves eps - d >= 2 eps / 3, so it
    # satisfies the constraint and the largest solution must dominate it
    for p in (1.5, 2.0, 3.0):
        for eps in (0.4, 1.0, 1.9):
            d = delta_from_constraint(p, eps)
            assert d >= 0.5 * lp_delta(p, 2.0 * eps / 3.0) - 1e-9


def test_delta_from_constraint_rejects_bad_input():
    with pytest.raises(ValueError):
        delta_from_constraint(1.0, 1.0)
    with pytest.raises(ValueError):
        delta_from_constraint(2.0, 2.5)
    # lp_delta(50, 1) rounds to 0, so no positive delta exists
    with pytest.raises(PreconditionError, match="vanishes at eps"):
        delta_from_constraint(50.0, 1.0)


# ----------------------------- one bisection -----------------------------

def old_hanner_delta(p, eps):
    """``hanner_delta``'s own bisection loop, before ``curves._bisect``.

    It also keeps the old residual check, which the grid below shows can
    never fail.
    """
    def residual(d):
        return (abs(1.0 - d + eps / 2.0) ** p
                + abs(1.0 - d - eps / 2.0) ** p - 2.0)

    lo, hi = 0.0, 1.0
    if residual(hi) >= 0.0:
        return hi
    if residual(lo) <= 0.0:
        return lo
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(residual(root)) <= 1e-10
    return root


def old_constraint_loop(curve_eval, eps, factor):
    """``delta_from_constraint``'s own bisection loop, before ``_bisect``."""
    def g(d):
        return factor * curve_eval(eps - d) - d

    lo = 0.0
    hi = eps * (1.0 - 1e-12)
    if g(lo) <= 0.0:
        raise PreconditionError("curve vanishes at eps")
    if g(hi) >= 0.0:
        return hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# every delta the verify grid (eps in {0.5, 1, 1.9}) and theorem 3 use,
# plus eps from 1e-9 to 2
BISECTION_EPS = sorted({*np.geomspace(1e-9, 2.0, 24).tolist(), 2.0 / 3.0,
                        *(2.0 * e / 3.0 for e in (0.5, 1.0, 1.9)),
                        *(4.0 * e / 5.0 for e in (0.5, 1.0, 1.9))})


@pytest.mark.parametrize("p", [1.0001, 1.001, 1.01, 1.999,
                               *np.linspace(1.05, 2.0, 20).round(4)])
def test_hanner_delta_equals_its_old_loop_bit_for_bit(p):
    for eps in BISECTION_EPS:
        assert hanner_delta(p, eps) == old_hanner_delta(p, eps), eps


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
def test_delta_from_constraint_equals_its_old_loop_bit_for_bit(p):
    def curve(e):
        return lp_delta(p, e)

    for eps in (1e-3, 0.1, 0.5, 1.0, 1.5, 1.9, 2.0, *BISECTION_EPS):
        try:
            want = old_constraint_loop(curve, eps, 0.5)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                delta_from_constraint(p, eps)
            continue
        assert delta_from_constraint(p, eps) == want


def test_bisect_contract():
    # f(hi) >= 0 returns hi
    assert _bisect(lambda d: 1.0 - d, 0.0, 1.0, 1e-10) == 1.0
    # an exact zero at a midpoint is returned at once
    assert _bisect(lambda d: 0.5 - d, 0.0, 1.0, 1e-10) == 0.5
    # delta_from_constraint's old loop bisected below such a zero instead
    mid = 0.5 * (1.0 - 1e-12)
    assert _bisect(lambda d: mid - d, 0.0, 1.0 - 1e-12, 1e-10) == mid
    assert old_constraint_loop(lambda e: mid, 1.0, 1.0) < mid
    # otherwise the midpoint of the first bracket narrower than tol
    root = _bisect(lambda d: 0.3 - d, 0.0, 1.0, 1e-10)
    assert abs(root - 0.3) <= 0.5e-10


# ----------------------------- empirical estimator -----------------------------

def test_empirical_eps2_antipodal():
    space = SpaceSpec(p=2, d=2)
    pt = empirical_delta(space, 2.0, budget=100, rng_seed=0)
    assert pt.delta == pytest.approx(1.0, abs=1e-9)
    x, y = pt.witness
    assert np.allclose(x, -y, atol=1e-9)


def test_empirical_matches_formula_p2():
    space = SpaceSpec(p=2, d=2)
    pt = empirical_delta(space, 1.0, budget=100_000, rng_seed=1)
    assert pt.delta == pytest.approx(CLARKSON_2_1, abs=1e-3)
    # optimal witness is the axis pair (sqrt(3)/2, +-1/2) up to symmetry
    x, y = pt.witness
    assert abs(norm(space, x - y) - 1.0) <= 1e-6


def test_empirical_matches_formula_p4():
    space = SpaceSpec(p=4, d=2)
    pt = empirical_delta(space, 1.0, budget=100_000, rng_seed=1)
    assert pt.delta == pytest.approx(CLARKSON_4_1, abs=1e-3)
    x, _ = pt.witness
    assert abs(abs(x[0]) - (15.0 / 16.0) ** 0.25) <= 1e-3


def test_empirical_one_sided_bound():
    for p, eps in ((1.5, 0.5), (3.0, 1.5)):
        space = SpaceSpec(p=p, d=2)
        pt = empirical_delta(space, eps, budget=20_000, rng_seed=3)
        assert pt.delta >= lp_delta(p, eps) - 1e-9


def test_empirical_determinism():
    space = SpaceSpec(p=3, d=2)
    a = empirical_delta(space, 1.0, budget=5_000, rng_seed=9)
    b = empirical_delta(space, 1.0, budget=5_000, rng_seed=9)
    assert a.delta == b.delta
    assert np.array_equal(a.witness[0], b.witness[0])
    assert np.array_equal(a.witness[1], b.witness[1])


def test_empirical_budget_validation():
    with pytest.raises(ValueError):
        empirical_delta(SpaceSpec(p=2, d=2), 1.0, budget=0, rng_seed=0)


def test_empirical_dimension_one_needs_eps_two():
    # every feasible pair in one dimension is antipodal: delta = 1 > eps/2
    space = SpaceSpec(p=2, d=1)
    with pytest.raises(PreconditionError, match="dimension 1"):
        empirical_delta(space, 1.0, budget=1000, rng_seed=0)
    with pytest.raises(PreconditionError):
        build_curve(1.5, [0.5, 2.0], "empirical", d=1, budget=100)
    pt = empirical_delta(space, 2.0, budget=1000, rng_seed=0)
    assert pt.delta == 1.0


def test_empirical_skips_a_start_whose_distance_rounds_below_eps(
        monkeypatch):
    # the Clarkson pair (a, eps/2, 0, ...), (a, -eps/2, 0, ...) is eps apart
    # exactly, but at p = 1.1 its computed distance rounds below eps = 0.01
    import uconvex.modulus as modulus_mod

    space, eps = SpaceSpec(p=1.1, d=16), 0.01
    a = (1.0 - (eps / 2.0) ** space.p) ** (1.0 / space.p)
    bx, by = np.zeros(16), np.zeros(16)
    bx[:2], by[:2] = (a, eps / 2.0), (a, -eps / 2.0)
    assert norm(space, bx - by) < eps
    measured, refined = [], []
    refine = modulus_mod.refine

    def recorded_norm(space_, v):
        measured.append(np.array(v, copy=True))
        return norm(space_, v)

    def recorded_refine(z0, *args, **kw):
        refined.append(z0)
        return refine(z0, *args, **kw)

    monkeypatch.setattr(modulus_mod, "norm", recorded_norm)
    monkeypatch.setattr(modulus_mod, "refine", recorded_refine)
    point = empirical_delta(space, eps, budget=2_000, rng_seed=0)
    # the Clarkson start was measured as a start and never refined
    assert any(np.array_equal(v, bx - by) for v in measured)
    assert refined
    assert not any(np.array_equal(z, np.concatenate([bx, by]))
                   for z in refined)
    validate_witness(space, point)


def test_witness_validation_catches_corruption():
    space = SpaceSpec(p=2, d=2)
    good = empirical_delta(space, 1.0, budget=1_000, rng_seed=0)
    bad = ModulusPoint(eps=1.0, delta=good.delta, method="empirical",
                       witness=(good.witness[0] * 2.0, good.witness[1]))
    with pytest.raises(CertificateError):
        validate_witness(space, bad)


def test_witness_validation_allows_rounding_only():
    # each corruption is 1e-10, far above the rounding the checks allow
    space = SpaceSpec(p=1.5, d=4)
    good = empirical_delta(space, 1.0, budget=2_000, rng_seed=0)
    x, y = good.witness
    sep = norm(space, x - y)
    cases = {
        "not unit": (1.0, good.delta, (x * (1.0 + 1e-10), y)),
        "separation": (sep + 1e-10, good.delta, (x, y)),
        "achieves": (1.0, good.delta + 1e-10, (x, y)),
    }
    for match, (eps, delta, witness) in cases.items():
        with pytest.raises(CertificateError, match=match):
            validate_witness(space, ModulusPoint(eps, delta, "empirical",
                                                 witness=witness))
    validate_witness(space, ModulusPoint(sep, good.delta, "empirical",
                                         witness=(x, y)))


def test_witness_validation_rejects_nan_coordinate():
    space = SpaceSpec(p=1.5, d=2)
    good = empirical_delta(space, 0.5, budget=1_000, rng_seed=0)
    x = good.witness[0].copy()
    x[0] = math.nan
    bad = ModulusPoint(eps=0.5, delta=good.delta, method="empirical",
                       witness=(x, good.witness[1]))
    with pytest.raises(PreconditionError, match="non-finite"):
        validate_witness(space, bad)


# ----------------------------- points and curves -----------------------------

def test_modulus_point_validation():
    with pytest.raises(ValueError):
        ModulusPoint(eps=0.0, delta=0.0, method="clarkson")
    with pytest.raises(ValueError):
        ModulusPoint(eps=1.0, delta=1.5, method="clarkson")
    with pytest.raises(ValueError):
        ModulusPoint(eps=1.0, delta=0.1, method="magic")
    with pytest.raises(ValueError):
        ModulusPoint(eps=1.0, delta=0.1, method="clarkson",
                     witness=(np.ones(2), np.ones(2)))


def test_curve_requires_increasing_eps():
    pts = (ModulusPoint(1.0, 0.1, "clarkson"),
           ModulusPoint(0.5, 0.05, "clarkson"))
    with pytest.raises(ValueError):
        ModulusCurve(space="l^2", points=pts)


def test_build_curve_methods():
    c = build_curve(2.0, np.linspace(0.1, 2.0, 20), "clarkson")
    assert len(c.points) == 20
    h = build_curve(1.5, [0.5, 1.0], "hanner")
    assert h.points[1].delta == pytest.approx(HANNER_15_1, abs=1e-10)
    e = build_curve(2.0, [0.5, 1.0], "empirical", d=2, budget=2000, rng_seed=0)
    assert all(pt.witness is not None for pt in e.points)
    with pytest.raises(ValueError):
        build_curve(2.0, [0.5], "empirical")  # missing d
    with pytest.raises(ValueError):
        build_curve(2.0, [0.5], "nope")


def test_curve_csv_roundtrip(tmp_path):
    curve = build_curve(2.0, [0.5, 1.0, 1.5], "empirical", d=2,
                        budget=2000, rng_seed=5)
    path = tmp_path / "curve.csv"
    path.write_text(curve.csv_text())
    back = ModulusCurve.from_csv(path)
    for a, b in zip(curve.points, back.points):
        assert a.eps == b.eps
        assert a.delta == b.delta
        assert a.method == b.method
        assert np.array_equal(a.witness[0], b.witness[0])
        assert np.array_equal(a.witness[1], b.witness[1])


def test_curve_json_roundtrip(tmp_path):
    curve = build_curve(3.0, [0.5, 1.0], "clarkson")
    path = tmp_path / "curve.json"
    path.write_text(_json_text(curve.to_json_dict()))
    back = ModulusCurve.from_json(path)
    assert back.space == curve.space
    assert [p.delta for p in back.points] == [p.delta for p in curve.points]


def test_curve_files_name_a_missing_field(tmp_path):
    csv_path = tmp_path / "ab.csv"
    csv_path.write_text("a,b\n1,2\n")
    with pytest.raises(PreconditionError, match="'eps'"):
        ModulusCurve.from_csv(csv_path)
    # a witness that is not a string is a malformed field
    json_path = tmp_path / "w.json"
    json_path.write_text('{"space": "s", "points": [{"eps": 1, "delta": 0.1,'
                         ' "method": "empirical", "witness_x": [1],'
                         ' "witness_y": [1]}]}')
    with pytest.raises(PreconditionError, match="'witness_x'"):
        ModulusCurve.from_json(json_path)
    # a non-numeric coordinate, halves of unequal length and a lone half
    for wx, wy, field in (("a;b", "1;2", "'witness_x'"),
                          ("1;0", "a", "'witness_y'"),
                          ("1;0", "0", "'witness_x' and 'witness_y'"),
                          ("1;0", "", "'witness_x' and 'witness_y'"),
                          ("", "0;1", "'witness_x' and 'witness_y'")):
        csv_path.write_text(f"eps,delta,method,witness_x,witness_y\n"
                            f"1.0,0.1,empirical,{wx},{wy}\n")
        with pytest.raises(PreconditionError, match=field):
            ModulusCurve.from_csv(csv_path)
    for text, field in (('{"x": 1}', "'points'"), ("[1, 2]", "'points'"),
                        ('{"points": 5}', "'points'"),
                        ('{"points": []}', "'space'"),
                        ('{"points": [{"eps": null}]}', "'eps'"),
                        ('{"space": "s", "points": [[1]]}', "'eps'")):
        json_path = tmp_path / "c.json"
        json_path.write_text(text)
        with pytest.raises(PreconditionError, match=field):
            ModulusCurve.from_json(json_path)


def test_build_curve_rejects_an_empty_eps_grid():
    for method in ("clarkson", "hanner", "empirical"):
        with pytest.raises(ValueError, match="empty eps grid"):
            build_curve(2.0, [], method, d=2)
