"""Everything of the modulus of convexity that needs no numpy.

The delta of l^p in closed form (``clarkson_delta`` for p >= 2, the
implicit ``hanner_delta`` for 1 < p <= 2, ``lp_delta`` choosing) and
thm2_condition3's ``delta_from_constraint``; modulus curves with their CSV
and JSON text and their invariants; the report of a verified statement.
Only the standard library is imported, so the CLI's closed-form commands
load no numpy; :func:`build_curve` loads it for the empirical engine alone.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from .errors import CertificateError, PreconditionError
from .rounding import norm_error

METHODS = ("clarkson", "hanner", "empirical")

# The sampler statements of :mod:`uconvex.verify`, in the order it runs them.
STATEMENTS = ("lemma23", "thm2_condition3", "remark45")

# Bisection target: absolute tolerance on the implicit equation's delta.
HANNER_TOL = 1e-13

# Allowed non-monotonicity between adjacent curve points when either point
# came from the empirical estimator.
EMPIRICAL_MONOTONE_SLACK = 2e-3


@dataclass(frozen=True, eq=False)
class ModulusPoint:
    """One (eps, delta) sample with the engine that produced it.

    ``witness`` is a feasible unit pair achieving ``delta`` and is only
    present for empirical points: two arrays from the engine, two tuples
    of floats when read from a curve file.
    """

    eps: float
    delta: float
    method: str
    witness: tuple | None = None

    def __post_init__(self):
        _check_eps(self.eps)
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.witness is not None and self.method != "empirical":
            raise ValueError("witness pairs belong to empirical points only")


@dataclass(frozen=True, eq=False)
class ModulusCurve:
    """Ordered (eps, delta) samples for one space, eps strictly increasing.

    A curve has at least one point, so a curve file never passes vacuously.
    Monotonicity of delta is an invariant of the engines, not of the
    container: curves read back from disk may violate it and are checked by
    :func:`check_modulus_properties`.  Curves produced by
    :func:`build_curve` are asserted monotone at production time.
    """

    space: str
    points: tuple[ModulusPoint, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("curve has no points")
        eps = [pt.eps for pt in self.points]
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("curve eps values must be strictly increasing")

    def csv_text(self) -> str:
        """The curve as CSV text with a header row, as :meth:`from_csv` reads;
        no field holds a comma, quote or line break, so none is quoted."""
        lines = ["eps,delta,method,witness_x,witness_y"]
        for pt in self.points:
            wx, wy = map(_vec_str, pt.witness) if pt.witness else ("", "")
            lines.append(f"{pt.eps:.17g},{pt.delta:.17g},{pt.method},"
                         f"{wx},{wy}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        rows = [{"eps": pt.eps, "delta": pt.delta, "method": pt.method,
                 "witness_x": _vec_str(pt.witness[0]) if pt.witness else None,
                 "witness_y": _vec_str(pt.witness[1]) if pt.witness else None}
                for pt in self.points]
        return {"space": self.space, "points": rows}

    @classmethod
    def from_csv(cls, path) -> "ModulusCurve":
        with open(path, newline="") as fh:
            points = tuple(map(_point_from_fields, csv.DictReader(fh)))
        return cls(space=str(Path(path).stem), points=points)

    @classmethod
    def from_json(cls, path) -> "ModulusCurve":
        data = json.loads(Path(path).read_text())
        points = tuple(_point_from_fields(row)
                       for row in _field(data, "points", tuple))
        return cls(space=_field(data, "space", str), points=points)


def clarkson_delta(p: float, eps: float) -> float:
    """Closed-form modulus for p >= 2: ``1 - (1 - (eps/2)^p)^(1/p)``."""
    if p < 2.0 or not math.isfinite(p):
        raise ValueError(f"clarkson_delta needs p >= 2 (finite), got {p!r};"
                         " use hanner_delta for 1 < p <= 2")
    _check_eps(eps)
    return 1.0 - (1.0 - (eps / 2.0) ** p) ** (1.0 / p)


def hanner_delta(p: float, eps: float) -> float:
    """Implicit modulus for 1 < p <= 2.

    Solves ``|1 - d + eps/2|^p + |1 - d - eps/2|^p = 2`` for d in [0, 1]
    by bisection.  The left side decreases strictly in d on [0, 1), from
    >= 2 (convexity) to ``2(eps/2)^p <= 2``, so [0, 1] always brackets the
    root; it is located to an absolute tolerance of 1e-13.  The residual
    is then bounded by construction: the left side's slope is at most
    ``2p 2^(p-1) <= 8`` on [0, 1], so it stays below about 1e-12.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"hanner_delta needs 1 < p <= 2, got {p!r};"
                         " use clarkson_delta for p >= 2")
    _check_eps(eps)

    def residual(d: float) -> float:
        return (abs(1.0 - d + eps / 2.0) ** p
                + abs(1.0 - d - eps / 2.0) ** p - 2.0)

    # exact endpoint roots: f(0) rounds to 0 when the quadratic term
    # underflows for eps near 0, and f(1) = 0 at eps = 2
    if residual(0.0) <= 0.0:
        return 0.0
    return _bisect(residual, 0.0, 1.0, HANNER_TOL)


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """Root of a decreasing ``f`` with ``f(lo) > 0``, bisected in [lo, hi].

    Returns ``hi`` when ``f(hi) >= 0``, a midpoint where ``f`` is exactly 0,
    and otherwise the midpoint of the first bracket narrower than ``tol``.
    """
    if f(hi) >= 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lp_delta(p: float, eps: float) -> float:
    """Modulus of convexity of l^p, dispatching on the exponent.

    p >= 2 goes to the closed form, 1 < p < 2 to the implicit equation.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"lp_delta needs 1 < p < inf, got {p!r}")
    if p >= 2.0:
        return clarkson_delta(p, eps)
    return hanner_delta(p, eps)


def delta_from_constraint(p: float, eps: float) -> float:
    """Largest d in (0, eps) with ``d <= delta(eps - d) / 2`` in l^p.

    ``g(d) = lp_delta(p, eps - d) / 2 - d`` is strictly decreasing (a
    nonincreasing term minus an increasing one), so the crossing is unique;
    bisection locates it to 1e-10.
    """
    _check_eps(eps)

    def g(d: float) -> float:
        return 0.5 * lp_delta(p, eps - d) - d

    if g(0.0) <= 0.0:
        raise PreconditionError("curve vanishes at eps; no positive delta exists")
    return _bisect(g, 0.0, eps * (1.0 - 1e-12), 1e-10)


def build_curve(p: float, eps_values, method: str, *, d: int | None = None,
                budget: int = 10000, rng_seed=0) -> ModulusCurve:
    """Evaluate one engine on an eps grid and assert curve invariants.

    For the closed-form engines the curve is exactly monotone with
    ``delta <= eps/2`` at every point; the empirical engine is allowed the
    rounding and estimator slacks of :func:`curve_violations`.  Any
    violation raises ``CertificateError`` since a fresh engine output must
    satisfy its own invariants.  Every eps is checked before the first
    point is computed.
    """
    if method == "empirical" and d is None:
        raise ValueError("empirical curves need the dimension d (--d)")
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("empty eps grid")
    for e in eps_values:
        _check_eps(e)
    if method in ("clarkson", "hanner"):
        delta = clarkson_delta if method == "clarkson" else hanner_delta
        points = [ModulusPoint(e, delta(p, e), method) for e in eps_values]
        space = f"l^{p:g}"
    elif method == "empirical":
        import numpy as np  # the one engine that needs numpy
        from .modulus import empirical_delta
        from .spaces import SpaceSpec
        spec = SpaceSpec(p=p, d=d)
        seeds = np.random.SeedSequence(rng_seed).spawn(len(eps_values))
        points = [empirical_delta(spec, e, budget, s)
                  for e, s in zip(eps_values, seeds)]
        space = str(spec)
    else:
        raise ValueError(f"unknown method {method!r}")

    curve = ModulusCurve(space=space, points=tuple(points))
    bad = curve_violations(curve.points)
    if bad:
        rec = bad[0]
        raise CertificateError(
            f"engine produced a curve breaking {rec['kind']} at "
            f"eps={rec['eps']:.17g}, delta={rec['delta']:.17g}")
    return curve


def curve_violations(points) -> list[dict]:
    """Records of the curve invariants that a point sequence breaks.

    Each point is checked against ``delta <= eps/2`` (a ``bound`` record)
    and each adjacent pair against monotonicity (a ``monotonicity``
    record); bound records come first.  Closed-form points are held to
    exact comparisons.  Empirical ones get :data:`EMPIRICAL_MONOTONE_SLACK`
    on monotonicity and, on the bound, the rounding of the Clarkson
    candidate's computed ``1 - ||(2a, 0, ...)||/2 >= delta``: half a
    one-entry norm of size at most 2 and one subtraction (``1 - a <= eps/2``
    with room for ``a``'s own rounding).  A record keeps
    the values and the slack it was judged with, so :func:`curve_violated`
    re-judges it from the record alone.
    """
    records = [{"kind": "bound", "eps": pt.eps, "delta": pt.delta,
                "method": pt.method,
                "slack": (norm_error(1, 2.0, 2.0) / 2.0
                          if pt.method == "empirical" else 0.0)}
               for pt in points]
    records += [{"kind": "monotonicity", "eps": b.eps, "delta": b.delta,
                 "method": b.method, "prev_eps": a.eps,
                 "prev_delta": a.delta, "prev_method": a.method,
                 "slack": (EMPIRICAL_MONOTONE_SLACK
                           if "empirical" in (a.method, b.method) else 0.0)}
                for a, b in zip(points, points[1:])]
    return [rec for rec in records if curve_violated(rec)]


def curve_violated(rec: dict) -> bool:
    """True when a :func:`curve_violations` record breaks its invariant."""
    if rec["kind"] == "bound":
        return rec["delta"] > rec["eps"] / 2.0 + rec["slack"]
    return rec["delta"] < rec["prev_delta"] - rec["slack"]


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one statement on one (space, eps) cell.

    ``trials`` counts attempts, ``kept`` the trials whose hypotheses held.
    Violation records carry every vector and computed quantity needed to
    re-check them, see :func:`verify.reverify_violation`.  A curve report
    has no cell: its ``p``, ``eps`` and ``delta_used`` are None and ``d``
    is 0.
    """

    statement: str
    p: float | None
    d: int
    eps: float | None
    delta_used: float | None
    trials: int
    kept: int
    violations: tuple[dict, ...]
    rng_seed: int | None

    @property
    def space(self) -> str:
        if self.d:
            return f"l^{self.p:g}_{self.d}"
        return "curve"

    def to_json_dict(self) -> dict:
        return {**vars(self), "space": self.space}


def summary_line(report: VerificationReport) -> str:
    """`statement,p,d,eps,delta,trials,kept,violations` for stdout."""
    p = "" if report.p is None else f"{report.p:g}"
    eps = "" if report.eps is None else f"{report.eps:g}"
    delta = "" if report.delta_used is None else f"{report.delta_used:.17g}"
    return (f"{report.statement},{p},{report.d or ''},{eps},{delta},"
            f"{report.trials},{report.kept},{len(report.violations)}")


def check_modulus_properties(curve: ModulusCurve) -> VerificationReport:
    """Check delta <= eps/2 and monotonicity on a curve, reporting failures.

    The checks are :func:`curve_violations`, the ones :func:`build_curve`
    asserts.  Unlike the engines, this checker never raises on bad data --
    corrupted curves come back as violations.
    """
    checks = max(0, 2 * len(curve.points) - 1)
    return VerificationReport(
        statement="modulus_properties", p=None, d=0, eps=None,
        delta_used=None, trials=checks, kept=checks,
        violations=tuple(curve_violations(curve.points)), rng_seed=None)


def _check_eps(eps: float) -> None:
    if not (isinstance(eps, numbers.Real) and 0.0 < eps <= 2.0):
        raise PreconditionError(f"eps must lie in (0, 2], got {eps!r}")


def _vec_str(v) -> str:
    return ";".join(f"{c:.17g}" for c in map(float, v))


def _field(record, name: str, kind):
    """``kind(record[name])`` of a curve file or violation record.

    A missing or malformed field raises ``PreconditionError`` naming it.
    """
    try:
        return kind(record[name])
    except (KeyError, TypeError, ValueError):
        raise PreconditionError(
            f"record has no valid {name!r} field") from None


def _point_from_fields(row) -> ModulusPoint:
    eps, delta = _field(row, "eps", float), _field(row, "delta", float)
    method = _field(row, "method", str)
    wx, wy = (_field(row, k, lambda w: tuple(map(float, str.split(w, ";"))))
              if row.get(k) not in (None, "") else None
              for k in ("witness_x", "witness_y"))
    if len(wx or ()) != len(wy or ()):  # a lone half or unequal halves
        raise PreconditionError("'witness_x' and 'witness_y' differ in length")
    return ModulusPoint(eps=eps, delta=delta, method=method,
                        witness=(wx, wy) if wx else None)
