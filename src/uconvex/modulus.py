"""Modulus of convexity engines for l^p spaces.

Three routes to ``delta(eps) = inf { 1 - ||x+y||/2 : x, y unit, ||x-y|| >= eps }``:

* ``clarkson_delta`` -- the explicit formula, valid for p >= 2;
* ``hanner_delta``   -- the implicit equation for 1 < p <= 2, solved by bisection;
* ``empirical_delta`` -- randomized adversarial minimization in a concrete
  finite-dimensional space, returning a witness pair.

Plus the delta-from-constraint solver used by the verification module.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CertificateError, PreconditionError
from .search import EvalBudget, refine, sample_feasible_pairs
from .spaces import (SpaceSpec, _row_norms, batch_norm, norm, norm_error,
                     row_blocks, unit_batch, unit_error)

METHODS = ("clarkson", "hanner", "empirical")

# Bisection target: absolute tolerance on the implicit equation's delta.
HANNER_TOL = 1e-13

# Allowed non-monotonicity between adjacent curve points when either point
# came from the empirical estimator.
EMPIRICAL_MONOTONE_SLACK = 2e-3


@dataclass(frozen=True, eq=False)
class ModulusPoint:
    """One (eps, delta) sample with the engine that produced it.

    ``witness`` is a feasible unit pair achieving ``delta`` and is only
    present for empirical points.
    """

    eps: float
    delta: float
    method: str
    witness: tuple[np.ndarray, np.ndarray] | None = None

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
    ``verify.check_modulus_properties``.  Curves produced by
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
        """The curve as CSV text with a header row, as :meth:`from_csv` reads."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["eps", "delta", "method", "witness_x", "witness_y"])
        for pt in self.points:
            wx, wy = map(_vec_str, pt.witness) if pt.witness else ("", "")
            writer.writerow([f"{pt.eps:.17g}", f"{pt.delta:.17g}",
                             pt.method, wx, wy])
        return buf.getvalue()

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


def empirical_delta(space: SpaceSpec, eps: float, budget: int,
                    rng_seed) -> ModulusPoint:
    """Adversarial upper estimate of the space's modulus at ``eps``.

    Minimizes ``1 - ||x+y||/2`` over feasible unit pairs: explicit
    candidates (the antipodal pair and the axis-aligned pair that attains
    the Clarkson value), random feasible pairs drawn by rejection with a
    boundary-interpolation fallback, and pattern refinement of the best
    starts by :func:`search.refine` with the batched evaluator
    :class:`_PairMoves`, which reproduces the scalar search bit for bit, so
    the witness does not depend on the batching.  The result can only
    overestimate the true infimum, and never exceeds eps/2: the Clarkson
    candidate scores ``1 - a <= eps/2``.  Deterministic given the seed.

    In dimension 1 every feasible pair is antipodal, so the modulus is 1
    for every eps; that breaks the ``delta <= eps/2`` bound for eps < 2,
    and such calls raise ``PreconditionError``.
    """
    _check_eps(eps)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    rng = np.random.default_rng(rng_seed)
    d = space.d
    if d == 1 and eps < 2.0:
        raise PreconditionError(
            f"in dimension 1 every feasible pair is antipodal, so delta = 1 "
            f"> eps/2 at eps={eps:.17g}; the estimator needs d >= 2 or "
            f"eps = 2")

    if eps == 2.0:
        # strictly convex space: the feasible set is exactly the antipodal
        # pairs, where the objective is identically 1; searching would only
        # add float noise from pairs whose distance rounds up to 2
        x0 = unit_batch(space, rng, 1)[0]
        point = ModulusPoint(eps=eps, delta=1.0, method="empirical",
                             witness=(x0, -x0))
        validate_witness(space, point)
        return point

    def pair_value(x, y):
        return 1.0 - 0.5 * norm(space, x + y)

    candidates: list[tuple[float, np.ndarray, np.ndarray]] = []

    x0 = unit_batch(space, rng, 1)[0]
    candidates.append((pair_value(x0, -x0), x0, -x0.copy()))
    a = max(0.0, 1.0 - (eps / 2.0) ** space.p) ** (1.0 / space.p)
    bx = np.zeros(d)
    bx[:2] = a, eps / 2.0
    by = bx.copy()
    by[1] = -eps / 2.0
    candidates.append((pair_value(bx, by), bx, by))

    sample_budget = max(0, int(0.7 * budget) - len(candidates))
    if sample_budget > 0:
        X, Y = sample_feasible_pairs(space, eps, rng, sample_budget)
        vals = np.empty(len(X))
        for blk in row_blocks(len(X), d):
            vals[blk] = batch_norm(space, X[blk] + Y[blk])
        vals = 1.0 - 0.5 * vals
        top = np.argsort(vals, kind="stable")[:8]
        for i in top:
            candidates.append((float(vals[i]), X[i], Y[i]))

    candidates.sort(key=lambda t: t[0])
    best_val, best_x, best_y = candidates[0]

    refine_total = max(0, budget - sample_budget - len(candidates))
    starts = [c for c in candidates if c[0] < 1.0][:6] or candidates[:1]
    if refine_total > 0:
        share = max(1, refine_total // len(starts))
        for val, x, y in starts:
            if norm(space, x - y) < eps:
                continue
            z, v = _pair_search(space, eps, np.concatenate([x, y]),
                                EvalBudget(share))
            if v < best_val:
                best_val, best_x, best_y = v, z[:d].copy(), z[d:].copy()

    point = ModulusPoint(eps=eps, delta=max(best_val, 0.0),
                         method="empirical", witness=(best_x, best_y))
    validate_witness(space, point)
    return point


class _PairMoves:
    """Batched move evaluator of :func:`search.refine` over unit pairs.

    A point is ``z = (x, y)``; move ``k`` changes coordinate ``k // 2`` of
    ``z``, so it moves one half.  Each call builds the moved halves of its
    slice of moves as rows, ``z[i] + sign*step`` as the scalar loop does,
    and normalizes them (never zero: ``step <= search.INIT_STEP < 1``);
    the other half is ``normalize`` of the current half.  Feasibility and
    value of all rows come from :func:`spaces._row_norms`, equal to
    :func:`spaces.norm` bit for bit, so the first feasible row below the
    current best is the move the scalar loop would accept.
    """

    def __init__(self, space: SpaceSpec, eps: float):
        self.space = space
        self.eps = eps
        self.point = None
        self.point_units = None

    def units(self, z: np.ndarray) -> np.ndarray:
        """Both halves of ``z`` normalized, as the rows of a (2, d) array."""
        halves = z.reshape(2, self.space.d)
        return halves / _row_norms(self.space, halves)[:, None]

    def project(self, z: np.ndarray) -> np.ndarray:
        return self.units(z).reshape(-1)

    def objective(self, z: np.ndarray) -> float:
        x, y = z.reshape(2, self.space.d)
        return float(1.0 - 0.5 * _row_norms(self.space, (x + y)[None])[0])

    def __call__(self, z, best, step, start, count):
        space, d = self.space, self.space.d
        if z is not self.point:
            self.point, self.point_units = z, self.units(z)
        k = np.arange(start, start + count)
        half = k // 2 // d
        rows = z.reshape(2, d)[half]
        rows[np.arange(count), k // 2 % d] += np.where(k % 2, -1.0, 1.0) * step
        moved = rows / _row_norms(space, rows)[:, None]
        other = self.point_units[1 - half]
        first = (half == 0)[:, None]
        x = np.where(first, moved, other)
        y = np.where(first, other, moved)
        vals = 1.0 - 0.5 * _row_norms(space, x + y)
        hits = np.flatnonzero((_row_norms(space, x - y) >= self.eps)
                              & (vals < best))
        if hits.size:
            i = int(hits[0])
            return i + 1, np.concatenate([x[i], y[i]]), float(vals[i])
        return count, None, best


def _pair_search(space: SpaceSpec, eps: float, z0: np.ndarray,
                 budget: EvalBudget) -> tuple[np.ndarray, float]:
    """Refine the pair ``z0 = (x, y)`` toward a lower ``1 - ||x+y||/2``.

    :func:`search.refine` with the batched :class:`_PairMoves`; the
    result and the budget used equal those of the move-by-move loop with
    the scalar callbacks ``normalize`` (per half), ``||x-y|| >= eps`` and
    ``1 - ||x+y||/2``.
    """
    moves = _PairMoves(space, eps)
    return refine(z0, moves.objective, moves.project, None, budget,
                  evaluate=moves)


def validate_witness(space: SpaceSpec, point: ModulusPoint) -> None:
    """Check a witness pair is feasible and achieves the stored delta.

    Each comparison allows :func:`spaces.norm_error`.  The halves come
    from ``normalize`` (the Clarkson pair is as close to unit); the
    estimator kept them on its own computed ``||x-y|| >= eps``, maybe
    before :func:`search.refine`'s start projection moved each by its
    distance from unit and a rounding, and computed ``delta`` from them.
    """
    if point.witness is None:
        return
    (x, y), d = point.witness, space.d
    for v in (x, y):
        n = norm(space, v)
        if abs(n - 1.0) > unit_error(d, n):
            raise CertificateError(f"witness vector is not unit: {v!r}")
    sep = norm(space, x - y)
    moved = 2.0 * unit_error(d, 1.0) + norm_error(d, 0.0, 2.0)
    if sep < point.eps - (norm_error(d, point.eps, point.eps)
                          + norm_error(d, sep, sep) + moved):
        raise CertificateError("witness pair violates the separation constraint")
    total = norm(space, x + y)
    achieved = 1.0 - 0.5 * total
    if abs(achieved - point.delta) > norm_error(d, total, total + 2.0):
        raise CertificateError(
            f"witness achieves {achieved:.17g}, point records {point.delta:.17g}")


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


def _check_eps(eps: float) -> None:
    if not 0.0 < eps <= 2.0:
        raise ValueError(f"eps must lie in (0, 2], got {eps!r}")


def _vec_str(v: np.ndarray) -> str:
    return ";".join(f"{c:.17g}" for c in np.asarray(v, dtype=float))


def _vec_from_str(s: str) -> np.ndarray:
    return np.array([float(tok) for tok in str(s).split(";")], dtype=float)


def _field(record, name: str, kind):
    """``kind(record[name])`` of a curve file record.

    A missing or malformed field raises ``PreconditionError`` naming it.
    """
    try:
        return kind(record[name])
    except (KeyError, TypeError, ValueError):
        raise PreconditionError(
            f"curve file has no valid {name!r} field") from None


def _point_from_fields(row) -> ModulusPoint:
    eps, delta = _field(row, "eps", float), _field(row, "delta", float)
    method = _field(row, "method", str)
    wx, wy = row.get("witness_x"), row.get("witness_y")
    witness = (_vec_from_str(wx), _vec_from_str(wy)) if wx and wy else None
    return ModulusPoint(eps=eps, delta=delta, method=method, witness=witness)
