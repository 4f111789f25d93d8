"""Modulus of convexity engines for l^p spaces.

Three routes to ``delta(eps) = inf { 1 - ||x+y||/2 : x, y unit, ||x-y|| >= eps }``:

* ``clarkson_delta`` -- the explicit formula, valid for p >= 2;
* ``hanner_delta``   -- the implicit equation for 1 < p <= 2, solved by bisection;
* ``empirical_delta`` -- randomized adversarial minimization in a concrete
  finite-dimensional space, returning a witness pair.

Plus the delta-from-constraint solver used by the verification module and
the headline separation bounds.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (BisectionError, CertificateError, PreconditionError,
                     ZeroVectorError)
from .search import EvalBudget, refine, sample_feasible_pairs
from .spaces import (SpaceSpec, _row_norms, batch_norm, norm, row_blocks,
                     unit_batch)

METHODS = ("clarkson", "hanner", "empirical")

# Bisection targets: absolute tolerance on delta, residual bound on the
# implicit equation at the returned root.
HANNER_TOL = 1e-13
HANNER_RESIDUAL = 1e-10

# Feasibility slack for empirical witnesses.
WITNESS_TOL = 1e-9

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
        if not 0.0 < self.eps <= 2.0:
            raise ValueError(f"eps must lie in (0, 2], got {self.eps!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.witness is not None and self.method != "empirical":
            raise ValueError("witness pairs belong to empirical points only")


@dataclass(frozen=True, eq=False)
class ModulusCurve:
    """Ordered (eps, delta) samples for one space, eps strictly increasing.

    Monotonicity of delta is an invariant of the engines, not of the
    container: curves read back from disk may violate it and are checked by
    ``verify.check_modulus_properties``.  Curves produced by
    :func:`build_curve` are asserted monotone at production time.
    """

    space: str
    points: tuple[ModulusPoint, ...]

    def __post_init__(self):
        eps = [pt.eps for pt in self.points]
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("curve eps values must be strictly increasing")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["eps", "delta", "method", "witness_x", "witness_y"])
            for pt in self.points:
                wx = wy = ""
                if pt.witness is not None:
                    wx = _vec_str(pt.witness[0])
                    wy = _vec_str(pt.witness[1])
                writer.writerow([f"{pt.eps:.17g}", f"{pt.delta:.17g}",
                                 pt.method, wx, wy])

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2,
                                         sort_keys=True) + "\n")

    def to_json_dict(self) -> dict:
        rows = []
        for pt in self.points:
            rows.append({
                "eps": pt.eps,
                "delta": pt.delta,
                "method": pt.method,
                "witness_x": _vec_str(pt.witness[0]) if pt.witness else None,
                "witness_y": _vec_str(pt.witness[1]) if pt.witness else None,
            })
        return {"space": self.space, "points": rows}

    @classmethod
    def from_csv(cls, path) -> "ModulusCurve":
        points = []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                points.append(_point_from_fields(row))
        return cls(space=str(Path(path).stem), points=tuple(points))

    @classmethod
    def from_json(cls, path) -> "ModulusCurve":
        data = json.loads(Path(path).read_text())
        points = tuple(_point_from_fields(row) for row in data["points"])
        return cls(space=data["space"], points=points)


@dataclass(frozen=True)
class TheoremBounds:
    """Separation bounds implied by a space's modulus at a given eps."""

    thm1_bound: float         # 1 + delta(2/3 * eps)
    elton_odell_bound: float  # 1 + delta(2/3) / 2
    remark45_delta: float     # delta(4/5 * eps) / 2


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
    by bisection.  The left side is strictly decreasing in d on [0, 1), so
    the bracket [0, 1] is always valid; the returned root is located to an
    absolute tolerance of 1e-13 and its residual is verified <= 1e-10.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"hanner_delta needs 1 < p <= 2, got {p!r};"
                         " use clarkson_delta for p >= 2")
    _check_eps(eps)

    def residual(d: float) -> float:
        return (abs(1.0 - d + eps / 2.0) ** p
                + abs(1.0 - d - eps / 2.0) ** p - 2.0)

    lo, hi = 0.0, 1.0
    f_lo, f_hi = residual(lo), residual(hi)
    # mathematically f(0) >= 0 >= f(1); tolerate rounding noise at the
    # endpoints (the quadratic term underflows for eps near 0)
    if f_lo < -1e-12 or f_hi > 1e-12:
        raise BisectionError(
            "implicit equation not bracketed on [0, 1]",
            p=p, eps=eps, f_lo=f_lo, f_hi=f_hi)
    if f_hi >= 0.0:
        return hi
    if f_lo <= 0.0:
        return lo
    while hi - lo > HANNER_TOL:
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
    res = residual(root)
    if abs(res) > HANNER_RESIDUAL:
        raise BisectionError(
            "residual at returned root exceeds tolerance",
            p=p, eps=eps, root=root, residual=res)
    return root


def lp_delta(p: float, eps: float) -> float:
    """Modulus of convexity of l^p, dispatching on the exponent.

    p >= 2 goes to the closed form, 1 < p < 2 to the implicit equation; at
    p = 2 exactly, both engines are evaluated and must agree within 1e-10.
    """
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"lp_delta needs 1 < p < inf, got {p!r}")
    if p == 2.0:
        closed = clarkson_delta(p, eps)
        implicit = hanner_delta(p, eps)
        if abs(closed - implicit) > 1e-10:
            raise CertificateError(
                f"clarkson/hanner disagree at p=2, eps={eps}: "
                f"{closed:.17g} vs {implicit:.17g}")
        return closed
    if p > 2.0:
        return clarkson_delta(p, eps)
    return hanner_delta(p, eps)


def empirical_delta(space: SpaceSpec, eps: float, budget: int,
                    rng_seed) -> ModulusPoint:
    """Adversarial upper estimate of the space's modulus at ``eps``.

    Minimizes ``1 - ||x+y||/2`` over feasible unit pairs: explicit
    candidates (the antipodal pair and the axis-aligned pair that attains
    the Clarkson value), random feasible pairs drawn by rejection with a
    boundary-interpolation fallback, and pattern refinement of the best
    starts.  The refinement is the first-improvement pattern search of
    :func:`search.refine`, but each call of its evaluator scores a whole
    slice of the sweep's moves as array rows (see :class:`_PairMoves`).
    Every row norm takes its root through the scalar libm ``pow``, as
    :func:`spaces.norm` does, so the rows reproduce the scalar search's
    values bit for bit and the witness does not depend on the batching.
    The result can only overestimate the true infimum.  Deterministic
    given the seed.

    In dimension 1 every feasible pair is antipodal, so the modulus is 1
    for every eps; that breaks the ``delta <= eps/2`` check for eps < 2,
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
    by = np.zeros(d)
    bx[0] = a
    bx[1] = eps / 2.0
    by[0] = a
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
    if point.delta > eps / 2.0 + WITNESS_TOL:
        raise CertificateError(
            f"empirical estimate {point.delta:.17g} exceeds the eps/2 bound "
            f"at eps={eps:.17g}")
    return point


class _PairMoves:
    """Batched move evaluator of :func:`search.refine` over unit pairs.

    A point is ``z = (x, y)``; move ``k`` changes coordinate ``k // 2`` of
    ``z``, so it moves one half.  Each call builds the moved halves of its
    slice of moves as rows, ``z[i] + sign*step`` exactly as the scalar
    loop does, and normalizes them.  The other half is ``normalize`` of the
    current half, computed once per accepted point.  Feasibility
    ``||x-y|| >= eps`` and value ``1 - ||x+y||/2`` are computed for all rows
    at once with :func:`spaces._row_norms`, which equals the scalar
    :func:`spaces.norm` bit for bit.  The first feasible row below the
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
        norms = _row_norms(self.space, halves)
        if not norms.all():
            raise ZeroVectorError("cannot normalize the zero vector")
        return halves / norms[:, None]

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
        norms = _row_norms(space, rows)
        zero = np.flatnonzero(norms == 0.0)
        n = int(zero[0]) if zero.size else count
        moved = rows[:n] / norms[:n, None]
        other = self.point_units[1 - half[:n]]
        first = (half[:n] == 0)[:, None]
        x = np.where(first, moved, other)
        y = np.where(first, other, moved)
        vals = 1.0 - 0.5 * _row_norms(space, x + y)
        hits = np.flatnonzero((_row_norms(space, x - y) >= self.eps)
                              & (vals < best))
        if hits.size:
            i = int(hits[0])
            return i + 1, np.concatenate([x[i], y[i]]), float(vals[i])
        if n < count:
            # the scalar loop reaches the zero row and fails to normalize it
            raise ZeroVectorError("cannot normalize the zero vector")
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
    """Check a witness pair is feasible and achieves the stored delta."""
    if point.witness is None:
        return
    x, y = point.witness
    for v in (x, y):
        if abs(norm(space, v) - 1.0) > WITNESS_TOL:
            raise CertificateError(f"witness vector is not unit: {v!r}")
    if norm(space, x - y) < point.eps - WITNESS_TOL:
        raise CertificateError("witness pair violates the separation constraint")
    achieved = 1.0 - 0.5 * norm(space, x + y)
    if abs(achieved - point.delta) > WITNESS_TOL:
        raise CertificateError(
            f"witness achieves {achieved:.17g}, point records {point.delta:.17g}")


def delta_from_constraint(curve_eval, eps: float, factor: float) -> float:
    """Largest d in (0, eps) with ``d <= factor * delta(eps - d)``.

    ``g(d) = factor * delta(eps - d) - d`` is strictly decreasing (a
    nonincreasing term minus an increasing one), so the crossing is unique;
    bisection locates it to 1e-10.  ``curve_eval`` must be nondecreasing on
    (0, eps]; a coarse monotonicity scan rejects inputs that are not.
    """
    if factor not in (0.5, 1.0):
        raise ValueError(f"factor must be 1/2 or 1, got {factor!r}")
    _check_eps(eps)
    probes = [eps * (i + 1) / 33.0 for i in range(33)]
    values = [curve_eval(t) for t in probes]
    if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
        raise PreconditionError("curve_eval is not nondecreasing on (0, eps]")

    def g(d: float) -> float:
        return factor * curve_eval(eps - d) - d

    lo = 0.0
    hi = eps * (1.0 - 1e-12)
    if g(lo) <= 0.0:
        raise PreconditionError("curve vanishes at eps; no positive delta exists")
    if g(hi) >= 0.0:
        return hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theorem_bounds(p: float, eps: float) -> TheoremBounds:
    """Separation bounds for l^p at ``eps``, composed from ``lp_delta``."""
    _check_eps(eps)
    return TheoremBounds(
        thm1_bound=1.0 + lp_delta(p, 2.0 * eps / 3.0),
        elton_odell_bound=1.0 + 0.5 * lp_delta(p, 2.0 / 3.0),
        remark45_delta=0.5 * lp_delta(p, 4.0 * eps / 5.0),
    )


def build_curve(p: float, eps_values, method: str, *, d: int | None = None,
                budget: int = 10000, rng_seed=0) -> ModulusCurve:
    """Evaluate one engine on an eps grid and assert curve invariants.

    For the closed-form engines the curve is exactly monotone with
    ``delta <= eps/2`` at every point; the empirical engine is allowed the
    documented 2e-3 slack.  Violations raise ``CertificateError`` since a
    fresh engine output must satisfy its own invariants.
    """
    eps_values = [float(e) for e in eps_values]
    points = []
    if method == "clarkson":
        points = [ModulusPoint(e, clarkson_delta(p, e), "clarkson")
                  for e in eps_values]
        space = f"l^{p:g}"
    elif method == "hanner":
        points = [ModulusPoint(e, hanner_delta(p, e), "hanner")
                  for e in eps_values]
        space = f"l^{p:g}"
    elif method == "empirical":
        if d is None:
            raise ValueError("empirical curves need the dimension d")
        spec = SpaceSpec(p=p, d=d)
        seeds = np.random.SeedSequence(rng_seed).spawn(len(eps_values))
        points = [empirical_delta(spec, e, budget, s)
                  for e, s in zip(eps_values, seeds)]
        space = str(spec)
    else:
        raise ValueError(f"unknown method {method!r}")

    curve = ModulusCurve(space=space, points=tuple(points))
    _assert_fresh_curve(curve)
    return curve


def _assert_fresh_curve(curve: ModulusCurve) -> None:
    for pt in curve.points:
        slack = WITNESS_TOL if pt.method == "empirical" else 0.0
        if pt.delta > pt.eps / 2.0 + slack:
            raise CertificateError(
                f"engine produced delta {pt.delta:.17g} > eps/2 at eps={pt.eps:.17g}")
    for a, b in zip(curve.points, curve.points[1:]):
        slack = (EMPIRICAL_MONOTONE_SLACK
                 if "empirical" in (a.method, b.method) else 0.0)
        if b.delta < a.delta - slack:
            raise CertificateError(
                f"engine produced non-monotone curve at eps={b.eps:.17g}")


def _check_eps(eps: float) -> None:
    if not 0.0 < eps <= 2.0:
        raise ValueError(f"eps must lie in (0, 2], got {eps!r}")


def _vec_str(v: np.ndarray) -> str:
    return ";".join(f"{c:.17g}" for c in np.asarray(v, dtype=float))


def _vec_from_str(s: str) -> np.ndarray:
    return np.array([float(tok) for tok in s.split(";")], dtype=float)


def _point_from_fields(row: dict) -> ModulusPoint:
    wx = row.get("witness_x") or None
    wy = row.get("witness_y") or None
    witness = None
    if wx and wy:
        witness = (_vec_from_str(wx), _vec_from_str(wy))
    return ModulusPoint(eps=float(row["eps"]), delta=float(row["delta"]),
                        method=row["method"], witness=witness)
