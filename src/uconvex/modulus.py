"""The empirical modulus of convexity, the one engine that needs numpy.

``empirical_delta`` minimizes ``1 - ||x+y||/2`` over unit pairs with
``||x-y|| >= eps`` in a concrete finite-dimensional space, returning a
witness pair.  The closed-form engines live in :mod:`uconvex.curves`,
which loads no numpy; they are imported here too, so this module names
every delta engine.
"""

from __future__ import annotations

import numpy as np

from .curves import (ModulusPoint, _check_eps,  # noqa: F401
                     clarkson_delta, delta_from_constraint, hanner_delta,
                     lp_delta)
from .errors import CertificateError, PreconditionError
from .rounding import norm_error, unit_error
from .sampling import unit_batch
from .search import EvalBudget, refine, sample_feasible_pairs
from .spaces import SpaceSpec, _row_norms, as_vector, norm


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
    The random pairs and their scores come from
    :func:`search.sample_feasible_pairs`, which keeps the best of them.

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
        X, values, top, Y_top = sample_feasible_pairs(space, eps, rng,
                                                      sample_budget)
        for i, y in zip(top, Y_top):
            candidates.append((float(values[i]), X[i], y))

    candidates.sort(key=lambda t: t[0])
    best_val, best_x, best_y = candidates[0]

    refine_total = max(0, budget - sample_budget - len(candidates))
    starts = [c for c in candidates if c[0] < 1.0][:6] or candidates[:1]
    if refine_total > 0:
        share = max(1, refine_total // len(starts))
        for val, x, y in starts:
            if norm(space, x - y) < eps:
                continue
            moves = _PairMoves(space, eps)
            z, v = refine(np.concatenate([x, y]), moves.objective,
                          moves.project, None, EvalBudget(share),
                          evaluate=moves)
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
    current best is the move the scalar loop would accept.  So
    :func:`search.refine` with ``evaluate=_PairMoves(space, eps)`` gives the
    point, value and budget used of the move-by-move loop with the scalar
    callbacks ``normalize`` (per half), ``||x-y|| >= eps`` and
    ``1 - ||x+y||/2``.
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


def validate_witness(space: SpaceSpec, point: ModulusPoint) -> None:
    """Check a witness pair is feasible and achieves the stored delta.

    Each comparison allows :func:`rounding.norm_error`.  The halves come
    from ``normalize`` (the Clarkson pair is as close to unit); the
    estimator kept them on its own computed ``||x-y|| >= eps``, maybe
    before :func:`search.refine`'s start projection moved each by its
    distance from unit and a rounding, and computed ``delta`` from them.
    """
    if point.witness is None:
        return
    x, y = (as_vector(space, v) for v in point.witness)
    d = space.d
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

