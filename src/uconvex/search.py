"""Constrained random search on unit spheres.

The machinery of the empirical modulus estimator: batch sampling of
feasible pairs and a feasibility-preserving pattern refinement
(coordinate-wise perturbation with shrinking step, re-projection to the
sphere, infeasible moves discarded).

:func:`refine` is the one pattern-search loop, with a pluggable move
evaluator: by default scalar callbacks one move at a time; the empirical
modulus estimator scores a whole slice of moves as array rows with the
same trajectory, result and budget.
"""

from __future__ import annotations

import numpy as np

from .spaces import (SpaceSpec, batch_norm, block_buffer, gathered_blocks,
                     row_pair_norms, unit_batch)

REFINE_ROUNDS = 30
SHRINK = 0.5
INIT_STEP = 0.25
MAX_SWEEPS = 200           # sweeps per step level
MAX_RESAMPLE_ROUNDS = 8    # rejection rounds before the boundary fallback


class EvalBudget:
    """Counts candidate evaluations against a cap."""

    def __init__(self, cap: int):
        self.cap = int(cap)
        self.used = 0


def refine(x0: np.ndarray, objective, project, feasible, budget: EvalBudget,
           *, evaluate=None):
    """Pattern-search minimization over a projected parameter vector.

    Starts from ``project(x0)``.  Perturbs one coordinate at a time by
    +-step, re-projects via ``project``, discards moves that fail
    ``feasible`` or do not strictly decrease ``objective``; the step
    shrinks by :data:`SHRINK` once a sweep makes no progress (or after
    :data:`MAX_SWEEPS` sweeps), for :data:`REFINE_ROUNDS` step levels,
    starting at :data:`INIT_STEP`.  Each move consumes one evaluation of
    ``budget``; once it is spent, the next sweep returns the best point.

    ``evaluate(x, best, step, start, count)`` tries the moves at positions
    ``start .. start+count-1`` of the sweep in order, where position ``k``
    adds ``(+1, -1)[k % 2] * step`` to coordinate ``k // 2``; ``count``
    never exceeds what is left of the budget.  It returns
    ``(used, point, value)``: ``used`` is the position of the first move
    whose projected point is feasible and strictly below ``best``, plus
    one, with that point and value; with no such move it is ``count`` and
    ``point`` is None.  The default runs the callbacks one move at a time.
    A batched evaluator that scores the whole slice at once must return
    the same; ``feasible`` is then unused.

    Returns ``(best_params, best_value)``.
    """
    x = project(np.asarray(x0, dtype=float))
    best = objective(x)
    if evaluate is None:
        def evaluate(x, best, step, start, count):
            for k in range(start, start + count):
                cand = x.copy()
                cand[k // 2] += (1.0, -1.0)[k % 2] * step
                cand = project(cand)
                if not feasible(cand):
                    continue
                val = objective(cand)
                if val < best:
                    return k - start + 1, cand, val
            return count, None, best

    moves = 2 * x.size
    step = INIT_STEP
    for _ in range(REFINE_ROUNDS):
        for _ in range(MAX_SWEEPS):
            improved = False
            k = 0
            while k < moves:
                count = min(moves - k, budget.cap - budget.used)
                if count <= 0:
                    return x, best
                used, point, value = evaluate(x, best, step, k, count)
                budget.used += used
                k += used
                if point is not None:
                    x, best = point, value
                    improved = True
            if not improved:
                break
        step *= SHRINK
    return x, best


def sample_feasible_pairs(space: SpaceSpec, eps: float,
                          rng: np.random.Generator, count: int):
    """Sample ``count`` unit-vector pairs with ``||x - y|| >= eps``.

    Pairs are drawn independently on the sphere; infeasible ``y`` rows are
    re-sampled for at most :data:`MAX_RESAMPLE_ROUNDS` rounds.  If rejection
    leaves more than 99% of rows infeasible the remaining rows fall back to
    interpolating ``y`` toward ``-x`` until the separation constraint holds
    (a boundary pair).

    ``X`` and ``Y`` are whole draws, as a split one would shift the rest.
    The distances are :func:`spaces.row_pair_norms` of ``np.subtract``.

    Returns ``(X, Y)`` arrays of shape (count, d).
    """
    X = unit_batch(space, rng, count)
    Y = unit_batch(space, rng, count)
    bad = row_pair_norms(space, np.subtract, X, Y, np.arange(count)) < eps
    rounds = 0
    while np.any(bad) and rounds < MAX_RESAMPLE_ROUNDS:
        if bad.mean() > 0.99:
            break
        idx = np.flatnonzero(bad)
        Y[idx] = unit_batch(space, rng, len(idx))
        bad[idx] = row_pair_norms(space, np.subtract, X, Y, idx) < eps
        rounds += 1
    if np.any(bad):
        _interpolate_to_boundary(space, eps, X, Y, np.flatnonzero(bad))
    return X, Y


def _interpolant(space: SpaceSpec, x, y, t, out, tmp) -> np.ndarray:
    """``(1 - t) y - t x`` row by row into ``out``; returns its norms.

    ``tmp``, of ``out``'s shape, is overwritten.
    """
    np.multiply((1.0 - t)[:, None], y, out=out)
    out -= np.multiply(t[:, None], x, out=tmp)
    return batch_norm(space, out, out=tmp)


def _interpolate_to_boundary(space: SpaceSpec, eps: float, X: np.ndarray,
                             Y: np.ndarray, rows: np.ndarray) -> None:
    """Move ``Y[rows]`` along the sphere toward ``-X[rows]``, in place.

    Each ``y`` moves until ``||x - y|| >= eps``, by bisection on the
    interpolation parameter; t = 1 (the antipode) is always feasible since
    ``||x - (-x)|| = 2 >= eps``.  The rows are bisected through all 40 steps
    one :func:`spaces.gathered_blocks` block at a time; rows are
    independent, so the result is that of bisecting all rows at once, bit
    for bit.  Each step's interpolant, its norms and ``x - cand`` go to two
    reused block buffers; a block read in place as a view of ``Y`` is read
    before its final write.
    """
    bufs = [block_buffer(len(rows), space.d) for _ in range(2)]
    for blk, x, y in gathered_blocks(rows, space.d, X, Y):
        cand, tmp = (buf[:len(x)] for buf in bufs)
        lo = np.zeros(len(x))
        hi = np.ones(len(x))
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            norms = _interpolant(space, x, y, mid, cand, tmp)
            # a coincident pair y = x makes the interpolant vanish at the
            # first midpoint; nudge past it
            degenerate = norms == 0.0
            if np.any(degenerate):
                mid[degenerate] = np.nextafter(mid[degenerate], 2.0)
                norms = _interpolant(space, x, y, mid, cand, tmp)
            cand /= norms[:, None]
            dist = np.subtract(x, cand, out=tmp)
            feas = batch_norm(space, dist, out=dist) >= eps
            hi[feas] = mid[feas]
            lo[~feas] = mid[~feas]
        norms = _interpolant(space, x, y, hi, cand, tmp)
        cand /= norms[:, None]
        Y[rows[blk]] = cand
