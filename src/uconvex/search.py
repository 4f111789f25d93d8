"""Constrained random search on unit spheres.

The machinery of the empirical modulus estimator: batch sampling and
scoring of feasible pairs, which streams every draw of ``y`` rows one
block at a time and keeps only the values and the best pairs, and a
feasibility-preserving pattern refinement (coordinate-wise perturbation
with shrinking step, re-projection to the sphere, infeasible moves
discarded).

:func:`refine` is the one pattern-search loop, with a pluggable move
evaluator: by default scalar callbacks one move at a time; the empirical
modulus estimator scores a whole slice of moves as array rows with the
same trajectory, result and budget.
"""

from __future__ import annotations

import copy

import numpy as np

from .sampling import op_norms, unit_batch, unit_blocks
from .spaces import SpaceSpec, batch_norm, block_buffer, gathered_blocks

REFINE_ROUNDS = 30
SHRINK = 0.5
INIT_STEP = 0.25
MAX_SWEEPS = 200           # sweeps per step level
MAX_RESAMPLE_ROUNDS = 8    # rejection rounds before the boundary fallback
KEEP_BEST = 8              # sampled pairs kept as refinement starts


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
    """Sample ``count`` unit-vector pairs with ``||x - y|| >= eps`` and score
    each by ``1 - ||x + y||/2``.

    Pairs are drawn independently on the sphere; infeasible ``y`` rows are
    re-sampled for at most :data:`MAX_RESAMPLE_ROUNDS` rounds.  If rejection
    leaves more than 99% of rows infeasible the remaining rows fall back to
    interpolating ``y`` toward ``-x`` until the separation constraint holds
    (a boundary pair).

    ``X`` is a whole draw.  Every draw of ``y`` rows is streamed through
    :func:`sampling.unit_blocks` and each row judged against its ``x`` as its
    block arrives; once a row's ``y`` is final the row is scored, and only
    the values and the :data:`KEEP_BEST` best rows are kept, so no (count,
    d) array of ``y`` rows is built.  The rows left for the bisection all
    come from one draw, the first when rejection gives up at once and else
    the last round's, which is drawn again from a copy of the generator
    taken before it.  Distances and values are the :func:`batch_norm` of
    ``x - y`` and ``x + y``, bit for bit, through :func:`sampling.op_norms`.

    Returns ``(X, values, best, Y_best)``: ``X`` of shape (count, d), the
    value of every row, the :data:`KEEP_BEST` rows of least value in
    ``np.argsort(values, kind="stable")`` order, and their ``y`` rows.
    """
    d = space.d
    X = unit_batch(space, rng, count)
    values = np.empty(count)
    best = np.empty(0, dtype=np.intp), np.empty((0, d))
    cand, tmp = (block_buffer(count, d) for _ in range(2))
    rows = np.arange(count)
    for rounds in range(MAX_RESAMPLE_ROUNDS + 1):
        replay = copy.deepcopy(rng)
        bad = np.empty(len(rows), dtype=bool)
        for blk, x, y in _drawn_pairs(space, rng, X, rows):
            bad[blk] = op_norms(space, np.subtract, x, y, tmp) < eps
            best = _score(space, x, y, rows[blk], ~bad[blk], values, best,
                          tmp)
        left = np.count_nonzero(bad)
        if (not left or rounds == MAX_RESAMPLE_ROUNDS
                or left / count > 0.99):
            break
        rows = rows[bad]
    if left:
        for blk, x, y in _drawn_pairs(space, replay, X, rows):
            # rows already feasible are bisected along and dropped
            y = _bisect(space, eps, x, y, cand[:len(x)], tmp[:len(x)])
            best = _score(space, x, y, rows[blk], bad[blk], values, best,
                          tmp)
    return X, values, *best


def _drawn_pairs(space: SpaceSpec, rng: np.random.Generator, X: np.ndarray,
                 rows: np.ndarray):
    """``(blk, X[rows[blk]], y)`` per block, ``y`` the block of a
    :func:`sampling.unit_blocks` draw of ``len(rows)`` rows."""
    for (blk, x), (_, y) in zip(gathered_blocks(rows, space.d, X),
                                unit_blocks(space, rng, len(rows)),
                                strict=True):
        yield blk, x, y


def _score(space: SpaceSpec, x, y, rows, final, values, best, buf):
    """Score the pairs ``final`` of a block and merge them into ``best``.

    ``values[rows[i]]`` becomes ``1 - ||x_i + y_i||/2`` for each ``i`` in
    ``final``; returns the :data:`KEEP_BEST` rows of least value among
    ``best`` and these, ties by row, as ``(rows, y rows)``.  ``buf``, a
    block buffer, is overwritten.
    """
    pos = np.flatnonzero(final)
    vals = 1.0 - 0.5 * op_norms(space, np.add, x, y, buf)
    values[rows[pos]] = vals[pos]
    old_rows, old_y = best
    if len(old_rows) == KEEP_BEST:  # a row above the worst kept one stays out
        pos = pos[vals[pos] <= values[old_rows[-1]]]
    merged = np.concatenate([old_rows, rows[pos]])
    order = np.lexsort((merged, values[merged]))[:KEEP_BEST]
    new = order >= len(old_rows)
    best_y = np.empty((len(order), space.d))
    best_y[~new] = old_y[order[~new]]
    best_y[new] = y[pos[order[new] - len(old_rows)]]
    return merged[order], best_y


def _interpolant(space: SpaceSpec, x, y, t, out, tmp) -> np.ndarray:
    """``(1 - t) y - t x`` row by row into ``out``; returns its norms.

    ``tmp``, of ``out``'s shape, is overwritten.
    """
    np.multiply((1.0 - t)[:, None], y, out=out)
    out -= np.multiply(t[:, None], x, out=tmp)
    return batch_norm(space, out, out=tmp)


def _bisect(space: SpaceSpec, eps: float, x: np.ndarray, y: np.ndarray,
            cand: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Each ``y`` moved along the sphere toward ``-x``, into ``cand``.

    Each ``y`` moves until ``||x - y|| >= eps``, by bisection on the
    interpolation parameter; t = 1 (the antipode) is always feasible since
    ``||x - (-x)|| = 2 >= eps``.  Rows are independent: a row's result does
    not depend on the rows bisected with it, bit for bit.  Each of the 40
    steps' interpolant, its norms and ``x - cand`` go to ``cand`` and
    ``tmp``, of ``x``'s shape; ``tmp`` is overwritten.
    """
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
        feas = op_norms(space, np.subtract, x, cand, tmp) >= eps
        hi[feas] = mid[feas]
        lo[~feas] = mid[~feas]
    cand /= _interpolant(space, x, y, hi, cand, tmp)[:, None]
    return cand
