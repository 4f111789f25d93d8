"""Constrained random search on unit spheres.

Shared machinery for the empirical modulus estimator and the greedy seed
builder: batch sampling of feasible pairs and a feasibility-preserving
pattern refinement (coordinate-wise perturbation with shrinking step,
re-projection to the sphere, infeasible moves discarded).

The refinement, :func:`refine`, is the one pattern-search loop: it owns
the rounds, the sweeps, the step shrinking and the evaluation budget.  A
sweep tries the moves ``(i, +1), (i, -1)`` for each coordinate ``i`` in
order and accepts every strictly improving feasible move as it meets it
(first improvement).  The loop hands its evaluator the rest of the sweep;
the evaluator reports how many moves it consumed, up to and including the
first improvement.  By default the evaluator calls scalar callbacks one
move at a time.  The empirical modulus estimator supplies an evaluator
that scores a whole slice of moves as array rows; it speculates past the
first improvement and discards the rest, so the trajectory, the result
and the budget used are those of the move-by-move loop.
"""

from __future__ import annotations

import numpy as np

from .spaces import SpaceSpec, batch_norm, normalize, row_blocks, unit_batch

REFINE_ROUNDS = 30
SHRINK = 0.5
INIT_STEP = 0.25


class EvalBudget:
    """Counts candidate evaluations against a cap."""

    def __init__(self, cap: int):
        self.cap = int(cap)
        self.used = 0

    def take(self, n: int = 1) -> bool:
        """Consume ``n`` evaluations; False once the cap is exhausted."""
        if self.used >= self.cap:
            return False
        self.used += n
        return True

    @property
    def exhausted(self) -> bool:
        return self.used >= self.cap


def refine(x0: np.ndarray, objective, project, feasible, budget: EvalBudget,
           *, evaluate=None, rounds: int = REFINE_ROUNDS,
           step0: float = INIT_STEP, shrink: float = SHRINK,
           max_sweeps: int = 200):
    """Pattern-search minimization over a projected parameter vector.

    Starts from ``project(x0)``.  Perturbs one coordinate at a time by
    +-step, re-projects via ``project``, discards moves that fail
    ``feasible`` or do not strictly decrease ``objective``; the step
    shrinks by ``shrink`` once a sweep makes no progress, for ``rounds``
    step levels.  Each move consumes one evaluation of ``budget``.

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
    step = step0
    for _ in range(rounds):
        for _ in range(max_sweeps):
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
        step *= shrink
        if budget.exhausted:
            break
    return x, best


def sample_feasible_pairs(space: SpaceSpec, eps: float,
                          rng: np.random.Generator, count: int,
                          *, max_resample_rounds: int = 8):
    """Sample ``count`` unit-vector pairs with ``||x - y|| >= eps``.

    Pairs are drawn independently on the sphere; infeasible ``y`` rows are
    re-sampled.  If rejection leaves more than 99% of rows infeasible the
    remaining rows fall back to interpolating ``y`` toward ``-x`` until the
    separation constraint holds (a boundary pair).

    The distances and the fallback stream the rows in blocks of
    :func:`spaces.row_blocks`, so their temporaries are O(block), not
    O(count).  Every random draw is made whole and in a fixed order: only
    a batch's last draw may be split into blocks without changing the
    numbers, and the fallback draws nothing.

    Returns ``(X, Y)`` arrays of shape (count, d).
    """
    X = unit_batch(space, rng, count)
    Y = unit_batch(space, rng, count)
    bad = _too_close(space, eps, X, Y)
    rounds = 0
    while np.any(bad) and rounds < max_resample_rounds:
        if bad.mean() > 0.99:
            break
        Y[bad] = unit_batch(space, rng, int(bad.sum()))
        bad = _too_close(space, eps, X, Y)
        rounds += 1
    if np.any(bad):
        _interpolate_to_boundary(space, eps, X, Y, np.flatnonzero(bad))
    return X, Y


def _too_close(space: SpaceSpec, eps: float, X: np.ndarray,
               Y: np.ndarray) -> np.ndarray:
    """``||x - y|| < eps`` for each row pair, one row block at a time."""
    bad = np.empty(len(X), dtype=bool)
    for blk in row_blocks(len(X), space.d):
        bad[blk] = batch_norm(space, X[blk] - Y[blk]) < eps
    return bad


def _interpolate_to_boundary(space: SpaceSpec, eps: float, X: np.ndarray,
                             Y: np.ndarray, rows: np.ndarray) -> None:
    """Move ``Y[rows]`` along the sphere toward ``-X[rows]``, in place.

    Each ``y`` moves until ``||x - y|| >= eps``, by bisection on the
    interpolation parameter; t = 1 (the antipode) is always feasible since
    ``||x - (-x)|| = 2 >= eps``.  The rows are gathered and bisected one
    block of :func:`spaces.row_blocks` at a time, through all 40 steps, so
    the working set is O(block) for any number of rows.  Rows are
    independent, so the result is that of bisecting all rows at once, bit
    for bit.
    """
    for blk in row_blocks(len(rows), space.d):
        r = rows[blk]
        x, y = X[r], Y[r]
        lo = np.zeros(len(r))
        hi = np.ones(len(r))
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            cand = (1.0 - mid)[:, None] * y - mid[:, None] * x
            norms = batch_norm(space, cand)
            # exact antipode can make the interpolant vanish; nudge past it
            degenerate = norms == 0.0
            if np.any(degenerate):
                mid[degenerate] = np.nextafter(mid[degenerate], 2.0)
                cand = (1.0 - mid)[:, None] * y - mid[:, None] * x
                norms = batch_norm(space, cand)
            cand /= norms[:, None]
            feas = batch_norm(space, x - cand) >= eps
            hi[feas] = mid[feas]
            lo[~feas] = mid[~feas]
        final = (1.0 - hi)[:, None] * y - hi[:, None] * x
        final /= batch_norm(space, final)[:, None]
        Y[r] = final


def maximize_min_distance(space: SpaceSpec, anchors: list[np.ndarray],
                          rng: np.random.Generator, budget: EvalBudget,
                          *, starts: int = 16):
    """Find a unit vector far from all anchors: maximize min_j ||c - v_j||.

    Random multistart plus the shared pattern refinement (on the negated
    objective).  Returns ``(vector, min_distance)``.
    """
    if not anchors:
        c = unit_batch(space, rng, 1)[0]
        return c, float("inf")
    A = np.asarray(anchors)

    def neg_min_dist(c):
        return -float(np.min(batch_norm(space, A - c)))

    n_probe = max(starts * 8, 32)
    probes = unit_batch(space, rng, n_probe)
    budget.take(n_probe)
    scores = np.array([neg_min_dist(c) for c in probes])
    order = np.argsort(scores)[:starts]

    best_c, best_v = None, np.inf
    for idx in order:
        c, v = refine(
            probes[idx],
            neg_min_dist,
            lambda z: normalize(space, z),
            lambda z: True,
            budget,
        )
        if v < best_v:
            best_c, best_v = c, v
        if budget.exhausted:
            break
    return best_c, -best_v
