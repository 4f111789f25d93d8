"""The pattern search: the batched pair search against the move-by-move loop.

``oracle_refine`` is the scalar refinement loop as it stood before the
search was batched; the batched pair search behind ``empirical_delta`` and
the callback front end ``refine`` must both reproduce it exactly: the same
point and value bit for bit, the same budget used, the same callbacks.
"""

import numpy as np
import pytest

from uconvex.modulus import _PairMoves
from uconvex.search import (INIT_STEP, REFINE_ROUNDS, SHRINK, EvalBudget,
                            refine, sample_feasible_pairs)
from uconvex.spaces import SpaceSpec, _row_norms, norm, normalize


def oracle_refine(x0, objective, project, feasible, budget, *,
                  rounds=REFINE_ROUNDS, shrink=SHRINK, max_sweeps=200):
    x = project(np.asarray(x0, dtype=float))
    best = objective(x)
    n = x.size
    step = INIT_STEP
    for _ in range(rounds):
        for _ in range(max_sweeps):
            improved = False
            for i in range(n):
                for sign in (1.0, -1.0):
                    if budget.used >= budget.cap:
                        return x, best
                    budget.used += 1
                    cand = x.copy()
                    cand[i] += sign * step
                    cand = project(cand)
                    if not feasible(cand):
                        continue
                    val = objective(cand)
                    if val < best:
                        x, best = cand, val
                        improved = True
            if not improved:
                break
        step *= shrink
        if budget.used >= budget.cap:
            break
    return x, best


def scalar_pair_callbacks(space, eps):
    """The objective, projection and feasibility of the pair search."""
    d = space.d

    def project(z):
        return np.concatenate([normalize(space, z[:d]),
                               normalize(space, z[d:])])

    def feasible(z):
        return norm(space, z[:d] - z[d:]) >= eps

    def objective(z):
        return 1.0 - 0.5 * norm(space, z[:d] + z[d:])

    return objective, project, feasible


def start_pair(space, eps, seed):
    X, _, _, Y_best = sample_feasible_pairs(space, eps,
                                            np.random.default_rng(seed), 1)
    return np.concatenate([X[0], Y_best[0]])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [2, 3, 16, 64])
def test_batched_pair_search_matches_scalar_loop(p, d):
    space = SpaceSpec(p=p, d=d)
    for eps in (0.1, 1.0, 1.9):
        z0 = start_pair(space, eps, seed=int(10 * eps) + d)
        callbacks = scalar_pair_callbacks(space, eps)
        for cap in (1, 7, 4 * d - 1, 4 * d, 4 * d + 1, 5000):
            want_budget, got_budget = EvalBudget(cap), EvalBudget(cap)
            want_z, want_v = oracle_refine(z0, *callbacks, want_budget)
            moves = _PairMoves(space, eps)
            got_z, got_v = refine(z0, moves.objective, moves.project, None,
                                  got_budget, evaluate=moves)
            assert got_z.tobytes() == want_z.tobytes(), (eps, cap)
            assert got_v == want_v, (eps, cap)
            assert got_budget.used == want_budget.used, (eps, cap)


def _logged(objective, project, feasible, log):
    def lp(z):
        out = project(z)
        log.append(("project", z.tobytes(), out.tobytes()))
        return out

    def lf(z):
        ok = feasible(z)
        log.append(("feasible", z.tobytes(), ok))
        return ok

    def lo(z):
        val = objective(z)
        log.append(("objective", z.tobytes(), val))
        return val

    return lo, lp, lf


@pytest.mark.parametrize("cap", [1, 7, 31, 32, 33, 3000])
def test_refine_makes_the_scalar_loop_calls(cap):
    space = SpaceSpec(p=1.5, d=8)
    eps = 0.6
    z0 = start_pair(space, eps, seed=cap)
    callbacks = scalar_pair_callbacks(space, eps)
    want_log, got_log = [], []
    want_budget, got_budget = EvalBudget(cap), EvalBudget(cap)
    want = oracle_refine(z0, *_logged(*callbacks, want_log), want_budget)
    got = refine(z0, *_logged(*callbacks, got_log), got_budget)
    assert got_log == want_log
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    assert got_budget.used == want_budget.used


def test_refine_respects_an_overdrawn_budget():
    # a caller may charge a whole batch at once and overshoot the cap
    budget = EvalBudget(5)
    budget.used += 9
    x, v = refine(np.array([3.0, 4.0]), lambda z: float(z[0]),
                  lambda z: z / np.linalg.norm(z), lambda z: True, budget)
    assert np.array_equal(x, [0.6, 0.8]) and v == 0.6
    assert budget.used == 9


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0])
def test_row_norms_equal_scalar_norm_bit_for_bit(p):
    rng = np.random.default_rng(int(10 * p))
    for d in (1, 2, 3, 7, 8, 9, 16, 64, 127, 128, 129, 300, 1000):
        space = SpaceSpec(p=p, d=d)
        scale = rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
        rows = rng.standard_normal((40, d)) * scale
        rows[0] = 0.0
        want = [norm(space, v) for v in rows]
        assert _row_norms(space, rows).tolist() == want, d

