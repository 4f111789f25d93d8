"""Row-blocked sampling kernels against copies of their one-shot forms.

``spaces.row_blocks`` splits a batch into blocks of at most
``BLOCK_ELEMS // width`` rows.  Every blocked site must reproduce, bit for
bit, the unblocked code it replaced (copied below as ``_old_*``), on
batches at, around and across block boundaries, including the violation
records of the statement checkers.  The working set of the boundary
bisection and of a remark45 cell must be bounded by the block size, not
by the number of rows.
"""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from uconvex import search, verify
from uconvex.spaces import (BLOCK_ELEMS, SpaceSpec, batch_norm, duality_map,
                            row_blocks, unit_batch)

BYTES = 8  # float64


def _rows_per_block(width):
    return max(1, BLOCK_ELEMS // width)


def _sizes(width):
    b = _rows_per_block(width)
    return [1, b - 1, b, b + 1, 3 * b + 7]


# ------------------------- one-shot reference code -------------------------

def _old_unit_batch(space, rng, n):
    g = rng.standard_normal((n, space.d))
    norms = batch_norm(space, g)
    bad = norms == 0.0
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), space.d))
        norms = batch_norm(space, g)
        bad = norms == 0.0
    return g / norms[:, None]


def _old_interpolate_to_boundary(space, eps, X, Y):
    lo = np.zeros(len(X))
    hi = np.ones(len(X))
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        cand = (1.0 - mid)[:, None] * Y - mid[:, None] * X
        norms = batch_norm(space, cand)
        degenerate = norms == 0.0
        if np.any(degenerate):
            mid[degenerate] = np.nextafter(mid[degenerate], 2.0)
            cand = (1.0 - mid)[:, None] * Y - mid[:, None] * X
            norms = batch_norm(space, cand)
        cand /= norms[:, None]
        feas = batch_norm(space, X - cand) >= eps
        hi[feas] = mid[feas]
        lo[~feas] = mid[~feas]
    final = (1.0 - hi)[:, None] * Y - hi[:, None] * X
    return final / batch_norm(space, final)[:, None]


def _old_sample_feasible_pairs(space, eps, rng, count, max_resample_rounds=8):
    X = _old_unit_batch(space, rng, count)
    Y = _old_unit_batch(space, rng, count)
    bad = batch_norm(space, X - Y) < eps
    rounds = 0
    while np.any(bad) and rounds < max_resample_rounds:
        if bad.mean() > 0.99:
            break
        Y[bad] = _old_unit_batch(space, rng, int(bad.sum()))
        bad = batch_norm(space, X - Y) < eps
        rounds += 1
    if np.any(bad):
        Y[bad] = _old_interpolate_to_boundary(space, eps, X[bad], Y[bad])
    return X, Y


def _old_stressed_near_unit(space, rng, X, delta, t_scale):
    n = len(X)
    s = delta * rng.choice((-1.0, 1.0), size=n) * rng.beta(4.0, 1.0, size=n)
    U = _old_unit_batch(space, rng, n)
    base = X + t_scale * U
    base /= batch_norm(space, base)[:, None]
    return (1.0 + s)[:, None] * base, s


def _old_check_lemma23(space, eps, trials, rng_seed):
    delta = verify.lp_delta(space.p, 2.0 * eps / 3.0)
    rng = np.random.default_rng(rng_seed)
    t_scale = min(1.0, math.sqrt(2.0 * delta))
    attempted = kept = 0
    violations = []
    while kept < trials:
        n = verify._remaining(attempted, trials, "lemma23", space, eps)
        X = _old_unit_batch(space, rng, n)
        Xp, s = _old_stressed_near_unit(space, rng, X, delta, t_scale)
        F = duality_map(space, X)
        cond_i = np.abs(1.0 - batch_norm(space, Xp)) < delta
        pairing = np.einsum("ij,ij->i", X - Xp, F)
        cond_iii = np.abs(pairing) < delta
        keep = cond_i & cond_iii
        dist = batch_norm(space, X - Xp)
        viol = keep & ~(dist < eps)
        for i in np.flatnonzero(viol):
            violations.append(verify._lemma23_record(
                space, eps, delta, X[i], Xp[i], F[i], pairing[i], dist[i]))
        attempted += n
        kept += int(keep.sum())
        t_scale = verify._adapt(t_scale, keep.mean())
    return verify.VerificationReport(
        statement="lemma23", p=space.p, d=space.d, eps=eps, delta_used=delta,
        trials=attempted, kept=kept, violations=tuple(violations),
        rng_seed=verify._seed_int(rng_seed))


def _old_check_thm2_condition3(space, eps, trials, rng_seed):
    delta = verify.delta_from_constraint(
        lambda e: verify.lp_delta(space.p, e), eps, 0.5)
    rng = np.random.default_rng(rng_seed)
    t_scale = min(1.0, math.sqrt(2.0 * delta))
    f_scale = 0.7 * math.sqrt(delta)
    attempted = kept = 0
    violations = []
    while kept < trials:
        n = verify._remaining(attempted, trials, "thm2_condition3", space,
                              eps)
        X = _old_unit_batch(space, rng, n)
        U = _old_unit_batch(space, rng, n)
        Xp = X + t_scale * U
        Xp /= batch_norm(space, Xp)[:, None]
        anchor = X.copy()
        perturb = rng.random(n) < 0.5
        W = _old_unit_batch(space, rng, n)
        anchor[perturb] += f_scale * W[perturb]
        anchor /= batch_norm(space, anchor)[:, None]
        F = duality_map(space, anchor)
        iv = np.abs(np.einsum("ij,ij->i", X, F)) > 1.0 - delta
        pairing = np.einsum("ij,ij->i", X - Xp, F)
        v = np.abs(pairing) < delta
        keep = iv & v
        dist = batch_norm(space, X - Xp)
        viol = keep & ~(dist < eps)
        for i in np.flatnonzero(viol):
            violations.append({
                "p": space.p, "eps": eps, "delta": delta,
                "x": X[i].tolist(), "x_prime": Xp[i].tolist(),
                "functional": F[i].tolist(),
                "pairing_x": float(np.dot(X[i], F[i])),
                "pairing_diff": float(pairing[i]),
                "dist": float(dist[i]),
            })
        attempted += n
        kept += int(keep.sum())
        t_scale = verify._adapt(t_scale, keep.mean())
    return verify.VerificationReport(
        statement="thm2_condition3", p=space.p, d=space.d, eps=eps,
        delta_used=delta, trials=attempted, kept=kept,
        violations=tuple(violations), rng_seed=verify._seed_int(rng_seed))


def _old_check_remark45(space, eps, trials, k, rng_seed):
    delta = 0.5 * verify.lp_delta(space.p, 4.0 * eps / 5.0)
    rng = np.random.default_rng(rng_seed)
    t_scale = min(1.0, math.sqrt(2.0 * delta))
    dual = space.dual
    attempted = kept = 0
    violations = []
    while kept < trials:
        n = verify._remaining(attempted, trials, "remark45", space, eps)
        X = _old_unit_batch(space, rng, n)
        Xp, s = _old_stressed_near_unit(space, rng, X, delta, t_scale)
        rows = np.empty((n, k, space.d))
        rows[:, 0, :] = duality_map(space, X)
        if k > 1:
            G = rng.standard_normal((n, k - 1, space.d))
            rows[:, 1:, :] = G / batch_norm(dual, G)[:, :, None]
        tx = np.einsum("nkd,nd->nk", rows, X)
        txp = np.einsum("nkd,nd->nk", rows, Xp)
        cond_i = np.abs(1.0 - batch_norm(space, Xp)) < delta
        cond_ii = np.max(np.abs(tx), axis=1) > 1.0 - delta
        sup_diff = np.max(np.abs(tx - txp), axis=1)
        cond_iii = sup_diff < delta
        keep = cond_i & cond_ii & cond_iii
        dist = batch_norm(space, X - Xp)
        viol = keep & ~(dist < eps)
        for i in np.flatnonzero(viol):
            violations.append({
                "p": space.p, "eps": eps, "delta": delta,
                "x": X[i].tolist(), "x_prime": Xp[i].tolist(),
                "rows": rows[i].tolist(),
                "norm_x_prime": float(batch_norm(space, Xp[i][None])[0]),
                "sup_tx": float(np.max(np.abs(tx[i]))),
                "sup_diff": float(sup_diff[i]),
                "dist": float(dist[i]),
            })
        attempted += n
        kept += int(keep.sum())
        t_scale = verify._adapt(t_scale, keep.mean())
    return verify.VerificationReport(
        statement="remark45", p=space.p, d=space.d, eps=eps,
        delta_used=delta, trials=attempted, kept=kept,
        violations=tuple(violations), rng_seed=verify._seed_int(rng_seed))


def _assert_same_report(new, old):
    for f in fields(verify.VerificationReport):
        assert getattr(new, f.name) == getattr(old, f.name), f.name


def _same_stream(rng_a, rng_b):
    """Both generators are at the same point of their stream."""
    return np.array_equal(rng_a.random(4), rng_b.random(4))


# --------------------------------- blocks ---------------------------------

@pytest.mark.parametrize("width", [1, 2, 16, 24, 64, 4 * 64,
                                   BLOCK_ELEMS, BLOCK_ELEMS + 1])
def test_row_blocks_tile_the_rows(width):
    b = _rows_per_block(width)
    for n in [0] + _sizes(width):
        blocks = list(row_blocks(n, width))
        assert [blk.start for blk in blocks] == list(range(0, n, b))
        assert all(blk.stop - blk.start == b for blk in blocks[:-1])
        assert sum(blk.stop - blk.start for blk in blocks) == n
        assert all(blk.step is None for blk in blocks)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("d", [2, 16, 64])
def test_unit_batch_equals_one_shot(p, d):
    space = SpaceSpec(p, d)
    for n in _sizes(d):
        new_rng, old_rng = np.random.default_rng(n), np.random.default_rng(n)
        new = unit_batch(space, new_rng, n)
        assert np.array_equal(new, _old_unit_batch(space, old_rng, n))
        assert _same_stream(new_rng, old_rng)


class _ZeroRowsFirst:
    """Stand-in generator whose first draw has exact zero rows."""

    def __init__(self, seed, zero_rows):
        self.rng = np.random.default_rng(seed)
        self.zero_rows = zero_rows
        self.first = True

    def standard_normal(self, size):
        g = self.rng.standard_normal(size)
        if self.first:
            g[self.zero_rows] = 0.0
            self.first = False
        return g


def test_unit_batch_redraws_zero_rows_as_one_shot():
    space = SpaceSpec(1.5, 16)
    n = 3 * _rows_per_block(16) + 7
    zero_rows = [0, 5, n // 2, n - 1]
    new = unit_batch(space, _ZeroRowsFirst(3, zero_rows), n)
    old = _old_unit_batch(space, _ZeroRowsFirst(3, zero_rows), n)
    assert np.array_equal(new, old)
    assert np.all(batch_norm(space, new[zero_rows]) > 0.0)


# ------------------------- boundary interpolation -------------------------

def _boundary_inputs(space, n, seed):
    rng = np.random.default_rng(seed)
    X = unit_batch(space, rng, n)
    Y = unit_batch(space, rng, n)
    # y = -x is feasible at every step; y = x makes the interpolant vanish
    # at the first midpoint and takes the degenerate-antipode nudge
    Y[::7] = -X[::7]
    Y[3::11] = X[3::11]
    return X, Y


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [2, 16, 64])
def test_interpolate_to_boundary_equals_one_shot(p, d, monkeypatch):
    space = SpaceSpec(p, d)
    zero_norms = []

    def spy(space, rows):
        norms = batch_norm(space, rows)
        zero_norms.append(bool(np.any(norms == 0.0)))
        return norms

    for n in _sizes(d):
        X, Y = _boundary_inputs(space, n, seed=n)
        expected = _old_interpolate_to_boundary(space, 1.5, X, Y)
        new = Y.copy()
        with monkeypatch.context() as m:
            m.setattr(search, "batch_norm", spy)
            search._interpolate_to_boundary(space, 1.5, X, new, np.arange(n))
        assert np.array_equal(new, expected)
    assert any(zero_norms)


@pytest.mark.parametrize("d", [2, 64])
def test_interpolate_to_boundary_touches_only_its_rows(d):
    space = SpaceSpec(1.5, d)
    n = 2 * _rows_per_block(d) + 5
    X, Y = _boundary_inputs(space, n, seed=1)
    rows = np.arange(1, n, 3)
    expected = Y.copy()
    expected[rows] = _old_interpolate_to_boundary(space, 1.9, X[rows],
                                                  Y[rows])
    search._interpolate_to_boundary(space, 1.9, X, Y, rows)
    assert np.array_equal(Y, expected)


@pytest.mark.parametrize("eps", [0.5, 1.5, 1.9, 2.0])
@pytest.mark.parametrize("p,d", [(1.5, 16), (3.0, 64), (2.0, 2)])
def test_sample_feasible_pairs_equals_one_shot(p, d, eps):
    space = SpaceSpec(p, d)
    count = 3 * _rows_per_block(d) + 7 if d > 2 else 3001
    new_rng, old_rng = np.random.default_rng(9), np.random.default_rng(9)
    X, Y = search.sample_feasible_pairs(space, eps, new_rng, count)
    oX, oY = _old_sample_feasible_pairs(space, eps, old_rng, count)
    assert np.array_equal(X, oX) and np.array_equal(Y, oY)
    assert _same_stream(new_rng, old_rng)


# ---------------------------- statement checks ----------------------------

# B = BLOCK_ELEMS // (k * 24) rows does not divide the 2048-row batch
REMARK45_D = 24


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("p,eps", [(1.5, 0.5), (3.0, 1.9)])
def test_remark45_equals_one_shot(k, p, eps):
    assert verify.BATCH % _rows_per_block(k * REMARK45_D) != 0
    space = SpaceSpec(p, REMARK45_D)
    new = verify.check_remark45(space, eps, 1500, k, 5)
    assert new.trials > verify.BATCH  # more than one batch
    _assert_same_report(new, _old_check_remark45(space, eps, 1500, k, 5))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_remark45_violation_records_equal_one_shot(k, monkeypatch):
    # a huge delta keeps nearly every trial and the conclusion fails often
    monkeypatch.setattr(verify, "lp_delta", lambda p, eps: 3.0)
    space = SpaceSpec(1.5, REMARK45_D)
    new = verify.check_remark45(space, 0.5, 300, k, 2)
    old = _old_check_remark45(space, 0.5, 300, k, 2)
    assert len(new.violations) > _rows_per_block(k * REMARK45_D)
    _assert_same_report(new, old)
    assert all(len(rec["rows"]) == k for rec in new.violations)


@pytest.mark.parametrize("p,d,eps", [(1.5, 24, 0.5), (3.0, 64, 1.9),
                                     (2.0, 2, 1.0)])
def test_lemma23_equals_one_shot(p, d, eps):
    space = SpaceSpec(p, d)
    _assert_same_report(verify.check_lemma23(space, eps, 1500, 4),
                        _old_check_lemma23(space, eps, 1500, 4))


@pytest.mark.parametrize("p,d,eps", [(1.5, 24, 0.5), (3.0, 64, 1.9),
                                     (2.0, 2, 1.0)])
def test_thm2_condition3_equals_one_shot(p, d, eps):
    space = SpaceSpec(p, d)
    _assert_same_report(verify.check_thm2_condition3(space, eps, 1500, 4),
                        _old_check_thm2_condition3(space, eps, 1500, 4))


def test_lemma23_violation_records_equal_one_shot(monkeypatch):
    monkeypatch.setattr(verify, "lp_delta", lambda p, eps: 3.0)
    space = SpaceSpec(1.5, REMARK45_D)
    new = verify.check_lemma23(space, 0.5, 300, 2)
    assert len(new.violations) > _rows_per_block(REMARK45_D)
    _assert_same_report(new, _old_check_lemma23(space, 0.5, 300, 2))


def test_thm2_condition3_violation_records_equal_one_shot(monkeypatch):
    monkeypatch.setattr(verify, "delta_from_constraint", lambda *a: 0.9)
    space = SpaceSpec(1.5, REMARK45_D)
    new = verify.check_thm2_condition3(space, 0.5, 300, 2)
    assert len(new.violations) > _rows_per_block(REMARK45_D)
    _assert_same_report(new, _old_check_thm2_condition3(space, 0.5, 300, 2))


# ------------------------------- working set -------------------------------

def _peak_bytes(fn):
    """Peak traced bytes that ``fn()`` allocates above what is live before.

    numpy reports its array buffers to ``tracemalloc``.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_interpolate_to_boundary_working_set_is_one_block():
    """Beyond its inputs, the bisection holds a few block-sized arrays.

    Per block: the gathered ``x`` and ``y`` rows, the interpolant, two
    broadcast products, the distance rows and ``batch_norm``'s absolute
    values, each at most ``BLOCK_ELEMS`` entries; eight such arrays bound
    them with room for the O(rows) bisection brackets.
    """
    space = SpaceSpec(1.5, 64)
    b = _rows_per_block(64)
    bound = 8 * BLOCK_ELEMS * BYTES
    peaks = []
    for n in (4 * b, 8 * b):
        X, Y = _boundary_inputs(space, n, seed=n)
        rows = np.arange(n)
        peaks.append(_peak_bytes(
            lambda: search._interpolate_to_boundary(space, 1.9, X, Y, rows)))
    assert max(peaks) < bound
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_remark45_cell_working_set_is_bounded_by_blocks(monkeypatch):
    """A d=64, k=4 cell holds its batch's draws plus a few blocks.

    A batch of n rows keeps ``X`` and ``x'`` (n x d each) and O(n) row
    vectors, and while the next batch is drawn the previous one is still
    referenced: four (n, d) arrays.  Everything else (the k functionals
    per row, their pairings, the norms' temporaries) lives in blocks of at
    most ``BLOCK_ELEMS`` entries.  What the cell holds beyond the (n, d)
    arrays must stay within sixteen blocks and must not grow when the
    batch doubles; the one-shot cell held about 35 blocks above them at
    n = 2048 and 69 at n = 4096.
    """
    space = SpaceSpec(3.0, 64)
    excess = []
    for n in (2048, 4096):
        monkeypatch.setattr(verify, "BATCH", n)
        peak = _peak_bytes(
            lambda: verify.check_remark45(space, 1.0, n // 2, 4, 0))
        excess.append(peak - 4 * n * space.d * BYTES - 32 * n * BYTES)
    assert max(excess) < 16 * BLOCK_ELEMS * BYTES
    assert excess[1] <= excess[0] + 64 * 1024
