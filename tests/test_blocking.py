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
import warnings
from dataclasses import fields

import numpy as np
import pytest

from uconvex import search, verify
from uconvex.sampling import op_norms, unit_batch, unit_blocks
from uconvex.spaces import (BLOCK_ELEMS, SpaceSpec, batch_norm, block_buffer,
                            duality_map, gathered_blocks, row_blocks)

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


def _in_block_unit_batch(space, rng, n):
    """The one-shot draw per ``row_blocks`` block: a zero row is drawn
    again within its block."""
    blocks = [_old_unit_batch(space, rng, blk.stop - blk.start)
              for blk in row_blocks(n, space.d)]
    return np.concatenate(blocks) if blocks else np.empty((0, space.d))


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


def _old_sample_feasible_pairs(space, eps, rng, count, max_resample_rounds=8,
                               draws=None):
    """The one-shot sampler; ``draws`` gets the size of each draw of Y."""
    draws = [] if draws is None else draws
    X = _old_unit_batch(space, rng, count)
    Y = _old_unit_batch(space, rng, count)
    draws.append(count)
    bad = batch_norm(space, X - Y) < eps
    rounds = 0
    while np.any(bad) and rounds < max_resample_rounds:
        if bad.mean() > 0.99:
            break
        draws.append(int(bad.sum()))
        Y[bad] = _old_unit_batch(space, rng, int(bad.sum()))
        bad = batch_norm(space, X - Y) < eps
        rounds += 1
    if np.any(bad):
        Y[bad] = _old_interpolate_to_boundary(space, eps, X[bad], Y[bad])
    return X, Y


def _old_scored_pairs(space, eps, rng, count, draws=None):
    """The one-shot sampler, then the scoring and top-8 choice that
    ``empirical_delta`` made of its whole ``X`` and ``Y``."""
    X, Y = _old_sample_feasible_pairs(space, eps, rng, count, draws=draws)
    values = 1.0 - 0.5 * batch_norm(space, X + Y)
    top = np.argsort(values, kind="stable")[:8]
    return X, values, top, Y[top]


def _assert_same_arrays(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


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
            violations.append({
                "p": space.p, "eps": eps, "delta": delta,
                "x": X[i].tolist(), "x_prime": Xp[i].tolist(),
                "functional": F[i].tolist(),
                "norm_x_prime": float(batch_norm(space, Xp[i][None])[0]),
                "pairing_diff": float(pairing[i]),
                "dist": float(dist[i]),
            })
        attempted += n
        kept += int(keep.sum())
        t_scale = verify._adapt(t_scale, keep.mean())
    return verify.VerificationReport(
        statement="lemma23", p=space.p, d=space.d, eps=eps, delta_used=delta,
        trials=attempted, kept=kept, violations=tuple(violations),
        rng_seed=verify._seed_int(rng_seed))


def _old_check_thm2_condition3(space, eps, trials, rng_seed):
    delta = verify.delta_from_constraint(space.p, eps)
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
        pairing_x = np.einsum("ij,ij->i", X, F)
        iv = np.abs(pairing_x) > 1.0 - delta
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
                "pairing_x": float(pairing_x[i]),
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
    """Stand-in generator whose draws have exact zero rows at the given
    positions of its stream of rows, however the draws are split."""

    def __init__(self, seed, zero_rows):
        self.rng = np.random.default_rng(seed)
        self.zero_rows = zero_rows
        self.drawn = 0

    def standard_normal(self, size=None, out=None):
        g = self.rng.standard_normal(size, out=out)
        rows = g.reshape(-1, g.shape[-1])
        pos = np.arange(self.drawn, self.drawn + len(rows))
        rows[np.isin(pos, self.zero_rows)] = 0.0
        self.drawn += len(rows)
        return g

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _streamed(space, rng, n):
    """The blocks of ``unit_blocks`` joined, checking that they follow
    ``row_blocks`` and share one buffer."""
    rows, buffers = [], set()
    blocks = list(row_blocks(n, space.d))
    for (blk, block), expected in zip(unit_blocks(space, rng, n), blocks,
                                      strict=True):
        assert blk == expected and len(block) == blk.stop - blk.start
        buffers.add(block.__array_interface__["data"][0])
        rows.append(block.copy())
    return np.concatenate(rows) if rows else np.empty((0, space.d)), buffers


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [2, 16, 64])
def test_unit_blocks_equal_unit_batch(p, d):
    space = SpaceSpec(p, d)
    for n in [0] + _sizes(d):
        new_rng, old_rng = np.random.default_rng(n), np.random.default_rng(n)
        rows, buffers = _streamed(space, new_rng, n)
        assert rows.tobytes() == _old_unit_batch(space, old_rng, n).tobytes()
        assert _same_stream(new_rng, old_rng)
        assert len(buffers) <= 1  # one reused block buffer


def test_unit_batch_redraws_zero_rows_as_one_shot():
    """A zero row is drawn again as the one-shot draw of its
    ``row_blocks`` block draws it, and comes out a unit row."""
    space = SpaceSpec(1.5, 16)
    n = 3 * _rows_per_block(16) + 7
    zero_rows = [0, 5, n // 2, n - 1]
    new = unit_batch(space, _ZeroRowsFirst(3, zero_rows), n)
    ref = _in_block_unit_batch(space, _ZeroRowsFirst(3, zero_rows), n)
    assert new.tobytes() == ref.tobytes()
    assert np.allclose(batch_norm(space, new[zero_rows]), 1.0)


@pytest.mark.parametrize("d", [2, 16, 64])
def test_unit_blocks_redraw_zero_rows_as_one_shot(d):
    """The blocks redraw a zero row as the one-shot draw of its block
    does: within that block, before the next block is drawn."""
    space = SpaceSpec(1.5, d)
    b = _rows_per_block(d)
    n = 3 * b + 7
    # zeros in the first block, in a later one, in the last row and in the
    # first row drawn again, which is then drawn a third time
    for zero_rows in ([0, 5, n // 2, n - 1], [b + 1, 2 * b, n], [n - 1]):
        rng = _ZeroRowsFirst(3, zero_rows)
        rows, _ = _streamed(space, rng, n)
        assert np.all(np.isfinite(rows))
        assert np.allclose(batch_norm(space, rows), 1.0)
        ref_rng, batch_rng = (_ZeroRowsFirst(3, zero_rows) for _ in range(2))
        ref = _in_block_unit_batch(space, ref_rng, n)
        assert rows.tobytes() == ref.tobytes()
        new = unit_batch(space, batch_rng, n)
        assert new.tobytes() == rows.tobytes()
        # all three end at the same point of the stream
        ends = [g.rng.random(4) for g in (rng, ref_rng, batch_rng)]
        assert all(np.array_equal(ends[0], end) for end in ends)
        # the blocks before the first zero row's block are a plain draw
        first = zero_rows[0] // b * b
        plain = _old_unit_batch(space, np.random.default_rng(3), n)
        assert rows[:first].tobytes() == plain[:first].tobytes()


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


def _pair_blocks(rows, width, X, Y):
    """``(blk, X[rows[blk]], Y[rows[blk]])`` from one ``gathered_blocks``
    walker per array."""
    for (blk, x), (_, y) in zip(gathered_blocks(rows, width, X),
                                gathered_blocks(rows, width, Y),
                                strict=True):
        yield blk, x, y


def _interpolate_to_boundary(space, eps, X, Y, rows):
    """``search._bisect`` of ``Y[rows]`` toward ``-X[rows]``, in place, one
    ``gathered_blocks`` block at a time with two reused work buffers: the
    sampler bisects the blocks of a draw, and a row's result must not
    depend on the rows bisected with it."""
    bufs = [block_buffer(len(rows), space.d) for _ in range(2)]
    for blk, x, y in _pair_blocks(rows, space.d, X, Y):
        Y[rows[blk]] = search._bisect(space, eps, x, y,
                                      *(buf[:len(x)] for buf in bufs))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [2, 16, 64])
def test_interpolate_to_boundary_equals_one_shot(p, d, monkeypatch):
    space = SpaceSpec(p, d)
    zero_norms = []

    def spy(space, rows, out=None):
        norms = batch_norm(space, rows, out=out)
        zero_norms.append(bool(np.any(norms == 0.0)))
        return norms

    for n in _sizes(d):
        X, Y = _boundary_inputs(space, n, seed=n)
        expected = _old_interpolate_to_boundary(space, 1.5, X, Y)
        new = Y.copy()
        with monkeypatch.context() as m:
            m.setattr(search, "batch_norm", spy)
            _interpolate_to_boundary(space, 1.5, X, new, np.arange(n))
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
    _interpolate_to_boundary(space, 1.9, X, Y, rows)
    assert np.array_equal(Y, expected)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [2, 64])
def test_too_close_over_any_rows_equals_one_shot(p, d):
    space = SpaceSpec(p, d)
    b = _rows_per_block(d)
    X, Y = _boundary_inputs(space, 4 * b + 9, seed=d)
    # a consecutive run read in place, then scattered rows gathered, in
    # blocks that cross each other's boundaries
    rows = np.concatenate([np.arange(3, b + 8), np.arange(b + 9, 4 * b, 3),
                           [4 * b + 8, 0]])
    buf = block_buffer(len(rows), d)

    def pair_norms(op):
        return np.concatenate([op_norms(space, op, x, y, buf)
                               for _, x, y in _pair_blocks(rows, d, X, Y)])

    for op in (np.subtract, np.add):
        expected = batch_norm(space, op(X[rows], Y[rows]))
        assert pair_norms(op).tobytes() == expected.tobytes()
    dist = pair_norms(np.subtract)
    for eps in (0.5, 1.5, 1.9):
        expected = batch_norm(space, X[rows] - Y[rows]) < eps
        assert np.array_equal(dist < eps, expected)


def test_gathered_blocks_reads_runs_in_place_and_gathers_the_rest():
    d = 64
    b = _rows_per_block(d)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4 * b + 9, d))
    # a consecutive block, then two scattered ones, then a short run
    rows = np.concatenate([np.arange(5, b + 5), np.arange(0, 4 * b, 2),
                           np.arange(4 * b + 2, 4 * b + 9)])
    in_place = [True, False, False, True]
    seen = set()
    # check each block before the next one overwrites its buffer
    walked = 0
    for blk, B in gathered_blocks(rows, d, X):
        run, walked = in_place[walked], walked + 1
        assert np.array_equal(B, X[rows[blk]])
        assert np.shares_memory(B, X) == run
        if not run:
            seen.add(B.__array_interface__["data"][0])
    assert walked == len(in_place)
    # every gathered block lands in the same buffer
    assert len(seen) == 1


@pytest.mark.parametrize("eps", [0.5, 1.5, 1.7, 1.9, 2.0])
@pytest.mark.parametrize("p,d", [(1.5, 16), (3.0, 64), (2.0, 2)])
def test_sample_feasible_pairs_equals_one_shot(p, d, eps):
    space = SpaceSpec(p, d)
    count = 3 * _rows_per_block(d) + 7 if d > 2 else 3001
    new_rng, old_rng = np.random.default_rng(9), np.random.default_rng(9)
    new = search.sample_feasible_pairs(space, eps, new_rng, count)
    _assert_same_arrays(new, _old_scored_pairs(space, eps, old_rng, count))
    assert len(new[2]) == search.KEEP_BEST
    assert _same_stream(new_rng, old_rng)


@pytest.mark.parametrize("eps", [0.7, 1.3, 1.7])
def test_sample_feasible_pairs_rejudges_only_resampled_rows(eps,
                                                            monkeypatch):
    space, count = SpaceSpec(1.5, 16), 13998
    draws = []
    blocks = search.unit_blocks

    def spy(space, rng, n):
        draws.append(n)
        return blocks(space, rng, n)

    monkeypatch.setattr(search, "unit_blocks", spy)
    for seed in range(3):
        draws.clear()
        old_draws = []
        new_rng, old_rng = (np.random.default_rng(seed) for _ in range(2))
        new = search.sample_feasible_pairs(space, eps, new_rng, count)
        old = _old_scored_pairs(space, eps, old_rng, count, draws=old_draws)
        _assert_same_arrays(new, old)
        assert _same_stream(new_rng, old_rng)
        # every row is judged once, then each round draws only the rows
        # still infeasible
        assert draws[:len(old_draws)] == old_draws
        assert old_draws[0] == count and min(old_draws) > 0
        # rows left after the last round: its draw is drawn again for the
        # bisection, as it always is at eps = 1.7
        replayed = draws[len(old_draws):]
        assert replayed in ([], old_draws[-1:])
        if eps == 1.7:
            assert replayed
            assert len(old_draws) == search.MAX_RESAMPLE_ROUNDS + 1
        else:
            assert min(old_draws) < count // 2


def test_sample_feasible_pairs_with_fewer_rows_than_kept():
    space = SpaceSpec(1.5, 16)
    for count in (1, 5, search.KEEP_BEST):
        new = search.sample_feasible_pairs(space, 1.0,
                                           np.random.default_rng(count),
                                           count)
        old = _old_scored_pairs(space, 1.0, np.random.default_rng(count),
                                count)
        _assert_same_arrays(new, old)
        assert len(new[2]) == count


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
    assert all(verify.reverify_violation(new.statement, rec)
               for rec in new.violations)


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
    assert all(verify.reverify_violation(new.statement, rec)
               for rec in new.violations)


def test_thm2_condition3_violation_records_equal_one_shot(monkeypatch):
    monkeypatch.setattr(verify, "delta_from_constraint", lambda *a: 0.9)
    space = SpaceSpec(1.5, REMARK45_D)
    new = verify.check_thm2_condition3(space, 0.5, 300, 2)
    assert len(new.violations) > _rows_per_block(REMARK45_D)
    _assert_same_report(new, _old_check_thm2_condition3(space, 0.5, 300, 2))
    assert all(verify.reverify_violation(new.statement, rec)
               for rec in new.violations)


@pytest.mark.parametrize("statement", sorted(verify.SAMPLERS))
def test_conclusion_norms_only_kept_rows(statement, monkeypatch):
    normed = []
    conclusion = verify._conclusion

    def spy(space, eps, x, xp, rows):
        holds, dist = conclusion(space, eps, x, xp, rows)
        normed.append(len(dist))
        return holds, dist

    monkeypatch.setattr(verify, "_conclusion", spy)
    report = verify._sample(statement, SpaceSpec(1.5, REMARK45_D), 0.5, 1500,
                            3, 4)
    assert sum(normed) == report.kept < report.trials


@pytest.mark.parametrize("p,d", [(1.5, 24), (3.0, 64), (2.0, 2)])
def test_conclusion_equals_one_shot_on_any_rows(p, d):
    space = SpaceSpec(p, d)
    b = _rows_per_block(d)
    X, Y = _boundary_inputs(space, 2 * b + 9, seed=d)
    for rows in (np.arange(3, b + 8), np.arange(1, 2 * b + 9, 3),
                 np.empty(0, dtype=np.intp)):
        for eps in (0.5, 1.9):
            holds, dist = verify._conclusion(space, eps, X, Y, rows)
            expected = batch_norm(space, X[rows] - Y[rows])
            assert dist.tobytes() == expected.tobytes()
            assert np.array_equal(holds, expected < eps)


@pytest.mark.parametrize("k", [2, 4])
def test_remark45_redraws_a_zero_functional(k):
    space, n = SpaceSpec(1.5, REMARK45_D), 50
    # X and U take the first 2n rows of the stream; row 2n + 1 is the
    # second random functional drawn
    rng = _ZeroRowsFirst(0, [2 * n + 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        blocks = [rows[:, 1:].copy() for _, _, _, rows in
                  verify._remark45_batch(space, rng, n, 0.1, 0.5, k)]
    functionals = np.concatenate(blocks)
    assert np.all(np.isfinite(functionals))
    assert np.allclose(batch_norm(space.dual, functionals), 1.0)


@pytest.mark.parametrize("k", [1, 4])
def test_remark45_blocks_reuse_their_buffers(k):
    space = SpaceSpec(1.5, 64)
    n = 3 * _rows_per_block(k * 64) + 5
    rng = np.random.default_rng(0)
    buffers = {block.__array_interface__["data"][0]
               for _, _, _, block in verify._remark45_batch(
                   space, rng, n, 0.1, 0.5, k)}
    assert len(buffers) == 1


def test_thm2_functionals_reuse_the_anchor_buffer():
    space = SpaceSpec(1.5, 64)
    n = 3 * _rows_per_block(64) + 5
    rng = np.random.default_rng(0)
    buffers = {f.__array_interface__["data"][0]
               for _, _, _, f in verify._thm2_batch(space, rng, n, 0.1, 0.5,
                                                    1)}
    assert len(buffers) == 1


# ------------------------------- working set -------------------------------

def test_interpolate_to_boundary_working_set_is_one_block(peak_bytes):
    """Beyond its inputs, the bisection holds a few block-sized arrays.

    The interpolant and the work buffer of its products, norms and
    ``x - cand``, plus, for rows that are not consecutive, the gathered
    ``x`` and ``y`` rows: at most four arrays of ``BLOCK_ELEMS`` entries,
    reused across blocks; six such arrays bound them with room for the
    O(rows) bisection brackets.
    """
    space = SpaceSpec(1.5, 64)
    b = _rows_per_block(64)
    bound = 6 * BLOCK_ELEMS * BYTES
    for step in (1, 2):  # rows read in place, then gathered
        peaks = []
        for n in (4 * b, 8 * b):
            X, Y = _boundary_inputs(space, step * n, seed=n)
            rows = np.arange(0, step * n, step)
            peaks.append(peak_bytes(lambda: _interpolate_to_boundary(
                space, 1.9, X, Y, rows)))
        assert max(peaks) < bound
        assert peaks[1] <= peaks[0] + 64 * 1024


def _cell_excess(monkeypatch, peak_bytes, check, d, arrays=2):
    """What a cell of ``check(n)`` holds beyond ``arrays`` (n, d) arrays and
    O(n) row vectors, at batches of n = 2048 and 4096 rows."""
    excess = []
    for n in (2048, 4096):
        monkeypatch.setattr(verify, "BATCH", n)
        peak = peak_bytes(lambda: check(n))
        excess.append(peak - arrays * n * d * BYTES - 32 * n * BYTES)
    return excess


def test_remark45_cell_working_set_is_bounded_by_blocks(monkeypatch,
                                                        peak_bytes):
    """A d=64, k=4 cell holds its batch's draws plus a few blocks.

    A batch of n rows keeps ``X`` and ``x'`` (n x d each) and O(n) row
    vectors; the previous batch is released before the next is drawn, so
    two (n, d) arrays are live, not four.  Everything else (the k
    functionals per row, their pairings, the norms' temporaries) lives in
    blocks of at most ``BLOCK_ELEMS`` entries.  What the cell holds beyond
    the two (n, d) arrays must stay within sixteen blocks and must not
    grow when the batch doubles; the one-shot cell held about 35 blocks
    above four such arrays at n = 2048 and 69 at n = 4096.
    """
    space = SpaceSpec(3.0, 64)
    excess = _cell_excess(
        monkeypatch, peak_bytes,
        lambda n: verify.check_remark45(space, 1.0, n // 2, 4, 0), space.d)
    assert max(excess) < 16 * BLOCK_ELEMS * BYTES
    assert excess[1] <= excess[0] + 64 * 1024


def test_lemma23_cell_working_set_is_bounded_by_blocks(monkeypatch,
                                                      peak_bytes):
    """The lemma23 cell of the same size: two (n, d) arrays, O(n) row
    vectors and at most sixteen blocks, not growing with the batch."""
    space = SpaceSpec(3.0, 64)
    excess = _cell_excess(
        monkeypatch, peak_bytes,
        lambda n: verify.check_lemma23(space, 1.0, n // 2, 0), space.d)
    assert max(excess) < 16 * BLOCK_ELEMS * BYTES
    assert excess[1] <= excess[0] + 64 * 1024


def test_thm2_condition3_cell_working_set_is_bounded_by_blocks(monkeypatch,
                                                              peak_bytes):
    """A thm2_condition3 cell holds its batch's two whole draws, ``X`` and
    ``U``, plus O(n) row vectors and at most four blocks: x' is built in
    ``U``'s block, and the anchor draw, the batch's last, is taken per
    block, the anchor and its functional built in its block, so no other
    array grows with the batch."""
    space = SpaceSpec(3.0, 64)
    excess = _cell_excess(
        monkeypatch, peak_bytes,
        lambda n: verify.check_thm2_condition3(space, 1.0, n // 2, 0),
        space.d)
    assert max(excess) < 4 * BLOCK_ELEMS * BYTES
    assert excess[1] <= excess[0] + 64 * 1024


@pytest.mark.parametrize("eps", [1.3, 1.9])
def test_sample_feasible_pairs_working_set_is_bounded_by_blocks(eps,
                                                               peak_bytes):
    """Beyond its whole draw ``X`` and O(count) row vectors, the sampler
    holds a few blocks: each draw of ``y`` rows comes one block at a time,
    and the rounds, the bisection and the scores work in reused block
    buffers.  What it holds beyond ``X`` and four float vectors must stay
    within eight blocks and must not grow when the count doubles; the
    whole-draw sampler held a second (count, d) array, ``Y``."""
    space = SpaceSpec(1.5, 16)
    b = _rows_per_block(16)
    # the first call's one-time allocations are not the sampler's
    search.sample_feasible_pairs(space, eps, np.random.default_rng(0), 100)
    excess = []
    for count in (4 * b, 8 * b):
        peak = peak_bytes(lambda: search.sample_feasible_pairs(
            space, eps, np.random.default_rng(0), count))
        excess.append(peak - count * space.d * BYTES - 4 * count * BYTES)
    assert max(excess) < 8 * BLOCK_ELEMS * BYTES
    assert excess[1] <= excess[0] + 64 * 1024
