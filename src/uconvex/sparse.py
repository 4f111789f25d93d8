"""The support path of the pairwise kernel :func:`spaces.pair_tiles`.

When each row has at most k nonzeros, 2k plus x's count at most d / 8
(the unit basis, the shifted basis), a pair's p-th-power sum is formed on
the columns where a row or x is nonzero, as off them each power is +0:
O(k) entries per pair, not O(d).  It is kept where it is the dense sum
bit for bit: at most two nonzero powers (adding +0 is exact) or integer
powers summing to at most 2^52 (each partial sum is exact).  Every
other pair is summed over all d columns by the dense arithmetic.
"""

from __future__ import annotations

import numpy as np

from .spaces import (BLOCK_ELEMS, SpaceSpec, _power_sums, _powers,
                     gathered_blocks, row_blocks)


def support_form(space: SpaceSpec, arr, idx, x):
    """``(cols, xcols)`` for the support path of the m >= 2 rows
    ``arr[idx]``, or None for the dense path.

    One pass, a :func:`spaces.gathered_blocks` block at a time, finds each
    row's nonzero columns: ``cols`` holds them as a (k, m) array, a
    shorter row padded with a column where it is zero, and ``xcols`` holds
    x's.  The path is taken when 2k plus x's count is at most d / 8 and at
    least half of a probe of up to 64 pairs (p, p + 1) have exact sums;
    Theorem 3's outputs fail the probe.
    """
    xcols = np.flatnonzero(x) if x is not None else np.empty(0, np.intp)
    most = (space.d // 8 - len(xcols)) // 2
    found, pads = [], []
    for blk, block in gathered_blocks(idx, space.d, arr):
        if np.count_nonzero(block) > most * len(block):
            return None
        r, c = np.nonzero(block)
        found.append((r + blk.start, c))
        pads.append(np.argmin(block != 0.0, axis=1))
    r, c = (np.concatenate(a) for a in zip(*found))
    counts = np.bincount(r, minlength=len(idx))
    if counts.max() > most:
        return None
    cols = np.repeat(np.concatenate(pads)[None], max(1, counts.max()), axis=0)
    cols[np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts),
         r] = c
    probe = np.arange(min(len(idx) - 1, 64))
    _, exact = _support_sums(space, arr, idx, cols, x, xcols, probe,
                             probe + 1)
    return (cols, xcols) if 2 * np.count_nonzero(exact) >= len(exact) else None


def support_tiles(space: SpaceSpec, arr, idx, x, cols, xcols):
    """The tiles of :func:`spaces.pair_tiles` on the support path, one row
    each, from row-major chunks of pairs whose (w, B) arrays hold at most
    ``BLOCK_ELEMS // 8`` entries, w = 2k plus x's count.  A pair whose sum
    is not exact is summed over all d columns, as the dense path sums it."""
    size = max(1, BLOCK_ELEMS // (8 * (2 * len(cols) + len(xcols))))
    for runs in _pair_runs(len(idx), size):
        i, j, stop = (np.array(v) for v in zip(*runs))
        lens = stop - j
        starts = np.cumsum(lens) - lens
        I = np.repeat(i, lens)
        J = np.arange(len(I)) + np.repeat(j - starts, lens)
        sums, exact = _support_sums(space, arr, idx, cols, x, xcols, I, J)
        bad = np.flatnonzero(~exact)
        for blk in row_blocks(len(bad), space.d):
            b = bad[blk]
            D = arr[idx[J[b]]] - arr[idx[I[b]]]
            # x ± D on all d columns: off x's nonzeros it has D's powers
            sums[:, b] = ([_power_sums(space, D, out=D)] if x is None else
                          [_power_sums(space, x + D),
                           _power_sums(space, np.subtract(x, D, out=D))])
        sums **= 1.0 / space.p
        for (row, first, _), s, n in zip(runs, starts, lens):
            yield row, first, (sums[0, s:s + n] if x is None
                               else sums[:, s:s + n])


def _support_sums(space: SpaceSpec, arr, idx, cols, x, xcols, I, J):
    """p-th-power sums of the pairs (I[b], J[b]) of positions, (1, B) or
    with x (2, B), and whether each pair's are exact.

    Column b of the (w, B) arrays lists row I[b]'s columns, row J[b]'s and
    x's; a column counts in the first list whose owner is nonzero there,
    so each counts once and a pad never.  A sum is exact, the dense one
    bit for bit, when at most two powers are nonzero or all are integers
    summing to at most 2^52.
    """
    k = len(cols)
    C = np.concatenate((cols[:, I], cols[:, J], np.broadcast_to(
        xcols[:, None], (len(xcols), len(I)))))
    a_i = arr[idx[I], C]
    D = arr[idx[J], C]
    nz_i, nz_j = a_i != 0.0, D != 0.0
    drop = ~nz_i  # in i's list, its pads
    drop[k:] = nz_i[k:] | ~nz_j[k:]  # in j's, i's columns and j's pads
    drop[2 * k:] = nz_i[2 * k:] | nz_j[2 * k:]  # in x's, either row's
    np.subtract(D, a_i, out=D)
    D[drop] = 0.0
    terms = (D,)
    if x is not None:
        xv = x[C]
        xv[drop] = 0.0
        terms = (np.add(xv, D, out=a_i), np.subtract(xv, D, out=xv))
    sums = np.empty((len(terms), len(I)))
    exact = np.ones(len(I), dtype=bool)
    for s, t in zip(sums, terms):
        np.add.reduce(_powers(space, t, out=t), axis=0, out=s)
        if len(t) > 2:  # minimum(a, b) == a is a <= b with loaded ufuncs
            few = np.add.reduce(np.sign(t), axis=0)
            whole = np.all(np.rint(t) == t, axis=0)
            exact &= ((np.minimum(few, 2.0) == few)
                      | whole & (np.minimum(s, 2.0 ** 52) == s))
    return sums, exact


def _pair_runs(m: int, size: int):
    """The pairs i < j of ``m`` positions in row-major order, in chunks of
    at most ``size`` pairs, each a list of runs ``(i, j, stop)``: the
    pairs (i, j), ..., (i, stop - 1)."""
    runs, room = [], size
    for i in range(m - 1):
        j = i + 1
        while j < m:
            stop = min(m, j + room)
            runs.append((i, j, stop))
            room, j = room - (stop - j), stop
            if not room:
                yield runs
                runs, room = [], size
    if runs:
        yield runs
