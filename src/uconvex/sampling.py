"""The kernels the samplers share: random unit vectors and row-pair norms.

:func:`unit_blocks` is the one draw rule of random unit vectors, one
:func:`spaces.row_blocks` block at a time, and :func:`unit_batch` its
whole-batch form; :func:`row_pair_norms` norms ``op(x, y)`` over an index
set of row pairs.  Only the sampling engines (:mod:`uconvex.search`,
:mod:`uconvex.modulus`, :mod:`uconvex.verify`) import this module, so a
process that only scans pairs never loads it; ``spaces.unit_batch``
names :func:`unit_batch` too.
"""

from __future__ import annotations

import numpy as np

from .spaces import (SpaceSpec, batch_norm, block_buffer, gathered_blocks,
                     row_blocks)


def unit_batch(space: SpaceSpec, rng: np.random.Generator,
               n: int) -> np.ndarray:
    """n random unit vectors as rows of an (n, d) array.

    Coordinates are sampled from a standard normal and each row is
    normalized in the p-norm; a row that is exactly zero is drawn again.
    This has full support on the sphere; it is uniform only for p = 2,
    which nothing downstream requires.

    The rows are :func:`unit_blocks` drawn in place, so no temporary is
    as large as the batch.
    """
    g = np.empty((n, space.d))
    for _ in unit_blocks(space, rng, n, out=g):
        pass
    return g


def unit_blocks(space: SpaceSpec, rng: np.random.Generator, n: int,
                out=None):
    """The one draw rule: the rows of :func:`unit_batch` as ``(blk, rows)``
    per :func:`spaces.row_blocks` block.

    Each block is drawn by ``rng.standard_normal(out=)`` into ``out[blk]``
    or, without ``out``, into one reused block buffer that the next block
    overwrites; numpy fills a normal draw in order, so the blocks hold the
    numbers of one batch-wide draw.  The powers of the norms go to a
    second reused buffer.  A row that is exactly zero is drawn again after
    the whole draw: at the first block with such a row the rest of the
    batch is drawn at once and its zero rows drawn again until none is
    left, so the generator ends in the state of the one-shot draw once
    every block is taken.
    """
    d = space.d
    buf = block_buffer(n, d) if out is None else None
    powers = block_buffer(n, d)
    blocks = row_blocks(n, d)
    for blk in blocks:
        g = buf[:blk.stop - blk.start] if out is None else out[blk]
        rng.standard_normal(out=g)
        norms = batch_norm(space, g, out=powers[:len(g)])
        if not norms.all():
            break
        g /= norms[:, None]
        yield blk, g
    else:
        return
    start = blk.start
    rest = out[start:] if out is not None else np.empty((n - start, d))
    rest[:len(g)] = g
    rng.standard_normal(out=rest[len(g):])
    norms = np.concatenate([norms, batch_norm(space, rest[len(g):])])
    bad = norms == 0.0
    while np.any(bad):
        rest[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = batch_norm(space, rest[bad])
        bad = norms == 0.0
    rest /= norms[:, None]
    for blk in (blk, *blocks):
        yield blk, rest[blk.start - start:blk.stop - start]


def row_pair_norms(space: SpaceSpec, op, X: np.ndarray, Y: np.ndarray,
                   rows: np.ndarray) -> np.ndarray:
    """``batch_norm(space, op(X[rows], Y[rows]))``, bit for bit, one
    :func:`spaces.gathered_blocks` block at a time: each block's ``op`` (a
    binary ufunc) and its powers go to the walker's gathered copy of its
    ``X`` rows or, for a block read in place, to one reused block buffer."""
    norms = np.empty(len(rows))
    buf = None
    for blk, x, y in gathered_blocks(rows, space.d, X, Y):
        out = x
        if np.may_share_memory(x, X):  # read in place: not ours to write
            if buf is None:
                buf = block_buffer(len(rows), space.d)
            out = buf
        norms[blk] = op_norms(space, op, x, y, out)
    return norms


def op_norms(space: SpaceSpec, op, x: np.ndarray, y: np.ndarray,
             buf: np.ndarray) -> np.ndarray:
    """``batch_norm(space, op(x, y))``, bit for bit, with ``op`` (a binary
    ufunc) and its powers written to the first ``len(x)`` rows of ``buf``."""
    vals = op(x, y, out=buf[:len(x)])
    return batch_norm(space, vals, out=vals)
