"""The kernels the samplers share: random unit vectors and pair norms.

:func:`draw_units` is the one draw rule of random unit vectors: every
``standard_normal`` call of the package is in it.  :func:`unit_blocks`
draws a batch through it one :func:`spaces.row_blocks` block at a time,
:func:`unit_batch` is its whole-batch form, and :func:`op_norms` norms
``op(x, y)`` for one block of row pairs.  Only the sampling engines
(:mod:`uconvex.search`, :mod:`uconvex.modulus`, :mod:`uconvex.verify`)
import this module, so a process that only scans pairs never loads it;
``spaces.unit_batch`` names :func:`unit_batch` too.
"""

from __future__ import annotations

import numpy as np

from .spaces import SpaceSpec, batch_norm, block_buffer, row_blocks


def draw_units(space: SpaceSpec, rng: np.random.Generator, g: np.ndarray,
               powers: np.ndarray, out=None) -> np.ndarray:
    """The one draw rule: the rows along ``g``'s last axis as random unit rows.

    ``g``, of any leading shape, is filled by ``rng.standard_normal(out=)``
    and each row is divided by its p-norm, whose powers go to ``powers``;
    a row that is exactly zero is drawn again, in place, until none is
    left.  The unit rows go to ``out``, else to ``g``.  Full support on the
    sphere; uniform only for p = 2, which nothing downstream requires.
    """
    rng.standard_normal(out=g)
    norms = batch_norm(space, g, out=powers)
    bad = norms == 0.0
    while bad.any():
        g[bad] = rng.standard_normal((int(bad.sum()), g.shape[-1]))
        norms[bad] = batch_norm(space, g[bad])
        bad = norms == 0.0
    return np.divide(g, norms[..., None], out=g if out is None else out)


def unit_batch(space: SpaceSpec, rng: np.random.Generator,
               n: int) -> np.ndarray:
    """n random unit vectors as rows of an (n, d) array: the blocks of
    :func:`unit_blocks` drawn in place, so no temporary is as large as the
    batch."""
    g = np.empty((n, space.d))
    for _ in unit_blocks(space, rng, n, out=g):
        pass
    return g


def unit_blocks(space: SpaceSpec, rng: np.random.Generator, n: int,
                out=None):
    """The rows of :func:`unit_batch` as ``(blk, rows)`` per
    :func:`spaces.row_blocks` block.

    Each block is drawn by :func:`draw_units` into ``out[blk]`` or, without
    ``out``, into one reused block buffer that the next block overwrites;
    the powers go to a second reused buffer.  numpy fills a normal draw in
    order, so the blocks hold the numbers of one batch-wide draw up to the
    first row that is exactly zero, which is drawn again within its block.
    """
    buf = block_buffer(n, space.d) if out is None else None
    powers = block_buffer(n, space.d)
    for blk in row_blocks(n, space.d):
        g = buf[:blk.stop - blk.start] if out is None else out[blk]
        yield blk, draw_units(space, rng, g, powers[:len(g)])


def op_norms(space: SpaceSpec, op, x: np.ndarray, y: np.ndarray,
             buf: np.ndarray) -> np.ndarray:
    """``batch_norm(space, op(x, y))``, bit for bit, with ``op`` (a binary
    ufunc) and its powers written to the first ``len(x)`` rows of ``buf``."""
    vals = op(x, y, out=buf[:len(x)])
    return batch_norm(space, vals, out=vals)
