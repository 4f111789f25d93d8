"""Finite-dimensional l^p spaces: norms, pairwise distances, duality
mapping, row blocks; the sphere sampling of :mod:`uconvex.sampling` is
named here too, as ``unit_batch``.

Vectors and dual functionals are plain numpy arrays of length ``d``, and
a family of vectors is one (n, d) array; a :class:`SpaceSpec` fixes the
exponent and dimension and every operation takes the space explicitly.
All operations are pure; randomness always enters through an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PreconditionError, ZeroVectorError

# Exponents that numpy's ``**`` maps to sqrt, a copy or square; they cost
# the same on zeros as on anything else.
_FAST_EXPONENTS = (0.5, 1.0, 2.0)

# Fewest entries for which keeping zeros off ``pow`` can pay: the mask
# costs about as much as 128 zero lanes (numpy 2.4, x86-64 AVX-512).
_MASK_MIN_SIZE = 128

# Most float64 entries per array in one block of a row-blocked loop
# (256 KiB), so the block's temporaries stay in a core's L2 cache.
BLOCK_ELEMS = 1 << 15


@dataclass(frozen=True)
class SpaceSpec:
    """A finite-dimensional l^p space with exponent ``p`` and dimension ``d``.

    Only ``1 < p < inf`` is accepted: outside that range the space is not
    uniformly convex and every downstream guarantee would silently break.
    A bad p or d raises ``PreconditionError``.
    """

    p: float
    d: int

    def __post_init__(self):
        p, d = _real(self.p), _real(self.d)
        if not math.isfinite(p) or p <= 1.0:
            raise PreconditionError(f"exponent p must satisfy 1 < p < inf, got {self.p!r}")
        if not (d >= 1 and d.is_integer()):
            raise PreconditionError(f"dimension d must be a positive integer, got {self.d!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", int(d))

    @property
    def dual(self) -> "SpaceSpec":
        """Dual space l^q_d (1/p + 1/q = 1), where functionals take norms."""
        return SpaceSpec(self.p / (self.p - 1.0), self.d)

    def __str__(self) -> str:
        return f"l^{self.p:g}_{self.d}"


def _real(value) -> float:
    """``float(value)``, or NaN for a value that is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def as_rows(space: SpaceSpec, seq) -> np.ndarray:
    """The vectors of ``seq`` as the rows of an (n, d) float array.

    The one shape-and-finiteness check of the package.  An empty ``seq``
    has shape (0, d); ragged rows, a wrong width or a flat vector raise
    ``DimensionMismatchError``.  A NaN or infinite coordinate raises
    ``PreconditionError``: every norm, distance and pairing involving it is
    not a number, and a NaN compares false against every threshold, so
    checks built on it would pass.  Finiteness is checked one
    :func:`row_blocks` block at a time, so the check allocates no mask of
    n·d entries.
    """
    try:
        rows = (np.asarray(seq, dtype=float) if len(seq)
                else np.empty((0, space.d)))
    except (TypeError, ValueError):
        raise DimensionMismatchError("ragged or non-numeric rows") from None
    if rows.ndim != 2 or rows.shape[1] != space.d:
        raise DimensionMismatchError(
            f"expected rows of {space.d} coordinates, got shape {rows.shape}")
    # an array within one block is its own only block
    blocks = ((rows,) if rows.size <= BLOCK_ELEMS
              else (rows[blk] for blk in row_blocks(len(rows), space.d)))
    for block in blocks:
        if np.count_nonzero(np.isfinite(block)) < block.size:
            raise PreconditionError("vector has a non-finite coordinate")
    return rows


def as_vector(space: SpaceSpec, coords) -> np.ndarray:
    """``coords`` as a float vector of length d: :func:`as_rows` of one row."""
    return as_rows(space, [coords])[0]


def norm(space: SpaceSpec, v: np.ndarray) -> float:
    """p-norm ``(sum |v_i|^p)^(1/p)``; zero iff ``v`` is the zero vector.

    The norm of ``v`` as the one row of :func:`_row_norms`.
    """
    return float(_row_norms(space, as_vector(space, v)[None])[0])


def normalize(space: SpaceSpec, v: np.ndarray) -> np.ndarray:
    """Return ``v / ||v||``, a unit vector parallel to ``v``.

    ``v`` is coerced and checked once, then normed as :func:`norm` does.
    """
    v = as_vector(space, v)
    n = _row_norms(space, v[None])[0]
    if n == 0.0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return v / n


def norming_functional(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """Duality map: the unit dual functional with ``<x, f> = ||x||``.

    A functional is a plain array ``f`` acting by ``<v, f> = sum_i f_i v_i``.

    Closed form in l^p: ``f_i = sign(x_i) |x_i|^(p-1) / ||x||^(p-1)`` with
    the convention sign(0) = 0.  The result has dual q-norm exactly 1 and
    pairs with ``x`` to ``||x||``, both within 1e-12.
    """
    x = as_vector(space, x)
    n = norm(space, x)
    if n == 0.0:
        raise ZeroVectorError("the zero vector has no norming functional")
    return duality_map(space, x) / n ** (space.p - 1.0)


def duality_map(space: SpaceSpec, X: np.ndarray, out=None) -> np.ndarray:
    """``sign(X) * |X|^(p-1)`` elementwise: unnormalized norming functionals.

    For a unit row ``x`` the result is its norming functional; in general
    it pairs with ``x`` to ``||x||^p`` and has dual norm ``||x||^(p-1)``.
    The power comes from :func:`_pow_abs`.  The result goes to ``out``,
    which may be ``X`` itself, or to a new array.
    """
    sign = np.sign(X)
    powers = _pow_abs(np.abs(X, out=out), space.p - 1.0)
    return np.multiply(sign, powers, out=powers)


def row_blocks(n: int, width: int):
    """Consecutive slices covering ``range(n)``: the row blocks of a loop.

    Each block has at most ``BLOCK_ELEMS // width`` rows (at least one),
    so an array with ``width`` entries per row stays within
    :data:`BLOCK_ELEMS` on every block.
    """
    step = max(1, BLOCK_ELEMS // max(1, width))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def block_buffer(n: int, width: int) -> np.ndarray:
    """An empty float array for the largest :func:`row_blocks` block of
    ``n`` rows of ``width`` entries: a loop's reused block buffer."""
    first = next(row_blocks(n, width), slice(0, 0))
    return np.empty((first.stop, width))


def gathered_blocks(rows: np.ndarray, width: int, A: np.ndarray):
    """``(blk, A[rows[blk]])`` per :func:`row_blocks` block of the index
    array ``rows``, whose entries are in range.

    A block whose rows lie consecutively is read in place, as a view; any
    other is gathered into one reused block buffer, which the next such
    block overwrites.
    """
    buf = None
    for blk in row_blocks(len(rows), width):
        r = rows[blk]
        if np.all(np.diff(r) == 1):
            yield blk, A[r[0]:r[-1] + 1]
            continue
        if buf is None:
            buf = block_buffer(len(rows), width)
        # the rows are in range; mode "raise" would copy out
        yield blk, np.take(A, r, axis=0, out=buf[:len(r)], mode="clip")


def batch_norm(space: SpaceSpec, rows: np.ndarray, out=None) -> np.ndarray:
    """p-norms along the last axis of ``rows``; p-th powers go to ``out``.

    Accepts lists and integer arrays.  The numpy array root of
    :func:`_power_sums`, which writes the powers: ``out`` may be ``rows``
    itself, and the norms have the same bits either way; without it
    ``rows`` is left unmodified.
    """
    return _power_sums(space, rows, out=out) ** (1.0 / space.p)


def pair_tiles(space: SpaceSpec, arr: np.ndarray, x=None, rows=None):
    """The one pairwise kernel: the values of the pairs i < j, tile by tile.

    The sequence is ``a_0, a_1, ...``, the rows of ``arr`` or, with
    ``rows``, the rows ``arr[rows[0]], arr[rows[1]], ...``; i and j are
    positions in it.  The positions j are walked in the
    :func:`gathered_blocks` tiles of the rows of ``arr`` (read in place
    when ``rows`` is None).  Every row i below the tile's last position reads
    the tile, and ``(i, j, values)`` is yielded, ``values[r]`` holding the
    pairs (i + r, j), (i + r, j + 1), ... to the tile's end: the rows
    before the tile share j, its first position, and come in groups of
    about n values; the rows inside it come one by one, j = i + 1.  With
    ``x`` None ``values[r]`` holds ``||a_j - a_i||``.  Else one
    ``D = a_j - a_i`` per pair gives the two rows ``values[r, 0]``, of
    ``||x + D||``, and ``values[r, 1]``, of ``||x - D||``: the values of
    ``x - (a_i - a_j)`` and ``x - (a_j - a_i)``, since ``fl(a_i - a_j) =
    -fl(a_j - a_i)``, ``y - (-z) = y + z`` and the square or ``abs`` drops
    a zero's sign; x is applied only on the smallest column slice that
    holds its nonzeros, as off it both have the powers ``|D|^p``.  Every
    value is the :func:`batch_norm` of its difference bit for bit: the
    same ufuncs on the same values over a row of length d.  Each
    ``values`` is new; the difference buffer, the buffer of ``x - D`` on
    the slice and the tile buffer (at most :data:`BLOCK_ELEMS` entries
    each) are reused, so the kernel allocates no array of n·d entries.
    """
    arr = np.asarray(arr, dtype=float)
    idx = np.arange(len(arr))
    if rows is not None:  # indexing checks that the rows are in range
        idx = idx[np.asarray(rows, dtype=np.intp)]
    pos, d = idx.tolist(), space.d
    buf = block_buffer(len(idx), d)
    root = 1.0 / space.p
    if x is not None:
        x = np.asarray(x, dtype=float)
        nz = np.flatnonzero(x)
        cols = slice(nz[0], nz[-1] + 1) if nz.size else slice(0, 0)
        xs, tbuf = x[cols], np.empty((len(buf), cols.stop - cols.start))
    for blk, tile in gathered_blocks(idx, d, arr):
        # the rows before the tile in groups of about n values, then the
        # rows inside it one by one
        firsts = [*range(0, blk.start, max(1, len(idx) // len(tile))),
                  *range(blk.start, blk.stop)]
        for i0, i1 in zip(firsts, firsts[1:]):
            j = max(blk.start, i0 + 1)
            values = np.empty((i1 - i0, 1 if x is None else 2, blk.stop - j))
            for row, out in zip(pos[i0:i1], values):
                diff = np.subtract(tile[j - blk.start:], arr[row],
                                   out=buf[:blk.stop - j])
                if x is not None:
                    sup, t = diff[:, cols], tbuf[:len(diff)]
                    np.subtract(xs, sup, out=t)  # x - D to t, x + D over D
                    np.add(xs, sup, out=sup)
                np.add.reduce(_powers(space, diff, out=diff), axis=-1,
                              out=out[0])
                if x is not None:
                    _powers(space, t, out=sup)  # |x - D|^p into the slice
                    np.add.reduce(diff, axis=-1, out=out[1])
            values **= root
            yield i0, j, values[:, 0] if x is None else values


def _row_norms(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """p-norms of the rows of a 2-D array: the norm under :func:`norm`.

    The root of each row's :func:`_power_sums` is taken by
    ``np.float_power``, a loop of libm's ``pow`` that equals ``math.pow``
    bit for bit, because numpy's array ``pow`` differs from it in the last
    bit on some inputs; so a batch of rows norms each row exactly as
    :func:`norm` norms it alone.
    """
    return np.float_power(_power_sums(space, rows), 1.0 / space.p)


def _power_sums(space: SpaceSpec, a, out=None):
    """``sum |a_i|^p`` over the last axis of ``a``; p-th powers go to ``out``.

    The one p-th-power sum under every norm; the norms differ only in how
    they take the root.  At p = 2 it squares the signed entries in one
    pass: ``square(x)`` equals ``square(|x|)`` bit for bit, -0.0, inf and
    overflow included, so an ``abs`` pass would change nothing.  Other
    exponents take ``abs`` and then :func:`_pow_abs`.  ``out`` may be ``a``
    itself; without it the powers go to a new float array and ``a`` is
    left unmodified.
    """
    return np.add.reduce(_powers(space, a, out=out), axis=-1)


def _powers(space: SpaceSpec, a, out=None):
    """The p-th powers that :func:`_power_sums` adds up, written to ``out``."""
    if space.p == 2.0:
        return np.square(a, out=out, dtype=float)
    return _pow_abs(np.abs(a, out=out, dtype=float), space.p)


def _pow_abs(buf: np.ndarray, e: float) -> np.ndarray:
    """Raise ``buf``, which holds absolute values, to the power ``e`` in place.

    The one p-th-power primitive of the package.  numpy's SIMD ``pow``
    with a general exponent takes a slow path on zero lanes, several times
    the cost of a nonzero one.  When the first row of ``buf`` (an O(d)
    probe) has an exact zero, only the nonzero entries are raised; the
    zeros stay ``+0.0``, which is ``pow(+0, e)`` for ``e > 0``, and a lane's
    ``pow`` does not depend on its neighbours, so both paths give the same
    bits.  Buffers smaller than :data:`_MASK_MIN_SIZE`, dense first rows
    and the exponents of :data:`_FAST_EXPONENTS` take the plain ``**=``:
    masking costs more than it saves there.
    """
    if (buf.size >= _MASK_MIN_SIZE and e not in _FAST_EXPONENTS
            and np.count_nonzero(buf[(0,) * (buf.ndim - 1)]) < buf.shape[-1]):
        np.power(buf, e, out=buf, where=buf != 0.0)
    else:
        buf **= e
    return buf


def __getattr__(name):
    """``unit_batch``, the whole-batch draw of :mod:`uconvex.sampling`,
    which loads on first use: a process that draws nothing, such as a
    pair scan, never loads the draw code."""
    if name == "unit_batch":
        from .sampling import unit_batch
        return unit_batch
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
