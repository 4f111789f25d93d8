"""The tiled pairwise kernel against a copy of its per-row form.

``spaces.pair_tiles(space, arr, x, rows)`` walks the pairs (i, j), i < j,
by column tiles of positions j: one difference per unordered pair, with
``x`` applied only on the column slice that holds its nonzeros.  Put
together per row, its tiles must equal, bit for bit, the upper-triangle
row ``M[i, i+1:]`` of the matrix ``M`` of the per-row kernel it replaced
(copied below as ``_old_pair_norms``), which formed ``x - (a_i - a_j)``
in full for every ordered pair, and with ``x`` also the column
``M[i+1:, i]``, across tile boundaries and for any index set ``rows``;
and its working set must stay within a few block-sized buffers.
"""

import numpy as np
import pytest

from uconvex.sequences import theorem1_extract
from uconvex.spaces import BLOCK_ELEMS, SpaceSpec, _power_sums, pair_tiles

BYTES = 8  # float64


def _old_pair_norms(space, arr, x=None):
    """Row i of the old kernel's matrix ``M``: ``M[i, i+1:]`` and, with
    ``x``, the pair of it and ``M[i+1:, i]``.  Only these entries are
    built, each as the old kernel built it: ``x - (a_i - a_j)`` formed in
    full for the ordered pair (i, j)."""
    arr = np.asarray(arr, dtype=float)
    root = 1.0 / space.p
    out = []
    for i in range(len(arr)):
        if x is None:
            rows = arr[i + 1:] - arr[i]
            out.append(_power_sums(space, rows, out=rows) ** root)
            continue
        pair = []
        for rows in (arr[i] - arr[i + 1:], arr[i + 1:] - arr[i]):
            np.subtract(x, rows, out=rows)
            pair.append(_power_sums(space, rows, out=rows) ** root)
        out.append(tuple(pair))
    return out


def _tile_rows(space, arr, x=None, rows=None):
    """The tiles of :func:`pair_tiles` put together per row, as the oracle
    gives them: row i holds the values of the pairs (i, j), j > i, and
    with ``x`` is the pair of its ``||x + D||`` and ``||x - D||`` rows.
    Row i's tiles must cover j = i + 1, ..., m - 1 in order, once each."""
    m = len(arr) if rows is None else len(rows)
    parts = [[] for _ in range(m)]
    for i, j, values in pair_tiles(space, arr, x, rows):
        for r, row in enumerate(values, start=i):
            assert j == r + 1 + sum(v.shape[-1] for v in parts[r])
            parts[r].append(row)
    empty = np.empty((0,) if x is None else (2, 0))
    out = [np.concatenate(p, axis=-1) if p else empty for p in parts]
    assert all(r.shape[-1] == m - i - 1 for i, r in enumerate(out))
    return out if x is None else [tuple(r) for r in out]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64),
        np.ascontiguousarray(b).view(np.int64))


def _rows_same_bits(got, want):
    """The rows (with ``x``, the pairs of rows) are equal bit for bit."""
    return len(got) == len(want) and all(
        _same_bits(np.asarray(g), np.asarray(w)) for g, w in zip(got, want))


def _unit(d, k, value=1.0):
    x = np.zeros(d)
    x[k] = value
    return x


def _negative_zeros(d):
    x = np.full(d, -0.0)
    x[d // 2] = 0.75
    return x


def _far_pair(d):
    x = _unit(d, 0, 0.6)
    x[d - 1] -= 0.8
    return x


X_KINDS = {
    "e_0": lambda d, rng: _unit(d, 0),
    "e_last": lambda d, rng: _unit(d, d - 1),
    "e_interior": lambda d, rng: _unit(d, d // 2, -1.0),
    "far_pair": lambda d, rng: _far_pair(d),
    "dense": lambda d, rng: rng.standard_normal(d),
    "zero": lambda d, rng: np.zeros(d),
    "negative_zeros": lambda d, rng: _negative_zeros(d),
}


def _shifted(p, n, d):
    seq = np.eye(n, d, k=1)
    seq[:, 0] = 1.0
    return seq / 2.0 ** (1.0 / p)


def _repeated(rng, n, d):
    seq = rng.standard_normal((n, d))
    seq[n // 2:] = seq[:n - n // 2]
    return seq


SEQUENCES = {
    "basis": lambda p, n, d, rng: np.eye(d)[np.arange(n) % d],
    "shifted_basis": lambda p, n, d, rng: _shifted(p, n, d),
    "dense": lambda p, n, d, rng: rng.standard_normal((n, d)),
    "repeated_rows": lambda p, n, d, rng: _repeated(rng, n, d),
}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
@pytest.mark.parametrize("x_kind", sorted(X_KINDS))
@pytest.mark.parametrize("seq_kind", sorted(SEQUENCES))
def test_pair_norms_equal_per_row_kernel_bit_for_bit(p, x_kind, seq_kind):
    rng = np.random.default_rng(17)
    for d in (1, 2, 16, 64):
        space = SpaceSpec(p, d)
        x = X_KINDS[x_kind](d, rng)
        for n in (1, 2, 3, 40):
            arr = SEQUENCES[seq_kind](p, n, d, rng)
            assert _rows_same_bits(_tile_rows(space, arr, x),
                                   _old_pair_norms(space, arr, x)), (d, n)
            assert _rows_same_bits(_tile_rows(space, arr),
                                   _old_pair_norms(space, arr)), (d, n)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("seq_kind", sorted(SEQUENCES))
@pytest.mark.parametrize("d, n", [(64, 600), (400, 100)])
def test_pair_norms_equal_per_row_kernel_across_blocks(d, n, seq_kind, p):
    """Tiles of 512 and 81 positions: every row below the last tile meets
    two tiles, each pair once."""
    assert n - 1 > BLOCK_ELEMS // d
    rng = np.random.default_rng(23)
    space = SpaceSpec(p, d)
    arr = SEQUENCES[seq_kind](p, n, d, rng)
    assert _rows_same_bits(_tile_rows(space, arr),
                           _old_pair_norms(space, arr))
    for x_kind in sorted(X_KINDS):
        x = X_KINDS[x_kind](d, rng)
        assert _rows_same_bits(_tile_rows(space, arr, x),
                               _old_pair_norms(space, arr, x)), x_kind


ROWS = {
    # tiles [0, 81) and [81, 140): both read in place
    "consecutive": lambda n: range(30, 170),
    # every tile gathered; a tuple, as Theorem 1 passes its selection
    "every_other": lambda n: tuple(range(0, n, 2)),
    "permuted": lambda n: np.random.default_rng(2).permutation(n)[:120],
    # the first tile in place, the second gathered
    "consecutive_then_every_other": lambda n: [*range(81), *range(82, n, 2)],
    "single": lambda n: [n // 2],
}


@pytest.mark.parametrize("rows_kind", sorted(ROWS))
def test_pair_tiles_on_rows_equal_per_row_kernel_of_those_rows(rows_kind):
    """``rows`` picks the sequence ``arr[rows]``: its tiles equal the old
    kernel on the copied rows bit for bit, whether a tile is read in
    place or gathered."""
    d, n = 400, 200
    space = SpaceSpec(3.0, d)
    rng = np.random.default_rng(29)
    arr = rng.standard_normal((n, d))
    rows = ROWS[rows_kind](n)
    picked = arr[list(rows)]
    assert _rows_same_bits(_tile_rows(space, arr, rows=rows),
                           _old_pair_norms(space, picked))
    for x_kind in ("dense", "e_interior", "zero"):
        x = X_KINDS[x_kind](d, rng)
        assert _rows_same_bits(_tile_rows(space, arr, x, rows),
                               _old_pair_norms(space, picked, x)), x_kind


def test_pair_norms_accept_list_inputs_and_no_rows():
    space = SpaceSpec(3.0, 4)
    arr = np.random.default_rng(3).standard_normal((5, 4))
    x = [0.0, -0.5, 0.25, 0.0]
    assert _rows_same_bits(_tile_rows(space, arr.tolist(), x),
                           _old_pair_norms(space, arr, np.array(x)))
    assert _rows_same_bits(_tile_rows(space, arr.tolist(), x, [4, 0, 2]),
                           _old_pair_norms(space, arr[[4, 0, 2]],
                                           np.array(x)))
    assert list(pair_tiles(space, np.zeros((0, 4)), x)) == []
    assert list(pair_tiles(space, arr, x, [])) == []


def _min_of_tiles(tiles):
    return min(values.min() for _, _, values in tiles)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("x_kind", ["e_interior", "far_pair", "dense"])
def test_pair_norms_working_set_is_result_and_two_buffers(p, x_kind,
                                                         peak_bytes):
    """With ``x``: one tile's difference buffer of ``BLOCK_ELEMS // d``
    rows and the buffer of ``x - D`` on the slice for those rows, plus
    O(n) values and, at p != 2, the boolean zero mask of
    :func:`spaces._pow_abs` over the tile (one byte per entry); no n x n
    term, as the values are read one tile row at a time, and no n x d
    term."""
    n, d = 300, 200
    space = SpaceSpec(p, d)
    rng = np.random.default_rng(9)
    arr = np.eye(d)[np.arange(n) % d]
    x = X_KINDS[x_kind](d, rng)
    nz = np.flatnonzero(x)
    w = nz[-1] + 1 - nz[0]
    rows = BLOCK_ELEMS // d
    peak = peak_bytes(lambda: _min_of_tiles(pair_tiles(space, arr, x)))
    assert peak <= BYTES * rows * (d + w) + rows * d + 64 * 1024


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("x_kind", [None, "e_interior", "dense"])
def test_pair_rows_working_set_is_two_blocks(p, x_kind, peak_bytes):
    """n = 1000 vectors of l^p_400: the (n, d) buffer alone would be
    3.2 MB; the kernel holds at most two ``BLOCK_ELEMS`` float buffers,
    the tile's zero mask at p != 2, O(n) values and numpy's iterator
    buffer (``np.getbufsize()`` entries), which the broadcast ``a_j - a_i``
    takes whatever the sizes.  Without ``rows`` every tile is read in
    place, so no tile buffer is allocated."""
    n, d = 1000, 400
    space = SpaceSpec(p, d)
    rng = np.random.default_rng(11)
    arr = rng.standard_normal((n, d))
    x = None if x_kind is None else X_KINDS[x_kind](d, rng)
    peak = peak_bytes(lambda: _min_of_tiles(pair_tiles(space, arr, x)))
    assert peak <= (2 * BYTES * BLOCK_ELEMS + BLOCK_ELEMS
                    + BYTES * np.getbufsize() + 64 * n)


def _three_blocks(n):
    """The bound of a Theorem 1 run on n vectors: the difference, ``x - D``
    and gathered tile buffers, the tile's zero mask, numpy's iterator
    buffer and O(n) values (the functional values, their sort, the
    selection)."""
    return (3 * BYTES * BLOCK_ELEMS + BLOCK_ELEMS + BYTES * np.getbufsize()
            + 128 * n)


def test_theorem1_extract_working_set_has_no_n_squared_term(peak_bytes):
    """Theorem 1 on the l^2_400 basis with x = e_0 selects e_1, ..., e_399,
    which lie consecutively: its separation and certificate scans read
    the tiles in place, so no copy of the 399 selected rows (1.3 MB) and
    no n x n matrix is formed."""
    n = d = 400
    space = SpaceSpec(2.0, d)
    basis = np.eye(d)
    out = []
    peak = peak_bytes(lambda: out.append(
        theorem1_extract(space, basis, basis[0], eps=None)))
    assert out[0].selected == tuple(range(1, n))
    assert peak <= _three_blocks(n)


def test_theorem1_extract_gathers_a_strided_selection_tile_by_tile(
        peak_bytes):
    """n = 1000 unit vectors of l^2_400 whose even rows have the functional
    value 0 and whose odd rows spread over [0.3, 0.9]: the window holds
    every other row, so every certificate tile is gathered into the one
    tile buffer; a copy of the 500 selected rows would take 1.6 MB."""
    n, d = 1000, 400
    space = SpaceSpec(2.0, d)
    seq = np.random.default_rng(5).standard_normal((n, d))
    seq[0::2, 0] = 0.0
    seq[1::2, 0] = np.linspace(0.3, 0.9, n // 2)
    seq[:, 1:] *= (np.sqrt(1.0 - seq[:, :1] ** 2)
                   / np.linalg.norm(seq[:, 1:], axis=1)[:, None])
    x = np.eye(d)[0]
    out = []
    peak = peak_bytes(lambda: out.append(
        theorem1_extract(space, seq, x, eps=None)))
    assert out[0].selected == tuple(range(0, n, 2))
    assert peak <= _three_blocks(n)
