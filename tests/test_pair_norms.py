"""The tiled pairwise kernel against a copy of its per-row form.

``spaces.pair_tiles(space, arr, x, rows)`` walks the pairs (i, j), i < j,
by column tiles of positions j: one difference per unordered pair, with
``x`` applied only on the column slice that holds its nonzeros.  Put
together per row, its tiles must equal, bit for bit, the upper-triangle
row ``M[i, i+1:]`` of the matrix ``M`` of the per-row kernel it replaced
(copied below as ``_old_pair_norms``), which formed ``x - (a_i - a_j)``
in full for every ordered pair, and with ``x`` also the column
``M[i+1:, i]``, across tile boundaries and for any index set ``rows``;
and its working set must stay within a few block-sized buffers.  Rows
with few nonzeros take the support path of ``uconvex.sparse``, which
must give the same bits; spies show which families take it.
"""

import numpy as np
import pytest

from uconvex import sparse
from uconvex.sequences import (shifted_basis_seed, theorem1_extract,
                               theorem3_construct)
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
    Each tile is one row's run of pairs, 1-D or with ``x`` of shape
    (2, L); row i's tiles must cover j = i + 1, ..., m - 1 in order, once
    each."""
    m = len(arr) if rows is None else len(rows)
    parts = [[] for _ in range(m)]
    for i, j, values in pair_tiles(space, arr, x, rows):
        assert (values.ndim == 1 if x is None
                else values.ndim == 2 and len(values) == 2), values.shape
        assert j == i + 1 + sum(v.shape[-1] for v in parts[i])
        parts[i].append(values)
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


@pytest.mark.parametrize("rows", [[-1, 0], [0, 3]])
def test_pair_tiles_rejects_rows_out_of_range(rows):
    """A negative position raises as one past the end does; it is not
    read as a row counted from the end."""
    with pytest.raises(IndexError):
        list(pair_tiles(SpaceSpec(2.0, 3), np.eye(3), rows=rows))


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


def _spy(monkeypatch, name):
    """Count the calls of ``uconvex.sparse.<name>`` in a list."""
    calls, real = [], getattr(sparse, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(sparse, name, spy)
    return calls


def _few_nonzeros(rng, n, d, cols, values):
    """n rows with 2 to 4 nonzeros each, drawn from ``cols`` and ``values``."""
    seq = np.zeros((n, d))
    for row, k in zip(seq, rng.integers(2, 5, n)):
        row[rng.choice(cols, k, replace=False)] = rng.choice(values, k)
    return seq


def _constant_columns(rng, n, d):
    """Columns 0 to 2 equal in every row, one more nonzero of each row's
    own: every difference has two nonzeros, the constant columns cancel."""
    seq = np.zeros((n, d))
    seq[:, :3] = 0.5
    seq[np.arange(n), 3 + np.arange(n) % (d - 3)] = rng.standard_normal(n)
    return seq


def _basis_then_shared(rng, n, d):
    """70 basis rows, whose consecutive pairs pass the probe, then rows of
    2 to 4 random nonzeros on 8 shared columns, whose sums are not exact:
    the support path sums those pairs densely."""
    seq = _few_nonzeros(rng, n, d, np.arange(8), rng.standard_normal(16))
    seq[:70] = np.eye(d)[:70]
    return seq


def _theorem3_outputs(p, n, d):
    """The outputs of Theorem 3 on the shifted basis: each difference has
    four nonzeros with non-integer powers, so no sum is exact."""
    space = SpaceSpec(p, d)
    return theorem3_construct(space, shifted_basis_seed(space, d - 1),
                              n).output


SPARSE = {
    "two_to_four_shared": lambda p, n, d, rng: _few_nonzeros(
        rng, n, d, np.arange(6), np.array([-1.0, 1.0])),
    "integer_entries": lambda p, n, d, rng: _few_nonzeros(
        rng, n, d, np.arange(d), np.array([-4.0, -1.0, 1.0, 4.0])),
    "constant_columns": lambda p, n, d, rng: _constant_columns(rng, n, d),
    "basis_then_shared": lambda p, n, d, rng: _basis_then_shared(rng, n, d),
    "shifted_basis": lambda p, n, d, rng: _shifted(p, n, d),
}

# sparse x that overlap the rows' supports: columns 0 to 2 hold the
# constant columns and the shared ones
SPARSE_X = {
    "none": lambda d: None,
    "e_0": lambda d: _unit(d, 0),
    "e_1_minus": lambda d: _unit(d, 1, -1.0),
    "integer_pair": lambda d: _unit(d, 0) + _unit(d, 2, 2.0),
    "far_pair": lambda d: _far_pair(d),
}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("seq_kind", sorted(SPARSE))
def test_support_path_equals_per_row_kernel_bit_for_bit(p, seq_kind,
                                                        monkeypatch):
    """n = 150 rows of l^p_128: 11175 pairs, several chunks of pairs with
    or without x; integer entries give sums of three or more integer
    powers at p = 3, and at p = 1.5 some integer and some not."""
    n, d = 150, 128
    rng = np.random.default_rng(31)
    space = SpaceSpec(p, d)
    arr = SPARSE[seq_kind](p, n, d, rng)
    tiles = _spy(monkeypatch, "support_tiles")
    for x_kind in sorted(SPARSE_X):
        x = SPARSE_X[x_kind](d)
        assert _rows_same_bits(_tile_rows(space, arr, x),
                               _old_pair_norms(space, arr, x)), x_kind
    assert tiles  # the family takes the support path for some x


def test_support_path_sums_inexact_pairs_densely(monkeypatch):
    """The probe passes on the basis rows, and the pairs of the shared
    rows are summed over all d columns."""
    n, d = 150, 128
    space = SpaceSpec(3.0, d)
    arr = _basis_then_shared(np.random.default_rng(4), n, d)
    tiles = _spy(monkeypatch, "support_tiles")
    dense = _spy(monkeypatch, "_power_sums")
    assert _rows_same_bits(_tile_rows(space, arr), _old_pair_norms(space, arr))
    assert tiles and dense


@pytest.mark.parametrize("rows_kind", sorted(ROWS))
def test_support_path_on_rows_equals_per_row_kernel_of_those_rows(
        rows_kind, monkeypatch):
    """Gathered rows of the shifted basis and of integer rows, with x
    overlapping their supports."""
    n, d = 200, 400
    rng = np.random.default_rng(37)
    rows = ROWS[rows_kind](n)
    tiles = _spy(monkeypatch, "support_tiles")
    for space, arr in ((SpaceSpec(3.0, d), _shifted(3.0, n, d)),
                       (SpaceSpec(1.5, d), SPARSE["integer_entries"](
                           1.5, n, d, rng))):
        picked = arr[list(rows)]
        for x in (None, _unit(d, 0), _unit(d, 1) + _unit(d, 5, -2.0)):
            assert _rows_same_bits(_tile_rows(space, arr, x, rows),
                                   _old_pair_norms(space, picked, x))
    assert tiles or len(rows) < 2


def test_one_crowded_row_sends_the_family_to_the_dense_path(monkeypatch):
    """Row 7 of an l^3_128 basis has 21 nonzeros: the family averages
    under the bound of 8 per row, the row is over it, so no tile comes
    from the support path."""
    space = SpaceSpec(3.0, 128)
    arr = np.eye(128)[:50]
    arr[7, 40:60] = np.random.default_rng(8).uniform(0.1, 1.0, 20)
    form, tiles = (_spy(monkeypatch, name)
                   for name in ("support_form", "support_tiles"))
    assert _rows_same_bits(_tile_rows(space, arr), _old_pair_norms(space, arr))
    assert form and not tiles


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_theorem3_outputs_take_the_dense_path(p, monkeypatch):
    """No sum of Theorem 3's outputs is exact: the probe sends them to the
    dense path whole, with or without x."""
    d = 128
    space = SpaceSpec(p, d)
    arr = _theorem3_outputs(p, 60, d)
    form, tiles = (_spy(monkeypatch, name)
                   for name in ("support_form", "support_tiles"))
    for x in (None, _unit(d, 0)):
        assert _rows_same_bits(_tile_rows(space, arr, x),
                               _old_pair_norms(space, arr, x))
    assert form and not tiles


def _sweep_rows(n, d, seed):
    """The benchmark sweep's random unit rows of l^2_d."""
    g = np.random.default_rng(seed).standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1)[:, None]


@pytest.mark.parametrize("seq_kind", ["dense", "repeated_rows", "sweep"])
def test_dense_input_never_enters_the_support_path(seq_kind, monkeypatch):
    rng = np.random.default_rng(41)
    form, tiles, sums = (_spy(monkeypatch, name) for name in (
        "support_form", "support_tiles", "_support_sums"))
    for d, n in ((16, 40), (128, 250), (400, 100)):
        space = SpaceSpec(2.0, d)
        arr = (_sweep_rows(n, d, 5) if seq_kind == "sweep"
               else SEQUENCES[seq_kind](2.0, n, d, rng))
        for x in (None, _unit(d, 0), rng.standard_normal(d)):
            _min_of_tiles(pair_tiles(space, arr, x))
            _min_of_tiles(pair_tiles(space, arr, x, range(0, n, 2)))
    assert not (form or tiles or sums)


def test_theorem1_extract_on_the_l2_2000_basis_has_no_n_squared_term(
        peak_bytes, monkeypatch):
    """The support path's column lists and chunks stay within the bound of
    the l^2_400 run: no n x n and no n x d term (the basis is 32 MB)."""
    n = d = 2000
    space = SpaceSpec(2.0, d)
    basis = np.eye(d)
    tiles = _spy(monkeypatch, "support_tiles")
    out = []
    peak = peak_bytes(lambda: out.append(
        theorem1_extract(space, basis, basis[0], eps=None)))
    assert out[0].selected == tuple(range(1, n))
    assert out[0].pair_min == 1.7320508075688772
    assert len(tiles) == 2  # the separation and the certificate
    assert peak <= _three_blocks(n)
