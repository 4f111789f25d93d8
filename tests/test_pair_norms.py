"""The pairwise kernel against a copy of its n x n per-row form.

``spaces.pair_rows(space, arr, x)`` yields, row by row, the values of the
pairs (i, j), j > i: one difference per unordered pair, with ``x``
applied only on the column slice that holds its nonzeros.  Row i must
equal, bit for bit, the upper-triangle row ``M[i, i+1:]`` of the matrix
``M`` of the per-row kernel it replaced (copied below as
``_old_pair_norms``), which formed ``x - (a_i - a_j)`` in full for every
ordered pair, and with ``x`` also the column ``M[i+1:, i]``, also where a
row spans several blocks; and its working set must stay within one row,
one block's difference buffer and one buffer of ``x - D`` on a slice of
width w.
"""

import numpy as np
import pytest

from uconvex.sequences import theorem1_extract
from uconvex.spaces import (BLOCK_ELEMS, SpaceSpec, _power_sums, pair_rows,
                            unit_batch)

BYTES = 8  # float64


def _old_pair_norms(space, arr, x=None):
    arr = np.asarray(arr, dtype=float)
    n = len(arr)
    out = np.zeros((n, n))
    buf = np.empty_like(arr)
    for i in range(n):
        if x is None:
            rows = buf[:n - i - 1]
            np.subtract(arr[i + 1:], arr[i], out=rows)
        else:
            rows = buf
            np.subtract(arr[i], arr, out=rows)
            np.subtract(x, rows, out=rows)
        norms = _power_sums(space, rows, out=rows) ** (1.0 / space.p)
        if x is None:
            out[i, i + 1:] = norms
            out[i + 1:, i] = norms
        else:
            out[i] = norms
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64),
        np.ascontiguousarray(b).view(np.int64))


def _rows_equal_matrix(rows, m, x=None):
    """Row i of :func:`pair_rows` is ``m[i, i+1:]`` and, with ``x``, also
    ``m[i+1:, i]``, bit for bit."""
    want = [(m[i, i + 1:],) if x is None else (m[i, i + 1:], m[i + 1:, i])
            for i in range(len(m))]
    got = [(row,) if x is None else tuple(row) for row in rows]
    return len(got) == len(want) and all(
        len(g) == len(w) and all(map(_same_bits, g, w))
        for g, w in zip(got, want))


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
            got = list(pair_rows(space, arr, x))
            assert _rows_equal_matrix(got, _old_pair_norms(space, arr, x),
                                      x), (d, n)
            assert _rows_equal_matrix(list(pair_rows(space, arr)),
                                      _old_pair_norms(space, arr)), (d, n)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("seq_kind", sorted(SEQUENCES))
@pytest.mark.parametrize("d, n", [(64, 600), (400, 100)])
def test_pair_norms_equal_per_row_kernel_across_blocks(d, n, seq_kind, p):
    """512 and 81 rows per block: the early rows span two blocks."""
    assert n - 1 > BLOCK_ELEMS // d
    rng = np.random.default_rng(23)
    space = SpaceSpec(p, d)
    arr = SEQUENCES[seq_kind](p, n, d, rng)
    assert _rows_equal_matrix(list(pair_rows(space, arr)),
                              _old_pair_norms(space, arr))
    for x_kind in sorted(X_KINDS):
        x = X_KINDS[x_kind](d, rng)
        assert _rows_equal_matrix(list(pair_rows(space, arr, x)),
                                  _old_pair_norms(space, arr, x), x), x_kind


def test_pair_norms_accept_list_inputs_and_no_rows():
    space = SpaceSpec(3.0, 4)
    arr = np.random.default_rng(3).standard_normal((5, 4))
    x = [0.0, -0.5, 0.25, 0.0]
    assert _rows_equal_matrix(list(pair_rows(space, arr.tolist(), x)),
                              _old_pair_norms(space, arr, np.array(x)), x)
    assert list(pair_rows(space, np.zeros((0, 4)), x)) == []


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("x_kind", ["e_interior", "far_pair", "dense"])
def test_pair_norms_working_set_is_result_and_two_buffers(p, x_kind,
                                                         peak_bytes):
    """With ``x``: one block's difference buffer of ``BLOCK_ELEMS // d``
    rows and the buffer of ``x - D`` on the slice for those rows, plus O(n)
    row vectors and, at p != 2, the boolean zero mask of
    :func:`spaces._pow_abs` over the block (one byte per entry); no n x n
    term, as the rows are read one at a time, and no n x d term."""
    n, d = 300, 200
    space = SpaceSpec(p, d)
    rng = np.random.default_rng(9)
    arr = np.eye(d)[np.arange(n) % d]
    x = X_KINDS[x_kind](d, rng)
    nz = np.flatnonzero(x)
    w = nz[-1] + 1 - nz[0]
    rows = BLOCK_ELEMS // d
    peak = peak_bytes(lambda: _min_of_rows(pair_rows(space, arr, x)))
    assert peak <= BYTES * rows * (d + w) + rows * d + 64 * 1024


def _min_of_rows(rows):
    return min(min(np.min(values) for values in row) for row in rows
               if row[0].size)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("x_kind", [None, "e_interior", "dense"])
def test_pair_rows_working_set_is_two_blocks(p, x_kind, peak_bytes):
    """n = 1000 vectors of l^p_400: the (n, d) buffer alone would be
    3.2 MB; the kernel holds at most two ``BLOCK_ELEMS`` float buffers, the
    block's zero mask at p != 2, O(n) row values and numpy's iterator
    buffer (``np.getbufsize()`` entries), which the broadcast ``a_j - a_i``
    takes whatever the sizes."""
    n, d = 1000, 400
    space = SpaceSpec(p, d)
    rng = np.random.default_rng(11)
    arr = rng.standard_normal((n, d))
    x = None if x_kind is None else X_KINDS[x_kind](d, rng)
    peak = peak_bytes(lambda: _min_of_rows(
        (row,) if x is None else row for row in pair_rows(space, arr, x)))
    assert peak <= (2 * BYTES * BLOCK_ELEMS + BLOCK_ELEMS
                    + BYTES * np.getbufsize() + 64 * n)


def test_theorem1_extract_working_set_has_no_n_squared_term(peak_bytes):
    """Theorem 1's separation and certificate scans read one row at a time:
    the peak is at most the certificate's copy of the selected vectors
    (n x d at most), one block and O(n) per-row values (a row, its
    minimum, the functional values and their sort), where the n x n
    matrix alone took 32 MB."""
    n, d = 2000, 16
    space = SpaceSpec(3.0, d)
    seq = unit_batch(space, np.random.default_rng(4), n)
    out = []
    peak = peak_bytes(lambda: out.append(
        theorem1_extract(space, seq, seq[0], eps=None)))
    assert len(out[0].selected) >= 2
    assert peak <= BYTES * n * d + 64 * n + 64 * 1024
