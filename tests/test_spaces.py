import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uconvex.errors import (DimensionMismatchError, PreconditionError,
                            ZeroVectorError)
from uconvex.sequences import shifted_basis_seed
from uconvex.rounding import norm_error
from uconvex.spaces import (BLOCK_ELEMS, SpaceSpec, _pow_abs, _power_sums,
                            _row_norms, as_rows, batch_norm, duality_map,
                            norm, norming_functional, normalize, pair_tiles,
                            unit_batch)
from test_pair_norms import _tile_rows

ATOL = 1e-12

# oracle: (1 + 1)^(1/1.5) = 2^(2/3)
TWO_TO_TWO_THIRDS = 1.5874010519681994

exponents = st.floats(min_value=1.05, max_value=8.0,
                      allow_nan=False, allow_infinity=False)
coords = st.lists(st.floats(min_value=-1e3, max_value=1e3,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=6)


def test_space_validation():
    SpaceSpec(p=1.5, d=3)
    for bad_p in (1.0, 0.5, -2.0, math.inf, math.nan, "abc", None):
        with pytest.raises(PreconditionError, match="exponent p"):
            SpaceSpec(p=bad_p, d=2)
    for bad_d in (0, 2.5, math.nan, "a", None):
        with pytest.raises(PreconditionError, match="dimension d"):
            SpaceSpec(p=2.0, d=bad_d)


def test_dual_exponent():
    assert SpaceSpec(p=2, d=1).dual.p == 2.0
    assert SpaceSpec(p=1.5, d=1).dual.p == pytest.approx(3.0, abs=ATOL)


def test_norm_euclidean_345():
    assert norm(SpaceSpec(p=2, d=2), [3.0, 4.0]) == pytest.approx(5.0, abs=ATOL)


def test_norm_zero_vector():
    assert norm(SpaceSpec(p=3.7, d=4), np.zeros(4)) == 0.0


def test_norm_p15_ones():
    got = norm(SpaceSpec(p=1.5, d=2), [1.0, 1.0])
    assert got == pytest.approx(TWO_TO_TWO_THIRDS, abs=1e-15)
    assert got == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-15)


def test_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        norm(SpaceSpec(p=2, d=3), [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):  # was numpy's TypeError
        norm(SpaceSpec(p=2, d=2), [{}, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_norm_and_normalize_reject_non_finite(bad):
    space = SpaceSpec(p=3, d=3)
    v = [1.0, bad, 0.0]
    with pytest.raises(PreconditionError, match="non-finite"):
        norm(space, v)
    with pytest.raises(PreconditionError, match="non-finite"):
        normalize(space, v)
    with pytest.raises(PreconditionError, match="non-finite"):
        norming_functional(space, v)


def test_normalize_345():
    out = normalize(SpaceSpec(p=2, d=2), [3.0, 4.0])
    assert np.allclose(out, [0.6, 0.8], atol=ATOL)


def test_normalize_zero_rejected():
    with pytest.raises(ZeroVectorError):
        normalize(SpaceSpec(p=2, d=2), [0.0, 0.0])


def test_normalize_basis_difference():
    out = normalize(SpaceSpec(p=2, d=3), [1.0, -1.0, 0.0])
    assert np.allclose(out, np.array([1.0, -1.0, 0.0]) / math.sqrt(2),
                       atol=ATOL)


@given(exponents, coords)
@settings(max_examples=80, deadline=None)
def test_normalize_idempotent_and_unit(p, cs):
    space = SpaceSpec(p=p, d=len(cs))
    v = np.asarray(cs)
    if norm(space, v) < 1e-6:
        return
    u = normalize(space, v)
    assert abs(norm(space, u) - 1.0) <= ATOL
    assert np.allclose(normalize(space, u), u, atol=ATOL)


@given(exponents, coords)
@settings(max_examples=80, deadline=None)
def test_norm_homogeneity_and_triangle(p, cs):
    space = SpaceSpec(p=p, d=len(cs))
    v = np.asarray(cs)
    w = v[::-1].copy()
    scale = 3.25
    assert norm(space, scale * v) == pytest.approx(scale * norm(space, v),
                                                   rel=1e-12, abs=1e-9)
    assert norm(space, v + w) <= norm(space, v) + norm(space, w) + 1e-9


def test_norming_functional_hilbert_self_duality():
    space = SpaceSpec(p=2, d=3)
    e1 = np.array([1.0, 0.0, 0.0])
    f = norming_functional(space, e1)
    assert np.allclose(f, e1, atol=ATOL)
    assert float(np.dot(f, e1)) == pytest.approx(1.0, abs=ATOL)

    rng = np.random.default_rng(0)
    x = normalize(space, rng.standard_normal(3))
    assert np.allclose(norming_functional(space, x), x, atol=ATOL)


def test_norming_functional_p3_spot():
    # x = (1, 1) / 2^(1/3) is unit in l^3; the functional must pair to 1
    # and have unit dual 1.5-norm
    space = SpaceSpec(p=3, d=2)
    x = np.array([1.0, 1.0]) / 2.0 ** (1.0 / 3.0)
    f = norming_functional(space, x)
    assert float(np.dot(f, x)) == pytest.approx(1.0, abs=ATOL)
    assert np.sum(np.abs(f) ** 1.5) == pytest.approx(1.0, abs=ATOL)


@given(exponents, coords)
@settings(max_examples=100, deadline=None)
def test_norming_functional_identities(p, cs):
    space = SpaceSpec(p=p, d=len(cs))
    x = np.asarray(cs)
    n = norm(space, x)
    if n < 1e-6:
        return
    f = norming_functional(space, x)
    assert float(np.dot(f, x)) == pytest.approx(n, rel=1e-12, abs=1e-10)
    assert float(batch_norm(space.dual, f)) == pytest.approx(1.0, abs=1e-10)


def test_norming_functional_zero_rejected():
    with pytest.raises(ZeroVectorError):
        norming_functional(SpaceSpec(p=2, d=2), np.zeros(2))


def _random_unit(space, seed):
    return unit_batch(space, np.random.default_rng(seed), 1)[0]


def test_random_unit_determinism_and_norm():
    space = SpaceSpec(p=2.5, d=5)
    a = _random_unit(space, 42)
    b = _random_unit(space, 42)
    assert np.array_equal(a, b)
    assert abs(norm(space, a) - 1.0) <= ATOL
    assert not np.array_equal(a, _random_unit(space, 43))


def test_random_unit_d1_is_sign():
    for seed in range(8):
        v = _random_unit(SpaceSpec(p=2, d=1), seed)
        assert v[0] in (1.0, -1.0)


def test_random_unit_mean_symmetry():
    # Monte-Carlo symmetry: 1e4 samples in l^2_3 average near the origin
    space = SpaceSpec(p=2, d=3)
    samples = unit_batch(space, np.random.default_rng(7), 10_000)
    assert np.all(np.abs(samples.mean(axis=0)) < 0.05)


def _rows_with_repeats(rng, n, d):
    rows = rng.standard_normal((n, d))
    if n > 2:
        rows[n - 1] = rows[0]      # a repeated row: distance exactly 0
    return rows


def _pair_rows_by_batch_norm(space, arr, x):
    """Rows of ``||a_j - a_i||`` and, with ``x``, of ``||x - (a_i - a_j)||``
    and ``||x - (a_j - a_i)||``, j > i, each by :func:`batch_norm` alone."""
    def value(v):
        return batch_norm(space, v[None])[0]
    n = len(arr)
    plain = [[value(arr[j] - arr[i]) for j in range(i + 1, n)]
             for i in range(n)]
    shifted = [([value(x - (arr[i] - arr[j])) for j in range(i + 1, n)],
                [value(x - (arr[j] - arr[i])) for j in range(i + 1, n)])
               for i in range(n)]
    return plain, shifted


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n, d", [(2, 3), (9, 5), (17, 40)])
def test_pair_norms_equal_per_pair_batch_norm(p, n, d):
    space = SpaceSpec(p=p, d=d)
    rng = np.random.default_rng(int(10 * p) + n)
    arr = _rows_with_repeats(rng, n, d)
    x = rng.standard_normal(d)
    plain = [row.tolist() for row in _tile_rows(space, arr)]
    shifted = [(a.tolist(), b.tolist()) for a, b in _tile_rows(space, arr, x)]
    assert (plain, shifted) == _pair_rows_by_batch_norm(space, arr, x)
    assert len(plain) == n and plain[-1] == []
    if n > 2:
        assert plain[0][n - 2] == 0.0


def test_batch_norm_matches_formula_and_keeps_input():
    for p in (1.5, 2.0, 3.0):
        space = SpaceSpec(p=p, d=6)
        rows = np.random.default_rng(2).standard_normal((50, 6))
        before = rows.copy()
        expected = np.sum(np.abs(rows) ** p, axis=-1) ** (1.0 / p)
        assert np.array_equal(batch_norm(space, rows), expected)
        assert np.array_equal(rows, before)


def test_as_rows_checks_finiteness_block_by_block(peak_bytes):
    # the check allocates one block's mask, not one of n·d entries, and
    # still finds a non-finite entry in the last block
    space = SpaceSpec(p=2, d=64)
    rows = np.ones((4 * BLOCK_ELEMS // 64 + 3, 64))
    assert peak_bytes(lambda: as_rows(space, rows)) < 2 * BLOCK_ELEMS
    for bad in (math.nan, math.inf):
        rows[-1, -1] = bad
        with pytest.raises(PreconditionError, match="non-finite"):
            as_rows(space, rows)


def test_batch_norm_accepts_lists_and_integer_arrays():
    space = SpaceSpec(p=2, d=2)
    ints = np.array([[3, -4], [0, 0]])
    assert batch_norm(space, ints).tolist() == [5.0, 0.0]
    assert ints.tolist() == [[3, -4], [0, 0]]
    assert batch_norm(space, [[3, 4], [-6, 8]]).tolist() == [5.0, 10.0]


def test_apply_contraction_inequality_randomized():
    # 1e5 randomized trials: sup-norm of the image never exceeds ||v||_p
    for p in (1.5, 2.0, 3.0):
        space = SpaceSpec(p=p, d=6)
        rng = np.random.default_rng(11)
        rows = np.sign(g := rng.standard_normal((4, 6))) * np.abs(g)
        q = space.dual.p
        rows /= np.sum(np.abs(rows) ** q, axis=1)[:, None] ** (1 / q)
        vs = rng.standard_normal((100_000 // 3 + 1, 6)) * 10.0
        sups = np.max(np.abs(vs @ rows.T), axis=1)
        norms = np.sum(np.abs(vs) ** p, axis=1) ** (1.0 / p)
        assert np.all(sups <= norms * (1.0 + 1e-12))


# ------------------------- the p-th power primitive -------------------------

POW_EXPONENTS = [1.1, 1.5, 3.0, 7.0, 1.0 / 3.0, 2.0 / 3.0, 0.5, 1.0, 2.0]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64),
        np.ascontiguousarray(b).view(np.int64))


def _pow_inputs():
    """Absolute values with zeros in every position the probe can see.

    Apart from the small cases, sizes exceed the primitive's masking
    minimum, so both of its paths run.
    """
    rng = np.random.default_rng(11)
    dense = np.abs(rng.standard_normal((6, 150)))
    scattered = dense.copy()
    scattered[rng.random(scattered.shape) < 0.4] = 0.0
    zero_rows = dense.copy()
    zero_rows[[0, 3]] = 0.0
    neg_zero = np.abs(np.where(scattered == 0.0, -0.0, -scattered))
    dense_over_sparse = scattered.copy()
    dense_over_sparse[0] = dense[0]
    sparse_over_dense = dense.copy()
    sparse_over_dense[0] = scattered[1]
    sparse_over_dense[0, 0] = 0.0
    blocks = np.abs(rng.standard_normal((3, 4, 16)))
    blocks[rng.random(blocks.shape) < 0.5] = 0.0
    return {
        "dense": dense, "scattered": scattered, "zero_rows": zero_rows,
        "from_neg_zero": neg_zero, "dense_over_sparse": dense_over_sparse,
        "sparse_over_dense": sparse_over_dense, "1d": scattered[1],
        "1d_dense": dense[2], "3d": blocks, "small": scattered[:2, :9],
        "empty": np.empty((0, 5)), "empty_1d": np.empty(0),
    }


@pytest.mark.parametrize("e", POW_EXPONENTS)
@pytest.mark.parametrize("case", sorted(_pow_inputs()))
def test_pow_abs_equals_plain_power_bit_for_bit(e, case):
    a = _pow_inputs()[case]
    expected = a ** e
    buf = a.copy()
    assert _pow_abs(buf, e) is buf
    assert _same_bits(buf, expected)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_pair_norms_on_shifted_basis_equal_per_pair_batch_norm(p):
    space = SpaceSpec(p=p, d=12)
    arr = np.asarray(shifted_basis_seed(space, 11))
    x = arr[4] - arr[7]
    plain = [row.tolist() for row in _tile_rows(space, arr)]
    shifted = [(a.tolist(), b.tolist()) for a, b in _tile_rows(space, arr, x)]
    assert (plain, shifted) == _pair_rows_by_batch_norm(space, arr, x)
    assert np.allclose(np.concatenate(plain), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_duality_map_equals_closed_form_bit_for_bit(p):
    space = SpaceSpec(p=p, d=9)
    X = np.random.default_rng(8).standard_normal((40, 9))
    X[X > 1.0] = 0.0
    X[5] = -0.0
    expected = np.sign(X) * np.abs(X) ** (p - 1.0)
    assert _same_bits(duality_map(space, X), expected)
    assert _same_bits(norming_functional(space, X[1]),
                      expected[1] / norm(space, X[1]) ** (p - 1.0))


def test_dual_norm_is_the_q_norm():
    space = SpaceSpec(p=3, d=5)
    f = np.array([0.3, -1.0, 0.0, 2.0, 0.5])
    q = space.dual.p
    expected = np.sum(np.abs(f) ** q) ** (1.0 / q)
    assert float(batch_norm(space.dual, f)) == expected
    assert space.dual == SpaceSpec(p=q, d=5)


def _old_normalize(space, v):
    v = np.asarray(v, dtype=float)
    return v / norm(space, v)


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0])
@pytest.mark.parametrize("d", [1, 3, 16, 200])
def test_normalize_equals_old_formula_bit_for_bit(p, d):
    space = SpaceSpec(p, d)
    rng = np.random.default_rng(d)
    for scale in (1e-3, 1.0, 1e3):
        v = scale * rng.standard_normal(d)
        if d > 1:
            v[::3] = 0.0
        assert np.array_equal(normalize(space, v), _old_normalize(space, v))
        assert np.array_equal(normalize(space, v.tolist()),
                              _old_normalize(space, v))


def test_normalize_checks_its_input_once(monkeypatch):
    import uconvex.spaces as spaces_mod

    calls = []
    real = spaces_mod.as_vector

    def counting(space, coords):
        calls.append(1)
        return real(space, coords)

    monkeypatch.setattr(spaces_mod, "as_vector", counting)
    normalize(SpaceSpec(1.5, 4), [1.0, -2.0, 0.0, 3.0])
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_after_single_check(bad):
    with pytest.raises(PreconditionError):
        normalize(SpaceSpec(1.5, 3), [1.0, bad, 0.5])
    with pytest.raises(ZeroVectorError):
        normalize(SpaceSpec(1.5, 3), [0.0, 0.0, 0.0])


# ----------------------------- p = 2 path -----------------------------

def _p2_norms_abs_first(rows):
    """The p = 2 norms as computed with an ``abs`` pass before squaring."""
    return np.sum(np.abs(np.asarray(rows, dtype=float)) ** 2,
                  axis=-1) ** 0.5


def _p2_inputs():
    rng = np.random.default_rng(21)
    signed = rng.standard_normal((12, 7))
    signed[rng.random(signed.shape) < 0.3] = 0.0
    signed[rng.random(signed.shape) < 0.2] = -0.0
    signed[3] = -0.0
    huge = signed * 1e200
    huge[0, 0] = -3e200
    return {"signed": signed, "huge": huge,
            "ints": rng.integers(-5, 6, (9, 7)),
            "list": rng.integers(-5, 6, (6, 7)).tolist()}


@pytest.mark.parametrize("case", sorted(_p2_inputs()))
def test_p2_batch_norm_equals_abs_first_bit_for_bit(case):
    rows = _p2_inputs()[case]
    space = SpaceSpec(p=2, d=7)
    before = np.array(rows, copy=True)
    with np.errstate(over="ignore"):
        got = batch_norm(space, rows)
        want = _p2_norms_abs_first(rows)
    assert _same_bits(got, want)
    assert _same_bits(np.asarray(rows), before)
    if case == "huge":
        assert np.isinf(got).any() and np.isfinite(got).any()


@pytest.mark.parametrize("case", sorted(_p2_inputs()))
def test_p2_pair_norms_equal_abs_first_bit_for_bit(case):
    arr = _p2_inputs()[case]
    a = np.asarray(arr, dtype=float)
    space = SpaceSpec(p=2, d=7)
    x = a[1] - 2.0 * a[0] if case == "huge" else a[0] + 0.5
    with np.errstate(over="ignore"):
        plain = _tile_rows(space, arr)
        shifted = _tile_rows(space, arr, x.tolist() if case == "list" else x)
        want_plain = _p2_norms_abs_first(a[None, :, :] - a[:, None, :])
        want_shifted = _p2_norms_abs_first(x - (a[:, None, :] - a[None, :, :]))
    for i in range(len(a)):
        assert _same_bits(plain[i], want_plain[i, i + 1:])
        assert _same_bits(shifted[i][0], want_shifted[i, i + 1:])
        assert _same_bits(shifted[i][1], want_shifted[i + 1:, i])
    if case == "huge":
        assert any(np.isinf(row).any() for row in plain)
        assert any(np.isinf(row).any() for pair in shifted for row in pair)


# ----------------------------- one p-th-power kernel -----------------------------
# The three reductions that computed sum |a_i|^p before there was one kernel.

def _old_vector_sum(space, v):
    return np.add.reduce(_pow_abs(np.abs(v), space.p))


def _old_row_sums(space, rows):
    return np.add.reduce(_pow_abs(np.abs(rows), space.p), axis=-1)


def _old_array_sums(space, a):
    if space.p == 2.0:
        powers = np.square(a, dtype=float)
    else:
        powers = _pow_abs(np.abs(a, dtype=float), space.p)
    return np.sum(powers, axis=-1)


def _kernel_inputs():
    rng = np.random.default_rng(33)
    signed = rng.standard_normal((40, 9))
    signed[rng.random(signed.shape) < 0.3] = 0.0
    signed[rng.random(signed.shape) < 0.2] = -0.0
    signed[4] = -0.0
    huge = signed * 1e300  # overflows to inf at every p tested
    huge[0, 0] = -1.7e308
    huge[1] = signed[1]
    sparse = np.zeros((40, 9))
    sparse[np.arange(40), np.arange(40) % 9] = rng.standard_normal(40)
    return {"signed": signed, "huge": huge, "sparse": sparse,
            "ints": rng.integers(-5, 6, (30, 9))}


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0])
@pytest.mark.parametrize("case", sorted(_kernel_inputs()))
def test_power_sums_equal_each_old_reduction_bit_for_bit(p, case):
    a = _kernel_inputs()[case]
    f = a.astype(float)
    space = SpaceSpec(p=p, d=9)
    with np.errstate(over="ignore"):
        got = _power_sums(space, a)
        assert _same_bits(got, _old_array_sums(space, a))
        assert _same_bits(got, _old_row_sums(space, f))
        for i, v in enumerate(f):
            assert got[i] == _old_vector_sum(space, v)
        # the roots the norms take of it
        assert _same_bits(batch_norm(space, a), got ** (1.0 / p))
        assert _row_norms(space, f).tolist() == [
            float(_old_vector_sum(space, v) ** (1.0 / p)) for v in f]
    assert _same_bits(np.asarray(a), _kernel_inputs()[case])
    if case == "huge":
        assert np.isinf(got).any() and np.isfinite(got).any()


def test_power_sums_writes_powers_to_out():
    space = SpaceSpec(p=3.0, d=4)
    a = np.array([[1.0, -2.0, 0.0, -0.0], [0.5, 0.0, 3.0, -1.0]])
    buf = a.copy()
    got = _power_sums(space, buf, out=buf)
    assert _same_bits(buf, np.abs(a) ** 3.0)
    assert _same_bits(got, np.sum(np.abs(a) ** 3.0, axis=-1))


@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 7.0])
@pytest.mark.parametrize("case", sorted(_kernel_inputs()))
def test_batch_norm_out_equals_batch_norm_bit_for_bit(p, case):
    space = SpaceSpec(p=p, d=9)
    rows = _kernel_inputs()[case]
    with np.errstate(over="ignore"):
        expected = batch_norm(space, rows)
        assert _same_bits(rows, _kernel_inputs()[case])  # left unmodified
        buf = np.full(rows.shape, np.nan)
        assert _same_bits(batch_norm(space, rows, out=buf), expected)
        assert _same_bits(rows, _kernel_inputs()[case])
        if rows.dtype == float:  # the powers may overwrite the rows
            assert _same_bits(batch_norm(space, rows, out=rows), expected)


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9, 2.0, 3.0, 7.0, 50.0, 400.0])
def test_row_norms_root_is_libm_pow_bit_for_bit(p):
    # _row_norms roots by np.float_power, pinned here to the scalar libm pow
    rng = np.random.default_rng(int(p * 10))
    sums = np.concatenate([
        rng.random(20000) * 10.0 ** rng.uniform(-300.0, 300.0, 20000),
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 2.0,
         1.7976931348623157e308, math.inf]])
    inv = 1.0 / p
    expected = np.array([math.pow(s, inv) for s in sums.tolist()])
    assert _same_bits(np.float_power(sums, inv), expected)
    rows = np.zeros((len(sums), 2))
    rows[:, 0] = sums ** (1.0 / p)  # one nonzero entry per row
    space = SpaceSpec(p=p, d=2)
    with np.errstate(over="ignore"):
        assert _same_bits(_row_norms(space, rows), np.array(
            [math.pow(s, inv) for s in _power_sums(space, rows).tolist()]))


# ------------------------------ rounding model ------------------------------

def _oracle_rows(d, seed):
    """Random, mixed-magnitude and equal-entry rows of width ``d``.

    Entries stay within 1e-60..1e60, so their p-th powers are normal for
    p <= 4.
    """
    rng = np.random.default_rng(seed)
    return {"random": rng.standard_normal(d),
            "mixed": rng.standard_normal(d) * 10.0 ** rng.uniform(-60, 60, d),
            "equal": np.full(d, 0.1)}


def _within(p, computed, bound, exact_sum):
    """``(N - b)^p <= S <= (N + b)^p``, decided exactly in rationals."""
    n, b = Fraction(computed), Fraction(bound)
    return (n - b) ** p <= exact_sum <= (n + b) ** p


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 16, 257, 4096])
def test_norm_error_bounds_every_norm_against_an_exact_sum(p, d):
    space = SpaceSpec(p, d)
    rows = _oracle_rows(d, seed=d)
    for name, a in rows.items():
        exact = sum(Fraction(abs(v)) ** p for v in a.tolist())
        for computed in (norm(space, a), float(batch_norm(space, a[None])[0]),
                         _row_norms(space, a[None])[0]):
            assert _within(p, computed, norm_error(d, computed), exact), name
        # a pairwise entry norms a rounded difference of stored rows
        b = rows["random"] if name != "random" else rows["equal"]
        computed = next(pair_tiles(space, np.stack([b, a])))[2][0]
        diff = sum(abs(Fraction(u) - Fraction(v)) ** p
                   for u, v in zip(a.tolist(), b.tolist()))
        assert _within(p, computed, norm_error(d, computed, computed), diff)


def test_norm_error_is_not_vacuous():
    assert norm_error(4096, 1.0) < 1e-12
    assert norm_error(1, 1.0) < 1e-14
    # the root's rounded exponent 1/p costs u |ln value|
    assert norm_error(16, 1e50) > 1e50 * 115 * 2.0 ** -53


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_norm_kernels_agree_within_norm_error(p):
    # the scalar and array roots may differ in the last bit, never by more
    # than both bounds
    space = SpaceSpec(p, 16)
    rows = np.random.default_rng(5).standard_normal((4000, 16))
    scalar = np.array([norm(space, v) for v in rows])
    # ||x + 0|| and ||x - 0||, the one pair of two zero rows
    pair = np.array([next(pair_tiles(space, np.zeros((2, 16)), x=v))[2]
                     for v in rows]).reshape(len(rows), 2)
    bound = 2.0 * np.array([norm_error(16, n) for n in scalar])
    assert np.all(np.abs(batch_norm(space, rows) - scalar) <= bound)
    assert np.all(np.abs(pair - scalar[:, None]) <= bound[:, None])
