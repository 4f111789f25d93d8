import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uconvex.errors import (DimensionMismatchError, PreconditionError,
                            ZeroVectorError)
from uconvex.sequences import shifted_basis_seed
from uconvex.spaces import (ContractionMap, Functional, SpaceSpec, _pow_abs,
                            apply, batch_norm, dual_norm, duality_map,
                            make_contraction, norm, norming_functional,
                            normalize, pair_norms, random_unit, unit_batch)

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
    for bad_p in (1.0, 0.5, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SpaceSpec(p=bad_p, d=2)
    with pytest.raises(ValueError):
        SpaceSpec(p=2.0, d=0)


def test_dual_exponent():
    assert SpaceSpec(p=2, d=1).q == 2.0
    assert SpaceSpec(p=1.5, d=1).q == pytest.approx(3.0, abs=ATOL)


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
    with pytest.raises(PreconditionError, match="non-finite"):
        dual_norm(space, Functional(np.array(v)))


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
    assert np.allclose(f.coords, e1, atol=ATOL)
    assert f(e1) == pytest.approx(1.0, abs=ATOL)

    rng = np.random.default_rng(0)
    x = normalize(space, rng.standard_normal(3))
    assert np.allclose(norming_functional(space, x).coords, x, atol=ATOL)


def test_norming_functional_p3_spot():
    # x = (1, 1) / 2^(1/3) is unit in l^3; the functional must pair to 1
    # and have unit dual 1.5-norm
    space = SpaceSpec(p=3, d=2)
    x = np.array([1.0, 1.0]) / 2.0 ** (1.0 / 3.0)
    f = norming_functional(space, x)
    assert f(x) == pytest.approx(1.0, abs=ATOL)
    assert np.sum(np.abs(f.coords) ** 1.5) == pytest.approx(1.0, abs=ATOL)


@given(exponents, coords)
@settings(max_examples=100, deadline=None)
def test_norming_functional_identities(p, cs):
    space = SpaceSpec(p=p, d=len(cs))
    x = np.asarray(cs)
    n = norm(space, x)
    if n < 1e-6:
        return
    f = norming_functional(space, x)
    assert f(x) == pytest.approx(n, rel=1e-12, abs=1e-10)
    assert dual_norm(space, f) == pytest.approx(1.0, abs=1e-10)


def test_norming_functional_zero_rejected():
    with pytest.raises(ZeroVectorError):
        norming_functional(SpaceSpec(p=2, d=2), np.zeros(2))


def test_random_unit_determinism_and_norm():
    space = SpaceSpec(p=2.5, d=5)
    a = random_unit(space, 42)
    b = random_unit(space, 42)
    assert np.array_equal(a, b)
    assert abs(norm(space, a) - 1.0) <= ATOL
    assert not np.array_equal(a, random_unit(space, 43))


def test_random_unit_d1_is_sign():
    for seed in range(8):
        v = random_unit(SpaceSpec(p=2, d=1), seed)
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


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n, d", [(2, 3), (9, 5), (17, 40)])
def test_pair_norms_equal_per_pair_batch_norm(p, n, d):
    space = SpaceSpec(p=p, d=d)
    rng = np.random.default_rng(int(10 * p) + n)
    arr = _rows_with_repeats(rng, n, d)
    x = rng.standard_normal(d)
    plain = pair_norms(space, arr)
    shifted = pair_norms(space, arr, x)
    assert plain.shape == shifted.shape == (n, n)
    for i in range(n):
        assert plain[i, i] == 0.0
        for j in range(n):
            if i != j:
                assert plain[i, j] == batch_norm(
                    space, (arr[j] - arr[i])[None])[0]
            assert shifted[i, j] == batch_norm(
                space, (x - (arr[i] - arr[j]))[None])[0]
    if n > 2:
        assert plain[0, n - 1] == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pair_norms_exactly_symmetric_without_x(p):
    space = SpaceSpec(p=p, d=7)
    arr = _rows_with_repeats(np.random.default_rng(5), 30, 7)
    dist = pair_norms(space, arr)
    assert np.array_equal(dist, dist.T)
    shifted = pair_norms(space, arr, np.ones(7))
    assert not np.array_equal(shifted, shifted.T)


def test_batch_norm_matches_formula_and_keeps_input():
    for p in (1.5, 2.0, 3.0):
        space = SpaceSpec(p=p, d=6)
        rows = np.random.default_rng(2).standard_normal((50, 6))
        before = rows.copy()
        expected = np.sum(np.abs(rows) ** p, axis=-1) ** (1.0 / p)
        assert np.array_equal(batch_norm(space, rows), expected)
        assert np.array_equal(rows, before)


def test_batch_norm_accepts_lists_and_integer_arrays():
    space = SpaceSpec(p=2, d=2)
    ints = np.array([[3, -4], [0, 0]])
    assert batch_norm(space, ints).tolist() == [5.0, 0.0]
    assert ints.tolist() == [[3, -4], [0, 0]]
    assert batch_norm(space, [[3, 4], [-6, 8]]).tolist() == [5.0, 10.0]


def test_apply_norming_row_reaches_norm():
    space = SpaceSpec(p=3, d=4)
    x = np.array([0.3, -1.2, 0.05, 2.0])
    cmap = make_contraction(space, [norming_functional(space, x).coords])
    values, sup = apply(cmap, x)
    assert sup == pytest.approx(norm(space, x), abs=1e-10)
    _, sup0 = apply(cmap, np.zeros(4))
    assert sup0 == 0.0


def test_apply_dimension_mismatch():
    space = SpaceSpec(p=2, d=3)
    cmap = make_contraction(space, np.eye(3))
    with pytest.raises(DimensionMismatchError):
        apply(cmap, np.ones(2))


def test_make_contraction_rejects_large_rows():
    space = SpaceSpec(p=2, d=2)
    with pytest.raises(ValueError):
        make_contraction(space, [[1.0, 1.0]])  # dual 2-norm sqrt(2) > 1


def test_apply_contraction_inequality_randomized():
    # 1e5 randomized trials: sup-norm of the image never exceeds ||v||_p
    for p in (1.5, 2.0, 3.0):
        space = SpaceSpec(p=p, d=6)
        rng = np.random.default_rng(11)
        rows = np.sign(g := rng.standard_normal((4, 6))) * np.abs(g)
        rows /= np.sum(np.abs(rows) ** space.q, axis=1)[:, None] ** (1 / space.q)
        cmap = ContractionMap(rows)
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
    plain = pair_norms(space, arr)
    shifted = pair_norms(space, arr, x)
    n = len(arr)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert plain[i, j] == batch_norm(
                    space, (arr[j] - arr[i])[None])[0]
            assert shifted[i, j] == batch_norm(
                space, (x - (arr[i] - arr[j]))[None])[0]
    assert np.allclose(plain[~np.eye(n, dtype=bool)], 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_duality_map_equals_closed_form_bit_for_bit(p):
    space = SpaceSpec(p=p, d=9)
    X = np.random.default_rng(8).standard_normal((40, 9))
    X[X > 1.0] = 0.0
    X[5] = -0.0
    expected = np.sign(X) * np.abs(X) ** (p - 1.0)
    assert _same_bits(duality_map(space, X), expected)
    assert _same_bits(norming_functional(space, X[1]).coords,
                      expected[1] / norm(space, X[1]) ** (p - 1.0))


def test_dual_norm_is_the_q_norm():
    space = SpaceSpec(p=3, d=5)
    f = np.array([0.3, -1.0, 0.0, 2.0, 0.5])
    q = space.q
    expected = np.sum(np.abs(f) ** q) ** (1.0 / q)
    assert dual_norm(space, Functional(f)) == expected
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
