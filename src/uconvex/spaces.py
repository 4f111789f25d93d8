"""Finite-dimensional l^p spaces: norms, pairwise distances, duality
mapping, sphere sampling.

Vectors are plain numpy arrays of length ``d``; a :class:`SpaceSpec` fixes
the exponent and dimension and every operation takes the space explicitly.
All operations are pure; randomness always enters through an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PreconditionError, ZeroVectorError

# Default absolute tolerance for algebraic identities (norming, normalizing).
ATOL = 1e-12

# Exponents that numpy's ``**`` maps to sqrt, a copy or square; they cost
# the same on zeros as on anything else.
_FAST_EXPONENTS = (0.5, 1.0, 2.0)

# Fewest entries for which keeping zeros off ``pow`` can pay: the mask
# costs about as much as 128 zero lanes (numpy 2.4, x86-64 AVX-512).
_MASK_MIN_SIZE = 128

Vec = np.ndarray


@dataclass(frozen=True)
class SpaceSpec:
    """A finite-dimensional l^p space with exponent ``p`` and dimension ``d``.

    Only ``1 < p < inf`` is accepted: outside that range the space is not
    uniformly convex and every downstream guarantee would silently break.
    """

    p: float
    d: int

    def __post_init__(self):
        p = float(self.p)
        if not math.isfinite(p) or p <= 1.0:
            raise ValueError(f"exponent p must satisfy 1 < p < inf, got {self.p!r}")
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"dimension d must be a positive integer, got {self.d!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", int(self.d))

    @property
    def q(self) -> float:
        """Dual exponent, 1/p + 1/q = 1."""
        return self.p / (self.p - 1.0)

    @property
    def dual(self) -> "SpaceSpec":
        """The dual space l^q_d, where functionals take their norms."""
        return SpaceSpec(self.q, self.d)

    def __str__(self) -> str:
        return f"l^{self.p:g}_{self.d}"


@dataclass(frozen=True, eq=False)
class Functional:
    """A dual vector acting by ``<v, f> = sum_i f_i v_i``.

    Instances produced by :func:`norming_functional` have dual q-norm 1.
    """

    coords: np.ndarray

    def __call__(self, v: Vec) -> float:
        return float(np.dot(self.coords, v))


@dataclass(frozen=True, eq=False)
class ContractionMap:
    """Linear map into l^inf_k given by ``k`` rows of dual norm <= 1.

    With a sup-norm codomain and unit-dual rows the operator norm is <= 1
    by construction (Hoelder), so the map is a genuine contraction.
    """

    rows: np.ndarray  # shape (k, d)

    @property
    def k(self) -> int:
        return self.rows.shape[0]


def as_vector(space: SpaceSpec, coords) -> Vec:
    """Coerce ``coords`` to a finite float vector of the space's dimension.

    A NaN or infinite coordinate raises ``PreconditionError``: every norm,
    distance and pairing involving it is not a number, and a NaN compares
    false against every threshold, so checks built on it would pass.
    """
    v = np.asarray(coords, dtype=float)
    if v.shape != (space.d,):
        raise DimensionMismatchError(
            f"expected {space.d} coordinates, got shape {v.shape}"
        )
    if np.count_nonzero(np.isfinite(v)) < space.d:
        raise PreconditionError("vector has a non-finite coordinate")
    return v


def norm(space: SpaceSpec, v: Vec) -> float:
    """p-norm ``(sum |v_i|^p)^(1/p)``; zero iff ``v`` is the zero vector.

    The p-th powers come from :func:`_pow_abs`, so exact zeros skip
    numpy's ``pow`` when ``v`` has one; the result is the same bit for bit.
    """
    v = as_vector(space, v)
    return float(np.add.reduce(_pow_abs(np.abs(v), space.p))
                 ** (1.0 / space.p))


def normalize(space: SpaceSpec, v: Vec) -> Vec:
    """Return ``v / ||v||``, a unit vector parallel to ``v``."""
    v = as_vector(space, v)
    n = norm(space, v)
    if n == 0.0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return v / n


def norming_functional(space: SpaceSpec, x: Vec) -> Functional:
    """Duality map: the unit dual functional with ``<x, f> = ||x||``.

    Closed form in l^p: ``f_i = sign(x_i) |x_i|^(p-1) / ||x||^(p-1)`` with
    the convention sign(0) = 0.  The result has dual q-norm exactly 1 and
    pairs with ``x`` to ``||x||``, both within :data:`ATOL`.
    """
    x = as_vector(space, x)
    n = norm(space, x)
    if n == 0.0:
        raise ZeroVectorError("the zero vector has no norming functional")
    return Functional(duality_map(space, x) / n ** (space.p - 1.0))


def duality_map(space: SpaceSpec, X: np.ndarray) -> np.ndarray:
    """``sign(X) * |X|^(p-1)`` elementwise: unnormalized norming functionals.

    For a unit row ``x`` the result is its norming functional; in general
    it pairs with ``x`` to ``||x||^p`` and has dual norm ``||x||^(p-1)``.
    The power comes from :func:`_pow_abs`.
    """
    return np.sign(X) * _pow_abs(np.abs(X), space.p - 1.0)


def dual_norm(space: SpaceSpec, f: Functional) -> float:
    """q-norm of a functional's coordinates (norm in the dual space)."""
    return float(batch_norm(space.dual, as_vector(space, f.coords)))


def random_unit(space: SpaceSpec, rng_seed) -> Vec:
    """A random vector on the unit sphere, deterministic given the seed.

    Coordinates are sampled from a standard normal and normalized in the
    p-norm.  This has full support on the sphere; it is uniform only for
    p = 2, which nothing downstream requires.
    """
    rng = _as_generator(rng_seed)
    while True:
        g = rng.standard_normal(space.d)
        if np.any(g != 0.0):
            return normalize(space, g)


def unit_batch(space: SpaceSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n unit vectors as rows of an (n, d) array; see :func:`random_unit`."""
    g = rng.standard_normal((n, space.d))
    norms = batch_norm(space, g)
    bad = norms == 0.0
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), space.d))
        norms = batch_norm(space, g)
        bad = norms == 0.0
    return g / norms[:, None]


def batch_norm(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """p-norms along the last axis of ``rows``, which is left unmodified.

    Runs :func:`_abs_norms`, so rows whose first row has an exact zero
    skip ``pow`` on their zeros, with the same result bit for bit.
    """
    return _abs_norms(space, np.abs(rows, dtype=float))


def pair_norms(space: SpaceSpec, arr: np.ndarray, x=None) -> np.ndarray:
    """The one pairwise kernel: n x n matrix of ``||x - (a_i - a_j)||``.

    ``arr`` holds the vectors ``a_i`` as rows.  With ``x`` None, entry
    ``(i, j)`` is ``||a_j - a_i||``: only the upper triangle is computed and
    then mirrored, so the matrix is exactly symmetric with zero diagonal.
    Each row is computed in one reused (n, d) buffer with the ufuncs of
    :func:`batch_norm` in the same order, so every entry equals the
    :func:`batch_norm` of its difference vector bit for bit.  Differences
    of sparse vectors (bases, shifted bases) are mostly exact zeros, which
    :func:`_abs_norms` keeps off ``pow``.
    """
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
        np.abs(rows, out=rows)
        norms = _abs_norms(space, rows)
        if x is None:
            out[i, i + 1:] = norms
            out[i + 1:, i] = norms
        else:
            out[i] = norms
    return out


def _row_norms(space: SpaceSpec, rows: np.ndarray) -> np.ndarray:
    """p-norms of the rows of a 2-D array, equal to :func:`norm` bit for bit.

    The sums of p-th powers run over contiguous rows, as in :func:`norm`;
    the root is taken per row by the scalar libm ``pow``, because numpy's
    array ``pow`` differs from it in the last bit on some inputs.
    """
    sums = np.add.reduce(_pow_abs(np.abs(rows), space.p), axis=-1)
    inv = 1.0 / space.p
    return np.array([math.pow(s, inv) for s in sums.tolist()])


def _abs_norms(space: SpaceSpec, buf: np.ndarray) -> np.ndarray:
    """p-norms along the last axis of ``buf``, which holds absolute values.

    Raises ``buf`` to the p-th power in place by :func:`_pow_abs`: when
    its first row has an exact zero, zeros are left as they are instead of
    going through ``pow``, which gives the same bits.
    """
    return np.sum(_pow_abs(buf, space.p), axis=-1) ** (1.0 / space.p)


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


def make_contraction(space: SpaceSpec, rows) -> ContractionMap:
    """Build a :class:`ContractionMap`, validating every row's dual norm."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != space.d:
        raise DimensionMismatchError(
            f"rows must have {space.d} coordinates, got {rows.shape[1]}"
        )
    row_norms = batch_norm(space.dual, rows)
    if np.any(row_norms > 1.0 + ATOL):
        raise ValueError(
            f"row dual norm exceeds 1: max {row_norms.max():.17g}"
        )
    return ContractionMap(rows)


def apply(cmap: ContractionMap, v: Vec) -> tuple[np.ndarray, float]:
    """Apply the contraction to ``v``; returns (values, sup-norm of values)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (cmap.rows.shape[1],):
        raise DimensionMismatchError(
            f"expected {cmap.rows.shape[1]} coordinates, got shape {v.shape}"
        )
    values = cmap.rows @ v
    return values, float(np.max(np.abs(values))) if values.size else 0.0


def _as_generator(rng_seed) -> np.random.Generator:
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)
