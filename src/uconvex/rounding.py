"""The one rounding model of the p-norms of :mod:`uconvex.spaces`.

Every check that compares a computed norm with a threshold allows
:func:`norm_error` or :func:`unit_error`.  Both are plain ``math``, so the
curve invariants of :mod:`uconvex.curves` load no numpy.
"""

from __future__ import annotations

import math

# Ulps one float64 ``pow`` or root may be off by: numpy's SIMD kernels are held
# to 4, libm's to 1 (both below 0.7 measured: numpy 2.4.6, x86-64 AVX-512).
POW_ULPS = 4
_U = 2.0 ** -53  # float64 unit roundoff


def norm_error(d: int, value: float, rounded: float = 0.0) -> float:
    """A-priori bound on a computed p-norm's error: the one rounding model.

    A d-vector's norm of size ``value``, computed as
    :func:`spaces._power_sums` and a root, is within the returned amount of
    the exact norm for every p > 1, while the p-th powers are normal.  With
    u = 2^-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3): each ``|a_i|^p`` is off by a factor within ``1 +- eta``, ``eta =
    2u POW_ULPS``; a sum of d nonnegative terms, in any order, by one within
    ``1 +- gamma``, ``gamma = (d-1)u / (1 - (d-1)u)``; the root keeps a
    factor ``1 + s`` between 1 and ``1 + s``, adds its own ``eta``, and
    its exponent, ``1/p`` rounded, adds ``u |ln value|``.  So the relative
    error is at most ``rel = (1+eta)^2 (1+gamma) - 1 + u |ln value|``.
    ``rounded`` sums the magnitudes (norms, for vectors) of the exact
    results of the other rounded operations from the stored floats to the
    compared value, such as the differences that formed the argument; each
    moves it by at most u times that.  Dividing by ``1 - rel`` lets
    ``value`` be the computed norm and covers second-order terms.
    """
    eta = 2.0 * _U * POW_ULPS
    gamma = (d - 1) * _U / (1.0 - (d - 1) * _U)
    rel = (gamma + (2.0 * eta + eta * eta) * (1.0 + gamma)
           + _U * (abs(math.log(abs(value))) if value else 0.0))
    return (rel * abs(value) + _U * rounded) / (1.0 - rel)


def unit_error(d: int, n: float) -> float:
    """Bound on ``|n - 1|`` for the computed norm ``n`` of a ``normalize(v)``.

    ``normalize`` divides by a norm within :func:`norm_error` (its
    ``u |ln ||v|||`` below ``710 u > 1024 u ln 2`` for any v) and rounds each
    entry once; measuring ``n`` adds ``norm_error(d, n)``.
    """
    return norm_error(d, 1.0, 1.0) + 710.0 * _U + norm_error(d, n)
