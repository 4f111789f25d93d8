"""Separated sequences: seeds, certificates, extraction and construction.

The two theorem-backed procedures both turn an abstract compactness proof
into a finite certified computation:

* ``theorem1_extract`` clusters functional values of a separated sequence
  and certifies ``||x - (v_i - v_j)|| >= 1 + delta(2*eps/3)`` for every
  pair in the cluster;
* ``theorem3_construct`` runs the Ramsey dichotomy on a 1-separated seed
  and, in the low branch, greedily normalizes differences to produce a
  ``(1 + delta(2/3)/2)``-separated sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (CapacityError, CertificateError, DimensionMismatchError,
                     InsufficientClusterError, PreconditionError)
from .modulus import _check_eps, lp_delta
from .search import EvalBudget, maximize_min_distance
from .spaces import (SpaceSpec, as_vector, batch_norm, norm,
                     norming_functional, pair_norms, unit_batch)

# Arithmetic slack on exact theorem inequalities.
SLACK = 1e-9


@dataclass(frozen=True)
class SeparationCertificate:
    """Minimum pairwise distance of a vector family versus a threshold.

    ``min_pairwise`` is recomputed from scratch at certification time; for
    fewer than two vectors it is +inf and the certificate is vacuous.
    """

    indices: tuple[int, ...]
    min_pairwise: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "min_pairwise": None if math.isinf(self.min_pairwise)
            else self.min_pairwise,
            "threshold": self.threshold,
            "pass": self.passed,
        }


@dataclass(frozen=True, eq=False)
class BaselineResult:
    """Baseline window clustering: indices plus the certified pair value."""

    selected: tuple[int, ...]
    window: tuple[float, float]
    pair_min: float
    guaranteed: float  # 1 - tau


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Certified output of the theorem-1 extraction."""

    functional: np.ndarray  # norming functional of x
    window: tuple[float, float]
    selected: tuple[int, ...]
    pair_min: float
    guaranteed: float  # 1 + delta(2*eps/3)
    delta_eps: float


@dataclass(frozen=True)
class TraceStep:
    """One evaluated candidate pair in the greedy construction."""

    candidate_index: int          # position in the order of _open_pairs
    pair: tuple[int, int]
    y_norm: float
    min_dist_to_prior: float | None
    accepted: bool


@dataclass(frozen=True, eq=False)
class ConstructionTrace:
    """Full record of a theorem-3 run."""

    seed_description: str
    delta1: float
    branch: str                   # "low" | "high"
    steps: tuple[TraceStep, ...]
    output: np.ndarray            # (n, d), one output vector per row
    final_certificate: SeparationCertificate
    status: str                   # "completed" | "exhausted"


def separation(space: SpaceSpec, seq) -> float:
    """Exact minimum pairwise distance over the sequence.

    One O(n^2) scan by the pairwise kernel :func:`spaces.pair_norms`.
    A non-finite coordinate raises ``PreconditionError``.
    """
    return _min_off_diagonal(pair_norms(space, _finite_rows(space, seq)))


def certify(space: SpaceSpec, seq, threshold: float) -> SeparationCertificate:
    """Recompute a separation certificate of the whole sequence from scratch.

    The minimum comes from :func:`separation`, hence from the pairwise
    kernel :func:`spaces.pair_norms`.
    """
    min_pairwise = separation(space, seq) if len(seq) >= 2 else math.inf
    return SeparationCertificate(
        indices=tuple(range(len(seq))),
        min_pairwise=min_pairwise,
        threshold=float(threshold),
        passed=min_pairwise >= threshold,
    )


def unit_basis_seed(space: SpaceSpec, n: int) -> np.ndarray:
    """First ``n`` standard basis vectors as (n, d) rows; distances 2^(1/p)."""
    if not 1 <= n <= space.d:
        raise CapacityError(f"basis seed needs 1 <= n <= d={space.d}, got {n}")
    return np.eye(n, space.d)


def shifted_basis_seed(space: SpaceSpec, n: int) -> np.ndarray:
    """Unit vectors ``(e_0 + e_k) / 2^(1/p)``, k = 1..n, as (n, d) rows.

    Pairwise distances are exactly ``||e_i - e_j|| / 2^(1/p) = 1`` for every
    exponent, which lands the whole seed in the low Ramsey branch.
    """
    if not 1 <= n <= space.d - 1:
        raise CapacityError(
            f"shifted seed needs 1 <= n <= d-1={space.d - 1}, got {n}")
    seed = np.eye(n, space.d, k=1)
    seed[:, 0] = 1.0
    return seed / 2.0 ** (1.0 / space.p)


def riesz_seed(space: SpaceSpec, n: int, budget: int,
               rng_seed) -> np.ndarray:
    """Greedy 1-separated unit vectors, as (m, d) rows, m <= n.

    Each new vector maximizes the minimum distance to all previous ones
    (random multistart plus the shared pattern refinement); construction
    stops early once the optimizer cannot reach 1, the separation that
    :func:`theorem3_construct` requires of its seed and checks as its
    precondition.  Short output is signaled by fewer rows, never an error.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(rng_seed)
    vectors = unit_batch(space, rng, 1)
    share = max(1, budget // max(1, n - 1))
    for _ in range(n - 1):
        cand, min_dist = maximize_min_distance(space, vectors, rng,
                                               EvalBudget(share))
        if min_dist < 1.0:
            break
        vectors = np.vstack([vectors, cand])
    return vectors


def baseline_extract(space: SpaceSpec, seq, x, tau: float) -> BaselineResult:
    """Window clustering under the norming functional of ``x``.

    Selects a maximal set of indices whose functional values fit in a
    window of width ``tau``; every selected ordered pair then satisfies
    ``||x - (v_i - v_j)|| >= 1 - tau`` because the pair value dominates its
    pairing with the unit functional.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must lie in (0, inf), got {tau}")
    x = _require_unit(space, x)
    _, selected, window, pair_min = _certified_cluster(
        space, _finite_rows(space, seq), x, tau, 1.0 - tau)
    return BaselineResult(selected=selected, window=window,
                          pair_min=pair_min, guaranteed=1.0 - tau)


def theorem1_extract(space: SpaceSpec, seq, x,
                     eps: float | None) -> ExtractionResult:
    """Certified extraction: all pair values at least ``1 + delta(2*eps/3)``.

    The input sequence must be eps-separated (verified); ``eps=None`` takes
    the measured separation as eps, capped at 2 since a sequence separated
    by more is also 2-separated and delta lives on (0, 2]; a measured 0,
    two equal vectors, raises ``PreconditionError``.  Indices whose
    functional values lie in a window of width ``delta_eps / 2`` are
    selected (Theorem 1); for any two of them the vector
    ``xi = x - (v_i - v_j)`` pairs with the norming functional to at least
    ``1 - delta_eps / 2`` by construction of the window, and eps-separation
    then forces ``||xi|| >= 1 + delta_eps`` -- that bound is asserted pair
    by pair, not assumed.  Both the separation and the pair values are
    computed by the pairwise kernel :func:`spaces.pair_norms`.
    """
    if eps is not None:
        _check_eps(eps)
    x = _require_unit(space, x)
    vecs = _finite_rows(space, seq)
    sep = separation(space, vecs)
    if eps is None:
        if sep == 0.0:
            raise PreconditionError(
                "sequence has two equal vectors (separation 0)")
        eps = min(sep, 2.0)
    if sep < eps - SLACK:
        raise PreconditionError(
            f"sequence separation {sep:.17g} is below eps={eps:.17g}")

    delta_eps = lp_delta(space.p, 2.0 * eps / 3.0)
    guaranteed = 1.0 + delta_eps
    f, selected, window, pair_min = _certified_cluster(
        space, vecs, x, 0.5 * delta_eps, guaranteed)
    return ExtractionResult(functional=f, window=window, selected=selected,
                            pair_min=pair_min, guaranteed=guaranteed,
                            delta_eps=delta_eps)


def ramsey_extract(values, split: float) -> tuple[list[int], str]:
    """Greedy-pivot monochromatic subset of a symmetric distance matrix.

    Entries at most ``split`` are colored low, the rest high (ties at the
    split go low, matching the closed interval).  Each pivot keeps its
    majority color class; the majority-color pivots plus the final
    unpaired pivot form the output, whose pairwise entries all lie on one
    side of the split.  Output size is at least ``ceil(log2 n) / 2``
    rounded down.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise PreconditionError("ramsey_extract needs at least 2 indices")
    if values.shape != (n, n) or not np.array_equal(values, values.T):
        raise PreconditionError("distance matrix must be square and symmetric")
    if np.any(np.diag(values) != 0.0):
        raise PreconditionError("distance matrix must have zero diagonal")

    remaining = np.arange(n)
    colored: list[tuple[int, str]] = []
    last = None
    while remaining.size:
        pivot, rest = int(remaining[0]), remaining[1:]
        if not rest.size:
            last = pivot
            break
        low = values[pivot, rest] <= split
        n_low = int(np.count_nonzero(low))
        if n_low >= rest.size - n_low:
            colored.append((pivot, "low"))
            remaining = rest[low]
        else:
            colored.append((pivot, "high"))
            remaining = rest[~low]

    n_low = sum(1 for _, c in colored if c == "low")
    branch = "low" if n_low >= len(colored) - n_low else "high"
    selected = [i for i, c in colored if c == branch]
    if last is not None:
        selected.append(last)
    return sorted(selected), branch


def theorem3_construct(space: SpaceSpec, seed, max_len: int,
                       seed_description: str = "") -> ConstructionTrace:
    """Ramsey dichotomy plus greedy normalized differences.

    The seed must be 1-separated; its separation is read off the one
    distance matrix that the pairwise kernel :func:`spaces.pair_norms`
    builds for the Ramsey extraction.  If the extracted monochromatic class
    sits in the high branch the seed subsequence itself is the output.  In
    the low branch, candidate differences ``y = xi_a - xi_b`` are
    enumerated in the diagonal-sweep order of :func:`_open_pairs`, skipping
    pairs touching indices already consumed by an accepted candidate; a
    candidate is accepted when it keeps distance ``1 + delta1`` to all
    prior outputs, and its normalization then stays
    ``1 + delta1/2``-separated.  In either branch one final
    :func:`certify` of the whole output asserts that separation.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    seed = _finite_rows(space, seed)
    dist = pair_norms(space, seed)
    sep = _min_off_diagonal(dist)
    if sep < 1.0 - SLACK:
        raise PreconditionError(
            f"seed separation {sep:.17g} is below 1")
    if not seed_description:
        seed_description = f"{len(seed)} seed vectors in {space}"

    delta1 = lp_delta(space.p, 2.0 / 3.0)
    split = 1.0 + 0.5 * delta1

    extracted, branch = ramsey_extract(dist, split)
    xi = seed[extracted]

    steps: list[TraceStep] = []
    if branch == "high":
        # certify passes: it recomputes the entries the split judged above it
        output, status = xi[:max_len], "completed"
    else:
        consumed: set[int] = set()
        # each accepted candidate consumes two indices of xi
        outputs = np.empty((min(max_len, len(xi) // 2), space.d))
        m = 0
        for pos, (a, b) in _open_pairs(len(xi), consumed):
            y = xi[a] - xi[b]
            y_norm = norm(space, y)
            if m:
                dists = batch_norm(space, outputs[:m] - y)
                min_dist = float(dists.min())
                accepted = bool(min_dist >= 1.0 + delta1)
            else:
                min_dist = None
                accepted = True
            steps.append(TraceStep(candidate_index=pos, pair=(a, b),
                                   y_norm=y_norm, min_dist_to_prior=min_dist,
                                   accepted=accepted))
            if not accepted:
                continue
            consumed.update((a, b))
            outputs[m] = y / y_norm
            m += 1
            if m >= max_len:
                break
        output = outputs[:m]
        status = "completed" if m >= max_len else "exhausted"

    cert = certify(space, output, threshold=split)
    if not cert.passed:
        raise CertificateError("final certificate failed after construction")
    return ConstructionTrace(
        seed_description=seed_description, delta1=delta1, branch=branch,
        steps=tuple(steps), output=output, final_certificate=cert,
        status=status)


def _open_pairs(k: int, consumed: set[int]):
    """Pairs of ``k`` indices avoiding ``consumed``, as ``(position, pair)``.

    The order is the diagonal sweep over ordered pairs of distinct
    indices, (0,1),(1,0),(0,2),(2,0),(1,2),(2,1),(0,3),...: block ``s``
    holds the pairs whose larger index is ``s``, starts at position
    ``s(s-1)``, and holds ``(t, s)`` at position ``s(s-1) + 2t`` and
    ``(s, t)`` right after it.  ``consumed`` is read again after each
    yield, so the caller may grow it in between; a consumed ``s`` skips
    the rest of its block at once instead of enumerating it.
    """
    for s in range(1, k):
        base = s * (s - 1)
        for t in range(s):
            if s in consumed:
                break
            if t in consumed:
                continue
            yield base + 2 * t, (t, s)
            if s not in consumed:
                yield base + 2 * t + 1, (s, t)


def vectors_to_csv(path, vectors: np.ndarray) -> None:
    """One vector per row, coordinates at 17 significant digits."""
    lines = [",".join(f"{c:.17g}" for c in v) for v in vectors.tolist()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _min_off_diagonal(m: np.ndarray) -> float:
    """Minimum off-diagonal entry of a contiguous n x n matrix.

    Dropping the first flat entry leaves n-1 rows of n+1 entries, each
    ending on a diagonal entry; cutting the last column off leaves a view
    of exactly the off-diagonal entries, with no copy and no index arrays.
    """
    n = len(m)
    if n < 2:
        raise PreconditionError("separation needs at least 2 vectors")
    return float(m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].min())


def _finite_rows(space: SpaceSpec, seq) -> np.ndarray:
    """The vectors of ``seq`` as the rows of an (n, d) float array.

    An empty ``seq`` has shape (0, d); ragged rows, a wrong width or a flat
    vector raise ``DimensionMismatchError``.  A NaN or infinite coordinate
    raises ``PreconditionError``: distances involving it are not numbers,
    and a NaN minimum compares false against every threshold, so a
    certificate would silently pass.
    """
    try:
        rows = (np.asarray(seq, dtype=float) if len(seq)
                else np.empty((0, space.d)))
    except ValueError:
        raise DimensionMismatchError("ragged or non-numeric rows") from None
    if rows.ndim != 2 or rows.shape[1] != space.d:
        raise DimensionMismatchError(
            f"expected rows of {space.d} coordinates, got shape {rows.shape}")
    if np.count_nonzero(np.isfinite(rows)) < rows.size:
        raise PreconditionError("sequence has a non-finite coordinate")
    return rows


def _require_unit(space: SpaceSpec, x) -> np.ndarray:
    x = as_vector(space, x)
    if not abs(norm(space, x) - 1.0) <= SLACK:
        raise PreconditionError(f"x must be a unit vector, norm {norm(space, x)!r}")
    return x


def _largest_cluster(values: np.ndarray,
                     width: float) -> tuple[tuple[int, ...], tuple[float, float]]:
    """Largest index set whose values fit in a closed window of ``width``.

    Ties break to the leftmost window in sorted order, then to smallest
    indices (stable sort).  Raises ``InsufficientClusterError`` with
    pigeonhole diagnostics when no window holds two points.
    """
    order = np.argsort(values, kind="stable")
    svals = values[order]
    n = len(svals)
    best_size, best_lo = 0, 0
    j = 0
    for i in range(n):
        j = max(j, i)
        while j < n and svals[j] - svals[i] <= width:
            j += 1
        if j - i > best_size:
            best_size, best_lo = j - i, i
    if best_size < 2:
        value_range = float(svals[-1] - svals[0]) if n else 0.0
        window_count = int(math.ceil(2.0 * value_range / width)) if width > 0 else 0
        raise InsufficientClusterError(
            f"no window of width {width:.17g} holds 2 of {n} values",
            best_window=(float(svals[best_lo]), float(svals[best_lo]) + width)
            if n else None,
            best_count=best_size,
            value_range=value_range,
            window_count=window_count,
            min_n=window_count + 1,
        )
    lo = float(svals[best_lo])
    members = order[best_lo:best_lo + best_size]
    return tuple(sorted(int(i) for i in members)), (lo, lo + width)


def _certified_cluster(space: SpaceSpec, vecs: np.ndarray, x, width: float,
                       guaranteed: float):
    """Norming functional of ``x``, largest value window, and ``pair_min``.

    ``pair_min`` is the min over selected ordered pairs i != j of
    ``||x - (v_i - v_j)||``; below ``guaranteed - SLACK`` it raises
    ``CertificateError``.
    """
    f = norming_functional(space, x)
    selected, window = _largest_cluster(vecs @ f, width)
    pair_min = _min_off_diagonal(pair_norms(space, vecs[list(selected)], x))
    if pair_min < guaranteed - SLACK:
        raise CertificateError(
            f"pair value {pair_min:.17g} violates the bound "
            f"{guaranteed:.17g}; release-blocking defect")
    return f, selected, window, pair_min
