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

import numpy as np

from .errors import (CapacityError, CertificateError,
                     InsufficientClusterError, PreconditionError)
from .curves import HANNER_TOL, _check_eps, lp_delta
from .rounding import norm_error, unit_error
from .spaces import (SpaceSpec, as_rows, as_vector, batch_norm, norm,
                     norming_functional, pair_tiles)


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

    One O(n^2) scan of the tiles of the pairwise kernel
    :func:`spaces.pair_tiles`, keeping a running minimum.  A non-finite
    coordinate raises ``PreconditionError``.
    """
    return _min_pair(values for _, _, values in
                     pair_tiles(space, as_rows(space, seq)))


def certify(space: SpaceSpec, seq, threshold: float) -> SeparationCertificate:
    """The sequence's separation certificate, fresh from :func:`separation`."""
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


def baseline_extract(space: SpaceSpec, seq, x, tau: float) -> BaselineResult:
    """Window clustering under the norming functional of ``x``.

    Selects a maximal set of indices whose functional values fit in a
    window of width ``tau``; every selected ordered pair then satisfies
    ``||x - (v_i - v_j)|| >= 1 - tau`` because the pair value dominates its
    pairing with the unit functional.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must lie in (0, inf), got {tau}")
    _, selected, window, pair_min = _certified_cluster(
        space, as_rows(space, seq), x, tau, 1.0 - tau, 0.0)
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
    scanned tile by tile from the pairwise kernel :func:`spaces.pair_tiles`
    into a running minimum, so no n x n array is formed, and the selected
    vectors are read where they lie, not copied.
    """
    if eps is not None:
        _check_eps(eps)
    vecs = as_rows(space, seq)
    sep = separation(space, vecs)
    if eps is None:
        if sep == 0.0:
            raise PreconditionError(
                "sequence has two equal vectors (separation 0)")
        eps = min(sep, 2.0)
    if sep < eps - norm_error(space.d, sep, sep):
        raise PreconditionError(
            f"sequence separation {sep:.17g} is below eps={eps:.17g}")

    delta_eps = lp_delta(space.p, 2.0 * eps / 3.0)
    guaranteed = 1.0 + delta_eps
    f, selected, window, pair_min = _certified_cluster(
        space, vecs, x, 0.5 * delta_eps, guaranteed, HANNER_TOL)
    return ExtractionResult(functional=f, window=window, selected=selected,
                            pair_min=pair_min, guaranteed=guaranteed,
                            delta_eps=delta_eps)


def ramsey_extract(rows, split: float) -> tuple[list[int], str]:
    """Greedy-pivot monochromatic subset of a family of pair distances.

    ``rows`` is the strict upper triangle by rows: row i holds the values
    of the pairs (i, j), j > i, so it has ``n - i - 1`` entries; other
    lengths, such as a full n x n matrix, raise ``PreconditionError``.
    Values at most ``split`` are colored low, the rest high (ties at the
    split go low, matching the closed interval).  Each pivot keeps its
    majority color class; the majority-color pivots plus the final
    unpaired pivot form the output, whose pairwise values all lie on one
    side of the split.  Output size is at least ``ceil(log2 n) / 2``
    rounded down.
    """
    n = len(rows)
    if n < 2:
        raise PreconditionError("ramsey_extract needs at least 2 indices")
    if any(len(row) != n - i - 1 for i, row in enumerate(rows)):
        raise PreconditionError("row i must hold the pairs (i, j), j > i")

    remaining = np.arange(n)
    colored: list[tuple[int, str]] = []
    last = None
    while remaining.size:
        pivot, rest = int(remaining[0]), remaining[1:]
        if not rest.size:
            last = pivot
            break
        # remaining stays ascending, so rest lies above pivot
        low = np.asarray(rows[pivot])[rest - pivot - 1] <= split
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

    The seed must be 1-separated; its separation is the least of the
    n(n-1)/2 upper-triangle values, which the tiles of the pairwise kernel
    :func:`spaces.pair_tiles` write into one flat array, row by row, for
    the Ramsey extraction's pivots to read as row views.  If the extracted
    monochromatic class sits in the high branch the seed subsequence
    itself is the output.  In the low branch, candidate differences
    ``y = xi_a - xi_b`` of the extracted seed vectors, read in place, are
    enumerated in the diagonal-sweep order of :func:`_open_pairs`,
    skipping pairs touching indices already consumed by an accepted
    candidate; a candidate is accepted when it keeps distance
    ``1 + delta1`` to all prior outputs (their differences from it and
    the powers go to one reused (max_len, d) buffer), and its
    normalization then stays ``1 + delta1/2``-separated.  In either branch
    one final :func:`certify` of the whole output asserts that separation.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    seed = as_rows(space, seed)
    rows = _upper_triangle(space, seed)
    sep = _min_pair(rows)
    if sep < 1.0 - norm_error(space.d, sep, sep):
        raise PreconditionError(
            f"seed separation {sep:.17g} is below 1")
    if not seed_description:
        seed_description = f"{len(seed)} seed vectors in {space}"

    delta1 = lp_delta(space.p, 2.0 / 3.0)
    split = 1.0 + 0.5 * delta1

    extracted, branch = ramsey_extract(rows, split)
    del rows  # the triangle is read no more

    steps: list[TraceStep] = []
    if branch == "high":
        # certify passes: it recomputes the entries the split judged above it
        output, status = seed[extracted[:max_len]], "completed"
    else:
        consumed: set[int] = set()
        # each accepted candidate consumes two of the extracted indices
        outputs = np.empty((min(max_len, len(extracted) // 2), space.d))
        diffs = np.empty_like(outputs)  # each candidate's outputs - y
        m = 0
        for pos, (a, b) in _open_pairs(len(extracted), consumed):
            y = seed[extracted[a]] - seed[extracted[b]]
            y_norm = norm(space, y)
            if m:
                diff = np.subtract(outputs[:m], y, out=diffs[:m])
                dists = batch_norm(space, diff, out=diff)
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


def _upper_triangle(space: SpaceSpec, seed: np.ndarray) -> list[np.ndarray]:
    """The values of the pairs i < j of ``seed`` as row views of one flat
    n(n-1)/2 array, row i holding the pairs (i, j), j > i; the tiles of
    :func:`spaces.pair_tiles` are written into it where they belong."""
    n = len(seed)
    tri = np.empty(n * (n - 1) // 2)
    starts = [i * (2 * n - i - 1) // 2 for i in range(n)]  # row i's (i, i+1)
    for i, j, values in pair_tiles(space, seed):
        for r, row in enumerate(values, start=i):
            at = starts[r] + j - r - 1
            tri[at:at + len(row)] = row
    return [tri[s:s + n - i - 1] for i, s in enumerate(starts)]


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


def vectors_to_csv(out, vectors: np.ndarray) -> None:
    """Write to the text stream ``out`` one vector per line, coordinates
    at 17 significant digits."""
    for v in vectors.tolist():
        out.write(",".join(f"{c:.17g}" for c in v) + "\n")


def _min_pair(arrays) -> float:
    """Least value in ``arrays``, arrays of pair values, as a running
    minimum: one array is held at a time.  Empty ones hold no pair."""
    least = min((values.min() for values in arrays if values.size),
                default=None)
    if least is None:
        raise PreconditionError("separation needs at least 2 vectors")
    return float(least)


def _largest_cluster(values: np.ndarray,
                     width: float) -> tuple[tuple[int, ...], tuple[float, float]]:
    """Largest index set whose values fit in a closed window of ``width``.

    Ties break to the leftmost window in sorted order, then to smallest
    indices (stable sort).  Raises ``InsufficientClusterError`` with
    pigeonhole diagnostics when no window holds two points: ``ceil(range /
    width)`` windows cover the range, so one value more puts two in one.
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
        window_count = int(math.ceil(value_range / width)) if width > 0 else 0
        raise InsufficientClusterError(
            f"no window of width {width:.17g} holds 2 of {n} values",
            best_window=(float(svals[best_lo]), float(svals[best_lo]) + width)
            if n else None,
            best_count=best_size, value_range=value_range,
            window_count=window_count, min_n=max(2, window_count + 1))
    lo = float(svals[best_lo])
    members = order[best_lo:best_lo + best_size]
    return tuple(sorted(int(i) for i in members)), (lo, lo + width)


def _certified_cluster(space: SpaceSpec, vecs: np.ndarray, x, width: float,
                       guaranteed: float, accuracy: float):
    """Norming functional of ``x``, largest value window, and ``pair_min``.

    ``x`` must be unit within :func:`rounding.unit_error`.  ``pair_min``, the
    min over selected pairs i != j of ``||x - (v_i - v_j)||``, must not be
    below ``guaranteed`` by more than ``accuracy`` (the threshold's own)
    and the rounding of the pair value, its two differences (``v_i - v_j =
    x - z``, of norm at most ``||x|| + ||z||``) and the threshold, plus how
    far the exact ``||x||`` may be from 1; else ``CertificateError``.
    """
    x, d = as_vector(space, x), space.d
    n = norm(space, x)
    if not abs(n - 1.0) <= unit_error(d, n):
        raise PreconditionError(f"x must be a unit vector, norm {n!r}")
    f = norming_functional(space, x)
    selected, window = _largest_cluster(vecs @ f, width)
    pair_min = _min_pair(values for _, _, values in pair_tiles(
        space, vecs, x, selected))
    margin = (norm_error(d, pair_min, n + 2.0 * pair_min + guaranteed)
              + abs(n - 1.0) + norm_error(d, n) + accuracy)
    if pair_min < guaranteed - margin:
        raise CertificateError(
            f"pair value {pair_min:.17g} violates the bound "
            f"{guaranteed:.17g}; release-blocking defect")
    return f, selected, window, pair_min
