"""Randomized adversarial verification of the quantitative statements.

Each sampler statement is one entry of :data:`SAMPLERS`: a delta rule,
trials drawn near the hypothesis boundary (where the inequalities are
tight) and the hypotheses as one vectorised mask.  One driver filters the
trials through the hypotheses and asserts the shared conclusion
``||x - x'|| < eps`` on every kept trial.  Violations are self-contained
records; :func:`reverify_violation` applies the same hypotheses and
conclusion to a batch of one built from a record.  For the theorem-backed
statements any violation is a release-blocking defect in either the
sampler or the modulus engines, never an expected outcome.

A batch's draws are whole but for the last, which is taken one
:func:`spaces.row_blocks` block at a time with the same numbers (drawing
any other per block would shift the numbers after it); the batch is
judged block by block, and the conclusion is normed on the kept rows only.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .curves import (STATEMENTS, VerificationReport, _check_eps, _field,
                     curve_violated, delta_from_constraint, lp_delta)
from .errors import PreconditionError, SamplerExhaustedError
from .sampling import draw_units, unit_batch, unit_blocks
from .spaces import (SpaceSpec, as_rows, as_vector, batch_norm, block_buffer,
                     duality_map, row_blocks)

BATCH = 2048
MAX_ATTEMPT_FACTOR = 1000  # give up if kept rate stays near zero


# ----------------------------- statement table -----------------------------

class _Sampler(NamedTuple):
    """What one sampler statement adds to the shared driver.

    ``batch`` makes a batch's draws in their fixed order, the last one per
    block, and yields ``(blk, x, x', witness)`` per row block, the
    witness valid until the next block; ``hypotheses`` returns the mask
    of rows satisfying them all and ``fields(i)``, row ``i``'s record
    fields.  ``witness`` is its record key; ``ranked`` takes the rank ``k``.
    """

    delta: Callable
    batch: Callable
    hypotheses: Callable
    witness: str
    ranked: bool = False


def _lemma23_batch(space, rng, n, delta, t_scale, k):
    """Unit x, a rim-stressed x' and the norming functional of x."""
    X, Xp = _near_unit_pairs(space, rng, n, delta, t_scale)
    for blk in row_blocks(n, space.d):
        yield blk, X[blk], Xp[blk], duality_map(space, X[blk])


def _lemma23_hypotheses(space, delta, x, xp, f):
    """Hypotheses (i) and (iii) of :func:`check_lemma23`."""
    norm_xp = batch_norm(space, xp)
    pairing = np.einsum("ij,ij->i", x - xp, f)
    mask = (np.abs(1.0 - norm_xp) < delta) & (np.abs(pairing) < delta)
    return mask, lambda i: {"norm_x_prime": float(norm_xp[i]),
                            "pairing_diff": float(pairing[i])}


def _thm2_batch(space, rng, n, delta, t_scale, k):
    """Unit x, unit x' near x, and the norming functional of x or, for
    half the rows, of a nearby point.

    ``X`` and ``U`` are whole draws; ``W``, the batch's last draw, is
    taken per block from :func:`sampling.unit_blocks`.  Per block, x' is
    built in place in ``U``'s block and the anchor in ``W``'s, as
    :func:`_near_unit_pairs` does: ``t*u + x`` and ``f*w + x`` are the
    sums ``x + t*u`` and ``x + f*w``, bit for bit.
    """
    f_scale = 0.7 * math.sqrt(delta)
    X = unit_batch(space, rng, n)
    U = unit_batch(space, rng, n)
    perturb = rng.random(n) < 0.5
    for blk, anchor in unit_blocks(space, rng, n):
        x, xp = X[blk], U[blk]
        xp *= t_scale
        xp += x
        xp /= batch_norm(space, xp)[:, None]
        anchor *= f_scale  # x + f*w on the rows near x, x on the others
        anchor += x
        np.copyto(anchor, x, where=~perturb[blk, None])
        anchor /= batch_norm(space, anchor)[:, None]
        yield blk, x, xp, duality_map(space, anchor, out=anchor)


def _thm2_hypotheses(space, delta, x, xp, f):
    """Conditions (iv) and (v) of :func:`check_thm2_condition3`."""
    pairing_x = np.einsum("ij,ij->i", x, f)
    pairing = np.einsum("ij,ij->i", x - xp, f)
    mask = (np.abs(pairing_x) > 1.0 - delta) & (np.abs(pairing) < delta)
    return mask, lambda i: {"pairing_x": float(pairing_x[i]),
                            "pairing_diff": float(pairing[i])}


def _remark45_batch(space, rng, n, delta, t_scale, k):
    """Unit x, a rim-stressed x' and the k rows of T: the norming
    functional of x, then k - 1 random unit-dual functionals.

    The random functionals, the batch's last draw, are drawn per block by
    :func:`sampling.draw_units` in the dual space, so no (n, k, d) array is
    built.  The rows, the draw and its powers go to three block buffers
    reused by every block.
    """
    X, Xp = _near_unit_pairs(space, rng, n, delta, t_scale)
    d = space.d
    rows_buf = block_buffer(n, k * d).reshape(-1, k, d)
    G_buf, powers = (np.empty((len(rows_buf), k - 1, d)) for _ in range(2))
    for blk in row_blocks(n, k * d):
        x = X[blk]
        rows = rows_buf[:len(x)]
        duality_map(space, x, out=rows[:, 0, :])
        draw_units(space.dual, rng, G_buf[:len(x)], powers[:len(x)],
                   out=rows[:, 1:, :])
        yield blk, x, Xp[blk], rows


def _remark45_hypotheses(space, delta, x, xp, rows):
    """Hypotheses (i) to (iii) of :func:`check_remark45`."""
    norm_xp = batch_norm(space, xp)
    tx = np.einsum("nkd,nd->nk", rows, x)
    sup_tx = np.max(np.abs(tx), axis=1)
    sup_diff = np.max(np.abs(tx - np.einsum("nkd,nd->nk", rows, xp)), axis=1)
    mask = ((np.abs(1.0 - norm_xp) < delta) & (sup_tx > 1.0 - delta)
            & (sup_diff < delta))
    return mask, lambda i: {"norm_x_prime": float(norm_xp[i]),
                            "sup_tx": float(sup_tx[i]),
                            "sup_diff": float(sup_diff[i])}


# One entry per name of curves.STATEMENTS, in its order.  The delta rules
# name lp_delta and delta_from_constraint at call time, so rebinding them in
# this module reaches the samplers.
SAMPLERS = dict(zip(STATEMENTS, (
    _Sampler(
        delta=lambda space, eps: lp_delta(space.p, 2.0 * eps / 3.0),
        batch=_lemma23_batch, hypotheses=_lemma23_hypotheses,
        witness="functional"),
    _Sampler(
        delta=lambda space, eps: delta_from_constraint(space.p, eps),
        batch=_thm2_batch, hypotheses=_thm2_hypotheses,
        witness="functional"),
    _Sampler(
        delta=lambda space, eps: 0.5 * lp_delta(space.p, 4.0 * eps / 5.0),
        batch=_remark45_batch, hypotheses=_remark45_hypotheses,
        witness="rows", ranked=True),
), strict=True))


def _conclusion(space: SpaceSpec, eps: float, x, xp, rows):
    """The shared conclusion ||x - x'|| < eps on ``rows``, and the
    distances."""
    diff = x[rows]
    diff -= xp[rows]
    dist = batch_norm(space, diff, out=diff)
    return dist < eps, dist


def check_lemma23(space: SpaceSpec, eps: float, trials: int,
                  rng_seed) -> VerificationReport:
    """Near-unit vectors close in the norming pairing stay eps-close.

    Per trial: unit x, T = its norming functional (so ||Tx|| = 1 exactly),
    x' a boundary-stressed perturbation of x.  With delta = delta(2*eps/3),
    trials satisfying |1 - ||x'||| < delta and |<x - x', x*>| < delta must
    conclude ||x - x'|| < eps.
    """
    return _sample("lemma23", space, eps, trials, rng_seed)


def check_thm2_condition3(space: SpaceSpec, eps: float, trials: int,
                          rng_seed) -> VerificationReport:
    """Uniform Kadec-Klee check: conditions (iv), (v) force eps-closeness.

    delta comes from the constraint ``delta <= delta(eps - delta) / 2``.
    Per trial: unit x, unit x', and a unit functional that is either the
    norming functional of x or of a nearby point; trials with
    |<x, x*>| > 1 - delta and |<x - x', x*>| < delta must conclude
    ||x - x'|| < eps.
    """
    return _sample("thm2_condition3", space, eps, trials, rng_seed)


def check_remark45(space: SpaceSpec, eps: float, trials: int, k: int,
                   rng_seed) -> VerificationReport:
    """Contraction-rank-k variant with delta = delta(4*eps/5) / 2.

    T maps into l^inf_k: first row the norming functional of x (so
    ||Tx|| > 1 - delta holds exactly), remaining rows random unit-dual
    functionals.  Kept trials satisfy (i) |1 - ||x'||| < delta, (ii)
    ||Tx||_sup > 1 - delta and (iii) ||Tx - Tx'||_sup < delta and must
    conclude ||x - x'|| < eps.  The source statement is given without
    proof, so a reproducible violation here would be a finding to surface,
    not a sampler bug.
    """
    return _sample("remark45", space, eps, trials, rng_seed, k)


def _sample(statement: str, space: SpaceSpec, eps: float, trials: int,
            rng_seed, k: int = 1) -> VerificationReport:
    """The one sampler driver: ``trials`` >= 1 kept trials of one cell."""
    _check_counts(trials, k)
    st = SAMPLERS[statement]
    delta = st.delta(space, eps)
    rng = np.random.default_rng(rng_seed)
    t_scale = min(1.0, math.sqrt(2.0 * delta))
    attempted = kept = 0
    violations: list[dict] = []
    while kept < trials:
        n = _remaining(attempted, trials, statement, space, eps)
        keep = np.empty(n, dtype=bool)
        for blk, x, xp, w in st.batch(space, rng, n, delta, t_scale, k):
            keep[blk], fields = st.hypotheses(space, delta, x, xp, w)
            kept_rows = np.flatnonzero(keep[blk])
            holds, dist = _conclusion(space, eps, x, xp, kept_rows)
            for i, dist_i in zip(kept_rows[~holds], dist[~holds]):
                violations.append({
                    "p": space.p, "eps": eps, "delta": delta,
                    "x": x[i].tolist(), "x_prime": xp[i].tolist(),
                    st.witness: w[i].tolist(), **fields(i),
                    "dist": float(dist_i),
                })
        # x, xp and w are views of the batch's draws: release them before
        # the next batch is drawn
        x = xp = w = None
        attempted += n
        kept += int(keep.sum())
        t_scale = _adapt(t_scale, keep.mean())
    return VerificationReport(
        statement=statement, p=space.p, d=space.d, eps=eps,
        delta_used=delta, trials=attempted, kept=kept,
        violations=tuple(violations), rng_seed=_seed_int(rng_seed))


def reverify_violation(statement: str, rec: dict) -> bool:
    """Re-evaluate a violation record from its stored data alone.

    A curve record goes through :func:`curves.curve_violated`.  A sampler
    record goes through its statement's hypotheses and the shared
    conclusion as a batch of one row, the sampler's own arithmetic.  Its
    vectors and witness (a functional, or k >= 1 functional rows) must be
    finite and of the record's dimension, eps in (0, 2] and delta finite
    and positive; else ``UconvexError``, which names a missing or
    unreadable field.
    """
    if statement == "modulus_properties":
        return curve_violated(rec)

    st = _sampler(statement)
    space = SpaceSpec(p=_field(rec, "p", float), d=_field(rec, "x", len))
    x, xp = (_field(rec, key, lambda v: as_vector(space, v))[None]
             for key in ("x", "x_prime"))
    witness = as_rows if st.ranked else as_vector
    w = _field(rec, st.witness, lambda v: witness(space, v))[None]
    eps, delta = _field(rec, "eps", float), _field(rec, "delta", float)
    _check_eps(eps)
    if not (0.0 < delta < math.inf and w.size):
        raise PreconditionError(f"record needs a finite delta > 0 and a "
                                f"{st.witness!r} witness, got delta={delta!r}")
    mask, _ = st.hypotheses(space, delta, x, xp, w)
    holds, _ = _conclusion(space, eps, x, xp, np.arange(1))
    return bool(mask[0] and not holds[0])


def run_grid(statement: str, ps, ds, eps_values, trials: int, rng_seed,
             *, k: int = 4) -> list[VerificationReport]:
    """Run one sampler statement over a (p, d, eps) grid.

    Every cell gets the kept-trial quota ``trials``, as ``check_*`` does;
    per-cell seeds are split deterministically from ``rng_seed``, so the
    report list is reproducible byte for byte.  All cell spaces, every eps,
    the quota and ``k`` are checked before the first cell runs, so a bad
    flag fails up front.  Each cell runs through the module's
    ``check_<statement>`` name, looked up at call time.
    """
    rank = (k,) if _sampler(statement).ranked else ()
    check = globals()[f"check_{statement}"]
    cells = [(SpaceSpec(p=p, d=d), eps)
             for p, d, eps in itertools.product(ps, ds, eps_values)]
    if not cells:
        raise ValueError("empty verification grid")
    for eps in eps_values:
        _check_eps(eps)
    _check_counts(trials, k)
    seeds = np.random.SeedSequence(rng_seed).spawn(len(cells))
    return [check(space, eps, trials, *rank, seed)
            for (space, eps), seed in zip(cells, seeds)]


def _sampler(statement: str) -> _Sampler:
    try:
        return SAMPLERS[statement]
    except KeyError:
        raise ValueError(f"unknown sampler statement {statement!r}") from None


def _check_counts(trials: int, k: int) -> None:
    """Reject a kept-trial count or a contraction rank below 1."""
    if trials < 1 or k < 1:
        raise ValueError(f"trials and contraction rank k must be >= 1, "
                         f"got trials={trials}, k={k}")


def _near_unit_pairs(space: SpaceSpec, rng: np.random.Generator, n: int,
                     delta: float, t_scale: float):
    """Unit x and x' = (1 + s) * normalize(x + t*u), |s| < delta at the rim.

    The radial factor makes hypothesis (i) hold by construction while
    stressing its boundary; the tangential term drives the pairing
    condition toward its own boundary at the adapted scale.
    """
    X = unit_batch(space, rng, n)
    s = delta * rng.choice((-1.0, 1.0), size=n) * rng.beta(4.0, 1.0, size=n)
    Xp = unit_batch(space, rng, n)
    for blk in row_blocks(n, space.d):
        base = Xp[blk]  # u becomes x' in place: x + t*u, normalized, scaled
        base *= t_scale
        base += X[blk]
        base /= batch_norm(space, base)[:, None]
        base *= (1.0 + s[blk])[:, None]
    return X, Xp


def _adapt(t_scale: float, keep_rate: float) -> float:
    """Steer the tangential scale toward a ~50% hypothesis keep rate."""
    factor = ((keep_rate + 0.02) / 0.52) ** 0.4
    return float(np.clip(t_scale * np.clip(factor, 0.6, 1.6), 1e-8, 4.0))


def _remaining(attempted: int, target_kept: int, statement: str,
               space: SpaceSpec, eps: float) -> int:
    """Size of the next batch, at most BATCH and within the attempt cap."""
    cap = MAX_ATTEMPT_FACTOR * target_kept
    left = cap - attempted
    if left <= 0:
        raise SamplerExhaustedError(
            f"{statement} sampler exhausted at p={space.p:g}, d={space.d}, "
            f"eps={eps:g}: {attempted} attempts kept fewer than "
            f"{target_kept} trials satisfying the hypotheses")
    return min(BATCH, left)


def _seed_int(rng_seed) -> int | None:
    if isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = rng_seed.entropy
    return int(rng_seed) if isinstance(rng_seed, (int, np.integer)) else None
