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

A batch's draws are made whole and in a fixed order; the hypotheses and
conclusion are then evaluated one row block (:func:`spaces.row_blocks`)
at a time, so no temporary grows with the batch.  Only a batch's last
draw may itself be split into blocks: that gives the same numbers, any
earlier draw would shift the ones after it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import SamplerExhaustedError
from .modulus import (ModulusCurve, _check_eps, curve_violated,
                      curve_violations, delta_from_constraint, lp_delta)
from .spaces import (SpaceSpec, as_vector, batch_norm, duality_map,
                     row_blocks, unit_batch)

BATCH = 2048
MAX_ATTEMPT_FACTOR = 1000  # give up if kept rate stays near zero


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one statement on one (space, eps) cell.

    ``trials`` counts attempts, ``kept`` the trials whose hypotheses held.
    Violation records carry every vector and computed quantity needed to
    re-check them, see :func:`reverify_violation`.  A curve report has no
    cell: its ``p``, ``eps`` and ``delta_used`` are None and ``d`` is 0.
    """

    statement: str
    p: float | None
    d: int
    eps: float | None
    delta_used: float | None
    trials: int
    kept: int
    violations: tuple[dict, ...]
    rng_seed: int | None

    @property
    def space(self) -> str:
        if self.d:
            return f"l^{self.p:g}_{self.d}"
        return "curve"

    def to_json_dict(self) -> dict:
        return {**vars(self), "space": self.space}


def summary_line(report: VerificationReport) -> str:
    """`statement,p,d,eps,delta,trials,kept,violations` for stdout."""
    p = "" if report.p is None else f"{report.p:g}"
    eps = "" if report.eps is None else f"{report.eps:g}"
    delta = "" if report.delta_used is None else f"{report.delta_used:.17g}"
    return (f"{report.statement},{p},{report.d or ''},{eps},{delta},"
            f"{report.trials},{report.kept},{len(report.violations)}")


# ----------------------------- statement table -----------------------------

class _Sampler(NamedTuple):
    """What one sampler statement adds to the shared driver.

    ``batch`` makes a batch's whole draws in their fixed order, then yields
    ``(blk, x, x', witness)`` per row block; ``hypotheses`` returns the mask
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
    half the rows, of a nearby point."""
    f_scale = 0.7 * math.sqrt(delta)
    X = unit_batch(space, rng, n)
    U = unit_batch(space, rng, n)
    perturb = rng.random(n) < 0.5
    W = unit_batch(space, rng, n)
    for blk in row_blocks(n, space.d):
        x = X[blk]
        xp = x + t_scale * U[blk]
        xp /= batch_norm(space, xp)[:, None]
        anchor = x.copy()
        near = perturb[blk]
        anchor[near] += f_scale * W[blk][near]
        anchor /= batch_norm(space, anchor)[:, None]
        yield blk, x, xp, duality_map(space, anchor)


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

    The random functionals, the batch's last draw, are drawn per block:
    numpy fills a normal draw in order, so the blocks get the numbers of
    one batch-wide draw, and no (n, k, d) array is built.
    """
    X, Xp = _near_unit_pairs(space, rng, n, delta, t_scale)
    dual = space.dual
    for blk in row_blocks(n, k * space.d):
        x = X[blk]
        rows = np.empty((len(x), k, space.d))
        rows[:, 0, :] = duality_map(space, x)
        if k > 1:
            G = rng.standard_normal((len(x), k - 1, space.d))
            G /= batch_norm(dual, G)[:, :, None]
            rows[:, 1:, :] = G
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


# The delta rules name lp_delta and delta_from_constraint at call time, so
# rebinding them in this module reaches the samplers.
SAMPLERS = {
    "lemma23": _Sampler(
        delta=lambda space, eps: lp_delta(space.p, 2.0 * eps / 3.0),
        batch=_lemma23_batch, hypotheses=_lemma23_hypotheses,
        witness="functional"),
    "thm2_condition3": _Sampler(
        delta=lambda space, eps: delta_from_constraint(
            lambda e: lp_delta(space.p, e), eps, 0.5),
        batch=_thm2_batch, hypotheses=_thm2_hypotheses,
        witness="functional"),
    "remark45": _Sampler(
        delta=lambda space, eps: 0.5 * lp_delta(space.p, 4.0 * eps / 5.0),
        batch=_remark45_batch, hypotheses=_remark45_hypotheses,
        witness="rows", ranked=True),
}


def _conclusion(space: SpaceSpec, eps: float, x, xp):
    """The shared conclusion ||x - x'|| < eps, and the distances."""
    dist = batch_norm(space, x - xp)
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
            holds, dist = _conclusion(space, eps, x, xp)
            for i in np.flatnonzero(keep[blk] & ~holds):
                violations.append({
                    "p": space.p, "eps": eps, "delta": delta,
                    "x": x[i].tolist(), "x_prime": xp[i].tolist(),
                    st.witness: w[i].tolist(), **fields(i),
                    "dist": float(dist[i]),
                })
        attempted += n
        kept += int(keep.sum())
        t_scale = _adapt(t_scale, keep.mean())
    return VerificationReport(
        statement=statement, p=space.p, d=space.d, eps=eps,
        delta_used=delta, trials=attempted, kept=kept,
        violations=tuple(violations), rng_seed=_seed_int(rng_seed))


def check_modulus_properties(curve: ModulusCurve) -> VerificationReport:
    """Check delta <= eps/2 and monotonicity on a curve, reporting failures.

    The checks are :func:`modulus.curve_violations`, the ones
    :func:`modulus.build_curve` asserts.  Unlike the engines, this checker
    never raises on bad data -- corrupted curves come back as violations.
    """
    checks = max(0, 2 * len(curve.points) - 1)
    return VerificationReport(
        statement="modulus_properties", p=None, d=0, eps=None,
        delta_used=None, trials=checks, kept=checks,
        violations=tuple(curve_violations(curve.points)), rng_seed=None)


def reverify_violation(statement: str, rec: dict) -> bool:
    """Re-evaluate a violation record from its stored data alone.

    A curve record goes through :func:`modulus.curve_violated`.  A sampler
    record goes through its statement's hypotheses and the shared
    conclusion as a batch of one row, the sampler's own arithmetic.
    """
    if statement == "modulus_properties":
        return curve_violated(rec)

    st = _sampler(statement)
    space = SpaceSpec(p=rec["p"], d=len(rec["x"]))
    x, xp = (as_vector(space, rec[key])[None] for key in ("x", "x_prime"))
    w = np.asarray(rec[st.witness], dtype=float)[None]
    mask, _ = st.hypotheses(space, rec["delta"], x, xp, w)
    holds, _ = _conclusion(space, rec["eps"], x, xp)
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
    if isinstance(rng_seed, (int, np.integer)):
        return int(rng_seed)
    if isinstance(rng_seed, np.random.SeedSequence):
        ent = rng_seed.entropy
        return int(ent) if isinstance(ent, (int, np.integer)) else None
    return None
