"""Randomized adversarial verification of the quantitative statements.

Each checker samples near the hypothesis boundary (where the inequalities
are tight), filters trials through the exact hypotheses, and asserts the
theorem's conclusion on every kept trial.  Violations are collected as
self-contained records that re-verify from their stored data; for the
theorem-backed statements any violation is a release-blocking defect in
either the sampler or the modulus engines, never an expected outcome.

A batch's draws are made whole and in a fixed order; the hypotheses and
conclusions are then evaluated one row block (:func:`spaces.row_blocks`)
at a time, so no temporary grows with the batch.  Only a batch's last
draw may itself be split into blocks: that gives the same numbers, any
earlier draw would shift the ones after it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SamplerExhaustedError
from .modulus import (EMPIRICAL_MONOTONE_SLACK, ModulusCurve, WITNESS_TOL,
                      delta_from_constraint, lp_delta)
from .spaces import (SpaceSpec, batch_norm, duality_map, norm, row_blocks,
                     unit_batch)

BATCH = 2048
MAX_ATTEMPT_FACTOR = 1000  # give up if kept rate stays near zero

STATEMENTS = ("lemma23", "thm2_condition3", "remark45", "modulus_properties")


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one statement on one (space, eps) cell.

    ``trials`` counts attempts, ``kept`` the trials whose hypotheses held.
    Violation records carry every vector and computed quantity needed to
    re-check them, see :func:`reverify_violation`.
    """

    statement: str
    p: float
    d: int
    eps: float
    delta_used: float
    trials: int
    kept: int
    violations: tuple[dict, ...]
    rng_seed: int | None

    @property
    def space(self) -> str:
        if self.d:
            return f"l^{self.p:g}_{self.d}"
        return "curve"

    def reverify(self) -> bool:
        """True when every stored violation still violates its statement."""
        return all(reverify_violation(self.statement, rec)
                   for rec in self.violations)

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "space": self.space,
            "p": _json_float(self.p),
            "d": self.d,
            "eps": _json_float(self.eps),
            "delta_used": _json_float(self.delta_used),
            "trials": self.trials,
            "kept": self.kept,
            "violations": [dict(rec) for rec in self.violations],
            "rng_seed": self.rng_seed,
        }


def summary_line(report: VerificationReport) -> str:
    """`statement,p,d,eps,delta,trials,kept,violations` for stdout."""
    p = "" if math.isnan(report.p) else f"{report.p:g}"
    eps = "" if math.isnan(report.eps) else f"{report.eps:g}"
    delta = "" if math.isnan(report.delta_used) else f"{report.delta_used:.17g}"
    return (f"{report.statement},{p},{report.d or ''},{eps},{delta},"
            f"{report.trials},{report.kept},{len(report.violations)}")


def check_lemma23(space: SpaceSpec, eps: float, trials: int,
                  rng_seed) -> VerificationReport:
    """Near-unit vectors close in the norming pairing stay eps-close.

    Per trial: unit x, T = its norming functional (so ||Tx|| = 1 exactly),
    x' a boundary-stressed perturbation of x.  With delta = delta(2*eps/3),
    trials satisfying |1 - ||x'||| < delta and |<x - x', x*>| < delta must
    conclude ||x - x'|| < eps.
    """
    delta = lp_delta(space.p, 2.0 * eps / 3.0)
    rng = np.random.default_rng(rng_seed)
    t_scale = min(1.0, math.sqrt(2.0 * delta))
    attempted = kept = 0
    violations: list[dict] = []
    while kept < trials:
        n = _remaining(attempted, trials, "lemma23", space, eps)
        X = unit_batch(space, rng, n)
        Xp, s = _stressed_near_unit(space, rng, X, delta, t_scale)
        keep = np.empty(n, dtype=bool)
        for blk in row_blocks(n, space.d):
            x, xp = X[blk], Xp[blk]
            F = duality_map(space, x)
            cond_i = np.abs(1.0 - batch_norm(space, xp)) < delta
            diff = x - xp
            pairing = np.einsum("ij,ij->i", diff, F)
            cond_iii = np.abs(pairing) < delta
            keep[blk] = cond_i & cond_iii
            dist = batch_norm(space, diff)
            for i in np.flatnonzero(keep[blk] & ~(dist < eps)):
                violations.append(_lemma23_record(space, eps, delta, x[i],
                                                  xp[i], F[i], pairing[i],
                                                  dist[i]))
        attempted += n
        kept += int(keep.sum())
        t_scale = _adapt(t_scale, keep.mean())
    return VerificationReport(
        statement="lemma23", p=space.p, d=space.d, eps=eps, delta_used=delta,
        trials=attempted, kept=kept, violations=tuple(violations),
        rng_seed=_seed_int(rng_seed))


def check_thm2_condition3(space: SpaceSpec, eps: float, trials: int,
                          rng_seed) -> VerificationReport:
    """Uniform Kadec-Klee check: conditions (iv), (v) force eps-closeness.

    delta comes from the constraint ``delta <= delta(eps - delta) / 2``.
    Per trial: unit x, unit x', and a unit functional that is either the
    norming functional of x or of a nearby point; trials with
    |<x, x*>| > 1 - delta and |<x - x', x*>| < delta must conclude
    ||x - x'|| < eps.
    """
    delta = delta_from_constraint(lambda e: lp_delta(space.p, e), eps, 0.5)
    rng = np.random.default_rng(rng_seed)
    t_scale = min(1.0, math.sqrt(2.0 * delta))
    f_scale = 0.7 * math.sqrt(delta)
    attempted = kept = 0
    violations: list[dict] = []
    while kept < trials:
        n = _remaining(attempted, trials, "thm2_condition3", space, eps)
        X = unit_batch(space, rng, n)
        U = unit_batch(space, rng, n)
        # half exact norming functionals, half functionals of nearby points
        perturb = rng.random(n) < 0.5
        W = unit_batch(space, rng, n)
        keep = np.empty(n, dtype=bool)
        for blk in row_blocks(n, space.d):
            x = X[blk]
            xp = x + t_scale * U[blk]
            xp /= batch_norm(space, xp)[:, None]
            anchor = x.copy()
            near = perturb[blk]
            anchor[near] += f_scale * W[blk][near]
            anchor /= batch_norm(space, anchor)[:, None]
            F = duality_map(space, anchor)
            iv = np.abs(np.einsum("ij,ij->i", x, F)) > 1.0 - delta
            diff = x - xp
            pairing = np.einsum("ij,ij->i", diff, F)
            v = np.abs(pairing) < delta
            keep[blk] = iv & v
            dist = batch_norm(space, diff)
            for i in np.flatnonzero(keep[blk] & ~(dist < eps)):
                violations.append({
                    "p": space.p, "eps": eps, "delta": delta,
                    "x": x[i].tolist(), "x_prime": xp[i].tolist(),
                    "functional": F[i].tolist(),
                    "pairing_x": float(np.dot(x[i], F[i])),
                    "pairing_diff": float(pairing[i]),
                    "dist": float(dist[i]),
                })
        attempted += n
        kept += int(keep.sum())
        t_scale = _adapt(t_scale, keep.mean())
    return VerificationReport(
        statement="thm2_condition3", p=space.p, d=space.d, eps=eps,
        delta_used=delta, trials=attempted, kept=kept,
        violations=tuple(violations), rng_seed=_seed_int(rng_seed))


def check_remark45(space: SpaceSpec, eps: float, trials: int, k: int,
                   rng_seed) -> VerificationReport:
    """Contraction-rank-k variant with delta = delta(4*eps/5) / 2.

    T maps into l^inf_k: first row the norming functional of x (so
    ||Tx|| > 1 - delta holds exactly), remaining rows random unit-dual
    functionals.  Kept trials satisfy (i) |1 - ||x'||| < delta and (iii)
    ||Tx - Tx'||_sup < delta and must conclude ||x - x'|| < eps.  The
    source statement is given without proof, so a reproducible violation
    here would be a finding to surface, not a sampler bug.

    The k - 1 random functionals are the batch's last random draw, so they
    are drawn one block of :func:`spaces.row_blocks` at a time (k * d
    entries per row): numpy fills a normal draw in order, so the blocks
    get the numbers of one batch-wide draw.  Each block is normalized in
    place and paired with its ``x`` and ``x'``; the (n, k, d) array of all
    functionals is never built, and a violation record takes its ``rows``
    from its block.
    """
    if k < 1:
        raise ValueError(f"contraction rank k must be >= 1, got {k}")
    delta = 0.5 * lp_delta(space.p, 4.0 * eps / 5.0)
    rng = np.random.default_rng(rng_seed)
    t_scale = min(1.0, math.sqrt(2.0 * delta))
    dual = space.dual
    attempted = kept = 0
    violations: list[dict] = []
    while kept < trials:
        n = _remaining(attempted, trials, "remark45", space, eps)
        X = unit_batch(space, rng, n)
        Xp, s = _stressed_near_unit(space, rng, X, delta, t_scale)
        keep = np.empty(n, dtype=bool)
        for blk in row_blocks(n, k * space.d):
            x, xp = X[blk], Xp[blk]
            rows = np.empty((len(x), k, space.d))
            rows[:, 0, :] = duality_map(space, x)
            if k > 1:
                G = rng.standard_normal((len(x), k - 1, space.d))
                G /= batch_norm(dual, G)[:, :, None]
                rows[:, 1:, :] = G
            tx = np.einsum("nkd,nd->nk", rows, x)
            txp = np.einsum("nkd,nd->nk", rows, xp)
            cond_i = np.abs(1.0 - batch_norm(space, xp)) < delta
            cond_ii = np.max(np.abs(tx), axis=1) > 1.0 - delta
            sup_diff = np.max(np.abs(tx - txp), axis=1)
            cond_iii = sup_diff < delta
            keep[blk] = cond_i & cond_ii & cond_iii
            dist = batch_norm(space, x - xp)
            for i in np.flatnonzero(keep[blk] & ~(dist < eps)):
                violations.append({
                    "p": space.p, "eps": eps, "delta": delta,
                    "x": x[i].tolist(), "x_prime": xp[i].tolist(),
                    "rows": rows[i].tolist(),
                    "norm_x_prime": float(batch_norm(space, xp[i][None])[0]),
                    "sup_tx": float(np.max(np.abs(tx[i]))),
                    "sup_diff": float(sup_diff[i]),
                    "dist": float(dist[i]),
                })
        attempted += n
        kept += int(keep.sum())
        t_scale = _adapt(t_scale, keep.mean())
    return VerificationReport(
        statement="remark45", p=space.p, d=space.d, eps=eps,
        delta_used=delta, trials=attempted, kept=kept,
        violations=tuple(violations), rng_seed=_seed_int(rng_seed))


def check_modulus_properties(curve: ModulusCurve) -> VerificationReport:
    """Check delta <= eps/2 and monotonicity on a curve, reporting failures.

    Closed-form points are held to exact comparisons; empirical points get
    the estimator's documented slacks.  Unlike the engines, this checker
    never raises on bad data -- corrupted curves come back as violations.
    """
    violations: list[dict] = []
    checks = 0
    for pt in curve.points:
        checks += 1
        slack = WITNESS_TOL if pt.method == "empirical" else 0.0
        if pt.delta > pt.eps / 2.0 + slack:
            violations.append({
                "kind": "bound", "eps": pt.eps, "delta": pt.delta,
                "method": pt.method, "slack": slack,
            })
    for a, b in zip(curve.points, curve.points[1:]):
        checks += 1
        slack = (EMPIRICAL_MONOTONE_SLACK
                 if "empirical" in (a.method, b.method) else 0.0)
        if b.delta < a.delta - slack:
            violations.append({
                "kind": "monotonicity",
                "eps": b.eps, "delta": b.delta, "method": b.method,
                "prev_eps": a.eps, "prev_delta": a.delta,
                "prev_method": a.method, "slack": slack,
            })
    return VerificationReport(
        statement="modulus_properties", p=math.nan, d=0, eps=math.nan,
        delta_used=math.nan, trials=checks, kept=checks,
        violations=tuple(violations), rng_seed=None)


def reverify_violation(statement: str, rec: dict) -> bool:
    """Re-evaluate a violation record from its stored data alone."""
    if statement == "modulus_properties":
        if rec["kind"] == "bound":
            return rec["delta"] > rec["eps"] / 2.0 + rec["slack"]
        return rec["delta"] < rec["prev_delta"] - rec["slack"]

    space = SpaceSpec(p=rec["p"], d=len(rec["x"]))
    x = np.asarray(rec["x"])
    xp = np.asarray(rec["x_prime"])
    delta, eps = rec["delta"], rec["eps"]
    conclusion_fails = not norm(space, x - xp) < eps
    if statement == "lemma23":
        f = np.asarray(rec["functional"])
        hyp = (abs(1.0 - norm(space, xp)) < delta
               and abs(float(np.dot(x - xp, f))) < delta)
        return hyp and conclusion_fails
    if statement == "thm2_condition3":
        f = np.asarray(rec["functional"])
        hyp = (abs(float(np.dot(x, f))) > 1.0 - delta
               and abs(float(np.dot(x - xp, f))) < delta)
        return hyp and conclusion_fails
    if statement == "remark45":
        rows = np.asarray(rec["rows"])
        hyp = (abs(1.0 - norm(space, xp)) < delta
               and float(np.max(np.abs(rows @ x))) > 1.0 - delta
               and float(np.max(np.abs(rows @ (x - xp)))) < delta)
        return hyp and conclusion_fails
    raise ValueError(f"unknown statement {statement!r}")


def run_grid(statement: str, ps, ds, eps_values, kept_total: int, rng_seed,
             *, k: int = 4) -> list[VerificationReport]:
    """Run one sampler statement over a (p, d, eps) grid.

    The kept-trial total is spread evenly over the cells (rounded up);
    per-cell seeds are split deterministically from ``rng_seed``, so the
    report list is reproducible byte for byte.
    """
    cells = list(itertools.product(ps, ds, eps_values))
    if not cells:
        raise ValueError("empty verification grid")
    quota = max(1, math.ceil(kept_total / len(cells)))
    seeds = np.random.SeedSequence(rng_seed).spawn(len(cells))
    reports = []
    for (p, d, eps), seed in zip(cells, seeds):
        space = SpaceSpec(p=p, d=d)
        if statement == "lemma23":
            rep = check_lemma23(space, eps, quota, seed)
        elif statement == "thm2_condition3":
            rep = check_thm2_condition3(space, eps, quota, seed)
        elif statement == "remark45":
            rep = check_remark45(space, eps, quota, k, seed)
        else:
            raise ValueError(f"unknown sampler statement {statement!r}")
        reports.append(rep)
    return reports


def reports_to_json(path, reports) -> None:
    payload = [rep.to_json_dict() for rep in reports]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _stressed_near_unit(space: SpaceSpec, rng: np.random.Generator,
                        X: np.ndarray, delta: float, t_scale: float):
    """x' = (1 + s) * normalize(x + t*u) with |s| < delta biased to the rim.

    The radial factor makes hypothesis (i) hold by construction while
    stressing its boundary; the tangential term drives the pairing
    condition toward its own boundary at the adapted scale.
    """
    n = len(X)
    s = delta * rng.choice((-1.0, 1.0), size=n) * rng.beta(4.0, 1.0, size=n)
    Xp = unit_batch(space, rng, n)
    for blk in row_blocks(n, space.d):
        base = Xp[blk]  # u becomes x' in place: x + t*u, normalized, scaled
        base *= t_scale
        base += X[blk]
        base /= batch_norm(space, base)[:, None]
        base *= (1.0 + s[blk])[:, None]
    return Xp, s


def _lemma23_record(space, eps, delta, x, xp, f, pairing, dist) -> dict:
    return {
        "p": space.p, "eps": eps, "delta": delta,
        "x": x.tolist(), "x_prime": xp.tolist(), "functional": f.tolist(),
        "norm_x_prime": float(batch_norm(space, xp[None])[0]),
        "pairing_diff": float(pairing),
        "dist": float(dist),
    }


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


def _json_float(v: float):
    return None if (isinstance(v, float) and not math.isfinite(v)) else v
