"""Benchmark workloads: CLI steps, expected exit codes, idle layers.

A step is one ``python -m uconvex.cli ...`` invocation; its output is
checked by ``checks.py``.  A workload is a fixed sequence of steps that the
benchmark runs back to back, as one cycle, for the whole run: ``pairwise``
(Theorem 1 extraction, then Theorem 3 construction) and ``sampling`` (the
empirical modulus, then the sampler grid).  Input sizes are set so one
step takes about one second on a 2-vCPU x86 virtual machine, where a single
child's time varies by +-20% and the machine's speed drifts by as much over
minutes; a 60-second run takes the median of 20 to 30 cycles.
``idle`` names per-layer counts that must read zero in the traced run,
because no step of the workload enters that layer.

This module imports no numpy: the benchmark's parent process must stay
smaller than its children, since a child's peak RSS as reported by
``wait4`` includes the parent's peak at the time of ``exec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ExtractP2:
    """Theorem 1 extraction from the l^2 basis: pairwise p=2 scans.

    ``separation`` and the certificate's pair minimum do nearly all the
    work; ``search`` and ``verify`` stay idle.
    """

    d: int = 400
    name = "extract-p2"
    expected_exit = 0
    seeded = False
    idle = ("search.refine.calls", "search.sample_feasible_pairs.pairs",
            "modulus.empirical_delta.calls",
            "sequences.theorem3_construct.calls", "verify.lemma23.attempted",
            "verify.thm2_condition3.attempted", "verify.remark45.attempted")

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["extract", "--mode", "theorem1", "--p", "2", "--d",
                str(self.d), "--seq-kind", "basis", "--out", str(out)]


@dataclass(frozen=True)
class ConstructP3:
    """Theorem 3 construction in l^3 from the shifted basis.

    General-p distance matrix, then the greedy low branch with about n^2/2
    scalar norm calls and a large JSON trace.  Every seed pair sits at
    distance exactly 1, so the Ramsey class is the whole seed of k = d - 1
    vectors; disjoint differences are all accepted, the output has
    floor(k/2) vectors, and the run ends ``exhausted`` (exit 3).
    """

    d: int = 250
    name = "construct-p3"
    expected_exit = 3
    seeded = False
    idle = ("search.refine.calls", "search.sample_feasible_pairs.pairs",
            "modulus.empirical_delta.calls",
            "sequences.theorem1_extract.calls", "verify.lemma23.attempted",
            "verify.thm2_condition3.attempted", "verify.remark45.attempted")

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["construct", "--p", "3", "--d", str(self.d),
                "--seed-kind", "shifted-basis", "--out", str(out)]


@dataclass(frozen=True)
class ModulusEmpirical:
    """Empirical modulus of l^1.5_16 on four eps points at budget 2e4 each.

    The refine closures call the scalar norm and normalize about 2e4 times
    per eps point; no pairwise scan runs.  At this budget refine is cut by
    its evaluation budget, so the work varies by about 1% between seeds; at
    budget 1e5 it stops on its round limit after a seed-dependent number of
    evaluations, and the work varies by +-7%.  eps=0.1 carries the largest
    relative error.
    """

    d: int = 16
    eps: str = "0.1:1.9:4"
    budget: int = 20000
    name = "modulus-empirical"
    expected_exit = 0
    seeded = True
    p = 1.5
    idle = ("sequences.separation.calls", "sequences.certify.calls",
            "sequences.theorem1_extract.calls",
            "sequences.theorem3_construct.calls", "verify.lemma23.attempted",
            "verify.thm2_condition3.attempted", "verify.remark45.attempted")

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["modulus", "--p", f"{self.p:g}", "--d", str(self.d),
                "--method", "empirical", "--eps", self.eps,
                "--budget", str(self.budget), "--seed", str(seed),
                "--format", "json", "--out", str(out)]


@dataclass(frozen=True)
class VerifyGrid:
    """All three sampler statements on a 3x3x3 (p, d, eps) grid.

    Vectorised samplers over 2048-row batches of unit_batch and batch_norm,
    plus hanner_delta and delta_from_constraint per cell; search and
    sequences stay idle.
    """

    trials: int = 800
    ps: str = "1.5,2,3"
    ds: str = "2,8,64"
    eps: str = "0.5,1,1.9"
    name = "verify-grid"
    expected_exit = 0
    seeded = True
    statements = ("lemma23", "thm2_condition3", "remark45")
    idle = ("search.refine.calls", "search.sample_feasible_pairs.pairs",
            "sequences.separation.calls", "sequences.certify.calls",
            "sequences.theorem1_extract.calls",
            "sequences.theorem3_construct.calls",
            "modulus.empirical_delta.calls")

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["verify", "--statement", "all", "--p", self.ps, "--d",
                self.ds, "--eps", self.eps, "--trials", str(self.trials),
                "--seed", str(seed), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    """Steps run back to back; a layer is idle when every step leaves it."""

    name: str
    steps: tuple

    @property
    def idle(self) -> tuple[str, ...]:
        first, *rest = self.steps
        return tuple(key for key in first.idle
                     if all(key in step.idle for step in rest))


# Separates the steps of a workload on the command line of ``tracer.py``.
STEP_SEPARATOR = "::"

STEPS = {s.name: s for s in (ExtractP2(), ConstructP3(), ModulusEmpirical(),
                             VerifyGrid())}
WORKLOADS = {w.name: w for w in (
    Workload("pairwise", (STEPS["extract-p2"], STEPS["construct-p3"])),
    Workload("sampling", (STEPS["modulus-empirical"], STEPS["verify-grid"])),
)}

# The CLI examples of the README, in order (the last reads the first's
# curve).  ``{dir}`` is the scratch directory; an example without --out is
# hashed by its standard output.
README_EXAMPLES = {
    "modulus-clarkson": ["modulus", "--p", "2", "--method", "clarkson",
                         "--eps", "0.1:2.0:20", "--out", "{dir}/curve.csv"],
    "modulus-empirical": ["modulus", "--p", "1.5", "--d", "2", "--method",
                          "empirical", "--eps", "0.5,1,1.5", "--budget",
                          "100000", "--seed", "7", "--format", "json",
                          "--out", "{dir}/curve.json"],
    "construct": ["construct", "--p", "2", "--d", "64", "--seed-kind",
                  "shifted-basis", "--n", "63", "--max-len", "64",
                  "--out", "{dir}/trace.json"],
    "extract-theorem1": ["extract", "--mode", "theorem1", "--p", "2", "--d",
                         "200", "--seq-kind", "basis",
                         "--out", "{dir}/result.json"],
    "extract-baseline": ["extract", "--mode", "baseline", "--p", "2", "--d",
                         "8", "--seq-kind", "constant", "--n", "5",
                         "--tau", "0.01"],
    "verify-all": ["verify", "--statement", "all", "--trials", "2000",
                   "--seed", "1", "--out", "{dir}/reports.json"],
    "verify-modulus-props": ["verify", "--statement", "modulus-props",
                             "--curve-file", "{dir}/curve.csv"],
}
