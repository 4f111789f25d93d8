"""Span tracer for the uconvex layers, measured from outside the package.

Run as a child process in place of ``python -m uconvex.cli``::

    PYTHONPATH=src python perfbench/tracer.py REPORT.json ARG... [:: ARG...]

It wraps the public functions listed in :data:`LAYERS`, rebinding the name
in every ``uconvex.*`` module that imported it (the modules use
``from .spaces import norm``), then calls ``uconvex.cli.main(ARG...)``
once for each command, the commands separated by ``::``.  Each wrapped call
records a span (name, start, end, parent); the spans of one process share a
run id, are kept in memory and are written at exit to ``REPORT.npz``.
``REPORT.json`` gets the per-layer metrics over all commands, the tracer's
self-checks and the CLI exit code of each command.

A span's self time is its duration minus the durations of its direct
children.  Rates divide a count by the inclusive time of the span that did
the work.  ``search.refine`` also wraps its ``objective`` and ``feasible``
arguments: ``evals`` counts objective calls, ``feasible_frac`` is feasible
candidates over feasibility checks, and ``improve_frac`` is strict
improvements of the running best over objective calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import STEP_SEPARATOR


def _count_batch_norm(counts, args, result):
    counts["spaces.batch_norm.elems"] += int(np.size(args[1]))


def _count_unit_batch(counts, args, result):
    counts["spaces.unit_batch.rows"] += len(result)


def _count_sample_pairs(counts, args, result):
    counts["search.sample_feasible_pairs.pairs"] += len(result[0])


def _count_separation(counts, args, result):
    n = len(args[1])
    counts["sequences.separation.pairs"] += n * (n - 1) // 2


def _count_theorem1(counts, args, result):
    k = len(result.selected)
    counts["sequences.theorem1_extract.pair_evals"] += k * (k - 1)


def _count_theorem3(counts, args, result):
    counts["sequences.theorem3_construct.steps"] += len(result.steps)
    counts["sequences.theorem3_construct.accepted"] += sum(
        1 for s in result.steps if s.accepted)


def _count_report(statement):
    def count(counts, args, result):
        counts[f"verify.{statement}.attempted"] += result.trials
        counts[f"verify.{statement}.kept"] += result.kept
    return count


# (module, public name, span name, count hook run on the call's result)
LAYERS = (
    ("uconvex.cli", "main", "cli.main", None),
    ("uconvex.spaces", "norm", "spaces.norm", None),
    ("uconvex.spaces", "normalize", "spaces.normalize", None),
    ("uconvex.spaces", "batch_norm", "spaces.batch_norm", _count_batch_norm),
    ("uconvex.spaces", "unit_batch", "spaces.unit_batch", _count_unit_batch),
    ("uconvex.search", "refine", "search.refine", None),
    ("uconvex.search", "sample_feasible_pairs", "search.sample_feasible_pairs",
     _count_sample_pairs),
    ("uconvex.modulus", "empirical_delta", "modulus.empirical_delta", None),
    ("uconvex.modulus", "hanner_delta", "modulus.hanner_delta", None),
    ("uconvex.modulus", "delta_from_constraint",
     "modulus.delta_from_constraint", None),
    ("uconvex.sequences", "separation", "sequences.separation",
     _count_separation),
    ("uconvex.sequences", "theorem1_extract", "sequences.theorem1_extract",
     _count_theorem1),
    ("uconvex.sequences", "certify", "sequences.certify", None),
    ("uconvex.sequences", "theorem3_construct", "sequences.theorem3_construct",
     _count_theorem3),
    ("uconvex.verify", "check_lemma23", "verify.lemma23",
     _count_report("lemma23")),
    ("uconvex.verify", "check_thm2_condition3", "verify.thm2_condition3",
     _count_report("thm2_condition3")),
    ("uconvex.verify", "check_remark45", "verify.remark45",
     _count_report("remark45")),
)

ROOT_SPAN = "cli.main"
# Layer self times must add up to the root span within this share.
SELF_TIME_TOLERANCE = 0.01


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.originals: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span named ``name`` per call."""
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result
        return traced

    def wrap_refine(self, refine):
        """Span ``search.refine`` and count its objective/feasible calls."""
        counts = self.counts

        def counted_refine(x0, objective, project, feasible, *args, **kwargs):
            best = [math.inf]

            def counted_objective(z):
                val = objective(z)
                counts["search.refine.evals"] += 1
                if val < best[0]:
                    if best[0] != math.inf:
                        counts["search.refine.improved"] += 1
                    best[0] = val
                return val

            def counted_feasible(z):
                ok = feasible(z)
                counts["search.refine.checks"] += 1
                counts["search.refine.feasible"] += bool(ok)
                return ok

            return refine(x0, counted_objective, project, counted_feasible,
                          *args, **kwargs)
        return self.wrap("search.refine", functools.wraps(refine)(
            counted_refine))

    def install(self) -> None:
        """Import the uconvex modules and rebind every traced name."""
        modules = {m: importlib.import_module(m)
                   for m in {layer[0] for layer in LAYERS}}
        package = [m for name, m in sys.modules.items()
                   if name == "uconvex" or name.startswith("uconvex.")]
        for module_name, attr, span, count in LAYERS:
            original = getattr(modules[module_name], attr)
            wrapped = (self.wrap_refine(original) if span == "search.refine"
                       else self.wrap(span, original, count))
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.originals.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        """Restore every name :meth:`install` rebound."""
        for module, key, original in reversed(self.originals):
            setattr(module, key, original)
        self.originals.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, run_id=np.array(self.run_id),
                 names=np.array(self.names), **self.spans())

    def summarize(self, commands: int = 1
                  ) -> tuple[dict[str, float], dict[str, str]]:
        """Per-layer metrics and the self-check failures (empty when sound).

        ``commands`` is the number of ``cli.main`` root spans expected.
        """
        sp = self.spans()
        nid, parent = sp["name_id"], sp["parent"]
        dur = sp["end"] - sp["start"]
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        self_s = np.bincount(nid, weights=self_t, minlength=n_names)
        incl_s = np.bincount(nid, weights=dur, minlength=n_names)
        layer = {name: i for i, name in enumerate(self.names)}
        c = self.counts

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        m: dict[str, float] = {}
        for name, i in layer.items():
            m[f"{name}.calls"] = int(calls[i])
            m[f"{name}.self_s"] = float(self_s[i])
        incl = {name: float(incl_s[i]) for name, i in layer.items()}
        m.update({key: int(val) for key, val in c.items()})
        for key in ("spaces.batch_norm.elems", "spaces.unit_batch.rows",
                    "search.refine.evals",
                    "search.sample_feasible_pairs.pairs",
                    "sequences.separation.pairs",
                    "sequences.theorem1_extract.pair_evals",
                    "sequences.theorem3_construct.steps"):
            m.setdefault(key, 0)
        m["spaces.batch_norm.elems_per_s"] = ratio(
            m["spaces.batch_norm.elems"], m["spaces.batch_norm.self_s"])
        m["search.refine.evals_per_s"] = ratio(
            m["search.refine.evals"], incl["search.refine"])
        m["search.refine.feasible_frac"] = ratio(
            c["search.refine.feasible"], c["search.refine.checks"])
        m["search.refine.improve_frac"] = ratio(
            c["search.refine.improved"], m["search.refine.evals"])
        m["sequences.separation.pairs_per_s"] = ratio(
            m["sequences.separation.pairs"], incl["sequences.separation"])
        m["sequences.theorem3_construct.accept_frac"] = ratio(
            c["sequences.theorem3_construct.accepted"],
            m["sequences.theorem3_construct.steps"])
        for st in ("lemma23", "thm2_condition3", "remark45"):
            attempted = m.setdefault(f"verify.{st}.attempted", 0)
            kept = m.setdefault(f"verify.{st}.kept", 0)
            m[f"verify.{st}.keep_frac"] = ratio(kept, attempted)
            m[f"verify.{st}.kept_per_s"] = ratio(kept, incl[f"verify.{st}"])

        failures = {}
        roots = np.flatnonzero(parent < 0)
        if (len(roots) != commands
                or any(self.names[nid[r]] != ROOT_SPAN for r in roots)):
            failures["root"] = f"expected {commands} {ROOT_SPAN} root spans"
        else:
            root = float(dur[roots].sum())
            total = float(self_s.sum())
            if abs(total - root) > SELF_TIME_TOLERANCE * root:
                failures["self_time_sum"] = (
                    f"layer self times sum to {total:.6f} s, root spans "
                    f"{root:.6f} s")
        if len(self_t) and self_t.min() < -1e-6:
            failures["nesting"] = "a span's children outlast it"
        return m, failures


def split_commands(args: list[str]) -> list[list[str]]:
    """The CLI commands of ``args``, split at each ``::``."""
    commands = [[]]
    for arg in args:
        if arg == STEP_SEPARATOR:
            commands.append([])
        else:
            commands[-1].append(arg)
    return commands


def main(argv: list[str]) -> int:
    """Trace the commands; exit code 0 once the report is written."""
    report_path = Path(argv[0])
    commands = split_commands(argv[1:])
    tracer = Tracer(run_id=report_path.stem)
    tracer.install()
    try:
        codes = [sys.modules["uconvex.cli"].main(cmd) for cmd in commands]
    finally:
        tracer.uninstall()
    metrics, failures = tracer.summarize(len(commands))
    metrics["cli.output_bytes"] = 0
    for cmd in commands:
        if "--out" in cmd:
            out = Path(cmd[cmd.index("--out") + 1])
            if out.exists():
                metrics["cli.output_bytes"] += out.stat().st_size
    tracer.save(report_path.with_suffix(".npz"))
    report_path.write_text(json.dumps({
        "run_id": tracer.run_id, "exit_codes": codes, "metrics": metrics,
        "self_check_failures": failures}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
