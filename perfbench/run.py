"""Benchmark of the uconvex CLI: end-to-end or (--trace 1) per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The load is a closed loop with one client:
one child process at a time, each ``python -m uconvex.cli ...`` with
``PYTHONPATH=src`` and the environment otherwise inherited.  After an
untimed import-only child, which compiles the bytecode and warms the file
cache, for ``S`` seconds (and at least three times) the loop runs an
import-only child, which times set-up, then a cycle: each step of the
workload (see ``workloads.py``) as its own child, whose output file is
hashed and checked by the independent check in ``checks.py`` between
children.  A step
fails when its exit code is not the expected one, its output fails the
check, or its output bytes differ from the step's first output.

With ``--trace 0`` the last line of standard output is a JSON object with
the medians over cycles of the end-to-end metrics of BENCHMARK.json:
``wall_s`` and ``cpu_s`` add up the steps of a cycle, ``peak_rss_mb`` is
the largest step's.  With ``--trace 1`` the same untraced loop runs, then
all the workload's steps twice in one ``tracer.py`` child and once the
scaling sweep of ``sweep.py``, and the JSON carries the per-layer metrics,
with the median wall time of each step.  A traced run fails when its
output bytes differ from the untraced output, when the tracer's self-checks
fail, when a count differs between the two traced runs, or when a layer
the workload should leave idle did work.

Every run writes ``perfbench/out/results-<workload>-seed<N>-trace<T>.json``
with all samples, the checks and provenance (commit, versions, CPU count,
BLAS thread settings, seed, ``src/`` line count).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import README_EXAMPLES, STEP_SEPARATOR, STEPS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = BENCH / "golden.json"
CHILD_ENV = {**os.environ, "PYTHONPATH": "src"}
SETUP_ARGS = ["-c", "import uconvex.cli"]
MIN_RUNS = 3
# A run must end within 180 s; stop starting children well before that.
DEADLINE_S = 165.0
VERSIONS = """if True:
    import json, numpy
    blas = (getattr(numpy.__config__, "CONFIG", {})
            .get("Build Dependencies", {}).get("blas", {}))
    print(json.dumps({"numpy": numpy.__version__,
                      "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Sample:
    """One child process, measured by the parent through ``os.wait4``."""

    step: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    sha256: str | None = None
    error: str | None = None


def run_child(args: list[str], deadline: float, stdout: Path,
              step: str = "setup") -> Sample:
    """Run ``python ARGS`` in the repository root, killed at ``deadline``."""
    err_path = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=CHILD_ENV, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(step=step, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  exit_code=proc.returncode)


def sha256_file(path: Path) -> str | None:
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


class OutputJudge:
    """Decides whether each run of one step failed.

    The first run's bytes are the reference; every distinct output is
    checked once by ``checks.py``, in a child process so that this process
    never loads numpy (see ``workloads.py``).
    """

    def __init__(self, step):
        self.step = step
        self.reference: str | None = None
        self.checked: dict[str, str | None] = {}
        self.extras: dict = {}

    def judge(self, sample: Sample, out: Path) -> None:
        """Set the sample's output hash, and its error when it failed."""
        sample.sha256, sample.error = self.verdict(sample.exit_code, out)

    def verdict(self, exit_code: int, out: Path
                ) -> tuple[str | None, str | None]:
        """(sha256 of the output, error or None) of one run of the step."""
        sha = sha256_file(out)
        expected_exit = self.step.expected_exit
        if exit_code != expected_exit:
            return sha, f"exit code {exit_code}, expected {expected_exit}"
        if sha is None:
            return sha, "no output file"
        if sha not in self.checked:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "checks.py"), self.step.name,
                 str(out)],
                cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                timeout=60)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"error": "checker crashed: " + proc.stderr[-500:]}
            error = result.pop("error")
            self.checked[sha] = (None if error is None
                                 else f"check failed: {error}")
            self.extras = self.extras or result
        error = self.checked[sha]
        if self.reference is None:
            self.reference = sha
        elif error is None and sha != self.reference:
            error = "output bytes differ from the first run"
        return sha, error


def run_cycle(workload, seed: int, deadline: float,
              judges: dict[str, OutputJudge]) -> list[Sample]:
    """Each step of the workload once, as its own child, judged."""
    samples = []
    for step in workload.steps:
        out = OUT / f"{step.name}.out"
        out.unlink(missing_ok=True)
        sample = run_child(["-m", "uconvex.cli", *step.argv(seed, out)],
                           deadline, OUT / f"{step.name}.stdout", step.name)
        judges[step.name].judge(sample, out)
        samples.append(sample)
    return samples


def measure(workload, seed: int, seconds: float, deadline: float,
            judges: dict[str, OutputJudge]
            ) -> tuple[list[list[Sample]], list[float]]:
    """The untraced closed loop: (cycles, set-up wall times)."""
    cycles: list[list[Sample]] = []
    setup: list[float] = []
    # compile bytecode and warm the file cache before anything is timed
    run_child(SETUP_ARGS, deadline, OUT / "setup.stdout")
    t0 = time.perf_counter()
    while len(cycles) < MIN_RUNS or time.perf_counter() - t0 < seconds:
        longest = max((cycle_wall(c) for c in cycles), default=0.0)
        if cycles and time.perf_counter() + 2 * longest > deadline:
            break
        setup.append(run_child(SETUP_ARGS, deadline,
                               OUT / "setup.stdout").wall_s)
        cycles.append(run_cycle(workload, seed, deadline, judges))
    return cycles, setup


def cycle_wall(cycle: list[Sample]) -> float:
    return sum(s.wall_s for s in cycle)


def traced_runs(workload, seed: int, deadline: float,
                judges: dict[str, OutputJudge], untraced_wall: float
                ) -> tuple[dict, list[Sample], list[str]]:
    """Two traced children: per-layer metrics of the first, checks on both.

    Each child runs all the workload's steps in one process, so it starts
    one interpreter where the untraced cycle starts one per step; the
    tracing overhead is the traced wall time minus ``untraced_wall``, which
    the caller corrects for the extra interpreter starts.
    """
    samples, reports, problems = [], [], []
    for k in (1, 2):
        report = OUT / f"trace-{workload.name}-seed{seed}-{k}.json"
        report.unlink(missing_ok=True)
        outs = [OUT / f"{step.name}.traced.out" for step in workload.steps]
        argv: list[str] = []
        for step, out in zip(workload.steps, outs):
            out.unlink(missing_ok=True)
            argv += [STEP_SEPARATOR] * bool(argv) + step.argv(seed, out)
        sample = run_child([str(BENCH / "tracer.py"), str(report), *argv],
                           deadline, OUT / f"{workload.name}.traced.stdout",
                           "traced")
        samples.append(sample)
        if sample.exit_code != 0 or not report.exists():
            sample.error = f"tracer failed with exit code {sample.exit_code}"
            continue
        rep = json.loads(report.read_text())
        errors = []
        for step, out, code in zip(workload.steps, outs, rep["exit_codes"]):
            _, error = judges[step.name].verdict(code, out)
            if error is not None:
                errors.append(f"{step.name}: {error}")
        sample.error = "; ".join(errors) or None
        for name, msg in rep["self_check_failures"].items():
            problems.append(f"traced run {k}: {name}: {msg}")
        reports.append(rep["metrics"])
    if len(reports) != 2:
        problems.append("a traced run wrote no report")
        return {}, samples, problems
    first, second = reports
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    for key, val in counts.items():
        if second.get(key) != val:
            problems.append(f"count {key} differs between traced runs: "
                            f"{val} vs {second.get(key)}")
    for key in workload.idle:
        if first.get(key, 0) != 0:
            problems.append(
                f"layer predicted idle did work: {key}={first[key]}")
    metrics = dict(first)
    metrics["trace.overhead_s"] = (
        statistics.mean(s.wall_s for s in samples) - untraced_wall)
    extras = {k: v for j in judges.values() for k, v in j.extras.items()}
    metrics["modulus.delta_rel_err"] = extras.get("delta_rel_err", 0.0)
    return metrics, samples, problems


def run_sweep(seed: int, deadline: float) -> dict:
    """The scaling sweep's rates; empty when it failed."""
    report = OUT / "sweep.json"
    report.unlink(missing_ok=True)
    sample = run_child([str(BENCH / "sweep.py"), str(report), str(seed)],
                       deadline, OUT / "sweep.stdout")
    if sample.exit_code != 0 or not report.exists():
        return {}
    return json.loads(report.read_text())


def readme_digests(deadline: float) -> dict[str, dict]:
    """Exit code and sha256 of each README example's output."""
    scratch = OUT / "readme"
    scratch.mkdir(parents=True, exist_ok=True)
    rel = scratch.relative_to(ROOT).as_posix()
    result = {}
    for label, template in README_EXAMPLES.items():
        argv = [a.replace("{dir}", rel) for a in template]
        stdout = scratch / f"{label}.stdout"
        if "--out" in argv:
            target = ROOT / argv[argv.index("--out") + 1]
            target.unlink(missing_ok=True)
        else:
            target = stdout
        sample = run_child(["-m", "uconvex.cli", *argv], deadline, stdout)
        result[label] = {"exit_code": sample.exit_code,
                         "sha256": sha256_file(target)}
    return result


def golden_status(expected, actual) -> str:
    if expected is None:
        return "no golden"
    if expected == actual:
        return "match"
    return "output changed; the change that did it must declare it"


def provenance(seed: int) -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", VERSIONS], cwd=ROOT, env=CHILD_ENV,
        capture_output=True, text=True, timeout=60)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **json.loads(versions.stdout),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + DEADLINE_S

    if not (ROOT / "src" / "uconvex" / "cli.py").is_file():
        print(f"error: no uconvex sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    golden = json.loads(GOLDEN.read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[ns.workload]

    judges = {step.name: OutputJudge(step) for step in workload.steps}
    cycles, setup = measure(workload, ns.seed, ns.seconds, deadline, judges)
    e2e = {
        "wall_s": statistics.median(cycle_wall(c) for c in cycles),
        "cpu_s": statistics.median(sum(s.cpu_s for s in c) for c in cycles),
        "peak_rss_mb": statistics.median(max(s.peak_rss_mb for s in c)
                                         for c in cycles),
        "setup_s": statistics.median(setup),
    }
    step_wall = {f"step.{name}.wall_s": 0.0 for name in STEPS}
    for i, step in enumerate(workload.steps):
        step_wall[f"step.{step.name}.wall_s"] = statistics.median(
            c[i].wall_s for c in cycles)
    samples = [s for c in cycles for s in c]
    problems: list[str] = []
    layers: dict = {}
    readme: dict = {}
    if ns.trace:
        # the traced child starts one interpreter for all the steps
        extra_starts = (len(workload.steps) - 1) * e2e["setup_s"]
        layers, traced, problems = traced_runs(
            workload, ns.seed, deadline, judges,
            e2e["wall_s"] - extra_starts)
        samples += traced
        layers.update(step_wall)
        layers.update(run_sweep(ns.seed, deadline))
        readme = readme_digests(deadline)

    failed = sum(1 for s in samples if s.error is not None)
    extras = {k: v for j in judges.values() for k, v in j.extras.items()}
    checks = {
        "failed_frac": failed / len(samples),
        "errors": sorted({f"{s.step}: {s.error}" for s in samples
                          if s.error}),
        "trace_problems": problems,
        "golden": {
            step.name: (golden_status(golden["steps"].get(step.name),
                                      judges[step.name].reference)
                        if not step.seeded
                        or ns.seed == golden["default_seed"] else
                        f"no golden at seed {ns.seed} "
                        f"(pinned at seed {golden['default_seed']})")
            for step in workload.steps},
        "readme_golden": {
            label: golden_status(golden["readme"].get(label), got)
            for label, got in readme.items()},
        **extras,
    }
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]
    values = layers if ns.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    problems += [f"metric {name} was not measured" for name in missing]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not problems

    results = (OUT / f"results-{workload.name}-seed{ns.seed}"
                     f"-trace{ns.trace}.json")
    results.write_text(json.dumps({
        "workload": workload.name, "seed": ns.seed, "seconds": ns.seconds,
        "trace": ns.trace, "provenance": provenance(ns.seed),
        "correct": correct, "metrics": metrics, "end_to_end": e2e,
        "step_wall_s": step_wall, "checks": checks,
        "runs": [asdict(s) for s in samples], "setup_s_samples": setup,
        "elapsed_s": time.perf_counter() - started,
    }, indent=1, sort_keys=True) + "\n")

    untraced = len(samples) - (2 if ns.trace else 0)
    print(f"{workload.name} seed={ns.seed}: {len(cycles)} timed cycles, "
          f"{untraced} untraced step runs, {len(samples) - untraced} "
          f"traced, {failed} failed (failed_frac {checks['failed_frac']:g})")
    for err in checks["errors"] + problems:
        print(f"  FAIL {err}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    if not ns.trace:
        for step in workload.steps:
            name = f"step.{step.name}.wall_s"
            print(f"  {name:44s} {step_wall[name]:.6g} s")
    if "delta_rel_err" in extras:
        print(f"  delta_rel_err (max over eps) "
              f"{extras['delta_rel_err']:.6g}")
    for name, status in checks["golden"].items():
        print(f"  golden {name}: {status}")
    for label, status in checks["readme_golden"].items():
        print(f"  readme {label}: {status}")
    print(f"  results: {results.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
