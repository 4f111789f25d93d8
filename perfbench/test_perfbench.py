"""Tests of the benchmark's output checks and tracer, at small input sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import (STEP_SEPARATOR, WORKLOADS,  # noqa: E402
                       ConstructP3, ExtractP2, ModulusEmpirical, VerifyGrid,
                       Workload)

SMALL = {
    "extract-p2": ExtractP2(d=30),
    "construct-p3": ConstructP3(d=24),
    "modulus-empirical": ModulusEmpirical(budget=3000),
    "verify-grid": VerifyGrid(trials=20),
}
# The benchmark's workloads, made of the small steps.
SMALL_WORKLOADS = {
    w.name: Workload(w.name, tuple(SMALL[s.name] for s in w.steps))
    for w in WORKLOADS.values()}


def _traced(workload, tmp: Path, tag: str) -> tuple[dict, dict]:
    """Trace all the workload's steps in one call: (outputs, report)."""
    outs, argv = {}, []
    for step in workload.steps:
        outs[step.name] = tmp / f"{step.name}-{tag}.out"
        argv += ([STEP_SEPARATOR] * bool(argv)
                 + step.argv(3, outs[step.name]))
    report = tmp / f"{workload.name}-{tag}.json"
    assert tracer.main([str(report), *argv]) == 0
    rep = json.loads(report.read_text())
    assert rep["exit_codes"] == [s.expected_exit for s in workload.steps]
    return outs, rep


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Each small workload traced twice at one seed: (outputs, two reports)."""
    tmp = tmp_path_factory.mktemp("traced")
    result = {}
    for name, w in SMALL_WORKLOADS.items():
        outs, first = _traced(w, tmp, "1")
        _, second = _traced(w, tmp, "2")
        result[name] = (outs, first, second)
    return result


@pytest.fixture(scope="module")
def outputs(traced_pairs):
    """The first traced output of each small step."""
    return {step: out for outs, _, _ in traced_pairs.values()
            for step, out in outs.items()}


def test_workloads_cover_every_step():
    steps = [s.name for w in WORKLOADS.values() for s in w.steps]
    assert sorted(steps) == sorted(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_accepts_real_output(name, outputs):
    extras = checks.check(SMALL[name], outputs[name])
    if name == "modulus-empirical":
        assert extras["delta_rel_err"] >= 0.0


def _tamper_extract(data):
    data["pair_min"] += 1e-9


def _tamper_construct(data):
    data["output"] = data["output"][:-1]


def _tamper_modulus(data):
    pt = data["points"][0]
    pt["delta"] = pt["delta"] - 1e-6


def _tamper_verify(data):
    data[5]["violations"] = [{"dist": 3.0}]


TAMPER = {"extract-p2": _tamper_extract, "construct-p3": _tamper_construct,
          "modulus-empirical": _tamper_modulus, "verify-grid": _tamper_verify}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_rejects_tampered_output(name, outputs, tmp_path):
    data = json.loads(outputs[name].read_text())
    TAMPER[name](data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(checks.CheckError):
        checks.check(SMALL[name], bad)


def test_check_rejects_malformed_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(checks.CheckError):
        checks.check(SMALL["extract-p2"], bad)


@pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
def test_tracer_self_checks(name, traced_pairs):
    _, first, second = traced_pairs[name]
    for report in (first, second):
        assert report["self_check_failures"] == {}
        m = report["metrics"]
        assert m["cli.main.calls"] == len(SMALL_WORKLOADS[name].steps)
        assert m["cli.output_bytes"] == sum(
            out.stat().st_size for out in traced_pairs[name][0].values())
        total = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert total > 0.0


@pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
def test_tracer_counts_repeat_exactly(name, traced_pairs):
    _, first, second = traced_pairs[name]
    counts = {k: v for k, v in first["metrics"].items() if isinstance(v, int)}
    assert counts
    again = {k: v for k, v in second["metrics"].items() if isinstance(v, int)}
    assert counts == again


@pytest.mark.parametrize("name", sorted(SMALL_WORKLOADS))
def test_idle_layers_read_zero(name, traced_pairs):
    _, first, _ = traced_pairs[name]
    assert SMALL_WORKLOADS[name].idle
    for key in SMALL_WORKLOADS[name].idle:
        assert first["metrics"].get(key, 0) == 0, key


def test_idle_layers_are_idle_in_every_step():
    pairwise = WORKLOADS["pairwise"].idle
    assert "search.refine.calls" in pairwise
    assert "sequences.theorem3_construct.calls" not in pairwise
    sampling = WORKLOADS["sampling"].idle
    assert "sequences.separation.calls" in sampling
    assert "search.refine.calls" not in sampling


def test_busy_layers_are_counted(traced_pairs):
    m = {name: rep["metrics"] for name, (_, rep, _) in traced_pairs.items()}
    assert m["pairwise"]["sequences.theorem1_extract.pair_evals"] > 0
    assert m["pairwise"]["sequences.theorem3_construct.steps"] > 0
    assert m["sampling"]["search.refine.evals"] > 0
    assert m["sampling"]["verify.remark45.kept"] >= 27 * 20


def test_split_commands():
    assert tracer.split_commands(["a", "b", STEP_SEPARATOR, "c"]) == [
        ["a", "b"], ["c"]]
    assert tracer.split_commands(["a"]) == [["a"]]


def test_tracer_restores_names():
    import uconvex.modulus
    import uconvex.spaces
    before = (uconvex.spaces.norm, uconvex.modulus.norm)
    t = tracer.Tracer("restore")
    t.install()
    assert uconvex.modulus.norm is not before[1]
    t.uninstall()
    assert (uconvex.spaces.norm, uconvex.modulus.norm) == before


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairwise",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
