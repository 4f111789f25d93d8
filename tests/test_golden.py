"""Empirical-modulus outputs against the pinned hashes of ``perfbench/``.

Runs, in-process, the benchmark's ``modulus-empirical``, ``extract-p2``
and ``construct-p3`` steps at the pinned seed and the README's empirical
example, and compares the sha256 of each output file with
``perfbench/golden.json``.  The goldens are only read.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from uconvex.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from workloads import README_EXAMPLES, STEPS  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_modulus_empirical_step_matches_golden(tmp_path, capsys):
    out = tmp_path / "modulus.json"
    step = STEPS["modulus-empirical"]
    assert main(step.argv(GOLDEN["default_seed"], out)) == 0
    capsys.readouterr()
    assert _sha256(out) == GOLDEN["steps"]["modulus-empirical"]


def test_readme_empirical_example_matches_golden(tmp_path, capsys):
    argv = [a.replace("{dir}", str(tmp_path))
            for a in README_EXAMPLES["modulus-empirical"]]
    pinned = GOLDEN["readme"]["modulus-empirical"]
    assert main(argv) == pinned["exit_code"]
    capsys.readouterr()
    out = Path(argv[argv.index("--out") + 1])
    assert _sha256(out) == pinned["sha256"]


@pytest.mark.parametrize("name", ["extract-p2", "construct-p3"])
def test_pairwise_step_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    step = STEPS[name]
    assert main(step.argv(GOLDEN["default_seed"], out)) == step.expected_exit
    capsys.readouterr()
    assert _sha256(out) == GOLDEN["steps"][name]
