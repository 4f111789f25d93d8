"""Step and README outputs against the pinned hashes of ``perfbench/``.

Runs, in-process, the benchmark's four steps at the pinned seed and the
seven README examples, and compares the sha256 of each output (the output
file, or stdout for the examples without one) and each README exit code
with ``perfbench/golden.json``.  The goldens are only read.
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


def test_verify_grid_step_matches_golden(tmp_path, capsys):
    out = tmp_path / "reports.json"
    step = STEPS["verify-grid"]
    assert main(step.argv(GOLDEN["default_seed"], out)) == 0
    capsys.readouterr()
    assert _sha256(out) == GOLDEN["steps"]["verify-grid"]


def _readme_digest(label: str, tmp_path: Path, capsys) -> dict:
    """Exit code and sha256 of a README example's output, as the goldens
    record them: the ``--out`` file, or stdout when there is none."""
    argv = [a.replace("{dir}", str(tmp_path)) for a in README_EXAMPLES[label]]
    code = main(argv)
    stdout = capsys.readouterr().out
    if "--out" in argv:
        digest = _sha256(Path(argv[argv.index("--out") + 1]))
    else:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
    return {"exit_code": code, "sha256": digest}


def test_readme_empirical_example_matches_golden(tmp_path, capsys):
    assert (_readme_digest("modulus-empirical", tmp_path, capsys)
            == GOLDEN["readme"]["modulus-empirical"])


def test_readme_verify_all_example_matches_golden(tmp_path, capsys):
    assert (_readme_digest("verify-all", tmp_path, capsys)
            == GOLDEN["readme"]["verify-all"])


@pytest.mark.parametrize("label", ["modulus-clarkson", "construct",
                                   "extract-theorem1", "extract-baseline",
                                   "verify-modulus-props"])
def test_readme_example_matches_golden(label, tmp_path, capsys):
    if label == "verify-modulus-props":
        # checks the curve file that the clarkson example writes
        _readme_digest("modulus-clarkson", tmp_path, capsys)
    assert _readme_digest(label, tmp_path, capsys) == GOLDEN["readme"][label]


@pytest.mark.parametrize("name", ["extract-p2", "construct-p3"])
def test_pairwise_step_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    step = STEPS[name]
    assert main(step.argv(GOLDEN["default_seed"], out)) == step.expected_exit
    capsys.readouterr()
    assert _sha256(out) == GOLDEN["steps"][name]
