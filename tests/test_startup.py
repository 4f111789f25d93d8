"""Start-up path: ``import uconvex`` loads no submodule and no numpy, the
CLI pins OpenBLAS to one thread before numpy loads, and each CLI command
loads only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uconvex
from uconvex.cli import _json_text
from uconvex.curves import build_curve

SRC = Path(__file__).resolve().parents[1] / "src"


def _child(code, **env):
    """Run ``code`` in a fresh interpreter without OPENBLAS_NUM_THREADS."""
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**base, "PYTHONPATH": str(SRC), **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_uconvex_loads_no_numpy():
    out = _child("import os, sys, uconvex; "
                 "print('numpy' in sys.modules, "
                 "os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert out == ["False", "None"]


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(not sys.platform.startswith("linux") or _cpus() < 2,
                    reason="counts threads in /proc; needs 2 CPUs for a pool")
def test_cli_import_runs_numpy_on_one_thread():
    # the CLI module loads no numpy, so import it after, as a handler does
    out = _child("import os, uconvex.cli, numpy; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], "
                 "len(os.listdir('/proc/self/task')))")
    assert out == ["1", "1"]


def test_cli_import_keeps_a_preset_thread_count():
    out = _child("import os, uconvex.cli; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'])",
                 OPENBLAS_NUM_THREADS="2")
    assert out == ["2"]


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        uconvex.no_such_name
    assert not hasattr(uconvex, "search_refine")
    from uconvex import search
    assert search is sys.modules["uconvex.search"]


def _loaded(argv):
    """Exit code and the numpy and uconvex submodules one CLI run loads."""
    out = _child("import contextlib, io, sys\n"
                 "from uconvex.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = main({argv!r})\n"
                 "print(code, *sorted(m for m in sys.modules\n"
                 "                    if m == 'numpy' or m.startswith('uconvex.')))")
    return int(out[0]), set(out[1:])


def test_cli_import_loads_no_numpy_and_no_engine():
    out = _child("import sys, uconvex.cli; "
                 "print(*sorted(m for m in sys.modules "
                 "if m == 'numpy' or m.startswith('uconvex.')))")
    assert out == ["uconvex.cli", "uconvex.curves", "uconvex.errors",
                   "uconvex.rounding"]


CLOSED_FORM = [["modulus", "--p", p, "--method", method, "--eps",
                "0.1:2.0:20", "--format", fmt]
               for p, method in (("2", "clarkson"), ("1.5", "hanner"))
               for fmt in ("csv", "json")]


@pytest.mark.parametrize("argv", [["--help"], *CLOSED_FORM],
                         ids=lambda argv: "-".join(argv[4::4]) or "help")
def test_closed_form_commands_load_no_numpy(argv):
    code, loaded = _loaded(argv)
    assert code == 0
    assert "numpy" not in loaded


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_closed_form_curve_check_loads_no_numpy(tmp_path, suffix):
    curve = build_curve(2.0, [0.5, 1.0, 1.5], "clarkson")
    path = tmp_path / f"curve{suffix}"
    path.write_text(curve.csv_text() if suffix == ".csv"
                    else _json_text(curve))
    code, loaded = _loaded(["verify", "--statement", "modulus-props",
                            "--curve-file", str(path)])
    assert code == 0
    assert "numpy" not in loaded


# Each command with a module it runs and modules it must not load.
ENGINE_COMMANDS = [
    (["modulus", "--p", "1.5", "--d", "2", "--method", "empirical",
      "--eps", "0.5,1", "--budget", "200"], 0, "uconvex.modulus",
     {"uconvex.sequences", "uconvex.verify"}),
    (["verify", "--statement", "lemma23", "--p", "2", "--d", "2",
      "--eps", "1", "--trials", "10"], 0, "uconvex.verify",
     {"uconvex.sequences"}),
    (["extract", "--p", "2", "--d", "4"], 0, "uconvex.sequences",
     {"uconvex.verify", "uconvex.search"}),
    (["construct", "--p", "2", "--d", "4"], 3, "uconvex.sequences",
     {"uconvex.verify", "uconvex.search"}),
]


@pytest.mark.parametrize("argv, exit_code, engine, absent", ENGINE_COMMANDS,
                         ids=[argv[0] for argv, *_ in ENGINE_COMMANDS])
def test_engine_commands_load_only_their_engines(argv, exit_code, engine,
                                                 absent):
    code, loaded = _loaded(argv)
    assert code == exit_code
    assert {"numpy", engine} <= loaded
    assert not loaded & absent
