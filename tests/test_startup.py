"""Start-up path: ``import uconvex`` loads no submodule and no numpy, the
CLI pins OpenBLAS to one thread and keeps OpenSSL out before numpy loads,
and each CLI command loads only the modules it runs."""

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
    """Standard output of ``code`` run in a fresh interpreter without
    OPENBLAS_NUM_THREADS, which must exit 0 and write no standard error."""
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**base, "PYTHONPATH": str(SRC), **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_import_uconvex_loads_no_numpy():
    out = _child("import os, sys, uconvex; "
                 "print('numpy' in sys.modules, "
                 "os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert out.split() == ["False", "None"]


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
    assert out.split() == ["1", "1"]


def test_cli_import_keeps_a_preset_thread_count():
    out = _child("import os, uconvex.cli; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'])",
                 OPENBLAS_NUM_THREADS="2")
    assert out.split() == ["2"]


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        uconvex.no_such_name
    assert not hasattr(uconvex, "search_refine")
    from uconvex import search
    assert search is sys.modules["uconvex.search"]


def _loaded(argv, before=""):
    """Exit code, the numpy, OpenSSL and uconvex modules loaded and the
    standard output of one CLI run in a child that runs ``before`` first.

    A module blocked by a None entry in ``sys.modules`` is not loaded.
    """
    out = _child(f"{before}\n"
                 "import contextlib, io, sys\n"
                 "from uconvex.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
                 f"    code = main({argv!r})\n"
                 "print(code, *sorted(m for m, mod in sys.modules.items()\n"
                 "                    if mod is not None and (\n"
                 "                        m in ('numpy', '_hashlib', 'ssl')\n"
                 "                        or m.startswith('uconvex.'))))\n"
                 "sys.stdout.write(text.getvalue())")
    head, _, stdout = out.partition("\n")
    code, *loaded = head.split()
    return int(code), set(loaded), stdout


def test_cli_import_loads_no_numpy_and_no_engine():
    out = _child("import sys, uconvex.cli; "
                 "print(*sorted(m for m in sys.modules "
                 "if m == 'numpy' or m.startswith('uconvex.')))")
    assert out.split() == ["uconvex.cli", "uconvex.curves", "uconvex.errors",
                           "uconvex.rounding"]


CLOSED_FORM = [["modulus", "--p", p, "--method", method, "--eps",
                "0.1:2.0:20", "--format", fmt]
               for p, method in (("2", "clarkson"), ("1.5", "hanner"))
               for fmt in ("csv", "json")]


@pytest.mark.parametrize("argv", [["--help"], *CLOSED_FORM],
                         ids=lambda argv: "-".join(argv[4::4]) or "help")
def test_closed_form_commands_load_no_numpy(argv):
    code, loaded, _ = _loaded(argv)
    assert code == 0
    assert "numpy" not in loaded


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_closed_form_curve_check_loads_no_numpy(tmp_path, suffix):
    curve = build_curve(2.0, [0.5, 1.0, 1.5], "clarkson")
    path = tmp_path / f"curve{suffix}"
    path.write_text(curve.csv_text() if suffix == ".csv"
                    else _json_text(curve))
    code, loaded, _ = _loaded(["verify", "--statement", "modulus-props",
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
     {"uconvex.verify", "uconvex.search", "uconvex.sampling"}),
    (["construct", "--p", "2", "--d", "4"], 3, "uconvex.sequences",
     {"uconvex.verify", "uconvex.search", "uconvex.sampling"}),
]


@pytest.mark.parametrize("argv, exit_code, engine, absent", ENGINE_COMMANDS,
                         ids=[argv[0] for argv, *_ in ENGINE_COMMANDS])
def test_engine_commands_load_only_their_engines(argv, exit_code, engine,
                                                 absent):
    code, loaded, _ = _loaded(argv)
    assert code == exit_code
    assert {"numpy", engine} <= loaded
    assert not loaded & absent


# The commands that draw random numbers: numpy.random imports secrets,
# hmac and hashlib.
SAMPLING_COMMANDS = [argv for argv, *_ in ENGINE_COMMANDS
                     if argv[0] in ("modulus", "verify")]


@pytest.mark.parametrize("argv", SAMPLING_COMMANDS,
                         ids=[argv[0] for argv in SAMPLING_COMMANDS])
def test_sampling_commands_load_no_openssl(argv):
    """A CLI run keeps ``_hashlib`` and ``ssl`` out, writes no standard
    error (``hashlib`` logs any hash it cannot build) and writes the
    bytes of a run in a process that loaded OpenSSL first, which the CLI
    leaves loaded."""
    code, loaded, stdout = _loaded(argv)
    assert code == 0 and stdout
    assert not loaded & {"_hashlib", "ssl"}
    code, loaded, with_openssl = _loaded(argv, before="import hashlib")
    assert code == 0
    assert "_hashlib" in loaded
    assert with_openssl == stdout


def test_unseeded_generator_draws_without_openssl():
    """``default_rng()`` seeds from the OS through ``secrets``."""
    out = _child("import sys, uconvex.cli, numpy as np\n"
                 "draws = np.random.default_rng().random(4)\n"
                 "print(sys.modules.get('_hashlib') is None, "
                 "len(set(draws.tolist())), bool(((0 <= draws) & "
                 "(draws < 1)).all()))")
    assert out.split() == ["True", "4", "True"]
