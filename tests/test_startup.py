"""Start-up path: ``import uconvex`` loads no submodule and no numpy, and
the CLI pins OpenBLAS to one thread before numpy loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uconvex

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
    out = _child("import os, uconvex.cli; "
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
