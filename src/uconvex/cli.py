"""Command-line front end: grid runs, deterministic seeding, file emission.

Subcommands map one-to-one onto the library: ``modulus`` (curves),
``construct`` (theorem-3 traces), ``extract`` (theorem-1 / baseline
clusters), ``verify`` (adversarial statement checks).  Identical flags and
seed produce byte-identical output files; nothing time- or host-dependent
is ever written.

Exit codes: 0 success, 1 verification/certificate failure, 2 configuration
error (including a sampler cell whose hypotheses it cannot satisfy, and a
file that cannot be read or written), 3 data-dependent non-failure
(insufficient cluster, exhausted construction).  Every JSON file and JSON
stdout goes through one writer, :func:`_write_json`, every file is written
whole or not at all by :func:`_write_file`, and ``modulus`` prints to
stdout exactly the text it would write to ``--out``.
"""

from __future__ import annotations

import argparse
import errno
import io
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

# Two process settings, each made before the process's first numpy
# import and each only where nothing set it before (setdefault); ``import
# uconvex`` loads no numpy and makes neither, so library importers keep
# the defaults.
# The CLI's only BLAS calls are two small matrix-vector products, but
# OpenBLAS starts one worker thread per CPU when numpy is imported; that
# idle pool costs each CLI process about 0.07 s of CPU (import-only child
# on a 2-vCPU x86-64 VM: 0.29 -> 0.22 s).  So run on one thread, unless
# the variable is set.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# ``numpy.random`` imports ``secrets``, whose ``hmac`` and ``hashlib``
# load OpenSSL's libcrypto through ``_hashlib``, and uconvex hashes
# nothing: peak RSS of ``import numpy, numpy.random`` 33.1 -> 29.7 MB
# (``import numpy`` alone: 26.8 MB; same VM).  A None entry makes
# ``import _hashlib`` fail, so ``hashlib`` and ``hmac`` use CPython's
# builtin hashes; a process that has loaded OpenSSL keeps it.
sys.modules.setdefault("_hashlib", None)

# Only the standard library so far: each handler imports the engines it
# runs, so the closed-form commands and ``--help`` load no numpy.
from . import curves
from .errors import (CertificateError, InsufficientClusterError,
                     SamplerExhaustedError)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3

DEFAULT_GRID_P = "1.5,2,3"
DEFAULT_GRID_D = "2,8"
DEFAULT_GRID_EPS = "0.5,1,1.9"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        _check_out_dirs(ns)
        return ns.func(ns)
    except (ValueError, OSError, SamplerExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientClusterError as exc:
        print(f"insufficient cluster: {exc}", file=sys.stderr)
        print(f"  best window: {exc.best_window}  members: {exc.best_count}",
              file=sys.stderr)
        print(f"  value range: {exc.value_range}  windows: {exc.window_count}"
              f"  minimum N for guaranteed success: {exc.min_n}",
              file=sys.stderr)
        return EXIT_DATA
    except CertificateError as exc:
        print(f"certificate failure (release-blocking): {exc}", file=sys.stderr)
        return EXIT_FAILURE


def _check_out_dirs(ns) -> None:
    """Fail before any work when an output file's directory is missing."""
    for path in (ns.out, getattr(ns, "vectors_out", None)):
        parent = Path(path or ".").parent
        if not parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    str(parent))


def parse_values(text: str) -> list[float]:
    """`start:stop:count` (inclusive) or comma-separated values.

    A grid has ``np.linspace``'s values bit for bit, edge cases included.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be >= 1, got {count}")
        div, delta = count - 1, stop - start
        if div == 0:
            return [0.0 * delta + start]
        step = delta / div
        if step == 0.0:  # underflow: linspace scales by i/div instead
            return [i / div * delta + start for i in range(div)] + [stop]
        return [i * step + start for i in range(div)] + [stop]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write_json(out, obj) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True, default=_jsonable)``
    and a newline to the text stream ``out``, byte for byte, for objects
    whose dict keys are strings.

    With ``indent`` json runs its pure-Python encoder, one generator step
    per value; this writer writes a container piece by piece, and a list
    of finite floats (a vector) in one piece, so it never holds the text
    of more than one vector.
    """
    _json_put(obj, "\n", out.write)
    out.write("\n")


def _write_file(path, write) -> None:
    """Write to the file ``path``, whole or not at all, the text that
    ``write(out)`` writes to the text stream ``out``: the text goes to a
    new file beside it, which then replaces ``path`` and is removed if
    writing fails, so an error part-way leaves ``path`` as it was.  A
    symbolic link is followed, so the file it names is replaced, not the
    link; a path that exists and is not a regular file (a terminal, a
    pipe) is written in place."""
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        with open(path, "w") as out:
            write(out)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as out:
            write(out)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_text(obj) -> str:
    """The text :func:`_write_json` writes, as one string."""
    buf = io.StringIO()
    _write_json(buf, obj)
    return buf.getvalue()


def _json_put(obj, nl: str, write) -> None:
    """Write ``obj`` as JSON; ``nl`` is a newline and its level's indent."""
    inner = nl + "  "
    if isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    elif isinstance(obj, float):  # json writes non-finite floats by name
        write(float.__repr__(obj) if math.isfinite(obj) else "NaN"
              if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, (list, tuple, dict)) and not obj:
        write("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        for k, (key, v) in enumerate(sorted(obj.items())):
            write(("," if k else "{") + inner
                  + encode_basestring_ascii(key) + ": ")
            _json_put(v, inner, write)
        write(nl + "}")
    elif isinstance(obj, (list, tuple)):
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            text = "n"
        if "n" not in text:  # float.__repr__ writes nan and inf with an n
            write("[" + inner + text + nl + "]")
            return
        for k, v in enumerate(obj):
            write(("," if k else "[") + inner)
            _json_put(v, inner, write)
        write(nl + "]")
    else:
        _json_put(_jsonable(obj), nl, write)


def _jsonable(obj):
    """An array as a list, a result by its ``to_json_dict`` or its fields.

    An array of more than one dimension is listed as its rows, so the
    writer turns one row at a time into Python floats.
    """
    if hasattr(obj, "tolist"):  # a numpy array, whose module may not be loaded
        return list(obj) if obj.ndim > 1 else obj.tolist()
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    return vars(obj)


# ----------------------------- modulus -----------------------------

def _cmd_modulus(ns) -> int:
    curve = curves.build_curve(
        ns.p, parse_values(ns.eps), ns.method, d=ns.d,
        budget=ns.budget, rng_seed=ns.seed)
    text = curve.csv_text() if ns.format == "csv" else _json_text(curve)
    if ns.out:
        _write_file(ns.out, lambda out: out.write(text))
        print(f"wrote {len(curve.points)} points to {ns.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ----------------------------- construct -----------------------------

def _vectors(kind: str, ns):
    """The space of ``--p`` and ``--d`` and the vectors of a kind in it;
    ``--n`` defaults to d, or d - 1 if shifted."""
    from . import sequences
    from .spaces import SpaceSpec
    space = SpaceSpec(p=ns.p, d=ns.d)
    if kind == "csv":
        if not ns.seq_file:
            raise ValueError("--seq-kind csv needs --seq-file")
        # the library makes the (n, d) array and reports ragged rows
        lines = Path(ns.seq_file).read_text().splitlines()
        return space, [[float(t) for t in line.split(",")] for line in lines
                       if line.strip()]
    n = ns.n if ns.n is not None else space.d - (kind == "shifted-basis")
    if kind == "basis":
        return space, sequences.unit_basis_seed(space, n)
    if kind == "shifted-basis":
        return space, sequences.shifted_basis_seed(space, n)
    return space, sequences.unit_basis_seed(space, 1)[[0] * n]  # e_0, n times


def _cmd_construct(ns) -> int:
    from . import sequences
    space, seed_vectors = _vectors(ns.seed_kind, ns)
    max_len = ns.max_len if ns.max_len is not None else len(seed_vectors)
    trace = sequences.theorem3_construct(
        space, seed_vectors, max_len,
        seed_description=f"{ns.seed_kind} n={len(seed_vectors)} in {space}")
    cert = trace.final_certificate
    print(f"branch={trace.branch} status={trace.status} "
          f"output={len(trace.output)}")
    print(f"separation constant: {cert.min_pairwise:.17g}")
    print(f"target 1 + delta(2/3)/2: {cert.threshold:.17g}")
    if ns.out:
        _write_file(ns.out, lambda out: _write_json(out, trace))
        print(f"wrote trace to {ns.out}")
    if ns.vectors_out:
        _write_file(ns.vectors_out, lambda out:
                    sequences.vectors_to_csv(out, trace.output))
        print(f"wrote vectors to {ns.vectors_out}")
    return EXIT_DATA if trace.status == "exhausted" else EXIT_OK


# ----------------------------- extract -----------------------------

def _cmd_extract(ns) -> int:
    from . import sequences
    space, seq = _vectors(ns.seq_kind, ns)
    x = sequences.unit_basis_seed(space, 1)[0]
    if ns.mode == "baseline":
        result = sequences.baseline_extract(space, seq, x, ns.tau)
    else:
        result = sequences.theorem1_extract(space, seq, x, ns.eps)
    print(f"selected {len(result.selected)} indices, "
          f"pair_min={result.pair_min:.17g} >= {result.guaranteed:.17g}")
    if ns.out:
        _write_file(ns.out, lambda out: _write_json(out, result))
        print(f"wrote result to {ns.out}")
    return EXIT_OK


# ----------------------------- verify -----------------------------

def _cmd_verify(ns) -> int:
    if ns.statement == "modulus-props":
        if not ns.curve_file:
            raise ValueError("--statement modulus-props needs --curve-file")
        path = Path(ns.curve_file)
        curve = (curves.ModulusCurve.from_json(path)
                 if path.suffix == ".json" else
                 curves.ModulusCurve.from_csv(path))
        reports = [curves.check_modulus_properties(curve)]
    else:
        from . import verify
        ps = parse_values(ns.p)
        ds = parse_values(ns.d)
        eps_values = parse_values(ns.eps)
        statements = (curves.STATEMENTS if ns.statement == "all"
                      else [ns.statement.replace("-", "_")])
        reports = []
        for statement in statements:
            reports.extend(verify.run_grid(
                statement, ps, ds, eps_values, ns.trials,
                ns.seed, k=ns.k))
    for rep in reports:
        print(curves.summary_line(rep))
    if ns.out:
        _write_file(ns.out, lambda out: _write_json(out, reports))
        print(f"wrote reports to {ns.out}")
    if any(rep.violations for rep in reports):
        return EXIT_FAILURE
    return EXIT_OK


# ----------------------------- parser -----------------------------

def _add_seed(sub):
    sub.add_argument("--seed", type=int, default=0, help="rng seed")


def _build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a mistyped or removed flag is an error, never
    # another flag that shares its prefix
    parser = argparse.ArgumentParser(
        prog="uconvex", allow_abbrev=False,
        description="Moduli of convexity, separated sequences and "
                    "uniform Kadec-Klee checks in finite-dimensional "
                    "l^p spaces.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("modulus", allow_abbrev=False,
                       help="emit a modulus-of-convexity curve")
    m.add_argument("--p", type=float, required=True)
    m.add_argument("--d", type=int, default=None,
                   help="dimension (empirical method only)")
    m.add_argument("--method", choices=curves.METHODS, required=True)
    m.add_argument("--eps", required=True,
                   help="grid start:stop:count or comma-separated values")
    m.add_argument("--budget", type=int, default=100000)
    m.add_argument("--format", choices=("csv", "json"), default="csv")
    m.add_argument("--out", default=None)
    _add_seed(m)
    m.set_defaults(func=_cmd_modulus)

    c = sub.add_parser("construct", allow_abbrev=False,
                       help="run the greedy separated-sequence construction")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--seed-kind", choices=("basis", "shifted-basis"),
                   default="shifted-basis")
    c.add_argument("--n", type=int, default=None, help="seed length")
    c.add_argument("--max-len", type=int, default=None)
    c.add_argument("--out", default=None, help="trace JSON path")
    c.add_argument("--vectors-out", default=None, help="output vectors CSV")
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("extract", allow_abbrev=False,
                       help="extract a certified cluster from a separated "
                            "sequence")
    e.add_argument("--mode", choices=("theorem1", "baseline"),
                   default="theorem1")
    e.add_argument("--p", type=float, required=True)
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--seq-kind",
                   choices=("basis", "shifted-basis", "constant", "csv"),
                   default="basis")
    e.add_argument("--n", type=int, default=None, help="sequence length")
    e.add_argument("--seq-file", default=None, help="CSV, one vector per row")
    e.add_argument("--eps", type=float, default=None,
                   help="claimed separation (default: measured)")
    e.add_argument("--tau", type=float, default=0.01,
                   help="baseline window width")
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_extract)

    v = sub.add_parser("verify", allow_abbrev=False,
                       help="adversarial verification of the eps-delta "
                            "statements")
    v.add_argument("--statement",
                   choices=(*(s.replace("_", "-") for s in curves.STATEMENTS),
                            "modulus-props", "all"),
                   default="all")
    v.add_argument("--p", default=DEFAULT_GRID_P,
                   help="comma-separated exponents")
    v.add_argument("--d", default=DEFAULT_GRID_D,
                   help="comma-separated dimensions")
    v.add_argument("--eps", default=DEFAULT_GRID_EPS,
                   help="comma-separated eps values")
    v.add_argument("--trials", type=int, default=2000,
                   help="kept-trial quota per grid cell")
    v.add_argument("--k", type=int, default=4, help="contraction rank")
    v.add_argument("--curve-file", default=None,
                   help="curve to check (modulus-props)")
    v.add_argument("--out", default=None, help="reports JSON path")
    _add_seed(v)
    v.set_defaults(func=_cmd_verify)

    return parser


if __name__ == "__main__":
    raise SystemExit(main())
