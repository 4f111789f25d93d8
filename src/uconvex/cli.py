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
stdout goes through one writer, :func:`_json_text`, and ``modulus``
prints to stdout exactly the text it would write to ``--out``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

# The CLI's only BLAS calls are two small matrix-vector products, but
# OpenBLAS starts one worker thread per CPU when numpy is imported; that
# idle pool costs each CLI process about 0.07 s of CPU (import-only child
# on a 2-vCPU x86-64 VM: 0.29 -> 0.22 s).  So run on one thread, unless
# the variable is set.  This must come before the process's first numpy
# import; ``import uconvex`` loads no numpy, so library importers keep
# OpenBLAS's default.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import modulus, sequences, verify
from .errors import (CertificateError, InsufficientClusterError,
                     SamplerExhaustedError)
from .spaces import SpaceSpec

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
    """`start:stop:count` (inclusive) or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be >= 1, got {count}")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n"


def _jsonable(obj):
    """An array as a list, a result by its ``to_json_dict`` or its fields."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    return vars(obj)


# ----------------------------- modulus -----------------------------

def _cmd_modulus(ns) -> int:
    curve = modulus.build_curve(
        ns.p, parse_values(ns.eps), ns.method, d=ns.d,
        budget=ns.budget, rng_seed=ns.seed)
    text = curve.csv_text() if ns.format == "csv" else _json_text(curve)
    if ns.out:
        Path(ns.out).write_text(text)
        print(f"wrote {len(curve.points)} points to {ns.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ----------------------------- construct -----------------------------

def _vectors(kind: str, ns, space: SpaceSpec):
    """The vectors of a kind; ``--n`` defaults to d, or d - 1 if shifted."""
    if kind == "csv":
        if not ns.seq_file:
            raise ValueError("--seq-kind csv needs --seq-file")
        # the library makes the (n, d) array and reports ragged rows
        lines = Path(ns.seq_file).read_text().splitlines()
        return [[float(t) for t in line.split(",")] for line in lines
                if line.strip()]
    n = ns.n if ns.n is not None else space.d - (kind == "shifted-basis")
    if kind == "basis":
        return sequences.unit_basis_seed(space, n)
    if kind == "shifted-basis":
        return sequences.shifted_basis_seed(space, n)
    if kind == "riesz":
        return sequences.riesz_seed(space, n, ns.budget, ns.seed)
    return sequences.unit_basis_seed(space, 1)[[0] * n]  # n copies of e_0


def _cmd_construct(ns) -> int:
    space = SpaceSpec(p=ns.p, d=ns.d)
    seed_vectors = _vectors(ns.seed_kind, ns, space)
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
        Path(ns.out).write_text(_json_text(trace))
        print(f"wrote trace to {ns.out}")
    if ns.vectors_out:
        sequences.vectors_to_csv(ns.vectors_out, trace.output)
        print(f"wrote vectors to {ns.vectors_out}")
    return EXIT_DATA if trace.status == "exhausted" else EXIT_OK


# ----------------------------- extract -----------------------------

def _cmd_extract(ns) -> int:
    space = SpaceSpec(p=ns.p, d=ns.d)
    seq = _vectors(ns.seq_kind, ns, space)
    x = sequences.unit_basis_seed(space, 1)[0]
    if ns.mode == "baseline":
        result = sequences.baseline_extract(space, seq, x, ns.tau)
    else:
        result = sequences.theorem1_extract(space, seq, x, ns.eps)
    print(f"selected {len(result.selected)} indices, "
          f"pair_min={result.pair_min:.17g} >= {result.guaranteed:.17g}")
    if ns.out:
        Path(ns.out).write_text(_json_text(result))
        print(f"wrote result to {ns.out}")
    return EXIT_OK


# ----------------------------- verify -----------------------------

def _cmd_verify(ns) -> int:
    if ns.statement == "modulus-props":
        if not ns.curve_file:
            raise ValueError("--statement modulus-props needs --curve-file")
        path = Path(ns.curve_file)
        curve = (modulus.ModulusCurve.from_json(path)
                 if path.suffix == ".json" else
                 modulus.ModulusCurve.from_csv(path))
        reports = [verify.check_modulus_properties(curve)]
    else:
        ps = parse_values(ns.p)
        ds = parse_values(ns.d)
        eps_values = parse_values(ns.eps)
        statements = (list(verify.SAMPLERS) if ns.statement == "all"
                      else [ns.statement.replace("-", "_")])
        reports = []
        for statement in statements:
            reports.extend(verify.run_grid(
                statement, ps, ds, eps_values, ns.trials,
                ns.seed, k=ns.k))
    for rep in reports:
        print(verify.summary_line(rep))
    if ns.out:
        Path(ns.out).write_text(_json_text(reports))
        print(f"wrote reports to {ns.out}")
    if any(rep.violations for rep in reports):
        return EXIT_FAILURE
    return EXIT_OK


# ----------------------------- parser -----------------------------

def _add_seed(sub):
    sub.add_argument("--seed", type=int, default=0, help="rng seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uconvex",
        description="Moduli of convexity, separated sequences and "
                    "uniform Kadec-Klee checks in finite-dimensional "
                    "l^p spaces.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("modulus", help="emit a modulus-of-convexity curve")
    m.add_argument("--p", type=float, required=True)
    m.add_argument("--d", type=int, default=None,
                   help="dimension (empirical method only)")
    m.add_argument("--method", choices=modulus.METHODS, required=True)
    m.add_argument("--eps", required=True,
                   help="grid start:stop:count or comma-separated values")
    m.add_argument("--budget", type=int, default=100000)
    m.add_argument("--format", choices=("csv", "json"), default="csv")
    m.add_argument("--out", default=None)
    _add_seed(m)
    m.set_defaults(func=_cmd_modulus)

    c = sub.add_parser("construct", help="run the greedy separated-sequence "
                                         "construction")
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--seed-kind", choices=("basis", "shifted-basis", "riesz"),
                   default="shifted-basis")
    c.add_argument("--n", type=int, default=None, help="seed length")
    c.add_argument("--budget", type=int, default=20000)
    c.add_argument("--max-len", type=int, default=None)
    c.add_argument("--out", default=None, help="trace JSON path")
    c.add_argument("--vectors-out", default=None, help="output vectors CSV")
    _add_seed(c)
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("extract", help="extract a certified cluster from a "
                                       "separated sequence")
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

    v = sub.add_parser("verify", help="adversarial verification of the "
                                      "eps-delta statements")
    v.add_argument("--statement",
                   choices=(*(s.replace("_", "-") for s in verify.SAMPLERS),
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
