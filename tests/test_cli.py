import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uconvex import sequences
from uconvex.cli import main, parse_values
from uconvex.modulus import lp_delta
from uconvex.spaces import SpaceSpec

SQRT2 = 2.0 ** 0.5


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------- flag parsing -----------------------------

def test_parse_values_grid_and_lists():
    assert parse_values("0.5:1.5:3") == [0.5, 1.0, 1.5]
    assert parse_values("2:2:1") == [2.0]
    assert parse_values("2:9:1") == [2.0]  # count=1 means the start value
    assert parse_values("0.5,1,1.9") == [0.5, 1.0, 1.9]
    assert parse_values("1.25") == [1.25]
    with pytest.raises(ValueError):
        parse_values("1:2")
    with pytest.raises(ValueError):
        parse_values("1:2:0")


# ----------------------------- modulus command -----------------------------

def test_modulus_clarkson_grid(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run(capsys, "modulus", "--p", "2", "--method",
                          "clarkson", "--eps", "0.1:2.0:20",
                          "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,delta,method,witness_x,witness_y"
    assert len(lines) == 21  # header + 20 rows


def test_modulus_hanner_single_row(capsys):
    code, stdout, _ = run(capsys, "modulus", "--p", "1.5", "--method",
                          "hanner", "--eps", "2:2:1")
    assert code == 0
    assert stdout.splitlines() == ["eps,delta,method,witness_x,witness_y",
                                   "2,1,hanner,,"]


def test_modulus_invalid_configs(capsys):
    code, _, err = run(capsys, "modulus", "--p", "1.5", "--method",
                       "clarkson", "--eps", "1")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "modulus", "--p", "2", "--method", "clarkson",
                     "--eps", "0:1:5")
    assert code == 2
    code, _, _ = run(capsys, "modulus", "--p", "2", "--method", "empirical",
                     "--eps", "1")  # missing --d
    assert code == 2


def test_modulus_empirical_deterministic_files(tmp_path, capsys):
    args = ("modulus", "--p", "3", "--d", "2", "--method", "empirical",
            "--eps", "0.5,1.0", "--budget", "5000", "--seed", "7")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    aj, bj = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, *args, "--format", "json", "--out", str(aj))[0] == 0
    assert run(capsys, *args, "--format", "json", "--out", str(bj))[0] == 0
    assert aj.read_bytes() == bj.read_bytes()


def test_modulus_seed_ignores_the_environment(tmp_path, capsys, monkeypatch):
    # the seed comes from --seed alone: the same flags give the same bytes
    args = ("modulus", "--p", "2", "--d", "2", "--method", "empirical",
            "--eps", "1", "--budget", "2000")
    monkeypatch.delenv("UCONVEX_SEED", raising=False)
    unset = tmp_path / "unset.csv"
    assert run(capsys, *args, "--out", str(unset))[0] == 0
    for value in ("99", "bogus"):
        monkeypatch.setenv("UCONVEX_SEED", value)
        out = tmp_path / f"{value}.csv"
        assert run(capsys, *args, "--out", str(out))[0] == 0
        assert out.read_bytes() == unset.read_bytes()


# ----------------------------- construct command -----------------------------

def test_construct_shifted_basis_l2_64(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code, stdout, _ = run(capsys, "construct", "--p", "2", "--d", "64",
                          "--seed-kind", "shifted-basis", "--n", "63",
                          "--max-len", "64", "--out", str(out))
    assert code == 3  # exhausted: data-dependent non-failure
    assert "branch=low" in stdout
    constant = float(stdout.split("separation constant: ")[1].split()[0])
    assert constant >= 1.0285954792089682
    trace = json.loads(out.read_text())
    assert trace["status"] == "exhausted"
    assert len(trace["output"]) == 31
    assert trace["final_certificate"]["pass"] is True


def test_construct_basis_l2_16_branch_high(capsys):
    code, stdout, _ = run(capsys, "construct", "--p", "2", "--d", "16",
                          "--seed-kind", "basis", "--max-len", "16")
    assert code == 0
    assert "branch=high" in stdout
    constant = float(stdout.split("separation constant: ")[1].split()[0])
    assert constant == pytest.approx(SQRT2, abs=1e-12)


def test_construct_max_len_one(capsys):
    code, stdout, _ = run(capsys, "construct", "--p", "2", "--d", "8",
                          "--max-len", "1")
    assert code == 0
    assert "output=1" in stdout


def test_construct_riesz_deterministic(tmp_path, capsys):
    args = ("construct", "--p", "2", "--d", "6", "--seed-kind", "riesz",
            "--n", "6", "--budget", "4000", "--seed", "5", "--max-len", "6")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    va, vb = tmp_path / "a.csv", tmp_path / "b.csv"
    ca, *_ = run(capsys, *args, "--out", str(a), "--vectors-out", str(va))
    cb, *_ = run(capsys, *args, "--out", str(b), "--vectors-out", str(vb))
    assert ca == cb
    assert a.read_bytes() == b.read_bytes()
    assert va.read_bytes() == vb.read_bytes()


# each (p, d, n, seed) exited 2 while the riesz seed targeted 1 - 0.01
@pytest.mark.parametrize("p, d, n, seed", [
    (1.5, 4, 40, 1), (1.5, 4, 40, 2), (1.5, 4, 40, 5), (3, 4, 40, 2),
    (3, 4, 40, 3), (2, 3, 20, 3), (2, 3, 20, 6),
])
def test_construct_riesz_seed_is_one_separated(monkeypatch, capsys, p, d, n,
                                               seed):
    seeds = []
    riesz_seed = sequences.riesz_seed

    def recorded(*args):
        seeds.append(riesz_seed(*args))
        return seeds[-1]

    monkeypatch.setattr(sequences, "riesz_seed", recorded)
    code, _, err = run(capsys, "construct", "--p", str(p), "--d", str(d),
                       "--n", str(n), "--seed-kind", "riesz",
                       "--seed", str(seed))
    assert code == 0 and err == ""
    [vectors] = seeds
    space = SpaceSpec(p=p, d=d)
    cert = sequences.certify(space, vectors, 1.0)
    assert len(vectors) >= 2 and cert.passed and cert.threshold == 1.0
    assert sequences.separation(space, vectors) >= 1.0


@pytest.mark.parametrize("kind, extra", [
    ("basis", ()), ("shifted-basis", ()),
    ("riesz", ("--n", "6", "--budget", "2000")),
])
def test_construct_seed_description_names_kind_length_and_space(
        tmp_path, capsys, monkeypatch, kind, extra):
    seeds = []
    construct = sequences.theorem3_construct

    def recorded(space, seed, *args, **kw):
        seeds.append(seed)
        return construct(space, seed, *args, **kw)

    monkeypatch.setattr(sequences, "theorem3_construct", recorded)
    out = tmp_path / "trace.json"
    code, _, err = run(capsys, "construct", "--p", "3", "--d", "6",
                       "--seed-kind", kind, *extra, "--out", str(out))
    assert code in (0, 3), err
    [seed] = seeds
    assert json.loads(out.read_text())["seed_description"] == \
        f"{kind} n={len(seed)} in l^3_6"


def test_construct_invalid_seed_spec(capsys):
    code, _, err = run(capsys, "construct", "--p", "2", "--d", "4",
                       "--seed-kind", "shifted-basis", "--n", "9")
    assert code == 2 and "error" in err


# ----------------------------- extract command -----------------------------

def test_extract_theorem1_basis(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, stdout, _ = run(capsys, "extract", "--mode", "theorem1", "--p", "2",
                          "--d", "200", "--seq-kind", "basis",
                          "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert len(result["selected"]) == 199
    assert result["pair_min"] == pytest.approx(3.0 ** 0.5, abs=1e-9)


def test_extract_shifted_basis_default_length(capsys):
    # without --n the shifted basis takes its d - 1 vectors, as construct does
    code, stdout, err = run(capsys, "extract", "--p", "2", "--d", "8",
                            "--seq-kind", "shifted-basis")
    assert code == 0, err
    assert stdout.startswith("selected 7 indices, ")


def test_extract_baseline_constant(capsys):
    code, stdout, _ = run(capsys, "extract", "--mode", "baseline", "--p", "2",
                          "--d", "8", "--seq-kind", "constant", "--n", "5",
                          "--tau", "0.01")
    assert code == 0
    assert "pair_min=1 " in stdout


def test_extract_baseline_writes_its_result_file(tmp_path, capsys):
    out = tmp_path / "baseline.json"
    code, stdout, err = run(capsys, "extract", "--mode", "baseline", "--p",
                            "2", "--d", "8", "--seq-kind", "constant", "--n",
                            "5", "--tau", "0.01", "--out", str(out))
    assert code == 0, err
    assert stdout.endswith(f"wrote result to {out}\n")
    assert json.loads(out.read_text()) == {
        "selected": [0, 1, 2, 3, 4], "window": [1.0, 1.01],
        "pair_min": 1.0, "guaranteed": 0.99}


def test_extract_without_eps_names_two_equal_vectors(tmp_path, capsys):
    seq_file = tmp_path / "dup.csv"
    seq_file.write_text("1,0\n1,0\n")
    code, _, err = run(capsys, "extract", "--p", "2", "--d", "2",
                       "--seq-kind", "csv", "--seq-file", str(seq_file))
    assert code == 2
    assert err == "error: sequence has two equal vectors (separation 0)\n"


def test_extract_insufficient_cluster_exit_3(tmp_path, capsys):
    # spread functional values: windows hold one point each
    seq_file = tmp_path / "seq.csv"
    rows = []
    for t in (0.0, 0.35, 0.7):
        rows.append(f"{t},{(1 - t * t) ** 0.5}")
    seq_file.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "extract", "--mode", "theorem1", "--p", "2",
                       "--d", "2", "--seq-kind", "csv",
                       "--seq-file", str(seq_file))
    assert code == 3
    assert "minimum N for guaranteed success" in err


def test_extract_ragged_csv_is_dimension_error_exit_2(tmp_path, capsys):
    seq_file = tmp_path / "ragged.csv"
    seq_file.write_text("1,0\n0,1,0\n")
    code, stdout, err = run(capsys, "extract", "--p", "2", "--d", "2",
                            "--seq-kind", "csv", "--seq-file", str(seq_file))
    assert code == 2
    assert stdout == ""
    assert err == "error: ragged or non-numeric rows\n"


def test_extract_measured_separation_above_2_is_capped(tmp_path, capsys):
    # a 3-separated sequence is 2-separated, and delta is defined on (0, 2]
    seq_file = tmp_path / "seq.csv"
    seq_file.write_text("0,0\n3,0\n0,3\n")
    out = tmp_path / "result.json"
    code, _, err = run(capsys, "extract", "--p", "2", "--d", "2",
                       "--seq-kind", "csv", "--seq-file", str(seq_file),
                       "--out", str(out))
    assert code == 0, err
    assert json.loads(out.read_text())["delta_eps"] == lp_delta(2, 4 / 3)


def test_extract_kappa_flag_is_gone(capsys):
    code, stdout, err = run(capsys, "extract", "--p", "2", "--d", "4",
                            "--kappa", "0.3")
    assert code == 2
    assert stdout == ""
    assert "--kappa" in err


def test_extract_csv_requires_file(capsys):
    code, _, _ = run(capsys, "extract", "--p", "2", "--d", "2",
                     "--seq-kind", "csv")
    assert code == 2


# ----------------------------- verify command -----------------------------

def test_verify_statement_grid_and_determinism(tmp_path, capsys):
    args = ("verify", "--statement", "lemma23", "--p", "2", "--d", "2,4",
            "--eps", "0.5,1", "--trials", "300", "--seed", "3")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, stdout, _ = run(capsys, *args, "--out", str(a))
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ln.startswith("lemma23,")]
    assert len(lines) == 4
    assert all(ln.endswith(",0") for ln in lines)
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_all_statements(capsys):
    code, stdout, _ = run(capsys, "verify", "--statement", "all", "--p", "2",
                          "--d", "2", "--eps", "1", "--trials", "200",
                          "--seed", "1")
    assert code == 0
    assert "lemma23," in stdout
    assert "thm2_condition3," in stdout
    assert "remark45," in stdout


def test_verify_zero_trials_is_config_error(capsys):
    code, _, _ = run(capsys, "verify", "--statement", "lemma23",
                     "--trials", "0")
    assert code == 2


def test_verify_sampler_exhaustion_exit_2_without_traceback():
    # delta(2e-8/3) underflows to 0, so no trial can satisfy |s| < delta
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "uconvex.cli", "verify", "--statement",
         "lemma23", "--p", "1.5", "--d", "2", "--eps", "1e-8",
         "--trials", "50"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "lemma23" in proc.stderr and "p=1.5, d=2, eps=1e-08" in proc.stderr


def test_modulus_bad_eps_fails_before_any_empirical_work(capsys,
                                                          monkeypatch):
    import uconvex.modulus

    calls = []
    real = uconvex.modulus.empirical_delta

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(uconvex.modulus, "empirical_delta", counting)
    code, stdout, err = run(capsys, "modulus", "--p", "1.5", "--d", "4",
                            "--method", "empirical", "--eps", "0.5,3")
    assert code == 2
    assert calls == []
    assert stdout == ""
    assert err == "error: eps must lie in (0, 2], got 3.0\n"


def test_modulus_missing_d_fails_before_bad_eps_and_empirical_work(
        capsys, monkeypatch):
    import uconvex.modulus

    calls = []
    monkeypatch.setattr(uconvex.modulus, "empirical_delta",
                        lambda *args: calls.append(args))
    code, stdout, err = run(capsys, "modulus", "--p", "1.5", "--method",
                            "empirical", "--eps", "0.5,3")
    assert code == 2
    assert calls == []
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dimension d" in err and "--d" in err


@pytest.mark.parametrize("dims", ["2.5", "2,2.9", "inf"])
def test_verify_non_integer_dimension_exit_2_before_any_cell(
        capsys, monkeypatch, dims):
    import uconvex.verify

    calls = []
    monkeypatch.setattr(uconvex.verify, "check_lemma23",
                        lambda *args: calls.append(args))
    code, stdout, err = run(capsys, "verify", "--statement", "lemma23",
                            "--p", "2", "--d", dims, "--eps", "1",
                            "--trials", "10")
    assert code == 2
    assert calls == []
    assert stdout == ""
    assert err.startswith("error: dimension d must be a positive integer")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [
    ("--statement", "lemma23", "--k", "0"),
    ("--statement", "lemma23", "--trials", "-3"),
    ("--statement", "all", "--p", "1.5,2,3", "--d", "2,8", "--trials",
     "50000", "--eps", "1", "--k", "0"),
    ("--statement", "all", "--p", "1.5,2,3", "--d", "2,8", "--trials",
     "50000", "--eps", "1,3"),
], ids=["k0", "negative-trials", "all-k0", "all-eps3"])
def test_verify_bad_counts_and_eps_exit_2_before_any_cell(
        capsys, monkeypatch, flags):
    import uconvex.verify

    calls = []
    for name in uconvex.verify.SAMPLERS:
        monkeypatch.setattr(uconvex.verify, f"check_{name}",
                            lambda *args: calls.append(args))
    code, stdout, err = run(capsys, "verify", *flags)
    assert code == 2
    assert calls == []
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_modulus_empirical_dimension_one_exit_2(capsys):
    code, stdout, err = run(capsys, "modulus", "--p", "2", "--d", "1",
                            "--method", "empirical", "--eps", "1",
                            "--budget", "1000")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "dimension 1" in err


def test_verify_corrupted_curve_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("eps,delta,method,witness_x,witness_y\n"
                   "0.5,0.4,clarkson,,\n"
                   "1,0.1,clarkson,,\n")
    code, stdout, _ = run(capsys, "verify", "--statement", "modulus-props",
                          "--curve-file", str(bad))
    assert code == 1
    assert stdout.startswith("modulus_properties,")


def test_verify_good_curve_exit_0(tmp_path, capsys):
    good = tmp_path / "good.csv"
    code, _, _ = run(capsys, "modulus", "--p", "2", "--method", "clarkson",
                     "--eps", "0.1:2:30", "--out", str(good))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "--statement", "modulus-props",
                          "--curve-file", str(good))
    assert code == 0
    assert stdout.splitlines()[0].endswith(",0")


def test_verify_missing_curve_file(capsys):
    code, _, _ = run(capsys, "verify", "--statement", "modulus-props")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert main(["modulus"]) == 2          # missing required flags
    assert main(["not-a-command"]) == 2


# ----------------------------- file and flag errors -----------------------------

def _write(path, text):
    path.write_text(text)
    return str(path)


# each case: argv built from the scratch directory, and a part of the one
# error line
FILE_ERRORS = {
    "missing-curve-file": (lambda d: [
        "verify", "--statement", "modulus-props",
        "--curve-file", str(d / "missing.csv")], "No such file"),
    "missing-seq-file": (lambda d: [
        "extract", "--p", "2", "--d", "2", "--seq-kind", "csv",
        "--seq-file", str(d / "missing.csv")], "No such file"),
    "csv-without-eps": (lambda d: [
        "verify", "--statement", "modulus-props",
        "--curve-file", _write(d / "ab.csv", "a,b\n1,2\n")], "'eps'"),
    "json-without-points": (lambda d: [
        "verify", "--statement", "modulus-props",
        "--curve-file", _write(d / "x.json", '{"x": 1}\n')], "'points'"),
    "json-list": (lambda d: [
        "verify", "--statement", "modulus-props",
        "--curve-file", _write(d / "l.json", "[1, 2]\n")], "'points'"),
    "modulus-out-dir-missing": (lambda d: [
        "modulus", "--p", "2", "--method", "clarkson", "--eps", "1",
        "--out", str(d / "missing" / "c.csv")], "No such file"),
    "construct-out-dir-missing": (lambda d: [
        "construct", "--p", "2", "--d", "8",
        "--out", str(d / "missing" / "x.json")], "No such file"),
    "construct-vectors-out-dir-missing": (lambda d: [
        "construct", "--p", "2", "--d", "8", "--out", str(d / "x.json"),
        "--vectors-out", str(d / "missing" / "v.csv")], "No such file"),
    "extract-out-dir-missing": (lambda d: [
        "extract", "--p", "2", "--d", "4",
        "--out", str(d / "missing" / "x.json")], "No such file"),
    "verify-out-dir-missing": (lambda d: [
        "verify", "--statement", "lemma23", "--p", "2", "--d", "2", "--eps",
        "1", "--trials", "10", "--out", str(d / "missing" / "x.json")],
        "No such file"),
    "csv-header-only": (lambda d: [
        "verify", "--statement", "modulus-props", "--curve-file",
        _write(d / "h.csv", "eps,delta,method,witness_x,witness_y\n")],
        "curve has no points"),
    "csv-empty": (lambda d: [
        "verify", "--statement", "modulus-props",
        "--curve-file", _write(d / "e.csv", "")], "curve has no points"),
    "json-no-points": (lambda d: [
        "verify", "--statement", "modulus-props", "--curve-file",
        _write(d / "n.json", '{"space": "s", "points": []}\n')],
        "curve has no points"),
}


@pytest.mark.parametrize("case", FILE_ERRORS)
def test_file_errors_exit_2_with_one_error_line(tmp_path, capsys, case):
    argv, fragment = FILE_ERRORS[case]
    code, stdout, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert stdout == ""  # so a missing output directory stops the run early
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("tau", ["inf", "nan"])
def test_extract_baseline_non_finite_tau_exit_2(tmp_path, capsys, tau):
    out = tmp_path / "baseline.json"
    code, stdout, err = run(capsys, "extract", "--mode", "baseline", "--p",
                            "2", "--d", "8", "--seq-kind", "constant", "--n",
                            "5", "--tau", tau, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"error: tau must lie in (0, inf), got {float(tau)}\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_modulus_empty_eps_grid_exit_2(tmp_path, capsys, fmt):
    out = tmp_path / f"curve.{fmt}"
    for extra in ([], ["--out", str(out)]):
        code, stdout, err = run(capsys, "modulus", "--p", "2", "--method",
                                "clarkson", "--eps", ",", "--format", fmt,
                                *extra)
        assert code == 2
        assert stdout == ""
        assert err == "error: empty eps grid\n"
    assert not out.exists()


def test_modulus_csv_stdout_is_the_csv_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    args = ("modulus", "--p", "2", "--method", "clarkson", "--eps",
            "0.5,1", "--format", "csv")
    code, stdout, _ = run(capsys, *args)
    assert code == 0
    assert run(capsys, *args, "--out", str(out))[0] == 0
    assert stdout == out.read_text()
    # so the reader loads what the command printed
    piped = tmp_path / "stdout.csv"
    piped.write_text(stdout)
    code, report, _ = run(capsys, "verify", "--statement", "modulus-props",
                          "--curve-file", str(piped))
    assert code == 0
    assert report.splitlines()[0].endswith(",0")


def test_modulus_json_stdout_is_the_json_file(tmp_path, capsys):
    out = tmp_path / "curve.json"
    args = ("modulus", "--p", "1.5", "--method", "hanner", "--eps",
            "0.5,1", "--format", "json")
    code, stdout, _ = run(capsys, *args)
    assert code == 0
    assert run(capsys, *args, "--out", str(out))[0] == 0
    assert stdout == out.read_text()
    assert stdout.endswith("}\n") and not stdout.endswith("\n\n")
