"""End-to-end command-line behavior: formats, exit codes, determinism."""

import importlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import hkxor
from hkxor import sos
from hkxor.certify import SpectralNormError
from hkxor.cli import _build_parser, main
from hkxor.instances import parse, serialize

from helpers import instance_rows, verify_rademacher


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst.hkxor"
    code, _ = run(capsys, "gen", "--n", "8", "--k", "3", "--m", "50",
                  "--model", "rademacher", "--seed", "7", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("HKXOR v1 n=8 k=3 m=50 model=rademacher-semirandom seed=7")
    assert len(text.splitlines()) == 51
    inst = parse(text)
    assert inst.m == 50


def test_gen_one_basis(tmp_path, capsys):
    out = tmp_path / "z.hkxor"
    code, _ = run(capsys, "gen", "--n", "6", "--k", "3", "--m", "5",
                  "--model", "one-basis-z", "--seed", "1", "--out", str(out))
    assert code == 0
    inst = parse(out.read_text())
    assert all(word.xmask == 0 for word, _ in instance_rows(inst))


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "gen", "--n", "6", "--k", "2", "--m", "9", "--seed", "3", "--out", str(a))
    run(capsys, "gen", "--n", "6", "--k", "2", "--m", "9", "--seed", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_and_sweep_reject_explicit_model(tmp_path, capsys):
    # an explicit instance needs its coefficients, which neither command takes
    for argv in (["gen", "--n", "4", "--k", "2", "--m", "2", "--out", str(tmp_path / "x")],
                 ["sweep", "--n", "6", "--k", "2", "--ell", "1", "--eps", "0.5",
                  "--m-grid", "4", "--seeds", "1"]):
        code = main(argv + ["--model", "explicit"])
        captured = capsys.readouterr()
        assert code == 3
        assert "invalid choice: 'explicit'" in captured.err
        assert not (tmp_path / "x").exists()


def test_gen_bad_ranges(tmp_path, capsys):
    code = main(["gen", "--n", "3", "--k", "5", "--m", "2",
                 "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert code == 3


def test_certify_empty_like_instance(tmp_path, capsys):
    # a single-constraint file certifies fine end to end
    path = tmp_path / "inst"
    run(capsys, "gen", "--n", "6", "--k", "2", "--m", "12", "--seed", "5",
        "--out", str(path))
    code, out = run(capsys, "certify", "--in", str(path), "--ell", "2")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert fields["branch"] == "even"
    assert float(fields["algval"]) >= 0.5


def test_certify_and_sweep_have_no_branch_flag(tmp_path, capsys):
    # k's parity alone picks the branch, so forcing one is a usage error
    path = tmp_path / "odd"
    run(capsys, "gen", "--n", "6", "--k", "3", "--m", "6", "--seed", "2",
        "--out", str(path))
    for argv in (["certify", "--in", str(path), "--ell", "2", "--branch", "even"],
                 ["sweep", "--n", "6", "--k", "2", "--ell", "1", "--eps", "0.5",
                  "--m-grid", "4", "--seeds", "1", "--branch", "odd"]):
        assert main(argv) == 3
        assert "unrecognized arguments: --branch" in capsys.readouterr().err


def test_certify_then_oracle_soundness(tmp_path, capsys):
    path = tmp_path / "inst"
    run(capsys, "gen", "--n", "7", "--k", "3", "--m", "10", "--model", "random",
        "--seed", "11", "--out", str(path))
    code, out = run(capsys, "certify", "--in", str(path), "--ell", "2", "--eps", "0.8")
    assert code == 0
    algval = float(dict(l.split("=", 1) for l in out.splitlines() if "=" in l)["algval"])
    code, out = run(capsys, "oracle", "--in", str(path))
    assert code == 0
    lam = float(dict(l.split("=", 1) for l in out.splitlines() if "=" in l)["lambda_max"])
    assert algval >= lam - 1e-9


def test_oracle_one_basis_and_expansion(tmp_path, capsys):
    path = tmp_path / "z"
    run(capsys, "gen", "--n", "8", "--k", "3", "--m", "4", "--model", "one-basis-z",
        "--seed", "9", "--out", str(path))
    code, out = run(capsys, "oracle", "--in", str(path), "--expansion", "1.0", "3")
    assert code == 0
    fields = dict(l.split("=", 1) for l in out.splitlines() if "=" in l)
    assert abs(float(fields["lambda_max"]) - float(fields["classical.value"])) < 1e-10
    assert "expansion.pass" in fields


def test_oracle_holds_one_dense_matrix(tmp_path, capsys):
    # a dense n=10 H is 16 MiB; the Cholesky operand is the one dense matrix oracle
    # builds, so a second one (a dense H next to it) would double the peak
    path = tmp_path / "rad.hkxor"
    path.write_text(serialize(verify_rademacher()))
    tracemalloc.start()
    try:
        code, _ = run(capsys, "oracle", "--in", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1.25 * 16 * 2**20


def test_oracle_calls_the_benchmark_stages_once(tmp_path, capsys, monkeypatch):
    # the benchmark times hkxor.cli's assemble and lambda_max as the oracle stages
    cli = importlib.import_module("hkxor.cli")
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("assemble", "lambda_max"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    path = tmp_path / "inst"
    run(capsys, "gen", "--n", "7", "--k", "3", "--m", "10", "--seed", "1", "--out", str(path))
    code, _ = run(capsys, "oracle", "--in", str(path))
    assert code == 0 and calls == {"assemble": 1, "lambda_max": 1}


def test_oracle_resource_guard(tmp_path, capsys):
    path = tmp_path / "big"
    run(capsys, "gen", "--n", "20", "--k", "2", "--m", "4", "--seed", "0",
        "--out", str(path))
    code = main(["oracle", "--in", str(path)])
    capsys.readouterr()
    assert code == 4


def test_witness_single_constraint(tmp_path, capsys):
    path = tmp_path / "one"
    path.write_text("HKXOR v1 n=3 k=3 m=1 model=one-basis-z seed=0\nZ1 Z2 Z3 1.0\n")
    code, out = run(capsys, "witness", "--in", str(path), "--degree", "3")
    assert code == 0
    assert "energy=+1" in out
    # the identity and the 3 * 3 words of weight 1 index the degree-3 moment matrix
    assert "positivity.rows=10" in out.splitlines()
    assert "positivity.pass=1" in out
    assert "PSEXP v1 n=3 d=3" in out


def test_witness_degree_above_twice_the_qubit_count(tmp_path, capsys):
    # weights stop at n = 1: the identity and X1, Y1, Z1, and no weight-2 slice
    path = tmp_path / "one_qubit"
    path.write_text("HKXOR v1 n=1 k=1 m=1 model=one-basis-z seed=0\nZ1 1.0\n")
    code, out = run(capsys, "witness", "--in", str(path), "--degree", "4")
    assert code == 0
    assert "positivity.rows=4" in out.splitlines()
    assert "positivity.pass=1" in out.splitlines()


def test_witness_contradiction_exit_code(tmp_path, capsys):
    path = tmp_path / "tri"
    path.write_text(
        "HKXOR v1 n=3 k=2 m=3 model=one-basis-z seed=0\n"
        "Z1 Z2 1.0\nZ2 Z3 1.0\nZ1 Z3 -1.0\n")
    code, out = run(capsys, "witness", "--in", str(path), "--degree", "4")
    assert code == 2
    assert "kind=contradiction" in out
    assert "CONTRADICTION" in out


def test_witness_max_entropy_word_budget_exits_4(tmp_path, capsys):
    # all-+1 one-basis words never contradict, so the degree-12 closure only
    # stops at its word budget
    path = tmp_path / "z24"
    run(capsys, "gen", "--n", "24", "--k", "3", "--m", "40", "--model", "one-basis-z",
        "--seed", "1", "--out", str(path))
    path.write_text(path.read_text().replace(" -1.0\n", " 1.0\n"))
    code = main(["witness", "--in", str(path), "--degree", "12"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("hkxor: resource guard: max-entropy closure exceeds")


def test_witness_lift(tmp_path, capsys):
    inst_path = tmp_path / "cyc"
    inst_path.write_text(
        "HKXOR v1 n=3 k=2 m=3 model=one-basis-z seed=0\n"
        "Z1 Z2 1.0\nZ2 Z3 -1.0\nZ1 Z3 1.0\n")
    moments = tmp_path / "pmom"
    # the point distribution at the optimal assignment (1, 1, 1)
    moments.write_text(
        "PMOM v1 n=3 d=4\n- 1\n1 1\n2 1\n3 1\n1,2 1\n1,3 1\n2,3 1\n1,2,3 1\n")
    code, out = run(capsys, "witness", "--in", str(inst_path), "--degree", "2",
                    "--lift", str(moments))
    assert code == 0
    assert "kind=lifted" in out
    assert "energy=" in out
    # brute-force optimum of the 3-cycle is 2/3
    line = next(l for l in out.splitlines() if l.startswith("energy="))
    assert abs(float(Fraction_from(line.split("=", 1)[1])) - 2 / 3) < 1e-12


def Fraction_from(text):
    from fractions import Fraction
    return Fraction(text)


def lift_error(tmp_path, capsys, pmom):
    """Exit code and stderr of `witness --degree 2 --lift` on the 3-cycle with a bad PMOM file."""
    inst_path = tmp_path / "cyc"
    inst_path.write_text(
        "HKXOR v1 n=3 k=2 m=3 model=one-basis-z seed=0\n"
        "Z1 Z2 1.0\nZ2 Z3 -1.0\nZ1 Z3 1.0\n")
    moments = tmp_path / "pmom"
    moments.write_text(pmom)
    code = main(["witness", "--in", str(inst_path), "--degree", "2", "--lift", str(moments)])
    return code, capsys.readouterr().err


def lift_point_with_degree(tmp_path, capsys, degree):
    """`witness --lift` of the point x = (1, 1, 1, 1) on a one-basis n=4 k=2 instance."""
    inst_path = tmp_path / "chain"
    inst_path.write_text(
        "HKXOR v1 n=4 k=2 m=3 model=one-basis-z seed=0\n"
        "Z1 Z2 1.0\nZ2 Z3 -1.0\nZ3 Z4 -1.0\n")
    moments = tmp_path / "pmom"
    moments.write_text("PMOM v1 n=4 d=4\n- 1\n" + "".join(
        f"{','.join(map(str, sites))} 1\n"
        for size in range(1, 5) for sites in itertools.combinations(range(1, 5), size)))
    code = main(["witness", "--in", str(inst_path), "--degree", str(degree),
                 "--lift", str(moments)])
    return code, capsys.readouterr()


def test_witness_lift_degree_below_arity_is_usage_error(tmp_path, capsys):
    # the true energy of the point is 1/3; a degree-1 lift used to report 1/2
    for degree in (1, -1):
        code, captured = lift_point_with_degree(tmp_path, capsys, degree)
        assert code == 3
        assert f"degree {degree} below constraint arity 2" in captured.err
        assert captured.out == ""
    code, captured = lift_point_with_degree(tmp_path, capsys, 2)
    assert code == 0
    assert "energy=0.3333333333333333" in captured.out


def test_witness_lift_degree_below_request_is_usage_error(tmp_path, capsys):
    code, err = lift_error(tmp_path, capsys, "PMOM v1 n=3 d=1\n- 1\n1 1\n2 1\n3 1\n")
    assert code == 3
    assert err.startswith("hkxor: error: oracle degree 1 below requested 2")


def test_witness_lift_missing_monomial_is_usage_error(tmp_path, capsys):
    code, err = lift_error(tmp_path, capsys, "PMOM v1 n=3 d=2\n- 1\n1 1\n2 1\n3 1\n1,2 1\n")
    assert code == 3
    assert err.startswith("hkxor: error: no moment recorded for mask 0x5")


def point_moments(n):
    """PMOM v1 text, degree 2, of the point x = (1, ..., 1) on n qubits."""
    return f"PMOM v1 n={n} d=2\n- 1\n" + "".join(
        f"{','.join(map(str, sites))} 1\n"
        for size in (1, 2) for sites in itertools.combinations(range(1, n + 1), size))


def test_witness_lift_moments_for_more_qubits_is_usage_error(tmp_path, capsys):
    # used to lift the first three sites' moments with exit 0
    code, err = lift_error(tmp_path, capsys, point_moments(4))
    assert code == 3
    assert err.startswith("hkxor: error: moments are for n=4 qubits, instance has n=3")


def test_witness_lift_moments_for_fewer_qubits_is_usage_error(tmp_path, capsys):
    # used to fail only at the first mask the file could not hold
    code, err = lift_error(tmp_path, capsys, point_moments(2))
    assert code == 3
    assert err.startswith("hkxor: error: moments are for n=2 qubits, instance has n=3")


def test_witness_lift_header_without_n_is_usage_error(tmp_path, capsys):
    code, err = lift_error(tmp_path, capsys, "PMOM v1 d=2\n- 1\n")
    assert code == 3
    assert err.startswith("hkxor: error: line 1: missing header field 'n'")


def test_witness_lift_header_token_without_equals_is_usage_error(tmp_path, capsys):
    code, err = lift_error(tmp_path, capsys, "PMOM v1 n=3 d\n- 1\n")
    assert code == 3
    assert err.startswith("hkxor: error: line 1: header token 'd' is not key=value")


def test_witness_lift_duplicate_header_field_is_usage_error(tmp_path, capsys):
    # the last d used to win silently; instance files already rejected a repeat
    code, err = lift_error(tmp_path, capsys, "PMOM v1 n=3 d=1 d=2\n- 1\n")
    assert code == 3
    assert err.startswith("hkxor: error: line 1: duplicate header field 'd'")


def test_witness_lift_one_token_row_is_usage_error(tmp_path, capsys):
    code, err = lift_error(tmp_path, capsys, "PMOM v1 n=3 d=2\n- 1\n1,2\n")
    assert code == 3
    assert err.startswith("hkxor: error: line 3: expected '<sites> <value>', got 1 tokens")


def test_witness_lift_non_integer_site_is_usage_error(tmp_path, capsys):
    code, err = lift_error(tmp_path, capsys, "PMOM v1 n=3 d=2\n- 1\n1 1\nx,2 1\n")
    assert code == 3
    assert err.startswith("hkxor: error: line 4: bad site list 'x,2'")


def test_witness_lift_bad_value_is_usage_error(tmp_path, capsys):
    code, err = lift_error(tmp_path, capsys, "PMOM v1 n=3 d=2\n- 1/x\n")
    assert code == 3
    assert err.startswith("hkxor: error: line 2: bad moment value '1/x'")


@pytest.mark.parametrize("pmom,message", [
    ("PMOM v1 n=3 d=\u0662\n- 1\n", "line 1: header fields n and d must be integers"),
    ("PMOM v1 n=3 d=2\n- 1\n\u0661 1\n", "line 3: bad site list '\u0661'"),
    ("PMOM v1 n=3 d=2\n- 1\n1 1_0\n", "line 3: bad moment value '1_0'"),
], ids=["arabic-indic-header", "arabic-indic-site", "underscored-value"])
def test_witness_lift_non_ascii_or_underscored_number_is_usage_error(tmp_path, capsys, pmom,
                                                                     message):
    code, err = lift_error(tmp_path, capsys, pmom)
    assert code == 3
    assert err.startswith(f"hkxor: error: {message}")


@pytest.mark.parametrize("row,message", [
    ("1,4 1", "site 4 out of range"),
    ("0 1", "site 0 out of range"),
    ("2,2 1", "repeated site in '2,2'"),
    ("1,3,1 1", "repeated site in '1,3,1'"),
])
def test_witness_lift_site_out_of_range_or_repeated_is_usage_error(tmp_path, capsys, row,
                                                                   message):
    code, err = lift_error(tmp_path, capsys, f"PMOM v1 n=3 d=2\n- 1\n{row}\n")
    assert code == 3
    assert err == f"hkxor: error: line 3: {message}\n"


def test_certify_non_ascii_site_is_usage_error(tmp_path, capsys):
    path = tmp_path / "inst"
    path.write_text("HKXOR v1 n=4 k=2 m=1 model=explicit seed=0\nX1 Z\u0663 1.0\n",
                    encoding="utf-8")
    assert main(["certify", "--in", str(path), "--ell", "1"]) == 3
    assert capsys.readouterr().err.startswith(
        "hkxor: error: line 2: bad sparse Pauli token 'Z\u0663'")


def test_certify_even_edge_budget_exits_4_before_building(tmp_path, capsys, monkeypatch):
    # m * Delta = 700 * 29,754 = 2.08e7 edges > EDGE_BUDGET
    import hkxor.kikuchi_even as kikuchi_even

    def no_build(*args):
        raise AssertionError("build_even started making edges")

    monkeypatch.setattr(kikuchi_even, "mul_words", no_build)
    path = tmp_path / "big"
    run(capsys, "gen", "--n", "60", "--k", "2", "--m", "700", "--seed", "0",
        "--out", str(path))
    code = main(["certify", "--in", str(path), "--ell", "3"])
    err = capsys.readouterr().err
    assert code == 4
    assert "exceeds budget" in err


BAD_TOLS = ("nan", "inf", "0", "-1")


def no_builds(monkeypatch):
    def fail(*args):
        raise AssertionError("a graph build or sweep cell ran before tol was checked")

    # the package re-exports certify(), which hides the module of that name
    certify_module = importlib.import_module("hkxor.certify")
    monkeypatch.setattr(certify_module, "build_even", fail)
    monkeypatch.setattr(certify_module, "build_odd", fail)
    monkeypatch.setattr("hkxor.cli._sweep_cell", fail)


def test_certify_non_finite_or_nonpositive_tol_is_usage_error(tmp_path, capsys, monkeypatch):
    no_builds(monkeypatch)
    for k in (2, 3):
        path = tmp_path / f"k{k}"
        run(capsys, "gen", "--n", "8", "--k", str(k), "--m", "10", "--seed", "1",
            "--out", str(path))
        for tol in BAD_TOLS:
            code = main(["certify", "--in", str(path), "--ell", "1" if k == 2 else "2",
                         "--tol", tol])
            captured = capsys.readouterr()
            assert code == 3
            assert f"need finite tol > 0, got {float(tol)}" in captured.err
            assert captured.out == ""


def test_sweep_non_finite_or_nonpositive_tol_is_usage_error(capsys, monkeypatch):
    no_builds(monkeypatch)
    for tol in BAD_TOLS:
        code = main(["sweep", "--n", "6", "--k", "2", "--ell", "1", "--eps", "0.5",
                     "--m-grid", "4", "--seeds", "1", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 3
        assert f"need finite tol > 0, got {float(tol)}" in captured.err
        assert captured.out == ""


def test_sweep_deterministic(tmp_path, capsys):
    args = ["sweep", "--n", "12", "--k", "2", "--ell", "1", "--eps", "0.9",
            "--m-grid", "12,24", "--seeds", "3"]
    code, out1 = run(capsys, *args)
    assert code == 0
    code, out2 = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert "agg.m=12.success_fraction=" in out1


def test_sweep_empty_grid_is_usage_error(capsys):
    code = main(["sweep", "--n", "8", "--k", "2", "--ell", "1", "--eps", "0.5",
                 "--m-grid", "", "--seeds", "2"])
    capsys.readouterr()
    assert code == 3


def test_sweep_without_seeds_is_usage_error(capsys):
    for seeds in ("0", "-2"):
        code = main(["sweep", "--n", "8", "--k", "2", "--ell", "1", "--eps", "0.5",
                     "--m-grid", "8", "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 3
        assert "--seeds must be at least 1" in captured.err
        assert captured.out == ""


def test_sweep_eps_outside_unit_interval_is_usage_error(capsys, monkeypatch):
    def no_cells(*args):
        raise AssertionError("a sweep cell ran before eps was checked")

    monkeypatch.setattr("hkxor.cli._sweep_cell", no_cells)
    for eps in ("0", "2"):
        code = main(["sweep", "--n", "6", "--k", "2", "--ell", "1", "--eps", eps,
                     "--m-grid", "4", "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert f"need 0 < eps <= 1, got {float(eps)}" in captured.err
        assert captured.out == ""


def test_sweep_bad_or_repeated_m_is_usage_error(capsys, monkeypatch):
    def no_cells(*args):
        raise AssertionError("a sweep cell ran before the m grid was checked")

    monkeypatch.setattr("hkxor.cli._sweep_cell", no_cells)
    for grid, message in (("4,4", "repeated m in --m-grid '4,4'"),
                          ("8,4,8", "repeated m in --m-grid '8,4,8'"),
                          ("4,x", "bad --m-grid value '4,x'"),
                          ("4.5", "bad --m-grid value '4.5'"),
                          ("4,0", "m must be at least 1 in --m-grid '4,0'"),
                          ("4,-1", "m must be at least 1 in --m-grid '4,-1'")):
        code = main(["sweep", "--n", "6", "--k", "2", "--ell", "1", "--eps", "0.5",
                     "--m-grid", grid, "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert message in captured.err
        assert captured.out == ""


def test_sweep_empty_m_grid_entry_is_usage_error(capsys, monkeypatch):
    def no_cells(*args):
        raise AssertionError("a sweep cell ran before the m grid was checked")

    monkeypatch.setattr("hkxor.cli._sweep_cell", no_cells)
    for grid in ("5,,6", ",5", "5,", "5,,6,", ""):
        code = main(["sweep", "--n", "6", "--k", "2", "--ell", "1", "--eps", "0.5",
                     "--m-grid", grid, "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert f"empty entry in --m-grid {grid!r}" in captured.err
        assert captured.out == ""


def _rerun_argv(command, out):
    """The command line that a report's header describes."""
    argv = [command]
    for line in out.splitlines():
        if line.startswith("config."):
            key, value = line[len("config."):].split("=", 1)
            if value:
                argv += ["--" + key.replace("_", "-"), *value.split(" ")]
    return argv


@pytest.mark.parametrize("command,flags", [
    ("certify", ["--ell", "2", "--eps", "0.9", "--solver-seed", "3"]),
    ("oracle", ["--expansion", "1.0", "2"]),
    ("witness", ["--degree", "3"]),
    ("sweep", ["--n", "8", "--k", "2", "--ell", "1", "--eps", "0.5", "--m-grid", "4,6",
               "--seeds", "2", "--model", "gaussian", "--tol", "1e-07"]),
])
def test_report_header_lists_every_flag_and_reruns(tmp_path, capsys, command, flags):
    path = tmp_path / "inst"
    run(capsys, "gen", "--n", "6", "--k", "3", "--m", "5", "--model", "one-basis-z", "--seed", "4",
        "--out", str(path))
    argv = [command] + ([] if command == "sweep" else ["--in", str(path)]) + flags
    code, out = run(capsys, *argv)
    assert code == 0
    dests = set(vars(_build_parser().parse_args(argv))) - {"command", "func", "out"}
    keys = {line.split("=", 1)[0] for line in out.splitlines() if line.startswith("config.")}
    assert keys == {"config." + ("in" if dest == "infile" else dest) for dest in dests}

    def untimed(text):
        return [line for line in text.splitlines() if "time_s=" not in line]

    # the header alone re-runs the command: the same report, timings aside
    assert untimed(run(capsys, *_rerun_argv(command, out))[1]) == untimed(out)


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    # main() builds its parser once; the reports, config.* headers included, are those
    # of a parser built afresh for each call
    assert _build_parser() is _build_parser()
    path, moments = tmp_path / "inst", tmp_path / "pmom"
    run(capsys, "gen", "--n", "5", "--k", "2", "--m", "6", "--model", "one-basis-z",
        "--seed", "3", "--out", str(path))
    moments.write_text(point_moments(5))
    calls = [["certify", "--in", str(path), "--ell", "1", "--eps", "0.7"],
             ["certify", "--in", str(path), "--ell", "one"],
             ["oracle", "--in", str(path), "--expansion", "1.0", "2"],
             ["witness", "--in", str(path), "--degree", "2", "--lift", str(moments)]]

    def reports():
        results = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            lines = [line for line in captured.out.splitlines() if "time_s=" not in line]
            results.append((code, lines, captured.err))
        return results

    shared = reports() + reports()
    monkeypatch.setattr("hkxor.cli._build_parser", _build_parser.__wrapped__)
    fresh = reports()
    assert [code for code, _, _ in fresh] == [0, 3, 0, 0]
    assert "argument --ell: invalid int value: 'one'" in fresh[1][2]
    assert any(line == "config.expansion=1.0 2" for line in fresh[2][1])
    assert shared == fresh + fresh


def test_certify_odd_past_int64_subword_ranks(tmp_path, capsys):
    # k = 13 on 200 sites: the weight-t subword slices of t = 9..13 hold 2^63 words or more
    path = tmp_path / "k13"
    run(capsys, "gen", "--n", "200", "--k", "13", "--m", "5", "--seed", "1", "--out", str(path))
    code, out = run(capsys, "certify", "--in", str(path), "--ell", "7", "--eps", "0.5")
    assert code == 0
    assert "algval=1.5" in out.splitlines() and "branch=odd" in out.splitlines()


def test_unknown_flag_usage_error(capsys):
    assert main(["certify", "--bogus"]) == 3
    capsys.readouterr()


def test_missing_file_usage_error(capsys):
    assert main(["certify", "--in", "/nonexistent", "--ell", "1"]) == 3
    capsys.readouterr()


def test_directory_as_input_or_output_is_usage_error(tmp_path, capsys):
    inst = tmp_path / "i.hkxor"
    assert main(["gen", "--n", "4", "--k", "2", "--m", "3", "--out", str(inst)]) == 0
    for argv in (["certify", "--in", str(tmp_path), "--ell", "1"],
                 ["gen", "--n", "4", "--k", "2", "--m", "3", "--out", str(tmp_path)],
                 ["certify", "--in", str(inst), "--ell", "1", "--out", str(tmp_path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("hkxor: error: ")


def test_certify_empty_instance_file(tmp_path, capsys):
    path = tmp_path / "empty"
    path.write_text("HKXOR v1 n=4 k=2 m=0 model=explicit seed=0\n")
    code, out = run(capsys, "certify", "--in", str(path), "--ell", "1")
    assert code == 0
    fields = dict(l.split("=", 1) for l in out.splitlines() if "=" in l)
    assert float(fields["algval"]) == 0.5
    assert fields["algval_clamped"] == "0.5"


@pytest.mark.parametrize("k, ell, message", ((2, "99", "need k/2 <= ell <= n/2"),
                                             (3, "-3", "need ell >= k/2")))
def test_certify_checks_ell_on_an_empty_instance_file(tmp_path, capsys, k, ell, message):
    # the empty file used to certify algval=0.5 for any ell; a non-empty one never did
    word = " ".join(f"Z{i}" for i in range(1, k + 1))
    for m, rows in ((0, ""), (1, f"{word} 1.0\n")):
        path = tmp_path / f"m{m}.hkxor"
        path.write_text(f"HKXOR v1 n=4 k={k} m={m} model=explicit seed=0\n{rows}")
        code = main(["certify", "--in", str(path), "--ell", ell])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith(f"hkxor: error: {message}")


def test_certify_odd_refuses_an_ell_without_free_sites(tmp_path, capsys):
    # the one-row file has no constraint pair and used to certify algval=1.5 at ell=99;
    # the two-row file builds a graph and was refused
    for rows in ("Z1 Z2 Z3 1.0\n", "Z1 Z2 Z3 1.0\nZ1 Z2 Z4 -1.0\n"):
        path = tmp_path / "inst.hkxor"
        path.write_text(f"HKXOR v1 n=4 k=3 m={rows.count(chr(10))} model=explicit seed=0\n{rows}")
        code = main(["certify", "--in", str(path), "--ell", "99"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("hkxor: error: not enough free sites for the level")


def test_witness_on_an_empty_instance_file(tmp_path, capsys):
    # the energy used to divide by m = 0 and die on ZeroDivisionError
    path = tmp_path / "empty.hkxor"
    path.write_text("HKXOR v1 n=3 k=2 m=0 model=one-basis-z seed=0\n")
    moments = tmp_path / "m.pmom"
    moments.write_text("PMOM v1 n=3 d=2\n- 1\n1 0\n2 0\n3 0\n1,2 0\n1,3 0\n2,3 0\n")
    for lift in ((), ("--lift", str(moments))):
        code, out = run(capsys, "witness", "--in", str(path), "--degree", "2", *lift)
        assert code == 0
        assert "energy=0.5" in out.splitlines()


@pytest.mark.parametrize("k, rows, ell", ((2, ("Z1 Z2", "X2 Y3"), "1"),
                                          (3, ("Z1 Z2 Z3", "Z1 X2 Y4"), "2")))
def test_certify_all_zero_coefficients_matches_the_oracle(tmp_path, capsys, k, rows, ell):
    # H = Id/2; the graph has edges of weight 0, which regularize used to refuse (exit 3)
    path = tmp_path / "zero.hkxor"
    path.write_text(f"HKXOR v1 n=4 k={k} m=2 model=explicit seed=0\n"
                    + "".join(f"{row} 0.0\n" for row in rows))
    code, out = run(capsys, "certify", "--in", str(path), "--ell", ell)
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert fields["algval"] == "0.5" and int(fields["num_edges"]) > 0
    code, out = run(capsys, "oracle", "--in", str(path))
    assert code == 0 and "lambda_max=0.5" in out.splitlines()


def test_certify_odd_edge_budget_exits_4_before_building(tmp_path, capsys, monkeypatch):
    # the t=1 slice of this n=20, k=3, m=60 instance estimates 2.1e9 edge candidates at ell=6
    import hkxor.kikuchi_odd as kikuchi_odd

    def no_build(*args):
        raise AssertionError("build_odd started making edges")

    monkeypatch.setattr(kikuchi_odd, "type_edges", no_build)
    path = tmp_path / "big"
    run(capsys, "gen", "--n", "20", "--k", "3", "--m", "60", "--seed", "0",
        "--out", str(path))
    code = main(["certify", "--in", str(path), "--ell", "6", "--eps", "1.0"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("hkxor: resource guard: estimated 2.06e+09 edge candidates")


def test_witness_reports_a_skipped_moment_matrix(tmp_path, capsys):
    # 1 + 3 * 34 + 9 * C(34, 2) = 5,152 words of weight <= 2 exceed MOMENT_MATRIX_CAP
    path = tmp_path / "wide.hkxor"
    path.write_text("HKXOR v1 n=34 k=2 m=1 model=one-basis-z seed=0\nZ1 Z2 1.0\n")
    code, out = run(capsys, "witness", "--in", str(path), "--degree", "4")
    assert code == 0
    assert ("positivity.skipped=moment matrix would have 5152 rows (cap 5000)"
            in out.splitlines())
    assert "positivity.rows=5152" in out.splitlines()
    assert "energy=+1" in out.splitlines()


def test_witness_reports_an_allocation_failure_as_a_guard_exit(tmp_path, capsys, monkeypatch):
    # only a documented size guard reads as positivity.skipped; a plain MemoryError,
    # say from the moment matrix's np.zeros, ends the command with exit 4 and is not
    # reported as a guard
    path = tmp_path / "z.hkxor"
    path.write_text("HKXOR v1 n=4 k=2 m=2 model=one-basis-z seed=0\nZ1 Z2 1.0\nZ3 Z4 -1.0\n")

    def fail(pe, d):
        raise MemoryError("cannot allocate the moment matrix")

    monkeypatch.setattr(sos, "moment_matrix", fail)
    code = main(["witness", "--in", str(path), "--degree", "4"])
    captured = capsys.readouterr()
    assert code == 4
    assert "positivity.skipped" not in captured.out
    assert captured.err == "hkxor: out of memory: cannot allocate the moment matrix\n"


def test_witness_lift_of_unnormalized_moments_is_usage_error(tmp_path, capsys):
    # every moment 2 used to print energy=1.5 and positivity.pass=1, dump III 2.0 and exit 0
    code, err = lift_error(tmp_path, capsys,
                           "PMOM v1 n=3 d=2\n- 2\n1 2\n2 2\n3 2\n1,2 2\n1,3 2\n2,3 2\n")
    assert code == 3
    assert err == "hkxor: error: lifted moments need E[1] = 1, got 2\n"


def test_witness_lift_repeated_monomial_is_usage_error(tmp_path, capsys):
    # the later value used to win silently and the lifted witness dumped ZZI -0.5
    code, err = lift_error(tmp_path, capsys,
                           "PMOM v1 n=3 d=2\n- 1\n1 1\n2 1\n3 1\n1,2 1/2\n1,3 1\n2,3 1\n2,1 -1/2\n")
    assert code == 3
    assert err.startswith("hkxor: error: line 9: monomial '2,1' listed twice")


def test_non_finite_coefficient_is_usage_error(tmp_path, capsys):
    # certify used to fail on a bare AssertionError in regularize; oracle ran
    # into numpy warnings and a non-converging eigensolver before exit 3
    for value in ("nan", "inf", "-inf"):
        path = tmp_path / f"{value}.hkxor"
        path.write_text("HKXOR v1 n=3 k=2 m=2 model=explicit seed=0\n"
                        f"Z1 Z2 1.0\nZ2 Y3 {value}\n")
        for argv in (("certify", "--in", str(path), "--ell", "1"),
                     ("oracle", "--in", str(path))):
            code = main(list(argv))
            captured = capsys.readouterr()
            assert code == 3
            assert captured.err.startswith(
                f"hkxor: error: line 3: coefficient '{value}' is not finite")
            assert captured.out == ""


def test_solver_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise SpectralNormError("did not converge", best_estimate=1.5)

    path = tmp_path / "inst"
    run(capsys, "gen", "--n", "6", "--k", "2", "--m", "4", "--seed", "1", "--out", str(path))
    monkeypatch.setattr("hkxor.cli.certify", fail)
    code = main(["certify", "--in", str(path), "--ell", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "hkxor: solver failure: did not converge (best estimate 1.5)\n"
    assert captured.out == ""


def test_oracle_expansion_values_are_checked_before_the_dense_oracle(tmp_path, capsys,
                                                                     monkeypatch):
    # they were read and checked after lambda_max, and a value that is not a number gave
    # float()'s or int()'s message
    path = tmp_path / "inst"
    run(capsys, "gen", "--n", "6", "--k", "2", "--m", "4", "--model", "one-basis-z",
        "--seed", "1", "--out", str(path))

    def no_assembly(inst):
        raise AssertionError("the dense oracle ran before --expansion was checked")

    monkeypatch.setattr("hkxor.cli.assemble", no_assembly)
    not_numbers = "--expansion needs a number BETA and a whole number D, got "
    for values, message in ((("abc", "2"), not_numbers + "abc 2"),
                            (("1", "2.5"), not_numbers + "1 2.5"),
                            (("1", "-2"), not_numbers + "1 -2"),
                            (("1", ""), not_numbers + "1 "),
                            (("1_0", "2"), not_numbers + "1_0 2"),
                            (("1", "\u0662"), not_numbers + "1 \u0662"),
                            (("nan", "2"), "expansion beta must be finite, got nan"),
                            (("1", "0"), "expansion subset size d must be at least 1, got 0")):
        code = main(["oracle", "--in", str(path), "--expansion", *values])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"hkxor: error: {message}\n"
        assert captured.out == ""


def test_oracle_non_finite_expansion_beta_is_usage_error(tmp_path, capsys):
    # `boundary < nan * size` is never true, so nan used to report expansion.pass=1
    path = tmp_path / "inst"
    run(capsys, "gen", "--n", "6", "--k", "2", "--m", "4", "--model", "one-basis-z",
        "--seed", "1", "--out", str(path))
    for beta in ("nan", "inf"):
        code = main(["oracle", "--in", str(path), "--expansion", beta, "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "expansion beta must be finite" in captured.err


def test_certify_eps_outside_unit_interval_is_usage_error_on_even_instances(tmp_path, capsys):
    path = tmp_path / "even.hkxor"
    run(capsys, "gen", "--n", "6", "--k", "2", "--m", "5", "--seed", "1", "--out", str(path))
    for eps in ("nan", "0", "2"):
        code = main(["certify", "--in", str(path), "--ell", "1", "--eps", eps])
        captured = capsys.readouterr()
        assert code == 3
        assert f"need 0 < eps <= 1, got {float(eps)}" in captured.err
        assert captured.out == ""


def test_certify_negative_solver_seed_is_usage_error_at_both_graph_sizes(tmp_path, capsys,
                                                                          monkeypatch):
    # n=6: every component has at most 64 vertices, so no ARPACK call reads the seed;
    # n=60 m=3931: ARPACK would; both are refused before a graph is built
    def no_build(*args):
        raise AssertionError("a graph was built before the seed was checked")

    monkeypatch.setattr(importlib.import_module("hkxor.certify"), "build_even", no_build)
    for n, m in ((6, 5), (60, 3931)):
        path = tmp_path / f"n{n}.hkxor"
        run(capsys, "gen", "--n", str(n), "--k", "2", "--m", str(m), "--seed", "1",
            "--out", str(path))
        for seed in ("-1", str(2**128)):
            code = main(["certify", "--in", str(path), "--ell", "1", "--solver-seed", seed])
            captured = capsys.readouterr()
            assert code == 3
            assert f"solver seed must be in [0, 2**128), got {seed}" in captured.err
            assert captured.out == ""
    code = main(["sweep", "--n", "6", "--k", "2", "--ell", "1", "--eps", "0.5",
                 "--m-grid", "4", "--seeds", "1", "--solver-seed", "-1"])
    assert code == 3 and "got -1" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ("1e-170", "1e-155"))
def test_odd_eps_too_small_for_a_finite_bound_is_usage_error(tmp_path, capsys, monkeypatch, eps):
    # 1e-170 underflows eps^2 to zero and 1e-155 overflows the bucket size to inf
    def no_build(*args):
        raise AssertionError("a graph was built before the eps bound was checked")

    monkeypatch.setattr(importlib.import_module("hkxor.certify"), "build_odd", no_build)
    path = tmp_path / "odd.hkxor"
    run(capsys, "gen", "--n", "8", "--k", "3", "--m", "20", "--seed", "1", "--out", str(path))
    for argv in (["certify", "--in", str(path), "--ell", "2", "--eps", eps],
                 ["sweep", "--n", "8", "--k", "3", "--ell", "2", "--eps", eps,
                  "--m-grid", "20", "--seeds", "1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert f"is not a finite float at eps={float(eps)!r}\n" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


def test_python_dash_m_hkxor_runs_the_cli_without_installing(tmp_path):
    src = str(Path(hkxor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def hkxor_module(*argv):
        return subprocess.run([sys.executable, "-m", "hkxor", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    out = tmp_path / "inst.hkxor"
    done = hkxor_module("gen", "--n", "6", "--k", "2", "--m", "4", "--seed", "2",
                        "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert out.read_text().startswith("HKXOR v1 n=6 k=2 m=4")
    done = hkxor_module("certify", "--bogus")
    assert done.returncode == 3
    assert "error: the following arguments are required: --in" in done.stderr


# X1 X2 X3 and Z3 Z4 Z5 anticommute, so their max-entropy witness is experimental
OBSTRUCTED = "HKXOR v1 n=5 k=3 m=2 model=explicit seed=0 rng=philox\nX1 X2 X3 1.0\nZ3 Z4 Z5 1.0\n"


def test_witness_reports_the_obstruction_pairs(tmp_path, capsys):
    path = tmp_path / "xz"
    path.write_text(OBSTRUCTED)
    code, out = run(capsys, "witness", "--in", str(path), "--degree", "3")
    assert code == 0
    head, report = out.split("\n\n")[0].split("\n", 1)  # the lines above the dump
    assert head == "HKXOR-REPORT v1"
    fields = dict(line.split("=", 1) for line in report.splitlines())
    assert fields["kind"] == "max-entropy"
    assert fields["experimental"] == "1"
    assert fields["obstruction_pairs"] == "0,1"
    assert fields["positivity.pass"] == "1"


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 computes it over Python floats (Neumaier's compensated
    sum); any other input goes to the builtin."""
    items = list(iterable)
    if not items or type(start) not in (int, float) or any(type(v) is not float for v in items):
        return sum(items, start)
    total, comp = float(start), 0.0
    for v in items:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_reports_do_not_depend_on_the_interpreters_float_sum(tmp_path, capsys, monkeypatch):
    # pyproject allows Python >= 3.10, and from 3.12 the builtin sum is compensated: the
    # odd certificate's sum of b^2 and its sum over slices once went through it
    paths = {}
    for name, flags in (("gauss", ["--n", "12", "--k", "3", "--m", "200", "--model", "gaussian",
                                   "--seed", "4"]),
                        ("random", ["--n", "8", "--k", "3", "--m", "40", "--model", "random",
                                    "--seed", "2"]),
                        ("even", ["--n", "10", "--k", "2", "--m", "60", "--model", "gaussian",
                                  "--seed", "3"]),
                        ("z", ["--n", "8", "--k", "3", "--m", "12", "--model", "one-basis-z",
                               "--seed", "1"]),
                        ("z2", ["--n", "8", "--k", "2", "--m", "10", "--model", "one-basis-z",
                                "--seed", "1"])):
        paths[name] = str(tmp_path / name)
        run(capsys, "gen", *flags, "--out", paths[name])
    (tmp_path / "xz").write_text(OBSTRUCTED)
    paths["xz"] = str(tmp_path / "xz")
    (tmp_path / "pmom").write_text(point_moments(8))
    commands = [["certify", "--in", paths["gauss"], "--ell", "3", "--eps", "0.8"],
                ["certify", "--in", paths["random"], "--ell", "2", "--eps", "0.8"],
                ["certify", "--in", paths["even"], "--ell", "2"],
                ["oracle", "--in", paths["random"]],
                ["oracle", "--in", paths["z"], "--expansion", "1.0", "3"],
                ["witness", "--in", paths["z"], "--degree", "4"],
                ["witness", "--in", paths["xz"], "--degree", "3"],
                ["witness", "--in", paths["z2"], "--degree", "2", "--lift", str(tmp_path / "pmom")],
                ["sweep", "--n", "10", "--k", "3", "--ell", "2", "--eps", "0.8",
                 "--m-grid", "40,80", "--seeds", "2", "--model", "gaussian"],
                ["sweep", "--n", "10", "--k", "2", "--ell", "1", "--eps", "0.5",
                 "--m-grid", "20", "--seeds", "2", "--model", "gaussian"]]

    def reports():
        results = []
        for argv in commands:
            code, out = run(capsys, *argv)
            results.append((code, [line for line in out.splitlines() if "time_s=" not in line]))
        return results

    plain = reports()
    assert [code for code, _ in plain] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0]
    for name, module in list(sys.modules.items()):
        if name == "hkxor" or name.startswith("hkxor."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert reports() == plain
