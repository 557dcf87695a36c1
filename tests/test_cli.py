import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib.resources import files
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import liouv.cli
import liouv.lyapunov
import liouv.oracle
from liouv.analysis import analyze, build_report, dumps_report, render_text, write_report
from liouv.cli import main
from liouv.io import load_model, model_to_dict, parse_model_dict
from liouv.errors import InputError, ParseError
from liouv.model import validate_model
from liouv.randmodel import random_axis_model, random_model
from liouv.tolerances import Tolerances

from conftest import critical_plus_decoupled, json_native, planted_model, seventy_block_result

MODELS = files("liouv") / "models"
# thresholds that left Tolerances: tol_lyap went with the Lyapunov path choice,
# the rest only judge a result and are module constants in liouv.tolerances
REMOVED_TOLERANCES = ("tol_lyap", "tol_input", "tol_build", "tol_psd", "tol_omega", "tol_normal")


def run_cli(args, env=None):
    cmd = [sys.executable, "-m", "liouv.cli", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env)


def model_path(name):
    return str(MODELS / name)


def test_analyze_text_flags_defectivity(capsys):
    rc = main(["analyze", model_path("single_qubit.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "non-diagonalizable" in out
    assert "block size 2" in out


def test_analyze_json_round_trip(capsys):
    rc = main(["analyze", model_path("ising_pair.json"), "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    assert report["ness"]["unique"] is False
    assert report["ness"]["stationary_dim"] == 2
    Z = np.array(report["driving"]["Z"])
    gp, gm, j = 0.8, 0.2, 0.7
    expected = (2 * gm / (2 * gp**2 + j**2)) * np.array(
        [[0, gp, j, 0], [-gp, 0, 0, 0], [-j, 0, 0, 0], [0, 0, 0, 0]]
    )
    np.testing.assert_allclose(Z, expected, atol=1e-10)
    # Z is unique despite the zero rapidity, so no covariance warning
    assert report["warnings"] == []
    assert report["ness"]["covariance_unique"] is True


def test_analyze_deterministic(capsys):
    main(["analyze", model_path("ising_pair.json"), "--format", "json"])
    first = capsys.readouterr().out
    main(["analyze", model_path("ising_pair.json"), "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_full_spectrum(capsys):
    rc = main(["analyze", model_path("single_qubit.json"), "--format", "json",
               "--full-spectrum"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    entries = report["spectrum"]["entries"]
    assert len(entries) == 3
    assert [e["subspace_dim"] for e in entries] == [1, 2, 1]
    assert [e["max_jordan_block"] for e in entries] == [1, 2, 1]


def test_analyze_limit_triggers_spectrum_fallback(capsys):
    rc = main(["analyze", model_path("ising_pair.json"), "--format", "json",
               "--limit", "5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spectrum"]["enumerated"] is False
    assert "spectrum_not_enumerated" in report["warnings"]
    # gap, extremes and stationary dimension survive without enumeration
    assert report["ness"]["stationary_dim"] == 2
    assert report["spectrum"]["extremes"]["lambda_full"] == [-2 * 1.6, 0.0]


def test_analyze_tolerance_override(capsys):
    rc = main(["analyze", model_path("single_qubit.json"), "--format", "json",
               "--tol-cluster", "1e-3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerances"]["tol_cluster"] == 1e-3


def test_analyze_missing_file_exit_2():
    assert main(["analyze", "nonexistent.json"]) == 2


def test_analyze_bad_model_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "K": [[0.0, 1.0], [1.0, 0.0]], "lindblad": []}))
    assert main(["analyze", str(bad)]) == 2


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "not UTF-8: byte offset 0"),
    (b"[" * 200_000 + b"]" * 200_000, "JSON nested too deeply"),
], ids=["non_utf8", "deep_array"])
def test_unparseable_model_file_exit_2(tmp_path, capsys, command, content, message):
    # a UnicodeDecodeError and a RecursionError used to end in a traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: {message}")


def test_analyze_non_finite_model_exit_2(tmp_path):
    # json.loads accepts NaN and Infinity; validation must reject them
    bad = tmp_path / "nan.json"
    bad.write_text('{"n": 1, "K": [[0, NaN], [0, 0]], "lindblad": [[1, 0]]}')
    res = run_cli(["analyze", str(bad)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "NaN or infinite" in res.stderr
    bad.write_text('{"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [[Infinity, 0]]}')
    assert main(["analyze", str(bad)]) == 2


def near_maximum_model(exponent):
    """random_model(2, 1) with its Lindblad vectors scaled by 10^exponent."""
    model = random_model(2, 1)
    return validate_model(2, model.K, [v * 10.0**exponent for v in model.lindblad_vectors])


OVERFLOW_MODELS = {
    "M": '{"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [[1e200, 0]]}',
    "K_and_M": '{"n": 1, "K": [[0, 1e308], [-1e308, 0]], "lindblad": [[1e308, 0]]}',
    "K": '{"n": 1, "K": [[0, 1e308], [-1e308, 0]], "lindblad": []}',
    # X and A_0 finite; the many-body eigenvalues, or on the way to them the
    # singleton certificate's bound ||X|| + |w|, overflow
    "lambda_153.35": json.dumps(model_to_dict(near_maximum_model(153.35))),
    "lambda_153.45": json.dumps(model_to_dict(near_maximum_model(153.45))),
}


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("name", list(OVERFLOW_MODELS))
def test_overflowing_model_exit_2(tmp_path, capsys, command, name):
    """Finite entries whose antisymmetrized K, M = l conj(l)^T or X overflow
    are an input error, not a LinAlgError (or, under the overflow warning as
    an error, a RuntimeWarning) with a traceback."""
    bad = tmp_path / f"{name}.json"
    bad.write_text(OVERFLOW_MODELS[name])
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error: .* overflows", captured.err)


@pytest.mark.parametrize("exponent, quantity", [
    (153.35, "eigenvalue lambda"), (153.45, "eigenvalue lambda"), (153.55, "A_0 = tr X"),
    (153.75, "X = 2K"), (154, "bath matrix M"), (307, "bath matrix M"),
])
def test_overflowing_derived_matrix_is_an_input_error(exponent, quantity):
    """random_model(2, 1) with its Lindblad vectors scaled by 10^exponent: the
    first derived quantity that overflows is named."""
    with pytest.raises(InputError, match=f"{re.escape(quantity)}.* overflows"):
        analyze(near_maximum_model(exponent))


def test_analyze_parse_error_has_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [[1]]}))
    with pytest.raises(ParseError, match="lindblad"):
        load_model(bad)


def test_parse_rejects_unknown_tolerance():
    doc = {"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [], "tolerances": {"bogus": 1}}
    with pytest.raises(ParseError, match="bogus"):
        parse_model_dict(doc)


@pytest.mark.parametrize("tolerances", [
    {"tol_merge": float("nan")},  # used to merge ising_chain_3 into one group, exit 0
    {"tol_cluster": float("nan")},  # used to exit 3
    {"tol_stability": -1},  # used to exit 3
    {"tol_rank": 0},
    {"tol_stability": float("inf")},
    {"tol_merge": True},
    {"tol_cluster": "1e-7"},
    {"spectrum_limit": 2.5},
    {"spectrum_limit": 0},
    {"spectrum_limit": False},
])
def test_analyze_bad_model_tolerance_exit_2(tmp_path, capsys, tolerances):
    doc = json.loads((MODELS / "ising_chain_3.json").read_text())
    doc["tolerances"] = tolerances
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # writes NaN / Infinity, which json.loads accepts
    assert main(["analyze", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tolerance '{next(iter(tolerances))}'" in captured.err


@pytest.mark.parametrize("flags", [
    ["--tol-rank", "inf"],  # used to exit 3
    ["--tol-merge", "nan"],
    ["--tol-cluster=-1e-7"],
    ["--tol-stability", "0"],
    ["--limit", "0"],
    ["--limit=-5"],
])
def test_analyze_bad_tolerance_flag_exit_2(capsys, flags):
    assert main(["analyze", model_path("ising_pair.json"), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance")


def test_model_tolerances_accept_positive_numbers():
    doc = {"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [[1, 0]],
           "tolerances": {"tol_merge": 1, "tol_rank": 1e-6, "spectrum_limit": 50}}
    _, tolerances = parse_model_dict(doc)
    assert (tolerances.tol_merge, tolerances.tol_rank, tolerances.spectrum_limit) == (1, 1e-6, 50)


@pytest.mark.parametrize("key", REMOVED_TOLERANCES)
def test_model_file_rejects_removed_tol_lyap(tmp_path, capsys, key):
    doc = json.loads((MODELS / "ising_pair.json").read_text())
    doc["tolerances"] = {key: 1e-8}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown tolerance" in captured.err


def _rotated_axis_model():
    """random_axis_model(4, 1, 2) under a Haar rotation O: K -> O K O^T,
    l -> O l.  Its imaginary pair has Re beta = -7.8e-16."""
    m = random_axis_model(4, 1, 2)
    q, r = np.linalg.qr(np.random.default_rng(101).standard_normal((8, 8)))
    O = q * np.sign(np.diag(r))
    return validate_model(4, O @ m.K @ O.T, [O @ l for l in m.lindblad_vectors])


@pytest.fixture(scope="module")
def robustness_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = [model_path(f"{name}.json") for name in ("single_qubit", "ising_pair", "ising_chain_3")]
    for name, model in (("rotated_axis", _rotated_axis_model()), ("random3", random_model(3, 0))):
        path = root / f"{name}.json"
        path.write_text(json.dumps(model_to_dict(model)))
        paths.append(str(path))
    return paths


def _flag(name):
    return f"--{name.replace('_', '-')}"


def test_analyze_help_lists_steering_tolerance_flags(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    help_text = capsys.readouterr().out
    assert sorted(set(re.findall(r"--tol-[a-z]+", help_text))) == [
        "--tol-cluster", "--tol-merge", "--tol-rank", "--tol-stability"]
    assert "--limit" in help_text


@pytest.mark.parametrize("value", ["1e-300", "1e-18", "0.5", "1e300"])
@pytest.mark.parametrize("flag", [_flag(f.name) for f in dataclasses.fields(Tolerances)
                                  if f.name.startswith("tol_")]
                         + [_flag(name) for name in REMOVED_TOLERANCES])
def test_extreme_tolerance_flags_never_raise(robustness_models, capsys, flag, value):
    # an extreme tolerance may refuse the model (exit 2 or 3) but never
    # ends in a traceback; a removed tolerance flag is a usage error (exit 2)
    if flag in {_flag(name) for name in REMOVED_TOLERANCES}:
        with pytest.raises(SystemExit) as exc:
            main(["analyze", robustness_models[0], flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        return
    for path in robustness_models:
        assert main(["analyze", path, "--format", "json", flag, value]) in (0, 2, 3), path
        capsys.readouterr()


def test_unconverged_sign_iteration_exit_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "random3.json"
    path.write_text(json.dumps(model_to_dict(random_model(3, 0))))
    monkeypatch.setattr(liouv.lyapunov, "SIGN_MAX_STEPS", 2)
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant violated: sign iteration did not converge")
    assert captured.err.count("\n") == 1


def test_verify_honours_model_file_tolerances(tmp_path, capsys):
    # eig splits the planted 3-block into a ring of radius about 5e-6; only
    # the file's tol_cluster merges it, in analyze and in verify alike
    doc = model_to_dict(planted_model((3, 1), 3))
    doc["tolerances"] = {"tol_cluster": 1e-3}
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(doc))
    assert [b.size for b in analyze(*load_model(path)).jordan.blocks] == [3, 1]
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    # a spectrum_limit that leaves the spectrum unenumerated is an input error
    doc["tolerances"]["spectrum_limit"] = 3
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: spectrum_limit 3")
    assert captured.err.count("\n") == 1


def test_verify_bundled_and_random(capsys):
    assert main(["verify", model_path("ising_pair.json")]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--random", "--n", "2", "--seed", "11"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_corrupt_hook_exit_3(monkeypatch, capsys):
    real_analyze = liouv.cli.analyze

    def corrupted_analyze(*args, **kwargs):
        # damage the structure matrix to exercise the exit-3 path
        result = real_analyze(*args, **kwargs)
        A = result.structure.A.copy()
        A[0, -1] += 0.1
        A[-1, 0] -= 0.1
        structure = dataclasses.replace(result.structure, A=A)
        return dataclasses.replace(result, structure=structure)

    monkeypatch.setattr(liouv.cli, "analyze", corrupted_analyze)
    assert main(["verify", model_path("ising_pair.json")]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_fails_when_the_pipeline_bath_matrix_is_shifted(monkeypatch, capsys):
    """The oracle builds M from the Lindblad vectors itself: a PSD shift of
    one Hermitian pair of the pipeline's M by 1e-6 fails verify."""
    real_bath = liouv.analysis.build_bath_matrices
    built = []

    def shifted_bath(model):
        bath = real_bath(model)
        shift = np.zeros_like(bath.M)
        shift[np.ix_([0, 1], [0, 1])] = 1e-6  # 1e-6 (e_0 + e_1)(e_0 + e_1)^T
        M = bath.M + shift
        built.append(M)
        return dataclasses.replace(bath, M=M, M_r=bath.M_r + shift.real)

    monkeypatch.setattr(liouv.analysis, "build_bath_matrices", shifted_bath)
    assert main(["verify", "--random", "--n", "3", "--seed", "1"]) == 3
    out = capsys.readouterr().out
    assert len(built) == 1 and np.linalg.eigvalsh(built[0]).min() > -1e-15
    assert float(re.search(r"even (\S+),", out).group(1)) > 1e-7
    assert out.splitlines()[-1] == "FAIL"


def _run_into_closed_pipe(argv, unbuffered):
    """Run `liouv argv` with stdout on a pipe whose read end is already closed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "liouv.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["at_a_print", "at_the_final_flush"])
def test_closed_stdout_pipe_exits_without_a_traceback(unbuffered):
    """A reader that closed the pipe, as `liouv verify ... | head -n 1` does,
    makes the write fail at a print (unbuffered) or at the flush before exit
    (block-buffered); either way the exit code is 141 and stderr stays empty."""
    proc = _run_into_closed_pipe(["verify", "--random", "--n", "4", "--seed", "3"], unbuffered)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("name, full", [("single_qubit.json", False), ("ising_chain_3.json", True)],
                         ids=["below_the_buffer", "past_the_buffer"])
def test_closed_stdout_pipe_during_a_streamed_report(unbuffered, name, full):
    """The json report goes to stdout as one writelines of its pieces.  A
    closed pipe fails at its first write when unbuffered; block-buffered, it
    fails inside writelines for a 51 kB report (past the 8 kB buffer) and at
    the final flush for a 3 kB one.  Each exits 141 with empty stderr."""
    argv = ["analyze", model_path(name), "--format", "json"] + ["--full-spectrum"] * full
    proc = _run_into_closed_pipe(argv, unbuffered)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_verify_fails_on_degree_leak(monkeypatch, capsys):
    """A report whose only bad certificate is the Majorana-degree leak fails
    verify: the degree-block spectrum is only the spectrum without it."""
    real_verify = liouv.oracle.verify_quadratic_form

    def leaky_report(sup, structure):
        return dataclasses.replace(real_verify(sup, structure), degree_leak=1e-8)

    monkeypatch.setattr(liouv.oracle, "verify_quadratic_form", leaky_report)
    assert main(["verify", "--random", "--n", "2", "--seed", "11"]) == 3
    out = capsys.readouterr().out
    assert float(re.search(r"Majorana-degree leak: (\S+)", out).group(1)) == 1e-8
    assert float(re.search(r"imaginary residual: (\S+)", out).group(1)) < 1e-13
    assert "kernel dim 1 vs stationary_dim 1: ok" in out
    assert float(re.search(r"covariance deviation: (\S+)", out).group(1)) < 1e-7
    assert float(re.search(r"spectrum multiset deviation: (\S+)", out).group(1)) < 1e-7
    assert out.splitlines()[-1] == "FAIL"


def test_verify_size_limit_with_warm_oracle_cache(monkeypatch, capsys):
    monkeypatch.delenv("LIOUV_NMAX", raising=False)
    assert main(["verify", model_path("ising_pair.json")]) == 0
    capsys.readouterr()
    monkeypatch.setenv("LIOUV_NMAX", "1")
    assert main(["verify", model_path("ising_pair.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_parser_is_built_once_and_calls_stay_independent(capsys):
    """The parser is shared by every main call; no flag of one call carries
    over to the next."""
    assert liouv.cli.build_parser() is liouv.cli.build_parser()
    path = model_path("single_qubit.json")
    model, tolerances = load_model(path)
    result = analyze(model, tolerances)
    expected = {full: json.loads(dumps_report(build_report(result, full_spectrum=full)))
                for full in (False, True)}
    assert expected[True] != expected[False]
    for flags, full in ((["--full-spectrum"], True), ([], False),
                        (["--limit", "1"], None), ([], False), (["--full-spectrum"], True)):
        assert main(["analyze", path, "--format", "json", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        if full is None:
            assert report != expected[False]
        else:
            assert report == expected[full]
    assert main(["comb", "restricted-binomial", "4", "2"]) == 0
    assert capsys.readouterr().out == "1 1 2 1 1\n"


def test_verify_builds_one_superoperator(monkeypatch, capsys):
    real_build = liouv.oracle.build_superoperator
    built = []

    def counted(model):
        built.append(model.n)
        return real_build(model)

    monkeypatch.setattr(liouv.oracle, "build_superoperator", counted)
    assert main(["verify", model_path("ising_pair.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    assert built == [2]


@pytest.mark.parametrize("argv", [
    ["comb", "restricted-binomial", "-1", "0"],
    ["comb", "restricted-binomial", "3", "5"],
    ["comb", "restricted-binomial", "3", "-1"],
    ["comb", "tensor-blocks", "0", "1"],
    ["comb", "tensor-blocks", "3", "-1"],
    ["comb", "nilpotent-blocks", "5", "-1"],
    ["comb", "nilpotent-blocks", "3", "5"],
    ["comb", "verify-conjecture", "-2"],
    ["verify", "--random", "--n", "-1", "--seed", "1"],
    ["verify", "--random", "--n", "2", "--seed", "-1"],
    ["verify", "--random", "--n", "2", "--seed", "1", "--vectors", "-2"],
])
def test_bad_integer_arguments_exit_2(capsys, argv):
    # each used to end in a ValueError traceback, or to print an empty
    # staircase or a PASS with a meaningless argument
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", model_path("ising_pair.json"), "--n", "3"],
    ["verify", model_path("ising_pair.json"), "--seed", "1"],
    ["verify", model_path("ising_pair.json"), "--vectors", "1"],
    ["verify", model_path("ising_pair.json"), "--random", "--n", "2", "--seed", "1"],
])
def test_verify_rejects_arguments_it_would_ignore(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_nmax_exceeded_exit_2():
    res = run_cli(["verify", model_path("ising_pair.json")], env={"LIOUV_NMAX": "1"})
    assert res.returncode == 2


@pytest.mark.parametrize("nmax", ["abc", "0", "-2", "2.5"])
def test_verify_bad_nmax_exit_2(nmax):
    res = run_cli(["verify", model_path("ising_pair.json")], env={"LIOUV_NMAX": nmax})
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "LIOUV_NMAX" in res.stderr


@pytest.mark.parametrize("argv, nmax", [
    (["verify", model_path("ising_pair.json")], "1"),
    (["verify", model_path("ising_pair.json")], "abc"),
    (["verify", "--random", "--n", "7", "--seed", "1"], None),
])
def test_verify_size_error_before_any_output(monkeypatch, capsys, argv, nmax):
    if nmax is None:
        monkeypatch.delenv("LIOUV_NMAX", raising=False)
    else:
        monkeypatch.setenv("LIOUV_NMAX", nmax)

    def no_analyze(*args, **kwargs):
        raise AssertionError("analyze ran before the oracle size check")

    monkeypatch.setattr(liouv.cli, "analyze", no_analyze)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_random_requires_n_and_seed():
    assert main(["verify", "--random"]) == 2
    assert main(["verify"]) == 2


def test_parse_accepts_bare_reals_and_rejects_garbage():
    doc = {"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [[1.5, [0.0, -1.0]]]}
    model, _ = parse_model_dict(doc)
    assert model.lindblad_vectors[0][0] == 1.5 + 0j
    assert model.lindblad_vectors[0][1] == -1j
    bad = {"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [["x", 0.0]]}
    with pytest.raises(ParseError, match=r"lindblad\[0\]\[0\]"):
        parse_model_dict(bad)


@pytest.mark.parametrize("field, doc", [
    ("'n'", {"n": True, "K": [[0, 0], [0, 0]], "lindblad": [[1, 0]]}),
    ("K[0][1]", {"n": 1, "K": [[0, "0.35"], ["-0.35", 0]], "lindblad": [[1, 0]]}),
    ("K[0][0]", {"n": 1, "K": [[False, True], [True, False]], "lindblad": [[1, 0]]}),
    ("'K'", {"n": 1, "K": [[0, 10**400], [0, 0]], "lindblad": [[1, 0]]}),
    ("lindblad[0][0]", {"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [[[True, False], 0]]}),
    ("lindblad[0][1]", {"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [[1, True]]}),
    ("lindblad[0][0]", {"n": 1, "K": [[0, 0], [0, 0]], "lindblad": [[10**400, 0]]}),
])
def test_parse_rejects_non_numbers(tmp_path, field, doc):
    # strings and booleans used to be converted to numbers, exit 0
    with pytest.raises(ParseError, match=re.escape(field)):
        parse_model_dict(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


def test_comb_outputs(capsys):
    assert main(["comb", "restricted-binomial", "4", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 2 1 1"
    assert main(["comb", "tensor-blocks", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "3 1"
    assert main(["comb", "nilpotent-blocks", "4", "2"]) == 0
    out = capsys.readouterr().out
    assert "agree: True" in out


def test_comb_past_the_recursion_limit(capsys):
    assert main(["comb", "restricted-binomial", "3000", "2"]) == 0
    assert sum(int(v) for v in capsys.readouterr().out.split()) == math.comb(3000, 2)
    assert main(["comb", "nilpotent-blocks", "600", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "agree: True"


def test_comb_verify_conjecture_exit_code(capsys):
    assert main(["comb", "verify-conjecture", "6"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_console_script_entry():
    res = run_cli(["comb", "restricted-binomial", "4", "2"])
    assert res.returncode == 0
    assert res.stdout.strip() == "1 1 2 1 1"


def test_analyze_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(["analyze", model_path("ising_pair.json"), "--format", "json",
               "--output", str(target)])
    assert rc == 0
    report = json.loads(target.read_text())
    assert report["input"]["n"] == 2


def test_analyze_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["analyze", model_path("ising_pair.json"), "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --output")
    assert not target.exists()


def _json_sha256(report) -> str:
    """sha256 of `json.dumps(report, indent=2, default=json_native) + "\\n"`,
    hashed from json's own indent-2 chunks in batches instead of from the
    joined text (the 98 MB random8 full listing would take several hundred MB
    as one string)."""
    digest = hashlib.sha256()
    chunks = json.JSONEncoder(indent=2, default=json_native).iterencode(report)
    while batch := "".join(islice(chunks, 1 << 16)):
        digest.update(batch.encode())
    digest.update(b"\n")
    return digest.hexdigest()


def _file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("full", [False, True], ids=["merged", "full_spectrum"])
def test_output_file_and_stdout_are_json_dumps_random8(tmp_path, full):
    """random_model(8, 1): 65,536 merged records, and with --full-spectrum as
    many entries, each with 16 occupation triples.  --output writes the same
    bytes as stdout, and both are json.dumps(indent=2) plus a newline."""
    src = tmp_path / "random8.json"
    src.write_text(json.dumps(model_to_dict(random_model(8, 1))))
    argv = ["analyze", str(src), "--format", "json"] + ["--full-spectrum"] * full
    stdout, target = tmp_path / "stdout.json", tmp_path / "report.json"
    with open(stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        assert main(argv) == 0
    assert main([*argv, "--output", str(target)]) == 0
    expected = _json_sha256(build_report(analyze(*load_model(src)), full_spectrum=full))
    assert _file_sha256(target) == _file_sha256(stdout) == expected


def test_encode_error_leaves_an_existing_output_file_untouched(tmp_path, monkeypatch):
    """The report is encoded in full before --output is opened: a value json
    cannot encode raises before the old file is truncated."""
    real_build_report = liouv.cli.build_report

    def unencodable(*args, **kwargs):
        report = real_build_report(*args, **kwargs)
        # an object field's elements are written one by one, as json writes them
        merged = report["spectrum"]["merged"]
        merged = merged.astype([(k, object if k == "total_dim" else merged.dtype[k])
                                for k in merged.dtype.names])
        merged["total_dim"][-1] = np.int64(1)
        report["spectrum"]["merged"] = merged
        return report

    monkeypatch.setattr(liouv.cli, "build_report", unencodable)
    target = tmp_path / "report.json"
    target.write_text("previous report\n")
    with pytest.raises(TypeError, match="int64"):
        main(["analyze", model_path("ising_chain_3.json"), "--format", "json",
              "--output", str(target)])
    assert target.read_text() == "previous report\n"


def _spectrum_rows_reference(sp) -> list[str]:
    """render_text's spectrum rows as one f-string each, the renderer the
    %-templates replaced, kept as the reference; it reads the records as the
    dicts the report's structured arrays stand for."""
    sp = json.loads(json.dumps(sp, default=json_native))
    out = []
    for e in sp["merged"]:
        re, im = e["lambda"]
        star = "*" if e["lower_bound"] else " "
        out.append(f"  {re:>14.8g} {im:>14.8g} {e['total_dim']:>5} "
                   f"{e['max_jordan_block']:>5}{star}")
    if "entries" in sp:
        out.append("  full listing (occupation -> lambda, dim, maxblk):")
        for e in sp["entries"]:
            occ = " ".join(f"({j},{k})={m}" for j, k, m in e["occupation"])
            re, im = e["lambda"]
            out.append(f"    {re:+.8g}{im:+.8g}i  dim {e['subspace_dim']} "
                       f"blk {e['max_jordan_block']}  {occ}")
    return out


def _edge_lambdas(report):
    """The report with the `lambda` field of its merged records, then of its
    entries, set to edge floats."""
    edges = np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.30000000000000004,
                      -123456789.123456789, 1e-7, math.nan, math.inf, -math.inf])
    sp = report["spectrum"]
    start = 0
    for records in (sp[key] for key in ("merged", "entries") if key in sp):
        i = np.arange(start, start + len(records))
        records["lambda"] = np.stack([edges[i % len(edges)], edges[(3 * i + 1) % len(edges)]], -1)
        start += len(records)
    return report


@pytest.mark.parametrize("make", [
    lambda: build_report(analyze(*load_model(model_path("single_qubit.json"))), True),
    lambda: build_report(analyze(*load_model(model_path("ising_chain_3.json"))), True),
    lambda: build_report(analyze(random_model(4, 1)), True),
    lambda: build_report(analyze(critical_plus_decoupled(3, 1, 0.7, 2)), True),
    lambda: build_report(seventy_block_result(), True),
    lambda: build_report(analyze(random_model(8, 1))),
    lambda: _edge_lambdas(build_report(analyze(random_model(3, 2)), True)),
], ids=["single_qubit", "ising_chain_3", "random4", "defective_copies", "seventy_block",
        "random8_merged", "edge_floats"])
def test_render_text_spectrum_rows_match_the_f_string_reference(make):
    report = make()
    rows = _spectrum_rows_reference(report["spectrum"])
    lines = render_text(report).splitlines()
    start = lines.index(f"  {'Re lambda':>14} {'Im lambda':>14} {'dim':>5} {'maxblk':>6}") + 1
    assert lines[start:start + len(rows)] == rows
    assert lines[start + len(rows):] in ([], [""] + lines[-1:])


def test_bundled_chain_model_loads():
    model, _ = load_model(model_path("ising_chain_3.json"))
    assert model.n == 3


def _assert_finite(node, path="report"):
    if isinstance(node, dict):
        for k, v in node.items():
            _assert_finite(v, f"{path}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _assert_finite(v, f"{path}[{i}]")
    elif isinstance(node, float):
        assert np.isfinite(node), f"non-finite value at {path}"


def test_report_fields_finite_and_warnings_closed(capsys):
    from liouv.analysis import ALL_WARNINGS

    for name in ("single_qubit.json", "ising_pair.json", "ising_chain_3.json"):
        main(["analyze", model_path(name), "--format", "json", "--full-spectrum"])
        report = json.loads(capsys.readouterr().out)
        _assert_finite(report)
        assert set(report["warnings"]) <= set(ALL_WARNINGS)


def test_verify_chain_fixture(capsys):
    assert main(["verify", model_path("ising_chain_3.json")]) == 0
    out = capsys.readouterr().out
    assert "kernel dim 4 vs stationary_dim 4" in out
    assert float(re.search(r"^  Majorana-degree leak: (\S+)$", out, re.M).group(1)) < 1e-15


def test_verify_linked_model_with_a_many_body_3_block(tmp_path, capsys):
    # n = 3: two critical 2-blocks (a many-body 3-block) and one imaginary pair;
    # eigvals spreads the 3-block groups by about (eps ||S||)^(1/3), so those
    # are gated on their count and mean, not eigenvalue by eigenvalue
    path = tmp_path / "linked.json"
    path.write_text(json.dumps(model_to_dict(critical_plus_decoupled(2, 1, 0.7, 1))))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    found = re.search(r"defective-group mean deviation: (\S+) \(defective groups (\d+), "
                      r"counts ok\)", out)
    assert float(found.group(1)) < 1e-12 and int(found.group(2)) > 0
    assert out.splitlines()[-1] == "PASS"


def test_analyze_empty_bath_model(tmp_path, capsys):
    doc = {"n": 1, "K": [[0.0, 0.4], [-0.4, 0.0]], "lindblad": []}
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path), "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gap"] == 0.0
    assert report["ness"]["unique"] is False
    C = np.array([[complex(re, im) for re, im in row] for row in report["ness"]["covariance"]])
    np.testing.assert_allclose(C, np.eye(2), atol=1e-14)


def test_report_matrices_match_element_loop():
    # the report used to convert matrices element by element; tolist() must
    # give the same JSON, -0.0 included
    from liouv.analysis import analyze, build_report
    from liouv.model import validate_model

    K = np.array([[0.0, -0.0], [0.0, 0.0]])
    model = validate_model(1, K, [np.array([complex(-0.0, 1.0), complex(0.5, -0.0)])])
    result = analyze(model)
    report = build_report(result)

    def c(z):
        z = complex(z)
        return [float(z.real), float(z.imag)]

    def cmat(m):
        return [[c(v) for v in row] for row in np.asarray(m)]

    def rmat(m):
        return [[float(v) for v in row] for row in np.asarray(m)]

    expected = {
        ("input", "K"): rmat(model.K),
        ("input", "lindblad"): [[c(v) for v in l] for l in model.lindblad_vectors],
        ("bath", "M"): cmat(result.bath.M),
        ("bath", "M_r"): rmat(result.bath.M_r),
        ("bath", "M_i"): rmat(result.bath.M_i),
        ("driving", "Z"): rmat(result.driving.Z),
        ("ness", "covariance"): cmat(result.ness.covariance),
    }
    assert "-0.0" in json.dumps(report["input"], default=json_native)
    assert json.dumps(report["X"], default=json_native) == json.dumps(rmat(result.X))
    for (section, key), ref in expected.items():
        assert json.dumps(report[section][key], default=json_native) == json.dumps(ref), key


def assert_dumps_like_json(report):
    assert dumps_report(report) == json.dumps(report, indent=2, default=json_native)


@pytest.mark.parametrize("name", ["single_qubit.json", "ising_pair.json", "ising_chain_3.json"])
@pytest.mark.parametrize("full", [False, True])
def test_analyze_json_is_json_dumps_indent_2(capsys, name, full):
    argv = ["analyze", model_path(name), "--format", "json"] + ["--full-spectrum"] * full
    assert main(argv) == 0
    model, tolerances = load_model(model_path(name))
    report = build_report(analyze(model, tolerances), full_spectrum=full)
    assert capsys.readouterr().out == json.dumps(report, indent=2, default=json_native) + "\n"


@pytest.mark.parametrize("n", range(1, 9))
def test_dumps_report_matches_json_random(n):
    # the full listing of n = 7, 8 (16,384 and 65,536 entries) is left to the
    # merged view, which has about as many records and the same kinds of fields
    assert_dumps_like_json(build_report(analyze(random_model(n, n)), full_spectrum=n <= 6))


def test_dumps_report_matches_json_dims_past_int64():
    report = build_report(seventy_block_result(), full_spectrum=True)
    assert report["spectrum"]["total_dim"] == 2**70
    assert_dumps_like_json(report)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                -1.7976931348623157e308, math.nan, math.inf, -math.inf]
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
_INTS = st.integers(-(2**80), 2**80)  # past 2^63 both ways
_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "%s", "%%d", "\x00\x1f\x7f", "é∞😀"])
# the odd items a fast path must leave alone: json writes bool and
# np.float64 its own way, and NaN / Infinity are not float reprs
_ODD = st.sampled_from([True, False, 1, 0, None, np.float64(0.5), np.float64(math.nan), "x"])
_SCALARS = (_FLOATS | _INTS | st.booleans() | st.none() | _TEXT
            | st.builds(np.float64, _FLOATS))
# json also takes int, float, bool and None keys and writes them as strings
_KEYS = _TEXT | _INTS | _FLOATS | st.booleans() | st.none()
_PAIR = st.lists(_FLOATS, min_size=2, max_size=2)
_SHAPED = st.one_of(
    st.lists(_FLOATS | _ODD, max_size=6),  # float runs, True / 1 / np.float64 inside
    st.lists(st.tuples(_INTS, _FLOATS).map(list), max_size=4),  # like omega_checks
    st.integers(0, 3).flatmap(  # matrices and [re, im] rows
        lambda k: st.lists(st.lists(_PAIR | _FLOATS, min_size=k, max_size=k), max_size=4)),
    st.lists(st.fixed_dictionaries({  # like spectrum.merged
        "lambda": _PAIR,
        "total_dim": _INTS,
        "max_jordan_block": st.integers(1, 9) | _ODD,
        "lower_bound": st.booleans(),
    }), max_size=4),
    st.lists(st.dictionaries(_KEYS, _SCALARS, max_size=2), max_size=3),
)
_TREES = st.recursive(
    _SCALARS | _SHAPED,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dumps_report_matches_json_property(tree):
    assert_dumps_like_json(tree)


# floats whose shortest repr takes 17 significant digits, and the extremes
_SEVENTEEN_DIGITS = [0.30000000000000004, 1.0000000000000002, 2.2250738585072014e-308,
                     4.9406564584124654e-322, 9007199254740993.0, 123456789.12345679]
_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(_EDGE_FLOATS[:6] + _SEVENTEEN_DIGITS))


@st.composite
def _repeated_float_columns(draw):
    """Lists shaped like the report's float columns (float runs, matrix rows,
    [re, im] rows, spectrum records) drawn from a pool of at most five
    magnitudes, each value x or -x, so 0.0 meets -0.0 and every value repeats."""
    pool = draw(st.lists(_FINITE, min_size=1, max_size=5))
    value = st.builds(lambda x, neg: -x if neg else x, st.sampled_from(pool), st.booleans())
    pair = st.lists(value, min_size=2, max_size=2)
    k = draw(st.integers(1, 4))
    return draw(st.one_of(
        st.lists(value, min_size=1, max_size=40),
        st.lists(st.lists(value, min_size=k, max_size=k), min_size=1, max_size=12),
        st.lists(st.lists(pair, min_size=k, max_size=k), min_size=1, max_size=8),
        st.lists(st.fixed_dictionaries({
            "lambda": pair, "total_dim": st.integers(1, 9), "lower_bound": st.booleans(),
        }), min_size=1, max_size=16),
    ))


@settings(max_examples=300, deadline=None)
@given(st.lists(_repeated_float_columns(), min_size=1, max_size=3))
def test_dumps_report_matches_json_on_repeated_floats(columns):
    assert_dumps_like_json(columns)
    written = io.StringIO()
    write_report(columns, written)
    assert written.getvalue() == json.dumps(columns, indent=2) + "\n"


@pytest.mark.parametrize("bad", [
    {"a": np.int64(1)}, [np.bool_(True)], {(1, 2): 0}, [{1, 2}],
    [np.array([1, np.int64(2)], dtype=object)], {"a": np.array(["x"])},
])
def test_dumps_report_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2, default=json_native)
    with pytest.raises(TypeError):
        dumps_report(bad)


_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4) | st.sampled_from(
    [(0, 4), (4, 0), (2, 0, 3)])
_FLOAT64S = st.floats() | st.sampled_from(_EDGE_FLOATS + _SEVENTEEN_DIGITS + [-math.nan])
_INT64S = (st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3)
           | st.integers(4090, 4100) | st.integers(0, 4096))


@st.composite
def _record_arrays(draw):
    """Structured arrays shaped like the spectrum's records: a (2,) float
    field, an (L, 3) int field, an object field of ints past int64, a bool
    and a complex field; one axis of records, or two, one of them empty."""
    count, width = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    records = np.empty(count, [("lambda", float, 2), ("occupation", np.int64, (width, 3)),
                               ("dim%s", object), ("lower_bound", bool), ("z", complex)])
    for name, dtype, elements in (("lambda", np.float64, _FLOAT64S),
                                  ("occupation", np.int64, _INT64S),
                                  ("lower_bound", np.bool_, st.booleans()),
                                  ("z", np.complex128, st.complex_numbers())):
        records[name] = draw(hnp.arrays(dtype, records[name].shape, elements=elements))
    records["dim%s"] = draw(st.lists(_INTS, min_size=count, max_size=count)) or 0
    return draw(st.sampled_from([records, records[:, None], records[None], records[:, None][:, :0]]))


_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_FLOAT64S),
    hnp.arrays(np.complex128, _SHAPES, elements=st.complex_numbers() | st.builds(
        complex, st.sampled_from(_EDGE_FLOATS), st.sampled_from(_EDGE_FLOATS))),
    hnp.arrays(np.int64, _SHAPES, elements=_INT64S),
    hnp.arrays(np.bool_, _SHAPES),
    st.lists(_INTS, max_size=5).map(lambda xs: np.array(xs, dtype=object)),
    _record_arrays(),
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_ARRAYS | _SCALARS, lambda children: st.lists(children, max_size=3)
                    | st.dictionaries(_KEYS, children, max_size=3), max_leaves=8))
def test_dumps_report_matches_json_on_array_leaves(tree):
    """Array leaves are written as json writes the lists json_native makes of
    them: plain, complex as [re, im], structured as dicts."""
    assert_dumps_like_json(tree)


def test_report_arrays_are_copies_of_the_result():
    """Writing to every array of a report leaves the analysis result, and so
    the next report built from it, as it was."""
    result = analyze(critical_plus_decoupled(2, 1, 0.7, 1))
    expected = dumps_report(build_report(result, full_spectrum=True))

    def overwrite(node):
        if isinstance(node, np.ndarray):
            for field in node.dtype.names or [None]:
                (node if field is None else node[field])[...] = 7
        elif isinstance(node, dict):
            for v in node.values():
                overwrite(v)

    report = build_report(result, full_spectrum=True)
    overwrite(report)
    assert dumps_report(report) != expected
    assert dumps_report(build_report(result, full_spectrum=True)) == expected
