import dataclasses
import json
import math
import re
import subprocess
import sys
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liouv.cli
import liouv.oracle
from liouv.analysis import analyze, build_report, dumps_report
from liouv.cli import main
from liouv.io import load_model, model_to_dict, parse_model_dict
from liouv.errors import ParseError
from liouv.randmodel import random_model

from conftest import critical_plus_decoupled, seventy_block_result

MODELS = files("liouv") / "models"


def run_cli(args, env=None):
    cmd = [sys.executable, "-m", "liouv.cli", *args]
    import os

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
    {"tol_psd": float("inf")},
    {"tol_merge": True},
    {"tol_lyap": "1e-8"},
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


def _parity_odd_coupling(n):
    """The commutator with the Majorana w_1, -i[w_1, .], as a vec superoperator:
    it maps even-parity operators to odd ones and keeps the trace."""
    w1 = liouv.oracle.majorana_ops(n).w[0]
    eye = np.eye(2**n)
    return -1j * (np.kron(eye, w1) - np.kron(w1.T, eye))


def test_verify_fails_on_parity_leak(monkeypatch, capsys):
    """A generator that leaks parity fails verify even when every other check
    passes: the sector spectrum check is only sound without the leak."""
    real_build = liouv.oracle.build_superoperator
    built = []

    def leaky_superoperator(model):
        sup = real_build(model)
        built.append(sup)
        return dataclasses.replace(sup, matrix=sup.matrix + 1e-8 * _parity_odd_coupling(model.n))

    monkeypatch.setattr(liouv.oracle, "build_superoperator", leaky_superoperator)
    assert main(["verify", "--random", "--n", "2", "--seed", "11"]) == 3
    out = capsys.readouterr().out
    assert len(built) == 1
    leak = float(re.search(r"parity leak (\S+)", out).group(1))
    assert 1e-9 < leak < 1e-7
    assert "kernel dim 1 vs stationary_dim 1: ok" in out
    assert float(re.search(r"covariance deviation: (\S+)", out).group(1)) < 1e-7
    assert float(re.search(r"spectrum multiset deviation: (\S+)", out).group(1)) < 1e-7
    assert out.splitlines()[-1] == "FAIL"


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


@pytest.mark.xfail(strict=True, reason=(
    "the oracle's dense eigvals spreads the many-body 3-block by (eps ||S||)^(1/3), "
    "about 4e-5, past the absolute spectrum limit; analyze is right"))
def test_verify_linked_model_with_a_many_body_3_block(tmp_path, capsys):
    # n = 3: two critical 2-blocks (a many-body 3-block) and one imaginary pair
    path = tmp_path / "linked.json"
    path.write_text(json.dumps(model_to_dict(critical_plus_decoupled(2, 1, 0.7, 1))))
    assert main(["verify", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


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
    assert "-0.0" in json.dumps(report["input"])
    assert json.dumps(report["X"]) == json.dumps(rmat(result.X))
    for (section, key), ref in expected.items():
        assert json.dumps(report[section][key]) == json.dumps(ref), key


def assert_dumps_like_json(report):
    assert dumps_report(report) == json.dumps(report, indent=2)


@pytest.mark.parametrize("name", ["single_qubit.json", "ising_pair.json", "ising_chain_3.json"])
@pytest.mark.parametrize("full", [False, True])
def test_analyze_json_is_json_dumps_indent_2(capsys, name, full):
    argv = ["analyze", model_path(name), "--format", "json"] + ["--full-spectrum"] * full
    assert main(argv) == 0
    model, tolerances = load_model(model_path(name))
    report = build_report(analyze(model, tolerances), full_spectrum=full)
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


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


@pytest.mark.parametrize("bad", [{"a": np.int64(1)}, [np.bool_(True)], {(1, 2): 0}, [{1, 2}]])
def test_dumps_report_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2)
    with pytest.raises(TypeError):
        dumps_report(bad)
