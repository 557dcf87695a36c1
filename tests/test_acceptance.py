"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and enforcing the stated tolerance and time budget."""

import math
import time
from importlib.resources import files

import numpy as np

from liouv import oracle
from liouv.combinatorics import (
    jordan_blocks_of_nilpotent,
    nilpotent_blocks,
    restricted_binomial_row,
    tensor_sum_blocks,
    tensor_sum_matrix,
    verify_conjecture,
)
from liouv.io import load_model
from liouv.lyapunov import solve_lyapunov
from liouv.model import build_bath_matrices, build_structure_matrix, build_X, skew_unit
from liouv.normal_modes import build_V, build_W
from liouv.randmodel import random_model
from liouv.rapidity import jordan_decompose, stability_check
from liouv.spectra import classify_ness, enumerate_spectrum, ness_covariance

from conftest import dense_generator

MODELS = files("liouv") / "models"


def bundled(name):
    model, _ = load_model(str(MODELS / name))
    return model


def stage(model):
    bath = build_bath_matrices(model)
    X = build_X(model, bath)
    jf = jordan_decompose(X)
    return bath, X, jf


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.budget, f"{label}: {elapsed:.2f}s over budget {self.budget}s"
        print(f"ACCEPTANCE {label} PASS ({elapsed:.2f}s)")


def test_criterion_1_ising_pair_regression():
    sw = Stopwatch(1.0)
    g1, g2, j = 0.3, 0.5, 0.7
    gp, gm = g2 + g1, g2 - g1
    model = bundled("ising_pair.json")
    bath, X, jf = stage(model)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    Z_closed = (2 * gm / (2 * gp**2 + j**2)) * np.array(
        [[0, gp, j, 0], [-gp, 0, 0, 0], [-j, 0, 0, 0], [0, 0, 0, 0]]
    )
    assert np.abs(ds.Z - Z_closed).max() <= 1e-10
    root = np.sqrt(complex((gp / 2) ** 2 - j**2))
    expected = sorted(
        [0, gp, gp / 2 + root, gp / 2 - root], key=lambda z: (z.real, z.imag)
    )
    actual = [b.rapidity for b in jf.blocks]
    assert max(abs(a - e) for a, e in zip(actual, expected)) <= 1e-10
    sw.done("1 ising-pair-regression")


def test_criterion_2_single_qubit_defectivity():
    sw = Stopwatch(1.0)
    model = bundled("single_qubit.json")  # Gamma=1, theta=pi/3, h=0.5
    _, _, jf = stage(model)
    assert len(jf.blocks) == 1
    assert jf.blocks[0].size == 2
    assert abs(jf.blocks[0].rapidity - 2.0) < 1e-7

    from liouv.model import validate_model

    h = 0.5 + 0.1
    off = validate_model(
        1, [[0.0, h], [-h, 0.0]], [np.array([1.0, np.exp(1j * np.pi / 3)])]
    )
    _, _, jf_off = stage(off)
    assert sorted(b.size for b in jf_off.blocks) == [1, 1]
    sw.done("2 single-qubit-defectivity")


def _spectrum_deviation(model):
    bath, X, jf = stage(model)
    spec = enumerate_spectrum(jf)
    sup = oracle.build_superoperator(model)
    return oracle.match_multisets(
        oracle.eigenvalue_multiset_from_enumeration(spec.entries),
        np.linalg.eigvals(dense_generator(sup)),
    ).deviation


def _oracle_ness(model):
    sm = build_structure_matrix(model, build_bath_matrices(model))
    return oracle.oracle_ness(oracle.verify_quadratic_form(oracle.build_superoperator(model), sm))


def test_criterion_3_oracle_spectrum_equivalence():
    sw = Stopwatch(120.0)
    worst = 0.0
    for name in ("single_qubit.json", "ising_pair.json"):
        worst = max(worst, _spectrum_deviation(bundled(name)))
    for seed in range(20):
        n = 2 + seed % 2
        worst = max(worst, _spectrum_deviation(random_model(n, seed=seed)))
    assert worst < 1e-7, f"max spectrum deviation {worst:.3e}"
    sw.done(f"3 oracle-spectrum-equivalence (max dev {worst:.2e})")


def test_criterion_4_quadratic_form_identity():
    sw = Stopwatch(120.0)
    worst = 0.0
    models = [bundled(n) for n in ("single_qubit.json", "ising_pair.json", "ising_chain_3.json")]
    models += [random_model(1 + s % 3, seed=100 + s) for s in range(20)]
    for model in models:
        sm = build_structure_matrix(model, build_bath_matrices(model))
        rep = oracle.verify_quadratic_form(oracle.build_superoperator(model), sm)
        worst = max(worst, rep.residual)
    assert worst < 1e-9, f"max quadratic-form residual {worst:.3e}"
    sw.done(f"4 structural-identity (max residual {worst:.2e})")


def test_criterion_5_ness_covariance():
    sw = Stopwatch(120.0)
    worst = 0.0
    checked = 0
    for seed in range(30):
        n = 1 + seed % 3
        model = random_model(n, seed=200 + seed)
        bath, X, jf = stage(model)
        stability = stability_check(jf)
        if not stability.all_strictly_stable:
            continue
        ds = solve_lyapunov(X, bath.M_i, jf, stability)
        on = _oracle_ness(model)
        assert on.kernel_dim == 1
        dev = np.abs(on.covariance - ness_covariance(ds.Z)).max()
        worst = max(worst, dev)
        checked += 1
    assert checked >= 20, "not enough strictly stable samples"
    assert worst < 1e-7, f"max covariance deviation {worst:.3e}"
    sw.done(f"5 ness-covariance ({checked} models, max dev {worst:.2e})")


def test_criterion_6_degeneracy_count():
    sw = Stopwatch(120.0)
    pair = bundled("ising_pair.json")
    bath, X, jf = stage(pair)
    ness = classify_ness(jf, stability_check(jf))
    on = _oracle_ness(pair)
    assert ness.stationary_dim == 2
    assert on.kernel_dim == 2

    chain = bundled("ising_chain_3.json")
    bath3, X3, jf3 = stage(chain)
    report = stability_check(jf3)
    ness3 = classify_ness(jf3, report)
    on3 = _oracle_ness(chain)
    assert ness3.stationary_dim > 2
    assert on3.kernel_dim == ness3.stationary_dim
    # the added spin contributes a fresh imaginary pair
    assert len(report.imaginary) == 2
    sw.done(
        f"6 degeneracy-count (pair 2 = 2, chain {ness3.stationary_dim} = {on3.kernel_dim})"
    )


def test_criterion_7_combinatorics_suite():
    sw = Stopwatch(300.0)
    for l in range(0, 21):
        for m in range(l + 1):
            row = restricted_binomial_row(l, m)
            assert sum(row) == math.comb(l, m)
            assert row == row[::-1]
    for k in range(1, 7):
        for l in range(1, 7):
            assert tensor_sum_blocks(k, l) == jordan_blocks_of_nilpotent(
                tensor_sum_matrix(k, l)
            )
    for l in range(1, 11):
        for m in range(l + 1):
            rep = nilpotent_blocks(l, m)
            assert rep.staircase.largest == (l - m) * m + 1
            assert rep.agree, (l, m)
        assert verify_conjecture(l).all_pass, l
    sw.done("7 combinatorics-suite")


def test_criterion_8_property_suites():
    sw = Stopwatch(300.0)
    worst = {"vvt": 0.0, "wwt": 0.0, "spec": 0.0, "lyap": 0.0}
    for seed in range(200):
        n = 1 + seed % 4
        model = random_model(n, seed=300 + seed)
        bath = build_bath_matrices(model)
        X = build_X(model, bath)
        sm = build_structure_matrix(model, bath)
        jf = jordan_decompose(X)
        report = stability_check(jf)

        assert report.min_re >= -1e-10
        for cls in report.classes:
            if abs(cls.rapidity.real) <= 1e-10:
                assert all(s == 1 for s in cls.block_sizes)

        ds = solve_lyapunov(X, bath.M_i, jf, report)
        worst["lyap"] = max(worst["lyap"], ds.residual)
        assert ds.residual <= 1e-8 * max(
            1.0, np.abs(X).max() * max(np.abs(ds.Z).max(), 1.0) + np.abs(bath.M_i).max()
        )

        nmb = build_V(jf, ds.Z)
        J = skew_unit(n)
        worst["vvt"] = max(worst["vvt"], np.abs(nmb.V @ nmb.V.T - J).max())
        W = build_W(ds.Z)
        worst["wwt"] = max(worst["wwt"], np.abs(W @ W.T - np.eye(4 * n)).max())

        eig_X = np.linalg.eigvals(X)
        expected = np.concatenate([eig_X, -eig_X])
        dev = oracle.match_multisets(expected, np.linalg.eigvals(sm.A)).deviation
        d = 2 * n
        A0drive = sm.A.copy()
        A0drive[:d, :d] = 2 * model.K
        A0drive[d:, d:] = 2 * model.K
        A0drive[:d, d:] = 2j * bath.M_r
        A0drive[d:, :d] = -2j * bath.M_r
        dev = max(dev, oracle.match_multisets(np.linalg.eigvals(A0drive), expected).deviation)
        worst["spec"] = max(worst["spec"], dev)

    assert worst["vvt"] <= 1e-8
    assert worst["wwt"] <= 1e-8
    assert worst["spec"] <= 1e-8
    sw.done(
        "8 property-suites (|VVt-J| {vvt:.1e}, |WWt-1| {wwt:.1e}, "
        "A-spectrum {spec:.1e}, lyapunov {lyap:.1e})".format(**worst)
    )
