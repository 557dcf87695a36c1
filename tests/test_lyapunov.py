import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

import liouv.lyapunov
from liouv.errors import (
    InconsistentSingularSystem,
    InternalInvariantViolated,
    NontrivialImaginaryBlock,
    StabilityViolated,
)
from liouv.lyapunov import (
    _dense_solution,
    _jordan_solution,
    _sign_iteration,
    lyapunov_residual,
    solve_lyapunov,
)
from liouv.model import build_bath_matrices, build_X, validate_model
from liouv.randmodel import random_axis_model, random_model
from liouv.rapidity import RapidityClass, StabilityReport, jordan_decompose, stability_check
from liouv.tolerances import DEFAULTS, OMEGA_MAX

from conftest import (
    GAMMA_M,
    GAMMA_P,
    J_COUPLING,
    critical_plus_decoupled,
    ising_pair_model,
    single_qubit_model,
)


def closed_form_Z(gp=GAMMA_P, gm=GAMMA_M, j=J_COUPLING):
    return (2 * gm / (2 * gp**2 + j**2)) * np.array(
        [[0, gp, j, 0], [-gp, 0, 0, 0], [-j, 0, 0, 0], [0, 0, 0, 0]]
    )


def stage(model):
    bath = build_bath_matrices(model)
    X = build_X(model, bath)
    jf = jordan_decompose(X)
    return bath, X, jf


def test_ising_pair_matches_closed_form():
    bath, X, jf = stage(ising_pair_model())
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    np.testing.assert_allclose(ds.Z, closed_form_Z(), atol=1e-12)
    assert ds.unique
    assert ds.free_parameter_count == 0
    assert ds.method == "jordan"
    assert all(v <= 1e-12 for _, v in ds.omega_checks)


def test_closed_form_residual_tiny():
    bath, X, _ = stage(ising_pair_model())
    assert lyapunov_residual(X, closed_form_Z(), bath.M_i) < 1e-12


def test_zero_driving_gives_zero_Z():
    m = validate_model(1, np.zeros((2, 2)), [np.array([1.0, 0.0])])
    bath, X, jf = stage(m)
    assert np.abs(bath.M_i).max() == 0.0
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    assert np.abs(ds.Z).max() == 0.0
    assert ds.residual == 0.0


def test_residual_of_zero_candidate():
    bath, X, _ = stage(ising_pair_model())
    assert lyapunov_residual(X, np.zeros((4, 4)), bath.M_i) == np.abs(bath.M_i).max()


def test_residual_linear_in_perturbation():
    bath, X, jf = stage(ising_pair_model())
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    rng = np.random.default_rng(0)
    E = rng.standard_normal((4, 4))
    E = (E - E.T) / 2
    r1 = lyapunov_residual(X, ds.Z + 1e-6 * E, bath.M_i)
    r2 = lyapunov_residual(X, ds.Z + 2e-6 * E, bath.M_i)
    assert r2 == pytest.approx(2 * r1, rel=1e-4)


@pytest.mark.parametrize("seed", range(10))
def test_integral_representation_oracle(seed):
    """Independent oracle: Z = int_0^inf e^{-X^T t} M_i e^{-X t} dt by
    adaptive quadrature, valid for strictly stable X."""
    m = random_model(3, seed=seed)
    bath, X, jf = stage(m)
    report = stability_check(jf)
    assert report.all_strictly_stable  # these seeds are strictly stable
    min_re = min(c.rapidity.real for c in report.classes)
    horizon = 80.0 / min_re

    def integrand(t):
        return expm(-X.T * t) @ bath.M_i @ expm(-X * t)

    Z_ref, _ = quad_vec(integrand, 0.0, horizon, epsabs=1e-10, epsrel=1e-10)
    ds = solve_lyapunov(X, bath.M_i, jf, report)
    assert np.abs(ds.Z - Z_ref).max() < 1e-6


def both_paths(X, M_i, jf):
    """The two private solvers on one strictly stable model."""
    return _dense_solution(X, M_i), _jordan_solution(X, M_i, jf, stability_check(jf))


@pytest.mark.parametrize("seed", range(10))
def test_dense_and_jordan_paths_agree(seed):
    m = random_model(3, seed=seed)
    bath, X, jf = stage(m)
    dense, jordan = both_paths(X, bath.M_i, jf)
    assert dense.method == "dense" and jordan.method == "jordan"
    assert np.abs(dense.Z - jordan.Z).max() < 1e-8


@pytest.mark.parametrize("seed", range(100))
def test_engineered_axis_models_omega_vanishes(seed):
    decoupled = 1 + seed % 3  # zero mode, imaginary pair, or both
    m = random_axis_model(2, seed=seed, decoupled=decoupled)
    bath, X, jf = stage(m)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    assert ds.method == "jordan"
    assert ds.omega_checks, "axis model must hit singular rows"
    f_scale = max(np.abs(jf.P.T @ bath.M_i @ jf.P).max(), 1e-300)
    for _, val in ds.omega_checks:
        assert val <= 1e-9 * max(1.0, f_scale)
    assert ds.residual <= 1e-8 * (np.abs(X).max() * max(np.abs(ds.Z).max(), 1.0) + 1.0)
    if ds.zero_diagnostics is not None:
        assert np.abs(ds.zero_diagnostics.K).max() <= 1e-9 * max(1.0, f_scale)
    for diag in ds.imaginary_diagnostics:
        assert np.abs(diag.K).max() <= 1e-9 * max(1.0, f_scale)


def test_free_parameter_count_and_uniqueness():
    # one decoupled coordinate: a single zero rapidity, still unique
    m = random_axis_model(2, seed=3, decoupled=1)
    bath, X, jf = stage(m)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    assert ds.unique and ds.free_parameter_count == 0

    # two decoupled coordinates: one imaginary pair, one free coefficient
    m = random_axis_model(2, seed=3, decoupled=2)
    bath, X, jf = stage(m)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    assert not ds.unique and ds.free_parameter_count == 1

    # three: zero mode + imaginary pair
    m = random_axis_model(3, seed=3, decoupled=3)
    bath, X, jf = stage(m)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    assert not ds.unique and ds.free_parameter_count == 1


def test_antisymmetry_enforced_and_preprojection_small():
    for seed in range(10):
        m = random_model(3, seed=seed)
        bath, X, jf = stage(m)
        ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
        assert np.abs(ds.Z + ds.Z.T).max() == 0.0
        assert ds.asymmetry_preprojection <= 1e-8 * max(np.abs(ds.Z).max(), 1e-30)


def test_inconsistent_singular_system_raises():
    # two decoupled zero modes with a hand-made driving coupling them cannot
    # come from a PSD bath; the omega check must catch it
    X = np.diag([1.0, 1.0, 0.0, 0.0])
    M_i = np.zeros((4, 4))
    M_i[2, 3], M_i[3, 2] = 1.0, -1.0
    jf = jordan_decompose(X)
    with pytest.raises(InconsistentSingularSystem):
        solve_lyapunov(X, M_i, jf, stability_check(jf))


def test_nontrivial_axis_block_raises():
    # stability_check refuses this X; a report that lets the zero 2-block
    # through must still not reach the substitution
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    jf = jordan_decompose(X)
    with pytest.raises(StabilityViolated):
        stability_check(jf)
    report = StabilityReport(0.0, (RapidityClass(1, 0j, "zero", (2,)),), DEFAULTS.tol_stability)
    with pytest.raises(NontrivialImaginaryBlock):
        solve_lyapunov(X, np.zeros((2, 2)), jf, report)


def relative_residual(X, Z, M_i):
    R = X.T @ Z + Z @ X - M_i
    scale = 2 * np.linalg.norm(X) * np.linalg.norm(Z) + np.linalg.norm(M_i)
    return np.linalg.norm(R) / scale


@pytest.mark.parametrize("seed", range(3))
def test_dense_sign_iteration_at_n32(seed):
    # d = 64, where det(X) is already ~1e98
    m = random_model(32, seed=seed)
    bath, X, jf = stage(m)
    dense, jordan = both_paths(X, bath.M_i, jf)
    assert np.abs(dense.Z - jordan.Z).max() <= 1e-10 * np.abs(jordan.Z).max()
    assert relative_residual(X, dense.Z, bath.M_i) <= 1e-14
    # (sX)^T Z + Z (sX) = s M_i has the same Z; det(sX) overflows to inf
    s = 1e5
    assert np.linalg.slogdet(s * X)[1] > np.log(np.finfo(float).max)
    scaled = _dense_solution(s * X, s * bath.M_i)
    assert np.abs(scaled.Z - dense.Z).max() <= 1e-12 * np.abs(dense.Z).max()


@pytest.mark.parametrize("dh", [0.0, 1e-12])
def test_dense_defective_qubit_closed_form(dh):
    # at h* = G cos(theta) X is a single 2x2 Jordan block; for 2x2 matrices
    # X^T E + E X = tr(X) E with E = [[0, 1], [-1, 0]], so Z = M_i / tr(X)
    m = single_qubit_model(h=np.cos(np.pi / 3) + dh)
    bath, X, jf = stage(m)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    assert ds.method == "dense"
    np.testing.assert_allclose(ds.Z, bath.M_i / np.trace(X), rtol=0, atol=1e-15)
    assert relative_residual(X, ds.Z, bath.M_i) <= 1e-15


def test_dense_path_refuses_unconverged_iteration(monkeypatch):
    bath, X, jf = stage(random_model(3, seed=0))
    monkeypatch.setattr(liouv.lyapunov, "SIGN_MAX_STEPS", 2)
    with pytest.raises(InternalInvariantViolated, match="did not converge"):
        solve_lyapunov(X, bath.M_i, jf, stability_check(jf))


def test_sign_iteration_refuses_singular_iterate():
    with pytest.raises(InternalInvariantViolated, match="singular iterate"):
        _sign_iteration(np.zeros((2, 2)), np.zeros((2, 2)))


def test_dense_path_does_not_load_scipy_linalg():
    code = (
        "import io, sys\n"
        "from liouv.analysis import analyze, build_report, dumps_report, write_report\n"
        "from liouv.io import model_to_dict, parse_model_dict\n"
        "from liouv.randmodel import random_model\n"
        "model, tolerances = parse_model_dict(model_to_dict(random_model(3, 0)))\n"
        "result = analyze(model, tolerances)\n"
        "assert result.driving.method == 'dense'\n"
        "dumps_report(build_report(result))\n"
        "write_report(build_report(result, full_spectrum=True), io.StringIO())\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _jordan_path_reference(M_i, jf):
    """The per-position forward substitution the level sweeps replaced, kept
    verbatim as the reference: (Z, omega_checks, free pair count)."""
    tol = DEFAULTS.tol_stability
    d = jf.dim
    scale = max(jf.x_norm, np.finfo(float).tiny)
    beta = np.zeros(d, dtype=complex)
    link = np.zeros(d, dtype=bool)
    for b in jf.blocks:
        for i in range(b.size):
            beta[b.chain_start + i] = b.rapidity
            if i > 0:
                link[b.chain_start + i] = True
    F = jf.P.T @ M_i @ jf.P
    f_scale = max(np.abs(F).max(), np.finfo(float).tiny)
    G = np.zeros((d, d), dtype=complex)
    omega_checks = []
    free_pairs = set()
    for i in range(d):
        for j in range(d):
            s = F[i, j]
            if link[i]:
                s -= G[i - 1, j]
            if link[j]:
                s -= G[i, j - 1]
            denom = beta[i] + beta[j]
            if abs(denom) > tol * scale:
                G[i, j] = s / denom
            else:
                omega_checks.append((i * d + j, float(abs(s))))
                assert abs(s) <= OMEGA_MAX * f_scale
                G[i, j] = 0.0
                if i != j:
                    free_pairs.add((min(i, j), max(i, j)))
    Z_raw = (jf.P_inv.T @ G @ jf.P_inv).real
    return (Z_raw - Z_raw.T) / 2, omega_checks, len(free_pairs)


@pytest.mark.parametrize(
    "n, seed, decoupled", [(2, 0, 1), (3, 1, 2), (4, 2, 3), (6, 3, 4), (12, 4, 6), (48, 101, 16)]
)
def test_trivial_block_jordan_path_matches_loop(n, seed, decoupled):
    bath, X, jf = stage(random_axis_model(n, seed=seed, decoupled=decoupled))
    assert all(b.size == 1 for b in jf.blocks)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    assert ds.method == "jordan"
    Z, omega_checks, free = _jordan_path_reference(bath.M_i, jf)
    assert np.array_equal(ds.Z, Z)
    assert list(ds.omega_checks) == omega_checks
    assert ds.free_parameter_count == free


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("pairs", [1, 2])
@pytest.mark.parametrize("b", [0.7, 0.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linked_jordan_path_matches_loop(copies, pairs, b, seed):
    # Jordan 2-blocks at a stable rapidity next to axis modes: the singular
    # pairs route the solve to the Jordan path, whose sweeps walk the chains
    bath, X, jf = stage(critical_plus_decoupled(copies, pairs, b, seed))
    assert sorted(blk.size for blk in jf.blocks) == [1] * 2 * pairs + [2] * copies
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    assert ds.method == "jordan"
    Z, omega_checks, free = _jordan_path_reference(bath.M_i, jf)
    assert np.array_equal(ds.Z, Z)
    assert list(ds.omega_checks) == omega_checks
    assert ds.free_parameter_count == free
