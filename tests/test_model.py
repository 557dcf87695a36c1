import numpy as np
import pytest

from liouv.errors import DimensionMismatch, NotAntisymmetric
from liouv.model import (
    build_bath_matrices,
    build_structure_matrix,
    skew_unit,
    tilde_unitary,
    validate_model,
)
from liouv.randmodel import random_model

from conftest import (
    GAMMA_M,
    GAMMA_P,
    J_COUPLING,
    ising_pair_display_model,
    ising_pair_model,
    pipeline_stage,
    single_qubit_model,
)


def test_validate_accepts_qubit_fixture():
    gamma, theta, h = 1.0, np.pi / 3, 0.25
    m = validate_model(
        1,
        [[0.0, h], [-h, 0.0]],
        [np.sqrt(gamma) * np.array([1.0, np.exp(1j * theta)])],
    )
    assert m.n == 1
    assert np.array_equal(m.K, [[0.0, h], [-h, 0.0]])


def test_validate_accepts_closed_trivial_model():
    m = validate_model(1, np.zeros((2, 2)), [])
    assert m.lindblad_vectors == ()


def test_validate_rejects_symmetric_K():
    with pytest.raises(NotAntisymmetric):
        validate_model(1, [[1.0, 0.0], [0.0, 1.0]], [])


def test_validate_rejects_wrong_vector_length():
    with pytest.raises(DimensionMismatch):
        validate_model(1, np.zeros((2, 2)), [np.array([1.0, 0.0, 0.0])])


def test_validate_rejects_wrong_K_shape():
    with pytest.raises(DimensionMismatch):
        validate_model(2, np.zeros((2, 2)), [])


def test_validate_antisymmetrizes_within_tolerance():
    K = np.array([[0.0, 1.0], [-1.0 + 1e-13, 0.0]])
    m = validate_model(1, K, [])
    assert np.abs(m.K + m.K.T).max() == 0.0


def test_bath_qubit_driving_matrix():
    gamma, theta = 1.0, np.pi / 3
    m = single_qubit_model(gamma, theta)
    bath = build_bath_matrices(m)
    expected = np.array([[0.0, -gamma * np.sin(theta)], [gamma * np.sin(theta), 0.0]])
    np.testing.assert_allclose(bath.M_i, expected, atol=1e-15)
    np.testing.assert_allclose(bath.M, bath.M_r + 1j * bath.M_i, atol=1e-15)


def test_bath_empty_is_zero():
    m = validate_model(1, np.zeros((2, 2)), [])
    bath = build_bath_matrices(m)
    assert np.abs(bath.M).max() == 0.0
    assert np.abs(bath.M_i).max() == 0.0


def test_bath_ising_pair_display_driving():
    # plain sigma+/sigma- fermionization reproduces the (Gamma_-/4) pattern
    m = ising_pair_display_model()
    bath = build_bath_matrices(m)
    pattern = np.zeros((4, 4))
    pattern[0, 1], pattern[1, 0] = 1.0, -1.0
    np.testing.assert_allclose(bath.M_i, GAMMA_M / 4 * pattern, atol=1e-14)


def test_X_qubit_golden():
    gamma, theta, h = 1.0, np.pi / 3, 0.2
    m = single_qubit_model(gamma, theta, h)
    bath, X, _ = pipeline_stage(m)
    c = gamma * np.cos(theta)
    np.testing.assert_allclose(
        X, 2 * np.array([[gamma, c + h], [c - h, gamma]]), atol=1e-14
    )
    evals = np.linalg.eigvalsh(X + X.T)
    assert evals.min() >= -1e-12


def test_X_closed_system_is_antisymmetric():
    K = np.array([[0.0, 0.7], [-0.7, 0.0]])
    m = validate_model(1, K, [])
    bath, X, _ = pipeline_stage(m)
    np.testing.assert_allclose(X, 2 * K, atol=1e-15)


def test_X_ising_pair_golden():
    m = ising_pair_model()
    _, X, _ = pipeline_stage(m)
    gp, j = GAMMA_P, J_COUPLING
    expected = np.array(
        [[gp, 0, 0, 0], [0, gp, -j, 0], [0, j, 0, 0], [0, 0, 0, 0]]
    )
    np.testing.assert_allclose(X, expected, atol=1e-14)


def test_structure_zero_model():
    m = validate_model(1, np.zeros((2, 2)), [])
    bath = build_bath_matrices(m)
    sm = build_structure_matrix(m, bath)
    assert np.abs(sm.A).max() == 0.0
    assert sm.A0 == 0.0


def test_structure_self_conjugation_qubit():
    m = single_qubit_model()
    bath, X, sm = pipeline_stage(m)
    J = skew_unit(1)
    assert np.abs(sm.A.conj() - J @ sm.A @ J).max() < 1e-12
    assert np.abs(sm.A + sm.A.T).max() < 1e-12


def test_structure_tilde_transform_random():
    m = random_model(3, seed=101)
    bath, X, sm = pipeline_stage(m)
    U = tilde_unitary(3)
    At = U @ sm.A @ U.conj().T
    d = 6
    assert np.abs(At[:d, :d] + X.T).max() < 1e-12
    assert np.abs(At[:d, d:] - 4j * bath.M_i).max() < 1e-12
    assert np.abs(At[d:, :d]).max() < 1e-12
    assert np.abs(At[d:, d:] - X).max() < 1e-12


def test_structure_A0_is_trace():
    m = random_model(2, seed=5)
    bath, X, sm = pipeline_stage(m)
    assert sm.A0 == pytest.approx(2 * np.trace(bath.M_r), abs=1e-14)
    assert sm.A0 == pytest.approx(np.trace(X), abs=1e-12)
    assert sm.A0 >= 0


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2), (4, 3)])
def test_A_spectrum_factorizes_and_ignores_driving(n, seed):
    from liouv.oracle import match_multisets

    m = random_model(n, seed=seed)
    bath, X, sm = pipeline_stage(m)
    sx = np.linalg.eigvals(X)
    expected = np.concatenate([sx, -sx])
    actual = np.linalg.eigvals(sm.A)
    assert match_multisets(expected, actual).deviation < 1e-8

    # dropping the driving leaves the spectrum of A unchanged
    A_nodrive = sm.A.copy()
    d = 2 * n
    A_nodrive[:d, :d] = 2 * m.K
    A_nodrive[d:, d:] = 2 * m.K
    A_nodrive[:d, d:] = 2j * bath.M_r
    A_nodrive[d:, :d] = -2j * bath.M_r
    assert match_multisets(np.linalg.eigvals(A_nodrive), actual).deviation < 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_bath_psd_random(seed):
    m = random_model(3, seed=seed, n_vectors=2)
    bath = build_bath_matrices(m)
    assert np.linalg.eigvalsh(bath.M).min() >= -1e-12


def test_model_matrices_are_immutable():
    m = single_qubit_model()
    with pytest.raises(ValueError):
        m.K[0, 1] = 3.0
