import numpy as np
import pytest

from liouv.errors import NormalizationFailure
from liouv.model import (
    build_bath_matrices,
    build_structure_matrix,
    build_X,
    skew_unit,
    tilde_unitary,
    validate_model,
)
from liouv.lyapunov import solve_lyapunov
from liouv.normal_modes import build_V, build_W, normal_form_coefficients
from liouv.randmodel import random_model
from liouv.rapidity import jordan_decompose, stability_check

from conftest import ising_pair_model, single_qubit_model


def build_V0(jf):
    """Zero-driving eigenvector matrix V_0 = (P^T (+) P^-1) U."""
    d = jf.dim
    U = tilde_unitary(d // 2)
    V0 = np.zeros((2 * d, 2 * d), dtype=complex)
    V0[:d, :] = np.hstack([jf.P.T, np.zeros((d, d))]) @ U
    V0[d:, :] = np.hstack([np.zeros((d, d)), jf.P_inv]) @ U
    return V0


def reconstruct_structure_matrix(nmb, jf):
    """V^T [[0, Delta], [-Delta^T, 0]] V; equals A when P, Z are consistent."""
    d = jf.dim
    delta = jf.delta()
    core = np.zeros((2 * d, 2 * d), dtype=complex)
    core[:d, d:] = delta
    core[d:, :d] = -delta.T
    return nmb.V.T @ core @ nmb.V


def full_stage(model):
    bath = build_bath_matrices(model)
    X = build_X(model, bath)
    sm = build_structure_matrix(model, bath)
    jf = jordan_decompose(X)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    return bath, X, sm, jf, ds


def test_W_trivial():
    W = build_W(np.zeros((4, 4)))
    np.testing.assert_array_equal(W, np.eye(8))


def test_W_orthogonal_for_ising_pair():
    *_, ds = full_stage(ising_pair_model())
    W = build_W(ds.Z)
    assert np.abs(W @ W.T - np.eye(8)).max() < 1e-12


def test_W_inverse_and_tilde_form():
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((6, 6))
    Z = (Z - Z.T) / 2
    W = build_W(Z)
    Winv = build_W(-Z)
    assert np.abs(W @ Winv - np.eye(12)).max() < 1e-12
    # in the tilde representation the inverse is 1 + 4i sigma+ (x) Z
    U = tilde_unitary(3)
    Wtilde_inv = U @ Winv @ U.conj().T
    sigma_plus = np.array([[0, 1], [0, 0]])
    np.testing.assert_allclose(
        Wtilde_inv, np.eye(12) + 4j * np.kron(sigma_plus, Z), atol=1e-12
    )


def test_V_reduces_to_U_for_trivial_data():
    m = validate_model(1, np.zeros((2, 2)), [np.array([1.0, 0.0])])
    bath, X, sm, jf, ds = full_stage(m)
    assert np.abs(ds.Z).max() == 0.0
    nmb = build_V(jf, ds.Z)
    assert nmb.normalization_residual < 1e-12
    # X = 2 diag(1, 0) has P = 1 (up to column order), so V is U row-permuted
    J = skew_unit(1)
    assert np.abs(nmb.V @ nmb.V.T - J).max() < 1e-12


def test_V_invariants_defective_qubit():
    m = single_qubit_model()
    bath, X, sm, jf, ds = full_stage(m)
    nmb = build_V(jf, ds.Z)
    assert nmb.normalization_residual < 1e-8
    recon = reconstruct_structure_matrix(nmb, jf)
    assert np.abs(recon - sm.A).max() < 1e-8 * max(np.abs(sm.A).max(), 1.0)


def test_V_equals_product_route():
    J = skew_unit(2)
    for seed in (0, 1, 2):
        m = random_model(2, seed=seed)
        bath, X, sm, jf, ds = full_stage(m)
        nmb = build_V(jf, ds.Z)
        V0 = build_V0(jf)
        assert np.abs(V0 @ V0.T - J).max() < 1e-10  # zero-driving normalization
        V_product = V0 @ build_W(ds.Z)
        assert np.abs(nmb.V - V_product).max() < 1e-12


def _engineered_defective_model(seed):
    """Rotate a defective single-qubit block into a larger random model."""
    rng = np.random.default_rng(seed)
    gamma = 1.0 + rng.random()
    theta = rng.random() * np.pi / 2
    m1 = single_qubit_model(gamma, theta)
    K = np.zeros((4, 4))
    K[:2, :2] = m1.K
    K[2:, 2:] = [[0.0, 0.4], [-0.4, 0.0]]
    vecs = [
        np.concatenate([m1.lindblad_vectors[0], np.zeros(2)]),
        np.concatenate([np.zeros(2), rng.standard_normal(2) + 1j * rng.standard_normal(2)]),
    ]
    return validate_model(2, K, vecs)


@pytest.mark.parametrize("seed", range(50))
def test_V_W_invariants_random_models(seed):
    n = 2 + seed % 3
    m = random_model(n, seed=seed) if seed % 5 else _engineered_defective_model(seed)
    bath, X, sm, jf, ds = full_stage(m)
    nmb = build_V(jf, ds.Z)
    scale = max(np.abs(sm.A).max(), 1.0)
    assert nmb.normalization_residual < 1e-8
    assert nmb.orthogonality_residual < 1e-8
    assert np.abs(reconstruct_structure_matrix(nmb, jf) - sm.A).max() < 1e-8 * scale


def test_row_labels_cover_blocks():
    m = single_qubit_model()
    bath, X, sm, jf, ds = full_stage(m)
    nmb = build_V(jf, ds.Z)
    labels = nmb.row_labels
    assert len(labels) == 4
    assert [(lab.j, lab.k, lab.l, lab.primed) for lab in labels] == [
        (1, 1, 1, False),
        (1, 1, 2, False),
        (1, 1, 1, True),
        (1, 1, 2, True),
    ]


def test_normal_form_couplings():
    # all trivial blocks: no nilpotent couplings
    m = ising_pair_model()
    bath, X, sm, jf, ds = full_stage(m)
    nf = normal_form_coefficients(jf)
    assert nf.coupling_count == 0

    # defective qubit: exactly one coupling
    m = single_qubit_model()
    bath, X, sm, jf, ds = full_stage(m)
    nf = normal_form_coefficients(jf)
    assert nf.coupling_count == 1
    assert -2 * nf.blocks[0].rapidity == pytest.approx(-4.0, abs=1e-8)


def test_rapidity_trace_matches_A0():
    for seed in range(5):
        m = random_model(3, seed=seed)
        bath, X, sm, jf, ds = full_stage(m)
        nf = normal_form_coefficients(jf)
        assert abs(nf.rapidity_trace() - sm.A0) < 1e-10 * max(sm.A0, 1.0)


def test_inconsistent_Z_raises_normalization_failure():
    m = ising_pair_model()
    bath, X, sm, jf, ds = full_stage(m)
    bad_Z = np.zeros((4, 4))
    bad_Z[0, 1] = 1.0  # not antisymmetric: breaks V V^T = J
    with pytest.raises(NormalizationFailure):
        build_V(jf, bad_Z)
