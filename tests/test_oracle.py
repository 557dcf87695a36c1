import dataclasses
import math
import re
import subprocess
import sys
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouv import analyze, oracle
from liouv.errors import TooLarge
from liouv.io import load_model
from liouv.lyapunov import solve_lyapunov
from liouv.model import (
    build_bath_matrices,
    build_structure_matrix,
    build_X,
    validate_model,
)
from liouv.normal_modes import build_V
from liouv.randmodel import random_axis_model, random_model
from liouv.rapidity import jordan_decompose, stability_check
from liouv.spectra import classify_ness, enumerate_spectrum, ness_covariance
from liouv.tolerances import (
    ORACLE_TOL_KERNEL,
    ORACLE_TOL_POS,
    VERIFY_QUADRATIC_FORM_MAX,
    VERIFY_SPECTRUM_MAX,
)

from conftest import (
    build_fock_maps,
    critical_plus_decoupled,
    dense_generator,
    dense_quadratic_form,
    fock_basis_transform,
    full_quadratic_form,
    hamiltonian_matrix,
    ising_pair_model,
    kron_majoranas,
    largest_jordan_block_at,
    on_sectors,
    planted_model,
    reference_superoperator,
    single_qubit_model,
    to_fock,
    with_generator,
)


def _structure(model):
    return build_structure_matrix(model, build_bath_matrices(model))


def quadratic_form_report(model):
    return oracle.verify_quadratic_form(oracle.build_superoperator(model), _structure(model))


def full_stage(model):
    bath = build_bath_matrices(model)
    X = build_X(model, bath)
    sm = build_structure_matrix(model, bath)
    jf = jordan_decompose(X)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    return bath, X, sm, jf, ds


@pytest.mark.parametrize("n", [1, 2, 3])
def test_majorana_car_exact(n):
    w = kron_majoranas(n)
    assert len(w) == 2 * n
    eye = np.eye(2**n)
    for j, wj in enumerate(w):
        np.testing.assert_array_equal(wj, wj.conj().T)
        for k, wk in enumerate(w):
            anti = wj @ wk + wk @ wj
            np.testing.assert_allclose(anti, 2 * (j == k) * eye, atol=1e-15)


def test_majorana_size_limit():
    with pytest.raises(TooLarge):
        oracle.fock_operator(np.zeros(4**7), 7)
    with pytest.raises(TooLarge):
        oracle.fock_majoranas(7)


def _dense_majoranas(n):
    """The maps of `oracle.fock_majoranas` as dense 4^n x 4^n matrices: a_p
    flips bit p mod 2n."""
    values = oracle.fock_majoranas(n)
    cols = np.arange(4**n)
    out = []
    for p, vals in enumerate(values):
        a = np.zeros((4**n, 4**n), dtype=complex)
        a[cols ^ (1 << p % (2 * n)), cols] = vals
        out.append(a)
    return out


def test_fock_maps_car_and_adjointness():
    a_maps = _dense_majoranas(2)
    dim = 16
    for ap in a_maps:
        np.testing.assert_array_equal(ap, ap.conj().T)
    for p, ap in enumerate(a_maps):
        for q, aq in enumerate(a_maps):
            anti = ap @ aq + aq @ ap
            np.testing.assert_allclose(anti, (p == q) * np.eye(dim), atol=1e-14)
    maps = build_fock_maps(2)
    for c, cd in zip(maps.c, maps.c_dag):
        np.testing.assert_allclose(cd, c.conj().T, atol=1e-15)


def test_fock_maps_single_mode():
    a_maps = _dense_majoranas(1)
    assert a_maps[0].shape == (4, 4)
    anti = a_maps[0] @ a_maps[2] + a_maps[2] @ a_maps[0]
    np.testing.assert_allclose(anti, np.zeros((4, 4)), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fock_majoranas_match_dense_reference(n):
    maps = build_fock_maps(n)
    for ap, ref in zip(_dense_majoranas(n), maps.a, strict=True):
        np.testing.assert_array_equal(ap, ref)
    np.testing.assert_array_equal(oracle.fock_parity_even(n), np.diag(maps.parity).real > 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_form_matrix_matches_dense_loop(n):
    """The scatter performs the dense loop's floating-point operations in the
    same order, from -A_0 1: each sector block equals the dense loop's,
    rephased to the Hermitian basis (exactly, by +-1 and +-i), bit for bit,
    on random and axis models, with the even-sector and the driving-flipped
    structure matrix; the dense loop has no entry between the sectors."""
    from liouv.model import odd_sector_structure_matrix

    maps = build_fock_maps(n)
    even = oracle.fock_parity_even(n)
    for seed in range(3):
        for m in (random_model(n, seed), random_axis_model(n, seed, 1 + seed % (2 * n - 1))):
            sm = build_structure_matrix(m, build_bath_matrices(m))
            for A in (sm.A, odd_sector_structure_matrix(sm)):
                dense = dense_quadratic_form(A, sm.A0, maps)
                for is_even, block in zip((True, False), on_sectors(dense, n)):
                    np.testing.assert_array_equal(
                        oracle.quadratic_form_matrix(A, sm.A0, n, is_even), block)
                assert not dense[np.ix_(even, ~even)].any()
                assert not dense[np.ix_(~even, even)].any()


def test_fock_basis_transform_unitary():
    T = fock_basis_transform(2)
    np.testing.assert_allclose(T.conj().T @ T, np.eye(16), atol=1e-14)


def _fock_basis_transform_by_products(n):
    """Columns vec(P_alpha), each monomial a product of the dense Majoranas."""
    w = kron_majoranas(n)
    cols = []
    for alpha in oracle._alpha_bits(n).T:
        mat = np.eye(2**n, dtype=complex) * 2 ** (-n / 2)
        for j, bit in enumerate(alpha):
            if bit:
                mat = mat @ w[j]
        cols.append(mat.reshape(-1, order="F"))
    return np.column_stack(cols)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fock_basis_transform_matches_products(n):
    """Every entry is +-2^{-n/2} or +-i 2^{-n/2}, so the batched build equals
    the monomial-by-monomial products exactly."""
    T = fock_basis_transform(n)
    np.testing.assert_array_equal(T, _fock_basis_transform_by_products(n))
    assert set(np.unique(np.abs(T))) == {0.0, 2 ** (-n / 2)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermitian_basis_is_hermitian_and_orthonormal(n):
    Q = fock_basis_transform(n) * oracle.hermitian_phases(n)
    dim = 2**n
    for col in Q.T:
        mat = col.reshape(dim, dim, order="F")
        np.testing.assert_array_equal(mat, mat.conj().T)
    np.testing.assert_allclose(Q.conj().T @ Q, np.eye(4**n), atol=1e-14)


def _realness_models():
    for n in (1, 2, 3, 4):
        yield random_model(n, 60 + n)
        yield random_axis_model(n, 60 + n, 1 + n % (2 * n - 1))
    yield critical_plus_decoupled(1, 1, 0.7, 0)
    yield critical_plus_decoupled(2, 1, 0.7, 1)
    yield critical_plus_decoupled(2, 0, 0.0, 2)
    yield critical_plus_decoupled(3, 0, 0.7, 2)


@pytest.mark.parametrize("model", list(_realness_models()))
def test_hermitian_basis_blocks_are_real(model):
    """A Lindbladian maps Hermitian operators to Hermitian ones, so it is real
    in the basis Q_alpha; the two blocks are the sector blocks of the kron
    reference build, rephased."""
    rep = oracle.verify_quadratic_form(oracle.build_superoperator(model), _structure(model))
    assert rep.imaginary_residual < 1e-13
    assert rep.even.dtype == rep.odd.dtype == np.float64
    ref = reference_superoperator(model)
    scale = max(np.abs(ref.even).max(), np.abs(ref.odd).max(), 1.0)
    np.testing.assert_allclose(rep.even, ref.even, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(rep.odd, ref.odd, rtol=0, atol=1e-13 * scale)


def _reference_build_models():
    """No Lindblad vectors, K = 0, random, axis, planted and linked models."""
    for n in (1, 2, 3, 4):
        yield f"hamiltonian{n}", random_model(n, n, n_vectors=0)
        yield f"dissipative{n}", validate_model(n, np.zeros((2 * n, 2 * n)),
                                                random_model(n, n + 10).lindblad_vectors)
        yield f"random{n}", random_model(n, 90 + n)
        yield f"axis{n}", random_axis_model(n, 90 + n, 1 + n % (2 * n - 1))
    yield "planted_2_2", planted_model((2, 2), 3)
    yield "linked", critical_plus_decoupled(2, 1, 0.7, 1)
    yield "linked_4_block", critical_plus_decoupled(3, 0, 0.7, 2)


REFERENCE_BUILD_MODELS = list(_reference_build_models())


@pytest.mark.parametrize("model", [m for _, m in REFERENCE_BUILD_MODELS],
                         ids=[name for name, _ in REFERENCE_BUILD_MODELS])
def test_superoperator_matches_the_kron_reference(model):
    """The generator's sector blocks are those of T^dag S T of the vec-basis
    kron build, in the Hermitian basis.  The reference itself keeps parity
    and Hermiticity: it has no entry between the sectors (checked by
    `reference_superoperator`) and is real in the basis Q_alpha, the two
    certificates that the direct build meets by construction."""
    sup = oracle.build_superoperator(model)
    ref = reference_superoperator(model)
    scale = max(np.abs(ref.even).max(), np.abs(ref.odd).max(), 1.0)
    for block, ref_block in ((sup.even, ref.even), (sup.odd, ref.odd)):
        np.testing.assert_allclose(block, ref_block, rtol=0, atol=1e-13 * scale)
        assert np.abs(ref_block.imag).max() < 1e-15 * scale


def test_zero_model_superoperator():
    m = validate_model(1, np.zeros((2, 2)), [])
    sup = oracle.build_superoperator(m)
    assert not sup.even.any() and not sup.odd.any()


def test_superoperator_trace_preservation():
    m = random_model(2, seed=0)
    sup = oracle.build_superoperator(m)
    assert sup.trace_preservation_residual < 1e-14


def test_qubit_superoperator_eigenvalues():
    m = single_qubit_model(h=np.cos(np.pi / 3) + 0.4)
    bath, X, sm, jf, ds = full_stage(m)
    sup = oracle.build_superoperator(m)
    betas = [b.rapidity for b in jf.blocks]
    expected = np.array([0, -2 * betas[0], -2 * betas[1], -2 * (betas[0] + betas[1])])
    actual = np.linalg.eigvals(dense_generator(sup))
    assert oracle.match_multisets(expected, actual).deviation < 1e-8


def test_ising_pair_kernel_dimension():
    m = ising_pair_model()
    sup = oracle.build_superoperator(m)
    assert sup.even.shape == sup.odd.shape == (8, 8)
    s = np.linalg.svd(dense_generator(sup), compute_uv=False)
    assert int(np.sum(s < 1e-9)) == 2


def test_quadratic_form_zero_model():
    m = validate_model(1, np.zeros((2, 2)), [])
    rep = quadratic_form_report(m)
    assert rep.residual == 0.0


def test_quadratic_form_fixtures():
    for m in (single_qubit_model(), ising_pair_model()):
        rep = quadratic_form_report(m)
        assert rep.residual < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_quadratic_form_random_models(seed):
    n = 1 + seed % 3
    m = random_model(n, seed=seed, n_vectors=max(1, n - 1))
    rep = quadratic_form_report(m)
    assert rep.residual < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sector_eigenvalues_match_full_eigvals(n):
    for m in (random_model(n, 40 + n), random_axis_model(n, 40 + n, 1)):
        sup = oracle.build_superoperator(m)
        rep = oracle.verify_quadratic_form(sup, build_structure_matrix(m, build_bath_matrices(m)))
        full = np.linalg.eigvals(dense_generator(sup))
        assert oracle.match_multisets(rep.eigenvalues(), full).deviation < 1e-10


@pytest.mark.parametrize("model", list(_realness_models()))
def test_degree_blocks_hold_the_parity_block_spectrum(model):
    """The parity blocks are triangular in the Majorana degree, so their
    eigenvalues are those of the 2n+1 diagonal blocks of size C(2n, k).  A
    many-body Jordan block of size l spreads both sides' eigenvalues by about
    (eps ||S||)^(1/l), so a defective model is compared to that spread."""
    rep = quadratic_form_report(model)
    n = model.n
    assert rep.degree_leak < 1e-15
    blocks = rep.degree_blocks()
    assert [b.shape for b in blocks] == [(math.comb(2 * n, k),) * 2 for k in range(2 * n + 1)]
    assert all(b.dtype == np.float64 for b in blocks)
    sector = np.concatenate([np.linalg.eigvals(rep.even), np.linalg.eigvals(rep.odd)])
    largest = int(analyze(model).spectrum.merged_block.max())
    limit = 1e-10 if largest == 1 else 1e-3
    assert oracle.match_multisets(rep.eigenvalues(), sector).deviation < limit


def _occupation_models():
    """Random n = 1-4, axis n = 2-4, and two linked models whose many-body
    Jordan blocks have sizes 3 and 4."""
    for n in (1, 2, 3, 4):
        for seed in range(4):
            yield f"random{n}_{seed}", random_model(n, seed)
    for n in (2, 3, 4):
        for dec in range(1, min(2 * n, 6), 2):
            yield f"axis{n}_{dec}", random_axis_model(n, 80 + dec, dec)
    yield "linked_3_block", critical_plus_decoupled(2, 1, 0.7, 1)
    yield "linked_4_block", critical_plus_decoupled(3, 0, 0.7, 2)


OCCUPATION_MODELS = list(_occupation_models())


def _occupation_numbers(spectrum):
    """Occupation number sum m_jk of each expanded entry, in entry order."""
    return np.repeat(spectrum.occupations().sum(axis=1), spectrum.subspace_dim.astype(np.int64))


@pytest.mark.parametrize("model", [m for _, m in OCCUPATION_MODELS],
                         ids=[name for name, _ in OCCUPATION_MODELS])
def test_degree_blocks_match_their_occupation_numbers(model):
    """The even block of degree k holds the entries of occupation number k,
    the odd block of degree k those of 2n - k; matched block by block, every
    gate of check_spectrum passes."""
    result = analyze(model)
    rep = oracle.verify_quadratic_form(oracle.build_superoperator(model), result.structure)
    occupation = _occupation_numbers(result.spectrum)
    n = model.n
    for k, block in enumerate(rep.degree_blocks()):
        assert np.count_nonzero(occupation == (k if k % 2 == 0 else 2 * n - k)) == len(block)
    match = oracle.match_spectrum(result.spectrum, rep)
    # every dense eigenvalue is matched once
    np.testing.assert_array_equal(np.sort_complex(match.matched),
                                  np.sort_complex(rep.eigenvalues()))
    check = oracle.check_spectrum(result.spectrum, match)
    assert check.eigenvalue_deviation < VERIFY_SPECTRUM_MAX
    assert check.group_mean_deviation < VERIFY_SPECTRUM_MAX
    assert check.count_mismatches == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_odd_degree_block_is_not_its_own_occupation_number(n):
    """The odd sector's vacuum is the top monomial: its degree-k block does not
    hold the entries of occupation number k when k != n."""
    model = random_model(n, 70 + n)
    result = analyze(model)
    rep = oracle.verify_quadratic_form(oracle.build_superoperator(model), result.structure)
    theory = oracle.eigenvalue_multiset_from_enumeration(result.spectrum.entries)
    occupation = _occupation_numbers(result.spectrum)
    block = rep.degree_blocks()[1]
    dense = np.linalg.eigvals(block)
    assert oracle.match_multisets(theory[occupation == 2 * n - 1], dense).deviation < 1e-10
    assert oracle.match_multisets(theory[occupation == 1], dense).deviation > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_leak_sees_a_degree_lowering_term(n):
    """eps {i w_1 w_2, .}, added on P_alpha, keeps parity and Hermiticity; on
    a monomial holding w_1 and w_2 it lowers the degree by 2 with weight
    2 eps, forbidden in the even sector (and its raising part is forbidden in
    the odd one)."""
    eps = 1e-6
    model = random_model(n, 5)
    sup = oracle.build_superoperator(model)
    w = kron_majoranas(n)
    X = 1j * w[0] @ w[1]
    eye = np.eye(2**n)
    anticommutator = to_fock(np.kron(eye, X) + np.kron(X.T, eye), n)
    perturbed = with_generator(sup, dense_generator(sup) + eps * anticommutator)
    rep = oracle.verify_quadratic_form(perturbed, _structure(model))
    scale = max(np.abs(dense_generator(perturbed)).max(), 1.0)
    assert rep.imaginary_residual < 1e-13
    assert rep.degree_leak == pytest.approx(2 * eps / scale, rel=1e-6)
    assert rep.degree_leak > VERIFY_QUADRATIC_FORM_MAX
    assert quadratic_form_report(model).degree_leak < 1e-15


def test_given_superoperator_is_the_one_used():
    m = random_model(2, seed=5)
    sm = build_structure_matrix(m, build_bath_matrices(m))
    sup = oracle.build_superoperator(m)
    assert oracle.verify_quadratic_form(sup, sm) == quadratic_form_report(m)
    zero = with_generator(sup, np.zeros((16, 16)))
    assert oracle.verify_quadratic_form(zero, sm).residual > 0.1
    on = oracle.oracle_ness(oracle.verify_quadratic_form(zero, sm))
    assert on.kernel_dim == 16
    np.testing.assert_allclose(on.rho, np.eye(4) / 4, atol=1e-15)


def test_single_structure_matrix_fails_on_odd_sector():
    """Documents why the parity split is required: with the even-sector A used
    on the whole space, the residual is O(coupling), not numerical noise."""
    m = validate_model(1, np.zeros((2, 2)), [np.array([1.0, 0.0])])
    bath = build_bath_matrices(m)
    sm = build_structure_matrix(m, bath)
    sup = oracle.build_superoperator(m)
    form = full_quadratic_form(sm.A, sm.A0, 1)
    assert np.abs(dense_generator(sup) - form).max() > 1.0


def test_oracle_ness_unique_stable():
    m = random_model(2, seed=12)
    bath, X, sm, jf, ds = full_stage(m)
    on = oracle.oracle_ness(quadratic_form_report(m))
    assert on.kernel_dim == 1
    assert on.positive_witness_found
    assert on.hermiticity_residual < 1e-10
    assert on.min_eigenvalue >= -1e-9
    np.testing.assert_allclose(on.covariance, ness_covariance(ds.Z), atol=1e-7)


def test_oracle_ness_ising_pair_denegerate():
    m = ising_pair_model()
    bath, X, sm, jf, ds = full_stage(m)
    on = oracle.oracle_ness(quadratic_form_report(m))
    assert on.kernel_dim == 2
    assert on.positive_witness_found
    np.testing.assert_allclose(on.covariance, ness_covariance(ds.Z), atol=1e-8)


def test_oracle_ness_even_correlators_insensitive():
    """Even monomial expectations do not depend on the degeneracy parameter."""
    m = ising_pair_model()
    on = oracle.oracle_ness(quadratic_form_report(m))
    w = kron_majoranas(2)
    kernel = on.kernel_vectors
    # rebuild the one-parameter family rho(alpha) from the kernel
    rhos = [oracle.fock_operator(kernel[:, i], 2) for i in range(2)]
    herm = [(r + r.conj().T) / 2 for r in rhos] + [(r - r.conj().T) / 2j for r in rhos]
    herm = [h for h in herm if np.abs(h).max() > 1e-12]
    traceful = next(h for h in herm if abs(np.trace(h)) > 1e-9)
    base = traceful / np.trace(traceful).real
    traceless = next(h for h in herm if abs(np.trace(h)) < 1e-9 and np.abs(h).max() > 1e-6)
    for alpha in (0.0, 0.05, -0.05):
        rho = base + alpha * traceless
        C = np.array(
            [[np.trace(w[j] @ w[k] @ rho) for k in range(4)] for j in range(4)]
        )
        np.testing.assert_allclose(C, on.covariance, atol=1e-9)


def _bundled(name):
    return load_model(str(files("liouv") / "models" / f"{name}.json"))[0]


def _zero(n):
    return validate_model(n, np.zeros((2 * n, 2 * n)), [])


STATIONARY_CASES = pytest.mark.parametrize("kernel_dim, build", [
    (1, lambda: _bundled("single_qubit")),
    (1, lambda: random_model(3, 7)),
    (2, lambda: _bundled("ising_pair")),
    (4, lambda: _bundled("ising_chain_3")),
    (4, lambda: _zero(1)),
    (16, lambda: _zero(2)),
    (4, lambda: random_axis_model(4, 3, 4)),
    (8, lambda: random_axis_model(4, 3, 5)),
    (8, lambda: random_axis_model(4, 3, 6)),
    (16, lambda: random_axis_model(4, 3, 7)),
    (2, lambda: random_model(1, 1, n_vectors=0)),
    (4, lambda: random_model(2, 2, n_vectors=0)),
    (8, lambda: random_model(3, 3, n_vectors=0)),
    (16, lambda: random_model(4, 4, n_vectors=0)),
], ids=["single_qubit", "random3", "ising_pair", "ising_chain_3", "zero1", "zero2",
        "axis4", "axis5", "axis6", "axis7",
        "hamiltonian1", "hamiltonian2", "hamiltonian3", "hamiltonian4"])


@STATIONARY_CASES
def test_oracle_ness_state_is_a_stationary_density_matrix(kernel_dim, build):
    """The projected maximally mixed state is a stationary, trace-one, Hermitian,
    positive density matrix at every kernel dimension, and its two-point
    functions are the analysis's wherever `liouv verify` compares them."""
    m = build()
    sup = oracle.build_superoperator(m)
    on = oracle.oracle_ness(oracle.verify_quadratic_form(sup, _structure(m)))
    assert on.kernel_dim == kernel_dim
    S = dense_generator(sup)
    rho = on.rho
    coeff = fock_basis_transform(m.n).conj().T @ rho.reshape(-1, order="F")
    assert np.abs(S @ coeff).max() <= 1e-10 * max(np.abs(S).max(), 1.0)
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert on.hermiticity_residual < 1e-12
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -ORACLE_TOL_POS
    assert on.positive_witness_found
    ness = analyze(m).ness
    if ness.unique or (len(ness.zero_rapidity_modes) == 1 and not ness.imaginary_pair_modes):
        np.testing.assert_allclose(on.covariance, ness.covariance, rtol=0, atol=1e-12)


@STATIONARY_CASES
def test_oracle_ness_covariance_is_the_dense_trace(kernel_dim, build):
    """The covariance read off the coefficients of rho is tr(w_j w_k rho) with
    the kron-built Majoranas, also on the degenerate models that `liouv
    verify` does not compare with the analysis."""
    m = build()
    on = oracle.oracle_ness(quadratic_form_report(m))
    w = kron_majoranas(m.n)
    C = np.array([[np.trace(wj @ wk @ on.rho) for wk in w] for wj in w])
    np.testing.assert_allclose(on.covariance, C, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fock_operator_is_the_reference_transform(n):
    """The sparse monomials give sum_alpha c_alpha P_alpha as T @ c does, and
    the steady state is the operator of its P_alpha coefficients: with a
    one-dimensional kernel those are the kernel vector scaled to
    tr rho = 2^{n/2} c_0 = 1."""
    T = fock_basis_transform(n)
    rng = np.random.default_rng(n)
    c = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
    np.testing.assert_allclose(oracle.fock_operator(c, n), (T @ c).reshape(2**n, 2**n, order="F"),
                               rtol=0, atol=1e-14)
    on = oracle.oracle_ness(quadratic_form_report(random_model(n, 30 + n)))
    assert on.kernel_dim == 1
    coeff = on.kernel_vectors[:, 0] / (on.kernel_vectors[0, 0] * 2 ** (n / 2))
    np.testing.assert_allclose(on.rho, (T @ coeff).reshape(2**n, 2**n, order="F"),
                               rtol=0, atol=1e-15)


ORACLE_NESS_FIXTURES = [
    single_qubit_model(), ising_pair_model(), random_model(3, 7), random_axis_model(4, 3, 5),
    critical_plus_decoupled(2, 1, 0.7, 1), critical_plus_decoupled(1, 1, 0.0, 3), _zero(2),
] + [_bundled(name) for name in ("single_qubit", "ising_pair", "ising_chain_3")]


@pytest.mark.parametrize("model", ORACLE_NESS_FIXTURES)
def test_oracle_ness_matches_the_kron_reference(model):
    """The steady state of the direct build is that of the kron reference."""
    sm = _structure(model)
    on = oracle.oracle_ness(oracle.verify_quadratic_form(oracle.build_superoperator(model), sm))
    ref = oracle.oracle_ness(oracle.verify_quadratic_form(reference_superoperator(model), sm))
    assert on.kernel_dim == ref.kernel_dim
    assert on.positive_witness_found == ref.positive_witness_found
    assert on.min_eigenvalue == pytest.approx(ref.min_eigenvalue, rel=0, abs=1e-13)
    np.testing.assert_allclose(on.rho, ref.rho, rtol=0, atol=1e-12)


def _dense_reference_ness(sup):
    """Kernel and steady state from one complex SVD of the whole generator:
    P0 = R (L^dag R)^-1 L^dag applied to 1/2^n = 2^{-n/2} P_0."""
    n = sup.n
    u, s, vh = np.linalg.svd(dense_generator(sup))
    null = s <= ORACLE_TOL_KERNEL * max(s[0], 1.0)
    kernel = vh[null].conj().T
    left = u[:, null].conj().T
    mixed = np.zeros(4**n)
    mixed[0] = 2 ** (-n / 2)
    coeff = kernel @ np.linalg.solve(left @ kernel, left @ mixed)
    return kernel, (fock_basis_transform(n) @ coeff).reshape(2**n, 2**n, order="F")


def _generator(model):
    return oracle.build_superoperator(model), _structure(model)


def _zero_generator(n):
    """The superoperator of random_model(n, 0) with its generator zeroed."""
    sup, sm = _generator(random_model(n, 0))
    return with_generator(sup, np.zeros((4**n, 4**n))), sm


# (id, kernel dimension, generator and structure matrix)
SECTOR_KERNEL_CASES = (
    [(f"random{n}_{seed}", 1, lambda n=n, seed=seed: _generator(random_model(n, seed)))
     for n in (1, 2, 3, 4) for seed in range(5)]
    + [(f"axis{n}_{dec}", 2 ** ((dec + 1) // 2),
        lambda n=n, dec=dec: _generator(random_axis_model(n, 80 + dec, dec)))
       for n in (2, 3, 4) for dec in range(1, 2 * n, 2)]
    + [(f"hamiltonian{n}", 2**n, lambda n=n: _generator(random_model(n, n, n_vectors=0)))
       for n in (1, 2, 3)]
    + [(f"zero{n}", 4**n, lambda n=n: _generator(_zero(n))) for n in (1, 2)]
    + [(f"zero_generator{n}", 4**n, lambda n=n: _zero_generator(n)) for n in (2, 3)]
    + [("single_qubit", 1, lambda: _generator(_bundled("single_qubit"))),
       ("ising_pair", 2, lambda: _generator(_bundled("ising_pair"))),
       ("ising_chain_3", 4, lambda: _generator(_bundled("ising_chain_3"))),
       ("linked", 2, lambda: _generator(critical_plus_decoupled(2, 1, 0.7, 1))),
       ("linked_zero_modes", 4, lambda: _generator(critical_plus_decoupled(1, 1, 0.0, 3)))]
)


@pytest.mark.parametrize("kernel_dim, build", [case[1:] for case in SECTOR_KERNEL_CASES],
                         ids=[case[0] for case in SECTOR_KERNEL_CASES])
def test_sector_kernel_matches_dense_svd(kernel_dim, build):
    """The per-sector real kernel is the dense complex SVD's: the same
    dimension, the same steady state and the same span."""
    sup, sm = build()
    on = oracle.oracle_ness(oracle.verify_quadratic_form(sup, sm))
    kernel, rho = _dense_reference_ness(sup)
    assert on.kernel_dim == kernel.shape[1] == on.kernel_vectors.shape[1] == kernel_dim
    np.testing.assert_allclose(on.rho, rho, rtol=0, atol=1e-9)
    np.testing.assert_allclose(on.kernel_vectors.conj().T @ on.kernel_vectors,
                               np.eye(kernel_dim), atol=1e-12)
    np.testing.assert_allclose(on.kernel_vectors @ on.kernel_vectors.conj().T,
                               kernel @ kernel.conj().T, rtol=0, atol=1e-9)


def test_verify_fails_on_an_imaginary_hermitian_basis_part(monkeypatch, capsys):
    """i eps times a Hamiltonian commutator, added on P_alpha to the generator
    and to the structure matrix alike, leaves the quadratic form, the spectrum,
    the kernel and the covariance within their limits; only the realness
    residual sees that the generator no longer preserves Hermiticity."""
    import liouv.cli
    from liouv.cli import main

    eps = 5e-8
    n = 2
    K = np.random.default_rng(7).standard_normal((2 * n, 2 * n))
    K = (K - K.T) / 2
    H = hamiltonian_matrix(validate_model(n, K, []), kron_majoranas(n))
    eye = np.eye(2**n)
    commutator = to_fock(np.kron(eye, H) - np.kron(H.T, eye), n)  # i * (-i [H, .])
    real_build, real_analyze = oracle.build_superoperator, liouv.cli.analyze

    def perturbed_superoperator(model):
        sup = real_build(model)
        return with_generator(sup, dense_generator(sup) + eps * commutator)

    def perturbed_analyze(*args, **kwargs):
        result = real_analyze(*args, **kwargs)
        d = 2 * n
        A = result.structure.A.copy()
        A[:d, :d] += 1j * eps * 2 * K
        A[d:, d:] += 1j * eps * 2 * K
        return dataclasses.replace(result, structure=dataclasses.replace(result.structure, A=A))

    monkeypatch.setattr(oracle, "build_superoperator", perturbed_superoperator)
    monkeypatch.setattr(liouv.cli, "analyze", perturbed_analyze)
    assert main(["verify", "--random", "--n", str(n), "--seed", "11"]) == 3
    out = capsys.readouterr().out

    def number(label):
        return float(re.search(label + r" (\S+?),?(?: |$)", out, re.M).group(1))

    assert number("imaginary residual:") > VERIFY_QUADRATIC_FORM_MAX
    for label in ("even", "odd"):
        assert number(label) < 1e-13
    assert number("spectrum multiset deviation:") < 1e-7
    assert number("covariance deviation:") < 1e-7
    assert "kernel dim 1 vs stationary_dim 1: ok" in out
    assert out.splitlines()[-1] == "FAIL"


def test_oracle_ness_zero_model_full_kernel():
    m = validate_model(1, np.zeros((2, 2)), [])
    on = oracle.oracle_ness(quadratic_form_report(m))
    assert on.kernel_dim == 4


def test_spectrum_multiset_fixtures():
    for m in (single_qubit_model(), ising_pair_model()):
        bath, X, sm, jf, ds = full_stage(m)
        spec = enumerate_spectrum(jf)
        sup = oracle.build_superoperator(m)
        dev = oracle.match_multisets(
            oracle.eigenvalue_multiset_from_enumeration(spec.entries),
            np.linalg.eigvals(dense_generator(sup)),
        ).deviation
        assert dev < 1e-7


# a few exact values (duplicates, and ties at equal distance) and any small
# complex number; b is a, permuted and nudged by nothing, a near-tie offset or
# an O(1) step
_GRID = st.sampled_from([0, 1, -1, 1j, -1j, 1 + 1j, 0.5])
_VALUES = st.one_of(_GRID, st.complex_numbers(max_magnitude=3, allow_nan=False))
_NUDGES = st.sampled_from([0, 1e-15, -1e-12j, 1e-9, 0.5, 0.5j, -1])


@st.composite
def _multiset_pairs(draw):
    size = draw(st.integers(0, 8))
    a = np.array(draw(st.lists(_VALUES, min_size=size, max_size=size)), dtype=complex)
    nudges = np.array(draw(st.lists(_NUDGES, min_size=size, max_size=size)), dtype=complex)
    b = draw(st.permutations(list(a + nudges))) if size else []
    return a, np.array(b, dtype=complex)


@settings(max_examples=400, deadline=None)
@given(_multiset_pairs())
def test_match_multisets_equals_the_assignment_solver(pair):
    """The matching costs what linear_sum_assignment's optimum costs; where
    every nearest element is a different one, the matched values and the
    distances are the solver's, pair for pair."""
    from scipy.optimize import linear_sum_assignment

    a, b = pair
    match = oracle.match_multisets(a, b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    np.testing.assert_array_equal(np.sort_complex(match.matched), np.sort_complex(b))
    assert match.deviations.sum() == cost[rows, cols].sum()
    if len(a) and np.unique(cost.argmin(axis=1)).size == len(a):
        np.testing.assert_array_equal(match.matched, b[cols])
        np.testing.assert_array_equal(match.deviations, cost[rows, cols])


def test_match_multisets_uses_the_solver_only_when_contested(monkeypatch):
    import scipy.optimize

    calls = []
    solver = scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                        lambda cost: calls.append(cost.shape) or solver(cost))
    a = np.array([0, 1, 2j])
    match = oracle.match_multisets(a, np.array([2.1j, 0.1, 1.1]))
    np.testing.assert_array_equal(match.matched, [0.1, 1.1, 2.1j])
    assert calls == []
    # both 0 and 0.4 lie nearest to 0.3: contested
    match = oracle.match_multisets(np.array([0, 0.4]), np.array([0.3, -0.5]))
    np.testing.assert_array_equal(match.matched, [-0.5, 0.3])
    assert calls == [(2, 2)]


def test_fresh_verify_does_not_load_scipy_optimize():
    """No degree block of a random n = 4 model is contested, so the solver
    is never imported."""
    code = (
        "import sys\n"
        "from liouv.cli import main\n"
        "assert main(['verify', '--random', '--n', '4', '--seed', '1']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["PASS", "False"]


def test_ising_pair_passes_through_the_solver(monkeypatch, capsys):
    """The degenerate Ising pair has contested degree blocks."""
    import scipy.optimize

    from liouv.cli import main

    calls = []
    solver = scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                        lambda cost: calls.append(cost.shape) or solver(cost))
    assert main(["verify", str(files("liouv") / "models" / "ising_pair.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    assert calls


def _spectrum_check(model, dense=None):
    result = analyze(model)
    if dense is None:
        dense = quadratic_form_report(model).eigenvalues()
    theory = oracle.eigenvalue_multiset_from_enumeration(result.spectrum.entries)
    match = oracle.match_multisets(theory, np.sort_complex(dense))
    return result.spectrum, theory, match, oracle.check_spectrum(result.spectrum, match)


def test_defective_groups_are_gated_on_their_mean():
    """Two critical 2-blocks make a many-body 3-block: eigvals spreads its
    groups far past the spectrum limit, while their means stay exact."""
    spec, _, match, check = _spectrum_check(critical_plus_decoupled(2, 1, 0.7, 1))
    assert match.deviation > 100 * VERIFY_SPECTRUM_MAX
    assert check.eigenvalue_deviation < 1e-12
    assert check.group_mean_deviation < 1e-12
    assert check.defective_groups == int(np.count_nonzero(spec.merged_block > 1)) > 0
    assert check.count_mismatches == 0


def test_check_spectrum_catches_a_moved_mean_and_a_wrong_count():
    model = single_qubit_model()  # one 2-block: groups 0, -2beta (dim 2, block 2), -4beta
    spec, theory, _, check = _spectrum_check(model)
    assert check.defective_groups == 1 and check.group_mean_deviation < 1e-12
    lam = spec.merged_lam[spec.merged_block > 1][0]
    members = np.flatnonzero(np.isclose(theory, lam))
    assert len(members) == 2

    spread = theory.copy()
    spread[members] += [1e-4, -1e-4]  # a Jordan-like spread keeps the mean
    assert oracle.check_spectrum(spec, oracle.match_multisets(theory, spread)).group_mean_deviation < 1e-12

    shifted = theory.copy()
    shifted[members] += 1e-6
    check = oracle.check_spectrum(spec, oracle.match_multisets(theory, shifted))
    assert abs(check.group_mean_deviation - 1e-6) < 1e-12 and check.count_mismatches == 0

    moved = theory.copy()
    moved[members[0]] = 1e-3  # one member now lies by the zero eigenvalue
    check = oracle.check_spectrum(spec, oracle.match_multisets(theory, moved))
    assert check.count_mismatches == 1


def test_defective_superoperator_jordan_block():
    """Rapidity 2 with a size-2 block: the eigenvalue -4 has occupation number
    1, so it is the odd sector's; 0 and -8 are the even sector's."""
    m = single_qubit_model()
    sup = oracle.build_superoperator(m)
    assert largest_jordan_block_at(sup.odd, -4.0, 2) == 2
    assert largest_jordan_block_at(sup.even, 0.0, 1) == 1
    assert largest_jordan_block_at(sup.even, -8.0, 1) == 1


def _fock_vector_to_operator(n, coeff):
    T = fock_basis_transform(n)
    return (T @ coeff).reshape(2**n, 2**n, order="F")


def _form_vacuum(form, parity, trace_dual):
    """Even-parity kernel element of a quadratic-form matrix, trace-normalized
    when possible, otherwise unit-norm."""
    _, s, vh = np.linalg.svd(form)
    kern = vh[s < 1e-8 * max(s[0], 1.0)].conj().T
    proj = kern.copy()
    proj[parity < 0, :] = 0
    coe = trace_dual @ proj
    if np.linalg.norm(coe) > 1e-8:
        vac = proj @ coe.conj()
        return vac / (trace_dual @ vac)
    u, _, _ = np.linalg.svd(proj, full_matrices=False)
    return u[:, 0]


def test_zero_mode_descriptor_realizes_dense_kernel_direction():
    """The zero-rapidity stationary direction is odd parity, so the dense
    generator realizes it through the driving-flipped quadratic form: the
    flipped-form creation mode applied to the flipped-form vacuum must span
    the odd part of the true kernel exactly."""
    from liouv.model import odd_sector_structure_matrix

    m = ising_pair_model()
    bath, X, sm, jf, ds = full_stage(m)
    assert classify_ness(jf, stability_check(jf)).zero_rapidity_modes == ((1, 1),)
    zero_row = jf.blocks[0].chain_start  # j=1 sorts first

    nmb = build_V(jf, ds.Z)
    maps = build_fock_maps(2)
    S_fock = dense_generator(oracle.build_superoperator(m))
    parity = np.diag(maps.parity).real
    trace_dual = np.zeros(16)
    trace_dual[0] = 2.0

    # the even-sector form annihilates its own descriptor as a matrix identity
    F_even = full_quadratic_form(sm.A, sm.A0, 2)
    b_ops = [sum(nmb.V[i, p] * maps.a[p] for p in range(8)) for i in range(8)]
    vac_even = _form_vacuum(F_even, parity, trace_dual)
    dir_form = b_ops[4 + zero_row] @ vac_even
    assert np.linalg.norm(dir_form) > 1e-3
    assert np.linalg.norm(F_even @ dir_form) < 1e-10

    # the true generator needs the flipped form on the odd sector
    D = np.kron(np.diag([1.0, -1.0]), np.eye(4))
    V_odd = nmb.V @ D
    b_odd = [sum(V_odd[i, p] * maps.a[p] for p in range(8)) for i in range(8)]
    F_odd = full_quadratic_form(odd_sector_structure_matrix(sm), sm.A0, 2)
    vac_odd = _form_vacuum(F_odd, parity, trace_dual)
    dir_true = b_odd[4 + zero_row] @ vac_odd
    assert np.linalg.norm(dir_true) > 1e-3
    assert np.linalg.norm(S_fock @ dir_true) < 1e-10

    on = oracle.oracle_ness(quadratic_form_report(m))
    odd_kernel = on.kernel_vectors.copy()
    odd_kernel[parity > 0, :] = 0
    u, s, _ = np.linalg.svd(odd_kernel, full_matrices=False)
    assert s[0] > 1e-3  # the dense kernel has one odd direction
    overlap = abs(np.vdot(u[:, 0], dir_true)) / np.linalg.norm(dir_true)
    assert overlap > 1 - 1e-9  # and it is exactly the flipped-form direction

    op = _fock_vector_to_operator(2, dir_true)
    assert abs(np.trace(op)) < 1e-10  # odd operators are traceless


def test_imaginary_pair_combination_is_stationary_trace_zero():
    """For a multiplicity-1 conjugate imaginary pair the symmetric Hermitian
    combination reduces to 2 b'_+ b'_- |NESS> (the antisymmetric one vanishes
    identically when k = k'); it is even parity, so the plain form governs it
    and it must be a stationary trace-zero direction of the dense generator."""
    from importlib.resources import files

    from liouv.io import load_model

    model, _ = load_model(str(files("liouv") / "models" / "ising_chain_3.json"))
    bath, X, sm, jf, ds = full_stage(model)
    report = classify_ness(jf, stability_check(jf))
    assert len(report.imaginary_pair_modes) == 2
    j, jp, k, kp, _ = report.imaginary_pair_modes[0]
    assert (k, kp) == (1, 1)

    nmb = build_V(jf, ds.Z)
    maps = build_fock_maps(3)
    S_fock = dense_generator(oracle.build_superoperator(model))
    parity = np.diag(maps.parity).real
    trace_dual = np.zeros(64)
    trace_dual[0] = 2**1.5
    half = 6

    F_even = full_quadratic_form(sm.A, sm.A0, 3)
    vac = _form_vacuum(F_even, parity, trace_dual)
    rows = {b.j: b.chain_start for b in jf.blocks}
    b_ops = [sum(nmb.V[i, p] * maps.a[p] for p in range(12)) for i in range(12)]
    combo = b_ops[half + rows[j]] @ (b_ops[half + rows[jp]] @ vac)

    assert np.linalg.norm(combo) > 1e-3
    assert np.linalg.norm(F_even @ combo) < 1e-10
    assert np.linalg.norm(S_fock @ combo) < 1e-10
    op = _fock_vector_to_operator(3, combo)
    assert abs(np.trace(op)) < 1e-10


def test_merged_collision_blocks_match_dense():
    """Eigenvalue collisions across occupation sectors: the merged view's max
    block is reported as a lower bound, but the invariant subspaces direct-sum
    the whole space, so it actually equals the dense largest block, the larger
    of the two parity sectors' (an even occupation number is the even
    sector's)."""
    G, th = 1.0, np.pi / 3
    h = G * np.cos(th)
    K = np.zeros((4, 4))
    K[0, 1], K[1, 0] = h, -h
    vecs = [
        np.sqrt(G) * np.array([1, np.exp(1j * th), 0, 0]),
        np.sqrt(2 * G) * np.array([0, 0, 1, 0]),
        np.sqrt(2 * G) * np.array([0, 0, 0, 1]),
    ]
    m = validate_model(2, K, vecs)
    bath, X, sm, jf, ds = full_stage(m)
    spec = enumerate_spectrum(jf)
    sup = oracle.build_superoperator(m)
    collisions = [g for g, e in enumerate(spec.merged) if e.contributors > 1]
    assert collisions, "model must produce cross-sector collisions"
    assert any(spec.merged[g].max_jordan_block > 1 for g in collisions)
    group = np.repeat(np.arange(len(spec.merged)), spec.contributors)
    odd = spec.occupations().sum(axis=1) % 2
    for g in collisions:
        e = spec.merged[g]
        dims = [int(spec.subspace_dim[(group == g) & (odd == parity)].sum()) for parity in (0, 1)]
        dense = max(largest_jordan_block_at(block, e.lam, dim)
                    for block, dim in zip((sup.even, sup.odd), dims))
        assert dense == e.max_jordan_block


def test_normal_master_modes_almost_car_and_vacua():
    m = random_model(2, seed=21)
    bath, X, sm, jf, ds = full_stage(m)
    nmb = build_V(jf, ds.Z)
    maps = build_fock_maps(2)
    dim = 16
    b_ops = [sum(nmb.V[i, p] * maps.a[p] for p in range(8)) for i in range(8)]
    # almost-CAR: {b_i, b_j} = J_ij
    for i in range(8):
        for j in range(8):
            anti = b_ops[i] @ b_ops[j] + b_ops[j] @ b_ops[i]
            want = 1.0 if abs(i - j) == 4 else 0.0
            np.testing.assert_allclose(anti, want * np.eye(dim), atol=1e-9)

    # vacua: every annihilation mode kills |NESS>, every creation mode kills <1|
    on = oracle.oracle_ness(quadratic_form_report(m))
    T = fock_basis_transform(2)
    ness_coeff = T.conj().T @ on.rho.reshape(-1, order="F")
    one_dual = np.zeros(dim)
    one_dual[0] = 2 ** (2 / 2)  # <1| = 2^{n/2} <P_0|
    for i in range(4):
        assert np.linalg.norm(b_ops[i] @ ness_coeff) < 1e-8
        assert np.linalg.norm(one_dual @ b_ops[4 + i]) < 1e-8


def test_normal_form_matrix_identity():
    """The quadratic form equals the normal form -2 sum(beta b'b + b'_{l+1} b_l)
    as a full matrix identity on the operator space."""
    for m in (single_qubit_model(), random_model(2, seed=33)):
        bath, X, sm, jf, ds = full_stage(m)
        nmb = build_V(jf, ds.Z)
        n4 = 2 * jf.dim
        maps = build_fock_maps(m.n)
        dim = 4**m.n
        b_ops = [sum(nmb.V[i, p] * maps.a[p] for p in range(n4)) for i in range(n4)]
        half = jf.dim
        form = full_quadratic_form(sm.A, sm.A0, m.n)
        normal = np.zeros((dim, dim), dtype=complex)
        for blk in jf.blocks:
            for l in range(blk.size):
                row = blk.chain_start + l
                normal += -2 * blk.rapidity * (b_ops[half + row] @ b_ops[row])
            for l in range(blk.size - 1):
                row = blk.chain_start + l
                normal += -2 * (b_ops[half + row + 1] @ b_ops[row])
        np.testing.assert_allclose(normal, form, atol=1e-8)


def test_nmax_env_override(monkeypatch):
    monkeypatch.setenv("LIOUV_NMAX", "1")
    with pytest.raises(TooLarge):
        oracle.fock_operator(np.zeros(16), 2)
    monkeypatch.delenv("LIOUV_NMAX")
    oracle.fock_operator(np.zeros(16), 2)


def test_cached_bases_still_check_the_size_limit(monkeypatch):
    """Every call of the Fock maps and of the generator checks LIOUV_NMAX."""
    monkeypatch.delenv("LIOUV_NMAX", raising=False)
    oracle.fock_majoranas(2)
    monkeypatch.setenv("LIOUV_NMAX", "1")
    with pytest.raises(TooLarge):
        oracle.fock_majoranas(2)
    with pytest.raises(TooLarge):
        oracle.build_superoperator(ising_pair_model())


def test_generator_build_forms_no_dense_generator(monkeypatch):
    """At n = 6 each complex sector block is 64 MiB; the traced peak of the
    build stays below 256 MiB, the size of the one dense 4^n x 4^n complex
    generator."""
    import tracemalloc

    monkeypatch.setenv("LIOUV_NMAX", "6")
    model = random_model(6, 1)
    tracemalloc.start()
    try:
        sup = oracle.build_superoperator(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sup.even.shape == sup.odd.shape == (2048, 2048)
    assert peak < 256 * 2**20, peak / 2**20
