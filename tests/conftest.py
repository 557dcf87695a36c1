from dataclasses import dataclass

import numpy as np
import pytest

from liouv.model import (
    build_bath_matrices,
    build_structure_matrix,
    build_X,
    validate_model,
)

GAMMA1, GAMMA2, J_COUPLING = 0.3, 0.5, 0.7
GAMMA_P = GAMMA2 + GAMMA1
GAMMA_M = GAMMA2 - GAMMA1


def single_qubit_model(gamma=1.0, theta=np.pi / 3, h=None):
    """Single fermion with one bath vector sqrt(G)(1, e^{i theta}); h defaults
    to the non-diagonalizable point G cos(theta)."""
    if h is None:
        h = gamma * np.cos(theta)
    K = np.array([[0.0, h], [-h, 0.0]])
    l = np.sqrt(gamma) * np.array([1.0, np.exp(1j * theta)])
    return validate_model(1, K, [l])


def ising_pair_model(g1=GAMMA1, g2=GAMMA2, j=J_COUPLING):
    """Ising-coupled pair, bath on the first qubit, pinned to the golden X and
    the closed-form driving solution."""
    gp, gm = g2 + g1, g2 - g1
    K = np.zeros((4, 4))
    K[1, 2], K[2, 1] = -j / 2, j / 2
    # M = (gp/2) 1 - 2 gm sigma^2 on the first qubit's Majorana pair
    c1sq = gp / 4 - gm  # sigma+ channel weight
    c2sq = gp / 4 + gm
    if c1sq < -1e-12:
        raise ValueError("parameters leave the PSD region of the golden fixture")
    vecs = []
    if c1sq > 1e-15:
        vecs.append(np.sqrt(c1sq) * np.array([1, 1j, 0, 0]))
    vecs.append(np.sqrt(c2sq) * np.array([1, -1j, 0, 0]))
    return validate_model(2, K, vecs)


def ising_pair_display_model(g1=GAMMA1, g2=GAMMA2, j=J_COUPLING):
    """Same X, but with the weaker driving M_i = (Gamma_-/4)-pattern, realized
    by the plain sigma+/sigma- fermionization."""
    gp, gm = g2 + g1, g2 - g1
    K = np.zeros((4, 4))
    K[1, 2], K[2, 1] = -j / 2, j / 2
    c1sq = gp - gm / 2
    c2sq = gp + gm / 2
    l1 = np.sqrt(c1sq) / 2 * np.array([1, 1j, 0, 0])
    l2 = np.sqrt(c2sq) / 2 * np.array([1, -1j, 0, 0])
    return validate_model(2, K, [l1, l2])


def critical_plus_decoupled(copies, pairs, b, seed, theta=np.pi / 3):
    """`copies` single qubits at the defective point h* = cos(theta), rotated
    together by a Haar-random orthogonal matrix drawn from `seed` (one real
    rapidity with `copies` Jordan 2-blocks), plus `pairs` decoupled
    Hamiltonian pairs with rapidities +-i b (p + 1), p = 0..pairs-1, and no
    bath; b = 0 makes them zero modes.  The Lyapunov solve takes the Jordan
    path and walks the linked chains of the 2-blocks."""
    dc = 2 * copies
    d = dc + 2 * pairs
    K = np.zeros((d, d))
    vectors = []
    for c in range(copies):
        K[2 * c, 2 * c + 1], K[2 * c + 1, 2 * c] = np.cos(theta), -np.cos(theta)
        v = np.zeros(d, dtype=complex)
        v[2 * c], v[2 * c + 1] = 1.0, np.exp(1j * theta)
        vectors.append(v)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dc, dc)))
    O = np.eye(d)
    O[:dc, :dc] = q * np.sign(np.diag(r))
    K = O @ K @ O.T
    for p in range(pairs):
        i = dc + 2 * p
        # X = 2K on the pair: eigenvalues +-2i K[i, i+1]
        K[i, i + 1], K[i + 1, i] = b * (p + 1) / 2, -b * (p + 1) / 2
    return validate_model(copies + pairs, K, [O @ v for v in vectors])


def seventy_block_result():
    """The single-qubit analysis with its spectrum replaced by that of one
    70-block: 4^35 = 2^70 overflows int64, so the dims are Python ints."""
    import dataclasses

    from liouv.analysis import analyze
    from liouv.rapidity import JordanBlockDescriptor, JordanForm
    from liouv.spectra import enumerate_spectrum

    blocks = (JordanBlockDescriptor(1.0 + 0j, 70, 0, 1, 1),)
    P = np.eye(70, dtype=complex)
    jf = JordanForm(P, P, blocks, ((0, 0),), 1.0, 1.0, 0.0, False)
    return dataclasses.replace(analyze(single_qubit_model()), spectrum=enumerate_spectrum(jf))


@dataclass(frozen=True)
class FockMaps:
    """Dense creation/annihilation maps over the operator Fock space.

    a lists the 4n Hermitian Majorana maps, first the (c+c')/sqrt2 block then
    the i(c-c')/sqrt2 block, matching the structure-matrix ordering.  parity
    is diag((-1)^{|alpha|}).
    """

    n: int
    c: tuple[np.ndarray, ...]
    c_dag: tuple[np.ndarray, ...]
    a: tuple[np.ndarray, ...]
    parity: np.ndarray


def build_fock_maps(n):
    """The maps as dense 4^n x 4^n matrices, one basis tuple at a time: the
    reference `oracle.fock_majoranas` and `oracle.quadratic_form_matrix` are
    checked against."""
    d = 2 * n
    dim = 4**n
    alphas = [tuple((idx >> j) & 1 for j in range(d)) for idx in range(dim)]
    index = {a: i for i, a in enumerate(alphas)}
    cs = []
    cds = []
    for j in range(d):
        c = np.zeros((dim, dim), dtype=complex)
        cd = np.zeros((dim, dim), dtype=complex)
        for a, col in index.items():
            sign = (-1) ** sum(a[:j])
            flipped = list(a)
            flipped[j] ^= 1
            row = index[tuple(flipped)]
            if a[j]:
                c[row, col] = sign
            else:
                cd[row, col] = sign
        cs.append(c)
        cds.append(cd)
    a_maps = [(c + cd) / np.sqrt(2) for c, cd in zip(cs, cds)] + [
        1j * (c - cd) / np.sqrt(2) for c, cd in zip(cs, cds)
    ]
    parity = np.diag([(-1.0) ** sum(a) for a in alphas]).astype(complex)
    return FockMaps(n, tuple(cs), tuple(cds), tuple(a_maps), parity)


def dense_quadratic_form(sm_A, A0, maps):
    """sum_pq A_pq a_p a_q - A_0 as dense matrix products of the maps."""
    dim = 4**maps.n
    out = -A0 * np.eye(dim, dtype=complex)
    for p, ap in enumerate(maps.a):
        combo = np.zeros((dim, dim), dtype=complex)
        for q, aq in enumerate(maps.a):
            if sm_A[p, q] != 0:
                combo += sm_A[p, q] * aq
        out += ap @ combo
    return out


def pipeline_stage(model):
    bath = build_bath_matrices(model)
    X = build_X(model, bath)
    sm = build_structure_matrix(model, bath)
    return bath, X, sm


@pytest.fixture
def qubit_defective():
    return single_qubit_model()


@pytest.fixture
def ising_pair():
    return ising_pair_model()
