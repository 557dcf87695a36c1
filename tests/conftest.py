import functools
from dataclasses import dataclass, replace

import numpy as np
import pytest

from liouv import oracle
from liouv.model import (
    build_bath_matrices,
    build_structure_matrix,
    build_X,
    validate_model,
)

GAMMA1, GAMMA2, J_COUPLING = 0.3, 0.5, 0.7


def json_native(o):
    """`default=` hook for json.dumps that writes a report's numpy arrays as
    the lists they stand for: a plain array as its `tolist()`, a complex one
    as [re, im] pairs, a structured one as a list of dicts, one key per field
    (a 0-d record is one dict).  Anything else raises TypeError, as json's
    own default does."""
    if not isinstance(o, np.ndarray):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if o.dtype.names is not None:
        if o.ndim:
            return [o[i, ...] for i in range(len(o))]
        return {name: o[name] for name in o.dtype.names}
    if o.dtype.kind == "c":
        return np.stack([o.real, o.imag], -1).tolist()
    if o.dtype.kind in "biufO":
        return o.tolist()
    raise TypeError(f"Object of type ndarray with dtype {o.dtype} is not JSON serializable")
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


def planted_model(sizes, seed):
    """Jordan blocks of the given sizes, all at rapidity 1, planted in
    X = O (1 + 0.5 N) O^T with N nilpotent and O Haar-orthogonal from
    `seed`.  K = (X - X^T)/4 and the Lindblad vectors come from
    eigh((X + X^T)/4), so M_r = (X + X^T)/4 is PSD and M_i = 0.  eig splits
    an l-block into a ring of radius about (eps ||X||)^(1/l)."""
    d = sum(sizes)
    N = np.zeros((d, d))
    chain_starts = np.cumsum((0,) + tuple(sizes[:-1]))
    for start, size in zip(chain_starts, sizes):
        N[range(start, start + size - 1), range(start + 1, start + size)] = 1.0
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    O = q * np.sign(np.diag(r))
    X = O @ (np.eye(d) + 0.5 * N) @ O.T
    weights, U = np.linalg.eigh((X + X.T) / 4)
    vectors = [np.sqrt(w) * U[:, i] for i, w in enumerate(weights)]
    return validate_model(d // 2, (X - X.T) / 4, vectors)


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
    reference `oracle.fock_majoranas` and the sector blocks of
    `oracle.quadratic_form_matrix` are checked against."""
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


def on_fock(even_block, odd_block, n):
    """The 4^n x 4^n matrix on the P_alpha basis whose parity-sector blocks,
    in the Hermitian basis Q_alpha = i^{k(k-1)/2} P_alpha, are the two given:
    each rotated back to P_alpha (exactly, as the phases are +-1 and +-i) and
    placed on its sector."""
    even = oracle.fock_parity_even(n)
    phase = oracle.hermitian_phases(n)
    out = np.zeros((4**n, 4**n), dtype=complex)
    for block, sector in ((even_block, even), (odd_block, ~even)):
        out[np.ix_(sector, sector)] = block * np.outer(phase[sector], phase[sector].conj())
    return out


def dense_generator(sup):
    """The generator of an oracle.Superoperator on the whole P_alpha basis,
    reassembled from its two sector blocks: a test-only reference, since the
    package never forms the 4^n x 4^n matrix."""
    return on_fock(sup.even, sup.odd, sup.n)


def full_quadratic_form(sm_A, A0, n):
    """sum_pq A_pq a_p a_q - A_0 on the whole P_alpha basis, reassembled from
    the two sector blocks of `oracle.quadratic_form_matrix` (the form keeps
    the parity)."""
    return on_fock(*(oracle.quadratic_form_matrix(sm_A, A0, n, e) for e in (True, False)), n)


def on_sectors(S, n):
    """The sector blocks of S, a map on the whole P_alpha basis, rephased to
    the Hermitian basis Q_alpha; S's entries between the sectors are
    dropped."""
    even = oracle.fock_parity_even(n)
    phase = oracle.hermitian_phases(n)
    return tuple(S[np.ix_(sector, sector)] * np.outer(phase[sector].conj(), phase[sector])
                 for sector in (even, ~even))


def with_generator(sup, S):
    """sup with its generator replaced by S, given on the whole P_alpha basis:
    how a test plants a perturbation, as `dense_generator(sup) + eps * X`."""
    even, odd = on_sectors(S, sup.n)
    return replace(sup, even=even, odd=odd)


_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


@functools.cache
def kron_majoranas(n):
    """The 2n Jordan-Wigner Majoranas as dense 2^n x 2^n matrices built by
    kron: w_2j, w_2j+1 act on site j with sigma^3 strings on the sites before
    it.  The reference for the bit rules of `oracle.fock_operator`.  Built once
    per n; the arrays are read-only."""
    ws = []
    for j in range(n):
        for op in (_SIGMA1, _SIGMA2):
            ws.append(functools.reduce(np.kron, [_SIGMA3] * j + [op] + [np.eye(2)] * (n - j - 1)))
            ws[-1].setflags(write=False)
    return tuple(ws)


def hamiltonian_matrix(model, w):
    """H = w . (iK) w on the Hilbert space, w the Jordan-Wigner Majoranas."""
    d = model.dim
    H = np.zeros((2**model.n, 2**model.n), dtype=complex)
    iK = 1j * model.K
    for j in range(d):
        for k in range(d):
            if iK[j, k] != 0:
                H += iK[j, k] * (w[j] @ w[k])
    return H


def lindblad_operators(model, w):
    """L_mu = l_mu . w on the Hilbert space."""
    return [sum(l[j] * w[j] for j in range(model.dim)) for l in model.lindblad_vectors]


def kron_superoperator(model):
    """The reference generator in the column-stacked vec basis, where A rho B
    is kron(B^T, A), assembled from H and the L_mu on the Hilbert space: the
    build `oracle.build_superoperator` is checked against, through
    `fock_basis_transform`."""
    w = kron_majoranas(model.n)
    eye = np.eye(2**model.n, dtype=complex)
    H = hamiltonian_matrix(model, w)
    S = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for L in lindblad_operators(model, w):
        LdL = L.conj().T @ L
        S += 2 * np.kron(L.conj(), L) - np.kron(eye, LdL) - np.kron(LdL.T, eye)
    return S


@functools.cache
def fock_basis_transform(n):
    """Unitary T with columns vec(P_alpha): maps P_alpha coefficients to vec.

    The monomials with highest Majorana j are those below j times w_j on the
    right, so 2n batched products build all 4^n; each performs the matrix
    products of the monomial's own chain 2^{-n/2} w_1^a1 ... w_2n^a2n.  Built
    once per n; the array is read-only.
    """
    mats = np.eye(2**n, dtype=complex)[None] * 2 ** (-n / 2)
    for wj in kron_majoranas(n):
        mats = np.concatenate([mats, mats @ wj])
    T = mats.transpose(0, 2, 1).reshape(4**n, -1).T
    T.setflags(write=False)
    return T


def to_fock(S_vec, n):
    """A vec-basis superoperator on the P_alpha basis, T^dag S T."""
    T = fock_basis_transform(n)
    return T.conj().T @ S_vec @ T


def reference_superoperator(model):
    """The sector blocks of the kron build rotated to P_alpha, in the
    Hermitian basis, as an oracle.Superoperator; the kron build's entries
    between the sectors vanish to rounding."""
    n = model.n
    S = to_fock(kron_superoperator(model), n)
    even = oracle.fock_parity_even(n)
    scale = max(np.abs(S).max(), 1.0)
    assert np.abs(S[np.ix_(even, ~even)]).max(initial=0.0) < 1e-15 * scale
    assert np.abs(S[np.ix_(~even, even)]).max(initial=0.0) < 1e-15 * scale
    return oracle.Superoperator(n, *on_sectors(S, n), 0.0)


def largest_jordan_block_at(S, lam, multiplicity, tol_rank=1e-7):
    """Size of the largest Jordan block of S in the eigenvalue cluster at lam.

    Rank staircase of (S - lam)^k with relative SVD thresholding; stops when
    the nullity stops growing or reaches the algebraic multiplicity.
    """
    d = S.shape[0]
    Y = S - lam * np.eye(d)
    prev = 0
    power = np.eye(d, dtype=complex)
    for k in range(1, multiplicity + 1):
        power = power @ Y
        sv = np.linalg.svd(power, compute_uv=False)
        rank = int(np.sum(sv > tol_rank * max(sv[0], 1.0)))
        nullity = d - rank
        if nullity == prev:
            return k - 1
        if nullity >= multiplicity:
            return k
        prev = nullity
    return multiplicity


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
