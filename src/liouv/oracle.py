"""Brute-force ground truth at small fermion number.

Explicit Jordan-Wigner Majorana matrices on the 2^n Hilbert space, the dense
4^n x 4^n Lindblad superoperator (column-stacked vec convention), the
Majorana maps on the operator Fock basis P_alpha as signed permutations, and
the comparisons that pin the fast path: the quadratic-form identity per parity
sector, spectrum multisets, and steady-state correlators.  Every check takes
the generator it checks, built once by `build_superoperator`.  In the
Hermitian basis the generator is real and splits into two parity blocks, whose
SVDs give the kernel; each block is triangular in the Majorana degree, so the
spectrum comes from its 2n+1 diagonal degree blocks.  The Majorana matrices
and the basis transform are built once per n and kept read-only.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BuildInvariantViolated, InputError, TooLarge
from .model import QuadraticLindbladModel, StructureMatrix, odd_sector_structure_matrix
from .spectra import SpectrumEnumeration
from .tolerances import ORACLE_TOL_KERNEL, ORACLE_TOL_POS, ORACLE_TOL_RANK, ORACLE_TOL_TRACE

DEFAULT_NMAX = 5

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def check_size(n: int):
    """Raise TooLarge when n exceeds the oracle limit: LIOUV_NMAX if set (a
    positive integer), else DEFAULT_NMAX."""
    env = os.environ.get("LIOUV_NMAX")
    try:
        limit = int(env or DEFAULT_NMAX)
    except ValueError:
        limit = 0
    if limit < 1:
        raise InputError(f"LIOUV_NMAX: expected a positive integer, got {env!r}")
    if n > limit:
        raise TooLarge(f"n = {n} exceeds the oracle limit n_max = {limit}")


@dataclass(frozen=True)
class MajoranaRep:
    """2n Hermitian anticommuting matrices on the 2^n-dimensional Hilbert space."""

    n: int
    w: tuple[np.ndarray, ...]


def majorana_ops(n: int) -> MajoranaRep:
    """Jordan-Wigner Majoranas: w_{2j-1}, w_{2j} act on site j with sigma^3
    strings on the sites before it.  Built once per n; the arrays are read-only."""
    check_size(n)
    return _majorana_ops(n)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def _majorana_ops(n: int) -> MajoranaRep:
    ws = []
    for j in range(n):
        string = [_SIGMA3] * j
        for op in (_SIGMA1, _SIGMA2):
            factors = string + [op] + [np.eye(2, dtype=complex)] * (n - j - 1)
            mat = factors[0]
            for f in factors[1:]:
                mat = np.kron(mat, f)
            ws.append(_read_only(mat))
    return MajoranaRep(n, tuple(ws))


def hamiltonian_matrix(model: QuadraticLindbladModel, rep: MajoranaRep) -> np.ndarray:
    """H = w . (iK) w on the Hilbert space."""
    d = model.dim
    H = np.zeros((2**model.n, 2**model.n), dtype=complex)
    iK = 1j * model.K
    for j in range(d):
        for k in range(d):
            if iK[j, k] != 0:
                H += iK[j, k] * (rep.w[j] @ rep.w[k])
    return H


def lindblad_operators(model: QuadraticLindbladModel, rep: MajoranaRep) -> list[np.ndarray]:
    return [
        sum(l[j] * rep.w[j] for j in range(model.dim))
        for l in model.lindblad_vectors
    ]


@dataclass(frozen=True)
class Superoperator:
    """Dense matrix of rho -> L rho in the column-stacked vec basis."""

    n: int
    matrix: np.ndarray
    trace_preservation_residual: float


def build_superoperator(model: QuadraticLindbladModel) -> Superoperator:
    """Assemble the Lindblad generator as a 4^n x 4^n matrix.

    vec is column stacking, so A rho B maps to kron(B^T, A).  The trace
    functional must annihilate the generator from the left (machine
    precision); a violation means the assembly is broken.
    """
    rep = majorana_ops(model.n)
    dim = 2**model.n
    eye = np.eye(dim, dtype=complex)
    H = hamiltonian_matrix(model, rep)
    S = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for L in lindblad_operators(model, rep):
        LdL = L.conj().T @ L
        S += 2 * np.kron(L.conj(), L) - np.kron(eye, LdL) - np.kron(LdL.T, eye)
    tr_vec = eye.reshape(-1, order="F").conj()
    scale = max(np.abs(S).max(), 1.0)
    residual = float(np.abs(tr_vec @ S).max() / scale)
    if residual > ORACLE_TOL_TRACE:
        raise BuildInvariantViolated(
            f"superoperator is not trace-preserving: residual {residual:.3e}"
        )
    return Superoperator(model.n, S, residual)


def _alpha_bits(n: int) -> np.ndarray:
    """Occupations of the P_alpha basis, (2n, 4^n): alpha_{j+1} of basis index
    idx is bit j of idx."""
    return (np.arange(4**n)[None, :] >> np.arange(2 * n)[:, None]) & 1


def fock_basis_transform(n: int) -> np.ndarray:
    """Unitary T with columns vec(P_alpha): maps P_alpha coefficients to vec.

    The monomials with highest Majorana j are those below j times w_j on the
    right, so 2n batched products build all 4^n; each performs the matrix
    products of the monomial's own chain 2^{-n/2} w_1^a1 ... w_2n^a2n.  Built
    once per n; the array is read-only.
    """
    check_size(n)
    return _fock_basis_transform(n)


@functools.cache
def _fock_basis_transform(n: int) -> np.ndarray:
    mats = np.eye(2**n, dtype=complex)[None] * 2 ** (-n / 2)
    for wj in _majorana_ops(n).w:
        mats = np.concatenate([mats, mats @ wj])
    return _read_only(mats.transpose(0, 2, 1).reshape(4**n, -1).T)


def fock_degree(n: int) -> np.ndarray:
    """Majorana degree k = |alpha| of every P_alpha."""
    return _alpha_bits(n).sum(axis=0)


def hermitian_phases(n: int) -> np.ndarray:
    """i^{k(k-1)/2}, k = |alpha|: Q_alpha = i^{k(k-1)/2} P_alpha is Hermitian,
    since reversing the k Majoranas of P_alpha gives the sign (-1)^{k(k-1)/2}."""
    k = fock_degree(n)
    return np.array([1, 1j, -1, -1j])[(k * (k - 1) // 2) % 4]


def fock_parity_even(n: int) -> np.ndarray:
    """Mask of the even-parity P_alpha, (-1)^{|alpha|} = 1."""
    return fock_degree(n) % 2 == 0


def fock_majoranas(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4n Hermitian Majorana maps a_p of the operator Fock space, each a
    signed permutation: a_p sends P_col to values[p, col] P_{col ^ flips[p]}.

    a_j = (c_j + c_j')/sqrt2 and a_{2n+j} = i(c_j - c_j')/sqrt2 for j < 2n, the
    structure-matrix ordering; c_j clears bit j of alpha and c_j' sets it, both
    with the Jordan-Wigner sign (-1)^(alpha_1 + ... + alpha_j) of the bits below.
    """
    check_size(n)
    d = 2 * n
    bits = _alpha_bits(n)
    sign = 1 - 2 * ((np.cumsum(bits, axis=0) - bits) % 2)
    h = 1 / np.sqrt(2)
    values = np.concatenate([sign * h + 0j, 1j * (sign * (2 * bits - 1)) * h])
    flips = np.tile(1 << np.arange(d), 2)
    return flips, values


def quadratic_form_matrix(sm_A: np.ndarray, A0: float, n: int) -> np.ndarray:
    """sum_pq A_pq a_p a_q - A_0 on the P_alpha basis.

    Scattered from `fock_majoranas` in O((4n)^2 4^n): column col of
    sum_q A_pq a_q has the entry A_pj a_j + A_p,j+2n a_{j+2n} at row
    col ^ flips[j], and a_p moves it to row col ^ flips[j] ^ flips[p].  The
    arithmetic is that of the dense loop -A_0 + sum_p a_p @ (sum_q A_pq a_q)
    in the same order, so the result equals it bit for bit.
    """
    flips, values = fock_majoranas(n)
    d = 2 * n
    cols = np.arange(4**n)
    mid = cols ^ flips[:d, None]
    out = -A0 * np.eye(4**n, dtype=complex)
    for p in range(2 * d):
        combo = sm_A[p, :d, None] * values[:d] + sm_A[p, d:, None] * values[d:]
        out[mid ^ flips[p], cols] += values[p][mid] * combo
    return out


@dataclass(frozen=True)
class QuadraticFormReport:
    """The dense generator in the Hermitian basis, and the certificates that
    make the diagonal degree blocks of its two real parity blocks its spectrum.

    The quadratic-form identity holds on the even-parity sector with the
    structure matrix A, and on the odd sector with the driving-flipped matrix;
    `residual` is the max of the two.  parity_leak measures how well the dense
    generator preserves parity, imaginary_residual how well it maps Hermitian
    operators to Hermitian ones: max|Im Q^dag S Q| over max(max|Q^dag S Q|, 1),
    both machine precision.  degree_leak is the largest coupling, on the same
    scale, that the grading forbids: the even block keeps the Majorana degree
    or raises it by 2 (the driving), the odd block keeps it or lowers it by 2.
    even and odd are the real parts of the generator's blocks on the two
    sectors in the Hermitian basis Q_alpha; even_basis and odd_basis hold the
    vec(Q_alpha) of each sector as columns.
    """

    n: int
    residual_even: float
    residual_odd: float
    parity_leak: float
    imaginary_residual: float
    degree_leak: float
    even: np.ndarray = field(repr=False, compare=False)
    odd: np.ndarray = field(repr=False, compare=False)
    even_basis: np.ndarray = field(repr=False, compare=False)
    odd_basis: np.ndarray = field(repr=False, compare=False)

    @property
    def residual(self) -> float:
        return max(self.residual_even, self.residual_odd)

    def degree_blocks(self) -> list[np.ndarray]:
        """The 2n+1 diagonal blocks of degree k = 0..2n, of size C(2n, k):
        from the even block for even k, from the odd block for odd k."""
        degree = fock_degree(self.n)
        sectors = (self.even, degree[degree % 2 == 0]), (self.odd, degree[degree % 2 == 1])
        blocks = []
        for k in range(2 * self.n + 1):
            sector, sector_degree = sectors[k % 2]
            idx = np.flatnonzero(sector_degree == k)
            blocks.append(sector[np.ix_(idx, idx)])
        return blocks

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the generator, degree block by degree block in
        order of k; the whole spectrum only while parity_leak,
        imaginary_residual and degree_leak are negligible."""
        return np.concatenate([np.linalg.eigvals(b) for b in self.degree_blocks()])


def _forbidden_couplings(degree: np.ndarray, step: int) -> np.ndarray:
    """Mask of the couplings from column degree to row degree other than
    keeping it or changing it by `step`."""
    diff = degree[:, None] - degree[None, :]
    return (diff != 0) & (diff != step)


def verify_quadratic_form(sup: Superoperator, structure: StructureMatrix) -> QuadraticFormReport:
    """Rotate the generator sup to the P_alpha basis and compare it with the
    quadratic form of the structure matrix in the Fock maps, per parity sector;
    then rephase it to the Hermitian basis Q_alpha = i^{k(k-1)/2} P_alpha, where
    a Lindbladian is real (third quantisation: Prosen, NJP 10, 043026 (2008)),
    and measure how far its real sector blocks are from degree-triangular.
    The rephasing multiplies by +-1 and +-i, so it is exact."""
    n = sup.n
    T = fock_basis_transform(n)
    S_fock = T.conj().T @ sup.matrix @ T
    even = fock_parity_even(n)
    odd = ~even

    form_even = quadratic_form_matrix(structure.A, structure.A0, n)
    form_odd = quadratic_form_matrix(odd_sector_structure_matrix(structure), structure.A0, n)
    S_even = S_fock[np.ix_(even, even)]
    S_odd = S_fock[np.ix_(odd, odd)]
    res_even = float(np.abs(S_even - form_even[np.ix_(even, even)]).max())
    res_odd = float(np.abs(S_odd - form_odd[np.ix_(odd, odd)]).max())
    leak = float(
        max(
            np.abs(S_fock[np.ix_(even, odd)]).max(initial=0.0),
            np.abs(S_fock[np.ix_(odd, even)]).max(initial=0.0),
        )
    )
    phase = hermitian_phases(n)
    S_herm = S_fock * np.outer(phase.conj(), phase)
    scale = max(float(np.abs(S_herm).max()), 1.0)
    imaginary = float(np.abs(S_herm.imag).max()) / scale
    real_even = S_herm.real[np.ix_(even, even)]
    real_odd = S_herm.real[np.ix_(odd, odd)]
    degree = fock_degree(n)
    degree_leak = max(
        np.abs(real_even[_forbidden_couplings(degree[even], 2)]).max(initial=0.0),
        np.abs(real_odd[_forbidden_couplings(degree[odd], -2)]).max(initial=0.0),
    ) / scale
    Q = T * phase
    return QuadraticFormReport(
        n, res_even, res_odd, leak, imaginary, float(degree_leak),
        real_even, real_odd, Q[:, even], Q[:, odd],
    )


@dataclass(frozen=True)
class OracleNess:
    """Kernel of the dense generator and a stationary density matrix.

    rho is the unique steady state when kernel_dim == 1, otherwise the one the
    dynamics reaches from the maximally mixed state.  positive_witness_found
    records that its smallest eigenvalue passes -ORACLE_TOL_POS.  covariance
    is tr(w_j w_k rho).  kernel_vectors is an orthonormal kernel basis in the
    vec basis, the even sector's columns first.
    """

    kernel_dim: int
    rho: np.ndarray
    covariance: np.ndarray
    positive_witness_found: bool
    hermiticity_residual: float
    min_eigenvalue: float
    kernel_vectors: np.ndarray


def oracle_ness(qf: QuadraticFormReport) -> OracleNess:
    """Kernel basis of the generator and its steady state from 1/2^n.

    qf certifies that the generator is the direct sum of its two real parity
    blocks, so its kernel is the sum of theirs: one real SVD per sector, each
    cut against the larger top singular value.  The zero eigenvalue of a
    Lindbladian is semisimple, so with R and L the right and left null vectors
    of a block, P0 = R (L^T R)^-1 L^T projects onto its kernel along its range.
    P0 is the long-time average of the CPTP maps exp(tS), so rho = P0 vec(1/2^n)
    is a positive trace-one steady state (Albert and Jiang, PRA 89, 022118
    (2014)); 1/2^n is even, so only the even block's P0 acts on it.
    """
    n = qf.n
    dim = 2**n
    u, s_even, vt_even = np.linalg.svd(qf.even)
    _, s_odd, vt_odd = np.linalg.svd(qf.odd)
    cut = ORACLE_TOL_KERNEL * max(s_even[0], s_odd[0], 1.0)
    right = vt_even[s_even <= cut].T
    left = u[:, s_even <= cut].T  # L^T
    if right.shape[1] == 0:
        raise BuildInvariantViolated("generator has no even kernel; impossible for a Lindbladian")
    kernel = np.hstack([qf.even_basis @ right, qf.odd_basis @ vt_odd[s_odd <= cut].T])

    # 1/2^n = 2^{-n/2} Q_0, and Q_0 is the first even basis element
    mixed = np.zeros(len(s_even))
    mixed[0] = 2 ** (-n / 2)
    coeff = right @ np.linalg.solve(left @ right, left @ mixed)
    rho = (qf.even_basis @ coeff).reshape(dim, dim, order="F")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    w = majorana_ops(n).w
    C = np.array([[np.trace(wj @ wk @ rho) for wk in w] for wj in w])
    return OracleNess(
        kernel.shape[1],
        rho,
        C,
        min_eig >= -ORACLE_TOL_POS,
        float(np.abs(rho - rho.conj().T).max()),
        min_eig,
        kernel,
    )


def eigenvalue_multiset_from_enumeration(entries) -> np.ndarray:
    """Expand (lambda, subspace_dim) pairs to a flat eigenvalue multiset, in
    entry order (sorted by (Re, Im) for the entries of `enumerate_spectrum`)."""
    pairs = [(e.lam, e.subspace_dim) for e in entries]
    return np.repeat([lam for lam, _ in pairs], [dim for _, dim in pairs])


@dataclass(frozen=True)
class MultisetMatch:
    """A minimal-weight perfect matching of multisets a and b: matched[i] is the
    element of b paired with a[i], at distance deviations[i]."""

    matched: np.ndarray
    deviations: np.ndarray

    @property
    def deviation(self) -> float:
        """The largest distance of a matched pair."""
        return float(self.deviations.max(initial=0.0))


def match_multisets(a: np.ndarray, b: np.ndarray) -> MultisetMatch:
    """Minimal-weight perfect matching of two multisets of complex numbers."""
    from scipy.optimize import linear_sum_assignment

    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return MultisetMatch(b[cols], cost[rows, cols])


def match_spectrum(spectrum: SpectrumEnumeration, qf: QuadraticFormReport) -> MultisetMatch:
    """Match the expanded entries of `spectrum`, in entry order, against the
    eigenvalues of qf's degree blocks, each block against its own entries.

    The even block of degree k holds the entries of occupation number
    sum m_jk = k; the odd block of degree k those of occupation number 2n - k,
    since the odd sector's vacuum is the top monomial (its structure matrix
    has the driving flipped).
    """
    n = qf.n
    dims = spectrum.subspace_dim.astype(np.int64)
    theory = np.repeat(spectrum.lam, dims)
    occupation = np.repeat(spectrum.occupations().sum(axis=1), dims)
    matched = np.empty_like(theory)
    deviations = np.empty(len(theory))
    for k, block in enumerate(qf.degree_blocks()):
        members = np.flatnonzero(occupation == (k if k % 2 == 0 else 2 * n - k))
        match = match_multisets(theory[members], np.sort_complex(np.linalg.eigvals(block)))
        matched[members] = match.matched
        deviations[members] = match.deviations
    return MultisetMatch(matched, deviations)


@dataclass(frozen=True)
class SpectrumCheck:
    """The predicted spectrum against the matched dense eigenvalues, per
    merged group.

    Groups whose largest Jordan block is 1 are checked eigenvalue by
    eigenvalue (eigenvalue_deviation).  A Jordan block of size l spreads its
    group's dense eigenvalues by about (eps ||S||)^(1/l), but their mean, a
    trace over the invariant subspace, is well conditioned.  So each defective
    group is checked on its count, the dense eigenvalues nearer to it than to
    any other group, against its dimension (count_mismatches), and on the mean
    of its matched dense eigenvalues against merged_lam (group_mean_deviation).
    """

    eigenvalue_deviation: float
    group_mean_deviation: float
    defective_groups: int
    count_mismatches: int


def check_spectrum(spectrum: SpectrumEnumeration, match: MultisetMatch) -> SpectrumCheck:
    """Judge `match`, of the expanded entries of `spectrum` in entry order
    against the dense eigenvalues, group by merged group."""
    groups = len(spectrum.merged_lam)
    dims = spectrum.merged_dim.astype(np.int64)
    group = np.repeat(np.repeat(np.arange(groups), spectrum.contributors),
                      spectrum.subspace_dim.astype(np.int64))
    defective = spectrum.merged_block > 1
    nearest = np.abs(match.matched[:, None] - spectrum.merged_lam[None, :]).argmin(axis=1)
    counts = np.bincount(nearest, minlength=groups)
    means = (np.bincount(group, match.matched.real, groups)
             + 1j * np.bincount(group, match.matched.imag, groups)) / dims
    return SpectrumCheck(
        float(match.deviations[~defective[group]].max(initial=0.0)),
        float(np.abs(means - spectrum.merged_lam)[defective].max(initial=0.0)),
        int(np.count_nonzero(defective)),
        int(np.count_nonzero((counts != dims)[defective])),
    )


def largest_jordan_block_at(S: np.ndarray, lam: complex, multiplicity: int) -> int:
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
        rank = int(np.sum(sv > ORACLE_TOL_RANK * max(sv[0], 1.0)))
        nullity = d - rank
        if nullity == prev:
            return k - 1
        if nullity >= multiplicity:
            return k
        prev = nullity
    return multiplicity
