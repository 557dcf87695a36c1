"""Brute-force ground truth at small fermion number.

Explicit Jordan-Wigner Majorana matrices on the 2^n Hilbert space, the dense
4^n x 4^n Lindblad superoperator (column-stacked vec convention), the
Majorana maps on the operator Fock basis P_alpha as signed permutations, and
the comparisons that pin the fast path: the quadratic-form identity per parity
sector, spectrum multisets, and steady-state correlators.  Every check takes
the generator it checks, built once by `build_superoperator`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BuildInvariantViolated, InputError, TooLarge
from .model import QuadraticLindbladModel, StructureMatrix, odd_sector_structure_matrix
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
    strings on the sites before it."""
    check_size(n)
    ws = []
    for j in range(n):
        string = [_SIGMA3] * j
        for op in (_SIGMA1, _SIGMA2):
            factors = string + [op] + [np.eye(2, dtype=complex)] * (n - j - 1)
            mat = factors[0]
            for f in factors[1:]:
                mat = np.kron(mat, f)
            ws.append(mat)
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


def pauli_basis_matrices(n: int) -> list[np.ndarray]:
    """Orthonormal Majorana monomials P_alpha = 2^{-n/2} w_1^a1 ... w_2n^a2n."""
    rep = majorana_ops(n)
    dim = 2**n
    out = []
    for alpha in _alpha_bits(n).T:
        mat = np.eye(dim, dtype=complex) * 2 ** (-n / 2)
        for j, bit in enumerate(alpha):
            if bit:
                mat = mat @ rep.w[j]
        out.append(mat)
    return out


def fock_basis_transform(n: int) -> np.ndarray:
    """Unitary T with columns vec(P_alpha): maps P_alpha coefficients to vec."""
    mats = pauli_basis_matrices(n)
    return np.column_stack([m.reshape(-1, order="F") for m in mats])


def fock_parity_even(n: int) -> np.ndarray:
    """Mask of the even-parity P_alpha, (-1)^{|alpha|} = 1."""
    return _alpha_bits(n).sum(axis=0) % 2 == 0


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
    """Residuals of the quadratic-form identity against the dense generator.

    The identity holds on the even-parity sector with the structure matrix A,
    and on the odd sector with the driving-flipped matrix; `residual` is the
    max of the two.  parity_leak measures how well the dense generator itself
    preserves parity (machine precision).  even and odd are the generator's
    blocks on the two sectors in the P_alpha basis.
    """

    residual_even: float
    residual_odd: float
    parity_leak: float
    even: np.ndarray = field(repr=False, compare=False)
    odd: np.ndarray = field(repr=False, compare=False)

    @property
    def residual(self) -> float:
        return max(self.residual_even, self.residual_odd)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the generator, sector by sector; the whole spectrum
        only while parity_leak is negligible."""
        return np.concatenate([np.linalg.eigvals(self.even), np.linalg.eigvals(self.odd)])


def verify_quadratic_form(sup: Superoperator, structure: StructureMatrix) -> QuadraticFormReport:
    """Compare the generator sup, rotated to the P_alpha basis, with the
    quadratic form of the structure matrix in the Fock maps, per parity sector."""
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
    return QuadraticFormReport(res_even, res_odd, leak, S_even, S_odd)


@dataclass(frozen=True)
class OracleNess:
    """Kernel of the dense generator and a stationary density matrix.

    rho is the unique steady state when kernel_dim == 1, otherwise the one the
    dynamics reaches from the maximally mixed state.  positive_witness_found
    records that its smallest eigenvalue passes -ORACLE_TOL_POS.  covariance
    is tr(w_j w_k rho).
    """

    kernel_dim: int
    rho: np.ndarray
    covariance: np.ndarray
    positive_witness_found: bool
    hermiticity_residual: float
    min_eigenvalue: float
    kernel_vectors: np.ndarray


def oracle_ness(sup: Superoperator) -> OracleNess:
    """Kernel basis of the generator sup and its steady state from 1/2^n.

    The zero eigenvalue of a Lindbladian is semisimple, so with R and L the
    right and left null vectors of S, P0 = R (L^dag R)^-1 L^dag projects onto
    ker S along ran S.  P0 is the long-time average of the CPTP maps exp(tS),
    so rho = P0 vec(1/2^n) is a positive trace-one steady state (Albert and
    Jiang, PRA 89, 022118 (2014)).
    """
    dim = 2**sup.n
    u, s, vh = np.linalg.svd(sup.matrix)
    null_mask = s <= ORACLE_TOL_KERNEL * max(s[0], 1.0)
    kernel = vh[null_mask].conj().T
    left = u[:, null_mask].conj().T  # L^dag
    kdim = kernel.shape[1]
    if kdim == 0:
        raise BuildInvariantViolated("generator has no kernel; impossible for a Lindbladian")

    mixed = np.eye(dim).reshape(-1) / dim
    rho = (kernel @ np.linalg.solve(left @ kernel, left @ mixed)).reshape(dim, dim, order="F")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    w = majorana_ops(sup.n).w
    C = np.array([[np.trace(wj @ wk @ rho) for wk in w] for wj in w])
    return OracleNess(
        kdim,
        rho,
        C,
        min_eig >= -ORACLE_TOL_POS,
        float(np.abs(rho - rho.conj().T).max()),
        min_eig,
        kernel,
    )


def eigenvalue_multiset_from_enumeration(entries) -> np.ndarray:
    """Expand (lambda, subspace_dim) pairs to a flat eigenvalue multiset."""
    out = []
    for e in entries:
        out.extend([e.lam] * e.subspace_dim)
    return np.array(sorted(out, key=lambda z: (z.real, z.imag)))


def match_multisets(a: np.ndarray, b: np.ndarray) -> float:
    """Max deviation under minimal-weight perfect matching of two multisets."""
    from scipy.optimize import linear_sum_assignment

    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


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
