"""Brute-force ground truth at small fermion number.

Explicit Jordan-Wigner Majorana matrices on the 2^n Hilbert space, the dense
4^n x 4^n Lindblad superoperator (column-stacked vec convention), the
Majorana maps on the operator Fock basis P_alpha as signed permutations, and
the comparisons that pin the fast path: the quadratic-form identity per parity
sector, spectrum multisets, and steady-state correlators.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BuildInvariantViolated, InputError, TooLarge
from .model import (
    BathMatrices,
    QuadraticLindbladModel,
    StructureMatrix,
    build_bath_matrices,
    build_structure_matrix,
    odd_sector_structure_matrix,
)
from .tolerances import ORACLE_TOL_RANK

DEFAULT_NMAX = 5

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def resolve_nmax(n_max: int | None = None) -> int:
    """n_max if given, else LIOUV_NMAX if set (a positive integer), else DEFAULT_NMAX."""
    if n_max is not None:
        return n_max
    env = os.environ.get("LIOUV_NMAX")
    try:
        value = int(env or DEFAULT_NMAX)
    except ValueError:
        value = 0
    if value < 1:
        raise InputError(f"LIOUV_NMAX: expected a positive integer, got {env!r}")
    return value


def check_size(n: int, n_max: int | None = None):
    """Raise TooLarge when n exceeds the oracle limit `resolve_nmax(n_max)`."""
    limit = resolve_nmax(n_max)
    if n > limit:
        raise TooLarge(f"n = {n} exceeds the oracle limit n_max = {limit}")


@dataclass(frozen=True)
class MajoranaRep:
    """2n Hermitian anticommuting matrices on the 2^n-dimensional Hilbert space."""

    n: int
    w: tuple[np.ndarray, ...]


def majorana_ops(n: int, n_max: int | None = None) -> MajoranaRep:
    """Jordan-Wigner Majoranas: w_{2j-1}, w_{2j} act on site j with sigma^3
    strings on the sites before it."""
    check_size(n, n_max)
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


def build_superoperator(model: QuadraticLindbladModel, n_max: int | None = None) -> Superoperator:
    """Assemble the Lindblad generator as a 4^n x 4^n matrix.

    vec is column stacking, so A rho B maps to kron(B^T, A).  The trace
    functional must annihilate the generator from the left (machine
    precision); a violation means the assembly is broken.
    """
    check_size(model.n, n_max)
    rep = majorana_ops(model.n, n_max)
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
    if residual > 1e-10:
        raise BuildInvariantViolated(
            f"superoperator is not trace-preserving: residual {residual:.3e}"
        )
    return Superoperator(model.n, S, residual)


def _alpha_bits(n: int) -> np.ndarray:
    """Occupations of the P_alpha basis, (2n, 4^n): alpha_{j+1} of basis index
    idx is bit j of idx."""
    return (np.arange(4**n)[None, :] >> np.arange(2 * n)[:, None]) & 1


def pauli_basis_matrices(n: int, n_max: int | None = None) -> list[np.ndarray]:
    """Orthonormal Majorana monomials P_alpha = 2^{-n/2} w_1^a1 ... w_2n^a2n."""
    check_size(n, n_max)
    rep = majorana_ops(n, n_max)
    dim = 2**n
    out = []
    for alpha in _alpha_bits(n).T:
        mat = np.eye(dim, dtype=complex) * 2 ** (-n / 2)
        for j, bit in enumerate(alpha):
            if bit:
                mat = mat @ rep.w[j]
        out.append(mat)
    return out


def fock_basis_transform(n: int, n_max: int | None = None) -> np.ndarray:
    """Unitary T with columns vec(P_alpha): maps P_alpha coefficients to vec."""
    mats = pauli_basis_matrices(n, n_max)
    return np.column_stack([m.reshape(-1, order="F") for m in mats])


def fock_parity_even(n: int) -> np.ndarray:
    """Mask of the even-parity P_alpha, (-1)^{|alpha|} = 1."""
    return _alpha_bits(n).sum(axis=0) % 2 == 0


def fock_majoranas(n: int, n_max: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The 4n Hermitian Majorana maps a_p of the operator Fock space, each a
    signed permutation: a_p sends P_col to values[p, col] P_{col ^ flips[p]}.

    a_j = (c_j + c_j')/sqrt2 and a_{2n+j} = i(c_j - c_j')/sqrt2 for j < 2n, the
    structure-matrix ordering; c_j clears bit j of alpha and c_j' sets it, both
    with the Jordan-Wigner sign (-1)^(alpha_1 + ... + alpha_j) of the bits below.
    """
    check_size(n, n_max)
    d = 2 * n
    bits = _alpha_bits(n)
    sign = 1 - 2 * ((np.cumsum(bits, axis=0) - bits) % 2)
    h = 1 / np.sqrt(2)
    values = np.concatenate([sign * h + 0j, 1j * (sign * (2 * bits - 1)) * h])
    flips = np.tile(1 << np.arange(d), 2)
    return flips, values


def quadratic_form_matrix(
    sm_A: np.ndarray, A0: float, n: int, n_max: int | None = None
) -> np.ndarray:
    """sum_pq A_pq a_p a_q - A_0 on the P_alpha basis.

    Scattered from `fock_majoranas` in O((4n)^2 4^n): column col of
    sum_q A_pq a_q has the entry A_pj a_j + A_p,j+2n a_{j+2n} at row
    col ^ flips[j], and a_p moves it to row col ^ flips[j] ^ flips[p].  The
    arithmetic is that of the dense loop -A_0 + sum_p a_p @ (sum_q A_pq a_q)
    in the same order, so the result equals it bit for bit.
    """
    flips, values = fock_majoranas(n, n_max)
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


def verify_quadratic_form(
    model: QuadraticLindbladModel,
    n_max: int | None = None,
    bath: BathMatrices | None = None,
    structure: StructureMatrix | None = None,
    superoperator: Superoperator | None = None,
) -> QuadraticFormReport:
    """Compare the dense generator, rotated to the P_alpha basis, with the
    quadratic form in the Fock maps, per parity sector.  A given superoperator
    is used as the generator instead of building one."""
    check_size(model.n, n_max)
    bath = bath if bath is not None else build_bath_matrices(model)
    structure = structure if structure is not None else build_structure_matrix(model, bath)
    sup = superoperator if superoperator is not None else build_superoperator(model, n_max)
    T = fock_basis_transform(model.n, n_max)
    S_fock = T.conj().T @ sup.matrix @ T
    even = fock_parity_even(model.n)
    odd = ~even

    form_even = quadratic_form_matrix(structure.A, structure.A0, model.n, n_max)
    form_odd = quadratic_form_matrix(
        odd_sector_structure_matrix(structure), structure.A0, model.n, n_max
    )
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

    rho is the unique steady state when kernel_dim == 1, otherwise a positive
    trace-one witness found by a coarse grid scan over the traceless kernel
    directions (positive_witness_found False when the scan fails; not fatal).
    covariance is tr(w_j w_k rho) for the returned rho.
    """

    kernel_dim: int
    rho: np.ndarray | None
    covariance: np.ndarray | None
    positive_witness_found: bool
    hermiticity_residual: float
    min_eigenvalue: float
    kernel_vectors: np.ndarray


def _hermitian_kernel_basis(kernel: np.ndarray, dim: int) -> list[np.ndarray]:
    """Real-orthonormal basis of Hermitian matrices spanning the kernel."""
    k = kernel.shape[1]
    candidates = []
    for i in range(k):
        rho = kernel[:, i].reshape(dim, dim, order="F")
        candidates.append((rho + rho.conj().T) / 2)
        candidates.append((rho - rho.conj().T) / 2j)
    stacked = np.column_stack(
        [np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)]) for m in candidates]
    )
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    basis = []
    for i in range(k):
        if s[i] <= s[0] * 1e-10:
            break
        v = u[:, i]
        m = v[: dim * dim].reshape(dim, dim) + 1j * v[dim * dim:].reshape(dim, dim)
        basis.append((m + m.conj().T) / 2)
    return basis


def oracle_ness(
    model: QuadraticLindbladModel,
    n_max: int | None = None,
    tol_kernel: float = 1e-9,
    tol_pos: float = 1e-9,
    grid_points: int = 41,
    superoperator: Superoperator | None = None,
) -> OracleNess:
    """Kernel basis of the generator and a trace-one positive element.

    For a degenerate kernel the scan covers up to two traceless Hermitian
    directions on a coarse grid, positivity-checked; with more directions
    only the trace-normalized base point is tried.  A given superoperator is
    used as the generator instead of building one.
    """
    check_size(model.n, n_max)
    sup = superoperator if superoperator is not None else build_superoperator(model, n_max)
    dim = 2**model.n
    _, s, vh = np.linalg.svd(sup.matrix)
    null_mask = s <= tol_kernel * max(s[0], 1.0)
    kernel = vh[null_mask].conj().T
    kdim = kernel.shape[1]
    if kdim == 0:
        raise BuildInvariantViolated("generator has no kernel; impossible for a Lindbladian")

    basis = _hermitian_kernel_basis(kernel, dim)
    traces = np.array([np.trace(b).real for b in basis])
    norm2 = float(traces @ traces)
    if norm2 < 1e-20:
        return OracleNess(kdim, None, None, False, np.inf, -np.inf, kernel)
    base = sum(t / norm2 * b for t, b in zip(traces, basis))
    # traceless kernel directions: project the trace component out and SVD-reduce
    projected = [b - t * base for t, b in zip(traces, basis)]
    stacked = np.column_stack(
        [np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)]) for m in projected]
    )
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    traceless = []
    for i in range(kdim - 1):
        if i < len(s) and s[i] > max(s[0], 1.0) * 1e-10:
            v = u[:, i]
            m = v[: dim * dim].reshape(dim, dim) + 1j * v[dim * dim:].reshape(dim, dim)
            traceless.append((m + m.conj().T) / 2)

    def herm_residual(m):
        return float(np.abs(m - m.conj().T).max())

    def try_rho(rho):
        eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        return float(eigs.min())

    candidates = [base]
    if 1 <= len(traceless) <= 2:
        spread = np.abs(np.linalg.eigvalsh(base)).max() + tol_pos
        axes = []
        for t in traceless:
            tmax = np.abs(np.linalg.eigvalsh(t)).max()
            axes.append(np.linspace(-2 * spread / tmax, 2 * spread / tmax, grid_points))
        for coeffs in itertools.product(*axes):
            candidates.append(base + sum(c * t for c, t in zip(coeffs, traceless)))

    rho_found = None
    best_min = -np.inf
    for rho in candidates:
        mn = try_rho(rho)
        best_min = max(best_min, mn)
        if mn >= -tol_pos:
            rho_found = rho
            break

    if rho_found is None:
        return OracleNess(kdim, None, None, False, herm_residual(base), best_min, kernel)

    rho_found = rho_found / np.trace(rho_found).real
    rep = majorana_ops(model.n, n_max)
    d = model.dim
    C = np.array(
        [[np.trace(rep.w[j] @ rep.w[k] @ rho_found) for k in range(d)] for j in range(d)]
    )
    return OracleNess(
        kdim,
        rho_found,
        C,
        True,
        herm_residual(rho_found),
        try_rho(rho_found),
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


def largest_jordan_block_at(
    S: np.ndarray, lam: complex, multiplicity: int, tol_rank: float = ORACLE_TOL_RANK
) -> int:
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
