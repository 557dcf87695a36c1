"""Brute-force ground truth at small fermion number.

Two bases: the Majorana monomials P_alpha = 2^{-n/2} w_1^a1 ... w_2n^a2n,
on which multiplication by a Majorana and the Fock maps are signed
permutations, and the Hermitian basis Q_alpha = i^{k(k-1)/2} P_alpha
(k = |alpha|) of third quantisation (Prosen, NJP 10, 043026 (2008)), in
which a Lindbladian is real.  The Lindblad generator, from K and the Lindblad
vectors alone, and the quadratic form of the structure matrix are each a sum
of two bit flips, so one scatter builds either on one parity sector, in
Q_alpha; no 4^n x 4^n matrix is formed.  The checks compare the two per
sector and read the kernel off one real SVD per sector and the spectrum off
the 2n+1 diagonal degree blocks, as each sector block is triangular in the
Majorana degree.  Every check takes the generator it checks, built once by
`build_superoperator`.  The steady state's two-point functions are its
degree-2 coefficients; its 2^n x 2^n matrix, for the positivity witness,
comes from the Jordan-Wigner bit rules of the w_j.  A multiset matching
imports scipy's assignment solver only when two nearest elements clash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BuildInvariantViolated, InputError, TooLarge
from .model import QuadraticLindbladModel, StructureMatrix, odd_sector_structure_matrix
from .spectra import SpectrumEnumeration
from .tolerances import ORACLE_TOL_KERNEL, ORACLE_TOL_POS, ORACLE_TOL_TRACE

DEFAULT_NMAX = 5


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
class Superoperator:
    """The Lindblad generator rho -> L rho on its two parity sectors: even and
    odd are its complex sector blocks in the Hermitian basis Q_alpha, each in
    order of alpha.  It has no entry between the sectors."""

    n: int
    even: np.ndarray
    odd: np.ndarray
    trace_preservation_residual: float


def _alpha_bits(n: int) -> np.ndarray:
    """Occupations of the P_alpha basis, (2n, 4^n): alpha_{j+1} of basis index
    idx is bit j of idx."""
    return (np.arange(4**n)[None, :] >> np.arange(2 * n)[:, None]) & 1


def _jordan_wigner_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(-1)^(bits of alpha below j) and (-1)^(bits above j), each (2n, 4^n)."""
    bits = _alpha_bits(n)
    below = np.cumsum(bits, axis=0) - bits
    above = bits.sum(axis=0) - below - bits
    return 1 - 2 * (below % 2), 1 - 2 * (above % 2)


def _two_flips(C: np.ndarray, values: np.ndarray, n: int, even: bool,
               diagonal: float = 0.0) -> np.ndarray:
    """diagonal + sum_{ts,jk} C[t, s, j, k] F_{t,j} F_{s,k} on the Hermitian
    basis Q_alpha of the even (or odd) parity sector, the sector's block in
    order of alpha.

    Each map F_{t,j} flips bit j of alpha: it sends P_col to
    values[t, j, col] P_{col ^ 2^j}.  So two maps keep the parity, and
    column col of sum_{s,k} C[t, s, j, k] F_{s,k} has the entry
    C[t, 0, j, k] values[0, k, col] + C[t, 1, j, k] values[1, k, col] at row
    col ^ 2^k; F_{t,j} moves it to row col ^ 2^k ^ 2^j.  The block is
    scattered on P_alpha, in O(d^2 4^n), and rephased to Q_alpha at the end:
    the rephasing multiplies by +-1 and +-i, so it is exact.
    """
    d = 2 * n
    sector = fock_parity_even(n) == even
    cols = np.flatnonzero(sector)
    local = np.cumsum(sector) - 1  # position of each sector alpha in the block
    col_values = values[:, :, cols]
    mid = cols ^ (1 << np.arange(d))[:, None]
    out = np.diag(np.full(len(cols), diagonal, dtype=complex))
    block_cols = np.arange(len(cols))
    for t, j in np.ndindex(2, d):
        combo = C[t, 0, j, :, None] * col_values[0] + C[t, 1, j, :, None] * col_values[1]
        out[local[mid ^ (1 << j)], block_cols] += values[t, j][mid] * combo
    phase = hermitian_phases(n)[sector]
    out *= phase.conj()[:, None]
    out *= phase
    return out


def build_superoperator(model: QuadraticLindbladModel) -> Superoperator:
    """Scatter the Lindblad generator on the two parity sectors, from K and
    the Lindblad vectors alone.

    Left and right multiplication by w_j, L_j and R_j, flip bit j of alpha
    with the sign of the bits below j (L_j) or above j (R_j) (third
    quantisation: Prosen, NJP 10, 043026 (2008)).  With H = i sum K_jk w_j w_k
    and M = sum_mu l_mu conj(l_mu)^T the generator is
    sum_jk (K - M^T)_jk L_j L_k + 2 M_jk L_j R_k + (K - M)_jk R_j R_k,
    a sum of two flips.  tr P_alpha vanishes unless alpha = 0, so row 0 of a
    trace-preserving generator vanishes (machine precision); a violation
    means the assembly is broken.
    """
    check_size(model.n)
    d = model.dim
    l = np.reshape(model.lindblad_vectors, (-1, d))
    M = l.T @ l.conj()
    C = np.array([[model.K - M.T, 2 * M], [0 * M, model.K - M]])
    values = np.stack(_jordan_wigner_signs(model.n))
    even, odd = (_two_flips(C, values, model.n, is_even) for is_even in (True, False))
    scale = max(np.abs(even).max(), np.abs(odd).max(), 1.0)
    residual = float(np.abs(even[0]).max() / scale)
    if residual > ORACLE_TOL_TRACE:
        raise BuildInvariantViolated(
            f"superoperator is not trace-preserving: residual {residual:.3e}"
        )
    return Superoperator(model.n, even, odd, residual)


def fock_operator(coeff: np.ndarray, n: int) -> np.ndarray:
    """The 2^n x 2^n operator sum_alpha coeff_alpha P_alpha.

    Site j is bit n-1-j of the Hilbert-space index.  The Jordan-Wigner
    Majoranas w_2j = Z...Z X and w_2j+1 = Z...Z Y flip that bit with the sign
    (-1)^(occupied sites before j), w_2j+1 times i on an empty site and -i on
    an occupied one, so P_alpha has one nonzero per column, as each w_j does.
    The monomials with highest Majorana j are those below j times w_j on the
    right, so 2n doublings give the rows and values of all 4^n, in O(2^n 4^n).
    """
    check_size(n)
    dim = 2**n
    cols = np.arange(dim)
    rows = cols[None]
    values = np.full((1, dim), 2 ** (-n / 2), dtype=complex)
    before = np.zeros(dim, dtype=np.int64)  # parity of the occupied sites before j
    for j in range(n):
        occupied = (cols >> (n - 1 - j)) & 1
        flipped = cols ^ (1 << (n - 1 - j))
        sign = 1 - 2 * before
        # (P w_j)[:, c] is P's column flipped(c) times w_j's value in column c
        for wj in (sign + 0j, 1j * sign * (1 - 2 * occupied)):
            rows = np.concatenate([rows, rows[:, flipped]])
            values = np.concatenate([values, values[:, flipped] * wj])
        before ^= occupied
    out = np.zeros(dim * dim, dtype=complex)
    np.add.at(out, rows * dim + cols, coeff[:, None] * values)
    return out.reshape(dim, dim)


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


def fock_majoranas(n: int) -> np.ndarray:
    """The 4n Hermitian Majorana maps a_p of the operator Fock space, each a
    signed permutation: a_p sends P_col to values[p, col] P_{col ^ 2^(p mod 2n)}.

    a_j = (c_j + c_j')/sqrt2 and a_{2n+j} = i(c_j - c_j')/sqrt2 for j < 2n, the
    structure-matrix ordering; c_j clears bit j of alpha and c_j' sets it, both
    with the Jordan-Wigner sign (-1)^(alpha_1 + ... + alpha_j) of the bits below.
    """
    check_size(n)
    sign, _ = _jordan_wigner_signs(n)
    h = 1 / np.sqrt(2)
    return np.concatenate([sign * h + 0j, 1j * (sign * (2 * _alpha_bits(n) - 1)) * h])


def quadratic_form_matrix(sm_A: np.ndarray, A0: float, n: int, even: bool) -> np.ndarray:
    """sum_pq A_pq a_p a_q - A_0 on the Hermitian basis Q_alpha of the even
    (or odd) parity sector, the sector's block in order of alpha.

    Each a_p flips one bit of alpha, so the form keeps the parity and is the
    direct sum of its two sector blocks, each a `_two_flips` scatter with the
    maps (a_j, a_{j+2n}) and A as C.  Its arithmetic is that of the dense loop
    -A_0 + sum_p a_p @ (sum_q A_pq a_q) in the same order, so the block equals
    the dense loop's, rephased, bit for bit.
    """
    d = 2 * n
    C = sm_A.reshape(2, d, 2, d).transpose(0, 2, 1, 3)
    return _two_flips(C, fock_majoranas(n).reshape(2, d, -1), n, even, -A0)


@dataclass(frozen=True)
class QuadraticFormReport:
    """The generator in the Hermitian basis, and the certificates that make
    the diagonal degree blocks of its two real parity blocks its spectrum.

    The quadratic-form identity holds on the even-parity sector with the
    structure matrix A, and on the odd sector with the driving-flipped matrix;
    `residual` is the max of the two.  imaginary_residual measures how well
    the generator maps Hermitian operators to Hermitian ones: max|Im Q^dag S Q|
    over max(max|S|, 1), machine precision.  degree_leak is the largest
    coupling, on the same scale, that the grading forbids: the even block
    keeps the Majorana degree or raises it by 2 (the driving), the odd block
    keeps it or lowers it by 2.  even and odd are the real parts of the
    generator's blocks on the two sectors in the Hermitian basis Q_alpha.
    """

    n: int
    residual_even: float
    residual_odd: float
    imaginary_residual: float
    degree_leak: float
    even: np.ndarray = field(repr=False, compare=False)
    odd: np.ndarray = field(repr=False, compare=False)

    @property
    def residual(self) -> float:
        return max(self.residual_even, self.residual_odd)

    def degree_blocks(self) -> list[np.ndarray]:
        """The 2n+1 diagonal blocks of degree k = 0..2n, of size C(2n, k):
        from the even block for even k, from the odd block for odd k."""
        degree = fock_degree(self.n)
        blocks = []
        for k in range(2 * self.n + 1):
            idx = np.flatnonzero(degree[degree % 2 == k % 2] == k)
            blocks.append((self.odd if k % 2 else self.even)[np.ix_(idx, idx)])
        return blocks

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the generator, degree block by degree block in
        order of k; the whole spectrum only while imaginary_residual and
        degree_leak are negligible."""
        return np.concatenate([np.linalg.eigvals(b) for b in self.degree_blocks()])


def verify_quadratic_form(sup: Superoperator, structure: StructureMatrix) -> QuadraticFormReport:
    """Compare the generator sup with the quadratic form of the structure
    matrix in the Fock maps, per parity sector, in the Hermitian basis
    Q_alpha = i^{k(k-1)/2} P_alpha, where a Lindbladian is real (third
    quantisation: Prosen, NJP 10, 043026 (2008)); then measure how far the
    real blocks are from degree-triangular."""
    n = sup.n
    degree = fock_degree(n)
    scale = max(np.abs(sup.even).max(), np.abs(sup.odd).max(), 1.0)

    def check_sector(block, is_even, A, step):
        """(residual, imaginary, leak, real block) of one sector, the leak over
        the couplings that neither keep the degree nor change it by step; its
        temporaries are freed before the next sector's."""
        form = quadratic_form_matrix(A, structure.A0, n, is_even)
        residual = float(np.abs(np.subtract(block, form, out=form)).max())
        del form
        real = np.ascontiguousarray(block.real)
        sector_degree = degree[(degree % 2 == 0) == is_even]
        diff = sector_degree[:, None] - sector_degree[None, :]
        forbidden = real[(diff != 0) & (diff != step)]
        return (residual, float(np.abs(block.imag).max()) / scale,
                float(np.abs(forbidden).max(initial=0.0)) / scale, real)

    residual, imaginary, leak, real = zip(
        check_sector(sup.even, True, structure.A, 2),
        check_sector(sup.odd, False, odd_sector_structure_matrix(structure), -2),
    )
    return QuadraticFormReport(n, *residual, max(imaginary), max(leak), *real)


@dataclass(frozen=True)
class OracleNess:
    """Kernel of the dense generator and a stationary density matrix.

    rho is the unique steady state when kernel_dim == 1, otherwise the one the
    dynamics reaches from the maximally mixed state.  positive_witness_found
    records that its smallest eigenvalue passes -ORACLE_TOL_POS.  covariance
    is tr(w_j w_k rho), read off the P_alpha coefficients of rho.
    kernel_vectors is an orthonormal kernel basis of P_alpha coefficients, the
    even sector's columns first.
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

    The generator is the direct sum of its two parity blocks, which qf
    certifies real, so its kernel is the sum of theirs: one real SVD per
    sector, each cut against the larger top singular value.  The zero eigenvalue of a
    Lindbladian is semisimple, so with R and L the right and left null vectors
    of a block, P0 = R (L^T R)^-1 L^T projects onto its kernel along its range.
    P0 is the long-time average of the CPTP maps exp(tS), so rho = P0 (1/2^n)
    is a positive trace-one steady state (Albert and Jiang, PRA 89, 022118
    (2014)); 1/2^n is even, so only the even block's P0 acts on it.
    """
    n = qf.n
    even = fock_parity_even(n)
    phase = hermitian_phases(n)

    def on_fock(q, sector):
        """Q_alpha coefficients of a sector, as columns, to P_alpha ones."""
        p = np.zeros((4**n, q.shape[1]), dtype=complex)
        p[sector] = phase[sector, None] * q
        return p

    u, s_even, vt_even = np.linalg.svd(qf.even)
    _, s_odd, vt_odd = np.linalg.svd(qf.odd)
    cut = ORACLE_TOL_KERNEL * max(s_even[0], s_odd[0], 1.0)
    right = vt_even[s_even <= cut].T
    left = u[:, s_even <= cut].T  # L^T
    if right.shape[1] == 0:
        raise BuildInvariantViolated("generator has no even kernel; impossible for a Lindbladian")
    kernel = np.hstack([on_fock(right, even), on_fock(vt_odd[s_odd <= cut].T, ~even)])

    # 1/2^n = 2^{-n/2} Q_0, and Q_0 is the first even basis element
    mixed = np.zeros((len(s_even), 1))
    mixed[0] = 2 ** (-n / 2)
    coeff = on_fock(right @ np.linalg.solve(left @ right, left @ mixed), even)
    rho = fock_operator(coeff[:, 0], n)
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    # w_j w_k = 2^{n/2} P_{e_j+e_k} for j < k, and P_{e_j+e_k} is anti-Hermitian
    j, k = np.triu_indices(2 * n, 1)
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    C[j, k] = -(2 ** (n / 2)) * coeff[(1 << j) | (1 << k), 0]
    C = C - C.T
    np.fill_diagonal(C, np.trace(rho))
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
    """Minimal-weight perfect matching of two multisets of complex numbers.

    When the nearest element of b to each element of a (the first one on a
    tie) is a different one for every element, that choice is the matching:
    it puts every pair at its row minimum, so it is optimal, and it is the
    only optimum, since moving a cycle of pairs to other row minima would
    need each of them to move to a later column.  Only a contested nearest
    choice needs scipy's assignment solver, imported then.
    """
    if len(a) != len(b):
        raise ValueError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    cost = np.abs(a[:, None] - b[None, :])
    rows = np.arange(len(a))
    cols = cost.argmin(axis=1) if len(a) else rows
    if np.unique(cols).size < len(cols):
        from scipy.optimize import linear_sum_assignment

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
