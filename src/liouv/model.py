"""Model input and the derived matrices of the quadratic Liouvillean.

A model is the real antisymmetric Hamiltonian kernel K (the Hamiltonian is
H = w.(iK)w in Majorana operators) together with the Lindblad coupling
vectors l_mu (L_mu = l_mu.w).  From these the bath matrices M, M_r, M_i, the
real matrix X = 2K + 2M_r and the antisymmetric 4n x 4n structure matrix A
with its scalar A_0 are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BuildInvariantViolated, DimensionMismatch, InputError, NotAntisymmetric
from .tolerances import BATH_PSD_MARGIN, INPUT_ANTISYMMETRY_MAX, STRUCTURE_INVARIANT_MAX


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadraticLindbladModel:
    """Validated input: fermion count, Hamiltonian kernel, coupling vectors."""

    n: int
    K: np.ndarray
    lindblad_vectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class BathMatrices:
    """M = sum_mu l_mu (x) conj(l_mu) and its real/imaginary parts."""

    M: np.ndarray
    M_r: np.ndarray
    M_i: np.ndarray


@dataclass(frozen=True)
class StructureMatrix:
    """Antisymmetric 4n x 4n quadratic-form matrix A and the scalar A_0 = 2 tr M_r."""

    A: np.ndarray
    A0: float


def _finite(name: str, value: np.ndarray) -> np.ndarray:
    """value, or InputError naming it when an entry overflowed."""
    if not np.isfinite(value).all():
        raise InputError(f"{name} overflows: an entry is not a finite float")
    return value


def validate_model(n: int, K: np.ndarray, lindblad_vectors) -> QuadraticLindbladModel:
    """Check shapes, finiteness and antisymmetry; return the model with K
    antisymmetrized.

    The antisymmetry limit INPUT_ANTISYMMETRY_MAX is relative to max|K|.
    Raises DimensionMismatch, NotAntisymmetric or InputError (NaN or
    infinite entries, or an antisymmetrized K that overflows) on bad input.
    """
    if n < 1:
        raise DimensionMismatch(f"n must be a positive integer, got {n}")
    K = np.asarray(K, dtype=float)
    d = 2 * n
    if K.shape != (d, d):
        raise DimensionMismatch(f"K must be {d}x{d}, got {K.shape}")
    if not np.isfinite(K).all():
        raise InputError("K has a NaN or infinite entry")
    scale = max(np.abs(K).max(), 1.0)
    with np.errstate(over="ignore"):
        asym = np.abs(K + K.T).max()
        antisymmetric = _finite("the antisymmetrized K, (K - K^T)/2", (K - K.T) / 2)
    if asym > INPUT_ANTISYMMETRY_MAX * scale:
        raise NotAntisymmetric(
            f"max|K + K^T| = {asym:.3e} exceeds {INPUT_ANTISYMMETRY_MAX:.1e} * max|K|"
        )
    vectors = []
    for mu, l in enumerate(lindblad_vectors):
        l = np.asarray(l, dtype=complex)
        if l.shape != (d,):
            raise DimensionMismatch(
                f"Lindblad vector {mu} must have length {d}, got shape {l.shape}"
            )
        if not np.isfinite(l).all():
            raise InputError(f"Lindblad vector {mu} has a NaN or infinite entry")
        vectors.append(_frozen(l))
    return QuadraticLindbladModel(n, _frozen(antisymmetric), tuple(vectors))


def build_bath_matrices(model: QuadraticLindbladModel) -> BathMatrices:
    """Assemble M = sum_mu l_mu (x) conj(l_mu); PSD by construction, asserted
    anyway.  Raises InputError when M overflows."""
    d = model.dim
    M = np.zeros((d, d), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for l in model.lindblad_vectors:
            M += np.outer(l, l.conj())
        M_r = (M + M.conj()).real / 2
        M_i = ((M - M.conj()) / 2j).real
    _finite("the bath matrix M", M)
    if model.lindblad_vectors:
        scale = max(np.abs(M).max(), 1.0)
        lam_min = np.linalg.eigvalsh(M).min()
        if lam_min < -BATH_PSD_MARGIN * scale:
            raise BuildInvariantViolated(
                f"bath matrix not PSD: min eigenvalue {lam_min:.3e}"
            )
    return BathMatrices(_frozen(M), _frozen(M_r), _frozen(M_i))


def build_X(model: QuadraticLindbladModel, bath: BathMatrices) -> np.ndarray:
    """X = 2K + 2M_r; real, with X + X^T = 4 M_r >= 0.  Raises InputError when
    X or its trace, A_0 = 2 tr M_r, overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        X = _finite("X = 2K + 2M_r", 2 * model.K + 2 * bath.M_r)
        _finite("A_0 = tr X", np.trace(X))
    return _frozen(X)


def skew_unit(n: int) -> np.ndarray:
    """J = sigma^1 (x) 1_{2n}."""
    d = 2 * n
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = np.eye(d)
    return J


def tilde_unitary(n: int) -> np.ndarray:
    """U = (1/sqrt2) [[1, -i], [1, i]] (x) 1_{2n}; maps A to block-triangular form."""
    d = 2 * n
    u2 = np.array([[1, -1j], [1, 1j]]) / np.sqrt(2)
    return np.kron(u2, np.eye(d))


def build_structure_matrix(model: QuadraticLindbladModel, bath: BathMatrices) -> StructureMatrix:
    """Assemble A blockwise and check antisymmetry and self-conjugation.

    A = [[2K + 2i M_i, 2i M], [-2i M^T, 2K - 2i M_i]] (equivalently the
    block form in -2iH with H = iK) and A_0 = 2 tr M_r.  Residuals above
    STRUCTURE_INVARIANT_MAX * max|A| indicate an internal bug, not bad input.
    """
    d = model.dim
    twoK = 2 * model.K
    A = np.zeros((2 * d, 2 * d), dtype=complex)
    A[:d, :d] = twoK + 2j * bath.M_i
    A[:d, d:] = 2j * bath.M
    A[d:, :d] = -2j * bath.M.T
    A[d:, d:] = twoK - 2j * bath.M_i
    A0 = 2 * np.trace(bath.M_r)
    scale = max(np.abs(A).max(), 1.0)
    asym = np.abs(A + A.T).max()
    # J A J with the permutation J = skew_unit(n): the two halves swapped
    conj_res = np.abs(A.conj() - np.roll(A, (d, d), axis=(0, 1))).max()
    limit = STRUCTURE_INVARIANT_MAX * scale
    if asym > limit or conj_res > limit:
        raise BuildInvariantViolated(
            f"structure matrix invariants failed: |A+A^T|={asym:.3e}, "
            f"|conj(A)-JAJ|={conj_res:.3e} at scale {scale:.3e}"
        )
    return StructureMatrix(_frozen(A), float(A0))


def odd_sector_structure_matrix(sm: StructureMatrix) -> np.ndarray:
    """Driving-flipped structure matrix (sigma^3 (x) 1) A (sigma^3 (x) 1).

    The quadratic form with this matrix generates the Liouvillean on the
    odd-parity operator sector; it is similar to A, so all spectral data agree.
    """
    d = sm.A.shape[0] // 2
    A = sm.A.copy()
    A[:d, d:] *= -1
    A[d:, :d] *= -1
    return A
