"""Continuous Lyapunov equation X^T Z + Z X = M_i for antisymmetric real Z.

The stability check decides the path.  When every rapidity is strictly
stable, Z is read off the matrix sign function of the block matrix
H = [[X, 0], [M_i, -X^T]], sign(H) = [[1, 0], [2Z, -1]], computed by the
scaled Newton iteration (Roberts, Int. J. Control 32 (1980) 677; Byers, Linear
Algebra Appl. 85 (1987) 267), in O(d^3) time and O(d^2) memory.  Rapidities on
the imaginary axis make the pairs beta_i + beta_j = 0 among them singular, and
the solve runs in the Jordan basis, where the operator
Delta^T (x) 1 + 1 (x) Delta^T is lower triangular.  Position (i, j) there
depends only on positions one level lower, the level being the sum of the two
offsets within their chains, so the substitution is one whole-matrix sweep per
level.  Each vanishing diagonal entry is checked against the vanishing of its
right-hand side (the omega coefficients, which are analytically zero for a
genuine PSD bath) and the corresponding free coefficient is fixed to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentSingularSystem,
    InternalInvariantViolated,
    NontrivialImaginaryBlock,
)
from .rapidity import JordanForm, StabilityReport, complex_abs
from .tolerances import OMEGA_MAX

# sign iteration: step cap, and the relative change of A below which the
# determinant scaling is switched off to keep the final steps quadratic
SIGN_MAX_STEPS = 100
SIGN_UNSCALED_BELOW = 1e-2


@dataclass(frozen=True)
class ZeroModeDiagnostics:
    """Solvability certificate for the zero-rapidity null space: K must vanish."""

    positions: tuple[int, ...]
    K: np.ndarray


@dataclass(frozen=True)
class ImaginaryPairDiagnostics:
    """Solvability certificate for a conjugate imaginary rapidity pair +-ib."""

    b: float
    positions_plus: tuple[int, ...]
    positions_minus: tuple[int, ...]
    K: np.ndarray


@dataclass(frozen=True)
class DrivingSolution:
    """Antisymmetric real solution Z with uniqueness and residual metadata."""

    Z: np.ndarray
    unique: bool
    free_parameter_count: int
    residual: float
    omega_checks: tuple[tuple[int, float], ...]
    method: str
    asymmetry_preprojection: float
    imag_residue: float
    zero_diagnostics: ZeroModeDiagnostics | None = None
    imaginary_diagnostics: tuple[ImaginaryPairDiagnostics, ...] = ()


def lyapunov_residual(X: np.ndarray, Z: np.ndarray, M_i: np.ndarray) -> float:
    """max |X^T Z + Z X - M_i|."""
    return float(np.abs(X.T @ Z + Z @ X - M_i).max())


def _sign_iteration(X: np.ndarray, M_i: np.ndarray) -> np.ndarray:
    """Z with X^T Z + Z X = M_i by the coupled Newton iteration for sign(H).

    The iterates keep the block form [[A, 0], [Q, -A^T]]: A <- (cA + A^-1/c)/2
    and Q <- (cQ + A^-T Q A^-1/c)/2, with the determinant scaling
    c = |det A|^(-1/d) (through slogdet: det(X) is ~1e98 at n = 32 and
    overflows near n = 100) until A is close to its limit 1.  Then Z = Q/2.
    Raises InternalInvariantViolated when an iterate is singular or the step
    cap is reached first: sign(X) = 1 needs every Re beta > 0.
    """
    d = X.shape[0]
    tol = 10 * d * np.finfo(float).eps
    A, Q = X, M_i
    change = np.inf
    for _ in range(SIGN_MAX_STEPS):
        try:
            A_inv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise InternalInvariantViolated(f"sign iteration met a singular iterate ({exc})") from exc
        c = np.exp(-np.linalg.slogdet(A)[1] / d) if change > SIGN_UNSCALED_BELOW else 1.0
        A_next = (c * A + A_inv / c) / 2
        Q = (c * Q + A_inv.T @ Q @ A_inv / c) / 2
        change = np.linalg.norm(A_next - A, 1) / np.linalg.norm(A_next, 1)
        A = A_next
        if change <= tol:
            return Q / 2
    raise InternalInvariantViolated(
        f"sign iteration did not converge in {SIGN_MAX_STEPS} steps "
        f"(last relative change {change:.3e})"
    )


def _pair_diagnostics(M_i, jf, stability):
    """K matrices certifying solvability at the zero and imaginary rapidities
    of the stability classes: the driving matrix elements between null-space
    eigenvectors, which must vanish whenever the bath matrix is PSD.
    """
    partner = dict(jf.conjugate_pairing)
    zero_diag = None
    imag_diag = []
    for cls, (_, beta, idxs) in zip(stability.classes, jf.rapidities()):
        if cls.kind == "zero":
            pos = tuple(jf.blocks[i].chain_start for i in idxs)
            U = jf.P[:, list(pos)].real
            zero_diag = ZeroModeDiagnostics(pos, U.T @ M_i @ U)
        elif cls.kind == "imaginary" and beta.imag > 0:
            pos_p = tuple(jf.blocks[i].chain_start for i in idxs)
            pos_m = tuple(jf.blocks[partner[i]].chain_start for i in idxs)
            K = jf.P[:, list(pos_p)].T @ M_i @ jf.P[:, list(pos_m)]
            imag_diag.append(ImaginaryPairDiagnostics(beta.imag, pos_p, pos_m, K))
    return zero_diag, tuple(imag_diag)


def solve_lyapunov(
    X: np.ndarray,
    M_i: np.ndarray,
    jf: JordanForm,
    stability: StabilityReport,
) -> DrivingSolution:
    """Solve X^T Z + Z X = M_i for real antisymmetric Z.

    The stability report of jf decides the path: the sign iteration (O(d^3)
    time, O(d^2) memory) when every rapidity is strictly stable, else the
    Jordan-basis substitution.  The Jordan path zeroes every free coefficient,
    counts the independent ones (unordered off-diagonal pairs), and verifies
    the omega conditions against OMEGA_MAX.
    """
    X = np.asarray(X, dtype=float)
    M_i = np.asarray(M_i, dtype=float)
    if stability.all_strictly_stable:
        return _dense_solution(X, M_i)
    return _jordan_solution(X, M_i, jf, stability)


def _dense_solution(X: np.ndarray, M_i: np.ndarray) -> DrivingSolution:
    Z_raw = _sign_iteration(X, M_i)
    asym = float(np.abs(Z_raw + Z_raw.T).max())
    Z = (Z_raw - Z_raw.T) / 2
    Z.setflags(write=False)
    return DrivingSolution(
        Z=Z,
        unique=True,
        free_parameter_count=0,
        residual=lyapunov_residual(X, Z, M_i),
        omega_checks=(),
        method="dense",
        asymmetry_preprojection=asym,
        imag_residue=0.0,
    )


def _jordan_solution(
    X: np.ndarray, M_i: np.ndarray, jf: JordanForm, stability: StabilityReport
) -> DrivingSolution:
    """Level-sweep substitution in the Jordan basis.  Position (i, j) is
    singular when both of its blocks are classed zero or imaginary and
    |beta_i + beta_j| <= stability.tol * ||X||_2, the test classify_ness
    applies to its subset sums."""
    d = X.shape[0]
    scale = max(jf.x_norm, np.finfo(float).tiny)
    # rapidity at each position of Delta's diagonal; link[i] when Delta[i-1, i] = 1
    delta = jf.delta()
    beta = np.diagonal(delta)
    link = np.concatenate(([False], np.diagonal(delta, 1) != 0))
    denoms = beta[:, None] + beta[None, :]
    axis_j = {c.j for c in stability.classes if c.kind != "stable"}
    on_axis = np.repeat([b.j in axis_j for b in jf.blocks], [b.size for b in jf.blocks])
    singular = np.outer(on_axis, on_axis) & (complex_abs(denoms) <= stability.tol * scale)

    F = jf.P.T @ M_i @ jf.P
    f_scale = max(np.abs(F).max(), np.finfo(float).tiny)
    # G[i, j] needs G[i-1, j] when link[i] and G[i, j-1] when link[j]: one
    # whole-matrix sweep per level (sum of the two offsets within their chains)
    # finalises that level, with the subtractions in the per-position order
    rows = np.flatnonzero(link)
    G = np.zeros((d, d), dtype=complex)
    for _ in range(2 * max((b.size for b in jf.blocks), default=1) - 1):
        s = F.copy()
        s[rows] -= G[rows - 1]
        s[:, rows] -= G[:, rows - 1]
        G = np.divide(s, denoms, out=np.zeros((d, d), dtype=complex), where=~singular)

    # the singular positions in row-major order: each free coefficient stays
    # zero and its right-hand side (an omega coefficient) must vanish
    long_block = link | np.append(link[1:], False)
    omega_checks = []
    free_pairs = set()
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(singular))):
        if long_block[i] or long_block[j]:
            raise NontrivialImaginaryBlock(
                "vanishing diagonal inside a nontrivial Jordan block"
            )
        omega = abs(F[i, j])
        omega_checks.append((i * d + j, float(omega)))
        if omega > OMEGA_MAX * f_scale:
            raise InconsistentSingularSystem(
                f"omega_{i * d + j} = {omega:.3e} does not vanish "
                f"(relative to |P^T M_i P| = {f_scale:.3e}); the bath "
                "matrix cannot be PSD or tolerances are inconsistent"
            )
        if i != j:
            free_pairs.add((min(i, j), max(i, j)))

    Z_raw = jf.P_inv.T @ G @ jf.P_inv
    imag_residue = float(np.abs(Z_raw.imag).max())
    Z_raw = Z_raw.real
    asym = float(np.abs(Z_raw + Z_raw.T).max())
    Z = (Z_raw - Z_raw.T) / 2
    Z.setflags(write=False)

    zero_diag, imag_diag = _pair_diagnostics(M_i, jf, stability)
    count = len(free_pairs)
    return DrivingSolution(
        Z=Z,
        unique=count == 0,
        free_parameter_count=count,
        residual=lyapunov_residual(X, Z, M_i),
        omega_checks=tuple(omega_checks),
        method="jordan",
        asymmetry_preprojection=asym,
        imag_residue=imag_residue,
        zero_diagnostics=zero_diag,
        imaginary_diagnostics=imag_diag,
    )
