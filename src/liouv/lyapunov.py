"""Continuous Lyapunov equation X^T Z + Z X = M_i for antisymmetric real Z.

The regular path ("dense") reads Z off the matrix sign function of the block
matrix H = [[X, 0], [M_i, -X^T]], sign(H) = [[1, 0], [2Z, -1]], computed by the
scaled Newton iteration (Roberts, Int. J. Control 32 (1980) 677; Byers, Linear
Algebra Appl. 85 (1987) 267).  It costs O(d^3) time and O(d^2) memory and
requires Re beta > 0 for every rapidity, so that sign(X) = 1.  When rapidity
pairs sum to (numerically) zero the system is singular and the solve switches
to the Jordan basis, where the operator Delta^T (x) 1 + 1 (x) Delta^T is lower
triangular.  Position (i, j) there depends only on positions one level lower,
the level being the sum of the two offsets within their chains, so the
substitution is one whole-matrix sweep per level.  Each vanishing diagonal
entry is checked against the vanishing of its right-hand side (the omega
coefficients, which are analytically zero for a genuine PSD bath) and the
corresponding free coefficient is fixed to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentSingularSystem,
    NontrivialImaginaryBlock,
)
from .rapidity import JordanForm, complex_abs
from .tolerances import DEFAULTS

# sign iteration: step cap, and the relative change of A below which the
# determinant scaling is switched off to keep the final steps quadratic
SIGN_MAX_STEPS = 100
SIGN_UNSCALED_BELOW = 1e-2


@dataclass(frozen=True)
class ZeroModeDiagnostics:
    """Solvability certificate for the zero-rapidity null space: K must vanish, Q >= 0."""

    positions: tuple[int, ...]
    K: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class ImaginaryPairDiagnostics:
    """Solvability certificate for a conjugate imaginary rapidity pair +-ib."""

    b: float
    positions_plus: tuple[int, ...]
    positions_minus: tuple[int, ...]
    K: np.ndarray
    Q_plus: np.ndarray
    Q_minus: np.ndarray


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
    Raises LinAlgError when the step cap is reached first.
    """
    d = X.shape[0]
    tol = 10 * d * np.finfo(float).eps
    A, Q = X, M_i
    change = np.inf
    for _ in range(SIGN_MAX_STEPS):
        A_inv = np.linalg.inv(A)
        c = np.exp(-np.linalg.slogdet(A)[1] / d) if change > SIGN_UNSCALED_BELOW else 1.0
        A_next = (c * A + A_inv / c) / 2
        Q = (c * Q + A_inv.T @ Q @ A_inv / c) / 2
        change = np.linalg.norm(A_next - A, 1) / np.linalg.norm(A_next, 1)
        A = A_next
        if change <= tol:
            return Q / 2
    raise np.linalg.LinAlgError(
        f"sign iteration did not converge in {SIGN_MAX_STEPS} steps "
        f"(last relative change {change:.3e})"
    )


def _pair_diagnostics(X, M_i, jf, tol, scale):
    """K and Q matrices certifying solvability at the singular rapidities.

    K collects the driving matrix elements between null-space eigenvectors
    and must vanish whenever the bath matrix is PSD; Q is the bath quadratic
    form reduced to the same vectors (PSD, equal to +-iK).
    """
    Mr = (X + X.T) / 4
    partner = dict(jf.conjugate_pairing)
    zero_diag = None
    imag_diag = []
    for j, beta, idxs in jf.rapidities():
        if abs(beta) <= tol * scale:
            pos = tuple(jf.blocks[i].chain_start for i in idxs)
            U = jf.P[:, list(pos)].real
            K = U.T @ M_i @ U
            Q = U.T @ (Mr + 1j * M_i) @ U
            zero_diag = ZeroModeDiagnostics(pos, K, Q)
        elif abs(beta.real) <= tol * scale and beta.imag > 0:
            pos_p = tuple(jf.blocks[i].chain_start for i in idxs)
            pos_m = tuple(jf.blocks[partner[i]].chain_start for i in idxs)
            Up = jf.P[:, list(pos_p)]
            Um = jf.P[:, list(pos_m)]
            K = Up.T @ M_i @ Um
            Qp = Up.T @ (Mr + 1j * M_i) @ Um
            Qm = Up.T @ (Mr - 1j * M_i) @ Um
            imag_diag.append(
                ImaginaryPairDiagnostics(beta.imag, pos_p, pos_m, K, Qp, Qm)
            )
    return zero_diag, tuple(imag_diag)


def solve_lyapunov(
    X: np.ndarray,
    M_i: np.ndarray,
    jf: JordanForm,
    tol: float = DEFAULTS.tol_lyap,
    tol_omega: float = DEFAULTS.tol_omega,
    method: str = "auto",
) -> DrivingSolution:
    """Solve X^T Z + Z X = M_i for real antisymmetric Z.

    method: "auto" picks the dense sign-iteration solve (O(d^3) time, O(d^2)
    memory) unless some pair of rapidities sums to ~0 (relative
    tol * ||X||_2), in which case the Jordan-basis substitution (level
    sweeps) is used; "dense"/"jordan" force a path.  The dense path needs
    Re beta > 0 for every rapidity (guaranteed in the pipeline once the
    stability check has passed and the singular pairs have been routed to the
    Jordan path); it raises LinAlgError when that fails or the iteration does
    not converge.
    The Jordan path zeroes every free coefficient, counts the independent ones
    (unordered off-diagonal pairs), and verifies the omega conditions.
    """
    X = np.asarray(X, dtype=float)
    M_i = np.asarray(M_i, dtype=float)
    d = X.shape[0]
    scale = max(jf.x_norm, np.finfo(float).tiny)
    # rapidity at each position of Delta's diagonal; link[i] when Delta[i-1, i] = 1
    delta = jf.delta()
    beta = np.diagonal(delta)
    link = np.concatenate(([False], np.diagonal(delta, 1) != 0))
    denoms = beta[:, None] + beta[None, :]
    regular = complex_abs(denoms) > tol * scale
    has_singular_pair = not regular.all()

    if method == "auto":
        method = "jordan" if has_singular_pair else "dense"
    if method == "dense" and has_singular_pair:
        raise np.linalg.LinAlgError(
            "dense path requested but the Lyapunov operator is singular"
        )

    if method == "dense":
        if (beta.real <= 0).any():
            raise np.linalg.LinAlgError(
                "dense path requested but a rapidity has Re beta <= 0"
            )
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

    # Jordan-basis path
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
        G = np.divide(s, denoms, out=np.zeros((d, d), dtype=complex), where=regular)

    # the singular positions in row-major order: each free coefficient stays
    # zero and its right-hand side (an omega coefficient) must vanish
    long_block = link | np.append(link[1:], False)
    omega_checks = []
    free_pairs = set()
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(~regular))):
        if long_block[i] or long_block[j]:
            raise NontrivialImaginaryBlock(
                "vanishing diagonal inside a nontrivial Jordan block"
            )
        omega = abs(F[i, j])
        omega_checks.append((i * d + j, float(omega)))
        if omega > tol_omega * f_scale:
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

    zero_diag, imag_diag = _pair_diagnostics(X, M_i, jf, tol, scale)
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
