"""Similarity W, eigenvector matrix V and the normal form of the Liouvillean.

W = 1 + 2(sigma^1 - i sigma^3) (x) Z is complex orthogonal (the generator is
nilpotent), and V = V_0 W, with V_0 = (P^T (+) P^-1) U the zero-driving
eigenvector matrix, brings the structure matrix to its canonical form
A = V^T [[0, Delta], [-Delta^T, 0]] V with the normalization V V^T = J.  The
first 2n rows of V define the annihilation master modes b, the last 2n rows
the creation modes b'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationFailure
from .model import skew_unit
from .rapidity import JordanForm
from .tolerances import NORMALIZATION_MAX


@dataclass(frozen=True)
class RowLabel:
    """(j, k, l) identity of a V row: rapidity j, block k, chain position l."""

    j: int
    k: int
    l: int
    primed: bool


@dataclass(frozen=True)
class NormalModeBasis:
    V: np.ndarray
    W: np.ndarray
    row_labels: tuple[RowLabel, ...]
    normalization_residual: float
    orthogonality_residual: float


def build_W(Z: np.ndarray) -> np.ndarray:
    """W = 1 + 2(sigma^1 - i sigma^3) (x) Z; satisfies W W^T = 1 identically, and
    W^-1 = build_W(-Z) because the generator squares to zero."""
    d = Z.shape[0]
    W = np.eye(2 * d, dtype=complex)
    W[:d, :d] -= 2j * Z
    W[:d, d:] += 2 * Z
    W[d:, :d] += 2 * Z
    W[d:, d:] += 2j * Z
    return W


def _row_labels(jf: JordanForm) -> tuple[RowLabel, ...]:
    half = []
    for b in jf.blocks:
        for l in range(1, b.size + 1):
            half.append((b.j, b.k, l))
    return tuple(
        [RowLabel(j, k, l, primed=False) for (j, k, l) in half]
        + [RowLabel(j, k, l, primed=True) for (j, k, l) in half]
    )


def build_V(jf: JordanForm, Z: np.ndarray) -> NormalModeBasis:
    """Assemble V from the closed block form and verify its invariants.

    V = (1/sqrt2) [[P^T (1 - 4iZ), -i P^T (1 + 4iZ)], [P^-1, i P^-1]].
    (This is the product V_0 W written out; note the sign of 4iZ differs
    between the two upper blocks.)  Raises NormalizationFailure when
    max|V V^T - J| exceeds NORMALIZATION_MAX (relative to max|V|^2),
    signalling inconsistent P and Z inputs.
    """
    d = jf.dim
    P, P_inv = jf.P, jf.P_inv
    Sm = np.eye(d) - 4j * Z
    Sp = np.eye(d) + 4j * Z
    V = np.zeros((2 * d, 2 * d), dtype=complex)
    V[:d, :d] = P.T @ Sm
    V[:d, d:] = -1j * (P.T @ Sp)
    V[d:, :d] = P_inv
    V[d:, d:] = 1j * P_inv
    V /= np.sqrt(2)

    J = skew_unit(d // 2)
    norm_res = float(np.abs(V @ V.T - J).max())
    if norm_res > NORMALIZATION_MAX * max(1.0, np.abs(V).max() ** 2):
        raise NormalizationFailure(
            f"|V V^T - J| = {norm_res:.3e} exceeds tolerance; P and Z inconsistent"
        )
    W = build_W(Z)
    orth_res = float(np.abs(W @ W.T - np.eye(2 * d)).max())
    return NormalModeBasis(
        V=V,
        W=W,
        row_labels=_row_labels(jf),
        normalization_residual=norm_res,
        orthogonality_residual=orth_res,
    )


@dataclass(frozen=True)
class NormalFormBlock:
    """One Jordan block's terms in the normal form of the Liouvillean.

    Contributes -2 beta_j sum_l b'_l b_l plus the nilpotent couplings
    -2 b'_{l+1} b_l for l = 1..size-1.
    """

    j: int
    k: int
    rapidity: complex
    size: int

    @property
    def couplings(self) -> tuple[tuple[int, int], ...]:
        return tuple((l, l + 1) for l in range(1, self.size))


@dataclass(frozen=True)
class NormalFormDescriptor:
    blocks: tuple[NormalFormBlock, ...]

    @property
    def coupling_count(self) -> int:
        return sum(len(b.couplings) for b in self.blocks)

    def rapidity_trace(self) -> complex:
        """sum_{j,k} l_{j,k} beta_j; equals tr X = A_0."""
        return sum(b.size * b.rapidity for b in self.blocks)


def normal_form_coefficients(jf: JordanForm) -> NormalFormDescriptor:
    """Symbolic normal form of the Liouvillean over the master modes."""
    return NormalFormDescriptor(
        tuple(NormalFormBlock(b.j, b.k, b.rapidity, b.size) for b in jf.blocks)
    )
