"""Numerical Jordan canonical form of the real matrix X and its stability data.

The rapidities are the eigenvalues of X = 2K + 2M_r.  A numerical Jordan form
is ill-posed, so the decomposition is tolerance-parameterized: the eigenvalues
of one np.linalg.eig are clustered, and block sizes come from an SVD rank
staircase of powers of (X - beta 1) (Golub and Wilkinson, SIAM Rev. 18 (1976)
578), with generalized-eigenvector chains built top-down from seeds in
ker(X-beta)^l that are independent of ker(X-beta)^(l-1) and of the taller
chains.  A singleton cluster skips the staircase and takes its eigenvector
from the same eig call when an O(d^3) certificate, computed for all columns
at once, proves that the staircase would decide nullity 1 with no borderline
singular value (_certified_singletons); the staircase then runs only on
clusters of several eigenvalues and on the singletons that fail it.
Borderline rank decisions are surfaced via an ill_conditioned flag rather
than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._intlinalg import jordan_profile
from .errors import InternalInvariantViolated, StabilityViolated
from .tolerances import DEFAULTS


@dataclass(frozen=True)
class JordanBlockDescriptor:
    """One Jordan block: rapidity, size, column offset of its chain in P.

    j, k are 1-based: j indexes the distinct rapidity in the deterministic
    sort order, k the block within that rapidity.
    """

    rapidity: complex
    size: int
    chain_start: int
    j: int
    k: int


@dataclass(frozen=True)
class JordanForm:
    """X = P Delta P^-1 with Delta assembled from `blocks`.

    conjugate_pairing lists (block index, index of its conjugate block), one
    pair per block in block order: itself for a real rapidity, the mirrored
    chain for a non-real one.  jordan_decompose records each pair when it
    builds the chains, and paired chains are entrywise conjugate.
    """

    P: np.ndarray
    P_inv: np.ndarray
    blocks: tuple[JordanBlockDescriptor, ...]
    conjugate_pairing: tuple[tuple[int, int], ...]
    x_norm: float
    cond_P: float
    reconstruction_residual: float
    ill_conditioned: bool

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    def delta(self) -> np.ndarray:
        return _delta(self.blocks, self.dim)

    def rapidities(self) -> list[tuple[int, complex, list[int]]]:
        """Distinct rapidities as (j, beta, block indices), in sort order."""
        groups: list[tuple[int, complex, list[int]]] = []
        for idx, b in enumerate(self.blocks):
            if groups and groups[-1][0] == b.j:
                groups[-1][2].append(idx)
            else:
                groups.append((b.j, b.rapidity, [idx]))
        return groups


def _delta(blocks, d: int) -> np.ndarray:
    """Delta: each block's rapidity on the diagonal, ones above it along the chain."""
    out = np.zeros((d, d), dtype=complex)
    for b in blocks:
        idx = np.arange(b.chain_start, b.chain_start + b.size)
        out[idx, idx] = b.rapidity
        out[idx[:-1], idx[1:]] = 1.0
    return out


def complex_abs(z: np.ndarray) -> np.ndarray:
    """|z| rounded as Python's abs(complex) rounds it (np.abs can differ by an ulp)."""
    return np.hypot(z.real, z.imag)


def _distances(values: np.ndarray) -> np.ndarray:
    """|w_i - w_j| for all pairs."""
    return complex_abs(values[:, None] - values[None, :])


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    """Transitive-closure clustering of complex values within tol.

    Connected components of the graph |w_i - w_j| <= tol, ordered by their
    smallest member, members ascending.
    """
    i, j = np.nonzero(np.triu(_distances(values) <= tol, 1))
    # every label stays a member of its component and only decreases, so the
    # fixed point labels each component with its smallest member
    labels = np.arange(len(values))
    while True:
        prev = labels
        labels = labels.copy()
        np.minimum.at(labels, i, labels[j])
        np.minimum.at(labels, j, labels[i])
        labels = labels[labels]
        if np.array_equal(labels, prev):
            break
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [group.tolist() for group in np.split(order, cuts)]


def _chains_for_rapidity(
    X: np.ndarray, beta: complex, multiplicity: int, tol_rank: float, x_norm: float
):
    """Block sizes and generalized-eigenvector chains for one clustered rapidity.

    x_norm is ||X||_2.  Returns (sizes, chains, borderline) where chains[i] is
    a matrix whose columns v_1..v_l satisfy X v_1 = beta v_1,
    X v_i = beta v_i + v_{i-1}.
    """
    d = X.shape[0]
    real_case = abs(complex(beta).imag) == 0.0
    if real_case:
        Y = X - float(np.real(beta)) * np.eye(d)
    else:
        Y = X - complex(beta) * np.eye(d, dtype=complex)

    y_norm = float(np.linalg.norm(Y, 2))
    # one SVD per power gives its rank, the borderline flag and, from the
    # trailing right singular vectors, an orthonormal basis of ker Y^k
    nullities = []
    nullbases = {}
    borderline = False
    power = np.eye(d, dtype=Y.dtype)
    for k in range(1, multiplicity + 1):
        power = power @ Y
        _, s, vh = np.linalg.svd(power)
        # noise floor of the k-th power: one factor carries the absolute
        # O(||X||) uncertainty of the clustered shift, the rest scale as ||Y||
        threshold = tol_rank * max(y_norm, x_norm, 1e-300) * max(y_norm, 1e-300) ** (k - 1)
        borderline = borderline or bool(np.any((s > threshold / 10) & (s < threshold * 10)))
        r = int(np.sum(s > threshold))
        nullities.append(d - r)
        nullbases[k] = vh[r:].conj().T
        if nullities[-1] >= multiplicity:
            break
    if nullities[-1] != multiplicity:
        raise InternalInvariantViolated(
            f"staircase nullity {nullities[-1]} != algebraic multiplicity "
            f"{multiplicity} for rapidity {beta}; tolerances inconsistent"
        )
    per_size = dict(jordan_profile(nullities))
    sizes = [size for size, count in per_size.items() for _ in range(count)]

    chains: list[np.ndarray] = []  # each (d, length), columns v_1..v_length
    eps = np.finfo(float).eps
    for k in range(len(nullities), 0, -1):
        want = per_size.get(k, 0)
        if want == 0:
            continue
        # height-k members of the taller chains already built (column k-1 is v_k)
        height_k = [c[:, k - 1] for c in chains if c.shape[1] >= k]
        Qk = nullbases[k]
        obstacles = []
        if k > 1 and nullbases[k - 1].shape[1]:
            obstacles.append(nullbases[k - 1])
        if height_k:
            obstacles.append(np.column_stack(height_k))
        if obstacles:
            B = np.column_stack(obstacles)
            coords = Qk.conj().T @ B
            u, s, _ = np.linalg.svd(coords, full_matrices=False)
            rank_b = int(np.sum(s > max(s[0], 1.0) * eps * max(coords.shape) * 10)) if len(s) else 0
            QB = u[:, :rank_b]
            proj = np.eye(Qk.shape[1], dtype=Qk.dtype) - QB @ QB.conj().T
        else:
            proj = np.eye(Qk.shape[1], dtype=Qk.dtype)
        uu, ss, _ = np.linalg.svd(proj)
        seeds = Qk @ uu[:, :want]
        for t in range(want):
            seed = seeds[:, t]
            vecs = [seed]
            for _ in range(k - 1):
                vecs.append(Y @ vecs[-1])
            vecs.reverse()  # v_1 (proper) first
            chain = np.column_stack(vecs)
            norm1 = np.linalg.norm(chain[:, 0])
            if norm1 < 1e3 * eps * max(1.0, np.linalg.norm(seed)):
                borderline = True
                norm1 = max(norm1, np.finfo(float).tiny)
            chains.append(chain / norm1)
    # order chains by descending length to match `sizes`
    chains.sort(key=lambda c: -c.shape[1])
    return sizes, chains, borderline


def _certified_singletons(
    X: np.ndarray, w: np.ndarray, V: np.ndarray, x_norm: float, tol_rank: float
) -> np.ndarray:
    """Columns i whose eigenpair (w_i, V[:, i]) provably gets the staircase's
    first-step decision for beta = w_i: nullity 1 and no borderline singular
    value.  V has unit columns, as np.linalg.eig returns them; the whole
    certificate costs O(d^3).

    The staircase's k = 1 threshold tol_rank * max(||X - beta||, ||X||) lies
    in [thr_lo, thr_hi] = tol_rank * [||X||, ||X|| + |beta|].  The residual
    r_i = ||X v_i - w_i v_i|| bounds sigma_min(X - w_i) from above (nullity
    >= 1).  With E = ||X - V diag(w) V^-1||_F and sep_i = min_{j != i}
    |w_j - w_i|, Weyl's inequality gives sigma_{d-1}(X - w_i) >=
    sep_i / cond(V) - E (nullity <= 1).  Requiring r_i < thr_lo / 10 and
    sep_i / cond(V) - E > 10 thr_hi keeps every singular value outside the
    borderline band (thr / 10, 10 thr).
    """
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:  # exactly parallel eigenvectors: defective
        return np.zeros(len(w), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.linalg.norm(X - (V * w) @ V_inv)
        residual = np.linalg.norm(X @ V - V * w, axis=0)
        sep = _distances(w)
        np.fill_diagonal(sep, np.inf)
        lower = sep.min(axis=1) / np.linalg.cond(V) - E
        thr_lo = tol_rank * max(x_norm, 1e-300)
        # near the float maximum x_norm + |w| overflows: an infinite bound
        # certifies nothing, and the staircase decides
        thr_hi = tol_rank * (x_norm + np.abs(w))
        return (residual < thr_lo / 10) & (lower > 10 * thr_hi)


def jordan_decompose(
    X: np.ndarray,
    tol_cluster: float = DEFAULTS.tol_cluster,
    tol_rank: float = DEFAULTS.tol_rank,
) -> JordanForm:
    """Jordan canonical form X = P Delta P^-1 of a real square matrix.

    Eigenvalues within tol_cluster * ||X||_2 are merged into one rapidity.
    Real rapidities get real chains; non-real rapidities are computed for
    Im beta > 0 only and mirrored by conjugation, and each chain is recorded
    with its conjugate partner as it is built (conjugate_pairing).
    """
    X = np.asarray(X, dtype=float)
    d = X.shape[0]
    if X.shape != (d, d):
        raise ValueError("X must be square")
    x_norm = float(np.linalg.norm(X, 2)) if d else 0.0
    scale = max(x_norm, np.finfo(float).tiny)

    eigvals, eigvecs = np.linalg.eig(X)
    clusters = _cluster(eigvals, tol_cluster * scale)
    means = [complex(np.mean(eigvals[idx])) for idx in clusters]

    # inter-cluster separation close to the merge threshold is itself fragile
    near = _distances(np.array(means, dtype=complex)) < 10 * tol_cluster * scale
    ill = bool(np.triu(near, 1).any())

    # eig returns unit columns; the fast path uses them as they are
    certified = _certified_singletons(X, eigvals, eigvecs, x_norm, tol_rank)

    def chains_for(beta: complex, idx: list[int]):
        i = idx[0]
        if len(idx) == 1 and beta == eigvals[i] and certified[i]:
            return [1], [eigvecs[:, [i]]], False
        return _chains_for_rapidity(X, beta, len(idx), tol_rank, x_norm)

    # (beta, size, chain, index of the conjugate chain in this list): a real
    # rapidity's chain is its own partner, an Im > 0 chain is followed by its mirror
    flat = []
    for idx, mean in zip(clusters, means):
        if abs(mean.imag) <= tol_cluster * scale:
            beta = complex(mean.real)
            sizes, chains, bl = chains_for(beta.real, idx)
            for size, chain in zip(sizes, chains):
                flat.append((beta, size, chain.real.astype(complex), len(flat)))
        elif mean.imag > 0:
            beta = mean
            sizes, chains, bl = chains_for(beta, idx)
            for size, chain in zip(sizes, chains):
                flat.append((beta, size, chain, len(flat) + 1))
                flat.append((beta.conjugate(), size, chain.conj(), len(flat) - 1))
        else:
            continue  # handled by the conjugate representative
        ill = ill or bl
    # sanity: every Im<0 cluster must have had an Im>0 partner
    n_pos = sum(1 for m in means if m.imag > tol_cluster * scale)
    n_neg = sum(1 for m in means if m.imag < -tol_cluster * scale)
    if n_neg != n_pos:
        raise InternalInvariantViolated("conjugate cluster pairing failed")

    order = sorted(
        range(len(flat)),
        key=lambda i: (flat[i][0].real, flat[i][0].imag, -flat[i][1]),
    )
    position = {i: p for p, i in enumerate(order)}

    blocks = []
    columns = []
    start = 0
    j_label = 0
    k_label = 0
    prev_beta = None
    for i in order:
        beta, size, chain, _ = flat[i]
        if prev_beta is None or beta != prev_beta:
            j_label += 1
            k_label = 1
            prev_beta = beta
        else:
            k_label += 1
        blocks.append(JordanBlockDescriptor(beta, size, start, j_label, k_label))
        columns.append(chain)
        start += size
    if start != d:
        raise InternalInvariantViolated(f"block sizes sum to {start}, expected {d}")

    P = np.column_stack(columns) if columns else np.zeros((d, 0))
    cond_P = float(np.linalg.cond(P))
    P_inv = np.linalg.inv(P)
    P.setflags(write=False)
    P_inv.setflags(write=False)

    delta = _delta(blocks, d)
    recon = np.abs(P @ delta @ P_inv - X).max() / max(np.abs(X).max(), 1.0)

    return JordanForm(
        P=P,
        P_inv=P_inv,
        blocks=tuple(blocks),
        conjugate_pairing=tuple(enumerate(position[flat[i][3]] for i in order)),
        x_norm=x_norm,
        cond_P=cond_P,
        reconstruction_residual=float(recon),
        ill_conditioned=bool(ill),
    )


@dataclass(frozen=True)
class RapidityClass:
    j: int
    rapidity: complex
    kind: str  # "stable" | "zero" | "imaginary"
    block_sizes: tuple[int, ...]


@dataclass(frozen=True)
class StabilityReport:
    min_re: float
    classes: tuple[RapidityClass, ...]
    tol: float

    @property
    def zero(self) -> tuple[RapidityClass, ...]:
        return tuple(c for c in self.classes if c.kind == "zero")

    @property
    def imaginary(self) -> tuple[RapidityClass, ...]:
        return tuple(c for c in self.classes if c.kind == "imaginary")

    @property
    def all_strictly_stable(self) -> bool:
        return all(c.kind == "stable" for c in self.classes)


def stability_check(jf: JordanForm, tol: float = DEFAULTS.tol_stability) -> StabilityReport:
    """Classify rapidities and enforce the two stability guarantees.

    For X + X^T >= 0 every rapidity must satisfy Re beta >= 0 and every
    rapidity on the imaginary axis must have only trivial Jordan blocks;
    violations raise StabilityViolated (bad bath matrix or tolerances).
    Thresholds are relative to ||X||_2.
    """
    scale = max(jf.x_norm, np.finfo(float).tiny)
    classes = []
    min_re = np.inf
    for j, beta, idxs in jf.rapidities():
        sizes = tuple(jf.blocks[i].size for i in idxs)
        min_re = min(min_re, beta.real)
        if beta.real < -tol * scale:
            raise StabilityViolated(
                f"rapidity {beta} has negative real part beyond tolerance"
            )
        if abs(beta.real) <= tol * scale:
            kind = "zero" if abs(beta.imag) <= tol * scale else "imaginary"
            if any(s > 1 for s in sizes):
                raise StabilityViolated(
                    f"rapidity {beta} on the imaginary axis has a Jordan block "
                    f"of size {max(sizes)} > 1"
                )
        else:
            kind = "stable"
        classes.append(RapidityClass(j, beta, kind, sizes))
    if not classes:
        min_re = 0.0
    return StabilityReport(float(min_re), tuple(classes), tol)


def spectral_gap(jf: JordanForm) -> float:
    """2 min_j Re beta_j, clamped at zero (requires a passed stability check)."""
    if not jf.blocks:
        return 0.0
    return max(0.0, 2 * min(b.rapidity.real for b in jf.blocks))
