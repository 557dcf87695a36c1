"""Many-body Liouvillean spectrum, NESS classification, steady-state covariance.

Every eigenvalue is an integer combination lambda_m = -2 sum m_{j,k} beta_j
with m_{j,k} in {0..l_{j,k}}; the invariant subspace for m has dimension
prod C(l_{j,k}, m_{j,k}) and its largest Jordan block is
1 + sum (l_{j,k} - m_{j,k}) m_{j,k}.  The NESS is unique iff every rapidity
has a strictly positive real part; otherwise the zero and imaginary rapidities
generate Hermitian trace-zero stationary directions.

The enumeration is held as arrays over the occupation grid: eigenvalue,
dimension and block bound per occupation vector in sort order, and the same
per merged group.  `SpectrumEnumeration.entries` and `.merged` are read-only
sequence views that build a LiouvilleanEigenvalue / MergedEigenvalue only for
the index asked for.  The arrays hold the very floats the scalar formulas
give: sums run in the same order, and magnitudes use hypot as Python's
abs(complex) does.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import SpectrumTooLarge
from .model import _finite
from .rapidity import JordanForm, StabilityReport, complex_abs, spectral_gap
from .tolerances import DEFAULTS

# classify_ness builds all 2^k subset sums of the k zero/imaginary-axis modes
AXIS_ENUMERATION_CAP = 2**22


@dataclass(frozen=True)
class LiouvilleanEigenvalue:
    """One occupation vector's eigenvalue and invariant-subspace data."""

    lam: complex
    occupation: tuple[tuple[tuple[int, int], int], ...]  # ((j, k), m) pairs
    subspace_dim: int
    max_jordan_block: int


@dataclass(frozen=True)
class MergedEigenvalue:
    """Numerically coincident eigenvalues, dims summed.

    max_jordan_block is the max over contributors: for collisions across
    different occupation vectors it is only a lower bound on the true block
    size (flagged by lower_bound).
    """

    lam: complex
    total_dim: int
    max_jordan_block: int
    contributors: int
    lower_bound: bool


class _RecordView(Sequence):
    """Read-only sequence of `count` records, record i built by `make(i)` on access."""

    def __init__(self, count: int, make: Callable[[int], object]):
        self._count = count
        self._make = make

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._make, range(*index.indices(self._count))))
        i = index + self._count if index < 0 else index
        if not 0 <= i < self._count:
            raise IndexError("spectrum index out of range")
        return self._make(i)

    def __iter__(self):
        return map(self._make, range(self._count))


@dataclass(frozen=True)
class SpectrumEnumeration:
    """The spectrum as arrays, per occupation vector and per merged group.

    Entries are sorted by (Re lam, Im lam, occupation).  index holds each
    entry's flat position in the occupation grid `shape` (itertools.product
    order over the blocks, labelled (j, k) by `labels`).  Dimensions are int64
    while 4^n < 2^63 and exact Python ints (dtype object) beyond.  Merged
    groups are runs of sorted entries whose consecutive eigenvalues lie within
    the merge tolerance; merged_lam is their dimension-weighted mean.
    """

    labels: tuple[tuple[int, int], ...]
    shape: tuple[int, ...]
    index: np.ndarray
    lam: np.ndarray
    subspace_dim: np.ndarray
    max_jordan_block: np.ndarray
    merged_lam: np.ndarray
    merged_dim: np.ndarray
    merged_block: np.ndarray
    contributors: np.ndarray
    total_dim: int

    def occupations(self) -> np.ndarray:
        """Occupation numbers of the sorted entries, one column per block."""
        return np.stack(np.unravel_index(self.index, self.shape), axis=-1)

    @property
    def entries(self) -> Sequence[LiouvilleanEigenvalue]:
        return _RecordView(len(self.lam), self._entry)

    @property
    def merged(self) -> Sequence[MergedEigenvalue]:
        return _RecordView(len(self.merged_lam), self._merged)

    def _entry(self, i: int) -> LiouvilleanEigenvalue:
        occupation = map(int, np.unravel_index(self.index[i], self.shape))
        return LiouvilleanEigenvalue(
            lam=complex(self.lam[i]),
            occupation=tuple(zip(self.labels, occupation)),
            subspace_dim=int(self.subspace_dim[i]),
            max_jordan_block=int(self.max_jordan_block[i]),
        )

    def _merged(self, g: int) -> MergedEigenvalue:
        contributors = int(self.contributors[g])
        return MergedEigenvalue(
            lam=complex(self.merged_lam[g]),
            total_dim=int(self.merged_dim[g]),
            max_jordan_block=int(self.merged_block[g]),
            contributors=contributors,
            lower_bound=contributors > 1,
        )


def enumerate_spectrum(
    jf: JordanForm,
    limit: int = DEFAULTS.spectrum_limit,
    tol_merge: float = DEFAULTS.tol_merge,
) -> SpectrumEnumeration:
    """All occupation vectors, sorted by (Re, Im, occupation), plus a merged view.

    Raises SpectrumTooLarge when prod(l_{j,k}+1) exceeds `limit`; the gap and
    stationary dimension remain available without full enumeration.  Raises
    InputError when an eigenvalue or a merged mean overflows, as it can for a
    model near the float maximum.
    """
    blocks = jf.blocks
    shape = tuple(b.size + 1 for b in blocks)
    count = math.prod(shape)
    if count > limit:
        raise SpectrumTooLarge(
            f"{count} occupation vectors exceed the limit {limit}"
        )
    n2 = jf.dim
    # every dimension is at most 2^(2n), so int64 is exact only below 2^63
    int_type = np.int64 if n2 < 63 else object
    # one block axis at a time: lam = -2 (((0 + m_1 beta_1) + m_2 beta_2) + ...),
    # the float operations of the scalar sum, on the grid in product order
    lam = np.zeros((), complex)
    dim = np.ones((), int_type)
    blk = np.ones((), np.int64)
    # near the float maximum finite rapidities can have sums that overflow;
    # they are refused here, before any output
    with np.errstate(over="ignore", invalid="ignore"):
        for b in blocks:
            m = np.arange(b.size + 1)
            comb = np.array([math.comb(b.size, k) for k in range(b.size + 1)], dtype=int_type)
            lam = lam[..., None] + m * complex(b.rapidity)
            dim = dim[..., None] * comb
            blk = blk[..., None] + (b.size - m) * m
        lam = -2 * lam.ravel()
        scale = float(complex_abs(lam).max(initial=0.0))
    _finite("the many-body eigenvalue lambda = -2 sum m beta", scale)
    # lexsort is stable, so ties keep grid order, which is occupation order
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    dim = dim.ravel()[order]
    blk = blk.ravel()[order]
    total = int(dim.sum())
    if total != 2**n2:
        raise AssertionError("dimension sum rule violated")  # unreachable

    tol = tol_merge * max(scale, np.finfo(float).tiny)
    # a difference past the float maximum is an infinite gap, which splits;
    # a weighted mean that overflows is refused
    with np.errstate(over="ignore", invalid="ignore"):
        starts = np.flatnonzero(np.concatenate(([True], complex_abs(np.diff(lam)) > tol)))
        ends = np.append(starts[1:], len(lam))
        merged_dim = np.add.reduceat(dim, starts)
        merged_lam = _weighted_means(lam, dim, starts, ends, merged_dim)
    _finite("a merged eigenvalue (dimension-weighted mean)", merged_lam)
    return SpectrumEnumeration(
        labels=tuple((b.j, b.k) for b in blocks),
        shape=shape,
        index=order,
        lam=lam,
        subspace_dim=dim,
        max_jordan_block=blk,
        merged_lam=merged_lam,
        merged_dim=merged_dim,
        merged_block=np.maximum.reduceat(blk, starts),
        contributors=ends - starts,
        total_dim=total,
    )


def _weighted_means(lam, dim, starts, ends, total) -> np.ndarray:
    """sum(lam * dim) / sum(dim) per group [start, end), rounded as in Python.

    The sum runs left to right from 0 (builtin sum; numpy's sum and reduceat
    sum pairwise), and the division is Python's complex / int, which computes
    (re + im 0) / d and (im - re 0) / d; numpy's complex division rounds
    differently.
    """
    weighted = lam * dim.astype(float)
    sums = weighted[starts] + 0j  # a group of one: 0 + w
    for g in np.flatnonzero(ends - starts > 1):
        sums[g] = sum(weighted[starts[g]:ends[g]].tolist())
    d = total.astype(float)
    means = ((sums.real + sums.imag * 0.0) / d).astype(complex)
    means.imag = (sums.imag - sums.real * 0.0) / d
    return means


@dataclass(frozen=True)
class NessReport:
    """Uniqueness of the steady state and the degenerate-direction descriptors.

    zero_rapidity_modes lists (j, k) of stationary Hermitian trace-zero
    directions b'_{j,k,1}|NESS>, imaginary_pair_modes the Hermitian +-
    combinations for conjugate imaginary pairs.  covariance is 1 + 4iZ once
    attached; covariance_unique mirrors the Lyapunov uniqueness flag.
    """

    unique: bool
    gap: float
    zero_rapidity_modes: tuple[tuple[int, int], ...]
    imaginary_pair_modes: tuple[tuple[int, int, int, int, str], ...]
    stationary_dim: int
    covariance: np.ndarray | None = None
    covariance_unique: bool | None = None
    physicality_margin: float | None = None


def classify_ness(jf: JordanForm, stability: StabilityReport) -> NessReport:
    """Uniqueness iff all rapidities lie strictly off the imaginary axis.

    stationary_dim counts occupation vectors with lambda_m = 0, enumerated
    over the zero/imaginary rapidities of the stability classes only (all
    their blocks are trivial, so occupations are 0/1); strictly stable modes
    must stay empty.  The 2^k subset sums are built by doubling, one axis mode
    at a time, and vanish within stability.tol * ||X||_2.
    """
    partner = dict(jf.conjugate_pairing)
    zero_modes = []
    imag_modes = []
    axis_betas = []
    for cls, (_, _, idxs) in zip(stability.classes, jf.rapidities()):
        blocks_jk = [(jf.blocks[i].j, jf.blocks[i].k) for i in idxs]
        if cls.kind == "zero":
            zero_modes.extend(blocks_jk)
            axis_betas.extend([0.0 + 0.0j] * len(idxs))
        elif cls.kind == "imaginary":
            axis_betas.extend([cls.rapidity] * len(idxs))
            if cls.rapidity.imag > 0:
                partner_jk = [(jf.blocks[partner[i]].j, jf.blocks[partner[i]].k) for i in idxs]
                for (j, k) in blocks_jk:
                    for (jp, kp) in partner_jk:
                        imag_modes.append((j, jp, k, kp, "+"))
                        imag_modes.append((j, jp, k, kp, "-"))

    if 2 ** len(axis_betas) > AXIS_ENUMERATION_CAP:
        raise SpectrumTooLarge(
            f"{len(axis_betas)} axis modes exceed the stationary-dim enumeration cap"
        )
    scale = max(jf.x_norm, np.finfo(float).tiny)
    # sums[i] adds the betas of the set bits of i in list order, as the
    # subset loop over occupations would
    sums = np.zeros(2 ** len(axis_betas), complex)
    for bit, beta in enumerate(axis_betas):
        half = 2**bit
        sums[half:2 * half] = sums[:half] + complex(beta)
    stationary = int(np.count_nonzero(complex_abs(sums) <= stability.tol * scale))

    return NessReport(
        unique=stability.all_strictly_stable,
        gap=spectral_gap(jf),
        zero_rapidity_modes=tuple(zero_modes),
        imaginary_pair_modes=tuple(imag_modes),
        stationary_dim=stationary,
    )


def ness_covariance(Z: np.ndarray) -> np.ndarray:
    """Quadratic NESS correlators C_{jk} = tr(w_j w_k rho) = delta_{jk} + 4i (Z^T)_{jk}.

    The transpose matters: expanding the Majorana maps in master modes and
    using the vacuum conditions gives C = P^{-T} [(1+4iZ) P]^T = 1 - 4iZ,
    verified against the brute-force steady state.
    """
    Z = np.asarray(Z)
    return np.eye(Z.shape[0]) + 4j * Z.T


def physicality_margin(Z: np.ndarray) -> float:
    """Largest singular value of 4Z; must be <= 1 for a fermionic covariance."""
    s = np.linalg.svd(4 * np.asarray(Z), compute_uv=False)
    return float(s.max()) if len(s) else 0.0


def attach_covariance(report: NessReport, Z: np.ndarray, unique_Z: bool) -> NessReport:
    """Fill the covariance fields of a NESS report from a Lyapunov solution."""
    return replace(
        report,
        covariance=ness_covariance(Z),
        covariance_unique=unique_Z,
        physicality_margin=physicality_margin(Z),
    )
