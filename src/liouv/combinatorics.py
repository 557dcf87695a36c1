"""Exact combinatorics of Jordan structure on tensor and Fock spaces.

Everything here is integer arithmetic: restricted binomial symbols, the Jordan
decomposition of a sum of Jordan blocks on a tensor product, the seed vectors
of its generalized-eigenvector chains, and the Jordan structure of the
many-body nilpotent hopping map restricted to a fixed particle number.  The
weight-level blocks of that map are built by array operations on the states'
combinatorial-number-system ranks.  Its central level chains are ranked over
GF(p) in int64 arrays, where full rank certifies a bijection over Q, and once
all are bijective its Jordan blocks follow from the level dimensions; the
conjecture's level maps are ranked over GF(2) on Python-int bitsets first,
then over GF(p).  A rank that neither prime certifies is an exact Bareiss rank
in Python integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._intlinalg import (
    PRIME,
    IntMatrix,
    gf2_rank,
    int_matmul,
    int_rank,
    jordan_profile,
    mod_rank,
    nilpotent_staircase,
)
from .errors import IdentityViolated, TooLarge

DEFAULT_DIMENSION_LIMIT = 200_000


@dataclass(frozen=True)
class JordanBlockMultiset:
    """Multiset of Jordan block sizes, as ((size, count), ...) sorted by size desc."""

    blocks: tuple[tuple[int, int], ...]

    @property
    def block_count(self) -> int:
        return sum(count for _, count in self.blocks)

    @property
    def largest(self) -> int:
        return self.blocks[0][0] if self.blocks else 0

    def __str__(self) -> str:
        return " ".join(
            " ".join([str(size)] * count) for size, count in self.blocks
        )


def restricted_binomial_row(l: int, m: int) -> list[int]:
    """All values (l m)_r for r = 0..m(l-m): the number of m-subsets of {1..l}
    whose weight exceeds the minimum by exactly r.

    They are the coefficients of the Gaussian binomial
    prod_{i=1..k} (1 - q^(l-k+i)) / (1 - q^i), k = min(m, l - m), built one
    exact factor at a time in O(k m(l-m)) integer additions; after factor i
    they are the row (l-k+i i).  Equal to the recursion
    (l m)_r = (l-1 m)_r + (l-1 m-1)_{r-l+m}, without its depth of l calls.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if m < 0 or m > l:
        return []
    k = min(m, l - m)
    w = k * (l - k)
    row = [1] + [0] * w
    for i in range(1, k + 1):
        a = l - k + i
        # multiply by 1 - q^a, then divide exactly by 1 - q^i
        for r in range(w, a - 1, -1):
            row[r] -= row[r - a]
        for r in range(i, w + 1):
            row[r] += row[r - i]
    return row


def restricted_binomial(l: int, m: int, r: int) -> int:
    """(l m)_r, one entry of `restricted_binomial_row`; zero outside its range."""
    row = restricted_binomial_row(l, m)
    return row[r] if 0 <= r < len(row) else 0


def tensor_sum_blocks(k: int, l: int) -> JordanBlockMultiset:
    """Jordan blocks of Delta_k(a) (+) Delta_l(b) on the tensor product.

    Sizes k+l-1, k+l-3, ..., |k-l|+1, one block each (eigenvalue a+b).
    """
    if k < 1 or l < 1:
        raise ValueError("block sizes must be >= 1")
    sizes = [k + l - 2 * r + 1 for r in range(1, min(k, l) + 1)]
    return JordanBlockMultiset(tuple((s, 1) for s in sizes))


def tensor_sum_matrix(k: int, l: int) -> IntMatrix:
    """Delta_k (x) 1_l + 1_k (x) Delta_l as an exact kl x kl integer matrix."""
    dim = k * l
    mat = [[0] * dim for _ in range(dim)]
    for i in range(k):
        for j in range(l):
            row = i * l + j
            if i + 1 < k:
                mat[row][(i + 1) * l + j] += 1
            if j + 1 < l:
                mat[row][i * l + (j + 1)] += 1
    return mat


def _comb0(n: int, k: int) -> int:
    """Binomial coefficient with the out-of-range-is-zero convention."""
    return math.comb(n, k) if 0 <= k <= n else 0


def seed_coefficients(k: int, l: int, r: int) -> list[int]:
    """Coefficients c_q, q=1..r, of the r-th chain seed on C^k (x) C^l.

    c_q = (-1)^(r-q) C(k'+r-q, r-q) C(l'+q-1, q-1) with k'=k-r, l'=l-r.  The
    homogeneous identities making the chain terminate after k+l-2r+1 steps and
    the non-termination condition one step earlier are both checked exactly;
    a failure would falsify the implementation, not the input.
    """
    if not (1 <= r <= min(k, l)):
        raise ValueError("need 1 <= r <= min(k, l)")
    kp, lp = k - r, l - r
    c = [(-1) ** (r - q) * math.comb(kp + r - q, r - q) * math.comb(lp + q - 1, q - 1)
         for q in range(1, r + 1)]
    for j in range(1, r):
        s = sum(_comb0(kp + lp + 1, lp - j + q) * c[q - 1] for q in range(1, r + 1))
        if s != 0:
            raise IdentityViolated(f"termination identity failed at j={j} for (k,l,r)=({k},{l},{r})")
    if not any(
        sum(_comb0(kp + lp, lp - j + q) * c[q - 1] for q in range(1, r + 1)) != 0
        for j in range(1, r + 1)
    ):
        raise IdentityViolated(f"chain-length identity failed for (k,l,r)=({k},{l},{r})")
    return c


def nilpotent_map_matrix(l: int, m: int, limit: int = DEFAULT_DIMENSION_LIMIT) -> IntMatrix:
    """Matrix of the hopping map sum_k b'_{k+1} b_k on the m-particle sector.

    Basis: occupation tuples ordered by (weight, lexicographic).  All entries
    are 0 or 1; the fermionic signs of the adjacent hop cancel identically
    (the map raises the weight by exactly 1), so the matrix is the level maps
    B_r placed below the block diagonal.
    """
    if not (0 <= m <= l):
        raise ValueError("need 0 <= m <= l")
    dim = math.comb(l, m)
    if dim > limit:
        raise TooLarge(f"sector dimension C({l},{m}) = {dim} exceeds limit {limit}")
    dims, blocks = _level_maps(l, m)
    start = np.cumsum([0, *dims])
    mat = np.zeros((dim, dim), dtype=np.int64)
    for r, block in enumerate(blocks):
        mat[start[r + 1]:start[r + 2], start[r]:start[r + 1]] = block
    return mat.tolist()


def _level_maps(l: int, m: int) -> tuple[list[int], list[np.ndarray]]:
    """Dimensions of the weight levels and the hop blocks B_r: level r -> r+1
    as 0/1 int64 arrays of shape (dims[r+1], dims[r]).

    A state is the increasing array of its m occupied sites s_0 < ... < s_{m-1},
    keyed by its combinatorial-number-system rank sum_j C(s_j, j+1) < C(l, m).
    `itertools.combinations` lists the states in descending lexicographic
    order of their occupation tuples, so a stable sort of the reversed list by
    weight sum_j s_j - m(m-1)/2 is the (weight, lex) order.  A hop moves a site
    s_j whose right neighbour is empty to s_j + 1: the sites stay increasing,
    the weight grows by 1 and the rank by C(s_j, j).
    """
    count = math.comb(l, m)
    sites = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(l), m)),
        dtype=np.int64, count=count * m,
    ).reshape(count, m)[::-1]
    # binom[k, s] = C(s, k) for every s <= l - m + k, the sites a rank or hop
    # term reads, so no entry exceeds C(l, m); zero elsewhere
    binom = np.array([[math.comb(s, k) if s <= l - m + k else 0 for s in range(l)]
                      for k in range(m + 1)], dtype=np.int64)
    rank = binom[np.arange(1, m + 1), sites].sum(axis=1)
    level = sites.sum(axis=1) - m * (m - 1) // 2
    order = np.argsort(level, kind="stable")
    sites, rank, level = sites[order], rank[order], level[order]
    position = np.empty(count, dtype=np.int64)
    position[rank] = np.arange(count)
    dims = np.bincount(level, minlength=m * (l - m) + 1)
    start = np.concatenate(([0], np.cumsum(dims)))
    right = np.concatenate((sites[:, 1:], np.full((count, 1), l)), axis=1)
    # np.nonzero is row-major: src ascends, so each level's hops are contiguous
    src, j = np.nonzero(sites + 1 < right)
    dst = position[rank[src] + binom[j, sites[src, j]]]
    rows = dst - start[level[src] + 1]
    cols = src - start[level[src]]
    bounds = np.searchsorted(src, start)
    blocks = []
    for r in range(len(dims) - 1):
        block = np.zeros((dims[r + 1], dims[r]), dtype=np.int64)
        hops = slice(bounds[r], bounds[r + 1])
        block[rows[hops], cols[hops]] = 1
        blocks.append(block)
    return dims.tolist(), blocks


@dataclass(frozen=True)
class NilpotentBlocksReport:
    """Exact Jordan structure of the m-particle hopping map, with the conjectured form."""

    l: int
    m: int
    staircase: JordanBlockMultiset
    conjectured: JordanBlockMultiset
    agree: bool


def _profile(row: list[int]) -> JordanBlockMultiset:
    """The Jordan blocks of a weight-graded nilpotent map whose level
    dimensions are `row`, when every chain from a level r < w/2 to its mirror
    level w - r is bijective (w = len(row) - 1): row[r] - row[r-1] blocks of
    size w + 1 - 2r."""
    w = len(row) - 1
    blocks = []
    for r in range(w // 2 + 1):
        count = row[r] - (row[r - 1] if r else 0)
        if count > 0:
            blocks.append((w + 1 - 2 * r, count))
    return JordanBlockMultiset(tuple(sorted(blocks, reverse=True)))


def conjectured_blocks(l: int, m: int) -> JordanBlockMultiset:
    """Block multiset implied by the restricted-binomial formula."""
    return _profile(restricted_binomial_row(l, m))


def _central_chains_mod_p(dims: list[int], blocks: list[np.ndarray]):
    """Yield (r, P_{r,w-2r} mod PRIME) for the central chains r < w/2, from the
    middle outwards: P_{r,w-2r} = B_{w-r-1} P_{r+1,w-2r-2} B_r, reduced after
    every product.  A 0/1 block has at most l - 1 ones per row and column, so
    no product of it with residues overflows an int64."""
    w = len(blocks)
    h = w // 2
    chain = blocks[h] if w % 2 else np.eye(dims[h], dtype=np.int64)  # P_{h,w-2h}
    if w % 2:
        yield h, chain
    for r in range(h - 1, -1, -1):
        chain = (blocks[w - r - 1] @ chain) % PRIME @ blocks[r] % PRIME
        yield r, chain


def nilpotent_blocks(l: int, m: int, limit: int = DEFAULT_DIMENSION_LIMIT) -> NilpotentBlocksReport:
    """Ground-truth Jordan blocks of the m-particle hopping map.

    The map is strictly weight-graded.  Each central chain
    P_{r,w-2r} = B_{w-r-1} ... B_r, from a level r < w/2 to its mirror level
    w - r (w = m(l-m), dims[r] = dims[w-r]), is ranked over GF(p) first, where
    full rank certifies a bijection over Q, and by Bareiss on the exact chain
    where it does not.  A prefix of an injective chain is injective and a
    suffix of a surjective one is surjective, so when every central chain is
    bijective each chain P_{r,p} has rank dims[r] or dims[r+p], and the
    staircase is the `_profile` of the level dimensions.  Otherwise it is the
    exact staircase of the whole map.
    """
    dim = math.comb(l, m)
    if dim > limit:
        raise TooLarge(f"sector dimension C({l},{m}) = {dim} exceeds limit {limit}")
    dims, blocks = _level_maps(l, m)
    w = m * (l - m)

    def exact_chain(r: int) -> IntMatrix:
        chain = blocks[r].tolist()
        for block in blocks[r + 1:w - r]:
            chain = int_matmul(block.tolist(), chain)
        return chain

    if all(mod_rank(mod_chain) == dims[r] or int_rank(exact_chain(r)) == dims[r]
           for r, mod_chain in _central_chains_mod_p(dims, blocks)):
        staircase = _profile(dims)
    else:
        staircase = jordan_blocks_of_nilpotent(nilpotent_map_matrix(l, m, limit))
    conj = conjectured_blocks(l, m)
    return NilpotentBlocksReport(l, m, staircase, conj, staircase == conj)


@dataclass(frozen=True)
class LevelCheck:
    m: int
    r: int
    dim_from: int
    dim_to: int
    rank: int
    injective: bool
    surjective: bool
    required_injective: bool
    required_surjective: bool

    @property
    def ok(self) -> bool:
        return (self.injective or not self.required_injective) and (
            self.surjective or not self.required_surjective
        )


@dataclass(frozen=True)
class ConjectureReport:
    l: int
    checks: tuple[LevelCheck, ...]
    monotone_ok: bool

    @property
    def all_pass(self) -> bool:
        return self.monotone_ok and all(c.ok for c in self.checks)


def verify_conjecture(l: int, limit: int = DEFAULT_DIMENSION_LIMIT) -> ConjectureReport:
    """Check injectivity/surjectivity of the level maps for every m and weight r.

    The hop map restricted V^r_m -> V^{r+1}_m must be injective for
    r <= floor((w-1)/2) and surjective for r >= floor(w/2), w = (l-m)m; also
    checks the monotone growth of the restricted binomials up to the middle.
    A failed level is reported, not raised.

    Each 0/1 level block is ranked over GF(2) on bitset rows first, then over
    GF(p), and by Bareiss only when neither reaches the smaller dimension:
    every minor that vanishes over Q vanishes modulo a prime, so a full rank
    at either prime is the rank over Q and every reported rank is exact.
    """
    if math.comb(l, l // 2) > limit:
        raise TooLarge(f"middle sector of l={l} exceeds limit {limit}")
    checks = []
    monotone_ok = True
    for m in range(l + 1):
        w = m * (l - m)
        row = restricted_binomial_row(l, m)
        if any(row[r] > row[r + 1] for r in range(0, w // 2)):
            monotone_ok = False
        dims, level_blocks = _level_maps(l, m)
        for r, block in enumerate(level_blocks):
            # rank_2 and rank_p are at most rank_Q, so either is exact when full
            full = min(block.shape)
            rk = gf2_rank(block)
            if rk < full:
                rk = mod_rank(block)
            if rk < full:
                rk = int_rank(block.tolist())
            checks.append(
                LevelCheck(
                    m=m,
                    r=r,
                    dim_from=dims[r],
                    dim_to=dims[r + 1],
                    rank=rk,
                    injective=rk == dims[r],
                    surjective=rk == dims[r + 1],
                    required_injective=r <= (w - 1) // 2,
                    required_surjective=r >= w // 2,
                )
            )
    return ConjectureReport(l, tuple(checks), monotone_ok)


def jordan_blocks_of_nilpotent(mat: IntMatrix) -> JordanBlockMultiset:
    """Exact Jordan block multiset of an arbitrary nilpotent integer matrix."""
    ranks = nilpotent_staircase(mat)
    return JordanBlockMultiset(tuple(jordan_profile([len(mat) - r for r in ranks])))
