import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouv._intlinalg import (
    PRIME,
    gf2_rank,
    int_matmul,
    int_rank,
    jordan_profile,
    mod_rank,
    nilpotent_staircase,
)
from liouv.combinatorics import (
    JordanBlockMultiset,
    LevelCheck,
    _level_maps,
    conjectured_blocks,
    jordan_blocks_of_nilpotent,
    nilpotent_blocks,
    nilpotent_map_matrix,
    restricted_binomial,
    restricted_binomial_row,
    seed_coefficients,
    tensor_sum_blocks,
    tensor_sum_matrix,
    verify_conjecture,
)
from liouv.errors import TooLarge


def brute_force_restricted_binomials(l, m):
    """Independent oracle: enumerate every m-subset of {1..l} by weight."""
    counts = {}
    for sites in itertools.combinations(range(1, l + 1), m):
        w = sum(sites) - m * (m + 1) // 2
        counts[w] = counts.get(w, 0) + 1
    return [counts.get(r, 0) for r in range(m * (l - m) + 1)]


@pytest.mark.parametrize("l,m", [(4, 2), (5, 2), (6, 3), (7, 4), (9, 3), (12, 6)])
def test_restricted_binomial_against_subset_enumeration(l, m):
    assert restricted_binomial_row(l, m) == brute_force_restricted_binomials(l, m)


def test_restricted_binomial_known_row():
    assert restricted_binomial_row(4, 2) == [1, 1, 2, 1, 1]
    assert sum(restricted_binomial_row(4, 2)) == 6


def test_restricted_binomial_m_zero():
    assert restricted_binomial(7, 0, 0) == 1
    assert restricted_binomial_row(7, 0) == [1]


def test_restricted_binomial_sum_12_6():
    assert sum(restricted_binomial_row(12, 6)) == 924


def test_restricted_binomial_out_of_range_zero():
    assert restricted_binomial(5, 2, -1) == 0
    assert restricted_binomial(5, 2, 7) == 0
    assert restricted_binomial(5, 7, 0) == 0


def _recursive_restricted_binomial(l, m, r):
    """The defining recursion (l m)_r = (l-1 m)_r + (l-1 m-1)_{r-l+m}, one
    call per site, with base (0 m)_r = delta_{m,0} delta_{r,0}."""
    if m < 0 or r < 0 or m > l or r > m * (l - m):
        return 0
    if l == 0:
        return 1 if (m == 0 and r == 0) else 0
    return (_recursive_restricted_binomial(l - 1, m, r)
            + _recursive_restricted_binomial(l - 1, m - 1, r - l + m))


@pytest.mark.parametrize("l", range(0, 17))
def test_restricted_binomial_row_equals_recursion(l):
    for m in range(-1, l + 2):
        w = m * (l - m)
        expected = [_recursive_restricted_binomial(l, m, r) for r in range(w + 1)]
        assert restricted_binomial_row(l, m) == expected
        for r in range(-1, max(w, 0) + 2):
            assert restricted_binomial(l, m, r) == _recursive_restricted_binomial(l, m, r)


@pytest.mark.parametrize("l", range(0, 21))
def test_sum_rule_and_symmetry_exact(l):
    for m in range(l + 1):
        row = restricted_binomial_row(l, m)
        assert sum(row) == math.comb(l, m)
        assert row == row[::-1]


def test_tensor_sum_blocks_known():
    assert tensor_sum_blocks(2, 2).blocks == ((3, 1), (1, 1))
    assert tensor_sum_blocks(5, 1).blocks == ((5, 1),)
    assert tensor_sum_blocks(3, 5).blocks == ((7, 1), (5, 1), (3, 1))


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("l", range(1, 7))
def test_tensor_sum_blocks_against_staircase(k, l):
    claimed = tensor_sum_blocks(k, l)
    assert sum(size * count for size, count in claimed.blocks) == k * l
    exact = jordan_blocks_of_nilpotent(tensor_sum_matrix(k, l))
    assert exact == claimed


def _int_matrix_power(mat, p):
    out = [[int(i == j) for j in range(len(mat))] for i in range(len(mat))]
    for _ in range(p):
        out = int_matmul(out, mat)
    return out


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("l", range(1, 7))
def test_newton_nilpotency_bound(k, l):
    mat = tensor_sum_matrix(k, l)
    power = _int_matrix_power(mat, k + l - 2)
    assert any(v != 0 for row in power for v in row)
    final = int_matmul(power, mat)
    assert all(v == 0 for row in final for v in row)


def test_seed_coefficients_trivial_and_known():
    assert seed_coefficients(4, 3, 1) == [1]
    assert seed_coefficients(2, 2, 2) == [-1, 1]


def test_seed_identity_exact_4_3_2():
    c = seed_coefficients(4, 3, 2)
    kp, lp = 2, 1
    assert sum(math.comb(kp + lp + 1, lp - 1 + q) * c[q - 1] for q in (1, 2)) == 0


def seed_vector(k, l, r):
    """The r-th chain seed as an exact vector on the |i,j> basis (i*l+j
    indexing): c_q on |k-q+1, l-r+q>, 1-based labels."""
    vec = [0] * (k * l)
    for q, c in enumerate(seed_coefficients(k, l, r), start=1):
        vec[(k - q) * l + l - r + q - 1] = c
    return vec


@pytest.mark.parametrize("k,l", [(2, 2), (3, 3), (4, 3), (5, 2), (6, 6), (5, 4)])
def test_seed_vectors_generate_chains_of_exact_length(k, l):
    mat = tensor_sum_matrix(k, l)
    for r in range(1, min(k, l) + 1):
        vec = seed_vector(k, l, r)
        length = k + l - 2 * r + 1
        current = vec
        for step in range(length - 1):
            current = [sum(row[i] * current[i] for i in range(len(current))) for row in mat]
            assert any(v != 0 for v in current), (r, step)
        current = [sum(row[i] * current[i] for i in range(len(current))) for row in mat]
        assert all(v == 0 for v in current)


def weight(nu):
    """Weight of an occupation tuple: potential energy above the minimal packing."""
    m = sum(nu)
    return sum((k + 1) * v for k, v in enumerate(nu)) - m * (m + 1) // 2


def _subset_states(l, m):
    """Occupation tuples with m particles on l sites, ordered by (weight, lex)."""
    states = []
    for sites in itertools.combinations(range(l), m):
        nu = [0] * l
        for s in sites:
            nu[s] = 1
        states.append(tuple(nu))
    return sorted(states, key=lambda nu: (weight(nu), nu))


def _tuple_level_maps(l, m):
    """Reference for `_level_maps`: the occupation-tuple builder it replaced,
    kept verbatim (per-tuple weights and a dict lookup per hop)."""
    states = _subset_states(l, m)
    rmax = m * (l - m)
    level_states: list[list[tuple[int, ...]]] = [[] for _ in range(rmax + 1)]
    for nu in states:
        level_states[weight(nu)].append(nu)
    dims = [len(s) for s in level_states]
    blocks = []
    for r in range(rmax):
        idx = {nu: i for i, nu in enumerate(level_states[r + 1])}
        rows, cols = [], []
        for col, nu in enumerate(level_states[r]):
            for k in range(l - 1):
                if nu[k] == 1 and nu[k + 1] == 0:
                    hopped = list(nu)
                    hopped[k], hopped[k + 1] = 0, 1
                    rows.append(idx[tuple(hopped)])
                    cols.append(col)
        block = np.zeros((dims[r + 1], dims[r]), dtype=np.int64)
        block[rows, cols] = 1
        blocks.append(block)
    return dims, blocks


def _level_matrices(l, m):
    """The reference level maps as exact integer matrices."""
    dims, blocks = _tuple_level_maps(l, m)
    return dims, [b.tolist() for b in blocks]


@pytest.mark.parametrize("l,m", [(l, m) for l in range(13) for m in range(l + 1)]
                         + [(40, 2), (600, 1)])
def test_level_maps_match_tuple_reference(l, m):
    dims, blocks = _level_maps(l, m)
    ref_dims, ref_blocks = _tuple_level_maps(l, m)
    assert dims == ref_dims
    assert len(blocks) == len(ref_blocks) == m * (l - m)
    for block, ref in zip(blocks, ref_blocks):
        assert block.dtype == ref.dtype and block.shape == ref.shape
        assert np.array_equal(block, ref)


def test_nilpotent_map_matrix_single_particle_is_jordan_block():
    # in the weight-ordered basis the hop map is the lower-shift, i.e. the
    # transpose of the canonical block: a single Jordan block of size l
    for l in range(2, 7):
        mat = nilpotent_map_matrix(l, 1)
        assert mat == [[int(i == j + 1) for j in range(l)] for i in range(l)]
        assert jordan_blocks_of_nilpotent(mat).blocks == ((l, 1),)


def test_nilpotent_map_matrix_empty_sector():
    assert nilpotent_map_matrix(5, 0) == [[0]]


def test_nilpotent_map_matrix_4_2():
    mat = nilpotent_map_matrix(4, 2)
    assert len(mat) == 6
    assert all(v in (0, 1) for row in mat for v in row)
    ranks = nilpotent_staircase(mat)
    assert len(ranks) == 5  # nilpotency index (4-2)*2 + 1 = 5
    assert ranks[-1] == 0 and ranks[-2] > 0


def test_nilpotent_map_strictly_raises_weight():
    states = sorted(
        (nu for nu in itertools.product((0, 1), repeat=5) if sum(nu) == 2),
        key=lambda nu: (weight(nu), nu),
    )
    mat = nilpotent_map_matrix(5, 2)
    for col, nu in enumerate(states):
        for row, mu in enumerate(states):
            if mat[row][col]:
                assert weight(mu) == weight(nu) + 1


def _fermionic_hop_matrix(l, m):
    """Oracle: build sum_k b'_{k+1} b_k from explicit 2^l-dimensional fermionic
    creation/annihilation matrices with Jordan-Wigner sign strings, restricted
    to the m-particle sector in the (weight, lex) basis order."""
    dim = 2**l
    create = []
    destroy = []
    for k in range(l):
        c = np.zeros((dim, dim))
        a = np.zeros((dim, dim))
        for idx in range(dim):
            occ = [(idx >> b) & 1 for b in range(l)]
            sign = (-1) ** sum(occ[:k])
            if occ[k] == 0:
                c[idx | (1 << k), idx] = sign
            else:
                a[idx & ~(1 << k), idx] = sign
        create.append(c)
        destroy.append(a)
    hop = sum(create[k + 1] @ destroy[k] for k in range(l - 1))
    states = sorted(
        (nu for nu in itertools.product((0, 1), repeat=l) if sum(nu) == m),
        key=lambda nu: (weight(nu), nu),
    )
    idx_of = [sum(b << i for i, b in enumerate(nu)) for nu in states]
    return [[int(round(hop[r, c])) for c in idx_of] for r in idx_of]


@pytest.mark.parametrize("l,m", [(3, 1), (4, 2), (5, 2), (5, 3), (6, 3)])
def test_hop_matrix_matches_explicit_fermionic_construction(l, m):
    # the adjacent-hop signs cancel identically: all entries are +1
    assert nilpotent_map_matrix(l, m) == _fermionic_hop_matrix(l, m)


def test_nilpotent_blocks_4_2():
    rep = nilpotent_blocks(4, 2)
    assert rep.staircase.blocks == ((5, 1), (1, 1))
    assert rep.conjectured.blocks == ((5, 1), (1, 1))
    assert rep.agree


def test_nilpotent_blocks_single_particle():
    rep = nilpotent_blocks(6, 1)
    assert rep.staircase.blocks == ((6, 1),)
    assert rep.agree


@pytest.mark.parametrize("l", range(1, 9))
def test_nilpotent_blocks_agree_small(l):
    for m in range(l + 1):
        rep = nilpotent_blocks(l, m)
        assert rep.agree, (l, m)
        assert sum(size * count for size, count in rep.staircase.blocks) == math.comb(l, m)
        assert rep.staircase.largest == (l - m) * m + 1
        middle = restricted_binomial(l, m, ((l - m) * m) // 2)
        assert rep.staircase.block_count == middle


def test_graded_staircase_matches_full_matrix_staircase():
    # the weight-graded block decomposition must reproduce the brute staircase
    rep = nilpotent_blocks(6, 3)
    full = jordan_blocks_of_nilpotent(nilpotent_map_matrix(6, 3))
    assert rep.staircase == full


def _bareiss_staircase(l, m):
    """Jordan blocks from a Bareiss rank of every level chain P_{r,p}, each a
    dense product of the level matrices."""
    dims, level_blocks = _level_matrices(l, m)
    rmax = m * (l - m)
    ranks = []
    chains = {r: level_blocks[r] for r in range(rmax)}
    for p in range(1, rmax + 2):
        if p > 1:
            chains = {
                r: int_matmul(level_blocks[r + p - 1], c)
                for r, c in chains.items()
                if r + p - 1 < rmax
            }
        total = sum(int_rank(c) for c in chains.values())
        ranks.append(total)
        if total == 0:
            break
    return JordanBlockMultiset(tuple(jordan_profile([math.comb(l, m) - r for r in ranks])))


@pytest.mark.parametrize("l", range(12))
def test_nilpotent_blocks_match_all_bareiss_reference(l):
    for m in range(l + 1):
        assert nilpotent_blocks(l, m).staircase == _bareiss_staircase(l, m), (l, m)


@pytest.mark.parametrize("l,m", [(6, 3), (7, 3), (8, 4)])
def test_nilpotent_blocks_without_central_ranks_falls_back_to_bareiss(monkeypatch, l, m):
    """If the GF(p) certificate fails for every central chain, each central
    chain gets an exact Bareiss rank and the staircase is unchanged."""
    import liouv.combinatorics as combinatorics

    central = (m * (l - m) + 1) // 2
    calls = []

    def counted(mat):
        calls.append(len(mat))
        return int_rank(mat)

    monkeypatch.setattr(combinatorics, "mod_rank", lambda mat: -1)
    monkeypatch.setattr(combinatorics, "int_rank", counted)
    assert nilpotent_blocks(l, m).staircase == _bareiss_staircase(l, m)
    assert len(calls) == central


@pytest.mark.parametrize("l,m", [(6, 3), (7, 3), (8, 4)])
def test_nilpotent_blocks_without_any_central_rank_ranks_every_chain(monkeypatch, l, m):
    """If neither GF(p) nor Bareiss certifies a central chain bijective, the
    staircase of the whole map is taken once, and it equals the all-Bareiss
    reference."""
    import liouv.combinatorics as combinatorics

    whole = []

    def spied(mat):
        whole.append(len(mat))
        return jordan_blocks_of_nilpotent(mat)

    monkeypatch.setattr(combinatorics, "mod_rank", lambda mat: -1)
    monkeypatch.setattr(combinatorics, "int_rank", lambda mat: -1)
    monkeypatch.setattr(combinatorics, "jordan_blocks_of_nilpotent", spied)
    assert nilpotent_blocks(l, m).staircase == _bareiss_staircase(l, m)
    assert whole == [math.comb(l, m)]


@pytest.mark.parametrize("l,m", [(6, 3), (7, 3), (8, 4), (12, 6)])
def test_nilpotent_blocks_certified_over_gf_p_need_no_bareiss(monkeypatch, l, m):
    import liouv.combinatorics as combinatorics

    def refuse(mat):
        raise AssertionError("Bareiss rank of a certified chain")

    monkeypatch.setattr(combinatorics, "int_rank", refuse)
    assert nilpotent_blocks(l, m).agree


def test_mod_rank_drops_below_bareiss_on_a_multiple_of_the_prime():
    """rank_p can fall below the rank over Q; Bareiss then decides."""
    assert mod_rank(np.array([[PRIME, 0], [0, 1]])) == 1
    assert int_rank([[PRIME, 0], [0, 1]]) == 2


def test_conjectured_blocks_drop_zero_counts():
    blocks = conjectured_blocks(4, 2)
    assert all(count > 0 for _, count in blocks.blocks)


def _bareiss_checks(l):
    """LevelChecks of `verify_conjecture` from a Bareiss rank of every
    reference level map."""
    checks = []
    for m in range(l + 1):
        w = m * (l - m)
        dims, level_blocks = _level_matrices(l, m)
        for r, block in enumerate(level_blocks):
            rk = int_rank(block)
            checks.append(LevelCheck(
                m=m, r=r, dim_from=dims[r], dim_to=dims[r + 1], rank=rk,
                injective=rk == dims[r], surjective=rk == dims[r + 1],
                required_injective=r <= (w - 1) // 2, required_surjective=r >= w // 2,
            ))
    return tuple(checks)


def _refuse(mat):
    raise AssertionError("rank asked of a refused method")


@pytest.mark.parametrize("l", range(11))
def test_verify_conjecture_matches_all_bareiss_reference(l):
    assert verify_conjecture(l).checks == _bareiss_checks(l)


@pytest.mark.parametrize("l", range(11))
def test_verify_conjecture_without_gf2_ranks_over_gf_p(monkeypatch, l):
    """With GF(2) refused, GF(p) certifies every level map of these l."""
    import liouv.combinatorics as combinatorics

    monkeypatch.setattr(combinatorics, "gf2_rank", lambda mat: -1)
    monkeypatch.setattr(combinatorics, "int_rank", _refuse)
    assert verify_conjecture(l).checks == _bareiss_checks(l)


@pytest.mark.parametrize("l", range(11))
def test_verify_conjecture_without_either_prime_ranks_by_bareiss(monkeypatch, l):
    import liouv.combinatorics as combinatorics

    calls = []

    def counted(mat):
        calls.append(len(mat))
        return int_rank(mat)

    monkeypatch.setattr(combinatorics, "gf2_rank", lambda mat: -1)
    monkeypatch.setattr(combinatorics, "mod_rank", lambda mat: -1)
    monkeypatch.setattr(combinatorics, "int_rank", counted)
    checks = verify_conjecture(l).checks
    assert checks == _bareiss_checks(l)
    assert len(calls) == len(checks)


def test_verify_conjecture_11_needs_no_bareiss(monkeypatch):
    import liouv.combinatorics as combinatorics

    monkeypatch.setattr(combinatorics, "int_rank", _refuse)
    assert verify_conjecture(11).all_pass


def test_verify_conjecture_trivial():
    rep = verify_conjecture(2)
    assert rep.all_pass


def test_verify_conjecture_small():
    for l in (3, 4, 5, 6, 7):
        rep = verify_conjecture(l)
        assert rep.all_pass
        assert rep.monotone_ok


def test_size_limit_raises():
    with pytest.raises(TooLarge):
        nilpotent_map_matrix(30, 15, limit=1000)
    with pytest.raises(TooLarge):
        nilpotent_blocks(30, 15, limit=1000)
    with pytest.raises(TooLarge):
        verify_conjecture(30, limit=1000)


def _int_rank_reference(mat):
    """Bareiss rank with the entry-by-entry elimination loop that int_rank
    replaced by whole-row updates; kept verbatim as the reference."""
    if not mat or not mat[0]:
        return 0
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40))


@st.composite
def _int_matrices(draw):
    """Dense or rank-deficient (a product through k <= min(rows, cols))
    integer matrices, some columns zeroed."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        mat = [[draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    else:
        k = draw(st.integers(0, min(rows, cols)))
        a = [[draw(_ENTRIES) for _ in range(k)] for _ in range(rows)]
        b = [[draw(_ENTRIES) for _ in range(cols)] for _ in range(k)]
        mat = int_matmul(a, b) if k else [[0] * cols for _ in range(rows)]
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in mat:
            row[c] = 0
    return mat


@settings(max_examples=300, deadline=None)
@given(_int_matrices())
def test_int_rank_matches_entrywise_bareiss(mat):
    before = [row[:] for row in mat]
    assert int_rank(mat) == _int_rank_reference(mat)
    assert mat == before


@pytest.mark.parametrize("l", range(10))
def test_int_rank_matches_entrywise_bareiss_on_level_maps(l):
    """Every level map B_r and every central chain B_{w-r-1} ... B_r."""
    for m in range(l + 1):
        dims, blocks = _level_matrices(l, m)
        w = m * (l - m)
        for b in blocks:
            assert int_rank(b) == _int_rank_reference(b)
        for r in range((w + 1) // 2):
            chain = [[int(i == j) for j in range(dims[r])] for i in range(dims[r])]
            for s in range(r, w - r):
                chain = int_matmul(blocks[s], chain)
            assert int_rank(chain) == _int_rank_reference(chain) == dims[r], (l, m, r)


_SMALL_ENTRIES = st.integers(-3, 3)


@st.composite
def _small_int_matrices(draw):
    """Dense or rank-deficient (a product through k <= min(rows, cols))
    integer matrices with small entries."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        mat = [[draw(_SMALL_ENTRIES) for _ in range(cols)] for _ in range(rows)]
    else:
        k = draw(st.integers(0, min(rows, cols)))
        a = np.array([[draw(_SMALL_ENTRIES) for _ in range(k)] for _ in range(rows)])
        b = np.array([[draw(_SMALL_ENTRIES) for _ in range(cols)] for _ in range(k)])
        mat = a.reshape(rows, k) @ b.reshape(k, cols)
    return np.array(mat, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(_small_int_matrices())
def test_mod_rank_matches_bareiss(mat):
    """rank_p <= rank_Q always; they are equal when no minor can be a nonzero
    multiple of p, which Hadamard's bound (the product of the row norms, each
    at least 1) shows below p."""
    rank_p = mod_rank(mat)
    mat = mat.tolist()
    rank_q = int_rank(mat)
    assert rank_p <= rank_q
    if math.prod(max(1.0, math.hypot(*row)) for row in mat) < PRIME:
        assert rank_p == rank_q


@st.composite
def _binary_matrices(draw):
    """0/1 matrices, dense or a 0/1 product through k <= min(rows, cols)
    reduced to 0/1, some rows repeated."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    bits = st.integers(0, 1)
    if draw(st.booleans()):
        mat = np.array([[draw(bits) for _ in range(cols)] for _ in range(rows)])
    else:
        k = draw(st.integers(0, min(rows, cols)))
        a = np.array([[draw(bits) for _ in range(k)] for _ in range(rows)])
        b = np.array([[draw(bits) for _ in range(cols)] for _ in range(k)])
        mat = np.minimum(a.reshape(rows, k) @ b.reshape(k, cols), 1)
    if rows > 1 and draw(st.booleans()):
        mat[draw(st.integers(1, rows - 1))] = mat[0]
    return np.array(mat, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(_binary_matrices())
def test_gf2_rank_bounds_bareiss(mat):
    """rank_2 <= rank_Q always, and a full rank_2 is rank_Q."""
    rank_2 = gf2_rank(mat)
    rank_q = int_rank(mat.tolist())
    assert rank_2 <= rank_q
    if rank_2 == min(mat.shape):
        assert rank_2 == rank_q
    assert gf2_rank(mat.T) == rank_2


def test_gf2_rank_drops_below_bareiss_on_an_even_determinant():
    """rank_2 can fall below the rank over Q; GF(p) or Bareiss then decides."""
    mat = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert gf2_rank(mat) == 2
    assert mod_rank(mat) == int_rank(mat.tolist()) == 3
