from collections import Counter

import numpy as np
import pytest

from liouv._intlinalg import int_matmul, int_rank
from liouv.errors import StabilityViolated
from liouv.model import build_bath_matrices, build_X
from liouv.randmodel import random_axis_model, random_model
from liouv.rapidity import jordan_decompose, spectral_gap, stability_check
from liouv.model import validate_model

from conftest import (
    GAMMA_P,
    J_COUPLING,
    critical_plus_decoupled,
    ising_pair_model,
    single_qubit_model,
)


def model_X(m):
    return build_X(m, build_bath_matrices(m))


def test_defective_qubit_single_block():
    X = model_X(single_qubit_model())  # h = Gamma cos(theta)
    jf = jordan_decompose(X)
    assert len(jf.blocks) == 1
    b = jf.blocks[0]
    assert b.size == 2
    assert b.rapidity == pytest.approx(2.0, abs=1e-8)


def test_generic_qubit_two_trivial_blocks():
    X = model_X(single_qubit_model(h=np.cos(np.pi / 3) + 0.1))
    jf = jordan_decompose(X)
    assert sorted(b.size for b in jf.blocks) == [1, 1]


def test_diagonal_matrix():
    jf = jordan_decompose(np.diag([1.0, 2.0]))
    assert [(b.rapidity, b.size) for b in jf.blocks] == [(1.0, 1), (2.0, 1)]


def test_ising_pair_rapidities():
    X = model_X(ising_pair_model())
    jf = jordan_decompose(X)
    gp, j = GAMMA_P, J_COUPLING
    root = np.sqrt(complex((gp / 2) ** 2 - j**2))
    expected = sorted(
        [0.0, gp, gp / 2 + root, gp / 2 - root], key=lambda z: (z.real, z.imag)
    )
    actual = [b.rapidity for b in jf.blocks]
    np.testing.assert_allclose(actual, expected, atol=1e-10)
    assert all(b.size == 1 for b in jf.blocks)


def test_reconstruction_and_completeness():
    for seed in range(10):
        m = random_model(3, seed=seed)
        X = model_X(m)
        jf = jordan_decompose(X)
        assert jf.reconstruction_residual < 1e-8
        assert sum(b.size for b in jf.blocks) == 6


def test_conjugate_pairing_and_real_columns():
    X = model_X(ising_pair_model())
    jf = jordan_decompose(X)
    pairing = dict(jf.conjugate_pairing)
    for idx, b in enumerate(jf.blocks):
        partner = jf.blocks[pairing[idx]]
        assert partner.rapidity == b.rapidity.conjugate()
        col = jf.P[:, b.chain_start]
        pcol = jf.P[:, partner.chain_start]
        np.testing.assert_allclose(pcol, col.conj(), atol=1e-12)
        if b.rapidity.imag == 0:
            assert np.abs(col.imag).max() < 1e-12


def _pairing_by_search(jf):
    """The (rapidity, size) search that derived conjugate_pairing from the
    sorted blocks before the pairs were recorded with the chains, kept as the
    reference."""
    by_key = {}
    for idx, b in enumerate(jf.blocks):
        by_key.setdefault((b.rapidity, b.size), []).append(idx)
    pairing = []
    for (beta, size), idxs in by_key.items():
        partners = by_key[(beta.conjugate(), size)]
        assert len(partners) == len(idxs)
        pairing.extend(zip(idxs, partners))
    return tuple(sorted(pairing))


def _complex_defective_pair_X(a=0.7, b=1.3):
    """Realification of a 2-block at a+bi: a 2-block at each of a+-bi."""
    return np.array([[a, -b, 1, 0], [b, a, 0, 1], [0, 0, a, -b], [0, 0, b, a]])


@pytest.mark.parametrize(
    "X, tol_cluster",
    [(model_X(single_qubit_model()), 1e-7), (model_X(ising_pair_model()), 1e-7),
     (_complex_defective_pair_X(), 1e-4)]
    + [(model_X(random_model(1 + seed % 5, seed)), 1e-7) for seed in range(10)]
    + [(model_X(random_axis_model(n, seed, decoupled)), 1e-7)
       for n, seed, decoupled in [(2, 0, 1), (2, 3, 2), (3, 3, 3), (4, 1, 4), (6, 3, 6)]]
    + [(model_X(critical_plus_decoupled(copies, pairs, b, 0)), 1e-7)
       for copies, pairs, b in [(1, 1, 0.7), (2, 2, 0.7), (3, 2, 0.0)]],
)
def test_recorded_pairing_matches_search(X, tol_cluster):
    jf = jordan_decompose(X, tol_cluster=tol_cluster)
    assert jf.conjugate_pairing == _pairing_by_search(jf)
    assert [i for i, _ in jf.conjugate_pairing] == list(range(len(jf.blocks)))


def test_deterministic_block_order():
    X = model_X(random_model(3, seed=3))
    jf1 = jordan_decompose(X)
    jf2 = jordan_decompose(X)
    assert [(b.rapidity, b.size, b.j, b.k) for b in jf1.blocks] == [
        (b.rapidity, b.size, b.j, b.k) for b in jf2.blocks
    ]
    keys = [(b.rapidity.real, b.rapidity.imag, -b.size) for b in jf1.blocks]
    assert keys == sorted(keys)


def _unimodular():
    return np.array(
        [
            [1, 0, 0, 0, 0, 0],
            [2, 1, 0, 0, 0, 0],
            [0, 3, 1, 0, 0, 0],
            [1, 0, 1, 1, 0, 0],
            [0, 1, 0, 2, 1, 0],
            [1, 1, 1, 0, 1, 1],
        ]
    )


def _jordan_blocks_matrix(pairs):
    from scipy.linalg import block_diag

    blocks = []
    for beta, size in pairs:
        b = np.eye(size) * beta
        for i in range(size - 1):
            b[i, i + 1] = 1
        blocks.append(b)
    return block_diag(*blocks)


@pytest.mark.parametrize(
    "pairs",
    [
        [(2, 3), (2, 1), (5, 2)],
        [(0, 1), (1, 2), (1, 2), (3, 1)],
        [(4, 4), (4, 1), (4, 1)],
    ],
)
def test_against_exact_integer_staircase(pairs):
    """Numerical Jordan structure must reproduce the exact rank staircase of
    integer test matrices (integer eigenvalues, unimodular transform)."""
    P = _unimodular()
    D = _jordan_blocks_matrix(pairs)
    X = P @ D @ np.linalg.inv(P)
    X_int = np.rint(X).astype(object)
    assert np.abs(X - X_int.astype(float)).max() < 1e-9

    # defective blocks of size s scatter eigenvalues ~ eps^(1/s); the integer
    # rapidities here are >= 1 apart, so a coarse cluster width is safe
    jf = jordan_decompose(X, tol_cluster=1e-3)
    for beta in {b for b, _ in pairs}:
        mult = sum(s for b, s in pairs if b == beta)
        Y = [[int(v) - (beta if i == j else 0) for j, v in enumerate(row)]
             for i, row in enumerate(X_int.tolist())]
        ranks = []
        power = Y
        while True:
            ranks.append(int_rank(power))
            if 6 - ranks[-1] >= mult:
                break
            power = int_matmul(power, Y)
        nullities = [6 - r for r in ranks]
        nu = [0] + nullities + [nullities[-1]]
        exact_sizes = []
        for p in range(1, len(nu) - 1):
            exact_sizes.extend([p] * (2 * nu[p] - nu[p - 1] - nu[p + 1]))
        got = sorted(
            (b.size for b in jf.blocks if abs(b.rapidity - beta) < 1e-5), reverse=True
        )
        assert got == sorted(exact_sizes, reverse=True)


def test_complex_defective_conjugate_pair():
    # realification of a size-2 block at a+bi: each of a+-bi gets one 2-block,
    # with entrywise-conjugate chains
    a, b = 0.7, 1.3
    jf = jordan_decompose(_complex_defective_pair_X(a, b), tol_cluster=1e-4)
    got = sorted(
        ((blk.rapidity, blk.size) for blk in jf.blocks),
        key=lambda t: (t[0].real, t[0].imag),
    )
    assert [s for _, s in got] == [2, 2]
    np.testing.assert_allclose(
        [r for r, _ in got], [complex(a, -b), complex(a, b)], atol=1e-8
    )
    assert jf.reconstruction_residual < 1e-10
    pm = dict(jf.conjugate_pairing)
    for i, blk in enumerate(jf.blocks):
        partner = jf.blocks[pm[i]]
        cols = jf.P[:, blk.chain_start : blk.chain_start + blk.size]
        pcols = jf.P[:, partner.chain_start : partner.chain_start + partner.size]
        assert np.abs(pcols - cols.conj()).max() < 1e-12


def test_stability_ising_pair():
    X = model_X(ising_pair_model())
    jf = jordan_decompose(X)
    report = stability_check(jf)
    assert report.min_re == pytest.approx(0.0, abs=1e-12)
    assert len(report.zero) == 1
    assert report.zero[0].block_sizes == (1,)
    assert not report.all_strictly_stable


def test_stability_closed_system_all_imaginary():
    K = np.array([[0.0, 0.9], [-0.9, 0.0]])
    m = validate_model(1, K, [])
    jf = jordan_decompose(model_X(m))
    report = stability_check(jf)
    assert len(report.imaginary) == 2
    assert all(c.block_sizes == (1,) for c in report.imaginary)
    assert spectral_gap(jf) == 0.0


def test_stability_violation_raises():
    jf = jordan_decompose(-np.eye(2))
    with pytest.raises(StabilityViolated):
        stability_check(jf)


def test_stability_nontrivial_axis_block_raises():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    jf = jordan_decompose(X)
    with pytest.raises(StabilityViolated):
        stability_check(jf)


@pytest.mark.parametrize("seed", range(100))
def test_random_models_satisfy_stability(seed):
    n = 3
    m = random_model(n, seed=seed)
    jf = jordan_decompose(model_X(m))
    report = stability_check(jf)
    assert report.min_re >= -1e-10
    for cls in report.classes:
        if abs(cls.rapidity.real) <= 1e-10:
            assert all(s == 1 for s in cls.block_sizes)


def test_axis_models_have_trivial_axis_blocks():
    for seed in range(20):
        m = random_axis_model(2, seed=seed, decoupled=2)
        jf = jordan_decompose(model_X(m))
        report = stability_check(jf)
        assert report.imaginary or report.zero
        for cls in report.classes:
            if cls.kind != "stable":
                assert all(s == 1 for s in cls.block_sizes)


def test_gap_isotropic_qubit():
    # h=0, theta=pi/2: X = 2 Gamma * identity
    m = single_qubit_model(gamma=0.75, theta=np.pi / 2, h=0.0)
    jf = jordan_decompose(model_X(m))
    stability_check(jf)
    assert spectral_gap(jf) == pytest.approx(4 * 0.75, abs=1e-10)


def test_gap_zero_for_ising_pair():
    jf = jordan_decompose(model_X(ising_pair_model()))
    assert spectral_gap(jf) == pytest.approx(0.0, abs=1e-12)


def test_ill_conditioned_flag_on_near_merge():
    # two eigenvalues separated by just over the cluster width trigger the flag
    X = np.diag([1.0, 1.0 + 5e-7])
    jf = jordan_decompose(X, tol_cluster=1e-7)
    assert jf.ill_conditioned


def test_ill_conditioned_propagates_to_report_warning():
    from liouv.analysis import WARN_ILL_CONDITIONED, analyze

    # bath rates split by ~5e-7: rapidities 1 and 1 + 1e-6 sit inside the
    # fragile band around the clustering threshold
    m = validate_model(
        1,
        np.zeros((2, 2)),
        [np.array([np.sqrt(0.5), 0.0]), np.array([0.0, np.sqrt(0.5 + 5e-7)])],
    )
    result = analyze(m)
    assert WARN_ILL_CONDITIONED in result.warnings


def _staircase_only(monkeypatch, X, **kw):
    """jordan_decompose with every singleton certificate refused."""
    import liouv.rapidity as rapidity

    with monkeypatch.context() as mp:
        mp.setattr(
            rapidity, "_certified_singletons", lambda X, w, *a: np.zeros(len(w), dtype=bool)
        )
        return jordan_decompose(X, **kw)


def _count_staircase_calls(monkeypatch):
    import liouv.rapidity as rapidity

    calls = []
    staircase = rapidity._chains_for_rapidity

    def spy(*args, **kwargs):
        calls.append(args[1])
        return staircase(*args, **kwargs)

    monkeypatch.setattr(rapidity, "_chains_for_rapidity", spy)
    return calls


@pytest.mark.parametrize(
    "make",
    [lambda s=s: random_model(1 + s % 8, seed=s) for s in range(24)]
    + [lambda s=s: random_axis_model(2 + s % 5, seed=s, decoupled=1 + s % 3) for s in range(12)],
)
def test_singleton_fast_path_matches_staircase(monkeypatch, make):
    X = model_X(make())
    ref = _staircase_only(monkeypatch, X)
    calls = _count_staircase_calls(monkeypatch)
    jf = jordan_decompose(X)
    assert calls == []  # every cluster of these models is a certified singleton

    assert [(b.rapidity, b.size, b.chain_start, b.j, b.k) for b in jf.blocks] == [
        (b.rapidity, b.size, b.chain_start, b.j, b.k) for b in ref.blocks
    ]
    assert jf.conjugate_pairing == ref.conjugate_pairing
    assert jf.ill_conditioned == ref.ill_conditioned
    for idx, b in enumerate(jf.blocks):
        p = jf.P[:, b.chain_start]
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(X @ p - b.rapidity * p) <= 1e-12 * jf.x_norm
        partner = jf.blocks[dict(jf.conjugate_pairing)[idx]]
        assert np.array_equal(jf.P[:, partner.chain_start], p.conj())
        if b.rapidity.imag == 0:
            assert not p.imag.any()
    assert jf.cond_P == pytest.approx(ref.cond_P, rel=1e-8)
    assert jf.reconstruction_residual <= 10 * ref.reconstruction_residual


@pytest.mark.parametrize("offset, sizes", [(0.0, [2]), (1e-12, [1, 1])])
def test_near_defective_qubit_takes_staircase(monkeypatch, offset, sizes):
    # at h* the eigenvectors coincide; at h* + 1e-12 two singletons sit 4e-6
    # apart with cond(P) = 1e6, too close for the certificate
    h = np.cos(np.pi / 3) + offset
    X = model_X(single_qubit_model(h=h))
    ref = _staircase_only(monkeypatch, X)
    calls = _count_staircase_calls(monkeypatch)
    jf = jordan_decompose(X)
    assert len(calls) == 1  # one real 2-cluster, or the Im > 0 singleton
    assert [b.size for b in jf.blocks] == sizes
    assert not jf.ill_conditioned
    assert [b.rapidity for b in jf.blocks] == [b.rapidity for b in ref.blocks]
    assert np.array_equal(jf.P, ref.P)
    assert jf.cond_P == ref.cond_P
    if offset:
        assert jf.cond_P == pytest.approx(1e6, rel=1e-3)


def _cluster_reference(values, tol):
    """The union-find loop _cluster replaced, kept verbatim as the reference."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _cluster_cases():
    rng = np.random.default_rng(5)
    cases = []
    for m in (1, 2, 7, 40, 150):
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        cases.append((z, 0.05))
        cases.append((z.real.copy(), 0.02))
    # tie-heavy: few distinct values, many exact duplicates, shuffled
    grid = rng.integers(0, 4, size=(60, 2)) * 0.5
    cases.append((grid[:, 0] + 1j * grid[:, 1], 1e-12))
    cases.append((grid[:, 0] + 1j * grid[:, 1], 0.5))
    # chains linked only transitively, with spacings exactly at the tolerance
    chain = rng.permutation(np.arange(30) * 0.25)
    cases.append((chain.astype(complex), 0.25))
    cases.append((chain.astype(complex), np.nextafter(0.25, 0)))
    # conjugate pairs that straddle the tolerance, as eig returns them
    im = rng.uniform(0, 1e-7, 25)
    pairs = np.repeat(rng.uniform(0, 1, 25), 2) + 1j * np.stack([im, -im], 1).ravel()
    cases.append((pairs, 1e-7))
    return cases


@pytest.mark.parametrize("values, tol", _cluster_cases())
def test_vectorised_cluster_matches_reference_loop(values, tol):
    from liouv.rapidity import _cluster

    assert _cluster(values, tol) == _cluster_reference(values, tol)


@pytest.mark.parametrize("seed", range(6))
def test_near_merge_flag_matches_pairwise_loop(seed):
    # distinct diagonal rapidities spaced outside the 10 * tol_cluster band,
    # with one gap moved inside it for odd seeds
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(1.1e-6, 3e-6, 12)
    if seed % 2:
        gaps[rng.integers(1, 12)] = rng.uniform(2e-7, 9e-7)
    values = 1.0 + np.cumsum(gaps)
    X = np.diag(rng.permutation(values))
    tol = 1e-7 * max(np.linalg.norm(X, 2), 1.0)
    means = [complex(v) for v in values]
    expected = any(
        abs(means[i] - means[j]) < 10 * tol
        for i in range(len(means))
        for j in range(i + 1, len(means))
    )
    jf = jordan_decompose(X, tol_cluster=1e-7)
    assert [b.size for b in jf.blocks] == [1] * len(values)
    assert jf.ill_conditioned == expected == bool(seed % 2)


def test_rank_tolerance_at_rounding_level_keeps_staircase_decision(monkeypatch):
    # eigenvector residuals ~ eps ||X|| sit at or above these thresholds: the
    # staircase finds nullity 0 (1e-16) or a borderline cut (1e-15), and the
    # certificate must decline rather than report a clean singleton
    from liouv.errors import InternalInvariantViolated

    X = model_X(random_model(3, seed=0))
    with pytest.raises(InternalInvariantViolated):
        jordan_decompose(X, tol_rank=1e-16)
    ref = _staircase_only(monkeypatch, X, tol_rank=1e-15)
    jf = jordan_decompose(X, tol_rank=1e-15)
    assert ref.ill_conditioned and jf.ill_conditioned
    assert [(b.rapidity, b.size) for b in jf.blocks] == [(b.rapidity, b.size) for b in ref.blocks]


def _scaled(m, s):
    """K -> sK and l -> sqrt(s) l, so that X -> sX."""
    return validate_model(m.n, s * m.K, [np.sqrt(s) * l for l in m.lindblad_vectors])


@pytest.mark.parametrize("model", [random_model(4, 3), random_axis_model(4, 3, 3)])
@pytest.mark.parametrize("s", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
def test_analysis_is_scale_covariant(model, s):
    # every threshold is relative to ||X||_2, with no absolute floor at 1
    from liouv.analysis import analyze
    from liouv.oracle import match_multisets

    ref, got = analyze(model), analyze(_scaled(model, s))
    rapidities = [np.array([b.rapidity for b in r.jordan.blocks]) for r in (ref, got)]
    assert match_multisets(rapidities[0], rapidities[1] / s) <= 1e-10 * ref.jordan.x_norm
    # the order of axis rapidities follows real parts at rounding level, so
    # the classes are compared as multisets
    classes = [Counter((c.kind, c.block_sizes) for c in r.stability.classes) for r in (ref, got)]
    assert classes[0] == classes[1]
    assert got.ness.stationary_dim == ref.ness.stationary_dim
