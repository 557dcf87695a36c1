import itertools
import json
import math
import struct
from importlib.resources import files

import numpy as np
import pytest

from liouv.errors import SpectrumTooLarge
from liouv.model import build_bath_matrices, build_X
from liouv.lyapunov import solve_lyapunov
from liouv.randmodel import random_axis_model, random_model
from liouv.rapidity import jordan_decompose, stability_check
from liouv.spectra import (
    attach_covariance,
    classify_ness,
    enumerate_spectrum,
    ness_covariance,
    physicality_margin,
)

from conftest import (
    GAMMA_M,
    GAMMA_P,
    J_COUPLING,
    critical_plus_decoupled,
    ising_pair_model,
    json_native,
    seventy_block_result,
    single_qubit_model,
)


def jordan_of(model):
    bath = build_bath_matrices(model)
    return bath, build_X(model, bath), jordan_decompose(build_X(model, bath))


def test_diagonalizable_qubit_spectrum():
    m = single_qubit_model(h=np.cos(np.pi / 3) + 0.3)
    bath, X, jf = jordan_of(m)
    spec = enumerate_spectrum(jf)
    betas = [b.rapidity for b in jf.blocks]
    expected = sorted(
        [0, -2 * betas[0], -2 * betas[1], -2 * (betas[0] + betas[1])],
        key=lambda z: (z.real, z.imag),
    )
    np.testing.assert_allclose([e.lam for e in spec.entries], expected, atol=1e-12)
    assert all(e.subspace_dim == 1 for e in spec.entries)
    assert all(e.max_jordan_block == 1 for e in spec.entries)


def test_single_defective_block_spectrum():
    m = single_qubit_model()  # one size-2 block at beta = 2
    bath, X, jf = jordan_of(m)
    spec = enumerate_spectrum(jf)
    got = [(e.lam, e.subspace_dim, e.max_jordan_block) for e in spec.entries]
    assert got == [(-8 + 0j, 1, 1), ((-4 + 0j), 2, 2), (0j, 1, 1)]


def test_vacuum_entry():
    m = ising_pair_model()
    bath, X, jf = jordan_of(m)
    spec = enumerate_spectrum(jf)
    vacuum = [e for e in spec.entries if all(mm == 0 for _, mm in e.occupation)]
    assert len(vacuum) == 1
    assert vacuum[0].lam == 0
    assert vacuum[0].subspace_dim == 1
    assert vacuum[0].max_jordan_block == 1


def test_dimension_sum_rule_and_conjugation_symmetry():
    for seed in range(10):
        n = 2 + seed % 3
        m = random_model(n, seed=seed)
        bath, X, jf = jordan_of(m)
        spec = enumerate_spectrum(jf)
        assert spec.total_dim == 4**n
        lams = sorted(
            (e.lam for e in spec.entries), key=lambda z: (z.real, z.imag)
        )
        conj = sorted(
            (e.lam.conjugate() for e in spec.entries), key=lambda z: (z.real, z.imag)
        )
        np.testing.assert_allclose(lams, conj, atol=1e-10)


def test_full_occupation_is_minus_twice_trace():
    for seed in range(5):
        m = random_model(2, seed=seed)
        bath, X, jf = jordan_of(m)
        spec = enumerate_spectrum(jf)
        full = [e for e in spec.entries if all(mm == b.size for (_, mm), b in zip(e.occupation, jf.blocks))]
        assert len(full) == 1
        assert abs(full[0].lam - (-2 * np.trace(X))) < 1e-10


@pytest.mark.parametrize("size", [4, 5, 6])
def test_max_block_maximized_at_half_filling(size):
    # single block of size l: the bound 1 + (l-m)m peaks at half filling
    from liouv.rapidity import JordanBlockDescriptor, JordanForm

    blocks = (JordanBlockDescriptor(1.0 + 0j, size, 0, 1, 1),)
    P = np.eye(size, dtype=complex)
    jf = JordanForm(P, P, blocks, ((0, 0),), 1.0, 1.0, 0.0, False)
    spec = enumerate_spectrum(jf)
    peak = 1 + (size - size // 2) * (size // 2)
    best = max(spec.entries, key=lambda e: e.max_jordan_block)
    assert best.max_jordan_block == peak
    maximizers = {
        e.occupation[0][1] for e in spec.entries if e.max_jordan_block == peak
    }
    assert maximizers == {size // 2, (size + 1) // 2}


def test_merged_view_flags_collisions():
    m = single_qubit_model(h=np.cos(np.pi / 3) + 0.3)
    bath, X, jf = jordan_of(m)
    spec = enumerate_spectrum(jf)
    # two conjugate rapidities with equal real part collide at lambda = -2(b1+b2)
    lower = [e for e in spec.merged if e.lower_bound]
    assert not lower or all(e.contributors > 1 for e in lower)
    assert sum(e.total_dim for e in spec.merged) == 4


def test_spectrum_limit():
    m = random_model(4, seed=0)
    bath, X, jf = jordan_of(m)
    with pytest.raises(SpectrumTooLarge):
        enumerate_spectrum(jf, limit=10)


def test_classify_ising_pair():
    m = ising_pair_model()
    bath, X, jf = jordan_of(m)
    report = classify_ness(jf, stability_check(jf))
    assert not report.unique
    assert report.zero_rapidity_modes == ((1, 1),)
    assert report.imaginary_pair_modes == ()
    assert report.stationary_dim == 2
    assert report.gap == 0.0


def test_classify_strictly_stable():
    m = random_model(3, seed=1)
    bath, X, jf = jordan_of(m)
    report = classify_ness(jf, stability_check(jf))
    assert report.unique
    assert report.stationary_dim == 1
    assert report.zero_rapidity_modes == ()
    assert report.imaginary_pair_modes == ()


def test_classify_imaginary_pair():
    m = random_axis_model(2, seed=5, decoupled=2)
    bath, X, jf = jordan_of(m)
    report = classify_ness(jf, stability_check(jf))
    assert not report.unique
    signs = sorted(mode[4] for mode in report.imaginary_pair_modes)
    assert signs == ["+", "-"]
    (jp, jm, k, kp, _), _ = report.imaginary_pair_modes
    assert jf.blocks[0].j in (jp, jm) or True  # labels refer to sorted rapidities
    assert report.stationary_dim == 2  # empty and the balanced pair


def test_classify_zero_plus_pair():
    m = random_axis_model(3, seed=5, decoupled=3)
    bath, X, jf = jordan_of(m)
    report = classify_ness(jf, stability_check(jf))
    assert len(report.zero_rapidity_modes) == 1
    assert len(report.imaginary_pair_modes) == 2
    assert report.stationary_dim == 4


def imaginary_pair_modes_by_search(jf, report):
    """The partner search classify_ness ran before it read the recorded
    conjugate pairing: for each Im > 0 imaginary class, the first imaginary
    class within tol * max(||X||, 1) of its conjugate, and every block pair."""
    modes = []
    for cls in report.classes:
        if cls.kind != "imaginary" or cls.rapidity.imag <= 0:
            continue
        partner = next(
            c for c in report.classes
            if c.kind == "imaginary"
            and abs(c.rapidity - cls.rapidity.conjugate()) <= report.tol * max(jf.x_norm, 1.0)
        )
        for (j, k) in [(b.j, b.k) for b in jf.blocks if b.j == cls.j]:
            for (jp, kp) in [(b.j, b.k) for b in jf.blocks if b.j == partner.j]:
                modes.append((j, jp, k, kp, "+"))
                modes.append((j, jp, k, kp, "-"))
    return tuple(modes)


@pytest.mark.parametrize(
    "model",
    [random_axis_model(n, seed, decoupled) for n, seed, decoupled in
     [(2, 5, 2), (3, 5, 3), (4, 1, 4), (5, 7, 7), (6, 3, 6), (8, 4, 12), (9, 2, 16)]]
    + [critical_plus_decoupled(copies, pairs, b, seed) for copies, pairs, b, seed in
       [(1, 2, 0.7, 0), (2, 2, 0.7, 1), (3, 1, 0.0, 2)]],
)
def test_imaginary_pair_modes_match_search(model):
    _, _, jf = jordan_of(model)
    stability = stability_check(jf)
    report = classify_ness(jf, stability)
    assert report.imaginary_pair_modes == imaginary_pair_modes_by_search(jf, stability)


def test_covariance_trivial():
    C = ness_covariance(np.zeros((4, 4)))
    np.testing.assert_array_equal(C, np.eye(4))


def test_covariance_ising_pair_values():
    m = ising_pair_model()
    bath, X, jf = jordan_of(m)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    C = ness_covariance(ds.Z)
    gp, gm, j = GAMMA_P, GAMMA_M, J_COUPLING
    # C = 1 + 4i Z^T: the (1,2) entry carries -8i gm gp / (2 gp^2 + j^2)
    assert C[0, 1] == pytest.approx(-8j * gm * gp / (2 * gp**2 + j**2), abs=1e-12)
    assert C[0, 2] == pytest.approx(-8j * gm * j / (2 * gp**2 + j**2), abs=1e-12)
    np.testing.assert_allclose(np.diag(C), np.ones(4), atol=1e-15)
    np.testing.assert_allclose(C, C.conj().T, atol=1e-14)


def test_covariance_physicality_and_attach():
    m = ising_pair_model()
    bath, X, jf = jordan_of(m)
    ds = solve_lyapunov(X, bath.M_i, jf, stability_check(jf))
    report = attach_covariance(classify_ness(jf, stability_check(jf)), ds.Z, ds.unique)
    assert report.covariance_unique is True
    assert report.physicality_margin == pytest.approx(physicality_margin(ds.Z))
    assert report.physicality_margin <= 1 + 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_physicality_bound_for_unique_ness(seed):
    # a genuine fermionic covariance needs all singular values of 4Z <= 1
    m = random_model(1 + seed % 3, seed=400 + seed)
    bath, X, jf = jordan_of(m)
    stability = stability_check(jf)
    if not stability.all_strictly_stable:
        pytest.skip("not strictly stable")
    ds = solve_lyapunov(X, bath.M_i, jf, stability)
    assert physicality_margin(ds.Z) <= 1 + 1e-7


def test_stationary_dim_counts_accidental_cancellations():
    from liouv.rapidity import JordanBlockDescriptor, JordanForm

    blocks = tuple(
        JordanBlockDescriptor(beta, 1, i, i + 1, 1)
        for i, beta in enumerate([-0.3j, 0.3j, -0.2j, 0.2j])
    )
    P = np.eye(4, dtype=complex)
    pairing = ((0, 1), (1, 0), (2, 3), (3, 2))
    jf = JordanForm(P, P, blocks, pairing, 1.0, 1.0, 0.0, False)
    report = classify_ness(jf, stability_check(jf))
    # subsets with balanced imaginary parts: {}, both pairs, each pair alone
    assert report.stationary_dim == 4


# --- array enumeration against the per-occupation reference -----------------


def reference_enumeration(jf, tol_merge=1e-8):
    """The per-occupation loop the array enumeration replaced, its arithmetic
    kept verbatim as the reference: one record per occupation vector, sorted,
    then merged."""
    blocks = jf.blocks
    entries = []
    for occ in itertools.product(*(range(b.size + 1) for b in blocks)):
        lam = -2 * sum(m * b.rapidity for m, b in zip(occ, blocks))
        dim = math.prod(math.comb(b.size, m) for m, b in zip(occ, blocks))
        blk = 1 + sum((b.size - m) * m for m, b in zip(occ, blocks))
        entries.append(
            (complex(lam), tuple(((b.j, b.k), m) for b, m in zip(blocks, occ)), dim, blk)
        )
    entries.sort(key=lambda e: (e[0].real, e[0].imag, tuple(m for _, m in e[1])))

    scale = max((abs(e[0]) for e in entries), default=0.0)
    tol = tol_merge * max(scale, 1.0)
    merged = []
    group = []

    def merge(group):
        lam = sum(e[0] * e[2] for e in group) / sum(e[2] for e in group)
        return (lam, sum(e[2] for e in group), max(e[3] for e in group),
                len(group), len(group) > 1)

    for e in entries:
        if group and abs(e[0] - group[-1][0]) > tol:
            merged.append(merge(group))
            group = []
        group.append(e)
    if group:
        merged.append(merge(group))
    return entries, merged


def _bits(z):
    """A complex number as its two IEEE doubles, so signed zeros count."""
    return struct.pack("<d", z.real) + struct.pack("<d", z.imag)


def assert_same_as_reference(jf):
    ref_entries, ref_merged = reference_enumeration(jf)
    spec = enumerate_spectrum(jf)
    # the arrays, as the report reads them
    got = list(zip(map(_bits, spec.lam.tolist()), spec.occupations().tolist(),
                   spec.subspace_dim.tolist(), spec.max_jordan_block.tolist()))
    assert got == [(_bits(lam), [m for _, m in occ], dim, blk)
                   for lam, occ, dim, blk in ref_entries]
    assert spec.labels == tuple(jk for jk, _ in ref_entries[0][1])
    # the record views, on a spread of entries and on every merged group
    step = max(1, len(ref_entries) // 200)
    for i in range(0, len(ref_entries), step):
        e = spec.entries[i]
        lam, occ, dim, blk = ref_entries[i]
        assert (_bits(e.lam), e.occupation, e.subspace_dim, e.max_jordan_block) == (
            _bits(lam), occ, dim, blk)
    got = [(_bits(e.lam), e.total_dim, e.max_jordan_block, e.contributors, e.lower_bound)
           for e in spec.merged]
    assert got == [(_bits(lam), *rest) for lam, *rest in ref_merged]


def rotated_critical_qubits(copies, seed, theta=np.pi / 3):
    """`copies` single qubits at the defective point h* = cos(theta) on the block
    diagonal, rotated by a random orthogonal matrix: one rapidity, `copies`
    Jordan 2-blocks, and eigenvalues that collide across occupations."""
    from liouv.model import validate_model

    d = 2 * copies
    K = np.zeros((d, d))
    vectors = []
    for c in range(copies):
        K[2 * c, 2 * c + 1], K[2 * c + 1, 2 * c] = np.cos(theta), -np.cos(theta)
        v = np.zeros(d, dtype=complex)
        v[2 * c], v[2 * c + 1] = 1.0, np.exp(1j * theta)
        vectors.append(v)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    O = q * np.sign(np.diag(r))
    return validate_model(copies, O @ K @ O.T, [O @ v for v in vectors])


@pytest.mark.parametrize("name", ["single_qubit", "ising_pair", "ising_chain_3"])
def test_array_enumeration_matches_reference_bundled(name):
    from liouv.io import load_model

    model, _ = load_model(files("liouv") / "models" / f"{name}.json")
    assert_same_as_reference(jordan_of(model)[2])


@pytest.mark.parametrize("seed", range(30))
def test_array_enumeration_matches_reference_random(seed):
    assert_same_as_reference(jordan_of(random_model(1 + seed % 8, seed))[2])


@pytest.mark.parametrize("n, seed, decoupled",
                         [(2, 5, 2), (3, 5, 3), (4, 1, 4), (5, 2, 5), (6, 3, 6)])
def test_array_enumeration_matches_reference_axis(n, seed, decoupled):
    assert_same_as_reference(jordan_of(random_axis_model(n, seed, decoupled))[2])


def test_array_enumeration_matches_reference_rotated_critical_qubits():
    _, _, jf = jordan_of(rotated_critical_qubits(10, seed=3))
    assert [b.size for b in jf.blocks] == [2] * 10
    assert_same_as_reference(jf)


def test_dimensions_past_int64_stay_exact():
    # one 70-block: 4^35 = 2^70 overflows int64, so dims are Python ints
    from liouv.analysis import build_report

    result = seventy_block_result()
    spec = result.spectrum
    assert spec.total_dim == 2**70
    assert [e.subspace_dim for e in spec.entries] == [math.comb(70, m) for m in range(70, -1, -1)]
    assert all(type(e.subspace_dim) is int for e in spec.entries)
    assert all(type(e.total_dim) is int for e in spec.merged)
    assert sum(e.total_dim for e in spec.merged) == 2**70

    report = json.loads(json.dumps(build_report(result, full_spectrum=True),
                                   default=json_native))["spectrum"]
    # json writes a float dimension with an exponent and reads it back as a float
    assert type(report["total_dim"]) is int and report["total_dim"] == 2**70
    assert all(type(e["total_dim"]) is int for e in report["merged"])
    assert all(type(e["subspace_dim"]) is int for e in report["entries"])
    dims = [math.comb(70, m) for m in range(70, -1, -1)]
    assert [e["total_dim"] for e in report["merged"]] == dims
    assert [e["subspace_dim"] for e in report["entries"]] == dims


def reference_stationary_dim(jf, tol=1e-8):
    """The subset loop the doubling count replaced: every 0/1 occupation of the
    axis modes, summed in block order."""
    report = stability_check(jf, tol)
    axis_betas = []
    for cls in report.classes:
        count = sum(1 for b in jf.blocks if b.j == cls.j)
        if cls.kind == "zero":
            axis_betas.extend([0.0 + 0.0j] * count)
        elif cls.kind == "imaginary":
            axis_betas.extend([cls.rapidity] * count)
    scale = max(jf.x_norm, np.finfo(float).tiny)
    stationary = 0
    for bits in itertools.product((0, 1), repeat=len(axis_betas)):
        s = sum(m * b for m, b in zip(bits, axis_betas))
        if abs(s) <= tol * scale:
            stationary += 1
    return stationary, len(axis_betas)


@pytest.mark.parametrize("n, seed, decoupled",
                         [(2, 5, 2), (3, 5, 3), (5, 7, 7), (8, 4, 12), (9, 2, 16)])
def test_stationary_count_matches_subset_loop(n, seed, decoupled):
    _, _, jf = jordan_of(random_axis_model(n, seed, decoupled))
    expected, modes = reference_stationary_dim(jf)
    assert modes == decoupled
    assert classify_ness(jf, stability_check(jf)).stationary_dim == expected


def test_entry_views_index_like_iteration():
    _, _, jf = jordan_of(random_model(3, seed=2))
    spec = enumerate_spectrum(jf)
    assert len(spec.entries) == np.prod([b.size + 1 for b in jf.blocks])
    entries = list(spec.entries)
    assert len(entries) == len(spec.entries)
    assert [spec.entries[i] for i in range(len(entries))] == entries
    assert spec.entries[-1] == entries[-1]
    assert spec.entries[1:4] == tuple(entries[1:4])
    with pytest.raises(IndexError):
        spec.entries[len(entries)]
    assert [spec.merged[i] for i in range(len(spec.merged))] == list(spec.merged)
