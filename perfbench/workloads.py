"""Benchmark workloads: seeded inputs, the operation cycle, and expected structure.

Every input is generated here from the workload seed and handed to the package
only as a model file, so an operation is exactly what a user types:
`liouv analyze FILE --format json`, `liouv verify FILE` or `liouv comb ...`.
Each model comes with the structure known from its construction (Lyapunov
path, Jordan block sizes, stationary dimension, spectrum size), which the
checks compare against the program's output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from liouv.io import model_to_dict
from liouv.model import QuadraticLindbladModel, validate_model
from liouv.randmodel import random_axis_model, random_model

WORKLOADS = ("generic", "axis", "spectrum", "certify")

# `liouv comb` size: the middle sector C(11, 5) = 462 keeps one op under 0.5 s
COMB_L = 11


@dataclass(frozen=True)
class Expect:
    """Structure an input has by construction.

    block_sizes is the Jordan block multiset of every rapidity (all rapidities
    of these inputs share it).  spectrum_count is None when prod(l + 1)
    exceeds the default enumeration limit; merged_dims then is None too.
    """

    path: str
    distinct: int
    block_sizes: tuple[int, ...]
    imaginary: int
    stationary_dim: int
    free_parameters: int
    spectrum_count: int | None = None
    merged_dims: tuple[int, ...] | None = None
    rapidity: complex | None = None


@dataclass(frozen=True)
class Op:
    """One operation: the argv of one `liouv.cli.main` call and how to check it.

    model and expect are set for `analyze` and `verify`; output is the report
    file an `analyze` op writes.
    """

    kind: str
    argv: tuple[str, ...]
    model: QuadraticLindbladModel | None = None
    expect: Expect | None = None
    output: Path | None = None


def rotated_defective_copies(
    copies: int, seed: int, gamma: float = 1.0, theta: float = np.pi / 3
) -> QuadraticLindbladModel:
    """`copies` critical single qubits h* = gamma cos(theta) on the block diagonal,
    rotated by a Haar-random orthogonal matrix drawn from `seed`.

    Each copy has X = [[2g, 4g cos(theta)], [0, 2g]], a single 2-block at the
    real rapidity 2 gamma, and the rotation O maps X to O X O^T, so the model
    has one rapidity with `copies` blocks of size 2 whatever the seed.
    """
    d = 2 * copies
    h = gamma * np.cos(theta)
    K = np.zeros((d, d))
    vectors = []
    for c in range(copies):
        K[2 * c, 2 * c + 1], K[2 * c + 1, 2 * c] = h, -h
        l = np.zeros(d, dtype=complex)
        l[2 * c] = np.sqrt(gamma)
        l[2 * c + 1] = np.sqrt(gamma) * np.exp(1j * theta)
        vectors.append(l)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    O = q * np.sign(np.diag(r))
    return validate_model(copies, O @ K @ O.T, [O @ l for l in vectors])


def defective_copies_expect(copies: int, gamma: float = 1.0) -> Expect:
    """One real rapidity 2 gamma with `copies` 2-blocks: 3^copies occupations
    whose eigenvalues -4 gamma k merge into 2 copies + 1 groups of C(2 copies, k)."""
    return Expect(
        path="dense",
        distinct=1,
        block_sizes=(2,) * copies,
        imaginary=0,
        stationary_dim=1,
        free_parameters=0,
        spectrum_count=3**copies,
        merged_dims=tuple(sorted(math.comb(2 * copies, k) for k in range(2 * copies + 1))),
        rapidity=complex(2 * gamma),
    )


def _generic_expect(n: int, enumerated: bool) -> Expect:
    count = 2 ** (2 * n)
    return Expect(
        path="dense",
        distinct=2 * n,
        block_sizes=(1,),
        imaginary=0,
        stationary_dim=1,
        free_parameters=0,
        spectrum_count=count if enumerated else None,
        merged_dims=(1,) * count if enumerated else None,
    )


def _axis_expect(n: int, decoupled: int) -> Expect:
    """`decoupled` (even) coordinates give decoupled/2 conjugate imaginary pairs:
    each pair's occupations cancel only together, and each pair leaves one
    free Lyapunov coefficient."""
    pairs = decoupled // 2
    return Expect(
        path="jordan",
        distinct=2 * n,
        block_sizes=(1,),
        imaginary=decoupled,
        stationary_dim=2**pairs,
        free_parameters=pairs,
    )


def _write(model: QuadraticLindbladModel, path: Path) -> Path:
    path.write_text(json.dumps(model_to_dict(model)), encoding="utf-8")
    return path


def _analyze(kind: str, model, expect: Expect, workdir: Path) -> Op:
    src = _write(model, workdir / f"{kind}.json")
    out = workdir / f"{kind}.report.json"
    argv = ("analyze", str(src), "--format", "json", "--output", str(out))
    return Op(kind, argv, model, expect, out)


def _verify(kind: str, model, expect: Expect, workdir: Path) -> Op:
    src = _write(model, workdir / f"{kind}.json")
    return Op(kind, ("verify", str(src)), model, expect)


def _comb(*args: int | str) -> Op:
    sub = str(args[0])
    rest = tuple(str(a) for a in args[1:])
    return Op(f"{sub}-{'-'.join(rest)}", ("comb", sub) + rest)


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's model files into `workdir`; return one op cycle.

    A run repeats the cycle, so every kind of op appears equally often.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "generic":
        return [_analyze("generic", random_model(32, seed), _generic_expect(32, False), workdir)]
    if name == "axis":
        model = random_axis_model(48, seed, decoupled=16)
        return [_analyze("axis", model, _axis_expect(48, 16), workdir)]
    if name == "spectrum":
        # the cheaper defective op first: it is the one set-up warms up with
        return [
            _analyze("defective10", rotated_defective_copies(10, seed),
                     defective_copies_expect(10), workdir),
            _analyze("random8", random_model(8, seed), _generic_expect(8, True), workdir),
        ]
    if name == "certify":
        # two oracle ops and five combinatorics ops split the time about evenly
        return [
            _verify("verify-random4", random_model(4, seed), _generic_expect(4, True), workdir),
            _comb("nilpotent-blocks", COMB_L, 2),
            _comb("nilpotent-blocks", COMB_L, 3),
            _verify("verify-axis4", random_axis_model(4, seed, 2), _axis_expect(4, 2), workdir),
            _comb("nilpotent-blocks", COMB_L, 4),
            _comb("nilpotent-blocks", COMB_L, 5),
            _comb("verify-conjecture", COMB_L),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
