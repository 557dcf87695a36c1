"""Independent checks of each operation's output.

Nothing here trusts a residual the program reports.  Certificates are
recomputed from the returned arrays (the report's Z and rapidities, and the P
and V of the captured analysis result) against X and M_i rebuilt from the
benchmark's own input; structure is compared with what the input has by
construction.  `check` returns the list of problems and the worst relative
certificate residual, which feeds `residual_digits`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from workloads import COMB_L, Expect, Op

# a relative certificate residual above this is a wrong answer
CERT_TOL = 1e-8


@dataclass
class Outcome:
    problems: list[str]
    residual: float | None  # worst relative certificate residual, None for comb ops


def input_matrices(model) -> tuple[np.ndarray, np.ndarray]:
    """X = 2K + 2 Re M and M_i = Im M with M = sum l l^dagger, from the raw input."""
    M = sum(np.outer(l, l.conj()) for l in model.lindblad_vectors)
    return 2 * model.K + 2 * M.real, M.imag


def _delta(rapidities) -> np.ndarray:
    blocks = [(beta, s) for beta, sizes in rapidities for s in sizes]
    d = sum(s for _, s in blocks)
    out = np.zeros((d, d), dtype=complex)
    start = 0
    for beta, s in blocks:
        out[start:start + s, start:start + s] = beta * np.eye(s) + np.eye(s, k=1)
        start += s
    return out


def certificate_residuals(model, P, V, Z, rapidities) -> dict[str, float]:
    """Relative residuals of X = P Delta P^-1, the rapidities, X^T Z + Z X = M_i,
    the antisymmetry of Z and V V^T = J.

    rapidities is [(beta, block_sizes)] in the column order of P.  A
    rapidity with largest block s moves by eps^(1/s) under a perturbation eps
    of X, so its distance to the eigenvalues of X is raised to the power s.
    """
    X, M_i = input_matrices(model)
    d = X.shape[0]
    x_max = max(np.abs(X).max(), 1.0)
    x_norm = max(np.linalg.norm(X, 2), np.finfo(float).tiny)
    out = {}
    out["reconstruction"] = float(
        np.abs(P @ _delta(rapidities) @ np.linalg.inv(P) - X).max() / x_max
    )
    betas = np.array([beta for beta, _ in rapidities])
    nearest = np.abs(np.linalg.eigvals(X)[:, None] - betas[None, :])
    owner = nearest.argmin(axis=1)
    algebraic = [sum(sizes) for _, sizes in rapidities]
    if list(np.bincount(owner, minlength=len(betas))) != algebraic:
        out["rapidities"] = math.inf
    else:
        powers = np.array([max(sizes) for _, sizes in rapidities])[owner]
        out["rapidities"] = float(((nearest.min(axis=1) / x_norm) ** powers).max())
    R = X.T @ Z + Z @ X - M_i
    scale = 2 * np.linalg.norm(X) * np.linalg.norm(Z) + np.linalg.norm(M_i)
    out["lyapunov"] = float(np.linalg.norm(R) / max(scale, np.finfo(float).tiny))
    out["antisymmetry"] = float(np.abs(Z + Z.T).max() / max(np.abs(Z).max(), 1.0))
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = J[d:, :d] = np.eye(d)
    out["normalization"] = float(np.abs(V @ V.T - J).max() / max(1.0, np.abs(V).max() ** 2))
    return out


def _structure(rapidities, classes, path, free, stationary, expect: Expect) -> list[str]:
    problems = []
    if path != expect.path:
        problems.append(f"Lyapunov path {path}, expected {expect.path}")
    if len(rapidities) != expect.distinct:
        problems.append(f"{len(rapidities)} distinct rapidities, expected {expect.distinct}")
    bad = [tuple(s) for _, s in rapidities if tuple(s) != expect.block_sizes]
    if bad:
        problems.append(f"block sizes {bad[0]}, expected {expect.block_sizes}")
    if expect.rapidity is not None and any(
        abs(beta - expect.rapidity) > 1e-7 * abs(expect.rapidity) for beta, _ in rapidities
    ):
        problems.append(f"rapidity differs from {expect.rapidity}")
    imaginary = sum(1 for c in classes if c == "imaginary")
    if imaginary != expect.imaginary:
        problems.append(f"{imaginary} imaginary rapidities, expected {expect.imaginary}")
    if free != expect.free_parameters:
        problems.append(f"{free} free Lyapunov parameters, expected {expect.free_parameters}")
    if stationary != expect.stationary_dim:
        problems.append(f"stationary_dim {stationary}, expected {expect.stationary_dim}")
    return problems


def _spectrum(spec: dict, rapidities, n: int, expect: Expect) -> list[str]:
    count = math.prod(s + 1 for _, sizes in rapidities for s in sizes)
    if expect.spectrum_count is None:
        return [] if not spec["enumerated"] else ["spectrum enumerated past the limit"]
    if not spec["enumerated"]:
        return ["spectrum not enumerated"]
    problems = []
    if not spec["count"] == count == expect.spectrum_count:
        problems.append(f"{spec['count']} entries, prod(l+1) = {count}, "
                        f"expected {expect.spectrum_count}")
    dims = sorted(m["total_dim"] for m in spec["merged"])
    if not spec["total_dim"] == sum(dims) == 4**n:
        problems.append(f"dimension sum {spec['total_dim']} / {sum(dims)}, expected 4^{n}")
    if tuple(dims) != expect.merged_dims:
        problems.append(f"{len(dims)} merged groups, expected {len(expect.merged_dims)} "
                        "with the constructed dimensions")
    return problems


def check_analyze(op: Op, report: dict, result) -> Outcome:
    """`liouv analyze --format json`: the report file against the input and the
    captured result; certificates from the report's Z and rapidities."""
    model, expect = op.model, op.expect
    X, _ = input_matrices(model)
    problems = []
    if np.abs(np.array(report["X"]) - X).max() > 1e-12 * max(np.abs(X).max(), 1.0):
        problems.append("reported X differs from 2K + 2M_r of the input")
    rapidities = [(complex(*r["beta"]), tuple(r["block_sizes"])) for r in report["rapidities"]]
    Z = np.array(report["driving"]["Z"])
    residuals = certificate_residuals(model, result.jordan.P, result.normal_modes.V, Z, rapidities)
    cov = np.array([[complex(*v) for v in row] for row in report["ness"]["covariance"]])
    if np.abs(cov - (np.eye(len(Z)) + 4j * Z.T)).max() > 1e-12 * max(np.abs(cov).max(), 1.0):
        problems.append("covariance is not 1 + 4i Z^T")
    problems += _structure(
        rapidities,
        [r["class"] for r in report["rapidities"]],
        report["driving"]["method"],
        report["driving"]["free_parameter_count"],
        report["ness"]["stationary_dim"],
        expect,
    )
    problems += _spectrum(report["spectrum"], rapidities, model.n, expect)
    return _with_residuals(problems, residuals)


def check_verify(op: Op, rc: int, text: str, result) -> Outcome:
    """`liouv verify`: exit 0 and PASS, the kernel dimension it printed, and the
    certificates of the analysis it ran."""
    expect = op.expect
    lines = text.strip().splitlines()
    problems = []
    if rc != 0 or not lines or lines[-1] != "PASS":
        problems.append(f"verify exit {rc}, last line {lines[-1] if lines else ''!r}")
    k = expect.stationary_dim
    if f"kernel dim {k} vs stationary_dim {k}: ok" not in text:
        problems.append(f"oracle kernel dimension is not {k}")
    jf = result.jordan
    rapidities = [(beta, tuple(jf.blocks[i].size for i in idx)) for _, beta, idx in jf.rapidities()]
    residuals = certificate_residuals(op.model, jf.P, result.normal_modes.V,
                                      result.driving.Z, rapidities)
    problems += _structure(
        rapidities,
        [c.kind for c in result.stability.classes],
        result.driving.method,
        result.driving.free_parameter_count,
        result.ness.stationary_dim,
        expect,
    )
    return _with_residuals(problems, residuals)


def check_comb(op: Op, rc: int, text: str) -> Outcome:
    """`liouv comb`: agree/PASS, and for nilpotent-blocks the block sizes add up
    to C(l, m) with the longest chain spanning all m(l - m) + 1 weights."""
    problems = []
    if rc != 0:
        problems.append(f"exit {rc}")
    if op.argv[1] == "verify-conjecture":
        if text.strip().splitlines()[-1:] != ["PASS"] or "FAIL" in text:
            problems.append("verify-conjecture did not PASS")
        return Outcome(problems, None)
    m = int(op.argv[3])
    found = re.search(r"^staircase:\s+(.*)$", text, re.M)
    sizes = [int(s) for s in found.group(1).split()] if found else []
    if "agree: True" not in text:
        problems.append("staircase and conjectured blocks disagree")
    if sum(sizes) != math.comb(COMB_L, m):
        problems.append(f"block sizes sum to {sum(sizes)}, expected C({COMB_L},{m})")
    if max(sizes, default=0) != m * (COMB_L - m) + 1:
        problems.append(f"largest block {max(sizes, default=0)}, expected {m * (COMB_L - m) + 1}")
    return Outcome(problems, None)


def _with_residuals(problems: list[str], residuals: dict[str, float]) -> Outcome:
    problems += [f"{name} residual {value:.2e} > {CERT_TOL:.0e}"
                 for name, value in residuals.items() if not value <= CERT_TOL]
    return Outcome(problems, max(residuals.values()))
