"""Full pipeline: model -> rapidities -> driving -> normal modes -> spectrum/NESS.

`analyze` returns the rich result objects; `build_report` flattens them into a
JSON-native dict (complex numbers as [re, im] pairs, deterministic orderings)
that round-trips through serialization unchanged; `dumps_report` writes it as
`json.dumps(report, indent=2)` does, and `write_report` streams the same text to
a file; `render_text` produces the human-readable table view.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _jstr

import numpy as np

from .errors import SpectrumTooLarge
from .lyapunov import DrivingSolution, solve_lyapunov
from .model import (
    BathMatrices,
    QuadraticLindbladModel,
    StructureMatrix,
    build_bath_matrices,
    build_structure_matrix,
    build_X,
)
from .normal_modes import (
    NormalFormDescriptor,
    NormalModeBasis,
    build_V,
    normal_form_coefficients,
)
from .rapidity import JordanForm, StabilityReport, jordan_decompose, stability_check
from .spectra import (
    NessReport,
    SpectrumEnumeration,
    attach_covariance,
    classify_ness,
    enumerate_spectrum,
)
from .tolerances import DEFAULTS, PHYSICALITY_BOUND, Tolerances

WARN_ILL_CONDITIONED = "ill_conditioned_jordan"
WARN_COV_NOT_UNIQUE = "covariance_not_unique"
WARN_PHYSICALITY = "physicality_bound_exceeded"
WARN_SPECTRUM_TRUNCATED = "spectrum_not_enumerated"

ALL_WARNINGS = (
    WARN_ILL_CONDITIONED,
    WARN_COV_NOT_UNIQUE,
    WARN_PHYSICALITY,
    WARN_SPECTRUM_TRUNCATED,
)


@dataclass(frozen=True)
class AnalysisResult:
    model: QuadraticLindbladModel
    bath: BathMatrices
    X: np.ndarray
    structure: StructureMatrix
    jordan: JordanForm
    stability: StabilityReport
    driving: DrivingSolution
    normal_modes: NormalModeBasis
    normal_form: NormalFormDescriptor
    ness: NessReport
    spectrum: SpectrumEnumeration | None
    warnings: tuple[str, ...]
    tolerances: Tolerances


def analyze(
    model: QuadraticLindbladModel,
    tolerances: Tolerances = DEFAULTS,
) -> AnalysisResult:
    """Run the whole fast path on a validated model."""
    t = tolerances
    bath = build_bath_matrices(model)
    X = build_X(model, bath)
    structure = build_structure_matrix(model, bath)
    jf = jordan_decompose(X, t.tol_cluster, t.tol_rank)
    stability = stability_check(jf, t.tol_stability)
    driving = solve_lyapunov(X, bath.M_i, jf, stability)
    nmb = build_V(jf, driving.Z)
    nform = normal_form_coefficients(jf)
    ness = classify_ness(jf, stability)
    ness = attach_covariance(ness, driving.Z, driving.unique)

    warnings = []
    if jf.ill_conditioned:
        warnings.append(WARN_ILL_CONDITIONED)
    if not driving.unique:
        warnings.append(WARN_COV_NOT_UNIQUE)
    if ness.physicality_margin is not None and ness.physicality_margin > PHYSICALITY_BOUND:
        warnings.append(WARN_PHYSICALITY)

    spectrum = None
    try:
        spectrum = enumerate_spectrum(jf, t.spectrum_limit, t.tol_merge)
    except SpectrumTooLarge:
        warnings.append(WARN_SPECTRUM_TRUNCATED)

    return AnalysisResult(
        model=model,
        bath=bath,
        X=X,
        structure=structure,
        jordan=jf,
        stability=stability,
        driving=driving,
        normal_modes=nmb,
        normal_form=nform,
        ness=ness,
        spectrum=spectrum,
        warnings=tuple(warnings),
        tolerances=t,
    )


def _c(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _cmat(m) -> list:
    """Nested lists of [re, im] pairs, each a Python float as float() gives it."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _rmat(m) -> list:
    return np.asarray(m, dtype=float).tolist()


def build_report(result: AnalysisResult, full_spectrum: bool = False) -> dict:
    """JSON-native report; every numerical field finite, orderings deterministic."""
    r = result
    model = r.model
    rap = [
        {
            "j": cls.j,
            "beta": _c(cls.rapidity),
            "class": cls.kind,
            "block_sizes": [int(s) for s in cls.block_sizes],
        }
        for cls in r.stability.classes
    ]
    report = {
        "input": {
            "n": model.n,
            "K": _rmat(model.K),
            "lindblad": _cmat(model.lindblad_vectors),
        },
        "tolerances": {k: (int(v) if isinstance(v, int) else float(v))
                       for k, v in asdict(r.tolerances).items()},
        "bath": {
            "M": _cmat(r.bath.M),
            "M_r": _rmat(r.bath.M_r),
            "M_i": _rmat(r.bath.M_i),
        },
        "X": _rmat(r.X),
        "A0": float(r.structure.A0),
        "rapidities": rap,
        "jordan": {
            "cond_P": float(r.jordan.cond_P),
            "reconstruction_residual": float(r.jordan.reconstruction_residual),
            "ill_conditioned": bool(r.jordan.ill_conditioned),
        },
        "gap": float(r.ness.gap),
        "driving": {
            "Z": _rmat(r.driving.Z),
            "unique": bool(r.driving.unique),
            "free_parameter_count": int(r.driving.free_parameter_count),
            "residual": float(r.driving.residual),
            "method": r.driving.method,
            "omega_checks": [[int(i), float(v)] for i, v in r.driving.omega_checks],
            "zero_mode_K_max": (
                None
                if r.driving.zero_diagnostics is None
                else float(np.abs(r.driving.zero_diagnostics.K).max(initial=0.0))
            ),
            "imaginary_pair_K_max": [
                float(np.abs(d.K).max(initial=0.0)) for d in r.driving.imaginary_diagnostics
            ],
        },
        "normal_modes": {
            "normalization_residual": float(r.normal_modes.normalization_residual),
            "orthogonality_residual": float(r.normal_modes.orthogonality_residual),
            "coupling_count": int(r.normal_form.coupling_count),
            "rapidity_trace": _c(r.normal_form.rapidity_trace()),
        },
        "ness": {
            "unique": bool(r.ness.unique),
            "stationary_dim": int(r.ness.stationary_dim),
            "zero_rapidity_modes": [[int(j), int(k)] for j, k in r.ness.zero_rapidity_modes],
            "imaginary_pair_modes": [
                [int(j), int(jp), int(k), int(kp), sgn]
                for j, jp, k, kp, sgn in r.ness.imaginary_pair_modes
            ],
            "covariance": _cmat(r.ness.covariance),
            "covariance_unique": bool(r.ness.covariance_unique),
            "physicality_margin": float(r.ness.physicality_margin),
        },
        "warnings": list(r.warnings),
    }
    # extremal eigenvalues are available without enumeration: the vacuum sits
    # at 0 and the fully occupied vector at -2 tr X = -2 A_0
    extremes = {"lambda_vacuum": _c(0.0), "lambda_full": _c(-2 * r.structure.A0)}
    if r.spectrum is None:
        report["spectrum"] = {"enumerated": False, "extremes": extremes}
    else:
        s = r.spectrum
        spec = {
            "enumerated": True,
            "extremes": extremes,
            "count": len(s.entries),
            "total_dim": int(s.total_dim),
            "merged": [
                {
                    "lambda": [re, im],
                    "total_dim": dim,
                    "max_jordan_block": blk,
                    "lower_bound": contributors > 1,
                }
                for re, im, dim, blk, contributors in zip(
                    s.merged_lam.real.tolist(),
                    s.merged_lam.imag.tolist(),
                    s.merged_dim.tolist(),
                    s.merged_block.tolist(),
                    s.contributors.tolist(),
                )
            ],
        }
        if full_spectrum:
            spec["entries"] = [
                {
                    "lambda": [re, im],
                    "occupation": [[j, k, m] for (j, k), m in zip(s.labels, occ)],
                    "subspace_dim": dim,
                    "max_jordan_block": blk,
                }
                for re, im, occ, dim, blk in zip(
                    s.lam.real.tolist(),
                    s.lam.imag.tolist(),
                    s.occupations().tolist(),
                    s.subspace_dim.tolist(),
                    s.max_jordan_block.tolist(),
                )
            ]
        report["spectrum"] = spec
    return report


def _template(values, nl: str):
    """(template, columns): one %-template that writes each of `values` at
    indent `nl`, and the columns of leaf values it takes, in order.

    None unless the values share one shape, with every leaf column of one
    exact type: finite float, int, bool, str or None.  Anything else (NaN,
    np.float64, True among ints, ragged lists) is left to `_encode`.  A float
    column is the only column whose items are floats; it is filled by `%s`
    from `_float_reprs`.
    """
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is float:
        return ("%s", [values]) if all(map(math.isfinite, values)) else None
    if kind is int:
        return "%d", [values]
    if kind is bool:
        return "%s", [list(map(("false", "true").__getitem__, values))]
    if kind is str:
        return "%s", [list(map(_jstr, values))]
    if kind is type(None):
        return "null", []
    if kind is list:
        sizes = set(map(len, values))
        if len(sizes) != 1:
            return None
        brackets, keys = "[]", range(sizes.pop())
        labels = [""] * len(keys)
    elif kind is dict:
        keys = set(map(tuple, values))
        if len(keys) != 1:
            return None
        keys = keys.pop()
        if not set(map(type, keys)) <= {str}:
            return None
        brackets, labels = "{}", [_jstr(k).replace("%", "%%") + ": " for k in keys]
    else:
        return None
    if not labels:
        return brackets, []
    inner = nl + "  "
    fields = [_template(list(map(kind.__getitem__, values, repeat(k))), inner) for k in keys]
    if None in fields:
        return None
    body = ("," + inner).join(label + t for label, (t, _) in zip(labels, fields))
    return brackets[0] + inner + body + nl + brackets[1], [c for _, cs in fields for c in cs]


_MAGNITUDE_BITS = np.int64(2**63 - 1)  # every bit of a float64 but its sign


def _float_reprs(columns: list) -> list:
    """`float.__repr__` of every float of the equal-length `columns` of finite
    floats, as lists of strings shaped like `columns`.

    The spectrum's coordinates are sums of a few rapidities, and matrices are
    symmetric or antisymmetric, so magnitudes repeat: repr runs once per
    distinct magnitude (bit pattern with the sign cleared), and a negative
    float, -0.0 included, is '-' + the repr of its magnitude.
    """
    bits = np.array(columns, dtype=float).view(np.int64)
    negative = bits < 0
    magnitudes, index = np.unique(bits & _MAGNITUDE_BITS, return_inverse=True)
    reprs = list(map(float.__repr__, magnitudes.view(float).tolist()))
    table = np.array(reprs + ["-" + r for r in reprs], dtype=object)
    index = index.reshape(bits.shape)
    index[negative] += len(reprs)
    return table[index].tolist()


def _encode(o, nl: str, out: list) -> None:
    """Append json's indent-2 text of `o`, whose first line sits at indent
    `nl`, to `out` in pieces.  A non-empty list or dict is laid out here; any
    other value, and any key that is not a str, is json's own text."""
    if isinstance(o, (list, tuple)) and o:
        inner = nl + "  "
        sep = "," + inner
        fast = _template(o, inner)
        out.append("[" + inner)
        if fast is None or not fast[1]:
            for i, v in enumerate(o):
                if i:
                    out.append(sep)
                _encode(v, inner, out)
        else:
            template, columns = fast
            floats = [i for i, c in enumerate(columns) if type(c[0]) is float]
            if floats:
                for i, reprs in zip(floats, _float_reprs([columns[i] for i in floats])):
                    columns[i] = reprs
            if template == "%s":
                out.append(sep.join(columns[0]))
            else:
                out.append(sep.join(map(template.__mod__, zip(*columns))))
        out.append(nl + "]")
    elif isinstance(o, dict) and o:
        inner = nl + "  "
        sep = "," + inner
        out.append("{" + inner)
        for i, (k, v) in enumerate(o.items()):
            # json writes an int, float, bool or None key as a string, and
            # json.dumps({k: 0}) is '{' + that string + ': 0}'
            key = _jstr(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]
            out.append((sep if i else "") + key + ": ")
            _encode(v, inner, out)
        out.append(nl + "}")
    else:
        out.append(json.dumps(o))


def _report_pieces(report) -> list:
    out = []
    _encode(report, "\n", out)
    return out


def dumps_report(report) -> str:
    """`json.dumps(report, indent=2)`, byte for byte, for JSON-native input.

    With `indent`, json falls back to its pure-Python encoder, one generator
    step per value.  Here every list whose items share one shape (float runs,
    matrix rows, [re, im] pairs, spectrum records) is written by one
    %-template per item, built once from the shape; the floats of its float
    columns go through one repr table, one `float.__repr__` per distinct
    magnitude.  The rest follows json's own rules.
    """
    return "".join(_report_pieces(report))


def write_report(report, fh) -> None:
    """Write `dumps_report(report)` and a newline to the text stream `fh` with
    one `writelines` of the encoded pieces, so the report as a whole is never
    joined into one string.  The whole report is encoded before the first
    write: an encoding error writes nothing."""
    pieces = _report_pieces(report)
    pieces.append("\n")
    fh.writelines(pieces)


def _fmt_c(pair) -> str:
    re, im = pair
    if im == 0:
        return f"{re:+.6g}"
    return f"{re:+.6g}{im:+.6g}i"


def _fmt_matrix(rows, complex_entries: bool) -> list[str]:
    if complex_entries:
        cells = [[_fmt_c(v) for v in row] for row in rows]
    else:
        cells = [[f"{v:+.6g}" for v in row] for row in rows]
    width = max((len(c) for row in cells for c in row), default=1)
    return ["  ".join(c.rjust(width) for c in row) for row in cells]


def render_text(report: dict) -> str:
    """Aligned plain-text tables for terminal output."""
    out = []
    n = report["input"]["n"]
    out.append(f"quadratic Lindblad model: n = {n} fermions, "
               f"{len(report['input']['lindblad'])} bath vector(s)")
    out.append("")
    out.append("X = 2K + 2M_r:")
    out.extend("  " + line for line in _fmt_matrix(report["X"], False))
    out.append("")
    out.append("rapidities (eigenvalues of X):")
    out.append(f"  {'j':>3} {'Re beta':>14} {'Im beta':>14}  {'class':<10} blocks")
    for r in report["rapidities"]:
        re, im = r["beta"]
        sizes = ",".join(str(s) for s in r["block_sizes"])
        out.append(f"  {r['j']:>3} {re:>14.8g} {im:>14.8g}  {r['class']:<10} {sizes}")
    deg = [r for r in report["rapidities"] if any(s > 1 for s in r["block_sizes"])]
    if deg:
        for r in deg:
            out.append(f"  non-diagonalizable: rapidity j={r['j']} has block size "
                       f"{max(r['block_sizes'])}")
    out.append(f"  spectral gap: {report['gap']:.8g}")
    out.append(f"  cond(P) = {report['jordan']['cond_P']:.4g}, "
               f"reconstruction residual {report['jordan']['reconstruction_residual']:.2e}")
    out.append("")
    d = report["driving"]
    out.append(f"driving solution Z ({d['method']} path, residual {d['residual']:.2e}, "
               f"unique={d['unique']}, free parameters={d['free_parameter_count']}):")
    out.extend("  " + line for line in _fmt_matrix(d["Z"], False))
    out.append("")
    ns = report["ness"]
    out.append(f"NESS: unique={ns['unique']}, stationary dimension {ns['stationary_dim']}, "
               f"gap {report['gap']:.8g}")
    if ns["zero_rapidity_modes"]:
        out.append(f"  zero-rapidity modes (j,k): {ns['zero_rapidity_modes']}")
    if ns["imaginary_pair_modes"]:
        out.append(f"  imaginary-pair modes (j,j',k,k',±): {ns['imaginary_pair_modes']}")
    out.append(f"  covariance unique: {ns['covariance_unique']}, "
               f"physicality margin |4Z| = {ns['physicality_margin']:.6g}")
    out.append("  covariance C = 1 + 4i Z^T:")
    out.extend("    " + line for line in _fmt_matrix(ns["covariance"], True))
    out.append("")
    sp = report["spectrum"]
    if sp.get("enumerated"):
        out.append(f"Liouvillean spectrum: {sp['count']} occupation vectors, "
                   f"total dimension {sp['total_dim']} (merged view):")
        out.append(f"  {'Re lambda':>14} {'Im lambda':>14} {'dim':>5} {'maxblk':>6}")
        out.extend(
            "  %14.8g %14.8g %5d %5d%s" % (*e["lambda"], e["total_dim"], e["max_jordan_block"],
                                          "*" if e["lower_bound"] else " ")
            for e in sp["merged"]
        )
        if "entries" in sp:
            out.append("  full listing (occupation -> lambda, dim, maxblk):")
            rows = {}  # one template per occupation length
            for e in sp["entries"]:
                occ = e["occupation"]
                row = rows.get(len(occ))
                if row is None:
                    row = rows[len(occ)] = ("    %+.8g%+.8gi  dim %d blk %d  "
                                            + " ".join(["(%d,%d)=%d"] * len(occ)))
                out.append(row % (*e["lambda"], e["subspace_dim"], e["max_jordan_block"],
                                  *chain.from_iterable(occ)))
    else:
        full_re, _ = sp["extremes"]["lambda_full"]
        out.append("Liouvillean spectrum: not enumerated (occupation count over limit); "
                   f"extremes 0 and {full_re:.8g}")
    if report["warnings"]:
        out.append("")
        out.append("warnings: " + ", ".join(report["warnings"]))
    return "\n".join(out) + "\n"
