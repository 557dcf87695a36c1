"""Full pipeline: model -> rapidities -> driving -> normal modes -> spectrum/NESS.

`analyze` returns the rich result objects; `build_report` flattens them into a
dict of sections with deterministic orderings, whose matrices and spectrum
records stay numpy arrays copied from the result; `dumps_report` writes it as
`json.dumps(report, indent=2)` writes the same dict with every array as the
lists it stands for (complex numbers as [re, im] pairs, records as dicts), and
`write_report` streams the same text to a file; `render_text` produces the
human-readable table view from the same arrays.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import islice
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


def _cmat(m) -> np.ndarray:
    return np.array(m, dtype=complex)


def _rmat(m) -> np.ndarray:
    return np.array(m, dtype=float)


def _pairs(z: np.ndarray) -> np.ndarray:
    """[re, im] float pairs of the complex array z, on a new last axis."""
    return np.stack([z.real, z.imag], -1)


def _records(columns: dict) -> np.ndarray:
    """Structured array with one field per column, in order: field k holds
    columns[k], its item shape the column's shape past the first axis."""
    count = len(next(iter(columns.values())))
    out = np.empty(count, [(k, v.dtype, v.shape[1:]) for k, v in columns.items()])
    for k, v in columns.items():
        out[k] = v
    return out


def build_report(result: AnalysisResult, full_spectrum: bool = False) -> dict:
    """The report as a dict of sections; every numerical field finite,
    orderings deterministic.

    Scalars and short lists are JSON-native.  The large leaves are numpy
    arrays copied from the result: each matrix is a float array, or a complex
    array (M, the Lindblad vectors, the covariance) that stands for its
    [re, im] pairs; `spectrum.merged` and `spectrum.entries` are structured
    arrays whose fields are the record keys, in order, with `lambda` a (2,)
    float field and `occupation` an (L, 3) int field of (j, k, m) triples.
    Dimensions past int64 are Python ints in an object field.
    `dumps_report` writes the report as json writes the lists and dicts the
    arrays stand for; `json.loads(dumps_report(report))` is that plain form.
    """
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
            "lindblad": _cmat(model.lindblad_vectors).reshape(-1, model.dim),
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
            "merged": _records({
                "lambda": _pairs(s.merged_lam),
                "total_dim": s.merged_dim,
                "max_jordan_block": s.merged_block,
                "lower_bound": s.contributors > 1,
            }),
        }
        if full_spectrum:
            occupations = s.occupations()
            labels = np.broadcast_to(np.reshape(s.labels, (1, -1, 2)), occupations.shape + (2,))
            spec["entries"] = _records({
                "lambda": _pairs(s.lam),
                "occupation": np.concatenate([labels, occupations[..., None]], axis=-1),
                "subspace_dim": s.subspace_dim,
                "max_jordan_block": s.max_jordan_block,
            })
        report["spectrum"] = spec
    return report


_MAGNITUDE_BITS = np.int64(2**63 - 1)  # every bit of a float64 but its sign
_INF_BITS = np.int64(0x7FF << 52)  # the bits of inf; NaN magnitudes lie above
_SMALL_INTS = 4096  # ints in [0, _SMALL_INTS] are written from one table per array
_CHUNK = 4096  # array items joined per piece, so no array's text is held twice in full


def _float_reprs(a: np.ndarray) -> np.ndarray:
    """json's text of every float of `a`, flat, as an object array.

    The spectrum's coordinates are sums of a few rapidities, and matrices are
    symmetric or antisymmetric, so magnitudes repeat: repr runs once per
    distinct magnitude (bit pattern with the sign cleared), and a negative
    float, -0.0 included, is '-' + the repr of its magnitude.  NaN and the
    infinities are written as json writes them.
    """
    bits = np.ascontiguousarray(a, dtype=np.float64).reshape(-1).view(np.int64)
    magnitudes, index = np.unique(bits & _MAGNITUDE_BITS, return_inverse=True)
    values = magnitudes.view(np.float64).tolist()
    table = list(map(float.__repr__, values))
    table += ["-" + r for r in table]
    for i in range(int(np.searchsorted(magnitudes, _INF_BITS)), len(values)):
        table[i], table[i + len(values)] = json.dumps(values[i]), json.dumps(-values[i])
    index = index.reshape(-1)
    index[bits < 0] += len(values)
    return np.array(table, dtype=object)[index]


def _int_strings(a: np.ndarray) -> np.ndarray:
    """json's text of every int of `a`, flat, as an object array; small
    non-negative ints (occupations, block sizes, dimensions) index one table."""
    flat = a.ravel()
    if flat.size and 0 <= flat.min() and flat.max() <= _SMALL_INTS:
        return np.array(list(map(str, range(int(flat.max()) + 1))), dtype=object)[flat]
    return np.array(list(map(str, flat.tolist())), dtype=object)


def _json_scalar(x) -> str:
    """json's text of one element of an object array, which must be a scalar:
    a list or dict in an array cell would need the indented layout."""
    if isinstance(x, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(x).__name__} in an array is not a JSON scalar")
    return json.dumps(x)


def _leaf_strings(a: np.ndarray) -> np.ndarray:
    """json's text of the scalars of `a` as an object array of shape
    (a.size, k): the k strings one element fills into its `_array_template`,
    in order (a complex number its [re, im] pair, a record its fields')."""
    if not a.size:
        return np.empty((0, 0), object)
    names = a.dtype.names
    if names is not None:
        fields = [_leaf_strings(a[k]).reshape(a.size, -1) for k in names]
        return np.concatenate(fields, axis=1) if fields else np.empty((a.size, 0), object)
    kind = a.dtype.kind
    if kind == "c":
        return _leaf_strings(_pairs(a)).reshape(a.size, 2)
    if kind == "f":
        strings = _float_reprs(a)
    elif kind in "iu":
        strings = _int_strings(a)
    elif kind == "b":
        strings = np.array(["false", "true"], dtype=object)[a.ravel().astype(np.intp)]
    elif kind == "O":
        strings = np.array(list(map(_json_scalar, a.ravel().tolist())), dtype=object)
    else:
        raise TypeError(f"Object of type ndarray with dtype {a.dtype} is not JSON serializable")
    return strings.reshape(a.size, 1)


def _array_template(dtype: np.dtype, shape: tuple, nl: str) -> str:
    """%-template of json's indent-2 text of one value of `dtype` and array
    shape `shape` whose first line sits at indent `nl`: one %s per string
    `_leaf_strings` gives for it, record keys %-escaped."""
    inner = nl + "  "
    if shape:
        if not shape[0]:
            return "[]"
        item = _array_template(dtype, shape[1:], inner)
        return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"
    if dtype.names is not None:
        if not dtype.names:
            return "{}"
        fields = (_jstr(k).replace("%", "%%") + ": "
                  + _array_template(dtype[k].base, dtype[k].shape, inner) for k in dtype.names)
        return "{" + inner + ("," + inner).join(fields) + nl + "}"
    if dtype.kind == "c":
        return _array_template(np.dtype(float), (2,), nl)
    return "%s"


def _encode_array(a: np.ndarray, nl: str, out: list) -> None:
    """Append json's indent-2 text of the lists (dicts, for records) the
    ndarray `a` stands for: each item of its first axis is one %-template,
    built once from the dtype and the item shape, and the items are joined
    `_CHUNK` at a time."""
    if a.ndim == 0:
        out.append(_array_template(a.dtype, (), nl) % tuple(_leaf_strings(a)[0]))
        return
    if not len(a):
        out.append("[]")
        return
    inner = nl + "  "
    template = _array_template(a.dtype, a.shape[1:], inner)
    columns = _leaf_strings(a).reshape(len(a), -1).T.tolist()
    items = map(template.__mod__, zip(*columns)) if columns else iter([template % ()] * len(a))
    sep = "," + inner
    out.append("[" + inner)
    for start in range(0, len(a), _CHUNK):
        if start:
            out.append(sep)
        out.append(sep.join(islice(items, _CHUNK)))
    out.append(nl + "]")


def _encode(o, nl: str, out: list) -> None:
    """Append json's indent-2 text of `o`, whose first line sits at indent
    `nl`, to `out` in pieces.  An ndarray, a non-empty list and a non-empty
    dict are laid out here; any other value, and any key that is not a str,
    is json's own text."""
    if isinstance(o, np.ndarray):
        _encode_array(o, nl, out)
    elif isinstance(o, (list, tuple)) and o:
        inner = nl + "  "
        out.append("[" + inner)
        for i, v in enumerate(o):
            if i:
                out.append("," + inner)
            _encode(v, inner, out)
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
    """json's indent-2 text of `report`, with its numpy arrays written as the
    lists they stand for: `json.dumps(report, indent=2)` byte for byte once
    each array is its `tolist()`, a complex number its [re, im] pair and a
    structured array its list of records as dicts.

    With `indent`, json falls back to its pure-Python encoder, one generator
    step per value.  Here each array is written with one %-template per item
    of its first axis (a matrix row, a spectrum record), built once from its
    dtype and item shape.  Its floats go through one repr table, one
    `float.__repr__` per distinct magnitude; its small non-negative ints
    through one string table; the elements of an object array (ints past
    int64) through json one at a time, so a numpy scalar among them is
    rejected as json rejects it.  The rest follows json's own rules.
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


def _fmt_c(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:+.6g}"
    return f"{z.real:+.6g}{z.imag:+.6g}i"


def _fmt_matrix(m: np.ndarray) -> list[str]:
    if m.dtype.kind == "c":
        cells = [[_fmt_c(v) for v in row] for row in m.tolist()]
    else:
        cells = [[f"{v:+.6g}" for v in row] for row in m.tolist()]
    width = max((len(c) for row in cells for c in row), default=1)
    return ["  ".join(c.rjust(width) for c in row) for row in cells]


def render_text(report: dict) -> str:
    """Aligned plain-text tables for terminal output, from `build_report`'s
    report."""
    out = []
    n = report["input"]["n"]
    out.append(f"quadratic Lindblad model: n = {n} fermions, "
               f"{len(report['input']['lindblad'])} bath vector(s)")
    out.append("")
    out.append("X = 2K + 2M_r:")
    out.extend("  " + line for line in _fmt_matrix(report["X"]))
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
    out.extend("  " + line for line in _fmt_matrix(d["Z"]))
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
    out.extend("    " + line for line in _fmt_matrix(ns["covariance"]))
    out.append("")
    sp = report["spectrum"]
    if sp.get("enumerated"):
        out.append(f"Liouvillean spectrum: {sp['count']} occupation vectors, "
                   f"total dimension {sp['total_dim']} (merged view):")
        out.append(f"  {'Re lambda':>14} {'Im lambda':>14} {'dim':>5} {'maxblk':>6}")
        merged = sp["merged"]
        out.extend(map("  %14.8g %14.8g %5d %5d%s".__mod__, zip(
            *merged["lambda"].T.tolist(),
            merged["total_dim"].tolist(),
            merged["max_jordan_block"].tolist(),
            np.where(merged["lower_bound"], "*", " ").tolist(),
        )))
        if "entries" in sp:
            out.append("  full listing (occupation -> lambda, dim, maxblk):")
            entries = sp["entries"]
            occupation = entries["occupation"]
            row = ("    %+.8g%+.8gi  dim %d blk %d  "
                   + " ".join(["(%d,%d)=%d"] * occupation.shape[1]))
            out.extend(map(row.__mod__, zip(
                *entries["lambda"].T.tolist(),
                entries["subspace_dim"].tolist(),
                entries["max_jordan_block"].tolist(),
                *occupation.reshape(len(entries), -1).T.tolist(),
            )))
    else:
        full_re, _ = sp["extremes"]["lambda_full"]
        out.append("Liouvillean spectrum: not enumerated (occupation count over limit); "
                   f"extremes 0 and {full_re:.8g}")
    if report["warnings"]:
        out.append("")
        out.append("warnings: " + ", ".join(report["warnings"]))
    return "\n".join(out) + "\n"
