"""Model file parsing (UTF-8 JSON) with field-level diagnostics.

Schema: {"n": int, "K": 2n x 2n reals, "lindblad": list of 2n-length vectors
of [re, im] pairs (bare reals accepted), optional "tolerances" object and
"labels"}.  Canonical files always use [re, im] pairs.
"""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParseError
from .model import QuadraticLindbladModel, validate_model
from .tolerances import Tolerances


_NUMBER_TYPES = {int, float}


def _is_number(v) -> bool:
    """A number: bool is a subclass of int but is no number here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _entry_to_complex(v, mu: int, i: int) -> complex:
    try:
        if _is_number(v):
            return complex(v)
        if isinstance(v, list) and len(v) == 2 and _is_number(v[0]) and _is_number(v[1]):
            return complex(v[0], v[1])
    except OverflowError as exc:
        raise ParseError(f"lindblad[{mu}][{i}]: {v!r} is out of float range") from exc
    raise ParseError(f"lindblad[{mu}][{i}]: expected a number or [re, im] pair, got {v!r}")


def parse_model_dict(doc: dict) -> tuple[QuadraticLindbladModel, Tolerances]:
    if not isinstance(doc, dict):
        raise ParseError("model file must contain a JSON object")
    for key in ("n", "K", "lindblad"):
        if key not in doc:
            raise ParseError(f"missing required field '{key}'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"field 'n': expected a positive integer, got {n!r}")
    K = doc["K"]
    if (not isinstance(K, list) or len(K) != 2 * n
            or any(not isinstance(row, list) or len(row) != 2 * n for row in K)):
        raise ParseError(f"field 'K': expected a {2*n}x{2*n} array of reals")
    if not set(map(type, chain.from_iterable(K))) <= _NUMBER_TYPES:
        for i, row in enumerate(K):
            for j, v in enumerate(row):
                if not _is_number(v):
                    raise ParseError(f"field 'K[{i}][{j}]': expected a real number, got {v!r}")
    try:
        K_arr = np.array(K, dtype=float)
    except OverflowError as exc:
        raise ParseError(f"field 'K': entry out of floating-point range ({exc})") from exc
    if not isinstance(doc["lindblad"], list):
        raise ParseError("field 'lindblad': expected a list of coupling vectors")
    vectors = _lindblad_vectors(doc["lindblad"], 2 * n)
    tol_kwargs = {}
    tol_doc = doc.get("tolerances", {})
    if not isinstance(tol_doc, dict):
        raise ParseError("field 'tolerances': expected an object")
    known = {f.name for f in fields(Tolerances)}
    for key, value in tol_doc.items():
        if key not in known:
            raise ParseError(f"field 'tolerances.{key}': unknown tolerance")
        tol_kwargs[key] = value
    tolerances = Tolerances(**tol_kwargs)
    return validate_model(n, K_arr, vectors), tolerances


def _lindblad_vectors(lindblad: list, d: int) -> list:
    """The coupling vectors as complex arrays of length `d`.

    When every entry is an [re, im] pair of ints or floats, one float array
    viewed as complex.  Bare reals, out-of-range ints and anything malformed
    take the per-entry loop, which names the offending field.
    """
    if set(map(type, lindblad)) <= {list} and set(map(len, lindblad)) <= {d}:
        entries = list(chain.from_iterable(lindblad))
        if (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}
                and set(map(type, chain.from_iterable(entries))) <= _NUMBER_TYPES):
            try:
                pairs = np.array(lindblad, dtype=float).reshape(len(lindblad), d, 2)
            except OverflowError:
                pass
            else:
                return list(pairs.view(complex)[..., 0])
    vectors = []
    for mu, vec in enumerate(lindblad):
        if not isinstance(vec, list) or len(vec) != d:
            raise ParseError(
                f"field 'lindblad[{mu}]': expected a vector of length {d}"
            )
        vectors.append(
            np.array([_entry_to_complex(v, mu, i) for i, v in enumerate(vec)])
        )
    return vectors


def load_model(path: str | Path) -> tuple[QuadraticLindbladModel, Tolerances]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: byte offset {exc.start}: {exc.reason}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    return parse_model_dict(doc)


def model_to_dict(model: QuadraticLindbladModel) -> dict:
    return {
        "n": model.n,
        "K": [[float(v) for v in row] for row in model.K],
        "lindblad": [
            [[float(v.real), float(v.imag)] for v in l] for l in model.lindblad_vectors
        ],
    }
