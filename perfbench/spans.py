"""Per-layer tracing from outside the package.

`Recorder.installed()` replaces each layer's public functions, at the module
attribute the caller looks them up by, with a wrapper that records an
in-memory span (name, start, end, parent, op id) and, for a few functions,
counts taken from the return value.  A span's self time is its duration minus
that of its direct children, so the self times of one op add up to the op.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass


def _count_jordan(counts, jf):
    counts["rapidity.distinct"] += len(jf.rapidities())
    counts["rapidity.ill_conditioned"] += bool(jf.ill_conditioned)


def _count_lyapunov(counts, sol):
    counts[f"lyapunov.{sol.method}_calls"] += 1


def _count_spectrum(counts, spec):
    counts["spectra.entries"] += len(spec.entries)
    counts["spectra.merged"] += len(spec.merged)


# (module, attribute, time metric, observer); the module is where the caller
# resolves the name, so `liouv.analysis.jordan_decompose` is what analyze calls
TARGETS = (
    ("liouv.cli", "main", "cli.self_s", None),
    ("liouv.cli", "load_model", "io.parse_s", None),
    ("liouv.io", "validate_model", "model.busy_s", None),
    ("liouv.cli", "analyze", "analysis.self_s", None),
    ("liouv.cli", "build_report", "analysis.report_s", None),
    ("liouv.analysis", "build_bath_matrices", "model.busy_s", None),
    ("liouv.analysis", "build_X", "model.busy_s", None),
    ("liouv.analysis", "build_structure_matrix", "model.busy_s", None),
    ("liouv.analysis", "jordan_decompose", "rapidity.jordan_s", _count_jordan),
    ("liouv.analysis", "stability_check", "rapidity.stability_s", None),
    ("liouv.analysis", "solve_lyapunov", "lyapunov.busy_s", _count_lyapunov),
    ("liouv.analysis", "build_V", "normal_modes.busy_s", None),
    ("liouv.analysis", "normal_form_coefficients", "normal_modes.busy_s", None),
    ("liouv.analysis", "enumerate_spectrum", "spectra.enumerate_s", _count_spectrum),
    ("liouv.analysis", "classify_ness", "spectra.ness_s", None),
    ("liouv.analysis", "attach_covariance", "spectra.ness_s", None),
    ("liouv.oracle", "build_superoperator", "oracle.superoperator_s", None),
    ("liouv.oracle", "verify_quadratic_form", "oracle.quadratic_form_s", None),
    ("liouv.oracle", "oracle_ness", "oracle.ness_s", None),
    ("liouv.oracle", "eigenvalue_multiset_from_enumeration", "oracle.match_s", None),
    ("liouv.oracle", "match_multisets", "oracle.match_s", None),
    ("liouv.combinatorics", "nilpotent_blocks", "combinatorics.nilpotent_blocks_s", None),
    ("liouv.combinatorics", "verify_conjecture", "combinatorics.verify_conjecture_s", None),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TARGETS))
LAYERS = tuple(dict.fromkeys(metric.split(".")[0] for metric in TIME_METRICS))


@dataclass
class Span:
    metric: str
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    error: bool = False


class Recorder:
    """Spans and counts of the traced ops of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, fn, metric, observe):
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(metric, name, time.perf_counter(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore them."""
        saved = []
        try:
            for module_name, attr, metric, observe in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, metric, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, traced_ops: int, traced_time: float) -> dict[str, float]:
        """Self time of every time metric and layer, calls and errors of every
        layer and the counters, all per traced op, and how much of the traced op
        time the spans cover."""
        own = self.self_times()
        totals, busy, calls, errors, metric_calls = (Counter() for _ in range(5))
        for s, t in zip(self.spans, own):
            layer = s.metric.split(".")[0]
            totals[s.metric] += t
            metric_calls[s.metric] += 1
            busy[layer] += t
            calls[layer] += 1
            errors[layer] += s.error
        out = {metric: totals[metric] / traced_ops for metric in TIME_METRICS}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer] / traced_ops
            out[f"{layer}.calls"] = calls[layer] / traced_ops
            out[f"{layer}.errors"] = errors[layer] / traced_ops
        c = self.counts
        jordan_calls = max(metric_calls["rapidity.jordan_s"], 1)
        out["rapidity.distinct"] = c["rapidity.distinct"] / jordan_calls
        out["rapidity.ill_conditioned_ratio"] = c["rapidity.ill_conditioned"] / jordan_calls
        out["lyapunov.dense_calls"] = c["lyapunov.dense_calls"] / traced_ops
        out["lyapunov.jordan_calls"] = c["lyapunov.jordan_calls"] / traced_ops
        enum_time = totals["spectra.enumerate_s"]
        out["spectra.entries"] = c["spectra.entries"] / traced_ops
        out["spectra.entries_per_s"] = c["spectra.entries"] / enum_time if enum_time else 0.0
        out["spectra.merge_ratio"] = (
            c["spectra.merged"] / c["spectra.entries"] if c["spectra.entries"] else 0.0
        )
        out["trace.coverage"] = sum(own) / traced_time
        return out
