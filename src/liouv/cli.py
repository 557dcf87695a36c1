"""Command-line front end.

    liouv analyze <file> [--format json|text] [--full-spectrum] [--limit N] [--tol-* V]
    liouv verify  <file> | --random --n N --seed S [--vectors M]
    liouv comb    restricted-binomial|tensor-blocks|nilpotent-blocks|verify-conjecture ...

Exit codes: 0 success, 2 input error, 3 internal invariant violation (or a
failed verification), 141 (128 + SIGPIPE, as a shell reports it) without a
traceback when the reader closes stdout early, as `| head -n 1` does.
LIOUV_NMAX overrides the oracle size limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import combinatorics as comb
from . import oracle
from .analysis import analyze, build_report, render_text, write_report
from .errors import InputError, InternalInvariantViolated
from .io import load_model
from .randmodel import random_model
from .tolerances import (
    DEFAULTS,
    VERIFY_COVARIANCE_MAX,
    VERIFY_QUADRATIC_FORM_MAX,
    VERIFY_SPECTRUM_MAX,
    Tolerances,
)

_TOLERANCE_FLAGS = [f.name for f in dataclasses.fields(Tolerances) if f.name != "spectrum_limit"]


def _add_tol_flags(p: argparse.ArgumentParser):
    for name in _TOLERANCE_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", type=float, default=None,
                       help=f"override {name}")


def _tolerances_from_args(args, base: Tolerances) -> Tolerances:
    overrides = {}
    for name in _TOLERANCE_FLAGS:
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    if getattr(args, "limit", None) is not None:
        overrides["spectrum_limit"] = args.limit
    return dataclasses.replace(base, **overrides) if overrides else base


class _OutputFile:
    """The --output file, opened only for its one `writelines`: the report is
    encoded in full before that call, so a failed encoding leaves an existing
    file as it was."""

    def __init__(self, path: str):
        self.path = path

    def writelines(self, pieces):
        try:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InputError(f"--output: cannot write {self.path}: {exc.strerror}") from exc


def cmd_analyze(args) -> int:
    model, tolerances = load_model(args.model_file)
    tolerances = _tolerances_from_args(args, tolerances)
    result = analyze(model, tolerances)
    report = build_report(result, full_spectrum=args.full_spectrum)
    out = _OutputFile(args.output) if args.output else sys.stdout
    if args.format == "json":
        write_report(report, out)
    else:
        out.writelines([render_text(report)])
    return 0


def _require(ok: bool, message: str):
    """Reject an out-of-range or inapplicable argument as an input error (exit 2)."""
    if not ok:
        raise InputError(message)


def cmd_verify(args) -> int:
    if args.random:
        _require(not args.model_file, "give a model file or --random, not both")
        if args.n is None or args.seed is None:
            raise InputError("--random requires --n and --seed")
        _require(args.n >= 1, f"--n: expected a positive integer, got {args.n}")
        _require(args.seed >= 0, f"--seed: expected a nonnegative integer, got {args.seed}")
        _require(args.vectors is None or args.vectors >= 0,
                 f"--vectors: expected a nonnegative integer, got {args.vectors}")
        model, tolerances = random_model(args.n, args.seed, args.vectors), DEFAULTS
        label = f"random model n={args.n} seed={args.seed}"
    else:
        if not args.model_file:
            raise InputError("give a model file or --random")
        _require(args.n is None and args.seed is None and args.vectors is None,
                 "--n, --seed and --vectors apply only with --random")
        model, tolerances = load_model(args.model_file)
        label = args.model_file
    # fail on the oracle's size limit before any work or output
    oracle.check_size(model.n)
    result = analyze(model, tolerances)
    _require(result.spectrum is not None,
             f"spectrum_limit {tolerances.spectrum_limit} leaves the spectrum unenumerated; "
             "verify compares all of it")

    print(f"verify {label}: n={model.n}")
    qf = oracle.verify_quadratic_form(oracle.build_superoperator(model), result.structure)
    print(f"  quadratic-form residual: even {qf.residual_even:.3e}, odd {qf.residual_odd:.3e}")
    print(f"  Hermitian-basis imaginary residual: {qf.imaginary_residual:.3e}")
    print(f"  Majorana-degree leak: {qf.degree_leak:.3e}")

    # the real degree-block eigenvalues are the spectrum because the imaginary
    # residual and the degree leak gate PASS below
    match = oracle.match_spectrum(result.spectrum, qf)
    spec = oracle.check_spectrum(result.spectrum, match)
    print(f"  spectrum multiset deviation: {spec.eigenvalue_deviation:.3e}")
    counts = "ok" if spec.count_mismatches == 0 else f"{spec.count_mismatches} MISMATCH"
    print(f"  defective-group mean deviation: {spec.group_mean_deviation:.3e} "
          f"(defective groups {spec.defective_groups}, counts {counts})")

    ness = oracle.oracle_ness(qf)
    kernel_ok = ness.kernel_dim == result.ness.stationary_dim
    print(f"  kernel dim {ness.kernel_dim} vs stationary_dim {result.ness.stationary_dim}: "
          f"{'ok' if kernel_ok else 'MISMATCH'}")
    # degenerate even-parity kernel directions make 2-point functions depend on
    # the steady state picked; compare only when they cannot
    comparable = result.ness.unique or (
        len(result.ness.zero_rapidity_modes) == 1
        and not result.ness.imaginary_pair_modes
    )
    cov_dev = None
    if comparable:
        cov_dev = float(np.abs(ness.covariance - result.ness.covariance).max())
        qualifier = "" if result.ness.unique else " (single odd degeneracy direction)"
        print(f"  covariance deviation: {cov_dev:.3e}{qualifier}")

    ok = (
        qf.residual < VERIFY_QUADRATIC_FORM_MAX
        and qf.imaginary_residual < VERIFY_QUADRATIC_FORM_MAX
        and qf.degree_leak < VERIFY_QUADRATIC_FORM_MAX
        and spec.eigenvalue_deviation < VERIFY_SPECTRUM_MAX
        and spec.group_mean_deviation < VERIFY_SPECTRUM_MAX
        and spec.count_mismatches == 0
        and kernel_ok
        and (cov_dev is None or cov_dev < VERIFY_COVARIANCE_MAX)
    )
    print("PASS" if ok else "FAIL")
    if not ok:
        raise InternalInvariantViolated("verification failed; residuals above")
    return 0


def cmd_comb(args) -> int:
    if args.comb_command in ("restricted-binomial", "nilpotent-blocks"):
        _require(0 <= args.m <= args.l, f"need 0 <= m <= l, got l={args.l}, m={args.m}")
    elif args.comb_command == "tensor-blocks":
        _require(args.k >= 1 and args.l >= 1,
                 f"block sizes must be positive, got k={args.k}, l={args.l}")
    else:
        _require(args.l >= 0, f"need l >= 0, got l={args.l}")
    if args.comb_command == "restricted-binomial":
        print(" ".join(str(v) for v in comb.restricted_binomial_row(args.l, args.m)))
    elif args.comb_command == "tensor-blocks":
        print(comb.tensor_sum_blocks(args.k, args.l))
    elif args.comb_command == "nilpotent-blocks":
        rep = comb.nilpotent_blocks(args.l, args.m)
        print(f"staircase:   {rep.staircase}")
        print(f"conjectured: {rep.conjectured}")
        print(f"agree: {rep.agree}")
    elif args.comb_command == "verify-conjecture":
        rep = comb.verify_conjecture(args.l)
        failures = [c for c in rep.checks if not c.ok]
        for c in failures:
            print(f"FAIL m={c.m} r={c.r}: rank {c.rank} of {c.dim_from}->{c.dim_to}")
        print(f"monotone chains: {'ok' if rep.monotone_ok else 'FAIL'}")
        print("PASS" if rep.all_pass else "FAIL")
        return 0 if rep.all_pass else 3
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="liouv",
        description="Spectral analysis of quadratic fermionic Lindblad dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full pipeline on a model file")
    pa.add_argument("model_file")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--full-spectrum", action="store_true",
                    help="include the raw per-occupation eigenvalue list")
    pa.add_argument("--limit", type=int, default=None,
                    help="occupation-vector enumeration limit")
    pa.add_argument("--output", default=None, help="write the report to a file")
    _add_tol_flags(pa)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="compare against the brute-force oracle")
    pv.add_argument("model_file", nargs="?", default=None)
    pv.add_argument("--random", action="store_true")
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--vectors", type=int, default=None,
                    help="number of random Lindblad vectors (default n)")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("comb", help="exact combinatorics tables")
    csub = pc.add_subparsers(dest="comb_command", required=True)
    p1 = csub.add_parser("restricted-binomial")
    p1.add_argument("l", type=int)
    p1.add_argument("m", type=int)
    p2 = csub.add_parser("tensor-blocks")
    p2.add_argument("k", type=int)
    p2.add_argument("l", type=int)
    p3 = csub.add_parser("nilpotent-blocks")
    p3.add_argument("l", type=int)
    p3.add_argument("m", type=int)
    p4 = csub.add_parser("verify-conjecture")
    p4.add_argument("l", type=int)
    pc.set_defaults(func=cmd_comb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        finally:
            # a reader that closed stdout early shows here, not at interpreter exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the rest of the output, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantViolated as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
