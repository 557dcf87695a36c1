"""liouv benchmark: run one workload as a single-process closed loop.

    python3 perfbench/run.py --workload generic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20      # every workload, each in its own process

One operation is one in-process `liouv.cli.main([...])` call, issued only
after the previous one returned.  Set-up (import, input generation from the
seed, one untimed warm-up op) is timed in this process and in SETUP_PROBES
fresh processes.  The loop then runs whole op cycles until `--seconds` of op
time have passed and at least MIN_OPS ops have run; every output is checked
outside the timed region.  `--trace 0` reports the end-to-end metrics;
`--trace 1` alternates traced and untraced cycles and reports per-layer self
times, counters and the tracing overhead.  The last line of standard output
is one JSON object; a fuller result file goes to perfbench/out/.

The package is imported from src/ of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# the same names as workloads.WORKLOADS, which imports numpy and so must wait
# until the BLAS thread variables are set
WORKLOADS = ("generic", "axis", "spectrum", "certify")
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 900
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPORT_VARS = THREAD_VARS + ("BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
    "residual_digits": "digits",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="one workload; default: all of them, each in its own process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> list[str]:
    """Default every BLAS thread variable to nproc (before numpy is imported);
    warn about any set above it."""
    cores = nproc()
    warnings = []
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(cores))
        value = os.environ[var]
        if value.isdigit() and int(value) > cores:
            warnings.append(f"{var}={value} exceeds nproc={cores}")
    return warnings


def provenance(seed: int, warnings: list[str]) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "liouv").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in REPORT_VARS},
        "nproc": nproc(),
        "machine": platform.machine(),
        "warnings": warnings,
    }


class Session:
    """The package, one workload's op cycle, and the result capture."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        import checks
        import liouv.cli
        import workloads

        self.checks = checks
        self.cli = liouv.cli
        self.cycle = workloads.build(workload, seed, workdir)
        self.result = None
        analyze = liouv.cli.analyze

        def capture(*args, **kwargs):
            # P and V are not in the report; keep the result so they can be checked
            self.result = analyze(*args, **kwargs)
            return self.result

        liouv.cli.analyze = capture

    def run(self, op):
        """One timed CLI call; returns (seconds, exit code or None, output, error)."""
        self.result = None
        gc.collect()
        buf = io.StringIO()
        error = None
        rc = None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except Exception as exc:  # a crash is a failed op, not the end of the run
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        return seconds, rc, buf.getvalue(), error

    def check(self, op, rc, text, error):
        c = self.checks
        if error is not None:
            return c.Outcome([error], None)
        try:
            if op.argv[0] == "analyze":
                if rc != 0:
                    return c.Outcome([f"exit {rc}: {text.strip()[-200:]}"], None)
                report = json.loads(op.output.read_text(encoding="utf-8"))
                return c.check_analyze(op, report, self.result)
            if op.argv[0] == "verify":
                return c.check_verify(op, rc, text, self.result)
            return c.check_comb(op, rc, text)
        except Exception as exc:  # malformed output is a failed op
            return c.Outcome([f"check raised {type(exc).__name__}: {exc}"], None)


def set_up(workload: str, seed: int, workdir: Path) -> tuple[Session, float]:
    session = Session(workload, seed, workdir)
    session.run(session.cycle[0])
    return session, time.perf_counter() - T0


def setup_probes(args) -> tuple[list[float], list[str]]:
    """Set-up time of SETUP_PROBES fresh processes, one after the other."""
    times, problems = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        try:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        except (IndexError, KeyError, ValueError):
            problems.append(f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return times, problems


def measure(session: Session, seconds: float, recorder=None) -> list[dict]:
    """Whole cycles until `seconds` of op time and MIN_OPS ops; with a recorder,
    even cycles are traced and odd ones not."""
    samples = []
    op_time = 0.0
    cycle = 0
    while op_time < seconds or len(samples) < MIN_OPS or (recorder is not None and cycle < 2):
        traced = recorder is not None and cycle % 2 == 0
        for op in session.cycle:
            if traced:
                recorder.op = len(samples)
                with recorder.installed():
                    dt, rc, text, error = session.run(op)
            else:
                dt, rc, text, error = session.run(op)
            outcome = session.check(op, rc, text, error)
            samples.append({"kind": op.kind, "seconds": dt, "traced": traced,
                            "problems": outcome.problems, "residual": outcome.residual})
            op_time += dt
        cycle += 1
    return samples


def latency_stats(samples: list[dict]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it;
    a failed op counts as missing every latency limit."""
    lat = sorted(s["seconds"] if not s["problems"] else math.inf for s in samples)
    n = len(lat)
    return {"p50": statistics.median(lat), "tail": lat[n - 11],
            "tail_percentile": 100.0 * (n - 10) / n, "samples": n}


def end_to_end(samples, setup_times, problems) -> tuple[dict, dict]:
    ok = [s for s in samples if not s["problems"]]
    op_time = sum(s["seconds"] for s in samples)
    lat = latency_stats(samples)
    residuals = [s["residual"] for s in samples if s["residual"] is not None]
    metrics = {
        "ops_per_s": len(ok) / op_time,
        "latency_p50_s": lat["p50"],
        "latency_tail_s": lat["tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
        "success_rate": len(ok) / len(samples),
        "residual_digits": min(-math.log10(max(r, 1e-300)) for r in residuals),
    }
    details = {
        "latency": lat,
        "error_rate": 1 - len(ok) / len(samples),
        "setup_samples_s": setup_times,
        "op_time_s": op_time,
        "per_kind_median_s": per_kind_median(samples),
        "problems": problems,
    }
    return metrics, details


def per_kind_median(samples, traced=None) -> dict:
    kinds = {}
    for s in samples:
        if traced is None or s["traced"] == traced:
            kinds.setdefault(s["kind"], []).append(s["seconds"])
    return {k: statistics.median(v) for k, v in kinds.items()}


def per_layer(samples, recorder) -> tuple[dict, dict, list[str]]:
    traced = [s for s in samples if s["traced"]]
    traced_time = sum(s["seconds"] for s in traced)
    metrics = recorder.layer_metrics(len(traced), traced_time)
    on, off = per_kind_median(samples, True), per_kind_median(samples, False)
    metrics["trace.overhead_pct"] = 100 * (sum(on.values()) / sum(off.values()) - 1)
    metrics["trace.traced_ops"] = len(traced)
    problems = []
    if abs(metrics["trace.coverage"] - 1) > 0.01:
        problems.append(f"layer self times cover {metrics['trace.coverage']:.4f} of traced op time")
    own = recorder.self_times()
    spans = [{"name": s.name, "metric": s.metric, "start": s.start, "end": s.end,
              "self": t, "parent": s.parent, "op": s.op, "error": s.error}
             for s, t in zip(recorder.spans, own)]
    return metrics, {"spans": spans, "traced_median_s": on, "untraced_median_s": off}, problems


def tally(samples, problems) -> dict:
    """The result line's correctness fields: an op with any problem failed."""
    failed = sum(1 for s in samples if s["problems"])
    return {"correct": failed == 0 and not problems, "attempted": len(samples), "failed": failed}


def run_workload(args) -> int:
    warnings = limit_blas_threads()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        session, setup_main = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        problems = []
        if args.trace:
            import spans

            recorder = spans.Recorder()
            samples = measure(session, args.seconds, recorder)
            metrics, extra, problems = per_layer(samples, recorder)
            units = {name: unit_of(name) for name in metrics}
            extra["per_kind_median_s"] = per_kind_median(samples)
        else:
            probe_times, problems = setup_probes(args)
            samples = measure(session, args.seconds)
            metrics, extra = end_to_end(samples, [setup_main] + probe_times, problems)
            units = END_TO_END
        prov = provenance(args.seed, warnings)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = tally(samples, problems)
    failed = result["failed"]
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    failures = [f"{s['kind']}: {p}" for s in samples for p in s["problems"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, **result, "details": extra,
              "failures": failures[:50],
              "samples": [{k: s[k] for k in ("kind", "seconds", "traced", "residual")}
                          for s in samples]}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"liouv benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(samples)} failed={failed} op_time={sum(s['seconds'] for s in samples):.2f} s")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    if not args.trace:
        lat = extra["latency"]
        print(f"  latency tail is p{lat['tail_percentile']:.1f} of {lat['samples']} samples; "
              f"error_rate {extra['error_rate']:.6g} ({failed} of {len(samples)})")
    for line in (failures[:10] + problems):
        print(f"  FAILED {line}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's output and a summary."""
    summary = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "liouv" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'liouv'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
