"""Medians and quartiles of benchmark result files, per workload and metric.

    python3 perfbench/summarize.py perfbench/out [--json FILE]

Reads every `<workload>-seed<n>-trace<t>.json` that run.py wrote, groups the
runs by workload and trace mode, and prints for each metric the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median.  `--json` also writes that table with the
provenance of the first run of each group.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(paths) -> dict:
    groups: dict[str, list[dict]] = {}
    for path in sorted(paths):
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        groups.setdefault(f"{record['workload']}/trace{record['trace']}", []).append(record)
    out = {}
    for key, records in groups.items():
        metrics = {}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": records[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
        out[key] = {
            "runs": len(records),
            "seeds": [r["seed"] for r in records],
            "all_correct": all(r["correct"] for r in records),
            "seconds": records[0]["seconds"],
            "provenance": records[0]["provenance"],
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("directory", type=Path)
    p.add_argument("--json", type=Path, default=None, help="also write the summary here")
    args = p.parse_args(argv)
    table = summarize(args.directory.glob("*-seed*-trace*.json"))
    for key, group in table.items():
        print(f"{key}: {group['runs']} runs, all correct: {group['all_correct']}")
        for name, m in group["metrics"].items():
            print(f"  {name:<36} {m['median']:>12.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {100 * m['spread']:.2f}%")
    if args.json:
        args.json.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
