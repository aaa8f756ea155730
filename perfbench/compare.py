"""Summarize benchmark runs, compare two sets of them, or write the baseline.

    python3 perfbench/compare.py RUNS                 # medians and spreads
    python3 perfbench/compare.py BASE NEW             # NEW against BASE
    python3 perfbench/compare.py RUNS --write-baseline perfbench/baseline.json

``RUNS``, ``BASE`` and ``NEW`` are result files written by ``run.py`` (under
``.perfbench/results/``) or directories holding them.  Runs are only
compared when they were made from the same inputs: two runs of one workload,
seed and duration whose input fingerprints differ make the comparison refuse
(exit 2), because the workload itself changed between them.

The spread of a metric is the distance between the first and third quartile
of its runs (``statistics.quantiles(values, n=4)``) as a share of their
median.  A comparison reports a metric as a regression when the new median
is worse than the base median by more than the bound in ``BENCHMARK.json``,
and as unresolved when the base spread is wider than that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(paths) -> list[dict]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.json")) if path.is_dir() else [path])
    return [json.loads(f.read_text()) for f in files]


def run_key(run) -> tuple:
    stamp = run["stamp"]
    return stamp["workload"], stamp["seed"], stamp["seconds"]


def fingerprint_conflicts(runs) -> list[str]:
    seen: dict[tuple, str] = {}
    conflicts = []
    for run in runs:
        key = run_key(run)
        if seen.setdefault(key, run["fingerprint"]) != run["fingerprint"]:
            conflicts.append(f"{key[0]} seed {key[1]} ({key[2]:g} s): "
                             f"{seen[key]} != {run['fingerprint']}")
    return conflicts


def spread(values) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def summarize(runs) -> dict:
    """``{workload: {"trace0"|"trace1": {metric: spread dict}}}``."""
    table: dict = {}
    for run in runs:
        stamp = run["stamp"]
        bucket = table.setdefault(stamp["workload"], {}).setdefault(f"trace{stamp['trace']}", {})
        for name, metric in run["metrics"].items():
            bucket.setdefault(name, []).append(metric["value"])
    return {
        workload: {mode: {name: spread(v) for name, v in sorted(metrics.items())}
                   for mode, metrics in modes.items()}
        for workload, modes in table.items()
    }


def print_summary(summary) -> None:
    for workload, modes in sorted(summary.items()):
        for mode, metrics in sorted(modes.items()):
            print(f"{workload} ({mode})")
            for name, s in metrics.items():
                print(f"  {name:32s} median {s['median']:12.6g}  spread {s['spread']:7.2%}  n={s['n']}")


def compare(base, new, bounds) -> int:
    worse = 0
    base_s, new_s = summarize(base), summarize(new)
    for workload in sorted(set(base_s) & set(new_s)):
        print(workload)
        b, n = base_s[workload].get("trace0", {}), new_s[workload].get("trace0", {})
        for name in sorted(set(b) & set(n) & set(bounds)):
            bound, better = bounds[name]
            change = (n[name]["median"] - b[name]["median"]) / b[name]["median"]
            regress = change > bound if better == "lower" else -change > bound
            verdict = "unresolved" if b[name]["spread"] > bound else (
                "REGRESSION" if regress else "ok")
            worse += verdict == "REGRESSION"
            print(f"  {name:20s} {b[name]['median']:12.6g} -> {n[name]['median']:12.6g} "
                  f"({change:+.1%}, bound {bound:.0%}, base spread {b[name]['spread']:.1%}) {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", help="RUNS, or BASE NEW")
    parser.add_argument("--write-baseline", metavar="PATH")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one set of runs, or two to compare")
    sets = [load_runs([path]) for path in args.sets]
    conflicts = fingerprint_conflicts([run for runs in sets for run in runs])
    if conflicts:
        print("error: runs made from different inputs cannot be compared:", file=sys.stderr)
        for conflict in conflicts:
            print(f"  {conflict}", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    if len(sets) == 2:
        return compare(sets[0], sets[1], bounds)
    summary = summarize(sets[0])
    print_summary(summary)
    if args.write_baseline:
        out = Path(args.write_baseline)
        record = json.loads(out.read_text()) if out.is_file() else {}
        fingerprints: dict = {}
        for run in sets[0]:
            workload, seed, seconds = run_key(run)
            fingerprints.setdefault(workload, {})[f"{seed}@{seconds:g}"] = run["fingerprint"]
        stamps = {json.dumps({k: v for k, v in run["stamp"].items()
                              if k not in ("seed", "trace", "workload")}, sort_keys=True)
                  for run in sets[0]}
        record.update(
            environment=[json.loads(s) for s in sorted(stamps)],
            results=summary,
            fingerprints=fingerprints,
        )
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
