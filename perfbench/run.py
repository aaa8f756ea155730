"""Run a benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-static --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  Prints
the input fingerprint, the environment stamp and one line per metric (name,
value, unit, sample count), then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` metrics.  Every run
is also written, with its stamp, to ``.perfbench/results/``.

Exit codes: 0 success, 1 a wrong answer, 2 a usage or set-up error (for
instance no ``src/repro`` to benchmark), 3 an invalid open-loop run, 4 inputs
that differ from the ones recorded for this seed in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("paper-static", "paper-dynamic-sharded", "live-mixed")
#: A run must finish well inside the three minutes one run is allowed.
RUN_LIMIT_S = 170


class RunTimeout(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import ``repro`` from this checkout's ``src/``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return repro


def git_stamp() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def environment(args, engine_stamp) -> dict:
    import numpy

    return {
        "git": git_stamp(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "engine": engine_stamp,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def recorded_fingerprint(workload: str, seed: int, seconds: float):
    baseline = HERE / "baseline.json"
    if not baseline.is_file():
        return None
    record = json.loads(baseline.read_text())
    return record.get("fingerprints", {}).get(workload, {}).get(f"{seed}@{seconds:g}")


def run_one(args, spec) -> int:
    load_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORK, WORKLOADS

    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    stamp = environment(args, result["engine"])
    print(f"workload {args.workload}  seed {args.seed}  inputs {result['fingerprint']}")
    print("environment " + json.dumps(stamp, sort_keys=True))
    shown = result["layers"] if args.trace else result["e2e"]
    for name, metric in sorted(shown.items()):
        print(f"  {name:32s} {metric.value:14.6g} {metric.unit:6s} (n={metric.n})")
    for reason in result["wrong"]:
        print(f"WRONG ANSWER: {reason}")
    if result["errors_by_kind"]:
        print("errors by kind " + json.dumps(result["errors_by_kind"], sort_keys=True))

    record = {
        "stamp": stamp,
        "fingerprint": result["fingerprint"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wrong": result["wrong"],
        "invalid": result["invalid"],
        "errors_by_kind": result["errors_by_kind"],
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "n": m.n}
            for name, m in {**result["e2e"], **result["layers"]}.items()
        },
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    expected = recorded_fingerprint(args.workload, args.seed, args.seconds)
    if expected is not None and expected != result["fingerprint"]:
        print(
            f"error: inputs for seed {args.seed} hash to {result['fingerprint']}, but "
            f"baseline.json recorded {expected}: the workload changed, so its runs "
            "cannot be compared with the baseline",
            file=sys.stderr,
        )
        return 4
    if result["invalid"]:
        print(f"error: invalid open-loop run: {result['invalid']}", file=sys.stderr)
        return 3
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(listed)
    mismatched = [n for n in names if n not in shown or shown[n].unit != listed[n]]
    if mismatched:
        print(f"error: metrics missing or in another unit: {mismatched}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": shown[name].value, "unit": shown[name].unit} for name in names
        },
    }))
    return 1 if result["wrong"] else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            if lines:
                print("\n".join(lines))
            return proc.returncode
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        code = max(code, proc.returncode)
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


def timeout(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        return run_one(args, spec)
    except RunTimeout as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
