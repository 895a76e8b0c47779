"""Run the benchmark over several seeds and report each metric's spread.

For every workload and seed it runs ``run.py`` once, then prints, per
metric, the median over the seeds and the spread: the distance between
the first and third quartiles as a share of the median. The collected
runs are written as JSON, which is how a trajectory point is recorded.

Usage, from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --trace 0 --out FILE [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    section = declared["per_layer" if args.trace else "end_to_end"]

    runs = {}
    for name in workloads:
        runs[name] = []
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
            result = json.loads(lines[-1])
            runs[name].append({"seed": seed, **result, "env": env,
                               "wall_s": time.perf_counter() - started})
            print(name, seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()
                               if k in {m["name"] for m in section[:6]}}, flush=True)

    summary = {}
    print(f"{'workload':20s} {'metric':40s} {'median':>12s} {'spread':>7s} bound")
    for name, results in runs.items():
        summary[name] = {}
        for metric in section:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry = {"median": statistics.median(values), "unit": metric["unit"]}
            if len(values) >= 2 and entry["median"]:
                entry["spread"] = spread(values)
            summary[name][metric["name"]] = entry
            print(f"{name:20s} {metric['name']:40s} {entry['median']:12.6g} "
                  f"{entry.get('spread', float('nan')):7.4f} {metric.get('bound', '')}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
