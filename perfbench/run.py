"""frfkit benchmark: one workload, measured end to end or traced by layer.

Runs the workload's scenario configs through the path `frfkit run` takes
(parse_config -> run_scenario -> export_report), checks every run's
outputs (see checks.py), and prints the metrics BENCHMARK.json declares.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, including the tracing overhead. All load comes from
this one process; BLAS keeps its own thread setting, which is recorded.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from tracer import LAYERS, LayerMissing, Tracer, layer_totals
from workloads import MIMO, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 5


def import_frfkit():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "frfkit" / "__init__.py").is_file():
        raise ImportError(f"no frfkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    from frfkit import cli, closedloop, sim

    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"frfkit resolved to {cli.__file__}, outside {SRC}")
    return cli, closedloop, sim


@dataclass
class Outcome:
    label: str
    seconds: float
    failure: str = None      # why the run counts as failed
    incorrect: bool = False  # exited 0, yet an output check failed


class Runner:
    """Runs a workload's scenario configs and checks every run."""

    def __init__(self, workload, seed: int, modules):
        self.cli, self.closedloop, self.sim = modules
        self.workload = workload
        self.configs = {}
        self.reference = {}   # label -> (digests, oracle problems) of the first run
        self.oracle_err = {}  # label -> recomputed error of the first run
        self.outcomes = []
        config_dir = WORK / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        n_inputs = self.sim.benchmark_plant().n_inputs
        self.samples_per_round = 0
        for run in workload.runs:
            path = config_dir / f"{run.label}.json"
            path.write_text(json.dumps(run.config(seed)), encoding="utf-8")
            self.configs[run.label] = path
            try:
                cfg = self.cli.parse_config(path)
            except self.cli.ConfigError:  # counted as a failed run each round
                continue
            experiments = n_inputs if cfg.scenario == MIMO else 1
            self.samples_per_round += cfg.period_samples * cfg.n_periods_total * experiments

    def round(self, tracer: Tracer = None) -> float:
        """One pass over the workload's configs; returns their summed run time."""
        return sum(self.run_once(run, tracer).seconds for run in self.workload.runs)

    def run_once(self, run, tracer: Tracer = None) -> Outcome:
        out = WORK / "out" / run.label
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.run = f"{run.label}#{len(self.outcomes)}"
        report, cfg, started, failure = None, None, None, None
        try:
            cfg = self.cli.parse_config(self.configs[run.label])
            started = time.perf_counter()
            report = self.cli.run_scenario(cfg)
            self.cli.export_report(report, out)
        except (self.cli.ConfigError, self.sim.UnstableLoopError) as exc:
            failure = f"exit 2: {exc}"
        except LayerMissing:
            raise
        except Exception:  # a crash is a failed run, not the end of the benchmark
            failure = "exception: " + traceback.format_exc(limit=-2).strip()
        seconds = 0.0 if started is None else time.perf_counter() - started
        outcome = Outcome(run.label, seconds, failure)
        if failure is None:
            try:
                self._check(run, cfg, out, report, outcome)
            except (OSError, ValueError, KeyError) as exc:
                outcome.failure, outcome.incorrect = f"unreadable outputs: {exc!r}", True
        if tracer is not None:
            tracer.count_useful_bins([] if report is None else report.curves, run.series)
        self.outcomes.append(outcome)
        return outcome

    def _check(self, run, cfg, out, report, outcome):
        fraction = report.defect_fraction()
        if fraction > cfg.max_defect_fraction:  # `frfkit run` exits 3 here
            outcome.failure = (f"exit 3: defect fraction {fraction:.3f} exceeds "
                               f"{cfg.max_defect_fraction:.3f}")
            return
        summary, problems = checks.summary_problems(out, cfg)
        got = checks.digests(out)
        if run.label not in self.reference:
            err = checks.oracle_error(self.sim, self.closedloop, run, cfg, out)
            claimed = summary["band_statistics"].get(run.record, {}).get(
                "mean_error_abs", float("nan"))
            self.reference[run.label] = (got, checks.oracle_problems(
                err, claimed, run.tolerance))
            if math.isfinite(err):
                self.oracle_err[run.label] = err
        reference, oracle_verdict = self.reference[run.label]
        if got == reference:  # identical outputs share the first run's oracle verdict
            problems += oracle_verdict
        else:
            problems.append("outputs differ from the first run of this seed")
        if problems:
            outcome.failure = "; ".join(problems)
            outcome.incorrect = True


def setup_times(config: Path) -> list:
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def _blas_threads() -> dict:
    """OpenBLAS thread count, threading mode and core type, read from the loaded library."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for key, stem in (("threads", "get_num_threads"), ("parallel", "get_parallel"),
                          ("runtime_configuration", "get_config")):
            for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                         f"openblas_{stem}64_", f"openblas_{stem}"):
                if hasattr(lib, name):
                    fn = getattr(lib, name)
                    if stem == "get_config":
                        fn.restype = ctypes.c_char_p
                    found[key] = fn()
                    break
    if "runtime_configuration" in found:
        found["runtime_configuration"] = found["runtime_configuration"].decode().strip()
    if "parallel" in found:  # OpenBLAS: 0 sequential, 1 pthreads, 2 OpenMP
        found["parallel"] = {0: "sequential", 1: "pthreads", 2: "openmp"}.get(
            found["parallel"], found["parallel"])
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 **_blas_threads()},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FRFKIT_THREADS")},
        "seed": seed,
    }


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Warm-up round, then timed rounds while another fits in ``seconds``.

    The warm-up round sets the reference outputs, runs the oracle check
    and lets lazy imports finish; it is checked and counted but not timed.
    With tracing, untraced and traced rounds alternate.
    """
    runner.round()
    tracer = Tracer() if trace else None
    untraced, traced, traced_totals = [], [], []
    deadline = time.perf_counter() + seconds
    while not untraced or (trace and not traced) or (
            time.perf_counter() + statistics.median(untraced + traced) < deadline):
        if trace and len(traced) < len(untraced):
            first = len(tracer.spans)
            with tracer.installed():
                traced.append(runner.round(tracer))
            traced_totals.append(layer_totals(tracer.spans[first:]))
        else:
            untraced.append(runner.round())
    return {"untraced": untraced, "traced": traced, "traced_totals": traced_totals,
            "spans": tracer.to_json() if trace else None}


def end_to_end(runner: Runner, rounds: dict, setup: list) -> dict:
    run_s = statistics.median(rounds["untraced"])
    return {
        "run_s": run_s,
        "samples_per_s": runner.samples_per_round / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_err": max(runner.oracle_err.values()),
    }


def per_layer(runner: Runner, rounds: dict) -> dict:
    """Median self time per layer over traced rounds, its counts and rates.

    Counts must repeat exactly from round to round, every layer the
    workload expects must record a span, and the simulated samples must
    match the workload's stated size.
    """
    totals = rounds["traced_totals"]
    metrics = {}
    for name, counter in LAYERS.items():
        per_round = [t.get(name, {}) for t in totals]
        if name in runner.workload.expected_layers and not all(per_round):
            raise LayerMissing(f"{name} recorded no span on {runner.workload.name}")
        self_s = statistics.median(r.get("self_s", 0.0) for r in per_round)
        metrics[f"{name}.self_s"] = self_s
        for key in getattr(counter, "keys", ()):
            values = {r.get(key, 0) for r in per_round}
            if len(values) != 1:
                raise RuntimeError(f"{name}.{key} differs between rounds: {sorted(values)}")
            count = values.pop()
            metrics[f"{name}.{key}"] = count
            if key in ("samples", "bins"):
                metrics[f"{name}.{key}_per_s"] = count / self_s if self_s > 0 else 0.0
    lpm = "estimators.lpm_fit"
    metrics[f"{lpm}.useful_frac"] = (metrics[f"{lpm}.useful_bins"] / metrics[f"{lpm}.bins"]
                                     if metrics[f"{lpm}.bins"] else 0.0)
    simulated = metrics["sim.simulate_closed_loop.samples"]
    if simulated != runner.samples_per_round:
        raise RuntimeError(f"traced run simulated {simulated} samples, the workload "
                           f"states {runner.samples_per_round}")
    metrics["trace.overhead_frac"] = (statistics.median(rounds["traced"])
                                      / statistics.median(rounds["untraced"]) - 1.0)
    return metrics


def report_lines(runner: Runner, rounds: dict, computed: dict, declared: list,
                 trace: bool) -> list:
    """Human-readable lines printed before the JSON result."""
    lines = [f"workload {runner.workload.name}: {len(rounds['untraced'])} untraced and "
             f"{len(rounds['traced'])} traced timed rounds after one warm-up round"]
    failed = [o for o in runner.outcomes if o.failure]
    lines.append(f"fail_frac {len(failed) / len(runner.outcomes):.6g} "
                 f"({len(failed)}/{len(runner.outcomes)} runs)")
    for label in sorted({o.label for o in failed}):
        first = next(o for o in failed if o.label == label)
        lines.append(f"  failed {label}: {first.failure.splitlines()[-1]}")
    lines.append(f"run_s samples: {len(rounds['untraced'])} (too few for a tail percentile)")
    for metric in declared:
        lines.append(f"{metric['name']} {computed[metric['name']]:.6g} {metric['unit']}")
    if trace:
        selfs = {name: computed[f"{name}.self_s"] for name in LAYERS}
        total = sum(selfs.values())
        lines.append("self time by layer (median traced round):")
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            if value > 0:
                lines.append(f"  {name:34s} {value:9.4f} s {100 * value / total:5.1f}%")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        modules = import_frfkit()
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    workload = WORKLOADS[args.workload]
    try:
        runner = Runner(workload, args.seed, modules)
        setup = [] if trace else setup_times(runner.configs[workload.runs[0].label])
        rounds = measure(runner, args.seconds, trace)
        if not runner.oracle_err:
            raise RuntimeError("no run gave an estimate to check; nothing to report")
        computed = per_layer(runner, rounds) if trace else end_to_end(runner, rounds, setup)
        section = declared["per_layer" if trace else "end_to_end"]
        missing = [m["name"] for m in section if m["name"] not in computed]
        if missing:
            raise LayerMissing(f"declared metrics not measured: {missing}")
    except RuntimeError as exc:  # LayerMissing included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "out", ignore_errors=True)

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for line in report_lines(runner, rounds, computed, section, trace):
        print(line)
    result = {
        "correct": not any(o.incorrect for o in runner.outcomes),
        "attempted": len(runner.outcomes),
        "failed": sum(1 for o in runner.outcomes if o.failure),
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "all_metrics": computed, "rounds": {
            k: rounds[k] for k in ("untraced", "traced")},
            "failures": [vars(o) for o in runner.outcomes if o.failure],
            "spans": rounds["spans"]}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
