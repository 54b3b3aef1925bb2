"""Benchmark of fel: four workloads, end-to-end metrics, a traced replay.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run repeats the workload's operation in a closed loop with one caller, each
operation in a fresh child process (op.py), while the next one still fits in
S seconds (at least one).  A child is what one `fel` CLI invocation is: its
wall time runs from process start through importing fel to the written
output, and its peak RSS is its own.  Outputs are checked after the loop.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: wall_s (median operation), setup_s
and peak_rss_mb (median ru_maxrss of the operations).  setup_s is the median
of set-up probes (probe.py, each a fresh process) spread over the run: one
before each operation, then more until S seconds are used up, at least
SETUP_REPS in all.
--trace 1 runs traced replays only (the same operation with fel's layer
functions wrapped in spans) and reports the per-layer metrics of
BENCHMARK.json.  A replay runs first in its process, so its layers own every
rise of that process's peak RSS.  Spans are written to perfbench/out/.
``--workload all`` runs every workload with both settings, each in its own
process, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
OP_TIMEOUT = 150
# Inherited by every child process.  One thread: fel's work is serial numpy,
# and a second BLAS thread only spins (energy-deep: same wall time, 1.8x the
# CPU time, more spread).  A fixed hash seed: hash order moved the peak RSS
# of energy-deep over 196-217 MiB at one seed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe(setup) -> float:
    """Seconds a fresh process takes from start to a solved structure."""
    targets = [f"{preset}:{level}" for preset, level in setup]
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *targets],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def layer_metrics(trace: dict, names) -> dict[str, float]:
    """Self time and peak-RSS rise per layer, from one traced operation."""
    from spans import self_times
    values = dict.fromkeys(names, 0.0)
    for span, own in zip(trace["spans"], self_times(trace["spans"])):
        name, tags = span["name"], span["tags"]
        if span["parent"] is None:
            values["trace.wall_s"] = span["end"] - span["start"]
            values["other_s"] = own
            continue
        keys = [name + "_s"]
        if name == "lipschitz.coefficient_table":
            keys.append(f"{name}.base{tags['base']}_s")
        if name == "lipschitz.coefficient":
            keys.append(f"{name}.m{tags['m']}_s")
        for key in keys:
            values[key] += own
        layer = "energy" if name.startswith("energy.") else name
        if layer + ".rss_mb" in values:
            values[layer + ".rss_mb"] += span["rss_after_mb"] - span["rss_before_mb"]
    # what the spans add to the traced wall: their number times one span's cost
    values["trace.overhead_s"] = len(trace["spans"]) * trace["span_cost_s"]
    return values


def operation(args, workdir: Path, kind: str) -> dict:
    """One operation in a fresh process (op.py): the wall time a user of the
    CLI sees, from process start to written output, and what it left."""
    import numpy as np

    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, str(HERE / "op.py"), args.workload,
                               str(args.seed), str(workdir), kind],
                              cwd=ROOT, stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT)
        ok = done.returncode == 0
    except subprocess.TimeoutExpired:
        ok = False
    op = {"kind": kind, "seconds": time.perf_counter() - t0, "output": None}
    if not ok:
        print(f"{kind} operation in {workdir} failed", file=sys.stderr)
        return op
    result = json.loads((workdir / "result.json").read_text())
    op["peak_rss_mb"] = result["peak_rss_mb"]
    op["output"] = tuple((workdir / f"part-{k}").read_bytes() for k in range(result["parts"]))
    if kind == "replay":
        op["trace"] = json.loads((workdir / "trace.json").read_text())
        with np.load(workdir / "calls.npz") as data:
            op["calls"] = json.loads(str(data["calls"]))
            for k, call in enumerate(op["calls"]):
                call["values"], call["table"] = data[f"values{k}"], data[f"table{k}"]
    return op


def run_one(args, declared) -> int:
    import workloads

    deadline = time.perf_counter() + args.seconds
    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    kind = "replay" if args.trace else "run"
    ops: list[dict] = []
    probes: list[float] = []
    while True:
        if not args.trace:
            probes.append(probe(cls.setup))
        ops.append(operation(args, workdir / f"op{len(ops)}", kind))
        typical = statistics.median(op["seconds"] for op in ops)
        if probes:
            typical += statistics.median(probes)
        if time.perf_counter() + typical > deadline:
            break
    # The budget no operation fits into goes to set-up probes, so that they
    # spread over the run and not just its start.
    while probes and (len(probes) < SETUP_REPS
                      or time.perf_counter() + statistics.median(probes) <= deadline):
        probes.append(probe(cls.setup))

    workload = cls(args.seed, workdir)
    failures: list[str] = []
    verified = next((op["output"] for op in ops if op["output"] is not None), None)
    replays = [op for op in ops if op["kind"] == "replay" and op["output"] is not None]
    pairs = 0
    try:
        if verified is not None:
            failures += workload.check(verified)
        if replays:
            pairs = workload.check_calls(replays[0]["calls"], failures)
    except Exception:  # a check that crashes fails the verified output
        failures.append(traceback.format_exc())
    for line in failures:
        print("check failed:", line, file=sys.stderr)
    failed = sum(1 for op in ops if op["output"] is None or op["output"] != verified
                 or failures)
    shutil.rmtree(workdir, ignore_errors=True)

    done = [op for op in ops if op["output"] is not None]
    if args.trace:
        names = [m["name"] for m in declared["per_layer"]]
        per_op = [layer_metrics(op["trace"], names) for op in replays]
        metrics = {n: statistics.median(v[n] for v in per_op) if per_op else 0.0
                   for n in names}
        counts = replays[0]["trace"]["counts"] if replays else {}
        metrics["ifs.vertices"] = counts.get("ifs.vertices", 0)
        metrics["harmonic.iterations"] = counts.get("harmonic.iterations", 0)
        metrics["lipschitz.pairs_in_cutoff"] = pairs
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        write_spans(args, [op["trace"] for op in replays])
    else:
        metrics = {"wall_s": statistics.median(op["seconds"] for op in ops),
                   "setup_s": statistics.median(probes),
                   "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in done)
                   if done else 0.0}
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(result_line(len(ops), failed, metrics, units))
    return 0


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    """The run's result as the one-line JSON object the last line must hold."""
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {n: {"value": v, "unit": units[n]}
                                   for n, v in metrics.items()}}, allow_nan=False)


def write_spans(args, traces) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(traces, indent=1))


def run_all(args, names) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in names:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} --trace {trace} exited with {done.returncode}")
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            results[f"{name}/trace{trace}"] = result
            for metric, entry in result["metrics"].items():
                print(f"{name:<20} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
            print(f"{name:<20} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "runs": results}))
    return 0


def main(argv=None) -> int:
    if not (SRC / "fel" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} has no src/fel or no BENCHMARK.json; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    args = parse_args(argv, names)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
