"""Benchmark of quivertilt on exact-certificate workloads.

    python3 perfbench/run.py --workload scenario_a2 --seed 1 \\
        --seconds 30 --trace 0

Run it from the root of a source checkout; quivertilt is imported from
its ``src`` directory (the pure-Python kernels need no build).  Every
repetition runs in a fresh interpreter (rep.py), one at a time, so the
module-level caches of quivertilt start cold as they do for a user of
the command line.  A run is a closed loop of such repetitions.

``--trace 0`` first times the set-up alone in a few processes, then
repeats the workload until ``--seconds`` would be exceeded (at least
twice), and reports the medians of wall_s, setup_s and peak_rss_mib.
Every process also times the fixed pure-Python work of speed.py: a
repetition every 0.1 s of its timed section, a set-up-only process
after its set-up.  Its wall_s and setup_s are rescaled by those times to
a fixed machine speed, and the run reports the medians of the rescaled
times.  So the host's changes of speed, from one core or one minute to
the next, do not show as changes of the program.  The times as measured
are in the info line as ``measured``.
``--trace 1`` runs the workload once untraced and once under the layer
tracer, then the linalg probe, and reports the per-layer metrics; the
line before the result states the tracer's overhead against the
untraced run.

Every repetition checks its outputs; ``attempted`` and ``failed`` count
certificates over all of them.  The last line of output is the result
as JSON; the line before it gives the environment, the sample sizes
and every sample.  Both are also written to .perfbench/.  The metrics
reported, with their units, are those BENCHMARK.json lists.

BENCHMARK.json schedules all four workloads.  A repetition of
transport_a3 or tstructure_a2 takes 10 to 16 s, so a run of them holds
only the two repetitions MIN_REPS asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("transport_a3", "scenario_a2", "tstructure_a2", "derived_f3")
SETUP_SAMPLES = 8
MIN_REPS = 2
# Every child is stopped in time for the run to end within 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Fixed string hashing keeps set orders, and so call counts, the same
    # from run to run.
    env["PYTHONHASHSEED"] = "0"
    # An installed quivertilt imports from compiled bytecode; the first
    # process writes it, so that setup_s never includes compiling the
    # sources, whatever the environment asks.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run rep.py to completion; its JSON result and elapsed seconds."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("no time left for another repetition")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), *argv], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {argv} timed out") from exc
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition {argv} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), elapsed


def measure(args, deadline: float) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.monotonic()
    setups = [child(base + ["--mode", "setup"], deadline)[0]
              for _ in range(SETUP_SAMPLES)]
    reps, longest = [], 0.0
    while True:
        rep, elapsed = child(base, deadline)
        reps.append(rep)
        longest = max(longest, elapsed)
        spent = time.monotonic() - t0
        if len(reps) >= MIN_REPS and spent + longest > args.seconds:
            break
        if time.monotonic() + longest > deadline:
            break
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in setups + reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
        "reference_s": [statistics.median(r["reference_s"])
                        for r in setups + reps],
    }
    measured = {name: statistics.median(values)
                for name, values in samples.items()}
    # Each process's times are rescaled by the reference times taken in
    # it, on its core and in its minutes.
    scaled = {
        "wall_s": [speed.rescale(r["wall_s"], r["reference_s"])
                   for r in reps],
        "setup_s": [speed.rescale(r["setup_s"], r["reference_s"])
                    for r in setups + reps],
    }
    metrics = {name: statistics.median(values)
               for name, values in scaled.items()}
    metrics["peak_rss_mib"] = measured["peak_rss_mib"]
    return {"reps": reps, "samples": samples, "measured": measured,
            "metrics": metrics}


def trace(args, deadline: float) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    plain, _ = child(base, deadline)
    traced, _ = child(base + ["--trace", "--spans", str(spans)], deadline)
    probe, _ = child(base + ["--mode", "probe"], deadline)
    metrics = dict(traced["layers"])
    metrics.update(probe["probe"])
    for rep in (plain, traced):
        rep.pop("layers", None)
    return {"reps": [plain, traced, probe], "metrics": metrics,
            "missing": traced["missing"],
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "trace_overhead": traced["wall_s"] / plain["wall_s"] - 1,
            "bench_self_s": traced["bench_self_s"],
            "spans": traced["spans"], "spans_dropped": traced["spans_dropped"],
            "spans_file": str(spans.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "quivertilt" / "__init__.py").is_file():
        print(f"error: no quivertilt sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    try:
        run = trace(args, deadline) if args.trace else measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = run.pop("reps")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]],
                                "unit": m["unit"]}
                    for m in listed if m["name"] in run["metrics"]},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": reps[0]["backend"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": reps[0]["sizes"],
        "notes": sorted({n for r in reps for n in r.get("notes", ())}),
        **run,
    }
    if args.trace:
        info["missing_metrics"] = [m["name"] for m in listed
                                   if m["name"] not in run["metrics"]]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
