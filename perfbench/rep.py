"""One repetition of a workload, in the fresh interpreter it runs in.

run.py starts this script once per repetition, so every module-level
cache of quivertilt starts cold.  It prints one JSON object as its last
line of output.  Modes:

* ``run``: time the set-up (importing quivertilt plus building the
  fixtures), then the workload, then check its outputs; the machine's
  speed is sampled while the workload runs (speed.py).  With
  ``--trace`` the workload runs under the layer tracer instead;
* ``setup``: time the set-up only, then sample the machine's speed;
* ``probe``: run the linalg probe.

    python3 perfbench/rep.py --workload derived_f3 --seed 1 --mode run
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "probe"),
                        default="run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the trace's spans here")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the seeded samples (self-test)")
    parser.add_argument("--broken", action="store_true",
                        help="check against wrong expected values (self-test)")
    args = parser.parse_args()

    start = time.perf_counter()
    import quivertilt

    if SRC not in Path(quivertilt.__file__).resolve().parents:
        print(f"quivertilt imported from {quivertilt.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from quivertilt import kernels

    result = {"backend": getattr(kernels, "BACKEND", "unknown")}
    if args.mode == "probe":
        import probe

        rates, attempted, failed = probe.run(args.seed)
        result.update(probe=rates, attempted=attempted, failed=failed)
        print(json.dumps(result))
        return 0

    import speed
    import workloads

    setup, run, gate = workloads.WORKLOADS[args.workload]
    fx, sizes = setup(args.seed, args.tiny)
    result["setup_s"] = time.perf_counter() - start
    result["sizes"] = sizes
    if args.mode == "setup":
        result["reference_s"] = speed.sample()
        print(json.dumps(result))
        return 0

    tracer = None
    mark = _no_mark
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        mark = tracer.mark
    if tracer is None:
        # The machine's speed is sampled on the workload's own core while
        # it runs; the sampling's time is not the workload's.
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            out = run(fx, mark)
            result["wall_s"] = time.perf_counter() - t0 - sampler.spent
        result["reference_s"] = sampler.samples
    else:
        t0 = time.perf_counter()
        out = tracer.run(lambda: run(fx, mark))
        result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if not result.get("reference_s"):
        result["reference_s"] = speed.sample()

    expected = workloads.EXPECTED
    if args.broken:
        expected = workloads.broken(expected)
    attempted, failed, notes = gate(fx, out, expected)
    result.update(attempted=attempted, failed=failed, notes=notes)

    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["bench_self_s"] = tracer.self_s["bench"]
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans) + tracer.dropped
        result["spans_dropped"] = tracer.dropped
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.span_records():
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


def _no_mark(cert) -> None:
    pass


if __name__ == "__main__":
    sys.exit(main())
