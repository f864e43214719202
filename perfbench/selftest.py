"""Self-test of the benchmark itself, on tiny seeded samples.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists workloads of run.py, and that
metrics.py says what each of its per-layer metrics should move; that two
traced runs of the same tiny workload count the same calls and pass
their gates; and that a deliberately wrong expected value makes the
gate of every workload report failed certificates.  Exits 1 on the
first check that does not hold.
"""

from __future__ import annotations

import json
import sys
import time

from metrics import SHOULD_MOVE
from run import ROOT, WORKLOADS, child

SEED = 7
TINY = ("tstructure_a2", "derived_f3")


def check(ok: bool, what: str) -> None:
    print(f"{'ok' if ok else 'FAIL'}: {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json lists workloads of run.py")
    check({m["name"] for m in spec["per_layer"]} == set(SHOULD_MOVE),
          "metrics.py notes what every per-layer metric should move")

    deadline = time.monotonic() + 600
    for workload in TINY:
        argv = ["--workload", workload, "--seed", str(SEED), "--tiny",
                "--trace"]
        first, _ = child(argv, deadline)
        second, _ = child(argv, deadline)
        counts = [{k: v for k, v in rep["layers"].items()
                   if not k.endswith("_s")} for rep in (first, second)]
        check(counts[0] == counts[1] and counts[0].get("derived.hom.calls"),
              f"{workload}: two traced runs count the same calls")
        check(first["failed"] == 0 and first["attempted"] > 0,
              f"{workload}: the gate passes "
              f"({first['attempted']} certificates)")

    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(SEED), "--broken"]
        if workload in TINY:
            argv.append("--tiny")
        rep, _ = child(argv, deadline)
        check(rep["failed"] > 0,
              f"{workload}: a wrong expected value fails "
              f"{rep['failed']} of {rep['attempted']} certificates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
