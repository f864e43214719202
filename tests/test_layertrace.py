"""The benchmark's layer tracer must still find what it counts.

perfbench/layertrace.py names library functions and methods by string
and reports the ones it cannot find as missing, never as an error, so
a refactor that inlines or renames a counted function would silently
drop its counter.  This test reads the tracer's tables and resolves
every name in quivertilt.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names of the colocalization copies that the side-parametrised
# functions replaced; the tracer's tables may still list them.
STALE = {("giraud", "co_push_pair"), ("giraud", "co_hat_pair"),
         ("tiltbridge", "verify_heart_cogiraud")}


def _layertrace():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layertrace")
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolves(layer: str, target: str) -> bool:
    mod = importlib.import_module(f"quivertilt.{layer}")
    if "." not in target:
        return callable(getattr(mod, target, None))
    cls_name, meth = target.split(".")
    cls = getattr(mod, cls_name, None)
    return inspect.isclass(cls) and meth in vars(cls)


def test_every_traced_name_resolves():
    lt = _layertrace()
    targets = {(layer, target)
               for entries in lt.COUNTERS.values()
               for layer, target, _ in entries}
    targets |= {(layer, qual) for layer, quals in lt.METHODS.items()
                for qual in quals}
    targets |= {("kernels", name) for name in lt.KERNEL_FUNCTIONS}
    unresolved = {t for t in targets if not _resolves(*t)}
    assert unresolved <= STALE, sorted(unresolved - STALE)
