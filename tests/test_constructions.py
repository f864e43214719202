"""Everything the library builds satisfies the axioms its checks test.

The constructors of Module, ModuleMap, Complex, ChainMap and
ShortExactSeq check only shapes; the axioms live in their check()
methods.  The library calls check() on nothing it builds itself: the
only caller is the CLI, on the modules a scenario describes.  This file
keeps the two halves of that rule honest.

The oracle runs in a fresh interpreter, so every cache starts cold, and
under python -O, so the checks must be ValueErrors rather than asserts.
It wraps the five constructors to call check() on every object built,
then runs the bundled scenario at bounds 2 and 3 against its goldens,
the transport_a3 certificates, and the tiny samples of tstructure_a2
and derived_f3 against their benchmark gates.  Those inputs are over
F_2, where a dropped sign goes unseen, and derived_f3 builds no chain
map, so the oracle also takes heart kernels and cokernels over A2/F_3:
they reach cones, resolutions and chain-map spaces with p = 3.

The guard runs the bundled scenario in this process and counts the
check() calls the library makes: one Module.check per scenario module,
and nothing else.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from importlib.resources import files
from pathlib import Path

import quivertilt
from quivertilt.cli import main
from quivertilt.complexes import ChainMap, Complex
from quivertilt.modules import Module, ModuleMap, ShortExactSeq

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
GOLDEN = HERE / "golden"
BUNDLED = str(files("quivertilt").joinpath("scenarios/a2_full.json"))
CLASSES = (Module, ModuleMap, Complex, ChainMap, ShortExactSeq)

# Run as `python -O -c ORACLE <perfbench dir> <golden dir> <scenario>`;
# prints one JSON document.  The benchmark workloads are imported read
# only, for their fixtures and gates.
ORACLE = r"""
import contextlib, io, json, sys
from pathlib import Path

perfbench, golden, bundled = sys.argv[1:4]
sys.path.insert(0, perfbench)
from quivertilt import (algebras, cli, complexes, derived, enumeration,
                        heart, linalg, modules, quivers, torsion)
import workloads

checked = {}
failures = []


def checking(cls):
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        try:
            self.check()
        except ValueError as exc:
            failures.append(f"{cls.__name__}: {exc}")
            raise
        checked[cls.__name__] = checked.get(cls.__name__, 0) + 1

    cls.__init__ = __init__


for cls in (modules.Module, modules.ModuleMap, complexes.Complex,
            complexes.ChainMap, modules.ShortExactSeq):
    checking(cls)

goldens = {}
for name, extra in (("a2_full.json", []),
                    ("a2_full_bound3.json", ["--bound", "3"])):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([bundled, *extra, "--no-timing", "--json-only"])
    want = (Path(golden) / name).read_text(encoding="utf-8")
    goldens[name] = code == 0 and out.getvalue() == want

gates = {}
for name in ("transport_a3", "tstructure_a2", "derived_f3"):
    setup, run, gate = workloads.WORKLOADS[name]
    fx, _ = setup(1, True)
    out = run(fx, lambda k: None)
    attempted, failed, notes = gate(fx, out, workloads.EXPECTED)
    gates[name] = {"attempted": attempted, "failed": failed, "notes": notes}

# An F_3 input for cones and chain-map spaces, where -1 is not 1: the
# heart kernel and cokernel of every basis morphism between the heart
# classes of each A2/F_3 torsion pair.
alg3 = algebras.path_algebra(
    linalg.Field(3), quivers.Quiver((1, 2), ((1, 2),)))
uni3 = enumeration.universe(alg3, 2)
f3_maps = 0
for pair in torsion.enumerate_torsion_pairs(uni3):
    ts = heart.induced_t_structure(pair)
    reps = heart.heart_class_reps(ts, uni3, 2)
    for x in reps:
        for y in reps:
            for f in derived.derived_hom0(x, y).basis():
                heart.heart_kernel(ts, f)
                heart.heart_cokernel(ts, f)
                f3_maps += 1

json.dump({"goldens": goldens, "gates": gates, "checked": checked,
           "f3_maps": f3_maps, "failures": failures}, sys.stdout)
"""


def test_everything_built_passes_its_check():
    src = str(Path(quivertilt.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", ORACLE, str(PERFBENCH), str(GOLDEN),
         BUNDLED],
        capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    result = json.loads(proc.stdout)
    assert result["failures"] == []
    assert result["goldens"] == {"a2_full.json": True,
                                 "a2_full_bound3.json": True}
    for name, rep in result["gates"].items():
        assert rep["attempted"] > 0 and rep["failed"] == 0, (name, rep)
    assert result["f3_maps"] > 0
    assert set(result["checked"]) == {cls.__name__ for cls in CLASSES}


def test_library_checks_only_scenario_modules(monkeypatch, capsys):
    calls: Counter[str] = Counter()
    for cls in CLASSES:
        def counting(self, _check=cls.check, _name=cls.__name__):
            calls[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "check", counting)
    assert main([BUNDLED, "--no-timing", "--json-only"]) == 0
    capsys.readouterr()
    scenario = json.loads(Path(BUNDLED).read_text(encoding="utf-8"))
    assert calls == Counter({"Module": len(scenario["modules"])})
