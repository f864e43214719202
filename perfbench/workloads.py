"""The benchmark workloads.

Each workload has three parts, run in one fresh interpreter:

* ``setup(seed, tiny)`` builds the fixtures (algebra, corner, universes,
  seeded sample) and returns them with the sample sizes;
* ``run(fx, mark)`` is the timed section.  It calls only public
  functions of quivertilt, through their modules so that a tracer's
  patches are seen, and calls ``mark(k)`` before certificate k.  A
  certificate that raises is recorded as its exception;
* ``gate(fx, out, expected)`` checks the outputs after the timed section
  and returns (certificates attempted, certificates failed, notes).

``EXPECTED`` holds the values the gates compare against; the self-test
corrupts a copy of it to see the gates fire.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import random
from pathlib import Path

from quivertilt import (algebras, cli, complexes, derived, enumeration,
                        giraud, heart, linalg, modules, quivers, torsion)

HERE = Path(__file__).resolve().parent

EXPECTED = {
    # Coxeter-Catalan numbers of torsion classes: 14 for the A3 parent
    # and 5 for its corner at {1, 3}, which is of type A2 (the path
    # 1 -> 2 -> 3 survives as an arrow 1 -> 3); all 5 must be matched.
    "transport_a3": {"parent_pairs": 14, "corner_pairs": 5, "matched": 5},
    "scenario_a2": {"report": "expected/scenario_a2.json"},
    "tstructure_a2": {"pairs": 5, "ok": True},
    "derived_f3": {"offset": 0},
}


def broken(expected: dict) -> dict:
    """A deliberately wrong copy of EXPECTED, for the self-test."""
    bad = copy.deepcopy(expected)
    bad["transport_a3"]["parent_pairs"] += 1
    bad["scenario_a2"]["report"] = None
    bad["tstructure_a2"]["ok"] = False
    bad["derived_f3"]["offset"] = 1
    return bad


def spread_sample(items: list, n: int, key, rng: random.Random) -> list:
    """n of the items: the items are ordered by key and cut into n equal
    slices, and the seed picks one item from each slice.  Every seed's
    sample then spans the same range of sizes, so its cost varies
    little with the seed."""
    order = sorted(range(len(items)), key=lambda i: (key(items[i]), i))
    size = len(items)
    picks = [order[rng.randrange(size * j // n, size * (j + 1) // n)]
             for j in range(n)]
    return [items[i] for i in sorted(picks)]


def _cost_key(c) -> tuple:
    """Size of a complex: total dimension, the dimension of each
    component and the rank of each differential.  Ranks are taken on
    transposed copies, so that set-up leaves no reduction cached on the
    matrices the timed section uses."""
    return (sum(m.dim for m in c.components),
            tuple(m.dim for m in c.components),
            tuple(linalg.rank(d.mat.transpose()) for d in c.diffs))


def _guard(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a raising certificate counts as failed
        return exc


# -- transport_a3 --

def transport_setup(seed: int, tiny: bool):
    alg = algebras.path_algebra(
        linalg.Field(2), quivers.Quiver((1, 2, 3), ((1, 2), (2, 3))))
    corner = algebras.corner_algebra(alg, (0, 2))
    fx = {
        "ctx": giraud.giraud_context(corner),
        "co": giraud.co_giraud_context(corner),
        "uni_d": enumeration.universe(alg, 3),
        "uni_c": enumeration.universe(corner.sub, 2),
    }
    sizes = {"parent_bound": 3, "corner_bound": 2,
             "parent_members": len(fx["uni_d"].members),
             "parent_indecs": len(fx["uni_d"].indecs),
             "corner_members": len(fx["uni_c"].members)}
    return fx, sizes


def transport_run(fx, mark):
    mark(0)
    loc = _guard(giraud.verify_bijection, fx["ctx"], fx["uni_d"], fx["uni_c"])
    mark(1)
    co = _guard(giraud.verify_co_bijection, fx["co"], fx["uni_d"],
                fx["uni_c"])
    return [loc, co]


def transport_gate(fx, out, expected):
    want = expected["transport_a3"]
    failed, notes = 0, []
    for side, rep in zip(("localization", "colocalization"), out):
        good = (not isinstance(rep, Exception) and rep.ok
                and rep.parent_pairs == want["parent_pairs"]
                and rep.corner_pairs == want["corner_pairs"]
                and len(rep.matching) == want["matched"])
        if not good:
            failed += 1
            notes.append(f"{side}: {rep!r}"[:300])
    return len(out), failed, notes


# -- scenario_a2 --

SCENARIO_ARGS = ("--bound", "3")


def scenario_setup(seed: int, tiny: bool):
    path = Path(cli.__file__).resolve().parent / "scenarios" / "a2_full.json"
    return {"path": str(path)}, {"scenario": "a2_full.json", "bound": 3}


def scenario_run(fx, mark):
    mark(0)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = _guard(cli.main, [fx["path"], *SCENARIO_ARGS])
    return code, stdout.getvalue()


def strip_seconds(node):
    if isinstance(node, dict):
        return {k: strip_seconds(v) for k, v in node.items() if k != "seconds"}
    if isinstance(node, list):
        return [strip_seconds(v) for v in node]
    return node


def scenario_gate(fx, out, expected):
    """Exit code 0, and the report without its "seconds" fields equal,
    byte for byte, to the one recorded with --no-timing.  One
    certificate per command."""
    code, text = out
    name = expected["scenario_a2"]["report"]
    want_text = (HERE / name).read_text() if name else ""
    want = json.loads(want_text) if want_text else {"commands": []}
    attempted = max(len(want["commands"]), 1)
    try:
        got = strip_seconds(json.loads(text))
    except ValueError:
        return attempted, attempted, [f"exit {code!r}, no JSON report"]
    got_text = json.dumps(got, sort_keys=True, indent=2) + "\n"
    if code == 0 and got_text == want_text:
        return attempted, 0, []
    cmds = got.get("commands", [])
    bad = [k for k in range(attempted)
           if k >= len(cmds) or k >= len(want["commands"])
           or cmds[k] != want["commands"][k]]
    notes = [f"exit {code!r}; commands differing: {bad}"]
    return attempted, max(len(bad), 1), notes


# -- tstructure_a2 --

def tstructure_setup(seed: int, tiny: bool):
    alg = algebras.path_algebra(
        linalg.Field(2), quivers.Quiver((1, 2), ((1, 2),)))
    uni = enumeration.universe(alg, 2)
    pool = complexes.enumerate_complexes(uni, -2, 1, 2, total_bound=4)
    size = 20 if tiny else 500
    sample = spread_sample(pool, size, _cost_key, random.Random(seed))
    pairs = torsion.enumerate_torsion_pairs(uni)
    fx = {"sample": sample,
          "structures": [heart.induced_t_structure(p) for p in pairs]}
    return fx, {"pool": len(pool), "sample": len(sample),
                "pairs": len(pairs)}


def tstructure_run(fx, mark):
    out = []
    for k, ts in enumerate(fx["structures"]):
        mark(k)
        out.append(_guard(heart.t_structure_report, ts, fx["sample"]))
    return out


def tstructure_gate(fx, out, expected):
    want = expected["tstructure_a2"]
    failed = sum(1 for rep in out
                 if isinstance(rep, Exception) or rep.ok != want["ok"])
    failed += abs(want["pairs"] - len(out))
    notes = [repr(rep)[:300] for rep in out
             if isinstance(rep, Exception) or rep.ok != want["ok"]]
    return max(want["pairs"], len(out)), failed, notes


# -- derived_f3 --

def derived_setup(seed: int, tiny: bool):
    alg = algebras.path_algebra(
        linalg.Field(3), quivers.Quiver((1, 2), ((1, 2),)))
    uni = enumeration.universe(alg, 2)
    pool = complexes.enumerate_complexes(uni, -1, 0, 2, total_bound=4)
    size = 6 if tiny else 75
    sample = spread_sample(pool, size, _cost_key, random.Random(seed))
    return {"sample": sample}, {"pool": len(pool), "sample": len(sample),
                                "pairs": len(sample) ** 2}


def derived_run(fx, mark):
    sample = fx["sample"]
    out = []
    k = 0
    for x in sample:
        for y in sample:
            mark(k)
            out.append(_guard(derived.derived_hom_dim, x, y))
            k += 1
    return out


def derived_gate(fx, out, expected):
    """The hereditary split formula of acceptance test 12:
    dim Hom_D(x, y) = sum_i dim Hom(H^i x, H^i y)
                      + sum_i dim Ext^1(H^i x, H^(i-1) y)."""
    offset = expected["derived_f3"]["offset"]
    sample = fx["sample"]
    coh = [{i: complexes.cohomology(c, i) for i in (-2, -1, 0)}
           for c in sample]
    # Few distinct cohomology pairs occur, so each is evaluated once.
    hom = functools.cache(modules.hom_dim)
    ext = functools.cache(lambda a, b: modules.ext1_basis(a, b).dim)
    failed, notes, k = 0, [], 0
    for hx in coh:
        for hy in coh:
            split = sum(hom(hx[i], hy[i]) + ext(hx[i], hy[i - 1])
                        for i in (-1, 0))
            if out[k] != split + offset:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"pair {k}: got {out[k]!r}, split {split}")
            k += 1
    return len(out), failed, notes


WORKLOADS = {
    "transport_a3": (transport_setup, transport_run, transport_gate),
    "scenario_a2": (scenario_setup, scenario_run, scenario_gate),
    "tstructure_a2": (tstructure_setup, tstructure_run, tstructure_gate),
    "derived_f3": (derived_setup, derived_run, derived_gate),
}
