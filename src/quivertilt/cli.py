"""Scenario-driven batch verifier.

A scenario file describes one corner localization setup -- the base
field, the quiver, the corner vertices, named torsion pairs given by
generator modules, and enumeration bounds -- followed by an ordered
list of commands.  Each command builds a construction or runs one of
the verification suites; the collected reports are printed as a single
JSON document on stdout (sorted keys, so identical scenarios produce
byte-identical reports once timing is suppressed) and a one-line-per-
command summary on stderr.

Exit status: 0 when every command verdict is positive, 1 when at least
one verification fails, 2 for malformed input (parse errors, unresolved
names, exceeded enumeration bounds).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

from .algebras import Algebra, CornerData, corner_algebra, path_algebra
from .complexes import Complex
from .derived import derived_hom0, derived_hom_dim
from .enumeration import (
    BoundExceeded,
    ModuleUniverse,
    enumerate_submodules,
    universe,
)
from .giraud import (
    AnyGiraudContext,
    CoGiraudContext,
    GiraudContext,
    co_giraud_context,
    giraud_context,
    hat_pair,
    push_pair,
    verify_bijection,
)
from .heart import (
    heart_cokernel,
    heart_kernel,
    heart_les_ok,
    induced_t_structure,
    is_heart_zero,
    kv_classes,
    one_term,
    t_cohomology,
    tilted_pair_report,
    truncate_ge1,
    truncate_le0,
)
from .linalg import Field, Mat
from .modules import (
    Module,
    module_from_vertex_data,
    presentation_arrows,
    ses_from_submodule,
)
from .quivers import Quiver
from .tiltbridge import heart_giraud_context, reconstruct_serre, verify_heart_giraud
from .torsion import (
    ClassSpec,
    TorsionPair,
    enumerate_torsion_pairs,
    free_indec_indices,
    is_torsion_pair,
    torsion_indec_indices,
)

SCENARIO_VERSION = 1


class ScenarioError(Exception):
    """Malformed scenario input: parse error, unresolved name, or an
    enumeration bound that cannot be honored."""


def _integer(value: Any, message: str) -> int:
    """value, if it is a JSON integer.  JSON true and false load as
    Python bools, which are ints, and a float or a string could be cast
    to one, so anything but a plain int raises ScenarioError(message)."""
    if type(value) is not int:
        raise ScenarioError(message)
    return value


# -- scenario loading ----------------------------------------------------------

def load_scenario(path: Path) -> dict:
    """Parse and shape-check a scenario file."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"parse error at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    version = data.get("version")
    message = f"unsupported scenario version {version!r}"
    if _integer(version, message) != SCENARIO_VERSION:
        raise ScenarioError(message)
    for key in ("field", "quiver", "corner", "commands"):
        if key not in data:
            raise ScenarioError(f"missing scenario key {key!r}")
    if not isinstance(data["commands"], list):
        raise ScenarioError("commands must be a list")
    return data


class Environment:
    """The resolved setup a scenario's commands run against."""

    __slots__ = ("algebra", "corner", "ctx", "co", "uni_d", "uni_c",
                 "dim_bound", "heart_bound", "modules", "pairs")

    def __init__(self, algebra: Algebra, corner: CornerData,
                 ctx: GiraudContext, co: CoGiraudContext,
                 uni_d: ModuleUniverse, uni_c: ModuleUniverse,
                 dim_bound: int, heart_bound: int,
                 modules: dict[str, Module], pairs: dict[str, TorsionPair]):
        self.algebra = algebra
        self.corner = corner
        self.ctx = ctx
        self.co = co
        self.uni_d = uni_d
        self.uni_c = uni_c
        self.dim_bound = dim_bound
        self.heart_bound = heart_bound
        self.modules = modules
        self.pairs = pairs


def _module_from_descriptor(alg: Algebra, table: dict[str, Module],
                            desc: Any) -> Module:
    if isinstance(desc, str):
        if desc not in table:
            raise ScenarioError(f"unresolved module name {desc!r}")
        return table[desc]
    if not isinstance(desc, dict) or "dims" not in desc:
        raise ScenarioError(f"bad module descriptor {desc!r}")
    dims = desc["dims"]
    message = "module dims must list one size per vertex"
    if (not isinstance(dims, list) or len(dims) != len(alg.idem)
            or any(_integer(d, message) < 0 for d in dims)):
        raise ScenarioError(message)
    p = alg.field.p
    arrows = presentation_arrows(alg)
    given = desc.get("arrows", [])
    if not isinstance(given, list):
        raise ScenarioError("module arrows must list one block per arrow")
    if len(given) > len(arrows):
        raise ScenarioError("more arrow blocks than quiver arrows")
    arrow_mats: dict[int, Mat] = {}
    for b, rows in zip(arrows, given):
        if not rows:
            continue
        s, _ = alg.endpoints[b]
        entry = "bad arrow block: entries must be integers"
        try:
            mat = Mat.from_rows(p, [tuple(_integer(x, entry) % p for x in row)
                                    for row in rows], cols=dims[s])
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad arrow block: {exc}") from exc
        arrow_mats[b] = mat
    # The one place data from outside the program becomes a module, so
    # the module axioms are checked here and nowhere in the library.
    try:
        m = module_from_vertex_data(alg, dims, arrow_mats)
        m.check()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return m


def _pair_from_spec(alg: Algebra, table: dict[str, Module],
                    spec: Any) -> TorsionPair:
    if (not isinstance(spec, dict)
            or not isinstance(spec.get("torsion"), list)
            or not isinstance(spec.get("free"), list)):
        raise ScenarioError("a pair needs 'torsion' and 'free' generator lists")
    t_gens = tuple(_module_from_descriptor(alg, table, d)
                   for d in spec["torsion"])
    f_gens = tuple(_module_from_descriptor(alg, table, d)
                   for d in spec["free"])
    return TorsionPair(ClassSpec(t_gens, "torsion"),
                       ClassSpec(f_gens, "free"))


def build_environment(data: dict, bound_override: Optional[int]) -> Environment:
    """Resolve a parsed scenario into algebras, contexts, and pairs."""
    p = data["field"]
    message = f"field must be a prime, got {p!r}"
    if _integer(p, message) < 2:
        raise ScenarioError(message)
    try:
        fld = Field(p)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    quiver_spec = data["quiver"]
    if not isinstance(quiver_spec, dict):
        raise ScenarioError("quiver must be an object")
    try:
        quiver = Quiver(tuple(quiver_spec.get("vertices", ())),
                        tuple(tuple(a) for a in quiver_spec.get("arrows", ())))
        alg = path_algebra(fld, quiver)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad quiver: {exc}") from exc

    if not isinstance(data["corner"], list):
        raise ScenarioError("corner must list quiver vertices")
    positions = []
    for label in data["corner"]:
        # By type as well as value: JSON true == 1 and 2.0 == 2.
        hits = [k for k, v in enumerate(quiver.vertices)
                if type(v) is type(label) and v == label]
        if not hits:
            raise ScenarioError(f"corner vertex {label!r} not in the quiver")
        positions.append(hits[0])
    if not positions:
        raise ScenarioError("corner needs at least one vertex")
    corner = corner_algebra(alg, tuple(sorted(set(positions))))

    bounds = data.get("bounds", {})
    if not isinstance(bounds, dict):
        raise ScenarioError("bounds must be an object")
    dim_bound = bound_override if bound_override is not None \
        else bounds.get("dim", 2)
    heart_bound = bounds.get("depth", 3)
    for key, bound in (("dim", dim_bound), ("depth", heart_bound)):
        message = f"bounds.{key} must be a positive integer"
        if _integer(bound, message) < 1:
            raise ScenarioError(message)

    try:
        env = Environment(alg, corner, giraud_context(corner),
                          co_giraud_context(corner),
                          universe(alg, dim_bound),
                          universe(corner.sub, dim_bound),
                          dim_bound, heart_bound, {}, {})
    except BoundExceeded as exc:
        raise ScenarioError(str(exc)) from exc

    modules = data.get("modules", {})
    pairs = data.get("pairs", {})
    if not isinstance(modules, dict) or not isinstance(pairs, dict):
        raise ScenarioError("modules and pairs must be objects")
    for name, desc in modules.items():
        env.modules[name] = _module_from_descriptor(alg, env.modules, desc)
    for name, spec in pairs.items():
        env.pairs[name] = _pair_from_spec(alg, env.modules, spec)
    return env


# -- command helpers -----------------------------------------------------------

def _named_pair(env: Environment, cmd: dict) -> tuple[str, TorsionPair]:
    name = cmd.get("pair")
    if not isinstance(name, str):
        raise ScenarioError(f"command {cmd['op']!r} needs a pair name")
    if name not in env.pairs:
        raise ScenarioError(f"unresolved pair name {name!r}")
    return name, env.pairs[name]


def _stalk(env: Environment, cmd: dict, key: str) -> Complex:
    spec = cmd.get(key)
    if not isinstance(spec, dict) or "module" not in spec:
        raise ScenarioError(f"command {cmd['op']!r} needs {key!r} with a module")
    shift = _integer(spec.get("shift", 0), "shift must be an integer")
    m = _module_from_descriptor(env.algebra, env.modules, spec["module"])
    return one_term(m, shift)


def _complex_dims(c: Complex) -> dict:
    return {"lo": c.lo,
            "dims": [c.component(i).dim for i in range(c.lo, c.hi + 1)]}


def _indices(pair: TorsionPair, uni: ModuleUniverse) -> dict:
    return {"torsion": list(torsion_indec_indices(pair, uni)),
            "free": list(free_indec_indices(pair, uni))}


# -- commands ------------------------------------------------------------------

def cmd_validate_pair(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    report = is_torsion_pair(pair, env.uni_d)
    return {"pair": name, "ok": report.ok,
            "failures": list(report.failures),
            "classes": _indices(pair, env.uni_d)}


def cmd_transport_push(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    res = push_pair(env.ctx, pair, env.uni_d, env.uni_c)
    out = {"pair": name, "ok": res.ok,
           "closed_under_section": res.closed_under_section,
           "pair_valid": res.pair_valid,
           "preimage_matches": res.preimage_matches,
           "failures": [res.witness] if res.witness else []}
    if res.pair is not None:
        out["corner_classes"] = _indices(res.pair, env.uni_c)
    return out


def cmd_transport_hat(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    pushed = push_pair(env.ctx, pair, env.uni_d, env.uni_c)
    if not pushed.ok:
        return {"pair": name, "ok": False,
                "failures": [pushed.witness or "pair does not descend"]}
    lifted = hat_pair(env.ctx, pushed.pair, env.uni_d)
    report = is_torsion_pair(lifted, env.uni_d)
    return {"pair": name, "ok": report.ok,
            "failures": list(report.failures),
            "classes": _indices(lifted, env.uni_d),
            "matches_source": _indices(lifted, env.uni_d)
                              == _indices(pair, env.uni_d)}


def cmd_verify_tt11(env: Environment, cmd: dict,
                    ctx: AnyGiraudContext) -> dict:
    rep = verify_bijection(ctx, env.uni_d, env.uni_c)
    return {"ok": rep.ok, "parent_pairs": rep.parent_pairs,
            "corner_pairs": rep.corner_pairs,
            "compatible": [[list(t), list(f)] for t, f in rep.compatible],
            "matching": [list(m) for m in rep.matching],
            "failures": list(rep.failures)}


def cmd_truncate(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    ts = induced_t_structure(pair)
    c = _stalk(env, cmd, "complex")
    low, _ = truncate_le0(ts, c)
    high, _ = truncate_ge1(ts, c)
    return {"pair": name, "ok": ts.in_le(low, 0) and ts.in_ge(high, 1),
            "failures": [],
            "lower": _complex_dims(low), "upper": _complex_dims(high)}


def cmd_t_cohomology(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    ts = induced_t_structure(pair)
    c = _stalk(env, cmd, "complex")
    degrees = cmd.get("degrees", [-1, 0, 1, 2])
    if not isinstance(degrees, list):
        raise ScenarioError("degrees must be a list of integers")
    out = []
    for i in degrees:
        h = t_cohomology(ts, c, _integer(i, "degrees must be integers"))
        out.append({"degree": i, "zero": is_heart_zero(h),
                    "object": _complex_dims(h)})
    return {"pair": name, "ok": True, "failures": [], "cohomology": out}


def cmd_heart_hom(env: Environment, cmd: dict) -> dict:
    name, _ = _named_pair(env, cmd)
    x = _stalk(env, cmd, "x")
    y = _stalk(env, cmd, "y")
    return {"pair": name, "ok": True, "failures": [],
            "dim": derived_hom_dim(x, y)}


def cmd_heart_kernel(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    ts = induced_t_structure(pair)
    x = _stalk(env, cmd, "x")
    y = _stalk(env, cmd, "y")
    hom = derived_hom0(x, y)
    index = cmd.get("index", 0)
    message = f"no morphism #{index}: hom space has dimension {hom.dim}"
    if not 0 <= _integer(index, message) < hom.dim:
        raise ScenarioError(message)
    f = hom.basis()[index]
    ker, _ = heart_kernel(ts, f)
    cok, _ = heart_cokernel(ts, f)
    return {"pair": name, "ok": True, "failures": [],
            "kernel": {"zero": is_heart_zero(ker),
                       "object": _complex_dims(ker)},
            "cokernel": {"zero": is_heart_zero(cok),
                         "object": _complex_dims(cok)}}


def cmd_tilted_pair(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    rep = tilted_pair_report(induced_t_structure(pair), env.uni_d, env.heart_bound)
    return {"pair": name, "ok": rep.ok, "failures": list(rep.failures)}


def cmd_les_check(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    ts = induced_t_structure(pair)
    if "module" in cmd:
        mods = [_module_from_descriptor(env.algebra, env.modules,
                                        cmd["module"])]
    else:
        mods = env.uni_d.nonzero_members()
    checked = 0
    failures = []
    for m in mods:
        for sub in enumerate_submodules(m):
            if sub.dim in (0, m.dim):
                continue
            checked += 1
            if not heart_les_ok(ts, ses_from_submodule(m, sub)):
                failures.append(
                    f"six-term sequence fails at {env.uni_d.signature(m)} "
                    f"with a submodule of dimension {sub.dim}")
    return {"pair": name, "ok": not failures, "failures": failures,
            "checked": checked}


def cmd_kv_roundtrip(env: Environment, cmd: dict) -> dict:
    if "pair" in cmd:
        named = [_named_pair(env, cmd)]
    else:
        named = [(f"#{k}", pr) for k, pr in
                 enumerate(enumerate_torsion_pairs(env.uni_d))]
    failures = []
    for label, pair in named:
        t_idx, f_idx = kv_classes(induced_t_structure(pair), env.uni_d)
        want = (torsion_indec_indices(pair, env.uni_d),
                free_indec_indices(pair, env.uni_d))
        if (t_idx, f_idx) != want:
            failures.append(f"pair {label} came back as "
                            f"{(list(t_idx), list(f_idx))}")
    return {"ok": not failures, "failures": failures,
            "checked": len(named)}


def cmd_verify_adjhearts(env: Environment, cmd: dict,
                         ctx: AnyGiraudContext) -> dict:
    name, pair = _named_pair(env, cmd)
    try:
        hctx = heart_giraud_context(ctx, pair, env.uni_d, env.uni_c)
    except ValueError as exc:
        return {"pair": name, "ok": False, "failures": [str(exc)]}
    rep = verify_heart_giraud(hctx, env.uni_d, env.uni_c, env.heart_bound)
    return {"pair": name, "ok": rep.ok, "failures": list(rep.failures)}


def cmd_reconstruct(env: Environment, cmd: dict) -> dict:
    name, pair = _named_pair(env, cmd)
    try:
        hctx = heart_giraud_context(env.ctx, pair, env.uni_d, env.uni_c)
    except ValueError as exc:
        return {"pair": name, "ok": False, "failures": [str(exc)]}
    rep = reconstruct_serre(hctx, env.uni_d, env.uni_c, env.heart_bound)
    failures = [claim for claim, good in
                (("kernel class is not Serre", rep.kernel_is_serre),
                 ("corner pair not recovered", rep.pair_recovered),
                 ("quotient equivalence fails", rep.equivalence_holds),
                 ("membership differs from the kernel", rep.matches_kernel),
                 ("context roundtrip fails despite a generating free class",
                  rep.context_recovered or not rep.free_class_generates))
                if not good]
    return {"pair": name, "ok": rep.ok, "failures": failures,
            "membership": list(rep.membership),
            "recovered_classes": _indices(rep.recovered_pair, env.uni_c),
            "free_class_generates": rep.free_class_generates,
            "context_recovered": rep.context_recovered,
            "hom_table": [list(row) for row in rep.hom_table]}


def cmd_enumerate_modules(env: Environment, cmd: dict) -> dict:
    return {"ok": True, "failures": [],
            "parent": {"members": len(env.uni_d.members),
                       "indecs": [list(m.vertex_dims())
                                  for m in env.uni_d.indecs]},
            "corner": {"members": len(env.uni_c.members),
                       "indecs": [list(m.vertex_dims())
                                  for m in env.uni_c.indecs]}}


def cmd_enumerate_pairs(env: Environment, cmd: dict) -> dict:
    parent = enumerate_torsion_pairs(env.uni_d)
    corner = enumerate_torsion_pairs(env.uni_c)
    return {"ok": True, "failures": [],
            "parent": {"count": len(parent),
                       "torsion": [list(torsion_indec_indices(pr, env.uni_d))
                                   for pr in parent]},
            "corner": {"count": len(corner),
                       "torsion": [list(torsion_indec_indices(pr, env.uni_c))
                                   for pr in corner]}}


_COMMANDS: dict[str, Callable[[Environment, dict], dict]] = {
    "validate-pair": cmd_validate_pair,
    "transport-hat": cmd_transport_hat,
    "transport-push": cmd_transport_push,
    "verify-tt11": lambda env, cmd: cmd_verify_tt11(env, cmd, env.ctx),
    "verify-co-tt11": lambda env, cmd: cmd_verify_tt11(env, cmd, env.co),
    "truncate": cmd_truncate,
    "t-cohomology": cmd_t_cohomology,
    "heart-hom": cmd_heart_hom,
    "heart-kernel": cmd_heart_kernel,
    "tilted-pair": cmd_tilted_pair,
    "les-check": cmd_les_check,
    "kv-roundtrip": cmd_kv_roundtrip,
    "verify-adjhearts":
        lambda env, cmd: cmd_verify_adjhearts(env, cmd, env.ctx),
    "verify-cadjhearts":
        lambda env, cmd: cmd_verify_adjhearts(env, cmd, env.co),
    "reconstruct": cmd_reconstruct,
    "enumerate-modules": cmd_enumerate_modules,
    "enumerate-pairs": cmd_enumerate_pairs,
}


def run_commands(env: Environment, commands: list,
                 with_timing: bool) -> list[dict]:
    reports = []
    for k, cmd in enumerate(commands):
        if isinstance(cmd, str):
            cmd = {"op": cmd}
        if not isinstance(cmd, dict) or not isinstance(cmd.get("op"), str):
            raise ScenarioError(f"command #{k} needs an 'op' field")
        op = cmd["op"]
        handler = _COMMANDS.get(op)
        if handler is None:
            raise ScenarioError(f"unknown command {op!r}")
        start = time.perf_counter()
        try:
            report = handler(env, cmd)
        except BoundExceeded as exc:
            raise ScenarioError(f"command {op!r}: {exc}") from exc
        report["op"] = op
        if with_timing:
            report["seconds"] = round(time.perf_counter() - start, 3)
        reports.append(report)
    return reports


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quivertilt",
        description="Run a scenario of torsion-pair transport and "
                    "heart-level verification commands.")
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--json-only", action="store_true",
                        help="suppress the human summary on stderr")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit timing fields from the report")
    parser.add_argument("--bound", type=int, default=None,
                        help="override the enumeration dimension bound")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        data = load_scenario(Path(args.scenario))
        env = build_environment(data, args.bound)
        reports = run_commands(env, data["commands"],
                               with_timing=not args.no_timing)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for r in reports if not r.get("ok", True))
    document = {
        "version": SCENARIO_VERSION,
        "field": env.algebra.field.p,
        "corner": list(data["corner"]),
        "bounds": {"dim": env.dim_bound, "heart": env.heart_bound},
        "commands": reports,
        "ok": failed == 0,
    }
    if not args.no_timing:
        document["seconds"] = round(time.perf_counter() - start, 3)
    json.dump(document, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")

    if not args.json_only:
        for r in reports:
            label = r["op"] if "pair" not in r else f"{r['op']} {r['pair']}"
            verdict = "ok" if r.get("ok", True) else "FAIL"
            print(f"{label}: {verdict}", file=sys.stderr)
        summary = (f"{len(reports)} commands, all passed" if failed == 0
                   else f"{failed} of {len(reports)} commands failed")
        print(summary, file=sys.stderr)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
