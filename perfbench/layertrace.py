"""Outside-in layer tracer.

The tracer wraps the public functions of each quivertilt layer module,
plus a fixed list of methods, from the benchmark's own files; the
library itself is not edited.  Every wrapped call is a span: its name,
start, end, parent span and the certificate the benchmark was running
when it started.  Self time is a span's duration minus the time its
child spans cover; it is accumulated per layer while the run goes, so
the totals are exact even when the stored span list is capped.

A wrapped function is patched in every public name of every loaded,
non-private quivertilt module that is bound to it, so calls through
`from .x import f` bindings are seen too.  A name the table expects but
the library no longer has is reported as missing, never as an error.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time

# Layer modules in stack order, kernels first.  The layer of a span is
# the module that defines the wrapped function.
LAYERS = ("kernels", "linalg", "algebras", "modules", "enumeration",
          "torsion", "giraud", "complexes", "derived", "heart",
          "tiltbridge", "cli")

# kernels re-exports its backend's functions, so they are named here;
# every other layer has all its public module-level functions wrapped.
KERNEL_FUNCTIONS = ("mat_mul", "rref")

METHODS = {
    "linalg": ("Mat.__init__", "Mat.__matmul__", "Mat.__add__",
               "Mat.__sub__", "Mat.transpose", "Mat.hstack",
               "Mat.vstack", "Mat.apply", "Subspace.__init__",
               "Subspace.reduce", "Subspace.coords", "Subspace.intersect",
               "Subspace.sum_with", "Subspace.contains_space"),
    "algebras": ("Algebra.__eq__", "Algebra.mul_vecs",
                 "Algebra.left_mult_mat"),
    "modules": ("Module.__init__", "Module.__eq__", "ModuleMap.__init__",
                "ModuleMap.compose"),
    "enumeration": ("ModuleUniverse.build", "ModuleUniverse.signature"),
    "torsion": ("TorsionPair.decompose",),
    "giraud": ("CornerFunctor.apply", "HomSectionFunctor.apply",
               "TensorSectionFunctor.apply", "GiraudContext.unit",
               "GiraudContext.counit", "CoGiraudContext.unit",
               "CoGiraudContext.counit"),
    "complexes": ("Complex.__init__", "Complex.__eq__", "ChainMap.__init__",
                  "ChainMap.__eq__", "ChainMap.compose"),
    "derived": ("DerivedMorphism.compose", "DerivedHom.class_coords"),
    "heart": ("InducedTStructure.in_le", "InducedTStructure.in_ge"),
}

# Public functions left unwrapped: each only delegates to a wrapped one
# (hom_basis, derived_hom0, cohomology_data), and spans cost about a
# microsecond each.  Equality of Mat and ModuleMap is likewise left to
# the Algebra, Module and Complex equalities that call it.
UNWRAPPED = {("modules", "hom_dim"), ("derived", "derived_hom_dim"),
             ("complexes", "cohomology")}


def _one(args, out):
    return 1


def _mat_mul_ops(args, out):
    _, m, n, k = args[:4]
    return m * n * k


def _rref_ops(args, out):
    _, rows, cols = args[:3]
    return rows * cols * len(out[1])


# counter -> ((layer, target, amount), ...).  A counter is missing only
# when none of its targets exists.
COUNTERS = {
    "kernels.mat_mul.calls": (("kernels", "mat_mul", _one),),
    "kernels.rref.calls": (("kernels", "rref", _one),),
    # Multiply-adds computed from the shapes: m*n*k for a product,
    # rows*cols*rank for a Gauss-Jordan reduction.
    "kernels.ops": (("kernels", "mat_mul", _mat_mul_ops),
                    ("kernels", "rref", _rref_ops)),
    "linalg.mat_new": (("linalg", "Mat.__init__", _one),),
    "linalg.solve.calls": (("linalg", "solve", _one),),
    "linalg.rref.calls": (("linalg", "rref", _one),),
    "algebras.eq.calls": (("algebras", "Algebra.__eq__", _one),),
    "modules.eq.calls": (("modules", "Module.__eq__", _one),),
    "complexes.eq.calls": (("complexes", "Complex.__eq__", _one),),
    "modules.hom_basis.calls": (("modules", "hom_basis", _one),),
    "modules.ext1.calls": (("modules", "ext1_basis", _one),),
    "enumeration.submodules.calls": (
        ("enumeration", "enumerate_submodules", _one),),
    "torsion.candidates": (("torsion", "pair_from_torsion_indecs", _one),),
    "torsion.certify.calls": (("torsion", "is_torsion_pair", _one),),
    "torsion.ext_middles.calls": (
        ("torsion", "all_extension_middles", _one),),
    "giraud.push.calls": (("giraud", "push_pair", _one),
                          ("giraud", "co_push_pair", _one)),
    "giraud.hat.calls": (("giraud", "hat_pair", _one),
                         ("giraud", "co_hat_pair", _one)),
    "derived.hom.calls": (("derived", "derived_hom0", _one),),
    # chain_map_space runs only when derived_hom0 misses its cache.
    "derived.solves": (("derived", "chain_map_space", _one),),
    "heart.truncate.calls": (("heart", "truncate_le0", _one),
                             ("heart", "truncate_ge1", _one)),
    "heart.report.calls": (("heart", "t_structure_report", _one),
                           ("heart", "tilted_pair_report", _one)),
    "tiltbridge.verify.calls": (
        ("tiltbridge", "verify_heart_giraud", _one),
        ("tiltbridge", "verify_heart_cogiraud", _one),
        ("tiltbridge", "verify_heart_quotient", _one)),
    "cli.commands": (("cli", "run_commands", lambda args, out: len(out)),),
}

SELF_TIME_LAYERS = ("kernels", "linalg", "algebras", "complexes", "modules",
                    "enumeration", "torsion", "derived", "heart",
                    "tiltbridge", "cli")
INCLUSIVE_LAYERS = ("torsion", "giraud", "tiltbridge")

SPAN_CAP = 50_000


def _is_public_function(obj, modname: str) -> bool:
    if inspect.isclass(obj) or not callable(obj):
        return False
    if getattr(obj, "__module__", None) != modname:
        return False
    # lru_cache wrappers are not plain functions but expose cache_info.
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Spans and counters around the layer functions of quivertilt."""

    def __init__(self):
        self.counts = {name: 0 for name in COUNTERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.self_s["bench"] = 0.0
        self.incl_s = {layer: 0.0 for layer in LAYERS}
        self.spans: list[tuple[str, int, float, float, int, object]] = []
        self.dropped = 0
        self.total_s = 0.0
        self.cert: object = None
        self.missing: list[str] = []
        self.present_counters: set[str] = set()
        self.present_layers: set[str] = set()
        self._active = {layer: 0 for layer in LAYERS}
        # Frames are [child_time, span_id]; the root frame is the run.
        self._stack: list[list] = [[0.0, 0]]
        self._ids = itertools.count(1)

    # -- installation --

    def install(self) -> None:
        """Wrap every target in the tables; record the absent ones."""
        hooks: dict[tuple[str, str], list] = {}
        for counter, targets in COUNTERS.items():
            for layer, target, amount in targets:
                hooks.setdefault((layer, target), []).append((counter, amount))

        replaced: dict[int, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"quivertilt.{layer}")
            except ImportError:
                self.missing.append(f"quivertilt.{layer}")
                continue
            names = (KERNEL_FUNCTIONS if layer == "kernels" else
                     [n for n, v in sorted(vars(mod).items())
                      if not n.startswith("_")
                      and (layer, n) not in UNWRAPPED
                      and _is_public_function(v, mod.__name__)])
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                hook = hooks.pop((layer, name), ())
                replaced[id(fn)] = (fn, self._wrap(fn, layer, name, hook))
                self.present_layers.add(layer)
                self.present_counters.update(c for c, _ in hook)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(meth) if inspect.isclass(cls) else None
                if raw is None:
                    continue
                hook = hooks.pop((layer, qual), ())
                setattr(cls, meth, self._wrap_attr(raw, layer, qual, hook))
                self.present_layers.add(layer)
                self.present_counters.update(c for c, _ in hook)
        self.missing.extend(f"quivertilt.{layer}:{target}"
                            for layer, target in hooks)

        for modname, mod in list(sys.modules.items()):
            if not (modname == "quivertilt" or modname.startswith("quivertilt.")):
                continue
            if any(part.startswith("_") for part in modname.split(".")):
                continue
            for name, value in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])

    def _wrap_attr(self, raw, layer: str, name: str, hook):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, layer, name, hook))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, layer, name, hook))
        return self._wrap(raw, layer, name, hook)

    def _wrap(self, fn, layer: str, name: str, hook):
        perf = time.perf_counter
        stack = self._stack
        active = self._active
        self_s = self.self_s
        incl_s = self.incl_s
        counts = self.counts
        spans = self.spans
        span_name = f"{layer}.{name}"
        ids = self._ids
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            frame = [0.0, sid]
            stack.append(frame)
            active[layer] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                self_s[layer] += d - frame[0]
                parent[0] += d
                active[layer] -= 1
                if not active[layer]:
                    incl_s[layer] += d
                if len(spans) < SPAN_CAP:
                    spans.append((span_name, sid, t0, t1, parent[1], tracer.cert))
                else:
                    tracer.dropped += 1
            for counter, amount in hook:
                counts[counter] += amount(args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- the run --

    def mark(self, cert) -> None:
        """Name the certificate that the following spans belong to."""
        self.cert = cert

    def run(self, body):
        """Run body() as the root span; its self time is layer 'bench'."""
        t0 = time.perf_counter()
        try:
            return body()
        finally:
            total = time.perf_counter() - t0
            self.self_s["bench"] += total - self._stack[0][0]
            self.total_s = total

    # -- results --

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values by metric name; missing ones are left out."""
        out: dict[str, float] = {}
        for counter in COUNTERS:
            if counter in self.present_counters:
                out[counter] = self.counts[counter]
        for layer in SELF_TIME_LAYERS:
            if layer in self.present_layers:
                out[f"{layer}.self_s"] = self.self_s[layer]
        for layer in INCLUSIVE_LAYERS:
            if layer in self.present_layers:
                out[f"{layer}.incl_s"] = self.incl_s[layer]
        if "derived.hom.calls" in out and "derived.solves" in out:
            calls = out["derived.hom.calls"]
            out["derived.solve_ratio"] = (out["derived.solves"] / calls
                                          if calls else 0.0)
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "id": i, "start": a, "end": b, "parent": p,
                 "cert": c} for n, i, a, b, p, c in self.spans]
