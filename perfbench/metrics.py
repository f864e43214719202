"""Which end-to-end metric, on which workload, each metric should move.

BENCHMARK.json holds the names, units and directions of the metrics and
run.py reads them from there; its entries have no room for this note.
Each per-layer metric is mapped to the workloads on which a change to
its layer should move wall_s most; where the trace also finds it
nonzero elsewhere, the note says so.

End-to-end metrics, each the median over one run; the two times are
rescaled to the fixed machine speed of speed.py (see run.py):

* ``wall_s``: time from fixtures ready to the verified result, per cold
  repetition;
* ``setup_s``: importing quivertilt plus building algebra, corner,
  universes and sample, per cold process;
* ``peak_rss_mib``: peak resident memory of a repetition's process.
"""

from __future__ import annotations

_T = "wall_s on transport_a3"
_S = "wall_s on scenario_a2"
_X = "wall_s on tstructure_a2"
_D = "wall_s on derived_f3"
# Matrix work is most of transport_a3 (small F_2 matrices) and of
# derived_f3 (fresh F_3 solves); the other two run it too.
_MATRIX = "wall_s on transport_a3, derived_f3; less on scenario_a2, " \
          "tstructure_a2"
_F2 = "wall_s on transport_a3, scenario_a2, tstructure_a2 (over F_2)"
# Derived-layer reuse: cache hits and the equality tests they cost.
_REUSE = _X + "; less on scenario_a2, derived_f3"
_TORSION = "wall_s on transport_a3, scenario_a2; no other workload"
_DERIVED = "wall_s on derived_f3, tstructure_a2; less on scenario_a2"
_HEART = "wall_s on tstructure_a2, scenario_a2"

SHOULD_MOVE = {
    "kernels.mat_mul.calls": _MATRIX,
    "kernels.rref.calls": _MATRIX,
    "kernels.ops": _MATRIX,
    "kernels.self_s": _MATRIX,
    "linalg.mat_new": _MATRIX,
    "linalg.solve.calls": _MATRIX,
    "linalg.rref.calls": _MATRIX,
    "linalg.self_s": _MATRIX,
    "linalg.probe.matmul_ops_per_s.f2": _F2,
    "linalg.probe.matmul_ops_per_s.f3": _D,
    "linalg.probe.rref_ops_per_s.f2": _F2,
    "linalg.probe.rref_ops_per_s.f3": _D,
    "algebras.eq.calls": _REUSE,
    "algebras.self_s": _REUSE,
    "modules.eq.calls": _REUSE,
    "complexes.eq.calls": _X + "; less on scenario_a2",
    "complexes.self_s": _X + "; less on scenario_a2",
    "modules.hom_basis.calls": _T + "; less on the others",
    "modules.ext1.calls": _T + "; less on scenario_a2",
    "modules.self_s": _T + "; less on the others",
    "enumeration.submodules.calls": _T + "; less on scenario_a2",
    "enumeration.self_s": _T + "; less on scenario_a2",
    "torsion.candidates": _TORSION,
    "torsion.certify.calls": _TORSION,
    "torsion.ext_middles.calls": _TORSION,
    "torsion.incl_s": _TORSION,
    "torsion.self_s": _TORSION,
    "giraud.push.calls": _T + "; less on scenario_a2",
    "giraud.hat.calls": _T + "; less on scenario_a2",
    "giraud.incl_s": _T + "; less on scenario_a2",
    "derived.hom.calls": _DERIVED,
    "derived.solves": _DERIVED,
    "derived.solve_ratio": _DERIVED + " (near 1 on derived_f3, small on "
                                      "tstructure_a2)",
    "derived.self_s": _DERIVED,
    "heart.truncate.calls": _HEART,
    "heart.report.calls": _HEART,
    "heart.self_s": _HEART,
    "tiltbridge.verify.calls": _S,
    "tiltbridge.incl_s": _S,
    "tiltbridge.self_s": _S,
    "cli.commands": _S,
    "cli.self_s": _S,
}
