"""Scenario runner: exit codes, report shape, and determinism.

The bundled A2 scenario exercises every command and must pass in full;
a flipped pair fails validation with a hom-orthogonality witness and
exit status 1; malformed input and unresolved names exit with status 2
without producing a report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import quivertilt
from quivertilt.cli import main

BUNDLED = str(files("quivertilt").joinpath("scenarios/a2_full.json"))
# The --no-timing --json-only report of the bundled scenario at its own
# bounds, byte for byte; a change to any field must update it on purpose.
GOLDEN = Path(__file__).resolve().parent / "golden" / "a2_full.json"
# The same report with the dimension bound overridden to 3, which pins
# the order of the 13 heart objects in the reconstruct hom_table.
GOLDEN_BOUND3 = GOLDEN.with_name("a2_full_bound3.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_scenario():
    return {
        "version": 1,
        "field": 2,
        "quiver": {"vertices": [1, 2], "arrows": [[1, 2]]},
        "corner": [2],
        "bounds": {"dim": 2, "depth": 3},
        "modules": {
            "S1": {"dims": [1, 0], "arrows": [[]]},
            "S2": {"dims": [0, 1], "arrows": [[]]},
            "P1": {"dims": [1, 1], "arrows": [[[1]]]},
        },
        "pairs": {"std": {"torsion": ["S1"], "free": ["S2", "P1"]}},
        "commands": [],
    }


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_bundled_scenario_passes(capsys):
    code, out, err = run_cli(capsys, BUNDLED, "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert len(doc["commands"]) == 17
    assert doc["bounds"] == {"dim": 2, "heart": 3}
    by_op = {}
    for r in doc["commands"]:
        by_op.setdefault(r["op"], r)
    assert by_op["heart-hom"]["dim"] == 1
    assert by_op["verify-tt11"]["matching"] == [[2, 0], [4, 1]]
    assert by_op["reconstruct"]["membership"] == [True, False, True,
                                                  False, False, True, False]
    assert "17 commands, all passed" in err


def test_bundled_report_matches_golden(capsys):
    code, out, _ = run_cli(capsys, BUNDLED, "--no-timing", "--json-only")
    assert code == 0
    assert out == GOLDEN.read_text(encoding="utf-8")


def test_bundled_report_at_bound3_matches_golden(capsys):
    code, out, _ = run_cli(capsys, BUNDLED, "--bound", "3", "--no-timing",
                           "--json-only")
    assert code == 0
    assert out == GOLDEN_BOUND3.read_text(encoding="utf-8")


def test_bundled_report_matches_golden_without_asserts():
    # Under -O every assert is stripped, so the report must not depend
    # on one.
    src = str(Path(quivertilt.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "quivertilt.cli", BUNDLED,
         "--no-timing", "--json-only"],
        capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == GOLDEN.read_bytes()


def test_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, BUNDLED, "--no-timing", "--json-only")
    _, second, _ = run_cli(capsys, BUNDLED, "--no-timing", "--json-only")
    assert first == second


def test_json_only_suppresses_summary(capsys):
    code, out, err = run_cli(capsys, BUNDLED, "--no-timing", "--json-only")
    assert code == 0
    assert err == ""
    assert json.loads(out)["ok"]


def test_flipped_pair_fails_with_witness(capsys, tmp_path):
    data = base_scenario()
    data["pairs"]["flipped"] = {"torsion": ["S2", "P1"], "free": ["S1"]}
    data["commands"] = [{"op": "validate-pair", "pair": "flipped"}]
    code, out, _ = run_cli(capsys, write_scenario(tmp_path, data),
                           "--no-timing")
    assert code == 1
    doc = json.loads(out)
    assert not doc["ok"]
    report = doc["commands"][0]
    assert not report["ok"]
    assert any("hom-orthogonality" in f for f in report["failures"])


def test_incompatible_pair_fails_verification(capsys, tmp_path):
    data = base_scenario()
    data["pairs"]["wide"] = {"torsion": ["S1", "P1"], "free": ["S2"]}
    data["commands"] = [{"op": "verify-adjhearts", "pair": "wide"}]
    code, out, _ = run_cli(capsys, write_scenario(tmp_path, data),
                           "--no-timing")
    assert code == 1
    doc = json.loads(out)
    assert "not closed" in doc["commands"][0]["failures"][0]


def test_empty_command_list(capsys, tmp_path):
    code, out, _ = run_cli(capsys, write_scenario(tmp_path, base_scenario()),
                           "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert doc["commands"] == []


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,', encoding="utf-8")
    code, out, err = run_cli(capsys, str(path))
    assert code == 2
    assert out == ""
    assert "parse error at line" in err


def _command(cmd):
    return lambda data: data["commands"].append(cmd)


@pytest.mark.parametrize("patch", [
    pytest.param(lambda data: data.update(bounds=[3]), id="bounds-list"),
    pytest.param(lambda data: data.update(modules=[1]), id="modules-list"),
    pytest.param(lambda data: data.update(pairs=[1]), id="pairs-list"),
    pytest.param(lambda data: data.update(corner=3), id="corner-int"),
    # Corner labels match quiver vertices by type as well as value.
    pytest.param(lambda data: data.update(corner=[True]), id="corner-true"),
    pytest.param(lambda data: data.update(corner=[2.0]), id="corner-float"),
    pytest.param(_command({"op": "t-cohomology", "pair": "std",
                           "complex": {"module": "P1"}, "degrees": 3}),
                 id="degrees-int"),
    pytest.param(lambda data: data["modules"]["S1"].update(arrows=5),
                 id="arrows-int"),
    pytest.param(lambda data: data["modules"]["P1"].update(
        arrows=[[[1], [1]]]), id="arrow-block-shape"),
    pytest.param(lambda data: data["pairs"]["std"].update(torsion=5),
                 id="torsion-int"),
    pytest.param(_command({"op": "validate-pair", "pair": ["std"]}),
                 id="pair-name-list"),
    pytest.param(_command({"op": ["validate-pair"]}), id="op-list"),
    # JSON true and false load as Python bools, which are ints, and a
    # float or a string could be cast to one: each is malformed where an
    # integer is expected.
    pytest.param(lambda data: data.update(version=True), id="version-true"),
    pytest.param(lambda data: data.update(field=2.0), id="field-float"),
    pytest.param(lambda data: data["bounds"].update(dim=True),
                 id="bounds-dim-true"),
    pytest.param(lambda data: data["bounds"].update(depth=True),
                 id="bounds-depth-true"),
    pytest.param(lambda data: data["modules"]["S1"].update(dims=[True, True]),
                 id="dims-true"),
    pytest.param(lambda data: data["modules"]["P1"].update(arrows=[[["1"]]]),
                 id="arrow-entry-string"),
    pytest.param(lambda data: data["modules"]["P1"].update(arrows=[[[1.7]]]),
                 id="arrow-entry-float"),
    pytest.param(_command({"op": "truncate", "pair": "std",
                           "complex": {"module": "P1", "shift": True}}),
                 id="shift-true"),
    pytest.param(_command({"op": "heart-kernel", "pair": "std",
                           "x": {"module": "S1"}, "index": False,
                           "y": {"module": "S2", "shift": 1}}),
                 id="index-false"),
    pytest.param(_command({"op": "t-cohomology", "pair": "std",
                           "complex": {"module": "P1"},
                           "degrees": [True, False]}), id="degrees-true"),
])
def test_malformed_shape_exits_2(capsys, tmp_path, patch):
    data = base_scenario()
    patch(data)
    code, out, err = run_cli(capsys, write_scenario(tmp_path, data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unresolved_pair_exits_2(capsys, tmp_path):
    data = base_scenario()
    data["commands"] = [{"op": "validate-pair", "pair": "nope"}]
    code, _, err = run_cli(capsys, write_scenario(tmp_path, data))
    assert code == 2
    assert "unresolved pair name" in err


def test_unknown_command_exits_2(capsys, tmp_path):
    data = base_scenario()
    data["commands"] = ["frobnicate"]
    code, _, err = run_cli(capsys, write_scenario(tmp_path, data))
    assert code == 2
    assert "unknown command" in err


def test_bound_override(capsys, tmp_path):
    data = base_scenario()
    data["commands"] = ["enumerate-modules"]
    code, out, _ = run_cli(capsys, write_scenario(tmp_path, data),
                           "--no-timing", "--bound", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"]["dim"] == 1
    parent = doc["commands"][0]["parent"]
    assert parent["members"] == 3
    assert len(parent["indecs"]) == 2


def test_timing_present_by_default(capsys, tmp_path):
    data = base_scenario()
    data["commands"] = ["enumerate-modules"]
    code, out, _ = run_cli(capsys, write_scenario(tmp_path, data),
                           "--json-only")
    assert code == 0
    doc = json.loads(out)
    assert "seconds" in doc
    assert "seconds" in doc["commands"][0]
