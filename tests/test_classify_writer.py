"""Identity gate of the classify writer.

``classify`` writes its CSV and JSON from the survey's columns.  The oracle
here is the per-point writer it replaced: records built from
``report.points``, CSV cells by the old per-cell rule and JSON by
``json.dumps(payload, sort_keys=True, indent=1)``.  Both must give the same
bytes for every shipped hypersurface scene, the generated benchmark copies
and grids with point errors or transitions.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import pseudoconformal.cli
from pseudoconformal.cli import _build_object, _resolve_grid, load_scene, main
from pseudoconformal.hypersurface import survey

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import workloads
    from compare_outputs import ERROR_SCENES
finally:
    del sys.path[:2]


def _cell(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    if isinstance(cell, int):
        return str(int(cell))
    return str(cell)


def oracle(scene_path, fmt) -> str:
    """The classify output of a scene by the per-point writer."""
    scene = load_scene(str(scene_path))
    imm, counts = _resolve_grid(scene, _build_object(scene))
    return report_oracle(survey(imm, counts, tol=scene.tolerances.get("lightlike")), imm, fmt)


def report_oracle(report, imm, fmt) -> str:
    """The classify output of the survey report of imm by the per-point writer."""
    if fmt == "csv":
        header = [f"u{i}" for i in range(1, imm.params + 1)] + [
            "type", "plus", "minus", "zero", "min_eig_ratio"]
        rows = [list(p.u) + [p.causal.kind, p.causal.plus, p.causal.minus, p.causal.zero,
                             p.causal.min_eig_ratio] for p in report.points]
        return "\n".join([",".join(header)] + [",".join(map(_cell, r)) for r in rows]) + "\n"
    payload = {
        "builtin": imm.name,
        "n": imm.n,
        "counts": report.counts,
        "pure": report.pure,
        "transitions": [{"axis": t.axis, "index_low": list(t.index_low), "u_low": list(t.u_low),
                         "u_high": list(t.u_high), "kinds": list(t.kinds)}
                        for t in report.transitions],
        "points": [{"u": list(p.u), "type": p.causal.kind, "inertia": list(p.causal.as_tuple()),
                    "min_eig_ratio": p.causal.min_eig_ratio} for p in report.points],
        "errors": [{"index": list(i), "message": m} for i, m in report.errors],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def written(tmp_path, scene_path, fmt) -> str:
    out = tmp_path / f"out.{fmt}"
    assert main(["classify", "--scene", str(scene_path), "--out", str(out), "--format", fmt]) == 0
    return out.read_text()


def assert_same(text, expected):
    """text == expected, naming the first differing line; pytest's own diff of
    texts this long would take minutes."""
    same = text == expected
    got, want = text.splitlines(), expected.splitlines()
    line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert same, (f"line {line + 1}: {got[line:line + 1]} != {want[line:line + 1]} "
                  f"({len(got)} vs {len(want)} lines)")


def hypersurface_scenes():
    return [p.name for p in sorted((ROOT / "scenes").glob("*.json"))
            if json.loads(p.read_text())["kind"] == "hypersurface"]


#: a grid of the round sphere across both tangency latitudes
MIXED = {"kind": "hypersurface", "builtin": "euclidean_sphere", "n": 3, "grid": [9, 4]}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return workloads.generate("classify", 3, str(tmp_path_factory.mktemp("classify")))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", hypersurface_scenes())
def test_shipped_scenes(tmp_path, capsys, name, fmt):
    path = ROOT / "scenes" / name
    assert_same(written(tmp_path, path, fmt), oracle(path, fmt))


@pytest.mark.parametrize("copy", range(workloads.VARIANTS))
def test_generated_copies(tmp_path, capsys, generated, copy):
    assert generated[copy]
    for scene in generated[copy]:
        assert_same(written(tmp_path, scene.path, scene.slot.fmt),
                    oracle(scene.path, scene.slot.fmt))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["failing_point", "all_failing", "mixed"])
def test_error_and_transition_grids(tmp_path, capsys, name, fmt):
    doc = ERROR_SCENES.get(name, MIXED)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    text = written(tmp_path, path, fmt)
    assert_same(text, oracle(path, fmt))
    if fmt == "json":
        data = json.loads(text)
        assert len(data["points"]) == sum(data["counts"].values())
        if name == "failing_point":
            assert [e["index"] for e in data["errors"]] == [[2, 0]]
            assert len(data["points"]) == 8
        elif name == "all_failing":
            assert len(data["errors"]) == 6
            assert '\n "points": [],\n' in text
        else:
            assert data["transitions"] and not data["errors"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ratio_column_keeps_the_per_cell_rule(tmp_path, capsys, monkeypatch, fmt):
    # ratios that repeat and include 0.0, -0.0, a subnormal and 1.0, written
    # once per distinct bit pattern, give each cell the bytes of its own repr
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(MIXED))
    scene = load_scene(str(path))
    imm, counts = _resolve_grid(scene, _build_object(scene))
    report = survey(imm, counts)
    ratios = np.resize([0.0, -0.0, 5e-324, 1.0, 0.1, 1.0, -0.0, 5e-324, 1 / 3, 0.0],
                       len(report.min_eig_ratio))
    forged = dataclasses.replace(report, min_eig_ratio=ratios)
    monkeypatch.setattr(pseudoconformal.cli, "survey", lambda *args, **kwargs: forged)
    text = written(tmp_path, path, fmt)
    assert_same(text, report_oracle(forged, imm, fmt))
    for cell in ("0.0", "-0.0", "5e-324", "1.0"):
        assert f",{cell}\n" in text if fmt == "csv" else f'"min_eig_ratio": {cell},' in text
