import ast
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pseudoconformal import catalog, cli
from pseudoconformal.cli import load_scene, main
from pseudoconformal.errors import GeometryError
from pseudoconformal.hypersurface import parameter_grid
from pseudoconformal.lightlike import lightlike_affinor

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"


def write_scene(tmp_path, doc, name="scene.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "pseudoconformal", *args],
        capture_output=True, text=True,
    )


BASE_SCENE = {
    "kind": "hypersurface",
    "builtin": "light_cone",
    "n": 3,
    "grid": [4, 4],
}


class TestSceneValidation:
    def test_unknown_top_level_key(self, tmp_path):
        doc = dict(BASE_SCENE, tolerance={"lightlike": 1e-6})
        with pytest.raises(Exception, match="unknown keys"):
            load_scene(write_scene(tmp_path, doc))

    def test_unknown_tolerance_key(self, tmp_path):
        doc = dict(BASE_SCENE, tolerances={"lightlik": 1e-6})
        with pytest.raises(Exception, match="unknown keys in tolerances"):
            load_scene(write_scene(tmp_path, doc))

    def test_unknown_builtin(self, tmp_path):
        doc = dict(BASE_SCENE, builtin="moebius_band")
        with pytest.raises(Exception, match="unknown builtin"):
            load_scene(write_scene(tmp_path, doc))

    def test_bad_kind(self, tmp_path):
        doc = dict(BASE_SCENE, kind="surface")
        with pytest.raises(Exception, match="kind"):
            load_scene(write_scene(tmp_path, doc))

    def test_small_n(self, tmp_path):
        doc = dict(BASE_SCENE, n=2)
        with pytest.raises(Exception, match="n must be"):
            load_scene(write_scene(tmp_path, doc))

    def test_points_scene_needs_points(self, tmp_path):
        doc = {"kind": "points", "n": 3}
        with pytest.raises(Exception, match="points"):
            load_scene(write_scene(tmp_path, doc))

    def test_stratify_only_for_congruences(self, tmp_path):
        doc = dict(BASE_SCENE, stratify={"seed": [0.0, 0.0]})
        with pytest.raises(Exception, match="stratify"):
            load_scene(write_scene(tmp_path, doc))


WAVEFRONT_SCENE = {"kind": "hypersurface", "builtin": "circle_wavefront", "n": 4,
                   "grid": [2, 2, 2]}

CONGRUENCE_SCENE = {
    "kind": "congruence",
    "builtin": "cone_normal_congruence",
    "n": 3,
    "grid": [3, 3],
}


#: a box of the cone congruence's domain: u1 in [-0.2, 0.2], u2 in [-0.5, 0.5]
SEED_BOX = {"axes": [{"start": -0.2, "stop": 0.2, "count": 3},
                     {"start": -0.5, "stop": 0.5, "count": 3}]}


class TestInvalidScenes:
    @pytest.mark.parametrize("command,doc", [
        ("classify", dict(BASE_SCENE, grid=[2.7, 3])),
        ("classify", dict(BASE_SCENE, grid=[True, 3])),
        ("classify", dict(BASE_SCENE, grid={"axes": [{"start": "a", "count": 3}, {}]})),
        ("classify", dict(BASE_SCENE, grid={"axes": [{"stop": math.inf}, {}]})),
        ("congruence", dict(CONGRUENCE_SCENE, stratify={"seed": [0.1]})),
        ("congruence", dict(CONGRUENCE_SCENE, stratify={"seed": [0.1, math.nan]})),
        ("congruence", dict(CONGRUENCE_SCENE, stratify={"seed": [0.1, 0.4], "step": -0.01})),
        ("congruence", dict(CONGRUENCE_SCENE, stratify={"seed": [0.1, 0.4], "count": 0})),
        ("congruence", dict(CONGRUENCE_SCENE, grid=SEED_BOX, stratify={"seed": [0.45, 0.9]})),
        ("embed", {"kind": "points", "n": 3, "points": [[math.nan, 0.0, 0.0]]}),
        ("embed", {"kind": "points", "n": 3, "points": [[0.0, 1.0, 0.0], [1e20, 0, 0]]}),
        ("lightlike", dict(WAVEFRONT_SCENE, params={"rho": "x"})),
        ("lightlike", dict(WAVEFRONT_SCENE, params={"rho": None})),
        ("lightlike", dict(WAVEFRONT_SCENE, params={"rho": True})),
        ("lightlike", dict(WAVEFRONT_SCENE, params={"rho": math.inf})),
        ("congruence", {"kind": "congruence", "builtin": "twisted_congruence", "n": 4,
                        "grid": [2, 2, 2], "params": {"rate": "q"}}),
        ("classify", dict(BASE_SCENE, tolerances={"lightlike": "x"})),
        ("lightlike", dict(BASE_SCENE, tolerances={"symmetry": "x"})),
        ("congruence", dict(CONGRUENCE_SCENE, tolerances={"integrability": "x"})),
        ("classify", dict(BASE_SCENE, tolerances={"lightlike": math.nan})),
        ("lightlike", dict(BASE_SCENE, tolerances={"symmetry": -1})),
        ("congruence", dict(CONGRUENCE_SCENE, tolerances={"integrability": 0})),
        ("classify", dict(BASE_SCENE, tolerances={"lightlike": False})),
        ("classify", dict(BASE_SCENE, output={"path": True})),
        ("classify", dict(BASE_SCENE, output={"path": 7})),
        ("classify", dict(BASE_SCENE, output={"path": ["a"]})),
        ("classify", dict(BASE_SCENE, output={"path": ""})),
        ("classify", dict(BASE_SCENE, output={"path": None})),
        ("classify", dict(BASE_SCENE, grid={"axes": 5})),
        ("lightlike", dict(BASE_SCENE, builtin=["light_cone"])),
        ("classify", dict(BASE_SCENE, tolerances=[])),
        ("classify", dict(BASE_SCENE, output=[])),
        ("classify", dict(BASE_SCENE, n=70, grid=None)),
        ("lightlike", dict(BASE_SCENE, n=3000, grid=None)),
        ("classify", dict(BASE_SCENE, n=70, grid=[2] * 69)),
        ("congruence", {"kind": "congruence", "builtin": "light_cone"}),
        ("embed", {"kind": "points", "points": [[0.0, 1.0, 0.0]]}),
        ("classify", dict(BASE_SCENE, params=[1])),
        ("classify", dict(BASE_SCENE, output={"format": "xml"})),
        ("classify", dict(BASE_SCENE, grid={"axes": [{"count": 3}]})),
        ("classify", dict(BASE_SCENE, grid=[3])),
    ], ids=["fractional-count", "boolean-count", "text-start", "infinite-stop",
            "short-seed", "nan-seed", "negative-step", "zero-count", "seed-outside-domain",
            "nan-point", "far-point",
            "text-param", "null-param", "boolean-param", "infinite-param", "text-rate",
            "text-lightlike", "text-symmetry", "text-integrability", "nan-lightlike",
            "negative-symmetry", "zero-integrability", "boolean-lightlike", "boolean-path",
            "integer-path", "list-path", "empty-path", "null-path", "scalar-axes",
            "list-builtin", "list-tolerances", "list-output", "default-grid-69-axes",
            "default-grid-2999-axes", "grid-69-axes", "builtin-of-another-kind",
            "points-without-n", "list-params", "xml-format", "one-axis-object",
            "one-axis-count"])
    def test_exits_2_without_output(self, tmp_path, capfd, command, doc):
        # with --out and with the scene's own output path: nothing is
        # written, not even to a file descriptor that a non-string path names.
        # A grid beyond numpy's index range (the *-axes ids) is named before
        # numpy raises a ValueError on it
        path = write_scene(tmp_path, doc)
        out = tmp_path / "o.csv"
        for flags in (["--out", str(out)], []):
            assert main([command, "--scene", path] + flags) == 2
            stdout, err = capfd.readouterr()
            assert stdout == "" and "scene error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,doc,message", [
        ("congruence", {"kind": "congruence", "builtin": "light_cone"},
         "builtin 'light_cone' is not a congruence"),
        ("embed", {"kind": "points", "points": [[0.0, 1.0, 0.0]]},
         "a points scene must set n explicitly"),
        ("classify", dict(BASE_SCENE, params=[1]), "params must be an object"),
        ("classify", dict(BASE_SCENE, output={"format": "xml"}),
         "output format must be 'csv' or 'json'"),
        ("classify", dict(BASE_SCENE, grid={"axes": [{"count": 3}]}), "grid needs 2 axes"),
        ("classify", dict(BASE_SCENE, grid=[3]), "grid needs 2 axis counts"),
    ], ids=["builtin-of-another-kind", "points-without-n", "list-params", "xml-format",
            "one-axis-object", "one-axis-count"])
    def test_exit_2_names_the_fault(self, tmp_path, capfd, command, doc, message):
        assert main([command, "--scene", write_scene(tmp_path, doc)]) == 2
        assert capfd.readouterr() == ("", f"scene error ({command}): {message}\n")

    @pytest.mark.parametrize("raw", [b'{"kind": "\xff"}', b"[" * 10**5 + b"]" * 10**5],
                             ids=["not-utf8", "deep-nesting"])
    def test_unreadable_json_exits_2(self, tmp_path, capfd, raw):
        path = tmp_path / "scene.json"
        path.write_bytes(raw)
        assert main(["classify", "--scene", str(path)]) == 2
        stdout, err = capfd.readouterr()
        assert stdout == "" and "Traceback" not in err
        assert err.startswith("scene error (classify): scene file is not valid JSON: ")

    @pytest.mark.parametrize("doc,message", [
        (dict(BASE_SCENE, grid={"axes": 5}), "grid axes must be an array"),
        (dict(BASE_SCENE, builtin=["light_cone"]),
         "unknown builtin ['light_cone']; run the 'examples' subcommand"),
    ], ids=["scalar-axes", "list-builtin"])
    def test_malformed_values_are_named(self, tmp_path, doc, message):
        with pytest.raises(cli.SceneError) as info:
            load_scene(write_scene(tmp_path, doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("far", [[1e20, 0, 0], [1e200, 0, 0], [1e155, 0, 1e155]],
                             ids=["ideal", "overflow", "inf-minus-inf"])
    def test_far_point_is_named(self, tmp_path, capsys, far):
        # an image with x^0 ~ 2e-40 is ideal; a square beyond the largest
        # float makes it inf, or NaN from inf - inf; none maps back
        doc = {"kind": "points", "n": 3, "points": [[0.0, 1.0, 0.0], far]}
        assert main(["embed", "--scene", write_scene(tmp_path, doc)]) == 2
        assert capsys.readouterr() == ("", f"scene error (embed): point {far!r} is too far out "
                                           "to map back from the quadric\n")

    @pytest.mark.parametrize("command,doc,engine", [
        ("embed", {"kind": "points", "n": 3, "points": [[0.0, 1.0, 0.0]]}, "lift_point"),
        ("classify", BASE_SCENE, "survey"),
        ("lightlike", WAVEFRONT_SCENE, "_affinors"),
        ("congruence", CONGRUENCE_SCENE, "_congruence_affinors"),
    ])
    def test_out_of_memory_is_a_scene_error(self, tmp_path, capfd, monkeypatch, command, doc,
                                            engine):
        # a grid too large for memory, without allocating one: the engine
        # raises as numpy's allocator does
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.91 TiB for an array")

        monkeypatch.setattr(cli, engine, exhausted)
        out = tmp_path / "o.csv"
        assert main([command, "--scene", write_scene(tmp_path, doc), "--out", str(out)]) == 2
        assert capfd.readouterr() == ("", f"scene error ({command}): out of memory (Unable to "
                                          "allocate 2.91 TiB for an array)\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed,code", [
        ([0.45, 0.9], 2), ([0.2 + 2e-9, 0.0], 2), ([-0.2, -0.5 - 2e-9], 2),
        ([0.2 + 5e-10, 0.0], 0), ([-0.2, -0.5], 0)])
    def test_seed_outside_the_domain(self, tmp_path, capsys, monkeypatch, seed, code):
        # named before the grid is evaluated; a seed within the march's
        # 1e-9 slack of the domain's boundary is inside
        passes = []
        engine = cli._congruence_affinors
        monkeypatch.setattr(cli, "_congruence_affinors",
                            lambda *args: passes.append(args) or engine(*args))
        doc = dict(CONGRUENCE_SCENE, grid=SEED_BOX, stratify={"seed": seed, "count": 3})
        out = tmp_path / "o.csv"
        assert main(["congruence", "--scene", write_scene(tmp_path, doc), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert len(passes) == (code == 0) and out.exists() == (code == 0)
        if code == 2:
            assert err == (f"scene error (congruence): stratify seed {seed} lies outside the "
                           "domain [[-0.2, 0.2], [-0.5, 0.5]]\n")

    def test_congruence_beyond_the_root_order_limit(self, tmp_path, capsys):
        # rejected before the grid's 2**14 lines are evaluated
        doc = {"kind": "congruence", "builtin": "parallel_null_congruence", "n": 15,
               "grid": [2] * 14}
        out = tmp_path / "o.csv"
        assert main(["congruence", "--scene", write_scene(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("scene error (congruence): congruence scenes are "
                                           "limited to n <= 14, got n=15\n")
        assert not out.exists()

    def test_output_in_missing_directory(self, tmp_path, capsys):
        path = write_scene(tmp_path, BASE_SCENE)
        out = tmp_path / "missing" / "o.csv"
        assert main(["classify", "--scene", path, "--out", str(out)]) == 2
        assert "cannot write output file" in capsys.readouterr().err

    def test_unwritable_leaf_side_file(self, tmp_path, capsys):
        doc = dict(CONGRUENCE_SCENE, stratify={"seed": [0.1, 0.4], "count": 3})
        path = write_scene(tmp_path, doc)
        out = tmp_path / "o.csv"
        (tmp_path / "o.csv.leaf.csv").mkdir()
        assert main(["congruence", "--scene", path, "--out", str(out)]) == 2
        assert "cannot write output file" in capsys.readouterr().err


#: the commands that read each scene kind
COMMANDS = {"points": ["embed"], "hypersurface": ["classify", "lightlike"],
            "congruence": ["congruence"]}
#: what a mutation scales a number by, and what it puts in place of a value:
#: ill-typed or non-finite
FACTORS = [-1, 0, 0.5, 2, 1000]
ILL_VALUES = [None, True, "x", [], {}, [0.5], math.nan, math.inf, -math.inf, -1, 0, 2.5]


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _capped(doc):
    """The caps that keep an example within tier-1's time: at most 8 points
    per grid axis and 8 leaf steps each way, and at most 4 axes on a grid
    that is absent or null (8 points per axis over n - 1 axes)."""
    grid, strat = doc.get("grid"), doc.get("stratify")
    if isinstance(grid, list):
        doc["grid"] = [min(c, 8) if type(c) in (int, float) else c for c in grid]
    if isinstance(strat, dict) and type(strat.get("count")) is int:
        strat["count"] = min(strat["count"], 8)
    if grid is None and type(doc.get("n")) is int:
        assume(doc["n"] <= 5)
    return doc


class TestMutatedScenes:
    """The exit-code contract on shipped scenes with up to 3 mutations: exit
    0, 2 or 3, nothing raised or warned (warnings are errors here), no data
    on stdout, one line on stderr, and no file written by a run that fails."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_contract(self, capfd, data):
        path = data.draw(st.sampled_from(sorted(SCENES.glob("*.json"))), label="scene")
        doc = json.loads(path.read_text())
        command = data.draw(st.sampled_from(COMMANDS[doc["kind"]]), label="command")
        for _ in range(data.draw(st.integers(0, 3), label="mutations")):
            how = data.draw(st.sampled_from(["scale", "replace", "add key"]), label="how")
            if how == "scale":
                numbers = [(p, v) for p, v in _nodes(doc) if type(v) in (int, float)]
                if numbers:
                    where, value = data.draw(st.sampled_from(numbers), label="number")
                    _set(doc, where, value * data.draw(st.sampled_from(FACTORS), label="by"))
            elif how == "replace":
                where = data.draw(st.sampled_from([p for p, _ in _nodes(doc) if p]), label="at")
                value = data.draw(st.sampled_from(ILL_VALUES), label="value")
                _set(doc, where, copy.deepcopy(value))
            else:
                objects = [p for p, v in _nodes(doc) if isinstance(v, dict)]
                where = data.draw(st.sampled_from(objects), label="in")
                _set(doc, where + ("extra",), 1.0)
        doc = _capped(doc)
        with tempfile.TemporaryDirectory() as tmp:
            scene, out = Path(tmp) / "scene.json", Path(tmp) / "o.dat"
            scene.write_text(json.dumps(doc))
            capfd.readouterr()
            code = main([command, "--scene", str(scene), "--out", str(out)])
            stdout, err = capfd.readouterr()
            assert code in (0, 2, 3)
            assert stdout == "" and err.endswith("\n") and err.count("\n") == 1, err
            if code:
                assert sorted(p.name for p in Path(tmp).iterdir()) == ["scene.json"]
            else:
                assert out.exists()


#: an axis whose ends are finite but whose width stop - start overflows
WIDE_GRID = {"axes": [{"start": -1e308, "stop": 1.7e308, "count": 3}, {"count": 3}]}


class TestNonFiniteGrid:
    @pytest.mark.parametrize("command,doc", [
        ("classify", dict(BASE_SCENE, grid=WIDE_GRID)),
        ("lightlike", dict(BASE_SCENE, grid=WIDE_GRID)),
        ("congruence", dict(CONGRUENCE_SCENE, grid=WIDE_GRID)),
    ])
    def test_overflowing_axis_is_a_scene_error(self, tmp_path, capsys, command, doc):
        path = write_scene(tmp_path, doc)
        out = tmp_path / "o.json"
        # a numpy RuntimeWarning would be an error here (pytest filterwarnings)
        assert main([command, "--scene", path, "--out", str(out), "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert err == (f"scene error ({command}): grid axis u1 from -1e+308 to 1.7e+308 "
                       "has non-finite samples\n")
        assert not out.exists()


class TestExitCodes:
    def test_scene_error_is_2(self, tmp_path):
        path = write_scene(tmp_path, dict(BASE_SCENE, grid=[1, 4]))
        out = tmp_path / "o.csv"
        code = main(["classify", "--scene", path, "--out", str(out)])
        assert code == 2

    def test_kind_mismatch_is_2(self, tmp_path):
        path = write_scene(tmp_path, BASE_SCENE)
        code = main(["congruence", "--scene", path])
        assert code == 2

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        # lightlike pipeline on a spacelike surface fails numerically
        doc = {"kind": "hypersurface", "builtin": "spacelike_slice", "n": 3,
               "grid": [3, 3]}
        path = write_scene(tmp_path, doc)
        code = main(["lightlike", "--scene", path, "--out",
                     str(tmp_path / "x.csv")])
        assert code == 3

    @pytest.mark.parametrize("command,doc,u", [
        ("congruence", {"kind": "congruence", "builtin": "cone_normal_congruence", "n": 4,
                        "grid": {"axes": [{"start": 0.5, "stop": 0.9, "count": 3},
                                          {"start": 0.5, "stop": 0.9, "count": 3},
                                          {"start": 0.0, "stop": 1.0, "count": 3}]}},
         "[0.5, 0.9, 0.0]"),
        ("lightlike", {"kind": "hypersurface", "builtin": "timelike_hypersphere", "n": 3,
                       "grid": {"axes": [{"start": 1.5, "stop": 2.0, "count": 3}, {}]}},
         "[1.75, 0.0]"),
    ], ids=["congruence", "lightlike"])
    def test_evaluator_error_is_3(self, tmp_path, capsys, command, doc, u):
        # the catalog evaluator raises "math domain error" outside its
        # domain: on the cone, where |(u1, u2)| > 1, and on the hypersphere
        # at the centre of the scene's box
        code = main([command, "--scene", write_scene(tmp_path, doc)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"numerical failure ({command}): evaluation failed at u={u}: math domain error\n"

    def test_success_is_0(self, tmp_path):
        path = write_scene(tmp_path, BASE_SCENE)
        code = main(["classify", "--scene", path, "--out",
                     str(tmp_path / "o.csv")])
        assert code == 0

    def test_repeated_calls_keep_codes_and_outputs(self, capsys):
        # the parser is built on the first call and kept: a second round of
        # calls, after a usage error, writes what the first round wrote
        cli._parser.cache_clear()
        lightcone, parallel = str(SCENES / "lightcone3.json"), str(SCENES / "parallel3.json")
        calls = [["examples"], ["classify", "--scene", lightcone, "--format", "json"],
                 ["congruence", "--scene", lightcone], ["lightlike"],
                 ["lightlike", "--scene", lightcone], ["congruence", "--scene", parallel]]

        def one_round():
            seen = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                seen.append((code, *capsys.readouterr()))
            return seen

        first = one_round()
        assert one_round() == first
        assert cli._parser.cache_info().misses == 1
        assert [code for code, _, _ in first] == [0, 0, 2, 2, 0, 0]
        assert first[2][2] == ("scene error (congruence): congruence needs a congruence scene, "
                               "got kind='hypersurface'\n")
        assert first[3][2].startswith("usage: pseudoconformal lightlike")
        assert all(out for code, out, _ in first if code == 0)


class TestOutputs:
    def test_embed_csv_content(self, tmp_path, capsys):
        doc = {"kind": "points", "n": 3,
               "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}
        path = write_scene(tmp_path, doc)
        out = tmp_path / "embed.csv"
        assert main(["embed", "--scene", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("p1,p2,p3,x0")
        assert lines[1] == "0.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,0.0"
        assert lines[2] == "1.0,0.0,0.0,1.0,1.0,0.0,0.0,0.5,0.0,0.0"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n,points", [
        (3, [[0, 1, -2], [-0.0, 1e-300, 123.456], [1e3, -1e-5, 0.1], [2.5e-7, 3, 1e-16]]),
        (4, [[0.1, 0.2, 0.3, 0.4], [-7, 1e2, 1e-4, 9.999e-5]]),
    ], ids=["n3", "n4"])
    def test_embed_bytes_match_the_per_cell_rule(self, tmp_path, capsys, n, points, fmt):
        # the columns writer against the per-point rule it replaced: every CSV
        # cell in str form, JSON by json.dumps(sort_keys=True, indent=1)
        from pseudoconformal.conformal import (AmbientModel, darboux_embed, darboux_unembed,
                                               quadric_residual)

        model, rows, entries = AmbientModel.standard(n), [], []
        for p in np.asarray(points, dtype=float):
            x = darboux_embed(p, model)
            res, back = quadric_residual(x, model), darboux_unembed(x, model)
            roundtrip = float(np.abs(back - p).max())
            rows.append(list(p) + list(x.coords) + [res, roundtrip])
            entries.append({"point": [float(v) for v in p], "coords": [float(v) for v in x.coords],
                            "residual": res, "roundtrip": roundtrip})
        header = ([f"p{i}" for i in range(1, n + 1)] + [f"x{i}" for i in range(n + 2)]
                  + ["residual", "roundtrip"])
        expected = ("".join(",".join(map(str, row)) + "\n" for row in [header] + rows)
                    if fmt == "csv" else
                    json.dumps({"n": n, "points": entries}, sort_keys=True, indent=1) + "\n")
        path = write_scene(tmp_path, {"kind": "points", "n": n, "points": points})
        out = tmp_path / f"embed.{fmt}"
        assert main(["embed", "--scene", path, "--out", str(out), "--format", fmt]) == 0
        assert out.read_text() == expected

    def test_json_format_flag_overrides(self, tmp_path, capsys):
        path = write_scene(tmp_path, BASE_SCENE)
        out = tmp_path / "cone.json"
        assert main(["lightlike", "--scene", path, "--out", str(out),
                     "--format", "json"]) == 0
        data = json.loads(out.read_text())
        assert data["builtin"] == "light_cone"
        assert len(data["focal_clusters"]) == 1
        assert data["center"]["degeneracy"] == {
            "generator_rate": data["center"]["degeneracy"]["generator_rate"], "tangent_rank": 1}
        assert data["center"]["degeneracy"]["generator_rate"] < 1e-6

    def test_classify_json_summary(self, tmp_path, capsys):
        doc = {"kind": "hypersurface", "builtin": "euclidean_sphere", "n": 3,
               "grid": [24, 8], "output": {"format": "json"}}
        path = write_scene(tmp_path, doc)
        out = tmp_path / "sphere.json"
        assert main(["classify", "--scene", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["pure"] is None
        assert data["counts"]["spacelike"] > 0
        assert data["counts"]["timelike"] > 0
        assert data["transitions"]

    def test_leaf_with_csv_on_stdout(self, tmp_path, capsys):
        # the leaf is still integrated, so a non-integrable seed still fails
        # with exit 3; stdout carries the grid table alone, and stderr says
        # where the leaf table would go
        doc = {"kind": "congruence", "builtin": "cone_normal_congruence", "n": 3, "grid": [3, 3],
               "stratify": {"seed": [0.1, 0.4], "count": 10}}
        path = write_scene(tmp_path, doc)
        assert main(["congruence", "--scene", path, "--out", str(tmp_path / "cone.csv")]) == 0
        capsys.readouterr()
        assert main(["congruence", "--scene", path]) == 0
        captured = capsys.readouterr()
        assert captured.out == (tmp_path / "cone.csv").read_text()
        assert captured.err.splitlines()[0] == LEAF_NOTE
        assert "leaf size=" in captured.err.splitlines()[1]
        assert [p.name for p in tmp_path.glob("*.leaf.csv")] == ["cone.csv.leaf.csv"]
        twisted = write_scene(tmp_path, {"kind": "congruence", "builtin": "twisted_congruence",
                                         "n": 4, "grid": [3, 3, 3],
                                         "stratify": {"seed": [0.0, 0.0, 0.0], "count": 3}})
        assert main(["congruence", "--scene", twisted]) == 3
        assert capsys.readouterr().err == (
            "numerical failure (congruence): congruence is not integrable near the seed "
            "(symmetry defect 2.000e+00)\n")

    def test_congruence_stratify_leaf_side_file(self, tmp_path, capsys):
        doc = {"kind": "congruence", "builtin": "cone_normal_congruence",
               "n": 3, "grid": [3, 3],
               "stratify": {"seed": [0.1, 0.4], "count": 10}}
        path = write_scene(tmp_path, doc)
        out = tmp_path / "cone.csv"
        assert main(["congruence", "--scene", path, "--out", str(out)]) == 0
        leaf = Path(str(out) + ".leaf.csv")
        assert leaf.exists()
        assert leaf.read_text().splitlines()[0] == "index,u1,u2"

    def test_stratify_defaults_are_its_own(self, tmp_path):
        # a seed alone takes stratify's own step and count: 2 x 40 steps and
        # the seed on the cone; an integer step is a step
        parallel = dict(CONGRUENCE_SCENE, builtin="parallel_null_congruence")
        texts = []
        for doc in (dict(CONGRUENCE_SCENE, stratify={"seed": [0.1, 0.4]}),
                    dict(CONGRUENCE_SCENE, stratify={"seed": [0.1, 0.4], "step": 0.01,
                                                     "count": 40}),
                    dict(parallel, stratify={"seed": [0.0, 0.0], "step": 1, "count": 1}),
                    dict(parallel, stratify={"seed": [0.0, 0.0], "step": 1.0, "count": 1})):
            out = tmp_path / f"{len(texts)}.json"
            assert main(["congruence", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                         "--format", "json"]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1] and json.loads(texts[0])["leaf"]["size"] == 81
        assert texts[2] == texts[3]
        assert json.loads(texts[2])["leaf"]["parameters"] == [[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]


class TestSymmetryTolerance:
    def test_scene_tolerance_reaches_every_grid_point(self, tmp_path, capsys):
        # relative defects measured on this grid: 0 at 25 points, 2.0e-17 at
        # the centre, which must pass, and 5.5e-17 .. 1.13e-16 at the 16
        # points that fail
        doc = {"kind": "hypersurface", "builtin": "circle_wavefront", "n": 4,
               "grid": [5, 5, 5], "tolerances": {"symmetry": 5e-17}}
        out = tmp_path / "wavefront.json"
        assert main(["lightlike", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                     "--format", "json"]) == 0
        imm = catalog.build("circle_wavefront")
        failing = []
        for u in parameter_grid(imm, [5, 5, 5])[1]:
            try:
                lightlike_affinor(imm, u, sym_tol=5e-17)
            except GeometryError as exc:
                failing.append({"u": u.tolist(), "message": str(exc)})
        assert failing
        assert json.loads(out.read_text())["errors"] == failing


class TestIntegrabilityTolerance:
    def test_scene_tolerance_reaches_stratify(self, tmp_path, capsys):
        # the twisted congruence is not integrable near this seed at the
        # default tolerance; a tolerance of 1e3 lets the leaf through
        doc = dict(json.loads((SCENES / "twisted4.json").read_text()),
                   stratify={"seed": [0.1, 0.1, 0.1], "count": 4})
        out = tmp_path / "twisted.json"
        assert main(["congruence", "--scene", write_scene(tmp_path, doc), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure (congruence): congruence is not integrable near the seed "
            "(symmetry defect 1.961e+00)\n")
        assert not out.exists()
        doc["tolerances"] = {"integrability": 1e3}
        assert main(["congruence", "--scene", write_scene(tmp_path, doc), "--out", str(out)]) == 0
        leaf = json.loads(out.read_text())["leaf"]
        assert len(leaf["parameters"]) == 81 and [0.1, 0.1, 0.1] in leaf["parameters"]


class TestPointErrors:
    def test_vertex_grid_point_is_a_point_error(self, tmp_path, capsys):
        # the grid point (0, 0) is the cone vertex, where the jacobian is not
        # finite; the other points are analysed
        doc = {"kind": "hypersurface", "builtin": "light_cone", "n": 3,
               "grid": {"axes": [{"start": 0, "stop": 1, "count": 2},
                                 {"start": 0, "stop": 1, "count": 2}]}}
        out = tmp_path / "vertex.json"
        assert main(["lightlike", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                     "--format", "json"]) == 0
        data = json.loads(out.read_text())
        assert data["errors"] == [{"u": [0.0, 0.0],
                                   "message": "non-finite jacobian at u=[0.0, 0.0]"}]
        assert {tuple(s["u"]) for s in data["focal_samples"]} == {
            (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        # the vertex jacobian is flagged without numpy printing a warning
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lightlike pipeline on light_cone:")

    def test_degenerate_jacobian_is_a_point_error(self, tmp_path):
        # the timelike hypersphere's graph function vanishes at u = (1, 0),
        # where its one-point jacobian divides by zero; run in a subprocess
        # so that a numpy warning would reach its stderr
        doc = {"kind": "hypersurface", "builtin": "timelike_hypersphere", "n": 3,
               "grid": {"axes": [{"start": 0, "stop": 1, "count": 2},
                                 {"start": 0, "stop": 1, "count": 2}]}}
        out = tmp_path / "sphere.json"
        proc = run_cli(["classify", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                        "--format", "json"])
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        assert data["errors"] == [{"index": [1, 0],
                                   "message": "non-finite jacobian at u=[1.0, 0.0]"}]
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("classified 3 points:")


class TestDegeneracyFlow:
    @pytest.mark.parametrize("u1", [[0.05, 0.15], [0.1, 0.3]],
                             ids=["stage_on_the_vertex", "flow_past_the_vertex"])
    def test_degeneracy_near_the_vertex(self, tmp_path, capsys, u1):
        # the generator curve from the centre runs into the cone's vertex,
        # which a check that samples along the curve must stop at; the
        # pointwise check reads the centre alone
        doc = {"kind": "hypersurface", "builtin": "light_cone", "n": 3,
               "grid": {"axes": [{"start": u1[0], "stop": u1[1], "count": 3},
                                 {"start": -0.1, "stop": 0.1, "count": 3}]}}
        out = tmp_path / "cone.json"
        assert main(["lightlike", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                     "--format", "json"]) == 0
        degeneracy = json.loads(out.read_text())["center"]["degeneracy"]
        assert degeneracy["generator_rate"] <= 1e-13
        assert degeneracy["tangent_rank"] == 1
        assert capsys.readouterr().err.endswith(
            f"degeneracy={degeneracy['generator_rate']:.2e}\n")


class TestConeCongruenceRoots:
    def test_the_vertex_stays_real_at_n5(self, tmp_path, capsys):
        # the normal cone congruence at n = 5 on a 3^4 grid: the root
        # iteration gave 235 complex roots and no singular point; every line's
        # root is the vertex, x = -1 of multiplicity 3
        doc = {"kind": "congruence", "builtin": "cone_normal_congruence", "n": 5,
               "grid": [3, 3, 3, 3]}
        out = tmp_path / "cone.json"
        assert main(["congruence", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                     "--format", "json"]) == 0
        samples = json.loads(out.read_text())["samples"]
        assert len(samples) == 81
        for sample in samples:
            [root] = sample["roots"]
            assert (root["multiplicity"], root["real"], root["x"][1]) == (3, True, 0.0)
            assert abs(root["x"][0] + 1.0) <= 1e-8
        csv_out = tmp_path / "cone.csv"
        assert main(["congruence", "--scene", write_scene(tmp_path, doc), "--out", str(csv_out),
                     "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(csv_out.read_text())))
        assert len(rows) == 81 and {row["focal"] for row in rows} == {"point"}


class TestDeterminism:
    @pytest.mark.parametrize("scene,command", [
        ("lightcone3.json", "lightlike"),
        ("sphere_mixed3.json", "classify"),
        ("twisted4.json", "congruence"),
    ])
    def test_byte_identical_runs(self, tmp_path, scene, command):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{scene}.{tag}"
            code = main([command, "--scene", str(SCENES / scene), "--out",
                         str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestExamplesListing:
    def test_lists_every_catalog_entry(self, capsys):
        assert main(["examples"]) == 0
        text = capsys.readouterr().out
        from pseudoconformal.catalog import CATALOG

        for name in CATALOG:
            assert name in text


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        doc = {"kind": "points", "n": 3, "points": [[0.0, 0.0, 0.0]]}
        path = write_scene(tmp_path, doc)
        proc = run_cli(["embed", "--scene", path])
        assert proc.returncode == 0
        assert "1.0,0.0,0.0,0.0,0.0" in proc.stdout


def readme_header(command, n):
    """CSV column header of each command, as the README lists it."""
    u = [f"u{i}" for i in range(1, n)]
    f = [f"f{i}" for i in range(1, n + 1)]
    return {
        "embed": [f"p{i}" for i in range(1, n + 1)] + [f"x{i}" for i in range(n + 2)]
        + ["residual", "roundtrip"],
        "classify": u + ["type", "plus", "minus", "zero", "min_eig_ratio"],
        "lightlike": u + ["root_index", "x", "multiplicity", "focal"] + f,
        "congruence": u + ["defect", "root_index", "root_re", "root_im", "multiplicity",
                           "real", "focal"] + f,
    }[command]


JSON_KEYS = {
    "embed": {"n", "points"},
    "classify": {"builtin", "n", "counts", "pure", "transitions", "points", "errors"},
    "lightlike": {"builtin", "n", "center", "focal_samples", "focal_clusters", "errors"},
    "congruence": {"builtin", "n", "max_defect", "samples"},
}


def assert_data(text, command, fmt, n):
    """The whole text is one CSV table with the README header, or one JSON
    document with the command's keys."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == readme_header(command, n)
        assert len(rows) > 1
        assert all(len(row) == len(rows[0]) for row in rows)
    else:
        data = json.loads(text)
        assert JSON_KEYS[command] <= set(data)
        assert data["n"] == n


#: the stderr note of a congruence run with a leaf and CSV data on stdout
LEAF_NOTE = ("congruence: the leaf table is written only beside an output file "
             "(use --out or JSON)")

STDOUT_SCENES = {
    "embed": {"kind": "points", "n": 3, "points": [[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]]},
    "classify": {"kind": "hypersurface", "builtin": "euclidean_sphere", "n": 3,
                 "grid": [6, 4]},
    "lightlike": BASE_SCENE,
    "congruence": dict(CONGRUENCE_SCENE, stratify={"seed": [0.1, 0.4], "count": 3}),
}


class TestStreams:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(STDOUT_SCENES))
    def test_stdout_carries_only_data(self, tmp_path, capsys, command, fmt):
        path = write_scene(tmp_path, STDOUT_SCENES[command])
        assert main([command, "--scene", path, "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert_data(captured.out, command, fmt, 3)
        # one summary line on stderr; a congruence leaf table has no place on
        # stdout beside CSV data, and one more line before it says so
        notes = [LEAF_NOTE] if (command, fmt) == ("congruence", "csv") else []
        lines = captured.err.splitlines()
        assert len(lines) == len(notes) + 1
        assert lines[:-1] == notes


#: catalog entries the lightlike pipeline applies to (README catalog table)
LIGHTLIKE_BUILTINS = {"light_cone", "null_hyperplane", "tilted_null_family", "circle_wavefront"}


def shipped_runs():
    runs = []
    for path in sorted(SCENES.glob("*.json")):
        scene = load_scene(str(path))
        commands = {"points": ["embed"], "congruence": ["congruence"],
                    "hypersurface": ["classify"]}[scene.kind]
        if scene.builtin in LIGHTLIKE_BUILTINS:
            commands.append("lightlike")
        n = scene.n or catalog.CATALOG[scene.builtin].default_n
        runs += [(path.name, command, n) for command in commands]
    return runs


class TestShippedScenes:
    def test_every_scene_has_a_run(self):
        assert {name for name, _, _ in shipped_runs()} == {p.name for p in SCENES.glob("*.json")}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name,command,n", shipped_runs())
    def test_runs_and_output_loads(self, tmp_path, capsys, name, command, n, fmt):
        out = tmp_path / f"out.{fmt}"
        code = main([command, "--scene", str(SCENES / name), "--out", str(out),
                     "--format", fmt])
        assert code == 0
        assert_data(out.read_text(), command, fmt, n)
        # the scene sets no output path: run as is, in its own format, its
        # data go to stdout
        scene = load_scene(str(SCENES / name))
        if fmt == scene.out_format:
            assert scene.out_path is None
            capsys.readouterr()
            assert main([command, "--scene", str(SCENES / name)]) == 0
            assert capsys.readouterr().out == out.read_text()


class TestScripts:
    # compare_outputs.py without arguments compares the tree with itself over
    # every run, which can find nothing; TestCompareOutputs runs it in process.
    # The example scripts print their results, ab_bench.py its help
    @pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")
                                              if p.name != "compare_outputs.py"))
    def test_runs(self, script):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()


def package_size() -> str:
    """The summary's size of this tree against itself: the lines, AST
    statements and settable values (parameters and dataclass fields with a
    default) of its package modules."""
    texts = [p.read_text() for p in (ROOT / "src" / "pseudoconformal").glob("*.py")]
    lines = sum(len(text.splitlines()) for text in texts)
    nodes = [node for text in texts for node in ast.walk(ast.parse(text))]
    stmts = sum(isinstance(node, ast.stmt) for node in nodes)
    settable = sum(len(node.defaults) + len([d for d in node.kw_defaults if d])
                   for node in nodes if isinstance(node, ast.arguments))
    settable += sum(len([s for s in node.body if isinstance(s, ast.AnnAssign) and s.value])
                    for node in nodes if isinstance(node, ast.ClassDef)
                    and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list))
    return (f"pseudoconformal/*.py {lines} -> {lines} lines, {stmts} -> {stmts} statements, "
            f"{settable} -> {settable} settable values")


class TestCompareOutputs:
    """``scripts/compare_outputs.py`` in process: a few runs of this tree
    against itself, and its verdicts on canned outputs."""

    @pytest.fixture()
    def co(self):
        sys.path.insert(0, str(ROOT / "scripts"))
        try:
            import compare_outputs
        finally:
            sys.path.pop(0)
        return compare_outputs

    def test_a_few_runs_of_one_tree(self, co, monkeypatch, capsys):
        # one shipped scene per command, one classify scene with a point error
        # and the lightlike one in both formats
        def few_runs(scenes_dir):
            runs = [(f"scenes/{stem}.{command}.{fmt}", command, str(SCENES / f"{stem}.json"), fmt)
                    for stem, command, fmt in [("embed_points3", "embed", "csv"),
                                               ("nullplane3", "classify", "json"),
                                               ("lightcone3", "lightlike", "csv"),
                                               ("parallel3", "congruence", "json")]]
            for name, command, fmt in [("failing_point", "classify", "json"),
                                       ("cone_vertex", "lightlike", "csv"),
                                       ("cone_vertex", "lightlike", "json"),
                                       ("cone_past_one", "congruence", "csv"),
                                       ("cone_leaf_past_one", "congruence", "json")]:
                path = scenes_dir / f"{name}.json"
                path.write_text(json.dumps(co.ERROR_SCENES[name]))
                runs.append((f"errors/{name}.{command}.{fmt}", command, str(path), fmt))
            return runs

        monkeypatch.setattr(co, "plan_runs", few_runs)
        assert co.main([]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "scenes/embed_points3.embed.csv: exit 0/0, identical",
            "scenes/nullplane3.classify.json: exit 0/0, identical",
            "scenes/lightcone3.lightlike.csv: exit 0/0, identical",
            "scenes/parallel3.congruence.json: exit 0/0, identical",
            "errors/failing_point.classify.json: exit 0/0, identical",
            "errors/cone_vertex.lightlike.csv: exit 0/0, identical",
            "errors/cone_vertex.lightlike.json: exit 0/0, identical",
            "errors/cone_past_one.congruence.csv: exit 3/3, identical",
            "errors/cone_leaf_past_one.congruence.json: exit 3/3, identical",
            "compare_outputs: 9 runs, 9 byte-identical, 0 same with numbers masked "
            "(max |d|/(1+|v|) 0.00e+00), 0 differing in text, 0 exit-code mismatches, "
            + package_size(),
        ]

    def test_the_fields_that_moved_are_named(self, co, monkeypatch, capsys):
        # the new tree writes one JSON field and one CSV column differently:
        # each run names its field, list indices dropped, and the summary
        # gives the worst value per field
        old = {"center": {"degeneracy": {"generator_rate": 1e-15, "tangent_rank": 1}},
               "samples": [{"u": [0.5], "x": 1.0}, {"u": [0.75], "x": 2.0}]}
        new = json.loads(json.dumps(old))
        new["center"]["degeneracy"]["generator_rate"] = 1.2e-15
        new["samples"][1]["x"] = 2.0000000001
        outputs = {"old": [json.dumps(old), "u1,x\n0.5,1.0\n"],
                   "new": [json.dumps(new), "u1,x\n0.5,1.000001\n"]}

        class Finished:
            def wait(self):
                return 0

        def canned_side(src, runs, out_dir):
            out_dir.mkdir()
            for i, text in enumerate(outputs[out_dir.name]):
                (out_dir / f"{i:04d}.out").write_text(text)
            (out_dir / "codes.json").write_text(json.dumps([0] * len(runs)))
            return Finished()

        monkeypatch.setattr(co, "plan_runs", lambda scenes_dir: [
            ("a.json", "lightlike", "a", "json"), ("b.csv", "lightlike", "b", "csv")])
        monkeypatch.setattr(co, "run_side", canned_side)
        assert co.main([]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "a.json: exit 0/0, differs, same text with numbers masked, max rel 3.33e-11",
            "  center.degeneracy.generator_rate: max rel 2.00e-16",
            "  samples.x: max rel 3.33e-11",
            "b.csv: exit 0/0, differs, same text with numbers masked, max rel 5.00e-07",
            "  x: max rel 5.00e-07",
            "compare_outputs: 2 runs, 0 byte-identical, 2 same with numbers masked "
            "(max |d|/(1+|v|) 5.00e-07), 0 differing in text, 0 exit-code mismatches, "
            f"{package_size()}; worst per field: center.degeneracy.generator_rate 2.00e-16, "
            "samples.x 3.33e-11, x 5.00e-07",
        ]

    def test_fields_only_one_side_writes_are_named(self, co, monkeypatch, capsys):
        # a JSON key renamed: the text differs, the renamed fields are named
        # by side and the fields both write are still measured by key
        old = {"center": {"degeneracy": {"max_angle": 1e-15, "skipped": 0, "tangent_rank": 1},
                          "u": [0.5, 0.25]}}
        new = {"center": {"degeneracy": {"generator_rate": 2e-16, "tangent_rank": 1},
                          "u": [0.5, 0.2500000001]}}

        class Finished:
            def wait(self):
                return 0

        def canned_side(src, runs, out_dir):
            out_dir.mkdir()
            (out_dir / "0000.out").write_text(json.dumps(old if out_dir.name == "old" else new))
            (out_dir / "codes.json").write_text(json.dumps([0]))
            return Finished()

        monkeypatch.setattr(co, "plan_runs", lambda scenes_dir: [
            ("a.json", "lightlike", "a", "json")])
        monkeypatch.setattr(co, "run_side", canned_side)
        assert co.main([]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "a.json: exit 0/0, differs in text",
            "  center.degeneracy.generator_rate: only in new",
            "  center.degeneracy.max_angle: only in old",
            "  center.degeneracy.skipped: only in old",
            "  center.u: max rel 8.00e-11",
            "compare_outputs: 1 runs, 0 byte-identical, 0 same with numbers masked "
            "(max |d|/(1+|v|) 0.00e+00), 1 differing in text, 0 exit-code mismatches, "
            f"{package_size()}; worst per field: center.u 8.00e-11; only in old: "
            "center.degeneracy.max_angle, center.degeneracy.skipped; only in new: "
            "center.degeneracy.generator_rate",
        ]

    def test_numbers_that_differ_are_masked_and_measured(self, co, tmp_path):
        old, new = tmp_path / "old.out", tmp_path / "new.out"
        old.write_text('{"x": 1.0, "y": [2.5e-9, -3.0], "z": NaN, "w": -Infinity}\n')
        new.write_text('{"x": 1.0000003, "y": [2.6e-9, -3.0], "z": NaN, "w": -Infinity}\n')
        identical, masked, worst = co.compare(old, new)
        assert (identical, masked) == (False, True)
        assert worst == pytest.approx(0.0000003 / 2.0, rel=1e-9)
        assert co.compare(old, old) == (True, True, 0.0)
        # a leaf side file is compared the same way
        new.write_text(old.read_text())
        Path(f"{old}.leaf.csv").write_text("index,u1\n0,0.5\n")
        Path(f"{new}.leaf.csv").write_text("index,u1\n0,0.50000001\n")
        identical, masked, worst = co.compare(old, new)
        assert (identical, masked) == (False, True)
        assert worst == pytest.approx(0.00000001 / 1.5, rel=1e-6)
        assert co.field_differences(old, new) == {"leaf:u1": worst}
        # and so is the standard error of a run
        Path(f"{new}.leaf.csv").write_text(Path(f"{old}.leaf.csv").read_text())
        Path(f"{old}.stderr").write_text("numerical failure (congruence): at u=[1.0001, 0.2]\n")
        Path(f"{new}.stderr").write_text("numerical failure (congruence): at u=[1.0002, 0.2]\n")
        identical, masked, worst = co.compare(old, new)
        assert (identical, masked) == (False, True)
        assert worst == pytest.approx(0.0001 / 2.0001, rel=1e-6)
        assert co.field_differences(old, new) == {"stderr": worst}

    def test_text_or_file_differences_are_not_masked(self, co, tmp_path):
        old, new = tmp_path / "old.out", tmp_path / "new.out"
        old.write_text("u1,x\n0.5,1.0\n")
        new.write_text("u1,x\n0.5,1.0\n0.75,2.0\n")
        assert co.compare(old, new)[:2] == (False, False)
        new.write_text("u1,y\n0.5,1.0\n")
        assert co.compare(old, new)[:2] == (False, False)
        new.write_text(old.read_text())
        Path(f"{new}.leaf.csv").write_text("index,u1\n")
        assert co.compare(old, new)[:2] == (False, False)
        Path(f"{new}.leaf.csv").unlink()
        Path(f"{new}.stderr").write_text("congruence pipeline on cone: max defect=0.00e+00\n")
        assert co.compare(old, new)[:2] == (False, False)

    def test_worst_relative_pairs_numbers_in_order(self, co):
        same = "[1.0, -2.0, NaN, Infinity]"
        assert co._worst_relative(same, same) == 0.0
        assert co._worst_relative("[0.0, 10.0]", "[1e-8, 10.5]") == pytest.approx(0.5 / 11.0)
        assert co._worst_relative("a=3e-5 b=-4", "a=3.1e-5 b=-4") == pytest.approx(
            1e-6 / (1 + 3e-5))


def _result_line(correct, points_per_s, scene_s_p50=0.05, setup_s=0.2, peak_rss_mb=40.0):
    """A ``perfbench/run.py`` result line."""
    values = dict(points_per_s=points_per_s, scene_s_p50=scene_s_p50, setup_s=setup_s,
                  peak_rss_mb=peak_rss_mb)
    return json.dumps({"correct": correct, "attempted": 100, "failed": 0 if correct else 5,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}})


class TestAbBench:
    """The summary of ``scripts/ab_bench.py``, on canned run output only."""

    @pytest.fixture()
    def ab(self):
        sys.path.insert(0, str(ROOT / "scripts"))
        try:
            import ab_bench
        finally:
            sys.path.pop(0)
        return ab_bench

    def test_summary_of_canned_runs(self, ab):
        stdout = "congruence: 3 cycles, 24 scenes\n  points_per_s 1100 points/s\n{}\n"
        pairs = [tuple(ab.parse_result(stdout.format(_result_line(True, pps, scene_s_p50=s)))
                       for pps, s in pair)
                 for pair in [((1087, 0.087), (1765, 0.055)), ((1198, 0.083), (1847, 0.053)),
                              ((1100, 0.085), (1800, 0.054))]]
        lines, ok = ab.summarize("congruence", pairs)
        assert ok
        assert lines[0] == ("congruence pair 0: old points_per_s 1087 scene_s_p50 0.087 setup_s 0.2 "
                            "peak_rss_mb 40 | new points_per_s 1765 scene_s_p50 0.055 setup_s 0.2 "
                            "peak_rss_mb 40")
        assert lines[3] == ("congruence points_per_s: old 1100 [1087-1198] -> "
                            "new 1800 [1765-1847], new/old 1.636")
        assert lines[4] == ("congruence scene_s_p50: old 0.085 [0.083-0.087] -> "
                            "new 0.054 [0.053-0.055], new/old 0.635")
        assert len(lines) == 3 + len(ab.METRICS)

    def test_claim_rule(self, ab):
        # ten pairs: the new side wins nine on points_per_s, by more than the
        # old interquartile range, ties on setup_s and loses on peak_rss_mb
        def pair(old_pps, new_pps):
            return (ab.parse_result(_result_line(True, old_pps)),
                    ab.parse_result(_result_line(True, new_pps, peak_rss_mb=41)))

        pairs = [pair(1000 + 10 * k, 1500 + 10 * k) for k in range(9)] + [pair(1600, 1400)]
        lines = ab.claim_lines("congruence", pairs)
        assert lines[0] == ("congruence points_per_s: new won 9/10 pairs, old IQR 45, "
                            "median gain 490: claim rule holds")
        assert lines[2] == ("congruence setup_s: new won 0/10 pairs, old IQR 0, "
                            "median gain 0: claim rule does not hold")
        assert lines[3] == ("congruence peak_rss_mb: new won 0/10 pairs, old IQR 0, "
                            "median gain -1: claim rule does not hold")
        # eight wins of ten are not enough, however large the gain
        lines = ab.claim_lines("congruence", pairs[1:] + [pair(1600, 1400)])
        assert lines[0].startswith("congruence points_per_s: new won 8/10 pairs")
        assert lines[0].endswith("claim rule does not hold")
        # nor is a gain within the old interquartile range
        close = [pair(1000 + 100 * k, 1060 + 100 * k) for k in range(10)]
        assert ab.claim_lines("congruence", close)[0].endswith("claim rule does not hold")

    @pytest.mark.parametrize("new_root, warned", [("new", False), ("newer", True)])
    def test_warns_on_paths_of_unequal_length(self, ab, tmp_path, monkeypatch, capsys,
                                              new_root, warned):
        # one warning line before the first run; the report and exit code stay
        runs = []

        def canned(root, workload, seconds, seed):
            runs.append(root)
            return ab.parse_result(_result_line(True, 1000.0))

        monkeypatch.setattr(ab, "run_once", canned)
        old, new = str(tmp_path / "old"), str(tmp_path / new_root)
        assert ab.main([old, new, "--workload", "classify", "--pairs", "2"]) == 0
        out, err = capsys.readouterr()
        assert runs == [old, new, new, old]
        assert out.splitlines()[0].startswith("classify pair 0: old points_per_s 1000")
        assert len(out.splitlines()) == 2 + 2 * len(ab.METRICS)
        if warned:
            assert err == ab.path_warning(old, new) + "\n"
            assert err.startswith(f"ab_bench: warning: the checkout paths differ in length "
                                  f"({len(old)} and {len(new)} characters")
        else:
            assert err == "" and ab.path_warning(old, new) is None

    def test_incorrect_or_missing_run_fails(self, ab):
        good, bad = (ab.parse_result(_result_line(c, 1000.0)) for c in (True, False))
        lines, ok = ab.summarize("lightlike", [(good, bad)])
        assert not ok and lines[0].endswith("INCORRECT")
        assert ab.parse_result("Traceback (most recent call last):\n") is None
        lines, ok = ab.summarize("lightlike", [(good, None)])
        assert not ok and lines == ["lightlike pair 0: old points_per_s 1000 scene_s_p50 0.05 "
                                    "setup_s 0.2 peak_rss_mb 40 | new no result"]
