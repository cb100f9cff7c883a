import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pseudoconformal import catalog
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


CONGRUENCE_SCENE = {
    "kind": "congruence",
    "builtin": "cone_normal_congruence",
    "n": 3,
    "grid": [3, 3],
}


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
        ("embed", {"kind": "points", "n": 3, "points": [[math.nan, 0.0, 0.0]]}),
    ], ids=["fractional-count", "boolean-count", "text-start", "infinite-stop",
            "short-seed", "nan-seed", "negative-step", "zero-count", "nan-point"])
    def test_exits_2_without_output(self, tmp_path, capsys, command, doc):
        path = write_scene(tmp_path, doc)
        out = tmp_path / "o.csv"
        assert main([command, "--scene", path, "--out", str(out)]) == 2
        assert "scene error" in capsys.readouterr().err
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

    def test_json_format_flag_overrides(self, tmp_path, capsys):
        path = write_scene(tmp_path, BASE_SCENE)
        out = tmp_path / "cone.json"
        assert main(["lightlike", "--scene", path, "--out", str(out),
                     "--format", "json"]) == 0
        data = json.loads(out.read_text())
        assert data["builtin"] == "light_cone"
        assert len(data["focal_clusters"]) == 1
        assert data["center"]["degeneracy"]["max_angle"] < 1e-6

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


class TestSymmetryTolerance:
    def test_scene_tolerance_reaches_every_grid_point(self, tmp_path, capsys):
        # relative defects measured on this grid: 1.11e-9 at the centre, which
        # must pass, and 1.96e-9 .. 3.22e-9 at the five points that fail
        doc = {"kind": "hypersurface", "builtin": "circle_wavefront", "n": 4,
               "grid": [5, 5, 5], "tolerances": {"symmetry": 1.8e-9}}
        out = tmp_path / "wavefront.json"
        assert main(["lightlike", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                     "--format", "json"]) == 0
        imm = catalog.build("circle_wavefront")
        failing = []
        for u in parameter_grid(imm, [5, 5, 5])[1]:
            try:
                lightlike_affinor(imm, u, sym_tol=1.8e-9)
            except GeometryError as exc:
                failing.append({"u": u.tolist(), "message": str(exc)})
        assert failing
        assert json.loads(out.read_text())["errors"] == failing


class TestStencilNeighbour:
    def test_non_finite_neighbour_is_a_point_error(self, tmp_path, capsys):
        # the lower stencil neighbour (0, 0) of the grid point (0, 1e-4) is the
        # cone vertex, where the jacobian is not finite
        doc = {"kind": "hypersurface", "builtin": "light_cone", "n": 3,
               "grid": {"axes": [{"start": 0, "stop": 1, "count": 2},
                                 {"start": 1e-4, "stop": 1, "count": 2}]}}
        out = tmp_path / "vertex.json"
        assert main(["lightlike", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                     "--format", "json"]) == 0
        data = json.loads(out.read_text())
        assert data["errors"] == [{"u": [0.0, 1e-4],
                                   "message": "non-finite jacobian at u=[0.0, 0.0]"}]
        assert {tuple(s["u"]) for s in data["focal_samples"]} == {
            (0.0, 1.0), (1.0, 1e-4), (1.0, 1.0)}
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
    def test_kernel_flow_stops_at_the_vertex(self, tmp_path, capsys, u1):
        # the generator curve from the centre runs into the cone's vertex:
        # an RK4 stage lands on it, or the samples past it lie on the
        # opposite ray, unless the run ends there
        doc = {"kind": "hypersurface", "builtin": "light_cone", "n": 3,
               "grid": {"axes": [{"start": u1[0], "stop": u1[1], "count": 3},
                                 {"start": -0.1, "stop": 0.1, "count": 3}]}}
        out = tmp_path / "cone.json"
        assert main(["lightlike", "--scene", write_scene(tmp_path, doc), "--out", str(out),
                     "--format", "json"]) == 0
        degeneracy = json.loads(out.read_text())["center"]["degeneracy"]
        assert degeneracy["max_angle"] <= 1e-13
        assert degeneracy["tangent_rank"] == 1


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
        assert len(captured.err.splitlines()) == 1


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
    @pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
    def test_runs(self, script):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


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

    def test_incorrect_or_missing_run_fails(self, ab):
        good, bad = (ab.parse_result(_result_line(c, 1000.0)) for c in (True, False))
        lines, ok = ab.summarize("lightlike", [(good, bad)])
        assert not ok and lines[0].endswith("INCORRECT")
        assert ab.parse_result("Traceback (most recent call last):\n") is None
        lines, ok = ab.summarize("lightlike", [(good, None)])
        assert not ok and lines == ["lightlike pair 0: old points_per_s 1000 scene_s_p50 0.05 "
                                    "setup_s 0.2 peak_rss_mb 40 | new no result"]
