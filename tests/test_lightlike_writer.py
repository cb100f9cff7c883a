"""Identity gate of the lightlike writer and of the stacked root clustering.

``lightlike`` writes its CSV rows and its JSON ``focal_samples`` and
``focal_clusters`` blocks from the focal set's columns.  The oracle here is
the per-sample writer it replaced: records built from ``focal.samples`` and
``focal.clusters``, CSV cells by the old per-cell rule and JSON by
``json.dumps(payload, sort_keys=True, indent=1)``.  Both must give the same
bytes for every shipped hypersurface scene, the generated benchmark copies
and a grid with a point error.  ``focal_map`` clusters the roots of all grid
points in one stacked pass in real arithmetic, and ``lightlike_affinor`` the
roots of one point, which must give the bits of the nested-list rule of
``_oracles`` on the roots as Python complex numbers.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pseudoconformal import catalog, cli
from pseudoconformal.cli import _build_object, _resolve_grid, load_scene, main
from pseudoconformal.conformal import AmbientModel
from pseudoconformal.errors import GeometryError
from pseudoconformal.hypersurface import parameter_grid
from pseudoconformal.lightlike import (_affinors, degeneracy_check, focal_map, lightlike_affinor,
                                       torse_directions)
from pseudoconformal.linalg import _cluster

from _oracles import nested_cluster_roots, nested_clusters, root_bits

from test_classify_writer import _cell, assert_same, hypersurface_scenes

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import workloads
    from compare_outputs import ERROR_SCENES
finally:
    del sys.path[:2]


def oracle(scene_path, fmt) -> str:
    """The lightlike output of a scene by the per-sample writer; raises what
    the run fails with."""
    scene = load_scene(str(scene_path))
    imm, counts = _resolve_grid(scene, _build_object(scene))
    sym_tol = scene.tolerances.get("symmetry")
    focal = focal_map(imm, counts, sym_tol=sym_tol)
    center = np.array([0.5 * (lo + hi) for lo, hi in imm.domain])
    an = lightlike_affinor(imm, center, sym_tol=sym_tol)
    torses = torse_directions(an)
    degeneracy = degeneracy_check(imm, an)
    if fmt == "csv":
        header = ([f"u{i}" for i in range(1, imm.params + 1)]
                  + ["root_index", "x", "multiplicity", "focal"]
                  + [f"f{i}" for i in range(1, imm.n + 1)])
        rows = [list(s.u) + [s.root_index, s.x, s.multiplicity]
                + (["INF"] + [""] * imm.n if s.at_infinity else
                   ["point"] + [float(v) for v in s.point]) for s in focal.samples]
        return "\n".join([",".join(header)] + [",".join(map(_cell, r)) for r in rows]) + "\n"
    payload = {
        "builtin": imm.name,
        "n": imm.n,
        "center": {
            "u": [float(v) for v in center],
            "shape_operator": an.shape_operator.tolist(),
            "symmetry_defect": an.symmetry_defect,
            "determinant": an.determinant,
            "roots": [{"x": [r.value.real, r.value.imag], "multiplicity": r.multiplicity,
                       "real": r.is_real} for r in an.roots],
            "torses": [{"root": t.root, "multiplicity": t.multiplicity,
                        "directions": t.directions.tolist()} for t in torses],
            "degeneracy": {"generator_rate": degeneracy.generator_rate,
                           "tangent_rank": degeneracy.tangent_rank},
        },
        "focal_samples": [{"u": list(s.u), "root_index": s.root_index, "x": s.x,
                           "multiplicity": s.multiplicity, "at_infinity": s.at_infinity,
                           "point": None if s.at_infinity else [float(v) for v in s.point]}
                          for s in focal.samples],
        "focal_clusters": [{"at_infinity": c.at_infinity, "count": c.count,
                            "representative": None if c.at_infinity
                            else [float(v) for v in c.representative]}
                           for c in focal.clusters],
        "errors": [{"u": list(u), "message": m} for u, m in focal.errors],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def check_scene(tmp_path, scene_path, fmt):
    """The CLI writes the oracle's bytes, or both fail with exit 3."""
    out = tmp_path / f"out.{fmt}"
    code = main(["lightlike", "--scene", str(scene_path), "--out", str(out), "--format", fmt])
    try:
        expected = oracle(scene_path, fmt)
    except GeometryError:
        assert code == 3 and not out.exists()
        return None
    assert code == 0
    text = out.read_text()
    assert_same(text, expected)
    return text


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return workloads.generate("lightlike", 3, str(tmp_path_factory.mktemp("lightlike")))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", hypersurface_scenes())
def test_shipped_scenes(tmp_path, capsys, name, fmt):
    check_scene(tmp_path, ROOT / "scenes" / name, fmt)


@pytest.mark.parametrize("copy", range(workloads.VARIANTS))
def test_generated_copies(tmp_path, capsys, generated, copy):
    assert generated[copy]
    for scene in generated[copy]:
        assert check_scene(tmp_path, scene.path, scene.slot.fmt) is not None


@pytest.mark.parametrize("fmt, calls", [("csv", 0), ("json", 1)])
def test_torses_only_for_the_json_centre(tmp_path, capsys, monkeypatch, fmt, calls):
    # the centre's torse directions are written only in the JSON document;
    # a CSV run does not compute them, and its bytes stay the oracle's
    seen = []
    monkeypatch.setattr(cli, "torse_directions", lambda an: seen.append(an) or torse_directions(an))
    assert check_scene(tmp_path, ROOT / "scenes" / "wavefront4.json", fmt) is not None
    assert len(seen) == calls


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_point_error_grid(tmp_path, capsys, fmt):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(ERROR_SCENES["cone_vertex"]))
    text = check_scene(tmp_path, path, fmt)
    if fmt == "json":
        data = json.loads(text)
        assert data["errors"] == [{"u": [0.0, 0.0],
                                   "message": "non-finite jacobian at u=[0.0, 0.0]"}]
        assert len(data["focal_samples"]) == 8
        assert [c["count"] for c in data["focal_clusters"]] == [8]
    else:
        assert len(text.splitlines()) == 1 + 8


def _stacked(spectra):
    """The clusters of the roots -w of each row of spectra by ``_cluster``:
    (hex mean, multiplicity) in order of creation."""
    means, mults, counts = _cluster(-np.asarray(spectra, dtype=float))
    return [[(m.hex(), k) for m, k in zip(row[:c], mult[:c])]
            for row, mult, c in zip(means.tolist(), mults.tolist(), counts.tolist())]


def _expected(spectra):
    """The same by the nested-list rule on the roots as Python complex
    numbers, whose means are real."""
    clusters = [nested_clusters([complex(-w) for w in row]) for row in spectra]
    assert all(m.imag == 0.0 for row in clusters for m, _ in row)
    return [[(m.real.hex(), k) for m, k in row] for row in clusters]


def test_clustering_matches_the_nested_rule_on_random_spectra(rng):
    values = rng.normal(size=(4000, 4)) * rng.choice([1e-3, 1.0, 1e3], size=(4000, 1))
    values[::3, 1] = values[::3, 0] * (1 + 4e-7)        # within the cluster radius
    values[::5, 2] = values[::5, 1] + 1.5e-6            # near the edge of it
    values[::7] = -1.0                                  # a quadruple root
    values[::11, :2] = 0.0                              # a double zero
    values[::13, 0] = -0.0
    values[::17] = [1.0, 1.0 + 9e-7, 1.0 + 1.9e-6, 1.0 + 2.8e-6]  # a chain of near roots
    values[::19, :2] = [0.0, 1e-6]                      # exactly the cluster radius apart
    spectra = -rng.permuted(values, axis=1)
    got = _stacked(spectra)
    assert got == _expected(spectra)
    assert {len(r) for r in got} == {1, 2, 3, 4}


@pytest.mark.parametrize("name,n,count", [("light_cone", 5, 3), ("light_cone", 4, 4),
                                          ("null_hyperplane", 5, 3),
                                          ("circle_wavefront", 4, 4)])
def test_clustering_matches_the_nested_rule_on_engine_spectra(name, n, count):
    # the cone's roots are one root of multiplicity n - 2, the null plane's
    # are all zero, the wavefront's two simple ones
    imm = catalog.build(name, n=n)
    columns = _affinors(imm, parameter_grid(imm, [count] * imm.params)[1],
                        AmbientModel.standard(n), 1.0, None)
    expected = _expected(columns.spectra)
    assert _stacked(columns.spectra) == expected
    if name != "circle_wavefront":
        assert {tuple(k for _, k in r) for r in expected} == {(n - 2,)}
    roots = [root_bits(nested_cluster_roots([complex(-w) for w in row])) for row in columns.spectra]
    an = lightlike_affinor(imm, columns.us[columns.members[0]])
    assert root_bits(an.roots) == roots[0]
    focal = focal_map(imm, [count] * imm.params)
    assert ([(x.hex(), k) for x, k in zip(focal.x.tolist(), focal.multiplicity.tolist())]
            == [(x, k) for row in roots for x, _, k, _ in row])
