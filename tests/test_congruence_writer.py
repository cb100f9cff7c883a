"""Identity gate of the congruence writer and of its stacked roots.

``congruence`` clusters the roots of every grid point in one stacked pass
and turns every real root into its singular point in one stacked unembed.
The oracle here is the per-sample loop it replaced: each point's roots by
the nested-list rule of ``_oracles.nested_cluster_roots`` on the Jacobi
spectrum of its symmetric part if its operator passes the symmetry test,
else on its Durand-Kerner roots, its singular points by ``congruence_singular_points``
and ``darboux_unembed`` one at a time, CSV cells by the per-cell rule and
JSON by ``json.dumps(payload, sort_keys=True, indent=1)``.  Both must give
the same bytes for every shipped congruence scene, the generated benchmark
copies and a grid with a failing point.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pseudoconformal import catalog, cli, conformal, congruence
from pseudoconformal.cli import _build_object, _resolve_grid, load_scene, main
from pseudoconformal.conformal import AmbientModel, AtInfinity, ProjectivePoint, darboux_unembed
from pseudoconformal.congruence import congruence_affinor, congruence_singular_points, stratify
from pseudoconformal.errors import ConvergenceError, GeometryError, NotOnQuadricError
from pseudoconformal.hypersurface import parameter_grid
from pseudoconformal.lightlike import SYMMETRY_TOL
from pseudoconformal.linalg import (MAX_ROOT_ORDER, char_poly, cluster_roots, durand_kerner,
                                    jacobi_eigh)

from _oracles import nested_cluster_roots, root_bits
from test_classify_writer import assert_same
from test_congruence import analyses

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "scripts"))
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import workloads
    from compare_outputs import ERROR_SCENES
finally:
    del sys.path[:2]


def root_values(an):
    """The unclustered roots of a congruence analysis: the negated Jacobi
    spectrum of its operator's symmetric part where the operator passes
    lightlike's symmetry test, else its negated Durand-Kerner eigenvalues."""
    lam = an.shape_operator
    if an.symmetry_defect <= SYMMETRY_TOL * (1.0 + np.abs(lam).max()):
        return -jacobi_eigh(0.5 * (lam + lam.T))[0].astype(complex)
    return -durand_kerner(char_poly(lam))


def nested_roots(an):
    """The roots of a congruence analysis by the nested-list rule."""
    return nested_cluster_roots(list(root_values(an)))


def oracle(scene_path, fmt) -> tuple:
    """The congruence output of a scene by the per-sample loop, and in CSV
    the text of its leaf side file or None; raises what the run fails with."""
    scene = load_scene(str(scene_path))
    cong, counts = _resolve_grid(scene, _build_object(scene))
    model = AmbientModel.standard(cong.n)
    header = ([f"u{i}" for i in range(1, cong.params + 1)]
              + ["defect", "root_index", "root_re", "root_im", "multiplicity", "real", "focal"]
              + [f"f{i}" for i in range(1, cong.n + 1)])
    rows, samples, worst = [], [], 0.0
    grid = parameter_grid(cong, counts)[1]
    for u, an in zip(grid, analyses(cong, grid, model)):
        if isinstance(an, Exception):
            raise an
        roots = nested_roots(an)
        assert root_bits(an.roots) == root_bits(roots)
        worst = max(worst, an.symmetry_defect)
        samples.append({"u": [float(v) for v in u], "defect": an.symmetry_defect,
                        "roots": [{"x": [r.value.real, r.value.imag],
                                   "multiplicity": r.multiplicity, "real": r.is_real}
                                  for r in roots]})
        for k, sp in enumerate(congruence_singular_points(an)):
            target = darboux_unembed(sp.point, model) if sp.is_real else None
            focal = (["complex"] + [""] * cong.n if target is None else
                     ["INF"] + [""] * cong.n if isinstance(target, AtInfinity) else
                     ["point"] + [float(v) for v in target])
            rows.append([float(v) for v in u] + [an.symmetry_defect, k, sp.x.real, sp.x.imag,
                                                 sp.multiplicity, int(sp.is_real)] + focal)
    leaf = scene.stratify and stratify(
        cong, np.asarray(scene.stratify["seed"], dtype=float),
        step=float(scene.stratify.get("step", 1e-2)), count=int(scene.stratify.get("count", 40)))
    if fmt == "csv":
        return ("".join(",".join(map(str, row)) + "\n" for row in [header] + rows),
                leaf and "".join(",".join(map(str, row)) + "\n" for row in [
                    ["index"] + header[: cong.params]]
                    + [[i] + list(p) for i, p in enumerate(leaf.parameters)]))
    payload = {"builtin": cong.name, "n": cong.n, "max_defect": worst, "samples": samples}
    if leaf:
        payload["leaf"] = {"seed": list(leaf.seed), "size": len(leaf.parameters),
                           "lightlike_fraction": leaf.lightlike_fraction,
                           "truncated": leaf.truncated,
                           "parameters": [list(p) for p in leaf.parameters]}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n", None


def check_scene(tmp_path, capsys, scene_path, fmt):
    """The CLI writes the oracle's bytes, or both fail with the same
    message and exit 3."""
    out = tmp_path / f"out.{fmt}"
    code = main(["congruence", "--scene", str(scene_path), "--out", str(out), "--format", fmt])
    err = capsys.readouterr().err
    try:
        expected, leaf = oracle(scene_path, fmt)
    except (GeometryError, ConvergenceError) as exc:
        assert code == 3 and not out.exists()
        assert err == f"numerical failure (congruence): {exc}\n"
        return None
    assert code == 0
    text = out.read_text()
    assert_same(text, expected)
    side = Path(f"{out}.leaf.csv")
    assert side.exists() == (leaf is not None)
    if leaf is not None:
        assert_same(side.read_text(), leaf)
    return text


def congruence_scenes():
    return sorted(p.name for p in (ROOT / "scenes").glob("*.json")
                  if json.loads(p.read_text())["kind"] == "congruence")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return workloads.generate("congruence", 3, str(tmp_path_factory.mktemp("congruence")))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", congruence_scenes())
def test_shipped_scenes(tmp_path, capsys, name, fmt):
    assert check_scene(tmp_path, capsys, ROOT / "scenes" / name, fmt) is not None


@pytest.mark.parametrize("copy", range(workloads.VARIANTS))
def test_generated_copies(tmp_path, capsys, generated, copy):
    assert generated[copy]
    for scene in generated[copy]:
        assert check_scene(tmp_path, capsys, scene.path, scene.slot.fmt) is not None


def error_scene(tmp_path, name):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(ERROR_SCENES[name]))
    return path


@pytest.fixture()
def failing_grid(tmp_path):
    return error_scene(tmp_path, "cone_past_one")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["cone_past_one", "cone_leaf_past_one"])
def test_failing_point_grid(tmp_path, capsys, name, fmt):
    # a grid point fails, or a point the leaf reaches
    assert check_scene(tmp_path, capsys, error_scene(tmp_path, name), fmt) is None


@pytest.mark.parametrize("at", [0, 2])
def test_a_root_off_the_quadric_before_the_failed_point_is_raised(tmp_path, capsys,
                                                                   monkeypatch, failing_grid, at):
    # the grid's first failed point is its fourth, after 3 real roots; a
    # root off the quadric before it is the first failure in grid order
    def unembed(x, model):
        points, ideal, failures = conformal._unembed(x, model)
        assert len(x) == 3
        return points, ideal, {**failures, at: NotOnQuadricError(f"root {at} is off")}

    monkeypatch.setattr(cli, "_unembed", unembed)
    assert main(["congruence", "--scene", str(failing_grid)]) == 3
    assert capsys.readouterr().err == f"numerical failure (congruence): root {at} is off\n"


def test_one_clustering_pass_and_no_unembed_per_sample(tmp_path, capsys, monkeypatch):
    # the command line maps points and singular points in columns: it calls
    # neither one-point map, and imports neither
    calls = {"cluster": 0, "darboux_embed": 0, "darboux_unembed": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(congruence, "_cluster", counted("cluster", congruence._cluster))
    for name in ("darboux_embed", "darboux_unembed"):
        assert not hasattr(cli, name)
        monkeypatch.setattr(conformal, name, counted(name, getattr(conformal, name)))
    out = tmp_path / "out.csv"
    assert main(["congruence", "--scene", str(ROOT / "scenes" / "conecongruence4.json"),
                 "--out", str(out), "--format", "csv"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 4 ** 3  # one double root per line
    scene = tmp_path / "points.json"
    scene.write_text(json.dumps({"kind": "points", "n": 3, "points": [[0, 1, -2], [3, 0.5, 1]]}))
    assert main(["embed", "--scene", str(scene), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2
    assert calls == {"cluster": 1, "darboux_embed": 0, "darboux_unembed": 0}


def test_singular_points_are_the_lines_points():
    model = AmbientModel.standard(4)
    cong = catalog.build("twisted_congruence")
    for an in analyses(cong, parameter_grid(cong, [3, 3, 3])[1], model):
        for sp, root in zip(congruence_singular_points(an), an.roots):
            a0, a1 = an.line
            assert sp.x == root.value and sp.multiplicity == root.multiplicity
            if root.is_real:
                assert sp.point.coords.tobytes() == ProjectivePoint(
                    a1 + root.real_value * a0).coords.tobytes()
            else:
                assert sp.point is None


def catalog_grids():
    return [(name, n) for name, entry in sorted(catalog.CATALOG.items())
            if entry.kind == "congruence" for n in (3, 4, 5) if not entry.dims or n in entry.dims]


@pytest.mark.parametrize("name,n", catalog_grids())
def test_roots_match_the_nested_rule_on_catalog_grids(name, n):
    # the normal congruences' operators pass the symmetry test at every grid
    # point and take their roots from the Jacobi spectrum, the twisted one's
    # from Durand-Kerner
    cong = catalog.build(name, n=n)
    results = analyses(cong, parameter_grid(cong, [3] * cong.params)[1], AmbientModel.standard(n))
    assert not [r for r in results if isinstance(r, Exception)]
    for an in results:
        symmetric = an.symmetry_defect <= SYMMETRY_TOL * (1.0 + np.abs(an.shape_operator).max())
        assert symmetric == (name != "twisted_congruence")
        values = root_values(an)
        expected = root_bits(nested_cluster_roots(list(values)))
        assert root_bits(an.roots) == expected
        assert root_bits(cluster_roots(values)) == expected


def test_the_engine_takes_screens_up_to_the_root_order_limit():
    # the parallel congruence's operator is zero: one root 0 of multiplicity n - 2
    n = MAX_ROOT_ORDER + 2
    an = congruence_affinor(catalog.build("parallel_null_congruence", n=n), np.zeros(n - 1))
    assert [(r.multiplicity, r.is_real) for r in an.roots] == [(MAX_ROOT_ORDER, True)]
    with pytest.raises(ValueError, match=f"limited to n <= {n}"):
        congruence_affinor(catalog.build("parallel_null_congruence", n=n + 1), np.zeros(n))
