"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time
from pathlib import Path

import numpy as np

from pseudoconformal import catalog
from pseudoconformal.cli import main as cli_main
from pseudoconformal.conformal import (
    AmbientModel,
    darboux_embed,
    darboux_unembed,
    quadric_residual,
)
from pseudoconformal.congruence import congruence_affinor, stratify
from pseudoconformal.frames import connection_forms, structure_residual
from pseudoconformal.hypersurface import survey
from pseudoconformal.lightlike import (
    degeneracy_check,
    focal_map,
    lightlike_affinor,
    lightlike_frame_field,
    singular_points,
    torse_directions,
)

from _oracles import eigh_jet, generator_rank_scan

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def grid_points(obj, counts):
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(obj.domain, counts)]
    for idx in np.ndindex(*[len(ax) for ax in axes]):
        yield np.array([axes[a][i] for a, i in enumerate(idx)])


def test_criterion_01_embedding_correctness():
    rng = np.random.default_rng(1)
    worst_residual = 0.0
    worst_roundtrip = 0.0
    for n in (3, 4, 5):
        model = AmbientModel.standard(n)
        for _ in range(10_000):
            p = rng.uniform(-3.0, 3.0, size=n)
            x = darboux_embed(p, model)
            worst_residual = max(worst_residual, abs(quadric_residual(x, model)))
            back = darboux_unembed(x, model)
            worst_roundtrip = max(worst_roundtrip, float(np.abs(back - p).max()))
    assert worst_residual < 1e-12
    assert worst_roundtrip < 1e-12
    report(1, f"embedding residual {worst_residual:.2e}, "
              f"round-trip {worst_roundtrip:.2e} over 3x10^4 points (n=3,4,5)")


def test_criterion_02_frame_adaptation_gram_residual():
    from pseudoconformal.frames import adapt_lightlike_frame

    cases = [
        ("light_cone", 3, (20, 20)),
        ("null_hyperplane", 4, (7, 7, 7)),
        ("tilted_null_family", 3, (18, 18)),
    ]
    total = 0
    worst = 0.0
    for name, n, counts in cases:
        imm = catalog.build(name, n=n)
        model = AmbientModel.standard(n)
        for u in grid_points(imm, counts):
            a0, rows, _, generator = eigh_jet(imm, u, model)
            frame = adapt_lightlike_frame(a0, rows, model, generator=generator)
            worst = max(worst, frame.gram_residual())
            total += 1
    assert total >= 1000
    assert worst < 1e-10
    report(2, f"gram residual {worst:.2e} over {total} lightlike adaptations")


def test_criterion_03_connection_and_structure_second_order():
    h = 2e-3
    samples = []
    for name, counts in [("light_cone", (4, 3)), ("tilted_null_family", (4, 3))]:
        imm = catalog.build(name)
        model = AmbientModel.standard(imm.n)
        field = lightlike_frame_field(imm)
        for u in grid_points(imm, counts):
            rel = {}
            struct = {}
            for step in (h, h / 2):
                forms = connection_forms(field, u, model, step=step)
                named = forms.named_relation_residuals()
                light = forms.lightlike_relation_residuals()
                rel[step] = max(max(named.values()), max(light.values()))
                struct[step] = structure_residual(field, u, model, step=step)
            samples.append((rel[h], rel[h / 2], struct[h], struct[h / 2]))
    assert len(samples) >= 20
    rel_ratios = [a / b for a, b, _, _ in samples if b > 1e-11]
    struct_ratios = [c / d for _, _, c, d in samples if d > 1e-11]
    assert len(rel_ratios) >= 20 and len(struct_ratios) >= 20
    med_rel = float(np.median(rel_ratios))
    med_struct = float(np.median(struct_ratios))
    assert 3.0 < med_rel < 5.5
    assert 3.0 < med_struct < 5.5
    assert max(b for _, b, _, _ in samples) < 1e-4
    report(3, f"relation/structure residuals shrink x{med_rel:.2f}/x{med_struct:.2f} "
              f"when h halves ({len(samples)} samples)")


def test_criterion_04_causal_classification():
    rep = survey(catalog.build("spacelike_hypersphere"), (20, 20))
    assert rep.pure == "spacelike"
    rep = survey(catalog.build("timelike_hypersphere"), (20, 20))
    assert rep.pure == "timelike"
    rep = survey(catalog.build("light_cone"), (20, 20))
    assert rep.pure == "lightlike"
    sphere = survey(catalog.build("euclidean_sphere"), (100, 100))
    assert sphere.mixed
    assert sphere.counts["spacelike"] > 0 and sphere.counts["timelike"] > 0
    crossings = [t for t in sphere.transitions if t.axis == 0]
    first = [t for t in crossings if t.u_low[0] <= math.pi / 4 <= t.u_high[0]]
    second = [t for t in crossings if t.u_low[0] <= 3 * math.pi / 4 <= t.u_high[0]]
    assert first and second
    assert len(first) + len(second) == len(crossings)
    report(4, "hyperspheres classify pure space/timelike, cone pure lightlike, "
              f"round sphere mixed with both transition circles "
              f"({len(first)}+{len(second)} cells)")


def test_criterion_05_affinor_symmetry_across_catalog():
    worst = 0.0
    cases = [(name, None) for name in catalog.lightlike_entries()]
    cases += [("light_cone", 4), ("light_cone", 5), ("null_hyperplane", 5)]
    for name, n in cases:
        imm = catalog.build(name, n=n)
        for frac in (0.25, 0.4, 0.6, 0.8):
            u = np.array([lo + frac * (hi - lo) for lo, hi in imm.domain])
            an = lightlike_affinor(imm, u)
            worst = max(worst, an.symmetry_defect)
    assert worst < 1e-6
    report(5, f"shape-operator symmetry defect {worst:.2e} across lightlike "
              "catalog examples (analytic jets)")


def test_criterion_06_tangential_degeneracy_and_real_roots():
    # the Darboux image is tangentially degenerate of rank n - 2: at every
    # point of the 3^d grids, its tangent span turns in n - 2 directions and
    # not along the generator (rate relative to the fastest turning)
    worst_rate, points = 0.0, 0
    cases = [(name, None) for name in catalog.lightlike_entries()]
    cases += [(name, n) for name in ("light_cone", "null_hyperplane") for n in (3, 4, 5, 6)]
    for name, n in cases:
        imm = catalog.build(name, n=n)
        for u in grid_points(imm, [3] * imm.params):
            rep = degeneracy_check(imm, lightlike_affinor(imm, u))
            worst_rate, points = max(worst_rate, rep.generator_rate), points + 1
            assert rep.tangent_rank == imm.n - 2
    assert worst_rate <= 1e-13
    for n in (3, 4, 5):
        for name in ("light_cone", "null_hyperplane"):
            imm = catalog.build(name, n=n)
            u = np.array([lo + 0.6 * (hi - lo) for lo, hi in imm.domain])
            an = lightlike_affinor(imm, u)
            assert sum(r.multiplicity for r in an.roots) == n - 2
            assert all(r.is_real for r in an.roots)
    report(6, f"tangent spans fixed along generators at {points} points, rank n-2 "
              f"(rate {worst_rate:.2e}); n-2 real singular points for n=3,4,5")


def test_criterion_07_focal_oracle_and_gauge_independence():
    worst_match = 0.0
    for name, n, u in [
        ("light_cone", 3, np.array([1.0, 0.6])),
        ("tilted_null_family", 3, np.array([1.3, 0.7])),
        ("circle_wavefront", 4, np.array([0.6, 0.7, 0.5])),
        ("null_hyperplane", 3, np.array([0.25, 0.4])),
    ]:
        imm = catalog.build(name, n=n)
        model = AmbientModel.standard(n)
        an = lightlike_affinor(imm, u)
        roots = sorted(r.value.real for r in an.roots)
        scan = sorted(generator_rank_scan(imm, u, model, kind="hypersurface"))
        assert len(scan) == len(roots)
        for r, s in zip(roots, scan):
            worst_match = max(worst_match, abs(r - s))
    assert worst_match < 1e-4

    model = AmbientModel.standard(3)
    cone = catalog.build("light_cone")
    focal = focal_map(cone, (6, 6))
    finite = [c for c in focal.clusters if not c.at_infinity]
    assert len(finite) == 1 and not focal.errors
    assert np.abs(finite[0].representative).max() < 1e-6

    worst_gauge = 0.0
    for name, u in [("light_cone", np.array([1.0, 0.6])),
                    ("tilted_null_family", np.array([1.1, 0.8]))]:
        imm = catalog.build(name)
        p1 = darboux_unembed(
            singular_points(lightlike_affinor(imm, u))[0].point, model
        )
        p2 = darboux_unembed(
            singular_points(
                lightlike_affinor(imm, u, generator_scale=2.7)
            )[0].point,
            model,
        )
        worst_gauge = max(worst_gauge, float(np.abs(p1 - p2).max()))
    assert worst_gauge < 1e-6
    report(7, f"roots match brute-force rank scan to {worst_match:.2e}; cone "
              "focal set merges to the vertex; focal points gauge-independent "
              f"to {worst_gauge:.2e}")


def test_criterion_08_torse_orthogonality():
    imm = catalog.build("circle_wavefront")
    worst = 0.0
    for u in (np.array([0.6, 0.7, 0.5]), np.array([0.45, 0.85, 0.35]),
              np.array([0.7, 0.5, 0.65])):
        an = lightlike_affinor(imm, u)
        fams = torse_directions(an)
        assert len(fams) == 2  # distinct roots at generic points
        d1, d2 = fams[0].directions[0], fams[1].directions[0]
        worst = max(worst, abs(float(d1 @ d2)))
    assert worst < 1e-8
    report(8, f"torse eigendirections orthogonal to {worst:.2e} on "
              "distinct-root wavefront points")


def test_criterion_09_congruence_integrability_dichotomy():
    worst_normal_defect = 0.0
    worst_imag = 0.0
    for n in (3, 4):
        cong = catalog.build("cone_normal_congruence", n=n)
        for u in grid_points(cong, (3,) * cong.params):
            an = congruence_affinor(cong, u)
            worst_normal_defect = max(worst_normal_defect, an.symmetry_defect)
            assert sum(r.multiplicity for r in an.roots) == n - 2
            worst_imag = max(
                worst_imag, max(abs(r.value.imag) for r in an.roots)
            )
    assert worst_normal_defect < 1e-6
    assert worst_imag < 1e-6

    twisted = catalog.build("twisted_congruence")
    min_defect = np.inf
    found_pair = False
    for u in grid_points(twisted, (3, 3, 3)):
        an = congruence_affinor(twisted, u)
        min_defect = min(min_defect, an.symmetry_defect)
        assert sum(r.multiplicity for r in an.roots) == 2
        complex_roots = sorted(
            (r for r in an.roots if not r.is_real), key=lambda r: r.value.imag
        )
        if len(complex_roots) == 2 and complex_roots[0].value == complex_roots[
            1
        ].value.conjugate():
            found_pair = True
    assert min_defect > 0.1
    assert found_pair
    report(9, f"normal congruence defect {worst_normal_defect:.2e} with real "
              f"roots (|Im|<{worst_imag:.2e}); twisted congruence defect "
              f">{min_defect:.2f} with conjugate complex pair")


def test_criterion_10_stratification():
    cong = catalog.build("cone_normal_congruence")
    spreads = []
    fractions = []
    for seed in (np.array([0.1, 0.4]), np.array([-0.2, -0.3])):
        leaf = stratify(cong, seed, step=1e-2, count=40)
        ts = [p[1] for p in leaf.parameters]
        spreads.append(max(ts) - min(ts))
        fractions.append(leaf.lightlike_fraction)
    assert max(spreads) < 1e-5
    assert min(fractions) >= 0.99
    report(10, f"leaves reproduce single cones (vertex-parameter spread "
               f"{max(spreads):.2e}) and sweep lightlike sets "
               f"({min(fractions):.1%} of samples)")


def test_criterion_11_cli_determinism(tmp_path):
    started = time.monotonic()
    commands = {
        "embed_points3.json": "embed",
        "spacelike_slice3.json": "classify",
        "timelike_hyperplane3.json": "classify",
        "spacelike_hypersphere3.json": "classify",
        "timelike_hypersphere3.json": "classify",
        "sphere_mixed3.json": "classify",
        "lightcone3.json": "lightlike",
        "lightcone4.json": "lightlike",
        "nullplane3.json": "lightlike",
        "tilted3.json": "lightlike",
        "wavefront4.json": "lightlike",
        "parallel3.json": "congruence",
        "conecongruence3.json": "congruence",
        "conecongruence4.json": "congruence",
        "twisted4.json": "congruence",
    }
    scene_files = sorted(p.name for p in SCENES.glob("*.json"))
    assert scene_files == sorted(commands)
    for scene, command in sorted(commands.items()):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{scene}.{tag}.out"
            t0 = time.monotonic()
            code = cli_main([command, "--scene", str(SCENES / scene),
                             "--out", str(out)])
            assert code == 0, f"{command} failed on {scene}"
            assert time.monotonic() - t0 < 10.0, f"{scene} exceeded 10s"
            blob = out.read_bytes()
            leaf = Path(str(out) + ".leaf.csv")
            if leaf.exists():
                blob += leaf.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1], f"nondeterministic output for {scene}"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(11, f"all {len(commands)} catalog scenes byte-identical across "
               f"double runs in {elapsed:.1f}s")
