"""Focal analysis of a built-in lightlike hypersurface: shape operator,
singular points on one generator, and the merged focal set over a grid.

Example:
    python scripts/focal_scan.py --builtin tilted_null_family --grid 10 10
"""

import argparse

import numpy as np

from pseudoconformal import catalog
from pseudoconformal.conformal import AmbientModel, darboux_unembed
from pseudoconformal.lightlike import (
    degeneracy_check,
    focal_map,
    lightlike_affinor,
    singular_points,
    torse_directions,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--builtin", default="light_cone")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--grid", type=int, nargs="+", default=None)
    args = parser.parse_args()

    imm = catalog.build(args.builtin, n=args.n)
    model = AmbientModel.standard(imm.n)
    center = np.array([0.5 * (lo + hi) for lo, hi in imm.domain])

    an = lightlike_affinor(imm, center)
    print(f"{imm.name} (n={imm.n}) at u={center.round(4).tolist()}")
    print(f"  shape operator:\n{np.array_str(an.shape_operator, precision=6)}")
    print(f"  symmetry defect: {an.symmetry_defect:.2e}, det: {an.determinant:.6g}")
    for sp in singular_points(an):
        target = darboux_unembed(sp.point, model)
        print(f"  root x={sp.x:+.6f} (mult {sp.multiplicity}) -> {target}")
    for fam in torse_directions(an):
        print(f"  torse family at root {fam.root:+.6f}: "
              f"directions {fam.directions.round(6).tolist()}")

    rep = degeneracy_check(imm, an)
    print(f"  tangent span turning rate along generator: {rep.generator_rate:.2e} "
          f"(rank {rep.tangent_rank})")

    counts = args.grid or [8] * imm.params
    focal = focal_map(imm, counts)
    print(f"  focal clusters over a {'x'.join(map(str, counts))} grid:")
    for c in focal.clusters:
        where = "ideal" if c.at_infinity else np.round(c.representative, 6).tolist()
        print(f"    {c.count:4d} samples -> {where}")


if __name__ == "__main__":
    main()
