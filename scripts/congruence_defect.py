"""Integrability analysis of a built-in null-line congruence: symmetry
defect over a grid, characteristic roots, and one leaf of the stratification
when the congruence is normal.

Example:
    python scripts/congruence_defect.py --builtin twisted_congruence
"""

import argparse

import numpy as np

from pseudoconformal import catalog
from pseudoconformal.congruence import (
    congruence_affinor,
    integrability_defect,
    stratify,
)
from pseudoconformal.errors import NonIntegrableError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--builtin", default="cone_normal_congruence")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--grid", type=int, nargs="+", default=None)
    args = parser.parse_args()

    cong = catalog.build(args.builtin, n=args.n)
    counts = args.grid or [4] * cong.params

    defect = integrability_defect(cong, counts)
    print(f"{cong.name} (n={cong.n}): max symmetry defect {defect:.3e} "
          f"over a {'x'.join(map(str, counts))} grid")

    center = np.array([0.5 * (lo + hi) for lo, hi in cong.domain])
    an = congruence_affinor(cong, center)
    print(f"  shape operator at u={center.round(4).tolist()}:")
    print(f"{np.array_str(an.shape_operator, precision=6)}")
    for r in an.roots:
        tag = "real" if r.is_real else "complex"
        print(f"  root {r.value:.6f} (mult {r.multiplicity}, {tag})")

    try:
        leaf = stratify(cong, center)
        print(f"  leaf through the center: {len(leaf.parameters)} samples, "
              f"lightlike fraction {leaf.lightlike_fraction:.3f}")
    except NonIntegrableError as exc:
        print(f"  stratification: {exc}")


if __name__ == "__main__":
    main()
