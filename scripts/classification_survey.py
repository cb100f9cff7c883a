"""Survey the causal character of a built-in hypersurface over its domain.

Example:
    python scripts/classification_survey.py --builtin euclidean_sphere --grid 60 30
"""

import argparse

from pseudoconformal import catalog
from pseudoconformal.hypersurface import survey


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--builtin", default="euclidean_sphere")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--grid", type=int, nargs="+", default=None)
    args = parser.parse_args()

    imm = catalog.build(args.builtin, n=args.n)
    counts = args.grid or [24] * imm.params
    report = survey(imm, counts)

    total = sum(report.counts.values())
    print(f"{imm.name} (n={imm.n}), {total} grid points")
    for kind, count in report.counts.items():
        if count:
            print(f"  {kind:28s} {count:6d}  ({count / total:.1%})")
    print(f"  transitions: {len(report.transitions)} cells")
    for t in report.transitions[:10]:
        print(f"    axis {t.axis}: {t.kinds[0]} -> {t.kinds[1]} "
              f"between u={t.u_low} and u={t.u_high}")
    if len(report.transitions) > 10:
        print(f"    ... {len(report.transitions) - 10} more")


if __name__ == "__main__":
    main()
