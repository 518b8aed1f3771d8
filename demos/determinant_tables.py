#!/usr/bin/env python3
"""Exact symbolic determinants of the checkerboard star matrices.

The two pretzel-like families studied here come with block "star"
matrices built from checkerboard colorings.  Their determinants obey
closed polynomial formulas, and the tabulated resolution rows satisfy an
additivity identity det(crossing) = det(0-smoothing) + det(inf-smoothing)
that drives the quasi-alternating recursion.  Everything below is exact
integer/polynomial arithmetic - no floating point anywhere.
"""
from bridgecover.goeritz import (
    build_A_star,
    build_L_star,
    det_exact,
    table_formula,
    table_row,
    verify_additivity,
    verify_substitution_identities,
)


def main():
    # A single evaluation: matrix determinant against the closed form.
    q, s, t = 2, 3, 2
    matrix = build_A_star(q, s, t)
    det = det_exact(matrix)
    formula = table_formula("A", "*,*,*", {"q": q, "s": s, "t": t})
    print(f"three-slot family at (q,s,t) = ({q},{s},{t}):")
    print(f"  star matrix size {matrix.size}x{matrix.size}"
          f" ({matrix.provenance})")
    print(f"  |det| by two scalar continuants   : {abs(det)}")
    print(f"  closed form 3(-t - q + 3qst)^2    : {abs(formula)}")
    print()

    # The four-parameter family, symbolically: a tabulated row carries a
    # polynomial in (q, s, t, l), and the additivity identities hold as
    # polynomial identities, not just numerically.
    row = table_row("L", "*,*,*")
    print(f"four-slot star row polynomial: {row.poly}")
    print()
    for family in ("A", "L"):
        report = verify_additivity(family)
        status = "all PASS" if report.all_ok else "FAILURES"
        print(f"additivity suite for family {family}: "
              f"{len(report.checks)} identities, {status}")
        for check in report.checks[:2]:
            print(f"    {check.name}: {check.statement}")
        print("    ...")
    print()

    # Substitution/independence identities: each is a polynomial that must
    # reduce to zero.
    report = verify_substitution_identities()
    print(f"substitution identities: {len(report.checks)} checks,"
          f" {'all PASS' if report.all_ok else 'FAILURES'}")
    grid_sample = [(1, 1, 1, 1), (2, 1, 2, 1), (3, 2, 1, 2)]
    print("spot check |det| = formula on the L family:")
    for q, s, t, l in grid_sample:
        point = {"q": q, "s": s, "t": t, "l": l}
        lhs = abs(det_exact(build_L_star(q, s, t, l)))
        rhs = abs(table_formula("L", "*,*,*", point))
        print(f"  (q,s,t,l) = ({q},{s},{t},{l}): {lhs} = {rhs}"
              f"  {'ok' if lhs == rhs else 'MISMATCH'}")


if __name__ == "__main__":
    main()
