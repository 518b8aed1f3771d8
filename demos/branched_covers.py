#!/usr/bin/env python3
"""Homology of cyclic branched covers, computed three independent ways.

The n-fold cyclic branched cover of a two-bridge knot is a closed
3-manifold; the order of its first homology group can be computed from

  1. a finite presentation of the fundamental group (abelianized to a
     circulant; the order is the cyclic resultant of its symbol),
  2. the resultant of the Alexander polynomial with t^n - 1, and
  3. for the four-parameter genus-2 family at n = 3, a closed-form
     determinant table.

Agreement of the three is one of the package's acceptance checks; this
script shows the machinery on a couple of named examples, including the
knot whose triple cover is the Poincare homology sphere, and a cover
whose homology is infinite.
"""
from bridgecover.presentations import (
    abelianization_matrix,
    genus_one_presentation,
    h1_order,
    mv_presentation,
)
from bridgecover.goeritz import table_formula
from bridgecover.twobridge import h1_cyclic_cover_order


def main():
    # The (2,5) torus knot: its triple branched cover is the Poincare
    # homology sphere, so every homology group below comes out trivial.
    q = s = t = l = 1
    pres = mv_presentation(q, s, t, l, 3)
    print(f"presentation for the triple cover at (q,s,t,l) = (1,1,1,1):")
    print(f"  generators {pres.generators}")
    matrix = abelianization_matrix(pres)
    for row in matrix:
        print("   ", "  ".join(f"{e!s:>3}" for e in row))
    print(f"  |H_1| via presentation      : {h1_order(pres)}")
    closed = abs(table_formula("L", "*,*,*", {"q": q, "s": s, "t": t, "l": l}))
    print(f"  |H_1| via closed form       : {closed}")
    oracle = h1_cyclic_cover_order([-2 * q, 2 * s, -2 * t, 2 * l], 3)
    print(f"  |H_1| via Alexander resultant: {oracle}")
    print()

    # Covers of the trefoil (genus-one presentation, parameters k = l = 1):
    # the homology orders cycle with the cover degree, and the 6-fold cover
    # has infinite first homology because Alexander roots are 6th roots of
    # unity.
    print("covers of the trefoil:")
    for n in range(2, 8):
        via_pres = h1_order(genus_one_presentation(1, 1, n))
        via_res = h1_cyclic_cover_order([2, -2], n)
        print(f"  n = {n}: presentation {via_pres!s:>8}   resultant {via_res}")
    print()

    # A heavier genus-2 point, all three ways.
    q, s, t, l = 2, 1, 2, 1
    vals = (
        h1_order(mv_presentation(q, s, t, l, 3)),
        abs(table_formula("L", "*,*,*", {"q": q, "s": s, "t": t, "l": l})),
        h1_cyclic_cover_order([-2 * q, 2 * s, -2 * t, 2 * l], 3),
    )
    print(f"triple cover at (q,s,t,l) = ({q},{s},{t},{l}): {vals}"
          f"  {'AGREE' if len(set(vals)) == 1 else 'DISAGREE'}")


if __name__ == "__main__":
    main()
