from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from bridgecover.intlinalg import det_bareiss
from bridgecover.twobridge import (
    INFINITE,
    EvenExpansion,
    alexander,
    cf_value,
    even_expansion_from_fraction,
    h1_cyclic_cover_order,
    knot_name,
    link_determinant,
    mirror_terms,
    same_knot,
    seifert_matrix,
)

NONZERO = [a for a in range(-3, 4) if a != 0]


def test_cf_value_examples():
    assert cf_value([2, 2]) == Fraction(5, 2)
    assert cf_value([2, -2]) == Fraction(3, 2)
    assert cf_value([-2, 2, -2, 2]) == Fraction(-5, 4)
    assert cf_value([3]) == 3


def test_cf_value_twist_family():
    # [2k, -2l] evaluates to (4kl - 1)/(2l).
    for k in range(1, 5):
        for l in range(1, 5):
            assert cf_value([2 * k, -2 * l]) == Fraction(4 * k * l - 1, 2 * l)


def test_cf_value_rejects_empty_and_blowup():
    with pytest.raises(ValueError):
        cf_value([])
    with pytest.raises(ValueError):
        cf_value([1, -1])  # 1 + 1/(-1) = 0 ... then outer 1/0 at [0, ...]? direct: 1-1=0 fine
        cf_value([0, 0])  # 0 + 1/0


def test_mirror_negates_value():
    for terms in ([2, 2], [2, -2], [-2, 2, -2, 2], [4, 6, -2, 2]):
        assert cf_value(mirror_terms(terms)) == -cf_value(terms)


def test_same_knot_examples():
    assert same_knot(Fraction(5, 2), Fraction(5, 3))  # figure-eight, amphichiral
    # b(3,2) = b(3,-1) is the mirror of b(3,1): equal to -3/1, not to 3/1.
    assert same_knot(Fraction(3, 2), Fraction(-3, 1))
    assert not same_knot(Fraction(3, 2), Fraction(3, 1))
    assert not same_knot(Fraction(3, 2), Fraction(-3, 2))  # chiral trefoil pair
    assert same_knot(Fraction(7, 2), Fraction(7, 4))  # 4 = 2^-1 mod 7
    assert not same_knot(Fraction(7, 2), Fraction(7, 3))
    assert same_knot(Fraction(1, 1), Fraction(-1, 1))  # unknots


def test_same_knot_rejects_links():
    with pytest.raises(ValueError):
        same_knot(Fraction(4, 1), Fraction(4, 1))


def test_even_expansion_validation():
    with pytest.raises(ValueError):
        EvenExpansion([2, 3])
    with pytest.raises(ValueError):
        EvenExpansion([2, 2, 2])
    with pytest.raises(ValueError):
        EvenExpansion([2, 0])
    e = EvenExpansion([4, -2, 2, 6])
    assert e.genus == 2
    assert e.pairs == [(2, -1), (1, 3)]


def test_seifert_matrix_shape():
    assert seifert_matrix([2, -2]) == [[1, 1], [0, 1]]
    assert seifert_matrix([2, 2]) == [[1, 1], [0, -1]]
    v = seifert_matrix([-2, 2, -2, 2])
    assert v == [
        [-1, 1, 0, 0],
        [0, -1, 1, 0],
        [0, 0, -1, 1],
        [0, 0, 0, -1],
    ]


def test_alexander_examples():
    assert alexander([2, -2]) == [1, -1, 1]  # trefoil
    assert alexander([2, 2]) == [1, -3, 1]  # figure-eight
    # [-2,2,-2,2] is 5_1 = T(2,5): Delta = t^4 - t^3 + t^2 - t + 1.
    assert alexander([-2, 2, -2, 2]) == [1, -1, 1, -1, 1]


def test_alexander_degree_and_unit_at_one():
    for terms in itertools.product(NONZERO, repeat=2):
        e = EvenExpansion([2 * a for a in terms])
        delta = alexander(e)
        assert len(delta) - 1 == 2 * e.genus
        assert sum(delta) in (1, -1)
        assert delta[0] > 0


def test_alexander_matches_bareiss_at_integer_points():
    """The continuant equals det(V - t*V^T) by Bareiss at 2g+1 points, which
    fix a polynomial of degree 2g (up to the normalizing sign det V)."""
    rng = random.Random(20261018)
    halves = [a for a in range(-10, 11) if a != 0]
    for _ in range(40):
        genus = rng.randint(1, 8)
        e = EvenExpansion([2 * rng.choice(halves) for _ in range(2 * genus)])
        v = seifert_matrix(e)
        n = len(v)
        delta = alexander(e)
        sign = 1 if det_bareiss(v) > 0 else -1
        for t in range(-genus, genus + 1):
            m = [[v[i][j] - t * v[j][i] for j in range(n)] for i in range(n)]
            assert sign * det_bareiss(m) == sum(
                c * t ** k for k, c in enumerate(delta)), (e, t)


def test_determinant_law_genus_one_and_two():
    # |Delta(-1)| = |p| for every even expansion with half-terms in -3..3.
    for reps in (1, 2):
        for terms in itertools.product(NONZERO, repeat=2 * reps):
            e = EvenExpansion([2 * a for a in terms])
            assert link_determinant(e) == abs(e.fraction().numerator)


def test_h1_cyclic_cover_orders():
    # Figure-eight 3-fold cover: |Delta(z3) * Delta(z3^2)| = |(-4*z3)*(-4*z3^2)| = 16.
    assert h1_cyclic_cover_order([2, 2], 3) == 16
    # Trefoil 5-fold cover is the Poincare sphere.
    assert h1_cyclic_cover_order([2, -2], 5) == 1
    # 5_1 3-fold cover is also the Poincare sphere.
    assert h1_cyclic_cover_order([-2, 2, -2, 2], 3) == 1
    # Double cover order is the determinant.
    assert h1_cyclic_cover_order([-2, 2, -2, 2], 2) == 5
    # Trefoil 6-fold cover has infinite H_1 (Delta vanishes at a 6th root of unity).
    assert h1_cyclic_cover_order([2, -2], 6) is INFINITE
    assert h1_cyclic_cover_order([2, 2], 1) == 1
    with pytest.raises(ValueError):
        h1_cyclic_cover_order([2, 2], 0)


def test_h1_double_cover_equals_determinant():
    for terms in itertools.product(NONZERO, repeat=4):
        e = EvenExpansion([2 * a for a in terms])
        assert h1_cyclic_cover_order(e, 2) == abs(e.fraction().numerator)


def test_h1_mirror_invariance():
    for terms in ([2, 2], [2, -2], [-2, 2, -2, 2], [4, -2, 2, 6]):
        for n in (2, 3, 4, 5):
            assert h1_cyclic_cover_order(terms, n) == h1_cyclic_cover_order(mirror_terms(terms), n)


def test_even_expansion_from_fraction_roundtrip():
    for p in range(3, 50, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for sign in (1, -1):
                fr = Fraction(sign * p, q)
                e = even_expansion_from_fraction(fr)
                assert same_knot(e.fraction(), fr), (fr, e.terms)


def test_even_expansion_from_fraction_rejects():
    with pytest.raises(ValueError):
        even_expansion_from_fraction(Fraction(4, 3))
    with pytest.raises(ValueError):
        even_expansion_from_fraction(Fraction(1, 1))


def test_knot_names():
    assert knot_name(Fraction(-5, 4)) == "5_1"
    assert knot_name(Fraction(5, 2)) == "4_1"
    assert knot_name(Fraction(3, 1)) == "3_1"
    assert knot_name(Fraction(7, 2)) == "5_2"
    assert knot_name(Fraction(9, 5)) == "6_1"
    assert knot_name(Fraction(1, 1)) == "0_1"
    assert knot_name(Fraction(11, 2)) is None
