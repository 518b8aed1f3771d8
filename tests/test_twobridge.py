from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from bridgecover import intlinalg
from bridgecover.intlinalg import det_bareiss, resultant
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
from dense_lattice import (
    fold_cyclic_resultant,
    is_trace_form,
    sylvester_resultant,
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


def sylvester_order(delta, n):
    """|Res(1 + t + ... + t**(n-1), delta)| by the (n + deg delta - 1)-square
    Sylvester determinant: the reference for the oracle."""
    order = abs(sylvester_resultant([1] * n, delta))
    return order if order else INFINITE


half_terms = st.integers(1, 4).flatmap(lambda genus: st.lists(
    st.integers(-4, 4).filter(bool), min_size=2 * genus, max_size=2 * genus))


@given(half_terms, st.integers(2, 60))
@example([1, -1], 6)           # trefoil: Delta(t) = Phi_6
@example([1, -1], 60)
@example([-1, 1, -1, 1], 10)   # 5_1: Delta(t) = Phi_10
@example([-1, 1, -1, 1], 30)
@example([1, 1], 6)            # figure eight: never infinite
@settings(max_examples=60, deadline=None)
def test_h1_oracle_matches_the_sylvester_resultant(halves, n):
    terms = [2 * a for a in halves]
    assert h1_cyclic_cover_order(terms, n) == \
        sylvester_order(alexander(terms), n)


def test_h1_oracle_infinite_examples():
    for terms, n in (([2, -2], 6), ([2, -2], 60), ([-2, 2, -2, 2], 10),
                     ([-2, 2, -2, 2], 20)):
        assert sylvester_order(alexander(terms), n) is INFINITE
        assert h1_cyclic_cover_order(terms, n) is INFINITE


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       st.integers(-6, 6).filter(bool), st.integers(1, 40))
@example([-1], 1, 7)              # Hopf link: Delta(t) = t - 1
@example([1, -1, 1], -1, 12)      # T(2,4): 1 - t + t^2 - t^3
@example([0, -2], 1, 5)           # (1 - t)^2: palindromic of even degree
@settings(max_examples=80, deadline=None)
def test_cyclic_resultant_handles_links(low, lead, n):
    """A link's polynomial (f(1) = 0) is the reference's to answer, as the
    dense Sylvester determinant does; the library function refuses it
    unless it is palindromic of even degree, and then agrees."""
    # The constant term is shifted so that delta(1) = 0, as for a link.
    delta = low + [lead]
    delta[0] -= sum(delta)
    want = abs(sylvester_resultant([1] * n, delta))
    for f in (delta, delta + [0], [0] + delta):
        assert fold_cyclic_resultant(f, n) == want, f
        if is_trace_form(f):
            assert intlinalg.cyclic_resultant(f, n) == want, f
        else:
            with pytest.raises(ValueError, match="palindromic"):
                intlinalg.cyclic_resultant(f, n)
    # A constant, times a power of x; a zero top coefficient is trimmed.
    for f in ([lead], [0, lead]):
        assert intlinalg.cyclic_resultant(f + [0], n) == \
            abs(sylvester_resultant([1] * n, f)) == abs(lead) ** (n - 1), f
    assert intlinalg.cyclic_resultant([0, 0], n) == (1 if n == 1 else 0)


@given(st.lists(st.integers(-9, 9), max_size=9), st.booleans())
@example([], False)            # f = 0
@example([0, 0], False)        # f = 0 with zero coefficients to trim
@example([5], False)           # a constant
@example([-1, 1], True)        # x - 1, a link
@example([24, -78, 109], False)  # [24, -78, 109, -78, 24]
@settings(max_examples=120, deadline=None)
def test_cyclic_resultant_fold_at_small_n(half, link):
    """For every n <= deg f + 1, n = 1 and 2 included, f folded modulo
    x**n - 1 gives |Res(1 + x + ... + x**(n-1), f)| as the (n + deg f - 1)
    -square Sylvester determinant does.  Without ``link``, f is the
    palindromic half + reversed(half[:-1]) that ``cyclic_resultant`` takes,
    and it agrees too; with it, f is half with its constant term shifted so
    that f(1) = 0, which only the reference answers."""
    if link:
        f = [half[0] - sum(half)] + half[1:] if half else []
    else:
        f = half + half[-2::-1]
    trimmed = list(f)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    for n in range(1, len(trimmed) + 2):
        if trimmed:
            want = abs(sylvester_resultant([1] * n, trimmed))
        else:
            want = 1 if n == 1 else 0
        assert fold_cyclic_resultant(f, n) == want, (f, n)
        if not link:
            assert intlinalg.cyclic_resultant(f, n) == want, (f, n)


def test_h1_oracle_at_large_n_against_closed_forms():
    # Figure eight: |H_1| = 5 F_n^2 for even n and L_n^2 for odd n.
    fib, luc = [0, 1], [2, 1]
    for _ in range(10 ** 4 + 1):
        fib.append(fib[-1] + fib[-2])
        luc.append(luc[-1] + luc[-2])
    for n in (1000, 1001, 10 ** 4, 10 ** 4 + 1):
        want = 5 * fib[n] ** 2 if n % 2 == 0 else luc[n] ** 2
        assert h1_cyclic_cover_order([2, 2], n) == want
    # Trefoil: the orders repeat with period 6.
    for n in range(1994, 2006):
        assert h1_cyclic_cover_order([2, -2], n) == \
            h1_cyclic_cover_order([2, -2], n % 6 or 6)


def test_h1_oracle_calls_resultant_once(monkeypatch):
    """Each order is one resultant: of P and D, degrees p = (n - 1) // 2
    and genus, summing to at most 3 genus, when p <= 2 genus; of D and the
    doubled remainder, summing below 2 genus, otherwise."""
    calls = []
    monkeypatch.setattr(intlinalg, "resultant", lambda f, g: calls.append(
        (len(f) - 1, len(g) - 1)) or resultant(f, g))
    genus12 = [2, -4, 6, -2, 4, -6] * 4
    for terms, n in (([2, 2], 7), ([4, -2, 2, -4], 7), ([2, -4, 6, -8], 800),
                     ([2, -4, 2, -4, 6, -2, 4, -2], 300), (genus12, 3),
                     (genus12, 49), (genus12, 60)):
        calls.clear()
        assert h1_cyclic_cover_order(terms, n) is not INFINITE
        assert len(calls) == 1, (terms, n)
        genus, degrees = len(terms) // 2, sum(calls[0])
        if (n - 1) // 2 <= 2 * genus:
            assert calls[0] == ((n - 1) // 2, genus), (terms, n)
            assert degrees <= 3 * genus
        else:
            assert calls[0][0] == genus and degrees < 2 * genus, (terms, n)


def test_h1_oracle_determinants_stay_below_4g(monkeypatch):
    """The resultant the oracle hands over has degrees summing to at most 3
    genus (the order of its Sylvester matrix), whatever n."""
    degrees = []
    monkeypatch.setattr(intlinalg, "resultant", lambda f, g: degrees.append(
        len(f) + len(g) - 2) or resultant(f, g))
    rng = random.Random(7)
    for genus in (1, 2, 3, 4):
        for n in (2, 3, 17, 200, 1000):
            degrees.clear()
            terms = [2 * rng.choice(NONZERO) for _ in range(2 * genus)]
            h1_cyclic_cover_order(terms, n)
            assert len(degrees) <= 1, (terms, n)
            assert max(degrees, default=0) <= 3 * genus, (terms, n, degrees)


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
