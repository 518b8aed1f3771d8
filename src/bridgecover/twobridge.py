"""Two-bridge (rational) knots from continued fractions.

A term list [a1, a2, ..., am] encodes the continued fraction

    p/q = a1 + 1/(a2 + 1/(... + 1/am))

and hence the two-bridge knot or link b(p, q).  Term lists of even length
whose entries are all even, [2a1, 2b1, ..., 2am, 2bm], additionally encode a
genus-m Seifert surface obtained by plumbing m twisted annuli; from its
Seifert matrix we get the Alexander polynomial (a continuant, since
V - t*V^T is tridiagonal) and the exact order of the first homology of every
finite cyclic branched cover, |Res(1 + t + ... + t**(n-1), Alexander)| (Fox
1956), by ``intlinalg.cyclic_resultant``: one resultant, of degrees summing
to at most 3*genus, on the trace polynomial D (Alexander = t**genus D(t + 1/t)).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple, Union

# det_bareiss is unused here; perfbench's tracing test asserts twobridge.det_bareiss.
from .intlinalg import INFINITE, Infinite, cyclic_resultant, det_bareiss  # noqa: F401


def cf_value(terms: Sequence[int]) -> Fraction:
    """Evaluate a continued fraction [a1,...,am] to a reduced fraction.

    Works projectively (never divides), so zero partial quotients are fine
    anywhere except a fraction that collapses to 1/0 overall.
    """
    if not terms:
        raise ValueError("empty continued fraction")
    num, den = terms[-1], 1
    for a in reversed(terms[:-1]):
        # a + 1/(num/den) = (a*num + den)/num
        num, den = a * num + den, num
    if den == 0:
        raise ValueError(f"continued fraction {list(terms)} has value 1/0")
    return Fraction(num, den)


def mirror_terms(terms: Sequence[int]) -> List[int]:
    """Term list of the mirror-image knot: negate every entry."""
    return [-a for a in terms]


def _signed_q(fr: Fraction) -> Tuple[int, int]:
    """Normalize p/q to p > 0 by folding the sign into q; return (|p|, q mod |p|)."""
    p, q = fr.numerator, fr.denominator
    if p < 0:
        p, q = -p, -q
    return p, q % p if p > 1 else 0


def same_knot(f1: Fraction, f2: Fraction) -> bool:
    """Unoriented-equivalence test for two-bridge knots b(p, q).

    b(p, q) and b(p', q') are the same knot iff |p| = |p'| and
    q' is congruent to q or to q**-1 modulo p.  Mirror images (q vs -q)
    count as different knots unless amphichiral.
    """
    for f in (f1, f2):
        if f.numerator % 2 == 0:
            raise ValueError(f"numerator {f.numerator} is even: not a knot (two components)")
    p1, q1 = _signed_q(f1)
    p2, q2 = _signed_q(f2)
    if p1 != p2:
        return False
    if p1 == 1:
        return True  # both unknots
    return q2 == q1 or (q2 * q1) % p1 == 1


class EvenExpansion:
    """Even continued-fraction expansion [2a1, 2b1, ..., 2am, 2bm].

    The length must be even and every entry a non-zero even integer; m is the
    genus of the associated plumbing surface.
    """

    def __init__(self, terms: Sequence[int]):
        terms = list(terms)
        if not terms or len(terms) % 2 != 0:
            raise ValueError(f"even expansion needs an even, positive number of terms: {terms}")
        for a in terms:
            if a == 0 or a % 2 != 0:
                raise ValueError(f"even expansion entries must be non-zero even integers: {terms}")
        self.terms = terms

    @property
    def genus(self) -> int:
        return len(self.terms) // 2

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        """[(a1, b1), ..., (am, bm)] with terms [2a1, 2b1, ...]."""
        halves = [a // 2 for a in self.terms]
        return list(zip(halves[0::2], halves[1::2]))

    def fraction(self) -> Fraction:
        return cf_value(self.terms)

    def __repr__(self):
        return f"EvenExpansion({self.terms})"

    def __eq__(self, other):
        return isinstance(other, EvenExpansion) and self.terms == other.terms


ExpansionLike = Union[EvenExpansion, Sequence[int]]


def _coerce_expansion(e: ExpansionLike) -> EvenExpansion:
    return e if isinstance(e, EvenExpansion) else EvenExpansion(e)


def even_expansion_from_fraction(fr: Fraction) -> EvenExpansion:
    """An even expansion of the knot b(p, q) (|p| odd): ``even_terms``."""
    return EvenExpansion(even_terms(fr))


def even_terms(fr: Fraction) -> Iterator[int]:
    """The terms of an even expansion of the knot b(p, q) (|p| odd), one at
    a time: T(2, N) has N - 1 of them, so a caller can stop early.

    The denominator is first shifted by p if needed to make it even (this
    does not change the knot); then even partial quotients are extracted
    greedily, always leaving an odd remainder.  A negative p gives the
    mirror image's terms negated.
    """
    p, q = fr.numerator, fr.denominator
    if p % 2 == 0:
        raise ValueError(f"numerator {p} is even: not a knot")
    if abs(p) == 1:
        raise ValueError("the unknot has no even expansion")
    sign = -1 if p < 0 else 1
    p = abs(p)
    # Shift q by p (same knot) until it is even and 0 < |q| < p.
    q %= p
    if q % 2 != 0:
        q -= p
    while True:
        # Extract p/q = 2a + r/q with |r| < |q|.  The states alternate
        # between (p odd, q even) with r forced odd, and (p even, q odd)
        # with r forced even; r = 0 can only occur at the latter, so the
        # term list always comes out with even length.
        base = p // (2 * q)
        for cand in (base, base + 1):
            r = p - 2 * cand * q
            if abs(r) < abs(q):
                a = cand
                break
        else:
            raise AssertionError(f"no even quotient for {p}/{q}")
        if a == 0:
            raise AssertionError(f"zero quotient for {p}/{q}")
        yield sign * 2 * a
        if r == 0:
            return
        p, q = q, r


def alexander(e: ExpansionLike) -> List[int]:
    """Alexander polynomial det(V - t*V^T) as ascending coefficients.

    Normalized so the lowest-degree coefficient is positive.  The degree is
    exactly twice the genus and the constant term is non-zero.

    V, the Seifert matrix of the plumbing surface, has diagonal (a1, -b1,
    a2, -b2, ...) and ones above it, so V - t*V^T is tridiagonal with
    d_k(1 - t) on the diagonal, 1 above it and -t below it: its leading
    principal minors obey D_k = d_k(1 - t) D_{k-1} + t D_{k-2}.
    """
    prev, cur = [0], [1]  # D_{-1}, D_0
    for d in [d for a, b in _coerce_expansion(e).pairs for d in (a, -b)]:
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += d * c
            nxt[i + 1] -= d * c
        for i, c in enumerate(prev):
            nxt[i + 1] += c
        prev, cur = cur, nxt
    while len(cur) > 1 and cur[-1] == 0:
        cur.pop()
    if cur[0] == 0:
        raise AssertionError(f"Alexander polynomial with zero constant term: {cur}")
    return cur if cur[0] > 0 else [-c for c in cur]


def link_determinant(e: ExpansionLike) -> int:
    """|Alexander(-1)|, the determinant of the knot (= |p|)."""
    delta = alexander(e)
    return abs(sum(c * (-1) ** i for i, c in enumerate(delta)))


def h1_cyclic_cover_order(e: ExpansionLike, n: int) -> Union[int, Infinite]:
    """Exact order of H_1 of the n-fold cyclic branched cover:
    |Res(1 + t + ... + t**(n-1), Alexander(t))| (Fox 1956), from
    ``intlinalg.cyclic_resultant`` (a square for odd n, |Alexander(-1)|
    times a square for even n); zero means infinite homology.
    """
    if n.__class__ is not int or n < 1:
        raise ValueError(f"cover degree must be >= 1, got {n}")
    order = cyclic_resultant(alexander(e), n)
    return order if order else INFINITE


# Small dictionary of rational-knot names, used only for display.
_KNOT_NAMES = {
    3: {frozenset({1, 2}): "3_1"},
    5: {frozenset({1, 4}): "5_1", frozenset({2, 3}): "4_1"},
    7: {frozenset({1, 6}): "7_1", frozenset({2, 4}): "5_2", frozenset({3, 5}): "5_2"},
    9: {frozenset({1, 8}): "9_1", frozenset({2, 5}): "6_1", frozenset({4, 7}): "6_1"},
}


def knot_name(fr: Fraction) -> Union[str, None]:
    p, q = _signed_q(fr)
    if p == 1:
        return "0_1"
    classes = _KNOT_NAMES.get(p)
    if not classes:
        return None
    qinv = pow(q, -1, p)
    for cls, name in classes.items():
        if q in cls or qinv in cls:
            return name
    return None
