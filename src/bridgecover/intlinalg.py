"""Exact integer linear algebra: fraction-free determinants, polynomial
resultants, the cyclic resultant behind every cyclic-cover H_1 order, and
row-span membership by a Hermite row-echelon form.

Everything here works on plain Python ints (arbitrary precision), so results
are exact for matrices of any size that fits in memory.  No floating point.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import gcd, isqrt
from operator import mul
from typing import List, Sequence, Tuple

IntMatrix = List[List[int]]


class Infinite:
    """Sentinel for an infinite group order."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = Infinite()


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss' fraction-free
    elimination, swapping a row with a non-zero pivot up when needed.  All
    intermediate values are exact integers: after step k, entry (i, j)
    below the pivots is the minor on rows 0..k, i and columns 0..k, j, so
    the last pivot is the determinant up to the sign of the swaps.

    The empty 0x0 matrix has determinant 1.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division: Bareiss guarantees divisibility by prev.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * prev


def sylvester_matrix(f: Sequence[int], g: Sequence[int]) -> IntMatrix:
    """Sylvester matrix of two integer polynomials given by coefficient lists
    in ascending degree order (f[i] is the coefficient of x**i).

    Leading zero coefficients must already be trimmed; the degrees used are
    len(f)-1 and len(g)-1.
    """
    if not f or f[-1] == 0 or not g or g[-1] == 0:
        raise ValueError(
            "polynomials must be non-zero with trimmed leading coefficients")
    df = len(f) - 1
    dg = len(g) - 1
    n = df + dg
    if n == 0:
        return []
    rows: IntMatrix = []
    fd = list(reversed(f))  # descending order for the classical layout
    gd = list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + fd + [0] * (n - i - len(fd)))
    for i in range(df):
        rows.append([0] * i + gd + [0] * (n - i - len(gd)))
    return rows


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of two integer polynomials (ascending coefficient lists,
    leading coefficients non-zero), the Sylvester determinant by Bareiss.

    When g is monic this equals the product of f evaluated at the roots of
    g.  Whatever the argument order, the polynomial with smaller
    coefficients gives the top rows, so Bareiss divides by small pivots
    first, and Res(g, f) = (-1)**(deg f deg g) Res(f, g) fixes the sign.
    A constant c against a polynomial of degree m gives c**m.  Raises
    ValueError for an empty list or a zero leading coefficient.
    """
    if not f or f[-1] == 0 or not g or g[-1] == 0:
        raise ValueError(
            "polynomials must be non-zero with trimmed leading coefficients")
    if len(f) == 1 or len(g) == 1:
        return f[0] ** (len(g) - 1) if len(f) == 1 else g[0] ** (len(f) - 1)
    sign = 1
    if max(map(abs, g)) < max(map(abs, f)):
        f, g = g, f
        sign = -1 if (len(f) - 1) * (len(g) - 1) % 2 else 1
    return sign * det_bareiss(sylvester_matrix(f, g))


def _times(p: Sequence[int], q: Sequence[int]) -> List[int]:
    prod = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            prod[i + j] += a * b
    return prod


@lru_cache(maxsize=64)
def _fold_basis(n: int) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """P for n >= 3 (P_k = u P_(k-1) - P_(k-2), P_0 = 1, P_(-1) = -(n % 2)) and
    the rows of b -> b_0 + sum b_k V_k(u) mod P, V_k(x + 1/x) = x**k + x**-k."""
    lo, pu = [-(n % 2)], [1]
    for _ in range((n - 1) // 2):
        lo, pu = pu, [a - b for a, b in zip_longest([0] + pu, lo, fillvalue=0)]

    def times_u(v):  # u v modulo P
        return [-v[-1] * pu[0]] + [a - v[-1] * b for a, b in zip(v, pu[1:-1])]

    zero = [0] * (len(pu) - 2)
    cols, v0, v1 = [[1] + zero], [2] + zero, times_u([1] + zero)
    for _ in range(n // 2):
        cols.append(v1)
        v0, v1 = v1, [a - b for a, b in zip(times_u(v1), v0)]
    return pu, list(zip(*cols))


def cyclic_resultant(f: Sequence[int], n: int) -> int:
    """|Res(S, f)| with S = 1 + x + ... + x**(n-1), for n >= 1 and an integer
    polynomial f (ascending coefficients, leading zeros ignored): the order
    of Z[x]/(S, f), or 0 when it is infinite.  A constant c gives |c|**(n-1).

    It is the product of |f| over the roots of S, where x**k is a unit, and
    they pair off under x -> 1/x.  So for f = x**g D(x + 1/x), lc D = c, and
    U_(-1) = 0, U_0 = 1, U_(k+1) = u U_k - U_(k-1), the order is
    Res(P, D)**2 with P = U_r + U_(r-1) for n = 2r + 1 (a square: Plans
    1953) and |f(-1)| Res(P, D)**2 with P = U_(r-1) for n = 2r.  P is monic
    of degree p = (n - 1) // 2; Res(P, D) is one ``resultant``, for p <= 2g
    of P and D modulo P, read off f folded modulo x**n - 1 by a table kept
    per n (D(-1) at n = 3), for p > 2g of D and R, where doubling (U_2k =
    U_k**2 - U_(k-1)**2, U_(2k-1) = U_(k-1) (2 U_k - u U_(k-1))) finds
    P = R / c**e mod D, deg R = d < g: |Res(P, D)| = |c|**(p-d-e*g) |Res(D, R)|.
    Any other f (a link's antipalindromic f too) gives the square root of
    the order of the palindromic f f*, f* reversed: |Res(S, f*)| = |Res(S, f)|.
    """
    f = list(f) or [0]
    while len(f) > 1 and not (f[0] and f[-1]):  # trailing zeros, then x**k
        del f[0 if f[-1] else -1]
    if len(f) == 1:
        return abs(f[0]) ** (n - 1)
    if len(f) % 2 == 0 or f != f[::-1]:
        root = isqrt(order := cyclic_resultant(_times(f, f[::-1]), n))
        if root * root != order:
            raise ArithmeticError(f"order {order} of f f* is not a square")
        return root
    g, c, r, p = len(f) // 2, f[-1], n // 2, (n - 1) // 2
    unit = 1 if n % 2 else abs(sum(f[::2]) - sum(f[1::2]))
    if p == 0:
        return unit
    if p <= 2 * g:
        h = [sum(f[g + j::n]) for j in range(n)]  # x**j and x**-j fold together
        b = [2 * h[0] - f[g]] + [h[j] + h[-j] for j in range(1, n - r)] \
            + h[r:r + 1 - n % 2]  # for even n, x**r is x**-r
        rem = [sum(map(mul, row, b)) for row in _fold_basis(n)[1]]
        while rem and rem[-1] == 0:
            rem.pop()
        return unit * resultant(_fold_basis(n)[0], rem) ** 2 if rem else 0

    d = [sum(map(mul, row, f[g:])) for row in _fold_basis(2 * g + 3)[1]]  # deg P > g: D

    def reduce(q: List[int], e: int) -> Tuple[List[int], int]:
        # Pseudo-division, scaling by c only where c does not divide.
        for k in range(len(q) - 1, g - 1, -1):
            if q[k] % c:
                q, e = [c * a for a in q], e + 1
            t = q[k] // c
            for j, b in enumerate(d):
                q[k - g + j] -= t * b
        q = q[:g]
        while e and all(a % c == 0 for a in q):
            q, e = [a // c for a in q], e - 1
        return q, e

    def align(x: List[int], ex: int, y: List[int], ey: int):
        m = max(ex, ey)
        return [a * c ** (m - ex) for a in x], [a * c ** (m - ey) for a in y], m

    a, b, e = [1] + [0] * (g - 1), [0] * g, 0  # U_k and U_(k-1) at k = 0
    for bit in bin(r)[2:]:
        a, b, e = align(
            *reduce(_times([s - t for s, t in zip(a, b)],
                           [s + t for s, t in zip(a, b)]), 2 * e),
            *reduce(_times(b, [2 * a[0]] + [2 * s - t for s, t in
                                             zip(a[1:], b)] + [-b[-1]]), 2 * e))
        if bit == "1":  # U_(2k+1) = u U_2k - U_(2k-1)
            b, a, e = align(a, e, *reduce(
                [-b[0]] + [s - t for s, t in zip(a, b[1:])] + [a[-1]], e))
    rem, e = reduce([s + t for s, t in zip(a, b)] if n % 2 else b, e)
    while rem and rem[-1] == 0:
        rem.pop()
    if not rem:
        return 0
    square = abs(resultant(d, rem))
    shift = p - (len(rem) - 1) - e * g
    power = abs(c) ** abs(shift)
    two = (power & -power).bit_length() - 1  # divide by the odd part only
    square = square * power if shift >= 0 else (square >> two) // (power >> two)
    return unit * square ** 2


def in_row_span(matrix: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Whether an integer vector lies in the integer span of the matrix rows.

    Column by column, Euclid's algorithm on whole rows (unimodular row
    steps) leaves one pivot row holding the gcd of the column; the other
    rows, now zero there, go on to the next column.  The pivot rows form a
    Hermite row-echelon basis of the span, and v lies in it exactly when
    each pivot divides what is left of v in its column and v is zero in
    every column without a pivot, once the multiples of the earlier pivot
    rows are taken off (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4).  Rank-deficient matrices, zero rows and no rows need no
    special case.
    """
    v = list(vector)
    rows: Sequence[Sequence[int]] = matrix
    for row in rows:
        if len(row) != len(v):
            raise ValueError(f"vector length {len(v)} != {len(row)} columns")
    for j in range(len(v)):
        pivot, rest = None, []
        for row in rows:
            if row[j] and pivot is None:
                pivot = row
                continue
            while row[j]:
                q = pivot[j] // row[j]
                pivot, row = row, [a - q * b for a, b in zip(pivot, row)]
            if any(row):
                rest.append(row)
        q, r = divmod(v[j], pivot[j]) if pivot else (0, v[j])
        if r:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, pivot)]
        rows = rest
    return True


class SNFResult:
    """Smith normal form: ``diagonal`` holds the invariant factors
    d_1 | d_2 | ... (non-negative, zeros trailing); ``rank`` is the number
    of non-zero invariant factors."""

    def __init__(self, diagonal: List[int], rank: int):
        self.diagonal = diagonal
        self.rank = rank

    def __repr__(self) -> str:
        return f"SNFResult(diagonal={self.diagonal}, rank={self.rank})"


# No library function calls smith_normal_form.  It stays here because the
# benchmark's tracer (perfbench/tracing.py) names it, and the tests use it as
# a reference for the invariant factors.
def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form over the integers.

    Each step moves the entry of smallest non-zero absolute value in the
    remaining block (the first in row-major order on ties) to the corner and
    reduces its row and column by it, until both are clear; the corner is
    then a diagonal entry.  Replacing each pair of diagonal entries by their
    gcd and lcm sorts, prime by prime, the exponents, which gives the
    divisibility chain.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    diagonal = []
    for k in range(min(nrows, ncols)):
        while True:
            entries = [(abs(m[i][j]), i, j) for i in range(k, nrows)
                       for j in range(k, ncols) if m[i][j]]
            if not entries:
                break
            _, pi, pj = min(entries)
            m[k], m[pi] = m[pi], m[k]
            for row in m:
                row[k], row[pj] = row[pj], row[k]
            p = m[k][k]
            for i in range(k + 1, nrows):
                q = m[i][k] // p
                m[i] = [a - q * b for a, b in zip(m[i], m[k])]
            for j in range(k + 1, ncols):
                q = m[k][j] // p
                for row in m:
                    row[j] -= q * row[k]
            if not any(m[i][k] for i in range(k + 1, nrows)) and \
                    not any(m[k][k + 1:]):
                break
        diagonal.append(abs(m[k][k]))
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            g = gcd(a, b)
            if g:
                diagonal[i], diagonal[j] = g, a * b // g
    return SNFResult(diagonal, sum(1 for d in diagonal if d))
