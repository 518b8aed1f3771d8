"""Exact integer linear algebra: fraction-free determinants, polynomial
resultants, the cyclic resultant behind every cyclic-cover H_1 order, and
row-span membership by a Hermite row-echelon form.

Everything here works on plain Python ints (arbitrary precision), so results
are exact for matrices of any size that fits in memory.  No floating point.
"""
from __future__ import annotations

from math import gcd
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


def copy_matrix(m: Sequence[Sequence[int]]) -> IntMatrix:
    return [list(row) for row in m]


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
    m = copy_matrix(matrix)
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
    Raises ValueError for an empty list or a zero leading coefficient.
    """
    if not f or f[-1] == 0 or not g or g[-1] == 0:
        raise ValueError(
            "polynomials must be non-zero with trimmed leading coefficients")
    sign = 1
    if max(map(abs, g)) < max(map(abs, f)):
        f, g = g, f
        sign = -1 if (len(f) - 1) * (len(g) - 1) % 2 else 1
    return sign * det_bareiss(sylvester_matrix(f, g))


def cyclic_resultant(f: Sequence[int], n: int) -> int:
    """|Res(S, f)| with S = 1 + x + ... + x**(n-1), for n >= 1 and an integer
    polynomial f (ascending coefficients, leading zeros ignored): the order
    of Z[x]/(S, f), or 0 when it is infinite.  A constant c gives |c|**(n-1);
    otherwise the order is one call of ``resultant``, or 0 when f reduces to
    0 modulo S.

    Since S is monic, Res(S, f) is the product of f over the roots of S,
    the n-th roots of unity other than 1, so f may be replaced by anything
    that agrees with it there.  For 2 <= n <= deg f + 1, f is folded
    modulo x**n - 1 and x**(n-1) rewritten as -(1 + ... + x**(n-2)), which
    leaves Res(S, h) with deg h <= n - 2: a determinant of order at most
    2n - 3.

    For larger n, S is reduced modulo f (of degree m) by doubling,
    S_2k = S_k (1 + x**k) and S_(k+1) = 1 + x S_k, in O(log n) products of
    polynomials of degree below m.  Elements of Q[x]/(f) are kept as
    (R, e), an integer polynomial R over c**e with c = lc(f).  If
    S = R / c**e mod f with deg R = d, then |Res(S, f)| =
    |c|**(n-1-d-e*m) |Res(R, f)|, one resultant of degrees m and d < m.
    Nothing divides by f(1), so links (f(1) = 0) work too.
    """
    f = list(f) or [0]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    m, c = len(f) - 1, f[-1]
    if m == 0:
        return abs(c) ** (n - 1)
    if 2 <= n <= m + 1:
        h = [0] * n
        for i, a in enumerate(f):
            h[i % n] += a
        top = h.pop()
        h = [a - top for a in h]
        while len(h) > 1 and h[-1] == 0:
            h.pop()
        return abs(resultant([1] * n, h)) if h[-1] else 0

    def reduce(p: List[int], e: int) -> Tuple[List[int], int]:
        # Pseudo-division from the top; scale by c only when a leading
        # coefficient is not already divisible by it.
        for d in range(len(p) - 1, m - 1, -1):
            if p[d] % c:
                p = [c * a for a in p]
                e += 1
            q = p[d] // c
            if q:
                for j, b in enumerate(f):
                    p[d - m + j] -= q * b
        p = p[:m]
        while e and all(a % c == 0 for a in p):
            p = [a // c for a in p]
            e -= 1
        return p, e

    def mul(u, v):
        (p, e), (q, g) = u, v
        prod = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    prod[i + j] += a * b
        return reduce(prod, e + g)

    def one_plus(u):
        p, e = u
        return reduce([p[0] + c ** e] + p[1:], e)

    x = reduce([0, 1], 0)
    s, power = ([1], 0), x  # S_k and x**k at k = 1
    for bit in bin(n)[3:]:
        s, power = mul(s, one_plus(power)), mul(power, power)
        if bit == "1":
            s, power = one_plus(mul(x, s)), mul(x, power)
    r, e = s
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return 0
    order = abs(resultant(f, r))
    shift = n - 1 - (len(r) - 1) - e * m
    if shift >= 0:
        return order * abs(c) ** shift
    return order // abs(c) ** -shift


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
    m = copy_matrix(matrix)
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
