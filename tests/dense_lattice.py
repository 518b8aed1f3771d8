"""Dense reference for the lattice questions of bridgecover.presentations.

``cokernel_order`` is the order of Z^n modulo the row span of an integer
matrix, by Bareiss and a Hermite elimination modulo a maximal minor;
``word_matrix`` is the abelianization read off the relator words.  Neither
uses the circulant symbol or the cyclic resultant they check.
``sylvester_resultant`` is the resultant as the Bareiss determinant of the
Sylvester matrix, the reference for ``intlinalg.resultant``;
``fold_cyclic_resultant`` is the cyclic resultant without the trace
substitution, on the full degree of f and for any f (a link's too), through
that determinant, as the reference for ``intlinalg.cyclic_resultant``.
"""
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from bridgecover.intlinalg import INFINITE, Infinite, det_bareiss
from bridgecover.multipoly import MultiPoly
from bridgecover.words import exponent_sums


def cokernel_order(matrix: Sequence[Sequence[int]],
                   ncols: Optional[int] = None) -> Union[int, Infinite]:
    """Order of Z^ncols / (integer span of the matrix rows), or INFINITE when
    the rows span a lattice of rank below ncols.  ``ncols`` defaults to the
    length of the first row; it is needed only for a matrix with no rows.

    A Bareiss pass finds the rank and D, a non-zero maximal minor; for a
    square matrix of full rank the order is |D| and nothing else runs.
    Otherwise D * Z^n lies in the row lattice L, so a Hermite elimination
    may reduce every entry modulo D (Domich-Kannan-Trotter 1987;
    Hafner-McCurley 1991) and no entry outgrows D.  Column j's pivot is
    h = gcd(column entries, R) with R = D / (earlier pivots); the order of
    Z^n / L, a divisor of D, is the product of the pivots.
    """
    nrows = len(matrix)
    n = ncols if ncols is not None else (len(matrix[0]) if nrows else 0)
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"row of length {len(row)} in a matrix of {n} columns")
    if nrows < n:
        return INFINITE
    r = abs(_leading_minor(matrix, n))
    if r == 0:
        return INFINITE
    if nrows == n:
        return r  # a square matrix of full rank: the order is |det|

    # Before column j, the remaining rows span the lattice L_j of Z^(n-j)
    # whose determinant is |Z^n / L| / (earlier pivots), a divisor of r; so
    # L_j contains r * Z^(n-j), entries may be taken modulo r, and r * e_j
    # may start the pivot row.  Once the pivot h is found, the multiple
    # (r / h) * pivot row - r * e_j vanishes modulo r / h, so the rows below
    # the pivot span L_(j+1).
    rows: Sequence[Sequence[int]] = matrix
    order = 1
    for j in range(n):
        if r == 1:
            break
        head = [r] + [0] * (n - j - 1)
        rest = []
        for row in rows:
            row = [x % r for x in row]
            a = row[0]
            if a != 0:
                g, x, y = _xgcd(head[0], a)
                p, q = head[0] // g, a // g
                # [[x, y], [-q, p]] is unimodular: x * p + y * q = 1.
                head, row = ([(x * u + y * v) % r for u, v in zip(head, row)],
                             [p * v - q * u for u, v in zip(head, row)])
            if any(row):
                rest.append(row[1:])
        h = head[0]
        order *= h
        r //= h
        rows = rest
    return order


def _leading_minor(matrix: Sequence[Sequence[int]], n: int) -> int:
    """Bareiss elimination of a copy of ``matrix`` (at least n rows of n
    entries) over all its rows, swapping a row with a non-zero pivot up when
    needed: the last pivot is the leading n x n minor of the swapped rows,
    up to sign, and 0 exactly when the rank is below n."""
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, len(m)) if m[i][k] != 0),
                             None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
        for i in range(k + 1, len(m)):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return prev


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a, b >= 0 not both 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def word_matrix(p, values: Optional[Mapping[str, int]] = None) -> List[list]:
    """One row per relator word of ``p``, one column per generator: the
    exponent sums of the words, as polynomials, or as integers at
    ``values``."""
    rows = []
    for rel in p.relators:
        sums = exponent_sums(rel)
        row = [sums.get(gen, MultiPoly.const(0)) for gen in p.generators]
        rows.append(row if values is None
                    else [entry.evaluate(values) for entry in row])
    return rows


def sylvester_matrix(f: Sequence[int], g: Sequence[int]) -> List[List[int]]:
    """Sylvester matrix of two integer polynomials given by coefficient lists
    in ascending degree order (f[i] is the coefficient of x**i), leading
    zero coefficients trimmed: deg g rows of f's coefficients, then deg f
    rows of g's, each shifted one column right of the last, descending."""
    if not f or f[-1] == 0 or not g or g[-1] == 0:
        raise ValueError(
            "polynomials must be non-zero with trimmed leading coefficients")
    n = len(f) + len(g) - 2
    return [[0] * i + p[::-1] + [0] * (n - i - len(p))
            for p, rows in ((f, len(g) - 1), (g, len(f) - 1))
            for i in range(rows)]


def sylvester_resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) as the determinant of the Sylvester matrix by Bareiss: a
    constant against degree m gives the power of the m-square diagonal (1
    for two constants, the empty determinant)."""
    return det_bareiss(sylvester_matrix(f, g))


def is_trace_form(f: Sequence[int]) -> bool:
    """Whether f, its powers of x divided out, is a constant or palindromic
    of even degree: the f that ``intlinalg.cyclic_resultant`` takes."""
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    while f and f[0] == 0:
        del f[0]
    return len(f) % 2 == 1 and f == f[::-1] or not f


def fold_cyclic_resultant(f: Sequence[int], n: int) -> int:
    """|Res(S, f)| with S = 1 + x + ... + x**(n-1), for any integer f, as one
    Sylvester determinant on polynomials of f's full degree m.

    Since S is monic, Res(S, f) is the product of f over the roots of S,
    the n-th roots of unity other than 1, so f may be replaced by anything
    that agrees with it there.  For 2 <= n <= m + 1, f is folded modulo
    x**n - 1 and x**(n-1) rewritten as -(1 + ... + x**(n-2)), which leaves
    Res(S, h) with deg h <= n - 2.  For larger n, S is reduced modulo f by
    doubling, S_2k = S_k (1 + x**k) and S_(k+1) = 1 + x S_k, with elements
    of Q[x]/(f) kept as (R, e), an integer polynomial R over c**e with
    c = lc(f).  If S = R / c**e mod f with deg R = d, then |Res(S, f)| =
    |c|**(n-1-d-e*m) |Res(R, f)|.
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
        return abs(sylvester_resultant([1] * n, h)) if h[-1] else 0

    def reduce(p: List[int], e: int) -> Tuple[List[int], int]:
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
    order = abs(sylvester_resultant(f, r))
    shift = n - 1 - (len(r) - 1) - e * m
    if shift >= 0:
        return order * abs(c) ** shift
    return order // abs(c) ** -shift
