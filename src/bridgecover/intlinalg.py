"""Exact integer linear algebra: fraction-free determinants, Smith normal form,
cokernel orders by elimination modulo a maximal minor, polynomial
resultants, and the cyclic resultant behind every cyclic-cover H_1 order.

Everything here works on plain Python ints (arbitrary precision), so results
are exact for matrices of any size that fits in memory.  No floating point.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

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


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det_bareiss(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss' fraction-free
    elimination.  All intermediate values are exact integers.

    The empty 0x0 matrix has determinant 1.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
    return _bareiss(copy_matrix(matrix), n)


def _bareiss(m: IntMatrix, ncols: int) -> int:
    """Bareiss elimination of m (at least ncols rows of ncols entries) in
    place, swapping a row with a non-zero pivot up when needed.

    After step k, entry (i, j) below the pivots is the minor on rows 0..k, i
    and columns 0..k, j, so the last pivot is the leading ncols x ncols minor
    of the swapped rows.  Returns that minor times the sign of the swaps: the
    determinant of a square m, and 0 exactly when the rank is below ncols.
    """
    nrows = len(m)
    sign = 1
    prev = 1
    for k in range(ncols):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, nrows) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, nrows):
            for j in range(k + 1, ncols):
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


class SNFResult:
    """Smith normal form D = U * M * V with U, V unimodular.

    ``diagonal`` holds the invariant factors d_1 | d_2 | ... (non-negative,
    zeros trailing); ``rank`` is the number of non-zero invariant factors.
    """

    def __init__(self, diagonal: List[int], rank: int,
                 u: Optional[IntMatrix] = None, v: Optional[IntMatrix] = None):
        self.diagonal = diagonal
        self.rank = rank
        self.u = u
        self.v = v

    def __repr__(self) -> str:
        return f"SNFResult(diagonal={self.diagonal}, rank={self.rank})"


def smith_normal_form(matrix: Sequence[Sequence[int]],
                      with_transforms: bool = False) -> SNFResult:
    """Smith normal form over the integers.

    Pivot selection is deterministic: the entry of smallest non-zero absolute
    value in the remaining block, scanning row-major, ties going to the first
    seen.  With ``with_transforms`` the unimodular matrices U (rows) and V
    (columns) with U*M*V diagonal are returned as well.
    """
    m = copy_matrix(matrix)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u = identity_matrix(nrows) if with_transforms else None
    v = identity_matrix(ncols) if with_transforms else None

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        m[dst] = [a + c * b for a, b in zip(m[dst], m[src])]
        if u is not None:
            u[dst] = [a + c * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in m:
            row[dst] += c * row[src]
        if v is not None:
            for row in v:
                row[dst] += c * row[src]

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        if u is not None:
            u[i] = [-a for a in u[i]]

    k = 0
    size = min(nrows, ncols)
    while k < size:
        # Deterministic pivot scan: smallest |entry| != 0, row-major order.
        pivot = None
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                a = m[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            swap_rows(k, pi)
        if pj != k:
            swap_cols(k, pj)
        # Clear row and column k; restart if a division leaves a remainder
        # that becomes a smaller pivot.
        while True:
            dirty = False
            for i in range(k + 1, nrows):
                if m[i][k] != 0:
                    q = m[i][k] // m[k][k]
                    add_row(k, i, -q)
                    if m[i][k] != 0:
                        swap_rows(k, i)
                        dirty = True
            for j in range(k + 1, ncols):
                if m[k][j] != 0:
                    q = m[k][j] // m[k][k]
                    add_col(k, j, -q)
                    if m[k][j] != 0:
                        swap_cols(k, j)
                        dirty = True
            if not dirty:
                break
        k += 1

    # Enforce the divisibility chain d_i | d_{i+1}.
    changed = True
    while changed:
        changed = False
        for i in range(size - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if b != 0 and a != 0 and b % a != 0:
                # Fold entry (i+1, i+1) into position (i, i) and redo.
                add_col(i + 1, i, 1)
                while True:
                    dirty = False
                    if m[i + 1][i] != 0:
                        q = m[i + 1][i] // m[i][i]
                        add_row(i, i + 1, -q)
                        if m[i + 1][i] != 0:
                            swap_rows(i, i + 1)
                            dirty = True
                    if m[i][i + 1] != 0:
                        q = m[i][i + 1] // m[i][i]
                        add_col(i, i + 1, -q)
                        if m[i][i + 1] != 0:
                            swap_cols(i, i + 1)
                            dirty = True
                    if not dirty:
                        break
                changed = True
    for i in range(size):
        if m[i][i] < 0:
            negate_row(i)

    diagonal = [m[i][i] for i in range(size)]
    rank = sum(1 for d in diagonal if d != 0)
    return SNFResult(diagonal, rank, u, v)


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
    r = abs(_bareiss(copy_matrix(matrix), n))
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


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a, b >= 0 not both 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def in_row_span(matrix: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Whether an integer vector lies in the integer span of the matrix rows.

    With U*M*V = D (Smith form), z*M = vec has an integer solution z iff
    y*D = vec*V does, which is a divisibility check column by column.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(vector) != ncols:
        if nrows == 0:
            return all(x == 0 for x in vector)
        raise ValueError(f"vector length {len(vector)} != {ncols} columns")
    if nrows == 0:
        return all(x == 0 for x in vector)
    snf = smith_normal_form(matrix, with_transforms=True)
    w = [sum(vector[i] * snf.v[i][j] for i in range(ncols)) for j in range(ncols)]
    for j in range(ncols):
        d = snf.diagonal[j] if j < len(snf.diagonal) else 0
        if d == 0:
            if w[j] != 0:
                return False
        elif w[j] % d != 0:
            return False
    return True
