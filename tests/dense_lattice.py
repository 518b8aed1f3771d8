"""Dense reference for the lattice questions of bridgecover.presentations.

``cokernel_order`` is the order of Z^n modulo the row span of an integer
matrix, by Bareiss and a Hermite elimination modulo a maximal minor;
``word_matrix`` is the abelianization read off the relator words.  Neither
uses the circulant symbol or the cyclic resultant they check.
"""
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from bridgecover.intlinalg import INFINITE, Infinite, _bareiss, copy_matrix
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
