from __future__ import annotations

import random
import time
from itertools import combinations, zip_longest
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_lattice
from bridgecover import intlinalg
from bridgecover.intlinalg import (
    INFINITE,
    det_bareiss,
    in_row_span,
    resultant,
    smith_normal_form,
)
from dense_lattice import (
    cokernel_order,
    fold_cyclic_resultant,
    is_trace_form,
    sylvester_matrix,
    sylvester_resultant,
)


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def gcd_of_minors(matrix, k):
    """gcd of all k x k minors (0 when every one vanishes), by brute force:
    the independent oracle for the Smith form, the cokernel order and
    row-span membership."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    g = 0 if k else 1
    for rows in combinations(range(nrows), k):
        for cols in combinations(range(ncols), k):
            g = gcd(g, det_bareiss([[matrix[i][j] for j in cols] for i in rows]))
    return g


def test_det_small_cases():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 1], [1, -2]]) == -5
    # Needs a row swap to find a pivot.
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0], [0, 1]]) == 0


def test_det_matches_permutation_expansion():
    from itertools import permutations

    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = [False] * n
            # parity via cycle decomposition
            for start in range(n):
                if seen[start]:
                    continue
                length = 0
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            prod = sign
            for i in range(n):
                prod *= m[i][perm[i]]
            expected += prod
        assert det_bareiss(m) == expected


def test_sylvester_shape_and_resultant_of_linears():
    # f = t - 2, g = t - 5: Res = f(5) = 3 (g monic, product over roots of g).
    f = [-2, 1]
    g = [-5, 1]
    assert sylvester_matrix(f, g) == [[1, -2], [1, -5]]
    assert resultant(g, f) == det_bareiss([[1, -5], [1, -2]])
    # Res(g, f) with g monic = product of f over the roots of g.
    assert abs(resultant(g, f)) == 3


def test_resultant_product_over_roots():
    # g = (t - 1)(t + 2)(t - 3) monic; f arbitrary.
    g = [6, -5, -2, 1]  # expand: t^3 - 2t^2 - 5t + 6
    f = [1, 1, 1]  # 1 + t + t^2
    expected = 1
    for root in (1, -2, 3):
        expected *= 1 + root + root * root
    assert resultant(g, f) == expected


def _poly(max_degree, bound, min_degree=0):
    """An integer polynomial, ascending, with a non-zero leading coefficient."""
    return st.tuples(
        st.lists(st.integers(-bound, bound), min_size=min_degree,
                 max_size=max_degree),
        st.integers(-bound, bound).filter(bool)).map(lambda p: p[0] + [p[1]])


@given(st.one_of(_poly(7, 9), _poly(4, 10 ** 40)),
       st.one_of(_poly(7, 9), _poly(4, 10 ** 40)))
@example([-2, 0, 0, 1], [-5, 0, 0, 0, 0, 1])  # sympy 1.14 gives +93
@example([7], [1, 2, 3])                      # constants: Res(c, g) = c**deg g
@example([1, 2, 3], [7])
@settings(max_examples=120, deadline=None)
def test_resultant_matches_sympy(f, g):
    """sympy's ``resultant`` gets the sign wrong for some pairs of odd
    degree: Res(x**3 - 2, x**5 - 5) is the product of a**5 - 5 over the cube
    roots a of 2, which is -93, and sympy 1.14 gives 93.  So sympy's
    resultant checks the magnitude and sympy's determinant of the Sylvester
    matrix checks the sign, of the subresultant sequence and of the dense
    oracle alike."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = sympy.Matrix(sylvester_matrix(f, g)).det() if len(f) + len(g) > 2 else 1
    magnitude = sympy.resultant(sympy.Poly(f[::-1], x), sympy.Poly(g[::-1], x))
    assert abs(int(magnitude)) == abs(int(want))
    assert resultant(f, g) == sylvester_resultant(f, g) == want


def _plus(p, q):
    out = [a + b for a, b in zip_longest(p, q, fillvalue=0)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def _resultant_pairs(draw):
    """(f, g) of a shape the subresultant sequence branches on, either way
    round: a constant or a linear argument, a remainder sequence with
    degree gaps of at least 2 (Collins' h-update), a common factor (the
    resultant is 0), or any pair; coefficients to 9 or to 10**40."""
    bound = draw(st.sampled_from([9, 10 ** 40]))

    def poly(low, high):
        return draw(_poly(high, bound, low))

    kind = draw(st.sampled_from(["constant", "linear", "gaps", "common",
                                 "any"]))
    if kind in ("constant", "linear"):
        f, g = poly(*{"constant": (0, 0), "linear": (1, 1)}[kind]), poly(0, 7)
    elif kind == "gaps":  # built from its last remainder up
        rems = [poly(0, 1)]
        rems.append(poly(len(rems[0]) + 1, len(rems[0]) + 2))
        for _ in range(draw(st.integers(1, 2))):
            rems.append(_plus(_times(poly(1, 2), rems[-1]), rems[-2]))
        f, g = rems[-1], rems[-2]
    elif kind == "common":
        w = poly(1, 3)
        f, g = _times(poly(0, 3), w), _times(poly(0, 3), w)
    else:
        f, g = poly(0, 6), poly(0, 6)
    return (g, f) if draw(st.booleans()) else (f, g)


@given(_resultant_pairs())
@example(([7], [1, 2, 3]))               # a constant on either side
@example(([1, 2, 3], [-7]))
@example(([3], [-5]))                    # two constants: the empty determinant
@example(([2, -3], [1, 0, 4, 5]))        # a linear argument on either side
@example(([1, 0, 4, 5], [2, -3]))
@example(([1, 0, 0, 0, 1], [0, 1, 0, 1]))  # x**4 + 1, x**3 + x: a gap of 2
@example(([-3, -3, 1, 1], [-6, 0, -13, 0, 5]))  # both times x**2 - 3: 0
@example(([10 ** 40, 1], _times([10 ** 40, 1], [1, 2, 3])))  # a common root
@settings(max_examples=150, deadline=None)
def test_resultant_matches_the_dense_oracle(pair):
    """The subresultant sequence against the Sylvester determinant by
    Bareiss (tests/dense_lattice.py), which shares no code with it; sympy's
    magnitude is a second check."""
    f, g = pair
    want = sylvester_resultant(f, g)
    assert resultant(f, g) == want
    assert resultant(g, f) == (-1) ** ((len(f) - 1) * (len(g) - 1)) * want
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    magnitude = sympy.resultant(sympy.Poly(f[::-1], x), sympy.Poly(g[::-1], x))
    assert abs(int(magnitude)) == abs(want)


def test_resultant_argument_order_costs_only_the_sign(monkeypatch):
    """resultant(R, D) = (-1)**(deg R deg D) resultant(D, R) on the pair the
    oracle hands over: the trace polynomial D of the Alexander polynomial of
    [2, -4, 6, -8] and U_999 reduced modulo it (coefficients of about 3000
    bits)."""
    pairs = []
    real = intlinalg.resultant
    monkeypatch.setattr(intlinalg, "resultant",
                        lambda f, g: pairs.append((f, g)) or real(f, g))
    intlinalg.cyclic_resultant([24, -78, 109, -78, 24], 2000)
    (d, r), = pairs
    assert d == [61, -78, 24]  # 24 - 78 x + 109 x**2 ... = x**2 D(x + 1/x)
    assert max(abs(a) for a in r).bit_length() > 2500
    sign = (-1) ** ((len(r) - 1) * (len(d) - 1))
    assert real(r, d) == sign * real(d, r) != 0
    assert real([1, 2], [3, 4]) == -real([3, 4], [1, 2]) == 2


def _cover_poly(kind, half, shift):
    """One of the kinds of f the cyclic resultant meets, times x**shift."""
    f = {"palindromic even": half + half[-2::-1],
         "palindromic odd": half + half[::-1],
         "antipalindromic": half + [-a for a in reversed(half)],
         "antipalindromic even": half + [0] + [-a for a in reversed(half)],
         "not symmetric": half}[kind]
    return [0] * shift + f


_KINDS = st.sampled_from(["palindromic even", "palindromic odd",
                          "antipalindromic", "antipalindromic even",
                          "not symmetric"])


@given(_KINDS, st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.integers(0, 2))
@example("palindromic even", [24, -78, 109], 0)  # [2, -4, 6, -8]
@example("antipalindromic", [-1], 0)             # the Hopf link, x - 1
@example("palindromic even", [0, 0], 1)          # f = 0
@example("not symmetric", [5], 3)                # a constant times x**3
@settings(max_examples=20, deadline=None)
def test_cyclic_resultant_matches_the_fold_and_doubling(kind, half, shift):
    """The trace path against the full-degree fold and doubling it
    replaced, for every n = 1..200, on palindromic f of even degree (the
    library's callers), each shifted by a power of x.  Palindromic f of odd
    degree, antipalindromic (a link's, f(1) = 0) and non-symmetric f are
    refused, unless they are a constant times a power of x; the reference
    answers them as the dense Sylvester determinant does, for n = 1..40."""
    f = _cover_poly(kind, half, shift)
    if is_trace_form(f):
        for n in range(1, 201):
            assert intlinalg.cyclic_resultant(f, n) == \
                fold_cyclic_resultant(f, n), (f, n)
        return
    for n in range(1, 41):
        with pytest.raises(ValueError, match="palindromic polynomial of even"):
            intlinalg.cyclic_resultant(f, n)
        trimmed = f[:len(f) - next(i for i, a in enumerate(f[::-1]) if a)]
        assert fold_cyclic_resultant(f, n) == \
            abs(sylvester_resultant([1] * n, trimmed)), (f, n)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=3),
       st.integers(0, 1), st.integers(10 ** 3, 10 ** 4))
@example([24, -78, 109], 0, 10 ** 4)
@settings(max_examples=12, deadline=None)
def test_cyclic_resultant_matches_the_fold_and_doubling_at_large_n(
        half, shift, n):
    f = _cover_poly("palindromic even", half, shift)
    assert intlinalg.cyclic_resultant(f, n) == fold_cyclic_resultant(f, n)


@pytest.mark.parametrize("f, g", [([0], [1, 1]), ([1, 0], [1, 1]),
                                  ([], [1, 1]), ([1, 1], [2, 0])])
def test_resultant_rejects_zero_and_untrimmed_polynomials(f, g):
    with pytest.raises(ValueError, match="trimmed leading"):
        resultant(f, g)


def test_snf_frozen_example():
    # diag(2, 3) has Smith form diag(1, 6); oracle: d_k = gcd of k x k minors.
    m = [[2, 0], [0, 3]]
    res = smith_normal_form(m)
    assert res.diagonal == [1, 6]
    d1 = gcd_of_minors(m, 1)
    d2 = gcd_of_minors(m, 2)
    assert [d1, d2 // d1] == [1, 6]


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(20240817)
    for _ in range(40):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        m = [[rng.randrange(-8, 9) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form(m)
        # Invariant factors from gcds of minors: d_1 ... d_k = gcd of k-minors.
        prev = 1
        for k in range(1, min(nr, nc) + 1):
            g = gcd_of_minors(m, k)
            expect = g // prev if g else 0
            assert res.diagonal[k - 1] == expect, (m, res.diagonal)
            if g == 0:
                break
            prev = g
        # Divisibility chain.
        for a, b in zip(res.diagonal, res.diagonal[1:]):
            if b:
                assert a != 0 and b % a == 0


def _random_unimodular(n, rng):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-3, 4)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_snf_invariant_under_unimodular_factors():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        u = _random_unimodular(n, rng)
        v = _random_unimodular(n, rng)
        assert smith_normal_form(m).diagonal == smith_normal_form(mat_mul(u, mat_mul(m, v))).diagonal


def _snf_order(m, ncols):
    res = smith_normal_form(m)
    if res.rank < ncols:
        return INFINITE
    order = 1
    for d in res.diagonal:
        order *= d
    return order


def test_cokernel_order_matches_minor_gcd_and_snf():
    rng = random.Random(20261018)
    for _ in range(150):
        nc = rng.randrange(1, 6)
        nr = rng.randrange(nc, nc + 4)
        bound = rng.choice((3, 9, 60))
        m = [[rng.randrange(-bound, bound + 1) for _ in range(nc)]
             for _ in range(nr)]
        g = gcd_of_minors(m, nc)
        got = cokernel_order(m)
        assert got == (g if g else INFINITE), (m, got, g)
        if bound == 3:  # larger entries can make the unbounded SNF blow up
            assert got == _snf_order(m, nc), m


def test_cokernel_order_of_a_product_with_known_determinant():
    # Rows of u * diag(d) * v span a lattice of index |d_1 ... d_n|; the
    # scrambling makes every entry of the input large.
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 7)
        diag = [rng.choice((1, 2, 3, 5, 12, 97)) for _ in range(n)]
        d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        m = mat_mul(_random_unimodular(n, rng),
                    mat_mul(d, _random_unimodular(n, rng)))
        expect = 1
        for x in diag:
            expect *= x
        assert cokernel_order(m) == expect, (m, diag)


def test_cokernel_order_matches_sympy_smith_form():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import Matrix

    rng = random.Random(314)
    for _ in range(60):
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 6)
        m = [[rng.randrange(-12, 13) for _ in range(nc)] for _ in range(nr)]
        snf = normalforms.smith_normal_form(Matrix(m))
        order = 1
        for i in range(min(nr, nc)):
            order *= abs(int(snf[i, i]))
        expect = INFINITE if nr < nc or order == 0 else order
        assert cokernel_order(m) == expect, m


def test_cokernel_order_of_square_matrices_is_the_determinant(monkeypatch):
    # A square matrix takes the |det| shortcut; with a zero row appended the
    # same lattice goes through the Hermite elimination instead.
    rng = random.Random(20261019)
    cases = []
    for _ in range(120):
        n = rng.randrange(1, 6)
        bound = rng.choice((2, 9, 60))
        m = [[rng.randrange(-bound, bound + 1) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.25:  # make it singular
            coeffs = [rng.randrange(-2, 3) for _ in range(n - 1)]
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m))
                     for j in range(n)]
        cases.append((m, cokernel_order(m + [[0] * n])))

    def refuse(a, b):
        raise AssertionError("Hermite elimination ran on a square matrix")

    monkeypatch.setattr(dense_lattice, "_xgcd", refuse)
    singular = 0
    for m, hermite in cases:
        g = gcd_of_minors(m, len(m))
        assert g == abs(det_bareiss(m))
        assert cokernel_order(m) == hermite == (g if g else INFINITE), m
        singular += g == 0
    assert singular > 10


def test_cokernel_order_infinite_cases():
    # rank below the column count
    assert cokernel_order([[1, 2], [2, 4], [3, 6]]) is INFINITE
    assert cokernel_order([[0, 0], [0, 0], [0, 0]]) is INFINITE
    assert cokernel_order([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) is INFINITE
    # fewer rows than columns, and no rows at all
    assert cokernel_order([[1, 0, 0], [0, 1, 0]]) is INFINITE
    assert cokernel_order([], 3) is INFINITE
    # zero rows next to a full-rank block do not change the order
    assert cokernel_order([[0, 0], [2, 0], [0, 0], [0, 3]]) == 6
    assert cokernel_order([], 0) == 1
    assert cokernel_order([[7]]) == 7
    assert cokernel_order([[-4], [6]]) == 2
    with pytest.raises(ValueError):
        cokernel_order([[1, 2], [3]])


# ---------------------------------------------------------------------------
# Row-span membership
# ---------------------------------------------------------------------------

def _rank(matrix):
    ncols = len(matrix[0]) if matrix else 0
    return max(k for k in range(min(len(matrix), ncols) + 1)
               if gcd_of_minors(matrix, k))


def _in_span_by_minors(matrix, vector):
    """v lies in the row lattice L of M exactly when M and M + [v] have the
    same rank r and the same gcd of r x r minors: L lies in L + Zv, and when
    both have rank r that gcd is the gcd for L + Zv times the index of L."""
    r = _rank(matrix)
    extended = [list(row) for row in matrix] + [list(vector)]
    return (_rank(extended) == r
            and gcd_of_minors(matrix, r) == gcd_of_minors(extended, r))


@st.composite
def _span_case(draw):
    """(rows, vector, in_span): up to 5 rows of up to 7 columns, made rank
    deficient or given zero rows at times; the vector is a combination of
    the rows (in_span True), one nudged in one entry, or random."""
    ncols = draw(st.integers(0, 7))
    entries = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=5))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                               max_size=len(rows)))
        rows[draw(st.integers(0, len(rows) - 1))] = [
            sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                           max_size=len(rows)))
    vector = [sum(c * row[j] for c, row in zip(coeffs, rows))
              for j in range(ncols)]
    kind = draw(st.sampled_from(["combination", "nudged", "random"]))
    if kind == "nudged" and ncols:
        vector[draw(st.integers(0, ncols - 1))] += draw(st.sampled_from([-1, 1, 2]))
    elif kind == "random":
        vector = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    return rows, vector, kind == "combination"


@given(_span_case())
@example(([], [0, 0], True))
@example(([], [0, 1], False))
@example(([], [], True))
@example(([[0, 0, 0], [0, 0, 0]], [0, 0, 0], True))
@example(([[0, 0, 0], [0, 0, 0]], [0, 0, 1], False))
@example(([[1, 1, 1]], [3, 3, 3], True))
@example(([[1, 1, 1]], [1, 0, 0], False))
@example(([[2, 4], [3, 6]], [1, 2], True))       # rank 1, gcd of the rows
@example(([[2, 4], [4, 8]], [1, 2], False))
@example(([[2, 0], [0, 3], [0, 0]], [4, 9], True))
@settings(max_examples=300, deadline=None)
def test_in_row_span_matches_the_minor_gcd_oracle(case):
    rows, vector, in_span = case
    got = in_row_span(rows, vector)
    assert got == _in_span_by_minors(rows, vector), (rows, vector)
    if in_span:
        assert got, (rows, vector)


def test_in_row_span_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="vector length"):
        in_row_span([[1, 2]], [1, 2, 3])


def test_in_row_span_is_fast_on_entries_of_sixty():
    """5 x 5 matrices with entries in [-60, 60], where the Smith form with
    transforms once took seconds: each call well under 10 ms."""
    rng = random.Random(20261020)
    slowest = 0.0
    answers = set()
    for _ in range(300):
        rows = [[rng.randint(-60, 60) for _ in range(5)] for _ in range(5)]
        coeffs = [rng.randint(-3, 3) for _ in range(5)]
        vector = [sum(c * row[j] for c, row in zip(coeffs, rows))
                  for j in range(5)]
        if rng.random() < 0.5:
            vector[rng.randrange(5)] += 1
        start = time.perf_counter()
        got = in_row_span(rows, vector)
        slowest = max(slowest, time.perf_counter() - start)
        answers.add(got)
    assert answers == {True, False}
    assert slowest < 0.01, slowest
