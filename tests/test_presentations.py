"""Tests for the presentation families and their word-identity checks."""
import itertools
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import letter_words as reference
from dense_lattice import cokernel_order, word_matrix
from bridgecover import cli, goeritz, intlinalg, presentations
from bridgecover.intlinalg import in_row_span
from bridgecover.multipoly import MultiPoly
from bridgecover.presentations import (
    Presentation, abelianization_matrix, first_syllable_difference,
    genus_one_presentation, h1_order, mv_presentation,
    verify_product_identity, verify_rewrites,
)
from bridgecover.twobridge import (
    INFINITE, EvenExpansion, alexander, h1_cyclic_cover_order,
)
from bridgecover.words import (
    AffineExp, CyclicMatch, ParamEnv, ParamWord, Syllable, WordError,
    equal_up_to_cyclic, exponent_sums, instantiate, parse_word, peel_variants,
    reduce_word, substitute, substitute_params,
)

ZYX = [("z", 1), ("y", 1), ("x", 1)]


# ---------------------------------------------------------------------------
# Genus-one family
# ---------------------------------------------------------------------------

def test_genus_one_symbolic_relators():
    p = genus_one_presentation("k", "l", 5)
    assert p.generators == ("x1", "x2", "x3", "x4", "x5")
    assert _relator(p, "r0") == parse_word("x1 x2 x3 x4 x5")
    assert _relator(p, "r1") == parse_word(
        "(x1^(-k) x2^(k))^(l) (x3^(-k) x2^(k))^(l-1) x3^(-k) x2^(k-1)")
    assert _relator(p, "r5") == parse_word(
        "(x5^(-k) x1^(k))^(l) (x2^(-k) x1^(k))^(l-1) x2^(-k) x1^(k-1)")
    assert p.env == ParamEnv({"k": 2, "l": 1})


def test_genus_one_concrete_degeneration():
    p = genus_one_presentation(1, 1, 5)
    assert _relator(p, "r1") == parse_word("x1^(-1) x2 x3^(-1)")


def test_genus_one_rejects_small_n():
    with pytest.raises(WordError):
        genus_one_presentation("k", "l", 1)


def test_abelianization_rows_frozen():
    p = genus_one_presentation("k", "l", 5)
    m = abelianization_matrix(p)
    assert m[0] == [1, 1, 1, 1, 1]
    k, l = MultiPoly.var("k"), MultiPoly.var("l")
    assert m[1] == [-k * l, 2 * k * l - 1, -k * l, 0, 0]
    assert m[2] == [0, -k * l, 2 * k * l - 1, -k * l, 0]


def test_abelianization_with_values():
    p = genus_one_presentation("k", "l", 5)
    m = abelianization_matrix(p, {"k": 2, "l": 3})
    assert m[1] == [-6, 11, -6, 0, 0]


def test_trivial_presentation_h1():
    """A presentation of neither family is refused by name; its order is
    the dense cokernel of its word matrix."""
    p = Presentation(["x"], [parse_word("x^(5)")], ParamEnv({}))
    for call in (h1_order, abelianization_matrix):
        with pytest.raises(WordError, match="genus_one_presentation, mv_presentation"):
            call(p)
        with pytest.raises(WordError, match="genus-one or genus-two family"):
            call(p, {})
    assert word_matrix(p, {}) == [[5]]
    assert cokernel_order(word_matrix(p, {})) == 5
    p0 = Presentation(["x"], [parse_word("x^(0)")], ParamEnv({}))
    assert cokernel_order(word_matrix(p0, {})) is INFINITE


def test_genus_one_h1_matches_knot_oracle():
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            expansion = EvenExpansion([2 * k, -2 * l])
            for n in (2, 3, 5):
                assert h1_order(genus_one_presentation(k, l, n)) == \
                    h1_cyclic_cover_order(expansion, n)


def test_genus_one_h1_frozen():
    assert h1_order(genus_one_presentation(1, 1, 5)) == 1


def test_presentation_rejects_undeclared_generator():
    with pytest.raises(WordError):
        Presentation(["x"], [parse_word("x y")], ParamEnv({}))


def _relator(p, name):
    """The relator of ``p`` named ``name``."""
    return p.relators[p.relator_names.index(name)]


def _presentation_text(p):
    """``p`` as text: its generators, its parameter bounds, then one named
    relator a line."""
    env_part = ", ".join(f"{k} >= {v}" for k, v in p.env.bounds.items())
    lines = ["generators: " + " ".join(p.generators), "env: " + env_part]
    for name, rel in zip(p.relator_names, p.relators):
        lines.append(f"{name}: {rel.to_text()}")
    return "\n".join(lines) + "\n"


def _presentation_from_text(text):
    """Parse the format of ``_presentation_text``."""
    lines = text.splitlines()
    assert lines[0].startswith("generators: ") and lines[1].startswith("env:")
    bounds = {}
    for chunk in filter(None, lines[1][len("env:"):].strip().split(",")):
        name, _, bound = chunk.partition(">=")
        bounds[name.strip()] = int(bound)
    names, relators = zip(*(line.split(": ", 1) for line in lines[2:]))
    return Presentation(lines[0].split()[1:], [parse_word(r) for r in relators],
                        ParamEnv(bounds), names)


def test_presentation_text_roundtrip():
    for p in (genus_one_presentation("k", "l", 3), mv_presentation(1, -2, 1, 2, 3)):
        text = _presentation_text(p)
        back = _presentation_from_text(text)
        assert back.generators == p.generators
        assert back.relators == p.relators
        assert back.relator_names == p.relator_names
        assert back.env == p.env


# ---------------------------------------------------------------------------
# Genus-two (five-generator-window) family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 0, 2.0, 3.5, True, "3", None])
def test_presentations_refuse_a_bad_cover_degree(n):
    text = f"^need at least 2 generators, got n={re.escape(str(n))}$"
    with pytest.raises(WordError, match=text):
        h1_order(mv_presentation(1, 1, 1, 1, n))
    with pytest.raises(WordError, match=text):
        h1_order(genus_one_presentation(2, 1, n))


def test_mv_rejects_bad_parameters():
    with pytest.raises(WordError):
        mv_presentation(0, 1, 1, 1, 3)
    with pytest.raises(WordError):
        mv_presentation(1, 1, 1, 1, 1)
    for params in ((True, 1, 1, 1), (1, 1, False, 1), (1, 1, 1, 1.0),
                   (1, "s", 1, 1)):
        with pytest.raises(WordError, match="must be a nonzero integer"):
            mv_presentation(*params, 3)


@pytest.mark.parametrize("k, l", [(True, 1), (2, False), (2.0, 1), (None, 1)])
def test_genus_one_rejects_bools_and_non_integers(k, l):
    with pytest.raises(WordError, match="must be an int or a parameter name"):
        genus_one_presentation(k, l, 3)


def test_mv_n3_relator_matches_display():
    """The n=3 relator r1 equals the displayed wing form
    (X^t x^q y^-q Y^-t)^-l X (Z^t z^q x^-q X^-t)^l with
    X = (y^q x^-q)^s x (z^q x^-q)^s etc., for sampled parameters."""
    wing_x = "(y^(2) x^(-2))^(3) x (z^(2) x^(-2))^(3)"
    wing_y = "(z^(2) y^(-2))^(3) y (x^(2) y^(-2))^(3)"
    wing_z = "(x^(2) z^(-2))^(3) z (y^(2) z^(-2))^(3)"
    env = ParamEnv({})
    display = parse_word(
        "( X^(2) x^(2) y^(-2) Y^(-2) )^(-2) X ( Z^(2) z^(2) x^(-2) X^(-2) )^(2)")
    expanded = instantiate(substitute(display, {
        "X": parse_word(wing_x), "Y": parse_word(wing_y), "Z": parse_word(wing_z),
        "x": parse_word("x"), "y": parse_word("y"), "z": parse_word("z"),
    }, env), {})
    p = mv_presentation(2, 3, 2, 2, 3)
    r1 = instantiate(substitute(_relator(p, "r1"), {
        "x1": parse_word("x"), "x2": parse_word("y"), "x3": parse_word("z"),
    }, env), {})
    assert expanded == r1


def test_mv_h1_frozen():
    assert h1_order(mv_presentation(1, 1, 1, 1, 3)) == 1   # integer homology sphere
    assert h1_order(mv_presentation(1, 1, 1, 2, 3)) == 16


def test_mv_h1_triple_agreement_grid():
    values = (-2, -1, 1, 2)
    for q, s, t, l in itertools.product(values, repeat=4):
        expansion = EvenExpansion([-2 * q, 2 * s, -2 * t, 2 * l])
        assert h1_order(mv_presentation(q, s, t, l, 3)) == \
            h1_cyclic_cover_order(expansion, 3), (q, s, t, l)


def test_h1_order_does_not_use_smith_normal_form(monkeypatch):
    """Neither the H_1 order nor the product identity's row-span check
    reaches the Smith form."""
    def refuse(*args, **kwargs):
        raise AssertionError("smith_normal_form was called")
    for module in (intlinalg, presentations):
        monkeypatch.setattr(module, "smith_normal_form", refuse, raising=False)
    assert h1_order(genus_one_presentation(2, 3, 6)) == \
        h1_cyclic_cover_order([4, -6], 6)
    assert h1_order(mv_presentation(1, -2, 2, 1, 4)) == \
        h1_cyclic_cover_order([-2, -4, -4, 2], 4)
    assert h1_order(genus_one_presentation(1, 1, 6)) is INFINITE
    for params in ((1, 1, 1, 1), (2, -1, 1, 2), (-2, 3, -1, 1)):
        v = verify_product_identity(*params)
        assert v.target_in_row_span and v.ok, params


@pytest.mark.parametrize("presentation, terms, n", [
    # where the unbounded SNF never finished: two ROADMAP baseline cases
    # (the third is the first through the CLI) and a genus-1 knot at n = 10
    (lambda: genus_one_presentation(3, 2, 8), [6, -4], 8),
    (lambda: mv_presentation(-3, -2, -2, -3, 5), [6, -4, 4, -6], 5),
    (lambda: genus_one_presentation(-2, 3, 10), [-4, -6], 10),
])
def test_h1_order_past_the_snf_blowups_matches_the_oracle(presentation, terms, n):
    assert h1_order(presentation()) == h1_cyclic_cover_order(terms, n)


@pytest.mark.parametrize("argv, n", [
    (["--cover", "5", "--method", "all", "--", "6", "-4", "4", "-6"], 5),
    (["--cover", "8", "--method", "snf", "--", "6", "-4"], 8),
])
def test_h1_cli_baseline_cases_answer(argv, n, capsys):
    assert cli.main(["h1", *argv]) == 0
    terms = [int(a) for a in argv[argv.index("--") + 1:]]
    want = str(h1_cyclic_cover_order(terms, n))
    out = capsys.readouterr().out
    assert out in (f"{want}\n", f"{want},{want} AGREE\n")


@pytest.mark.parametrize("terms", [
    ["6", "-4"], ["-4", "6"], ["2", "-2"],
    ["-2", "2", "-2", "4"], ["6", "-4", "4", "-6"], ["4", "2", "-2", "-4"],
])
@pytest.mark.parametrize("n", [10, 20, 30])
def test_h1_all_methods_agree_on_large_covers(terms, n, capsys):
    code = cli.main(["h1", "--cover", str(n), "--method", "all", "--", *terms])
    out = capsys.readouterr().out
    assert code == 0
    values, verdict = out.split()
    assert verdict == "AGREE"
    assert values.split(",")[0] == str(h1_cyclic_cover_order(
        [int(a) for a in terms], n))


def test_mv_h1_n2_is_knot_determinant():
    values = (-2, -1, 1, 2)
    rng = random.Random(3)
    cells = [tuple(rng.choice(values) for _ in range(4)) for _ in range(40)]
    for q, s, t, l in cells:
        expansion = EvenExpansion([-2 * q, 2 * s, -2 * t, 2 * l])
        assert h1_order(mv_presentation(q, s, t, l, 2)) == \
            h1_cyclic_cover_order(expansion, 2), (q, s, t, l)


# ---------------------------------------------------------------------------
# One substitution per presentation, against the per-index reference
# ---------------------------------------------------------------------------

def _gen(i, n):
    return f"x{((i - 1) % n) + 1}"


def reference_genus_one(k, l, n):
    """The genus-one family built index by index: the template substituted
    and reduced once for every relator."""
    bounds = {}
    k_exp = presentations._as_exponent(k, 2, bounds)
    l_exp = presentations._as_exponent(l, 1, bounds)
    env = ParamEnv(bounds)
    template = substitute_params(parse_word(presentations._GENUS_ONE_TEMPLATE),
                                 {"k": k_exp, "l": l_exp})
    generators = [_gen(i, n) for i in range(1, n + 1)]
    relators = [parse_word(" ".join(generators))]
    for i in range(1, n + 1):
        window = {"A": parse_word(_gen(i, n)), "B": parse_word(_gen(i + 1, n)),
                  "C": parse_word(_gen(i + 2, n))}
        relators.append(substitute(template, window, env))
    return Presentation(generators, relators, env,
                        [f"r{i}" for i in range(n + 1)])


def reference_mv(q, s, t, l, n):
    """The genus-two family built index by index."""
    env = ParamEnv({})
    template = substitute_params(parse_word(presentations._GENUS_TWO_TEMPLATE),
                                 {"q": q, "s": s, "t": t, "l": l})
    relators = []
    for i in range(1, n + 1):
        window = {v: parse_word(_gen(i + offset, n))
                  for v, offset in zip("abcde", range(-2, 3))}
        relators.append(substitute(template, window, env))
    return Presentation([_gen(i, n) for i in range(1, n + 1)], relators, env,
                        [f"r{i}" for i in range(1, n + 1)])


def _nonzero(rng):
    return rng.choice([v for v in range(-4, 5) if v])


@pytest.mark.parametrize("n", range(2, 13))
def test_genus_one_matches_the_per_index_reference(n):
    rng = random.Random(1000 + n)
    params = [("k", "l"), ("k", 3), (2, "l")]
    params += [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
    for k, l in params:
        got, want = genus_one_presentation(k, l, n), reference_genus_one(k, l, n)
        assert (_presentation_text(got)
                == _presentation_text(want)), (k, l, n)
        assert got.env == want.env
        assert abelianization_matrix(got) == word_matrix(want)
        values = {"k": rng.randint(2, 6), "l": rng.randint(1, 5)}
        assert abelianization_matrix(got, values) == word_matrix(want, values)


@pytest.mark.parametrize("n", range(2, 13))
def test_mv_matches_the_per_index_reference(n):
    rng = random.Random(2000 + n)
    for _ in range(6):
        params = [_nonzero(rng) for _ in range(4)]
        got, want = mv_presentation(*params, n), reference_mv(*params, n)
        assert (_presentation_text(got)
                == _presentation_text(want)), (params, n)
        assert abelianization_matrix(got, {}) == word_matrix(want, {})


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_builders_substitute_once_whatever_n(n, monkeypatch):
    """Building substitutes nothing; the first read of the relators
    substitutes the template once, whatever n, and later reads reuse it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return substitute(*args, **kwargs)

    monkeypatch.setattr(presentations, "substitute", counting)
    for p in (genus_one_presentation("k", "l", n),
              mv_presentation(1, -2, 2, 1, n)):
        calls.clear()
        abelianization_matrix(p)
        assert len(calls) == 0
        first = p.relators
        assert len(calls) == 1
        assert p.relators is first and len(calls) == 1


def test_h1_order_builds_no_word(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("h1_order built a relator word or a matrix")
    for name in ("substitute", "substitute_params", "parse_word",
                 "abelianization_matrix"):
        monkeypatch.setattr(presentations, name, refuse)
    for n in (2, 3, 4, 7):
        assert h1_order(mv_presentation(2, -2, 1, 2, n)) == \
            h1_cyclic_cover_order([-4, -4, -2, 4], n)
        assert h1_order(genus_one_presentation(2, 3, n)) == \
            h1_cyclic_cover_order([4, -6], n)
        assert h1_order(genus_one_presentation("k", "l", n),
                        {"k": 3, "l": 2}) == h1_cyclic_cover_order([6, -4], n)


_SYMBOLS = st.sampled_from(["k", "l", "m"])


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.one_of(st.integers(-3, 3), _SYMBOLS),
       st.one_of(st.integers(-3, 3), _SYMBOLS),
       st.tuples(*[st.integers(-3, 3).filter(bool)] * 4),
       st.fixed_dictionaries({v: st.integers(-4, 4) for v in "klm"}),
       st.booleans())
@example(2, 0, 3, (1, 1, 1, 1), {"k": 2, "l": 1, "m": 0}, True)
@example(3, 2, 0, (2, -1, 1, -2), {"k": 2, "l": 1, "m": 0}, True)
@example(4, "l", "k", (-1, 2, -3, 1), {"k": 0, "l": 3, "m": 1}, False)
@example(4, "k", "l", (3, 3, -1, 2), {"k": 2, "l": 0, "m": 1}, True)
def test_circulant_equals_the_word_walk(n, k, l, mv_params, values, with_values):
    """The circulant of a fresh presentation, read before its relators,
    equals the exponent sums of those relator words."""
    for p in (genus_one_presentation(k, l, n), mv_presentation(*mv_params, n)):
        at = values if with_values else None
        got = abelianization_matrix(p, at)
        assert got == word_matrix(p, at), (k, l, mv_params, n)
        if with_values:
            assert all(type(entry) is int for row in got for entry in row)
        else:
            assert all(isinstance(entry, MultiPoly) for row in got for entry in row)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 14), st.integers(-4, 4), st.integers(-4, 4),
       st.tuples(*[st.integers(-3, 3).filter(bool)] * 4), st.booleans())
# n = 2, 3, 4: window letters land on one generator (windows of 3 and 5)
@example(2, 2, 3, (1, -2, 2, 1), False)
@example(3, -2, 1, (-1, 2, -3, 1), False)
@example(4, 3, -2, (2, 1, -1, -2), False)
@example(5, 0, 3, (1, 1, 1, 1), False)      # k = 0: f = -x, a unit
@example(6, 2, 0, (1, 1, 1, 2), True)       # l = 0: f = -x, a unit
@example(6, 1, 1, (1, 1, 1, 1), True)       # trefoil at n = 6: INFINITE
def test_h1_order_equals_the_dense_cokernel(n, k, l, mv_params, symbolic):
    """The cyclic resultant of the symbol equals the cokernel order of the
    dense circulant, for both families and symbolic genus one."""
    genus_one = (genus_one_presentation("k", "l", n), {"k": k, "l": l}) \
        if symbolic else (genus_one_presentation(k, l, n), None)
    for p, values in (genus_one, (mv_presentation(*mv_params, n), None)):
        dense = cokernel_order(abelianization_matrix(p, values or {}), n)
        assert h1_order(p, values) == dense, (k, l, mv_params, n)


def test_symbolic_genus_one_needs_values():
    with pytest.raises(WordError, match="no value for parameter 'k'"):
        h1_order(genus_one_presentation("k", "l", 5))


def _continuant(diagonal):
    """det(V - x V^T) for the ladder Seifert matrix with this diagonal, as
    ascending coefficients in x: ``alexander``'s loop
    D_j = d_j (1 - x) D_(j-1) + x D_(j-2), run over polynomials in the
    parameters and not normalized."""
    zero = MultiPoly.const(0)
    prev, cur = [zero], [MultiPoly.const(1)]
    for d in diagonal:
        nxt = [zero] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += d * c
            nxt[i + 1] -= d * c
        for i, c in enumerate(prev):
            nxt[i + 1] += c
        prev, cur = cur, nxt
    return cur


def _laurent_symbol(family):
    """(lowest offset, coefficients of x**lowest ... upward) of the symbol
    sum(window_sum(offset) x**offset)."""
    offsets = [offset for offset, _ in family.window_sums]
    assert offsets == list(range(offsets[0], offsets[-1] + 1))
    return offsets[0], [poly for _, poly in family.window_sums]


def test_circulant_symbol_is_the_seifert_continuant():
    """As polynomials in x and the parameters: x**2 f = D(-q, -s, -t, -l)
    for genus two and f = -D(k, l) for genus one, where D is the continuant
    whose value the oracle takes the resultant of.  The dense circulant
    has the same cokernel as Z[x]/(x**n - 1, f) for every n, so snf and the
    oracle compute one polynomial quotient at every n and parameter."""
    q, s, t, l, k = (MultiPoly.var(v) for v in "qstlk")
    lowest, f = _laurent_symbol(presentations._GENUS_TWO)
    assert lowest == -2 and f == _continuant([-q, -s, -t, -l])
    assert sum(f) == 1
    lowest, f = _laurent_symbol(presentations._GENUS_ONE)
    assert lowest == 0 and f == [-c for c in _continuant([k, l])]
    assert sum(f) == -1


def test_triple_cover_norm_is_the_table_row():
    """With D = D(-q, -s, -t, -l) = a + b x modulo 1 + x + x**2, the norm
    |Res(1 + x + x**2, D)| = a**2 - a b + b**2 is the closed-form
    L(*,*,*) row: snf, the oracle and the table agree at n = 3 for every
    parameter, not only on a grid."""
    d = _continuant([-MultiPoly.var(v) for v in "qstl"])
    # x**3 = 1 and x**2 = -1 - x modulo 1 + x + x**2
    a, b = d[0] + d[3] - d[2], d[1] + d[4] - d[2]
    row = goeritz.table_row("L", "*,*,*").poly
    assert a * a - a * b + b * b in (row, -row)
    # The trace path: d is palindromic, d = x**2 T(x + 1/x) with
    # T = d[2] + d[3] V_1 + d[4] V_2 (V_1 = u, V_2 = u**2 - 2), and the
    # 3-fold order is T(-1)**2, the root of 1 + u being u = -1.  T(-1) is
    # F_L = 1 - 3lq - 3qs - 3lt + 9lqst, the row's square root.
    q, s, t, l = (MultiPoly.var(v) for v in "qstl")
    assert d == d[::-1]
    trace = d[2] - d[3] - d[4]
    assert trace == 1 - 3 * l * q - 3 * q * s - 3 * l * t + 9 * l * q * s * t
    assert trace * trace in (row, -row)


def _laplace_det(rows):
    """Determinant by expansion along the first row, over any ring."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a != 0)


def _five_fold_norm(delta):
    """(e**2 - c e - c**2)**2 for delta = c + e x + c x**2: the trace
    polynomial is c u + e, the root of U_2 + U_1 = u**2 + u - 1 are
    u = -1/phi and phi, and Res(u**2 + u - 1, c u + e) = e**2 - c e - c**2,
    the norm of e + c phi from Z[phi]."""
    c, e, c_again = delta
    assert c == c_again
    return (e * e - c * e - c * c) ** 2


def test_five_fold_covers_of_the_genus_one_family():
    """|H_1| of the 5-fold cover of K[2k, -2l] is (e**2 - c e - c**2)**2
    for Alexander polynomial c + e t + c t**2: against the oracle for
    0 < |k|, |l| <= 30, and as polynomials in k and l for the genus-one
    symbol, whose order is the 6 x 6 Sylvester determinant of
    1 + x + ... + x**4 and the symbol."""
    for k, l in itertools.product(
            [v for v in range(-30, 31) if v], repeat=2):
        terms = [2 * k, -2 * l]
        assert h1_cyclic_cover_order(terms, 5) == \
            _five_fold_norm(alexander(terms)), terms
    k, l = MultiPoly.var("k"), MultiPoly.var("l")
    lowest, f = _laurent_symbol(presentations._GENUS_ONE)
    f = [poly.substitute({"k": k, "l": l}) for poly in f]
    sylvester = [[1] * 5 + [0], [0] + [1] * 5] + \
        [[0] * i + f[::-1] + [0] * (3 - i) for i in range(4)]
    order = _laplace_det(sylvester)
    assert order in (_five_fold_norm(f), -_five_fold_norm(f))
    for k, l in ((1, 1), (2, -3), (-4, 5)):
        assert h1_order(genus_one_presentation(k, l, 5)) == _five_fold_norm(
            alexander([2 * k, -2 * l]))


# ---------------------------------------------------------------------------
# Product identity r3 r2 r1 = zyx
# ---------------------------------------------------------------------------

# The ParamWord reference path for the n=3 identity checks: the relators as
# the presentation's words, renamed to x, y, z (= x1, x2, x3), and the
# rewritten forms expanded by ``substitute``.
_XYZ_RENAME = {"x1": "x", "x2": "y", "x3": "z"}
_XYZ_WORDS = {gen: parse_word(gen) for gen in ("x", "y", "z")}


def _relators_xyz(p):
    """The n=3 relators rewritten over x, y, z (= x1, x2, x3)."""
    return [presentations._rename(rel, _XYZ_RENAME) for rel in p.relators]


def test_relator_runs_match_the_presentation_words():
    for params in [(1, 1, 1, 1), (2, -1, 3, -2), (-3, 2, -1, 1), (4, 4, 4, 4)]:
        values = dict(zip("qstl", params))
        assert presentations._relator_runs(values) == [
            instantiate(rel, {}) for rel in _relators_xyz(
                mv_presentation(*params, 3))], params


def _relator_runs_per_index(values):
    """r1, r2, r3 each instantiated from the template on its own: r_i maps
    the window letter at offset o to x_(i+o)."""
    return [instantiate(presentations._GENUS_TWO.template, values,
                        {letter: [("xyz"[(i + offset) % 3], 1)]
                         for letter, offset in presentations._GENUS_TWO.window})
            for i in range(3)]


@pytest.mark.parametrize("signs", itertools.product((1, -1), repeat=4))
@given(st.tuples(*[st.integers(1, 6)] * 4))
@example((6, 6, 6, 6))
@settings(max_examples=8, deadline=None)
def test_relator_runs_are_the_per_index_instantiations(signs, magnitudes):
    values = {name: sign * m
              for name, sign, m in zip("qstl", signs, magnitudes)}
    assert presentations._relator_runs(values) == _relator_runs_per_index(
        values)


def test_relator_runs_instantiate_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return instantiate(*args)

    monkeypatch.setattr(presentations, "instantiate", counted)
    presentations._relator_runs({"q": 2, "s": -1, "t": 3, "l": 2})
    assert len(calls) == 1


def test_product_identity_frozen():
    v = verify_product_identity(1, 1, 1, 1)
    assert v.status == "FULL_PASS"
    assert v.abelian_sums == (1, 1, 1)
    assert v.abelian_ok
    assert v.target_in_row_span
    assert v.first_difference is None
    assert v.ok


def test_product_identity_grid():
    for q, s, t, l in itertools.product((-2, -1, 1, 2), repeat=4):
        v = verify_product_identity(q, s, t, l)
        assert v.abelian_ok, (q, s, t, l)
        assert v.target_in_row_span, (q, s, t, l)
        assert v.status == "FULL_PASS", (q, s, t, l, v.first_difference)


def test_product_identity_at_ten():
    # The product is a conjugate u zyx u^-1 with tens of thousands of letters.
    assert verify_product_identity(10, 10, 10, 10).status == "FULL_PASS"


def test_product_identity_reduced_product_is_conjugate_of_target():
    v = verify_product_identity(2, 1, 1, 1)
    got = instantiate(parse_word(v.reduced_product), {})
    assert equal_up_to_cyclic(got, ZYX) is CyclicMatch.DIRECT


def _product_via_param_word(q, s, t, l):
    """Text, abelian sums and first difference of r3 r2 r1 along the path
    ``verify_product_identity`` took when concrete words were also
    ParamWords: one constant syllable per run, the sums from the expanded
    product, the runs read back from the syllables."""
    r1, r2, r3 = _relators_xyz(mv_presentation(q, s, t, l, 3))
    product = ParamWord([Syllable(gen, AffineExp(exp))
                         for gen, exp in instantiate(r3 * r2 * r1, {})])
    sums = {gen: poly.evaluate({}) for gen, poly in exponent_sums(product).items()}
    runs = [(item.gen, item.exponent.constant_value()) for item in product.items]
    return (product.to_text(), tuple(sums.get(g, 0) for g in ("x", "y", "z")),
            first_syllable_difference(runs, ZYX))


_PRODUCT_PARAMS = (
    [tuple(m * sign for sign in signs) for m in range(1, 9)
     for signs in itertools.product((1, -1), repeat=4)]
    + [tuple(m * sign for m, sign in zip(order, signs))
       for order in itertools.permutations((1, 2, 3, 4))
       for signs in itertools.product((1, -1), repeat=4)])


def test_product_identity_matches_the_param_word_path():
    for params in _PRODUCT_PARAMS:
        v = verify_product_identity(*params)
        text, sums, difference = _product_via_param_word(*params)
        assert v.reduced_product == text, params
        assert v.abelian_sums == sums, params
        assert v.first_difference == (None if v.ok else difference), params
        assert v.ok == (sums == (1, 1, 1) and difference is None), params


# ---------------------------------------------------------------------------
# Rewritten relator forms
# ---------------------------------------------------------------------------

def test_rewrites_frozen():
    report = verify_rewrites(1, 1, 1, 1)
    assert report.all_ok
    assert [r.name for r in report.records] == [
        "r'1 vs r1", "r'2 vs r2", "r'3 vs r3",
        "r''1 vs r'1", "r''2 vs r'2", "r''3 vs r'3",
    ]
    assert all(r.match is CyclicMatch.DIRECT for r in report.records)


def test_rewrites_grid():
    for q, s, t, l in itertools.product((1, 2), repeat=4):
        report = verify_rewrites(q, s, t, l)
        assert report.all_ok, (q, s, t, l,
                               [r.name for r in report.records if not r.ok])


def test_rewrites_at_six():
    # 45 s when cyclic comparison expanded every syllable into letters
    report = verify_rewrites(6, 6, 6, 6)
    assert report.all_ok
    assert all(r.first_difference is None for r in report.records)


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, -1, 1, 2),
                                    (-1, 2, -2, 1)])
def test_first_difference_of_mismatched_relators_matches_the_letter_reference(
        params):
    words = [instantiate(rel, {}) for rel in _relators_xyz(
        mv_presentation(*params, 3))]
    words.append(ZYX)
    mismatches = 0
    for got, expected in itertools.product(words, repeat=2):
        diff = first_syllable_difference(got, expected)
        assert diff == reference.first_syllable_difference(got, expected)
        assert (equal_up_to_cyclic(got, expected)
                is reference.equal_up_to_cyclic(got, expected))
        mismatches += diff is not None
    assert mismatches >= 12


def test_rewrites_negative_q_s():
    for q, s in ((-1, 1), (1, -2), (-2, -1)):
        assert verify_rewrites(q, s, 1, 2).all_ok


def test_rewrites_requires_displayed_regime():
    with pytest.raises(WordError):
        verify_rewrites(1, 1, 1, 0)
    with pytest.raises(WordError):
        verify_rewrites(1, 1, -1, 1)


@pytest.mark.parametrize("check", [verify_rewrites, verify_product_identity])
@pytest.mark.parametrize("name, params", [("q", (0, 1, 1, 1)),
                                          ("s", (1, 0, 1, 1)),
                                          ("q", (0, -2, 2, 3)),
                                          ("s", (-2, 0, 3, 2))])
def test_identity_checks_reject_zero_q_and_s(check, name, params):
    with pytest.raises(WordError, match=(
            f"^parameter {name} must be a nonzero integer, got 0$")):
        check(*params)


@pytest.mark.parametrize("check", [verify_rewrites, verify_product_identity])
@pytest.mark.parametrize("name, params", [("l", (1, 1, 1, "x")),
                                          ("t", (1, 1, 1.5, 1)),
                                          ("l", (1, 1, 1, None)),
                                          ("t", (2, -1, True, 2))])
def test_identity_checks_reject_parameters_that_are_not_integers(
        check, name, params):
    value = params["qstl".index(name)]
    with pytest.raises(WordError, match=(
            f"^parameter {name} must be a nonzero integer, "
            f"got {re.escape(repr(value))}$")):
        check(*params)


# The paper's written forms of the wing words Y, Z and of r'_i, r''_i for
# i = 2, 3: the oracle for the forms the module derives from X, r'_1 and
# r''_1 by the deck rotation.
_WRITTEN_ROTATIONS = {
    "Y": "(z^(q) y^(-q))^(s) y (x^(q) y^(-q))^(s)",
    "Z": "(x^(q) z^(-q))^(s) z (y^(q) z^(-q))^(s)",
    "r'2": "(Z^(t) z^(q) y^(-q) Y^(-t))^(l) Y (X^(t) x^(q) y^(-q) Y^(-t))^(l)",
    "r'3": "(X^(t) x^(q) z^(-q) Z^(-t))^(l) Z (Y^(t) y^(q) z^(-q) Z^(-t))^(l)",
    "r''2": ("(Z^(t) z^(q) y^(-q) Y^(-t))^(l-1) Z^(t) z^(q) y^(-q) Y^(-t+1) "
             "(X^(t) x^(q) y^(-q) Y^(-t))^(l)"),
    "r''3": ("(X^(t) x^(q) z^(-q) Z^(-t))^(l-1) X^(t) x^(q) z^(-q) Z^(-t+1) "
             "(Y^(t) y^(q) z^(-q) Z^(-t))^(l)"),
}


# Each written form as (the form it rotates, the power of rho).
_ROTATION_OF = {"Y": ("X", 1), "Z": ("X", 2), "r'2": ("r'1", 1),
                "r'3": ("r'1", 2), "r''2": ("r''1", 1), "r''3": ("r''1", 2)}
_FIRST_FORMS = {"X": (presentations._X, presentations._X_WORD),
                "r'1": (presentations._RPRIME_1, presentations._RPRIME_WORD),
                "r''1": (presentations._RSECOND_1,
                         presentations._RSECOND_WORD)}


def test_the_rotated_templates_are_the_written_ones():
    assert _ROTATION_OF.keys() == _WRITTEN_ROTATIONS.keys()
    for name, written in _WRITTEN_ROTATIONS.items():
        first, k = _ROTATION_OF[name]
        text, word = _FIRST_FORMS[first]
        rho = presentations._RHO[k]
        assert text.translate(rho) == written, name
        assert presentations._rename(word, rho) == parse_word(written), name
    for text, word in _FIRST_FORMS.values():
        assert word == parse_word(text)


def _rewrites_via_param_word(q, s, t, l, rsecond_1=None):
    """(name, match, first difference) of each record along the path
    ``verify_rewrites`` took when it expanded ParamWords: the parameters
    substituted into each written form (X, r'_1, r''_1 and
    ``_WRITTEN_ROTATIONS``), ``substitute`` of the wings and of x, y, z,
    then ``instantiate``.  ``rsecond_1``, a text put in place of r''_1,
    stands with its rotations by ``_RHO`` for r''_1, r''_2, r''_3."""
    texts = {"X": presentations._X, "r'1": presentations._RPRIME_1,
             "r''1": presentations._RSECOND_1, **_WRITTEN_ROTATIONS}
    if rsecond_1 is not None:
        texts.update((f"r''{k}", rsecond_1.translate(rho))
                     for k, rho in enumerate(presentations._RHO, 1))
    consts = {"q": q, "s": s, "t": t, "l": l}
    wings = {name: substitute_params(parse_word(texts[name]), consts)
             for name in "XYZ"}
    wings.update(_XYZ_WORDS)

    def expand(name):
        return instantiate(substitute(substitute_params(
            parse_word(texts[name]), consts), wings, ParamEnv({})), {})

    base = [instantiate(r, {})
            for r in _relators_xyz(mv_presentation(q, s, t, l, 3))]
    primes = [expand(f"r'{i}") for i in (1, 2, 3)]
    pairs = [(f"r'{i} vs r{i}", primes[i - 1], base[i - 1]) for i in (1, 2, 3)]
    pairs += [(f"r''{i} vs r'{i}", expand(f"r''{i}"), primes[i - 1])
              for i in (1, 2, 3)]
    return [(name, equal_up_to_cyclic(got, expected),
             first_syllable_difference(got, expected))
            for name, got, expected in pairs]


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (-1, 2, 1, 2),
                                    (2, -3, 2, 1), (-2, -1, 3, 2),
                                    (3, 1, 2, 3), (1, -2, 4, 1)])
def test_rewrites_match_the_param_word_path(params):
    _assert_rewrites_match_the_param_word_path(params)


def _assert_rewrites_match_the_param_word_path(params, rsecond_1=None):
    report = verify_rewrites(*params)
    expected = _rewrites_via_param_word(*params, rsecond_1)
    assert [(r.name, r.match, r.first_difference)
            for r in report.records] == [
        (name, match, None if match else difference)
        for name, match, difference in expected]


@pytest.mark.parametrize("q_positive, s_positive",
                         itertools.product((True, False), repeat=2))
def test_every_rewrite_record_is_shown_in_every_sign_class(q_positive,
                                                           s_positive):
    assert presentations._shown_rewrites(q_positive, s_positive) == (True,
                                                                     True)


@pytest.mark.parametrize("q_positive, s_positive",
                         itertools.product((True, False), repeat=2))
def test_the_rotated_records_are_shown_as_the_first_is(q_positive,
                                                      s_positive):
    # the symbolic check for i = 2, 3 on the written forms, which
    # _shown_rewrites leaves to rho
    signed, env = presentations._signed_env((1 if q_positive else -1,
                                             1 if s_positive else -1, 1, 1))

    def signed_word(text):
        return reduce_word(substitute_params(parse_word(text), signed), env)

    subs = {name: substitute_params(parse_word(text), signed)
            for name, text in (("X", presentations._X),
                               ("Y", _WRITTEN_ROTATIONS["Y"]),
                               ("Z", _WRITTEN_ROTATIONS["Z"]))}
    subs.update(_XYZ_WORDS)
    family = presentations._GENUS_TWO
    base = [presentations._rename(r, _XYZ_RENAME)
            for r in presentations._periodic_relators(
                substitute_params(family.template, signed), family.window,
                3, env)]
    for i in (2, 3):
        prime = signed_word(_WRITTEN_ROTATIONS[f"r'{i}"])
        second = signed_word(_WRITTEN_ROTATIONS[f"r''{i}"])
        assert substitute(prime, subs, env) == base[i - 1]
        assert second in peel_variants(prime, env)


_signed_magnitude = st.integers(1, 6).flatmap(
    lambda m: st.sampled_from((m, -m)))


@given(_signed_magnitude, _signed_magnitude, st.integers(1, 4),
       st.integers(1, 4))
@example(-6, 6, 1, 1)
@example(6, -6, 1, 4)
@example(-1, -1, 4, 1)
@settings(max_examples=60, deadline=None)
def test_symbolic_rewrites_match_the_param_word_path(q, s, t, l):
    _assert_rewrites_match_the_param_word_path((q, s, t, l))


@pytest.mark.parametrize("params", [(10**9, -10**9, 10**9, 10**9),
                                    (200, 200, 200, 200)])
def test_symbolic_rewrites_build_no_word(params, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a concrete word was built")

    monkeypatch.setattr(presentations, "instantiate", refuse)
    presentations._shown_rewrites.cache_clear()
    start = time.perf_counter()
    assert verify_rewrites(*params).all_ok
    assert time.perf_counter() - start < 0.5


def test_a_record_not_shown_is_checked_concretely(monkeypatch):
    # r''1 with one letter too many, and so r''2 and r''3 by the rotation:
    # the symbolic check cannot show them, and the concrete check at the
    # point reports each mismatch
    patched = presentations._RSECOND_1 + " x"
    monkeypatch.setattr(presentations, "_RSECOND_WORD", parse_word(patched))
    presentations._shown_rewrites.cache_clear()
    try:
        assert presentations._shown_rewrites(True, False) == (True, False)
        report = verify_rewrites(2, -1, 2, 3)
        assert [r.match for r in report.records] == (
            [CyclicMatch.DIRECT] * 3 + [CyclicMatch.NONE] * 3)
        assert [r.name for r in report.records[3:]] == [
            "r''1 vs r'1", "r''2 vs r'2", "r''3 vs r'3"]
        differences = [r.first_difference for r in report.records[3:]]
        assert None not in differences and len(set(differences)) == 3
        _assert_rewrites_match_the_param_word_path((2, -1, 2, 3), patched)
    finally:
        presentations._shown_rewrites.cache_clear()


def test_trivial_wing_substitution():
    env = ParamEnv({})
    fixture = parse_word("X^(2) y X^(-1)")
    out = instantiate(substitute(fixture, {
        "X": parse_word("x"), "y": parse_word("y")}, env), {})
    assert out == [("x", 2), ("y", 1), ("x", -1)]


# ---------------------------------------------------------------------------
# Row-span membership
# ---------------------------------------------------------------------------

def test_in_row_span_examples():
    assert in_row_span([[2, 0], [0, 3]], [4, 9])
    assert not in_row_span([[2, 0], [0, 3]], [1, 0])
    assert in_row_span([[1, 1, 1]], [3, 3, 3])
    assert not in_row_span([[1, 1, 1]], [1, 0, 0])
    assert in_row_span([], [0, 0])


def test_in_row_span_randomized():
    rng = random.Random(17)
    for _ in range(60):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(rng.randint(1, 3))]
        coeffs = [rng.randint(-3, 3) for _ in rows]
        vec = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(3)]
        assert in_row_span(rows, vec), (rows, coeffs)
