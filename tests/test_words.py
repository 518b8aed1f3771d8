"""Tests for the parametric word algebra."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import letter_words as reference
from bridgecover import words
from bridgecover.presentations import first_syllable_difference
from bridgecover.words import (
    AffineExp, CannotPeelError, CyclicMatch, ParamEnv, ParamWord, PeelSide,
    PowerBlock, SignLattice, Syllable, WordError, cyclic_normal_form,
    equal_up_to_cyclic, exponent_sums, instantiate, parse_affine, parse_word,
    peel, peel_block, power_block, reduce_word, sign_power, sign_product,
    substitute, substitute_params, word_sign,
)
from letter_words import letters


def syll(gen, exponent=1):
    return Syllable(gen, AffineExp.coerce(exponent))


SP = SignLattice.STRICT_POS
NN = SignLattice.NON_NEG
ZE = SignLattice.ZERO
NP = SignLattice.NON_POS
SN = SignLattice.STRICT_NEG
UK = SignLattice.UNKNOWN

ENV_KL = ParamEnv({"k": 2, "l": 1})


# ---------------------------------------------------------------------------
# Affine expressions
# ---------------------------------------------------------------------------

def test_affine_basic_arithmetic():
    k = AffineExp.param("k")
    l = AffineExp.param("l")
    e = k - 1 + l.scale(2)
    assert e.evaluate({"k": 3, "l": 5}) == 12
    assert (e - e) == 0
    assert (-e).evaluate({"k": 3, "l": 5}) == -12
    assert (k + 1) - 1 == k


def test_affine_str_and_parse():
    k = AffineExp.param("k")
    assert str(k - 1) == "k-1"
    assert str(-k) == "-k"
    assert str(AffineExp(2)) == "2"
    assert str(AffineExp(0)) == "0"
    assert str(k.scale(2) - AffineExp.param("l") + 3) == "2k-l+3"
    for text in ["k-1", "-k", "2", "0", "2k-l+3", "-2k+1", "k+l"]:
        assert str(parse_affine(text)) == text


affine_strategy = st.builds(
    AffineExp,
    st.integers(-9, 9),
    st.dictionaries(st.sampled_from(["k", "l", "q", "s"]), st.integers(-9, 9), max_size=3),
)


@given(affine_strategy)
def test_affine_parse_roundtrip(e):
    assert parse_affine(str(e)) == e


def test_affine_substitute_params():
    k = AffineExp.param("k")
    e = k.scale(3) - 2
    swapped = e.substitute_params({"k": AffineExp.param("m") + 1})
    assert swapped == AffineExp.param("m").scale(3) + 1


def _reference_substitute_params(e, mapping):
    """The one-AffineExp-per-term loop ``AffineExp.substitute_params``
    replaced."""
    out = AffineExp(e.const)
    for name, coeff in e.coeffs.items():
        out = out + mapping.get(name, AffineExp.param(name)).scale(coeff)
    return out


_param_names = st.sampled_from(["k", "l", "m", "q", "s"])
_small_affine = st.builds(
    AffineExp, st.integers(-4, 4),
    st.dictionaries(_param_names, st.integers(-2, 2), max_size=5))


@example(AffineExp(0, {"k": 1, "l": 1, "m": 1}),
         {"k": AffineExp(0, {"q": 1, "s": 1}), "l": AffineExp(0, {"q": -1}),
          "m": AffineExp(0, {"q": 1})})
@settings(max_examples=300)
@given(_small_affine, st.dictionaries(_param_names, _small_affine, max_size=4))
def test_affine_substitute_params_matches_the_per_term_loop(e, mapping):
    got = e.substitute_params(mapping)
    want = _reference_substitute_params(e, mapping)
    assert got.const == want.const
    assert list(got.coeffs.items()) == list(want.coeffs.items())


# ---------------------------------------------------------------------------
# Environments and signs
# ---------------------------------------------------------------------------

def test_env_sign_classification():
    env = ENV_KL  # k >= 2, l >= 1
    k, l = AffineExp.param("k"), AffineExp.param("l")
    assert env.sign_of(k - 1) is SP
    assert env.sign_of(k - 2) is NN
    assert env.sign_of(AffineExp(0)) is ZE
    assert env.sign_of(2 - k) is NP
    assert env.sign_of(-k) is SN
    assert env.sign_of(k - 3) is UK
    assert env.sign_of(l) is SP
    assert env.sign_of(k + l) is SP
    assert env.sign_of(k - l) is UK


def test_env_undeclared_parameter():
    with pytest.raises(WordError):
        ENV_KL.sign_of(AffineExp.param("zz"))


def test_sign_product_table():
    assert sign_product(SP, SP) is SP
    assert sign_product(SP, NN) is SP
    assert sign_product(NN, NN) is NN
    assert sign_product(SN, NP) is SN
    assert sign_product(NP, NP) is NP
    assert sign_product(SP, SN) is UK
    assert sign_product(ZE, SN) is SN
    assert sign_product(UK, ZE) is UK
    assert sign_product(NN, NP) is UK


def test_sign_power_table():
    assert sign_power(SP, SP) is SP
    assert sign_power(SP, NN) is NN
    assert sign_power(SP, SN) is SN
    assert sign_power(SP, ZE) is ZE
    assert sign_power(SN, NP) is NN
    assert sign_power(SN, UK) is UK
    assert sign_power(ZE, UK) is ZE


def _lattice_holds(value: Fraction, sign: SignLattice) -> bool:
    return {
        SP: value > 1, NN: value >= 1, ZE: value == 1,
        NP: value <= 1, SN: value < 1, UK: True,
    }[sign]


@given(st.lists(st.tuples(st.sampled_from([SP, NN, ZE, NP, SN]),
                          st.integers(1, 4)), max_size=6))
def test_sign_product_sound_on_rationals(factors):
    """Interpret each sign as a positive rational and check the product."""
    rng = random.Random(11)
    total_sign = ZE
    total_value = Fraction(1)
    for sign, size in factors:
        base = Fraction(rng.randint(2, 5))
        value = {
            SP: base ** size, NN: base ** (size - 1), ZE: Fraction(1),
            NP: 1 / base ** (size - 1), SN: 1 / base ** size,
        }[sign]
        assert _lattice_holds(value, sign)
        total_sign = sign_product(total_sign, sign)
        total_value *= value
    assert _lattice_holds(total_value, total_sign)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def test_parse_simple_word():
    w = parse_word("x^(-k) y^(k)")
    assert w == ParamWord([syll("x", parse_affine("-k")), syll("y", parse_affine("k"))])


def test_parse_power_block():
    w = parse_word("(x^(-k) y^(k))^(l) z^(k-1)")
    assert len(w.items) == 2
    block = w.items[0]
    assert isinstance(block, PowerBlock)
    assert block.multiplicity == AffineExp.param("l")
    assert block.body == parse_word("x^(-k) y^(k)")
    assert w.items[1] == syll("z", "k-1")


def test_parse_nested_blocks():
    w = parse_word("( (a^(q) b^(-q))^(s) c )^(t)")
    outer = w.items[0]
    assert isinstance(outer, PowerBlock)
    inner = outer.body.items[0]
    assert isinstance(inner, PowerBlock)
    assert inner.multiplicity == AffineExp.param("s")


def test_parse_bare_exponent_and_default():
    assert parse_word("x^2") == ParamWord([syll("x", 2)])
    assert parse_word("x") == ParamWord([syll("x", 1)])
    assert parse_word("1") == ParamWord.empty()


def test_parse_errors():
    for bad in ["x^", "(x y", "x)", "(x)", "x^()", "^2", "x^(k**2)"]:
        with pytest.raises(WordError):
            parse_word(bad)


def test_text_roundtrip_frozen():
    texts = [
        "x",
        "x^(-k)",
        "(x^(-k) y^(k))^(l) (z^(-k) y^(k))^(l-1) z^(-k) y^(k-1)",
        "( (a^(q) b^(-q))^(s) c )^(t) d^(2)",
        "1",
    ]
    for text in texts:
        w = parse_word(text)
        assert parse_word(w.to_text()) == w


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def test_reduce_merges_adjacent_syllables():
    w = parse_word("x^(k) x^(1-k) y")
    assert reduce_word(w, ENV_KL) == parse_word("x y")


def test_reduce_cancels_through_zero():
    w = parse_word("x^(k) y^(k) y^(-k) x^(-k) z")
    assert reduce_word(w, ENV_KL) == parse_word("z")


def test_reduce_drops_trivial_blocks():
    env = ParamEnv({"k": 2, "l": 0})
    w = parse_word("(x y)^(0) z")
    assert reduce_word(w, env) == parse_word("z")
    w2 = parse_word("(x^(k) x^(-k))^(l) z")
    assert reduce_word(w2, env) == parse_word("z")


def test_reduce_inlines_multiplicity_one():
    w = parse_word("(x^(-k) y)^(1) y")
    assert reduce_word(w, ENV_KL) == parse_word("x^(-k) y^(2)")


def test_reduce_normalizes_negative_multiplicity():
    w = ParamWord([PowerBlock(parse_word("x^(-k) y"), parse_affine("-l"))])
    out = reduce_word(w, ENV_KL)
    assert out == parse_word("(y^(-1) x^(k))^(l)")


def test_reduce_single_syllable_block():
    assert reduce_word(parse_word("(x^(2))^(l)"), ENV_KL) == parse_word("x^(2l)")
    assert reduce_word(parse_word("(x^(k))^(3)"), ENV_KL) == parse_word("x^(3k)")


def test_reduce_unknown_multiplicity_sign_raises():
    env = ParamEnv({"k": 2, "m": -5})
    w = parse_word("(x y)^(m)")
    with pytest.raises(WordError):
        reduce_word(w, env)


def random_param_word(rng, depth=2):
    items = []
    for _ in range(rng.randint(1, 4)):
        if depth > 0 and rng.random() < 0.35:
            body = random_param_word(rng, depth - 1)
            mult = AffineExp(rng.randint(0, 2), {"l": rng.choice([0, 1])})
            items.append(PowerBlock(body, mult))
        else:
            gen = rng.choice(["x", "y", "z"])
            exp = AffineExp(rng.randint(-2, 2), {"k": rng.choice([-1, 0, 1])})
            items.append(Syllable(gen, exp))
    return ParamWord(items)


def test_reduce_preserves_instantiation_and_is_idempotent():
    rng = random.Random(20240817)
    for _ in range(200):
        w = random_param_word(rng)
        red = reduce_word(w, ENV_KL)
        assert reduce_word(red, ENV_KL) == red
        for k in (2, 3, 5):
            for l in (1, 2, 4):
                values = {"k": k, "l": l}
                assert instantiate(w, values) == instantiate(red, values)


# ---------------------------------------------------------------------------
# Peeling
# ---------------------------------------------------------------------------

def test_peel_left_frozen():
    w = parse_word("(x^(-k) y^(k))^(l)")
    out = peel(w, 0, PeelSide.LEFT, ENV_KL)
    assert out == parse_word("x^(-k) y^(k) (x^(-k) y^(k))^(l-1)")


def test_peel_right_frozen():
    w = parse_word("(x^(-k) y^(k))^(l)")
    out = peel(w, 0, PeelSide.RIGHT, ENV_KL)
    assert out == parse_word("(x^(-k) y^(k))^(l-1) x^(-k) y^(k)")


def test_peel_exhausts_to_inline():
    w = parse_word("(x y)^(1)")
    # multiplicity 1 is inlined by reduce, so peel on the reduced form fails
    assert reduce_word(w, ENV_KL) == parse_word("x y")
    out = peel(w, 0, PeelSide.LEFT, ENV_KL)
    assert out == parse_word("x y")


def test_peel_requires_provable_multiplicity():
    env = ParamEnv({"k": 2, "l": 0})
    w = parse_word("(x^(-k) y^(k))^(l)")
    with pytest.raises(CannotPeelError):
        peel(w, 0, PeelSide.LEFT, env)
    with pytest.raises(WordError):
        peel(parse_word("x y"), 0, PeelSide.LEFT, ENV_KL)


def test_peel_preserves_instantiation():
    rng = random.Random(7)
    w = parse_word("y (x^(-k) y^(k))^(l) z^(2)")
    for side in (PeelSide.LEFT, PeelSide.RIGHT):
        out = peel(w, 1, side, ENV_KL)
        for _ in range(20):
            values = {"k": rng.randint(2, 5), "l": rng.randint(1, 5)}
            assert instantiate(out, values) == instantiate(w, values)


# Reduced random words for the seam oracles: exponents affine in k, l; block
# multiplicities of definite sign under ENV_KL (k >= 2, l >= 1).
_seam_exponent = st.builds(
    AffineExp, st.integers(-2, 2),
    st.dictionaries(st.sampled_from(["k", "l"]), st.integers(-1, 1), max_size=2))
_seam_multiplicity = st.builds(
    lambda c, l, sign: AffineExp(c, {"l": l}).scale(sign),
    st.integers(-1, 2), st.integers(0, 1), st.sampled_from([1, -1]))
_seam_word = st.recursive(
    st.lists(st.builds(Syllable, st.sampled_from(["x", "y", "z"]),
                       _seam_exponent), max_size=4).map(ParamWord),
    lambda bodies: st.lists(
        st.one_of(st.builds(Syllable, st.sampled_from(["x", "y", "z"]),
                            _seam_exponent),
                  st.builds(PowerBlock, bodies, _seam_multiplicity)),
        max_size=5).map(ParamWord),
    max_leaves=12,
).map(lambda w: reduce_word(w, ENV_KL))


def _reduce_spliced(w, start, stop, items):
    return reduce_word(
        ParamWord(w.items[:start] + tuple(items) + w.items[stop:]), ENV_KL)


@given(_seam_word, _seam_word, st.data())
@settings(max_examples=200)
def test_splice_equals_reduce_word_of_the_spliced_word(w, other, data):
    n = len(w.items)
    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(start, n))
    # new items that cancel into the suffix or the prefix, or unrelated ones
    items = data.draw(st.sampled_from([
        other.items,
        ParamWord(w.items[stop:]).inverse().items,
        ParamWord(w.items[:start]).inverse().items,
        ParamWord(w.items[stop:stop + 2]).inverse().items + other.items,
    ]))
    out = words.splice(w, start, stop, items, ENV_KL)
    expected = _reduce_spliced(w, start, stop, items)
    assert out == expected
    assert out.to_text() == expected.to_text()


@given(_seam_word)
@settings(max_examples=200)
def test_peel_equals_reduce_word_of_the_peeled_word(w):
    for index, item in enumerate(w.items):
        if not isinstance(item, PowerBlock):
            continue
        for side in (PeelSide.LEFT, PeelSide.RIGHT):
            try:
                peeled = peel_block(item, side, ENV_KL)
            except CannotPeelError:
                continue
            out = peel(w, index, side, ENV_KL)
            expected = _reduce_spliced(w, index, index + 1, peeled.items)
            assert out == expected
            assert out.to_text() == expected.to_text()


def _rename_xyz(w):
    """w over a, b, x: images that mix new generators with a kept one."""
    return ParamWord([
        Syllable({"x": "a", "y": "b", "z": "x"}[item.gen], item.exponent)
        if isinstance(item, Syllable) else PowerBlock(_rename_xyz(item.body),
                                                      item.multiplicity)
        for item in w.items])


@given(_seam_word, st.dictionaries(st.sampled_from(["x", "y", "z"]),
                                   _seam_word.map(_rename_xyz),
                                   max_size=3),
       st.fixed_dictionaries({"k": st.integers(-3, 3), "l": st.integers(-3, 3)}))
@settings(max_examples=200)
def test_instantiate_through_runs_equals_substitute(w, sub_words, values):
    runs = {gen: instantiate(word, values) for gen, word in sub_words.items()}
    full = {gen: substitute_params(sub_words.get(gen, parse_word(gen)), values)
            for gen in ("x", "y", "z")}
    expected = instantiate(
        substitute(substitute_params(w, values), full, ParamEnv({})), {})
    assert instantiate(w, values, runs) == expected


# ---------------------------------------------------------------------------
# Substitution and instantiation
# ---------------------------------------------------------------------------

def test_substitute_identity_is_reduce():
    w = parse_word("x^(k) x^(-1) (y z)^(l)")
    sub = {g: parse_word(g) for g in ("x", "y", "z")}
    assert substitute(w, sub, ENV_KL) == reduce_word(w, ENV_KL)


def test_substitute_expands_exponents_to_blocks():
    w = parse_word("x^(l) y^(-2)")
    sub = {"x": parse_word("a b"), "y": parse_word("c")}
    out = substitute(w, sub, ENV_KL)
    assert out == parse_word("(a b)^(l) c^(-2)")


def test_substitute_missing_generator():
    with pytest.raises(WordError):
        substitute(parse_word("x y"), {"x": parse_word("a")}, ENV_KL)


def test_substitute_inverts_negative_exponents():
    w = parse_word("x^(-l)")
    out = substitute(w, {"x": parse_word("a b")}, ENV_KL)
    assert out == parse_word("(b^(-1) a^(-1))^(l)")


def _runs_word(runs):
    return ParamWord([Syllable(g, e) for g, e in runs])


def test_substitute_then_instantiate_commutes():
    rng = random.Random(99)
    w = parse_word("(x^(-k) y^(k))^(l) z^(k-1)")
    sub = {
        "x": parse_word("a^(k) b^(-1)"),
        "y": parse_word("b a"),
        "z": parse_word("a^(-1)"),
    }
    out = substitute(w, sub, ENV_KL)
    for _ in range(25):
        values = {"k": rng.randint(2, 4), "l": rng.randint(1, 4)}
        direct = instantiate(out, values)
        via_concrete = instantiate(
            substitute(_runs_word(instantiate(w, values)),
                       {g: _runs_word(instantiate(s, values))
                        for g, s in sub.items()},
                       ENV_KL),
            values)
        assert direct == via_concrete


def test_instantiate_frozen():
    w = parse_word("(x^(-k) y^(k))^(l)")
    got = instantiate(w, {"k": 2, "l": 2})
    assert got == [("x", -2), ("y", 2), ("x", -2), ("y", 2)]
    assert instantiate(w, {"k": 2, "l": 0}) == []


def test_instantiate_free_reduction():
    w = parse_word("x^(k) y y^(-1) x^(-k) z")
    assert instantiate(w, {"k": 3}) == [("z", 1)]


def test_instantiate_negative_multiplicity_value():
    w = ParamWord([PowerBlock(parse_word("x y"), parse_affine("l-2"))])
    got = instantiate(w, {"l": 0})
    assert got == [("y", -1), ("x", -1), ("y", -1), ("x", -1)]


def test_instantiate_needs_every_parameter():
    with pytest.raises(WordError):
        instantiate(parse_word("x^(k)"), {})
    with pytest.raises(WordError):
        instantiate(parse_word("(x y)^(l)"), {"k": 1})


def test_letters_expansion():
    for expand in (letters, words.letters):
        assert expand([("x", 2), ("y", -1)]) == [("x", 1), ("x", 1), ("y", -1)]
        assert expand([("x", 1), ("x", -1)]) == []
        assert expand([("x", 3), ("y", 1), ("y", -1), ("x", -2)]) == [("x", 1)]


def test_runs_text_is_the_word_syntax():
    assert words.runs_text([]) == "1"
    assert words.runs_text([("x", 1), ("y", -2), ("x", 3)]) == "x y^(-2) x^(3)"
    runs = [("z", -1), ("x", 1), ("y", 4)]
    assert instantiate(parse_word(words.runs_text(runs)), {}) == runs


# ---------------------------------------------------------------------------
# Exponent sums
# ---------------------------------------------------------------------------

def test_exponent_sums_frozen():
    w = parse_word("(x^(-k) y^(k))^(l) (z^(-k) y^(k))^(l-1) z^(-k) y^(k-1)")
    sums = exponent_sums(w)
    from bridgecover.multipoly import MultiPoly
    k, l = MultiPoly.var("k"), MultiPoly.var("l")
    assert sums["x"] == -k * l
    assert sums["y"] == 2 * k * l - 1
    assert sums["z"] == -k * l
    assert set(sums) == {"x", "y", "z"}


def test_exponent_sums_match_instantiation():
    rng = random.Random(5)
    for _ in range(100):
        w = random_param_word(rng)
        sums = exponent_sums(w)
        values = {"k": rng.randint(-3, 3), "l": rng.randint(-3, 3)}
        concrete = {}
        for gen, step in letters(instantiate(w, values)):
            concrete[gen] = concrete.get(gen, 0) + step
        for gen in set(sums) | set(concrete):
            expected = sums.get(gen)
            assert concrete.get(gen, 0) == (0 if expected is None else expected.evaluate(values))


# ---------------------------------------------------------------------------
# Cyclic equality
# ---------------------------------------------------------------------------

def _concrete(text):
    return instantiate(parse_word(text), {})


def test_equal_up_to_cyclic_frozen():
    assert equal_up_to_cyclic(_concrete("x y x^(-1)"), _concrete("y")) is CyclicMatch.DIRECT
    assert equal_up_to_cyclic(_concrete("x y"), _concrete("y x")) is CyclicMatch.DIRECT
    assert equal_up_to_cyclic(_concrete("x y"), _concrete("y^(-1) x^(-1)")) is CyclicMatch.INVERSE
    assert equal_up_to_cyclic(_concrete("x y"), _concrete("x z")) is CyclicMatch.NONE
    assert equal_up_to_cyclic([], [("x", 1), ("x", -1)]) is CyclicMatch.DIRECT
    assert bool(CyclicMatch.DIRECT) and bool(CyclicMatch.INVERSE) and not bool(CyclicMatch.NONE)


concrete_word_strategy = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(-3, 3).filter(bool)),
    min_size=1, max_size=8,
)


def _inverse(runs):
    return [(g, -e) for g, e in reversed(runs)]


@given(concrete_word_strategy, st.integers(0, 7), st.booleans())
@settings(max_examples=150)
def test_cyclic_equality_properties(w, rot, invert):
    ls = letters(w)
    if not ls:
        return
    rot %= len(ls)
    other = ls[rot:] + ls[:rot]
    if invert:
        other = _inverse(other)
    got = equal_up_to_cyclic(w, other)
    if invert:
        assert got in (CyclicMatch.INVERSE, CyclicMatch.DIRECT)
    else:
        assert got is CyclicMatch.DIRECT


def test_cyclic_normal_form_ignores_a_long_conjugator():
    rng = random.Random(20261018)
    w = [("z", 1), ("y", 1), ("x", 1)]
    u = [(rng.choice("xyz"), rng.choice((1, -1))) for _ in range(10 ** 4)]
    conjugate = u + w + _inverse(u)
    assert cyclic_normal_form(conjugate) == cyclic_normal_form(w) == (
        ("x", 1), ("z", 1), ("y", 1))


@given(concrete_word_strategy, concrete_word_strategy)
@settings(max_examples=150)
def test_cyclic_equality_symmetric(w1, w2):
    assert bool(equal_up_to_cyclic(w1, w2)) == bool(equal_up_to_cyclic(w2, w1))


_run = st.tuples(st.sampled_from(["x", "y", "z"]),
                 st.integers(-3, 3).filter(bool))
_plain_word = st.lists(_run, max_size=8)
_exponent = st.integers(-4, 4).filter(bool)

# Words shaped to reach each branch of the run-length cyclic reduction and
# of the least rotation.
shaped_word_strategy = st.one_of(
    _plain_word,
    # end syllables in one generator, with the same or opposite signs
    st.builds(lambda g, a, b, mid: [(g, a)] + mid + [(g, b)],
              st.sampled_from(["x", "y", "z"]), _exponent, _exponent,
              st.lists(_run, max_size=6)),
    # conjugates u w u^-1, and full cancellation w w^-1
    st.builds(lambda u, w: u + w + _inverse(u), _plain_word, _plain_word),
    st.builds(lambda w: w + _inverse(w), _plain_word),
    # periodic words such as (x y^-1)^k
    st.builds(lambda body, k: body * k,
              st.lists(_run, min_size=1, max_size=3), st.integers(1, 5)),
)


@given(st.lists(st.tuples(st.sampled_from(["x", "y"]), st.integers(-3, 3)),
                max_size=12))
@example([("x", 0)])
@example([("x", 2), ("y", 0), ("x", -2)])
@example([("x", 1), ("x", -1), ("y", 2), ("y", -3), ("y", 1)])
@settings(max_examples=300)
def test_free_reduction_of_any_runs_matches_the_letter_reference(w):
    # runs in the same generator side by side and zero exponents, which
    # instantiate never returns
    assert words.letters(w) == reference.letters(w)
    assert list(cyclic_normal_form(w)) == reference.cyclic_runs(w)


def _rotated(w, rot, invert):
    ls = letters(w)
    if ls:
        rot %= len(ls)
        ls = ls[rot:] + ls[:rot]
    return _inverse(ls) if invert else ls


@given(shaped_word_strategy, st.data())
@example([("x", 1), ("y", -1)] * 3, None)
@example([("x", 2), ("y", 1), ("x", -2)], None)
@example([("x", 2), ("y", 1), ("x", 1)], None)
@example([("y", 1), ("x", -1), ("x", 1), ("y", -1)], None)
@settings(max_examples=300)
def test_run_length_cyclic_forms_match_the_letter_reference(w, data):
    assert list(cyclic_normal_form(w)) == reference.cyclic_runs(w)
    if data is None:
        others = [_rotated(w, 1, False), _rotated(w, 3, True)]
    else:
        others = [data.draw(shaped_word_strategy),
                  _rotated(w, data.draw(st.integers(0, 40)),
                           data.draw(st.booleans()))]
    for other in others:
        assert (equal_up_to_cyclic(w, other)
                is reference.equal_up_to_cyclic(w, other))
        assert (first_syllable_difference(w, other)
                == reference.first_syllable_difference(w, other))


# ---------------------------------------------------------------------------
# Word signs
# ---------------------------------------------------------------------------

def test_word_sign_frozen():
    w = parse_word("(x^(-k) y^(k))^(l)")
    assert word_sign(w, {"x": SN, "y": SP}, ENV_KL) is SP
    assert word_sign(w, {"x": SP, "y": SN}, ENV_KL) is SN
    assert word_sign(w, {"x": SP, "y": SP}, ENV_KL) is UK


def test_word_sign_weakens_with_nonstrict_multiplicity():
    env = ParamEnv({"k": 2, "l": 0})
    w = parse_word("(x^(-k) y^(k))^(l)")
    assert word_sign(w, {"x": SN, "y": SP}, env) is NN


def test_word_sign_requires_strict_assignment():
    assert word_sign(parse_word("x"), {"x": NN}, ENV_KL) is NN
    with pytest.raises(WordError):
        word_sign(parse_word("x y"), {"x": SP}, ENV_KL)


def test_word_sign_sound_on_rationals():
    """STRICT_POS words evaluate above 1 when generators are sent to rationals
    on the declared side of 1 (multiplicative model of an ordered group)."""
    rng = random.Random(13)
    w = parse_word("(x^(-k) y^(k))^(l) (z^(-k) y^(k))^(l-1) z^(-k) y^(k-1)")
    signs = {"x": SN, "y": SP, "z": SN}
    verdict = word_sign(w, signs, ENV_KL)
    assert verdict is SP
    for _ in range(50):
        values = {"k": rng.randint(2, 5), "l": rng.randint(1, 5)}
        gens = {}
        for g, s in signs.items():
            q = Fraction(rng.randint(2, 9), 1)
            gens[g] = q if s is SP else 1 / q
        total = Fraction(1)
        for gen, step in letters(instantiate(w, values)):
            total *= gens[gen] if step > 0 else 1 / gens[gen]
        assert total > 1
