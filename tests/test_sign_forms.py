"""The compiled sign path against a lazy walk.

``words.sign_form`` reads every exponent sign of a word once and
``words.form_sign`` evaluates the compiled form under a generator sign map.
The references below are a walk that reads each exponent's sign when it
reaches it, and the sign of an affine exponent from a lower-bound walk and a
separate upper-bound walk (``ParamEnv.sign_of`` takes both in one pass).
"""
from collections import namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from bridgecover.words import (
    AffineExp, ParamEnv, ParamWord, PowerBlock, SignLattice, Syllable,
    WordError, form_sign, sign_form, sign_power, sign_product, word_sign,
)

SP = SignLattice.STRICT_POS
NN = SignLattice.NON_NEG
ZE = SignLattice.ZERO
NP = SignLattice.NON_POS
SN = SignLattice.STRICT_NEG
UK = SignLattice.UNKNOWN


def min_of(env, exp):
    """Greatest provable lower bound, or None if unbounded below."""
    total = exp.const
    for name, coeff in exp.coeffs.items():
        if name not in env.bounds:
            raise WordError(f"parameter {name!r} not declared in environment")
        if coeff > 0:
            total += coeff * env.bounds[name]
        else:
            return None
    return total


def max_of(env, exp):
    """Least provable upper bound, or None if unbounded above."""
    total = exp.const
    for name, coeff in exp.coeffs.items():
        if name not in env.bounds:
            raise WordError(f"parameter {name!r} not declared in environment")
        if coeff < 0:
            total += coeff * env.bounds[name]
        else:
            return None
    return total


def sign_of(env, exp):
    lo = min_of(env, exp)
    hi = max_of(env, exp)
    if lo is not None and hi is not None and lo == hi == 0:
        return ZE
    if lo is not None:
        if lo >= 1:
            return SP
        if lo >= 0:
            return NN
    if hi is not None:
        if hi <= -1:
            return SN
        if hi <= 0:
            return NP
    return UK


def lazy_word_sign(w, signs, env):
    """The walk that reads an exponent's sign when it reaches it."""
    def visit(word_):
        total = ZE
        for item in word_.items:
            if isinstance(item, Syllable):
                sign = signs.get(item.gen)
                if sign is None:
                    raise WordError(f"no sign assigned to generator {item.gen!r}")
                value = sign_power(sign, sign_of(env, item.exponent))
            else:
                value = sign_power(visit(item.body), sign_of(env, item.multiplicity))
            total = sign_product(total, value)
            if total is UK:
                return UK
        return total

    return visit(w)


Raised = namedtuple("Raised", "message")


def outcome(f, *args):
    """The value of ``f(*args)``, or the ``WordError`` it raised."""
    try:
        return f(*args)
    except WordError as exc:
        return Raised(str(exc))


def first_unreadable(w, env):
    """The error of the first exponent, in walk order (a block's body before
    its multiplicity), whose sign the reference cannot read, or None."""
    for item in w.items:
        if isinstance(item, PowerBlock):
            found = first_unreadable(item.body, env)
            exp = item.multiplicity
        else:
            found, exp = None, item.exponent
        found = found or outcome(sign_of, env, exp)
        if isinstance(found, Raised):
            return found
    return None


_PARAMS = ("k", "l", "m")
_LATTICE = st.sampled_from([SP, NN, ZE, NP, SN, UK])
_affine = st.builds(AffineExp, st.integers(-3, 3),
                    st.dictionaries(st.sampled_from(_PARAMS),
                                    st.integers(-2, 2), max_size=3))
# any lower bounds, some parameters possibly undeclared
_env = st.dictionaries(st.sampled_from(_PARAMS), st.integers(-2, 3)).map(ParamEnv)
_full_env = st.fixed_dictionaries(
    {name: st.integers(-2, 3) for name in _PARAMS}).map(ParamEnv)
_syllable = st.builds(Syllable, st.sampled_from(["x", "y", "z"]), _affine)
# nested words whose blocks have any multiplicity, unreduced
_word = st.recursive(
    st.lists(_syllable, max_size=4).map(ParamWord),
    lambda bodies: st.lists(st.one_of(_syllable,
                                      st.builds(PowerBlock, bodies, _affine)),
                            max_size=5).map(ParamWord),
    max_leaves=12)
# some generators may have no sign
_signs = st.dictionaries(st.sampled_from(["x", "y", "z"]), _LATTICE)


@given(_affine, _env)
@settings(max_examples=300)
def test_one_pass_sign_of_matches_the_two_bound_walks(exp, env):
    """Same sign, and the same error for an undeclared parameter."""
    assert outcome(env.sign_of, exp) == outcome(sign_of, env, exp)


@given(_word, _signs, _full_env)
@settings(max_examples=250)
def test_compiled_sign_matches_the_lazy_walk(w, signs, env):
    """With every parameter declared, compiling changes nothing: the same
    sign, or the same missing generator raised."""
    want = outcome(lazy_word_sign, w, signs, env)
    assert outcome(form_sign, sign_form(w, env), signs) == want
    assert outcome(word_sign, w, signs, env) == want


@given(_word, _signs, _env)
@settings(max_examples=250)
def test_compiling_reads_every_exponent_first(w, signs, env):
    """Compiling raises the error of the first exponent whose sign cannot be
    read, wherever it stands (the lazy walk raised it only on reaching it);
    a form that compiles gives the lazy walk's answer."""
    compiled = outcome(sign_form, w, env)
    if isinstance(compiled, Raised):
        assert compiled == first_unreadable(w, env)
    else:
        assert first_unreadable(w, env) is None
        assert outcome(form_sign, compiled, signs) == \
            outcome(lazy_word_sign, w, signs, env)


def test_compiled_forms_are_nested_generator_and_sign_pairs():
    env = ParamEnv({"k": 2, "l": 1})
    w = ParamWord([Syllable("x", AffineExp.param("k", -1)),
                   PowerBlock(ParamWord([Syllable("y", 1)]),
                              AffineExp(-1, {"l": 1}))])
    assert sign_form(w, env) == (("x", SN), ((("y", SP),), NN))
