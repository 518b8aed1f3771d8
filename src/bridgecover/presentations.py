"""Fundamental-group presentations of cyclic branched covers.

Two presentation families are built here, both n-periodic with generators
x1..xn and one relator per index (mod n):

- the genus-one family, parametrized by (k, l): relators
  r_i = (x_i^-k x_{i+1}^k)^l (x_{i+2}^-k x_{i+1}^k)^(l-1) x_{i+2}^-k x_{i+1}^(k-1),
  together with the product relator r_0 = x_1 x_2 ... x_n;
- the genus-two family, parametrized by (q, s, t, l): one long relator per
  index, transcribed once as a template over a five-generator window.

Both templates are parsed once, at import.  A builder returns a
``PeriodicPresentation``, which keeps the family, the parameters and n; its
relator words are built when first read and then kept.  r_1 is the
template substituted and reduced, and r_i is r_1 with every generator index
shifted by i - 1, so the per-index work is a renaming.

The abelianization of a periodic presentation is a circulant, read off the
template.  Its symbol f has the template's exponent sum of each window
letter (a polynomial in the family parameters, computed once per family)
as the coefficient of x**(offset - lowest offset), and the first-homology
order is the cyclic resultant |Res(1 + x + ... + x**(n-1), f)|, which the
knot-theoretic oracle (Fox's formula) takes of the Alexander polynomial; no
word is built.  The module also machine-checks the word-level identities
of the genus-two family: the product telescope r3 r2 r1 = zyx on runs
instantiated straight from the templates, and the rewritten relator forms
r', r'' once per sign class of (q, s) on parametric words, where a form not
shown there is checked on the runs at the point.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import zip_longest
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .intlinalg import INFINITE, Infinite, cyclic_resultant, in_row_span
from .multipoly import MultiPoly
from .words import (
    AffineExp, CyclicMatch, ParamEnv, ParamWord, PowerBlock, Run, Syllable,
    WordError, cyclic_normal_form, equal_up_to_cyclic, exponent_sums,
    _push_runs, instantiate, parse_word, peel_variants, reduce_word,
    runs_text, substitute, substitute_params,
)

# One relator of the genus-one family, over a three-generator window
# A=x_i, B=x_{i+1}, C=x_{i+2}.
_GENUS_ONE_TEMPLATE = "(A^(-k) B^(k))^(l) (C^(-k) B^(k))^(l-1) C^(-k) B^(k-1)"
_GENUS_ONE_WINDOW = (("A", 0), ("B", 1), ("C", 2))

# One relator of the genus-two family, over a five-generator window
# a=x_{i-2}, b=x_{i-1}, c=x_i, d=x_{i+1}, e=x_{i+2}.  Transcribed once;
# correctness is established by the homology triple-agreement suites.
_GENUS_TWO_TEMPLATE = (
    "( ( (c^(q) d^(-q))^(-s) c (b^(q) c^(-q))^(s) )^(t) c^(q) d^(-q) "
    "( (d^(q) e^(-q))^(-s) d (c^(q) d^(-q))^(s) )^(-t) )^(-l) "
    "(c^(q) d^(-q))^(-s) c (b^(q) c^(-q))^(s) "
    "( ( (b^(q) c^(-q))^(-s) b (a^(q) b^(-q))^(s) )^(t) b^(q) c^(-q) "
    "( (c^(q) d^(-q))^(-s) c (b^(q) c^(-q))^(s) )^(-t) )^(l)"
)
_GENUS_TWO_WINDOW = (("a", -2), ("b", -1), ("c", 0), ("d", 1), ("e", 2))

# The n=3 wing word X and the rewritten relator forms r'_1, r''_1, over
# generators x, y, z (= x1, x2, x3) and placeholders X, Y, Z.  The deck
# rotation rho renames x -> y -> z -> x and X -> Y -> Z -> X and leaves every
# exponent alone, so it carries X to Y to Z and r'_i, r''_i to r'_(i+1),
# r''_(i+1); ``_RHO[k]`` applies rho^k to a letter or to a word's text.
_RHO = [str.maketrans("xyzXYZ", r) for r in ("xyzXYZ", "yzxYZX", "zxyZXY")]
_X = "(y^(q) x^(-q))^(s) x (z^(q) x^(-q))^(s)"
_RPRIME_1 = "(Y^(t) y^(q) x^(-q) X^(-t))^(l) X (Z^(t) z^(q) x^(-q) X^(-t))^(l)"
_RSECOND_1 = ("(Y^(t) y^(q) x^(-q) X^(-t))^(l-1) Y^(t) y^(q) x^(-q) X^(-t+1) "
              "(Z^(t) z^(q) x^(-q) X^(-t))^(l)")
_WING_DEFS = {name: _X.translate(rho) for name, rho in zip("XYZ", _RHO)}
_RPRIME_TEMPLATES = {i: _RPRIME_1.translate(rho) for i, rho in enumerate(_RHO, 1)}
_RSECOND_TEMPLATES = {i: _RSECOND_1.translate(rho)
                      for i, rho in enumerate(_RHO, 1)}
# Every template is constant, so each is parsed once, at import.
_WING_WORDS = {name: parse_word(text) for name, text in _WING_DEFS.items()}
_RPRIME_WORDS = {i: parse_word(text) for i, text in _RPRIME_TEMPLATES.items()}
_RSECOND_WORDS = {i: parse_word(text) for i, text in _RSECOND_TEMPLATES.items()}
_ZYX = [("z", 1), ("y", 1), ("x", 1)]
_XYZ = {"x1": "x", "x2": "y", "x3": "z"}


class _Family:
    """An n-periodic relator family: r_i is the template with each window
    letter v replaced by x_(i+offset) for (v, offset) in ``window``, whose
    offsets are consecutive and ascending; the genus-one family puts the
    product relator r_0 = x1 ... xn first."""

    def __init__(self, template: str, window: Sequence[Tuple[str, int]],
                 product_relator: bool):
        self.template = parse_word(template)
        self.window = window
        self.product_relator = product_relator

    @cached_property
    def window_sums(self) -> List[Tuple[int, MultiPoly]]:
        """(offset, the letter's exponent sum in the template) per window
        letter, as polynomials in the family parameters: constants of the
        family, computed on first use."""
        sums = exponent_sums(self.template)
        return [(offset, sums.get(letter, MultiPoly.const(0)))
                for letter, offset in self.window]


_GENUS_ONE = _Family(_GENUS_ONE_TEMPLATE, _GENUS_ONE_WINDOW, True)
_GENUS_TWO = _Family(_GENUS_TWO_TEMPLATE, _GENUS_TWO_WINDOW, False)


def _check_generators(generators: Sequence[str], names: Sequence[str],
                      relators: Sequence[ParamWord]) -> None:
    declared = set(generators)
    for name, rel in zip(names, relators):
        undeclared = [g for g in rel.generators() if g not in declared]
        if undeclared:
            raise WordError(
                f"relator {name} uses undeclared generators {undeclared}")


class Presentation:
    """A finite group presentation with parametric relator words."""

    def __init__(self, generators: Sequence[str], relators: Sequence[ParamWord],
                 env: ParamEnv, relator_names: Optional[Sequence[str]] = None):
        self.generators: Tuple[str, ...] = tuple(generators)
        self.relators: Tuple[ParamWord, ...] = tuple(relators)
        self.env = env
        if relator_names is None:
            relator_names = [f"r{i + 1}" for i in range(len(self.relators))]
        self.relator_names: Tuple[str, ...] = tuple(relator_names)
        if len(self.relator_names) != len(self.relators):
            raise WordError("one name per relator required")
        _check_generators(self.generators, self.relator_names, self.relators)

    def __repr__(self):
        return (f"Presentation(<{len(self.generators)} generators, "
                f"{len(self.relator_names)} relators>)")


class PeriodicPresentation(Presentation):
    """A presentation of one n-periodic family, kept as the family, its
    parameters (affine exponents, by family parameter name) and n.

    The relator words are built on first read of ``relators`` and kept;
    ``abelianization_matrix`` never reads them.
    """

    def __init__(self, family: _Family, params: Mapping[str, AffineExp],
                 n: int, env: ParamEnv):
        self.generators = tuple(_gen_name(i, n) for i in range(1, n + 1))
        self.env = env
        first = 0 if family.product_relator else 1
        self.relator_names = tuple(f"r{i}" for i in range(first, n + 1))
        self.family, self.params, self.n = family, params, n

    @cached_property
    def relators(self) -> Tuple[ParamWord, ...]:  # type: ignore[override]
        relators = ([parse_word(" ".join(self.generators))]
                    if self.family.product_relator else [])
        template = substitute_params(self.family.template, self.params)
        relators += _periodic_relators(template, self.family.window, self.n,
                                       self.env)
        _check_generators(self.generators, self.relator_names, relators)
        return tuple(relators)


def _gen_name(i: int, n: int) -> str:
    return f"x{((i - 1) % n) + 1}"


def _as_exponent(value: Union[int, str], default_bound: int,
                 bounds: Dict[str, int]) -> AffineExp:
    if value.__class__ is int:
        return AffineExp(value)
    if isinstance(value, str):
        bounds[value] = default_bound
        return AffineExp.param(value)
    raise WordError(f"parameter must be an int or a parameter name, got {value!r}")


def _periodic_relators(template: ParamWord, window: Sequence[Tuple[str, int]],
                       n: int, env: ParamEnv) -> List[ParamWord]:
    """Relators r_1..r_n of an n-periodic family, from its template with
    the parameters already substituted.

    r_1 is the template substituted and reduced.  The shift
    x_j -> x_(j+1) (mod n) is a bijection of the generators, and renaming by
    a bijection commutes with ``reduce_word``, so r_i is r_1 renamed by the
    shift to the power i - 1.
    """
    first = [_gen_name(1 + offset, n) for _, offset in window]
    r1 = substitute(template, {letter: parse_word(gen) for (letter, _), gen
                               in zip(window, first)}, env)
    relators = [r1]
    for i in range(2, n + 1):
        shift = {gen: _gen_name(i + offset, n)
                 for gen, (_, offset) in zip(first, window)}
        relators.append(_rename(r1, shift))
    return relators


def _rename(w: ParamWord, names: Mapping[str, str]) -> ParamWord:
    """w with every generator g renamed to names[g]; exponents, multiplicities
    and block structure are kept as they are."""
    return ParamWord([
        Syllable(names[item.gen], item.exponent) if isinstance(item, Syllable)
        else PowerBlock(_rename(item.body, names), item.multiplicity)
        for item in w.items])


def genus_one_presentation(k: Union[int, str], l: Union[int, str],
                           n: int) -> PeriodicPresentation:
    """The n-periodic genus-one presentation with parameters (k, l).

    k and l may be integers or parameter names; symbolic parameters get the
    standing bounds k >= 2, l >= 1.  Relators are r0 = x1 x2 ... xn and, for
    each index i (mod n),
    r_i = (x_i^-k x_{i+1}^k)^l (x_{i+2}^-k x_{i+1}^k)^(l-1) x_{i+2}^-k x_{i+1}^(k-1).
    No word is built here: the relators are built when first read.
    """
    if n.__class__ is not int or n < 2:
        raise WordError(f"need at least 2 generators, got n={n}")
    bounds: Dict[str, int] = {}
    params = {"k": _as_exponent(k, 2, bounds), "l": _as_exponent(l, 1, bounds)}
    return PeriodicPresentation(_GENUS_ONE, params, n, ParamEnv(bounds))


def mv_presentation(q: int, s: int, t: int, l: int,
                    n: int) -> PeriodicPresentation:
    """The n-periodic genus-two presentation with parameters (q, s, t, l).

    One relator per index i (mod n), from the five-generator window template;
    all four parameters must be nonzero integers.  No word is built here:
    the relators are built when first read.
    """
    if n.__class__ is not int or n < 2:
        raise WordError(f"need at least 2 generators, got n={n}")
    for name, value in (("q", q), ("s", s), ("t", t), ("l", l)):
        if value.__class__ is not int or value == 0:
            raise WordError(f"parameter {name} must be a nonzero integer, got {value!r}")
    params = {"q": AffineExp(q), "s": AffineExp(s), "t": AffineExp(t),
              "l": AffineExp(l)}
    return PeriodicPresentation(_GENUS_TWO, params, n, ParamEnv({}))


MatrixRow = List[Union[int, MultiPoly]]


def abelianization_matrix(p: PeriodicPresentation,
                          values: Optional[Mapping[str, int]] = None) -> List[MatrixRow]:
    """Exponent-sum matrix: one row per relator, one column per generator.

    With ``values`` the entries are integers; without, they are polynomials
    in the presentation's parameters.  The matrix is the circulant of the
    family's window sums, whether or not the relators have been read: row
    r_1 adds the symbol's coefficients into the columns of x_(1+offset), so
    letters that land on one generator (n < window width) add up, and row
    r_i is row r_1 shifted by i - 1.
    """
    f = _symbol(p, values)
    n, lowest = p.n, p.family.window[0][1]
    zero = 0 if values is not None else MultiPoly.const(0)
    first: MatrixRow = [zero] * n
    for j, coefficient in enumerate(f):
        first[(lowest + j) % n] += coefficient
    rows = [[zero + 1] * n] if p.family.product_relator else []
    return rows + [first[n - i:] + first[:n - i] for i in range(n)]


def _symbol(p: PeriodicPresentation,
            values: Optional[Mapping[str, int]]) -> MatrixRow:
    """The circulant's symbol, ascending from the window's lowest offset: the
    template sums at the parameters (ints with ``values``, else polynomials).
    Raises WordError for a presentation of neither family."""
    if not isinstance(p, PeriodicPresentation):
        raise WordError(
            f"need a presentation of the genus-one or genus-two family "
            f"(genus_one_presentation, mv_presentation), got {p!r}")
    if values is None:
        point = {name: exp.to_poly() for name, exp in p.params.items()}
        return [poly.substitute(point) for _, poly in p.family.window_sums]
    point = {name: exp.evaluate(values) for name, exp in p.params.items()}
    return [poly.evaluate(point) for _, poly in p.family.window_sums]


def h1_order(p: PeriodicPresentation,
             values: Optional[Mapping[str, int]] = None) -> Union[int, Infinite]:
    """Order of the abelianization, or INFINITE if it has positive rank.

    With the (palindromic) symbol f and S = 1 + x + ... + x**(n-1) this is
    |Res(S, f)| (``intlinalg.cyclic_resultant``) with the product relator,
    since the rows span (S, f) in Z[x]/(x**n - 1) = Z^n, and the circulant's
    |det| = |f(1)| |Res(S, f)| without it; no word or matrix is built.
    """
    f = _symbol(p, values if values is not None else {})
    order = cyclic_resultant(f, p.n)
    if not p.family.product_relator:
        order *= abs(sum(f))
    return order if order else INFINITE


# ---------------------------------------------------------------------------
# Word-identity checks for the genus-two family at n = 3
# ---------------------------------------------------------------------------

def _relator_runs(values: Mapping[str, int]) -> List[List[Run]]:
    """The n=3 relators r1, r2, r3 at ``values`` over x, y, z (= x1, x2,
    x3), as runs: r_i maps each window letter at offset o to x_(i+o)."""
    return [instantiate(_GENUS_TWO.template, values,
                        {letter: [("xyz"[(i + offset) % 3], 1)]
                         for letter, offset in _GENUS_TWO.window})
            for i in range(3)]


Difference = Optional[Tuple[int, Optional[Run], Optional[Run]]]


def first_syllable_difference(got: Sequence[Run],
                              expected: Sequence[Run]) -> Difference:
    """First position where the cyclic normal forms differ, as syllable runs.

    Returns (index, got_syllable, expected_syllable), entries None past the
    end of the shorter word; None if the normal forms agree.
    """
    pairs = zip_longest(cyclic_normal_form(got), cyclic_normal_form(expected))
    for i, (a, b) in enumerate(pairs):
        if a != b:
            return (i, a, b)
    return None


class ProductIdentityVerdict(NamedTuple):
    """Outcome of checking r3 r2 r1 = zyx for the n=3 genus-two presentation."""

    params: Tuple[int, int, int, int]
    status: str                     # FULL_PASS | ABELIAN_ONLY | FAIL
    abelian_sums: Tuple[int, int, int]
    abelian_ok: bool
    target_in_row_span: bool
    reduced_product: str
    first_difference: Difference = None

    @property
    def ok(self) -> bool:
        return self.status == "FULL_PASS"


def verify_product_identity(q: int, s: int, t: int, l: int) -> ProductIdentityVerdict:
    """Check that the product r3 r2 r1 reduces to zyx (cyclically).

    The abelianized identity (exponent sums (1,1,1)) and membership of zyx's
    abelianization in the relator row span are always checked as well; a
    cyclic-reduction mismatch downgrades the verdict to ABELIAN_ONLY and
    reports the first differing syllable.
    """
    p = mv_presentation(q, s, t, l, 3)
    r1, r2, product = _relator_runs({"q": q, "s": s, "t": t, "l": l})
    _push_runs(product, r2)
    _push_runs(product, r1)

    # free reduction keeps exponent sums
    abelian = tuple(sum(e for g, e in product if g == gen) for gen in "xyz")
    abelian_ok = abelian == (1, 1, 1)

    span_ok = in_row_span(abelianization_matrix(p, {}), [1, 1, 1])

    match = equal_up_to_cyclic(product, _ZYX)
    if not abelian_ok:
        status = "FAIL"
    elif match is CyclicMatch.DIRECT:
        status = "FULL_PASS"
    else:
        status = "ABELIAN_ONLY"
    return ProductIdentityVerdict(
        params=(q, s, t, l),
        status=status,
        abelian_sums=abelian,  # type: ignore[arg-type]
        abelian_ok=abelian_ok,
        target_in_row_span=span_ok,
        reduced_product=runs_text(product),
        first_difference=(None if status == "FULL_PASS"
                          else first_syllable_difference(product, _ZYX)),
    )


class RewriteRecord(NamedTuple):
    """One rewritten-form comparison, e.g. r'_1 against r_1."""

    name: str
    match: CyclicMatch
    first_difference: Difference = None

    @property
    def ok(self) -> bool:
        return bool(self.match)


class RewriteReport(NamedTuple):
    params: Tuple[int, int, int, int]
    records: List[RewriteRecord]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)


def _signed_env(signs: Tuple[int, int, int, int],
                ) -> Tuple[Dict[str, AffineExp], ParamEnv]:
    """Rewrite each of q, s, t, l as +-(positive parameter of the same name)."""
    return ({name: AffineExp.param(name, sign)
             for name, sign in zip("qstl", signs)},
            ParamEnv({name: 1 for name in "qstl"}))


@lru_cache(maxsize=4)
def _shown_rewrites(q_positive: bool, s_positive: bool) -> Tuple[bool, ...]:
    """Per record of ``verify_rewrites``, whether it holds at every point of
    the sign class: q and s of the given signs, t, l >= 1.

    Under q, s, t, l >= 1, with the signs put into the templates, r'_i with
    the wings (and x, y, z for themselves) substituted must be r_i item for
    item, and the reduced r''_i must be the reduced r'_i or one of its
    one-block peels, as words in X, Y, Z, x, y, z.  ``reduce_word``,
    ``substitute`` and ``peel`` keep a word's value in the free group at
    every point the environment allows, and the concrete check maps X, Y, Z
    to the wings' runs, so a record shown here instantiates to equal runs.
    """
    signed, env = _signed_env((1 if q_positive else -1,
                               1 if s_positive else -1, 1, 1))
    subs = {name: substitute_params(w, signed) for name, w in _WING_WORDS.items()}
    subs.update((gen, parse_word(gen)) for gen in "xyz")
    base = _periodic_relators(substitute_params(_GENUS_TWO.template, signed),
                              _GENUS_TWO.window, 3, env)
    primes = [reduce_word(substitute_params(_RPRIME_WORDS[i], signed), env)
              for i in (1, 2, 3)]
    shown = [substitute(prime, subs, env) == _rename(r, _XYZ)
             for prime, r in zip(primes, base)]
    for i, prime in enumerate(primes, 1):
        second = reduce_word(substitute_params(_RSECOND_WORDS[i], signed), env)
        shown.append(second == prime or second in peel_variants(prime, env))
    return tuple(shown)


def verify_rewrites(q: int, s: int, t: int, l: int) -> RewriteReport:
    """Check the rewritten relator forms r'_i (against r_i) and r''_i
    (against r'_i) for the n=3 genus-two presentation.

    Comparisons are up to cyclic rotation and inversion.  The displayed
    forms require t >= 1 and l >= 1.  A record ``_shown_rewrites`` shows
    for the sign class of (q, s) is DIRECT with no word built; any other is
    instantiated at this point and compared, with its first difference.
    """
    mv_presentation(q, s, t, l, 3)  # checks q, s, t, l
    if l < 1 or t < 1:
        raise WordError(f"displayed rewritten forms require t >= 1, l >= 1, "
                        f"got t={t}, l={l}")
    consts = {"q": q, "s": s, "t": t, "l": l}
    records = []
    for k, shown in enumerate(_shown_rewrites(q > 0, s > 0)):
        i = k % 3 + 1
        name = f"r'{i} vs r{i}" if k < 3 else f"r''{i} vs r'{i}"
        if shown:
            records.append(RewriteRecord(name, CyclicMatch.DIRECT))
            continue
        wings = {wing: instantiate(w, consts) for wing, w in _WING_WORDS.items()}
        prime = instantiate(_RPRIME_WORDS[i], consts, wings)
        got, expected = ((prime, _relator_runs(consts)[i - 1]) if k < 3 else
                         (instantiate(_RSECOND_WORDS[i], consts, wings), prime))
        match = equal_up_to_cyclic(got, expected)
        records.append(RewriteRecord(name, match, None if match else
                                     first_syllable_difference(got, expected)))
    return RewriteReport((q, s, t, l), records)
