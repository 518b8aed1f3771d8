"""Parametric free-group words.

A word is a sequence of syllables g^e and power blocks (w)^m, where the
exponents e and multiplicities m are affine forms c0 + c1*p1 + ... over named
integer parameters.  A ParamEnv assigns each parameter a lower bound
(unbounded above), which is enough to give many exponents a definite sign;
the SignLattice records what is provable.

Conventions:

- power blocks are normalized so their multiplicity is provably >= 0 under
  the ambient environment (a block with provably negative multiplicity stores
  the inverted body instead);
- ``reduce_word`` merges adjacent syllables in the same generator and drops
  provably-trivial pieces; it never crosses a block boundary.  The items and
  block bodies of a reduced word are reduced, and so is its inverse;
- ``splice`` replaces a slice of a reduced word and reduces at the seams
  only; ``peel`` takes a reduced word and splices the peeled block in, and
  ``peel_variants`` lists its one-block peels;
- ``instantiate`` evaluates a word at integer parameter values, optionally
  through a generator -> runs map, and returns the concrete word.

A concrete word has one form: a list of (generator, nonzero int) runs,
freely reduced, never expanded into letters.  Free reduction merges or
cancels runs at the seam, the cyclic normal form takes the least rotation
over runs by Duval's algorithm, in linear time, and ``runs_text`` writes runs
in the syntax of ``parse_word``.
"""
from __future__ import annotations

import re
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .multipoly import MultiPoly


class WordError(ValueError):
    """Invalid input to a word operation."""


class CannotPeelError(WordError):
    """Peeling was requested where the multiplicity is not provably >= 1."""


# ---------------------------------------------------------------------------
# Sign lattice
# ---------------------------------------------------------------------------

class SignLattice(Enum):
    """Provable comparison of a group element with the identity (or of an
    integer exponent with zero)."""

    STRICT_POS = "STRICT_POS"  # > identity   (exponent: >= 1)
    NON_NEG = "NON_NEG"        # >= identity  (exponent: >= 0)
    ZERO = "ZERO"              # = identity   (exponent: = 0)
    NON_POS = "NON_POS"
    STRICT_NEG = "STRICT_NEG"
    UNKNOWN = "UNKNOWN"

    def __repr__(self):
        return self.value


SP = SignLattice.STRICT_POS
NN = SignLattice.NON_NEG
ZE = SignLattice.ZERO
NP = SignLattice.NON_POS
SN = SignLattice.STRICT_NEG
UK = SignLattice.UNKNOWN


def sign_invert(v: SignLattice) -> SignLattice:
    return SN if v is SP else SP if v is SN else NP if v is NN else \
        NN if v is NP else v


def sign_weaken(v: SignLattice) -> SignLattice:
    """Allow the identity as well: strict values lose their strictness."""
    return NN if v is SP else NP if v is SN else v


def sign_product(a: SignLattice, b: SignLattice) -> SignLattice:
    """Sign of a product of two group elements with known signs.

    Sound in any left-ordered group: if a, b >= 1 then ab >= 1, strictly if
    either factor is strict; dually for <= 1.  Mixed signs prove nothing.
    """
    if a is ZE:
        return b
    if b is ZE:
        return a
    if a is UK or b is UK:
        return UK
    if (a is SP or a is NN) and (b is SP or b is NN):
        return SP if a is SP or b is SP else NN
    if (a is SN or a is NP) and (b is SN or b is NP):
        return SN if a is SN or b is SN else NP
    return UK


def sign_power(base: SignLattice, exponent_sign: SignLattice) -> SignLattice:
    """Sign of g**e given the sign of g and the (integer) sign of e."""
    if exponent_sign is ZE or base is ZE:
        return ZE if exponent_sign is ZE or base is ZE else base
    if exponent_sign is SP:
        return base
    if exponent_sign is NN:
        return sign_weaken(base)
    if exponent_sign is SN:
        return sign_invert(base)
    if exponent_sign is NP:
        return sign_weaken(sign_invert(base))
    return UK


# ---------------------------------------------------------------------------
# Affine exponents and environments
# ---------------------------------------------------------------------------

class AffineExp:
    """Integer affine form: constant + sum(coeff * parameter).  The value
    is immutable, so its canonical key is computed once."""

    __slots__ = ("const", "coeffs", "_key")

    def __init__(self, const: int = 0, coeffs: Optional[Mapping[str, int]] = None):
        self.const = const
        self.coeffs: Dict[str, int] = {k: v for k, v in coeffs.items() if v} if coeffs else {}
        self._key = (const, tuple(sorted(self.coeffs.items())))

    @staticmethod
    def param(name: str, coeff: int = 1) -> "AffineExp":
        return AffineExp(0, {name: coeff})

    @staticmethod
    def coerce(value: Union["AffineExp", int, str]) -> "AffineExp":
        if isinstance(value, AffineExp):
            return value
        if isinstance(value, int):
            return AffineExp(value)
        if isinstance(value, str):
            return parse_affine(value)
        raise WordError(f"cannot interpret {value!r} as an affine exponent")

    def __add__(self, other):
        other = AffineExp.coerce(other)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return AffineExp(self.const + other.const, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return AffineExp(-self.const, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-AffineExp.coerce(other))

    def __rsub__(self, other):
        return AffineExp.coerce(other) + (-self)

    def scale(self, c: int) -> "AffineExp":
        return AffineExp(c * self.const, {k: c * v for k, v in self.coeffs.items()})

    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> int:
        if not self.is_constant():
            raise WordError(f"exponent {self} is not constant")
        return self.const

    def evaluate(self, values: Mapping[str, int]) -> int:
        total = self.const
        for name, coeff in self.coeffs.items():
            if name not in values:
                raise WordError(f"no value for parameter {name!r}")
            total += coeff * values[name]
        return total

    def substitute_params(self, mapping: Mapping[str, "AffineExp"]) -> "AffineExp":
        const, coeffs = self.const, {}
        for name, coeff in self.coeffs.items():
            image = mapping[name] if name in mapping else AffineExp.param(name)
            const += coeff * image.const
            for k, v in image.coeffs.items():
                total = coeffs.get(k, 0) + coeff * v
                if total:
                    coeffs[k] = total
                else:
                    # dropped at once, as a term-by-term sum drops it, so a
                    # parameter that comes back goes last
                    coeffs.pop(k, None)
        return AffineExp(const, coeffs)

    def to_poly(self) -> MultiPoly:
        p = MultiPoly.const(self.const)
        for name, coeff in self.coeffs.items():
            p = p + coeff * MultiPoly.var(name)
        return p

    def __eq__(self, other):
        if isinstance(other, int):
            other = AffineExp(other)
        if not isinstance(other, AffineExp):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        parts = []
        for name in sorted(self.coeffs):
            c = self.coeffs[name]
            body = name if abs(c) == 1 else f"{abs(c)}{name}"
            parts.append(("-" if c < 0 else "+", body))
        if self.const or not parts:
            parts.append(("-" if self.const < 0 else "+", str(abs(self.const))))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += sign + body
        return text

    def __repr__(self):
        return f"AffineExp({self})"


class ParamEnv:
    """Named integer parameters with lower bounds (no upper bounds)."""

    def __init__(self, bounds: Union[Mapping[str, int], Iterable[Tuple[str, int]], None] = None):
        if bounds is None:
            bounds = {}
        self.bounds: Dict[str, int] = dict(bounds)

    def sign_of(self, exp: AffineExp) -> SignLattice:
        """Provable sign of ``exp``, bounded below and above in one pass."""
        lo = hi = exp.const
        for name, coeff in exp.coeffs.items():
            if name not in self.bounds:
                raise WordError(f"parameter {name!r} not declared in environment")
            term = coeff * self.bounds[name]
            if coeff > 0:
                lo, hi = None if lo is None else lo + term, None
            else:
                lo, hi = None, None if hi is None else hi + term
            if lo is None and hi is None:
                return UK
        if lo == hi == 0:
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

    def __eq__(self, other):
        return isinstance(other, ParamEnv) and self.bounds == other.bounds

    def __repr__(self):
        inner = ", ".join(f"{k}>={v}" for k, v in self.bounds.items())
        return f"ParamEnv({inner})"


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

class Syllable:
    __slots__ = ("gen", "exponent")

    def __init__(self, gen: str, exponent: Union[AffineExp, int] = 1):
        self.gen = gen
        self.exponent = AffineExp.coerce(exponent)

    def inverse(self) -> "Syllable":
        return Syllable(self.gen, -self.exponent)

    def __eq__(self, other):
        return (isinstance(other, Syllable) and self.gen == other.gen
                and self.exponent == other.exponent)

    def __hash__(self):
        return hash((self.gen, self.exponent))

    def __repr__(self):
        return f"Syllable({self.to_text()})"

    def to_text(self) -> str:
        exp = self.exponent
        if exp.coeffs:
            return f"{self.gen}^({exp})"
        return self.gen if exp.const == 1 else f"{self.gen}^({exp.const})"


class PowerBlock:
    __slots__ = ("body", "multiplicity")

    def __init__(self, body: "ParamWord", multiplicity: Union[AffineExp, int]):
        self.body = body
        self.multiplicity = AffineExp.coerce(multiplicity)

    def inverse(self) -> "PowerBlock":
        return PowerBlock(self.body.inverse(), self.multiplicity)

    def __eq__(self, other):
        return (isinstance(other, PowerBlock) and self.body == other.body
                and self.multiplicity == other.multiplicity)

    def __hash__(self):
        return hash((self.body, self.multiplicity))

    def __repr__(self):
        return f"PowerBlock({self.to_text()})"

    def to_text(self) -> str:
        return f"({self.body.to_text()})^({self.multiplicity})"


WordItem = Union[Syllable, PowerBlock]
SignForm = Tuple[Tuple[Union[str, "SignForm"], SignLattice], ...]  # see sign_form


class ParamWord:
    __slots__ = ("items", "_hash")

    def __init__(self, items: Sequence[WordItem] = ()):
        self.items: Tuple[WordItem, ...] = tuple(items)

    @staticmethod
    def empty() -> "ParamWord":
        return ParamWord(())

    def __mul__(self, other: "ParamWord") -> "ParamWord":
        return ParamWord(self.items + other.items)

    def inverse(self) -> "ParamWord":
        return ParamWord(tuple(item.inverse() for item in reversed(self.items)))

    def is_empty(self) -> bool:
        return not self.items

    def generators(self) -> Tuple[str, ...]:
        seen: List[str] = []
        def visit(word: "ParamWord"):
            for item in word.items:
                if isinstance(item, Syllable):
                    if item.gen not in seen:
                        seen.append(item.gen)
                else:
                    visit(item.body)
        visit(self)
        return tuple(seen)

    def __eq__(self, other):
        return isinstance(other, ParamWord) and self.items == other.items

    def __hash__(self):
        if not hasattr(self, "_hash"):  # hashed once, on first use
            self._hash = hash(self.items)
        return self._hash

    def __len__(self):
        return len(self.items)

    def __repr__(self):
        return f"ParamWord({self.to_text()})"

    def to_text(self) -> str:
        if not self.items:
            return "1"
        return " ".join(item.to_text() for item in self.items)


def power_block(body: ParamWord, multiplicity: Union[AffineExp, int, str],
                env: Optional[ParamEnv] = None) -> ParamWord:
    """Build (body)^multiplicity as a word, normalizing the multiplicity sign.

    With an environment, a provably non-positive multiplicity is folded into
    an inverted body; an unknown-sign multiplicity is an error, since the
    block invariant (multiplicity provably >= 0) could not be maintained.
    """
    mult = AffineExp.coerce(multiplicity)
    if body.is_empty():
        return ParamWord.empty()
    if mult.is_constant():
        c = mult.constant_value()
        if c == 0:
            return ParamWord.empty()
        if c < 0:
            body, c = body.inverse(), -c
        if c == 1:
            return body
        return ParamWord([PowerBlock(body, AffineExp(c))])
    if env is None:
        raise WordError(f"cannot normalize symbolic multiplicity {mult} without an environment")
    sign = env.sign_of(mult)
    if sign is ZE:
        return ParamWord.empty()
    if sign in (SN, NP):
        return ParamWord([PowerBlock(body.inverse(), -mult)])
    if sign in (SP, NN):
        return ParamWord([PowerBlock(body, mult)])
    raise WordError(f"multiplicity {mult} has unknown sign under {env}")


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def reduce_word(w: ParamWord, env: ParamEnv) -> ParamWord:
    """Free reduction at the syllable level.

    Merges adjacent syllables in the same generator, drops provably-zero
    exponents and provably-trivial blocks, normalizes block multiplicities to
    be provably non-negative, and inlines blocks with multiplicity one or
    single-syllable bodies where the arithmetic stays affine.
    """
    out: List[WordItem] = []
    for item in w.items:
        _push(out, item, env, False)
    return ParamWord(out)


def _push(out: List[WordItem], item: WordItem, env: ParamEnv,
          body_reduced: bool) -> None:
    """Push ``item`` onto the reduced ``out``: it merges or cancels with the
    top only.  A block's body is reduced first unless ``body_reduced``."""
    if isinstance(item, Syllable):
        if out and isinstance(out[-1], Syllable) and out[-1].gen == item.gen:
            item = Syllable(item.gen, out.pop().exponent + item.exponent)
        if env.sign_of(item.exponent) is not ZE:
            out.append(item)
        return
    body = item.body if body_reduced else reduce_word(item.body, env)
    mult, s = item.multiplicity, body.items[0] if len(body.items) == 1 else None
    if isinstance(s, Syllable) and (s.exponent.is_constant() or mult.is_constant()):
        exp = (mult.scale(s.exponent.const) if s.exponent.is_constant()
               else s.exponent.scale(mult.const))
        return _push(out, Syllable(s.gen, exp), env, True)
    for piece in power_block(body, mult, env).items:
        if isinstance(piece, Syllable):
            _push(out, piece, env, True)
        else:
            out.append(piece)


def splice(w: ParamWord, start: int, stop: int, items: Sequence[WordItem],
           env: ParamEnv) -> ParamWord:
    """``reduce_word`` of the reduced ``w`` with ``w.items[start:stop]``
    replaced by ``items`` (with reduced block bodies), reduced at the seams
    only: the new items are pushed onto the prefix, then the suffix until
    one of its items survives unmerged, and the rest is copied."""
    out = list(w.items[:start])
    for item in items:
        _push(out, item, env, True)
    suffix = w.items[stop:]
    for i, item in enumerate(suffix):
        _push(out, item, env, True)
        # a reduced word's block pushes as an equal block
        if isinstance(item, PowerBlock) or (out and out[-1] is item):
            out.extend(suffix[i + 1:])
            break
    return ParamWord(out)


class PeelSide(Enum):
    LEFT = "LEFT"
    RIGHT = "RIGHT"


def peel_block(b: PowerBlock, side: PeelSide, env: ParamEnv) -> ParamWord:
    """Unroll one copy of the body: (w)^m -> w (w)^(m-1) or (w)^(m-1) w.

    Requires the multiplicity to be provably >= 1.
    """
    if env.sign_of(b.multiplicity) is not SP:
        raise CannotPeelError(
            f"multiplicity {b.multiplicity} is not provably >= 1 under {env}")
    rest = power_block(b.body, b.multiplicity - 1, env)
    if side is PeelSide.LEFT:
        return b.body * rest
    return rest * b.body


def peel(w: ParamWord, index: int, side: PeelSide, env: ParamEnv) -> ParamWord:
    """Peel the power block at item position ``index`` of the reduced ``w``
    and splice in place."""
    if not (0 <= index < len(w.items)):
        raise WordError(f"no item at index {index}")
    item = w.items[index]
    if not isinstance(item, PowerBlock):
        raise WordError(f"item at index {index} is not a power block")
    return splice(w, index, index + 1, peel_block(item, side, env).items, env)


def peel_variants(w: ParamWord, env: ParamEnv) -> List[ParamWord]:
    """Every one-block ``peel`` of the reduced ``w``: by item position, LEFT
    before RIGHT, skipping blocks not provably peelable."""
    out = []
    for idx, item in enumerate(w.items):
        if not isinstance(item, PowerBlock):
            continue
        for side in (PeelSide.LEFT, PeelSide.RIGHT):
            try:
                out.append(peel(w, idx, side, env))
            except CannotPeelError:
                pass
    return out


def substitute(w: ParamWord, sub: Mapping[str, ParamWord], env: ParamEnv) -> ParamWord:
    """Replace each generator by a word; exponents become block multiplicities.

    Every generator occurring in w must have an entry in ``sub``.
    """
    for gen in w.generators():
        if gen not in sub:
            raise WordError(f"no substitution entry for generator {gen!r}")

    def visit(word_: ParamWord) -> ParamWord:
        parts: List[WordItem] = []
        for item in word_.items:
            if isinstance(item, Syllable):
                parts.extend(power_block(sub[item.gen], item.exponent, env).items)
            else:
                parts.append(PowerBlock(visit(item.body), item.multiplicity))
        return ParamWord(parts)

    return reduce_word(visit(w), env)


def substitute_params(w: ParamWord, mapping: Mapping[str, Union[AffineExp, int]]) -> ParamWord:
    """Replace parameters inside all exponents and multiplicities.

    Purely syntactic; no reduction or sign normalization is performed, so the
    result may need ``reduce_word`` under an environment for the new
    parameters (or none, if all exponents became constant).
    """
    resolved = {k: AffineExp.coerce(v) for k, v in mapping.items()}

    def visit(word_: ParamWord) -> ParamWord:
        items: List[WordItem] = []
        for item in word_.items:
            if isinstance(item, Syllable):
                items.append(Syllable(item.gen, item.exponent.substitute_params(resolved)))
            else:
                items.append(PowerBlock(visit(item.body),
                                        item.multiplicity.substitute_params(resolved)))
        return ParamWord(items)

    return visit(w)


Run = Tuple[str, int]


def _push_runs(out: List[Run], runs: Sequence[Run]) -> None:
    """Append freely reduced ``runs`` to freely reduced ``out``: they merge
    or cancel at the seam only, so once one run survives the rest is copied."""
    for i, (gen, exp) in enumerate(runs):
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
            out.extend(runs[i + 1:])
            return


def _inverse_runs(runs: Sequence[Run]) -> List[Run]:
    return [(gen, -exp) for gen, exp in reversed(runs)]


def instantiate(w: ParamWord, values: Mapping[str, int],
                sub: Optional[Mapping[str, Sequence[Run]]] = None) -> List[Run]:
    """Concrete word at given parameter values as freely reduced runs; a
    block body is instantiated once and its runs repeated.

    ``sub`` maps generators to freely reduced runs: a syllable g^e of a
    mapped generator stands for e copies of its image (of the inverse image
    when e < 0).  Other generators stand for themselves.
    """
    sub = sub or {}

    def visit(word_: ParamWord) -> List[Run]:
        out: List[Run] = []
        for item in word_.items:
            if isinstance(item, Syllable):
                body, exp = sub.get(item.gen, ((item.gen, 1),)), item.exponent
            else:
                body, exp = visit(item.body), item.multiplicity
            repeat = exp.evaluate(values)
            if len(body) == 1:
                _push_runs(out, ((body[0][0], body[0][1] * repeat),))
                continue
            if repeat < 0:
                body, repeat = _inverse_runs(body), -repeat
            for _ in range(repeat if body else 0):
                _push_runs(out, body)
        return out

    return visit(w)


def exponent_sums(w: ParamWord) -> Dict[str, MultiPoly]:
    """Total exponent of each generator, as a polynomial in the parameters.

    Block multiplicities multiply the body sums, so the result is genuinely
    polynomial (e.g. quadratic terms like k*l), not affine.  Generators
    whose sum is zero are left out.
    """
    zero = MultiPoly.const(0)

    def visit(word_: ParamWord) -> Dict[str, MultiPoly]:
        sums: Dict[str, MultiPoly] = {}
        for item in word_.items:
            if isinstance(item, Syllable):
                sums[item.gen] = sums.get(item.gen, zero) + item.exponent.to_poly()
            else:
                mult = item.multiplicity.to_poly()
                for gen, val in visit(item.body).items():
                    sums[gen] = sums.get(gen, zero) + mult * val
        return sums

    return {g: s for g, s in visit(w).items() if s != 0}


def _runs(w: Sequence[Run]) -> List[Run]:
    """Runs, freely reduced: each run merges with or cancels the top of the
    stack, and a run that comes to exponent 0 is dropped."""
    out: List[Run] = []
    for gen, exp in w:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
    return out


def runs_text(w: Sequence[Run]) -> str:
    """Runs in the syntax of ``parse_word``, ``1`` for the empty word."""
    return " ".join(g if e == 1 else f"{g}^({e})" for g, e in w) or "1"


def letters(w: Sequence[Run]) -> List[Run]:
    """Runs as a freely reduced sequence of (generator, +-1)."""
    return [(g, 1 if e > 0 else -1) for g, e in _runs(w) for _ in range(abs(e))]


class CyclicMatch(Enum):
    DIRECT = "DIRECT"
    INVERSE = "INVERSE"
    NONE = "NONE"

    def __bool__(self):
        return self is not CyclicMatch.NONE


def cyclic_normal_form(w: Sequence[Run]) -> Tuple[Run, ...]:
    """Runs of the least rotation, in the order of the (generator, +-1)
    letters, of the cyclically reduced word.

    The least rotation opens with the least letter c, and the letter after
    a run of c is larger, so it starts at a run.  Keying a run c^L followed
    by d as (c, d > c, -L if d > c else L) orders runs as their letters with
    d after them, so Duval's Lyndon factorization of keys + keys (Duval 1983,
    "Factorizing words over an ordered alphabet") finds it in linear time.
    """
    # strip cancelling end runs; a last run in the first run's generator merges
    runs = _runs(w)
    lo, hi = 0, len(runs) - 1
    while lo < hi and runs[lo][0] == runs[hi][0] and runs[lo][1] == -runs[hi][1]:
        lo, hi = lo + 1, hi - 1
    core = runs[lo:hi + 1]
    if len(core) > 1 and core[0][0] == core[-1][0]:
        core[0] = (core[0][0], core[0][1] + core.pop()[1])
    keys = [(gen, exp > 0, True, -abs(exp)) if nxt > gen
            else (gen, exp > 0, False, abs(exp))
            for (gen, exp), (nxt, _) in zip(core, core[1:] + core[:1])] * 2
    i = start = 0
    while i < len(core):
        start, j, k = i, i + 1, i
        while j < len(keys) and keys[k] <= keys[j]:
            k = i if keys[k] < keys[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return tuple(core[start:] + core[:start])


def equal_up_to_cyclic(w1: Sequence[Run], w2: Sequence[Run]) -> CyclicMatch:
    """Compare concrete words up to cyclic permutation, then up to inversion."""
    n1 = cyclic_normal_form(w1)
    if n1 == cyclic_normal_form(w2):
        return CyclicMatch.DIRECT
    if n1 == cyclic_normal_form(_inverse_runs(w2)):
        return CyclicMatch.INVERSE
    return CyclicMatch.NONE


def sign_form(w: ParamWord, env: ParamEnv) -> SignForm:
    """``w`` compiled for :func:`form_sign`: per item, the generator or block
    body's form, and the sign under ``env`` of its exponent or multiplicity.
    Compile a word once, then evaluate it under many sign maps; every sign is
    read here, so an unreadable one raises :class:`WordError` wherever it is."""
    return tuple((item.gen, env.sign_of(item.exponent))
                 if isinstance(item, Syllable) else
                 (sign_form(item.body, env), env.sign_of(item.multiplicity))
                 for item in w.items)


def form_sign(form: SignForm, signs: Mapping[str, SignLattice]) -> SignLattice:
    """Provable comparison of a compiled word with the identity, given generator
    signs (weak or UNKNOWN allowed).  A generator with no sign raises
    :class:`WordError` when the walk reaches it; the walk stops at UNKNOWN."""
    total = ZE
    for head, exponent_sign in form:
        base = signs.get(head) if head.__class__ is str else form_sign(head, signs)
        if base is None:
            raise WordError(f"no sign assigned to generator {head!r}")
        total = sign_product(total, sign_power(base, exponent_sign))
        if total is UK:
            return UK
    return total


def word_sign(w: ParamWord, signs: Mapping[str, SignLattice], env: ParamEnv) -> SignLattice:
    """``form_sign(sign_form(w, env), signs)``, compiling ``w`` on every call."""
    return form_sign(sign_form(w, env), signs)


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[()^+\-*])")


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise WordError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_affine(text: str) -> AffineExp:
    tokens = _tokenize(text)
    exp, rest = _parse_affine_tokens(tokens)
    if rest:
        raise WordError(f"trailing tokens {rest} in affine expression {text!r}")
    return exp


def _parse_affine_tokens(tokens: List[str]) -> Tuple[AffineExp, List[str]]:
    total = AffineExp(0)
    sign = 1
    expect_term = True
    i = 0
    seen_any = False
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+" and not expect_term:
            sign = 1
            expect_term = True
            i += 1
        elif tok == "-":
            sign = -sign if expect_term else -1
            expect_term = True
            i += 1
        elif expect_term and tok.isdigit():
            coeff = int(tok)
            if i + 1 < len(tokens) and (tokens[i + 1] == "*" or _is_ident(tokens[i + 1])):
                j = i + 1
                if tokens[j] == "*":
                    j += 1
                if j >= len(tokens) or not _is_ident(tokens[j]):
                    raise WordError(f"expected parameter after coefficient in {tokens}")
                total = total + AffineExp.param(tokens[j], sign * coeff)
                i = j + 1
            else:
                total = total + AffineExp(sign * coeff)
                i += 1
            sign = 1
            expect_term = False
            seen_any = True
        elif expect_term and _is_ident(tok):
            total = total + AffineExp.param(tok, sign)
            sign = 1
            expect_term = False
            seen_any = True
            i += 1
        else:
            break
    if not seen_any or expect_term:
        raise WordError(f"malformed affine expression at {tokens}")
    return total, tokens[i:]


def _is_ident(tok: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok))


def parse_word(text: str) -> ParamWord:
    """Parse the plain-text word syntax.

    Examples: ``x``, ``x^(-k)``, ``(x^(-k) y^(k))^(l) z^(k-1)``.  Exponents
    and multiplicities are affine forms in parentheses (a bare integer is
    also accepted after ^).
    """
    if text.strip() == "1":
        return ParamWord.empty()
    tokens = _tokenize(text)
    items, rest = _parse_word_tokens(tokens)
    if rest:
        raise WordError(f"trailing tokens {rest} in word {text!r}")
    return ParamWord(items)


def _parse_exponent(tokens: List[str]) -> Tuple[AffineExp, List[str]]:
    if not tokens:
        raise WordError("missing exponent after ^")
    if tokens[0] == "(":
        exp, rest = _parse_affine_tokens(tokens[1:])
        if not rest or rest[0] != ")":
            raise WordError(f"unbalanced parentheses in exponent near {tokens}")
        return exp, rest[1:]
    if tokens[0].isdigit():
        return AffineExp(int(tokens[0])), tokens[1:]
    if tokens[0] == "-" and len(tokens) > 1 and tokens[1].isdigit():
        return AffineExp(-int(tokens[1])), tokens[2:]
    raise WordError(f"malformed exponent near {tokens}")


def _parse_word_tokens(tokens: List[str]) -> Tuple[List[WordItem], List[str]]:
    items: List[WordItem] = []
    while tokens:
        tok = tokens[0]
        if tok == ")":
            break
        if tok == "(":
            inner, rest = _parse_word_tokens(tokens[1:])
            if not rest or rest[0] != ")":
                raise WordError(f"unbalanced parentheses near {tokens[:6]}")
            rest = rest[1:]
            if not rest or rest[0] != "^":
                raise WordError("a parenthesized word must carry a ^(multiplicity)")
            mult, rest = _parse_exponent(rest[1:])
            items.append(PowerBlock(ParamWord(inner), mult))
            tokens = rest
        elif _is_ident(tok):
            tokens = tokens[1:]
            if tokens and tokens[0] == "^":
                exp, tokens = _parse_exponent(tokens[1:])
            else:
                exp = AffineExp(1)
            items.append(Syllable(tok, exp))
        else:
            raise WordError(f"unexpected token {tok!r} in word")
    return items, tokens
