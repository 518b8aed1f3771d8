"""Left-order sign elimination for periodic group presentations.

Under a left-invariant order every group element compares with the identity,
so a generating set splits into "> 1" and "< 1" generators.  A relator is
equal to the identity, so a sign pattern under which some relator is provably
``> 1`` or provably ``< 1`` (in the conservative syllable-sign calculus of
:mod:`.words`) is impossible.  This module mechanizes that argument in two
stages.

Stage one (:func:`eliminate`) enumerates the sign patterns of a
presentation's generators -- the first generator is normalized to "> 1",
since reversing the order realizes the global flip -- and scans the relators
and their cyclic rotations for a strict-sign witness.  Surviving patterns are
grouped into orbits of the cyclic generator shift (:func:`orbit_reduce`),
which is a symmetry of the periodic families built in :mod:`.presentations`.
Both stages compile each word they test once (:func:`.words.sign_form` reads
its exponent signs) and evaluate the compiled form under every sign map they
try (:func:`.words.form_sign`).

Stage two (:func:`genus2_level0`) pushes further on the three-generator
presentation with base relator ``z y x`` and the wing-rewritten relators.  It
derives provable signs for the wing words X, Y, Z by bounded rewriting --
peeling one copy out of a power block, merging adjacent syllables, and
collapsing a boundary letter pair through the base relator -- then splits the
wings whose sign stays unknown into subcases, derives auxiliary signs for the
mixed pair words ``a^q b^-q`` by hypothesis refutation, and reports which
subcases close with a strict contradiction and which remain open.  "Level 0"
means exactly this toolkit: pure sign algebra with rewrite chains of bounded
depth, no dynamics and no quotient arguments, so open subcases are expected
and are reported honestly rather than resolved.

Table 1 and the stage-two report of each of the 16 sign classes are computed
once per process and shared, since the reports are immutable tuples.
"""
from __future__ import annotations

import functools
import itertools
from typing import (Dict, FrozenSet, Iterator, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from .presentations import (
    _RHO,
    _RPRIME_1,
    _RSECOND_1,
    _X_WORD,
    Presentation,
    _signed_env,
    genus_one_presentation,
)
from .words import (
    NN,
    NP,
    SN,
    SP,
    UK,
    ZE,
    AffineExp,
    ParamEnv,
    ParamWord,
    PowerBlock,
    SignForm,
    SignLattice,
    Syllable,
    WordError,
    form_sign,
    parse_word,
    peel_variants,
    reduce_word,
    sign_form,
    sign_invert,
    sign_product,
    splice,
    substitute_params,
    word_sign,
)

#: Pattern-facing aliases: a generator is either "> 1" or "< 1".
POS = SP
NEG = SN


# ---------------------------------------------------------------------------
# Sign patterns and their symmetries
# ---------------------------------------------------------------------------

class _Signs(NamedTuple):
    signs: Tuple[SignLattice, ...]


class SignAssignment(_Signs):
    """One strict sign per generator; the first is normalized to POS."""

    __slots__ = ()

    def __new__(cls, signs):
        signs = tuple(signs)
        for s in signs:
            if s not in (SP, SN):
                raise WordError(f"pattern signs must be strict, got {s}")
        return super().__new__(cls, signs)

    def as_map(self, generators: Sequence[str]) -> Dict[str, SignLattice]:
        if len(generators) != len(self.signs):
            raise WordError(
                f"{len(generators)} generators but {len(self.signs)} signs")
        return dict(zip(generators, self.signs))

    def text(self) -> str:
        return "".join("+" if s is POS else "-" for s in self.signs)

    def spaced(self) -> str:
        return " ".join("+" if s is POS else "-" for s in self.signs)


_FIVE_RESIDUAL_TAILS: Tuple[Tuple[SignLattice, ...], ...] = (
    (NEG, POS, POS, NEG),
    (NEG, POS, NEG, NEG),
    (NEG, NEG, POS, NEG),
    (NEG, POS, NEG, POS),
    (POS, NEG, POS, NEG),
)


def sign_patterns(n: int) -> List[SignAssignment]:
    """All 2^(n-1) sign patterns with the first generator fixed to POS.

    The order is deterministic: the all-POS pattern, then single contiguous
    NEG runs by start position and length, then the remaining mixed patterns
    (in the standard order for n = 5, ascending binary otherwise).
    """
    if n < 2:
        raise WordError(f"need at least 2 generators, got n={n}")
    tails: List[Tuple[SignLattice, ...]] = [(POS,) * (n - 1)]
    for start in range(n - 1):
        for length in range(1, n - start):
            tail = [POS] * (n - 1)
            for i in range(start, start + length):
                tail[i] = NEG
            tails.append(tuple(tail))
    seen = set(tails)
    if n == 5:
        for tail in _FIVE_RESIDUAL_TAILS:
            if tail not in seen:
                seen.add(tail)
                tails.append(tail)
    for tail in itertools.product((POS, NEG), repeat=n - 1):
        if tail not in seen:
            seen.add(tail)
            tails.append(tail)
    if len(tails) != 2 ** (n - 1):
        raise AssertionError("pattern enumeration is not a bijection")
    return [SignAssignment((POS,) + tail) for tail in tails]


class SymmetryAction(NamedTuple):
    """Relabeling symmetries acting on sign patterns of n generators."""

    n: int

    def renormalize(self, a: SignAssignment) -> SignAssignment:
        """Flip every sign if the first is NEG (reverse the order)."""
        if a.signs[0] is POS:
            return a
        return self.reverse(a)

    def reverse(self, a: SignAssignment) -> SignAssignment:
        return SignAssignment(tuple(sign_invert(s) for s in a.signs))

    def shift(self, a: SignAssignment) -> SignAssignment:
        """Cyclic relabeling x_i -> x_{i+1}, renormalized."""
        return self.renormalize(SignAssignment((a.signs[-1],) + a.signs[:-1]))

    def orbit(self, a: SignAssignment) -> FrozenSet[SignAssignment]:
        out: Set[SignAssignment] = set()
        cur = self.renormalize(a)
        for _ in range(self.n):
            out.add(cur)
            cur = self.shift(cur)
        return frozenset(out)


def _canonical_key(a: SignAssignment) -> Tuple[int, ...]:
    # Prefer the pattern whose NEG signs are pushed to the tail.
    return tuple(0 if s is NEG else 1 for s in reversed(a.signs))


# ---------------------------------------------------------------------------
# Stage one: pattern elimination
# ---------------------------------------------------------------------------

class PatternVerdict(NamedTuple):
    index: int
    assignment: SignAssignment
    eliminated: bool
    witness: Optional[str] = None
    witness_sign: Optional[SignLattice] = None


class Orbit(NamedTuple):
    canonical: SignAssignment
    members: Tuple[int, ...]


class EliminationReport(NamedTuple):
    generators: Tuple[str, ...]
    verdicts: Tuple[PatternVerdict, ...]
    orbits: Tuple[Orbit, ...] = ()

    def survivors(self) -> Tuple[PatternVerdict, ...]:
        """Patterns that sign analysis alone cannot settle."""
        return tuple(v for v in self.verdicts if not v.eliminated)


def _relator_forms(rel: ParamWord, env: ParamEnv) -> List[ParamWord]:
    """The reduced relator's item-level cyclic rotations, each once, in order
    of first appearance; a rotation is reduced at its seam only.

    The inverse and its rotations are not scanned: under a map that signs
    every generator, ``word_sign(w.inverse())`` is
    ``sign_invert(word_sign(w))`` (``sign_product`` is commutative and
    associative, and inversion commutes with ``sign_power``), so they add
    no witness."""
    forms: Dict[ParamWord, None] = {}
    reduced = reduce_word(rel, env)
    n = len(reduced.items)
    for i in range(max(1, n)):
        forms.setdefault(splice(ParamWord(reduced.items[i:]), n - i, n - i,
                                reduced.items[:i], env))
    return list(forms)


def eliminate(p: Presentation) -> EliminationReport:
    """Scan every sign pattern of ``p``'s generators against its relators.

    A pattern is eliminated when some relator (equivalently one of its cyclic
    rotations) is provably strictly positive or strictly negative; the
    witness records the first such relator in declaration order together
    with the proved sign.
    """
    env = p.env
    relators = [(name, [sign_form(w, env) for w in _relator_forms(rel, env)])
                for name, rel in zip(p.relator_names, p.relators)]
    verdicts: List[PatternVerdict] = []
    for idx, assignment in enumerate(sign_patterns(len(p.generators)), start=1):
        signs = assignment.as_map(p.generators)
        witness: Optional[str] = None
        witness_sign: Optional[SignLattice] = None
        for name, forms in relators:
            found = (form_sign(form, signs) for form in forms)
            witness_sign = next((s for s in found if s in (SP, SN)), None)
            if witness_sign is not None:
                witness = name
                break
        verdicts.append(PatternVerdict(idx, assignment, witness is not None,
                                       witness, witness_sign))
    return EliminationReport(tuple(p.generators), tuple(verdicts))


def orbit_reduce(report: EliminationReport) -> EliminationReport:
    """Group the surviving patterns into orbits of the cyclic shift."""
    sym = SymmetryAction(len(report.generators))
    index_of = {v.assignment: v.index
                for v in report.verdicts if not v.eliminated}
    orbits: List[Orbit] = []
    grouped: Set[int] = set()
    for v in report.verdicts:
        if v.eliminated or v.index in grouped:
            continue
        orb = sym.orbit(v.assignment)
        members = tuple(sorted(index_of[a] for a in orb if a in index_of))
        canonical = min((a for a in orb if a in index_of), key=_canonical_key)
        orbits.append(Orbit(canonical, members))
        grouped.update(members)
    return report._replace(orbits=tuple(orbits))


def table1_report() -> EliminationReport:
    """Full elimination report for the five-generator periodic family at
    symbolic (k, l): the content behind the command line's ``--table1`` flag.
    It is computed once per process and shared, since it is immutable.
    """
    return _table1()


_table1 = functools.lru_cache(maxsize=1)(
    lambda: orbit_reduce(eliminate(genus_one_presentation("k", "l", 5))))


def report_text(report: EliminationReport) -> str:
    gens = report.generators
    rows: List[Tuple[str, str, str, str]] = []
    for v in report.verdicts:
        if v.eliminated:
            rows.append((str(v.index), v.assignment.spaced(), "eliminated",
                         f"{v.witness} {_rel_text(v.witness_sign)}"))
        else:
            rows.append((str(v.index), v.assignment.spaced(), "survives", ""))
    header = ("#", "pattern", "verdict", "witness")
    widths = [max(len(header[i]), max(len(r[i]) for r in rows))
              for i in range(4)]

    def fmt(cells: Tuple[str, str, str, str]) -> str:
        parts = [cells[0].rjust(widths[0])]
        parts.extend(cells[i].ljust(widths[i]) for i in (1, 2, 3))
        return "  ".join(parts).rstrip()

    out = ["sign-pattern elimination for generators " + " ".join(gens)
           + f" ({gens[0]} > 1 normalized)", ""]
    out.append(fmt(header))
    out.extend(fmt(r) for r in rows)
    surv = [v.index for v in report.verdicts if not v.eliminated]
    out.append("")
    out.append("survivors: " + (" ".join(map(str, surv)) if surv else "none"))
    for i, orb in enumerate(report.orbits, 1):
        out.append(f"orbit {i}: patterns " + " ".join(map(str, orb.members))
                   + f"; canonical ({orb.canonical.spaced()})")
    if surv:
        out.append("unresolved by sign analysis alone: "
                   + " ".join(map(str, surv)))
    return "\n".join(out) + "\n"


def report_csv(report: EliminationReport) -> str:
    lines = ["pattern,signs,verdict,witness"]
    for v in report.verdicts:
        wit = (f"{v.witness}{'>1' if v.witness_sign is SP else '<1'}"
               if v.eliminated else "")
        verdict = "eliminated" if v.eliminated else "survives"
        lines.append(f"{v.index},{v.assignment.text()},{verdict},{wit}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stage two: the three-generator wing analysis at level 0
# ---------------------------------------------------------------------------

_BASE = ("x", "y", "z")
_WINGS = ("X", "Y", "Z")
_PARAMS = ("q", "s", "t", "l")

#: Pair-word letters: ``Eab`` stands for the word a^q b^-q, _PAIR_WORDS[Eab].
_ATOM_PAIR: Dict[str, Tuple[str, str]] = {
    f"E{a}{b}": (a, b) for a, b in ("xy", "yx", "yz", "zy", "zx", "xz")}
_ATOMS = tuple(_ATOM_PAIR)
_ATOM_INVERSE = {name: f"E{b}{a}" for name, (a, b) in _ATOM_PAIR.items()}
_PAIR_WORDS = {name: ParamWord([Syllable(a, "q"), Syllable(b, "-q")])
               for name, (a, b) in _ATOM_PAIR.items()}


def _rotate(form: SignForm) -> SignForm:
    """rho applied to a compiled sign form: every head is renamed."""
    return tuple((h.translate(_RHO[1]) if h.__class__ is str else _rotate(h),
                  s) for h, s in form)


def _atomize_text(template: str) -> str:
    """A letter-level relator template with each ``a^(q) b^(-q)`` written as
    its pair-word letter ``Eab``."""
    for name, (a, b) in _ATOM_PAIR.items():
        template = template.replace(f"{a}^(q) {b}^(-q)", name)
    return template


#: The wing-rewritten relators r'_1, r''_1 of :mod:`.presentations` over
#: pair-word letters; rho renames Eab to the pair letter of the images.
_RPRIME_ATOM = parse_word(_atomize_text(_RPRIME_1))
_RSECOND_ATOM = parse_word(_atomize_text(_RSECOND_1))
_BASE_PRESENTATION = Presentation(_BASE, (parse_word("z y x"),), ParamEnv({}),
                                  ("r0",))

#: One-letter consequences of the base relator z y x = 1 that the collapse
#: move may splice in at a syllable boundary.
_COLLAPSE_RULES: Dict[Tuple[str, int, str, int], Tuple[str, int]] = {
    ("y", 1, "x", 1): ("z", -1),
    ("x", 1, "z", 1): ("y", -1),
    ("z", 1, "y", 1): ("x", -1),
    ("x", -1, "y", -1): ("z", 1),
    ("y", -1, "z", -1): ("x", 1),
    ("z", -1, "x", -1): ("y", 1),
}

#: The eight sign classes of (q, s, t, l) up to mirror symmetry (which
#: negates all four parameters), in standard order.
_CASE_ORDER: Tuple[Tuple[int, int, int, int], ...] = (
    (1, 1, 1, 1),
    (1, 1, -1, 1),
    (-1, 1, -1, 1),
    (-1, -1, -1, 1),
    (-1, 1, 1, 1),
    (-1, 1, -1, -1),
    (1, -1, -1, 1),
    (1, 1, -1, -1),
)


def _case_label(signs: Tuple[int, int, int, int]) -> str:
    if signs in _CASE_ORDER:
        return f"sign class {_CASE_ORDER.index(signs) + 1}"
    mirror = tuple(-v for v in signs)
    return f"mirror of sign class {_CASE_ORDER.index(mirror) + 1}"


def _collapse_variants(w: ParamWord, env: ParamEnv) -> List[ParamWord]:
    out = []
    for i in range(len(w.items) - 1):
        a, b = w.items[i], w.items[i + 1]
        if not (isinstance(a, Syllable) and isinstance(b, Syllable)):
            continue
        sa, sb = env.sign_of(a.exponent), env.sign_of(b.exponent)
        da = 1 if sa is SP else -1 if sa is SN else 0
        db = 1 if sb is SP else -1 if sb is SN else 0
        if da == 0 or db == 0:
            continue
        rule = _COLLAPSE_RULES.get((a.gen, da, b.gen, db))
        if rule is None:
            continue
        mid_gen, mid_sign = rule
        out.append(splice(w, i, i + 2,
                          (Syllable(a.gen, a.exponent + AffineExp(-da)),
                           Syllable(mid_gen, AffineExp(mid_sign)),
                           Syllable(b.gen, b.exponent + AffineExp(-db))), env))
    return out


def _variants(seed: ParamWord, env: ParamEnv, depth: int = 2,
              collapse: bool = True) -> List[ParamWord]:
    """Bounded rewriting closure of ``seed``: up to ``depth`` peel/collapse
    moves, free reduction after each.  Deterministic order, root first."""
    root = reduce_word(seed, env)
    seen: Dict[ParamWord, None] = {root: None}
    frontier = [root]
    for _ in range(depth):
        nxt: List[ParamWord] = []
        for w in frontier:
            children = peel_variants(w, env)
            if collapse:
                children.extend(_collapse_variants(w, env))
            for child in children:
                if child not in seen:
                    seen[child] = None
                    nxt.append(child)
        frontier = nxt
    return list(seen)


def _atomize(w: ParamWord, body_names: Mapping[ParamWord, str]) -> ParamWord:
    """Replace each power block of the reduced ``w`` whose body is a pair
    word by its ``Eab`` letter.  ``body_names`` holds all six reduced pair
    words, and Eab^-1 is Eba, so an inverted body is found as it is."""
    items: List = []
    for item in w.items:
        if isinstance(item, Syllable):
            items.append(item)
            continue
        name = body_names.get(item.body)
        if name is not None:
            items.append(Syllable(name, item.multiplicity))
            continue
        items.append(PowerBlock(_atomize(item.body, body_names),
                                item.multiplicity))
    return ParamWord(tuple(items))


class WingSign(NamedTuple):
    name: str
    sign: SignLattice
    form: str = ""


class DerivedAtom(NamedTuple):
    atom: str
    sign: SignLattice
    via: str


class SubcaseRecord(NamedTuple):
    index: int
    assumed: Tuple[Tuple[str, SignLattice], ...]
    derived: Tuple[DerivedAtom, ...]
    closed: bool
    witness: Optional[str] = None
    witness_sign: Optional[SignLattice] = None


class Genus2Report(NamedTuple):
    signs: Tuple[int, int, int, int]
    case_label: str
    verdicts: Tuple[PatternVerdict, ...]
    orbits: Tuple[Orbit, ...]
    canonical: SignAssignment
    wings: Tuple[WingSign, ...]
    subcases: Tuple[SubcaseRecord, ...]

    def residual(self) -> Tuple[SubcaseRecord, ...]:
        """Subcases with no strict-sign contradiction at this level."""
        return tuple(sc for sc in self.subcases if not sc.closed)


def _subcase_assignments(ctx: Mapping[str, SignLattice],
                         ) -> List[Tuple[Tuple[str, SignLattice], ...]]:
    """Strict-sign assignments for the unknown wings, in a fixed order,
    excluding those that make Z Y X = 1 impossible outright."""
    unknown = [n for n in _WINGS if ctx.get(n) not in (SP, SN)]
    if not unknown:
        return [()]

    def consistent(assign: Mapping[str, SignLattice]) -> bool:
        total = ZE
        for name in ("Z", "Y", "X"):
            total = sign_product(total, assign.get(name, ctx[name]))
        return total not in (SP, SN)

    if unknown == ["Y", "Z"] and ctx.get("X") in (SP, SN):
        sx = ctx["X"]
        ordered = [
            {"Y": sx, "Z": sign_invert(sx)},
            {"Y": sign_invert(sx), "Z": sx},
            {"Y": sign_invert(sx), "Z": sign_invert(sx)},
        ]
    else:
        ordered = [dict(zip(unknown, combo)) for combo in
                   itertools.product((SP, SN), repeat=len(unknown))]
    return [tuple((n, a[n]) for n in unknown)
            for a in ordered if consistent(a)]


def _derive_atoms(ctx: Dict[str, SignLattice],
                  wing_forms: Mapping[str, Mapping[SignForm, ParamWord]],
                  ) -> List[DerivedAtom]:
    """Settle unknown pair-word signs by hypothesis refutation.

    Assuming ``Eab >= 1`` (resp. ``<= 1``) and finding a rewriting of a wing
    definition that then contradicts the wing's strict sign proves the
    opposite strict sign for ``Eab``.
    """
    derived: List[DerivedAtom] = []
    for _ in range(2):
        settled = len(derived)
        for atom in _ATOMS:
            if ctx.get(atom) in (SP, SN):
                continue
            inverse = _ATOM_INVERSE[atom]
            for wing, (hyp, proved) in itertools.product(
                    _WINGS, ((NN, SN), (NP, SP))):
                if ctx.get(wing) not in (SP, SN):
                    continue
                trial = {**ctx, atom: hyp, inverse: sign_invert(hyp)}
                if any(form_sign(form, trial) is sign_invert(ctx[wing])
                       for form in wing_forms[wing]):
                    ctx[atom], ctx[inverse] = proved, sign_invert(proved)
                    derived.append(DerivedAtom(atom, proved, wing))
                    break
        if len(derived) == settled:
            break
    return derived


def _closure_candidates(mapping: Mapping[str, AffineExp],
                        env: ParamEnv) -> Iterator[Tuple[str, SignForm]]:
    """Compiled r'_i, then r''_i, each followed by its depth-one peel variants:
    a family is built for i = 1 when it is reached; rho gives i = 2, 3."""
    for label, template in (("'", _RPRIME_ATOM), ("''", _RSECOND_ATOM)):
        root = reduce_word(substitute_params(template, mapping), env)
        forms = [sign_form(w, env)
                 for w in _variants(root, env, depth=1, collapse=False)]
        for i in (1, 2, 3):
            if i > 1:
                forms = [_rotate(f) for f in forms]
            for j, form in enumerate(forms):
                yield f"r{i}{label}" + " (peeled)" * (j > 0), form


# Stage one on the base relator is the same for every sign class.
_base_stage = functools.lru_cache(maxsize=1)(
    lambda: orbit_reduce(eliminate(_BASE_PRESENTATION)))


def genus2_level0(q_sign: int, s_sign: int, t_sign: int,
                  l_sign: int) -> Genus2Report:
    """Level-0 sign analysis of the three-generator cover presentation for
    one sign class of the parameters (q, s, t, l).

    Only the signs matter; the parameters themselves stay symbolic with the
    standing bound ``>= 1`` after folding the signs into the exponents.  The
    base relator ``z y x`` eliminates the all-POS pattern and the survivors
    form a single shift orbit, so the analysis continues at the canonical
    surviving pattern: derive wing signs, split into subcases, derive pair
    words, and try the rewritten relators for a strict contradiction.

    The deck rotation rho (x -> y -> z -> x, X -> Y -> Z -> X, exponents
    fixed) carries X to Y to Z and r'_i, r''_i to r'_(i+1), r''_(i+1).  Every
    rewriting move, atomizing and compiling commute with rho (the collapse
    rules are rho-invariant), so only the closures of X, r'_1 and r''_1 are
    built: the rest are their forms renamed, in the same order, and each is
    still evaluated under every sign map, so no verdict or witness changes.
    The signs are checked on every call; each sign class is analysed once per
    process, and its report, immutable, is shared.
    """
    raw = (q_sign, s_sign, t_sign, l_sign)
    for name, value in zip(_PARAMS, raw):
        if value.__class__ is not int or value == 0:
            raise WordError(
                f"{name}_sign must be a nonzero integer, got {value!r}")
    return _genus2_class(tuple(1 if v > 0 else -1 for v in raw))


@functools.lru_cache(maxsize=16)
def _genus2_class(signs: Tuple[int, int, int, int]) -> Genus2Report:
    """:func:`genus2_level0` for one normalized sign class."""
    mapping, env = _signed_env(signs)

    stage1 = _base_stage()
    canonical = stage1.orbits[0].canonical
    ctx: Dict[str, SignLattice] = canonical.as_map(list(_BASE))

    bodies = {name: reduce_word(substitute_params(word, mapping), env)
              for name, word in _PAIR_WORDS.items()}
    body_names = {body: name for name, body in bodies.items()}
    ctx.update({n: word_sign(b, ctx, env) for n, b in bodies.items()})

    # X's closure is compiled once; a form that repeats would repeat a
    # verdict, so its first variant is kept.  rho carries it to Y, then Z.
    seed = reduce_word(substitute_params(_X_WORD, mapping), env)
    forms: Dict[SignForm, ParamWord] = {}
    for v in _variants(seed, env):
        forms.setdefault(sign_form(_atomize(v, body_names), env), v)
    wing_forms: Dict[str, Dict[SignForm, ParamWord]] = {}
    wings: List[WingSign] = []
    for k, name in enumerate(_WINGS):
        if k:
            forms = {_rotate(f): v for f, v in forms.items()}
        wing_forms[name] = forms
        found, form = UK, ""
        for atom_form, raw_form in forms.items():
            s = form_sign(atom_form, ctx)
            if s in (SP, SN):
                found, form = s, raw_form.to_text().translate(_RHO[k])
                break
        ctx[name] = found
        wings.append(WingSign(name, found, form))

    cases = []
    for assumed in _subcase_assignments(ctx):
        sub_ctx = {**ctx, **dict(assumed)}
        cases.append((assumed, sub_ctx, _derive_atoms(sub_ctx, wing_forms)))
    # candidates are built and compiled as reached, until every subcase closes
    witness: Dict[int, Tuple[str, SignLattice]] = {}
    for name, form in _closure_candidates(mapping, env):
        if len(witness) == len(cases):
            break
        for i, (_, sub_ctx, _) in enumerate(cases, start=1):
            s = None if i in witness else form_sign(form, sub_ctx)
            if s in (SP, SN):
                witness[i] = (name, s)
    subcases = [SubcaseRecord(i, assumed, tuple(derived), i in witness,
                              *witness.get(i, (None, None)))
                for i, (assumed, _, derived) in enumerate(cases, start=1)]
    return Genus2Report(signs, _case_label(signs), stage1.verdicts,
                        stage1.orbits, canonical, tuple(wings),
                        tuple(subcases))


def _rel_text(sign: SignLattice) -> str:
    return "> 1" if sign is SP else "< 1"


def _folded_atom_text(atom: str, signs: Tuple[int, ...]) -> str:
    """Pair word behind an atom with the sign class folded into exponents."""
    pmap, env = _signed_env(signs)
    return reduce_word(substitute_params(_PAIR_WORDS[atom], pmap), env).to_text()


def genus2_report_text(report: Genus2Report) -> str:
    case = " ".join(f"{n}{'>0' if v > 0 else '<0'}"
                    for n, v in zip(_PARAMS, report.signs))
    out = [
        f"level-0 wing sign analysis for {case} ({report.case_label})",
        "parameters below are positive; the sign class is folded into"
        " the exponents",
        "base relator r0 = z y x",
        "",
    ]
    for v in report.verdicts:
        pat = v.assignment.spaced()
        if v.eliminated:
            out.append(f"pattern {v.index} ({pat}): eliminated,"
                       f" {v.witness} {_rel_text(v.witness_sign)}")
        else:
            out.append(f"pattern {v.index} ({pat}): survives")
    out.append(f"canonical surviving pattern: ({report.canonical.spaced()})")
    out.append("")
    out.append("wing words at the canonical pattern:")
    for ws in report.wings:
        if ws.sign in (SP, SN):
            out.append(f"  {ws.name} {_rel_text(ws.sign)}  via  {ws.form}")
        else:
            out.append(f"  {ws.name} sign unknown at this level")
    out.append("")
    for sc in report.subcases:
        assumed = ", ".join(f"{n} {_rel_text(s)}" for n, s in sc.assumed)
        out.append(f"subcase {sc.index}: assume {assumed}")
        for d in sc.derived:
            out.append(f"  derived {_folded_atom_text(d.atom, report.signs)}"
                       f" {_rel_text(d.sign)}"
                       f" (forced by the sign of {d.via})")
        if sc.closed:
            out.append(f"  closed: {sc.witness} is provably"
                       f" {_rel_text(sc.witness_sign)}")
        else:
            out.append("  open: no strict-sign contradiction within the"
                       " bounded search")
    out.append("")
    nopen = len(report.residual())
    out.append(f"residual: {nopen} of {len(report.subcases)} subcases open")
    return "\n".join(out) + "\n"
