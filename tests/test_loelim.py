"""Tests for sign-pattern elimination and the level-0 wing analysis."""
import hashlib
import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgecover import cli, loelim, presentations
from bridgecover.loelim import (
    NEG, POS, SignAssignment, SymmetryAction, eliminate, genus2_level0,
    genus2_report_text, orbit_reduce, report_csv, report_text, sign_patterns,
    table1_report,
)
from bridgecover.presentations import (
    Presentation, genus_one_presentation,
)
from bridgecover.words import (
    AffineExp, ParamEnv, ParamWord, PowerBlock, SignLattice, Syllable,
    WordError, instantiate, parse_word, peel_variants, reduce_word, sign_form,
    sign_invert, substitute, substitute_params, word_sign,
)
from letter_words import letters

SP = SignLattice.STRICT_POS
NN = SignLattice.NON_NEG
ZE = SignLattice.ZERO
NP = SignLattice.NON_POS
SN = SignLattice.STRICT_NEG
UK = SignLattice.UNKNOWN

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Sign patterns and symmetries
# ---------------------------------------------------------------------------

def test_sign_patterns_count_and_normalization():
    for n in (2, 3, 4, 5, 6):
        pats = sign_patterns(n)
        assert len(pats) == 2 ** (n - 1)
        assert len(set(pats)) == len(pats)
        for a in pats:
            assert a.signs[0] is POS
            assert all(s in (POS, NEG) for s in a.signs)


def test_sign_patterns_small_order():
    assert [a.text() for a in sign_patterns(2)] == ["++", "+-"]
    assert [a.text() for a in sign_patterns(3)] == ["+++", "+-+", "+--", "++-"]


def test_sign_patterns_rejects_single_generator():
    with pytest.raises(WordError):
        sign_patterns(1)


def test_sign_assignment_validation():
    with pytest.raises(WordError):
        SignAssignment((POS, SignLattice.NON_NEG))
    a = SignAssignment((POS, NEG))
    assert SignAssignment([POS, NEG]) == a and a.signs == (POS, NEG)
    assert a.text() == "+-"
    assert a.spaced() == "+ -"
    assert a.as_map(["x", "y"]) == {"x": POS, "y": NEG}
    with pytest.raises(WordError):
        a.as_map(["x", "y", "z"])


def test_symmetry_shift_orbit_of_table1_canonical():
    sym = SymmetryAction(5)
    canonical = SignAssignment((POS, POS, NEG, NEG, NEG))
    orbit = sym.orbit(canonical)
    assert {a.text() for a in orbit} == {
        "++---", "+--++", "+---+", "++--+", "+++--",
    }


def test_symmetry_reverse_is_involution():
    sym = SymmetryAction(4)
    a = SignAssignment((POS, NEG, POS, NEG))
    assert sym.reverse(sym.reverse(a)) == a
    assert sym.renormalize(sym.reverse(a)) == a


@st.composite
def _pattern(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    tail = tuple(POS if draw(st.booleans()) else NEG for _ in range(n - 1))
    return n, SignAssignment((POS,) + tail)


@settings(max_examples=25, deadline=None)
@given(_pattern())
def test_symmetry_orbit_closure(case):
    n, a = case
    sym = SymmetryAction(n)
    orbit = sym.orbit(a)
    assert a in orbit
    assert 1 <= len(orbit) <= n
    for member in orbit:
        assert member.signs[0] is POS
        assert sym.orbit(member) == orbit


# ---------------------------------------------------------------------------
# Stage one on a minimal presentation
# ---------------------------------------------------------------------------

def test_eliminate_two_generator_product():
    p = Presentation(("x", "y"), (parse_word("x y"),), ParamEnv({}), ("r",))
    report = orbit_reduce(eliminate(p))
    both_pos, mixed = report.verdicts
    assert both_pos.eliminated
    assert (both_pos.witness, both_pos.witness_sign) == ("r", SP)
    assert not mixed.eliminated
    assert [o.members for o in report.orbits] == [(2,)]
    assert report.orbits[0].canonical.text() == "+-"


def test_eliminate_records_first_witness_in_declaration_order():
    p = Presentation(("x", "y"),
                     (parse_word("x y^(-1)"), parse_word("x^(2) y")),
                     ParamEnv({}), ("ra", "rb"))
    report = eliminate(p)
    both_pos = report.verdicts[0]
    # ra is not strict at (+ +) but rb is, so rb is the witness; at (+ -)
    # ra is strict and wins by declaration order.
    assert (both_pos.witness, both_pos.witness_sign) == ("rb", SP)
    mixed = report.verdicts[1]
    assert (mixed.witness, mixed.witness_sign) == ("ra", SP)


def test_eliminate_uses_rotations_and_inverse():
    # x y x^(-1) has exponent sum zero in x; only the rotation that merges
    # the x syllables exposes a strict sign.
    p = Presentation(("x", "y"), (parse_word("x y x^(-1)"),),
                     ParamEnv({}), ("r",))
    report = eliminate(p)
    assert report.verdicts[0].eliminated
    assert report.verdicts[1].eliminated


_ENV_KL = ParamEnv({"k": 2, "l": 1})
_syllable = st.builds(
    Syllable, st.sampled_from(["x", "y", "z"]),
    st.builds(AffineExp, st.integers(-2, 2),
              st.dictionaries(st.sampled_from(["k", "l"]), st.integers(-1, 1),
                              max_size=2)))
# unreduced words: syllables and blocks of definite multiplicity under k >= 2,
# l >= 1, which may merge or cancel across any rotation's seam
_relator = st.recursive(
    st.lists(_syllable, max_size=4).map(ParamWord),
    lambda bodies: st.lists(st.one_of(
        _syllable,
        st.builds(PowerBlock, bodies, st.builds(
            lambda c, l, sign: AffineExp(c, {"l": l}).scale(sign),
            st.integers(-1, 2), st.integers(0, 1), st.sampled_from([1, -1])))),
        max_size=6).map(ParamWord),
    max_leaves=12)


@given(_relator)
@settings(max_examples=200)
def test_relator_forms_reduce_each_rotation_in_full(rel):
    """The forms reduced at the seams equal ``reduce_word`` of every item
    rotation of the reduced relator, in order."""
    forms = {}
    base = reduce_word(rel, _ENV_KL)
    for i in range(max(1, len(base.items))):
        forms.setdefault(reduce_word(
            ParamWord(base.items[i:] + base.items[:i]), _ENV_KL))
    got = loelim._relator_forms(rel, _ENV_KL)
    assert got == list(forms)
    assert [w.to_text() for w in got] == [w.to_text() for w in forms]


_LATTICE = st.sampled_from([SP, NN, ZE, NP, SN, UK])


@given(_relator, st.fixed_dictionaries({g: _LATTICE for g in "xyz"}))
@settings(max_examples=300)
def test_word_sign_of_the_inverse_is_the_inverted_sign(rel, signs):
    """Under a map that signs every generator, inverting a word inverts its
    sign, so the inverse relator and its rotations add no witness."""
    for w in (rel, reduce_word(rel, _ENV_KL)):
        assert word_sign(w.inverse(), signs, _ENV_KL) is \
            sign_invert(word_sign(w, signs, _ENV_KL))


# ---------------------------------------------------------------------------
# The five-generator table
# ---------------------------------------------------------------------------

def test_table1_witnesses_and_survivors():
    report = table1_report()
    witnesses = {v.index: (v.witness, v.witness_sign)
                 for v in report.verdicts if v.eliminated}
    assert witnesses == {
        1: ("r0", SP), 2: ("r1", SN), 5: ("r5", SP), 6: ("r2", SN),
        9: ("r3", SN), 11: ("r4", SN), 12: ("r1", SN), 13: ("r1", SN),
        14: ("r3", SP), 15: ("r1", SN), 16: ("r2", SN),
    }
    assert [v.index for v in report.survivors()] == [3, 4, 7, 8, 10]
    assert len(report.orbits) == 1
    assert report.orbits[0].members == (3, 4, 7, 8, 10)
    assert report.orbits[0].canonical.text() == "++---"


def test_table1_text_golden():
    assert report_text(table1_report()) == (GOLDEN / "table1.txt").read_text()


def test_table1_csv_golden():
    assert report_csv(table1_report()) == (GOLDEN / "table1.csv").read_text()


def _letter_sign(gen, step, signs):
    return signs[gen] if step > 0 else sign_invert(signs[gen])


def test_table1_witnesses_numerically_sound():
    # A symbolic strict-sign witness must instantiate, at any admissible
    # (k, l), to a nonempty word whose letters all push the same way.
    p = genus_one_presentation("k", "l", 5)
    report = table1_report()
    for v in report.verdicts:
        if not v.eliminated:
            continue
        signs = v.assignment.as_map(p.generators)
        for k, l in itertools.product((2, 3), (1, 2)):
            word = instantiate(p.relators[p.relator_names.index(v.witness)],
                               {"k": k, "l": l})
            ls = letters(word)
            assert ls, (v.index, k, l)
            contributions = {_letter_sign(g, e, signs) for g, e in ls}
            assert contributions == {v.witness_sign}, (v.index, k, l)


def test_symbolic_elimination_specializes_to_concrete():
    symbolic = {v.index for v in eliminate(
        genus_one_presentation("k", "l", 5)).verdicts if v.eliminated}
    for k, l in ((2, 1), (3, 2)):
        concrete = {v.index for v in eliminate(
            genus_one_presentation(k, l, 5)).verdicts if v.eliminated}
        assert symbolic <= concrete


def test_elimination_reversal_symmetry():
    # Inverting every relator leaves the verdicts and witness names alone
    # and flips each proved sign.
    p = genus_one_presentation("k", "l", 5)
    flipped = Presentation(p.generators,
                           tuple(r.inverse() for r in p.relators),
                           p.env, p.relator_names)
    for va, vb in zip(eliminate(p).verdicts, eliminate(flipped).verdicts):
        assert va.eliminated == vb.eliminated
        assert va.witness == vb.witness
        if va.eliminated:
            assert vb.witness_sign is sign_invert(va.witness_sign)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4))
def test_concrete_survivors_keep_canonical_orbit(k, l):
    report = orbit_reduce(eliminate(genus_one_presentation(k, l, 5)))
    survivors = {v.index for v in report.survivors()}
    # Sign analysis can only get sharper at concrete values, and the
    # canonical orbit itself is never eliminated by it.
    assert {3, 4, 7, 8, 10} <= survivors or not survivors


# ---------------------------------------------------------------------------
# Rewriting soundness
# ---------------------------------------------------------------------------

def test_collapse_splices_single_letter():
    env = ParamEnv({})
    out = loelim._collapse_variants(reduce_word(parse_word("y x"), env), env)
    assert [w.to_text() for w in out] == ["z^(-1)"]
    out = loelim._collapse_variants(
        reduce_word(parse_word("x^(2) z^(3)"), env), env)
    assert [w.to_text() for w in out] == ["x y^(-1) z^(2)"]


def test_collapse_respects_required_signs():
    env = ParamEnv({})
    # y^(-1) x matches no splice rule (the pair must be y x or x^(-1) y^(-1)).
    out = loelim._collapse_variants(
        reduce_word(parse_word("y^(-1) x"), env), env)
    assert out == []


_ELIMINATION = {"x": "x", "y": "y", "z": "x^(-1) y^(-1)"}


def _free_letters(word, env, values):
    sub = {g: parse_word(t) for g, t in _ELIMINATION.items()}
    return letters(instantiate(substitute(word, sub, env), values))


def test_wing_variants_stay_in_the_same_group_element():
    # Every peel/collapse variant must equal its seed in the quotient by
    # z y x = 1; eliminating z makes that free-group equality checkable.
    for signs in loelim._CASE_ORDER:
        pmap, env = loelim._signed_env(signs)
        for word in presentations._WING_WORDS.values():
            seed = reduce_word(substitute_params(word, pmap), env)
            for values in ({"q": 1, "s": 1, "t": 1, "l": 1},
                           {"q": 2, "s": 3, "t": 2, "l": 2}):
                reference = _free_letters(seed, env, values)
                for variant in loelim._variants(seed, env):
                    assert _free_letters(variant, env, values) == reference


def _variants_by_text(seed, env, depth=2, collapse=True):
    """Reference closure that identifies words by their text, as
    ``_variants`` once did; ``_variants`` now keys on the word itself."""
    root = reduce_word(seed, env)
    seen = {root.to_text(): root}
    order = [root]
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            children = peel_variants(w, env)
            if collapse:
                children.extend(loelim._collapse_variants(w, env))
            for child in children:
                key = child.to_text()
                if key not in seen:
                    seen[key] = child
                    order.append(child)
                    nxt.append(child)
        frontier = nxt
    return order


def test_variants_match_the_text_keyed_closure():
    classes = [c for signs in loelim._CASE_ORDER
               for c in (signs, tuple(-v for v in signs))]
    assert len(set(classes)) == 16
    for signs in classes:
        pmap, env = loelim._signed_env(signs)
        for word in presentations._WING_WORDS.values():
            seed = reduce_word(substitute_params(word, pmap), env)
            got, want = loelim._variants(seed, env), _variants_by_text(seed, env)
            assert got == want
            assert [w.to_text() for w in got] == [w.to_text() for w in want]
        # the relator roots r'_i and r''_i, closed as genus2_level0 closes them
        roots = [reduce_word(substitute_params(word, pmap), env)
                 for word in (*_atom_relators("'"), *_atom_relators("''"))]
        for root in roots:
            assert (loelim._variants(root, env, depth=1, collapse=False)
                    == _variants_by_text(root, env, depth=1, collapse=False))


def _atom_relators(label):
    """r'_1, r'_2, r'_3 (``label`` ``'``) or r''_1..3 (``''``) over pair-word
    letters: loelim's r'_1 or r''_1, then the rotated letter-level templates
    of presentations atomized as loelim atomizes."""
    first, templates = {"'": (loelim._RPRIME_ATOM,
                              presentations._RPRIME_TEMPLATES),
                        "''": (loelim._RSECOND_ATOM,
                               presentations._RSECOND_TEMPLATES)}[label]
    return [first] + [parse_word(loelim._atomize_text(templates[i]))
                      for i in (2, 3)]


def test_atom_relators_match_letter_level_templates():
    atom_defs = {name: parse_word(f"{a}^(q) {b}^(-q)")
                 for name, (a, b) in loelim._ATOM_PAIR.items()}
    identity = {g: parse_word(g) for g in ("x", "y", "z", "X", "Y", "Z")}
    env = ParamEnv({name: 1 for name in ("q", "s", "t", "l")})
    pairs = ((_atom_relators("'"), presentations._RPRIME_TEMPLATES),
             (_atom_relators("''"), presentations._RSECOND_TEMPLATES))
    for atom_templates, letter_templates in pairs:
        for i in (1, 2, 3):
            expanded = substitute(atom_templates[i - 1],
                                  {**identity, **atom_defs}, env)
            reference = parse_word(letter_templates[i])
            for values in ({"q": 2, "s": 1, "t": 1, "l": 1},
                           {"q": 1, "s": 2, "t": -2, "l": 3},
                           {"q": 3, "s": 2, "t": 2, "l": -1}):
                assert (letters(instantiate(expanded, values))
                        == letters(instantiate(reference, values))), (i, values)


def test_atom_inverse_table_is_consistent():
    for name, partner in loelim._ATOM_INVERSE.items():
        assert loelim._ATOM_INVERSE[partner] == name
        a, b = loelim._ATOM_PAIR[name]
        assert loelim._ATOM_PAIR[partner] == (b, a)


# The deck rotation rho, letter by letter: x -> y -> z -> x, X -> Y -> Z -> X,
# and each pair letter Eab to the pair letter of the images of a and b.
_RHO = {"x": "y", "y": "z", "z": "x", "X": "Y", "Y": "Z", "Z": "X",
        "Exy": "Eyz", "Eyz": "Ezx", "Ezx": "Exy",
        "Eyx": "Ezy", "Ezy": "Exz", "Exz": "Eyx"}
_SIGN_CLASSES = tuple(itertools.product((1, -1), repeat=4))


def _rho_word(w):
    """rho applied to a word: every generator renamed, every exponent kept."""
    return ParamWord(tuple(
        Syllable(_RHO[item.gen], item.exponent) if isinstance(item, Syllable)
        else PowerBlock(_rho_word(item.body), item.multiplicity)
        for item in w.items))


def _rho_form(form):
    return tuple((_RHO[head] if isinstance(head, str) else _rho_form(head), s)
                 for head, s in form)


def test_the_rotation_tables_are_rho():
    assert set(_RHO) == set(loelim._BASE + loelim._WINGS + loelim._ATOMS)
    for letter, image in _RHO.items():
        assert letter.translate(presentations._RHO[0]) == letter
        assert letter.translate(presentations._RHO[1]) == image
        assert letter.translate(presentations._RHO[2]) == _RHO[image]


def test_the_rewriting_rules_and_pair_words_are_rho_invariant():
    # genus2_level0 builds one closure per rho-orbit; a rule that rho does
    # not fix would make the other two closures differ from the renamed one.
    rules = loelim._COLLAPSE_RULES
    assert {(_RHO[a], da, _RHO[b], db): (_RHO[mid], sign)
            for (a, da, b, db), (mid, sign) in rules.items()} == rules
    assert {_RHO[name]: _RHO[partner]
            for name, partner in loelim._ATOM_INVERSE.items()
            } == loelim._ATOM_INVERSE
    for name, word in loelim._PAIR_WORDS.items():
        assert _rho_word(word) == loelim._PAIR_WORDS[_RHO[name]]


@pytest.mark.parametrize("signs", _SIGN_CLASSES)
def test_rho_commutes_with_the_closures_and_their_forms(signs):
    pmap, env = loelim._signed_env(signs)
    bodies = {name: reduce_word(substitute_params(word, pmap), env)
              for name, word in loelim._PAIR_WORDS.items()}
    body_names = {body: name for name, body in bodies.items()}

    def roots(words):
        return [reduce_word(substitute_params(word, pmap), env)
                for word in words]

    orbits = ((roots(presentations._WING_WORDS.values()), 2, True),
              (roots(_atom_relators("'")), 1, False),
              (roots(_atom_relators("''")), 1, False))
    for orbit, depth, collapse in orbits:
        for k in range(3):
            word, image = orbit[k], orbit[(k + 1) % 3]
            assert _rho_word(word) == image
            closure = loelim._variants(word, env, depth, collapse)
            assert ([_rho_word(v) for v in closure]
                    == loelim._variants(image, env, depth, collapse))
            for v in closure:
                atoms = loelim._atomize(v, body_names)
                assert loelim._atomize(_rho_word(v), body_names) \
                    == _rho_word(atoms)
                for w in (v, atoms):
                    form = sign_form(w, env)
                    assert sign_form(_rho_word(w), env) == _rho_form(form) \
                        == loelim._rotate(form)
                assert (_rho_word(v).to_text()
                        == v.to_text().translate(presentations._RHO[1]))


# ---------------------------------------------------------------------------
# Level-0 wing analysis
# ---------------------------------------------------------------------------

_EXPECTED_X = {1: SN, 2: SN, 3: SP, 4: SN, 5: SP, 6: SP, 7: SP, 8: SN}


def test_genus2_rejects_bad_signs():
    # checked on every call, also once the class of (1, 1, 1, 1) is cached:
    # True == 1 and hashes alike, so a memo on the raw signs would let it by
    cached = genus2_level0(1, 1, 1, 1)
    for pos, name in enumerate(("q", "s", "t", "l")):
        for bad in (True, False, 1.0, 0.5, 0, "1"):
            signs = [1, 1, 1, 1]
            signs[pos] = bad
            with pytest.raises(WordError) as err:
                genus2_level0(*signs)
            assert str(err.value) == (
                f"{name}_sign must be a nonzero integer, got {bad!r}")
    assert genus2_level0(1, 1, 1, 1) is cached


_SIGN_CLASSES = list(itertools.product((1, -1), repeat=4))


def test_genus2_memo_matches_a_fresh_analysis_in_every_sign_class():
    for signs in _SIGN_CLASSES:
        report = genus2_level0(*signs)
        assert report == loelim._genus2_class.__wrapped__(signs), signs
        # shared between callers, so it must hold no mutable part
        hash(report)
    # magnitudes fold into the same class, and so into the same report
    assert genus2_level0(3, -2, -7, 4) is genus2_level0(1, -1, -1, 1)


def test_table1_memo_matches_a_fresh_report():
    report = table1_report()
    assert report == loelim._table1.__wrapped__()
    hash(report)


def test_level0_reports_are_computed_once_per_process(monkeypatch):
    first = [genus2_level0(*signs) for signs in _SIGN_CLASSES]
    table = table1_report()

    def boom(*args, **kwargs):
        raise AssertionError("recomputed a cached report")

    monkeypatch.setattr(loelim, "_variants", boom)
    monkeypatch.setattr(loelim, "eliminate", boom)
    assert all(genus2_level0(*signs) is report
               for signs, report in zip(_SIGN_CLASSES, first))
    assert table1_report() is table


def test_genus2_sign_class_labels():
    assert genus2_level0(1, 1, 1, 1).case_label == "sign class 1"
    assert genus2_level0(-1, -1, -1, -1).case_label == "mirror of sign class 1"
    # magnitudes are irrelevant
    assert genus2_level0(3, -2, -7, 4).case_label == "sign class 7"


def test_genus2_stage_one_structure():
    report = genus2_level0(1, 1, 1, 1)
    assert [v.assignment.text() for v in report.verdicts] == [
        "+++", "+-+", "+--", "++-"]
    first = report.verdicts[0]
    assert first.eliminated and (first.witness, first.witness_sign) == ("r0", SP)
    assert all(not v.eliminated for v in report.verdicts[1:])
    assert [o.members for o in report.orbits] == [(2, 3, 4)]
    assert report.canonical.text() == "+--"


def test_genus2_wing_signs_per_class():
    for index, signs in enumerate(loelim._CASE_ORDER, start=1):
        report = genus2_level0(*signs)
        x, y, z = report.wings
        assert x.sign is _EXPECTED_X[index], index
        assert x.form
        assert y.sign is UK and z.sign is UK
        assert len(report.subcases) == 3


def test_genus2_wing_forms_frozen():
    assert genus2_level0(1, 1, 1, 1).wings[0].form == \
        "(y^(q) x^(-q))^(s-1) y^(q) x^(-q+1) (z^(q) x^(-q))^(s)"
    assert genus2_level0(-1, -1, -1, 1).wings[0].form == \
        "(x^(-q) y^(q))^(s) x^(-q+1) z^(q) (x^(-q) z^(q))^(s-1)"


def test_genus2_subcase_order_tracks_the_known_wing():
    # Y taking X's sign is always the first split.
    neg_case = genus2_level0(1, 1, 1, 1)       # X < 1
    assert [sc.assumed for sc in neg_case.subcases] == [
        (("Y", SN), ("Z", SP)),
        (("Y", SP), ("Z", SN)),
        (("Y", SP), ("Z", SP)),
    ]
    pos_case = genus2_level0(-1, 1, -1, 1)     # X > 1
    assert [sc.assumed for sc in pos_case.subcases] == [
        (("Y", SP), ("Z", SN)),
        (("Y", SN), ("Z", SP)),
        (("Y", SN), ("Z", SN)),
    ]


def test_genus2_closed_classes():
    closures = {
        2: (("r3'", SP), ("r2'", SP), ("r1'", SN)),
        3: (("r3'", SN), ("r2'", SN), ("r1'", SP)),
        6: (("r3' (peeled)", SP), ("r2' (peeled)", SP), ("r1' (peeled)", SN)),
        8: (("r3' (peeled)", SN), ("r2' (peeled)", SN), ("r1' (peeled)", SP)),
    }
    for index, expected in closures.items():
        report = genus2_level0(*loelim._CASE_ORDER[index - 1])
        assert not report.residual(), index
        assert tuple((sc.witness, sc.witness_sign)
                     for sc in report.subcases) == expected, index


def test_genus2_open_classes():
    for index in (1, 4, 5, 7):
        report = genus2_level0(*loelim._CASE_ORDER[index - 1])
        assert report.residual()
        assert len(report.residual()) == 3
        assert all(sc.witness is None for sc in report.subcases)


def test_genus2_derived_pair_words():
    def derived(report):
        return [tuple((d.atom, d.sign, d.via) for d in sc.derived)
                for sc in report.subcases]

    assert derived(genus2_level0(1, 1, 1, 1)) == [
        (("Eyz", SP, "Y"),), (("Eyz", SN, "Z"),), ()]
    assert derived(genus2_level0(-1, -1, -1, 1)) == [
        (("Eyz", SN, "Y"),), (("Eyz", SP, "Z"),), ()]


def test_genus2_mirror_classes_agree():
    # The all-negated parameters present the cover of the mirror knot: an
    # isomorphic group, so the analysis must land in the same place (the
    # folded pair words become their inverses, hence the flipped atom signs).
    for index, signs in enumerate(loelim._CASE_ORDER, start=1):
        report = genus2_level0(*signs)
        mirror = genus2_level0(*(-v for v in signs))
        assert mirror.case_label == f"mirror of sign class {index}"
        assert mirror.wings[0].sign is report.wings[0].sign
        for sa, sb in zip(report.subcases, mirror.subcases):
            assert sa.assumed == sb.assumed
            assert (sa.closed, sa.witness, sa.witness_sign) == \
                (sb.closed, sb.witness, sb.witness_sign)
            assert [(d.atom, d.via) for d in sa.derived] == \
                [(d.atom, d.via) for d in sb.derived]
            assert [sign_invert(d.sign) for d in sa.derived] == \
                [d.sign for d in sb.derived]


def test_genus2_report_text_goldens():
    assert genus2_report_text(genus2_level0(1, 1, 1, 1)) == \
        (GOLDEN / "genus2_class1.txt").read_text()
    assert genus2_report_text(genus2_level0(-1, 1, -1, -1)) == \
        (GOLDEN / "genus2_class6.txt").read_text()


# SHA-256 of genus2_report_text for every sign class of (q, s, t, l): the
# report's full text is pinned, not only the two classes kept as goldens.
_REPORT_DIGESTS = {
    (1, 1, 1, 1):
        "74ccf321bfe9e14cce0df47b3ff582afa519fc1b9e3913f57bd1176fd89831a1",
    (1, 1, 1, -1):
        "6ba4dfd9eec915488abf9640d5add7368051fdeefb88e94f561a04b36df758d5",
    (1, 1, -1, 1):
        "f10716992f7fb2f9531141f0916ffa3a69d4657d69e15d51f47e3ac359f2c14d",
    (1, 1, -1, -1):
        "e2ccec7b441461b906259221623661f12cec1ebdcdf7637b92784ac00ab98ec8",
    (1, -1, 1, 1):
        "965adb9afe8bec3ab502ad50a9e55ebe67e2998d3eca79c2546d78d1d838816e",
    (1, -1, 1, -1):
        "8c1277203d3de0f95c64b1123420669c65d2dedeb7ccd84fc36a51f5414ab178",
    (1, -1, -1, 1):
        "bad04c7276d111d39a3be7f6f10d532f3b8feae2fa30d9bd5516490769fe96cf",
    (1, -1, -1, -1):
        "4dd2fa692699f79a6463768cc3bf7bd818a9a6610baa5b53b2390b72df75d6d9",
    (-1, 1, 1, 1):
        "1e2b7a8e2b123902747120afe2eb428e70e1143713654cbe5da9d510270c2531",
    (-1, 1, 1, -1):
        "f885d9433c4ca3f245ab4f2da5e84400e47757670eb371b560b24bd55e070ba6",
    (-1, 1, -1, 1):
        "71a57926896f38169a301953916e0c08c12f49c2394f700812a247dd4e46c053",
    (-1, 1, -1, -1):
        "8fb20103dce271313d2943de19b5b98dd2657da1864dbf8e3825649eeddecc66",
    (-1, -1, 1, 1):
        "f047afd0829f0485a3b1583469bf8dc25e1ba5d406992e51bccb34708022d89d",
    (-1, -1, 1, -1):
        "0ff0b60db01e132940ef92d9672e6baac657ec03ef52ad22d11484551f69771f",
    (-1, -1, -1, 1):
        "bcb8556f463c963c9bfa8c824d2f036479a059adffefbb035e1f805a931b2172",
    (-1, -1, -1, -1):
        "6e7b2b88e2ff948b739645ec18d069940821c99995231385f0049487d529af4d",
}


def test_genus2_report_text_of_every_sign_class_is_pinned():
    assert len(_REPORT_DIGESTS) == 16
    for signs, digest in _REPORT_DIGESTS.items():
        text = genus2_report_text(genus2_level0(*signs))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, signs


# SHA-256 of the stdout of ``bridgecover lo-elim --family genus2 --signs S
# --format json`` for every sign class S: the JSON report is pinned too.
_JSON_DIGESTS = {
    "+,+,+,+":
        "c3ab5c968a4a56365d0dbe4b120713dd62e18c8d5c4ee626742bb45391e212af",
    "+,+,+,-":
        "999ed6dc065ef7ac17473ea242b220ec152ba97281767f8992beab63a8f7c061",
    "+,+,-,+":
        "c37bbb46ce70c1e625d0a3100d4fbc0b4b7b7fbe63c9338e5d4c0014a7e19e9b",
    "+,+,-,-":
        "27319b09545d3095eb05ac8a38d0dc759696789623383316fcc768ddbb2ee718",
    "+,-,+,+":
        "518df0b5a19c46ff6084563f5cde963b4582a8fd2c398f22447d5e5a2806928e",
    "+,-,+,-":
        "102615ab3b96b9d7b86b254ab75f4b99d3d523d31e6db8f45fc600af61a9ce97",
    "+,-,-,+":
        "38ae132a749dbab2a83fd2f1cf0ce33d005783c5908615b9121f123b36035ece",
    "+,-,-,-":
        "e52127571e2d8196fd9acd87ee8b236eea91ee981d4f396b7df5f839d386364c",
    "-,+,+,+":
        "043c545c4b74e054e409c822c03505aad29445c7ac7118c549923f740d36f9cd",
    "-,+,+,-":
        "377f5c7639899876b20baf3fdba3c9ca408ee5c7704298b21491cb8d4bc03f89",
    "-,+,-,+":
        "6d4bbf594f6816ea8555a6bb03dd9afe4f9891b744c1ebee976ba0de6d235015",
    "-,+,-,-":
        "ad0917de1ae8d4b2c3c71cf5a1cb7b81c2852275c031b78d3c83d8411cc7279a",
    "-,-,+,+":
        "1337969e01e67bb763e719ef4c754f477fd31205f9abe0e3af9acfee044c919d",
    "-,-,+,-":
        "65eaacaf7097a88849d72daae9b31324f22ca60092712674de2a6d94a7cd7c80",
    "-,-,-,+":
        "9436a71f1c94f70d6998e95eb29bcec677dcee03a5b46a55d82048c61358d624",
    "-,-,-,-":
        "042adfcb869a0206f628ab6868f321f060e543cef9821dd8549e909fac175511",
}


def test_genus2_json_report_of_every_sign_class_is_pinned(capsys):
    assert len(_JSON_DIGESTS) == 16
    for signs, digest in _JSON_DIGESTS.items():
        assert cli.main(["lo-elim", "--family", "genus2", "--signs", signs,
                         "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, signs


def test_genus2_report_text_folds_signs_into_atoms():
    text = genus2_report_text(genus2_level0(-1, 1, 1, 1))
    assert "derived y^(-q) z^(q) < 1 (forced by the sign of Y)" in text
    assert "y^q z^-q" not in text
