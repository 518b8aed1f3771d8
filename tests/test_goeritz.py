"""Tests for Goeritz matrices, determinant tables, and identity suites."""
import itertools
import pathlib
import time
from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from bridgecover import goeritz, intlinalg
from bridgecover.goeritz import (
    RESOLUTION_RULES, GoeritzError, GoeritzMatrix, NotTabulatedError,
    UnsupportedRegimeError, build_A_star, build_L_star, det_exact,
    lemma_suite, parse_resolution, rule_residual, table_formula, table_row,
    verify_additivity, verify_substitution_identities,
)
from bridgecover.intlinalg import det_bareiss
from bridgecover.multipoly import MultiPoly
from bridgecover.qacert import (
    CIT_A_MIRROR, CIT_A_SYM, CIT_L_MIRROR, CIT_L_SWAP, IDENTIFICATIONS, LinkId,
    _FAMILY_PARAMS, _identify, expected_det,
)


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckerboardDiagram:
    """White-region/crossing data of a checkerboard-colored diagram.

    Regions are indexed 0..white_region_count-1 with region 0 unbounded;
    crossings are (i, j, sign) triples joining white regions i != j.
    """

    white_region_count: int
    crossings: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        if self.white_region_count < 1:
            raise GoeritzError("need at least one white region")
        for i, j, sign in self.crossings:
            if not (0 <= i < self.white_region_count
                    and 0 <= j < self.white_region_count):
                raise GoeritzError(f"region index out of range in ({i}, {j}, {sign})")
            if i == j:
                raise GoeritzError(f"crossing joins region {i} to itself")
            if sign not in (1, -1):
                raise GoeritzError(f"crossing sign must be +-1, got {sign}")


def goeritz_from_diagram(d: CheckerboardDiagram):
    """Reduced Goeritz matrix: off-diagonal entries are minus the signed
    crossing counts between white regions, diagonals force zero row sums,
    and the row/column of the unbounded region 0 is removed."""
    n = d.white_region_count
    h = [[0] * n for _ in range(n)]
    for i, j, sign in d.crossings:
        h[i][j] -= sign
        h[j][i] -= sign
    for i in range(n):
        h[i][i] = -sum(h[i][j] for j in range(n) if j != i)
    return [[h[i][j] for j in range(1, n)] for i in range(1, n)]


def test_trefoil_diagram():
    d = CheckerboardDiagram(2, ((0, 1, -1), (0, 1, -1), (0, 1, -1)))
    g = goeritz_from_diagram(d)
    assert g == [[-3]]
    assert det_bareiss(g) == -3


def test_unknot_diagram():
    g = goeritz_from_diagram(CheckerboardDiagram(1, ()))
    assert g == []
    assert det_bareiss(g) == 1


def test_hopf_diagram():
    g = goeritz_from_diagram(CheckerboardDiagram(2, ((0, 1, 1), (0, 1, 1))))
    assert abs(det_bareiss(g)) == 2


def test_unreduced_rows_sum_to_zero():
    d = CheckerboardDiagram(4, ((0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1),
                                (1, 3, 1)))
    g = goeritz_from_diagram(d)
    # Reconstruct the full matrix by the zero-row-sum property: the dropped
    # row/column is determined by the reduced block.
    n = 3
    for i in range(n):
        row_sum = sum(g[i])
        col_sum = sum(g[j][i] for j in range(n))
        assert row_sum == col_sum  # symmetric


def test_diagram_validation():
    with pytest.raises(GoeritzError):
        CheckerboardDiagram(0, ())
    with pytest.raises(GoeritzError):
        CheckerboardDiagram(2, ((0, 2, 1),))
    with pytest.raises(GoeritzError):
        CheckerboardDiagram(2, ((1, 1, 1),))
    with pytest.raises(GoeritzError):
        CheckerboardDiagram(2, ((0, 1, 2),))


# ---------------------------------------------------------------------------
# Block families vs tables
# ---------------------------------------------------------------------------

def test_a_star_frozen_values():
    assert abs(det_exact(build_A_star(1, 1, 1))) == 3
    assert abs(det_exact(build_A_star(1, 1, 2))) == 27
    assert abs(det_exact(build_A_star(2, 1, 1))) == 27


def _family_blocks(diag_blocks, bordered=False):
    """Assemble a block-tridiagonal matrix with identity off-diagonal blocks;
    ``bordered`` appends the A border: a ones column against the last block
    row, a ones row against the last block column, corner entry -3."""
    nb = len(diag_blocks)
    size = 3 * nb + bordered
    m = [[0] * size for _ in range(size)]
    for b, block in enumerate(diag_blocks):
        for i in range(3):
            for j in range(3):
                m[3 * b + i][3 * b + j] = block[i][j]
        if b + 1 < nb:
            for i in range(3):
                m[3 * b + i][3 * (b + 1) + i] = 1
                m[3 * (b + 1) + i][3 * b + i] = 1
    if bordered:
        for i in range(size - 4, size - 1):
            m[i][size - 1] = m[size - 1][i] = 1
        m[size - 1][size - 1] = -3
    return m


def _dense(m: GoeritzMatrix):
    """The dense entries of a star matrix, read off its layout."""
    def block(alpha, beta):
        return [[alpha * (i == j) + beta for j in range(3)] for i in range(3)]
    diagonal = []
    for k, ab in itertools.zip_longest(m.runs, m.blocks):
        diagonal += [block(-2, 0)] * k + ([block(*ab)] if ab else [])
    return _family_blocks(diagonal, m.bordered)


def _star_agrees(family, build, **params):
    """The scalar continuants, Bareiss on the dense layout and the star row
    of Table 3 (A) or Table 5 (L) agree."""
    m = build(**params)
    got = det_exact(m)
    assert det_bareiss(_dense(m)) == got, (family, params)
    want = table_formula(family, "*,*,*", params)
    assert abs(got) == want, (family, params, got, want)


def test_a_star_matches_table_grid():
    for q, s, t in itertools.product(range(1, 5), repeat=3):
        _star_agrees("A", build_A_star, q=q, s=s, t=t)
    _star_agrees("A", build_A_star, q=20, s=3, t=20)


def test_l_star_frozen_values():
    assert abs(det_exact(build_L_star(1, 1, 1, 1))) == 1
    assert abs(det_exact(build_L_star(1, 1, 1, 2))) == 16
    assert abs(det_exact(build_L_star(1, 1, 2, 1))) == 49


def test_l_star_matches_table_grid():
    for q, s, t, l in itertools.product(range(1, 4), repeat=4):
        _star_agrees("L", build_L_star, q=q, s=s, t=t, l=l)
    _star_agrees("L", build_L_star, q=20, s=3, t=20, l=2)


def test_matrix_dimensions():
    for m, size in ((build_A_star(2, 1, 3), 3 * (2 + 3 - 1) + 1),
                    (build_L_star(2, 1, 3, 2), 3 * (2 + 3))):
        assert m.size == size
        entries = _dense(m)
        assert len(entries) == size
        assert all(len(row) == size for row in entries)


def test_star_determinants_at_large_parameters():
    """Star matrices of dimension about 6 million: runs of -2I cost O(1)
    whatever their length."""
    for build, family, params in (
            (build_L_star, "L", {"q": 10 ** 6, "s": 7, "t": 10 ** 6, "l": 5}),
            (build_A_star, "A", {"q": 10 ** 6, "s": 3, "t": 10 ** 6})):
        start = time.perf_counter()
        got = build(**params).det()
        assert time.perf_counter() - start < 0.1, family
        assert abs(got) == table_formula(family, "*,*,*", params), family


def test_matrix_without_blocks_uses_bareiss(monkeypatch):
    """The star path never calls Bareiss; the matrix without its block
    layout, as dense entries, goes through Bareiss here and agrees."""
    star = build_L_star(2, 1, 3, 2)
    dense = _dense(star)

    def refuse(m):
        raise AssertionError("the star path called Bareiss")

    with monkeypatch.context() as patch:
        for module in (goeritz, intlinalg):
            patch.setattr(module, "det_bareiss", refuse)
        got = det_exact(star)
        assert star.det() == got
    assert len(dense) == 15
    assert det_bareiss(dense) == got


_runs = st.integers(0, 4)
_blocks = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_runs, _blocks), min_size=1, max_size=4), _runs)
@example([(0, (0, 0))], 0)
@example([(0, (3, -1)), (2, (-2, 0))], 0)     # singular, then a -2I block
@example([(3, (1, -1)), (0, (0, 1))], 4)       # zero pivots inside runs
def test_star_continuant_matches_bareiss(pairs, last_run):
    """Random alpha I + beta J blocks, zero and singular ones included,
    between runs of -2I of any length, with and without the A border."""
    runs = [k for k, _ in pairs] + [last_run]
    blocks = [ab for _, ab in pairs]
    for bordered in (False, True):
        m = GoeritzMatrix(runs, blocks, bordered, "test")
        assert m.det() == det_bareiss(_dense(m)), bordered


def test_star_continuant_gives_the_star_rows_symbolically():
    """Over polynomials, with run lengths q-1 and t-1, the complement
    continuant c0 gives the star rows: c0^2 is Table 5's (L) and, at l = 1,
    Table 4's (B); 3 c0^2 is Table 3's (A) and, at t = 1, Table 2's.  The
    sign of each run squares away."""
    q, s, t, l = (MultiPoly.var(v) for v in "qstl")

    def c0_squared(runs, blocks):
        c0 = goeritz._continuant(runs, [a for a, _ in blocks])[0]
        return c0 * c0

    l_rows = c0_squared(*goeritz._l_layout(q, s, t, l))
    assert l_rows == table_row("L", "*,*,*").poly
    assert (l_rows.substitute({"l": MultiPoly.const(1)})
            == table_row("B", "*,*,*").poly)
    a_rows = 3 * c0_squared(*goeritz._a_layout(q, s, t))
    assert a_rows == table_row("A", "*,*,*").poly
    assert (a_rows.substitute({"t": MultiPoly.const(1)})
            == table_row("A(t=1)", "*,*,*").poly)


def test_unsupported_regimes_raise():
    for build, params in ((build_A_star, (0, 1, 1)), (build_A_star, (1, -1, 1)),
                          (build_A_star, (1, 1, 0)),
                          (build_L_star, (1, 1, 1, 0)),
                          (build_L_star, (0, 1, 1, 1)),
                          (build_L_star, (1, -2, 1, 1))):
        with pytest.raises(UnsupportedRegimeError):
            build(*params)


def test_non_integer_parameters_raise():
    """Floats and bools are refused, not rounded or read as 0 and 1."""
    for build, params in ((build_A_star, (2.5, 1, 1)),
                          (build_A_star, (1, 2.0, 1)),
                          (build_A_star, (1, 1, True)),
                          (build_L_star, (1, 1, 1, 1.0)),
                          (build_L_star, (True, 1, 1, 1)),
                          (build_L_star, (1, 1.5, 2, 1))):
        with pytest.raises(UnsupportedRegimeError):
            build(*params)


def _to_csv(entries) -> str:
    return "\n".join(",".join(str(x) for x in row) for row in entries) + "\n"


def test_csv_export():
    assert _to_csv([[1, 2], [3, 4]]) == "1,2\n3,4\n"


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_table_formula_frozen_examples():
    assert table_formula("A", "0,0,*", {"q": 1, "s": 1, "t": 1}) == 4
    assert table_formula("L", "0,0,*", {"q": 1, "s": 1, "t": 1, "l": 1}) == 3
    assert table_formula("A", "inf,inf,inf", {"q": 1, "s": 1, "t": 2}) == \
        3 * (1 - 1 - 3 - 2 + 6) ** 2
    assert table_formula("L", "*,*,*", {"q": 1, "s": 1, "t": 1, "l": 1}) == 1
    assert table_formula("B", "*,*,*", {"q": 1, "s": 1, "t": 1}) == 1   # T(3,5)
    assert table_formula("B", "0,*,*", {"q": 1, "s": 1, "t": 1}) == 2   # P(2,-3,-4)
    assert table_formula("A", "*,*,*", {"q": 1, "s": 1, "t": 1}) == 3   # T(3,4)
    assert table_formula("A", "0,*,*", {"q": 1, "s": 1, "t": 1}) == 4   # P(2,-3,-2)


def test_table_row_metadata():
    row = table_row("A", "0,inf,0")
    assert row.identified_via == "Lemma 5.3(1)"
    assert row.poly == table_row("A", "0,0,*").poly
    assert table_row("L", "*,*,*").validity == "l > 1"
    assert table_row("A", "*,*,*").source == "Table 3"


def test_table_b_fallback_to_l():
    row = table_row("B", "inf,inf,inf")
    assert row.source == "Table 5 at l=1"
    direct = table_row("L", "inf,inf,inf").poly.substitute({"l": MultiPoly.const(1)})
    assert row.poly == direct


def test_not_tabulated():
    with pytest.raises(NotTabulatedError):
        table_row("A", "*,0,*")
    with pytest.raises(NotTabulatedError):
        table_row("X", "*,*,*")


def test_resolution_parsing():
    assert parse_resolution("0 , inf , *") == "0,inf,*"
    assert parse_resolution("*,*,*") == "*,*,*"
    for bad in ("0,inf", "0,inf,*,*", "0,banana,*", "0,INF,*", "", "0;inf;*"):
        with pytest.raises(GoeritzError):
            parse_resolution(bad)


def test_table_lookup_canonicalizes_other_text():
    assert table_row("A", " 0, inf ,* ") == table_row("A", "0,inf,*")
    assert table_row("B", "inf , inf,inf").resolution == "inf,inf,inf"
    assert (table_formula("L", "* ,*,*", {"q": 2, "s": 1, "t": 1, "l": 2})
            == table_formula("L", "*,*,*", {"q": 2, "s": 1, "t": 1, "l": 2}))
    with pytest.raises(GoeritzError):
        table_row("A", "0,banana,*")


def test_identified_pairs_have_distinct_rows():
    """(0,inf,*) and (inf,0,*) share a determinant but are separate rows."""
    a = table_row("A", "0,inf,*")
    b = table_row("A", "inf,0,*")
    assert a.poly == b.poly
    assert a.resolution != b.resolution
    assert a.identified_via is None and b.identified_via is None


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------

def test_additivity_a_symbolic():
    report = verify_additivity("A")
    assert len(report.checks) == 6
    assert report.all_ok, report.to_text()


def test_additivity_l_symbolic():
    report = verify_additivity("L")
    assert len(report.checks) == 6
    assert report.all_ok, report.to_text()


def test_additivity_with_numeric_grid():
    grid = [{"q": q, "s": s, "t": t, "l": l}
            for q, s, t, l in itertools.product((1, 2), repeat=4)]
    report = verify_additivity("L", grid)
    assert report.all_ok
    assert len(report.checks) == 6  # numeric failures would append extra checks


def test_additivity_grid_evaluates_each_row_once_and_lists_failures_in_order(
        monkeypatch):
    """One ``table_formula`` call per distinct row and point; a failed spot
    check still follows its identity, in grid order."""
    real, calls = goeritz.table_formula, []

    def off_at_q1(family, resolution, point):
        calls.append(resolution)
        return real(family, resolution, point) + (
            resolution == "0,inf,inf" and point["q"] == 1)

    monkeypatch.setattr(goeritz, "table_formula", off_at_q1)
    grid = [{"q": q, "s": s, "t": 1, "l": 1}
            for q, s in itertools.product((1, 2), repeat=2)]
    report = verify_additivity("L", grid)
    assert len(calls) == 10 * len(grid)
    at = [f" at {grid[0]}", f" at {grid[1]}"]
    assert [c.name for c in report.checks] == [
        "Lemma 5.12(1)", "Lemma 5.12(2)", "Lemma 5.12(3)"] + [
        f"Lemma 5.12{tag}{point}" for tag in ("(4)", "(5)", "(6)")
        for point in ["", *at]]
    assert all(c.residual == -1 for c in report.checks if " at " in c.name)


def test_additivity_unknown_family():
    with pytest.raises(NotTabulatedError):
        verify_additivity("B")


def test_substitution_identities():
    report = verify_substitution_identities()
    assert report.all_ok, report.to_text()
    names = [c.name for c in report.checks]
    for lemma in ("Lemma 5.3(3)", "Lemma 5.3(4)", "Lemma 5.3(5)",
                  "Lemma 5.11(3)", "Lemma 5.11(4)", "Lemma 5.11(5)"):
        assert lemma in names
    assert sum(1 for n in names if n == "Table2=Table3@t=1") == 5
    assert sum(1 for n in names if n == "Table4=Table5@l=1") == 5


def test_every_resolution_rule_is_a_polynomial_identity():
    """row(source) - row(target) after the move vanishes for all 17 rules,
    the three Lemma 5.8(1) rules from B to A included."""
    assert len(RESOLUTION_RULES) == 17
    assert sum(rule.target_family == "A" for rule in RESOLUTION_RULES) == 3
    for rule in RESOLUTION_RULES:
        assert rule.move in ("", "t-1", "l-1", "t=1"), rule
        assert rule_residual(rule).is_zero(), rule


def test_lemma_suites_check_items_one_to_five():
    for family, lemma in (("A", "Lemma 5.3"), ("L", "Lemma 5.11")):
        report = lemma_suite(family)
        assert [c.name for c in report.checks] == [
            f"{lemma}({item})" for item in range(1, 6)]
        assert report.all_ok, report.to_text()
    with pytest.raises(NotTabulatedError):
        lemma_suite("B")


def test_identifications_follow_the_rule_table():
    """The certificate whitelist sends each rule's source links (parameters
    1..4) to the target the rule names, moving a parameter only where it is
    at least 2, and both sides share a determinant."""
    for rule in RESOLUTION_RULES:
        names = _FAMILY_PARAMS[rule.family]
        target_family = rule.target_family or rule.family
        for values in itertools.product(range(1, 5), repeat=len(names)):
            link = LinkId(rule.family, tuple(zip(names, values)), rule.source)
            p = dict(zip(names, values))
            want = None
            if not rule.move or p[rule.move[0]] >= 2:
                if rule.move:
                    var = rule.move[0]
                    p[var] = p[var] - 1 if rule.move == f"{var}-1" else 1
                want = LinkId(target_family, tuple(
                    (k, p[k]) for k in _FAMILY_PARAMS[target_family]),
                    rule.target)
            assert _identify(link, rule.citation) == want, (rule, link)
            if want is not None:
                assert expected_det(link) == expected_det(want), (rule, link)


def test_resolution_lemma_citations_are_written_once():
    """Each resolution lemma's citation occurs in one module of src/, the
    rule table; the named-link items stay with the certificates."""
    modules = sorted(pathlib.Path(goeritz.__file__).parent.glob("*.py"))
    citations = ([f"Lemma 5.3({i})" for i in range(1, 6)]
                 + [f"Lemma 5.11({i})" for i in range(1, 6)]
                 + ["Lemma 5.8(1)"])
    for citation in citations:
        holders = [m.name for m in modules
                   if citation in m.read_text(encoding="utf-8")]
        assert holders == ["goeritz.py"], (citation, holders)


def test_identity_report_text():
    text = verify_additivity("A").to_text()
    assert "Lemma 5.4(1)" in text
    assert "PASS" in text and "FAIL" not in text


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------

def _identified(citation, link):
    """Image of ``link`` under the certificate verifier's rule ``citation``."""
    images = [rule.apply(link) for rule in IDENTIFICATIONS
              if rule.citation == citation]
    images = [image for image in images if image is not None]
    assert len(images) == 1, (citation, link)
    return images[0]


def _table_det(link):
    return table_formula(link.family, link.resolution, link.param_map())


def test_star_rows_mirror_invariant():
    for q, s, t, l in itertools.product((-2, 1, 3), repeat=4):
        for citation, link in ((CIT_L_MIRROR, LinkId.L(q, s, t, l)),
                               (CIT_A_MIRROR, LinkId.A(q, s, t))):
            image = _identified(citation, link)
            assert image.param_map() == {k: -v for k, v in link.params}
            assert _table_det(image) == _table_det(link)


def test_l_star_double_swap_invariant():
    for q, s, t, l in itertools.product((-2, 1, 2, 3), repeat=4):
        link = LinkId.L(q, s, t, l)
        image = _identified(CIT_L_SWAP, link)
        assert image == LinkId.L(l, t, s, q)
        assert _table_det(image) == _table_det(link)


def test_a_star_qt_swap_invariant():
    """q and t are symmetric for the link A, hence for the star row; the
    resolved rows live on the three t-twist regions and are not symmetric."""
    for q, s, t in itertools.product((1, 2, 3), repeat=3):
        link = LinkId.A(q, s, t)
        image = _identified(CIT_A_SYM, link)
        assert image == LinkId.A(t, s, q)
        assert _table_det(image) == _table_det(link), link


def test_a_resolved_rows_not_qt_symmetric():
    p = {"q": 1, "s": 2, "t": 3}
    swapped = {"q": 3, "s": 2, "t": 1}
    for res in ("0,*,*", "inf,*,*", "inf,inf,*"):
        assert table_formula("A", res, p) != table_formula("A", res, swapped), res
        link = LinkId.A(1, 2, 3, res)
        assert all(rule.apply(link) is None for rule in IDENTIFICATIONS
                   if rule.citation == CIT_A_SYM), res
