"""Goeritz matrices and closed-form link determinants for two twist-region
block families.

The matrices here are the star matrices of the block families
A(t; *, *, *) and L(l; *, *, *): block-tridiagonal over 3x3 blocks of the
form alpha I + beta J (J the all-ones matrix) with identity blocks off the
diagonal; A adds a rank-one border row/column with corner -3.

Alongside the matrices, the determinant tables for all tabulated resolutions
of A, B (= L at l = 1) and L are stored as exact polynomials in (q, s, t, l),
with the additivity and substitution identity suites checked symbolically.
A resolution is plain text in the canonical form ``parse_resolution`` gives
it: three comma-separated slots, each ``*``, ``0`` or ``inf``.

The resolution lemmas of Section 5 (Lemma 5.3 and 5.11, items (1)-(5), and
Lemma 5.8(1)) are one table, ``RESOLUTION_RULES``: a source resolution has
the determinant of a target, possibly after a parameter move.  It gives the
identified table rows, ``lemma_suite`` and the ``qacert`` whitelist.

Layout note: the block displays do not pin down the run lengths; the frozen
choice here is

    A: (t-1) blocks of -2I, then S, then (q-1) blocks of -2I, then the border
       (dimension 3(q+t-1) + 1);
    L: (q-1) blocks of -2I, then P, then (t-1) blocks of -2I, then Q
       (dimension 3(q+t)).

This choice reproduces the tabulated star determinants exactly over the full
acceptance grids, which is the construction's contract.

A star matrix is kept as its layout, and its determinant is a product of
two scalar continuants with each run of -2I in closed form, O(1) whatever
its length (see ``GoeritzMatrix.det``); ``det_exact`` takes star matrices
only, so no dense elimination runs here.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

# det_bareiss is unused here; perfbench's tracing test asserts goeritz.det_bareiss.
from .intlinalg import det_bareiss  # noqa: F401
from .multipoly import MultiPoly


class GoeritzError(ValueError):
    """Invalid diagram data or unsupported parameter regime."""


class UnsupportedRegimeError(GoeritzError):
    """Matrix construction requested outside the positive-parameter family."""


class NotTabulatedError(KeyError):
    """No determinant formula is tabulated for this (family, resolution)."""


class GoeritzMatrix:
    """A star-family matrix with a record of where it came from.

    The diagonal reads ``runs[0]`` blocks of -2I, ``blocks[0]``,
    ``runs[1]`` blocks of -2I, ``blocks[1]``, ..., ``runs[-1]`` blocks of
    -2I, with one run more than blocks; a block (alpha, beta) stands for
    alpha I + beta J.  ``bordered`` adds the A border: ones against the last
    block row and column, corner -3.
    """

    def __init__(self, runs: Sequence[int], blocks: Sequence[Tuple[int, int]],
                 bordered: bool, provenance: str):
        self.runs, self.blocks = tuple(runs), tuple(blocks)
        self.bordered = bordered
        self.provenance = provenance

    @property
    def size(self) -> int:
        return 3 * (sum(self.runs) + len(self.blocks)) + self.bordered

    def det(self) -> int:
        """Signed determinant, exact.

        The unbordered matrix T has det T = det P_n for the block continuant
        P_k = B_k P_(k-1) - P_(k-2), P_0 = I, P_-1 = 0 (its k-th Schur
        complement is P_k P_(k-1)^-1).  Each P_k is a combination of I and
        J, so it acts as c1 on the ones vector and as c0 on its complement,
        the scalar continuants of the values alpha + 3 beta and alpha:
        det T = c1 c0^2.  The A border (ones u on the last block, corner -3)
        gives -3 det T - u^T adj(T) u = -3 c0^2 (c1 + c1'), since the last
        block of T^-1 is P_(n-1) P_n^-1; c1' is c1 one step earlier.  The
        sign (-1)^(sum of runs) that ``_continuant`` leaves out enters once.
        Nothing is divided, so singular blocks need no special case.
        """
        ones, ones_prev = _continuant(self.runs,
                                      [a + 3 * b for a, b in self.blocks])
        rest = _continuant(self.runs, [a for a, _ in self.blocks])[0]
        det = (-3 * (ones + ones_prev) if self.bordered else ones) * rest * rest
        return -det if sum(self.runs) % 2 else det

    def __repr__(self):
        return f"GoeritzMatrix({self.size}x{self.size}, {self.provenance})"


def _continuant(runs, values):
    """(c_n, c_(n-1)) of the scalar continuant c_k = v_k c_(k-1) - c_(k-2),
    c_0 = 1, c_-1 = 0, over ``runs[0]`` values -2, ``values[0]``,
    ``runs[1]`` values -2, ..., up to the sign (-1)^(sum of runs).

    A run of k values -2 is the transfer matrix M = [[-2, -1], [1, 0]] to
    the k-th power, and (M + I)^2 = 0 gives M^k = (-1)^k (I - k (M + I)).
    The sign is left out, so the same code runs over ``MultiPoly`` with a
    symbolic run length.
    """
    cur, prev = 1, 0
    for k, value in itertools.zip_longest(runs, values):
        cur, prev = cur + k * (cur + prev), prev - k * (cur + prev)
        if value is not None:
            cur, prev = value * cur - prev, cur
    return cur, prev


def det_exact(m: GoeritzMatrix) -> int:
    """Signed determinant (exact) of a star matrix; the link determinant is
    its absolute value."""
    return m.det()


# ---------------------------------------------------------------------------
# Block families
# ---------------------------------------------------------------------------

def _a_layout(q, s, t):
    """(runs, blocks) of A(t; *, *, *); S = (2s-2) I - s (J - I)."""
    return (t - 1, q - 1), ((3 * s - 2, -s),)


def _l_layout(q, s, t, l):
    """(runs, blocks) of L(l; *, *, *); Q = (2l-1) I - l (J - I)."""
    return (q - 1, t - 1, 0), ((3 * s - 2, -s), (3 * l - 1, -l))


def _require_positive(family: str, params: Mapping[str, int]) -> None:
    if any(type(v) is not int or v < 1 for v in params.values()):
        raise UnsupportedRegimeError(
            f"{family}-family matrices need integer parameters >= 1, got {params}")


def build_A_star(q: int, s: int, t: int) -> GoeritzMatrix:
    """Goeritz matrix of A(t; *, *, *) for positive integer parameters, laid
    out as the module docstring says.  Other sign regimes are handled by
    mirroring at the table level, not by building matrices."""
    _require_positive("A", {"q": q, "s": s, "t": t})
    return GoeritzMatrix(*_a_layout(q, s, t), True,
                         f"A(t; *, *, *) q={q} s={s} t={t}")


def build_L_star(q: int, s: int, t: int, l: int) -> GoeritzMatrix:
    """Goeritz matrix of L(l; *, *, *) for positive integer parameters, laid
    out as the module docstring says (P = S, no border)."""
    _require_positive("L", {"q": q, "s": s, "t": t, "l": l})
    return GoeritzMatrix(*_l_layout(q, s, t, l), False,
                         f"L(l; *, *, *) q={q} s={s} t={t} l={l}")


# ---------------------------------------------------------------------------
# Determinant tables
# ---------------------------------------------------------------------------

_CANONICAL_RESOLUTIONS = frozenset(
    ",".join(slots) for slots in itertools.product(("*", "0", "inf"), repeat=3))


def parse_resolution(text: str) -> str:
    """The canonical text of a resolution: three comma-separated slots (left,
    middle, right twist regions), each ``*``, ``0`` or ``inf``, no spaces."""
    if text in _CANONICAL_RESOLUTIONS:
        return text
    slots = [part.strip() for part in text.split(",")]
    if len(slots) != 3 or not set(slots) <= {"*", "0", "inf"}:
        raise GoeritzError(
            f"a resolution is three slots from *, 0, inf, got {text!r}")
    return ",".join(slots)


_Q = MultiPoly.var("q")
_S = MultiPoly.var("s")
_T = MultiPoly.var("t")
_L = MultiPoly.var("l")

# Recurring factors.
_DA = 3 * _Q * _S * _T - _Q - _T                      # A-family discriminant
_FB = 1 - 3 * _Q - 3 * _Q * _S - 3 * _T + 9 * _Q * _S * _T
_FL = 1 - 3 * _Q * _L - 3 * _Q * _S - 3 * _L * _T + 9 * _L * _Q * _S * _T
_GA = 1 - _Q - 3 * _Q * _S - _T + 3 * _Q * _S * _T    # = A-star factor at t-1
_GL = (1 + 3 * _Q - 3 * _L * _Q - 3 * _Q * _S + 3 * _T - 3 * _L * _T
       - 9 * _Q * _S * _T + 9 * _L * _Q * _S * _T)    # = L-star factor at l-1
_HL = (1 + _Q - 3 * _L * _Q - 3 * _Q * _S + _T - 3 * _L * _T
       - 3 * _Q * _S * _T + 9 * _L * _Q * _S * _T)


@dataclass(frozen=True)
class TableRow:
    family: str
    resolution: str
    poly: MultiPoly
    source: str
    validity: str
    identified_via: Optional[str] = None


@dataclass(frozen=True)
class ResolutionRule:
    """det family(source) = det target_family(target) after ``move``: none,
    ``t-1``/``l-1`` (one lower) or ``t=1``.  A link identification moves a
    parameter only where it is at least 2.  ``target_family`` is given only
    where it differs from ``family``."""
    citation: str
    family: str
    source: str
    target: str
    move: str = ""
    target_family: Optional[str] = None


# One entry per (citation, family, source), sources in statement order.
RESOLUTION_RULES: Tuple[ResolutionRule, ...] = tuple(
    ResolutionRule(*entry) for entry in (
        ("Lemma 5.3(1)", "A", "inf,0,0", "0,0,*"),
        ("Lemma 5.3(1)", "A", "0,inf,0", "0,0,*"),
        ("Lemma 5.3(2)", "A", "inf,0,inf", "0,inf,inf"),
        ("Lemma 5.3(2)", "A", "inf,inf,0", "0,inf,inf"),
        ("Lemma 5.3(3)", "A", "inf,inf,inf", "*,*,*", "t-1"),
        ("Lemma 5.3(4)", "A", "0,inf,inf", "0,*,*", "t-1"),
        ("Lemma 5.3(5)", "A", "0,0,*", "0,0,*", "t=1"),
        ("Lemma 5.11(1)", "L", "inf,0,0", "0,0,*"),
        ("Lemma 5.11(1)", "L", "0,inf,0", "0,0,*"),
        ("Lemma 5.11(2)", "L", "inf,0,inf", "0,inf,inf"),
        ("Lemma 5.11(2)", "L", "inf,inf,0", "0,inf,inf"),
        ("Lemma 5.11(3)", "L", "inf,inf,inf", "*,*,*", "l-1"),
        ("Lemma 5.11(4)", "L", "0,inf,inf", "0,*,*", "l-1"),
        ("Lemma 5.11(5)", "L", "0,0,*", "0,0,*", "l-1"),
        ("Lemma 5.8(1)", "B", "0,0,*", "*,*,*", "", "A"),
        ("Lemma 5.8(1)", "B", "inf,*,*", "inf,inf,*", "", "A"),
        ("Lemma 5.8(1)", "B", "0,inf,*", "inf,*,*", "", "A"),
    ))


def _rows(family: str, source: str, validity: str,
          data: Dict[str, MultiPoly]) -> Dict[str, TableRow]:
    """The tabulated rows, and a row for each resolution a rule without a
    move identifies with one of them in the same family."""
    table = {res: TableRow(family, res, poly, source, validity)
             for res, poly in data.items()}
    for rule in RESOLUTION_RULES:
        if rule.family == family and not rule.move and not rule.target_family:
            table[rule.source] = replace(table[rule.target],
                                         resolution=rule.source,
                                         identified_via=rule.citation)
    return table


# Table 2: A at t = 1, in (q, s).
_TABLE2 = _rows("A(t=1)", "Table 2", "s > 1", {
    "*,*,*":   3 * (3 * _Q * _S - _Q - 1) ** 2,
    "0,*,*":   2 * (3 * _Q * _S - _Q - 1) * (3 * _Q * _S - 1),
    "inf,*,*": (3 * _Q * _S - _Q - 1) * (3 * _Q * _S - 3 * _Q - 1),
    "0,inf,*": (3 * _Q * _S - 1) * (3 * _Q * _S - 2 * _Q - 1),
    "0,0,*":   (3 * _Q * _S - 1) ** 2,
})

# Table 3: A(t), in (q, s, t).
_TABLE3 = _rows("A", "Table 3", "t > 1", {
    "*,*,*":     3 * _DA ** 2,
    "0,*,*":     2 * _DA * (3 * _Q * _S - 1),
    "inf,*,*":   _DA * (2 - 3 * _Q - 6 * _Q * _S - 3 * _T + 9 * _Q * _S * _T),
    "0,inf,*":   (3 * _Q * _S - 1) * (1 - 2 * _Q - 3 * _Q * _S - 2 * _T + 6 * _Q * _S * _T),
    "inf,0,*":   (3 * _Q * _S - 1) * (1 - 2 * _Q - 3 * _Q * _S - 2 * _T + 6 * _Q * _S * _T),
    "0,0,*":     (3 * _Q * _S - 1) ** 2,
    "inf,inf,*": _GA * _FB,
    "inf,inf,inf": 3 * _GA ** 2,
    "0,inf,inf": 2 * (3 * _Q * _S - 1) * _GA,
})

# Table 4: B = L(l=1), in (q, s, t).
_TABLE4 = _rows("B", "Table 4", "t > 1", {
    "*,*,*":   _FB ** 2,
    "0,*,*":   2 * _DA * _FB,
    "inf,*,*": _FB * _GA,
    "0,inf,*": _DA * (2 - 3 * _Q - 3 * _T - 6 * _Q * _S + 9 * _Q * _S * _T),
    "0,0,*":   3 * _DA ** 2,
})

# Table 5: L(l), in (q, s, t, l).
_TABLE5 = _rows("L", "Table 5", "l > 1", {
    "*,*,*":     _FL ** 2,
    "0,*,*":     2 * _DA * _FL,
    "inf,*,*":   _FL * (1 + 2 * _Q - 3 * _L * _Q - 3 * _Q * _S + 2 * _T
                        - 3 * _L * _T - 6 * _Q * _S * _T + 9 * _L * _Q * _S * _T),
    "0,inf,*":   _DA * (2 + 3 * _Q - 6 * _L * _Q - 6 * _Q * _S + 3 * _T
                        - 6 * _L * _T - 9 * _Q * _S * _T + 18 * _L * _Q * _S * _T),
    "inf,0,*":   _DA * (2 + 3 * _Q - 6 * _L * _Q - 6 * _Q * _S + 3 * _T
                        - 6 * _L * _T - 9 * _Q * _S * _T + 18 * _L * _Q * _S * _T),
    "0,0,*":     3 * _DA ** 2,
    "inf,inf,*": _GL * _HL,
    "inf,inf,inf": _GL ** 2,
    "0,inf,inf": 2 * _DA * _GL,
})

_TABLES: Dict[str, Dict[str, TableRow]] = {
    "A": _TABLE3,
    "A(t=1)": _TABLE2,
    # B rows missing from Table 4 are Table 5's at l = 1
    "B": {**{res: replace(row, family="B", source="Table 5 at l=1",
                          poly=row.poly.substitute({"l": MultiPoly.const(1)}))
             for res, row in _TABLE5.items() if res not in _TABLE4},
          **_TABLE4},
    "L": _TABLE5,
}


def table_row(family: str, resolution: str) -> TableRow:
    """The tabulated (or link-identified) determinant row, as a polynomial.

    Canonical resolution text is looked up as it is; other text is
    canonicalized first.  B rows missing from Table 4 are Table 5's at
    l = 1.
    """
    if family not in _TABLES:
        raise NotTabulatedError(f"unknown family {family!r}")
    row = _TABLES[family].get(resolution)
    if row is None:
        resolution = parse_resolution(resolution)
        row = _TABLES[family].get(resolution)
    if row is None:
        raise NotTabulatedError(
            f"no tabulated determinant for {family}({resolution})")
    return row


def table_formula(family: str, resolution: str,
                  params: Mapping[str, int]) -> int:
    """Exact evaluation of the tabulated determinant formula."""
    return table_row(family, resolution).poly.evaluate(params)


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------

@dataclass
class IdentityCheck:
    name: str
    statement: str
    residual: MultiPoly

    @property
    def ok(self) -> bool:
        return self.residual.is_zero()


@dataclass
class IdentityReport:
    checks: List[IdentityCheck]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.ok else f"FAIL residual {c.residual}"
            lines.append(f"{c.name}: {c.statement} ... {status}")
        return "\n".join(lines) + "\n"


_ADDITIVITY = [
    ("(1)", "*,*,*", "0,*,*", "inf,*,*"),
    ("(2)", "0,*,*", "0,inf,*", "0,0,*"),
    ("(3)", "inf,*,*", "inf,0,*", "inf,inf,*"),
    ("(4)", "0,inf,*", "0,inf,0", "0,inf,inf"),
    ("(5)", "inf,0,*", "0,inf,0", "0,inf,inf"),
    ("(6)", "inf,inf,*", "0,inf,inf", "inf,inf,inf"),
]


def verify_additivity(family: str,
                      grid: Optional[Sequence[Mapping[str, int]]] = None) -> IdentityReport:
    """The six skein-additivity identities det(star) = det(0) + det(inf),
    as exact polynomial identities (Lemma 5.4 for A, Lemma 5.12 for L).

    Resolutions (0,inf,0) enter through their link identifications (Lemma
    5.3(1) / 5.11(1)).  An optional grid of parameter points adds numeric
    spot checks of the same identities.
    """
    if family not in ("A", "L"):
        raise NotTabulatedError(f"additivity suite defined for A and L, not {family!r}")
    lemma = "Lemma 5.4" if family == "A" else "Lemma 5.12"
    # each distinct row is evaluated once per point; the failures are
    # still listed identity by identity
    grid = grid or ()
    rows = dict.fromkeys(row for _, *resolutions in _ADDITIVITY
                         for row in resolutions)
    at = [{row: table_formula(family, row, point) for row in rows}
          for point in grid]
    checks = []
    for tag, whole, zero, inf in _ADDITIVITY:
        residual = (table_row(family, whole).poly
                    - table_row(family, zero).poly
                    - table_row(family, inf).poly)
        statement = f"det {family}({whole}) = det {family}({zero}) + det {family}({inf})"
        checks.append(IdentityCheck(f"{lemma}{tag}", statement, residual))
        for point, value in zip(grid, at):
            lhs, rhs = value[whole], value[zero] + value[inf]
            if lhs != rhs:
                checks.append(IdentityCheck(
                    f"{lemma}{tag} at {dict(point)}", statement,
                    MultiPoly.const(lhs - rhs)))
    return IdentityReport(checks)


def rule_residual(rule: ResolutionRule) -> MultiPoly:
    """row(source) - row(target) after the rule's move: zero exactly when its
    determinant identity holds for all parameters."""
    target = table_row(rule.target_family or rule.family, rule.target).poly
    if rule.move:
        var = rule.move[0]
        target = target.substitute({var: MultiPoly.var(var) - 1
                                    if rule.move.endswith("-1")
                                    else MultiPoly.const(1)})
    return table_row(rule.family, rule.source).poly - target


def _lemma_item(rules: Sequence[ResolutionRule]) -> IdentityCheck:
    """One item of Lemma 5.3 or 5.11: the rules of one citation, which share
    a target in their own family."""
    first = rules[0]
    if first.source == first.target:
        statement = (f"det {first.family}({first.source}) does not involve "
                     f"{first.move[0]}")
    else:
        sides = [f"det {rule.family}({rule.source})" for rule in rules]
        sides.append(f"det {first.family}({first.target})")
        statement = " = ".join(sides) + (f" at {first.move}" if first.move else "")
    residuals = [rule_residual(rule) for rule in rules]
    return IdentityCheck(first.citation, statement, next(
        (r for r in residuals if not r.is_zero()), residuals[0]))


def lemma_suite(family: str) -> IdentityReport:
    """Items (1)-(5) of Lemma 5.3 (family A) or Lemma 5.11 (family L), each
    checked as a polynomial identity."""
    if family not in ("A", "L"):
        raise NotTabulatedError(f"lemma suite defined for A and L, not {family!r}")
    items: Dict[str, List[ResolutionRule]] = {}
    for rule in RESOLUTION_RULES:
        if rule.family == family:
            items.setdefault(rule.citation, []).append(rule)
    return IdentityReport([_lemma_item(rules) for rules in items.values()])


def verify_substitution_identities() -> IdentityReport:
    """The resolution rules that move a parameter (items (3)-(5) of Lemmas
    5.3 and 5.11), plus the boundary specializations Table 2 = Table 3 at
    t = 1 and Table 4 = Table 5 at l = 1."""
    # the shifts first, then the items that say a row does not involve t or l
    moved = sorted((rule for rule in RESOLUTION_RULES if rule.move),
                   key=lambda rule: rule.source == rule.target)
    checks = [_lemma_item([rule]) for rule in moved]
    for name, rows, family, var in (("Table2=Table3@t=1", _TABLE2, "A", "t"),
                                    ("Table4=Table5@l=1", _TABLE4, "L", "l")):
        for res, row in rows.items():
            at_1 = table_row(family, res).poly.substitute({var: MultiPoly.const(1)})
            checks.append(IdentityCheck(name, f"{row.family}({res})",
                                        row.poly - at_1))
    return IdentityReport(checks)
