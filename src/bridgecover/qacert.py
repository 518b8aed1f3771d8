"""Machine-checkable quasi-alternating / L-space certificates.

A certificate is a tree whose nodes certify links of the three tabulated
families (``A``, ``B = L(l=1)``, ``L``) plus a handful of named links.  Node
kinds:

* ``BASE``     -- a whitelisted axiom (a trusted fact, with citation),
* ``SKEIN``    -- the determinant-additive resolution triangle: the link
                  splits at its leftmost unresolved slot (the first ``*`` of
                  its canonical resolution text) into a 0-child and an
                  inf-child with ``det = det_0 + det_inf``, all positive,
* ``IDENTIFY`` -- the link equals another link, along a whitelisted
                  identification (with citation); the child certifies the
                  target,
* ``REF``      -- a back reference to a link certified elsewhere in the same
                  tree, restricted to strictly smaller induction measure.

``generate_A_cert`` / ``generate_L_cert`` build certificates following the
t- and l-inductions on the twist parameters.  One recursive builder does it
for every family: ``_step`` picks each link's node kind from its family,
resolution and sign pattern, and the axiom or identification it names comes
from the same ``AXIOMS`` / ``IDENTIFICATIONS`` whitelists ``verify`` checks
against.  ``verify`` independently checks every rule at every node,
recomputing the determinants from the tabulated formulas once per distinct
link per call.  Both stop at ``MAX_DEPTH`` levels: generation raises
``GenerationError`` and verification rejects.  Certificates serialize to
canonical JSON, written from an explicit stack in time linear in the text,
at any depth.  Resolution text is canonicalized where it enters (the
``LinkId`` factories and the parser), and ``verify`` rejects a link whose
text is not canonical.  A certificate repeats its links (A(1,1,110) has
1422 distinct links among 3374 nodes), so the generator, the writer and the
parser likewise evaluate, render or parse each distinct link once per call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from .goeritz import (
    NotTabulatedError,
    UnsupportedRegimeError,
    parse_resolution,
    table_formula,
)

QUASI_ALTERNATING = "QUASI_ALTERNATING"
L_SPACE = "L_SPACE"
_CLAIMS = (QUASI_ALTERNATING, L_SPACE)

BASE = "BASE"
SKEIN = "SKEIN"
IDENTIFY = "IDENTIFY"
REF = "REF"
_KINDS = (BASE, SKEIN, IDENTIFY, REF)

STAR3 = "*,*,*"


class CertError(ValueError):
    pass


class GenerationError(CertError):
    """The generator could not realize a certified step (e.g. a resolution
    determinant fails positivity at the requested parameters)."""


class CertParseError(CertError):
    """Malformed serialized certificate; the message carries the location."""


# ---------------------------------------------------------------------------
# Link identifiers
# ---------------------------------------------------------------------------

_FAMILY_PARAMS = {"A": ("q", "s", "t"), "B": ("q", "s", "t"),
                  "L": ("q", "s", "t", "l"), "NAMED": ()}


@dataclass(frozen=True)
class LinkId:
    """A member of one of the certified families, or a named link."""

    family: str
    params: Tuple[Tuple[str, int], ...] = ()
    resolution: str = ""
    name: str = ""

    @staticmethod
    def A(q: int, s: int, t: int, resolution: str = STAR3) -> "LinkId":
        return LinkId("A", (("q", q), ("s", s), ("t", t)),
                      parse_resolution(resolution))

    @staticmethod
    def B(q: int, s: int, t: int, resolution: str = STAR3) -> "LinkId":
        return LinkId("B", (("q", q), ("s", s), ("t", t)),
                      parse_resolution(resolution))

    @staticmethod
    def L(q: int, s: int, t: int, l: int, resolution: str = STAR3) -> "LinkId":
        return LinkId("L", (("q", q), ("s", s), ("t", t), ("l", l)),
                      parse_resolution(resolution))

    @staticmethod
    def named(name: str) -> "LinkId":
        return LinkId("NAMED", name=name)

    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"{self} has no parameter {name!r}")

    def param_map(self) -> Dict[str, int]:
        return dict(self.params)

    def sign_pattern(self) -> Tuple[int, ...]:
        return tuple(1 if v > 0 else -1 for _, v in self.params)

    def validate(self) -> None:
        if self.family not in _FAMILY_PARAMS:
            raise CertError(f"unknown link family {self.family!r}")
        expected = _FAMILY_PARAMS[self.family]
        names = tuple(key for key, _ in self.params)
        if names != expected:
            raise CertError(
                f"{self.family} link needs parameters {expected}, got {names}")
        for key, value in self.params:
            if not isinstance(value, int) or value == 0:
                raise CertError(f"parameter {key} must be a nonzero integer")
        if self.family == "NAMED":
            if not self.name:
                raise CertError("named link needs a name")
            if self.resolution:
                raise CertError("named link carries no resolution")
        else:
            if self.name:
                raise CertError(f"{self.family} link carries no name")
            try:
                canonical = parse_resolution(self.resolution)
            except ValueError as exc:
                raise CertError(
                    f"bad resolution {self.resolution!r}: {exc}") from None
            if canonical != self.resolution:
                raise CertError(f"resolution {self.resolution!r} is not in "
                                f"canonical form {canonical!r}")

    def __str__(self):
        if self.family == "NAMED":
            return self.name
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({args}; {self.resolution})"


# A link memo trusts a hit only for plain int parameters: True and 1.0
# equal 1 as dict keys, yet validate and print differently.
def _plain_ints(link: LinkId) -> bool:
    return all(value.__class__ is int for _, value in link.params)


def measure(link: LinkId) -> Tuple[int, int, int]:
    """Lexicographic induction measure (|l|, |t|, |q|); the B level counts as
    l = 1 and named links as the bottom."""
    if link.family == "NAMED":
        return (0, 0, 0)
    p = link.param_map()
    level = {"A": 0, "B": 1}.get(link.family)
    if level is None:
        level = abs(p["l"])
    return (level, abs(p["t"]), abs(p["q"]))


_TOP_MEASURE = (1 << 30, 0, 0)

_NAMED_DETS = {
    "UNKNOT": 1,
    "T(3,4)": 3,
    "T(3,5)": 1,
    "P(2,-3,-2)": 4,
    "P(2,-3,-4)": 2,
}


def expected_det(link: LinkId) -> int:
    """The determinant a certificate node must carry for this link: the
    absolute value of the tabulated formula (fixed values for named links)."""
    if link.family == "NAMED":
        try:
            return _NAMED_DETS[link.name]
        except KeyError:
            raise CertError(f"unknown named link {link.name!r}") from None
    return abs(table_formula(link.family, link.resolution, link.param_map()))


# ---------------------------------------------------------------------------
# Axiom whitelist
# ---------------------------------------------------------------------------

_ALTERNATING_A_PATTERNS = {(1, -1, 1), (-1, 1, -1)}
_ALTERNATING_L_PATTERNS = {(-1, 1, -1, 1), (1, -1, 1, -1)}


def _is_named(name: str) -> Callable[[LinkId], bool]:
    return lambda link: link.family == "NAMED" and link.name == name


def _match_alternating(link: LinkId) -> bool:
    if link.family == "A":
        return link.sign_pattern() in _ALTERNATING_A_PATTERNS
    if link.family == "L":
        return (link.resolution == STAR3
                and link.sign_pattern() in _ALTERNATING_L_PATTERNS)
    return False


def _match_peters(link: LinkId) -> bool:
    return (link.family == "A" and link.param("t") == 1
            and link.param("s") > 1 and link.param("q") >= 1
            and link.resolution in ("inf,*,*", "0,inf,*", "0,0,*"))


def _match_a_00_s1(link: LinkId) -> bool:
    return (link.family == "A" and link.param("t") == 1
            and link.param("s") == 1 and link.param("q") >= 1
            and link.resolution == "0,0,*")


def _match_a_zero_s1(link: LinkId) -> bool:
    return (link.family == "A" and link.param("t") == 1
            and link.param("s") == 1 and link.param("q") >= 1
            and link.resolution == "0,*,*")


def _match_b_zero_s1t1(link: LinkId) -> bool:
    return (link.family == "B" and link.param("s") == 1
            and link.param("t") == 1 and link.param("q") >= 1
            and link.resolution == "0,*,*")


def _match_regime_a(link: LinkId) -> bool:
    if link.family != "A":
        return False
    pattern = link.sign_pattern()
    return pattern != (1, 1, 1) and pattern not in _ALTERNATING_A_PATTERNS


@dataclass(frozen=True)
class AxiomInfo:
    name: str
    claim: str
    citation: str
    matcher: Callable[[LinkId], bool]


AXIOMS: Dict[str, AxiomInfo] = {ax.name: ax for ax in [
    AxiomInfo("UNKNOT", QUASI_ALTERNATING,
              "Definition 2.3(1)", _is_named("UNKNOT")),
    AxiomInfo("ALTERNATING", QUASI_ALTERNATING,
              "Section 5 case (2); Section 5.1 case 2)", _match_alternating),
    AxiomInfo("PETERS_QA", QUASI_ALTERNATING,
              "Lemma 5.2 [P]", _match_peters),
    AxiomInfo("T(3,4)", L_SPACE,
              "Claim 5.6 proof", _is_named("T(3,4)")),
    AxiomInfo("P(2,-3,-2)", L_SPACE,
              "Claim 5.6 proof", _is_named("P(2,-3,-2)")),
    AxiomInfo("T(3,5)", L_SPACE,
              "Claim 5.14 proof", _is_named("T(3,5)")),
    AxiomInfo("P(2,-3,-4)", L_SPACE,
              "Claim 5.14 proof", _is_named("P(2,-3,-4)")),
    AxiomInfo("A_00_STAR_S1", L_SPACE,
              "Claim 5.6 proof (base of the 0,0,* chain at s = 1)",
              _match_a_00_s1),
    AxiomInfo("A_0_STAR_STAR_S1", L_SPACE,
              "Claim 5.6 proof (base of the 0,*,* chain at s = 1)",
              _match_a_zero_s1),
    AxiomInfo("B_0_STAR_STAR_S1_T1", L_SPACE,
              "Claim 5.14 proof (base of the 0,*,* chain at s = t = 1)",
              _match_b_zero_s1t1),
    AxiomInfo("REGIME_A", L_SPACE,
              "Section 5.1 cases 3), 4); Section 5 cases (7), (8)",
              _match_regime_a),
]}


# ---------------------------------------------------------------------------
# Identification whitelist
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentRule:
    citation: str
    apply: Callable[[LinkId], Optional[LinkId]]
    # (family, resolution) of the links a resolution rule rewrites; the
    # generator looks the rule up by it
    source: Optional[Tuple[str, str]] = None


def _res_map(citation: str, family: str, source: str, target: str,
             shift: Optional[str] = None,
             collapse_to: Optional[int] = None) -> IdentRule:
    """Identification acting on the resolution (and optionally shifting one
    parameter down by 1, or collapsing it to a fixed value)."""
    target = parse_resolution(target)

    def apply(link: LinkId) -> Optional[LinkId]:
        if link.family != family or link.resolution != source:
            return None
        p = link.param_map()
        if shift is not None:
            if abs(p[shift]) < 2 or p[shift] < 0:
                return None
            p[shift] -= 1
        if collapse_to is not None:
            var = "t" if family == "A" else "l"
            if p[var] < 2:
                return None
            p[var] = collapse_to
        params = tuple((k, p[k]) for k in _FAMILY_PARAMS[family])
        return LinkId(family, params, target)

    return IdentRule(citation, apply, (family, source))


def _to_named(family: str, resolution: str, name: str):
    def apply(link: LinkId) -> Optional[LinkId]:
        if (link.family == family and link.resolution == resolution
                and all(v == 1 for _, v in link.params)):
            return LinkId.named(name)
        return None
    return apply


def _l_to_b(link: LinkId) -> Optional[LinkId]:
    if link.family != "L" or link.param("l") != 1:
        return None
    return LinkId.B(link.param("q"), link.param("s"), link.param("t"),
                    link.resolution)


def _b_to_a(source: str, target: str) -> IdentRule:
    def apply(link: LinkId) -> Optional[LinkId]:
        if link.family != "B" or link.resolution != source:
            return None
        return LinkId.A(link.param("q"), link.param("s"), link.param("t"),
                        target)
    return IdentRule(CIT_B_TO_A, apply, ("B", source))


def _a_qt_swap(link: LinkId) -> Optional[LinkId]:
    if link.family != "A" or link.resolution != STAR3:
        return None
    return LinkId.A(link.param("t"), link.param("s"), link.param("q"))


def _l_double_swap(link: LinkId) -> Optional[LinkId]:
    if link.family != "L" or link.resolution != STAR3:
        return None
    return LinkId.L(link.param("l"), link.param("t"), link.param("s"),
                    link.param("q"))


def _mirror(family: str):
    def apply(link: LinkId) -> Optional[LinkId]:
        if link.family != family or link.resolution != STAR3:
            return None
        params = tuple((k, -v) for k, v in link.params)
        return replace(link, params=params)
    return apply


CIT_A_MIDDLE = "Lemma 5.3(1)"
CIT_A_OUTER = "Lemma 5.3(2)"
CIT_A_LADDER_STAR = "Lemma 5.3(3)"
CIT_A_LADDER_ZERO = "Lemma 5.3(4)"
CIT_A_COLLAPSE = "Lemma 5.3(5)"
CIT_A_NAMED = "Lemma 5.3(6)"
CIT_A_SYM = "Claim 5.6 (q, t symmetry of A)"
CIT_A_MIRROR = "Section 5.1 case 4) (mirror image)"
CIT_L_MIDDLE = "Lemma 5.11(1)"
CIT_L_OUTER = "Lemma 5.11(2)"
CIT_L_LADDER_STAR = "Lemma 5.11(3)"
CIT_L_LADDER_ZERO = "Lemma 5.11(4)"
CIT_L_CHAIN = "Lemma 5.11(5)"
CIT_L_IS_B = "Section 5.2.1 (B = L(l = 1))"
CIT_B_TO_A = "Lemma 5.8(1)"
CIT_B_NAMED = "Lemma 5.8(2)"
CIT_L_SWAP = "Claim 5.14; Section 5 cases (5), (6) (q-l, s-t symmetry of L)"
CIT_L_MIRROR = "Section 5 (mirror image reduction)"

IDENTIFICATIONS: Tuple[IdentRule, ...] = (
    _res_map(CIT_A_MIDDLE, "A", "0,inf,0", "0,0,*"),
    _res_map(CIT_A_MIDDLE, "A", "inf,0,0", "0,0,*"),
    _res_map(CIT_A_OUTER, "A", "inf,0,inf", "0,inf,inf"),
    _res_map(CIT_A_OUTER, "A", "inf,inf,0", "0,inf,inf"),
    _res_map(CIT_A_LADDER_STAR, "A", "inf,inf,inf", STAR3, shift="t"),
    _res_map(CIT_A_LADDER_ZERO, "A", "0,inf,inf", "0,*,*", shift="t"),
    _res_map(CIT_A_COLLAPSE, "A", "0,0,*", "0,0,*", collapse_to=1),
    IdentRule(CIT_A_NAMED, _to_named("A", STAR3, "T(3,4)")),
    IdentRule(CIT_A_NAMED, _to_named("A", "0,*,*", "P(2,-3,-2)")),
    IdentRule(CIT_A_SYM, _a_qt_swap),
    IdentRule(CIT_A_MIRROR, _mirror("A")),
    _res_map(CIT_L_MIDDLE, "L", "0,inf,0", "0,0,*"),
    _res_map(CIT_L_MIDDLE, "L", "inf,0,0", "0,0,*"),
    _res_map(CIT_L_OUTER, "L", "inf,0,inf", "0,inf,inf"),
    _res_map(CIT_L_OUTER, "L", "inf,inf,0", "0,inf,inf"),
    _res_map(CIT_L_LADDER_STAR, "L", "inf,inf,inf", STAR3, shift="l"),
    _res_map(CIT_L_LADDER_ZERO, "L", "0,inf,inf", "0,*,*", shift="l"),
    _res_map(CIT_L_CHAIN, "L", "0,0,*", "0,0,*", shift="l"),
    IdentRule(CIT_L_IS_B, _l_to_b),
    _b_to_a("0,0,*", STAR3),
    _b_to_a("inf,*,*", "inf,inf,*"),
    _b_to_a("0,inf,*", "inf,*,*"),
    IdentRule(CIT_B_NAMED, _to_named("B", STAR3, "T(3,5)")),
    IdentRule(CIT_B_NAMED, _to_named("B", "0,*,*", "P(2,-3,-4)")),
    IdentRule(CIT_L_SWAP, _l_double_swap),
    IdentRule(CIT_L_MIRROR, _mirror("L")),
)


_RULES_BY_CITATION: Dict[str, Tuple[IdentRule, ...]] = {
    citation: tuple(rule for rule in IDENTIFICATIONS
                    if rule.citation == citation)
    for citation in dict.fromkeys(rule.citation for rule in IDENTIFICATIONS)}


def _identify(link: LinkId, citation: str) -> Optional[LinkId]:
    """The link ``citation`` identifies ``link`` with, or None.  Rules that
    share a citation rewrite different resolutions, so at most one applies."""
    for rule in _RULES_BY_CITATION.get(citation, ()):
        target = rule.apply(link)
        if target is not None:
            return target
    return None


# ---------------------------------------------------------------------------
# Certificate structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertNode:
    link: LinkId
    det: int
    kind: str
    axiom: str = ""
    citation: str = ""
    target: Optional[LinkId] = None
    zero: Optional["CertNode"] = None
    inf: Optional["CertNode"] = None
    child: Optional["CertNode"] = None


@dataclass(frozen=True)
class AxiomDecl:
    name: str
    claim: str
    citation: str


@dataclass(frozen=True)
class Certificate:
    claim: str
    root: CertNode
    axioms: Tuple[AxiomDecl, ...]


# Deepest certificate, in nodes on a path from the root, that the generator
# writes and the verifier accepts.  A(1,1,110) is exactly this deep;
# A(2,2,110) and the deepest L sign classes from magnitude 87 or 88 on are
# deeper.  Generation, verification and parsing recurse once per level, and
# the limit keeps them inside Python's default recursion limit of 1000;
# serialization and ``iter_nodes`` do not recurse.
MAX_DEPTH = 438


def iter_nodes(root: CertNode) -> Iterator[Tuple[str, CertNode]]:
    """Every node with its path from ``root``, in pre-order (zero, inf,
    child), from an explicit stack."""
    stack = [("root", root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if node.child is not None:
            stack.append((path + ".child", node.child))
        if node.inf is not None:
            stack.append((path + ".inf", node.inf))
        if node.zero is not None:
            stack.append((path + ".zero", node.zero))


def node_count(cert: Certificate) -> int:
    return sum(1 for _ in iter_nodes(cert.root))


def _resolve_leftmost(link: LinkId, slot: str) -> Optional[LinkId]:
    """``link`` with its leftmost ``*`` slot resolved to ``slot`` (``0`` or
    ``inf``), or None when every slot is resolved."""
    if "*" not in link.resolution:
        return None
    return LinkId(link.family, link.params,
                  link.resolution.replace("*", slot, 1), link.name)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    accepted: bool
    path: str = ""
    reason: str = ""

    def __bool__(self):
        return self.accepted

    def __str__(self):
        if self.accepted:
            return "ACCEPT"
        return f"REJECT at {self.path}: {self.reason}"


ACCEPT = Verdict(True)


class _Reject(Exception):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.verdict = Verdict(False, path, reason)


def _check_node(node: CertNode, path: str, cert: Certificate,
                declared: Mapping[str, AxiomDecl],
                certified: Set[LinkId],
                refs: List[Tuple[LinkId, str]],
                dets: Dict[LinkId, int],
                skein_measure: Tuple[int, int, int], depth: int) -> None:
    # ``dets`` holds the tabulated determinant of every link that passed
    # ``validate`` and ``expected_det`` in this call; a hit skips only those
    if depth > MAX_DEPTH:
        raise _Reject(path, f"certificate deeper than the depth limit of "
                            f"{MAX_DEPTH} levels")
    want = dets.get(node.link) if _plain_ints(node.link) else None
    if want is None:
        try:
            node.link.validate()
        except CertError as exc:
            raise _Reject(path, str(exc))
    if not isinstance(node.det, int) or node.det <= 0:
        raise _Reject(path, f"determinant must be a positive integer, got {node.det!r}")
    if want is None:
        try:
            want = dets[node.link] = expected_det(node.link)
        except (NotTabulatedError, CertError) as exc:
            raise _Reject(path, f"no tabulated determinant: {exc}")
    if node.det != want:
        raise _Reject(path, f"determinant {node.det} does not match the "
                            f"tabulated value {want} for {node.link}")
    if node.kind not in _KINDS:
        raise _Reject(path, f"unknown node kind {node.kind!r}")

    if node.kind == REF:
        if node.zero or node.inf or node.child:
            raise _Reject(path, "reference nodes carry no children")
        if not measure(node.link) < skein_measure:
            raise _Reject(path, f"reference to {node.link} does not decrease "
                                f"the induction measure {skein_measure}")
        refs.append((node.link, path))
        return

    certified.add(node.link)

    if node.kind == BASE:
        if node.zero or node.inf or node.child:
            raise _Reject(path, "axiom nodes carry no children")
        info = AXIOMS.get(node.axiom)
        if info is None:
            raise _Reject(path, f"unknown axiom {node.axiom!r}")
        if node.axiom not in declared:
            raise _Reject(path, f"axiom {node.axiom!r} is not declared by the "
                                f"certificate")
        if cert.claim == QUASI_ALTERNATING and info.claim != QUASI_ALTERNATING:
            raise _Reject(path, f"axiom {node.axiom!r} asserts {info.claim}, "
                                f"not admissible in a {cert.claim} certificate")
        if not info.matcher(node.link):
            raise _Reject(path, f"axiom {node.axiom!r} does not apply to "
                                f"{node.link}")
        return

    if node.kind == SKEIN:
        if node.zero is None or node.inf is None or node.child is not None:
            raise _Reject(path, "skein nodes need exactly a zero and an inf child")
        zero_link = _resolve_leftmost(node.link, "0")
        inf_link = _resolve_leftmost(node.link, "inf")
        if zero_link is None:
            raise _Reject(path, f"{node.link} has no unresolved slot to split")
        if node.zero.link != zero_link:
            raise _Reject(path + ".zero", f"expected {zero_link}, certificate "
                                          f"has {node.zero.link}")
        if node.inf.link != inf_link:
            raise _Reject(path + ".inf", f"expected {inf_link}, certificate "
                                         f"has {node.inf.link}")
        inner = measure(node.link)
        _check_node(node.zero, path + ".zero", cert, declared, certified, refs,
                    dets, inner, depth + 1)
        _check_node(node.inf, path + ".inf", cert, declared, certified, refs,
                    dets, inner, depth + 1)
        if node.det != node.zero.det + node.inf.det:
            raise _Reject(path, f"determinant additivity fails: {node.det} != "
                                f"{node.zero.det} + {node.inf.det}")
        return

    # IDENTIFY
    if node.child is None or node.zero is not None or node.inf is not None:
        raise _Reject(path, "identification nodes need exactly one child")
    if node.target is None:
        raise _Reject(path, "identification nodes need a target link")
    if _identify(node.link, node.citation) != node.target:
        raise _Reject(path, f"no whitelisted identification sends {node.link} "
                            f"to {node.target} under {node.citation!r}")
    if node.child.link != node.target:
        raise _Reject(path + ".child", f"expected the identified link "
                                       f"{node.target}, certificate has "
                                       f"{node.child.link}")
    _check_node(node.child, path + ".child", cert, declared, certified, refs,
                dets, skein_measure, depth + 1)
    if node.child.det != node.det:
        raise _Reject(path, f"identified links must share a determinant: "
                            f"{node.det} != {node.child.det}")


def verify(cert: Certificate) -> Verdict:
    """Check every rule of the certificate and the depth limit; ACCEPT or
    REJECT with the first violation's node path.  Every node is checked;
    a link is validated and its determinant tabulated once per call."""
    if cert.claim not in _CLAIMS:
        return Verdict(False, "claim", f"unknown claim {cert.claim!r}")
    declared: Dict[str, AxiomDecl] = {}
    for i, decl in enumerate(cert.axioms):
        info = AXIOMS.get(decl.name)
        if info is None:
            return Verdict(False, f"axioms[{i}]", f"unknown axiom {decl.name!r}")
        if decl.claim != info.claim or decl.citation != info.citation:
            return Verdict(False, f"axioms[{i}]",
                           f"axiom {decl.name!r} declared with wrong claim or "
                           f"citation")
        declared[decl.name] = decl
    certified: Set[LinkId] = set()
    refs: List[Tuple[LinkId, str]] = []
    try:
        _check_node(cert.root, "root", cert, declared, certified, refs, {},
                    measure(cert.root.link), 1)
    except _Reject as rej:
        return rej.verdict
    for link, path in refs:
        if link not in certified:
            return Verdict(False, path,
                           f"reference to {link}, which is never certified")
    return ACCEPT


# ---------------------------------------------------------------------------
# Serialization (canonical JSON)
# ---------------------------------------------------------------------------

def _link_to_json(link: LinkId) -> Dict[str, object]:
    out: Dict[str, object] = {"family": link.family}
    if link.family == "NAMED":
        out["name"] = link.name
    else:
        out["params"] = {k: v for k, v in link.params}
        out["resolution"] = link.resolution
    return out


def _node_to_json(node: CertNode,
                  link_json: Callable[[LinkId], object] = _link_to_json
                  ) -> Dict[str, object]:
    """One node's JSON object, with ``link_json`` converting its links; its
    children stay ``CertNode``s, which ``_canonical_json`` converts when it
    reaches them."""
    out: Dict[str, object] = {
        "link": link_json(node.link),
        "det": str(node.det),
        "kind": node.kind,
    }
    if node.kind == BASE:
        out["axiom"] = node.axiom
    elif node.kind == SKEIN:
        out["zero"] = node.zero
        out["inf"] = node.inf
    elif node.kind == IDENTIFY:
        out["target"] = link_json(node.target)
        out["citation"] = node.citation
        out["child"] = node.child
    return out


_encode_str = json.encoder.encode_basestring_ascii


class _Rendered(str):
    """Canonical JSON text of one value at the top level, without the
    trailing newline; ``_canonical_json`` indents it where it lands."""


def _canonical_json(obj, default: Callable[[object], object]) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, default=default) + "\\n"``
    for objects built of dicts with string keys, lists, strings, ints and
    ``_Rendered`` text.

    ``json.dumps`` with an indent runs its pure-Python encoder, whose cost
    grows with tokens times nesting depth.  Here one explicit stack holds
    the open containers, so the cost is linear in the output and no nesting
    level takes a Python frame."""
    out: List[str] = []
    # per open container: (iterator over (text before the entry, entry),
    # text that closes the container, newline and indent of its entries)
    stack = [(iter((("", obj),)), "\n", "\n")]
    while stack:
        entries, close, newline = stack[-1]
        for before, value in entries:
            if value.__class__ is str:
                out.append(before + _encode_str(value))
                continue
            if value.__class__ is int:
                out.append(before + int.__repr__(value))
                continue
            if value.__class__ is _Rendered:
                out.append(before + value.replace("\n", newline))
                continue
            if value.__class__ is not dict and value.__class__ is not list:
                value = default(value)
            if not value:
                out.append(before + ("{}" if value.__class__ is dict else "[]"))
                continue
            if value.__class__ is dict:
                opening, closing = "{", "}"
                items = [(_encode_str(key) + ": ", sub)
                         for key, sub in sorted(value.items())]
            else:
                opening, closing = "[", "]"
                items = [("", sub) for sub in value]
            out.append(before + opening)
            inner = newline + "  "
            stack.append((iter([(("," if i else "") + inner + key, sub)
                                for i, (key, sub) in enumerate(items)]),
                          newline + closing, inner))
            break
        else:
            stack.pop()
            out.append(close)
    return "".join(out)


def serialize(cert: Certificate) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, trailing newline.
    Each distinct link is rendered once and re-indented where it occurs."""
    texts: Dict[LinkId, _Rendered] = {}

    def link_json(link: LinkId) -> object:
        if not _plain_ints(link):
            return _link_to_json(link)
        text = texts.get(link)
        if text is None:
            text = texts[link] = _Rendered(
                _canonical_json(_link_to_json(link), None)[:-1])
        return text

    payload = {
        "claim": cert.claim,
        "axioms": [{"name": ax.name, "claim": ax.claim, "citation": ax.citation}
                   for ax in cert.axioms],
        "root": cert.root,
    }
    return _canonical_json(payload, lambda node: _node_to_json(node, link_json))


def _expect(obj, key: str, types, path: str):
    if not isinstance(obj, dict):
        raise CertParseError(f"{path}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise CertParseError(f"{path}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise CertParseError(f"{path}.{key}: unexpected type {type(value).__name__}")
    return value


def _link_from_json(obj, path: str, links: Dict[str, LinkId]) -> LinkId:
    # keyed by repr, which tells apart the JSON values true, 1 and 1.0
    key = repr(obj)
    link = links.get(key)
    if link is None:
        link = links[key] = _parse_link(obj, path)
    return link


def _parse_link(obj, path: str) -> LinkId:
    family = _expect(obj, "family", str, path)
    if family == "NAMED":
        return LinkId.named(_expect(obj, "name", str, path))
    params_obj = _expect(obj, "params", dict, path)
    resolution = _expect(obj, "resolution", str, path)
    names = _FAMILY_PARAMS.get(family)
    if names is None:
        raise CertParseError(f"{path}.family: unknown family {family!r}")
    try:
        resolution = parse_resolution(resolution)
    except ValueError as exc:
        raise CertParseError(f"{path}.resolution: {exc}") from None
    params = []
    for name in names:
        value = params_obj.get(name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise CertParseError(f"{path}.params.{name}: expected an integer")
        params.append((name, value))
    extra = set(params_obj) - set(names)
    if extra:
        raise CertParseError(f"{path}.params: unexpected entries {sorted(extra)}")
    return LinkId(family, tuple(params), resolution)


def _node_from_json(obj, path: str, links: Dict[str, LinkId]) -> CertNode:
    link = _link_from_json(_expect(obj, "link", dict, path), path + ".link",
                           links)
    det_text = _expect(obj, "det", str, path)
    try:
        det = int(det_text, 10)
    except ValueError:
        raise CertParseError(f"{path}.det: not a decimal integer: {det_text!r}")
    kind = _expect(obj, "kind", str, path)
    if kind == BASE:
        return CertNode(link, det, BASE, axiom=_expect(obj, "axiom", str, path))
    if kind == SKEIN:
        return CertNode(link, det, SKEIN,
                        zero=_node_from_json(_expect(obj, "zero", dict, path),
                                             path + ".zero", links),
                        inf=_node_from_json(_expect(obj, "inf", dict, path),
                                            path + ".inf", links))
    if kind == IDENTIFY:
        return CertNode(link, det, IDENTIFY,
                        target=_link_from_json(_expect(obj, "target", dict, path),
                                               path + ".target", links),
                        citation=_expect(obj, "citation", str, path),
                        child=_node_from_json(_expect(obj, "child", dict, path),
                                              path + ".child", links))
    if kind == REF:
        return CertNode(link, det, REF)
    raise CertParseError(f"{path}.kind: unknown node kind {kind!r}")


def deserialize(data: Union[str, bytes]) -> Certificate:
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CertParseError(f"invalid JSON at line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}") from None
    claim = _expect(payload, "claim", str, "certificate")
    axioms_obj = _expect(payload, "axioms", list, "certificate")
    axioms = []
    for i, entry in enumerate(axioms_obj):
        where = f"axioms[{i}]"
        axioms.append(AxiomDecl(_expect(entry, "name", str, where),
                                _expect(entry, "claim", str, where),
                                _expect(entry, "citation", str, where)))
    root = _node_from_json(_expect(payload, "root", dict, "certificate"), "root",
                           {})
    return Certificate(claim, root, tuple(axioms))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

# The eight sign patterns of (q, s, t, l) certified directly; the other
# eight are their mirror images.  The two swap patterns first pass to the
# q-l, s-t swapped link, whose pattern is canonical.
_L_CANONICAL = {(1, 1, 1, 1), (-1, 1, -1, 1), (1, -1, 1, 1), (-1, -1, -1, 1),
                (1, 1, -1, 1), (1, -1, -1, -1), (1, -1, -1, 1), (-1, -1, 1, 1)}
_L_SWAP = {(1, 1, -1, 1), (1, -1, -1, -1)}

# Resolutions certified by identification (along the one resolution rule
# that rewrites them) instead of by a skein split.
_RESOLVED = {rule.source: rule.citation for rule in IDENTIFICATIONS
             if rule.source is not None}

# Induction bases, tried in order once no sign or symmetry step applies.
_BASES = ("PETERS_QA", "A_00_STAR_S1", "A_0_STAR_STAR_S1",
          "B_0_STAR_STAR_S1_T1")


def _step(link: LinkId) -> Tuple[str, str]:
    """How the generator certifies ``link``: ``(BASE, axiom)``,
    ``(IDENTIFY, citation)`` or ``(SKEIN, "")``.

    All-positive links follow the t-induction (A) and the l-induction (L);
    an A link of any other sign pattern is grounded by that pattern: the
    alternating ones are ALTERNATING, the all-negative star is the mirror of
    the all-positive one, and every other is a trusted REGIME_A fact."""
    family, res = link.family, link.resolution
    if family == "NAMED":
        return BASE, link.name
    p = link.param_map()
    pattern = link.sign_pattern()
    if family == "A" and pattern != (1, 1, 1):
        if pattern in _ALTERNATING_A_PATTERNS:
            return BASE, "ALTERNATING"
        if pattern == (-1, -1, -1) and res == STAR3:
            return IDENTIFY, CIT_A_MIRROR
        return BASE, "REGIME_A"
    if family == "L" and res == STAR3:
        if pattern not in _L_CANONICAL:
            return IDENTIFY, CIT_L_MIRROR
        # all-positive with t = 1: the swap moves s > 1 into the s = 1
        # regime and, at s = t = 1, puts the larger of q and l last
        if pattern in _L_SWAP or (pattern == (1, 1, 1, 1) and p["t"] == 1
                                  and (p["s"] > 1 or p["l"] < p["q"])):
            return IDENTIFY, CIT_L_SWAP
        if _match_alternating(link):
            return BASE, "ALTERNATING"
    if family == "A" and res == STAR3 and p["s"] == 1 and p["t"] < p["q"]:
        return IDENTIFY, CIT_A_SYM
    if res in (STAR3, "0,*,*") and all(v == 1 for v in p.values()):
        if family == "A":
            return IDENTIFY, CIT_A_NAMED
        if family == "B":
            return IDENTIFY, CIT_B_NAMED
    for axiom in _BASES:
        if AXIOMS[axiom].matcher(link):
            return BASE, axiom
    if family == "L" and p["l"] == 1:
        return IDENTIFY, CIT_L_IS_B
    citation = _RESOLVED.get((family, res))
    if citation is not None:
        return IDENTIFY, citation
    return SKEIN, ""


class _Builder:
    def __init__(self):
        self.certified: Set[LinkId] = set()
        self.used_axioms: Set[str] = set()
        self.dets: Dict[LinkId, int] = {}

    def det(self, link: LinkId) -> int:
        """``expected_det(link)``, evaluated once per distinct link."""
        det = self.dets.get(link)
        if det is None:
            det = self.dets[link] = expected_det(link)
        return det

    def certify(self, link: LinkId, ctx: Tuple[int, int, int],
                depth: int = 1) -> CertNode:
        """The certificate node for ``link`` at ``depth`` (the root is 1).

        ``ctx`` is the induction measure of the nearest SKEIN ancestor, the
        bound the verifier holds a back reference to.  A link certified
        before becomes a REF below that bound, except A links off the
        all-positive pattern: their grounding is one or two nodes and is
        always written out."""
        if depth > MAX_DEPTH:
            raise GenerationError(
                f"certificate deeper than the depth limit of {MAX_DEPTH} "
                f"levels (reached at {link})")
        if (link in self.certified and measure(link) < ctx
                and (link.family != "A" or link.sign_pattern() == (1, 1, 1))):
            return CertNode(link, self.det(link), REF)
        kind, label = _step(link)
        det = self.det(link)
        if kind == BASE:
            if not AXIOMS[label].matcher(link):
                raise GenerationError(f"axiom {label} does not apply to {link}")
            self.used_axioms.add(label)
            node = CertNode(link, det, BASE, axiom=label)
        elif kind == IDENTIFY:
            target = _identify(link, label)
            if target is None:
                raise GenerationError(f"{label!r} does not apply to {link}")
            child = self.certify(target, ctx, depth + 1)
            if det != child.det:
                raise GenerationError(f"identified determinants differ at "
                                      f"{link}: {det} != {child.det}")
            node = CertNode(link, det, IDENTIFY, citation=label,
                            target=target, child=child)
        else:
            inner = measure(link)
            zero = self.certify(_resolve_leftmost(link, "0"), inner,
                                depth + 1)
            inf = self.certify(_resolve_leftmost(link, "inf"), inner,
                               depth + 1)
            if det <= 0 or zero.det <= 0 or inf.det <= 0:
                raise GenerationError(f"resolution determinant vanishes at {link}")
            if det != zero.det + inf.det:
                raise GenerationError(
                    f"determinant additivity fails at {link}: "
                    f"{det} != {zero.det} + {inf.det}")
            node = CertNode(link, det, SKEIN, zero=zero, inf=inf)
        self.certified.add(link)
        return node


def _generate(root: LinkId, extra: Set[str]) -> Certificate:
    """Certify ``root``; the claim is QUASI_ALTERNATING when every declared
    axiom asserts it (as ``verify`` requires of such a claim), else L_SPACE."""
    builder = _Builder()
    node = builder.certify(root, _TOP_MEASURE)
    axioms = sorted((AXIOMS[n] for n in builder.used_axioms | extra),
                    key=lambda ax: ax.name)
    claim = (QUASI_ALTERNATING
             if all(ax.claim == QUASI_ALTERNATING for ax in axioms) else L_SPACE)
    return Certificate(claim, node, tuple(
        AxiomDecl(ax.name, ax.claim, ax.citation) for ax in axioms))


def generate_A_cert(q: int, s: int, t: int) -> Certificate:
    """Certificate for the three-slot family at positive parameters: the link
    itself is quasi-alternating for s > 1; its double branched cover is an
    L-space for s = 1."""
    for name, value in (("q", q), ("s", s), ("t", t)):
        if not isinstance(value, int) or value < 1:
            raise UnsupportedRegimeError(
                f"parameter {name} must be a positive integer, got {value!r}")
    extra = {"T(3,4)", "P(2,-3,-2)"} if s == 1 else set()
    return _generate(LinkId.A(q, s, t), extra)


def generate_L_cert(q: int, s: int, t: int, l: int) -> Certificate:
    """Certificate for the four-parameter family at any nonzero parameters.

    All-positive parameters follow the l-induction (grounded in the A-family
    t-induction); the alternating sign regime emits a one-node certificate;
    the remaining regimes combine the l-induction with the mirror and
    parameter-swap symmetries and the trusted regime facts."""
    for name, value in (("q", q), ("s", s), ("t", t), ("l", l)):
        if not isinstance(value, int) or value == 0:
            raise CertError(
                f"parameter {name} must be a nonzero integer, got {value!r}")
    link = LinkId.L(q, s, t, l)
    extra: Set[str] = set()
    if len(set(link.sign_pattern())) == 1 and abs(s) == abs(t) == 1:
        extra = {"T(3,5)", "P(2,-3,-4)"}
    return _generate(link, extra)
