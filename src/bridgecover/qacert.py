"""Machine-checkable quasi-alternating / L-space certificates.

A certificate certifies links of the three tabulated families (``A``,
``B = L(l=1)``, ``L``) and a few named links, one node per link:

* ``BASE``     -- a whitelisted axiom (a trusted fact, with citation),
* ``SKEIN``    -- the determinant-additive resolution triangle: the link
                  splits at its leftmost unresolved slot (the first ``*`` of
                  its canonical resolution text) into a 0-child and an
                  inf-child with ``det = det_0 + det_inf``, all positive,
* ``IDENTIFY`` -- the link equals its child's link along a whitelisted
                  identification (with citation).

A ``Certificate`` is the node list ``serialize`` writes as one JSON document
``{"axioms", "claim", "nodes"}``: one compact node a line, in the order a
depth-first walk from the root completes them, children as indices of
earlier nodes, the root last and no link twice.  In memory each node is its
row, a ``CertNode`` that cites its children by index, so the proof is
well-founded by construction, ``verify`` is one forward pass and no depth
limit is needed.  ``Certificate.root`` builds a tree view for tree walkers.

A ``LinkId``'s parameters are a tuple of ints in ``goeritz.TABLE_PARAMS``
order; their names appear only in text (``str``, the file's ``params``
objects).  The whitelists are plain tables: ``AXIOMS`` maps an axiom's name
to the declaration a certificate must repeat, with the links it applies to
in ``_MATCHES`` beside it, and ``IDENTIFICATIONS`` maps a citation to the
identification it states.

``generate_A_cert`` / ``generate_L_cert`` follow the t- and l-inductions:
``_step`` picks each link's node kind, axiom or identification from the
whitelists that ``verify`` checks against, tabulating each determinant
afresh.  The identifications that rewrite a resolution come from
``goeritz.RESOLUTION_RULES``, the one table of the Section 5 resolution
lemmas; the named-link rules, symmetries and mirror images are written
here.  Resolution text is canonical where it enters (the ``LinkId``
factories and the parser); ``verify`` rejects any other.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional, Set,
                    Tuple, Union)

from .goeritz import (
    RESOLUTION_RULES,
    TABLE_PARAMS,
    NotTabulatedError,
    UnsupportedRegimeError,
    parse_resolution,
    table_row,
)

QUASI_ALTERNATING = "QUASI_ALTERNATING"
L_SPACE = "L_SPACE"
_CLAIMS = (QUASI_ALTERNATING, L_SPACE)

BASE = "BASE"
SKEIN = "SKEIN"
IDENTIFY = "IDENTIFY"
REF = "REF"

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

_FAMILY_PARAMS = {**{f: TABLE_PARAMS[f] for f in ("A", "B", "L")}, "NAMED": ()}


class LinkId(NamedTuple):
    """A member of one of the certified families, its parameters as ints in
    ``TABLE_PARAMS`` order, or a named link."""

    family: str
    params: Tuple[int, ...] = ()
    resolution: str = ""
    name: str = ""

    @staticmethod
    def A(q: int, s: int, t: int, resolution: str = STAR3) -> "LinkId":
        return LinkId("A", (q, s, t), parse_resolution(resolution))

    @staticmethod
    def B(q: int, s: int, t: int, resolution: str = STAR3) -> "LinkId":
        return LinkId("B", (q, s, t), parse_resolution(resolution))

    @staticmethod
    def L(q: int, s: int, t: int, l: int, resolution: str = STAR3) -> "LinkId":
        return LinkId("L", (q, s, t, l), parse_resolution(resolution))

    @staticmethod
    def named(name: str) -> "LinkId":
        return LinkId("NAMED", name=name)

    def sign_pattern(self) -> Tuple[int, ...]:
        return tuple([1 if v > 0 else -1 for v in self.params])

    def validate(self) -> None:
        names = (_FAMILY_PARAMS.get(self.family)
                 if self.family.__class__ is str else None)
        if names is None:
            raise CertError(f"unknown link family {self.family!r}")
        if self.params.__class__ is not tuple or len(self.params) != len(names):
            raise CertError(f"{self.family} link needs the parameters {names} "
                            f"as a tuple of ints, got {self.params!r}")
        for key, value in zip(names, self.params):
            if value.__class__ is not int or value == 0:
                raise CertError(f"parameter {key} must be a nonzero integer")
        if self.family == "NAMED":
            if not self.name or self.name.__class__ is not str:
                raise CertError("named link needs a name")
            if self.resolution != "":
                raise CertError("named link carries no resolution")
        else:
            if self.name != "":
                raise CertError(f"{self.family} link carries no name")
            try:
                canonical = parse_resolution(self.resolution)
            except (ValueError, TypeError, AttributeError) as exc:
                raise CertError(
                    f"bad resolution {self.resolution!r}: {exc}") from None
            if canonical != self.resolution:
                raise CertError(f"resolution {self.resolution!r} is not in "
                                f"canonical form {canonical!r}")

    def __str__(self):
        if self.family == "NAMED":
            return self.name
        args = ", ".join(f"{k}={v}" for k, v in
                         zip(_FAMILY_PARAMS[self.family], self.params))
        return f"{self.family}({args}; {self.resolution})"


_NAMED_DETS = {"UNKNOT": 1, "T(3,4)": 3, "T(3,5)": 1, "P(2,-3,-2)": 4,
               "P(2,-3,-4)": 2}


def expected_det(link: LinkId) -> int:
    """The determinant a certificate node must carry for this link: the
    absolute value of its table row at its parameters (fixed values for
    named links)."""
    if link.family == "NAMED":
        try:
            return _NAMED_DETS[link.name]
        except KeyError:
            raise CertError(f"unknown named link {link.name!r}") from None
    return abs(table_row(link.family, link.resolution).evaluate(*link.params))


# ---------------------------------------------------------------------------
# Axiom whitelist
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomDecl:
    name: str
    claim: str
    citation: str


AXIOMS: Dict[str, AxiomDecl] = {ax.name: ax for ax in [
    AxiomDecl("UNKNOT", QUASI_ALTERNATING, "Definition 2.3(1)"),
    AxiomDecl("ALTERNATING", QUASI_ALTERNATING,
              "Section 5 case (2); Section 5.1 case 2)"),
    AxiomDecl("PETERS_QA", QUASI_ALTERNATING, "Lemma 5.2 [P]"),
    AxiomDecl("T(3,4)", L_SPACE, "Claim 5.6 proof"),
    AxiomDecl("P(2,-3,-2)", L_SPACE, "Claim 5.6 proof"),
    AxiomDecl("T(3,5)", L_SPACE, "Claim 5.14 proof"),
    AxiomDecl("P(2,-3,-4)", L_SPACE, "Claim 5.14 proof"),
    AxiomDecl("A_00_STAR_S1", L_SPACE,
              "Claim 5.6 proof (base of the 0,0,* chain at s = 1)"),
    AxiomDecl("A_0_STAR_STAR_S1", L_SPACE,
              "Claim 5.6 proof (base of the 0,*,* chain at s = 1)"),
    AxiomDecl("B_0_STAR_STAR_S1_T1", L_SPACE,
              "Claim 5.14 proof (base of the 0,*,* chain at s = t = 1)"),
    AxiomDecl("REGIME_A", L_SPACE,
              "Section 5.1 cases 3), 4); Section 5 cases (7), (8)"),
]}

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
    if link.family != "A":
        return False
    q, s, t = link.params
    return (t == 1 and s > 1 and q >= 1
            and link.resolution in ("inf,*,*", "0,inf,*", "0,0,*"))


def _match_chain_base(family: str, resolution: str) -> Callable[[LinkId], bool]:
    """The base of a chain: ``family`` at ``resolution``, s = t = 1, q >= 1."""
    return lambda link: (link.family == family
                         and link.resolution == resolution
                         and link.params[1] == link.params[2] == 1
                         and link.params[0] >= 1)


def _match_regime_a(link: LinkId) -> bool:
    if link.family != "A":
        return False
    pattern = link.sign_pattern()
    return pattern != (1, 1, 1) and pattern not in _ALTERNATING_A_PATTERNS


# The links each axiom of ``AXIOMS`` applies to; each named link is one.
_MATCHES: Dict[str, Callable[[LinkId], bool]] = {
    **{name: _is_named(name) for name in _NAMED_DETS},
    "ALTERNATING": _match_alternating,
    "PETERS_QA": _match_peters,
    "A_00_STAR_S1": _match_chain_base("A", "0,0,*"),
    "A_0_STAR_STAR_S1": _match_chain_base("A", "0,*,*"),
    "B_0_STAR_STAR_S1_T1": _match_chain_base("B", "0,*,*"),
    "REGIME_A": _match_regime_a,
}


# ---------------------------------------------------------------------------
# Identification whitelist
# ---------------------------------------------------------------------------

_Identification = Callable[[LinkId], Optional[LinkId]]

# The resolution rule that rewrites each (family, source resolution).
_RESOLVED = {(rule.family, rule.source): rule for rule in RESOLUTION_RULES}


def _res_map(citation: str) -> _Identification:
    """The identification the resolution rules cited as ``citation`` state:
    a link at a rule's source resolution is the rule's target link, with the
    rule's parameter move made only where that parameter is at least 2."""
    def apply(link: LinkId) -> Optional[LinkId]:
        rule = _RESOLVED.get((link.family, link.resolution))
        if rule is None or rule.citation != citation:
            return None
        params = link.params
        if rule.move:
            k = TABLE_PARAMS[rule.family].index(rule.move[0])
            if params[k] < 2:
                return None
            moved = params[k] - 1 if rule.move.endswith("-1") else 1
            params = params[:k] + (moved,) + params[k + 1:]
        return LinkId(rule.target_family or rule.family, params, rule.target)
    return apply


def _to_named(family: str, names: Mapping[str, str]) -> _Identification:
    """The all-ones link of ``family`` at a resolution ``names`` lists is the
    named link it maps that resolution to."""
    def apply(link: LinkId) -> Optional[LinkId]:
        if (link.family == family and link.params == (1, 1, 1)
                and link.resolution in names):
            return LinkId.named(names[link.resolution])
        return None
    return apply


def _l_to_b(link: LinkId) -> Optional[LinkId]:
    if link.family != "L" or link.params[3] != 1:
        return None
    return LinkId("B", link.params[:3], link.resolution)


def _on_star(family: str, move: Callable[[tuple], tuple]) -> _Identification:
    """The star link of ``family`` with its parameters moved by ``move``."""
    def apply(link: LinkId) -> Optional[LinkId]:
        if link.family != family or link.resolution != STAR3:
            return None
        return link._replace(params=move(link.params))
    return apply


def _swapped(params: tuple) -> tuple:
    """(q, s, t) -> (t, s, q) and (q, s, t, l) -> (l, t, s, q)."""
    return params[::-1]


def _mirrored(params: tuple) -> tuple:
    return tuple([-v for v in params])


CIT_A_NAMED = "Lemma 5.3(6)"
CIT_A_SYM = "Claim 5.6 (q, t symmetry of A)"
CIT_A_MIRROR = "Section 5.1 case 4) (mirror image)"
CIT_L_IS_B = "Section 5.2.1 (B = L(l = 1))"
CIT_B_NAMED = "Lemma 5.8(2)"
CIT_L_SWAP = "Claim 5.14; Section 5 cases (5), (6) (q-l, s-t symmetry of L)"
CIT_L_MIRROR = "Section 5 (mirror image reduction)"

IDENTIFICATIONS: Dict[str, _Identification] = {
    **{rule.citation: _res_map(rule.citation) for rule in RESOLUTION_RULES},
    CIT_A_NAMED: _to_named("A", {STAR3: "T(3,4)", "0,*,*": "P(2,-3,-2)"}),
    CIT_A_SYM: _on_star("A", _swapped),
    CIT_A_MIRROR: _on_star("A", _mirrored),
    CIT_L_IS_B: _l_to_b,
    CIT_B_NAMED: _to_named("B", {STAR3: "T(3,5)", "0,*,*": "P(2,-3,-4)"}),
    CIT_L_SWAP: _on_star("L", _swapped),
    CIT_L_MIRROR: _on_star("L", _mirrored),
}


def _identify(link: LinkId, citation: str) -> Optional[LinkId]:
    """The link ``citation`` identifies ``link`` with, or None."""
    apply = IDENTIFICATIONS.get(citation)
    return None if apply is None else apply(link)


# ---------------------------------------------------------------------------
# Certificate structure
# ---------------------------------------------------------------------------

class CertNode(NamedTuple):
    """One node, as its row of the file: the link, its determinant, the node
    kind, the axiom (``BASE``) or citation (``IDENTIFY``), and the indices of
    the earlier nodes it cites, in the slot order of its kind."""
    link: LinkId
    det: int
    kind: str
    axiom: str = ""
    citation: str = ""
    children: Tuple[int, ...] = ()


# Per node kind, its text field and its child slots; a new kind adds one.
_NODE_FIELDS = {BASE: ("axiom", ()), SKEIN: ("", ("zero", "inf")),
                IDENTIFY: ("citation", ("child",))}


# A node of the tree view that ``Certificate.root`` builds.
_TreeNode = namedtuple("_TreeNode",
                       "link det kind axiom citation zero inf child",
                       defaults=("", "", None, None, None))


@dataclass(frozen=True)
class Certificate:
    claim: str
    nodes: Tuple[CertNode, ...]
    axioms: Tuple[AxiomDecl, ...]

    @property
    def root(self) -> _TreeNode:
        """The tree under the last node, built on each call: a child slot
        holds the child's tree node at its first citation and a ``REF`` leaf
        (link and det) at every later one, ``node_count`` nodes in all.
        Only tree walkers such as ``perfbench/worker.py::_cert_stats`` read
        it; it goes, with ``_TreeNode`` and ``REF``, once they count from
        ``nodes``."""
        trees: List[_TreeNode] = []   # by index; a REF leaf once cited
        for node in self.nodes:
            slots = {}
            for slot, k in zip(_NODE_FIELDS[node.kind][1], node.children):
                slots[slot], trees[k] = trees[k], _TreeNode(*trees[k][:2], REF)
            trees.append(_TreeNode(*node[:5], **slots))
        return trees[-1]


def node_count(cert: Certificate) -> int:
    """Nodes in the tree under ``cert.root``, ``REF`` leaves included: one
    plus the citations, as the root reaches every node."""
    return 1 + sum(len(node.children) for node in cert.nodes)


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


class _Reject(CertError):
    # the path names node i, or its child slot
    def __init__(self, i: int, reason: str, slot: str = ""):
        path = f"nodes[{i}].{slot}" if slot else f"nodes[{i}]"
        self.verdict = Verdict(False, path, reason)
        super().__init__(f"{path}: {reason}")


def _slots(node: CertNode, i: int, first: Mapping) -> Tuple[str, Tuple[str, ...]]:
    """The text field and child slots of ``nodes[i]``, of a known kind: that
    field a str, the other empty, an earlier index per slot, its link new."""
    fields = _NODE_FIELDS.get(node.kind) if node.kind.__class__ is str else None
    if fields is None:
        raise _Reject(i, f"unknown node kind {node.kind!r}")
    (text, slots), children = fields, node.children
    unused = ("axiom" if node.axiom != "" and text != "axiom" else
              "citation" if node.citation != "" and text != "citation" else "")
    if unused:
        raise _Reject(i, f"{node.kind} nodes carry no {unused}")
    if text and getattr(node, text).__class__ is not str:
        raise _Reject(i, f"{node.kind} nodes carry their {text} as a string")
    if children.__class__ is not tuple or len(children) != len(slots):
        raise _Reject(i, f"{node.kind} nodes cite {len(slots)} children, got "
                         f"{children!r}")
    for slot, k in zip(slots, children):
        if k.__class__ is not int or not 0 <= k < i:
            raise _Reject(i, f"expected the index of an earlier node, got "
                             f"{k!r}", slot)
    if node.link in first:
        raise _Reject(i, f"{node.link} is already certified by "
                         f"nodes[{first[node.link]}]")
    return text, slots


def verify(cert: Certificate) -> Verdict:
    """Check every rule of the certificate in one forward pass, ACCEPT or
    REJECT at the first violation.  Children cite earlier nodes, so no cycle
    can be written, and each link's determinant is tabulated once."""
    if cert.claim not in _CLAIMS:
        return Verdict(False, "claim", f"unknown claim {cert.claim!r}")
    declared: Dict[str, AxiomDecl] = {}
    for i, decl in enumerate(cert.axioms):
        known = AXIOMS.get(decl.name) if decl.name.__class__ is str else None
        if known is None:
            return Verdict(False, f"axioms[{i}]", f"unknown axiom {decl.name!r}")
        if decl != known:
            return Verdict(False, f"axioms[{i}]",
                           f"axiom {decl.name!r} declared with wrong claim or "
                           f"citation")
        declared[decl.name] = decl
    first: Dict[LinkId, int] = {}   # link -> index, over the nodes checked
    try:
        for i, node in enumerate(cert.nodes):
            _check_node(cert, declared, first, i)
            first[node.link] = i
    except _Reject as rej:
        return rej.verdict
    return ACCEPT


def _check_node(cert: Certificate, declared: Mapping[str, AxiomDecl],
                first: Mapping[LinkId, int], i: int) -> None:
    """Every rule at ``nodes[i]``; ``first`` indexes the links before it,
    which are checked, so a child's link and determinant are certified."""
    node = cert.nodes[i]
    link = node.link
    if link.__class__ is not LinkId:
        raise _Reject(i, f"expected a LinkId, got {link!r}")
    try:
        link.validate()
    except CertError as exc:
        raise _Reject(i, str(exc))
    if node.det.__class__ is not int or node.det <= 0:
        raise _Reject(i, f"determinant must be a positive integer, got "
                         f"{node.det!r}")
    slots = _slots(node, i, first)[1]
    try:
        want = expected_det(link)
    except (NotTabulatedError, CertError) as exc:
        raise _Reject(i, f"no tabulated determinant: {exc}")
    if node.det != want:
        raise _Reject(i, f"determinant {node.det} does not match the "
                         f"tabulated value {want} for {link}")
    children = [cert.nodes[k] for k in node.children]
    if node.kind == BASE:
        axiom = AXIOMS.get(node.axiom)
        if axiom is None:
            raise _Reject(i, f"unknown axiom {node.axiom!r}")
        if node.axiom not in declared:
            raise _Reject(i, f"axiom {node.axiom!r} is not declared by the "
                             f"certificate")
        if cert.claim == QUASI_ALTERNATING and axiom.claim != cert.claim:
            raise _Reject(i, f"axiom {node.axiom!r} asserts {axiom.claim}, "
                             f"not admissible in a {cert.claim} certificate")
        if not _MATCHES[node.axiom](link):
            raise _Reject(i, f"axiom {node.axiom!r} does not apply to {link}")
    elif node.kind == IDENTIFY:
        child = children[0]
        if _identify(link, node.citation) != child.link:
            raise _Reject(i, f"no whitelisted identification sends {link} to "
                             f"{child.link} under {node.citation!r}")
        if child.det != node.det:
            raise _Reject(i, f"identified links must share a determinant: "
                             f"{node.det} != {child.det}")
    elif "*" not in link.resolution:
        raise _Reject(i, f"{link} has no unresolved slot to split")
    else:
        for slot, side, child in zip(slots, ("0", "inf"), children):
            want = _resolve_leftmost(link, side)
            if child.link != want:
                raise _Reject(i, f"expected {want}, certificate has "
                                 f"{child.link}", slot)
        zero, inf = children
        if node.det != zero.det + inf.det:
            raise _Reject(i, f"determinant additivity fails: {node.det} != "
                             f"{zero.det} + {inf.det}")


# ---------------------------------------------------------------------------
# Serialization: one compact JSON object a node, children by index
# ---------------------------------------------------------------------------

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           check_circular=False).encode  # fresh dict trees

# The key sets the parser requires: per node kind and per family's params.
_NODE_KEYS = {kind: frozenset({"det", "kind", "link", text, *kids} - {""})
              for kind, (text, kids) in _NODE_FIELDS.items()}
_PARAM_KEYS = {f: frozenset(names) for f, names in _FAMILY_PARAMS.items()}


def serialize(cert: Certificate) -> str:
    """Canonical JSON text: sorted keys, one compact node a line, children
    by index (refused unless each kind cites one earlier node per slot, as
    is a link listed twice), and a trailing newline."""
    first: Dict[LinkId, int] = {}
    lines: List[str] = []
    for i, node in enumerate(cert.nodes):
        try:  # the link is not validated: a field may fail to hash or encode
            text, slots = _slots(node, i, first)
            first[node.link] = i
            link = node.link
            out = {"det": str(node.det), "kind": node.kind, "link": (
                {"family": "NAMED", "name": link.name} if link.family == "NAMED"
                else {"family": link.family, "params": dict(
                    zip(_FAMILY_PARAMS[link.family], link.params)),
                      "resolution": link.resolution})}
            if text:
                out[text] = getattr(node, text)
            out.update(zip(slots, node.children))
            lines.append(_encode(out))
        except (AttributeError, KeyError, TypeError) as exc:
            raise _Reject(i, f"cannot be written: {exc!r}") from None
    axioms = [{"name": ax.name, "claim": ax.claim, "citation": ax.citation}
              for ax in cert.axioms]
    return (f'{{"axioms":{_encode(axioms)},"claim":{_encode(cert.claim)},'
            f'"nodes":[\n' + ",\n".join(lines) + "\n]}\n")


def _fields(obj, keys, where: str, texts=()) -> dict:
    """``obj``, which must be an object with exactly the fields ``keys``, of
    which ``texts`` hold strings."""
    if obj.__class__ is not dict:
        raise CertParseError(f"{where}: expected an object, got "
                             f"{type(obj).__name__}")
    if obj.keys() != keys:
        raise CertParseError(f"{where}: expected the fields {sorted(keys)}, "
                             f"got {sorted(obj)}")
    for key in texts:
        if obj[key].__class__ is not str:
            raise CertParseError(f"{where}.{key}: expected a string")
    return obj


def _parse_link(obj) -> LinkId:
    """A node's link; an error's location is relative to the node."""
    family = obj.get("family") if obj.__class__ is dict else None
    if family == "NAMED":
        return LinkId.named(
            _fields(obj, {"family", "name"}, ".link", ("name",))["name"])
    _fields(obj, {"family", "params", "resolution"}, ".link", ("resolution",))
    names = _FAMILY_PARAMS.get(family) if family.__class__ is str else None
    if names is None:
        raise CertParseError(f".link.family: unknown family {family!r}")
    fields = _fields(obj["params"], _PARAM_KEYS[family], ".link.params")
    params = tuple([fields[name] for name in names])
    for name, value in zip(names, params):
        if value.__class__ is not int:
            raise CertParseError(f".link.params.{name}: expected an integer")
    resolution = obj["resolution"]
    try:
        canonical = parse_resolution(resolution)
    except ValueError as exc:
        raise CertParseError(f".link.resolution: {exc}") from None
    if canonical != resolution:
        raise CertParseError(f".link.resolution: {resolution!r} is not in "
                             f"canonical form {canonical!r}")
    return LinkId(family, params, resolution)


def _parse_node(obj, i: int) -> CertNode:
    """Node i, whose children are earlier indices; an error's location is
    relative to the node, so no location text is built unless one occurs."""
    kind = obj.get("kind") if obj.__class__ is dict else None
    if kind.__class__ is not str or kind not in _NODE_FIELDS:
        raise CertParseError(f".kind: unknown node kind {kind!r}")
    text, slots = _NODE_FIELDS[kind]
    _fields(obj, _NODE_KEYS[kind], "", ("det", text) if text else ("det",))
    link = _parse_link(obj["link"])
    try:
        det = int(obj["det"], 10)
    except ValueError:
        det = None
    if det is None or str(det) != obj["det"]:
        raise CertParseError(f".det: not a decimal integer: {obj['det']!r}")
    children = tuple([obj[slot] for slot in slots])
    for slot, child in zip(slots, children):
        if child.__class__ is not int or not 0 <= child < i:
            raise CertParseError(f".{slot}: expected the index of an earlier "
                                 f"node, got {child!r}")
    return CertNode(link, det, kind, obj.get("axiom", ""),
                    obj.get("citation", ""), children)


def deserialize(data: Union[str, bytes]) -> Certificate:
    """Parse ``serialize`` output, and only that: every link once, children
    earlier, and the nodes in the order the walk from the last one completes
    them, so every other node is cited."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CertParseError(f"invalid JSON at line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise CertParseError(f"invalid JSON: {exc}") from None
    _fields(payload, {"axioms", "claim", "nodes"}, "certificate", ("claim",))
    axioms, nodes = payload["axioms"], payload["nodes"]
    if axioms.__class__ is not list:
        raise CertParseError("certificate.axioms: expected a list")
    if nodes.__class__ is not list or not nodes:
        raise CertParseError("certificate.nodes: expected a non-empty list")
    keys = ("name", "claim", "citation")
    axioms = tuple(AxiomDecl(*(_fields(entry, set(keys), f"axioms[{i}]",
                                       keys)[key] for key in keys))
                   for i, entry in enumerate(axioms))
    parsed: List[CertNode] = []
    try:
        for i, obj in enumerate(nodes):
            parsed.append(_parse_node(obj, i))
    except CertParseError as exc:
        raise CertParseError(f"nodes[{i}]{exc}") from None
    nodes = tuple(parsed)
    _check_walk_order(nodes)
    return Certificate(payload["claim"], nodes, axioms)


def _check_walk_order(nodes: Tuple[CertNode, ...]) -> None:
    """Refuse ``nodes`` unless the depth-first walk from the last one
    completes them in their own order and meets no link twice."""
    first: Dict[LinkId, int] = {}   # link -> index, over the completed nodes
    stack = [len(nodes) - 1]        # i enters node i, ~i completes it
    while stack:
        i = stack.pop()
        done = len(first)
        if i < 0:
            i = ~i
            link = nodes[i].link
            j = first.setdefault(link, done)
            if j != done:
                raise CertParseError(f"nodes[{i}].link: {link} is already "
                                     f"certified by nodes[{j}]")
            if i != done:
                raise CertParseError(f"nodes[{i}]: out of order; the walk "
                                     f"from the last node completes "
                                     f"nodes[{done}] here")
        elif i >= done:
            stack.append(~i)
            stack.extend(reversed(nodes[i].children))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

# The eight sign patterns of (q, s, t, l) certified directly; the other
# eight are their mirror images.  The two swap patterns first pass to the
# q-l, s-t swapped link, whose pattern is canonical.
_L_CANONICAL = {(1, 1, 1, 1), (-1, 1, -1, 1), (1, -1, 1, 1), (-1, -1, -1, 1),
                (1, 1, -1, 1), (1, -1, -1, -1), (1, -1, -1, 1), (-1, -1, 1, 1)}
_L_SWAP = {(1, 1, -1, 1), (1, -1, -1, -1)}

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
    family, res, p = link.family, link.resolution, link.params
    if family == "NAMED":
        return BASE, link.name
    if family == "A" and min(p) < 0:
        pattern = link.sign_pattern()
        if pattern in _ALTERNATING_A_PATTERNS:
            return BASE, "ALTERNATING"
        if pattern == (-1, -1, -1) and res == STAR3:
            return IDENTIFY, CIT_A_MIRROR
        return BASE, "REGIME_A"
    if family == "L" and res == STAR3:
        pattern = link.sign_pattern()
        if pattern not in _L_CANONICAL:
            return IDENTIFY, CIT_L_MIRROR
        # all-positive with t = 1: the swap moves s > 1 into the s = 1
        # regime and, at s = t = 1, puts the larger of q and l last
        if pattern in _L_SWAP or (pattern == (1, 1, 1, 1) and p[2] == 1
                                  and (p[1] > 1 or p[3] < p[0])):
            return IDENTIFY, CIT_L_SWAP
        if _match_alternating(link):
            return BASE, "ALTERNATING"
    if family == "A" and res == STAR3 and p[1] == 1 and p[2] < p[0]:
        return IDENTIFY, CIT_A_SYM
    if res in (STAR3, "0,*,*") and p == (1, 1, 1):
        if family == "A":
            return IDENTIFY, CIT_A_NAMED
        if family == "B":
            return IDENTIFY, CIT_B_NAMED
    for axiom in _BASES:
        if _MATCHES[axiom](link):
            return BASE, axiom
    if family == "L" and p[3] == 1:
        return IDENTIFY, CIT_L_IS_B
    rule = _RESOLVED.get((family, res))
    if rule is not None:
        return IDENTIFY, rule.citation
    return SKEIN, ""


def _nodes(root: LinkId) -> Tuple[CertNode, ...]:
    """The nodes of ``root``'s certificate in the order a depth-first walk
    from an explicit stack completes their links."""
    # link -> its node's index once the node is out, None while it is open
    done: Dict[LinkId, Optional[int]] = {}
    nodes: List[CertNode] = []
    # (link, None) enters a link, (link, (kind, label, det, children)) ends it
    stack: List[Tuple[LinkId, Optional[tuple]]] = [(root, None)]
    while stack:
        link, plan = stack.pop()
        if plan is None:
            index = done.get(link, -1)
            if index is None:
                raise GenerationError(f"{link} is reached again while it is "
                                      f"being certified")
            if index >= 0:
                continue
            kind, label = _step(link)
            det = expected_det(link)
            if kind == BASE:
                children, applies = (), _MATCHES[label](link)
            else:
                children = ((_identify(link, label),) if kind == IDENTIFY else
                            (_resolve_leftmost(link, "0"),
                             _resolve_leftmost(link, "inf")))
                applies = children[0] is not None
            if not applies:
                raise GenerationError(f"{kind} {label!r} does not apply to "
                                      f"{link}")
            done[link] = None
            stack.append((link, (kind, label, det, children)))
            stack.extend([(child, None) for child in reversed(children)])
            continue
        kind, label, det, children = plan
        kids = tuple(map(done.__getitem__, children))
        dets = [nodes[k].det for k in kids]
        if kind == IDENTIFY and det != dets[0]:
            raise GenerationError(f"identified determinants differ at "
                                  f"{link}: {det} != {dets[0]}")
        if kind == SKEIN and min(det, *dets) <= 0:
            raise GenerationError(f"resolution determinant vanishes at {link}")
        if kind == SKEIN and det != sum(dets):
            raise GenerationError(f"determinant additivity fails at {link}: "
                                  f"{det} != {dets[0]} + {dets[1]}")
        done[link] = len(nodes)
        nodes.append(CertNode(link, det, kind, label if kind == BASE else "",
                              label if kind == IDENTIFY else "", kids))
    return tuple(nodes)


def _generate(root: LinkId, extra: Set[str]) -> Certificate:
    """Certify ``root``: the claim is QUASI_ALTERNATING when every declared
    axiom asserts it (as ``verify`` requires), else L_SPACE."""
    nodes = _nodes(root)
    used = {node.axiom for node in nodes if node.kind == BASE}
    axioms = sorted((AXIOMS[n] for n in used | extra), key=lambda ax: ax.name)
    claim = (QUASI_ALTERNATING
             if all(ax.claim == QUASI_ALTERNATING for ax in axioms) else L_SPACE)
    return Certificate(claim, nodes, tuple(axioms))


def generate_A_cert(q: int, s: int, t: int) -> Certificate:
    """Certificate for the three-slot family at positive parameters: the link
    itself is quasi-alternating for s > 1; its double branched cover is an
    L-space for s = 1."""
    for name, value in (("q", q), ("s", s), ("t", t)):
        if value.__class__ is not int or value < 1:
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
        if value.__class__ is not int or value == 0:
            raise CertError(
                f"parameter {name} must be a nonzero integer, got {value!r}")
    link = LinkId.L(q, s, t, l)
    extra: Set[str] = set()
    if len(set(link.sign_pattern())) == 1 and abs(s) == abs(t) == 1:
        extra = {"T(3,5)", "P(2,-3,-4)"}
    return _generate(link, extra)
