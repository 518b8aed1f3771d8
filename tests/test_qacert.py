"""Tests for certificate generation, verification, and serialization."""

import contextlib
import hashlib
import itertools
import json
import pathlib
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bridgecover.goeritz import (TABLE_PARAMS, UnsupportedRegimeError,
                                 table_formula)
from bridgecover import qacert as qc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import worker  # noqa: E402  (the benchmark's certificate walk)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _children(tree):
    """``(slot, child)`` of each child of a node of the tree view."""
    return [(slot, getattr(tree, slot)) for slot in ("zero", "inf", "child")
            if getattr(tree, slot) is not None]


def _with_node(cert, i, repl):
    """The certificate with ``nodes[i]`` replaced by ``repl``."""
    return qc.Certificate(cert.claim, cert.nodes[:i] + (repl,)
                          + cert.nodes[i + 1:], cert.axioms)


def _with_child(cert, i, slot, k):
    """The certificate whose ``nodes[i]`` cites index ``k`` in ``slot``."""
    node = cert.nodes[i]
    slots = qc._NODE_FIELDS[node.kind][1]
    return _with_node(cert, i, node._replace(children=tuple(
        k if name == slot else c for name, c in zip(slots, node.children))))


def _cited(cert, i):
    """The nodes that ``nodes[i]`` cites, in slot order."""
    return [cert.nodes[k] for k in cert.nodes[i].children]


def iter_nodes(root):
    """Every node of the tree view under ``root`` with its path, in pre-order
    (zero, inf, child), from an explicit stack."""
    stack = [("root", root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend((f"{path}.{slot}", child)
                     for slot, child in reversed(_children(node)))


# -- generation: positive regimes ------------------------------------------

def test_a_certificates_accept_on_positive_grid():
    for q, s, t in itertools.product((1, 2, 3), repeat=3):
        cert = qc.generate_A_cert(q, s, t)
        want = qc.QUASI_ALTERNATING if s > 1 else qc.L_SPACE
        assert cert.claim == want, (q, s, t)
        assert qc.verify(cert), (q, s, t, str(qc.verify(cert)))


def test_a_cert_rejects_nonpositive_parameters():
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (-1, 1, 1), (1, -2, 1)):
        with pytest.raises(UnsupportedRegimeError):
            qc.generate_A_cert(*bad)


def test_a_cert_small_quasi_alternating_case():
    cert = qc.generate_A_cert(1, 2, 1)
    assert cert.claim == qc.QUASI_ALTERNATING
    assert qc.verify(cert)
    used = {n.axiom for n in cert.nodes if n.kind == qc.BASE}
    assert used == {"PETERS_QA"}


def test_a_cert_all_ones_grounds_at_named_torus_knot():
    cert = qc.generate_A_cert(1, 1, 1)
    assert cert.claim == qc.L_SPACE
    assert qc.verify(cert)
    bases = [n for n in cert.nodes if n.kind == qc.BASE]
    assert [b.link.name for b in bases] == ["T(3,4)"]
    declared = {ax.name for ax in cert.axioms}
    assert {"T(3,4)", "P(2,-3,-2)"} <= declared


def test_a_cert_skein_determinants_come_from_the_tables():
    cert = qc.generate_A_cert(2, 1, 3)
    assert cert.claim == qc.L_SPACE
    assert qc.verify(cert)
    skeins = [i for i, n in enumerate(cert.nodes) if n.kind == qc.SKEIN]
    assert skeins, "expected a nontrivial resolution tree"
    for i in skeins:
        for part in (cert.nodes[i], *_cited(cert, i)):
            if part.link.family == "NAMED":
                continue
            want = abs(table_formula(part.link.family, part.link.resolution,
                                     dict(zip(TABLE_PARAMS[part.link.family],
                                              part.link.params))))
            assert part.det == want, part.link


def test_l_certificates_accept_on_positive_grid():
    for q, s, t, l in itertools.product((1, 2), repeat=4):
        cert = qc.generate_L_cert(q, s, t, l)
        assert qc.verify(cert), (q, s, t, l)


def test_l_cert_all_ones_grounds_at_named_torus_knot():
    cert = qc.generate_L_cert(1, 1, 1, 1)
    assert cert.claim == qc.L_SPACE
    assert qc.verify(cert)
    bases = [n for n in cert.nodes if n.kind == qc.BASE]
    assert [b.link.name for b in bases] == ["T(3,5)"]
    assert {ax.name for ax in cert.axioms} == {"T(3,5)", "P(2,-3,-4)"}


def test_l_cert_s_and_t_large_is_quasi_alternating():
    cert = qc.generate_L_cert(1, 2, 2, 1)
    assert cert.claim == qc.QUASI_ALTERNATING
    assert qc.verify(cert)


def test_l_cert_rejects_zero_parameters():
    for bad in ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
        with pytest.raises(qc.CertError):
            qc.generate_L_cert(*bad)


# -- generation: sign regimes ----------------------------------------------

def test_alternating_regime_is_a_single_base_node():
    cert = qc.generate_L_cert(-1, 1, -1, 1)
    assert cert.claim == qc.QUASI_ALTERNATING
    assert cert.nodes[-1].kind == qc.BASE
    assert cert.nodes[-1].axiom == "ALTERNATING"
    assert qc.node_count(cert) == len(cert.nodes) == 1
    assert qc.verify(cert)


def test_expected_claims_per_sign_regime():
    cases = [
        ((2, 2, 2, 2), qc.QUASI_ALTERNATING),
        ((2, 1, 2, 2), qc.L_SPACE),
        ((2, 2, 1, 2), qc.L_SPACE),
        ((-1, 1, -1, 1), qc.QUASI_ALTERNATING),
        ((1, -1, 1, 1), qc.QUASI_ALTERNATING),
        ((-1, -1, -1, 1), qc.L_SPACE),
        ((1, 2, -2, 2), qc.QUASI_ALTERNATING),
        ((1, -2, -2, -2), qc.L_SPACE),
        ((1, -2, -2, 2), qc.L_SPACE),
        ((-2, -2, 2, 2), qc.L_SPACE),
        ((-1, -1, -1, -1), qc.L_SPACE),
        ((-2, -2, -2, -2), qc.QUASI_ALTERNATING),
    ]
    for params, want in cases:
        cert = qc.generate_L_cert(*params)
        assert cert.claim == want, params
        assert qc.verify(cert), (params, str(qc.verify(cert)))


def test_every_sign_pattern_produces_an_accepting_certificate():
    for signs in itertools.product((1, -1), repeat=4):
        for mags in ((1, 2, 1, 2), (2, 1, 2, 3)):
            params = tuple(sg * m for sg, m in zip(signs, mags))
            cert = qc.generate_L_cert(*params)
            assert qc.verify(cert), (params, str(qc.verify(cert)))


def test_mirror_regime_delegates_through_negated_parameters():
    cert = qc.generate_L_cert(-1, -1, -1, -1)
    assert cert.nodes[-1].kind == qc.IDENTIFY
    assert _cited(cert, len(cert.nodes) - 1)[0].link == qc.LinkId.L(1, 1, 1, 1)
    assert qc.verify(cert)


def test_swap_regime_reorients_before_the_length_induction():
    cert = qc.generate_L_cert(3, 1, 1, 2)
    assert cert.claim == qc.L_SPACE
    assert qc.verify(cert)


# -- verification: structural rejections -----------------------------------

def test_skein_determinant_increment_is_rejected_at_that_node():
    cert = qc.generate_L_cert(2, 1, 1, 1)
    skeins = [i for i, n in enumerate(cert.nodes) if n.kind == qc.SKEIN]
    assert skeins
    for i in skeins:
        node = cert.nodes[i]
        bumped = node._replace(det=node.det + 1)
        verdict = qc.verify(_with_node(cert, i, bumped))
        assert not verdict
        assert verdict.path == f"nodes[{i}]"


def test_quasi_alternating_claim_may_not_use_l_space_axioms():
    cert = qc.generate_A_cert(1, 1, 1)
    flipped = qc.Certificate(qc.QUASI_ALTERNATING, cert.nodes, cert.axioms)
    verdict = qc.verify(flipped)
    assert not verdict
    assert "not admissible" in verdict.reason


def test_undeclared_axiom_is_rejected():
    cert = qc.generate_L_cert(1, 1, 1, 1)
    stripped = qc.Certificate(cert.claim, cert.nodes, ())
    verdict = qc.verify(stripped)
    assert not verdict
    assert "not declared" in verdict.reason


def test_swapped_skein_children_are_rejected():
    cert = qc.generate_L_cert(2, 2, 2, 2)
    skeins = [i for i, n in enumerate(cert.nodes) if n.kind == qc.SKEIN]
    assert skeins
    for i in skeins:
        node = cert.nodes[i]
        swapped = node._replace(children=node.children[::-1])
        verdict = qc.verify(_with_node(cert, i, swapped))
        assert not verdict and verdict.path == f"nodes[{i}].zero"


def test_reference_cycles_are_rejected():
    """The list form of a cycle: a child that cites a later node, a node
    past the end, or the node itself."""
    link1 = qc.LinkId.A(2, 1, 3)
    link2 = qc.LinkId.A(3, 1, 2)
    id2 = qc.CertNode(link2, qc.expected_det(link2), qc.IDENTIFY,
                      citation=qc.CIT_A_SYM, children=(1,))
    id1 = qc.CertNode(link1, qc.expected_det(link1), qc.IDENTIFY,
                      citation=qc.CIT_A_SYM, children=(0,))
    for nodes in ((id2, id1), (id2,), (id2._replace(children=(0,)),)):
        cert = qc.Certificate(qc.L_SPACE, nodes, ())
        verdict = qc.verify(cert)
        assert not verdict
        assert verdict.path == "nodes[0].child"
        assert "expected the index of an earlier node" in verdict.reason
        with pytest.raises(qc.CertError, match=r"nodes\[0\]\.child: expected"):
            qc.serialize(cert)


def test_generation_that_reaches_a_link_again_inside_itself_fails(monkeypatch):
    # a step that sends A(2,1,3) and A(3,1,2) to each other forever
    monkeypatch.setattr(qc, "_step", lambda link: (qc.IDENTIFY, qc.CIT_A_SYM))
    with pytest.raises(qc.GenerationError, match="reached again"):
        qc.generate_A_cert(2, 1, 3)


def test_a_link_expanded_twice_is_rejected():
    """A link listed twice: each node listed again just before the root."""
    cert = qc.generate_L_cert(2, 2, 2, 2)
    last = len(cert.nodes) - 1
    for k, node in enumerate(cert.nodes[:last]):
        twice = qc.Certificate(cert.claim, cert.nodes[:last] + (node,)
                               + cert.nodes[last:], cert.axioms)
        verdict = qc.verify(twice)
        assert not verdict and verdict.path == f"nodes[{last}]", k
        assert verdict.reason == (f"{node.link} is already certified by "
                                  f"nodes[{k}]")
        with pytest.raises(qc.CertError, match=rf"already certified by "
                                               rf"nodes\[{k}\]"):
            qc.serialize(twice)


def test_leaf_nodes_with_children_are_rejected():
    cert = qc.generate_L_cert(2, 2, 2, 2)
    i, leaf = next((i, n) for i, n in enumerate(cert.nodes)
                   if n.kind == qc.BASE and i > 0)
    odd = _with_node(cert, i, leaf._replace(children=(0,)))
    verdict = qc.verify(odd)
    assert not verdict and verdict.path == f"nodes[{i}]"
    assert verdict.reason == "BASE nodes cite 0 children, got (0,)"
    with pytest.raises(qc.CertError, match=rf"nodes\[{i}\]: BASE nodes cite"):
        qc.serialize(odd)
    # a REF leaf is no entry of the list, with children or without
    for i, node in enumerate(cert.nodes):
        for ref in (qc.CertNode(node.link, node.det, qc.REF),
                    qc.CertNode(node.link, node.det, qc.REF, children=(0,))):
            odd = _with_node(cert, i, ref)
            verdict = qc.verify(odd)
            assert not verdict and verdict.path == f"nodes[{i}]"
            assert verdict.reason == "unknown node kind 'REF'"
            with pytest.raises(qc.CertError, match=rf"nodes\[{i}\]: unkn"):
                qc.serialize(odd)


def _first_of_each_kind(cert):
    """The index of the first node of each kind past the first three, so
    that the indices 0 to 2 cite earlier nodes."""
    return {kind: next(i for i, n in enumerate(cert.nodes)
                       if n.kind == kind and i > 2)
            for kind in qc._NODE_FIELDS}


def test_a_child_index_must_cite_an_earlier_node():
    """A child index that is no int, negative, the node itself, a later node
    or past the list is rejected at its slot by ``verify`` and refused by
    ``serialize``."""
    cert = qc.generate_L_cert(2, 2, 2, 2)
    for kind, i in _first_of_each_kind(cert).items():
        for slot in qc._NODE_FIELDS[kind][1]:
            for k in (1.0, True, "0", None, -1, i, i + 1, len(cert.nodes)):
                odd = _with_child(cert, i, slot, k)
                verdict = qc.verify(odd)
                assert not verdict and verdict.path == f"nodes[{i}].{slot}"
                assert verdict.reason == (f"expected the index of an earlier "
                                          f"node, got {k!r}")
                with pytest.raises(qc.CertError,
                                   match=rf"nodes\[{i}\]\.{slot}: expected"):
                    qc.serialize(odd)


def test_each_kind_cites_exactly_its_slot_count():
    cert = qc.generate_L_cert(2, 2, 2, 2)
    for kind, i in _first_of_each_kind(cert).items():
        node, count = cert.nodes[i], len(qc._NODE_FIELDS[kind][1])
        assert len(node.children) == count
        for children in (node.children + (0,), node.children[:-1],
                         list(node.children), (0, 1, 2)):
            if children == node.children:
                continue
            odd = _with_node(cert, i, node._replace(children=children))
            verdict = qc.verify(odd)
            assert not verdict and verdict.path == f"nodes[{i}]", children
            assert verdict.reason == (f"{kind} nodes cite {count} children, "
                                      f"got {children!r}")
            with pytest.raises(qc.CertError,
                               match=rf"nodes\[{i}\]: {kind} nodes cite"):
                qc.serialize(odd)


def test_bool_parameters_are_refused():
    with pytest.raises(UnsupportedRegimeError):
        qc.generate_A_cert(True, 1, 1)
    with pytest.raises(qc.CertError):
        qc.generate_L_cert(1, 1, True, 1)
    verdict = qc.verify(_t34_then(qc.LinkId("A", (True, 1, 1), "*,*,*")))
    assert not verdict and verdict.path == "nodes[1]"
    assert verdict.reason == "parameter q must be a nonzero integer"


def _t34_then(link):
    """T(3,4), then ``link`` identified with it under Lemma 5.3(6)."""
    nodes = (qc.CertNode(qc.LinkId.named("T(3,4)"), 3, qc.BASE, axiom="T(3,4)"),
             qc.CertNode(link, 3, qc.IDENTIFY, citation=qc.CIT_A_NAMED,
                         children=(0,)))
    return qc.Certificate(qc.L_SPACE, nodes, (qc.AXIOMS["T(3,4)"],))


def test_a_link_of_the_wrong_shape_is_rejected_not_raised():
    """A link that is no LinkId, whose parameters are no tuple of ints of
    its family's length (the name-value pairs among them), or whose other
    fields are of the wrong type, is rejected at its node."""
    assert qc.verify(_t34_then(qc.LinkId.A(1, 1, 1)))
    pairs = (("q", 1), ("s", 1), ("t", 1))
    for link in (tuple(qc.LinkId.A(1, 1, 1)), "A(q=1, s=1, t=1; *,*,*)", None,
                 qc.LinkId("A", pairs, "*,*,*"),
                 qc.LinkId("A", list(pairs), "*,*,*"),
                 qc.LinkId("A", [1, 1, 1], "*,*,*"),
                 qc.LinkId("A", (1, 1), "*,*,*"),
                 qc.LinkId("A", (1, 1, 1, 1), "*,*,*"),
                 qc.LinkId("A", 1, "*,*,*"),
                 qc.LinkId("NAMED", (1,), name="T(3,4)"),
                 qc.LinkId(["A"], (1, 1, 1), "*,*,*"),
                 qc.LinkId("A", (1, 1, 1), ["*", "*", "*"]),
                 qc.LinkId("A", (1, 1, 1), 7),
                 qc.LinkId("A", (1, 1, 1), "*,*,*", []),
                 qc.LinkId("NAMED", (), [], "T(3,4)"),
                 qc.LinkId("NAMED", name=["T(3,4)"])):
        verdict = qc.verify(_t34_then(link))
        assert not verdict and verdict.path == "nodes[1]", link
        assert str(verdict).startswith("REJECT at nodes[1]: "), link


def test_malformed_resolution_is_rejected_not_crashed():
    link = qc.LinkId("A", (1, 1, 1), "0,banana,*")
    node = qc.CertNode(link, 3, qc.BASE, axiom="T(3,4)")
    cert = qc.Certificate(
        qc.L_SPACE, (node,),
        (qc.AxiomDecl("T(3,4)", qc.L_SPACE, "Claim 5.6 proof"),))
    verdict = qc.verify(cert)
    assert not verdict
    assert "resolution" in verdict.reason


def test_non_canonical_resolution_text_is_rejected():
    link = qc.LinkId("A", (1, 1, 1), "0, *,*")
    cert = qc.Certificate(qc.L_SPACE, (qc.CertNode(link, 4, qc.BASE,
                                                    axiom="A_0_STAR_STAR_S1"),),
                          (qc.AxiomDecl("A_0_STAR_STAR_S1", qc.L_SPACE,
                                        qc.AXIOMS["A_0_STAR_STAR_S1"].citation),))
    verdict = qc.verify(cert)
    assert not verdict and "canonical" in verdict.reason
    assert qc.LinkId.A(1, 1, 1, "0, *,*").resolution == "0,*,*"


def _resolve_leftmost_by_slots(link, slot):
    """The slot-list version of ``qc._resolve_leftmost``: split the text at
    the commas, replace the first ``*`` slot and join again."""
    slots = link.resolution.split(",")
    if "*" not in slots:
        return None
    slots[slots.index("*")] = slot
    return qc.LinkId(link.family, link.params, ",".join(slots))


def test_resolve_leftmost_matches_the_slot_list_version():
    links = [qc.LinkId.A(2, 3, 4), qc.LinkId.B(2, -1, 3),
             qc.LinkId.L(1, 2, -3, 4)]
    for link in links:
        for slots in itertools.product(("*", "0", "inf"), repeat=3):
            res = link._replace(resolution=",".join(slots))
            for slot in ("0", "inf"):
                assert (qc._resolve_leftmost(res, slot)
                        == _resolve_leftmost_by_slots(res, slot)), (res, slot)


# -- repeated links --------------------------------------------------------

def _shared_nodes(payload):
    """Indices of the nodes that two or more later nodes refer to."""
    counts = {}
    for node in payload["nodes"]:
        for key in ("zero", "inf", "child"):
            if key in node:
                counts[node[key]] = counts.get(node[key], 0) + 1
    return [i for i, n in sorted(counts.items()) if n > 1]


@pytest.mark.parametrize("value", [True, 1.0])
def test_a_non_integer_parameter_at_a_repeated_link_is_a_parse_error(value):
    text = qc.serialize(qc.generate_L_cert(2, 2, 2, 2))
    payload = json.loads(text)
    later = [i for i in _shared_nodes(payload)
             if 1 in payload["nodes"][i]["link"].get("params", {}).values()]
    assert later
    for i in later:
        params = payload["nodes"][i]["link"]["params"]
        name = next(k for k, v in params.items() if v == 1)
        params[name] = value
        with pytest.raises(qc.CertParseError) as info:
            qc.deserialize(json.dumps(payload))
        assert str(info.value) == (f"nodes[{i}]: parameter {name} must be "
                                   f"a nonzero integer")
        params[name] = 1
    assert qc.deserialize(json.dumps(payload)) == qc.deserialize(text)


def test_each_distinct_link_is_tabulated_once(monkeypatch):
    calls = []
    real = qc.table_row
    monkeypatch.setattr(qc, "table_row", lambda *args: (
        calls.append(args) or real(*args)))
    cert = qc.generate_A_cert(1, 1, 110)
    links = {node.link for node in cert.nodes if node.link.family != "NAMED"}
    assert len(links) == 1420
    assert len(calls) == len(links)
    calls.clear()
    assert qc.verify(cert)
    assert len(calls) == len(links)


# -- exhaustive single-field mutation soundness ----------------------------

def test_single_field_mutations_always_reject():
    samples = [qc.generate_A_cert(2, 1, 1),
               qc.generate_L_cert(1, 1, 1, 1),
               qc.generate_L_cert(1, 2, 2, 1)]
    tried = 0
    for cert in samples:
        assert qc.verify(cert)
        for i, node in enumerate(cert.nodes):
            for det in (node.det + 1, node.det - 1, node.det + 997):
                tried += 1
                assert not qc.verify(_with_node(cert, i,
                                                node._replace(det=det))), i
            if node.kind == qc.BASE:
                for other in qc.AXIOMS:
                    if other == node.axiom:
                        continue
                    tried += 1
                    assert not qc.verify(
                        _with_node(cert, i, node._replace(axiom=other))), \
                        (i, other)
            # each child slot citing each other earlier node: every link
            # is listed once, so that node's link is not the one required
            for slot, k in zip(qc._NODE_FIELDS[node.kind][1], node.children):
                for other in range(i):
                    if other != k:
                        tried += 1
                        odd = _with_child(cert, i, slot, other)
                        assert not qc.verify(odd), (i, slot, other)
    assert tried > 500


# -- serialization ---------------------------------------------------------

def test_a_text_field_the_kind_does_not_use_is_refused():
    cert = qc.generate_A_cert(1, 1, 1)
    assert cert.nodes[0].kind == qc.BASE
    odd = _with_node(cert, 0, cert.nodes[0]._replace(citation="anything"))
    assert str(qc.verify(odd)) == \
        "REJECT at nodes[0]: BASE nodes carry no citation"
    with pytest.raises(qc.CertError, match="BASE nodes carry no citation"):
        qc.serialize(odd)


def test_serialize_round_trip_and_stability():
    for params in ((1, 1, 1, 1), (2, 2, 2, 2), (-1, 1, -1, 1), (1, -2, 2, -1)):
        cert = qc.generate_L_cert(*params)
        text = qc.serialize(cert)
        assert text == qc.serialize(cert)
        back = qc.deserialize(text)
        assert back == cert
        assert qc.serialize(back) == text
        assert qc.verify(back)


def test_golden_certificate_bytes():
    want = (GOLDEN / "cert_L1111.json").read_bytes()
    got = qc.serialize(qc.generate_L_cert(1, 1, 1, 1)).encode()
    assert got == want


# SHA-256 of serialize(...) for every sign class at three magnitudes and the
# A family on {1,2,3}^3, frozen when the format became the flat node list
# (``_PROOF_DIGESTS`` pins that the proofs did not change with it).
_FROZEN_DIGESTS = {
    ("L", (1, 2, 1, 2)):
        "f6092a3f821e2bec813372edc45556463d2154c4c907e74ff03d9d551d6456b8",
    ("L", (1, 2, 1, -2)):
        "a545e2ffa9a609ae6edfb822bb56a5953a4e2f5a4b5a907a18bc6abf7bca4782",
    ("L", (1, 2, -1, 2)):
        "ccab07d97aaa91fdd1432fc3ac5661c6246ce6677519f9d7be9e9a19114c5b13",
    ("L", (1, 2, -1, -2)):
        "767cff301e38eef5ac72b7a45dd79f39e153fefdae6dd54faec63f8bf038b026",
    ("L", (1, -2, 1, 2)):
        "bf5d196377a56a8c27edf0c19ee55428e3f090a6cc0f986d25a5a6fbcf6c6c8d",
    ("L", (1, -2, 1, -2)):
        "6b73c8d68f0b8a25eed2835b3705e78a4c1fbeaf39308076c7a6d40b91ded789",
    ("L", (1, -2, -1, 2)):
        "92e7650956a29e4c58e75b38d818a463f9eb36b34282bd584e20e605f89e3956",
    ("L", (1, -2, -1, -2)):
        "f5ef9956016e846567dd7c23d78cd409535949d566a9bf9b1d6db725e1ee5282",
    ("L", (-1, 2, 1, 2)):
        "dd0113090650f8ca5322b31cd5d7bc18ac7245f6e5c08bcdf6e32d664dc51f19",
    ("L", (-1, 2, 1, -2)):
        "96df47d3c157379e4f7a5b12b8a9cad2363af3cda524501ea05c0a4ad6496b2d",
    ("L", (-1, 2, -1, 2)):
        "8418a4df8086dd5cb5784de08023e6a414b28e97aad6038cb4218ea6df227a24",
    ("L", (-1, 2, -1, -2)):
        "6d07a2f72c4b4a459fbf93651c9507410b784ee9d80cbdc0b66f6ae39ae14507",
    ("L", (-1, -2, 1, 2)):
        "9c967822bd900d8e1795a3c54a10ed39a518a4712e37950f133c6001375eb0db",
    ("L", (-1, -2, 1, -2)):
        "3ce57145b22a21b765e5ccdce5d42a71d410373694b148b6b6f8b8518e0188c2",
    ("L", (-1, -2, -1, 2)):
        "14ed354790a495c33d83baee0603fc96da776bbde0a4a71a19f77f67f9428139",
    ("L", (-1, -2, -1, -2)):
        "3e87da47cb04a72b39063feb91499c5fe30654a2298cf041dfdaae514f38d064",
    ("L", (2, 1, 2, 3)):
        "c0f0cf0907633817d95e5876535a446fbcd6cc100964d35911b9bbfaaec1f020",
    ("L", (2, 1, 2, -3)):
        "497c8ec9c5e6b391e365ff650b7a2c4a5e14f9c4f5b93c360dea9cce1d4529d1",
    ("L", (2, 1, -2, 3)):
        "10eb09195dbe29ea698bc4b779936a820b3257167f5be938e30ac5ddd5978d5f",
    ("L", (2, 1, -2, -3)):
        "8e224e329a0fb96ea8c89a4002049bfb462df211f6ce8b5585cf0d3d0a51969d",
    ("L", (2, -1, 2, 3)):
        "46b7d0ada08a46d87a1f9d08de5e1fda04e0b65b998c344b8183f7281fc0ac69",
    ("L", (2, -1, 2, -3)):
        "cfabdf210eef9b60fcbd8a3cb7c560cd558b7c8aca7233cdec7148f10e9ec2d6",
    ("L", (2, -1, -2, 3)):
        "97efd22ceba02c24dc2cd0c78ab55ef4670b1a203816a9a519a557cdbdebef29",
    ("L", (2, -1, -2, -3)):
        "fc6c6b910f1f87f37ac085f7b12115abd1177808c82f487837b7eb07e1e3c79c",
    ("L", (-2, 1, 2, 3)):
        "9ba50d20b0c60b0181e19cba2d51b975be14773488f63d055309211e46116de0",
    ("L", (-2, 1, 2, -3)):
        "f22a121d9fe8e6d89c62f5e0b43670d7f4f8daf54f6a6579cb1b38eeacbe9af7",
    ("L", (-2, 1, -2, 3)):
        "603de83681d8df7cf3851d1176fc8c660b744ea484cc9ae2bf3392f340947b33",
    ("L", (-2, 1, -2, -3)):
        "27f0f20d3e828ed7b81c4f8a3668cfbf5fc4dba085a9ab003d2cb83f2983ebec",
    ("L", (-2, -1, 2, 3)):
        "090f31df02ea9850318c54cf780b46e4e7c848f6540553cbc5606e6c1316f942",
    ("L", (-2, -1, 2, -3)):
        "7e2a68eea0023cf56e2a416c2ab33af68de9d2c351d8d227c2814a7964ac9a8a",
    ("L", (-2, -1, -2, 3)):
        "5186a95c1e7ccde9d8e915f5dce5d527b211f2df03fc892df275be49b8d48f2a",
    ("L", (-2, -1, -2, -3)):
        "700adf4508986cc636aec122d7075c7354dfadb3084cde6a249cd02697b7da8a",
    ("L", (3, 3, 3, 3)):
        "01f20b69019065bbecab90893d2c9fc136871438cac3ecc4a09b09bade24e6c2",
    ("L", (3, 3, 3, -3)):
        "07c0b8623c642b8f17d50d8445e8f231c2e5f7b3e7da333b6ea42c0c4e363b97",
    ("L", (3, 3, -3, 3)):
        "d0d823bd9cd62b22f4356ad422cba54a0108a230a3df0a1c4d695ffcda581ccf",
    ("L", (3, 3, -3, -3)):
        "d23875efc2c581315374e88402c0cf5784957a29a1281a250b7e787bccb80452",
    ("L", (3, -3, 3, 3)):
        "39bd4b5424278cb195e04196cde335839e6ea1c4cd3bdc4f6f61e5eaa7f90dc3",
    ("L", (3, -3, 3, -3)):
        "fd8c60d269c46d69d829fca46c584d3017676a8cd8be0cc5c355a7b3194cfcc3",
    ("L", (3, -3, -3, 3)):
        "ac4c99e51e636a1a8510d816491be78903c329e90970b5948c4b71a745354673",
    ("L", (3, -3, -3, -3)):
        "e1ae15c3fbc507a5455228fa7c8e36c89495dadbb5c36f2fa166ed7509ded5f1",
    ("L", (-3, 3, 3, 3)):
        "8aaf3cbc1a72e147543bb71b8e46b75e70b53157f1abea071275d7c98b6750ef",
    ("L", (-3, 3, 3, -3)):
        "9805aca5ae7341f265acd64ed5ee3a0cf03ef0b7c999558f85b36ee98de61e26",
    ("L", (-3, 3, -3, 3)):
        "ad4e2840f28a7318ceaac477bf1c90e609074b30ceac2d9b155c2714291bf788",
    ("L", (-3, 3, -3, -3)):
        "7905fc2c8aac5af2b628f7e6deb880929aa2597e8c6782f2184df1edb5bec63c",
    ("L", (-3, -3, 3, 3)):
        "beb81d73f6c8d22e153dc35074dfcc45efc9c31692406ed45383e368df2ba47d",
    ("L", (-3, -3, 3, -3)):
        "804116995bf87befccba450c750d3e531d3f40e3c7495917f65b4b575807f394",
    ("L", (-3, -3, -3, 3)):
        "94f987cd9ce6f35ba07b6407aa851fad6a49b1551a0192076bf64ef1ed511858",
    ("L", (-3, -3, -3, -3)):
        "2009626e26bcb73d675d6d0d5a93aca6aee8182d9636e4c5cc05eeb4297820a4",
    ("A", (1, 1, 1)):
        "080a272683d59be4a0db15d8aa0ebf12f158a9e06008a538f570d63f484be9fc",
    ("A", (1, 1, 2)):
        "1582ddfabc5674860de1ede6b8926f7320484af5792f46276b2dfed9cd44c963",
    ("A", (1, 1, 3)):
        "25dae98b18e61a0cb65f30378d9b9cdbe630f5bb0bb469ecc76fedb0a077e545",
    ("A", (1, 2, 1)):
        "95a7411ea9af41fc3e43f46e1fa430a70932f536ca70a56db184b8ba6000cc1e",
    ("A", (1, 2, 2)):
        "3c54d34d377b28718217228eb54e1ded45d05cab77897dbcfbb858da4854457b",
    ("A", (1, 2, 3)):
        "7ae890048b9dcd41f04f42ef138b3c4c38255fec7ef00d0499f1b1ed8b443e83",
    ("A", (1, 3, 1)):
        "15782cfe2dc6cf1cc324e4b6bd3bf2a8a2748a18040ec85f42933a3d42940f0f",
    ("A", (1, 3, 2)):
        "01945a960a24694a4334ac896a26316cd266909c4437e5adb29b6a71594886ac",
    ("A", (1, 3, 3)):
        "4da9b0d1aa37ef290a5a24d1dac29d23e869da87b3a0b4303a997eea65b2b64c",
    ("A", (2, 1, 1)):
        "175d5e7f3c5071cad7efb4d8bdd515ff2a598a6f1e8accc36d07b2add62ab34f",
    ("A", (2, 1, 2)):
        "dc79492433f28f55b3a45c33ad95692c4d42bd112928fec97f9648d0b9c6dc29",
    ("A", (2, 1, 3)):
        "677b636202589f97f57f6f8f6718b7aec8e5f8b64a98b7fba5e4c5f30cc2d90c",
    ("A", (2, 2, 1)):
        "1a61dd221e9e1fe02e2a77d2f26de0a095f2e359b9556d9548533a5888b4b0e3",
    ("A", (2, 2, 2)):
        "719bab8c8c074e412987db0b5c2d3841434fcd60d5244d2d92c60fb31ab098cd",
    ("A", (2, 2, 3)):
        "1f2c920262e5eb8c9a7dbd65c5f8771cc9187ead53673d885dd556f582f23d76",
    ("A", (2, 3, 1)):
        "0b3b641ebc6e3faed5affa25f70ffb7f70571451e5a5bc1e67eca4691d731a73",
    ("A", (2, 3, 2)):
        "e2d640bf8a4ec9b6af7b5ef28032763243c410be4f447c6afb29cac36b2fa164",
    ("A", (2, 3, 3)):
        "55c564a213d54d7de4e34cf604daf3feceac2c8613226931f7118d5394131e1d",
    ("A", (3, 1, 1)):
        "4f0c4925c41257db19d6967fcd2a410ac88f43af1ed7ca33e1ecbe080335ab08",
    ("A", (3, 1, 2)):
        "3ddea5d8f1f1113fb7c59bf1f6fee344adf82c145fd92243946078b315dbc643",
    ("A", (3, 1, 3)):
        "f6593f0f7539dbe2cf7b01daa5d4455bcc7b2b7d027eeccc6066f647ae91593d",
    ("A", (3, 2, 1)):
        "46ccf260966388f91a37fce2893b3750c8b36c5f6559bc8fa050829a3cf9c492",
    ("A", (3, 2, 2)):
        "b411840ba4862f8b849611d8b5d164fe552fd4313a89c499e2b92ab926b1ed5c",
    ("A", (3, 2, 3)):
        "55fd18b0e7cebc7c2f87e4d14f1f0a496787325cb85d2799f05aaf73f08ff600",
    ("A", (3, 3, 1)):
        "ca3c8650eb1fec5d36dd08d30109d7c9d75ffe4c4b6130064519f74681d395cb",
    ("A", (3, 3, 2)):
        "d9459eac6ee570947a981eb50d733454e66b1f9061ebaf78c082435bf0967ef9",
    ("A", (3, 3, 3)):
        "47b58307c5497e44a676b0d477667133d8c394c180bb24350b0bc30b9408771f",
}


def test_certificate_bytes_match_the_frozen_digests():
    for (family, params), want in _FROZEN_DIGESTS.items():
        generate = qc.generate_A_cert if family == "A" else qc.generate_L_cert
        text = qc.serialize(generate(*params))
        assert hashlib.sha256(text.encode()).hexdigest() == want, (family, params)


def _digest_certificates():
    for family, params in _FROZEN_DIGESTS:
        generate = qc.generate_A_cert if family == "A" else qc.generate_L_cert
        yield generate(*params)


def _recursive_iter_nodes(node, path="root"):
    """The recursive pre-order walk of ``iter_nodes``."""
    yield path, node
    for attr in ("zero", "inf", "child"):
        sub = getattr(node, attr)
        if sub is not None:
            yield from _recursive_iter_nodes(sub, path + "." + attr)


def test_iter_nodes_matches_the_recursive_pre_order():
    """The tree view under the root holds each listed node once, and a
    ``REF`` leaf with the cited node's link and determinant at every other
    citation: ``node_count`` nodes in all."""
    deep = qc.generate_A_cert(1, 1, 110)
    for cert in [*_digest_certificates(), deep]:
        tree = list(iter_nodes(cert.root))
        assert tree == list(_recursive_iter_nodes(cert.root))
        listed = {n.link: n for n in cert.nodes}
        expanded = [n for _, n in tree if n.kind != qc.REF]
        assert len(expanded) == len(listed)
        assert {n.link: n[:5] for n in expanded} == \
            {link: n[:5] for link, n in listed.items()}
        assert all(n.det == listed[n.link].det for _, n in tree)
        assert len(tree) == qc.node_count(cert)
    assert qc.node_count(deep) == 2074


def test_serialize_runs_below_the_certificate_depth():
    cert = qc.generate_A_cert(1, 1, 110)
    want = qc.serialize(cert)
    assert _depth(cert.root) == 438
    with _recursion_limit(50):
        text = qc.serialize(cert)
    assert text == want


def test_deserialize_accepts_bytes():
    cert = qc.generate_A_cert(1, 2, 1)
    assert qc.deserialize(qc.serialize(cert).encode()) == cert


def test_truncated_input_is_a_parse_error_with_location():
    text = qc.serialize(qc.generate_L_cert(1, 1, 1, 1))
    with pytest.raises(qc.CertParseError, match="line"):
        qc.deserialize(text[:len(text) // 2])


def test_parse_errors_carry_the_field_location():
    good = json.loads(qc.serialize(qc.generate_L_cert(1, 1, 1, 1)))

    def edited(change):
        doc = json.loads(json.dumps(good))
        change(doc)
        return json.dumps(doc)

    cases = [
        (lambda d: d["nodes"][2].pop("det"), r"nodes\[2\]: expected the fields"),
        (lambda d: d["nodes"].__setitem__(2, [1]), r"nodes\[2\]\.kind"),
        (lambda d: d["nodes"][1].update(det="seven"), r"nodes\[1\]\.det"),
        (lambda d: d["nodes"][1].update(det="01"), r"nodes\[1\]\.det"),
        (lambda d: d["nodes"][2].update(kind="GUESS"), r"nodes\[2\]\.kind"),
        (lambda d: d["nodes"][2].update(kind="REF"), r"nodes\[2\]\.kind"),
        (lambda d: d["nodes"][2].update(link={"family": "Z", "params": {},
                                              "resolution": "*,*,*"}),
         r"nodes\[2\]\.link\.family"),
        (lambda d: d["nodes"][2]["link"]["params"].update(x=5),
         r"nodes\[2\]\.link\.params"),
        (lambda d: d["nodes"][2]["link"].update(resolution="*, *,*"),
         r"nodes\[2\]: resolution .* canonical"),
        (lambda d: d["nodes"][2].update(extra=1), r"nodes\[2\]: expected"),
        (lambda d: d.update(root=0), "certificate: expected the fields"),
        (lambda d: d.update(nodes=[]), "non-empty list"),
        (lambda d: d["axioms"][0].update(name=7), r"axioms\[0\]\.name"),
    ]
    for change, where in cases:
        with pytest.raises(qc.CertParseError, match=where):
            qc.deserialize(edited(change))
    with pytest.raises(qc.CertParseError):
        qc.deserialize("[1, 2, 3]")


def _node_list(nodes, claim=qc.L_SPACE, axioms=("T(3,4)",)):
    decls = [{"name": n, "claim": qc.AXIOMS[n].claim,
              "citation": qc.AXIOMS[n].citation} for n in axioms]
    return json.dumps({"axioms": decls, "claim": claim, "nodes": nodes})


def _a111_nodes():
    """The node list of generate_A_cert(1, 1, 1): T(3,4), then A(1,1,1)."""
    return json.loads(qc.serialize(qc.generate_A_cert(1, 1, 1)))["nodes"]


def test_the_parser_takes_only_the_canonical_node_list():
    base, top = _a111_nodes()
    unknot = {"axiom": "UNKNOT", "det": "1", "kind": "BASE",
              "link": {"family": "NAMED", "name": "UNKNOT"}}
    assert qc.verify(qc.deserialize(_node_list([base, top])))
    split = json.loads(qc.serialize(qc.generate_A_cert(1, 2, 1)))["nodes"]
    assert (split[2]["zero"], split[2]["inf"]) == (0, 1)
    cases = [
        ([base, dict(top, child=1)], r"nodes\[1\]\.child: expected the index "
                                     r"of an earlier node, got 1"),
        ([base, dict(top, child=-1)], r"nodes\[1\]\.child"),
        ([base, dict(top, child=True)], r"nodes\[1\]\.child"),
        ([split[0], split[0], *split[2:]], r"nodes\[1\]: .* already "
                                           r"certified by nodes\[0\]"),
        # node 0 is referenced by no later node
        ([unknot, base, dict(top, child=1)], r"nodes\[1\]: out of order; the "
                                             r"walk .* completes nodes\[0\]"),
        ([top], r"nodes\[0\]\.child"),
    ]
    for nodes, message in cases:
        with pytest.raises(qc.CertParseError, match=message):
            qc.deserialize(_node_list(nodes, axioms=("T(3,4)", "UNKNOT")))


def test_a_node_list_out_of_walk_order_is_a_parse_error():
    doc = json.loads(qc.serialize(qc.generate_A_cert(1, 2, 1)))
    nodes = doc["nodes"]
    # the first skein split has two base children, nodes 0 and 1; listed
    # the other way round the proof is the same, but not in walk order
    assert nodes[2]["kind"] == qc.SKEIN
    assert (nodes[2]["zero"], nodes[2]["inf"]) == (0, 1)
    swapped = [nodes[1], nodes[0], dict(nodes[2], zero=1, inf=0), *nodes[3:]]
    with pytest.raises(qc.CertParseError, match=r"nodes\[1\]: out of order"):
        qc.deserialize(json.dumps(dict(doc, nodes=swapped)))


def test_absurdly_nested_json_is_a_parse_error():
    with pytest.raises(qc.CertParseError):
        qc.deserialize("[" * 200000 + "]" * 200000)


def test_hand_written_unknot_certificate_accepts():
    text = json.dumps({
        "claim": "QUASI_ALTERNATING",
        "axioms": [{"name": "UNKNOT", "claim": "QUASI_ALTERNATING",
                    "citation": "Definition 2.3(1)"}],
        "nodes": [{"link": {"family": "NAMED", "name": "UNKNOT"},
                   "det": "1", "kind": "BASE", "axiom": "UNKNOT"}],
    })
    cert = qc.deserialize(text)
    assert qc.verify(cert)


# -- size growth -----------------------------------------------------------

def test_certificate_size_is_affine_in_the_length_parameter():
    counts = [qc.node_count(qc.generate_L_cert(2, 2, 2, l))
              for l in range(2, 8)]
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1


def test_certificate_size_is_linearly_bounded():
    for q, s, t, l in itertools.product((1, 2, 3), repeat=4):
        cert = qc.generate_L_cert(q, s, t, l)
        assert qc.node_count(cert) <= 40 * (q + s + t + l)


# -- format and size -------------------------------------------------------

def test_the_node_list_is_hash_consed_and_small():
    golden = (GOLDEN / "cert_L1111.json").read_text()
    deep = qc.generate_A_cert(1, 1, 110)
    texts = [golden, qc.serialize(deep),
             qc.serialize(qc.generate_L_cert(40, 40, 40, 40))]
    for text in texts:
        nodes = json.loads(text)["nodes"]
        links = {json.dumps(n["link"], sort_keys=True) for n in nodes}
        assert len(links) == len(nodes)
        assert len(text.encode()) <= 300 * len(nodes)
        # one node a line, written by the compact encoder
        lines = text.splitlines()[1:-1]
        assert [json.loads(line.rstrip(",")) for line in lines] == nodes
    assert len(texts[1].encode()) < 400_000
    assert qc.node_count(deep) == 2074
    assert len(json.loads(texts[1])["nodes"]) == 1422


# -- proof facts -----------------------------------------------------------

# ``_proof_digest`` of the certificates of ``_FROZEN_DIGESTS``, of
# A(1,1,110) and of L(+-2, +-2, +-2, +-2) in all 16 sign classes, frozen from
# the nested-format generator: the node list proves the same facts.
_PROOF_DIGESTS = {
    ("L", (1, 2, 1, 2)):
        "467803d7353c1c3932093cf559c3da46fb32daeee66f296febe75f7cb729eb54",
    ("L", (1, 2, 1, -2)):
        "1bfc97ba2fb108d5eed6e71127161c05fb4e0639957bfb996763b6e44f8e384f",
    ("L", (1, 2, -1, 2)):
        "1d21e257227fd1d0877307ce6772deed47ed471d2ebffb79fb78bff39f14a88a",
    ("L", (1, 2, -1, -2)):
        "c1086e17c1db07b2604f4227e9fec013b00094fb9d5c4181ccb0aa99f74f703c",
    ("L", (1, -2, 1, 2)):
        "386a4ba512f6bf1a82cde32b2a286c83354e60a57536ec433e5e8626de3b1be3",
    ("L", (1, -2, 1, -2)):
        "b7630a778d0da73f4814043b99b2b19392bfad4610fe481ee1e5b8d148b57945",
    ("L", (1, -2, -1, 2)):
        "5ad66341f806c662970949701de14d04641d2aa2c5c83e035e79781de10ad2cf",
    ("L", (1, -2, -1, -2)):
        "2725051e8825d985f32ec45aeb5f0cf0d2b9b01fbed2ebf52072e83395d22d53",
    ("L", (-1, 2, 1, 2)):
        "8c73527debceb1532515e7a2f7c0524611acb3a22c66a12bf0c19a83ab6b8412",
    ("L", (-1, 2, 1, -2)):
        "1db4ef7d8abef70276a7fdd54f63cf83528e79efbb36eee6628a52ca731cc01e",
    ("L", (-1, 2, -1, 2)):
        "ece8e5e019c7cab1dee83b6a91a9f8c0979c6d7c2b9705bd1d6122efe55c6707",
    ("L", (-1, 2, -1, -2)):
        "f26d0e43a3ff847d6608965c63df3643e1220384358df44bcca959d547d6d16f",
    ("L", (-1, -2, 1, 2)):
        "d1a3d1271d6e6a8af9554f6a08343404b07f9e89f20cbfb47c3febba17377d69",
    ("L", (-1, -2, 1, -2)):
        "28f0f98613cb87e1e3c88d6e3e7e40d30546a4ea8ddd18b9d86ac649dda41b3e",
    ("L", (-1, -2, -1, 2)):
        "282c3ffdecaef1c8adeec947b08791c415ef1b5fe656d25da6422832f32d5e71",
    ("L", (-1, -2, -1, -2)):
        "74253bce2523ef500ffbc29c21c472aea1a52b7f3f82b77b31ab7749621722c6",
    ("L", (2, 1, 2, 3)):
        "bd77b0e3ac249ada787313927c355c06b5d96123df17e6455723615de93c17dd",
    ("L", (2, 1, 2, -3)):
        "08e57710db0be1523382887d340e72a8b1165d3ad43e7d635dd69c32830bbee0",
    ("L", (2, 1, -2, 3)):
        "7d42616f495eaa27d6730706019ab5a51f022c56bc597edcc8122a0bce05ef0c",
    ("L", (2, 1, -2, -3)):
        "a951f8231e3caff61cf103961157b3dd1baa7f8492260537a7aa339eccbedc23",
    ("L", (2, -1, 2, 3)):
        "1da5d280016d71524d719360ce77141644689869718669a315f49a05aac51e6a",
    ("L", (2, -1, 2, -3)):
        "25425265035aa7316a8261dfe01fd92447493a57ac05dffe1f0cf13ea5ad83d6",
    ("L", (2, -1, -2, 3)):
        "53d2fa672488e6a51f169bd23ab17835433d37b99b8e99e90791d8261bc8383a",
    ("L", (2, -1, -2, -3)):
        "00d675bb3e70ed33307cbb67133c91297e9e88fff2ee64a7770eb3bce89b45f0",
    ("L", (-2, 1, 2, 3)):
        "49db9d2b83f8210eeda33a9c3030d11f5d4c4018c3697eb12140713ba5d96857",
    ("L", (-2, 1, 2, -3)):
        "712dc05e93970114bb72dcf39bc9957749d11925749c8738c47f7c0fa712d474",
    ("L", (-2, 1, -2, 3)):
        "fdc6c558613af711e3a1e95e074657e5bf962ab974c5022d04848ee8a57cd8a2",
    ("L", (-2, 1, -2, -3)):
        "fd01504c22aa1422d631285f43a8287b58d81900cb80cffac4e44467e808e6ab",
    ("L", (-2, -1, 2, 3)):
        "ee0acd62d48070eee1a3c88c9e6fc6d362476aca8ff513f23c4e1d908aaa1757",
    ("L", (-2, -1, 2, -3)):
        "ada918dcb4d27243e681100de28ddc5451599ba476cbdf9c7b863769b0a7a692",
    ("L", (-2, -1, -2, 3)):
        "210267953c3642a686a5b7c758140c7e9b1f519b87d91e88fa22a10278e77856",
    ("L", (-2, -1, -2, -3)):
        "6144001809ec514ccfb045fca13d5530ed52990435323bf60401fa4f794e0386",
    ("L", (3, 3, 3, 3)):
        "3932b3671384ee89670994e6be6704a14ab81691cf9943d7ccd87ebd53b54e18",
    ("L", (3, 3, 3, -3)):
        "f5a874354fd9c36c19da244b415f8f907dbcce1fb48ff7e8cc0bec204a7845b1",
    ("L", (3, 3, -3, 3)):
        "f36f3d9684db80a3ba672420256dd6f97f03a364a02166d07c74792cd7d46806",
    ("L", (3, 3, -3, -3)):
        "f2f5395a0616a16b095c0d9c1030bd942ab99ebab38c99e95c74ba598f92f3f4",
    ("L", (3, -3, 3, 3)):
        "828d5d208af3dcad96335063a510c53392fe1953ae8d9d0744841bdff6ce713f",
    ("L", (3, -3, 3, -3)):
        "2c488a3e1a146df2a23cd5b50bd91199913153b27b961d2432b8a84c8a63decd",
    ("L", (3, -3, -3, 3)):
        "783d506ac38a2e1908136c99e489c0591318cf7393f3ae9fec9771a525e36865",
    ("L", (3, -3, -3, -3)):
        "3ca9193887beb66933a4f2067ff1c6b94a5cbbace94d3afce51c686847938ff0",
    ("L", (-3, 3, 3, 3)):
        "7735be99d368b8272023038a95e8afde4b29cc86bf7b5cd914492553115d3c9d",
    ("L", (-3, 3, 3, -3)):
        "d0dd4fea1508337acfab4923a5d9969df9e96680111b30449c050b6c9bbf3af4",
    ("L", (-3, 3, -3, 3)):
        "07d2625bf3415155fb347406cf3a7c8e0ba5482b0fdcd0eb6793398aa70e0e61",
    ("L", (-3, 3, -3, -3)):
        "09ebf9a0ff510eb70fa89a11956df85bfc4256bd4268cf2d4ca3ba75a4601a5c",
    ("L", (-3, -3, 3, 3)):
        "0d6f9310c9d53e8957c44cd2a2716b5e6405d6c584f47300d54c410ab6c58532",
    ("L", (-3, -3, 3, -3)):
        "bc09aa855776bb1520068c32556464845b24169be25ce0571aec960b4da5dbf8",
    ("L", (-3, -3, -3, 3)):
        "bff8a983bd9cfff9e596d3c474d134d8e63a857db9ef02c5a4ae87e663bcaf24",
    ("L", (-3, -3, -3, -3)):
        "51c8fa8da4c4aeecd74e4ace947b3246def6ecc9e2e608edf0538e19c466e20c",
    ("A", (1, 1, 1)):
        "8f75859ab1e102f42be0c84aee942835cae0a06253c97cf2ec214b4d86ca48b9",
    ("A", (1, 1, 2)):
        "ae9d9206600c4e7450f65a843c08620eabe1aad8f57ba24549b72fda75672c44",
    ("A", (1, 1, 3)):
        "b2a6f60963d0040d0f443d9eabbdbf2cb3efebe8bb4a1bf4f639218395798fa5",
    ("A", (1, 2, 1)):
        "82c5a5e9a630c1aa209c92f6fa59965f320aa5056c51fdc5ab217483abb41a56",
    ("A", (1, 2, 2)):
        "ca88ff0b611dab8d67dd757798958fe23d2fbec6c9487ee96938f686d2a440f4",
    ("A", (1, 2, 3)):
        "b2721722812d6c56c86e6cacde26e577523859f88c588b1611733e86f3f93bf9",
    ("A", (1, 3, 1)):
        "bbc24eeb616952097ccbeec16f19ec68ea27447838e4cc3a26076250a0720d14",
    ("A", (1, 3, 2)):
        "4c127ab06044877403ba6b982110eaa2f2532984f40f0e32f48b439d0e9f74c0",
    ("A", (1, 3, 3)):
        "8e8aa99a97201fd0ed741466b69203192d098511ceac8889ffacff0fc7eec589",
    ("A", (2, 1, 1)):
        "76e84991f80bdc3ace98d1d52f6a74d80072e1c1c8c12fdfbda197bf6cd54dbd",
    ("A", (2, 1, 2)):
        "d4e7ef36ca34f1ad149b696a94ebcdd63d28a19526858dd8be39f451783bb4f2",
    ("A", (2, 1, 3)):
        "63d45ecfc4fbc11b162881ae01a20ced12c201d8ca9fe49f32fd3deffb834a72",
    ("A", (2, 2, 1)):
        "7bb9466ae062a92615011445ad784c920e1912248e2f563e4458d66f19a9fbb3",
    ("A", (2, 2, 2)):
        "a1b97351f432d3d556eec8db4cd6af94b97dd2f7e8051133344d7a1c6df9c1ce",
    ("A", (2, 2, 3)):
        "ec33d447df21d1802bd6487d18f757b1148533a1c40fc8a22f10b365ab8c8f62",
    ("A", (2, 3, 1)):
        "e107edd14308ce8f2817100a79f673e5c1c6bc7377cc01a6616c40cda236aa6f",
    ("A", (2, 3, 2)):
        "4e14055f949074ce6517168ea96d9185cea6be2d5ae3db714f3746dbc8439d16",
    ("A", (2, 3, 3)):
        "1e000ac768bb848f1e015c5557620a3277905723375c322640dccc57f3cf05b3",
    ("A", (3, 1, 1)):
        "116c984a155b2ab02499793242d5a7c32aedbe288c53f704be3993262a9a955e",
    ("A", (3, 1, 2)):
        "7f189fd34025790856be9089fcfbf945a8d6e90b2a03b213b97301c21a45782d",
    ("A", (3, 1, 3)):
        "b0e86d289facd732927387b7a9b4078fd9c4aa83cd7f5a22dbfb93543dbc2388",
    ("A", (3, 2, 1)):
        "87bd5e32bc8d34b15467e6b076a6a102950b5439734333d00974bdb16d3bb756",
    ("A", (3, 2, 2)):
        "c38614077fc74ade2c8e818b92d7ec487a4198b883f8d676fcb5abe4d87448ff",
    ("A", (3, 2, 3)):
        "c6e4104b100ce951ef775cb15dcf7c001dab65914b7a32b78d0597ccb9d6b99a",
    ("A", (3, 3, 1)):
        "0ded4df2e0174a6c93e36c326cd9ab50eed7300b06dfb079fde9e5980ae1f373",
    ("A", (3, 3, 2)):
        "345a1a7ac8a370216118d44ed4caf1b04ffa57fd09d253f68eb06a3529a9053a",
    ("A", (3, 3, 3)):
        "33ad6497deb0a5aea2e784d4ac181da10d3a511ff8b5c8315e338924dd96b69f",
    ("A", (1, 1, 110)):
        "4480efec5799429892d38c5bb65d78b8ea80bd4f4994c67ad632911ac86a0124",
    ("L", (2, 2, 2, 2)):
        "268d01a6c120806b30ca2c4b1ce24ca8f28cba7d387fc09c28c7d02e5016eb76",
    ("L", (2, 2, 2, -2)):
        "c632044877af294a7f43b4c76824d7273273810d61c02a92f84219c308021c38",
    ("L", (2, 2, -2, 2)):
        "7b0a5186e08b6bb6ce79f3b60b4ae72279f649b488df61a72f332e4c171660ec",
    ("L", (2, 2, -2, -2)):
        "1f2c33951e7f093ee24fac970dd7e47465f740a413709712f1bd735fd050e2fc",
    ("L", (2, -2, 2, 2)):
        "7f9dc9d3de94f2b4db8ee8bb1bdf8dc332b4deb283f7549c2b967c541b55e72f",
    ("L", (2, -2, 2, -2)):
        "a69caf3ba04e3e985b36ac4644dad697c69cf391c3390c9b424a99b1bfb432d6",
    ("L", (2, -2, -2, 2)):
        "f00177e4cad53b5dbbeb2a89eb6da447e582c9235f852675c252edd7fe024ea6",
    ("L", (2, -2, -2, -2)):
        "019f4d50558d48ffad860349c128f75ac543e66eb020d0e244ba7125df123e99",
    ("L", (-2, 2, 2, 2)):
        "1fdfabad494db17e99bb79ffd8c2c54fb1bbed06256c77f6c84af33d327bcb94",
    ("L", (-2, 2, 2, -2)):
        "1fc681268bfadddb8de00e56d584d285d9a854e9009431798ac7c7989be050b5",
    ("L", (-2, 2, -2, 2)):
        "60bacc9b0dd6760dc0040a5f564e0ed5263080a6e18dbf74e3544eb34bffd565",
    ("L", (-2, 2, -2, -2)):
        "7e7a0347e177c25c7ecd78659b3dd134422c7fc8364ed4c769c5fdd1aa3ddf4b",
    ("L", (-2, -2, 2, 2)):
        "bc6ebb5d09959fe904d491330130d50e5b573e6cb433b999ebdde9acae1f1452",
    ("L", (-2, -2, 2, -2)):
        "1c133870f15c4ccca43d9a10176995a10d4488d25003e787d3b1d7fd430717b0",
    ("L", (-2, -2, -2, 2)):
        "146539104cb716a1f156eb5b264f7ab6fdf60f6e116124df622f7e5449b73234",
    ("L", (-2, -2, -2, -2)):
        "85459be0abcaf067fd00bebdb76a1649fa637e43d95c8160e33a96e8601561fe",
}


def _proof_digest(cert):
    """SHA-256 of the sorted set of (link, det, kind, axiom or citation,
    child links) over the nodes: what the certificate proves, whatever its
    layout."""
    facts = set()
    for n in cert.nodes:
        label = n.axiom if n.kind == qc.BASE else n.citation
        kids = [str(cert.nodes[k].link) for k in n.children]
        facts.add("|".join([str(n.link), str(n.det), n.kind, label, *kids]))
    return hashlib.sha256("\n".join(sorted(facts)).encode()).hexdigest()


_SIGN_CLASSES = list(itertools.product((1, -1), repeat=4))


def test_certificates_prove_the_frozen_facts():
    for (family, params), want in _PROOF_DIGESTS.items():
        generate = qc.generate_A_cert if family == "A" else qc.generate_L_cert
        got = _proof_digest(generate(*params))
        assert got == want, (family, params)
    covered = set(_PROOF_DIGESTS)
    assert set(_FROZEN_DIGESTS) <= covered
    assert ("A", (1, 1, 110)) in covered
    assert {("L", tuple(2 * x for x in s)) for s in _SIGN_CLASSES} <= covered


# -- mutants as the benchmark writes them ----------------------------------

def _leaves(doc, prefix=()):
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, prefix + (i,))
    else:
        yield prefix, doc


def _mutated(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "X"
    return "MUTANT"


def _rejects(text):
    try:
        return not qc.verify(qc.deserialize(text))
    except qc.CertParseError:
        return True


def test_every_single_leaf_mutant_is_rejected():
    texts = [(GOLDEN / "cert_L1111.json").read_text()]
    texts += [qc.serialize(qc.generate_L_cert(*(2 * x for x in signs)))
              for signs in _SIGN_CLASSES]
    tried = 0
    for text in texts:
        assert not _rejects(text)
        doc = json.loads(text)
        for path, value in list(_leaves(doc)):
            holder = doc
            for step in path[:-1]:
                holder = holder[step]
            holder[path[-1]] = _mutated(value)
            tried += 1
            assert _rejects(json.dumps(doc, sort_keys=True, indent=2) + "\n"), path
            assert _rejects(json.dumps(doc)), path
            holder[path[-1]] = value
    assert tried > 4000


# -- depth -----------------------------------------------------------------

def _depth(root):
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in (node.zero, node.inf, node.child)
                     if c is not None)
    return deepest


@contextlib.contextmanager
def _recursion_limit(headroom):
    """Python's recursion limit set ``headroom`` frames above the caller's
    depth: any recursion proportional to a certificate's depth fails."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _round_trip(make):
    with _recursion_limit(60):
        cert = make()
        text = qc.serialize(cert)
        back = qc.deserialize(text)
        verdict = qc.verify(back)
        assert qc.verify(cert)
        assert qc.serialize(back) == text
    return cert, verdict


def test_deepest_a_certificate_generates_and_verifies():
    for make in (lambda: qc.generate_A_cert(2, 2, 110),
                 lambda: qc.generate_L_cert(100, 100, 100, 100)):
        cert, verdict = _round_trip(make)
        assert verdict
        assert _depth(cert.root) > 400


def test_a_5000_level_chain_round_trips_without_recursion():
    # Lemma 5.11(5) takes L(1,1,1,l; 0,0,*) to l - 1: 4999 identifications,
    # then B, A(1,1,1) and the named T(3,4)
    cert, verdict = _round_trip(lambda: qc._generate(
        qc.LinkId.L(1, 1, 1, 5000, "0,0,*"), set()))
    assert verdict
    assert _depth(cert.root) == qc.node_count(cert) == 5003


def _benchmark_walk(root, limit):
    """``(nodes, distinct links)`` of the tree under ``root``, walked as the
    benchmark's worker walks it, failing once ``limit`` nodes are met."""
    nodes, links, stack = 0, set(), [root]
    while stack:
        node = stack.pop()
        nodes += 1
        assert nodes <= limit
        links.add(node.link)
        stack.extend(c for c in (node.zero, node.inf, node.child)
                     if c is not None)
    return nodes, len(links)


@pytest.mark.parametrize("make", [
    lambda: qc.generate_L_cert(-110, -110, -110, -110),
    lambda: qc.generate_A_cert(2, 2, 110)])
def test_the_benchmark_walk_meets_each_citation_once(make):
    """The benchmark's own walk of the tree under the root, which does not
    know the list, meets one node per citation, for a generated and a parsed
    certificate: a walk of the shared graph would meet billions.  The
    bounded copy runs first, so that such a walk fails instead of hanging."""
    generated = make()
    for cert in (generated, qc.deserialize(qc.serialize(generated))):
        citations = sum(len(n.children) for n in cert.nodes)
        want = (qc.node_count(cert), len(cert.nodes))
        assert want[0] == 1 + citations > len(cert.nodes)
        assert _benchmark_walk(cert.root, 1 + citations) == want
        assert worker._cert_stats(cert.root) == want


def _symmetry_chain(levels):
    """``levels`` nodes: an ALTERNATING base, then CIT_A_SYM identifications
    alternating A(1,-1,2) and A(2,-1,1), each citing the node before it."""
    links = (qc.LinkId.A(1, -1, 2), qc.LinkId.A(2, -1, 1))
    det = qc.expected_det(links[0])
    nodes = [qc.CertNode(links[0], det, qc.BASE, axiom="ALTERNATING")]
    for i in range(1, levels):
        nodes.append(qc.CertNode(links[i % 2], det, qc.IDENTIFY,
                                 citation=qc.CIT_A_SYM, children=(i - 1,)))
    info = qc.AXIOMS["ALTERNATING"]
    return qc.Certificate(qc.QUASI_ALTERNATING, tuple(nodes),
                          (qc.AxiomDecl(info.name, info.claim, info.citation),))


def test_a_5000_level_symmetry_chain_is_rejected_without_recursion():
    assert qc.verify(_symmetry_chain(2))
    cert = _symmetry_chain(5000)
    assert _depth(cert.root) == 5000
    with _recursion_limit(60):
        verdict = qc.verify(cert)
        with pytest.raises(qc.CertError, match=r"already certified by "
                                               r"nodes\[0\]"):
            qc.serialize(cert)
    assert not verdict
    assert verdict.path == "nodes[2]"
    assert verdict.reason == (f"{cert.nodes[0].link} is already certified by "
                              f"nodes[0]")


# -- properties ------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_random_positive_a_certificates_verify(q, s, t):
    cert = qc.generate_A_cert(q, s, t)
    assert qc.verify(cert)
    assert qc.deserialize(qc.serialize(cert)) == cert


_nonzero = st.integers(-3, 3).filter(lambda v: v != 0)


@settings(max_examples=25, deadline=None)
@given(_nonzero, _nonzero, _nonzero, _nonzero)
def test_random_l_certificates_verify(q, s, t, l):
    cert = qc.generate_L_cert(q, s, t, l)
    assert qc.verify(cert)
    assert qc.deserialize(qc.serialize(cert)) == cert


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_SIGN_CLASSES),
       st.lists(st.integers(1, 40), min_size=4, max_size=4))
def test_serialize_reproduces_the_text_it_parses(signs, magnitudes):
    text = qc.serialize(qc.generate_L_cert(
        *(sign * m for sign, m in zip(signs, magnitudes))))
    assert qc.serialize(qc.deserialize(text)) == text


# -- the writer against the dict-per-node reference ------------------------

_reference_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                     check_circular=False).encode


def _reference_serialize(cert):
    """The writer ``serialize`` replaced, as the reference for its bytes:
    each node a dict of its fields run through ``json.JSONEncoder``.  It
    checks each node's form but not the walk order, so it also writes node
    lists that ``serialize`` refuses."""
    first, lines = {}, []
    for i, node in enumerate(cert.nodes):
        try:
            text, slots = qc._node_form(node, i, first)
            link = node.link
            out = {"det": str(node.det), "kind": node.kind, "link": (
                {"family": "NAMED", "name": link.name} if link.family == "NAMED"
                else {"family": link.family, "params": dict(
                    zip(qc._FAMILY_PARAMS[link.family], link.params)),
                      "resolution": link.resolution})}
            if text:
                out[text] = getattr(node, text)
            out.update(zip(slots, node.children))
            lines.append(_reference_encode(out))
        except qc._Reject:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise qc._Reject(i, f"cannot be written: {exc!r}") from None
    axioms = [{"name": ax.name, "claim": ax.claim, "citation": ax.citation}
              for ax in cert.axioms]
    head = (f'{{"axioms":{_reference_encode(axioms)},'
            f'"claim":{_reference_encode(cert.claim)},')
    return head + '"nodes":[\n' + ",\n".join(lines) + "\n]}\n"


def _named_certificates():
    """Hand-built certificates whose links include named ones, unknown names
    and names that need escaping among them: T(3,4) then A(1,1,1), and a
    one-node certificate per named link."""
    t34 = qc.CertNode(qc.LinkId.named("T(3,4)"), 3, qc.BASE, axiom="T(3,4)")
    odd = [qc.CertNode(qc.LinkId.named(name), 1, qc.BASE, axiom="UNKNOT")
           for name in ('q"uote\\', "é ☃", "UNKNOT")]
    return [_t34_then(qc.LinkId.A(1, 1, 1))] + [
        qc.Certificate(qc.L_SPACE, (node,), (qc.AXIOMS[node.axiom],))
        for node in (t34, *odd)]


def test_serialize_writes_the_bytes_of_the_dict_per_node_reference():
    certs = [qc.generate_L_cert(*(m * sign for sign in signs))
             for m in (1, 2, 3, 5, 8, 13) for signs in _SIGN_CLASSES]
    certs += [qc.generate_A_cert(*params)
              for params in itertools.product(range(1, 5), repeat=3)]
    certs += [qc.generate_A_cert(2, 2, 50), *_named_certificates()]
    for cert in certs:
        assert qc.serialize(cert) == _reference_serialize(cert), cert.nodes[-1]


@pytest.mark.parametrize("params", [(True, 1, 1, 1), (1.0, 1, 1, 1),
                                    (1, 1, 1, 1, 1)])
def test_params_other_than_four_ints_are_not_written_after_an_int_twin(params):
    """``True`` and ``1.0`` hash and compare equal to ``1``, so a link with
    them is no repeat of the (1, 1, 1, 1) links at other resolutions before
    it.  ``serialize`` refuses it, as it does a fifth parameter, with the
    reason ``verify`` gives."""
    cert = qc.generate_L_cert(2, 1, 1, 1)
    ones = [i for i, node in enumerate(cert.nodes)
            if node.link.family == "L" and node.link.params == (1, 1, 1, 1)]
    assert len(ones) >= 2
    i = ones[-1]
    node = cert.nodes[i]
    odd = _with_node(cert, i, node._replace(
        link=node.link._replace(params=params)))
    reason = ("parameter q must be a nonzero integer" if len(params) == 4 else
              f"L link needs the parameters ('q', 's', 't', 'l') as a tuple of "
              f"ints, got {params}")
    assert qc.verify(odd) == (False, f"nodes[{i}]", reason)
    with pytest.raises(qc.CertError, match=rf"^nodes\[{i}\]: "
                                           rf"{re.escape(reason)}$"):
        qc.serialize(odd)


# The induction bases in the order the generator scanned them before they
# were keyed by (family, resolution), each with the links it applied to.
_BASE_SCAN = ("PETERS_QA", "A_00_STAR_S1", "A_0_STAR_STAR_S1",
              "B_0_STAR_STAR_S1_T1")
_BASE_APPLIES = {
    "PETERS_QA": lambda link: (
        link.family == "A" and link.params[2] == 1 and link.params[1] > 1
        and link.params[0] >= 1
        and link.resolution in ("inf,*,*", "0,inf,*", "0,0,*")),
    **{name: lambda link, f=family, r=res: (
        link.family == f and link.resolution == r
        and link.params[1] == link.params[2] == 1 and link.params[0] >= 1)
       for name, family, res in (("A_00_STAR_S1", "A", "0,0,*"),
                                 ("A_0_STAR_STAR_S1", "A", "0,*,*"),
                                 ("B_0_STAR_STAR_S1_T1", "B", "0,*,*"))},
}


def test_the_keyed_bases_pick_what_the_ordered_scan_picked():
    """For every family, all 27 resolutions and parameters of both signs,
    the bases tried from ``qc._BASES`` that match are those the ordered scan
    over every base accepted, in the same order."""
    assert {name for bases in qc._BASES.values() for name in bases} \
        == set(_BASE_SCAN)
    resolutions = [",".join(slots)
                   for slots in itertools.product(("*", "0", "inf"), repeat=3)]
    links = [qc.LinkId.named(name) for name in qc._NAMED_DETS]
    for family in ("A", "B", "L"):
        links += [qc.LinkId(family, params, res) for res in resolutions
                  for params in itertools.product(
                      (-2, -1, 1, 2), repeat=len(TABLE_PARAMS[family]))]
    picked = set()
    for link in links:
        scanned = [name for name in _BASE_SCAN if _BASE_APPLIES[name](link)]
        keyed = [name for name in qc._BASES.get((link.family, link.resolution),
                                                ()) if qc._MATCHES[name](link)]
        assert keyed == scanned, link
        picked.update(keyed)
    assert picked == set(_BASE_SCAN)


def test_a_certificate_with_junk_for_its_own_fields_rejects():
    """Nodes or axioms that are no tuple, no node at all, or an entry that
    is no ``CertNode`` or ``AxiomDecl``: ``verify`` REJECTs at that place and
    ``serialize`` raises ``CertError``."""
    cert = qc.generate_A_cert(2, 1, 3)
    axioms = cert.axioms
    cases = [(qc.Certificate(qc.QUASI_ALTERNATING, (), ()), "nodes"),
             (cert._replace(nodes=None), "nodes"),
             (cert._replace(nodes=list(cert.nodes)), "nodes"),
             (cert._replace(axioms=None), "axioms"),
             (cert._replace(axioms=axioms[:1] + ("T(3,4)",)), "axioms[1]"),
             (cert._replace(axioms=(tuple(axioms[0]),)), "axioms[0]")]
    cases += [(_with_node(cert, 2, junk), "nodes[2]")
              for junk in ("T(3,4)", None, tuple(cert.nodes[2]), 7)]
    for bad, path in cases:
        verdict = qc.verify(bad)
        assert not verdict and verdict.path == path, (bad, str(verdict))
        with pytest.raises(qc.CertError):
            qc.serialize(bad)


def test_serialize_refuses_fields_that_deserialize_would_refuse():
    """A claim or declared axiom field that is no string, a det that is no
    int and a resolution not in canonical form: ``serialize`` raises
    ``CertError`` where it once wrote text that ``deserialize`` refuses."""
    cert = qc.generate_A_cert(1, 1, 1)
    decl, node = cert.axioms[0], cert.nodes[1]
    header = [cert._replace(claim=[1]),
              cert._replace(axioms=(decl._replace(name=5),) + cert.axioms[1:])]
    for bad in header:
        with pytest.raises(qc.CertError, match=r"^axioms or claim cannot be "
                                               r"written: TypeError"):
            qc.serialize(bad)
    for bad, reason in (
            (node._replace(det=True),
             "determinant must be a positive integer, got True"),
            (node._replace(det="3"),
             "determinant must be a positive integer, got '3'"),
            (node._replace(link=node.link._replace(resolution="*, *, *")),
             "resolution '*, *, *' is not in canonical form '*,*,*'")):
        with pytest.raises(qc.CertError,
                           match=rf"^nodes\[1\]: {re.escape(reason)}$"):
            qc.serialize(_with_node(cert, 1, bad))


def test_what_serialize_writes_deserialize_reads_and_verify_accepts():
    """Two node lists out of walk order: A(2,1,3) with nodes[6] citing
    node 0 in place of node 5, which nothing cites then, and A(1,2,1) with
    the two BASE children of its first split listed the other way round.
    ``serialize`` refuses each with the text ``deserialize`` gives for the
    bytes of the dict-per-node writer, and ``verify`` REJECTs both, the
    second for its order alone."""
    cert = qc.generate_A_cert(2, 1, 3)
    assert cert.nodes[6].kind == qc.IDENTIFY and cert.nodes[6].children == (5,)
    uncited = _with_node(cert, 6, cert.nodes[6]._replace(children=(0,)))
    cert = qc.generate_A_cert(1, 2, 1)
    zero, inf, split = cert.nodes[:3]
    assert split.kind == qc.SKEIN and split.children == (0, 1)
    swapped = cert._replace(nodes=(inf, zero, split._replace(children=(1, 0)),
                                   *cert.nodes[3:]))
    for bad, i, done in ((uncited, 6, 5), (swapped, 1, 0)):
        reason = (f"out of order; the walk from the last node completes "
                  f"nodes[{done}] here")
        with pytest.raises(qc.CertParseError) as read:
            qc.deserialize(_reference_serialize(bad))
        with pytest.raises(qc.CertError) as written:
            qc.serialize(bad)
        assert str(read.value) == str(written.value) == f"nodes[{i}]: {reason}"
        assert not qc.verify(bad)
    assert qc.verify(swapped) == (False, "nodes[1]", reason)


# -- fuzzed in-memory certificates ------------------------------------------

_FUZZ_CERTS = [qc.generate_A_cert(1, 1, 1), qc.generate_A_cert(2, 1, 3),
               qc.generate_L_cert(2, 2, 2, 1), qc.generate_L_cert(-1, 2, -1, 1),
               qc.generate_L_cert(1, 1, 1, 1)]

# ints past Python's int-to-str digit limit (4300 digits by default), made
# in a map so that hypothesis never has to print them as strategy arguments
_UNPRINTABLE = st.sampled_from([4300, 5000, -5000]).map(
    lambda e: 10 ** abs(e) * (1 if e > 0 else -1))
_JUNK = st.one_of(
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
    st.none(), st.booleans(), st.floats(allow_nan=True),
    st.integers(2 ** 63, 10 ** 300), st.integers(-10 ** 300, -2 ** 63),
    _UNPRINTABLE,
    st.sampled_from(["", "Z", "*,*", "0,0,0,0", "NAMED"]),
    st.lists(st.one_of(st.integers(-3, 40), _UNPRINTABLE),
             max_size=6).map(tuple))


def _junk_for(data, old, below=0):
    """A junk value for a field that holds ``old``: a tuple of another
    length for a tuple, and never a value equal to ``old`` of its type; for
    a non-empty tuple with ``below``, also one of its length of other ints
    from 0 to ``below - 1``."""
    if below and old and data.draw(st.booleans()):
        return data.draw(st.tuples(*[st.integers(0, below - 1)] * len(old))
                         .filter(lambda v: v != old))
    return data.draw(_JUNK.filter(lambda v: not (
        v.__class__ is old.__class__ and (v == old or (
            old.__class__ is tuple and len(v) == len(old))))))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_fields_reject_and_never_raise(data):
    """Any field of the certificate, of a node, of a node's link or of a
    declared axiom, or a whole node or axiom, replaced by junk (lists, dicts,
    None, bools, floats, huge ints, strings, tuples of the wrong length, or
    as many child indices citing other nodes):
    ``verify`` returns REJECT, and ``serialize`` raises ``CertError`` or
    writes the bytes of the dict-per-node reference, never anything else."""
    cert = data.draw(st.sampled_from(_FUZZ_CERTS))
    target = data.draw(st.sampled_from(
        ["certificate", "nodes[i]", "axioms[i]", "node", "link", "axiom"]))
    if target == "certificate":
        i, field = 0, data.draw(st.sampled_from(cert._fields))
        cert = cert._replace(**{field: _junk_for(data, getattr(cert, field))})
    elif target in ("nodes[i]", "axioms[i]"):
        field = target[:-3]
        entries = getattr(cert, field)
        i = data.draw(st.integers(0, len(entries) - 1))
        junk = data.draw(_JUNK)
        cert = cert._replace(**{field: entries[:i] + (junk,) + entries[i + 1:]})
    elif target == "axiom":
        i = data.draw(st.integers(0, len(cert.axioms) - 1))
        field = data.draw(st.sampled_from(["name", "claim", "citation"]))
        decl = cert.axioms[i]
        decl = decl._replace(**{field: _junk_for(data, getattr(decl, field))})
        cert = qc.Certificate(cert.claim, cert.nodes,
                              cert.axioms[:i] + (decl,) + cert.axioms[i + 1:])
    else:
        i = data.draw(st.integers(0, len(cert.nodes) - 1))
        node = cert.nodes[i]
        owner = node if target == "node" else node.link
        field = data.draw(st.sampled_from(owner._fields))
        below = i + 1 if field == "children" else 0
        changed = owner._replace(**{field: _junk_for(
            data, getattr(owner, field), below)})
        cert = _with_node(cert, i, changed if target == "node"
                          else node._replace(link=changed))
    verdict = qc.verify(cert)
    assert not verdict.accepted, (target, i, field)
    assert str(verdict).startswith("REJECT at ")
    try:
        text = qc.serialize(cert)
    except qc.CertError:
        return
    assert text == _reference_serialize(cert)
    assert qc.serialize(qc.deserialize(text)) == text


@pytest.mark.parametrize("field", ["det", "child", "param"])
def test_ints_past_the_digit_limit_reject_and_are_not_written(field):
    """A determinant, child index or link parameter too long for ``str``:
    ``verify`` REJECTs, naming the int by its bit length, and ``serialize``
    raises ``CertError`` at that node."""
    cert = qc.generate_A_cert(2, 1, 3)
    i = max(k for k, node in enumerate(cert.nodes) if node.children)
    node, huge = cert.nodes[i], 10 ** 5000
    node = {"det": node._replace(det=huge),
            "child": node._replace(children=(huge,) * len(node.children)),
            "param": node._replace(link=node.link._replace(
                params=(huge,) + node.link.params[1:]))}[field]
    cert = _with_node(cert, i, node)
    verdict = qc.verify(cert)
    assert not verdict.accepted
    assert "<int of 16610 bits>" in verdict.reason
    with pytest.raises(qc.CertError, match=rf"^nodes\[{i}\]"):
        qc.serialize(cert)
