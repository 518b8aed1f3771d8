"""Tests for certificate generation, verification, and serialization."""

import hashlib
import itertools
import json
import pathlib
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from bridgecover.goeritz import UnsupportedRegimeError, table_formula
from bridgecover import qacert as qc

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _rebuild(node, path, target_path, repl):
    """Copy of the tree with the node at target_path replaced."""
    if path == target_path:
        return repl
    kwargs = {}
    for attr in ("zero", "inf", "child"):
        sub = getattr(node, attr)
        if sub is not None:
            kwargs[attr] = _rebuild(sub, path + "." + attr, target_path, repl)
    return replace(node, **kwargs) if kwargs else node


def _with_node(cert, path, repl):
    return qc.Certificate(cert.claim, _rebuild(cert.root, "root", path, repl),
                          cert.axioms)


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
    used = {n.axiom for _, n in qc.iter_nodes(cert.root) if n.kind == qc.BASE}
    assert used == {"PETERS_QA"}


def test_a_cert_all_ones_grounds_at_named_torus_knot():
    cert = qc.generate_A_cert(1, 1, 1)
    assert cert.claim == qc.L_SPACE
    assert qc.verify(cert)
    bases = [n for _, n in qc.iter_nodes(cert.root) if n.kind == qc.BASE]
    assert [b.link.name for b in bases] == ["T(3,4)"]
    declared = {ax.name for ax in cert.axioms}
    assert {"T(3,4)", "P(2,-3,-2)"} <= declared


def test_a_cert_skein_determinants_come_from_the_tables():
    cert = qc.generate_A_cert(2, 1, 3)
    assert cert.claim == qc.L_SPACE
    assert qc.verify(cert)
    skeins = [n for _, n in qc.iter_nodes(cert.root) if n.kind == qc.SKEIN]
    assert skeins, "expected a nontrivial resolution tree"
    for node in skeins:
        for part in (node, node.zero, node.inf):
            if part.link.family == "NAMED":
                continue
            want = abs(table_formula(part.link.family, part.link.resolution,
                                     part.link.param_map()))
            assert part.det == want, part.link


def test_l_certificates_accept_on_positive_grid():
    for q, s, t, l in itertools.product((1, 2), repeat=4):
        cert = qc.generate_L_cert(q, s, t, l)
        assert qc.verify(cert), (q, s, t, l)


def test_l_cert_all_ones_grounds_at_named_torus_knot():
    cert = qc.generate_L_cert(1, 1, 1, 1)
    assert cert.claim == qc.L_SPACE
    assert qc.verify(cert)
    bases = [n for _, n in qc.iter_nodes(cert.root) if n.kind == qc.BASE]
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
    assert cert.root.kind == qc.BASE
    assert cert.root.axiom == "ALTERNATING"
    assert qc.node_count(cert) == 1
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
    assert cert.root.kind == qc.IDENTIFY
    assert cert.root.target == qc.LinkId.L(1, 1, 1, 1)
    assert qc.verify(cert)


def test_swap_regime_reorients_before_the_length_induction():
    cert = qc.generate_L_cert(3, 1, 1, 2)
    assert cert.claim == qc.L_SPACE
    assert qc.verify(cert)


# -- verification: structural rejections -----------------------------------

def test_skein_determinant_increment_is_rejected_at_that_node():
    cert = qc.generate_L_cert(2, 1, 1, 1)
    paths = [p for p, n in qc.iter_nodes(cert.root) if n.kind == qc.SKEIN]
    assert paths
    path = paths[-1]
    node = dict(qc.iter_nodes(cert.root))[path]
    verdict = qc.verify(_with_node(cert, path, replace(node, det=node.det + 1)))
    assert not verdict
    assert verdict.path == path


def test_quasi_alternating_claim_may_not_use_l_space_axioms():
    cert = qc.generate_A_cert(1, 1, 1)
    flipped = qc.Certificate(qc.QUASI_ALTERNATING, cert.root, cert.axioms)
    verdict = qc.verify(flipped)
    assert not verdict
    assert "not admissible" in verdict.reason


def test_undeclared_axiom_is_rejected():
    cert = qc.generate_L_cert(1, 1, 1, 1)
    stripped = qc.Certificate(cert.claim, cert.root, ())
    verdict = qc.verify(stripped)
    assert not verdict
    assert "not declared" in verdict.reason


def test_swapped_skein_children_are_rejected():
    cert = qc.generate_L_cert(2, 2, 2, 2)
    for path, node in qc.iter_nodes(cert.root):
        if node.kind == qc.SKEIN:
            swapped = replace(node, zero=node.inf, inf=node.zero)
            assert not qc.verify(_with_node(cert, path, swapped))
            break
    else:
        pytest.fail("no skein node found")


def test_reference_cycles_are_rejected():
    link1 = qc.LinkId.A(2, 1, 3)
    link2 = qc.LinkId.A(3, 1, 2)
    ref1 = qc.CertNode(link1, qc.expected_det(link1), qc.REF)
    id2 = qc.CertNode(link2, qc.expected_det(link2), qc.IDENTIFY,
                      citation=qc.CIT_A_SYM, target=link1, child=ref1)
    id1 = qc.CertNode(link1, qc.expected_det(link1), qc.IDENTIFY,
                      citation=qc.CIT_A_SYM, target=link2, child=id2)
    verdict = qc.verify(qc.Certificate(qc.L_SPACE, id1, ()))
    assert not verdict


def test_reference_to_uncertified_link_is_rejected():
    link1 = qc.LinkId.A(2, 1, 3)
    link2 = qc.LinkId.A(3, 1, 2)
    ref2 = qc.CertNode(link2, qc.expected_det(link2), qc.REF)
    id1 = qc.CertNode(link1, qc.expected_det(link1), qc.IDENTIFY,
                      citation=qc.CIT_A_SYM, target=link2, child=ref2)
    verdict = qc.verify(qc.Certificate(qc.L_SPACE, id1, ()))
    assert not verdict
    assert "never certified" in verdict.reason or "measure" in verdict.reason


def test_malformed_resolution_is_rejected_not_crashed():
    link = qc.LinkId("A", (("q", 1), ("s", 1), ("t", 1)), "0,banana,*")
    node = qc.CertNode(link, 3, qc.BASE, axiom="T(3,4)")
    cert = qc.Certificate(
        qc.L_SPACE, node,
        (qc.AxiomDecl("T(3,4)", qc.L_SPACE, "Claim 5.6 proof"),))
    verdict = qc.verify(cert)
    assert not verdict
    assert "resolution" in verdict.reason


def test_non_canonical_resolution_text_is_rejected():
    link = qc.LinkId("A", (("q", 1), ("s", 1), ("t", 1)), "0, *,*")
    cert = qc.Certificate(qc.L_SPACE, qc.CertNode(link, 4, qc.BASE,
                                                   axiom="A_0_STAR_STAR_S1"),
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
            res = replace(link, resolution=",".join(slots))
            for slot in ("0", "inf"):
                assert (qc._resolve_leftmost(res, slot)
                        == _resolve_leftmost_by_slots(res, slot)), (res, slot)


# -- per-call link memos ---------------------------------------------------

def _repeat_paths(root):
    """Paths of the nodes whose link occurred earlier in pre-order, the
    order in which ``verify`` checks them."""
    seen, out = set(), []
    for path, node in qc.iter_nodes(root):
        if node.link in seen:
            out.append(path)
        seen.add(node.link)
    return out


def test_a_wrong_determinant_at_a_repeated_link_is_rejected_at_that_node():
    cert = qc.generate_L_cert(2, 2, 2, 2)
    nodes = dict(qc.iter_nodes(cert.root))
    repeats = _repeat_paths(cert.root)
    assert len(repeats) >= 10
    for path in repeats:
        node = nodes[path]
        verdict = qc.verify(_with_node(cert, path,
                                       replace(node, det=node.det + 1)))
        assert not verdict and verdict.path == path, path
        assert "does not match the tabulated value" in verdict.reason
        # a float parameter compares equal to the int the memo holds, and
        # is still rejected
        link = node.link
        floats = tuple((k, float(v)) for k, v in link.params)
        verdict = qc.verify(_with_node(cert, path, replace(
            node, link=replace(link, params=floats))))
        assert not verdict and verdict.path == path, path
        assert "nonzero integer" in verdict.reason


def _outcome(write, cert):
    try:
        return write(cert)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


def _unmemoized_serialize(cert):
    """``serialize`` converting every link occurrence afresh."""
    payload = {"claim": cert.claim,
               "axioms": [{"name": ax.name, "claim": ax.claim,
                           "citation": ax.citation} for ax in cert.axioms],
               "root": cert.root}
    return qc._canonical_json(payload, qc._node_to_json)


@pytest.mark.parametrize("convert", [float, bool])
def test_serialize_writes_a_repeated_link_from_its_own_fields(convert):
    cert = qc.generate_L_cert(2, 2, 2, 2)
    nodes = dict(qc.iter_nodes(cert.root))
    for path in _repeat_paths(cert.root):
        node = nodes[path]
        params = tuple((k, convert(v) if v == 1 or convert is float else v)
                       for k, v in node.link.params)
        odd = _with_node(cert, path, replace(
            node, link=replace(node.link, params=params)))
        assert (_outcome(qc.serialize, odd)
                == _outcome(_unmemoized_serialize, odd)), path


def _json_links(obj, path):
    """(path, link object) of a serialized node tree, in the order
    ``deserialize`` parses them."""
    yield path + ".link", obj["link"]
    if "target" in obj:
        yield path + ".target", obj["target"]
    for key in ("zero", "inf", "child"):
        if key in obj:
            yield from _json_links(obj[key], f"{path}.{key}")


@pytest.mark.parametrize("value", [True, 1.0])
def test_a_non_integer_parameter_at_a_repeated_link_is_a_parse_error(value):
    text = qc.serialize(qc.generate_L_cert(2, 2, 2, 2))
    payload = json.loads(text)
    seen, later = set(), []
    for path, link in _json_links(payload["root"], "root"):
        key = json.dumps(link, sort_keys=True)
        if key in seen and 1 in link.get("params", {}).values():
            later.append((path, link))
        seen.add(key)
    assert later
    for path, link in later:
        name = next(k for k, v in link["params"].items() if v == 1)
        link["params"][name] = value
        with pytest.raises(qc.CertParseError) as info:
            qc.deserialize(json.dumps(payload))
        assert str(info.value) == f"{path}.params.{name}: expected an integer"
        link["params"][name] = 1
    assert qc.deserialize(json.dumps(payload)) == qc.deserialize(text)


def test_table_formula_runs_once_per_distinct_link(monkeypatch):
    calls = []
    real = qc.table_formula
    monkeypatch.setattr(qc, "table_formula", lambda *args: (
        calls.append(args) or real(*args)))
    cert = qc.generate_A_cert(1, 1, 110)
    links = {node.link for _, node in qc.iter_nodes(cert.root)
             if node.link.family != "NAMED"}
    assert len(links) == 1420
    assert len(calls) == len(links)
    calls.clear()
    assert qc.verify(cert)
    assert len(calls) == len(links)


# -- exhaustive single-field mutation soundness ----------------------------

def _target_variants(link):
    if link.family == "NAMED":
        return [qc.LinkId.named(n) for n in ("UNKNOT", "T(3,4)", "T(3,5)",
                                             "P(2,-3,-2)", "P(2,-3,-4)")
                if n != link.name]
    out = []
    for i, (k, v) in enumerate(link.params):
        for nv in (v + 1, v - 1, -v):
            if nv != 0 and nv != v:
                params = list(link.params)
                params[i] = (k, nv)
                out.append(replace(link, params=tuple(params)))
    for res in ("*,*,*", "0,*,*", "inf,*,*", "0,0,*", "0,inf,*",
                "inf,0,*", "inf,inf,*", "0,0,0", "inf,inf,inf"):
        cand = replace(link, resolution=res)
        if cand != link:
            out.append(cand)
    return out


def test_single_field_mutations_always_reject():
    samples = [qc.generate_A_cert(2, 1, 1),
               qc.generate_L_cert(1, 1, 1, 1),
               qc.generate_L_cert(1, 2, 2, 1)]
    tried = 0
    for cert in samples:
        assert qc.verify(cert)
        for path, node in qc.iter_nodes(cert.root):
            for det in (node.det + 1, node.det - 1, node.det + 997):
                tried += 1
                assert not qc.verify(_with_node(cert, path,
                                                replace(node, det=det))), path
            if node.kind == qc.BASE:
                for other in qc.AXIOMS:
                    if other == node.axiom:
                        continue
                    tried += 1
                    assert not qc.verify(
                        _with_node(cert, path, replace(node, axiom=other))), \
                        (path, other)
            if node.kind == qc.IDENTIFY:
                for cand in _target_variants(node.target):
                    tried += 1
                    assert not qc.verify(
                        _with_node(cert, path, replace(node, target=cand))), \
                        (path, cand)
    assert tried > 500


# -- serialization ---------------------------------------------------------

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
# A family on {1,2,3}^3, frozen from the per-family builders this generator
# replaced.
_FROZEN_DIGESTS = {
    ("L", (1, 2, 1, 2)):
        "bab8d406d4037d1ceb5e543bada55d465da5a115c786c1e44b850c81c16c353e",
    ("L", (1, 2, 1, -2)):
        "5b46de0c599ee6aa6642fb0cf63a65853b7d33c5218a712c565720b9d57f1d84",
    ("L", (1, 2, -1, 2)):
        "dae92a4872bc33b26c6b1a2f69a63b7a66b95485ac1581ef555bcbc9b7fcfe01",
    ("L", (1, 2, -1, -2)):
        "505f4d917221907dc94b404afefc5bd31e3120ee1c08a88b73345b7d4f2f74f8",
    ("L", (1, -2, 1, 2)):
        "dfbc682634b74df53d3744c3b9418ac3d71ed6d2eefc1469b3e4f3b99d5739f7",
    ("L", (1, -2, 1, -2)):
        "f40acb62935744f24d999ca01d92423066a5500f68f7387a9e296a2cc2403749",
    ("L", (1, -2, -1, 2)):
        "fc2387094092fa055d9a538f2615d5d922b2f28b17a846966868e25c968b02ee",
    ("L", (1, -2, -1, -2)):
        "8889c162ee8d46c92ff98a7272b9ff1f0f48d53e059d173ac2005075538e16e9",
    ("L", (-1, 2, 1, 2)):
        "b17a2232f87bd256b963f8dd36fa91ef553b245f21f1ed4fd70605d7ad29a093",
    ("L", (-1, 2, 1, -2)):
        "7a4a73840fc7fb89fd47adfa0d3dc7fb0f03fc09138c45183887131951010f74",
    ("L", (-1, 2, -1, 2)):
        "95fabfbee51caa45e98823afb844edfd12659f05a09e3192adbd1dfb8ab7ac6e",
    ("L", (-1, 2, -1, -2)):
        "6d606be20ee194619ccd44aa9be343b5a91d3a835ce9f53a77415bc45a1e11b0",
    ("L", (-1, -2, 1, 2)):
        "47c639a6b46bb3f0c20620a1b3e61e0bf0b76fcddf65fe8d37a951cfce17c23d",
    ("L", (-1, -2, 1, -2)):
        "36659b025a08853e8c43f9f5be3e520e6ea7466824f34bfb1ae4b910926944c9",
    ("L", (-1, -2, -1, 2)):
        "9450b9fc921e8c3bbbac6b758de77d82af6f8eee7becc1f509cb8199d63c132d",
    ("L", (-1, -2, -1, -2)):
        "d18aa06f431ca36d25198bfdfd502437bc5d662f9b1b37a5a2b6c6f3031b4d62",
    ("L", (2, 1, 2, 3)):
        "6a822595bda94ce73ee10ef2217f54440f248ee7ddbb2a64280d81e66f7f6bed",
    ("L", (2, 1, 2, -3)):
        "1387fe283091f2a93a70c4ac593627399ad5ed57e025557ab2787f871f14ee97",
    ("L", (2, 1, -2, 3)):
        "596674ead2450e4a0f2bf5e330e1fcda6cc3da114d2d0cf9583b2162b8aef72a",
    ("L", (2, 1, -2, -3)):
        "6bfde8cd7f836bfa952a2c0c3714a7874ea374c9a68c55af318e4c22fa804695",
    ("L", (2, -1, 2, 3)):
        "55c6fe5c70562582db39702cf2dd0ba6795390b09dc3fade5a5f9563ec96070a",
    ("L", (2, -1, 2, -3)):
        "e6b6fdee2766f70e61ea87bfb14f4d4e3b38c1a2233cee2aa289260cd4bf9dcb",
    ("L", (2, -1, -2, 3)):
        "ba6d9609e46fef40eaa181405ae9ba575eaf4ee3320fbfd32f082c2ae763d816",
    ("L", (2, -1, -2, -3)):
        "32c6e24fe4011660cd353750180b1d4391e3cb67dc27ed0d2bbabcd0f118bb7a",
    ("L", (-2, 1, 2, 3)):
        "e4fd645ce81aa1a90b56920bedfb4a9fd80acf1c49235bf0a48b50538f487133",
    ("L", (-2, 1, 2, -3)):
        "38ad67495b58cd8b3527d77b73571260bc8a0db3acaaedf5d8e6b03a3e30d1dd",
    ("L", (-2, 1, -2, 3)):
        "851b51128273b29fa785cd18c883942e02637ca914283b5c55e6ddff9d3cfc24",
    ("L", (-2, 1, -2, -3)):
        "ef199582fe4a6f3982bc3a2ece0a567a81cca604b2e0ca096c95f9419dceb8d2",
    ("L", (-2, -1, 2, 3)):
        "739343657256ee68bd5e0e56fbcfd9ee691c6034c9553663627f8a0de62d5704",
    ("L", (-2, -1, 2, -3)):
        "ab67b17cb8d90496ad033928909a477f9d0cd3c4c8c534a529ffd4891b0875d5",
    ("L", (-2, -1, -2, 3)):
        "4676281636e5a89bdbb56826fa1b46a12e212b3b70debca03468f444c0750f87",
    ("L", (-2, -1, -2, -3)):
        "c74f590a325ff47a503ed00d959c423f975db52ab9ce0b91c5c425eaa35bc13a",
    ("L", (3, 3, 3, 3)):
        "3b296998e93e057fc7b7a21ba01de100cc036426e4d3c35ef8d8fba0b333afd3",
    ("L", (3, 3, 3, -3)):
        "af63737251dc0245b5045cf0584a0bf4cfdea25a5eeb33296c13b71785f25aa2",
    ("L", (3, 3, -3, 3)):
        "1138ac961f26b6415b377d29805261633b3019757923886500ed8834e8f00177",
    ("L", (3, 3, -3, -3)):
        "f14495614fec016048ce50a52889d4d53da9246aef8461916549406da02ca858",
    ("L", (3, -3, 3, 3)):
        "78b928b6a6a301077ddf26468ace0b43d5f19328806ebe67cf9a832158f333d1",
    ("L", (3, -3, 3, -3)):
        "8ac736493a1c5a2deb7d028f580b7585e694b79999382042631feb187950ed26",
    ("L", (3, -3, -3, 3)):
        "76c752d0a1641406e87aedc11567bc4010d595a18ef9ce303fad6e0beb1a0603",
    ("L", (3, -3, -3, -3)):
        "41a9bb7f4b83d0da6d1806da794bd526d68aaf990b86c3a75145c3924affd6f0",
    ("L", (-3, 3, 3, 3)):
        "f59bf388bd49367ecc7a77aa97b49e9ad7495468ebd8cf34d79f45cddf031e4e",
    ("L", (-3, 3, 3, -3)):
        "6d59ff3b75d8d62d0ca3e7407fb60532f0707eefb4984d7f6f133780dfcbffca",
    ("L", (-3, 3, -3, 3)):
        "9ff0d56f5d8658dd6f94f9f98bff092d80c6879b3025ca4a0a92c32369027e03",
    ("L", (-3, 3, -3, -3)):
        "b8a6ae0c5732f1ff46f8faa39ae35082eab75e46cc6173ee641fb80c347a2010",
    ("L", (-3, -3, 3, 3)):
        "864055aaab8d004645092980517bdc6c61ead79363d82acbd963e600d2ec7dab",
    ("L", (-3, -3, 3, -3)):
        "c391ea32427e50f5a859e2a0bc56d2a1b10cfcab322f42265aaf776b931e17d1",
    ("L", (-3, -3, -3, 3)):
        "7fa2f8bb5447de00a10730a7cf3567d37fb9c2c23bde4f5a73fe91e77bf8931c",
    ("L", (-3, -3, -3, -3)):
        "f77e6f33426cb7c64154ff093498552d58ed043188d91b01210bb41fe2b7a960",
    ("A", (1, 1, 1)):
        "2d2f6731823489a358418b445be36ae83e606c38fa296689a47dd1759664d5aa",
    ("A", (1, 1, 2)):
        "a97a700b0f24fd8c683b339ab2e5a792f850a5aec83e24a6f6056a6205676d54",
    ("A", (1, 1, 3)):
        "5224d115c5efeaa8690a63a4f73e394b2c7e853cc5dc2add82670e9049dfee94",
    ("A", (1, 2, 1)):
        "bdcc0bc7f0fc92090a635ffd1b307644db2e647d036e7e6c955fa5b991a6753d",
    ("A", (1, 2, 2)):
        "83017beb952602ac33b4086f83f588cde9f095d07263f44fd02ff24fce55681f",
    ("A", (1, 2, 3)):
        "310bb392f6954e8f94ccd2e50b595dbb7c9f3451d41de3fa1812a1b2d14ac9b1",
    ("A", (1, 3, 1)):
        "53cf658a7a72306d8cf08db3e6fade7492246a3730895a1c84c36d5f7c019fb3",
    ("A", (1, 3, 2)):
        "9b7a412ee23ffe99e218499715fbf4329baa79a792256a8396c929953f6f9cf5",
    ("A", (1, 3, 3)):
        "0398c536241d53c7635e15becbff1c3437f392e58f792101ab1eaca83a59b8e3",
    ("A", (2, 1, 1)):
        "6c9f8b2307738c80b0720d93a5cb490de95a61e3ccc581551b16d466f5fb04ec",
    ("A", (2, 1, 2)):
        "c5ffe3b03a3ebcf7c1d1ae882fd2022a02d6f498b7acfb69523aafd2f1f60368",
    ("A", (2, 1, 3)):
        "26462ee7829c964626863ed6b6240fe01a91b546174f17a2eea6623fc5c15d00",
    ("A", (2, 2, 1)):
        "8941eab01ed1bbfb36639f55ca79dfbbdf345ca958852e0cf957a1410f4ec830",
    ("A", (2, 2, 2)):
        "63daa9b0f0755a50145efa1740f8ae17b500a82d128ca73c975550f076c2e4c2",
    ("A", (2, 2, 3)):
        "21b384c4151f47dbcf7c16ee56aa9ec8210947bb33472b6d19c9a52480470c05",
    ("A", (2, 3, 1)):
        "f39df3465e12338e85a240003cbaf27586461f9e82d95f65c641c98f59f44963",
    ("A", (2, 3, 2)):
        "5f890b9c84ec2ee0a9ed73cd12da4601155e5716f144a4465320d6ff15055be3",
    ("A", (2, 3, 3)):
        "e5d92c1453c9db92ef1ee8afbca8ebe84aca67bbcf886088b8f22ac6db0c7aed",
    ("A", (3, 1, 1)):
        "b30a9e2e207afbfd1b85f578f6e0945177a1ae7d96875b37891377914d7e4895",
    ("A", (3, 1, 2)):
        "088dd702041ee7b7a7a5a4c344e723a5b310857cc891460016f7e4fbe2d4f210",
    ("A", (3, 1, 3)):
        "39d3382871ada83468abb000fe2af0da27ad599882fd07961e0cc1baf1a39eb4",
    ("A", (3, 2, 1)):
        "ad9652ff78ee6726742d4e164737f92873ab17e6bff21c3b3420dbfcf4d0c35e",
    ("A", (3, 2, 2)):
        "d54f7e24b13991f1dc12f99ec3cfe4ee5e7a208988875582ccc19183b88d6308",
    ("A", (3, 2, 3)):
        "7856c00248ed2d92b12431f914f60796ac9a51c6181e5a48df9f6c888a0c88d8",
    ("A", (3, 3, 1)):
        "9c9311f993b2fe8fe2e185a95dc6a3d1ea16a5c6b4c4994ad7284bcbc74e2a1a",
    ("A", (3, 3, 2)):
        "47d72bed6daa232a70eea2e09f2519f515f1de772a5528bcecae224e68488da4",
    ("A", (3, 3, 3)):
        "2184d274a6dfec82e92963deb1fadb04c76a3b59a00ce9578f1d418c46e2f5e9",
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
    """The recursive pre-order walk ``qc.iter_nodes`` replaced."""
    yield path, node
    for attr in ("zero", "inf", "child"):
        sub = getattr(node, attr)
        if sub is not None:
            yield from _recursive_iter_nodes(sub, path + "." + attr)


def test_iter_nodes_matches_the_recursive_pre_order():
    deep = qc.generate_A_cert(1, 1, 110)
    for cert in [*_digest_certificates(), deep]:
        assert (list(qc.iter_nodes(cert.root))
                == list(_recursive_iter_nodes(cert.root)))
    assert qc.node_count(deep) == 3374


def _recursive_payload(cert):
    """The fully nested payload ``serialize`` once handed to ``json.dumps``."""
    def node(n):
        out = qc._node_to_json(n)
        for attr in ("zero", "inf", "child"):
            if attr in out:
                out[attr] = node(out[attr])
        return out
    return {"claim": cert.claim,
            "axioms": [{"name": ax.name, "claim": ax.claim,
                        "citation": ax.citation} for ax in cert.axioms],
            "root": node(cert.root)}


def _reference_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_json_text = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é✓", "𝔽\ud800"])
_json_values = st.recursive(
    _json_text | st.integers() | st.integers(-2**200, 2**200),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_json_text, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_canonical_json_matches_json_dumps(obj):
    assert qc._canonical_json(obj, None) == _reference_json(obj)


def test_serialize_equals_json_dumps_of_the_nested_payload():
    for cert in [*_digest_certificates(), qc.generate_A_cert(1, 1, 110)]:
        assert qc.serialize(cert) == _reference_json(_recursive_payload(cert))


def test_serialize_runs_below_the_certificate_depth():
    cert = qc.generate_A_cert(1, 1, 110)
    want = qc.serialize(cert)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = depth + 50
    assert limit < qc.MAX_DEPTH // 2
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        text = qc.serialize(cert)
    finally:
        sys.setrecursionlimit(old)
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

    missing_det = json.loads(json.dumps(good))
    del missing_det["root"]["det"]
    with pytest.raises(qc.CertParseError, match="root"):
        qc.deserialize(json.dumps(missing_det))

    bad_det = json.loads(json.dumps(good))
    bad_det["root"]["det"] = "seven"
    with pytest.raises(qc.CertParseError, match="root.det"):
        qc.deserialize(json.dumps(bad_det))

    bad_kind = json.loads(json.dumps(good))
    bad_kind["root"]["kind"] = "GUESS"
    with pytest.raises(qc.CertParseError, match="kind"):
        qc.deserialize(json.dumps(bad_kind))

    bad_family = json.loads(json.dumps(good))
    bad_family["root"]["link"] = {"family": "Z", "params": {}, "resolution": "*,*,*"}
    with pytest.raises(qc.CertParseError, match="family"):
        qc.deserialize(json.dumps(bad_family))

    extra_param = json.loads(json.dumps(good))
    extra_param["root"]["link"]["params"]["x"] = 5
    with pytest.raises(qc.CertParseError, match="params"):
        qc.deserialize(json.dumps(extra_param))

    with pytest.raises(qc.CertParseError):
        qc.deserialize("[1, 2, 3]")


def test_hand_written_unknot_certificate_accepts():
    text = json.dumps({
        "claim": "QUASI_ALTERNATING",
        "axioms": [{"name": "UNKNOT", "claim": "QUASI_ALTERNATING",
                    "citation": "Definition 2.3(1)"}],
        "root": {"link": {"family": "NAMED", "name": "UNKNOT"},
                 "det": "1", "kind": "BASE", "axiom": "UNKNOT"},
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


# -- depth limit -----------------------------------------------------------

def _depth(root):
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in (node.zero, node.inf, node.child)
                     if c is not None)
    return deepest


def test_deepest_a_certificate_generates_and_verifies():
    cert = qc.generate_A_cert(1, 1, 110)
    assert _depth(cert.root) == qc.MAX_DEPTH
    assert qc.verify(cert)
    assert qc.verify(qc.deserialize(qc.serialize(cert)))


def test_generation_past_the_depth_limit_is_a_generation_error():
    with pytest.raises(qc.GenerationError, match=f"depth limit of {qc.MAX_DEPTH}"):
        qc.generate_A_cert(2, 2, 110)
    with pytest.raises(qc.GenerationError, match="depth limit"):
        qc.generate_L_cert(100, 100, 100, 100)


def _symmetry_chain(levels):
    """``levels`` nodes: CIT_A_SYM identifications alternating A(1,-1,2) and
    A(2,-1,1), ending in an ALTERNATING base."""
    links = (qc.LinkId.A(1, -1, 2), qc.LinkId.A(2, -1, 1))
    det = qc.expected_det(links[0])
    node = qc.CertNode(links[(levels - 1) % 2], det, qc.BASE,
                       axiom="ALTERNATING")
    for i in range(levels - 2, -1, -1):
        node = qc.CertNode(links[i % 2], det, qc.IDENTIFY,
                           citation=qc.CIT_A_SYM, target=node.link, child=node)
    info = qc.AXIOMS["ALTERNATING"]
    return qc.Certificate(qc.QUASI_ALTERNATING, node,
                          (qc.AxiomDecl(info.name, info.claim, info.citation),))


def test_verify_enforces_the_depth_limit():
    assert qc.verify(_symmetry_chain(qc.MAX_DEPTH))
    verdict = qc.verify(_symmetry_chain(qc.MAX_DEPTH + 1))
    assert not verdict
    assert verdict.path == "root" + ".child" * qc.MAX_DEPTH
    assert f"depth limit of {qc.MAX_DEPTH} levels" in verdict.reason


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
