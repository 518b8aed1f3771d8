#!/usr/bin/env python3
"""Quasi-alternating certificates: generate, inspect, verify, and attack.

A certificate is a list of nodes, one per link, each citing earlier nodes
by index: leaves invoke whitelisted axioms (named links or trusted regime
facts), inner nodes apply the skein recursion det(L) = det(L0) + det(Linf)
or an identification move (mirror image or a parameter swap), and the root
comes last.  The verifier re-derives every determinant from the closed-form
tables and checks each inference locally, so a certificate is only as
strong as its declared axioms - and any corrupted field should be caught.
"""
import json

from bridgecover.qacert import (
    CertParseError,
    deserialize,
    generate_L_cert,
    serialize,
    verify,
)


def show_node(index, node):
    link = node["link"]
    name = link.get("name") or (
        link["family"] + "(" + ",".join(str(link["params"][k]) for k in "qstl"
                                        if k in link["params"])
        + f") [{link['resolution']}]")
    refs = ", ".join(f"{key}=[{node[key]}]" for key in ("zero", "inf", "child")
                     if key in node)
    print(f"  [{index}] {node['kind']} {name} det={node['det']}"
          + (f" -> {refs}" if refs else ""))


def main():
    # The all-positive corner of the four-parameter family at (2,2,2,2):
    # a genuine inductive certificate with skein steps.
    cert = generate_L_cert(2, 2, 2, 2)
    print(f"claim for (q,s,t,l) = (2,2,2,2): {cert.claim}")
    print(f"declared axioms: {sorted(a.name for a in cert.axioms)}")
    nodes = json.loads(serialize(cert))["nodes"]
    print(f"node list ({len(nodes)} nodes, one per link; the last five):")
    for index in range(len(nodes) - 5, len(nodes)):
        show_node(index, nodes[index])
    print(f"verifier says: {verify(cert)}")
    print()
    # The alternating sign regime collapses to a single leaf.
    cert = generate_L_cert(-1, 1, -1, 1)
    print(f"claim for (q,s,t,l) = (-1,1,-1,1): {cert.claim}")
    print(f"one-node certificate, axioms {sorted(a.name for a in cert.axioms)}")
    print(f"verifier says: {verify(cert)}")
    print()

    # Attack: corrupt a single determinant field and watch the verifier
    # refuse.  Parse-level corruption is rejected even earlier.
    doc = json.loads(serialize(generate_L_cert(1, 1, 1, 1)))
    doc["nodes"][-1]["det"] = "999"
    verdict = verify(deserialize(json.dumps(doc)))
    print(f"after corrupting the root determinant: {verdict}")
    try:
        deserialize("{'not': 'a certificate'}")
    except CertParseError as exc:
        print(f"malformed input: rejected at parse time ({exc})")


if __name__ == "__main__":
    main()
