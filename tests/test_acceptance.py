"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single ``[criterion N] PASS/FAIL`` line (bypassing
pytest's capture) with the measured runtime.  All arithmetic is exact;
every comparison is integer equality.  Criterion 7 writes a findings file
next to the working directory (or ``$BRIDGECOVER_OUTDIR``) whenever a word
comparison passes only after abelianization, pinpointing the first
differing syllable; criterion 8 asserts what the toolkit deliberately does
NOT prove: the sign-elimination fragment leaves surviving patterns and
open subcases, and certificates are conditional on their declared axioms.
"""
import copy
import itertools
import json
import os
import pathlib
import time

from bridgecover.goeritz import (
    build_A_star,
    build_L_star,
    det_exact,
    table_formula,
    verify_additivity,
    verify_substitution_identities,
)
from bridgecover.loelim import genus2_level0, table1_report
from bridgecover.presentations import (
    h1_order,
    mv_presentation,
    verify_product_identity,
    verify_rewrites,
)
from bridgecover.qacert import (
    CertError,
    CertParseError,
    Certificate,
    deserialize,
    generate_L_cert,
    serialize,
    verify,
)
from bridgecover.twobridge import alexander, cf_value, h1_cyclic_cover_order
from bridgecover.words import SignLattice

GOLDEN = pathlib.Path(__file__).parent / "golden"
SP = SignLattice.STRICT_POS
SN = SignLattice.STRICT_NEG


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# 1. Star determinants match the closed forms
# ---------------------------------------------------------------------------

def test_criterion_1_star_determinants_match_closed_forms(capsys):
    start = time.perf_counter()
    failures = []
    for q, s, t in itertools.product(range(1, 5), repeat=3):
        want = 3 * (-t - q + 3 * q * s * t) ** 2
        if abs(det_exact(build_A_star(q, s, t))) != want:
            failures.append(("A", q, s, t))
    for q, s, t, l in itertools.product(range(1, 4), repeat=4):
        want = (1 - 3 * q * l - 3 * q * s - 3 * l * t + 9 * l * q * s * t) ** 2
        if abs(det_exact(build_L_star(q, s, t, l))) != want:
            failures.append(("L", q, s, t, l))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10
    report(capsys, 1, ok,
           f"star determinants equal the closed forms at 64 + 81 points"
           f" ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 2. Identity suites are zero polynomials
# ---------------------------------------------------------------------------

def test_criterion_2_identity_suites_are_zero_polynomials(capsys):
    start = time.perf_counter()
    additivity = verify_additivity("A").checks + verify_additivity("L").checks
    substitution = [c for c in verify_substitution_identities().checks
                    if c.name.startswith(("Lemma 5.3(", "Lemma 5.11("))]
    failures = [c.name for c in additivity + substitution if not c.ok]
    elapsed = time.perf_counter() - start
    ok = (len(additivity) == 12 and len(substitution) == 6
          and not failures and elapsed < 1)
    report(capsys, 2, ok,
           f"6 + 6 additivity and 6 substitution identities vanish"
           f" ({elapsed:.2f}s)")
    assert len(additivity) == 12
    assert len(substitution) == 6
    assert not failures, failures
    assert elapsed < 1


# ---------------------------------------------------------------------------
# 3. Five-generator elimination table
# ---------------------------------------------------------------------------

TABLE_WITNESSES = {
    1: ("r0", SP), 2: ("r1", SN), 5: ("r5", SP), 6: ("r2", SN),
    9: ("r3", SN), 11: ("r4", SN), 12: ("r1", SN), 13: ("r1", SN),
    14: ("r3", SP), 15: ("r1", SN), 16: ("r2", SN),
}


def test_criterion_3_five_generator_elimination_table(capsys):
    from bridgecover.loelim import report_text
    start = time.perf_counter()
    rep = table1_report()
    eliminated = {v.index: (v.witness, v.witness_sign)
                  for v in rep.verdicts if v.eliminated}
    survivors = [v.index for v in rep.survivors()]
    orbit_ok = (len(rep.orbits) == 1
                and rep.orbits[0].canonical.text() == "++---"
                and list(rep.orbits[0].members) == [3, 4, 7, 8, 10])
    golden_ok = report_text(rep) == (GOLDEN / "table1.txt").read_text()
    elapsed = time.perf_counter() - start
    ok = (eliminated == TABLE_WITNESSES and survivors == [3, 4, 7, 8, 10]
          and orbit_ok and golden_ok and elapsed < 1)
    report(capsys, 3, ok,
           f"elimination table reproduced byte-identically; survivors"
           f" collapse to one orbit ({elapsed:.2f}s)")
    assert eliminated == TABLE_WITNESSES
    assert survivors == [3, 4, 7, 8, 10]
    assert orbit_ok
    assert golden_ok
    assert elapsed < 1


# ---------------------------------------------------------------------------
# 4. Triple-cover homology three ways
# ---------------------------------------------------------------------------

def test_criterion_4_triple_cover_homology_three_ways(capsys):
    start = time.perf_counter()
    failures = []
    for q, s, t, l in itertools.product((-2, -1, 1, 2), repeat=4):
        snf = h1_order(mv_presentation(q, s, t, l, 3))
        closed = abs(table_formula("L", "*,*,*",
                                   {"q": q, "s": s, "t": t, "l": l}))
        oracle = h1_cyclic_cover_order([-2 * q, 2 * s, -2 * t, 2 * l], 3)
        if not (snf == closed == oracle):
            failures.append(((q, s, t, l), snf, closed, oracle))
    poincare = h1_order(mv_presentation(1, 1, 1, 1, 3))
    elapsed = time.perf_counter() - start
    ok = not failures and poincare == 1 and elapsed < 60
    report(capsys, 4, ok,
           f"presentation SNF, closed form and resultant agree at 256"
           f" points; (1,1,1,1) gives the homology sphere ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert poincare == 1
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 5. Determinant law
# ---------------------------------------------------------------------------

def test_criterion_5_determinant_law_for_even_expansions(capsys):
    start = time.perf_counter()
    halves = [h for h in range(-3, 4) if h != 0]
    count = 0
    failures = []
    for length in (2, 4):
        for combo in itertools.product(halves, repeat=length):
            terms = [2 * a for a in combo]
            count += 1
            delta = alexander(terms)
            at_minus_one = abs(sum(c * (-1) ** i for i, c in enumerate(delta)))
            p = abs(cf_value(terms).numerator)
            double_cover = h1_cyclic_cover_order(terms, 2)
            if not (at_minus_one == p == double_cover):
                failures.append((terms, at_minus_one, p, double_cover))
    elapsed = time.perf_counter() - start
    ok = not failures and count == 1332 and elapsed < 10
    report(capsys, 5, ok,
           f"|Alexander(-1)| = |p| = double-cover order for {count} even"
           f" expansions ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert count == 1332
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 6. Certificate round-trip and soundness
# ---------------------------------------------------------------------------

def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaf_paths(value, prefix + (index,))
    else:
        yield prefix, node


def _with_mutation(doc, path, value):
    mutant = copy.deepcopy(doc)
    target = mutant
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return mutant


def _mutate(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "X"
    return "MUTANT"


def _rejects(text):
    try:
        cert = deserialize(text)
    except CertParseError:
        return True
    return not verify(cert)


_UNUSED_TEXT = {"BASE": ("citation",), "IDENTIFY": ("axiom",),
                "SKEIN": ("axiom", "citation")}


def _serializes(cert):
    try:
        serialize(cert)
    except CertError:
        return False
    return True


def test_criterion_6_certificate_roundtrip_and_mutation_soundness(capsys):
    start = time.perf_counter()
    failures = []
    for q, s, t, l in itertools.product(range(1, 4), repeat=4):
        cert = deserialize(serialize(generate_L_cert(q, s, t, l)))
        if not verify(cert):
            failures.append(("grid", q, s, t, l))
    regimes = 0
    for signs in itertools.product((1, -1), repeat=4):
        for magnitude in (1, 2):
            params = tuple(sign * magnitude for sign in signs)
            regimes += 1
            if not verify(generate_L_cert(*params)):
                failures.append(("regime", params))
    samples = [generate_L_cert(1, 1, 1, 1), generate_L_cert(-1, 1, -1, 1),
               generate_L_cert(1, -2, -2, 1)]
    accepted_mutants = []
    mutants = 0
    for cert in samples:
        doc = json.loads(serialize(cert))
        for path, value in _leaf_paths(doc):
            mutants += 1
            mutant = _with_mutation(doc, path, _mutate(value))
            if not _rejects(json.dumps(mutant)):
                accepted_mutants.append("/".join(map(str, path)))
        # a text field the node's kind does not use, filled in memory: the
        # file has no key for it, so it would be dropped by serialize
        for i, node in enumerate(cert.nodes):
            for field in _UNUSED_TEXT[node.kind]:
                mutants += 1
                mutant = Certificate(cert.claim, cert.nodes[:i]
                                     + (node._replace(**{field: "anything"}),)
                                     + cert.nodes[i + 1:], cert.axioms)
                if verify(mutant) or _serializes(mutant):
                    accepted_mutants.append(f"nodes/{i}/{field}")
    elapsed = time.perf_counter() - start
    ok = (not failures and not accepted_mutants and elapsed < 30)
    report(capsys, 6, ok,
           f"81 grid + {regimes} sign-regime certificates ACCEPT;"
           f" {mutants} single-field mutants all REJECT ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert not accepted_mutants, accepted_mutants[:5]
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 7. Word-algebra verdicts
# ---------------------------------------------------------------------------

FINDINGS = pathlib.Path(
    os.environ.get("BRIDGECOVER_OUTDIR", ".")) / "acceptance_findings.txt"


def test_criterion_7_word_algebra_verdicts(capsys):
    start = time.perf_counter()
    abelian_failures = []
    downgraded = []    # passed only after abelianization, or worse
    records = 0
    for q, s, t, l in itertools.product((1, 2), repeat=4):
        rewrite = verify_rewrites(q, s, t, l)
        records += len(rewrite.records)
        for record in rewrite.records:
            if not record.ok:
                downgraded.append(((q, s, t, l), record.name,
                                   record.first_difference))
        product = verify_product_identity(q, s, t, l)
        records += 1
        if not product.abelian_ok:
            abelian_failures.append((q, s, t, l))
        if product.status != "FULL_PASS":
            downgraded.append(((q, s, t, l), f"product identity"
                               f" [{product.status}]",
                               product.first_difference))
    if downgraded:
        lines = [f"{params} {name}: first differing syllable {diff}"
                 for params, name, diff in downgraded]
        FINDINGS.write_text("\n".join(lines) + "\n")
    else:
        FINDINGS.unlink(missing_ok=True)
    pinpointed = all(diff is not None for _, _, diff in downgraded)
    elapsed = time.perf_counter() - start
    ok = (not abelian_failures and not downgraded and pinpointed
          and elapsed < 10)
    report(capsys, 7, ok,
           f"{records} verdict records at 16 points: abelian checks PASS,"
           f" all free reductions match ({elapsed:.2f}s)")
    assert not abelian_failures, abelian_failures
    # expected-PASS: every downgraded comparison must pinpoint the first
    # differing syllable (recorded in the findings file) and fail the suite
    assert pinpointed, downgraded
    assert not downgraded, f"see {FINDINGS}"
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 8. The headline theorems stay out of computational reach
# ---------------------------------------------------------------------------

OPEN_SIGN_CLASSES = {
    (1, 1, 1, 1), (-1, -1, -1, -1),     # base class and its mirror
    (-1, -1, -1, 1), (1, 1, 1, -1),
    (-1, 1, 1, 1), (1, -1, -1, -1),
    (1, -1, -1, 1), (-1, 1, 1, -1),
}


def test_criterion_8_surviving_patterns_remain_open(capsys):
    start = time.perf_counter()
    table = table1_report()
    survivors = [v.index for v in table.survivors()]
    open_classes = {}
    for signs in itertools.product((1, -1), repeat=4):
        residual = genus2_level0(*signs).residual()
        if residual:
            open_classes[signs] = len(residual)
    conditional = generate_L_cert(1, 1, 1, 1)
    elapsed = time.perf_counter() - start
    ok = (survivors == [3, 4, 7, 8, 10]
          and set(open_classes) == OPEN_SIGN_CLASSES
          and all(n == 3 for n in open_classes.values())
          and len(conditional.axioms) > 0)
    report(capsys, 8, ok,
           f"non-reproducibility confirmed: {len(survivors)} five-generator"
           f" patterns survive and {len(open_classes)}/16 sign classes keep"
           f" 3/3 subcases open; certificates rest on declared axioms"
           f" ({elapsed:.2f}s)")
    # the elimination fragment must NOT finish the job: survivors and open
    # subcases are the honest residue of the bounded search
    assert survivors == [3, 4, 7, 8, 10]
    assert set(open_classes) == OPEN_SIGN_CLASSES
    assert all(n == 3 for n in open_classes.values())
    assert len(conditional.axioms) > 0
