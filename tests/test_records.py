"""The package's records are NamedTuples with the fields, defaults and reprs
they had as dataclasses."""
import pytest

from bridgecover import goeritz, loelim, presentations, qacert
from bridgecover.multipoly import MultiPoly
from bridgecover.words import CyclicMatch, SignLattice

POS, NEG = SignLattice.STRICT_POS, SignLattice.STRICT_NEG
_SIGNS = loelim.SignAssignment((POS, NEG))
_SIGNS_TEXT = "SignAssignment(signs=(STRICT_POS, STRICT_NEG))"

# (record, its fields in order, its defaults, a sample's arguments, its repr)
RECORDS = [
    (goeritz.TableRow,
     "family resolution evaluate source validity identified_via",
     {"identified_via": None},
     ("L", "*,*,*", abs, "Table 5", "l > 1"),
     "TableRow(family='L', resolution='*,*,*', evaluate=<built-in function "
     "abs>, source='Table 5', validity='l > 1', identified_via=None)"),
    (goeritz.ResolutionRule,
     "citation family source target move target_family",
     {"move": "", "target_family": None},
     ("Lemma 5.3(1)", "A", "inf,0,0", "0,0,*"),
     "ResolutionRule(citation='Lemma 5.3(1)', family='A', source='inf,0,0', "
     "target='0,0,*', move='', target_family=None)"),
    (goeritz.IdentityCheck, "name statement residual", {},
     ("Lemma 5.4(1)", "det A(*,*,*) = 0", MultiPoly.const(0)),
     "IdentityCheck(name='Lemma 5.4(1)', statement='det A(*,*,*) = 0', "
     "residual=MultiPoly(0))"),
    (goeritz.IdentityReport, "checks", {}, ([],), "IdentityReport(checks=[])"),
    (loelim.SignAssignment, "signs", {}, ((POS, NEG),), _SIGNS_TEXT),
    (loelim.SymmetryAction, "n", {}, (5,), "SymmetryAction(n=5)"),
    (loelim.PatternVerdict,
     "index assignment eliminated witness witness_sign",
     {"witness": None, "witness_sign": None}, (1, _SIGNS, False),
     f"PatternVerdict(index=1, assignment={_SIGNS_TEXT}, eliminated=False, "
     f"witness=None, witness_sign=None)"),
    (loelim.Orbit, "canonical members", {}, (_SIGNS, (1, 2)),
     f"Orbit(canonical={_SIGNS_TEXT}, members=(1, 2))"),
    (loelim.EliminationReport, "generators verdicts orbits", {"orbits": ()},
     (("x", "y"), ()),
     "EliminationReport(generators=('x', 'y'), verdicts=(), orbits=())"),
    (loelim.WingSign, "name sign form", {"form": ""}, ("Z", POS),
     "WingSign(name='Z', sign=STRICT_POS, form='')"),
    (loelim.DerivedAtom, "atom sign via", {}, ("a", NEG, "r1"),
     "DerivedAtom(atom='a', sign=STRICT_NEG, via='r1')"),
    (loelim.SubcaseRecord,
     "index assumed derived closed witness witness_sign",
     {"witness": None, "witness_sign": None}, (1, (("Z", POS),), (), True),
     "SubcaseRecord(index=1, assumed=(('Z', STRICT_POS),), derived=(), "
     "closed=True, witness=None, witness_sign=None)"),
    (loelim.Genus2Report,
     "signs case_label verdicts orbits canonical wings subcases", {},
     ((1, 1, -1, 1), "case", (), (), _SIGNS, (), ()),
     f"Genus2Report(signs=(1, 1, -1, 1), case_label='case', verdicts=(), "
     f"orbits=(), canonical={_SIGNS_TEXT}, wings=(), subcases=())"),
    (presentations.ProductIdentityVerdict,
     "params status abelian_sums abelian_ok target_in_row_span "
     "reduced_product first_difference", {"first_difference": None},
     ((1, 1, 1, 1), "FULL_PASS", (1, 1, 1), True, True, "z y x"),
     "ProductIdentityVerdict(params=(1, 1, 1, 1), status='FULL_PASS', "
     "abelian_sums=(1, 1, 1), abelian_ok=True, target_in_row_span=True, "
     "reduced_product='z y x', first_difference=None)"),
    (presentations.RewriteRecord, "name match first_difference",
     {"first_difference": None}, ("r'1 vs r1", CyclicMatch.DIRECT),
     "RewriteRecord(name=\"r'1 vs r1\", match=<CyclicMatch.DIRECT: 'DIRECT'>, "
     "first_difference=None)"),
    # the records list has no default: ``verify_rewrites`` builds it first
    (presentations.RewriteReport, "params records", {}, ((1, 1, 1, 1), []),
     "RewriteReport(params=(1, 1, 1, 1), records=[])"),
    (qacert.AxiomDecl, "name claim citation", {},
     ("UNKNOT", qacert.QUASI_ALTERNATING, "Definition 2.3(1)"),
     "AxiomDecl(name='UNKNOT', claim='QUASI_ALTERNATING', "
     "citation='Definition 2.3(1)')"),
    (qacert.Certificate, "claim nodes axioms", {}, (qacert.L_SPACE, (), ()),
     "Certificate(claim='L_SPACE', nodes=(), axioms=())"),
    (qacert.Verdict, "accepted path reason", {"path": "", "reason": ""},
     (False, "nodes[0]", "bad"),
     "Verdict(accepted=False, path='nodes[0]', reason='bad')"),
]


@pytest.mark.parametrize("record, fields, defaults, args, text", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_record_shape(record, fields, defaults, args, text):
    assert record._fields == tuple(fields.split())
    assert record._field_defaults == defaults
    sample = record(*args)
    assert repr(sample) == text
    assert sample._replace() == sample
    assert type(sample._replace()) is record


def test_verdict_is_true_when_accepted_and_reads_as_its_outcome():
    rejected = qacert.Verdict(False, "nodes[0]", "bad")
    assert (bool(qacert.ACCEPT), str(qacert.ACCEPT)) == (True, "ACCEPT")
    assert (bool(rejected), str(rejected)) == (False,
                                               "REJECT at nodes[0]: bad")
