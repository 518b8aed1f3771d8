"""End-to-end tests for the command-line front end."""
import contextlib
import io
import itertools
import json
import pathlib
import shutil
import subprocess
import time
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgecover import cli, goeritz
from bridgecover.cli import main
from bridgecover.goeritz import (TABLE_PARAMS, IdentityCheck, build_A_star,
                                 build_L_star, det_exact, table_formula)
from bridgecover.multipoly import MultiPoly
from bridgecover.qacert import deserialize, verify

GOLDEN = pathlib.Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"


def run(argv, capsys):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse paths (usage errors, --version)
        code = exc.code if isinstance(exc.code, int) else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def err_tail(err):
    return err.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# fraction
# ---------------------------------------------------------------------------

def test_fraction_names_the_knot_class(capsys):
    code, out, _ = run(["fraction", "--", "-2", "2", "-2", "2"], capsys)
    assert code == 0
    assert out == "-5/4 (knot 5_1 class, det 5)\n"


def test_fraction_det_only_when_uncatalogued(capsys):
    code, out, _ = run(["fraction", "--", "3", "4"], capsys)
    assert code == 0
    assert out == "13/4 (det 13)\n"


def test_fraction_mirror_term_list(capsys):
    code, out, _ = run(["fraction", "--mirror", "--", "-2", "2", "-2", "2"],
                       capsys)
    assert code == 0
    assert out == "[2,-2,2,-2]\n"


def test_fraction_even_form(capsys):
    code, out, _ = run(["fraction", "--even-form", "--", "3", "2"], capsys)
    assert code == 0
    assert out == "[4,-2]\n"


def test_fraction_even_form_stops_past_its_limit(capsys):
    """T(2, N) has N - 1 terms: the form is printed up to the limit and
    refused past it before it is built."""
    n = cli.EVEN_FORM_MAX_TERMS + 1
    code, out, _ = run(["fraction", "--even-form", "--", str(n)], capsys)
    assert code == 0
    assert out.count(",") == cli.EVEN_FORM_MAX_TERMS - 1
    start = time.perf_counter()
    code, out, err = run(["fraction", "--even-form", "--", "9" * 20],
                         capsys)
    assert (code, out) == (2, "")
    assert err == (f"bridgecover: error: fraction --even-form prints at most "
                   f"{cli.EVEN_FORM_MAX_TERMS} terms, got more\n")
    assert time.perf_counter() - start < 5


def test_fraction_zero_term_is_a_usage_error(capsys):
    code, out, err = run(["fraction", "--", "2", "0", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err_tail(err) == (
        "bridgecover: error: zero term at index 2 (terms are 1-indexed)")


def test_fraction_without_terms_is_a_usage_error(capsys):
    code, _, err = run(["fraction"], capsys)
    assert code == 2
    assert "no continued-fraction terms given" in err


def test_fraction_rejects_non_integer_terms(capsys):
    code, _, err = run(["fraction", "--", "a", "b"], capsys)
    assert code == 2
    assert "terms must be integers" in err


# ---------------------------------------------------------------------------
# h1
# ---------------------------------------------------------------------------

def test_h1_default_oracle_double_cover(capsys):
    # the double cover of a determinant-5 knot has |H_1| = 5
    code, out, _ = run(["h1", "--", "-2", "2", "-2", "2"], capsys)
    assert code == 0
    assert out == "5\n"


def test_h1_snf_triple_cover(capsys):
    code, out, _ = run(["h1", "--cover", "3", "--method", "snf",
                        "--", "-2", "2", "-2", "4"], capsys)
    assert code == 0
    assert out == "16\n"


def test_h1_infinite_cover_reported(capsys):
    code, out, _ = run(["h1", "--cover", "6", "--", "2", "-2"], capsys)
    assert code == 0
    assert out == "INFINITE\n"


def test_h1_all_methods_agree(capsys):
    # options may follow the term block
    code, out, _ = run(["h1", "--", "-2", "2", "-2", "2",
                        "--cover", "3", "--method", "all"], capsys)
    assert code == 0
    assert out == "1,1,1 AGREE\n"


def test_h1_all_skips_inapplicable_methods(capsys):
    # double cover: the closed-form table only covers n = 3, so two values
    code, out, _ = run(["h1", "--method", "all", "--", "-2", "2", "-2", "4"],
                       capsys)
    assert code == 0
    assert out.endswith(" AGREE\n")
    assert len(out.split()[0].split(",")) == 2


def test_h1_disagreement_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_H1_METHODS",
                        (("snf", lambda e, n: 1), ("oracle", lambda e, n: 2)))
    code, out, _ = run(["h1", "--method", "all", "--", "-2", "2"], capsys)
    assert code == 1
    assert out == "1,2 DISAGREE\n"


def test_h1_table_method_needs_triple_cover(capsys):
    code, _, err = run(["h1", "--method", "table", "--", "-2", "2", "-2", "2"],
                       capsys)
    assert code == 2
    assert err_tail(err) == (
        "bridgecover: error: method 'table' not applicable: the closed-form"
        " value is tabulated for the 3-fold cover only")


def test_h1_rejects_two_component_links(capsys):
    code, _, err = run(["h1", "--", "4"], capsys)
    assert code == 2
    assert "numerator 4 is even" in err


def test_h1_rejects_degenerate_cover(capsys):
    code, _, err = run(["h1", "--cover", "1", "--", "-2", "2"], capsys)
    assert code == 2
    assert "--cover must be >= 2" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit in this Python")
def test_h1_prints_orders_past_the_digit_limit_exactly(capsys):
    from bridgecover.twobridge import h1_cyclic_cover_order
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(["h1", "--cover", "4000", "--", "2", "-4", "6", "-8"],
                       capsys)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    want = h1_cyclic_cover_order([2, -4, 6, -8], 4000)
    sys.set_int_max_str_digits(0)
    try:
        digits = str(want)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) == 5521
    assert out == digits + "\n"
    # a usage error leaves through SystemExit and restores the limit too
    code, _, _ = run(["h1", "--cover", "1", "--", "2", "-2"], capsys)
    assert code == 2
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite,summary", [
    ("lemma5.4", "6/6 PASS"),
    ("lemma5.12", "6/6 PASS"),
    ("lemma5.3", "5/5 PASS"),
    ("lemma5.11", "5/5 PASS"),
])
def test_identity_suites_pass(capsys, suite, summary):
    code, out, _ = run(["identities", "--suite", suite], capsys)
    assert code == 0
    assert out.rstrip().splitlines()[-1] == summary


def test_tables_agreement_on_a_grid(capsys):
    code, out, _ = run(["identities", "--suite", "tables", "--grid", "1..2"],
                       capsys)
    assert code == 0
    assert out == (
        "family  params   points  agree\n"
        "A       q,s,t    8       8\n"
        "A(t=1)  q,s      4       4\n"
        "B       q,s,t    8       8\n"
        "L       q,s,t,l  16      16\n"
        "4/4 PASS\n")


# The reference for the tables suite: a star matrix per grid point.  Its
# determinant squared minus the row squared is the residual's value there;
# with ``b_patched``, B's gets the 2 - q that ``_tables_B_off_by_one`` adds.
_STAR_MATRICES = {
    "A": lambda p: build_A_star(p["q"], p["s"], p["t"]),
    "A(t=1)": lambda p: build_A_star(p["q"], p["s"], 1),
    "B": lambda p: build_L_star(p["q"], p["s"], p["t"], 1),
    "L": lambda p: build_L_star(p["q"], p["s"], p["t"], p["l"]),
}


def _star_matrix_records(grid, b_patched=False):
    records = []
    for family, names in TABLE_PARAMS.items():
        points = [dict(zip(names, combo)) for combo in itertools.product(
            *(range(grid[n][0], grid[n][1] + 1) for n in names))]
        agree = 0
        for p in points:
            det = det_exact(_STAR_MATRICES[family](p))
            row = table_formula(family, "*,*,*", p)
            if b_patched and family == "B":
                agree += det ** 2 - row ** 2 + 2 - p["q"] == 0
            else:
                agree += abs(det) == abs(row)
        records.append({"family": family, "params": list(names),
                        "points": len(points), "agree": agree,
                        "ok": agree == len(points)})
    return records


_MIXED_GRID = {"q": (1, 3), "s": (2, 2), "t": (1, 4), "l": (3, 5)}


@pytest.mark.parametrize("b_patched", [False, True])
@pytest.mark.parametrize("grid", [
    dict.fromkeys("qstl", (1, 1)), dict.fromkeys("qstl", (1, 2)),
    dict.fromkeys("qstl", (2, 4)), _MIXED_GRID], ids=str)
def test_tables_agreement_matches_the_star_matrices(monkeypatch, grid,
                                                    b_patched):
    if b_patched:
        _tables_B_off_by_one(monkeypatch)
    want = _star_matrix_records(grid, b_patched)
    assert cli._tables_agreement(grid) == want
    assert all(r["ok"] for r in want) is not b_patched


@pytest.mark.parametrize("b_patched", [False, True])
def test_tables_suite_on_a_mixed_config_grid_matches_the_star_matrices(
        capsys, monkeypatch, tmp_path, b_patched):
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text("".join(f"{n} = {lo}..{hi}\n"
                           for n, (lo, hi) in _MIXED_GRID.items()))
    if b_patched:
        _tables_B_off_by_one(monkeypatch)
    code, out, _ = run(["--config", str(cfg), "identities", "--suite",
                        "tables", "--format", "json"], capsys)
    assert json.loads(out)["rows"] == _star_matrix_records(_MIXED_GRID,
                                                           b_patched)
    assert code == (1 if b_patched else 0)


def test_tables_suite_builds_no_star_matrix(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the tables suite built a star matrix")

    for name in ("build_A_star", "build_L_star", "det_exact"):
        monkeypatch.setattr(goeritz, name, refuse)
        assert not hasattr(cli, name)
    monkeypatch.setattr(goeritz.GoeritzMatrix, "det", refuse)
    code, out, _ = run(["identities", "--suite", "tables", "--grid", "1..19"],
                       capsys)
    assert code == 0
    assert out.endswith("4/4 PASS\n")


def test_identities_json_format(capsys):
    code, out, _ = run(["identities", "--suite", "lemma5.4",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["total"] == 6
    assert all(check["ok"] for check in payload["checks"])


def test_only_an_explicit_grid_adds_additivity_spot_checks(capsys, monkeypatch,
                                                           tmp_path):
    # The spot checks leave stdout unchanged while they hold, so record the
    # grid the reported suite was built with instead.
    seen = []
    real = cli.verify_additivity
    monkeypatch.setattr(cli, "verify_additivity", lambda family, grid=None: (
        seen.append((family, grid)) or real(family, grid=grid)))

    def reported_grid(argv):
        seen.clear()
        assert run(argv, capsys)[0] == 0
        return seen[-1]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 1..2\n")
    assert reported_grid(["--config", str(cfg), "identities",
                          "--suite", "lemma5.4"]) == ("A", None)
    assert reported_grid(["identities", "--suite", "lemma5.4",
                          "--grid", "1..2"]) == (
        "A", [dict(zip("qst", p)) for p in itertools.product((1, 2), repeat=3)])
    assert reported_grid(["identities", "--suite", "lemma5.12",
                          "--grid", "2..3"]) == (
        "L", [dict(zip("qstl", p)) for p in itertools.product((2, 3), repeat=4)])


def test_identities_header_records_provenance(capsys):
    _, _, err = run(["identities", "--suite", "lemma5.4"], capsys)
    header = err.strip().splitlines()[0]
    assert header.startswith("# bridgecover 0.1.0 | grid ")
    assert header.endswith("| source Table 3 rows (family A)")


def test_identities_empty_grid_is_a_usage_error(capsys):
    code, _, err = run(["identities", "--suite", "tables", "--grid", "3..1"],
                       capsys)
    assert code == 2
    assert "empty grid range" in err


@pytest.mark.parametrize("grid", ["0..2", "-1..1", "0..0"])
def test_tables_grid_below_one_is_a_usage_error(capsys, grid):
    code, out, err = run(["identities", "--suite", "tables", "--grid", grid],
                         capsys)
    assert (code, out) == (2, "")
    assert err_tail(err) == (
        "bridgecover: error: the tables suite needs q, s, t, l >= 1, got "
        + " ".join(f"{n}={grid}" for n in "qstl"))
    assert "Traceback" not in err


def test_tables_config_grid_below_one_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "low.cfg"
    cfg.write_text("grid = 1..2\nl = 0..1\n")
    code, out, err = run(["--config", str(cfg), "identities", "--suite",
                          "tables"], capsys)
    assert (code, out) == (2, "")
    assert err_tail(err) == (
        "bridgecover: error: the tables suite needs q, s, t, l >= 1, got l=0..1")
    # the lemma suites take any integers, so the same grid is fine there
    code, _, _ = run(["--config", str(cfg), "identities", "--suite",
                      "lemma5.12"], capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# cert
# ---------------------------------------------------------------------------

def test_cert_roundtrip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, err = run(["cert", "generate", "--family", "L",
                          "--params", "1,1,1,1", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert f"wrote {path}" in err
    code, out, _ = run(["cert", "verify", "--in", str(path)], capsys)
    assert code == 0
    assert out == "ACCEPT\n"


def test_cert_generate_writes_json_to_stdout(capsys):
    code, out, _ = run(["cert", "generate", "--family", "A",
                        "--params", "1,2,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["claim"] == "QUASI_ALTERNATING"
    assert sorted(payload) == ["axioms", "claim", "nodes"]


def test_cert_tail_params_match_the_option(capsys):
    code, via_tail, _ = run(["cert", "generate", "--family", "A",
                             "--", "1", "2", "1"], capsys)
    assert code == 0
    code, via_option, _ = run(["cert", "generate", "--family", "A",
                               "--params", "1,2,1"], capsys)
    assert code == 0
    assert via_tail == via_option


def test_cert_alternating_base_case(capsys):
    code, out, _ = run(["cert", "generate", "--family", "L",
                        "--params", "-1,1,-1,1"], capsys)
    assert code == 0
    assert json.loads(out)["claim"] == "QUASI_ALTERNATING"


def test_cert_generate_just_under_and_just_over_the_parameter_limit(
        capsys, monkeypatch):
    limit = cli.CERT_MAX_PARAM
    called = []
    monkeypatch.setattr(cli, "generate_L_cert", lambda *p: called.append(p))
    for params in ([limit + 1, 1, 1, 1], [1, 1, 1, -limit - 1]):
        code, out, err = run(["cert", "generate", "--params",
                              ",".join(map(str, params))], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert f"magnitude at most {limit}" in err
    assert called == []
    monkeypatch.undo()
    start = time.perf_counter()
    code, out, err = run(["cert", "generate", "--family", "A", "--params",
                          f"2,2,{limit}"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    assert len(json.loads(out)["nodes"]) > 10 * limit
    assert verify(deserialize(out))


def test_identities_just_under_and_just_over_the_grid_limits(capsys,
                                                            monkeypatch):
    """The largest uniform grids allowed finish in under 5 s; one step
    larger exits 2 with one line, before anything is computed."""
    under_over = (
        ("tables", "_tables_agreement", 28, cli.TABLES_MAX_POINTS),
        ("lemma5.12", "verify_additivity", 15, cli.SPOT_CHECK_MAX_POINTS),
        ("lemma5.4", "verify_additivity", 39, cli.SPOT_CHECK_MAX_POINTS),
    )
    for suite, worker, n, limit in under_over:
        start = time.perf_counter()
        code, out, err = run(["identities", "--suite", suite, "--grid",
                              f"1..{n}"], capsys)
        assert time.perf_counter() - start < 5, suite
        assert code == 0 and out.endswith(" PASS\n"), (suite, out)
        called = []
        monkeypatch.setattr(cli, worker, lambda *a, **k: called.append(a))
        code, out, err = run(["identities", "--suite", suite, "--grid",
                              f"1..{n + 1}"], capsys)
        monkeypatch.undo()
        assert (code, out, called) == (2, "", [])
        assert err.count("\n") == 1
        assert f"takes at most {limit} grid points" in err


def test_h1_just_under_and_just_over_the_size_limit(capsys, monkeypatch):
    """genus * (genus + 1) * (n - 1 + 2 * genus) * term bits is checked
    before any method runs: one cover degree past the limit exits 2 with one
    line, and the largest degree under it finishes in under 5 s from a cold
    start."""
    limit = cli.H1_MAX_SIZE
    genus4 = ["2", "-4", "6", "-8"] * 2  # term bits 24
    genus12 = ["2", "-4", "6", "-2", "4", "-6"] * 4  # term bits 64
    shapes = ((genus4, 4 * 5 * 24, "oracle"), (genus12, 12 * 13 * 64, "oracle"))
    called = []
    for name in ("h1_cyclic_cover_order", "h1_order", "table_formula"):
        monkeypatch.setattr(cli, name, lambda *a: called.append(a))
    for terms, weight, _ in shapes:
        genus = len(terms) // 2
        n = limit // weight - 2 * genus + 2
        for method in ("snf", "oracle", "all"):
            code, out, err = run(["h1", "--cover", str(n), "--method", method,
                                  "--", *terms], capsys)
            assert (code, out, called) == (2, "", [])
            assert err.count("\n") == 1
            assert f"term bits at most {limit}, " \
                f"got {(n - 1 + 2 * genus) * weight}" in err
    monkeypatch.undo()
    for terms, weight, method in shapes:
        _h1_cold(limit // weight - len(terms) + 1, method, terms)


def _h1_cold(n, method, terms):
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "bridgecover.cli", "h1", "--cover", str(n),
         "--method", method, "--", *terms], capture_output=True, text=True)
    assert time.perf_counter() - start < 5
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith(" AGREE\n" if method == "all" else "\n")


def test_h1_just_under_and_just_over_the_printed_length(capsys, monkeypatch):
    """(n - 1) * bits(|Alexander|_1) bounds the bits of the order and is
    checked before any method runs.  Under it, genus 2 runs past n = 10**5
    and genus 1 with 31-digit terms, the longest orders per cover degree,
    prints both orders of ``--method all`` in under 5 s from a cold start;
    one cover degree more exits 2 with one line."""
    limit = cli.H1_MAX_BITS
    genus1 = [str(2 * 10 ** 30), str(-4 * 10 ** 30)]  # |Delta|_1 of 203 bits
    genus2 = ["2", "-4", "6", "-8"]  # |Delta|_1 = 313, 9 bits
    called = []
    for name in ("h1_cyclic_cover_order", "h1_order", "table_formula"):
        monkeypatch.setattr(cli, name, lambda *a: called.append(a))
    for terms, bits in ((genus1, 203), (genus2, 9)):
        n = limit // bits + 2
        code, out, err = run(["h1", "--cover", str(n), "--method", "all",
                              "--", *terms], capsys)
        assert (code, out, called, err.count("\n")) == (2, "", [], 1)
        assert f"at most {limit} bits, got (cover - 1) * bits(|Alexander|_1)" \
            f" = {(n - 1) * bits}" in err
    monkeypatch.undo()
    assert limit // 9 + 1 > 10 ** 5
    for terms, bits in ((genus1, 203), (genus2, 9)):
        _h1_cold(limit // bits + 1, "all", terms)


def test_h1_refuses_a_long_expansion_before_it_is_built(capsys):
    """Every even term has |a| >= 2, so term bits >= 4 * genus.  T(2, 67)
    at the double cover (genus 33) is under the limit and T(2, 69) (genus
    34) over it, refused before its last term is built; T(2, N) for an
    eleven-digit N is refused after about seventy of its N - 1 terms."""
    limit = cli.H1_MAX_SIZE
    assert 4 * 33 ** 2 * 34 * 67 <= limit < 4 * 34 ** 2 * 35 * 69
    assert run(["h1", "--cover", "2", "--", "67"], capsys) == (0, "67\n", "")
    for n, knot in ((2, "69"), (2, "99999999999"), (3, "-99999999999")):
        start = time.perf_counter()
        code, out, err = run(["h1", "--cover", str(n), "--", knot], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert f"term bits at most {limit}, got more than " in err


@pytest.mark.parametrize("terms", [["2", "-4", "6", "-8"], ["4", "-6"]])
def test_h1_snf_at_cover_10000_agrees_with_the_oracle(capsys, terms):
    """snf has no cover-degree limit: at n = 10000 it finishes in under a
    second and prints the oracle's order."""
    start = time.perf_counter()
    code, out, err = run(["h1", "--cover", "10000", "--method", "snf",
                          "--", *terms], capsys)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    oracle = run(["h1", "--cover", "10000", "--method", "oracle", "--",
                  *terms], capsys)
    assert oracle == (0, out, "")


def test_cert_verify_rejects_a_mutated_determinant(capsys, tmp_path):
    run(["cert", "generate", "--family", "L", "--params", "1,1,1,1",
         "--out", str(tmp_path / "c.json")], capsys)
    path = tmp_path / "c.json"
    payload = json.loads(path.read_text())
    payload["nodes"][-1]["det"] = "999"
    path.write_text(json.dumps(payload))
    code, out, _ = run(["cert", "verify", "--in", str(path)], capsys)
    assert code == 1
    assert out == ("REJECT at nodes[2]: determinant 999 does not match the"
                   " tabulated value 1 for L(q=1, s=1, t=1, l=1; *,*,*)\n")


def test_cert_verify_rejects_unparseable_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not a certificate")
    code, out, _ = run(["cert", "verify", "--in", str(path)], capsys)
    assert code == 1
    assert out.startswith("REJECT ")


def test_cert_verify_rejects_input_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe\x00garbage")
    code, out, err = run(["cert", "verify", "--in", str(path)], capsys)
    assert (code, err) == (1, "")
    assert out.startswith("REJECT invalid JSON ")


def test_cert_generate_param_count_checked(capsys):
    code, _, err = run(["cert", "generate", "--family", "A",
                        "--params", "1,2"], capsys)
    assert code == 2
    assert "expected 3 parameters, got 2" in err


def test_cert_generate_needs_params(capsys):
    code, _, err = run(["cert", "generate", "--family", "A"], capsys)
    assert code == 2
    assert "generate needs --params" in err


def test_cert_verify_needs_infile(capsys):
    code, _, err = run(["cert", "verify"], capsys)
    assert code == 2
    assert "verify needs --in FILE" in err


def test_cert_outdir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code, _, err = run(["cert", "generate", "--family", "L",
                        "--params", "-1,1,-1,1", "--out", "c.json"], capsys)
    assert code == 0
    assert (tmp_path / "c.json").exists()
    code, out, _ = run(["cert", "verify", "--in", str(tmp_path / "c.json")],
                       capsys)
    assert code == 0
    assert out == "ACCEPT\n"


def test_cert_generate_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(["cert", "generate", "--family", "L",
                          "--params", "1,1,1,1", "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"bridgecover: error: [Errno 2] No such file or directory: "
        f"'{target}'")
    assert not target.exists()


# ---------------------------------------------------------------------------
# lo-elim
# ---------------------------------------------------------------------------

def test_loelim_table1_matches_the_text_golden(capsys):
    code, out, err = run(["lo-elim", "--family", "genus1", "--table1"], capsys)
    assert code == 0
    assert out == (GOLDEN / "table1.txt").read_text()
    assert err.strip() == ("# bridgecover 0.1.0 | grid"
                           " k>=2,l>=1 symbolic | source Table 1")


def test_loelim_table1_matches_the_csv_golden(capsys):
    code, out, _ = run(["lo-elim", "--family", "genus1", "--table1",
                        "--format", "csv"], capsys)
    assert code == 0
    assert out == (GOLDEN / "table1.csv").read_text()


def test_loelim_table1_json(capsys):
    code, out, _ = run(["lo-elim", "--family", "genus1", "--table1",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["survivors"] == [3, 4, 7, 8, 10]
    assert payload["orbits"] == [
        {"canonical": "++---", "members": [3, 4, 7, 8, 10]}]


def test_loelim_genus1_requires_table1(capsys):
    code, _, err = run(["lo-elim", "--family", "genus1"], capsys)
    assert code == 2
    assert "--family genus1 needs --table1" in err


def test_loelim_signs_rejected_for_genus1(capsys):
    code, _, err = run(["lo-elim", "--family", "genus1", "--table1",
                        "--signs", "+,+,+,+"], capsys)
    assert code == 2
    assert "--signs applies to --family genus2 only" in err


def test_loelim_genus2_matches_the_goldens(capsys):
    code, out, _ = run(["lo-elim", "--family", "genus2",
                        "--signs", "+,+,+,+"], capsys)
    assert code == 0
    assert out == (GOLDEN / "genus2_class1.txt").read_text()
    code, out, _ = run(["lo-elim", "--family", "genus2",
                        "--signs", "-,+,-,-"], capsys)
    assert code == 0
    assert out == (GOLDEN / "genus2_class6.txt").read_text()


def test_loelim_genus2_json(capsys):
    code, out, _ = run(["lo-elim", "--family", "genus2",
                        "--signs", "+,-,-,-", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["signs"] == [1, -1, -1, -1]
    assert payload["case"] == "mirror of sign class 5"
    assert payload["canonical"] == "+--"
    assert payload["residual"] == 3
    assert len(payload["subcases"]) == 3


def test_loelim_genus2_has_no_csv_format(capsys, monkeypatch):
    called = []
    monkeypatch.setattr(cli, "genus2_level0", lambda *a: called.append(a))
    code, out, err = run(["lo-elim", "--family", "genus2",
                          "--signs", "+,+,+,+", "--format", "csv"], capsys)
    assert code == 2
    assert called == [] and out == ""
    assert err.startswith("usage: ")
    assert err.endswith("error: csv output covers the genus1 table only\n")
    assert "# bridgecover" not in err


def test_loelim_genus2_needs_signs(capsys):
    code, _, err = run(["lo-elim", "--family", "genus2"], capsys)
    assert code == 2
    assert "--family genus2 needs --signs" in err


def test_loelim_bad_signs_are_a_usage_error(capsys):
    code, _, err = run(["lo-elim", "--family", "genus2",
                        "--signs", "+,+,x,+"], capsys)
    assert code == 2
    assert "--signs must be four comma-separated + or - entries" in err


def test_loelim_table1_rejected_for_genus2(capsys):
    code, _, err = run(["lo-elim", "--family", "genus2", "--table1",
                        "--signs", "+,+,+,+"], capsys)
    assert code == 2
    assert "--table1 applies to --family genus1 only" in err


# ---------------------------------------------------------------------------
# frozen outputs: stdout, stderr and exit code, byte for byte
# ---------------------------------------------------------------------------
#
# tests/golden/cli/cases.json lists one command line per case, with its exit
# code, its stderr and the golden file holding its stdout (null when stdout
# is empty).  Config files named in an argv live in the same directory.
# Cases with a "patch" run with one library function broken on purpose, so
# the FAIL rows and summaries are pinned too.

def _tables_B_off_by_one(monkeypatch):
    """B's star residual gets 2 - q: 1 at q = 1 and 0 at q = 2."""
    real = cli.star_residual
    monkeypatch.setattr(cli, "star_residual", lambda family: real(family) + (
        2 - MultiPoly.var("q") if family == "B" else 0))


def _lemma_item3_fails(monkeypatch):
    real = cli.verify_additivity

    def broken(family, grid=None):
        report = real(family, grid=grid)
        c = report.checks[2]
        report.checks[2] = IdentityCheck(c.name, c.statement,
                                         c.residual + MultiPoly.var("q") - 2)
        return report
    monkeypatch.setattr(cli, "verify_additivity", broken)


_PATCHES = {"tables_B_off_by_one": _tables_B_off_by_one,
            "lemma_item3_fails": _lemma_item3_fails}
_CLI_CASES = json.loads((CLI_GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _CLI_CASES, ids=[c["name"] for c in _CLI_CASES])
def test_cli_output_matches_the_golden(capsys, monkeypatch, case):
    monkeypatch.chdir(CLI_GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    if "patch" in case:
        _PATCHES[case["patch"]](monkeypatch)
    code, out, err = run(case["argv"], capsys)
    want = ("" if case["stdout"] is None else
            (CLI_GOLDEN / case["stdout"]).read_bytes().decode("utf-8"))
    assert out == want
    assert err == case["stderr"]
    assert code == case["exit"]


# ---------------------------------------------------------------------------
# configuration, headers, entry point
# ---------------------------------------------------------------------------

def test_config_file_recorded_in_header(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# narrow run\ngrid = 1..2\nq = 2..2\n")
    code, out, err = run(["--config", str(cfg), "identities", "--suite",
                          "tables"], capsys)
    assert code == 0
    assert err.strip() == (
        "# bridgecover 0.1.0 | grid q=2..2 s=1..2 t=1..2 l=1..2"
        " | source Tables 2-5 star rows")
    assert out.rstrip().splitlines()[-1] == "4/4 PASS"


def test_config_unknown_key_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 1..2\n")
    code, _, err = run(["--config", str(cfg), "identities",
                        "--suite", "tables"], capsys)
    assert code == 2
    assert "unknown key 'volume'" in err


def test_config_malformed_range_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q = 5\n")
    code, _, err = run(["--config", str(cfg), "identities",
                        "--suite", "tables"], capsys)
    assert code == 2
    assert "range must look like LO..HI" in err


def test_only_identities_reads_the_config(capsys, tmp_path):
    missing = str(tmp_path / "missing.cfg")
    assert run(["--config", missing, "h1", "2", "2"], capsys) == run(
        ["h1", "2", "2"], capsys)
    code, _, err = run(["--config", missing, "identities", "--suite",
                        "lemma5.3"], capsys)
    assert code == 2
    assert "No such file or directory" in err_tail(err)


@pytest.mark.parametrize("argv", [
    ["h1", "--", "2", "-4"],
    ["h1", "--cover", "3", "--", "2", "-4", "6", "-8"],
    ["h1", "--", "2", "-4", "--method", "all"],
    ["cert", "generate", "--family", "A", "--", "1", "1", "1"],
])
def test_a_term_block_after_config_reads_as_without_it(capsys, tmp_path,
                                                        argv):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("grid = 1..2\n")
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert run(["--config", str(cfg)] + argv, capsys)[:2] == (code, out)
    assert run([f"--config={cfg}"] + argv, capsys)[:2] == (code, out)


def test_version_flag(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert out == "bridgecover 0.1.0\n"


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, _ = run([], capsys)
    assert code == 2


def test_module_execution():
    result = subprocess.run(
        [sys.executable, "-m", "bridgecover.cli", "fraction",
         "--", "-2", "2", "-2", "2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "-5/4 (knot 5_1 class, det 5)\n"


@pytest.mark.skipif(shutil.which("bridgecover") is None,
                    reason="console script not installed")
def test_installed_entry_point():
    result = subprocess.run(
        ["bridgecover", "h1", "--cover", "3", "--method", "all",
         "--", "-2", "2", "-2", "2"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "1,1,1 AGREE\n"


# ---------------------------------------------------------------------------
# argv fuzzing: every command line ends with exit 0, 1 or 2, fast
# ---------------------------------------------------------------------------

_INT = st.one_of(st.integers(-3, 5),
                 st.sampled_from([1001, 10**6, 99999999999, -10**20,
                                  10**40])).map(str)
_JUNK = st.sampled_from(["", "x", "1/2", "-", "+", "1..", "..3", "0x10",
                         "1e9", "nan", "--bogus", "١", "1,2,,3"])
_TOKEN = st.one_of(_INT, _JUNK)
_RANGE = st.one_of(st.tuples(_INT, _INT).map("..".join), _JUNK)
_SIGNS = st.one_of(st.lists(st.sampled_from(["+", "-", "0", "x", "", "++"]),
                            max_size=6).map(",".join), _JUNK)


def _option(name, value):
    """``[name, value]`` or nothing."""
    return st.one_of(st.just([]), value.map(lambda v: [name, v]))


def _choice(*names):
    return st.one_of(st.sampled_from(names), _JUNK)


def _options(specs):
    """Up to three options from ``specs`` (name -> value strategy, None for
    a flag), repeats allowed, each spelled out, abbreviated or, with a
    value, glued to it by ``=``."""
    def spell(name, value):
        names = st.sampled_from([name, name[:5]])
        if value is None:
            return names.map(lambda n: [n])
        return st.tuples(names, value, st.booleans()).map(
            lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])
    return st.lists(st.one_of([spell(n, v) for n, v in specs.items()]),
                    max_size=3).map(lambda found: sum(found, []))


def _argv(files):
    """Command lines from the subcommand grammar, with junk and huge values
    in every slot; ``files`` names a few files, some of them malformed, and
    ends with the one ``--out`` may write."""
    path = st.sampled_from(files)
    terms = st.lists(_TOKEN, max_size=6)
    flags = _options({"--mirror": None, "--even-form": None})
    h1_options = _options({"--cover": _TOKEN, "--method": _choice(
        "snf", "oracle", "table", "all")})
    commands = [
        st.tuples(st.just(["fraction"]), flags, terms, flags).map(
            lambda t: t[0] + t[1] + ["--"] + t[2] + t[3]),
        st.tuples(st.just(["h1"]), h1_options, terms, h1_options).map(
            lambda t: t[0] + t[1] + ["--"] + t[2] + t[3]),
        st.tuples(st.just(["identities"]),
                  _option("--suite", _choice("lemma5.4", "lemma5.12",
                                             "lemma5.3", "lemma5.11",
                                             "tables")),
                  _option("--grid", _RANGE),
                  _option("--format", _choice("text", "csv", "json")),
                  _option("--config", path)).map(lambda t: sum(t, [])),
        st.tuples(st.just(["cert"]),
                  _choice("generate", "verify").map(lambda a: [a]),
                  _option("--family", _choice("A", "L")),
                  _option("--params", st.lists(_TOKEN, max_size=5).map(
                      ",".join)),
                  _option("--in", path),
                  _option("--out", st.just(files[-1]))).map(
                      lambda t: sum(t, [])),
        st.tuples(st.just(["lo-elim"]),
                  _option("--family", _choice("genus1", "genus2")),
                  st.sampled_from([[], ["--table1"]]),
                  _option("--signs", _SIGNS),
                  _option("--format", _choice("text", "csv", "json"))).map(
            lambda t: sum(t, [])),
        st.sampled_from([[], ["--version"], ["--help"], ["bogus"], ["--"]]),
    ]
    return st.tuples(st.one_of(commands), st.lists(_TOKEN, max_size=2)).map(
        lambda t: t[0] + t[1])


def _fuzz_files(directory):
    files = {"missing.txt": None, "junk.txt": "not a certificate {\n",
             "empty.txt": "", "config.txt": "grid = 1..99999999999\n",
             "cert.json": (GOLDEN / "cert_L1111.json").read_text(),
             "out.json": None}
    for name, text in files.items():
        if text is not None:
            (directory / name).write_text(text)
    return [str(directory / name) for name in files]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return _fuzz_files(tmp_path_factory.mktemp("fuzz"))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fuzzed_command_lines_exit_cleanly(fuzz_files, data):
    argv = data.draw(_argv(fuzz_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < 5, (argv, elapsed)


# ---------------------------------------------------------------------------
# plain h1 and fraction lines: read directly, exactly as argparse reads them
# ---------------------------------------------------------------------------

_PLAIN_PIECES = {
    "h1": [["--cover", "3"], ["--cover", "-2"], ["--cover", "03"],
           ["--method", "all"], ["--method", "snf"], ["--method", "bogus"],
           ["--cover"], ["--method"], ["--cover=3"], ["--cov", "5"],
           ["--method=all"], ["--meth", "all"]],
    "fraction": [["--mirror"], ["--even-form"], ["--mirror=1"], ["--even"]],
}
_TRICKY = ["-h", "--help", "--", "-0", "03", "+3", " 3", "3\n", "١",
           str(10 ** 40), "-", "", "x", "--config", "--version", "h1"]


def _plain_argv():
    """Lines of the h1 and fraction grammar: terms and options in any order,
    some repeated or misspelled, and at times one tricky token."""
    def line(command):
        piece = st.one_of(st.integers(-9, 9).map(lambda v: [str(v)]),
                          st.sampled_from(_PLAIN_PIECES[command]))
        tricky = st.one_of(st.just([]), st.sampled_from(_TRICKY).map(
            lambda token: [token]))
        return st.tuples(st.lists(piece, max_size=6), st.integers(0, 6),
                         tricky).map(lambda t: [command] + sum(
                             t[0][:t[1]], []) + t[2] + sum(t[0][t[1]:], []))
    return st.sampled_from(["h1", "fraction"]).flatmap(line)


def _outcome(argv):
    """(stdout, stderr, exit code) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@given(argv=_plain_argv())
@settings(max_examples=300, deadline=None)
def test_the_plain_reader_agrees_with_argparse(argv):
    """After hoisting and gluing, the reader declines a line or returns the
    Namespace argparse builds from it; ``main`` prints and exits alike
    whether or not the reader is used."""
    line = cli._glue_option_values(cli._hoist_terms(argv))
    got = cli._read_plain(line)
    if got is not None:
        assert vars(got) == vars(cli.build_parser().parse_args(line))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        direct = _outcome(argv)
        mp.setattr(cli, "_read_plain", lambda line: None)
        assert _outcome(argv) == direct


def test_a_plain_line_builds_no_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    code, out, _ = run(["h1", "--cover", "3", "--method", "all", "--", "2",
                        "-4", "6", "-8"], capsys)
    assert (code, out) == (0, "26569,26569,26569 AGREE\n")
    assert run(["fraction", "--", "2", "3"], capsys)[:2] == (
        0, "7/3 (knot 5_2 class, det 7)\n")
    assert cli._parser.cache_info().currsize == 0
    # a usage error still prints argparse's usage and message
    assert run(["h1", "--cover", "1", "--", "2", "-4"], capsys) == (2, "", (
        "usage: bridgecover [-h] [--version] [--config FILE]\n"
        "                   {fraction,h1,identities,cert,lo-elim} ...\n"
        "bridgecover: error: --cover must be >= 2, got 1\n"))
    assert cli._parser.cache_info().currsize == 1
