"""Command-line front end.

Subcommands
-----------

- ``fraction``    evaluate a continued fraction, name the knot, mirror terms,
                  canonical even expansion
- ``h1``          order of H_1 of an n-fold cyclic branched cover, by any or
                  all of the three methods (``snf``: the cover presentation,
                  its order the cyclic resultant of its circulant symbol;
                  Alexander resultant oracle; closed-form table)
- ``identities``  the symbolic determinant-identity suites and the
                  matrix-vs-formula grid suite
- ``cert``        generate and verify quasi-alternating certificates
- ``lo-elim``     sign-pattern elimination reports (the five-generator table
                  and the three-generator level-0 analysis)

Conventions: negative numbers go after ``--`` or inside a comma-separated
option value; report commands print a header line (tool version, grid, table
provenance) to stderr so stdout stays diff-clean against the golden
files; the exit code is 0 exactly when every requested check passes, 1 on a
failed check or rejected certificate, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from . import __version__
from .goeritz import (
    TABLE_PARAMS,
    IdentityReport,
    UnsupportedRegimeError,
    build_A_star,
    build_L_star,
    det_exact,
    lemma_suite,
    table_formula,
    verify_additivity,
)
from .loelim import (
    EliminationReport,
    Genus2Report,
    genus2_level0,
    genus2_report_text,
    report_csv,
    report_text,
    table1_report,
)
from .presentations import genus_one_presentation, h1_order, mv_presentation
from .qacert import (
    CertError,
    CertParseError,
    deserialize,
    generate_A_cert,
    generate_L_cert,
    serialize,
    verify,
)
from .twobridge import (
    EvenExpansion,
    alexander,
    cf_value,
    even_terms,
    h1_cyclic_cover_order,
    knot_name,
    mirror_terms,
)
from .words import SignLattice, WordError

OUTDIR_ENV = "BRIDGECOVER_OUTDIR"
_PARAM_NAMES = ("q", "s", "t", "l")

# Input limits.  A request past one exits 2 at once, with one line naming
# the limit.  At |parameter| = 1000 the largest certificates (L in its
# deepest sign classes, about 26000 nodes and 4.4 MB) take about 1.1 s
# each to generate and to verify as cold CLI runs (best of 5 on a shared
# 2-core machine, Python 3.11).
CERT_MAX_PARAM = 1000
# Grid points of ``identities``: the four star rows' points for the tables
# suite (n^2 (n+1)^2 on 1..n), the suite's own grid for ``--grid`` spot
# checks.  The largest uniform requests, tables at 1..19 and lemma5.12 at
# 1..12, take about 3 s cold there, which leaves room under 5 s.
TABLES_MAX_POINTS = 150_000
SPOT_CHECK_MAX_POINTS = 25_000
# h1's size: genus * (genus + 1) * (n - 1 + 2 * genus) * term bits, the bit
# lengths of |a| + 1 summed over the even expansion's terms a, which bound
# log2 |Delta|_1; (n - 1 + 2 genus) * term bits bounds the bits of the one
# resultant, of degrees summing to at most 3 * genus.  At this limit the
# slowest shape tried, genus 1 to 24 and terms to 77 digits, took 3.5 s in
# process and 4.7 s cold, printing included (genus 3, 77-digit terms,
# n = 537; 2-core machine, Python 3.11).  The answer has at most (n - 1) *
# bits(|Delta|_1) bits (Fox 1956); printing 900000 of them takes 1.4 s.
H1_MAX_SIZE = 10_000_000
H1_MAX_BITS = 900_000
# Terms ``fraction --even-form`` prints (T(2, N) has N - 1); 100000 take 0.1 s.
EVEN_FORM_MAX_TERMS = 100_000


# ---------------------------------------------------------------------------
# Grid configuration
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like LO..HI, got {text!r}")
    return int(lo), int(hi)


def load_config(path: str) -> Dict[str, Tuple[int, int]]:
    """Read grid overrides from a ``key = value`` text file.

    Accepted keys: ``grid`` (all four parameters at once) and the individual
    parameter names ``q``, ``s``, ``t``, ``l``; values are ``LO..HI`` ranges.
    Blank lines and ``#`` comments are ignored.
    """
    overrides: Dict[str, Tuple[int, int]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = key.strip(), value.strip()
            if key not in ("grid",) + _PARAM_NAMES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            rng = _parse_range(value)
            for name in _PARAM_NAMES if key == "grid" else (key,):
                overrides[name] = rng
    return overrides


def _build_grid(args) -> Dict[str, Tuple[int, int]]:
    """Each parameter's inclusive range, nonempty: the default 1..3, then
    ``--config``, then ``--grid``."""
    grid = dict.fromkeys(_PARAM_NAMES, (1, 3))
    if args.config is not None:
        grid.update(load_config(args.config))
    if getattr(args, "grid", None) is not None:
        grid = dict.fromkeys(_PARAM_NAMES, _parse_range(args.grid))
    for name, (lo, hi) in grid.items():
        if lo > hi:
            raise ValueError(f"empty grid range {name}={lo}..{hi}")
    return grid


def _grid_points(grid: Mapping[str, Tuple[int, int]], names: Sequence[str]):
    """All grid points over the given parameters, as dicts."""
    ranges = (range(grid[n][0], grid[n][1] + 1) for n in names)
    for combo in itertools.product(*ranges):
        yield dict(zip(names, combo))


def _grid_text(grid: Mapping[str, Tuple[int, int]]) -> str:
    if len(set(grid.values())) == 1:
        lo, hi = grid["q"]
        return f"q,s,t,l={lo}..{hi}"
    return " ".join(f"{n}={lo}..{hi}" for n, (lo, hi) in grid.items())


def _emit_header(grid: str, source: str) -> None:
    print(f"# bridgecover {__version__} | grid {grid}"
          f" | source {source}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Shared argument helpers
# ---------------------------------------------------------------------------

class _CliError(Exception):
    """Usage-level failure (exit code 2)."""


def _parse_terms(raw: Sequence[str]) -> List[int]:
    if not raw:
        raise _CliError("no continued-fraction terms given (put them after --)")
    try:
        terms = [int(t) for t in raw]
    except ValueError:
        raise _CliError(f"terms must be integers, got {list(raw)}")
    for i, a in enumerate(terms, start=1):
        if a == 0:
            raise _CliError(f"zero term at index {i} (terms are 1-indexed)")
    return terms


def _parse_params(text: str, count: int) -> List[int]:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise _CliError(f"--params must be comma-separated integers, got {text!r}")
    if len(values) != count:
        raise _CliError(f"expected {count} parameters, got {len(values)}")
    return values


def _bracket(values: Sequence[int]) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


_GLUED_OPTIONS = ("--params", "--signs", "--grid")


def _glue_option_values(argv: List[str]) -> List[str]:
    """Join value-taking options with their argument (``--params -1,1`` ->
    ``--params=-1,1``) so values starting with ``-`` parse cleanly."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--":
            out.extend(argv[i:])
            break
        if arg in _GLUED_OPTIONS and i + 1 < len(argv):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


def _is_int_token(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _hoist_terms(argv: List[str]) -> List[str]:
    """Allow options to precede the ``--`` term block (``h1 --cover 3 -- 2 2``)
    or follow it (``h1 -- 2 2 --cover 3``) by splicing the integer run after
    ``--`` in with the leading positionals.  The separator itself is dropped:
    bare integers (negative included) parse fine as positionals, argparse
    mishandles a literal ``--`` across subparsers, and positionals split on
    both sides of an option would land in separate match runs."""
    if "--" not in argv:
        return argv
    i = argv.index("--")
    head, rest = argv[:i], argv[i + 1:]
    j = 0
    while j < len(rest) and _is_int_token(rest[j]):
        j += 1
    k = 0
    while k < len(head) and not head[k].startswith("-"):
        k += 1
    return head[:k] + rest[:j] + head[k:] + rest[j:]


# ---------------------------------------------------------------------------
# fraction
# ---------------------------------------------------------------------------

def _cmd_fraction(args) -> int:
    terms = _parse_terms(args.terms)
    base = mirror_terms(terms) if args.mirror else terms
    try:
        fr = cf_value(base)
    except ValueError as exc:
        raise _CliError(str(exc))
    if args.even_form:
        try:
            even = list(itertools.islice(even_terms(fr), EVEN_FORM_MAX_TERMS + 1))
        except ValueError as exc:
            raise _CliError(str(exc))
        if len(even) > EVEN_FORM_MAX_TERMS:
            print(f"bridgecover: error: fraction --even-form prints at most "
                  f"{EVEN_FORM_MAX_TERMS} terms, got more", file=sys.stderr)
            return 2
        print(_bracket(even))
        return 0
    if args.mirror:
        print(_bracket(base))
        return 0
    name = knot_name(fr)
    det = abs(fr.numerator)
    if name is not None:
        print(f"{fr} (knot {name} class, det {det})")
    else:
        print(f"{fr} (det {det})")
    return 0


# ---------------------------------------------------------------------------
# h1
# ---------------------------------------------------------------------------

class _Inapplicable(Exception):
    """A homology method that does not cover the given input."""


def _h1_terms(terms: List[int], fr: Fraction) -> Iterator[int]:
    """The terms of the even expansion h1 works on, none for the unknot:
    the given ones when they are an even expansion, else the fraction's."""
    if abs(fr.numerator) == 1:
        return iter(())
    if len(terms) % 2 == 0 and all(a % 2 == 0 for a in terms):
        return iter(EvenExpansion(terms).terms)
    return even_terms(fr)


def _genus_one_params(expansion: EvenExpansion) -> Tuple[int, int]:
    a, b = expansion.terms
    return a // 2, -b // 2


def _genus_two_params(expansion: EvenExpansion) -> Dict[str, int]:
    a, b, c, d = expansion.terms
    return {"q": -a // 2, "s": b // 2, "t": -c // 2, "l": d // 2}


def _h1_snf(expansion: Optional[EvenExpansion], n: int):
    if expansion is None:
        return 1  # the unknot: every cyclic cover is the 3-sphere
    if expansion.genus == 1:
        k, l = _genus_one_params(expansion)
        return h1_order(genus_one_presentation(k, l, n))
    if expansion.genus == 2:
        p = _genus_two_params(expansion)
        return h1_order(mv_presentation(p["q"], p["s"], p["t"], p["l"], n))
    raise _Inapplicable(
        f"no cover-presentation family for a genus-{expansion.genus} "
        f"expansion (the presentation families cover genus 1 and 2)")


def _h1_oracle(expansion: Optional[EvenExpansion], n: int):
    if expansion is None:
        return 1
    return h1_cyclic_cover_order(expansion, n)


def _h1_table(expansion: Optional[EvenExpansion], n: int):
    if expansion is None or expansion.genus != 2:
        raise _Inapplicable(
            "the closed-form determinant table covers the four-parameter "
            "genus-2 family only")
    if n != 3:
        raise _Inapplicable(
            "the closed-form value is tabulated for the 3-fold cover only")
    return abs(table_formula("L", "*,*,*", _genus_two_params(expansion)))


_H1_METHODS = (("snf", _h1_snf), ("oracle", _h1_oracle), ("table", _h1_table))


def _cmd_h1(args) -> int:
    terms = _parse_terms(args.terms)
    if args.cover < 2:
        raise _CliError(f"--cover must be >= 2, got {args.cover}")
    try:
        fr = cf_value(terms)
    except ValueError as exc:
        raise _CliError(str(exc))
    if fr.numerator % 2 == 0:
        raise _CliError(
            f"numerator {fr.numerator} is even: a two-component link, "
            f"not a knot")
    # the size of the terms so far bounds the whole expansion's from below,
    # so T(2, N), with N - 1 terms, is refused after about seventy
    kept, bits = [], 0
    try:
        stream = _h1_terms(terms, fr)
        for a in stream:
            kept.append(a)
            bits += (abs(a) + 1).bit_length()
            genus = (len(kept) + 1) // 2
            size = genus * (genus + 1) * (args.cover - 1 + 2 * genus) * bits
            if size > H1_MAX_SIZE:
                more = "" if next(stream, None) is None else "more than "
                print(f"bridgecover: error: h1 takes genus * (genus + 1) * "
                      f"(cover - 1 + 2 * genus) * term bits at most "
                      f"{H1_MAX_SIZE}, got {more}{size}", file=sys.stderr)
                return 2
    except ValueError as exc:
        raise _CliError(str(exc))
    expansion = EvenExpansion(kept) if kept else None
    if (args.cover - 1) * bits > H1_MAX_BITS:  # term bits >= bits(|Delta|_1)
        bits = sum(map(abs, alexander(expansion))).bit_length()
        if (args.cover - 1) * bits > H1_MAX_BITS:
            print(f"bridgecover: error: h1 prints orders of at most "
                  f"{H1_MAX_BITS} bits, got (cover - 1) * bits(|Alexander|_1)"
                  f" = {(args.cover - 1) * bits}", file=sys.stderr)
            return 2

    if args.method == "all":
        values = []
        for _, method in _H1_METHODS:
            try:
                values.append(method(expansion, args.cover))
            except _Inapplicable:
                continue
        agree = all(v == values[0] for v in values)
        text = {v: str(v) for v in set(values)}  # equal orders: one str
        print(",".join(text[v] for v in values)
              + (" AGREE" if agree else " DISAGREE"))
        return 0 if agree else 1
    method = dict(_H1_METHODS)[args.method]
    try:
        print(method(expansion, args.cover))
    except _Inapplicable as exc:
        raise _CliError(f"method {args.method!r} not applicable: {exc}")
    return 0


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

_LEMMA_SUITES = {"lemma5.3": "A", "lemma5.11": "L"}
_ADDITIVITY_SUITES = {"lemma5.4": "A", "lemma5.12": "L"}


def _identity_suite(args) -> IdentityReport:
    """A lemma suite; ``--grid`` adds numeric spot checks to additivity."""
    if args.suite in _LEMMA_SUITES:
        return lemma_suite(_LEMMA_SUITES[args.suite])
    family = _ADDITIVITY_SUITES[args.suite]
    points = (None if args.grid is None else
              list(_grid_points(args.grid_ranges, TABLE_PARAMS[family])))
    return verify_additivity(family, grid=points)


# (family, star matrix determinant at a grid point) per row tables compares
_TABLE_SPECS = (
    ("A", lambda p: det_exact(build_A_star(p["q"], p["s"], p["t"]))),
    ("A(t=1)", lambda p: det_exact(build_A_star(p["q"], p["s"], 1))),
    ("B", lambda p: det_exact(build_L_star(p["q"], p["s"], p["t"], 1))),
    ("L", lambda p: det_exact(build_L_star(p["q"], p["s"], p["t"], p["l"]))),
)


def _point_count(grid: Mapping[str, Tuple[int, int]], family: str) -> int:
    return math.prod(grid[n][1] - grid[n][0] + 1 for n in TABLE_PARAMS[family])


def _tables_agreement(grid: Mapping[str, Tuple[int, int]]) -> List[Dict]:
    """Star-row determinants on the grid: each star matrix's determinant
    (``GoeritzMatrix.det``, two scalar continuants, O(1) per point) against
    the closed formula."""
    records = []
    for family, matrix_det in _TABLE_SPECS:
        names, points, agree = TABLE_PARAMS[family], 0, 0
        for point in _grid_points(grid, names):
            points += 1
            if abs(matrix_det(point)) == abs(table_formula(family, "*,*,*",
                                                           point)):
                agree += 1
        records.append({"family": family, "params": list(names),
                        "points": points, "agree": agree,
                        "ok": agree == points})
    return records


def _table_lines(records: Sequence[Mapping]) -> List[str]:
    cells = [("family", "params", "points", "agree")]
    cells += [(r["family"], ",".join(r["params"]), str(r["points"]),
               str(r["agree"])) for r in records]
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in cells]


def _print_checks(fmt: str, key: str, records: List[Dict],
                  text_lines: Sequence[str]) -> bool:
    """Write a verdict table; return whether every record passed.

    ``records`` are JSON-ready dicts that end in ``ok``.  json writes
    ``{key: records, "passed", "total"}``; csv writes the record keys as the
    header (``ok`` as ``status``, PASS/FAIL; lists joined by spaces); text
    writes ``text_lines``.  Both end with a ``passed/total PASS|FAIL`` line.
    """
    passed, total = sum(r["ok"] for r in records), len(records)
    if fmt == "json":
        print(json.dumps({key: records, "passed": passed,
                          "total": total}, indent=2))
        return passed == total
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["status" if k == "ok" else k for k in records[0]])
        for r in records:
            row = {**r, "ok": "PASS" if r["ok"] else "FAIL"}
            writer.writerow(" ".join(v) if isinstance(v, list) else v
                            for v in row.values())
    else:
        for line in text_lines:
            print(line)
    print(f"{passed}/{total} " + ("PASS" if passed == total else "FAIL"))
    return passed == total


_SUITE_SOURCES = {
    "lemma5.4": "Table 3 rows (family A)",
    "lemma5.12": "Table 5 rows (family L)",
    "lemma5.3": "Tables 2-3 rows (family A)",
    "lemma5.11": "Tables 4-5 rows (family L)",
    "tables": "Tables 2-5 star rows",
}


def _cmd_identities(args) -> int:
    low = " ".join(f"{n}={lo}..{hi}" for n, (lo, hi) in args.grid_ranges.items()
                   if lo < 1)
    if args.suite == "tables" and low:  # star matrices need q, s, t, l >= 1
        raise _CliError(f"the tables suite needs q, s, t, l >= 1, got {low}")
    # the lemma suites are symbolic; only tables and --grid spot checks use
    # the grid
    grid, points, limit = args.grid_ranges, 0, 0
    if args.suite == "tables":
        points = sum(_point_count(grid, family) for family, _ in _TABLE_SPECS)
        limit = TABLES_MAX_POINTS
    elif args.suite in _ADDITIVITY_SUITES and args.grid is not None:
        points = _point_count(grid, _ADDITIVITY_SUITES[args.suite])
        limit = SPOT_CHECK_MAX_POINTS
    if points > limit:
        print(f"bridgecover: error: identities --suite {args.suite} takes at "
              f"most {limit} grid points, got {points}", file=sys.stderr)
        return 2
    _emit_header(_grid_text(grid) if points else "symbolic",
                 _SUITE_SOURCES[args.suite])
    if args.suite == "tables":
        records = _tables_agreement(args.grid_ranges)
        key, lines = "rows", _table_lines(records)
    else:
        report = _identity_suite(args)
        records = [{"name": c.name, "statement": c.statement, "ok": c.ok}
                   for c in report.checks]
        key, lines = "checks", report.to_text().splitlines()
    return 0 if _print_checks(args.format, key, records, lines) else 1


# ---------------------------------------------------------------------------
# cert
# ---------------------------------------------------------------------------

def _cmd_cert(args) -> int:
    if args.action == "generate":
        if args.params is None:
            raise _CliError("generate needs --params (or parameters after --)")
        if args.family == "A":
            generate, params = generate_A_cert, _parse_params(args.params, 3)
        else:
            generate, params = generate_L_cert, _parse_params(args.params, 4)
        over = [f"{name}={value}" for name, value in zip(_PARAM_NAMES, params)
                if abs(value) > CERT_MAX_PARAM]
        if over:
            print(f"bridgecover: error: cert generate takes parameters of "
                  f"magnitude at most {CERT_MAX_PARAM}, got {', '.join(over)}",
                  file=sys.stderr)
            return 2
        try:
            cert = generate(*params)
        except (CertError, UnsupportedRegimeError) as exc:
            print(f"generation failed: {exc}", file=sys.stderr)
            return 1
        text = serialize(cert)
        if args.out is None:
            sys.stdout.write(text)
            return 0
        # relative to $BRIDGECOVER_OUTDIR; join keeps an absolute --out as is
        out_path = os.path.join(os.environ.get(OUTDIR_ENV, "."), args.out)
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _CliError(str(exc))
        print(f"wrote {out_path}", file=sys.stderr)
        return 0

    if args.infile is None:
        raise _CliError("verify needs --in FILE")
    try:
        with open(args.infile, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise _CliError(str(exc))
    try:
        cert = deserialize(data)
    except CertParseError as exc:
        print(f"REJECT {exc}")
        return 1
    verdict = verify(cert)
    print(verdict)
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# lo-elim
# ---------------------------------------------------------------------------

def _parse_signs(text: str) -> Tuple[int, int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4 or any(p not in ("+", "-") for p in parts):
        raise _CliError(
            f"--signs must be four comma-separated + or - entries, got {text!r}")
    return tuple(1 if p == "+" else -1 for p in parts)  # type: ignore[return-value]


def _sign_text(sign: Optional[SignLattice]) -> str:
    if sign is None:
        return ""
    return ">1" if sign is SignLattice.STRICT_POS else "<1"


def _patterns_json(verdicts) -> List[Dict[str, object]]:
    return [{"index": v.index, "signs": v.assignment.text(),
             "verdict": "eliminated" if v.eliminated else "survives",
             "witness": v.witness, "witness_sign": _sign_text(v.witness_sign)}
            for v in verdicts]


def _elimination_json(report: EliminationReport) -> Dict[str, object]:
    return {
        "generators": list(report.generators),
        "patterns": _patterns_json(report.verdicts),
        "orbits": [{"canonical": o.canonical.text(), "members": list(o.members)}
                   for o in report.orbits],
        "survivors": [v.index for v in report.survivors()],
    }


def _genus2_json(report: Genus2Report) -> Dict[str, object]:
    return {
        "signs": list(report.signs),
        "case": report.case_label,
        "patterns": _patterns_json(report.verdicts),
        "canonical": report.canonical.text(),
        "wings": [{"name": w.name, "sign": _sign_text(w.sign) or "unknown",
                   "form": w.form} for w in report.wings],
        "subcases": [
            {"index": sc.index,
             "assumed": [[name, _sign_text(s)] for name, s in sc.assumed],
             "derived": [[d.atom, _sign_text(d.sign), d.via]
                         for d in sc.derived],
             "closed": sc.closed, "witness": sc.witness,
             "witness_sign": _sign_text(sc.witness_sign)}
            for sc in report.subcases
        ],
        "residual": len(report.residual()),
    }


def _cmd_loelim(args) -> int:
    if args.family == "genus1":
        if not args.table1:
            raise _CliError("--family genus1 needs --table1")
        if args.signs is not None:
            raise _CliError("--signs applies to --family genus2 only")
        _emit_header("k>=2,l>=1 symbolic", "Table 1")
        report = table1_report()
        if args.format == "csv":
            sys.stdout.write(report_csv(report))
        elif args.format == "json":
            print(json.dumps(_elimination_json(report), indent=2))
        else:
            sys.stdout.write(report_text(report))
        return 0

    if args.table1:
        raise _CliError("--table1 applies to --family genus1 only")
    if args.signs is None:
        raise _CliError("--family genus2 needs --signs like +,+,-,+")
    if args.format == "csv":
        raise _CliError("csv output covers the genus1 table only")
    signs = _parse_signs(args.signs)
    _emit_header("q,s,t,l signs only", "level-0 sign analysis")
    report = genus2_level0(*signs)
    if args.format == "json":
        print(json.dumps(_genus2_json(report), indent=2))
    else:
        sys.stdout.write(genus2_report_text(report))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgecover",
        description="Exact invariants of two-bridge knots and their branched"
                    " covers.")
    parser.add_argument("--version", action="version",
                        version=f"bridgecover {__version__}")
    parser.add_argument("--config", metavar="FILE",
                        help="key = value file overriding the grid defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fraction", help="evaluate a continued fraction")
    p.add_argument("--mirror", action="store_true",
                   help="print the mirror-image term list")
    p.add_argument("--even-form", action="store_true",
                   help="print the canonical even expansion")
    p.add_argument("terms", nargs="*", metavar="TERM",
                   help="continued-fraction terms (negatives after --)")

    p = sub.add_parser("h1", help="homology order of a cyclic branched cover")
    p.add_argument("--cover", type=int, default=2, metavar="N",
                   help="cover degree n >= 2 (default 2)")
    p.add_argument("--method", choices=("snf", "oracle", "table", "all"),
                   default="oracle")
    p.add_argument("terms", nargs="*", metavar="TERM")

    p = sub.add_parser("identities", help="symbolic determinant identities")
    p.add_argument("--suite", required=True,
                   choices=("lemma5.4", "lemma5.12", "lemma5.3", "lemma5.11",
                            "tables"))
    p.add_argument("--grid", metavar="LO..HI",
                   help="numeric grid for the table suites")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("cert", help="quasi-alternating certificates")
    p.add_argument("action", choices=("generate", "verify"))
    p.add_argument("--family", choices=("A", "L"), default="L")
    p.add_argument("--params", metavar="Q,S,T[,L]",
                   help="comma-separated parameters")
    p.add_argument("--out", metavar="FILE",
                   help="write the certificate here instead of stdout")
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="certificate to verify")
    p.add_argument("params_tail", nargs="*", metavar="PARAM",
                   help="alternative to --params: values after --")

    p = sub.add_parser("lo-elim", help="sign-pattern elimination reports")
    p.add_argument("--family", choices=("genus1", "genus2"), required=True)
    p.add_argument("--table1", action="store_true",
                   help="the five-generator elimination table")
    p.add_argument("--signs", metavar="+,+,-,+",
                   help="sign class of (q, s, t, l) for the level-0 analysis")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    return parser


_COMMANDS = {
    "fraction": _cmd_fraction,
    "h1": _cmd_h1,
    "identities": _cmd_identities,
    "cert": _cmd_cert,
    "lo-elim": _cmd_loelim,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  Integers are printed exactly however many digits
    they have: Python's int-to-str digit limit is lifted for the run and
    restored on return or exit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


# The parser holds no per-call state, so one serves every call in a process.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def _run(argv: Optional[Sequence[str]]) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = parser.parse_args(_glue_option_values(_hoist_terms(argv)))

    try:
        args.grid_ranges = _build_grid(args)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if getattr(args, "params", None) is None and getattr(args, "params_tail",
                                                         None):
        args.params = ",".join(args.params_tail)

    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits
    except (WordError, CertError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
