"""Answer checks, made by the orchestrator after each op, outside its timing.

Each op kind is checked against a reference that does not run the code path
the op timed:

    h1_*        sympy: the Alexander polynomial as the continuant of the
                tridiagonal V - t V^T, then its resultant with
                1 + t + ... + t^(n-1); "all" also needs the methods to agree
    product     an independent free and cyclic reduction of the returned
                product word must leave a rotation of z y x; status FULL_PASS
    rewrites    every record matches (the identities are theorems)
    genus2      the golden reports for sign classes 1 and 6; for the others
                the residual count of acceptance criterion 8
    table1      the golden text and csv
    write_*     the written certificate verifies: ACCEPT
    read        ACCEPT
    mutant      REJECT
    star_*      |det| equals the closed-form table (``goeritz.table_formula``)
"""
from __future__ import annotations

import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

# Sign classes of (q, s, t, l) that keep all three subcases open at level 0
# (acceptance criterion 8); every other class closes all three.
OPEN_SIGN_CLASSES = {
    (1, 1, 1, 1), (-1, -1, -1, -1), (-1, -1, -1, 1), (1, 1, 1, -1),
    (-1, 1, 1, 1), (1, -1, -1, -1), (1, -1, -1, 1), (-1, 1, 1, -1),
}
GENUS2_GOLDEN = {(1, 1, 1, 1): "genus2_class1.txt",
                 (-1, 1, -1, -1): "genus2_class6.txt"}
_RESIDUAL = re.compile(r"^residual: (\d+) of (\d+) subcases open$", re.M)


def decode_int(text: str):
    return None if text == "INF" else int(text, 16)


def h1_reference(terms: Sequence[int], n: int):
    """Order of H_1 of the n-fold cyclic branched cover (None if infinite)."""
    import sympy

    t = sympy.Symbol("t")
    halves = [a // 2 for a in terms]
    diag = []
    for a, b in zip(halves[0::2], halves[1::2]):
        diag += [a, -b]
    # V - t V^T is tridiagonal: diagonal d (1 - t), 1 above, -t below.
    prev, cur = sympy.Poly(1, t), sympy.Poly(diag[0] * (1 - t), t)
    for d in diag[1:]:
        prev, cur = cur, sympy.Poly(d * (1 - t), t) * cur + sympy.Poly(t, t) * prev
    cyclo = sympy.Poly(sum(t ** i for i in range(n)), t)
    order = abs(int(cur.resultant(cyclo)))
    return order or None


def _syllables(text: str) -> List[Tuple[str, int]]:
    out = []
    for token in text.split():
        if token == "1":
            continue
        gen, _, exp = token.partition("^")
        out.append((gen, int(exp.strip("()")) if exp else 1))
    return out


def cyclic_reduction(text: str) -> List[Tuple[str, int]]:
    """Free and then cyclic reduction of a concrete word, on (gen, exponent)
    runs."""
    stack: List[Tuple[str, int]] = []
    for gen, exp in _syllables(text):
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if exp:
            stack.append((gen, exp))
    while len(stack) > 1 and stack[0][0] == stack[-1][0]:
        gen, exp = stack[0][0], stack[0][1] + stack.pop()[1]
        if exp:
            stack[0] = (gen, exp)
        else:
            stack.pop(0)
    return stack


def is_rotation(word: List[Tuple[str, int]], target: List[Tuple[str, int]]) -> bool:
    return len(word) == len(target) and any(
        word[i:] + word[:i] == target for i in range(len(word)))


class Checker:
    def __init__(self, root: str):
        self.golden = os.path.join(root, "tests", "golden")
        sys.path.insert(0, os.path.join(root, "src"))
        from bridgecover.goeritz import table_formula
        self.table_formula = table_formula
        self._h1: Dict[Tuple, Optional[int]] = {}
        self._files: Dict[str, str] = {}

    def _read(self, name: str) -> str:
        if name not in self._files:
            with open(os.path.join(self.golden, name), encoding="utf-8") as f:
                self._files[name] = f.read()
        return self._files[name]

    def h1(self, terms, n) -> Optional[int]:
        key = (tuple(terms), n)
        if key not in self._h1:
            self._h1[key] = h1_reference(terms, n)
        return self._h1[key]

    def check(self, op, answer) -> bool:
        kind, args = op["kind"], op["args"]
        cli = isinstance(answer, dict) and "code" in answer
        if cli and answer["code"] not in (0, 1):
            return False
        if kind.startswith("h1_"):
            want = self.h1(args["terms"], args["n"])
            if cli:
                fields = answer["stdout"].split()
                if kind == "h1_all" and fields[1:] != ["AGREE"]:
                    return False
                got = [None if v == "INFINITE" else int(v)
                       for v in fields[0].split(",")]
            else:
                got = [decode_int(v) for v in answer["values"].values()]
            expected_methods = 1
            if kind == "h1_all":
                expected_methods = 3 if len(args["terms"]) == 4 \
                    and args["n"] == 3 else 2
            return len(got) == expected_methods and all(v == want for v in got)
        if kind == "product":
            return (answer["status"] == "FULL_PASS"
                    and answer["abelian"] == [1, 1, 1]
                    and is_rotation(cyclic_reduction(answer["reduced"]),
                                    [("z", 1), ("y", 1), ("x", 1)]))
        if kind == "rewrites":
            return answer["all_ok"] is True and answer["records"] == 6
        if kind == "genus2":
            signs = tuple(args["signs"])
            text = answer["stdout"]
            if signs in GENUS2_GOLDEN:
                return text == self._read(GENUS2_GOLDEN[signs])
            case = " ".join(f"{n}{'>0' if v > 0 else '<0'}"
                            for n, v in zip("qstl", signs))
            found = _RESIDUAL.findall(text)
            want = "3" if signs in OPEN_SIGN_CLASSES else "0"
            return (text.startswith(f"level-0 wing sign analysis for {case} (")
                    and found == [(want, "3")])
        if kind == "table1":
            name = "table1.txt" if args["format"] == "text" else "table1.csv"
            return answer["stdout"] == self._read(name)
        if kind in ("write_L", "write_A"):
            return answer["verdict"] == "ACCEPT"
        if kind == "read":
            return answer["stdout"] == "ACCEPT\n"
        if kind == "mutant":
            return answer["stdout"].startswith("REJECT")
        if kind in ("star_L", "star_A"):
            family = kind[-1]
            params = dict(zip("qstl", args["params"]))
            return abs(decode_int(answer["det"])) == abs(
                self.table_formula(family, "*,*,*", params))
        raise ValueError(f"unknown op kind {kind!r}")
