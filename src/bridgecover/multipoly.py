"""Sparse multivariate polynomials with exact integer coefficients.

Monomials are keyed by tuples of (variable, exponent) pairs, sorted by
variable name, with zero exponents dropped; zero coefficients are never
stored.  This keeps equality, hashing and the canonical text form trivially
deterministic.
"""
from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple, Union

Monomial = Tuple[Tuple[str, int], ...]


def _normalize_monomial(items: Iterable[Tuple[str, int]]) -> Monomial:
    merged: Dict[str, int] = {}
    for var, exp in items:
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in merged.items() if e))


class MultiPoly:
    """Polynomial in finitely many named variables over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: Dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    key = _normalize_monomial(mono)
                    clean[key] = clean.get(key, 0) + coeff
                    if not clean[key]:
                        del clean[key]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: int) -> "MultiPoly":
        return MultiPoly({(): c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly({((name, 1),): 1})

    @staticmethod
    def coerce(value: Union["MultiPoly", int]) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, int):
            return MultiPoly.const(value)
        raise TypeError(f"cannot make a polynomial from {value!r}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = MultiPoly.coerce(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
            if not out[mono]:
                del out[mono]
        result = MultiPoly.__new__(MultiPoly)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = MultiPoly.__new__(MultiPoly)
        result.terms = {m: -c for m, c in self.terms.items()}
        return result

    def __sub__(self, other):
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        return MultiPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = MultiPoly.coerce(other)
        out: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _normalize_monomial(m1 + m2)
                out[mono] = out.get(mono, 0) + c1 * c2
                if not out[mono]:
                    del out[mono]
        result = MultiPoly.__new__(MultiPoly)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, values: Mapping[str, int]) -> int:
        total = 0
        try:
            for mono, coeff in self.terms.items():
                for var, exp in mono:
                    coeff *= values[var] ** exp
                total += coeff
        except KeyError as exc:
            raise KeyError(f"no value for variable {exc.args[0]!r}") from None
        return total

    def substitute(self, assignments: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        total = MultiPoly.const(0)
        for mono, coeff in self.terms.items():
            kept = tuple(item for item in mono if item[0] not in assignments)
            prod = MultiPoly({kept: coeff})
            for var, exp in mono:
                if var in assignments:
                    prod = prod * assignments[var] ** exp
            total = total + prod
        return total

    # -- equality / text ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):  # a constant hashes as the int it equals
        return hash(self.terms.get((), 0) if self.terms.keys() <= {()}
                    else frozenset(self.terms.items()))

    @staticmethod
    def _monomial_key(mono: Monomial):
        total = sum(e for _, e in mono)
        return (-total, mono)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=self._monomial_key):
            coeff = self.terms[mono]
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            mag = abs(coeff)
            if body:
                text = body if mag == 1 else f"{mag}*{body}"
            else:
                text = str(mag)
            parts.append(("- " if coeff < 0 else "+ ") + text)
        first = parts[0]
        out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        return " ".join([out] + parts[1:])

    def __repr__(self) -> str:
        return f"MultiPoly({self})"
