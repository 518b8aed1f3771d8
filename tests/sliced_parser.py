"""Slicing reference for the text syntax of bridgecover.words.

The earlier parser of ``parse_word`` and ``parse_affine``: each reader
returns what it read with the rest of the token list, sliced off at every
syllable and exponent, so it takes time quadratic in the text and recursion
as deep as the nesting.  It stays here, unchanged, as the oracle that the
one-pass parser accepts the same language and builds the same words.
"""
import re
from typing import List, Tuple

from bridgecover.words import (
    AffineExp, ParamWord, PowerBlock, Syllable, WordError, WordItem,
)

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[()^+\-*])")


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise WordError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_affine(text: str) -> AffineExp:
    tokens = _tokenize(text)
    exp, rest = _parse_affine_tokens(tokens)
    if rest:
        raise WordError(f"trailing tokens {rest} in affine expression {text!r}")
    return exp


def _parse_affine_tokens(tokens: List[str]) -> Tuple[AffineExp, List[str]]:
    total = AffineExp(0)
    sign = 1
    expect_term = True
    i = 0
    seen_any = False
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+" and not expect_term:
            sign = 1
            expect_term = True
            i += 1
        elif tok == "-":
            sign = -sign if expect_term else -1
            expect_term = True
            i += 1
        elif expect_term and tok.isdigit():
            coeff = int(tok)
            if i + 1 < len(tokens) and (tokens[i + 1] == "*" or _is_ident(tokens[i + 1])):
                j = i + 1
                if tokens[j] == "*":
                    j += 1
                if j >= len(tokens) or not _is_ident(tokens[j]):
                    raise WordError(f"expected parameter after coefficient in {tokens}")
                total = total + AffineExp.param(tokens[j], sign * coeff)
                i = j + 1
            else:
                total = total + AffineExp(sign * coeff)
                i += 1
            sign = 1
            expect_term = False
            seen_any = True
        elif expect_term and _is_ident(tok):
            total = total + AffineExp.param(tok, sign)
            sign = 1
            expect_term = False
            seen_any = True
            i += 1
        else:
            break
    if not seen_any or expect_term:
        raise WordError(f"malformed affine expression at {tokens}")
    return total, tokens[i:]


def _is_ident(tok: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok))


def parse_word(text: str) -> ParamWord:
    """Parse the plain-text word syntax.

    Examples: ``x``, ``x^(-k)``, ``(x^(-k) y^(k))^(l) z^(k-1)``.  Exponents
    and multiplicities are affine forms in parentheses (a bare integer is
    also accepted after ^).
    """
    if text.strip() == "1":
        return ParamWord.empty()
    tokens = _tokenize(text)
    items, rest = _parse_word_tokens(tokens)
    if rest:
        raise WordError(f"trailing tokens {rest} in word {text!r}")
    return ParamWord(items)


def _parse_exponent(tokens: List[str]) -> Tuple[AffineExp, List[str]]:
    if not tokens:
        raise WordError("missing exponent after ^")
    if tokens[0] == "(":
        exp, rest = _parse_affine_tokens(tokens[1:])
        if not rest or rest[0] != ")":
            raise WordError(f"unbalanced parentheses in exponent near {tokens}")
        return exp, rest[1:]
    if tokens[0].isdigit():
        return AffineExp(int(tokens[0])), tokens[1:]
    if tokens[0] == "-" and len(tokens) > 1 and tokens[1].isdigit():
        return AffineExp(-int(tokens[1])), tokens[2:]
    raise WordError(f"malformed exponent near {tokens}")


def _parse_word_tokens(tokens: List[str]) -> Tuple[List[WordItem], List[str]]:
    items: List[WordItem] = []
    while tokens:
        tok = tokens[0]
        if tok == ")":
            break
        if tok == "(":
            inner, rest = _parse_word_tokens(tokens[1:])
            if not rest or rest[0] != ")":
                raise WordError(f"unbalanced parentheses near {tokens[:6]}")
            rest = rest[1:]
            if not rest or rest[0] != "^":
                raise WordError("a parenthesized word must carry a ^(multiplicity)")
            mult, rest = _parse_exponent(rest[1:])
            items.append(PowerBlock(ParamWord(inner), mult))
            tokens = rest
        elif _is_ident(tok):
            tokens = tokens[1:]
            if tokens and tokens[0] == "^":
                exp, tokens = _parse_exponent(tokens[1:])
            else:
                exp = AffineExp(1)
            items.append(Syllable(tok, exp))
        else:
            raise WordError(f"unexpected token {tok!r} in word")
    return items, tokens
