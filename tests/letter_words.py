"""Letter-level reference for the run-length word algebra of bridgecover.words.

A concrete word, given as (generator, exponent) runs, is expanded into
(generator, +-1) letters and freely reduced one letter at a time; its cyclic normal form is the minimum over every
rotation of the cyclically reduced letters.  Quadratic, and independent of
the run-length code it checks.
"""
from typing import List, Optional, Sequence, Tuple

from bridgecover.words import CyclicMatch

Letter = Tuple[str, int]
Runs = Sequence[Tuple[str, int]]


def letters(w: Runs) -> List[Letter]:
    """Concrete word as a freely reduced sequence of (generator, +-1)."""
    out: List[Letter] = []
    for gen, exp in w:
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            if out and out[-1] == (gen, -step):
                out.pop()
            else:
                out.append((gen, step))
    return out


def cyclic_normal_form(ls: Sequence[Letter]) -> Tuple[Letter, ...]:
    """Cyclically reduce a letter sequence and pick the least rotation."""
    lo, hi = 0, len(ls) - 1
    while lo < hi and ls[lo] == (ls[hi][0], -ls[hi][1]):
        lo, hi = lo + 1, hi - 1
    core = tuple(ls[lo:hi + 1])
    return min((core[i:] + core[:i] for i in range(len(core))), default=())


def syllable_runs(ls: Sequence[Letter]) -> List[Tuple[str, int]]:
    """Maximal runs of a letter sequence, as (generator, exponent)."""
    runs: List[Tuple[str, int]] = []
    for gen, step in ls:
        if runs and runs[-1][0] == gen:
            runs[-1] = (gen, runs[-1][1] + step)
        else:
            runs.append((gen, step))
    return [(g, e) for g, e in runs if e != 0]


def cyclic_runs(w: Runs) -> List[Tuple[str, int]]:
    """Runs of the letter-level cyclic normal form of a concrete word."""
    return syllable_runs(cyclic_normal_form(letters(w)))


def equal_up_to_cyclic(w1: Runs, w2: Runs) -> CyclicMatch:
    n1 = cyclic_normal_form(letters(w1))
    seq2 = letters(w2)
    if n1 == cyclic_normal_form(seq2):
        return CyclicMatch.DIRECT
    if n1 == cyclic_normal_form([(g, -s) for g, s in reversed(seq2)]):
        return CyclicMatch.INVERSE
    return CyclicMatch.NONE


def first_syllable_difference(got: Runs, expected: Runs
                              ) -> Optional[Tuple[int, Optional[Tuple[str, int]],
                                                  Optional[Tuple[str, int]]]]:
    a, b = cyclic_runs(got), cyclic_runs(expected)
    for i in range(max(len(a), len(b))):
        sa = a[i] if i < len(a) else None
        sb = b[i] if i < len(b) else None
        if sa != sb:
            return (i, sa, sb)
    return None
