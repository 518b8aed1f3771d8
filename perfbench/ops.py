"""Seeded op lists for the three benchmark workloads.

An op is a plain dict, so that the orchestrator (which checks answers) and
the worker (which runs them) can each rebuild the same list from the same
(workload, seed) pair:

    id       position in the pass
    kind     what the worker calls (see ``worker.Runner.prepare``)
    args     the generated inputs, JSON values only
    cli      True when the op goes through ``bridgecover.cli.main``
    limit_s  the per-op time limit
    name     the ROADMAP baseline case the op reproduces, or ""
    ref      for certificate reads: the id of the write op (or "golden");
             a read of a fresh certificate runs right after its write
    pick     for certificate mutants: which leaf field to change
    tail     True for an op kept out of the shuffle: such ops end the pass,
             in the order they were made

A pass is the whole list; a run repeats whole passes, so each pass has the
same failures and ``fail_frac`` repeats exactly.  Each workload keeps its
mix of op sizes fixed and lets the seed choose signs, a few free
parameters, the order, and which ops of a fixed share go through the CLI,
so runs on different seeds cost alike.
"""
from __future__ import annotations

import itertools
import random
from typing import Dict, List

WORKLOADS = ("homology", "words", "certs")

# Per-op limits.  Every op that finishes today takes at most a tenth of its
# limit, and every op that passes its limit runs far longer (README.md gives
# the measurements).
LIMIT_S = {"homology": 1.0, "words": 60.0, "certs": 30.0}

# Share of the ops (of kinds that have a command-line form) routed through
# ``cli.main``.
CLI_SHARE = 0.25

Op = Dict[str, object]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _signed(rng: random.Random, magnitude: int) -> int:
    return magnitude if rng.random() < 0.5 else -magnitude


def _routes(rng: random.Random, count: int) -> List[bool]:
    """Which of ``count`` ops go through the CLI: exactly the CLI share of
    them, at seeded positions."""
    flags = [i < round(count * CLI_SHARE) for i in range(count)]
    rng.shuffle(flags)
    return flags


class _Ops(list):
    def add(self, kind, args, cli=False, name="", **extra) -> int:
        self.append(dict(kind=kind, args=args, cli=cli, name=name, **extra))
        return len(self) - 1


def _homology(rng: random.Random) -> List[Op]:
    ops = _Ops()
    # genus 1, twists |k|, |l| <= 3, n = 2..5: SNF and the oracle; each
    # grid point eight times with seeded signs
    grid = [(k, l, n) for k in (1, 2, 3) for l in (1, 2, 3)
            for n in (2, 3, 4, 5)] * 8
    for (k, l, n), cli in zip(grid, _routes(rng, len(grid))):
        ops.add("h1_all", {"terms": [2 * _signed(rng, k), -2 * _signed(rng, l)],
                           "n": n}, cli)
    # genus 2, twists |q|, |s|, |t|, |l| <= 2, n = 2..4: SNF, the oracle and,
    # at n = 3, the closed-form table; each grid point eight times
    grid = [(m, n) for m in itertools.product((1, 2), repeat=4)
            for n in (2, 3, 4)] * 8
    for (m, n), cli in zip(grid, _routes(rng, len(grid))):
        q, s, t, l = (_signed(rng, x) for x in m)
        ops.add("h1_all", {"terms": [-2 * q, 2 * s, -2 * t, 2 * l], "n": n}, cli)
    # oracle only: a genus ladder g = 1..12 at n = 3 and a cover-degree
    # ladder n = 10..100 at genus 2; the seed picks a knot or its mirror
    rungs = [([4, -4] * g, 3) for g in range(1, 13)] \
        + [([2, -4, 6, -8], n) for n in range(10, 101, 10)]
    for (terms, n), cli in zip(rungs, _routes(rng, len(rungs))):
        sign = _signed(rng, 1)
        ops.add("h1_oracle", {"terms": [sign * a for a in terms], "n": n}, cli)
    # SNF blow-ups (ROADMAP item 2): a seeded genus-1 knot with twists
    # |k|, |l| in {2, 3} at n = 10, and three baseline cases by name
    k, l = _signed(rng, rng.choice((2, 3))), _signed(rng, rng.choice((2, 3)))
    ops.add("h1_all", {"terms": [2 * k, -2 * l], "n": 10}, rng.random() < 0.5)
    ops.add("h1_snf", {"terms": [6, -4], "n": 8}, False,
            "h1_order(genus_one_presentation(3,2,8))")
    ops.add("h1_all", {"terms": [6, -4, 4, -6], "n": 5}, True,
            "bridgecover h1 --cover 5 --method all -- 6 -4 4 -6")
    ops.add("h1_snf", {"terms": [6, -4], "n": 8}, True,
            "bridgecover h1 --cover 8 --method snf -- 6 -4")
    return ops


def _sign_pattern(rng: random.Random) -> List[int]:
    return [rng.choice((1, -1)) for _ in range(4)]


def _words(rng: random.Random) -> List[Op]:
    ops = _Ops()
    # product identity r3 r2 r1 = zyx at (m, m, m, m) with seeded signs,
    # m = 1..7, and the baseline case (8, 8, 8, 8)
    for m, copies in ((1, 24), (2, 24), (3, 16), (4, 16), (5, 2), (6, 1),
                      (7, 1)):
        for _ in range(copies):
            ops.add("product", {"params": [m * s for s in _sign_pattern(rng)]})
    ops.add("product", {"params": [8, 8, 8, 8]}, False,
            "verify_product_identity(8,8,8,8)")
    # rewritten relators (they need t, l >= 1): (+-m, +-m, m, m) for
    # m = 1..3; (4, 4, 4, 4) takes 4.5 s and would stretch a pass too far
    for m, copies in ((1, 20), (2, 20)):
        for _ in range(copies):
            ops.add("rewrites", {"params": [_signed(rng, m), _signed(rng, m),
                                            m, m]})
    # m = 3 sets the worker's peak memory, which depends on the signs and
    # the order, so all four sign patterns end the pass in a fixed order
    for q, s in itertools.product((3, -3), repeat=2):
        ops.add("rewrites", {"params": [q, s, 3, 3]}, tail=True)
    # mixed magnitudes: seeded orders of (1, 2, 3, 4)
    for _ in range(8):
        params = [1, 2, 3, 4]
        rng.shuffle(params)
        ops.add("product", {"params": [p * s for p, s in
                                       zip(params, _sign_pattern(rng))]})
        rng.shuffle(params)
        ops.add("rewrites", {"params": params})
    # level-0 sign analysis: the 16 sign classes, four times
    classes = [list(p) for p in itertools.product((1, -1), repeat=4)] * 4
    for signs, cli in zip(classes, _routes(rng, len(classes))):
        ops.add("genus2", {"signs": signs}, cli)
    # the five-generator elimination table, as text and csv
    formats = ["text", "csv"] * 4
    for fmt, cli in zip(formats, _routes(rng, len(formats))):
        ops.add("table1", {"format": fmt}, cli)
    return ops


# Sign classes of (q, s, t, l) grouped by how the L-certificate grows with
# the magnitude m: about 57*m nodes and RecursionError past m ~ 95
# ("deep"), about 31*m nodes ("medium"), one or two nodes ("flat").
DEEP = ((1, 1, 1, 1), (1, 1, 1, -1), (1, -1, -1, -1), (-1, 1, 1, 1),
        (-1, -1, -1, 1), (-1, -1, -1, -1))
FLAT = ((1, -1, 1, -1), (-1, 1, -1, 1))
MEDIUM = tuple(p for p in itertools.product((1, -1), repeat=4)
               if p not in DEEP and p not in FLAT)


def _certs(rng: random.Random) -> List[Op]:
    ops = _Ops()

    def write_and_read(kind, params, write_cli=False, read_cli=False, name="",
                       **extra):
        i = ops.add(kind, {"params": params}, write_cli, name, **extra)
        ops.add("read", {}, read_cli, ref=i)
        return i

    # writes, each read back, over all 16 sign classes at m = 1, 2, 3, 5
    # and twice at m = 8; the CLI share is taken within each group of like
    # cost, so that every seed routes the same sizes through the CLI
    small = []
    for m in (1, 2, 3, 5, 8, 8):
        for group in (DEEP, MEDIUM, FLAT):
            routes = zip(_routes(rng, len(group)), _routes(rng, len(group)))
            for signs, (wcli, rcli) in zip(group, routes):
                i = write_and_read("write_L", [m * s for s in signs],
                                   wcli, rcli)
                if m == 2:
                    small.append(i)
    # larger writes: a medium class at m = 40 and the A family at the
    # baseline t = 50.  They set the worker's peak memory, which depends on
    # their order, so they end the pass in a fixed order (``tail``).
    write_and_read("write_L", [40 * s for s in rng.choice(MEDIUM)], tail=True)
    write_and_read("write_A", [2, 2, 50], name="generate_A_cert(2,2,50)",
                   tail=True)
    # past the recursion limit: two deep classes at m = 100..120 and the A
    # family at t = 110
    for signs in rng.sample(DEEP, 2):
        m = rng.randint(100, 120)
        ops.add("write_L", {"params": [m * s for s in signs]})
    ops.add("write_A", {"params": [2, 2, 110]}, False,
            "generate_A_cert(2,2,110)")
    # reads of the golden certificate, and single-field mutants of the
    # fresh m = 2 certificates and of the golden one (each must be rejected)
    for cli in _routes(rng, 4):
        ops.add("read", {}, cli, ref="golden")
    refs = small + ["golden"] * 8
    for ref, cli in zip(refs, _routes(rng, len(refs))):
        ops.add("mutant", {}, cli, ref=ref, pick=rng.randrange(1 << 30))
    # star determinants against the closed-form table; the matrix size is
    # set by q and t, the seed picks s and l
    for q in range(1, 9):
        for t in (2, 5, 8):
            ops.add("star_L", {"params": [q, rng.randint(1, 8), t,
                                          rng.randint(1, 8)]})
    for q in (2, 4, 6, 8):
        for t in (1, 4, 7):
            ops.add("star_A", {"params": [q, rng.randint(1, 8), t]})
    ops.add("star_L", {"params": [40, 40, 40, 40]})
    ops.add("star_L", {"params": [60, 60, 60, 60]}, False,
            "build_L_star(60,60,60,60).det()")
    return ops


_BUILDERS = {"homology": _homology, "words": _words, "certs": _certs}


def op_list(workload: str, seed: int) -> List[Op]:
    """The ops of one pass, in the order they run."""
    rng = _rng(workload, seed)
    ops = _BUILDERS[workload](rng)
    # Shuffle, keeping each read of a fresh certificate right after its
    # write; mutants of a fresh certificate wait until after that write.
    reads = {op["ref"]: i for i, op in enumerate(ops)
             if op["kind"] == "read" and isinstance(op.get("ref"), int)}
    read_ids = set(reads.values())
    order = [i for i in range(len(ops))
             if i not in read_ids and not ops[i].get("tail")]
    rng.shuffle(order)
    order += [i for i in range(len(ops))
              if i not in read_ids and ops[i].get("tail")]
    placed: List[int] = []
    written = set()
    waiting: Dict[int, List[int]] = {}
    for i in order:
        ref = ops[i].get("ref")
        if isinstance(ref, int) and ref not in written:
            waiting.setdefault(ref, []).append(i)
            continue
        placed.append(i)
        if i in reads:
            written.add(i)
            placed.append(reads[i])
            placed.extend(waiting.pop(i, ()))
    new_id = {old: new for new, old in enumerate(placed)}
    out = []
    for old in placed:
        op = dict(ops[old], id=new_id[old], limit_s=LIMIT_S[workload])
        if isinstance(op.get("ref"), int):
            op["ref"] = new_id[op["ref"]]
        out.append(op)
    return out
