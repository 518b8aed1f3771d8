#!/usr/bin/env python3
"""Free-group word algebra behind the cover presentations.

The cover presentations are produced by rewriting: generators are
eliminated, relators are conjugated and folded into wing words, and the
claimed normal forms must reproduce the originals in the free group.
This script exercises the word toolkit directly - parsing, reduction,
substitution - and then runs the two bundled verification jobs: the
rewritten-relator comparisons and the product identity r3 r2 r1 = zyx,
which must hold after full free reduction, not merely after
abelianization.
"""
from bridgecover.presentations import (
    verify_product_identity,
    verify_rewrites,
)
from bridgecover.words import (
    ParamEnv,
    instantiate,
    parse_word,
    reduce_word,
    runs_text,
    substitute,
)


def main():
    # Parsing and free reduction: exponents may be affine expressions in
    # named parameters; reduction is symbolic and uses the declared lower
    # bounds to decide which syllables can cancel.
    env = ParamEnv({"q": 1})
    w = parse_word("x^(q) y^(-q) y^(q) x^(1-q)")
    print(f"word:            {w.to_text()}")
    print(f"freely reduced:  {reduce_word(w, env).to_text()}")

    # Substitution renames generators by words; instantiation pins the
    # parameters to integers.
    image = substitute(parse_word("a^(2) b^(-1)"),
                       {"a": parse_word("x y"), "b": parse_word("y")},
                       ParamEnv({}))
    print(f"substituted:     {image.to_text()}")
    concrete = instantiate(parse_word("x^(q) y^(-2q)"), {"q": 3})
    print(f"instantiated:    {runs_text(concrete)}")
    print()

    # The bundled verification jobs at one parameter point.
    q, s, t, l = 1, 2, 1, 2
    rewrites = verify_rewrites(q, s, t, l)
    print(f"rewritten relators at (q,s,t,l) = ({q},{s},{t},{l}):")
    for record in rewrites.records:
        print(f"  {record.name:<12} {'match' if record.ok else 'MISMATCH'}")
    product = verify_product_identity(q, s, t, l)
    print(f"product identity: status {product.status},"
          f" abelian sums {product.abelian_sums}")
    if product.first_difference is not None:
        print(f"first differing syllable: {product.first_difference}")


if __name__ == "__main__":
    main()
