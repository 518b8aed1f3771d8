"""bridgecover: exact invariants of two-bridge knots and their branched covers.

Subpackages by capability:

- ``twobridge``     continued fractions, Seifert matrices, Alexander
                    polynomials (continuant recurrence), cyclic-branched-cover
                    homology (the oracle)
- ``words``         parametric free-group words with affine exponents and a
                    conservative sign calculus
- ``presentations`` the two cover-group presentation families, their
                    circulant abelianization and H_1 orders by the cyclic
                    resultant of its symbol
- ``goeritz``       Goeritz matrices, the two block-matrix link families and
                    their closed-form determinant tables
- ``qacert``        quasi-alternating / L-space certificates (generate,
                    verify, serialize)
- ``loelim``        left-order sign elimination and the level-0 genus-two
                    analysis
- ``cli``           command-line front end
"""
from __future__ import annotations

__version__ = "0.1.0"

from .twobridge import (  # noqa: F401
    EvenExpansion,
    INFINITE,
    alexander,
    cf_value,
    even_expansion_from_fraction,
    h1_cyclic_cover_order,
    link_determinant,
    mirror_terms,
    same_knot,
    seifert_matrix,
)
from .multipoly import MultiPoly  # noqa: F401
