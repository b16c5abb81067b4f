"""Exact workbench for quantum matrix algebras and determinantal factor rings.

The package computes in O_q(M_mn) over exact Laurent-polynomial scalars,
expands quantum minors, certifies the swap-family tower attached to a
minor as iterated skew polynomial extensions, and analyzes the factor
ring by the minors not above it: standard monomial bases, Hilbert
dimensions, normalizing scalars, regularity, and generator rewriting.
"""

from .algebra import MatrixShape, NCPoly, normal_form

__version__ = "0.1.0"

__all__ = ["MatrixShape", "NCPoly", "normal_form", "__version__"]
