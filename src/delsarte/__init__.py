"""Exact-arithmetic toolkit for monomial deformations of Delsarte hypersurfaces.

Everything in this package computes over exact domains: arbitrary-precision
integers, rationals, and cyclotomic integers.  No floating point enters any
result; floats appear only in the tests' numerical cross-checks of magnitudes.
"""

__version__ = "0.1.0"
