"""Exact cyclotomic arithmetic in Z[zeta_N] and Q(zeta_N).

An element is stored by its canonical coordinates: the phi(N) integer or
Fraction coefficients on the basis 1, zeta, ..., zeta^(phi(N)-1).  The
constructor takes any polynomial in zeta_N and reduces it once modulo the
N-th cyclotomic polynomial, so a product is the product in Z[x] reduced
the same way, and equality, hashing and rationality read the coordinates.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exactalg import poly_divmod, poly_mul, power


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("order must be positive")
    # x^n - 1 divided by the cyclotomic polynomials of all proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem), "division was not exact"
    return tuple(poly)


class CyclotomicElement:
    """Element of Z[zeta_N] (or Q(zeta_N)) by its phi(N) canonical coordinates."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        """The element sum c_i zeta_N^i for any coefficient list c, of any length."""
        self.order = order
        self.coeffs = tuple(poly_divmod(coeffs, cyclotomic_polynomial(order))[1])

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> CyclotomicElement:
        return cls(order, [0] * (power % order) + [1])

    @classmethod
    def constant(cls, order: int, value) -> CyclotomicElement:
        return cls(order, [value])

    def _coerce(self, other):
        """The operand as an element of the same order; NotImplemented for a foreign type."""
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.constant(self.order, other)
        return NotImplemented

    def __add__(self, other) -> CyclotomicElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return CyclotomicElement(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CyclotomicElement:
        return CyclotomicElement(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> CyclotomicElement:
        other = self._coerce(other)
        return other if other is NotImplemented else self + -other

    def __rsub__(self, other) -> CyclotomicElement:
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other) -> CyclotomicElement:
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement(self.order, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return CyclotomicElement(self.order, poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> CyclotomicElement:
        if e < 0:
            raise ValueError("negative powers not supported")
        return power(self, e) if e else CyclotomicElement.constant(self.order, 1)

    def galois(self, u: int) -> CyclotomicElement:
        """Apply zeta -> zeta^u; u must be a unit modulo the order."""
        n = self.order
        u %= n
        if gcd(u, n) != 1:
            raise ValueError("substitution exponent must be coprime to the order")
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            out[(i * u) % n] += a
        return CyclotomicElement(n, out)

    def conjugate(self) -> CyclotomicElement:
        return self.galois(self.order - 1) if self.order > 1 else self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicElement.constant(self.order, other)
        if not isinstance(other, CyclotomicElement) or other.order != self.order:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def rational_value(self):
        """The element as a rational number; raises if it is not one."""
        if any(self.coeffs[1:]):
            raise ValueError(f"element is not rational: {self!r}")
        return self.coeffs[0]

    def norm_squared_exact(self):
        """|self|^2 as an exact rational when self * conj(self) is rational.

        For the character sums in this package the product with the complex
        conjugate is Galois invariant, so this succeeds and gives the square
        of the archimedean absolute value with no floating point.
        """
        return (self * self.conjugate()).rational_value()

    def __repr__(self) -> str:
        return f"CyclotomicElement({self.order}, {list(self.coeffs)})"

    def __str__(self) -> str:
        sym = f"z{self.order}"
        parts = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                parts.append(str(a))
            elif i == 1:
                parts.append(f"{a}*{sym}" if a != 1 else sym)
            else:
                parts.append(f"{a}*{sym}^{i}" if a != 1 else f"{sym}^{i}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"
