from fractions import Fraction

import pytest

from delsarte.cyclotomic import CyclotomicElement, NotRationalError, cyclotomic_polynomial

from oracles import is_galois_invariant


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)


def test_zeta_power_sum_vanishes():
    for d in (3, 4, 8, 12):
        total = CyclotomicElement.constant(d, 0)
        for j in range(d):
            total = total + CyclotomicElement.zeta(d, j)
        assert total.is_zero()


def test_ring_axioms_spot():
    z = CyclotomicElement.zeta(8)
    a = 2 * z**3 - z + 5
    b = z**5 + 3
    c = -4 * z**2 + z
    assert (a * (b + c)) == (a * b + a * c)
    assert (a * b) == (b * a)
    assert (z**8) == 1


def test_i_squared_is_minus_one():
    i = CyclotomicElement.zeta(4)
    assert (i * i) == -1
    i8 = CyclotomicElement.zeta(8, 2)
    assert (i8 * i8) == CyclotomicElement.constant(8, -1)


def test_sqrt2_inside_eighth_roots():
    z = CyclotomicElement.zeta(8)
    sqrt2 = z + z**7
    assert (sqrt2 * sqrt2) == 2


def test_galois_action_and_rationality():
    z = CyclotomicElement.zeta(12)
    elem = 3 * z**2 - z + 7
    assert elem.galois(5).galois(5) == elem  # 5*5 = 25 = 1 mod 12
    with pytest.raises(ValueError):
        elem.galois(2)
    assert is_galois_invariant(CyclotomicElement.constant(12, 9))
    assert not is_galois_invariant(elem)
    assert CyclotomicElement.constant(12, 9).rational_value() == 9
    with pytest.raises(NotRationalError):
        elem.rational_value()
    # zeta_6 satisfies z^2 = z - 1, so z^2 - z + 2 is rational
    z6 = CyclotomicElement.zeta(6)
    assert (z6 * z6 - z6 + 2).rational_value() == 1


def test_fraction_coefficients():
    z = CyclotomicElement.zeta(4)
    half = CyclotomicElement.constant(4, Fraction(1, 2))
    assert (half + half).rational_value() == 1
    assert ((z * half) * 2) == z


def test_embedding_magnitude():
    z = CyclotomicElement.zeta(8, 3)
    assert abs(abs(z.embedding()) - 1.0) < 1e-12
    val = 3 - 4 * CyclotomicElement.zeta(4)
    assert abs(abs(val.embedding()) - 5.0) < 1e-9
    assert val.norm_squared_exact() == 25


def test_conjugate():
    z = CyclotomicElement.zeta(8)
    elem = 2 * z + 3 * z**3
    prod = elem * elem.conjugate()
    assert prod.is_rational()
    assert prod.rational_value() == elem.norm_squared_exact()


def test_rational_iff_galois_invariant():
    import random

    rng = random.Random(5)
    for d in (4, 8, 12):
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(d)]
            elem = CyclotomicElement(d, coeffs)
            assert elem.is_rational() == is_galois_invariant(elem)
