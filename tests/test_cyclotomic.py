from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte.cyclotomic import CyclotomicElement, cyclotomic_polynomial
from delsarte.zetafermat import _expand

from oracles import embedding, is_galois_invariant


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="^order must be positive$"):
        CyclotomicElement(0, [1])


def test_zeta_power_sum_vanishes():
    for d in (3, 4, 8, 12):
        total = CyclotomicElement.constant(d, 0)
        for j in range(d):
            total = total + CyclotomicElement.zeta(d, j)
        assert not any(total.coeffs)


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
    with pytest.raises(ValueError, match="^element is not rational"):
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
    assert abs(abs(embedding(z)) - 1.0) < 1e-12
    val = 3 - 4 * CyclotomicElement.zeta(4)
    assert abs(abs(embedding(val)) - 5.0) < 1e-9
    assert val.norm_squared_exact() == 25


def test_conjugate():
    z = CyclotomicElement.zeta(8)
    elem = 2 * z + 3 * z**3
    prod = elem * elem.conjugate()
    assert not any(prod.coeffs[1:])
    assert prod.rational_value() == elem.norm_squared_exact()


def test_rational_iff_galois_invariant():
    import random

    rng = random.Random(5)
    for d in (4, 8, 12):
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in range(d)]
            elem = CyclotomicElement(d, coeffs)
            assert (not any(elem.coeffs[1:])) == is_galois_invariant(elem)


def test_power_products(monkeypatch):
    calls = []
    product = CyclotomicElement.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(CyclotomicElement, "__mul__", counting)
    z = CyclotomicElement.zeta(12)
    # z^2, z^4, z * z^4
    assert z**5 == CyclotomicElement.zeta(12, 5)
    assert len(calls) == 3
    assert z**0 == 1 and z**1 == z and (z + 1) ** 12 == product((z + 1) ** 6, (z + 1) ** 6)


# -- ring properties, with int and Fraction coefficients --------------------------

PROPERTY_ORDERS = (1, 2, 3, 4, 5, 8, 12, 27, 108)

_coefficient = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=30),
)


def _element(n):
    """An element of order n with at most six nonzero entries."""
    return st.lists(st.tuples(st.integers(0, n - 1), _coefficient), max_size=6).map(
        lambda entries: CyclotomicElement(n, _scatter(n, entries))
    )


def _scatter(n, entries):
    coeffs = [0] * n
    for i, c in entries:
        coeffs[i] += c
    return coeffs


@st.composite
def _triples(draw):
    n = draw(st.sampled_from(PROPERTY_ORDERS))
    return n, draw(_element(n)), draw(_element(n)), draw(_element(n))


@settings(max_examples=80)
@given(_triples())
def test_ring_laws(triple):
    n, a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == 0 and a * 1 == a and a * 0 == 0


@settings(max_examples=80)
@given(_triples(), st.data())
def test_galois_is_a_ring_homomorphism(triple, data):
    n, a, b, _ = triple
    u = data.draw(st.sampled_from([u for u in range(1, n + 1) if gcd(u, n) == 1]))
    assert (a * b).galois(u) == a.galois(u) * b.galois(u)
    assert (a + b).galois(u) == a.galois(u) + b.galois(u)
    assert CyclotomicElement.constant(n, 1).galois(u) == 1


@settings(max_examples=80)
@given(_triples(), st.data())
def test_equal_elements_hash_alike(triple, data):
    n, a, _, _ = triple
    # add a multiple of 1 + x^(n/p) + ... + x^((p-1)n/p), zero in Q(zeta_n):
    # another vector for the same element
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]
    twin = a
    if primes:
        p = data.draw(st.sampled_from(primes))
        shift = data.draw(st.integers(0, n - 1))
        c = data.draw(_coefficient)
        ring = CyclotomicElement(n, _scatter(n, [((shift + j * (n // p)) % n, c) for j in range(p)]))
        assert ring == 0
        twin = a + ring
    assert twin == a and hash(twin) == hash(a)
    if not any(a.coeffs[1:]):
        # a rational element equals, and hashes like, its constant
        value = a.rational_value()
        assert a == value and hash(a) == hash(CyclotomicElement.constant(n, value))


def test_int_and_fraction_coefficients_agree():
    ints = CyclotomicElement(8, [1, 2, 0, 0, 0, 0, 0, 3])
    fracs = CyclotomicElement(8, [Fraction(1), Fraction(4, 2), 0, 0, 0, 0, 0, Fraction(3)])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert ints * fracs == ints * ints
    assert (fracs * Fraction(1, 3)) * 3 == ints


# -- canonical coordinates --------------------------------------------------------

CANONICAL_ORDERS = (1, 2, 8, 12, 15, 60, 105)


def _euler_phi(n):
    return sum(1 for u in range(1, n + 1) if gcd(u, n) == 1)


def _cyclic_product(n, a, b):
    """The product of two group-ring vectors of length n in Z[x]/(x^n - 1)."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                out[(i + j) % n] += x * y
    return out


def _canonical(n, vector):
    """The coordinates of a group-ring vector on 1, zeta, ..., zeta^(phi(n)-1), by long division."""
    phi = cyclotomic_polynomial(n)
    k = len(phi) - 1
    rem = list(vector)
    for top in range(len(rem) - 1, k - 1, -1):
        c = rem[top]
        for j, y in enumerate(phi):
            if c and y:
                rem[top - k + j] -= c * y
    return tuple(rem[:k])


@st.composite
def _group_ring_vectors(draw, integral=False):
    """An order from CANONICAL_ORDERS with two sparse length-n group-ring vectors."""
    n = draw(st.sampled_from(CANONICAL_ORDERS))
    coefficient = st.integers(-10**6, 10**6) if integral else _coefficient
    entries = st.lists(st.tuples(st.integers(0, n - 1), coefficient), max_size=6)
    return n, _scatter(n, draw(entries)), _scatter(n, draw(entries))


@settings(max_examples=50)
@given(_group_ring_vectors())
def test_coordinates_are_canonical(vectors):
    n, a, b = vectors
    x, y = CyclotomicElement(n, a), CyclotomicElement(n, b)
    assert len(x.coeffs) == len(y.coeffs) == len((x * y).coeffs) == _euler_phi(n)
    assert x.coeffs == _canonical(n, a)
    # a product is the cyclic convolution, folded by x^n = 1, then reduced by Phi_n
    assert (x * y).coeffs == _canonical(n, _cyclic_product(n, a, b))
    # a group-ring vector and its reduction are one element
    reduced = CyclotomicElement(n, _canonical(n, a))
    assert reduced == x and hash(reduced) == hash(x)


@settings(max_examples=40)
@given(_group_ring_vectors(integral=True))
def test_expand_reads_any_representative(vectors):
    # zeta_n -> 2^B is a ring map on every representative, and the L1 norm of
    # any representative bounds every conjugate, so a group-ring vector that
    # was never reduced expands to the same norm as its canonical form
    n, a, _ = vectors
    alpha = CyclotomicElement(n, a)
    assert _expand(SimpleNamespace(order=n, coeffs=tuple(a)), n) == _expand(alpha, n)
