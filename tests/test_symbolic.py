import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import clear_package_caches
from oracles import RefPoly, ref_coeff, substitute_by_terms, sylvester_resultant

from delsarte import deformation, symbolic
from delsarte.symbolic import (
    FAMILY_INDICES,
    VAR_ORDER,
    InexactDivisionError,
    MultiPoly,
    appendix_checks,
    bitangent_eliminant,
    branch_quartic,
    builtin,
    discriminant_in,
    exact_div,
    expected_eliminant_factors,
    expected_leading_factor,
    expected_vertical_bitangents,
    family_quartic,
    family_split,
    quotient_surface,
    resultant,
    root_i,
    verify_quotient_identity,
    vertical_bitangents,
    zeta8,
)

V = MultiPoly.variable


# -- core arithmetic -------------------------------------------------------------


def test_polynomial_ring_axioms():
    rng = random.Random(3)

    def random_poly():
        out = MultiPoly.zero()
        for _ in range(4):
            term = MultiPoly.constant(rng.randint(-4, 4))
            for name in ("u", "v", "x2"):
                term = term * V(name) ** rng.randint(0, 2)
            out = out + term
        return out

    for _ in range(10):
        a, b, c = random_poly(), random_poly(), random_poly()
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - a).is_zero()


def test_substitution_and_degree():
    p = V("u") ** 2 + 3 * V("v")
    q = p.substitute({"u": V("x2") + 1, "v": MultiPoly.constant(2)})
    assert q == V("x2") ** 2 + 2 * V("x2") + 7
    assert p.degree_in("u") == 2 and p.degree_in("x3") == 0
    assert p.coeff_in("u", 2) == MultiPoly.constant(1)
    assert p.coeff_in("u", 0) == 3 * V("v")


_IMAGE_SPECS = st.tuples(
    st.permutations(VAR_ORDER).map(lambda names: names[:2]),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3),
)
# polynomials (with a zeta_8 coefficient now and then), ints, Fractions, zeta_8 constants
_IMAGES = st.one_of(
    _IMAGE_SPECS.map(lambda spec: MultiPoly(*spec)),
    _IMAGE_SPECS.map(lambda spec: MultiPoly(*spec) * zeta8(3) + 1),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.tuples(st.integers(0, 7), st.integers(-2, 2)).map(lambda t: t[1] * zeta8(t[0])),
)


@st.composite
def _substitutions(draw):
    """A polynomial in lam and up to 3 more variables, and a map from some of them to images."""
    names = ("lam",) + tuple(draw(st.permutations(VAR_ORDER[1:]))[: draw(st.integers(0, 3))])
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    terms = draw(st.dictionaries(exps, _COEFFS, min_size=1, max_size=5))
    mapping = draw(st.dictionaries(st.sampled_from(names), _IMAGES, min_size=1, max_size=3))
    return _both((names, terms))[0], mapping


@given(_substitutions())
def test_substitute_matches_term_by_term_oracle(case):
    poly, mapping = case
    image = poly.substitute(mapping)
    want = substitute_by_terms(poly, mapping)
    assert image == want
    assert str(image) == str(want)


def test_substitute_maps_lam_and_cyclotomic_constants():
    lam, u, v = V("lam"), V("u"), V("v")
    i_unit = MultiPoly.constant(root_i())
    p = lam * u**3 * v + Fraction(1, 2) * u**4 - 3 * lam**2
    mapping = {"lam": -i_unit * lam, "u": MultiPoly.constant(zeta8(3)) * u, "v": i_unit * v}
    assert p.substitute(mapping) == substitute_by_terms(p, mapping)
    # (-I) * zeta^9 * I = zeta, zeta^12 = -1 and (-I)^2 = -1
    assert p.substitute(mapping) == MultiPoly.constant(zeta8(1)) * lam * u**3 * v - Fraction(1, 2) * u**4 + 3 * lam**2
    assert p.substitute({"u": 2, "lam": Fraction(1, 3)}) == Fraction(8, 3) * v + 8 - Fraction(1, 3)


def test_substitute_keeps_the_degree_limit():
    square = {"u": V("v") ** 2, "x2": V("x3") ** 2}
    # each power fits, their product would reach 2^15
    both = MultiPoly(("u", "x2"), {(2**13, 2**13): 1})
    for substitute in (MultiPoly.substitute, substitute_by_terms):
        with pytest.raises(OverflowError, match="32768"):
            substitute(both, square)
    # one power alone would reach 2^15
    with pytest.raises(OverflowError, match="32768"):
        MultiPoly(("u",), {(2**14,): 1}).substitute(square)
    below = MultiPoly(("u", "x2"), {(2**13, 2**13 - 1): 1}).substitute(square)
    assert (below.degree_in("v"), below.degree_in("x3")) == (2**14, 2**14 - 2)


def test_fraction_coefficients_exact():
    p = Fraction(1, 2) * V("u") + Fraction(1, 3)
    assert (6 * p) == 3 * V("u") + 2
    content, prim = (Fraction(2, 3) * V("u") ** 2 + Fraction(4, 3)).content_and_primitive()
    assert content == Fraction(2, 3)
    assert prim == V("u") ** 2 + 2


def test_equal_up_to_scalar():
    p = 2 * V("u") ** 2 - 4
    assert p.equal_up_to_scalar(-3 * V("u") ** 2 + 6)
    assert not p.equal_up_to_scalar(V("u") ** 2 + V("u"))
    assert MultiPoly.zero().equal_up_to_scalar(MultiPoly.zero())
    assert not p.equal_up_to_scalar(MultiPoly.zero())


def test_exact_div():
    p = (V("u") + V("v")) * (V("u") - 3)
    assert exact_div(p, V("u") + V("v")) == V("u") - 3
    with pytest.raises(InexactDivisionError):
        exact_div(V("u") ** 2 + 1, V("u") + 1)


def test_quotient_reports_what_exact_div_raises():
    u = V("u")
    i_u = MultiPoly.constant(root_i()) * u
    with pytest.raises(InexactDivisionError, match="^leading term not divisible$"):
        exact_div(u**2 + 1, u + 1)
    with pytest.raises(InexactDivisionError, match="^coefficient is not rational$"):
        exact_div(u, i_u)
    with pytest.raises(ZeroDivisionError):
        exact_div(u, MultiPoly.zero())


def test_quotient_refuses_cyclotomic_coefficients():
    u, lam = V("u"), V("lam")
    i = MultiPoly.constant(root_i())
    sqrt2 = MultiPoly.constant(zeta8(1) + zeta8(7))
    assert sqrt2 * sqrt2 == MultiPoly.constant(2)
    q = sqrt2 * u**2 + MultiPoly.constant(zeta8(1)) * lam - 3
    p = MultiPoly.constant(Fraction(2, 7)) * (u * lam + MultiPoly.constant(zeta8(3)) * u - 1)
    # division is over Q: an irrational coefficient anywhere in either
    # operand is refused, even where the quotient exists in Q(zeta_8)
    # or another error would come first
    for num, den in (
        (i * u, u),
        (u, i),
        (p * q, q),
        (p * q, p),
        (2 * u, sqrt2),
        (p * q + 1, q),
        (p * q + u, q),
        (u**2 + 1, u * lam + i),
        (i * u + u**3, u * lam),
    ):
        with pytest.raises(InexactDivisionError, match="^coefficient is not rational$"):
            exact_div(num, den)
    # a product of irrational factors that is rational divides as usual
    assert exact_div(sqrt2 * sqrt2 * u, u) == MultiPoly.constant(2)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-40, 40), max_size=5))
def test_integer_content_and_primitive(terms):
    p = MultiPoly(("u", "v"), terms)
    assume(not p.is_zero())
    content, prim = p.content_and_primitive()
    coeffs = list(p.terms.values())
    lead = p.terms[max(p.terms)]
    assert type(content) is Fraction and content.denominator == 1
    assert content == (1 if lead > 0 else -1) * math.gcd(*coeffs)
    assert all(type(c) is int for c in prim.terms.values())
    assert prim * content == p
    # p / 7 has a Fraction coefficient unless 7 divides them all
    assert (Fraction(1, 7) * p).content_and_primitive() == (content / 7, prim)


def _content_by_fractions(p):
    """The content of a rational polynomial, one Fraction per coefficient: sign(lead) * gcd(numerators) / lcm(denominators)."""
    coeffs = [Fraction(c) for c in p.terms.values()]
    denom = math.lcm(*(c.denominator for c in coeffs))
    numer = math.gcd(*((c * denom).numerator for c in coeffs))
    return Fraction(numer if p.terms[max(p.terms)] > 0 else -numer, denom)


_FRACTIONS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _FRACTIONS, max_size=5))
def test_fraction_content_and_primitive_matches_fraction_oracle(terms):
    p = MultiPoly(("u", "v"), terms)
    assume(not p.is_zero())
    # p and -p: one of the two has a negative leading term
    for poly in (p, -p):
        content, prim = poly.content_and_primitive()
        assert content == _content_by_fractions(poly)
        assert prim.terms == {key: c / content for key, c in poly.terms.items()}
        assert all(type(c) is int for c in prim.terms.values()) and prim.terms[max(prim.terms)] > 0
        assert math.gcd(*prim.terms.values()) == 1


def test_content_and_primitive_refuses_cyclotomic_coefficients():
    u = V("u")
    for c in (zeta8(1), root_i(), zeta8(1) + zeta8(7)):
        with pytest.raises(InexactDivisionError, match="not rational"):
            (Fraction(1, 3) * u + MultiPoly.constant(c)).content_and_primitive()


_rational_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=4,
).map(lambda terms: MultiPoly(("u", "v", "x2"), terms))


@given(_rational_polys, _rational_polys)
def test_exact_div_recovers_factor(p, q):
    assume(not q.is_zero())
    assert exact_div(p * q, q) == p


# -- packed monomials against the tuple-keyed oracle ------------------------------

_RATIONALS = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3))
# (k, m) stands for m * zeta_8^k
_COEFFS = st.one_of(_RATIONALS, st.tuples(st.integers(0, 7), st.integers(-3, 3)))


@st.composite
def _poly_specs(draw, coeffs=_COEFFS):
    """(names, {exponent tuple: coefficient}): up to 4 names of VAR_ORDER in any order."""
    names = tuple(draw(st.permutations(VAR_ORDER))[: draw(st.integers(0, 4))])
    exps = st.tuples(*[st.integers(0, 6)] * len(names))
    return names, draw(st.dictionaries(exps, coeffs, max_size=5))


def _both(spec):
    """The packed MultiPoly and the oracle RefPoly of one drawn spec."""
    names, terms = spec
    packed, ref = {}, {}
    for exps, c in terms.items():
        if isinstance(c, tuple):
            packed[exps] = c[1] * zeta8(c[0])
            ref[exps] = ref_coeff(c[1], c[0])
        else:
            packed[exps] = c
            ref[exps] = ref_coeff(c)
    return MultiPoly(names, packed), RefPoly.from_named(names, ref)


_SCALARS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.tuples(st.integers(0, 7), st.integers(-2, 2)).map(lambda t: t[1] * zeta8(t[0])),
    st.just(zeta8(1) + zeta8(7)),
)


@given(_poly_specs(), _SCALARS)
def test_scalar_product_matches_constant_polynomial_product(spec, c):
    p = _both(spec)[0]
    want = p * MultiPoly.constant(c)
    for got in (p * c, c * p):
        assert got == want
        assert str(got) == str(want)
    assert (p * 0).is_zero() and (0 * p).is_zero()


@given(_substitutions(), st.sampled_from(["constant", "mixed", "polynomial"]), _SCALARS)
def test_substitute_with_constant_images_matches_term_by_term_oracle(case, kind, c):
    poly, mapping = case
    names = sorted(mapping)
    if kind == "constant":
        mapping = {name: c for name in names}
    elif kind == "mixed":
        mapping = dict(mapping, **{names[0]: MultiPoly.constant(c)})
    image = poly.substitute(mapping)
    want = substitute_by_terms(poly, mapping)
    assert image == want
    assert str(image) == str(want)


def _used_vars(poly):
    """Names of the variables that occur in some term of poly, in VAR_ORDER."""
    used = 0
    for key in poly.terms:
        used |= key
    return tuple(name for name, _ in symbolic._exponents(used))


@given(_poly_specs(), _poly_specs())
def test_packed_arithmetic_matches_tuple_oracle(a, b):
    pa, ra = _both(a)
    pb, rb = _both(b)
    assert str(pa) == ra.text()
    assert _used_vars(pa) == ra.vars()
    assert str(pa + pb) == (ra + rb).text()
    assert str(pa - pb) == (ra + -rb).text()
    assert str(pa * pb) == (ra * rb).text()
    for name in VAR_ORDER:
        assert pa.degree_in(name) == ra.degree_in(name)
        for power in range(ra.degree_in(name) + 2):
            assert str(pa.coeff_in(name, power)) == ra.coeff_in(name, power).text()


@given(_poly_specs(_RATIONALS), _poly_specs(_RATIONALS))
def test_packed_exact_div_matches_tuple_oracle(a, b):
    pa, ra = _both(a)
    pb, rb = _both(b)
    assume(not pb.is_zero())
    assert str(exact_div(pa * pb, pb)) == (ra * rb).exact_div(rb).text() == ra.text()
    want = ra.exact_div(rb)
    if want is None:
        with pytest.raises(InexactDivisionError):
            exact_div(pa, pb)
    else:
        assert str(exact_div(pa, pb)) == want.text()


@given(_poly_specs(), _poly_specs())
def test_exact_div_over_zeta8_matches_tuple_oracle(a, b):
    # over Q the quotient is the oracle's; an operand with an irrational
    # coefficient, read off the oracle's coordinates, is refused
    pa, ra = _both(a)
    pb, rb = _both(b)
    assume(not pb.is_zero())
    if ra.is_rational() and rb.is_rational():
        assert str(exact_div(pa * pb, pb)) == ra.text()
    for num, ref in ((pa * pb, ra * rb), (pa, ra)):
        if ref.is_rational() and rb.is_rational():
            want = ref.exact_div(rb)
            if want is None:
                with pytest.raises(InexactDivisionError, match="^leading term not divisible$"):
                    exact_div(num, pb)
            else:
                assert str(exact_div(num, pb)) == want.text()
        else:
            with pytest.raises(InexactDivisionError, match="^coefficient is not rational$"):
                exact_div(num, pb)


@pytest.mark.parametrize("k", range(8))
def test_eq_and_hash_agree_on_rational_valued_cyclotomic_coefficients(k):
    u, v = V("u"), V("v")
    # zeta^k * zeta^(8-k) = 1 and zeta^k + zeta^(k+4) = 0
    one = zeta8(k) * zeta8(8 - k)
    a = MultiPoly.constant(3 * one) * u + MultiPoly.constant(zeta8(k) + zeta8(k + 4)) * v
    b = MultiPoly(("u", "v"), {(1, 0): Fraction(6, 2), (1, 1): zeta8(k) * Fraction(1, 2) * zeta8(8 - k)})
    assert a == 3 * u
    assert b == 3 * u + Fraction(1, 2) * u * v
    assert hash(a) == hash(3 * u)
    assert hash(b) == hash(3 * u + Fraction(1, 2) * u * v)
    assert len({a, 3 * u, MultiPoly.constant(one) * a}) == 1
    assert MultiPoly.constant(zeta8(2)) != MultiPoly.constant(1)


# -- strict construction and the packed bounds -------------------------------------


def test_constructor_rejects_malformed_exponents():
    with pytest.raises(ValueError, match="does not match the variables"):
        MultiPoly(("u", "v"), {(1,): 1})
    with pytest.raises(ValueError, match="does not match the variables"):
        MultiPoly(("u",), {(1, 2): 1})
    with pytest.raises(ValueError, match="outside"):
        MultiPoly(("u",), {(-1,): 1})
    with pytest.raises(ValueError, match="outside"):
        MultiPoly(("u",), {(2**15,): 1})
    with pytest.raises(ValueError, match="total degree 32768"):
        MultiPoly(("u", "v"), {(2**14, 2**14): 1})
    with pytest.raises(ValueError, match="repeated variable"):
        MultiPoly(("u", "u"), {(1, 1): 1})
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        MultiPoly(("w",), {(1,): 1})
    top = MultiPoly(("u",), {(2**15 - 1,): 1})
    assert top.degree_in("u") == 2**15 - 1 and _used_vars(top) == ("u",)


def test_constructor_rejects_non_integer_exponents():
    # True would pack as the exponent 1, and 2.0 would fail in the shift with a TypeError
    with pytest.raises(ValueError, match="exponent tuple entry 0 is True, not an integer"):
        MultiPoly(("u",), {(True,): 1})
    with pytest.raises(ValueError, match="exponent tuple entry 1 is 2.0, not an integer"):
        MultiPoly(("u", "v"), {(1, 2.0): 1})


def test_product_reaching_the_degree_limit_raises():
    half_u = MultiPoly(("u",), {(2**14,): 1})
    below = half_u * MultiPoly(("v",), {(2**14 - 1,): 1})
    assert (below.degree_in("u"), below.degree_in("v")) == (2**14, 2**14 - 1)
    with pytest.raises(OverflowError, match="32768"):
        half_u * half_u
    # no one field overflows, only the total degree would
    with pytest.raises(OverflowError, match="32768"):
        half_u * MultiPoly(("v",), {(2**14,): 1})


def test_power_stops_before_a_squaring_past_the_degree_limit():
    # u^20000 fits; squaring u^16384 once more would reach 2^15
    assert V("u") ** 20000 == MultiPoly(("u",), {(20000,): 1})


def test_power_takes_only_the_products_it_needs(monkeypatch):
    calls = []
    product = MultiPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    x = V("x2") + 1
    calls.clear()
    fifth = x**5
    # x^2, x^4, x * x^4
    assert len(calls) == 3
    expected = x
    for _ in range(4):
        expected = product(expected, x)
    assert fifth == expected
    for e in range(9):
        calls.clear()
        x**e
        assert len(calls) == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)
    assert x**0 == 1 and x**1 == x


def test_exact_div_guard_bits_catch_a_short_exponent():
    # u^40 outranks u*v and lam in graded-lex order, so each leading term
    # is compared; a plain subtraction would borrow from the field above
    # the short one (u, resp. the total degree) and look divisible
    with pytest.raises(InexactDivisionError):
        exact_div(V("u") ** 40, V("u") * V("v"))
    with pytest.raises(InexactDivisionError):
        exact_div(V("u") ** 40, V("lam"))
    with pytest.raises(InexactDivisionError):
        exact_div(V("u") ** 20 * V("x3") ** 20 + V("s"), V("x2") * V("x3"))
    assert exact_div(V("u") ** 40 * V("v"), V("u") * V("v")) == V("u") ** 39


def test_canonical_string():
    # graded-lex over (lam, u, x2, x3): the lam^2 term has total degree 6
    q1 = builtin("q1")
    assert str(q1) == "lam^2*x2^2*x3^2 - 8*lam*u^2*x2*x3 + 8*u^4 - 8*x2^4 - 8*x3^4"
    assert str(MultiPoly.zero()) == "0"
    assert str(builtin("q1")) == str(builtin("q1"))


def test_builtin_registry_examples():
    x0, x1, x2, x3, u, v, lam = V("x0"), V("x1"), V("x2"), V("x3"), V("u"), V("v"), V("lam")
    assert family_split(2)[1] == x2**3 * x3 + x2 * x3**3  # x2*x3*(x2^2 + x3^2)
    assert family_split(3)[0] == x0**3 * x1 + x0 * x1**3 + lam * x0 * x1 * x2 * x3
    assert builtin("h1") == u**4 - 4 * u**2 * v + 2 * v**2 + lam * v * x2 * x3
    i_unit = MultiPoly.constant(root_i())
    assert builtin("h5") == u**4 - 4 * i_unit * u**2 * v - 2 * v**2 + lam * v * x2 * x3
    with pytest.raises(ValueError, match="^unknown polynomial 'q4'$"):
        builtin("q4")
    with pytest.raises(ValueError, match="^unknown polynomial 'f1'$"):
        builtin("f1")


def _golden_quartics():
    """The five appendix quartics as printed, f + g with f the (x0, x1) part."""
    x0, x1, x2, x3, lam = V("x0"), V("x1"), V("x2"), V("x3"), V("lam")
    f1 = x0**4 + x1**4 + lam * x0 * x1 * x2 * x3
    f2 = x0**3 * x1 + x0 * x1**3 + lam * x0 * x1 * x2 * x3
    g1 = x2**4 + x3**4
    g2 = x2**3 * x3 + x2 * x3**3
    g3 = x2**3 * x3 + x3**4
    return {1: (f1, g1), 2: (f1, g2), 3: (f2, g2), 6: (f1, g3), 7: (f2, g3)}


def test_family_quartics_come_from_the_family_registry():
    def monomial(exps):
        out = MultiPoly.constant(1)
        for j, e in enumerate(exps):
            out = out * V(f"x{j}") ** e
        return out

    for i, (f, g) in _golden_quartics().items():
        rows, a_vec = deformation.FAMILIES[f"family{i}"]
        from_rows = sum((monomial(row) for row in rows), MultiPoly.zero()) + V("lam") * monomial(a_vec)
        assert family_quartic(i) == from_rows == f + g, i
        assert family_split(i) == (f, g), i
    with pytest.raises(ValueError):
        family_quartic(4)
    with pytest.raises(ValueError):
        quotient_surface(5, 1)


def test_cyclotomic_coefficients():
    h5 = builtin("h5")
    i_unit = root_i()
    assert h5.coeff_in("u", 2).coeff_in("v", 1) == MultiPoly.constant(-4 * i_unit)
    # substituting u -> z8 * u changes the quartic coefficient by z8^4 = -1
    image = (V("u") ** 4).substitute({"u": MultiPoly.constant(zeta8()) * V("u")})
    assert image == MultiPoly.constant(-1) * V("u") ** 4


# -- discriminants and resultants ---------------------------------------------------


def test_discriminant_branch_quartics():
    for i in FAMILY_INDICES:
        assert (branch_quartic(i) - builtin(f"q{i}")).is_zero()


def test_discriminant_requires_degree_two():
    with pytest.raises(ValueError):
        discriminant_in(V("v") ** 3 + V("v"), "v")


def test_resultant_linear_cases():
    s = V("s")
    assert resultant(s - 1, s - 2, "s") == MultiPoly.constant(-1)
    x0, x1, x2, x3 = V("x0"), V("x1"), V("x2"), V("x3")
    assert resultant(x0 * s + x1, x2 * s + x3, "s") == x0 * x3 - x1 * x2


def test_resultant_shared_factor_vanishes():
    s, u = V("s"), V("u")
    p = (s - u) * (s + 2)
    q = (s - u) * (s ** 2 + 3)
    assert resultant(p, q, "s").is_zero()
    assert not resultant(s - u, s + u + 1, "s").is_zero()


def _linear_root(coeffs):
    a, b, c, d = coeffs
    return a * V("x2") + b * V("x3") + c * V("lam") + d


_ROOTS = st.lists(st.tuples(*[st.integers(-2, 2)] * 4), min_size=1, max_size=3)


@settings(max_examples=60)
@given(_ROOTS, _ROOTS, st.booleans(), st.integers(1, 3), st.integers(0, 2))
def test_resultant_vanishes_iff_a_factor_is_shared(roots_p, roots_q, share, lead, power):
    # p and q are products of linear factors v - r with r linear in x2, x3,
    # lam, times leading coefficients free of v; their resultant in v is
    # a product of lead powers and the differences r_i - s_j
    if share:
        roots_q = roots_q + [roots_p[0]]
    v = V("v")
    p = MultiPoly.constant(lead) + V("x3") ** power
    for r in roots_p:
        p = p * (v - _linear_root(r))
    q = MultiPoly.constant(lead) * V("x2") ** power
    for r in roots_q:
        q = q * (v - _linear_root(r))
    shared = bool(set(roots_p) & set(roots_q))
    assert resultant(p, q, "v").is_zero() == shared


# rationals, and linear polynomials in lam or u
_RES_COEFFS = st.one_of(
    st.integers(-3, 3).map(MultiPoly.constant),
    st.fractions(min_value=-2, max_value=2, max_denominator=3).map(MultiPoly.constant),
    st.tuples(st.sampled_from(["lam", "u"]), st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda t: t[1] * V(t[0]) + t[2]
    ),
)


@st.composite
def _in_s(draw, max_degree):
    """A polynomial of degree 0..max_degree in s over Q[lam, u]; its leading coefficient may involve lam, u."""
    coeffs = draw(st.lists(_RES_COEFFS, min_size=1, max_size=max_degree + 1))
    if coeffs[-1].is_zero():
        coeffs[-1] = MultiPoly.constant(draw(st.sampled_from([1, -2, Fraction(1, 3)])))
    return sum((c * V("s") ** k for k, c in enumerate(coeffs)), MultiPoly.zero())


@st.composite
def _resultant_pairs(draw):
    """(p, q, shared): degrees 0..5 in s, with a common factor when shared.

    A "gap" pair is p = (s + c) * q + r with deg r <= 2 < deg q, so the
    remainder sequence drops by two or more degrees after its first step.
    """
    kind = draw(st.sampled_from(["plain", "shared", "gap"]))
    if kind == "plain":
        return draw(_in_s(5)), draw(_in_s(5)), False
    if kind == "gap":
        q = draw(_in_s(4).filter(lambda q: q.degree_in("s") == 4))
        return (V("s") + draw(_RES_COEFFS)) * q + draw(_in_s(2)), q, False
    factor = draw(st.sampled_from([V("s") - V("u"), V("u") * V("s") + V("lam") + 1, Fraction(2, 3) * V("s") + 1]))
    return factor * draw(_in_s(4)), factor * draw(_in_s(4)), True


@settings(max_examples=60)
@given(_resultant_pairs())
def test_resultant_matches_sylvester_oracle(case):
    p, q, shared = case
    for a, b in ((p, q), (q, p)):
        got = resultant(a, b, "s")
        assert got == sylvester_resultant(a, b, "s")
        assert str(got) == str(sylvester_resultant(a, b, "s"))
    if shared:
        assert resultant(p, q, "s").is_zero()


@pytest.mark.parametrize("i", FAMILY_INDICES)
def test_resultant_matches_sylvester_oracle_on_the_eliminant_pairs(i):
    r0, r1, r2, r3, r4 = symbolic.bitangent_restriction(i)
    e1 = 8 * r0**2 * r3 - 4 * r0 * r1 * r2 + r1**3
    e2 = 64 * r0**3 * r4 - (4 * r0 * r2 - r1**2) ** 2
    assert resultant(e1, e2, "a3") == sylvester_resultant(e1, e2, "a3")
    assert resultant(e2, e1, "a3") == sylvester_resultant(e2, e1, "a3")


_FRACTION_COEFFS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda c: c != 0),
    min_size=1,
    max_size=3,
).map(lambda terms: MultiPoly(("lam", "u"), terms))


@st.composite
def _fraction_in_s(draw):
    """A polynomial of degree 1..3 in s over Q[lam, u], its s^0 coefficient shifted by 1/k."""
    coeffs = draw(st.lists(_FRACTION_COEFFS, min_size=2, max_size=4))
    coeffs[0] = coeffs[0] + Fraction(1, draw(st.integers(2, 7)))
    return sum((c * V("s") ** k for k, c in enumerate(coeffs)), MultiPoly.zero())


@settings(max_examples=40)
@given(_fraction_in_s(), _fraction_in_s())
def test_resultant_clears_fraction_coefficients(p, q):
    assume(any(type(c) is Fraction for c in p.terms.values()))
    got = resultant(p, q, "s")
    assert got == sylvester_resultant(p, q, "s")
    assert str(got) == str(sylvester_resultant(p, q, "s"))
    # scaling an argument scales the result by that factor to the other's degree
    assert resultant(3 * p, q, "s") == got * 3 ** q.degree_in("s")


def test_resultant_rejects_zero():
    with pytest.raises(ValueError):
        resultant(MultiPoly.zero(), V("s"), "s")


def test_resultant_multiplicative_spot():
    s, u = V("s"), V("u")
    p1 = s + u
    p2 = s ** 2 - 2
    q = s - 3 * u
    lhs = resultant(p1 * p2, q, "s")
    rhs = resultant(p1, q, "s") * resultant(p2, q, "s")
    assert lhs == rhs


# -- quotient identities and isomorphisms ---------------------------------------------


def test_quotient_identities():
    assert verify_quotient_identity(1)
    assert verify_quotient_identity(2)


def test_quotient_surface_and_identity_refuse_what_the_appendix_lacks():
    with pytest.raises(ValueError, match="^sheet 3 exists for families 1, 2, 6 only$"):
        quotient_surface(3, 3)
    with pytest.raises(ValueError, match="^sheet must be 1, 2 or 3$"):
        quotient_surface(1, 4)
    with pytest.raises(ValueError, match="^j must be 1 or 2$"):
        verify_quotient_identity(3)


@pytest.mark.parametrize("expected", [expected_leading_factor, expected_vertical_bitangents, expected_eliminant_factors])
@pytest.mark.parametrize("i", [4, 0, True, 1.0])
def test_expected_polynomials_refuse_a_family_outside_the_appendix(expected, i):
    with pytest.raises(ValueError, match=r"^family index must be one of \(1, 2, 3, 6, 7\)$"):
        expected(i)


def test_quotient_identity_negative_control():
    h1 = builtin("h1") + V("v")  # perturbed
    f1 = family_split(1)[0]
    image = h1.substitute({"u": V("x0") + V("x1"), "v": V("x0") * V("x1")})
    assert not (image - f1).is_zero()


def test_isomorphism_registry_all_true():
    checks = appendix_checks(only=["isomorphism"])
    assert len(checks) == 8
    assert all(ok for _, ok in checks)


def test_isomorphism_identity_map():
    p = quotient_surface(3, 1)
    assert p.substitute({}).equal_up_to_scalar(p)


def test_isomorphism_negative_control():
    assert not quotient_surface(3, 1).substitute({}).equal_up_to_scalar(quotient_surface(3, 2))


def test_printed_map_for_family3_is_an_automorphism():
    # the naive transcription (u, v, x2, x3) -> (I u, -v, I x2, I x3) fixes
    # both quotient surfaces instead of exchanging them; the registry
    # carries the corrected map
    i_unit = MultiPoly.constant(root_i())
    sub = {"u": i_unit * V("u"), "v": -V("v"), "x2": i_unit * V("x2"), "x3": i_unit * V("x3")}
    s1 = quotient_surface(3, 1)
    s2 = quotient_surface(3, 2)
    assert s1.substitute(sub).equal_up_to_scalar(s1)
    assert s2.substitute(sub).equal_up_to_scalar(s2)
    assert not s2.substitute(sub).equal_up_to_scalar(s1)


# -- bitangents -------------------------------------------------------------------------


def test_leading_factors():
    for i in FAMILY_INDICES:
        assert (symbolic.bitangent_restriction(i)[0] - expected_leading_factor(i)).is_zero()


def test_vertical_bitangents():
    for i in FAMILY_INDICES:
        assert vertical_bitangents(i).equal_up_to_scalar(expected_vertical_bitangents(i))


def test_eliminant_degrees_and_parity():
    for i in FAMILY_INDICES:
        e = bitangent_eliminant(i)
        assert e.degree_in("a2") == (20 if i == 1 else 24)
        if i != 1:
            odd = [
                k
                for k in range(1, e.degree_in("a2") + 1, 2)
                if not e.coeff_in("a2", k).is_zero()
            ]
            assert odd == []


def test_eliminant_factored_forms():
    for i in FAMILY_INDICES:
        product = MultiPoly.constant(1)
        for factor in expected_eliminant_factors(i):
            product = product * factor
        assert product.equal_up_to_scalar(bitangent_eliminant(i)), i


def test_strip_spurious_removes_a2_and_quartic_powers():
    a2, lam = V("a2"), V("lam")
    core = 3 * lam * a2**2 + a2 - 2 * lam  # neither a2 nor a2^4 - 1 divides it
    for i, j in [(0, 0), (1, 0), (4, 0), (0, 1), (0, 3), (2, 2)]:
        stripped = symbolic._strip_spurious(a2**i * (a2**4 - 1) ** j * core)
        assert (stripped - core).is_zero(), (i, j)
    assert symbolic._strip_spurious(lam + 1) == lam + 1  # no a2 at all


def test_eliminant_family1_root_families_divide():
    e = bitangent_eliminant(1)
    for factor in expected_eliminant_factors(1):
        prim = factor.primitive_part()
        assert exact_div(e, prim) * prim == e


def test_family_quartics_are_consistent():
    # the branch quartic is the discriminant of the sheet-1 surface, which
    # itself is the image of the family quartic under the quotient
    for i in FAMILY_INDICES:
        surf = quotient_surface(i, 1)
        image = surf.substitute({"u": V("x0") + V("x1"), "v": V("x0") * V("x1")})
        assert (image - family_quartic(i)).is_zero()


def test_appendix_checks_all_pass():
    results = appendix_checks(seed=0)
    assert results, "checklist must not be empty"
    failures = [name for name, ok in results if not ok]
    assert failures == []


def test_appendix_checks_only_filter():
    results = appendix_checks(seed=0, only=["quotient"])
    assert results and all("quotient" in name for name, _ in results)


def test_appendix_only_runs_just_the_selected_checks(monkeypatch):
    def unexpected(i):
        raise AssertionError(f"eliminant {i} computed for an unselected check")

    monkeypatch.setattr(symbolic, "bitangent_eliminant", unexpected)
    results = appendix_checks(only=["quotient-identity"])
    assert results == [("quotient-identity-h1", True), ("quotient-identity-h2", True)]


def test_appendix_computes_each_eliminant_once(monkeypatch):
    eliminated = []
    real_resultant = symbolic.resultant

    def counting_resultant(p, q, name):
        if name == "a3":
            eliminated.append(name)
        return real_resultant(p, q, name)

    monkeypatch.setattr(symbolic, "resultant", counting_resultant)
    bitangent_eliminant.cache_clear()
    results = appendix_checks()
    assert all(ok for _, ok in results)
    assert len(eliminated) == len(FAMILY_INDICES)


def test_appendix_derives_each_branch_quartic_once(monkeypatch):
    sheet1 = {i: quotient_surface(i, 1) for i in FAMILY_INDICES}
    derived = []
    real_discriminant = symbolic.discriminant_in

    def counting_discriminant(p, name):
        derived.extend(i for i, surface in sheet1.items() if surface == p)
        return real_discriminant(p, name)

    monkeypatch.setattr(symbolic, "discriminant_in", counting_discriminant)
    results = appendix_checks()
    assert results and all(ok for _, ok in results)
    assert sorted(derived) == sorted(FAMILY_INDICES)


def test_appendix_only_quotient_identity_builds_no_surface(monkeypatch):
    def unexpected(i, sheet):
        raise AssertionError(f"quotient surface ({i}, {sheet}) built for an unselected check")

    monkeypatch.setattr(symbolic, "quotient_surface", unexpected)
    results = appendix_checks(only=["quotient-identity"])
    assert results == [("quotient-identity-h1", True), ("quotient-identity-h2", True)]


def test_memoized_derivations_hand_out_no_mutable_lists():
    assert isinstance(symbolic._restriction(2), tuple)
    assert branch_quartic(2) is branch_quartic(2)
    assert quotient_surface(6, 3) is quotient_surface(6, 3)
    restriction = symbolic.bitangent_restriction(2)
    restriction.clear()
    assert len(symbolic.bitangent_restriction(2)) == 5


def test_repeated_appendix_runs_derive_each_check_polynomial_once(monkeypatch):
    substituted = []
    real_substitute = MultiPoly.substitute

    def counting_substitute(self, mapping):
        substituted.append((self, frozenset(mapping)))
        return real_substitute(self, mapping)

    products = []
    real_factors = symbolic.expected_eliminant_factors

    def counting_factors(i):
        products.append(i)
        return real_factors(i)

    monkeypatch.setattr(MultiPoly, "substitute", counting_substitute)
    monkeypatch.setattr(symbolic, "expected_eliminant_factors", counting_factors)
    for only in (None, ["vertical", "isomorphism", "eliminant-factors"]):
        results = appendix_checks(seed=5, only=only)
        assert results and all(ok for _, ok in results)
    registry = symbolic._a2_isomorphism_registry()
    assert isinstance(registry, tuple)
    for i in FAMILY_INDICES:
        assert substituted.count((branch_quartic(i), frozenset({"x2"}))) == 1
    for _, substitution, source, _ in registry:
        assert substituted.count((quotient_surface(*source), frozenset(substitution))) == 1
    assert sorted(products) == sorted(FAMILY_INDICES)


def test_clearing_the_package_caches_empties_the_appendix_caches():
    appendix_checks(seed=0)
    derivations = (
        symbolic.vertical_bitangents,
        symbolic._expected_eliminant,
        symbolic._isomorphism_image,
        symbolic._a2_isomorphism_registry,
    )
    assert all(f.cache_info().currsize for f in derivations)
    clear_package_caches()
    assert not any(f.cache_info().currsize for f in derivations)


def test_appendix_inexact_division_only_ends_each_strip(monkeypatch):
    # a2^4 - 1 is divided out of each eliminant until exact_div raises, once;
    # every other division of the appendix is exact
    raised = []
    real_exact_div = symbolic.exact_div

    def watching(p, q):
        try:
            return real_exact_div(p, q)
        except InexactDivisionError:
            raised.append((p, q))
            raise

    monkeypatch.setattr(symbolic, "exact_div", watching)
    results = appendix_checks()
    assert results and all(ok for _, ok in results)
    quartic = V("a2") ** 4 - 1
    assert [q for _, q in raised] == [quartic] * len(FAMILY_INDICES)
    for i in FAMILY_INDICES:  # the raise comes at the stripped eliminant itself
        assert sum(p.equal_up_to_scalar(bitangent_eliminant(i)) for p, _ in raised) == 1, i


def test_appendix_only_token_must_match():
    with pytest.raises(ValueError, match="'quotinet' matches no check"):
        appendix_checks(only=["quotient", "quotinet"])
