import functools
import json
import math
import os
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import quintic
from oracles import (
    OracleField,
    char_poly_by_types,
    chi_exponent,
    dense_expand,
    direct_eigenvalue,
    eigenvalue_mod_p,
    embedding,
    enumerate_basis,
    fermat_count_by_trace,
)

from delsarte import zetafermat
from delsarte.cyclotomic import CyclotomicElement
from delsarte.deformation import FAMILIES, common_cover, family
from delsarte.monomials import dimension_triple, g_invariant_types, gmax_invariant_types, unit_orbit
from delsarte.pointcount import FiniteField, count_points, family_hypersurface, fermat_hypersurface
from delsarte.zetafermat import (
    CharacterTable,
    CharPoly,
    CommonFactorReport,
    RationalityError,
    _expand,
    char_poly_invariant,
    frobenius_trace,
    jacobi_eigenvalue,
    lift_types,
    multiplicative_character,
    verify_common_factor,
)

GRID = [(4, 3, 5), (4, 3, 13), (3, 2, 7), (8, 3, 17), (12, 3, 13)]


# -- character tables -----------------------------------------------------------


def test_character_table_q5_d4():
    f = FiniteField(5)
    table = multiplicative_character(f, 4)
    assert table.generator == 2
    assert chi_exponent(table, 1, 2) == 1  # chi(2) is a primitive fourth root
    values = {chi_exponent(table, 1, x) for x in range(1, 5)}
    assert values == {0, 1, 2, 3}  # surjective onto the fourth roots


def test_character_table_trivial():
    f = FiniteField(5)
    table = multiplicative_character(f, 1)
    assert all(chi_exponent(table, 1, x) == 0 for x in range(1, 5))


def test_character_table_requires_divisibility():
    f = FiniteField(7)
    with pytest.raises(ValueError, match="order"):
        multiplicative_character(f, 4)


def test_character_table_custom_generator():
    f = FiniteField(13)
    gens = [g for g in range(2, 13) if math.gcd(f.log[g], 12) == 1]
    assert len(gens) == 4
    table = multiplicative_character(f, 12, generator=gens[1])
    assert chi_exponent(table, 1, gens[1]) == 1
    with pytest.raises(ValueError):
        multiplicative_character(f, 12, generator=4)  # 4 = 2^2 is not a generator


# (p, k) for q in {2, 4, 5, 8, 9, 13, 49, 81}: p = 2, odd q, prime and extension fields
PAIR_FIELDS = [(2, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1), (7, 2), (3, 4)]


@pytest.mark.parametrize("p,k", PAIR_FIELDS)
def test_log_pairs_match_brute_force(p, k):
    f = OracleField(p, k)
    for d in (d for d in range(1, f.q) if (f.q - 1) % d == 0):
        table = multiplicative_character(f, d)
        brute = Counter((chi_exponent(table, 1, v), chi_exponent(table, 1, f.sub(1, v))) for v in range(2, f.q))
        assert Counter({(x, y): c for x, y, c in table.log_pairs}) == brute, (f.q, d)
        assert len(table.log_pairs) == len(brute)


def test_character_table_construction():
    # log_pairs read off the Zech table match the brute-force pairs; given ones are kept
    f = OracleField(3, 2)
    table = multiplicative_character(f, 4)
    brute = Counter((chi_exponent(table, 1, v), chi_exponent(table, 1, f.sub(1, v))) for v in range(2, f.q))
    assert sorted(table.log_pairs) == sorted((x, y, c) for (x, y), c in brute.items())
    assert table.orbit_polys == {} and table.pair_sums == {} and table.orbits == {}
    # -1 = x^4 in F_9, so chi(-1) = zeta_4^4 = 1 at order 4 and zeta_8^4 = -1 at order 8
    assert (table.minus_one, multiplicative_character(f, 8).minus_one) == (0, 4)
    given_pairs = ((0, 0, 7),)
    built = CharacterTable(f, 4, f.generator, table.minus_one, log_pairs=given_pairs)
    assert built.log_pairs is given_pairs and built.minus_one == 0 and built.orbit_polys == {}


@pytest.mark.parametrize("p,k", [(13, 1), (2, 4), (7, 2), (3, 4)])
def test_custom_generator_chi_log_matches_brute_force(p, k):
    f = OracleField(p, k)
    q = f.q
    for g in range(1, q):
        powers, acc = [1], g
        while acc != 1:
            powers.append(acc)
            acc = f.mul(acc, g)
        if len(powers) < q - 1:
            with pytest.raises(ValueError, match="generate"):
                multiplicative_character(f, q - 1, generator=g)
            continue
        for d in (d for d in range(1, q) if (q - 1) % d == 0):
            table = multiplicative_character(f, d, generator=g)
            assert table.generator == g
            # chi(g^m) = zeta_d^m, and chi^3(g^m) = zeta_d^(3m)
            assert all(chi_exponent(table, 1, v) == m % d for m, v in enumerate(powers)), (q, g, d)
            assert all(chi_exponent(table, 3, v) == 3 * m % d for m, v in enumerate(powers)), (q, g, d)
            # the table's pair exponents are logs to base g as well
            log_g = {v: m for m, v in enumerate(powers)}
            brute = Counter((log_g[v] % d, log_g[f.sub(1, v)] % d) for v in range(2, q))
            assert Counter({(x, y): c for x, y, c in table.log_pairs}) == brute, (q, g, d)


# every field with q <= 64, as (p, k)
SMALL_FIELDS = [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)] + [
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)
]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_minus_one_is_the_exponent_of_chi_at_minus_one(p, k):
    f = OracleField(p, k)
    q, minus = f.q, f.sub(0, 1)
    gens = [g for g in range(1, q) if len({f.pow(g, m) for m in range(q - 1)}) == q - 1]
    for g in {f.generator, gens[-1]}:
        # -1 = g^m by walking the powers of g
        m = next(m for m in range(q - 1) if f.pow(g, m) == minus)
        for d in (d for d in range(1, q) if (q - 1) % d == 0):
            table = multiplicative_character(f, d, generator=g)
            assert table.minus_one == m % d, (q, g, d)
            assert 2 * table.minus_one in (0, d), (q, g, d)  # chi(-1) = +-1


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (73, 1), (3, 4), (97, 1)])
def test_log_of_minus_one_is_read_off_q(p, k):
    # x has order q - 1, so -1 = x^((q-1)/2) for odd q; for even q, -1 = 1 = x^0
    f = FiniteField(p, k)
    q = f.q
    shift = (q - 1) // 2 if q % 2 else 0
    assert f.exp[shift] == f.p - 1 and f.log[f.p - 1] == shift
    other = next(f.exp[j] for j in range(2, q - 1) if math.gcd(j, q - 1) == 1) if q > 3 else f.generator
    for d in (d for d in range(1, q) if (q - 1) % d == 0):
        default = multiplicative_character(f, d)
        assert default.minus_one == shift % d, (q, d)
        assert multiplicative_character(f, d, generator=other).minus_one == default.minus_one, (q, d)


# -- point counts as certification ----------------------------------------------


def test_fermat_count_matches_brute_force_grid():
    for d, n, q in GRID:
        f = FiniteField(q)
        assert fermat_count_by_trace(d, n, f) == count_points(fermat_hypersurface(d, n), f.p, f.k), (d, n, q)


def test_fermat_count_trivial_degree():
    # d = 1 has no interior type: the trace is empty and the count is all of P^3
    f = FiniteField(7)
    assert frobenius_trace([], multiplicative_character(f, 1)) == 0
    assert fermat_count_by_trace(1, 3, f) == (7**3 - 1) // 6


def test_fermat_count_extension_field():
    # octic Fermat curve over F_9 (8 | 9 - 1): the certification also
    # holds over a non-prime field
    f = FiniteField(3, 2)
    assert fermat_count_by_trace(8, 2, f) == count_points(fermat_hypersurface(8, 2), f.p, f.k)


# -- eigenvalues -----------------------------------------------------------------


def test_weil_magnitude_exact_and_float():
    for d, n, q in GRID:
        f = FiniteField(q)
        table = multiplicative_character(f, d)
        for k in enumerate_basis(d, n):
            ev = jacobi_eigenvalue(k, table)
            assert ev.norm_squared_exact() == q ** (n - 1)
            approx = abs(embedding(ev))
            assert abs(approx - q ** ((n - 1) / 2)) <= 1e-6 * q ** ((n - 1) / 2)


def test_galois_covariance():
    f = FiniteField(13)
    d = 12
    table = multiplicative_character(f, d)
    k = (1, 5, 11, 7)
    ev = jacobi_eigenvalue(k, table)
    for u in (5, 7, 11):
        lifted = tuple((u * e) % d for e in k)
        assert ev.galois(u) == jacobi_eigenvalue(lifted, table)


def test_eigenvalue_rejects_bad_types():
    f = FiniteField(5)
    table = multiplicative_character(f, 4)
    with pytest.raises(ValueError):
        jacobi_eigenvalue((1, 1, 1, 2), table)  # sum not 0 mod 4
    with pytest.raises(ValueError):
        jacobi_eigenvalue((4, 1, 1, 2), table)  # boundary entry
    with pytest.raises(ValueError, match="does not divide"):
        jacobi_eigenvalue((1, 1, 1), table, 3)  # no character of order 3 comes from one of order 4


# -- fast Jacobi sums against the direct sum ----------------------------------------

# (p, k) for every field with q = p^k <= 49, prime and extension fields
SMALL_FIELDS = [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)] + [
    (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2),
]


@functools.lru_cache(maxsize=None)
def _small_table(p, k, d):
    return multiplicative_character(FiniteField(p, k), d)


@st.composite
def _field_and_order(draw, max_order=48):
    """(p, k, d) with 2 <= d <= max_order and d | q - 1."""
    orders = {
        (p, k): [d for d in range(2, max_order + 1) if (p**k - 1) % d == 0] for p, k in SMALL_FIELDS
    }
    p, k = draw(st.sampled_from([pk for pk, ds in orders.items() if ds]))
    return p, k, draw(st.sampled_from(orders[p, k]))


@settings(max_examples=40)
@given(_field_and_order(max_order=12), st.data())
def test_fermat_count_matches_brute_force_random(field_and_order, data):
    # random d | q - 1: the count read off the trace against the cone count, n = 1 included
    p, k, d = field_and_order
    n = data.draw(st.integers(1, 3 if p**k <= 32 else 2))
    f = FiniteField(p, k)
    assert fermat_count_by_trace(d, n, f) == count_points(fermat_hypersurface(d, n), f.p, f.k)


@st.composite
def _galois_stable_types(draw):
    p, k, d = draw(_field_and_order(max_order=16))
    n = draw(st.integers(2, 3))
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    types = set()
    for _ in range(draw(st.integers(1, 2))):
        head = draw(st.lists(st.integers(1, d - 1), min_size=n, max_size=n))
        last = -sum(head) % d
        if last == 0:
            continue
        k0 = tuple(head) + (last,)
        types |= {tuple(u * e % d for e in k0) for u in units}
    return p, k, d, sorted(types)


@settings(max_examples=40)
@given(_galois_stable_types())
def test_char_poly_matches_type_by_type_oracle(inputs):
    p, k, d, types = inputs
    # a fresh table: the cached one would answer from its orbit memo
    table = multiplicative_character(_small_table(p, k, d).field, d)
    assert char_poly_invariant(types, table) == char_poly_by_types(types, table)


@st.composite
def _interior_types(draw):
    """(p, k, d, type): a type of 3 to 5 entries mod d | q - 1, its last entry -sum of the others.

    Optionally the first j entries, 2 <= j < n, are made to sum to 0 mod d:
    a vanishing proper prefix sum, the case the pair-sum recursion scales by q.
    """
    p, k, d = draw(_field_and_order())
    n = draw(st.integers(2, 4))
    head = draw(st.lists(st.integers(1, d - 1), min_size=n, max_size=n))
    j = draw(st.integers(1, n - 1))
    fix = -sum(head[: j - 1]) % d
    if j >= 2 and fix:
        head[j - 1] = fix
    return p, k, d, tuple(head) + (-sum(head) % d,)


@settings(max_examples=80)
@given(_interior_types())
def test_eigenvalue_matches_direct_sum(inputs):
    p, k, d, k0 = inputs
    if k0[-1]:
        table = _small_table(p, k, d)
        assert jacobi_eigenvalue(k0, table) == direct_eigenvalue(k0, table)


@settings(max_examples=80)
@given(_interior_types())
def test_jacobi_sum_matches_direct_sum(inputs):
    # the same draws at order e | q - 1 on the table of order q - 1, so psi = chi^((q-1)/e):
    # the pair-sum J built over Z[zeta_e], lifted by zeta_e -> zeta_(q-1)^((q-1)/e),
    # is the direct sum of the lifted type
    p, k, e, k0 = inputs
    if k0[-1]:
        table = _small_table(p, k, p**k - 1)
        step = table.order // e
        ev = jacobi_eigenvalue(k0, table, e)
        lifted = CyclotomicElement(table.order, [c for x in ev.coeffs for c in (x,) + (0,) * (step - 1)])
        assert lifted == direct_eigenvalue(tuple(x * step for x in k0), table)


def test_eigenvalue_vanishing_prefix_sums():
    # F_13 and F_25 with d = 12: 3 + 9, 1 + 11 and 2 + 5 + 5 vanish mod 12,
    # so the recursion scales by q, from J = 1 and from a pair sum
    for p, k in ((13, 1), (5, 2)):
        table = _small_table(p, k, 12)
        for k0 in ((3, 9, 5, 7), (1, 11, 4, 3, 5), (2, 5, 5, 7, 5)):
            assert jacobi_eigenvalue(k0, table) == direct_eigenvalue(k0, table), (p, k, k0)


def test_eigenvalue_two_entry_and_short_types():
    table = _small_table(13, 1, 12)
    # J of one character is 1, so the eigenvalue of (5, 7) is chi^7(-1) = -1
    assert jacobi_eigenvalue((5, 7), table) == direct_eigenvalue((5, 7), table) == -1
    with pytest.raises(ValueError, match="interior"):
        jacobi_eigenvalue((3, 12, 5, 4), table)
    for short in ((5,), (12,), ()):
        with pytest.raises(ValueError, match="at least two entries"):
            jacobi_eigenvalue(short, table)


def _eigenvalue_f13(k, order=None, warm=False):
    """jacobi_eigenvalue on a fresh order-12 table over F_13; `warm` first memoizes (1, 3, 4, 4)'s pair sums."""
    table = _small_table(13, 1, 12)
    if warm:
        jacobi_eigenvalue((1, 3, 4, 4), table)
    return jacobi_eigenvalue(k, table, order)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (_eigenvalue_f13, ((True, 3, 4, 4),), "type entry 0 is True"),
        (_eigenvalue_f13, ((1.0, 3, 4, 4),), "type entry 0 is 1.0"),
        (_eigenvalue_f13, ((1.0, 3, 4, 4), None, True), "type entry 0 is 1.0"),
        (_eigenvalue_f13, ((1, 3, 4, 4), 4.0), "order entry 0 is 4.0"),
        (_eigenvalue_f13, ((1, 3, 4, 4), True), "order entry 0 is True"),
        (FiniteField, (5, True), r"\(p, k\) entry 1 is True"),
        (FiniteField, (5, 2.0), r"\(p, k\) entry 1 is 2.0"),
        (FiniteField, (5.0, 1), r"\(p, k\) entry 0 is 5.0"),
    ],
)
def test_eigenvalue_and_field_refuse_non_integers(call, args, message):
    with pytest.raises(ValueError, match=f"^{message}, not an integer$"):
        call(*args)


def _smallest_field(d):
    """F_q for the least prime power q with d | q - 1."""
    q = d + 1
    while True:
        p = next(x for x in range(2, q + 1) if q % x == 0)
        k, rest = 0, q
        while rest % p == 0:
            rest //= p
            k += 1
        if rest == 1:
            return FiniteField(p, k)
        q += d


def test_char_poly_matches_oracle_on_all_families():
    for key in FAMILIES:
        data = family(key)
        field = _smallest_field(data.degree)
        types = g_invariant_types(data)
        table = multiplicative_character(field, data.degree)
        poly = char_poly_invariant(types, table)
        assert poly == char_poly_by_types(types, table), (key, field.q)
        assert frobenius_trace(types, table) == -poly.coeffs[1], (key, field.q)


# the benchmark's single-family fields, where orbits reduce to e = d/gcd(d, k) < d
BENCH_FIELDS = [("family10", 109, 1), ("family5", 3, 4), ("family9", 73, 1), ("family4", 113, 1)]


@pytest.mark.parametrize("key,p,k", BENCH_FIELDS)
def test_char_poly_matches_oracle_at_benchmark_fields(key, p, k):
    data = family(key)
    field = FiniteField(p, k)
    d = data.degree
    types = g_invariant_types(data)
    orders = {d // math.gcd(d, *t) for t in types}
    assert min(orders) < d
    table = multiplicative_character(field, d)
    oracle = char_poly_by_types(types, multiplicative_character(field, d))
    assert char_poly_invariant(types, table) == oracle
    # at every order e the orbits use, the eigenvalue of k/g read off the order-d
    # table is the one from a fresh table of order e on the same generator
    fresh = {e: multiplicative_character(field, e, table.generator) for e in orders}
    for k in types:
        g = math.gcd(d, *k)
        k_g = tuple(x // g for x in k)
        assert jacobi_eigenvalue(k_g, table, d // g) == jacobi_eigenvalue(k_g, fresh[d // g]), k


def test_char_poly_shared_table():
    f = FiniteField(17)
    types = g_invariant_types(family("family2"))
    table = multiplicative_character(f, 8)
    shared = char_poly_invariant(types, table)
    memo = dict(table.orbit_polys)
    assert memo
    fresh = multiplicative_character(f, 8)
    assert char_poly_invariant(types, table) == shared == char_poly_invariant(types, fresh)
    # the trace walks the same orbits and answers from the same memo
    assert frobenius_trace(types, table) == -shared.coeffs[1]
    assert table.orbit_polys == memo


# -- orbit norms against the dense conjugate product -----------------------------

EXPAND_ORDERS = (1, 2, 5, 8, 27, 64, 80, 108)


def _units(e):
    return [u for u in range(1, e + 1) if math.gcd(u, e) == 1]


@st.composite
def _elements(draw):
    """A random element of Z[zeta_e] with its order e.

    The element lives in Z[zeta_f] for a drawn f | e, so each of its
    distinct conjugates repeats phi(e)/phi(f) times in the norm.  Its
    nonzero entries, at most three, have a drawn bit length up to 200, so
    the powers the field width must hold are far wider than any entry.
    """
    e = draw(st.sampled_from(EXPAND_ORDERS))
    bits = draw(st.sampled_from((1, 8, 200)))
    f = draw(st.sampled_from([f for f in range(1, e + 1) if e % f == 0]))
    entry = st.tuples(st.sampled_from((1, -1)), st.integers(2 ** (bits - 1), 2**bits))
    entries = draw(st.lists(st.tuples(st.integers(0, f - 1), entry), min_size=1, max_size=3))
    coeffs = [0] * e
    for j, (sign, size) in entries:
        coeffs[j * (e // f)] += sign * size
    return e, CyclotomicElement(e, coeffs)


@settings(max_examples=60)
@given(_elements())
def test_packed_expand_matches_dense(inputs):
    e, alpha = inputs
    assert _expand(alpha, e) == dense_expand([alpha.galois(u) for u in _units(e)], e)


def test_packed_expand_small_cases():
    assert _expand(CyclotomicElement.constant(1, -7), 1) == CharPoly((1, 7))
    # a rational element of Q(i) is its own conjugate: (1 - 3T)^2
    assert _expand(CyclotomicElement.constant(4, 3), 4) == CharPoly((1, -6, 9))
    # (1 - iT)(1 + iT) = 1 + T^2
    assert _expand(CyclotomicElement.zeta(4), 4) == CharPoly((1, 0, 1))
    # big*(1 + i) and big*(1 - i): the T^2 coefficient is twice as wide as any entry
    big = 2**200 - 1
    pair = [CyclotomicElement(4, (big, big, 0, 0)), CyclotomicElement(4, (big, 0, 0, big))]
    assert _expand(pair[0], 4) == dense_expand(pair, 4) == CharPoly((1, -2 * big, 2 * big * big))


def test_expand_rejects_a_set_that_is_not_galois_stable():
    table = multiplicative_character(FiniteField(17), 8)
    orbit = [tuple(u * x % 8 for x in (1, 2, 3, 2)) for u in _units(8)]
    assert char_poly_invariant(orbit, table).degree == 4
    # one member, or the members under u = 1, 3 only, is not a whole orbit
    for part in (orbit[:1], orbit[:2]):
        with pytest.raises(ValueError, match="not Galois stable"):
            char_poly_invariant(part, table)
        with pytest.raises(ValueError, match="not Galois stable"):
            frobenius_trace(part, table)
    # a type must be reduced mod d: its orbit holds only reduced types
    for unreduced in ((9, 2, 3, 2), (-7, 2, 3, 2)):
        for walk in (char_poly_invariant, frobenius_trace):
            with pytest.raises(ValueError, match=re.escape(f"type {unreduced} is not reduced mod 8")):
                walk(orbit[1:] + [unreduced], multiplicative_character(FiniteField(17), 8))
    # the norm of zeta_8: prod (1 - zeta T) over the primitive 8th roots
    assert _expand(CyclotomicElement.zeta(8), 8) == CharPoly((1, 0, 0, 0, 1))


def test_orbit_norm_of_wrong_size_is_refused(monkeypatch):
    # every eigenvalue has |j|^2 = q^(n-1), so each orbit's squared norm is q^((n-1) phi(e));
    # twice the true eigenvalue breaks that by 4^phi(e)
    table = multiplicative_character(FiniteField(17), 8)
    types = [tuple(u * x % 8 for x in (1, 2, 3, 2)) for u in _units(8)]
    true_eigenvalue = zetafermat.jacobi_eigenvalue
    monkeypatch.setattr(zetafermat, "jacobi_eigenvalue", lambda *args: true_eigenvalue(*args) * 2)
    with pytest.raises(RationalityError, match="squared norm is not q\\^\\(2\\*4\\)"):
        char_poly_invariant(types, table)
    assert not table.orbit_polys


# -- characteristic polynomials ----------------------------------------------------


def test_char_poly_empty():
    f = FiniteField(5)
    assert char_poly_invariant([], multiplicative_character(f, 4)) == CharPoly((1,))
    assert frobenius_trace([], multiplicative_character(f, 4)) == 0


# prime and extension fields: (p, k, [(d, n), ...]) with d | q - 1
TRACE_CASES = [
    (13, 1, [(4, 3), (12, 2), (6, 1)]),
    (3, 2, [(8, 3), (4, 2), (2, 1)]),
    (5, 2, [(8, 2), (3, 3), (24, 1)]),
    (2, 4, [(5, 2), (15, 2), (3, 3)]),
]


@pytest.mark.parametrize("p,k,cases", TRACE_CASES)
def test_frobenius_trace_matches_direct_eigenvalues(p, k, cases):
    # against the sum of the direct-sum eigenvalues, every interior type and
    # a family's invariant types, with duplicates and a type list in any order
    f = FiniteField(p, k)
    for d, n in cases:
        table = multiplicative_character(f, d)
        # enumerate_basis needs n >= 2
        types = enumerate_basis(d, n) if n > 1 else [(a, d - a) for a in range(1, d)]
        direct = sum((direct_eigenvalue(t, table) for t in types), CyclotomicElement.constant(d, 0))
        assert frobenius_trace(types, table) == direct.rational_value(), (f.q, d, n)
        assert frobenius_trace(types[::-1] + types[:3], multiplicative_character(f, d)) == direct.rational_value()
    if (f.q - 1) % 8 == 0:
        types = g_invariant_types(family("family2"))
        table = multiplicative_character(f, 8)
        direct = sum((direct_eigenvalue(t, table) for t in types), CyclotomicElement.constant(8, 0))
        assert frobenius_trace(types, table) == direct.rational_value()


def test_char_poly_family1_gmax():
    f = FiniteField(5)
    poly = char_poly_invariant(gmax_invariant_types(family("family1")), multiplicative_character(f, 4))
    assert poly.degree == 3
    table = multiplicative_character(f, 4)
    for k in gmax_invariant_types(family("family1")):
        assert jacobi_eigenvalue(k, table).norm_squared_exact() == 25


def test_char_poly_family2_full_invariant_set():
    f = FiniteField(17)
    poly = char_poly_invariant(g_invariant_types(family("family2")), multiplicative_character(f, 8))
    assert poly.degree == 15


def test_char_poly_generator_independent():
    f = FiniteField(17)
    types = g_invariant_types(family("family2"))
    gens = [g for g in range(2, 17) if math.gcd(f.log[g], 16) == 1]
    polys = {char_poly_invariant(types, multiplicative_character(f, 8, g)) for g in gens[:3]}
    assert len(polys) == 1


def test_char_poly_requires_galois_stable_input():
    f = FiniteField(17)
    with pytest.raises(ValueError, match="not rational"):
        char_poly_invariant([(1, 1, 1, 5)], multiplicative_character(f, 8))
    with pytest.raises(ValueError, match="not rational"):
        frobenius_trace([(1, 1, 1, 5)], multiplicative_character(f, 8))


def test_char_poly_checks_equality_and_hash():
    for coeffs in ((), (2, 1)):
        with pytest.raises(ValueError, match="^constant coefficient must be 1$"):
            CharPoly(coeffs)
    p = CharPoly((1, -3, 2))
    assert p == CharPoly((1, -3, 2)) and hash(p) == hash(CharPoly((1, -3, 2)))
    assert p != CharPoly((1, -3, 3)) and p != (1, -3, 2)
    assert len({p, CharPoly((1, -3, 2)), CharPoly((1,))}) == 2


def test_char_poly_divides():
    p = CharPoly((1, -3, 2))  # (1 - T)(1 - 2T)
    q = CharPoly((1, -1)) * CharPoly((1, -2)) * CharPoly((1, 5))
    assert p.divides(q)
    assert not CharPoly((1, 7)).divides(q)
    assert CharPoly((1,)).divides(p)


# a CharPoly with a nonzero top coefficient: degree >= 1, and 0 is no root as the constant term is 1
_nonconstant_char_poly = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda tail: tail[-1]).map(
    lambda tail: CharPoly((1, *tail))
)


@given(_nonconstant_char_poly, _nonconstant_char_poly, st.data())
def test_char_poly_divides_products_and_not_perturbed_ones(a, b, data):
    c = a * b
    assert a.divides(c) and b.divides(c)
    assert not c.divides(a)  # deg c > deg a
    # c + delta*T^i is divisible by a only if a divides T^i, which has no nonzero root
    i = data.draw(st.integers(1, c.degree))
    delta = data.draw(st.integers(-5, 5).filter(bool))
    perturbed = CharPoly(tuple(x + delta * (j == i) for j, x in enumerate(c.coeffs)))
    assert not a.divides(perturbed) and not b.divides(perturbed)


# -- lifting -------------------------------------------------------------------------


def test_lift_types_examples():
    types = enumerate_basis(4, 3)
    lifted = lift_types(types, 4, 8)
    assert len(lifted) == 21
    assert all(e % 2 == 0 for k in lifted for e in k)
    assert lift_types([(1, 1, 1, 1)], 4, 4) == [(1, 1, 1, 1)]
    assert lift_types([(1, 1, 1, 1)], 4, 24) == [(6, 6, 6, 6)]
    with pytest.raises(ValueError):
        lift_types(types, 4, 6)


def test_lifted_char_poly_matches_native():
    # same eigenvalues whether computed at the family degree or lifted to
    # a joint cover degree
    f = FiniteField(73)
    data = family("family6")
    native = char_poly_invariant(g_invariant_types(data), multiplicative_character(f, 12))
    lifted = char_poly_invariant(lift_types(g_invariant_types(data), 12, 24), multiplicative_character(f, 24))
    assert native == lifted


# -- common factors --------------------------------------------------------------------


def test_common_factor_families_123():
    f = FiniteField(17)
    report = verify_common_factor([family(f"family{i}") for i in (1, 2, 3)], f.p, f.k)
    assert report.joint_degree == 8
    assert report.common_poly.degree == 5
    assert all(report.divides)
    assert [p.degree for p in report.family_polys] == [21, 15, 13]


def test_common_factor_families_12():
    f = FiniteField(17)
    report = verify_common_factor([family("family1"), family("family2")], f.p, f.k)
    assert report.common_poly.degree == 7
    assert all(report.divides)


def test_common_factor_single_family():
    f = FiniteField(17)
    report = verify_common_factor([family("family2")], f.p, f.k)
    assert report.common_poly.degree == report.family_polys[0].degree == 15
    assert report.common_poly == report.family_polys[0]
    assert all(report.divides)


def test_common_factor_report_keywords():
    common, other = CharPoly((1, -1)), CharPoly((1, -3, 2))
    report = CommonFactorReport(
        joint_degree=4, common_poly=common, family_polys=(other,), divides=(True,)
    )
    assert (report.joint_degree, report.common_poly.degree, all(report.divides)) == (4, 1, True)
    assert report.family_polys == (other,)


def test_common_factor_requires_a_family():
    with pytest.raises(ValueError, match="^need at least one family$"):
        verify_common_factor([], 17, 1)


def test_common_factor_requires_common_cover():
    f = FiniteField(17)
    with pytest.raises(ValueError, match="no common cover"):
        verify_common_factor([family("family1"), family("family9")], f.p, f.k)


def test_common_factor_requires_compatible_field():
    f = FiniteField(7)
    with pytest.raises(ValueError, match="divide"):
        verify_common_factor([family("family1"), family("family2")], f.p, f.k)


def _functional_equation_ok(poly, q):
    # weight-2 eigenvalue multisets are stable under a -> q^2/a, which
    # forces c_{deg-k} * q^(2k) == eps * c_k * q^deg with eps = +-1
    c = poly.coeffs
    deg = poly.degree
    if c[deg] not in (q**deg, -(q**deg)):
        return False
    eps = c[deg] // q**deg
    return all(c[deg - k] * q ** (2 * k) == eps * c[k] * q**deg for k in range(deg + 1))


def test_functional_equation_weight_two():
    f5, f17, f73 = FiniteField(5), FiniteField(17), FiniteField(73)
    assert _functional_equation_ok(
        char_poly_invariant(gmax_invariant_types(family("family1")), multiplicative_character(f5, 4)), 5
    )
    for i in (1, 2, 3):
        data = family(f"family{i}")
        types = lift_types(g_invariant_types(data), data.degree, 8)
        assert _functional_equation_ok(char_poly_invariant(types, multiplicative_character(f17, 8)), 17)
    report = verify_common_factor([family("family6"), family("family7")], f73.p, f73.k)
    assert _functional_equation_ok(report.common_poly, 73)


def test_nested_common_factors_divide():
    # the three-family factor divides the two-family factor (larger joint
    # group, smaller invariant space)
    f17 = FiniteField(17)
    p5 = verify_common_factor([family(f"family{i}") for i in (1, 2, 3)], f17.p, f17.k).common_poly
    p7 = verify_common_factor([family(f"family{i}") for i in (1, 2)], f17.p, f17.k).common_poly
    assert p5.degree == 5 and p7.degree == 7
    assert p5.divides(p7)


def test_five_families_share_degree_three_intersection():
    fams = [family(f"family{i}") for i in range(1, 6)]
    lifted = [set(lift_types(g_invariant_types(x), x.degree, 560)) for x in fams]
    common = set.intersection(*lifted)
    assert common == {
        (140, 140, 140, 140),
        (280, 280, 280, 280),
        (420, 420, 420, 420),
    }


def test_common_degree_equals_intersection_cardinality():
    f = FiniteField(17)
    fams = [family(f"family{i}") for i in (1, 2, 3)]
    lifted = [set(lift_types(g_invariant_types(x), x.degree, 8)) for x in fams]
    assert len(set.intersection(*lifted)) == 5
    report = verify_common_factor(fams, f.p, f.k)
    assert report.common_poly.degree == 5
    lifted12 = [set(lift_types(g_invariant_types(x), x.degree, 8)) for x in fams[:2]]
    assert len(set.intersection(*lifted12)) == 7


# every `common-factor` operation of the benchmark, as (family keys, q), read off its pinned digests
EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "..", "bench", "expected.json")
with open(EXPECTED_PATH, encoding="utf-8") as _handle:
    FROBENIUS_POOL = [
        (tuple(argv[1:-2]), int(argv[-1]))
        for argv in (key.split() for key in json.load(_handle)["digests"])
        if argv[0] == "common-factor"
    ]
POOL_IDS = [f"{'-'.join(fams)}-q{q}" for fams, q in FROBENIUS_POOL]


def _field_of(q):
    p = next(x for x in range(2, q + 1) if q % x == 0)
    k = 1
    while p**k < q:
        k += 1
    return FiniteField(p, k)


def _lifted_sets(datas):
    """The joint degree d and each family's invariant types lifted to it."""
    d, _ = common_cover(datas)
    return d, [set(lift_types(g_invariant_types(x), x.degree, d)) for x in datas]


def _assert_orbits_from_units_mod_e(types, d):
    units = _units(d)
    for k in types:
        orbit = unit_orbit(k, d)
        assert orbit == {tuple(u * x % d for x in k) for u in units}, (d, k)
        assert len(orbit) == len(_units(d // math.gcd(d, *k))), (d, k)


def test_benchmark_pool_joint_degrees():
    degrees = {_lifted_sets([family(key) for key in fams])[0] for fams, _ in FROBENIUS_POOL}
    assert len(FROBENIUS_POOL) == 10 and degrees == {8, 12, 24, 28, 36, 80, 108}


@pytest.mark.parametrize("fams,q", FROBENIUS_POOL, ids=POOL_IDS)
def test_orbit_from_units_mod_e_matches_all_units_mod_d(fams, q):
    d, lifted = _lifted_sets([family(key) for key in fams])
    _assert_orbits_from_units_mod_e(set().union(*lifted), d)


@pytest.mark.parametrize("name", ["fermat", "f1l4", "l2f3", "l2l3", "l5"])
def test_quintic_orbit_from_units_mod_e_matches_all_units_mod_d(name):
    data = quintic(name)
    _assert_orbits_from_units_mod_e(g_invariant_types(data), data.degree)


@pytest.mark.parametrize("fams,q", FROBENIUS_POOL, ids=POOL_IDS)
def test_common_factor_matches_each_set_on_its_own(fams, q):
    # one table for the whole call gives what each set gives alone, and what the type-by-type oracle gives
    datas = [family(key) for key in fams]
    field = _field_of(q)
    report = verify_common_factor(datas, field.p, field.k)
    d, lifted = _lifted_sets(datas)
    for types, poly in zip([set.intersection(*lifted), *lifted], [report.common_poly, *report.family_polys]):
        table = multiplicative_character(field, d)
        assert poly == char_poly_invariant(types, table) == char_poly_by_types(types, table), (fams, q)
        # one member short, the set is not Galois stable
        part = sorted(types)[1:]
        for walk in (char_poly_invariant, frobenius_trace):
            with pytest.raises(ValueError, match="not Galois stable"):
                walk(part, multiplicative_character(field, d))


def test_quintic_common_factor_matches_each_set_on_its_own():
    # the direct-sum oracle costs (q - 1)^3 per type, so it takes the common set at q = 31
    # only; every other set checked against a type-by-type expansion takes the eigenvalues
    # at order d, one type at a time, where phi(d) is small enough for the dense product
    for names, field in ((("fermat", "f1l4"), FiniteField(2, 8)), (("fermat", "l2f3"), FiniteField(31))):
        datas = [quintic(name) for name in names]
        report = verify_common_factor(datas, field.p, field.k)
        d, lifted = _lifted_sets(datas)
        common = set.intersection(*lifted)
        for types, poly in zip([common, *lifted], [report.common_poly, *report.family_polys]):
            table = multiplicative_character(field, d)
            assert poly == char_poly_invariant(types, table), names
            if types is common or d == 15:
                assert poly == dense_expand([jacobi_eigenvalue(k, table) for k in sorted(types)], d), names
        if d == 15:
            assert report.common_poly == char_poly_by_types(common, multiplicative_character(field, d))


def test_common_factor_builds_and_expands_each_orbit_once(monkeypatch):
    built, expanded = Counter(), Counter()
    true_orbit, true_expand = zetafermat.unit_orbit, zetafermat._expand

    def counted_orbit(k, d):
        orbit = true_orbit(k, d)
        built[orbit] += 1
        return orbit

    def counted_expand(alpha, e):
        expanded[alpha, e] += 1
        return true_expand(alpha, e)

    monkeypatch.setattr(zetafermat, "unit_orbit", counted_orbit)
    monkeypatch.setattr(zetafermat, "_expand", counted_expand)
    datas = [family(f"family{i}") for i in (1, 2, 3)]
    verify_common_factor(datas, 73, 1)
    d, lifted = _lifted_sets(datas)
    union = set().union(*lifted)
    # the orbits built partition the union, each built once, and each is expanded once
    assert set(built.values()) == {1}
    assert set().union(*built) == union and sum(map(len, built)) == len(union)
    assert sum(expanded.values()) == len(built)
    # the table owns the orbit map: a trace after the polynomial on one table builds and expands nothing
    table = multiplicative_character(FiniteField(73), d)
    poly = char_poly_invariant(union, table)
    built.clear()
    expanded.clear()
    assert frobenius_trace(union, table) == -poly.coeffs[1]
    assert not built and not expanded


# -- quintic threefold pencils ------------------------------------------------------

def test_quintic_fermat_f1l4_common_factor_at_256():
    fermat, f1l4 = quintic("fermat"), quintic("f1l4")
    assert (fermat.degree, f1l4.degree) == (5, 255)
    report = verify_common_factor([fermat, f1l4], 2, 8)
    assert (report.joint_degree, report.common_poly.degree) == (255, 4)
    assert report.divides == (True, True)
    assert [p.degree for p in report.family_polys] == [204, 204]
    # F1L4 has orbits at e = 255, whose norms from Q(zeta_255) have degree phi(255) = 128
    assert any(math.gcd(255, *k) == 1 for k in g_invariant_types(f1l4))


def test_quintic_fermat_l2f3_common_factor_at_31():
    report = verify_common_factor([quintic("fermat"), quintic("l2f3")], 31, 1)
    assert (report.joint_degree, report.common_poly.degree) == (15, 52)
    assert report.divides == (True, True)
    assert [p.degree for p in report.family_polys] == [204, 180]


def test_quintic_l2l3_and_l5_dimension_triples():
    # (PF, dimW, c) with PF + dimW + c = 204, the middle Betti number of a quintic threefold
    assert (quintic("l2l3").degree, dimension_triple(quintic("l2l3"))) == (195, (4, 176, 24))
    assert (quintic("l5").degree, dimension_triple(quintic("l5"))) == (1025, (4, 200, 0))


def test_quintic_fermat_l2f3_l2l3_common_factor_at_1171():
    names = ("fermat", "l2f3", "l2l3")
    report = verify_common_factor([quintic(name) for name in names], 1171, 1)
    assert (report.joint_degree, report.common_poly.degree) == (195, 4)
    assert [p.degree for p in report.family_polys] == [204, 180, 180]
    assert all(report.divides)


def test_quintic_fermat_l5_common_factor_at_6151():
    report = verify_common_factor([quintic("fermat"), quintic("l5")], 6151, 1)
    assert (report.joint_degree, report.common_poly.degree) == (1025, 4)
    assert report.divides == (True, True)


def _count_minus_lefschetz(name, field):
    """count_points at lambda = 0 minus 1 + q + q^2 + q^3 - (the trace over the G-invariant types)."""
    data = quintic(name)
    q = field.q
    trace = frobenius_trace(g_invariant_types(data), multiplicative_character(field, data.degree))
    return count_points(family_hypersurface(data, 0), field.p, field.k) - (1 + q + q**2 + q**3 - trace)


def test_quintic_count_equals_invariant_trace_when_c_is_zero():
    # Fermat and F1L4 have c = 0: the G-invariant types carry all of the count
    assert _count_minus_lefschetz("fermat", FiniteField(11)) == 0
    assert _count_minus_lefschetz("fermat", FiniteField(31)) == 0
    assert _count_minus_lefschetz("f1l4", FiniteField(2, 8)) == 0
    # L2F3 has c = 24, and those classes add to the count
    assert _count_minus_lefschetz("l2f3", FiniteField(31)) == 2046


def test_quintic_orbit_polys_match_dense_conjugate_product():
    table = multiplicative_character(FiniteField(31), 15)
    for data in (quintic("fermat"), quintic("l2f3")):
        char_poly_invariant(lift_types(g_invariant_types(data), data.degree, 15), table)
    assert table.orbit_polys
    for orbit, poly in table.orbit_polys.items():
        k = min(orbit)
        g = math.gcd(15, *k)
        e = 15 // g
        alpha = jacobi_eigenvalue(tuple(x // g for x in k), table, e)
        assert poly == dense_expand([alpha.galois(u) for u in _units(e)], e), orbit


# -- Stickelberger's congruence: every eigenvalue mod P at a split prime ------------

_PRIMES_TO_10K = [p for p in range(3, 10**4) if all(p % r for r in range(2, math.isqrt(p) + 1))]


@functools.cache
def _prime_field(p):
    return FiniteField(p)


@functools.cache
def _prime_table(p, d):
    return multiplicative_character(_prime_field(p), d)


def _mod_p(alpha, p, root):
    """The eigenvalue alpha in Z[zeta_e] sent to F_p by zeta_e -> root."""
    return sum(c * pow(root, i, p) for i, c in enumerate(alpha.coeffs)) % p


def _check_stickelberger(k, e, table):
    p, g = table.field.q, table.generator
    residue = eigenvalue_mod_p(k, e, p, g)
    # psi = chi^(d/e) has psi(g) = zeta_e, and zeta_e -> g^((p-1)/e) is a ring map onto F_p
    assert _mod_p(jacobi_eigenvalue(k, table, e), p, pow(g, (p - 1) // e, p)) == residue, (p, e, k)
    # the residue is a unit exactly at the top Hodge level sum(k) = n*e
    assert (residue != 0) == (sum(k) == (len(k) - 1) * e), (p, e, k)


@st.composite
def _split_cases(draw):
    """(d, p, [(e, k)]): a prime p = 1 mod d below 10^4 and, for every e | d, maybe a type k mod e of 3-5 entries."""
    d = draw(st.sampled_from((4, 5, 6, 8, 12, 24)))
    p = draw(st.sampled_from([p for p in _PRIMES_TO_10K if p % d == 1]))
    cases = []
    for e in range(2, d + 1):  # e = 1 has no interior type
        if d % e == 0:
            head = draw(st.lists(st.integers(1, e - 1), min_size=2, max_size=4))
            if sum(head) % e:
                cases.append((e, (*head, -sum(head) % e)))
    return d, p, cases


@settings(max_examples=200)
@given(_split_cases())
def test_eigenvalues_match_stickelberger_at_split_primes(case):
    d, p, cases = case
    table = _prime_table(p, d)
    for e, k in cases:
        _check_stickelberger(k, e, table)


def _check_orbit_representatives(types, d, table):
    for orbit in {unit_orbit(k, d) for k in types}:
        k = min(orbit)
        g = math.gcd(d, *k)
        _check_stickelberger(tuple(x // g for x in k), d // g, table)


@pytest.mark.parametrize(
    "q, name",
    [(1171, "fermat"), (1171, "l2f3"), (1171, "l2l3"), (6151, "fermat"), (6151, "l5"), (104551, "f1l4"), (104551, "l5")],
)
def test_orbit_representatives_match_stickelberger_at_the_common_factor_fields(q, name):
    # the fields of the pinned common-factor reports, beyond any direct Jacobi sum
    data = quintic(name)
    _check_orbit_representatives(g_invariant_types(data), data.degree, _prime_table(q, data.degree))


def test_orbit_representatives_match_stickelberger_on_the_lifted_types_of_families_1_to_3():
    # the report `common-factor family1 family2 family3 --q 1048433` reads one order-8 table
    data = [family(f"family{i}") for i in (1, 2, 3)]
    d, _ = common_cover(data)
    types = set().union(*(lift_types(g_invariant_types(item), item.degree, d) for item in data))
    assert d == 8 and len({unit_orbit(k, d) for k in types}) == 15
    _check_orbit_representatives(types, d, multiplicative_character(FiniteField(1048433), d))
