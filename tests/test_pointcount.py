import contextlib
import io
import itertools
import re
from fractions import Fraction
from math import lcm, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import quintic
from oracles import (
    OracleField,
    brute_count_cone,
    brute_general_position,
    count_cone_by_strata,
    hasse_witt,
    verify_cover_map,
    zech_traces,
)

from delsarte import cli, pointcount
from delsarte.deformation import FAMILIES, family
from delsarte.exactalg import kernel_elements, kernel_mod
from delsarte.pointcount import (
    FiniteField,
    HypersurfaceSpec,
    auxiliary_prime,
    count_cone,
    count_points,
    family_hypersurface,
    cover_in_general_position,
    fermat_hypersurface,
    prime_factors,
    torus_strata,
)
from delsarte.zetafermat import multiplicative_character, verify_common_factor


def naive_projective_count(spec, field):
    """Independent oracle: loop over projective representatives directly."""
    field = OracleField.of(field)
    q = field.q
    n1 = len(spec.weights)
    terms = [(exps, field.from_int(c)) for exps, c in spec.terms]
    count = 0
    for lead in range(n1):
        for tail in itertools.product(range(q), repeat=n1 - lead - 1):
            point = (0,) * lead + (1,) + tail
            total = 0
            for exps, c in terms:
                v = c
                for x, e in zip(point, exps):
                    for _ in range(e):
                        v = field.mul(v, x)
                total = field.add(total, v)
            if total == 0:
                count += 1
    return count


# -- field internals -----------------------------------------------------------


def test_prime_field_tables():
    f = OracleField(17)
    assert f.q == 17
    for a in range(1, 17):
        assert f.mul(a, f.inv(a)) == 1
        assert f.log[f.exp[f.log[a]]] == f.log[a]
    assert f.pow(3, 16) == 1


def test_extension_field_axioms():
    f = OracleField(5, 2)
    assert f.q == 25
    els = list(f.elements())
    sample = els[::3]
    for a in sample:
        for b in sample:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in sample[:5]:
                lhs = f.mul(a, f.add(b, c))
                rhs = f.add(f.mul(a, b), f.mul(a, c))
                assert lhs == rhs
    # generator has full order
    seen = set()
    acc = 1
    for _ in range(24):
        seen.add(acc)
        acc = f.mul(acc, f.generator)
    assert len(seen) == 24 and acc == 1


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(prime_factors(q)) == 1]


def _digitwise(a, b, p, sign):
    """a + sign*b on base-p digit vectors, coordinate by coordinate."""
    out, place = 0, 1
    while a or b:
        out += ((a % p + sign * (b % p)) % p) * place
        a, b, place = a // p, b // p, place * p
    return out


def test_zech_arithmetic_matches_digit_addition():
    for q in PRIME_POWERS_TO_64:
        p = prime_factors(q)[0]
        k = next(j for j in range(1, 7) if p**j == q)
        f = OracleField(p, k)
        assert len(f.zech) == q - 1
        for a in range(q):
            assert f.neg(a) == _digitwise(0, a, p, -1), (q, a)
            for b in range(q):
                assert f.add(a, b) == _digitwise(a, b, p, 1), (q, a, b)
                assert f.sub(a, b) == _digitwise(a, b, p, -1), (q, a, b)


PRIME_POWERS_TO_1024 = [q for q in range(2, 1025) if len(prime_factors(q)) == 1]


def _least_primitive_root(p):
    """The least g whose powers g, g^2, ... first return to 1 at g^(p-1)."""
    for g in range(1, p):
        acc, order = g, 1
        while acc != 1:
            acc, order = acc * g % p, order + 1
        if order == p - 1:
            return g
    raise AssertionError(p)


def _times_x(code, modulus, p):
    """x * (residue with base-p digits `code`) mod the monic modulus, schoolbook."""
    k = len(modulus) - 1
    digits = [0] + [code // p**i % p for i in range(k)]
    top = digits.pop()
    return sum((c - top * m) % p * p**i for i, c, m in zip(range(k), digits, modulus))


def test_field_tables_are_the_powers_of_x():
    for q in PRIME_POWERS_TO_1024:
        p = prime_factors(q)[0]
        k = next(j for j in range(1, 11) if p**j == q)
        f = FiniteField(p, k)
        assert sorted(f.exp) == list(range(1, q)), q  # a bijection onto the units
        assert all(f.log[c] == j for j, c in enumerate(f.exp)), q
        assert f.generator == f.exp[1 % (q - 1)] == _times_x(1, f.modulus, p), q
        # exp[j + 1] = x * exp[j] and x^(q-1) = 1, checked without the digit shift
        assert all(_times_x(c, f.modulus, p) == f.exp[(j + 1) % (q - 1)] for j, c in enumerate(f.exp)), q
        if k == 1:
            g = _least_primitive_root(p)
            assert f.generator == g and f.modulus == [-g % p, 1], q


def _order_of_x(modulus, p, q):
    """The order of x in F_p[x]/(modulus), walked power by power; None if x^j != 1 for all j < q."""
    code = 1
    for j in range(1, q):
        code = _times_x(code, modulus, p)
        if code == 1:
            return j
    return None


def test_modulus_is_the_first_primitive_candidate():
    # f = x^k - h(x) for the least code h whose x has order q - 1; constants
    # and h(0) = 0 are not skipped here, the walk rules them out itself
    for q in range(2, 4097):
        factors = prime_factors(q)
        if len(factors) != 1:
            continue
        p = factors[0]
        k = next(j for j in range(1, 13) if p**j == q)
        if k == 1:
            continue  # test_prime_modulus_is_the_least_primitive_root
        for h in range(1, q):
            f = [-(h // p**i) % p for i in range(k)] + [1]
            if _order_of_x(f, p, q) == q - 1:
                break
        assert pointcount._find_primitive(p, k) == f, q


def test_prime_modulus_is_the_least_primitive_root():
    # the prime-field search is _element_of_order's, which starts at h = 1 so that p = 2 gives 1
    for p in range(2, 5000):
        if prime_factors(p) == [p]:
            g = _least_primitive_root(p)
            assert pointcount._find_primitive(p, 1) == [-g % p, 1], p


def test_field_size_bound(monkeypatch):
    with pytest.raises(ValueError, match="^field size 2097152 exceeds the bound 1048576$"):
        FiniteField(2, 21)
    monkeypatch.setattr(pointcount, "MAX_Q", 100)
    with pytest.raises(ValueError, match="^field size 101 exceeds the bound 100$"):
        FiniteField(101)
    FiniteField(97)  # within the bound
    monkeypatch.setattr(pointcount, "MAX_Q", 97)
    FiniteField(97)  # at the bound


@pytest.mark.parametrize(
    "build, size",
    [
        (lambda: FiniteField(2**61 - 1), "2305843009213693951"),
        (lambda: FiniteField(1048583), "1048583"),
        (lambda: FiniteField(2, 22), "2^22"),
        (lambda: FiniteField(2, 10**5), "2^100000"),
        (lambda: FiniteField(4, 10**5), "4^100000"),
        (lambda: verify_common_factor([family("family1")], 2305843009213694009, 1), "2305843009213694009"),
    ],
)
def test_field_size_bound_comes_before_primality_and_before_p_to_the_k(monkeypatch, build, size):
    # trial division of a 61-bit prime takes about 1.5e9 steps, and 2^100000 has 30103 digits
    def refuse(n):
        if n > pointcount.MAX_Q:
            raise AssertionError(f"factored {n}")
        return prime_factors(n)

    monkeypatch.setattr(pointcount, "prime_factors", refuse)
    with pytest.raises(ValueError, match=f"^field size {re.escape(size)} exceeds the bound 1048576$"):
        build()


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(1)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        FiniteField(4)
    for p in (1, 0, -1):  # |p^k| < 2, so no k reaches the bound
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            FiniteField(p, 10**5)
    with pytest.raises(ValueError, match="^extension degree must be positive$"):
        FiniteField(5, 0)
    f = FiniteField(5)
    assert (f.p, f.k, f.q) == (5, 1, 5)


def test_prime_factors_vs_naive():
    for n in range(1, 400):
        naive = [p for p in range(2, n + 1) if n % p == 0 and all(p % r for r in range(2, p))]
        assert prime_factors(n) == naive, n
    assert prime_factors(0) == [] and prime_factors(2**20 * 3) == [2, 3]


# -- counting ---------------------------------------------------------------------


def test_spec_checks_and_keyword_construction():
    spec = HypersurfaceSpec(weights=(1, 2), terms=(((2, 0), 1),))
    assert spec.terms == (((2, 0), 1),)
    spec = HypersurfaceSpec(weights=(1, 2), terms=(((2, 0), 1), ((0, 1), 3)))
    assert spec.terms == (((2, 0), 1), ((0, 1), 3))
    with pytest.raises(ValueError, match="^term length does not match the weight vector$"):
        HypersurfaceSpec(weights=(1, 2), terms=(((2, 0, 0), 1),))
    with pytest.raises(ValueError, match=r"^terms have different weighted degrees: \[2, 4\]$"):
        HypersurfaceSpec(weights=(1, 2), terms=(((2, 0), 1), ((0, 2), 1)))


_REFUSALS = {
    **{
        f"{name}-{d!r}": (lambda d=d, run=run: run(d), f"d is {d!r}, not an integer >= 1")
        for d in (0, -4, True, 4.0)
        for name, run in (
            ("fermat_hypersurface", lambda d: fermat_hypersurface(d, 3)),
            ("multiplicative_character", lambda d: multiplicative_character(FiniteField(13), d)),
        )
    },
    "negative exponent": (
        lambda: HypersurfaceSpec((1, 1, 1), (((3, -1, 0), 1), ((0, 0, 2), 1))),
        "term 0 exponents entry 1 is -1, not >= 0",
    ),
    "float exponent": (
        lambda: HypersurfaceSpec((1, 1), (((0, 2), 1), ((2.0, 0), 1))),
        "term 1 exponents entry 0 is 2.0, not an integer",
    ),
    "bool exponent": (
        lambda: HypersurfaceSpec((1, 1), (((True, 1), 1),)),
        "term 0 exponents entry 0 is True, not an integer",
    ),
    **{
        f"fermat_hypersurface-n={n!r}": (lambda n=n: fermat_hypersurface(4, n), f"n is {n!r}, not an integer >= 1")
        for n in (0, -1, True, 3.0)
    },
    "negative weight": (
        lambda: HypersurfaceSpec((-1, 1), (((1, 1), 1), ((2, 2), 1))),
        "weights entry 0 is -1, not an integer >= 1",
    ),
    "zero weight": (
        lambda: HypersurfaceSpec((0, 1), (((1, 1), 1), ((2, 1), 1))),
        "weights entry 0 is 0, not an integer >= 1",
    ),
    "empty weights": (lambda: HypersurfaceSpec((), ()), "the weight vector is empty"),
    "float weight": (
        lambda: HypersurfaceSpec((1, 2.0), (((2, 0), 1),)),
        "weights entry 1 is 2.0, not an integer",
    ),
    "bool weight": (
        lambda: HypersurfaceSpec((True, 1), (((2, 0), 1),)),
        "weights entry 0 is True, not an integer",
    ),
    "fermat_hypersurface b not summing to d": (
        lambda: fermat_hypersurface(4, 3, lam=1, b=(1, 1, 1, 2)),
        "terms have different weighted degrees: [4, 5]",
    ),
    "float coefficient": (
        lambda: family_hypersurface(family("family1"), 2.0),
        "coefficients entry 4 is 2.0, not an integer",
    ),
    "bool coefficient": (
        lambda: HypersurfaceSpec((1, 1), (((2, 0), True),)),
        "coefficients entry 0 is True, not an integer",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_a_bad_degree_or_spec_entry_is_refused(case):
    run, message = _REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


def test_empty_polynomial_is_projective_space():
    f = FiniteField(5)
    spec = HypersurfaceSpec(weights=(1, 1, 1, 1), terms=())
    assert count_points(spec, f.p, f.k) == 156


def test_fermat_quartic_vs_naive_oracle():
    f = FiniteField(5)
    spec = fermat_hypersurface(4, 3)
    assert count_points(spec, f.p, f.k) == naive_projective_count(spec, f)
    f13 = FiniteField(13)
    assert count_points(fermat_hypersurface(4, 3), f13.p, f13.k) == naive_projective_count(
        fermat_hypersurface(4, 3), f13
    )


def test_cone_count_congruence():
    for q, spec in [
        (5, fermat_hypersurface(4, 3)),
        (7, fermat_hypersurface(3, 2)),
        (13, fermat_hypersurface(12, 3, lam=2, b=(3, 3, 4, 2))),
    ]:
        f = FiniteField(q)
        assert (count_cone(spec, f, torus_strata(spec, f.p, f.q)) - 1) % (q - 1) == 0


def test_family2_weighted_equals_straight_quartic():
    f = FiniteField(5)
    data = family("family2")
    weighted = family_hypersurface(data, lam=0)
    straight = HypersurfaceSpec(weights=(1, 1, 1, 1), terms=weighted.terms)
    assert count_points(weighted, f.p, f.k) == count_points(straight, f.p, f.k)


def test_count_invariant_under_permutation_and_weight_scaling():
    f = FiniteField(7)
    data = family("family6")
    spec = family_hypersurface(data, lam=3)
    base = count_points(spec, f.p, f.k)
    perm = (2, 3, 0, 1)
    permuted = HypersurfaceSpec(
        weights=tuple(spec.weights[i] for i in perm),
        terms=tuple((tuple(e[i] for i in perm), c) for e, c in spec.terms),
    )
    assert count_points(permuted, f.p, f.k) == base
    doubled = HypersurfaceSpec(
        weights=tuple(2 * w for w in spec.weights),
        terms=spec.terms,
    )
    assert count_points(doubled, f.p, f.k) == base


def test_lambda_term_changes_count():
    f = FiniteField(13)
    data = family("family1")
    counts = {count_points(family_hypersurface(data, lam=l), f.p, f.k) for l in range(4)}
    assert len(counts) > 1


# q in {2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27}
ORACLE_FIELDS = {
    p**k: FiniteField(p, k)
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (2, 4), (5, 2), (3, 3)]
}


@st.composite
def _weighted_specs(draw):
    """(spec, field): random weights and monomials of one weighted degree.

    Coefficients may be zero mod p, and the lambda term may be absent or
    present, with a zero or nonzero coefficient.  Half the specs are a
    diagonal sum c_i * x_i^degree plus extra terms, so smooth members
    occur too.  Larger fields get fewer variables, so the brute-force
    oracle stays small.
    """
    q = draw(st.sampled_from(sorted(ORACLE_FIELDS)))
    n1 = draw(st.integers(1, 4 if q <= 9 else 3))
    diagonal = draw(st.booleans())
    if diagonal:
        weights = (1,) * n1
    else:
        weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n1, max_size=n1)))
    degree = draw(st.integers(1, 6))
    monomials = [
        e
        for e in itertools.product(range(degree + 1), repeat=n1)
        if sum(w * x for w, x in zip(weights, e)) == degree
    ]
    terms, lambda_term = (), None
    if monomials:
        term = st.tuples(st.sampled_from(monomials), st.integers(-q, 2 * q))
        terms = tuple(draw(st.lists(term, max_size=4 - 2 * diagonal)))
        lambda_term = draw(term | st.none())
    if diagonal:
        powers = [tuple(degree if j == i else 0 for j in range(n1)) for i in range(n1)]
        terms = tuple((e, draw(st.integers(1, q))) for e in powers) + terms
    if lambda_term is not None:
        terms += (lambda_term,)
    spec = HypersurfaceSpec(weights=weights, terms=terms)
    return spec, ORACLE_FIELDS[q]


@settings(max_examples=120)
@given(_weighted_specs())
def test_count_cone_matches_oracle(case):
    spec, f = case
    assert count_cone(spec, f, torus_strata(spec, f.p, f.q)) == brute_count_cone(spec, f)


def test_count_cone_matches_oracle_on_families():
    for key in FAMILIES:
        for lam in range(3):
            spec = family_hypersurface(family(key), lam=lam)
            for f in (ORACLE_FIELDS[5], ORACLE_FIELDS[4]):
                assert count_cone(spec, f, torus_strata(spec, f.p, f.q)) == brute_count_cone(spec, f), (key, lam, f.q)


# (family, q, lambda, count), recorded from the cone descent that
# `count_cone` used at commit 66a3480, before the Gauss-sum count
DESCENT_COUNTS = [
    ("family1", 29, 3, 672),
    ("family2", 29, 5, 868),
    ("family8", 29, 11, 900),
    ("family5", 29, 0, 1000),
    ("family3", 31, 0, 1024),
    ("family4", 31, 7, 1016),
    ("family9", 31, 2, 963),
    ("family5", 37, 2, 1390),
    ("family6", 37, 1, 1452),
    ("family7", 37, 4, 1668),
    ("family10", 37, 6, 1569),
    ("family1", 37, 2, 1760),
]


@pytest.mark.parametrize("key, q, lam, want", DESCENT_COUNTS)
def test_count_matches_recorded_descent(key, q, lam, want):
    assert count_points(family_hypersurface(family(key), lam), q, 1) == want


def _monomials(weights, degree):
    """Every exponent vector of the given weighted degree."""
    if not weights:
        return [()] if degree == 0 else []
    w, rest = weights[0], weights[1:]
    return [(e,) + tail for e in range(degree // w + 1) for tail in _monomials(rest, degree - e * w)]


@st.composite
def _strata_cases(draw):
    """(spec, p, q): 3 to 7 weighted variables, N = q - 1 for a prime power q <= 32.

    The terms have nonzero coefficients mod p.  The lambda term is absent,
    or present with a zero coefficient (so it drops out) or a nonzero one.
    """
    q = draw(st.sampled_from([q for q in PRIME_POWERS_TO_64 if q <= 32]))
    p = prime_factors(q)[0]
    n1 = draw(st.integers(3, 7))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n1, max_size=n1)))
    monomials = _monomials(weights, draw(st.integers(1, 6)))
    assume(monomials)
    term = st.tuples(st.sampled_from(monomials), st.integers(1, p - 1))
    terms = tuple(draw(st.lists(term, min_size=1, max_size=4)))
    lam = draw(st.sampled_from([0, 1, p - 1]))
    lambda_term = draw(st.none() | st.tuples(st.sampled_from(monomials), st.just(lam)))
    if lambda_term is not None:
        terms += (lambda_term,)
    return HypersurfaceSpec(weights=weights, terms=terms), p, q


@settings(max_examples=150)
@given(_strata_cases())
def test_every_stratum_kernel_is_a_slice_of_the_full_kernel(case):
    spec, p, q = case
    n = q - 1
    terms, kernel, subsets = torus_strata(spec, p, q)
    assert len(subsets) == 2 ** len(spec.weights)
    assume(prod(n // step for step in kernel[1]) <= 3000)
    full = set(kernel_elements(*kernel, n))
    columns = list(zip(*[e + (1,) for e, _ in terms]))
    assert all(sum(map(mul, k, col)) % n == 0 for k in full for col in columns)
    for subset, (s, live) in enumerate(subsets):
        inside = [i for i in range(len(spec.weights)) if subset >> i & 1]
        rows = [j for j, (e, _) in enumerate(terms) if not any(x for i, x in enumerate(e) if i not in inside)]
        assert s == len(inside) and live == sum(1 << j for j in rows)
        sliced = {k for k in full if not any(kj for j, kj in enumerate(k) if not live >> j & 1)}
        if not rows:
            assert sliced == {(0,) * len(terms)}
            continue
        u, steps = kernel_mod([[terms[j][0][i] for i in inside] + [1] for j in rows], n)
        extended = set()
        for k in kernel_elements(u, steps, n):
            full_k = [0] * len(terms)
            for j, kj in zip(rows, k):
                full_k[j] = kj
            extended.add(tuple(full_k))
        assert extended == sliced, (subset, live)


# q <= 32 includes the fields `count --ext` builds as 4^2, 3^2, 2^3 and 2^5
STRATA_FIELDS = [FiniteField(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for k in range(1, 6) if p**k <= 32] + [
    FiniteField(7, 2),
    FiniteField(2, 6),
]


def test_oracle_trace_is_another_additive_character():
    # count_cone's psi reads the constant digit c mod p and the oracle's the trace;
    # where the two differ, the count comparison below checks a change of character.
    # On F_8 they coincide for its modulus x^3 + x + 1, so F_8 alone would prove nothing.
    for f in STRATA_FIELDS:
        if f.k > 1:
            differ = any(tr != c % f.p for tr, c in zip(zech_traces(f), f.exp))
            assert differ == (f.q != 8), f.q


def test_count_cone_matches_per_stratum_count_on_families():
    for f in STRATA_FIELDS:
        for key in FAMILIES:
            for lam in range(f.p):
                spec = family_hypersurface(family(key), lam)
                assert count_cone(spec, f, torus_strata(spec, f.p, f.q)) == count_cone_by_strata(spec, f), (key, f.q, lam)


def test_one_kernel_per_count(monkeypatch):
    calls = []

    def counting(rows, n):
        calls.append(len(rows))
        return kernel_mod(rows, n)

    monkeypatch.setattr(pointcount, "kernel_mod", counting)
    f = FiniteField(13)
    for key in FAMILIES:
        calls.clear()
        count_points(family_hypersurface(family(key), 3), f.p, f.k)
        assert calls == [5], key
        calls.clear()
        count_points(family_hypersurface(family(key), 0), f.p, f.k)
        assert calls == [4], key
    # count_points checks the work bound on the same kernel it counts with
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["count", "family1", "--q", "4", "--ext", "2", "--lambda", "1"]) == 0
    assert out.getvalue() == "258\n" and calls == [5]
    # no term is left mod 13: no kernel, and the cone is all of F_13^2
    calls.clear()
    spec = HypersurfaceSpec(weights=(1, 1), terms=(((1, 0), 13),))
    assert count_cone(spec, f, torus_strata(spec, f.p, f.q)) == 13**2 and calls == []


def _prime_by_trial_division(n):
    return n > 1 and all(n % r for r in range(2, int(n**0.5) + 1))


def test_auxiliary_prime():
    for q in PRIME_POWERS_TO_64:
        p = prime_factors(q)[0]
        step = lcm(p, q - 1)
        for n1 in (1, 2, 3, 4):
            ell = auxiliary_prime(p, q, q**n1)
            assert ell % step == 1 and ell > q**n1, (q, n1)
            assert _prime_by_trial_division(ell), (q, n1)
            # the first such prime: every smaller candidate above q^n1 is composite
            assert not any(
                _prime_by_trial_division(c) for c in range(ell - step, q**n1, -step)
            ), (q, n1)


def test_miller_rabin_limit():
    assert [n for n in range(3000) if pointcount._is_prime(n)] == [
        n for n in range(3000) if _prime_by_trial_division(n)
    ]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..37
    assert not pointcount._is_prime(3215031751)
    assert not pointcount._is_prime(318665857834031151167461)
    # the limit is the least strong pseudoprime to all thirteen bases
    limit = pointcount.MILLER_RABIN_LIMIT
    assert limit == 1287836182261 * 2575672364521 and pointcount._is_prime(limit)
    # with step lcm(3, 2) = 6 the first candidate above limit - 1 is the limit itself,
    # which _is_prime accepts, so auxiliary_prime must exclude the bound
    with pytest.raises(ValueError, match=f"^auxiliary prime {limit} reaches the Miller-Rabin limit {limit}$"):
        auxiliary_prime(3, 3, limit - 1)


def test_work_estimate_bounds():
    # family9 at q = 4099 is admitted: (q-1)^2 dominates an estimate near 1.7e7
    torus_strata(family_hypersurface(family("family9"), 2), 4099, 4099)
    with pytest.raises(ValueError, match=f"exceeds the limit {pointcount.COUNT_WORK_LIMIT}"):
        torus_strata(family_hypersurface(family("family1"), 2), 8191, 8191)
    # the Miller-Rabin limit is checked first: 65537^5 < 3.3e24 <= 131071^5
    quintic = fermat_hypersurface(5, 4, lam=1, b=(1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="work estimate"):
        torus_strata(quintic, 65537, 65537)
    with pytest.raises(ValueError, match="Miller-Rabin limit"):
        torus_strata(quintic, 131071, 131071)
    # seven variables reach the limit at a q the work bound admits
    septic = fermat_hypersurface(7, 6)
    torus_strata(septic, 2729, 2729)
    with pytest.raises(ValueError, match=r"q\^\(n\+1\) = 3331\^7 reaches"):
        torus_strata(septic, 3331, 3331)


# -- general position ---------------------------------------------------------------

# (family, p, max_ext): the oracle searches F_(p^j) for j <= max_ext, which
# here is far enough to reach a singular point of every singular member.
CLOSED_FORM_CASES = [
    ("family1", 5, 1),
    ("family1", 13, 1),
    ("family6", 13, 1),
    ("family8", 13, 1),
    ("family2", 17, 1),
    ("family3", 17, 1),
    ("family2", 3, 2),
    ("family2", 5, 2),
    ("family1", 3, 3),
    ("family4", 3, 3),
    ("family5", 3, 3),
    ("family10", 5, 1),  # p | b_i: every member is smooth
    ("family10", 7, 1),
]


@pytest.mark.parametrize("key, p, max_ext", CLOSED_FORM_CASES)
def test_closed_form_matches_oracle(key, p, max_ext):
    data = family(key)
    f = FiniteField(p)
    for lam in range(p):
        cover = fermat_hypersurface(data.degree, data.n, lam=lam, b=data.cover_exponents)
        expected = brute_general_position(cover, f, max_ext)
        assert cover_in_general_position(data.degree, data.cover_exponents, lam, p) == expected, lam


@pytest.mark.parametrize("d, b, p", [(7, (5, 2), 5), (7, (5, 1, 1), 5), (11, (7, 2, 2), 7)])
def test_closed_form_zero_factor_is_smooth(d, b, p):
    # p | b_0 makes c_0 = 0, so no torus point is singular, whatever the
    # other factors of the product are
    f = FiniteField(p)
    for lam in range(p):
        cover = fermat_hypersurface(d, len(b) - 1, lam=lam, b=b)
        assert brute_general_position(cover, f, 2 if p * p <= 25 else 1)
        assert cover_in_general_position(d, b, lam, p)


@st.composite
def _covers(draw):
    """(d, b, lam, p): b >= 0 with sum d <= 12 over 2..4 variables, p <= 7, p not | d."""
    n1 = draw(st.integers(2, 4))
    d = draw(st.integers(1, 12))
    p = draw(st.sampled_from([p for p in (2, 3, 5, 7) if d % p]))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n1 - 1, max_size=n1 - 1)))
    b = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, d]))
    return d, b, draw(st.integers(0, p - 1)), p


@settings(max_examples=100)
@given(_covers())
def test_closed_form_sees_every_singular_point_the_oracle_finds(case):
    d, b, lam, p = case
    cover = fermat_hypersurface(d, len(b) - 1, lam=lam, b=b)
    max_ext = 2 if p * p <= 25 else 1
    if not brute_general_position(cover, FiniteField(p), max_ext):
        assert not cover_in_general_position(d, b, lam, p)


# -- cover map -----------------------------------------------------------------------


def test_cover_map_family1_identity():
    f = FiniteField(5)
    report = verify_cover_map(family("family1"), 1, f)
    assert report.containment
    assert set(report.fiber_histogram) == {1}


def test_cover_map_family2():
    f = FiniteField(17)
    report = verify_cover_map(family("family2"), 1, f)
    assert report.containment
    assert report.points_on_cover > 0


def test_cover_map_family6():
    f = FiniteField(13)
    report = verify_cover_map(family("family6"), 2, f)
    assert report.containment


def test_cover_map_fibers_uniform():
    # the deck action is free on the torus part, so all fibers have equal size
    f = FiniteField(13)
    for key in ("family2", "family3", "family6", "family8"):
        report = verify_cover_map(family(key), 1, f)
        assert report.containment
        assert len(report.fiber_histogram) == 1


def test_cover_map_all_families_small_scan():
    f = FiniteField(13)
    for key in FAMILIES:
        data = family(key)
        for lam in (0, 1, 2):
            report = verify_cover_map(data, lam, f)
            assert report.containment, (key, lam)


def test_cover_map_rejects_bad_characteristic():
    f = FiniteField(2)
    with pytest.raises(ValueError):
        verify_cover_map(family("family1"), 0, f)


# -- the Hasse-Witt congruence: every count mod p ------------------------------------


def _check_hasse_witt(data, p, lams, k=1):
    """#X_lambda(F_(p^k)) = 1 + (-1)^m H_p(lambda)^k mod p, m the number of variables, at each lambda in F_p.

    The Hasse-Witt matrix is 1 x 1 and lambda is fixed by Frobenius, so over
    F_(p^k) it is the k-th power of the one over F_p.
    """
    coeffs = hasse_witt(data, p)
    sign = (-1) ** len(data.weights)
    for lam in lams:
        h = sum(c * pow(lam, t, p) for t, c in enumerate(coeffs))
        count = count_points(family_hypersurface(data, lam), p, k)
        assert (count - 1 - sign * pow(h, k, p)) % p == 0, (p, k, lam)


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_every_count_mod_p_is_the_hasse_witt_invariant(key):
    data = family(key)
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        if data.degree % p:
            _check_hasse_witt(data, p, range(p))


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_every_extension_field_count_mod_p_is_a_power_of_the_hasse_witt_invariant(key):
    # F_125 and F_81 are beyond the brute-force oracles
    data = family(key)
    for p, k in ((5, 2), (7, 2), (11, 2), (3, 3), (3, 4), (5, 3)):
        if data.degree % p:
            _check_hasse_witt(data, p, range(p), k)


@pytest.mark.parametrize("name", ["fermat", "f1l4", "l2f3", "l2l3", "l5"])
def test_every_quintic_count_mod_p_is_the_hasse_witt_invariant(name):
    data = quintic(name)
    for p in (7, 11, 13):
        if data.degree % p:
            _check_hasse_witt(data, p, range(p))


def test_hasse_witt_holds_at_a_readme_count():
    # delsarte count family1 --q 1021 --lambda 2
    _check_hasse_witt(family("family1"), 1021, [2])


@pytest.mark.parametrize("p", [29, 41, 53, 61, 73, 97])
def test_hasse_witt_invariants_split_the_families_by_dual_weights(p):
    # H_p depends on the weights of the transposed polynomial alone, and here tells them apart
    by_invariant, by_dual = {}, {}
    for key in FAMILIES:
        data = family(key)
        by_invariant.setdefault(tuple(hasse_witt(data, p)), set()).add(key)
        dual = sorted(Fraction(sum(col), data.degree) for col in zip(*data.map_matrix.rows))
        by_dual.setdefault(tuple(dual), set()).add(key)
    blocks = [(1, 2, 3, 4, 5), (6, 7), (8,), (9,), (10,)]
    assert sorted(map(sorted, by_invariant.values())) == sorted(sorted(f"family{i}" for i in b) for b in blocks)
    assert sorted(map(sorted, by_invariant.values())) == sorted(map(sorted, by_dual.values()))

