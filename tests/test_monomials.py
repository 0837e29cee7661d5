import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from delsarte import monomials
from delsarte.deformation import FAMILIES, build, family
from delsarte.exactalg import IntMatrix
from delsarte.monomials import (
    dimension_triple,
    format_type,
    g_invariant_types,
    gmax_invariant_types,
    is_g_invariant,
    reduce_form,
    strong_classes,
    unit_orbit,
    weak_classes,
)
from delsarte.zetafermat import lift_types

from conftest import quintic
from golden_data import INVARIANT_TABLES, SUMMARY_TABLE
from oracles import (
    determinant,
    enumerate_basis,
    gmax_types_by_every_multiplier,
    interior_sum_zero,
    invariant_image,
    is_gmax_invariant,
    oracle_reduce,
    strong_classes_by_closure,
    vector_times,
    weak_classes_all_units,
)


# -- enumeration -----------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_basis(4, 3)) == 21
    assert enumerate_basis(2, 3) == [(1, 1, 1, 1)]
    assert enumerate_basis(3, 2) == [(1, 1, 1), (2, 2, 2)]
    assert len(enumerate_basis(4, 3, allow_zero_entries=True)) == 64


def test_enumerate_counts_closed_form():
    # inclusion-exclusion oracle for n = 3: ((d-1)^4 + (d-1)) / d
    for d in (4, 8, 12, 24, 36):
        assert len(enumerate_basis(d, 3)) == ((d - 1) ** 4 + (d - 1)) // d


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_basis(4, 1)


# -- invariance ------------------------------------------------------------------


def test_is_gmax_examples():
    assert is_gmax_invariant((18, 18, 8, 4), (6, 6, 8, 4), 24)
    assert not is_gmax_invariant((2, 2, 6, 6), (2, 2, 2, 2), 8)
    assert is_gmax_invariant((6, 6, 8, 4), (6, 6, 8, 4), 24)


def test_gmax_sets():
    assert gmax_invariant_types(family("family1")) == [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)]
    assert len(gmax_invariant_types(family("family7"))) == 6
    assert len(gmax_invariant_types(family("family9"))) == 18


def test_gmax_sets_match_multiple_oracle():
    # the G-invariant types contain every interior multiple of b
    for key in FAMILIES:
        data = family(key)
        b, d = data.cover_exponents, data.degree
        want = [k for k in g_invariant_types(data) if is_gmax_invariant(k, b, d)]
        assert gmax_invariant_types(data) == want


def test_gmax_counts_distinct_types_not_multipliers():
    # family 7: twelve multipliers t give an interior t*b, but only six
    # distinct types
    data = family("family7")
    d, b = data.degree, data.cover_exponents
    multipliers = [
        t
        for t in range(d)
        if all(0 < (t * bi) % d < d and (t * bi) % d != 0 for bi in b)
    ]
    assert len(multipliers) == 12
    assert len(gmax_invariant_types(data)) == 6


def test_is_g_invariant_examples():
    fam2 = family("family2")
    assert is_g_invariant((2, 4, 3, 7), fam2)
    assert not is_g_invariant((1, 1, 1, 5), fam2)
    fam1 = family("family1")
    assert all(is_g_invariant(k, fam1) for k in enumerate_basis(4, 3))
    for k in ((1, 1, 2), (1, 1, 1, 1, 0)):
        with pytest.raises(ValueError, match="^type length does not match matrix size$"):
            is_g_invariant(k, fam1)


def test_invariant_tables_golden():
    for key, table in INVARIANT_TABLES.items():
        data = family(key)
        d = data.degree
        expected_types = sorted(k for _, k, _ in table)
        assert g_invariant_types(data) == expected_types
        expected_pf = sorted(k for _, k, pf in table if pf)
        assert gmax_invariant_types(data) == expected_pf
        for m, k, _ in table:
            assert tuple(x % d for x in vector_times(m, data.map_matrix)) == k


def _build_or_reject(rows):
    """build(A, first row of A), or a rejected example when A breaks a condition."""
    try:
        return build(IntMatrix(rows), rows[0])
    except ValueError:
        reject()


@st.composite
def _valid_families(draw):
    """Diagonal-dominated coefficient matrices with at most one off-diagonal entry per row."""
    n1 = draw(st.integers(2, 4))
    rows = []
    for i in range(n1):
        row = [0] * n1
        row[i] = draw(st.integers(1, 5))
        j = draw(st.integers(0, n1 - 1))
        if j != i:
            row[j] = draw(st.integers(0, 3))
        rows.append(row)
    # any row of A is a deformation vector (its cover exponents are d*e_i),
    # so build rejects exactly the matrices that break a condition on A
    return _build_or_reject(rows)


@given(_valid_families())
def test_invariant_image_order_is_det(data):
    assert len(invariant_image(data)) == abs(determinant(data.matrix))


@given(_valid_families())
def test_g_invariant_types_match_oracle_image(data):
    assert g_invariant_types(data) == interior_sum_zero(invariant_image(data), data.degree)


@st.composite
def _quintic_families(draw):
    """5-variable families of degree D in x_i, with rows (D - e) x_i + e x_j.

    Every row has degree D, so the weights are equal and, unlike most
    draws of `_valid_families` with 5 variables, many types are interior.
    """
    degree = draw(st.integers(3, 6))
    rows = []
    for i in range(5):
        row = [0] * 5
        e = draw(st.integers(0, 2))
        row[i] = degree - e
        row[draw(st.integers(0, 4).filter(lambda j: j != i))] += e
        rows.append(row)
    return _build_or_reject(rows)


@settings(max_examples=60)
@given(_quintic_families())
def test_g_invariant_types_match_oracle_image_five_variables(data):
    assert g_invariant_types(data) == interior_sum_zero(invariant_image(data), data.degree)


@st.composite
def _fermat_deformations(draw):
    """Degree-D Fermat families of 2-5 variables deformed by any a of entry sum D (then b = a)."""
    degree = draw(st.integers(2, 40))
    n1 = draw(st.integers(2, 5))
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n1 - 1, max_size=n1 - 1)))
    a_vec = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, degree])]
    return build(IntMatrix([[degree * (i == j) for j in range(n1)] for i in range(n1)]), a_vec)


def test_gmax_types_match_every_multiplier_oracle_on_families():
    for key in FAMILIES:
        data = family(key)
        assert gmax_invariant_types(data) == gmax_types_by_every_multiplier(data), key


@given(st.one_of(_fermat_deformations(), _valid_families(), _quintic_families()))
def test_gmax_types_match_every_multiplier_oracle(data):
    assert gmax_invariant_types(data) == gmax_types_by_every_multiplier(data)


def test_invariant_types_hand_out_fresh_lists():
    data = family("family7")
    for types_of in (g_invariant_types, gmax_invariant_types):
        first = types_of(data)
        want = list(first)
        first.append((0, 0, 0, 0))
        first.reverse()
        assert types_of(data) == want
        assert types_of(data) is not types_of(data)


def test_warm_invariant_walk_still_checks_the_limit(monkeypatch):
    data = family("family2")
    types = g_invariant_types(data)  # the kernel and its walk are now cached
    monkeypatch.setattr(monomials, "_SUBGROUP_LIMIT", 1)
    with pytest.raises(ValueError, match="exceeds the enumeration limit 1$"):
        g_invariant_types(data)
    with pytest.raises(ValueError, match="exceeds the enumeration limit 1$"):
        dimension_triple(data)
    monkeypatch.undo()
    assert g_invariant_types(data) == types


def test_invariant_image_order_on_families():
    for key in FAMILIES:
        data = family(key)
        assert len(invariant_image(data)) == abs(determinant(data.matrix))


def test_invariant_witness_roundtrip():
    # for an invariant type, m := k*A/d is an exact integer witness with
    # m*B == k (not just mod d)
    for key in FAMILIES:
        data = family(key)
        d = data.degree
        for k in g_invariant_types(data):
            image = data.matrix.rows
            m = [sum(k[i] * image[i][j] for i in range(4)) for j in range(4)]
            assert all(x % d == 0 for x in m)
            m = tuple(x // d for x in m)
            assert vector_times(m, data.map_matrix) == k


def test_invariant_chain():
    for key in FAMILIES:
        data = family(key)
        gmax = set(gmax_invariant_types(data))
        ginv = set(g_invariant_types(data))
        assert gmax <= ginv
        interior = set(enumerate_basis(data.degree, data.n)) if data.degree <= 36 else None
        if interior is not None:
            assert ginv <= interior


def test_galois_stability_of_invariant_sets():
    import math

    for key in ("family2", "family6", "family7"):
        data = family(key)
        d = data.degree
        ginv = set(g_invariant_types(data))
        for u in range(1, d):
            if math.gcd(u, d) != 1:
                continue
            assert {tuple((u * e) % d for e in k) for k in ginv} == ginv


# -- dimension triples -----------------------------------------------------------


def test_dimension_triples_all_families():
    for key, (_, _, pf, dim_w, c) in SUMMARY_TABLE.items():
        assert dimension_triple(family(key)) == (pf, dim_w, c)


def test_dimension_triple_needs_equal_weights():
    from delsarte.deformation import build
    from delsarte.exactalg import IntMatrix

    # x0^2 + x1^2 + x2^4 + x3^4 has weights (2, 2, 1, 1)
    data = build(IntMatrix([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)]), (1, 1, 0, 0))
    with pytest.raises(ValueError, match="c undefined"):
        dimension_triple(data)


def test_dimension_triple_needs_two_dimensions():
    # x0^2 + x1^2: equal weights, but a curve has no c
    data = build(IntMatrix([(2, 0), (0, 2)]), (1, 1))
    with pytest.raises(ValueError, match="^the dimension triple needs n >= 2, got n = 1$"):
        dimension_triple(data)


# -- equivalence classes -----------------------------------------------------------


def test_strong_classes_family4():
    data = family("family4")
    blocks = strong_classes(g_invariant_types(data), data.cover_exponents, data.degree)
    assert sorted(len(b) for b in blocks) == [3] * 7
    central = [b for b in blocks if (7, 7, 7, 7) in b]
    assert central == [[(7, 7, 7, 7), (14, 14, 14, 14), (21, 21, 21, 21)]]


def test_strong_classes_family4_permutation_structure():
    # one class fixed by the cyclic rotation of the last three coordinates,
    # the other six forming two 3-orbits
    data = family("family4")
    blocks = strong_classes(g_invariant_types(data), data.cover_exponents, data.degree)
    frozen = [frozenset(b) for b in blocks]

    def rotate(block):
        return frozenset((k[0], k[3], k[1], k[2]) for k in block)

    fixed = [b for b in frozen if rotate(b) == b]
    assert len(fixed) == 1
    moved = [b for b in frozen if rotate(b) != b]
    orbits = set()
    for b in moved:
        orbit = frozenset({b, rotate(b), rotate(rotate(b))})
        assert len(orbit) == 3
        orbits.add(orbit)
    assert len(orbits) == 2


def test_strong_classes_family5():
    data = family("family5")
    blocks = strong_classes(g_invariant_types(data), data.cover_exponents, data.degree)
    assert sorted(len(b) for b in blocks) == [3, 4, 4, 4, 4]


def test_strong_classes_singleton():
    assert strong_classes([(2, 2, 2, 2)], (2, 2, 2, 2), 8) == [[(2, 2, 2, 2)]]


def test_strong_classes_family1_regression():
    data = family("family1")
    blocks = strong_classes(g_invariant_types(data), data.cover_exponents, data.degree)
    assert sorted(len(b) for b in blocks) == [1] * 18 + [3]


def test_strong_classes_match_closure_oracle_on_families():
    for key in FAMILIES:
        data = family(key)
        b, d = data.cover_exponents, data.degree
        for types in (g_invariant_types(data), gmax_invariant_types(data)):
            assert strong_classes(types, b, d) == strong_classes_by_closure(types, b, d)


@settings(max_examples=60)
@given(st.one_of(_valid_families(), _quintic_families()))
def test_strong_classes_match_closure_oracle_on_generated_families(data):
    types = g_invariant_types(data)
    b, d = data.cover_exponents, data.degree
    assert strong_classes(types, b, d) == strong_classes_by_closure(types, b, d)


@settings(max_examples=60)
@given(_fermat_deformations())
def test_strong_classes_match_closure_oracle_on_multiples_of_b(data):
    # the interior multiples of b: one <b> cycle, cut at every multiple with a zero entry
    types = gmax_invariant_types(data)
    b, d = data.cover_exponents, data.degree
    assert strong_classes(types, b, d) == strong_classes_by_closure(types, b, d)


@settings(max_examples=150)
@given(st.sampled_from(["family1", "family2", "family4", "family5", "family7"]), st.data())
def test_strong_classes_match_closure_oracle_on_subsets(key, draw):
    # arbitrary subsets break the <b> cycles into arcs anywhere
    data = family(key)
    b, d = data.cover_exponents, data.degree
    pool = enumerate_basis(d, data.n) if d <= 8 else g_invariant_types(data)
    types = sorted(draw.draw(st.sets(st.sampled_from(pool), min_size=1)))
    assert strong_classes(types, b, d) == strong_classes_by_closure(types, b, d)


def test_strong_classes_on_one_whole_cycle_and_its_arcs():
    b, d = (2, 2, 2, 2), 8
    cycle = [(1, 1, 1, 5), (3, 3, 3, 7), (5, 5, 5, 1), (7, 7, 7, 3)]
    # the whole coset of <b>: the walk from the least type comes back to it
    assert strong_classes(cycle[::-1], b, d) == [sorted(cycle)] == strong_classes_by_closure(cycle, b, d)
    # without (3,3,3,7) the arc runs from (5,5,5,1) through (7,7,7,3) back to the least type
    arc = [cycle[0], cycle[2], cycle[3]]
    assert strong_classes(arc, b, d) == [arc] == strong_classes_by_closure(arc, b, d)
    # two opposite gaps leave two single types
    apart = [cycle[0], cycle[2]]
    assert strong_classes(apart, b, d) == [[cycle[0]], [cycle[2]]] == strong_classes_by_closure(apart, b, d)


def test_weak_classes_family5():
    data = family("family5")
    blocks = weak_classes(g_invariant_types(data), data.cover_exponents, data.degree)
    assert sorted(len(b) for b in blocks) == [3, 16]


def test_weak_classes_family1_regression():
    data = family("family1")
    blocks = weak_classes(g_invariant_types(data), data.cover_exponents, data.degree)
    assert sorted(len(b) for b in blocks) == [2] * 9 + [3]


def test_weak_classes_multiples_of_b():
    data = family("family4")
    blocks = weak_classes(gmax_invariant_types(data), data.cover_exponents, data.degree)
    assert len(blocks) == 1


def test_weak_refines_strong():
    for key in ("family4", "family5", "family7"):
        data = family(key)
        types = g_invariant_types(data)
        strong = strong_classes(types, data.cover_exponents, data.degree)
        weak = weak_classes(types, data.cover_exponents, data.degree)
        weak_sets = [set(b) for b in weak]
        for block in strong:
            assert sum(set(block) <= w for w in weak_sets) == 1


@settings(max_examples=150)
@given(st.sampled_from(["family1", "family2", "family4", "family5", "family7"]), st.data())
def test_weak_classes_match_all_units_oracle_on_open_subsets(key, draw):
    # subsets not closed under units: each unit orbit meets the set only
    # in part, and those members must still land in one block
    data = family(key)
    b, d = data.cover_exponents, data.degree
    pool = enumerate_basis(d, data.n) if d <= 8 else g_invariant_types(data)
    types = sorted(draw.draw(st.sets(st.sampled_from(pool), min_size=1)))
    units = [u for u in range(1, d) if math.gcd(u, d) == 1]
    assume(any(tuple(u * x % d for x in k) not in types for k in types for u in units))
    assert weak_classes(types, b, d) == weak_classes_all_units(types, b, d)


@pytest.mark.parametrize("name", ["family10", "fermat", "f1l4", "l2f3", "l2l3", "l5"])
def test_weak_classes_match_all_units_oracle_on_invariant_types(name):
    # family10 has d = 108; the quintic pencils reach d = 1025
    data = family(name) if name in FAMILIES else quintic(name)
    types, b, d = g_invariant_types(data), data.cover_exponents, data.degree
    assert weak_classes(types, b, d) == weak_classes_all_units(types, b, d), name


# -- reduction --------------------------------------------------------------------


def test_reduce_form_examples_from_oracle():
    # frozen values computed with oracle_reduce
    assert oracle_reduce((5, 1, 1, 1), 4) == (Fraction(1, 4), (1, 1, 1, 1))
    r = reduce_form((5, 1, 1, 1), 4)
    assert (r.coefficient, r.basis) == (Fraction(1, 4), (1, 1, 1, 1))

    r = reduce_form((4, 2, 1, 1), 4)
    assert r.is_zero and oracle_reduce((4, 2, 1, 1), 4) == (Fraction(0), None)

    r = reduce_form((1, 2, 2, 3), 4)
    assert (r.coefficient, r.basis) == (Fraction(1), (1, 2, 2, 3))


def test_reduce_form_validation():
    with pytest.raises(ValueError):
        reduce_form((0, 1, 1, 2), 4)
    with pytest.raises(ValueError):
        reduce_form((1, 1, 1, 2), 4)


def test_reduce_form_refuses_a_non_integer_entry():
    # int() would truncate 1.5, and (1.5, 2, 3, 2) would reduce to the basis (1, 2, 3, 2)
    with pytest.raises(ValueError, match="exponent vector entry 0 is 1.5, not an integer"):
        reduce_form((1.5, 2, 3, 2), 4)
    with pytest.raises(ValueError, match="exponent vector entry 3 is True, not an integer"):
        reduce_form((1, 2, 4, True), 4)


# no case can hang without the check: unchecked, d = -4 adds 4 to an entry at
# every step, so its vector's sum 9 is no multiple of -4 and the loop never starts
@pytest.mark.parametrize("d, exponents", [(-4, (5, 1, 1, 2)), (0, (5, 1, 1, 1)), (True, (5, 1, 1, 1)), (4.0, (5, 1, 1, 1))])
def test_reduce_form_refuses_a_bad_degree(d, exponents):
    with pytest.raises(ValueError, match=re.escape(f"d is {d!r}, not an integer >= 1")):
        reduce_form(exponents, d)


# unchecked, d = 0 gave an empty orbit or a ZeroDivisionError, and d = -4 a class list
_MODULUS_CALLS = {
    "unit_orbit": ("d", lambda d: unit_orbit((1, 2, 3), d)),
    "strong_classes": ("d", lambda d: strong_classes([(1, 3)], (1, 1), d)),
    "weak_classes": ("d", lambda d: weak_classes([(1, 3)], (1, 1), d)),
    "lift_types_from": ("d_from", lambda d: lift_types([(1, 3)], d, 4)),
    "lift_types_to": ("d_to", lambda d: lift_types([(1, 3)], 2, d)),
}


@pytest.mark.parametrize("d", [0, -4, True, 4.0])
@pytest.mark.parametrize("call", sorted(_MODULUS_CALLS))
def test_a_modulus_below_one_is_refused(call, d):
    name, run = _MODULUS_CALLS[call]
    with pytest.raises(ValueError, match=re.escape(f"{name} is {d!r}, not an integer >= 1")):
        run(d)


def test_reduce_form_at_degree_one_is_the_zero_class():
    for vec in ((1, 1), (5, 1, 1, 1), (2, 3)):
        assert reduce_form(vec, 1) == (Fraction(0), None) == oracle_reduce(vec, 1)


def test_reduce_form_vs_oracle_random():
    rng = random.Random(501)
    for d in (3, 4, 5):
        done = 0
        while done < 50:
            head = [rng.randint(1, 3 * d) for _ in range(3)]
            last = (-sum(head)) % d
            choices = [last + j * d for j in range(1, 4) if last + j * d >= 1] or [last + d]
            vec = tuple(head + [rng.choice(choices)])
            if done % 5 == 0:
                # force a zero-class case
                vec = (d * rng.randint(1, 3),) + vec[1:]
                if sum(vec) % d != 0:
                    vec = vec[:3] + ((-sum(vec[:3])) % d + d,)
            if sum(vec) % d != 0 or any(e < 1 for e in vec):
                continue
            got = reduce_form(vec, d)
            want = oracle_reduce(vec, d)
            assert (got.coefficient, got.basis) == want, (vec, d)
            done += 1


@st.composite
def _forms(draw):
    """(entries, d): 3 to 6 entries >= 1 summing to 0 mod d, d up to 12.

    An entry that is a multiple of d reduces to d and kills the class: half
    the draws set one such entry, and the last entry may be one.  Entries
    up to 3d need several reduction steps.
    """
    d = draw(st.integers(2, 12))
    n = draw(st.integers(3, 6))
    entry = st.integers(1, 3 * d).filter(lambda e: e % d)
    head = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        head[draw(st.integers(0, n - 2))] = d * draw(st.integers(1, 3))
    last = (-sum(head)) % d + d * draw(st.integers(0, 2))
    return tuple(head) + (last or d,), d


@settings(max_examples=300)
@given(_forms())
def test_reduce_form_matches_oracle_up_to_d12(case):
    vec, d = case
    got = reduce_form(vec, d)
    assert (got.coefficient, got.basis) == oracle_reduce(vec, d)
    if any(e % d == 0 for e in vec):
        assert got.is_zero


def test_format_parse_roundtrip():
    text = format_type((18, 18, 8, 4))
    assert text == "18,18,8,4"
    assert tuple(int(part) for part in text.split(",")) == (18, 18, 8, 4)
