import itertools
import random
from functools import reduce
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delsarte.exactalg import (
    IntMatrix,
    diagonalize,
    kernel_elements,
    kernel_mod,
    minimal_map_matrix,
    poly_divmod,
    poly_mul,
    power,
)
from delsarte.cyclotomic import CyclotomicElement
from delsarte.pointcount import FiniteField
from delsarte.symbolic import MultiPoly

from oracles import (
    adjugate,
    determinant,
    diagonal_matrix,
    laplace_determinant,
    matrix_product,
    scaled,
)

FAMILY2 = IntMatrix([(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 3, 1), (0, 0, 1, 3)])
FAMILY7 = IntMatrix([(3, 1, 0, 0), (1, 3, 0, 0), (0, 0, 3, 1), (0, 0, 0, 4)])


def test_determinant_identity():
    assert determinant(diagonal_matrix((1, 1, 1, 1))) == 1


def test_determinant_diagonal():
    assert determinant(diagonal_matrix((4, 4, 4, 4))) == 256


def test_determinant_family2_vs_cofactor_oracle():
    assert determinant(FAMILY2) == laplace_determinant([list(r) for r in FAMILY2.rows])
    assert determinant(FAMILY2) == 128


def test_determinant_random_vs_oracle_and_multiplicativity():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        k = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert determinant(m) == laplace_determinant([list(r) for r in m.rows])
        assert determinant(matrix_product(m, k)) == determinant(m) * determinant(k)


@st.composite
def _square_matrices_with_zeros(draw):
    """n <= 6 with mostly zero entries, often a zero leading pivot."""
    n = draw(st.integers(2, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[0][0] = 0
    return IntMatrix(rows)


@settings(max_examples=150)
@given(_square_matrices_with_zeros())
def test_determinant_and_map_match_cofactor_oracle(m):
    det = determinant(m)
    assert det == laplace_determinant([list(r) for r in m.rows])
    if det:
        # B = d*M^-1 and adj M = det*M^-1, so B*det == adj(M)*d
        d, b = minimal_map_matrix(m)
        assert scaled(b, det) == scaled(adjugate(m), d)
    else:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            minimal_map_matrix(m)


def test_determinant_sign_past_zero_pivots():
    # zero leading entries: the sign comes from the swaps that bring each pivot into place
    assert determinant(IntMatrix([[0, 0, 1], [0, 2, 0], [3, 0, 0]])) == -6
    assert determinant(IntMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 1]])) == 6


def test_minimal_map_family2():
    d, b = minimal_map_matrix(FAMILY2)
    assert d == 8
    assert b == IntMatrix([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, -1), (0, 0, -1, 3)])


def test_minimal_map_scalar_matrix():
    d, b = minimal_map_matrix(diagonal_matrix((4, 4, 4, 4)))
    assert d == 4
    assert b == diagonal_matrix((1, 1, 1, 1))


def test_minimal_map_family7_vs_block_oracle():
    # 2x2 block inversion oracle: for [[a, b], [c, e]] the adjugate is
    # [[e, -b], [-c, a]] over the block determinant.
    d, b = minimal_map_matrix(FAMILY7)
    assert d == 24
    top = [[3, -1], [-1, 3]]  # adj of [[3,1],[1,3]], det 8 -> scale 24/8 = 3
    bottom = [[4, -1], [0, 3]]  # adj of [[3,1],[0,4]], det 12 -> scale 2
    expected = IntMatrix(
        [
            (3 * top[0][0], 3 * top[0][1], 0, 0),
            (3 * top[1][0], 3 * top[1][1], 0, 0),
            (0, 0, 2 * bottom[0][0], 2 * bottom[0][1]),
            (0, 0, 2 * bottom[1][0], 2 * bottom[1][1]),
        ]
    )
    assert b == expected
    assert b == IntMatrix([(9, -3, 0, 0), (-3, 9, 0, 0), (0, 0, 8, -2), (0, 0, 0, 6)])


def test_minimal_map_singular():
    with pytest.raises(ValueError, match="^matrix is singular$"):
        minimal_map_matrix(IntMatrix([[1, 1], [1, 1]]))


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 5), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_minimal_map_properties_random(rows):
    m = IntMatrix(rows)
    det = determinant(m)
    assume(det != 0)
    d, b = minimal_map_matrix(m)
    scalar = diagonal_matrix((d,) * m.n)
    assert d >= 1 and abs(det) % d == 0
    assert matrix_product(b, m) == scalar and matrix_product(m, b) == scalar
    # minimality: d/p * M^-1 = B/p is integral for no prime p | d
    assert gcd(d, *(x for row in b.rows for x in row)) == 1


def test_diagonalize_examples():
    # the Fermat quartic's exponent rows with the column of ones: the
    # product of the e_i is the gcd of the maximal minors
    fermat = [[4 if j == i else 0 for j in range(4)] + [1] for i in range(4)]
    assert diagonalize(fermat)[1] == [1, 4, 4, 4]
    assert diagonalize([[4, 0, 1], [0, 4, 1]])[1] == [1, 4]
    u, diag, _ = diagonalize([[2, 4], [3, 6]])
    assert diag == [1] and abs(laplace_determinant(u)) == 1
    assert diagonalize([[0, 0]]) == ([[1]], [], [[1, 0], [0, 1]])


@st.composite
def _small_matrices(draw):
    m, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(st.integers(-6, 6), min_size=c, max_size=c)
    return draw(st.lists(row, min_size=m, max_size=m)), draw(st.integers(1, 6))


@settings(max_examples=150)
@given(_small_matrices())
def test_diagonalize_kernel_mod_n_matches_brute_force(case):
    rows, n = case
    m, c = len(rows), len(rows[0])
    u, diag, v = diagonalize(rows)
    assert abs(laplace_determinant(u)) == 1 and abs(laplace_determinant(v)) == 1
    assert all(e > 0 for e in diag) and len(diag) <= min(m, c)
    # U*M*V == diag(e, 0...)
    umv = [
        [sum(u[i][k] * rows[k][l] * v[l][j] for k in range(m) for l in range(c)) for j in range(c)]
        for i in range(m)
    ]
    assert umv == [[diag[i] if i == j and i < len(diag) else 0 for j in range(c)] for i in range(m)]
    if m == c:
        assert (prod(diag) if len(diag) == m else 0) == abs(laplace_determinant(rows))
    # K = {y*U}: y_i over the multiples of n/gcd(e_i, n), e_i = 0 past the rank
    e = diag + [0] * (m - len(diag))
    assert kernel_mod(rows, n) == (u, [n // gcd(ei, n) for ei in e])
    ys = list(itertools.product(*[range(0, n, n // gcd(ei, n)) for ei in e]))
    kernel = {tuple(sum(y[i] * u[i][j] for i in range(m)) % n for j in range(m)) for y in ys}
    assert len(kernel) == len(ys)
    brute = {
        k
        for k in itertools.product(range(n), repeat=m)
        if all(sum(k[i] * rows[i][j] for i in range(m)) % n == 0 for j in range(c))
    }
    assert kernel == brute
    assert len(kernel) == prod(gcd(ei, n) for ei in e)
    # the streamed walk gives each kernel point exactly once
    walked = list(kernel_elements(*kernel_mod(rows, n), n))
    assert set(walked) == brute and len(walked) == len(kernel)


# -- dense polynomials and powers ---------------------------------------------------


def _convolve(a, b):
    """The product of two coefficient lists, one output coefficient at a time."""
    return [sum(a[j] * b[i - j] for j in range(len(a)) if 0 <= i - j < len(b)) for i in range(len(a) + len(b) - 1)]


@settings(max_examples=200)
@given(
    st.lists(st.one_of(st.integers(-50, 50), st.fractions(-5, 5, max_denominator=7)), max_size=12),
    st.lists(st.integers(-9, 9), max_size=6),
)
def test_poly_divmod_rebuilds_the_dividend(num, low):
    den = low + [1]
    quot, rem = poly_divmod(num, den)
    assert len(rem) == len(den) - 1
    assert len(quot) == max(len(num) - len(low), 0)
    product = poly_mul(den, quot) if quot else []
    assert product == (_convolve(den, quot) if quot else [])
    size = max(len(num), len(product), len(rem))

    def padded(v):
        return list(v) + [0] * (size - len(v))

    assert [x + y for x, y in zip(padded(product), padded(rem))] == padded(num)


@st.composite
def _cyclotomic(draw):
    n = draw(st.sampled_from((1, 2, 3, 4, 8, 12)))
    return CyclotomicElement(n, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))


# F_q for q = p^k, k >= 2, whose modulus f reduces F_p[x]/(f)
EXTENSIONS = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2))


@settings(max_examples=120)
@given(st.integers(-50, 50), st.integers(1, 40), st.data())
def test_power_is_the_repeated_product(x, e, data):
    assert power(x, e) == reduce(mul, [x] * e) == x**e
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
    poly = MultiPoly(("u", "v"), data.draw(st.dictionaries(exponents, st.integers(-5, 5), max_size=4)))
    m = 1 + e % 6
    assert power(poly, m) == reduce(mul, [poly] * m) == poly**m
    elem = data.draw(_cyclotomic())
    assert power(elem, e) == reduce(mul, [elem] * e) == elem**e
    assert elem**0 == 1 and poly**0 == MultiPoly.constant(1)
    # F_p[x]/(f): the residue with the base-p digits of a nonzero code c
    p, k = data.draw(st.sampled_from(EXTENSIONS))
    field = FiniteField(p, k)
    c = data.draw(st.integers(1, field.q - 1))

    def times(u, v):
        return [y % p for y in poly_divmod(poly_mul(u, v), field.modulus)[1]]

    a = [c // p**i % p for i in range(k)]
    got = power(a, e, times)
    assert got == reduce(times, [a] * e)
    # c = g^log(c), so c^e is g^(e*log(c)) in the field's tables
    assert sum(d * p**i for i, d in enumerate(got)) == field.exp[field.log[c] * e % (field.q - 1)]
