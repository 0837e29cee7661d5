"""Exact algorithms written once: integer matrices and dense polynomials.

One diagonalization U*M*V = diag(e_i) gives d*M^-1 and kernels mod N.
Dense polynomials are coefficient lists in ascending order over any ring
whose zero is falsy: `poly_mul` convolves, `poly_divmod` divides by a
monic polynomial, and `power` is square-and-multiply for any product.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd, lcm
from operator import mul


def int_entries(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of ints; an entry of another type (True, 4.7, "3") raises a ValueError naming it."""
    values = tuple(values)
    for i, x in enumerate(values):
        if type(x) is not int:
            raise ValueError(f"{what} entry {i} is {x!r}, not an integer")
    return values


def positive_int(value, what: str) -> int:
    """`value` if it is an int of at least 1; anything else raises a ValueError naming it."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{what} is {value!r}, not an integer >= 1")
    return value


class IntMatrix(namedtuple("IntMatrix", "rows n")):
    """Square n x n matrix, n >= 2, of arbitrary-precision integers; all arithmetic is exact."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(int_entries(row, f"matrix row {i}") for i, row in enumerate(rows))
        n = len(rows)
        if n < 2:
            raise ValueError("matrix dimension must be at least 2")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        return super().__new__(cls, rows, n)

    def __getnewargs__(self):  # copy and pickle rebuild from the rows alone
        return (self.rows,)


def diagonalize(rows) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """U, e_1..e_r > 0 and V with U*M*V = diag(e_1..e_r, 0, ...).

    M is any m x c integer matrix given by its rows, U and V are
    unimodular and r = rank M.  Each pivot starts at the least nonzero
    entry left, and row and column operations reduce it to the least
    nonzero entry of its row and column until both are clear (Cohen, *A
    Course in Computational Algebraic Number Theory*, 2.4); unlike the
    Smith form, the e_i need not divide each other.  V rides below M as
    c extra rows, so the column operations update it too.
    """
    m, c = len(rows), len(rows[0]) if rows else 0
    a = [list(row) for row in rows] + [[0] * i + [1] + [0] * (c - 1 - i) for i in range(c)]
    u, diag = _eliminate(a, m, c)
    return u, diag, a[m:]


def _eliminate(a, m: int, c: int) -> tuple[list[list[int]], list[int]]:
    """Diagonalize the first m rows of the working array a in place.

    Returns U and the e_i.  Rows of a below the m-th take every column
    operation, so identity rows there end as V.
    """
    u = [[0] * i + [1] + [0] * (m - 1 - i) for i in range(m)]
    diag = []
    for t in range(min(m, c)):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, c) if a[i][j]]
        while nonzero:
            _, i, j = min(nonzero)
            if i != t:
                a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
            if j != t:
                for row in a[t:]:  # rows of M above t are zero in columns t and j
                    row[t], row[j] = row[j], row[t]
            top, pivot = a[t], a[t][t]
            for i in range(t + 1, m):
                f = a[i][t] // pivot
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], top)]
                    u[i] = [x - f * y for x, y in zip(u[i], u[t])]
            fs = [x // pivot for x in top[t + 1 :]]
            if any(fs):
                for row in a[t:]:
                    if x := row[t]:
                        row[t + 1 :] = [y - f * x for y, f in zip(row[t + 1 :], fs)]
            nonzero = [(abs(a[i][t]), i, t) for i in range(t + 1, m) if a[i][t]]
            nonzero += [(abs(x), t, j) for j, x in enumerate(top[t + 1 :], t + 1) if x]
        if not a[t][t]:
            break
        if a[t][t] < 0:
            a[t], u[t] = [-x for x in a[t]], [-x for x in u[t]]
        diag.append(a[t][t])
    return u, diag


def kernel_mod(rows, n: int) -> tuple[list[list[int]], list[int]]:
    """U and steps with {k : k*M == 0 (mod n)} = {y*U mod n : steps[i] | y_i}.

    M is the m x c matrix with the given rows.  From U*M*V = diag(e_i)
    (`diagonalize`, e_i = 0 past the rank) the congruence reads
    y_i * e_i == 0 (mod n) for y = k*U^-1, so y_i runs over the multiples
    of steps[i] = n/gcd(e_i, n), and distinct y mod n give distinct k.
    V is not needed, so the elimination runs on M alone.
    """
    m, c = len(rows), len(rows[0]) if rows else 0
    u, diag = _eliminate([list(row) for row in rows], m, c)
    diag += [0] * (m - len(diag))
    return u, [n // gcd(e, n) for e in diag]


def kernel_elements(u, steps, n: int):
    """Every k = y*U mod n with steps[i] | y_i, once each, as tuples.

    One block per choice of multiples of all rows but the longest (least
    step) adds that row's multiples, a coordinate at a time; the blocks
    are streamed, so the kernel is never held whole.
    """
    *head, (last, step) = sorted(zip(u, steps), key=lambda gen: -gen[1])
    columns = [[y * x % n for y in range(0, n, step)] for x in last]
    multiples = [[[y * x for x in row] for y in range(0, n, step)] for row, step in head]
    zero = [0] * len(last)
    for combo in itertools.product(*multiples):
        k = map(sum, zip(zero, *combo))
        yield from zip(*[[(x + y) % n for y in col] for x, col in zip(k, columns)])


def minimal_map_matrix(m: IntMatrix) -> tuple[int, IntMatrix]:
    """Least positive d with d*M^-1 integral, together with B = d*M^-1.

    With U*M*V = diag(e_i) from `diagonalize`, M^-1 = V * diag(1/e_i) * U
    and U, V are unimodular, so d = lcm(e_i) and B = V * diag(d/e_i) * U;
    no rational arithmetic.  B satisfies B*M = M*B = d*I exactly.
    """
    u, diag, v = diagonalize(m.rows)
    if len(diag) < m.n:
        raise ValueError("matrix is singular")
    d = lcm(*diag)
    # the columns of diag(d/e_i)*U; B is built as plain rows and wrapped once
    right = tuple(zip(*[[d // e * x for x in row] for e, row in zip(diag, u)]))
    b = IntMatrix([[sum(map(mul, row, col)) for col in right] for row in v])
    columns = tuple(zip(*m.rows))
    assert all(
        sum(map(mul, row, col)) == (d if i == j else 0)
        for i, row in enumerate(b.rows)
        for j, col in enumerate(columns)
    ), "B*M is not d*I"
    return d, b


def poly_mul(a, b) -> list:
    """The product of two dense polynomials; zero coefficients of either are skipped."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    return out


def poly_divmod(num, den) -> tuple[list, list]:
    """Quotient and remainder of num by the monic den: num = den*quot + rem, len(rem) = deg den."""
    k = len(den) - 1
    rem = list(num) + [0] * (k - len(num))
    quot = [0] * (len(rem) - k)
    for i in range(len(rem) - 1, k - 1, -1):
        if c := rem[i]:
            quot[i - k] = c
            for j, y in enumerate(den, i - k):
                rem[j] -= c * y
    return quot, rem[:k]


def power(x, e: int, times=mul):
    """x^e for e >= 1 under the product `times`, by square-and-multiply.

    bit_length(e) - 1 squarings and popcount(e) - 1 other products.
    """
    result = None
    while True:
        if e & 1:
            result = x if result is None else times(result, x)
        e >>= 1
        if not e:
            return result
        x = times(x, x)
