"""Exact integer linear algebra: determinants, adjugates, scaled inverses."""
from __future__ import annotations

from math import gcd


class SingularMatrixError(ValueError):
    """Raised when an operation needs an invertible matrix and det = 0."""


class IntMatrix:
    """Square matrix with arbitrary-precision integer entries.

    All arithmetic is exact.  Instances are treated as immutable; none of
    the methods mutate `rows`.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if n < 2:
            raise ValueError("matrix dimension must be at least 2")
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self.rows = rows
        self.n = n

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, entries) -> IntMatrix:
        entries = tuple(entries)
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))})"

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        return IntMatrix(
            tuple(
                tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def scaled(self, c: int) -> IntMatrix:
        return IntMatrix(tuple(tuple(c * x for x in row) for row in self.rows))

    def row_times(self, v) -> tuple[int, ...]:
        """Row vector times matrix: (v M)_j = sum_i v_i M[i][j]."""
        n = self.n
        v = tuple(v)
        if len(v) != n:
            raise ValueError("dimension mismatch")
        return tuple(sum(v[i] * self.rows[i][j] for i in range(n)) for j in range(n))

    def times_col(self, v) -> tuple[int, ...]:
        """Matrix times column vector: (M v)_i = sum_j M[i][j] v_j."""
        n = self.n
        v = tuple(v)
        if len(v) != n:
            raise ValueError("dimension mismatch")
        return tuple(sum(self.rows[i][j] * v[j] for j in range(n)) for i in range(n))


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every division below is exact over the integers; intermediate entries
    are themselves determinants of leading minors.
    """
    n = m.n
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _minor(m: IntMatrix, drop_row: int, drop_col: int) -> int:
    sub = [
        [m.rows[i][j] for j in range(m.n) if j != drop_col]
        for i in range(m.n)
        if i != drop_row
    ]
    if len(sub) == 1:
        return sub[0][0]
    return determinant(IntMatrix(sub))


def adjugate(m: IntMatrix) -> IntMatrix:
    """Adjugate matrix: adj(M)[i][j] = (-1)^(i+j) * minor(M, j, i).

    Satisfies adj(M) * M = M * adj(M) = det(M) * I.
    """
    n = m.n
    return IntMatrix(
        tuple(
            tuple((-1) ** (i + j) * _minor(m, j, i) for j in range(n))
            for i in range(n)
        )
    )


def diagonalize(rows) -> tuple[list[list[int]], list[int]]:
    """Unimodular U and e_1..e_r > 0 with U*M*V = diag(e_1..e_r, 0, ...).

    M is any m x c integer matrix given by its rows, V is unimodular and
    not returned, and r = rank M.  Row and column operations reduce the
    pivot to the least nonzero entry of its row and column until both are
    clear (Cohen, *A Course in Computational Algebraic Number Theory*,
    2.4); unlike the Smith form, the e_i need not divide each other.
    """
    a = [list(row) for row in rows]
    m, c = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def move(t, i, j):
        a[t], a[i] = a[i], a[t]
        u[t], u[i] = u[i], u[t]
        for row in a:
            row[t], row[j] = row[j], row[t]

    diag = []
    for t in range(min(m, c)):
        nonzero = [(i, j) for i in range(t, m) for j in range(t, c) if a[i][j]]
        if not nonzero:
            break
        move(t, *nonzero[0])
        while True:
            pivot = a[t][t]
            for i in range(t + 1, m):
                f = a[i][t] // pivot
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                u[i] = [x - f * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, c):
                f = a[t][j] // pivot
                for row in a:
                    row[j] -= f * row[t]
            rest = [(abs(a[i][t]), i, t) for i in range(t + 1, m) if a[i][t]]
            rest += [(abs(a[t][j]), t, j) for j in range(t + 1, c) if a[t][j]]
            if not rest:
                break
            move(t, *min(rest)[1:])
        diag.append(abs(a[t][t]))
    return u, diag


def minimal_map_matrix(m: IntMatrix) -> tuple[int, IntMatrix]:
    """Least positive d with d*M^-1 integral, together with B = d*M^-1.

    d = |det M| / gcd(|det M|, content of adj M); this avoids rational
    arithmetic entirely.  B satisfies B*M = M*B = d*I exactly.
    """
    det = determinant(m)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    adj = adjugate(m)
    content = 0
    for row in adj.rows:
        for x in row:
            content = gcd(content, x)
    g = gcd(abs(det), content)
    d = abs(det) // g
    b_rows = []
    for row in adj.rows:
        b_row = []
        for x in row:
            num = x * d
            if num % det != 0:
                raise AssertionError("inexact division while scaling adjugate")
            b_row.append(num // det)
        b_rows.append(tuple(b_row))
    b = IntMatrix(b_rows)
    assert b * m == IntMatrix.identity(m.n).scaled(d)
    return d, b
