"""Exact integer linear algebra: determinants, adjugates, scaled inverses, kernels mod N."""
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


def det_adjugate(m: IntMatrix) -> tuple[int, IntMatrix | None]:
    """(det M, adj M) from one fraction-free Gauss-Jordan pass on [M | I].

    Step k clears pivot column k on every other row, dividing exactly by
    the previous pivot (Bareiss 1968).  With the row swaps this is the pass
    on [PM | P] for a permutation P, and it ends at
    [det(PM) * I | det(PM) * M^-1]; det(PM) = sign * det M, so the right
    block is sign * adj M.  adj M is None when det M = 0; otherwise
    adj(M) * M = M * adj(M) = det(M) * I.
    """
    n = m.n
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        pivot, top = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], top)]
        prev = pivot
    return sign * prev, IntMatrix(tuple(tuple(sign * x for x in row[n:]) for row in a))


def determinant(m: IntMatrix) -> int:
    """Exact determinant, read off the fraction-free Gauss-Jordan pass."""
    return det_adjugate(m)[0]


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
                if f:
                    a[i] = [x - f * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - f * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, c):
                f = a[t][j] // pivot
                if f:
                    for row in a[t:]:  # rows above t are zero in column t
                        row[j] -= f * row[t]
            rest = [(abs(a[i][t]), i, t) for i in range(t + 1, m) if a[i][t]]
            rest += [(abs(a[t][j]), t, j) for j in range(t + 1, c) if a[t][j]]
            if not rest:
                break
            move(t, *min(rest)[1:])
        diag.append(abs(a[t][t]))
    return u, diag


def kernel_mod(rows, n: int) -> tuple[list[list[int]], list[int]]:
    """U and steps with {k : k*M == 0 (mod n)} = {y*U mod n : steps[i] | y_i}.

    M is the m x c matrix with the given rows.  From U*M*V = diag(e_i)
    (`diagonalize`, e_i = 0 past the rank) the congruence reads
    y_i * e_i == 0 (mod n) for y = k*U^-1, so y_i runs over the multiples
    of steps[i] = n/gcd(e_i, n), and distinct y mod n give distinct k.
    """
    u, diag = diagonalize(rows)
    diag += [0] * (len(rows) - len(diag))
    return u, [n // gcd(e, n) for e in diag]


def minimal_map_matrix(m: IntMatrix) -> tuple[int, IntMatrix]:
    """Least positive d with d*M^-1 integral, together with B = d*M^-1.

    d = |det M| / gcd(|det M|, content of adj M), with det and adj from one
    `det_adjugate` pass; this avoids rational arithmetic entirely.  B
    satisfies B*M = M*B = d*I exactly.
    """
    det, adj = det_adjugate(m)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
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
