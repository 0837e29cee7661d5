"""Deformation data for Delsarte hypersurfaces and their Fermat covers.

A family is encoded by a coefficient matrix A (rows = exponent vectors of
the monomials) and a deformation vector a.  From these we derive the cover
degree d, the map matrix B = d*A^-1, the weight vector w = B*(1,...,1)^T
and the cover deformation vector b = a*B, so the family X_lambda in P(w)
is dominated by the deformed Fermat hypersurface of degree d with extra
monomial prod y_i^(b_i).
"""
from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import lcm

from .exactalg import IntMatrix, int_entries, minimal_map_matrix


class DeformationData(namedtuple("DeformationData", "matrix deformation degree map_matrix weights cover_exponents")):
    """The tuple (A, a, d, B, w, b) describing one family and its cover."""

    __slots__ = ()

    @property
    def n(self) -> int:
        """Ambient projective dimension (matrix size minus one)."""
        return self.matrix.n - 1


def build(a_matrix: IntMatrix, deformation) -> DeformationData:
    """Assemble full deformation data from (A, a), checking every invariant.

    The data depend on the values of A and a alone, so one process derives
    them once per distinct input and hands every caller the same immutable
    instance; invalid input raises on every call.
    """
    # before the memo, where (A, (1.0, ...)) and (A, (True, ...)) would hit the key (A, (1, ...))
    return _build(a_matrix, int_entries(deformation, "deformation vector"))


@cache
def _build(a_matrix: IntMatrix, a_vec: tuple) -> DeformationData:
    # every violated condition on A is reported at once
    problems, n = [], a_matrix.n
    if any(x < 0 for row in a_matrix.rows for x in row):
        problems.append("matrix has a negative entry")
    try:
        d, b_matrix = minimal_map_matrix(a_matrix)
        weights = tuple(map(sum, b_matrix.rows))
    except ValueError:  # the only refusal of minimal_map_matrix: A is singular
        weights = None
        problems.append("matrix is singular")
    for j in range(n):
        if all(a_matrix.rows[i][j] != 0 for i in range(n)):
            problems.append(f"column {j} has no zero entry")
    if weights is not None and any(w <= 0 for w in weights):
        problems.append("inverse weight vector has a nonpositive entry")
    if problems:
        raise ValueError("; ".join(problems))
    if len(a_vec) != n:
        raise ValueError("deformation vector has wrong length")
    if any(x < 0 for x in a_vec):
        raise ValueError("deformation vector has a negative entry")
    if sum(ai * wi for ai, wi in zip(a_vec, weights)) != d:
        raise ValueError("not a deformation vector: weighted degree differs from d")
    b_vec = tuple(sum(x * y for x, y in zip(a_vec, col)) for col in zip(*b_matrix.rows))
    if any(x < 0 for x in b_vec):
        raise ValueError("negative cover exponent")
    assert sum(b_vec) == d
    return DeformationData(a_matrix, a_vec, d, b_matrix, weights, b_vec)


def common_cover(data):
    """Least cover degree and shared exponent vector for several families.

    `data` is a sequence of DeformationData.  Returns (d, b) when all the
    vectors a*A^-1 are pairwise proportional (so the families share one
    deformed Fermat cover), otherwise None.
    """
    d_joint = lcm(*(item.degree for item in data))
    vectors = {tuple(d_joint // item.degree * x for x in item.cover_exponents) for item in data}
    if len(vectors) != 1:
        return None
    return d_joint, vectors.pop()


# The ten built-in families of invertible quartic polynomials, keyed
# "family1" ... "family10".  Rows of each matrix are the exponent vectors
# of the four monomials of the undeformed polynomial; the deformation
# vector is (1,1,1,1) throughout.
FAMILIES: dict[str, tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = {
    # x0^4 + x1^4 + x2^4 + x3^4
    "family1": (((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)), (1, 1, 1, 1)),
    # x0^4 + x1^4 + x2^3 x3 + x2 x3^3
    "family2": (((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 3, 1), (0, 0, 1, 3)), (1, 1, 1, 1)),
    # x0^3 x1 + x0 x1^3 + x2^3 x3 + x2 x3^3
    "family3": (((3, 1, 0, 0), (1, 3, 0, 0), (0, 0, 3, 1), (0, 0, 1, 3)), (1, 1, 1, 1)),
    # x0^4 + x1 x2^3 + x2 x3^3 + x1^3 x3
    "family4": (((4, 0, 0, 0), (0, 1, 3, 0), (0, 0, 1, 3), (0, 3, 0, 1)), (1, 1, 1, 1)),
    # x0 x1^3 + x1 x2^3 + x2 x3^3 + x0^3 x3
    "family5": (((1, 3, 0, 0), (0, 1, 3, 0), (0, 0, 1, 3), (3, 0, 0, 1)), (1, 1, 1, 1)),
    # x0^4 + x1^4 + x2^3 x3 + x3^4
    "family6": (((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 3, 1), (0, 0, 0, 4)), (1, 1, 1, 1)),
    # x0^3 x1 + x0 x1^3 + x2^3 x3 + x3^4
    "family7": (((3, 1, 0, 0), (1, 3, 0, 0), (0, 0, 3, 1), (0, 0, 0, 4)), (1, 1, 1, 1)),
    # x0^3 x1 + x1^4 + x2^3 x3 + x3^4
    "family8": (((3, 1, 0, 0), (0, 4, 0, 0), (0, 0, 3, 1), (0, 0, 0, 4)), (1, 1, 1, 1)),
    # x0^4 + x1^3 x2 + x2^3 x3 + x3^4
    "family9": (((4, 0, 0, 0), (0, 3, 1, 0), (0, 0, 3, 1), (0, 0, 0, 4)), (1, 1, 1, 1)),
    # x0^3 x1 + x1^3 x2 + x2^3 x3 + x3^4
    "family10": (((3, 1, 0, 0), (0, 3, 1, 0), (0, 0, 3, 1), (0, 0, 0, 4)), (1, 1, 1, 1)),
}


def family(key: str) -> DeformationData:
    """Deformation data for one of the built-in families."""
    if key not in FAMILIES:
        raise ValueError(f"unknown family {key!r}; expected family1..family10")
    rows, a_vec = FAMILIES[key]
    return build(IntMatrix(rows), a_vec)


def data_from_json(obj: dict) -> DeformationData:
    """Build deformation data from {"matrix": [[int,...],...], "deformation": [int,...]}."""
    if not isinstance(obj, dict) or "matrix" not in obj or "deformation" not in obj:
        raise ValueError('expected an object with "matrix" and "deformation" keys')
    # the shape alone: IntMatrix and build refuse an entry that is not an int (JSON true, 4.5), naming it
    matrix, a_vec = obj["matrix"], obj["deformation"]
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ValueError('"matrix" must be a list of lists of integers')
    if not isinstance(a_vec, list):
        raise ValueError('"deformation" must be a list of integers')
    return build(IntMatrix(matrix), a_vec)


def equation_string(data: DeformationData) -> str:
    """The Delsarte polynomial F0 (the pencil at lambda = 0), e.g. x0^4+x1^4+x2^3*x3+x2*x3^3."""

    def monomial(exps) -> str:  # a row of the nonsingular A is never all zero
        return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e)

    return "+".join(monomial(row) for row in data.matrix.rows)
