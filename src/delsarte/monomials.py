"""Monomial types: the exponent combinatorics of Fermat-cover cohomology.

A monomial type is an (n+1)-tuple of residues modulo d with zero sum; the
interior ones (no entry congruent to 0) index a basis of the middle
cohomology of the deformed Fermat hypersurface complement.  This module
enumerates types (the invariant ones as a kernel walked by
`exactalg.kernel_elements`), decides invariance under the two relevant
automorphism groups, partitions invariant types into equivalence
classes, and reduces non-basis exponent vectors into the basis at
lambda = 0.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .deformation import DeformationData
from .exactalg import kernel_elements, kernel_mod

# Hard cap on the number of points of the kernel walked for the
# invariant types below; the built-in families stay below 300, the cap
# only guards pathological user input.
_SUBGROUP_LIMIT = 4_000_000


def format_type(k) -> str:
    return ",".join(str(e) for e in k)


def gmax_invariant_types(data: DeformationData) -> list[tuple[int, ...]]:
    """Distinct interior multiples of b modulo d (a set, not a multiplier count)."""
    d = data.degree
    b = data.cover_exponents
    seen = set()
    for t in range(d):
        k = tuple((t * bi) % d for bi in b)
        if all(0 < e < d for e in k):
            seen.add(k)
    return sorted(seen)


def is_g_invariant(k, data: DeformationData) -> bool:
    """Invariance under the family's quotient group.

    Tested as k*A == 0 (mod d); equivalent to the existence of an integer
    vector m with m*B == k (mod d) because A*B = B*A = d*I.
    """
    d = data.degree
    a = data.matrix.rows
    n1 = len(a)
    k = tuple(k)
    if len(k) != n1:
        raise ValueError("type length does not match matrix size")
    return all(sum(k[i] * a[i][j] for i in range(n1)) % d == 0 for j in range(n1))


def g_invariant_types(data: DeformationData) -> list[tuple[int, ...]]:
    """Interior types invariant under the family's quotient group, sorted.

    These are the interior k with k*[A | 1] == 0 (mod d): invariance
    k*A == 0 and a zero entry sum, walked by `exactalg.kernel_elements`.
    The kernel has prod(d / step) points, at most |det A| as it is a
    subgroup of {m*B mod d}, and a larger kernel than the limit is
    refused before enumeration.
    """
    d = data.degree
    u, steps = kernel_mod([row + (1,) for row in data.matrix.rows], d)
    size = prod(d // step for step in steps)
    if size > _SUBGROUP_LIMIT:
        raise ValueError(f"invariant-type kernel of {size} points exceeds the enumeration limit {_SUBGROUP_LIMIT}")
    return sorted(k for k in kernel_elements(u, steps, d) if all(k))


def dimension_triple(data: DeformationData) -> tuple[int, int, int]:
    """(PF, dim W, c) for a family realizable in straight projective space.

    PF counts the interior multiples of b; dim W is the number of further
    invariant types; c is the defect against the full interior count of
    the reduced-degree hypersurface, ((D-1)^(n+1) + (-1)^(n+1) (D-1)) / D
    by inclusion-exclusion.  Requires all weights equal.
    """
    w = data.weights
    if any(x != w[0] for x in w):
        raise ValueError("c undefined for this family: unequal weights")
    n = data.n
    if n < 2:
        raise ValueError("need d >= 1 and n >= 2")
    reduced_degree = data.degree // gcd(*w)
    full = ((reduced_degree - 1) ** (n + 1) + (-1) ** (n + 1) * (reduced_degree - 1)) // reduced_degree
    pf = len(gmax_invariant_types(data))
    gi = len(g_invariant_types(data))
    return pf, gi - pf, full - gi


def _partition(types, neighbours) -> list[list[tuple[int, ...]]]:
    """Connected components of the given neighbour relation inside `types`.

    Each block starts at the least type not yet placed, so the blocks come
    out sorted by their first type.
    """
    pool = set(types)
    blocks = []
    for start in sorted(pool):
        if start not in pool:
            continue
        block = {start}
        frontier = [start]
        pool.remove(start)
        while frontier:
            k = frontier.pop()
            for nxt in neighbours(k):
                if nxt in pool:
                    pool.remove(nxt)
                    block.add(nxt)
                    frontier.append(nxt)
        blocks.append(sorted(block))
    return blocks


def _shifts(k, b, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """k + b and k - b (mod d)."""
    return tuple((x + y) % d for x, y in zip(k, b)), tuple((x - y) % d for x, y in zip(k, b))


def strong_classes(types, b, d: int) -> list[list[tuple[int, ...]]]:
    """Partition of `types` into orbits of k -> k + b (mod d).

    Orbits are the equivalence closure of the shift restricted to the
    given set, so a shift that leaves the set breaks the chain there.
    """
    type_set = set(map(tuple, types))
    return _partition(type_set, lambda k: [t for t in _shifts(k, b, d) if t in type_set])


def weak_classes(types, b, d: int) -> list[list[tuple[int, ...]]]:
    """Coarsening of the strong classes by unit scaling k -> u*k (mod d).

    The unit-scaling closure rule is this implementation's definition of
    weak equivalence; it is validated against the shipped regression data
    for the built-in families but is intentionally conservative.  Unit
    orbits partition the types, so each orbit is computed once, when its
    first member is reached, and all its members in the set join the
    block then.
    """
    type_set = set(map(tuple, types))
    units = [u for u in range(1, d) if gcd(u, d) == 1]
    scaled = set()

    def neighbours(k):
        out = [t for t in _shifts(k, b, d) if t in type_set]
        if k not in scaled:
            orbit = {tuple((u * x) % d for x in k) for u in units}
            scaled.update(orbit)
            out += [t for t in orbit if t in type_set]
        return out

    return _partition(type_set, neighbours)


class ReducedForm:
    """Result of reducing an exponent vector into the interior basis.

    Either `basis` is an interior type and `coefficient` is a nonzero
    rational, or the class is zero in cohomology (`basis` is None and the
    coefficient is 0).  Instances are treated as immutable.
    """

    __slots__ = ("coefficient", "basis")

    def __init__(self, coefficient: Fraction, basis: tuple[int, ...] | None):
        self.coefficient = coefficient
        self.basis = basis

    @property
    def is_zero(self) -> bool:
        return self.basis is None


def reduce_form(exponents, d: int) -> ReducedForm:
    """Reduce a form with entries >= 1 to the interior basis (lambda = 0).

    One step rewrites an entry m > d as m - d.  In terms of the numerator
    exponent e = m - 1 and the pole order t before the step, the
    cohomology relation gives the exact factor (e - d + 1) / (d * (t - 1));
    an entry equal to d (numerator exponent d - 1) kills the class.
    The accumulated coefficient is independent of the reduction order.
    """
    entries = [int(x) for x in exponents]
    if any(e < 1 for e in entries):
        raise ValueError("all entries must be >= 1")
    total = sum(entries)
    if total % d != 0:
        raise ValueError("entry sum must be divisible by d")
    t = total // d
    coeff = Fraction(1)
    while True:
        for i, m in enumerate(entries):
            if m >= d:
                break
        else:
            return ReducedForm(coeff, tuple(entries))
        m = entries[i]
        if m == d:
            return ReducedForm(Fraction(0), None)
        entries[i] = m - d
        t -= 1
        coeff *= Fraction(m - d, d * t)
