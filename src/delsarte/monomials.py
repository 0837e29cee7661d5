"""Monomial types: the exponent combinatorics of Fermat-cover cohomology.

A monomial type is an (n+1)-tuple of residues modulo d with zero sum; the
interior ones (no entry congruent to 0) index a basis of the middle
cohomology of the deformed Fermat hypersurface complement.  This module
enumerates types, decides invariance under the two relevant automorphism
groups, partitions invariant types into equivalence classes, reduces
non-basis exponent vectors into the basis at lambda = 0, and transports
types along signed monomial coordinate changes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cyclotomic import CyclotomicElement
from .deformation import DeformationData
from .exactalg import determinant

# Hard cap on the order |det A| of the torus subgroup enumerated below;
# the built-in families stay below 300 elements, the cap only guards
# pathological user input.
_SUBGROUP_LIMIT = 4_000_000


def normalize_type(k, d: int) -> tuple[int, ...]:
    return tuple(e % d for e in k)


def format_type(k) -> str:
    return ",".join(str(e) for e in k)


def parse_type(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def enumerate_basis(d: int, n: int, allow_zero_entries: bool = False) -> list[tuple[int, ...]]:
    """All types with entries in (0,d) (resp. [0,d)) summing to 0 mod d.

    Returned sorted lexicographically.  The last entry is forced by the
    congruence, so the loop runs over the first n coordinates only.
    """
    if d < 1 or n < 2:
        raise ValueError("need d >= 1 and n >= 2")
    lo = 0 if allow_zero_entries else 1
    out = []
    for head in itertools.product(range(lo, d), repeat=n):
        last = (-sum(head)) % d
        if last >= lo:
            out.append(head + (last,))
    out.sort()
    return out


def is_gmax_invariant(k, b, d: int) -> bool:
    """True iff k is congruent to a multiple of b modulo d."""
    k = normalize_type(k, d)
    n1 = len(k)
    for t in range(d):
        if all((t * b[i] - k[i]) % d == 0 for i in range(n1)):
            return True
    return False


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


def invariant_image(data: DeformationData) -> set[tuple[int, ...]]:
    """The full subgroup {m*B mod d} of (Z/d)^(n+1), by additive closure.

    Its order is |det A|: m*B == 0 (mod d) iff m lies in the row lattice
    of A, because A*B = d*I.  Larger groups are refused before enumeration.
    """
    order = abs(determinant(data.matrix))
    if order > _SUBGROUP_LIMIT:
        raise ValueError(
            f"quotient group of order |det A| = {order} exceeds the enumeration limit {_SUBGROUP_LIMIT}"
        )
    d = data.degree
    rows = [tuple(x % d for x in row) for row in data.map_matrix.rows]
    zero = (0,) * len(rows)
    seen = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for row in rows:
            nxt = tuple((x + y) % d for x, y in zip(base, row))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def g_invariant_types(data: DeformationData) -> list[tuple[int, ...]]:
    """Interior types invariant under the family's quotient group.

    The subgroup image also contains vectors whose entry sum is nonzero
    mod d; those are not monomial types and are filtered out here.
    """
    d = data.degree
    return sorted(
        k
        for k in invariant_image(data)
        if sum(k) % d == 0 and all(0 < e < d for e in k)
    )


def dimension_triple(data: DeformationData) -> tuple[int, int, int]:
    """(PF, dim W, c) for a family realizable in straight projective space.

    PF counts the interior multiples of b; dim W is the number of further
    invariant types; c is the defect against the full interior count of
    the reduced-degree hypersurface.  Requires all weights equal.
    """
    w = data.weights
    if any(x != w[0] for x in w):
        raise ValueError("c undefined for this family: unequal weights")
    reduced_degree = data.degree // gcd(*w)
    full = len(enumerate_basis(reduced_degree, data.n))
    pf = len(gmax_invariant_types(data))
    gi = len(g_invariant_types(data))
    return pf, gi - pf, full - gi


def _partition(types, d: int, neighbours) -> list[list[tuple[int, ...]]]:
    """Connected components of the given neighbour relation inside `types`."""
    pool = set(types)
    blocks = []
    while pool:
        start = min(pool)
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
    blocks.sort(key=lambda blk: blk[0])
    return blocks


def strong_classes(types, b, d: int) -> list[list[tuple[int, ...]]]:
    """Partition of `types` into orbits of k -> k + b (mod d).

    Orbits are the equivalence closure of the shift restricted to the
    given set, so a shift that leaves the set breaks the chain there.
    """
    type_set = set(map(tuple, types))

    def neighbours(k):
        fwd = tuple((x + y) % d for x, y in zip(k, b))
        bwd = tuple((x - y) % d for x, y in zip(k, b))
        return [t for t in (fwd, bwd) if t in type_set]

    return _partition(type_set, d, neighbours)


def weak_classes(types, b, d: int) -> list[list[tuple[int, ...]]]:
    """Coarsening of the strong classes by unit scaling k -> u*k (mod d).

    The unit-scaling closure rule is this implementation's definition of
    weak equivalence; it is validated against the shipped regression data
    for the built-in families but is intentionally conservative.
    """
    type_set = set(map(tuple, types))
    units = [u for u in range(1, d) if gcd(u, d) == 1]

    def neighbours(k):
        out = []
        fwd = tuple((x + y) % d for x, y in zip(k, b))
        bwd = tuple((x - y) % d for x, y in zip(k, b))
        for t in (fwd, bwd):
            if t in type_set:
                out.append(t)
        for u in units:
            t = tuple((u * x) % d for x in k)
            if t in type_set:
                out.append(t)
        return out

    return _partition(type_set, d, neighbours)


@dataclass(frozen=True)
class ReducedForm:
    """Result of reducing an exponent vector into the interior basis.

    Either `basis` is an interior type and `coefficient` is a nonzero
    rational, or the class is zero in cohomology (`basis` is None and the
    coefficient is 0).
    """

    coefficient: Fraction
    basis: tuple[int, ...] | None

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


@dataclass(frozen=True)
class MonomialSubstitution:
    """Signed monomial coordinate change x_i -> zeta^e_i * x_{perm[i]}.

    `zeta_exponents` are exponents of a primitive root of unity of the
    given order; the permutation sends slot i to slot perm[i].
    """

    perm: tuple[int, ...]
    zeta_exponents: tuple[int, ...]
    order: int

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation")
        if len(self.zeta_exponents) != len(self.perm):
            raise ValueError("one scaling exponent per coordinate required")


def _permutation_sign(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def automorphism_action(sub: MonomialSubstitution, m, d: int) -> tuple[CyclotomicElement, tuple[int, ...]]:
    """Pull back the basis form indexed by m along the substitution.

    Returns (scalar, m') with substitution^*(omega_m) = scalar * omega_m'.
    The scalar is sign(perm) * zeta_d^(sum e_i * m_i); it collects one
    zeta^(e_i * (m_i - 1)) from the numerator monomial and one zeta^(e_i)
    (together with the permutation sign) from the holomorphic volume form.
    """
    if d % sub.order != 0:
        raise ValueError("scaling order does not divide d")
    m = tuple(m)
    if len(m) != len(sub.perm):
        raise ValueError("type length does not match the substitution")
    scale = d // sub.order
    exp = sum(e * scale * mi for e, mi in zip(sub.zeta_exponents, m)) % d
    sign = _permutation_sign(sub.perm)
    if sign == 1:
        scalar = CyclotomicElement.zeta(d, exp)
    elif d % 2 == 0:
        scalar = CyclotomicElement.zeta(d, (exp + d // 2) % d)
    else:
        scalar = -CyclotomicElement.zeta(d, exp)
    new = [0] * len(m)
    for i, mi in enumerate(m):
        new[sub.perm[i]] = mi
    return scalar, tuple(new)
