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

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, prod

from .deformation import DeformationData
from .exactalg import int_entries, kernel_elements, kernel_mod, positive_int

# Hard cap on the number of points walked for the invariant types below
# (the kernel, or the multiples of b); the built-in families stay below
# 300, the cap only guards pathological user input.
_SUBGROUP_LIMIT = 4_000_000


def format_type(k) -> str:
    return ",".join(map(str, k))


def gmax_invariant_types(data: DeformationData) -> list[tuple[int, ...]]:
    """Distinct interior multiples of b modulo d (a set, not a multiplier count).

    Their cyclic group, of order d / gcd(d, b), is refused above the limit.
    """
    d, b = data.degree, data.cover_exponents
    order = d // gcd(d, *b)
    if order > _SUBGROUP_LIMIT:
        raise ValueError(f"PF group of order {order} exceeds the enumeration limit {_SUBGROUP_LIMIT}")
    return list(_gmax_types(d, b))


@cache
def _gmax_types(d: int, b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # t*b runs through the cyclic group generated by b, whose order is
    # d / gcd(d, b_0, ..., b_n), so these t give each multiple once
    multiples = (tuple(t * bi % d for bi in b) for t in range(d // gcd(d, *b)))
    return tuple(sorted(k for k in multiples if all(k)))


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
    refused before enumeration.  The kernel and its walk are derived once
    per (A, d); the limit is checked on every call.
    """
    rows, d = data.matrix.rows, data.degree
    size = _g_kernel(rows, d)[2]
    if size > _SUBGROUP_LIMIT:
        raise ValueError(f"invariant-type kernel of {size} points exceeds the enumeration limit {_SUBGROUP_LIMIT}")
    return list(_g_types(rows, d))


@cache
def _g_kernel(rows: tuple[tuple[int, ...], ...], d: int) -> tuple[list[list[int]], list[int], int]:
    """U, steps and size of the kernel of [A | 1] mod d (`exactalg.kernel_mod`)."""
    u, steps = kernel_mod([row + (1,) for row in rows], d)
    return u, steps, prod(d // step for step in steps)


@cache
def _g_types(rows: tuple[tuple[int, ...], ...], d: int) -> tuple[tuple[int, ...], ...]:
    u, steps, _ = _g_kernel(rows, d)
    return tuple(sorted(k for k in kernel_elements(u, steps, d) if all(k)))


def dimension_triple(data: DeformationData) -> tuple[int, int, int]:
    """(PF, dim W, c) for a family realizable in straight projective space.

    PF counts the interior multiples of b; dim W is the number of further
    invariant types; c is the defect against the full interior count of
    the reduced-degree hypersurface, ((D-1)^(n+1) + (-1)^(n+1) (D-1)) / D
    by inclusion-exclusion.  Requires all weights equal.  The G types come
    first: their kernel holds the PF group, and its limit refuses first.
    """
    w = data.weights
    if any(x != w[0] for x in w):
        raise ValueError("c undefined for this family: unequal weights")
    n = data.n
    if n < 2:
        raise ValueError(f"the dimension triple needs n >= 2, got n = {n}")
    reduced_degree = data.degree // gcd(*w)
    full = ((reduced_degree - 1) ** (n + 1) + (-1) ** (n + 1) * (reduced_degree - 1)) // reduced_degree
    gi = len(g_invariant_types(data))
    pf = len(gmax_invariant_types(data))
    return pf, gi - pf, full - gi


def strong_classes(types, b, d: int) -> list[list[tuple[int, ...]]]:
    """Partition of `types` into orbits of k -> k + b (mod d).

    Orbits are the equivalence closure of the shift restricted to the
    given set, so a shift that leaves the set breaks the chain there.
    Each coset of <b> is a cycle, so a block is an arc of one: walked
    from the least type not yet placed by steps of +b, then of -b, until
    a step leaves the unplaced types.  The blocks come out sorted by
    their first type.
    """
    positive_int(d, "d")
    pool = set(map(tuple, types))
    for k in pool:
        if len(k) != len(b):
            raise ValueError(f"b has {len(b)} entries, not {len(k)} like the types")
    minus_b = [-y for y in b]
    blocks = []
    for start in sorted(pool):
        if start not in pool:
            continue
        pool.remove(start)
        block = [start]
        for step in (b, minus_b):
            k = start
            while (k := tuple([(x + y) % d for x, y in zip(k, step)])) in pool:
                pool.remove(k)
                block.append(k)
        blocks.append(sorted(block))
    return blocks


def unit_orbit(k, d: int) -> frozenset:
    """The Galois orbit {u*k mod d : u a unit mod d} of a type k mod d.

    With g = gcd(d, k) and e = d/g, u*k = g*(u*(k/g) mod e), and the units
    mod d map onto the units mod e, so the orbit is built from those alone.
    The stabilizer of k/g is {u == 1 mod e}: the orbit has phi(e) members.
    """
    g = gcd(positive_int(d, "d"), *k)
    e = d // g
    k = [x // g for x in k]
    return frozenset(tuple(g * (u * x % e) for x in k) for u in range(1, e + 1) if gcd(u, e) == 1)


def weak_classes(types, b, d: int) -> list[list[tuple[int, ...]]]:
    """Coarsening of the strong classes by unit scaling k -> u*k (mod d).

    The unit-scaling closure rule is this implementation's definition of
    weak equivalence; it is validated against the shipped regression data
    for the built-in families but is intentionally conservative.  The
    strong classes are joined by a search over them: unit orbits
    (`unit_orbit`) partition the types, so each orbit is computed once,
    when its first member is reached, and the strong classes of all its
    members in the set join the block then.  Strong classes come sorted
    by their least type, so the blocks do too.
    """
    strong = strong_classes(types, b, d)
    block_of = {k: i for i, block in enumerate(strong) for k in block}
    scaled = set()
    joined = [False] * len(strong)
    blocks = []
    for first in range(len(strong)):
        if joined[first]:
            continue
        joined[first] = True
        group = [first]
        for i in group:
            for k in strong[i]:
                if k in scaled:
                    continue
                for t in unit_orbit(k, d):
                    scaled.add(t)
                    j = block_of.get(t)
                    if j is not None and not joined[j]:
                        joined[j] = True
                        group.append(j)
        blocks.append(sorted([k for i in group for k in strong[i]]))
    return blocks


class ReducedForm(namedtuple("ReducedForm", "coefficient basis")):
    """Result of reducing an exponent vector into the interior basis.

    Either `basis` is an interior type and `coefficient` is a nonzero
    rational, or the class is zero in cohomology (`basis` is None and the
    coefficient is 0).
    """

    __slots__ = ()

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
    positive_int(d, "d")
    entries = list(int_entries(exponents, "exponent vector"))
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
