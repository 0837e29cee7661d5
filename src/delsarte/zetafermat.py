"""Frobenius eigenvalues on monomial eigenlines at lambda = 0.

For d | q - 1 the middle cohomology of the degree-d Fermat hypersurface
splits into eigenlines indexed by interior monomial types, and the
Frobenius eigenvalue on the line of k is a Jacobi-type character sum,
which `jacobi_eigenvalue` alone checks and builds by the pair-sum recursion.
Every integer that comes from types goes through one walk over their
Galois orbits: `char_poly_invariant` multiplies the orbit polynomials,
and `frobenius_trace` adds up their eigenvalues, so the Lefschetz count
(q^n - 1)/(q - 1) + (-1)^(n-1) * trace is read off the same polynomials.
The sign and normalization conventions are not assumed: the tests
certify that count against brute-force enumeration (`pointcount`).

Everything is exact: character sums live in Z[zeta_e], e | d the least
order that holds them, by their canonical coordinates, and are read off
the one order-d character table mod e; it maps each type to its orbit,
built once (`monomials.unit_orbit`).  The orbit's characteristic polynomial is
the norm of 1 - alpha*T from Q(zeta_e), one product over the conjugates
of alpha in Z/Phi_e(2^B), where zeta_e -> 2^B is a ring map and B is set
by the L1 norm of alpha's coordinates so that every coefficient is read
back exactly; the divisibility checks run in Z[T].
"""
from __future__ import annotations

from collections import Counter, namedtuple
from functools import reduce
from math import gcd
from operator import mul

from .cyclotomic import CyclotomicElement, cyclotomic_polynomial
from .deformation import common_cover
from .exactalg import int_entries, poly_divmod, poly_mul, positive_int
from .monomials import g_invariant_types, unit_orbit
from .pointcount import FiniteField, field_order


class RationalityError(ArithmeticError):
    """An integer the eigenvalues fix exactly, such as the size of a norm, came out wrong."""


class CharPoly:
    """Integer polynomial in T with constant coefficient 1, ascending order.

    Normalized as a product of (1 - alpha*T) over Frobenius eigenvalues.
    Instances are treated as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if not coeffs or coeffs[0] != 1:
            raise ValueError("constant coefficient must be 1")
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, CharPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: CharPoly) -> CharPoly:
        return CharPoly(tuple(poly_mul(self.coeffs, other.coeffs)))

    def divides(self, other: CharPoly) -> bool:
        """Exact divisibility in Z[T]: the reversed self is monic, as its constant term is 1."""
        return not any(poly_divmod(other.coeffs[::-1], self.coeffs[::-1])[1])

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


class CharacterTable:
    """A multiplicative character of exact order d on F_q*.

    chi(g^j) = zeta_d^j for the chosen generator g, so the zeta-exponent
    of chi at a nonzero element is its log to base g, mod d.  `minus_one`
    is that exponent at -1, 0 or d/2, and the same for every g, as -1 is
    g^((q-1)/2) for odd q; `log_pairs` holds the exponents at v and 1 - v
    with their multiplicity over v != 0, 1.  Taken mod e | d, they are
    the exponents of psi = chi^(d/e), of exact order e, so psi^a(-1) = -1
    iff a * minus_one is nonzero mod e.  Three memos live and die with the
    table: the pair sums, `orbits` from each type mod d to its Galois
    orbit, and the orbit polynomials, so calls that share a table share
    that work.  Apart from them, instances are treated as immutable.
    """

    __slots__ = ("field", "order", "generator", "minus_one", "log_pairs", "pair_sums", "orbits", "orbit_polys")

    def __init__(
        self,
        field: FiniteField,
        order: int,
        generator: int,
        minus_one: int,
        log_pairs: tuple[tuple[int, int, int], ...],
    ):
        self.field = field
        self.order = order
        self.generator = generator
        self.minus_one = minus_one
        self.log_pairs = log_pairs
        self.pair_sums = {}
        self.orbits = {}
        self.orbit_polys = {}

    def pair_sum(self, a: int, b: int, e: int) -> CyclotomicElement:
        """J(psi^a, psi^b) = sum over v != 0, 1 of psi^a(v) * psi^b(1 - v), for psi = chi^(d/e) of order e | d."""
        pair = self.pair_sums.get((a, b, e))
        if pair is None:
            coeffs = [0] * e
            for x, y, c in self.log_pairs:
                coeffs[(a * x + b * y) % e] += c
            pair = self.pair_sums[a, b, e] = CyclotomicElement(e, coeffs)
        return pair


def multiplicative_character(field: FiniteField, d: int, generator: int | None = None) -> CharacterTable:
    """Table of the character of exact order d | q - 1 with chi(generator) = zeta_d (default: x mod f), a unit code."""
    q = field.q
    if (q - 1) % positive_int(d, "d") != 0:
        raise ValueError(f"no character of order {d}: {d} does not divide q - 1 = {q - 1}")
    if generator is None:
        generator = field.generator
    int_entries((generator,), "generator")
    if not 0 < generator < q:
        raise ValueError(f"generator is {generator}, not a unit code in [1, {q - 1}]")
    # g' = g^j has log_g'(v) = u * log_g(v) mod q - 1, u = 1/j
    j = field.log[generator]
    if j < 0 or gcd(j, q - 1) != 1:
        raise ValueError("supplied element does not generate the unit group")
    u = pow(j, -1, q - 1)
    # v = x^m, m != 0, and 1 - v = 1 + x^(m + log(-1)) = x^zech[m + log(-1)];
    # log(-1) is (q - 1)/2 for odd q, and 0 for even q, where -1 = 1
    zech, shift = field.zech, (q - 1) // 2 if q % 2 else 0
    counts = Counter((u * m % d, u * zech[(m + shift) % (q - 1)] % d) for m in range(1, q - 1))
    return CharacterTable(field, d, generator, shift % d, tuple((x, y, c) for (x, y), c in counts.items()))


def jacobi_eigenvalue(k, table: CharacterTable, order: int | None = None) -> CyclotomicElement:
    """Frobenius eigenvalue on the eigenline of the interior type k = (k_0, ..., k_n) mod e.

    e = order | d = table.order (d by default), and psi = chi^(d/e) has
    exact order e.  (1/q) * prod_i g(psi^(k_i)), up to the sign (-1)^(n-1)
    that makes the Lefschetz count reproduce brute force.  Folding the last
    Gauss sum against its conjugate turns the product into psi^(k_n)(-1) *
    J(psi^(k_0), ..., psi^(k_(n-1))), which stays in Z[zeta_e] and needs
    no additive characters.  As (-1)^2 = 1, psi^(k_n)(-1) is a sign, so
    one negation at most applies both signs.  Its complex absolute value is
    q^((n-1)/2) in every embedding.  J, the sum over v_0 + ... + v_(n-1) = 1
    with every v_i nonzero, is built from pair sums (Ireland-Rosen, ch. 8;
    Berndt-Evans-Williams, ch. 2): with s = k_0 + ... + k_(i-1) mod e,
      J(.., psi^k_i) = J(.., psi^k_(i-1)) * J(psi^s, psi^k_i)    if s != 0,
      J(.., psi^k_i) = psi^k_(i-1)(-1) * q * J(.., psi^k_(i-2))  if s == 0,
    starting from J(psi^k_0) = 1, which is never multiplied by; psi^a(-1)
    is a sign, -1 iff a * table.minus_one is nonzero mod e.
    """
    e = table.order if order is None else int_entries((order,), "order")[0]
    if e < 1 or table.order % e:
        raise ValueError(f"order {e} does not divide {table.order}")
    k = tuple(x % e for x in int_entries(k, "type"))
    if len(k) < 2:
        raise ValueError(f"type {k} needs at least two entries")
    if sum(k) % e != 0:
        raise ValueError(f"type entries must sum to 0 mod {e}")
    if any(x == 0 for x in k):
        raise ValueError("type must be interior (no zero entries)")
    q = table.field.q
    before = current = None  # None stands for J(psi^k_0) = 1
    s = k[0]
    for i in range(1, len(k) - 1):
        if s:
            pair = table.pair_sum(s, k[i], e)
            nxt = pair if current is None else current * pair
        else:
            scale = -q if k[i - 1] * table.minus_one % e else q
            nxt = CyclotomicElement.constant(e, scale) if before is None else before * scale
        before, current = current, nxt
        s = (s + k[i]) % e
    term = CyclotomicElement.constant(e, 1) if current is None else current
    minus = bool(k[-1] * table.minus_one % e)  # psi^(k_n)(-1) = -1
    return -term if minus != bool(len(k) % 2) else term


def _expand(alpha: CyclotomicElement, e: int) -> CharPoly:
    """The norm N(1 - alpha T) = prod over units u mod e of (1 - sigma_u(alpha) T), in Z[T].

    With t = 2^B and M = Phi_e(t), zeta_e -> t is a ring map Z[zeta_e]
    -> Z/M, as Phi_e(t) = 0 mod M; it sends sigma_u(alpha) to alpha(t^u).
    So the norm's coefficients are those of prod (1 - alpha(t^u) T) mod M,
    once M exceeds twice their size.  With A the L1 norm of alpha, every
    conjugate has |.| <= A, so |c_i| <= C(s, i) A^i <= (2A)^s, s = phi(e);
    and M >= (t - 1)^s.  B = bit length of 8A makes t - 1 >= 8A, so
    M > 2 (2A)^s, and each coefficient is read back from (-M/2, M/2].
    """
    phi = cyclotomic_polynomial(e)
    bits = (8 * max(sum(map(abs, alpha.coeffs)), 1)).bit_length()
    modulus = sum(c << (bits * i) for i, c in enumerate(phi))
    coeffs = [1]
    for u in range(1, e + 1):
        if gcd(u, e) == 1:
            value = sum(c << (bits * (u * j % e)) for j, c in enumerate(alpha.coeffs) if c) % modulus
            coeffs = [(a - value * b) % modulus for a, b in zip(coeffs + [0], [0] + coeffs)]
    half = modulus >> 1
    return CharPoly(tuple(c - modulus if c > half else c for c in coeffs))


def _orbit_polys(types, table: CharacterTable):
    """Yield the polynomial prod (1 - j(k) T) over each Galois orbit of the types, in Z[T].

    The types are tuples reduced mod d = table.order, else ValueError is
    raised, and split into orbits under k -> u*k for units u mod d
    (`unit_orbit`), kept in the table's map `orbits`, so walks with one
    table build each orbit once.  A set is Galois stable iff the sizes of
    its orbits add up to its size; otherwise ValueError is raised.  One
    eigenvalue per orbit is a Jacobi sum; the others are its conjugates
    j(u*k) = sigma_u(j(k)).  With g = gcd(d, k) the sum lies in the
    smaller ring Z[zeta_e], e = d/g: chi^k = (chi^g)^(k/g), and chi^g has
    exact order e.  The orbit has phi(e) members, and its product is the
    norm from Q(zeta_e) of 1 - j T (`_expand`), with j the eigenvalue of
    k/g at order e.  Walks with the same table share its memoized orbit
    polynomials, keyed by the orbits; an orbit polynomial whose norm has
    the wrong size raises RationalityError.
    """
    d = table.order
    types, orbits = set(types), set()
    for k in types:
        orbit = table.orbits.get(k)
        if orbit is None:
            orbit = unit_orbit(k, d)
            if k not in orbit:
                raise ValueError(f"type {k} is not reduced mod {d}")
            table.orbits.update(dict.fromkeys(orbit, orbit))
        orbits.add(orbit)
    if sum(map(len, orbits)) != len(types):
        raise ValueError("coefficients not rational: type set is not Galois stable")
    for orbit in orbits:
        orbit_poly = table.orbit_polys.get(orbit)
        if orbit_poly is None:
            k = min(orbit)
            g = gcd(d, *k)
            e = d // g
            assert len(orbit) == len(cyclotomic_polynomial(e)) - 1, "orbit size is not phi(e)"
            orbit_poly = _expand(jacobi_eigenvalue(tuple(x // g for x in k), table, e), e)
            # |N(j)|^2 = q^((n-1) phi(e)), as |j|^2 = q^(n-1) in every embedding
            weight, s = len(k) - 2, orbit_poly.degree
            if orbit_poly.coeffs[-1] ** 2 != (table.field.q**weight) ** s:
                raise RationalityError(f"orbit of {k}: the squared norm is not q^({weight}*{s})")
            table.orbit_polys[orbit] = orbit_poly
        yield orbit_poly


def char_poly_invariant(types, table: CharacterTable) -> CharPoly:
    """prod (1 - j(k) T) over a Galois-stable set of interior types, in Z[T]: the orbit polynomials multiplied.

    Calls with one table share its orbit map and orbit polynomials (`_orbit_polys`).
    """
    return reduce(mul, _orbit_polys(types, table), CharPoly((1,)))


def frobenius_trace(types, table: CharacterTable) -> int:
    """sum of j(k) over a Galois-stable set of interior types, in Z.

    Each orbit adds -c_1 of its own polynomial, the trace of its
    eigenvalue, so the product of the orbit polynomials is never formed.
    Over all interior types (k_0, ..., k_n) mod d, the degree-d Fermat
    hypersurface in P^n has (q^n - 1)/(q - 1) + (-1)^(n-1) * trace points
    over F_q (Weil, 1949).
    """
    return -sum(poly.coeffs[1] for poly in _orbit_polys(types, table))


def lift_types(types, d_from: int, d_to: int) -> list[tuple[int, ...]]:
    """Rescale types along a cover-degree change d_from | d_to."""
    if positive_int(d_to, "d_to") % positive_int(d_from, "d_from") != 0:
        raise ValueError("d_from must divide d_to")
    scale = d_to // d_from
    return sorted(tuple(scale * e for e in k) for k in types)


class CommonFactorReport(namedtuple("CommonFactorReport", "joint_degree common_poly family_polys divides")):
    """Outcome of the common-factor divisibility check at lambda = 0."""

    __slots__ = ()


def verify_common_factor(data_list, p: int, k: int) -> CommonFactorReport:
    """Check over F_q, q = p^k, that the joint-invariant factor divides each family's factor.

    Lifts every family's invariant type set to the least common cover
    degree d, intersects them (invariance under the group generated by
    all the quotient groups), builds the characteristic polynomial of the
    intersection, and tests exact divisibility into each family's
    invariant characteristic polynomial, all at lambda = 0.  Every
    refusal, (p, k) by `pointcount.field_order` and d not dividing q - 1
    among them, comes before F_q is built.
    """
    data_list = list(data_list)
    if not data_list:
        raise ValueError("need at least one family")
    cover = common_cover(data_list)
    if cover is None:
        raise ValueError("no common cover")
    d_joint, _ = cover
    q = field_order(p, k)
    if (q - 1) % d_joint != 0:
        raise ValueError(f"joint degree {d_joint} does not divide q - 1 = {q - 1}")
    lifted = [
        set(lift_types(g_invariant_types(item), item.degree, d_joint))
        for item in data_list
    ]
    common = set.intersection(*lifted)
    # one table for the whole call: every orbit is built and expanded once
    table = multiplicative_character(FiniteField(p, k), d_joint)
    common_poly = char_poly_invariant(common, table)
    family_polys = tuple(char_poly_invariant(s, table) for s in lifted)
    divides = tuple(common_poly.divides(fp) for fp in family_polys)
    return CommonFactorReport(
        joint_degree=d_joint,
        common_poly=common_poly,
        family_polys=family_polys,
        divides=divides,
    )
