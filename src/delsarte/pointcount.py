"""Brute-force point counting over small finite fields.

This module is the independent oracle for the character-sum machinery: it
counts points on weighted-projective hypersurfaces by enumerating the
affine cone and verifies the monomial cover map fiber by fiber.  The
toric singular locus of the deformed Fermat cover is decided in closed
form over the algebraic closure of F_p, without building a field.

Fields F_{p^k} are integer codes whose base-p digits are the coefficients
of the residue polynomial.  Arithmetic goes through discrete-log tables
over a fixed multiplicative generator and a Zech-logarithm table, one
path for every q.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import partial
from math import gcd

from .deformation import DeformationData

DEFAULT_MAX_Q = 2**20


def _max_q() -> int:
    raw = os.environ.get("DELSARTE_MAX_Q", DEFAULT_MAX_Q)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DELSARTE_MAX_Q must be an integer, got {raw!r}") from None


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in ascending order, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _poly_mulmod(a, b, mod_poly, p):
    """Product of coefficient lists modulo (mod_poly, p); mod_poly monic."""
    k = len(mod_poly) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * mod_poly[j]) % p
    return out[:k]


def _poly_powmod(a, e, mod_poly, p):
    result = [1] + [0] * (len(mod_poly) - 2)
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod_poly, p)
        base = _poly_mulmod(base, base, mod_poly, p)
        e >>= 1
    return result


def _is_irreducible(poly, p):
    """Rabin test: x^(p^k) == x mod poly, gcd trivial at maximal subfields."""
    k = len(poly) - 1
    x = [0, 1] + [0] * (k - 2)

    def frob_power(j):
        return _poly_powmod(x, p**j, poly, p)

    if frob_power(k) != x:
        return False
    for ell in prime_factors(k):
        diff = [(a - b) % p for a, b in zip(frob_power(k // ell), x)]
        if not any(diff):
            return False
        if _poly_gcd_is_nontrivial(diff, poly, p):
            return False
    return True


def _poly_gcd_is_nontrivial(a, b, p):
    def deg(c):
        d = -1
        for i, coeff in enumerate(c):
            if coeff % p:
                d = i
        return d

    a = [x % p for x in a]
    b = [x % p for x in b]
    while deg(b) >= 0:
        db = deg(b)
        inv = pow(b[db], -1, p)
        while deg(a) >= db:
            da = deg(a)
            factor = (a[da] * inv) % p
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - factor * b[i]) % p
        a, b = b, a
    return deg(a) > 0


def _find_irreducible(p: int, k: int) -> list[int]:
    """Deterministic search for a monic irreducible of degree k over F_p."""
    if k == 1:
        return [0, 1]
    for tail in itertools.count(0):
        digits = []
        t = tail
        for _ in range(k):
            digits.append(t % p)
            t //= p
        poly = digits + [1]
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("unreachable")


@dataclass
class FiniteField:
    """F_q, q = p^k, with exp/log/Zech tables over a fixed generator g.

    Element codes are integers in [0, q): the base-p digits of a code are
    the coefficients of the residue polynomial.  The prime subfield embeds
    as the codes 0..p-1.  Every operation is a table lookup, the same for
    prime and extension fields: `exp[j] = g^j`, `log` inverts it
    (`log[0] = -1`), and the Zech logarithm `zech[j] = log(1 + g^j)`
    (Lidl-Niederreiter, *Finite Fields*) turns addition into
    `g^a + g^b = g^(a + zech[b - a])`.
    """

    p: int
    k: int = 1
    q: int = field(init=False)
    generator: int = field(init=False)
    exp: list[int] = field(init=False, repr=False)
    log: list[int] = field(init=False, repr=False)
    zech: list[int] = field(init=False, repr=False)
    modulus: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        if prime_factors(self.p) != [self.p]:
            raise ValueError(f"{self.p} is not prime")
        if self.k < 1:
            raise ValueError("extension degree must be positive")
        self.q = self.p**self.k
        if self.q > _max_q():
            raise ValueError(f"field size {self.q} exceeds the configured bound")
        self.modulus = _find_irreducible(self.p, self.k)
        self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _encode(self, coeffs) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (c % self.p)
        return code

    def _decode(self, code: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mulmod(self._decode(a), self._decode(b), self.modulus, self.p)
        return self._encode(prod)

    def _raw_pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return result

    def _build_tables(self):
        cofactors = [(self.q - 1) // ell for ell in prime_factors(self.q - 1)]
        for g in range(2, self.q):
            if all(self._raw_pow(g, e) != 1 for e in cofactors):
                self.generator = g
                break
        else:
            if self.q == 2:
                self.generator = 1
            else:
                raise AssertionError("no multiplicative generator found")
        self.exp = [0] * (self.q - 1)
        self.log = [-1] * self.q
        acc = 1
        for j in range(self.q - 1):
            self.exp[j] = acc
            self.log[acc] = j
            acc = self._raw_mul(acc, self.generator)
        assert acc == 1, "generator order is not q - 1"
        # 1 + x bumps digit 0 of x's code; log[0] = -1 marks 1 + g^j = 0
        p = self.p
        self.zech = [self.log[x - x % p + (x + 1) % p] for x in self.exp]

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        qm1 = self.q - 1
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % qm1]
        return 0 if z < 0 else self.exp[(la + z) % qm1]

    def neg(self, a: int) -> int:
        # -1 is the code p - 1: g^((q-1)/2) for odd q, and 1 when p = 2
        if a == 0:
            return 0
        return self.exp[(self.log[a] + self.log[self.p - 1]) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def from_int(self, c: int) -> int:
        """Embed a prime-field integer representative."""
        return c % self.p

    def elements(self):
        return range(self.q)

    def units(self):
        return self.exp


@dataclass(frozen=True)
class HypersurfaceSpec:
    """A hypersurface in weighted projective space, given term by term.

    Coefficients are prime-field integer representatives.  `lambda_term`
    is the deformation monomial with its coefficient, kept separate so a
    single spec can be re-specialized at several parameter values.
    """

    weights: tuple[int, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]
    lambda_term: tuple[tuple[int, ...], int] | None = None

    def __post_init__(self):
        degrees = set()
        for exps, _ in self.all_terms():
            if len(exps) != len(self.weights):
                raise ValueError("term length does not match the weight vector")
            degrees.add(sum(w * e for w, e in zip(self.weights, exps)))
        if len(degrees) > 1:
            raise ValueError(f"terms have different weighted degrees: {sorted(degrees)}")

    def all_terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        if self.lambda_term is None:
            return self.terms
        return self.terms + (self.lambda_term,)


def family_hypersurface(data: DeformationData, lam: int) -> HypersurfaceSpec:
    """The deformed family member X_lambda in P(w)."""
    return HypersurfaceSpec(
        weights=data.weights,
        terms=tuple((tuple(row), 1) for row in data.matrix.rows),
        lambda_term=(data.deformation, lam),
    )


def fermat_hypersurface(d: int, n: int, lam: int = 0, b=None) -> HypersurfaceSpec:
    """The (deformed) degree-d Fermat hypersurface in plain P^n."""
    weights = (1,) * (n + 1)
    terms = tuple(
        (tuple(d if j == i else 0 for j in range(n + 1)), 1) for i in range(n + 1)
    )
    lambda_term = None
    if b is not None:
        b = tuple(b)
        if sum(b) != d:
            raise ValueError("cover exponents must sum to d")
        lambda_term = (b, lam)
    return HypersurfaceSpec(weights=weights, terms=terms, lambda_term=lambda_term)


def count_points(spec: HypersurfaceSpec, field: FiniteField) -> int:
    """Point count of the coarse space: (#affine cone - 1) / (q - 1).

    The division is asserted exact so that any discrepancy between the
    cone count and a genuine projective count fails loudly instead of
    returning a silently wrong value.
    """
    n_cone = count_cone(spec, field)
    q = field.q
    if (n_cone - 1) % (q - 1) != 0:
        raise AssertionError(
            f"cone count {n_cone} is not 1 mod q-1; this hypersurface has no "
            "well-defined projective count over this field"
        )
    return (n_cone - 1) // (q - 1)


def count_cone(spec: HypersurfaceSpec, field: FiniteField) -> int:
    """Number of solutions in the full affine cone (including the origin).

    Descends over x_0..x_(n-1) carrying each term's monomial value as a
    prefix product.  At the last variable x_n the terms without x_n fold
    into one constant c, and the number of roots v of
    c + sum m_t * v^(e_t) is memoized on the key (c, m_t...) for the
    duration of the call.
    """
    q = field.q
    n1 = len(spec.weights)
    terms = [(exps, field.from_int(c)) for exps, c in spec.all_terms()]
    terms = [(exps, c) for exps, c in terms if c != 0]
    if not terms:
        return q**n1
    last = n1 - 1
    # pw[t][i][v] = v^e(t,i) as a field code, for the descended variables
    pw = [
        [[field.pow(v, exps[i]) for v in range(q)] for i in range(last)]
        for exps, _ in terms
    ]
    folded = [t for t, (exps, _) in enumerate(terms) if exps[last] == 0]
    live = [t for t, (exps, _) in enumerate(terms) if exps[last]]
    # log(v^e) for v = g^j, j = 0..q-2, per live term
    live_logs = [[(terms[t][0][last] * j) % (q - 1) for j in range(q - 1)] for t in live]
    add, mul, neg = field.add, field.mul, field.neg
    exp, log = field.exp, field.log
    qm1 = q - 1
    roots: dict[tuple[int, ...], int] = {}

    def root_count(const: int, coeffs) -> int:
        # v = 0 kills every live term; the units sum term by term
        total = [0] * qm1
        for m, logs in zip(coeffs, live_logs):
            if m:
                lm = log[m]
                total = list(map(add, total, [exp[(lm + x) % qm1] for x in logs]))
        return (const == 0) + total.count(neg(const))

    def leaf(partials) -> int:
        const = 0
        for t in folded:
            const = add(const, partials[t])
        key = (const, *[partials[t] for t in live])
        n = roots.get(key)
        if n is None:
            n = roots[key] = root_count(const, key[1:])
        return n

    def descend(depth: int, partials) -> int:
        tables = [pw_t[depth] for pw_t in pw]
        step = leaf if depth + 1 == last else partial(descend, depth + 1)
        return sum(
            step([mul(m, table[v]) for m, table in zip(partials, tables)])
            for v in range(q)
        )

    start = [c for _, c in terms]
    return descend(0, start) if last else leaf(start)


def cover_in_general_position(d: int, b, lam: int, p: int) -> bool:
    """Toric general position of Y_lam over the algebraic closure of F_p.

    Y_lam is the cover sum y_i^d + lam*prod y_i^b_i, decided in closed form.
    Summing y_i * df/dy_i gives d*f, so for p not dividing d the singular
    points are the common zeros of d*y_i^d + lam*b_i*y^b.  Coordinates with
    b_i = 0 vanish; the others lie on the torus, where y_i^d = c_i * y^b
    with c_i = -lam*b_i/d.  The map y -> (y_i^d / y^b) sends that torus onto
    the subtorus cut out by the primitive character b/g, g = gcd(b), so the
    cover is singular iff prod over b_i > 0 of c_i^(b_i/g) == 1 in F_p.  A
    zero c_i (lam = 0, or p | b_i) makes the product 0: general position.
    """
    if d % p == 0:
        raise ValueError(f"the closed form needs gcd(p, d) = 1, got p = {p}, d = {d}")
    g = gcd(*b)
    c = -lam * pow(d, -1, p)
    product = 1
    for bi in b:
        if bi:
            product = product * pow(c * bi, bi // g, p) % p
    return product != 1


@dataclass(frozen=True)
class CoverReport:
    """Empirical verification of the monomial map from the cover."""

    containment: bool
    fiber_histogram: dict[int, int]
    points_on_cover: int


def verify_cover_map(data: DeformationData, lam: int, field: FiniteField) -> CoverReport:
    """Push every all-nonzero rational point of Y_lambda through the map.

    The map sends y to the monomials given by the rows of B (negative
    exponents via inversion, which is free in log space).  Containment
    means every image satisfies the family's equation; the histogram
    counts cover points per distinct image point of P(w).
    """
    q = field.q
    d = data.degree
    n1 = data.n + 1
    if d % field.p == 0:
        raise ValueError("gcd(q, d) = 1 is required")
    lam_code = field.from_int(lam)
    add, mul = field.add, field.mul
    exp, log = field.exp, field.log
    qm1 = q - 1
    b_rows = data.map_matrix.rows
    a_rows = data.matrix.rows
    a_vec = data.deformation
    weights = data.weights

    def x_equation(x) -> int:
        s = 0
        for row in a_rows:
            v = 1
            for i in range(n1):
                if row[i]:
                    v = mul(v, field.pow(x[i], row[i]))
            s = add(s, v)
        if lam_code:
            v = lam_code
            for i in range(n1):
                if a_vec[i]:
                    v = mul(v, field.pow(x[i], a_vec[i]))
            s = add(s, v)
        return s

    def canonical_image(x) -> tuple[int, ...]:
        best = None
        for t in field.units():
            scaled = tuple(mul(field.pow(t, weights[i]), x[i]) for i in range(n1))
            if best is None or scaled < best:
                best = scaled
        return best

    containment = True
    fibers: dict[tuple[int, ...], int] = {}
    points = 0
    for tail in itertools.product(field.units(), repeat=n1 - 1):
        y = (1,) + tail
        s = 0
        for i in range(n1):
            s = add(s, field.pow(y[i], d))
        if lam_code:
            v = lam_code
            for i in range(n1):
                if data.cover_exponents[i]:
                    v = mul(v, field.pow(y[i], data.cover_exponents[i]))
            s = add(s, v)
        if s != 0:
            continue
        points += 1
        logs = [log[yi] for yi in y]
        x = tuple(
            exp[sum(b_rows[j][i] * logs[i] for i in range(n1)) % qm1]
            for j in range(n1)
        )
        if x_equation(x) != 0:
            containment = False
            continue
        key = canonical_image(x)
        fibers[key] = fibers.get(key, 0) + 1
    histogram: dict[int, int] = {}
    for size in fibers.values():
        histogram[size] = histogram.get(size, 0) + 1
    return CoverReport(containment, histogram, points)
