"""Point counts over finite fields from Gauss sums.

`count_cone` counts the affine cone of a sum of monomials over F_q in
closed form: on each coordinate torus the count is a sum of products of
Gauss sums over a lattice of characters (Weil 1949, "Numbers of solutions
of equations in finite fields"; Koblitz 1983, "The number of points on
certain families of hypersurfaces over finite fields"); every such
lattice is a slice of one kernel, walked once by
`exactalg.kernel_elements` and evaluated exactly in an auxiliary prime
field.  The brute-force cone walk is kept in
`tests/oracles.py`, and the suite compares the two.  The toric singular
locus of the deformed Fermat cover is decided in closed form over the
algebraic closure of F_p, without building a field.

Fields F_{p^k} are integer codes whose base-p digits are the coefficients
of the residue polynomial modulo a primitive polynomial f, so the root x
of f is the multiplicative generator.  `FiniteField` holds the
discrete-log tables over x and a Zech-logarithm table, one set for every
q, and no arithmetic methods: `count_cone` and `zetafermat` read the
tables inline.  The method arithmetic of the brute-force oracles lives
in `tests/oracles.py`.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from math import gcd, lcm, prod
from operator import getitem, mul

from .deformation import DeformationData
from .exactalg import int_entries, kernel_elements, kernel_mod, poly_divmod, poly_mul, positive_int, power

# every table over F_q has q entries
MAX_Q = 2**20
# (q-1)^2 for the Gauss-sum table plus |K| for the character sums
COUNT_WORK_LIMIT = 40_000_000
# Miller-Rabin with the 13 prime bases up to 41 is exact below this bound
# (Sorenson-Webster 2015, psi_13)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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


def bounded_power(base: int, exponent: int) -> int:
    """The field size base^exponent, refused above `MAX_Q`: the one owner of the bound."""
    # |base^exponent| >= 2^exponent for |base| >= 2, so a large exponent is refused before the power is formed
    if exponent > MAX_Q.bit_length() and abs(base) > 1:
        raise ValueError(f"field size {base}^{exponent} exceeds the bound {MAX_Q}")
    size = base**exponent
    if size > MAX_Q:
        raise ValueError(f"field size {size} exceeds the bound {MAX_Q}")
    return size


def field_order(p: int, k: int = 1) -> int:
    """q = p^k for an admitted (p, k): ints, k >= 1, q <= MAX_Q, and p prime, tested in that order.

    The one admission of F_q, which every entry that takes (p, k) applies before any work.
    """
    int_entries((p, k), "(p, k)")
    if k < 1:
        raise ValueError("extension degree must be positive")
    q = bounded_power(p, k)
    if prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    return q


def _find_primitive(p: int, k: int) -> list[int]:
    """The first primitive f = x^k - h(x) over F_p, h running over codes 1, 2, ...

    f is primitive exactly when x has order p^k - 1 modulo f
    (Lidl-Niederreiter, *Finite Fields*, Thm 3.16), and that order alone
    makes F_p[x]/(f) a field, so one order test replaces an irreducibility
    test and a generator search.  For k = 1 the candidates are x - g with
    g = 1, 2, ..., so x mod f is g and the first to pass is the least
    primitive root, the least element of order p - 1 (`_element_of_order`).
    For k >= 2 the constants h = c < p are skipped: x^k = c gives x an
    order of at most k(p - 1) < q - 1.
    """
    if k == 1:
        return [-_element_of_order(p - 1, p) % p, 1]
    q = p**k
    cofactors = [(q - 1) // r for r in prime_factors(q - 1)]
    x, one = [0, 1] + [0] * (k - 2), [1] + [0] * (k - 1)
    for h in range(p, q):
        if h % p == 0:
            continue  # f(0) = 0, so x is not a unit
        # base-p digits of h, negated: f = x^k - h(x)
        f = [-(h // p**i) % p for i in range(k)] + [1]

        def times(a, b):
            # the product reduced mod p before the division, so its entries stay small
            return [c % p for c in poly_divmod([c % p for c in poly_mul(a, b)], f)[1]]

        if power(x, q - 1, times) == one and all(power(x, e, times) != one for e in cofactors):
            return f
    raise AssertionError(f"no primitive polynomial of degree {k} over F_{p}")


class FiniteField:
    """F_q, q = p^k, with exp/log/Zech tables over the generator g = x mod f.

    The modulus f is primitive (`_find_primitive`), so its root x
    generates F_q^*.  Element codes are integers in [0, q): the base-p
    digits of a code are the coefficients of the residue polynomial, and
    the prime subfield embeds as the codes 0..p-1.  `exp[j] = x^j` is
    filled by multiplying by x: shift the digits up one place and fold the
    top digit back in with f.  The tables are the same for prime and
    extension fields: `log` inverts `exp` (`log[0] = -1`), and the Zech
    logarithm `zech[j] = log(1 + g^j)` turns addition into
    `g^a + g^b = g^(a + zech[b - a])`.  Instances are treated as immutable.
    """

    __slots__ = ("p", "k", "q", "generator", "exp", "log", "zech", "modulus")

    def __init__(self, p: int, k: int = 1):
        self.q = field_order(p, k)
        self.p, self.k = p, k
        self.__post_init__()

    # a separate method under this name: bench/tracer.py times field construction by wrapping it
    def __post_init__(self):
        p, k, q = self.p, self.k, self.q
        self.modulus = _find_primitive(p, k)
        top = p ** (k - 1)
        # carry[t] is the code of t*x^k = t*h(x) mod f, for a top digit t
        carry = [0] * p
        for i, c in enumerate(self.modulus[:k]):
            carry = [a + t * -c % p * p**i for t, a in enumerate(carry)]
        exp, log = [0] * (q - 1), [-1] * q
        acc = 1
        for j in range(q - 1):
            exp[j], log[acc] = acc, j
            # acc * x: the low digits shift up one place and the top digit t
            # folds back in as carry[t]; the two add digit by digit mod p
            t, low = divmod(acc, top)
            acc, place = carry[t], p
            while low:
                low, a = divmod(low, p)
                if a:
                    b = acc // place % p
                    acc += (a if a + b < p else a - p) * place
                place *= p
        assert acc == 1, "generator order is not q - 1"
        self.exp, self.log = exp, log
        self.generator = exp[1 % (q - 1)]  # x mod f, which is 1 when q = 2
        # 1 + x bumps digit 0 of x's code; log[0] = -1 marks 1 + g^j = 0
        self.zech = [log[x - x % p + (x + 1) % p] for x in exp]


class HypersurfaceSpec(namedtuple("HypersurfaceSpec", "weights terms")):
    """A hypersurface in weighted projective space, given term by term.

    Each term is (exponents, coefficient), the coefficient a prime-field
    integer representative; a deformed family lists its deformation
    monomial last.  Weights, exponents and coefficients are ints
    (`exactalg.int_entries`); there is at least one weight, every weight
    is at least 1 and every exponent at least 0, so every term is a
    monomial of P(w).
    """

    __slots__ = ()

    def __new__(cls, weights: tuple[int, ...], terms: tuple[tuple[tuple[int, ...], int], ...]):
        weights, terms = int_entries(weights, "weights"), tuple(terms)
        if not weights:
            raise ValueError("the weight vector is empty")
        for i, w in enumerate(weights):
            positive_int(w, f"weights entry {i}")
        coefficients = int_entries((c for _, c in terms), "coefficients")
        rows = tuple(int_entries(exps, f"term {i} exponents") for i, (exps, _) in enumerate(terms))
        for i, exps in enumerate(rows):
            if len(exps) != len(weights):
                raise ValueError("term length does not match the weight vector")
            for j, e in enumerate(exps):
                if e < 0:
                    raise ValueError(f"term {i} exponents entry {j} is {e}, not >= 0")
        degrees = {sum(map(mul, weights, exps)) for exps in rows}
        if len(degrees) > 1:
            raise ValueError(f"terms have different weighted degrees: {sorted(degrees)}")
        return super().__new__(cls, weights, tuple(zip(rows, coefficients)))


def family_hypersurface(data: DeformationData, lam: int) -> HypersurfaceSpec:
    """The deformed family member X_lambda in P(w)."""
    return HypersurfaceSpec(
        weights=data.weights,
        terms=tuple((tuple(row), 1) for row in data.matrix.rows) + ((data.deformation, lam),),
    )


def fermat_hypersurface(d: int, n: int, lam: int = 0, b=None) -> HypersurfaceSpec:
    """The (deformed) degree-d Fermat hypersurface in plain P^n, n >= 1."""
    positive_int(d, "d")
    positive_int(n, "n")
    weights = (1,) * (n + 1)
    terms = tuple(
        (tuple(d if j == i else 0 for j in range(n + 1)), 1) for i in range(n + 1)
    )
    if b is not None:  # HypersurfaceSpec refuses a b that does not sum to d
        terms += ((b, lam),)
    return HypersurfaceSpec(weights=weights, terms=terms)


def count_points(spec: HypersurfaceSpec, p: int, k: int) -> int:
    """Point count of the coarse space over F_q, q = p^k: (#affine cone - 1) / (q - 1).

    `field_order` and then `torus_strata` make every refusal before F_q
    is built.  The division
    is asserted exact so that any discrepancy between the cone count and a
    genuine projective count fails loudly instead of returning a silently
    wrong value.
    """
    q = field_order(p, k)
    strata = torus_strata(spec, p, q)
    n_cone = count_cone(spec, FiniteField(p, k), strata)
    if (n_cone - 1) % (q - 1) != 0:
        raise AssertionError(
            f"cone count {n_cone} is not 1 mod q-1; this hypersurface has no "
            "well-defined projective count over this field"
        )
    return (n_cone - 1) // (q - 1)


def count_cone(spec: HypersurfaceSpec, field: FiniteField, strata: tuple) -> int:
    """Number of solutions in the full affine cone (including the origin).

    The sum over coordinate subsets S of the torus counts N*_S, each a sum
    of products of Gauss sums (Weil 1949; Koblitz 1983).  With N = q - 1,
    the m terms c_j x^(a_j) whose support lies in S, and
    G(chi^k) = sum_(u != 0) chi^k(u) psi(u) for psi(u) = eta^L(u),

        N*_S = (N^s + N^(s+1)/N^m * sum_(k in K_S) prod_j G(chi^(-k_j)) chi^(k_j)(c_j)) / q

    where K_S is the kernel of the m x (s+1) matrix [a_j|_S | 1] mod N, and
    N*_S = N^s when no term survives on S.  K_S is the slice of the full
    kernel K (`torus_strata`) where k_j = 0 off those m terms, so K is
    walked once with one table per term, prod_j over all r terms is
    summed into one bucket per support of k, and the sum over K_S is the
    buckets inside the live terms of S times G(1)^(r - m) = (-1)^(r - m).
    L(u) = u mod p, the constant digit of u's code, is F_p-linear (addition
    is digit-wise mod p) with L(1) = 1, so psi is a nontrivial additive
    character, and any nontrivial one gives the same count: the count rests
    only on sum_t psi(t*y) = q*[y = 0] (Lidl-Niederreiter, Thm 5.7).
    The count lies in [0, q^(n+1)], so it is computed exactly in F_l for
    the prime l of `auxiliary_prime`, with chi(g) and eta sent to elements
    of order N and p there.  `strata` is `torus_strata(spec, p, q)`.
    """
    q, p, n = field.q, field.p, field.q - 1
    terms, kernel, subsets = strata
    ell = auxiliary_prime(p, q, q ** len(spec.weights))
    omega, eta = _element_of_order(n, ell), _element_of_order(p, ell)
    pw = [1] * n
    for i in range(1, n):
        pw[i] = pw[i - 1] * omega % ell
    # psi(g^j) = eta^L(g^j), L(c) = c mod p the constant digit of the code
    eta_pw = [pow(eta, t, ell) for t in range(p)]
    psi = [eta_pw[c % p] for c in field.exp]
    # gauss[k] = G(chi^(-k)) = sum_j psi(g^j) * omega^(-k*j)
    gauss = [sum(psi) % ell]
    for k in range(1, n):
        gauss.append(sum(map(mul, psi, [pw[i % n] for i in range(0, (n - k) * n, n - k)])) % ell)
    assert gauss[0] == ell - 1, "G(1) is not -1"
    # chi^k(c) = omega^(k * log c) folded into G(chi^(-k)), term by term
    tables = [[g * pw[k * field.log[c] % n] % ell for k, g in enumerate(gauss)] for _, c in terms]
    full, buckets = 0, {}
    if terms:
        for k in kernel_elements(*kernel, n):
            v = prod(map(getitem, tables, k))
            if all(k):
                full += v
            else:
                mask = sum(1 << j for j, kj in enumerate(k) if kj)
                buckets[mask] = buckets.get(mask, 0) + v
        buckets[(1 << len(terms)) - 1] = full
    inv_n, inv_q = pow(n, -1, ell), pow(q, -1, ell)
    total = 0
    for s, live in subsets:
        if not live:
            total += n**s
            continue
        m = live.bit_count()
        char_sum = (-1) ** (len(terms) - m) * sum(v for mask, v in buckets.items() if not mask & ~live)
        total += (n**s + n ** (s + 1) * pow(inv_n, m, ell) * char_sum) * inv_q
    return total % ell


def torus_strata(spec: HypersurfaceSpec, p: int, q: int) -> tuple:
    """(terms, (U, steps), [(s, live)] per coordinate subset S), after the work bound.

    The terms are the (exponents, coefficient mod p) with a nonzero
    coefficient.  `exactalg.kernel_mod` gives their one kernel
    K = {y*U}, the k with k*[a_j | 1] == 0 (mod N), where y_i runs over
    the multiples of steps[i]; it is None when no term is left.  `live` is
    the bitmask of the terms whose support lies in S: their rows of
    [a_j | 1] vanish off S, so K_S is the slice of K where k_j = 0 for
    every term j off `live`.  The estimate (q-1)^2 + |K| is read off the
    steps before any table is built, and so is the Miller-Rabin limit on
    q^(n+1).
    """
    n, n1 = q - 1, len(spec.weights)
    if q**n1 >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"q^(n+1) = {q}^{n1} reaches the deterministic Miller-Rabin limit {MILLER_RABIN_LIMIT}"
        )
    terms = [(exps, c % p) for exps, c in spec.terms if c % p]
    kernel, work = None, n * n
    if terms:
        kernel = kernel_mod([list(e) + [1] for e, _ in terms], n)
        work += prod(n // step for step in kernel[1])
    if work > COUNT_WORK_LIMIT:
        raise ValueError(
            f"point count work estimate (q-1)^2 + |K| = {work} exceeds the limit {COUNT_WORK_LIMIT}"
        )
    supports = [sum(1 << i for i, x in enumerate(e) if x) for e, _ in terms]
    subsets = [
        (subset.bit_count(), sum(1 << j for j, sup in enumerate(supports) if not sup & ~subset))
        for subset in range(1 << n1)
    ]
    return terms, kernel, subsets


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 41 as bases: exact below MILLER_RABIN_LIMIT."""
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    if n < 2:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def auxiliary_prime(p: int, q: int, bound: int) -> int:
    """The least prime l = 1 + t*lcm(p, q-1) with l > bound."""
    step = lcm(p, q - 1)
    ell = bound + 1 + -bound % step
    while not _is_prime(ell):
        ell += step
    if ell >= MILLER_RABIN_LIMIT:
        raise ValueError(f"auxiliary prime {ell} reaches the Miller-Rabin limit {MILLER_RABIN_LIMIT}")
    return ell


def _element_of_order(order: int, ell: int) -> int:
    """h^((ell - 1)/order) of exact order `order` | ell - 1 in F_ell^* for the least h = 1, 2, ...: for order = ell - 1, the least primitive root."""
    primes = prime_factors(order)
    for h in itertools.count(1):
        z = pow(h, (ell - 1) // order, ell)
        if all(pow(z, order // r, ell) != 1 for r in primes):
            return z
    raise AssertionError("unreachable")


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
    A p that is not an int >= 2 is refused; that p is prime is the
    caller's contract, as a test per call would cost `--scan` one per lambda.
    """
    if type(p) is not int or p < 2:
        raise ValueError(f"p is {p!r}, not an integer >= 2")
    if d % p == 0:
        raise ValueError(f"the closed form needs gcd(p, d) = 1, got p = {p}, d = {d}")
    g = gcd(*b)
    c = -lam * pow(d, -1, p)
    product = 1
    for bi in b:
        if bi:
            product = product * pow(c * bi, bi // g, p) % p
    return product != 1
