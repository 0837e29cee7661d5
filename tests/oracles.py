"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the shortcuts used by the implementation: the
invariance oracles enumerate the values m*B directly or close the rows
of B under addition, the adjugate oracle and `laplace_determinant` expand
cofactors and `determinant` runs Bareiss elimination, the strong-class oracle closes the set under k -> k +- b by a
frontier search, the weak-class oracle scales every type by every unit, the
reduction
oracle rewrites forms by explicit polynomial differentiation, the Jacobi
sum oracle enumerates every tuple of nonzero field elements, the
characteristic-polynomial oracle expands one type at a time from those
direct sums with dense group-ring products (no packing), the point-count and general-position oracles evaluate the
whole polynomial at every point of the affine cone or of projective
space, the cover-map check pushes every torus point of the cover
through the monomial map, the basis enumeration walks every tuple, the
Galois-invariance test applies every automorphism, and the polynomial
reference keys terms by plain exponent tuples over Q(zeta_8)
coordinates of its own, sharing no code with `symbolic.MultiPoly`.
The integer-matrix helpers, the floating-point `embedding` and the
element-wise field arithmetic of `OracleField` serve only the tests.
`count_cone_by_strata` reuses the implementation's kernel and is
checked against brute force: it is the Gauss-sum count with one kernel
and one table set per coordinate subset, and its additive character is
the canonical `eta^Tr(u)`, each trace added up by Zech addition
(`zech_traces`), where `count_cone` reads `eta^(u mod p)` off the
constant digit; any nontrivial additive character gives the same count.
`fermat_count_by_trace` reads the Fermat count off the implementation's
`zetafermat.frobenius_trace`; the tests hold it to brute force.
`eigenvalue_mod_p` (Stickelberger) and `hasse_witt` are congruences
mod p, exact at any field size: each is a closed form in factorials mod
p, sharing no code with the Jacobi sums or the point counts.
`substitute_by_terms` and `sylvester_resultant` run on `MultiPoly`
arithmetic but by other algorithms than `symbolic`: a running sum of one
product per term, and the Bareiss determinant of the Sylvester matrix.
"""
import cmath
import functools
import itertools
from operator import getitem, mul
from dataclasses import dataclass
from fractions import Fraction

from math import gcd, prod

from delsarte.cyclotomic import CyclotomicElement
from delsarte.exactalg import IntMatrix, kernel_elements, kernel_mod
from delsarte.pointcount import FiniteField, _element_of_order, auxiliary_prime
from delsarte.symbolic import MultiPoly, _exponents, exact_div
from delsarte.zetafermat import CharPoly, frobenius_trace, multiplicative_character


class OracleField(FiniteField):
    """F_q with element-wise arithmetic over the tables of `pointcount.FiniteField`.

    The package's field holds its exp/log/Zech tables and no methods; the
    brute-force oracles add, multiply and raise to powers one element at a
    time through these.  `of` views a built field this way without
    building its tables again.
    """

    __slots__ = ()

    @classmethod
    def of(cls, field):
        if isinstance(field, cls):
            return field
        view = cls.__new__(cls)
        for name in FiniteField.__slots__:
            setattr(view, name, getattr(field, name))
        return view

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


def image_by_enumeration(data):
    """The set of all values m*B mod d, enumerated from scratch.

    Organized as a meet-in-the-middle sum {s1 + s2} over the spans of the
    two halves of the rows of B, which visits every combination exactly
    once without the additive-closure shortcut used by the implementation.
    """
    d = data.degree
    rows = [tuple(x % d for x in row) for row in data.map_matrix.rows]

    def span(pair):
        out = set()
        for c0 in range(d):
            base = tuple((c0 * x) % d for x in pair[0])
            for c1 in range(d):
                out.add(tuple((b + c1 * y) % d for b, y in zip(base, pair[1])))
        return out

    second = span(rows[2:])
    return {tuple((a + b) % d for a, b in zip(s1, s2)) for s1 in span(rows[:2]) for s2 in second}


def invariant_image(data):
    """The full subgroup {m*B mod d} of (Z/d)^(n+1), by additive closure.

    Its order is |det A|: m*B == 0 (mod d) iff m lies in the row lattice
    of A, because A*B = d*I.
    """
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


def interior_sum_zero(image, d):
    """The sorted interior types (entries in (0, d), zero sum mod d) of a set."""
    return sorted(k for k in image if sum(k) % d == 0 and all(0 < e < d for e in k))


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


def is_gmax_invariant(k, b, d):
    """True iff k is congruent to a multiple of b modulo d, by trying every multiple."""
    return any(all((t * bi - ki) % d == 0 for bi, ki in zip(b, k)) for t in range(d))


def gmax_types_by_every_multiplier(data):
    """The distinct interior t*b mod d over every t < d, sorted: the PF types by definition."""
    d, b = data.degree, data.cover_exponents
    multiples = {tuple(t * bi % d for bi in b) for t in range(d)}
    return sorted(k for k in multiples if all(k))


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination with row swaps.

    Every step divides exactly by the previous pivot, so all entries stay
    integers; the suite checks it against `laplace_determinant`.
    """
    a, n = [list(row) for row in m.rows], m.n
    sign, prev = 1, 1
    for t in range(n - 1):
        if not a[t][t]:
            swap = next((i for i in range(t + 1, n) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap], sign = a[swap], a[t], -sign
        for i in range(t + 1, n):
            a[i] = [(a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev for j in range(n)]
        prev = a[t][t]
    return sign * a[-1][-1]


def laplace_determinant(rows):
    """Determinant by cofactor expansion along the first column."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for i in range(n):
        if rows[i][0] == 0:
            continue
        minor = [[rows[r][c] for c in range(1, n)] for r in range(n) if r != i]
        total += (-1) ** i * rows[i][0] * laplace_determinant(minor)
    return total


def adjugate(m):
    """Adjugate by cofactors: adj(M)[i][j] = (-1)^(i+j) * minor(M, j, i)."""
    n = m.n

    def minor(drop_row, drop_col):
        return laplace_determinant(
            [[m.rows[i][j] for j in range(n) if j != drop_col] for i in range(n) if i != drop_row]
        )

    return IntMatrix(tuple(tuple((-1) ** (i + j) * minor(j, i) for j in range(n)) for i in range(n)))


def diagonal_matrix(entries):
    n = len(entries)
    return IntMatrix(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))


def scaled(m, c):
    return IntMatrix(tuple(tuple(c * x for x in row) for row in m.rows))


def matrix_product(a, b):
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    columns = tuple(zip(*b.rows))
    return IntMatrix(tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a.rows))


def vector_times(v, m):
    """The row vector v*M."""
    if len(v) != m.n:
        raise ValueError("dimension mismatch")
    return tuple(sum(map(mul, v, col)) for col in zip(*m.rows))


def embedding(elem):
    """Numerical image of a cyclotomic element under zeta -> exp(2*pi*i/N)."""
    z = cmath.exp(2j * cmath.pi / elem.order)
    value, acc = 0j, 1 + 0j
    for a in elem.coeffs:
        if a:
            value += float(a) * acc
        acc *= z
    return value


def _closure_blocks(types, near):
    """Connected components of k ~ t, t in near(k), inside the set of types.

    Each block is sorted, and the blocks are listed by their least type.
    """
    type_set = set(map(tuple, types))
    blocks = []
    placed = set()
    for start in sorted(type_set):
        if start in placed:
            continue
        block = {start}
        frontier = [start]
        while frontier:
            k = frontier.pop()
            for t in near(k):
                if t in type_set and t not in block:
                    block.add(t)
                    frontier.append(t)
        placed |= block
        blocks.append(sorted(block))
    return blocks


def _plus_minus_b(k, b, d):
    return [tuple((x + y) % d for x, y in zip(k, b)), tuple((x - y) % d for x, y in zip(k, b))]


def strong_classes_by_closure(types, b, d):
    """Strong classes as the equivalence closure of k -> k + b inside the set.

    Blocks are the connected components of k ~ k +- b, found by a
    frontier search over the whole set rather than by walking arcs.
    """
    return _closure_blocks(types, lambda k: _plus_minus_b(k, b, d))


def weak_classes_all_units(types, b, d):
    """Weak classes with every unit multiple of every type as a neighbour.

    Blocks are the connected components of k ~ k +- b and k ~ u*k inside
    the set, each sorted, listed by their least type.
    """
    units = [u for u in range(1, d) if gcd(u, d) == 1]
    return _closure_blocks(types, lambda k: _plus_minus_b(k, b, d) + [tuple(u * x % d for x in k) for u in units])


def oracle_reduce(exponents, d):
    """Reduce a form by the cohomology relation, differentiating explicitly.

    Forms are tracked as (coefficient, numerator exponents, pole order).
    Each step picks the rightmost reducible variable, builds the auxiliary
    monomial G, differentiates G and the Fermat polynomial symbolically,
    and rewrites via  dG/dy_i / F^(t-1)  =  (t-1) * G * dF/dy_i / F^t.
    Returns (coefficient, type entries) or (0, None) for the zero class.
    """

    def d_monomial(coeff, exps, i):
        # explicit polynomial differentiation of a monomial
        if exps[i] == 0:
            return 0, exps
        new = list(exps)
        new[i] -= 1
        return coeff * exps[i], tuple(new)

    fermat = [tuple(d if j == i else 0 for j in range(len(exponents))) for i in range(len(exponents))]
    entries = [int(e) for e in exponents]
    assert sum(entries) % d == 0 and all(e >= 1 for e in entries)
    t = sum(entries) // d
    coeff = Fraction(1)
    numer = tuple(e - 1 for e in entries)
    while True:
        idx = None
        for i in range(len(numer) - 1, -1, -1):
            if numer[i] >= d - 1:
                idx = i
                break
        if idx is None:
            return coeff, tuple(e + 1 for e in numer)
        g_exps = list(numer)
        g_exps[idx] = numer[idx] - d + 1
        g = tuple(g_exps)
        dg_coeff, dg_exps = d_monomial(1, g, idx)
        # dF/dy_idx of the Fermat polynomial, term by term
        df_coeff, df_exps = 0, None
        for term in fermat:
            c, e = d_monomial(1, term, idx)
            if c:
                assert df_exps is None
                df_coeff, df_exps = c, e
        rhs_coeff = (t - 1) * df_coeff
        rhs_exps = tuple(a + b for a, b in zip(g, df_exps))
        assert rhs_exps == numer, "relation right-hand side must reproduce the numerator"
        if dg_coeff == 0:
            return Fraction(0), None
        coeff *= Fraction(dg_coeff, rhs_coeff)
        numer = dg_exps
        t -= 1


def chi_exponent(table, power, code):
    """zeta_d-exponent of chi^power at the nonzero element `code`, d = table.order.

    chi(g) = zeta_d for g = table.generator, and the log to base g is
    u = 1/log(g) mod q - 1 times the log in the field's table.
    """
    field = table.field
    u = pow(field.log[table.generator], -1, field.q - 1)
    return power * u * field.log[code] % table.order


def direct_jacobi_sum(table, powers):
    """J(chi^p1, ..., chi^pm) by enumerating v_1 + ... + v_m = 1, v_i nonzero.

    (q - 1)^(m - 1) tuples; any powers, trivial characters included.
    """
    field = OracleField.of(table.field)
    d = table.order
    m = len(powers)
    chi_log = [0] + [chi_exponent(table, 1, v) for v in range(1, field.q)]
    coeffs = [0] * d
    if m == 1:
        # single character: J = chi(1) = 1
        coeffs[0] = 1
        return CyclotomicElement(d, coeffs)
    one = field.from_int(1)

    def accumulate(prefix_exp, remaining, total_code):
        if remaining == 1:
            last = field.sub(one, total_code)
            if last == 0:
                return
            coeffs[(prefix_exp + powers[-1] * chi_log[last]) % d] += 1
            return
        idx = m - remaining
        for v in range(1, field.q):
            accumulate(
                (prefix_exp + powers[idx] * chi_log[v]) % d,
                remaining - 1,
                field.add(total_code, v),
            )

    accumulate(0, m, 0)
    return CyclotomicElement(d, coeffs)


def fermat_count_by_trace(d, n, field):
    """#X(F_q) for the degree-d Fermat hypersurface in P^n, n >= 1, from its Frobenius trace.

    (q^n - 1)/(q - 1) + (-1)^(n-1) * frobenius_trace over every interior
    type (k_0, ..., k_n) mod d; the types are built here, as
    `enumerate_basis` needs n >= 2.
    """
    types = [head + (-sum(head) % d,) for head in itertools.product(range(1, d), repeat=n) if sum(head) % d]
    q = field.q
    return (q**n - 1) // (q - 1) + (-1) ** (n - 1) * frobenius_trace(types, multiplicative_character(field, d))


def direct_eigenvalue(k, table):
    """(-1)^(n-1) * chi^(k_n)(-1) * J(chi^(k_0), ..., chi^(k_(n-1))), from the direct sum."""
    d = table.order
    k = tuple(e % d for e in k)
    field = OracleField.of(table.field)
    minus_one = field.sub(0, field.from_int(1))
    term = CyclotomicElement.zeta(d, chi_exponent(table, k[-1], minus_one)) * direct_jacobi_sum(table, k[:-1])
    return term if (len(k) - 2) % 2 == 0 else -term


def dense_expand(factors, d):
    """prod (1 - alpha T) over elements of Z[zeta_d] with dense group-ring products.

    Every coefficient must be a rational integer (`rational_value`).
    """
    coeffs = [CyclotomicElement.constant(d, 1)]
    for alpha in factors:
        new = coeffs + [CyclotomicElement.constant(d, 0)]
        for i in range(len(coeffs)):
            new[i + 1] = new[i + 1] - alpha * coeffs[i]
        coeffs = new
    return CharPoly(tuple(c.rational_value() for c in coeffs))


def char_poly_by_types(types, table):
    """prod (1 - j(k) T) expanded one type at a time over Z[zeta_d]."""
    d = table.order
    return dense_expand([direct_eigenvalue(k, table) for k in sorted(tuple(e % d for e in k) for k in types)], d)


# -- congruences mod p: exact at field sizes where no sum can be enumerated ------


@functools.cache
def _factorials_mod(p):
    """[0!, 1!, ..., (p-1)!] mod p."""
    table = [1] * p
    for i in range(1, p):
        table[i] = table[i - 1] * i % p
    return table


def eigenvalue_mod_p(k, e, p, g):
    """The eigenvalue j(k) of `zetafermat.jacobi_eigenvalue` mod P, by Stickelberger's congruence.

    P is the prime over p = 1 mod e with zeta_e = g^F mod P, F = (p-1)/e,
    where psi(g) = zeta_e; then psi(x) = x^F mod P.  For the n + 1 entries
    of k, b_i = k_i F and c_i = p - 1 - b_i, c' = b_(n-1) - sum c_i:
    expanding v_(n-1) = 1 - v_0 - ... - v_(n-2) in the sum over v of
    prod v_i^(b_i) keeps only v_i^(p-1), each summing to -1, so
      J(psi^k_0, ..., psi^k_(n-1)) = (-1)^(n-1 + sum c_i) b_(n-1)! / (prod c_i! c'!)
    when c' >= 0, and 0 otherwise (Ireland and Rosen, ch. 14).  The sign
    of j is psi^(k_n)(-1) = (-1)^(k_n F), times -1 when n + 1 is odd.
    Returns a residue in [0, p).
    """
    f = (p - 1) // e
    n = len(k) - 1
    b = [x % e * f for x in k[:n]]
    c = [p - 1 - x for x in b[:-1]]
    rest = b[-1] - sum(c)
    if rest < 0:
        return 0
    fact = _factorials_mod(p)
    value = fact[b[-1]] * pow(prod(fact[x] for x in c) * fact[rest], -1, p)
    minus = (n - 1 + sum(c) + k[n] % e * f + (n + 1) % 2) % 2
    return -value % p if minus else value % p


def hasse_witt(data, p):
    """Coefficients mod p, by power of lambda, of the Hasse-Witt invariant H_p(lambda).

    For a Calabi-Yau family in m variables (weights summing to the degree
    d, deformation monomial x_0 ... x_n), H_p(lambda) is the coefficient
    of (x_0 ... x_n)^(p-1) in F_lambda^(p-1), and summing F^(p-1) over
    F_p^m gives #X_lambda(F_p) = 1 + (-1)^m H_p(lambda) mod p (Katz,
    Invent. Math. 1972).  A term lambda^t needs the exponents
    e_A = ((p-1) - t) * (1, ..., 1) * A^(-1) of the rows of A to be
    non-negative integers, and then has coefficient
    multinomial(p-1; e_A, t), read off one factorial table mod p.
    """
    m = len(data.weights)
    assert sum(data.weights) == data.degree and data.deformation == (1,) * m, "not a Calabi-Yau family"
    # d * (1, ..., 1) * A^(-1) = (1, ..., 1) * B: d times the dual weights
    dual = [sum(col) for col in zip(*data.map_matrix.rows)]
    fact = _factorials_mod(p)
    coeffs = [0] * p
    for t in range(p):
        scaled = [(p - 1 - t) * w for w in dual]
        if any(x < 0 or x % data.degree for x in scaled):
            continue
        e_a = [x // data.degree for x in scaled]
        coeffs[t] = fact[p - 1] * pow(prod(fact[x] for x in e_a) * fact[t], -1, p) % p
    return coeffs


def brute_count_cone(spec, field):
    """Solutions of the spec in the affine cone, with no memo.

    Descends over the coordinates with prefix products and evaluates the
    whole polynomial at every one of the q^(n+1) points.
    """
    field = OracleField.of(field)
    q = field.q
    n1 = len(spec.weights)
    terms = [(exps, field.from_int(c)) for exps, c in spec.terms]
    terms = [(exps, c) for exps, c in terms if c != 0]
    if not terms:
        return q**n1
    n_terms = len(terms)
    # pw[t][i][v] = v^e(t,i) as a field code
    pw = [
        [[field.pow(v, exps[i]) for v in range(q)] for i in range(n1)]
        for exps, _ in terms
    ]
    add = field.add
    mul = field.mul
    count = 0

    def descend(depth, partials):
        nonlocal count
        if depth == n1:
            s = 0
            for value in partials:
                s = add(s, value)
            if s == 0:
                count += 1
            return
        for v in range(q):
            descend(
                depth + 1,
                tuple(mul(partials[t], pw[t][depth][v]) for t in range(n_terms)),
            )

    descend(0, tuple(c for _, c in terms))
    return count


def zech_traces(field):
    """Tr(g^j) = sum_i g^(j*p^i) from F_q to F_p for j < q - 1, added up by Zech addition."""
    field = OracleField.of(field)
    n = field.q - 1
    traces = []
    for j in range(n):
        tr = 0
        for i in range(field.k):
            tr = field.add(tr, field.exp[j * field.p**i % n])
        traces.append(tr)
    return traces


def count_cone_by_strata(spec, field):
    """The Gauss-sum cone count with its own kernel K_S for every subset S.

    Each coordinate subset S gets one `exactalg.kernel_mod` of
    [a_j|_S | 1] over the m terms supported in S, fresh tables for those
    terms and its own walk, with no work bound; `pointcount.count_cone`
    reads every K_S off one kernel instead.  Same formula:

        N*_S = (N^s + N^(s+1)/N^m * sum_(k in K_S) prod_j G(chi^(-k_j)) chi^(k_j)(c_j)) / q
    """
    field = OracleField.of(field)
    q, p, n = field.q, field.p, field.q - 1
    n1 = len(spec.weights)
    terms = [(exps, c % p) for exps, c in spec.terms if c % p]
    ell = auxiliary_prime(p, q, q**n1)
    omega, eta = _element_of_order(n, ell), _element_of_order(p, ell)
    pw = [pow(omega, i, ell) for i in range(n)]
    psi = [pow(eta, tr, ell) for tr in zech_traces(field)]
    gauss = [sum(map(mul, psi, [pw[-k * j % n] for j in range(n)])) % ell for k in range(n)]
    inv_n, inv_q = pow(n, -1, ell), pow(q, -1, ell)
    total = 0
    for s in range(n1 + 1):
        for subset in itertools.combinations(range(n1), s):
            outside = [i for i in range(n1) if i not in subset]
            live = [(e, c) for e, c in terms if not any(e[i] for i in outside)]
            if not live:
                total += n**s
                continue
            u, steps = kernel_mod([[e[i] for i in subset] + [1] for e, _ in live], n)
            tables = [[g * pw[k * field.log[c] % n] % ell for k, g in enumerate(gauss)] for _, c in live]
            char_sum = sum(prod(map(getitem, tables, k)) % ell for k in kernel_elements(u, steps, n))
            total += (n**s + n ** (s + 1) * pow(inv_n, len(live), ell) * char_sum) * inv_q
    return total % ell


def projective_points(field, n1):
    """Representatives of P^(n1-1)(F_q): first nonzero coordinate = 1."""
    q = field.q
    for lead in range(n1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=n1 - lead - 1):
            yield prefix + tail


def brute_general_position(spec, field, max_ext=1):
    """Toric general position over F_(q^j), j <= max_ext, point by point.

    Multiplies out every monomial at every projective point, then asks
    whether all x_i * df/dx_i and f vanish there.
    """
    base_terms = [t for t in spec.terms if t[1] % field.p != 0]
    n1 = len(spec.weights)
    for j in range(1, max_ext + 1):
        ext = OracleField.of(field) if j == 1 else OracleField(field.p, field.k * j)
        terms = [(exps, ext.from_int(c)) for exps, c in base_terms]
        # x_i * df/dx_i has the same monomials as f, coefficients scaled by e_i
        equations = [
            [ext.mul(c, ext.from_int(exps[i])) for exps, c in terms] for i in range(n1)
        ]
        equations.append([c for _, c in terms])
        for point in projective_points(ext, n1):
            values = []
            for exps, _ in terms:
                v = 1
                for x, e in zip(point, exps):
                    v = ext.mul(v, ext.pow(x, e))
                values.append(v)
            if all(
                _field_sum(ext, [ext.mul(c, v) for c, v in zip(coeffs, values)]) == 0
                for coeffs in equations
            ):
                return False
    return True


def _field_sum(field, values):
    s = 0
    for v in values:
        s = field.add(s, v)
    return s


@dataclass(frozen=True)
class CoverReport:
    """Empirical verification of the monomial map from the cover."""

    containment: bool
    fiber_histogram: dict[int, int]
    points_on_cover: int


def verify_cover_map(data, lam, field):
    """Push every all-nonzero rational point of Y_lambda through the map.

    The map sends y to the monomials given by the rows of B (negative
    exponents via inversion, which is free in log space).  Containment
    means every image satisfies the family's equation; the histogram
    counts cover points per distinct image point of P(w).
    """
    field = OracleField.of(field)
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

    def x_equation(x):
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

    def canonical_image(x):
        best = None
        for t in field.units():
            scaled = tuple(mul(field.pow(t, weights[i]), x[i]) for i in range(n1))
            if best is None or scaled < best:
                best = scaled
        return best

    containment = True
    fibers = {}
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
    histogram = {}
    for size in fibers.values():
        histogram[size] = histogram.get(size, 0) + 1
    return CoverReport(containment, histogram, points)


def is_galois_invariant(elem):
    """True iff every automorphism zeta -> zeta^u of Q(zeta_N) fixes elem."""
    n = elem.order
    return all(elem.galois(u) == elem for u in range(2, n) if gcd(u, n) == 1)


# -- a tuple-keyed reference for symbolic.MultiPoly -----------------------------
#
# A polynomial is {exponent tuple over REF_VARS: coefficient}, and a
# coefficient in Q(zeta_8) is its coordinates (c0, c1, c2, c3) on
# 1, z, z^2, z^3 with z^4 = -1.  Graded-lex order compares
# (total degree, exponent tuple).

REF_VARS = ("lam", "u", "v", "x0", "x1", "x2", "x3", "a", "a2", "a3", "b", "c", "s")
_REF_ZERO = (Fraction(0),) * 4


def ref_coeff(value, zeta_power=0):
    """value * z^zeta_power in Q(zeta_8) coordinates."""
    k = zeta_power % 8
    out = list(_REF_ZERO)
    out[k % 4] = Fraction(value) if k < 4 else -Fraction(value)
    return tuple(out)


def _ref_coeff_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _ref_coeff_mul(a, b):
    out = list(_REF_ZERO)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 4:
                out[i + j] += x * y
            else:
                out[i + j - 4] -= x * y
    return tuple(out)


def _ref_coeff_text(c):
    """A coefficient as MultiPoly prints it: rationals bare, the rest in parentheses."""
    if not any(c[1:]):
        return str(c[0])
    parts = []
    for i, a in enumerate(c):
        if a == 0:
            continue
        if i == 0:
            parts.append(str(a))
        else:
            sym = "z8" if i == 1 else f"z8^{i}"
            parts.append(sym if a == 1 else f"{a}*{sym}")
    return "(" + " + ".join(parts).replace("+ -", "- ") + ")"


def _graded_lex(exps):
    return (sum(exps), exps)


class RefPoly:
    """Sparse polynomial over Q(zeta_8) keyed by full exponent tuples."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if any(c)}

    @classmethod
    def from_named(cls, names, terms):
        """From {exponent tuple over `names`: Q(zeta_8) coordinates}."""
        out = {}
        for exps, c in terms.items():
            full = [0] * len(REF_VARS)
            for name, e in zip(names, exps):
                full[REF_VARS.index(name)] = e
            out[tuple(full)] = c
        return cls(out)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = _ref_coeff_add(out.get(e, _REF_ZERO), c)
        return RefPoly(out)

    def __neg__(self):
        return RefPoly({e: tuple(-x for x in c) for e, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = _ref_coeff_add(out.get(e, _REF_ZERO), _ref_coeff_mul(ca, cb))
        return RefPoly(out)

    def vars(self):
        return tuple(name for i, name in enumerate(REF_VARS) if any(e[i] for e in self.terms))

    def degree_in(self, name):
        i = REF_VARS.index(name)
        return max((e[i] for e in self.terms), default=0)

    def coeff_in(self, name, power):
        i = REF_VARS.index(name)
        return RefPoly({e[:i] + (0,) + e[i + 1 :]: c for e, c in self.terms.items() if e[i] == power})

    def is_rational(self):
        return not any(any(c[1:]) for c in self.terms.values())

    def exact_div(self, q):
        """The quotient self / q over Q, or None when q does not divide self.

        Each step divides the graded-lex leading term of the remainder by
        that of q; when q divides self, the leading term of q divides the
        leading term of every remainder, because lt(q*h) = lt(q)*lt(h).
        """
        assert self.is_rational() and q.is_rational(), "division is over Q"
        q_lead = max(q.terms, key=_graded_lex)
        q_inverse = ref_coeff(1 / q.terms[q_lead][0])
        rem = self
        out = {}
        while rem.terms:
            lead = max(rem.terms, key=_graded_lex)
            shift = tuple(x - y for x, y in zip(lead, q_lead))
            if min(shift) < 0:
                return None
            c = _ref_coeff_mul(rem.terms[lead], q_inverse)
            out[shift] = c
            rem = rem + -(RefPoly({shift: c}) * q)
        return RefPoly(out)

    def text(self):
        """The graded-lex rendering that MultiPoly.__str__ produces."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_graded_lex, reverse=True):
            monomial = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(REF_VARS, e) if k)
            coeff = _ref_coeff_text(self.terms[e])
            if not monomial:
                parts.append(coeff)
            elif coeff in ("1", "-1"):
                parts.append(coeff[:-1] + monomial)
            else:
                parts.append(f"{coeff}*{monomial}")
        return " + ".join(parts).replace("+ -", "- ")


# -- references for symbolic's substitution and resultant -------------------------


def substitute_by_terms(poly, mapping):
    """poly with its variables replaced, one term at a time.

    Each term's image is the product of its coefficient and the powers of
    the images, added to a running sum, so every step is one MultiPoly
    product or sum.
    """
    images = {name: MultiPoly._coerce(value) for name, value in mapping.items()}
    result = MultiPoly.zero()
    for key, c in poly.terms.items():
        term = MultiPoly.constant(c)
        for name, e in _exponents(key):
            term = term * images.get(name, MultiPoly.variable(name)) ** e
        result = result + term
    return result


def sylvester_resultant(p, q, name):
    """Resultant of p and q in `name`: the Bareiss determinant of their Sylvester matrix.

    The n = deg q rows of p's coefficients come first, then the m = deg p
    rows of q's.  Every Bareiss step divides exactly by the previous pivot,
    so no rational functions appear.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    cp, cq = p.as_univariate(name), q.as_univariate(name)
    m, n = len(cp) - 1, len(cq) - 1
    if m == 0 and n == 0:
        return MultiPoly.constant(1)
    size = m + n
    a = [[MultiPoly.zero()] * size for _ in range(size)]
    for row in range(n):
        for j, coeff in enumerate(reversed(cp)):
            a[row][row + j] = coeff
    for row in range(m):
        for j, coeff in enumerate(reversed(cq)):
            a[n + row][row + j] = coeff
    sign = 1
    prev = MultiPoly.constant(1)
    for k in range(size - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, size) if not a[i][k].is_zero()), None)
            if swap is None:
                return MultiPoly.zero()
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = a[i][j] * pivot - a[i][k] * a[k][j]
                a[i][j] = exact_div(num, prev) if not num.is_zero() else MultiPoly.zero()
            a[i][k] = MultiPoly.zero()
        prev = pivot
    det = a[size - 1][size - 1]
    return -det if sign < 0 else det
