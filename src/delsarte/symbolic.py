"""Exact multivariate polynomials and the bitangent-elimination pipeline.

Coefficients are rationals or elements of Q(zeta_8) (enough for I and
sqrt(2)); terms live in a sparse dict keyed by packed monomials, one int
per exponent vector, whose integer order is graded-lex order.  On top
of the arithmetic this module provides quadratic discriminants,
resultants by the subresultant PRS, and the full derivation of the
bitangents to the five special plane quartics attached to the families
1, 2, 3, 6, 7: the degree-20/24 eliminants in the slope parameter, the
vertical-line bitangents, the quotient identities, and the isomorphisms
between the three del Pezzo quotient surfaces of each family.  These
derivations are memoized (`functools.cache`), so one process derives
each of them once however many checks or runs of `appendix_checks` use
them: per family index, the quotient surfaces, branch quartics,
restrictions, eliminants, vertical-bitangent conditions and products of
the expected eliminant factors; the isomorphism registry (a tuple); and
per registry index, the image of the source surface under its
substitution.  Every check still compares on every run.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm

from . import deformation
from .cyclotomic import CyclotomicElement

# Canonical variable order.  A monomial is packed into one int with a
# 16-bit field per variable, VAR_ORDER[0] highest, and the total degree in
# a field above them all, so integer order on keys is graded-lex order and
# a product of monomials is one addition.  The top bit of each field is a
# guard bit that stays clear: every exponent and total degree is below
# 2^15 (Monagan & Pearce, "Polynomial Division Using Dynamic Arrays,
# Heaps, and Packed Exponent Vectors", CASC 2007).
VAR_ORDER = ("lam", "u", "v", "x0", "x1", "x2", "x3", "a", "a2", "a3", "b", "c", "s")

_BITS = 16
_LIMIT = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1
_DEG = _BITS * len(VAR_ORDER)
_SHIFT = {name: _DEG - _BITS * (j + 1) for j, name in enumerate(VAR_ORDER)}
_GUARDS = sum(_LIMIT << (_BITS * j) for j in range(len(VAR_ORDER) + 1))

CYCLOTOMIC_ORDER = 8


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a remainder where none was allowed."""


def zeta8(power: int = 1) -> CyclotomicElement:
    return CyclotomicElement.zeta(CYCLOTOMIC_ORDER, power)


def root_i() -> CyclotomicElement:
    """I with I^2 = -1, realized as zeta_8^2."""
    return zeta8(2)


def _shift(name: str) -> int:
    if name not in _SHIFT:
        raise ValueError(f"unknown variable {name!r}")
    return _SHIFT[name]


def _var_key(name: str) -> int:
    """Packed monomial of the variable `name`."""
    return (1 << _shift(name)) | (1 << _DEG)


def _exponents(key: int) -> list[tuple[str, int]]:
    """(name, exponent) for every variable of a packed monomial, in VAR_ORDER."""
    return [(name, e) for name, shift in _SHIFT.items() if (e := (key >> shift) & _MASK)]


# -- coefficient arithmetic (int | Fraction | CyclotomicElement) --------------
#
# CyclotomicElement's operators take int and Fraction operands on either
# side; every cyclotomic coefficient here has order 8, so none are mixed.
# Stored coefficients are canonical (`_c_norm`) and nonzero, so a stored
# cyclotomic coefficient is never rational and `if c` is a zero test.


def _c_norm(c):
    """Canonical coefficient: rational values never hide in a larger ring."""
    if isinstance(c, CyclotomicElement):
        red = c.reduced()
        if any(red[1:]):
            return c
        c = red[0]
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _c_div(a, b):
    """a / b for coefficients a and nonzero b.

    A cyclotomic b is divided through its norm: N(b) = prod_u sigma_u(b)
    over the units u mod 8 is rational, so a / b = a * c / N(b) with c the
    product of the conjugates sigma_3(b) sigma_5(b) sigma_7(b).
    """
    if isinstance(b, CyclotomicElement):
        c = b.galois(3) * b.galois(5) * b.galois(7)
        a, b = a * c, _c_norm(b * c)
    if isinstance(a, CyclotomicElement):
        return _c_norm(a * (1 / Fraction(b)))
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _c_norm(Fraction(a) / Fraction(b))


def _wrap(terms: dict) -> MultiPoly:
    """A polynomial over packed terms whose coefficients are canonical and nonzero."""
    poly = object.__new__(MultiPoly)
    poly.terms = terms
    return poly


def _canonical(raw: dict) -> MultiPoly:
    """A polynomial over packed terms, normalizing non-int coefficients and dropping zeros."""
    out = {}
    for key, c in raw.items():
        if type(c) is not int:
            c = _c_norm(c)
        if c:
            out[key] = c
    return _wrap(out)


class MultiPoly:
    """Sparse exact polynomial in the variables of VAR_ORDER.

    `MultiPoly(vars, terms)` takes the variable names and a dict from
    exponent tuples over them to coefficients.  `terms` then maps packed
    monomials to nonzero canonical coefficients, and `vars` names the
    variables that occur, in VAR_ORDER.  Instances are immutable by
    convention.
    """

    __slots__ = ("terms",)

    def __init__(self, vars: tuple[str, ...] = (), terms: dict | None = None):
        shifts = [_shift(name) for name in vars]
        if len(set(vars)) != len(shifts):
            raise ValueError(f"repeated variable in {tuple(vars)!r}")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(shifts):
                raise ValueError(f"exponent tuple {exps!r} does not match the variables {tuple(vars)!r}")
            key = total = 0
            for shift, e in zip(shifts, exps):
                if not 0 <= e < _LIMIT:
                    raise ValueError(f"exponent {e!r} in {exps!r} is outside [0, 2^15)")
                key |= e << shift
                total += e
            if total >= _LIMIT:
                raise ValueError(f"total degree {total} of {exps!r} is not below 2^15")
            c = _c_norm(c)
            if c:
                clean[key | total << _DEG] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c) -> MultiPoly:
        c = _c_norm(c)
        return _wrap({0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> MultiPoly:
        return _wrap({_var_key(name): 1})

    @classmethod
    def zero(cls) -> MultiPoly:
        return _wrap({})

    # -- representation helpers ------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        """Names of the variables that occur in some term, in VAR_ORDER."""
        used = 0
        for key in self.terms:
            used |= key
        return tuple(name for name, _ in _exponents(used))

    def is_zero(self) -> bool:
        return not self.terms

    @staticmethod
    def _coerce(value) -> MultiPoly:
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.constant(value)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other) -> MultiPoly:
        out = dict(self.terms)
        for key, c in self._coerce(other).terms.items():
            if key in out:
                c += out[key]
                if type(c) is not int:
                    c = _c_norm(c)
                if not c:
                    del out[key]
                    continue
            out[key] = c
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return _wrap({key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> MultiPoly:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> MultiPoly:
        return self._coerce(other) - self

    def __mul__(self, other) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            return self._scaled(other)
        ta, tb = self.terms, other.terms
        if not ta or not tb:
            return _wrap({})
        degree = (max(ta) >> _DEG) + (max(tb) >> _DEG)
        if degree >= _LIMIT:
            raise OverflowError(f"product of total degree {degree} is not below 2^15")
        out: dict = {}
        get = out.get
        for ka, ca in ta.items():
            for kb, cb in tb.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        return _canonical(out)

    __rmul__ = __mul__

    def _scaled(self, c) -> MultiPoly:
        """self * c for a scalar c, in one pass over the terms."""
        c = _c_norm(c)
        if not c:
            return _wrap({})
        out = {}
        for key, v in self.terms.items():
            v *= c
            if type(v) is not int:
                v = _c_norm(v)
            # a product of nonzero field elements is nonzero
            out[key] = v
        return _wrap(out)

    def __pow__(self, e: int) -> MultiPoly:
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return MultiPoly.constant(1)
        # bit_length(e) - 1 squarings and popcount(e) - 1 other products
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        # canonical coefficients: equal polynomials have equal term dicts
        return self.terms == self._coerce(other).terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure --------------------------------------------------------------

    def degree_in(self, name: str) -> int:
        shift = _shift(name)
        return max(((key >> shift) & _MASK for key in self.terms), default=0)

    def coeff_in(self, name: str, power: int) -> MultiPoly:
        """Coefficient of name^power, as a polynomial in the other variables."""
        shift = _shift(name)
        drop = power * _var_key(name)
        return _wrap({key - drop: c for key, c in self.terms.items() if (key >> shift) & _MASK == power})

    def as_univariate(self, name: str) -> list[MultiPoly]:
        """Coefficients [c_0, ..., c_deg] with self = sum c_k * name^k."""
        return [self.coeff_in(name, k) for k in range(self.degree_in(name) + 1)]

    def substitute(self, mapping) -> MultiPoly:
        """Simultaneous substitution; values may be polynomials or scalars.

        Each term's image, scaled by its coefficient, is gathered into one
        raw dict that is canonicalized once at the end.  A constant image
        folds into the coefficient as a scalar power.
        """
        images, scalars = {}, {}
        for name, value in mapping.items():
            image = self._coerce(value)
            if image.terms.keys() <= {0}:
                scalars[name] = image.terms.get(0, 0)
            else:
                images[name] = image
        power_cache: dict[tuple[str, int], MultiPoly] = {}
        out: dict = {}
        get = out.get
        for key, c in self.terms.items():
            term = None
            for name, e in _exponents(key):
                if name in scalars:
                    c = c * scalars[name] ** e
                    continue
                power = power_cache.get((name, e))
                if power is None:
                    power = power_cache[name, e] = images.get(name, MultiPoly.variable(name)) ** e
                term = power if term is None else term * power
            if term is None:
                out[0] = get(0, 0) + c
                continue
            for k, v in term.terms.items():
                out[k] = get(k, 0) + c * v
        return _canonical(out)

    # -- rational normalization ---------------------------------------------------

    def content_and_primitive(self) -> tuple[Fraction, MultiPoly]:
        """Write self = content * primitive with integer primitive part.

        The primitive part has coprime integer coefficients and positive
        graded-lex leading coefficient.  Rational coefficients only.
        """
        if self.is_zero():
            return Fraction(0), self
        poly = self.rationalized()
        denom = 1
        for c in poly.terms.values():
            denom = lcm(denom, Fraction(c).denominator)
        numer = 0
        for c in poly.terms.values():
            numer = gcd(numer, (Fraction(c) * denom).numerator)
        content = Fraction(numer, denom)
        if poly.terms[max(poly.terms)] < 0:
            content = -content
        prim = _wrap({key: _c_norm(Fraction(c) / content) for key, c in poly.terms.items()})
        return content, prim

    def primitive_part(self) -> MultiPoly:
        return self.content_and_primitive()[1]

    def rationalized(self) -> MultiPoly:
        """Self, checked to have rational coefficients only.

        Coefficients are canonical, so a cyclotomic one is genuinely
        irrational: InexactDivisionError.
        """
        if any(isinstance(c, CyclotomicElement) for c in self.terms.values()):
            raise InexactDivisionError("coefficient is not rational")
        return self

    def equal_up_to_scalar(self, other: MultiPoly) -> bool:
        """True iff self = s * other for a nonzero scalar s (cross-multiplied)."""
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.terms.keys() != other.terms.keys():
            return False
        lead = max(self.terms)
        return (self * other.terms[lead]) == (other * self.terms[lead])

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            monomial = "*".join(f"{name}^{e}" if e > 1 else name for name, e in _exponents(key))
            if isinstance(c, CyclotomicElement):
                coeff_str = f"({c})"
            else:
                coeff_str = str(c)
            if monomial:
                if coeff_str == "1":
                    parts.append(monomial)
                elif coeff_str == "-1":
                    parts.append(f"-{monomial}")
                else:
                    parts.append(f"{coeff_str}*{monomial}")
            else:
                parts.append(coeff_str)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _quotient(p: MultiPoly, q: MultiPoly) -> MultiPoly | str:
    """Exact polynomial quotient p / q, or the reason (a str) there is none.

    The leading monomial of the remainder is its largest key; it is
    divisible by q's leading monomial iff no guard bit is borrowed when
    subtracting that monomial from it with every guard bit set.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    q_lead = max(q.terms)
    q_lead_c = q.terms[q_lead]
    q_rest = [(key, c) for key, c in q.terms.items() if key != q_lead]
    rem = dict(p.terms)
    out: dict = {}
    while rem:
        lead = max(rem)
        if ((lead | _GUARDS) - q_lead) & _GUARDS != _GUARDS:
            return "leading term not divisible"
        c = _c_div(rem.pop(lead), q_lead_c)
        diff = lead - q_lead
        # leading monomials strictly decrease, so each quotient term is new
        out[diff] = c
        for kb, cb in q_rest:
            key = diff + kb
            val = rem.get(key, 0) - c * cb
            if isinstance(val, CyclotomicElement):
                val = _c_norm(val)
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return _wrap(out)


def exact_div(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact polynomial quotient p / q; raises InexactDivisionError otherwise."""
    quotient = _quotient(p, q)
    if isinstance(quotient, str):
        raise InexactDivisionError(quotient)
    return quotient


def divides(q: MultiPoly, p: MultiPoly) -> bool:
    return not isinstance(_quotient(p, q), str)


def discriminant_in(p: MultiPoly, name: str) -> MultiPoly:
    """Discriminant B^2 - 4AC of a polynomial of degree exactly 2 in `name`."""
    if p.degree_in(name) != 2:
        raise ValueError(f"polynomial does not have degree 2 in {name}")
    a = p.coeff_in(name, 2)
    b = p.coeff_in(name, 1)
    c = p.coeff_in(name, 0)
    return b * b - 4 * a * c


def _pseudo_remainder(a: list[MultiPoly], b: list[MultiPoly]) -> list[MultiPoly]:
    """Coefficients of lc(b)^(deg a - deg b + 1) * a mod b, without leading zeros."""
    lead, db = b[-1], len(b) - 1
    r, e = a[:], len(a) - db
    while len(r) > db:
        top = r.pop()
        shift = len(r) - db
        r = [c * lead for c in r]
        for j in range(db):
            r[shift + j] = r[shift + j] - top * b[j]
        e -= 1
        while r and r[-1].is_zero():
            r.pop()
    if e and r:
        scale = lead**e
        r = [c * scale for c in r]
    return r


def resultant(p: MultiPoly, q: MultiPoly, name: str) -> MultiPoly:
    """Sylvester resultant of p and q with respect to `name`.

    The sign is that of the Sylvester determinant with the rows of p
    first.  Computed by the subresultant PRS (Collins, J. ACM 1967; Brown
    and Traub, J. ACM 1971) on coefficient lists in `name`: each
    pseudo-remainder divides exactly by g*h^delta, so no rational
    functions appear and the coefficients stay as small as the
    subresultants they are.  Fraction coefficients are cleared first:
    with L_p and L_q the lcm of the denominators of p and q,
    res(L_p p, L_q q) = L_p^deg(q) L_q^deg(p) res(p, q).
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    (p, lp), (q, lq) = _cleared(p), _cleared(q)
    a, b = p.as_univariate(name), q.as_univariate(name)
    scale = lp ** (len(b) - 1) * lq ** (len(a) - 1)
    sign = 1
    if len(a) < len(b):
        # res(q, p) = (-1)^(deg p * deg q) res(p, q); each step below
        # takes the same sign for its own pair of degrees
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = MultiPoly.constant(1)
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return MultiPoly.zero()
        divisor = g * h**delta
        a, b = b, r if divisor == 1 else [exact_div(c, divisor) for c in r]
        g = a[-1]
        if delta:
            h = g**delta if delta == 1 else exact_div(g**delta, h ** (delta - 1))
    da = len(a) - 1
    h = b[0] ** da if da == 1 or h == 1 else exact_div(b[0] ** da, h ** (da - 1))
    if scale != 1:
        h = h * Fraction(1, scale)
    return -h if sign < 0 else h


def _cleared(p: MultiPoly) -> tuple[MultiPoly, int]:
    """(L * p, L) with L the lcm of the denominators of p's Fraction coefficients."""
    denom = 1
    for c in p.terms.values():
        if type(c) is Fraction:
            denom = lcm(denom, c.denominator)
    return (p if denom == 1 else p * denom), denom


# -- named polynomials ---------------------------------------------------------


def _v(name: str) -> MultiPoly:
    return MultiPoly.variable(name)


def _build_registry() -> dict[str, MultiPoly]:
    lam = _v("lam")
    u, v = _v("u"), _v("v")
    x2, x3 = _v("x2"), _v("x3")
    i_unit = MultiPoly.constant(root_i())
    reg: dict[str, MultiPoly] = {}
    reg["h1"] = u**4 - 4 * u**2 * v + 2 * v**2 + lam * v * x2 * x3
    reg["h2"] = u**2 * v - 2 * v**2 + lam * v * x2 * x3
    reg["h3"] = u**4 + 4 * u**2 * v + 2 * v**2 + lam * v * x2 * x3
    reg["h4"] = u**2 * v + 2 * v**2 + lam * v * x2 * x3
    reg["h5"] = u**4 - 4 * i_unit * u**2 * v - 2 * v**2 + lam * v * x2 * x3
    # Discriminants of the sigma-quotient surfaces in v; reference
    # transcriptions (q3 printed with a stray factor "t", q6/q7 printed
    # with the pure-quartic tail on x2 instead of x3 -- all three are
    # reproduced below by recomputation, which is the ground truth).
    reg["q1"] = (
        8 * u**4
        - 8 * lam * u**2 * x2 * x3
        + lam**2 * x2**2 * x3**2
        - 8 * x2**4
        - 8 * x3**4
    )
    reg["q2"] = (
        8 * u**4
        - 8 * lam * u**2 * x2 * x3
        + lam**2 * x2**2 * x3**2
        - 8 * x2**3 * x3
        - 8 * x2 * x3**3
    )
    reg["q3"] = (
        u**4
        + 2 * lam * u**2 * x2 * x3
        + lam**2 * x2**2 * x3**2
        + 8 * x2**3 * x3
        + 8 * x2 * x3**3
    )
    reg["q6"] = (
        8 * u**4
        - 8 * lam * u**2 * x2 * x3
        + lam**2 * x2**2 * x3**2
        - 8 * x2**3 * x3
        - 8 * x3**4
    )
    reg["q7"] = (
        u**4
        + 2 * lam * u**2 * x2 * x3
        + lam**2 * x2**2 * x3**2
        + 8 * x2**3 * x3
        + 8 * x3**4
    )
    return reg


_REGISTRY = _build_registry()

FAMILY_INDICES = (1, 2, 3, 6, 7)


def builtin(name: str) -> MultiPoly:
    """Named reference polynomial (h1..h5, q1, q2, q3, q6, q7)."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown polynomial {name!r}")
    return _REGISTRY[name]


def _family_entry(i: int) -> tuple:
    if i not in FAMILY_INDICES:
        raise ValueError(f"family index must be one of {FAMILY_INDICES}")
    return deformation.FAMILIES[f"family{i}"]


def family_quartic(i: int) -> MultiPoly:
    """Defining polynomial sum x^row + lam*x^a of family i, for i in {1, 2, 3, 6, 7}.

    Read from the exponent rows and deformation vector of
    `deformation.FAMILIES`.
    """
    rows, a_vec = _family_entry(i)
    terms = {(0, *row): 1 for row in rows}
    terms[(1, *a_vec)] = 1
    return MultiPoly(("lam", "x0", "x1", "x2", "x3"), terms)


def family_split(i: int) -> tuple[MultiPoly, MultiPoly]:
    """(f, g) with f + g the quartic of family i and g free of x0 and x1."""
    quartic = family_quartic(i)
    g = quartic.coeff_in("x0", 0).coeff_in("x1", 0)
    return quartic - g, g


@cache
def quotient_surface(i: int, sheet: int) -> MultiPoly:
    """Defining polynomial of the degree-2 del Pezzo quotient surface.

    sheet 1: quotient by the plain swap of x0, x1 (coordinates u = x0+x1,
    v = x0*x1); sheet 2: quotient by the signed swap (u = x0-x1); sheet 3
    (families 1, 2, 6 only): quotient by the order-4 signed swap.  The
    (x0, x1) block of the family is either Fermat (x0^4 + x1^4, surfaces
    h1, h3) or a loop (x0^3*x1 + x0*x1^3, surfaces h2, h4).
    """
    fermat = (4, 0, 0, 0) in _family_entry(i)[0]
    g = family_split(i)[1]
    if sheet == 1:
        return builtin("h1" if fermat else "h2") + g
    if sheet == 2:
        return builtin("h3" if fermat else "h4") + g
    if sheet == 3:
        if i not in (1, 2, 6):
            raise ValueError("sheet 3 exists for families 1, 2, 6 only")
        return builtin("h5") + g
    raise ValueError("sheet must be 1, 2 or 3")


@cache
def branch_quartic(i: int) -> MultiPoly:
    """Discriminant (in v) of the sheet-1 quotient surface: a plane quartic."""
    return discriminant_in(quotient_surface(i, 1), "v")


def verify_quotient_identity(j: int) -> bool:
    """Check h_j(x0+x1, x0*x1, x2, x3) == f(x0, x1, x2, x3) exactly.

    f is the (x0, x1) part of family 1 (Fermat block) for j = 1 and of
    family 3 (loop block) for j = 2.
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    h = builtin(f"h{j}")
    f = family_split(1 if j == 1 else 3)[0]
    image = h.substitute({"u": _v("x0") + _v("x1"), "v": _v("x0") * _v("x1")})
    return (image - f).is_zero()


def verify_isomorphism(substitution: dict, source: MultiPoly, target: MultiPoly) -> bool:
    """True iff source composed with the substitution equals target up to scalar.

    The substitution maps variable names to polynomials (or scalars);
    mapping `lam` is allowed, for the isomorphisms that act on the
    deformation parameter as well.
    """
    image = source.substitute(substitution)
    return image.equal_up_to_scalar(target)


@cache
def _a2_isomorphism_registry() -> tuple:
    """Verified coordinate maps between the quotient surfaces.

    Each entry is (name, substitution, source, target): source and target
    are the (family, sheet) of a `quotient_surface`, and source o
    substitution == target up to a nonzero scalar.  No surface is built
    here.  Every map has been recomputed from the surface equations; the
    test suite re-verifies each one by exact expansion.
    """
    i_unit, z8 = MultiPoly.constant(root_i()), lambda k: MultiPoly.constant(zeta8(k))
    u, v, x2, x3, lam = _v("u"), _v("v"), _v("x2"), _v("x3"), _v("lam")
    entries = [(f"family{i}: sheet2 -> sheet1", {"u": i_unit * u}, (i, 2), (i, 1)) for i in (1, 2, 6)]
    return tuple(entries) + (
        ("family3: sheet2 -> sheet1", {"u": i_unit * u, "x3": -x3}, (3, 1), (3, 2)),
        (
            "family7: sheet2 -> sheet1 (acts on lam)",
            {"u": z8(3) * u, "v": i_unit * v, "lam": -i_unit * lam},
            (7, 1),
            (7, 2),
        ),
        ("family1: sheet3 -> sheet2", {"v": i_unit * v, "x3": -i_unit * x3}, (1, 3), (1, 2)),
        ("family2: sheet3 -> sheet2", {"v": i_unit * v, "x2": z8(1) * x2, "x3": z8(5) * x3}, (2, 3), (2, 2)),
        ("family6: sheet3 -> sheet2 (acts on lam)", {"v": i_unit * v, "lam": -i_unit * lam}, (6, 3), (6, 2)),
    )


@cache
def _isomorphism_image(index: int) -> MultiPoly:
    """The source surface of registry entry `index` composed with its substitution."""
    _, substitution, source, _ = _a2_isomorphism_registry()[index]
    return quotient_surface(*source).substitute(substitution)


# -- bitangents ----------------------------------------------------------------


def _strip_spurious(poly: MultiPoly) -> MultiPoly:
    """Remove every factor a2 and a2^4 - 1 of poly.

    The power of a2 is its least exponent over the terms, taken off in
    one pass; a2^4 - 1 is divided out by trial while it divides.
    """
    low = min(((key >> _SHIFT["a2"]) & _MASK for key in poly.terms), default=0)
    if low:
        drop = low * _var_key("a2")
        poly = _wrap({key - drop: c for key, c in poly.terms.items()})
    quartic = _v("a2") ** 4 - 1
    while not isinstance(reduced := _quotient(poly, quartic), str):
        poly = reduced
    return poly


@cache
def _restriction(i: int) -> tuple[MultiPoly, ...]:
    r = branch_quartic(i).substitute({"u": _v("a2") * _v("x2") + _v("a3") * _v("x3")})
    return tuple(r.coeff_in("x2", 4 - j).coeff_in("x3", j) for j in range(5))


def bitangent_restriction(i: int) -> list[MultiPoly]:
    """Coefficients r_0..r_4 (in x2^(4-j) x3^j) of the quartic on u = a2 x2 + a3 x3."""
    return list(_restriction(i))


def bitangent_leading_factor(i: int) -> MultiPoly:
    """The x2^4 coefficient of the restricted quartic (a polynomial in a2)."""
    return _restriction(i)[0]


@cache
def bitangent_eliminant(i: int) -> MultiPoly:
    """Eliminant in (lam, a2) whose roots give the slant bitangents.

    A line u = a2*x2 + a3*x3 is bitangent to the branch quartic iff the
    restriction equals C*(x2^2 + b*x2*x3 + c*x3^2)^2 for some b, c, with
    C the x2^4 coefficient of the restriction.  Solving the two linear
    conditions for b and c and clearing denominators leaves two
    polynomial conditions; eliminating a3 by a resultant and
    stripping the spurious content (powers of a2 and of a2^4 - 1 coming
    from the cleared denominators) yields a primitive polynomial of
    degree 20 (family 1) or 24 (families 2, 3, 6, 7) in a2.  Cached: the
    five eliminants are shared by several checks.
    """
    r0, r1, r2, r3, r4 = _restriction(i)
    c_lead = r0
    e1 = 8 * c_lead**2 * r3 - 4 * c_lead * r1 * r2 + r1**3
    e2 = 64 * c_lead**3 * r4 - (4 * c_lead * r2 - r1**2) ** 2
    res = resultant(e1, e2, "a3")
    return _strip_spurious(res.primitive_part()).primitive_part()


@cache
def vertical_bitangents(i: int) -> MultiPoly:
    """Condition on a for the line x2 = a*x3 to be bitangent, up to scalar.

    Restricting the branch quartic to the line leaves A*u^4 + B*u^2*x3^2
    + C*x3^4 (no odd powers of u occur); the restriction is a scaled
    perfect square iff B^2 - 4AC = 0.
    """
    q = branch_quartic(i)
    a = _v("a")
    r = q.substitute({"x2": a * _v("x3")})
    for odd in (1, 3):
        if not r.coeff_in("u", odd).is_zero():
            raise AssertionError("unexpected odd powers of u in the restriction")
    a4 = r.coeff_in("u", 4).coeff_in("x3", 0)
    b2 = r.coeff_in("u", 2).coeff_in("x3", 2)
    c0 = r.coeff_in("u", 0).coeff_in("x3", 4)
    return (b2 * b2 - 4 * a4 * c0).primitive_part()


# -- golden data and the verification checklist ---------------------------------
#
# The reference polynomials below are verified transcriptions: each one is
# reproduced by the derivation pipeline in this module, which is the ground
# truth for every entry (the test suite re-derives all of them).


def expected_leading_factor(i: int) -> MultiPoly:
    a2 = _v("a2")
    if i == 1:
        return 8 * a2**4 - 8
    if i in (2, 6):
        return 8 * a2**4
    if i in (3, 7):
        return a2**4
    raise ValueError(f"family index must be one of {FAMILY_INDICES}")


def expected_vertical_bitangents(i: int) -> MultiPoly:
    lam, a = _v("lam"), _v("a")
    if i == 1:
        return 8 * a**4 + lam**2 * a**2 + 8
    if i == 2:
        return a * (8 * a**2 + lam**2 * a + 8)
    if i == 3:
        return a * (a**2 + 1)
    if i == 6:
        return 8 * a**3 + lam**2 * a**2 + 8
    if i == 7:
        return (a + 1) * (a**2 - a + 1)
    raise ValueError(f"family index must be one of {FAMILY_INDICES}")


def expected_eliminant_factors(i: int) -> list[MultiPoly]:
    """Factors whose product equals the eliminant up to a rational scalar."""
    lam, a2 = _v("lam"), _v("a2")
    i_unit = MultiPoly.constant(root_i())
    if i == 1:
        conj_pair = (
            ((lam**2 - 16) * a2**4 - 16 * i_unit * lam * a2**2 + lam**2 - 16)
            * ((lam**2 - 16) * a2**4 + 16 * i_unit * lam * a2**2 + lam**2 - 16)
        ).rationalized()
        return [
            (lam**2 + 16) * a2**4 - 16 * lam * a2**2 + lam**2 + 16,
            (lam**2 + 16) * a2**4 + 16 * lam * a2**2 + lam**2 + 16,
            conj_pair,
            256 * a2**4 - lam**4,
        ]
    if i == 2:
        return [
            (lam**2 + 16) * a2**4 + 4 * lam * a2**2 + 2,
            (lam**2 - 16) * a2**4 + 4 * lam * a2**2 + 2,
            1024 * a2**16
            + 128 * lam**3 * a2**14
            + (2 * lam**6 + 960 * lam**2) * a2**12
            + (20 * lam**5 + 2560 * lam) * a2**10
            + (73 * lam**4 + 2176) * a2**8
            + 120 * lam**3 * a2**6
            + 92 * lam**2 * a2**4
            + 32 * lam * a2**2
            + 4,
        ]
    if i == 3:
        return [
            2 * a2**4 + lam * a2**2 + 2,
            2 * a2**4 - lam * a2**2 - 2,
            a2**8 + 4 * a2**6 + (lam**2 - 4 * lam + 8) * a2**4 + (4 * lam - 8) * a2**2 + 4,
            a2**8 - 4 * a2**6 + (lam**2 + 4 * lam + 8) * a2**4 + (4 * lam + 8) * a2**2 + 4,
        ]
    if i == 6:
        return [
            (-512 * lam**6 - 1769472) * a2**24
            - 9216 * lam**5 * a2**22
            + (2 * lam**10 - 62976 * lam**4) * a2**20
            + (36 * lam**9 - 286720 * lam**3) * a2**18
            + (273 * lam**8 - 663552 * lam**2) * a2**16
            + (1136 * lam**7 - 700416 * lam) * a2**14
            + (2840 * lam**6 - 276480) * a2**12
            + 4416 * lam**5 * a2**10
            + 4312 * lam**4 * a2**8
            + 2624 * lam**3 * a2**6
            + 960 * lam**2 * a2**4
            + 192 * lam * a2**2
            + 16
        ]
    if i == 7:
        return [
            -3 * a2**8 + 2 * lam * a2**6 + (lam**2 + 12) * a2**4 + 4 * lam * a2**2 + 4,
            9 * a2**16
            + 6 * lam * a2**14
            + (7 * lam**2 + 36) * a2**12
            + (60 * lam - 2 * lam**3) * a2**10
            + (lam**4 - 20 * lam**2 + 156) * a2**8
            + (8 * lam**3 - 56 * lam) * a2**6
            + (24 * lam**2 - 48) * a2**4
            + 32 * lam * a2**2
            + 16,
        ]
    raise ValueError(f"family index must be one of {FAMILY_INDICES}")


@cache
def _expected_eliminant(i: int) -> MultiPoly:
    """Product of `expected_eliminant_factors(i)`."""
    out = MultiPoly.constant(1)
    for p in expected_eliminant_factors(i):
        out = out * p
    return out


def _discriminant_spot_check(seed: int) -> bool:
    rng = random.Random(seed)
    v, x2, x3 = _v("v"), _v("x2"), _v("x3")
    ok = True
    for _ in range(5):
        # disc of A*(v - r)^2 vanishes identically for any A, r free of v;
        # A is kept positive at the specialization so the degree in v
        # cannot collapse there
        amp = MultiPoly.constant(rng.randint(1, 9)) + rng.randint(0, 4) * x2
        root = rng.randint(-5, 5) * x3 + rng.randint(-5, 5) * x2 + MultiPoly.constant(rng.randint(-3, 3))
        square = amp * (v - root) ** 2
        ok = ok and discriminant_in(square, "v").is_zero()
        # disc commutes with specializing the other variables
        general = amp * v**2 + (x2 + 3) * v + root
        spec = {"x2": Fraction(rng.randint(1, 9), rng.randint(1, 5)), "x3": rng.randint(-9, 9)}
        lhs = discriminant_in(general, "v").substitute(spec)
        rhs = discriminant_in(general.substitute(spec), "v")
        ok = ok and (lhs - rhs).is_zero()
    return ok


def _resultant_spot_check(seed: int) -> bool:
    rng = random.Random(seed)
    v, x2, x3, lam = _v("v"), _v("x2"), _v("x3"), _v("lam")
    ok = True
    for _ in range(5):
        shared = v - rng.randint(-5, 5) * x2
        p = shared * (v + rng.randint(1, 7))
        q = shared * (v**2 + rng.randint(1, 7) * lam)
        ok = ok and resultant(p, q, "v").is_zero()
        p2 = v - rng.randint(1, 5) * x2
        q2 = v - rng.randint(6, 9) * x3
        ok = ok and not resultant(p2, q2, "v").is_zero()
    return ok


def _verify_registered(index: int) -> bool:
    target = _a2_isomorphism_registry()[index][3]
    return _isomorphism_image(index).equal_up_to_scalar(quotient_surface(*target))


def _eliminant_is_even(i: int) -> bool:
    eliminant = bitangent_eliminant(i)
    return all(eliminant.coeff_in("a2", k).is_zero() for k in range(1, eliminant.degree_in("a2") + 1, 2))


def appendix_checks(seed: int = 0, only=None) -> list[tuple[str, bool]]:
    """Run the symbolic golden verifications; returns (name, passed) pairs.

    Everything is recomputed from the defining data: quotient identities,
    branch-quartic discriminants, surface isomorphisms, vertical
    bitangents, the leading factors, and the eliminants with their
    factored forms, plus seeded property spot checks.  With `only`, just
    the checks whose name contains one of its tokens run, in the same
    order; a token that matches no check is a ValueError.
    """
    checks = [(f"quotient-identity-h{j}", partial(verify_quotient_identity, j)) for j in (1, 2)]
    for i in FAMILY_INDICES:
        checks.append((f"discriminant-q{i}", lambda i=i: (branch_quartic(i) - builtin(f"q{i}")).is_zero()))
    for index, entry in enumerate(_a2_isomorphism_registry()):
        checks.append((f"isomorphism {entry[0]}", partial(_verify_registered, index)))
    for i in FAMILY_INDICES:
        checks.append(
            (
                f"leading-factor-{i}",
                lambda i=i: (bitangent_leading_factor(i) - expected_leading_factor(i)).is_zero(),
            )
        )
        checks.append(
            (
                f"vertical-bitangents-{i}",
                lambda i=i: vertical_bitangents(i).equal_up_to_scalar(expected_vertical_bitangents(i)),
            )
        )
    for i in FAMILY_INDICES:
        want_degree = 20 if i == 1 else 24
        checks.append(
            (f"eliminant-degree-{i}", lambda i=i, n=want_degree: bitangent_eliminant(i).degree_in("a2") == n)
        )
        if i != 1:
            checks.append((f"eliminant-even-{i}", partial(_eliminant_is_even, i)))
        checks.append(
            (
                f"eliminant-factors-{i}",
                lambda i=i: _expected_eliminant(i).equal_up_to_scalar(bitangent_eliminant(i)),
            )
        )
    checks.append(("discriminant-double-root-spot-check", partial(_discriminant_spot_check, seed)))
    checks.append(("resultant-shared-root-spot-check", partial(_resultant_spot_check, seed)))
    if only is not None:
        for token in only:
            if not any(token in name for name, _ in checks):
                raise ValueError(f"--only token {token!r} matches no check")
        checks = [(name, run) for name, run in checks if any(token in name for token in only)]
    return [(name, run()) for name, run in checks]
