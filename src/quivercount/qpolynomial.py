"""Exact Laurent polynomials and rational functions in the counting variable q.

A QPolynomial is a sparse dictionary {exponent: coefficient} with integer
exponents of either sign (Laurent terms are allowed, since several of the
closed-form counts carry factors like q^(2g-3) - 1 that drop below degree
zero for small g).  Zero coefficients are never stored, so two equal
polynomials always carry identical dictionaries.

Coefficients are exact rationals held in two types: a Python int when the
value is integral and a Fraction only when it is not (``_coeff`` normalises
every coefficient a polynomial is built from, and sums and products of ints
stay ints).  An int compares and hashes equal to the Fraction of the same
value, so an integral Fraction left by arithmetic on Fractions never tells
two equal polynomials apart, and the counts, which are integral, run on
integer arithmetic.  Every coefficient division goes through ``_div``,
which returns a // b when b divides a and Fraction(a, b) otherwise: the
operator / would turn two ints into a float.

A RationalFunction is a reduced quotient num/den of two QPolynomials.  The
canonical form is: num and den contain no Laurent terms (any power of q is
moved wholly into num or den), gcd(num, den) = 1 over Q[q], both have
coprime integer coefficients, and den has a positive leading coefficient.
Equality of canonical forms then coincides with cross-multiplication.

``_reduce`` reaches that form without fractions.  One lcm clears the
denominators, each side drops its content, and the gcd of the primitive
parts is taken in Z[q] by the heuristic gcd (Char, Geddes and Gonnet,
GCDHEU, J. Symb. Comp. 1989; Geddes, Czapor and Labahn, Algorithms for
Computer Algebra, ch. 7): both sides are evaluated at xi = 2^k >=
2 min(|a|_inf, |b|_inf) + 2, the integer gcd of the two values is expanded
into symmetric base-xi digits, and the primitive part of that polynomial
is accepted only if it divides both sides exactly, which at this xi proves
it is the gcd.  When a few values of xi all fail, the Euclidean gcd over Q
(``poly_gcd``) gives the answer instead.

Arithmetic on canonical forms runs ``_reduce`` only where a common factor
can survive (Henrici's rational arithmetic; Knuth, TAOCP vol. 2, 4.5.1).
Write f_i = n_i/d_i.  A sum over two denominators 1 is the sum of the
numerators.  A sum with d2 = 1 is (n1 + n2 d1)/d1, already canonical:
gcd(n1 + n2 d1, d1) = gcd(n1, d1) = 1, and a common integer factor of its
coefficients would divide the content of d1 and so that of n1 too.  Equal
denominators reduce (n1 + n2, d); other sums take the cofactors c_i of
d_i / gcd(d1, d2) from one ``_reduce`` and reduce (n1 c2 + n2 c1, d1 c2)
over the lcm instead of over d1 d2.  A product cancels n1 against d2 and
n2 against d1, two smaller gcds, the one against a denominator 1 skipped;
the products of the two cancelled pairs are coprime, with coprime
contents (Gauss's lemma) and a positive leading denominator, so they are
canonical.  Division multiplies by the inverse, which swaps num and den
and fixes the sign.  Powers and q -> q^m (``adams``) need no reduction:
coprime polynomials stay coprime under both.  ``rf_sum`` adds the
numerators of equal denominators as polynomials, brings the sums over
the lcm of the distinct denominators and reduces once.  Negation, powers, inverses, ``adams`` and these
fast paths, and the integer constants and monomials c q^k, build their
results without ``__init__``, which is the full reduction.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import gcd as int_gcd, lcm as int_lcm

from .errors import PoleAtEvaluationPoint


def _coeff(c):
    """An exact coefficient: an int when the value is integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """Exact quotient of two coefficients, in the form ``_coeff`` gives."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        if not rem:
            return quo
    return _coeff(Fraction(a, b))


def _long_division(num: dict, den: dict, order: int) -> list:
    """Coefficients 0..order of the power series num / den, both given as
    {exponent >= 0: coefficient} with den[0] != 0.  The coefficients are
    rationals or RationalFunction values; only the division by den[0]
    depends on which."""
    d0 = den.get(0)
    divide = _div if isinstance(d0, (int, Fraction)) else operator.truediv
    state = dict(num)
    out = []
    for k in range(order + 1):
        ck = divide(state.get(k, 0), d0)
        out.append(ck)
        for j, dj in den.items():
            if j == 0:
                continue
            e = k + j
            s = state.get(e, 0) - ck * dj
            if s:
                state[e] = s
            else:
                state.pop(e, None)
    return out


class QPolynomial:
    """Sparse Laurent polynomial in q over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _coeff(c)
                if c:
                    d[int(e)] = c
        self.coeffs = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "QPolynomial":
        return QPolynomial()

    @staticmethod
    def one() -> "QPolynomial":
        return QPolynomial({0: 1})

    @staticmethod
    def const(c) -> "QPolynomial":
        return QPolynomial({0: c})

    @staticmethod
    def q(exp: int = 1, coeff=1) -> "QPolynomial":
        """The monomial coeff * q^exp."""
        return QPolynomial({exp: coeff})

    @staticmethod
    def from_int_coeffs(coeffs) -> "QPolynomial":
        """Build from a list of coefficients indexed by degree 0, 1, ..."""
        return QPolynomial({e: c for e, c in enumerate(coeffs)})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Largest exponent; -1 on the zero polynomial by convention."""
        return max(self.coeffs) if self.coeffs else -1

    def low_degree(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def leading_coeff(self):
        return self.coeffs[self.degree()] if self.coeffs else 0

    def __eq__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        out = QPolynomial()
        out.coeffs = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QPolynomial()
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s
                else:
                    d.pop(e, None)
        out = QPolynomial()
        out.coeffs = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RationalFunction")
        result = QPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "QPolynomial":
        """Multiply by q^k."""
        out = QPolynomial()
        out.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return out

    def adams(self, m: int) -> "QPolynomial":
        """Substitute q -> q^m."""
        if m < 1:
            raise ValueError("Adams operator index must be >= 1")
        out = QPolynomial()
        out.coeffs = {e * m: c for e, c in self.coeffs.items()}
        return out

    def evaluate(self, q0) -> Fraction:
        q0 = Fraction(q0)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * q0 ** e
        return total

    # -- Euclidean toolbox on ordinary (non-Laurent) polynomials ------

    def divmod_ordinary(self, other: "QPolynomial"):
        """Polynomial division; both operands must have low_degree >= 0."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.coeffs)
        quo = {}
        dB = other.degree()
        lcB = other.leading_coeff()
        while rem and max(rem) >= dB:
            dA = max(rem)
            c = _div(rem[dA], lcB)
            quo[dA - dB] = c
            for e, b in other.coeffs.items():
                e2 = e + dA - dB
                s = rem.get(e2, 0) - c * b
                if s:
                    rem[e2] = s
                else:
                    rem.pop(e2, None)
        q = QPolynomial()
        q.coeffs = quo
        r = QPolynomial()
        r.coeffs = rem
        return q, r

    def monic(self) -> "QPolynomial":
        lc = self.leading_coeff()
        if not lc or lc == 1:
            return self
        out = QPolynomial()
        out.coeffs = {e: _div(c, lc) for e, c in self.coeffs.items()}
        return out

    # -- printing -----------------------------------------------------

    def __repr__(self):
        return f"QPolynomial({self.to_string()!r})"

    def to_string(self) -> str:
        """Render with exponents in decreasing order, e.g. 'q^2 + 4q + 1'."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if e == 0:
                body = _coeff_str(c)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if c == 1 else f"{_coeff_str(c)}{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def int_coeff_list(self):
        """Coefficients indexed from degree 0; requires an ordinary polynomial."""
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("Laurent polynomial has no coefficient list")
        out = [0] * (self.degree() + 1 if self.coeffs else 0)
        for e, c in self.coeffs.items():
            out[e] = c
        return out


def _coeff_str(c) -> str:
    return str(c) if c.denominator == 1 else f"({c})"


def _as_poly(x) -> QPolynomial:
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return QPolynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to QPolynomial")


def poly_gcd(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Monic gcd over Q[q]; inputs must be ordinary polynomials."""
    while not b.is_zero():
        _, r = a.divmod_ordinary(b)
        a, b = b, r
    return a.monic()


class RationalFunction:
    """Reduced quotient of integer-coefficient polynomials in q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = QPolynomial.one() if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _reduce(num, den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RationalFunction":
        return _canonical(QPolynomial.zero(), QPolynomial.one())

    @staticmethod
    def one() -> "RationalFunction":
        return _canonical(QPolynomial.one(), QPolynomial.one())

    @staticmethod
    def const(c) -> "RationalFunction":
        if type(c) is int:
            return _canonical(QPolynomial.const(c), QPolynomial.one())
        return RationalFunction(QPolynomial.const(c))

    @staticmethod
    def q(exp: int = 1, coeff=1) -> "RationalFunction":
        if type(coeff) is not int or not coeff:
            return RationalFunction(QPolynomial.q(exp, coeff))
        if exp < 0:
            return _canonical(QPolynomial.const(coeff), QPolynomial.q(-exp))
        return _canonical(QPolynomial.q(exp, coeff), QPolynomial.one())

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.coeffs == _UNIT

    def as_polynomial(self) -> QPolynomial:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self.to_string()}")
        return self.num

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_rf(other)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1.coeffs == _UNIT and d2.coeffs == _UNIT:
            return _canonical(n1 + n2, d1)
        if d2.coeffs == _UNIT:
            return _canonical(n1 + n2 * d1, d1)
        if d1.coeffs == _UNIT:
            return _canonical(n1 * d2 + n2, d2)
        if d1 == d2:
            return RationalFunction(n1 + n2, d1)
        # d1 c2 = d2 c1 is the lcm of the denominators
        c1, c2 = _reduce(d1, d2)
        return RationalFunction(n1 * c2 + n2 * c1, d1 * c2)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_rf(other))

    def __rsub__(self, other):
        return _as_rf(other) + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero()
        a1, b2 = _cancel(self.num, other.den)
        a2, b1 = _cancel(other.num, self.den)
        return _canonical(a1 * a2, b1 * b2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _as_rf(other).inverse()

    def __rtruediv__(self, other):
        return _as_rf(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _canonical(self.num ** n, self.den ** n)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if self.num.leading_coeff() < 0:
            return _canonical(-self.den, -self.num)
        return _canonical(self.den, self.num)

    def adams(self, m: int) -> "RationalFunction":
        """q -> q^m, reduced."""
        return _canonical(self.num.adams(m), self.den.adams(m))

    def evaluate(self, q0) -> Fraction:
        """Exact evaluation at a rational point; raises at poles."""
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleAtEvaluationPoint(f"denominator vanishes at q = {q0}")
        return self.num.evaluate(q0) / d

    def qinv_series(self, order: int):
        """First coefficients of the expansion in powers of q^-1.

        Requires the function to be regular at q = infinity, i.e.
        deg(num) <= deg(den).  Returns [c_0, ..., c_order] with
        f = sum c_k q^-k + O(q^-(order+1)).
        """
        dn, dd = self.num.degree(), self.den.degree()
        if not self.num.is_zero() and dn > dd:
            raise ValueError("function has a pole at q = infinity")
        # substitute u = 1/q: f = u^(dd-dn) * num~(u) / den~(u), den~(0) != 0
        return _long_division({dd - e: c for e, c in self.num.coeffs.items()},
                              {dd - e: c for e, c in self.den.coeffs.items()}, order)

    def taylor_coefficients(self, order: int):
        """Coefficients of the expansion around 0 up to the given order.

        Requires regularity at 0 (no pole): the denominator may not vanish
        there and the numerator may not carry negative exponents.
        """
        if self.num.low_degree() < 0 or self.den.low_degree() > 0:
            raise PoleAtEvaluationPoint("pole at 0 blocks the expansion")
        return _long_division(self.num.coeffs, self.den.coeffs, order)

    # -- printing -----------------------------------------------------

    def to_string(self) -> str:
        """Canonical 'num / den' string with decreasing exponents."""
        if self.is_polynomial():
            return self.num.to_string()
        return f"({self.num.to_string()}) / ({self.den.to_string()})"

    def __repr__(self):
        return f"RationalFunction({self.to_string()!r})"


# the coefficient dict of the polynomial 1
_UNIT = {0: 1}


def _canonical(num: QPolynomial, den: QPolynomial) -> RationalFunction:
    """The RationalFunction num/den of a pair already in canonical form."""
    out = RationalFunction.__new__(RationalFunction)
    out.num, out.den = num, den
    return out


def _cancel(num: QPolynomial, den: QPolynomial):
    """num/den reduced, for the numerator of one canonical form and the
    denominator of another; a pair with num = 1 or den = 1 is reduced
    already."""
    if num.coeffs == _UNIT or den.coeffs == _UNIT:
        return num, den
    return _reduce(num, den)


def _as_rf(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    if isinstance(x, QPolynomial):
        return RationalFunction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")


def rf_sum(terms, start=None) -> RationalFunction:
    """start (default 0) plus the sum of the terms.

    Numerators over the same denominator are added as polynomials, and the
    sums are brought over the lcm of the distinct denominators as ``+``
    does; the quotient is reduced once at the end."""
    by_den = {}
    for f in chain((RationalFunction.zero() if start is None else start,), terms):
        acc = by_den.setdefault(f.den, {})
        for e, c in f.num.coeffs.items():
            acc[e] = acc.get(e, 0) + c
    num, den = QPolynomial.zero(), QPolynomial.one()
    for d, acc in by_den.items():
        part = QPolynomial(acc)
        if d.coeffs == _UNIT:
            num = num + part * den
        elif den.coeffs == _UNIT:
            num, den = num * d + part, d
        else:
            # den c_d = d c_den is the lcm of the two
            c_den, c_d = _reduce(den, d)
            num, den = num * c_d + part * c_den, den * c_d
    if den.coeffs == _UNIT:
        return _canonical(num, den)
    return RationalFunction(num, den)


def _reduce(num: QPolynomial, den: QPolynomial):
    """Canonicalize a fraction of Laurent polynomials (see module docstring)."""
    if num.is_zero():
        return QPolynomial.zero(), QPolynomial.one()
    nc, dc = num.coeffs, den.coeffs
    scale = _common_denominator((*nc.values(), *dc.values()))
    # a global power of q moves to one side
    n_low, d_low = min(nc), min(dc)
    a, b = _dense(nc, n_low, scale), _dense(dc, d_low, scale)
    ca, cb = int_gcd(*a), int_gcd(*b)
    if ca != 1:
        a = [c // ca for c in a]
    if cb != 1:
        b = [c // cb for c in b]
    if len(a) > 1 and len(b) > 1:
        a, b = _heu_cofactors(a, b) or _euclid_cofactors(a, b)
    # a and b are now primitive and coprime: their contents set the scalar
    g = int_gcd(ca, cb)
    ca, cb = ca // g, cb // g
    if b[-1] < 0:
        ca, cb = -ca, -cb
    k = n_low - d_low
    return (_sparse(a, ca, max(k, 0)), _sparse(b, cb, max(-k, 0)))


def _common_denominator(coeffs) -> int:
    out = 1
    for c in coeffs:
        if type(c) is not int:
            out = int_lcm(out, c.denominator)
    return out


def _dense(coeffs, low: int, scale: int):
    """Integer coefficient list of scale * p / q^low, from degree 0 up."""
    out = [0] * (max(coeffs) - low + 1)
    for e, c in coeffs.items():
        out[e - low] = c * scale if type(c) is int else c.numerator * (scale // c.denominator)
    return out


def _sparse(dense, scale: int, shift: int) -> QPolynomial:
    """scale * q^shift * p for an integer coefficient list p."""
    out = QPolynomial()
    out.coeffs = {e + shift: c * scale for e, c in enumerate(dense) if c}
    return out


# evaluation points the heuristic gcd tries before it falls back to Euclid
_HEU_TRIES = 6


def _heu_cofactors(a, b):
    """(a / g, b / g) for the gcd g of two primitive integer coefficient
    lists of positive degree, by the heuristic gcd; None when it fails."""
    bound = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    k = (bound - 1).bit_length()  # xi = 2^k >= bound
    for _ in range(_HEU_TRIES):
        gamma = int_gcd(_eval_pow2(a, k), _eval_pow2(b, k))
        h = _sym_digits(gamma, k)
        if len(h) == 1:
            return a, b
        c = int_gcd(*h)
        h = [x // c for x in h] if h[-1] > 0 else [-x // c for x in h]
        qa = _exact_quotient(a, h)
        if qa is not None:
            qb = _exact_quotient(b, h)
            if qb is not None:
                return qa, qb
        k *= 2
    return None


def _eval_pow2(p, k: int) -> int:
    """p(2^k) for an integer coefficient list p."""
    v = 0
    for c in reversed(p):
        v = (v << k) + c
    return v


def _sym_digits(n: int, k: int):
    """Digits d_i in (-2^(k-1), 2^(k-1)] with n = sum d_i 2^(k i), n > 0."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while n:
        d = n & mask
        if d > half:
            d -= 1 << k
        out.append(d)
        n = (n - d) >> k
    return out


def _exact_quotient(a, h):
    """a / h in Z[q] for integer coefficient lists, or None when h does not
    divide a there."""
    m = len(h) - 1
    if len(a) <= m:
        return None
    rem = list(a)
    lc = h[m]
    quo = [0] * (len(a) - m)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + m], lc)
        if r:
            return None
        if c:
            quo[i] = c
            for j in range(m):
                rem[i + j] -= c * h[j]
    if any(rem[:m]):
        return None
    return quo


def _euclid_cofactors(a, b):
    """(a / g, b / g) through the Euclidean gcd over Q."""
    g = poly_gcd(QPolynomial.from_int_coeffs(a), QPolynomial.from_int_coeffs(b))
    h = _dense(g.coeffs, 0, _common_denominator(g.coeffs.values()))
    c = int_gcd(*h)
    h = [x // c for x in h]
    return _exact_quotient(a, h), _exact_quotient(b, h)
