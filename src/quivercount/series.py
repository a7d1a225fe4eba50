"""Box-truncated multivariate power series and plethystic operators.

A TruncatedSeries is a formal series in variables t_i (one per quiver
vertex) whose exponent vectors are kept only when componentwise <= a fixed
rank bound R.  Box truncation is closed under multiplication: the
coefficient at r <= R of a product only involves exponents <= r, so
arithmetic below the bound is exact.

Coefficients may be RationalFunction values (symbolic work in q) or
VolumeSequence values (numeric work at a fixed prime power, tracking a
count over F_q, F_{q^2}, ... simultaneously).  Any coefficient type with
+, *, scalar Fraction multiplication and an adams(m) method works.
``inverse`` also needs Fraction(1) / c0 for the constant term c0:
RationalFunction and rational coefficients support it, VolumeSequence
does not.

The plethystic exponential is Exp(F) = exp(sum_{m>=1} psi_m(F)/m) where the
Adams operator psi_m sends a coefficient f to f.adams(m) and t^r to t^{mr};
terms pushed above the bound by psi_m are dropped (truncation semantics).
Its inverse is Log(G) = sum_{m>=1} mu(m)/m * psi_m(log G) with Moebius mu.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .errors import ConstantTermNotOne, NonzeroConstantTerm
from .qpolynomial import RationalFunction


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius defined for n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


class VolumeSequence:
    """Finite truncation of the ring of volumes: one rational per degree.

    Entry n (1-indexed) holds a count evaluated over the degree-n field
    extension.  The Adams operator psi_m moves entry mn to slot n; slots
    whose source exceeds the truncation are undefined (None), and undefined
    values absorb arithmetic.  Used only by fixed-q brute-force checks.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(None if v is None else Fraction(v) for v in values)

    @staticmethod
    def const(c, length: int) -> "VolumeSequence":
        return VolumeSequence([Fraction(c)] * length)

    def __len__(self):
        return len(self.values)

    def entry(self, n: int):
        v = self.values[n - 1]
        if v is None:
            raise ValueError(f"entry {n} is undefined at this truncation")
        return v

    def _zip(self, other, op):
        if not isinstance(other, VolumeSequence):
            other = VolumeSequence.const(other, len(self.values))
        if len(other.values) != len(self.values):
            raise ValueError("volume sequences of different truncation")
        return VolumeSequence([
            None if (a is None or b is None) else op(a, b)
            for a, b in zip(self.values, other.values)
        ])

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return VolumeSequence.const(other, len(self.values)) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return VolumeSequence([None if a is None else a * other for a in self.values])
        return self._zip(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def adams(self, m: int) -> "VolumeSequence":
        N = len(self.values)
        return VolumeSequence([
            self.values[m * n - 1] if m * n <= N else None
            for n in range(1, N + 1)
        ])

    def __eq__(self, other):
        if not isinstance(other, VolumeSequence):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return f"VolumeSequence({list(self.values)!r})"


class TruncatedSeries:
    """Multivariate series truncated to a componentwise rank bound."""

    __slots__ = ("variables", "bound", "coeffs", "_zero", "_one")

    def __init__(self, variables, bound, coeffs=None, zero=None, one=None):
        self.variables = tuple(variables)
        self.bound = tuple(int(b) for b in bound)
        if len(self.variables) != len(self.bound):
            raise ValueError("one bound entry per variable required")
        self._zero = RationalFunction.zero() if zero is None else zero
        self._one = RationalFunction.one() if one is None else one
        self.coeffs = {}
        if coeffs:
            for r, c in coeffs.items():
                r = tuple(int(x) for x in r)
                if not self._inside(r):
                    continue
                if c != self._zero:
                    self.coeffs[r] = c

    def _inside(self, r) -> bool:
        return all(0 <= x <= b for x, b in zip(r, self.bound))

    def _like(self, coeffs) -> "TruncatedSeries":
        out = TruncatedSeries(self.variables, self.bound, zero=self._zero, one=self._one)
        out.coeffs = {r: c for r, c in coeffs.items() if c != self._zero}
        return out

    def coefficient(self, r):
        return self.coeffs.get(tuple(r), self._zero)

    def constant_term(self):
        return self.coefficient((0,) * len(self.bound))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        d = dict(self.coeffs)
        for r, c in other.coeffs.items():
            s = d.get(r, self._zero) + c
            d[r] = s
        return self._like(d)

    def __sub__(self, other):
        d = dict(self.coeffs)
        for r, c in other.coeffs.items():
            s = d.get(r, self._zero) - c
            d[r] = s
        return self._like(d)

    def __neg__(self):
        return self._like({r: -c for r, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        d = {}
        for r1, c1 in self.coeffs.items():
            for r2, c2 in other.coeffs.items():
                r = tuple(a + b for a, b in zip(r1, r2))
                if not self._inside(r):
                    continue
                prod_c = c1 * c2
                if r in d:
                    d[r] = d[r] + prod_c
                else:
                    d[r] = prod_c
        return self._like(d)

    def scale(self, c) -> "TruncatedSeries":
        return self._like({r: v * c for r, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variables == other.variables and self.bound == other.bound
                and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{r}: {c!r}" for r, c in sorted(self.coeffs.items()))
        return f"TruncatedSeries(bound={self.bound}, {{{terms}}})"

    # -- operators ----------------------------------------------------

    def adams(self, m: int) -> "TruncatedSeries":
        """psi_m: coefficient adams plus t^r -> t^{mr}; overflow dropped."""
        d = {}
        for r, c in self.coeffs.items():
            mr = tuple(m * x for x in r)
            if self._inside(mr):
                d[mr] = c.adams(m)
        return self._like(d)

    def drop_constant(self) -> "TruncatedSeries":
        d = dict(self.coeffs)
        d.pop((0,) * len(self.bound), None)
        return self._like(d)

    def _power_sum(self, constant, weight) -> "TruncatedSeries":
        """constant + sum_{k>=1} weight(k) self^k for self with zero constant
        term: self^k vanishes under the box once k > sum(bound)."""
        result = self._like({(0,) * len(self.bound): constant})
        power = self._like({(0,) * len(self.bound): self._one})
        for k in range(1, sum(self.bound) + 1):
            power = power * self
            if not power.coeffs:
                break
            result = result + power.scale(weight(k))
        return result

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term (finite sum under the box)."""
        if self.constant_term() != self._zero:
            raise NonzeroConstantTerm("exp needs zero constant term")
        return self._power_sum(self._one, lambda k: Fraction(1, factorial(k)))

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term one."""
        if self.constant_term() != self._one:
            raise ConstantTermNotOne("log needs constant term one")
        return self.drop_constant()._power_sum(self._zero,
                                               lambda k: Fraction((-1) ** (k + 1), k))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term c0 must support
        Fraction(1) / c0 (see the module docstring)."""
        c0 = self.constant_term()
        if c0 == self._zero:
            raise ZeroDivisionError("series with zero constant term")
        c0_inv = Fraction(1) / c0
        u = self.drop_constant().scale(c0_inv)
        return u._power_sum(self._one, lambda k: (-1) ** k).scale(c0_inv)

    def truncate(self, new_bound) -> "TruncatedSeries":
        out = TruncatedSeries(self.variables, new_bound, zero=self._zero, one=self._one)
        for r, c in self.coeffs.items():
            if out._inside(r):
                out.coeffs[r] = c
        return out


def _adams_sum(F: TruncatedSeries, weight) -> TruncatedSeries:
    """sum_m weight(m) psi_m(F) over m = 1..max(bound); psi_m(F) is built
    only for the m of nonzero weight."""
    total = F._like({})
    for m in range(1, max(F.bound, default=0) + 1):
        w = weight(m)
        if w:
            total = total + F.adams(m).scale(w)
    return total


def plethystic_exp(F: TruncatedSeries) -> TruncatedSeries:
    """Exp(F) = exp(sum_m psi_m(F)/m); F must lie in the augmentation ideal."""
    if F.constant_term() != F._zero:
        raise NonzeroConstantTerm("plethystic exponential needs zero constant term")
    return _adams_sum(F, lambda m: Fraction(1, m)).exp()


def plethystic_log(G: TruncatedSeries) -> TruncatedSeries:
    """Inverse of plethystic_exp; G must have constant term one."""
    if G.constant_term() != G._one:
        raise ConstantTermNotOne("plethystic logarithm needs constant term one")
    return _adams_sum(G.log(), lambda m: Fraction(moebius(m), m))


def all_exponents(bound):
    """Every exponent vector inside the box, lexicographic."""
    return product(*(range(b + 1) for b in bound))
