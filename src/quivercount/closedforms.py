"""Library of closed-form counts for g-loop and Kronecker quivers.

Each function builds, in exact arithmetic, one of the catalogued rational
functions: counts of absolutely indecomposable representations in ranks 2
and 3 for the quiver with one vertex and g loops, the rank-2 zero-fiber
count of its moment map, local zeta functions (as rational functions in
the auxiliary variable T = q^{-s}, with coefficients in Q(q)), the
Kronecker-quiver counts in rank (1,2) for every alpha ([r choose 2]_q times
a tent sum of q-integers, checked against the alpha <= 5 table, the zeta
pipeline and Burnside counts), and the alpha -> infinity limits of the
cyclic triangle.

Zeta functions are returned as a pair (numerator, denominator) of
T-coefficient lists, lowest degree first, each coefficient a rational
function of q.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import UnsupportedParameter
from .qpolynomial import QPolynomial, RationalFunction

_q = QPolynomial.q


def gloop_A2(g: int, alpha: int) -> RationalFunction:
    """Absolutely indecomposable count in rank 2 for the g-loop quiver."""
    if g < 1 or alpha < 1:
        raise UnsupportedParameter(f"need g >= 1 and alpha >= 1, got g={g}, alpha={alpha}")
    num = _q(2 * alpha * g - 1) * (_q(2 * g) - 1) * (_q(alpha * (2 * g - 3)) - 1)
    den = (_q(2) - 1) * (_q(2 * g - 3) - 1)
    return RationalFunction(num, den)


def gloop_A3(g: int, alpha: int) -> RationalFunction:
    """Absolutely indecomposable count in rank 3 for the g-loop quiver.

    Spectral form of the rank-3 class recurrence: a combination of
    q^(alpha(9g-8)), q^(alpha(5g-3)) and q^(3 alpha g), with coefficients
    pinned by the recurrence (the middle term is the one the tables fix).
    """
    if g < 1 or alpha < 1:
        raise UnsupportedParameter(f"need g >= 1 and alpha >= 1, got g={g}, alpha={alpha}")
    pref_num = _q(3 * alpha * g - 2) * (_q(2 * g) - 1) * (_q(2 * g - 1) - 1)
    pref_den = ((_q(2) - 1) * (_q(3) - 1) * (_q(2 * g - 3) - 1)
                * (_q(6 * g - 8) - 1) * (_q(4 * g - 5) - 1))
    bracket = (
        _q(alpha * (6 * g - 8) - 1) * (_q(6 * g - 7) - 1) * (_q(2 * g) + 1)
        - _q(alpha * (6 * g - 8) + 2 * g - 4) * (_q(2) - 1) * (_q(4 * g - 3) + 1)
        - _q(alpha * (2 * g - 3) - 1) * (_q(2) + _q(1) + 1) * (_q(2 * g - 1) + 1) * (_q(6 * g - 8) - 1)
        + (_q(1) + 1) * (_q(8 * g - 10) - 1)
        + _q(2 * g - 4) * (_q(4) + 1) * (_q(4 * g - 5) - 1)
    )
    return RationalFunction(pref_num * bracket, pref_den)


def gloop_fiber(g: int, alpha: int) -> RationalFunction:
    """#mu^{-1}(0) over O_alpha for the g-loop quiver in rank 2 (g >= 2)."""
    if g < 2 or alpha < 1:
        raise UnsupportedParameter(f"need g >= 2 and alpha >= 1, got g={g}, alpha={alpha}")
    den = _q(3) * (_q(2 * g - 3) - 1)
    first = RationalFunction((_q(2 * g) - 1) * _q(alpha * (8 * g - 3)), den)
    second = RationalFunction((_q(3) - 1) * _q(6 * alpha * g), den)
    return first - second


def gloop_Z(g: int):
    """Local zeta function of the rank-2 g-loop moment map, in T = q^{-s}.

    (q^3 - 1)(q^{2g} - 1) / ((q^3 - T)(q^{2g} - T)); ambient dimension 8g.
    """
    if g < 2:
        raise UnsupportedParameter(f"need g >= 2, got {g}")
    a, b = _q(3), _q(2 * g)
    num = [(a - 1) * (b - 1)]
    den = [a * b, -(a + b), QPolynomial.one()]
    return [RationalFunction(p) for p in num], [RationalFunction(p) for p in den]


def kronecker_Z(r: int):
    """Local zeta function of the r-Kronecker moment map in rank (1,2).

    (q^2-1)(q^r-1)(q^r(q-1)(q^2+T) + (q^2+1)(q^{2r+1}-T))
    / ((q^4-T)(q^{2r}-T)(q^{r+1}-T)); ambient dimension 4r.
    The denominator (a - T)(b - T)(c - T) is e_3 - e_2 T + e_1 T^2 - T^3,
    e_k the elementary symmetric functions of a, b, c.
    """
    if r < 3:
        raise UnsupportedParameter(f"need r >= 3, got {r}")
    scale = (_q(2) - 1) * (_q(r) - 1)
    u, v = _q(r) * (_q(1) - 1), _q(2) + 1
    num = [scale * (u * _q(2) + v * _q(2 * r + 1)), scale * (u - v)]
    a, b, c = _q(4), _q(2 * r), _q(r + 1)
    den = [a * b * c, -(a * b + a * c + b * c), a + b + c, -QPolynomial.one()]
    return [RationalFunction(p) for p in num], [RationalFunction(p) for p in den]


def kronecker_A(r: int, alpha: int) -> RationalFunction:
    """Absolutely indecomposable count in rank (1,2) for the r-Kronecker
    quiver over O_alpha, alpha >= 1, with [n]_q = 1 + q + ... + q^(n-1):

        [r choose 2]_q * sum_(k=0..2alpha-2) q^(k(r-2)) [min(k+1, 2alpha-1-k)]_q,

    and [r choose 2]_q = sum_(0<=a<=b<=r-2) q^(a+b), whose q^m coefficient
    counts the a <= m/2 with m - a <= r - 2.  Read as linear forms
    (k, j - 2k) in r, the tent exponents k(r-2) + j are the rows of the
    bracket once transcribed for alpha <= 5 (tests/test_closedforms.py).
    Criterion 5 checks the zeta pipeline and Burnside counts against it.
    """
    if alpha < 1:
        raise UnsupportedParameter(f"alpha must be >= 1, got {alpha}")
    if r < 3:
        raise UnsupportedParameter(f"need r >= 3, got {r}")
    binomial = QPolynomial({m: min(m, 2 * r - 4 - m) // 2 + 1 for m in range(2 * r - 3)})
    # each q-integer adds 1 on a range of exponents: mark its two ends in a
    # difference array, then one running sum gives the coefficients
    widths = [min(k + 1, 2 * alpha - 1 - k) for k in range(2 * alpha - 1)]
    diff = [0] * ((len(widths) - 1) * (r - 2) + 2)
    for k, width in enumerate(widths):
        diff[k * (r - 2)] += 1
        diff[k * (r - 2) + width] -= 1
    tent = QPolynomial(dict(enumerate(accumulate(diff))))
    return RationalFunction(binomial * tent)


# frozen reference values of the rank-3 loop-quiver counts, keyed (g, alpha):
# {degree: coefficient}
GLOOP_RANK3_TABLE = {
    (1, 1): {1: 1},
    (1, 2): {4: 1, 3: 1, 2: 2},
    (1, 3): {7: 1, 6: 1, 5: 3, 4: 2, 3: 2},
    (1, 4): {10: 1, 9: 1, 8: 3, 7: 3, 6: 4, 5: 2, 4: 2},
    (1, 5): {13: 1, 12: 1, 11: 3, 10: 3, 9: 5, 8: 4, 7: 4, 6: 2, 5: 2},
    (2, 1): {10: 1, 8: 1, 7: 1, 6: 1, 5: 1, 4: 1},
    (2, 2): {20: 1, 18: 1, 17: 2, 16: 3, 15: 3, 14: 4, 13: 3, 12: 3, 11: 2, 10: 2},
    (2, 3): {30: 1, 28: 1, 27: 2, 26: 3, 25: 3, 24: 5, 23: 5, 22: 7, 21: 6, 20: 7,
             19: 5, 18: 4, 17: 3, 16: 2},
    (2, 4): {40: 1, 38: 1, 37: 2, 36: 3, 35: 3, 34: 5, 33: 5, 32: 7, 31: 7, 30: 9,
             29: 9, 28: 10, 27: 9, 26: 9, 25: 6, 24: 5, 23: 3, 22: 2},
    (2, 5): {50: 1, 48: 1, 47: 2, 46: 3, 45: 3, 44: 5, 43: 5, 42: 7, 41: 7, 40: 9,
             39: 9, 38: 11, 37: 11, 36: 13, 35: 12, 34: 13, 33: 11, 32: 10, 31: 7,
             30: 5, 29: 3, 28: 2},
    (3, 1): {19: 1, 17: 1, 16: 1, 15: 1, 14: 1, 13: 2, 12: 1, 11: 2, 10: 2, 9: 1,
             8: 1, 7: 1},
    (3, 2): {38: 1, 36: 1, 35: 1, 34: 1, 33: 1, 32: 2, 31: 2, 30: 3, 29: 4, 28: 4,
             27: 4, 26: 5, 25: 4, 24: 4, 23: 4, 22: 5, 21: 3, 20: 4, 19: 3, 18: 2,
             17: 1, 16: 1},
    (3, 3): {57: 1, 55: 1, 54: 1, 53: 1, 52: 1, 51: 2, 50: 2, 49: 3, 48: 4, 47: 4,
             46: 4, 45: 5, 44: 4, 43: 5, 42: 5, 41: 7, 40: 6, 39: 8, 38: 8, 37: 8,
             36: 7, 35: 8, 34: 7, 33: 6, 32: 6, 31: 6, 30: 4, 29: 4, 28: 3, 27: 2,
             26: 1, 25: 1},
    (3, 4): {76: 1, 74: 1, 73: 1, 72: 1, 71: 1, 70: 2, 69: 2, 68: 3, 67: 4, 66: 4,
             65: 4, 64: 5, 63: 4, 62: 5, 61: 5, 60: 7, 59: 6, 58: 8, 57: 8, 56: 8,
             55: 8, 54: 9, 53: 9, 52: 9, 51: 10, 50: 11, 49: 10, 48: 11, 47: 11,
             46: 11, 45: 9, 44: 10, 43: 8, 42: 7, 41: 6, 40: 6, 39: 4, 38: 4,
             37: 3, 36: 2, 35: 1, 34: 1},
    (3, 5): {95: 1, 93: 1, 92: 1, 91: 1, 90: 1, 89: 2, 88: 2, 87: 3, 86: 4, 85: 4,
             84: 4, 83: 5, 82: 4, 81: 5, 80: 5, 79: 7, 78: 6, 77: 8, 76: 8, 75: 8,
             74: 8, 73: 9, 72: 9, 71: 9, 70: 10, 69: 11, 68: 10, 67: 12, 66: 12,
             65: 13, 64: 12, 63: 14, 62: 13, 61: 13, 60: 13, 59: 14, 58: 13,
             57: 13, 56: 13, 55: 12, 54: 10, 53: 10, 52: 8, 51: 7, 50: 6, 49: 6,
             48: 4, 47: 4, 46: 3, 45: 2, 44: 1, 43: 1},
}


def cyclic3_limit_A() -> RationalFunction:
    """alpha -> infinity limit of q^{-alpha} A_{(C3,alpha),(1,1,1)}."""
    return RationalFunction(_q(2) + 4 * _q(1) + 1, (_q(1) - 1) ** 2)


def cyclic3_limit_B() -> RationalFunction:
    """alpha -> infinity limit of q^{-4 alpha} of the zero-fiber count."""
    return RationalFunction(_q(2) + 4 * _q(1) + 1, _q(2))
