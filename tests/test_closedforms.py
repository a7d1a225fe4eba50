from fractions import Fraction

import pytest

import symbolic_reference

from quivercount.bruteforce import (count_absolutely_indecomposable,
                                    moment_fiber_count)
from quivercount.closedforms import (cyclic3_limit_A, cyclic3_limit_B,
                                     gloop_A2, gloop_A3, gloop_Z,
                                     gloop_fiber, kronecker_A, kronecker_Z)
from quivercount.errors import UnsupportedParameter
from quivercount.kacpoly import kronecker_kac_via_zeta
from quivercount.qpolynomial import QPolynomial, RationalFunction
from quivercount.quiver import kronecker_quiver, loop_quiver

q = QPolynomial.q


def test_gloop_A2_values():
    assert gloop_A2(1, 1) == RationalFunction(q(1))
    assert gloop_A2(2, 1) == RationalFunction(q(5) + q(3))
    assert gloop_A2(2, 1).evaluate(2) == 40


@pytest.mark.parametrize("form,first,alphas", [
    (gloop_A2, range(1, 13), range(1, 13)),     # g, alpha
    (gloop_A3, range(1, 8), range(1, 8)),       # g, alpha
    (kronecker_A, range(3, 14), range(1, 13)),  # r, alpha
])
def test_closed_forms_are_polynomials_with_nonnegative_coefficients(form, first, alphas):
    for x in first:
        for alpha in alphas:
            p = form(x, alpha).as_polynomial()  # raises unless a polynomial
            assert all(c >= 0 for c in p.coeffs.values()), (x, alpha)


def test_loop_forms_need_a_loop():
    for form in (gloop_A2, gloop_A3):
        with pytest.raises(ValueError):
            form(0, 1)


def test_gloop_A3_values():
    assert gloop_A3(1, 1) == RationalFunction(q(1))
    assert gloop_A3(2, 1) == RationalFunction(
        QPolynomial({10: 1, 8: 1, 7: 1, 6: 1, 5: 1, 4: 1}))


def test_gloop_fiber_values():
    assert gloop_fiber(2, 1).evaluate(2) == 11776
    assert gloop_fiber(2, 1).evaluate(2) == moment_fiber_count(loop_quiver(2), 1, (2,), 2)
    with pytest.raises(ValueError):
        gloop_fiber(1, 1)


def test_gloop_Z_shape():
    zn, zd = gloop_Z(2)
    # numerator (q^3-1)(q^4-1); denominator (q^3 - T)(q^4 - T)
    assert len(zn) == 1 and len(zd) == 3
    assert zn[0] == RationalFunction((q(3) - 1) * (q(4) - 1))
    assert zd[0] == RationalFunction(q(7))
    assert zd[1] == RationalFunction(-(q(3) + q(4)))
    assert zd[2] == RationalFunction.one()


def test_kronecker_A_values():
    # alpha = 1: (q^(r-1)-1)(q^r-1)/((q-1)^2 (q+1))
    f = kronecker_A(3, 1)
    expect = RationalFunction((q(2) - 1) * (q(3) - 1), (q(1) - 1) ** 2 * (q(1) + 1))
    assert f == expect
    assert kronecker_A(3, 2).as_polynomial() == \
        QPolynomial({4: 2, 3: 3, 2: 4, 1: 2, 0: 1})
    assert kronecker_A(3, 6) == kronecker_kac_via_zeta(3, 6)
    for r, alpha in ((3, 0), (3, -1), (2, 1)):
        with pytest.raises(UnsupportedParameter):
            kronecker_A(r, alpha)


# the bracket of kronecker_A as once transcribed for alpha <= 5: rows of
# (c_r, c_const), one monomial q^(c_r r + c_const) each, times the prefactor
# (q^(r-1) - 1)(q^r - 1) / ((q - 1)^2 (q + 1))
KRONECKER_BRACKETS = {
    1: [(0, 0)],
    2: [(2, -4), (1, -1), (1, -2), (0, 0)],
    3: [(4, -8), (3, -5), (3, -6), (2, -2), (2, -3), (2, -4), (1, -1), (1, -2), (0, 0)],
    4: [(6, -12), (5, -9), (5, -10), (4, -6), (4, -7), (4, -8), (3, -3), (3, -4),
        (3, -5), (3, -6), (2, -2), (2, -3), (2, -4), (1, -1), (1, -2), (0, 0)],
    5: [(8, -16), (7, -13), (7, -14), (6, -10), (6, -11), (6, -12), (5, -7), (5, -8),
        (5, -9), (5, -10), (4, -4), (4, -5), (4, -6), (4, -7), (4, -8), (3, -3),
        (3, -4), (3, -5), (3, -6), (2, -2), (2, -3), (2, -4), (1, -1), (1, -2), (0, 0)],
}


@pytest.mark.parametrize("alpha", sorted(KRONECKER_BRACKETS))
def test_kronecker_tent_is_the_transcribed_bracket(alpha):
    # the tent term q^(k(r-2) + j) is the linear form (k, j - 2k) in r
    tent = [(k, j - 2 * k) for k in range(2 * alpha - 1)
            for j in range(min(k + 1, 2 * alpha - 1 - k))]
    assert sorted(tent) == sorted(KRONECKER_BRACKETS[alpha])
    for r in range(3, 14):
        bracket = QPolynomial.zero()
        for c_r, c_const in KRONECKER_BRACKETS[alpha]:
            bracket = bracket + q(c_r * r + c_const)
        table = RationalFunction((q(r - 1) - 1) * (q(r) - 1) * bracket,
                                 (q(1) - 1) ** 2 * (q(1) + 1))
        assert kronecker_A(r, alpha) == table
        assert kronecker_A(r, alpha).to_string() == table.to_string()


@pytest.mark.parametrize("r", range(3, 14))
def test_kronecker_A_equals_the_monomial_listing(r):
    for alpha in range(1, 41):
        assert kronecker_A(r, alpha) == symbolic_reference.kronecker_A_monomials(r, alpha), alpha


def test_kronecker_A_equals_the_monomial_listing_at_large_alpha():
    assert kronecker_A(3, 2000) == symbolic_reference.kronecker_A_monomials(3, 2000)


@pytest.mark.parametrize("form,args", [
    (gloop_A2, (0, 1)), (gloop_A2, (1, 0)), (gloop_A3, (1, 0)),
    (gloop_fiber, (1, 1)), (gloop_fiber, (2, 0)), (gloop_Z, (1,)), (kronecker_Z, (2,)),
], ids=lambda v: getattr(v, "__name__", None) or "-".join(map(str, v)))
def test_bad_parameters_raise_unsupported(form, args):
    with pytest.raises(UnsupportedParameter):
        form(*args)


@pytest.mark.parametrize("alpha,q_val,expected", [(1, 2, 7), (1, 3, 13),
                                                  (2, 2, 77), (3, 2, 525)])
def test_kronecker_A_matches_census(alpha, q_val, expected):
    census = count_absolutely_indecomposable(kronecker_quiver(3), alpha,
                                             (1, 2), q_val)
    assert census == kronecker_A(3, alpha).evaluate(q_val) == expected


@pytest.mark.parametrize("r,alpha,q_val,expected", [
    (4, 1, 3, 130), (5, 1, 2, 155), (6, 1, 3, 11011), (4, 2, 2, 1015), (5, 2, 2, 13795)])
def test_kronecker_A_matches_census_beyond_three_arrows(r, alpha, q_val, expected):
    census = count_absolutely_indecomposable(kronecker_quiver(r), alpha,
                                             (1, 2), q_val)
    assert census == kronecker_A(r, alpha).evaluate(q_val) == expected


def test_kronecker_Z_degrees():
    zn, zd = kronecker_Z(3)
    assert len(zn) == 2 and len(zd) == 4


# rational points (q, T) off the poles of both zeta families
_QT_GRID = [(Fraction(q0), Fraction(t0)) for q0 in (2, 3, -2, Fraction(1, 2), Fraction(5, 3))
            for t0 in (0, 1, Fraction(-1, 2), Fraction(7, 3))]


def _at(coeffs, q0, t0):
    """A T-coefficient list over Q(q), evaluated at (q0, t0)."""
    return sum(c.evaluate(q0) * t0 ** k for k, c in enumerate(coeffs))


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_gloop_Z_factored_form(g):
    zn, zd = gloop_Z(g)
    for q0, t0 in _QT_GRID:
        assert _at(zn, q0, t0) == (q0 ** 3 - 1) * (q0 ** (2 * g) - 1)
        assert _at(zd, q0, t0) == (q0 ** 3 - t0) * (q0 ** (2 * g) - t0)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_kronecker_Z_factored_form(r):
    zn, zd = kronecker_Z(r)
    for q0, t0 in _QT_GRID:
        assert _at(zn, q0, t0) == ((q0 ** 2 - 1) * (q0 ** r - 1)
                                   * (q0 ** r * (q0 - 1) * (q0 ** 2 + t0)
                                      + (q0 ** 2 + 1) * (q0 ** (2 * r + 1) - t0)))
        assert _at(zd, q0, t0) == ((q0 ** 4 - t0) * (q0 ** (2 * r) - t0)
                                   * (q0 ** (r + 1) - t0))


def test_cyclic3_limits():
    A = cyclic3_limit_A()
    B = cyclic3_limit_B()
    assert A == RationalFunction(q(2) + 4 * q(1) + 1, (q(1) - 1) ** 2)
    assert B == RationalFunction(q(2) + 4 * q(1) + 1, q(2))
    one = RationalFunction.one()
    qinv = RationalFunction.q(-1)
    # B/(1-1/q)^3 = A/(1-1/q)
    assert B / (one - qinv) ** 3 == A / (one - qinv)
