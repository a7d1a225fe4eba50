import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercount import qpolynomial
from quivercount.closedforms import gloop_Z
from quivercount.errors import PoleAtEvaluationPoint
from quivercount.qpolynomial import QPolynomial, RationalFunction, rf_sum
from symbolic_reference import poincare_from_zeta, reduce_euclid, zeta_fixed_q

q = QPolynomial.q


def rf(num, den=None):
    return RationalFunction(num, den)


class TestQPolynomial:
    def test_no_zero_coefficients_stored(self):
        p = QPolynomial({3: 0, 1: 2, 0: 0})
        assert p.coeffs == {1: Fraction(2)}

    def test_canonical_equality(self):
        a = q(2) + 4 * q(1) + 1
        b = QPolynomial({0: 1, 1: 4, 2: 1})
        assert a == b and hash(a) == hash(b)

    def test_arithmetic(self):
        a = q(1) + 1
        assert (a * a) == q(2) + 2 * q(1) + 1
        assert (a - a).is_zero()
        assert a ** 3 == q(3) + 3 * q(2) + 3 * q(1) + 1

    def test_laurent(self):
        a = q(-1) + 1
        assert (a * q(1)) == q(1) + 1
        assert a.low_degree() == -1

    def test_divmod(self):
        num = q(3) - 1
        den = q(1) - 1
        quo, rem = num.divmod_ordinary(den)
        assert rem.is_zero()
        assert quo == q(2) + q(1) + 1

    def test_to_string(self):
        assert (q(2) + 4 * q(1) + 1).to_string() == "q^2 + 4q + 1"
        assert (q(1) - 2).to_string() == "q - 2"
        assert QPolynomial.zero().to_string() == "0"


class TestRationalFunction:
    def test_rf_eval_examples(self):
        # identity, the limit fraction of the triangle, a geometric sum
        assert rf(q(1)).evaluate(2) == 2
        f = rf(q(2) + 4 * q(1) + 1, (q(1) - 1) ** 2)
        assert f.evaluate(2) == 13
        g = rf(q(3) - 1, q(1) - 1)
        assert g.evaluate(3) == 13

    def test_pole(self):
        f = rf(QPolynomial.one(), q(1) - 1)
        with pytest.raises(PoleAtEvaluationPoint):
            f.evaluate(1)

    def test_adams_examples(self):
        assert rf(q(1)).adams(2) == rf(q(2))
        f = RationalFunction.one() / (RationalFunction.one() - rf(q(-1)))
        assert f.adams(1) == f
        g = rf(q(1) + 1, q(1) - 1)
        assert g.adams(3) == rf(q(3) + 1, q(3) - 1)

    def test_adams_composition(self):
        random.seed(1)
        for _ in range(20):
            f = rf(QPolynomial({random.randint(-3, 3): random.randint(-5, 5) or 1
                                for _ in range(3)}),
                   q(1) + random.randint(2, 5))
            a, b = random.randint(1, 4), random.randint(1, 4)
            assert f.adams(a).adams(b) == f.adams(a * b)

    def test_reduction_canonical(self):
        f = rf((q(1) - 1) * (q(1) + 1), (q(1) - 1) * (q(2) + 1))
        assert f == rf(q(1) + 1, q(2) + 1)
        # denominator has positive leading coefficient and integral coeffs
        g = rf(q(1), -2 * q(1) + 2)
        assert g.den.leading_coeff() > 0
        assert all(c.denominator == 1 for c in g.den.coeffs.values())

    def test_field_property(self):
        random.seed(2)
        for _ in range(25):
            f = rf(QPolynomial({random.randint(0, 3): random.randint(-4, 4)
                                for _ in range(3)}) + 1,
                   QPolynomial({random.randint(0, 2): random.randint(1, 4)
                                for _ in range(2)}) + 1)
            g = rf(q(1) + random.randint(0, 3), q(2) + random.randint(1, 3))
            assert (f * g) / g == f
            assert f - f == RationalFunction.zero()

    def test_eval_ring_homomorphism(self):
        random.seed(3)
        for _ in range(25):
            f = rf(QPolynomial({random.randint(0, 3): random.randint(-4, 4)
                                for _ in range(2)}) + 1, q(1) + 2)
            g = rf(q(2) - 3, q(1) + 5)
            x = Fraction(random.randint(2, 9), random.randint(1, 3))
            assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
            assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)

    def test_cross_multiplication_equality(self):
        f = rf(q(1), q(1) - 1)
        g = rf(q(2), q(2) - q(1))
        assert f == g
        assert f.num * g.den == g.num * f.den

    def test_taylor_coefficients(self):
        f = RationalFunction.one() / (RationalFunction.one() - rf(q(1)))
        assert f.taylor_coefficients(4) == [1, 1, 1, 1, 1]
        g = rf(QPolynomial.one(), (q(1) - 1) ** 2)
        # 1/(1-q)^2 = sum (n+1) q^n
        assert g.taylor_coefficients(3) == [1, 2, 3, 4]

    def test_qinv_series(self):
        f = rf(q(2) + 4 * q(1) + 1, (q(1) - 1) ** 2)
        # (1 + 4u + u^2)/(1-u)^2 = 1 + 6u + 12u^2 + ... in u = 1/q
        assert f.qinv_series(2) == [1, 6, 12]

    def test_to_string(self):
        f = rf(q(2) + 4 * q(1) + 1, (q(1) - 1) ** 2)
        assert f.to_string() == "(q^2 + 4q + 1) / (q^2 - 2q + 1)"
        assert rf(q(1) + 2).to_string() == "q + 2"


# -- the integer canonical form against the Euclidean reducer over Q ----------

_rational = st.one_of(st.integers(-6, 6),
                     st.fractions(min_value=-6, max_value=6, max_denominator=4))
_laurent = st.dictionaries(st.integers(-3, 5), _rational, min_size=1, max_size=4)
_shared = st.sampled_from([q(k) - 1 for k in range(1, 5)]
                          + [q(1) + 1, q(2) + 1, q(1) + 2, 3 * q(2) - q(1) + 2]
                          # values 1 or -1 at small points, where they hide
                          # from a heuristic gcd whose xi is too small
                          + [q(1) - 3, q(1) - 5, 2 * q(1) - 7]
                          + [q(j) for j in range(-2, 4)])


@st.composite
def _quotients(draw):
    """Laurent (num, den) with a nontrivial common factor."""
    num = QPolynomial(draw(_laurent))
    den = QPolynomial(draw(_laurent))
    if den.is_zero():
        den = QPolynomial.one()
    for factor in draw(st.lists(_shared, max_size=3)):
        num, den = num * factor, den * factor
    return num, den


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(_quotients())
    def test_matches_euclid_reducer(self, pair):
        num, den = pair
        f = rf(num, den)
        ref_num, ref_den = reduce_euclid(num.coeffs, den.coeffs)
        assert f.num.coeffs == ref_num and f.den.coeffs == ref_den
        for c in (*f.num.coeffs.values(), *f.den.coeffs.values()):
            assert type(c) is int

    @settings(max_examples=100, deadline=None)
    @given(_quotients(), _quotients(), st.lists(_shared, max_size=2), st.booleans())
    def test_equality_is_cross_multiplication(self, p1, p2, factors, same):
        f = rf(*p1)
        if same:
            # the same quotient, written with other common factors
            num, den = p1
            for factor in factors:
                num, den = num * factor, den * factor
            g = rf(num, den)
        else:
            g = rf(*p2)
        assert (f.num * g.den == g.num * f.den) == (f == g)
        if same:
            assert f == g and hash(f) == hash(g)

    def test_euclid_fallback(self, monkeypatch):
        calls = []
        euclid = qpolynomial._euclid_cofactors

        def counted(a, b):
            calls.append(1)
            return euclid(a, b)

        monkeypatch.setattr(qpolynomial, "_euclid_cofactors", counted)
        pairs = [((q(3) - 1) * (q(1) + 2), (q(2) - 1) * (2 * q(1) - 3)),
                 ((q(1) + 1) ** 3 * q(-2), 6 * (q(2) - 1) * (q(1) + 1)),
                 (QPolynomial({0: Fraction(1, 2), 2: 3}) * (q(4) - 1),
                  QPolynomial({1: Fraction(2, 3), 0: -1}) * (q(2) + 1))]
        expected = [reduce_euclid(n.coeffs, d.coeffs) for n, d in pairs]
        for (n, d), (ref_num, ref_den) in zip(pairs, expected):
            f = rf(n, d)
            assert (f.num.coeffs, f.den.coeffs) == (ref_num, ref_den)
        assert not calls  # the heuristic gcd settles all of these
        monkeypatch.setattr(qpolynomial, "_HEU_TRIES", 0)
        for (n, d), (ref_num, ref_den) in zip(pairs, expected):
            f = rf(n, d)
            assert (f.num.coeffs, f.den.coeffs) == (ref_num, ref_den)
        assert len(calls) == len(pairs)

    @settings(max_examples=40, deadline=None)
    @given(_quotients())
    def test_matches_sympy_cancel(self, pair):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("q")

        def expr(p):
            return sum(sympy.Rational(c.numerator, c.denominator) * x ** e
                       for e, c in p.coeffs.items())

        num, den = pair
        f = rf(num, den)
        s_num, s_den = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
        assert sympy.expand(expr(f.num) * s_den - expr(f.den) * s_num) == 0
        assert sympy.degree(expr(f.den), x) == sympy.degree(s_den, x)


# -- arithmetic on canonical forms against the reduced cross product ----------

@st.composite
def _operands(draw):
    """A rational function of a shape the arithmetic treats apart: a
    quotient, a (Laurent) polynomial, a monomial c q^k or a scalar."""
    kind = draw(st.sampled_from(("quotient", "polynomial", "monomial", "scalar")))
    if kind == "quotient":
        return rf(*draw(_quotients()))
    if kind == "polynomial":
        return rf(draw(_quotients())[0])
    if kind == "monomial":
        return rf(q(draw(st.integers(-3, 3)), draw(_rational.filter(bool))))
    return rf(QPolynomial.const(draw(_rational)))


@st.composite
def _operand_pairs(draw):
    """(f, g) with g an operand, an int or Fraction, or a function over the
    same denominator as f."""
    f = draw(_operands())
    kind = draw(st.sampled_from(("operand", "number", "same denominator")))
    if kind == "operand":
        return f, draw(_operands())
    if kind == "number":
        return f, draw(_rational)
    p = QPolynomial(draw(st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=3)))
    g = rf(draw(st.sampled_from((1, -1))) * f.num + p * f.den, f.den)
    assert g.is_zero() or g.den == f.den
    return f, g


def _parts(x):
    if isinstance(x, RationalFunction):
        return x.num, x.den
    return QPolynomial.const(x), QPolynomial.one()


def _assert_reduces(result, num, den):
    """result is the canonical form of num/den, with integer coefficients."""
    ref_num, ref_den = reduce_euclid(num.coeffs, den.coeffs)
    assert result.num.coeffs == ref_num and result.den.coeffs == ref_den
    for c in (*result.num.coeffs.values(), *result.den.coeffs.values()):
        assert type(c) is int


_CROSS = {
    operator.add: lambda n1, d1, n2, d2: (n1 * d2 + n2 * d1, d1 * d2),
    operator.sub: lambda n1, d1, n2, d2: (n1 * d2 - n2 * d1, d1 * d2),
    operator.mul: lambda n1, d1, n2, d2: (n1 * n2, d1 * d2),
    operator.truediv: lambda n1, d1, n2, d2: (n1 * d2, d1 * n2),
}


class TestArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(_operand_pairs(), st.sampled_from(sorted(_CROSS, key=lambda op: op.__name__)))
    def test_matches_reduced_cross_product(self, pair, op):
        f, g = pair
        for x, y in ((f, g), (g, f)):
            num, den = _CROSS[op](*_parts(x), *_parts(y))
            if den.is_zero():
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            _assert_reduces(op(x, y), num, den)

    @settings(max_examples=150, deadline=None)
    @given(_operands(), st.integers(-3, 3), st.integers(1, 3))
    def test_powers_and_adams(self, f, k, m):
        num, den = (f.num ** k, f.den ** k) if k >= 0 else (f.den ** -k, f.num ** -k)
        if den.is_zero():
            with pytest.raises(ZeroDivisionError):
                f ** k
        else:
            _assert_reduces(f ** k, num, den)
        _assert_reduces(f.adams(m), f.num.adams(m), f.den.adams(m))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_operands(), max_size=6), _operands())
    def test_rf_sum_is_the_plain_sum(self, terms, start):
        assert rf_sum(terms, start) == sum(terms, start)
        assert rf_sum(terms) == sum(terms, RationalFunction.zero())

    def test_rf_sum(self):
        f = rf(q(2) + 1, (q(1) - 1) * (q(1) + 2))
        assert rf_sum([]) == RationalFunction.zero()
        assert rf_sum([], f) == f
        # two terms over each of three denominators, one of them 1, and
        # a pair that cancels to a smaller denominator
        terms = [f, rf(q(1)), rf(1, q(1) - 1), rf(3 * q(1), (q(1) - 1) * (q(1) + 2)),
                 rf(q(3) - 2), rf(-1, q(1) - 1), rf(Fraction(1, 2))]
        expect = RationalFunction.one()
        for t in terms:
            expect = expect + t
        assert rf_sum(terms, RationalFunction.one()) == expect
        assert rf_sum([rf(1, q(1) - 1), rf(-1, q(1) - 1)]) == RationalFunction.zero()


# -- exact results: an int or a Fraction, never a float ------------------------

def _exact(values):
    return all(type(v) in (int, Fraction) for v in values)


class TestNoFloat:
    def test_geometric_taylor_series(self):
        coeffs = rf(QPolynomial.one(), 1 - 2 * q(1)).taylor_coefficients(3)
        assert coeffs == [1, 2, 4, 8] and _exact(coeffs)

    def test_series_expansions(self):
        f = rf(q(1), 2 * q(1) - 1)
        assert f.qinv_series(3) == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                                    Fraction(1, 16)]
        assert _exact(f.qinv_series(3))
        assert _exact(rf(q(1), q(1) - 1).qinv_series(4))
        g = rf(QPolynomial.one(), 3 - q(1))
        assert g.taylor_coefficients(2) == [Fraction(1, 3), Fraction(1, 9), Fraction(1, 27)]
        assert _exact(g.taylor_coefficients(2))

    def test_division_and_monic(self):
        for num, den in [(q(3) - 1, q(1) - 1), (q(2) + 1, 2 * q(1) + 1),
                         (QPolynomial({0: Fraction(1, 3), 2: 5}), 3 * q(1) - 2)]:
            quo, rem = num.divmod_ordinary(den)
            assert quo * den + rem == num
            assert _exact(quo.coeffs.values()) and _exact(rem.coeffs.values())
        m = (2 * q(1) + 3).monic()
        assert m == q(1) + Fraction(3, 2) and _exact(m.coeffs.values())

    def test_evaluate(self):
        for x in (2, Fraction(1, 3), -5):
            assert _exact([(q(2) - 3 * q(-1)).evaluate(x),
                           rf(q(2) + 1, 2 * q(1) + 7).evaluate(x)])

    def test_zeta_expansion(self):
        zn, zd = gloop_Z(2)
        Z = zeta_fixed_q(zn, zd, 3)
        assert _exact((*Z.num.coeffs.values(), *Z.den.coeffs.values()))
        assert _exact(poincare_from_zeta(Z, 3, 16, 3))
