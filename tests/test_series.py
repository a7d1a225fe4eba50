import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quivercount.errors import ConstantTermNotOne, NonzeroConstantTerm
from quivercount.qpolynomial import QPolynomial, RationalFunction
from quivercount.series import (TruncatedSeries, VolumeSequence, all_exponents,
                                moebius, plethystic_exp, plethystic_log)

q = RationalFunction.q
one = RationalFunction.one()


def geometric_series(variables, bound, var_index: int, ratio) -> TruncatedSeries:
    """1 + c t + c^2 t^2 + ... in the chosen variable."""
    coeffs = {}
    n = len(bound)
    for k in range(bound[var_index] + 1):
        r = tuple(k if i == var_index else 0 for i in range(n))
        coeffs[r] = ratio ** k
    return TruncatedSeries(variables, bound, coeffs)


def t_series(bound, coeffs):
    names = [f"t{i}" for i in range(len(bound))]
    return TruncatedSeries(names, bound, coeffs)


# c q^e / d, d a denominator of the kind the counting series carry
_coefficients = st.builds(
    lambda c, e, d: RationalFunction(QPolynomial({e: c}), d),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    st.integers(-2, 3),
    st.sampled_from([QPolynomial.one(), QPolynomial({1: 1, 0: -1}),
                     QPolynomial({2: 1, 0: -1}), QPolynomial({1: 1, 0: 1})]))


def test_moebius():
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


class TestPlethystic:
    def test_exp_single_variable_geometric(self):
        # Exp(t) = 1/(1-t)
        F = t_series((3,), {(1,): one})
        assert plethystic_exp(F) == geometric_series(("t0",), (3,), 0, one)

    def test_exp_two_variables(self):
        # Exp(t1 + t2) = product of geometric series
        F = t_series((1, 1), {(1, 0): one, (0, 1): one})
        expect = t_series((1, 1), {(0, 0): one, (1, 0): one, (0, 1): one, (1, 1): one})
        assert plethystic_exp(F) == expect

    def test_exp_q_coefficient(self):
        # Exp(q t) = 1/(1 - q t); the t^2 coefficient is q^2
        F = t_series((2,), {(1,): q(1)})
        G = plethystic_exp(F)
        assert G.coefficient((2,)) == q(2)
        assert plethystic_log(G) == F

    def test_constant_term_guards(self):
        with pytest.raises(NonzeroConstantTerm):
            plethystic_exp(t_series((2,), {(0,): one}))
        with pytest.raises(ConstantTermNotOne):
            plethystic_log(t_series((2,), {(0,): q(1)}))

    def test_log_of_geometric(self):
        G = geometric_series(("t0",), (3,), 0, one)
        assert plethystic_log(G) == t_series((3,), {(1,): one})

    def test_roundtrip_two_variables(self):
        F = t_series((1, 1), {(1, 0): q(1), (0, 1): q(1), (1, 1): one})
        assert plethystic_log(plethystic_exp(F)) == F

    def test_roundtrip_random(self):
        random.seed(4)
        for _ in range(10):
            coeffs = {}
            for r1 in range(3):
                for r2 in range(2):
                    if r1 == r2 == 0:
                        continue
                    c = random.randint(-3, 3)
                    e = random.randint(0, 2)
                    if c:
                        coeffs[(r1, r2)] = RationalFunction(QPolynomial({e: c}))
            F = t_series((2, 1), coeffs)
            assert plethystic_log(plethystic_exp(F)) == F

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_log_inverts_exp(self, data):
        bound = data.draw(st.sampled_from([(3,), (2, 1), (1, 1, 1)]))
        monomials = [r for r in all_exponents(bound) if any(r)]
        F = t_series(bound, data.draw(st.dictionaries(
            st.sampled_from(monomials), _coefficients, max_size=len(monomials))))
        assert plethystic_log(plethystic_exp(F)) == F

    def test_exp_additivity(self):
        random.seed(5)
        for _ in range(5):
            def rand_series():
                coeffs = {}
                for r in range(1, 3):
                    coeffs[(r,)] = RationalFunction(
                        QPolynomial({random.randint(0, 2): random.randint(-2, 3)}))
                return t_series((2,), coeffs)
            F, G = rand_series(), rand_series()
            lhs = plethystic_exp(F + G)
            rhs = plethystic_exp(F) * plethystic_exp(G)
            assert lhs == rhs

    def test_box_truncation_exact_product(self):
        # coefficient at r <= bound of a product is the full convolution
        A = t_series((2,), {(1,): q(1), (2,): q(3)})
        B = t_series((2,), {(0,): one, (1,): q(2)})
        prod = A * B
        assert prod.coefficient((2,)) == q(3) + q(1) * q(2)

    def test_series_inverse(self):
        G = geometric_series(("t0",), (4,), 0, q(1))
        H = G.inverse()
        assert (G * H) == t_series((4,), {(0,): one})

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.booleans())
    def test_series_times_its_inverse_is_one(self, data, symbolic):
        # RationalFunction coefficients, or plain rationals
        bound = data.draw(st.sampled_from([(3,), (2, 1), (1, 1, 1)]))
        zero_key = (0,) * len(bound)
        values = _coefficients if symbolic else st.fractions(-4, 4, max_denominator=5)
        monomials = list(all_exponents(bound))
        coeffs = dict(zip(monomials, data.draw(st.lists(values, min_size=len(monomials),
                                                        max_size=len(monomials)))))
        coeffs[zero_key] = data.draw(values.filter(bool))
        names = [f"t{i}" for i in range(len(bound))]
        zero, unit = (RationalFunction.zero(), one) if symbolic else (Fraction(0), Fraction(1))
        S = TruncatedSeries(names, bound, coeffs, zero, unit)
        assert S * S.inverse() == TruncatedSeries(names, bound, {zero_key: unit}, zero, unit)


class TestVolumeSequence:
    def test_adams_shift(self):
        v = VolumeSequence([1, 2, 3, 4])
        assert v.adams(2).values == (Fraction(2), Fraction(4), None, None)
        assert v.adams(1) == v

    def test_none_absorbs(self):
        v = VolumeSequence([1, None])
        w = VolumeSequence([2, 5])
        assert (v + w).values == (Fraction(3), None)
        assert (v * w).values == (Fraction(2), None)

    def test_series_with_volume_coefficients(self):
        length = 2
        zero = VolumeSequence.const(0, length)
        unit = VolumeSequence.const(1, length)
        F = TruncatedSeries(("t",), (2,), {(1,): VolumeSequence([2, 4])},
                            zero=zero, one=unit)
        G = plethystic_exp(F)
        # Exp(q t) at q=2: t^2 coefficient is q^2 = 4 over F_q
        assert G.coefficient((2,)).entry(1) == 4
