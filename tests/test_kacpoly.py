from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivercount import kacpoly, quiver
from quivercount.bruteforce import (count_absolutely_indecomposable,
                                    count_iso_classes, jet_counts,
                                    moment_fiber_count)
from quivercount.closedforms import (GLOOP_RANK3_TABLE, cyclic3_limit_A,
                                     cyclic3_limit_B, gloop_A2, gloop_A3,
                                     gloop_Z, kronecker_A, kronecker_Z)
from quivercount.errors import (CapExceeded, Not2Connected, NotConnected,
                               UnsupportedParameter)
from quivercount.kacpoly import (gloop_kac_rank2, gloop_kac_rank3,
                                 gloop_rank2_recurrence,
                                 gloop_rank3_recurrence,
                                 kronecker_kac_via_zeta, limit_A, limit_B,
                                 m_to_a, one_vertex_m_series,
                                 order_complex_hilbert, poincare_symbolic,
                                 rank1_fiber_count,
                                 toric_kac_trees, toric_kac_wyss,
                                 _rank2_initial, _rank2_matrix,
                                 _rank3_initial, _rank3_matrix)
from quivercount.qpolynomial import QPolynomial, RationalFunction
from quivercount.quiver import (Quiver, a2_quiver, connected_quiver_corpus,
                                cyclic_quiver, is_2_connected, is_connected,
                                jordan_quiver, kronecker_quiver, loop_quiver)
from quivercount.series import TruncatedSeries, plethystic_exp
from symbolic_reference import (hilbert_subsets, iterate_recurrence, limit_A_subsets,
                                poincare_from_zeta, rank3_matrix_checksum,
                                toric_kac_levels, zeta_fixed_q)

q = QPolynomial.q
one = RationalFunction.one()


class TestToricKac:
    def test_chain_formula_examples(self):
        assert toric_kac_wyss(jordan_quiver(), 1) == q(1)
        assert toric_kac_wyss(jordan_quiver(), 3) == q(3)
        assert toric_kac_wyss(cyclic_quiver(3), 1) == q(1) + 2
        # a tree quiver counts a single class
        path = Quiver(["1", "2", "3"], [(0, 1), (1, 2)])
        assert toric_kac_wyss(path, 1) == QPolynomial.one()

    def test_tree_formula_examples(self):
        assert toric_kac_trees(jordan_quiver(), 2) == q(2)
        assert toric_kac_trees(cyclic_quiver(3), 1) == q(1) + 2
        assert toric_kac_trees(a2_quiver(), 3) == QPolynomial.const(3)
        assert toric_kac_wyss(a2_quiver(), 3) == QPolynomial.const(3)

    def test_formulas_agree_samples(self):
        for Q in [cyclic_quiver(3), cyclic_quiver(4), kronecker_quiver(3),
                  loop_quiver(2), Quiver(["1", "2"], [(0, 1), (1, 0), (0, 0)])]:
            for alpha in (1, 2, 3):
                assert toric_kac_wyss(Q, alpha) == toric_kac_trees(Q, alpha)

    def test_degree_law(self):
        # deg A = alpha * b(Q)
        from quivercount.quiver import betti
        for Q in [cyclic_quiver(3), loop_quiver(2), kronecker_quiver(3)]:
            for alpha in (1, 2, 3):
                assert toric_kac_wyss(Q, alpha).degree() == alpha * betti(Q)

    def test_subset_sums_match_level_vectors(self):
        corpus = connected_quiver_corpus(4, 6)
        for Q in corpus:
            for alpha in (1, 2, 3):
                assert toric_kac_wyss(Q, alpha) == toric_kac_levels(Q, alpha)
        for Q in corpus:
            if Q.num_arrows <= 4:
                for alpha in (4, 5, 6):
                    assert toric_kac_wyss(Q, alpha) == toric_kac_levels(Q, alpha)

    def test_degenerate_alpha(self):
        # alpha = 0 leaves only the empty chain: one class on one vertex
        assert toric_kac_wyss(loop_quiver(2), 0) == QPolynomial.one()
        assert toric_kac_wyss(cyclic_quiver(3), 0).is_zero()

    def test_disconnected_rejected(self):
        Q = Quiver(["1", "2"], [])
        with pytest.raises(NotConnected):
            toric_kac_wyss(Q, 1)
        with pytest.raises(NotConnected):
            toric_kac_trees(Q, 1)


class TestGloopRecurrences:
    def test_level_one_sum(self):
        # the level-one class sum for one loop: q^4/(q(q-1)(q+1)) +
        # q^2(q-2)/(2(q-1)) + q + q^3/(2(q+1))
        qm = RationalFunction.q
        expect = (qm(4) / (qm(1) * (qm(1) - 1) * (qm(1) + 1))
                  + qm(2) * (qm(1) - 2) / ((qm(1) - 1) * 2)
                  + qm(1) + qm(3) / ((qm(1) + 1) * 2))
        assert gloop_rank2_recurrence(1, 1) == expect

    def test_rank2_closed_form(self):
        assert gloop_kac_rank2(1, 1) == RationalFunction(q(1))
        for g in (1, 2, 3):
            for alpha in (1, 2, 3):
                assert gloop_kac_rank2(g, alpha) == gloop_A2(g, alpha)

    def test_rank2_example_value(self):
        assert gloop_A2(2, 1).evaluate(2) == 40

    def test_rank3_table_entry(self):
        expect = RationalFunction(QPolynomial({7: 1, 6: 1, 5: 3, 4: 2, 3: 2}))
        assert gloop_kac_rank3(1, 3) == expect

    def test_rank3_closed_form_sample(self):
        for g in (1, 2):
            for alpha in (1, 2):
                assert gloop_kac_rank3(g, alpha) == gloop_A3(g, alpha)

    def test_burnside_anchor(self):
        assert gloop_rank2_recurrence(1, 2).evaluate(2) == \
            count_iso_classes(jordan_quiver(), 2, (2,), 2)
        assert gloop_rank3_recurrence(2, 1).evaluate(2) == \
            count_iso_classes(loop_quiver(2), 1, (3,), 2)

    @pytest.mark.parametrize("g", range(7))
    def test_recurrences_match_rational_function_iteration(self, g):
        # g = 0 puts the Laurent entries q^(2g-3) and q^(5g-8) in the matrices
        for matrix, initial, recurrence in ((_rank2_matrix, _rank2_initial,
                                             gloop_rank2_recurrence),
                                            (_rank3_matrix, _rank3_initial,
                                             gloop_rank3_recurrence)):
            M, v = matrix(g), initial(g)
            for alpha in range(1, 9):
                expect = sum(iterate_recurrence(M, v, alpha - 1), RationalFunction.zero())
                assert recurrence(g, alpha) == expect

    def test_matrix_transcription(self):
        # frozen checksum plus three independently re-typed entries at g=2
        assert rank3_matrix_checksum(2) == \
            "011c4b8d47367a216ee709c3b4f83aa3428571982c45406f06faaeee1b9a0dca"
        M = _rank3_matrix(2)
        qm = RationalFunction.q
        assert M[0][0] == qm(10)                                  # q^(9g-8)
        assert M[1][0] == qm(4) * (qm(3) - 1)                     # q^(5g-6)(q^3-1)
        assert M[8][2] == qm(3) * (qm(1) - 1)                     # q^(3g-3)(q-1)


class TestSeriesConversion:
    def test_m_to_a_roundtrip(self):
        coeffs = {(0,): one, (1,): RationalFunction.q(2), (2,): RationalFunction.q(5)}
        M = TruncatedSeries(("t",), (2,), coeffs)
        assert plethystic_exp(m_to_a(M)) == M

    def test_rank1_count_is_free_space(self):
        # units act trivially in rank one: A_1 = q^(alpha g)
        for g, alpha in [(1, 1), (2, 2)]:
            assert count_absolutely_indecomposable(loop_quiver(g), alpha, (1,), 2) \
                == 2 ** (alpha * g)
            assert toric_kac_wyss(loop_quiver(g), alpha) == q(alpha * g)

    def test_rank2_extraction_formula(self):
        # A2 = M2 - (A1(q)^2 + A1(q^2))/2
        g, alpha = 2, 2
        m2 = gloop_rank2_recurrence(g, alpha)
        a1 = RationalFunction.q(alpha * g)
        direct = m2 - (a1 * a1 + a1.adams(2)) * Fraction(1, 2)
        assert gloop_kac_rank2(g, alpha) == direct == gloop_A2(g, alpha)

    def test_rank_cap_names_the_rank(self):
        with pytest.raises(CapExceeded, match="capped at rank 3; this series needs rank 4"):
            one_vertex_m_series(1, 1, 4)


class TestRankOneFibers:
    def test_examples(self):
        assert rank1_fiber_count(jordan_quiver(), 1) == RationalFunction(q(2))
        assert rank1_fiber_count(a2_quiver(), 1) == RationalFunction(2 * q(1) - 1)

    def test_brute_anchors(self):
        for Q in (a2_quiver(), cyclic_quiver(3)):
            ones = (1,) * Q.num_vertices
            for alpha in (1, 2):
                f = rank1_fiber_count(Q, alpha)
                for q0 in (2, 3, 5):
                    assert f.evaluate(q0) == moment_fiber_count(Q, alpha, ones, q0)


class TestLimits:
    def test_cyclic3_values(self):
        assert limit_A(cyclic_quiver(3)) == cyclic3_limit_A()
        assert limit_B(cyclic_quiver(3)) == cyclic3_limit_B()
        assert cyclic3_limit_A().evaluate(2) == 13

    def test_jordan(self):
        assert limit_A(jordan_quiver()) == one

    def test_two_cycle_leading_terms(self):
        # q^(-alpha b) A_(Q,alpha) stabilizes to the limit coefficientwise
        Q = cyclic_quiver(2)
        A = limit_A(Q)
        target = A.qinv_series(3)
        from quivercount.quiver import betti
        for alpha in (5, 6):
            f = RationalFunction(toric_kac_wyss(Q, alpha)) * RationalFunction.q(-alpha * betti(Q))
            assert f.qinv_series(3) == target

    def test_not_two_connected_rejected(self):
        with pytest.raises(Not2Connected):
            limit_A(a2_quiver())
        with pytest.raises(Not2Connected):
            order_complex_hilbert(a2_quiver())

    def test_arrow_caps_name_the_arrows(self):
        # the chain and face sums stop past 3^10 state pairs m <= m' of the
        # class lattice and say how many the quiver needs: 3^11 on the
        # 11-cycle, eleven classes of one arrow
        Q = cyclic_quiver(11)
        for fn in (limit_A, order_complex_hilbert):
            with pytest.raises(CapExceeded,
                               match="capped at 59049 state pairs; this quiver needs 177147"):
                fn(Q)

    def test_cap_comes_before_the_lattice(self, monkeypatch):
        # the 40-cycle needs 3^40 pairs; the sums refuse it from the class
        # sizes alone, before any union-find over its 2^40 class sets
        def unreachable(*args):
            raise AssertionError("lattice built past the cap")
        monkeypatch.setattr(kacpoly, "_class_lattice", unreachable)
        monkeypatch.setattr(quiver, "_subset_tables", unreachable)
        for fn in (limit_A, order_complex_hilbert):
            with pytest.raises(CapExceeded, match=f"this quiver needs {3 ** 40}"):
                fn(cyclic_quiver(40))

    @pytest.mark.parametrize("r", range(11, 21))
    def test_kronecker_limit_is_the_stable_count(self, r):
        # past the old 10-arrow cap: one class of r arrows, (r+1)(r+2)/2 pairs
        Q = kronecker_quiver(r)
        target = limit_A(Q).qinv_series(3)
        for alpha in (5, 6):
            f = RationalFunction(toric_kac_wyss(Q, alpha)) * RationalFunction.q(-alpha * (r - 1))
            assert f.qinv_series(3) == target


class TestHilbert:
    def test_cyclic3(self):
        # faces: the empty face, 6 subsets, 6 two-term chains, all with
        # u = 1/q; the series is (1 + 4u + u^2)/(1-u)^2
        h = order_complex_hilbert(cyclic_quiver(3))
        u = RationalFunction.q(-1)
        expect = (one + 4 * u + u * u) / (one - u) ** 2
        assert h == expect
        b = 1
        assert (one - u) ** b / (one - RationalFunction.q(-b)) * h == limit_A(cyclic_quiver(3))

    def test_jordan_trivial_poset(self):
        assert order_complex_hilbert(jordan_quiver()) == one

    def test_two_cycle_identity(self):
        Q = cyclic_quiver(2)
        h = order_complex_hilbert(Q)
        u = RationalFunction.q(-1)
        assert (one - u) / (one - u) * h == h
        assert (one - u) ** 1 / (one - RationalFunction.q(-1)) * h == limit_A(Q)

    @pytest.mark.parametrize("r", range(11, 15))
    def test_kronecker_identity(self, r):
        Q, b = kronecker_quiver(r), r - 1
        u = RationalFunction.q(-1)
        assert (one - u) ** b / (one - RationalFunction.q(-b)) * order_complex_hilbert(Q) \
            == limit_A(Q)


@st.composite
def multigraphs(draw):
    """Connected quivers on one to four vertices with at most seven arrows,
    which repeat slots freely: loops, parallel and antiparallel arrows."""
    n = draw(st.integers(1, 4))
    slots = [(s, t) for s in range(n) for t in range(n)]
    Q = Quiver([str(i) for i in range(n)], draw(st.lists(st.sampled_from(slots), max_size=7)))
    assume(is_connected(Q))
    return Q


class TestClassLattice:
    """The lattice sums, one state per count vector of the parallel
    classes, against sums over arrow subsets."""

    @settings(max_examples=60, deadline=None)
    @given(multigraphs(), st.integers(0, 3))
    def test_toric_equals_the_level_vectors(self, Q, alpha):
        assert toric_kac_wyss(Q, alpha) == toric_kac_levels(Q, alpha)

    @settings(max_examples=60, deadline=None)
    @given(multigraphs())
    def test_limit_and_hilbert_equal_the_mask_sums(self, Q):
        assume(is_2_connected(Q))
        assert limit_A(Q) == limit_A_subsets(Q)
        assert order_complex_hilbert(Q) == hilbert_subsets(Q)

    @settings(max_examples=60, deadline=None)
    @given(multigraphs(), st.integers(0, 3), st.data())
    def test_arrow_order_and_direction_change_nothing(self, Q, alpha, data):
        E = Q.num_arrows
        flips = data.draw(st.lists(st.booleans(), min_size=E, max_size=E))
        order = data.draw(st.permutations(range(E)))
        R = Quiver(Q.vertices, [Q.arrows[a][::-1] if flips[a] else Q.arrows[a] for a in order])
        assert toric_kac_wyss(R, alpha) == toric_kac_wyss(Q, alpha)
        if is_2_connected(Q):
            assert limit_A(R) == limit_A(Q)
            assert order_complex_hilbert(R) == order_complex_hilbert(Q)


class TestZetaExpansion:
    def test_degenerate_zero_map(self):
        # the identically-zero map has Z = 0 and N_n = q^(mn); for the
        # one-loop quiver in rank one this is the jet count q^(2n)
        Z = RationalFunction.zero()
        Ns = poincare_from_zeta(Z, 2, 2, 3)
        assert Ns == [4, 16, 64]
        assert Ns == [Fraction(v) for v in jet_counts(jordan_quiver(), (1,), 2, 3)]

    def test_gloop_expansion_matches_brute(self):
        zn, zd = gloop_Z(2)
        sym = [N.evaluate(2) for N in poincare_symbolic(zn, zd, 16, 2)]
        assert sym == jet_counts(loop_quiver(2), (2,), 2, 2)
        # numeric route agrees with the symbolic one
        numeric = poincare_from_zeta(zeta_fixed_q(zn, zd, 2), 2, 16, 2)
        assert numeric == sym

    def test_kronecker_expansion_small(self):
        zn, zd = kronecker_Z(3)
        sym = [N.evaluate(2) for N in poincare_symbolic(zn, zd, 12, 2)]
        assert sym == jet_counts(kronecker_quiver(3), (1, 2), 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(gloop_Z, g) for g in range(2, 6)]
                           + [(kronecker_Z, r) for r in range(3, 7)]),
           st.integers(0, 32), st.integers(0, 5), st.sampled_from([2, 3, 4, 5, 7]))
    def test_symbolic_expansion_at_q0_is_the_numeric_one(self, zeta, m, n, q0):
        family, k = zeta
        zn, zd = family(k)
        sym = [N.evaluate(q0) for N in poincare_symbolic(zn, zd, m, n)]
        assert sym == poincare_from_zeta(zeta_fixed_q(zn, zd, q0), q0, m, n)
        assert len(sym) == n


class TestKroneckerPipeline:
    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("alpha", range(1, 9))
    def test_reconstruction(self, r, alpha):
        assert kronecker_kac_via_zeta(r, alpha) == kronecker_A(r, alpha)

    def test_reconstruction_at_r_24(self):
        # the toric count of K_24 has 25 lattice states, not 2^24 subsets
        assert kronecker_kac_via_zeta(24, 5) == kronecker_A(24, 5)

    @pytest.mark.parametrize("alpha", [0, -1])
    def test_alpha_below_one_is_unsupported(self, alpha):
        with pytest.raises(UnsupportedParameter, match="alpha"):
            kronecker_kac_via_zeta(3, alpha)


def test_rank3_tables_frozen():
    assert len(GLOOP_RANK3_TABLE) == 15
    assert GLOOP_RANK3_TABLE[(1, 1)] == {1: 1}
