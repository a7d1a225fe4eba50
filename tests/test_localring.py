import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercount.errors import UnsupportedParameter
from quivercount.localring import (Fq, OMatrix, ORing, gl_order, kernel_size_exponent,
                                   smith_invariants, smith_invariants_batch,
                                   smith_normal_form)
from scalar_reference import divide_exact, gl_enumerate, kernel_elements, solve_linear


class TestFq:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25, 49])
    def test_multiplicative_group_cyclic(self, q):
        f = Fq(q)
        orders = [f.element_order(a) for a in range(1, q)]
        assert max(orders) == q - 1
        assert all((q - 1) % o == 0 for o in orders)

    def test_frobenius_is_automorphism(self):
        f = Fq(9)
        frob = {a: a for a in range(9)}
        for a in range(9):
            x = a
            for _ in range(f.p - 1):
                x = f.mul(x, a)
            frob[a] = x
        for a in range(9):
            for b in range(9):
                assert frob[f.add(a, b)] == f.add(frob[a], frob[b])
                assert frob[f.mul(a, b)] == f.mul(frob[a], frob[b])

    def test_x_q_equals_x(self):
        for q in (4, 9, 25):
            f = Fq(q)
            for a in range(q):
                x = a
                for _ in range(q - 1):
                    x = f.mul(x, a)
                assert x == a  # a^q = a; a^{q-1} = 1 for nonzero a


class TestORing:
    def test_units_and_valuation(self):
        R = ORing(3, 2)
        assert R.val(R.zero) == 2
        assert R.val(R.t) == 1
        assert R.val(R.one) == 0 and R.val(R.t) != 0
        for u in R.units():
            assert R.mul(u, R.inv(u)) == R.one

    def test_divide_exact(self):
        # the reference division of tests/scalar_reference.py
        R = ORing(2, 3)
        a = R.from_coeffs([0, 1, 1])  # t + t^2
        b = R.from_coeffs([0, 1])     # t
        assert divide_exact(R, a, b) == R.from_coeffs([1, 1])
        with pytest.raises(ValueError):
            divide_exact(R, R.one, R.t)
        with pytest.raises(ZeroDivisionError):
            divide_exact(R, R.t, R.zero)


class TestInstanceCaches:
    @pytest.mark.parametrize("q,alpha", [(0, 1), (1, 2), (6, 1), (11, 2), (3, 0), (3, -1)])
    def test_rejected_parameters_leave_no_instance(self, q, alpha):
        # Fq and ORing keep one instance per parameter set, cached only
        # once __init__ has accepted it
        fields, rings = dict(Fq._cache), dict(ORing._cache)
        with pytest.raises(UnsupportedParameter):
            ORing(q, alpha)
        with pytest.raises(UnsupportedParameter):
            ORing(q, alpha)  # a second call fails the same way
        if alpha >= 1:
            with pytest.raises(UnsupportedParameter):
                Fq(q)
        assert Fq._cache == fields and ORing._cache == rings

    def test_one_instance_per_parameter_set(self):
        assert Fq(9) is Fq(9) and ORing(9, 2) is ORing(9, 2)
        assert ORing(9, 2).field is Fq(9) and Fq._cache[9] is Fq(9)
        assert ORing._cache[9, 2] is ORing(9, 2)


_RINGS = [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1), (7, 3), (9, 2)]


@st.composite
def ring_elements(draw, count):
    """An O_alpha from _RINGS and `count` of its elements."""
    R = ORing(*draw(st.sampled_from(_RINGS)))
    element = st.lists(st.integers(0, R.q - 1), min_size=R.alpha,
                       max_size=R.alpha).map(tuple)
    return R, [draw(element) for _ in range(count)]


class TestORingProperties:
    @settings(max_examples=200, deadline=None)
    @given(ring_elements(3))
    def test_commutative_ring_axioms(self, drawn):
        R, (a, b, c) = drawn
        assert R.add(a, b) == R.add(b, a) and R.mul(a, b) == R.mul(b, a)
        assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.add(a, R.zero) == a and R.mul(a, R.one) == a
        assert R.add(a, R.neg(a)) == R.zero and R.sub(a, b) == R.add(a, R.neg(b))
        if R.val(a) == 0:
            assert R.mul(a, R.inv(a)) == R.one
        else:
            assert R.val(R.mul(a, b)) >= 1

    @settings(max_examples=100, deadline=None)
    @given(ring_elements(8))
    def test_mul_batch_matches_mul(self, drawn):
        from quivercount.localring import _mul_batch
        R, elems = drawn
        add, mul = R.field.arrays[:2]
        A = np.array(elems[:4], dtype=np.int16).reshape(2, 2, R.alpha)
        B = np.array(elems[4:], dtype=np.int16).reshape(2, 2, R.alpha)
        got = _mul_batch(R.q, add, mul, A, B).reshape(4, R.alpha)
        assert [tuple(row) for row in got.tolist()] == [
            R.mul(a, b) for a, b in zip(elems[:4], elems[4:])]
        # a single element broadcasts against a stack
        got = _mul_batch(R.q, add, mul, A, np.array(elems[7], dtype=np.int16))
        assert [tuple(row) for row in got.reshape(4, R.alpha).tolist()] == [
            R.mul(a, elems[7]) for a in elems[:4]]


# every ring with at most 81 elements; the fields with k = 2 are F_4, F_9,
# F_25 and F_49 (q = 8 is not a supported field size)
_SMALL_RINGS = [(q, alpha) for q in (2, 3, 4, 5, 7, 9, 25, 49) for alpha in range(1, 7)
                if q ** alpha <= 81]


class TestRingTables:
    """The per-ring tables behind ORing.mul and ORing.inv."""

    @pytest.mark.parametrize("q,alpha", _SMALL_RINGS)
    def test_every_product_and_inverse(self, q, alpha):
        from quivercount.localring import _mul_batch
        R = ORing(q, alpha)
        elems = list(R.elements())
        add, mul = R.field.arrays[:2]
        stack = np.array(elems, dtype=np.int16)
        want = _mul_batch(q, add, mul, stack[:, None], stack[None, :])
        assert [[R.mul(a, b) for b in elems] for a in elems] == [
            [tuple(c) for c in row] for row in want.tolist()]
        assert len(R.mul_table) <= len(elems) ** 2
        for a in R.units():
            assert R.mul(a, R.inv(a)) == R.one

    def test_each_ring_has_its_own_products(self):
        # F_4 holds F_2 under the same codes 0 and 1, so (1 + t)^2 tells
        # q = 2 and 4 from 3, and (x + t)^2 tells 3 from 4; each ring is
        # asked after the others have stored their products
        rings = [ORing(3, 2), ORing(2, 2), ORing(4, 2)]
        want = {2: (1, 0), 3: (1, 2), 4: (1, 0)}
        for R in rings + rings[::-1]:
            assert R.mul((1, 1), (1, 1)) == want[R.q]
        assert ORing(3, 2).mul((2, 1), (2, 1)) == (1, 1)  # (t - 1)^2 = 1 + t
        assert ORing(4, 2).mul((2, 1), (2, 1)) == (3, 0)  # (x + t)^2 = x + 1

    def test_inverse_of_a_non_unit_is_never_stored(self):
        R = ORing(3, 3)
        for a in R.units():
            R.inv(a)
        for a in (R.zero, R.t, R.t_power(2)):
            for _ in range(2):
                with pytest.raises(ZeroDivisionError):
                    R.inv(a)
            assert a not in R.inv_table


class TestSmithNormalForm:
    def test_examples(self):
        R2 = ORing(2, 2)
        M = OMatrix(R2, [[R2.t, R2.one], [R2.zero, R2.t]])
        assert smith_invariants(M) == [0, 2]
        R3 = ORing(3, 3)
        assert smith_invariants(OMatrix(R3, [[R3.one, R3.zero], [R3.zero, R3.t]])) == [0, 1]
        assert smith_invariants(OMatrix.zero(R3, 2, 2)) == [3, 3]

    @pytest.mark.parametrize("q,alpha", [(2, 1), (2, 2), (3, 2), (4, 2), (2, 3), (5, 2)])
    def test_random_reconstruction(self, q, alpha):
        random.seed(q * 100 + alpha)
        R = ORing(q, alpha)
        els = list(R.elements())
        for _ in range(500):
            n, m = random.randint(1, 3), random.randint(1, 3)
            M = OMatrix(R, [[random.choice(els) for _ in range(m)] for _ in range(n)])
            gammas, U, V = smith_normal_form(M)
            assert U.is_invertible() and V.is_invertible()
            D = U * M * V
            for i in range(n):
                for j in range(m):
                    want = R.t_power(gammas[i]) if (i == j and i < len(gammas)) else R.zero
                    assert D.entries[i][j] == want
            assert list(gammas) == sorted(gammas)
            assert smith_invariants(M) == list(gammas)

    def test_determinantal_characterization(self):
        # sum of the i smallest gammas = minimal valuation among i x i minors
        R = ORing(2, 3)
        M = OMatrix(R, [[R.t, R.one], [R.t_power(2), R.t]])
        gammas = smith_invariants(M)
        vals1 = min(R.val(e) for row in M.entries for e in row)
        assert gammas[0] == vals1
        det = R.sub(R.mul(M.entries[0][0], M.entries[1][1]),
                    R.mul(M.entries[0][1], M.entries[1][0]))
        expected = R.val(det)
        got = sum(g for g in gammas if g < R.alpha)
        if expected < R.alpha:
            assert got == expected


# small (q, alpha) so that kernels can be counted by enumeration
SMALL_RINGS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)]


@st.composite
def small_matrices(draw):
    """A matrix of shape up to 3 x 3 (zero rows or columns included)."""
    R = ORing(*draw(st.sampled_from(SMALL_RINGS)))
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.tuples(*[st.integers(0, R.q - 1)] * R.alpha)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return OMatrix(R, rows, shape=(n, m))


def _random_invertible(R, n, rng):
    els = list(R.elements())
    while True:
        G = OMatrix(R, [[rng.choice(els) for _ in range(n)] for _ in range(n)],
                    shape=(n, n))
        if G.is_invertible():
            return G


class TestSmithProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_kernel_size_matches_enumeration(self, M):
        R = M.ring
        zero = (R.zero,) * M.rows
        count = sum(1 for z in product(R.elements(), repeat=M.cols)
                    if M.apply(z) == zero)
        assert count == R.q ** kernel_size_exponent(M)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices(), st.randoms(use_true_random=False))
    def test_invariants_under_gl_action(self, M, rng):
        G = _random_invertible(M.ring, M.rows, rng)
        H = _random_invertible(M.ring, M.cols, rng)
        assert smith_invariants(G * M * H) == smith_invariants(M)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_factorization(self, M):
        R = M.ring
        gammas, U, V = smith_normal_form(M)
        assert U.is_invertible() and V.is_invertible()
        assert (U.rows, V.rows) == (M.rows, M.cols)
        D = U * M * V
        for i in range(M.rows):
            for j in range(M.cols):
                want = R.t_power(gammas[i]) if i == j else R.zero
                assert D.entries[i][j] == want
        assert gammas == sorted(gammas) == smith_invariants(M)


# (q, alpha) for the batched kernel: the quadratic fields F_4, F_9, F_25 and
# F_49 included, and alpha up to 5, where T has up to five row blocks
BATCH_RINGS = [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 3), (3, 4), (4, 1), (4, 2),
               (4, 3), (5, 2), (7, 1), (9, 1), (9, 2), (9, 3), (25, 1), (49, 2)]


@st.composite
def matrix_stacks(draw):
    """A stack of 1..8 matrices of one shape up to 5 x 5: uniformly random,
    all zero, with every entry in tO (so no gamma is 0), or products of
    n x k and k x m factors with k below min(n, m)."""
    q, alpha = draw(st.sampled_from(BATCH_RINGS))
    R = ORing(q, alpha)
    n, m, batch = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "zero", "in-tO", "low-rank"]))
    rng = draw(st.randoms(use_true_random=False))

    def matrix(rows, cols, low=0):
        return OMatrix(R, [[tuple(rng.randrange(q) if s >= low else 0 for s in range(alpha))
                            for _ in range(cols)] for _ in range(rows)], shape=(rows, cols))

    mats = []
    for _ in range(batch):
        if kind == "zero":
            mats.append(OMatrix(R, [[R.zero] * m for _ in range(n)], shape=(n, m)))
        elif kind == "in-tO":
            mats.append(matrix(n, m, low=1))
        elif kind == "low-rank" and min(n, m) > 1:
            k = rng.randint(1, min(n, m) - 1)
            mats.append(matrix(n, k) * matrix(k, m))
        else:
            mats.append(matrix(n, m))
    return R, mats


class TestSmithBatch:
    @settings(max_examples=300, deadline=None)
    @given(matrix_stacks())
    def test_batch_matches_scalar(self, stack):
        R, mats = stack
        n, m = mats[0].rows, mats[0].cols
        A = np.array([M.entries for M in mats], dtype=np.intp).reshape(len(mats), n, m, R.alpha)
        gammas = smith_invariants_batch(R.field, A)
        assert gammas.shape == (len(mats), min(n, m))
        assert [list(row) for row in gammas.tolist()] == [smith_invariants(M) for M in mats]

    @pytest.mark.parametrize("batch,n,m", [(0, 3, 2), (0, 0, 0), (4, 0, 3), (4, 3, 0),
                                           (4, 0, 0)])
    def test_empty_stacks(self, batch, n, m):
        # no matrices, or matrices without rows or columns: the result has
        # one row per matrix and min(n, m) columns
        A = np.zeros((batch, n, m, 3), dtype=np.int16)
        gammas = smith_invariants_batch(Fq(5), A)
        assert gammas.shape == (batch, min(n, m))
        R = ORing(5, 3)
        M = OMatrix(R, [[R.zero] * m for _ in range(n)], shape=(n, m))
        assert [list(row) for row in gammas.tolist()] == [smith_invariants(M)] * batch

    def test_input_is_not_modified(self):
        A = np.array([[[[1, 0], [0, 1]], [[0, 1], [1, 1]]]], dtype=np.intp)
        before = A.copy()
        assert smith_invariants_batch(Fq(2), A).tolist() == [[0, 0]]
        assert np.array_equal(A, before)


class TestKernelSize:
    def test_examples(self):
        R2 = ORing(2, 2)
        identity = OMatrix(R2, [[R2.one if i == j else R2.zero for j in range(3)] for i in range(3)])
        assert kernel_size_exponent(identity) == 0
        assert kernel_size_exponent(OMatrix.zero(R2, 1, 1)) == 2
        M = OMatrix(R2, [[R2.t, R2.one], [R2.zero, R2.t]])
        assert kernel_size_exponent(M) == 2

    def test_exhaustive_all_small_matrices_f2(self):
        R = ORing(2, 2)
        els = list(R.elements())
        for rows, cols in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for flat in product(els, repeat=rows * cols):
                M = OMatrix(R, [flat[i * cols:(i + 1) * cols] for i in range(rows)])
                true_count = sum(
                    1 for z in product(els, repeat=cols)
                    if all(v == R.zero for v in M.apply(z)))
                assert true_count == 2 ** kernel_size_exponent(M)

    def test_random_sample_f3(self):
        random.seed(11)
        R = ORing(3, 2)
        els = list(R.elements())
        for _ in range(40):
            M = OMatrix(R, [[random.choice(els) for _ in range(2)] for _ in range(2)])
            true_count = sum(
                1 for z in product(els, repeat=2)
                if all(v == R.zero for v in M.apply(z)))
            assert true_count == 3 ** kernel_size_exponent(M)

    def test_kernel_elements(self):
        R = ORing(2, 2)
        M = OMatrix(R, [[R.t, R.one], [R.zero, R.t]])
        kernel = list(kernel_elements(M))
        assert len(kernel) == 2 ** kernel_size_exponent(M)
        assert all(all(v == R.zero for v in M.apply(z)) for z in kernel)


class TestGL:
    def test_orders(self):
        assert gl_order(2, 1, 2) == 6
        assert gl_order(2, 2, 2) == 96
        assert gl_order(3, 2, 1) == 6
        assert gl_order(5, 1, 0) == 1

    @pytest.mark.parametrize("q,alpha,r", [(2, 1, 2), (2, 2, 1), (2, 2, 2),
                                           (3, 1, 2), (3, 2, 1)])
    def test_enumeration_matches_order(self, q, alpha, r):
        mats = list(gl_enumerate(q, alpha, r))
        assert len(mats) == gl_order(q, alpha, r)
        assert len(set(m.entries for m in mats)) == len(mats)
        assert all(m.is_invertible() for m in mats)


class TestSolve:
    def test_examples(self):
        R = ORing(2, 2)
        ok, ke, x = solve_linear(OMatrix(R, [[R.one, R.zero], [R.zero, R.one]]), (R.zero, R.zero))
        assert ok and ke == 0 and x == (R.zero, R.zero)
        A = OMatrix(R, [[R.t]])
        ok, ke, x = solve_linear(A, (R.t,))
        assert ok and ke == 1 and A.apply(x) == (R.t,)
        ok, ke, _ = solve_linear(A, (R.one,))
        assert not ok

    def test_random_consistency(self):
        random.seed(17)
        R = ORing(3, 2)
        els = list(R.elements())
        for _ in range(100):
            n, m = random.randint(1, 3), random.randint(1, 3)
            A = OMatrix(R, [[random.choice(els) for _ in range(m)] for _ in range(n)])
            z = tuple(random.choice(els) for _ in range(m))
            b = A.apply(z)
            ok, ke, x = solve_linear(A, b)
            assert ok
            assert A.apply(x) == b
            # solution count = kernel size
            count = sum(1 for w in product(els, repeat=m) if A.apply(w) == b)
            assert count == 3 ** ke
