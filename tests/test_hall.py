from fractions import Fraction
from itertools import product

import pytest

import scalar_reference
from quivercount.errors import CapExceeded
from quivercount.hall import (HallFunction, _check_caps, _flag_table, _summand_count,
                              all_orbit_labels, bracket, free_summands,
                              hall_coproduct, hall_product, hall_product_euler,
                              is_indecomposable_label,
                              orbit_label_of, orbit_representative,
                              primitive_space_dim, structure_constants)
from quivercount.localring import ORing


# the degree pairs (rank1, rank2) of total rank at most (2, 2)
DEGREE_PAIRS = [(rank1, rank2) for rank1 in product(range(3), repeat=2)
                for rank2 in product(range(3), repeat=2)
                if rank1[0] + rank2[0] <= 2 and rank1[1] + rank2[1] <= 2]


def indicator(rank, alpha, label):
    return HallFunction.indicator(rank, alpha, label)


def unit_label(alpha):
    return (0,) * alpha


def is_primitive(f):
    """Delta(f) = f x 1 + 1 x f, i.e. support on indecomposable orbits."""
    unit = unit_label(f.alpha)
    for left, right in hall_coproduct(f):
        if left.rank == (0, 0):
            if right.values != f.values or right.rank != f.rank:
                return False
        elif right.rank == (0, 0):
            if right.value(unit) != f.value(next(iter(left.values))):
                return False
        else:
            return False
    return True


class TestOrbitModel:
    def test_labels(self):
        assert all_orbit_labels((1, 1), 2) == [(0, 0), (0, 1), (1, 0)]
        assert all_orbit_labels((2, 2), 1) == [(0,), (1,), (2,)]

    def test_representative_roundtrip(self):
        ring = ORing(2, 2)
        for rank in [(1, 1), (2, 1), (2, 2)]:
            for label in all_orbit_labels(rank, 2):
                x = orbit_representative(ring, rank, label)
                assert orbit_label_of(x, 2) == label

    def test_free_summands_count(self):
        # rank-1 summands of O^2 over O_2/F_2: (16-4)(unimodular vectors)/2
        # units per line = 6 summands
        ring = ORing(2, 2)
        assert len(free_summands(ring, 2, 1)) == 6
        assert len(free_summands(ring, 1, 1)) == 1
        assert len(free_summands(ring, 2, 2)) == 1
        assert len(free_summands(ring, 2, 0)) == 1


def gauss_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def span(ring, basis):
    return frozenset(basis.apply(w) for w in product(ring.elements(), repeat=basis.cols))


# every (n, k, q, alpha) with n <= 3, q <= 4, alpha <= 2 whose column-tuple
# walk has at most 4,096 tuples
ORACLE_GRID = [(n, k, q, alpha) for n in range(4) for k in range(n + 2)
               for q in (2, 3, 4) for alpha in (1, 2) if q ** (alpha * n * k) <= 4096]


class TestFreeSummands:
    @pytest.mark.parametrize("n,k,q,alpha", ORACLE_GRID)
    def test_equal_the_column_tuple_walk(self, n, k, q, alpha):
        ring = ORing(q, alpha)
        found = [span(ring, basis) for basis, _ in free_summands(ring, n, k)]
        want = {s for _, s in scalar_reference.free_summands(ring, n, k)}
        assert len(found) == len(set(found)) == len(want)
        assert set(found) == want

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_count_is_a_schubert_cell_sum(self, q, alpha):
        ring = ORing(q, alpha)
        for n in range(4):
            for k in range(n + 1):
                want = q ** ((alpha - 1) * k * (n - k)) * gauss_binomial(n, k, q)
                assert len(free_summands(ring, n, k)) == want, (n, k)
                assert _summand_count(n, k, q, alpha) == want, (n, k)

    def test_basis_is_identity_on_pivots(self):
        ring = ORing(3, 2)
        for basis, pivots in free_summands(ring, 3, 2):
            assert [basis.entries[p] for p in pivots] == [(ring.one, ring.zero),
                                                         (ring.zero, ring.one)]

    # (3, 2) is the ring of the benchmark's cold Hall build
    @pytest.mark.parametrize("q,alpha", [(2, 1), (2, 2), (3, 1), (4, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("rank", [(1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 2)])
    def test_flag_tables_equal_the_oracle(self, q, alpha, rank):
        for sub in product(range(rank[0] + 1), range(rank[1] + 1)):
            assert _flag_table(q, alpha, rank, sub) == \
                scalar_reference.flag_table(q, alpha, rank, sub), sub


class TestProductOracles:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("q", [2, 3])
    def test_e1_e2_order(self, alpha, q):
        e1 = indicator((1, 0), alpha, unit_label(alpha))
        e2 = indicator((0, 1), alpha, unit_label(alpha))
        # the only rank-(0,1) submodule is always stable
        assert hall_product(e1, e2, q) == HallFunction.constant((1, 1), alpha)
        # the rank-(1,0) submodule is stable only on the zero orbit
        assert hall_product(e2, e1, q) == indicator((1, 1), alpha, unit_label(alpha))

    def test_unital(self):
        u = indicator((0, 0), 2, unit_label(2))
        f = indicator((1, 1), 2, (1, 0))
        assert hall_product(f, u, 2) == f
        assert hall_product(u, f, 2) == f

    @pytest.mark.parametrize("alpha", [1, 2])
    @pytest.mark.parametrize("q", [2, 3])
    def test_bracket_e1_e2(self, alpha, q):
        e1 = indicator((1, 0), alpha, unit_label(alpha))
        e2 = indicator((0, 1), alpha, unit_label(alpha))
        want = HallFunction((1, 1), alpha, {
            tuple(1 if j == i else 0 for j in range(alpha)): 1
            for i in range(alpha)})
        assert bracket(e1, e2, q) == want

    def test_cap(self):
        f = indicator((2, 2), 2, (0, 0))
        g = indicator((2, 2), 2, (0, 0))
        with pytest.raises(CapExceeded):
            hall_product(f, g, 2)

    @pytest.mark.parametrize("ranks,alpha,q,message", [
        (((2, 2), (1, 0)), 1, 2, "capped at total rank 4; this product needs total rank 5"),
        (((1, 0), (0, 1)), 4, 2, "capped at alpha 3; this product needs alpha 4"),
        (((1, 0), (0, 1)), 1, 11, "capped at q 9; this product needs q 11"),
        # 9^8 [4 choose 2]_9 rank-2 summands of O_3^4, each rank within its cap
        (((2, 0), (2, 0)), 3, 9,
         "capped at 200000 summand pairs; this product needs 321214632102 summand pairs"),
        # above the cap: 5^4 [4 choose 2]_5, a table of some 10 s
        (((2, 0), (2, 0)), 2, 5,
         "capped at 200000 summand pairs; this product needs 503750 summand pairs"),
    ])
    def test_cap_names_the_exceeded_cap(self, ranks, alpha, q, message):
        f, g = (indicator(r, alpha, unit_label(alpha)) for r in ranks)
        with pytest.raises(CapExceeded, match=message):
            hall_product(f, g, q)

    def test_euler_shadow_cap_names_the_alpha(self):
        f = indicator((1, 0), 3, unit_label(3))
        with pytest.raises(CapExceeded,
                           match="Euler-shadow products capped at alpha 2; this product needs alpha 3"):
            hall_product_euler(f, f)

    @pytest.mark.parametrize("alpha,q", [(2, 3), (2, 4), (3, 2)])
    def test_summand_cap_admits_tables_of_seconds(self, alpha, q):
        # 10,530, 91,392 and 8,960 pairs: tables of under 5 s on a 2-CPU VM
        _check_caps((4, 0), (2, 0), alpha, q)


class TestCoproduct:
    def test_unit(self):
        u = indicator((0, 0), 2, unit_label(2))
        summands = hall_coproduct(u)
        assert len(summands) == 1
        left, right = summands[0]
        assert left.rank == right.rank == (0, 0)

    def test_indecomposable_orbit_primitive(self):
        for alpha in (1, 2, 3):
            for i in range(alpha):
                lab = tuple(1 if j == i else 0 for j in range(alpha))
                assert is_primitive(indicator((1, 1), alpha, lab))

    def test_zero_orbit_not_primitive(self):
        f = indicator((1, 1), 2, (0, 0))
        assert not is_primitive(f)
        # its coproduct contains both cross terms e1 x e2 and e2 x e1
        cross = [(l.rank, r.rank) for l, r in hall_coproduct(f)]
        assert ((1, 0), (0, 1)) in cross and ((0, 1), (1, 0)) in cross


class TestStructure:
    def test_primitive_dims(self):
        for alpha in (1, 2, 3):
            assert primitive_space_dim((1, 1), alpha) == alpha
        assert primitive_space_dim((1, 0), 2) == 1
        assert primitive_space_dim((0, 1), 3) == 1
        assert primitive_space_dim((2, 1), 2) == 0
        assert primitive_space_dim((2, 2), 2) == 0

    def test_indecomposable_labels(self):
        assert is_indecomposable_label((1, 1), (0, 1))
        assert not is_indecomposable_label((1, 1), (0, 0))
        assert is_indecomposable_label((1, 0), (0, 0))

    def test_structure_constants_polynomial_fit(self):
        # constants sampled at q = 2, 3, 4, 5 determine a cubic that also
        # matches q = 7: a polynomiality smoke test, recorded as regression
        alpha = 2
        points = (2, 3, 4, 5, 7)
        tables = {q: structure_constants((1, 1), (0, 1), alpha, q) for q in points}
        keys = set().union(*(tables[q].keys() for q in points))
        for key in keys:
            labels = set().union(*(set(tables[q].get(key, {})) for q in points))
            for lab in labels:
                ys = {q: tables[q].get(key, {}).get(lab, Fraction(0)) for q in points}
                # Lagrange cubic through the first four points
                def cubic_at(x):
                    total = Fraction(0)
                    base = points[:4]
                    for xi in base:
                        term = ys[xi]
                        for xj in base:
                            if xj != xi:
                                term *= Fraction(x - xj, xi - xj)
                        total += term
                    return total
                assert cubic_at(7) == ys[7], (key, lab)

    @pytest.mark.parametrize("alpha,q,pairs", [
        *(pytest.param(alpha, q, DEGREE_PAIRS, id=f"alpha{alpha}-q{q}")
          for alpha in (1, 2) for q in (2, 3, 4)),
        pytest.param(3, 2, [((1, 1), (1, 1))], id="alpha3-q2-rank11x11"),
    ])
    def test_structure_constants_equal_the_pairwise_products(self, alpha, q, pairs):
        for rank1, rank2 in pairs:
            table = structure_constants(rank1, rank2, alpha, q)
            want = {(lab1, lab2): hall_product(indicator(rank1, alpha, lab1),
                                               indicator(rank2, alpha, lab2), q).values
                    for lab1 in all_orbit_labels(rank1, alpha)
                    for lab2 in all_orbit_labels(rank2, alpha)}
            assert table == want, (rank1, rank2)
            assert all(type(v) is Fraction for values in table.values() for v in values.values())

    def test_extra_generators_bracket_to_zero(self):
        # the vanishing lives in the Euler-characteristic shadow: structure
        # constants are polynomials in q and the brackets vanish at q = 1
        # (at a fixed prime power they are nonzero multiples of q - 1)
        from quivercount.hall import bracket_euler
        alpha = 2
        extra = indicator((1, 1), alpha, (0, 1))  # the orbit of t
        for g in [indicator((1, 0), alpha, unit_label(alpha)),
                  indicator((0, 1), alpha, unit_label(alpha)),
                  indicator((1, 1), alpha, (1, 0))]:
            total = (extra.rank[0] + g.rank[0], extra.rank[1] + g.rank[1])
            if total[0] > 2 or total[1] > 2:
                continue
            assert not bracket_euler(extra, g).values
            # fixed-q brackets vanish only modulo q - 1: those with e1 and e2
            # do not vanish, so verify states centrality at q = 1
            for q in (2, 3):
                fixed = bracket(extra, g, q).values
                assert bool(fixed) == (g.rank != (1, 1))
                assert all(v % (q - 1) == 0 for v in fixed.values())
