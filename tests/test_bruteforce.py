import functools
import importlib.util
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from quivercount import bruteforce, kacpoly
from quivercount.bruteforce import (DEFAULT_CAPS, Caps, _adjoint_orbits, _check_generic,
                                    _find, _hook, _orbit_fiber, _orbit_labels, _take_axis,
                                    _walk, ask_counts, count_absolutely_indecomposable,
                                    count_iso_classes, enumerate_orbits,
                                    jet_counts, moment_fiber_count,
                                    moment_matrix, moment_theta_basis,
                                    rep_space_dim, group_order)
from quivercount.errors import (CapExceeded, CharacteristicTooSmall,
                                DimensionMismatch, NonGenericLambda,
                                UnsupportedParameter)
from quivercount.localring import Fq, ORing, gl_order, smith_invariants_batch
from quivercount.quiver import (Quiver, _union_find, a2_quiver, connected_quiver_corpus,
                                cyclic_quiver, jordan_quiver, kronecker_quiver, loop_quiver)


class TestEnumerateOrbits:
    def test_jordan_rank1(self):
        recs = enumerate_orbits(jordan_quiver(), 1, (1,), 2)
        assert len(recs) == 2
        assert all(r.indecomposable and r.absolutely_indecomposable for r in recs)
        assert all(r.orbit_size == 1 for r in recs)

    def test_a2_alpha2(self):
        # orbits of a single O_2 entry under units: valuations 0, 1, 2
        recs = enumerate_orbits(a2_quiver(), 2, (1, 1), 2)
        assert len(recs) == 3
        assert sum(1 for r in recs if r.absolutely_indecomposable) == 2

    def test_two_loop_rank2(self):
        recs = enumerate_orbits(loop_quiver(2), 1, (2,), 2)
        count = sum(1 for r in recs if r.absolutely_indecomposable)
        # matches the closed-form count q^3(q^2+1) at q=2
        assert count == 40

    def test_stabilizer_orbit_product(self):
        for Q, alpha, r, q in [(jordan_quiver(), 2, (2,), 2),
                               (a2_quiver(), 2, (1, 1), 3)]:
            gl = group_order(alpha, r, q)
            for rec in enumerate_orbits(Q, alpha, r, q):
                assert rec.orbit_size * rec.aut_size == gl

    def test_decomposable_never_absolutely_indecomposable(self):
        for rec in enumerate_orbits(a2_quiver(), 2, (1, 1), 2):
            if not rec.indecomposable:
                assert not rec.absolutely_indecomposable

    def test_indecomposable_end_local(self):
        # endomorphisms of an indecomposable split into units and nilpotents
        ring = ORing(2, 2)
        recs = enumerate_orbits(a2_quiver(), 2, (1, 1), 2)
        for rec in recs:
            if not rec.indecomposable:
                continue
            for xi in ref.end_elements(a2_quiver(), ring, (1, 1), rec.representative):
                units = all(m.is_invertible() for m in xi)
                power = xi
                for _ in range(4):
                    power = tuple(a * b for a, b in zip(power, xi))
                nilpotent = all(all(e == ring.zero for row in m.entries for e in row)
                                for m in power)
                assert units or nilpotent

    def test_aut_end_ratio_law(self):
        for Q, alpha, r, q in [(jordan_quiver(), 2, (2,), 2),
                               (loop_quiver(2), 1, (2,), 3)]:
            for rec in enumerate_orbits(Q, alpha, r, q):
                if rec.indecomposable:
                    end = q ** rec.end_size_exp
                    assert rec.aut_size * q ** rec.top_degree == end * (q ** rec.top_degree - 1)
                    assert 1 <= rec.top_degree <= sum(r) * alpha

    def test_fast_path_agrees_with_generic(self):
        for Q in [cyclic_quiver(3), a2_quiver(), jordan_quiver()]:
            ones = (1,) * Q.num_vertices
            for alpha, q in [(1, 2), (2, 2), (1, 3)]:
                fast = enumerate_orbits(Q, alpha, ones, q)
                slow = ref.orbits(Q, alpha, ones, q)
                assert len(fast) == len(slow)
                assert sorted(r.orbit_size for r in fast) == sorted(s for _, s in slow)
                a_fast = sum(1 for r in fast if r.absolutely_indecomposable)
                assert a_fast == count_absolutely_indecomposable(Q, alpha, ones, q)

    def test_space_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_orbits(loop_quiver(3), 2, (2,), 3, Caps(max_space_log2=10))


class TestRepresentatives:
    """Each representative is the lexicographically smallest point of its
    orbit, and records come sorted by representative: the scalar walk
    over the whole group visits orbits in that order."""

    @pytest.mark.parametrize("Q,alpha,r,q", [
        (cyclic_quiver(3), 1, (1, 1, 1), 3), (kronecker_quiver(2), 1, (1, 1), 3),
        (kronecker_quiver(2), 2, (1, 1), 2), (loop_quiver(2), 1, (2,), 2),
        (a2_quiver(), 1, (2, 1), 3), (jordan_quiver(), 2, (2,), 2),
        (jordan_quiver(), 1, (2,), 4),
        # a vertex of rank zero: its arrows have one value and never move
        (a2_quiver(), 2, (2, 0), 2), (a2_quiver(), 1, (0, 1), 3),
        (cyclic_quiver(3), 2, (1, 0, 1), 3), (loop_quiver(2), 2, (0,), 2)])
    def test_lex_min(self, Q, alpha, r, q):
        recs = enumerate_orbits(Q, alpha, r, q)
        assert [(rec.representative, rec.orbit_size) for rec in recs] == ref.orbits(Q, alpha, r, q)


class TestCensusMemory:
    def test_no_table_over_all_points_per_entry(self):
        # 2^20 points over ten arrows: a table of every point's ten entries
        # alone would take 80 MiB as int64, against a few int32 arrays of N
        Q = Quiver(["0", "1", "2"], [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2),
                                     (0, 0), (1, 0), (2, 1), (1, 1), (0, 2)])
        tracemalloc.start()
        try:
            count = count_absolutely_indecomposable(Q, 2, (1, 1, 1), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 291456
        assert peak < 64 * 2 ** 20

    def test_many_arrows_at_a_rank_zero_vertex(self):
        # seventy arrows of one value each, more than numpy has array axes
        Q = Quiver(["0", "1", "2"], [(0, 1)] * 70 + [(0, 2), (2, 0)])
        recs = enumerate_orbits(Q, 2, (1, 0, 1), 2)
        assert [(rec.representative, rec.orbit_size) for rec in recs] == ref.orbits(Q, 2, (1, 0, 1), 2)
        assert count_absolutely_indecomposable(Q, 2, (1, 0, 1), 2) == sum(
            rec.absolutely_indecomposable for rec in recs) > 0

    def test_general_rank_builds_only_changed_lines(self):
        # 2^20 points on one 2 x 2 loop: the entry table of x_a alone is
        # 16 MiB, and building each generator's table from a copy of it
        # peaks at 72 MiB
        tracemalloc.start()
        try:
            reps, sizes = _orbit_labels(jordan_quiver(), ORing(2, 5), (2,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(sizes.sum()) == 2 ** 20 and reps[0] == 0
        assert peak < 48 * 2 ** 20

    def test_star_census_in_four_point_arrays(self):
        # 531,441 points and no loops: the labels, the identity and the two
        # take buffers are four int32 arrays of 2 MiB.  A fresh array per
        # take, or an int64 count of the orbit sizes, reaches 9.9 MiB
        Q = Quiver(["0", "1", "2", "3"], [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3)])
        tracemalloc.start()
        try:
            count = count_absolutely_indecomposable(Q, 2, (1, 1, 1, 1), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 4096
        assert peak <= 9.9 * 2 ** 20

    def test_points_beyond_int32_refused(self):
        # raising the space cap past 2^31 points cannot overflow the index
        with pytest.raises(CapExceeded, match="int32"):
            enumerate_orbits(kronecker_quiver(16), 2, (1, 1), 2, Caps(max_space_log2=40))
        with pytest.raises(CapExceeded, match="int32"):
            count_absolutely_indecomposable(kronecker_quiver(16), 2, (1, 1), 2,
                                            Caps(max_space_log2=40))

    def test_rank_one_census_guards_only_the_loop_free_points(self):
        # 2^40 points, all of them values of the loops: the rank-all-one
        # census labels the one point of the quiver without them
        assert count_absolutely_indecomposable(loop_quiver(40), 1, (1,), 2,
                                               Caps(max_space_log2=40)) == 2 ** 40
        with pytest.raises(CapExceeded, match="int32"):
            enumerate_orbits(loop_quiver(40), 1, (1,), 2, Caps(max_space_log2=40))
        # the space cap still bounds the whole x-space, loops included
        with pytest.raises(CapExceeded, match="representation space has 2"):
            count_absolutely_indecomposable(loop_quiver(40), 1, (1,), 2)


@st.composite
def small_instances(draw):
    """(Q, alpha, r, q) with at most two vertices and arrows, small enough
    for the scalar group walk and the idempotent census."""
    n = draw(st.integers(1, 2))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2))
    r = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    alpha = draw(st.integers(1, 2))
    q = draw(st.sampled_from([2, 3]))
    Q = Quiver([str(i) for i in range(n)], arrows)
    assume(q ** (alpha * rep_space_dim(Q, r)) * group_order(alpha, r, q) <= 30000)
    assume(q ** (alpha * sum(ri * ri for ri in r)) <= 2 ** 10)  # bounds |End|
    return Q, alpha, r, q


@st.composite
def burnside_instances(draw):
    """(Q, alpha, r, q) with at most three vertices, one to four arrows,
    ranks at most 2, and a group small enough for the whole-group oracle."""
    n = draw(st.integers(1, 3))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=1, max_size=4))
    r = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    alpha = draw(st.integers(1, 3))
    q = draw(st.sampled_from([2, 3, 4]))
    Q = Quiver([str(i) for i in range(n)], arrows)
    assume(group_order(alpha, r, q) <= 4000)  # under about 1 s of oracle
    return Q, alpha, r, q


class TestGeneratorGraphProperties:
    def test_hook_matches_union_find(self):
        # one to four permutations per case: uniform ones, or products of
        # transpositions, whose many short cycles resemble the generators';
        # each joins the points of a random subset to their images
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(1, 60))
            labels = np.arange(n, dtype=np.int32)
            edges = []
            for _ in range(int(rng.integers(1, 5))):
                perm = rng.permutation(n) if rng.integers(2) else np.arange(n)
                for a, b in rng.integers(0, n, (int(rng.integers(0, n + 1)), 2)):
                    perm[[a, b]] = perm[[b, a]]
                ends = np.flatnonzero(rng.random(n) < rng.random()).astype(np.int32)
                _hook(labels, ends, perm[ends].astype(np.int32))
                edges += [(int(x), int(perm[x])) for x in ends]
                assert (labels <= np.arange(n)).all()
            roots, _ = _union_find(n, edges)
            least = {}
            for x, root in enumerate(roots):
                least.setdefault(root, x)
            assert _find(labels, np.arange(n, dtype=np.int32)).tolist() == [least[root] for root in roots]

    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    def test_orbits_match_group_walk(self, instance):
        Q, alpha, r, q = instance
        recs = enumerate_orbits(Q, alpha, r, q)
        assert [(rec.representative, rec.orbit_size) for rec in recs] == ref.orbits(Q, alpha, r, q)

    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    def test_count_rule_matches_idempotent_census(self, instance):
        Q, alpha, r, q = instance
        ring = ORing(q, alpha)
        for rec in enumerate_orbits(Q, alpha, r, q):
            x = rec.representative
            assert rec.end_size_exp == ref.end_exponent(Q, ring, r, x)
            assert rec.indecomposable == ref.is_indecomposable(Q, ring, r, x)


def _bench_instances(*kinds):
    """(Q, alpha, r, q) of every menu item of the given kinds in the
    benchmark workloads."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for stratum in workloads._orbits_strata() + workloads._brute_strata():
        if stratum.kind in kinds:
            for item in stratum.menu:
                Q = item.get("quiver") or workloads.named_quiver(item["family"], item["n"])
                out.append((Q, item["alpha"], tuple(item.get("rank", (1,) * Q.num_vertices)),
                            item["q"]))
    return out


@st.composite
def multigraph_instances(draw):
    """(Q, alpha, q) on two to four vertices, whose arrows repeat slots
    freely: loops, parallel and antiparallel arrows, with at most 2^14
    points in rank all-one."""
    n = draw(st.integers(2, 4))
    slots = [(s, t) for s in range(n) for t in range(n)]
    arrows = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=7))
    alpha = draw(st.integers(1, 2))
    q = draw(st.sampled_from([2, 3, 4]))
    assume(q ** (alpha * len(arrows)) <= 2 ** 14)
    return Quiver([str(i) for i in range(n)], arrows), alpha, q


def _census_of_all_orbits(Q, alpha, r, q):
    """The absolutely indecomposable orbits among all orbits of the full
    space, loops included."""
    return sum(rec.absolutely_indecomposable for rec in enumerate_orbits(Q, alpha, r, q))


class TestRankOneCensus:
    """In rank all-one the census labels the quiver without its loops and
    multiplies by their values; enumerate_orbits labels the whole space."""

    @settings(max_examples=80, deadline=None)
    @given(multigraph_instances())
    def test_equals_the_census_of_all_orbits(self, instance):
        Q, alpha, q = instance
        ones = (1,) * Q.num_vertices
        assert count_absolutely_indecomposable(Q, alpha, ones, q) == \
            _census_of_all_orbits(Q, alpha, ones, q)

    @pytest.mark.parametrize("g,alpha,q", [(1, 1, 2), (2, 2, 3), (3, 1, 4), (3, 2, 2)])
    def test_loop_quiver(self, g, alpha, q):
        count = count_absolutely_indecomposable(loop_quiver(g), alpha, (1,), q)
        assert count == q ** (alpha * g) == _census_of_all_orbits(loop_quiver(g), alpha, (1,), q)

    @pytest.mark.parametrize("alpha,q", [(1, 2), (2, 3)])
    def test_two_vertices_with_only_loops(self, alpha, q):
        Q = Quiver(["0", "1"], [(0, 0), (1, 1), (1, 1)])
        assert count_absolutely_indecomposable(Q, alpha, (1, 1), q) == 0 == \
            _census_of_all_orbits(Q, alpha, (1, 1), q)

    @pytest.mark.parametrize("n,want", [(1, 1), (2, 0)])
    def test_quiver_without_arrows(self, n, want):
        Q = Quiver([str(i) for i in range(n)], [])
        ones = (1,) * n
        assert count_absolutely_indecomposable(Q, 2, ones, 3) == want == \
            _census_of_all_orbits(Q, 2, ones, 3)

    @pytest.mark.parametrize("Q,alpha,r,q", _bench_instances("census"))
    def test_bench_menu(self, Q, alpha, r, q):
        assert count_absolutely_indecomposable(Q, alpha, r, q) == \
            _census_of_all_orbits(Q, alpha, r, q)

    def test_kronecker_18(self):
        # GL_1(F_2) is trivial, so every point is an orbit, and the nonzero
        # ones have connected support; the 18 arrows are one parallel class
        assert count_absolutely_indecomposable(kronecker_quiver(18), 1, (1, 1), 2) == 2 ** 18 - 1

    @pytest.mark.parametrize("alpha,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_corpus(self, alpha, q):
        # every corpus quiver whose space has at most 2^14 points
        for Q in connected_quiver_corpus(4, 6):
            if q ** (alpha * Q.num_arrows) <= 2 ** 14:
                ones = (1,) * Q.num_vertices
                assert count_absolutely_indecomposable(Q, alpha, ones, q) == \
                    _census_of_all_orbits(Q, alpha, ones, q), Q


class TestOrbitsMatchFullHook:
    """The census hooks later generators on the orbit roots only; the
    oracle hooks every generator over all points."""

    @staticmethod
    def check(Q, alpha, r, q):
        reps, sizes = _orbit_labels(Q, ORing(q, alpha), r)
        want_reps, want_sizes = ref.orbit_labels(Q, alpha, r, q)
        assert reps.tolist() == want_reps.tolist()
        assert sizes.tolist() == want_sizes.tolist()
        assert reps.dtype == np.int32

    @pytest.mark.parametrize("Q,alpha,r,q", _bench_instances("census", "orbits-rank1",
                                                             "orbits-rank2"))
    def test_bench_menus(self, Q, alpha, r, q):
        self.check(Q, alpha, r, q)

    two_cycle = Quiver(["0", "1"], [(0, 1), (1, 0)])

    @pytest.mark.parametrize("Q,alpha,r,q", [
        # q = 4: a two-element F_p-basis
        (jordan_quiver(), 2, (2,), 4), (kronecker_quiver(2), 2, (1, 1), 4),
        # q = 5 and 7 at alpha 1: F_q^* generators of order 4 and 6
        (jordan_quiver(), 1, (2,), 5), (jordan_quiver(), 1, (2,), 7),
        (a2_quiver(), 1, (1, 2), 7), (cyclic_quiver(3), 1, (1, 1, 1), 7),
        # alpha 3 and 4: units and transvections on three and four levels
        (jordan_quiver(), 3, (2,), 2), (jordan_quiver(), 4, (2,), 2),
        (kronecker_quiver(2), 4, (1, 1), 3), (cyclic_quiver(3), 3, (1, 1, 1), 2),
        # mixed ranks: level-0 units at rank-one vertices before the cut
        (cyclic_quiver(3), 1, (1, 2, 2), 2), (cyclic_quiver(3), 2, (1, 2, 2), 2),
        (two_cycle, 2, (2, 1), 2), (two_cycle, 2, (2, 1), 3), (a2_quiver(), 2, (1, 2), 3),
        # a vertex of rank zero, and a space that no generator moves
        (Quiver(["0", "1"], [(0, 1), (1, 1)]), 2, (0, 2), 2), (a2_quiver(), 2, (2, 0), 2),
        # past the cut the edges must come from the roots of that moment:
        # here the current roots alone miss two orbit joins
        (Quiver(["0", "1"], [(0, 1), (1, 1)]), 1, (1, 2), 5),
        # the Jordan quiver in ranks 2 and 3
        (jordan_quiver(), 2, (2,), 3), (jordan_quiver(), 1, (3,), 2),
        (jordan_quiver(), 1, (3,), 3),
        # 1 x 1 loops at two vertices: no generator moves them
        (Quiver(["0", "1"], [(0, 0), (0, 1), (1, 1), (1, 0)]), 2, (1, 1), 3),
        # a loop between moved arrows: the representatives expanded over its
        # values must be re-sorted
        (Quiver(["0", "1"], [(0, 1), (1, 1), (1, 0)]), 2, (1, 1), 2),
        (Quiver(["0", "1"], [(0, 1), (1, 1), (1, 0)]), 1, (1, 1), 5),
        # an arrow into a vertex of rank zero between moved arrows, and a loop
        (Quiver(["0", "1", "2"], [(0, 1), (1, 2), (1, 1), (1, 0)]), 2, (1, 1, 0), 3),
        # rank 2: the size test stops streaming five generators in, before
        # the cut
        (Quiver(["0", "1", "2"], [(0, 1), (1, 2)]), 2, (2, 1, 1), 3),
        (Quiver(["0", "1", "2"], [(0, 1), (1, 1), (2, 1)]), 3, (2, 1, 1), 2)])
    def test_every_ordering_branch(self, Q, alpha, r, q):
        self.check(Q, alpha, r, q)

    @pytest.mark.parametrize("Q,alpha,r,q", [
        # a parallel pair too big to share an axis: 243^2 > 2^15 values
        (kronecker_quiver(2), 5, (1, 1), 3),
        # vertex 0 moves a merged pair and arrow 3, which arrow 2 keeps
        # apart from it in the mixed radix
        (Quiver(["0", "1", "2"], [(0, 1), (0, 1), (1, 2), (0, 2)]), 2, (1, 1, 1), 3),
        # a 1 x 1 loop between the arrows of a pair: unmoved, it leaves
        # them adjacent among the moved arrows
        (Quiver(["0", "1"], [(0, 1), (0, 0), (0, 1)]), 2, (1, 1), 3),
        # a moved 2 x 2 loop between them: three axes of radices 4, 16 and 4
        # share one take
        (Quiver(["0", "1"], [(0, 1), (0, 0), (0, 1)]), 1, (2, 1), 2),
        (Quiver(["0", "1"], [(1, 0), (0, 0), (0, 1)]), 1, (2, 1), 3)])
    def test_merged_axes(self, Q, alpha, r, q):
        self.check(Q, alpha, r, q)

    @pytest.mark.parametrize("table", [[0, 2, 3], [0, -1, 2]])
    def test_take_refuses_a_table_out_of_range(self, table):
        # a take into a buffer wraps its indices: only the check can fail
        values, out = np.arange(12, dtype=np.int32), np.empty(12, dtype=np.int32)
        with pytest.raises(IndexError, match="census table"):
            _take_axis(values, np.array(table, dtype=np.int32), 2, out)

    def test_take_by_a_table(self):
        values, out = np.arange(12, dtype=np.int32), np.empty(12, dtype=np.int32)
        got = _take_axis(values, np.array([2, 0, 1], dtype=np.int32), 2, out)
        assert got is out
        assert out.tolist() == [4, 5, 0, 1, 2, 3, 10, 11, 6, 7, 8, 9]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_quivers_with_loops(self, data):
        # loops of every shape among other arrows, ranks 0 to 2
        n = data.draw(st.integers(1, 3))
        vertex = st.integers(0, n - 1)
        loops = data.draw(st.lists(vertex, min_size=1, max_size=2))
        arrows = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3))
        order = data.draw(st.permutations([(v, v) for v in loops] + arrows))
        r = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        alpha, q = data.draw(st.integers(1, 2)), data.draw(st.sampled_from([2, 3, 4]))
        Q = Quiver([str(i) for i in range(n)], order)
        assume(q ** (alpha * rep_space_dim(Q, r)) <= 2 ** 12)
        self.check(Q, alpha, r, q)


class TestEndExponents:
    """end_size_exp of every record against the scalar Smith form of the
    representative's own end system."""

    @staticmethod
    def check(Q, alpha, r, q):
        ring = ORing(q, alpha)
        for rec in enumerate_orbits(Q, alpha, r, q):
            assert rec.end_size_exp == ref.end_exponent(Q, ring, r, rec.representative)

    # a 1 x 1 loop at a rank-1 vertex, whose coordinate enters no equation,
    # a loop at a rank-2 vertex, which does, and an arrow into a rank-0
    # vertex, which has no coordinate
    mixed = Quiver(["0", "1", "2"], [(0, 0), (0, 1), (1, 1), (0, 2), (1, 0)])

    @pytest.mark.parametrize("alpha,q", [(1, 2), (1, 3), (2, 2)])
    def test_loops_of_both_ranks_and_a_rank_zero_target(self, alpha, q):
        self.check(self.mixed, alpha, (1, 2, 0), q)

    @pytest.mark.parametrize("Q,alpha,r,q", _bench_instances("orbits-rank1", "orbits-rank2"))
    def test_bench_menus(self, Q, alpha, r, q):
        self.check(Q, alpha, r, q)

    def test_one_smith_form_per_used_coordinate_tuple(self, monkeypatch):
        sizes = []
        kernel_exponents = bruteforce._kernel_exponents

        def counted(field, mats):
            sizes.append(len(mats))
            return kernel_exponents(field, mats)

        monkeypatch.setattr(bruteforce, "_kernel_exponents", counted)
        # two 1 x 1 loops: only the arrows 0 -> 1 and 1 -> 0 enter End
        Q = Quiver(["0", "1"], [(0, 0), (0, 1), (1, 1), (1, 0)])
        recs = enumerate_orbits(Q, 2, (1, 1), 3)
        used = {(rec.representative[1], rec.representative[3]) for rec in recs}
        assert sum(sizes) == len(used) < len(recs)


class TestBurnside:
    def test_examples(self):
        assert count_iso_classes(jordan_quiver(), 1, (1,), 3) == 3
        assert count_iso_classes(jordan_quiver(), 2, (1,), 2) == 4
        assert count_iso_classes(a2_quiver(), 1, (1, 1), 2) == 2

    @pytest.mark.parametrize("Q,alpha,r,q", [
        (jordan_quiver(), 1, (2,), 2),
        (jordan_quiver(), 2, (2,), 2),
        (loop_quiver(2), 1, (2,), 2),
        (a2_quiver(), 2, (1, 1), 3),
        (a2_quiver(), 1, (2, 1), 2),
    ])
    def test_matches_orbit_enumeration(self, Q, alpha, r, q):
        assert count_iso_classes(Q, alpha, r, q) == len(enumerate_orbits(Q, alpha, r, q))

    def test_beyond_the_x_space_cap(self):
        # the x-space has 3^16 = 2^25.4 points; the Jordan census has 3^8
        assert count_iso_classes(loop_quiver(2), 2, (2,), 3) == 94041

    @settings(max_examples=60, deadline=None)
    @given(burnside_instances())
    def test_matches_whole_group_burnside(self, instance):
        Q, alpha, r, q = instance
        assert count_iso_classes(Q, alpha, r, q) == ref.iso_classes(Q, alpha, r, q)

    def test_repeat_count_reuses_the_exponent_tables(self, monkeypatch):
        # the per-arrow kernel exponents depend only on (q, alpha, r): a
        # second count at the same instance runs no Smith batch
        first = count_iso_classes(kronecker_quiver(2), 1, (2, 1), 3)
        calls = []
        monkeypatch.setattr(bruteforce, "smith_invariants_batch",
                            lambda *args: calls.append(args) or smith_invariants_batch(*args))
        assert count_iso_classes(kronecker_quiver(2), 1, (2, 1), 3) == first
        assert calls == []

    def test_class_tuple_grid_cap(self):
        # 20 classes of GL_1(O_2) over F_5 at each of 8 vertices: 20^8 tuples
        Q = Quiver([str(i) for i in range(8)], [(i, i + 1) for i in range(7)])
        with pytest.raises(CapExceeded, match=r"class-tuple grid has 2\^34\.6 tuples .*cap 2\^24"):
            count_iso_classes(Q, 2, (1,) * 8, 5)

    def test_krull_schmidt_multiset_identity(self):
        # the class-count series is the multiset generating function of the
        # indecomposable classes, checked coefficientwise at fixed q
        for Q, alpha, q, bound in [(jordan_quiver(), 1, 2, 2),
                                   (jordan_quiver(), 2, 2, 2),
                                   (a2_quiver(), 1, 2, (2, 2)),
                                   (a2_quiver(), 2, 2, (2, 2))]:
            bound = bound if isinstance(bound, tuple) else (bound,)
            n = len(bound)
            indec = {}
            for r in product(*(range(b + 1) for b in bound)):
                if not any(r):
                    continue
                for rec in enumerate_orbits(Q, alpha, r, q):
                    if rec.indecomposable:
                        indec[r] = indec.get(r, 0) + 1
            # product over classes of (1 - t^rk)^{-1}, truncated to the box
            series = {tuple([0] * n): 1}
            for rk, count in indec.items():
                for _ in range(count):
                    new = dict(series)
                    for base in series:
                        m = 1
                        while True:
                            shifted = tuple(b + m * x for b, x in zip(base, rk))
                            if any(s > bb for s, bb in zip(shifted, bound)):
                                break
                            new[shifted] = new.get(shifted, 0) + series[base]
                            m += 1
                    series = new
            for r in product(*(range(b + 1) for b in bound)):
                assert series.get(r, 0) == count_iso_classes(Q, alpha, r, q), (r,)


def _walked_fiber(Q, alpha, r, q, lam):
    """The fiber by the point walk over the moment basis, with the target
    column t^(alpha-1) lambda for a nonzero lambda."""
    field = Fq(q)
    basis = np.array(moment_theta_basis(Q, r), dtype=np.int64)
    target = None
    if any(lam):
        target = np.zeros((basis.shape[1], 1, alpha), dtype=np.int16)
        diagonal = [(i, ri, u) for i, ri in enumerate(r) for u in range(ri * ri)]
        for row, (i, ri, u) in enumerate(diagonal):
            if u % (ri + 1) == 0:
                target[row, 0, alpha - 1] = field.from_int(lam[i])
    return _walk(field, basis, alpha, target)


@functools.cache
def _generic_lambdas(r, q) -> list:
    """The generic lambda for r at q with entries in [-3, 3]."""
    out = []
    for lam in product(range(-3, 4), repeat=len(r)):
        try:
            _check_generic(r, q, lam)
        except (NonGenericLambda, CharacteristicTooSmall):
            continue
        if any(lam):
            out.append(lam)
    return out


@st.composite
def fiber_instances(draw):
    """(Q, alpha, r, q, lambda) with one to three vertices, one to four
    arrows (loops too), ranks at most 2, an x-space of more than one point
    and, about half the time, a generic lambda (else lambda = 0).  alpha is
    lowered until every Jordan census has at most 2^13 points, and arrows
    are dropped from the end until the x-space has at most 2^14, so that
    the point walk stays small."""
    n = draw(st.integers(1, 3))
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    ranks = list(product(range(3), repeat=n))
    deformed = [r for r in ranks if _generic_lambdas(r, q)]
    if deformed and draw(st.booleans()):
        r = draw(st.sampled_from(deformed))
        lam = draw(st.sampled_from(_generic_lambdas(r, q)))
    else:
        r, lam = draw(st.sampled_from(ranks)), (0,) * n
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=1, max_size=4))
    alpha = draw(st.integers(1, 3))
    while alpha > 1 and q ** (alpha * max(r) ** 2) > 2 ** 13:
        alpha -= 1
    while q ** (alpha * sum(r[s] * r[t] for s, t in arrows)) > 2 ** 14:
        arrows.pop()
    Q = Quiver([str(i) for i in range(n)], arrows)
    assume(rep_space_dim(Q, r) > 0)
    return Q, alpha, r, q, lam


class TestMomentFibers:
    def test_spec_examples(self):
        assert moment_fiber_count(a2_quiver(), 1, (1, 1), 3, (1, -1)) == 2
        assert moment_fiber_count(a2_quiver(), 1, (0, 0), 3) == 1
        # pairs with xy = 0 and yx = 0: 2q - 1
        assert moment_fiber_count(a2_quiver(), 1, (1, 1), 2) == 3
        assert moment_fiber_count(a2_quiver(), 1, (1, 1), 5) == 9

    def test_exact_sequence_fiber_sizes(self):
        # per-point fiber size q^(endExp - alpha <r,r>), against naive
        # y-enumeration on a tiny instance
        from quivercount.quiver import euler_form
        Q = a2_quiver()
        alpha, q, r = 2, 2, (1, 1)
        ring = ORing(q, alpha)
        e0 = euler_form(Q, r, r)
        for x in ref.iter_rep_points(Q, ring, r):
            naive = 0
            for y_flat in product(ring.elements(), repeat=rep_space_dim(Q, r)):
                m = moment_matrix(Q, ring, r, x)
                if all(v == ring.zero for v in m.apply(y_flat)):
                    naive += 1
            assert naive == q ** (ref.end_exponent(Q, ring, r, x) - alpha * e0)

    def test_jets_jordan(self):
        assert jet_counts(jordan_quiver(), (1,), 2, 3) == [4, 16, 64]
        assert jet_counts(jordan_quiver(), (1,), 3, 2) == [9, 81]

    @pytest.mark.parametrize("r,lam", [((1, 1, 1), None), ((1,), None),
                                       ((1, 1), (1, -1, 7)), ((1, 1), (1,))])
    def test_vector_lengths_must_match_vertices(self, r, lam):
        with pytest.raises(DimensionMismatch):
            moment_fiber_count(a2_quiver(), 1, r, 5, lam)

    def test_generic_guards(self):
        with pytest.raises(NonGenericLambda):
            moment_fiber_count(a2_quiver(), 1, (1, 1), 3, (1, 1))
        with pytest.raises(NonGenericLambda):
            moment_fiber_count(cyclic_quiver(3), 1, (1, 1, 1), 7, (1, -1, 0))
        with pytest.raises(CharacteristicTooSmall):
            moment_fiber_count(a2_quiver(), 1, (1, 1), 2, (1, -1))

    @settings(max_examples=80, deadline=None)
    @given(fiber_instances())
    def test_matches_point_walk(self, instance):
        # whichever route moment_fiber_count takes, and the sum over
        # adjoint orbits on its own where its grid is small, equal the walk
        # over every point x
        Q, alpha, r, q, lam = instance
        walk = _walked_fiber(Q, alpha, r, q, lam)
        assert moment_fiber_count(Q, alpha, r, q, lam) == walk
        ring = ORing(q, alpha)
        if np.prod([len(_adjoint_orbits(ring, ri)[1]) for ri in r]) <= 2 ** 14:
            assert _orbit_fiber(Q, ring, r, lam, DEFAULT_CAPS) == walk

    @pytest.mark.parametrize("Q,alpha,r,q,lam,want", [
        (a2_quiver(), 2, (2, 1), 5, (-1, 2), 0),
        (kronecker_quiver(3), 1, (1, 2), 5, (2, -1), 372000),
        (loop_quiver(2), 1, (2,), 2, (0,), 11776),
        (loop_quiver(2), 2, (2,), 2, (0,), 111149056)])
    def test_orbit_sum_probes(self, Q, alpha, r, q, lam, want):
        # the adjoint-orbit sum against the point walk, on instances on
        # either side of the cost rule
        assert _orbit_fiber(Q, ORing(q, alpha), r, lam, DEFAULT_CAPS) == want
        assert moment_fiber_count(Q, alpha, r, q, lam) == want
        assert _walked_fiber(Q, alpha, r, q, lam) == want

    def test_orbit_tuple_grid_larger_than_the_x_space_is_walked(self):
        # 6 adjoint orbits of M_2(F_2) times 2^22 points at the isolated
        # vertices: past the grid cap, while the x-space has 2^8 points
        Q = Quiver([str(i) for i in range(23)], [(0, 0), (0, 0)])
        r = (2,) + (1,) * 22
        assert moment_fiber_count(Q, 1, r, 2) == moment_fiber_count(loop_quiver(2), 1, (2,), 2)

    def test_space_cap_bounds_the_x_space(self):
        # 7^16 points: refused although the Jordan census has only 7^8
        with pytest.raises(CapExceeded, match="representation space has 2"):
            moment_fiber_count(loop_quiver(2), 2, (2,), 7)


@pytest.mark.parametrize("count", [count_iso_classes, count_absolutely_indecomposable,
                                   enumerate_orbits, moment_fiber_count],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("r,error", [((1, 1, 1), DimensionMismatch), ((2,), DimensionMismatch),
                                     ((1, -1), UnsupportedParameter)])
def test_bad_rank_vector_is_refused(count, r, error):
    # one entry per vertex, none negative, whichever count is asked
    with pytest.raises(error):
        count(a2_quiver(), 1, r, 3)


class TestAsk:
    def test_identity_family(self):
        # |Ker(a)| = q^min(n, val a): (2 + 1)/2 at level one over F_2
        assert ask_counts([[[1]]], 2, 2) == [Fraction(3, 2), Fraction(2)]

    def test_zero_family(self):
        assert ask_counts([[[0]]], 2, 2) == [Fraction(2), Fraction(4)]
        assert ask_counts([[[0, 0], [0, 0]]], 3, 1) == [Fraction(9)]

    def test_jordan_moment_family(self):
        theta = moment_theta_basis(jordan_quiver(), (1,))
        assert theta == [[[0]]]
        assert ask_counts(theta, 2, 3) == [Fraction(2), Fraction(4), Fraction(8)]

    def test_a2_moment_family(self):
        theta = moment_theta_basis(a2_quiver(), (1, 1))
        # x spans one coordinate; mu(x, y) = (-yx, xy)
        assert theta == [[[-1], [1]]]
        # ask_1 = (q + (q-1)) / q
        assert ask_counts(theta, 3, 1) == [Fraction(3 + 2 * 1, 3)]

    def test_cap_names_the_space(self):
        # two coefficients in F_3 at level one: 9 = 2^3.2 points
        with pytest.raises(CapExceeded,
                           match=r"coefficient space at level 1 has 2\^3\.2 points, cap 2\^3$"):
            ask_counts([[[1]], [[0]]], 3, 1, Caps(max_space_log2=3))

    def test_cached_basis_comes_as_a_fresh_list(self):
        theta = moment_theta_basis(a2_quiver(), (1, 1))
        theta[0][0][0] = 7
        assert moment_theta_basis(a2_quiver(), (1, 1)) == [[[-1], [1]]]


# The point walks of the benchmark's brute-force workload, one entry per
# instance: (family, n, rank, alpha, q) and, for deformed fibers, lambda.
_QUIVERS = {"loop": loop_quiver, "kronecker": kronecker_quiver,
            "a2": lambda n: a2_quiver(), "cyclic": cyclic_quiver}
L2, K3, A2, C3 = ("loop", 2), ("kronecker", 3), ("a2", 1), ("cyclic", 3)
ZERO_FIBERS = [
    (L2, (2,), 1, 3), (K3, (1, 2), 1, 4), (K3, (1, 2), 2, 2), (L2, (2,), 1, 2),
    (K3, (1, 2), 1, 2), (K3, (1, 2), 1, 3), (K3, (2, 1), 1, 2), (K3, (2, 1), 1, 3),
    (A2, (1, 2), 1, 5), (A2, (1, 2), 1, 7), (A2, (2, 1), 1, 4), (A2, (1, 2), 2, 3),
    (A2, (2, 1), 2, 3), (A2, (1, 2), 2, 5), (A2, (2, 1), 2, 4), (A2, (2, 1), 2, 2)]
JETS = [(L2, (2,), 2, 1), (K3, (1, 2), 2, 1), (K3, (2, 1), 3, 1), (A2, (1, 2), 3, 2),
        (A2, (2, 1), 5, 2), (A2, (1, 2), 4, 2), (A2, (2, 1), 2, 2)]
DEFORMED = [(A2, (1, 1), (1, -1), a, q) for a in (1, 2) for q in (3, 5, 7)] + [
    (C3, (1, 1, 1), (1, 1, -2), 1, 5), (C3, (1, 1, 1), (1, 1, -2), 1, 7),
    (K3, (1, 1), (1, -1), 1, 3), (K3, (1, 1), (1, -1), 2, 3), (K3, (1, 1), (1, -1), 1, 5),
    (A2, (1, 2), (2, -1), 1, 5), (A2, (1, 2), (2, -1), 1, 7), (A2, (2, 1), (-1, 2), 1, 5)]
ASKS = [(L2, (2,), 2, 1), (K3, (1, 2), 2, 1), (K3, (1, 2), 3, 1), (A2, (1, 2), 5, 2),
        (A2, (2, 1), 3, 2), (A2, (1, 2), 7, 2)]
ISO_CLASSES = [(1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 1, 7), (1, 2, 2),
               (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 2, 2)]


def _ident(value):
    return "".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _quiver(family):
    return _QUIVERS[family[0]](family[1])


def _named(instances):
    return [pytest.param(Q, alpha, q, id=f"{name}-{alpha}-{q}") for name, Q, alpha, q in instances]


# Rank all-one zero fibers, which moment_fiber_count sums over the valuation
# patterns of the underlying simple graph, with loops and the extra arrows of
# each parallel class in closed form: loops, parallel and antiparallel
# arrows, a disconnected quiver with an isolated vertex, one to five vertices.
K2_LOOP = Quiver(["0", "1"], [(0, 1), (0, 1), (1, 1)])
TREE4_LOOP = Quiver(["0", "1", "2", "3"], [(0, 1), (1, 2), (1, 3), (3, 3)])
ANTIPARALLEL = Quiver(["0", "1"], [(0, 1), (1, 0), (0, 1)])
DISCONNECTED = Quiver(["0", "1", "2", "3", "4"], [(0, 1), (1, 0), (2, 2), (3, 2)])
RANK_ONE_FIBERS = [
    ("jordan", jordan_quiver(), 3, 3), ("loop2", loop_quiver(2), 2, 4),
    ("a2", a2_quiver(), 3, 5), ("a2", a2_quiver(), 5, 2),
    ("kronecker2", kronecker_quiver(2), 3, 2), ("kronecker3", kronecker_quiver(3), 2, 3),
    ("cyclic3", cyclic_quiver(3), 1, 5), ("cyclic3", cyclic_quiver(3), 2, 3),
    ("cyclic4", cyclic_quiver(4), 1, 4), ("k2loop", K2_LOOP, 2, 3),
    ("tree4loop", TREE4_LOOP, 2, 2), ("tree4loop", TREE4_LOOP, 1, 3),
    ("antiparallel", ANTIPARALLEL, 2, 3), ("disconnected", DISCONNECTED, 2, 2)]
RANK_ONE_FIBERS_LARGE = [
    ("kronecker3", kronecker_quiver(3), 3, 3), ("cyclic4", cyclic_quiver(4), 2, 4),
    ("cyclic5", cyclic_quiver(5), 2, 3), ("k2loop", K2_LOOP, 4, 3),
    ("a2", a2_quiver(), 8, 3), ("loop3", loop_quiver(3), 3, 4)]


class TestBatchedWalksMatchScalar:
    """The batched walks against the per-point scalar loops they replaced."""

    @pytest.mark.parametrize("family,r,alpha,q", ZERO_FIBERS, ids=_ident)
    def test_zero_fiber(self, family, r, alpha, q):
        Q = _quiver(family)
        assert moment_fiber_count(Q, alpha, r, q) == ref.zero_fiber(Q, alpha, r, q)

    @pytest.mark.parametrize("Q,alpha,q", _named(RANK_ONE_FIBERS))
    def test_rank_one_zero_fiber(self, Q, alpha, q):
        r = (1,) * Q.num_vertices
        assert moment_fiber_count(Q, alpha, r, q) == ref.zero_fiber(Q, alpha, r, q)

    @pytest.mark.parametrize("Q,alpha,q", _named(RANK_ONE_FIBERS_LARGE))
    def test_rank_one_zero_fiber_against_point_walk(self, Q, alpha, q):
        # the general walk over every point, with no valuation patterns
        r = (1,) * Q.num_vertices
        walk = _walk(Fq(q), np.array(moment_theta_basis(Q, r), dtype=np.int64), alpha)
        assert moment_fiber_count(Q, alpha, r, q) == walk

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_rank_one_zero_fibers(self, data):
        # loops at several vertices, antiparallel pairs, isolated vertices and
        # disconnected quivers, against the walk over every point
        n = data.draw(st.integers(1, 4))
        vertex = st.integers(0, n - 1)
        pieces = data.draw(st.lists(st.one_of(
            vertex.map(lambda v: [(v, v)]),
            st.tuples(vertex, vertex).map(lambda e: [e]),
            st.tuples(vertex, vertex).map(lambda e: [e, e[::-1]])), max_size=6))
        Q = Quiver([str(v) for v in range(n)], [a for piece in pieces for a in piece][:6])
        alpha = data.draw(st.integers(1, 3))
        q = data.draw(st.sampled_from([2, 3, 4]))
        assume(q ** (alpha * Q.num_arrows) <= 2 ** 14)
        r = (1,) * n
        # an arrowless quiver has one point, whose fiber is everything
        want = (_walk(Fq(q), np.array(moment_theta_basis(Q, r), dtype=np.int64), alpha)
                if Q.arrows else 1)
        assert moment_fiber_count(Q, alpha, r, q) == want

    @pytest.mark.parametrize("Q,alpha,r,q", _bench_instances("fiber-rank1"))
    def test_rank_one_zero_fiber_bench_menu(self, Q, alpha, r, q):
        # the symbolic count from toric counts of vertex-subset restrictions
        want = kacpoly.rank1_fiber_count(Q, alpha).evaluate(q)
        assert moment_fiber_count(Q, alpha, r, q) == want

    def test_rank_one_loops_in_closed_form(self):
        # one pattern: q^(2 alpha) per loop, where the walk would take
        # 2^10 and 3^10 valuation patterns
        assert jet_counts(loop_quiver(10), (1,), 2, 2) == [2 ** 20, 2 ** 40]

    @pytest.mark.parametrize("family,r,q,n_max", JETS, ids=_ident)
    def test_jets(self, family, r, q, n_max):
        Q = _quiver(family)
        want = [ref.zero_fiber(Q, n, r, q) for n in range(1, n_max + 1)]
        assert jet_counts(Q, r, q, n_max) == want

    @pytest.mark.parametrize("family,r,lam,alpha,q", DEFORMED, ids=_ident)
    def test_deformed_fiber(self, family, r, lam, alpha, q):
        Q = _quiver(family)
        want = ref.deformed_fiber(Q, alpha, r, q, lam)
        assert moment_fiber_count(Q, alpha, r, q, lam) == want

    @pytest.mark.parametrize("family,r,q,n_max", ASKS, ids=_ident)
    def test_ask(self, family, r, q, n_max):
        theta = moment_theta_basis(_quiver(family), r)
        assert ask_counts(theta, q, n_max) == ref.ask_counts(theta, q, n_max)

    @pytest.mark.parametrize("family,r,q,n_max", [(L2, (2,), 2, 1), (K3, (1, 2), 2, 1),
                                                  (A2, (2, 1), 3, 2)], ids=_ident)
    def test_ask_of_the_moment_family_is_the_zero_fiber(self, family, r, q, n_max):
        # the zero fiber sums |Ker A(x)| over the K coordinates of x, ask_n averages it
        Q = _quiver(family)
        theta = moment_theta_basis(Q, r)
        scaled = [a * q ** (n * len(theta))
                  for n, a in enumerate(ask_counts(theta, q, n_max), start=1)]
        assert scaled == jet_counts(Q, r, q, n_max)

    @pytest.mark.parametrize("g,alpha,q", ISO_CLASSES, ids=_ident)
    def test_iso_classes(self, g, alpha, q):
        Q = loop_quiver(g)
        assert count_iso_classes(Q, alpha, (2,), q) == ref.iso_classes(Q, alpha, (2,), q)

    @pytest.mark.parametrize("Q,alpha,r,q", [
        (a2_quiver(), 2, (2, 1), 2), (a2_quiver(), 1, (1, 2), 3),
        (kronecker_quiver(2), 1, (1, 1), 3), (a2_quiver(), 1, (0, 2), 2)])
    def test_iso_classes_two_vertices(self, Q, alpha, r, q):
        # arrows between distinct vertices pair every element of one
        # group with every element of the other, in either arrow direction
        assert count_iso_classes(Q, alpha, r, q) == ref.iso_classes(Q, alpha, r, q)
        Qop = Quiver(Q.vertices, [(t, s) for s, t in Q.arrows])
        assert count_iso_classes(Qop, alpha, r, q) == ref.iso_classes(Qop, alpha, r, q)
