import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symbolic_reference
from symbolic_reference import contract, delete, restrict_arrows

from quivercount.errors import DimensionMismatch
from quivercount.quiver import (Quiver, _class_lattice, _parallel_classes, _subset_tables,
                                a2_quiver, betti, connected_components,
                                connected_quiver_corpus, cyclic_quiver, euler_form,
                                is_2_connected, is_connected, jordan_quiver, loop_quiver,
                                restrict_vertices, set_partitions, spanning_trees, tree_path)


class TestEulerForm:
    def test_examples(self):
        assert euler_form(jordan_quiver(), (1,), (1,)) == 0
        assert euler_form(a2_quiver(), (1, 1), (1, 1)) == 1
        assert euler_form(loop_quiver(2), (2,), (2,)) == -4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            euler_form(a2_quiver(), (1,), (1, 1))


class TestGraphInvariants:
    def test_betti_examples(self):
        c3 = cyclic_quiver(3)
        assert betti(c3) == 1 and is_connected(c3) and is_2_connected(c3)
        assert betti(a2_quiver()) == 0 and not is_2_connected(a2_quiver())
        assert betti(jordan_quiver()) == 1 and is_2_connected(jordan_quiver())

    def test_two_connected_partition_criterion(self):
        # 2-connected iff b(Q) exceeds the betti sum of every nontrivial
        # vertex partition; exhaustive on the small corpus
        for Q in connected_quiver_corpus(4, 4):
            crit = True
            for partition in set_partitions(range(Q.num_vertices)):
                if len(partition) < 2:
                    continue
                bsum = sum(betti(restrict_vertices(Q, block)) for block in partition)
                if betti(Q) <= bsum:
                    crit = False
                    break
            assert crit == is_2_connected(Q), Q

    def test_two_connected_matches_deletion_oracle_on_corpus(self):
        for Q in connected_quiver_corpus(4, 6) + connected_quiver_corpus(3, 7):
            assert is_2_connected(Q) == symbolic_reference.is_2_connected(Q), Q

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_two_connected_matches_deletion_oracle(self, data):
        # few vertices make loops, parallel and antiparallel arrows common;
        # arrows may leave vertices isolated or the quiver disconnected
        n = data.draw(st.integers(0, 5))
        pairs = [(s, t) for s in range(n) for t in range(n)]
        arrows = data.draw(st.lists(st.sampled_from(pairs), max_size=8)) if n else []
        Q = Quiver([str(v) for v in range(n)], arrows)
        assert is_2_connected(Q) == symbolic_reference.is_2_connected(Q), Q


class TestSubquivers:
    def test_contract_cycle(self):
        c3 = cyclic_quiver(3)
        c2 = contract(c3, 0)
        assert c2.num_vertices == 2 and c2.num_arrows == 2
        assert betti(c2) == betti(c3)

    def test_contract_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            contract(jordan_quiver(), 0)

    def test_delete_bridge(self):
        Q = delete(a2_quiver(), 0)
        assert connected_components(Q) == 2

    def test_betti_deletion_on_cycle(self):
        c3 = cyclic_quiver(3)
        assert betti(delete(c3, 1)) == betti(c3) - 1

    def test_betti_partition_additivity(self):
        # contracting the blocks {1} and {2,3} of the triangle
        c3 = cyclic_quiver(3)
        sub = restrict_vertices(c3, [1, 2])
        contracted = contract(c3, 1)  # the arrow inside {2,3}
        assert betti(c3) == betti(contracted) + betti(restrict_vertices(c3, [0])) + betti(sub)

    def test_restrict_arrows_keeps_vertices(self):
        c3 = cyclic_quiver(3)
        Q = restrict_arrows(c3, [0])
        assert Q.num_vertices == 3 and Q.num_arrows == 1


class TestSpanningTrees:
    def test_counts(self):
        assert len(spanning_trees(cyclic_quiver(3))) == 3
        assert len(spanning_trees(a2_quiver())) == 1
        two_bar = Quiver(["a", "b"], [(0, 1), (0, 1)])
        assert len(spanning_trees(two_bar)) == 2

    def test_deletion_contraction(self):
        # |T(Q)| = |T(Q delete a)| + |T(Q contract a)| for a non-bridge non-loop
        c3 = cyclic_quiver(3)
        a = 0
        assert (len(spanning_trees(c3))
                == len(spanning_trees(delete(c3, a))) + len(spanning_trees(contract(c3, a))))

    def test_tree_path(self):
        c3 = cyclic_quiver(3)
        tree = (0, 1)
        assert sorted(tree_path(c3, tree, 2)) == [0, 1]

    def test_loops_never_in_trees(self):
        assert spanning_trees(jordan_quiver()) == [()]

    def test_matrix_tree_theorem(self):
        # Kirchhoff: the tree count is any cofactor of the graph Laplacian
        for Q in connected_quiver_corpus(4, 6):
            n = Q.num_vertices
            lap = [[Fraction(0)] * n for _ in range(n)]
            for s, t in Q.arrows:
                if s != t:
                    lap[s][s] += 1
                    lap[t][t] += 1
                    lap[s][t] -= 1
                    lap[t][s] -= 1
            assert len(spanning_trees(Q)) == _determinant([row[1:] for row in lap[1:]])


def _determinant(rows):
    """Exact determinant by Gaussian elimination over Q."""
    m = [list(row) for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            c = m[i][k] / m[k][k]
            m[i] = [a - c * b for a, b in zip(m[i], m[k])]
    return det


class TestEnumeration:
    def test_set_partitions_bell(self):
        assert len(list(set_partitions([1, 2, 3]))) == 5
        assert len(list(set_partitions(range(4)))) == 15


@st.composite
def small_quivers(draw):
    n = draw(st.integers(1, 4))
    vertices = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=6))
    return Quiver(vertices, arrows)


JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=3),
                           lambda inner: st.lists(inner, max_size=4), max_leaves=8)


class TestSerialization:
    @given(small_quivers(), JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_json_roundtrip_ignores_multiplicities(self, Q, multiplicities):
        data = json.loads(json.dumps(Q.to_json()))
        loaded = Quiver.from_json(data)
        assert loaded == Q and hash(loaded) == hash(Q)
        assert Quiver.from_json({**data, "multiplicities": multiplicities}) == Q

    def test_roundtrip_preserves_arrow_order(self, tmp_path):
        Q = Quiver(["a", "b"], [(0, 1), (1, 0), (0, 1)])
        path = tmp_path / "q.json"
        Q.save(path)
        assert Quiver.load(path) == Q
        data = json.loads(path.read_text())
        assert [tuple(a.values()) for a in data["arrows"]] == [(0, 1), (1, 0), (0, 1)]

    @pytest.mark.parametrize("src", [0.5, 1.0, "0", True, None, [0]])
    def test_endpoints_must_be_json_integers(self, src):
        data = {"vertices": ["a", "b"], "arrows": [{"src": 0, "dst": 1}, {"src": src, "dst": 1}]}
        with pytest.raises(ValueError, match="arrow 1 .*endpoints must be integers"):
            Quiver.from_json(data)
        with pytest.raises(ValueError, match="arrow 0 "):
            Quiver.from_json({"vertices": ["a", "b"], "arrows": [{"src": 1, "dst": src}]})

    @pytest.mark.parametrize("end", [0.5, "0", True, None])
    def test_constructor_checks_endpoints(self, end):
        # the constructor holds the one check that from_json relies on
        with pytest.raises(ValueError, match=r"arrow 1 .*endpoints must be integers"):
            Quiver(["a", "b"], [(0, 1), (end, 1)])
        with pytest.raises(ValueError, match=r"arrow 0 .*endpoints must be integers"):
            Quiver(["a", "b"], [(1, end)])

    def test_constructor_takes_integral_endpoints(self):
        arrows = Quiver(["a", "b"], [(np.int64(0), np.int32(1))]).arrows
        assert arrows == ((0, 1),) and all(type(v) is int for v in arrows[0])
        with pytest.raises(ValueError, match=r"arrow 0 \(0,2\) out of range for 2 vertices"):
            Quiver(["a", "b"], [(0, 2)])

    @pytest.mark.parametrize("vertices", ["ab", 2, {"a": 0}, None])
    def test_vertices_must_be_a_list(self, vertices):
        with pytest.raises(ValueError, match="vertices must be a list"):
            Quiver.from_json({"vertices": vertices, "arrows": []})


def test_corpus_shape():
    corpus = connected_quiver_corpus(4, 6)
    assert len(corpus) == 283
    assert all(is_connected(Q) for Q in corpus)
    assert all(Q.num_vertices <= 4 and Q.num_arrows <= 6 for Q in corpus)


@pytest.mark.parametrize("max_vertices,max_edges", [(4, 6), (3, 7), (5, 5)])
def test_corpus_matches_per_combination_canonicaliser(max_vertices, max_edges):
    got = connected_quiver_corpus(max_vertices, max_edges)
    want = symbolic_reference.connected_quiver_corpus(max_vertices, max_edges)
    assert [(Q.vertices, Q.arrows) for Q in got] == [(Q.vertices, Q.arrows) for Q in want]


def test_cached_subset_tables_equal_fresh_ones():
    # the class lattice is cached by quiver; a quiver built anew with the
    # same arrows reads the same tables
    for Q in connected_quiver_corpus(4, 6):
        lattice = _class_lattice(Q)
        assert _class_lattice(Quiver(Q.vertices, Q.arrows)) is lattice
        assert lattice == _class_lattice.__wrapped__(Q)


def test_class_lattice_counts_the_arrow_subsets():
    # each arrow subset sits at the state of its count vector, which holds
    # its Betti and component numbers, and each state holds weight subsets;
    # the component table over one arrow per class reads the support's
    for Q in connected_quiver_corpus(4, 6):
        lattice, classes = _class_lattice(Q), _parallel_classes(Q)
        by_support = _subset_tables(Q.num_vertices, tuple(pair for pair, _ in classes))
        b_of, comps = symbolic_reference.subset_tables(Q)
        hits = Counter()
        for mask in range(1 << Q.num_arrows):
            m = Counter(tuple(sorted(arrow)) for a, arrow in enumerate(Q.arrows) if mask >> a & 1)
            state = support = 0
            for c, (pair, k) in enumerate(classes):
                state = state * (k + 1) + m[pair]
                support |= (m[pair] > 0) << c
            assert lattice.betti[state] == b_of[mask]
            assert lattice.connected[state] == (comps[mask] == 1)
            assert by_support[support] == comps[mask]
            hits[state] += 1
        assert [hits[state] for state in range(len(lattice.weight))] == list(lattice.weight)
