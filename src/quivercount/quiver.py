"""Quivers and their combinatorics.

A quiver is a finite directed multigraph: vertex labels and an arrow
list.  List positions are the arrow indices that spanning trees, tree paths
and the maps of a representation refer to, so the JSON form keeps the
order.  Loops and parallel arrows are allowed everywhere.  Every count
takes the multiplicity alpha of O_alpha as an argument, the same at every
vertex, so a quiver carries none.

The JSON form is {"vertices": [...], "arrows": [{"src": i, "dst": j}, ...]},
with integer endpoints.  Files written with a "multiplicities" key still
load; the key is ignored.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations
from math import comb

from .errors import DimensionMismatch, NotConnected


class Quiver:
    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        self.arrows = tuple((int(s), int(t)) for s, t in arrows)
        n = len(self.vertices)
        for s, t in self.arrows:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"arrow ({s},{t}) out of range for {n} vertices")

    # -- basics ---------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_arrows(self) -> int:
        return len(self.arrows)

    def is_loop(self, a: int) -> bool:
        s, t = self.arrows[a]
        return s == t

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver(vertices={list(self.vertices)}, arrows={list(self.arrows)})"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"src": s, "dst": t} for s, t in self.arrows],
        }

    @staticmethod
    def from_json(data: dict) -> "Quiver":
        if not isinstance(data["vertices"], list):
            raise ValueError(f"vertices must be a list, got {data['vertices']!r}")
        arrows = [(a["src"], a["dst"]) for a in data["arrows"]]
        for k, ends in enumerate(arrows):
            # bool is a subclass of int, and JSON true is no vertex index
            if any(type(v) is not int for v in ends):
                raise ValueError(f"arrow {k} {ends!r}: endpoints must be integers")
        return Quiver(data["vertices"], arrows)

    @staticmethod
    def load(path) -> "Quiver":
        with open(path) as fh:
            return Quiver.from_json(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


# -- standard examples ----------------------------------------------------

def jordan_quiver() -> Quiver:
    return Quiver(["v"], [(0, 0)])


def loop_quiver(g: int) -> Quiver:
    return Quiver(["v"], [(0, 0)] * g)


def a2_quiver() -> Quiver:
    return Quiver(["1", "2"], [(0, 1)])


def kronecker_quiver(r: int) -> Quiver:
    return Quiver(["1", "2"], [(0, 1)] * r)


def cyclic_quiver(n: int) -> Quiver:
    return Quiver([str(i + 1) for i in range(n)],
                  [(i, (i + 1) % n) for i in range(n)])


# -- Euler forms ------------------------------------------------------------

def euler_form(Q: Quiver, d, e) -> int:
    """<d,e> = sum d_i e_i - sum over arrows d_{s(a)} e_{t(a)}."""
    n = Q.num_vertices
    if len(d) != n or len(e) != n:
        raise DimensionMismatch("rank vector length must equal vertex count")
    total = sum(d[i] * e[i] for i in range(n))
    for s, t in Q.arrows:
        total -= d[s] * e[t]
    return total


# -- graph invariants -------------------------------------------------------

def connected_components(Q: Quiver) -> int:
    return len(component_sets(Q))


def _union_find(n: int, pairs):
    """Join the endpoints of each pair among vertices 0..n-1.

    Returns (root of each vertex, positions of the pairs that merged two
    parts): those pairs span a forest, so with m of them the graph has
    n - m components, and its cycle rank is len(pairs) - m.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest = []
    for k, (s, t) in enumerate(pairs):
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
            forest.append(k)
    return [find(v) for v in range(n)], forest


def component_sets(Q: Quiver):
    """Vertex sets of the connected components (underlying graph)."""
    roots, _ = _union_find(Q.num_vertices, Q.arrows)
    groups = {}
    for v, root in enumerate(roots):
        groups.setdefault(root, []).append(v)
    return [frozenset(g) for g in sorted(groups.values())]


def is_connected(Q: Quiver) -> bool:
    return Q.num_vertices > 0 and connected_components(Q) == 1


def betti(Q: Quiver) -> int:
    """Cycle rank C - V + E of the underlying graph."""
    return connected_components(Q) - Q.num_vertices + Q.num_arrows


@functools.lru_cache(maxsize=64)
def _parallel_classes(Q: Quiver) -> tuple:
    """((s, t), k_c) by endpoint pair s <= t: the k_c arrows with the same two
    ends either way round, or the loops at a vertex, form a parallel class."""
    return tuple(sorted(Counter(tuple(sorted(arrow)) for arrow in Q.arrows).items()))


@dataclass(frozen=True)
class ClassLattice:
    """Arrow subsets by their count vectors m over the parallel classes
    (_parallel_classes): b(m) = |m| - n + c(supp m).  The states m <= k run in
    mixed radix (k_c + 1), the last class fastest, so m' >= m comes no earlier."""
    betti: tuple       # b(m), by state
    weight: tuple      # prod_c C(k_c, m_c): the subsets with counts m, by state
    connected: tuple   # c(supp m) == 1, by state


@functools.lru_cache(maxsize=64)
def _class_lattice(Q: Quiver) -> ClassLattice:
    """The ClassLattice of Q, from 2^C union-finds for its C classes."""
    n, classes = Q.num_vertices, _parallel_classes(Q)
    components = _subset_tables(n, tuple(pair for pair, _ in classes))
    sizes, support, weight = [0], [0], [1]  # |m|, supp m and weight, class by class
    for c, (_, k) in enumerate(classes):
        sizes = [x + j for x in sizes for j in range(k + 1)]
        support = [x | (j > 0) << c for x in support for j in range(k + 1)]
        weight = [x * comb(k, j) for x in weight for j in range(k + 1)]
    return ClassLattice(tuple(size - n + components[s] for size, s in zip(sizes, support)),
                        tuple(weight), tuple(components[s] == 1 for s in support))


@functools.lru_cache(maxsize=64)
def _subset_tables(n: int, arrows: tuple):
    """Component counts of the graph on n vertices with each subset of the
    arrows, by bitmask; the lattice and census of a loop-free quiver share them."""
    return tuple(n - len(_union_find(n, [e for a, e in enumerate(arrows) if mask >> a & 1])[1])
                 for mask in range(1 << len(arrows)))


def is_2_connected(Q: Quiver) -> bool:
    """Connected and bridgeless; loops never disconnect anything.

    A bridge lies on every spanning forest, so the bridges are looked for
    among the arrows of the one that a union-find pass over the arrows
    builds: each of those is left out in turn and the rest joined again.
    """
    n, arrows = Q.num_vertices, Q.arrows
    forest = _union_find(n, arrows)[1]
    if len(forest) != n - 1:
        return False
    return all(len(_union_find(n, arrows[:a] + arrows[a + 1:])[1]) == n - 1
               for a in forest)


# -- subquivers -------------------------------------------------------------

def restrict_vertices(Q: Quiver, I) -> Quiver:
    """Full subquiver on the vertex subset I (original order kept)."""
    I = sorted(set(int(i) for i in I))
    index = {v: k for k, v in enumerate(I)}
    arrows = [(index[s], index[t]) for s, t in Q.arrows if s in index and t in index]
    return Quiver([Q.vertices[i] for i in I], arrows)


# -- spanning trees ---------------------------------------------------------

def spanning_trees(Q: Quiver):
    """All spanning trees as sorted tuples of non-loop arrow indices.

    Deterministic order (lexicographic on index tuples); raises if Q is
    disconnected.
    """
    if not is_connected(Q):
        raise NotConnected("spanning trees require a connected quiver")
    n = Q.num_vertices
    non_loops = [a for a in range(Q.num_arrows) if not Q.is_loop(a)]
    if n == 1:
        return [()]
    trees = []
    for subset in combinations(non_loops, n - 1):
        # n - 1 edges form a tree exactly when every one merges two parts
        if len(_union_find(n, [Q.arrows[a] for a in subset])[1]) == n - 1:
            trees.append(subset)
    return trees


def tree_path(Q: Quiver, tree, a: int):
    """Edges of the unique path in the tree joining the endpoints of arrow a."""
    s, t = Q.arrows[a]
    if s == t:
        return ()
    adj = {}
    for e in tree:
        x, y = Q.arrows[e]
        adj.setdefault(x, []).append((y, e))
        adj.setdefault(y, []).append((x, e))
    # DFS from s to t collecting edges
    stack = [(s, None, ())]
    seen = {s}
    while stack:
        v, _, path = stack.pop()
        if v == t:
            return path
        for w, e in adj.get(v, []):
            if w not in seen:
                seen.add(w)
                stack.append((w, e, path + (e,)))
    raise NotConnected("arrow endpoints not joined by the tree")


# -- set partitions ---------------------------------------------------------

def set_partitions(items):
    """All partitions of a sequence into nonempty blocks, deterministically.

    Each partition is a tuple of tuples; the first element always lies in
    the first block.
    """
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        # put first in its own block
        yield ((first,),) + sub
        # or join an existing block
        for k in range(len(sub)):
            yield tuple((first,) + sub[i] if i == k else sub[i]
                        for i in range(len(sub)))


# -- corpus of small connected quivers --------------------------------------

def connected_quiver_corpus(max_vertices: int = 4, max_edges: int = 6):
    """Connected quivers with at most the given sizes, one per isomorphism
    class of underlying multigraph (loops and parallel edges included).

    Every quantity this package verifies on the corpus is orientation
    independent, so arrows run from the lower vertex index to the higher.
    An edge list is held as the bytes of its sorted slot indices, which
    order as the edge lists do: slots are numbered in lexicographic order.
    A vertex permutation acts on those bytes through one translation table,
    built once per permutation for each vertex count.  Each layer of fixed
    size (n, e) visits every class once, connected or not, at its first
    edge list in combination order: it records all the images of that list
    under the vertex permutations, so a later member of the class is
    recognised without being permuted again.  The class is tested for
    connectivity once, by a union-find over its edges, and a connected one
    is kept in its canonical form, the least of those images.
    """
    corpus = []
    for n in range(1, max_vertices + 1):
        labels = [str(v + 1) for v in range(n)]
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        index = {}
        for k, (i, j) in enumerate(slots):
            index[i, j] = index[j, i] = k
        unused = bytes(range(len(slots), 256))
        tables = [bytes(index[perm[i], perm[j]] for i, j in slots) + unused
                  for perm in permutations(range(n))]
        for e in range(n - 1, max_edges + 1):
            images = set()
            for combo in combinations_with_replacement(range(len(slots)), e):
                key = bytes(combo)
                if key in images:
                    continue
                found = {bytes(sorted(key.translate(table))) for table in tables}
                images |= found
                if len(_union_find(n, [slots[k] for k in combo])[1]) == n - 1:
                    corpus.append(Quiver(labels, [slots[k] for k in min(found)]))
    return corpus
