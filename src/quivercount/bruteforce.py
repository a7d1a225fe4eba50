"""Exhaustive enumeration oracles over O_alpha = F_q[t]/(t^alpha).

Everything here counts by brute force: points are integer indices whose
base-q digits are their coordinates, and the orbit census labels each point
with the least point of its orbit under a few generators (_orbit_labels).
While a generator g normalizes the group H generated before it, the least
point of an orbit of <H, g> is the minimum of the H-labels over the powers
of g: a streaming minimum over all points.  Once a generator's tables hold
more values than there are orbits left, or past the normal part of the
group, generators add edges from orbit roots only.  Arrows that no
generator moves (1 x 1 loops, arrows of one value) stay out of the labelled
points: every orbit is a labelled orbit times one value of each of them.
In rank all-one, count_absolutely_indecomposable labels the quiver without
its loops and multiplies by their (q^alpha)^L values, so neither the labels
nor the support tables of the census ever carry them.  On the Jordan quiver
the census lists the adjoint orbits of GL_r(O_alpha) on M_r(O_alpha)
(_adjoint_orbits).  count_iso_classes sums Burnside's lemma
over tuples of its invertible orbits, the conjugacy classes, and
moment_fiber_count sums a Fourier inversion over tuples of all of them
whenever the censuses cost less than the x-space, sum_i q^(alpha r_i^2) <
q^(alpha dim R); otherwise it walks every point x (_walk).  Either way the
space cap bounds the x-space.
All higher-level identities in the package are checked against these
counts.  Correctness first; caps keep the instances at desk scale.

A representation point is a tuple of OMatrix values, one per arrow, of
shape r_target x r_source.  The group GL_{alpha,r} = prod_i GL_{r_i}(O_alpha)
acts by g . x = (g_{t(a)} x_a g_{s(a)}^{-1}).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from .errors import (CapExceeded, CharacteristicTooSmall, DimensionMismatch,
                     InvalidType, NonGenericLambda, UnsupportedParameter)
from .localring import (Fq, OMatrix, ORing, _mul_batch, gl_order, kernel_size_exponent,
                        smith_invariants_batch)
from .quiver import Quiver, _parallel_classes, _subset_tables, _union_find, jordan_quiver


@dataclass(frozen=True)
class Caps:
    """Resource limits; defaults sized so the verification suite finishes
    in minutes.  max_space_log2 caps the points of every walk and census (a
    census holds int32 arrays: at 2^20 points it peaks at 23 bytes a point
    in rank all-one without loops, 16 when the orbit sizes are not asked
    for, and 32 on a 2 x 2 loop, some 0.4 and 0.5 GiB at 2^24).
    count_iso_classes walks no x-space: the cap bounds its Jordan census
    of M_{r_i}(O_alpha) at each vertex and its grid of class tuples.
    moment_fiber_count is capped by its x-space whichever route it takes;
    its adjoint-orbit route runs Jordan censuses and a tuple grid smaller
    than that x-space."""
    max_space_log2: int = 24


DEFAULT_CAPS = Caps()


@dataclass
class OrbitRecord:
    representative: tuple
    orbit_size: int
    end_size_exp: int
    aut_size: int
    indecomposable: bool
    top_degree: int | None
    absolutely_indecomposable: bool


# -- basic sizes -------------------------------------------------------------

def rep_space_dim(Q: Quiver, r) -> int:
    """dim_O of R(Q, alpha; r): sum over arrows of r_s r_t."""
    return sum(r[s] * r[t] for s, t in Q.arrows)


def _rank_vector(Q: Quiver, r) -> tuple:
    """r as a tuple of ints, one nonnegative entry per vertex of Q."""
    r = tuple(int(x) for x in r)
    if len(r) != Q.num_vertices:
        raise DimensionMismatch(f"rank vector needs {Q.num_vertices} entries, got {len(r)}")
    if min(r, default=0) < 0:
        raise UnsupportedParameter(f"rank entries must be >= 0, got {list(r)}")
    return r


def check_space_cap(Q: Quiver, alpha: int, r, q: int, caps: Caps) -> None:
    log2_size = alpha * rep_space_dim(Q, r) * math.log2(q)
    if log2_size > caps.max_space_log2:
        raise CapExceeded(
            f"representation space has 2^{log2_size:.1f} points, cap 2^{caps.max_space_log2}")


def group_order(alpha: int, r, q: int) -> int:
    order = 1
    for ri in r:
        order *= gl_order(q, alpha, ri)
    return order


# -- End and indecomposability ------------------------------------------------

def end_system_matrix(Q: Quiver, ring: ORing, r, x) -> OMatrix:
    """Matrix of the intertwiner equations xi_t x_a = x_a xi_s.

    Unknowns are the stacked entries of the per-vertex square matrices
    xi_i; the kernel is End of the representation x.
    """
    n = Q.num_vertices
    offsets = []
    total = 0
    for i in range(n):
        offsets.append(total)
        total += r[i] * r[i]
    rows = []
    for a, (s, t) in enumerate(Q.arrows):
        xa = x[a]
        for u in range(r[t]):
            for v in range(r[s]):
                row = [ring.zero] * total
                # (xi_t x_a)[u,v]: coefficient of xi_t[u,w] is x_a[w,v]
                for w in range(r[t]):
                    row[offsets[t] + u * r[t] + w] = ring.add(
                        row[offsets[t] + u * r[t] + w], xa.entries[w][v])
                # -(x_a xi_s)[u,v]: coefficient of xi_s[w,v] is -x_a[u,w]
                for w in range(r[s]):
                    row[offsets[s] + w * r[s] + v] = ring.sub(
                        row[offsets[s] + w * r[s] + v], xa.entries[u][w])
                rows.append(row)
    return OMatrix(ring, rows, shape=(len(rows), total))


def _top_degree(end_size: int, aut_size: int, q: int):
    """d >= 1 with |End| - |Aut| = q^-d |End|, or None.  d exists iff End is
    local, and is then [End/J : F_q]: for End/J = prod_i M_{n_i}(F_{q^d_i})
    the condition reads q^N - prod_{i, k <= n_i} (q^(d_i k) - 1) = q^(N-d)
    with N = sum_i d_i n_i (n_i + 1)/2, and mod q that forces N = d, n = 1."""
    radical = end_size - aut_size
    d = 0
    m = end_size
    while m > radical > 0:
        m //= q
        d += 1
    return d if m == radical else None


# -- orbit enumeration --------------------------------------------------------

def enumerate_orbits(Q: Quiver, alpha: int, r, q: int,
                     caps: Caps = DEFAULT_CAPS) -> list:
    """Partition R(Q, alpha; r)(F_q) into GL-orbits and classify each one.

    Records are sorted by representative, the lexicographically smallest
    point of its orbit.  |End| comes from batched Smith forms of the end
    systems of the representatives, |Aut| = |GL| / |orbit|, and End is
    local iff |End| - |Aut| = q^(e-d) with d >= 1 (see _top_degree).

    The end system of x is sum_k x_k B_k, and B_k is zero for a coordinate
    of a 1 x 1 loop, where xi x - x xi = 0; such coordinates cannot change
    End.  So the Smith forms run once per distinct tuple of the coordinates
    with nonzero B_k, and representatives that differ elsewhere share it.
    """
    r = _rank_vector(Q, r)
    ring = ORing(q, alpha)
    check_space_cap(Q, alpha, r, q, caps)
    reps, sizes = _orbit_labels(Q, ring, r)
    shapes = [(r[t], r[s]) for s, t in Q.arrows]
    n_coords = sum(rows * cols for rows, cols in shapes)
    coords = _digits(reps, q, n_coords * alpha).reshape(len(reps), n_coords, alpha)
    # one equation per coordinate, one unknown per entry of the xi_i
    n_unknowns = sum(ri * ri for ri in r)
    basis = _integer_basis(end_system_matrix, Q.arrows, Q.num_vertices, r).reshape(
        n_coords, n_coords, n_unknowns)
    used = basis.any(axis=(1, 2))
    inverse = slice(None)  # each representative its own exponent
    if not used.all():
        basis, coords = basis[used], coords[:, used]
        # the used coordinates as one base-q number per representative
        key = _undigits(coords.reshape(len(reps), -1), q)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        coords = coords[first]
    step = _chunk_size(n_coords * n_unknowns * alpha)
    ends = np.concatenate([
        _kernel_exponents(ring.field, _combine(ring.field, basis, coords[i:i + step]))
        for i in range(0, len(coords), step)])[inverse]
    # one OMatrix per distinct value of each arrow, shared by the records
    # that hold it, and one top degree per (orbit size, End exponent)
    radices = [q ** (alpha * rows * cols) for rows, cols in shapes]
    columns = []
    for a, (rows, cols) in enumerate(shapes):
        values, inverse = np.unique(reps // math.prod(radices[a + 1:]) % radices[a],
                                    return_inverse=True)
        mats = [OMatrix(ring, [list(map(tuple, row)) for row in value] if rows and cols else [],
                        shape=(rows, cols))
                for value in _digits(values, q, rows * cols * alpha).reshape(
                    len(values), rows, cols, alpha).tolist()]
        columns.append([mats[k] for k in inverse.ravel().tolist()])
    gl_size = group_order(alpha, r, q)
    kinds = {}
    records = []
    points = list(zip(*columns)) or [()] * len(reps)  # () for a quiver without arrows
    for x, orbit_size, e in zip(points, sizes.tolist(), ends.tolist()):
        if (orbit_size, e) not in kinds:
            aut_size = gl_size // orbit_size
            d = _top_degree(q ** e, aut_size, q)
            kinds[orbit_size, e] = aut_size, d is not None, d, d == 1
        records.append(OrbitRecord(x, orbit_size, e, *kinds[orbit_size, e]))
    return records


def count_absolutely_indecomposable(Q: Quiver, alpha: int, r, q: int,
                                    caps: Caps = DEFAULT_CAPS) -> int:
    """Number of absolutely indecomposable GL-orbits on R(Q, alpha; r)(F_q).

    In rank all-one (with at least one arrow) an orbit is absolutely
    indecomposable iff its support subquiver is connected, so only the
    orbit labels are needed.  No generator moves a 1 x 1 loop and a loop
    joins no two vertices, so the count is that of the loop-free quiver P
    (same vertices, the other arrows) times every value of the L loops,
    (q^alpha)^L: the labels and the support tables cover P alone.  Any
    other rank classifies every orbit through enumerate_orbits.

    The space cap bounds the x-space of Q, loops included, on both routes;
    the census's int32 guard (see _orbit_labels) bounds the points it
    labels, those of P in rank all-one.
    """
    r = _rank_vector(Q, r)
    if all(ri == 1 for ri in r) and Q.num_arrows > 0:
        ring = ORing(q, alpha)
        check_space_cap(Q, alpha, r, q, caps)
        P = Quiver(Q.vertices, [(s, t) for s, t in Q.arrows if s != t])
        reps, _ = _orbit_labels(P, ring, r, with_sizes=False)
        size, n_arrows = q ** alpha, P.num_arrows
        bit = {pair: c for c, (pair, _) in enumerate(_parallel_classes(P))}
        support = np.zeros(len(reps), dtype=np.int64)  # bit c: x_a != 0 on some a in class c
        for a, arrow in enumerate(P.arrows):
            support |= (reps // size ** (n_arrows - 1 - a) % size != 0) << bit[tuple(sorted(arrow))]
        connected = np.array(_subset_tables(P.num_vertices, tuple(bit))) == 1
        return size ** (Q.num_arrows - n_arrows) * int(connected[support].sum())
    return sum(1 for rec in enumerate_orbits(Q, alpha, r, q, caps)
               if rec.absolutely_indecomposable)


# -- orbits as components of the generator graph --------------------------------

def _generators(ring: ORing, r, scalar_free):
    """Generators of GL_{alpha,r} up to scalars, as (level, vertex, row
    operation of g, column operation of g^-1); (k, l, c) scales line k by c
    if k == l, else adds c times line l to line k.  With b in an F_p-basis
    of F_q, the transvections I + b t^j e_kl and, in the diagonal slots, a
    generator of F_q^* and the units 1 + b t^j (j >= 1) generate, by
    elimination over a local ring.  The level of a generator is its j, and 0
    for the generator of F_q^*.  Scalars constant on a component act
    trivially, so slot 0 of the vertices in scalar_free gets no units."""
    field = ring.field
    basis = [1] if field.k == 1 else [1, field.p]
    shifts = [(j, ring.scalar_mul(b, ring.t_power(j))) for j in range(ring.alpha) for b in basis]
    units = [(j, ring.add(ring.one, c)) for j, c in shifts if j]
    if field.q > 2:
        units.append((0, ring.from_coeffs([next(a for a in range(2, field.q)
                                                if field.element_order(a) == field.q - 1)])))
    for i, ri in enumerate(r):
        for k in range(1 if i in scalar_free else 0, ri):
            for j, u in units:
                yield j, i, (k, k, u), (k, k, ring.inv(u))
        for k, l in permutations(range(ri), 2):
            for j, c in shifts:
                yield j, i, (k, l, c), (l, k, ring.neg(c))


def _find(labels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The roots of points in the forest labels (labels[x] <= x, and a root
    labels itself), climbing one parent per pass over the points only; the
    points are then hung on them.  The trees stay shallow: on the census
    menus of the benchmark no call took more than five passes, on the
    Jordan censuses of up to 2^21 points eleven."""
    roots = points
    while True:
        up = labels[roots]
        if (up == roots).all():
            labels[points] = roots
            return roots
        roots = up


def _hook(labels: np.ndarray, ends: np.ndarray, others: np.ndarray) -> None:
    """Join, in the forest labels, the tree of each ends[i] with that of
    others[i]: each round hooks the larger root of every crossing edge onto
    the smaller, so that every root stays the least point of its tree.  An
    edge whose hook another write to the same root overrode goes round
    again."""
    while True:
        roots = _find(labels, np.concatenate([ends, others]))
        ends, others = roots[:len(ends)], roots[len(ends):]
        cross = ends != others
        ends, others = ends[cross], others[cross]
        high, low = np.maximum(ends, others), np.minimum(ends, others)
        labels[high] = low
        lost = labels[high] != low
        if not lost.any():
            return
        ends, others = high[lost], low[lost]


def _orbit_labels(Q: Quiver, ring: ORing, r, with_sizes: bool = True):
    """(representatives, orbit sizes) of the GL-orbits on R(Q, alpha; r),
    each representative the least point index of its orbit, in increasing
    order.

    The base-q digits of a point index, most significant first, are its
    coordinates (arrow by arrow, entries row-major, t^0 first), so index
    order is lexicographic order.  In mixed radix an index has one digit per
    arrow a, the value of x_a, of radix R_a = (q^alpha)^(r_t r_s) and place
    P_a.  A generator g maps each x_a by a table T_a over its R_a values.

    No generator moves a 1 x 1 loop (g x g^-1 = x) or an arrow with R_a = 1,
    so the census labels only the points of the moved arrows, indexed in
    their own mixed radix; each orbit of the whole space is a moved orbit
    times one value of every unmoved arrow, and its size is the moved one.

    labels maps each point to a lesser or equal point of its orbit:
    - The generators come by falling level (see _generators), and within
      level 0 the rank-one vertices first.  K_j = I + t^j M_r(O) is normal,
      and for j >= 1 the commutators [K_j, K_j] lie in K_2j, within
      K_(j+1); scalars constant on a component act trivially, and a level-0
      generator at a rank-one vertex is central.  So each generator before
      the first level-0 one at a vertex of rank >= 2 (the cut) normalizes
      the group H generated before it, and the orbit of x under <H, g> is
      the union of the H-orbits of the g^k x.
    - While labels is the least point L(x) of each H-orbit, min_k L(g^k x)
      is then the least point of the <H, g>-orbit: a streaming minimum
      (stream).  L read at g^k x is a gather along the axis of each arrow
      that g moves, by the table of T_a^k, and doubling takes the minimum
      over all k in ceil(log2 m) such steps, m the order of g.  The first
      generator is always streamed, from L = identity: its orbits are its
      cycles.
    - Streaming costs passes over all points; hooking (_hook) the edges
      x -> g x from orbit roots only costs passes over those roots and the
      tables of g.  So a generator is streamed only while its tables hold
      no more values than there are live roots (sum_a R_a <= #roots); from
      the first that fails this size test, or the first past the cut, every
      generator is hooked.  In rank all-one every generator comes before
      the cut; the Jordan quiver in rank >= 2 hooks all but its first.
    - A hooked generator before the cut takes its edges from the current
      roots; past the cut, from the roots of that moment: the orbits of
      K_1 times the central part, a normal subgroup.
    The size of an orbit is the number of points labelled with its root
    when streaming stops, summed along the hooks: no pass over all points
    follows them.  Without with_sizes the sizes are None, and neither
    n-sized count is made.

    The gathers run in place.  Each take writes into one of two int32
    point buffers, made once and reused, so that no take allocates (and
    first touches) a fresh point array.  Arrows that g moves and that sit
    next to each other in the mixed radix, such as the arrows of a parallel
    class, share one take by a product table (see axes) while it holds at
    most _CHUNK_ENTRIES values.  A take into a buffer wraps its indices, so
    _take_axis checks every table's range first.  The buffers are freed
    when streaming stops, before any count over all points; a hooked
    generator that gathers the whole permutation (image) takes buffers of
    its own and drops them at once.
    """
    q, alpha = ring.q, ring.alpha
    size = q ** alpha
    shapes = [(r[t], r[s]) for s, t in Q.arrows]
    radices = [size ** (rows * cols) for rows, cols in shapes]
    n_all = math.prod(radices)
    if n_all > np.iinfo(np.int32).max:  # every value below is under n_all: int32 is exact
        raise CapExceeded(f"census capped at 2^31 - 1 points (int32); this space has {n_all}")
    add, mul = ring.field.arrays[:2]
    coeff_places = q ** np.arange(alpha - 1, -1, -1, dtype=np.int32)
    digits = _digits(np.arange(size), q, alpha).astype(np.int16)
    plus = None
    if any(rows * cols > 1 for rows, cols in shapes):
        # the sums of all pairs of values, one coefficient at a time
        plus = np.zeros(size * size, dtype=np.int32)
        for j in range(alpha):
            plus += add[(digits[:, j, None] * q + digits[:, j]).ravel()] * coeff_places[j]
    entry_places = [size ** np.arange(rows * cols - 1, -1, -1, dtype=np.int32).reshape(rows, cols)
                    for rows, cols in shapes]
    products = {}

    def times(c):
        """Multiplication by c, as a table over the values of an entry."""
        if c not in products:
            products[c] = _mul_batch(q, add, mul, digits, np.array(c, dtype=np.int16)) @ coeff_places
        return products[c]

    def line_op(line, k, l, c):
        """Line k of x_a before and after the operation, for every value."""
        old = line(k)
        image = times(c)[old if k == l else line(l)]
        return old, image if k == l else plus[old * size + image]

    def move(a, gen, value):
        """(T_a - id)[value] for an array of values of x_a.  Only the lines
        of x_a that the operations of gen read or change are built, from the
        values read as base-q^alpha numbers."""
        vertex, row_op, col_op = gen
        s, t = Q.arrows[a]
        weights = entry_places[a]
        delta = 0
        if t == vertex:
            old, row = line_op(lambda m: value // weights[m, :, None] % size, *row_op)
            delta = weights[row_op[0]] @ (row - old)

        def column(m):
            col = value // weights[:, m, None] % size
            if t == vertex:  # a loop: the columns as the row operation left them
                col[row_op[0]] = row[m]
            return col

        if s == vertex:
            old, col = line_op(column, *col_op)
            delta = delta + weights[:, col_op[0]] @ (col - old)
        return delta

    def table(a, gen):
        """T_a over all values of x_a, built in chunks so that the lines of
        one chunk stay small."""
        chunks = []
        for start in range(0, radices[a], _CHUNK_ENTRIES):
            value = np.arange(start, min(start + _CHUNK_ENTRIES, radices[a]), dtype=np.int32)
            chunks.append(value + move(a, gen, value))
        return np.concatenate(chunks)

    roots, _ = _union_find(len(r), [(s, t) for s, t in Q.arrows if r[s] and r[t]])
    scalar_free = {v for v, root in enumerate(roots) if v == root}
    # g x g^-1 = x on a 1 x 1 loop; R_a = 1 leaves nothing to move
    moving = [[a for a, (s, t) in enumerate(Q.arrows)
               if v in (s, t) and not (s == t and r[v] == 1) and radices[a] > 1]
              for v in range(len(r))]
    gens = sorted((g for g in _generators(ring, r, scalar_free) if moving[g[1]]),
                  key=lambda g: (-g[0], r[g[1]] > 1))
    cut = next((i for i, g in enumerate(gens) if g[0] == 0 and r[g[1]] > 1), len(gens))
    moved = sorted({a for _, v, *_ in gens for a in moving[v]})
    places = [0] * len(radices)  # within the points of the moved arrows
    n_points = 1
    for a in reversed(moved):
        places[a] = n_points
        n_points *= radices[a]
    index = np.arange(n_points, dtype=np.int32)
    position = {a: i for i, a in enumerate(moved)}

    def axes(arrows, maps):
        """(place, table) of each gather axis of g, from the tables T_a of
        the arrows it moves.  Arrows next to each other in the mixed radix
        share one axis while its table holds at most _CHUNK_ENTRIES values:
        the digit pair (x_a, x_b) maps by T_a[x_a] R_b + T_b[x_b]."""
        out = []
        for i, (a, m) in enumerate(zip(arrows, maps)):
            if i and position[a] == position[arrows[i - 1]] + 1 \
                    and len(out[-1][1]) * len(m) <= _CHUNK_ENTRIES:
                out[-1] = places[a], (out[-1][1][:, None] * len(m) + m).ravel()
            else:
                out.append((places[a], m))
        return out

    buffers = []  # the buffers of the streamed gathers, made on first use

    def gather(values, tables, into):
        """values read at g x for every point x: one take per (place, table)
        of an axis, into at most two int32 point buffers in turn, made as
        needed.  Returns the buffer written last."""
        while len(into) < min(len(tables), 2):
            into.append(np.empty(n_points, dtype=np.int32))
        for k, (place, m) in enumerate(tables):
            values = _take_axis(values, m, place, into[k % 2])
        return values

    def image(gen, arrows, points):
        """gen applied to points.  Few points go through their values of
        x_a (a division, a remainder and a gather per point), each moved by
        the table of T_a or, when the points are fewer than its values,
        directly; from an eighth of all points on, gathering the whole
        permutation costs less."""
        if 8 * len(points) >= n_points:
            return gather(index, axes(arrows, [table(a, gen) for a in arrows]), [])[points]
        out = points.copy()
        for a in arrows:
            value = points // places[a] % radices[a]
            out += (table(a, gen)[value] - value if radices[a] <= len(points)
                    else move(a, gen, value)) * places[a]
        return out

    def stream(gen, arrows):
        """labels <- min over k of labels at g^k x, in place, by doubling:
        after step i labels holds the minimum over k < 2^i.  Returns the
        order of g."""
        maps = [table(a, gen) for a in arrows]
        order, power = 1, maps
        while True:
            power = [m[p] for m, p in zip(maps, power)]
            if all(map(np.array_equal, power, maps)):  # g^(order + 1) = g
                break
            order += 1
        merged = axes(arrows, maps)  # T^2 on a shared axis is the pair (T_a^2, T_b^2)
        for step in range((order - 1).bit_length()):
            if step:
                merged = [(place, m[m]) for place, m in merged]
            np.minimum(labels, gather(labels, merged, buffers), out=labels)
        return order

    labels = index.copy()
    sizes = None  # unless with_sizes
    ends = None  # the points hooked from, once hooking starts
    live = n_points  # while streaming, a lower bound on the live roots, counted when short
    for i, (_, *gen) in enumerate(gens):
        arrows = moving[gen[0]]
        if ends is None:
            need = sum(radices[a] for a in arrows)
            if 0 < i < cut and need > live:
                live = int(np.count_nonzero(labels == index))
            if i == 0 or i < cut and need <= live:
                # streaming g joins at most its order of orbits into one
                live = -(-live // stream(gen, arrows))
                continue
            buffers.clear()  # streaming is over: free them before the count
            roots = index[labels == index]
            if with_sizes:
                sizes = np.bincount(labels)[roots].astype(np.int32)
            # past the cut, edges come from the roots of that moment
            ends = roots if cut else index
        _hook(labels, ends, image(gen, arrows, ends))
        if i < cut:
            ends = ends[labels[ends] == ends]
    buffers.clear()
    if ends is None:
        reps = index[labels == index]
        if with_sizes:
            sizes = np.bincount(labels)[reps]
    else:
        final = _find(labels, roots)
        reps = roots[final == roots]
        if with_sizes:
            labels[reps] = np.arange(len(reps))  # the forest is done with: number the orbits
            sizes = np.bincount(labels[final], sizes, len(reps)).astype(np.int64)
    unmoved = [a for a in range(len(radices)) if not places[a] and radices[a] > 1]
    if not unmoved:  # moved and full indices agree
        return reps, sizes
    # each moved orbit times every value of the unmoved arrows, re-sorted
    full_places = [math.prod(radices[a + 1:]) for a in range(len(radices))]
    moved_part = np.zeros(len(reps), dtype=np.int32)
    for a in moved:
        moved_part += reps // places[a] % radices[a] * full_places[a]
    offsets = np.zeros(1, dtype=np.int32)
    for a in unmoved:
        offsets = np.add.outer(offsets, np.arange(radices[a], dtype=np.int32) * full_places[a]).ravel()
    reps = np.add.outer(moved_part, offsets).ravel()
    order = np.argsort(reps, kind="stable")
    return reps[order], sizes if sizes is None else np.repeat(sizes, len(offsets))[order]


# -- batched point walks -------------------------------------------------------

# coefficient entries (matrices x rows x cols x alpha) per batched Smith
# call: bounds each array of a chunk to 2^15 entries, at most 256 KiB; also
# the values of x_a per chunk of a census table T_a
_CHUNK_ENTRIES = 1 << 15


def _take_axis(values: np.ndarray, table: np.ndarray, place: int, out: np.ndarray) -> np.ndarray:
    """out[i, j, k] = values[i, table[j], k] over the points split as
    (-1, len(table), place), written into out.  With out given, numpy's
    default mode "raise" takes through a hidden copy, so the take wraps
    instead and the table's range is checked here: O(len(table)), not
    O(points)."""
    radix = len(table)
    if table.min() < 0 or table.max() >= radix:
        raise IndexError(f"census table entries must lie in [0, {radix})")
    np.take(values.reshape(-1, radix, place), table, axis=1,
            out=out.reshape(-1, radix, place), mode="wrap")
    return out


def _chunk_size(entries_per_item: int) -> int:
    return max(1, _CHUNK_ENTRIES // max(1, entries_per_item))


def _digits(points: np.ndarray, q: int, width: int) -> np.ndarray:
    """The width base-q digits, most significant first, of each point index:
    its field coordinates, as in _orbit_labels, so that the index order is
    the lexicographic order of points.  Shape (len(points), width)."""
    return points[:, None] // q ** np.arange(width - 1, -1, -1, dtype=np.int64) % q


def _undigits(digits: np.ndarray, q: int) -> np.ndarray:
    """The point indices of rows of base-q digits, inverting _digits."""
    return digits @ q ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)


def _combine(field, basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[:, k] basis[k] over O_alpha, for each batch item.

    basis holds K integer matrices (K, rows, cols) and coeffs the O_alpha
    coefficients (batch, K, alpha); the result has shape (batch, rows,
    cols, alpha).  Integers act through F_p, so the combination is taken
    separately on each base-p digit of the field codes.
    """
    p = field.p
    basis = (basis % p).astype(np.int16)
    out = 0
    for j in range(field.k):
        digit = (coeffs // p ** j % p).astype(np.int16)
        out = out + p ** j * (np.tensordot(digit, basis, axes=(1, 0)) % p)
    return np.moveaxis(out, 1, -1)


def _kernel_exponents(field, mats: np.ndarray) -> np.ndarray:
    """e with |Ker M| = q^e for each matrix of a (batch, n, m, alpha) stack."""
    _, n, m, alpha = mats.shape
    gammas = smith_invariants_batch(field, mats)
    return alpha * (m - min(n, m)) + gammas.sum(axis=1)


def _walk(field, basis: np.ndarray, alpha: int, target=None) -> int:
    """Sum of q^ke(A(c)) over all coefficient tuples c in O_alpha^K, where
    A(c) = sum_k c_k B_k for the K integer matrices of basis (K, rows, cols).

    With a target column b (rows, 1, alpha) only the c with b in the image
    of A(c) count: that holds iff ke([A | b]) = ke(A) + alpha, since the
    scalars s with s b in im A form an ideal of O_alpha and |Ker [A | b]|
    is its size times |Ker A|.
    """
    q = field.q
    n_coords, rows, cols = basis.shape
    size = _chunk_size(rows * (cols + 1) * alpha)  # cols + 1: room for the target column
    width, total = n_coords * alpha, 0
    for start in range(0, q ** width, size):
        points = np.arange(start, min(start + size, q ** width), dtype=np.int64)
        mats = _combine(field, basis, _digits(points, q, width).reshape(-1, n_coords, alpha))
        ke = _kernel_exponents(field, mats)
        if target is not None:
            column = np.broadcast_to(target, (len(mats), rows, 1, alpha))
            augmented = _kernel_exponents(field, np.concatenate([mats, column], axis=2))
            ke = ke[augmented == ke + alpha]
        # numpy counts each exponent; the powers are summed as Python integers
        total += sum(c * q ** e for e, c in enumerate(np.bincount(ke).tolist()) if c)
    return total


# -- sums over adjoint orbits: Burnside counts --------------------------------

def _conjugation_exponents(field, g_t, g_s, loop: bool) -> np.ndarray:
    """Kernel exponents of x -> g_t x - x g_s for every pair of elements of
    the stacks g_t and g_s (shape (G, r, r, alpha)): an array of shape
    (G_t, G_s), or (G,) over the diagonal pairs of a loop.  The map is the
    end system of one arrow, with the entries of g_s and then of g_t as its
    coordinates; for invertible g its kernel is the fixed points of
    x -> g_t x g_s^{-1}."""
    n_t, rows, _, alpha = g_t.shape
    n_s, cols = g_s.shape[:2]
    basis = _integer_basis(end_system_matrix, ((0, 1),), 2, (cols, rows)).reshape(
        rows * cols, rows * cols, rows * rows + cols * cols).transpose(2, 1, 0)
    flat_t = g_t.reshape(n_t, rows * rows, alpha)
    flat_s = g_s.reshape(n_s, cols * cols, alpha)
    n_pairs = n_t if loop else n_t * n_s
    out = np.empty(n_pairs, dtype=np.int64)
    step = _chunk_size(rows * cols * rows * cols * alpha)
    for start in range(0, n_pairs, step):
        idx = np.arange(start, min(start + step, n_pairs))
        i, j = (idx, idx) if loop else np.divmod(idx, n_s)
        coeffs = np.concatenate([flat_s[j], flat_t[i]], axis=1)
        out[start:start + len(idx)] = _kernel_exponents(field, _combine(field, basis, coeffs))
    return out if loop else out.reshape(n_t, n_s)


@functools.cache
def _adjoint_orbits(ring: ORing, r: int):
    """The orbits of GL_r(O_alpha) on M_r(O_alpha) by conjugation: a
    (C, r, r, alpha) int16 stack of representatives, their sizes and which
    of them are invertible, read-only.  They are the orbits of the
    Jordan-quiver census in rank r, and the invertible ones are the
    conjugacy classes of GL_r(O_alpha); the cache runs one census per
    (q, alpha, r), as ORing(q, alpha) is one instance."""
    alpha = ring.alpha
    reps, sizes = _orbit_labels(jordan_quiver(), ring, (r,))
    stack = _digits(reps, ring.q, r * r * alpha).reshape(len(reps), r, r, alpha).astype(np.int16)
    invertible = _kernel_exponents(ring.field, stack) == 0
    for array in (stack, sizes, invertible):
        array.flags.writeable = False
    return stack, sizes, invertible


@functools.cache
def _exponent_table(ring: ORing, r_t: int, r_s: int, loop: bool, invertible: bool) -> np.ndarray:
    """_conjugation_exponents over the adjoint orbits in ranks r_t and r_s,
    or over the invertible ones only, read-only; the cache computes each
    table once per (q, alpha, r_t, r_s, loop, invertible)."""
    stacks = [stack[inv] if invertible else stack
              for stack, _, inv in (_adjoint_orbits(ring, r_t), _adjoint_orbits(ring, r_s))]
    table = _conjugation_exponents(ring.field, *stacks, loop)
    table.flags.writeable = False
    return table


def _tuple_sums(Q: Quiver, ring: ORing, r, invertible: bool, caps: Caps, masks=(True,)) -> list:
    """Sums over tuples (c_i) of adjoint-orbit representatives in rank r_i,
    one per vertex (only the invertible ones, the conjugacy classes, when
    invertible is true), of prod_i |c_i| q^(sum_a ke_a), ke_a the kernel
    exponent of x -> c_t x - x c_s on the arrow a.  One exact sum per
    boolean mask over the tuple grid (one axis per vertex), which keeps the
    tuples it is true on.  The space cap bounds the grid."""
    sizes = [size[inv] if invertible else size
             for _, size, inv in (_adjoint_orbits(ring, ri) for ri in r)]
    shape = [len(size) for size in sizes]
    log2_grid = math.log2(math.prod(shape))
    if log2_grid > caps.max_space_log2:
        raise CapExceeded(f"class-tuple grid has 2^{log2_grid:.1f} tuples ({math.prod(shape)}), "
                          f"cap 2^{caps.max_space_log2}")
    # the exponent of every tuple, one axis per vertex; parallel arrows
    # share their exponents
    n = Q.num_vertices
    fix_exp = np.zeros(shape, dtype=np.int64)
    for s, t in Q.arrows:
        e = _exponent_table(ring, r[t], r[s], s == t, invertible)
        fix_exp += np.expand_dims(e.T if t > s else e,
                                  tuple(i for i in range(n) if i not in (s, t)))
    # weights and their sums are at most prod_i sum |c_i|: Python integers beyond int64
    dtype = np.int64 if math.prod(int(size.sum()) for size in sizes) < 2 ** 63 else object
    weights = np.ones((), dtype=dtype)
    for size in sizes:
        weights = np.multiply.outer(weights, size.astype(dtype))
    exps = np.flatnonzero(np.bincount(fix_exp.ravel()))
    return [sum(int(weights[(fix_exp == e) & mask].sum()) * ring.q ** int(e) for e in exps)
            for mask in masks]


def count_iso_classes(Q: Quiver, alpha: int, r, q: int,
                      caps: Caps = DEFAULT_CAPS) -> int:
    """M_{(Q,alpha),r}(q): all isomorphism classes, by Burnside's lemma over
    conjugacy classes.  g = (g_i) fixes q^(sum_a ke_a) points, ke_a the
    kernel exponent of x -> g_t x - x g_s, and that depends only on the
    classes c_i of the g_i, so
        M = sum over class tuples of prod_i |c_i| q^(sum_a ke_a) / |GL_{alpha,r}|,
    summed exactly.  No x-space is walked: the space cap bounds the Jordan
    census at each vertex (q^(alpha r_i^2) points) and the class-tuple grid."""
    r = _rank_vector(Q, r)
    ring = ORing(q, alpha)
    for ri in r:
        check_space_cap(jordan_quiver(), alpha, (ri,), q, caps)
    total, = _tuple_sums(Q, ring, r, True, caps)
    count, rem = divmod(total, group_order(alpha, r, q))
    if rem:
        raise AssertionError("orbit-count average is not an integer")
    return count


# -- moment-map fibers ----------------------------------------------------------

def moment_matrix(Q: Quiver, ring: ORing, r, x) -> OMatrix:
    """Matrix of y -> mu(x, y), from the y-coordinate space to gl_r.

    mu_i(x, y) = sum over arrows into i of x_a y_a minus sum over arrows
    out of i of y_a x_a.
    """
    n = Q.num_vertices
    gl_offsets = []
    total_gl = 0
    for i in range(n):
        gl_offsets.append(total_gl)
        total_gl += r[i] * r[i]
    y_offsets = []
    total_y = 0
    for s, t in Q.arrows:
        y_offsets.append(total_y)
        total_y += r[s] * r[t]  # y_a has shape r_s x r_t
    rows = [[ring.zero] * total_y for _ in range(total_gl)]
    for a, (s, t) in enumerate(Q.arrows):
        xa = x[a]
        # contribution x_a y_a to mu_t (y_a: r_s x r_t)
        for u in range(r[t]):
            for v in range(r[t]):
                ridx = gl_offsets[t] + u * r[t] + v
                for w in range(r[s]):
                    cidx = y_offsets[a] + w * r[t] + v
                    rows[ridx][cidx] = ring.add(rows[ridx][cidx], xa.entries[u][w])
        # contribution -(y_a x_a) to mu_s
        for u in range(r[s]):
            for v in range(r[s]):
                ridx = gl_offsets[s] + u * r[s] + v
                for w in range(r[t]):
                    cidx = y_offsets[a] + u * r[t] + w
                    rows[ridx][cidx] = ring.sub(rows[ridx][cidx], xa.entries[w][v])
    return OMatrix(ring, rows, shape=(total_gl, total_y))


def moment_fiber_count(Q: Quiver, alpha: int, r, q: int, lam=None,
                       caps: Caps = DEFAULT_CAPS) -> int:
    """#{(x, y) : mu(x, y) = t^(alpha-1) lambda} over O_alpha.

    lambda = None or all zero counts the zero fiber; a nonzero lambda must
    pair to zero with r, to nonzero with every intermediate rank vector,
    and needs characteristic larger than sum |lambda_i| r_i.  The space cap
    bounds the x-space, whichever route counts:
    - rank all-one zero fibers sum over the valuation patterns of the
      underlying simple graph: loops and the extra arrows of each parallel
      class contribute closed-form powers of q;
    - every other fiber sums over the adjoint orbits of gl_r(O_alpha) (see
      _orbit_fiber) when the Jordan censuses cost less than the x-space,
      sum_i q^(alpha r_i^2) < q^(alpha dim R), and their orbit-tuple grid
      is smaller than the x-space too;
    - otherwise it walks all points x, each contributing |Ker A(x)| for the
      moment matrix A(x) of moment_theta_basis (see _walk).
    """
    n = Q.num_vertices
    r = _rank_vector(Q, r)
    lam = tuple(int(v) for v in (lam if lam is not None else (0,) * n))
    if len(lam) != n:
        raise DimensionMismatch(f"lambda needs {n} entries, got {len(lam)}")
    ring = ORing(q, alpha)
    check_space_cap(Q, alpha, r, q, caps)
    if any(lam):
        _check_generic(r, q, lam)
    dim = rep_space_dim(Q, r)
    if dim == 0:
        # mu is the zero map; the fiber is a point iff the target vanishes
        # inside gl_r (vertices of rank zero impose nothing)
        p = ring.field.p
        target_zero = all(lam[i] % p == 0 for i in range(n) if r[i] > 0)
        return 1 if target_zero else 0

    if not any(lam) and all(ri == 1 for ri in r):
        # the y-column of arrow a is +-x_a (e_t - e_s), and zero on a loop:
        # |Ker| depends only on valuations, and k arrows joining s and t, in
        # either direction, reduce by column operations to one column at
        # their least valuation m plus k - 1 zero columns.  So sum over the
        # valuation patterns of the simple graph, an edge standing for the
        # N_k(m) k-tuples of least valuation m; each loop adds q^(2 alpha).
        classes = {pair: k for pair, k in _parallel_classes(Q) if pair[0] != pair[1]}
        simple = Quiver(Q.vertices, list(classes))
        loops = Q.num_arrows - sum(classes.values())
        # N_k(m) = #{all valuations >= m} - #{all >= m + 1}
        least = {k: [q ** (k * (alpha - m)) - q ** (k * (alpha - m - 1)) if m < alpha else 1
                     for m in range(alpha + 1)] for k in set(classes.values())}
        powers = [OMatrix(ring, [[ring.t_power(m)]]) for m in range(alpha + 1)]
        total = 0
        for pattern in product(range(alpha + 1), repeat=simple.num_arrows):
            x = tuple(powers[m] for m in pattern)
            ke = kernel_size_exponent(moment_matrix(simple, ring, r, x))
            mult = 1
            for edge, m in zip(simple.arrows, pattern):
                mult *= least[classes[edge]][m]
            total += mult * q ** ke
        return q ** (alpha * (sum(classes.values()) - len(classes) + 2 * loops)) * total
    space = q ** (alpha * dim)
    if (sum(q ** (alpha * ri * ri) for ri in r) < space
            and math.prod(len(_adjoint_orbits(ring, ri)[1]) for ri in r) < space):
        return _orbit_fiber(Q, ring, r, lam, caps)
    basis = _integer_basis(moment_matrix, Q.arrows, n, r)
    target = None
    if any(lam):
        target = np.zeros((basis.shape[1], 1, alpha), dtype=np.int16)
        offset = 0
        for i, ri in enumerate(r):
            for u in range(ri):
                target[offset + u * ri + u, 0, alpha - 1] = ring.field.from_int(lam[i])
            offset += ri * ri
    return _walk(ring.field, basis, alpha, target)


def _orbit_fiber(Q: Quiver, ring: ORing, r, lam, caps: Caps) -> int:
    """#mu^-1(t^(alpha-1) lambda) by Fourier inversion on gl_r(O_alpha).

    psi(c) = chi(coefficient of t^(alpha-1) in c), chi a nontrivial additive
    character of F_q, generates the characters of the Frobenius ring O_alpha.
    Summing psi(<xi, mu(x, y)>) over y leaves |R| for each x with
    xi_t x_a = x_a xi_s on every arrow, so
        #mu^-1(c) = |R| / |gl_r| sum_xi psi(-<xi, c>) q^(sum_a ke_a(xi)),
    ke_a the kernel exponent of x -> xi_t x - x xi_s, which depends only on
    the adjoint orbits of the xi_i: the sum runs over orbit tuples weighted
    by their sizes (_tuple_sums).  For lambda = 0 every character is 1 and
    the sum is the total weight W.  Otherwise psi(-<xi, c>) = chi(-s(xi)),
    s(xi) = sum_i lambda_i tr(xi_i)_0 in F_q, a class function; scaling xi
    by u in F_q^* scales s by u and keeps every kernel, so each nonzero
    value of s carries (W - W_0) / (q - 1) of the weight, W_0 that of
    s = 0, and the sum is (q W_0 - W) / (q - 1)."""
    field, q, alpha = ring.field, ring.q, ring.alpha
    if any(lam):
        add, mul = field.arrays[:2]
        s = np.zeros((), dtype=np.int16)  # s(xi) over the grid, one axis per vertex
        for i, ri in enumerate(r):
            stack = _adjoint_orbits(ring, ri)[0]
            trace = np.zeros(len(stack), dtype=np.int16)
            for k in range(ri):
                trace = add[trace * q + stack[:, k, k, 0]]
            s = add[np.add.outer(s * q, mul[field.from_int(lam[i]) * q + trace])]
        total, total_0 = _tuple_sums(Q, ring, r, False, caps, (True, s == 0))
        total, den = q * total_0 - total, q - 1
    else:
        (total,), den = _tuple_sums(Q, ring, r, False, caps), 1
    shift = alpha * (rep_space_dim(Q, r) - sum(ri * ri for ri in r))  # |R| / |gl_r| = q^shift
    count, rem = divmod(total * q ** max(shift, 0), den * q ** max(-shift, 0))
    if rem:
        raise AssertionError("Fourier sum over adjoint orbits is not an integer")
    return count


def _check_generic(r, q: int, lam) -> None:
    if sum(l * x for l, x in zip(lam, r)) != 0:
        raise NonGenericLambda("lambda does not pair to zero with the rank vector")
    for sub in product(*(range(x + 1) for x in r)):
        if all(v == 0 for v in sub) or tuple(sub) == tuple(r):
            continue
        if sum(l * x for l, x in zip(lam, sub)) == 0:
            raise NonGenericLambda(f"lambda pairs to zero with {sub} < r")
    p = Fq(q).p
    if p <= sum(abs(l) * x for l, x in zip(lam, r)):
        raise CharacteristicTooSmall(
            f"need characteristic > {sum(abs(l) * x for l, x in zip(lam, r))}, got {p}")


def jet_counts(Q: Quiver, d, q: int, n_max: int,
               caps: Caps = DEFAULT_CAPS) -> list:
    """N_n = #mu^{-1}(0)(F_q[t]/(t^n)) for n = 1..n_max, each one
    moment_fiber_count(Q, n, d, q)."""
    if n_max < 1:
        raise UnsupportedParameter(f"n_max must be >= 1, got {n_max}")
    return [moment_fiber_count(Q, n, d, q, None, caps) for n in range(1, n_max + 1)]


# -- average size of kernels -----------------------------------------------------

def ask_counts(theta_basis, q: int, n_max: int,
               caps: Caps = DEFAULT_CAPS) -> list:
    """ask_n of the linear matrix family a -> sum a_k B_k for n = 1..n_max.

    theta_basis is a list of K integer matrices (same shape); ask_n averages
    |Ker| over all coefficient tuples with entries in O_n: the _walk sum
    over O_n divided by q^(nK).
    """
    if n_max < 1:
        raise UnsupportedParameter(f"n_max must be >= 1, got {n_max}")
    if not (isinstance(theta_basis, (list, tuple)) and theta_basis
            and all(isinstance(b, (list, tuple)) and all(isinstance(row, (list, tuple)) for row in b)
                    for b in theta_basis)):
        raise InvalidType("a matrix family is a non-empty list of matrices, each a list of rows")
    rows = len(theta_basis[0])
    cols = len(theta_basis[0][0]) if rows else 0
    if any(len(b) != rows or any(len(row) != cols for row in b) for b in theta_basis):
        raise DimensionMismatch(
            f"basis matrices must all be {rows} x {cols}, with rows of one length")
    if not all(isinstance(e, (int, np.integer)) for b in theta_basis for row in b for e in row):
        raise InvalidType("matrix entries must be integers")
    r_a = len(theta_basis)
    basis = np.array(theta_basis, dtype=np.int64).reshape(r_a, rows, cols)
    field = Fq(q)
    out = []
    for n in range(1, n_max + 1):
        log2_size = r_a * n * math.log2(q)
        if log2_size > caps.max_space_log2:
            raise CapExceeded(f"coefficient space at level {n} has 2^{log2_size:.1f} points, "
                              f"cap 2^{caps.max_space_log2}")
        out.append(Fraction(_walk(field, basis, n), q ** (n * r_a)))
    return out


def moment_theta_basis(Q: Quiver, d):
    """Integer basis matrices of x -> mu(x, .), one per coordinate of the
    x-space."""
    return _integer_basis(moment_matrix, Q.arrows, Q.num_vertices,
                          tuple(int(x) for x in d)).tolist()


@functools.cache
def _integer_basis(build, arrows, n_vertices: int, d) -> np.ndarray:
    """Integer matrices B_k with build(Q, ring, d, x) = sum_k x_k B_k, one
    per coordinate x_k of the x-space (arrow by arrow, entries row-major),
    as a read-only int64 array (K, rows, cols), cached by the arrows, the
    vertex count and the rank vector d.

    build must be linear in x with entries in {0, 1, -1} times coordinates;
    they are read off over F_5, where 1 and -1 stay distinguishable.
    """
    Q = Quiver(range(n_vertices), arrows)
    ring = ORing(5, 1)
    basis = []
    shapes = [(d[t], d[s]) for s, t in arrows]
    decode = {ring.zero: 0, ring.one: 1, ring.neg(ring.one): -1}
    for a, (rows, cols) in enumerate(shapes):
        for u in range(rows):
            for v in range(cols):
                x = []
                for b, (rb, cb) in enumerate(shapes):
                    ent = [[ring.one if (b == a and uu == u and vv == v) else ring.zero
                            for vv in range(cb)] for uu in range(rb)]
                    x.append(OMatrix(ring, ent, shape=(rb, cb)))
                m = build(Q, ring, d, tuple(x))
                basis.append([[decode[e] for e in row] for row in m.entries])
    basis = np.array(basis, dtype=np.int64)
    basis.flags.writeable = False
    return basis
