"""Per-point scalar loops that the batched point walks, the orbit census
and the pivot-basis summand enumeration replaced.

Each function walks its points one at a time through the scalar Smith
form, the orbit walk applies every group element to each point, and the
summand walk filters every column tuple by its Smith invariants, as the
package did before the batched kernel, the generator-graph census and the
Schubert-cell enumeration; the tests require the package to give equal
results.  orbit_labels is the generator-graph census as it was before it
hooked later generators on the orbit roots only: every generator joins
the labels of all points.  iso_classes takes the Burnside average over
every element of the group (gl_enumerate), where the package sums over
conjugacy classes.  divide_exact is the division of O_alpha elements that
the scalar Smith elimination used before it cleared entries by shifting
coefficients; solve_linear still uses it.
"""

import functools
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from quivercount.bruteforce import end_system_matrix, group_order, moment_matrix
from quivercount.hall import (all_orbit_labels, orbit_label_of,
                              orbit_representative)
from quivercount.localring import (OMatrix, ORing, _mul_batch, kernel_size_exponent,
                                   smith_invariants, smith_normal_form)
from quivercount.quiver import _union_find


def gl_enumerate(q, alpha, r):
    """All invertible r x r matrices over O_alpha, as OMatrix values:
    (unit modulo t) x (free higher coefficients)."""
    ring = ORing(q, alpha)
    if r == 0:
        yield OMatrix(ring, [])
        return
    field = ring.field
    base = []
    for flat in product(field.elements(), repeat=r * r):
        rows = [flat[i * r:(i + 1) * r] for i in range(r)]
        m0 = OMatrix(ring, [[(x,) + (0,) * (alpha - 1) for x in row] for row in rows])
        if m0.is_invertible():
            base.append(rows)
    higher_range = list(product(field.elements(), repeat=alpha - 1))
    for rows in base:
        for flat_high in product(higher_range, repeat=r * r):
            high = iter(flat_high)
            yield OMatrix(ring, [[(x,) + tuple(next(high)) for x in row] for row in rows])


def matrix_pool(ring, rows, cols):
    """All rows x cols matrices over the ring, in deterministic order."""
    if rows == 0 or cols == 0:
        return [OMatrix(ring, [], shape=(rows, cols))]
    cells = list(ring.elements())
    return [OMatrix(ring, [flat[i * cols:(i + 1) * cols] for i in range(rows)])
            for flat in product(cells, repeat=rows * cols)]


def iter_rep_points(Q, ring, r):
    """All points of R(Q, alpha; r) in lexicographic order."""
    pools = {}
    for s, t in Q.arrows:
        if (r[t], r[s]) not in pools:
            pools[r[t], r[s]] = matrix_pool(ring, r[t], r[s])
    return product(*(pools[r[t], r[s]] for s, t in Q.arrows))


def enumerate_group(Q, ring, r):
    """All elements of GL_{alpha,r}, as (per-vertex matrices, inverses)."""
    per_vertex = [[(g, g.inverse()) for g in gl_enumerate(ring.q, ring.alpha, ri)]
                  for ri in r]
    return [([g for g, _ in combo], [gi for _, gi in combo])
            for combo in product(*per_vertex)]


def act(Q, gs, gs_inv, x):
    return tuple(gs[t] * x[a] * gs_inv[s] for a, (s, t) in enumerate(Q.arrows))


def orbits(Q, alpha, r, q):
    """(representative, orbit size) of every orbit, in the order of the
    representatives, each the first point of its orbit in iter_rep_points."""
    ring = ORing(q, alpha)
    group = enumerate_group(Q, ring, r)
    visited = set()
    out = []
    for x in iter_rep_points(Q, ring, r):
        if x in visited:
            continue
        orbit = {act(Q, gs, gs_inv, x) for gs, gs_inv in group}
        visited |= orbit
        out.append((x, len(orbit)))
    return out


def _generators(ring, r, scalar_free):
    """Generators of GL_{alpha,r} up to scalars, as (vertex, row operation
    of g, column operation of g^-1), in vertex order; (k, l, c) scales line
    k by c if k == l, else adds c times line l to line k."""
    field = ring.field
    basis = [1] if field.k == 1 else [1, field.p]
    shifts = [ring.scalar_mul(b, ring.t_power(j)) for j in range(ring.alpha) for b in basis]
    units = [ring.add(ring.one, c) for c in shifts[len(basis):]]
    if field.q > 2:
        units.append(ring.from_coeffs([next(a for a in range(2, field.q)
                                            if field.element_order(a) == field.q - 1)]))
    for i, ri in enumerate(r):
        for k in range(1 if i in scalar_free else 0, ri):
            for u in units:
                yield i, (k, k, u), (k, k, ring.inv(u))
        for k, l in permutations(range(ri), 2):
            for c in shifts:
                yield i, (k, l, c), (l, k, ring.neg(c))


def hook(labels, perm):
    """labels joined along the edges x -> perm[x], where labels[x] is the
    least point of the component of x: each round hooks the larger root of
    every crossing edge onto the smaller, then pointer jumping follows."""
    while True:
        other = labels[perm]
        cross = labels != other
        if not cross.any():
            return labels
        ends, other = labels[cross], other[cross]
        labels[np.maximum(ends, other)] = np.minimum(ends, other)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def orbit_labels(Q, alpha, r, q):
    """(representatives, orbit sizes) of the GL-orbits on R(Q, alpha; r),
    with every generator hooked over all points: each generator's
    permutation of the point indices (base-q digits, most significant
    first) is built from a copy of the whole entry table of each arrow."""
    ring = ORing(q, alpha)
    size = q ** alpha
    shapes = [(r[t], r[s]) for s, t in Q.arrows]
    radices = [size ** (rows * cols) for rows, cols in shapes]
    n_points = math.prod(radices)
    add, mul = ring.field.arrays[:2]
    places = q ** np.arange(alpha - 1, -1, -1, dtype=np.int32)
    digits = (np.arange(size)[:, None] // places % q).astype(np.int16)
    plus = (add[digits[:, None] * q + digits] @ places).ravel()

    def line_op(lines, op):
        k, l, c = op
        times = _mul_batch(q, add, mul, digits, np.array(c, dtype=np.int16)) @ places
        lines[k] = times[lines[l]] if k == l else plus[lines[k] * size + times[lines[l]]]

    index = np.arange(n_points, dtype=np.int32)
    entries = {}
    labels = index.copy()
    roots, _ = _union_find(len(r), [(s, t) for s, t in Q.arrows if r[s] and r[t]])
    scalar_free = {v for v, root in enumerate(roots) if v == root}
    for vertex, row_op, col_op in _generators(ring, r, scalar_free):
        perm = None
        for a, (s, t) in enumerate(Q.arrows):
            if vertex not in (s, t) or (s == t and r[s] == 1) or radices[a] == 1:
                continue
            rows, cols = shapes[a]
            weights = size ** np.arange(rows * cols - 1, -1, -1, dtype=np.int32)
            if shapes[a] not in entries:
                entries[shapes[a]] = (np.arange(radices[a], dtype=np.int32) // weights[:, None]
                                      % size).reshape(rows, cols, -1)
            x = entries[shapes[a]].copy()
            if t == vertex:
                line_op(x, row_op)
            if s == vertex:
                line_op(x.transpose(1, 0, 2), col_op)
            moved = weights @ x.reshape(rows * cols, -1) - np.arange(radices[a], dtype=np.int32)
            perm = index.copy() if perm is None else perm
            view = perm.reshape(-1, radices[a], math.prod(radices[a + 1:]))
            view += moved[:, None] * view.shape[2]
        if perm is not None:
            labels = hook(labels, perm)
    reps = np.flatnonzero(labels == index)
    return reps, np.bincount(labels)[reps]


def end_exponent(Q, ring, r, x):
    """|End(x)| = q^e."""
    return kernel_size_exponent(end_system_matrix(Q, ring, r, x))


def kernel_elements(M):
    """All vectors z with M z = 0 (exponentially many; small inputs only)."""
    ring = M.ring
    alpha = ring.alpha
    gammas, _, V = smith_normal_form(M)
    gammas = list(gammas) + [alpha] * (M.cols - len(gammas))
    # kernel of diag(t^g) is prod t^(alpha-g) O; push through V
    coords = []
    for g in gammas:
        if g >= alpha:
            coords.append(list(ring.elements()))
        elif g == 0:
            coords.append([ring.zero])
        else:
            coords.append([ring.from_coeffs([0] * (alpha - g) + list(tail))
                           for tail in product(ring.field.elements(), repeat=g)])
    for w in product(*coords):
        yield V.apply(w)


def end_elements(Q, ring, r, x):
    """All endomorphisms of x, as tuples of per-vertex matrices."""
    for z in kernel_elements(end_system_matrix(Q, ring, r, x)):
        mats = []
        pos = 0
        for d in r:
            mats.append(OMatrix(ring, [z[pos + u * d: pos + (u + 1) * d] for u in range(d)],
                                shape=(d, d)))
            pos += d * d
        yield tuple(mats)


def is_indecomposable(Q, ring, r, x):
    """The idempotent census: x is indecomposable iff End(x) has exactly
    the two idempotents 0 and 1 (rank zero has only 0 = 1)."""
    idempotents = sum(1 for xi in end_elements(Q, ring, r, x)
                      if all(m * m == m for m in xi))
    return idempotents == 2


def divide_exact(ring, a, b):
    """a / b in O_alpha when val(a) >= val(b); b nonzero.  The quotient of
    the shifted coefficients by the unit part of b; the top val(b)
    coefficients, which the division leaves free, are zero."""
    v = ring.val(b)
    if v == ring.alpha:
        raise ZeroDivisionError("division by zero in O_alpha")
    if ring.val(a) < v:
        raise ValueError("division with valuation drop is not exact")
    pad = (0,) * v
    return ring.mul(a[v:] + pad, ring.inv(b[v:] + pad))


def solve_linear(A, b):
    """Solve A x = b over O_alpha.

    Returns (solvable, kernel_exponent, particular_solution_or_None).
    """
    ring = A.ring
    alpha = ring.alpha
    gammas, U, V = smith_normal_form(A)
    ke = kernel_size_exponent(A)
    c = U.apply(tuple(b))
    y = []
    for i in range(A.rows):
        g = gammas[i] if i < len(gammas) else alpha
        ci = c[i]
        if g >= alpha:
            if ring.val(ci) < alpha:
                return False, ke, None
            if i < A.cols:
                y.append(ring.zero)
        else:
            if ring.val(ci) < g:
                return False, ke, None
            y.append(divide_exact(ring, ci, ring.t_power(g)))
    while len(y) < A.cols:
        y.append(ring.zero)
    return True, ke, V.apply(tuple(y[: A.cols]))


def zero_fiber(Q, alpha, r, q):
    ring = ORing(q, alpha)
    return sum(q ** kernel_size_exponent(moment_matrix(Q, ring, r, x))
               for x in iter_rep_points(Q, ring, r))


def deformed_fiber(Q, alpha, r, q, lam):
    ring = ORing(q, alpha)
    target = []
    for i in range(Q.num_vertices):
        c = ring.scalar_mul(ring.field.from_int(lam[i]), ring.t_power(alpha - 1))
        for u in range(r[i]):
            for v in range(r[i]):
                target.append(c if u == v else ring.zero)
    total = 0
    for x in iter_rep_points(Q, ring, r):
        solvable, ke, _ = solve_linear(moment_matrix(Q, ring, r, x), tuple(target))
        if solvable:
            total += q ** ke
    return total


def ask_counts(theta_basis, q, n_max):
    rows = len(theta_basis[0])
    cols = len(theta_basis[0][0]) if rows else 0
    out = []
    for n in range(1, n_max + 1):
        ring = ORing(q, n)
        basis = [OMatrix(ring, [[ring.from_int(x) for x in row] for row in b]) for b in theta_basis]
        total = 0
        for coeffs in product(ring.elements(), repeat=len(basis)):
            acc = OMatrix.zero(ring, rows, cols)
            for c, b in zip(coeffs, basis):
                if ring.val(c) < n:
                    acc = acc + OMatrix(ring, [[ring.mul(c, e) for e in row]
                                               for row in b.entries], shape=(rows, cols))
            total += q ** kernel_size_exponent(acc)
        out.append(Fraction(total, q ** (n * len(basis))))
    return out


def conjugation_kernel_exponent(ring, g_t, g_s, rows, cols):
    """Kernel exponent of x -> g_t x - x g_s on rows x cols matrices."""
    total = rows * cols
    sys_rows = []
    for u in range(rows):
        for v in range(cols):
            row = [ring.zero] * total
            for w in range(rows):
                row[w * cols + v] = ring.add(row[w * cols + v], g_t.entries[u][w])
            for w in range(cols):
                row[u * cols + w] = ring.sub(row[u * cols + w], g_s.entries[w][v])
            sys_rows.append(row)
    return kernel_size_exponent(OMatrix(ring, sys_rows, shape=(total, total)))


def iso_classes(Q, alpha, r, q):
    ring = ORing(q, alpha)
    per_vertex = [list(gl_enumerate(q, alpha, ri)) for ri in r]
    total = 0
    cache = {}
    for combo in product(*per_vertex):
        fix_exp = 0
        for s, t in Q.arrows:
            key = (t, id(combo[t]), s, id(combo[s]))
            if key not in cache:
                cache[key] = conjugation_kernel_exponent(ring, combo[t], combo[s],
                                                         r[t], r[s])
            fix_exp += cache[key]
        total += q ** fix_exp
    count, rem = divmod(total, group_order(alpha, r, q))
    assert rem == 0
    return count


@functools.cache  # the flag-table oracle asks for each list once per sub-rank
def free_summands(ring, ambient, k):
    """Rank-k direct summands of O^ambient: (basis matrix, element set) pairs.

    A tuple of k columns spans a free summand iff its Smith invariants all
    vanish; summands are deduplicated by their element sets.
    """
    if k == 0:
        return [(OMatrix(ring, [[] for _ in range(ambient)], shape=(ambient, 0)),
                 frozenset([(ring.zero,) * ambient]))]
    if k > ambient:
        return []
    out = {}
    vectors = list(product(ring.elements(), repeat=ambient))
    for cols in product(vectors, repeat=k):
        basis = OMatrix(ring, [[cols[j][i] for j in range(k)] for i in range(ambient)],
                        shape=(ambient, k))
        if any(g != 0 for g in smith_invariants(basis)):
            continue
        span = frozenset(basis.apply(w) for w in product(ring.elements(), repeat=k))
        if span not in out:
            out[span] = basis
    return [(basis, span) for span, basis in sorted(out.items(), key=lambda kv: kv[1].entries)]


def complete_basis(ring, basis):
    """Extend a summand basis to an invertible square matrix by appending
    standard vectors that stay independent modulo t."""
    n = basis.rows
    cols = [tuple(basis.entries[i][j] for i in range(n)) for j in range(basis.cols)]
    for e in range(n):
        if len(cols) == n:
            break
        cand = tuple(ring.one if i == e else ring.zero for i in range(n))
        trial = OMatrix(ring, [[c[i] for c in cols + [cand]] for i in range(n)],
                        shape=(n, len(cols) + 1))
        if all(g == 0 for g in smith_invariants(trial)):
            cols.append(cand)
    full = OMatrix(ring, [[c[i] for c in cols] for i in range(n)])
    assert full.is_invertible()
    return full


def flag_table(q, alpha, rank, sub_rank):
    """The (sub-label, quotient-label) census of every orbit label, over the
    x-stable pairs of summands found by the column-tuple walk."""
    ring = ORing(q, alpha)
    adapted1 = [(complete_basis(ring, b), b.cols)
                for b, _ in free_summands(ring, rank[0], sub_rank[0])]
    adapted2 = [(complete_basis(ring, b).inverse(), b.cols, span)
                for b, span in free_summands(ring, rank[1], sub_rank[1])]
    table = {}
    for label in all_orbit_labels(rank, alpha):
        x = orbit_representative(ring, rank, label)
        census = {}
        for B1, k1 in adapted1:
            images = [x.apply(tuple(B1.entries[i][j] for i in range(rank[0])))
                      for j in range(k1)]
            for B2inv, k2, span2 in adapted2:
                if any(img not in span2 for img in images):
                    continue
                x_adapted = B2inv * x * B1
                sub = OMatrix(ring, [[x_adapted.entries[i][j] for j in range(k1)]
                                     for i in range(k2)], shape=(k2, k1))
                quo = OMatrix(ring, [[x_adapted.entries[i][j] for j in range(k1, x.cols)]
                                     for i in range(k2, x.rows)],
                              shape=(x.rows - k2, x.cols - k1))
                pair = (orbit_label_of(sub, alpha), orbit_label_of(quo, alpha))
                census[pair] = census.get(pair, 0) + 1
        table[label] = census
    return table
