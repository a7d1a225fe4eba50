"""Per-point scalar loops that the batched point walks replaced.

Each function walks its points one at a time through the scalar Smith
form, exactly as the package did before the batched kernel; the tests
require the batched walks to give equal counts.
"""

from fractions import Fraction
from itertools import product

from quivercount.bruteforce import group_order, iter_rep_points, moment_matrix
from quivercount.localring import (OMatrix, ORing, gl_enumerate,
                                   kernel_size_exponent, solve_linear)


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
        basis = [OMatrix.from_ints(ring, b) for b in theta_basis]
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
    count, rem = divmod(total, group_order(Q, alpha, r, q))
    assert rem == 0
    return count
