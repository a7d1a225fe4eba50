"""Exhaustive enumeration oracles over O_alpha = F_q[t]/(t^alpha).

Everything here counts by brute force: representation spaces are walked
point by point (or, in rank all-one, labeled by vectorized orbit
propagation), group orbits are computed by applying every group element,
and all higher-level identities in the package are checked against these
counts.  Correctness first; caps keep the instances at desk scale.

A representation point is a tuple of OMatrix values, one per arrow, of
shape r_target x r_source.  The group GL_{alpha,r} = prod_i GL_{r_i}(O_alpha)
acts by g . x = (g_{t(a)} x_a g_{s(a)}^{-1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import (CapExceeded, CharacteristicTooSmall, DimensionMismatch,
                     EndTooLargeForLocalityTest, NonGenericLambda)
from .localring import (Fq, OMatrix, ORing, gl_enumerate, gl_order,
                        kernel_elements, kernel_size_exponent,
                        smith_invariants_batch)
from .quiver import Quiver, is_connected, restrict_arrows


@dataclass(frozen=True)
class Caps:
    """Resource limits; defaults sized so the verification suite finishes
    in minutes."""
    max_space_log2: int = 24
    max_group: int = 10 ** 5
    max_end_log2: int = 16


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


def check_space_cap(Q: Quiver, alpha: int, r, q: int, caps: Caps) -> None:
    import math
    log2_size = alpha * rep_space_dim(Q, r) * math.log2(q)
    if log2_size > caps.max_space_log2:
        raise CapExceeded(
            f"representation space has 2^{log2_size:.1f} points, cap 2^{caps.max_space_log2}")


def group_order(Q: Quiver, alpha: int, r, q: int) -> int:
    order = 1
    for ri in r:
        order *= gl_order(q, alpha, ri)
    return order


# -- generic helpers ---------------------------------------------------------

def _matrix_pool(ring: ORing, rows: int, cols: int):
    """All rows x cols matrices over the ring, in deterministic order."""
    if rows == 0 or cols == 0:
        return [OMatrix(ring, [], shape=(rows, cols))]
    pool = []
    cells = list(ring.elements())
    for flat in product(cells, repeat=rows * cols):
        pool.append(OMatrix(ring, [flat[i * cols:(i + 1) * cols] for i in range(rows)]))
    return pool


def iter_rep_points(Q: Quiver, ring: ORing, r):
    """All points of R(Q, alpha; r) in lexicographic order."""
    pools = []
    shape_cache = {}
    for s, t in Q.arrows:
        shape = (r[t], r[s])
        if shape not in shape_cache:
            shape_cache[shape] = _matrix_pool(ring, *shape)
        pools.append(shape_cache[shape])
    return product(*pools)


def enumerate_group(Q: Quiver, ring: ORing, r, caps: Caps):
    """All elements of GL_{alpha,r} with precomputed inverses."""
    order = group_order(Q, ring.alpha, r, ring.q)
    if order > caps.max_group:
        raise CapExceeded(f"|GL| = {order} exceeds cap {caps.max_group}")
    per_vertex = []
    for ri in r:
        mats = list(gl_enumerate(ring.q, ring.alpha, ri, cap=caps.max_group))
        per_vertex.append([(g, g.inverse()) for g in mats])
    out = []
    for combo in product(*per_vertex):
        out.append(([g for g, _ in combo], [gi for _, gi in combo]))
    return out


def act(Q: Quiver, gs, gs_inv, x):
    return tuple(gs[t] * x[a] * gs_inv[s]
                 for a, (s, t) in enumerate(Q.arrows))


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


def end_exponent(Q: Quiver, ring: ORing, r, x) -> int:
    """|End(x)| = q^e."""
    return kernel_size_exponent(end_system_matrix(Q, ring, r, x))


def _end_elements(Q: Quiver, ring: ORing, r, x):
    """All endomorphisms, as tuples of per-vertex matrices."""
    system = end_system_matrix(Q, ring, r, x)
    n = Q.num_vertices
    for z in kernel_elements(system):
        mats = []
        pos = 0
        for i in range(n):
            d = r[i]
            mats.append(OMatrix(ring, [z[pos + u * d: pos + (u + 1) * d]
                                       for u in range(d)], shape=(d, d)))
            pos += d * d
        yield tuple(mats)


def _classify_orbit(Q, ring, r, rep, orbit_size, gl_size, caps):
    """End size, indecomposability and splitting degree for one orbit."""
    q = ring.q
    e = end_exponent(Q, ring, r, rep)
    end_size = q ** e
    aut_size = gl_size // orbit_size
    if all(ri == 0 for ri in r):
        return OrbitRecord(rep, orbit_size, e, aut_size, False, None, False)
    if e * _log2(q) > caps.max_end_log2:
        raise EndTooLargeForLocalityTest(
            f"|End| = {q}^{e} too large for the idempotent census")
    idempotents = 0
    for xi in _end_elements(Q, ring, r, rep):
        if all(m * m == m for m in xi):
            idempotents += 1
    indecomposable = idempotents == 2
    top_degree = _top_degree(end_size, aut_size, q) if indecomposable else None
    return OrbitRecord(rep, orbit_size, e, aut_size, indecomposable,
                       top_degree, top_degree == 1)


def _top_degree(end_size: int, aut_size: int, q: int) -> int:
    """Degree d of the residue field of a local End, from
    |Aut| = |End| (1 - q^-d)."""
    radical = end_size - aut_size
    d = 0
    m = end_size
    while m > radical:
        m //= q
        d += 1
    if m != radical:
        raise AssertionError("Aut/End ratio is not of local-ring shape")
    return d


def _log2(n: int) -> float:
    import math
    return math.log2(n)


# -- orbit enumeration --------------------------------------------------------

def enumerate_orbits(Q: Quiver, alpha: int, r, q: int,
                     caps: Caps = DEFAULT_CAPS) -> list:
    """Partition R(Q, alpha; r)(F_q) into GL-orbits and classify each one.

    Representatives are the lexicographically smallest points of their
    orbits.  Rank vectors with every entry 1 are dispatched to a
    vectorized path; the result format is identical.
    """
    r = tuple(int(x) for x in r)
    check_space_cap(Q, alpha, r, q, caps)
    if all(ri == 1 for ri in r) and Q.num_arrows > 0:
        return _rank_one_orbits(Q, alpha, q, caps)
    ring = ORing(q, alpha)
    group = enumerate_group(Q, ring, r, caps)
    gl_size = len(group)
    visited = set()
    records = []
    for x in iter_rep_points(Q, ring, r):
        if x in visited:
            continue
        orbit = set()
        for gs, gs_inv in group:
            orbit.add(act(Q, gs, gs_inv, x))
        visited |= orbit
        records.append(_classify_orbit(Q, ring, r, x, len(orbit), gl_size, caps))
    return records


def count_absolutely_indecomposable(Q: Quiver, alpha: int, r, q: int,
                                    caps: Caps = DEFAULT_CAPS) -> int:
    r = tuple(int(x) for x in r)
    if all(ri == 1 for ri in r) and Q.num_arrows > 0:
        # orbit labels once, then a fully vectorized census: an orbit is
        # absolutely indecomposable iff its support subquiver is connected
        check_space_cap(Q, alpha, r, q, caps)
        ring = ORing(q, alpha)
        labels, elems, radix = _rank_one_labels(Q, ring, caps)
        reps = np.unique(labels)
        val_of = np.array([ring.val(e) for e in elems], dtype=np.int64)
        support_mask = np.zeros(len(reps), dtype=np.int64)
        for a in range(Q.num_arrows):
            digit = (reps // (radix ** a)) % radix
            support_mask |= (val_of[digit] < alpha).astype(np.int64) << a
        connected = np.zeros(1 << Q.num_arrows, dtype=bool)
        for mask in range(1 << Q.num_arrows):
            edges = [a for a in range(Q.num_arrows) if mask >> a & 1]
            connected[mask] = is_connected(restrict_arrows(Q, edges))
        return int(connected[support_mask].sum())
    return sum(1 for rec in enumerate_orbits(Q, alpha, r, q, caps)
               if rec.absolutely_indecomposable)


# -- vectorized rank-one orbit machinery --------------------------------------

def _unit_generators(ring: ORing):
    """Generators of O_alpha^*: a lift of a generator of F_q^* and the
    elements 1 + b t^j with b running over an F_p-basis of F_q."""
    field = ring.field
    primitive = next(a for a in range(1, field.q)
                     if field.element_order(a) == field.q - 1)
    gens = [ring.from_coeffs([primitive])]
    basis = [1] if field.k == 1 else [1, field.p]
    for j in range(1, ring.alpha):
        for b in basis:
            coeffs = [0] * ring.alpha
            coeffs[0] = 1
            coeffs[j] = b
            gens.append(tuple(coeffs))
    return gens


def _rank_one_labels(Q: Quiver, ring: ORing, caps: Caps):
    """Orbit labels for the torus action on R(Q, alpha; all-one).

    States are mixed-radix integers with one digit (an O_alpha element
    index) per arrow.  Returns (labels array, element list, digit radix).
    """
    elems = list(ring.elements())
    index_of = {e: k for k, e in enumerate(elems)}
    radix = len(elems)
    E = Q.num_arrows
    n_states = radix ** E
    if _log2(n_states) > caps.max_space_log2:
        raise CapExceeded(
            f"representation space has {n_states} points, cap 2^{caps.max_space_log2}")
    weights = [radix ** a for a in range(E)]

    perms = []
    states = np.arange(n_states, dtype=np.int64)
    digits = [(states // w) % radix for w in weights]
    for v in range(Q.num_vertices):
        for u in _unit_generators(ring):
            u_inv = ring.inv(u)
            left = np.array([index_of[ring.mul(u, e)] for e in elems], dtype=np.int64)
            right = np.array([index_of[ring.mul(e, u_inv)] for e in elems], dtype=np.int64)
            perm = np.zeros(n_states, dtype=np.int64)
            trivial = True
            for a, (s, t) in enumerate(Q.arrows):
                d = digits[a]
                if s == t:
                    # u x u^-1 = x over a commutative ring
                    perm += d * weights[a]
                elif t == v:
                    perm += left[d] * weights[a]
                    trivial = False
                elif s == v:
                    perm += right[d] * weights[a]
                    trivial = False
                else:
                    perm += d * weights[a]
            if not trivial:
                perms.append(perm)

    labels = np.arange(n_states, dtype=np.int64)
    while True:
        before = labels.copy()
        for perm in perms:
            np.minimum(labels, labels[perm], out=labels)
            np.minimum.at(labels, perm, labels.copy())
        if np.array_equal(labels, before):
            break
    return labels, elems, radix


def _rank_one_pattern_data(Q: Quiver, ring: ORing, valuations):
    """Per-valuation-pattern invariants shared by every orbit in a stratum."""
    alpha = ring.alpha
    support = [a for a, v in enumerate(valuations) if v < alpha]
    indecomposable = is_connected(restrict_arrows(Q, support))
    # End system: x_a (xi_s - xi_t) = 0, one O-row per arrow
    rows = []
    n = Q.num_vertices
    for a, (s, t) in enumerate(Q.arrows):
        if s == t:
            continue
        row = [ring.zero] * n
        tp = ring.t_power(valuations[a])
        row[s] = ring.add(row[s], tp)
        row[t] = ring.sub(row[t], tp)
        rows.append(row)
    system = OMatrix(ring, rows, shape=(len(rows), n))
    e = kernel_size_exponent(system)
    return indecomposable, e


def _rank_one_orbits(Q: Quiver, alpha: int, q: int, caps: Caps) -> list:
    ring = ORing(q, alpha)
    labels, elems, radix = _rank_one_labels(Q, ring, caps)
    reps, counts = np.unique(labels, return_counts=True)
    E = Q.num_arrows
    weights = [radix ** a for a in range(E)]
    val_of = np.array([ring.val(e) for e in elems], dtype=np.int64)
    gl_size = (q ** (alpha - 1) * (q - 1)) ** Q.num_vertices

    pattern_cache = {}
    records = []
    for rep, orbit_size in zip(reps.tolist(), counts.tolist()):
        digits = [(rep // w) % radix for w in weights]
        pattern = tuple(int(val_of[d]) for d in digits)
        if pattern not in pattern_cache:
            pattern_cache[pattern] = _rank_one_pattern_data(Q, ring, pattern)
        indecomposable, e = pattern_cache[pattern]
        aut_size = gl_size // orbit_size
        top_degree = _top_degree(q ** e, aut_size, q) if indecomposable else None
        x = tuple(OMatrix(ring, [[elems[d]]]) for d in digits)
        records.append(OrbitRecord(x, orbit_size, e, aut_size, indecomposable,
                                   top_degree, top_degree == 1))
    return records


# -- batched point walks -------------------------------------------------------

# coefficient entries (matrices x rows x cols x alpha) per batched Smith
# call: bounds each array of a chunk to 2^15 entries, at most 256 KiB
_CHUNK_ENTRIES = 1 << 15


def _chunk_size(entries_per_item: int) -> int:
    return max(1, _CHUNK_ENTRIES // max(1, entries_per_item))


def _point_chunks(q: int, width: int, size: int, shard: int = 0, nshards: int = 1):
    """Base-q digit arrays (most significant first) of the integers
    0..q^width - 1, in chunks of `size`; shard s of n gets chunks s, s+n, ...

    The digits of a point index are its field coordinates, so the index
    order is the lexicographic order of iter_rep_points.
    """
    total = q ** width
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    for start in range(shard * size, total, nshards * size):
        idx = np.arange(start, min(start + size, total), dtype=np.int64)
        yield (idx[:, None] // powers) % q


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


def _sum_q_powers(q: int, exponents) -> int:
    """Exact sum of q^e over an array of nonnegative integers: numpy counts
    each exponent, and the powers are summed as Python integers."""
    counts = np.bincount(np.ravel(exponents))
    return sum(c * q ** e for e, c in enumerate(counts.tolist()) if c)


# -- Burnside count ------------------------------------------------------------

def _conjugation_basis(rows: int, cols: int) -> np.ndarray:
    """Integer matrices of x -> g_t x - x g_s on rows x cols matrices, one
    per entry of g_t and then of g_s (row-major); the kernel of this map is
    the fixed-point set of x -> g_t x g_s^{-1}."""
    total = rows * cols
    basis = np.zeros((rows * rows + cols * cols, total, total), dtype=np.int64)
    for u in range(rows):
        for v in range(cols):
            for w in range(rows):
                basis[u * rows + w, u * cols + v, w * cols + v] += 1
            for w in range(cols):
                basis[rows * rows + w * cols + v, u * cols + v, u * cols + w] -= 1
    return basis


def _conjugation_exponents(field, g_t, g_s, loop: bool) -> np.ndarray:
    """Fixed-point exponents of x -> g_t x g_s^{-1} for every pair of
    elements of the stacks g_t and g_s (shape (G, r, r, alpha)): an array
    of shape (G_t, G_s), or (G,) over the diagonal pairs of a loop."""
    n_t, rows, _, alpha = g_t.shape
    n_s, cols = g_s.shape[:2]
    basis = _conjugation_basis(rows, cols)
    flat_t = g_t.reshape(n_t, rows * rows, alpha)
    flat_s = g_s.reshape(n_s, cols * cols, alpha)
    n_pairs = n_t if loop else n_t * n_s
    out = np.empty(n_pairs, dtype=np.int64)
    step = _chunk_size(rows * cols * rows * cols * alpha)
    for start in range(0, n_pairs, step):
        idx = np.arange(start, min(start + step, n_pairs))
        i, j = (idx, idx) if loop else np.divmod(idx, n_s)
        coeffs = np.concatenate([flat_t[i], flat_s[j]], axis=1)
        out[start:start + len(idx)] = _kernel_exponents(field, _combine(field, basis, coeffs))
    return out if loop else out.reshape(n_t, n_s)


def count_iso_classes(Q: Quiver, alpha: int, r, q: int,
                      caps: Caps = DEFAULT_CAPS) -> int:
    """M_{(Q,alpha),r}(q): all isomorphism classes, via the orbit-count
    average of fixed points over the group."""
    r = tuple(int(x) for x in r)
    check_space_cap(Q, alpha, r, q, caps)
    ring = ORing(q, alpha)
    order = group_order(Q, alpha, r, q)
    if order > caps.max_group:
        raise CapExceeded(f"|GL| = {order} exceeds cap {caps.max_group}")
    stacks = []
    for ri in r:
        mats = [g.entries for g in gl_enumerate(q, alpha, ri, cap=caps.max_group)]
        stacks.append(np.array(mats, dtype=np.int16).reshape(len(mats), ri, ri, alpha))
    # fixed-point exponent of every group element, one axis per vertex;
    # parallel arrows share their exponents
    n = Q.num_vertices
    fix_exp = np.zeros([len(st) for st in stacks], dtype=np.int64)
    per_arrow = {}
    for s, t in Q.arrows:
        if (s, t) not in per_arrow:
            e = _conjugation_exponents(ring.field, stacks[t], stacks[s], s == t)
            per_arrow[s, t] = np.expand_dims(e.T if t > s else e,
                                             tuple(i for i in range(n) if i not in (s, t)))
        fix_exp += per_arrow[s, t]
    count, rem = divmod(_sum_q_powers(q, fix_exp), order)
    if rem:
        raise AssertionError("orbit-count average is not an integer")
    return count


# -- moment-map fibers ----------------------------------------------------------

def moment_matrix(Q: Quiver, ring: ORing, r, x) -> OMatrix:
    """Matrix of y -> mu(x, y), from the y-coordinate space to gl_r.

    mu_i(x, y) = sum over arrows into i of x_a y_a minus sum over arrows
    out of i of y_a x_a (equal multiplicities).
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


def _fiber_shard(payload):
    """Partial fiber sum over one shard of the point chunks; top-level so
    worker processes can receive it.

    The moment matrix A of every point x comes from moment_theta_basis.  On
    the zero fiber x contributes |Ker A| = q^ke(A).  On a deformed fiber
    with target b, b lies in the image of A iff ke([A | b]) = ke(A) + alpha
    (the scalars s with s b in im A form an ideal of O_alpha, and
    |Ker [A | b]| is its size times |Ker A|), and then x contributes q^ke(A).
    """
    quiver_json, alpha, r, q, lam, shard, nshards = payload
    Q = Quiver.from_json(quiver_json)
    field = Fq(q)
    basis = np.array(moment_theta_basis(Q, r), dtype=np.int64)
    n_coords, rows, cols = basis.shape
    target = None
    if any(lam):
        target = np.zeros((rows, 1, alpha), dtype=np.int16)
        offset = 0
        for i, ri in enumerate(r):
            for u in range(ri):
                target[offset + u * ri + u, 0, alpha - 1] = field.from_int(lam[i])
            offset += ri * ri
    total = 0
    size = _chunk_size(rows * (cols + 1) * alpha)
    for digits in _point_chunks(q, n_coords * alpha, size, shard, nshards):
        mats = _combine(field, basis, digits.reshape(-1, n_coords, alpha))
        ke = _kernel_exponents(field, mats)
        if target is not None:
            column = np.broadcast_to(target, (len(mats), rows, 1, alpha))
            augmented = _kernel_exponents(field, np.concatenate([mats, column], axis=2))
            ke = ke[augmented == ke + alpha]
        total += _sum_q_powers(q, ke)
    return total


def moment_fiber_count(Q: Quiver, alpha: int, r, q: int, lam=None,
                       caps: Caps = DEFAULT_CAPS, jobs: int = 1) -> int:
    """#{(x, y) : mu(x, y) = t^(alpha-1) lambda} over O_alpha.

    lambda = None or all zero counts the zero fiber; a nonzero lambda must
    pair to zero with r, to nonzero with every intermediate rank vector,
    and needs characteristic larger than sum |lambda_i| r_i.  jobs > 1
    shards the point walk (zero or deformed fiber) across processes; the
    reduction is integer addition, so the result does not depend on the
    schedule.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    n = Q.num_vertices
    r = tuple(int(x) for x in r)
    lam = tuple(int(v) for v in (lam if lam is not None else (0,) * n))
    if len(r) != n or len(lam) != n:
        raise DimensionMismatch(
            f"rank vector and lambda need {n} entries, got {len(r)} and {len(lam)}")
    check_space_cap(Q, alpha, r, q, caps)
    ring = ORing(q, alpha)
    if any(lam):
        _check_generic(Q, r, q, lam)
    if rep_space_dim(Q, r) == 0:
        # mu is the zero map; the fiber is a point iff the target vanishes
        # inside gl_r (vertices of rank zero impose nothing)
        p = _char(q)
        target_zero = all(lam[i] % p == 0 for i in range(n) if r[i] > 0)
        return 1 if target_zero else 0

    if not any(lam) and all(ri == 1 for ri in r):
        # stratify by valuation pattern: fiber size only depends on it
        counts_per_val = [(q - 1) * q ** (alpha - 1 - v) if v < alpha else 1
                          for v in range(alpha + 1)]
        total = 0
        for pattern in product(range(alpha + 1), repeat=Q.num_arrows):
            x = tuple(OMatrix(ring, [[ring.t_power(v)]]) for v in pattern)
            ke = kernel_size_exponent(moment_matrix(Q, ring, r, x))
            mult = 1
            for v in pattern:
                mult *= counts_per_val[v]
            total += mult * q ** ke
        return total
    if jobs > 1:
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        payloads = [(Q.to_json(), alpha, r, q, lam, shard, jobs) for shard in range(jobs)]
        with ctx.Pool(jobs) as pool:
            return sum(pool.map(_fiber_shard, payloads))
    return _fiber_shard((Q.to_json(), alpha, r, q, lam, 0, 1))


def _char(q: int) -> int:
    from .localring import _factor_prime_power
    return _factor_prime_power(q)[0]


def _check_generic(Q: Quiver, r, q: int, lam) -> None:
    if sum(l * x for l, x in zip(lam, r)) != 0:
        raise NonGenericLambda("lambda does not pair to zero with the rank vector")
    for sub in product(*(range(x + 1) for x in r)):
        if all(v == 0 for v in sub) or tuple(sub) == tuple(r):
            continue
        if sum(l * x for l, x in zip(lam, sub)) == 0:
            raise NonGenericLambda(f"lambda pairs to zero with {sub} < r")
    p = _char(q)
    if p <= sum(abs(l) * x for l, x in zip(lam, r)):
        raise CharacteristicTooSmall(
            f"need characteristic > {sum(abs(l) * x for l, x in zip(lam, r))}, got {p}")


def jet_counts(Q: Quiver, d, q: int, n_max: int,
               caps: Caps = DEFAULT_CAPS) -> list:
    """N_n = #mu^{-1}(0)(F_q[t]/(t^n)) for n = 1..n_max."""
    return [moment_fiber_count(Q, n, d, q, None, caps) for n in range(1, n_max + 1)]


# -- average size of kernels -----------------------------------------------------

def ask_counts(theta_basis, q: int, n_max: int,
               caps: Caps = DEFAULT_CAPS) -> list:
    """ask_n of the linear matrix family a -> sum a_k B_k for n = 1..n_max.

    theta_basis is a list of integer matrices (same shape); ask_n averages
    |Ker| over all coefficient tuples with entries in O_n.
    """
    if not theta_basis:
        raise ValueError("empty family")
    rows = len(theta_basis[0])
    cols = len(theta_basis[0][0]) if rows else 0
    if any(len(b) != rows or any(len(row) != cols for row in b) for b in theta_basis):
        raise DimensionMismatch(
            f"basis matrices must all be {rows} x {cols}, with rows of one length")
    r_a = len(theta_basis)
    basis = np.array(theta_basis, dtype=np.int64).reshape(r_a, rows, cols)
    field = Fq(q)
    out = []
    for n in range(1, n_max + 1):
        import math
        if r_a * n * math.log2(q) > caps.max_space_log2:
            raise CapExceeded(f"coefficient space exceeds cap at level {n}")
        total = 0
        for digits in _point_chunks(q, r_a * n, _chunk_size(rows * cols * n)):
            mats = _combine(field, basis, digits.reshape(-1, r_a, n))
            total += _sum_q_powers(q, _kernel_exponents(field, mats))
        out.append(Fraction(total, q ** (n * r_a)))
    return out


def moment_theta_basis(Q: Quiver, d):
    """Integer basis matrices of x -> mu(x, .), one per coordinate of the
    x-space (multiplicity one, i.e. over the base field).

    Entries of these matrices lie in {0, 1, -1}; they are read off from
    moment_matrix over F_5, where 1 and -1 stay distinguishable.
    """
    ring = ORing(5, 1)
    basis = []
    shapes = [(d[t], d[s]) for s, t in Q.arrows]
    decode = {ring.zero: 0, ring.one: 1, ring.neg(ring.one): -1}
    for a, (rows, cols) in enumerate(shapes):
        for u in range(rows):
            for v in range(cols):
                x = []
                for b, (rb, cb) in enumerate(shapes):
                    ent = [[ring.one if (b == a and uu == u and vv == v) else ring.zero
                            for vv in range(cb)] for uu in range(rb)]
                    x.append(OMatrix(ring, ent, shape=(rb, cb)))
                m = moment_matrix(Q, ring, d, tuple(x))
                basis.append([[decode[e] for e in row] for row in m.entries])
    return basis
