"""Symbolic counting engines.

Two independent formulas for the count of rank-all-one absolutely
indecomposable representations over O_alpha (one summing over chains of
edge subsets, one over valued spanning trees), linear recurrences in alpha
for the one-vertex quiver in ranks 2 and 3, the conversion between
all-class and absolutely-indecomposable counts through the plethystic
exponential, zero-fiber counts of the moment map in rank all-one, the
alpha -> infinity limits and their Hilbert-series form, and the expansion
of local zeta functions into fiber counts.  The chain sum, the limits and
the Hilbert series run on the prod_c (k_c + 1) states of the class lattice
(quiver.ClassLattice); the last two walk at most MAX_LATTICE_PAIRS pairs.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from math import comb, prod
from operator import add

from .closedforms import kronecker_Z
from .errors import CapExceeded, Not2Connected, NotConnected, UnsupportedParameter
from .localring import gl_order
from .qpolynomial import QPolynomial, RationalFunction, _long_division, rf_sum
from .quiver import (Quiver, _class_lattice, _parallel_classes, euler_form,
                     is_2_connected, is_connected, kronecker_quiver,
                     restrict_vertices, set_partitions, spanning_trees, tree_path)
from .series import TruncatedSeries, plethystic_log

_q = QPolynomial.q

MAX_LATTICE_PAIRS = 3 ** 10  # the subset pairs S <= S' of ten arrows


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise UnsupportedParameter(f"{name} must be >= {least}, got {value}")


# -- toric Kac polynomials ----------------------------------------------------

def toric_kac_wyss(Q: Quiver, alpha: int) -> QPolynomial:
    """Count of rank-all-one absolutely indecomposable classes over O_alpha,
    as a sum over chains E_1 <= ... <= E_alpha of arrow subsets whose last
    term spans a connected subgraph: (q-1)^b(E_alpha) q^(sum b(E_k), k<alpha).

    The chains are summed level by level on the class lattice of Q: with
    g_0(m) = [m = 0] and g_{j+1}(m) = sum over m' <= m of
    prod_c C(m_c, m'_c) q^b(m') g_j(m'), g_j(m) counts the chains
    E_1 <= ... <= E_{j-1} <= S below a subset S with counts m by exponent,
    and the count is the sum over connected spanning m of
    prod_c C(k_c, m_c) (q-1)^b(m) g_alpha(m).  The cost is
    O(alpha sum_c k_c prod_c (k_c + 1)) where the chains number (alpha+1)^E.
    """
    _check_at_least("alpha", alpha, 0)
    if not is_connected(Q):
        raise NotConnected("count requires a connected quiver")
    lattice = _class_lattice(Q)
    # g_j(m) is packed into one integer, the count of q^s in bits
    # [s w, (s+1) w); no coefficient of any sum below reaches the
    # (alpha+1)^E chains in all, so the fields never carry into each other
    w = ((alpha + 1) ** Q.num_arrows).bit_length()
    g = [1] + [0] * (len(lattice.betti) - 1)
    for _ in range(alpha):
        g = [x << w * b for x, b in zip(g, lattice.betti)]
        stride = len(g)
        for _, k in _parallel_classes(Q):
            span, stride = stride, stride // (k + 1)
            # f[n] -> sum_j C(n, j) f[j] along the class axis as k passes f[n] += f[n-1]
            # over n >= i (Pascal's matrix is their product): a subset sum when k = 1
            for i in range(1, k + 1):
                for lo in range(i * stride, len(g), span):
                    hi = lo - i * stride + span
                    g[lo:hi] = map(add, g[lo:hi], g[lo - stride:hi - stride])
    by_betti = {}
    for packed, b, weight, connected in zip(g, lattice.betti, lattice.weight, lattice.connected):
        if connected:
            by_betti[b] = by_betti.get(b, 0) + weight * packed
    field = (1 << w) - 1
    poly = QPolynomial.zero()
    for b_top, packed in sorted(by_betti.items()):
        counts, s = {}, 0
        while packed:
            counts[s] = packed & field
            packed >>= w
            s += 1
        poly = poly + (_q(1) - 1) ** b_top * QPolynomial(counts)
    return poly


def toric_kac_trees(Q: Quiver, alpha: int) -> QPolynomial:
    """Same count, stratified by valued spanning trees.

    A tree T with valuation v contributes q^(n_T) where every arrow outside
    T adds alpha - v_max(path) - [a > e], e being the smallest-index path
    edge realizing the maximal valuation (loops add a full alpha).
    """
    _check_at_least("alpha", alpha, 0)
    if not is_connected(Q):
        raise NotConnected("count requires a connected quiver")
    exponent_counts = {}
    loops = [a for a in range(Q.num_arrows) if Q.is_loop(a)]
    for tree in spanning_trees(Q):
        tree_set = set(tree)
        chords = [a for a in range(Q.num_arrows)
                  if a not in tree_set and not Q.is_loop(a)]
        paths = {a: tree_path(Q, tree, a) for a in chords}
        for vals in product(range(alpha), repeat=len(tree)):
            v = dict(zip(tree, vals))
            n_T = alpha * len(loops)
            for a in chords:
                vmax = max(v[e] for e in paths[a])
                e_star = min(e for e in paths[a] if v[e] == vmax)
                n_T += alpha - vmax - (1 if a > e_star else 0)
            exponent_counts[n_T] = exponent_counts.get(n_T, 0) + 1
    poly = QPolynomial.zero()
    for n_T, count in sorted(exponent_counts.items()):
        poly = poly + _q(n_T, count)
    return poly


# -- rank 2 and 3 recurrences for the g-loop quiver ---------------------------

def _rank2_matrix(g: int):
    half = Fraction(1, 2)
    qm = RationalFunction.q
    z = RationalFunction.zero()
    return [
        [qm(4 * g - 3), z, z, z],
        [qm(2 * g - 2, half) * (qm(1) - 1) * (qm(1) + 1), qm(2 * g), z, z],
        [qm(2 * g - 3) * (qm(1) - 1) * (qm(1) + 1), z, qm(2 * g), z],
        [qm(2 * g - 2, half) * (qm(1) - 1) ** 2, z, z, qm(2 * g)],
    ]


def _rank2_initial(g: int):
    # level-one sums over the four conjugacy-class types of GL_2(F_q):
    # scalar, split semisimple, non-semisimple, irreducible quadratic
    qm = RationalFunction.q
    return [
        qm(4 * g) / (qm(1) * (qm(1) - 1) * (qm(1) + 1)),
        qm(2 * g) * (qm(1) - 2) / ((qm(1) - 1) * 2),
        qm(2 * g - 1),
        qm(2 * g + 1) / ((qm(1) + 1) * 2),
    ]


def _rank3_matrix(g: int):
    qm = RationalFunction.q
    z = RationalFunction.zero()
    q = qm(1)
    rows = [
        [qm(9 * g - 8), z, z, z, z, z, z, z, z, z],
        [qm(5 * g - 6) * (qm(3) - 1), qm(5 * g - 3), z, z, z, z, z, z, z, z],
        [qm(5 * g - 8) * (qm(2) - 1) * (qm(3) - 1) / (q - 1), z, qm(5 * g - 3),
         z, z, z, z, z, z, z],
        [qm(3 * g - 5) * (q - 2) * (qm(2) - 1) * (qm(3) - 1) / ((q - 1) * 6),
         qm(3 * g - 2) * (qm(2) - 1) / 2, z, qm(3 * g), z, z, z, z, z, z],
        [qm(3 * g - 4) * (q - 1) * (qm(3) - 1) / 2,
         qm(3 * g - 2) * (q - 1) ** 2 / 2, z, z, qm(3 * g), z, z, z, z, z],
        [qm(3 * g - 5) * (q - 1) * (qm(2) - 1) ** 2 / 3, z, z, z, z, qm(3 * g),
         z, z, z, z],
        [qm(3 * g - 6) * (qm(2) - 1) * (qm(3) - 1), qm(3 * g - 3) * (qm(2) - 1),
         qm(3 * g - 1) * (q - 1), z, z, z, qm(3 * g), z, z, z],
        [qm(3 * g - 7) * (qm(2) - 1) * (qm(3) - 1), z, qm(3 * g - 3) * (q - 1) ** 2,
         z, z, z, z, qm(3 * g), z, z],
        [z, z, qm(3 * g - 3) * (q - 1), z, z, z, z, z, qm(3 * g), z],
        [z, z, qm(3 * g - 3) * (q - 1), z, z, z, z, z, z, qm(3 * g)],
    ]
    return rows


def _rank3_initial(g: int):
    qm = RationalFunction.q
    q = qm(1)
    z = RationalFunction.zero()
    return [
        qm(9 * g - 3) / ((qm(2) - 1) * (qm(3) - 1)),
        qm(5 * g - 1) * (q - 2) / ((q - 1) * (qm(2) - 1)),
        qm(5 * g - 3) / (q - 1),
        qm(3 * g) * (q - 2) * (q - 3) / ((q - 1) ** 2 * 6),
        qm(3 * g + 1) / ((q + 1) * 2),
        qm(3 * g + 1) * (qm(2) - 1) / ((qm(3) - 1) * 3),
        qm(3 * g - 1) * (q - 2) / (q - 1),
        qm(3 * g - 2),
        z,
        z,
    ]


def _over_common_denominator(entries):
    """Polynomials w and one polynomial l with entries[i] = w[i] / l."""
    dens = dict.fromkeys(f.den for f in entries)
    l = QPolynomial.one()
    for d in dens:
        # l times d / gcd(l, d): a multiple of both in Z[q]
        l = l * RationalFunction(l, d).den
    for d in dens:
        dens[d] = RationalFunction(l, d).as_polynomial()
    return [f.num * dens[f.den] for f in entries], l


@functools.cache
def _recurrence_data(rank: int, g: int):
    """The rank-2 or rank-3 recurrence of the g-loop quiver over polynomials:
    (rows, lm, w, lv) with matrix = P / lm and initial vector = w / lv, the
    nonzero entries (j, P[i][j]) of each row i of P kept as rows[i]."""
    if rank == 2:
        matrix, vec = _rank2_matrix(g), _rank2_initial(g)
    else:
        matrix, vec = _rank3_matrix(g), _rank3_initial(g)
    n = len(vec)
    flat, lm = _over_common_denominator([e for row in matrix for e in row])
    rows = tuple(tuple((j, p) for j, p in enumerate(flat[i * n:(i + 1) * n]) if p)
                 for i in range(n))
    w, lv = _over_common_denominator(vec)
    return rows, lm, tuple(w), lv


def _iterate_recurrence(rank: int, g: int, steps: int) -> RationalFunction:
    """Sum of the entries of matrix^steps vec for the recurrence of
    _recurrence_data: sum(P^steps w) / (lv lm^steps).  The steps run on
    polynomials, and the quotient is reduced once."""
    rows, lm, w, lv = _recurrence_data(rank, g)
    for _ in range(steps):
        w = [sum((p * w[j] for j, p in row), QPolynomial.zero()) for row in rows]
    return RationalFunction(sum(w, QPolynomial.zero()), lv * lm ** steps)


def gloop_rank2_recurrence(g: int, alpha: int) -> RationalFunction:
    """All-class count M in rank 2 for the g-loop quiver over O_alpha."""
    _check_at_least("alpha", alpha, 1)
    _check_at_least("g", g, 0)
    return _iterate_recurrence(2, g, alpha - 1)


def gloop_rank3_recurrence(g: int, alpha: int) -> RationalFunction:
    """All-class count M in rank 3 for the g-loop quiver over O_alpha."""
    _check_at_least("alpha", alpha, 1)
    _check_at_least("g", g, 0)
    return _iterate_recurrence(3, g, alpha - 1)


def gloop_kac_rank2(g: int, alpha: int) -> RationalFunction:
    """Absolutely indecomposable count in rank 2, from the recurrence and
    the series conversion (rank 1 count is q^(alpha g))."""
    series = one_vertex_m_series(g, alpha, 2)
    return m_to_a(series).coefficient((2,))


def gloop_kac_rank3(g: int, alpha: int) -> RationalFunction:
    series = one_vertex_m_series(g, alpha, 3)
    return m_to_a(series).coefficient((3,))


def one_vertex_m_series(g: int, alpha: int, rank_bound: int) -> TruncatedSeries:
    """All-class counting series of the g-loop quiver up to the rank bound."""
    coeffs = {(0,): RationalFunction.one(), (1,): RationalFunction.q(alpha * g)}
    if rank_bound >= 2:
        coeffs[(2,)] = gloop_rank2_recurrence(g, alpha)
    if rank_bound >= 3:
        coeffs[(3,)] = gloop_rank3_recurrence(g, alpha)
    if rank_bound >= 4:
        raise CapExceeded(f"all-class counts capped at rank 3; this series needs rank {rank_bound}")
    return TruncatedSeries(("t",), (rank_bound,), coeffs)


def m_to_a(m_series: TruncatedSeries) -> TruncatedSeries:
    """Recover absolutely indecomposable counts from all-class counts:
    the all-class series is the plethystic exponential of the other."""
    return plethystic_log(m_series)


# -- rank-one fiber counts -----------------------------------------------------

def rank1_fiber_count(Q: Quiver, alpha: int) -> RationalFunction:
    """#mu^{-1}(0) over O_alpha in rank all-one, assembled from the toric
    counts of vertex-subset restrictions.

    q^(alpha E) sum over vertex partitions into parts with connected
    restriction of (1 - q^-1)^(V - s) prod_j A(Q|I_j, alpha); partitions
    with a disconnected part carry no indecomposables and drop out.
    """
    _check_at_least("alpha", alpha, 0)
    V = Q.num_vertices
    E = Q.num_arrows
    terms = []
    for partition in set_partitions(range(V)):
        parts = []
        ok = True
        for block in partition:
            sub = restrict_vertices(Q, block)
            if not is_connected(sub):
                ok = False
                break
            parts.append(sub)
        if not ok:
            continue
        term = RationalFunction.one()
        for sub in parts:
            term = term * RationalFunction(toric_kac_wyss(sub, alpha))
        s = len(partition)
        factor = (RationalFunction.one()
                  - RationalFunction.q(-1)) ** (V - s)
        terms.append(term * factor)
    return RationalFunction.q(alpha * E) * rf_sum(terms)


# -- limits and Hilbert series ---------------------------------------------------

@functools.lru_cache(maxsize=64)
def _lattice_supersets(Q: Quiver):
    """Per class-lattice state m, the pairs (m', mu) over m' > m in rising
    order, mu = prod_c C(k_c - m_c, m'_c - m_c) the subsets with counts m'
    above one with counts m: prod_c (k_c+1)(k_c+2)/2 <= 3^E pairs m <= m'."""
    sizes = [k for _, k in _parallel_classes(Q)]
    pairs = prod((k + 1) * (k + 2) // 2 for k in sizes)
    if pairs > MAX_LATTICE_PAIRS:
        raise CapExceeded(f"lattice sums capped at {MAX_LATTICE_PAIRS} state pairs; "
                          f"this quiver needs {pairs}")
    ups = [((0, 1),)]  # class by class, state p and superset s go to p(k+1)+j, s(k+1)+j+d
    for k in sizes:
        ups = [tuple((s * (k + 1) + j + d, mu * comb(k - j, d))
                     for s, mu in up for d in range(k + 1 - j))
               for up in ups for j in range(k + 1)]
    return tuple(up[1:] for up in ups)  # up[0] is the state itself


def _multiset_sum(values, pairs, start=None) -> RationalFunction:
    """start plus the sum of mu values[j] over the pairs (j, mu)."""
    return rf_sum((values[j] if mu == 1 else mu * values[j] for j, mu in pairs), start)


def _gap_weights(b: int):
    """1/(q^k - 1) for each gap k = 1..b below the top Betti number b: the
    chain weight of limit_A, and u/(1 - u) at u = q^-k in the face sum."""
    return {k: RationalFunction(1, _q(k) - 1) for k in range(1, b + 1)}


def limit_A(Q: Quiver) -> RationalFunction:
    """Limit of q^(-alpha b) times the toric count as alpha grows:
    (1 - q^-1)^b sum_m prod_c C(k_c, m_c) h(m) over the class lattice, where
    h(k) = 1 and h(m) = 1/(q^(b - b(m)) - 1) sum over m' > m of
    prod_c C(k_c - m_c, m'_c - m_c) h(m') sums the chains of subsets up."""
    if not is_2_connected(Q):
        raise Not2Connected("the limit exists only for 2-connected quivers")
    ups, lattice = _lattice_supersets(Q), _class_lattice(Q)  # the cap before the lattice
    b, h = lattice.betti[-1], [RationalFunction.one()] * len(ups)
    weight = _gap_weights(b)
    for m in range(len(ups) - 2, -1, -1):
        h[m] = weight[b - lattice.betti[m]] * _multiset_sum(h, ups[m])
    total = _multiset_sum(h, enumerate(lattice.weight))
    return (RationalFunction.one() - RationalFunction.q(-1)) ** b * total


def limit_B(Q: Quiver) -> RationalFunction:
    """Normalized limit of the rank-all-one zero-fiber count:
    (1 - q^-1)^(V - 1) times limit_A."""
    return limits(Q)[1]


def limits(Q: Quiver):
    """(limit_A, limit_B) from one chain sum."""
    A = limit_A(Q)
    return A, A * (RationalFunction.one() - RationalFunction.q(-1)) ** (Q.num_vertices - 1)


def order_complex_hilbert(Q: Quiver) -> RationalFunction:
    """Hilbert series of the face ring of the chain complex on proper
    nonempty arrow subsets at u_E = q^-(b - b_E): 1 + sum over 0 < m < k of
    prod_c C(k_c, m_c) G(m) on the class lattice, where z = u/(1 - u) and
    G(m) = z(m)(1 + sum over m < m' < k of prod_c C(k_c - m_c, m'_c - m_c) G(m'))."""
    if not is_2_connected(Q):
        raise Not2Connected("needs a 2-connected quiver")
    ups, lattice = _lattice_supersets(Q), _class_lattice(Q)  # the cap before the lattice
    b, top, one = lattice.betti[-1], len(ups) - 1, RationalFunction.one()
    z = _gap_weights(b)
    G = [one] * len(ups)
    for m in range(top - 1, 0, -1):
        # the superset list ends with the full state, which is no face
        G[m] = z[b - lattice.betti[m]] * _multiset_sum(G, ups[m][:-1], one)
    return _multiset_sum(G, ((m, lattice.weight[m]) for m in range(1, top)), one)


# -- zeta-function expansion ------------------------------------------------------

def _fiber_counts(z, q_m):
    """N_1..N_n from the T-coefficients z_0..z_(n-1) of a zeta function.

    The counting series sum_n N_n (q^-m T)^n equals (1 - T Z(T)) / (1 - T),
    whose T^n coefficient is 1 - z_0 - ... - z_(n-1); so
    N_n = (q^m)^n (1 - z_0 - ... - z_(n-1)).
    """
    out, rest, scale = [], 1, 1
    for zk in z:
        rest = rest - zk
        scale = scale * q_m
        out.append(scale * rest)
    return out


def poincare_symbolic(z_num, z_den, ambient_dim: int, n_max: int):
    """Fiber counts N_1..N_n as rational functions of q, from a zeta
    function Z = z_num / z_den in T = q^{-s} given by its T-coefficient
    lists (see _fiber_counts); z_den[0] must be nonzero."""
    z = _long_division(dict(enumerate(z_num)), dict(enumerate(z_den)), n_max - 1)
    return _fiber_counts(z, RationalFunction.q(ambient_dim))


# -- the Kronecker pipeline ------------------------------------------------------------

def kronecker_kac_via_zeta(r: int, alpha: int) -> RationalFunction:
    """Rank-(1,2) absolutely indecomposable count of the r-Kronecker quiver,
    reconstructed from its zeta function through the counting series.

    The zero-fiber count in rank (1,2) comes from the zeta expansion; the
    remaining series coefficients are assembled from first principles
    (rank-one fibers via the partition formula, trivial fibers in ranks
    with no arrows); the absolutely indecomposable count then falls out of
    the plethystic logarithm.
    """
    _check_at_least("alpha", alpha, 1)
    Q = kronecker_quiver(r)
    one = RationalFunction.one()
    fibers = {v: one for v in ((0, 0), (1, 0), (0, 1), (0, 2))}
    fibers[(1, 1)] = rank1_fiber_count(Q, alpha)
    fibers[(1, 2)] = poincare_symbolic(*kronecker_Z(r), 4 * r, alpha)[alpha - 1]
    # the fiber count N_v enters the series as N_v q^(alpha <v,v>) / |GL_v(O_alpha)|
    coeffs = {v: n * RationalFunction.q(alpha * euler_form(Q, v, v))
              / RationalFunction(gl_order(_q(1), alpha, v[0]) * gl_order(_q(1), alpha, v[1]))
              for v, n in fibers.items()}
    a_series = plethystic_log(TruncatedSeries(("t1", "t2"), (1, 2), coeffs))
    return a_series.coefficient((1, 2)) * (one - RationalFunction.q(-1))
