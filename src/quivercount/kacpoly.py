"""Symbolic counting engines.

Two independent formulas for the count of rank-all-one absolutely
indecomposable representations over O_alpha (one summing over chains of
edge subsets, one over valued spanning trees), linear recurrences in alpha
for the one-vertex quiver in ranks 2 and 3, the conversion between
all-class and absolutely-indecomposable counts through the plethystic
exponential, zero-fiber counts of the moment map in rank all-one, the
alpha -> infinity limits and their Hilbert-series form, and the expansion
of local zeta functions into fiber counts.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product

from .closedforms import kronecker_Z
from .errors import CapExceeded, Not2Connected, NotConnected, UnsupportedParameter
from .localring import gl_order
from .qpolynomial import QPolynomial, RationalFunction, _long_division, rf_sum
from .quiver import (Quiver, _betti_by_subset, euler_form, is_2_connected,
                     is_connected, kronecker_quiver, restrict_vertices,
                     set_partitions, spanning_trees, tree_path)
from .series import TruncatedSeries, plethystic_exp, plethystic_log

_q = QPolynomial.q


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise UnsupportedParameter(f"{name} must be >= {least}, got {value}")


# -- toric Kac polynomials ----------------------------------------------------

def toric_kac_wyss(Q: Quiver, alpha: int) -> QPolynomial:
    """Count of rank-all-one absolutely indecomposable classes over O_alpha,
    as a sum over chains E_1 <= ... <= E_alpha of arrow subsets whose last
    term spans a connected subgraph: (q-1)^b(E_alpha) q^(sum b(E_k), k<alpha).

    The chains are summed level by level on the subset lattice.  With
    g_0(S) = [S empty] and g_{k+1}(S) = sum over T <= S of q^b(T) g_k(T),
    g_k(S) counts the chains E_1 <= ... <= E_{k-1} <= S by their exponent,
    and the count is the sum over connected spanning S of
    (q-1)^b(S) g_alpha(S).  Each level is one subset-sum (zeta) transform
    over the 2^E arrow masks, so the cost is O(alpha E 2^E) where the chains
    number (alpha+1)^E.
    """
    _check_at_least("alpha", alpha, 0)
    if not is_connected(Q):
        raise NotConnected("count requires a connected quiver")
    E = Q.num_arrows
    b_of, comps = _betti_by_subset(Q)
    # g_k(S) is packed into one integer, the count of q^s in bits
    # [s w, (s+1) w); no coefficient of any sum below reaches the
    # (alpha+1)^E chains in all, so the fields never carry into each other
    w = ((max(alpha, 0) + 1) ** E).bit_length()
    g = [0] * (1 << E)
    g[0] = 1
    for _ in range(alpha):
        g = [x << w * b_of[mask] for mask, x in enumerate(g)]
        for a in range(E):
            bit = 1 << a
            for mask in range(1 << E):
                if mask & bit:
                    g[mask] += g[mask ^ bit]
    by_betti = {}
    for mask, packed in enumerate(g):
        if comps[mask] == 1:
            by_betti[b_of[mask]] = by_betti.get(b_of[mask], 0) + packed
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


def a_to_m(a_series: TruncatedSeries) -> TruncatedSeries:
    return plethystic_exp(a_series)


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

def _proper_supersets(mask: int, E: int):
    """Every subset of the E arrows that strictly contains mask."""
    free = [a for a in range(E) if not mask >> a & 1]
    for extra_bits in range(1, 1 << len(free)):
        sup = mask
        for idx, a in enumerate(free):
            if extra_bits >> idx & 1:
                sup |= 1 << a
        yield sup


def _gap_weights(b: int):
    """1/(q^k - 1) for each gap k = 1..b between the top Betti number b and
    a subset's: the chain weight of _subset_chain_dp, and u/(1 - u) at
    u = q^-k in order_complex_hilbert."""
    return {k: RationalFunction(1, _q(k) - 1) for k in range(1, b + 1)}


def _subset_chain_dp(Q: Quiver):
    """h(S) over subsets S of arrows: sum over strictly increasing chains
    from S to the full set of prod 1/(q^(b - b_j) - 1) over proper terms."""
    E = Q.num_arrows
    b_of, _ = _betti_by_subset(Q)
    b = b_of[(1 << E) - 1]
    full = (1 << E) - 1
    weight = _gap_weights(b)
    h = {full: RationalFunction.one()}
    # iterate subsets by decreasing popcount
    by_size = {}
    for mask in range(1 << E):
        by_size.setdefault(bin(mask).count("1"), []).append(mask)
    for size in range(E - 1, -1, -1):
        for mask in by_size.get(size, []):
            acc = rf_sum(h[sup] for sup in _proper_supersets(mask, E))
            h[mask] = weight[b - b_of[mask]] * acc
    return h, b


def limit_A(Q: Quiver) -> RationalFunction:
    """Limit of q^(-alpha b) times the toric count as alpha grows:
    (1 - q^-1)^b sum over chains of subsets ending at the full arrow set."""
    if not is_2_connected(Q):
        raise Not2Connected("the limit exists only for 2-connected quivers")
    if Q.num_arrows > 10:
        raise CapExceeded(f"chain sum capped at 10 arrows; this quiver has {Q.num_arrows} arrows")
    h, b = _subset_chain_dp(Q)
    total = rf_sum(h.values())
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
    nonempty arrow subsets, specialized at u_E = q^-(b - b_E)."""
    if not is_2_connected(Q):
        raise Not2Connected("needs a 2-connected quiver")
    E = Q.num_arrows
    if E > 10:
        raise CapExceeded(f"face sum capped at 10 arrows; this quiver has {E} arrows")
    b_of, _ = _betti_by_subset(Q)
    full = (1 << E) - 1
    b = b_of[full]
    # z(S) = u_S/(1 - u_S); G(S) = z(S)(1 + sum over proper supersets G)
    z = _gap_weights(b)
    G = {}
    masks = sorted(range(1, full), key=lambda m: -bin(m).count("1"))
    for mask in masks:
        acc = rf_sum((G[sup] for sup in _proper_supersets(mask, E) if sup != full),
                     RationalFunction.one())
        G[mask] = z[b - b_of[mask]] * acc
    return rf_sum(G.values(), RationalFunction.one())


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


def poincare_from_zeta(Z: RationalFunction, q0, ambient_dim: int, n_max: int):
    """Numeric fiber counts [N_1, ..., N_n] from a zeta function already
    evaluated at q0 (see _fiber_counts), as Fractions.

    Z is a rational function in the variable T and must be regular at T = 0,
    as every zeta function of the package is.
    """
    z = Z.taylor_coefficients(n_max - 1)
    return _fiber_counts(z, Fraction(q0) ** ambient_dim)


def zeta_fixed_q(z_num, z_den, q0) -> RationalFunction:
    """Specialize a symbolic zeta function at q = q0, leaving T formal."""
    num = QPolynomial({k: c.evaluate(q0) for k, c in enumerate(z_num)})
    den = QPolynomial({k: c.evaluate(q0) for k, c in enumerate(z_den)})
    return RationalFunction(num, den)


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
