"""Symbolic-layer algorithms that faster ones replaced, kept as test oracles.

``reduce_euclid`` is the canonical-form reduction of a quotient of Laurent
polynomials as the package did it with Fraction coefficients and the
Euclidean gcd over Q; it works on plain {exponent: coefficient} dicts so
that it shares no code with ``quivercount.qpolynomial``.
``toric_kac_levels`` is the chain-sum toric count that enumerates all
(alpha+1)^E level vectors of a quiver with E arrows.
``connected_quiver_corpus`` lists the corpus by canonicalising every
connected edge combination under all n! vertex relabellings.
``iterate_recurrence`` runs the g-loop recurrences in rational-function
arithmetic, reducing every entry at every step.
``is_2_connected`` deletes each non-loop arrow in turn and counts the
components of what is left.
``rank3_matrix_checksum`` guards the transcription of the rank-3
recurrence matrix.
``kronecker_A_monomials`` builds the rank-(1,2) Kronecker count with its
tent listed monomial by monomial, some alpha^2 of them.
``restrict_arrows``, ``delete`` and ``contract`` are the arrow operations
the oracles and the deletion-contraction law of spanning trees use; no count
of the package needs them.
``subset_tables`` gives the Betti number and component count of each arrow
subset.  ``limit_A_subsets`` and ``hilbert_subsets`` are the chain and face sums of
``limit_A`` and ``order_complex_hilbert`` over all 3^E pairs of arrow
masks, one state per subset rather than per count vector of the parallel
classes.
``zeta_fixed_q`` and ``poincare_from_zeta`` are the numeric route from a
zeta function to fiber counts: the zeta function evaluated at one q, then
expanded in T with Fraction coefficients, against which
``kacpoly.poincare_symbolic`` is checked.
"""

import functools
import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import gcd

from quivercount.kacpoly import _fiber_counts, _rank3_matrix
from quivercount.qpolynomial import QPolynomial, RationalFunction, rf_sum
from quivercount.quiver import Quiver, betti, connected_components, is_connected


def _clean(d):
    return {e: c for e, c in d.items() if c}


def _divmod(a, b):
    rem = dict(a)
    quo = {}
    dB = max(b)
    lcB = b[dB]
    while rem and max(rem) >= dB:
        dA = max(rem)
        c = rem[dA] / lcB
        quo[dA - dB] = c
        for e, bc in b.items():
            e2 = e + dA - dB
            s = rem.get(e2, Fraction(0)) - c * bc
            if s:
                rem[e2] = s
            else:
                rem.pop(e2, None)
    return quo, rem


def _gcd_monic(a, b):
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
    lc = a[max(a)]
    return {e: c / lc for e, c in a.items()}


def reduce_euclid(num, den):
    """(num, den) in canonical form as Fraction dicts: no Laurent terms,
    coprime over Q[q], jointly primitive integers, positive leading den."""
    num = _clean({e: Fraction(c) for e, c in num.items()})
    den = _clean({e: Fraction(c) for e, c in den.items()})
    if not num:
        return {}, {0: Fraction(1)}
    k = min(num) - min(den)
    num = {e - min(num): c for e, c in num.items()}
    den = {e - min(den): c for e, c in den.items()}
    g = _gcd_monic(num, den)
    if max(g) > 0:
        num, _ = _divmod(num, g)
        den, _ = _divmod(den, g)
    if k > 0:
        num = {e + k: c for e, c in num.items()}
    elif k < 0:
        den = {e - k: c for e, c in den.items()}
    lcm = 1
    for p in (num, den):
        for c in p.values():
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    g = 0
    for p in (num, den):
        for c in p.values():
            g = gcd(g, abs((c * lcm).numerator))
    scale = Fraction(lcm, g)
    if den[max(den)] < 0:
        scale = -scale
    return ({e: c * scale for e, c in num.items()},
            {e: c * scale for e, c in den.items()})


def restrict_arrows(Q, J):
    """Subquiver with all vertices and only the arrows in J (order kept)."""
    J = set(int(j) for j in J)
    return Quiver(Q.vertices, [Q.arrows[a] for a in range(Q.num_arrows) if a in J])


def delete(Q, a):
    return Quiver(Q.vertices, [arr for k, arr in enumerate(Q.arrows) if k != a])


def contract(Q, a):
    """Contract the non-loop arrow a, merging its endpoints.

    The surviving arrows keep their relative order; parallel arrows to the
    contracted one become loops at the merged vertex.
    """
    s, t = Q.arrows[a]
    if s == t:
        raise ValueError(f"arrow {a} is a loop")
    lo, hi = min(s, t), max(s, t)

    def new_index(v):
        if v == hi:
            return lo
        return v - 1 if v > hi else v

    vertices = [f"{Q.vertices[lo]}~{Q.vertices[hi]}" if v == lo else Q.vertices[v]
                for v in range(Q.num_vertices) if v != hi]
    arrows = [(new_index(x), new_index(y))
              for k, (x, y) in enumerate(Q.arrows) if k != a]
    return Quiver(vertices, arrows)


@functools.cache
def subset_tables(Q):
    """Betti numbers and component counts of Q restricted to each arrow
    mask, each restriction built as a quiver of its own."""
    subs = [restrict_arrows(Q, [a for a in range(Q.num_arrows) if mask >> a & 1])
            for mask in range(1 << Q.num_arrows)]
    return [betti(sub) for sub in subs], [connected_components(sub) for sub in subs]


def toric_kac_levels(Q, alpha):
    """The toric count as a sum over all level vectors: each arrow enters the
    chain E_1 <= ... <= E_alpha at a level 1..alpha, or never."""
    E = Q.num_arrows
    b_of, comps = subset_tables(Q)
    weights = {}
    for levels in product(range(1, alpha + 2), repeat=E):
        top_mask = 0
        for a in range(E):
            if levels[a] <= alpha:
                top_mask |= 1 << a
        if comps[top_mask] != 1:
            continue
        exp_sum = 0
        for k in range(1, alpha):
            mask_k = 0
            for a in range(E):
                if levels[a] <= k:
                    mask_k |= 1 << a
            exp_sum += b_of[mask_k]
        key = (b_of[top_mask], exp_sum)
        weights[key] = weights.get(key, 0) + 1
    q = QPolynomial.q
    poly = QPolynomial.zero()
    for (b_top, s), count in sorted(weights.items()):
        poly = poly + count * (q(1) - 1) ** b_top * q(s)
    return poly


def connected_quiver_corpus(max_vertices, max_edges):
    """quiver.connected_quiver_corpus, one canonical form per combination."""
    corpus = []
    seen = set()
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for e in range(n - 1, max_edges + 1):
            for combo in combinations_with_replacement(range(len(slots)), e):
                edges = tuple(slots[k] for k in combo)
                Q = Quiver([str(v + 1) for v in range(n)], edges)
                if not is_connected(Q):
                    continue
                canon = None
                for perm in permutations(range(n)):
                    mapped = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
                    if canon is None or mapped < canon:
                        canon = mapped
                key = (n, canon)
                if key in seen:
                    continue
                seen.add(key)
                corpus.append(Quiver([str(v + 1) for v in range(n)],
                                     sorted(canon)))
    return corpus


def iterate_recurrence(matrix, vec, steps):
    """matrix^steps vec for a RationalFunction matrix and vector."""
    for _ in range(steps):
        vec = [sum((matrix[i][j] * vec[j] for j in range(len(vec))),
                   RationalFunction.zero()) for i in range(len(vec))]
    return vec


def is_2_connected(Q):
    """Connected and bridgeless; loops never disconnect anything."""
    if not is_connected(Q):
        return False
    for a in range(Q.num_arrows):
        if Q.is_loop(a):
            continue
        if connected_components(delete(Q, a)) > 1:
            return False
    return True


def rank3_matrix_checksum(g=2):
    """Checksum of the frozen transition matrix (transcription guard)."""
    text = ";".join(e.to_string() for row in _rank3_matrix(g) for e in row)
    return hashlib.sha256(text.encode()).hexdigest()


def kronecker_A_monomials(r, alpha):
    """[r choose 2]_q * sum_(k=0..2alpha-2) q^(k(r-2)) [min(k+1, 2alpha-1-k)]_q,
    the binomial from its pairs a <= b <= r-2 and the tent from a Counter
    of its monomials."""
    binomial = QPolynomial(Counter(a + b for b in range(r - 1) for a in range(b + 1)))
    tent = QPolynomial(Counter(k * (r - 2) + j for k in range(2 * alpha - 1)
                               for j in range(min(k + 1, 2 * alpha - 1 - k))))
    return RationalFunction(binomial * tent)


def _proper_supersets(mask, E):
    """Every subset of the E arrows that strictly contains mask."""
    free = [a for a in range(E) if not mask >> a & 1]
    for extra_bits in range(1, 1 << len(free)):
        sup = mask
        for idx, a in enumerate(free):
            if extra_bits >> idx & 1:
                sup |= 1 << a
        yield sup


def _masks_by_falling_size(Q):
    """(E, Betti number of each mask, the Betti number b of all arrows,
    1/(q^k - 1) for each gap k = 1..b, the masks by falling popcount)."""
    E = Q.num_arrows
    b_of, _ = subset_tables(Q)
    b = b_of[-1]
    gaps = {k: RationalFunction(1, QPolynomial.q(k) - 1) for k in range(1, b + 1)}
    return E, b_of, b, gaps, sorted(range(1 << E), key=lambda m: -bin(m).count("1"))


def limit_A_subsets(Q):
    """limit_A of a 2-connected quiver as the chain sum over arrow masks:
    h(full) = 1, h(S) = 1/(q^(b - b(S)) - 1) times the sum of h over the
    proper supersets of S, and the limit is (1 - q^-1)^b sum_S h(S)."""
    E, b_of, b, gaps, masks = _masks_by_falling_size(Q)
    full = (1 << E) - 1
    h = {full: RationalFunction.one()}
    for mask in masks[1:]:
        h[mask] = gaps[b - b_of[mask]] * rf_sum(h[sup] for sup in _proper_supersets(mask, E))
    return (RationalFunction.one() - RationalFunction.q(-1)) ** b * rf_sum(h.values())


def hilbert_subsets(Q):
    """order_complex_hilbert of a 2-connected quiver as the face sum over
    arrow masks: G(S) = z(S)(1 + sum of G over the proper nonempty
    supersets of S short of all arrows), z(S) = 1/(q^(b - b(S)) - 1), and
    the series is 1 + the sum of G over the proper nonempty subsets."""
    E, b_of, b, gaps, masks = _masks_by_falling_size(Q)
    full = (1 << E) - 1
    G = {}
    for mask in masks:
        if mask not in (0, full):
            G[mask] = gaps[b - b_of[mask]] * rf_sum(
                (G[sup] for sup in _proper_supersets(mask, E) if sup != full),
                RationalFunction.one())
    return rf_sum(G.values(), RationalFunction.one())


def zeta_fixed_q(z_num, z_den, q0):
    """Specialize a symbolic zeta function at q = q0, leaving T formal."""
    num = QPolynomial({k: c.evaluate(q0) for k, c in enumerate(z_num)})
    den = QPolynomial({k: c.evaluate(q0) for k, c in enumerate(z_den)})
    return RationalFunction(num, den)


def poincare_from_zeta(Z, q0, ambient_dim, n_max):
    """Numeric fiber counts [N_1, ..., N_n] from a zeta function already
    evaluated at q0 (see kacpoly._fiber_counts), as Fractions.

    Z is a rational function in the variable T and must be regular at T = 0,
    as every zeta function of the package is.
    """
    z = Z.taylor_coefficients(n_max - 1)
    return _fiber_counts(z, Fraction(q0) ** ambient_dim)
