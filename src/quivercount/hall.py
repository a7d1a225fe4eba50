"""The Ringel-Hall algebra of the one-arrow two-vertex quiver over O_alpha.

Representations of rank (r1, r2) are single matrices x over O_alpha of
shape r2 x r1, and their orbits under base change are classified by the
Smith data (q_0, ..., q_{alpha-1}): the multiset of diagonal powers t^i
padded with zero blocks.  Constructible functions constant on orbits form
a graded vector space; the product integrates over locally free submodule
flags at a fixed prime power, the coproduct evaluates on direct sums.

Conventions: in f1 * f2, the second factor restricts to the submodule and
the first to the quotient, which makes 1_{e2} * 1_{e1} the indicator of
the zero orbit in rank (1,1) and 1_{e1} * 1_{e2} the constant function 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .errors import CapExceeded, DimensionMismatch, UnsupportedParameter
from .localring import OMatrix, ORing, smith_invariants

MAX_TOTAL_RANK = 4
MAX_ALPHA = 3
MAX_Q = 9
MAX_SUMMAND_PAIRS = 2 * 10 ** 5  # a flag table of ~4 s, 40 MiB at 20 us, 0.2 KiB a pair

# sample points for reading off structure constants as polynomials in q;
# six points pin the degree (at most 2 alpha <= 4) with room to spare
EULER_SAMPLE_POINTS = (2, 3, 4, 5, 7, 9)


def all_orbit_labels(rank, alpha: int):
    """Smith tuples (q_0..q_{alpha-1}) with sum at most min(rank)."""
    r = min(rank)
    labels = []
    for combo in product(range(r + 1), repeat=alpha):
        if sum(combo) <= r:
            labels.append(combo)
    return sorted(labels)


def orbit_representative(ring: ORing, rank, label) -> OMatrix:
    """Canonical matrix diag(t^0 I_{q_0}, ..., t^{alpha-1} I_{q_{alpha-1}}, 0)."""
    r1, r2 = rank
    powers = []
    for i, cnt in enumerate(label):
        powers.extend([i] * cnt)
    entries = [[ring.zero] * r1 for _ in range(r2)]
    for k, p in enumerate(powers):
        entries[k][k] = ring.t_power(p)
    return OMatrix(ring, entries, shape=(r2, r1))


def orbit_label_of(x: OMatrix, alpha: int):
    gammas = smith_invariants(x)
    label = [0] * alpha
    for g in gammas:
        if g < alpha:
            label[g] += 1
    return tuple(label)


def is_indecomposable_label(rank, label) -> bool:
    """The module of a label splits into t^i-blocks and vertex simples;
    it is indecomposable iff there is exactly one summand."""
    r1, r2 = rank
    r = sum(label)
    summands = r + (r1 - r) + (r2 - r)
    return summands == 1


@dataclass
class HallFunction:
    """Orbit-constant function on representations of one fixed rank."""
    rank: tuple
    alpha: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rank = tuple(int(x) for x in self.rank)
        self.values = {tuple(k): Fraction(v) for k, v in self.values.items() if v}

    @staticmethod
    def indicator(rank, alpha, label) -> "HallFunction":
        return HallFunction(rank, alpha, {tuple(label): Fraction(1)})

    @staticmethod
    def constant(rank, alpha, value=1) -> "HallFunction":
        return HallFunction(rank, alpha,
                            {lab: Fraction(value) for lab in all_orbit_labels(rank, alpha)})

    def value(self, label) -> Fraction:
        return self.values.get(tuple(label), Fraction(0))

    def __add__(self, other):
        if self.rank != other.rank or self.alpha != other.alpha:
            raise ValueError("Hall functions of different degrees")
        vals = dict(self.values)
        for k, v in other.values.items():
            vals[k] = vals.get(k, Fraction(0)) + v
        return HallFunction(self.rank, self.alpha, vals)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "HallFunction":
        return HallFunction(self.rank, self.alpha,
                            {k: v * c for k, v in self.values.items()})

    def __eq__(self, other):
        return (isinstance(other, HallFunction) and self.rank == other.rank
                and self.alpha == other.alpha and self.values == other.values)

    def __repr__(self):
        return f"HallFunction(rank={self.rank}, alpha={self.alpha}, values={self.values})"


# -- submodule machinery -------------------------------------------------------

def _free_summands(ring: ORing, ambient: int, k: int):
    """Rank-k direct summands of O^ambient, as (basis, pivots) pairs.

    Modulo t a summand is a k-plane of F_q^ambient; its pivots P are the
    first k rows that stay independent there.  The summand has exactly one
    basis B with B[P] = I_k, and in a row i outside P the entry of column
    j is free when p_j < i and lies in tO when p_j > i, since row i depends
    on the earlier pivot rows modulo t.  Each summand is listed once.
    """
    if k > ambient:
        return []
    elements = list(ring.elements())
    in_t = [a for a in elements if a[0] == 0]
    unit_rows = [tuple(ring.one if j == i else ring.zero for j in range(k))
                 for i in range(k)]
    out = []
    for pivots in combinations(range(ambient), k):
        cells = [[unit_rows[pivots.index(i)]] if i in pivots else
                 product(*(elements if p < i else in_t for p in pivots))
                 for i in range(ambient)]
        out.extend((OMatrix(ring, rows, shape=(ambient, k)), pivots)
                   for rows in product(*cells))
    return out


_SUMMAND_CACHE = {}


def free_summands(ring: ORing, ambient: int, k: int):
    key = (ring.q, ring.alpha, ambient, k)
    if key not in _SUMMAND_CACHE:
        _SUMMAND_CACHE[key] = _free_summands(ring, ambient, k)
    return _SUMMAND_CACHE[key]


def _summand_count(n: int, k: int, q: int, alpha: int) -> int:
    """len(_free_summands(ring, n, k)) = q^((alpha-1)k(n-k)) [n choose k]_q."""
    return (q ** ((alpha - 1) * k * (n - k)) * math.prod(q ** (n - i) - 1 for i in range(k))
            // math.prod(q ** i - 1 for i in range(1, k + 1)))


def _check_caps(rank, sub_rank, alpha, q):
    for name, value, cap in (("total rank", sum(rank), MAX_TOTAL_RANK),
                             ("alpha", alpha, MAX_ALPHA), ("q", q, MAX_Q)):
        if value > cap:
            raise CapExceeded(f"Hall computation capped at {name} {cap}; "
                              f"this product needs {name} {value}")
    pairs = math.prod(_summand_count(n, k, q, alpha) for n, k in zip(rank, sub_rank))
    if pairs > MAX_SUMMAND_PAIRS:
        raise CapExceeded(f"Hall computation capped at {MAX_SUMMAND_PAIRS} summand pairs; "
                          f"this product needs {pairs} summand pairs")


_FLAG_CACHE = {}


def _flag_table(q: int, alpha: int, rank, sub_rank):
    """For each orbit label: the (sub-label, quotient-label) census over all
    x-stable free summand pairs of the given sub-rank.

    A summand basis B is the identity on its pivot rows P, so in the basis
    [B | e_rest] of O^n a vector v has coordinates v[P] on B and
    v[rest] - B[rest] v[P] on e_rest.  So x B1 lies in the second summand
    iff B2[rest2] (x B1)[P2] = (x B1)[rest2]: only the rows outside P2 are
    tested.  In these bases x has the sub block (x B1)[P2] and the quotient
    block x[rest2, rest1] - B2[rest2] x[P2, rest1], both built as entry
    tuples with the ring's tables.

    The table drives every product in this degree, so it is built once per
    (q, alpha, rank, sub_rank).  Many pairs share a block, so each distinct
    sub or quotient block becomes a matrix and gets its label once per
    build, keyed by its entries (which fix the label: an empty block has the
    zero label whatever its shape)."""
    key = (q, alpha, tuple(rank), tuple(sub_rank))
    if key in _FLAG_CACHE:
        return _FLAG_CACHE[key]
    ring = ORing(q, alpha)
    add, sub, mul, zero = ring.add_table, ring.sub_table, ring.mul_table, ring.zero
    k1, k2 = sub_rank
    pairs1 = free_summands(ring, rank[0], k1)
    pairs2 = []
    for basis, pivots in free_summands(ring, rank[1], k2):
        rest = [i for i in range(rank[1]) if i not in pivots]
        pairs2.append((pivots, rest, [basis.entries[i] for i in rest]))
    labels = {}

    def dot(u, v):
        acc = zero
        for a, b in zip(u, v):
            acc = add[acc, mul[a, b]]
        return acc

    def label_of(entries, shape):
        if entries not in labels:
            labels[entries] = orbit_label_of(OMatrix(ring, entries, shape=shape), alpha)
        return labels[entries]

    table = {}
    for label in all_orbit_labels(rank, alpha):
        x = orbit_representative(ring, rank, label)
        columns = list(zip(*x.entries)) or [()] * rank[0]
        census = {}
        for basis1, pivots1 in pairs1:
            images = [x.apply(column) for column in zip(*basis1.entries)]
            cols1 = [columns[j] for j in range(rank[0]) if j not in pivots1]  # x[:, rest1]
            for pivots2, rest2, below2 in pairs2:
                coords = [tuple(v[p] for p in pivots2) for v in images]
                if any(dot(row, c) != v[i] for c, v in zip(coords, images)
                       for i, row in zip(rest2, below2)):
                    continue
                quo = tuple(tuple(sub[col[i], dot(row, [col[p] for p in pivots2])]
                                  for col in cols1)
                            for i, row in zip(rest2, below2))
                pair = (label_of(tuple(zip(*coords)), (k2, k1)),
                        label_of(quo, (len(rest2), len(cols1))))
                census[pair] = census.get(pair, 0) + 1
        table[label] = census
    _FLAG_CACHE[key] = table
    return table


def hall_product(f1: HallFunction, f2: HallFunction, q: int) -> HallFunction:
    """(f1 * f2)(x) sums f1(x on the quotient) f2(x on the submodule) over
    x-stable free summand pairs of rank f2.rank, at the given prime power."""
    if f1.alpha != f2.alpha:
        raise ValueError("mixed truncation levels")
    alpha = f1.alpha
    rank = (f1.rank[0] + f2.rank[0], f1.rank[1] + f2.rank[1])
    _check_caps(rank, f2.rank, alpha, q)
    table = _flag_table(q, alpha, rank, f2.rank)
    values = {}
    for label, census in table.items():
        total = Fraction(0)
        for (sub_label, quo_label), count in census.items():
            v2 = f2.value(sub_label)
            if not v2:
                continue
            total += count * f1.value(quo_label) * v2
        if total:
            values[label] = total
    return HallFunction(rank, alpha, values)


def hall_coproduct(f: HallFunction):
    """Delta(f) evaluated on direct sums, as a list of tensor summands.

    Each summand is (indicator of a left orbit, right-component function);
    direct sums concatenate Smith data and add rank deficits.
    """
    alpha = f.alpha
    out = []
    r1, r2 = f.rank
    for s1 in range(r1 + 1):
        for s2 in range(r2 + 1):
            left_rank = (s1, s2)
            right_rank = (r1 - s1, r2 - s2)
            for lab1 in all_orbit_labels(left_rank, alpha):
                right_vals = {}
                for lab2 in all_orbit_labels(right_rank, alpha):
                    summed = tuple(a + b for a, b in zip(lab1, lab2))
                    if sum(summed) > min(r1, r2):
                        continue
                    v = f.value(summed)
                    if v:
                        right_vals[lab2] = v
                if right_vals:
                    out.append((HallFunction.indicator(left_rank, alpha, lab1),
                                HallFunction(right_rank, alpha, right_vals)))
    return out


def primitive_space_dim(rank, alpha: int) -> int:
    """Dimension of the primitive subspace in one degree: the number of
    indecomposable orbits."""
    return sum(1 for lab in all_orbit_labels(rank, alpha)
               if is_indecomposable_label(rank, lab))


def bracket(f1: HallFunction, f2: HallFunction, q: int) -> HallFunction:
    return hall_product(f1, f2, q) - hall_product(f2, f1, q)


def structure_constants(rank1, rank2, alpha: int, q: int):
    """Products of all orbit-indicator pairs, as a nested dictionary
    {(label1, label2): {label: value}}.

    1_{label1} * 1_{label2} at an orbit is the number of its flags with
    sub-label label2 and quotient-label label1, so every product reads the
    one flag table of the degree (see hall_product)."""
    if alpha < 1:
        raise UnsupportedParameter(f"alpha must be >= 1, got {alpha}")
    for rank in (rank1, rank2):
        if len(rank) != 2:
            raise DimensionMismatch(f"Hall degrees need 2 entries, got {len(rank)}")
        if min(rank) < 0:
            raise UnsupportedParameter(f"Hall degrees must be >= 0, got {list(rank)}")
    rank = (rank1[0] + rank2[0], rank1[1] + rank2[1])
    _check_caps(rank, rank2, alpha, q)
    table = _flag_table(q, alpha, rank, rank2)
    return {(lab1, lab2): {label: Fraction(census[lab2, lab1])
                           for label, census in table.items() if (lab2, lab1) in census}
            for lab1 in all_orbit_labels(rank1, alpha)
            for lab2 in all_orbit_labels(rank2, alpha)}


def _interpolate_at_one(samples) -> Fraction:
    """Value at q = 1 of the polynomial through (point, value) samples."""
    total = Fraction(0)
    points = [Fraction(p) for p, _ in samples]
    for i, (xi, yi) in enumerate(samples):
        term = Fraction(yi)
        for j, xj in enumerate(points):
            if j != i:
                term *= (1 - xj) / (Fraction(xi) - xj)
        total += term
    return total


def hall_product_euler(f1: HallFunction, f2: HallFunction) -> HallFunction:
    """The Euler-characteristic shadow of the product.

    Flag counts are polynomial in q at these ranks; the constructible
    convolution over the complex numbers integrates Euler characteristics,
    which is the specialization of those polynomials at q = 1.  Values are
    read off by interpolation through the sample points.
    """
    if f1.alpha > 2:
        raise CapExceeded("Euler-shadow products capped at alpha 2; "
                          f"this product needs alpha {f1.alpha}")
    sampled = [hall_product(f1, f2, p) for p in EULER_SAMPLE_POINTS]
    rank = sampled[0].rank
    alpha = f1.alpha
    values = {}
    for label in all_orbit_labels(rank, alpha):
        v = _interpolate_at_one(
            [(p, s.value(label)) for p, s in zip(EULER_SAMPLE_POINTS, sampled)])
        if v:
            values[label] = v
    return HallFunction(rank, alpha, values)


def bracket_euler(f1: HallFunction, f2: HallFunction) -> HallFunction:
    return hall_product_euler(f1, f2) - hall_product_euler(f2, f1)
