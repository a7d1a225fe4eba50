"""The acceptance suite: every top-level identity the package claims,
checked end to end at its stated scale.

Each check_* function states one criterion: it returns a summary of what it
checked and raises Mismatch, through expect, at the first counterexample.
The decorator criterion(name) names it once, for PASS and FAIL alike, and
makes it return a CheckResult timed with time.perf_counter().  CRITERIA
holds the rows (key, suite, check) in order; the suites group the checks by
flavor: purely symbolic identities, brute-force anchored counts,
symbolic-vs-brute cross checks, and the Hall algebra.  run_checks runs one
suite, or all of them, writing one line per check as it goes.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bruteforce, closedforms, hall, kacpoly
from .bruteforce import Caps, group_order
from .qpolynomial import QPolynomial, RationalFunction
from .quiver import (Quiver, a2_quiver, betti, connected_quiver_corpus,
                     cyclic_quiver, euler_form, is_2_connected, jordan_quiver,
                     kronecker_quiver, loop_quiver)
from .series import TruncatedSeries, VolumeSequence, all_exponents, plethystic_exp


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  ({self.seconds:.1f}s){': ' + self.detail if self.detail else ''}"


class Mismatch(Exception):
    """A counterexample; its message is the detail of the failed CheckResult."""


def expect(holds: bool, detail: str) -> None:
    """Raise Mismatch(detail) unless holds."""
    if not holds:
        raise Mismatch(detail)


def criterion(name: str):
    """Make a check that returns its summary or raises Mismatch into the
    criterion called name, which returns a timed CheckResult."""
    def decorate(check):
        @functools.wraps(check)
        def run() -> CheckResult:
            t0 = time.perf_counter()
            try:
                passed, detail = True, check()
            except Mismatch as exc:
                passed, detail = False, str(exc)
            return CheckResult(name, passed, detail, time.perf_counter() - t0)
        return run
    return decorate


@functools.cache
def corpus():
    return connected_quiver_corpus(4, 6)


# -- criterion 1 --------------------------------------------------------------

@criterion("toric count: chain formula = tree formula, coefficients >= 0")
def check_toric_tables() -> str:
    """Chain formula = tree formula, with nonnegative coefficients, on the
    whole corpus for alpha <= 3."""
    for Q in corpus():
        for alpha in (1, 2, 3):
            tr = kacpoly.toric_kac_trees(Q, alpha)
            expect(kacpoly.toric_kac_wyss(Q, alpha) == tr, f"mismatch on {Q!r} at alpha={alpha}")
            expect(all(c >= 0 for c in tr.coeffs.values()),
                   f"negative coefficient on {Q!r} at alpha={alpha}")
    return f"{len(corpus())} quivers, alpha <= 3"


# -- criterion 2 --------------------------------------------------------------

# criterion 2 runs the corpus censuses of at most 2^20 points, whatever the CLI caps
CENSUS_CAPS = Caps(max_space_log2=20)


@criterion("toric count anchored by orbit census")
def check_toric_brute_anchor() -> str:
    """Toric count evaluated at q equals the orbit-census count of
    absolutely indecomposable classes, across the corpus."""
    checked = 0
    for Q in corpus():
        ones = (1,) * Q.num_vertices
        for alpha in (1, 2):
            for q in (2, 3):
                if alpha * Q.num_arrows * math.log2(q) > CENSUS_CAPS.max_space_log2:
                    continue
                cnt = bruteforce.count_absolutely_indecomposable(Q, alpha, ones, q, CENSUS_CAPS)
                val = kacpoly.toric_kac_wyss(Q, alpha).evaluate(q)
                expect(cnt == val, f"{Q!r} alpha={alpha} q={q}: census {cnt} vs {val}")
                checked += 1
    return f"{checked} instances at q in {{2,3}}, alpha <= 2"


# -- criteria 3 and 4 ----------------------------------------------------------

# (g, alpha, q) at which the loop-quiver closed forms meet Burnside counts
GLOOP_A2_ANCHORS = [(2, 1, 4)] + [(g, alpha, q) for g in (2, 3, 4) for alpha, q in
                                  ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2))]
GLOOP_A3_ANCHORS = [(g, alpha, q) for g in (1, 2, 3, 4) for alpha, q in ((1, 2), (1, 3), (2, 2))]


def _burnside_anchor_holds(g: int, alpha: int, q: int, rank: int) -> bool:
    """A_rank(q) of the g-loop quiver, rank 2 or 3, from the Burnside counts
    M_r(q) through the fixed-q plethystic Log of M = Exp(A), equals its
    closed form.  Every rank-one point is its own class, so A_1 =
    q^(alpha g), and psi_n A_1 is A_1 at q^n."""
    Q = loop_quiver(g)
    a1, psi2, psi3 = (q ** (n * alpha * g) for n in (1, 2, 3))
    a = bruteforce.count_iso_classes(Q, alpha, (2,), q) - Fraction(a1 ** 2 + psi2, 2)
    if rank == 3:
        a = (bruteforce.count_iso_classes(Q, alpha, (3,), q) - a1 * a
             - Fraction(a1 ** 3 + 3 * a1 * psi2 + 2 * psi3, 6))
    return a == (closedforms.gloop_A2 if rank == 2 else closedforms.gloop_A3)(g, alpha).evaluate(q)


@criterion("rank-2 loop-quiver count: recurrence = closed form, census anchors")
def check_gloop_rank2() -> str:
    """Rank-2 recurrence = closed form for g <= 4, alpha <= 6; anchored by
    the orbit census over F_2 and, through the class-count series, by
    Burnside counts at GLOOP_A2_ANCHORS."""
    for g in (1, 2, 3, 4):
        for alpha in range(1, 7):
            expect(kacpoly.gloop_kac_rank2(g, alpha) == closedforms.gloop_A2(g, alpha),
                   f"recurrence vs closed form at g={g}, alpha={alpha}")
    # absolute-indecomposable census over F_2 at (g, alpha) = (2, 1)
    census = bruteforce.count_absolutely_indecomposable(loop_quiver(2), 1, (2,), 2)
    expect(census == closedforms.gloop_A2(2, 1).evaluate(2), "F_2 census mismatch")
    miss = [x for x in GLOOP_A2_ANCHORS if not _burnside_anchor_holds(*x, 2)]
    expect(not miss, f"Burnside anchors {miss} mismatch")
    return f"g <= 4, alpha <= 6; F_2 census, {len(GLOOP_A2_ANCHORS)} Burnside anchors"


@criterion("rank-3 loop-quiver count: recurrence = 15 tables = closed form")
def check_gloop_rank3() -> str:
    """Rank-3 recurrence reproduces all 15 tabulated polynomials; the
    closed form is anchored by Burnside counts at GLOOP_A3_ANCHORS."""
    for (g, alpha), table in closedforms.GLOOP_RANK3_TABLE.items():
        got = kacpoly.gloop_kac_rank3(g, alpha)
        expect(got == RationalFunction(QPolynomial(table)), f"mismatch at g={g}, alpha={alpha}")
        expect(got == closedforms.gloop_A3(g, alpha),
               f"closed-form mismatch at g={g}, alpha={alpha}")
    miss = [x for x in GLOOP_A3_ANCHORS if not _burnside_anchor_holds(*x, 3)]
    expect(not miss, f"Burnside anchors {miss} mismatch")
    return f"g <= 3, alpha <= 5; {len(GLOOP_A3_ANCHORS)} Burnside anchors"


# -- criterion 5 ---------------------------------------------------------------

# (r, alpha, q) at which the Kronecker closed form meets Burnside counts
KRONECKER_ANCHORS = [(3, 2, 3), (3, 3, 2), (3, 4, 2), (5, 4, 2), (3, 5, 2), (4, 3, 3)]


@criterion("Kronecker rank-(1,2) counts via zeta expansion")
def check_kronecker_pipeline() -> str:
    """The rank-(1,2) Kronecker closed form = the zeta-pipeline count for
    r <= 14, alpha <= 10; anchored at KRONECKER_ANCHORS by Burnside counts
    through the Exp identity M_(1,2) = A_(1,2) + A_(1,1) + 1."""
    for r in range(3, 15):
        for alpha in range(1, 11):
            expect(kacpoly.kronecker_kac_via_zeta(r, alpha) == closedforms.kronecker_A(r, alpha),
                   f"r={r}, alpha={alpha}")
    for r, alpha, q in KRONECKER_ANCHORS:
        Q = kronecker_quiver(r)
        m = bruteforce.count_iso_classes(Q, alpha, (1, 2), q)
        expect(m - kacpoly.toric_kac_wyss(Q, alpha).evaluate(q) - 1
               == closedforms.kronecker_A(r, alpha).evaluate(q),
               f"Burnside anchor r={r}, alpha={alpha}, q={q}")
    return f"r <= 14, alpha <= 10, exact; {len(KRONECKER_ANCHORS)} Burnside anchors"


# -- criterion 6 ---------------------------------------------------------------

@criterion("moment-map zero fibers: closed forms = brute force")
def check_moment_fibers() -> str:
    """Zero-fiber counts: rank-2 loop-quiver closed form and the rank-one
    partition formula, both against brute force."""
    for (g, alpha, q) in [(2, 1, 2), (2, 2, 2), (2, 1, 3), (2, 3, 2), (3, 2, 2), (2, 1, 5),
                          (2, 1, 7)]:
        closed = closedforms.gloop_fiber(g, alpha).evaluate(q)
        brute = bruteforce.moment_fiber_count(loop_quiver(g), alpha, (2,), q)
        expect(closed == brute, f"loop g={g} alpha={alpha} q={q}: {closed} vs {brute}")
    for Q in (cyclic_quiver(3), a2_quiver()):
        ones = (1,) * Q.num_vertices
        for alpha in (1, 2):
            sym = kacpoly.rank1_fiber_count(Q, alpha)
            for q in (2, 3):
                expect(sym.evaluate(q) == bruteforce.moment_fiber_count(Q, alpha, ones, q),
                       f"{Q!r} alpha={alpha} q={q}")
    return "rank-2 loops at 7 (g, alpha, q) and rank-one partition formula"


# -- criterion 7 ---------------------------------------------------------------

def _deformed_fiber_holds(Q, r, lam, alpha, q) -> bool:
    cnt = bruteforce.moment_fiber_count(Q, alpha, r, q, lam)
    a_val = kacpoly.toric_kac_wyss(Q, alpha).evaluate(q)
    lhs = Fraction(cnt, group_order(alpha, r, q))
    rhs = Fraction(q) ** (-alpha * euler_form(Q, r, r)) * a_val / (1 - Fraction(1, q))
    return lhs == rhs


@criterion("deformed moment fibers = generic-fiber formula")
def check_deformed_fibers() -> str:
    """Deformed fiber counts match q^(-alpha<r,r>) A/(1-q^-1) exactly."""
    for alpha in (1, 2):
        for q in (3, 5):
            expect(_deformed_fiber_holds(a2_quiver(), (1, 1), (1, -1), alpha, q),
                   f"two-vertex quiver alpha={alpha} q={q}")
    expect(_deformed_fiber_holds(cyclic_quiver(3), (1, 1, 1), (1, 1, -2), 1, 7), "triangle at q=7")
    return "two cases x {3,5} + triangle at q=7, exact"


# -- criterion 8 ---------------------------------------------------------------

@criterion("jet counts = zeta-function expansion")
def check_jet_series() -> str:
    """Fiber counts over F_q[t]/(t^n) match the zeta-function expansions."""
    zn, zd = closedforms.gloop_Z(2)
    sym = [N.evaluate(2) for N in kacpoly.poincare_symbolic(zn, zd, 16, 3)]
    expect(sym == bruteforce.jet_counts(loop_quiver(2), (2,), 2, 3), "rank-2 loop quiver")
    zn, zd = closedforms.kronecker_Z(3)
    sym = [N.evaluate(2) for N in kacpoly.poincare_symbolic(zn, zd, 12, 4)]
    expect(sym == bruteforce.jet_counts(kronecker_quiver(3), (1, 2), 2, 4),
           "3-Kronecker rank (1,2)")
    return "2-loop rank 2 (n <= 3) and 3-Kronecker rank (1,2) (n <= 4) at q=2"


# -- criterion 9 ---------------------------------------------------------------

@criterion("limits, A-B relation and Hilbert identity")
def check_limits_hilbert() -> str:
    """Limit fractions of the triangle, the Hilbert-series identity, the
    B = A (1-1/q)^(V-1) relation, and stabilization of normalized counts."""
    c3 = cyclic_quiver(3)
    expect(kacpoly.limit_A(c3) == closedforms.cyclic3_limit_A(), "triangle A limit")
    expect(kacpoly.limit_B(c3) == closedforms.cyclic3_limit_B(), "triangle B limit")
    one = RationalFunction.one()
    qinv = RationalFunction.q(-1)
    checked = 0
    for Q in corpus():
        if not (1 <= Q.num_arrows <= 5 and is_2_connected(Q)):
            continue
        b = betti(Q)
        A, B = kacpoly.limits(Q)
        expect(B / (one - qinv) ** Q.num_vertices == A / (one - qinv), f"A-B relation on {Q!r}")
        hilb = kacpoly.order_complex_hilbert(Q)
        expect((one - qinv) ** b / (one - RationalFunction.q(-b)) * hilb == A,
               f"Hilbert identity on {Q!r}")
        target = A.qinv_series(3)
        for alpha in (5, 6):
            f = RationalFunction(kacpoly.toric_kac_wyss(Q, alpha)) * RationalFunction.q(-alpha * b)
            expect(f.qinv_series(3) == target, f"stabilization fails on {Q!r} at alpha={alpha}")
        checked += 1
    return f"triangle values + {checked} two-connected quivers, <= 5 edges"


# -- criterion 10 ----------------------------------------------------------------

def plethystic_identity_fixed_q(Q: Quiver, alpha: int, bound, q0: int) -> bool:
    """The counting identity at a fixed prime power: the fiber-count series
    equals the plethystic exponential of the absolutely-indecomposable
    series, with coefficients tracked over F_q and F_{q^2}."""
    depth = 2
    n_vars = Q.num_vertices
    zero = VolumeSequence.const(0, depth)
    one = VolumeSequence.const(1, depth)

    a_coeffs = {}
    for r in all_exponents(bound):
        if all(x == 0 for x in r):
            continue
        entries = []
        for n in (1, 2):
            if any(n * x > b for x, b in zip(r, bound)):
                entries.append(None)
                continue
            qn = q0 ** n
            entries.append(Fraction(
                bruteforce.count_absolutely_indecomposable(Q, alpha, r, qn))
                / (1 - Fraction(1, qn)))
        a_coeffs[r] = VolumeSequence(entries)
    a_series = TruncatedSeries([f"t{i}" for i in range(n_vars)], bound, a_coeffs,
                               zero=zero, one=one)
    m_series = plethystic_exp(a_series)

    for r in all_exponents(bound):
        fiber = bruteforce.moment_fiber_count(Q, alpha, r, q0)
        lhs = (Fraction(fiber, group_order(alpha, r, q0))
               * Fraction(q0) ** (alpha * euler_form(Q, r, r)))
        if lhs != m_series.coefficient(r).entry(1):
            return False
    return True


@criterion("fiber counts = Exp of indecomposable counts at q=2")
def check_plethystic_fixed_q() -> str:
    """The counting identity at q=2 on the one-vertex quivers up to rank 2
    and the two-vertex quiver up to rank (2,1)."""
    cases = [
        (jordan_quiver(), 1, (2,)), (jordan_quiver(), 2, (2,)),
        (loop_quiver(2), 1, (2,)), (loop_quiver(2), 2, (2,)),
        (a2_quiver(), 1, (1, 1)), (a2_quiver(), 2, (1, 1)),
        (a2_quiver(), 1, (2, 1)), (a2_quiver(), 2, (2, 1)),
    ]
    for Q, alpha, bound in cases:
        expect(plethystic_identity_fixed_q(Q, alpha, bound, 2),
               f"{Q!r} alpha={alpha} bound={bound}")
    return "one-vertex ranks <= 2 and two-vertex ranks <= (2,1), alpha <= 2"


# -- criterion 11 -----------------------------------------------------------------

@criterion("Hall algebra: associative, Euler-shadow bialgebra, expected primitives")
def check_hall() -> str:
    """The Hall algebra of the two-vertex quiver over O_alpha, alpha <= 2.

    At q = 2, 3 the product is associative and [e1, e2] is the sum of the
    indecomposable rank-(1,1) orbits.  The bialgebra identity and the
    centrality of the extra generators are q = 1 statements about the
    constructible Hall algebra, which integrates Euler characteristics
    (Riedtmann, J. Algebra 1994; Schiffmann, arXiv:math/0611617), so they
    are checked on hall_product_euler.  At a fixed prime power neither
    holds: the untwisted coproduct is not multiplicative, and for alpha = 2
    the extra generator does not commute with e1 or e2.
    """
    for alpha in (1, 2):
        unit_label = (0,) * alpha
        for q in (2, 3):
            e1 = hall.HallFunction.indicator((1, 0), alpha, unit_label)
            e2 = hall.HallFunction.indicator((0, 1), alpha, unit_label)
            want = hall.HallFunction((1, 1), alpha, {
                tuple(1 if j == i else 0 for j in range(alpha)): 1
                for i in range(alpha)})
            expect(hall.bracket(e1, e2, q) == want, f"[e1,e2] alpha={alpha} q={q}")
            expect(_hall_associativity(alpha, q), f"associativity alpha={alpha} q={q}")
        expect(_hall_bialgebra_euler(alpha), f"Euler-shadow bialgebra axiom alpha={alpha}")
        expect(_hall_extra_generators_central_euler(alpha),
               f"Euler-shadow extra generators alpha={alpha}")
        expect(hall.primitive_space_dim((1, 1), alpha) == alpha,
               f"primitive dimension at (1,1), alpha={alpha}")
        expect(hall.primitive_space_dim((2, 1), alpha) == 0,
               f"primitive dimension at (2,1), alpha={alpha}")
    return "alpha <= 2, q in {2,3} and q -> 1, total rank <= (2,2)"


def _hall_indicator_basis(alpha):
    """Orbit indicators in the degrees used by the axiom checks."""
    out = []
    for rk in [(1, 0), (0, 1), (1, 1)]:
        for lab in hall.all_orbit_labels(rk, alpha):
            out.append(hall.HallFunction.indicator(rk, alpha, lab))
    return out


def _hall_associativity(alpha, q) -> bool:
    basis = _hall_indicator_basis(alpha)
    for f in basis:
        for g in basis:
            for h in basis:
                total = tuple(a + b + c for a, b, c in zip(f.rank, g.rank, h.rank))
                if total[0] > 2 or total[1] > 2:
                    continue
                left = hall.hall_product(hall.hall_product(f, g, q), h, q)
                right = hall.hall_product(f, hall.hall_product(g, h, q), q)
                if left != right:
                    return False
    return True


def _coproduct_table(f):
    """Values of Delta(f) on all orbit-label pairs."""
    table = {}
    for left, right in hall.hall_coproduct(f):
        lab1 = next(iter(left.values))
        for lab2, v in right.values.items():
            table[(left.rank, lab1, right.rank, lab2)] = \
                table.get((left.rank, lab1, right.rank, lab2), Fraction(0)) + v
    return table


def _hall_bialgebra_euler(alpha) -> bool:
    """Delta(f * g) = Delta(f) Delta(g) on indicator pairs (componentwise
    products of tensor legs), with Euler-shadow products."""
    basis = _hall_indicator_basis(alpha)
    for f in basis:
        for g in basis:
            total = tuple(a + b for a, b in zip(f.rank, g.rank))
            if total[0] > 2 or total[1] > 2:
                continue
            lhs = _coproduct_table(hall.hall_product_euler(f, g))
            rhs = {}
            for lf, rf in hall.hall_coproduct(f):
                for lg, rg in hall.hall_coproduct(g):
                    left = hall.hall_product_euler(lf, lg)
                    right = hall.hall_product_euler(rf, rg)
                    for lab1, v1 in left.values.items():
                        for lab2, v2 in right.values.items():
                            key = (left.rank, lab1, right.rank, lab2)
                            rhs[key] = rhs.get(key, Fraction(0)) + v1 * v2
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                return False
    return True


def _hall_extra_generators_central_euler(alpha) -> bool:
    """1_{O_i}, i >= 1 has zero Euler-shadow bracket with every orbit
    indicator of rank at most (1,1), the primitive generators among them."""
    basis = _hall_indicator_basis(alpha)
    for i in range(1, alpha):
        lab = tuple(1 if j == i else 0 for j in range(alpha))
        f = hall.HallFunction.indicator((1, 1), alpha, lab)
        if any(hall.bracket_euler(f, g).values for g in basis):
            return False
    return True


# -- the table of criteria -------------------------------------------------------

CRITERIA = [
    ("1", "symbolic", check_toric_tables),
    ("2", "brute", check_toric_brute_anchor),
    ("3", "symbolic", check_gloop_rank2),
    ("4", "symbolic", check_gloop_rank3),
    ("5", "symbolic", check_kronecker_pipeline),
    ("6", "brute", check_moment_fibers),
    ("7", "brute", check_deformed_fibers),
    ("8", "brute", check_jet_series),
    ("9", "symbolic", check_limits_hilbert),
    ("10", "cross", check_plethystic_fixed_q),
    ("11", "hall", check_hall),
]


def run_checks(suite: str = "all", out=None):
    """Run the criteria of a suite, or all of them, writing each result's
    line to out as it comes; returns ([(key, CheckResult)], all_passed)."""
    results = []
    for key, row_suite, check in CRITERIA:
        if suite not in ("all", row_suite):
            continue
        res = check()
        results.append((key, res))
        if out is not None:
            out.write(res.line() + "\n")
            out.flush()
    return results, all(res.passed for _, res in results)
