"""Job lists, job execution and result oracles for the benchmark workloads.

A job is one computation a user asks for.  When a CLI subcommand does the
computation, the job calls ``quivercount.cli.main`` in-process with
``--format json`` and captures stdout; otherwise it calls the public library
function that ``verify`` calls.  Every job has an oracle that is checked
after the job loop, so checking costs no job time.

Job lists come from a seed.  Each job kind has strata with a fixed job
count and a fixed menu of instances; every menu item is used equally often,
and where the count is not a multiple of the menu size the seed picks the
remainder (only among instances of like cost).  The seed also shuffles the
job order (Hall jobs, which share caches, keep a fixed order among
themselves).  Different seeds therefore do the same amount of work, which
keeps the timings comparable across seeds.  Quivers are not relabeled: an
isomorphic copy with permuted vertices and arrows gives the same counts,
but some rank-one orbit jobs then ran up to 40% slower or faster, which
moved the median latency from seed to seed.

Library functions are always looked up through their module at call time
(``bruteforce.enumerate_orbits``, never a name bound at import), so that the
tracer's patched names are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from quivercount import bruteforce, cli, closedforms, hall, kacpoly, quiver
from quivercount.localring import gl_order
from quivercount.qpolynomial import QPolynomial, RationalFunction

WORKLOADS = ("brute", "symbolic", "orbits")

# worker count of the largest zero-fiber jobs (the CPU count of the
# machine the benchmark was sized on); fixed so results compare across hosts
POOL_JOBS = 2


@dataclass
class Job:
    """One computation: its kind, an optional quiver and its parameters."""
    kind: str
    args: dict
    quiver: quiver.Quiver | None = None
    argv: list = field(default_factory=list)


@dataclass
class Stratum:
    """`count` jobs of one kind, drawn evenly from `menu` (each item
    count // len(menu) times, the seed picking the rest).

    Heavy strata are left out of reduced-size runs."""
    kind: str
    count: int
    menu: list
    heavy: bool = False


def _spread(items, k: int) -> list:
    """k items at evenly spaced positions of a list."""
    return [items[(2 * i + 1) * len(items) // (2 * k)] for i in range(k)]


# -- named quivers -------------------------------------------------------------

def named_quiver(family: str, n: int) -> quiver.Quiver:
    if family == "loop":
        return quiver.loop_quiver(n)
    if family == "kronecker":
        return quiver.kronecker_quiver(n)
    if family == "a2":
        return quiver.a2_quiver()
    if family == "cyclic":
        return quiver.cyclic_quiver(n)
    raise ValueError(f"unknown quiver family {family}")


def _two_connected_corpus():
    """2-connected corpus quivers with 4 to 7 arrows, grouped by arrow count."""
    by_arrows = {}
    seen = set()
    for Q in quiver.connected_quiver_corpus(4, 6) + quiver.connected_quiver_corpus(3, 7):
        if Q.num_arrows < 4 or Q in seen or not quiver.is_2_connected(Q):
            continue
        seen.add(Q)
        by_arrows.setdefault(Q.num_arrows, []).append(Q)
    return by_arrows


# -- menus -------------------------------------------------------------------------

def _brute_strata():
    L2, K3, A2, C3 = ("loop", 2), ("kronecker", 3), ("a2", 1), ("cyclic", 3)

    def fiber(fam, rank, alpha, q, jobs=1):
        return {"family": fam[0], "n": fam[1], "rank": rank, "alpha": alpha, "q": q,
                "jobs": jobs}

    big = [fiber(L2, (2,), 1, 3, POOL_JOBS), fiber(K3, (1, 2), 1, 4, POOL_JOBS),
           fiber(K3, (1, 2), 2, 2, POOL_JOBS)]
    small = [fiber(L2, (2,), 1, 2), fiber(K3, (1, 2), 1, 2), fiber(K3, (1, 2), 1, 3),
             fiber(K3, (2, 1), 1, 2), fiber(K3, (2, 1), 1, 3)]
    small += [fiber(A2, r, a, q) for r, a, q in
              [((1, 2), 1, 5), ((1, 2), 1, 7), ((2, 1), 1, 4), ((1, 2), 2, 3),
               ((2, 1), 2, 3), ((1, 2), 2, 5), ((2, 1), 2, 4), ((2, 1), 2, 2)]]
    jets = [{"family": f[0], "n": f[1], "rank": r, "q": q, "n_max": n}
            for f, r, q, n in [(L2, (2,), 2, 1), (K3, (1, 2), 2, 1), (K3, (2, 1), 3, 1),
                               (A2, (1, 2), 3, 2), (A2, (2, 1), 5, 2), (A2, (1, 2), 4, 2),
                               (A2, (2, 1), 2, 2)]]
    deformed = [{"family": "a2", "n": 1, "rank": (1, 1), "lam": (1, -1), "alpha": a, "q": q}
                for a in (1, 2) for q in (3, 5, 7)]
    deformed += [{"family": f[0], "n": f[1], "rank": r, "lam": lam, "alpha": a, "q": q}
                 for f, r, lam, a, q in
                 [(C3, (1, 1, 1), (1, 1, -2), 1, 5), (C3, (1, 1, 1), (1, 1, -2), 1, 7),
                  (K3, (1, 1), (1, -1), 1, 3), (K3, (1, 1), (1, -1), 2, 3),
                  (K3, (1, 1), (1, -1), 1, 5), (A2, (1, 2), (2, -1), 1, 5),
                  (A2, (1, 2), (2, -1), 1, 7), (A2, (2, 1), (-1, 2), 1, 5)]]
    asks = [{"family": f[0], "n": f[1], "rank": r, "q": q, "n_max": n}
            for f, r, q, n in [(L2, (2,), 2, 1), (K3, (1, 2), 2, 1), (K3, (1, 2), 3, 1),
                               (A2, (1, 2), 5, 2), (A2, (2, 1), 3, 2), (A2, (1, 2), 7, 2)]]
    iso = [{"family": "loop", "n": g, "rank": (2,), "alpha": a, "q": q}
           for g, a, q in [(1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 1, 5), (1, 1, 7), (1, 2, 2),
                           (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 2, 2)]]
    orbits = [{"family": "loop", "n": g, "rank": (2,), "alpha": a, "q": q}
              for g, a, q in [(1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 1, 4), (2, 1, 2)]]
    return [
        Stratum("fiber-zero", 3, big, heavy=True),
        Stratum("fiber-zero", 3 * len(small), small),
        Stratum("jet-series", 2 * len(jets), jets),
        Stratum("fiber-deformed", 2 * len(deformed), deformed),
        Stratum("ask", len(asks), asks),
        Stratum("iso-classes", len(iso), iso),
        Stratum("orbits-rank2", len(orbits), orbits),
    ]


def _symbolic_strata():
    by_e = _two_connected_corpus()

    def menu(E, k, alphas=(None,)):
        items = []
        for Q in (by_e[E] if k is None else _spread(by_e[E], k)):
            for a in alphas:
                items.append({"quiver": Q} if a is None else {"quiver": Q, "alpha": a})
        return items

    strata = []
    for kind in ("limits", "hilbert"):
        strata += [Stratum(kind, len(by_e[4]), menu(4, None)), Stratum(kind, 2, menu(5, 2)),
                   Stratum(kind, 1, menu(6, 1), heavy=True)]
    for kind in ("kac-chain", "kac-tree"):
        strata += [Stratum(kind, 6, menu(4, 2, (2, 4, 6))),
                   Stratum(kind, 6, menu(5, 2, (1, 3, 5))),
                   Stratum(kind, 4, menu(6, 2, (2, 4))),
                   Stratum(kind, 4, menu(7, 2, (1, 3)))]
    strata += [
        Stratum("kac-gloop", 12, [{"rank": 2, "g": g, "alpha": a}
                                  for g in range(1, 5) for a in (2, 4, 6)]),
        Stratum("kac-gloop", 8, [{"rank": 3, "g": g, "alpha": a}
                                 for g in range(1, 5) for a in (2, 4)]),
        Stratum("kac-kronecker", 10, [{"r": r, "alpha": a}
                                      for r in (3, 4) for a in range(1, 6)]),
        Stratum("fiber-symbolic", 6, menu(4, 2, (1, 2, 3))),
        Stratum("fiber-symbolic", 6, menu(5, 2, (1, 2, 3))),
        Stratum("fiber-symbolic", 3, menu(6, 3, (2,))),
    ]
    return strata


_HALL_DEGREES = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]


def _orbits_strata():
    corpus = [Q for Q in quiver.connected_quiver_corpus(4, 6)
              if Q.num_vertices >= 2 and Q.num_arrows >= 2]

    def rank_one(count, max_points, min_points=0):
        """count instances evenly spread, by space size, over the corpus
        instances with min_points < q^(alpha E) <= max_points."""
        items = sorted(((q ** (a * Q.num_arrows), i, a, q) for i, Q in enumerate(corpus)
                        for a in (1, 2) for q in (2, 3)
                        if min_points < q ** (a * Q.num_arrows) <= max_points))
        return [{"quiver": corpus[i], "alpha": a, "q": q}
                for _, i, a, q in _spread(items, count)]

    def fits(r1, r2):
        return r1[0] + r2[0] <= 2 and r1[1] + r2[1] <= 2

    # the degree pairs whose product needs the rank-2 summands of O^2 at
    # q = 3, alpha = 2: the one cold build that dominates this workload
    cold = [(r1, r2) for r2 in ((2, 0), (0, 2)) for r1 in _HALL_DEGREES
            if fits(r1, r2) and r1[r2.index(2)] == 0]
    light = [{"alpha": a, "q": q, "rank1": r1, "rank2": r2}
             for a in (1, 2) for q in (2, 3)
             for r1 in _HALL_DEGREES for r2 in _HALL_DEGREES
             if fits(r1, r2) and not ((a, q) == (2, 3) and (r1, r2) in cold)]
    generators = [(1, 0), (0, 1), (1, 1)]
    triples = []
    for a in (1, 2):
        for q in (2, 3):
            for ranks in product(generators, repeat=3):
                total = tuple(map(sum, zip(*ranks)))
                if total[0] > 2 or total[1] > 2:
                    continue
                for labels in product(*(hall.all_orbit_labels(r, a) for r in ranks)):
                    triples.append({"alpha": a, "q": q, "ranks": ranks, "labels": labels})
    coproducts = [{"alpha": a, "rank": r, "label": lab}
                  for a in (1, 2) for r in _HALL_DEGREES + [(2, 2)]
                  for lab in hall.all_orbit_labels(r, a) + [None]]
    return [
        Stratum("census", 16, rank_one(16, 3 ** 8)),
        Stratum("census", 2, rank_one(2, 3 ** 10, 3 ** 8)),
        # enough jobs above 0.1 s that p90 falls among them, not in the gap
        # between them and the millisecond jobs
        Stratum("census", 8, rank_one(8, 3 ** 12, 3 ** 10), heavy=True),
        Stratum("orbits-rank1", 15, rank_one(15, 2 ** 12)),
        Stratum("fiber-rank1", 15, rank_one(15, 3 ** 12)),
        # one fixed cold pair: the tables it leaves in the caches, and so the
        # cost of the later Hall jobs, depend on which pair it is
        Stratum("hall-cli", 1, [{"alpha": 2, "q": 3, "rank1": r1, "rank2": r2}
                                for r1, r2 in cold[:1]], heavy=True),
        Stratum("hall-cli", 20, _spread(light, 20)),
        Stratum("hall-assoc", 12, _spread(triples, 12)),
        Stratum("hall-bracket", 8, [{"alpha": a, "q": q} for a in (1, 2) for q in (2, 3)]),
        Stratum("hall-coproduct", 10, _spread(coproducts, 10)),
    ]


_STRATA = {"brute": _brute_strata, "symbolic": _symbolic_strata, "orbits": _orbits_strata}


def make_jobs(workload: str, seed: int, reduced: bool = False) -> list:
    """The job list of one workload: the same seed gives the same list.

    A reduced list keeps one job per light stratum, for quick tests."""
    if workload not in _STRATA:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    jobs, menu_keys = [], []
    for number, stratum in enumerate(_STRATA[workload]()):
        if reduced and stratum.heavy:
            continue
        count = 1 if reduced else stratum.count
        picks = []
        while len(picks) < count:
            batch = list(range(len(stratum.menu)))
            rng.shuffle(batch)
            picks.extend(batch)
        for idx in picks[:count]:
            args = dict(stratum.menu[idx])
            Q = args.pop("quiver", None)
            if Q is None and "family" in args:
                Q = named_quiver(args["family"], args["n"])
            jobs.append(Job(stratum.kind, args, Q))
            menu_keys.append((number, idx))
    order = rng.sample(range(len(jobs)), len(jobs))
    # Hall jobs share per-process caches, so the first job to need a table
    # pays for building it.  They keep one relative order, by menu position,
    # whatever the seed, so that each of them costs the same for every seed.
    hall_jobs = iter(sorted((i for i in order if jobs[i].kind.startswith("hall-")),
                            key=menu_keys.__getitem__))
    return [jobs[next(hall_jobs)] if jobs[i].kind.startswith("hall-") else jobs[i]
            for i in order]


def job_counts(jobs) -> dict:
    counts = {}
    for job in jobs:
        counts[job.kind] = counts.get(job.kind, 0) + 1
    return dict(sorted(counts.items()))


# -- inputs and execution --------------------------------------------------------------

def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def write_inputs(jobs, workdir) -> None:
    """Write the quiver and matrix-family files the CLI jobs read, and fill
    in each CLI job's argument list."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}

    def quiver_file(Q):
        key = json.dumps(Q.to_json(), sort_keys=True)
        if key not in files:
            path = workdir / f"quiver{len(files)}.json"
            Q.save(path)
            files[key] = str(path)
        return files[key]

    for idx, job in enumerate(jobs):
        a = job.args
        if job.kind in ("fiber-zero", "fiber-deformed", "fiber-rank1"):
            job.argv = ["--jobs", str(a.get("jobs", 1)), "fiber-count",
                        "--quiver", quiver_file(job.quiver), "--alpha", str(a["alpha"]),
                        "--q", str(a["q"])]
            if "rank" in a:
                job.argv += ["--rank", _ints(a["rank"])]
            if "lam" in a:
                # one token, so that a leading minus sign is not read as a flag
                job.argv.append(f"--lam={_ints(a['lam'])}")
        elif job.kind == "fiber-symbolic":
            job.argv = ["fiber-count", "--quiver", quiver_file(job.quiver),
                        "--alpha", str(a["alpha"]), "--symbolic"]
        elif job.kind == "jet-series":
            job.argv = ["jet-series", "--quiver", quiver_file(job.quiver),
                        "--rank", _ints(a["rank"]), "--q", str(a["q"]),
                        "--n-max", str(a["n_max"])]
        elif job.kind == "ask":
            path = workdir / f"theta{idx}.json"
            path.write_text(json.dumps(bruteforce.moment_theta_basis(job.quiver, a["rank"])))
            job.argv = ["ask", "--theta", str(path), "--q", str(a["q"]),
                        "--n-max", str(a["n_max"])]
        elif job.kind in ("limits", "hilbert"):
            job.argv = [job.kind, "--quiver", quiver_file(job.quiver)]
        elif job.kind in ("kac-chain", "kac-tree"):
            job.argv = ["kac", "--quiver", quiver_file(job.quiver), "--alpha", str(a["alpha"]),
                        "--method", job.kind[4:]]
        elif job.kind == "kac-gloop":
            job.argv = ["kac-gloop", "--g", str(a["g"]), "--alpha", str(a["alpha"]),
                        "--rank", str(a["rank"])]
        elif job.kind == "kac-kronecker":
            job.argv = ["kac-kronecker", "--r", str(a["r"]), "--alpha", str(a["alpha"]),
                        "--via-zeta"]
        elif job.kind == "hall-cli":
            job.argv = ["hall", "--alpha", str(a["alpha"]), "--q", str(a["q"]),
                        "--rank1", _ints(a["rank1"]), "--rank2", _ints(a["rank2"])]


class JobFailed(Exception):
    pass


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--format", "json"] + argv)
    if code != 0:
        raise JobFailed(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def _hall_json(f) -> dict:
    return {"rank": list(f.rank),
            "values": {str(list(lab)): str(v) for lab, v in sorted(f.values.items())}}


def run_job(job: Job):
    """Run one job and return its result as JSON-compatible data."""
    if job.argv:
        return _run_cli(job.argv)
    a = job.args
    if job.kind == "iso-classes":
        return bruteforce.count_iso_classes(job.quiver, a["alpha"], a["rank"], a["q"])
    if job.kind == "census":
        ones = (1,) * job.quiver.num_vertices
        return bruteforce.count_absolutely_indecomposable(job.quiver, a["alpha"], ones, a["q"])
    if job.kind in ("orbits-rank2", "orbits-rank1"):
        rank = a.get("rank", (1,) * job.quiver.num_vertices)
        records = bruteforce.enumerate_orbits(job.quiver, a["alpha"], rank, a["q"])
        return {"orbits": len(records),
                "points": sum(rec.orbit_size for rec in records),
                "absolutely_indecomposable": sum(rec.absolutely_indecomposable
                                                 for rec in records)}
    if job.kind == "hall-assoc":
        f, g, h = (hall.HallFunction.indicator(r, a["alpha"], lab)
                   for r, lab in zip(a["ranks"], a["labels"]))
        q = a["q"]
        left = hall.hall_product(hall.hall_product(f, g, q), h, q)
        right = hall.hall_product(f, hall.hall_product(g, h, q), q)
        return {"left": _hall_json(left), "right": _hall_json(right)}
    if job.kind == "hall-bracket":
        alpha, unit = a["alpha"], (0,) * a["alpha"]
        e1 = hall.HallFunction.indicator((1, 0), alpha, unit)
        e2 = hall.HallFunction.indicator((0, 1), alpha, unit)
        return _hall_json(hall.bracket(e1, e2, a["q"]))
    if job.kind == "hall-coproduct":
        if a["label"] is None:
            f = hall.HallFunction.constant(a["rank"], a["alpha"])
        else:
            f = hall.HallFunction.indicator(a["rank"], a["alpha"], a["label"])
        return [[_hall_json(left), _hall_json(right)] for left, right in hall.hall_coproduct(f)]
    raise ValueError(f"unknown job kind {job.kind}")


# -- oracles ---------------------------------------------------------------------------

def _poly(coeffs) -> QPolynomial:
    return QPolynomial({e: Fraction(c) for e, c in enumerate(coeffs)})


def _rf(payload) -> RationalFunction:
    if "polynomial" in payload:
        return RationalFunction(_poly(payload["polynomial"]))
    return RationalFunction(_poly(payload["num"]), _poly(payload["den"]))


def _gauss_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def free_summand_count(n: int, k: int, q: int, alpha: int) -> int:
    """Rank-k direct summands of O_alpha^n: a Grassmannian point over F_q
    and an affine fiber of dimension (alpha - 1) k (n - k) above it."""
    return q ** ((alpha - 1) * k * (n - k)) * _gauss_binomial(n, k, q)


def _a2_zero_fiber(m: int, alpha: int, q: int) -> int:
    """Zero fiber of the one-arrow quiver in rank (1, m) or (m, 1): pairs of
    m-vectors x, y with x_i y_j = 0 for all i, j, i.e. whose minimal
    valuations add up to at least alpha."""
    def exact(v):
        return 1 if v == alpha else q ** (m * (alpha - v)) - q ** (m * (alpha - v - 1))
    return sum(exact(a) * exact(b) for a in range(alpha + 1) for b in range(alpha + 1)
               if a + b >= alpha)


def _gloop_classes(g: int, alpha: int, q: int) -> Fraction:
    """All rank-2 classes of the g-loop quiver: A_2 plus the symmetric square
    of the rank-1 count q^(alpha g)."""
    a1 = Fraction(q) ** (alpha * g)
    a1_at_q2 = Fraction(q * q) ** (alpha * g)
    return closedforms.gloop_A2(g, alpha).evaluate(q) + (a1 ** 2 + a1_at_q2) / 2


class Oracles:
    """Independent expected values, memoized so that a job repeated in a
    list or across passes is checked at the cost of one evaluation."""

    def __init__(self):
        self._memo = {}

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def zero_fiber(self, job: Job, alpha: int) -> int:
        a = job.args
        family, n, rank, q = a["family"], a["n"], tuple(a["rank"]), a["q"]
        if family == "loop":
            return closedforms.gloop_fiber(n, alpha).evaluate(q)
        if family == "kronecker":
            def expand():
                z_num, z_den = closedforms.kronecker_Z(n)
                return kacpoly.poincare_symbolic(z_num, z_den, 4 * n, 2)
            # rank (2,1) of the reversed quiver is rank (1,2) of this one
            return self._cached(("kronecker_Z", n), expand)[alpha - 1].evaluate(q)
        if family == "a2":
            return _a2_zero_fiber(max(rank), alpha, q)
        raise ValueError(f"no zero-fiber oracle for {family}")

    def toric(self, Q, alpha: int, q: int) -> Fraction:
        key = ("toric", Q, alpha)
        return self._cached(key, lambda: kacpoly.toric_kac_wyss(Q, alpha)).evaluate(q)

    def check(self, job: Job, result) -> str | None:
        """None when the result agrees with the oracle, else the reason."""
        fn = getattr(self, "_check_" + job.kind.replace("-", "_"))
        return fn(job, result, job.args)

    # brute

    def _check_fiber_zero(self, job, res, a):
        want = self.zero_fiber(job, a["alpha"])
        return None if res["count"] == want else f"count {res['count']} != {want}"

    def _check_jet_series(self, job, res, a):
        want = [self.zero_fiber(job, n) for n in range(1, a["n_max"] + 1)]
        return None if res["counts"] == want else f"counts {res['counts']} != {want}"

    def _check_ask(self, job, res, a):
        dim = sum(a["rank"][s] * a["rank"][t] for s, t in job.quiver.arrows)
        got = [Fraction(v) * Fraction(a["q"]) ** (n * dim) for n, v in enumerate(res["ask"], 1)]
        want = [self.zero_fiber(job, n) for n in range(1, a["n_max"] + 1)]
        return None if got == want else f"ask * q^(n dim) {got} != zero fibers {want}"

    def _check_fiber_deformed(self, job, res, a):
        """Criterion 7: #mu^-1(t^(alpha-1) lam) / |GL_r| equals
        q^(-alpha <r,r>) A_r / (1 - q^-1)."""
        Q, r, alpha, q = job.quiver, tuple(a["rank"]), a["alpha"], a["q"]
        if all(x == 1 for x in r):
            count_a = self.toric(Q, alpha, q)
        else:
            # (1,2) and (2,1) are not roots of the one-arrow quiver: no
            # indecomposables, so the generic fiber is empty
            count_a = 0
        gl = 1
        for x in r:
            gl *= gl_order(q, alpha, x)
        want = (Fraction(q) ** (-alpha * quiver.euler_form(Q, r, r)) * count_a
                / (1 - Fraction(1, q)))
        got = Fraction(res["count"], gl)
        return None if got == want else f"count/|GL| {got} != {want}"

    def _check_iso_classes(self, job, res, a):
        want = _gloop_classes(a["n"], a["alpha"], a["q"])
        return None if res == want else f"classes {res} != {want}"

    def _check_orbits_rank2(self, job, res, a):
        g, alpha, q = a["n"], a["alpha"], a["q"]
        want = {"orbits": _gloop_classes(g, alpha, q), "points": q ** (alpha * 4 * g),
                "absolutely_indecomposable": closedforms.gloop_A2(g, alpha).evaluate(q)}
        return None if res == want else f"{res} != {want}"

    # symbolic

    def _limit_a(self, Q):
        return self._cached(("limit_A", Q), lambda: kacpoly.limit_A(Q))

    def _hilbert(self, Q):
        return self._cached(("hilbert", Q), lambda: kacpoly.order_complex_hilbert(Q))

    @staticmethod
    def _hilbert_identity(Q, A, H) -> bool:
        one, qinv = RationalFunction.one(), RationalFunction.q(-1)
        b = quiver.betti(Q)
        return (one - qinv) ** b / (one - RationalFunction.q(-b)) * H == A

    def _check_limits(self, job, res, a):
        Q = job.quiver
        A, B = _rf(res["A"]), _rf(res["B"])
        one, qinv = RationalFunction.one(), RationalFunction.q(-1)
        if B / (one - qinv) ** Q.num_vertices != A / (one - qinv):
            return "A-B relation fails"
        if not self._hilbert_identity(Q, A, self._hilbert(Q)):
            return "Hilbert identity fails against A"
        return None

    def _check_hilbert(self, job, res, a):
        if not self._hilbert_identity(job.quiver, self._limit_a(job.quiver), _rf(res["hilbert"])):
            return "Hilbert identity fails against limit_A"
        return None

    def _check_kac_chain(self, job, res, a):
        got = _poly(res["count"])
        if any(c < 0 for c in got.coeffs.values()):
            return "negative coefficient"
        want = self._cached(("trees", job.quiver, a["alpha"]),
                            lambda: kacpoly.toric_kac_trees(job.quiver, a["alpha"]))
        return None if got == want else f"chain {got} != tree {want}"

    def _check_kac_tree(self, job, res, a):
        got = _poly(res["count"])
        want = self._cached(("toric", job.quiver, a["alpha"]),
                            lambda: kacpoly.toric_kac_wyss(job.quiver, a["alpha"]))
        return None if got == want else f"tree {got} != chain {want}"

    def _check_kac_gloop(self, job, res, a):
        closed = closedforms.gloop_A2 if a["rank"] == 2 else closedforms.gloop_A3
        want = closed(a["g"], a["alpha"])
        got = RationalFunction(_poly(res["count"]))
        return None if got == want else f"{got} != closed form {want}"

    def _check_kac_kronecker(self, job, res, a):
        want = closedforms.kronecker_A(a["r"], a["alpha"])
        got = _rf(res["count"])
        return None if got == want else f"{got} != closed form {want}"

    def _check_fiber_symbolic(self, job, res, a):
        Q, alpha = job.quiver, a["alpha"]
        ones = (1,) * Q.num_vertices
        want = self._cached(("fiber2", Q, alpha),
                            lambda: bruteforce.moment_fiber_count(Q, alpha, ones, 2))
        got = _rf(res["count"]).evaluate(2)
        return None if got == want else f"value at q=2 {got} != enumeration {want}"

    # orbits

    def _check_census(self, job, res, a):
        want = self.toric(job.quiver, a["alpha"], a["q"])
        return None if res == want else f"census {res} != toric count {want}"

    def _check_orbits_rank1(self, job, res, a):
        Q, alpha, q = job.quiver, a["alpha"], a["q"]
        ones = (1,) * Q.num_vertices
        burnside = self._cached(("burnside", Q, alpha, q),
                                lambda: bruteforce.count_iso_classes(Q, alpha, ones, q))
        want = {"orbits": burnside, "points": q ** (alpha * Q.num_arrows),
                "absolutely_indecomposable": self.toric(Q, alpha, q)}
        return None if res == want else f"{res} != {want}"

    def _check_fiber_rank1(self, job, res, a):
        Q, alpha = job.quiver, a["alpha"]
        f = self._cached(("rank1_fiber", Q, alpha), lambda: kacpoly.rank1_fiber_count(Q, alpha))
        want = f.evaluate(a["q"])
        return None if res["count"] == want else f"count {res['count']} != {want}"

    def _check_hall_cli(self, job, res, a):
        """Every flag of free summands is stable under the zero map, so the
        products of all indicator pairs, summed at the zero orbit, count the
        pairs of free summands of the sub-degree."""
        alpha, q, r1, r2 = a["alpha"], a["q"], a["rank1"], a["rank2"]
        zero = str([0] * alpha)
        total = sum(Fraction(values.get(zero, 0)) for values in res.values())
        want = 1
        for i in (0, 1):
            want *= free_summand_count(r1[i] + r2[i], r2[i], q, alpha)
        if total != want:
            return f"zero-orbit flag total {total} != {want}"
        if (tuple(r1), tuple(r2)) == ((1, 0), (0, 1)):
            # 1_{e1} * 1_{e2} is the constant function 1
            ones = {str(list(lab)): "1" for lab in hall.all_orbit_labels((1, 1), alpha)}
            if list(res.values()) != [ones]:
                return "e1 * e2 is not the constant function"
        return None

    def _check_hall_assoc(self, job, res, a):
        return None if res["left"] == res["right"] else "(fg)h != f(gh)"

    def _check_hall_bracket(self, job, res, a):
        alpha = a["alpha"]
        want = hall.HallFunction((1, 1), alpha, {
            tuple(1 if j == i else 0 for j in range(alpha)): 1 for i in range(alpha)})
        return None if res == _hall_json(want) else f"[e1,e2] = {res}"

    def _check_hall_coproduct(self, job, res, a):
        """Counit laws: the summands with a trivial left (right) leg
        reassemble f."""
        alpha, rank = a["alpha"], tuple(a["rank"])
        if a["label"] is None:
            f = hall.HallFunction.constant(rank, alpha)
        else:
            f = hall.HallFunction.indicator(rank, alpha, a["label"])
        unit = str([0] * alpha)
        trivial = [0, 0]
        left_sum, right_leg = {}, None
        for left, right in res:
            if len(left["values"]) != 1 or list(left["values"].values()) != ["1"]:
                return "left leg is not an orbit indicator"
            if left["rank"] == trivial:
                right_leg = right
            if right["rank"] == trivial:
                (label,) = left["values"]
                left_sum[label] = right["values"].get(unit)
        want = _hall_json(f)
        if right_leg != want:
            return "1 (x) f summand differs from f"
        if {k: v for k, v in left_sum.items() if v} != want["values"]:
            return "f (x) 1 summands do not reassemble f"
        return None
