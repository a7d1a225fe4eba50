"""Command-line front end.

Subcommands: kac, kac-gloop, kac-kronecker, fiber-count, jet-series, ask,
limits, hilbert, hall, verify.  Quivers come from JSON files of the form
{"vertices": [...], "arrows": [{"src": i, "dst": j}, ...]}; the arrow array
order is the total order the tree-formula count depends on.  Counts take
the multiplicity of O_alpha from --alpha, the same at every vertex; a
"multiplicities" key in a quiver file is ignored.

Every command, verify included, honours --format and --out.  verify writes
one text line per criterion as each finishes, or one JSON record
{"passed", "criteria": [{"criterion", "name", "passed", "detail",
"seconds"}, ...]} once all have run.

--max-space-log2 caps the brute-force walks of fiber-count, jet-series and
ask.  verify runs at its own fixed caps, whatever --max-space-log2 is.

Exit codes: 2 usage error, 3 resource cap exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys

from . import bruteforce, closedforms, hall, kacpoly
from .bruteforce import Caps
from .errors import CapExceeded, DimensionMismatch, QuivercountError
from .qpolynomial import QPolynomial, RationalFunction
from .quiver import Quiver, is_2_connected, is_connected


# the --suite choices: "all", then the suites of verify.CRITERIA in order,
# kept here so that parsing does not import the verification suite
SUITES = ("all", "symbolic", "brute", "cross", "hall")


def _poly_json(p: QPolynomial):
    return [str(c) for c in p.int_coeff_list()]


def _rf_payload(f: RationalFunction):
    if f.is_polynomial():
        return {"polynomial": _poly_json(f.num)}
    return {"num": _poly_json(f.num), "den": _poly_json(f.den)}


def _load_quiver(path: str) -> Quiver:
    try:
        return Quiver.load(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"cannot read quiver file {path}: {exc}")


def _caps(args) -> Caps:
    return Caps(max_space_log2=args.max_space_log2)


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for writing and closed on exit, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    try:
        out = open(args.out, "w")
    except OSError as exc:
        raise SystemExit(f"cannot write output file {args.out}: {exc}")
    with out:
        yield out


def _emit(args, text: str, payload) -> None:
    with _output(args) as out:
        if args.format == "json":
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write(text + "\n")


def _parse_ints(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"not a comma-separated list of integers: {text!r}")


def cmd_kac(args) -> int:
    Q = _load_quiver(args.quiver)
    if not is_connected(Q):
        raise SystemExit("kac needs a connected quiver")
    if args.method == "tree":
        poly = kacpoly.toric_kac_trees(Q, args.alpha)
    else:
        poly = kacpoly.toric_kac_wyss(Q, args.alpha)
    _emit(args, poly.to_string(), {"alpha": args.alpha, "count": _poly_json(poly)})
    return 0


def cmd_kac_gloop(args) -> int:
    if args.rank == 2:
        f = kacpoly.gloop_kac_rank2(args.g, args.alpha)
    else:
        f = kacpoly.gloop_kac_rank3(args.g, args.alpha)
    poly = f.as_polynomial()
    _emit(args, poly.to_string(),
          {"g": args.g, "alpha": args.alpha, "rank": args.rank, "count": _poly_json(poly)})
    return 0


def cmd_kac_kronecker(args) -> int:
    f = closedforms.kronecker_A(args.r, args.alpha)
    if args.via_zeta:
        pipeline = kacpoly.kronecker_kac_via_zeta(args.r, args.alpha)
        if pipeline != f:
            print("zeta-pipeline reconstruction disagrees with the closed form",
                  file=sys.stderr)
            return 4
    _emit(args, f.to_string(),
          {"r": args.r, "alpha": args.alpha, "count": _rf_payload(f)})
    return 0


def cmd_fiber_count(args) -> int:
    Q = _load_quiver(args.quiver)
    rank = _parse_ints(args.rank) if args.rank is not None else (1,) * Q.num_vertices
    if args.symbolic:
        if len(rank) != Q.num_vertices:
            raise DimensionMismatch(
                f"rank vector needs {Q.num_vertices} entries, got {len(rank)}")
        if any(r != 1 for r in rank):
            raise SystemExit("symbolic fiber counts require rank all-one")
        f = kacpoly.rank1_fiber_count(Q, args.alpha)
        _emit(args, f.to_string(), {"alpha": args.alpha, "count": _rf_payload(f)})
        return 0
    if args.q is None:
        raise SystemExit("brute-force fiber counts need --q")
    lam = _parse_ints(args.lam) if args.lam is not None else None
    count = bruteforce.moment_fiber_count(Q, args.alpha, rank, args.q, lam, _caps(args))
    _emit(args, str(count), {"alpha": args.alpha, "q": args.q,
                             "rank": list(rank), "count": count})
    return 0


def cmd_jet_series(args) -> int:
    Q = _load_quiver(args.quiver)
    rank = _parse_ints(args.rank) if args.rank is not None else (1,) * Q.num_vertices
    counts = bruteforce.jet_counts(Q, rank, args.q, args.n_max, _caps(args))
    text = " ".join(str(c) for c in counts)
    _emit(args, text, {"q": args.q, "rank": list(rank), "counts": counts})
    return 0


def cmd_ask(args) -> int:
    try:
        with open(args.theta) as fh:
            basis = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read matrix family file {args.theta}: {exc}")
    values = bruteforce.ask_counts(basis, args.q, args.n_max, _caps(args))
    text = " ".join(str(v) for v in values)
    _emit(args, text, {"q": args.q, "ask": [str(v) for v in values]})
    return 0


def cmd_limits(args) -> int:
    Q = _load_quiver(args.quiver)
    if not is_2_connected(Q) or Q.num_arrows == 0:
        raise SystemExit("limits exist only for 2-connected quivers")
    A, B = kacpoly.limits(Q)
    text = f"A: {A.to_string()}\nB: {B.to_string()}"
    _emit(args, text, {"A": _rf_payload(A), "B": _rf_payload(B)})
    return 0


def cmd_hilbert(args) -> int:
    Q = _load_quiver(args.quiver)
    if not is_2_connected(Q) or Q.num_arrows == 0:
        raise SystemExit("the face-ring series needs a 2-connected quiver")
    h = kacpoly.order_complex_hilbert(Q)
    _emit(args, h.to_string(), {"hilbert": _rf_payload(h)})
    return 0


def cmd_hall(args) -> int:
    rank1 = _parse_ints(args.rank1)
    rank2 = _parse_ints(args.rank2)
    table = hall.structure_constants(rank1, rank2, args.alpha, args.q)
    payload = {}
    for (lab1, lab2), values in sorted(table.items()):
        key = f"{list(lab1)}*{list(lab2)}"
        payload[key] = {str(list(lab)): str(v) for lab, v in sorted(values.items())}
    # the text form is the JSON form, so both formats print it, encoded once
    with _output(args) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    from . import verify

    if args.format == "text":
        with _output(args) as out:
            _, ok = verify.run_checks(args.suite, out)
    else:
        results, ok = verify.run_checks(args.suite)
        _emit(args, "", {"passed": ok, "criteria": [
            {"criterion": key, **dataclasses.asdict(res)} for key, res in results]})
    return 0 if ok else 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="quivercount",
        description="Exact counts of quiver representations over truncated power series")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility (at least 1); has no effect, "
                             "every count runs in one process")
    parser.add_argument("--max-space-log2", type=int, default=24)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kac", help="rank-all-one count over O_alpha")
    p.add_argument("--quiver", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--method", choices=("chain", "tree"), default="chain")
    p.set_defaults(fn=cmd_kac)

    p = sub.add_parser("kac-gloop", help="loop-quiver count in rank 2 or 3")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--rank", type=int, choices=(2, 3), required=True)
    p.set_defaults(fn=cmd_kac_gloop)

    p = sub.add_parser("kac-kronecker",
                       help="absolutely indecomposable count A(q) of the "
                            "r-Kronecker quiver in rank (1,2), any alpha >= 1")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True, help="any alpha >= 1")
    p.add_argument("--via-zeta", action="store_true",
                   help="cross-check through the zeta-function pipeline")
    p.set_defaults(fn=cmd_kac_kronecker)

    p = sub.add_parser("fiber-count", help="moment-map fiber count")
    p.add_argument("--quiver", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--rank", help="comma-separated rank vector")
    p.add_argument("--q", type=int)
    p.add_argument("--lam", help="comma-separated deformation vector")
    p.add_argument("--symbolic", action="store_true",
                   help="rank-all-one symbolic count instead of brute force")
    p.set_defaults(fn=cmd_fiber_count)

    p = sub.add_parser("jet-series", help="fiber counts over F_q[t]/(t^n)")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rank", help="comma-separated rank vector")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(fn=cmd_jet_series)

    p = sub.add_parser("ask", help="average kernel sizes of a matrix family")
    p.add_argument("--theta", required=True,
                   help="JSON file with the list of integer basis matrices")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(fn=cmd_ask)

    p = sub.add_parser("limits", help="normalized large-alpha limits A and B")
    p.add_argument("--quiver", required=True)
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("hilbert", help="face-ring Hilbert series of the arrow poset")
    p.add_argument("--quiver", required=True)
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("hall", help="Hall-algebra structure constants")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--rank1", required=True, help="left degree, e.g. 1,0")
    p.add_argument("--rank2", required=True, help="right degree, e.g. 0,1")
    p.set_defaults(fn=cmd_hall)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all", choices=SUITES)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except QuivercountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
