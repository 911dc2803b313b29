"""Command-line front end: run certification suites, emit reports.

Exit codes: 0 = everything certified/passed, 1 = a mathematical mismatch (a
computed value contradicts a theorem prediction or an independent oracle — a
bug signal), 2 = inconclusive (some condition stayed uncertified at the
chosen truncation; raise --trunc), 3 = usage error (bad arguments, malformed
or singular F, bounds out of range, an -o path that cannot be written, a solve
refused as too large before it is built), 4 = internal error (any other
exception; `main`, which is coinv.main, prints its traceback to stderr).

--F belongs to the five commands that read H(F), --trunc to four: hopf-check's
conditions lie in I_2.  `run` builds the cover of H(F) once, here and nowhere
else, and hands it with the parsed arguments to the command, whose engine
calls read t from the cover; theta-rank and classical build none.  --trunc
auto is max(w, 2) for w the degree of the longest word of a command's
conditions (each cmd_* passes its w); a lower --trunc is a usage error.  The
product lemma's base case is solved in I_2 where only its containment is
read; correspondence reads its dimension too, at --trunc.  A report is
{schema: 2, version, command, params{m,n,t,F,k,d}, cases[], status}; its k is
classical's --max-degree, and a command without --F or -k reports
preset:identity or null.  It is deterministic for a fixed configuration:
cases are sorted by bidegree, and millis stay 0 unless --timings is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import __version__, main
from .catalg import (SolveTooLarge, balanced_hom_dim, block_hom_dim, certify_fft,
                     lemma_base_case, main_correspondence_check)
from .comod import off_diagonal_vanish
from .freealg import theta_rank
from .hopf import RELATION_DEGREE, FMatrix, HopfCover, build_hf, check_hopf_compat

Q = Fraction

EXIT_CERTIFIED = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_STATUS_ORDER = {"certified": 0, "inconclusive": 1, "mismatch": 2}
_STATUS_EXIT = {"certified": EXIT_CERTIFIED, "inconclusive": EXIT_INCONCLUSIVE,
                "mismatch": EXIT_MISMATCH}


class CliUsageError(ValueError):
    """Invalid configuration detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def parse_f(spec: str, t: int) -> FMatrix:
    """Parse --F: preset:identity | preset:diag:a,b,... | preset:jordan | file:PATH."""
    if spec.startswith("preset:"):
        name = spec[len("preset:"):]
        if name == "identity":
            return FMatrix.identity(t)
        if name == "jordan":
            return FMatrix.jordan(t)
        if name.startswith("diag:"):
            parts = name[len("diag:"):].split(",")
            if len(parts) != t:
                raise CliUsageError(f"diag preset needs {t} entries, got {len(parts)}")
            try:
                entries = [Q(p) for p in parts]
            except (ValueError, ZeroDivisionError) as exc:
                raise CliUsageError(f"bad diagonal entry: {exc}") from exc
            try:
                return FMatrix.diagonal(entries)
            except ValueError as exc:
                raise CliUsageError(str(exc)) from exc
        raise CliUsageError(f"unknown preset {name!r}")
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliUsageError(f"cannot read F file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliUsageError(f"F file is not valid JSON: {exc}") from exc
        if (not isinstance(data, list) or len(data) != t
                or any(not isinstance(row, list) or len(row) != t for row in data)):
            raise CliUsageError(f"F file must hold a {t}x{t} array")
        try:
            rows = [[Q(str(v)) for v in row] for row in data]
        except (ValueError, ZeroDivisionError) as exc:
            raise CliUsageError(f"bad F entry: {exc}") from exc
        try:
            return FMatrix(rows)
        except ValueError as exc:
            raise CliUsageError(str(exc)) from exc
    raise CliUsageError(f"--F must start with preset: or file: (got {spec!r})")


def trunc_param(trunc: str):
    """The --trunc value as given: 'auto' or an integer."""
    if trunc == "auto":
        return trunc
    try:
        return int(trunc)
    except ValueError as exc:
        raise CliUsageError(f"--trunc must be an integer or 'auto' (got {trunc!r})") from exc


def resolve_trunc(trunc: str, floor: int) -> int:
    """max(floor, RELATION_DEGREE) under 'auto'; an integer may not lie below it."""
    minimum = max(floor, RELATION_DEGREE)
    d = trunc_param(trunc)
    if d == "auto":
        return minimum
    if d < minimum:
        raise CliUsageError(f"--trunc {d} below the minimum {minimum} for this run")
    return d


# -- report assembly ------------------------------------------------------------


def make_case(bidegree, dim_coinv, dim_theta, certified, witness_degree, millis):
    return {
        "bidegree": [int(bidegree[0]), int(bidegree[1])],
        "dim_coinv": int(dim_coinv),
        "dim_theta": int(dim_theta),
        "certified": bool(certified),
        "witness_degree": int(witness_degree),
        "millis": int(millis),
    }


def classify(dim, target, certified) -> str:
    """Status of one case: a dimension above the theorem's target contradicts
    soundness; otherwise certified iff proven."""
    if dim > target:
        return "mismatch"
    return "certified" if certified else "inconclusive"


def aggregate_status(case_statuses) -> str:
    return max(case_statuses, key=_STATUS_ORDER.__getitem__, default="certified")


def make_report(args: argparse.Namespace, d_param, cases, status) -> dict:
    return {
        "schema": 2,
        "version": __version__,
        "command": args.command,
        "params": {
            "m": args.m,
            "n": args.n,
            "t": args.t,
            "F": getattr(args, "F", "preset:identity"),
            "k": getattr(args, "k", getattr(args, "max_degree", None)),
            "d": d_param,
        },
        "cases": sorted(cases, key=lambda c: tuple(c["bidegree"])),
        "status": status,
    }


def render(report: dict, fmt: str, extra_lines=()) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        lines = ["bidegree_i,bidegree_j,dim_coinv,dim_theta,certified,witness_degree,millis"]
        for c in report["cases"]:
            lines.append(",".join(str(x) for x in (
                c["bidegree"][0], c["bidegree"][1], c["dim_coinv"], c["dim_theta"],
                str(c["certified"]).lower(), c["witness_degree"], c["millis"])))
        lines.append(f"status,{report['status']},,,,,")
        return "\n".join(lines) + "\n"
    # aligned text table
    header = ("bidegree", "dim_coinv", "dim_theta", "certified", "witness_d", "millis")
    rows = [header]
    for c in report["cases"]:
        rows.append((f"({c['bidegree'][0]},{c['bidegree'][1]})", str(c["dim_coinv"]),
                     str(c["dim_theta"]), "yes" if c["certified"] else "NO",
                     str(c["witness_degree"]), str(c["millis"])))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [f"{report['command']}  m={report['params']['m']} n={report['params']['n']} "
             f"t={report['params']['t']} F={report['params']['F']}"]
    for r in rows:
        lines.append("  ".join(val.ljust(w) for val, w in zip(r, widths)).rstrip())
    lines.extend(extra_lines)
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def emit(report: dict, args: argparse.Namespace, extra_lines=()) -> None:
    text = render(report, args.fmt, extra_lines)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliUsageError(f"cannot write the report to {args.output}: "
                                f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _millis(args: argparse.Namespace, t0: float) -> int:
    """Elapsed milliseconds since t0 with --timings, else 0 (byte-stable)."""
    return int((time.monotonic() - t0) * 1000) if args.timings else 0


# -- commands: each returns its (case, status) pairs, the d it reports and its
# extra text lines; `run` turns them into the report and the exit code ------------


def _balanced_case(args: argparse.Namespace, hopf: HopfCover, k: int, d: int, base):
    """The squeeze at bidegree (k,k): its case and status."""
    t0 = time.monotonic()
    rep = certify_fft(args.m, args.n, hopf, k, d, base)
    status = classify(rep.dim_coinv, (args.m * args.n) ** k, rep.certified)
    return (make_case((k, k), rep.dim_coinv, rep.theta_rank, rep.certified, d,
                      _millis(args, t0)), status)


def cmd_certify_fft(args: argparse.Namespace, hopf: HopfCover):
    # the End(U^(x k)) conditions hold u-words of degree k
    ds = [resolve_trunc(args.trunc, k) for k in range(args.k + 1)]
    # one lemma base case for every k: containment in I_2 holds in every I_d
    base = lemma_base_case(hopf, RELATION_DEGREE) if args.k else None
    results = [_balanced_case(args, hopf, k, d, base) for k, d in enumerate(ds)]
    return results, trunc_param(args.trunc), ()


def cmd_coinvariants(args: argparse.Namespace, hopf: HopfCover):
    i, j = args.i, args.j
    # at i = j the solve is End(U^(x i))'s; at i != j, d is the coaction legs' degree
    d = resolve_trunc(args.trunc, i if i == j else i + j)
    if i == j:
        base = lemma_base_case(hopf, RELATION_DEGREE) if i else None
        return [_balanced_case(args, hopf, i, d, base)], d, ()
    t0 = time.monotonic()
    # the grading certificate proves the space zero, with no truncation
    certified = off_diagonal_vanish(hopf, (i, j)).holds
    case = make_case((i, j), 0, 0, certified, d, _millis(args, t0))
    return [(case, "certified" if certified else "mismatch")], d, ()


def cmd_theta_rank(args: argparse.Namespace, hopf: None):
    results = []
    for k in range(args.k + 1):
        t0 = time.monotonic()
        target, rank = (args.m * args.n) ** k, theta_rank(args.m, args.n, args.t, k)
        results.append((make_case((k, k), target, rank, True, 0, _millis(args, t0)), "certified"))
    return results, 0, ()


def cmd_intertwiners(args: argparse.Namespace, hopf: HopfCover):
    i, j = args.i, args.j
    d = resolve_trunc(args.trunc, max(i, j))  # the morphism conditions' words
    t0 = time.monotonic()
    if i == j:
        dim = balanced_hom_dim(args.m, args.n, hopf, i, d)
        expected, proven = (args.m * args.n) ** i, True
    else:
        # Hom((U^m)^(x i), (U^n)^(x j)) = Hom(U^(x i), U^(x j)) (x) M_(n^j x m^i)
        dim = args.m ** i * args.n ** j * block_hom_dim(args.m, args.n, hopf, i, j, d)
        # the solve is a lower bound; only the grading certificate proves Hom = 0
        expected, proven = 0, off_diagonal_vanish(hopf, (i, j)).holds
    status = classify(dim, expected, dim == expected) if proven else "mismatch"
    case = make_case((i, j), dim, expected, status == "certified", d, _millis(args, t0))
    return [(case, status)], d, ()


def cmd_hopf_check(args: argparse.Namespace, hopf: HopfCover):
    # its conditions lie in I_2, so it is proven there at every truncation
    t0 = time.monotonic()
    rep = check_hopf_compat(hopf)
    case = make_case((0, 0), 0, 0, rep.certified, RELATION_DEGREE, _millis(args, t0))
    extra = [
        f"coassociativity (exact): {'ok' if rep.coassoc_ok else 'FAIL'}",
        f"counit laws (exact): {'ok' if rep.counit_laws_ok else 'FAIL'}",
        f"counit kills relations (exact): {'ok' if rep.counit_kills_relations else 'FAIL'}",
        f"antipode(relations) in ideal: {sum(map(bool, rep.relation_antipode))}/{len(rep.relation_antipode)}",
        f"coproduct(relations) in ideal tensor: {sum(map(bool, rep.relation_coproduct))}/{len(rep.relation_coproduct)}",
        f"antipode axiom on generators: {sum(map(bool, rep.antipode_axiom))}/{len(rep.antipode_axiom)}",
    ]
    return [(case, rep.status)], RELATION_DEGREE, extra


def cmd_classical(args: argparse.Namespace, hopf: None):
    # imported here: no other command needs classical, so start-up skips it
    from .classical import fft1_check, fft2_check
    kmax = args.max_degree
    t0 = time.monotonic()
    r1 = fft1_check(args.m, args.n, args.t, 2 * kmax)
    r2 = fft2_check(args.m, args.n, args.t, kmax)
    millis = _millis(args, t0)
    fft1_by_degree = {row.degree: row for row in r1.rows}
    results = []
    for k in range(kmax + 1):
        inv_row = fft1_by_degree[2 * k]
        odd_ok = 2 * k + 1 > 2 * kmax or fft1_by_degree[2 * k + 1].equal
        ok = inv_row.equal and odd_ok and r2.rows[k].equal
        results.append((make_case((k, k), inv_row.dim_left, inv_row.dim_right, ok, 0,
                                  millis if k == 0 else 0),
                        "certified" if ok else "mismatch"))
    extra = ["invariants vs image (by tensor-ring degree): "
             + ", ".join(f"{row.degree}:{row.dim_left}/{row.dim_right}" for row in r1.rows),
             "kernel vs minors (by X-degree): "
             + ", ".join(f"{row.degree}:{row.dim_left}/{row.dim_right}" for row in r2.rows)]
    return results, 0, extra


def cmd_correspondence(args: argparse.Namespace, hopf: HopfCover):
    results = []
    extra = []
    d = resolve_trunc(args.trunc, RELATION_DEGREE)  # theta_11(x)'s condition is a relation
    base = lemma_base_case(hopf, d)  # every degree reads this one base case
    for k in range(args.k + 1):
        t0 = time.monotonic()
        rep = main_correspondence_check(args.m, args.n, hopf, k, base)
        results.append((make_case((k, k), rep.equalities_checked, (args.m * args.n) ** k,
                                  rep.ok, d, _millis(args, t0)),
                        "certified" if rep.ok else "mismatch"))
        if rep.mismatches:
            extra.append(f"degree {k} mismatching words: " + ", ".join(rep.mismatches))
    return results, trunc_param(args.trunc), extra


# -- argument wiring ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="coinv",
                     description="Exact certification of free and classical "
                                 "fundamental theorems of coinvariant theory.")
    parser.add_argument("--version", action="version", version=f"coinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, quotient=True, trunc=True):
        p.add_argument("-m", type=int, default=1, help="rows of the source matrix ring")
        p.add_argument("-n", type=int, default=1, help="columns of the source matrix ring")
        p.add_argument("-t", type=int, default=1, help="inner size / F dimension")
        if quotient:
            p.add_argument("--F", default="preset:identity",
                           help="preset:identity | preset:diag:a,b,... | preset:jordan "
                                "| file:PATH (JSON t x t array of rational strings)")
        if quotient and trunc:
            p.add_argument("--trunc", default="auto",
                           help="ideal truncation degree, or 'auto': the least its conditions need")
        p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--timings", action="store_true",
                       help="record real elapsed milliseconds (breaks byte-identity)")
        p.add_argument("-o", "--output", default=None, help="write the report to a file")

    p = sub.add_parser("certify-fft", help="squeeze-certify coinvariants = theta image")
    common(p)
    p.add_argument("-k", type=int, required=True, help="certify bidegrees (0,0)..(k,k)")

    p = sub.add_parser("coinvariants", help="coinvariant dimension at one bidegree")
    common(p)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)

    p = sub.add_parser("theta-rank", help="rank of the degree-k components of theta")
    common(p, quotient=False)
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("intertwiners", help="dim Hom((U^m)^(x i), (U^n)^(x j))")
    common(p)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)

    p = sub.add_parser("hopf-check", help="certify Hopf structure maps descend")
    common(p, trunc=False)

    p = sub.add_parser("classical", help="commutative FFT1/FFT2 degree by degree")
    common(p, quotient=False)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("correspondence",
                       help="theta(w) is coinvariant and transports to psi(w), per word")
    common(p)
    p.add_argument("-k", type=int, required=True)
    return parser


_COMMANDS = {
    "certify-fft": cmd_certify_fft,
    "coinvariants": cmd_coinvariants,
    "theta-rank": cmd_theta_rank,
    "intertwiners": cmd_intertwiners,
    "hopf-check": cmd_hopf_check,
    "classical": cmd_classical,
    "correspondence": cmd_correspondence,
}


@functools.cache
def _parser() -> _Parser:
    """The one parser of this process; parsing leaves it unchanged."""
    return build_parser()


def run(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        # the first flag out of range names itself: a shape is positive, a bound nonnegative
        for attr, flag, low in (("m", "-m", 1), ("n", "-n", 1), ("t", "-t", 1), ("k", "-k", 0),
                                ("i", "-i", 0), ("j", "-j", 0), ("max_degree", "--max-degree", 0)):
            v = getattr(args, attr, None)
            if v is not None and v < low:
                raise CliUsageError(f"{flag} must be {'positive' if low else 'nonnegative'}")
        # the run's one cover, for the commands that take --F
        hopf = build_hf(parse_f(args.F, args.t)) if hasattr(args, "F") else None
        results, d_param, extra = _COMMANDS[args.command](args, hopf)
        status = aggregate_status(s for _, s in results)
        emit(make_report(args, d_param, [c for c, _ in results], status), args, extra)
    except (CliUsageError, SolveTooLarge) as exc:
        sys.stderr.write(f"coinv: error: {exc}\n")
        return EXIT_USAGE
    return _STATUS_EXIT[status]


if __name__ == "__main__":
    # `python -m coinv.cli`: main's `from .cli import run` finds this module
    # instead of executing cli.py a second time as coinv.cli
    sys.modules["coinv.cli"] = sys.modules[__name__]
    main()
