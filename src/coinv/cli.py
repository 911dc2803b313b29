"""Command-line front end: run certification suites, emit reports.

Exit codes separate the three outcomes the sound-only oracle can produce:
0 = everything certified/passed, 1 = a mathematical mismatch (a computed
value contradicts a theorem prediction or an independent oracle — a bug
signal), 2 = inconclusive (some condition stayed NotCertified at the chosen
truncation; raise --trunc), 3 = usage error (bad arguments, malformed or
singular F, bounds out of range).  Any other exception is an internal error
and propagates with its traceback.

Reports are deterministic for a fixed configuration: cases are computed (or
dispatched to --jobs workers) and then sorted by case key before emission,
and timings are recorded as 0 unless --timings is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .catalg import intertwiner_space, main_correspondence_check
from .classical import fft1_check, fft2_check
from .comod import CoactionContext, certify_fft, coinvariants, off_diagonal_vanish
from .freealg import theta_matrix
from .hopf import (COMPAT_MIN_DEGREE, RELATION_DEGREE, FMatrix, build_hf,
                   check_hopf_compat)

Q = Fraction

EXIT_CERTIFIED = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

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


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters, echoed into every report."""

    command: str
    m: int
    n: int
    t: int
    f_spec: str
    k: int | None
    bidegree: tuple[int, int] | None
    trunc: str
    seed: int
    fmt: str
    jobs: int
    timings: bool
    output: str | None
    max_degree: int | None = None


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
            return FMatrix.from_rows(rows)
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


def resolve_trunc(trunc: str, auto_value: int, minimum: int) -> int:
    minimum = max(minimum, RELATION_DEGREE)
    d = trunc_param(trunc)
    if d == "auto":
        return max(auto_value, minimum)
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


def classify(dim, dim_theta, target, certified) -> str:
    """Status of one case: a dimension above the theorem's target, or a theta
    rank off it, contradicts soundness; otherwise certified iff proven."""
    if dim > target or dim_theta != target:
        return "mismatch"
    return "certified" if certified else "inconclusive"


def aggregate_status(case_statuses) -> str:
    worst = "certified"
    for s in case_statuses:
        if _STATUS_ORDER[s] > _STATUS_ORDER[worst]:
            worst = s
    return worst


def make_report(config: RunConfig, d_param, cases, status) -> dict:
    return {
        "schema": 1,
        "version": __version__,
        "command": config.command,
        "params": {
            "m": config.m,
            "n": config.n,
            "t": config.t,
            "F": config.f_spec,
            "k": config.k if config.max_degree is None else config.max_degree,
            "d": d_param,
            "seed": config.seed,
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


def emit(report: dict, config: RunConfig, extra_lines=()) -> None:
    text = render(report, config.fmt, extra_lines)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- certify-fft ------------------------------------------------------------------


def _certify_case(args):
    """Worker: one balanced bidegree; reconstructable from plain values."""
    m, n, t, f_rows, k, d, timings = args
    t0 = time.monotonic()
    F = FMatrix.from_rows([[Q(v) for v in row] for row in f_rows])
    ctx = CoactionContext(m, n, t, F)
    rep = certify_fft(ctx, k, d, check_off_diagonal=False)
    millis = int((time.monotonic() - t0) * 1000) if timings else 0
    status = classify(rep.dim_coinv, rep.theta_rank, (m * n) ** k, rep.certified)
    return (make_case((k, k), rep.dim_coinv, rep.theta_rank, rep.certified, d, millis),
            status)


def cmd_certify_fft(config: RunConfig, F: FMatrix):
    kmax = config.k
    d_param = trunc_param(config.trunc)
    jobs_args = []
    for k in range(kmax + 1):
        d = resolve_trunc(config.trunc, 2 * k + 2, 2 * k)
        jobs_args.append((config.m, config.n, config.t, F.to_param(), k, d, config.timings))
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_certify_case, jobs_args))
    else:
        results = [_certify_case(a) for a in jobs_args]
    cases = [c for c, _ in results]
    status = aggregate_status(s for _, s in results)
    return make_report(config, d_param, cases, status), _STATUS_EXIT[status]


# -- coinvariants -----------------------------------------------------------------


def cmd_coinvariants(config: RunConfig, F: FMatrix):
    i, j = config.bidegree
    d = resolve_trunc(config.trunc, i + j + 2, i + j)
    t0 = time.monotonic()
    ctx = CoactionContext(config.m, config.n, config.t, F)
    if i == j:
        rep = certify_fft(ctx, i, d, check_off_diagonal=False)
        dim, dim_theta, certified = rep.dim_coinv, rep.theta_rank, rep.certified
        status = classify(dim, dim_theta, (config.m * config.n) ** i, certified)
    else:
        V = coinvariants(ctx, (i, j), d)
        cert = off_diagonal_vanish(config.m, config.n, config.t, (i, j), ctx.hopf)
        dim, dim_theta = V.dim, 0
        certified = cert.holds and dim == 0
        status = "certified" if certified else "mismatch"
    millis = int((time.monotonic() - t0) * 1000) if config.timings else 0
    cases = [make_case((i, j), dim, dim_theta, certified, d, millis)]
    return make_report(config, d, cases, status), _STATUS_EXIT[status]


# -- theta-rank ---------------------------------------------------------------------


def cmd_theta_rank(config: RunConfig, F: FMatrix):
    cases = []
    statuses = []
    for k in range(config.k + 1):
        t0 = time.monotonic()
        rank = theta_matrix(config.m, config.n, config.t, k).rank
        millis = int((time.monotonic() - t0) * 1000) if config.timings else 0
        target = (config.m * config.n) ** k
        ok = rank == target
        cases.append(make_case((k, k), target, rank, ok, 0, millis))
        statuses.append("certified" if ok else "mismatch")
    status = aggregate_status(statuses)
    return make_report(config, 0, cases, status), _STATUS_EXIT[status]


# -- intertwiners -------------------------------------------------------------------


def cmd_intertwiners(config: RunConfig, F: FMatrix):
    i, j = config.bidegree
    d = resolve_trunc(config.trunc, i + j + 2, i + j)
    t0 = time.monotonic()
    basis = intertwiner_space(config.m, config.n, config.t, F, i, j, d)
    millis = int((time.monotonic() - t0) * 1000) if config.timings else 0
    expected = (config.m * config.n) ** i if i == j else 0
    dim = len(basis)
    status = classify(dim, expected, expected, dim == expected)
    cases = [make_case((i, j), dim, expected, dim == expected, d, millis)]
    return make_report(config, d, cases, status), _STATUS_EXIT[status]


# -- hopf-check ---------------------------------------------------------------------


def cmd_hopf_check(config: RunConfig, F: FMatrix):
    d = resolve_trunc(config.trunc, COMPAT_MIN_DEGREE, COMPAT_MIN_DEGREE)
    t0 = time.monotonic()
    rep = check_hopf_compat(build_hf(F), d)
    millis = int((time.monotonic() - t0) * 1000) if config.timings else 0
    status = rep.status
    cases = [make_case((0, 0), 0, 0, rep.certified, d, millis)]
    extra = [
        f"coassociativity (exact): {'ok' if rep.coassoc_ok else 'FAIL'}",
        f"counit laws (exact): {'ok' if rep.counit_laws_ok else 'FAIL'}",
        f"counit kills relations (exact): {'ok' if rep.counit_kills_relations else 'FAIL'}",
        f"antipode(relations) in ideal: {sum(map(bool, rep.relation_antipode))}/{len(rep.relation_antipode)}",
        f"coproduct(relations) in ideal tensor: {sum(map(bool, rep.relation_coproduct))}/{len(rep.relation_coproduct)}",
        f"antipode axiom on generators: {sum(map(bool, rep.antipode_axiom))}/{len(rep.antipode_axiom)}",
    ]
    return make_report(config, d, cases, status), _STATUS_EXIT[status], extra


# -- classical ----------------------------------------------------------------------


def cmd_classical(config: RunConfig, F: FMatrix):
    kmax = config.max_degree
    t0 = time.monotonic()
    r1 = fft1_check(config.m, config.n, config.t, 2 * kmax)
    r2 = fft2_check(config.m, config.n, config.t, kmax)
    millis = int((time.monotonic() - t0) * 1000) if config.timings else 0
    fft1_by_degree = {row.degree: row for row in r1.rows}
    cases = []
    ok_all = True
    for k in range(kmax + 1):
        inv_row = fft1_by_degree[2 * k]
        odd_ok = True
        if 2 * k + 1 <= 2 * kmax:
            odd_ok = fft1_by_degree[2 * k + 1].equal
        ker_row = r2.rows[k]
        ok = inv_row.equal and odd_ok and ker_row.equal
        ok_all = ok_all and ok
        cases.append(make_case((k, k), inv_row.dim_left, inv_row.dim_right, ok, 0,
                               millis if k == 0 else 0))
    status = "certified" if ok_all else "mismatch"
    extra = ["invariants vs image (by tensor-ring degree): "
             + ", ".join(f"{row.degree}:{row.dim_left}/{row.dim_right}" for row in r1.rows),
             "kernel vs minors (by X-degree): "
             + ", ".join(f"{row.degree}:{row.dim_left}/{row.dim_right}" for row in r2.rows)]
    return make_report(config, 0, cases, status), _STATUS_EXIT[status], extra


# -- correspondence -----------------------------------------------------------------


def cmd_correspondence(config: RunConfig, F: FMatrix):
    cases = []
    statuses = []
    extra = []
    d_param = trunc_param(config.trunc)
    for k in range(config.k + 1):
        d = resolve_trunc(config.trunc, 2 * k + 2, 2 * k)
        t0 = time.monotonic()
        rep = main_correspondence_check(config.m, config.n, config.t, F, k, d)
        millis = int((time.monotonic() - t0) * 1000) if config.timings else 0
        cases.append(make_case((k, k), rep.psi_rank, (config.m * config.n) ** k,
                               rep.ok, d, millis))
        statuses.append("certified" if rep.ok else "mismatch")
        if rep.mismatches:
            extra.append(f"degree {k} mismatching words: " + ", ".join(rep.mismatches))
    status = aggregate_status(statuses)
    return make_report(config, d_param, cases, status), _STATUS_EXIT[status], extra


# -- argument wiring ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="coinv",
                     description="Exact certification of free and classical "
                                 "fundamental theorems of coinvariant theory.")
    parser.add_argument("--version", action="version", version=f"coinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_f=True):
        p.add_argument("-m", type=int, default=1, help="rows of the source matrix ring")
        p.add_argument("-n", type=int, default=1, help="columns of the source matrix ring")
        p.add_argument("-t", type=int, default=1, help="inner size / F dimension")
        if with_f:
            p.add_argument("--F", default="preset:identity",
                           help="preset:identity | preset:diag:a,b,... | preset:jordan "
                                "| file:PATH (JSON t x t array of rational strings)")
        p.add_argument("--trunc", default="auto",
                       help="ideal truncation degree, or 'auto' (= bidegree sum + 2)")
        p.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
        p.add_argument("--jobs", type=int, default=1, help="parallel case workers")
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
    common(p, with_f=False)
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("intertwiners", help="dim Hom((U^m)^(x i), (U^n)^(x j))")
    common(p)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)

    p = sub.add_parser("hopf-check", help="certify Hopf structure maps descend")
    common(p)

    p = sub.add_parser("classical", help="commutative FFT1/FFT2 degree by degree")
    common(p, with_f=False)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("correspondence", help="coinv_to_hom(theta(w)) = psi(w) per word")
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


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        if min(args.m, args.n, args.t) < 1:
            raise CliUsageError("m, n, t must be positive")
        for attr in ("k", "i", "j", "max_degree"):
            v = getattr(args, attr, None)
            if v is not None and v < 0:
                raise CliUsageError(f"{attr} must be nonnegative")
        if args.jobs < 1:
            raise CliUsageError("--jobs must be >= 1")
        f_spec = getattr(args, "F", "preset:identity")
        F = parse_f(f_spec, args.t)
        config = RunConfig(
            command=args.command, m=args.m, n=args.n, t=args.t, f_spec=f_spec,
            k=getattr(args, "k", None),
            bidegree=(args.i, args.j) if hasattr(args, "i") else None,
            trunc=str(args.trunc), seed=args.seed, fmt=args.fmt, jobs=args.jobs,
            timings=args.timings, output=args.output,
            max_degree=getattr(args, "max_degree", None),
        )
        result = _COMMANDS[args.command](config, F)
        report, code = result[0], result[1]
        extra = result[2] if len(result) > 2 else ()
        emit(report, config, extra)
        return code
    except CliUsageError as exc:
        sys.stderr.write(f"coinv: error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
