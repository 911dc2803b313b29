"""coinv benchmark: fixed lists of CLI certification runs, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload grid_cold --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py):
  grid_cold    the nine certify-fft runs of the acceptance grid, no disk cache;
               almost all time is weight-block elimination in fpquot.
  grid_warm    the same runs reading a COINV_CACHE_DIR that set-up filled by
               running the grid cold; elimination is bypassed, so block load,
               constraint assembly and coaction terms dominate.
  mixed_small  every other command on small quotients: classical, hopf,
               catalg and exactlin do the work.

Each pass is one fresh child process (child.py) that runs the workload's
cases in order: a closed loop with one client, nothing in parallel.  Passes
repeat until --seconds have gone by; the pass in flight then completes.
With --trace 0 the parent reports the end-to-end metrics of the passes, as
medians: wall time from spawn to the last verdict, user+sys CPU and peak RSS
from wait4, set-up time, and the share of cases that reached their predicted
verdict.  With --trace 1 it runs one untraced and one traced pass and
reports the per-layer metrics of the traced one (tracing.py), the tracing
overhead, and fails if the traced reports differ from the untraced ones or
a span the workload must produce never ran.

Every case's report is checked against the theorem's prediction; a nonzero
exit, a wrong dimension, a per-case timeout or a killed child each count as
a failed case.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The generated case list
(with any drawn F files) and the outcome of the last run of each workload and
seed are kept in .perfbench_out/<workload>-seed<n>/; each recorded argv
replays from the repository root as `PYTHONPATH=src python3 -m coinv.cli ARGV`.

Tests of the benchmark itself: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, build_cases, check_verdict  # noqa: E402

CASE_BUDGET_S = 60.0  # per case; the slowest grid case takes about 10 s
RUN_LIMIT_S = 170.0  # the whole invocation, set-up included
SETUP_REPEATS = 5
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

# spans each workload must produce at least once in its traced pass
_GRID_SPANS = ("cli.case", "fpquot.block_acquire", "fpquot.nf_query", "fpquot.kernel",
               "exactlin.solve", "exactlin.from_vectors", "comod.coinvariants",
               "comod.theta_image", "freealg.theta_matrix", "hopf.build_hf")
REQUIRED_SPANS = {
    "grid_cold": _GRID_SPANS,
    "grid_warm": _GRID_SPANS,
    "mixed_small": _GRID_SPANS + ("comod.off_diagonal", "catalg.hom_space",
                                  "catalg.correspondence", "classical.glt_invariants",
                                  "classical.theta_star", "classical.minors", "hopf.compat"),
}


@dataclass
class Pass:
    """Outcome of one child process."""

    returncode: int | None = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    reports: list[dict | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    spans: dict | None = None


def child_env(cache_dir: Path | None) -> dict:
    """The caller's environment without anything that could change which coinv
    runs or which cache it reads; a cache dir is set only when asked for."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("COINV_CACHE_DIR", "PYTHONPATH", "PYTHONHASHSEED")}
    env["PYTHONHASHSEED"] = "0"
    if cache_dir is not None:
        env["COINV_CACHE_DIR"] = str(cache_dir)
    return env


def run_pass(root: Path, work: Path, cases, env: dict, *, trace: bool, timeout: float,
             case_budget: float = CASE_BUDGET_S) -> Pass:
    """Spawn one child over all cases, wait for it, and check every verdict."""
    pdir = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    spec = {"src": str(root / "src"), "cases": [c.argv for c in cases], "workdir": str(pdir),
            "trace": trace, "case_budget_s": case_budget}
    (pdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    result = Pass()
    with open(pdir / "stdout.txt", "wb") as out, open(pdir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(pdir / "spec.json")],
                                cwd=root, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        result.returncode = os.waitstatus_to_exitcode(status)
    result.cpu_s = usage.ru_utime + usage.ru_stime
    result.peak_rss_mb = usage.ru_maxrss / 1024

    lines = {}
    results_path = pdir / "results.jsonl"
    if results_path.exists():
        for raw in results_path.read_text(encoding="utf-8").splitlines():
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:  # cut short by a kill: that case has no verdict
                continue
            lines[line["case"]] = line
    last = max((line["t"] for line in lines.values()), default=time.monotonic())
    result.wall_s = last - start
    for i, case in enumerate(cases):
        line = lines.get(i)
        report = None
        if line is None:
            why = f"no verdict: child exited with {result.returncode}"
            tail = (pdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-300:]
            if tail.strip():
                why += f" ({tail.strip().splitlines()[-1]})"
        elif line["error"]:
            why = line["error"]
        else:
            rpath = pdir / f"report_{i}.json"
            report = json.loads(rpath.read_text(encoding="utf-8")) if rpath.exists() else None
            why = check_verdict(case, line["code"], report)
        result.reports.append(report)
        if why is not None:
            result.failures.append(f"{' '.join(case.argv)}: {why}")
    if trace and (pdir / "spans.json").exists():
        result.spans = json.loads((pdir / "spans.json").read_text(encoding="utf-8"))
    return result


def without_millis(report: dict | None):
    if report is None:
        return None
    return {**report, "cases": [{k: v for k, v in c.items() if k != "millis"}
                                for c in report["cases"]]}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """One benchmark invocation: set-up, passes, checks and the result line."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []  # cases that missed their verdict
        self.problems: list[str] = []  # failed checks of the run as a whole
        self.notes: list[str] = []
        self.out = Path(OUT_DIR) / f"{workload}-seed{seed}"
        self.work = root / WORK_DIR
        self.work.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=self.work))

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def account(self, p: Pass, ncases: int) -> Pass:
        self.attempted += ncases
        self.failures += p.failures
        return p

    def setup(self):
        """Generate and check the cases and start one idle child, several times
        (median); grid_warm then fills a private cache by running the grid cold."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if self.out.exists():
                shutil.rmtree(self.out)
            cases, matrices = build_cases(self.workload, self.seed, self.out)
            probe = run_pass(self.root, self.work, [], child_env(None), trace=False,
                             timeout=self.remaining())
            times.append(time.perf_counter() - t0)
        if probe.returncode != 0:
            self.problems.append(f"an idle child exited with {probe.returncode}")
        self.cases = cases
        (self.out / "cases.json").write_text(json.dumps({
            "workload": self.workload, "seed": self.seed,
            "argv": [c.argv for c in cases], "F": matrices}, indent=1) + "\n", encoding="utf-8")
        setup_s = statistics.median(times)
        self.cache = None
        self.cache_bytes = 0
        if self.workload == "grid_warm":
            self.cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
            t0 = time.perf_counter()
            self.account(run_pass(self.root, self.work, cases, child_env(self.cache),
                                  trace=False, timeout=self.remaining()), len(cases))
            setup_s += time.perf_counter() - t0
            self.cache_bytes = dir_bytes(self.cache)
        return setup_s

    def one_pass(self, trace: bool) -> Pass:
        return self.account(run_pass(self.root, self.work, self.cases, child_env(self.cache),
                                     trace=trace, timeout=self.remaining()), len(self.cases))

    def measure(self) -> dict:
        setup_s = self.setup()
        passes = []
        started = time.monotonic()
        while True:
            p = self.one_pass(trace=False)
            passes.append(p)
            if time.monotonic() - started >= self.seconds or self.remaining() < 2 * p.wall_s:
                break
        walls = [p.wall_s for p in passes]
        self.notes.append(f"passes: {len(passes)}; wall_s per pass: "
                          + ", ".join(f"{w:.3f}" for w in walls)
                          + "; too few samples for a high percentile (none has 10 beyond it)")
        return {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
            "setup_s": (setup_s, "s"),
            "ok_ratio": (1 - len(self.failures) / self.attempted, "ratio"),
        }

    def measure_traced(self) -> dict:
        self.setup()
        plain = self.one_pass(trace=False)
        traced = self.one_pass(trace=True)
        if traced.spans is None:
            self.problems.append("traced child wrote no spans")
            spans, counters = [], {}
        else:
            spans, counters = traced.spans["spans"], traced.spans["counters"]
        for i, (a, b) in enumerate(zip(plain.reports, traced.reports)):
            if without_millis(a) != without_millis(b):
                self.problems.append(f"{' '.join(self.cases[i].argv)}: traced report differs")
        calls = {name: c for name, (_, _, c) in tracing.totals(spans).items()}
        for name in REQUIRED_SPANS[self.workload]:
            if not calls.get(name):
                self.problems.append(f"span {name} never ran")
        metrics = tracing.layer_metrics(spans, counters)
        metrics["fpquot.cache_bytes"] = (self.cache_bytes, "bytes")
        metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
        share = metrics["fpquot.block_acquire_s"][0] / plain.wall_s if plain.wall_s else 0.0
        self.notes.append(f"untraced wall_s {plain.wall_s:.3f}, traced wall_s {traced.wall_s:.3f}; "
                          f"fpquot.block_acquire_s is {share:.1%} of untraced wall_s")
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "coinv" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no coinv sources at ./src/coinv; "
                         "run from the root of a coinv checkout\n")
        return 2

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = run.measure_traced() if run.trace else run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    failed = len(run.failures)
    outcome = {"workload": run.workload, "seed": run.seed, "trace": run.trace,
               "attempted": run.attempted, "failed": failed, "failures": run.failures,
               "problems": run.problems,
               "notes": run.notes, "metrics": {k: v for k, (v, _) in metrics.items()}}
    (run.out / "results.json").write_text(json.dumps(outcome, indent=1) + "\n", encoding="utf-8")
    for note in run.notes:
        print(note)
    for why in run.failures + run.problems:
        print(f"FAILED: {why}")
    print(f"fail_ratio: {failed / run.attempted} "
          f"({failed} of {run.attempted} cases); cases in {run.out}/cases.json")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
