"""One measured process: runs a list of coinv CLI cases in order, one at a time.

Usage: python3 child.py SPEC.json

SPEC holds `src` (the coinv sources to import), `cases` (argv lists),
`workdir`, `trace` and `case_budget_s`.  For case i the report goes to
`workdir/report_<i>.json` and one line to `workdir/results.jsonl`, written
and flushed as soon as the verdict is in, so a killed child still leaves
the verdicts it reached.  The line carries the monotonic time of the
verdict, which the parent uses to time the run.  With `trace`, the spans of
every case are written to `workdir/spans.json` after the last case.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    coinv that catches Exception can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import coinv
    import coinv.cli
    expected = os.path.join(os.path.realpath(spec["src"]), "coinv")
    if os.path.dirname(os.path.realpath(coinv.__file__)) != expected:
        sys.stderr.write(f"imported coinv from {coinv.__file__}, expected {expected}\n")
        return 2

    tracer = None
    if spec["trace"]:
        import tracing  # next to this file, so on sys.path
        tracer = tracing.Tracer()
        tracing.install(tracer)

    workdir = spec["workdir"]
    signal.signal(signal.SIGALRM, _on_alarm)
    with open(os.path.join(workdir, "results.jsonl"), "w", encoding="utf-8") as out:
        for i, argv in enumerate(spec["cases"]):
            if tracer is not None:
                tracer.run_id = i
            report = os.path.join(workdir, f"report_{i}.json")
            line = {"case": i, "code": None, "error": None}
            signal.setitimer(signal.ITIMER_REAL, spec["case_budget_s"])
            try:
                line["code"] = coinv.cli.run(argv + ["--format", "json", "-o", report])
            except CaseTimeout:
                line["error"] = f"timed out after {spec['case_budget_s']} s"
            except Exception as exc:  # a crash is a failed case, never a dropped one
                line["error"] = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            line["t"] = time.monotonic()
            out.write(json.dumps(line) + "\n")
            out.flush()

    if tracer is not None:
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
