"""The benchmark's workloads: seeded case lists and the verdict each case must reach.

A case is one `coinv.cli.run` invocation.  Seed 0 reproduces the presets of
the acceptance grid exactly; any other seed replaces every non-identity F by
a random matrix of the same family (diagonal with distinct entries, or a
single Jordan block: one repeated diagonal entry and a nonzero
superdiagonal), with small nonzero rational entries, so the quotients keep
the shape and about the elimination cost of their preset.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# (m, n, t, max k) of the acceptance grid; t = 2 rows run once per F family
GRID = ((1, 1, 1, 4), (2, 1, 1, 3), (2, 2, 1, 3), (1, 1, 2, 2), (2, 2, 2, 2))
GRID_FAMILIES = ("identity", "diag", "jordan")

# (command, m, n, t, F family or None, params); every quotient stays small
MIXED_SMALL = (
    ("classical", 3, 3, 2, None, {"max_degree": 3}),
    ("classical", 2, 2, 1, None, {"max_degree": 4}),
    ("certify-fft", 3, 2, 1, "identity", {"k": 4}),
    ("certify-fft", 3, 3, 1, "identity", {"k": 3}),
    ("coinvariants", 2, 2, 2, "diag", {"i": 2, "j": 1}),
    ("coinvariants", 2, 1, 1, "identity", {"i": 3, "j": 1}),
    ("intertwiners", 2, 2, 2, "jordan", {"i": 1, "j": 1}),
    ("intertwiners", 1, 1, 2, "diag", {"i": 1, "j": 2}),
    ("correspondence", 2, 2, 2, "jordan", {"k": 1}),
    ("correspondence", 2, 2, 1, "identity", {"k": 4}),
    ("hopf-check", 1, 1, 3, "identity", {}),
    ("hopf-check", 1, 1, 2, "jordan", {}),
    ("theta-rank", 2, 2, 2, None, {"k": 3}),
)

WORKLOADS = ("grid_cold", "grid_warm", "mixed_small")

_SMALL = tuple(sorted({Fraction(s * p, q) for s in (1, -1) for p in (1, 2, 3) for q in (1, 2, 3)}))


@dataclass(frozen=True)
class Case:
    """One CLI run and the shape its verdict is checked against."""

    command: str
    m: int
    n: int
    t: int
    f_spec: str | None
    params: dict = field(default_factory=dict)

    @property
    def argv(self) -> list[str]:
        out = [self.command, "-m", str(self.m), "-n", str(self.n), "-t", str(self.t)]
        if self.f_spec is not None:
            out += ["--F", self.f_spec]
        for key, flag in (("k", "-k"), ("i", "-i"), ("j", "-j"), ("max_degree", "--max-degree")):
            if key in self.params:
                out += [flag, str(self.params[key])]
        return out


def draw_f(family: str, t: int, rng: random.Random) -> list[list[Fraction]]:
    """A random invertible t x t matrix of the preset family's sparsity pattern."""
    rows = [[Fraction(int(i == j)) for j in range(t)] for i in range(t)]
    if family == "identity":
        return rows
    if family == "diag":
        diag = rng.sample(_SMALL, t)  # distinct, so F never degenerates to a scalar
    elif family == "jordan":
        # one repeated eigenvalue keeps F a single Jordan block, like its preset;
        # distinct diagonal entries would make it diagonalizable and ~25% dearer
        diag = [rng.choice(_SMALL)] * t
        for i in range(t - 1):
            rows[i][i + 1] = rng.choice(_SMALL)
    else:
        raise ValueError(f"unknown F family {family!r}")
    for i in range(t):
        rows[i][i] = diag[i]
    return rows


def is_invertible(rows: list[list[Fraction]]) -> bool:
    """Exact Gaussian elimination over Q."""
    a = [list(map(Fraction, r)) for r in rows]
    t = len(a)
    for col in range(t):
        piv = next((r for r in range(col, t) if a[r][col] != 0), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, t):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return True


class FSource:
    """Seeded F per (family, t): seed 0 gives the presets, others draw a matrix
    once per family and size, so shapes that share a quotient still share it."""

    def __init__(self, seed: int, fdir: Path):
        self.seed = seed
        self.fdir = fdir
        self.rng = random.Random(seed)
        self.drawn: dict[tuple[str, int], str] = {}
        self.matrices: dict[str, list[list[str]]] = {}

    def spec(self, family: str | None, t: int) -> str | None:
        if family is None:
            return None
        if family == "identity":
            return "preset:identity"
        if self.seed == 0:
            if family == "jordan":
                return "preset:jordan"
            return "preset:diag:" + ",".join(str(i + 1) for i in range(t))
        key = (family, t)
        if key not in self.drawn:
            rows = draw_f(family, t, self.rng)
            if not is_invertible(rows):
                raise ValueError(f"drawn F for {family} t={t} is singular: {rows}")
            path = self.fdir / f"F_{family}_t{t}.json"
            text_rows = [[str(v) for v in r] for r in rows]
            path.write_text(json.dumps(text_rows) + "\n", encoding="utf-8")
            self.matrices[path.name] = text_rows
            self.drawn[key] = "file:" + path.as_posix()
        return self.drawn[key]


def build_cases(workload: str, seed: int, fdir: Path) -> tuple[list[Case], dict]:
    """The workload's case list for this seed; F files are written into fdir.

    fdir should be a relative path so the recorded argv replays from the
    repository root.  Returns the cases and the drawn matrices by file name.
    """
    fdir.mkdir(parents=True, exist_ok=True)
    fs = FSource(seed, fdir)
    if workload in ("grid_cold", "grid_warm"):
        cases = [Case("certify-fft", m, n, t, fs.spec(fam, t), {"k": k})
                 for m, n, t, k in GRID
                 for fam in (GRID_FAMILIES if t == 2 else ("identity",))]
    elif workload == "mixed_small":
        cases = [Case(cmd, m, n, t, fs.spec(fam, t), dict(params))
                 for cmd, m, n, t, fam, params in MIXED_SMALL]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return cases, fs.matrices


def check_verdict(case: Case, code: int | None, report: dict | None) -> str | None:
    """None if the run reached the verdict the theorem predicts, else why not."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no report written"
    if report.get("status") != "certified":
        return f"status {report.get('status')!r}"
    rows = report.get("cases", [])
    mn = case.m * case.n
    p = case.params
    if case.command in ("certify-fft", "theta-rank", "correspondence", "classical"):
        top = p["max_degree"] if case.command == "classical" else p["k"]
        if [c["bidegree"] for c in rows] != [[k, k] for k in range(top + 1)]:
            return f"bidegrees {[c['bidegree'] for c in rows]}"
        for k, c in enumerate(rows):
            if not c["certified"]:
                return f"bidegree ({k},{k}) not certified"
            if case.command == "classical":
                if c["dim_coinv"] != c["dim_theta"]:
                    return f"degree {k}: invariants {c['dim_coinv']} != image {c['dim_theta']}"
            elif c["dim_coinv"] != mn ** k or c["dim_theta"] != mn ** k:
                return f"bidegree ({k},{k}): dims {c['dim_coinv']}/{c['dim_theta']} != {mn ** k}"
        return None
    if case.command in ("coinvariants", "intertwiners"):
        i, j = p["i"], p["j"]
        expected = mn ** i if i == j else 0
        if len(rows) != 1 or rows[0]["bidegree"] != [i, j]:
            return "wrong case list"
        if not rows[0]["certified"] or rows[0]["dim_coinv"] != expected:
            return f"dimension {rows[0]['dim_coinv']} != {expected}"
        return None
    if case.command == "hopf-check":
        return None if len(rows) == 1 and rows[0]["certified"] else "hopf-check not certified"
    return f"no check for {case.command!r}"
