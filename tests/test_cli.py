"""Command-line interface: argument handling, exit codes, report shape."""

import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coinv import cli as cli_module
from coinv import fpquot
from coinv.cli import (
    CliUsageError,
    aggregate_status,
    build_parser,
    classify,
    make_case,
    make_report,
    parse_f,
    resolve_trunc,
    run,
)
from coinv.hopf import RELATION_DEGREE, HopfCover, build_hf
from test_golden import CASES as GOLDEN_CASES


def exit_code(argv) -> int:
    """run's exit code, also when argparse exits for it."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def _record_completion_degrees(monkeypatch) -> list:
    """The degrees every Completion.extend call of the test asks for."""
    degrees = []
    extend = fpquot.Completion.extend

    def recording(self, d):
        degrees.append(d)
        return extend(self, d)
    monkeypatch.setattr(fpquot.Completion, "extend", recording)
    return degrees


def cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "coinv.cli", *args],
        capture_output=True, env=env if env is not None else os.environ.copy(),
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- F parsing -------------------------------------------------------------


def test_parse_f_presets():
    assert parse_f("preset:identity", 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert parse_f("preset:jordan", 2) == [[1, 1], [0, 1]]
    assert parse_f("preset:jordan", 3) == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert parse_f("preset:diag:1,2", 2) == [[1, 0], [0, 2]]
    assert parse_f("preset:diag:1/2,-3,5", 3) == [[Fraction(1, 2), 0, 0], [0, -3, 0], [0, 0, 5]]


def test_parse_f_bad_specs():
    with pytest.raises(CliUsageError):
        parse_f("preset:diag:1,2,3", 2)
    with pytest.raises(CliUsageError):
        parse_f("preset:hadamard", 2)
    with pytest.raises(CliUsageError):
        parse_f("identity", 2)
    with pytest.raises(CliUsageError):
        parse_f("preset:diag:1,apple", 2)


def test_parse_f_file(tmp_path):
    path = tmp_path / "F.json"
    path.write_text('[["1", "1/2"], ["0", "-2"]]')
    F = parse_f(f"file:{path}", 2)
    assert F == [[1, Fraction(1, 2)], [0, -2]]


def test_parse_f_file_errors(tmp_path):
    with pytest.raises(CliUsageError):
        parse_f("file:/nonexistent/F.json", 2)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("not json")
    with pytest.raises(CliUsageError):
        parse_f(f"file:{bad_json}", 2)
    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text('[["1"]]')
    with pytest.raises(CliUsageError):
        parse_f(f"file:{wrong_shape}", 2)
    # a singular F parses; build_hf refuses it, and run turns that into exit 3
    singular = tmp_path / "singular.json"
    singular.write_text('[["1", "2"], ["2", "4"]]')
    assert parse_f(f"file:{singular}", 2) == [[1, 2], [2, 4]]
    with pytest.raises(ValueError, match="invertible"):
        build_hf(parse_f(f"file:{singular}", 2))


# -- small pure helpers -------------------------------------------------------


def test_resolve_trunc():
    assert resolve_trunc("auto", 4) == 4
    assert resolve_trunc("auto", 0) == 2  # never below the relation degree
    assert resolve_trunc("8", 4) == 8
    assert resolve_trunc("4", 4) == 4
    with pytest.raises(CliUsageError):
        resolve_trunc("3", 4)
    with pytest.raises(CliUsageError):
        resolve_trunc("1", 0)
    with pytest.raises(CliUsageError):
        resolve_trunc("soon", 4)


def test_aggregate_status():
    assert aggregate_status([]) == "certified"
    assert aggregate_status(["certified", "certified"]) == "certified"
    assert aggregate_status(["certified", "inconclusive"]) == "inconclusive"
    assert aggregate_status(["inconclusive", "mismatch"]) == "mismatch"


def test_classify():
    assert classify(5, 4, True) == classify(5, 4, False) == "mismatch"
    assert classify(4, 4, True) == classify(3, 4, True) == "certified"
    assert classify(4, 4, False) == classify(0, 4, False) == "inconclusive"


def test_make_report_sorts_cases():
    args = build_parser().parse_args(["certify-fft", "-k", "1", "--format", "json"])
    cases = [make_case((1, 1), 1, 1, True, 4, 0), make_case((0, 0), 1, 1, True, 2, 0)]
    report = make_report(args, "auto", cases, "certified")
    assert [c["bidegree"] for c in report["cases"]] == [[0, 0], [1, 1]]
    assert report["schema"] == 2
    assert set(report["params"]) == {"m", "n", "t", "F", "k", "d"}


# -- in-process exit codes ------------------------------------------------------


def test_run_certified_exit_zero(capsys):
    assert run(["certify-fft", "-m", "1", "-n", "1", "-t", "1", "-k", "1"]) == 0
    out = capsys.readouterr().out
    assert "status: certified" in out


def test_run_rejects_bad_bounds(capsys):
    assert run(["certify-fft", "-m", "0", "-n", "1", "-t", "1", "-k", "1"]) == 3
    with pytest.raises(SystemExit) as exc:
        run(["certify-fft", "-m", "1", "-n", "1", "-t", "1", "-k", "1", "--jobs", "0"])
    assert exc.value.code == 3
    # certify-fft needs d >= max(k, 2) at every k
    assert run(["certify-fft", "-m", "1", "-n", "1", "-t", "1", "-k", "3",
                "--trunc", "2"]) == 3
    # below the degree of the H(F) relations
    assert run(["certify-fft", "-t", "1", "-k", "0", "--trunc", "1"]) == 3
    assert run(["intertwiners", "-t", "1", "-i", "0", "-j", "0", "--trunc", "0"]) == 3
    # hopf-check takes no --trunc at all
    assert exit_code(["hopf-check", "-t", "1", "--trunc", "1"]) == 3


def test_intertwiners_truncation_floor_is_the_larger_power(capsys):
    # the morphism conditions hold words of degree i and j, not i + j
    assert run(["intertwiners", "-i", "2", "-j", "2", "--trunc", "2"]) == 0
    assert run(["intertwiners", "-i", "2", "-j", "2", "--trunc", "1"]) == 3
    assert run(["intertwiners", "-i", "3", "-j", "1", "--trunc", "2"]) == 3


def test_run_non_integer_trunc_exits_three(capsys):
    for command in ("certify-fft", "correspondence"):
        assert run([command, "-t", "1", "-k", "1", "--trunc", "soon"]) == 3
        assert "--trunc must be an integer" in capsys.readouterr().err


F_FILES = {"bad.json": "not json", "shape.json": '[["1"]]',
           "entry.json": '[["1", "x"], ["0", "1"]]', "singular.json": '[["1", "2"], ["2", "4"]]'}


@pytest.mark.parametrize("spec, line", [
    ("preset:diag:1,2,3", "diag preset needs 2 entries, got 3"),
    ("preset:diag:1,apple", "bad diagonal entry: Invalid literal for Fraction: 'apple'"),
    ("preset:diag:1,0", "F must be invertible"),
    ("preset:hadamard", "unknown preset 'hadamard'"),
    ("identity", "--F must start with preset: or file: (got 'identity')"),
    ("file:missing.json",
     "cannot read F file: [Errno 2] No such file or directory: 'missing.json'"),
    ("file:bad.json", "F file is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("file:shape.json", "F file must hold a 2x2 array"),
    ("file:entry.json", "bad F entry: Invalid literal for Fraction: 'x'"),
    ("file:singular.json", "F must be invertible"),
], ids=["diag-length", "diag-entry", "diag-singular", "unknown-preset", "no-prefix",
        "missing-file", "invalid-json", "file-shape", "file-entry", "file-singular"])
def test_each_f_usage_error_prints_its_exact_line(spec, line, tmp_path, monkeypatch, capsys):
    """parse_f and build_hf's validation end in one stderr line and exit 3."""
    for name, text in F_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(["certify-fft", "-t", "2", "-k", "1", "--F", spec]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"coinv: error: {line}\n"


def test_run_singular_diag_preset_exits_three(capsys):
    assert run(["certify-fft", "-t", "2", "--F", "preset:diag:0,1", "-k", "1"]) == 3
    assert "invertible" in capsys.readouterr().err


def test_run_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.json"
    assert run(["theta-rank", "-k", "0", "-o", str(target)]) == 3
    err = capsys.readouterr().err
    assert str(target) in err and "Traceback" not in err
    assert not target.exists()


def test_run_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(args, hopf):
        raise ValueError("internal failure")

    monkeypatch.setitem(cli_module._COMMANDS, "theta-rank", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run(["theta-rank", "-k", "1"])


def test_main_internal_error_exits_four(monkeypatch, capsys):
    def broken(args, hopf):
        raise ValueError("internal failure")

    monkeypatch.setitem(cli_module._COMMANDS, "theta-rank", broken)
    monkeypatch.setattr(sys, "argv", ["coinv", "theta-rank", "-k", "1"])
    with pytest.raises(SystemExit) as exc:
        cli_module.main()
    assert exc.value.code == cli_module.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: internal failure" in err


def test_main_exits_four_when_reporting_the_error_fails(monkeypatch):
    """Out of memory, even the traceback cannot be printed; the run still exits
    4, the internal-error code, and never 1, which means a mismatch."""
    def exhausted(args, hopf):
        raise MemoryError

    monkeypatch.setitem(cli_module._COMMANDS, "theta-rank", exhausted)
    monkeypatch.setitem(sys.modules, "traceback", None)
    monkeypatch.setattr(sys, "argv", ["coinv", "theta-rank", "-k", "1"])
    with pytest.raises(SystemExit) as exc:
        cli_module.main()
    assert exc.value.code == cli_module.EXIT_INTERNAL


# installs a finder that raises MemoryError when coinv.catalg is imported, then
# calls the entry point named by argv[2] ("module:function") as the installed
# console script would
_IMPORT_EXHAUSTED = """
import importlib, sys
sys.path.insert(0, sys.argv[1])

class Exhausted:
    def find_spec(self, name, path=None, target=None):
        if name == "coinv.catalg":
            raise MemoryError

sys.meta_path.insert(0, Exhausted())
module, function = sys.argv[2].split(":")
sys.argv = ["coinv", "theta-rank", "-k", "1"]
getattr(importlib.import_module(module), function)()
"""


def test_console_script_exits_four_when_importing_the_engine_runs_out_of_memory():
    """The console script imports the engine inside the guard that turns any
    exception into exit 4, so a MemoryError while importing it is an internal
    error, not the mismatch code 1."""
    root = Path(cli_module.__file__).resolve().parents[2]
    (target,) = re.findall(r'^coinv = "(.+)"$', (root / "pyproject.toml").read_text(),
                           flags=re.MULTILINE)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_EXHAUSTED, str(root / "src"), target],
                          capture_output=True, text=True)
    assert proc.returncode == cli_module.EXIT_INTERNAL, proc.stderr
    assert "MemoryError" in proc.stderr


def test_main_coinvariant_overcount_is_a_mismatch(monkeypatch, capsys, add_pure_u_rules):
    """A computed End(U^(x k)) above dimension 1, so a coinvariant space above
    the theorem's (mn)^k, is a mismatch (exit 1) with its dimension in the
    report, not an internal error.  End(U^(x k)) is the hom_space solve at
    every k >= 1, which a pure-u lead makes the lead-word certificate fall
    back to; the run is at --trunc k + 2, since below it the weight lemma
    decides End with no lead read."""
    from coinv import catalg, hopf
    from coinv.exactlin import Subspace

    def oversized(source, target, d):
        n = source.dim * target.dim
        return Subspace.from_vectors(n, [{s: 1} for s in range(n)])

    def everything(space, d):
        return Subspace.from_vectors(space.dim, [{s: 1} for s in range(space.dim)])

    monkeypatch.setattr(cli_module, "build_hf", lambda F: add_pure_u_rules(hopf.build_hf(F)))
    monkeypatch.setattr(catalg, "hom_space", oversized)
    monkeypatch.setattr(catalg, "coinvariants", everything)
    monkeypatch.setattr(sys, "argv", ["coinv", "certify-fft", "-t", "2", "--F", "preset:jordan",
                                      "-k", "2", "--trunc", "4", "--format", "json"])
    with pytest.raises(SystemExit) as exc:
        cli_module.main()
    assert exc.value.code == cli_module.EXIT_MISMATCH == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "mismatch"
    assert [(c["dim_coinv"], c["certified"]) for c in report["cases"]] == \
        [(1, True), (4, False), (16, False)]


def test_an_oversized_end_fallback_exits_three_before_it_is_built(monkeypatch, capsys,
                                                                 add_pure_u_rules):
    """With a pure-u lead the End(U^(x k)) solve is the fallback at --trunc
    k + 2, where leads are read; its 2 t^(3k) constraint terms are estimated
    first, and above the module limit the run exits 3 naming the case and
    the estimate, with no solve."""
    from coinv import catalg, hopf

    monkeypatch.setattr(catalg, "hom_space", lambda *args: pytest.fail("the solve was built"))
    monkeypatch.setattr(cli_module, "build_hf", lambda F: add_pure_u_rules(hopf.build_hf(F)))
    assert run(["intertwiners", "-t", "2", "--F", "preset:jordan", "-i", "8", "-j", "8",
                "--trunc", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "m=1, n=1, t=2, i=8, j=8" in captured.err and f"{2 * 2 ** 24:,}" in captured.err

    monkeypatch.undo()
    monkeypatch.setattr(cli_module, "build_hf", lambda F: add_pure_u_rules(hopf.build_hf(F)))
    monkeypatch.setattr(catalg, "END_SOLVE_TERM_LIMIT", 2 * 2 ** 9 - 1)
    assert run(["certify-fft", "-m", "2", "-n", "3", "-t", "2", "--F", "preset:jordan",
                "-k", "3", "--trunc", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m=2, n=3, t=2, i=3, j=3" in captured.err and "1,024" in captured.err


def test_an_oversized_unbalanced_hom_solve_exits_three_before_it_is_built(monkeypatch, capsys):
    """intertwiners at i != j estimates its t^(i+j) (t^i + t^j) constraint
    terms first: (t, i, j) = (3, 6, 5) would need about 77 GB, and the run
    exits 3 naming the case and the estimate, with no solve.  The case named
    is the run's m and n, the estimate that of the (1, 1) block it solves."""
    import time

    from coinv import catalg

    monkeypatch.setattr(catalg, "hom_space", lambda *args: pytest.fail("the solve was built"))
    t0 = time.monotonic()
    assert run(["intertwiners", "-t", "3", "--F", "preset:jordan", "-i", "6", "-j", "5"]) == 3
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "t=3, i=6, j=5" in captured.err and "172,186,884" in captured.err
    assert run(["intertwiners", "-m", "2", "-n", "3", "-t", "2", "--F", "preset:jordan",
                "-i", "9", "-j", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "m=2, n=3, t=2, i=9, j=8" in captured.err
    assert "100,663,296" in captured.err


def test_balanced_intertwiners_read_the_lead_certificate(monkeypatch, capsys):
    """At i = j the intertwiners command solves nothing when no lead is pure-u;
    at i != j it keeps the hom_space solve."""
    from coinv import catalg

    solved = []
    solve = catalg.hom_space

    def recorder(source, target, d):
        solved.append((source.dim, target.dim))
        return solve(source, target, d)

    monkeypatch.setattr(catalg, "hom_space", recorder)
    assert run(["intertwiners", "-m", "2", "-n", "2", "-t", "2", "--F", "preset:jordan",
                "-i", "3", "-j", "3", "--format", "json"]) == 0
    assert [c["dim_coinv"] for c in json.loads(capsys.readouterr().out)["cases"]] == [64]
    assert solved == []
    assert run(["intertwiners", "-t", "2", "--F", "preset:jordan", "-i", "1", "-j", "2"]) == 0
    assert solved == [(2, 4)]


def test_startup_loads_only_what_runs():
    """`import coinv.cli` in a bare interpreter loads neither dataclasses nor
    inspect, nor traceback or coinv.classical, which only an internal error
    and the classical command need."""
    src = os.path.dirname(os.path.dirname(cli_module.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import coinv.cli; print(' '.join("
            "m for m in ('dataclasses', 'inspect', 'traceback', 'coinv.classical') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


_REQUIRED = {"certify-fft": ["-k", "0"], "coinvariants": ["-i", "0", "-j", "0"],
             "theta-rank": ["-k", "0"], "intertwiners": ["-i", "0", "-j", "0"],
             "hopf-check": [], "classical": ["--max-degree", "0"],
             "correspondence": ["-k", "0"]}


@pytest.mark.parametrize("command", sorted(cli_module._COMMANDS))
def test_removed_flags_are_usage_errors(command, capsys):
    assert set(_REQUIRED) == set(cli_module._COMMANDS)
    rejected = [["--seed", "1"], ["--jobs", "2"]]
    # no quotient, or hopf-check's conditions that lie in I_2: no truncation
    if command in ("theta-rank", "classical", "hopf-check"):
        rejected.append(["--trunc", "0"])
    for flag in rejected:
        with pytest.raises(SystemExit) as exc:
            run([command, *_REQUIRED[command], *flag])
        assert exc.value.code == 3
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command",
                         sorted(set(_REQUIRED) - {"theta-rank", "classical", "hopf-check"}))
def test_trunc_help_names_the_auto_degree(command, capsys):
    with pytest.raises(SystemExit):
        run([command, "-h"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "or 'auto': the least its conditions need" in help_text


# (argv, the auto truncation of each case): max(w, 2), w the degree of the
# longest word the case's conditions hold
_FLOORS = [
    (["certify-fft", "-t", "2", "--F", "preset:jordan", "-k", "3"], [2, 2, 2, 3]),
    (["coinvariants", "-t", "2", "--F", "preset:jordan", "-i", "0", "-j", "0"], [2]),
    (["coinvariants", "-t", "2", "--F", "preset:jordan", "-i", "3", "-j", "3"], [3]),
    (["coinvariants", "-m", "2", "-t", "2", "--F", "preset:diag:1,2", "-i", "2", "-j", "1"],
     [3]),
    (["coinvariants", "-t", "1", "-i", "0", "-j", "1"], [2]),
    (["intertwiners", "-t", "2", "--F", "preset:jordan", "-i", "3", "-j", "1"], [3]),
    (["intertwiners", "-t", "2", "--F", "preset:jordan", "-i", "2", "-j", "2"], [2]),
    (["intertwiners", "-t", "1", "-i", "0", "-j", "0"], [2]),
    (["correspondence", "-t", "2", "--F", "preset:jordan", "-k", "2"], [2, 2, 2]),
    (["hopf-check", "-t", "2", "--F", "preset:jordan"], [2]),
]


@pytest.mark.parametrize("argv, floors", _FLOORS, ids=[" ".join(a) for a, _ in _FLOORS])
def test_auto_trunc_is_the_floor(argv, floors, capsys, tmp_path):
    out = tmp_path / "r.json"
    assert run([*argv, "--format", "json", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["witness_degree"] for c in report["cases"]] == floors
    assert report["params"]["d"] == (floors[0] if len(floors) == 1 else "auto")
    capsys.readouterr()
    assert exit_code([*argv, "--trunc", str(max(floors) - 1)]) == 3
    assert ("unrecognized arguments: --trunc" if argv[0] == "hopf-check"
            else "below the minimum") in capsys.readouterr().err


def test_balanced_coinvariants_run_at_the_end_route_degree(capsys):
    # (2,2) is solved through End(U^(x 2)), whose conditions hold words of
    # degree 2, not the 2 + 2 of its coaction legs
    assert run(["coinvariants", "-t", "2", "--F", "preset:jordan", "-i", "2", "-j", "2",
                "--trunc", "2"]) == 0
    assert "status: certified" in capsys.readouterr().out


def _invariance_argvs():
    argvs = [case.split() for name, case in GOLDEN_CASES.items()
             if not name.startswith(("classical", "theta-rank"))]
    for t, spec in [(1, "preset:identity"), (2, "preset:identity"),
                    (2, "preset:diag:1,2"), (2, "preset:jordan")]:
        shape = ["-t", str(t), "--F", spec]
        for command in ("coinvariants", "intertwiners"):
            for i, j in [(1, 1), (2, 1), (1, 2), (2, 2)]:
                argvs.append([command, *shape, "-i", str(i), "-j", str(j)])
        argvs.append(["correspondence", *shape, "-k", "2"])
        argvs.append(["hopf-check", *shape])
    return argvs


def _blank_degrees(report):
    report["params"]["d"] = None
    for case in report["cases"]:
        case["witness_degree"] = None
    return report


@pytest.mark.parametrize("argv", _invariance_argvs(), ids=" ".join)
def test_auto_trunc_verdicts_hold_two_degrees_higher(argv, tmp_path, monkeypatch):
    # the lowest auto truncation reaches the verdict, dimensions and case
    # list that two more degrees of the relation ideal reach
    low, high = tmp_path / "auto.json", tmp_path / "high.json"
    degrees = _record_completion_degrees(monkeypatch)
    code = run([*argv, "--format", "json", "-o", str(low)])
    low_report = json.loads(low.read_text())
    floor = max(c["witness_degree"] for c in low_report["cases"])
    high_code = exit_code([*argv, "--trunc", str(floor + 2), "--format", "json", "-o", str(high)])
    if argv[0] == "hopf-check":
        # proven in I_2, with no completion past it, so there is no higher run
        assert max(degrees) == floor == RELATION_DEGREE
        assert high_code == 3 and not high.exists()
        return
    assert high_code == code
    assert _blank_degrees(json.loads(high.read_text())) == _blank_degrees(low_report)


@pytest.mark.parametrize("command", sorted(cli_module._COMMANDS))
def test_every_command_prints_its_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: coinv {command} ")


def test_run_usage_error_exits_three():
    with pytest.raises(SystemExit) as exc:
        run(["certify-fft", "-m", "1"])  # missing -k
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 3


def test_run_coinvariants_unbalanced(capsys):
    assert run(["coinvariants", "-m", "2", "-n", "1", "-t", "1",
                "-i", "1", "-j", "2"]) == 0
    out = capsys.readouterr().out
    assert "status: certified" in out


def test_run_intertwiners(capsys):
    assert run(["intertwiners", "-t", "2", "--F", "preset:jordan",
                "-i", "0", "-j", "1"]) == 0


def test_run_hopf_check(capsys):
    assert run(["hopf-check", "-t", "1"]) == 0
    out = capsys.readouterr().out
    assert "coassociativity (exact): ok" in out


_HOPF_CHECK_T3_JORDAN = """\
hopf-check  m=1 n=1 t=3 F=preset:jordan
bidegree  dim_coinv  dim_theta  certified  witness_d  millis
(0,0)     0          0          yes        2          0
coassociativity (exact): ok
counit laws (exact): ok
counit kills relations (exact): ok
antipode(relations) in ideal: 36/36
coproduct(relations) in ideal tensor: 36/36
antipode axiom on generators: 36/36
status: certified
"""


@pytest.mark.parametrize("trunc", ["1", "2", "6", "auto"])
def test_hopf_check_proves_in_i2_and_takes_no_trunc(trunc, monkeypatch, capsys):
    """Every compatibility condition lies in I_2, so hopf-check reports
    witness_d 2 without extending the cover's completion past virtual
    degree 2, and a --trunc of any value is a usage error."""
    degrees = _record_completion_degrees(monkeypatch)
    argv = ["hopf-check", "-t", "3", "--F", "preset:jordan"]
    assert run(argv) == 0
    assert capsys.readouterr().out == _HOPF_CHECK_T3_JORDAN
    assert max(degrees) == RELATION_DEGREE
    assert exit_code([*argv, "--trunc", trunc]) == 3
    assert "unrecognized arguments: --trunc" in capsys.readouterr().err


def test_certify_fft_solves_the_base_case_in_i2(monkeypatch, capsys):
    """The product lemma's containment is read at RELATION_DEGREE whatever
    the --trunc, and the report still states the run's truncation."""
    solved = []
    base_case = cli_module.lemma_base_case

    def spy(hopf, d):
        solved.append(d)
        return base_case(hopf, d)
    monkeypatch.setattr(cli_module, "lemma_base_case", spy)
    argv = ["certify-fft", "-t", "2", "--F", "preset:jordan", "-k", "4", "--trunc", "6"]
    assert run([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert solved == [RELATION_DEGREE]
    assert report["params"]["d"] == 6 and report["status"] == "certified"
    assert [(c["dim_coinv"], c["certified"], c["witness_degree"]) for c in report["cases"]] \
        == [(1, True, 6)] * 5


@pytest.mark.parametrize("argv, flag", [
    (["classical", "-t", "1", "--max-degree", "-1"], "--max-degree"),
    (["coinvariants", "-t", "1", "-i", "-1", "-j", "0"], "-i"),
    (["intertwiners", "-t", "1", "-i", "0", "-j", "-2"], "-j"),
    (["certify-fft", "-t", "1", "-k", "-1"], "-k"),
])
def test_a_negative_bound_names_its_flag(argv, flag, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err == f"coinv: error: {flag} must be nonnegative\n"


@pytest.mark.parametrize("argv, flag", [
    (["certify-fft", "-m", "0", "-t", "1", "-k", "1"], "-m"),
    (["classical", "-n", "0", "-t", "1", "--max-degree", "1"], "-n"),
    (["classical", "-t", "0", "--max-degree", "1"], "-t"),
    # the first flag out of range is named, shapes before bounds
    (["coinvariants", "-m", "2", "-n", "-1", "-t", "0", "-i", "-1", "-j", "0"], "-n"),
])
def test_a_nonpositive_shape_names_its_flag(argv, flag, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err == f"coinv: error: {flag} must be positive\n"


def test_run_classical(capsys):
    assert run(["classical", "-m", "2", "-n", "2", "-t", "1",
                "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "kernel vs minors" in out


def test_run_correspondence(capsys):
    assert run(["correspondence", "-m", "1", "-n", "1", "-t", "1", "-k", "1"]) == 0


def test_correspondence_reads_end_u_at_the_run_truncation(monkeypatch, capsys):
    """dim End(U_l) is certified at the run's --trunc, where it can only grow.

    Rules of drop 1 send every degree-2 leg word v_ab u_ce that is not yet a
    lead to its counit value.  They act from truncation 3 on, where every leg
    word reduces to its counit, so every vector of the bidegree-(1,1)
    component is certified coinvariant: dim End(U_l) = t^2 and each degree is
    a mismatch.  At the auto truncation 2 they rewrite nothing.
    """
    from coinv import hopf

    def with_counit_legs(F):
        h = hopf.build_hf(F)
        completion, alg = h.presentation.completion, h.algebra
        completion.extend(RELATION_DEGREE)
        for a, b, c, e in itertools.product(range(h.t), repeat=4):
            lead = (alg.letter("v", a, b), alg.letter("u", c, e))
            if lead not in completion.rules:
                completion.rules[lead] = (1, {(): 1} if a == b and c == e else {})
        completion.lengths = tuple(sorted({len(lead) for lead in completion.rules}))
        return h

    monkeypatch.setattr(cli_module, "build_hf", with_counit_legs)
    argv = ["correspondence", "-t", "2", "--F", "preset:jordan", "-k", "1", "--format", "json"]
    assert run(argv + ["--trunc", "auto"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "certified"
    assert run(argv + ["--trunc", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "mismatch"
    assert [(c["certified"], c["witness_degree"]) for c in report["cases"]] == [(False, 3)] * 2


def test_run_theta_rank(capsys):
    assert run(["theta-rank", "-m", "2", "-n", "2", "-t", "2", "-k", "1"]) == 0


@pytest.mark.parametrize("argv", [
    ["certify-fft", "-m", "2", "-n", "1", "-t", "2", "--F", "preset:jordan", "-k", "2"],
    ["coinvariants", "-m", "2", "-n", "1", "-t", "2", "--F", "preset:jordan", "-i", "1", "-j", "1"],
    ["coinvariants", "-m", "2", "-n", "1", "-t", "1", "-i", "2", "-j", "1"],
    ["intertwiners", "-t", "2", "--F", "preset:jordan", "-i", "1", "-j", "2"],
    ["hopf-check", "-t", "2", "--F", "preset:diag:1,2"],
    ["correspondence", "-t", "2", "--F", "preset:jordan", "-k", "2"],
], ids=["certify-fft", "coinvariants-balanced", "coinvariants-unbalanced", "intertwiners",
        "hopf-check", "correspondence"])
def test_each_run_builds_one_hopf_cover(argv, monkeypatch, capsys):
    # every truncation of a run reads the completion its one cover keeps
    built = []
    init = HopfCover.__init__

    def counting_init(self, F):
        built.append(F)
        init(self, F)

    monkeypatch.setattr(HopfCover, "__init__", counting_init)
    assert run(argv) == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv, covers", [
    (["certify-fft", "-m", "2", "-t", "2", "--F", "preset:jordan", "-k", "2"], 1),
    (["coinvariants", "-t", "2", "--F", "preset:jordan", "-i", "1", "-j", "1"], 1),
    (["coinvariants", "-t", "2", "--F", "preset:jordan", "-i", "2", "-j", "1"], 1),
    (["intertwiners", "-t", "2", "--F", "preset:jordan", "-i", "2", "-j", "2"], 1),
    (["intertwiners", "-t", "2", "--F", "preset:jordan", "-i", "1", "-j", "2"], 1),
    (["hopf-check", "-t", "2", "--F", "preset:jordan"], 1),
    (["correspondence", "-t", "2", "--F", "preset:jordan", "-k", "2"], 1),
    (["theta-rank", "-t", "2", "-k", "2"], 0),
    (["classical", "-t", "2", "--max-degree", "1"], 0),
], ids=["certify-fft", "coinvariants-balanced", "coinvariants-unbalanced",
        "intertwiners-balanced", "intertwiners-unbalanced", "hopf-check", "correspondence",
        "theta-rank", "classical"])
def test_the_cli_builds_the_run_cover(argv, covers, monkeypatch, capsys):
    """`run` builds the one cover of a run that takes --F and hands it to
    the engine; the commands without --F build none."""
    built = []
    build = cli_module.build_hf

    def counting_build(F):
        built.append(F)
        return build(F)

    monkeypatch.setattr(cli_module, "build_hf", counting_build)
    assert run(argv) == 0
    assert len(built) == covers


# -- subprocess integration -------------------------------------------------------


def test_cli_json_report_schema():
    code, out, _ = cli("certify-fft", "-m", "2", "-n", "2", "-t", "1",
                       "--F", "preset:identity", "-k", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 2
    assert report["command"] == "certify-fft"
    assert report["status"] == "certified"
    assert [c["dim_coinv"] for c in report["cases"]] == [1, 4, 16]
    assert [c["dim_theta"] for c in report["cases"]] == [1, 4, 16]
    assert all(c["certified"] for c in report["cases"])


def test_cli_reports_byte_identical():
    args = ("certify-fft", "-m", "2", "-n", "1", "-t", "2", "--F", "preset:jordan",
            "-k", "1", "--format", "json")
    code1, out1, _ = cli(*args)
    code2, out2, _ = cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_singular_f_file_exits_three(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text('[["1", "2"], ["2", "4"]]')
    code, _, err = cli("certify-fft", "-t", "2", "--F", f"file:{path}", "-k", "1")
    assert code == 3
    assert b"invertible" in err


def test_cli_csv_format():
    code, out, _ = cli("theta-rank", "-m", "1", "-n", "1", "-t", "1", "-k", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0].startswith("bidegree_i,bidegree_j,dim_coinv")
    assert lines[-1].startswith("status,certified")


def test_cli_output_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = cli("certify-fft", "-m", "1", "-n", "1", "-t", "1", "-k", "0",
                       "--format", "json", "-o", str(target))
    assert code == 0
    assert out == b""
    assert json.loads(target.read_text())["status"] == "certified"


def test_cli_cache_dir_roundtrip(tmp_path):
    # COINV_CACHE_DIR is no longer read: a run with it set writes no file and
    # prints the same bytes as a run without it.
    args = ("certify-fft", "-m", "1", "-n", "1", "-t", "2", "--F", "preset:jordan",
            "-k", "1", "--format", "json")
    code1, plain, _ = cli(*args)
    env = os.environ.copy()
    env["COINV_CACHE_DIR"] = str(tmp_path)
    code2, with_dir, _ = cli(*args, env=env)
    assert code1 == code2 == 0
    assert with_dir == plain
    assert list(tmp_path.rglob("*")) == []


def test_cli_timings_flag_populates_millis():
    # a run whose own work takes well over 1 ms: below --trunc k + 2 the
    # weight lemma decides every case in well under 1 ms, so its millis may
    # all legitimately read 0; at --trunc 6 the completion runs
    code, out, _ = cli("certify-fft", "-t", "2", "--F", "preset:jordan", "-k", "4",
                       "--trunc", "6", "--format", "json", "--timings")
    assert code == 0
    report = json.loads(out)
    assert any(c["millis"] > 0 for c in report["cases"])


def test_cli_version():
    code, out, _ = cli("--version")
    assert code == 0
    assert out.startswith(b"coinv ")


def test_module_entry_point_runs_cli_once():
    """`python -m coinv.cli` reuses the running module for main's `from .cli
    import run`, so cli.py is executed once, never imported beside __main__."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "coinv.cli", "theta-rank", "-k", "1"],
        capture_output=True, text=True, env=os.environ.copy(),
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "coinv.catalg" in imported
    assert "coinv.cli" not in imported
