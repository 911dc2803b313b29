"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import Case, build_cases, check_verdict, is_invertible  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b", 6.0, 7.0, 3, 0],  # a "b" inside a "b": counts as a call, not as more total
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]
    totals = tracing.totals(spans)
    assert totals["a"] == (10.0, 3.0, 1)
    assert totals["b"] == (7.0, 6.0, 3)
    assert totals["c"] == (1.0, 1.0, 1)


def test_self_time_takes_the_union_of_overlapping_children():
    spans = [["p", 0.0, 10.0, -1, 0], ["x", 1.0, 4.0, 0, 0], ["y", 3.0, 6.0, 0, 0],
             ["z", 9.0, 12.0, 0, 0]]
    assert tracing.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_seed_zero_reproduces_the_acceptance_presets(tmp_path):
    cases, matrices = build_cases("grid_cold", 0, tmp_path)
    assert matrices == {}
    t2 = [c.f_spec for c in cases if c.t == 2]
    assert t2 == ["preset:identity", "preset:diag:1,2", "preset:jordan"] * 2
    assert len(cases) == 9


def test_seeded_f_is_deterministic_invertible_and_keeps_its_family(tmp_path):
    for seed in range(1, 30):
        a, ma = build_cases("grid_cold", seed, tmp_path / f"a{seed}")
        b, mb = build_cases("grid_cold", seed, tmp_path / f"b{seed}")
        assert ma == mb
        assert [c.params for c in a] == [c.params for c in b]
        for name, rows in ma.items():
            f = [[Fraction(v) for v in row] for row in rows]
            assert f[1][0] == 0 and f[0][0] * f[1][1] != 0 and is_invertible(f)
            assert json.loads((tmp_path / f"a{seed}" / name).read_text()) == rows
            if name.startswith("F_diag"):
                assert f[0][1] == 0 and f[0][0] != f[1][1]
            else:
                assert f[0][1] != 0 and f[0][0] == f[1][1]
        # both (m, n) shapes of one family share an F, so they share a quotient
        t2 = [c.f_spec for c in a if c.t == 2]
        assert t2[:3] == t2[3:]
    assert not is_invertible([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_verdict_check_rejects_a_wrong_dimension():
    case = Case("certify-fft", 2, 2, 1, "preset:identity", {"k": 1})
    good = {"status": "certified", "cases": [
        {"bidegree": [0, 0], "dim_coinv": 1, "dim_theta": 1, "certified": True},
        {"bidegree": [1, 1], "dim_coinv": 4, "dim_theta": 4, "certified": True}]}
    assert check_verdict(case, 0, good) is None
    bad = json.loads(json.dumps(good))
    bad["cases"][1]["dim_coinv"] = 3
    assert "dims 3/4" in check_verdict(case, 0, bad)
    assert check_verdict(case, 137, good) == "exit code 137"
    hom = Case("intertwiners", 1, 1, 2, "preset:identity", {"i": 1, "j": 2})
    assert check_verdict(hom, 0, {"status": "certified", "cases": [
        {"bidegree": [1, 2], "dim_coinv": 1, "dim_theta": 0, "certified": True}]}) is not None


def test_install_rebinds_every_import_and_uninstall_restores(tmp_path):
    import coinv.catalg
    import coinv.cli
    import coinv.comod
    import coinv.fpquot
    from coinv.exactlin import Subspace

    original = coinv.fpquot.certified_kernel
    from_vectors = Subspace.__dict__["from_vectors"]
    nf_word = coinv.fpquot.TruncatedQuotient.normal_form_word
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        kernel = coinv.fpquot.certified_kernel
        assert kernel is not original
        assert coinv.comod.certified_kernel is kernel and coinv.catalg.certified_kernel is kernel
        out = tmp_path / "r.json"
        assert coinv.cli.run(["coinvariants", "-m", "1", "-n", "1", "-t", "1", "-i", "1",
                              "-j", "1", "--format", "json", "-o", str(out)]) == 0
    finally:
        uninstall()
    assert coinv.comod.certified_kernel is original
    assert Subspace.__dict__["from_vectors"] is from_vectors
    assert coinv.fpquot.TruncatedQuotient.normal_form_word is nf_word
    calls = {name: n for name, (_, _, n) in tracing.totals(tracer.spans).items()}
    for name in ("cli.case", "comod.coinvariants", "fpquot.kernel", "exactlin.solve",
                 "fpquot.block_acquire", "exactlin.from_vectors"):
        assert calls.get(name), name
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["fpquot.kernel_unknowns"][0] == 1
    assert metrics["cli.self_s"][0] <= metrics["cli.case_s"][0]


def test_a_case_over_budget_counts_as_failed(tmp_path):
    slow = Case("classical", 3, 3, 2, None, {"max_degree": 3})  # several seconds
    p = bench.run_pass(ROOT, tmp_path, [slow], bench.child_env(None), trace=False,
                       timeout=60, case_budget=0.2)
    assert p.returncode == 0
    assert p.reports == [None]
    assert len(p.failures) == 1 and "timed out" in p.failures[0]
