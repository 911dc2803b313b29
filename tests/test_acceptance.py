"""Acceptance suite: one test (and one pass/fail line) per certification target.

Every target is exact over Q; runtime bounds are asserted where stated.
Run with `pytest -v tests/test_acceptance.py` to get the per-criterion lines.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import oracles
from conftest import diag, identity, jordan, word_product

from coinv.catalg import block_hom_dim, lemma_base_case, main_correspondence_check
from coinv.classical import (
    fft1_check,
    fft2_check,
    minors_component,
    theta_star_kernel,
)
from coinv.cli import run
from coinv.comod import off_diagonal_vanish
from coinv.exactlin import add_to, rank
from coinv.freealg import theta_matrix
from coinv.hopf import build_hf, check_hopf_compat
from oracles import CoactionContext, coinvariance_residual, coinvariants, pair_product

Q = Fraction

# (m, n, t, max k) certification grid
GRID = ((1, 1, 1, 4), (2, 1, 1, 3), (2, 2, 1, 3), (1, 1, 2, 2), (2, 2, 2, 2))


def f_specs(t):
    if t == 2:
        return ("preset:identity", "preset:diag:1,2", "preset:jordan")
    return ("preset:identity",)


def f_matrices(t):
    if t == 2:
        return (identity(2), diag(1, 2), jordan(2))
    return (identity(t),)


def report_line(num, text):
    print(f"criterion {num:02d}: PASS — {text}")


def test_c01_squeeze_certification_grid(tmp_path):
    grid_start = time.monotonic()
    ncases = 0
    for m, n, t, kmax in GRID:
        for spec in f_specs(t):
            out = tmp_path / f"c1-{m}{n}{t}-{spec.split(':')[1]}.json"
            case_start = time.monotonic()
            code = run(["certify-fft", "-m", str(m), "-n", str(n), "-t", str(t),
                        "--F", spec, "-k", str(kmax), "--format", "json",
                        "-o", str(out)])
            elapsed = time.monotonic() - case_start
            assert code == 0, (m, n, t, spec)
            assert elapsed < 300, f"case ({m},{n},{t},{spec}) took {elapsed:.1f}s"
            report = json.loads(out.read_text())
            assert report["status"] == "certified"
            assert len(report["cases"]) == kmax + 1
            for k, case in enumerate(report["cases"]):
                assert case["bidegree"] == [k, k]
                assert case["certified"]
                assert case["dim_coinv"] == case["dim_theta"] == (m * n) ** k
                ncases += 1
    total = time.monotonic() - grid_start
    assert total < 1800, f"grid took {total:.1f}s"
    report_line(1, f"{ncases} grid cases certified, dims (mn)^k, {total:.1f}s total")


def test_c02_off_diagonal_vanishing():
    checked = 0
    for m, n, t, _ in GRID:
        for F in f_matrices(t):
            for i in range(7):
                for j in range(7 - i):
                    if i == j:
                        continue
                    start = time.monotonic()
                    cert = off_diagonal_vanish(build_hf(F), (i, j))
                    elapsed = time.monotonic() - start
                    assert cert.holds, (m, n, t, i, j)
                    assert cert.exponent == j - i != 0
                    assert elapsed < 1, f"({m},{n},{t},{i},{j}) took {elapsed:.2f}s"
                    checked += 1
    report_line(2, f"{checked} unbalanced bidegrees vanish exactly")


def test_c03_theta_injectivity():
    checked = 0
    for m, n, t, kmax in GRID:
        for k in range(kmax + 1):
            assert rank(theta_matrix(m, n, t, k)) == (m * n) ** k
            checked += 1
    report_line(3, f"theta full rank (mn)^k in {checked} components")


def test_c04_correspondence_with_word_morphisms():
    checked = 0
    for m, n, t, kmax in GRID:
        for F in f_matrices(t):
            for k in range(min(kmax, 2) + 1):
                h = build_hf(F)
                rep = main_correspondence_check(m, n, h, k, lemma_base_case(h, 2 * k + 2))
                assert rep.ok, (m, n, t, F, k, rep.mismatches)
                assert rep.end_u_dim == 1
                # psi's rank is read off its proof; the exactlin rank is the oracle
                assert oracles.psi_rank(m, n, t, k) == rep.equalities_checked == (m * n) ** k
                checked += rep.equalities_checked
    report_line(4, f"{checked} word images agree across both pipelines")


def test_c05_standard_comodule_hom_dimensions():
    for F in f_matrices(2):
        for i in range(3):
            for j in range(3):
                dim = block_hom_dim(1, 1, build_hf(F), i, j, i + j + 2)
                assert dim == (1 if i == j else 0), (F, i, j, dim)
    report_line(5, "dim Hom(U^(x i), U^(x j)) = delta_ij for i,j <= 2, all F")


def test_c06_hopf_structure_descends():
    for t in (1, 2):
        for F in f_matrices(t):
            rep = check_hopf_compat(build_hf(F))
            assert rep.certified, (t, F, rep)
    rng = random.Random(60)
    tested = 0
    for t in (1, 2, 3):
        for _ in range(5):
            while True:
                rows = [[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(t)]
                        for _ in range(t)]
                try:
                    h = build_hf(rows)
                    break
                except ValueError:
                    continue
            for label, rel in h.labeled_relations:
                assert h.counit(rel) == 0, (t, rows, label)
                tested += 1
    report_line(6, f"compat certified on grid; counit kills {tested} random-F relations")


def test_c07_classical_kernel_equals_minors():
    def check(m, n, t, k):
        ker, mnr = oracles.theta_star_kernel(m, n, t, k), oracles.minors_component(m, n, t, k)
        assert ker == mnr
        assert theta_star_kernel(m, n, t, k) == ker.dim
        assert minors_component(m, n, t, k) == mnr.dim
        return ker.dim
    dims = [check(2, 2, 1, k) for k in range(5)]
    assert dims == [0, 0, 1, 4, 10]
    check(3, 3, 2, 3)
    assert [check(2, 2, 2, k) for k in range(4)] == [0] * 4
    report_line(7, f"kernel = minor ideal; (2,2,1) dims {dims}")


def test_c08_classical_invariants_equal_image():
    rep1 = fft1_check(2, 2, 1, 4)
    assert rep1.ok, rep1.mismatches
    rep2 = fft1_check(2, 2, 2, 2)
    assert rep2.ok, rep2.mismatches
    for (m, n, t), rep in (((2, 2, 1), rep1), ((2, 2, 2), rep2)):
        for row in rep.rows:
            inv = oracles.glt_invariants(m, n, t, row.degree)
            if row.degree % 2 == 0:
                assert inv == oracles.theta_star_image(m, n, t, row.degree // 2)
            assert row.dim_left == row.dim_right == inv.dim
    # companion kernel reports, same shapes
    assert fft2_check(2, 2, 1, 2).ok
    assert fft2_check(2, 2, 2, 1).ok
    dims = [row.dim_left for row in rep1.rows]
    report_line(8, f"invariants = image; (2,2,1) dims by degree {dims}")


def test_c09_coinvariants_form_subalgebra():
    # the product lemma of catalg, the one proof of coinvariance the program
    # uses, against a direct residual of each product at its full degree
    rng = random.Random(9)
    certified = refuted = 0
    for F in (identity(2), diag(1, 2), jordan(2),
              [[1, 2], [3, -1]]):
        block = CoactionContext(1, 1, build_hf(F))
        samples = {}
        for p in range(3):
            pairs = block.pair_basis((p, p))
            x = {}
            for row in coinvariants(block, (p, p), max(2 * p, 2)).basis:
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                for idx, v in row.items():
                    add_to(x, pairs[idx], c * v)
            assert x
            samples[p] = x
        for p in range(3):
            for q in range(3):
                prod = pair_product(samples[p], samples[q])
                d = max(2 * (p + q), 2)
                assert coinvariance_residual(block, prod, d) == {}
                certified += 1
                if p + q:  # at bidegree (0,0) every scalar is coinvariant
                    pair = next(iter(prod))
                    assert coinvariance_residual(block, {**prod, pair: prod[pair] + 1}, d)
                    refuted += 1
    assert (certified, refuted) == (36, 32)
    report_line(9, f"{certified} seeded coinvariant products certified at full degree, "
                   f"{refuted} with one coefficient changed refuted")


def test_c10_soundness_and_report_determinism(tmp_path):
    h = build_hf(jordan(2))
    q = h.quotient(4)
    alg = h.algebra
    letters = list(alg.letters())
    rels = [r for _, r in h.labeled_relations]
    rng = random.Random(100)
    for _ in range(100):
        combo = {}
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(rels)
            c = Q(rng.randint(-4, 4), rng.randint(1, 5))
            w = {(rng.choice(letters),): Q(1)}
            pick = rng.random()
            term = (word_product(w, r) if pick < 1 / 3
                    else word_product(r, w) if pick < 2 / 3 else r)
            for u, cu in term.items():
                add_to(combo, u, c * cu)
        assert q.is_zero_mod(combo) is True
    args = [sys.executable, "-m", "coinv.cli", "certify-fft", "-m", "2", "-n", "2",
            "-t", "2", "--F", "preset:jordan", "-k", "1", "--format", "json"]
    first = subprocess.run(args, capture_output=True, env=os.environ.copy())
    second = subprocess.run(args, capture_output=True, env=os.environ.copy())
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    report_line(10, "100 ideal combinations certified zero; reports byte-identical")
