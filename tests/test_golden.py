"""Golden reports: one small case per command must reproduce its report byte for byte.

Each file under tests/golden/ was written by `coinv <args> --format <format>
-o <file>`, its extension naming the format: .json for json, .txt for text
and .csv for csv.  The text format alone prints hopf-check's per-check
counts.  A change to the eliminator, the accumulators or the status logic
that alters any verdict, dimension, count or the report layout shows up here.
"""

from pathlib import Path

import pytest

from coinv.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "certify-fft_m3_n2_t1_identity_k4": "certify-fft -m 3 -n 2 -t 1 --F preset:identity -k 4",
    "certify-fft_m1_n1_t2_jordan_k2": "certify-fft -m 1 -n 1 -t 2 --F preset:jordan -k 2",
    "certify-fft_m2_n1_t2_diag_k2": "certify-fft -m 2 -n 1 -t 2 --F preset:diag:1,2 -k 2",
    # an explicit --trunc: params.d is the integer, every witness_degree 5
    "certify-fft_m1_n1_t2_jordan_k3_d5":
        "certify-fft -m 1 -n 1 -t 2 --F preset:jordan -k 3 --trunc 5",
    "coinvariants_m2_n2_t2_diag_i2_j1": "coinvariants -m 2 -n 2 -t 2 --F preset:diag:1,2 -i 2 -j 1",
    "coinvariants_m1_n1_t2_jordan_i1_j1": "coinvariants -m 1 -n 1 -t 2 --F preset:jordan -i 1 -j 1",
    "theta-rank_m2_n2_t2_k3": "theta-rank -m 2 -n 2 -t 2 -k 3",
    "intertwiners_m2_n2_t2_jordan_i1_j1": "intertwiners -m 2 -n 2 -t 2 --F preset:jordan -i 1 -j 1",
    "intertwiners_m1_n1_t2_jordan_i1_j2": "intertwiners -m 1 -n 1 -t 2 --F preset:jordan -i 1 -j 2",
    "hopf-check_m1_n1_t2_jordan": "hopf-check -m 1 -n 1 -t 2 --F preset:jordan",
    "classical_m2_n2_t1_d4": "classical -m 2 -n 2 -t 1 --max-degree 4",
    "classical_m3_n3_t2_d3": "classical -m 3 -n 3 -t 2 --max-degree 3",
    # rectangular, with nonzero minors: FFT2 reads 4/4 at X-degree 3
    "classical_m3_n4_t2_d3": "classical -m 3 -n 4 -t 2 --max-degree 3",
    "correspondence_m2_n2_t2_jordan_k1": "correspondence -m 2 -n 2 -t 2 --F preset:jordan -k 1",
    "hopf-check_m1_n1_t3_jordan": "hopf-check -m 1 -n 1 -t 3 --F preset:jordan",
}

FORMATS = {".json": "json", ".txt": "text", ".csv": "csv"}


def test_every_golden_file_has_a_case():
    files = list(GOLDEN.iterdir())
    # one file per case: no case without a file, no file without a case
    assert sorted(p.stem for p in files) == sorted(CASES)
    assert all(p.suffix in FORMATS for p in files)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    (golden,) = GOLDEN.glob(f"{name}.*")
    out = tmp_path / golden.name
    assert run(CASES[name].split() + ["--format", FORMATS[golden.suffix], "-o", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
