"""Free algebras, word bases, the word splitter and the map theta."""

import json
import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from conftest import identity

from coinv import cli, freealg
from coinv.catalg import certify_fft, lemma_base_case
from coinv.comod import theta_image_vectors
from coinv.exactlin import rank
from coinv.freealg import (
    FreeAlgebra,
    GeneratorSet,
    matrix_entry_algebra,
    split_word,
    theta_images,
    theta_matrix,
    theta_rank,
)
from coinv.hopf import RELATION_DEGREE, build_hf
from oracles import degree_basis, pair_product

Q = Fraction


@pytest.fixture
def a22():
    return matrix_entry_algebra("x", 2, 2)


def test_letter_roundtrip(a22):
    for i in range(2):
        for j in range(2):
            letter = a22.letter("x", i, j)
            assert a22.letter_info(letter) == ("x", i, j)
            assert a22.word_label((letter,)) == f"x{i + 1}{j + 1}"


def test_out_of_range_letter_rejected(a22):
    with pytest.raises(ValueError):
        a22.letter("x", 2, 0)


def test_degree_basis_counts(a22):
    for k in range(4):
        assert len(degree_basis(a22, k)) == 4 ** k


def test_degree_basis_sorted_deterministic(a22):
    basis = degree_basis(a22, 2)
    assert basis == tuple(sorted(basis))
    assert basis[0] == (a22.letter("x", 0, 0),) * 2


@pytest.mark.parametrize("name, rows, cols", [("x", 0, 1), ("x", 1, 0), ("x", -1, 2),
                                               ("", 1, 1), ("1x", 1, 1), ("x y", 1, 1)])
def test_generator_set_shape_and_name_are_validated(name, rows, cols):
    with pytest.raises(ValueError):
        GeneratorSet(name, rows, cols).validate()
    with pytest.raises(ValueError):
        FreeAlgebra([GeneratorSet("ok", 1, 1), GeneratorSet(name, rows, cols)])
    GeneratorSet("x1", 2, 3, -1).validate()


def test_word_weight_mixed_signs():
    alg = FreeAlgebra([GeneratorSet("u", 2, 2, +1), GeneratorSet("v", 2, 2, -1)])
    w = (alg.letter("u", 0, 1), alg.letter("u", 1, 1), alg.letter("v", 0, 0))
    assert alg.word_weight(w) == 1


def test_mixed_algebra_arithmetic_rejected(a22):
    other = matrix_entry_algebra("x", 2, 2)
    # algebras on the same generator sets are equal
    assert a22 == other


def test_tensor_componentwise_product(a22):
    b = matrix_entry_algebra("z", 2, 2)
    x, z = a22.letter("x", 0, 0), b.letter("z", 1, 1)
    t = {((x,), (z,)): Q(2)}
    assert pair_product(t, t) == {((x, x), (z, z)): Q(4)}
    # (x (x) 1 + 1)(1 - x (x) 1) = 1 - x^2 (x) 1: the terms that cancel are dropped
    one = ((), ())
    assert pair_product({((x,), ()): Q(1), one: Q(1)}, {one: Q(1), ((x,), ()): Q(-1)}) == {
        one: Q(1), ((x, x), ()): Q(-1)}
    assert pair_product(t, {}) == {}


def test_theta_images():
    src = matrix_entry_algebra("x", 2, 2)
    amt, atn = matrix_entry_algebra("y", 2, 2), matrix_entry_algebra("z", 2, 2)
    images = dict(theta_images(2, 2, 2, 1))
    # x_01 -> sum_k y_0k (x) z_k1
    assert list(images[(src.letter("x", 0, 1),)]) == [
        ((amt.letter("y", 0, 0),), (atn.letter("z", 0, 1),)),
        ((amt.letter("y", 0, 1),), (atn.letter("z", 1, 1),)),
    ]


def _tensor(pairs):
    """The sum of the given word pairs, each with coefficient 1."""
    pairs = list(pairs)
    assert len(set(pairs)) == len(pairs)
    return dict.fromkeys(pairs, Q(1))


def _letter_product(word, letter_image):
    """The product of letter_image(letter) over the word, via pair_product."""
    out = {((), ()): Q(1)}
    for letter in word:
        out = pair_product(out, letter_image(letter))
    return out


def test_hom_multiplicative():
    """theta(w1 w2) = theta(w1) theta(w2) for all word pairs of total degree <= 3,
    and theta(w) is the product of the images x_ij -> sum_k y_ik (x) z_kj."""
    for m, n, t in ((2, 2, 2), (2, 1, 3)):
        src = matrix_entry_algebra("x", m, n)
        amt, atn = matrix_entry_algebra("y", m, t), matrix_entry_algebra("z", t, n)
        images = {w: _tensor(pairs)
                  for k in range(4) for w, pairs in theta_images(m, n, t, k)}

        def gen_image(letter):
            _, i, j = src.letter_info(letter)
            return _tensor([((amt.letter("y", i, k),), (atn.letter("z", k, j),))
                            for k in range(t)])

        for w, img in images.items():
            assert img == _letter_product(w, gen_image)
        for w1 in images:
            for w2 in images:
                if len(w1) + len(w2) <= 3:
                    assert images[w1 + w2] == pair_product(images[w1], images[w2])


def test_split_word_order_and_empty_word():
    src = matrix_entry_algebra("x", 1, 1)
    amt, atn = matrix_entry_algebra("y", 1, 2), matrix_entry_algebra("z", 2, 1)
    x = src.letter("x", 0, 0)
    y0, y1 = amt.letter("y", 0, 0), amt.letter("y", 0, 1)
    z0, z1 = atn.letter("z", 0, 0), atn.letter("z", 1, 0)
    names = {"x": ("y", "z")}
    assert list(split_word((), src, amt, atn, 2, names)) == [((), ())]
    # one term per inner-index choice (k1, k2), in lexicographic order
    assert list(split_word((x, x), src, amt, atn, 2, names)) == [
        ((y0, y0), (z0, z0)), ((y0, y1), (z0, z1)),
        ((y1, y0), (z1, z0)), ((y1, y1), (z1, z1))]


@pytest.mark.parametrize("m,n,t,k", [(1, 1, 1, 3), (2, 2, 1, 2), (2, 1, 2, 2), (2, 2, 2, 1)])
def test_theta_matrix_full_column_rank(m, n, t, k):
    columns = theta_matrix(m, n, t, k)
    assert len(columns) == (m * n) ** k
    assert rank(columns) == theta_rank(m, n, t, k) == (m * n) ** k


def _row_form_theta(m, n, t, k):
    """θ_k as the full-size matrix with one row per degree-k word pair, the
    pair (w_A, w_B) at row ia * (tn)^k + ib, built with index dicts: a list
    of sparse rows {column: 1}, and the number of columns."""
    left = {w: i for i, w in enumerate(degree_basis(matrix_entry_algebra("y", m, t), k))}
    right = {w: i for i, w in enumerate(degree_basis(matrix_entry_algebra("z", t, n), k))}
    rows = [{} for _ in range(len(left) * len(right))]
    ncols = 0
    for col, (_, pairs) in enumerate(theta_images(m, n, t, k)):
        ncols += 1
        for wl, wr in pairs:
            rows[left[wl] * len(right) + right[wr]][col] = 1
    return rows, ncols


@pytest.mark.parametrize("m,n,t,k", [(1, 1, 1, 0), (2, 3, 2, 0), (1, 1, 2, 3), (2, 1, 2, 2),
                                     (2, 2, 2, 2), (1, 2, 3, 2), (2, 2, 1, 3)])
def test_theta_columns_are_the_row_form_matrix(m, n, t, k, capsys):
    """The column form of θ_k has the rank and the columns of the full-size
    row form, (mn)^k columns of t^k entries each, and comod reads the same
    on the (1,1,t) block."""
    old, ncols = _row_form_theta(m, n, t, k)
    columns = theta_matrix(m, n, t, k)
    full = rank(old)
    assert full == (m * n) ** k
    old_columns = [{} for _ in range(ncols)]
    for r, row in enumerate(old):
        for c, v in row.items():
            old_columns[c][r] = v
    assert columns == old_columns
    assert len(columns) == (m * n) ** k
    assert all(len(col) == t ** k for col in columns)
    if m == n == 1:
        assert theta_image_vectors(t, k) == columns
    # the premise of the rank read off the proof: nonempty columns, pairwise
    # disjoint supports, so certify-fft and theta-rank report the full-size rank
    support = [set(col) for col in columns]
    assert all(support) and len(set().union(*support)) == sum(map(len, support))
    hopf = build_hf(identity(t))
    base = lemma_base_case(hopf, RELATION_DEGREE)
    assert certify_fft(m, n, hopf, k, max(k, RELATION_DEGREE), base).theta_rank == full
    assert cli.run(["theta-rank", "-m", str(m), "-n", str(n), "-t", str(t), "-k", str(k),
                    "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["cases"][k]["dim_theta"] == full


def _run_capped(code, *args):
    """Run python -c code with the coinv source on argv[1] and args after it,
    under a 512 MB address-space cap."""
    src = os.path.dirname(os.path.dirname(freealg.__file__))
    code = "import sys; sys.path.insert(0, sys.argv[1]); " + code

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run([sys.executable, "-c", code, src, *args], capture_output=True,
                          text=True, preexec_fn=cap_address_space, timeout=120)


def test_theta_matrix_fits_in_half_a_gigabyte():
    """θ_12 at m = n = 1, t = 2 is one column of 4,096 entries; the row form
    allocated 16,777,216 rows and ran out of a 512 MB address space."""
    proc = _run_capped("from coinv.exactlin import rank; from coinv.freealg import theta_matrix; "
                       "print(rank(theta_matrix(1, 1, 2, 12)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_certify_fft_at_m_n_2_fits_in_half_a_gigabyte():
    """certify-fft ranks θ_8 at m = n = 2 as 256 copies of θ_11(x^8); the
    65,536 full-size columns needed 1.9 GB."""
    proc = _run_capped("from coinv.cli import run; sys.exit(run(sys.argv[2:]))", "certify-fft",
                       "-m", "2", "-n", "2", "-t", "2", "--F", "preset:jordan", "-k", "8")
    assert proc.returncode == 0, proc.stderr


def test_theta_images_builds_no_word_basis():
    """The words are generated one at a time: the first of the 65,536 words
    of degree 8 and its image cost a few kilobytes, not the basis."""
    tracemalloc.start()
    try:
        w, pairs = next(theta_images(2, 2, 1, 8))
        terms = list(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w == (0,) * 8 and terms == [((0,) * 8, (0,) * 8)]
    assert peak < 100_000


def test_theta_matrix_negative_degree_rejected():
    with pytest.raises(ValueError):
        theta_matrix(1, 1, 1, -1)
    for args in ((1, 1, 1, -1), (0, 1, 1, 1), (1, 1, 0, 1)):
        with pytest.raises(ValueError):
            theta_rank(*args)
