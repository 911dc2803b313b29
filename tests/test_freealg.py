"""Free algebra arithmetic, word bases, and the splitting map theta."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinv.freealg import (
    FreeAlgebra,
    GeneratorSet,
    matrix_entry_algebra,
    tensor,
    theta,
    theta_matrix,
)

Q = Fraction


@pytest.fixture
def a22():
    return matrix_entry_algebra("x", 2, 2)


def test_letter_roundtrip(a22):
    for i in range(2):
        for j in range(2):
            letter = a22.letter("x", i, j)
            assert a22.letter_info(letter) == ("x", i, j)
            assert a22.letter_label(letter) == f"x{i + 1}{j + 1}"


def test_out_of_range_letter_rejected(a22):
    with pytest.raises(ValueError):
        a22.letter("x", 2, 0)


def test_degree_basis_counts(a22):
    for k in range(4):
        assert len(a22.degree_basis(k)) == 4 ** k


def test_degree_basis_sorted_deterministic(a22):
    basis = a22.degree_basis(2)
    assert basis == tuple(sorted(basis))
    assert basis[0] == (a22.letter("x", 0, 0),) * 2


def test_word_weight_mixed_signs():
    alg = FreeAlgebra([GeneratorSet("u", 2, 2, +1), GeneratorSet("v", 2, 2, -1)])
    w = (alg.letter("u", 0, 1), alg.letter("u", 1, 1), alg.letter("v", 0, 0))
    assert alg.word_weight(w) == 1


def test_element_arithmetic(a22):
    x00 = a22.gen("x", 0, 0)
    x01 = a22.gen("x", 0, 1)
    p = (x00 + x01) * (x00 - x01)
    # noncommutative: x00^2 - x00 x01 + x01 x00 - x01^2
    assert p.coeff((a22.letter("x", 0, 0),) * 2) == 1
    assert p.coeff((a22.letter("x", 0, 0), a22.letter("x", 0, 1))) == -1
    assert p.coeff((a22.letter("x", 0, 1), a22.letter("x", 0, 0))) == 1
    assert len(p.support()) == 4


def test_mixed_algebra_arithmetic_rejected(a22):
    other = matrix_entry_algebra("x", 2, 2)
    # equal algebras interoperate; genuinely different ones do not
    assert a22 == other
    bad = matrix_entry_algebra("y", 2, 2)
    with pytest.raises(ValueError):
        a22.gen("x", 0, 0) + bad.gen("y", 0, 0)


def test_homogeneity_and_degree(a22):
    x = a22.gen("x", 0, 0)
    p = x * x + a22.one()
    assert not p.is_homogeneous()
    assert p.degree() == 2
    assert p.degree_component(2) == x * x
    assert p.degree_component(1).is_zero


def test_power(a22):
    x = a22.gen("x", 0, 1)
    assert x ** 3 == x * x * x
    assert (x ** 0) == a22.one()


def test_tensor_componentwise_product(a22):
    b = matrix_entry_algebra("z", 2, 2)
    x, z = a22.gen("x", 0, 0), b.gen("z", 1, 1)
    t = tensor(x, z)
    assert (t * t).coeff((a22.letter("x", 0, 0),) * 2, (b.letter("z", 1, 1),) * 2) == 1


def test_theta_images():
    hom = theta(2, 2, 2)
    amt, atn = hom.tensor_target
    img = hom.apply_word((hom.source.letter("x", 0, 1),))
    # x_01 -> sum_k y_0k (x) z_k1
    assert img.coeff((amt.letter("y", 0, 0),), (atn.letter("z", 0, 1),)) == 1
    assert img.coeff((amt.letter("y", 0, 1),), (atn.letter("z", 1, 1),)) == 1
    assert len(img.support()) == 2


def test_hom_multiplicative():
    hom = theta(2, 1, 2)
    src = hom.source
    w1 = (src.letter("x", 0, 0),)
    w2 = (src.letter("x", 1, 0),)
    assert hom.apply_word(w1 + w2) == hom.apply_word(w1) * hom.apply_word(w2)


@pytest.mark.parametrize("m,n,t,k", [(1, 1, 1, 3), (2, 2, 1, 2), (2, 1, 2, 2), (2, 2, 2, 1)])
def test_theta_matrix_full_column_rank(m, n, t, k):
    res = theta_matrix(m, n, t, k)
    assert res.matrix.ncols == (m * n) ** k
    assert res.rank == (m * n) ** k


def test_theta_matrix_negative_degree_rejected():
    with pytest.raises(ValueError):
        theta_matrix(1, 1, 1, -1)


words3 = st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=3).map(tuple)
elements = st.dictionaries(words3, st.integers(min_value=-3, max_value=3), max_size=4)


@settings(max_examples=40, deadline=None)
@given(elements, elements, elements)
def test_product_associative_and_distributive(ta, tb, tc):
    alg = matrix_entry_algebra("x", 2, 2)
    a, b, c = (alg.element(t) for t in (ta, tb, tc))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
