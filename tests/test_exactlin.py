"""Exact rational linear algebra: echelon forms, kernels, subspaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinv.exactlin import (
    RationalMatrix,
    Subspace,
    kernel_basis,
    rank,
    rref,
    solve_homogeneous,
    vstack,
)

Q = Fraction


def test_from_rows_and_entry():
    m = RationalMatrix.from_rows([[1, "1/2"], [0, 3]])
    assert m.nrows == 2 and m.ncols == 2
    assert m.entry(0, 1) == Q(1, 2)
    assert m.entry(1, 0) == 0


def test_from_rows_ragged_rejected():
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [3]])


def test_matmul_against_dense():
    a = RationalMatrix.from_rows([[1, 2], [3, 4]])
    b = RationalMatrix.from_rows([[0, 1], [1, 1]])
    assert (a @ b).to_dense() == [[Q(2), Q(3)], [Q(4), Q(7)]]


def test_kron_mixed_product():
    a = RationalMatrix.from_rows([[1, 2], [0, 1]])
    b = RationalMatrix.from_rows([[3], [5]])
    c = RationalMatrix.from_rows([[1, 1], [2, 0]])
    d = RationalMatrix.from_rows([[4, 0]])
    assert (a @ c).kron(b @ d) == (a.kron(b)) @ (c.kron(d))


def test_rref_known_matrix():
    m = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    res = rref(m)
    assert res.pivot_cols == (0, 1)
    assert rank(m) == 2


def test_rank_of_identity_and_zero():
    assert rank(RationalMatrix.identity(5)) == 5
    assert rank(RationalMatrix.zero(3, 4)) == 0


def test_kernel_basis_annihilates():
    m = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    ker = kernel_basis(m)
    assert ker.dim == 1
    for row in ker.basis.rows:
        assert all(v == 0 for v in m.mul_vector(row).values())


def test_solve_homogeneous_known_system():
    # x0 + x1 = 0, x1 - x2 = 0  ->  one-dimensional solution (1, -1, -1)
    sol = solve_homogeneous([{0: Q(1), 1: Q(1)}, {1: Q(1), 2: Q(-1)}], 3)
    assert sol.dim == 1
    assert sol.contains({0: Q(2), 1: Q(-2), 2: Q(-2)})
    assert not sol.contains({0: Q(1), 1: Q(1), 2: Q(0)})


def test_subspace_equality_of_spanning_sets():
    s1 = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    s2 = Subspace.from_vectors(3, [[1, 1, 1], [2, 2, 1]])
    assert s1 == s2
    assert s1.is_subspace_of(s2) and s2.is_subspace_of(s1)


def test_subspace_sum_and_containment():
    a = Subspace.from_vectors(3, [[1, 0, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0]])
    s = a.sum(b)
    assert s.dim == 2
    assert a.is_subspace_of(s) and b.is_subspace_of(s)
    assert not s.is_subspace_of(a)


def test_subspace_reduce_is_zero_exactly_on_members():
    s = Subspace.from_vectors(4, [[1, 2, 0, 0], [0, 0, 1, -1]])
    assert s.reduce({0: Q(3), 1: Q(6), 2: Q(5), 3: Q(-5)}) == {}
    assert s.reduce({0: Q(1)}) != {}


def test_vstack_shapes():
    a = RationalMatrix.identity(2)
    b = RationalMatrix.zero(1, 2)
    v = vstack([a, b])
    assert v.nrows == 3 and v.ncols == 2
    assert rank(v) == 2


small_entries = st.integers(min_value=-4, max_value=4)


def matrices(nrows, ncols):
    return st.lists(
        st.lists(small_entries, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ).map(RationalMatrix.from_rows)


@settings(max_examples=40, deadline=None)
@given(matrices(3, 4))
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.ncols


@settings(max_examples=40, deadline=None)
@given(matrices(3, 3))
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=30, deadline=None)
@given(matrices(2, 3), matrices(3, 2))
def test_rank_product_bound(a, b):
    assert rank(a @ b) <= min(rank(a), rank(b))


@settings(max_examples=30, deadline=None)
@given(matrices(3, 3))
def test_rref_idempotent(m):
    once = rref(m).matrix
    assert rref(once).matrix == once


# -- rational entries: the denominator-clearing path of the eliminator ------------

rational_entries = st.builds(Q, st.integers(min_value=-4, max_value=4),
                             st.integers(min_value=1, max_value=3))


def dense_rref(rows):
    """Reference Gauss-Jordan elimination on dense Fraction rows: nonzero RREF rows."""
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    lead_row = 0
    for col in range(ncols):
        piv = next((r for r in range(lead_row, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[lead_row], a[piv] = a[piv], a[lead_row]
        p = a[lead_row][col]
        a[lead_row] = [x / p for x in a[lead_row]]
        for r in range(len(a)):
            if r != lead_row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[lead_row])]
        lead_row += 1
    return a[:lead_row]


def dense_residual(rref_rows, vec):
    """vec minus its combination of the RREF rows at their pivot columns."""
    out = list(vec)
    for row in rref_rows:
        lead = next(c for c, x in enumerate(row) if x)
        f = out[lead]
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return {c: x for c, x in enumerate(out) if x}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rational_entries, min_size=5, max_size=5), min_size=1, max_size=5),
       st.lists(rational_entries, min_size=5, max_size=5))
def test_rational_rref_and_reduce_match_dense_gauss_jordan(rows, vec):
    expected = dense_rref(rows)
    assert rref(RationalMatrix.from_rows(rows)).matrix.to_dense() == expected
    space = Subspace.from_vectors(5, rows)
    residual = space.reduce(vec)
    assert residual == dense_residual(expected, vec)
    assert space.contains(vec) == (not residual)
    combo = [sum((c * r[i] for c, r in zip(vec, rows)), Q(0)) for i in range(5)]
    assert space.reduce(combo) == {}
