"""Exact rational linear algebra: echelon forms, kernels, subspaces."""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinv import exactlin
from coinv.exactlin import Subspace, add_to, rank, solve_homogeneous

Q = Fraction


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def sparse_rows(rows):
    return [sparse(r) for r in rows]


def test_rref_known_matrix():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {0: 1, 1: 1, 2: 1}]
    assert Subspace.from_vectors(3, rows).pivot_cols == (0, 1)
    assert rank(rows) == 2


def test_rank_of_identity_and_zero():
    assert rank([{i: 1} for i in range(5)]) == 5
    assert rank([{}] * 3) == 0


def times(rows, x):
    """The dense product rows @ x for a sparse vector x."""
    return [sum((a * x.get(c, 0) for c, a in enumerate(r)), Q(0)) for r in rows]


def test_kernel_basis_annihilates():
    rows = [[1, 2, 3], [4, 5, 6]]
    ker = solve_homogeneous(sparse_rows(rows), 3)
    assert ker.dim == 1
    for row in ker.basis:
        assert times(rows, row) == [0, 0]


def test_solve_homogeneous_known_system():
    # x0 + x1 = 0, x1 - x2 = 0  ->  one-dimensional solution (1, -1, -1)
    sol = solve_homogeneous([{0: Q(1), 1: Q(1)}, {1: Q(1), 2: Q(-1)}], 3)
    assert sol.dim == 1
    assert sol.contains({0: Q(2), 1: Q(-2), 2: Q(-2)})
    assert not sol.contains({0: Q(1), 1: Q(1), 2: Q(0)})


def test_subspace_equality_of_spanning_sets():
    s1 = Subspace.from_vectors(3, [{0: 1, 1: 1}, {2: 1}])
    s2 = Subspace.from_vectors(3, [{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 1}])
    assert s1 == s2
    assert all(s2.contains(row) for row in s1.basis)
    assert all(s1.contains(row) for row in s2.basis)


def test_subspace_reduce_is_zero_exactly_on_members():
    s = Subspace.from_vectors(4, [{0: 1, 1: 2}, {2: 1, 3: -1}])
    assert s.reduce({0: Q(3), 1: Q(6), 2: Q(5), 3: Q(-5)}) == {}
    assert s.reduce({0: Q(1)}) != {}


def test_subspace_rejects_a_float_and_takes_exact_scalars():
    with pytest.raises(TypeError):
        Subspace.from_vectors(2, [{0: 0.1, 1: 1}])
    s = Subspace.from_vectors(2, [{0: 1, 1: 2}])
    with pytest.raises(TypeError):
        s.contains({0: 0.5, 1: 1})
    # a column is an integer, never a float rounded down
    with pytest.raises(TypeError):
        Subspace.from_vectors(2, [{1.5: 1}])
    with pytest.raises(TypeError):
        s.reduce({1.5: 1})
    # a float column of an equation is refused, not dropped with its equation
    with pytest.raises(TypeError):
        solve_homogeneous([{1.5: 1}], 3)
    # an int, a Fraction and a string name the same vector
    for half in (Q(1, 2), "1/2"):
        t = Subspace.from_vectors(2, [{0: half, 1: 1}])
        assert t == s and t.basis == [{0: Q(1), 1: Q(2)}]
        assert s.contains({0: half, 1: 1}) and not s.contains({0: 1, 1: half})
        assert s.contains({0: 3, 1: 6})


def test_rank_and_solve_name_a_float_coefficient():
    # a float is refused with as_exact's TypeError, not an AttributeError
    with pytest.raises(TypeError, match="inexact coefficient 0.5"):
        rank([{0: 0.5}])
    with pytest.raises(TypeError, match="inexact coefficient 1.0"):
        solve_homogeneous([{0: 1.0, 1: 1}], 2)
    # ints and Fractions, mixed in one row, are taken as given
    assert rank([{0: Q(1, 2), 1: 1}, {0: 1, 1: 2}]) == 1
    assert rank([{0: 1}, {1: Q(2, 3)}]) == 2
    kernel = solve_homogeneous([{0: Q(1, 2), 1: 1}], 2)
    assert kernel.basis == [{0: Q(1), 1: Q(-1, 2)}]
    assert solve_homogeneous([{0: 1, 1: -1}], 2).basis == [{0: Q(1), 1: Q(1)}]


small_entries = st.integers(min_value=-4, max_value=4)


def dense_rows(nrows, ncols):
    return st.lists(
        st.lists(small_entries, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    )


@settings(max_examples=40, deadline=None)
@given(dense_rows(3, 4))
def test_rank_nullity(rows):
    assert rank(sparse_rows(rows)) + solve_homogeneous(sparse_rows(rows), 4).dim == 4


@settings(max_examples=40, deadline=None)
@given(dense_rows(3, 3))
def test_rank_transpose_invariant(rows):
    transpose = [list(col) for col in zip(*rows)]
    assert rank(sparse_rows(rows)) == rank(sparse_rows(transpose))


@settings(max_examples=30, deadline=None)
@given(dense_rows(2, 3), dense_rows(3, 2))
def test_rank_product_bound(a, b):
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    assert rank(sparse_rows(product)) <= min(rank(sparse_rows(a)), rank(sparse_rows(b)))


@settings(max_examples=30, deadline=None)
@given(dense_rows(3, 3))
def test_rref_idempotent(rows):
    once = Subspace.from_vectors(3, sparse_rows(rows)).basis
    assert Subspace.from_vectors(3, once).basis == once


@settings(max_examples=60, deadline=None)
@given(dense_rows(3, 4), st.lists(st.lists(small_entries, min_size=3, max_size=3), max_size=3),
       st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=3))
def test_spanning_sets_of_one_subspace_are_equal_with_equal_hashes(rows, combos, scales):
    """Scaled rows in reverse order plus combinations of them span the same
    subspace, so both spanning sets give one RREF: equal Subspaces, equal hashes."""
    other = [[s * x for x in row] for s, row in zip(scales, rows)][::-1]
    other += [[sum(c * row[i] for c, row in zip(combo, rows)) for i in range(4)] for combo in combos]
    s1 = Subspace.from_vectors(4, sparse_rows(rows))
    s2 = Subspace.from_vectors(4, sparse_rows(other))
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.basis == s2.basis and s1.dim == rank(sparse_rows(rows))
    # a Subspace equals another exactly when each contains the other's basis
    for vectors in (rows + [[1, 0, 0, 0]], [row[1:] + row[:1] for row in rows]):
        s3 = Subspace.from_vectors(4, sparse_rows(vectors))
        mutual = all(s1.contains(r) for r in s3.basis) and all(s3.contains(r) for r in s1.basis)
        assert (s3 == s1) == mutual


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
    space = Subspace.from_vectors(5, sparse_rows(rows))
    assert [[row.get(c, 0) for c in range(5)] for row in space.basis] == expected
    residual = space.reduce(sparse(vec))
    assert residual == dense_residual(expected, vec)
    assert space.contains(sparse(vec)) == (not residual)
    combo = [sum((c * r[i] for c, r in zip(vec, rows)), Q(0)) for i in range(5)]
    assert space.reduce(sparse(combo)) == {}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rational_entries, min_size=5, max_size=5), max_size=5),
       st.lists(st.integers(min_value=0, max_value=4), max_size=3))
def test_echelon_rank_matches_rref_dim_on_rational_rows(rows, repeats):
    """`rank` stops at echelon form; it must count what the full RREF keeps,
    also when rows repeat."""
    rows = rows + [rows[i] for i in repeats if i < len(rows)]
    expected = len(dense_rref(rows)) if rows else 0
    assert rank(sparse_rows(rows)) == Subspace.from_vectors(5, sparse_rows(rows)).dim == expected


# -- solve_homogeneous against a dense null space -----------------------------------


def dense_null_space_rref(rows, n):
    """Canonical RREF rows of the null space, from dense Gauss-Jordan elimination."""
    reduced = dense_rref([[Q(r.get(c, 0)) for c in range(n)] for r in rows]) if rows else []
    leads = [next(c for c, x in enumerate(row) if x) for row in reduced]
    null = []
    for f in (c for c in range(n) if c not in leads):
        x = [Q(0)] * n
        x[f] = Q(1)
        for lead, row in zip(leads, reduced):
            x[lead] = -row[f]
        null.append(x)
    return [sparse(row) for row in (dense_rref(null) if null else [])]


def sparse_systems():
    """(rows, n): up to 6 sparse rows over n <= 8 unknowns, with empty rows,
    explicit zero entries and int as well as Fraction values."""
    values = st.one_of(rational_entries, st.integers(min_value=-3, max_value=3))

    def rows(n):
        cols = st.integers(min_value=0, max_value=n - 1) if n else st.nothing()
        row = st.dictionaries(cols, values, max_size=n)
        return st.tuples(st.lists(row, max_size=6), st.just(n))

    return st.integers(min_value=0, max_value=8).flatmap(rows)


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_solve_homogeneous_matches_dense_null_space(system):
    rows, n = system
    ker = solve_homogeneous(rows, n)
    expected = dense_null_space_rref(rows, n)
    assert ker.pivot_cols == tuple(min(row) for row in expected)
    assert ker.basis == expected
    span = Subspace.from_vectors(n, ker.basis)
    assert ker == span
    # one-pass reduce relies on the RREF form solve_homogeneous builds directly
    assert all(ker.reduce({c: 1}) == span.reduce({c: 1}) for c in range(n))
    for row in ker.basis:
        assert times([[r.get(c, 0) for c in range(n)] for r in rows], row) == [0] * len(rows)


@pytest.mark.parametrize("col", [-1, 3])
def test_solve_homogeneous_rejects_out_of_range_columns(col):
    with pytest.raises(ValueError):
        solve_homogeneous([{0: Q(1)}, {col: Q(2)}], 3)
    # so does a Subspace, whether it is built or reduces a vector
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [{col: 1, 0: 2}])
    with pytest.raises(ValueError):
        Subspace.from_vectors(3, [{0: 1}]).reduce({col: 5, 0: 1})


# -- fraction-free back-substitution against the Fraction one ------------------------


def fraction_back_substitute(pivots):
    """Oracle: back-substitution in `Fraction`s, each row divided by its lead
    first and then reduced modulo the RREF rows already emitted, in one pass:
    each emitted row is 1 at its lead and 0 at every other emitted lead."""
    reduced = {}
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        a = row[lead]
        tail = {c: Q(v, a) for c, v in row.items() if c != lead}
        for p in [c for c in tail if c in reduced]:
            f = tail.pop(p)
            for c, x in reduced[p].items():
                if c != p:
                    tail[c] = tail.get(c, 0) - f * x
        reduced[lead] = {lead: Q(1), **{c: x for c, x in tail.items() if x}}
    return reduced


big_entries = st.builds(Q, st.integers(min_value=-10**6, max_value=10**6),
                        st.one_of(st.integers(min_value=1, max_value=6),
                                  st.integers(min_value=1, max_value=10**6)))


@st.composite
def rank_deficient_systems(draw):
    """(rows, n): sparse rational rows over n <= 8 columns with entries and
    denominators up to 10^6, then rational combinations of them appended."""
    n = draw(st.integers(min_value=1, max_value=8))
    row = st.dictionaries(st.integers(min_value=0, max_value=n - 1), big_entries, max_size=n)
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        combo = {}
        for r in rows:
            f = draw(st.builds(Q, st.integers(min_value=-9, max_value=9),
                               st.integers(min_value=1, max_value=5)))
            for c, v in r.items():
                add_to(combo, c, f * v)
        rows.append(combo)
    return rows, n


@settings(max_examples=200, deadline=None)
@given(rank_deficient_systems())
def test_integer_back_substitution_matches_fraction_oracle(system):
    rows, n = system
    with mock.patch.object(exactlin, "_back_substitute", fraction_back_substitute):
        span, ker = Subspace.from_vectors(n, rows), solve_homogeneous(rows, n)
    assert Subspace.from_vectors(n, rows) == span
    assert solve_homogeneous(rows, n) == ker
    # the integer rows are primitive, lead positive, each a multiple of its RREF row
    cleared = exactlin._echelon(exactlin._clean_row(r, n) for r in rows)
    exactlin._clear_pivots(cleared)
    for lead, row in cleared.items():
        content = 0
        for v in row.values():
            content = gcd(content, v)
        assert content == 1 and min(row) == lead and row[lead] > 0
        rref_row = span.basis[span.pivot_cols.index(lead)]
        assert {c: v * row[lead] for c, v in rref_row.items()} == row
