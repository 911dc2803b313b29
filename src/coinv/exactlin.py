"""Exact sparse linear algebra over the rationals, and coinv's one eliminator.

Everything downstream (ideal truncations, coinvariant solvers, kernel
computations) reduces to row reduction of sparse matrices.  Rows are dicts
mapping column index to a nonzero coefficient.  Elimination is fraction-free:
rational rows are cleared to primitive integer rows and inserted into a
triangular basis of gcd-normalized integer rows (`_insert`), and
back-substitution turns the basis into reduced row echelon form
(`_back_substitute`).  Back-substitution is fraction-free too: each integer
row is cleared of the other pivot columns in integers, and its `Fraction`s
are made only when its RREF row is emitted.  RREF is canonical, so subspace
equality is dict equality of RREF rows, and `Subspace.reduce` reads a
vector's unique residual on the non-pivot columns off the RREF rows in one
pass.  Every kernel (`solve_homogeneous`) comes from one elimination with
the columns in reversed order, whose reduced rows read off directly as the
kernel's RREF basis.  The certified kernels of `fpquot` are solved here too;
its normal forms come from rewriting, not from this eliminator.

`add_to` is the sparse accumulator used by every other module, and
`as_exact` the one coercion of a coefficient to an exact scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import Iterable, Mapping

Q = Fraction

# sparse row: column index -> nonzero rational coefficient
Row = dict[int, Q]
# sparse integer row of a fraction-free triangular basis
IntRow = dict[int, int]


def add_to(acc: dict, key, c) -> None:
    """acc[key] += c on a sparse dict, dropping the key when the sum is zero."""
    s = acc.get(key)
    s = c if s is None else s + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def as_exact(c) -> int | Q:
    """c as an exact scalar: an int when it is integral, else a Fraction.

    Accepts anything Fraction does except a float, which is not exact.
    Integral coefficients kept as ints multiply and add at int speed.
    """
    if type(c) is int:
        return c
    if type(c) is not Q:
        if isinstance(c, float):
            raise TypeError(f"inexact coefficient {c!r}: give an int, a Fraction or a string")
        c = Q(c)
    return c.numerator if c.denominator == 1 else c


def _clean_row(entries: Mapping[int, object], ambient_dim: int) -> Row:
    """Copy a mapping into a Row, coercing values with as_exact and dropping
    zeros; every column must be an integer in [0, ambient_dim)."""
    row: Row = {}
    for c, v in entries.items():
        c = index(c)
        if not 0 <= c < ambient_dim:
            raise ValueError(f"column {c} outside [0, {ambient_dim})")
        q = as_exact(v)
        if q:
            row[c] = q
    return row


# -- the eliminator --------------------------------------------------------
#
# A triangular basis maps each pivot column to a row whose minimal column is
# that pivot.  `_insert` builds one from integer rows fraction-free and
# `_back_substitute` reduces it, both through the integer step `_eliminate`.
# `_eliminate` is the innermost loop of every elimination, so it accumulates
# inline rather than through add_to.


def _normalize_content(row: IntRow) -> None:
    """Divide an integer row by the gcd of its entries and make its lead positive."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for c in row:
            row[c] //= g
    if row and row[min(row)] < 0:
        for c in row:
            row[c] = -row[c]


def _integer_row(row: Mapping) -> dict:
    """The primitive integer multiple of a sparse rational vector, same keys."""
    try:
        den = lcm(*(v.denominator for v in row.values()))
    except AttributeError:
        for v in row.values():
            as_exact(v)  # a float raises its TypeError here
        raise
    out = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    _normalize_content(out)
    return out


def _eliminate(row: IntRow, piv: IntRow, col: int) -> None:
    """Clear column `col` of an integer row, in place, with the integer row
    `piv` that has a nonzero entry there: row <- (b/g)·row - (a/g)·piv for
    a = row[col], b = piv[col] and g = gcd(a, b), the multiple of row kept
    positive."""
    a = row.pop(col)
    b = piv[col]
    g = gcd(a, b)
    bb, aa = b // g, a // g
    if bb < 0:
        bb, aa = -bb, -aa
    if bb != 1:
        for c in row:
            row[c] *= bb
    for c, v in piv.items():
        if c == col:
            continue
        w = row.get(c, 0) - aa * v
        if w:
            row[c] = w
        else:
            row.pop(c, None)


def _insert(pivots: dict[int, IntRow], row: IntRow) -> int | None:
    """Fraction-free insertion of an integer row into a triangular basis.

    Consumes `row`.  Returns the new pivot column, or None if the row
    reduced to zero.
    """
    steps = 0
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            _normalize_content(row)
            pivots[lead] = row
            return lead
        _eliminate(row, piv, lead)
        steps += 1
        if steps & 15 == 0 and row:
            _normalize_content(row)
    return None


def _echelon(rows: Iterable[Row]) -> dict[int, IntRow]:
    """Triangular integer basis of the row space of rational rows, keyed by pivot column."""
    pivots: dict[int, IntRow] = {}
    for r in rows:
        if r:
            _insert(pivots, _integer_row(r))
    return pivots


def _clear_pivots(pivots: dict[int, IntRow]) -> None:
    """Clear each row of a triangular integer basis, in place, of every other pivot column.

    From the largest pivot down, each row is cleared in integers of the pivots
    above it, against rows already so cleared: their entries past their lead
    sit on non-pivot columns only, so no step brings a pivot column back.
    Each row ends primitive with a positive lead: a multiple of its RREF row.
    """
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            _eliminate(row, pivots[c], c)
        _normalize_content(row)


def _back_substitute(pivots: dict[int, IntRow]) -> dict[int, Row]:
    """The reduced row echelon basis of a triangular integer basis, keyed by pivot column.

    Consumes `pivots`.  Fraction-free: the only `Fraction`s made are the
    emitted RREF entries, and each integer row is dropped as its RREF row is
    emitted.
    """
    _clear_pivots(pivots)
    reduced: dict[int, Row] = {}
    while pivots:
        lead, row = pivots.popitem()
        a = row[lead]
        reduced[lead] = {c: Q(v, a) for c, v in row.items()}
    return reduced


def rank(rows: Iterable[Mapping]) -> int:
    """Dimension of the span of sparse rows of ints or Fractions.  Columns may
    be any totally ordered keys, such as monomial exponent tuples."""
    return len(_echelon(rows))


class Subspace:
    """Subspace of Q^n, stored as the canonical RREF basis of its vectors:
    one row per pivot column, keyed by it in increasing order."""

    __slots__ = ("ambient_dim", "_pivot_rows")

    def __init__(self, ambient_dim: int, reduced_rows: dict[int, Row]):
        """`reduced_rows` must be a fully reduced basis keyed by leading column:
        each row has leading coefficient 1 at its key and no support on other keys.
        Use `from_vectors` for arbitrary spanning sets.
        """
        self.ambient_dim = ambient_dim
        self._pivot_rows = dict(sorted(reduced_rows.items()))

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Mapping[int, object]]) -> "Subspace":
        """The span of sparse rows {column: coefficient}."""
        rows = [_clean_row(v, ambient_dim) for v in vectors]
        return cls(ambient_dim, _back_substitute(_echelon(rows)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, {})

    # -- queries -----------------------------------------------------------

    @property
    def basis(self) -> list[Row]:
        """The RREF rows in pivot order."""
        return list(self._pivot_rows.values())

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(self._pivot_rows)

    @property
    def dim(self) -> int:
        return len(self._pivot_rows)

    def reduce(self, vector: Mapping[int, object]) -> Row:
        """Residual of a sparse row v against the basis, zero iff v is a member.

        One pass subtracts v[p]·R_p for each pivot p in v's support: the RREF
        row R_p is 1 at p and 0 at every other pivot, so this clears p alone,
        and the residual is v's unique representative on non-pivot columns."""
        v = _clean_row(vector, self.ambient_dim)
        rows = self._pivot_rows
        for p in [c for c in v if c in rows]:
            f = v.pop(p)
            for c, x in rows[p].items():
                if c != p:
                    add_to(v, c, -f * x)
        return v

    def contains(self, vector: Mapping[int, object]) -> bool:
        return not self.reduce(vector)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._pivot_rows == other._pivot_rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(tuple(sorted(r.items())) for r in self._pivot_rows.values())))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def solve_homogeneous(rows: Iterable[Mapping[int, Q | int]], nunknowns: int) -> Subspace:
    """Kernel of the linear system given by sparse equation rows over `nunknowns`.

    Each row maps an int column in [0, nunknowns) to an exact value, coerced
    by as_exact; zero entries are dropped.

    One elimination gives the kernel's canonical basis.  The rows are
    eliminated with column c relabelled nunknowns-1-c, so each reduced row R[p]
    leads at its largest original column p and is otherwise supported on
    free columns below p.  For a free column f, the vector
    e_f - sum_p R[p][f] e_p therefore leads at f (every p with R[p][f] != 0
    exceeds f) and vanishes on every other free column: these vectors are
    already the RREF rows of the kernel, whose pivots are the free columns.
    """
    top = nunknowns - 1
    pivots: dict[int, IntRow] = {}
    for r in rows:
        row = _integer_row({top - c: v for c, v in _clean_row(r, nunknowns).items()})
        if row:
            _insert(pivots, row)
    reduced = _back_substitute(pivots)
    kernel: dict[int, Row] = {f: {f: Q(1)} for f in range(nunknowns) if top - f not in reduced}
    for lead, row in reduced.items():
        p = top - lead
        for c, v in row.items():
            if c != lead:
                kernel[top - c][p] = -v
    return Subspace(nunknowns, kernel)
