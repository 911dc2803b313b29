"""Free associative algebras on doubly indexed generator families.

An algebra holds one or more generator sets; a set named ``y`` of shape
(rows, cols) contributes generators y_ij for 0 <= i < rows, 0 <= j < cols
(indices are 0-based in code; rendered labels use the 1-based math
convention, e.g. ``y11``).  Words are tuples of flat letter indices.  An
element is a plain {word: coefficient} dict of nonzero Fractions; there is
no element class.  An element of the tensor product of two such algebras is
a {(left word, right word): coefficient} dict (the tests' oracles multiply
two).

`split_word` enumerates the matrix comultiplication g_ij -> sum_k g'_ik (x)
g''_kj on a word.  The embedding θ here and the coproduct of H(F) are this
one map with different letter names; so are the coactions lambda on A(t,n)
and rho on A(m,t), which the tests' oracle builds (tests/oracles.py).

Generator sets may carry an integer weight; the induced word weight is the
grading used for the Laurent specialization of Hopf covers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, NamedTuple, Sequence

Q = Fraction

Word = tuple[int, ...]
PairKey = tuple[Word, Word]


class GeneratorSet(NamedTuple):
    """A doubly indexed family of free generators with an optional grading
    weight; FreeAlgebra, which consumes every set, validates it."""

    name: str
    rows: int
    cols: int
    weight: int = 0

    def validate(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("generator set shape must be positive")
        if not self.name or not self.name.isidentifier():
            raise ValueError("generator set name must be a nonempty identifier")

    @property
    def size(self) -> int:
        return self.rows * self.cols


class FreeAlgebra:
    """Free associative algebra on the union of the given generator sets."""

    __slots__ = ("gen_sets", "_offsets", "_info", "_labels", "_weights", "_by_name")

    def __init__(self, gen_sets: Sequence[GeneratorSet]):
        gen_sets = tuple(gen_sets)
        for g in gen_sets:
            g.validate()
        names = [g.name for g in gen_sets]
        if len(set(names)) != len(names):
            raise ValueError("generator set names must be distinct")
        self.gen_sets = gen_sets
        self._offsets = {}
        self._by_name = {}
        self._info: list[tuple[str, int, int]] = []
        self._labels: list[str] = []
        self._weights: list[int] = []
        off = 0
        for g in gen_sets:
            self._offsets[g.name] = off
            self._by_name[g.name] = g
            for i in range(g.rows):
                for j in range(g.cols):
                    self._info.append((g.name, i, j))
                    self._labels.append(f"{g.name}{i + 1}{j + 1}" if max(g.rows, g.cols) <= 9
                                        else f"{g.name}[{i + 1},{j + 1}]")
                    self._weights.append(g.weight)
            off += g.size

    # -- letters -----------------------------------------------------------

    @property
    def nletters(self) -> int:
        return len(self._info)

    def letter(self, set_name: str, i: int, j: int) -> int:
        """Flat index of generator set_name_{ij} (0-based i, j)."""
        g = self._by_name[set_name]
        if not (0 <= i < g.rows and 0 <= j < g.cols):
            raise ValueError(f"index ({i},{j}) out of range for {set_name}")
        return self._offsets[set_name] + i * g.cols + j

    def letter_info(self, letter: int) -> tuple[str, int, int]:
        return self._info[letter]

    def letters(self, set_name: str | None = None) -> Iterator[int]:
        if set_name is None:
            yield from range(self.nletters)
        else:
            g = self._by_name[set_name]
            off = self._offsets[set_name]
            yield from range(off, off + g.size)

    # -- words ------------------------------------------------------------

    def word_weight(self, word: Word) -> int:
        return sum(self._weights[l] for l in word)

    def word_label(self, word: Word) -> str:
        return "*".join(self._labels[l] for l in word) if word else "1"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeAlgebra) and self.gen_sets == other.gen_sets

    def __hash__(self):
        return hash(self.gen_sets)

    def __repr__(self) -> str:
        parts = ", ".join(f"{g.name}:{g.rows}x{g.cols}" for g in self.gen_sets)
        return f"FreeAlgebra({parts})"


def matrix_entry_algebra(sym: str, rows: int, cols: int, weight: int = 0) -> FreeAlgebra:
    """Free algebra on a single rows x cols family, e.g. A(m, n) on x_ij."""
    return FreeAlgebra((GeneratorSet(sym, rows, cols, weight),))


def split_word(word: Word, source: FreeAlgebra, left: FreeAlgebra, right: FreeAlgebra,
               inner: int, names: Mapping[str, tuple[str, str]]) -> Iterator[tuple[Word, Word]]:
    """Terms of the matrix comultiplication g_ij -> sum_k g'_ik (x) g''_kj on a word.

    `names[g] = (g', g'')` names the generator sets of `left` and `right` that
    the letters of set g of `source` split into, and k runs over `inner`
    values.  The map is multiplicative, so a word of length r yields one
    (left word, right word) pair per choice of inner indices (k_1, ..., k_r),
    in lexicographic order of that choice.  Every coefficient is 1 and no two
    terms share a pair.  theta and the coproduct of H(F) are this map.
    """
    tables = []
    for letter in word:
        g, i, j = source.letter_info(letter)
        gl, gr = names[g]
        tables.append(tuple((left.letter(gl, i, k), right.letter(gr, k, j))
                            for k in range(inner)))
    for choice in product(*tables):
        yield tuple(a for a, _ in choice), tuple(b for _, b in choice)


# -- the universal embedding θ ----------------------------------------------


_THETA_NAMES = {"x": ("y", "z")}


def theta_images(m: int, n: int, t: int,
                 k: int) -> Iterator[tuple[Word, Iterator[tuple[Word, Word]]]]:
    """(w, terms of θ(w)) for each degree-k word w of A(m,n), in lexicographic order.

    θ : A(m,n) -> A(m,t) (x) A(t,n) is the algebra map x_ij -> sum_k y_ik (x) z_kj;
    the terms are (A(m,t)-word, A(t,n)-word) pairs, each with coefficient 1.  The
    words are generated one at a time; no degree-k basis is built.
    """
    if min(m, n, t) < 1:
        raise ValueError("m, n, t must be positive")
    src = matrix_entry_algebra("x", m, n)
    amt = matrix_entry_algebra("y", m, t)
    atn = matrix_entry_algebra("z", t, n)
    return ((w, split_word(w, src, amt, atn, t, _THETA_NAMES))
            for w in product(range(m * n), repeat=k))


def theta_matrix(m: int, n: int, t: int, k: int) -> list[dict[int, Q]]:
    """θ in degree k as its columns, one per degree-k word of A(m,n) in
    lexicographic order; a column maps each word pair (w_A, w_B) of its image
    to ia * (tn)^k + ib.  A word of A(m,t) sits at the number ia its letters
    spell in radix mt, and one of A(t,n) at ib in radix tn, so no degree-k
    basis is built."""
    ra, rb, nb = m * t, t * n, (t * n) ** k
    one = Q(1)
    columns = []
    for _, pairs in theta_images(m, n, t, k):
        column = {}
        for wl, wr in pairs:
            ia = ib = 0
            for a, b in zip(wl, wr):
                ia, ib = ia * ra + a, ib * rb + b
            column[ia * nb + ib] = one
        columns.append(column)
    return columns


def theta_rank(m: int, n: int, t: int, k: int) -> int:
    """rank θ_k = (mn)^k, read off its proof with nothing built.  θ_11(x^k) holds
    (y11^k, z11^k) with coefficient 1, from the all-zero inner choice of
    split_word, and no two of its terms share a pair: the column is nonzero, of
    rank 1.  The column θ(x_I^J) = e_I (x) θ_11(x^k) (x) e_J spells I and J in
    its digits i_r t + a_r and a_r n + j_r, so the (mn)^k columns are nonzero
    with disjoint supports."""
    if min(m, n, t) < 1 or k < 0:
        raise ValueError("m, n, t must be positive and k nonnegative")
    return (m * n) ** k
