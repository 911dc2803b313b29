"""The universal cosovereign Hopf algebra of an invertible rational matrix.

For an invertible t x t matrix F over Q, given as its t rows of exact
scalars, the Hopf algebra H(F) is presented by generators u_ij, v_ij
(0 <= i, j < t) and the relation families

    u v^T = I,   v^T u = I,   v (F u^T F^-1) = I,   (F u^T F^-1) v = I,

with coproduct Delta(u_ij) = sum_k u_ik (x) u_kj (same for v; on words it
is freealg.split_word, and its legs stay words), counit
eps(u_ij) = eps(v_ij) = delta_ij, and antipode S(u_ij) = v_ji,
S(v_ij) = (F u^T F^-1)_ij; on a u-word S is one word, the reversed v-word
(`HopfCover.antipode_word`).  This module builds that presentation over the
free cover (u carries grading weight +1, v weight -1), the structure maps
on the cover, which take and give {word: coefficient} dicts of the cover's
letters, and a compatibility check.  The relations read F only through
its entries and its inverse, so F stays a tuple of rows: f_inverse is the
one place it is validated, and HopfCover keeps the exact rows as its F.
Structure maps descend to the quotient as soon as they send relations into
the relation ideal, and every such condition lies in I_2, so the check
reads the quotient at RELATION_DEGREE only.  Every membership it needs is
read off TruncatedQuotient.normal_form, the coproduct condition one leg at
a time.
Relation terms and antipode images are exact scalars (exactlin.as_exact):
ints where integral, as every one is for an integer F, so the check
reduces in int arithmetic.

The grading specialization u_ij -> delta_ij z, v_ij -> delta_ij z^-1 into
Laurent polynomials annihilates every relation exactly (checked at build
time); it is the engine behind exact vanishing results for unbalanced
bidegrees downstream, and the counit is its value at z = 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactlin import Subspace, add_to, as_exact
from .freealg import FreeAlgebra, GeneratorSet, Word, split_word
from .fpquot import Presentation, TruncatedQuotient

Q = Fraction

# Every relation of H(F) is quadratic, so a truncated quotient needs d >= this
RELATION_DEGREE = 2

# Laurent polynomial in the grading variable: exponent -> coefficient
LaurentPoly = dict[int, Q]

# Delta(g_ij) = sum_k g_ik (x) g_kj splits each letter into its own set
_DELTA_NAMES = {"u": ("u", "u"), "v": ("v", "v")}


def f_inverse(F) -> tuple[tuple[Q, ...], ...]:
    """F^-1 for F given as t rows of t entries that exactlin.as_exact accepts
    (ints, Fractions, strings like "1/2"; a float is a TypeError), each
    coerced so; empty, ragged, non-square or singular rows are a ValueError."""
    rows = tuple(tuple(map(as_exact, row)) for row in F)
    t = len(rows)
    if t < 1 or any(len(row) != t for row in rows):
        raise ValueError("F must be square and nonempty")
    # the RREF of [F | I] is [I | F^-1] exactly when F is invertible
    res = Subspace.from_vectors(2 * t, [{**dict(enumerate(row)), t + i: 1}
                                        for i, row in enumerate(rows)])
    if res.pivot_cols != tuple(range(t)):
        raise ValueError("F must be invertible")
    return tuple(tuple(row.get(t + c, Q(0)) for c in range(t)) for row in res.basis)


class HopfCover:
    """Free cover of H(F): generators, relations, and structure maps."""

    __slots__ = ("F", "t", "algebra", "presentation", "labeled_relations", "_s_letters",
                 "_s_images")

    def __init__(self, F):
        F = tuple(tuple(map(as_exact, row)) for row in F)
        inverse = f_inverse(F)
        t = len(F)
        alg = FreeAlgebra((GeneratorSet("u", t, t, weight=1),
                           GeneratorSet("v", t, t, weight=-1)))
        u = [[alg.letter("u", i, j) for j in range(t)] for i in range(t)]
        v = [[alg.letter("v", i, j) for j in range(t)] for i in range(t)]
        # (F u^T F^-1)_ij = sum_kl F_ik u_lk F^-1_lj, as sparse word dicts
        fuf = [[{} for _ in range(t)] for _ in range(t)]
        for i in range(t):
            for j in range(t):
                for k in range(t):
                    for l in range(t):
                        add_to(fuf[i][j], (u[l][k],), as_exact(F[i][k] * inverse[l][j]))
        # entry (i, j) of each family is the sum over k of these word dicts
        families = (("u.tv", lambda i, j, k: {(u[i][k], v[j][k]): 1}),
                    ("tv.u", lambda i, j, k: {(v[k][i], u[k][j]): 1}),
                    ("v.FtuFi", lambda i, j, k: {(v[i][k],) + w: c for w, c in fuf[k][j].items()}),
                    ("FtuFi.v", lambda i, j, k: {w + (v[k][j],): c for w, c in fuf[i][k].items()}))
        labeled: list[tuple[str, dict[Word, Q]]] = []
        seen: set = set()
        for fam, entry in families:
            for i in range(t):
                for j in range(t):
                    terms: dict[Word, Q] = {}
                    for k in range(t):
                        for w, c in entry(i, j, k).items():
                            add_to(terms, w, c)
                    if i == j:
                        add_to(terms, (), -1)
                    terms = {w: as_exact(c) for w, c in terms.items()}
                    key = tuple(sorted(terms.items()))
                    if key in seen:
                        continue
                    seen.add(key)
                    labeled.append((f"{fam}[{i + 1},{j + 1}]", terms))
        self.F = F
        self.t = t
        self.algebra = alg
        self.labeled_relations = tuple(labeled)
        self.presentation = Presentation(alg, [r for _, r in labeled])
        # antipode images: S(u_ij) = v_ji, S(v_ij) = (F u^T F^-1)_ij
        self._s_letters = {u[i][j]: v[j][i] for i in range(t) for j in range(t)}
        self._s_images = {a: {(b,): 1} for a, b in self._s_letters.items()}
        self._s_images.update((v[i][j], fuf[i][j]) for i in range(t) for j in range(t))
        for label, rel in labeled:
            if grading_specialize(alg, rel):
                raise AssertionError(
                    f"grading specialization fails to annihilate relation {label}")

    # -- structure maps on the cover, on {word: coefficient} dicts -----------

    def delta_word(self, w: Word):
        """Terms of Delta(w) as (left word, right word) pairs, each with coefficient 1."""
        alg = self.algebra
        return split_word(w, alg, alg, alg, self.t, _DELTA_NAMES)

    def counit(self, x: dict[Word, Q]) -> Q:
        """eps(x): the grading specialization of x evaluated at z = 1."""
        return sum(grading_specialize(self.algebra, x).values(), 0)

    def antipode(self, x: dict[Word, Q]) -> dict[Word, Q]:
        """Anti-homomorphic extension of the antipode letter images: S(c w) is
        c times the product of S(letter) over w read right to left."""
        acc: dict[Word, Q] = {}
        for w, c in x.items():
            prod = {(): c}
            for letter in reversed(w):
                step: dict[Word, Q] = {}
                for pw, pc in prod.items():
                    for iw, ic in self._s_images[letter].items():
                        add_to(step, pw + iw, pc * ic)
                prod = step
            for pw, pc in prod.items():
                add_to(acc, pw, pc)
        return acc

    def antipode_word(self, w: Word) -> Word:
        """S(w) for a u-word w: the reversed v-word, since S(u_ij) = v_ji.

        S(v_ij) is a sum of u-letters, not a word, so a v-letter is an error.
        """
        try:
            return tuple(self._s_letters[letter] for letter in reversed(w))
        except KeyError:
            raise ValueError("antipode_word takes words of u-letters only") from None

    def quotient(self, d: int) -> TruncatedQuotient:
        """The truncated quotient of the relation ideal at degree d; one per cover and d."""
        return self.presentation.quotient(d)

    def __repr__(self) -> str:
        label = ",".join("[" + ",".join(map(str, row)) + "]" for row in self.F)
        return f"HopfCover(t={self.t}, F=[{label}])"


def build_hf(F) -> HopfCover:
    """Construct the presented cosovereign Hopf cover of F, given as its rows."""
    return HopfCover(F)


def grading_specialize(algebra: FreeAlgebra, x: dict[Word, Q]) -> LaurentPoly:
    """Specialize g_ij -> delta_ij z^w(g) (w = generator-set weight).

    Off-diagonal letters map to zero, diagonal words to a power of z given
    by the word weight.  On a Hopf cover this is an algebra map to Laurent
    polynomials because every relation specializes to zero (enforced at
    cover construction).  x is an element of `algebra`.
    """
    out: LaurentPoly = {}
    for w, c in x.items():
        if any(info[1] != info[2] for info in map(algebra.letter_info, w)):
            continue
        add_to(out, algebra.word_weight(w), c)
    return out


class HopfCompatReport(NamedTuple):
    """Outcome of the Hopf-structure compatibility checks, certified in I_2."""

    coassoc_ok: bool
    counit_laws_ok: bool
    counit_kills_relations: bool
    relation_antipode: tuple[bool, ...]
    relation_coproduct: tuple[bool, ...]
    antipode_axiom: tuple[bool, ...]

    @property
    def status(self) -> str:
        if not (self.coassoc_ok and self.counit_laws_ok and self.counit_kills_relations):
            return "mismatch"
        pending = list(self.relation_antipode) + list(self.relation_coproduct) \
            + list(self.antipode_axiom)
        if all(pending):
            return "certified"
        return "inconclusive"

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def check_hopf_compat(h: HopfCover) -> HopfCompatReport:
    """Certify that the Hopf structure maps descend to the quotient.

    Exact checks on the cover: coassociativity and the counit laws on the
    generators, and eps(relation) = 0.  Checks certified in I_2, the ideal
    truncated at RELATION_DEGREE: S(relation) and both antipode-axiom
    generator identities lie in the ideal, and (NF (x) NF)(Delta(relation))
    vanishes, i.e. Delta(relation) lies in I (x) cover + cover (x) I.  That
    tensor is reduced one leg at a time: grouped by left word, Delta(r) =
    sum_a a (x) x_a, and sum_a a (x) NF(x_a) = sum_b y_b (x) b over quotient
    basis words b, so it vanishes iff every NF(y_b) does.

    All of these are degree-2 identities among the relations, so I_2
    settles them, and a membership proven in I_2 holds in every I_d with
    d >= 2, so no larger truncation is read.  S maps each relation family
    onto another: S(u v^T - I) = (F u^T F^-1 v - I)^T and
    S(F u^T F^-1 v - I) = F (u v^T - I)^T F^-1, likewise for the other two.
    Each term of Delta(relation) has a relation in one leg.  The antipode
    axiom on a generator is a relation: sum_k S(u_ik) u_kj = (v^T u)_ij.
    """
    alg = h.algebra
    q = h.quotient(RELATION_DEGREE)

    coassoc_ok = True
    counit_ok = True
    for letter in alg.letters():
        g_word = (letter,)
        dg = list(h.delta_word(g_word))
        lhs: dict[tuple[Word, Word, Word], Q] = {}
        rhs: dict[tuple[Word, Word, Word], Q] = {}
        for w1, w2 in dg:
            for a, b in h.delta_word(w1):
                add_to(lhs, (a, b, w2), 1)
            for a, b in h.delta_word(w2):
                add_to(rhs, (w1, a, b), 1)
        if lhs != rhs:
            coassoc_ok = False
        left_law: dict[Word, Q] = {}
        right_law: dict[Word, Q] = {}
        for w1, w2 in dg:
            add_to(left_law, w2, h.counit({w1: 1}))
            add_to(right_law, w1, h.counit({w2: 1}))
        expect = {g_word: 1}
        if left_law != expect or right_law != expect:
            counit_ok = False

    counit_kills = all(h.counit(r) == 0 for _, r in h.labeled_relations)

    rel_antipode = tuple(q.is_zero_mod(h.antipode(r)) for _, r in h.labeled_relations)

    rel_coprod = []
    for _, r in h.labeled_relations:
        # Delta(r) = sum_a a (x) x_a; reduce the right legs, then the left ones
        by_left: dict[Word, dict[Word, Q]] = {}
        for w, c in r.items():
            for a, b in h.delta_word(w):
                add_to(by_left.setdefault(a, {}), b, c)
        by_right: dict[Word, dict[Word, Q]] = {}
        for a, x_a in by_left.items():
            for b, c in q.normal_form(x_a).items():
                add_to(by_right.setdefault(b, {}), a, c)
        rel_coprod.append(all(q.is_zero_mod(y_b) for y_b in by_right.values()))

    axiom = []
    for letter in alg.letters():
        # sum_k S(g_ik) g_kj - eps(g_ij) and sum_k g_ik S(g_kj) - eps(g_ij)
        left: dict[Word, Q] = {}
        right: dict[Word, Q] = {}
        unit = h.counit({(letter,): 1})
        add_to(left, (), -unit)
        add_to(right, (), -unit)
        for a, b in h.delta_word((letter,)):
            for w, c in h.antipode({a: 1}).items():
                add_to(left, w + b, c)
            for w, c in h.antipode({b: 1}).items():
                add_to(right, a + w, c)
        axiom.append(q.is_zero_mod(left))
        axiom.append(q.is_zero_mod(right))

    return HopfCompatReport(
        coassoc_ok=coassoc_ok,
        counit_laws_ok=counit_ok,
        counit_kills_relations=counit_kills,
        relation_antipode=rel_antipode,
        relation_coproduct=tuple(rel_coprod),
        antipode_axiom=tuple(axiom),
    )
