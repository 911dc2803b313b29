"""Degree-truncated quotients of finitely presented free algebras.

For a presentation (free algebra, finite relation list) and a truncation
degree d, the span of all products a*r*b of total degree <= d is a
subspace I_d of the span of words of degree <= d.  Relations, like every
element here, are {word: coefficient} dicts.  Coefficients are exact
scalars (exactlin.as_exact): an int where integral, a Fraction elsewhere.
A relation is stored so, and so are its rule tails and its memoised normal
forms, so an integer presentation reduces in int arithmetic; a rule with a
non-unit lead keeps its Fractions.  Everything here is a
certified *under*-approximation of the true ideal: membership answers are
one-sided bools (True, a zero normal form, is a proof; False is silence).

Implementation notes
--------------------
* Words are ordered degree-descending then lexicographic, so normal forms
  rewrite toward low-degree representatives; the quotient basis is
  canonical (the words that are not leading words of I_d).
* Homogenisation by a central letter h of degree 1 sends a word w of degree
  <= d to w h^(d - |w|) and a relation r to r^h, each word padded to the
  degree of r.  The products a r^h b h^j of degree exactly d span the
  degree-d part J_d of the homogenised ideal, and dropping h maps J_d onto
  I_d one to one.  Ordering h below every letter keeps the word order above,
  so I_d and J_d have the same leading words and the same normal forms.
* J is completed to a noncommutative Groebner basis (Bergman's diamond
  lemma, Buchberger's algorithm) one virtual degree at a time up to d;
  since J is homogeneous, the rules of degree <= d decide J_d exactly.  A
  rule is a lead word L of virtual degree e with a monic tail, and it
  rewrites a word W of a truncation-d query only when L occurs in W and
  e - |L| <= d - |W| (the h power of the lead fits into that of W).
* Every rule is an exact combination of products a*r*b, so a zero normal
  form is a membership proof.  Completion pops its items in (virtual degree,
  sequence) order, so the rules of a completion to d are exactly the rules
  of virtual degree <= d of any larger one, and a query at d uses no other
  rule.  Each presentation therefore keeps one resumable completion,
  extended on demand, and one quotient per d that reads it.  Reduction
  touches only the words a query reaches; normal forms of queried words are
  memoised per quotient.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .exactlin import Subspace, add_to, as_exact, solve_homogeneous
from .freealg import FreeAlgebra, Word

Q = Fraction


class Presentation:
    """A free algebra together with a finite list of nonzero relations, each a
    {word: coefficient} dict, the one resumable completion of its relations
    and its truncated quotients.  A coefficient is anything Fraction reads
    except a float; it is stored exact, and zero coefficients are dropped
    before the completion sees the relation."""

    __slots__ = ("algebra", "relations", "completion", "_quotients")

    def __init__(self, algebra: FreeAlgebra, relations):
        clean = []
        for r in relations:
            terms = {}
            for w, c in r.items():
                c = as_exact(c)
                if c:
                    terms[w] = c
            if not terms:
                raise ValueError("zero relations are not allowed")
            if not all(0 <= letter < algebra.nletters for w in terms for letter in w):
                raise ValueError("relation words must be words of the presented algebra")
            clean.append(terms)
        self.algebra = algebra
        self.relations = tuple(clean)
        self.completion = Completion(clean)
        self._quotients: dict[int, TruncatedQuotient] = {}

    @property
    def max_relation_degree(self) -> int:
        return max((len(w) for r in self.relations for w in r), default=0)

    @property
    def is_weight_graded(self) -> bool:
        """True iff every relation is homogeneous for the generator weights."""
        weight = self.algebra.word_weight
        return all(len({weight(w) for w in r}) == 1 for r in self.relations)

    def quotient(self, d: int) -> "TruncatedQuotient":
        """The truncated quotient at degree d; one per presentation and d."""
        q = self._quotients.get(d)
        if q is None:
            q = self._quotients[d] = TruncatedQuotient(self, d)
        return q

    def __repr__(self) -> str:
        return f"Presentation({self.algebra!r}, {len(self.relations)} relations)"


class TruncatedQuotient:
    """Quotient of the degree-<= d span by the truncated relation ideal."""

    def __init__(self, presentation: Presentation, d: int):
        if d < 0:
            raise ValueError("truncation degree must be nonnegative")
        if presentation.relations and d < presentation.max_relation_degree:
            raise ValueError(
                f"truncation degree {d} below maximal relation degree "
                f"{presentation.max_relation_degree}")
        self.presentation = presentation
        self.d = d
        self._nf_cache: dict[Word, dict[Word, Q]] = {}

    def _completion(self) -> "Completion":
        """The presentation's completion, extended to virtual degree d."""
        completion = self.presentation.completion
        completion.extend(self.d)
        return completion

    # -- public queries ------------------------------------------------------

    def normal_form(self, x: dict[Word, Q]) -> dict[Word, Q]:
        """Canonical representative of the element x, a {word: coefficient}
        dict, mod the truncated ideal, as a sparse coordinate vector over the
        quotient basis (word -> coefficient).  A word longer than d raises."""
        out: dict[Word, Q] = {}
        for w, c in x.items():
            for ww, cc in self.normal_form_word(w).items():
                add_to(out, ww, c * cc)
        return out

    def normal_form_word(self, w: Word) -> dict[Word, Q]:
        """Normal form of a single word (cached)."""
        got = self._nf_cache.get(w)
        if got is None:
            if len(w) > self.d:
                raise ValueError(f"degree {len(w)} exceeds truncation {self.d}")
            comp = self._completion()
            got = _reduce(comp.rules, comp.lengths, {w: 1}, self.d, self._nf_cache)
            got = self._nf_cache[w] = {u: as_exact(c) for u, c in got.items()}
        return got

    def is_zero_mod(self, x: dict[Word, Q]) -> bool:
        """True iff the normal form of x is zero: a proof that x lies in I_d.
        False proves nothing."""
        return not self.normal_form(x)

    def __repr__(self) -> str:
        return f"TruncatedQuotient(d={self.d}, {self.presentation!r})"


# -- rewriting ----------------------------------------------------------------
#
# A homogeneous element of virtual degree e is a dict word -> coefficient in
# which word w stands for w h^(e - |w|).  A rule is keyed by its lead word L
# and holds (drop, replacement): L h^drop minus the replacement lies in the
# homogenised ideal, every replacement word is smaller than L, and the rule
# has virtual degree |L| + drop.


def _order(w: Word) -> tuple[int, Word]:
    """Heap key: the smallest key is the leading word (longest, then lex first)."""
    return (-len(w), w)


def _lead_lengths(rules) -> tuple[int, ...]:
    return tuple(sorted({len(lead) for lead in rules}))


def _match(rules, lengths, w: Word, slack: int):
    """(prefix, replacement, suffix) of a rule that rewrites w when w carries
    h^slack, i.e. its lead occurs in w and drop <= slack; else None."""
    for n in lengths:
        for i in range(len(w) - n + 1):
            rule = rules.get(w[i:i + n])
            if rule is not None and rule[0] <= slack:
                return w[:i], rule[1], w[i + n:]
    return None


def _reduce(rules, lengths, vec: dict[Word, Q], deg: int, memo=None) -> dict[Word, Q]:
    """Rewrite the largest word until none can be rewritten; `lengths` are the
    rules' lead lengths, and words found in memo (normal forms at the same
    virtual degree) are substituted whole."""
    vec = dict(vec)
    heap = [_order(w) for w in vec]
    heapify(heap)
    out: dict[Word, Q] = {}
    while heap:
        w = heappop(heap)[1]
        c = vec.pop(w, None)
        if c is None:
            continue
        known = memo.get(w) if memo is not None else None
        if known is not None:
            for u, cu in known.items():
                add_to(out, u, c * cu)
            continue
        hit = _match(rules, lengths, w, deg - len(w))
        if hit is None:
            add_to(out, w, c)
            continue
        a, repl, b = hit
        for u, cu in repl.items():
            x = a + u + b
            if x not in vec:
                heappush(heap, _order(x))
            add_to(vec, x, c * cu)
    return out


def _ambiguities(lead: Word, other: Word):
    """(word, a1, b1, a2, b2) with word = a1 lead b1 = a2 other b2, for every
    overlap and inclusion of two lead words; a lead paired with itself yields
    its self-overlaps once."""
    n1, n2 = len(lead), len(other)
    for k in range(1, min(n1, n2)):
        if lead[n1 - k:] == other[:k]:
            yield lead + other[k:], (), other[k:], lead[:n1 - k], ()
        if other != lead and other[n2 - k:] == lead[:k]:
            yield other + lead[k:], other[:n2 - k], (), (), lead[k:]
    if other == lead:
        return
    for p in range(n1 - n2 + 1):
        if lead[p:p + n2] == other:
            yield lead, (), (), lead[:p], lead[p + n2:]
    for p in range(n2 - n1 + 1):
        if other[p:p + n1] == lead:
            yield other, other[:p], other[p + n1:], (), ()


class Completion:
    """Buchberger completion of the homogenised relations, resumable.

    Items wait in a heap keyed by (virtual degree, sequence): each relation
    at its own degree, and each ambiguity of two leads at the larger of their
    drops plus the length of its word.  An item (x, a1, b1, y, a2, b2)
    stands for a1 x b1 - a2 y b2: a relation r is (r, (), (), {}, (), ()),
    and an ambiguity holds its two rules' replacements, so its S-polynomial
    is built only when it is popped.  extend(d) pops every item of degree
    <= d, and an item that does not reduce to zero becomes a monic rule.  A
    new rule's ambiguities are never below its own degree, so pops run in
    nondecreasing degree, and extending step by step leaves the rules (and
    their order) of a completion straight to d.
    """

    __slots__ = ("rules", "lengths", "_queue", "_seq")

    def __init__(self, relations):
        self.rules: dict[Word, tuple[int, dict[Word, Q]]] = {}
        self.lengths: tuple[int, ...] = ()
        self._queue = [(max(map(len, r)), i, r, (), (), {}, (), ())
                       for i, r in enumerate(relations)]
        heapify(self._queue)
        self._seq = len(self._queue)

    def extend(self, d: int) -> None:
        """Complete up to virtual degree d (rules of degree <= d are final)."""
        queue, rules = self._queue, self.rules
        while queue and queue[0][0] <= d:
            deg, _, x, a1, b1, y, a2, b2 = heappop(queue)
            vec: dict[Word, Q] = {}
            for u, c in x.items():
                add_to(vec, a1 + u + b1, c)
            for u, c in y.items():
                add_to(vec, a2 + u + b2, -c)
            nf = _reduce(rules, self.lengths, vec, deg)
            if not nf:
                continue
            lead = min(nf, key=_order)
            inv = Q(-1) / nf.pop(lead)
            rule = (deg - len(lead), {u: as_exact(c * inv) for u, c in nf.items()})
            rules[lead] = rule
            if len(lead) not in self.lengths:
                self.lengths = _lead_lengths(rules)
            for other, (drop, repl) in rules.items():
                top = max(rule[0], drop)
                for word, a1, b1, a2, b2 in _ambiguities(lead, other):
                    heappush(queue, (top + len(word), self._seq,
                                     rule[1], a1, b1, repl, a2, b2))
                    self._seq += 1


def certified_kernel(q: TruncatedQuotient, nunknowns: int, constraints) -> Subspace:
    """Common solver for linear conditions modulo the truncated ideal.

    Each constraint is an iterable of (unknown index u, word w, sign s)
    triples and encodes the condition `sum s * lambda_u * w  is certified
    zero mod q`, where s > 0 reads +1 and any other s reads -1; one unknown
    may appear with several words.  The returned subspace of Q^nunknowns is
    the exact solution set of the certified conditions, hence a sound
    subspace of the true solution set.  Every coaction entry of a comodule
    built from I, U and U* is one H-word with coefficient 1, so coinvariant
    and comodule-morphism constraints are all of this form.
    """
    rows: dict[tuple[int, Word], dict[int, Q]] = {}
    for cid, terms in enumerate(constraints):
        for u_idx, word, sign in terms:
            for w, c in q.normal_form_word(word).items():
                add_to(rows.setdefault((cid, w), {}), u_idx, c if sign > 0 else -c)
    return solve_homogeneous(rows.values(), nunknowns)
