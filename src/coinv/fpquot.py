"""Degree-truncated quotients of finitely presented free algebras.

For a presentation (free algebra, finite relation list) and a truncation
degree d, the span of all products a*r*b of total degree <= d is a
subspace I_d of the span of words of degree <= d.  Everything here is a
certified *under*-approximation of the true ideal: membership answers are
one-sided (CERTIFIED_ZERO is a proof, NOT_CERTIFIED is silence).

Implementation notes
--------------------
* Words are ordered degree-descending then lexicographic, so elimination
  pivots sit on high-degree words and normal forms rewrite toward
  low-degree representatives; the quotient basis is canonical (the set of
  non-pivot words does not depend on elimination order).
* When every relation is homogeneous for the generator-set weights, I_d
  splits as a direct sum over the word weight; blocks have disjoint word
  support and are eliminated lazily and independently.  This is invisible
  in the API and is what keeps large truncations affordable.
* Blocks are eliminated by exactlin's one fraction-free eliminator: each
  relation multiple a*r*b is a gcd-normalized integer row inserted into the
  block's triangular basis, and normal-form queries reduce rational vectors
  against those integer pivot rows.
* Quotients are cached in-process by (presentation fingerprint, d); set
  COINV_CACHE_DIR to also persist eliminated blocks across runs.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import tempfile
import threading
from enum import Enum
from fractions import Fraction

from .exactlin import (IntRow, Subspace, _back_substitute, _insert, _integer_row,
                       _normalize_content, _reduce, add_to, solve_homogeneous)
from .freealg import FreeAlgebra, FreeElement, Word

Q = Fraction

CACHE_DIR_ENV = "COINV_CACHE_DIR"


class CertStatus(Enum):
    """One-sided certification outcome of a membership test."""

    CERTIFIED_ZERO = "certified_zero"
    NOT_CERTIFIED = "not_certified"

    def __bool__(self) -> bool:
        return self is CertStatus.CERTIFIED_ZERO


class Presentation:
    """A free algebra together with a finite list of nonzero relations."""

    __slots__ = ("algebra", "relations", "_fingerprint")

    def __init__(self, algebra: FreeAlgebra, relations):
        relations = tuple(relations)
        for r in relations:
            if not isinstance(r, FreeElement) or r.algebra != algebra:
                raise ValueError("relations must be elements of the presented algebra")
            if r.is_zero:
                raise ValueError("zero relations are not allowed")
        self.algebra = algebra
        self.relations = relations
        self._fingerprint: str | None = None

    @property
    def max_relation_degree(self) -> int:
        return max((r.degree() for r in self.relations), default=0)

    @property
    def is_weight_graded(self) -> bool:
        """True iff every relation is homogeneous for the generator weights."""
        return all(r.weight() is not None for r in self.relations)

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the presentation (used as cache key)."""
        if self._fingerprint is None:
            payload = {
                "gens": [[g.name, g.rows, g.cols, g.weight] for g in self.algebra.gen_sets],
                "rels": sorted(
                    sorted([list(w), str(c)] for w, c in r.terms.items())
                    for r in self.relations
                ),
            }
            blob = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
            self._fingerprint = hashlib.sha256(blob).hexdigest()
        return self._fingerprint

    def __eq__(self, other) -> bool:
        return (isinstance(other, Presentation)
                and self.algebra == other.algebra
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.algebra, self.relations))

    def __repr__(self) -> str:
        return f"Presentation({self.algebra!r}, {len(self.relations)} relations)"


class _Block:
    """Eliminated weight block: its word list and integer pivot rows."""

    __slots__ = ("words", "index", "pivots")

    def __init__(self, words: tuple[Word, ...], pivots: dict[int, IntRow]):
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.pivots = pivots


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
        self._graded = presentation.is_weight_graded
        self._scaled = [(list(_integer_row(r.terms).items()), r.weight(), r.degree())
                        for r in presentation.relations]
        self._blocks: dict[int | None, _Block] = {}
        self._dw: dict[int, dict[int, tuple[Word, ...]]] = {}
        self._nf_cache: dict[Word, dict[Word, Q]] = {}
        self._lock = threading.RLock()

    # -- word bookkeeping ------------------------------------------------

    def _words_by_weight(self, k: int) -> dict[int, tuple[Word, ...]]:
        """Degree-k words grouped by weight (single group 0 if ungraded)."""
        got = self._dw.get(k)
        if got is not None:
            return got
        alg = self.presentation.algebra
        if k == 0:
            out = {0: ((),)}
        else:
            prev = self._words_by_weight(k - 1)
            acc: dict[int, list[Word]] = {}
            for letter in range(alg.nletters):
                wt = alg.letter_weight(letter) if self._graded else 0
                for z, ws in prev.items():
                    acc.setdefault(z + wt, []).extend((letter,) + w for w in ws)
            out = {z: tuple(ws) for z, ws in acc.items()}
        self._dw[k] = out
        return out

    def block_keys(self) -> tuple[int, ...]:
        keys: set[int] = set()
        for k in range(self.d + 1):
            keys.update(self._words_by_weight(k))
        return tuple(sorted(keys))

    def _key_of_word(self, w: Word) -> int:
        return self.presentation.algebra.word_weight(w) if self._graded else 0

    def _block_words(self, z: int) -> tuple[Word, ...]:
        ws: list[Word] = []
        for k in range(self.d, -1, -1):
            ws.extend(self._words_by_weight(k).get(z, ()))
        # within each degree the generator recursion yields lex order already
        return tuple(ws)

    # -- elimination -------------------------------------------------------

    def _build_block(self, z: int) -> _Block:
        blk = _Block(self._block_words(z), {})
        index = blk.index
        d = self.d
        seen: set[tuple[tuple[int, int], ...]] = set()
        rows: list[IntRow] = []
        for terms, wr, gr in self._scaled:
            rz = (wr if self._graded else 0)
            for da in range(0, d - gr + 1):
                left = self._words_by_weight(da)
                for db in range(0, d - gr - da + 1):
                    right = self._words_by_weight(db)
                    for za, aws in left.items():
                        bws = right.get(z - rz - za)
                        if not bws:
                            continue
                        for a in aws:
                            for b in bws:
                                # distinct words w give distinct columns a+w+b
                                row = {index[a + w + b]: c for w, c in terms}
                                _normalize_content(row)
                                key = tuple(sorted(row.items()))
                                if key in seen:
                                    continue
                                seen.add(key)
                                rows.append(row)
        rows.sort(key=lambda r: (min(r), len(r)))
        for row in rows:
            _insert(blk.pivots, row)
        return blk

    def _block(self, z: int) -> _Block:
        with self._lock:
            blk = self._blocks.get(z)
            if blk is not None:
                return blk
            blk = _load_block_cache(self, z)
            if blk is None:
                blk = self._build_block(z)
                _save_block_cache(self, z, blk)
            self._blocks[z] = blk
            return blk

    # -- public queries ------------------------------------------------------

    def normal_form(self, x: FreeElement) -> dict[Word, Q]:
        """Canonical representative of x mod the truncated ideal, as a sparse
        coordinate vector over the quotient basis (word -> coefficient)."""
        if x.algebra != self.presentation.algebra:
            raise ValueError("element not in the presented algebra")
        if x.degree() > self.d:
            raise ValueError(f"degree {x.degree()} exceeds truncation {self.d}")
        out: dict[Word, Q] = {}
        for w, c in x.terms.items():
            for ww, cc in self.normal_form_word(w).items():
                add_to(out, ww, c * cc)
        return out

    def normal_form_word(self, w: Word) -> dict[Word, Q]:
        """Normal form of a single word (cached)."""
        got = self._nf_cache.get(w)
        if got is None:
            if len(w) > self.d:
                raise ValueError(f"degree {len(w)} exceeds truncation {self.d}")
            blk = self._block(self._key_of_word(w))
            vec = _reduce(blk.pivots, {blk.index[w]: Q(1)})
            got = {blk.words[c]: v for c, v in vec.items()}
            self._nf_cache[w] = got
        return got

    def is_zero_mod(self, x: FreeElement) -> CertStatus:
        """CERTIFIED_ZERO iff x provably lies in the truncated ideal."""
        return CertStatus.CERTIFIED_ZERO if not self.normal_form(x) else CertStatus.NOT_CERTIFIED

    def quotient_basis(self) -> tuple[Word, ...]:
        """Non-pivot words (degree-ascending, then lex): a basis of the quotient."""
        out: list[Word] = []
        for z in self.block_keys():
            blk = self._block(z)
            piv = blk.pivots
            out.extend(w for i, w in enumerate(blk.words) if i not in piv)
        out.sort(key=lambda w: (len(w), w))
        return tuple(out)

    def word_order(self) -> tuple[Word, ...]:
        """All words of degree <= d in reduction order (degree desc, then lex);
        this is the column convention of ideal_span()."""
        ws: list[Word] = []
        for k in range(self.d, -1, -1):
            ws.extend(self.presentation.algebra.degree_basis(k))
        return tuple(ws)

    def ideal_dim(self) -> int:
        return sum(len(self._block(z).pivots) for z in self.block_keys())

    def quotient_dim(self) -> int:
        total = sum(len(self._words_by_weight(k)[z])
                    for k in range(self.d + 1) for z in self._words_by_weight(k))
        return total - self.ideal_dim()

    def ideal_span(self) -> Subspace:
        """The truncated ideal as a canonical subspace over word_order columns."""
        order = {w: i for i, w in enumerate(self.word_order())}
        reduced_global: dict[int, dict[int, Q]] = {}
        for z in self.block_keys():
            blk = self._block(z)
            for lead, row in _back_substitute(blk.pivots).items():
                reduced_global[order[blk.words[lead]]] = {
                    order[blk.words[c]]: v for c, v in row.items()}
        return Subspace(len(order), reduced_global)

    def __repr__(self) -> str:
        return f"TruncatedQuotient(d={self.d}, {self.presentation!r})"


# -- caches -------------------------------------------------------------------

_QUOTIENTS: dict[tuple[str, int], TruncatedQuotient] = {}
_QUOTIENTS_LOCK = threading.Lock()


def truncated_quotient(presentation: Presentation, d: int) -> TruncatedQuotient:
    """Shared, cached quotient for (presentation, d)."""
    key = (presentation.fingerprint, d)
    with _QUOTIENTS_LOCK:
        q = _QUOTIENTS.get(key)
        if q is None:
            q = TruncatedQuotient(presentation, d)
            _QUOTIENTS[key] = q
        return q


def _cache_path(q: TruncatedQuotient, z: int) -> str | None:
    root = os.environ.get(CACHE_DIR_ENV)
    if not root:
        return None
    name = f"{q.presentation.fingerprint[:24]}_d{q.d}_w{z}.json.gz"
    return os.path.join(root, name)


def _load_block_cache(q: TruncatedQuotient, z: int) -> _Block | None:
    path = _cache_path(q, z)
    if not path or not os.path.exists(path):
        return None
    try:
        with gzip.open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw)
        header = (data["schema"], data["nwords"], data["fingerprint"], data["d"])
        rows = data["pivots"]
        pivots = {row[0][0]: dict(row) for row in rows}
    except (OSError, EOFError, ValueError, KeyError, IndexError, TypeError):
        return None  # unreadable, cut short or misshapen: a miss, so the block is rebuilt
    words = q._block_words(z)
    if header != (1, len(words), q.presentation.fingerprint, q.d) or not _integer_rows(raw, rows):
        return None
    return _Block(words, pivots)


def _integer_rows(raw: bytes, rows) -> bool:
    """True iff every column and coefficient of the parsed pivot rows is a JSON
    integer, checked on the file's bytes at C speed: after the last "pivots" key
    only digits, minus signs, commas, brackets, blanks and the closing brace
    follow, and every bracket opens the list, a row or a [col, coef] pair, so
    none opens a list nested inside a pair."""
    tail = raw[raw.rfind(b'"pivots":') + len(b'"pivots":'):]
    return (not tail.translate(None, b"0123456789-,[] }")
            and tail.count(b"[") == 1 + len(rows) + sum(map(len, rows)))


def _save_block_cache(q: TruncatedQuotient, z: int, blk: _Block) -> None:
    path = _cache_path(q, z)
    if not path:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    payload = {
        "schema": 1,
        "fingerprint": q.presentation.fingerprint,
        "d": q.d,
        "weight": z,
        "nwords": len(blk.words),
        "pivots": [sorted(row.items()) for _, row in sorted(blk.pivots.items())],
    }
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as raw, gzip.open(raw, "wt", encoding="ascii") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def certified_kernel(q: TruncatedQuotient, nunknowns: int, constraints) -> Subspace:
    """Common solver for linear conditions modulo the truncated ideal.

    Each constraint is an iterable of (unknown index, FreeElement) pairs and
    encodes the condition `sum_u c_u * h_u  is certified zero mod q`.  The
    returned subspace of Q^nunknowns is the exact solution set of the
    certified conditions, hence a sound subspace of the true solution set
    (both coinvariant equations and comodule-morphism equations take this
    shape).
    """
    rows: dict[tuple[int, Word], dict[int, Q]] = {}
    for cid, terms in enumerate(constraints):
        for u_idx, elem in terms:
            for w, c in q.normal_form(elem).items():
                add_to(rows.setdefault((cid, w), {}), u_idx, c)
    return solve_homogeneous(rows.values(), nunknowns)
