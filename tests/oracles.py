"""Reference definitions the tests compare coinv against; nothing in the
package imports them.

Each oracle states a definition directly, at a cost the program avoids:

* rational polynomials (`Poly`) and their arithmetic, theta* applied
  variable by variable, and the t^2 gl_t derivations (`DerivationAction`);
* the classical theorems' RREF subspaces, which coinv.classical reduces to
  ranks, containments and a count: `glt_invariants` (the joint kernel of the
  off-diagonal derivations on the `weight_zero` monomials, where
  coinv.classical counts the invariants by Weyl's character formula, a
  theorem this oracle does not use), `theta_star_image`, `theta_star_kernel`
  and `minors_component`;
* the basis of a truncated quotient, read word by word (`quotient_basis`);
* the rank of the word morphisms psi(w), eliminated (`psi_rank`);
* the words of one degree (`degree_basis`), which the program never lists;
* the product of two tensor elements (`pair_product`);
* the coaction alpha = rho' (x) lambda on every bidegree of A(m,t) (x)
  A(t,n), walked word pair by word pair with freealg.split_word
  (`CoactionContext`), and its coinvariants at a bidegree (`coinvariants`),
  where the program solves only the (1,1,t) block at (1,1), as
  Hom(I, U* (x) U);
* the comodule axioms and the coinvariance of one element, checked without
  a solve (`coinvariance_residual`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from coinv.catalg import psi
from coinv.classical import minor_polys, monomials, theta_star_degree
from coinv import comod
from coinv.comod import ComoduleSpace
from coinv.exactlin import Subspace, add_to, rank, solve_homogeneous
from coinv.fpquot import TruncatedQuotient, _match
from coinv.freealg import FreeAlgebra, PairKey, Word, matrix_entry_algebra, split_word
from coinv.hopf import HopfCover

Q = Fraction

Mono = tuple[int, ...]
Poly = dict[Mono, Q]


# -- rational polynomials -----------------------------------------------------------


def padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        add_to(out, m, c)
    return out


def pscale(a: Poly, c) -> Poly:
    c = Q(c)
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            add_to(out, tuple(e1 + e2 for e1, e2 in zip(m1, m2)), c1 * c2)
    return out


def var(nvars: int, v: int) -> Poly:
    """Variable v of a ring of nvars variables."""
    return {tuple(int(w == v) for w in range(nvars)): Q(1)}


def one(nvars: int) -> Poly:
    return {(0,) * nvars: Q(1)}


def y_var(t: int, i: int, s: int) -> int:
    """The index of Y_is among the variables of Q[Y,Z], which start with Y row by row."""
    return i * t + s


def z_var(m: int, n: int, t: int, s: int, j: int) -> int:
    """The index of Z_sj among the m*t + t*n variables of Q[Y,Z], after the m*t of Y."""
    return m * t + s * n + j


def monomial_position(mono: Mono) -> int:
    """Index of a monomial in `classical.monomials`, counted without
    enumerating: the exponent vectors of its degree that agree with it before
    some entry e and are smaller there leave a degree in (rest - e, rest] to
    the `left` later variables."""
    pos, rest, left = 0, sum(mono), len(mono)
    for e in mono[:-1]:
        left -= 1
        if e:
            pos += comb(rest + left, left) - comb(rest - e + left, left)
            rest -= e
    return pos


def to_vector(p: Poly, k: int) -> dict[int, Q]:
    """Coordinates of a degree-k homogeneous polynomial over the degree-k monomials."""
    vec = {}
    for mono, c in p.items():
        if sum(mono) != k:
            raise ValueError("polynomial is not homogeneous of the requested degree")
        vec[monomial_position(mono)] = c
    return vec


# -- theta* and the gl_t action --------------------------------------------------------


def theta_star_images(m: int, n: int, t: int) -> dict[int, Poly]:
    """The generator images X_ij -> sum_k Y_ik Z_kj, keyed by the index i*n + j of X_ij."""
    nvars = m * t + t * n
    images = {}
    for i in range(m):
        for j in range(n):
            img: Poly = {}
            for k in range(t):
                img = padd(img, pmul(var(nvars, y_var(t, i, k)), var(nvars, z_var(m, n, t, k, j))))
            images[i * n + j] = img
    return images


def theta_star_apply(mono: Mono, images: dict[int, Poly], nvars: int) -> Poly:
    """theta* of an X-monomial, a product of generator images in Q[Y,Z] of nvars variables."""
    out = one(nvars)
    for v, e in enumerate(mono):
        for _ in range(e):
            out = pmul(out, images[v])
    return out


class DerivationAction:
    """The t^2 polarization derivations of the gl_t action on Q[Y, Z]."""

    def __init__(self, m: int, n: int, t: int):
        if min(m, n, t) < 1:
            raise ValueError("m, n, t must be positive")
        self.m, self.n, self.t = m, n, t
        self.nvars = m * t + t * n
        # var_images[(a, b)][v] = E_ab(variable v), stored sparse
        self.var_images: dict[tuple[int, int], dict[int, Poly]] = {}
        for a in range(t):
            for b in range(t):
                imgs: dict[int, Poly] = {}
                for i in range(m):
                    # E_ab(Y_ic) = -delta_bc Y_ia
                    imgs[y_var(t, i, b)] = pscale(var(self.nvars, y_var(t, i, a)), -1)
                for j in range(n):
                    # E_ab(Z_cj) = delta_ac Z_bj
                    imgs[z_var(m, n, t, a, j)] = var(self.nvars, z_var(m, n, t, b, j))
                self.var_images[(a, b)] = imgs

    def weight(self, mono: Mono) -> list[int]:
        """E_aa(mono) = weight[a] * mono: deg of Z row a minus deg of Y column a."""
        t, n, ydeg = self.t, self.n, self.m * self.t
        return [sum(mono[ydeg + a * n:ydeg + (a + 1) * n]) - sum(mono[a:ydeg:t])
                for a in range(t)]

    def apply(self, a: int, b: int, p: Poly) -> Poly:
        """E_ab extended to polynomials by the Leibniz rule."""
        imgs = self.var_images[(a, b)]
        out: Poly = {}
        for mono, c in p.items():
            for v, e in enumerate(mono):
                if e and v in imgs:
                    lowered = list(mono)
                    lowered[v] -= 1
                    for img_mono, img_c in imgs[v].items():
                        add_to(out, tuple(x + y for x, y in zip(lowered, img_mono)), c * e * img_c)
        return out


# -- the classical theorems as subspaces ----------------------------------------------


def weight_zero(m: int, n: int, t: int, k: int) -> tuple[Mono, ...]:
    """The weight-zero monomials of Q[Y,Z] in total degree 2k, ascending: a
    degree-k Y-monomial times, for every row a of Z, a monomial of Z row a of
    the degree of Y column a."""
    monos = []
    for y in monomials(m * t, k):
        rows = [monomials(n, sum(y[a::t])) for a in range(t)]
        monos += [y + sum(z, ()) for z in product(*rows)]
    return tuple(sorted(monos))


def glt_invariants(m: int, n: int, t: int, degree: int) -> Subspace:
    """Joint kernel of all t^2 derivations on the total-degree component of
    Q[Y,Z], over all its monomials: solved on the weight-zero monomials with
    the off-diagonal derivations, since E_aa scales each monomial by its weight."""
    act = DerivationAction(m, n, t)
    ambient = comb(act.nvars + degree - 1, degree)
    if degree % 2:
        return Subspace.zero(ambient)
    monos = weight_zero(m, n, t, degree // 2)
    equations: dict[tuple, dict[int, Q]] = {}
    for local, mono in enumerate(monos):
        for a in range(t):
            for b in range(t):
                if a != b:
                    for target, c in act.apply(a, b, {mono: Q(1)}).items():
                        equations.setdefault((a, b, target), {})[local] = c
    kernel = solve_homogeneous(equations.values(), len(monos))
    # the positions increase, so relabelling keeps each row's lead first: still RREF
    cols = [monomial_position(mono) for mono in monos]
    return Subspace(ambient, {cols[lead]: {cols[c]: v for c, v in row.items()}
                              for lead, row in zip(kernel.pivot_cols, kernel.basis)})


def theta_star_image(m: int, n: int, t: int, k: int) -> Subspace:
    """Image of the degree-k component of theta*, over the degree-2k target monomials."""
    images = theta_star_degree(m, n, t, k)
    ambient = comb(m * t + t * n + 2 * k - 1, 2 * k)
    return Subspace.from_vectors(ambient, [to_vector(img, 2 * k) for img in images.values()])


def theta_star_kernel(m: int, n: int, t: int, k: int) -> Subspace:
    """Kernel of the degree-k component of theta*, over the degree-k X-monomials."""
    images = theta_star_degree(m, n, t, k)
    equations: dict[Mono, dict[int, int]] = {}
    for idx, img in enumerate(images.values()):
        for target, c in img.items():
            equations.setdefault(target, {})[idx] = c
    return solve_homogeneous(equations.values(), len(images))


def minors_component(m: int, n: int, t: int, k: int) -> Subspace:
    """Degree-k component of the ideal generated by the (t+1) x (t+1) minors."""
    nmonos = comb(m * n + k - 1, k)
    gens = minor_polys(m, n, t)
    if not gens or k < t + 1:
        return Subspace.zero(nmonos)
    vectors = [to_vector(pmul({cof: Q(1)}, g), k)
               for cof in monomials(m * n, k - t - 1) for g in gens]
    return Subspace.from_vectors(nmonos, vectors)


# -- truncated quotients and comodules --------------------------------------------------


def degree_basis(alg: FreeAlgebra, k: int) -> tuple[Word, ...]:
    """All words of degree k of alg, in lexicographic order."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(product(range(alg.nletters), repeat=k))


# rho(y_ij) = sum_k y_ik (x) u_kj and lambda(z_ij) = sum_k u_ik (x) z_kj
_RHO_NAMES = {"y": ("y", "u")}
_LAMBDA_NAMES = {"z": ("u", "z")}


class CoactionContext:
    """The coaction alpha = rho' (x) lambda on A(m,t) (x) A(t,n) for a shape
    (m, n) over a Hopf cover, t its size, term by term on word pairs."""

    def __init__(self, m: int, n: int, hopf: HopfCover):
        if min(m, n) < 1:
            raise ValueError("m, n must be positive")
        self.m = m
        self.n = n
        self.t = hopf.t
        self.hopf = hopf
        self.amt = matrix_entry_algebra("y", m, hopf.t)
        self.atn = matrix_entry_algebra("z", hopf.t, n)

    def flipped_word_terms(self, wa: Word):
        """Terms of rho'(w) for a word w of A(m,t), as (H-word, target word).

        Each term of rho(w) is a (y-word, u-word) pair, and the antipode sends
        the u-word to the single reversed v-word, with coefficient 1.
        """
        antipode = self.hopf.antipode_word
        for wy, wu in split_word(wa, self.amt, self.amt, self.hopf.algebra, self.t, _RHO_NAMES):
            yield antipode(wu), wy

    def left_word_terms(self, wb: Word):
        """Terms of lambda(w) for a word w of A(t,n), as (H-word, target word)."""
        return split_word(wb, self.atn, self.hopf.algebra, self.atn, self.t, _LAMBDA_NAMES)

    def tensor_word_terms(self, wa: Word, wb: Word):
        """Terms of alpha(w_A (x) w_B), as (H-word, target pair); every
        coefficient is 1 and no two terms share a target pair."""
        left_terms = list(self.left_word_terms(wb))
        for hwa, ta in self.flipped_word_terms(wa):
            for hwb, tb in left_terms:
                yield hwa + hwb, (ta, tb)

    def pair_basis(self, bidegree: tuple[int, int]) -> tuple[PairKey, ...]:
        """Basis word pairs of the bidegree component, in (left, right) lex order;
        the pair at position ia * (right count) + ib is (A-word ia, B-word ib)."""
        i, j = bidegree
        bs = degree_basis(self.atn, j)
        return tuple((wa, wb) for wa in degree_basis(self.amt, i) for wb in bs)

    def component(self, bidegree: tuple[int, int]) -> ComoduleSpace:
        """The bidegree component as a comodule on pair_basis(bidegree): entry
        [s, tau] is the H-word of the coaction term from pair s to pair tau.
        A word matrix holds one word per entry, so two terms with one target
        pair raise ValueError rather than losing one."""
        pairs = self.pair_basis(bidegree)
        index = {p: s for s, p in enumerate(pairs)}
        coaction: dict[tuple[int, int], Word] = {}
        for s, (wa, wb) in enumerate(pairs):
            for hw, tgt in self.tensor_word_terms(wa, wb):
                entry = (s, index[tgt])
                if entry in coaction:
                    raise ValueError(f"two coaction terms share the entry {entry}")
                coaction[entry] = hw
        return ComoduleSpace(self.hopf, len(pairs), coaction)


def coinvariants(ctx: CoactionContext, bidegree: tuple[int, int], d: int) -> Subspace:
    """Certified coinvariants of the bidegree component at truncation d, in
    ctx.pair_basis(bidegree) coordinates: comod.coinvariants of the full
    component, whose longest coaction word has degree i + j."""
    return comod.coinvariants(ctx.component(bidegree), d)


def pair_product(x: dict[PairKey, Q], y: dict[PairKey, Q]) -> dict[PairKey, Q]:
    """Componentwise product (a (x) b)(c (x) d) = ac (x) bd of two tensor elements,
    each a {(left word, right word): coefficient} dict."""
    out: dict[PairKey, Q] = {}
    for (la, ra), ca in x.items():
        for (lb, rb), cb in y.items():
            add_to(out, (la + lb, ra + rb), ca * cb)
    return out


def bidegree_of(x: dict[PairKey, Q]) -> tuple[int, int]:
    """The (left, right) word lengths shared by every term of x."""
    degs = {(len(wa), len(wb)) for wa, wb in x}
    if len(degs) != 1:
        raise ValueError("element is not bidegree-homogeneous")
    return degs.pop()


def coinvariance_residual(ctx: CoactionContext, x: dict[PairKey, Q], d: int):
    """Nonzero normal forms of the H-coefficients of alpha(x) - 1 (x) x.

    Empty result == certified coinvariant at truncation d.
    """
    if not x:
        return {}
    i, j = bidegree_of(x)
    if d < i + j:
        raise ValueError(f"truncation {d} cannot hold coaction legs of degree {i + j}")
    q = ctx.hopf.quotient(d)
    acc: dict[PairKey, dict[Word, Q]] = {}
    for (wa, wb), coeff in x.items():
        for hw, tgt in ctx.tensor_word_terms(wa, wb):
            add_to(acc.setdefault(tgt, {}), hw, coeff)
    for tgt, coeff in x.items():
        add_to(acc.setdefault(tgt, {}), (), -coeff)
    residuals = {}
    for tgt, words in acc.items():
        if not words:
            continue
        nf = q.normal_form(words)
        if nf:
            residuals[tgt] = nf
    return residuals


def quotient_basis(q: TruncatedQuotient) -> tuple[Word, ...]:
    """Words no rule can rewrite (degree-ascending, then lex): a basis of the quotient."""
    comp = q.presentation.completion
    comp.extend(q.d)
    return tuple(w for k in range(q.d + 1)
                 for w in degree_basis(q.presentation.algebra, k)
                 if _match(comp.rules, comp.lengths, w, q.d - k) is None)


def psi_rank(m: int, n: int, t: int, k: int) -> int:
    """The exactlin rank of the flattened psi(w), one row per degree-k word,
    which catalg.main_correspondence_check reads off its proof instead."""
    ncols = (m * t) ** k
    return rank({r * ncols + c: v for (r, c), v in psi(m, n, t, w).items()}
                for w in product(range(m * n), repeat=k))


def is_counital(space: ComoduleSpace) -> bool:
    """epsilon(h[a,b]) = delta_ab, an exact rational computation."""
    for (a, b), h in space.coaction.items():
        if space.hopf.counit({h: Q(1)}) != int(a == b):
            return False
    return all((a, a) in space.coaction for a in range(space.dim))


def is_coassociative(space: ComoduleSpace) -> bool:
    """Delta(h[a,c]) = sum_b h[a,b] (x) h[b,c], exactly in the free cover."""
    co = space.coaction
    for a in range(space.dim):
        for c in range(space.dim):
            lhs = dict.fromkeys(space.hopf.delta_word(co[a, c]), 1) if (a, c) in co else {}
            acc: dict[tuple[Word, Word], int] = {}
            for b in range(space.dim):
                if (a, b) in co and (b, c) in co:
                    add_to(acc, (co[a, b], co[b, c]), 1)
            if lhs != acc:
                return False
    return True
