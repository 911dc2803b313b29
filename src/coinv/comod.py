"""Word-matrix comodules of H(F) and certified coinvariant spaces, all over
a HopfCover the caller builds.

A ComoduleSpace is finite-dimensional, each nonzero coaction entry one
H-word with coefficient 1: the trivial comodule I gives the empty word, the
standard U_l the letter u_ij, a tensor product (flattened row-major, so
associators are identities on basis vectors) the concatenation of its
factors' words, and the S-twisted dual of a comodule of u-words the reversed
v-words of HopfCover.antipode_word.  The comodule axioms are the tests'
oracles (tests/oracles.py).  _morphism_conditions writes the conditions on
a map between two comodules.

The coinvariants of a comodule V are Hom(I, V) (Klimyk & Schmuedgen,
Quantum Groups and Their Representations, ch. 11): x is one iff 1 -> x is a
morphism, so `coinvariants` solves the conditions catalg.hom_space does.
The commands solve one such space, C_(1,1) of the (1,1,t) block of
A(m,t) (x) A(t,n): the base case of catalg's product lemma, the one proof
that Im theta_k <= C for every k.  That component is U* (x) U: writing y_a
for y_1a and z_b for z_b1, the pair y_a (x) z_b is e_a* (x) e_b, and the
coaction alpha (catalg's docstring) sends it to sum_kl v_ak u_bl (x) y_k (x)
z_l, entry [(a,b),(k,l)] of U*.tensor(U).  So C_(1,1) = Hom(I, U* (x) U),
and theta_11(x) = sum_a y_a (x) z_a is the coevaluation sum_a e_a* (x) e_a.
The coaction on every bidegree of A(m,t) (x) A(t,n), and the check of a
single element's coinvariance, are the tests' oracles.

Certification logic: the solver accepts x as coinvariant only when every
H-coefficient of delta(x) - 1 (x) x has a degree-<= d ideal membership
witness, so the computed space is a subspace of the true coinvariants C.
dim C_(k,k) the commands read through End(U^(x k)) (catalg.certify_fft).
C <= Im theta_k is the paper's theorem and is not computed.

Spectator factorisation: the coaction changes only the t-index of a letter
(rho'(y_ij) = sum_k v_jk (x) y_ik keeps i, lambda(z_ij) = sum_k u_ik (x) z_kj
keeps j), and the H-word of a term depends on t-indices alone.  So the
bidegree (i,j) component is (Q^m)^(x i) (x) W (x) (Q^n)^(x j), W the same
component at m = n = 1, the coaction acts as id (x) alpha_W (x) id, and the
constraint system of its coinvariants is m^i n^j identical copies of the
system on W.  The kernel of a block-diagonal system with identical blocks is
exactly the lift of one block's kernel, so the certified space at (m,n) is
that lift and has m^i n^j times its dimension; the program solves the (1,1)
block alone.  theta factors the same way (freealg.theta_rank).

For unbalanced bidegrees the Laurent grading specialization gives an exact
(truncation-free) vanishing proof, checked once per coaction letter:
alpha(x) specializes to z^(j-i) (x) x, so a coinvariant in bidegree (i,j),
i != j, is zero.  Its OffDiagonalCertificate holds the two checks and the
exponent j - i, and the caller keeps the bidegree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactlin import Subspace
from .freealg import Word, theta_matrix
from .fpquot import certified_kernel
from .hopf import HopfCover, grading_specialize

Q = Fraction


class ComoduleSpace:
    """Finite-dimensional left comodule: delta(e_a) = sum_b h[a,b] (x) e_b, with
    each nonzero entry h[a,b] one word of the free cover (coefficient 1)."""

    def __init__(self, hopf: HopfCover, dim: int, coaction: dict[tuple[int, int], Word]):
        if dim < 1:
            raise ValueError("comodule dimension must be positive")
        for a, b in coaction:
            if not (0 <= a < dim and 0 <= b < dim):
                raise ValueError("coaction index out of range")
        self.hopf = hopf
        self.dim = dim
        self.coaction = dict(coaction)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trivial(cls, hopf: HopfCover) -> "ComoduleSpace":
        return cls(hopf, 1, {(0, 0): ()})

    @classmethod
    def standard_left(cls, hopf: HopfCover) -> "ComoduleSpace":
        t = hopf.t
        co = {(i, j): (hopf.algebra.letter("u", i, j),) for i in range(t) for j in range(t)}
        return cls(hopf, t, co)

    def direct_power(self, m: int) -> "ComoduleSpace":
        """Block diagonal: copy p of e_a at index p*dim + a."""
        if m < 1:
            raise ValueError("direct power requires m >= 1")
        co = {(p * self.dim + a, p * self.dim + b): h
              for p in range(m) for (a, b), h in self.coaction.items()}
        return ComoduleSpace(self.hopf, m * self.dim, co)

    def tensor(self, other: "ComoduleSpace") -> "ComoduleSpace":
        """Basis e_a (x) f_c at index a*other.dim + c; H-words concatenate left-to-right."""
        self._compatible(other)
        co = {}
        for (a, b), h1 in self.coaction.items():
            for (c, dd), h2 in other.coaction.items():
                co[(a * other.dim + c, b * other.dim + dd)] = h1 + h2
        return ComoduleSpace(self.hopf, self.dim * other.dim, co)

    def dual(self) -> "ComoduleSpace":
        """S-twisted dual: h*[a,b] = S(h[b,a]); makes evaluation a comodule map.
        Defined for comodules of u-words only (ValueError otherwise)."""
        co = {(a, b): self.hopf.antipode_word(h) for (b, a), h in self.coaction.items()}
        return ComoduleSpace(self.hopf, self.dim, co)

    def tensor_power(self, k: int) -> "ComoduleSpace":
        if k < 0:
            raise ValueError("tensor power requires k >= 0")
        out = ComoduleSpace.trivial(self.hopf)
        for _ in range(k):
            out = out.tensor(self)
        return out

    def _compatible(self, other: "ComoduleSpace"):
        if self.hopf is not other.hopf:
            raise ValueError("comodules live over different Hopf covers")


def _morphism_conditions(source: ComoduleSpace, target: ComoduleSpace):
    """The condition sum_b h[s,b] T[r,b] - sum_c T[c,s] h'[c,r] = 0 for each
    (source index s, target index r), as certified_kernel's (unknown, H-word,
    sign) triples, unknown r * source.dim + c holding T[r, c].  Each coaction
    is grouped once: source entries by row, target entries by column."""
    nsrc = source.dim
    rows: dict[int, list[tuple[int, Word]]] = {}
    for (s, b), h in source.coaction.items():
        rows.setdefault(s, []).append((b, h))
    cols: dict[int, list[tuple[int, Word]]] = {}
    for (c, r), h in target.coaction.items():
        cols.setdefault(r, []).append((c * nsrc, h))
    for s in range(nsrc):
        for r in range(target.dim):
            yield ([(r * nsrc + b, h, 1) for b, h in rows.get(s, ())]
                   + [(c + s, h, -1) for c, h in cols.get(r, ())])


# -- coinvariants ---------------------------------------------------------------


def coinvariants(space: ComoduleSpace, d: int) -> Subspace:
    """Certified coinvariant subspace of space at truncation d, solved as
    Hom(I, space): unknown tau is the coefficient of basis vector tau.

    Sound: every member x has all H-coefficients of delta(x) - 1 (x) x
    certified in the ideal, so the result is a subspace of the true
    coinvariant space.  A d below the longest coaction word is refused.
    """
    longest = max(map(len, space.coaction.values()), default=0)
    if d < longest:
        raise ValueError(f"truncation {d} cannot hold coaction words of degree {longest}")
    conditions = _morphism_conditions(ComoduleSpace.trivial(space.hopf), space)
    return certified_kernel(space.hopf.quotient(d), space.dim, conditions)


def theta_image_vectors(t: int, k: int):
    """theta(x^k) on the (1,1,t) block, the one column of freealg.theta_matrix
    at m = n = 1; at k = 1 it is sum_a e_a* (x) e_a in U*.tensor(U)'s basis."""
    return theta_matrix(1, 1, t, k)


# -- the exact off-diagonal certificate -----------------------------------------


class OffDiagonalCertificate(NamedTuple):
    """Exact proof that true coinvariants vanish in an unbalanced bidegree (i, j),
    where the grading specialization acts by z^exponent, exponent = j - i."""

    exponent: int
    relations_annihilated: bool
    diagonal_action_ok: bool

    @property
    def holds(self) -> bool:
        return self.relations_annihilated and self.diagonal_action_ok and self.exponent != 0


def off_diagonal_vanish(hopf: HopfCover, bidegree: tuple[int, int]) -> OffDiagonalCertificate:
    """Certify true coinvariants = 0 at bidegree (i, j), i != j, of every shape
    (m, n) over the cover hopf, exactly.

    Two ingredients, both checked here: (1) the grading specialization kills
    every relation, so it factors through the quotient Hopf algebra; (2) it
    sends every coaction letter v_ak to delta_ak z^-1 and u_bl to delta_bl z.
    By (2) the specialized coaction of a word y_(r1 a1)...y_(ri ai) (x)
    z_(b1 c1)...z_(bj cj) keeps only the v_aa and u_bb legs, so it acts on
    every basis vector of the bidegree component by z^(j-i).  A coinvariant
    x then satisfies z^(j-i) x = x, forcing x = 0 when i != j.  No
    truncation is involved.  The same certificate proves
    Hom((U^m)^(x i), (U^n)^(x j)) = 0: specialised, the coaction of U^(x i)
    is z^i id, so the morphism condition of catalg becomes (z^i - z^j) T = 0.
    """
    i, j = bidegree
    if i == j:
        raise ValueError("off-diagonal certificate requires i != j")
    t, halg = hopf.t, hopf.algebra
    relations_ok = all(not grading_specialize(halg, r) for r in hopf.presentation.relations)

    def specializes_to(name: str, a: int, k: int, exponent: int) -> bool:
        spec = grading_specialize(halg, {(halg.letter(name, a, k),): Q(1)})
        return spec == ({exponent: Q(1)} if a == k else {})

    diag_ok = all(specializes_to("v", a, k, -1) and specializes_to("u", a, k, 1)
                  for a in range(t) for k in range(t))
    return OffDiagonalCertificate(exponent=j - i, relations_annihilated=relations_ok,
                                  diagonal_action_ok=diag_ok)
