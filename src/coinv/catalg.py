"""Comodule category bookkeeping: morphism spaces and the coinvariant <->
morphism correspondence.  Every entry point takes the caller's HopfCover and
reads t from it; this module builds no cover.  A report holds what its call
computed, not the shape or degree the caller passed; only CoinvariantReport
keeps its truncation d, which certify_fft checks a base case against.

hom_space solves comod._morphism_conditions between two comod.ComoduleSpace
word matrices and returns their certified solution set as a Subspace, in
which coordinate r * source.dim + c holds T[r, c].  The one Hom solve the
program runs is block_hom_dim's: the (1, 1) block Hom(U^(x i), U^(x j)) of
Hom((U^m)^(x i), (U^n)^(x j)) (spectator factorisation, comod), estimated
first and refused above END_SOLVE_TERM_LIMIT before any comodule is built.

Two independently implemented pipelines meet here, both returning a matrix
as its entry dict {(row, col): nonzero value}.  psi sends a word of A(m,n)
straight to the 0/1 matrix (u_j1 (x) ... (x) u_jk) o (p_i1 (x) ... (x)
p_ik) : (U^m)^(x k) -> (U^n)^(x k), which does not depend on F.
_hom_matrix transports a coinvariant of A(m,t) (x) A(t,n) through the
identifications y_ij -> v_i(e_j)* (reversed, into the opposite algebra),
z_ij -> u_j(e_i), and the nested evaluation pairing; the two word reversals
cancel, leaving pure index bookkeeping.
main_correspondence_check verifies the two matrices agree on every theta
image - the computational content of the isomorphism proof - at the mn
letters, reading degree k off a proof, and proves the images coinvariant by
the product lemma below, whose base case, like certify_fft's, is the one
lemma_base_case the caller solves; psi's independence is read off its proof.

certify_fft certifies C_(k,k) = Im theta_k through End(U^(x k)).  For a
finite-dimensional comodule V, Hom^H(V, W) = (W (x) V*)^coH (Klimyk &
Schmuedgen, Quantum Groups and Their Representations, ch. 11), so at
m = n = 1 the coinvariants of bidegree (k,k) have the dimension of
End^H(U^(x k)), whose morphism conditions hold only the t^(2k) u-words of
degree k; a certified morphism is a true one, so the certified End is a
proven lower bound, and the spectator factorisation (comod) scales it by
(mn)^k.  balanced_hom_dim reads that dimension off the weight grading
below truncation k + 2, and above it off the Groebner leads, with no solve
unless some lead is a pure u-word.  Containment Im theta_k <= C
needs no word of degree 2k, by a product lemma on the comodule algebra
A(m,t) (x) A(t,n).  A(m,t) carries the right coaction rho(y_ij) = sum_k
y_ik (x) u_kj, turned into a left comodule by the flip rho' = tau o (id (x)
S) o rho; A(t,n) carries the left coaction lambda(z_ij) = sum_k u_ik (x)
z_kj.  On words both are freealg.split_word, with y splitting into (y, u)
and z into (u, z); rho' then applies HopfCover.antipode_word to each
u-leg.  Their tensor product alpha = rho' (x) lambda makes A(m,t) (x) A(t,n)
a left comodule algebra, whose elements are {(A-word, B-word): coefficient}
dicts and whose coinvariants are {x : alpha(x) = 1 (x) x}.  Since S is
anti-multiplicative with S(u_kj) = v_jk, the H-leg of every term of alpha
on a word pair is one word (a reversed v-word followed by a u-word) with
coefficient 1.  Write leg(s, tau) for the H-word of the term from the basis
pair s = (wa, wb) to the pair tau, so x = sum_s c_s s is coinvariant modulo
a two-sided ideal I iff
sum_s c_s leg(s, tau) = c_tau mod I for every tau.  Pairs multiply
factor-wise, (wa, wb)(wa', wb') = (wa wa', wb wb'), and legs nest:

    leg(s s', tau tau') = rev v(wa', ta') . leg(s, tau) . u(wb', tb'),

rev v(wa', ta') the reversed v-word and u(wb', tb') the u-word of the
single term from s' to tau' = (ta', tb'), because rho' reverses the
v-letters of a word and lambda keeps the order of the u-letters.  Lemma: if
x and x' are coinvariant modulo I, so is x x'.  Proof: the coefficient of
tau tau' in alpha(x x') is sum_s' c'_s' rev v(wa', ta') (sum_s c_s
leg(s, tau)) u(wb', tb'); since I is two-sided, the inner sum may be
replaced by c_tau, which leaves c_tau sum_s' c'_s' leg(s', tau') = c_tau
c'_tau' mod I, the coefficient of tau tau' in x x'.  Now theta_11(x^k) =
theta_11(x)^k, and theta_11(x) is coinvariant modulo I_2 because its
condition is the relation tv.u = I itself; so one degree-2 solve, of
Hom(I, U* (x) U) (comod), proves theta_11(x^k), hence by the factorisation
all of Im theta_k, coinvariant for every k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .comod import ComoduleSpace, _morphism_conditions, coinvariants, theta_image_vectors
from .exactlin import Subspace
from .freealg import PairKey, Word, matrix_entry_algebra, theta_images, theta_rank
from .fpquot import certified_kernel
from .hopf import RELATION_DEGREE, HopfCover

Q = Fraction

# a Hom solve takes roughly 450 bytes per constraint term (block_hom_dim's
# estimate): End(U^(x 7)) at t = 2 is 4.2 million terms and 1.9 GB of peak RSS
END_SOLVE_TERM_LIMIT = 5_000_000


class SolveTooLarge(ValueError):
    """A solve refused before any of it is built, because its estimated size is
    above a module limit."""


# -- Hom-space computation ----------------------------------------------------


def hom_space(source: ComoduleSpace, target: ComoduleSpace, d: int) -> Subspace:
    """Certified comodule morphisms source -> target at truncation d, as the
    subspace of Q^(target.dim * source.dim) in which coordinate
    r * source.dim + c holds T[r, c].

    Sound: each member has every morphism condition certified in the
    degree-<= d ideal, so it is a subspace of the true Hom space.
    """
    source._compatible(target)
    return certified_kernel(source.hopf.quotient(d), source.dim * target.dim,
                            _morphism_conditions(source, target))


def block_hom_dim(m: int, n: int, hopf: HopfCover, i: int, j: int, d: int) -> int:
    """dim Hom(U^(x i), U^(x j)) certified at truncation d >= max(i, j,
    RELATION_DEGREE), the (1, 1) block of the run's Hom((U^m)^(x i),
    (U^n)^(x j)); m and n only name the run in a refusal.

    The solve has one condition per (source, target) index pair, t^(i+j) of
    them, each holding a source row of t^i coaction entries and a target
    column of t^j.  Above END_SOLVE_TERM_LIMIT such terms it raises
    SolveTooLarge before any comodule is built.
    """
    if d < max(i, j, RELATION_DEGREE):
        raise ValueError(f"truncation {d} below max(i, j, {RELATION_DEGREE})")
    t = hopf.t
    terms = t ** (i + j) * (t ** i + t ** j)
    if terms > END_SOLVE_TERM_LIMIT:
        raise SolveTooLarge(f"Hom((U^m)^(x i), (U^n)^(x j)) at m={m}, n={n}, t={t}, i={i}, j={j} "
                            f"needs a solve of about {terms:,} constraint terms, "
                            f"above the limit of {END_SOLVE_TERM_LIMIT:,}")
    u = ComoduleSpace.standard_left(hopf)
    return hom_space(u.tensor_power(i), u.tensor_power(j), d).dim


def balanced_hom_dim(m: int, n: int, hopf: HopfCover, k: int, d: int) -> int:
    """dim Hom((U^m)^(x k), (U^n)^(x k)) certified at truncation d >= max(k,
    RELATION_DEGREE): (mn)^k dim End(U^(x k)), the latter read off the
    weight grading at d <= k + 1, else off the Groebner leads whenever they
    allow it.  Where the conditions of End(U^(x k)) must vanish in the free
    algebra, T = lambda I and the dimension is 1, what the hom_space solve
    would return: the coefficient of u_(x,y) in the condition (s, r) of
    _morphism_conditions is [x = s] T[r,y] - [y = r] T[x,s], which at x = s
    gives T[r,y] = 0 for y != r and T[r,r] = T[s,s].

    The weight lemma.  Let every relation be weight-homogeneous of degree at
    least |its weight| + 2, as every relation of H(F) is (weight 0, degree
    2).  A letter weighs +1 (u) or -1 (v), so a product a.r.b of weight w
    has degree |a| + |r| + |b| >= |w| + 2, and I_d has no nonzero weight-k
    part when d <= k + 1.  The conditions are combinations of degree-k
    u-words, of weight k, so there they must vanish in the free algebra; no
    completion is read.

    The lead-word certificate, at d >= k + 2 or where the lemma's hypothesis
    fails.  Complete the relations to d.  If no rule has a lead word of
    u-letters only (the empty lead counts as one), every u-word of degree k
    is irreducible, since each of its subwords is a u-word, and distinct
    irreducible words are independent modulo I_d (they are a basis of the
    truncated quotient, by Bergman's diamond lemma), so again the conditions
    must vanish in the free algebra.  For F = I this is Banica's
    irreducibility of u^(x k) (Comm. Math. Phys. 190, 1997), computed
    modulo I_d; no F tried has a pure-u lead.

    Otherwise block_hom_dim solves End(U^(x k)) at d, after estimating its
    2 t^(3k) constraint terms; above END_SOLVE_TERM_LIMIT it raises
    SolveTooLarge, naming the case as i = j = k, before any is built.
    Rules above d, which an earlier and larger extension of the same
    completion added, can only send a case to this fallback, and the
    fallback is exact at d, so they never change a dimension.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if d < max(k, RELATION_DEGREE):
        raise ValueError(f"truncation {d} below max(k, {RELATION_DEGREE})")
    presentation = hopf.presentation
    weight = hopf.algebra.word_weight
    if d <= k + 1 and presentation.is_weight_graded and all(
            max(map(len, r)) >= abs(weight(next(iter(r)))) + 2 for r in presentation.relations):
        return (m * n) ** k
    completion = presentation.completion
    completion.extend(d)
    u_letters = set(hopf.algebra.letters("u"))
    if any(u_letters.issuperset(lead) for lead in completion.rules):
        end = block_hom_dim(m, n, hopf, k, k, d)
    else:
        end = 1
    return (m * n) ** k * end


# -- Theorem certification ------------------------------------------------------


class CoinvariantReport(NamedTuple):
    """Squeeze-certification outcome for one balanced bidegree (k, k),
    certified at truncation d."""

    d: int
    dim_coinv: int
    theta_rank: int
    image_contained: bool
    certified: bool


def certify_fft(m: int, n: int, hopf: HopfCover, k: int, d: int,
                base: CoinvariantReport | None) -> CoinvariantReport:
    """Certify the k-th degree of the fundamental-theorem isomorphism.

    dim_coinv is (mn)^k dim End(U^(x k)) certified at truncation d >=
    max(k, RELATION_DEGREE), a proven lower bound on dim C_(k,k) (module
    docstring), read from balanced_hom_dim's weight lemma or lead-word
    certificate at every k.  Im theta_k <= C comes from the product lemma,
    whose base case `base` is the caller's lemma_base_case(hopf, d') for a
    d' <= d (containment in I_d' holds in I_d); it may be None only at
    k = 0, where the image is the scalars.  rank theta_k = (mn)^k is freealg.theta_rank's, read off
    its proof.
    Certified iff the image is contained and dim_coinv = (mn)^k;
    a dim_coinv above (mn)^k is returned as computed, uncertified, for the
    caller to classify.  Unbalanced bidegrees are comod.off_diagonal_vanish's.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if d < max(k, RELATION_DEGREE):
        raise ValueError(f"truncation {d} below max(k, {RELATION_DEGREE}) = "
                         f"{max(k, RELATION_DEGREE)}")
    if k and base is None:
        raise ValueError(f"k = {k} needs the product lemma's base case")
    if base is not None and base.d > d:
        raise ValueError(f"base case at truncation {base.d} cannot serve k = {k} at {d}")
    contained = k == 0 or base.image_contained
    dim = balanced_hom_dim(m, n, hopf, k, d)
    return CoinvariantReport(
        d=d, dim_coinv=dim, theta_rank=theta_rank(m, n, hopf.t, k), image_contained=contained,
        certified=contained and dim == (m * n) ** k,
    )


def lemma_base_case(hopf: HopfCover, d: int) -> CoinvariantReport:
    """C_(1,1) of the (1, 1, t) block, Hom(I, U* (x) U) (comod), solved once at
    d >= RELATION_DEGREE: dim End(U_l), and whether it holds theta_11(x) =
    sum_a e_a* (x) e_a, one nonzero column (rank 1), the product lemma's
    base case for every degree."""
    u = ComoduleSpace.standard_left(hopf)
    space = coinvariants(u.dual().tensor(u), d)
    contained = space.contains(theta_image_vectors(hopf.t, 1)[0])
    return CoinvariantReport(d=d, dim_coinv=space.dim, theta_rank=1, image_contained=contained,
                             certified=contained and space.dim == 1)


# -- the word-to-morphism map psi ----------------------------------------------


def psi(m: int, n: int, t: int, word: Word) -> dict[tuple[int, int], int]:
    """Entries {(row, col): 1} of the 0/1 matrix of the basis morphism
    (u_j1 (x) ... (x) u_jk) o (p_i1 (x) ... (x) p_ik) attached to the word
    x_{i1 j1} ... x_{ik jk} of A(m,n).

    Each letter contributes the (nt) x (mt) block picking direct summand i of
    U^m and re-embedding it as summand j of U^n; the word is the left-to-right
    Kronecker product of its letters, a map (U^m)^(x k) -> (U^n)^(x k).  The
    matrix does not depend on F.
    """
    if min(m, n, t) < 1:
        raise ValueError("m, n, t must be positive")
    mat = {(0, 0): 1}
    for letter in word:
        if not 0 <= letter < m * n:
            raise ValueError(f"letter {letter} is not a letter of A({m},{n})")
        i, j = divmod(letter, n)
        mat = {(r * n * t + j * t + a, c * m * t + i * t + a): 1 for r, c in mat for a in range(t)}
    return mat


# -- transporting coinvariants to morphisms -------------------------------------


def _hom_matrix(m: int, n: int, t: int, terms: dict[PairKey, Q]) -> dict[tuple[int, int], Q]:
    """Entries {(row, col): coefficient} of the matrix of the morphism
    (U^m)^(x k) -> (U^n)^(x k) that an element of bidegree (k,k), a
    {(A(m,t)-word, A(t,n)-word): coefficient} dict, is transported to.

    The identifications send y_ij to v_i(e_j)* (reversing words, into the
    opposite algebra) and z_ij to u_j(e_i); closing the source leg with the
    nested evaluation pairing reverses once more, so the matrix entry is
    plain bookkeeping: T[row(w_B), col(w_A)] = coefficient of w_A (x) w_B,
    with w_A read as digits i_r*t + a_r (radix mt), its letters y_(i_r,a_r),
    and w_B as digits c_r*t + b_r (radix nt) off its letters z_(b_r,c_r) =
    b_r*n + c_r, leftmost letter most significant; no algebra is built.
    """
    entries: dict[tuple[int, int], Q] = {}
    for (wa, wb), coeff in terms.items():
        col = 0
        for letter in wa:
            col = col * (m * t) + letter
        row = 0
        for letter in wb:
            b, c = divmod(letter, n)
            row = row * (n * t) + c * t + b
        if coeff:
            entries[(row, col)] = coeff
    return entries


# -- the endpoint comparison -----------------------------------------------------


class CorrespondenceReport(NamedTuple):
    """The two pipelines at degree k: equalities_checked counts the (mn)^k
    word equalities proven off the mn letters, mismatches the failing words."""

    end_u_dim: int
    equalities_checked: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.end_u_dim == 1 and not self.mismatches


def main_correspondence_check(m: int, n: int, hopf: HopfCover, k: int,
                              base: CoinvariantReport) -> CorrespondenceReport:
    """Certify that theta(w) is coinvariant and transports to psi(w) for every
    degree-k word w, by checking the mn letters of degree 1.

    theta(w) = e_i (x) theta_11(x)^k (x) e_j (spectator factorisation, see
    comod), so by the product lemma (module docstring) every image is a
    coinvariant once theta_11(x) is one.  That base case is the caller's
    lemma_base_case(hopf, d): one solve of C_(1,1) at d >= RELATION_DEGREE,
    whose dimension is the computed dim End(U_l) (must be 1 before the psi
    basis claim means anything); if it misses theta_11(x), every word of
    degree k is a mismatch.  Degree k is read off a lemma: psi(w w') and the
    transport of theta(w w') = theta(w) theta(w') are the 0/1 digit products
    of w's and w''s matrices, an entry (r, c) of the first and (r', c') of
    the second giving (r (nt)^|w'| + r', c (mt)^|w'| + c'), as pairs multiply
    factor-wise and _hom_matrix concatenates their letters' digits.  The
    product is injective on nonempty entry sets, the leading digits spelling
    the first factor, and a letter's matrices have t entries; so a word
    mismatches exactly when the base misses theta_11(x) or one of its
    letters does, and degree-k words are enumerated only to name mismatches.
    The psi(w) are independent, read off the same digits: psi(w) spells w's
    letters x_(i_r j_r) in its row and column digits j_r t + a_r and
    i_r t + a_r, so distinct words have disjoint, nonempty supports.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    t = hopf.t
    bad = {w[0] for w, pairs in theta_images(m, n, t, 1)
           if _hom_matrix(m, n, t, dict.fromkeys(pairs, Q(1))) != psi(m, n, t, w)}
    label = matrix_entry_algebra("x", m, n).word_label
    words = product(range(m * n), repeat=k) if bad or not base.image_contained else ()
    mismatches = tuple(label(w) for w in words if not base.image_contained or bad.intersection(w))
    return CorrespondenceReport(end_u_dim=base.dim_coinv, equalities_checked=(m * n) ** k,
                                mismatches=mismatches)
