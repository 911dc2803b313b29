"""Commutative fundamental theorems at desk scale, degree by degree.

theta* : Q[X] -> Q[Y] (x) Q[Z] = Q[Y,Z] sends X_ij to sum_k Y_ik Z_kj; the
classical theorems (Procesi, Lie Groups, ch. 9) identify its image with the
gl_t-invariants of Q[Y,Z] (first theorem) and its kernel with the ideal of
(t+1) x (t+1) minors (second theorem).  Everything here is homogeneous, so
each statement is exact linear algebra on one graded component at a time —
no Groebner machinery.  Each side of a theorem is computed as a rank, or
counted, and a degree is certified by one containment, proven exactly, and
equal dimensions; no basis of either side is built.

Invariance is checked through its Lie-algebra linearization: the t^2
polarization derivations E_ab with E_ab(Y_ic) = -delta_bc Y_ia and
E_ab(Z_cj) = delta_ac Z_bj.  Over Q this is equivalent to invariance under
the group action (A, B) -> (A g^-1, g B); the equivalence is classical and
assumed, not certified.  A diagonal E_aa multiplies a monomial by its weight
deg_{Z_a.} - deg_{Y_.a}, whose entries sum to the Z-degree less the
Y-degree.  So every invariant lies in bidegree (k, k), total degree 2k, and
at odd total degree the invariants are zero by counting.

First theorem at total degree 2k.  Each E_ab o theta* is a
theta*-derivation, so once every E_ab kills every generator image
theta*(X_ij), Im theta*_k lies in the invariants, whose dimension is
counted.  In characteristic 0 the bidegree-(k, k) part V of Q[Y,Z] is a
completely reducible rational gl_t-module, so Weyl's character formula
gives the multiplicity of the trivial module in V as
sum_{w in S_t} sign(w) dim V_{rho - w rho} (Humphreys, Introduction to Lie
Algebras and Representation Theory, GTM 9, §24; Fulton & Harris,
Representation Theory, GTM 129, §25).  The weight space V_mu is spanned by
the monomials whose Y-column degrees c_Y and Z-row degrees c_Z satisfy
c_Z = c_Y + mu, so dim V_mu sums prod_s C(c_Y(s)+m-1, m-1) C(c_Z(s)+n-1, n-1)
over the compositions c_Y of k into t parts with c_Z >= 0.  A degree is
certified when the containment is proven and rank theta*_k equals that
count: then the image is all of the invariants.  The count rests on the
theorem; the program does not certify it.

Second theorem at X-degree k.  The minors component M_k is spanned by the
degree-(k-t-1) monomials times the minors.  Once theta*(g) = 0 for every
minor g (read once off the degree-(t+1) images), M_k lies in ker theta*_k,
and a degree is certified when rank M_k = |X_k| - rank theta*_k.

A ring is its number of variables and a monomial its exponent vector: X_ij
is variable i*n + j of Q[X], Y_is is i*t + s and Z_sj is m*t + s*n + j of
Q[Y,Z].  Each degree's monomials ascend in lex order of the exponent vector
(graded-lex overall), which fixes every coordinate system deterministically.

The theta* images of the X-monomials of each degree are built, with
integer coefficients, from those of the degree below, and no check keeps
them once it returns; rank theta*_k is computed once per shape and degree:
both theorems read it.  Every coefficient here is an int.  The tests'
oracles (tests/oracles.py) state the definitions with rational polynomials
and compare RREF subspaces; the invariants there are the joint kernel of
the derivations, solved on the weight-zero monomials.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, prod
from typing import NamedTuple

from .exactlin import add_to, rank

Mono = tuple[int, ...]
# a homogeneous polynomial with int coefficients, monomial -> nonzero coefficient
IntPoly = dict[Mono, int]


@lru_cache(maxsize=32)
def monomials(nvars: int, k: int) -> tuple[Mono, ...]:
    """Every degree-k exponent vector over nvars variables, in ascending lex order."""
    out: list[Mono] = []
    for combo in combinations_with_replacement(range(nvars), k):
        mono = [0] * nvars
        for v in combo:
            mono[v] += 1
        out.append(tuple(mono))
    # the multisets come in descending lex order of their exponent vectors
    return tuple(reversed(out))


def _check_args(m: int, n: int, t: int, k: int) -> None:
    if min(m, n, t) < 1:
        raise ValueError("m, n, t must be positive")
    if k < 0:
        raise ValueError("degree must be nonnegative")


# -- theta* -----------------------------------------------------------------------


def _degree_images(m: int, n: int, t: int, lower: dict[Mono, IntPoly], k: int) -> dict[Mono, IntPoly]:
    """theta* of every degree-k X-monomial, in `monomials` order, with int
    coefficients: the image of its degree-(k-1) quotient by its first
    variable X_ij, times sum_s Y_is Z_sj."""
    out = {}
    for x in monomials(m * n, k):
        v = next(v for v, e in enumerate(x) if e)
        i, j = divmod(v, n)
        below = list(x)
        below[v] -= 1
        img: IntPoly = {}
        for mono, c in lower[tuple(below)].items():
            for s in range(t):
                target = list(mono)
                target[i * t + s] += 1
                target[m * t + s * n + j] += 1
                add_to(img, tuple(target), c)
        out[x] = img
    return out


@lru_cache(maxsize=2)
def theta_star_degree(m: int, n: int, t: int, k: int) -> dict[Mono, IntPoly]:
    """theta* of every degree-k X-monomial, built from degree k-1.  The cache
    keeps the degree being extended and its predecessor, and each check
    clears it when it returns, so no degree's images outlive the command."""
    _check_args(m, n, t, k)
    if k == 0:
        return {(0,) * (m * n): {(0,) * (m * t + t * n): 1}}
    return _degree_images(m, n, t, theta_star_degree(m, n, t, k - 1), k)


@lru_cache(maxsize=64)
def theta_star_image(m: int, n: int, t: int, k: int) -> int:
    """dim Im theta*_k: the rank of the degree-k images, each a row keyed by monomial."""
    return rank(theta_star_degree(m, n, t, k).values())


def theta_star_kernel(m: int, n: int, t: int, k: int) -> int:
    """dim ker theta*_k: the degree-k X-monomials less the rank of theta*_k."""
    image = theta_star_image(m, n, t, k)  # first, for its argument check
    return comb(m * n + k - 1, k) - image


# -- the minors ideal -------------------------------------------------------------


def _sign(perm: tuple[int, ...]) -> int:
    """The sign of a permutation of range(len(perm)), by its inversions."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def minor_polys(m: int, n: int, t: int) -> list[IntPoly]:
    """All (t+1) x (t+1) minors of the generic m x n matrix X (variable X_ij
    at index i*n + j); empty if t >= min(m,n)."""
    size = t + 1
    if size > m or size > n:
        return []
    out = []
    for rows in combinations(range(m), size):
        for cols in combinations(range(n), size):
            det: IntPoly = {}
            for perm in permutations(range(size)):
                mono = [0] * (m * n)
                for r, c in zip(rows, perm):
                    mono[r * n + cols[c]] = 1
                det[tuple(mono)] = _sign(perm)
            out.append(det)
    return out


def minors_component(m: int, n: int, t: int, k: int) -> int:
    """dim M_k, the degree-k component of the ideal generated by the
    (t+1) x (t+1) minors: the rank of every degree-(k-t-1) monomial times
    every minor."""
    _check_args(m, n, t, k)
    gens = minor_polys(m, n, t)
    if not gens or k < t + 1:
        return 0
    return rank({tuple(a + b for a, b in zip(cof, mono)): c for mono, c in g.items()}
                for cof in monomials(m * n, k - t - 1) for g in gens)


def _minors_vanish(m: int, n: int, t: int) -> bool:
    """theta*(g) = 0 for every minor g, read off the degree-(t+1) images;
    theta* is multiplicative, so then M_k lies in ker theta*_k for every k."""
    images = theta_star_degree(m, n, t, t + 1)
    for g in minor_polys(m, n, t):
        acc: IntPoly = {}
        for mono, c in g.items():
            for target, v in images[mono].items():
                add_to(acc, target, c * v)
        if acc:
            return False
    return True


# -- the gl_t action ---------------------------------------------------------------


def _derivation_moves(m: int, n: int, t: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """E_ab as (variable, its replacement, sign): E_ab(Y_ib) = -Y_ia, E_ab(Z_aj) = Z_bj."""
    return ([(i * t + b, i * t + a, -1) for i in range(m)]
            + [(m * t + a * n + j, m * t + b * n + j, 1) for j in range(n)])


def _derivation_row(moves: list[tuple[int, int, int]], mono: Mono) -> IntPoly:
    """E_ab(mono) with int coefficients, by the Leibniz rule."""
    out: IntPoly = {}
    for v, w, sign in moves:
        e = mono[v]
        if e:
            target = list(mono)
            target[v] -= 1
            target[w] += 1
            add_to(out, tuple(target), sign * e)
    return out


def _generators_invariant(m: int, n: int, t: int) -> bool:
    """Every E_ab kills every generator image theta*(X_ij), so that each
    E_ab o theta*, a theta*-derivation, is zero on all of Q[X]."""
    derivations = [_derivation_moves(m, n, t, a, b) for a in range(t) for b in range(t)]
    for img in theta_star_degree(m, n, t, 1).values():
        for moves in derivations:
            acc: IntPoly = {}
            for mono, c in img.items():
                for target, v in _derivation_row(moves, mono).items():
                    add_to(acc, target, c * v)
            if acc:
                return False
    return True


def glt_invariants(m: int, n: int, t: int, degree: int) -> int:
    """dim of the gl_t-invariants of Q[Y,Z] in total degree 2k, 0 at odd
    degree: sum_w sign(w) dim V_{rho - w rho} over w in S_t, by Weyl's
    character formula (see the module docstring).  With rho = (t-1, ..., 0),
    rho - w rho is w(s) - s at s, and the compositions c_Y of k into t parts
    are monomials(t, k)."""
    _check_args(m, n, t, degree)
    if degree % 2:
        return 0
    total = 0
    for w in permutations(range(t)):
        mu = [w[s] - s for s in range(t)]
        for c_y in monomials(t, degree // 2):
            c_z = [y + d for y, d in zip(c_y, mu)]
            if min(c_z) >= 0:
                total += _sign(w) * prod(comb(y + m - 1, m - 1) * comb(z + n - 1, n - 1)
                                         for y, z in zip(c_y, c_z))
    return total


# -- theorem reports ---------------------------------------------------------------


class DegreeComparison(NamedTuple):
    degree: int
    dim_left: int
    dim_right: int
    equal: bool  # both sides proven to be one subspace


class FftReport(NamedTuple):
    rows: tuple[DegreeComparison, ...]

    @property
    def ok(self) -> bool:
        return all(r.equal for r in self.rows)

    @property
    def mismatches(self) -> tuple[DegreeComparison, ...]:
        return tuple(r for r in self.rows if not r.equal)


def fft1_check(m: int, n: int, t: int, max_degree: int) -> FftReport:
    """Per total degree D <= max_degree: the invariant count of Weyl's
    character formula against rank theta*_k.

    theta* lands in even total degrees only (X-degree k doubles), so at odd D
    the image is zero and so are the invariants.  A degree is certified when
    Im theta* is proven to lie in the invariants and its rank equals the
    count, which rests on complete reducibility and the character formula.
    """
    contained = _generators_invariant(m, n, t)
    rows = []
    for D in range(max_degree + 1):
        inv = glt_invariants(m, n, t, D)
        img = theta_star_image(m, n, t, D // 2) if D % 2 == 0 else 0
        # no image at odd D, and the constants at D = 0, lie in the invariants
        proven = contained or D % 2 == 1 or D == 0
        rows.append(DegreeComparison(D, inv, img, inv == img and proven))
    theta_star_degree.cache_clear()
    return FftReport(rows=tuple(rows))


def fft2_check(m: int, n: int, t: int, max_degree: int) -> FftReport:
    """Per X-degree k <= max_degree: dim ker theta*_k against dim M_k.  A
    degree is certified when M_k lies in the kernel (or is zero) and the
    dimensions agree.  The containment is read once, at the first degree
    with minors, t + 1."""
    rows = []
    vanish = None
    for k in range(max_degree + 1):
        ker = theta_star_kernel(m, n, t, k)
        mnr = minors_component(m, n, t, k)
        if mnr and vanish is None:
            vanish = _minors_vanish(m, n, t)
        rows.append(DegreeComparison(k, ker, mnr, ker == mnr and (not mnr or vanish)))
    theta_star_degree.cache_clear()
    return FftReport(rows=tuple(rows))
