"""Commutative fundamental theorems at desk scale, degree by degree.

theta* : Q[X] -> Q[Y] (x) Q[Z] = Q[Y,Z] sends X_ij to sum_k Y_ik Z_kj; the
classical theorems (Procesi, Lie Groups, ch. 9) identify its image with the
gl_t-invariants of Q[Y,Z] (first theorem) and its kernel with the ideal of
(t+1) x (t+1) minors (second theorem).  Everything here is homogeneous, so
each statement is exact linear algebra on one graded component at a time —
no Groebner machinery.  Each side of a theorem is computed as a rank, and a
degree is certified by one containment, proven exactly, and equal
dimensions; no basis of either side is built.

Invariance is checked through its Lie-algebra linearization: the t^2
polarization derivations E_ab with E_ab(Y_ic) = -delta_bc Y_ia and
E_ab(Z_cj) = delta_ac Z_bj.  Over Q this is equivalent to invariance under
the group action (A, B) -> (A g^-1, g B); the equivalence is classical and
assumed, not certified.  A diagonal E_aa multiplies a monomial by its weight
deg_{Z_a.} - deg_{Y_.a}, so every invariant is a combination of weight-zero
monomials.  Those are enumerated directly, never filtered: each is a
degree-k Y-monomial times a degree-k Z-monomial whose Z-row degrees equal
the Y-column degrees, in total degree 2k.  At odd total degree there is
none, so the invariants there are zero by counting.

First theorem at total degree 2k.  R_k is the system of the simple raising
derivations E_{a,a+1} on the weight-zero monomials W0_k.  Each E_ab o theta*
is a theta*-derivation, so once every E_ab kills every generator image
theta*(X_ij), Im theta*_k lies in the invariants, which lie in ker R_k.  A
degree is certified when rank theta*_k = |W0_k| - rank R_k: then the three
spaces are equal, with no theory needed.  The invariant dimension reported
is dim ker R_k.  It is always an upper bound, and it is exact: a weight-zero
vector killed by every simple raising operator is a highest-weight vector
of weight zero, so it spans a trivial submodule (Humphreys, Introduction to
Lie Algebras and Representation Theory, §20-21).

Second theorem at X-degree k.  The minors component M_k is spanned by the
degree-(k-t-1) monomials times the minors.  Once theta*(g) = 0 for every
minor g (read once off the degree-(t+1) images), M_k lies in ker theta*_k,
and a degree is certified when rank M_k = |X_k| - rank theta*_k.

A ring is its number of variables and a monomial its exponent vector: X_ij
is variable i*n + j of Q[X], Y_is is i*t + s and Z_sj is m*t + s*n + j of
Q[Y,Z].  Each degree's monomials ascend in lex order of the exponent vector
(graded-lex overall), which fixes every coordinate system deterministically.

The theta* images of the X-monomials of each degree are built once, with
integer coefficients, from those of the degree below, and rank theta*_k is
computed once per shape and degree: both theorems read it.  Every
coefficient here is an int.  The tests' oracles (tests/oracles.py) state
the definitions with rational polynomials and compare RREF subspaces.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
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


@lru_cache(maxsize=64)
def theta_star_degree(m: int, n: int, t: int, k: int) -> dict[Mono, IntPoly]:
    """theta* of every degree-k X-monomial, built once per shape and degree from degree k-1."""
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
                inversions = sum(a > b for a, b in combinations(perm, 2))
                det[tuple(mono)] = -1 if inversions % 2 else 1
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


@lru_cache(maxsize=8)
def _weight_zero(m: int, n: int, t: int, k: int) -> tuple[Mono, ...]:
    """The weight-zero monomials of Q[Y,Z] in total degree 2k, ascending: a
    degree-k Y-monomial times, for every row a of Z, a monomial of Z row a of
    the degree of Y column a."""
    monos = []
    for y in monomials(m * t, k):
        rows = [monomials(n, sum(y[a::t])) for a in range(t)]
        monos += [y + sum(z, ()) for z in product(*rows)]
    return tuple(sorted(monos))


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


def _raising_rows(m: int, n: int, t: int, k: int) -> list[dict[int, int]]:
    """R_k as equations: one row per monomial that a simple raising
    derivation E_{a,a+1} reaches from the weight-zero monomials of total
    degree 2k, the i-th of N of those at column N-1-i.  E_ab shifts the
    weight by -1 at a and +1 at b, so a target monomial names its derivation.
    Reversed columns, as in exactlin.solve_homogeneous, eliminate in about
    a third of the time of the monomials' own order."""
    raising = [_derivation_moves(m, n, t, a, a + 1) for a in range(t - 1)]
    monos = _weight_zero(m, n, t, k)
    top = len(monos) - 1
    equations: dict[Mono, dict[int, int]] = {}
    for local, mono in enumerate(monos):
        for moves in raising:
            for target, c in _derivation_row(moves, mono).items():
                equations.setdefault(target, {})[top - local] = c
    return list(equations.values())


def glt_invariants(m: int, n: int, t: int, degree: int) -> int:
    """dim ker R_k at total degree 2k in Q[Y,Z], 0 at odd degree: an upper
    bound on the gl_t-invariants, equal to them by highest-weight theory
    (see the module docstring)."""
    _check_args(m, n, t, degree)
    if degree % 2:
        return 0
    k = degree // 2
    return len(_weight_zero(m, n, t, k)) - rank(_raising_rows(m, n, t, k))


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
    """Per total degree D <= max_degree: dim ker R_k against rank theta*_k.

    theta* lands in even total degrees only (X-degree k doubles), so at odd D
    the image is zero and so is ker R_k.  A degree is certified when Im
    theta* is proven to lie in the invariants and the dimensions agree.
    """
    contained = _generators_invariant(m, n, t)
    rows = []
    for D in range(max_degree + 1):
        inv = glt_invariants(m, n, t, D)
        img = theta_star_image(m, n, t, D // 2) if D % 2 == 0 else 0
        # no image at odd D, and the constants at D = 0, lie in the invariants
        proven = contained or D % 2 == 1 or D == 0
        rows.append(DegreeComparison(D, inv, img, inv == img and proven))
    return FftReport(rows=tuple(rows))


def fft2_check(m: int, n: int, t: int, max_degree: int) -> FftReport:
    """Per X-degree k <= max_degree: dim ker theta*_k against dim M_k.  A
    degree is certified when M_k lies in the kernel (or is zero) and the
    dimensions agree."""
    rows = []
    for k in range(max_degree + 1):
        ker = theta_star_kernel(m, n, t, k)
        mnr = minors_component(m, n, t, k)
        rows.append(DegreeComparison(k, ker, mnr, ker == mnr and (not mnr or _minors_vanish(m, n, t))))
    return FftReport(rows=tuple(rows))
