"""Commutative fundamental theorems at desk scale, degree by degree.

theta* : Q[X] -> Q[Y] (x) Q[Z] = Q[Y,Z] sends X_ij to sum_k Y_ik Z_kj; the
classical theorems identify its image with the gl_t-invariants of Q[Y,Z]
(first theorem) and its kernel with the ideal of (t+1) x (t+1) minors
(second theorem).  Everything here is homogeneous, so each statement reduces
to exact linear algebra on one graded component at a time — no Groebner
machinery.

Invariance is checked through its Lie-algebra linearization: the t^2
polarization derivations E_ab with E_ab(Y_ic) = -delta_bc Y_ia and
E_ab(Z_cj) = delta_ac Z_bj.  Over Q this is equivalent to invariance under
the group action (A, B) -> (A g^-1, g B); the equivalence is classical and
assumed, not certified.

The joint kernel is solved on the weight-zero monomials only, with the
off-diagonal E_ab (a != b).  This is exact: a diagonal E_aa multiplies a
monomial by its weight deg_{Z_a.} - deg_{Y_.a}, so a polynomial is killed by
every E_aa iff each of its monomials has weight zero in every a.  Those
monomials are enumerated directly, never filtered: each is a degree-k
Y-monomial times a degree-k Z-monomial whose Z-row degrees equal the
Y-column degrees, in total degree 2k.  At odd total degree there is none,
so the invariants there are zero by counting.

The theta* images of the X-monomials of each degree are built once, with
integer coefficients, from those of the degree below, and are shared by the
image (first theorem) and the kernel (second theorem).  The `Poly` functions
`theta_star_apply` and `DerivationAction.apply` state the definitions and
are kept as the tests' oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
from typing import NamedTuple

from .exactlin import Subspace, add_to, solve_homogeneous

Q = Fraction

Mono = tuple[int, ...]
Poly = dict[Mono, Q]


class PolyRing:
    """Commutative polynomial ring with matrix-indexed variable groups.

    Monomials are exponent vectors over all variables; within a fixed total
    degree they are enumerated in lexicographic order of the exponent vector
    (graded-lex overall), which fixes all coordinate systems and reduced
    bases deterministically.
    """

    def __init__(self, groups: tuple[tuple[str, int, int], ...]):
        self.groups = tuple(groups)
        self._offsets = {}
        off = 0
        for sym, rows, cols in self.groups:
            if rows < 1 or cols < 1:
                raise ValueError("variable group dimensions must be positive")
            if sym in self._offsets:
                raise ValueError(f"duplicate variable group {sym!r}")
            self._offsets[sym] = (off, rows, cols)
            off += rows * cols
        self.nvars = off
        self._deg_cache: dict[int, tuple[Mono, ...]] = {}

    def var_index(self, sym: str, i: int, j: int) -> int:
        off, rows, cols = self._offsets[sym]
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"index ({i},{j}) out of range for group {sym!r}")
        return off + i * cols + j

    def var(self, sym: str, i: int, j: int) -> Poly:
        mono = tuple(1 if v == self.var_index(sym, i, j) else 0 for v in range(self.nvars))
        return {mono: Q(1)}

    def var_label(self, v: int) -> str:
        for sym, (off, rows, cols) in self._offsets.items():
            if off <= v < off + rows * cols:
                r, c = divmod(v - off, cols)
                return f"{sym}{r + 1}{c + 1}"
        raise ValueError("variable index out of range")

    def mono_label(self, mono: Mono) -> str:
        parts = []
        for v, e in enumerate(mono):
            if e == 1:
                parts.append(self.var_label(v))
            elif e > 1:
                parts.append(f"{self.var_label(v)}^{e}")
        return "*".join(parts) if parts else "1"

    def one(self) -> Poly:
        return {(0,) * self.nvars: Q(1)}

    def component_dim(self, k: int) -> int:
        """The number of degree-k monomials, counted without enumerating them."""
        if k < 0:
            raise ValueError("degree must be nonnegative")
        return comb(self.nvars + k - 1, k)

    def monomials_of_degree(self, k: int) -> tuple[Mono, ...]:
        if k < 0:
            raise ValueError("degree must be nonnegative")
        if k not in self._deg_cache:
            out: list[Mono] = []
            for combo in combinations_with_replacement(range(self.nvars), k):
                mono = [0] * self.nvars
                for v in combo:
                    mono[v] += 1
                out.append(tuple(mono))
            # the multisets come in descending lex order of their exponent vectors
            out.reverse()
            self._deg_cache[k] = tuple(out)
        return self._deg_cache[k]

    def monomial_position(self, mono: Mono) -> int:
        """Index of a monomial in `monomials_of_degree`, counted without
        enumerating: the exponent vectors of its degree that agree with it
        before some entry e and are smaller there leave a degree in
        (rest - e, rest] to the `left` later variables."""
        pos, rest, left = 0, sum(mono), len(mono)
        for e in mono[:-1]:
            left -= 1
            if e:
                pos += comb(rest + left, left) - comb(rest - e + left, left)
                rest -= e
        return pos

    def to_vector(self, p: Poly, k: int) -> dict[int, Q]:
        """Coordinates of a degree-k homogeneous polynomial."""
        vec = {}
        for mono, c in p.items():
            if sum(mono) != k:
                raise ValueError("polynomial is not homogeneous of the requested degree")
            vec[self.monomial_position(mono)] = c
        return vec


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


# -- theta* -----------------------------------------------------------------------


@lru_cache(maxsize=8)
def _rings(m: int, n: int, t: int) -> tuple[PolyRing, PolyRing]:
    """The rings Q[X] and Q[Y,Z] of a shape, built once so their monomial
    enumerations are shared by every degree and every check."""
    if min(m, n, t) < 1:
        raise ValueError("m, n, t must be positive")
    return (PolyRing((("X", m, n),)), PolyRing((("Y", m, t), ("Z", t, n))))


def theta_star_images(m: int, n: int, t: int) -> tuple[PolyRing, PolyRing, dict[int, Poly]]:
    """Source ring, target ring, and the generator images X_ij -> sum_k Y_ik Z_kj."""
    rx, ryz = _rings(m, n, t)
    images = {}
    for i in range(m):
        for j in range(n):
            img: Poly = {}
            for k in range(t):
                img = padd(img, pmul(ryz.var("Y", i, k), ryz.var("Z", k, j)))
            images[rx.var_index("X", i, j)] = img
    return rx, ryz, images


def theta_star_apply(mono: Mono, images: dict[int, Poly], ryz: PolyRing) -> Poly:
    out = ryz.one()
    for v, e in enumerate(mono):
        for _ in range(e):
            out = pmul(out, images[v])
    return out


def _degree_images(m: int, n: int, t: int, lower: dict[Mono, dict[Mono, int]],
                   k: int) -> dict[Mono, dict[Mono, int]]:
    """theta* of every degree-k X-monomial, in `monomials_of_degree` order, with
    int coefficients: the image of its degree-(k-1) quotient by its first
    variable X_ij, times sum_s Y_is Z_sj."""
    rx, _ = _rings(m, n, t)
    out = {}
    for x in rx.monomials_of_degree(k):
        v = next(v for v, e in enumerate(x) if e)
        i, j = divmod(v, n)
        below = list(x)
        below[v] -= 1
        img: dict[Mono, int] = {}
        for mono, c in lower[tuple(below)].items():
            for s in range(t):
                target = list(mono)
                target[i * t + s] += 1
                target[m * t + s * n + j] += 1
                target = tuple(target)
                img[target] = img.get(target, 0) + c
        out[x] = img
    return out


@lru_cache(maxsize=8)
def _images_by_degree(m: int, n: int, t: int) -> list[dict[Mono, dict[Mono, int]]]:
    """theta* images per X-degree, grown one degree at a time by `theta_star_degree`."""
    rx, ryz = _rings(m, n, t)
    return [{(0,) * rx.nvars: {(0,) * ryz.nvars: 1}}]


def theta_star_degree(m: int, n: int, t: int, k: int) -> dict[Mono, dict[Mono, int]]:
    """theta* of every degree-k X-monomial, each degree built once per shape."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    images = _images_by_degree(m, n, t)
    while len(images) <= k:
        images.append(_degree_images(m, n, t, images[-1], len(images)))
    return images[k]


@lru_cache(maxsize=8)
def _weight_zero(m: int, n: int, t: int, k: int) -> dict[Mono, int]:
    """The weight-zero monomials of Q[Y,Z] in total degree 2k, ascending, each
    mapped to its position in the whole component: a degree-k Y-monomial
    times, for every row a of Z, a monomial of Z row a of the degree of
    Y column a."""
    _, ryz = _rings(m, n, t)
    ymonos = PolyRing((("Y", m, t),)).monomials_of_degree(k)
    zrow = PolyRing((("Z", 1, n),))
    monos = []
    for y in ymonos:
        rows = [zrow.monomials_of_degree(sum(y[a::t])) for a in range(t)]
        monos += [y + sum(z, ()) for z in product(*rows)]
    monos.sort()
    return {mono: ryz.monomial_position(mono) for mono in monos}


def theta_star_kernel(m: int, n: int, t: int, k: int) -> Subspace:
    """Kernel of the degree-k component of theta*, over degree-k X-monomials."""
    images = theta_star_degree(m, n, t, k)
    equations: dict[Mono, dict[int, int]] = {}
    for idx, img in enumerate(images.values()):
        for target, c in img.items():
            equations.setdefault(target, {})[idx] = c
    return solve_homogeneous(equations.values(), len(images))


def theta_star_image(m: int, n: int, t: int, k: int) -> Subspace:
    """Image of the degree-k component of theta*, over degree-2k target monomials."""
    images = theta_star_degree(m, n, t, k)
    _, ryz = _rings(m, n, t)
    # every image is gl_t-invariant, so its monomials have weight zero
    position = _weight_zero(m, n, t, k)
    vectors = [{position[mono]: c for mono, c in img.items()} for img in images.values()]
    return Subspace.from_vectors(ryz.component_dim(2 * k), vectors)


# -- the minors ideal -------------------------------------------------------------


def minor_polys(m: int, n: int, t: int) -> list[Poly]:
    """All (t+1) x (t+1) minors of the generic m x n matrix X; empty if t >= min(m,n)."""
    rx, _ = _rings(m, n, t)
    size = t + 1
    if size > m or size > n:
        return []
    out = []
    for rows in combinations(range(m), size):
        for cols in combinations(range(n), size):
            det: Poly = {}
            for perm in permutations(range(size)):
                sign = Q(1)
                for a in range(size):
                    for b in range(a + 1, size):
                        if perm[a] > perm[b]:
                            sign = -sign
                term = rx.one()
                for l in range(size):
                    term = pmul(term, rx.var("X", rows[l], cols[perm[l]]))
                det = padd(det, pscale(term, sign))
            out.append(det)
    return out


def minors_component(m: int, n: int, t: int, k: int) -> Subspace:
    """Degree-k component of the ideal generated by the (t+1) x (t+1) minors."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    rx, _ = _rings(m, n, t)
    nmonos = rx.component_dim(k)
    gens = minor_polys(m, n, t)
    if not gens or k < t + 1:
        return Subspace.zero(nmonos)
    vectors = []
    for cof in rx.monomials_of_degree(k - t - 1):
        cof_poly = {cof: Q(1)}
        for g in gens:
            vectors.append(rx.to_vector(pmul(cof_poly, g), k))
    return Subspace.from_vectors(nmonos, vectors)


# -- the gl_t action ---------------------------------------------------------------


class DerivationAction:
    """The t^2 polarization derivations of the gl_t action on Q[Y, Z]."""

    def __init__(self, m: int, n: int, t: int):
        if min(m, n, t) < 1:
            raise ValueError("m, n, t must be positive")
        self.m, self.n, self.t = m, n, t
        _, self.ring = _rings(m, n, t)
        # var_images[(a, b)][v] = E_ab(variable v), stored sparse
        self.var_images: dict[tuple[int, int], dict[int, Poly]] = {}
        for a in range(t):
            for b in range(t):
                imgs: dict[int, Poly] = {}
                for i in range(m):
                    # E_ab(Y_ic) = -delta_bc Y_ia
                    imgs[self.ring.var_index("Y", i, b)] = pscale(self.ring.var("Y", i, a), -1)
                for j in range(n):
                    # E_ab(Z_cj) = delta_ac Z_bj
                    imgs[self.ring.var_index("Z", a, j)] = self.ring.var("Z", b, j)
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


def _derivation_moves(m: int, n: int, t: int, a: int, b: int) -> list[tuple[int, int, int]]:
    """E_ab as (variable, its replacement, sign): E_ab(Y_ib) = -Y_ia, E_ab(Z_aj) = Z_bj."""
    return ([(i * t + b, i * t + a, -1) for i in range(m)]
            + [(m * t + a * n + j, m * t + b * n + j, 1) for j in range(n)])


def _derivation_row(moves: list[tuple[int, int, int]], mono: Mono) -> dict[Mono, int]:
    """E_ab(mono) with int coefficients, as `DerivationAction.apply` defines it."""
    out: dict[Mono, int] = {}
    for v, w, sign in moves:
        e = mono[v]
        if e:
            target = list(mono)
            target[v] -= 1
            target[w] += 1
            add_to(out, tuple(target), sign * e)
    return out


def glt_invariants(m: int, n: int, t: int, degree: int) -> Subspace:
    """Joint kernel of all t^2 derivations on the total-degree component of Q[Y,Z].

    `degree` is the total degree in the tensor ring (each theta* image of an
    X-degree-k monomial lands in total degree 2k).  The subspace is over all
    monomials of that degree; it is solved on the weight-zero monomials with
    the off-diagonal derivations only (see the module docstring).
    """
    _, ryz = _rings(m, n, t)
    ambient = ryz.component_dim(degree)
    if degree % 2:
        return Subspace.zero(ambient)
    weight_zero = _weight_zero(m, n, t, degree // 2)
    off_diagonal = [_derivation_moves(m, n, t, a, b) for a in range(t) for b in range(t) if a != b]
    # E_ab shifts the weight by -1 at a and +1 at b, so a target monomial
    # names its derivation and is a row key on its own
    equations: dict[Mono, dict[int, int]] = {}
    for local, mono in enumerate(weight_zero):
        for moves in off_diagonal:
            for target, c in _derivation_row(moves, mono).items():
                equations.setdefault(target, {})[local] = c
    kernel = solve_homogeneous(equations.values(), len(weight_zero))
    # the positions increase, so relabelling keeps each row's lead first: still RREF
    cols = list(weight_zero.values())
    return Subspace(ambient, {cols[lead]: {cols[c]: v for c, v in row.items()}
                              for lead, row in zip(kernel.pivot_cols, kernel.basis)})


# -- theorem reports ---------------------------------------------------------------


class DegreeComparison(NamedTuple):
    degree: int
    dim_left: int
    dim_right: int
    equal: bool


class FftReport(NamedTuple):
    m: int
    n: int
    t: int
    rows: tuple[DegreeComparison, ...]

    @property
    def ok(self) -> bool:
        return all(r.equal for r in self.rows)

    @property
    def mismatches(self) -> tuple[DegreeComparison, ...]:
        return tuple(r for r in self.rows if not r.equal)


def fft1_check(m: int, n: int, t: int, max_degree: int) -> FftReport:
    """Per total degree D <= max_degree: gl_t-invariants = theta* image component.

    theta* lands in even total degrees only (X-degree k doubles), so at odd D
    the image component is zero and the invariants must vanish.
    """
    rows = []
    _, ryz = _rings(m, n, t)
    for D in range(max_degree + 1):
        inv = glt_invariants(m, n, t, D)
        if D % 2 == 0:
            img = theta_star_image(m, n, t, D // 2)
        else:
            img = Subspace.zero(ryz.component_dim(D))
        rows.append(DegreeComparison(D, inv.dim, img.dim, inv == img))
    return FftReport(m=m, n=n, t=t, rows=tuple(rows))


def fft2_check(m: int, n: int, t: int, max_degree: int) -> FftReport:
    """Per X-degree k <= max_degree: kernel of theta* = minors-ideal component."""
    rows = []
    for k in range(max_degree + 1):
        ker = theta_star_kernel(m, n, t, k)
        mnr = minors_component(m, n, t, k)
        rows.append(DegreeComparison(k, ker.dim, mnr.dim, ker == mnr))
    return FftReport(m=m, n=n, t=t, rows=tuple(rows))
