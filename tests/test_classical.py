"""Commutative side: theta*, minor ideals, infinitesimal invariants."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import oracles
from coinv import classical, cli
from coinv.classical import (
    _derivation_moves,
    _derivation_row,
    fft1_check,
    fft2_check,
    glt_invariants,
    minor_polys,
    minors_component,
    monomials,
    theta_star_degree,
    theta_star_image,
    theta_star_kernel,
)
from coinv.exactlin import rank, solve_homogeneous
from coinv.freealg import theta_matrix
from oracles import (
    DerivationAction,
    monomial_position,
    one,
    padd,
    pmul,
    pscale,
    theta_star_apply,
    theta_star_images,
    to_vector,
    var,
    weight_zero,
    y_var,
    z_var,
)

Q = Fraction


def test_monomial_counts():
    for k in range(5):
        expected = math.comb(4 + k - 1, k)
        assert len(monomials(4, k)) == expected


def test_monomial_order_deterministic():
    monos = monomials(3, 2)
    assert monos == tuple(sorted(monos))
    # X13^2 first, X11^2 last
    assert monos[0] == (0, 0, 2)
    assert monos[-1] == (2, 0, 0)


# X of a 2 x 2 shape, Y and Z of (m, n, t) = (2, 1, 3), and one variable
@pytest.mark.parametrize("nvars", [4, 9, 1])
def test_monomials_sorted_and_positions_counted(nvars):
    for k in range(5):
        monos = monomials(nvars, k)
        assert len(monos) == math.comb(nvars + k - 1, k) == len(set(monos))
        assert monos == tuple(sorted(monos))
        assert all(sum(mono) == k for mono in monos)
        assert [monomial_position(mono) for mono in monos] == list(range(len(monos)))


def test_to_vector_coordinates():
    p = padd(var(2, 0), pscale(var(2, 1), Q(-3)))
    # degree-1 monomials in ascending lex: X21 before X11
    assert to_vector(p, 1) == {1: Q(1), 0: Q(-3)}
    with pytest.raises(ValueError):
        to_vector(padd(p, one(2)), 1)


def rand_poly(nvars, rng, nterms):
    out = {}
    for _ in range(nterms):
        mono = [0] * nvars
        for _ in range(rng.randint(1, 2)):
            mono[rng.randrange(nvars)] += 1
        out = padd(out, {tuple(mono): Q(rng.randint(-3, 3))})
    return out


def test_poly_ring_axioms_random():
    # Q[Y,Z] of (m, n, t) = (2, 1, 2)
    rng = random.Random(11)
    for _ in range(30):
        a = rand_poly(6, rng, 3)
        b = rand_poly(6, rng, 3)
        c = rand_poly(6, rng, 3)
        assert pmul(a, b) == pmul(b, a)
        assert pmul(a, padd(b, c)) == padd(pmul(a, b), pmul(a, c))
        assert padd(a, pscale(a, -1)) == {}


def test_theta_star_generator_image():
    images = theta_star_images(2, 2, 2)
    y00, y01 = var(8, y_var(2, 0, 0)), var(8, y_var(2, 0, 1))
    z01, z11 = var(8, z_var(2, 2, 2, 0, 1)), var(8, z_var(2, 2, 2, 1, 1))
    assert images[1] == padd(pmul(y00, z01), pmul(y01, z11))  # X_01 at index 0*2 + 1


def test_theta_star_multiplicative():
    images = theta_star_images(2, 2, 1)
    # X_00 X_11 in Q[X] of 4 variables, mapped into Q[Y,Z] of 4
    assert theta_star_apply((1, 0, 0, 1), images, 4) == pmul(images[0], images[3])


def test_kernel_is_determinant_for_inner_size_one():
    assert theta_star_kernel(2, 2, 1, 2) == 1
    ker = oracles.theta_star_kernel(2, 2, 1, 2)
    assert ker.dim == 1
    # X_00 X_11 - X_01 X_10, X_ij at index 2i + j
    det = padd(pmul(var(4, 0), var(4, 3)), pscale(pmul(var(4, 1), var(4, 2)), -1))
    assert ker.contains(to_vector(det, 2))
    assert minor_polys(2, 2, 1) == [det]


def test_kernel_equals_minor_ideal_componentwise():
    for m, n, t, top in [(2, 2, 1, 4), (3, 2, 1, 3), (3, 3, 2, 3)]:
        for k in range(top + 1):
            ker, mnr = oracles.theta_star_kernel(m, n, t, k), oracles.minors_component(m, n, t, k)
            assert theta_star_kernel(m, n, t, k) == ker.dim
            assert minors_component(m, n, t, k) == mnr.dim
            assert ker == mnr


def test_minor_polys_shapes():
    assert len(minor_polys(2, 2, 1)) == 1
    assert len(minor_polys(3, 3, 2)) == 1
    assert minor_polys(2, 2, 2) == []
    assert len(minor_polys(3, 2, 1)) == 3


def test_derivation_leibniz():
    act = DerivationAction(2, 2, 2)
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(act.nvars, rng, 3)
        q = rand_poly(act.nvars, rng, 3)
        for a in range(2):
            for b in range(2):
                lhs = act.apply(a, b, pmul(p, q))
                rhs = padd(pmul(act.apply(a, b, p), q), pmul(p, act.apply(a, b, q)))
                assert lhs == rhs


def test_derivations_annihilate_theta_star_images():
    images = theta_star_images(2, 2, 2)
    act = DerivationAction(2, 2, 2)
    for img in images.values():
        for a in range(2):
            for b in range(2):
                assert act.apply(a, b, img) == {}


def test_invariants_match_image_in_low_degree():
    inv, img = oracles.glt_invariants(2, 2, 1, 2), oracles.theta_star_image(2, 2, 1, 1)
    assert inv == img
    assert glt_invariants(2, 2, 1, 2) == theta_star_image(2, 2, 1, 1) == inv.dim
    assert glt_invariants(2, 2, 1, 3) == oracles.glt_invariants(2, 2, 1, 3).dim == 0
    assert glt_invariants(2, 2, 1, 0) == oracles.glt_invariants(2, 2, 1, 0).dim == 1


def brute_force_glt_invariants(m, n, t, degree):
    """Reference: every degree-D monomial under all t^2 derivations, one system."""
    act = DerivationAction(m, n, t)
    monos = monomials(act.nvars, degree)
    equations = {}
    for idx, mono in enumerate(monos):
        for ab in act.var_images:
            img = act.apply(ab[0], ab[1], {mono: Q(1)})
            for target, c in img.items():
                equations.setdefault((ab, monomial_position(target)), {})[idx] = c
    return solve_homogeneous(equations.values(), len(monos))


@pytest.mark.parametrize("m, n, t, degree", [
    *((2, 2, 1, d) for d in range(5)),
    (2, 1, 2, 4), (2, 2, 2, 4), (3, 2, 2, 5), (3, 3, 2, 4), (1, 1, 3, 4), (2, 2, 3, 4),
    (1, 2, 2, 3), (2, 1, 3, 2), (3, 3, 2, 6), (3, 3, 2, 5), (3, 2, 2, 6),
])
def test_glt_invariants_match_brute_force(m, n, t, degree):
    brute = brute_force_glt_invariants(m, n, t, degree)
    assert oracles.glt_invariants(m, n, t, degree) == brute
    assert glt_invariants(m, n, t, degree) == brute.dim


@pytest.mark.parametrize("t", [2, 3])
def test_diagonal_derivation_scales_by_weight(t):
    # the premise of solving on weight-zero monomials: E_aa is diagonal
    act = DerivationAction(2, 3, t)
    rng = random.Random(t)
    for _ in range(30):
        mono = tuple(rng.randint(0, 2) for _ in range(act.nvars))
        weight = act.weight(mono)
        for a in range(t):
            y_col = sum(mono[y_var(t, i, a)] for i in range(2))
            z_row = sum(mono[z_var(2, 3, t, a, j)] for j in range(3))
            assert weight[a] == z_row - y_col
            expected = {mono: Q(weight[a])} if weight[a] else {}
            assert act.apply(a, a, {mono: Q(1)}) == expected


def test_fft1_report():
    rep = fft1_check(2, 2, 1, 4)
    assert rep.ok
    assert [row.dim_left for row in rep.rows] == [1, 0, 4, 0, 9]
    assert all(row.equal for row in rep.rows)


def test_fft2_report():
    rep = fft2_check(2, 2, 1, 4)
    assert rep.ok
    assert [row.dim_left for row in rep.rows] == [0, 0, 1, 4, 10]


def test_free_theta_injective_where_commutative_collapses():
    # the free splitting map has no kernel in degree 2 while its commutative
    # shadow already kills the determinant
    assert rank(theta_matrix(2, 2, 1, 2)) == 16
    assert theta_star_kernel(2, 2, 1, 2) == 1


@pytest.mark.parametrize("m, n, t, k", [(3, 3, 2, 3), (3, 2, 2, 3), (2, 3, 3, 2), (1, 2, 3, 2)])
def test_weight_zero_monomials_are_the_weight_zero_component(m, n, t, k):
    act = DerivationAction(m, n, t)
    monos = monomials(act.nvars, 2 * k)
    assert weight_zero(m, n, t, k) == tuple(mono for mono in monos if not any(act.weight(mono)))


@pytest.mark.parametrize("m, n, t", [(3, 2, 2), (2, 3, 3), (1, 1, 2)])
def test_integer_derivation_rows_match_poly_definition(m, n, t):
    act = DerivationAction(m, n, t)
    rng = random.Random(m * 100 + n * 10 + t)
    monos = [tuple(rng.randint(0, 2) for _ in range(act.nvars)) for _ in range(20)]
    monos += list(weight_zero(m, n, t, 2))
    for mono in monos:
        for a in range(t):
            for b in range(t):
                row = _derivation_row(_derivation_moves(m, n, t, a, b), mono)
                assert row == act.apply(a, b, {mono: Q(1)})


@pytest.mark.parametrize("m, n, t", [(3, 2, 2), (2, 3, 3), (2, 2, 1)])
def test_integer_theta_star_images_match_poly_definition(m, n, t):
    images = theta_star_images(m, n, t)
    for k in range(4):
        degree = theta_star_degree(m, n, t, k)
        assert tuple(degree) == monomials(m * n, k)
        for mono, img in degree.items():
            assert img == theta_star_apply(mono, images, m * t + t * n)


def test_invariant_count_eliminates_nothing(monkeypatch):
    # the weight-zero systems of these degrees have tens of thousands of
    # monomials; the character count reads none of them
    def refuse(rows):
        raise AssertionError("the invariant count eliminated a system")
    monkeypatch.setattr(classical, "rank", refuse)
    assert [glt_invariants(2, 3, 3, D) for D in (10, 12, 14)] == [252, 462, 792]


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 3), (2, 3), (3, 3)])
def test_at_t1_the_count_is_the_weight_zero_count(m, n):
    # at t = 1 no derivation is off-diagonal and rho - w rho is 0, so the
    # oracle's kernel and the character count are every weight-zero monomial
    for degree in range(7):
        expected = 0 if degree % 2 else len(weight_zero(m, n, 1, degree // 2))
        assert glt_invariants(m, n, 1, degree) == oracles.glt_invariants(m, n, 1, degree).dim == expected


def test_odd_degree_invariants_enumerate_nothing(monkeypatch):
    oracle = oracles.glt_invariants(3, 3, 2, 5)
    assert oracle.dim == 0 and oracle.ambient_dim == math.comb(12 + 5 - 1, 5)

    def refuse(*args):
        raise AssertionError("an odd degree enumerated monomials")
    monkeypatch.setattr(classical, "monomials", refuse)
    assert glt_invariants(3, 3, 2, 5) == oracle.dim


def test_each_check_builds_each_degree_of_images_once(monkeypatch, tmp_path):
    """fft1_check builds degrees 1..K once; fft2_check reads the ranks it
    cached and rebuilds only degrees 1..t+1, for the minors, since no check
    keeps the images once it returns."""
    built = []
    degree_images = classical._degree_images

    def counted(m, n, t, lower, k):
        built.append(k)
        return degree_images(m, n, t, lower, k)
    monkeypatch.setattr(classical, "_degree_images", counted)
    classical.theta_star_degree.cache_clear()
    classical.theta_star_image.cache_clear()
    argv = ["classical", "-m", "3", "-n", "3", "-t", "2", "--max-degree", "4",
            "-o", str(tmp_path / "report.json")]
    assert cli.run(argv) == 0
    assert built == [1, 2, 3, 4, 1, 2, 3]


def test_no_theta_star_images_outlive_the_checks():
    """Each check clears the images it built when it returns: after both
    checks nothing of them is still allocated, where keeping every degree
    held most of the peak."""
    classical.theta_star_image.cache_clear()
    tracemalloc.start()
    try:
        fft1_check(2, 3, 3, 10)
        fft2_check(2, 3, 3, 5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert classical.theta_star_degree.cache_info().currsize == 0
    assert peak > 4 << 20 and held < 1 << 20


@pytest.mark.parametrize("entry", [theta_star_degree, theta_star_image, theta_star_kernel,
                                   minors_component, glt_invariants, fft1_check, fft2_check])
@pytest.mark.parametrize("m, n, t", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
@pytest.mark.parametrize("degree", [0, 2])
def test_an_empty_shape_is_refused(entry, m, n, t, degree):
    # a ring of no variables has one monomial, the constant, in degree 0 and
    # none above, so without the check these would count a wrong answer
    with pytest.raises(ValueError):
        entry(m, n, t, degree)


# -- each certificate refutes a broken input ---------------------------------------------


@pytest.fixture
def fresh_images():
    """Empty theta* caches before and after a test that perturbs what fills them."""
    def clear():
        classical.theta_star_degree.cache_clear()
        classical.theta_star_image.cache_clear()
    clear()
    yield
    clear()


def test_perturbed_generator_image_is_refuted(monkeypatch, fresh_images):
    # theta*(X_11) = 2 Y11 Z11 + Y12 Z21 is no longer killed by E_12, so Im
    # theta* is not proven invariant, though the ranks may still agree
    degree_images = classical._degree_images

    def perturbed(m, n, t, lower, k):
        out = degree_images(m, n, t, lower, k)
        if k == 1:
            img = out[next(iter(out))]
            first = min(img)
            img[first] *= 2
        return out
    monkeypatch.setattr(classical, "_degree_images", perturbed)
    rep = fft1_check(2, 2, 2, 4)
    assert [row.degree for row in rep.mismatches] == [2, 4]
    assert all(row.dim_left == row.dim_right for row in rep.rows)


def test_perturbed_minor_is_refuted(monkeypatch):
    # a minor with one coefficient doubled has the same span of multiples in
    # degree t+1 (it is still one nonzero polynomial), but theta* no longer kills it
    minors = classical.minor_polys

    def perturbed(m, n, t):
        out = minors(m, n, t)
        for g in out:
            mono = min(g)
            g[mono] *= 2
        return out
    monkeypatch.setattr(classical, "minor_polys", perturbed)
    rep = fft2_check(3, 3, 2, 3)
    assert [row.degree for row in rep.mismatches] == [3]
    assert (rep.rows[3].dim_left, rep.rows[3].dim_right) == (1, 1)


@pytest.mark.parametrize("mutate, degrees", [
    (lambda sign: -sign, [0, 2, 4]),
    (lambda sign: 1, [2, 4]),
], ids=["every-sign-flipped", "odd-sign-dropped"])
def test_a_flipped_character_sign_is_refuted(monkeypatch, mutate, degrees):
    # Im theta* is still proven invariant, but the count no longer equals its rank
    sign = classical._sign
    monkeypatch.setattr(classical, "_sign", lambda perm: mutate(sign(perm)))
    rep = fft1_check(2, 2, 2, 4)
    assert [row.degree for row in rep.mismatches] == degrees
    assert all(row.dim_left != row.dim_right for row in rep.mismatches)
