"""Coactions on bimodule word spaces and squeeze-certified coinvariants.

The coaction on every bidegree of A(m,t) (x) A(t,n) is the tests' oracle
(oracles.CoactionContext); the program solves one component, C_(1,1) of the
(1,1,t) block, as Hom(I, U* (x) U), and the tests pin that identification.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from coinv import comod
from coinv.catalg import certify_fft, lemma_base_case
from coinv.comod import ComoduleSpace, off_diagonal_vanish, theta_image_vectors
from coinv.exactlin import add_to, solve_homogeneous
from coinv.freealg import theta_images, theta_matrix
from coinv.hopf import RELATION_DEGREE, build_hf, f_inverse
from conftest import PRESETS, diag, identity, jordan
from oracles import (CoactionContext, bidegree_of, coinvariance_residual, coinvariants, degree_basis,
                     is_coassociative, is_counital, pair_product)

Q = Fraction

@pytest.fixture
def ctx221():
    return CoactionContext(2, 2, build_hf(identity(1)))


@pytest.fixture
def ctx212j():
    return CoactionContext(2, 1, build_hf(jordan(2)))


def test_context_validation():
    with pytest.raises(ValueError):
        CoactionContext(0, 1, build_hf(identity(1)))


def test_flipped_coaction_uses_v_matrix(ctx212j):
    h = ctx212j.hopf
    amt = ctx212j.amt
    # flipped rho(y_01) = sum_k v_1k (x) y_0k
    assert list(ctx212j.flipped_word_terms((amt.letter("y", 0, 1),))) == [
        ((h.algebra.letter("v", 1, 0),), (amt.letter("y", 0, 0),)),
        ((h.algebra.letter("v", 1, 1),), (amt.letter("y", 0, 1),)),
    ]


def test_tensor_coaction_h_legs_are_v_then_u(ctx212j):
    alg = ctx212j.hopf.algebra
    wa = (ctx212j.amt.letter("y", 0, 0), ctx212j.amt.letter("y", 1, 1))
    wb = (ctx212j.atn.letter("z", 0, 0), ctx212j.atn.letter("z", 1, 0))
    for hw, _ in ctx212j.tensor_word_terms(wa, wb):
        assert len(hw) == 4
        names = [alg.letter_info(letter)[0] for letter in hw]
        assert names == ["v", "v", "u", "u"]


def rho_gen(ctx, i, j):
    """rho(y_ij) = sum_k y_ik (x) u_kj, as a {(y-word, u-word): 1} dict."""
    halg = ctx.hopf.algebra
    return {((ctx.amt.letter("y", i, k),), (halg.letter("u", k, j),)): Q(1)
            for k in range(ctx.t)}


def lam_gen(ctx, i, j):
    """lambda(z_ij) = sum_k u_ik (x) z_kj, as a {(u-word, z-word): 1} dict."""
    halg = ctx.hopf.algebra
    return {((halg.letter("u", i, k),), (ctx.atn.letter("z", k, j),)): Q(1)
            for k in range(ctx.t)}


def _flipped_via_antipode(ctx, wa):
    """rho'(w) as {(H-word, target word): coefficient}: rho as the product of
    rho_gen over the letters of w, then the antipode on each u-leg."""
    rho = {((), ()): Q(1)}
    for letter in wa:
        _, i, j = ctx.amt.letter_info(letter)
        rho = pair_product(rho, rho_gen(ctx, i, j))
    out = {}
    for (wy, wu), c in rho.items():
        for ws, cs in ctx.hopf.antipode({wu: Q(1)}).items():
            add_to(out, (ws, wy), c * cs)
    return out


def _lambda_via_lam_gen(ctx, wb):
    """lambda(w) as the product of lam_gen over the letters of w."""
    lam = {((), ()): Q(1)}
    for letter in wb:
        _, i, j = ctx.atn.letter_info(letter)
        lam = pair_product(lam, lam_gen(ctx, i, j))
    return lam


def _alpha_via_antipode(ctx, wa, wb):
    """alpha(w_A (x) w_B) as {target pair: {H-word: coefficient}}, built from
    the antipode reference and lambda as the product of lam_gen."""
    lam = _lambda_via_lam_gen(ctx, wb)
    acc = {}
    for (hs, ta), ca in _flipped_via_antipode(ctx, wa).items():
        for (hu, tb), cb in lam.items():
            add_to(acc.setdefault((ta, tb), {}), hs + hu, ca * cb)
    return {tgt: terms for tgt, terms in acc.items() if terms}


@pytest.mark.parametrize("t, F, max_degree", [
    (2, identity(2), 3),
    (2, jordan(2), 3),
    (2, [[1, 2], [3, -1]], 3),
    (3, identity(3), 2),
    (3, jordan(3), 2),
    (3, [[1, 2, 0], [3, -1, 0], [0, 0, 1]], 2),
])
def test_flipped_word_terms_match_antipode(t, F, max_degree):
    ctx = CoactionContext(2, 1, build_hf(F))
    for deg in range(max_degree + 1):
        for wa in degree_basis(ctx.amt, deg):
            direct = {}
            for hw, tgt in ctx.flipped_word_terms(wa):
                assert (hw, tgt) not in direct
                direct[hw, tgt] = Q(1)
            assert direct == _flipped_via_antipode(ctx, wa)


@pytest.mark.parametrize("n, t", [(1, 2), (2, 2), (2, 3)])
def test_left_word_terms_match_lam_gen_product(n, t):
    ctx = CoactionContext(1, n, build_hf(jordan(t)))
    for deg in range(4):
        for wb in degree_basis(ctx.atn, deg):
            terms = list(ctx.left_word_terms(wb))
            assert len(set(terms)) == len(terms)
            assert dict.fromkeys(terms, Q(1)) == _lambda_via_lam_gen(ctx, wb)


@pytest.mark.parametrize("bidegree", [(1, 1), (2, 1), (2, 2)])
def test_coinvariants_match_antipode_kernel(ctx212j, bidegree):
    d = sum(bidegree) + 2
    q = ctx212j.hopf.quotient(d)
    pairs = ctx212j.pair_basis(bidegree)
    index = {p: s for s, p in enumerate(pairs)}
    rows = {}
    for s, (wa, wb) in enumerate(pairs):
        for tgt, h in _alpha_via_antipode(ctx212j, wa, wb).items():
            for w, c in q.normal_form(h).items():
                add_to(rows.setdefault((index[tgt], w), {}), s, c)
    for tau in range(len(pairs)):
        for w, c in q.normal_form({(): Q(-1)}).items():
            add_to(rows.setdefault((tau, w), {}), tau, c)
    expected = solve_homogeneous(rows.values(), len(pairs))
    assert coinvariants(ctx212j, bidegree, d) == expected


@pytest.mark.parametrize("m, n, t, F, bidegree, npairs", [
    (1, 1, 2, jordan(2), (1, 1), 4),
    (2, 1, 2, jordan(2), (2, 1), 32),
    (1, 2, 3, identity(3), (1, 2), 108),
    (2, 2, 2, [[1, 2], [3, -1]], (2, 2), 256),
], ids=["jordan2-11", "jordan2-21", "identity3-12", "F2-22"])
def test_component_is_an_exact_comodule(m, n, t, F, bidegree, npairs):
    """The coaction rho' (x) lambda on a bidegree component of A(m,t) (x)
    A(t,n) is counital and coassociative exactly in the free cover."""
    space = CoactionContext(m, n, build_hf(F)).component(bidegree)
    assert space.dim == npairs
    assert is_counital(space) and is_coassociative(space)


def test_component_refuses_two_terms_on_one_entry(ctx212j, monkeypatch):
    """A word matrix holds one word per entry: a second term on the same
    target pair must raise, not replace the first."""
    terms = ctx212j.tensor_word_terms

    def repeated(wa, wb):
        out = list(terms(wa, wb))
        return out + out[:1]

    monkeypatch.setattr(ctx212j, "tensor_word_terms", repeated)
    with pytest.raises(ValueError, match="share the entry"):
        ctx212j.component((1, 1))
    with pytest.raises(ValueError, match="share the entry"):
        coinvariants(ctx212j, (1, 1), 4)


def test_pair_basis_round_trip(ctx221):
    basis = ctx221.pair_basis((1, 1))
    assert len(basis) == 4
    assert basis == tuple((wa, wb) for wa in degree_basis(ctx221.amt, 1)
                          for wb in degree_basis(ctx221.atn, 1))
    x = {basis[0]: Q(1), basis[3]: Q(-2)}
    assert bidegree_of(x) == (1, 1)


def test_coinvariants_dimension_balanced(ctx221):
    assert coinvariants(ctx221, (1, 1), 4).dim == 4
    assert coinvariants(ctx221, (2, 2), 6).dim == 16


def test_coinvariants_rejects_low_truncation(ctx221):
    with pytest.raises(ValueError):
        coinvariants(ctx221, (2, 2), 3)


def test_theta_image_inside_computed_space(ctx212j):
    V = coinvariants(ctx212j, (1, 1), 4)
    vecs = theta_matrix(2, 1, 2, 1)
    for vec in vecs:
        assert V.contains(vec)


def test_theta_image_is_coinvariant_exactly(ctx212j):
    for _, pairs in theta_images(2, 1, 2, 1):
        assert coinvariance_residual(ctx212j, dict.fromkeys(pairs, Q(1)), 4) == {}


def test_bare_pair_is_not_coinvariant(ctx212j):
    x = {ctx212j.pair_basis((1, 1))[0]: Q(1)}
    residual = coinvariance_residual(ctx212j, x, 4)
    assert residual


def _assert_block_is_u_star_u(hopf):
    """The (1,1) component of the (1,1,t) block, built by the oracle's word
    pairs, and U*.tensor(U) have one coaction dict, so one certified
    coinvariant space at d = 2, and it holds theta_11(x) = sum_a e_a* (x) e_a."""
    t = hopf.t
    u = ComoduleSpace.standard_left(hopf)
    u_star_u = u.dual().tensor(u)
    block = CoactionContext(1, 1, hopf).component((1, 1))
    assert block.dim == u_star_u.dim == t * t
    assert block.coaction == u_star_u.coaction
    space = comod.coinvariants(u_star_u, RELATION_DEGREE)
    assert comod.coinvariants(block, RELATION_DEGREE) == space
    (theta11,) = theta_image_vectors(t, 1)
    assert theta11 == {a * t + a: 1 for a in range(t)}
    assert space.contains(theta11)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
@pytest.mark.parametrize("fname", sorted(PRESETS))
def test_block_component_is_u_star_tensor_u(fname, t, preset_hopf):
    _assert_block_is_u_star_u(preset_hopf(fname, t))


@st.composite
def invertible_f(draw):
    t = draw(st.integers(1, 4))
    entry = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=t, max_size=t), min_size=t, max_size=t))
    try:
        f_inverse(rows)
    except ValueError:  # singular
        reject()
    return rows


@settings(max_examples=20, deadline=None)
@given(invertible_f())
def test_block_component_is_u_star_tensor_u_for_random_f(F):
    _assert_block_is_u_star_u(build_hf(F))


def test_coinvariants_refuse_a_truncation_below_the_longest_word():
    hopf = build_hf(jordan(2))
    u = ComoduleSpace.standard_left(hopf)
    for space, longest in ((u.dual().tensor(u), 2), (u.tensor_power(3), 3)):
        with pytest.raises(ValueError, match=f"degree {longest}"):
            comod.coinvariants(space, longest - 1)
        assert comod.coinvariants(space, max(longest, RELATION_DEGREE)).ambient_dim == space.dim
    assert comod.coinvariants(ComoduleSpace.trivial(hopf), RELATION_DEGREE).dim == 1


def test_off_diagonal_vanishing_certificates():
    for bidegree in [(1, 0), (0, 1), (2, 1), (1, 3), (4, 2)]:
        cert = off_diagonal_vanish(build_hf(jordan(2)), bidegree)
        assert cert.holds
        assert cert.exponent == bidegree[1] - bidegree[0]


def test_off_diagonal_rejects_balanced_bidegree():
    with pytest.raises(ValueError):
        off_diagonal_vanish(build_hf(identity(1)), (2, 2))


@pytest.mark.parametrize("m, n, fname, t, i, j, d", [
    (1, 1, fname, t, i, j, max(i + j, RELATION_DEGREE)) for fname in ("diag", "identity", "jordan")
    for t in (1, 2, 3) for i, j in ((0, 1), (2, 1), (1, 3))] + [(2, 2, "identity", 1, 2, 1, 5)])
def test_off_diagonal_computed_space_is_zero(m, n, fname, t, i, j, d, preset_hopf):
    """The grading certificate proves the space zero, so the CLI solves nothing
    here; a nonzero certified solve would be an engine bug."""
    ctx = CoactionContext(m, n, preset_hopf(fname, t))
    assert coinvariants(ctx, (i, j), d).dim == 0


def test_certify_fft_squeeze(ctx221):
    rep = certify_fft(2, 2, ctx221.hopf, 2, 6, lemma_base_case(ctx221.hopf, RELATION_DEGREE))
    assert rep.certified
    assert rep.dim_coinv == rep.theta_rank == 16
    assert rep.image_contained
    assert rep.d == 6


def test_certify_fft_nontrivial_f():
    h = build_hf(diag(1, 2))
    rep = certify_fft(1, 1, h, 2, 6, lemma_base_case(h, RELATION_DEGREE))
    assert rep.certified
    assert rep.dim_coinv == 1


def test_certify_fft_rejects_low_truncation(ctx221):
    # the End(U^(x k)) conditions hold u-words of degree k, and no quotient
    # exists below the relation degree 2: the floor is max(k, 2)
    h = ctx221.hopf
    base = lemma_base_case(h, RELATION_DEGREE)
    with pytest.raises(ValueError):
        certify_fft(2, 2, h, 3, 2, base)
    with pytest.raises(ValueError):
        certify_fft(2, 2, h, 0, 1, None)
    assert certify_fft(2, 2, h, 3, 3, base).certified


def test_certify_fft_reads_a_base_case_certified_at_or_below_d(ctx221):
    """A base case certified in I_d' serves every k at d >= d', k = 1
    included: no k reads its dimension, only its containment.  Only k = 0
    needs none."""
    h = ctx221.hopf
    at2, at3 = lemma_base_case(h, 2), lemma_base_case(h, 3)
    assert certify_fft(2, 2, h, 3, 3, at2) == certify_fft(2, 2, h, 3, 3, at3)
    assert certify_fft(2, 2, h, 1, 3, at3) == certify_fft(2, 2, h, 1, 3, at2)
    for k in (1, 2):
        with pytest.raises(ValueError):
            certify_fft(2, 2, h, k, 2, at3)
        with pytest.raises(ValueError):
            certify_fft(2, 2, h, k, 2, None)
    assert certify_fft(2, 2, h, 0, 2, None) == certify_fft(2, 2, h, 0, 2, at2)


def seeded_coinvariants(ctx, seed, max_bidegree=2):
    """One seeded integer combination of the coinvariant basis rows at each
    balanced bidegree (p, p), p <= max_bidegree, each computed at max(2p, 2)."""
    rng = random.Random(seed)
    out = {}
    for p in range(max_bidegree + 1):
        pairs = ctx.pair_basis((p, p))
        x = {}
        for row in coinvariants(ctx, (p, p), max(2 * p, 2)).basis:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            for idx, v in row.items():
                add_to(x, pairs[idx], c * v)
        if x:
            out[p] = x
    return out


def test_subalgebra_products_stay_coinvariant(ctx221):
    # the product lemma: a product of coinvariants of bidegrees (p, p), (q, q)
    # has an empty residual at max(2(p+q), 2), the degree of its coaction legs
    xs = seeded_coinvariants(ctx221, seed=3)
    assert sorted(xs) == [0, 1, 2]
    for p, x in xs.items():
        for q, y in xs.items():
            assert coinvariance_residual(ctx221, pair_product(x, y), max(2 * (p + q), 2)) == {}


@pytest.mark.parametrize("m", [1, 2], ids=["block", "m2"])
@pytest.mark.parametrize("F", [jordan(2), diag(1, 2)],
                         ids=["jordan", "diag"])
def test_subalgebra_products_stay_coinvariant_at_t2(F, m):
    # at t = 2 the quotients are not trivial, so the product lemma has content:
    # each product is certified at its legs' degree, and the same product with
    # one coefficient changed is refuted there
    ctx = CoactionContext(m, 1, build_hf(F))
    xs = seeded_coinvariants(ctx, seed=5)
    assert min(xs) == 0 and max(xs) == 2
    for p, x in xs.items():
        for q, y in xs.items():
            prod = pair_product(x, y)
            d = max(2 * (p + q), 2)
            assert coinvariance_residual(ctx, prod, d) == {}
            if p + q:  # at bidegree (0,0) every scalar is coinvariant
                pair = next(iter(prod))
                assert coinvariance_residual(ctx, {**prod, pair: prod[pair] + 1}, d)


def test_subalgebra_report_records_bidegrees(ctx221):
    xs = seeded_coinvariants(ctx221, seed=1)
    for p, x in xs.items():
        assert bidegree_of(x) == (p, p)
        for q, y in xs.items():
            assert bidegree_of(pair_product(x, y)) == (p + q, p + q)
