"""certify_fft through End(U^(x k)) and the product lemma.

The route solves the morphism conditions of End(U^(x k)) at m = n = 1 and
proves Im theta_k <= C from one degree-2 check plus the nesting of coaction
legs.  The tests pin the nesting identity against the coaction itself, the
lemma's verdict and the correspondence that reads its base case against a
direct residual of theta_11(x^k), and the End dimensions against the
full-size coinvariant solve.  End(U^(x k)) itself is read off the Groebner
leads when no lead is a pure u-word; the hom_space solve is that
certificate's oracle, and its fallback.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coinv import catalg
from coinv.catalg import (balanced_hom_dim, certify_fft, intertwiner_space, lemma_base_case,
                          main_correspondence_check)
from coinv.freealg import theta_images
from coinv.hopf import RELATION_DEGREE, FMatrix, build_hf
from oracles import CoactionContext, coinvariance_residual, coinvariants, degree_basis, pair_product

Q = Fraction

# (m, n, t, max k) of the acceptance grid, and the balanced spectator shapes
# of tests/test_spectator.py that the grid does not already hold
GRID = ((1, 1, 1, 4), (2, 1, 1, 3), (2, 2, 1, 3), (1, 1, 2, 2), (2, 2, 2, 2))
SPECTATOR = ((2, 1, 2, 1), (3, 2, 2, 1))


def f_matrix(family: str, t: int) -> FMatrix:
    if family == "generic":
        return FMatrix([[1, 2], [3, -1]])
    return {"identity": FMatrix.identity(t), "jordan": FMatrix.jordan(t),
            "diag": FMatrix.diagonal([Q(i + 1) for i in range(t)])}[family]


def families(t: int):
    return ("identity", "diag", "jordan", "generic") if t == 2 else ("identity",)


def theta11(block: CoactionContext, k: int) -> dict:
    ((_, pairs),) = theta_images(1, 1, block.t, k)
    return dict.fromkeys(pairs, Q(1))


@pytest.mark.parametrize("t", [2, 3])
def test_legs_nest(t):
    """leg(wa wa', wb wb') = rev v(wa') . leg(wa, wb) . u(wb') on every term."""
    rng = random.Random(t)
    ctx = CoactionContext(2, 2, build_hf(FMatrix.jordan(t)))
    for _ in range(25):
        p, q = rng.randint(0, 2), rng.randint(1, 2)
        wa, wa2 = rng.choice(degree_basis(ctx.amt, p)), rng.choice(degree_basis(ctx.amt, q))
        wb, wb2 = rng.choice(degree_basis(ctx.atn, p)), rng.choice(degree_basis(ctx.atn, q))
        inner = {tgt: hw for hw, tgt in ctx.tensor_word_terms(wa, wb)}
        outer = {tgt: hw for hw, tgt in ctx.tensor_word_terms(wa2, wb2)}
        nested = {(ta + ta2, tb + tb2): h2[:q] + h + h2[q:]
                  for (ta, tb), h in inner.items() for (ta2, tb2), h2 in outer.items()}
        product = {tgt: hw for hw, tgt in ctx.tensor_word_terms(wa + wa2, wb + wb2)}
        assert product == nested


@pytest.mark.parametrize("t, kmax", [(2, 3), (3, 2)])
@pytest.mark.parametrize("family", ["identity", "diag", "jordan"])
def test_lemma_verdict_matches_direct_residual(t, kmax, family):
    block = CoactionContext(1, 1, build_hf(f_matrix(family, t)))
    x = theta11(block, 1)
    base = lemma_base_case(block.hopf, RELATION_DEGREE)
    power = {((), ()): Q(1)}
    for k in range(1, kmax + 1):
        power = pair_product(power, x)
        assert power == theta11(block, k)  # theta_11(x^k) = theta_11(x)^k
        assert certify_fft(1, 1, block.hopf, k, max(k, 2), base).image_contained
        assert main_correspondence_check(1, 1, block.hopf, k, base).ok
        assert coinvariance_residual(block, power, 2 * k) == {}
        # the residual does see a wrong coefficient
        pair = next(iter(power))
        off = {**power, pair: Q(2)}
        assert coinvariance_residual(block, off, 2 * k)


@pytest.mark.parametrize("m, n, t, kmax", GRID + SPECTATOR)
def test_end_route_dims_equal_full_size_coinvariants(m, n, t, kmax):
    for family in families(t):
        ctx = CoactionContext(m, n, build_hf(f_matrix(family, t)))
        base = lemma_base_case(ctx.hopf, RELATION_DEGREE)
        for k in range(kmax + 1):
            rep = certify_fft(m, n, ctx.hopf, k, max(k, 2), base)
            assert rep.certified
            assert rep.dim_coinv == coinvariants(ctx, (k, k), 2 * k + 2).dim == (m * n) ** k


# -- the lead-word certificate ----------------------------------------------------


def _forbidden(*args):
    raise AssertionError("the lead-word certificate ran a solve")


@pytest.mark.parametrize("t, kmax", [(1, 4), (2, 4), (3, 3)])
def test_lead_certificate_equals_the_end_solve(t, kmax, monkeypatch):
    """With no pure-u lead, balanced_hom_dim reads dim End(U^(x k)) = 1 off
    the leads, with no solve, and the hom_space solve agrees."""
    for family in ("identity", "diag", "jordan") + (("generic",) if t == 2 else ()):
        hopf = build_hf(f_matrix(family, t))
        for k in range(kmax + 1):
            d = max(k, 2)
            with monkeypatch.context() as patch:
                patch.setattr(catalg, "hom_space", _forbidden)
                dim = balanced_hom_dim(2, 3, hopf, k, d)
            assert dim == 6 ** k * intertwiner_space(1, 1, hopf, k, k, d).dim == 6 ** k


@st.composite
def invertible_f(draw):
    entry = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2))
    assume(rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0])
    return FMatrix(rows)


@settings(max_examples=10, deadline=None)
@given(invertible_f())
def test_lead_certificate_equals_the_end_solve_for_random_f(F):
    hopf = build_hf(F)
    for k in range(5):
        d = max(k, 2)
        assert balanced_hom_dim(1, 1, hopf, k, d) == intertwiner_space(1, 1, hopf, k, k, d).dim


@pytest.mark.parametrize("F, d", [
    (FMatrix.identity(2), 6), (FMatrix.diagonal([1, 2]), 6), (FMatrix.jordan(2), 8),
    (FMatrix.jordan(3), 4), (FMatrix([[1, 2], [3, 4]]), 6),
], ids=["identity2", "diag2", "jordan2", "jordan3", "F1234"])
def test_rule_leads_weigh_at_most_their_length_plus_drop_less_two(F, d):
    """|weight(L)| <= |L| + drop - 2 for every rule, u weighing +1 and v -1:
    a lead holds a u and a v unless its rule drops 2 or more, so no rule of
    these completions has a pure-u lead, which the End certificate reads.
    The bound is attained: the maximum of the left side less the right is -2."""
    hopf = build_hf(F)
    completion = hopf.presentation.completion
    completion.extend(d)
    weight = hopf.algebra.word_weight
    assert max(abs(weight(lead)) - len(lead) - drop
               for lead, (drop, _) in completion.rules.items()) == -2


@pytest.mark.parametrize("F, top", [
    (FMatrix.identity(2), 5), (FMatrix.diagonal([1, 2]), 5), (FMatrix.jordan(2), 5),
    (FMatrix([[1, 2], [3, 4]]), 5), (FMatrix.jordan(3), 3), (FMatrix.diagonal([1, 2, 3]), 3),
], ids=["identity2", "diag2", "jordan2", "F1234", "jordan3", "diag3"])
def test_u_words_are_normal_below_truncation_k_plus_2(F, top):
    """At d = max(k + 1, 2) every degree-k u-word is its own normal form: the
    weight-k part of I_d is zero when k >= d - 1, since a product a.r.b of a
    degree-2, weight-0 relation r has degree at least |weight| + 2.  So the
    End(U^(x k)) conditions, combinations of those words, hold mod I_d exactly
    when they hold in the free algebra."""
    hopf = build_hf(F)
    u_letters = list(hopf.algebra.letters("u"))
    for k in range(top + 1):
        q = hopf.presentation.quotient(max(k + 1, 2))
        for w in product(u_letters, repeat=k):
            assert q.normal_form_word(w) == {w: 1}


@pytest.mark.parametrize("t", [2, 3])
def test_a_pure_u_lead_sends_the_certificate_to_the_solve(t, add_pure_u_rules, monkeypatch):
    """A pure-u lead that rewrites nothing still sends every k to the solve,
    which gives 1; with every u-letter a rule to zero, the solve finds all of
    End(U^(x k)) in that algebra, t^(2k) dimensions, and the certificate must
    report the same."""
    solved = []

    def recorder(source, target, d, solve=catalg.hom_space):
        solved.append(source.dim)
        return solve(source, target, d)

    monkeypatch.setattr(catalg, "hom_space", recorder)
    hopf = add_pure_u_rules(build_hf(FMatrix.jordan(t)))
    for k in range(4):
        assert balanced_hom_dim(1, 1, hopf, k, max(k, 2)) == 1
    assert solved == [t ** k for k in range(4)]
    for k in range(4):
        d = max(k, 2)
        hopf = build_hf(FMatrix.jordan(t))
        add_pure_u_rules(hopf, [(u,) for u in hopf.algebra.letters("u")], d)
        assert balanced_hom_dim(1, 1, hopf, k, d) == t ** (2 * k) \
            == intertwiner_space(1, 1, hopf, k, k, d).dim
