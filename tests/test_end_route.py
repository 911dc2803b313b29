"""certify_fft through End(U^(x k)) and the product lemma.

The route solves the morphism conditions of End(U^(x k)) at m = n = 1 and
proves Im theta_k <= C from one degree-2 check plus the nesting of coaction
legs.  The tests pin the nesting identity against the coaction itself, the
lemma's verdict and the correspondence that reads its base case against a
direct residual of theta_11(x^k), and the End dimensions against the
full-size coinvariant solve.  End(U^(x k)) itself is read off the weight
grading below truncation k + 2, and above it off the Groebner leads when no
lead is a pure u-word; the hom_space solve is the oracle of both, and the
leads' fallback.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import diag, identity, jordan

from coinv import catalg
from coinv.catalg import (balanced_hom_dim, block_hom_dim, certify_fft, lemma_base_case,
                          main_correspondence_check)
from coinv.fpquot import Presentation
from coinv.freealg import theta_images
from coinv.hopf import RELATION_DEGREE, build_hf, f_inverse
from oracles import (CoactionContext, coinvariance_residual, coinvariants, degree_basis,
                     intertwiner_space, pair_product)

Q = Fraction

# (m, n, t, max k) of the acceptance grid, and the balanced spectator shapes
# of tests/test_spectator.py that the grid does not already hold
GRID = ((1, 1, 1, 4), (2, 1, 1, 3), (2, 2, 1, 3), (1, 1, 2, 2), (2, 2, 2, 2))
SPECTATOR = ((2, 1, 2, 1), (3, 2, 2, 1))


def f_matrix(family: str, t: int) -> list[list]:
    if family == "generic":
        return [[1, 2], [3, -1]]
    return {"identity": identity(t), "jordan": jordan(t),
            "diag": diag(*range(1, t + 1))}[family]


def families(t: int):
    return ("identity", "diag", "jordan", "generic") if t == 2 else ("identity",)


def theta11(block: CoactionContext, k: int) -> dict:
    ((_, pairs),) = theta_images(1, 1, block.t, k)
    return dict.fromkeys(pairs, Q(1))


@pytest.mark.parametrize("t", [2, 3])
def test_legs_nest(t):
    """leg(wa wa', wb wb') = rev v(wa') . leg(wa, wb) . u(wb') on every term."""
    rng = random.Random(t)
    ctx = CoactionContext(2, 2, build_hf(jordan(t)))
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
    the weight grading at d = max(k, 2) <= k + 1 and off the leads at
    d = k + 2, with no solve, and the hom_space solve agrees."""
    for family in ("identity", "diag", "jordan") + (("generic",) if t == 2 else ()):
        hopf = build_hf(f_matrix(family, t))
        for k in range(kmax + 1):
            for d in sorted({max(k, 2), k + 2}):
                with monkeypatch.context() as patch:
                    patch.setattr(catalg, "hom_space", _forbidden)
                    dim = balanced_hom_dim(2, 3, hopf, k, d)
                assert dim == 6 ** k * intertwiner_space(1, 1, hopf, k, k, d).dim == 6 ** k


@st.composite
def invertible_f(draw, sizes=(2,)):
    t = draw(st.sampled_from(sizes))
    entry = st.builds(Q, st.integers(-3, 3), st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=t, max_size=t), min_size=t, max_size=t))
    try:
        f_inverse(rows)
    except ValueError:  # singular
        assume(False)
    return rows


@settings(max_examples=10, deadline=None)
@given(invertible_f())
def test_lead_certificate_equals_the_end_solve_for_random_f(F):
    hopf = build_hf(F)
    for k in range(5):
        d = max(k, 2)
        assert balanced_hom_dim(1, 1, hopf, k, d) == intertwiner_space(1, 1, hopf, k, k, d).dim


@pytest.mark.parametrize("F, d", [
    (identity(2), 6), (diag(1, 2), 6), (jordan(2), 8),
    (jordan(3), 4), ([[1, 2], [3, 4]], 6),
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
    (identity(2), 5), (diag(1, 2), 5), (jordan(2), 5),
    ([[1, 2], [3, 4]], 5), (jordan(3), 3), (diag(1, 2, 3), 3),
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
    """At d = k + 2, where leads are read, a pure-u lead that rewrites nothing
    still sends every k to the solve, which gives 1; with every u-letter a
    rule to zero, the solve finds all of End(U^(x k)) in that algebra,
    t^(2k) dimensions, and the certificate must report the same."""
    solved = []

    def recorder(source, target, d, solve=catalg.hom_space):
        solved.append(source.dim)
        return solve(source, target, d)

    monkeypatch.setattr(catalg, "hom_space", recorder)
    hopf = add_pure_u_rules(build_hf(jordan(t)))
    for k in range(4):
        assert balanced_hom_dim(1, 1, hopf, k, k + 2) == 1
    assert solved == [t ** k for k in range(4)]
    for k in range(4):
        d = k + 2
        hopf = build_hf(jordan(t))
        add_pure_u_rules(hopf, [(u,) for u in hopf.algebra.letters("u")], d)
        assert balanced_hom_dim(1, 1, hopf, k, d) == t ** (2 * k) \
            == intertwiner_space(1, 1, hopf, k, k, d).dim


# -- the weight lemma: below truncation k + 2 the grading decides End(U^(x k)) --


@settings(max_examples=4, deadline=None)
@given(invertible_f(sizes=(1, 2, 3)))
@example([[1, 2, 0], [3, -1, 1], [1, 1, 2]])
def test_weight_lemma_equals_the_end_solve_for_random_f(F):
    """At d in {k, k + 1} (and d >= 2) balanced_hom_dim answers from the
    weight grading, extending no completion, and the block_hom_dim solve at
    the same d agrees."""
    hopf = build_hf(F)
    cases = [(k, d) for k in range(4) for d in (k, k + 1) if d >= RELATION_DEGREE]
    lemma = [balanced_hom_dim(1, 1, hopf, k, d) for k, d in cases]
    assert hopf.presentation.completion.rules == {}
    assert lemma == [block_hom_dim(1, 1, hopf, k, k, d) for k, d in cases] == [1] * len(cases)


@pytest.mark.parametrize("relation", ["u11.u11", "u11.v11-u11"])
def test_a_relation_outside_the_weight_lemma_reaches_the_leads(relation, monkeypatch):
    """A degree-2 pure-u relation has weight 2, so its degree is below
    |weight| + 2; u11.v11 - u11 is not weight-homogeneous, though its
    leading word u11.v11 has degree 2 and weight 0.  Either presentation
    breaks the lemma's hypothesis, so every k reads the completion, and
    u11.u11, a pure-u lead, sends every k to the solve."""
    solved = []

    def recorder(m, n, hopf, i, j, d, solve=catalg.block_hom_dim):
        solved.append(i)
        return solve(m, n, hopf, i, j, d)

    monkeypatch.setattr(catalg, "block_hom_dim", recorder)
    hopf = build_hf(jordan(2))
    u11, v11 = hopf.algebra.letter("u", 0, 0), hopf.algebra.letter("v", 0, 0)
    extra = {(u11, u11): 1} if relation == "u11.u11" else {(u11, v11): 1, (u11,): -1}
    hopf.presentation = Presentation(hopf.algebra, hopf.presentation.relations + (extra,))
    for k in range(1, 4):
        d = max(k, 2)
        dim = balanced_hom_dim(1, 1, hopf, k, d)
        assert hopf.presentation.completion.rules
        assert dim == intertwiner_space(1, 1, hopf, k, k, d).dim
    if relation == "u11.u11":
        assert solved == [1, 2, 3]


@pytest.mark.parametrize("t", [2, 3])
def test_a_drop_two_pure_u_rule_is_read_at_truncation_k_plus_2(t, add_pure_u_rules):
    """A pure-u rule u -> 0 of drop 2 keeps the bound |weight(L)| <= |L| +
    drop - 2 that every completion of H(F) obeys, and it rewrites a degree-k
    u-word at d = k + 2 but not at d = k + 1.  With one per u-letter, End(U^(x
    k)) is 1 at k + 1, where the weight lemma decides it, and all t^(2k)
    dimensions at k + 2: the lemma may not be applied at k + 2."""
    for k in range(1, 4 if t == 2 else 3):
        hopf = build_hf(jordan(t))
        add_pure_u_rules(hopf, [(u,) for u in hopf.algebra.letters("u")], k + 2, drop=2)
        assert balanced_hom_dim(1, 1, hopf, k, k + 1) == 1
        assert balanced_hom_dim(1, 1, hopf, k, k + 2) == t ** (2 * k) \
            == intertwiner_space(1, 1, hopf, k, k, k + 2).dim
