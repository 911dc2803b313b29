"""certify_fft through End(U^(x k)) and the product lemma.

The route solves the morphism conditions of End(U^(x k)) at m = n = 1 and
proves Im theta_k <= C from one degree-2 check plus the nesting of coaction
legs.  The tests pin the nesting identity against the coaction itself, the
lemma's verdict and the correspondence that reads its base case against a
direct residual of theta_11(x^k), and the End dimensions against the
full-size coinvariant solve.
"""

import random
from fractions import Fraction

import pytest

from coinv.catalg import certify_fft, main_correspondence_check
from coinv.comod import CoactionContext, coinvariance_residual, coinvariants
from coinv.freealg import pair_product, theta_images
from coinv.hopf import FMatrix, build_hf

Q = Fraction

# (m, n, t, max k) of the acceptance grid, and the balanced spectator shapes
# of tests/test_spectator.py that the grid does not already hold
GRID = ((1, 1, 1, 4), (2, 1, 1, 3), (2, 2, 1, 3), (1, 1, 2, 2), (2, 2, 2, 2))
SPECTATOR = ((2, 1, 2, 1), (3, 2, 2, 1))


def f_matrix(family: str, t: int) -> FMatrix:
    if family == "generic":
        return FMatrix.from_rows([[1, 2], [3, -1]])
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
    ctx = CoactionContext(2, 2, t, FMatrix.jordan(t))
    for _ in range(25):
        p, q = rng.randint(0, 2), rng.randint(1, 2)
        wa, wa2 = rng.choice(ctx.amt.degree_basis(p)), rng.choice(ctx.amt.degree_basis(q))
        wb, wb2 = rng.choice(ctx.atn.degree_basis(p)), rng.choice(ctx.atn.degree_basis(q))
        inner = {tgt: hw for hw, tgt in ctx.tensor_word_terms(wa, wb)}
        outer = {tgt: hw for hw, tgt in ctx.tensor_word_terms(wa2, wb2)}
        nested = {(ta + ta2, tb + tb2): h2[:q] + h + h2[q:]
                  for (ta, tb), h in inner.items() for (ta2, tb2), h2 in outer.items()}
        product = {tgt: hw for hw, tgt in ctx.tensor_word_terms(wa + wa2, wb + wb2)}
        assert product == nested


@pytest.mark.parametrize("t, kmax", [(2, 3), (3, 2)])
@pytest.mark.parametrize("family", ["identity", "diag", "jordan"])
def test_lemma_verdict_matches_direct_residual(t, kmax, family):
    block = CoactionContext(1, 1, t, build_hf(f_matrix(family, t)))
    x = theta11(block, 1)
    power = {((), ()): Q(1)}
    for k in range(1, kmax + 1):
        power = pair_product(power, x)
        assert power == theta11(block, k)  # theta_11(x^k) = theta_11(x)^k
        assert certify_fft(block, k, max(k, 2)).image_contained
        assert main_correspondence_check(1, 1, t, block.hopf, k, 2).ok
        assert coinvariance_residual(block, power, 2 * k) == {}
        # the residual does see a wrong coefficient
        pair = next(iter(power))
        off = {**power, pair: Q(2)}
        assert coinvariance_residual(block, off, 2 * k)


@pytest.mark.parametrize("m, n, t, kmax", GRID + SPECTATOR)
def test_end_route_dims_equal_full_size_coinvariants(m, n, t, kmax):
    for family in families(t):
        ctx = CoactionContext(m, n, t, build_hf(f_matrix(family, t)))
        for k in range(kmax + 1):
            rep = certify_fft(ctx, k, max(k, 2))
            assert rep.certified
            assert rep.dim_coinv == coinvariants(ctx, (k, k), 2 * k + 2).dim == (m * n) ** k
