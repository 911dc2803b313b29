"""Truncated ideal quotients: normal forms, soundness, determinism, caching."""

import random
from fractions import Fraction

import pytest

from coinv.fpquot import (
    CertStatus,
    Presentation,
    TruncatedQuotient,
    certified_kernel,
    truncated_quotient,
)
from coinv.freealg import FreeAlgebra, GeneratorSet
from coinv.hopf import FMatrix, build_hf

Q = Fraction


def laurent_presentation() -> Presentation:
    """Single inverse pair: x y = y x = 1 (weights +1/-1)."""
    alg = FreeAlgebra([GeneratorSet("x", 1, 1, +1), GeneratorSet("y", 1, 1, -1)])
    x, y = alg.gen("x", 0, 0), alg.gen("y", 0, 0)
    return Presentation(alg, [x * y - alg.one(), y * x - alg.one()])


def test_presentation_rejects_zero_relation():
    alg = FreeAlgebra([GeneratorSet("x", 1, 1, +1)])
    with pytest.raises(ValueError):
        Presentation(alg, [alg.zero()])


def test_presentation_rejects_foreign_relation():
    alg = FreeAlgebra([GeneratorSet("x", 1, 1, +1)])
    other = FreeAlgebra([GeneratorSet("z", 1, 1, +1)])
    with pytest.raises(ValueError):
        Presentation(alg, [other.gen("z", 0, 0)])


def test_truncation_below_relation_degree_rejected():
    with pytest.raises(ValueError):
        TruncatedQuotient(laurent_presentation(), 1)


def test_fingerprint_stable_across_instances():
    assert laurent_presentation().fingerprint == laurent_presentation().fingerprint


def test_laurent_quotient_dimension():
    # in k[x, x^-1] every weight class is one-dimensional; weights -d..d survive
    for d in (2, 3, 4):
        q = TruncatedQuotient(laurent_presentation(), d)
        assert q.quotient_dim() == 2 * d + 1


def test_laurent_normal_forms():
    pres = laurent_presentation()
    q = TruncatedQuotient(pres, 4)
    alg = pres.algebra
    x, y = alg.letter("x", 0, 0), alg.letter("y", 0, 0)
    # x y x  ->  x
    assert q.normal_form_word((x, y, x)) == {(x,): Q(1)}
    # y x y x  ->  1
    assert q.normal_form_word((y, x, y, x)) == {(): Q(1)}
    assert q.normal_form_word((x, x)) == {(x, x): Q(1)}


def test_relations_and_ideal_multiples_certified_zero():
    pres = laurent_presentation()
    q = truncated_quotient(pres, 4)
    alg = pres.algebra
    x = alg.gen("x", 0, 0)
    for r in pres.relations:
        assert q.is_zero_mod(r) is CertStatus.CERTIFIED_ZERO
        assert q.is_zero_mod(x * r) is CertStatus.CERTIFIED_ZERO
        assert q.is_zero_mod(r * x + 2 * (x * r)) is CertStatus.CERTIFIED_ZERO


def test_nonmember_not_certified():
    pres = laurent_presentation()
    q = truncated_quotient(pres, 4)
    x = pres.algebra.gen("x", 0, 0)
    assert q.is_zero_mod(x) is CertStatus.NOT_CERTIFIED
    assert bool(CertStatus.NOT_CERTIFIED) is False
    assert bool(CertStatus.CERTIFIED_ZERO) is True


def test_ideal_dim_monotone_in_truncation():
    pres = laurent_presentation()
    dims = [truncated_quotient(pres, d).ideal_span().dim for d in range(2, 6)]
    assert dims == sorted(dims)


def test_normal_form_stable_as_truncation_grows():
    pres = laurent_presentation()
    alg = pres.algebra
    x, y = alg.letter("x", 0, 0), alg.letter("y", 0, 0)
    nf3 = TruncatedQuotient(pres, 3).normal_form_word((x, y, x))
    nf5 = TruncatedQuotient(pres, 5).normal_form_word((x, y, x))
    assert nf3 == nf5


def test_hopf_relations_certified_zero_with_random_ideal_combos():
    h = build_hf(FMatrix.jordan(2))
    q = h.quotient(4)
    rng = random.Random(7)
    alg = h.algebra
    letters = list(alg.letters())
    rels = [r for _, r in h.labeled_relations]
    for _ in range(25):
        combo = alg.zero()
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(rels)
            c = Q(rng.randint(-3, 3), rng.randint(1, 4))
            side = rng.random()
            w = alg.element({(rng.choice(letters),): Q(1)})
            if side < 1 / 3:
                term = w * r
            elif side < 2 / 3:
                term = r * w
            else:
                term = r
            combo = combo + c * term
        assert q.is_zero_mod(combo) is CertStatus.CERTIFIED_ZERO


def test_quotient_basis_deterministic_across_fresh_objects():
    q1 = TruncatedQuotient(laurent_presentation(), 4)
    q2 = TruncatedQuotient(laurent_presentation(), 4)
    assert q1.quotient_basis() == q2.quotient_basis()
    assert q1.word_order() == q2.word_order()


def test_shared_quotient_cache_returns_same_object():
    q1 = truncated_quotient(laurent_presentation(), 3)
    q2 = truncated_quotient(laurent_presentation(), 3)
    assert q1 is q2


def test_module_level_wrappers():
    pres = laurent_presentation()
    q = truncated_quotient(pres, 3)
    x = pres.algebra.gen("x", 0, 0)
    y = pres.algebra.gen("y", 0, 0)
    assert q.normal_form(x * y) == {(): Q(1)}
    assert q.is_zero_mod(x * y - pres.algebra.one()) is CertStatus.CERTIFIED_ZERO


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("COINV_CACHE_DIR", str(tmp_path))
    pres = laurent_presentation()
    alg = pres.algebra
    x, y = alg.letter("x", 0, 0), alg.letter("y", 0, 0)
    nf_fresh = TruncatedQuotient(pres, 3).normal_form_word((x, y, x))
    cached_files = list(tmp_path.rglob("*"))
    assert any(f.is_file() for f in cached_files)
    nf_cached = TruncatedQuotient(laurent_presentation(), 3).normal_form_word((x, y, x))
    assert nf_fresh == nf_cached


def test_certified_kernel_small_system():
    pres = laurent_presentation()
    q = truncated_quotient(pres, 3)
    alg = pres.algebra
    x = alg.gen("x", 0, 0)
    y = alg.gen("y", 0, 0)
    one = alg.one()
    # lambda0 * (x*y) + lambda1 * 1 = 0 mod I  <=>  lambda0 + lambda1 = 0
    sol = certified_kernel(q, 2, [[(0, x * y), (1, one)]])
    assert sol.dim == 1
    assert sol.contains({0: Q(1), 1: Q(-1)})
    # x is a unit direction: no kernel among {x, 1} coefficients
    sol2 = certified_kernel(q, 2, [[(0, x), (1, one)]])
    assert sol2.dim == 0
