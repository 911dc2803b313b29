"""Truncated ideal quotients: normal forms, soundness, determinism, caching."""

import gc
import json
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diag, identity, jordan, word_product
from oracles import degree_basis, quotient_basis

from coinv import cli
from coinv.exactlin import Subspace, add_to
from coinv.fpquot import Presentation, TruncatedQuotient, certified_kernel
from coinv.freealg import FreeAlgebra, GeneratorSet
from coinv.hopf import build_hf

Q = Fraction


def laurent_presentation() -> Presentation:
    """Single inverse pair: x y = y x = 1 (weights +1/-1)."""
    alg = FreeAlgebra([GeneratorSet("x", 1, 1, +1), GeneratorSet("y", 1, 1, -1)])
    x, y = alg.letter("x", 0, 0), alg.letter("y", 0, 0)
    return Presentation(alg, [{(x, y): Q(1), (): Q(-1)}, {(y, x): Q(1), (): Q(-1)}])


def element_sum(*elements):
    """The sum of {word: coefficient} dicts."""
    out = {}
    for x in elements:
        for w, c in x.items():
            add_to(out, w, c)
    return out


def test_presentation_rejects_zero_relation():
    alg = FreeAlgebra([GeneratorSet("x", 1, 1, +1)])
    with pytest.raises(ValueError):
        Presentation(alg, [{}])
    # zero coefficients are dropped, so a relation made of them is zero too
    with pytest.raises(ValueError):
        Presentation(alg, [{(0,): 0, (): Q(0)}])
    assert Presentation(alg, [{(0,): 1, (0, 0): 0}]).relations == ({(0,): Q(1)},)


def test_int_coefficients_give_exact_normal_forms():
    # x0 - 1 with int coefficients: NF(x0) is the int 1, not the float 1.0
    alg = FreeAlgebra([GeneratorSet("x", 1, 1, 0)])
    nf = Presentation(alg, [{(0,): 1, (): -1}]).quotient(2).normal_form_word((0,))
    assert nf == {(): 1}
    assert type(nf[()]) is int


def test_zero_coefficient_word_does_not_raise_the_relation_degree():
    # x0 + 0*x1^3 - 1 is the degree-1 relation x0 - 1, so x0^2 reduces to 1 at d = 3
    alg = FreeAlgebra([GeneratorSet(f"x{i}", 1, 1, 0) for i in range(2)])
    pres = Presentation(alg, [{(0,): 1, (1, 1, 1): 0, (): -1}])
    assert pres.max_relation_degree == 1
    assert pres.quotient(3).normal_form_word((0, 0)) == {(): 1}


def test_string_coefficients_are_read_exactly():
    # (1/2) x0 - 1: x0 reduces to 2
    alg = FreeAlgebra([GeneratorSet("x", 1, 1, 0)])
    pres = Presentation(alg, [{(0,): "1/2", (): -1}])
    assert pres.relations == ({(0,): Q(1, 2), (): -1},)
    nf = pres.quotient(1).normal_form_word((0,))
    assert nf == {(): 2} and type(nf[()]) is int
    with pytest.raises(TypeError):
        Presentation(alg, [{(0,): 0.5, (): -1}])


def test_presentation_rejects_out_of_range_letter():
    alg = FreeAlgebra([GeneratorSet("x", 1, 1, +1)])
    for word in [(1,), (0, 1), (-1,)]:
        with pytest.raises(ValueError):
            Presentation(alg, [{word: Q(1)}])


def test_weight_grading_and_degree_read_off_the_relations():
    """is_weight_graded asks that every word of a relation has one weight;
    max_relation_degree is the longest relation word."""
    laurent = laurent_presentation()
    assert laurent.is_weight_graded and laurent.max_relation_degree == 2
    alg = laurent.algebra
    x, y = alg.letter("x", 0, 0), alg.letter("y", 0, 0)
    # x*x*y has weight +1, as x does; x*y has weight 0
    graded = Presentation(alg, [{(x, x, y): Q(1), (x,): Q(-2)}])
    assert graded.is_weight_graded and graded.max_relation_degree == 3
    mixed = Presentation(alg, [{(x, y): Q(1), (x, y, y): Q(1)}, {(x,): Q(1), (y, x, x): Q(1)}])
    assert not mixed.is_weight_graded and mixed.max_relation_degree == 3
    for F in [identity(2), jordan(2), diag(1, 2, 3)]:
        assert build_hf(F).presentation.is_weight_graded


def test_truncation_below_relation_degree_rejected():
    with pytest.raises(ValueError):
        TruncatedQuotient(laurent_presentation(), 1)


def test_one_cover_gives_one_quotient_per_degree():
    h = build_hf(jordan(2))
    qs = {d: h.quotient(d) for d in (2, 4, 6)}
    assert all(h.quotient(d) is q and q.d == d for d, q in qs.items())
    assert all(q.presentation is h.presentation for q in qs.values())
    # an equal presentation of another cover keeps its own quotients
    assert build_hf(jordan(2)).quotient(4) is not qs[4]


def test_laurent_quotient_dimension():
    # in k[x, x^-1] every weight class is one-dimensional; weights -d..d survive
    for d in (2, 3, 4):
        q = TruncatedQuotient(laurent_presentation(), d)
        assert len(quotient_basis(q)) == 2 * d + 1


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
    q = pres.quotient(4)
    x = {(pres.algebra.letter("x", 0, 0),): Q(1)}
    for r in pres.relations:
        assert q.is_zero_mod(r) is True
        assert q.is_zero_mod(word_product(x, r)) is True
        assert q.is_zero_mod(element_sum(word_product(r, x), word_product({(): Q(2)}, x, r))) \
            is True


def test_nonmember_not_certified():
    pres = laurent_presentation()
    q = pres.quotient(4)
    x = {(pres.algebra.letter("x", 0, 0),): Q(1)}
    assert q.is_zero_mod(x) is False


def test_ideal_dim_monotone_in_truncation():
    pres = laurent_presentation()
    dims = [ideal_span(pres.quotient(d), words_upto(pres.algebra, d)).dim for d in range(2, 6)]
    assert dims == sorted(dims)


def test_normal_form_stable_as_truncation_grows():
    pres = laurent_presentation()
    alg = pres.algebra
    x, y = alg.letter("x", 0, 0), alg.letter("y", 0, 0)
    nf3 = TruncatedQuotient(pres, 3).normal_form_word((x, y, x))
    nf5 = TruncatedQuotient(pres, 5).normal_form_word((x, y, x))
    assert nf3 == nf5


def test_hopf_relations_certified_zero_with_random_ideal_combos():
    h = build_hf(jordan(2))
    q = h.quotient(4)
    rng = random.Random(7)
    alg = h.algebra
    letters = list(alg.letters())
    rels = [r for _, r in h.labeled_relations]
    for _ in range(25):
        terms = []
        for _ in range(rng.randint(1, 3)):
            r = rng.choice(rels)
            c = Q(rng.randint(-3, 3), rng.randint(1, 4))
            side = rng.random()
            w = {(rng.choice(letters),): Q(1)}
            if side < 1 / 3:
                term = word_product(w, r)
            elif side < 2 / 3:
                term = word_product(r, w)
            else:
                term = r
            terms.append(word_product({(): c}, term))
        assert q.is_zero_mod(element_sum(*terms)) is True


def test_quotient_basis_deterministic_across_fresh_objects():
    q1 = TruncatedQuotient(laurent_presentation(), 4)
    q2 = TruncatedQuotient(laurent_presentation(), 4)
    assert quotient_basis(q1) == quotient_basis(q2)
    words = words_upto(q1.presentation.algebra, 4)
    assert [list(q1.normal_form_word(w).items()) for w in words] == \
        [list(q2.normal_form_word(w).items()) for w in words]


def test_shared_quotient_cache_returns_same_object():
    pres = laurent_presentation()
    completion = pres.completion
    x, y = pres.algebra.letter("x", 0, 0), pres.algebra.letter("y", 0, 0)
    qs = {}
    for d in (3, 5, 3, 2):
        q = qs.setdefault(d, pres.quotient(d))
        assert pres.quotient(d) is q
        assert q.normal_form_word((y, x)) == {(): Q(1)}
        # every truncation reads the one completion, extended as far as needed
        assert pres.completion is completion
    assert qs[3] is not qs[5]
    assert max(len(lead) + drop for lead, (drop, _) in completion.rules.items()) <= 5


def test_module_level_wrappers():
    pres = laurent_presentation()
    q = pres.quotient(3)
    x, y = pres.algebra.letter("x", 0, 0), pres.algebra.letter("y", 0, 0)
    assert q.normal_form({(x, y): Q(1)}) == {(): Q(1)}
    assert q.normal_form({(x, y, x): Q(2), (x,): Q(-1)}) == {(x,): Q(1)}
    assert q.is_zero_mod({(x, y): Q(1), (): Q(-1)}) is True


def test_normal_form_rejects_a_word_longer_than_d():
    pres = laurent_presentation()
    x, y = pres.algebra.letter("x", 0, 0), pres.algebra.letter("y", 0, 0)
    for d in (2, 3):
        q = pres.quotient(d)
        too_long = (x, y) * d + (x,)
        for element in ({too_long: Q(1)}, {(x, y): Q(1), too_long: Q(-2)}):
            with pytest.raises(ValueError):
                q.normal_form(element)
            with pytest.raises(ValueError):
                q.is_zero_mod(element)
        # a word of degree d is accepted
        assert q.normal_form({(x,) * d: Q(1)}) == {(x,) * d: Q(1)}


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    # Quotients keep nothing on disk: COINV_CACHE_DIR stays empty, and two
    # fresh quotients agree on a normal form.
    monkeypatch.setenv("COINV_CACHE_DIR", str(tmp_path))
    pres = laurent_presentation()
    alg = pres.algebra
    x, y = alg.letter("x", 0, 0), alg.letter("y", 0, 0)
    nf_fresh = TruncatedQuotient(pres, 3).normal_form_word((x, y, x))
    assert list(tmp_path.rglob("*")) == []
    nf_again = TruncatedQuotient(laurent_presentation(), 3).normal_form_word((x, y, x))
    assert nf_fresh == nf_again == {(x,): Q(1)}


def test_certified_kernel_small_system():
    pres = laurent_presentation()
    q = pres.quotient(3)
    alg = pres.algebra
    x = alg.letter("x", 0, 0)
    y = alg.letter("y", 0, 0)
    # lambda0 * (x*y) + lambda1 * 1 = 0 mod I  <=>  lambda0 + lambda1 = 0
    sol = certified_kernel(q, 2, [[(0, (x, y), Q(1)), (1, (), Q(1))]])
    assert sol.dim == 1
    assert sol.contains({0: Q(1), 1: Q(-1)})
    # x is a unit direction: no kernel among {x, 1} coefficients
    sol2 = certified_kernel(q, 2, [[(0, (x,), Q(1)), (1, (), Q(1))]])
    assert sol2.dim == 0


def test_dropped_cover_quotient_is_collected():
    h = build_hf(jordan(2))
    q = h.quotient(4)
    assert q.is_zero_mod(h.labeled_relations[0][1]) is True
    ref = weakref.ref(q)
    del h, q
    gc.collect()
    assert ref() is None


# -- differential tests against a linear-algebra oracle ---------------------------


def words_upto(alg: FreeAlgebra, d: int) -> list:
    """The words of degree <= d in reduction order (degree desc, then lex)."""
    return [w for k in range(d, -1, -1) for w in degree_basis(alg, k)]


def ideal_span(q: TruncatedQuotient, words) -> Subspace:
    """q's truncated ideal over the columns `words`, read off its normal forms:
    one RREF row w - NF(w) per word w that a rule rewrites."""
    col = {w: i for i, w in enumerate(words)}
    rows = {}
    for w, i in col.items():
        nf = q.normal_form_word(w)
        if nf != {w: Q(1)}:
            rows[i] = {i: Q(1), **{col[u]: -c for u, c in nf.items()}}
    return Subspace(len(words), rows)


def oracle(pres: Presentation, d: int):
    """I_d as the span of every product a*r*b of degree <= d, over the words of
    degree <= d in reduction order (degree desc, then lex)."""
    alg = pres.algebra
    words = words_upto(alg, d)
    col = {w: i for i, w in enumerate(words)}
    vecs = []
    for r in pres.relations:
        room = d - max(map(len, r))
        for da in range(room + 1):
            for db in range(room - da + 1):
                for a in degree_basis(alg, da):
                    for b in degree_basis(alg, db):
                        vecs.append({col[a + w + b]: c for w, c in r.items()})
    return words, col, Subspace.from_vectors(len(words), vecs)


def assert_matches_oracle(pres: Presentation, d: int):
    words, col, span = oracle(pres, d)
    q = TruncatedQuotient(pres, d)
    for w in words:
        expect = {words[i]: c for i, c in span.reduce({col[w]: Q(1)}).items()}
        assert q.normal_form_word(w) == expect, w
    assert ideal_span(q, words) == span
    # soundness: each rule of virtual degree e lies in the oracle's I_e
    oracles = {d: (words, col, span)}
    for lead, (drop, repl) in pres.completion.rules.items():
        e = len(lead) + drop
        if e not in oracles:
            oracles[e] = oracle(pres, e)
        _, col_e, ideal_e = oracles[e]
        rule = {col_e[lead]: Q(1)}
        for u, c in repl.items():
            rule[col_e[u]] = -c
        assert ideal_e.contains(rule), (lead, drop)


@st.composite
def presentations(draw):
    nletters = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(-1, 1), min_size=nletters, max_size=nletters))
    alg = FreeAlgebra([GeneratorSet(f"x{i}", 1, 1, wt) for i, wt in enumerate(weights)])
    word = st.lists(st.integers(0, nletters - 1), max_size=3).map(tuple)
    coef = st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    relation = st.dictionaries(word, coef, min_size=1, max_size=4)
    rels = draw(st.lists(relation, min_size=1, max_size=3))
    d = draw(st.integers(max(len(w) for r in rels for w in r), 5))
    return Presentation(alg, rels), d


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_normal_forms_match_oracle_on_random_presentations(case):
    assert_matches_oracle(*case)


def rule_list(completion):
    """Leads, drops and replacements of a completion, in insertion order."""
    return [(lead, drop, list(repl.items())) for lead, (drop, repl) in completion.rules.items()]


@settings(max_examples=60, deadline=None)
@given(presentations(), st.data())
def test_resumed_completion_matches_a_fresh_one(case, data):
    pres, d1 = case
    d2 = data.draw(st.integers(d1, 6))
    oracles = {d: oracle(pres, d) for d in {d1, d2} if d <= 5}
    first = pres.quotient(d1)
    # query at d1, then d2, then d1 again; the last pass reads the completion
    # extended to d2 through a fresh quotient, without the first one's memo
    for d, q in [(d1, first), (d2, pres.quotient(d2)), (d1, TruncatedQuotient(pres, d1))]:
        quotient_basis(q)
        if d in oracles:
            words, col, span = oracles[d]
            for w in words:
                expect = {words[i]: c for i, c in span.reduce({col[w]: Q(1)}).items()}
                assert q.normal_form_word(w) == expect, (d, w)
    assert pres.quotient(d1) is first
    fresh = Presentation(pres.algebra, pres.relations)
    fresh.completion.extend(d2)
    assert rule_list(pres.completion) == rule_list(fresh.completion)


@pytest.mark.parametrize("F", ["identity", "diag", "jordan"])
def test_stepwise_completion_equals_one_straight_to_8(F):
    F = {"identity": identity(2), "diag": diag(2, 3),
         "jordan": jordan(2)}[F]
    stepwise = build_hf(F)
    for d in range(2, 9):
        stepwise.quotient(d).normal_form_word(())  # the first query extends the completion
    straight = build_hf(F).presentation.completion
    straight.extend(8)
    assert rule_list(stepwise.presentation.completion) == rule_list(straight)


def test_older_lead_inside_a_new_lead_is_completed():
    # the rule x2 h -> -1 (degree 2) has its lead inside the later lead x2 x0
    # (x2 x0 -> 1/2, degree 2); only their inclusion pair, at degree 3, gives
    # x0 h^2 -> -1/2
    alg = FreeAlgebra([GeneratorSet(f"x{i}", 1, 1, 0) for i in range(3)])
    x0, x1, x2 = (alg.letter(f"x{i}", 0, 0) for i in range(3))
    pres = Presentation(alg, [{(): Q(1, 3), (x1,): Q(1)}, {(): Q(1, 3), (x1, x2): Q(-1)},
                              {(): Q(1), (x2, x0): Q(-2)}])
    assert TruncatedQuotient(pres, 3).normal_form_word((0,)) == {(): Q(-1, 2)}
    assert_matches_oracle(pres, 3)


@pytest.mark.parametrize("t, d", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)])
@pytest.mark.parametrize("F", ["identity", "diag", "jordan"])
def test_hopf_normal_forms_match_oracle(t, d, F):
    F = {"identity": identity(t), "jordan": jordan(t),
         "diag": diag(*range(2, t + 2))}[F]
    assert_matches_oracle(build_hf(F).presentation, d)


@pytest.mark.parametrize("t, F, k", [(3, "preset:identity", 2), (2, "preset:jordan", 3)])
def test_certify_fft_past_the_old_block_sizes(t, F, k, tmp_path):
    """Under the auto truncation max(k, 2) and under an explicit 2k+2, which
    completes the quotient at d = 6 (t = 3) and d = 8 (t = 2)."""
    out = tmp_path / "report.json"
    for trunc, ds in [("auto", [max(i, 2) for i in range(k + 1)]),
                      (str(2 * k + 2), [2 * k + 2] * (k + 1))]:
        argv = ["certify-fft", "-m", "1", "-n", "1", "-t", str(t), "--F", F, "-k", str(k),
                "--trunc", trunc, "--format", "json", "-o", str(out)]
        assert cli.run(argv) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "certified"
        assert [(c["dim_coinv"], c["dim_theta"], c["certified"]) for c in report["cases"]] == \
            [(1, 1, True)] * (k + 1)
        assert [c["witness_degree"] for c in report["cases"]] == ds
