"""Presented Hopf cover: structure maps, grading, descent certification."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import diag, identity, jordan, word_product

from coinv.exactlin import add_to
from coinv.fpquot import Presentation
from coinv.hopf import (
    RELATION_DEGREE,
    build_hf,
    check_hopf_compat,
    f_inverse,
    grading_specialize,
)
from oracles import degree_basis, pair_product

Q = Fraction


def grid_f_matrices(t):
    """The standard test matrices at size t."""
    mats = [identity(t)]
    if t == 2:
        mats.append(diag(1, 2))
        mats.append(jordan(2))
    return mats


def random_invertible(t, rng):
    while True:
        rows = [[Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(t)]
                for _ in range(t)]
        try:
            f_inverse(rows)
        except ValueError:
            continue
        return rows


def dense_product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def test_f_inverse_is_exact():
    for F in (jordan(3), diag(1, "2/3", -5), [["1/2", 1], [3, -1]]):
        rows, inverse = tuple(tuple(map(Q, row)) for row in F), f_inverse(F)
        ident = tuple(tuple(int(i == j) for j in range(len(F))) for i in range(len(F)))
        assert dense_product(rows, inverse) == ident
        assert dense_product(inverse, rows) == ident


def test_cover_keeps_the_exact_rows_of_f():
    h = build_hf([[1, "1/2"], [0, 3]])
    assert h.t == 2 and h.F == ((1, Q(1, 2)), (0, 3))
    assert build_hf(iter([[1, "1/2"], [0, 3]])).F == h.F  # rows are read once
    assert repr(h) == "HopfCover(t=2, F=[[1,1/2],[0,3]])"


def test_f_inverse_rejects_ragged_and_nonsquare_rows():
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[1, 0], [0, 1], [1, 1]], [[1, 2]], []):
        with pytest.raises(ValueError, match="^F must be square and nonempty$"):
            f_inverse(rows)
        with pytest.raises(ValueError, match="^F must be square and nonempty$"):
            build_hf(rows)


def test_f_inverse_rejects_singular_and_nonsquare():
    with pytest.raises(ValueError, match="^F must be invertible$"):
        f_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="^F must be invertible$"):
        build_hf([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="^F must be square and nonempty$"):
        f_inverse([[1, 2, 3], [4, 5, 6]])


def test_generator_weights():
    h = build_hf(identity(2))
    alg = h.algebra
    assert alg.word_weight((alg.letter("u", 0, 1),)) == 1
    assert alg.word_weight((alg.letter("v", 1, 0),)) == -1


def test_relation_families_jordan():
    h = build_hf(jordan(2))
    assert len(h.labeled_relations) == 16
    families = {label.split("[")[0] for label, _ in h.labeled_relations}
    assert families == {"u.tv", "tv.u", "v.FtuFi", "FtuFi.v"}


@pytest.mark.parametrize("t", [1, 2])
def test_relation_degree_constant_matches_presentation(t):
    for F in grid_f_matrices(t):
        h = build_hf(F)
        assert h.presentation.max_relation_degree == RELATION_DEGREE
        assert all(max(map(len, r)) == RELATION_DEGREE for _, r in h.labeled_relations)


def test_duplicate_relations_collapse_for_trivial_f():
    h = build_hf(identity(1))
    assert len(h.labeled_relations) == 2


def reference_relations(h):
    """The four relation families and S(v) of h's F, rebuilt from matrix
    products of {word: coefficient} dicts: labels in family, row, column
    order, duplicates dropped."""
    t, alg, F = h.t, h.algebra, h.F
    rng = range(t)

    def mul(a, b):
        out = [[{} for _ in rng] for _ in rng]
        for i in rng:
            for j in rng:
                for k in rng:
                    for w, c in word_product(a[i][k], b[k][j]).items():
                        add_to(out[i][j], w, c)
        return out

    def scalars(m):
        return [[{(): m[i][j]} for j in rng] for i in rng]

    u = [[{(alg.letter("u", i, j),): Q(1)} for j in rng] for i in rng]
    v = [[{(alg.letter("v", i, j),): Q(1)} for j in rng] for i in rng]
    ut = [[u[j][i] for j in rng] for i in rng]
    vt = [[v[j][i] for j in rng] for i in rng]
    fuf = mul(mul(scalars(F), ut), scalars(f_inverse(F)))
    labeled, seen = [], set()
    for fam, mat in (("u.tv", mul(u, vt)), ("tv.u", mul(vt, u)),
                     ("v.FtuFi", mul(v, fuf)), ("FtuFi.v", mul(fuf, v))):
        for i in rng:
            for j in rng:
                rel = dict(mat[i][j])
                if i == j:
                    add_to(rel, (), Q(-1))
                key = tuple(sorted(rel.items()))
                if key not in seen:
                    seen.add(key)
                    labeled.append((f"{fam}[{i + 1},{j + 1}]", rel))
    return labeled, u, v, fuf


@pytest.mark.parametrize("t", [1, 2, 3])
def test_relations_match_the_matrix_product_reference(t):
    rng = random.Random(t)
    mats = [identity(t), diag(*range(2, t + 2)), jordan(t)]
    mats += [random_invertible(t, rng) for _ in range(5)]
    for F in mats:
        h = build_hf(F)
        labeled, u, v, fuf = reference_relations(h)
        assert list(h.labeled_relations) == labeled, F
        for i in range(t):
            for j in range(t):
                assert h.antipode(u[i][j]) == v[j][i]
                assert h.antipode(v[i][j]) == fuf[i][j]


def test_coproduct_is_matrix_comultiplication():
    h = build_hf(jordan(2))
    for name in ("u", "v"):
        for i in range(2):
            for j in range(2):
                img = list(h.delta_word((h.algebra.letter(name, i, j),)))
                ks = set()
                for wl, wr in img:
                    assert len(wl) == 1 and len(wr) == 1
                    _, a, b = h.algebra.letter_info(wl[0])
                    _, b2, c2 = h.algebra.letter_info(wr[0])
                    assert (a, c2) == (i, j) and b == b2
                    ks.add(b)
                assert ks == {0, 1} and len(img) == 2


SIX_F = [
    identity(2), jordan(2), [[1, 2], [3, -1]],
    identity(3), jordan(3), [[1, 2, 0], [3, -1, 0], [0, 0, 1]],
]


@pytest.mark.parametrize("F", SIX_F, ids=lambda F: str(F).replace(" ", ""))
def test_delta_word_is_product_of_generator_coproducts(F):
    """delta_word(w) is the product of Delta(g_ij) = sum_k g_ik (x) g_kj over the
    letters of w, for every word of degree <= 3."""
    h = build_hf(F)
    alg = h.algebra
    gen_delta = {}
    for letter in alg.letters():
        name, i, j = alg.letter_info(letter)
        gen_delta[letter] = {
            ((alg.letter(name, i, k),), (alg.letter(name, k, j),)): Q(1) for k in range(h.t)}
    for deg in range(4):
        for w in degree_basis(alg, deg):
            expected = {((), ()): Q(1)}
            for letter in w:
                expected = pair_product(expected, gen_delta[letter])
            terms = list(h.delta_word(w))
            assert len(set(terms)) == len(terms)
            assert dict.fromkeys(terms, Q(1)) == expected


@pytest.mark.parametrize("F", SIX_F, ids=lambda F: str(F).replace(" ", ""))
def test_antipode_word_is_the_antipode_on_u_words(F):
    """antipode_word(w) is the one word of hopf.antipode(w) for every u-word of
    degree <= 3, and a v-letter anywhere in the word is rejected."""
    h = build_hf(F)
    alg = h.algebra
    u_words = [w for deg in range(4) for w in degree_basis(alg, deg)
               if all(alg.letter_info(a)[0] == "u" for a in w)]
    assert len(u_words) == sum(h.t ** (2 * deg) for deg in range(4))
    for w in u_words:
        s = h.antipode_word(w)
        assert {s: Q(1)} == h.antipode({w: Q(1)})
        assert len(s) == len(w) and all(alg.letter_info(a)[0] == "v" for a in s)
    v = alg.letter("v", 0, h.t - 1)
    for w in [(v,), (v, alg.letter("u", 0, 0)), (alg.letter("u", 1, 0), v)]:
        with pytest.raises(ValueError):
            h.antipode_word(w)


def uv_letters(h):
    """u(i, j) and v(i, j): the letters u_ij and v_ij of h's cover."""
    alg = h.algebra
    return (lambda i, j: alg.letter("u", i, j)), (lambda i, j: alg.letter("v", i, j))


def test_counit_on_generators_and_words():
    h = build_hf(diag(1, 2))
    u, v = uv_letters(h)
    for i in range(2):
        for j in range(2):
            assert h.counit({(u(i, j),): Q(1)}) == (1 if i == j else 0)
    assert h.counit({(u(0, 0), v(1, 1)): Q(1)}) == 1
    assert h.counit({(u(0, 1), u(1, 0)): Q(1)}) == 0
    assert h.counit({(u(0, 0), v(1, 1)): Q(3), (u(0, 1),): Q(5), (): Q(-1, 2)}) == Q(5, 2)


def test_antipode_on_u_transposes_to_v():
    h = build_hf(jordan(2))
    u, v = uv_letters(h)
    for i in range(2):
        for j in range(2):
            assert h.antipode({(u(i, j),): Q(1)}) == {(v(j, i),): Q(1)}


def test_antipode_on_v_twists_by_f():
    h = build_hf(jordan(2))
    u, v = uv_letters(h)
    # S(v_ij) = sum_{a,b} F_ia u_ba F^-1_bj, here F = [[1,1],[0,1]]
    assert h.antipode({(v(0, 0),): Q(1)}) == {(u(0, 0),): Q(1), (u(0, 1),): Q(1)}
    assert h.antipode({(v(1, 1),): Q(1)}) == {(u(1, 1),): Q(1), (u(0, 1),): Q(-1)}


def test_antipode_antimultiplicative():
    h = build_hf(jordan(2))
    u, v = uv_letters(h)
    pairs = [({(u(0, 1),): Q(1)}, {(v(1, 0),): Q(1)}),
             ({(u(0, 1),): Q(1), (v(0, 0),): Q(2)}, {(v(1, 1), u(1, 0)): Q(-1), (): Q(3)})]
    for a, b in pairs:
        assert h.antipode(word_product(a, b)) == word_product(h.antipode(b), h.antipode(a))


def test_structure_maps_are_linear_on_word_dicts():
    """counit and antipode are linear in the coefficients of a word dict, and
    terms that cancel leave no zero entry behind."""
    h = build_hf([[1, 2], [3, -1]])
    u, v = uv_letters(h)
    a = {(u(0, 1), v(1, 0)): Q(2), (v(0, 0),): Q(-1), (): Q(1, 3)}
    b = {(u(1, 1),): Q(5), (v(0, 0),): Q(1), (u(0, 0), u(1, 0)): Q(-3, 2)}
    a_plus_b = dict(a)
    for w, c in b.items():
        add_to(a_plus_b, w, c)
    assert (v(0, 0),) not in a_plus_b
    assert h.counit(a_plus_b) == h.counit(a) + h.counit(b)
    expected = h.antipode(a)
    for key, c in h.antipode(b).items():
        add_to(expected, key, c)
    assert h.antipode(a_plus_b) == expected
    assert all(h.antipode(a_plus_b).values())
    minus_a = {w: -c for w, c in a.items()}
    assert {k: -c for k, c in h.antipode(a).items()} == h.antipode(minus_a)
    assert h.antipode({}) == {} and h.counit({}) == 0


def test_grading_specialization_on_generators():
    h = build_hf(jordan(2))
    alg = h.algebra
    u, v = uv_letters(h)
    assert grading_specialize(alg, {(u(0, 0),): Q(1)}) == {1: Q(1)}
    assert grading_specialize(alg, {(u(0, 1),): Q(1)}) == {}
    assert grading_specialize(alg, {(v(1, 1),): Q(1)}) == {-1: Q(1)}
    assert grading_specialize(alg, {(u(0, 0), v(0, 0)): Q(1)}) == {0: Q(1)}


@pytest.mark.parametrize("t", [1, 2, 3])
def test_relations_annihilated_by_grading(t):
    for F in grid_f_matrices(t):
        h = build_hf(F)
        for _, rel in h.labeled_relations:
            assert grading_specialize(h.algebra, rel) == {}


@pytest.mark.parametrize("t", [1, 2])
def test_hopf_compat_certified_on_grid(t):
    for F in grid_f_matrices(t):
        rep = check_hopf_compat(build_hf(F))
        assert rep.coassoc_ok and rep.counit_laws_ok and rep.counit_kills_relations
        assert rep.certified
        assert rep.status == "certified"


@st.composite
def invertible_f(draw, sizes=(2, 3)):
    t = draw(st.sampled_from(sizes))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rows = draw(st.lists(st.lists(entry, min_size=t, max_size=t), min_size=t, max_size=t))
    try:
        f_inverse(rows)
    except ValueError:
        return draw(st.nothing())
    return rows


@settings(max_examples=25, deadline=None)
@given(invertible_f())
@example(identity(2))
@example(diag(1, 2))
@example(jordan(2))
def test_hopf_compat_certified_at_relation_degree(F):
    # every compatibility condition lies in the span of the relations
    rep = check_hopf_compat(build_hf(F))
    assert RELATION_DEGREE == 2
    assert rep.certified


@pytest.mark.parametrize("t", [1, 2, 3])
def test_counit_kills_relations_random_f(t):
    rng = random.Random(20240 + t)
    for _ in range(5):
        h = build_hf(random_invertible(t, rng))
        for label, rel in h.labeled_relations:
            assert h.counit(rel) == 0, label


def diagonal_word_sum(h, x):
    """eps(x) word by word: the coefficients of the words whose letters are all
    diagonal."""
    alg = h.algebra
    return sum((c for w, c in x.items()
                if all(alg.letter_info(a)[1] == alg.letter_info(a)[2] for a in w)), Q(0))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_counit_is_the_diagonal_word_sum(t):
    """counit, the grading specialization at z = 1, keeps exactly the words of
    diagonal letters, on random dicts holding off-diagonal letters and the
    empty word."""
    rng = random.Random(7 + t)
    h = build_hf(jordan(t))
    letters = list(h.algebra.letters())
    for _ in range(40):
        x = {(): Q(rng.randint(-3, 3))}
        for _ in range(rng.randint(1, 6)):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            add_to(x, w, Q(rng.randint(-5, 5), rng.randint(1, 4)))
        assert h.counit(x) == diagonal_word_sum(h, x)


def pairwise_coproduct_certificate(h, d):
    """Per relation r, whether (NF (x) NF)(Delta r) is zero, built term by term
    as the sum of c NF(w1) (x) NF(w2) over the terms c w1 (x) w2 of Delta r."""
    q = h.quotient(d)
    verdicts = []
    for _, r in h.labeled_relations:
        residual = {}
        for w, c in r.items():
            for w1, w2 in h.delta_word(w):
                for a, ca in q.normal_form_word(w1).items():
                    for b, cb in q.normal_form_word(w2).items():
                        add_to(residual, (a, b), c * ca * cb)
        verdicts.append(not residual)
    return tuple(verdicts)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("fname", ["identity", "jordan", "diag"])
def test_coproduct_certificate_matches_the_pairwise_tensor(preset_hopf, fname, t):
    h = preset_hopf(fname, t)
    rep = check_hopf_compat(h)
    assert rep.relation_coproduct == pairwise_coproduct_certificate(h, RELATION_DEGREE)
    assert all(rep.relation_coproduct)


@settings(max_examples=10, deadline=None)
@given(invertible_f(sizes=(2,)))
def test_coproduct_certificate_matches_the_pairwise_tensor_random_f(F):
    h = build_hf(F)
    rep = check_hopf_compat(h)
    assert rep.relation_coproduct == pairwise_coproduct_certificate(h, RELATION_DEGREE)


def with_extra_term(h, index, word):
    """A copy of h whose relation `index` carries `word` as one more term,
    presented afresh on the same algebra."""
    labeled = list(h.labeled_relations)
    label, rel = labeled[index]
    rel = dict(rel)
    add_to(rel, word, Q(1))
    labeled[index] = (label, rel)
    mutant = copy.copy(h)
    mutant.labeled_relations = tuple(labeled)
    mutant.presentation = Presentation(h.algebra, [r for _, r in labeled])
    return mutant


def test_coproduct_certificate_flags_a_broken_relation():
    """With u11 u11 added to u.tv[1,2], Delta of that relation leaves I (x)
    cover + cover (x) I of the changed ideal, and the certificate flags it
    and no other relation."""
    h = build_hf(jordan(2))
    u, _ = uv_letters(h)
    assert h.labeled_relations[1][0] == "u.tv[1,2]"
    mutant = with_extra_term(h, 1, (u(0, 0), u(0, 0)))
    rep = check_hopf_compat(mutant)
    assert rep.relation_coproduct == tuple(i != 1 for i in range(len(h.labeled_relations)))
    assert rep.relation_coproduct == pairwise_coproduct_certificate(mutant, RELATION_DEGREE)
    assert not rep.certified
    assert all(check_hopf_compat(h).relation_coproduct)


# -- exact scalars: ints where integral, Fractions elsewhere, never floats --------------


def assert_exact(values):
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def assert_exact_cover(h, d):
    """After the compatibility check and the relations' antipode images
    reduced at d: relation coefficients, rule tails, cached normal forms and
    antipode images are ints or non-integral Fractions."""
    check_hopf_compat(h)
    q = h.quotient(d)
    for _, r in h.labeled_relations:
        q.normal_form(h.antipode(r))
    assert_exact(c for _, r in h.labeled_relations for c in r.values())
    assert_exact(c for r in h.presentation.relations for c in r.values())
    rules = h.presentation.completion.rules
    assert rules
    assert_exact(c for _, tail in rules.values() for c in tail.values())
    cache = h.quotient(d)._nf_cache
    assert cache
    assert_exact(c for nf in cache.values() for c in nf.values())
    for letter in h.algebra.letters():
        assert_exact(h.antipode({(letter,): 1}).values())


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("fname", ["identity", "jordan", "diag"])
def test_preset_scalars_are_exact(preset_hopf, fname, t):
    assert_exact_cover(preset_hopf(fname, t), 3 if t < 3 else 2)


@settings(max_examples=10, deadline=None)
@given(invertible_f())
def test_random_f_scalars_are_exact(F):
    assert_exact_cover(build_hf(F), RELATION_DEGREE)


def test_f_refuses_a_float_entry():
    """A float entry is refused with as_exact's TypeError, not stored as the
    binary fraction nearest it; build_hf never sees such an F."""
    with pytest.raises(TypeError, match="inexact"):
        f_inverse([[0.1, 0], [0, 1]])
    with pytest.raises(TypeError, match="inexact"):
        build_hf([[1.0, 0], [0, 2]])
    F = build_hf([["1/10", 0], [Q(2, 4), 1]]).F
    assert F == ((Q(1, 10), 0), (Q(1, 2), 1))
    assert_exact(c for row in F for c in row)
