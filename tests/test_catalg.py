"""Comodule spaces, morphism spaces, word morphisms and the transport to them."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from coinv import catalg
from coinv.catalg import (
    _hom_matrix,
    block_hom_dim,
    hom_space,
    lemma_base_case,
    main_correspondence_check,
    psi,
)
from conftest import word_product
from oracles import (CoactionContext, coinvariance_residual, degree_basis, direct_power,
                     intertwiner_space, is_coassociative, is_counital, psi_rank)

from coinv.cli import run
from coinv.comod import ComoduleSpace, _morphism_conditions
from coinv.exactlin import Subspace, add_to
from coinv.freealg import matrix_entry_algebra, theta_images
from coinv.hopf import RELATION_DEGREE, FMatrix, build_hf

Q = Fraction


@pytest.fixture(scope="module")
def hj2():
    return build_hf(FMatrix.jordan(2))


def _flat(mat: dict, ncols: int) -> dict:
    """T, given by its entries {(r, c): T[r, c]}, as the hom_space
    coordinates: r * ncols + c holds T[r, c]."""
    return {r * ncols + c: v for (r, c), v in mat.items()}


def _kron(a: dict, b: dict, b_rows: int, b_cols: int) -> dict:
    """Kronecker product of two matrices given by their entry dicts, b of
    shape b_rows x b_cols: block (r, c) of the result is a[r, c] * b."""
    return {(r * b_rows + r2, c * b_cols + c2): v * w
            for (r, c), v in a.items() for (r2, c2), w in b.items()}


def _morphism_rows(source, target, vector):
    """The morphism conditions evaluated on T, given in hom_space
    coordinates, that are nonzero in the free cover: none iff T is an exact
    morphism.  Evaluated condition by condition, with no solve."""
    rows = []
    for terms in _morphism_conditions(source, target):
        acc = {}
        for unknown, h, sign in terms:
            c = vector.get(unknown, 0)
            if c:
                add_to(acc, h, sign * c)
        if acc:
            rows.append(acc)
    return rows


def _literal_conditions(source, target):
    """The morphism condition of each (s, r), read term by term off
    sum_b h[s,b] T[r,b] - sum_c T[c,s] h'[c,r] by scanning every index."""
    for s in range(source.dim):
        for r in range(target.dim):
            terms = [(r * source.dim + b, source.coaction[s, b], 1)
                     for b in range(source.dim) if (s, b) in source.coaction]
            terms += [(c * source.dim + s, target.coaction[c, r], -1)
                      for c in range(target.dim) if (c, r) in target.coaction]
            yield terms


def test_morphism_conditions_match_the_literal_reading(hj2):
    """For sparse and non-square pairs, the grouped walk yields, condition by
    condition, the triples that a scan of every index reads."""
    u = ComoduleSpace.standard_left(hj2)
    pairs = [(ComoduleSpace.trivial(hj2), CoactionContext(1, 1, hj2).component((1, 1))),
             (direct_power(u, 2).tensor(u), u), (u.tensor(u.dual()), u.dual().tensor(u))]
    for source, target in pairs:
        walked = list(_morphism_conditions(source, target))
        literal = list(_literal_conditions(source, target))
        assert len(walked) == len(literal) == source.dim * target.dim
        assert [Counter(terms) for terms in walked] == [Counter(terms) for terms in literal]


def test_standard_comodules_exact_axioms(hj2):
    space = ComoduleSpace.standard_left(hj2)
    assert is_counital(space)
    assert is_coassociative(space)


def test_trivial_comodule(hj2):
    triv = ComoduleSpace.trivial(hj2)
    assert triv.dim == 1
    assert is_counital(triv) and is_coassociative(triv)
    assert triv.coaction[(0, 0)] == ()


def test_dual_coaction_is_v_matrix(hj2):
    u_dual = ComoduleSpace.standard_left(hj2).dual()
    for a in range(2):
        for b in range(2):
            assert u_dual.coaction[(a, b)] == (hj2.algebra.letter("v", a, b),)


def test_dual_comodule_exactly_coassociative(hj2):
    u_dual = ComoduleSpace.standard_left(hj2).dual()
    assert is_counital(u_dual)
    assert is_coassociative(u_dual)


def _reference_coaction(hopf, spec):
    """Coaction entries as {word: coefficient} dicts, built the way the word
    matrices must agree with: U has entries u_ij, U* has S(u_ba) at (a, b),
    direct sums are block diagonal and tensor products multiply entries left
    to right."""
    t = hopf.t
    u = {(i, j): {(hopf.algebra.letter("u", i, j),): Q(1)} for i in range(t) for j in range(t)}
    if spec == "U":
        return t, u
    if spec == "U*":
        return t, {(a, b): hopf.antipode(u[b, a]) for a in range(t) for b in range(t)}
    op, left, right = spec
    (dl, cl), (dr, cr) = _reference_coaction(hopf, left), _reference_coaction(hopf, right)
    if op == "+":
        return dl + dr, {**cl, **{(a + dl, b + dl): h for (a, b), h in cr.items()}}
    co = {}
    for (a, b), h1 in cl.items():
        for (c, d), h2 in cr.items():
            h = word_product(h1, h2)
            if h:
                co[(a * dr + c, b * dr + d)] = h
    return dl * dr, co


@pytest.mark.parametrize("F", [FMatrix.jordan(2), FMatrix([[1, 2], [3, -1]]),
                               FMatrix.identity(3)], ids=lambda F: F.label)
def test_word_coactions_match_element_products(F):
    """Every coaction entry of U^(x k) (k <= 3), (U^2)^(x 2), U (x) U* and
    U* (x) U is the one word of the element product it stands for."""
    hopf = build_hf(F)
    u = ComoduleSpace.standard_left(hopf)
    u2 = ("+", "U", "U")
    cases = [(u.tensor_power(1), "U"), (u.tensor_power(2), ("x", "U", "U")),
             (u.tensor_power(3), ("x", ("x", "U", "U"), "U")),
             (direct_power(u, 2).tensor_power(2), ("x", u2, u2)),
             (u.tensor(u.dual()), ("x", "U", "U*")), (u.dual().tensor(u), ("x", "U*", "U"))]
    for space, spec in cases:
        dim, reference = _reference_coaction(hopf, spec)
        assert space.dim == dim
        assert {key: {h: Q(1)} for key, h in space.coaction.items()} == reference
        assert is_counital(space) and is_coassociative(space)


def test_dual_is_defined_for_u_words_only(hj2):
    u_dual = ComoduleSpace.standard_left(hj2).dual()
    with pytest.raises(ValueError):
        u_dual.dual()
    with pytest.raises(ValueError):
        ComoduleSpace.standard_left(hj2).tensor(u_dual).dual()


def test_tensor_and_power_comodules(hj2):
    u = ComoduleSpace.standard_left(hj2)
    uu = u.tensor(u)
    assert uu.dim == 4
    assert is_counital(uu) and is_coassociative(uu)
    assert u.tensor_power(0).dim == 1
    assert direct_power(u, 3).dim == 6


def test_identity_is_exact_intertwiner(hj2):
    u = ComoduleSpace.standard_left(hj2)
    ident = _flat({(0, 0): 1, (1, 1): 1}, 2)
    assert hom_space(u, u, 2).contains(ident)
    assert _morphism_rows(u, u, ident) == []
    # a map off the line of the identity is not a morphism
    assert not hom_space(u, u, 2).contains({0: 1})
    assert any(hj2.quotient(2).normal_form(row) for row in _morphism_rows(u, u, {0: 1}))


def test_hom_space_rejects_comodules_over_different_covers(hj2):
    u = ComoduleSpace.standard_left(hj2)
    # a cover of another F, and a second cover of the same F: each is refused
    for other_hopf in (build_hf(FMatrix.identity(2)), build_hf(FMatrix.jordan(2))):
        other = ComoduleSpace.standard_left(other_hopf)
        with pytest.raises(ValueError):
            hom_space(u, other, 2)
        with pytest.raises(ValueError):
            hom_space(other, u, 2)


def test_hom_space_endomorphisms_of_standard(hj2):
    u = ComoduleSpace.standard_left(hj2)
    # T[0,0] = T[1,1] at coordinates 0 and 3, the off-diagonal entries zero
    assert hom_space(u, u, 4) == Subspace.from_vectors(4, [{0: 1, 3: 1}])


@pytest.mark.parametrize("fname, t, i, j, d", [
    (fname, t, i, j, max(i, j, RELATION_DEGREE)) for fname in ("diag", "identity", "jordan")
    for t in (1, 2, 3) for i, j in ((0, 1), (2, 1), (1, 3))] + [("jordan", 2, 1, 2, 4)])
def test_hom_space_unbalanced_powers_vanish(fname, t, i, j, d, preset_hopf):
    """The grading certificate proves Hom zero, and the CLI reads it from the
    certificate alone; a nonzero certified solve would be an engine bug."""
    assert block_hom_dim(1, 1, preset_hopf(fname, t), i, j, d) == 0


def test_block_hom_dims(hj2):
    assert block_hom_dim(1, 1, hj2, 1, 1, 4) == 1
    assert block_hom_dim(1, 1, hj2, 1, 2, 5) == 0
    # m and n only name the run: the block is the same
    assert block_hom_dim(2, 3, hj2, 1, 1, 4) == 1
    assert intertwiner_space(2, 1, hj2, 1, 1, 4).dim == 2


@pytest.mark.parametrize("m, n, t, F, i, j", [
    (1, 1, 2, FMatrix.jordan(2), 1, 1),
    (2, 1, 2, FMatrix.jordan(2), 1, 1),
    (1, 1, 2, FMatrix.diagonal([1, 2]), 1, 2),
])
def test_intertwiner_space_maps_have_no_morphism_rows(m, n, t, F, i, j):
    """hom_space solves the conditions that _morphism_rows evaluates: every
    certified map satisfies them exactly in the free cover."""
    d = i + j + 2
    hopf = build_hf(F)
    space = intertwiner_space(m, n, hopf, i, j, d)
    assert space.dim == ((m * n) ** i if i == j else 0)
    u = ComoduleSpace.standard_left(hopf)
    source, target = direct_power(u, m).tensor_power(i), direct_power(u, n).tensor_power(j)
    for row in space.basis:
        assert _morphism_rows(source, target, row) == []


@pytest.mark.parametrize("t, i, j", [(2, 1, 2), (2, 2, 2), (3, 2, 1), (2, 1, 1), (2, 2, 1),
                                     (3, 1, 0), (3, 0, 2)])
def test_block_hom_dim_refuses_above_its_condition_terms(monkeypatch, t, i, j):
    """The estimate a block solve is refused by is the number of (unknown,
    word, sign) triples _morphism_conditions yields for it: at that limit
    the solve runs, one below it SolveTooLarge names the count before any
    comodule is built."""
    hopf = build_hf(FMatrix.jordan(t))
    u = ComoduleSpace.standard_left(hopf)
    terms = sum(map(len, _morphism_conditions(u.tensor_power(i), u.tensor_power(j))))
    d = max(i, j, RELATION_DEGREE)
    monkeypatch.setattr(catalg, "END_SOLVE_TERM_LIMIT", terms)
    assert block_hom_dim(2, 3, hopf, i, j, d) == (i == j)
    monkeypatch.setattr(catalg, "END_SOLVE_TERM_LIMIT", terms - 1)
    monkeypatch.setattr(catalg.ComoduleSpace, "standard_left",
                        lambda hopf: pytest.fail("a comodule was built"))
    with pytest.raises(catalg.SolveTooLarge,
                       match=rf"m=2, n=3, t={t}, i={i}, j={j} needs .* {terms:,} constraint"):
        block_hom_dim(2, 3, hopf, i, j, d)


def test_an_oversized_hom_solve_is_refused_before_any_comodule(monkeypatch, hj2):
    monkeypatch.setattr(catalg, "ComoduleSpace", None)
    with pytest.raises(catalg.SolveTooLarge, match=r"m=1, n=1, t=2, i=9, j=8 .* 100,663,296"):
        block_hom_dim(1, 1, hj2, 9, 8, 9)
    monkeypatch.setattr(catalg, "END_SOLVE_TERM_LIMIT", 47)
    with pytest.raises(catalg.SolveTooLarge, match="48 constraint terms"):
        block_hom_dim(1, 1, hj2, 1, 2, 2)


def test_block_hom_dim_rejects_low_truncation(hj2):
    # the morphism conditions hold words of degree i and j: the floor is max(i, j, 2)
    for i, j, d in [(3, 3, 2), (1, 3, 2), (3, 0, 2), (1, 1, 1)]:
        with pytest.raises(ValueError):
            block_hom_dim(1, 1, hj2, i, j, d)
    assert block_hom_dim(1, 1, hj2, 3, 3, 3) == 1


@pytest.mark.parametrize("F", [FMatrix.identity(2), FMatrix.diagonal([1, 2]),
                               FMatrix.jordan(2)])
def test_evaluation_and_coevaluation_are_morphisms(F):
    """e(e_a (x) f_b) = delta_ab lies in Hom(U (x) U*, I) and d(1) = sum_a f_a
    (x) e_a in Hom(I, U* (x) U) at RELATION_DEGREE: their conditions are the
    antipode laws u v^T = I and v^T u = I, relations themselves."""
    hopf = build_hf(F)
    u = ComoduleSpace.standard_left(hopf)
    u_dual, triv = u.dual(), ComoduleSpace.trivial(hopf)
    q = hopf.quotient(RELATION_DEGREE)
    diagonal = {a * 2 + a: 1 for a in range(2)}  # e[0, aa] and d[aa, 0]
    for source, target in ((u.tensor(u_dual), triv), (triv, u_dual.tensor(u))):
        assert hom_space(source, target, RELATION_DEGREE).contains(diagonal)
        assert not any(q.normal_form(row) for row in _morphism_rows(source, target, diagonal))


def test_psi_empty_word_is_identity():
    assert psi(2, 2, 1, ()) == {(0, 0): 1}


def test_psi_single_letter_block():
    amn = matrix_entry_algebra("x", 2, 1)
    w = (amn.letter("x", 1, 0),)
    f = psi(2, 1, 2, w)
    # block picks summand i=1 of U^2 and lands in summand j=0 of U^1
    assert f == {(0, 2): 1, (1, 3): 1}


def test_psi_reads_each_letter_of_a_mn_and_rejects_others():
    amn = matrix_entry_algebra("x", 2, 3)
    # the letter x_ij picks summand i of U^2 and lands in summand j of U^3
    for letter in amn.letters():
        _, i, j = amn.letter_info(letter)
        assert psi(2, 3, 2, (letter,)) == {(j * 2 + a, i * 2 + a): 1 for a in range(2)}
    for word in [(6,), (0, 6), (-1,)]:
        with pytest.raises(ValueError):
            psi(2, 3, 2, word)


def test_psi_word_is_kron_of_letters():
    amn = matrix_entry_algebra("x", 2, 2)
    w1 = (amn.letter("x", 0, 1),)
    w2 = (amn.letter("x", 1, 0),)
    # each letter is a (nt) x (mt) = 4 x 4 block
    assert psi(2, 2, 2, w1 + w2) == _kron(psi(2, 2, 2, w1), psi(2, 2, 2, w2), 4, 4)


def test_psi_is_exact_morphism(hj2):
    amn = matrix_entry_algebra("x", 2, 1)
    w = (amn.letter("x", 0, 0), amn.letter("x", 1, 0))
    u = ComoduleSpace.standard_left(hj2)
    source, target = direct_power(u, 2).tensor_power(2), u.tensor_power(2)
    f = _flat(psi(2, 1, 2, w), 16)
    assert hom_space(source, target, 2).contains(f)
    assert _morphism_rows(source, target, f) == []


def test_psi_images_linearly_independent():
    amn = matrix_entry_algebra("x", 2, 2)
    words = degree_basis(amn, 2)
    vectors = []
    for w in words:
        vectors.append(_flat(psi(2, 2, 1, w), 4))
    ambient = 4 * 4
    assert Subspace.from_vectors(ambient, vectors).dim == 16


def test_transported_theta_images_match_psi(hj2):
    """Each theta image is a certified coinvariant, by its own residual, and
    transports to the word's morphism."""
    ctx = CoactionContext(2, 1, hj2)
    for w, pairs in theta_images(2, 1, 2, 1):
        image = dict.fromkeys(pairs, Q(1))
        assert coinvariance_residual(ctx, image, 4) == {}
        assert _hom_matrix(2, 1, 2, image) == psi(2, 1, 2, w)


def test_transported_non_coinvariant_is_not_a_morphism(hj2):
    """A lone pair y (x) z is no coinvariant: its residual is nonzero and the
    matrix it transports to lies outside the certified Hom space."""
    ctx = CoactionContext(2, 1, hj2)
    bare = {ctx.pair_basis((1, 1))[0]: Q(1)}
    assert coinvariance_residual(ctx, bare, 4) != {}
    u = ComoduleSpace.standard_left(hj2)
    assert not hom_space(direct_power(u, 2), u, 4).contains(_flat(_hom_matrix(2, 1, 2, bare), 4))


def test_correspondence_check_small_cases(hj2):
    h1 = build_hf(FMatrix.identity(1))
    rep = main_correspondence_check(1, 1, h1, 2, lemma_base_case(h1, 6))
    assert rep.ok and rep.end_u_dim == 1 and psi_rank(1, 1, 1, 2) == rep.equalities_checked == 1
    rep = main_correspondence_check(2, 1, hj2, 1, lemma_base_case(hj2, 4))
    assert rep.ok
    assert rep.equalities_checked == 2
    assert rep.mismatches == ()


def test_psi_rank_is_the_number_of_words_checked():
    """The rank the check reads off its proof, (mn)^k, is the exactlin rank of
    the psi(w) and the number of equalities checked."""
    for t in (1, 2):
        h = build_hf(FMatrix.jordan(t))
        base = lemma_base_case(h, RELATION_DEGREE)
        for m in (1, 2):
            for n in (1, 2):
                for k in range(4):
                    rep = main_correspondence_check(m, n, h, k, base)
                    assert rep.ok
                    assert psi_rank(m, n, t, k) == rep.equalities_checked == (m * n) ** k


def test_a_psi_sending_two_words_to_one_matrix_is_a_mismatch(hj2, monkeypatch):
    """psi's independence is not recomputed: a psi that sends x21 to x11's
    matrix fails the word-by-word equality at x21."""
    monkeypatch.setattr(catalg, "psi", lambda m, n, t, w: psi(m, n, t, (0,) if w == (1,) else w))
    rep = main_correspondence_check(2, 1, hj2, 1, lemma_base_case(hj2, RELATION_DEGREE))
    assert not rep.ok and rep.equalities_checked == 2
    assert rep.mismatches == ("x21",)


def test_correspondence_memory_does_not_grow_with_the_words():
    """The word loop keeps nothing per word: 4,096 words at k = 6 peak well
    under a megabyte of Python allocations."""
    h = build_hf(FMatrix.identity(1))
    base = lemma_base_case(h, RELATION_DEGREE)
    tracemalloc.start()
    try:
        rep = main_correspondence_check(2, 2, h, 6, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.equalities_checked == 4 ** 6
    assert peak < 1 << 20


def test_correspondence_runs_one_block_residual_per_run(hj2, monkeypatch, capsys):
    """The product lemma's base case is the one proof of coinvariance: one
    solve of C_(1,1) on the (1,1,t) block per check, whatever k is, and one
    per `correspondence` run, whatever -k is."""
    calls = []
    base = catalg.coinvariants
    u = ComoduleSpace.standard_left(hj2)
    u_star_u = u.dual().tensor(u).coaction

    def recorder(space, d):
        calls.append((space.coaction == u_star_u, d))
        return base(space, d)

    monkeypatch.setattr(catalg, "coinvariants", recorder)
    for k in range(4):
        calls.clear()
        rep = main_correspondence_check(2, 2, hj2, k, lemma_base_case(hj2, k + 2))
        assert rep.ok and rep.equalities_checked == 4 ** k
        assert calls == [(True, k + 2)]
    calls.clear()
    assert run(["correspondence", "-m", "2", "-n", "2", "-t", "2", "--F", "preset:jordan",
                "-k", "3"]) == 0
    assert calls == [(True, 2)]


def test_correspondence_uncertified_image_is_a_mismatch(hj2, monkeypatch, capsys):
    """A base case that does not contain theta_11(x) fails every word of the
    degree: exit 1 with the words listed, not an internal error."""
    # the block's C_(1,1) forced to the line of one pair, which misses theta_11(x)
    monkeypatch.setattr(catalg, "coinvariants",
                        lambda space, d: Subspace.from_vectors(space.dim, [{0: 1}]))
    rep = main_correspondence_check(2, 1, hj2, 1, lemma_base_case(hj2, 4))
    assert not rep.ok and len(rep.mismatches) == rep.equalities_checked == 2
    assert run(["correspondence", "-m", "2", "-n", "1", "-t", "2", "--F", "preset:jordan",
                "-k", "1"]) == 1
    amn = matrix_entry_algebra("x", 2, 1)
    words = ", ".join(amn.word_label(w) for w in degree_basis(amn, 1))
    out = capsys.readouterr().out
    assert f"degree 1 mismatching words: {words}\n" in out
    assert "degree 0 mismatching words: 1\n" in out


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("family", ["identity", "diag", "jordan"])
def test_correspondence_end_u_dim_is_one_at_relation_degree(t, family):
    F = {"identity": FMatrix.identity(t), "jordan": FMatrix.jordan(t),
         "diag": FMatrix.diagonal([Q(i + 2) for i in range(t)])}[family]
    h = build_hf(F)
    rep = main_correspondence_check(1, 1, h, 2, lemma_base_case(h, RELATION_DEGREE))
    assert rep.end_u_dim == 1 and rep.ok
