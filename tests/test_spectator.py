"""Spectator factorisation: the (1,1) block decides every (m,n) shape.

The coaction changes only the t-index of a letter, so the bidegree (i,j)
component at (m,n) is m^i n^j copies of the one at (1,1).  The full-size
`oracles.coinvariants` and `oracles.intertwiner_space` are the oracle here:
the lifted (1,1) space must equal the directly computed one, and every
command that solves only the block must report what the full-size solve
gives.
"""

import json
from fractions import Fraction
from itertools import product

import pytest

from coinv import catalg, comod
from coinv import cli as cli_module
from coinv.catalg import block_hom_dim, certify_fft, lemma_base_case
from coinv.comod import theta_image_vectors
from coinv.exactlin import Subspace
from coinv.freealg import theta_matrix
from coinv.hopf import RELATION_DEGREE, FMatrix, build_hf
from oracles import CoactionContext, coinvariants, intertwiner_space

Q = Fraction

_FS = {
    "jordan": FMatrix.jordan(2),
    "diag12": FMatrix.diagonal([1, 2]),
    "generic": FMatrix([[1, 2], [3, -1]]),
}
_SHAPES = ((2, 2, 2, 2), (2, 1, 1, 1), (3, 2, 1, 1), (2, 3, 2, 1))


def lift(ctx: CoactionContext, block: CoactionContext, bidegree, V11: Subspace) -> Subspace:
    """The m^i n^j copies of V11 in pair_basis coordinates of ctx: each full
    pair splits as (row i-tuple of its A-word, block pair, column j-tuple of
    its B-word)."""
    i, j = bidegree
    index = {p: s for s, p in enumerate(ctx.pair_basis(bidegree))}
    block_pairs = block.pair_basis(bidegree)
    vectors = []
    for rows in product(range(ctx.m), repeat=i):
        for cols in product(range(ctx.n), repeat=j):
            for vec in V11.basis:
                out = {}
                for s, c in vec.items():
                    wa, wb = block_pairs[s]
                    fa = tuple(ctx.amt.letter("y", a, block.amt.letter_info(l)[2])
                               for a, l in zip(rows, wa))
                    fb = tuple(ctx.atn.letter("z", block.atn.letter_info(l)[1], b)
                               for b, l in zip(cols, wb))
                    out[index[fa, fb]] = c
                vectors.append(out)
    return Subspace.from_vectors(len(index), vectors)


def _report(capsys, argv):
    assert cli_module.run(argv + ["--format", "json"]) in (0, 1, 2)
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("m,n,i,j", _SHAPES)
@pytest.mark.parametrize("fname", sorted(_FS))
def test_lifted_block_equals_direct_solve(fname, m, n, i, j, capsys):
    hopf = build_hf(_FS[fname])
    d = i + j + 2
    ctx = CoactionContext(m, n, hopf)
    block = CoactionContext(1, 1, hopf)
    V11 = coinvariants(block, (i, j), d)
    full = coinvariants(ctx, (i, j), d)
    assert lift(ctx, block, (i, j), V11) == full
    assert full.dim == m ** i * n ** j * V11.dim

    homs = intertwiner_space(m, n, hopf, i, j, d).dim
    assert homs == m ** i * n ** j * block_hom_dim(m, n, hopf, i, j, d)

    # the commands that solve the block alone report the full-size figures
    if fname == "generic":
        return  # no --F preset; the CLI path is the same for every F
    spec = {"jordan": "preset:jordan", "diag12": "preset:diag:1,2"}[fname]
    base = ["-m", str(m), "-n", str(n), "-t", "2", "--F", spec, "-i", str(i), "-j", str(j)]
    (case,) = _report(capsys, ["intertwiners"] + base)["cases"]
    assert case["dim_coinv"] == homs
    (case,) = _report(capsys, ["coinvariants"] + base)["cases"]
    assert case["dim_coinv"] == full.dim
    if i == j:
        rep = certify_fft(m, n, hopf, i, d, lemma_base_case(hopf, RELATION_DEGREE))
        assert rep.dim_coinv == full.dim
        assert rep.image_contained == all(full.contains(v) for v in theta_matrix(m, n, 2, i))


@pytest.mark.parametrize("pure_u_lead", [False, True])
def test_certify_fft_solves_only_the_block(pure_u_lead, monkeypatch, add_pure_u_rules):
    """Whatever m and n are, the lemma's base case has the t^2 unknowns of the
    (1,1) block, and End(U^(x k)) needs no solve at any k when no Groebner
    lead is a pure u-word.  With a pure-u lead, the End fallback solve has
    the t^(2k) unknowns of End(U^(x k)) at every k, k = 1 included."""
    t, kmax = 2, 3
    ctx = CoactionContext(2, 2, build_hf(FMatrix.jordan(t)))
    if pure_u_lead:
        add_pure_u_rules(ctx.hopf)
    sizes = {"comod": [], "catalg": []}
    for name, module in (("comod", comod), ("catalg", catalg)):
        def recorder(q, nunknowns, constraints, kernel=module.certified_kernel, name=name):
            sizes[name].append(nunknowns)
            return kernel(q, nunknowns, constraints)

        monkeypatch.setattr(module, "certified_kernel", recorder)
    for k in range(kmax + 1):
        for recorded in sizes.values():
            recorded.clear()
        base = lemma_base_case(ctx.hopf, RELATION_DEGREE) if k else None
        rep = certify_fft(ctx.m, ctx.n, ctx.hopf, k, max(k, 2), base)
        assert rep.certified and rep.dim_coinv == 4 ** k
        assert sizes["catalg"] == ([t ** (2 * k)] if pure_u_lead else [])
        assert sizes["comod"] == ([t ** 2] if k else [])


def test_certify_fft_run_solves_one_base_case(monkeypatch, capsys):
    """A `certify-fft -k K` run solves the product lemma's base case once,
    at k = 1's truncation, and every k reads it."""
    sizes = {"comod": [], "catalg": []}
    for name, module in (("comod", comod), ("catalg", catalg)):
        def recorder(q, nunknowns, constraints, kernel=module.certified_kernel, name=name):
            sizes[name].append(nunknowns)
            return kernel(q, nunknowns, constraints)

        monkeypatch.setattr(module, "certified_kernel", recorder)
    report = _report(capsys, ["certify-fft", "-m", "2", "-n", "2", "-t", "2",
                              "--F", "preset:jordan", "-k", "3"])
    assert report["status"] == "certified"
    assert sizes == {"comod": [4], "catalg": []}


@pytest.mark.parametrize("k", [1, 2])
def test_containment_is_checked_against_the_block_theta_image(k, monkeypatch):
    """With the base-case space V_11 at bidegree (1,1) forced to the span of a
    vector, certify_fft accepts exactly theta_11(x), scaled, and nothing else,
    at every k >= 1."""
    hopf = build_hf(FMatrix.jordan(2))
    block = CoactionContext(1, 1, hopf).component((1, 1))
    (image,) = theta_image_vectors(2, 1)
    n = block.dim
    others = [{s: Q(1)} for s in range(n)]
    others.append({s: Q(s + 1) for s in image})
    calls = []

    def forced(space, d, vec):
        calls.append((space.coaction == block.coaction, d))
        return Subspace.from_vectors(n, [vec])

    for vec, expected in [({s: Q(-3) for s in image}, True)] + [(v, False) for v in others]:
        monkeypatch.setattr(catalg, "coinvariants", lambda space, d, vec=vec: forced(space, d, vec))
        base = lemma_base_case(hopf, RELATION_DEGREE)
        rep = certify_fft(2, 3, hopf, k, max(k, 2), base)
        assert rep.dim_coinv == 6 ** k
        assert rep.image_contained is expected and rep.certified is expected
    assert set(calls) == {(True, 2)}


@pytest.mark.parametrize("command", ["coinvariants", "intertwiners"])
def test_unbalanced_verdict_needs_the_grading_certificate(command, monkeypatch, capsys):
    """At i != j the space is zero only by the grading certificate: if it does
    not hold, the case is a mismatch (exit 1), whatever a solve returns."""
    real = cli_module.off_diagonal_vanish
    monkeypatch.setattr(cli_module, "off_diagonal_vanish",
                        lambda *args: real(*args)._replace(relations_annihilated=False))
    argv = [command, "-m", "2", "-n", "3", "-t", "2", "--F", "preset:jordan",
            "-i", "2", "-j", "1", "--format", "json"]
    assert cli_module.run(argv) == cli_module.EXIT_MISMATCH
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "mismatch"
    assert [(c["dim_coinv"], c["certified"]) for c in report["cases"]] == [(0, False)]
