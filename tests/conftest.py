"""Shared fixtures and the tests' product of free-algebra elements."""

from fractions import Fraction

import pytest

from coinv.cli import parse_f
from coinv.exactlin import add_to
from coinv.hopf import build_hf


def identity(t):
    """The rows of the identity, the CLI's preset:identity."""
    return parse_f("preset:identity", t)


def jordan(t):
    """The rows of the unipotent Jordan block, the CLI's preset:jordan."""
    return parse_f("preset:jordan", t)


def diag(*entries):
    """The rows of diag(entries), the CLI's preset:diag:a,b,..."""
    return parse_f("preset:diag:" + ",".join(map(str, entries)), len(entries))


# the CLI's three presets
PRESETS = {"identity": identity, "jordan": jordan, "diag": lambda t: diag(*range(1, t + 1))}


def word_product(*factors):
    """The product, left to right, of free-algebra elements, each a
    {word: coefficient} dict; the empty product is {(): 1}."""
    out = {(): Fraction(1)}
    for factor in factors:
        step = {}
        for wa, ca in out.items():
            for wb, cb in factor.items():
                add_to(step, wa + wb, ca * cb)
        out = step
    return out


@pytest.fixture(scope="module")
def preset_hopf():
    """hopf(fname, t): build_hf of a CLI preset, built once per (fname, t) and
    test module."""
    built = {}

    def hopf(fname, t):
        if (fname, t) not in built:
            built[fname, t] = build_hf(PRESETS[fname](t))
        return built[fname, t]
    return hopf


@pytest.fixture
def add_pure_u_rules():
    """inject(hopf, leads=None, d=None, drop=0): give the completion of hopf's
    relations one rule lead -> 0 of the given drop per pure u-word in leads
    (default: u11^64 alone), after extending it to d if d is given; returns
    hopf.  A rule of drop e rewrites a word W at truncation d only when
    e <= d - |W|.

    A lead longer than every word a test queries rewrites nothing, so every
    normal form stays what it was: only the lead-word certificate of
    catalg.balanced_hom_dim sees the rule, and it must fall back to the solve.
    Short leads make the rules of another algebra, in which those words are
    zero; the fallback then solves in that algebra."""
    def inject(hopf, leads=None, d=None, drop=0):
        completion = hopf.presentation.completion
        if d is not None:
            completion.extend(d)
        for lead in leads or [(hopf.algebra.letter("u", 0, 0),) * 64]:
            completion.rules[lead] = (drop, {})
        completion.lengths = tuple(sorted({len(lead) for lead in completion.rules}))
        return hopf
    return inject
