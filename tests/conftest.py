"""Shared fixtures and the tests' product of free-algebra elements."""

from fractions import Fraction

import pytest

from coinv.exactlin import add_to
from coinv.hopf import FMatrix, build_hf

# the CLI's three presets
PRESETS = {"identity": FMatrix.identity, "jordan": FMatrix.jordan,
           "diag": lambda t: FMatrix.diagonal(range(1, t + 1))}


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
    """inject(hopf, leads=None, d=None): give the completion of hopf's
    relations one rule lead -> 0 per pure u-word in leads (default: u11^64
    alone), after extending it to d if d is given; returns hopf.

    A lead longer than every word a test queries rewrites nothing, so every
    normal form stays what it was: only the lead-word certificate of
    catalg.balanced_hom_dim sees the rule, and it must fall back to the solve.
    Short leads make the rules of another algebra, in which those words are
    zero; the fallback then solves in that algebra."""
    def inject(hopf, leads=None, d=None):
        completion = hopf.presentation.completion
        if d is not None:
            completion.extend(d)
        for lead in leads or [(hopf.algebra.letter("u", 0, 0),) * 64]:
            completion.rules[lead] = (0, {})
        completion.lengths = tuple(sorted({len(lead) for lead in completion.rules}))
        return hopf
    return inject
