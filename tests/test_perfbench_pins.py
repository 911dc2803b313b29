"""What perfbench's tracer wraps and reads in coinv still exists.

perfbench/tracing.py names coinv functions by module and attribute; it is read
here as source, so this test does not import perfbench.
"""

import ast
import importlib
from pathlib import Path

import coinv.catalg
import coinv.comod
import coinv.fpquot
from coinv.exactlin import Subspace
from coinv.fpquot import Presentation, TruncatedQuotient
from coinv.freealg import FreeAlgebra

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_constants():
    """FUNCTION_SPANS and MODULES, the literals perfbench/tracing.py assigns."""
    found = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTION_SPANS", "MODULES"):
                found[name] = ast.literal_eval(node.value)
    return found["FUNCTION_SPANS"], found["MODULES"]


def test_every_traced_function_is_callable():
    spans, modules = _tracing_constants()
    assert spans and modules
    for name in modules:
        importlib.import_module(f"coinv.{name}")
    for modname, attr, _ in spans:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_the_tracer_rebinding_targets_exist():
    assert coinv.comod.certified_kernel is coinv.fpquot.certified_kernel
    assert coinv.catalg.certified_kernel is coinv.fpquot.certified_kernel
    assert isinstance(Subspace.__dict__["from_vectors"], classmethod)
    assert callable(TruncatedQuotient.__dict__["normal_form_word"])
    assert isinstance(Presentation.__dict__["is_weight_graded"], property)
    assert callable(FreeAlgebra.word_weight)
