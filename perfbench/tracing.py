"""Spans around coinv's layer boundaries, recorded from outside the package.

`install` wraps the public functions that mark each layer boundary and
rebinds every name under which a coinv module imported them, so calls made
through `from .x import f` are traced too.  Spans live in memory until the
traced child writes them out; `layer_metrics` turns them into the per-layer
figures.  Nothing under src/ is modified.
"""

from __future__ import annotations

import importlib
import resource
import sys
from time import perf_counter

# (module, function, span name): plain module-level functions to wrap
FUNCTION_SPANS = (
    ("coinv.cli", "run", "cli.case"),
    ("coinv.fpquot", "certified_kernel", "fpquot.kernel"),
    ("coinv.exactlin", "solve_homogeneous", "exactlin.solve"),
    ("coinv.comod", "coinvariants", "comod.coinvariants"),
    ("coinv.comod", "theta_image_vectors", "comod.theta_image"),
    ("coinv.comod", "off_diagonal_vanish", "comod.off_diagonal"),
    ("coinv.freealg", "theta_matrix", "freealg.theta_matrix"),
    ("coinv.catalg", "hom_space", "catalg.hom_space"),
    ("coinv.catalg", "main_correspondence_check", "catalg.correspondence"),
    ("coinv.classical", "glt_invariants", "classical.glt_invariants"),
    ("coinv.classical", "theta_star_kernel", "classical.theta_star"),
    ("coinv.classical", "theta_star_image", "classical.theta_star"),
    ("coinv.classical", "minors_component", "classical.minors"),
    ("coinv.hopf", "build_hf", "hopf.build_hf"),
    ("coinv.hopf", "check_hopf_compat", "hopf.compat"),
)

MODULES = ("exactlin", "freealg", "fpquot", "hopf", "comod", "catalg", "classical", "cli")

# fields of a span record
NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """In-memory span recorder: [name, start, end, parent index, run id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """fn with each call recorded as a span."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def _rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every coinv module attribute bound to original at replacement."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "coinv" or modname.startswith("coinv.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def install(tracer: Tracer):
    """Wrap the layer boundaries of an imported coinv; returns an undo callable."""
    for name in MODULES:
        importlib.import_module(f"coinv.{name}")
    from coinv.exactlin import Subspace
    from coinv.fpquot import TruncatedQuotient

    special = {"certified_kernel": _kernel_wrapper, "solve_homogeneous": _solve_wrapper,
               "hom_space": _hom_space_wrapper}
    undo: list[tuple[object, str, object]] = []
    for modname, attr, span in FUNCTION_SPANS:
        original = getattr(sys.modules[modname], attr)
        if attr in special:
            wrapped = special[attr](tracer, span, original)
        else:
            wrapped = tracer.wrap(span, original)
        undo += _rebind(original, wrapped)

    from_vectors = Subspace.__dict__["from_vectors"]
    Subspace.from_vectors = classmethod(tracer.wrap("exactlin.from_vectors", from_vectors.__func__))
    undo.append((Subspace, "from_vectors", from_vectors))

    nf_word = TruncatedQuotient.__dict__["normal_form_word"]
    TruncatedQuotient.normal_form_word = _normal_form_wrapper(tracer, nf_word)
    undo.append((TruncatedQuotient, "normal_form_word", nf_word))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


def _kernel_wrapper(tracer: Tracer, span: str, kernel):
    def certified_kernel(q, nunknowns, constraints):
        constraints = list(constraints)
        tracer.count("fpquot.kernel_unknowns", nunknowns)
        tracer.count("fpquot.kernel_constraints", len(constraints))
        return tracer.call(span, kernel, q, nunknowns, constraints)
    return certified_kernel


def _solve_wrapper(tracer: Tracer, span: str, solve):
    def solve_homogeneous(rows, nunknowns):
        rows = list(rows)
        tracer.count("exactlin.solve_rows", len(rows))
        return tracer.call(span, solve, rows, nunknowns)
    return solve_homogeneous


def _hom_space_wrapper(tracer: Tracer, span: str, hom_space):
    def wrapped(source, target, d):
        tracer.count("catalg.hom_unknowns", source.dim * target.dim)
        return tracer.call(span, hom_space, source, target, d)
    return wrapped


def _normal_form_wrapper(tracer: Tracer, nf_word):
    """The first call per (quotient, weight block) acquires the block (a build
    or a disk load); every later call is a query, which may repeat a word."""
    state: dict[object, tuple[bool, set, set]] = {}  # quotient -> (graded, blocks, words)

    def normal_form_word(q, w):
        st = state.get(q)
        if st is None:
            st = state[q] = (q.presentation.is_weight_graded, set(), set())
        graded, blocks, words = st
        key = q.presentation.algebra.word_weight(w) if graded else 0
        if key not in blocks:
            blocks.add(key)
            words.add(w)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                return tracer.call("fpquot.block_acquire", nf_word, q, w)
            finally:
                grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss
                tracer.count("fpquot.block_rss_delta_mb", grown / 1024)
        if w in words:
            tracer.count("fpquot.nf_repeat")
        else:
            words.add(w)
        return tracer.call("fpquot.nf_query", nf_word, q, w)
    return normal_form_word


# -- aggregation --------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, rec[START]), min(e, rec[END])
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(rec[END] - rec[START] - covered)
    return out


def totals(spans) -> dict[str, tuple[float, float, int]]:
    """name -> (total seconds, self seconds, calls).  A span nested inside a
    span of the same name adds to the calls and self time, not to the total."""
    selfs = self_times(spans)
    out: dict[str, list] = {}
    for idx, rec in enumerate(spans):
        acc = out.setdefault(rec[NAME], [0.0, 0.0, 0])
        acc[1] += selfs[idx]
        acc[2] += 1
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != rec[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            acc[0] += rec[END] - rec[START]
    return {k: tuple(v) for k, v in out.items()}


def layer_metrics(spans, counters) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    t = totals(spans)

    def total(name):
        return t.get(name, (0.0, 0.0, 0))[0]

    def self_(name):
        return t.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return t.get(name, (0.0, 0.0, 0))[2]

    nq = calls("fpquot.nf_query")
    return {
        "fpquot.block_acquire_s": (total("fpquot.block_acquire"), "s"),
        "fpquot.block_acquire_n": (calls("fpquot.block_acquire"), "count"),
        "fpquot.block_rss_delta_mb": (counters.get("fpquot.block_rss_delta_mb", 0.0), "MB"),
        "fpquot.nf_query_s": (total("fpquot.nf_query"), "s"),
        "fpquot.nf_query_n": (nq, "count"),
        "fpquot.nf_repeat_ratio": (counters.get("fpquot.nf_repeat", 0) / nq if nq else 0.0, "ratio"),
        "fpquot.kernel_self_s": (self_("fpquot.kernel"), "s"),
        "fpquot.kernel_n": (calls("fpquot.kernel"), "count"),
        "fpquot.kernel_unknowns": (counters.get("fpquot.kernel_unknowns", 0), "count"),
        "fpquot.kernel_constraints": (counters.get("fpquot.kernel_constraints", 0), "count"),
        "exactlin.solve_s": (total("exactlin.solve"), "s"),
        "exactlin.solve_n": (calls("exactlin.solve"), "count"),
        "exactlin.solve_rows": (counters.get("exactlin.solve_rows", 0), "count"),
        "exactlin.from_vectors_s": (total("exactlin.from_vectors"), "s"),
        "exactlin.from_vectors_n": (calls("exactlin.from_vectors"), "count"),
        "comod.coinvariants_self_s": (self_("comod.coinvariants"), "s"),
        "comod.coinvariants_n": (calls("comod.coinvariants"), "count"),
        "comod.theta_image_s": (total("comod.theta_image"), "s"),
        "comod.off_diagonal_s": (total("comod.off_diagonal"), "s"),
        "freealg.theta_matrix_s": (total("freealg.theta_matrix"), "s"),
        "catalg.hom_space_self_s": (self_("catalg.hom_space"), "s"),
        "catalg.hom_unknowns": (counters.get("catalg.hom_unknowns", 0), "count"),
        "catalg.correspondence_self_s": (self_("catalg.correspondence"), "s"),
        "classical.glt_invariants_self_s": (self_("classical.glt_invariants"), "s"),
        "classical.theta_star_s": (total("classical.theta_star"), "s"),
        "classical.minors_s": (total("classical.minors"), "s"),
        "hopf.build_hf_s": (total("hopf.build_hf"), "s"),
        "hopf.compat_self_s": (self_("hopf.compat"), "s"),
        "cli.case_s": (total("cli.case"), "s"),
        "cli.self_s": (self_("cli.case"), "s"),
    }
