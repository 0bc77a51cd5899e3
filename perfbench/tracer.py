"""Spans and call counters recorded from outside hkxor.

The tracer replaces public names at the places hkxor looks them up (for
example ``hkxor.certify``'s own ``build_even``) with wrappers that record a
span per call, only count calls for hot per-element functions, or count the
items an iterator yields inside a given span.  Spans stay in memory;
``Tracer.restore`` puts every original back.

Two pitfalls shape the target table:

* ``import hkxor.certify`` yields the ``certify`` *function*, because the
  package re-exports it under the submodule's name.  Modules are therefore
  looked up with ``importlib.import_module``, which returns the module.
* ``from .pauli import mul_words`` copies the name into each importing
  module, so a counter on ``mul_words`` is installed in every ``hkxor``
  module that holds that function.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

MARK = "__perfbench_wrapped__"

# (module, class or None, attribute, span name).  Names are "<layer>.<what>";
# spans of one name add up into the per-layer metric "<name>_s", except the
# SELF_METRICS below, whose self time is the layer's own work.
SPAN_TARGETS = (
    ("hkxor", None, "generate", "instances.generate"),
    ("hkxor", None, "certify", "certify.certify"),
    ("hkxor.cli", None, "main", "cli.main"),
    ("hkxor.cli", None, "parse", "instances.parse"),
    ("hkxor.cli", None, "digest", "instances.digest"),
    ("hkxor.cli", None, "certify", "certify.certify"),
    ("hkxor.cli", None, "assemble", "oracle.assemble"),
    ("hkxor.cli", None, "lambda_max", "oracle.eigvalsh"),
    ("hkxor.cli", None, "classical_max", "oracle.classical"),
    ("hkxor.cli", None, "max_entropy_build", "sos.maxent"),
    ("hkxor.cli", None, "lift_classical", "sos.lift"),
    ("hkxor.cli", None, "positivity_check", "sos.positivity"),
    ("hkxor.certify", None, "digest", "instances.digest"),
    ("hkxor.certify", None, "build_even", "kikuchi_even.build"),
    ("hkxor.certify", None, "regularize", "kikuchi_even.regularize"),
    ("hkxor.certify", None, "regularity_decompose", "kikuchi_odd.decompose"),
    ("hkxor.certify", None, "build_odd", "kikuchi_odd.build"),
    ("hkxor.certify", None, "edge_delete", "kikuchi_odd.prune"),
    ("hkxor.certify", None, "_scaled", "certify.matrix"),
    ("hkxor.certify", None, "spectral_norm", "certify.eigsolve"),
    ("hkxor.kikuchi_even", "KikuchiGraph", "signed_matrix", "certify.matrix"),
    ("hkxor.kikuchi_odd", "OddKikuchiGraph", "signed_matrix", "certify.matrix"),
)

# Hot per-element calls: counted, never timed.
COUNT_TARGETS = (
    ("hkxor.pauli", "SliceIndex", "rank", "pauli.rank_calls"),
    ("hkxor.sos", "PseudoExpectation", "pair_value", "sos.pair_value_calls"),
)
# Counted in every hkxor module that imported the function by name.
COUNT_EVERYWHERE = (("hkxor.pauli", "mul_words", "pauli.mul_words_calls"),)
# (module, class, attribute, count name, span name): items the returned
# iterator yields while the innermost open span has that name.  The moment
# matrix of positivity_check has one row per basis word it enumerates.
YIELD_TARGETS = (
    ("hkxor.sos", None, "enumerate_slice", "sos.moment_rows", "sos.positivity"),
)

# (name, unit, better) of every per-layer metric, in report order.  Times and
# counts are per traced op; see README.md for the layer each one belongs to.
PER_LAYER = (
    ("trace.op_s.p50", "s", "lower"),
    ("trace.untraced_op_s.p50", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
    ("trace.ops", "count", "higher"),
    ("trace.missing_targets", "count", "lower"),
    ("bench.self_s", "s", "lower"),
    ("instances.generate_s", "s", "lower"),
    ("instances.parse_s", "s", "lower"),
    ("instances.digest_s", "s", "lower"),
    ("pauli.rank_calls", "count", "lower"),
    ("pauli.mul_words_calls", "count", "lower"),
    ("kikuchi_even.build_s", "s", "lower"),
    ("kikuchi_even.regularize_s", "s", "lower"),
    ("kikuchi_even.vertices", "count", "lower"),
    ("kikuchi_even.edges", "count", "lower"),
    ("kikuchi_odd.decompose_s", "s", "lower"),
    ("kikuchi_odd.build_s", "s", "lower"),
    ("kikuchi_odd.prune_s", "s", "lower"),
    ("kikuchi_odd.edges_built", "count", "lower"),
    ("kikuchi_odd.edges_kept", "count", "lower"),
    ("kikuchi_odd.kept_frac", "ratio", "higher"),
    ("kikuchi_odd.skipped_types", "count", "lower"),
    ("certify.matrix_s", "s", "lower"),
    ("certify.eigsolve_s", "s", "lower"),
    ("certify.self_s", "s", "lower"),
    ("oracle.assemble_s", "s", "lower"),
    ("oracle.eigvalsh_s", "s", "lower"),
    ("oracle.classical_s", "s", "lower"),
    ("sos.maxent_s", "s", "lower"),
    ("sos.lift_s", "s", "lower"),
    ("sos.positivity_s", "s", "lower"),
    ("sos.pair_value_calls", "count", "lower"),
    ("sos.moment_rows", "count", "lower"),
    ("cli.self_s", "s", "lower"),
)

ROOT_SPAN = "op"
SELF_METRICS = {ROOT_SPAN: "bench.self_s", "certify.certify": "certify.self_s",
                "cli.main": "cli.self_s"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    op: int


def _edge_count(graph) -> int:
    edges = getattr(graph, "num_edges", None)
    return len(graph.edges) if edges is None else edges


def _observe_build_even(counts, args, kwargs, graph):
    counts["kikuchi_even.vertices"] += graph.num_vertices
    counts["kikuchi_even.edges"] += _edge_count(graph)


def _observe_build_odd(counts, args, kwargs, graph):
    counts["kikuchi_odd.edges_built"] += graph.num_edges
    counts["kikuchi_odd.skipped_types"] += len(graph.skipped)


def _observe_prune(counts, args, kwargs, result):
    counts["kikuchi_odd.edges_kept"] += result[0].num_edges


# Counts taken from a wrapped call's arguments and result.
OBSERVERS = {
    "kikuchi_even.build": _observe_build_even,
    "kikuchi_odd.build": _observe_build_odd,
    "kikuchi_odd.prune": _observe_prune,
}

COUNT_NAMES = ("pauli.rank_calls", "pauli.mul_words_calls", "kikuchi_even.vertices",
               "kikuchi_even.edges", "kikuchi_odd.edges_built", "kikuchi_odd.edges_kept",
               "kikuchi_odd.skipped_types", "sos.pair_value_calls", "sos.moment_rows")


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls, None)


def _label(owner, attr: str) -> str:
    return f"{getattr(owner, '__module__', '')}.{owner.__name__}.{attr}".lstrip(".")


def wrapped_names() -> list[str]:
    """Every known target that currently holds a tracer wrapper."""
    found = []
    for module, cls, attr, *_ in SPAN_TARGETS + COUNT_TARGETS + YIELD_TARGETS:
        owner = _owner(module, cls)
        if getattr(getattr(owner, attr, None), MARK, False):
            found.append(_label(owner, attr))
    for name, mod in list(sys.modules.items()):
        if name == "hkxor" or name.startswith("hkxor."):
            for _, attr, _ in COUNT_EVERYWHERE:
                if getattr(getattr(mod, attr, None), MARK, False):
                    found.append(f"{name}.{attr}")
    return found


class Tracer:
    """Records spans (name, start, end, parent, op id) and call counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = time.perf_counter()

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, MARK, True)
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        observe = OBSERVERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def wrap_yields(self, owner, attr: str, name: str, inside: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def counted(items):
            for item in items:
                tracer.counts[name] += 1
                yield item

        def wrapper(*args, **kwargs):
            items = original(*args, **kwargs)
            if tracer._stack and tracer.spans[tracer._stack[-1]].name == inside:
                return counted(items)
            return items

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed in ``missing``."""
        for targets, wrap in ((SPAN_TARGETS, self.wrap_span), (COUNT_TARGETS, self.wrap_count),
                              (YIELD_TARGETS, self.wrap_yields)):
            for module, cls, attr, *names in targets:
                owner = _owner(module, cls)
                if owner is None or not callable(getattr(owner, attr, None)):
                    self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                    continue
                wrap(owner, attr, *names)
        for module, attr, name in COUNT_EVERYWHERE:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            for mod_name, mod in sorted(sys.modules.items()):
                if ((mod_name == "hkxor" or mod_name.startswith("hkxor."))
                        and getattr(mod, attr, None) is original):
                    self.wrap_count(mod, attr, name)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# -- arithmetic on recorded spans ------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    """Total self time per metric name (see SELF_METRICS)."""
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        key = SELF_METRICS.get(s.name, s.name + "_s")
        totals[key] = totals.get(key, 0.0) + own
    return totals
