"""In-memory span recorder around the public function of each fosg layer.

The recorder swaps wrapped functions into every loaded ``fosg`` module that
holds a reference to the original, so calls between modules are timed too,
and swaps the originals back afterwards. Nothing under ``src/`` changes.
Spans are (name, op, parent, start, end) plus counts taken from the result;
they stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    op: str
    parent: int
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _shape(lp) -> Dict[str, float]:
    rows, cols = lp.payoff.shape
    return {"lp_rows": rows, "lp_cols": cols}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# (module, attribute, span name, counts taken from (result, args, kwargs)).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("fosg.io", "spec_from_json", "io.spec_from_json", None),
    ("fosg.io", "efg_from_json", "io.efg_from_json", None),
    ("fosg.io", "trace_to_csv", "io.trace_to_csv", None),
    ("fosg.model", "validate", "model.validate", None),
    ("fosg.model", "serialize", "model.serialize", None),
    ("fosg.unroll", "unroll", "unroll.unroll",
     lambda rep, *_: {"nodes": len(rep.nodes), "public_states": len(rep.public_sets)}),
    ("fosg.unroll", "forget_nonacting", "unroll.forget_nonacting", None),
    ("fosg.unroll", "check_perfect_recall", "unroll.check_perfect_recall", None),
    ("fosg.unroll", "has_thick_public_sets", "unroll.has_thick_public_sets", None),
    ("fosg.timing", "find_exact_timing", "timing.find_exact_timing", None),
    ("fosg.timing", "pad_to_1_timeable", "timing.pad_to_1_timeable",
     lambda efg, *_: {"padded_nodes": len(efg.nodes)}),
    ("fosg.timing", "verify_witness", "timing.verify_witness", None),
    ("fosg.cfr", "SolverTree", "cfr.solver_tree", None),
    ("fosg.cfr", "cfr_run", "cfr.cfr_run",
     lambda res, args, kwargs: {"iterations": _arg(args, kwargs, 1, "iterations")}),
    ("fosg.cfr", "exploitability", "cfr.exploitability", lambda gap, *_: {"value": gap}),
    ("fosg.cfr", "best_response", "cfr.best_response", None),
    ("fosg.cfr", "game_value", "cfr.game_value", None),
    ("fosg.decomposition", "cfr_d", "decomposition.cfr_d",
     lambda res, args, kwargs: {"leaves": len(res.leaf_keys),
                                "iterations": _arg(args, kwargs, 2, "iterations")}),
    ("fosg.decomposition", "complete_profile", "decomposition.complete_profile", None),
    ("fosg.sequence_form", "build_sequence_lp", "sequence_form.build_sequence_lp",
     lambda lp, *_: _shape(lp)),
    ("fosg.sequence_form", "solve_zero_sum_lp", "sequence_form.solve_zero_sum_lp",
     lambda sol, *_: {"pivots": len(sol.pivots)}),
    ("fosg.sequence_form", "lp_profile", "sequence_form.lp_profile", None),
    ("fosg.simplex", "solve_standard_form", "simplex.solve_standard_form", None),
)


class Tracer:
    """Records nested spans for the operation named by ``op``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = ""
        self._patches = self._build_patches()

    def _build_patches(self):
        patches = []
        for module_name, attr, name, counts in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, counts)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "fosg" and not mod_name.startswith("fosg."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original, wrapper))
        return patches

    def _wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(result, args, kwargs))
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def recording(self, op: str, root: Optional[str] = None):
        """Swap the wrappers in for the duration, optionally under a root span."""
        self.op = op
        for module, key, _original, wrapper in self._patches:
            setattr(module, key, wrapper)
        root_span = None
        if root is not None:
            root_span = Span(root, op, -1, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(root_span)
        try:
            yield root_span
        finally:
            if root_span is not None:
                root_span.end = time.perf_counter()
                self._stack.pop()
            for module, key, original, _wrapper in self._patches:
                setattr(module, key, original)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children, in ms.

    ``spans`` is a tracer's whole list, since parents are indices into it.
    """
    own = [s.ms for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.ms
    return own
