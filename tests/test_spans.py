"""The benchmark's span recorder still finds every function it wraps.

``perfbench/spans.py`` imports only the standard library, so it is loaded by
path and left unchanged. A name it lists that no module has fails its
``Tracer``, and with it every traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fosg.sequence_form import build_sequence_lp

import oracles

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are made.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        for module_name, *_ in module.TARGETS:
            importlib.import_module(module_name)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_span_target_exists(spans):
    missing = [(module_name, attr) for module_name, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(module_name), attr)]
    assert missing == []


def test_lp_solve_records_one_simplex_span(spans):
    from fosg import sequence_form

    lp = build_sequence_lp(oracles.zero_sum_random_rep(2, depth=5))
    tracer = spans.Tracer()
    with tracer.recording("lp"):
        sequence_form.solve_zero_sum_lp(lp)
    names = [span.name for span in tracer.spans]
    assert names == ["sequence_form.solve_zero_sum_lp", "simplex.solve_standard_form"]
    assert tracer.spans[1].parent == 0
    # The originals are back once the recording ends.
    sequence_form.solve_zero_sum_lp(lp)
    assert len(tracer.spans) == 2
