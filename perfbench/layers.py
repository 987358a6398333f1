"""Per-layer metrics from a traced run.

A metric is taken from the spans of the workload's own operations when those
operations call the function. Otherwise it comes from the fixture probe, a
fixed sequence of direct layer calls on Kuhn, the non-timeable fixture and
``padding_chain(40)``, so every traced run reports every metric. Two metrics
are always probed on the workload's own first spec games, because no CLI
operation isolates them: ``cfr.iteration_ms`` (``cfr_run(n)`` / n, without a
convergence trace) and ``decomposition.leaf_solve_ms`` (``complete_profile`` at
the random-game ``cfrd`` budget of 50 iterations / leaves).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional

from spans import Span, Tracer, self_times
from workloads import CFR_ITERS, CFR_STRIDE, CFR_TARGET, Game

ITER_PROBE = 20
OWN_PROBE_GAMES = 4
PROBE_LEAF_BUDGET = 50
FIXTURE_OP = "probe:fixture"
OWN_OP = "probe:own"

LAYERS = ("cli", "io", "model", "unroll", "timing", "cfr", "decomposition",
          "sequence_form", "simplex")

# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER: Dict[str, str] = {
    "io.spec_from_json_ms": "ms",
    "model.validate_ms": "ms",
    "model.serialize_ms": "ms",
    "unroll.unroll_ms": "ms",
    "unroll.nodes": "count",
    "unroll.public_states": "count",
    "unroll.forget_nonacting_ms": "ms",
    "unroll.check_perfect_recall_ms": "ms",
    "unroll.has_thick_public_sets_ms": "ms",
    "timing.find_exact_timing_ms": "ms",
    "timing.pad_to_1_timeable_ms": "ms",
    "timing.verify_witness_ms": "ms",
    "timing.padded_nodes": "count",
    "cfr.solver_tree_ms": "ms",
    "cfr.iteration_ms": "ms",
    "cfr.exploitability_ms": "ms",
    "cfr.best_response_ms": "ms",
    "cfr.game_value_ms": "ms",
    "cfr.iters_to_target": "count",
    "decomposition.cfr_d_round_ms": "ms",
    "decomposition.leaves": "count",
    "decomposition.leaf_solve_ms": "ms",
    "sequence_form.build_sequence_lp_ms": "ms",
    "sequence_form.lp_rows": "count",
    "sequence_form.lp_cols": "count",
    "sequence_form.solve_zero_sum_lp_ms": "ms",
    "simplex.pivots": "count",
    "simplex.ms_per_pivot": "ms",
    "sequence_form.lp_profile_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
}


def run_probes(fosg, tracer: Tracer, spec_games: List[Game], kuhn_path: str) -> Optional[int]:
    """Direct layer calls recorded under the two probe ops.

    Returns the iteration at which CFR on Kuhn first reaches the target.
    """
    for game in spec_games[:OWN_PROBE_GAMES]:
        rep = fosg.unroll.unroll(fosg.model.serialize(game.obj))
        trunk = fosg.decomposition.Trunk.from_depth(rep, 2)
        with tracer.recording(OWN_OP):
            fosg.cfr.cfr_run(rep, ITER_PROBE)
            fosg.decomposition.complete_profile(rep, trunk, {}, PROBE_LEAF_BUDGET)
        solve = next(s for s in reversed(tracer.spans) if s.name == "decomposition.complete_profile")
        solve.counts["leaves"] = len(trunk.leaves(rep))

    with open(kuhn_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    nontimeable = fosg.games.nontimeable_fixture()
    chain, chain_timing = fosg.games.padding_chain(40)
    with tracer.recording(FIXTURE_OP):
        spec = fosg.io.spec_from_json(doc)
        fosg.model.validate(spec)
        rep = fosg.unroll.unroll(fosg.model.serialize(spec))
        fosg.unroll.check_perfect_recall(rep)
        fosg.unroll.has_thick_public_sets(rep)
        fosg.timing.find_exact_timing(fosg.unroll.forget_nonacting(rep))
        _timing, witness = fosg.timing.find_exact_timing(nontimeable)
        fosg.timing.verify_witness(nontimeable, witness)
        fosg.timing.pad_to_1_timeable(chain, chain_timing)
        result = fosg.cfr.cfr_run(rep, CFR_ITERS, trace_stride=CFR_STRIDE)
        fosg.decomposition.cfr_d(rep, fosg.decomposition.Trunk.from_depth(rep, 2), 5,
                                 PROBE_LEAF_BUDGET)
        lp = fosg.sequence_form.build_sequence_lp(rep)
        fosg.sequence_form.lp_profile(rep, fosg.sequence_form.solve_zero_sum_lp(lp), lp)
    return next((p.iteration for p in result.trace if p.exploitability <= CFR_TARGET), None)


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def layer_metrics(tracer: Tracer, iters_to_target: float,
                  overhead_ms: float) -> Dict[str, float]:
    """Every PER_LAYER metric; ``iters_to_target`` comes from the caller."""
    spans = tracer.spans
    ops = [s for s in spans if not s.op.startswith("probe:")]
    fixture = [s for s in spans if s.op == FIXTURE_OP]
    own = [s for s in spans if s.op == OWN_OP]

    def pick(name: str, value) -> Optional[float]:
        """``value(spans of name)`` over operation spans, else over the fixture probe."""
        for source in (ops, fixture):
            chosen = [s for s in source if s.name == name]
            if chosen:
                return _median([v for v in map(value, chosen) if v is not None])
        return None

    def ms(name: str) -> Optional[float]:
        return pick(name, lambda s: s.ms)

    def count(name: str, key: str) -> Optional[float]:
        return pick(name, lambda s: s.counts.get(key))

    def per(name: str, key: str) -> Optional[float]:
        return pick(name, lambda s: s.ms / s.counts[key] if s.counts.get(key) else None)

    own_times = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    values = {
        "io.spec_from_json_ms": ms("io.spec_from_json"),
        "model.validate_ms": ms("model.validate"),
        "model.serialize_ms": ms("model.serialize"),
        "unroll.unroll_ms": ms("unroll.unroll"),
        "unroll.nodes": count("unroll.unroll", "nodes"),
        "unroll.public_states": count("unroll.unroll", "public_states"),
        "unroll.forget_nonacting_ms": ms("unroll.forget_nonacting"),
        "unroll.check_perfect_recall_ms": ms("unroll.check_perfect_recall"),
        "unroll.has_thick_public_sets_ms": ms("unroll.has_thick_public_sets"),
        "timing.find_exact_timing_ms": ms("timing.find_exact_timing"),
        "timing.pad_to_1_timeable_ms": ms("timing.pad_to_1_timeable"),
        "timing.verify_witness_ms": ms("timing.verify_witness"),
        "timing.padded_nodes": count("timing.pad_to_1_timeable", "padded_nodes"),
        "cfr.solver_tree_ms": ms("cfr.solver_tree"),
        "cfr.iteration_ms": _median([s.ms / s.counts["iterations"] for s in own
                                     if s.name == "cfr.cfr_run"]),
        "cfr.exploitability_ms": ms("cfr.exploitability"),
        "cfr.best_response_ms": ms("cfr.best_response"),
        "cfr.game_value_ms": ms("cfr.game_value"),
        "cfr.iters_to_target": iters_to_target,
        "decomposition.cfr_d_round_ms": per("decomposition.cfr_d", "iterations"),
        "decomposition.leaves": count("decomposition.cfr_d", "leaves"),
        "decomposition.leaf_solve_ms": _median([
            s.ms / s.counts["leaves"] for s in own
            if s.name == "decomposition.complete_profile" and s.counts.get("leaves")]),
        "sequence_form.build_sequence_lp_ms": ms("sequence_form.build_sequence_lp"),
        "sequence_form.lp_rows": count("sequence_form.build_sequence_lp", "lp_rows"),
        "sequence_form.lp_cols": count("sequence_form.build_sequence_lp", "lp_cols"),
        "sequence_form.solve_zero_sum_lp_ms": ms("sequence_form.solve_zero_sum_lp"),
        "simplex.pivots": count("sequence_form.solve_zero_sum_lp", "pivots"),
        "simplex.ms_per_pivot": per("sequence_form.solve_zero_sum_lp", "pivots"),
        "sequence_form.lp_profile_ms": ms("sequence_form.lp_profile"),
        "cli.self_ms": _median([own_times[i] for i in roots]),
        "trace.overhead_ms": overhead_ms,
    }
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise RuntimeError(f"the traced run measured no value for {', '.join(missing)}")
    return values


def layer_breakdown(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Self time per layer: the mean per operation, and within the median operation."""
    spans = tracer.spans
    own_times = self_times(spans)
    per_op: Dict[int, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        if not s.op.startswith("probe:"):
            layers = per_op.setdefault(_root_of(spans, i), {})
            layers[s.layer] = layers.get(s.layer, 0.0) + own_times[i]
    ops = list(per_op.values())
    mean = {layer: sum(o.get(layer, 0.0) for o in ops) / len(ops) for layer in LAYERS}
    totals = sorted(ops, key=lambda o: sum(o.values()))
    median_op = totals[(len(totals) - 1) // 2]
    return {"mean_ms": mean,
            "median_op_ms": {layer: median_op.get(layer, 0.0) for layer in LAYERS}}


def _root_of(spans: List[Span], index: int) -> int:
    while spans[index].parent >= 0:
        index = spans[index].parent
    return index
