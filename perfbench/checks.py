"""Output checks, run after the timed loop so they cost no operation time.

A check that fails marks the operation failed and the run incorrect. The
LP oracle uses SciPy's HiGHS, which only the benchmark imports.
"""

from __future__ import annotations

import csv
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from workloads import CFR_TARGET, Game

LP_TOL = 1e-6


def parse_doc(out: str) -> Optional[dict]:
    try:
        doc = json.loads(out)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def first_at_target(trace_path: str) -> Optional[Tuple[int, float]]:
    """(iteration, wall_ms) of the first trace point at or below the CFR target."""
    with open(trace_path, "r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            if float(row["exploitability"]) <= CFR_TARGET:
                return int(row["iteration"]), float(row["wall_ms"])
    return None


def highs_value(lp) -> float:
    """Game value of the sequence-form LP, solved independently by HiGHS."""
    from scipy.optimize import linprog

    e_mat, f_mat = lp.e_matrix, lp.f_matrix
    k, n2 = e_mat.shape[0], f_mat.shape[1]
    cost = np.concatenate([lp.e_vector, np.zeros(n2)])
    # min e.u  s.t.  A y - E.T u <= 0,  F y = f,  y >= 0,  u free.
    a_ub = np.hstack([-e_mat.T, lp.payoff])
    a_eq = np.hstack([np.zeros((f_mat.shape[0], k)), f_mat])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq, b_eq=lp.f_vector,
                  bounds=[(None, None)] * k + [(0, None)] * n2, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


class Checker:
    """Checks one completed operation's output; caches per-game oracles."""

    def __init__(self, fosg, games: Dict[str, Game]) -> None:
        self.fosg = fosg
        self.games = games
        self._lp_values: Dict[str, float] = {}

    def lp_value(self, game: Game) -> float:
        if game.id not in self._lp_values:
            fosg = self.fosg
            rep = fosg.unroll.unroll(fosg.model.serialize(game.obj))
            self._lp_values[game.id] = highs_value(fosg.sequence_form.build_sequence_lp(rep))
        return self._lp_values[game.id]

    def check(self, attempt) -> List[str]:
        """Problems with a completed attempt's output; empty when it is correct."""
        op = attempt.op
        doc = parse_doc(attempt.out)
        if doc is None or "schema" not in doc:
            return ["output is not a JSON document with a schema field"]
        problems: List[str] = []
        if op.kind in ("cfr", "cfrd", "lp"):
            gap = doc.get("exploitability")
            attempt.exploitability = gap
            if not isinstance(gap, float) or gap < -1e-9:
                problems.append(f"exploitability {gap!r} is not >= -1e-9")
        if op.kind == "cfr":
            reached = first_at_target(attempt.trace_path)
            if reached is None:
                problems.append(f"exploitability never reached the target {CFR_TARGET}")
            attempt.at_target = reached
        elif op.kind == "lp":
            game = self.games[op.game]
            oracle = self.lp_value(game)
            if abs(doc["game_value"] - oracle) > LP_TOL:
                problems.append(f"game value {doc['game_value']!r} differs from HiGHS {oracle!r}")
            if doc["exploitability"] > LP_TOL:
                problems.append(f"LP profile exploitability {doc['exploitability']!r} > {LP_TOL}")
        elif op.kind == "inspect":
            if not doc.get("histories") or not doc.get("terminals"):
                problems.append("inspect reports an empty tree")
        elif op.kind == "check":
            problems += self._check_timing(op, doc)
        elif op.kind == "pad":
            problems += self._check_padding(op, doc)
        return problems

    def _check_timing(self, op, doc: dict) -> List[str]:
        if op.game == "nontimeable":
            witness = [tuple(step) for step in doc.get("witness", [])]
            efg = self.fosg.games.nontimeable_fixture()
            if doc.get("timeable") is not False or not self.fosg.timing.verify_witness(efg, witness):
                return ["the non-timeable fixture's witness does not verify"]
        elif op.game.startswith("timeable-") and doc.get("timeable") is not True:
            return ["a timeable tree is reported non-timeable"]
        return []

    def _check_padding(self, op, doc: dict) -> List[str]:
        original, padded = doc["original"], doc["padded"]
        problems = []
        if padded > original ** 2 or padded != original + doc["added"]:
            problems.append(f"padded size {padded} is inconsistent with {original} nodes")
        if op.game.startswith("padding_chain:"):
            n = int(op.game.split(":", 1)[1])
            if doc["added"] != n * (n - 1) // 2:
                problems.append(f"padding_chain:{n} added {doc['added']} nodes, not {n * (n - 1) // 2}")
        return problems
