"""Workload definitions: the games each workload generates and the CLI
operations it runs on them.

Every workload owns a fixed universe of games, named by generator, depth and
game seed. Set-up generates each game, checks it, and writes it once to a
fresh JSON file; operations then reach the program only through
``fosg.cli.main(argv)``. The workload seed orders the operations of every pass
(see ``run.py``), so runs with different seeds measure the same games in
different orders and their medians stay comparable.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

# Exploitability the averaged CFR profile must reach on ``cfr-random``.
CFR_TARGET = 0.1
CFR_ITERS = 200
CFR_STRIDE = 25

# Placeholder in an argv that run.py replaces with a fresh trace-file path.
TRACE_FILE = "{trace}"


@dataclass
class Game:
    """One generated input: a spec or a classical tree, or a CLI builtin."""

    id: str
    kind: str                         # "spec", "efg" or "builtin"
    obj: object = None                # GameSpec or ClassicalEFG; None for builtins
    path: Optional[str] = None        # the fresh file it was written to

    @property
    def source(self) -> str:
        return self.path if self.path is not None else self.id


@dataclass(frozen=True)
class Op:
    """One user-facing operation: a single ``fosg.cli.main(argv)`` call."""

    id: str
    game: str
    kind: str                         # "cfr" | "cfrd" | "lp" | "inspect" | "check" | "pad"
    argv: Tuple[str, ...]


@dataclass
class Workload:
    name: str
    why: str
    deadline_s: float
    games: Callable[[object], List[Game]]
    ops: Callable[[List[Game]], List[Op]]


def zero_sum(spec):
    """Rewrite every transition reward of a two-player spec to ``(r, -r)``."""
    rewards = {key: (vec[0], -vec[0]) for key, vec in spec.rewards.items()}
    return dataclasses.replace(spec, rewards=rewards)


def random_zero_sum(fosg, depth: int, seed: int) -> Game:
    spec = zero_sum(fosg.games.random_fosg(seed, depth=depth))
    return Game(id=f"fosg-d{depth}-s{seed}", kind="spec", obj=spec)


def check_game(game: Game, fosg) -> None:
    """Set-up check: a generated spec validates and is exactly zero-sum."""
    if game.kind != "spec":
        return
    violations = fosg.model.validate(game.obj)
    if violations:
        raise ValueError(f"{game.id} does not validate: {violations[0].message}")
    if game.id.startswith("fosg-"):
        gap = max(abs(sum(vec)) for vec in game.obj.rewards.values())
        if gap != 0.0:
            raise ValueError(f"{game.id} has zero-sum gap {gap}")


def write_game(game: Game, directory: str, fosg) -> None:
    """Write a generated game once, to a file that does not exist yet."""
    if game.kind == "builtin":
        return
    doc = fosg.io.spec_to_json(game.obj) if game.kind == "spec" else fosg.io.efg_to_json(game.obj)
    path = os.path.join(directory, game.id + ".json")
    with open(path, "x", encoding="utf-8") as handle:
        json.dump(doc, handle)
    game.path = path


# ---------------------------------------------------------------------------
# The four workloads


def _cfr_games(fosg) -> List[Game]:
    return ([random_zero_sum(fosg, 8, s) for s in range(16)]
            + [random_zero_sum(fosg, 9, s) for s in range(6)])


def _cfr_ops(games: List[Game]) -> List[Op]:
    return [Op(id=f"{g.id}:cfr", game=g.id, kind="cfr",
               argv=("solve", "cfr", "--game", g.source, "--iters", str(CFR_ITERS),
                     "--stride", str(CFR_STRIDE), "--trace", TRACE_FILE))
            for g in games]


def _kuhn(fosg) -> Game:
    return Game(id="kuhn", kind="spec", obj=fosg.games.kuhn_poker())


def _cfrd_games(fosg) -> List[Game]:
    return ([_kuhn(fosg)]
            + [random_zero_sum(fosg, 7, s) for s in range(12)]
            + [random_zero_sum(fosg, 8, s) for s in range(6)])


def _cfrd_ops(games: List[Game]) -> List[Op]:
    ops = []
    for g in games:
        # Kuhn at criterion 05's shape scaled down from 1000 x 1000 iterations.
        iters, sub = (20, 200) if g.id == "kuhn" else (10, 50)
        ops.append(Op(id=f"{g.id}:cfrd", game=g.id, kind="cfrd",
                      argv=("solve", "cfrd", "--game", g.source, "--trunk-depth", "2",
                            "--iters", str(iters), "--subgame-iters", str(sub))))
    return ops


def _lp_games(fosg) -> List[Game]:
    return ([random_zero_sum(fosg, 6, s) for s in range(12)]
            + [random_zero_sum(fosg, 7, s) for s in range(12)])


def _lp_ops(games: List[Game]) -> List[Op]:
    return [Op(id=f"{g.id}:lp", game=g.id, kind="lp",
               argv=("solve", "lp", "--game", g.source)) for g in games]


def _analyze_games(fosg) -> List[Game]:
    specs = ([random_zero_sum(fosg, 9, s) for s in range(6)]
             + [random_zero_sum(fosg, 10, s) for s in range(6)])
    trees = [Game(id=f"timeable-d10-s{s}", kind="efg",
                  obj=fosg.games.random_timeable_efg(s, depth=10)) for s in range(6)]
    builtins = [Game(id=f"padding_chain:{n}", kind="builtin") for n in (40, 80)]
    builtins.append(Game(id="nontimeable", kind="builtin"))
    return specs + trees + builtins


def _analyze_ops(games: List[Game]) -> List[Op]:
    ops = []
    for g in games:
        if g.kind == "spec":
            ops.append(Op(id=f"{g.id}:inspect", game=g.id, kind="inspect",
                          argv=("inspect", "--game", g.source)))
        if g.kind != "builtin" or g.id == "nontimeable":
            ops.append(Op(id=f"{g.id}:check", game=g.id, kind="check",
                          argv=("timing", "check", "--game", g.source)))
        if g.kind == "efg" or g.id.startswith("padding_chain:"):
            ops.append(Op(id=f"{g.id}:pad", game=g.id, kind="pad",
                          argv=("timing", "pad", "--game", g.source)))
    return ops


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cfr-random",
        why="full-tree CFR walks plus strided exploitability on zero-sum random FOSGs; "
            "CFR-D and the LP stay idle",
        deadline_s=30.0, games=_cfr_games, ops=_cfr_ops),
    Workload(
        name="cfrd",
        why="CFR-D leaf subgame solves dominate: many short seeded walks on Kuhn and "
            "zero-sum random games",
        deadline_s=30.0, games=_cfrd_games, ops=_cfrd_ops),
    Workload(
        name="lp-random",
        why="sequence-form LP build and the Bland's-rule simplex dominate; the simplex "
            "cycles on some games, which miss the deadline",
        # The slowest completing solve takes about 3.5 s on a 2-vCPU x86 VM.
        deadline_s=12.0, games=_lp_games, ops=_lp_ops),
    Workload(
        name="analyze",
        why="load, validate, unroll and timing analysis are the whole operation; no "
            "solver runs, so solver changes should leave it flat",
        deadline_s=30.0, games=_analyze_games, ops=_analyze_ops),
)}
