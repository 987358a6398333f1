"""File formats: JSON game specs, tabular classical trees, traces, results.

Game-spec JSON encodes the tables with composite string keys: "state/player"
for action sets, "state/joint" for rewards, "state/joint/to" for
observations, where a joint action is its comma-joined slots. Identifiers
therefore must not contain "/" or ",". Probabilities are decimal floats; a
distribution whose sum leaves [1 - 1e-9, 1 + 1e-9] is rejected at load time.
"""

from __future__ import annotations

import csv
import io as _io
from typing import Dict, List, Tuple

from .cfr import TracePoint
from .errors import InvalidArgument
from .model import FactoredObservation, GameSpec, JointKey
from .unroll import CHANCE_ACTOR, TERMINAL_ACTOR, ClassicalEFG, EfgNode, add_efg_node

LOAD_TOL = 1e-9


def _check_symbol(symbol) -> str:
    if not isinstance(symbol, str):
        raise TypeError(f"only string identifiers are exportable, got {symbol!r}")
    if "/" in symbol or "," in symbol:
        raise InvalidArgument(f"identifier {symbol!r} contains a reserved separator")
    return symbol


def spec_to_json(spec: GameSpec) -> dict:
    doc = {
        "players": spec.num_players,
        "states": [_check_symbol(s) for s in spec.states],
        "initial": spec.initial_state,
        "player_fn": {s: sorted(actors) for s, actors in spec.player_fn.items()},
        "actions": {
            f"{state}/{actor}": [_check_symbol(a) for a in acts]
            for (state, actor), acts in spec.legal_actions.items()
        },
        "transitions": [
            {"from": state, "joint": list(joint), "to": succ, "prob": prob}
            for (state, joint), dist in spec.transitions.items()
            for succ, prob in dist.items()
        ],
        "rewards": {
            f"{state}/{','.join(joint)}": list(vec)
            for (state, joint), vec in spec.rewards.items()
        },
        "observations": {
            f"{state}/{','.join(joint)}/{succ}": {
                "priv": [_check_symbol(p) for p in obs.private],
                "pub": _check_symbol(obs.public),
            }
            for (state, joint, succ), obs in spec.observations.items()
        },
    }
    if spec.chance_policy is not None:
        doc["chance_policy"] = {s: dict(d) for s, d in spec.chance_policy.items()}
    return doc


def spec_from_json(doc: dict) -> GameSpec:
    transitions: Dict[Tuple[str, JointKey], Dict[str, float]] = {}
    for entry in doc["transitions"]:
        key = (entry["from"], tuple(entry["joint"]))
        transitions.setdefault(key, {})[entry["to"]] = float(entry["prob"])
    for key, dist in transitions.items():
        total = sum(dist.values())
        if not (1 - LOAD_TOL) <= total <= (1 + LOAD_TOL):
            raise InvalidArgument(f"transition distribution at {key!r} sums to {total!r}")
    legal = {}
    for composite, acts in doc["actions"].items():
        state, actor = composite.rsplit("/", 1)
        legal[(state, int(actor))] = tuple(acts)
    rewards = {}
    for composite, vec in doc["rewards"].items():
        state, joint = composite.split("/", 1)
        rewards[(state, tuple(joint.split(",")))] = tuple(float(v) for v in vec)
    observations = {}
    for composite, obs in doc["observations"].items():
        state, joint, succ = composite.split("/")
        observations[(state, tuple(joint.split(",")), succ)] = FactoredObservation(
            private=tuple(obs["priv"]), public=obs["pub"])
    chance = doc.get("chance_policy")
    return GameSpec(
        num_players=int(doc["players"]),
        states=tuple(doc["states"]),
        initial_state=doc["initial"],
        player_fn={s: frozenset(v) for s, v in doc["player_fn"].items()},
        legal_actions=legal,
        transitions=transitions,
        rewards=rewards,
        observations=observations,
        chance_policy={s: {a: float(p) for a, p in d.items()} for s, d in chance.items()}
        if chance is not None else None,
    )


def efg_to_json(efg: ClassicalEFG) -> dict:
    nodes = []
    for node in efg.nodes:
        entry = {
            "id": node.name,
            "parent": efg.nodes[node.parent].name if node.parent is not None else None,
            "action": node.incoming_action,
            "actor": node.actor,
        }
        if node.utilities is not None:
            entry["utilities"] = list(node.utilities)
        if node.chance_dist is not None:
            entry["chance"] = dict(node.chance_dist)
        nodes.append(entry)
    return {
        "players": efg.num_players,
        "nodes": nodes,
        "infosets": {
            str(player): [[efg.nodes[m].name for m in members] for members in cells.values()]
            for player, cells in efg.infosets.items()
        },
    }


def efg_from_json(doc: dict) -> ClassicalEFG:
    """Load a classical tree; its node list may come in any order.

    One pass over the list: an entry whose parent is not built yet waits under
    the parent's name and is built once the parent is, so a parents-first
    list keeps its order as the node ids. Raises InvalidArgument for a repeated
    node name, a second child under one action, a second root, and entries
    that never reach a root (orphans or cycles).
    """
    by_name: Dict[str, int] = {}
    nodes: List[EfgNode] = []
    waiting: Dict[str, List[dict]] = {}
    for entry in doc["nodes"]:
        parent_name = entry["parent"]
        if parent_name is not None and parent_name not in by_name:
            waiting.setdefault(parent_name, []).append(entry)
            continue
        ready = [entry]
        for entry in ready:  # grows by the entries waiting for the one just built
            name = entry["id"]
            if name in by_name:
                raise InvalidArgument(f"node name {name!r} occurs twice")
            parent_name = entry["parent"]
            if parent_name is None and nodes:
                raise InvalidArgument(f"node {name!r} is a second root")
            by_name[name] = add_efg_node(
                nodes, name, None if parent_name is None else by_name[parent_name],
                entry.get("action"), int(entry["actor"]),
                tuple(entry["utilities"]) if "utilities" in entry else None,
                dict(entry["chance"]) if "chance" in entry else None)
            ready += waiting.pop(name, ())
    if waiting:
        raise InvalidArgument("node list contains orphans or cycles")
    infosets = {}
    for player, cells in doc["infosets"].items():
        infosets[int(player)] = {
            f"I{player}.{i}": tuple(by_name[name] for name in cell)
            for i, cell in enumerate(cells)
        }
    for p in range(1, int(doc["players"]) + 1):
        infosets.setdefault(p, {})
    covered = [False] * len(nodes)
    for player, cells in infosets.items():
        for members in cells.values():
            for m in members:
                covered[m] = covered[m] or nodes[m].actor == player
    for node in nodes:
        if node.actor not in (CHANCE_ACTOR, TERMINAL_ACTOR) and not covered[node.id]:
            raise InvalidArgument(f"decision node {node.name!r} of player {node.actor} "
                                  "belongs to no infoset of its actor")
    return ClassicalEFG(num_players=int(doc["players"]), nodes=nodes, infosets=infosets)


def sniff_format(doc: dict) -> str:
    """"spec" for game-spec documents, "efg" for tabular trees."""
    if "states" in doc and "transitions" in doc:
        return "spec"
    if "nodes" in doc and "infosets" in doc:
        return "efg"
    raise InvalidArgument("unrecognized game document")


def trace_to_csv(trace: List[TracePoint]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iteration", "exploitability", "value_p1", "wall_ms"])
    for point in trace:
        writer.writerow([point.iteration, repr(point.exploitability),
                         repr(point.value_p1), f"{point.wall_ms:.3f}"])
    return buf.getvalue()
