"""Graphviz DOT export of the three views of an unrolled game.

The history view draws the full tree, the infoset view one player's
information-state tree, and the public view the public tree. Node labels
carry the world state, the information-state key, and the public-state key
respectively.
"""

from __future__ import annotations

from typing import Hashable

from .errors import InvalidArgument
from .unroll import CHANCE_ACTOR, TERMINAL_ACTOR, ExtensiveFormRep, require_form

VIEWS = ("history", "infoset", "public")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_key(key: Hashable) -> str:
    """Compact human-readable form of infostate and public keys."""
    if isinstance(key, tuple):
        if not key:
            return "·"
        parts = []
        for el in key:
            if isinstance(el, tuple) and len(el) == 2 and el[0] == "a":
                parts.append(f"a:{el[1]}")
            elif isinstance(el, tuple) and len(el) == 3 and el[0] == "o":
                parts.append(f"({render_key(el[1])}|{render_key(el[2])})")
            else:
                parts.append(render_key(el))
        return " ".join(parts)
    return str(key)


def history_dot(rep: ExtensiveFormRep) -> str:
    lines = ["digraph history {", "  rankdir=TB;"]
    for node in rep.nodes:
        if node.actor == TERMINAL_ACTOR:
            label = f"{node.world_state} {tuple(round(u, 3) for u in node.cumulative_reward)}"
            shape = "box"
        elif node.actor == CHANCE_ACTOR:
            label, shape = f"{node.world_state} (chance)", "circle"
        else:
            label, shape = f"{node.world_state} (p{node.actor})", "ellipse"
        lines.append(f"  n{node.id} [label={_quote(label)}, shape={shape}];")
    for node in rep.nodes:
        for action, child in node.children.items():
            lines.append(f"  n{node.id} -> n{child} [label={_quote(str(action))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def infoset_dot(rep: ExtensiveFormRep, player: int) -> str:
    """One player's information-state tree: cells as nodes, extension as edges."""
    keys = list(rep.infosets[player])
    ids = {key: i for i, key in enumerate(keys)}
    lines = [f"digraph infosets_p{player} {{", "  rankdir=TB;"]
    for key in keys:
        members = rep.infosets[player][key]
        acting = rep.nodes[members[0]].actor == player
        shape = "ellipse" if acting else "plaintext"
        lines.append(f"  i{ids[key]} [label={_quote(render_key(key))}, shape={shape}];")
    seen = set()
    for node in rep.nodes:
        if node.parent is None:
            continue
        parent_key = rep.infostate_keys[player][node.parent]
        child_key = rep.infostate_keys[player][node.id]
        if parent_key == child_key:
            continue
        edge = (ids[parent_key], ids[child_key])
        if edge not in seen:
            seen.add(edge)
            lines.append(f"  i{edge[0]} -> i{edge[1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def public_dot(rep: ExtensiveFormRep) -> str:
    keys = list(rep.public_sets)
    ids = {key: i for i, key in enumerate(keys)}
    lines = ["digraph public {", "  rankdir=TB;"]
    for key in keys:
        lines.append(f"  p{ids[key]} [label={_quote(render_key(key))}, shape=ellipse];")
    for key in keys:
        if isinstance(key, tuple) and len(key) and key[:-1] in ids:
            lines.append(f"  p{ids[key[:-1]]} -> p{ids[key]} "
                         f"[label={_quote(render_key(key[-1]))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_view(rep: ExtensiveFormRep, view: str) -> str:
    require_form(rep, ExtensiveFormRep, "export_view")
    if view == "history":
        return history_dot(rep)
    if view == "public":
        return public_dot(rep)
    if view.startswith("infoset:"):
        player = view.split(":", 1)[1]
        if player in {str(p) for p in rep.players}:
            return infoset_dot(rep, int(player))
    raise InvalidArgument(f"unknown view {view!r}: use history, public or infoset:<player> "
                          f"with a player among {list(rep.players)}")
