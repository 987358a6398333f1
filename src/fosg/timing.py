"""Exact timings of classical game trees and padding to unit-step form.

A timing labels every node with a non-negative integer such that children
exceed parents by at least one and members of a classical infoset share a
label. Timings are found by collapsing infoset-equality classes and taking
longest paths from the root in the collapsed constraint graph; when the
collapsed graph is cyclic the game admits no exact timing and a constraint
cycle alternating tree edges with infoset equalities is produced as witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from .errors import InvalidTiming
from .unroll import ClassicalEFG, EfgNode, _union_find, add_efg_node, require_form

WitnessStep = Tuple  # ("edge", parent, child) | ("infoset", a, b, player, key)


@dataclass
class Timing:
    """Node labels of an exact deterministic timing."""

    labels: Dict[int, int]

    def tau(self, efg: ClassicalEFG, child_id: int) -> int:
        """Time stamps skipped on the edge into ``child_id``."""
        child = efg.nodes[child_id]
        return self.labels[child_id] - self.labels[child.parent] - 1


def validate_timing(efg: ClassicalEFG, timing: Timing) -> List[str]:
    """All timing-constraint violations of ``timing`` on ``efg`` (empty = valid)."""
    problems = []
    labels = timing.labels
    for node in efg.nodes:
        label = labels.get(node.id)
        if label is None:
            problems.append(f"node {node.id} has no label")
            continue
        if not isinstance(label, int) or label < 0:
            problems.append(f"node {node.id} has non-integer or negative label {label!r}")
            continue
        if node.parent is not None and label < labels.get(node.parent, 0) + 1:
            problems.append(f"edge into node {node.id} advances by less than one")
    for player, cells in efg.infosets.items():
        for key, members in cells.items():
            values = {labels.get(m) for m in members}
            if len(values) > 1:
                problems.append(f"infoset {key!r} of player {player} has mixed labels {sorted(values)}")
    return problems


def normalize_labels(labels: Dict[int, int]) -> Dict[int, int]:
    """Compress label values to consecutive integers starting at zero.

    Keeps every ordering relation, so an exact timing stays exact and the
    largest label becomes at most one less than the node count.
    """
    distinct = sorted(set(labels.values()))
    rank = {v: i for i, v in enumerate(distinct)}
    return {nid: rank[v] for nid, v in labels.items()}


def _cell_lookup(efg: ClassicalEFG) -> Dict[int, List[Tuple[int, Hashable, Tuple[int, ...]]]]:
    by_node: Dict[int, List[Tuple[int, Hashable, Tuple[int, ...]]]] = {}
    for player, cells in efg.infosets.items():
        for key, members in cells.items():
            for m in members:
                by_node.setdefault(m, []).append((player, key, members))
    return by_node


def _equality_path(by_node: Dict[int, List[Tuple[int, Hashable, Tuple[int, ...]]]],
                   start: int, goal: int) -> List[WitnessStep]:
    """Connect two nodes of one collapsed class through shared infoset cells."""
    if start == goal:
        return []
    prev: Dict[int, Tuple[int, int, Hashable]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for player, key, members in by_node.get(current, ()):
            for other in members:
                if other not in seen:
                    seen.add(other)
                    prev[other] = (current, player, key)
                    if other == goal:
                        queue.clear()
                        break
                    queue.append(other)
    steps: List[WitnessStep] = []
    node = goal
    while node != start:
        source, player, key = prev[node]
        steps.append(("infoset", source, node, player, key))
        node = source
    steps.reverse()
    return steps


def find_exact_timing(efg: ClassicalEFG) -> Tuple[Optional[Timing], Optional[List[WitnessStep]]]:
    """Longest-path exact timing, or a constraint cycle when none exists.

    Returns ``(timing, None)``, where each label is the longest-path distance
    of the node's class from a source class: a class at distance d > 0 has a
    predecessor at d - 1, so the labels run from 0 with no gaps. Otherwise
    returns ``(None, witness)`` where the witness alternates tree edges with
    infoset equalities and closes on itself.
    """
    nodes = efg.nodes
    roots = _union_find(len(nodes), (
        members for cells in efg.infosets.values() for members in cells.values()))
    # One tree edge per pair of classes, named by its child; a class is named
    # by its smallest node.
    edges: Dict[int, Dict[int, int]] = {}
    indeg = [0] * len(nodes)
    for node in nodes:
        if node.parent is not None:
            targets = edges.setdefault(roots[node.parent], {})
            sv = roots[node.id]
            if sv not in targets:
                targets[sv] = node.id
                indeg[sv] += 1

    dist = [0] * len(nodes)
    ready = [c for c, root in enumerate(roots) if root == c and indeg[c] == 0]
    while ready:
        s = ready.pop()
        for sv in edges.get(s, ()):
            dist[sv] = max(dist[sv], dist[s] + 1)
            indeg[sv] -= 1
            if indeg[sv] == 0:
                ready.append(sv)
    if any(indeg):
        return None, _cycle_witness(efg, roots, edges, indeg)
    return Timing(labels={node.id: dist[roots[node.id]] for node in nodes}), None


def _cycle_witness(efg: ClassicalEFG, roots: List[int], edges: Dict[int, Dict[int, int]],
                   indeg: List[int]) -> List[WitnessStep]:
    """The witness of a class cycle among the classes a stalled Kahn pass left over.

    Every left-over class has a left-over predecessor, so walking back from
    the smallest one repeats a class, and the classes between the two visits
    form a cycle.
    """
    nodes = efg.nodes
    back: Dict[int, int] = {}  # left-over class -> child of its first left-over in-edge
    for su, targets in edges.items():
        if indeg[su]:
            for sv, child in targets.items():
                back.setdefault(sv, child)
    walk: List[int] = []
    visit: Dict[int, int] = {}
    current = next(c for c, d in enumerate(indeg) if d)
    while current not in visit:
        visit[current] = len(walk)
        walk.append(back[current])
        current = roots[nodes[walk[-1]].parent]
    cycle = walk[visit[current]:][::-1]

    by_node = _cell_lookup(efg)
    entry = current = nodes[cycle[0]].parent
    steps: List[WitnessStep] = []
    for child in cycle:
        parent = nodes[child].parent
        steps += _equality_path(by_node, current, parent)
        steps.append(("edge", parent, child))
        current = child
    steps += _equality_path(by_node, current, entry)
    return steps


def verify_witness(efg: ClassicalEFG, witness: List[WitnessStep]) -> bool:
    """Check that a witness is a genuine closed chain of violated constraints.

    Answers False, without raising, for an unknown step tag, a step of the
    wrong length or a node id outside the tree.
    """
    if not witness:
        return False
    count = len(efg.nodes)
    edge_steps = 0
    for step in witness:
        if not ((len(step) == 3 and step[0] == "edge") or
                (len(step) == 5 and step[0] == "infoset")):
            return False
        if not all(isinstance(nid, int) and 0 <= nid < count for nid in step[1:3]):
            return False
        if step[0] == "edge":
            _tag, parent, child = step
            if efg.nodes[child].parent != parent:
                return False
            edge_steps += 1
        else:
            _tag, a, b, player, key = step
            members = efg.infosets.get(player, {}).get(key)
            if members is None or a not in members or b not in members:
                return False
    for prev, nxt in zip(witness, witness[1:]):
        if prev[2] != nxt[1]:
            return False
    if witness[-1][2] != witness[0][1]:
        return False
    return edge_steps > 0


def witness_nodes(witness: List[WitnessStep]) -> List[int]:
    """Distinct nodes touched by a witness, in chain order."""
    seen = []
    for step in witness:
        for nid in (step[1], step[2]):
            if nid not in seen:
                seen.append(nid)
    return seen


def pad_to_1_timeable(efg: ClassicalEFG, timing: Timing) -> ClassicalEFG:
    """Insert single-action chance nodes until every transition takes one step.

    An edge whose timing labels differ by 1 + t gains t pad nodes. The output
    has exactly the input's node count plus the summed skips, identical
    strategy spaces, and unchanged expected utilities.
    """
    require_form(efg, ClassicalEFG, "pad_to_1_timeable")
    problems = validate_timing(efg, timing)
    if problems:
        raise InvalidTiming("; ".join(problems))

    nodes: List[EfgNode] = []
    remap: Dict[int, int] = {}
    pad_counter: Dict[int, int] = {}

    def copy_node(old: EfgNode, parent_new: Optional[int], action: Optional[str]) -> None:
        remap[old.id] = add_efg_node(
            nodes, old.name, parent_new, action, old.actor, old.utilities,
            dict(old.chance_dist) if old.chance_dist else None)

    queue = deque()
    copy_node(efg.nodes[0], None, None)
    queue.append(efg.nodes[0].id)
    total_tau = 0
    while queue:
        old_id = queue.popleft()
        old = efg.nodes[old_id]
        for action in old.actions:
            child = efg.nodes[old.children[action]]
            tau = timing.tau(efg, child.id)
            total_tau += tau
            attach_id = remap[old_id]
            attach_action = action
            for _ in range(tau):
                count = pad_counter[old_id] = pad_counter.get(old_id, 0) + 1
                attach_id = add_efg_node(nodes, f"pad/{old.name}/{count}", attach_id,
                                         attach_action, 0, chance_dist={"noop": 1.0})
                attach_action = "noop"
            copy_node(child, attach_id, attach_action)
            queue.append(child.id)

    assert len(nodes) == len(efg.nodes) + total_tau
    infosets = {
        player: {key: tuple(remap[m] for m in members) for key, members in cells.items()}
        for player, cells in efg.infosets.items()
    }
    return ClassicalEFG(num_players=efg.num_players, nodes=nodes, infosets=infosets)
