"""Unrolling serial games into their tree representation.

The tree form carries, besides the history tree itself, one information
partition per player covering every node (not only the nodes where the player
acts) and a public partition that each player partition refines. Classical
game trees keep only the acting-player cells; the functions here convert in
both directions and back into the tabular game model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (DepthExceeded, ImperfectRecall, InvalidArgument, NotOneTimeable,
                     NotSerial, OutcomeDependentReward, ThickPublicSets)
from .model import (EMPTY_PUBLIC, NOOP, FactoredObservation, GameSpec, InfoKey,
                    JointKey, is_serial, merge_chance)

CHANCE_ACTOR = 0
TERMINAL_ACTOR = -1


@dataclass(slots=True)
class HistoryNode:
    """One history of the unrolled game.

    ``actor`` is a player index, 0 for chance, -1 for terminal nodes.
    ``cumulative_reward`` is the running reward vector along the history and
    doubles as the utility vector at terminals. ``unroll`` gives every node of
    one world state the same ``actions`` tuple and ``chance_dist`` dict, and
    every terminal node of a tree the same empty ``children`` dict.
    """

    id: int
    parent: Optional[int]
    incoming_action: Optional[str]
    world_state: Optional[str]
    actor: int
    depth: int
    cumulative_reward: Tuple[float, ...]
    actions: Tuple[str, ...] = ()
    chance_dist: Optional[Dict[str, float]] = None
    children: Dict[str, int] = field(default_factory=dict)
    incoming_obs: Optional[FactoredObservation] = None


@dataclass
class ExtensiveFormRep:
    """A history tree with per-player partitions over all nodes plus a public partition.

    Treated as immutable once built; concurrent read-only traversal is safe.
    """

    num_players: int
    nodes: List[HistoryNode]
    infostate_keys: Dict[int, List[Hashable]]
    infosets: Dict[int, Dict[Hashable, Tuple[int, ...]]]
    public_keys: List[Hashable]
    public_sets: Dict[Hashable, Tuple[int, ...]]

    @property
    def root(self) -> HistoryNode:
        return self.nodes[0]

    @property
    def players(self) -> Tuple[int, ...]:
        return tuple(range(1, self.num_players + 1))

    def terminals(self) -> List[HistoryNode]:
        return [n for n in self.nodes if n.actor == TERMINAL_ACTOR]

    def utility(self, node_id: int) -> Tuple[float, ...]:
        return self.nodes[node_id].cumulative_reward

    def edge_reward(self, child: HistoryNode) -> Tuple[float, ...]:
        parent = self.nodes[child.parent]
        return tuple(c - p for c, p in zip(child.cumulative_reward, parent.cumulative_reward))

    def acting_infosets(self, player: int) -> Dict[Hashable, Tuple[int, ...]]:
        return {key: members for key, members in self.infosets[player].items()
                if self.nodes[members[0]].actor == player}

    def infoset_actions(self, player: int, key: Hashable) -> Tuple[str, ...]:
        return self.nodes[self.infosets[player][key][0]].actions


@dataclass(slots=True)
class EfgNode:
    """One node of a classical game tree; ``utilities`` is set at leaves only."""

    id: int
    name: str
    parent: Optional[int]
    incoming_action: Optional[str]
    actor: int
    depth: int
    actions: Tuple[str, ...] = ()
    chance_dist: Optional[Dict[str, float]] = None
    children: Dict[str, int] = field(default_factory=dict)
    utilities: Optional[Tuple[float, ...]] = None


@dataclass
class ClassicalEFG:
    """A game tree whose information partitions cover only the acting player's nodes."""

    num_players: int
    nodes: List[EfgNode]
    infosets: Dict[int, Dict[Hashable, Tuple[int, ...]]]

    @property
    def root(self) -> EfgNode:
        return self.nodes[0]

    @property
    def players(self) -> Tuple[int, ...]:
        return tuple(range(1, self.num_players + 1))

    def terminals(self) -> List[EfgNode]:
        return [n for n in self.nodes if n.actor == TERMINAL_ACTOR]

    def infoset_of(self, player: int) -> Dict[int, Hashable]:
        out = {}
        for key, members in self.infosets[player].items():
            for m in members:
                out[m] = key
        return out


# One outgoing edge of a world state: (label, successor, reward, observation,
# appendix ids). ``reward`` is None when it is all zeros, so the child keeps
# its parent's reward tuple; the ids name what each partition's key gains.
_Edge = Tuple[str, str, Optional[Tuple[float, ...]], FactoredObservation, Tuple[int, ...]]
_Step = Tuple[Tuple[str, ...], Optional[Dict[str, float]], List[_Edge]]


def unroll(spec: GameSpec, depth_bound: int = 64) -> ExtensiveFormRep:
    """Materialize the full reachable tree of a serial game.

    Nodes are numbered in breadth-first order. Information partitions group
    nodes by identical action-observation sequences, the public partition by
    identical public-observation sequences. Raises NotSerial for
    simultaneous-move input, DepthExceeded when a non-terminal node sits at
    ``depth_bound``, and ValueError when an infoset mixes the owner's decision
    nodes with other nodes or with other legal action sets.

    The game's tables are read once per world state through a step table:
    a state's actor when its first node is created, its edges when its first
    node is expanded, so a lookup error surfaces at the same node as in a walk
    that reads them per node. All members of one cell share one key tuple,
    built from interned elements.
    """
    if spec.has_chance_actor:
        spec = merge_chance(spec)
    if not is_serial(spec):
        raise NotSerial("unroll requires a serial game; call serialize() first")

    nplayers = spec.num_players
    actors: Dict[str, int] = {}
    steps: Dict[str, _Step] = {}
    interned: Dict[Hashable, Hashable] = {}
    appendix_ids: Dict[Tuple[Hashable, ...], int] = {}
    appendices: List[Tuple[Hashable, ...]] = []

    def actor_of(state: str) -> int:
        actor = actors.get(state)
        if actor is None:
            if spec.is_terminal(state):
                actor = TERMINAL_ACTOR
            else:
                players = spec.active_players(state)
                actor = players[0] if players else CHANCE_ACTOR
            actors[state] = actor
        return actor

    def appendix(*elements: Hashable) -> int:
        items = tuple(interned.setdefault(el, el) for el in elements)
        aid = appendix_ids.get(items)
        if aid is None:
            aid = appendix_ids[items] = len(appendices)
            appendices.append(items)
        return aid

    def expand(state: str, actor: int) -> _Step:
        if actor == CHANCE_ACTOR:
            joint = spec.noop_joint(state)
            dist = spec.transitions[(state, joint)]
            # Zero-probability outcomes are kept only when observable, so
            # subgames built over a support-shrinking range keep their shape.
            successors = [s for s in sorted(dist)
                          if dist[s] > 0 or (state, joint, s) in spec.observations]
            actions = tuple(successors)
            chance_dist = {succ: dist[succ] for succ in successors}
            outcomes = [(succ, succ, joint) for succ in successors]
        else:
            actions = spec.legal_actions[(state, actor)]
            chance_dist = None
            outcomes = []
            for a in actions:
                j = spec.joint_for(state, {actor: a})
                dist = spec.transitions[(state, j)]
                (succ,) = [s for s, p in dist.items() if p > 0]
                outcomes.append((a, succ, j))
        edges = []
        for label, succ, joint in outcomes:
            reward = spec.rewards[(state, joint)]
            obs = spec.observations[(state, joint, succ)]
            ids = []
            for p in spec.players:
                seen = ("o", obs.private[p - 1], obs.public)
                if p == actor and label != NOOP:
                    ids.append(appendix(("a", label), seen))
                else:
                    ids.append(appendix(seen))
            ids.append(appendix(obs.public))
            # A zero reward adds nothing: the running sums never hold -0.0.
            if len(reward) == nplayers and not any(reward):
                reward = None
            edges.append((label, succ, reward, obs, tuple(ids)))
        return actions, chance_dist, edges

    # Terminal nodes are never expanded; they share one empty children dict.
    no_children: Dict[str, int] = {}
    root_actor = actor_of(spec.initial_state)
    nodes = [HistoryNode(0, None, None, spec.initial_state, root_actor, 0,
                         tuple(0.0 for _ in spec.players))]
    # Per partition, the players' and then the public one, each node's key
    # and the cells in order of first appearance. A cell is named by its
    # first member (its representative), so naming one allocates nothing. A
    # player's infoset must hold only the player's decision nodes or none, and
    # those with one legal action set: offences are recorded as (player,
    # representative), and the first in that order is raised once the tree is
    # built.
    nparts = nplayers + 1
    node_keys: List[List[Tuple[Hashable, ...]]] = [[()] for _ in range(nparts)]
    partitions: List[Dict[Tuple[Hashable, ...], Tuple[int, ...]]] = [
        {(): (0,)} for _ in range(nparts)]
    mixed: List[Tuple[int, int]] = []
    unequal: List[Tuple[int, int]] = []

    # Every step appends one observation to every key, so all members of a
    # cell sit at one depth, and a level's cells are complete once the level
    # above it is expanded.
    frontier = [0]
    frontier_cells = [[0] for _ in range(nparts)]
    while frontier:
        next_frontier: List[int] = []
        next_cells: List[List[int]] = [[] for _ in range(nparts)]
        # The child cell reached from a parent cell by an appendix, per
        # partition, as links[q][appendix id][parent cell].
        links: List[Dict[int, Dict[int, int]]] = [{} for _ in range(nparts)]
        for pos, nid in enumerate(frontier):
            node = nodes[nid]
            actor = node.actor
            if actor == TERMINAL_ACTOR:
                continue
            if node.depth >= depth_bound:
                raise DepthExceeded(
                    f"non-terminal node at depth {depth_bound} (state {node.world_state!r})")
            step = steps.get(node.world_state)
            if step is None:
                step = steps[node.world_state] = expand(node.world_state, actor)
            actions, chance_dist, edges = step
            node.actions = actions
            node.chance_dist = chance_dist
            parents = [cells[pos] for cells in frontier_cells]
            if actor != CHANCE_ACTOR:
                # The representative came first in this level, so it is expanded.
                representative = nodes[parents[actor - 1]]
                if representative.actions is not actions and representative.actions != actions:
                    unequal.append((actor, representative.id))
            depth = node.depth + 1
            base = node.cumulative_reward
            children = node.children
            for label, succ, reward, obs, ids in edges:
                cid = len(nodes)
                child_actor = actor_of(succ)
                cumulative = base if reward is None else tuple(map(add, base, reward))
                nodes.append(HistoryNode(
                    cid, nid, label, succ, child_actor, depth, cumulative, (), None,
                    no_children if child_actor == TERMINAL_ACTOR else {}, obs))
                children[label] = cid
                for q, aid in enumerate(ids):
                    parent = parents[q]
                    by_parent = links[q].get(aid)
                    if by_parent is None:
                        by_parent = links[q][aid] = {}
                    cell = by_parent.get(parent)
                    keys = node_keys[q]
                    if cell is None:
                        cell = by_parent[parent] = cid
                        keys.append(keys[parent] + appendices[aid])
                    else:
                        keys.append(keys[cell])
                        if (nodes[cell].actor == q + 1) != (child_actor == q + 1):
                            mixed.append((q + 1, cell))
                    next_cells[q].append(cell)
                next_frontier.append(cid)
        del links
        singletons = [(nid,) for nid in next_frontier]
        for q in range(nparts):
            _add_level(next_frontier, singletons, next_cells[q], node_keys[q], partitions[q])
        frontier, frontier_cells = next_frontier, next_cells

    if mixed or unequal:
        player, cell = min(mixed + unequal)
        key = node_keys[player - 1][cell]
        if (player, cell) in mixed:
            raise ValueError(f"infoset {key!r} of player {player} mixes acting and non-acting nodes")
        raise ValueError(f"infoset {key!r} of player {player} mixes legal action sets")

    return ExtensiveFormRep(
        num_players=nplayers,
        nodes=nodes,
        infostate_keys={p: node_keys[p - 1] for p in spec.players},
        infosets={p: partitions[p - 1] for p in spec.players},
        public_keys=node_keys[nplayers],
        public_sets=partitions[nplayers],
    )


def _add_level(level: List[int], singletons: List[Tuple[int]], cells: List[int],
               node_keys: List[Tuple[Hashable, ...]],
               partition: Dict[Tuple[Hashable, ...], Tuple[int, ...]]) -> None:
    """Add one level's cells of a partition, in order of first appearance.

    ``level`` holds the level's node ids, which are consecutive,
    ``singletons`` their ``(nid,)`` tuples and ``cells`` the first member of
    each one's cell. A one-member cell takes its tuple from ``singletons``, so
    all partitions share it.
    """
    if cells == level:
        partition.update(zip(map(node_keys.__getitem__, level), singletons))
        return
    groups: Dict[int, List[int]] = {}
    for nid, cell in zip(level, cells):
        groups.setdefault(cell, []).append(nid)
    first = level[0]
    for cell, group in groups.items():
        partition[node_keys[cell]] = (tuple(group) if len(group) > 1
                                      else singletons[cell - first])


def thick_public_set_witness(rep: ExtensiveFormRep) -> Optional[Tuple[int, int]]:
    """A (ancestor, descendant) pair sharing a public set, or None."""
    for members in rep.public_sets.values():
        cell = set(members)
        for m in members:
            node = rep.nodes[m]
            while node.parent is not None:
                if node.parent in cell:
                    return (node.parent, m)
                node = rep.nodes[node.parent]
    return None


def has_thick_public_sets(rep: ExtensiveFormRep) -> bool:
    return thick_public_set_witness(rep) is not None


def _last_own(game, player: int) -> List[Optional[Tuple[Hashable, str]]]:
    """Per node, the player's latest own (infoset key, action) above it, or None.

    This is the player's memory of their own play, in either representation.
    One pass in id order, which must list parents first: raises
    InvalidArgument at a node whose parent id is not smaller than its own,
    and at a decision node of the player that no infoset of theirs covers.
    """
    keys = (game.infostate_keys[player] if isinstance(game, ExtensiveFormRep)
            else game.infoset_of(player))
    nodes = game.nodes
    last: List[Optional[Tuple[Hashable, str]]] = [None] * len(nodes)
    for node in nodes:
        up = node.parent
        if up is None:
            continue
        if up >= node.id:
            raise InvalidArgument(
                f"node {node.id} does not come after its parent {up}; "
                "node ids must list parents first")
        if nodes[up].actor == player:
            try:
                last[node.id] = (keys[up], node.incoming_action)
            except KeyError:  # only a classical tree's cells can leave a node out
                raise InvalidArgument(f"decision node {up} of player {player} belongs "
                                      "to no infoset of its actor") from None
        else:
            last[node.id] = last[up]
    return last


def check_perfect_recall(game) -> Tuple[bool, Optional[Tuple]]:
    """Verify that the members of each infoset remember the same own play.

    Accepts either representation and compares the members of every
    multi-member cell one step back; by induction on depth this equals
    comparing their whole root paths. On a classical tree the members must
    share the owner's latest own (infoset, action) pair, and node ids must
    list parents first (InvalidArgument otherwise). On the augmented form
    the members' parents must share one cell of the owner and, where that
    parent is the owner's decision, the members must follow one action from
    it; no other member matches the root. Returns (True, None) or
    (False, (player, key, node_a, node_b)) for two members that remember
    differently.
    """
    if isinstance(game, ExtensiveFormRep):
        nodes = game.nodes

        def remembered(player: int) -> Callable[[int], Hashable]:
            keys = game.infostate_keys[player]

            def step(nid: int) -> Hashable:
                node = nodes[nid]
                up = node.parent
                if up is None:
                    return None
                if nodes[up].actor == player:
                    return (keys[up], node.incoming_action)
                return (keys[up],)

            return step
    elif isinstance(game, ClassicalEFG):
        def remembered(player: int) -> Callable[[int], Hashable]:
            return _last_own(game, player).__getitem__
    else:
        raise TypeError(f"unsupported game type {type(game)!r}")

    for player, cells in game.infosets.items():
        step = remembered(player)
        for key, members in cells.items():
            if len(members) < 2:
                continue
            reference = step(members[0])
            for other in members[1:]:
                if step(other) != reference:
                    return False, (player, key, members[0], other)
    return True, None


def _union_find(size: int, groups: Iterable[Sequence[int]]) -> List[int]:
    """Per element of ``range(size)``, the smallest element ``groups`` join it with."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in groups:
        for other in members[1:]:
            ra, rb = find(members[0]), find(other)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(size)]


# ---------------------------------------------------------------------------
# Forgetting maps


def forget_nonacting(rep: ExtensiveFormRep) -> ClassicalEFG:
    """Drop the public partition and restrict each partition to the owner's decision nodes.

    Counting the public sets on each node's root path yields an exact unit-step
    timing of the result, so the output is always 1-timeable. The result
    shares ``rep``'s node containers (``actions``, ``chance_dist``,
    ``children``) and the member tuples of infosets made of decision nodes
    only; neither side may be changed in place.
    """
    nodes = [
        EfgNode(n.id, f"n{n.id}", n.parent, n.incoming_action, n.actor, n.depth, n.actions,
                n.chance_dist or None, n.children,
                n.cumulative_reward if n.actor == TERMINAL_ACTOR else None)
        for n in rep.nodes
    ]
    actors = [n.actor for n in rep.nodes]
    infosets: Dict[int, Dict[Hashable, Tuple[int, ...]]] = {}
    for p in rep.players:
        cells = {}
        for key, members in rep.infosets[p].items():
            acting = [m for m in members if actors[m] == p]
            if len(acting) == len(members):
                cells[key] = members
            elif acting:
                cells[key] = tuple(acting)
        infosets[p] = cells
    return ClassicalEFG(num_players=rep.num_players, nodes=nodes, infosets=infosets)


def forget_factorization(spec: GameSpec) -> GameSpec:
    """Collapse the observation factoring into a partially observable game.

    Every player becomes active at every non-initial, non-terminal state with
    the single noop action where they previously had none, each player's new
    private observation is their former (private, public) pair, and the public
    observation is constantly the empty symbol. Transition, reward, and
    observation keys are unchanged.
    """
    if spec.has_chance_actor:
        spec = merge_chance(spec)
    all_players = frozenset(spec.players)
    player_fn: Dict[str, frozenset] = {}
    legal: Dict[Tuple[str, int], Tuple[str, ...]] = dict(spec.legal_actions)
    for state in spec.states:
        if state == spec.initial_state or spec.is_terminal(state):
            player_fn[state] = spec.player_fn.get(state, frozenset())
            continue
        player_fn[state] = all_players
        for p in spec.players:
            if (state, p) not in legal:
                legal[(state, p)] = (NOOP,)
    observations = {
        key: FactoredObservation(
            private=tuple((priv, obs.public) for priv in obs.private),
            public=EMPTY_PUBLIC)
        for key, obs in spec.observations.items()
    }
    return GameSpec(
        num_players=spec.num_players,
        states=spec.states,
        initial_state=spec.initial_state,
        player_fn=player_fn,
        legal_actions=legal,
        transitions=spec.transitions,
        rewards=spec.rewards,
        observations=observations,
        chance_policy=None,
    )


def original_key(key: InfoKey) -> InfoKey:
    """Map an information-state key of the factorization-forgetting game back.

    ``forget_factorization`` turns each observation element
    ``("o", private, public)`` into ``("o", (private, public), EMPTY_PUBLIC)``;
    this undoes it.
    """
    out = []
    for el in key:
        if el[0] == "o":
            out.append(("o", el[1][0], el[1][1]))
        else:
            out.append(el)
    return tuple(out)


def posg_policy(policy):
    """Lift a policy onto the factorization-forgetting game.

    Decision infostates map through the key translation; infostates created
    by the all-players-active padding answer with the forced noop.
    """

    def lifted(player: int, key: InfoKey):
        try:
            return policy(player, original_key(key))
        except KeyError:
            return {NOOP: 1.0}

    return lifted


# ---------------------------------------------------------------------------
# Lifting a tree representation back into a tabular game


def lift_to_fosg(rep: ExtensiveFormRep) -> GameSpec:
    """Rebuild a tabular game whose unrolling reproduces ``rep``.

    Histories become world states, chance distributions become transitions,
    terminal utilities are paid on the final transition, and partition keys
    become the observation symbols. Requires perfect recall and no thick
    public sets.
    """
    ok, witness = check_perfect_recall(rep)
    if not ok:
        raise ImperfectRecall(f"representation lacks perfect recall: {witness!r}")
    thick = thick_public_set_witness(rep)
    if thick is not None:
        raise ThickPublicSets(f"public set contains node {thick[0]} and its descendant {thick[1]}")

    # Intern partition keys as compact observation symbols.
    info_symbol: Dict[int, Dict[Hashable, str]] = {}
    for p in rep.players:
        info_symbol[p] = {key: f"s{p}.{idx}" for idx, key in enumerate(rep.infosets[p])}
    pub_symbol = {key: f"pub.{idx}" for idx, key in enumerate(rep.public_sets)}

    def state_name(nid: int) -> str:
        return f"h{nid}"

    prefix = []
    if rep.root.actor not in (CHANCE_ACTOR, TERMINAL_ACTOR):
        # The model requires a playerless initial state; prepend one.
        enter = FactoredObservation(
            private=tuple(info_symbol[p][rep.infostate_keys[p][0]] for p in rep.players),
            public=pub_symbol[rep.public_keys[0]])
        prefix.append(("h-init", tuple(0.0 for _ in rep.players), {state_name(0): (1.0, enter)}))
    return _tabulate_tree(rep, range(len(rep.nodes)), state_name, info_symbol, pub_symbol, prefix)


_PrefixState = Tuple[str, Tuple[float, ...], Dict[str, Tuple[float, FactoredObservation]]]


def _tabulate_tree(rep: ExtensiveFormRep, node_ids: Iterable[int],
                   state_name: Callable[[int], str],
                   info_symbol: Mapping[int, Mapping[Hashable, str]],
                   pub_symbol: Mapping[Hashable, str],
                   prefix: Sequence[_PrefixState] = ()) -> GameSpec:
    """The tabular game whose states are ``prefix`` followed by the nodes ``node_ids``.

    The first of these states is the initial one. Each prefix entry
    ``(state, reward, successors)`` is a playerless state
    paying ``reward`` and moving to each successor state with its
    ``(probability, observation)``. Node ``nid`` becomes the state
    ``state_name(nid)``; its edges keep their probabilities and rewards, and
    each edge observes the child's information and public cells through the
    two symbol tables. Raises ``OutcomeDependentReward`` at a chance node
    whose outcomes pay rewards more than 1e-12 apart, since a transition pays
    one reward whatever its outcome.
    """
    players = rep.players
    noop_joint = tuple(NOOP for _ in players)
    states: List[str] = []
    player_fn: Dict[str, frozenset] = {}
    legal: Dict[Tuple[str, int], Tuple[str, ...]] = {}
    transitions: Dict[Tuple[str, JointKey], Dict[str, float]] = {}
    rewards: Dict[Tuple[str, JointKey], Tuple[float, ...]] = {}
    observations: Dict[Tuple[str, JointKey, str], FactoredObservation] = {}

    for state, reward, successors in prefix:
        states.append(state)
        player_fn[state] = frozenset()
        transitions[(state, noop_joint)] = {succ: prob for succ, (prob, _) in successors.items()}
        rewards[(state, noop_joint)] = reward
        for succ, (_, obs) in successors.items():
            observations[(state, noop_joint, succ)] = obs

    for nid in node_ids:
        node = rep.nodes[nid]
        w = state_name(nid)
        states.append(w)
        if node.actor == TERMINAL_ACTOR:
            player_fn[w] = frozenset()
            continue
        edge_obs = {
            child_id: FactoredObservation(
                private=tuple(info_symbol[p][rep.infostate_keys[p][child_id]] for p in players),
                public=pub_symbol[rep.public_keys[child_id]])
            for child_id in node.children.values()
        }
        if node.actor == CHANCE_ACTOR:
            player_fn[w] = frozenset()
            dist = {state_name(node.children[label]): node.chance_dist[label]
                    for label in node.actions}
            transitions[(w, noop_joint)] = dist
            base = None
            for label in node.actions:
                child = rep.nodes[node.children[label]]
                reward = rep.edge_reward(child)
                if base is None:
                    base = reward
                elif any(abs(a - b) > 1e-12 for a, b in zip(base, reward)):
                    raise OutcomeDependentReward(
                        f"chance node {node.id} has outcome-dependent edge rewards")
                observations[(w, noop_joint, state_name(child.id))] = edge_obs[child.id]
            rewards[(w, noop_joint)] = base if base is not None else tuple(0.0 for _ in players)
        else:
            player = node.actor
            player_fn[w] = frozenset({player})
            legal[(w, player)] = node.actions
            for label in node.actions:
                child = rep.nodes[node.children[label]]
                joint = tuple(label if p == player else NOOP for p in players)
                transitions[(w, joint)] = {state_name(child.id): 1.0}
                rewards[(w, joint)] = rep.edge_reward(child)
                observations[(w, joint, state_name(child.id))] = edge_obs[child.id]

    return GameSpec(
        num_players=rep.num_players,
        states=tuple(states),
        initial_state=states[0],
        player_fn=player_fn,
        legal_actions=legal,
        transitions=transitions,
        rewards=rewards,
        observations=observations,
    )


# ---------------------------------------------------------------------------
# Augmenting a classical tree


def is_one_timeable(efg: ClassicalEFG) -> bool:
    """True when every classical infoset is depth-homogeneous."""
    for cells in efg.infosets.values():
        for members in cells.values():
            depths = {efg.nodes[m].depth for m in members}
            if len(depths) > 1:
                return False
    return True


def augment_classical(efg: ClassicalEFG) -> ExtensiveFormRep:
    """Extend a classical tree's partitions to all histories.

    Each node is labelled per player with either the player's own infoset, the
    parent infoset plus the connecting action, a root marker, or the nearest
    labelled ancestor plus the distance to it; equal labels form the extended
    partition. The public partition merges intersecting cells of the extended
    partitions until they are disjoint. Restricting the result to acting nodes
    reproduces the input exactly.

    Requires the input to be 1-timeable and have perfect recall, and its node
    ids to list parents first (InvalidArgument otherwise).
    """
    if not is_one_timeable(efg):
        raise NotOneTimeable("classical infosets are not depth-homogeneous")
    # The recall check also checks that node ids list parents first.
    ok, witness = check_perfect_recall(efg)
    if not ok:
        raise ImperfectRecall(f"classical tree lacks perfect recall: {witness!r}")

    labels_of = {p: efg.infoset_of(p) for p in efg.players}
    keys: Dict[int, List[Hashable]] = {}
    for p in efg.players:
        per_node: List[Hashable] = [None] * len(efg.nodes)
        anchored: List[bool] = [False] * len(efg.nodes)
        for node in efg.nodes:  # ids are topologically ordered (parents first)
            parent = efg.nodes[node.parent] if node.parent is not None else None
            if node.actor == p:
                per_node[node.id] = ("dec", labels_of[p][node.id])
                anchored[node.id] = True
            elif parent is not None and parent.actor == p:
                per_node[node.id] = ("post", labels_of[p][parent.id], node.incoming_action)
                anchored[node.id] = True
            elif parent is None:
                per_node[node.id] = ("root",)
                anchored[node.id] = True
            else:
                base = parent
                dist = 1
                while not anchored[base.id]:
                    base = efg.nodes[base.parent]
                    dist += 1
                per_node[node.id] = ("dist", per_node[base.id], dist)
        keys[p] = per_node

    nodes = [
        HistoryNode(id=n.id, parent=n.parent, incoming_action=n.incoming_action,
                    world_state=n.name, actor=n.actor, depth=n.depth,
                    cumulative_reward=n.utilities if n.utilities is not None
                    else tuple(0.0 for _ in efg.players),
                    actions=n.actions,
                    chance_dist=dict(n.chance_dist) if n.chance_dist else None,
                    children=dict(n.children))
        for n in efg.nodes
    ]
    infosets: Dict[int, Dict[Hashable, Tuple[int, ...]]] = {}
    for p in efg.players:
        cells: Dict[Hashable, List[int]] = {}
        for n in nodes:
            cells.setdefault(keys[p][n.id], []).append(n.id)
        infosets[p] = {k: tuple(v) for k, v in cells.items()}
    # Public partition: the finest one that every extended cell lies within.
    pub_keys: List[Hashable] = [
        ("pub", c) for c in _union_find(len(nodes), (
            members for cells in infosets.values() for members in cells.values()))]
    public_sets: Dict[Hashable, List[int]] = {}
    for n in nodes:
        public_sets.setdefault(pub_keys[n.id], []).append(n.id)

    return ExtensiveFormRep(
        num_players=efg.num_players,
        nodes=nodes,
        infostate_keys={p: list(keys[p]) for p in efg.players},
        infosets=infosets,
        public_keys=pub_keys,
        public_sets={k: tuple(v) for k, v in public_sets.items()},
    )


def same_classical(a: ClassicalEFG, b: ClassicalEFG) -> bool:
    """Structural equality: same tree, same utilities, same partition cells."""
    if a.num_players != b.num_players or len(a.nodes) != len(b.nodes):
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if (na.parent, na.incoming_action, na.actor, na.actions) != \
                (nb.parent, nb.incoming_action, nb.actor, nb.actions):
            return False
        if (na.chance_dist or None) != (nb.chance_dist or None):
            return False
        if na.utilities != nb.utilities:
            return False
    for p in a.players:
        cells_a = {frozenset(m) for m in a.infosets[p].values()}
        cells_b = {frozenset(m) for m in b.infosets[p].values()}
        if cells_a != cells_b:
            return False
    return True


def reps_isomorphic(a: ExtensiveFormRep, b: ExtensiveFormRep, atol: float = 1e-9) -> bool:
    """Isomorphism via the world-state bijection left behind by lift_to_fosg.

    ``b`` is expected to be the unrolling of ``lift_to_fosg(a)``: its world
    states name nodes of ``a``. Checks tree structure, actors, probabilities,
    rewards, and that every partition maps cell-for-cell.
    """
    mapping: Dict[int, int] = {}
    for node in b.nodes:
        w = node.world_state
        if w is None or not w.startswith("h") or w == "h-init":
            return False
        mapping[int(w[1:])] = node.id
    if len(mapping) != len(a.nodes) or len(b.nodes) != len(a.nodes):
        return False
    for node in a.nodes:
        image = b.nodes[mapping[node.id]]
        if node.actor != image.actor or len(node.children) != len(image.children):
            return False
        if any(abs(x - y) > atol for x, y in zip(node.cumulative_reward, image.cumulative_reward)):
            return False
        if node.actor == CHANCE_ACTOR:
            # Chance outcome labels in b are the lifted successor-state names.
            for label, cid in node.children.items():
                lifted = f"h{cid}"
                if lifted not in image.children or image.children[lifted] != mapping[cid]:
                    return False
                if abs(image.chance_dist[lifted] - node.chance_dist[label]) > atol:
                    return False
        else:
            for label, cid in node.children.items():
                if label not in image.children or image.children[label] != mapping[cid]:
                    return False
    for p in a.players:
        cells_a = {frozenset(mapping[m] for m in members) for members in a.infosets[p].values()}
        cells_b = {frozenset(members) for members in b.infosets[p].values()}
        if cells_a != cells_b:
            return False
    cells_a = {frozenset(mapping[m] for m in members) for members in a.public_sets.values()}
    cells_b = {frozenset(members) for members in b.public_sets.values()}
    return cells_a == cells_b
