"""Counterfactual regret minimization and best-response analysis.

The solver walks the tree form of a game. Values are always expected future
rewards from a node onward: for unrolled games the per-transition rewards are
the increments of the cumulative reward vector, for classical trees the whole
utility sits on the edge into each leaf. Running the same recursion on both
therefore realizes the future-reward and the total-utility formulations of
the algorithm.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import repeat
from math import prod
from typing import Collection, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import DepthExceeded, InvalidArgument, MissingPolicy, NotZeroSum
from .sequence_form import PolicyProfile, SequenceSet, _sequences
from .unroll import (CHANCE_ACTOR, TERMINAL_ACTOR, ClassicalEFG, ExtensiveFormRep, TreeForm,
                     require_form)

Game = Union[ExtensiveFormRep, ClassicalEFG]

# Spare frames a walk keeps below the recursion limit.
WALK_FRAME_MARGIN = 8


@dataclass
class _Iset:
    index: int
    owner: int
    key: Hashable
    actions: Tuple[str, ...]
    members: Tuple[int, ...]


class SolverTree:
    """Flattened tree with per-edge reward vectors shared by all solvers.

    ``actor[nid]`` is the node's actor: ``CHANCE_ACTOR`` (0), a player 1..n,
    or ``TERMINAL_ACTOR``. ``kids[nid]`` lists a non-terminal node's edges as
    ``(child, reward vector)`` in action order (None at terminals), and
    ``chance[nid]`` a chance node's probabilities in the same order (None
    elsewhere), so ``chance[nid] or policies[iset_index[nid]]`` is the
    distribution a node plays. Reach vectors are indexed by actor: chance
    first, then the players. ``terminals`` lists ``(node, chance weight,
    utility)`` in id order; a classical leaf's utility is its ``utilities`` or
    zeros, an unrolled terminal's its cumulative reward. Analyses read a
    game's tree through ``solver_tree``.
    """

    __slots__ = ("num_players", "actor", "chance", "iset_index", "kids", "isets",
                 "iset_lookup", "terminals", "zero_sum_gap", "height", "game",
                 "_sequence_sets")

    def __init__(self, game: Game):
        self.game = require_form(game, TreeForm, "SolverTree")
        n = game.num_players
        self.num_players = n
        nodes = game.nodes
        count = len(nodes)
        self.actor = [node.actor for node in nodes]
        self.chance: List[Optional[Tuple[float, ...]]] = [None] * count
        self.iset_index = [-1] * count
        self.kids: List[Optional[tuple]] = [None] * count
        self.isets: List[_Iset] = []
        self.iset_lookup: Dict[Tuple[int, Hashable], int] = {}

        zeros = (0.0,) * n
        if isinstance(game, ExtensiveFormRep):
            edge_reward = game.edge_reward
            utility = game.utility
            acting = {p: game.acting_infosets(p) for p in game.players}
        else:
            # A classical leaf without utilities pays nothing.
            def utility(nid):
                return nodes[nid].utilities or zeros

            def edge_reward(child):
                return utility(child.id) if child.actor == TERMINAL_ACTOR else zeros

            acting = {p: game.infosets[p] for p in game.players}

        for p in game.players:
            for key, members in acting[p].items():
                idx = len(self.isets)
                self.isets.append(_Iset(index=idx, owner=p, key=key,
                                        actions=nodes[members[0]].actions, members=members))
                self.iset_lookup[(p, key)] = idx
                for m in members:
                    if self.actor[m] != p or self.iset_index[m] >= 0:
                        raise InvalidArgument(f"node {m} in a cell of player {p} " + (
                            f"has actor {self.actor[m]}" if self.actor[m] != p
                            else "is listed twice"))
                    self.iset_index[m] = idx

        self.terminals: List[Tuple[int, float, Tuple[float, ...]]] = []
        weight = [1.0] * count
        for node in nodes:
            if node.actor == TERMINAL_ACTOR:
                self.terminals.append((node.id, weight[node.id], utility(node.id)))
                continue
            if node.actor == CHANCE_ACTOR:
                self.chance[node.id] = tuple(node.chance_dist[label] for label in node.actions)
            elif self.iset_index[node.id] < 0:
                raise InvalidArgument(f"decision node {node.id} of player {node.actor} "
                                      "belongs to no infoset of its actor")
            kids = self.kids[node.id] = tuple(
                (node.children[label], edge_reward(nodes[node.children[label]]))
                for label in node.actions)
            # Ids list parents first, so a parent's weight is final before its children's.
            for (child, _rew), prob in zip(kids, self.chance[node.id] or repeat(1.0)):
                weight[child] = weight[node.id] * prob
        self.zero_sum_gap = max((abs(u[0] + u[1]) for _, _, u in self.terminals),
                                default=0.0) if n == 2 else 0.0
        self.height = max(node.depth for node in nodes)
        self._sequence_sets: Dict[int, Tuple[SequenceSet, List[int]]] = {}

    def uniform_policies(self) -> List[List[float]]:
        return [[1.0 / len(s.actions)] * len(s.actions) for s in self.isets]

    def policies_from_profile(self, profile: PolicyProfile, responder: Optional[int] = None,
                              ) -> List[Optional[List[float]]]:
        """Per-infoset policies; the ``responder``'s entries are not read and stay None."""
        out = []
        for s in self.isets:
            if s.owner == responder:
                out.append(None)
                continue
            per = profile.get(s.owner, {}).get(s.key)
            if per is None:
                raise MissingPolicy(f"no policy for player {s.owner} at infostate {s.key!r}")
            out.append([float(per.get(a, 0.0)) for a in s.actions])
        return out

    def profile_from_policies(self, policies: Sequence[Sequence[float]]) -> PolicyProfile:
        profile: PolicyProfile = {p: {} for p in range(1, self.num_players + 1)}
        for s, dist in zip(self.isets, policies):
            profile[s.owner][s.key] = {a: dist[k] for k, a in enumerate(s.actions)}
        return profile

    def sequences(self, player: int) -> Tuple[SequenceSet, List[int]]:
        """The player's sequence set and each node's last sequence of theirs, built once.

        Raises ``ImperfectRecall`` when the player lacks perfect recall and
        ``InvalidArgument`` when node ids do not list parents first.
        """
        cached = self._sequence_sets.get(player)
        if cached is None:
            cached = self._sequence_sets[player] = _sequences(self.game, player)
        return cached


def solver_tree(game: Game) -> SolverTree:
    """The game's ``SolverTree``, built on its first analysis and kept on the game.

    It sits outside the dataclass fields, unseen by ``==``, ``repr`` and
    ``dataclasses.replace``; a deep copy carries it. Racing first calls may
    each build one, and all of them return the one stored first.
    """
    tree = getattr(game, "_solver_tree", None)
    if tree is None:
        tree = vars(game).setdefault("_solver_tree", SolverTree(game))
    return tree


def regret_matching(regrets: Sequence[float]) -> List[float]:
    """Positive-part-proportional distribution; uniform when nothing is positive."""
    positives = [r if r > 0.0 else 0.0 for r in regrets]
    total = sum(positives)
    if total <= 0.0:
        return [1.0 / len(regrets)] * len(regrets)
    return [r / total for r in positives]


def uniform_profile(game: Game) -> PolicyProfile:
    tree = solver_tree(game)
    return tree.profile_from_policies(tree.uniform_policies())


# ---------------------------------------------------------------------------
# Reach probabilities and expected values (reporting API)


@dataclass
class ReachTable:
    """Per-node reach contributions and per-infostate counterfactual mass."""

    chance: List[float]
    player: Dict[int, List[float]]
    counterfactual: Dict[int, List[float]]
    infoset_counterfactual: Dict[int, Dict[Hashable, float]]

    def joint(self, node_id: int) -> float:
        total = self.chance[node_id]
        for reaches in self.player.values():
            total *= reaches[node_id]
        return total


def _reach_pass(tree: SolverTree, policies: Sequence[Optional[Sequence[float]]],
                seeds: Mapping[int, Sequence[float]], stop: Collection[int] = (),
                ) -> List[List[float]]:
    """Top-down reaches of every actor below a seeded forest.

    ``seeds`` maps each root of the forest to its reach vector (chance, player
    1, ..., player n); the pass does not descend below nodes in ``stop``.
    Returns one reach list per actor, indexed like the vectors; nodes the pass
    does not reach keep 0.0.
    """
    actor, kids, chance, iset_index = tree.actor, tree.kids, tree.chance, tree.iset_index
    reach = [[0.0] * len(actor) for _ in range(tree.num_players + 1)]
    for nid, vector in seeds.items():
        for reaches, value in zip(reach, vector):
            reaches[nid] = value
    stack = sorted(seeds)
    while stack:
        nid = stack.pop()
        if actor[nid] == TERMINAL_ACTOR or nid in stop:
            continue
        own = reach[actor[nid]]
        for prob, (child, _rew) in zip(chance[nid] or policies[iset_index[nid]], kids[nid]):
            for reaches in reach:
                reaches[child] = reaches[nid]
            own[child] = own[nid] * prob
            stack.append(child)
    return reach


def reach_probabilities(rep: ExtensiveFormRep, profile: PolicyProfile,
                        seeds: Optional[Mapping[int, Sequence[float]]] = None) -> ReachTable:
    """Single top-down pass filling chance, per-player, and counterfactual reaches.

    ``seeds`` optionally replaces the root initialization: a map from node
    id to reach vector (chance, player 1, ..., player n) for a forest's roots.
    """
    tree = solver_tree(rep)
    players = rep.players
    if seeds is None:
        seeds = {0: (1.0,) * (len(players) + 1)}
    for nid, vector in seeds.items():
        if len(vector) != len(players) + 1:
            raise InvalidArgument(f"seed of node {nid} has {len(vector)} reaches; "
                                  f"expected {len(players) + 1} (chance, then each player)")
    chance, *reaches = _reach_pass(tree, tree.policies_from_profile(profile), seeds)
    player = dict(zip(players, reaches))
    counterfactual = {p: [prod((player[q][nid] for q in players if q != p), start=chance[nid])
                          for nid in range(len(rep.nodes))] for p in players}
    infoset_cf = {p: {key: sum(counterfactual[p][m] for m in members)
                      for key, members in rep.infosets[p].items()} for p in players}
    return ReachTable(chance=chance, player=player, counterfactual=counterfactual,
                      infoset_counterfactual=infoset_cf)


@dataclass
class ValueTable:
    """Future-reward values per node and per acting infostate."""

    node_value: Dict[int, Tuple[float, ...]]
    node_q: Dict[int, Dict[str, Tuple[float, ...]]]
    infoset_value: Dict[int, Dict[Hashable, float]]
    infoset_q: Dict[int, Dict[Hashable, Dict[str, float]]]
    infoset_cf_value: Dict[int, Dict[Hashable, float]]
    infoset_cf_q: Dict[int, Dict[Hashable, Dict[str, float]]]


def _node_values(tree: SolverTree, policies: Sequence[Optional[Sequence[float]]],
                 order: Sequence[int]) -> List[Tuple[float, ...]]:
    """Bottom-up future-reward vector of every node in ``order`` under fixed policies.

    ``order`` lists parents before children: ``range(len(tree.actor))`` for
    the whole tree (ids list parents first), or the visit order of a seeded
    forest. Nodes outside it read zero.
    """
    n = tree.num_players
    players = range(n)
    zeros = (0.0,) * n
    actor, kids, chance, iset_index = tree.actor, tree.kids, tree.chance, tree.iset_index
    values: List[Tuple[float, ...]] = [zeros] * len(actor)
    for nid in reversed(order):
        if actor[nid] == TERMINAL_ACTOR:
            continue
        acc = [0.0] * n
        for prob, (child, rew) in zip(chance[nid] or policies[iset_index[nid]], kids[nid]):
            sub = values[child]
            for i in players:
                acc[i] += prob * (rew[i] + sub[i])
        values[nid] = tuple(acc)
    return values


def expected_values(rep: Game, profile: PolicyProfile,
                    reach: Optional[ReachTable] = None) -> ValueTable:
    """Bottom-up value pass; infostate aggregates use counterfactual weights.

    At an infostate with zero counterfactual mass the conditional value falls
    back to 0 by convention. ``reach`` defaults to the profile's own reaches.
    """
    tree = solver_tree(rep)
    values = _node_values(tree, tree.policies_from_profile(profile), range(len(tree.actor)))
    n = tree.num_players
    players = tuple(range(1, n + 1))
    node_q: Dict[int, Dict[str, Tuple[float, ...]]] = {}
    for nid, kids in enumerate(tree.kids):
        if tree.actor[nid] > CHANCE_ACTOR:
            actions = tree.isets[tree.iset_index[nid]].actions
            node_q[nid] = {actions[k]: tuple(rew[i] + values[child][i] for i in range(n))
                           for k, (child, rew) in enumerate(kids)}

    reach = reach or reach_probabilities(rep, profile)
    infoset_value = {p: {} for p in players}
    infoset_q = {p: {} for p in players}
    infoset_cf_value = {p: {} for p in players}
    infoset_cf_q = {p: {} for p in players}
    for s in tree.isets:
        p = s.owner
        cf_total = sum(reach.counterfactual[p][m] for m in s.members)
        cf_v = sum(reach.counterfactual[p][m] * values[m][p - 1] for m in s.members)
        cf_q = {
            a: sum(reach.counterfactual[p][m] * node_q[m][a][p - 1] for m in s.members)
            for a in s.actions
        }
        infoset_cf_value[p][s.key] = cf_v
        infoset_cf_q[p][s.key] = cf_q
        if cf_total > 0.0:
            infoset_value[p][s.key] = cf_v / cf_total
            infoset_q[p][s.key] = {a: q / cf_total for a, q in cf_q.items()}
        else:
            infoset_value[p][s.key] = 0.0
            infoset_q[p][s.key] = {a: 0.0 for a in s.actions}
    return ValueTable(node_value={i: v for i, v in enumerate(values)},
                      node_q=node_q,
                      infoset_value=infoset_value,
                      infoset_q=infoset_q,
                      infoset_cf_value=infoset_cf_value,
                      infoset_cf_q=infoset_cf_q)


def game_value(game: Game, profile: PolicyProfile) -> Tuple[float, ...]:
    """Expected utility vector of a profile (root future value)."""
    tree = solver_tree(game)
    return _node_values(tree, tree.policies_from_profile(profile), range(len(tree.actor)))[0]


# ---------------------------------------------------------------------------
# Regret minimization


@dataclass
class RegretTable:
    """Cumulative counterfactual regrets and reach-weighted strategy sums."""

    regrets: Dict[int, Dict[Hashable, Dict[str, float]]]
    strategy_sum: Dict[int, Dict[Hashable, Dict[str, float]]]
    iterations: int


@dataclass
class TracePoint:
    iteration: int
    exploitability: float
    value_p1: float
    wall_ms: float


@dataclass
class CfrResult:
    regret_table: RegretTable
    average_profile: PolicyProfile
    trace: List[TracePoint]
    policies: Optional[List[PolicyProfile]] = None


class CfrState:
    """Mutable regret-matching state over a solver tree.

    ``walk`` recurses once per tree level, so a tree too deep for the
    recursion limit from the caller's frame raises ``DepthExceeded`` here.
    """

    def __init__(self, tree: SolverTree):
        frame, used = sys._getframe(), 0
        while frame is not None:
            frame, used = frame.f_back, used + 1
        limit = sys.getrecursionlimit()
        if used + tree.height + WALK_FRAME_MARGIN > limit:
            raise DepthExceeded(f"the tree has {tree.height + 1} levels, more than the recursive "
                                f"CFR walk can descend under the recursion limit of {limit}")
        self.tree = tree
        self.regrets = [[0.0] * len(s.actions) for s in tree.isets]
        self.strategy_sum = [[0.0] * len(s.actions) for s in tree.isets]
        self.policies = tree.uniform_policies()
        self.iterations = 0
        self._zeros = (0.0,) * tree.num_players

    def refresh_policies(self, only_player: Optional[int] = None,
                         indices: Optional[Sequence[int]] = None) -> None:
        if indices is not None:
            for idx in indices:
                self.policies[idx] = regret_matching(self.regrets[idx])
            return
        for s in self.tree.isets:
            if only_player is None or s.owner == only_player:
                self.policies[s.index] = regret_matching(self.regrets[s.index])

    def walk(self, nid: int, reach: List[float], update_player: Optional[int] = None,
             boundary: Optional[Dict[int, Sequence[float]]] = None) -> List[float]:
        """One traversal accumulating regrets and strategy sums.

        ``reach`` is the node's reach vector (chance, player 1, ..., player
        n); the walk changes entries while it descends and restores them.
        ``update_player`` limits updates to one player's infostates (for the
        alternating schedule); ``boundary`` replaces whole subtrees by fixed
        future-value vectors.
        """
        tree = self.tree
        if boundary is not None:
            fixed = boundary.get(nid)
            if fixed is not None:
                return fixed
        actor = tree.actor[nid]
        n = tree.num_players
        if actor == TERMINAL_ACTOR:
            return self._zeros
        walk = self.walk
        kids = tree.kids[nid]
        vals = [0.0] * n
        saved = reach[actor]
        if actor == CHANCE_ACTOR:  # skips impossible outcomes and updates nothing
            for prob, (child, rew) in zip(tree.chance[nid], kids):
                if prob == 0.0:
                    continue
                reach[actor] = saved * prob
                sub = walk(child, reach, update_player, boundary)
                for i in range(n):
                    vals[i] += prob * (rew[i] + sub[i])
            reach[actor] = saved
            return vals
        s = tree.iset_index[nid]
        sigma = self.policies[s]
        ow = actor - 1
        qs = []
        for k, (child, rew) in enumerate(kids):
            prob = sigma[k]
            reach[actor] = saved * prob
            sub = walk(child, reach, update_player, boundary)
            q_own = rew[ow] + sub[ow]
            qs.append(q_own)
            for i in range(n):
                vals[i] += prob * (rew[i] + sub[i])
        reach[actor] = saved
        if update_player is None or update_player == actor:
            cf = reach[CHANCE_ACTOR]
            for j in range(1, n + 1):
                if j != actor:
                    cf *= reach[j]
            regret = self.regrets[s]
            ssum = self.strategy_sum[s]
            v_own = vals[ow]
            for k in range(len(kids)):
                regret[k] += cf * (qs[k] - v_own)
                ssum[k] += saved * sigma[k]
        return vals

    def average_policies(self) -> List[List[float]]:
        """Reach-weighted average policy per infostate.

        Infostates the owner never reached have an empty weighted average; the
        final regret-matched policy stands in there, since regrets at such
        infostates still accumulate counterfactually.
        """
        out = []
        for s in self.tree.isets:
            total = sum(self.strategy_sum[s.index])
            if total > 0.0:
                out.append([x / total for x in self.strategy_sum[s.index]])
            else:
                out.append(regret_matching(self.regrets[s.index]))
        return out

    def regret_table(self) -> RegretTable:
        regrets: Dict[int, Dict[Hashable, Dict[str, float]]] = {}
        ssum: Dict[int, Dict[Hashable, Dict[str, float]]] = {}
        for s in self.tree.isets:
            regrets.setdefault(s.owner, {})[s.key] = {
                a: self.regrets[s.index][k] for k, a in enumerate(s.actions)}
            ssum.setdefault(s.owner, {})[s.key] = {
                a: self.strategy_sum[s.index][k] for k, a in enumerate(s.actions)}
        return RegretTable(regrets=regrets, strategy_sum=ssum, iterations=self.iterations)


def cfr_run(game: Game, iterations: int, mode: str = "simultaneous",
            trace_stride: int = 0, record_policies: bool = False) -> CfrResult:
    """Run regret matching self-play for ``iterations`` rounds.

    ``mode`` selects simultaneous updates of all players per round or one
    player at a time. The average profile weights each round's policy by the
    owner's own reach. With ``trace_stride`` > 0 the exploitability of the
    running average profile is sampled every that many rounds. Each run owns
    its tables; independent runs over one shared game may execute concurrently.
    """
    if iterations < 1:
        raise InvalidArgument("iterations must be >= 1")
    if mode not in ("simultaneous", "alternating"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    if trace_stride < 0:
        raise InvalidArgument("trace stride must be >= 0")
    tree = solver_tree(game)
    for p in range(1, tree.num_players + 1):  # ImperfectRecall before the first iteration
        tree.sequences(p)
    state = CfrState(tree)
    trace: List[TracePoint] = []
    policies_log: List[PolicyProfile] = []
    start = time.perf_counter()
    root = [1.0] * (tree.num_players + 1)
    for t in range(iterations):
        state.refresh_policies()
        if record_policies:
            policies_log.append(tree.profile_from_policies([list(p) for p in state.policies]))
        if mode == "simultaneous":
            state.walk(0, list(root))
        else:
            # Each later player walks against the policies the earlier ones
            # just updated.
            for p in range(1, tree.num_players + 1):
                state.walk(0, list(root), update_player=p)
                state.refresh_policies(only_player=p)
        state.iterations = t + 1
        if trace_stride and ((t + 1) % trace_stride == 0 or t + 1 == iterations):
            avg = tree.profile_from_policies(state.average_policies())
            trace.append(TracePoint(
                iteration=t + 1,
                exploitability=exploitability(game, avg),
                value_p1=game_value(game, avg)[0],
                wall_ms=(time.perf_counter() - start) * 1000.0))
    average = tree.profile_from_policies(state.average_policies())
    return CfrResult(regret_table=state.regret_table(), average_profile=average,
                     trace=trace, policies=policies_log if record_policies else None)


# ---------------------------------------------------------------------------
# Best response and exploitability


def response_values(tree: SolverTree, policies: Sequence[Optional[Sequence[float]]],
                    player: int, seeds: Mapping[int, Sequence[float]],
                    ) -> Tuple[float, Dict[int, int], List[int]]:
    """Best response of one player below a seeded forest, over the player's sequences.

    ``seeds`` maps each entry node to its reach vector (chance, player 1, ...,
    player n); the whole game is the forest ``{0: (1.0, 1.0, ...)}``. Chance
    and opponents follow ``policies`` (the responder's entries are not read).
    One pass down the forest weights each node by chance times the opponents'
    reach and adds every edge's weighted reward into the responder's last
    sequence at its child. The responder's infosets reached then pick,
    deepest first, their child sequence of largest value and add it into
    their parent sequence. Returns the forest's counterfactual value, the
    chosen action index per infoset reached, and the forest's nodes, parents
    first.
    """
    idx = player - 1
    seqs, last = tree.sequences(player)
    actor, kids, chance, iset_index = tree.actor, tree.kids, tree.chance, tree.iset_index
    value = [0.0] * len(seqs)
    reached = set()
    order: List[int] = []
    stack = [(h, prod(reach for a, reach in enumerate(vector) if a != player))
             for h, vector in seeds.items()]
    while stack:
        nid, weight = stack.pop()
        order.append(nid)
        if actor[nid] == TERMINAL_ACTOR:
            continue
        if actor[nid] == player:  # the responder's edges keep the weight
            reached.add(iset_index[nid])
            probs = repeat(1.0)
        else:
            probs = chance[nid] or policies[iset_index[nid]]
        for prob, (child, rew) in zip(probs, kids[nid]):
            w = weight * prob
            value[last[child]] += w * rew[idx]
            stack.append((child, w))

    choice: Dict[int, int] = {}
    for key, parent, children in reversed(seqs.infoset_rows):
        s = tree.iset_lookup[(player, key)]
        if s not in reached:
            continue
        best_k, best_q = 0, value[children[0]]
        for k in range(1, len(children)):
            if value[children[k]] > best_q + 1e-15:
                best_k, best_q = k, value[children[k]]
        choice[s] = best_k
        value[parent] += best_q
    return sum(value[q] for q in sorted({last[h] for h in seeds})), choice, order


def best_response(game: Game, profile: PolicyProfile, player: int,
                  ) -> Tuple[Dict[Hashable, str], float]:
    """Best response of one player against a fixed profile.

    Opponent infostates must all be covered by ``profile``; the responder's
    entries are ignored. Returns the pure policy as an action per infostate
    and its expected utility against the profile. The responder must have
    perfect recall; infosets may span depths.
    """
    tree = solver_tree(game)
    policies = tree.policies_from_profile(profile, responder=player)
    root = {0: (1.0,) * (tree.num_players + 1)}
    value, choice, _order = response_values(tree, policies, player, root)
    return {tree.isets[i].key: tree.isets[i].actions[k] for i, k in choice.items()}, value


def exploitability(game: Game, profile: PolicyProfile) -> float:
    """Average best-response gain against the profile in a two-player zero-sum game."""
    tree = solver_tree(game)
    if tree.num_players != 2:
        raise NotZeroSum("exploitability requires a two-player game")
    if tree.zero_sum_gap > 1e-9:
        raise NotZeroSum(f"terminal utilities sum to {tree.zero_sum_gap} > 1e-9")
    _, v1 = best_response(game, profile, 1)
    _, v2 = best_response(game, profile, 2)
    return (v1 + v2) / 2.0


def check_observable_rewards(rep: ExtensiveFormRep, atol: float = 1e-9,
                             ) -> Tuple[bool, Optional[Tuple]]:
    """Whether cumulative rewards are measurable with respect to each player's infostates."""
    require_form(rep, ExtensiveFormRep, "check_observable_rewards")
    for p in rep.players:
        for key, members in rep.infosets[p].items():
            reference = rep.nodes[members[0]].cumulative_reward[p - 1]
            for m in members[1:]:
                if abs(rep.nodes[m].cumulative_reward[p - 1] - reference) > atol:
                    return False, (p, key, members[0], m)
    return True, None
