"""Counterfactual regret minimization and best-response analysis.

The solver walks the tree form of a game. Values are always expected future
rewards from a node onward: for unrolled games the per-transition rewards are
the increments of the cumulative reward vector, for classical trees the whole
utility sits on the edge into each leaf. Running the same recursion on both
therefore realizes the future-reward and the total-utility formulations of
the algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Collection, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ImperfectRecall, InvalidArgument, MissingPolicy, NotZeroSum
from .unroll import CHANCE_ACTOR, TERMINAL_ACTOR, ClassicalEFG, ExtensiveFormRep, _last_own

PolicyProfile = Dict[int, Dict[Hashable, Dict[str, float]]]
Game = Union[ExtensiveFormRep, ClassicalEFG]

KIND_TERMINAL = 0
KIND_CHANCE = 1
KIND_DECISION = 2


@dataclass
class _Iset:
    index: int
    owner: int
    key: Hashable
    actions: Tuple[str, ...]
    members: Tuple[int, ...]


class SolverTree:
    """Flattened tree with per-edge reward vectors shared by all solvers."""

    __slots__ = ("num_players", "kind", "owner", "iset_index", "kids", "isets",
                 "iset_lookup", "zero_sum_gap", "game", "_response_orders")

    def __init__(self, game: Game):
        self.game = game
        n = game.num_players
        self.num_players = n
        nodes = game.nodes
        count = len(nodes)
        self.kind = [KIND_TERMINAL] * count
        self.owner = [0] * count
        self.iset_index = [-1] * count
        self.kids: List[Optional[tuple]] = [None] * count
        self.isets: List[_Iset] = []
        self.iset_lookup: Dict[Tuple[int, Hashable], int] = {}

        if isinstance(game, ExtensiveFormRep):
            def edge_reward(child):
                return game.edge_reward(child)

            acting = {p: game.acting_infosets(p) for p in game.players}
        else:
            def edge_reward(child):
                if child.actor == TERMINAL_ACTOR:
                    return child.utilities
                return tuple(0.0 for _ in range(n))

            acting = {p: {key: members for key, members in game.infosets[p].items()}
                      for p in game.players}

        for p in game.players:
            for key, members in acting[p].items():
                idx = len(self.isets)
                self.isets.append(_Iset(index=idx, owner=p, key=key,
                                        actions=nodes[members[0]].actions, members=members))
                self.iset_lookup[(p, key)] = idx
                for m in members:
                    self.iset_index[m] = idx

        gap = 0.0
        for node in nodes:
            if node.actor == TERMINAL_ACTOR:
                util = node.cumulative_reward if isinstance(game, ExtensiveFormRep) \
                    else (node.utilities or tuple(0.0 for _ in range(n)))
                if n == 2:
                    gap = max(gap, abs(util[0] + util[1]))
                continue
            if node.actor == CHANCE_ACTOR:
                self.kind[node.id] = KIND_CHANCE
                self.kids[node.id] = tuple(
                    (node.chance_dist[label], node.children[label],
                     edge_reward(nodes[node.children[label]]))
                    for label in node.actions)
            else:
                if self.iset_index[node.id] < 0:
                    raise InvalidArgument(f"decision node {node.id} of player {node.actor} "
                                          "belongs to no infoset of its actor")
                self.kind[node.id] = KIND_DECISION
                self.owner[node.id] = node.actor
                self.kids[node.id] = tuple(
                    (node.children[label], edge_reward(nodes[node.children[label]]))
                    for label in node.actions)
        self.zero_sum_gap = gap
        self._response_orders: Dict[int, List[int]] = {}

    def uniform_policies(self) -> List[List[float]]:
        return [[1.0 / len(s.actions)] * len(s.actions) for s in self.isets]

    def policies_from_profile(self, profile: PolicyProfile) -> List[List[float]]:
        out = []
        for s in self.isets:
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

    def response_order(self, player: int) -> List[int]:
        """Evaluation order of a best-response pass for ``player``, computed once.

        Entries are node ids, or ``~index`` for one of the player's infosets,
        which stands for all its members at once. Every entry comes after the
        children of its nodes, so the player's infosets come in reverse
        topological order of infoset precedence, whatever their depths. That
        order exists when the player has perfect recall: all members of each
        of the player's infosets follow the same latest own infoset and
        action. Otherwise raises ``ImperfectRecall``; node ids that do not
        list parents first raise ``InvalidArgument``.
        """
        order = self._response_orders.get(player)
        if order is not None:
            return order
        last_own = _last_own(self.game, player)
        for s in self.isets:
            if s.owner == player and len({last_own[m] for m in s.members}) > 1:
                raise ImperfectRecall(
                    f"player {player} has no perfect recall at infostate {s.key!r}")
        count = len(self.kind)
        parent: List[Optional[int]] = [None] * count
        unit = list(range(count))
        pending: Dict[int, int] = {}  # per entry: child edges whose entries are not placed yet
        for nid, kids in enumerate(self.kids):
            if kids is None:
                continue
            if self.kind[nid] == KIND_DECISION and self.owner[nid] == player:
                unit[nid] = ~self.iset_index[nid]
            pending[unit[nid]] = pending.get(unit[nid], 0) + len(kids)
            for kid in kids:  # (child, reward), led by the probability on chance edges
                parent[kid[-2]] = nid
        ready = [nid for nid in range(count) if self.kids[nid] is None]
        order = []
        while ready:
            u = ready.pop()
            order.append(u)
            for m in (self.isets[~u].members if u < 0 else (u,)):
                up = parent[m]
                if up is None:
                    continue
                pending[unit[up]] -= 1
                if pending[unit[up]] == 0:
                    ready.append(unit[up])
        self._response_orders[player] = order
        return order


def regret_matching(regrets: Sequence[float]) -> List[float]:
    """Positive-part-proportional distribution; uniform when nothing is positive."""
    positives = [r if r > 0.0 else 0.0 for r in regrets]
    total = sum(positives)
    if total <= 0.0:
        return [1.0 / len(regrets)] * len(regrets)
    return [r / total for r in positives]


def uniform_profile(game: Game) -> PolicyProfile:
    tree = SolverTree(game)
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
                seeds: Mapping[int, Tuple[float, Sequence[float]]],
                stop: Collection[int] = (),
                ) -> Tuple[List[float], List[List[float]]]:
    """Top-down chance and per-player reaches below a seeded forest.

    ``seeds`` maps each root of the forest to its (chance reach, per-player
    reach vector); the pass does not descend below nodes in ``stop``. Returns
    the chance reach and, per player in order, that player's own reach of
    every node; nodes the pass does not reach keep 0.0.
    """
    count = len(tree.kind)
    chance = [0.0] * count
    player = [[0.0] * count for _ in range(tree.num_players)]
    for nid, (pc, pp) in seeds.items():
        chance[nid] = pc
        for reaches, value in zip(player, pp):
            reaches[nid] = value
    stack = sorted(seeds)
    while stack:
        nid = stack.pop()
        kind = tree.kind[nid]
        if kind == KIND_TERMINAL or nid in stop:
            continue
        if kind == KIND_CHANCE:
            for prob, child, _rew in tree.kids[nid]:
                chance[child] = chance[nid] * prob
                for reaches in player:
                    reaches[child] = reaches[nid]
                stack.append(child)
        else:
            sigma = policies[tree.iset_index[nid]]
            own = player[tree.owner[nid] - 1]
            for k, (child, _rew) in enumerate(tree.kids[nid]):
                chance[child] = chance[nid]
                for reaches in player:
                    reaches[child] = reaches[nid]
                own[child] = own[nid] * sigma[k]
                stack.append(child)
    return chance, player


def reach_probabilities(rep: ExtensiveFormRep, profile: PolicyProfile,
                        seeds: Optional[Dict[int, Tuple[float, Tuple[float, ...]]]] = None,
                        *, tree: Optional[SolverTree] = None) -> ReachTable:
    """Single top-down pass filling chance, per-player, and counterfactual reaches.

    ``seeds`` optionally replaces the root initialization: a map from node id
    to (chance reach, per-player reach vector) for the roots of a forest.
    ``tree`` is a prebuilt ``SolverTree`` of ``rep``.
    """
    tree = tree or SolverTree(rep)
    players = rep.players
    if seeds is None:
        seeds = {0: (1.0, tuple(1.0 for _ in players))}
    chance, reaches = _reach_pass(tree, tree.policies_from_profile(profile), seeds)
    player = dict(zip(players, reaches))
    count = len(rep.nodes)
    counterfactual = {}
    for p in players:
        others = [q for q in players if q != p]
        cf = [0.0] * count
        for nid in range(count):
            value = chance[nid]
            for q in others:
                value *= player[q][nid]
            cf[nid] = value
        counterfactual[p] = cf
    infoset_cf = {p: {} for p in players}
    for p in players:
        for key, members in rep.infosets[p].items():
            infoset_cf[p][key] = sum(counterfactual[p][m] for m in members)
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


def _node_values(tree: SolverTree, policies: Sequence[Sequence[float]],
                 ) -> List[Tuple[float, ...]]:
    """Bottom-up future-reward vector of every node under fixed policies."""
    n = tree.num_players
    zeros = (0.0,) * n
    values: List[Tuple[float, ...]] = [zeros] * len(tree.kind)
    for nid in range(len(tree.kind) - 1, -1, -1):  # parents precede children in id order
        kind = tree.kind[nid]
        if kind == KIND_TERMINAL:
            continue
        acc = [0.0] * n
        if kind == KIND_CHANCE:
            for prob, child, rew in tree.kids[nid]:
                sub = values[child]
                for i in range(n):
                    acc[i] += prob * (rew[i] + sub[i])
        else:
            sigma = policies[tree.iset_index[nid]]
            for k, (child, rew) in enumerate(tree.kids[nid]):
                sub = values[child]
                for i in range(n):
                    acc[i] += sigma[k] * (rew[i] + sub[i])
        values[nid] = tuple(acc)
    return values


def expected_values(rep: Game, profile: PolicyProfile,
                    reach: Optional[ReachTable] = None,
                    *, tree: Optional[SolverTree] = None) -> ValueTable:
    """Bottom-up value pass; infostate aggregates use counterfactual weights.

    At an infostate with zero counterfactual mass the conditional value falls
    back to 0 by convention. Infostate aggregates are filled when reach
    probabilities are available, i.e. for tree-form input or an explicit
    ``reach``; classical trees without one get node values only. ``tree`` is
    a prebuilt ``SolverTree`` of ``rep``.
    """
    tree = tree or SolverTree(rep)
    values = _node_values(tree, tree.policies_from_profile(profile))
    n = tree.num_players
    players = tuple(range(1, n + 1))
    node_q: Dict[int, Dict[str, Tuple[float, ...]]] = {}
    for nid, kids in enumerate(tree.kids):
        if tree.kind[nid] == KIND_DECISION:
            actions = tree.isets[tree.iset_index[nid]].actions
            node_q[nid] = {actions[k]: tuple(rew[i] + values[child][i] for i in range(n))
                           for k, (child, rew) in enumerate(kids)}

    if reach is None and isinstance(rep, ExtensiveFormRep):
        reach = reach_probabilities(rep, profile, tree=tree)
    infoset_value = {p: {} for p in players}
    infoset_q = {p: {} for p in players}
    infoset_cf_value = {p: {} for p in players}
    infoset_cf_q = {p: {} for p in players}
    if reach is not None:
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


def game_value(game: Game, profile: PolicyProfile,
               *, tree: Optional[SolverTree] = None) -> Tuple[float, ...]:
    """Expected utility vector of a profile (root future value)."""
    tree = tree or SolverTree(game)
    return _node_values(tree, tree.policies_from_profile(profile))[0]


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
    """Mutable regret-matching state over a solver tree."""

    def __init__(self, tree: SolverTree):
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

    def walk(self, nid: int, reach_c: float, reach_p: List[float],
             update_player: Optional[int] = None,
             boundary: Optional[Dict[int, Sequence[float]]] = None) -> List[float]:
        """One traversal accumulating regrets and strategy sums.

        ``update_player`` limits updates to one player's infostates (for the
        alternating schedule); ``boundary`` replaces whole subtrees by fixed
        future-value vectors.
        """
        tree = self.tree
        if boundary is not None:
            fixed = boundary.get(nid)
            if fixed is not None:
                return fixed
        kind = tree.kind[nid]
        n = tree.num_players
        if kind == KIND_TERMINAL:
            return self._zeros
        walk = self.walk
        if kind == KIND_CHANCE:
            vals = [0.0] * n
            for prob, child, rew in tree.kids[nid]:
                if prob == 0.0:
                    continue
                sub = walk(child, reach_c * prob, reach_p, update_player, boundary)
                for i in range(n):
                    vals[i] += prob * (rew[i] + sub[i])
            return vals
        s = tree.iset_index[nid]
        sigma = self.policies[s]
        owner = tree.owner[nid]
        ow = owner - 1
        kids = tree.kids[nid]
        vals = [0.0] * n
        qs = []
        saved = reach_p[ow]
        for k, (child, rew) in enumerate(kids):
            prob = sigma[k]
            reach_p[ow] = saved * prob
            sub = walk(child, reach_c, reach_p, update_player, boundary)
            q_own = rew[ow] + sub[ow]
            qs.append(q_own)
            for i in range(n):
                vals[i] += prob * (rew[i] + sub[i])
        reach_p[ow] = saved
        if update_player is None or update_player == owner:
            cf = reach_c
            for j in range(n):
                if j != ow:
                    cf *= reach_p[j]
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
            trace_stride: int = 0, record_policies: bool = False,
            *, tree: Optional[SolverTree] = None) -> CfrResult:
    """Run regret matching self-play for ``iterations`` rounds.

    ``mode`` selects simultaneous updates of all players per round or one
    player at a time. The average profile weights each round's policy by the
    owner's own reach. With ``trace_stride`` > 0 the exploitability of the
    running average profile is sampled every that many rounds. Each run owns
    its tables; independent runs over one shared game may execute concurrently.
    ``tree`` is a prebuilt ``SolverTree`` of ``game``; the trace evaluations
    reuse it.
    """
    if iterations < 1:
        raise InvalidArgument("iterations must be >= 1")
    if mode not in ("simultaneous", "alternating"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    if trace_stride < 0:
        raise InvalidArgument("trace stride must be >= 0")
    tree = tree or SolverTree(game)
    state = CfrState(tree)
    trace: List[TracePoint] = []
    policies_log: List[PolicyProfile] = []
    start = time.perf_counter()
    ones = [1.0] * tree.num_players
    for t in range(iterations):
        state.refresh_policies()
        if record_policies:
            policies_log.append(tree.profile_from_policies([list(p) for p in state.policies]))
        if mode == "simultaneous":
            state.walk(0, 1.0, list(ones))
        else:
            for p in range(1, tree.num_players + 1):
                state.refresh_policies(only_player=p)
                state.walk(0, 1.0, list(ones), update_player=p)
        state.iterations = t + 1
        if trace_stride and ((t + 1) % trace_stride == 0 or t + 1 == iterations):
            avg = tree.profile_from_policies(state.average_policies())
            trace.append(TracePoint(
                iteration=t + 1,
                exploitability=exploitability(game, avg, tree=tree),
                value_p1=game_value(game, avg, tree=tree)[0],
                wall_ms=(time.perf_counter() - start) * 1000.0))
    average = tree.profile_from_policies(state.average_policies())
    return CfrResult(regret_table=state.regret_table(), average_profile=average,
                     trace=trace, policies=policies_log if record_policies else None)


# ---------------------------------------------------------------------------
# Best response and exploitability


def response_values(tree: SolverTree, policies: Sequence[Optional[Sequence[float]]],
                    player: int, seeds: Mapping[int, Tuple[float, Tuple[float, ...]]],
                    ) -> Tuple[List[float], Dict[int, int]]:
    """Best-response pass of one player below a seeded forest of entry nodes.

    ``seeds`` maps each entry node to its (chance reach, per-player reach
    vector); the whole game is the forest ``{0: (1.0, (1.0, ...))}``. Chance
    and opponents follow ``policies`` (the responder's entries are not read),
    and the responder picks, per infoset, the action with the largest
    counterfactual value. Returns the responder's future value at every node
    of the forest and the chosen action index per infoset reached.
    """
    idx = player - 1
    kind, owner, kids, iset_index = tree.kind, tree.owner, tree.kids, tree.iset_index
    cf: List[Optional[float]] = [None] * len(kind)
    for h, (pc, pp) in seeds.items():
        weight = pc
        for j, reach in enumerate(pp):
            if j != idx:
                weight *= reach
        cf[h] = weight
    stack = list(seeds)
    while stack:
        nid = stack.pop()
        node_kind = kind[nid]
        if node_kind == KIND_TERMINAL:
            continue
        weight = cf[nid]
        if node_kind == KIND_CHANCE:
            for prob, child, _rew in kids[nid]:
                cf[child] = weight * prob
                stack.append(child)
        else:
            sigma = policies[iset_index[nid]]
            for k, (child, _rew) in enumerate(kids[nid]):
                cf[child] = weight * (1.0 if owner[nid] == player else sigma[k])
                stack.append(child)

    value = [0.0] * len(kind)
    choice: Dict[int, int] = {}
    for u in tree.response_order(player):
        if u < 0:
            s = tree.isets[~u]
            reached = [m for m in s.members if cf[m] is not None]
            if not reached:
                continue
            best_k, best_q = 0, None
            for k in range(len(s.actions)):
                q = 0.0
                for m in reached:
                    child, rew = kids[m][k]
                    q += cf[m] * (rew[idx] + value[child])
                if best_q is None or q > best_q + 1e-15:
                    best_k, best_q = k, q
            choice[s.index] = best_k
            for m in reached:
                child, rew = kids[m][best_k]
                value[m] = rew[idx] + value[child]
        elif cf[u] is not None and kind[u] != KIND_TERMINAL:
            acc = 0.0
            if kind[u] == KIND_CHANCE:
                for prob, child, rew in kids[u]:
                    acc += prob * (rew[idx] + value[child])
            else:
                sigma = policies[iset_index[u]]
                for k, (child, rew) in enumerate(kids[u]):
                    acc += sigma[k] * (rew[idx] + value[child])
            value[u] = acc
    return value, choice


def best_response(game: Game, profile: PolicyProfile, player: int,
                  *, tree: Optional[SolverTree] = None) -> Tuple[Dict[Hashable, str], float]:
    """Best response of one player against a fixed profile.

    Opponent infostates must all be covered by ``profile``; the responder's
    entries are ignored. Returns the pure policy as an action per infostate
    and its expected utility against the profile. The responder must have
    perfect recall; infosets may span depths. ``tree`` is a prebuilt
    ``SolverTree`` of ``game``.
    """
    tree = tree or SolverTree(game)
    policies: List[Optional[List[float]]] = [None] * len(tree.isets)
    for s in tree.isets:
        if s.owner == player:
            continue
        per = profile.get(s.owner, {}).get(s.key)
        if per is None:
            raise MissingPolicy(f"no policy for player {s.owner} at infostate {s.key!r}")
        policies[s.index] = [float(per.get(a, 0.0)) for a in s.actions]
    root = {0: (1.0, (1.0,) * tree.num_players)}
    value, choice = response_values(tree, policies, player, root)
    return {tree.isets[i].key: tree.isets[i].actions[k] for i, k in choice.items()}, value[0]


def exploitability(game: Game, profile: PolicyProfile,
                   *, tree: Optional[SolverTree] = None) -> float:
    """Average best-response gain against the profile in a two-player zero-sum game."""
    tree = tree or SolverTree(game)
    if tree.num_players != 2:
        raise NotZeroSum("exploitability requires a two-player game")
    if tree.zero_sum_gap > 1e-9:
        raise NotZeroSum(f"terminal utilities sum to {tree.zero_sum_gap} > 1e-9")
    _, v1 = best_response(game, profile, 1, tree=tree)
    _, v2 = best_response(game, profile, 2, tree=tree)
    return (v1 + v2) / 2.0


def check_observable_rewards(rep: ExtensiveFormRep, atol: float = 1e-9,
                             ) -> Tuple[bool, Optional[Tuple]]:
    """Whether cumulative rewards are measurable with respect to each player's infostates."""
    for p in rep.players:
        for key, members in rep.infosets[p].items():
            reference = rep.nodes[members[0]].cumulative_reward[p - 1]
            for m in members[1:]:
                if abs(rep.nodes[m].cumulative_reward[p - 1] - reference) > atol:
                    return False, (p, key, members[0], m)
    return True, None
