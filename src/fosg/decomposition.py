"""Public-tree decomposition: ranges, belief states, subgames, and trunk solving.

A public state identifies a slice of the history tree shared as common
knowledge. Attaching every player's reach contributions over that slice gives
a public belief state, which is enough to restart solving from there: either
by materializing a standalone game whose initial chance step samples the
slice, or in place by reseeding reach probabilities at the slice and running
the regret updates only below it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from .cfr import (CfrState, PolicyProfile, SolverTree, TracePoint, _node_values, _reach_pass,
                  exploitability, game_value, reach_probabilities, response_values)
from .errors import InconsistentPBS, InvalidArgument, MissingPolicy, UnknownPublicState
from .model import TICK, FactoredObservation, GameSpec, serialize
from .unroll import (CHANCE_ACTOR, TERMINAL_ACTOR, ExtensiveFormRep, _tabulate_tree,
                     require_form, unroll)


def _as_rep(game, analysis: str) -> ExtensiveFormRep:
    if isinstance(game, GameSpec):
        return unroll(serialize(game))
    return require_form(game, ExtensiveFormRep, analysis)


# ---------------------------------------------------------------------------
# Public subtrees and the equivalent subgame-tree definitions


@dataclass
class PublicSubtree:
    """All public states extending one public state, with the induced slices."""

    public_states: Tuple[Hashable, ...]
    histories: FrozenSet[int]
    infoset_forests: Dict[int, FrozenSet[Hashable]]


def _extends(key: Tuple, prefix: Tuple) -> bool:
    return len(key) >= len(prefix) and key[:len(prefix)] == prefix


def _below(rep: ExtensiveFormRep, starts: Sequence[int]) -> Set[int]:
    """``starts`` and every history below them."""
    selected: Set[int] = set()
    stack = list(starts)
    while stack:
        nid = stack.pop()
        if nid not in selected:
            selected.add(nid)
            stack.extend(rep.nodes[nid].children.values())
    return selected


def public_subtree(rep: ExtensiveFormRep, public_state: Hashable) -> PublicSubtree:
    """Desc of a public state plus the history set and per-player infoset forests."""
    require_form(rep, ExtensiveFormRep, "public_subtree")
    if public_state not in rep.public_sets:
        raise UnknownPublicState(f"public state {public_state!r} does not occur")
    descendants = tuple(k for k in rep.public_sets if _extends(k, public_state))
    histories = frozenset(m for k in descendants for m in rep.public_sets[k])
    forests = {}
    for p in rep.players:
        forests[p] = frozenset(rep.infostate_keys[p][m] for m in histories)
    return PublicSubtree(public_states=descendants, histories=histories,
                         infoset_forests=forests)


def subgame_histories(rep: ExtensiveFormRep, anchor: int, method: str,
                      player: int = 1) -> FrozenSet[int]:
    """The history set of the subgame anchored at one history.

    ``method`` selects among the equivalent constructions: "closure" (smallest
    set containing the anchor closed under descendants and public-set
    membership), "extension" (extensions of the anchor's public set),
    "infostate" (union of infosets of extending information states of
    ``player``), and "public" (union of public sets of extending public
    states).
    """
    require_form(rep, ExtensiveFormRep, "subgame_histories")
    anchor_pub = rep.public_keys[anchor]
    members = rep.public_sets[anchor_pub]

    if method == "closure":
        selected: Set[int] = set()
        stack = [anchor]
        while stack:
            nid = stack.pop()
            if nid in selected:
                continue
            selected.add(nid)
            stack.extend(rep.nodes[nid].children.values())
            for mate in rep.public_sets[rep.public_keys[nid]]:
                if mate not in selected:
                    stack.append(mate)
        return frozenset(selected)

    if method == "extension":
        return frozenset(_below(rep, members))

    if method == "infostate":
        starts = {rep.infostate_keys[player][m] for m in members}
        flags = [False] * len(rep.nodes)
        out = set()
        for node in rep.nodes:  # parents precede children
            inherited = flags[node.parent] if node.parent is not None else False
            own = inherited or rep.infostate_keys[player][node.id] in starts
            flags[node.id] = own
            if own:
                out.add(node.id)
        # Union of whole infosets of the extending information states.
        selected = set()
        for nid in out:
            selected.update(rep.infosets[player][rep.infostate_keys[player][nid]])
        return frozenset(selected)

    if method == "public":
        return frozenset(
            m for key, cell in rep.public_sets.items() if _extends(key, anchor_pub)
            for m in cell)

    raise InvalidArgument(f"unknown method {method!r}")


def closed_under_infosets(rep: ExtensiveFormRep, histories: FrozenSet[int]) -> bool:
    require_form(rep, ExtensiveFormRep, "closed_under_infosets")
    for p in rep.players:
        for nid in histories:
            if any(m not in histories for m in rep.infosets[p][rep.infostate_keys[p][nid]]):
                return False
    return True


# ---------------------------------------------------------------------------
# Ranges and public belief states


@dataclass
class Range:
    """Reach contributions of every actor over one public state.

    ``player_mass`` aggregates each player's own reach per information state
    (summed over the member histories). ``chance_mass`` and
    ``history_player_reach`` keep the per-history data the subgame
    construction consumes; chance contributions vary inside an infoset, so
    they stay keyed by history.
    """

    public_state: Hashable
    player_mass: Dict[int, Dict[Hashable, float]]
    chance_mass: Dict[int, float]
    history_player_reach: Dict[int, Tuple[float, ...]]
    normalized: bool = False
    fallback_uniform: Dict[int, bool] = field(default_factory=dict)

    def normalize(self) -> "Range":
        """Per-player normalized view; zero-mass players fall back to uniform."""
        mass: Dict[int, Dict[Hashable, float]] = {}
        fallback: Dict[int, bool] = {}
        for p, entries in self.player_mass.items():
            total = sum(entries.values())
            if total > 0.0:
                mass[p] = {k: v / total for k, v in entries.items()}
                fallback[p] = False
            else:
                mass[p] = {k: 1.0 / len(entries) for k in entries}
                fallback[p] = True
        return replace(self, player_mass=mass, normalized=True, fallback_uniform=fallback)

    def chance_mass_for(self, rep: ExtensiveFormRep, player: int, key: Hashable) -> float:
        """Chance reach aggregated over the member histories of one infostate."""
        members = [h for h in self.chance_mass if rep.infostate_keys[player][h] == key]
        return sum(self.chance_mass[h] for h in members)

    def joint_mass(self) -> Dict[int, float]:
        """Full reach probability of each member history."""
        out = {}
        for h, pc in self.chance_mass.items():
            total = pc
            for reach in self.history_player_reach[h]:
                total *= reach
            out[h] = total
        return out

    def encode(self) -> Tuple:
        """Canonical hashable form for embedding into an observation symbol."""
        per_player = tuple(
            (p, tuple(sorted(((repr(k), v) for k, v in entries.items()))))
            for p, entries in sorted(self.player_mass.items()))
        per_history = tuple(sorted(self.chance_mass.items()))
        return ("range", per_player, per_history)


@dataclass
class PublicBeliefState:
    public_state: Hashable
    range: Range

    def __post_init__(self) -> None:
        if self.range.public_state != self.public_state:
            raise InconsistentPBS("range carries a different public state")


def range_at(rep: ExtensiveFormRep, profile: PolicyProfile, public_state: Hashable) -> Range:
    """Collect every actor's reach contributions over one public state.

    The profile must cover every decision infostate strictly above the public
    state; entries elsewhere are ignored (reaches at the slice cannot depend
    on them).
    """
    require_form(rep, ExtensiveFormRep, "range_at")
    if public_state not in rep.public_sets:
        raise UnknownPublicState(f"public state {public_state!r} does not occur")
    padded: PolicyProfile = {p: {} for p in rep.players}
    for p in rep.players:
        for key, members in rep.acting_infosets(p).items():
            given = profile.get(p, {}).get(key)
            if given is None:
                member_pub = rep.public_keys[members[0]]
                if len(member_pub) < len(public_state) and \
                        public_state[:len(member_pub)] == member_pub:
                    raise MissingPolicy(
                        f"no policy for player {p} at infostate {key!r} above the slice")
                actions = rep.infoset_actions(p, key)
                given = {a: 1.0 / len(actions) for a in actions}
            padded[p][key] = given
    reach = reach_probabilities(rep, padded)
    members = rep.public_sets[public_state]
    player_mass: Dict[int, Dict[Hashable, float]] = {}
    for p in rep.players:
        per: Dict[Hashable, float] = {}
        for m in members:
            key = rep.infostate_keys[p][m]
            per[key] = per.get(key, 0.0) + reach.player[p][m]
        player_mass[p] = per
    chance_mass = {m: reach.chance[m] for m in members}
    history_reach = {m: tuple(reach.player[p][m] for p in rep.players) for m in members}
    return Range(public_state=public_state, player_mass=player_mass,
                 chance_mass=chance_mass, history_player_reach=history_reach)


def trivial_pbs(rep: ExtensiveFormRep) -> PublicBeliefState:
    """The root public belief state: point mass on the initial history."""
    require_form(rep, ExtensiveFormRep, "trivial_pbs")
    root_key = rep.public_keys[0]
    player_mass = {p: {rep.infostate_keys[p][0]: 1.0} for p in rep.players}
    rng = Range(public_state=root_key, player_mass=player_mass,
                chance_mass={0: 1.0},
                history_player_reach={0: tuple(1.0 for _ in rep.players)})
    return PublicBeliefState(public_state=root_key, range=rng)


# ---------------------------------------------------------------------------
# Materialized subgames


def build_subgame(game, pbs: PublicBeliefState) -> GameSpec:
    """Materialize the game that restarts play at a public belief state.

    A playerless initial state samples a member history with its normalized
    joint reach, pays that history's accumulated rewards, privately reveals
    each player's information state, and publicly reveals the public state
    together with the whole range. Solvers running on the result are expected
    to substitute the range's per-player reaches for the chance-absorbed ones.
    Raises ``OutcomeDependentReward`` when a chance node below the public
    state pays different rewards on different outcomes.
    """
    rep = _as_rep(game, "build_subgame")
    key = pbs.public_state
    if key not in rep.public_sets:
        raise UnknownPublicState(f"public state {key!r} does not occur")
    members = rep.public_sets[key]
    rng = pbs.range
    missing = [m for m in members if m not in rng.chance_mass or m not in rng.history_player_reach]
    if missing:
        raise InconsistentPBS(f"range lacks entries for member histories {missing}")
    joint = rng.joint_mass()
    total = sum(joint[m] for m in members)
    if total <= 0.0:
        raise InconsistentPBS("range assigns zero mass to the whole public set")

    players = rep.players
    subtree = _below(rep, members)

    info_symbol = {
        p: {k: f"s{p}.{i}" for i, k in enumerate(sorted(
            {rep.infostate_keys[p][nid] for nid in subtree}, key=repr))}
        for p in players
    }
    pub_symbol = {
        k: f"pub.{i}" for i, k in enumerate(sorted(
            {rep.public_keys[nid] for nid in subtree}, key=repr))
    }

    def name(nid: int) -> str:
        return f"sg{nid}"

    reveal_pub = ("subgame", key, rng.encode())
    tick = FactoredObservation(private=tuple(TICK for _ in players), public=TICK)
    prefix = [("init", tuple(0.0 for _ in players),
               {f"aux{m}": (joint[m] / total, tick) for m in members})]
    for m in members:
        reveal = FactoredObservation(
            private=tuple(info_symbol[p][rep.infostate_keys[p][m]] for p in players),
            public=reveal_pub)
        prefix.append((f"aux{m}", rep.nodes[m].cumulative_reward, {name(m): (1.0, reveal)}))
    return _tabulate_tree(rep, sorted(subtree), name, info_symbol, pub_symbol, prefix)


def subgame_profile(rep: ExtensiveFormRep, sub_rep: ExtensiveFormRep,
                    profile: PolicyProfile) -> PolicyProfile:
    """Transfer a full-game profile onto the unrolled materialized subgame."""
    require_form(rep, ExtensiveFormRep, "subgame_profile")
    out: PolicyProfile = {p: {} for p in rep.players}
    for node in sub_rep.nodes:
        w = node.world_state
        if w is None or not w.startswith("sg"):
            continue
        orig = int(w[2:])
        p = node.actor
        if p in (CHANCE_ACTOR, TERMINAL_ACTOR):
            continue
        sub_key = sub_rep.infostate_keys[p][node.id]
        orig_key = rep.infostate_keys[p][orig]
        out[p][sub_key] = dict(profile[p][orig_key])
    return out


# ---------------------------------------------------------------------------
# Trunks and the decomposition solver


@dataclass(frozen=True)
class Trunk:
    """An ancestor-closed set of public states containing the root."""

    keys: FrozenSet[Hashable]

    @staticmethod
    def from_depth(rep: ExtensiveFormRep, depth: int) -> "Trunk":
        """The first ``depth`` levels of the public tree."""
        require_form(rep, ExtensiveFormRep, "Trunk.from_depth")
        if depth < 1:
            raise InvalidArgument("trunk depth must be >= 1")
        return Trunk(keys=frozenset(k for k in rep.public_sets if len(k) < depth))

    def validate(self, rep: ExtensiveFormRep) -> None:
        require_form(rep, ExtensiveFormRep, "Trunk.validate")
        if rep.public_keys[0] not in self.keys:
            raise InvalidArgument("trunk must contain the root public state")
        for key in self.keys:
            if key not in rep.public_sets:
                raise UnknownPublicState(f"trunk key {key!r} does not occur")
            if len(key) and key[:-1] not in self.keys:
                raise InvalidArgument(f"trunk is not closed under ancestors at {key!r}")

    def leaves(self, rep: ExtensiveFormRep) -> List[Hashable]:
        """Public states just below the trunk, in first-occurrence order."""
        require_form(rep, ExtensiveFormRep, "Trunk.leaves")
        out = []
        for key in rep.public_sets:
            if key not in self.keys and len(key) and key[:-1] in self.keys:
                out.append(key)
        return out


@dataclass
class CfrDResult:
    average_profile: PolicyProfile           # trunk infostates only
    completed_profile: PolicyProfile         # trunk average plus averaged subgame play
    trace: List[TracePoint]
    policies: Optional[List[PolicyProfile]] = None
    leaf_keys: List[Hashable] = field(default_factory=list)


@dataclass
class _Leaves:
    """The leaf subgames below a trunk, solved together as one forest.

    ``entries`` and ``isets`` list every leaf's entry histories and infoset
    indices, leaf by leaf. Leaves share no node and no infoset, so one regret
    state walking every entry solves each leaf exactly as a state of its own
    would.
    """

    keys: List[Hashable]
    entries: Tuple[int, ...]
    entry_set: FrozenSet[int]
    isets: List[int]

    @staticmethod
    def below(rep: ExtensiveFormRep, tree: SolverTree, trunk: Trunk) -> "_Leaves":
        keys = trunk.leaves(rep)
        entries = tuple(h for key in keys for h in rep.public_sets[key])
        isets = [s.index for key in keys for s in tree.isets
                 if _extends(rep.public_keys[s.members[0]], key)]
        return _Leaves(keys=keys, entries=entries, entry_set=frozenset(entries), isets=isets)

    def seeds(self, tree: SolverTree, policies: Sequence[Sequence[float]],
              ) -> Dict[int, Tuple[float, ...]]:
        """The reach vector (chance, player 1, ...) of every entry under the trunk policy."""
        root = {0: (1.0,) * (tree.num_players + 1)}
        reach = _reach_pass(tree, policies, root, stop=self.entry_set)
        return {h: tuple(reaches[h] for reaches in reach) for h in self.entries}

    def solve(self, tree: SolverTree, seeds: Mapping[int, Sequence[float]],
              budget: int) -> CfrState:
        """``budget`` rounds of regret matching in place, with range-substituted reaches."""
        state = CfrState(tree)
        for _ in range(budget):
            state.refresh_policies(indices=self.isets)
            for h in self.entries:
                state.walk(h, list(seeds[h]))
        return state


def _boundary_values(tree: SolverTree, solved: Sequence[Optional[List[float]]],
                     seeds: Mapping[int, Sequence[float]],
                     ) -> Dict[int, List[float]]:
    """Per-entry value vectors for the trunk update, one pass per player over all leaves.

    Each player's value is their counterfactual best response against the
    solved subgames; this keeps the trunk update honest about actions the
    current range excludes. With exact subgame equilibria they coincide with
    the equilibrium values. ``solved`` holds every leaf infoset's policy; the
    responder's choices replace theirs before the value pass reads each entry.
    """
    per_player = []
    for player in range(1, tree.num_players + 1):
        _value, choice, order = response_values(tree, solved, player, seeds)
        chosen = list(solved)
        for idx, k in choice.items():
            chosen[idx] = [float(j == k) for j in range(len(tree.isets[idx].actions))]
        per_player.append(_node_values(tree, chosen, order))
    return {h: [values[h][p] for p, values in enumerate(per_player)] for h in seeds}


def cfr_d(game, trunk: Trunk, iterations: int, subgame_budget: int,
          trace_stride: int = 0, record_policies: bool = False,
          *, tree: Optional[SolverTree] = None) -> CfrDResult:
    """Trunk-restricted regret minimization with per-iteration leaf subgame solves.

    Each round computes reach probabilities through the trunk under the
    current trunk policy, solves every leaf subgame for the resulting range,
    feeds the solved subgames' entry values into the trunk regret update, and
    regret-matches. The returned profile is the unweighted arithmetic mean of
    the trunk policies produced after each round. Each leaf subgame is solved
    by ``subgame_budget`` rounds of regret matching with range-substituted
    reaches. ``tree`` is a prebuilt ``SolverTree`` of the unrolled game; the
    trace evaluations reuse it.
    """
    if iterations < 1:
        raise InvalidArgument("iterations must be >= 1")
    if subgame_budget < 1:
        raise InvalidArgument("subgame budget must be >= 1")
    if trace_stride < 0:
        raise InvalidArgument("trace stride must be >= 0")
    rep = _as_rep(game, "cfr_d")
    trunk.validate(rep)
    tree = tree or SolverTree(rep)
    leaves = _Leaves.below(rep, tree, trunk)
    trunk_isets = [s.index for s in tree.isets
                   if rep.public_keys[s.members[0]] in trunk.keys]

    state = CfrState(tree)
    policy_sum = {idx: [0.0] * len(tree.isets[idx].actions) for idx in trunk_isets}
    sub_sum = {idx: [0.0] * len(tree.isets[idx].actions) for idx in leaves.isets}
    last_solved: List[Optional[List[float]]] = [None] * len(tree.isets)
    trace: List[TracePoint] = []
    policies_log: List[PolicyProfile] = []
    start = time.perf_counter()

    def solve_all(seeds) -> Dict[int, List[float]]:
        solve = leaves.solve(tree, seeds, subgame_budget)
        averages = solve.average_policies()
        for idx in leaves.isets:
            acc, sums = sub_sum[idx], solve.strategy_sum[idx]
            for k in range(len(acc)):
                acc[k] += sums[k]
            last_solved[idx] = averages[idx]
        return _boundary_values(tree, last_solved, seeds)

    def completed_from(trunk_avg: PolicyProfile) -> PolicyProfile:
        completed = {p: dict(trunk_avg.get(p, {})) for p in rep.players}
        for idx, sums in sub_sum.items():
            s = tree.isets[idx]
            total = sum(sums)
            if total > 0.0:
                dist = [x / total for x in sums]
            else:
                dist = last_solved[idx] or [1.0 / len(s.actions)] * len(s.actions)
            completed[s.owner][s.key] = {a: dist[k] for k, a in enumerate(s.actions)}
        return completed

    for t in range(iterations):
        if record_policies:
            policies_log.append(tree.profile_from_policies([list(p) for p in state.policies]))
        if leaves.keys:
            boundary = solve_all(leaves.seeds(tree, state.policies))
        else:
            boundary = None
        state.walk(0, [1.0] * (tree.num_players + 1), boundary=boundary)
        state.refresh_policies(indices=trunk_isets)
        for idx in trunk_isets:
            sums = policy_sum[idx]
            current = state.policies[idx]
            for k in range(len(sums)):
                sums[k] += current[k]
        state.iterations = t + 1
        if trace_stride and ((t + 1) % trace_stride == 0 or t + 1 == iterations):
            completed = completed_from(_trunk_average(tree, trunk_isets, policy_sum, t + 1))
            trace.append(TracePoint(
                iteration=t + 1,
                exploitability=exploitability(rep, completed, tree=tree),
                value_p1=game_value(rep, completed, tree=tree)[0],
                wall_ms=(time.perf_counter() - start) * 1000.0))

    average = _trunk_average(tree, trunk_isets, policy_sum, iterations)
    return CfrDResult(average_profile=average, completed_profile=completed_from(average),
                      trace=trace, policies=policies_log if record_policies else None,
                      leaf_keys=leaves.keys)


def _trunk_average(tree: SolverTree, trunk_isets: Sequence[int],
                   policy_sum: Mapping[int, Sequence[float]], rounds: int) -> PolicyProfile:
    profile: PolicyProfile = {p: {} for p in range(1, tree.num_players + 1)}
    for idx in trunk_isets:
        s = tree.isets[idx]
        profile[s.owner][s.key] = {
            a: policy_sum[idx][k] / rounds for k, a in enumerate(s.actions)}
    return profile


def complete_profile(rep: ExtensiveFormRep, trunk: Trunk, trunk_profile: PolicyProfile,
                     subgame_budget: int, tree: Optional[SolverTree] = None) -> PolicyProfile:
    """Extend a trunk profile to the whole game by re-solving every leaf subgame."""
    require_form(rep, ExtensiveFormRep, "complete_profile")
    if subgame_budget < 1:
        raise InvalidArgument("subgame budget must be >= 1")
    tree = tree or SolverTree(rep)
    leaves = _Leaves.below(rep, tree, trunk)
    policies = tree.uniform_policies()
    for s in tree.isets:
        per = trunk_profile.get(s.owner, {}).get(s.key)
        if per is not None:
            policies[s.index] = [float(per.get(a, 0.0)) for a in s.actions]

    completed: PolicyProfile = {p: dict(trunk_profile.get(p, {})) for p in rep.players}
    averages = leaves.solve(tree, leaves.seeds(tree, policies), subgame_budget).average_policies()
    for idx in leaves.isets:
        s = tree.isets[idx]
        completed[s.owner][s.key] = {a: averages[idx][k] for k, a in enumerate(s.actions)}
    return completed
