"""Tabular factored-observation stochastic games.

A game is a finite table of world states with a player function, per-player
legal actions, stochastic transitions, reward vectors, and observations that
are factored into one private component per player plus a single public
component. Players are numbered 1..N; actor index 0 is reserved for an
optional explicit chance actor whose fixed policy can be merged back into the
transition function.

Joint actions are tuples with one slot per actor. Inactive actors hold the
``NOOP`` symbol. When a spec declares a chance actor (``chance_policy`` is not
None), joint tuples carry the chance slot first, followed by the N player
slots; otherwise they have exactly N slots.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, Hashable, List, Mapping, Optional, Tuple

from .errors import (DepthExceeded, IllegalAction, InvalidArgument, MissingChancePolicy,
                     StepAtTerminal)

NOOP = "noop"
TICK = "tick"          # trivial observation emitted by intermediate serialization steps
EMPTY_PUBLIC = "∅"     # constant public observation of a factorization-forgetting game
CHANCE = 0             # actor index of the explicit chance actor

JointKey = Tuple[str, ...]
InfoKey = Tuple[Hashable, ...]


@dataclass(frozen=True)
class FactoredObservation:
    """One step's observation: a private symbol per player plus a public symbol.

    Player i receives the pair ``(private[i-1], public)``; the encoding keeps
    the two parts distinguishable.
    """

    private: Tuple[Hashable, ...]
    public: Hashable


@dataclass(frozen=True)
class GameSpec:
    """A finite factored-observation stochastic game as explicit tables.

    All maps are keyed by interned identifiers. ``transitions`` and
    ``rewards`` are keyed by ``(state, joint_action)``; ``observations`` by
    ``(state, joint_action, successor)`` and must cover the support of every
    transition distribution. A state with no active actors and no transition
    entry is terminal.

    Instances are treated as immutable after construction and are safe to
    share across concurrent readers.
    """

    num_players: int
    states: Tuple[str, ...]
    initial_state: str
    player_fn: Mapping[str, FrozenSet[int]]
    legal_actions: Mapping[Tuple[str, int], Tuple[str, ...]]
    transitions: Mapping[Tuple[str, JointKey], Mapping[str, float]]
    rewards: Mapping[Tuple[str, JointKey], Tuple[float, ...]]
    observations: Mapping[Tuple[str, JointKey, str], FactoredObservation]
    chance_policy: Optional[Mapping[str, Mapping[str, float]]] = None

    @property
    def players(self) -> Tuple[int, ...]:
        return tuple(range(1, self.num_players + 1))

    @property
    def has_chance_actor(self) -> bool:
        return self.chance_policy is not None

    @property
    def actors(self) -> Tuple[int, ...]:
        """Slot order of joint-action tuples: chance first when declared."""
        if self.has_chance_actor:
            return (CHANCE,) + self.players
        return self.players

    def slot(self, actor: int) -> int:
        return self.actors.index(actor)

    def active(self, state: str) -> Tuple[int, ...]:
        return tuple(sorted(self.player_fn.get(state, frozenset())))

    def active_players(self, state: str) -> Tuple[int, ...]:
        """Active real players at ``state`` (chance actor excluded)."""
        return tuple(a for a in self.active(state) if a != CHANCE)

    def is_terminal(self, state: str) -> bool:
        return not self.player_fn.get(state) and (state, self.noop_joint(state)) not in self.transitions

    def noop_joint(self, state: str) -> JointKey:
        return tuple(NOOP for _ in self.actors)

    def joint_for(self, state: str, assignment: Mapping[int, str]) -> JointKey:
        """Build a joint tuple from per-actor choices, padding inactive slots."""
        active = set(self.active(state))
        out = []
        for actor in self.actors:
            if actor in active:
                try:
                    out.append(assignment[actor])
                except KeyError:
                    raise IllegalAction(f"no action supplied for active actor {actor} at {state!r}")
            else:
                out.append(NOOP)
        return tuple(out)

    def assignment(self, state: str, joint: JointKey) -> Dict[int, str]:
        """Inverse of joint_for: active-actor slots of a joint tuple."""
        active = set(self.active(state))
        return {a: joint[self.slot(a)] for a in self.actors if a in active}

    def joint_actions(self, state: str) -> List[JointKey]:
        """All legal joint tuples at ``state`` in deterministic slot order."""
        choices = []
        active = set(self.active(state))
        for actor in self.actors:
            if actor in active:
                choices.append(self.legal_actions[(state, actor)])
            else:
                choices.append((NOOP,))
        return [tuple(c) for c in itertools.product(*choices)]


class SpecTables:
    """The one writer of a game's tables.

    ``state`` declares a state with each active actor's legal actions, and
    ``move`` writes one move's transition, reward and observations together.
    The tables keep the order of the calls that wrote them.
    """

    def __init__(self, num_players: int) -> None:
        self.num_players = num_players
        self.states: List[str] = []
        self.player_fn: Dict[str, FrozenSet[int]] = {}
        self.legal_actions: Dict[Tuple[str, int], Tuple[str, ...]] = {}
        self.transitions: Dict[Tuple[str, JointKey], Dict[str, float]] = {}
        self.rewards: Dict[Tuple[str, JointKey], Tuple[float, ...]] = {}
        self.observations: Dict[Tuple[str, JointKey, str], FactoredObservation] = {}

    def state(self, name: str, actions: Mapping[int, Tuple[str, ...]]) -> None:
        """Declare ``name``, active for exactly the actors that ``actions`` keys."""
        self.states.append(name)
        self.player_fn[name] = frozenset(actions)
        for actor, acts in actions.items():
            self.legal_actions[(name, actor)] = acts

    def move(self, state: str, joint: JointKey, reward: Tuple[float, ...],
             successors: Mapping[str, Tuple[float, Optional[FactoredObservation]]]) -> None:
        """Write the move ``joint`` at ``state``: its reward, and each successor's
        probability and observation.

        An observation of None leaves that successor's observation unwritten.
        """
        key = (state, joint)
        self.transitions[key] = {succ: prob for succ, (prob, _obs) in successors.items()}
        self.rewards[key] = reward
        for succ, (_prob, obs) in successors.items():
            if obs is not None:
                self.observations[key + (succ,)] = obs

    def spec(self, initial_state: Optional[str] = None,
             chance_policy: Optional[Mapping[str, Mapping[str, float]]] = None) -> GameSpec:
        """The written game, which starts at the first declared state unless told
        otherwise. It shares the tables, so nothing is written after this call."""
        return GameSpec(
            num_players=self.num_players,
            states=tuple(self.states),
            initial_state=self.states[0] if initial_state is None else initial_state,
            player_fn=self.player_fn,
            legal_actions=self.legal_actions,
            transitions=self.transitions,
            rewards=self.rewards,
            observations=self.observations,
            chance_policy=chance_policy,
        )


@dataclass(frozen=True)
class Violation:
    """A single broken model axiom, reported by validate()."""

    code: str
    message: str
    state: Optional[str] = None
    action: Optional[JointKey] = None


def validate(spec: GameSpec, depth_bound: int = 64) -> List[Violation]:
    """Check every model axiom and return the list of violations (empty = valid).

    The finite-horizon assumption is enforced as acyclicity of the reachable
    state graph within ``depth_bound`` transitions.
    """
    out: List[Violation] = []
    add = out.append
    inf = float("inf")

    if spec.initial_state not in spec.states:
        add(Violation("unknown-initial-state", f"initial state {spec.initial_state!r} not in state set"))
        return out

    state_set = set(spec.states)
    if spec.active_players(spec.initial_state):
        add(Violation("initial-state-active", "initial state has active players", spec.initial_state))

    for state, actors in spec.player_fn.items():
        if state not in state_set:
            add(Violation("unknown-state", f"player_fn lists unknown state {state!r}", state))
        for a in actors:
            if a == CHANCE and not spec.has_chance_actor:
                add(Violation("chance-without-policy", "chance actor active but no chance_policy declared", state))
            elif a != CHANCE and not 1 <= a <= spec.num_players:
                add(Violation("unknown-player", f"player index {a} out of range", state))

    # Legal actions must be declared exactly for the active actors.
    for state in spec.states:
        for actor in spec.active(state):
            acts = spec.legal_actions.get((state, actor))
            if not acts:
                add(Violation("missing-actions", f"no legal actions for actor {actor} at {state!r}", state))
    for (state, actor), acts in spec.legal_actions.items():
        if actor not in spec.player_fn.get(state, frozenset()):
            add(Violation("actions-for-inactive", f"legal actions declared for inactive actor {actor}", state))
        if len(set(acts)) != len(acts):
            add(Violation("duplicate-actions", f"duplicate action identifiers for actor {actor}", state))

    # Transition coverage: terminal states have none, all others cover every
    # legal joint action and nothing else.
    expected: Dict[str, set] = {}
    for state in spec.states:
        if spec.player_fn.get(state) or (state, spec.noop_joint(state)) in spec.transitions:
            if all((state, actor) in spec.legal_actions for actor in spec.active(state)):
                expected[state] = set(spec.joint_actions(state))
    for state, joints in expected.items():
        for joint in joints:
            if (state, joint) not in spec.transitions:
                add(Violation("missing-transition", "no transition for legal joint action", state, joint))
    for (state, joint), dist in spec.transitions.items():
        if state not in state_set:
            add(Violation("unknown-state", f"transition from unknown state {state!r}", state, joint))
            continue
        if joint not in expected.get(state, set()):
            add(Violation("illegal-transition-key", "transition keyed by illegal joint action", state, joint))
            continue
        total = 0.0
        for succ, prob in dist.items():
            if succ not in state_set:
                add(Violation("unknown-successor", f"transition to unknown state {succ!r}", state, joint))
            if not -inf < prob < inf:  # NaN fails both
                add(Violation("non-finite-probability", f"non-finite probability {prob!r}",
                              state, joint))
            elif prob < 0:
                add(Violation("negative-probability", f"negative probability {prob}", state, joint))
            total += prob
        if abs(total - 1.0) > 1e-12:
            add(Violation("bad-distribution", f"transition probabilities sum to {total!r}", state, joint))
        if (state, joint) not in spec.rewards:
            add(Violation("missing-reward", "no reward vector for transition", state, joint))
        elif len(spec.rewards[(state, joint)]) != spec.num_players:
            add(Violation("bad-reward-length", "reward vector length differs from player count", state, joint))
        elif not all(-inf < r < inf for r in spec.rewards[(state, joint)]):  # NaN fails both
            add(Violation("non-finite-reward", f"non-finite reward {spec.rewards[(state, joint)]!r}",
                          state, joint))
        for succ, prob in dist.items():
            if prob > 0 and (state, joint, succ) not in spec.observations:
                add(Violation("undefined-observation", f"no observation for supported successor {succ!r}",
                              state, joint))

    for (state, joint, succ), obs in spec.observations.items():
        if len(obs.private) != spec.num_players:
            add(Violation("bad-observation-length", "private observation vector length differs from player count",
                          state, joint))

    # Chance policy coverage and shape.
    if spec.has_chance_actor:
        for state in spec.states:
            if CHANCE in spec.player_fn.get(state, frozenset()):
                dist = spec.chance_policy.get(state)
                if dist is None:
                    add(Violation("missing-chance-policy", "chance actor active without policy entry", state))
                    continue
                legal = set(spec.legal_actions.get((state, CHANCE), ()))
                total = 0.0
                for act, prob in dist.items():
                    if act not in legal:
                        add(Violation("chance-policy-illegal-action", f"chance policy uses illegal action {act!r}",
                                      state))
                    if not -inf < prob < inf:  # NaN fails both
                        add(Violation("non-finite-probability",
                                      f"non-finite chance probability {prob!r}", state))
                    elif prob < 0:
                        add(Violation("negative-probability", f"negative chance probability {prob}", state))
                    total += prob
                if abs(total - 1.0) > 1e-12:
                    add(Violation("bad-distribution", f"chance policy sums to {total!r}", state))
        for state in spec.chance_policy:
            if CHANCE not in spec.player_fn.get(state, frozenset()):
                add(Violation("chance-policy-inactive", "chance policy entry for state without active chance actor",
                              state))

    out.extend(_check_horizon(spec, depth_bound))
    return out


def _check_horizon(spec: GameSpec, depth_bound: int) -> List[Violation]:
    """A reachable cycle, or else a reachable play longer than ``depth_bound``.

    One Kahn pass over the states reachable through transitions of positive
    probability. Every state it leaves over has a left-over predecessor, so
    walking back through those repeats a state, and that state lies on a
    cycle.
    """
    succ: Dict[str, Dict[str, None]] = {}
    for (state, _joint), dist in spec.transitions.items():
        bucket = succ.setdefault(state, {})
        for target, prob in dist.items():
            if prob > 0:
                bucket[target] = None
    preds: Dict[str, List[str]] = {spec.initial_state: []}
    stack = [spec.initial_state]
    while stack:
        state = stack.pop()
        for nxt in succ.get(state, ()):
            if nxt not in preds:
                preds[nxt] = []
                stack.append(nxt)
            preds[nxt].append(state)

    waiting = {state: len(p) for state, p in preds.items()}
    depth = dict.fromkeys(preds, 0)
    ready = [state for state, count in waiting.items() if not count]
    while ready:
        state = ready.pop()
        for nxt in succ.get(state, ()):
            depth[nxt] = max(depth[nxt], depth[state] + 1)
            waiting[nxt] -= 1
            if not waiting[nxt]:
                ready.append(nxt)

    left = [state for state, count in waiting.items() if count]
    if left:
        seen = set()
        state = left[0]
        while state not in seen:
            seen.add(state)
            state = next(p for p in preds[state] if waiting[p])
        return [Violation("cycle", f"reachable cycle through {state!r}", state)]
    if max(depth.values()) > depth_bound:
        return [Violation("depth-bound", f"reachable play longer than {depth_bound} transitions",
                          spec.initial_state)]
    return []


def sample_chance_action(spec: GameSpec, state: str, rng: random.Random) -> str:
    """Draw the chance actor's action at ``state`` from the chance policy."""
    if not spec.has_chance_actor or state not in spec.chance_policy:
        raise MissingChancePolicy(f"no chance policy at state {state!r}")
    return _sample(spec.chance_policy[state], rng)


def _sample(dist: Mapping[str, float], rng: random.Random) -> str:
    u = rng.random()
    acc = 0.0
    last = None
    for key, prob in dist.items():
        if prob <= 0:
            continue
        acc += prob
        last = key
        if u < acc:
            return key
    if last is None:
        raise InvalidArgument("cannot sample from an all-zero distribution")
    return last


def step(spec: GameSpec, state: str, action: JointKey, rng: random.Random,
         ) -> Tuple[str, Tuple[float, ...], FactoredObservation]:
    """Execute one transition: draw a successor, return rewards and observation.

    Raises StepAtTerminal at terminal states and IllegalAction when any slot
    of ``action`` violates the legal-action tables.
    """
    if spec.is_terminal(state):
        raise StepAtTerminal(f"state {state!r} is terminal")
    action = tuple(action)
    if len(action) != len(spec.actors):
        raise IllegalAction(f"joint action has {len(action)} slots, expected {len(spec.actors)}")
    active = set(spec.active(state))
    for actor, chosen in zip(spec.actors, action):
        if actor in active:
            if chosen not in spec.legal_actions[(state, actor)]:
                raise IllegalAction(f"action {chosen!r} illegal for actor {actor} at {state!r}")
        elif chosen != NOOP:
            raise IllegalAction(f"inactive actor {actor} must play {NOOP!r}")
    dist = spec.transitions[(state, action)]
    nxt = _sample(dist, rng)
    return nxt, spec.rewards[(state, action)], spec.observations[(state, action, nxt)]


# ---------------------------------------------------------------------------
# Chance-actor merging


def merge_chance(spec: GameSpec) -> GameSpec:
    """Fold the explicit chance actor back into the transition function.

    At every state where the chance actor is active, the returned spec's
    transition for the residual joint action is the chance-policy-weighted
    mixture over the chance actor's choices. Rewards and observations must be
    consistent across merged choices; the unrolled trees of input and output
    coincide node by node.
    """
    if not spec.has_chance_actor:
        return spec
    for state in spec.states:
        if CHANCE in spec.player_fn.get(state, frozenset()) and state not in spec.chance_policy:
            raise MissingChancePolicy(f"chance actor active at {state!r} without a policy entry")

    def strip(joint: JointKey) -> JointKey:
        return joint[1:]

    player_fn = {s: frozenset(a for a in actors if a != CHANCE) for s, actors in spec.player_fn.items()}
    legal = {(s, a): acts for (s, a), acts in spec.legal_actions.items() if a != CHANCE}
    transitions: Dict[Tuple[str, JointKey], Dict[str, float]] = {}
    rewards: Dict[Tuple[str, JointKey], Tuple[float, ...]] = {}
    observations: Dict[Tuple[str, JointKey, str], FactoredObservation] = {}

    for (state, joint), dist in spec.transitions.items():
        residual = strip(joint)
        if CHANCE not in spec.player_fn.get(state, frozenset()):
            transitions[(state, residual)] = dict(dist)
            rewards[(state, residual)] = spec.rewards[(state, joint)]
            for succ, prob in dist.items():
                if (state, joint, succ) in spec.observations:
                    observations[(state, residual, succ)] = spec.observations[(state, joint, succ)]
            continue
        weight = spec.chance_policy[state].get(joint[0], 0.0)
        if weight <= 0:
            continue
        mixed = transitions.setdefault((state, residual), {})
        for succ, prob in dist.items():
            mixed[succ] = mixed.get(succ, 0.0) + weight * prob
            if prob > 0:
                obs = spec.observations[(state, joint, succ)]
                prev = observations.setdefault((state, residual, succ), obs)
                if prev != obs:
                    raise InvalidArgument(f"ambiguous observation while merging chance at {state!r} -> {succ!r}")
        reward = spec.rewards[(state, joint)]
        prev_r = rewards.setdefault((state, residual), reward)
        if prev_r != reward:
            raise InvalidArgument(f"ambiguous reward while merging chance at {state!r}")

    return replace(spec, player_fn=player_fn, legal_actions=legal, transitions=transitions,
                   rewards=rewards, observations=observations, chance_policy=None)


# ---------------------------------------------------------------------------
# Serialization of simultaneous moves


def is_serial(spec: GameSpec) -> bool:
    """True when at most one player acts anywhere and player moves are deterministic.

    States where only chance is at work (no real players) may branch
    stochastically. Specs with an explicit chance actor are judged after
    merging it.
    """
    spec = merge_chance(spec)
    return all(_is_serial_state(spec, state) for state in spec.states)


def _is_serial_state(spec: GameSpec, state: str) -> bool:
    """At most one player acts at ``state``, and a lone player's moves are deterministic."""
    players = spec.active_players(state)
    if len(players) != 1:
        return not players
    for joint in spec.joint_actions(state):
        dist = spec.transitions.get((state, joint))
        if dist and sum(1 for p in dist.values() if p > 0) > 1:
            return False
    return True


def _serial_name(state: str, actor: int, prefix: JointKey) -> str:
    return f"{state}[{actor}|{','.join(prefix)}]"


def _chance_name(state: str, joint: JointKey) -> str:
    return f"{state}[c|{','.join(joint)}]"


def serialize(spec: GameSpec) -> GameSpec:
    """Rewrite simultaneous decisions into one-at-a-time form.

    Active players at a state choose in ascending player order through a
    cascade of intermediate states, then a resolution state with a single
    noop action applies the original stochastic transition. Only the final
    resolution step emits the original rewards and observations; every
    intermediate step emits a zero reward and the reserved tick observation.
    States that already satisfy the serial shape are kept verbatim, so a
    serial input is returned unchanged.
    """
    spec = merge_chance(spec)
    if is_serial(spec):
        return spec

    tick_obs = FactoredObservation(private=tuple(TICK for _ in spec.players), public=TICK)
    zero = tuple(0.0 for _ in spec.players)
    noop_joint = tuple(NOOP for _ in spec.players)
    tables = SpecTables(spec.num_players)

    def single_slot(player: int, action: str) -> JointKey:
        return tuple(action if p == player else NOOP for p in spec.players)

    def copy_move(name: str, joint: JointKey, state: str, original: JointKey) -> None:
        """Write the move ``original`` at ``state`` as the move ``joint`` at ``name``."""
        tables.move(name, joint, spec.rewards[(state, original)], {
            succ: (prob, spec.observations.get((state, original, succ)))
            for succ, prob in spec.transitions[(state, original)].items()})

    for state in spec.states:
        players = spec.active_players(state)
        if _is_serial_state(spec, state):
            tables.state(state, {actor: spec.legal_actions[(state, actor)] for actor in players})
            for joint in spec.joint_actions(state):
                if (state, joint) in spec.transitions:
                    copy_move(state, joint, state, joint)
            continue

        # Decision cascade in ascending player order; the first decision state
        # keeps the original name so incoming transitions stay untouched.
        order = list(players)
        prefixes: List[JointKey] = [()]
        for idx, player in enumerate(order):
            for prefix in prefixes:
                name = state if idx == 0 else _serial_name(state, player, prefix)
                tables.state(name, {player: spec.legal_actions[(state, player)]})
                for action in spec.legal_actions[(state, player)]:
                    extended = prefix + (action,)
                    if idx + 1 < len(order):
                        target = _serial_name(state, order[idx + 1], extended)
                    else:
                        target = _chance_name(state, extended)
                    tables.move(name, single_slot(player, action), zero, {target: (1.0, tick_obs)})
            prefixes = [p + (a,) for p in prefixes for a in spec.legal_actions[(state, player)]]

        # Resolution states apply the original transition, rewards, observations.
        for combo in prefixes:
            name = _chance_name(state, combo)
            tables.state(name, {})
            copy_move(name, noop_joint, state, spec.joint_for(state, dict(zip(order, combo))))

    return tables.spec(spec.initial_state)


def strip_tick_observations(key: InfoKey) -> InfoKey:
    """Project a serialized information-state key back to the original game's key."""
    return tuple(el for el in key if not (el[0] == "o" and el[1] == TICK and el[2] == TICK))


def serial_policy(policy: "PolicyFn") -> "PolicyFn":
    """Lift a policy of the original game onto its serialized version."""

    def lifted(player: int, key: InfoKey) -> Mapping[str, float]:
        return policy(player, strip_tick_observations(key))

    return lifted


# ---------------------------------------------------------------------------
# Information-state bookkeeping shared by expected_utilities and acting_infostates


def advance_keys(num_players: int, keys: Tuple[InfoKey, ...], assignment: Mapping[int, str],
                 obs: FactoredObservation) -> Tuple[InfoKey, ...]:
    """Append one transition to every player's action-observation sequence.

    Active players first record their own non-noop action, then every player
    records the pair of their private observation and the public observation.
    """
    out = []
    for i in range(1, num_players + 1):
        key = keys[i - 1]
        action = assignment.get(i)
        if action is not None and action != NOOP:
            key = key + (("a", action),)
        key = key + (("o", obs.private[i - 1], obs.public),)
        out.append(key)
    return tuple(out)


def public_projection(key: InfoKey) -> Tuple[Hashable, ...]:
    """The sequence of public observations recoverable from one player's key."""
    return tuple(el[2] for el in key if el[0] == "o")


PolicyFn = Callable[[int, InfoKey], Mapping[str, float]]


def tabular_policy(table: Mapping[int, Mapping[InfoKey, Mapping[str, float]]]) -> PolicyFn:
    """Wrap a per-player key-indexed table as a policy callable."""

    def fn(player: int, key: InfoKey) -> Mapping[str, float]:
        return table[player][key]

    return fn


def expected_utilities(spec: GameSpec, policy: PolicyFn, depth_bound: int = 64,
                       ) -> Tuple[float, ...]:
    """Expected cumulative reward vector under a behavioural policy profile.

    Works on general (possibly simultaneous-move) specs by enumerating joint
    actions of the active players weighted by the policy, the chance policy,
    and the transition probabilities.
    """
    totals = [0.0 for _ in spec.players]

    def recurse(state: str, keys: Tuple[InfoKey, ...], weight: float, depth: int,
                acc: Tuple[float, ...]) -> None:
        if weight == 0.0:
            return
        if spec.is_terminal(state):
            for i, r in enumerate(acc):
                totals[i] += weight * r
            return
        if depth >= depth_bound:
            raise DepthExceeded(f"depth bound {depth_bound} hit at state {state!r}")
        players = spec.active_players(state)
        chance_active = spec.has_chance_actor and CHANCE in spec.player_fn.get(state, frozenset())
        player_choices = []
        for p in players:
            dist = policy(p, keys[p - 1])
            player_choices.append([(p, a, q) for a, q in dist.items() if q > 0])
        chance_choices = [(CHANCE, a, q) for a, q in spec.chance_policy[state].items() if q > 0] \
            if chance_active else [None]
        for chance_pick in chance_choices:
            for combo in itertools.product(*player_choices) if player_choices else [()]:
                w = weight
                assignment: Dict[int, str] = {}
                if chance_pick is not None:
                    assignment[CHANCE] = chance_pick[1]
                    w *= chance_pick[2]
                for p, a, q in combo:
                    assignment[p] = a
                    w *= q
                joint = spec.joint_for(state, assignment)
                reward = spec.rewards[(state, joint)]
                new_acc = tuple(x + r for x, r in zip(acc, reward))
                for succ, prob in spec.transitions[(state, joint)].items():
                    if prob <= 0:
                        continue
                    obs = spec.observations[(state, joint, succ)]
                    recurse(succ, advance_keys(spec.num_players, keys, assignment, obs),
                            w * prob, depth + 1, new_acc)

    empty = tuple(() for _ in spec.players)
    recurse(spec.initial_state, empty, 1.0, 0, tuple(0.0 for _ in spec.players))
    return tuple(totals)


def acting_infostates(spec: GameSpec, depth_bound: int = 64,
                      ) -> Dict[int, Dict[InfoKey, Tuple[str, ...]]]:
    """Enumerate each player's decision information states and their legal actions.

    Usable on general specs; the unroller provides the same data for serial
    games through the tree representation.
    """
    found: Dict[int, Dict[InfoKey, Tuple[str, ...]]] = {p: {} for p in spec.players}

    def recurse(state: str, keys: Tuple[InfoKey, ...], depth: int) -> None:
        if spec.is_terminal(state):
            return
        if depth >= depth_bound:
            raise DepthExceeded(f"depth bound {depth_bound} hit at state {state!r}")
        for p in spec.active_players(state):
            acts = spec.legal_actions[(state, p)]
            prev = found[p].setdefault(keys[p - 1], acts)
            if prev != acts:
                raise InvalidArgument(f"information state of player {p} has ambiguous legal actions")
        for joint in spec.joint_actions(state):
            if (state, joint) not in spec.transitions:
                continue
            assignment = spec.assignment(state, joint)
            for succ, prob in spec.transitions[(state, joint)].items():
                if prob <= 0:
                    continue
                obs = spec.observations[(state, joint, succ)]
                recurse(succ, advance_keys(spec.num_players, keys, assignment, obs), depth + 1)

    recurse(spec.initial_state, tuple(() for _ in spec.players), 0)
    return found


def uniform_spec_policy(spec: GameSpec, depth_bound: int = 64) -> PolicyFn:
    """Uniform behavioural policy over every reachable decision infostate."""
    table = {
        p: {key: {a: 1.0 / len(acts) for a in acts} for key, acts in per.items()}
        for p, per in acting_infostates(spec, depth_bound).items()
    }
    return tabular_policy(table)
