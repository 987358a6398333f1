"""Built-in game fixtures and seeded random generators for property tests."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .errors import InvalidArgument
from .model import CHANCE, NOOP, FactoredObservation, GameSpec, SpecTables
from .timing import Timing, find_exact_timing
from .unroll import ClassicalEFG, EfgNode, ExtensiveFormRep, _augmented, add_efg_node

CARDS = ("J", "Q", "K")
BLANK = "-"


@dataclass(frozen=True)
class Fixture:
    """A named builtin game with the shape its tests re-derive."""

    name: str
    kind: str                      # "spec" or "efg"
    build: Callable
    metadata: Mapping[str, object]


def catalog() -> Dict[str, "Fixture"]:
    """All builtin fixtures keyed by CLI name."""
    return {f.name: f for f in (
        Fixture("kuhn", "spec", kuhn_poker,
                {"terminals": 30, "acting_infosets": (6, 6), "zero_sum": True,
                 "observable_rewards": True}),
        Fixture("kuhn_chance", "spec", kuhn_poker_chance_variant,
                {"chance_actor": True, "merges_to": "kuhn"}),
        Fixture("matching_pennies", "spec", matching_pennies,
                {"serial": False, "game_value": 0.0, "zero_sum": True}),
        Fixture("nontimeable", "efg", nontimeable_fixture,
                {"timeable": False, "witness_nodes": 4}),
    )}


def _kuhn_tables(explicit_chance: bool) -> GameSpec:
    """Shared construction for the Kuhn fixtures.

    Antes are paid on the dealing transition and bets when placed, so rewards
    accrue along a play rather than only at the end. Showdowns reveal the
    opponent's card privately; folds reveal nothing beyond the action.
    """
    players = (1, 2)
    deals = [(a, b) for a in CARDS for b in CARDS if a != b]
    tables = SpecTables(2)
    chance_policy: Optional[Dict[str, Dict[str, float]]] = None
    chance_slot = (NOOP,) if explicit_chance else ()

    deal_obs = {
        (a, b): FactoredObservation(private=(a, b), public="dealt") for a, b in deals
    }
    if explicit_chance:
        deal_actions = tuple(f"{a}{b}" for a, b in deals)
        tables.state("deal", {CHANCE: deal_actions})
        chance_policy = {"deal": {act: 1.0 / len(deals) for act in deal_actions}}
        for a, b in deals:
            tables.move("deal", (f"{a}{b}", NOOP, NOOP), (-1.0, -1.0),
                        {f"{a}{b}:": (1.0, deal_obs[(a, b)])})
    else:
        tables.state("deal", {})
        tables.move("deal", (NOOP, NOOP), (-1.0, -1.0),
                    {f"{a}{b}:": (1.0 / len(deals), deal_obs[(a, b)]) for a, b in deals})

    def winner(a: str, b: str) -> int:
        return 1 if CARDS.index(a) > CARDS.index(b) else 2

    for a, b in deals:
        d = f"{a}{b}"
        won = winner(a, b)

        def terminal(line: str) -> str:
            return f"{d}:{line}$"

        def add_move(state_line: str, player: int, action: str, target: str,
                     reward: Tuple[float, float], obs: FactoredObservation) -> None:
            joint = chance_slot + tuple(action if p == player else NOOP for p in players)
            tables.move(f"{d}:{state_line}", joint, reward, {target: (1.0, obs)})

        act_obs = lambda name: FactoredObservation(private=(BLANK, BLANK), public=name)
        showdown_obs = FactoredObservation(private=(b, a), public="showdown")

        for line, player, actions in (("", 1, ("check", "bet")),
                                      ("k", 2, ("check", "bet")),
                                      ("b", 2, ("fold", "call")),
                                      ("kb", 1, ("fold", "call"))):
            tables.state(f"{d}:{line}", {player: actions})

        pot2 = (2.0 if won == 1 else 0.0, 2.0 if won == 2 else 0.0)
        pot4 = (4.0 if won == 1 else 0.0, 4.0 if won == 2 else 0.0)

        add_move("", 1, "check", f"{d}:k", (0.0, 0.0), act_obs("check"))
        add_move("", 1, "bet", f"{d}:b", (-1.0, 0.0), act_obs("bet"))
        add_move("k", 2, "check", terminal("kk"), pot2, showdown_obs)
        add_move("k", 2, "bet", f"{d}:kb", (0.0, -1.0), act_obs("bet"))
        add_move("kb", 1, "fold", terminal("kbf"), (0.0, 3.0), act_obs("fold"))
        add_move("kb", 1, "call", terminal("kbc"),
                 (pot4[0] - 1.0, pot4[1]), showdown_obs)
        add_move("b", 2, "fold", terminal("bf"), (3.0, 0.0), act_obs("fold"))
        add_move("b", 2, "call", terminal("bc"),
                 (pot4[0], pot4[1] - 1.0), showdown_obs)

        for line in ("kk", "kbf", "kbc", "bf", "bc"):
            tables.state(terminal(line), {})

    return tables.spec(chance_policy=chance_policy)


def kuhn_poker() -> GameSpec:
    """Three-card Kuhn poker with dealing folded into the transition function."""
    return _kuhn_tables(explicit_chance=False)


def kuhn_poker_chance_variant() -> GameSpec:
    """Kuhn poker with an explicit chance actor performing the deal."""
    return _kuhn_tables(explicit_chance=True)


def matching_pennies() -> GameSpec:
    """One simultaneous decision, two actions per player, zero-sum match/mismatch payoffs."""
    actions = ("heads", "tails")
    tables = SpecTables(2)
    tables.state("start", {})
    tables.state("play", {p: actions for p in (1, 2)})
    tables.move("start", (NOOP, NOOP), (0.0, 0.0),
                {"play": (1.0, FactoredObservation(private=(BLANK, BLANK), public="begin"))})
    for x in actions:
        for y in actions:
            term = f"mp:{x}{y}"
            tables.state(term, {})
            gain = 1.0 if x == y else -1.0
            tables.move("play", (x, y), (gain, -gain),
                        {term: (1.0, FactoredObservation(private=(BLANK, BLANK), public=f"{x}|{y}"))})
    return tables.spec()


# ---------------------------------------------------------------------------
# Classical-tree fixtures for the timing machinery


def nontimeable_fixture() -> ClassicalEFG:
    """Chance-rooted tree with a cyclic cross-infoset timing dependency.

    Player 1's infoset joins a node with the grandchild of player 2's node and
    vice versa, so no exact timing exists. Utilities are zero; timeability
    does not depend on payoffs.
    """
    nodes: List[EfgNode] = []
    add = partial(add_efg_node, nodes)
    zero = (0.0, 0.0)
    root = add("root", None, None, 0, chance_dist={"L": 0.5, "R": 0.5})
    g = add("g", root, "L", 1)
    hp = add("h'", root, "R", 2)
    h = add("h", g, "a", 2)
    add("g-b", g, "b", -1, utilities=zero)
    gp = add("g'", hp, "c", 1)
    add("h'-d", hp, "d", -1, utilities=zero)
    add("h-c", h, "c", -1, utilities=zero)
    add("h-d", h, "d", -1, utilities=zero)
    add("g'-a", gp, "a", -1, utilities=zero)
    add("g'-b", gp, "b", -1, utilities=zero)
    infosets = {
        1: {"I1": (g, gp)},
        2: {"I2": (h, hp)},
    }
    return ClassicalEFG(num_players=2, nodes=nodes, infosets=infosets)


def padding_chain(n: int) -> Tuple[ClassicalEFG, Timing]:
    """A zig-zag chain whose k-th forward transition skips n-k time stamps.

    Returns the tree together with the exact timing that forces the skips.
    The padded size therefore grows quadratically in ``n`` while the tree
    itself grows linearly.
    """
    if n < 2:
        raise InvalidArgument("padding_chain requires n >= 2")
    nodes: List[EfgNode] = []
    add = partial(add_efg_node, nodes)
    zero = (0.0, 0.0)
    labels: Dict[int, int] = {}
    prev = add("h1", None, None, 1)
    labels[prev] = 0
    for k in range(1, n + 1):
        h_id = prev
        leaf = add(f"h{k}-out", h_id, "out", -1, utilities=zero)
        labels[leaf] = labels[h_id] + 1
        g_id = add(f"g{k}", h_id, "go", 2)
        labels[g_id] = labels[h_id] + (n - k) + 1
        if k < n:
            leaf = add(f"g{k}-out", g_id, "out", -1, utilities=zero)
            labels[leaf] = labels[g_id] + 1
            prev = add(f"h{k + 1}", g_id, "go", 1)
            labels[prev] = labels[g_id] + 1
        else:
            for action in ("go", "out"):
                leaf = add(f"g{k}-{action}", g_id, action, -1, utilities=zero)
                labels[leaf] = labels[g_id] + 1
    infosets = {1: {}, 2: {}}
    for node in nodes:
        if node.actor in (1, 2):
            infosets[node.actor][f"I{node.id}"] = (node.id,)
    return ClassicalEFG(num_players=2, nodes=nodes, infosets=infosets), Timing(labels=labels)


def two_augmentations() -> Tuple[ClassicalEFG, ExtensiveFormRep, ExtensiveFormRep]:
    """A classical tree with two distinct valid augmentations.

    The variants differ in what the second player knows before acting: in one
    they cannot tell the chance outcome apart until they move, in the other
    they learn it immediately. Both restrict to the same classical tree, so no
    augmentation can be canonical.
    """
    nodes: List[EfgNode] = []
    add = partial(add_efg_node, nodes)
    zero = (0.0, 0.0)
    root = add("root", None, None, 0, chance_dist={"l": 0.5, "r": 0.5})
    u = add("u", root, "l", 1)
    v = add("v", root, "r", 1)
    m = add("m", u, "x", 2)
    lu = add("u-y", u, "y", -1, utilities=zero)
    mp = add("m'", v, "x", 2)
    lv = add("v-y", v, "y", -1, utilities=zero)
    mc = add("m-c", m, "c", -1, utilities=zero)
    md = add("m-d", m, "d", -1, utilities=zero)
    mpc = add("m'-c", mp, "c", -1, utilities=zero)
    mpd = add("m'-d", mp, "d", -1, utilities=zero)
    classical = ClassicalEFG(
        num_players=2, nodes=nodes,
        infosets={1: {"I1": (u, v)}, 2: {"J_m": (m,), "J_m'": (mp,)}})

    def rep_from(cells1, cells2) -> ExtensiveFormRep:
        keys = {p: [None] * len(nodes) for p in (1, 2)}
        for p, cells in ((1, cells1), (2, cells2)):
            for i, cell in enumerate(cells):
                for member in cell:
                    keys[p][member] = f"c{p}.{i}"
        return _augmented(classical, keys)

    cells1 = [(root,), (u, v), (m,), (mp,), (lu, lv), (mc,), (md,), (mpc,), (mpd,)]
    # Variant A: player 2 cannot separate u from v before acting.
    cells2_a = [(root,), (u, v), (m,), (mp,), (lu, lv), (mc,), (md,), (mpc,), (mpd,)]
    # Variant B: player 2 learns the chance outcome immediately.
    cells2_b = [(root,), (u,), (v,), (m,), (mp,), (lu,), (lv,), (mc,), (md,), (mpc,), (mpd,)]
    return classical, rep_from(cells1, cells2_a), rep_from(cells1, cells2_b)


# ---------------------------------------------------------------------------
# Seeded random generators


def random_fosg(seed: int, depth: int = 4, branching: int = 2, players: int = 2,
                obs_alphabet: int = 4, serial: bool = True) -> GameSpec:
    """A seeded random layered game that always validates.

    States live on levels 0..depth with transitions strictly level-increasing,
    so unrolled trees have height exactly ``depth``. Every transition emits a
    non-trivial public observation, and private observations carry the
    successor's acting pattern so legal actions stay deducible.
    """
    rng = random.Random(seed)
    pls = tuple(range(1, players + 1))
    width = max(2, branching)

    level_states: List[List[str]] = [["w0.0"]]
    for lvl in range(1, depth + 1):
        count = rng.randint(2, width + 1)
        level_states.append([f"w{lvl}.{i}" for i in range(count)])

    # Assign actors and action sets first so observations can carry each
    # successor's acting pattern (keeps legal actions deducible from infostates).
    tables = SpecTables(players)
    pattern: Dict[str, str] = {}
    for lvl, bucket in enumerate(level_states):
        for state in bucket:
            if lvl in (0, depth):
                actors = []
            elif serial:
                actors = [] if rng.random() < 0.3 else [rng.choice(pls)]
            else:
                actors = rng.sample(pls, rng.randint(0, players))
            actions = {p: tuple(f"a{p}.{j}" for j in range(rng.randint(2, branching + 1)))
                       for p in sorted(actors)}
            tables.state(state, actions)
            if lvl == depth:
                pattern[state] = "t"
            elif actions:
                pattern[state] = "p" + ",".join(f"{p}:{len(acts)}" for p, acts in actions.items())
            else:
                pattern[state] = "c"

    for lvl, bucket in enumerate(level_states[:-1]):
        nxt = level_states[lvl + 1]
        for state in bucket:
            active = sorted(tables.player_fn[state])
            actions = [tables.legal_actions[(state, p)] for p in active]
            for combo in itertools.product(*actions):
                joint = tuple(combo[active.index(p)] if p in active else NOOP for p in pls)
                if serial and active:
                    dist = {rng.choice(nxt): 1.0}
                else:
                    k = rng.randint(1, min(2, len(nxt)))
                    support = rng.sample(nxt, k)
                    raw = [rng.uniform(0.2, 1.0) for _ in support]
                    total = sum(raw)
                    dist = {s: r / total for s, r in zip(support, raw)}
                    dist[support[-1]] += 1.0 - sum(dist.values())
                reward = tuple(round(rng.uniform(-2, 2), 3) for _ in pls)
                successors = {}
                for succ, prob in dist.items():
                    pub = f"P{rng.randrange(obs_alphabet)}.{lvl}"
                    priv = tuple(f"o{p}.{rng.randrange(obs_alphabet)}.{pattern[succ]}" for p in pls)
                    successors[succ] = (prob, FactoredObservation(private=priv, public=pub))
                tables.move(state, joint, reward, successors)

    return tables.spec()


def random_timeable_efg(seed: int, depth: int = 4, branching: int = 2,
                        merge_attempts: int = 4) -> ClassicalEFG:
    """A seeded random classical tree that admits an exact timing.

    Starts from a random perfect-information tree and merges same-player
    decision nodes with equal actions across branches, keeping only merges that
    leave the tree timeable. The merges need not preserve perfect recall.
    """
    rng = random.Random(seed)
    nodes: List[EfgNode] = []
    add = partial(add_efg_node, nodes)

    def leaf_utilities() -> Tuple[float, float]:
        u = round(rng.uniform(-1, 1), 3)
        return (u, -u)

    def grow(parent: Optional[int], action: Optional[str], lvl: int) -> None:
        if lvl == depth:
            add(f"z{len(nodes)}", parent, action, -1, utilities=leaf_utilities())
            return
        if parent is not None and rng.random() < 0.25:
            add(f"z{len(nodes)}", parent, action, -1, utilities=leaf_utilities())
            return
        if lvl == 0 or rng.random() < 0.25:
            nid = add(f"c{len(nodes)}", parent, action, 0, chance_dist={})
            outcomes = rng.randint(2, branching + 1)
            probs = [rng.uniform(0.2, 1.0) for _ in range(outcomes)]
            total = sum(probs)
            for j in range(outcomes):
                nodes[nid].chance_dist[f"o{j}"] = probs[j] / total
                grow(nid, f"o{j}", lvl + 1)
        else:
            actor = rng.choice((1, 2))
            nid = add(f"d{len(nodes)}", parent, action, actor)
            for j in range(rng.randint(2, branching + 1)):
                grow(nid, f"x{j}", lvl + 1)

    grow(None, None, 0)

    infosets: Dict[int, Dict[str, Tuple[int, ...]]] = {1: {}, 2: {}}
    cells: Dict[int, List[List[int]]] = {1: [], 2: []}
    for node in nodes:
        if node.actor in (1, 2):
            cells[node.actor].append([node.id])

    def build() -> ClassicalEFG:
        iso = {p: {f"I{p}.{i}": tuple(cell) for i, cell in enumerate(cells[p])}
               for p in (1, 2)}
        return ClassicalEFG(num_players=2, nodes=nodes, infosets=iso)

    for _ in range(merge_attempts):
        p = rng.choice((1, 2))
        if len(cells[p]) < 2:
            continue
        i, j = rng.sample(range(len(cells[p])), 2)
        # Action labels must agree inside a cell.
        if nodes[cells[p][i][0]].actions != nodes[cells[p][j][0]].actions:
            continue
        merged = cells[p][i] + cells[p][j]
        backup = (list(cells[p][i]), list(cells[p][j]))
        cells[p][i] = merged
        del cells[p][j]
        timing, _witness = find_exact_timing(build())
        if timing is None:
            cells[p].insert(j, backup[1])
            cells[p][i] = backup[0]

    return build()
