"""Independent reference computations the tests check the library against.

Everything here is deliberately naive: plain enumeration over terminals,
exhaustive search over pure policies, a hand-rolled Kuhn settlement, the
row-by-row Bland's-rule simplex the vectorized kernel must match pivot for
pivot, the per-node unroller the step-table one must match node for node,
the root-path perfect-recall check the one-step rules must agree with, and
the node-ordered best response the pass over sequences must agree with.
None of it shares code with the solvers it cross-checks; the best-response
reference reads the same compiled ``SolverTree``.
"""

import dataclasses
import itertools
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

import fosg
from fosg.cfr import KIND_CHANCE, KIND_DECISION, KIND_TERMINAL
from fosg.errors import (DepthExceeded, ImperfectRecall, Infeasible, NotSerial, PivotLimit,
                         Unbounded)
from fosg.model import GameSpec, InfoKey, advance_keys, is_serial, merge_chance
from fosg.simplex import TOL
from fosg.unroll import (CHANCE_ACTOR, TERMINAL_ACTOR, ClassicalEFG, EfgNode,
                         ExtensiveFormRep, HistoryNode, _last_own)

CARDS = ("J", "Q", "K")
KUHN_LINES = ("kk", "kbf", "kbc", "bf", "bc")


def kuhn_deals():
    return [(a, b) for a in CARDS for b in CARDS if a != b]


def kuhn_settlement(card1, card2, line):
    """Net payoff for player 1 given the betting line, from first principles."""
    win = 1 if CARDS.index(card1) > CARDS.index(card2) else -1
    if line == "kk":
        return win * 1
    if line == "kbf":
        return -1
    if line == "kbc":
        return win * 2
    if line == "bf":
        return 1
    if line == "bc":
        return win * 2
    raise ValueError(line)


def kuhn_terminal_count():
    return len(kuhn_deals()) * len(KUHN_LINES)


def kuhn_infoset_count():
    # Decision points: player 1 at the start and facing a bet after checking,
    # player 2 after a check and after a bet; three private cards each.
    return {1: len(CARDS) * 2, 2: len(CARDS) * 2}


def _infostate_key(rep, player, nid):
    """Owner's infostate key at a decision node, in either representation."""
    if hasattr(rep, "infostate_keys"):
        return rep.infostate_keys[player][nid]
    return next(k for k, members in rep.infosets[player].items() if nid in members)


def _utility(node):
    """Utility vector at a terminal: cumulative reward, or a classical leaf's payoff."""
    return node.utilities if hasattr(node, "utilities") else node.cumulative_reward


def terminal_reach_value(rep, profile, terminal):
    """P(z) * utility by walking one terminal's path with explicit products."""
    path = []
    node = terminal
    while node.parent is not None:
        path.append(node)
        node = rep.nodes[node.parent]
    prob = 1.0
    for child in reversed(path):
        parent = rep.nodes[child.parent]
        if parent.chance_dist is not None:
            prob *= parent.chance_dist[child.incoming_action]
        else:
            key = _infostate_key(rep, parent.actor, parent.id)
            prob *= profile[parent.actor][key][child.incoming_action]
    return prob, _utility(terminal)


def reach_by_path(rep, profile, nid):
    """Chance reach and each player's own reach of one node, up its parent pointers."""
    chance = 1.0
    own = [1.0] * rep.num_players
    node = rep.nodes[nid]
    while node.parent is not None:
        parent = rep.nodes[node.parent]
        if parent.chance_dist is not None:
            chance *= parent.chance_dist[node.incoming_action]
        else:
            key = _infostate_key(rep, parent.actor, parent.id)
            own[parent.actor - 1] *= profile[parent.actor][key][node.incoming_action]
        node = parent
    return chance, tuple(own)


def expected_utility_by_enumeration(rep, profile):
    """Expected utility vector as a plain sum over all terminals."""
    totals = [0.0] * rep.num_players
    for z in rep.terminals():
        prob, utility = terminal_reach_value(rep, profile, z)
        for i in range(rep.num_players):
            totals[i] += prob * utility[i]
    return tuple(totals)


def _acting_infosets(rep, player):
    if hasattr(rep, "acting_infosets"):
        return rep.acting_infosets(player)
    return rep.infosets[player]


def pure_policies(rep, player):
    """Every deterministic policy of one player, as key -> action dicts."""
    infosets = _acting_infosets(rep, player)
    keys = list(infosets)
    action_sets = [rep.nodes[infosets[k][0]].actions for k in keys]
    for combo in itertools.product(*action_sets):
        yield {k: {a: 1.0 if a == chosen else 0.0 for a in acts}
               for k, acts, chosen in zip(keys, action_sets, combo)}


def pure_policy_count(rep, player):
    count = 1
    for members in _acting_infosets(rep, player).values():
        count *= len(rep.nodes[members[0]].actions)
    return count


def best_response_by_enumeration(rep, profile, player):
    """Best pure-policy value for one player by exhaustive search."""
    best = None
    for pure in pure_policies(rep, player):
        candidate = dict(profile)
        candidate[player] = pure
        value = expected_utility_by_enumeration(rep, candidate)[player - 1]
        if best is None or value > best:
            best = value
    return best


def zero_sum_random_rep(seed, depth=5):
    """Unrolled ``random_fosg(seed, depth)`` with every reward rewritten to ``(r, -r)``."""
    spec = fosg.random_fosg(seed, depth=depth)
    rewards = {key: (vec[0], -vec[0]) for key, vec in spec.rewards.items()}
    return fosg.unroll(dataclasses.replace(spec, rewards=rewards))


# --- the dense Bland's-rule simplex, one row at a time ---


@dataclasses.dataclass
class ReferenceResult:
    x: np.ndarray
    objective: float
    basis: List[int]
    pivots: List[Tuple[int, int]]
    # y with Bᵀy = c_B for the final basis, solved from the original A.
    duals: np.ndarray


def _reference_pivot(tableau, row, col):
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def _reference_run_phase(tableau, basis, costs, n_cols, pivots, phase, budget, frozen=None):
    m = tableau.shape[0]
    while True:
        # Reduced costs under the current basis.
        cb = costs[basis]
        reduced = costs[:n_cols] - cb @ tableau[:, :n_cols]
        entering = -1
        for j in range(n_cols):
            if frozen and j in frozen:
                continue
            if reduced[j] < -TOL:
                entering = j
                break
        if entering < 0:
            return
        column = tableau[:, entering]
        best_row = -1
        best_ratio = None
        for r in range(m):
            if column[r] > TOL:
                ratio = tableau[r, -1] / column[r]
                if best_row < 0 or ratio < best_ratio - TOL or (
                        abs(ratio - best_ratio) <= TOL and basis[r] < basis[best_row]):
                    best_row, best_ratio = r, ratio
        if best_row < 0:
            raise Unbounded(f"column {entering} unbounded")
        if budget is not None and len(pivots) >= budget:
            raise PivotLimit(f"simplex phase {phase} reached the pivot budget "
                             f"after {len(pivots)} pivots")
        pivots.append((entering, basis[best_row]))
        _reference_pivot(tableau, best_row, entering)
        basis[best_row] = entering


def bland_simplex_reference(c, a, b, budget=None, reenter=False):
    """Minimize ``c.x`` over ``a x = b, x >= 0`` with full-tableau row operations.

    With a ``budget``, a phase that would pivot once more after ``budget``
    pivots in all raises ``PivotLimit`` with the kernel's message. Phase 1
    freezes the artificial columns, as phase 2 does, so an artificial that
    leaves the basis never re-enters. ``reenter=True`` prices them in phase 1
    as well, so that tests can show where the two rules part.
    """
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float).copy()
    m, n = a.shape
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    a_orig = a.copy()

    # Phase 1 tableau: [A | I | b] with artificial costs.
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    costs1 = np.concatenate([np.zeros(n), np.ones(m)])
    pivots: List[Tuple[int, int]] = []
    artificial = set(range(n, n + m))
    _reference_run_phase(tableau, basis, costs1, n + m, pivots, 1, budget,
                         frozen=None if reenter else artificial)

    # Summed as a contiguous vector, as the kernel's right-hand side is: numpy
    # sums a strided dot product in another order, which can move the last bit.
    phase1_obj = float(costs1[basis] @ tableau[:, -1].copy())
    if phase1_obj > 1e-7:
        raise Infeasible(f"phase-1 objective {phase1_obj}")

    # Drive leftover artificial variables out of the basis; rows that cannot
    # pivot on a real column are redundant and stay harmlessly at zero.
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if abs(tableau[r, j]) > TOL:
                    pivots.append((j, basis[r]))
                    _reference_pivot(tableau, r, j)
                    basis[r] = j
                    break

    costs2 = np.concatenate([c, np.zeros(m)])
    _reference_run_phase(tableau, basis, costs2, n + m, pivots, 2, budget,
                         frozen=artificial)

    x = np.zeros(n)
    for r, var in enumerate(basis):
        if var < n:
            x[var] = tableau[r, -1]
    objective = float(c @ x)

    # Duals y solve B^T y = c_B for the final basis columns of the original A;
    # a leftover artificial in the basis contributes its identity column at cost 0.
    basis_matrix = np.zeros((m, m))
    for r in range(m):
        if basis[r] < n:
            basis_matrix[:, r] = a_orig[:, basis[r]]
        else:
            basis_matrix[basis[r] - n, r] = 1.0
    cb = np.array([c[v] if v < n else 0.0 for v in basis])
    duals = np.linalg.solve(basis_matrix.T, cb)
    duals[flip] *= -1.0
    return ReferenceResult(x=x, objective=objective, basis=basis, pivots=pivots, duals=duals)


def highs_game_value(lp):
    """Value of min e.u over F y = f, E.T u - A y >= 0, y >= 0, solved by HiGHS."""
    from scipy.optimize import linprog

    k, n2 = lp.e_matrix.shape[0], lp.f_matrix.shape[1]
    cost = np.concatenate([lp.e_vector, np.zeros(n2)])
    a_ub = np.hstack([-lp.e_matrix.T, lp.payoff])
    a_eq = np.hstack([np.zeros((lp.f_matrix.shape[0], k)), lp.f_matrix])
    bounds = [(None, None)] * k + [(0, None)] * n2
    result = linprog(cost, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq,
                     b_eq=lp.f_vector, bounds=bounds, method="highs")
    if result.status != 0:
        raise RuntimeError(f"HiGHS failed: {result.message}")
    return result.fun


# --- the per-node unroller, one table lookup per node ---


def unroll_reference(spec: GameSpec, depth_bound: int = 64) -> ExtensiveFormRep:
    """The per-node unroller the step-table ``fosg.unroll`` replaced, verbatim.

    Materializes the full reachable tree of a serial game.

    Nodes are numbered in breadth-first order. Information partitions group
    nodes by identical action-observation sequences, the public partition by
    identical public-observation sequences. Raises NotSerial for
    simultaneous-move input and DepthExceeded when a non-terminal node sits at
    ``depth_bound``.
    """
    if spec.has_chance_actor:
        spec = merge_chance(spec)
    if not is_serial(spec):
        raise NotSerial("unroll requires a serial game; call serialize() first")

    nplayers = spec.num_players
    nodes: List[HistoryNode] = []
    keys: Dict[int, List[InfoKey]] = {p: [] for p in spec.players}
    pub_keys: List[Tuple[Hashable, ...]] = []

    def actor_of(state: str) -> int:
        if spec.is_terminal(state):
            return TERMINAL_ACTOR
        players = spec.active_players(state)
        return players[0] if players else CHANCE_ACTOR

    root = HistoryNode(id=0, parent=None, incoming_action=None, world_state=spec.initial_state,
                       actor=actor_of(spec.initial_state), depth=0,
                       cumulative_reward=tuple(0.0 for _ in spec.players))
    nodes.append(root)
    for p in spec.players:
        keys[p].append(())
    pub_keys.append(())

    frontier = [0]
    while frontier:
        next_frontier: List[int] = []
        for nid in frontier:
            node = nodes[nid]
            state = node.world_state
            if node.actor == TERMINAL_ACTOR:
                continue
            if node.depth >= depth_bound:
                raise DepthExceeded(f"non-terminal node at depth {depth_bound} (state {state!r})")
            if node.actor == CHANCE_ACTOR:
                joint = spec.noop_joint(state)
                dist = spec.transitions[(state, joint)]
                # Zero-probability outcomes are kept only when observable, so
                # subgames built over a support-shrinking range keep their shape.
                successors = [s for s in sorted(dist)
                              if dist[s] > 0 or (state, joint, s) in spec.observations]
                node.actions = tuple(successors)
                node.chance_dist = {succ: dist[succ] for succ in successors}
                assignment: Mapping[int, str] = {}
                outcomes = [(succ, succ) for succ in successors]
            else:
                player = node.actor
                acts = spec.legal_actions[(state, player)]
                node.actions = acts
                joint = None
                outcomes = []
                for a in acts:
                    j = spec.joint_for(state, {player: a})
                    dist = spec.transitions[(state, j)]
                    (succ,) = [s for s, p in dist.items() if p > 0]
                    outcomes.append((a, succ))
            for label, succ in outcomes:
                if node.actor == CHANCE_ACTOR:
                    j = spec.noop_joint(state)
                    assignment = {}
                else:
                    j = spec.joint_for(state, {node.actor: label})
                    assignment = {node.actor: label}
                reward = spec.rewards[(state, j)]
                obs = spec.observations[(state, j, succ)]
                child = HistoryNode(
                    id=len(nodes), parent=nid, incoming_action=label, world_state=succ,
                    actor=actor_of(succ), depth=node.depth + 1,
                    cumulative_reward=tuple(c + r for c, r in zip(node.cumulative_reward, reward)),
                    incoming_obs=obs)
                nodes.append(child)
                node.children[label] = child.id
                parent_keys = tuple(keys[p][nid] for p in spec.players)
                advanced = advance_keys(nplayers, parent_keys, assignment, obs)
                for p in spec.players:
                    keys[p].append(advanced[p - 1])
                pub_keys.append(pub_keys[nid] + (obs.public,))
                next_frontier.append(child.id)
        frontier = next_frontier

    infosets: Dict[int, Dict[Hashable, Tuple[int, ...]]] = {}
    for p in spec.players:
        cells: Dict[Hashable, List[int]] = {}
        for n in nodes:
            cells.setdefault(keys[p][n.id], []).append(n.id)
        infosets[p] = {k: tuple(v) for k, v in cells.items()}
    public_sets: Dict[Hashable, List[int]] = {}
    for n in nodes:
        public_sets.setdefault(pub_keys[n.id], []).append(n.id)

    rep = ExtensiveFormRep(
        num_players=nplayers,
        nodes=nodes,
        infostate_keys={p: list(keys[p]) for p in spec.players},
        infosets=infosets,
        public_keys=list(pub_keys),
        public_sets={k: tuple(v) for k, v in public_sets.items()},
    )
    _check_acting_homogeneity(rep)
    return rep


def _check_acting_homogeneity(rep: ExtensiveFormRep) -> None:
    for p in rep.players:
        for key, members in rep.infosets[p].items():
            actors = {rep.nodes[m].actor for m in members}
            if p in actors and len(actors) > 1:
                raise ValueError(f"infoset {key!r} of player {p} mixes acting and non-acting nodes")
            if p in actors:
                action_sets = {rep.nodes[m].actions for m in members}
                if len(action_sets) > 1:
                    raise ValueError(f"infoset {key!r} of player {p} mixes legal action sets")


def forget_nonacting_reference(rep: ExtensiveFormRep) -> ClassicalEFG:
    """``fosg.forget_nonacting`` before it shared containers with ``rep``, verbatim.

    Drops the public partition and restricts each partition to the owner's
    decision nodes.

    Counting the public sets on each node's root path yields an exact unit-step
    timing of the result, so the output is always 1-timeable.
    """
    nodes = [
        EfgNode(id=n.id, name=f"n{n.id}", parent=n.parent, incoming_action=n.incoming_action,
                actor=n.actor, depth=n.depth, actions=n.actions,
                chance_dist=dict(n.chance_dist) if n.chance_dist else None,
                children=dict(n.children),
                utilities=n.cumulative_reward if n.actor == TERMINAL_ACTOR else None)
        for n in rep.nodes
    ]
    infosets: Dict[int, Dict[Hashable, Tuple[int, ...]]] = {}
    for p in rep.players:
        cells = {}
        for key, members in rep.infosets[p].items():
            acting = tuple(m for m in members if rep.nodes[m].actor == p)
            if acting:
                cells[key] = acting
        infosets[p] = cells
    return ClassicalEFG(num_players=rep.num_players, nodes=nodes, infosets=infosets)


# --- the root-path perfect-recall check ---


def check_perfect_recall_reference(game) -> Tuple[bool, Optional[Tuple]]:
    """The path-trace ``fosg.check_perfect_recall`` the one-step rules replaced, verbatim.

    Verify that members of each infoset share the owner's action-infoset history.

    Accepts either representation. For the augmented form the history records
    the owner's infoset at every ancestor node; for the classical form only
    the owner's decision ancestors count. Returns (True, None) or
    (False, (player, key, node_a, node_b)).
    """
    def path_ids(nodes, nid: int) -> List[int]:
        out = [nid]
        node = nodes[nid]
        while node.parent is not None:
            out.append(node.parent)
            node = nodes[node.parent]
        out.reverse()
        return out

    if isinstance(game, ExtensiveFormRep):
        def trace(player: int, nid: int) -> Tuple:
            out = []
            path = path_ids(game.nodes, nid)
            for idx in range(len(path) - 1):  # strict ancestors, root first
                ancestor = game.nodes[path[idx]]
                out.append(("I", game.infostate_keys[player][ancestor.id]))
                if ancestor.actor == player:
                    out.append(("a", game.nodes[path[idx + 1]].incoming_action))
            return tuple(out)

        partitions = game.infosets
    elif isinstance(game, ClassicalEFG):
        labels = {p: game.infoset_of(p) for p in game.players}

        def trace(player: int, nid: int) -> Tuple:
            out = []
            path = path_ids(game.nodes, nid)
            for idx in range(len(path) - 1):
                ancestor = game.nodes[path[idx]]
                if ancestor.actor == player:
                    out.append(("I", labels[player][ancestor.id]))
                    out.append(("a", game.nodes[path[idx + 1]].incoming_action))
            return tuple(out)

        partitions = game.infosets
    else:
        raise TypeError(f"unsupported game type {type(game)!r}")

    for player, cells in partitions.items():
        for key, members in cells.items():
            if len(members) < 2:
                continue
            reference = trace(player, members[0])
            for other in members[1:]:
                if trace(player, other) != reference:
                    return False, (player, key, members[0], other)
    return True, None


# --- the node-ordered best response ---


def response_order_reference(tree, player: int) -> List[int]:
    """The Kahn evaluation order the sequence pass replaced, verbatim.

    Entries are node ids, or ``~index`` for one of the player's infosets,
    which stands for all its members at once. Every entry comes after the
    children of its nodes, so the player's infosets come in reverse
    topological order of infoset precedence, whatever their depths. Raises
    ``ImperfectRecall`` when the members of one of the player's infosets
    follow different latest own infosets and actions.
    """
    last_own = _last_own(tree.game, player)
    for s in tree.isets:
        if s.owner == player and len({last_own[m] for m in s.members}) > 1:
            raise ImperfectRecall(
                f"player {player} has no perfect recall at infostate {s.key!r}")
    count = len(tree.kind)
    parent: List[Optional[int]] = [None] * count
    unit = list(range(count))
    pending: Dict[int, int] = {}  # per entry: child edges whose entries are not placed yet
    for nid, kids in enumerate(tree.kids):
        if kids is None:
            continue
        if tree.kind[nid] == KIND_DECISION and tree.owner[nid] == player:
            unit[nid] = ~tree.iset_index[nid]
        pending[unit[nid]] = pending.get(unit[nid], 0) + len(kids)
        for kid in kids:  # (child, reward), led by the probability on chance edges
            parent[kid[-2]] = nid
    ready = [nid for nid in range(count) if tree.kids[nid] is None]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for m in (tree.isets[~u].members if u < 0 else (u,)):
            up = parent[m]
            if up is None:
                continue
            pending[unit[up]] -= 1
            if pending[unit[up]] == 0:
                ready.append(unit[up])
    return order


def response_values_reference(tree, policies, player: int, seeds,
                              ) -> Tuple[List[float], Dict[int, int]]:
    """The node-ordered ``fosg.cfr.response_values`` the sequence pass replaced, verbatim.

    Returns the responder's future value at every node of the seeded forest
    and the chosen action index per infoset reached.
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
    for u in response_order_reference(tree, player):
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
