"""Independent reference computations the tests check the library against.

Everything here is deliberately naive: plain enumeration over terminals,
exhaustive search over pure policies, and a hand-rolled Kuhn settlement.
None of it shares code with the solvers it cross-checks.
"""

import itertools

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
