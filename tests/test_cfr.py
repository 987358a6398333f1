"""Reach probabilities, values, regret matching, self-play, best response."""

import copy
import dataclasses
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import fosg
from fosg.cfr import (CfrState, SolverTree, best_response, cfr_run, exploitability,
                      expected_values, game_value, reach_probabilities, regret_matching,
                      response_values, solver_tree, uniform_profile)
from fosg.decomposition import (Trunk, _boundary_values, _Leaves, cfr_d, complete_profile,
                                range_at)
from fosg.sequence_form import build_sequence_lp, enumerate_sequences, payoff_matrix
from fosg.errors import DepthExceeded, ImperfectRecall, InvalidArgument, MissingPolicy, NotZeroSum
from fosg.io import efg_from_json

import oracles
from test_model import chain_spec


def random_profile(rep, rng):
    profile = {}
    for player in rep.players:
        per = {}
        for key, members in rep.acting_infosets(player).items():
            actions = rep.infoset_actions(player, key)
            raw = [rng.random() + 0.02 for _ in actions]
            total = sum(raw)
            per[key] = {a: r / total for a, r in zip(actions, raw)}
        profile[player] = per
    return profile


def test_reach_root_is_one(kuhn_rep):
    reach = reach_probabilities(kuhn_rep, fosg.uniform_profile(kuhn_rep))
    assert reach.chance[0] == 1.0
    assert all(reach.player[p][0] == 1.0 for p in kuhn_rep.players)
    assert all(reach.counterfactual[p][0] == 1.0 for p in kuhn_rep.players)


def test_reach_after_deal_and_after_bet(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    reach = reach_probabilities(kuhn_rep, profile)
    post_deal = [n for n in kuhn_rep.nodes if n.world_state == "JQ:"]
    assert len(post_deal) == 1
    assert reach.chance[post_deal[0].id] == pytest.approx(1 / 6)
    after_bet = [n for n in kuhn_rep.nodes if n.world_state == "JQ:b"]
    assert reach.player[1][after_bet[0].id] == pytest.approx(0.5)


def test_reach_product_identity(kuhn_rep):
    rng = random.Random(0)
    profile = random_profile(kuhn_rep, rng)
    reach = reach_probabilities(kuhn_rep, profile)
    for z in kuhn_rep.terminals():
        direct, _ = oracles.terminal_reach_value(kuhn_rep, profile, z)
        assert reach.joint(z.id) == pytest.approx(direct, abs=1e-12)
    for p in kuhn_rep.players:
        for key, members in kuhn_rep.infosets[p].items():
            total = sum(reach.counterfactual[p][m] for m in members)
            assert reach.infoset_counterfactual[p][key] == pytest.approx(total, abs=1e-12)


def test_reach_missing_policy(kuhn_rep):
    with pytest.raises(MissingPolicy):
        reach_probabilities(kuhn_rep, {1: {}, 2: {}})


def test_reach_seed_of_the_wrong_length_is_rejected(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    for vector in [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0)]:
        with pytest.raises(InvalidArgument):
            reach_probabilities(kuhn_rep, profile, seeds={0: vector})


def test_values_at_terminals_are_zero(kuhn_rep):
    table = expected_values(kuhn_rep, fosg.uniform_profile(kuhn_rep))
    for z in kuhn_rep.terminals():
        assert table.node_value[z.id] == tuple(0.0 for _ in kuhn_rep.players)


def test_pennies_uniform_value_is_zero(pennies_rep):
    profile = fosg.uniform_profile(pennies_rep)
    assert fosg.game_value(pennies_rep, profile) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_kuhn_root_value_matches_enumeration(kuhn_rep):
    rng = random.Random(1)
    for _ in range(5):
        profile = random_profile(kuhn_rep, rng)
        expected = oracles.expected_utility_by_enumeration(kuhn_rep, profile)
        assert fosg.game_value(kuhn_rep, profile) == pytest.approx(expected, abs=1e-12)


def test_counterfactual_value_definition(kuhn_rep):
    rng = random.Random(4)
    profile = random_profile(kuhn_rep, rng)
    reach = reach_probabilities(kuhn_rep, profile)
    table = expected_values(kuhn_rep, profile, reach=reach)
    for p in kuhn_rep.players:
        for key in kuhn_rep.acting_infosets(p):
            cf_total = reach.infoset_counterfactual[p][key]
            v = table.infoset_value[p][key]
            assert table.infoset_cf_value[p][key] == pytest.approx(cf_total * v, abs=1e-10)


def test_zero_sum_conservation_on_terminal_reward_games(pennies_rep):
    rng = random.Random(9)
    profile = random_profile(pennies_rep, rng)
    table = expected_values(pennies_rep, profile)
    for node in pennies_rep.nodes:
        v = table.node_value[node.id]
        assert v[0] + v[1] == pytest.approx(0.0, abs=1e-12)


# --- regret matching ---


def test_regret_matching_cases():
    assert regret_matching([3.0, 1.0]) == pytest.approx([0.75, 0.25])
    assert regret_matching([-2.0, -5.0]) == pytest.approx([0.5, 0.5])
    assert regret_matching([-2.0, 4.0]) == pytest.approx([0.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(min_value=-50, max_value=50,
                                 allow_nan=False), min_size=1, max_size=6),
       scale=st.floats(min_value=0.01, max_value=100, allow_nan=False))
def test_regret_matching_scale_invariance(values, scale):
    base = regret_matching(values)
    scaled = regret_matching([v * scale for v in values])
    assert base == pytest.approx(scaled, abs=1e-12)


def test_regret_matching_shift_changes_positive_vectors():
    assert regret_matching([1.0, 3.0]) != pytest.approx(regret_matching([2.0, 4.0]))


# --- self-play ---


def test_first_iteration_plays_uniform(kuhn_rep):
    result = cfr_run(kuhn_rep, 1, record_policies=True)
    for player, per in result.policies[0].items():
        for key, dist in per.items():
            values = list(dist.values())
            assert values == pytest.approx([1.0 / len(values)] * len(values))
    for player, per in result.average_profile.items():
        for dist in per.values():
            values = list(dist.values())
            assert values == pytest.approx([1.0 / len(values)] * len(values))


def test_kuhn_cfr_converges(kuhn_rep):
    result = cfr_run(kuhn_rep, 2000)
    assert exploitability(kuhn_rep, result.average_profile) <= 0.02


def test_regret_table_accumulates_instantaneous_regrets(kuhn_rep):
    # One manual iteration against the library's accounting.
    tree = SolverTree(kuhn_rep)
    state = CfrState(tree)
    state.refresh_policies()
    profile = tree.profile_from_policies([list(p) for p in state.policies])
    reach = reach_probabilities(kuhn_rep, profile)
    table = expected_values(kuhn_rep, profile, reach=reach)
    state.walk(0, [1.0, 1.0, 1.0])
    for s in tree.isets:
        for k, action in enumerate(s.actions):
            expected = (table.infoset_cf_q[s.owner][s.key][action]
                        - table.infoset_cf_value[s.owner][s.key])
            assert state.regrets[s.index][k] == pytest.approx(expected, abs=1e-10)


def test_regret_additivity(kuhn_rep):
    # Cumulative regrets equal the running sum of per-iteration increments,
    # and a continued run matches a single longer run.
    tree = SolverTree(kuhn_rep)
    state = CfrState(tree)
    increments = [[0.0] * len(s.actions) for s in tree.isets]
    checkpoint = None
    for t in range(25):
        before = [list(r) for r in state.regrets]
        state.refresh_policies()
        state.walk(0, [1.0, 1.0, 1.0])
        for idx in range(len(increments)):
            for k in range(len(increments[idx])):
                increments[idx][k] += state.regrets[idx][k] - before[idx][k]
        if t == 9:
            checkpoint = [list(r) for r in state.regrets]
    for idx in range(len(increments)):
        assert state.regrets[idx] == pytest.approx(increments[idx], abs=1e-10)
    assert checkpoint is not None

    full = cfr_run(kuhn_rep, 25)
    for player, per in full.regret_table.regrets.items():
        for key, dist in per.items():
            idx = tree.iset_lookup[(player, key)]
            for action, value in dist.items():
                k = tree.isets[idx].actions.index(action)
                assert state.regrets[idx][k] == pytest.approx(value, abs=1e-10)
    ten = cfr_run(kuhn_rep, 10)
    for player, per in ten.regret_table.regrets.items():
        for key, dist in per.items():
            idx = tree.iset_lookup[(player, key)]
            for action, value in dist.items():
                k = tree.isets[idx].actions.index(action)
                assert checkpoint[idx][k] == pytest.approx(value, abs=1e-10)


def test_future_and_total_value_runs_agree(kuhn_rep, kuhn_efg):
    fosg_run = cfr_run(kuhn_rep, 40, record_policies=True)
    efg_run = cfr_run(kuhn_efg, 40, record_policies=True)
    for step_a, step_b in zip(fosg_run.policies, efg_run.policies):
        for player in (1, 2):
            for key, dist in step_a[player].items():
                for action, prob in dist.items():
                    assert abs(prob - step_b[player][key][action]) <= 1e-12


def test_alternating_mode_converges(kuhn_rep):
    result = cfr_run(kuhn_rep, 2000, mode="alternating")
    assert exploitability(kuhn_rep, result.average_profile) <= 0.02


def test_alternating_mode_walks_against_updated_policies(kuhn_rep):
    # Player 2's first walk already plays player 1's policy as updated by
    # player 1's first walk.
    simultaneous = cfr_run(kuhn_rep, 2).regret_table
    alternating = cfr_run(kuhn_rep, 2, mode="alternating").regret_table
    assert alternating.regrets != simultaneous.regrets


def test_alternating_mode_converges_tightly(kuhn_rep):
    result = cfr_run(kuhn_rep, 2000, mode="alternating")
    assert exploitability(kuhn_rep, result.average_profile) <= 0.002


def test_trace_schema(kuhn_rep, tmp_path):
    from fosg.io import trace_to_csv

    result = cfr_run(kuhn_rep, 50, trace_stride=20)
    assert [p.iteration for p in result.trace] == [20, 40, 50]
    text = trace_to_csv(result.trace)
    header, *rows = text.strip().splitlines()
    assert header == "iteration,exploitability,value_p1,wall_ms"
    assert len(rows) == 3


# --- best response / exploitability ---


def test_best_response_pennies_vs_uniform(pennies_rep):
    profile = fosg.uniform_profile(pennies_rep)
    _, value = best_response(pennies_rep, profile, 1)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_best_response_matches_enumeration_vs_always_bet(kuhn_rep):
    always_bet = {}
    for key in kuhn_rep.acting_infosets(1):
        actions = kuhn_rep.infoset_actions(1, key)
        chosen = "bet" if "bet" in actions else "call"
        always_bet[key] = {a: 1.0 if a == chosen else 0.0 for a in actions}
    profile = {1: always_bet, 2: fosg.uniform_profile(kuhn_rep)[2]}
    _, value = best_response(kuhn_rep, profile, 2)
    brute = oracles.best_response_by_enumeration(kuhn_rep, profile, 2)
    assert value == pytest.approx(brute, abs=1e-12)


def test_best_response_dominates_random_responses(kuhn_rep):
    rng = random.Random(3)
    for _ in range(100):
        profile = random_profile(kuhn_rep, rng)
        _, value = best_response(kuhn_rep, profile, 2)
        challenger = random_profile(kuhn_rep, rng)
        played = {1: profile[1], 2: challenger[2]}
        assert value >= fosg.game_value(kuhn_rep, played)[1] - 1e-10


def test_exploitability_uniform_pennies_is_zero(pennies_rep):
    assert exploitability(pennies_rep, fosg.uniform_profile(pennies_rep)) == \
        pytest.approx(0.0, abs=1e-12)


def test_exploitability_uniform_kuhn_matches_enumeration(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    value = exploitability(kuhn_rep, profile)
    assert value > 0
    brute1 = oracles.best_response_by_enumeration(kuhn_rep, profile, 1)
    brute2 = oracles.best_response_by_enumeration(kuhn_rep, profile, 2)
    assert value == pytest.approx((brute1 + brute2) / 2, abs=1e-12)


def test_exploitability_rejects_general_sum(kuhn_spec):
    rewards = dict(kuhn_spec.rewards)
    key = next(k for k in rewards if rewards[k] != (0.0, 0.0))
    rewards[key] = (rewards[key][0] + 0.5, rewards[key][1])
    skewed = fosg.GameSpec(
        num_players=2, states=kuhn_spec.states, initial_state=kuhn_spec.initial_state,
        player_fn=kuhn_spec.player_fn, legal_actions=kuhn_spec.legal_actions,
        transitions=kuhn_spec.transitions, rewards=rewards,
        observations=kuhn_spec.observations)
    rep = fosg.unroll(skewed)
    with pytest.raises(NotZeroSum):
        exploitability(rep, fosg.uniform_profile(rep))


def random_classical_profile(efg, rng):
    profile = fosg.uniform_profile(efg)
    for per in profile.values():
        for key, dist in per.items():
            raw = [rng.random() + 0.02 for _ in dist]
            per[key] = {a: r / sum(raw) for a, r in zip(dist, raw)}
    return profile


def nontimeable_with_payoffs(seed):
    """The Figure-3 tree with seeded zero-sum leaf payoffs in place of zeros."""
    efg = copy.deepcopy(fosg.nontimeable_fixture())
    rng = random.Random(seed)
    for node in efg.terminals():
        u = round(rng.uniform(-1, 1), 3)
        node.utilities = (u, -u)
    return efg


def small_perfect_recall_timeable_trees():
    """Seeded timeable trees with perfect recall and at most 400 pure policies per player."""
    for depth in (4, 5, 6):
        for seed in range(40):
            efg = fosg.random_timeable_efg(seed, depth=depth)
            if fosg.check_perfect_recall(efg)[0] and max(
                    oracles.pure_policy_count(efg, p) for p in (1, 2)) <= 400:
                yield efg


def spans_depths(efg):
    return any(len({efg.nodes[m].depth for m in members}) > 1
               for per in efg.infosets.values() for members in per.values())


def test_best_response_matches_enumeration_on_classical_trees():
    trees = [nontimeable_with_payoffs(seed) for seed in range(3)]
    for efg in small_perfect_recall_timeable_trees():
        timing, _ = fosg.find_exact_timing(efg)
        trees += [efg, fosg.pad_to_1_timeable(efg, timing)]
    assert sum(spans_depths(efg) for efg in trees) >= 8
    rng = random.Random(11)
    for efg in trees:
        profile = random_classical_profile(efg, rng)
        values = []
        for player in (1, 2):
            _, value = best_response(efg, profile, player)
            assert value == pytest.approx(
                oracles.best_response_by_enumeration(efg, profile, player), abs=1e-12)
            values.append(value)
        assert exploitability(efg, profile) == (values[0] + values[1]) / 2.0


def test_a_classical_leaf_without_utilities_pays_zero():
    # The loader accepts a leaf without utilities; the solvers read it as paying
    # nothing, as the augmented tree does.
    efg = efg_from_json({"players": 2, "infosets": {"1": [["r"]]}, "nodes": [
        {"id": "r", "parent": None, "action": None, "actor": 1},
        {"id": "a", "parent": "r", "action": "x", "actor": -1, "utilities": [1.0, -1.0]},
        {"id": "b", "parent": "r", "action": "y", "actor": -1}]})
    augmented = fosg.augment_classical(efg)
    uniform, augmented_uniform = fosg.uniform_profile(efg), fosg.uniform_profile(augmented)
    assert fosg.game_value(efg, uniform) == fosg.game_value(augmented, augmented_uniform) \
        == (0.5, -0.5)
    for player in (1, 2):
        policy, value = best_response(efg, uniform, player)
        augmented_policy, augmented_value = best_response(augmented, augmented_uniform, player)
        assert list(policy.values()) == list(augmented_policy.values())
        assert value == augmented_value
    assert exploitability(efg, uniform) == exploitability(augmented, augmented_uniform)
    assert list(cfr_run(efg, 5).average_profile[1].values()) \
        == list(cfr_run(augmented, 5).average_profile[1].values())


def _assert_response_matches_reference(tree, policies, seeds):
    """Same choices as the node-ordered reference; returns the root value gap."""
    gap = 0.0
    for player in range(1, tree.num_players + 1):
        value, choice, _order = response_values(tree, policies, player, seeds)
        reference, reference_choice = oracles.response_values_reference(
            tree, policies, player, seeds)
        assert choice == reference_choice
        if 0 in seeds:
            gap = max(gap, abs(value - reference[0]))
    return gap


def test_response_values_match_the_node_ordered_reference(kuhn_rep):
    rng = random.Random(23)
    root = {0: (1.0, 1.0, 1.0)}
    reps = [kuhn_rep] + [oracles.zero_sum_random_rep(seed, depth=7) for seed in range(12)] \
        + [oracles.zero_sum_random_rep(seed, depth=8) for seed in range(6)]
    for rep in reps:
        tree = SolverTree(rep)
        leaves = _Leaves.below(rep, tree, Trunk.from_depth(rep, 2))
        for profile in (random_profile(rep, rng), fosg.uniform_profile(rep)):
            policies = tree.policies_from_profile(profile)
            assert _assert_response_matches_reference(tree, policies, root) <= 1e-12
            seeds = leaves.seeds(tree, policies)
            _assert_response_matches_reference(tree, policies, seeds)
            # The boundary values of CFR-D, bit for bit, at every entry.
            boundary = _boundary_values(tree, policies, seeds)
            for player in range(1, tree.num_players + 1):
                reference = oracles.response_values_reference(tree, policies, player, seeds)[0]
                assert [boundary[h][player - 1] for h in seeds] == [reference[h] for h in seeds]
    trees = [nontimeable_with_payoffs(seed) for seed in range(3)]
    for efg in small_perfect_recall_timeable_trees():
        timing, _ = fosg.find_exact_timing(efg)
        trees += [efg, fosg.pad_to_1_timeable(efg, timing)]
    for efg in trees:
        tree = SolverTree(efg)
        policies = tree.policies_from_profile(random_classical_profile(efg, rng))
        assert _assert_response_matches_reference(tree, policies, root) <= 1e-12


def test_walks_deeper_than_the_recursion_limit_raise_depth_exceeded():
    rep = fosg.unroll(chain_spec(1200), depth_bound=5000)
    trunk = Trunk.from_depth(rep, 2)
    for call in (lambda: cfr_run(rep, 2), lambda: cfr_d(rep, trunk, 2, 2),
                 lambda: complete_profile(rep, trunk, {}, 2)):
        with pytest.raises(DepthExceeded, match="1200 levels"):
            call()
    # Best response and the value pass do not recurse.
    assert best_response(rep, {}, 1) == ({}, 0.0)
    assert fosg.game_value(rep, {}) == (0.0,)
    shallow = fosg.unroll(chain_spec(800), depth_bound=5000)
    assert cfr_run(shallow, 2).average_profile == {1: {}}


def test_best_response_requires_perfect_recall_of_the_responder():
    efg = fosg.random_timeable_efg(6, depth=4)
    ok, (player, *_rest) = fosg.check_perfect_recall(efg)
    assert not ok
    profile = fosg.uniform_profile(efg)
    with pytest.raises(ImperfectRecall):
        best_response(efg, profile, player)
    with pytest.raises(ImperfectRecall):
        exploitability(efg, profile)


def test_one_game_compiles_one_solver_tree(monkeypatch):
    built = []

    def counting(game):  # a plain function in the class's place, as the span recorder wraps it
        built.append(game)
        return SolverTree(game)

    monkeypatch.setattr(fosg.cfr, "SolverTree", counting)
    rep = oracles.zero_sum_random_rep(0, depth=7)
    trunk = Trunk.from_depth(rep, 2)
    leaves = trunk.leaves(rep)
    assert len(leaves) == 2
    profile = uniform_profile(rep)
    reach_probabilities(rep, profile)
    expected_values(rep, profile)
    game_value(rep, profile)
    cfr_run(rep, 2, trace_stride=1)
    best_response(rep, profile, 1)
    exploitability(rep, profile)
    cfr_d(rep, trunk, 2, 2, trace_stride=1)
    complete_profile(rep, trunk, {}, 2)
    lp = build_sequence_lp(rep)
    payoff_matrix(rep)
    for key in leaves:
        range_at(rep, profile, key)
    assert built == [rep]
    assert lp.row_sequences is enumerate_sequences(rep, 1)


def test_the_compiled_tree_stays_out_of_the_game_fields(kuhn_spec):
    rep, twin = fosg.unroll(kuhn_spec), fosg.unroll(kuhn_spec)
    tree = solver_tree(rep)
    assert solver_tree(rep) is tree and tree.game is rep
    assert rep == twin and repr(rep) == repr(twin)
    assert solver_tree(dataclasses.replace(rep)) is not tree
    copied = copy.deepcopy(rep)
    carried = vars(copied)["_solver_tree"]
    assert carried is not tree and carried.game is copied and solver_tree(copied) is carried


def test_concurrent_runs_on_one_fresh_game_match_a_sequential_run():
    sequential = cfr_run(oracles.zero_sum_random_rep(3, depth=6), 40)
    rep = oracles.zero_sum_random_rep(3, depth=6)
    assert "_solver_tree" not in vars(rep)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads interleave inside the first tree build
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(cfr_run, rep, 40) for _ in range(2)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert result.regret_table == sequential.regret_table
        assert result.average_profile == sequential.average_profile


def test_observable_rewards_check(kuhn_rep):
    ok, witness = fosg.check_observable_rewards(kuhn_rep)
    assert ok, witness


def test_cfr_runs_on_general_sum_games(kuhn_spec):
    rewards = dict(kuhn_spec.rewards)
    key = next(k for k in rewards if rewards[k] != (0.0, 0.0))
    rewards[key] = (rewards[key][0] + 0.25, rewards[key][1])
    skewed = fosg.GameSpec(
        num_players=2, states=kuhn_spec.states, initial_state=kuhn_spec.initial_state,
        player_fn=kuhn_spec.player_fn, legal_actions=kuhn_spec.legal_actions,
        transitions=kuhn_spec.transitions, rewards=rewards,
        observations=kuhn_spec.observations)
    rep = fosg.unroll(skewed)
    result = cfr_run(rep, 10)
    for per in result.average_profile.values():
        for dist in per.values():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
