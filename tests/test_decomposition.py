"""Public subtrees, ranges, belief-state subgames, and trunk solving."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import fosg
from fosg.cfr import CfrState, SolverTree, expected_values, reach_probabilities
from fosg.decomposition import (PublicBeliefState, Range, Trunk, _Leaves, build_subgame, cfr_d,
                                closed_under_infosets, complete_profile, public_subtree,
                                range_at, subgame_histories, subgame_profile, trivial_pbs)
from fosg.errors import (FosgError, InconsistentPBS, InvalidArgument, OutcomeDependentReward,
                         UnknownPublicState)
from fosg.unroll import TERMINAL_ACTOR

import oracles
from test_cfr import random_profile


def test_public_subtree_root_and_leaf(kuhn_rep):
    root = public_subtree(kuhn_rep, kuhn_rep.public_keys[0])
    assert set(root.public_states) == set(kuhn_rep.public_sets)
    assert root.histories == frozenset(n.id for n in kuhn_rep.nodes)
    terminal_key = kuhn_rep.public_keys[kuhn_rep.terminals()[0].id]
    leaf = public_subtree(kuhn_rep, terminal_key)
    assert leaf.public_states == (terminal_key,)


def test_public_subtree_after_bet(kuhn_rep):
    key = ("dealt", "bet")
    sub = public_subtree(kuhn_rep, key)
    expected = {n.id for n in kuhn_rep.nodes
                if kuhn_rep.public_keys[n.id][:2] == key}
    assert sub.histories == frozenset(expected)
    assert all(k[:2] == key for k in sub.public_states)


def test_public_subtree_unknown_state(kuhn_rep):
    with pytest.raises(UnknownPublicState):
        public_subtree(kuhn_rep, ("nonsense",))


def test_subgame_histories_methods_agree_on_kuhn(kuhn_rep):
    for anchor in range(0, len(kuhn_rep.nodes), 7):
        reference = subgame_histories(kuhn_rep, anchor, "closure")
        assert subgame_histories(kuhn_rep, anchor, "extension") == reference
        assert subgame_histories(kuhn_rep, anchor, "public") == reference
        for player in kuhn_rep.players:
            assert subgame_histories(kuhn_rep, anchor, "infostate", player) == reference
        assert closed_under_infosets(kuhn_rep, reference)


def test_subgame_histories_anchor_root_is_everything(kuhn_rep):
    everything = frozenset(n.id for n in kuhn_rep.nodes)
    for method in ("closure", "extension", "infostate", "public"):
        assert subgame_histories(kuhn_rep, 0, method) == everything


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_subgame_histories_methods_agree_on_random_games(seed):
    rep = fosg.unroll(fosg.random_fosg(seed, depth=4))
    for anchor in range(0, len(rep.nodes), max(1, len(rep.nodes) // 12)):
        reference = subgame_histories(rep, anchor, "closure")
        assert subgame_histories(rep, anchor, "extension") == reference
        assert subgame_histories(rep, anchor, "public") == reference
        for player in rep.players:
            assert subgame_histories(rep, anchor, "infostate", player) == reference
        assert closed_under_infosets(rep, reference)


# --- ranges ---


def test_subgame_histories_rejects_unknown_method_with_invalid_argument(kuhn_rep):
    with pytest.raises(InvalidArgument, match="unknown method 'bogus'"):
        subgame_histories(kuhn_rep, 0, "bogus")


def test_range_at_root_is_point_mass(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    rng = range_at(kuhn_rep, profile, kuhn_rep.public_keys[0])
    for p in kuhn_rep.players:
        assert rng.player_mass[p] == {(): 1.0}
    assert rng.chance_mass == {0: 1.0}


def test_range_after_deal_chance_thirds(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    rng = range_at(kuhn_rep, profile, ("dealt",))
    for p in kuhn_rep.players:
        masses = sorted(rng.chance_mass_for(kuhn_rep, p, key)
                        for key in rng.player_mass[p])
        assert masses == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert len(rng.player_mass[p]) == 3


def test_range_normalization_and_fallback(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    never_bet = {key: {a: 1.0 if a == "check" else 0.0 for a in dist}
                 for key, dist in profile[1].items() if "bet" in dist}
    for key, dist in profile[1].items():
        never_bet.setdefault(key, dist)
    skewed = {1: never_bet, 2: profile[2]}
    rng = range_at(kuhn_rep, skewed, ("dealt", "bet"))
    normalized = rng.normalize()
    assert normalized.fallback_uniform[1] is True
    assert sum(normalized.player_mass[1].values()) == pytest.approx(1.0)
    assert sum(normalized.player_mass[2].values()) == pytest.approx(1.0)
    for value in normalized.player_mass[1].values():
        assert value == pytest.approx(1 / 3)


def test_range_normalized_sums_to_one(kuhn_rep):
    rng_source = random.Random(6)
    profile = random_profile(kuhn_rep, rng_source)
    rng = range_at(kuhn_rep, profile, ("dealt", "check")).normalize()
    for p in kuhn_rep.players:
        assert sum(rng.player_mass[p].values()) == pytest.approx(1.0, abs=1e-12)


# --- materialized subgames ---


def test_trivial_pbs_subgame_is_equivalent(kuhn_rep):
    rng_source = random.Random(8)
    sub = build_subgame(kuhn_rep, trivial_pbs(kuhn_rep))
    assert fosg.validate(sub) == []
    sub_rep = fosg.unroll(sub)
    for _ in range(5):
        profile = random_profile(kuhn_rep, rng_source)
        transferred = subgame_profile(kuhn_rep, sub_rep, profile)
        assert fosg.game_value(sub_rep, transferred) == pytest.approx(
            fosg.game_value(kuhn_rep, profile), abs=1e-12)


def test_post_deal_subgame_initial_distribution(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    rng = range_at(kuhn_rep, profile, ("dealt",))
    pbs = PublicBeliefState(public_state=("dealt",), range=rng)
    sub = build_subgame(kuhn_rep, pbs)
    init = sub.transitions[("init", ("noop", "noop"))]
    assert sum(init.values()) == pytest.approx(1.0, abs=1e-12)
    reach = reach_probabilities(kuhn_rep, profile)
    members = kuhn_rep.public_sets[("dealt",)]
    total = sum(reach.joint(m) for m in members)
    for m in members:
        assert init[f"aux{m}"] == pytest.approx(reach.joint(m) / total, abs=1e-12)


def test_post_deal_subgame_terminals_match(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    pbs = PublicBeliefState(public_state=("dealt",),
                            range=range_at(kuhn_rep, profile, ("dealt",)))
    sub_rep = fosg.unroll(build_subgame(kuhn_rep, pbs))
    by_state = {z.world_state: z.cumulative_reward for z in sub_rep.terminals()}
    for z in kuhn_rep.terminals():
        assert by_state[f"sg{z.id}"] == pytest.approx(z.cumulative_reward, abs=1e-12)


def test_zero_mass_pbs_rejected(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    rng = range_at(kuhn_rep, profile, ("dealt",))
    dead = Range(public_state=rng.public_state,
                 player_mass={p: {k: 0.0 for k in v} for p, v in rng.player_mass.items()},
                 chance_mass={h: 0.0 for h in rng.chance_mass},
                 history_player_reach={h: tuple(0.0 for _ in kuhn_rep.players)
                                       for h in rng.history_player_reach})
    with pytest.raises(InconsistentPBS):
        build_subgame(kuhn_rep, PublicBeliefState(public_state=rng.public_state, range=dead))


def test_chance_outcome_dependent_rewards_are_rejected():
    # Padded and augmented random trees put utilities on the edges into
    # leaves, so a chance node can pay different rewards per outcome. A
    # tabular transition pays one reward, so neither the lifted game nor the
    # subgame can express it.
    for seed in (0, 2, 3, 4, 7):
        efg = fosg.random_timeable_efg(seed, depth=4)
        timing, _ = fosg.find_exact_timing(efg)
        rep = fosg.augment_classical(fosg.pad_to_1_timeable(efg, timing))
        with pytest.raises(OutcomeDependentReward):
            fosg.lift_to_fosg(rep)
        with pytest.raises(OutcomeDependentReward):
            build_subgame(rep, trivial_pbs(rep))


def test_mismatched_pbs_rejected(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    rng = range_at(kuhn_rep, profile, ("dealt",))
    with pytest.raises(InconsistentPBS):
        PublicBeliefState(public_state=("dealt", "bet"), range=rng)


def test_subgame_counterfactual_values_match_full_game(kuhn_rep):
    # Root-anchored subgame with the range substitution reproduces the full
    # game's counterfactual values at every acting infostate.
    rng_source = random.Random(12)
    profile = random_profile(kuhn_rep, rng_source)
    sub = build_subgame(kuhn_rep, trivial_pbs(kuhn_rep))
    sub_rep = fosg.unroll(sub)
    transferred = subgame_profile(kuhn_rep, sub_rep, profile)

    full_reach = reach_probabilities(kuhn_rep, profile)
    full_values = expected_values(kuhn_rep, profile, reach=full_reach)

    # Range substitution: seed the subgame entry with the root range (all ones)
    # instead of the chance-absorbed initial transition.
    entry = [n.id for n in sub_rep.nodes
             if n.world_state is not None and n.world_state.startswith("sg")][0]
    seeds = {entry: (1.0,) * (len(sub_rep.players) + 1)}
    sub_reach = reach_probabilities(sub_rep, transferred, seeds=seeds)
    sub_values = expected_values(sub_rep, transferred, reach=sub_reach)

    key_map = {}
    for node in sub_rep.nodes:
        w = node.world_state
        if w is None or not w.startswith("sg"):
            continue
        orig = int(w[2:])
        for p in sub_rep.players:
            if kuhn_rep.nodes[orig].actor == p:
                key_map[(p, sub_rep.infostate_keys[p][node.id])] = \
                    (p, kuhn_rep.infostate_keys[p][orig])
    checked = 0
    for (p, sub_key), (_, full_key) in key_map.items():
        if sub_key in sub_values.infoset_cf_value[p]:
            assert sub_values.infoset_cf_value[p][sub_key] == pytest.approx(
                full_values.infoset_cf_value[p][full_key], abs=1e-10)
            checked += 1
    assert checked == 12


def test_subgames_give_the_conditional_value_on_random_games():
    # At every non-terminal public state with positive mass, the materialized
    # subgame's value is the full game's value conditioned on reaching it.
    rng = random.Random(31)
    checked = 0
    for rep in _random_zero_sum_reps():
        profile = random_profile(rep, rng)
        values = expected_values(rep, profile).node_value
        reach = reach_probabilities(rep, profile)
        for key, members in rep.public_sets.items():
            mass = sum(reach.joint(m) for m in members)
            if all(rep.nodes[m].actor == TERMINAL_ACTOR for m in members) or mass <= 0.0:
                continue
            conditional = [sum(reach.joint(m) * (rep.nodes[m].cumulative_reward[i] + values[m][i])
                               for m in members) / mass for i in range(rep.num_players)]
            pbs = PublicBeliefState(public_state=key, range=range_at(rep, profile, key))
            sub_rep = fosg.unroll(build_subgame(rep, pbs))
            value = fosg.game_value(sub_rep, subgame_profile(rep, sub_rep, profile))
            assert value == pytest.approx(conditional, abs=1e-12)
            checked += 1
    assert checked > 300


# --- trunks and the decomposition solver ---


def test_trunk_leaves_partition_public_states(kuhn_rep):
    trunk = Trunk.from_depth(kuhn_rep, 2)
    trunk.validate(kuhn_rep)
    leaves = trunk.leaves(kuhn_rep)
    covered = {}
    for key in kuhn_rep.public_sets:
        owners = [leaf for leaf in leaves if key[:len(leaf)] == leaf]
        if key in trunk.keys:
            assert not owners
            covered[key] = "trunk"
        else:
            assert len(owners) == 1
            covered[key] = owners[0]
    assert set(covered) == set(kuhn_rep.public_sets)


def test_trunk_validation_rejects_non_closed(kuhn_rep):
    with pytest.raises(ValueError):
        Trunk(keys=frozenset({kuhn_rep.public_keys[0], ("dealt", "bet")})).validate(kuhn_rep)


def test_solvers_reject_bad_arguments_with_invalid_argument(kuhn_rep):
    trunk = Trunk.from_depth(kuhn_rep, 2)
    calls = [
        lambda: fosg.cfr_run(kuhn_rep, 0),
        lambda: fosg.cfr_run(kuhn_rep, 5, mode="sideways"),
        lambda: cfr_d(kuhn_rep, trunk, 0, subgame_budget=5),
        lambda: cfr_d(kuhn_rep, trunk, 5, subgame_budget=0),
        lambda: fosg.cfr_run(kuhn_rep, 5, trace_stride=-1),
        lambda: cfr_d(kuhn_rep, trunk, 5, subgame_budget=5, trace_stride=-1),
        lambda: complete_profile(kuhn_rep, trunk, fosg.uniform_profile(kuhn_rep), 0),
        lambda: Trunk.from_depth(kuhn_rep, 0),
        lambda: Trunk(keys=frozenset({("dealt",)})).validate(kuhn_rep),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument) as raised:
            call()
        assert isinstance(raised.value, FosgError) and isinstance(raised.value, ValueError)


def test_cfrd_whole_tree_matches_cfr_exactly(kuhn_rep):
    whole = Trunk(keys=frozenset(kuhn_rep.public_sets))
    plain = fosg.cfr_run(kuhn_rep, 60, record_policies=True)
    decomposed = cfr_d(kuhn_rep, whole, 60, subgame_budget=1, record_policies=True)
    for step_a, step_b in zip(plain.policies, decomposed.policies):
        for player in (1, 2):
            for key, dist in step_a[player].items():
                for action, prob in dist.items():
                    assert abs(prob - step_b[player][key][action]) <= 1e-12


def _random_zero_sum_reps():
    return [oracles.zero_sum_random_rep(seed, depth=depth) for depth in (4, 5)
            for seed in range(10)]


def test_cfrd_whole_tree_matches_cfr_exactly_on_random_games():
    for rep in _random_zero_sum_reps():
        whole = Trunk(keys=frozenset(rep.public_sets))
        plain = fosg.cfr_run(rep, 30, record_policies=True)
        decomposed = cfr_d(rep, whole, 30, subgame_budget=1, record_policies=True)
        assert decomposed.policies == plain.policies


def test_cfrd_at_trunk_depth_2_approaches_equilibrium_on_random_games():
    for rep in _random_zero_sum_reps():
        out = cfr_d(rep, Trunk.from_depth(rep, 2), 50, subgame_budget=50)
        assert fosg.exploitability(rep, out.completed_profile) <= 0.1


def test_cfrd_entry_seeds_match_path_products(kuhn_rep):
    rng = random.Random(17)
    for rep in [kuhn_rep] + [oracles.zero_sum_random_rep(seed) for seed in (1, 2)]:
        tree = SolverTree(rep)
        profile = random_profile(rep, rng)
        leaves = _Leaves.below(rep, tree, Trunk.from_depth(rep, 2))
        seeds = leaves.seeds(tree, tree.policies_from_profile(profile))
        assert seeds and set(seeds) == leaves.entry_set
        for h, reach in seeds.items():
            chance, own = reach[0], reach[1:]
            expected_chance, expected_own = oracles.reach_by_path(rep, profile, h)
            assert chance == pytest.approx(expected_chance, abs=1e-15)
            assert own == pytest.approx(expected_own, abs=1e-15)


def test_one_forest_solve_equals_a_solve_per_leaf(kuhn_rep):
    # Leaves share no node and no infoset, so walking all of them with one
    # regret state changes no bit of any leaf's regrets or strategy sums.
    rng = random.Random(5)
    for rep in [kuhn_rep, oracles.zero_sum_random_rep(1)]:
        tree = SolverTree(rep)
        leaves = _Leaves.below(rep, tree, Trunk.from_depth(rep, 2))
        seeds = leaves.seeds(tree, tree.policies_from_profile(random_profile(rep, rng)))
        forest = leaves.solve(tree, seeds, 7)
        for key in leaves.keys:
            isets = [idx for idx in leaves.isets
                     if rep.public_keys[tree.isets[idx].members[0]][:len(key)] == key]
            alone = CfrState(tree)
            for _ in range(7):
                alone.refresh_policies(indices=isets)
                for h in rep.public_sets[key]:
                    alone.walk(h, list(seeds[h]))
            for idx in isets:
                assert alone.regrets[idx] == forest.regrets[idx]
                assert alone.strategy_sum[idx] == forest.strategy_sum[idx]


def test_cfrd_average_is_arithmetic_mean(kuhn_rep):
    trunk = Trunk.from_depth(kuhn_rep, 2)
    iterations = 12
    out = cfr_d(kuhn_rep, trunk, iterations, subgame_budget=5, record_policies=True)
    # Recompute: mean over the policies *after* each update, which are the
    # recorded sequence shifted by one plus the final state.
    follow = cfr_d(kuhn_rep, trunk, iterations + 1, subgame_budget=5,
                   record_policies=True)
    recorded = follow.policies[1:iterations + 1]
    for key, dist in out.average_profile[1].items():
        for action, prob in dist.items():
            mean = sum(step[1][key][action] for step in recorded) / iterations
            assert prob == pytest.approx(mean, abs=1e-12)


def test_cfrd_converges_small(kuhn_rep):
    trunk = Trunk.from_depth(kuhn_rep, 2)
    out = cfr_d(kuhn_rep, trunk, 150, subgame_budget=150)
    assert fosg.exploitability(kuhn_rep, out.completed_profile) <= 0.05


def test_complete_profile_covers_all_acting_infosets(kuhn_rep):
    trunk = Trunk.from_depth(kuhn_rep, 2)
    out = cfr_d(kuhn_rep, trunk, 30, subgame_budget=30)
    resolved = complete_profile(kuhn_rep, trunk, out.average_profile, 30)
    for player in kuhn_rep.players:
        assert set(resolved[player]) == set(kuhn_rep.acting_infosets(player))
    fosg.exploitability(kuhn_rep, resolved)  # well-formed profile


def test_cfrd_trace_schema(kuhn_rep):
    trunk = Trunk.from_depth(kuhn_rep, 2)
    out = cfr_d(kuhn_rep, trunk, 20, subgame_budget=10, trace_stride=10)
    assert [p.iteration for p in out.trace] == [10, 20]
    assert out.trace[-1].exploitability >= 0.0


def test_subgame_keeps_zero_mass_branches(kuhn_rep):
    # A range that excludes most deals must not shrink the subgame's shape.
    profile = fosg.uniform_profile(kuhn_rep)
    only_k_bets = {
        key: ({a: (1.0 if a == "bet" else 0.0) for a in dist}
              if key[0][1] == "K" and "bet" in dist
              else {a: (1.0 if a == "check" else 0.0) for a in dist}
              if "bet" in dist else dist)
        for key, dist in profile[1].items()
    }
    skewed = {1: only_k_bets, 2: profile[2]}
    rng = range_at(kuhn_rep, skewed, ("dealt", "bet"))
    sub = build_subgame(kuhn_rep, PublicBeliefState(public_state=("dealt", "bet"), range=rng))
    sub_rep = fosg.unroll(sub)
    aux_nodes = [n for n in sub_rep.nodes if n.world_state.startswith("aux")]
    assert len(aux_nodes) == len(kuhn_rep.public_sets[("dealt", "bet")]) == 6
    zero_mass = [n for n in aux_nodes
                 if sub.transitions[("init", ("noop", "noop"))][n.world_state] == 0.0]
    assert len(zero_mass) == 4


def _range_from_reach_table(rep, profile, public_state) -> Range:
    """``range_at`` read off the full reach table of the uniformly padded profile."""
    padded = {p: {} for p in rep.players}
    for p in rep.players:
        for key in rep.acting_infosets(p):
            given = profile.get(p, {}).get(key)
            if given is None:
                actions = rep.infoset_actions(p, key)
                given = {a: 1.0 / len(actions) for a in actions}
            padded[p][key] = given
    reach = reach_probabilities(rep, padded)
    members = rep.public_sets[public_state]
    player_mass = {}
    for p in rep.players:
        per = player_mass[p] = {}
        for m in members:
            key = rep.infostate_keys[p][m]
            per[key] = per.get(key, 0.0) + reach.player[p][m]
    return Range(public_state=public_state, player_mass=player_mass,
                 chance_mass={m: reach.chance[m] for m in members},
                 history_player_reach={m: tuple(reach.player[p][m] for p in rep.players)
                                       for m in members})


def _strictly_above(rep, player, infostate, public_state) -> bool:
    pub = rep.public_keys[rep.infosets[player][infostate][0]]
    return len(pub) < len(public_state) and public_state[:len(pub)] == pub


def test_range_at_equals_the_slice_of_the_full_reach_table():
    rng = random.Random(17)
    checked = 0
    for seed in range(8):
        rep = fosg.unroll(fosg.random_fosg(seed, depth=5))
        full = random_profile(rep, rng)
        for key in rep.public_sets:
            # Keep every policy above the slice and about half of the others.
            profile = {p: {k: v for k, v in per.items()
                           if rng.random() < 0.5 or _strictly_above(rep, p, k, key)}
                       for p, per in full.items()}
            assert range_at(rep, profile, key) == _range_from_reach_table(rep, profile, key)
            checked += 1
    assert checked > 200


def test_range_at_accepts_trunk_only_profile(kuhn_rep):
    from fosg.errors import MissingPolicy

    full = fosg.uniform_profile(kuhn_rep)
    trunk_only = {1: {k: v for k, v in full[1].items() if len(k) == 1}, 2: {}}
    rng = range_at(kuhn_rep, trunk_only, ("dealt", "bet"))
    assert sum(rng.chance_mass.values()) == pytest.approx(1.0)
    with pytest.raises(MissingPolicy):
        range_at(kuhn_rep, {1: {}, 2: {}}, ("dealt", "bet"))
