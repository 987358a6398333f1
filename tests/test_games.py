"""Fixture metadata re-derived at test time and generator determinism."""

import pytest
from hypothesis import given, settings, strategies as st

import fosg

import oracles


def test_kuhn_metadata(kuhn_spec, kuhn_rep):
    assert fosg.validate(kuhn_spec) == []
    assert len(kuhn_rep.terminals()) == oracles.kuhn_terminal_count()
    counts = oracles.kuhn_infoset_count()
    for player in (1, 2):
        assert len(kuhn_rep.acting_infosets(player)) == counts[player]


def test_kuhn_public_tree_shape(kuhn_rep):
    keys = set(kuhn_rep.public_sets)
    assert () in keys
    assert ("dealt",) in keys
    assert {k[1] for k in keys if len(k) == 2} == {"check", "bet"}
    # Betting branches continue below both of the depth-two nodes.
    assert any(k[:2] == ("dealt", "check") and len(k) > 2 for k in keys)
    assert any(k[:2] == ("dealt", "bet") and len(k) > 2 for k in keys)


def test_kuhn_rewards_are_observable(kuhn_rep):
    ok, witness = fosg.check_observable_rewards(kuhn_rep)
    assert ok, witness


def test_kuhn_is_zero_sum(kuhn_rep):
    for z in kuhn_rep.terminals():
        assert sum(z.cumulative_reward) == pytest.approx(0.0, abs=1e-12)


def test_pennies_metadata(pennies_spec, pennies_rep):
    assert fosg.validate(pennies_spec) == []
    assert not fosg.is_serial(pennies_spec)
    assert fosg.is_serial(fosg.serialize(pennies_spec))
    assert fosg.exploitability(pennies_rep, fosg.uniform_profile(pennies_rep)) == \
        pytest.approx(0.0, abs=1e-12)


def test_pennies_lp_value_zero(pennies_rep):
    from fosg.sequence_form import build_sequence_lp, solve_zero_sum_lp

    solution = solve_zero_sum_lp(build_sequence_lp(pennies_rep))
    assert solution.game_value == pytest.approx(0.0, abs=1e-9)


def test_chance_variant_metadata():
    variant = fosg.kuhn_poker_chance_variant()
    assert fosg.validate(variant) == []
    assert variant.has_chance_actor
    merged = fosg.merge_chance(variant)
    assert merged == fosg.kuhn_poker()


def test_nontimeable_fixture_shape():
    efg = fosg.nontimeable_fixture()
    timing, witness = fosg.find_exact_timing(efg)
    assert timing is None
    assert fosg.verify_witness(efg, witness)
    assert fosg.check_perfect_recall(efg)[0]


def test_padding_chain_requires_two():
    with pytest.raises(ValueError):
        fosg.padding_chain(1)


def test_padding_chain_metadata():
    chain, timing = fosg.padding_chain(4)
    assert fosg.validate_timing(chain, timing) == []
    assert len(chain.nodes) == 4 * 4 + 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_fosg_deterministic_and_valid(seed):
    first = fosg.random_fosg(seed)
    second = fosg.random_fosg(seed)
    assert first == second
    assert fosg.validate(first) == []


def test_random_fosg_distinct_across_seeds():
    assert fosg.random_fosg(0) != fosg.random_fosg(1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000),
       depth=st.integers(min_value=2, max_value=5))
def test_random_fosg_tree_height(seed, depth):
    rep = fosg.unroll(fosg.random_fosg(seed, depth=depth))
    assert max(n.depth for n in rep.nodes) == depth
    for n in rep.nodes:
        if n.actor == -1:
            assert n.depth == depth


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_timeable_efg_deterministic(seed):
    assert oracles.same_classical(fosg.random_timeable_efg(seed), fosg.random_timeable_efg(seed))


def test_fixtures_export_to_json(kuhn_spec, pennies_spec, kuhn_efg):
    from fosg.io import efg_from_json, efg_to_json, spec_from_json, spec_to_json

    for spec in (kuhn_spec, pennies_spec, fosg.kuhn_poker_chance_variant()):
        doc = spec_to_json(spec)
        assert spec_from_json(doc) == spec
    doc = efg_to_json(kuhn_efg)
    assert len(efg_from_json(doc).nodes) == len(kuhn_efg.nodes)


def test_spec_loader_rejects_bad_distributions(kuhn_spec):
    from fosg.io import spec_from_json, spec_to_json

    doc = spec_to_json(kuhn_spec)
    for entry in doc["transitions"]:
        if entry["from"] == "deal":
            entry["prob"] = entry["prob"] * 1.001
    with pytest.raises(ValueError):
        spec_from_json(doc)
