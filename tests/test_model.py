"""Model axioms, stepping, chance merging, and serialization."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import fosg
from fosg.errors import IllegalAction, MissingChancePolicy, StepAtTerminal
from fosg.model import (NOOP, expected_utilities, serial_policy, uniform_spec_policy,
                        sample_chance_action)
from fosg.unroll import forget_factorization

import oracles


def test_kuhn_validates_clean(kuhn_spec):
    assert fosg.validate(kuhn_spec) == []


def test_initial_state_with_players_is_flagged(kuhn_spec):
    broken = fosg.GameSpec(
        num_players=kuhn_spec.num_players,
        states=kuhn_spec.states,
        initial_state=kuhn_spec.initial_state,
        player_fn={**kuhn_spec.player_fn, "deal": frozenset({1})},
        legal_actions={**kuhn_spec.legal_actions, ("deal", 1): ("x",)},
        transitions=kuhn_spec.transitions,
        rewards=kuhn_spec.rewards,
        observations=kuhn_spec.observations,
    )
    codes = {v.code for v in fosg.validate(broken)}
    assert "initial-state-active" in codes


def test_missing_observation_is_flagged(kuhn_spec):
    observations = dict(kuhn_spec.observations)
    dropped = next(iter(observations))
    del observations[dropped]
    broken = fosg.GameSpec(
        num_players=kuhn_spec.num_players,
        states=kuhn_spec.states,
        initial_state=kuhn_spec.initial_state,
        player_fn=kuhn_spec.player_fn,
        legal_actions=kuhn_spec.legal_actions,
        transitions=kuhn_spec.transitions,
        rewards=kuhn_spec.rewards,
        observations=observations,
    )
    violations = fosg.validate(broken)
    assert any(v.code == "undefined-observation" for v in violations)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_probability_is_flagged(value):
    # NaN passes both the sign check and the sum check, so it needs its own.
    spec = fosg.games.kuhn_poker_chance_variant()
    assert fosg.validate(spec) == []
    key, dist = next(iter(spec.transitions.items()))
    transitions = {**spec.transitions, key: {**dist, next(iter(dist)): value}}
    state, policy = next(iter(spec.chance_policy.items()))
    chance_policy = {**spec.chance_policy, state: {**policy, next(iter(policy)): value}}
    for broken, where in ((dataclasses.replace(spec, transitions=transitions), key),
                          (dataclasses.replace(spec, chance_policy=chance_policy),
                           (state, None))):
        flagged = [(v.state, v.action) for v in fosg.validate(broken)
                   if v.code == "non-finite-probability"]
        assert flagged == [where]


CHECK = ("JQ:", ("check", NOOP))  # player 1 checks holding J against Q


def with_entry(spec, table, key, value=None):
    """``spec`` with ``key`` of one of its tables set to ``value``, or deleted for None."""
    updated = dict(getattr(spec, table))
    if value is None:
        del updated[key]
    else:
        updated[key] = value
    return dataclasses.replace(spec, **{table: updated})


def _with_deal(spec, **changes):
    """The chance variant with its deal probabilities changed."""
    return with_entry(spec, "chance_policy", "deal", {**spec.chance_policy["deal"], **changes})


# Each case: the fixture to break, one mutation, and the violation code it must raise.
VIOLATIONS = [
    ("kuhn", lambda s: dataclasses.replace(s, initial_state="nowhere"), "unknown-initial-state"),
    ("kuhn", lambda s: with_entry(s, "player_fn", "ghost", frozenset()), "unknown-state"),
    ("kuhn", lambda s: with_entry(s, "player_fn", "deal", frozenset({0})), "chance-without-policy"),
    ("kuhn", lambda s: with_entry(s, "player_fn", "JQ:", frozenset({3})), "unknown-player"),
    ("kuhn", lambda s: with_entry(s, "legal_actions", ("JQ:", 1)), "missing-actions"),
    ("kuhn", lambda s: with_entry(s, "legal_actions", ("JQ:k", 1), ("x",)), "actions-for-inactive"),
    ("kuhn", lambda s: with_entry(s, "legal_actions", ("JQ:", 1), ("check", "check")),
     "duplicate-actions"),
    ("kuhn", lambda s: with_entry(s, "transitions", CHECK, {"nowhere": 1.0}), "unknown-successor"),
    ("kuhn", lambda s: with_entry(s, "transitions", CHECK, {"JQ:k": 1.5, "JQ:b": -0.5}),
     "negative-probability"),
    ("kuhn", lambda s: with_entry(s, "rewards", CHECK), "missing-reward"),
    ("kuhn", lambda s: with_entry(s, "rewards", CHECK, (0.0,)), "bad-reward-length"),
    ("kuhn", lambda s: with_entry(s, "observations", CHECK + ("JQ:k",),
                             fosg.FactoredObservation(("-",), "check")),
     "bad-observation-length"),
    ("kuhn_chance", lambda s: with_entry(s, "chance_policy", "deal"), "missing-chance-policy"),
    ("kuhn_chance", lambda s: _with_deal(s, XX=0.0), "chance-policy-illegal-action"),
    ("kuhn_chance", lambda s: _with_deal(s, JQ=-1 / 6, JK=3 / 6), "negative-probability"),
    ("kuhn_chance", lambda s: with_entry(s, "chance_policy", "JQ:", {"check": 1.0}),
     "chance-policy-inactive"),
]


@pytest.mark.parametrize("fixture, mutate, code", VIOLATIONS,
                         ids=[f"{code}-{fixture}" for fixture, _, code in VIOLATIONS])
def test_validate_reports_each_violation_code(fixture, mutate, code):
    spec = mutate(fosg.catalog()[fixture].build())
    assert code in {v.code for v in fosg.validate(spec)}


def test_validation_failure_through_inspect_exits_2(capsys, tmp_path):
    from fosg.cli import main
    from fosg.io import spec_to_json

    spec = with_entry(fosg.kuhn_poker(), "player_fn", "JQ:", frozenset({3}))
    path = tmp_path / "unknown-player.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    assert main(["inspect", "--game", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown-player: player index 3 out of range (state JQ:)" in captured.err


def test_cycle_is_flagged():
    spec = fosg.GameSpec(
        num_players=1,
        states=("a", "b"),
        initial_state="a",
        player_fn={"a": frozenset(), "b": frozenset()},
        legal_actions={},
        transitions={("a", (NOOP,)): {"b": 1.0}, ("b", (NOOP,)): {"a": 1.0}},
        rewards={("a", (NOOP,)): (0.0,), ("b", (NOOP,)): (0.0,)},
        observations={
            ("a", (NOOP,), "b"): fosg.FactoredObservation(("x",), "x"),
            ("b", (NOOP,), "a"): fosg.FactoredObservation(("y",), "y"),
        },
    )
    assert any(v.code == "cycle" for v in fosg.validate(spec))


def chain_spec(length):
    """A one-player game whose ``length`` playerless states form one line."""
    states = tuple(f"s{i}" for i in range(length))
    steps = list(zip(states, states[1:]))
    return fosg.GameSpec(
        num_players=1,
        states=states,
        initial_state=states[0],
        player_fn={state: frozenset() for state in states},
        legal_actions={},
        transitions={(a, (NOOP,)): {b: 1.0} for a, b in steps},
        rewards={(a, (NOOP,)): (0.0,) for a, _b in steps},
        observations={(a, (NOOP,), b): fosg.FactoredObservation((b,), b) for a, b in steps},
    )


def test_long_chain_exceeds_the_depth_bound_without_recursing():
    assert [v.code for v in fosg.validate(chain_spec(1200))] == ["depth-bound"]
    assert fosg.validate(chain_spec(1200), depth_bound=1199) == []


def test_cycle_below_the_initial_state_is_named():
    spec = chain_spec(5)
    # s4 -> s2 closes the cycle s2 -> s3 -> s4, which s0 and s1 lead into.
    spec = dataclasses.replace(
        spec, transitions={**spec.transitions, ("s4", (NOOP,)): {"s2": 1.0}},
        rewards={**spec.rewards, ("s4", (NOOP,)): (0.0,)},
        observations={**spec.observations,
                      ("s4", (NOOP,), "s2"): fosg.FactoredObservation(("s2",), "s2")})
    violations = fosg.validate(spec)
    assert [v.code for v in violations] == ["cycle"]
    assert violations[0].state in ("s2", "s3", "s4")


def test_step_initial_matching_pennies(pennies_spec):
    rng = random.Random(0)
    nxt, reward, obs = fosg.step(pennies_spec, "start", (NOOP, NOOP), rng)
    assert nxt == "play"
    assert reward == (0.0, 0.0)
    assert obs.public == "begin"


def test_step_kuhn_deal_frequencies(kuhn_spec):
    rng = random.Random(7)
    counts = {}
    noop = (NOOP, NOOP)
    for _ in range(60000):
        nxt, _, _ = fosg.step(kuhn_spec, "deal", noop, rng)
        counts[nxt] = counts.get(nxt, 0) + 1
    assert set(counts) == set(kuhn_spec.transitions[("deal", noop)])
    expected = 60000 / 6
    chi_square = sum((n - expected) ** 2 / expected for n in counts.values())
    assert chi_square < 40.0  # 5 degrees of freedom, far beyond any sane quantile


def test_step_never_leaves_declared_support(kuhn_spec):
    rng = random.Random(3)
    noop = (NOOP, NOOP)
    support = {s for s, p in kuhn_spec.transitions[("deal", noop)].items() if p > 0}
    for _ in range(500):
        nxt, _, _ = fosg.step(kuhn_spec, "deal", noop, rng)
        assert nxt in support


def test_step_at_terminal_raises(kuhn_spec):
    with pytest.raises(StepAtTerminal):
        fosg.step(kuhn_spec, "JQ:kk$", (NOOP, NOOP), random.Random(0))


def test_step_illegal_action_raises(kuhn_spec):
    with pytest.raises(IllegalAction):
        fosg.step(kuhn_spec, "JQ:", ("fold", NOOP), random.Random(0))
    with pytest.raises(IllegalAction):
        fosg.step(kuhn_spec, "JQ:", ("check", "check"), random.Random(0))


# --- chance merging ---


def test_merge_chance_identity_without_chance(kuhn_spec):
    assert fosg.merge_chance(kuhn_spec) is kuhn_spec


def test_merge_chance_variant_equals_base(kuhn_spec):
    variant = fosg.kuhn_poker_chance_variant()
    assert fosg.validate(variant) == []
    merged = fosg.merge_chance(variant)
    assert merged == kuhn_spec


def test_merge_chance_unrolled_trees_agree(kuhn_spec, kuhn_rep):
    merged_rep = fosg.unroll(fosg.merge_chance(fosg.kuhn_poker_chance_variant()))
    assert len(merged_rep.nodes) == len(kuhn_rep.nodes)
    for a, b in zip(merged_rep.nodes, kuhn_rep.nodes):
        assert a.world_state == b.world_state
        assert a.actor == b.actor
        assert a.cumulative_reward == pytest.approx(b.cumulative_reward, abs=1e-12)
        if a.chance_dist is not None:
            assert a.chance_dist == pytest.approx(b.chance_dist, abs=1e-12)


def test_the_chance_variant_reads_as_kuhn_through_every_rewrite(kuhn_spec):
    variant = fosg.kuhn_poker_chance_variant()
    assert fosg.unroll(variant) == fosg.unroll(kuhn_spec)
    assert forget_factorization(variant) == forget_factorization(kuhn_spec)
    assert fosg.serialize(variant) == kuhn_spec
    assert fosg.is_serial(variant)


def test_merge_chance_missing_policy():
    variant = fosg.kuhn_poker_chance_variant()
    broken = fosg.GameSpec(
        num_players=variant.num_players,
        states=variant.states,
        initial_state=variant.initial_state,
        player_fn=variant.player_fn,
        legal_actions=variant.legal_actions,
        transitions=variant.transitions,
        rewards=variant.rewards,
        observations=variant.observations,
        chance_policy={},
    )
    with pytest.raises(MissingChancePolicy):
        fosg.merge_chance(broken)


def test_sample_chance_action_matches_policy():
    variant = fosg.kuhn_poker_chance_variant()
    rng = random.Random(11)
    seen = {sample_chance_action(variant, "deal", rng) for _ in range(2000)}
    assert seen == set(variant.chance_policy["deal"])


# --- serialization ---


def test_serialize_keeps_serial_game(kuhn_spec):
    assert fosg.is_serial(kuhn_spec)
    assert fosg.serialize(kuhn_spec) is kuhn_spec


def test_serialize_matching_pennies_layer_counts(pennies_spec):
    assert not fosg.is_serial(pennies_spec)
    serial = fosg.serialize(pennies_spec)
    assert fosg.is_serial(serial)
    assert fosg.validate(serial) == []
    decision_first = [s for s in serial.states if s == "play"]
    decision_later = [s for s in serial.states if s.startswith("play[2|")]
    resolution = [s for s in serial.states if s.startswith("play[c|")]
    assert len(decision_first) == 1
    assert len(decision_later) == 2
    assert len(resolution) == 4


def test_is_serial_on_terminal_only_game():
    spec = fosg.GameSpec(
        num_players=1, states=("end",), initial_state="end",
        player_fn={"end": frozenset()}, legal_actions={}, transitions={},
        rewards={}, observations={})
    assert fosg.is_serial(spec)
    assert fosg.validate(spec) == []


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_serialize_always_yields_serial(seed):
    spec = fosg.random_fosg(seed, serial=False, depth=3)
    assert fosg.is_serial(fosg.serialize(spec))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_serialize_preserves_expected_utilities(seed):
    spec = fosg.random_fosg(seed, serial=False, depth=3)
    serial = fosg.serialize(spec)
    policy = uniform_spec_policy(spec)
    base = expected_utilities(spec, policy)
    lifted = expected_utilities(serial, serial_policy(policy))
    assert base == pytest.approx(lifted, abs=1e-12)


def test_serialize_preserves_pennies_value_for_random_policies(pennies_spec):
    rng = random.Random(5)
    serial = fosg.serialize(pennies_spec)
    for _ in range(20):
        table = {
            p: {(("o", "-", "begin"),): _random_dist(rng, ("heads", "tails"))}
            for p in (1, 2)
        }
        policy = lambda p, k, table=table: table[p][k]
        base = expected_utilities(pennies_spec, policy)
        lifted = expected_utilities(serial, serial_policy(policy))
        assert base == pytest.approx(lifted, abs=1e-12)


def _random_dist(rng, actions):
    raw = [rng.random() + 1e-3 for _ in actions]
    total = sum(raw)
    return {a: r / total for a, r in zip(actions, raw)}


# --- kuhn value sanity against the enumeration oracle ---


def test_uniform_value_matches_enumeration(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    enumerated = oracles.expected_utility_by_enumeration(kuhn_rep, profile)
    assert fosg.game_value(kuhn_rep, profile) == pytest.approx(enumerated, abs=1e-12)
