"""Unrolling, partitions, forgetting maps, lifting, and augmentation."""

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import fosg
from fosg.cfr import SolverTree
from fosg.errors import (DepthExceeded, ImperfectRecall, InvalidArgument, NotSerial,
                         ThickPublicSets)
from fosg.model import NOOP, public_projection
from fosg.unroll import (ClassicalEFG, EfgNode, ExtensiveFormRep, HistoryNode, posg_policy,
                         reps_isomorphic, same_classical, thick_public_set_witness)

import oracles


def test_kuhn_counts(kuhn_rep):
    assert len(kuhn_rep.terminals()) == oracles.kuhn_terminal_count()
    expected = oracles.kuhn_infoset_count()
    for player in (1, 2):
        assert len(kuhn_rep.acting_infosets(player)) == expected[player]


def test_kuhn_utilities_are_cumulative_rewards(kuhn_rep):
    for z in kuhn_rep.terminals():
        assert kuhn_rep.utility(z.id) == z.cumulative_reward
        assert len(z.cumulative_reward) == kuhn_rep.num_players


def test_kuhn_terminal_payoffs_match_settlement(kuhn_rep):
    for z in kuhn_rep.terminals():
        deal, line = z.world_state.rstrip("$").split(":")
        expected = oracles.kuhn_settlement(deal[0], deal[1], line)
        assert z.cumulative_reward[0] == pytest.approx(expected)
        assert z.cumulative_reward[1] == pytest.approx(-expected)


def test_unroll_requires_serial(pennies_spec):
    with pytest.raises(NotSerial):
        fosg.unroll(pennies_spec)


def test_unroll_depth_exceeded():
    spec = fosg.GameSpec(
        num_players=1, states=("a", "b"), initial_state="a",
        player_fn={"a": frozenset(), "b": frozenset()},
        legal_actions={},
        transitions={("a", (NOOP,)): {"b": 1.0}, ("b", (NOOP,)): {"a": 1.0}},
        rewards={("a", (NOOP,)): (0.0,), ("b", (NOOP,)): (0.0,)},
        observations={
            ("a", (NOOP,), "b"): fosg.FactoredObservation(("x",), "x"),
            ("b", (NOOP,), "a"): fosg.FactoredObservation(("y",), "y"),
        })
    with pytest.raises(DepthExceeded):
        fosg.unroll(spec, depth_bound=16)


# --- the step-table unroller against the per-node reference ---


def _ordered(value):
    """``value`` with every dict turned into its item list, so order counts."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_ordered(v) for v in value]
    return value


def _assert_same_rep(got, expected):
    assert got.num_players == expected.num_players
    assert len(got.nodes) == len(expected.nodes)
    fields = [f.name for f in dataclasses.fields(HistoryNode)]
    for a, b in zip(got.nodes, expected.nodes):
        for name in fields:
            va, vb = getattr(a, name), getattr(b, name)
            assert type(va) is type(vb) and _ordered(va) == _ordered(vb), (a.id, name)
    for name in ("infostate_keys", "infosets", "public_keys", "public_sets"):
        assert _ordered(getattr(got, name)) == _ordered(getattr(expected, name)), name


def _reference_spec(name):
    """A catalog spec by name, or ``random-d<depth>-s<seed>`` / ``simultaneous-...``."""
    catalog = fosg.games.catalog()
    if name in catalog:
        return catalog[name].build()
    kind, depth, seed = name.split("-")
    return fosg.random_fosg(int(seed[1:]), depth=int(depth[1:]), serial=kind == "random")


# The catalog specs (one with an explicit chance actor, one simultaneous),
# serial random games at depths 2-9, and simultaneous random games.
CATALOG_SPECS = ["kuhn", "kuhn_chance", "matching_pennies"]
SIMULTANEOUS_SPECS = [f"simultaneous-d4-s{seed}" for seed in range(3)]
REFERENCE_SPECS = (CATALOG_SPECS + [f"random-d{depth}-s{seed}"
                                    for depth in range(2, 10) for seed in range(3)]
                   + SIMULTANEOUS_SPECS)


@pytest.mark.parametrize("name", REFERENCE_SPECS)
def test_unroll_matches_the_per_node_reference(name):
    serial = fosg.serialize(_reference_spec(name))
    expected = oracles.unroll_reference(serial)
    got = fosg.unroll(serial)
    _assert_same_rep(got, expected)
    # One key tuple per cell, shared by all of its members.
    for key, members in got.public_sets.items():
        assert all(got.public_keys[m] is key for m in members)
    for player, cells in got.infosets.items():
        for key, members in cells.items():
            assert all(got.infostate_keys[player][m] is key for m in members)


@pytest.mark.parametrize("name", CATALOG_SPECS + ["random-d5-s0", "random-d9-s1"]
                         + SIMULTANEOUS_SPECS)
def test_forget_nonacting_matches_the_reference(name):
    serial = fosg.serialize(_reference_spec(name))
    got = fosg.forget_nonacting(fosg.unroll(serial))
    expected = oracles.forget_nonacting_reference(oracles.unroll_reference(serial))
    assert same_classical(got, expected)
    assert [n.name for n in got.nodes] == [n.name for n in expected.nodes]
    assert _ordered(got.infosets) == _ordered(expected.infosets)


def test_unroll_raises_depth_exceeded_like_the_reference():
    spec = fosg.serialize(fosg.random_fosg(1, depth=6))
    for bound in range(6):
        with pytest.raises(DepthExceeded) as expected:
            oracles.unroll_reference(spec, depth_bound=bound)
        with pytest.raises(DepthExceeded) as got:
            fosg.unroll(spec, depth_bound=bound)
        assert str(got.value) == str(expected.value)
    _assert_same_rep(fosg.unroll(spec, depth_bound=6), oracles.unroll_reference(spec, 6))


def test_unroll_raises_lookup_errors_like_the_reference(kuhn_spec):
    for table in ("rewards", "observations"):
        entries = dict(getattr(kuhn_spec, table))
        del entries[list(entries)[len(entries) // 2]]
        broken = dataclasses.replace(kuhn_spec, **{table: entries})
        with pytest.raises(KeyError) as expected:
            oracles.unroll_reference(broken)
        with pytest.raises(KeyError) as got:
            fosg.unroll(broken)
        assert got.value.args == expected.value.args


def _two_branch_spec(y_actor, y_actions):
    """Chance picks x (player 1 moves) or y; player 1 sees the same symbol either way."""
    noop2 = (NOOP, NOOP)
    player_fn = {"c": frozenset(), "x": frozenset({1}), "y": frozenset(y_actor), "t": frozenset()}
    legal = {("x", 1): ("a",)}
    transitions = {("c", noop2): {"x": 0.5, "y": 0.5}}
    if y_actor:
        legal[("y", 1)] = y_actions
        joints = [(a, NOOP) for a in y_actions]
    else:
        joints = [noop2]
    for state, state_joints in (("x", [("a", NOOP)]), ("y", joints)):
        for joint in state_joints:
            transitions[(state, joint)] = {"t": 1.0}
    rewards = {key: (0.0, 0.0) for key in transitions}
    observations = {
        (state, joint, succ): fosg.FactoredObservation(("same", succ), "pub")
        for (state, joint), dist in transitions.items() for succ in dist}
    return fosg.GameSpec(num_players=2, states=("c", "x", "y", "t"), initial_state="c",
                         player_fn=player_fn, legal_actions=legal, transitions=transitions,
                         rewards=rewards, observations=observations)


@pytest.mark.parametrize("y_actor, y_actions, message", [
    ((), (), "mixes acting and non-acting nodes"),
    ((1,), ("a", "b"), "mixes legal action sets"),
])
def test_unroll_rejects_inhomogeneous_infosets_like_the_reference(y_actor, y_actions, message):
    spec = _two_branch_spec(y_actor, y_actions)
    with pytest.raises(ValueError, match=message) as expected:
        oracles.unroll_reference(spec)
    with pytest.raises(ValueError) as got:
        fosg.unroll(spec)
    assert str(got.value) == str(expected.value)


def test_unroll_memory_per_node():
    spec = fosg.serialize(fosg.random_fosg(2, depth=10))
    tracemalloc.start()
    try:
        rep = fosg.unroll(spec)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 950 * len(rep.nodes)


def test_nodes_take_no_ad_hoc_attributes(kuhn_rep, kuhn_efg):
    for node in (kuhn_rep.root, kuhn_efg.root):
        with pytest.raises(AttributeError):
            node.note = "x"


def test_infosets_refine_public_partition(kuhn_rep):
    for player in kuhn_rep.players:
        for members in kuhn_rep.infosets[player].values():
            assert len({kuhn_rep.public_keys[m] for m in members}) == 1


def test_projection_compatibility(kuhn_rep):
    for node in kuhn_rep.nodes:
        for player in kuhn_rep.players:
            key = kuhn_rep.infostate_keys[player][node.id]
            assert public_projection(key) == kuhn_rep.public_keys[node.id]


def test_infoset_tree_extension_property(kuhn_rep):
    # Every realized prefix of an infostate is the infostate of an ancestor.
    for node in kuhn_rep.nodes:
        ancestor = node
        while ancestor.parent is not None:
            ancestor = kuhn_rep.nodes[ancestor.parent]
            for player in kuhn_rep.players:
                anc_key = kuhn_rep.infostate_keys[player][ancestor.id]
                key = kuhn_rep.infostate_keys[player][node.id]
                assert key[:len(anc_key)] == anc_key


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_serial_unrolls_are_well_behaved(seed):
    rep = fosg.unroll(fosg.random_fosg(seed))
    ok, witness = fosg.check_perfect_recall(rep)
    assert ok, witness
    assert not fosg.has_thick_public_sets(rep)


def test_check_perfect_recall_counterexample(kuhn_rep):
    # Force two nodes with different own-action prefixes into one cell.
    rep = fosg.unroll(fosg.kuhn_poker())
    target = None
    for node in rep.nodes:
        if node.actor == 1 and node.depth > 1:
            target = node
            break
    key_root = rep.infostate_keys[1][0]
    broken_keys = list(rep.infostate_keys[1])
    broken_keys[target.id] = key_root
    cells = {}
    for nid, key in enumerate(broken_keys):
        cells.setdefault(key, []).append(nid)
    rep.infostate_keys[1] = broken_keys
    rep.infosets[1] = {k: tuple(v) for k, v in cells.items()}
    ok, witness = fosg.check_perfect_recall(rep)
    assert not ok
    assert witness[0] == 1
    assert {witness[2], witness[3]} <= set(rep.infosets[1][witness[1]])


def test_singleton_partitions_have_perfect_recall(kuhn_rep):
    rep = fosg.unroll(fosg.kuhn_poker())
    for player in rep.players:
        rep.infostate_keys[player] = [("solo", n.id) for n in rep.nodes]
        rep.infosets[player] = {("solo", n.id): (n.id,) for n in rep.nodes}
    assert fosg.check_perfect_recall(rep)[0]


def _moved_into_another_cell(seed: int) -> ExtensiveFormRep:
    """An unrolled random game with one node moved into another cell of one player."""
    rep = fosg.unroll(fosg.random_fosg(seed, depth=5))
    rng = random.Random(seed)
    player = 1 + seed % 2
    keys = list(rep.infostate_keys[player])
    nid = rng.randrange(1, len(keys))
    keys[nid] = rng.choice([k for k in rep.infosets[player] if k != keys[nid]])
    cells = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    return dataclasses.replace(
        rep, infostate_keys={**rep.infostate_keys, player: keys},
        infosets={**rep.infosets, player: {k: tuple(v) for k, v in cells.items()}})


def _recall_corpus():
    for depth in (3, 4, 5, 6):
        for seed in range(40):
            efg = fosg.random_timeable_efg(seed, depth=depth)
            padded = fosg.pad_to_1_timeable(efg, fosg.find_exact_timing(efg)[0])
            yield efg
            yield padded
            if oracles.check_perfect_recall_reference(padded)[0]:
                yield fosg.augment_classical(padded)
    for seed in range(30):
        rep = fosg.unroll(fosg.random_fosg(seed, depth=5))
        yield rep
        yield fosg.forget_nonacting(rep)
        yield _moved_into_another_cell(seed)
    yield fosg.nontimeable_fixture()


def test_check_perfect_recall_matches_the_reference():
    outcomes = []
    for game in _recall_corpus():
        result = fosg.check_perfect_recall(game)
        assert result == oracles.check_perfect_recall_reference(game)
        outcomes.append(result[0])
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100


def _out_of_order_tree() -> ClassicalEFG:
    # Node 0 is a leaf below node 1, the root.
    nodes = [
        EfgNode(id=0, name="x", parent=1, incoming_action="x", actor=-1, depth=1,
                utilities=(0.0,)),
        EfgNode(id=1, name="r", parent=None, incoming_action=None, actor=1, depth=0,
                actions=("x", "y"), children={"x": 0, "y": 2}),
        EfgNode(id=2, name="y", parent=1, incoming_action="y", actor=-1, depth=1,
                utilities=(0.0,)),
    ]
    return ClassicalEFG(num_players=1, nodes=nodes, infosets={1: {"I": (1,)}})


def test_node_ids_must_list_parents_first():
    efg = _out_of_order_tree()
    for call in (fosg.check_perfect_recall, fosg.augment_classical,
                 lambda game: SolverTree(game).response_order(1)):
        with pytest.raises(InvalidArgument, match="parents first"):
            call(efg)
    assert issubclass(InvalidArgument, ValueError)


def test_decision_nodes_must_belong_to_an_infoset(kuhn_efg):
    # Dropping a cell leaves its members in no infoset of their actor.
    cells = {p: dict(c) for p, c in kuhn_efg.infosets.items()}
    key = next(iter(cells[1]))
    node = cells[1].pop(key)[0]
    efg = dataclasses.replace(kuhn_efg, infosets=cells)
    profile = fosg.uniform_profile(kuhn_efg)
    for call in (lambda: fosg.cfr_run(efg, 20), lambda: fosg.exploitability(efg, profile),
                 lambda: fosg.check_perfect_recall(efg)):
        with pytest.raises(InvalidArgument, match=f"decision node {node} of player 1 belongs "
                                                  "to no infoset"):
            call()


# --- forget_nonacting ---


def test_forget_nonacting_kuhn(kuhn_rep, kuhn_efg):
    expected = oracles.kuhn_infoset_count()
    for player in (1, 2):
        assert len(kuhn_efg.infosets[player]) == expected[player]
        for members in kuhn_efg.infosets[player].values():
            assert all(kuhn_efg.nodes[m].actor == player for m in members)
    assert len(kuhn_efg.nodes) == len(kuhn_rep.nodes)


def test_forget_nonacting_depth_is_exact_timing(kuhn_efg):
    from fosg.timing import Timing, validate_timing

    labels = {n.id: n.depth for n in kuhn_efg.nodes}
    assert validate_timing(kuhn_efg, Timing(labels=labels)) == []


def test_forget_nonacting_single_history():
    spec = fosg.GameSpec(
        num_players=2, states=("end",), initial_state="end",
        player_fn={"end": frozenset()}, legal_actions={}, transitions={},
        rewards={}, observations={})
    efg = fosg.forget_nonacting(fosg.unroll(spec))
    assert len(efg.nodes) == 1
    assert efg.infosets == {1: {}, 2: {}}


# --- forget_factorization ---


def test_forget_factorization_shape(kuhn_spec):
    posg = fosg.forget_factorization(kuhn_spec)
    assert fosg.validate(posg) == []
    assert all(obs.public == "∅" for obs in posg.observations.values())
    for state in posg.states:
        if state == posg.initial_state or posg.is_terminal(state):
            continue
        assert posg.player_fn[state] == frozenset({1, 2})


def test_forget_factorization_preserves_utilities(kuhn_spec):
    from fosg.model import expected_utilities, uniform_spec_policy

    posg = fosg.forget_factorization(kuhn_spec)
    policy = uniform_spec_policy(kuhn_spec)
    base = expected_utilities(kuhn_spec, policy)
    lifted = expected_utilities(posg, posg_policy(policy))
    assert base == pytest.approx(lifted, abs=1e-12)


def test_forget_factorization_idempotent_up_to_renaming(kuhn_spec):
    once = fosg.forget_factorization(kuhn_spec)
    twice = fosg.forget_factorization(once)
    assert twice.player_fn == once.player_fn
    assert twice.transitions == once.transitions
    assert twice.rewards == once.rewards
    # The second pass only re-wraps each private symbol with the empty public one.
    for key, obs in twice.observations.items():
        prior = once.observations[key]
        assert obs.public == "∅"
        assert obs.private == tuple((p, "∅") for p in prior.private)


# --- lift_to_fosg ---


def test_lift_round_trip_kuhn(kuhn_rep):
    lifted = fosg.lift_to_fosg(kuhn_rep)
    assert fosg.validate(lifted) == []
    assert reps_isomorphic(kuhn_rep, fosg.unroll(lifted))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_lift_round_trip_random(seed):
    rep = fosg.unroll(fosg.random_fosg(seed))
    assert reps_isomorphic(rep, fosg.unroll(fosg.lift_to_fosg(rep)))


def test_lift_single_node():
    spec = fosg.GameSpec(
        num_players=2, states=("end",), initial_state="end",
        player_fn={"end": frozenset()}, legal_actions={}, transitions={},
        rewards={}, observations={})
    rep = fosg.unroll(spec)
    lifted = fosg.lift_to_fosg(rep)
    assert len(lifted.states) == 1
    assert lifted.is_terminal(lifted.initial_state)


def test_lift_rejects_thick_public_sets(kuhn_rep):
    rep = fosg.unroll(fosg.kuhn_poker())
    root_key = rep.public_keys[0]
    child = next(iter(rep.nodes[0].children.values()))
    merged = rep.public_keys[child]
    rep.public_keys[child] = root_key
    cells = {}
    for nid, key in enumerate(rep.public_keys):
        cells.setdefault(key, []).append(nid)
    rep.public_sets = {k: tuple(v) for k, v in cells.items()}
    assert thick_public_set_witness(rep) is not None
    with pytest.raises(ThickPublicSets):
        fosg.lift_to_fosg(rep)


def test_lift_rejects_imperfect_recall():
    rep = fosg.unroll(fosg.kuhn_poker())
    acting = [n for n in rep.nodes if n.actor == 1 and n.depth > 2]
    target = acting[0]
    rep.infostate_keys[1][target.id] = rep.infostate_keys[1][0]
    cells = {}
    for nid, key in enumerate(rep.infostate_keys[1]):
        cells.setdefault(key, []).append(nid)
    rep.infosets[1] = {k: tuple(v) for k, v in cells.items()}
    with pytest.raises(ImperfectRecall):
        fosg.lift_to_fosg(rep)


# --- augment_classical ---


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_augment_round_trip_random(seed):
    efg = fosg.forget_nonacting(fosg.unroll(fosg.random_fosg(seed)))
    augmented = fosg.augment_classical(efg)
    assert same_classical(efg, fosg.forget_nonacting(augmented))
    ok, witness = fosg.check_perfect_recall(augmented)
    assert ok, witness
    assert not fosg.has_thick_public_sets(augmented)


def test_augment_perfect_information_gives_singletons():
    # One player, singleton infosets, no chance: every history is identified
    # by the owner's own action record, so all extended cells stay singletons.
    nodes = [EfgNode(id=0, name="r", parent=None, incoming_action=None, actor=1, depth=0)]

    def add(name, parent, action, actor, utilities=None):
        nid = len(nodes)
        nodes.append(EfgNode(id=nid, name=name, parent=parent, incoming_action=action,
                             actor=actor, depth=nodes[parent].depth + 1, utilities=utilities))
        nodes[parent].children[action] = nid
        nodes[parent].actions = nodes[parent].actions + (action,)
        return nid

    a = add("a", 0, "l", 1)
    b = add("b", 0, "r", 1)
    for nid, tag in ((a, "a"), (b, "b")):
        add(f"{tag}-x", nid, "x", -1, utilities=(0.0,))
        add(f"{tag}-y", nid, "y", -1, utilities=(0.0,))
    efg = ClassicalEFG(num_players=1, nodes=nodes,
                       infosets={1: {f"I{n.id}": (n.id,) for n in nodes if n.actor == 1}})
    augmented = fosg.augment_classical(efg)
    assert all(len(m) == 1 for m in augmented.infosets[1].values())
    assert all(len(m) == 1 for m in augmented.public_sets.values())


def test_augment_merges_unseen_sibling_outcomes():
    # After another actor moves, the observer cannot tell the outcomes apart:
    # the extension construction merges such siblings by distance labelling.
    chain, _timing = fosg.padding_chain(3)
    augmented = fosg.augment_classical(chain)
    last = max(n.id for n in chain.nodes if n.actor == 2)
    kids = sorted(chain.nodes[last].children.values())
    key = augmented.infostate_keys[1][kids[0]]
    assert augmented.infostate_keys[1][kids[1]] == key
    assert same_classical(chain, fosg.forget_nonacting(augmented))


def test_two_augmentations_share_one_classical_tree():
    classical, variant_a, variant_b = fosg.two_augmentations()
    assert same_classical(fosg.forget_nonacting(variant_a), classical)
    assert same_classical(fosg.forget_nonacting(variant_b), classical)
    cells_a = {frozenset(m) for m in variant_a.infosets[2].values()}
    cells_b = {frozenset(m) for m in variant_b.infosets[2].values()}
    assert cells_a != cells_b
    for rep in (variant_a, variant_b):
        assert fosg.check_perfect_recall(rep)[0]
        assert not fosg.has_thick_public_sets(rep)
        for player in rep.players:
            for members in rep.infosets[player].values():
                assert len({rep.public_keys[m] for m in members}) == 1


# --- DOT export ---


def test_dot_views(kuhn_rep):
    from fosg.dot import export_view

    history = export_view(kuhn_rep, "history")
    assert history.count(" -> ") == len(kuhn_rep.nodes) - 1
    public = export_view(kuhn_rep, "public")
    assert public.count("label=") >= len(kuhn_rep.public_sets)
    infoset = export_view(kuhn_rep, "infoset:1")
    assert infoset.startswith("digraph")
    with pytest.raises(ValueError):
        export_view(kuhn_rep, "bogus")


def test_infoset_view_leaf_count(kuhn_rep):
    from fosg.dot import infoset_dot

    text = infoset_dot(kuhn_rep, 1)
    edges = [line for line in text.splitlines() if " -> " in line]
    sources = {line.split(" -> ")[0].strip() for line in edges}
    nodes = {line.split(" [")[0].strip() for line in text.splitlines()
             if line.strip().startswith("i") and "label=" in line}
    leaves = nodes - sources
    terminal_keys = {kuhn_rep.infostate_keys[1][z.id] for z in kuhn_rep.terminals()}
    assert len(leaves) == len(terminal_keys)
