"""Exact timings, witness cycles, normalization, padding, and loading classical trees."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import fosg
from fosg.errors import InvalidArgument, InvalidTiming
from fosg.io import efg_from_json, efg_to_json
from fosg.timing import (Timing, find_exact_timing, normalize_labels, pad_to_1_timeable,
                         validate_timing, verify_witness, witness_nodes)
from fosg.unroll import ClassicalEFG, EfgNode, same_classical


def test_nontimeable_fixture_has_four_node_witness():
    efg = fosg.nontimeable_fixture()
    timing, witness = find_exact_timing(efg)
    assert timing is None
    assert verify_witness(efg, witness)
    assert len(witness_nodes(witness)) == 4


def test_nontimeable_fixture_witness_is_the_figure_3_cycle():
    _timing, witness = find_exact_timing(fosg.nontimeable_fixture())
    assert witness == [("edge", 1, 3), ("infoset", 3, 2, 2, "I2"),
                       ("edge", 2, 5), ("infoset", 5, 1, 1, "I1")]


@pytest.mark.parametrize("witness", [
    [("edge", 0, 999)],                    # child id past the last node
    [("edge", 1, -8)],                     # node -8 would index node 3, a child of 1
    [("infoset", 0, 1)],                   # infoset step too short
    [("edge", 0)],                         # edge step too short
    [("edge", 0, 1, 2)],                   # edge step too long
    [("loop", 0, 0)],                      # unknown tag
    [(["edge"], 1, 3)],                    # unhashable tag
    [()],                                  # empty step
])
def test_verify_witness_answers_false_on_malformed_steps(witness):
    assert verify_witness(fosg.nontimeable_fixture(), witness) is False


def _labels_have_no_gaps(efg):
    timing, _ = find_exact_timing(efg)
    values = set(timing.labels.values())
    no_gaps = values == set(range(max(values) + 1))
    return no_gaps and normalize_labels(timing.labels) == timing.labels


def test_timing_labels_run_from_zero_with_no_gaps():
    for depth in (3, 4, 5, 6):
        for seed in range(10):
            assert _labels_have_no_gaps(fosg.random_timeable_efg(seed, depth=depth))
    for seed in range(10):
        assert _labels_have_no_gaps(fosg.forget_nonacting(fosg.unroll(fosg.random_fosg(seed))))
    for n in (2, 5, 9):
        assert _labels_have_no_gaps(fosg.padding_chain(n)[0])


def test_nontimeable_fixture_has_perfect_recall():
    assert fosg.check_perfect_recall(fosg.nontimeable_fixture())[0]


def test_nontimeable_fixture_ablations_are_timeable():
    base = fosg.nontimeable_fixture()
    for player in (1, 2):
        cells = {p: dict(c) for p, c in base.infosets.items()}
        (key, members), = cells[player].items()
        cells[player] = {f"{key}.{i}": (m,) for i, m in enumerate(members)}
        ablated = ClassicalEFG(num_players=2, nodes=base.nodes, infosets=cells)
        timing, _ = find_exact_timing(ablated)
        assert timing is not None, f"ablating player {player} merge should restore timeability"


def test_single_node_game_timing():
    efg = ClassicalEFG(
        num_players=1,
        nodes=[EfgNode(id=0, name="r", parent=None, incoming_action=None, actor=-1,
                       depth=0, utilities=(0.0,))],
        infosets={1: {}})
    timing, witness = find_exact_timing(efg)
    assert witness is None
    assert timing.labels == {0: 0}


def test_unrolled_games_time_at_public_depth(kuhn_efg):
    timing, _ = find_exact_timing(kuhn_efg)
    assert timing is not None
    assert timing.labels == {n.id: n.depth for n in kuhn_efg.nodes}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_forget_nonacting_outputs_are_timeable(seed):
    efg = fosg.forget_nonacting(fosg.unroll(fosg.random_fosg(seed)))
    timing, _ = find_exact_timing(efg)
    assert timing is not None
    assert validate_timing(efg, timing) == []


def test_normalize_compresses_gaps():
    assert normalize_labels({0: 0, 1: 5, 2: 9}) == {0: 0, 1: 1, 2: 2}
    assert normalize_labels({0: 2, 1: 2, 2: 7}) == {0: 0, 1: 0, 2: 1}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_canonical_timing_stays_below_node_count(seed):
    efg = fosg.random_timeable_efg(seed)
    timing, _ = find_exact_timing(efg)
    assert timing is not None
    assert max(timing.labels.values()) <= len(efg.nodes) - 1


def test_witnesses_on_random_nontimeable_inputs():
    # Gluing the fixture's cyclic structure onto random trees must stay detected.
    base = fosg.nontimeable_fixture()
    timing, witness = find_exact_timing(base)
    assert timing is None and verify_witness(base, witness)


# --- padding ---


def test_pad_noop_when_already_unit_steps(kuhn_efg):
    timing, _ = find_exact_timing(kuhn_efg)
    padded = pad_to_1_timeable(kuhn_efg, timing)
    assert len(padded.nodes) == len(kuhn_efg.nodes)
    again, _ = find_exact_timing(padded)
    assert same_classical(pad_to_1_timeable(padded, again), padded)


def test_padding_chain_sizes_match_formula():
    for n in range(2, 9):
        chain, timing = fosg.padding_chain(n)
        assert validate_timing(chain, timing) == []
        tau_total = sum(timing.tau(chain, node.id)
                        for node in chain.nodes if node.parent is not None)
        padded = pad_to_1_timeable(chain, timing)
        assert len(padded.nodes) == len(chain.nodes) + tau_total
        assert tau_total == n * (n - 1) // 2
        assert len(padded.nodes) <= len(chain.nodes) ** 2


def test_padding_chain_smallest_case():
    chain, timing = fosg.padding_chain(2)
    tau_total = sum(timing.tau(chain, node.id)
                    for node in chain.nodes if node.parent is not None)
    assert tau_total == 1
    padded = pad_to_1_timeable(chain, timing)
    assert len(padded.nodes) == len(chain.nodes) + 1
    pads = [n for n in padded.nodes if n.name.startswith("pad/")]
    assert len(pads) == 1
    assert pads[0].actions == ("noop",)
    assert pads[0].chance_dist == {"noop": 1.0}


def test_padding_quadratic_growth_vs_linear_tree():
    sizes = {}
    for n in (2, 4, 8):
        chain, timing = fosg.padding_chain(n)
        padded = pad_to_1_timeable(chain, timing)
        sizes[n] = (len(chain.nodes), len(padded.nodes) - len(chain.nodes))
    # Tree grows linearly in n, inserted pads quadratically.
    assert sizes[8][0] - sizes[4][0] == 2 * (sizes[4][0] - sizes[2][0])
    assert sizes[2][1] == 1 and sizes[4][1] == 6 and sizes[8][1] == 28
    assert sizes[8][1] * sizes[2][1] > sizes[4][1] * 1.5


def test_padded_output_is_one_timeable():
    chain, timing = fosg.padding_chain(5)
    padded = pad_to_1_timeable(chain, timing)
    from fosg.unroll import is_one_timeable

    assert is_one_timeable(padded)
    found, _ = find_exact_timing(padded)
    assert found.labels == {n.id: n.depth for n in padded.nodes}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_timeable_padding_respects_quadratic_bound(seed):
    efg = fosg.random_timeable_efg(seed)
    timing, _ = find_exact_timing(efg)
    padded = pad_to_1_timeable(efg, timing)
    assert len(padded.nodes) <= len(efg.nodes) ** 2
    for player, cells in padded.infosets.items():
        for members in cells.values():
            assert len({padded.nodes[m].depth for m in members}) == 1


def test_padding_preserves_expected_utilities():
    import random

    chain, timing = fosg.padding_chain(4)
    padded = pad_to_1_timeable(chain, timing)
    rng = random.Random(2)
    for _ in range(25):
        profile = {}
        for player, cells in chain.infosets.items():
            per = {}
            for key, members in cells.items():
                actions = chain.nodes[members[0]].actions
                raw = [rng.random() + 0.05 for _ in actions]
                total = sum(raw)
                per[key] = {a: r / total for a, r in zip(actions, raw)}
            profile[player] = per
        base = fosg.game_value(chain, profile)
        lifted = fosg.game_value(padded, profile)
        assert base == pytest.approx(lifted, abs=1e-12)


def test_invalid_timing_rejected(kuhn_efg):
    bad = Timing(labels={n.id: 0 for n in kuhn_efg.nodes})
    with pytest.raises(InvalidTiming):
        pad_to_1_timeable(kuhn_efg, bad)
    fractional = Timing(labels={n.id: n.depth + 0.5 for n in kuhn_efg.nodes})
    with pytest.raises(InvalidTiming):
        pad_to_1_timeable(kuhn_efg, fractional)


def test_efg_json_round_trip(kuhn_efg):
    from fosg.io import efg_from_json, efg_to_json

    doc = efg_to_json(kuhn_efg)
    back = efg_from_json(doc)
    assert len(back.nodes) == len(kuhn_efg.nodes)
    assert {n.name for n in back.nodes} == {n.name for n in kuhn_efg.nodes}
    for player in kuhn_efg.players:
        cells_a = {frozenset(kuhn_efg.nodes[m].name for m in cell)
                   for cell in kuhn_efg.infosets[player].values()}
        cells_b = {frozenset(back.nodes[m].name for m in cell)
                   for cell in back.infosets[player].values()}
        assert cells_a == cells_b
    timing_a, _ = find_exact_timing(kuhn_efg)
    timing_b, _ = find_exact_timing(back)
    labels_a = {kuhn_efg.nodes[n].name: v for n, v in timing_a.labels.items()}
    labels_b = {back.nodes[n].name: v for n, v in timing_b.labels.items()}
    assert labels_a == labels_b


def test_witness_for_edge_inside_one_infoset():
    # A classical infoset joining a node with its own child forces a label to
    # exceed itself; the witness is the edge plus the equality back.
    nodes = [
        EfgNode(id=0, name="a", parent=None, incoming_action=None, actor=1, depth=0,
                actions=("x",), children={"x": 1}),
        EfgNode(id=1, name="b", parent=0, incoming_action="x", actor=1, depth=1,
                actions=("x",), children={"x": 2}),
        EfgNode(id=2, name="z", parent=1, incoming_action="x", actor=-1, depth=2,
                utilities=(0.0,)),
    ]
    efg = ClassicalEFG(num_players=1, nodes=nodes, infosets={1: {"I": (0, 1)}})
    timing, witness = find_exact_timing(efg)
    assert timing is None
    assert verify_witness(efg, witness)
    assert witness[0][0] == "edge"


# --- classical-tree loader ---


def _tree_by_names(efg):
    """Each node's parent, action, actor, payoff and children, all named; and the cells."""
    names = [n.name for n in efg.nodes]
    tree = {}
    for n in efg.nodes:
        assert n.parent is None or n.parent < n.id
        assert set(n.actions) == set(n.children)
        tree[n.name] = (None if n.parent is None else names[n.parent], n.incoming_action,
                        n.actor, n.depth, n.utilities, n.chance_dist,
                        {a: names[c] for a, c in n.children.items()})
    cells = {p: {frozenset(names[m] for m in cell) for cell in per.values()}
             for p, per in efg.infosets.items()}
    return tree, cells


@pytest.mark.parametrize("build", [
    fosg.nontimeable_fixture,
    lambda: fosg.forget_nonacting(fosg.unroll(fosg.kuhn_poker())),
    lambda: pad_to_1_timeable(*fosg.padding_chain(8)),
])
def test_efg_loader_accepts_nodes_in_any_order(build):
    doc = efg_to_json(build())
    in_order = efg_from_json(doc)
    assert [n.name for n in in_order.nodes] == [entry["id"] for entry in doc["nodes"]]
    expected = _tree_by_names(in_order)
    orders = [doc["nodes"][::-1]]
    for seed in range(3):
        shuffled = list(doc["nodes"])
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    for entries in orders:
        assert _tree_by_names(efg_from_json(dict(doc, nodes=entries))) == expected


def _nontimeable_doc():
    return efg_to_json(fosg.nontimeable_fixture())


def _entry(doc, name):
    return next(entry for entry in doc["nodes"] if entry["id"] == name)


def test_efg_loader_rejects_a_second_child_under_one_action():
    doc = _nontimeable_doc()
    _entry(doc, "h-d")["action"] = "c"
    with pytest.raises(InvalidArgument, match="'h-d' is a second child of 'h' under action 'c'"):
        efg_from_json(doc)


def test_efg_loader_rejects_a_repeated_node_name():
    doc = _nontimeable_doc()
    _entry(doc, "g'-b")["id"] = "g'-a"
    with pytest.raises(InvalidArgument, match="node name \"g'-a\" occurs twice"):
        efg_from_json(doc)


def test_efg_loader_rejects_a_second_root():
    doc = _nontimeable_doc()
    _entry(doc, "g'-b")["parent"] = None
    with pytest.raises(InvalidArgument, match="node \"g'-b\" is a second root"):
        efg_from_json(doc)


@pytest.mark.parametrize("name, parent", [("g'", "nowhere"), ("g", "h")])
def test_efg_loader_rejects_orphans_and_cycles(name, parent):
    doc = _nontimeable_doc()
    _entry(doc, name)["parent"] = parent
    with pytest.raises(InvalidArgument, match="orphans or cycles"):
        efg_from_json(doc)
