"""One game protocol: every tree-form analysis takes either tree form or fails typed.

An analysis either accepts both the unrolled ``ExtensiveFormRep`` and a
``ClassicalEFG``, or refuses the other form with the one ``InvalidArgument``
of ``unroll.require_form``. Analyses that need public states or cumulative
rewards take only an ``ExtensiveFormRep``; padding and augmentation take
only a ``ClassicalEFG``.
"""

from functools import partial

import numpy as np
import pytest

import fosg
from fosg.cfr import (SolverTree, best_response, cfr_run, check_observable_rewards,
                      exploitability, expected_values, game_value, reach_probabilities,
                      uniform_profile)
from fosg.decomposition import (Trunk, build_subgame, cfr_d, closed_under_infosets,
                                complete_profile, public_subtree, range_at, subgame_histories,
                                subgame_profile, trivial_pbs)
from fosg.dot import export_view
from fosg.errors import (FosgError, ImperfectRecall, InvalidArgument, InvalidTiming,
                         NotOneTimeable)
from fosg.io import efg_to_json
from fosg.sequence_form import (build_sequence_lp, constraint_matrices, enumerate_sequences,
                                lp_profile, payoff_matrix, solve_zero_sum_lp)
from fosg.timing import (Timing, find_exact_timing, pad_to_1_timeable, validate_timing,
                         verify_witness)
from fosg.unroll import (add_efg_node, augment_classical, check_perfect_recall,
                         forget_nonacting, has_thick_public_sets, is_one_timeable,
                         lift_to_fosg, thick_public_set_witness, unroll)

KUHN = unroll(fosg.kuhn_poker())
KUHN_EFG = forget_nonacting(KUHN)
FIGURE_3 = fosg.nontimeable_fixture()
TREES = (KUHN, KUHN_EFG, FIGURE_3)

ROOT_PBS = trivial_pbs(KUHN)
ROOT_SUBGAME = unroll(build_subgame(KUHN, ROOT_PBS))
ROOT_TRUNK = Trunk(keys=frozenset({()}))


def _depth_timing(game) -> Timing:
    # A game spec has no nodes; its empty timing leaves the refusal to the analysis.
    return Timing(labels={node.id: node.depth for node in getattr(game, "nodes", ())})


def _lp_profile(game):
    lp = build_sequence_lp(game)
    return lp_profile(game, solve_zero_sum_lp(lp), lp)


OK = None
BOTH = (OK, OK, OK)
UNROLLED_ONLY = (OK, InvalidArgument, InvalidArgument)

# Each analysis, called on (KUHN, KUHN_EFG, FIGURE_3), with the outcome each
# call must have: a result (OK) or that FosgError.
ANALYSES = {
    "SolverTree": (SolverTree, BOTH),
    "uniform_profile": (uniform_profile, BOTH),
    "cfr_run": (lambda g: cfr_run(g, 2), BOTH),
    "best_response": (lambda g: best_response(g, uniform_profile(g), 1), BOTH),
    "exploitability": (lambda g: exploitability(g, uniform_profile(g)), BOTH),
    "game_value": (lambda g: game_value(g, uniform_profile(g)), BOTH),
    "expected_values": (lambda g: expected_values(g, uniform_profile(g)), BOTH),
    "reach_probabilities": (lambda g: reach_probabilities(g, uniform_profile(g)), BOTH),
    "enumerate_sequences": (lambda g: enumerate_sequences(g, 1), BOTH),
    "constraint_matrices": (lambda g: constraint_matrices(g, 2), BOTH),
    "payoff_matrix": (payoff_matrix, BOTH),
    "build_sequence_lp": (build_sequence_lp, BOTH),
    "lp_profile": (_lp_profile, BOTH),
    "check_perfect_recall": (check_perfect_recall, BOTH),
    "find_exact_timing": (find_exact_timing, BOTH),
    "validate_timing": (lambda g: validate_timing(g, _depth_timing(g)), BOTH),
    "verify_witness": (lambda g: verify_witness(g, find_exact_timing(g)[1] or []), BOTH),
    "is_one_timeable": (is_one_timeable, BOTH),
    "check_observable_rewards": (check_observable_rewards, UNROLLED_ONLY),
    "forget_nonacting": (forget_nonacting, UNROLLED_ONLY),
    "has_thick_public_sets": (has_thick_public_sets, UNROLLED_ONLY),
    "thick_public_set_witness": (thick_public_set_witness, UNROLLED_ONLY),
    "lift_to_fosg": (lift_to_fosg, UNROLLED_ONLY),
    "export_view": (lambda g: export_view(g, "history"), UNROLLED_ONLY),
    "public_subtree": (lambda g: public_subtree(g, ()), UNROLLED_ONLY),
    "subgame_histories": (lambda g: subgame_histories(g, 0, "closure"), UNROLLED_ONLY),
    "closed_under_infosets": (
        lambda g: closed_under_infosets(g, frozenset(range(len(g.nodes)))), UNROLLED_ONLY),
    "range_at": (lambda g: range_at(g, uniform_profile(g), ()), UNROLLED_ONLY),
    "trivial_pbs": (trivial_pbs, UNROLLED_ONLY),
    "build_subgame": (lambda g: build_subgame(g, ROOT_PBS), UNROLLED_ONLY),
    "subgame_profile": (
        lambda g: subgame_profile(g, ROOT_SUBGAME, uniform_profile(g)), UNROLLED_ONLY),
    "Trunk.from_depth": (lambda g: Trunk.from_depth(g, 2), UNROLLED_ONLY),
    "Trunk.validate": (ROOT_TRUNK.validate, UNROLLED_ONLY),
    "Trunk.leaves": (ROOT_TRUNK.leaves, UNROLLED_ONLY),
    "cfr_d": (lambda g: cfr_d(g, ROOT_TRUNK, 2, 2), UNROLLED_ONLY),
    "complete_profile": (lambda g: complete_profile(g, ROOT_TRUNK, {}, 2), UNROLLED_ONLY),
    "augment_classical": (augment_classical, (InvalidArgument, OK, NotOneTimeable)),
    "efg_to_json": (efg_to_json, (InvalidArgument, OK, OK)),
    # Figure 3 has no exact timing, so its depths are no timing either.
    "pad_to_1_timeable": (lambda g: pad_to_1_timeable(g, _depth_timing(g)),
                          (InvalidArgument, OK, InvalidTiming)),
}


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_every_analysis_takes_either_tree_form_or_fails_typed(name):
    call, outcomes = ANALYSES[name]
    for game, expected in zip(TREES, outcomes):
        if expected is OK:
            call(game)
            continue
        with pytest.raises(FosgError) as caught:
            call(game)
        assert type(caught.value) is expected, (name, type(game).__name__, caught.value)
        if expected is InvalidArgument:
            assert type(game).__name__ in str(caught.value)


@pytest.mark.parametrize("name", sorted(name for name, (_call, outcomes) in ANALYSES.items()
                                         if outcomes == BOTH or name in ("build_subgame", "cfr_d")))
def test_tree_analyses_refuse_a_game_spec_typed(name):
    call, _outcomes = ANALYSES[name]
    with pytest.raises(InvalidArgument, match="got GameSpec"):
        call(fosg.kuhn_poker())


def test_the_refusal_names_both_forms():
    with pytest.raises(InvalidArgument, match="range_at needs ExtensiveFormRep input, "
                                              "got ClassicalEFG"):
        range_at(KUHN_EFG, {}, ())
    with pytest.raises(InvalidArgument, match="pad_to_1_timeable needs ClassicalEFG input, "
                                              "got ExtensiveFormRep"):
        pad_to_1_timeable(KUHN, _depth_timing(KUHN))
    with pytest.raises(InvalidArgument, match="got GameSpec"):
        check_perfect_recall(fosg.kuhn_poker())


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def test_classical_kuhn_lp_is_bitwise_the_unrolled_and_augmented_lp():
    reference = build_sequence_lp(KUHN_EFG)
    solved = solve_zero_sum_lp(reference)
    for other in (KUHN, augment_classical(KUHN_EFG)):
        lp = build_sequence_lp(other)
        for field in ("payoff", "e_matrix", "e_vector", "f_matrix", "f_vector"):
            assert _bits(getattr(lp, field)) == _bits(getattr(reference, field)), field
        solution = solve_zero_sum_lp(lp)
        assert solution.pivots == solved.pivots
        assert solution.game_value == solved.game_value
        assert _bits(solution.row_plan) == _bits(solved.row_plan)
        assert _bits(solution.col_plan) == _bits(solved.col_plan)
    assert solved.game_value == pytest.approx(-1 / 18, abs=1e-12)


def test_figure_3_lp_solves_with_value_zero_and_an_unexploitable_profile():
    lp = build_sequence_lp(FIGURE_3)
    solution = solve_zero_sum_lp(lp)
    assert solution.game_value == 0.0
    assert exploitability(FIGURE_3, lp_profile(FIGURE_3, solution, lp)) == 0.0


def test_lp_profiles_of_random_classical_trees_are_equilibria():
    solved = 0
    for depth in (3, 4, 5):
        for seed in range(40):
            efg = fosg.random_timeable_efg(seed, depth=depth)
            if not check_perfect_recall(efg)[0]:
                with pytest.raises(ImperfectRecall):
                    build_sequence_lp(efg)
                continue
            lp = build_sequence_lp(efg)
            solution = solve_zero_sum_lp(lp)
            profile = lp_profile(efg, solution, lp)
            assert exploitability(efg, profile) <= 1e-9, (depth, seed)
            value = game_value(efg, profile)[0]
            assert value == pytest.approx(solution.game_value, abs=1e-9), (depth, seed)
            solved += 1
    assert solved == 75


def test_cfr_run_refuses_imperfect_recall_before_its_first_iteration():
    # Player 1 moves twice and forgets the first move: both second-move
    # nodes share one infoset.
    nodes = []
    add = partial(add_efg_node, nodes)
    root = add("root", None, None, 1)
    for first in ("l", "r"):
        second = add(f"after-{first}", root, first, 1)
        for last, payoff in (("x", 1.0), ("y", -1.0)):
            add(f"{first}{last}", second, last, -1, utilities=(payoff, -payoff))
    efg = fosg.ClassicalEFG(num_players=2, nodes=nodes,
                            infosets={1: {"start": (0,), "forgot": (1, 4)}, 2: {}})
    assert not check_perfect_recall(efg)[0]
    # Without a trace no best response runs, which would raise it too.
    with pytest.raises(ImperfectRecall, match="forgot"):
        cfr_run(efg, 5)
