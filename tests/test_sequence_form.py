"""Sequence enumeration, payoff matrices, constraints, and the minimax LP."""

import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fosg
from fosg import sequence_form, simplex
from fosg.errors import (FosgError, Infeasible, InvalidArgument, InvalidPlan,
                         PivotLimit, Unbounded)
from fosg.sequence_form import (EMPTY, build_sequence_lp,
                                constraint_matrices, enumerate_sequences, lp_dump,
                                lp_profile, payoff_matrix, plan_from_policy,
                                realization_to_behavioral, solve_zero_sum_lp, validate_plan)
from fosg.simplex import solve_standard_form

import oracles
from test_cfr import random_profile


def test_kuhn_sequence_counts(kuhn_rep):
    for player in (1, 2):
        seqs = enumerate_sequences(kuhn_rep, player)
        expected = 1 + sum(
            len(kuhn_rep.infoset_actions(player, k))
            for k in kuhn_rep.acting_infosets(player))
        assert len(seqs) == expected == 13


def test_sequences_are_prefix_closed(kuhn_rep):
    for player in (1, 2):
        seqs = enumerate_sequences(kuhn_rep, player)
        for idx in range(1, len(seqs)):
            parent = seqs.parent[idx]
            assert 0 <= parent < idx  # parent enumerated before child


def test_single_decision_game_sequences():
    spec = _single_decision_spec(actions=3)
    rep = fosg.unroll(spec)
    seqs = enumerate_sequences(rep, 1)
    assert len(seqs) == 4
    e, vec = constraint_matrices(rep, 1)
    assert e.shape == (2, 4)
    assert vec.tolist() == [1.0, 0.0]
    assert e[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert e[1].tolist() == [-1.0, 1.0, 1.0, 1.0]


def _single_decision_spec(actions=3):
    acts = tuple(f"a{i}" for i in range(actions))
    states = ("start", "turn") + tuple(f"end{i}" for i in range(actions))
    transitions = {("start", ("noop", "noop")): {"turn": 1.0}}
    rewards = {("start", ("noop", "noop")): (0.0, 0.0)}
    observations = {("start", ("noop", "noop"), "turn"):
                    fosg.FactoredObservation(("-", "-"), "go")}
    player_fn = {"start": frozenset(), "turn": frozenset({1})}
    for i, a in enumerate(acts):
        key = ("turn", (a, "noop"))
        transitions[key] = {f"end{i}": 1.0}
        rewards[key] = (float(i), -float(i))
        observations[key + (f"end{i}",)] = fosg.FactoredObservation(("-", "-"), a)
        player_fn[f"end{i}"] = frozenset()
    return fosg.GameSpec(
        num_players=2, states=states, initial_state="start", player_fn=player_fn,
        legal_actions={("turn", 1): acts}, transitions=transitions, rewards=rewards,
        observations=observations)


def test_kuhn_payoff_matrix_entries(kuhn_rep):
    a = payoff_matrix(kuhn_rep)
    assert a.shape == (13, 13)
    nonzero = {abs(round(v, 10)) for v in a.ravel() if v != 0.0}
    assert nonzero <= {round(1 / 6, 10), round(2 / 6, 10), round(3 / 6, 10)}


def test_kuhn_payoff_matrix_against_settlement_oracle(kuhn_rep):
    a = payoff_matrix(kuhn_rep)
    seqs1 = enumerate_sequences(kuhn_rep, 1)
    seqs2 = enumerate_sequences(kuhn_rep, 2)
    b1 = oracles.terminal_sequences(kuhn_rep, seqs1)
    b2 = oracles.terminal_sequences(kuhn_rep, seqs2)
    rebuilt = np.zeros_like(a)
    for z in kuhn_rep.terminals():
        deal, line = z.world_state.rstrip("$").split(":")
        rebuilt[b1[z.id], b2[z.id]] += (1 / 6) * oracles.kuhn_settlement(deal[0], deal[1], line)
    assert a == pytest.approx(rebuilt, abs=1e-12)


def test_pennies_payoff_matrix(pennies_rep):
    a = payoff_matrix(pennies_rep)
    nonzero = sorted(v for v in a.ravel() if v != 0.0)
    assert nonzero == pytest.approx([-1.0, -1.0, 1.0, 1.0])


def test_bilinear_form_equals_expected_value(kuhn_rep):
    rng = random.Random(0)
    a = payoff_matrix(kuhn_rep)
    seqs1 = enumerate_sequences(kuhn_rep, 1)
    seqs2 = enumerate_sequences(kuhn_rep, 2)
    for _ in range(100):
        profile = random_profile(kuhn_rep, rng)
        x = plan_from_policy(seqs1, profile[1]).vector(seqs1)
        y = plan_from_policy(seqs2, profile[2]).vector(seqs2)
        assert float(x @ a @ y) == pytest.approx(
            fosg.game_value(kuhn_rep, profile)[0], abs=1e-10)


def test_plans_satisfy_constraints_exactly(kuhn_rep):
    rng = random.Random(1)
    for player in (1, 2):
        seqs = enumerate_sequences(kuhn_rep, player)
        e, vec = constraint_matrices(kuhn_rep, player)
        for _ in range(20):
            profile = random_profile(kuhn_rep, rng)
            x = plan_from_policy(seqs, profile[player]).vector(seqs)
            assert e @ x == pytest.approx(vec, abs=1e-12)
            assert (x >= 0).all()


def test_uniform_plan_constraint_residual_is_zero(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    seqs = enumerate_sequences(kuhn_rep, 1)
    e, vec = constraint_matrices(kuhn_rep, 1)
    x = plan_from_policy(seqs, profile[1]).vector(seqs)
    assert np.abs(e @ x - vec).max() == 0.0


def test_kuhn_constraint_shapes(kuhn_rep):
    e, vec = constraint_matrices(kuhn_rep, 1)
    assert e.shape == (7, 13)
    assert vec.tolist() == [1.0] + [0.0] * 6
    assert set(np.unique(e)) <= {-1.0, 0.0, 1.0}


# --- the LP ---


def test_kuhn_lp_certificates(kuhn_rep):
    lp = build_sequence_lp(kuhn_rep)
    solution = solve_zero_sum_lp(lp)
    profile = lp_profile(kuhn_rep, solution, lp)
    gap = fosg.exploitability(kuhn_rep, profile)
    assert gap <= 1e-6
    # By the exploitability certificate the solved value is within gap of the
    # true game value, and it must match the profile's actual value.
    assert fosg.game_value(kuhn_rep, profile)[0] == pytest.approx(
        solution.game_value, abs=1e-6)


def test_kuhn_lp_value_matches_cfr(kuhn_rep):
    lp = build_sequence_lp(kuhn_rep)
    solution = solve_zero_sum_lp(lp)
    result = fosg.cfr_run(kuhn_rep, 20_000)
    cfr_value = fosg.game_value(kuhn_rep, result.average_profile)[0]
    assert solution.game_value == pytest.approx(cfr_value, abs=2e-3)


def test_pennies_lp(pennies_rep):
    lp = build_sequence_lp(pennies_rep)
    solution = solve_zero_sum_lp(lp)
    assert solution.game_value == pytest.approx(0.0, abs=1e-9)
    acting = [i for i in range(1, len(lp.col_sequences)) ]
    y = solution.col_plan
    assert y[0] == pytest.approx(1.0, abs=1e-9)
    assert sorted(y[1:]) == pytest.approx([0.5, 0.5], abs=1e-9)


def test_lp_row_plan_is_valid(kuhn_rep):
    lp = build_sequence_lp(kuhn_rep)
    solution = solve_zero_sum_lp(lp)
    x = solution.row_plan
    assert (x >= -1e-9).all()
    assert lp.e_matrix @ x == pytest.approx(lp.e_vector, abs=1e-9)


def _solve(c, a, b):
    """The kernel on the program (c, a, b), copied into the tableau by ``fill``."""
    c, a, b = (np.asarray(v, dtype=float) for v in (c, a, b))

    def fill(program, rhs):
        program[...] = a
        rhs[...] = b

    return solve_standard_form(c, len(b), fill)


def test_simplex_determinism(kuhn_rep):
    lp = build_sequence_lp(kuhn_rep)
    first = solve_zero_sum_lp(lp)
    second = solve_zero_sum_lp(lp)
    assert first.pivots == second.pivots
    assert first.game_value == second.game_value


def test_simplex_infeasible():
    c = np.array([1.0, 1.0])
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(Infeasible):
        _solve(c, a, b)


def test_simplex_unbounded():
    c = np.array([-1.0, 0.0])
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(Unbounded):
        _solve(c, a, b)


def test_lp_dump_lists_blocks(kuhn_rep):
    text = lp_dump(build_sequence_lp(kuhn_rep))
    assert "payoff matrix" in text
    assert "E x = e" in text
    assert "F x = f" in text


# --- plans and behavioural policies ---


def test_uniform_policy_round_trip(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    seqs = enumerate_sequences(kuhn_rep, 1)
    plan = plan_from_policy(seqs, profile[1])
    back = realization_to_behavioral(plan, seqs)
    for key, dist in profile[1].items():
        assert back[key] == pytest.approx(dist, abs=1e-12)


def test_plan_round_trip_on_positive_sequences(kuhn_rep):
    rng = random.Random(5)
    for player in (1, 2):
        seqs = enumerate_sequences(kuhn_rep, player)
        for _ in range(10):
            profile = random_profile(kuhn_rep, rng)
            plan = plan_from_policy(seqs, profile[player])
            policy = realization_to_behavioral(plan, seqs)
            again = plan_from_policy(seqs, policy)
            for seq, value in plan.values.items():
                assert again.values[seq] == pytest.approx(value, abs=1e-10)


def test_invalid_plan_rejected(kuhn_rep):
    seqs = enumerate_sequences(kuhn_rep, 1)
    plan = plan_from_policy(seqs, fosg.uniform_profile(kuhn_rep)[1])
    plan.values[EMPTY] = 0.5
    assert validate_plan(plan, seqs)
    with pytest.raises(InvalidPlan):
        realization_to_behavioral(plan, seqs)


def test_zero_parent_mass_falls_back_to_uniform(kuhn_rep):
    profile = fosg.uniform_profile(kuhn_rep)
    # Always betting at the first decision gives the check-then-bet infosets a
    # zero-mass parent sequence.
    never_bet = {
        key: {a: (1.0 if a == "bet" else 0.0) if "bet" in dist else v
              for a, v in dist.items()}
        for key, dist in profile[1].items()
    }
    seqs = enumerate_sequences(kuhn_rep, 1)
    plan = plan_from_policy(seqs, never_bet)
    back = realization_to_behavioral(plan, seqs)
    zero_mass_keys = [key for key, parent_idx, _children in seqs.infoset_rows
                      if plan.vector(seqs)[parent_idx] == 0.0]
    assert zero_mass_keys
    for key in zero_mass_keys:
        values = list(back[key].values())
        assert values == pytest.approx([1.0 / len(values)] * len(values))


def test_lp_with_contradictory_flow_rows_is_infeasible(kuhn_rep):
    lp = build_sequence_lp(kuhn_rep)
    broken_f = np.vstack([lp.f_matrix, lp.f_matrix[0]])
    broken_vec = np.concatenate([lp.f_vector, [2.0]])  # x_empty = 1 and = 2
    from fosg.sequence_form import SequenceLP

    bad = SequenceLP(row_sequences=lp.row_sequences, col_sequences=lp.col_sequences,
                     payoff=lp.payoff, e_matrix=lp.e_matrix, e_vector=lp.e_vector,
                     f_matrix=broken_f, f_vector=broken_vec)
    with pytest.raises(Infeasible):
        solve_zero_sum_lp(bad)


def test_simplex_handles_redundant_rows():
    c = np.array([1.0, 0.0])
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    result = _solve(c, a, b)
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    assert result.x == pytest.approx([0.0, 1.0], abs=1e-9)


# --- the vectorized kernel against the row-by-row reference and HiGHS ---

# Random zero-sum games whose reference solve takes well under 0.2 s.
RANDOM_LP_GAMES = [(5, 0), (5, 2), (5, 3), (5, 8), (5, 11), (6, 2), (6, 5), (6, 10), (6, 11)]


class _StandardForm(Exception):
    """Carries the standard-form program out of solve_zero_sum_lp unsolved."""


def _standard_form(lp, monkeypatch):
    """The (c, a, b) that ``solve_zero_sum_lp`` writes into the kernel's zeroed views."""
    def capture(c, m, fill):
        a, b = np.zeros((m, len(c))), np.zeros(m)
        fill(a, b)
        raise _StandardForm(c, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(sequence_form, "solve_standard_form", capture)
        with pytest.raises(_StandardForm) as captured:
            solve_zero_sum_lp(lp)
    return captured.value.args


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _assert_matches_reference(c, a, b):
    """The kernel against the reference under the kernel's pivot budget.

    Both raise the same error, or both take the same pivots to the same
    basis and the same bits of x and the objective. The kernel's final
    pricing is then c - Aᵀy for the reference's duals y. Returns the
    reference's result, or None when both raised.
    """
    c, a, b = (np.asarray(v, dtype=float) for v in (c, a, b))
    before = _bits(a)
    budget = simplex.PIVOTS_PER_DIMENSION * sum(a.shape)
    try:
        expected = oracles.bland_simplex_reference(c, a, b, budget=budget)
    except FosgError as exc:
        with pytest.raises(type(exc)) as got:
            _solve(c, a, b)
        assert str(got.value) == str(exc)
        return None
    result = _solve(c, a, b)
    assert result.pivots == expected.pivots
    assert result.basis == expected.basis
    for name in ("x", "objective"):
        assert _bits(getattr(result, name)) == _bits(getattr(expected, name)), name
    assert _bits(a) == before
    assert result.reduced_costs == pytest.approx(c - a.T @ expected.duals, abs=1e-9)
    return expected


def _assert_lp_matches_reference(rep, monkeypatch):
    """The kernel against the reference on the captured program and through ``solve_zero_sum_lp``.

    The zero-sum entry reads the maximizer's plan from the slack columns'
    reduced costs, not from a dual solve, so it matches the reference's
    duals to rounding only, and its profile is checked for exploitability.
    """
    lp = build_sequence_lp(rep)
    expected = _assert_matches_reference(*_standard_form(lp, monkeypatch))
    solution = solve_zero_sum_lp(lp)
    k, n1 = lp.e_matrix.shape
    rows_f, n2 = lp.f_matrix.shape
    assert solution.pivots == expected.pivots
    assert _bits(solution.game_value) == _bits(expected.objective)
    assert _bits(solution.col_plan) == _bits(expected.x[2 * k:2 * k + n2])
    assert solution.row_plan == pytest.approx(expected.duals[rows_f:rows_f + n1], abs=1e-9)
    assert fosg.exploitability(rep, lp_profile(rep, solution, lp)) <= 1e-9


@pytest.mark.parametrize("game", ["kuhn", (6, 2)])
def test_zero_sum_tableau_holds_the_standard_form_bit_for_bit(game, kuhn_rep, monkeypatch):
    # The sign of every zero counts: the slack block is -I, zeros included.
    rep = kuhn_rep if game == "kuhn" else oracles.zero_sum_random_rep(game[1], depth=game[0])
    lp = build_sequence_lp(rep)
    c, a, b = _standard_form(lp, monkeypatch)
    k, n1 = lp.e_matrix.shape
    rows_f, n2 = lp.f_matrix.shape
    expected = np.block([
        [np.zeros((rows_f, 2 * k)), lp.f_matrix, np.zeros((rows_f, n1))],
        [lp.e_matrix.T, -lp.e_matrix.T, -lp.payoff, -np.eye(n1)]])
    assert _bits(a) == _bits(expected)
    assert _bits(b) == _bits(np.concatenate([lp.f_vector, np.zeros(n1)]))
    assert _bits(c) == _bits(np.concatenate([lp.e_vector, -lp.e_vector, np.zeros(n2 + n1)]))


def test_simplex_matches_reference_on_fixture_lps(kuhn_rep, pennies_rep, monkeypatch):
    for rep in (kuhn_rep, pennies_rep):
        _assert_lp_matches_reference(rep, monkeypatch)


@pytest.mark.parametrize("depth, seed", RANDOM_LP_GAMES)
def test_simplex_matches_reference_on_random_games(depth, seed, monkeypatch):
    _assert_lp_matches_reference(oracles.zero_sum_random_rep(seed, depth=depth), monkeypatch)


def test_simplex_matches_reference_on_small_programs():
    _assert_matches_reference(np.array([1.0, 0.0]), np.array([[1.0, 1.0], [2.0, 2.0]]),
                              np.array([1.0, 2.0]))
    # A negative right-hand side flips its row; the caller's matrix stays as it was.
    _assert_matches_reference(np.array([1.0, 2.0, 0.0]),
                              np.array([[-1.0, -1.0, 0.0], [1.0, -2.0, 1.0]]),
                              np.array([-1.0, 0.5]))
    for error, c, a, b in (
            (Infeasible, [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]),
            (Unbounded, [-1.0, 0.0], [[1.0, -1.0]], [0.0])):
        c, a, b = np.array(c), np.array(a), np.array(b)
        with pytest.raises(error):
            oracles.bland_simplex_reference(c, a, b)
        _assert_matches_reference(c, a, b)


# Few distinct entries make ties in the ratio test and degenerate pivots common;
# both zeros are there because a zero's sign bit reaches x.
_ENTRIES = st.sampled_from((-2.0, -1.0, -0.5, -0.0, 0.0, 0.0, 0.5, 1.0, 2.0))


@st.composite
def _small_programs(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    a = np.array(draw(st.lists(_ENTRIES, min_size=m * n, max_size=m * n))).reshape(m, n)
    if draw(st.booleans()):  # b = a x for some x >= 0, so the program is feasible
        x = draw(st.lists(st.sampled_from((0.0, 0.0, 1.0, 2.0)), min_size=n, max_size=n))
        b = a @ np.array(x)
    else:
        b = np.array(draw(st.lists(st.sampled_from((-2.0, -1.0, 0.0, 1.0, 3.0)),
                                   min_size=m, max_size=m)))
    c = np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
    return c, a, b


def _reference_outcome(c, a, b, **kwargs):
    try:
        result = oracles.bland_simplex_reference(c, a, b, **kwargs)
    except FosgError as exc:
        return type(exc), str(exc)
    return (result.pivots, result.basis,
            *(_bits(getattr(result, name)) for name in ("x", "duals", "objective")))


# Phase 1 ends infeasible at 8/3, a sum whose last bit depends on the order
# the right-hand side is added in.
_ORDER_PROGRAM = (np.full(6, -2.0),
                  np.array([[-2.0] * 6] * 4 + [[-2.0] * 5 + [-1.0], [-2.0] * 5 + [0.5]]),
                  np.array([-2.0, -2.0, -2.0, 0.0, -1.0, 0.0]))

# Phase 1 with artificial re-entry ends at 2/3 here, and at 2.0 without it.
_REENTRY_PROGRAM = (np.array([-0.5, 1.0]), np.array([[1.0, -1.0], [2.0, -1.0], [1.0, -2.0]]),
                    np.array([0.0, 0.0, -2.0]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_small_programs())
@example(_REENTRY_PROGRAM)
@example(_ORDER_PROGRAM)
def test_simplex_matches_reference_on_generated_programs(program):
    _assert_matches_reference(*program)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_small_programs())
@example(_REENTRY_PROGRAM)
def test_simplex_matches_reference_across_block_boundaries(program):
    # With blocks of 4 entries an elimination chunk spans at most 4 entries,
    # so a pivot eliminates in several chunks.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "_BLOCK_ENTRIES", 4)
        _assert_matches_reference(*program)


@pytest.mark.parametrize("game", ["kuhn", "pennies"] + RANDOM_LP_GAMES)
def test_artificial_reentry_changes_no_sequence_form_program(game, kuhn_rep, pennies_rep,
                                                            monkeypatch):
    # The kernel drops an artificial that leaves the basis. On sequence-form
    # programs that takes the same pivots and bits as pricing it again.
    fixtures = {"kuhn": kuhn_rep, "pennies": pennies_rep}
    rep = fixtures[game] if game in fixtures else \
        oracles.zero_sum_random_rep(game[1], depth=game[0])
    c, a, b = _standard_form(build_sequence_lp(rep), monkeypatch)
    assert _reference_outcome(c, a, b, reenter=True) == _reference_outcome(c, a, b)


def test_artificial_reentry_changes_some_programs():
    with pytest.raises(Infeasible, match="objective 0.66"):
        oracles.bland_simplex_reference(*_REENTRY_PROGRAM, reenter=True)
    with pytest.raises(Infeasible, match="objective 2.0"):
        _solve(*_REENTRY_PROGRAM)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="older interpreters keep a call's arguments alive in the caller")
@pytest.mark.parametrize("seed", [0, 3, 5, 9])
def test_lp_solve_holds_one_dense_matrix(seed):
    lp = build_sequence_lp(oracles.zero_sum_random_rep(seed, depth=6))
    rows = lp.f_matrix.shape[0] + lp.e_matrix.shape[1]
    cols = 2 * lp.e_matrix.shape[0] + lp.f_matrix.shape[1] + lp.e_matrix.shape[1]
    tableau_bytes = rows * (cols + 1) * 8
    tracemalloc.start()
    try:
        solve_zero_sum_lp(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * tableau_bytes


@pytest.mark.parametrize("seed", [2, 6])
def test_lp_tableau_is_built_in_place(seed, monkeypatch):
    # With no pivot budget the solve stops before its first pivot, so the
    # peak is what building and checking the tableau take.
    lp = build_sequence_lp(oracles.zero_sum_random_rep(seed, depth=7))
    rows = lp.f_matrix.shape[0] + lp.e_matrix.shape[1]
    cols = 2 * lp.e_matrix.shape[0] + lp.f_matrix.shape[1] + lp.e_matrix.shape[1]
    tableau_bytes = rows * (cols + 1) * 8
    monkeypatch.setattr(simplex, "PIVOTS_PER_DIMENSION", 0)
    tracemalloc.start()
    try:
        with pytest.raises(PivotLimit):
            solve_zero_sum_lp(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * tableau_bytes


def test_solve_tableau_fills_zeroed_views_of_one_tableau():
    # The kernel allocates the tableau; the caller only sees the program's
    # two views of it, zeroed and writable, whatever their memory order.
    c = np.ones(3)
    seen = []

    def fill(a, b):
        seen.append((a.shape, b.shape, _bits(a) == _bits(np.zeros((2, 3))),
                     not b.any(), a.base is not None and a.base is b.base))
        a[:] = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        b[:] = 1.0

    result = solve_standard_form(c, 2, fill)
    assert seen == [((2, 3), (2,), True, True, True)]
    expected = oracles.bland_simplex_reference(
        c, np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), np.ones(2))
    assert result.pivots == expected.pivots
    assert _bits(result.x) == _bits(expected.x)
    assert result.objective == pytest.approx(1.0)


def test_fresh_pricing_ends_each_phase(monkeypatch):
    # Every pivot hides the carried reduced costs behind +inf, so each phase
    # only goes on when the fresh pricing at its end finds an entering column.
    # That pricing is the reference's, so the solve takes its pivots.
    lp = build_sequence_lp(oracles.zero_sum_random_rep(2, depth=5))
    c, a, b = _standard_form(lp, monkeypatch)
    pivot = simplex._pivot
    calls = []

    def hide_carried_costs(tableau, row, col, chunk):
        calls.append(col)
        pivot(tableau, row, col, chunk)
        n = tableau.shape[0] - 1
        return np.arange(n), np.full(n, np.inf)

    expected = oracles.bland_simplex_reference(c, a, b)
    monkeypatch.setattr(simplex, "_pivot", hide_carried_costs)
    result = _solve(c, a, b)
    assert len(calls) == len(expected.pivots) > 2
    assert result.pivots == expected.pivots
    assert result.basis == expected.basis
    for name in ("x", "objective"):
        assert _bits(getattr(result, name)) == _bits(getattr(expected, name)), name


@pytest.mark.parametrize("c, a, b", [
    ([1.0], [[1.0]], [np.nan]),
    ([1.0], [[np.inf]], [1.0]),
    ([np.nan, 1.0], [[1.0, 1.0]], [1.0]),
    ([1.0, -np.inf], [[1.0, 1.0]], [1.0]),
])
def test_simplex_rejects_non_finite_programs(c, a, b):
    with pytest.raises(InvalidArgument, match="not finite"):
        _solve(c, a, b)


def test_simplex_solves_a_program_with_no_rows():
    result = _solve([1.0, 0.0], np.zeros((0, 2)), [])
    assert (result.pivots, result.basis, result.objective) == ([], [], 0.0)
    assert _bits(result.x) == _bits(np.zeros(2))
    with pytest.raises(Unbounded):
        _solve([1.0, -1.0], np.zeros((0, 2)), [])


def test_simplex_stops_at_the_pivot_budget(kuhn_rep, monkeypatch):
    monkeypatch.setattr(simplex, "PIVOTS_PER_DIMENSION", 0)
    with pytest.raises(PivotLimit, match="phase 1 .* after 0 pivots"):
        solve_zero_sum_lp(build_sequence_lp(kuhn_rep))


@pytest.mark.parametrize("game", ["kuhn", (5, 0), (6, 2)])
def test_lp_profile_rows_are_distributions(game, kuhn_rep):
    # A parent mass that rounding leaves apart from its children's sum must
    # not push a probability above 1.
    rep = kuhn_rep if game == "kuhn" else oracles.zero_sum_random_rep(game[1], depth=game[0])
    lp = build_sequence_lp(rep)
    profile = lp_profile(rep, solve_zero_sum_lp(lp), lp)
    for policy in profile.values():
        for key, dist in policy.items():
            assert all(0.0 <= p <= 1.0 for p in dist.values()), (key, dist)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12), (key, dist)


@pytest.mark.parametrize("game", ["kuhn"] + RANDOM_LP_GAMES)
def test_lp_matches_highs(game, kuhn_rep):
    pytest.importorskip("scipy")
    rep = kuhn_rep if game == "kuhn" else oracles.zero_sum_random_rep(game[1], depth=game[0])
    lp = build_sequence_lp(rep)
    solution = solve_zero_sum_lp(lp)
    assert solution.game_value == pytest.approx(oracles.highs_game_value(lp), abs=1e-6)
    assert fosg.exploitability(rep, lp_profile(rep, solution, lp)) <= 1e-6
