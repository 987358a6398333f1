"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import random
import time

import pytest

import fosg
from fosg.cli import main as cli_main
from fosg.decomposition import Trunk, cfr_d, subgame_histories, closed_under_infosets, \
    subgame_profile, trivial_pbs, build_subgame
from fosg.model import expected_utilities, serial_policy
from fosg.sequence_form import build_sequence_lp, lp_profile, solve_zero_sum_lp
from fosg.timing import find_exact_timing, pad_to_1_timeable, validate_timing, \
    verify_witness
from fosg.unroll import posg_policy, reps_isomorphic

from oracles import same_classical
from test_cfr import random_profile


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def kuhn_rep():
    return fosg.unroll(fosg.kuhn_poker())


@pytest.fixture(scope="module")
def kuhn_lp_value(kuhn_rep):
    return solve_zero_sum_lp(build_sequence_lp(kuhn_rep)).game_value


def test_criterion_01_kuhn_cfr_convergence(tmp_path, kuhn_lp_value):
    out_path = tmp_path / "result.json"
    started = time.perf_counter()
    code = cli_main(["solve", "cfr", "--game", "kuhn", "--iters", "10000",
                     "--out", str(out_path)])
    elapsed = time.perf_counter() - started
    doc = json.loads(out_path.read_text())
    ok = (code == 0 and doc["exploitability"] <= 0.01 and elapsed < 10.0
          and abs(doc["game_value"] - kuhn_lp_value) <= 1e-2)
    report(1, "kuhn-cfr-convergence", ok,
           f"exploitability={doc['exploitability']:.5f} <= 0.01, "
           f"runtime={elapsed:.2f}s < 10s, |value-lp|="
           f"{abs(doc['game_value'] - kuhn_lp_value):.5f} <= 1e-2")


def test_criterion_02_value_formulations_agree(kuhn_rep):
    observable, witness = fosg.check_observable_rewards(kuhn_rep)
    assert observable, witness
    efg = fosg.forget_nonacting(kuhn_rep)
    future = fosg.cfr_run(kuhn_rep, 100, record_policies=True)
    total = fosg.cfr_run(efg, 100, record_policies=True)
    worst = 0.0
    for step_a, step_b in zip(future.policies, total.policies):
        for player in (1, 2):
            for key, dist in step_a[player].items():
                for action, prob in dist.items():
                    worst = max(worst, abs(prob - step_b[player][key][action]))
    report(2, "future-vs-total-value-cfr", worst <= 1e-12,
           f"max per-infostate policy gap over 100 iterations = {worst:.2e} <= 1e-12")


def test_criterion_03_lp_vs_cfr_oracle(kuhn_rep, kuhn_lp_value):
    result = fosg.cfr_run(kuhn_rep, 100_000)
    cfr_value = fosg.game_value(kuhn_rep, result.average_profile)[0]
    lp = build_sequence_lp(kuhn_rep)
    solution = solve_zero_sum_lp(lp)
    gap = fosg.exploitability(kuhn_rep, lp_profile(kuhn_rep, solution, lp))
    pennies = fosg.unroll(fosg.serialize(fosg.matching_pennies()))
    pennies_value = solve_zero_sum_lp(build_sequence_lp(pennies)).game_value
    ok = (abs(solution.game_value - cfr_value) <= 1e-4 and gap <= 1e-6
          and abs(pennies_value) <= 1e-9)
    report(3, "lp-vs-cfr", ok,
           f"|lp-cfr|={abs(solution.game_value - cfr_value):.2e} <= 1e-4, "
           f"lp-profile-exploitability={gap:.2e} <= 1e-6, "
           f"|pennies-lp|={abs(pennies_value):.1e} <= 1e-9")


def test_criterion_04_convergence_rate_surrogate(kuhn_rep):
    result = fosg.cfr_run(kuhn_rep, 10_000, trace_stride=100)
    by_iteration = {p.iteration: p.exploitability for p in result.trace}
    scaled = {t: by_iteration[t] * math.sqrt(t) for t in (100, 1_000, 10_000)}
    ok = (scaled[1_000] <= 1.2 * scaled[100]
          and scaled[10_000] <= 1.2 * scaled[1_000])
    report(4, "exploitability-sqrt-t-bounded", ok,
           "e(T)*sqrt(T) = " + ", ".join(f"{t}: {scaled[t]:.4f}" for t in sorted(scaled)))


def test_criterion_05_cfr_d(kuhn_rep):
    trunk = Trunk.from_depth(kuhn_rep, 2)
    outcome = cfr_d(kuhn_rep, trunk, 1000, subgame_budget=1000)
    gap = fosg.exploitability(kuhn_rep, outcome.completed_profile)

    whole = Trunk(keys=frozenset(kuhn_rep.public_sets))
    plain = fosg.cfr_run(kuhn_rep, 100, record_policies=True)
    decomposed = cfr_d(kuhn_rep, whole, 100, subgame_budget=1, record_policies=True)
    worst = 0.0
    for step_a, step_b in zip(plain.policies, decomposed.policies):
        for player in (1, 2):
            for key, dist in step_a[player].items():
                for action, prob in dist.items():
                    worst = max(worst, abs(prob - step_b[player][key][action]))
    ok = gap <= 0.05 and worst <= 1e-12
    report(5, "cfr-d", ok,
           f"completed exploitability={gap:.4f} <= 0.05, "
           f"whole-tree sequence gap={worst:.1e} <= 1e-12")


def test_criterion_06_timeability_suite():
    efg = fosg.nontimeable_fixture()
    timing, witness = find_exact_timing(efg)
    fig3_ok = timing is None and verify_witness(efg, witness)

    chain_ok = True
    for n in range(2, 9):
        chain, chain_timing = fosg.padding_chain(n)
        tau = sum(chain_timing.tau(chain, node.id)
                  for node in chain.nodes if node.parent is not None)
        padded = pad_to_1_timeable(chain, chain_timing)
        chain_ok &= len(padded.nodes) == len(chain.nodes) + tau
        chain_ok &= len(padded.nodes) <= len(chain.nodes) ** 2

    random_ok = True
    for seed in range(100):
        candidate = fosg.random_timeable_efg(seed)
        found, _ = find_exact_timing(candidate)
        random_ok &= found is not None
        padded = pad_to_1_timeable(candidate, found)
        random_ok &= len(padded.nodes) <= len(candidate.nodes) ** 2

    ok = fig3_ok and chain_ok and random_ok
    report(6, "timeability-suite", ok,
           f"fig3 witness verified={fig3_ok}, chain sizes exact for N=2..8={chain_ok}, "
           f"100 random timeable games within |H|^2={random_ok}")


def test_criterion_07_subgame_tree_definitions():
    checked_games = 0
    checked_anchors = 0
    for seed in range(50):
        depth = 3 + seed % 4  # depths 3..6
        rep = fosg.unroll(fosg.random_fosg(seed, depth=depth))
        for anchor in range(len(rep.nodes)):
            reference = subgame_histories(rep, anchor, "closure")
            assert subgame_histories(rep, anchor, "extension") == reference
            assert subgame_histories(rep, anchor, "public") == reference
            for player in rep.players:
                assert subgame_histories(rep, anchor, "infostate", player) == reference
            assert closed_under_infosets(rep, reference)
            checked_anchors += 1
        checked_games += 1
    report(7, "subgame-tree-definitions", checked_games == 50,
           f"{checked_games} games, {checked_anchors} anchors, four definitions + closure")


def test_criterion_08_unroll_structure_and_lift():
    ok = True
    for seed in range(50):
        rep = fosg.unroll(fosg.random_fosg(seed))
        recall, _ = fosg.check_perfect_recall(rep)
        ok &= recall and not fosg.has_thick_public_sets(rep)
        ok &= reps_isomorphic(rep, fosg.unroll(fosg.lift_to_fosg(rep)))
    report(8, "unroll-structure-and-lift", ok,
           "50 seeds: perfect recall, no thick public sets, lift round trip isomorphic")


def test_criterion_09_augmentation_round_trip():
    ok = True
    for seed in range(50):
        efg = fosg.forget_nonacting(fosg.unroll(fosg.random_fosg(seed)))
        augmented = fosg.augment_classical(efg)
        ok &= same_classical(efg, fosg.forget_nonacting(augmented))
        depth_timing = fosg.Timing(labels={n.id: n.depth for n in efg.nodes})
        ok &= validate_timing(efg, depth_timing) == []
    report(9, "augment-round-trip", ok,
           "50 seeds: restriction reproduces input, public-set depth is an exact timing")


def test_criterion_10_strategic_equivalence():
    tol = 1e-12
    rng = random.Random(0)
    results = {}

    # Serialization: simultaneous-move games against their serial forms.
    worst = 0.0
    for trial in range(100):
        spec = fosg.random_fosg(trial % 10, serial=False, depth=3)
        serial = fosg.serialize(spec)
        policy = _random_spec_policy(spec, rng)
        base = expected_utilities(spec, policy)
        lifted = expected_utilities(serial, serial_policy(policy))
        worst = max(worst, max(abs(a - b) for a, b in zip(base, lifted)))
    results["serialize"] = worst

    # Chance merging: the dealing variant against the merged game.
    variant = fosg.kuhn_poker_chance_variant()
    merged = fosg.merge_chance(variant)
    worst = 0.0
    for _ in range(100):
        policy = _random_spec_policy(merged, rng)
        base = expected_utilities(variant, policy)
        folded = expected_utilities(merged, policy)
        worst = max(worst, max(abs(a - b) for a, b in zip(base, folded)))
    results["merge_chance"] = worst

    # Factorization forgetting.
    kuhn = fosg.kuhn_poker()
    posg = fosg.forget_factorization(kuhn)
    worst = 0.0
    for _ in range(100):
        policy = _random_spec_policy(kuhn, rng)
        base = expected_utilities(kuhn, policy)
        flat = expected_utilities(posg, posg_policy(policy))
        worst = max(worst, max(abs(a - b) for a, b in zip(base, flat)))
    results["forget_factorization"] = worst

    # Rooting a subgame at the trivial public belief state.
    rep = fosg.unroll(kuhn)
    sub_rep = fosg.unroll(build_subgame(rep, trivial_pbs(rep)))
    worst = 0.0
    for _ in range(100):
        profile = random_profile(rep, rng)
        transferred = subgame_profile(rep, sub_rep, profile)
        base = fosg.game_value(rep, profile)
        rooted = fosg.game_value(sub_rep, transferred)
        worst = max(worst, max(abs(a - b) for a, b in zip(base, rooted)))
    results["subgame_root"] = worst

    # Padding to unit-step timings.
    chain, chain_timing = fosg.padding_chain(4)
    padded = pad_to_1_timeable(chain, chain_timing)
    worst = 0.0
    for _ in range(100):
        profile = _random_efg_profile(chain, rng)
        base = fosg.game_value(chain, profile)
        stretched = fosg.game_value(padded, profile)
        worst = max(worst, max(abs(a - b) for a, b in zip(base, stretched)))
    results["padding"] = worst

    ok = all(v <= tol for v in results.values())
    report(10, "strategic-equivalence", ok,
           ", ".join(f"{k}={v:.1e}" for k, v in results.items()) + f" (all <= {tol:.0e})")


def _random_spec_policy(spec, rng):
    from fosg.model import acting_infostates, tabular_policy

    table = {}
    for player, infostates in acting_infostates(spec).items():
        per = {}
        for key, actions in infostates.items():
            raw = [rng.random() + 0.02 for _ in actions]
            total = sum(raw)
            per[key] = {a: r / total for a, r in zip(actions, raw)}
        table[player] = per
    return tabular_policy(table)


def _random_efg_profile(efg, rng):
    profile = {}
    for player, cells in efg.infosets.items():
        per = {}
        for key, members in cells.items():
            actions = efg.nodes[members[0]].actions
            raw = [rng.random() + 0.02 for _ in actions]
            total = sum(raw)
            per[key] = {a: r / total for a, r in zip(actions, raw)}
        profile[player] = per
    return profile
