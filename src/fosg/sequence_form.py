"""Sequence-form representation and the zero-sum minimax linear program.

A player's sequences are their decision infostates paired with an action,
plus the empty sequence; realization plans assign each sequence the product
of the behavioural probabilities along it. The bilinear payoff form
x.T A y over plan pairs equals the expected utility of the first player,
which turns equilibrium computation into a linear program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from .errors import ImperfectRecall, InvalidPlan, NotZeroSum
from .simplex import solve_standard_form
from .unroll import ExtensiveFormRep, _last_own

EMPTY = ("∅",)

PolicyProfile = Dict[int, Dict[Hashable, Dict[str, float]]]


@dataclass
class SequenceSet:
    """Ordered sequences of one player: the empty sequence plus (infostate, action) pairs."""

    owner: int
    sequences: List[Hashable]            # index 0 is the empty sequence
    index: Dict[Hashable, int]
    parent: List[int]                    # parent sequence index, -1 for the empty sequence
    infoset_key: List[Optional[Hashable]]
    action: List[Optional[str]]
    infoset_rows: List[Tuple[Hashable, int, Tuple[int, ...]]]
    # (infostate key, parent sequence index, child sequence indices), canonical order

    def __len__(self) -> int:
        return len(self.sequences)


def enumerate_sequences(rep, player: int) -> SequenceSet:
    """Build the sequence set of one player in parent-before-child order."""
    return _sequences(rep, player)[0]


def _sequences(game, player: int) -> Tuple[SequenceSet, List[int]]:
    """The player's sequence set and, per node, the index of their last sequence above it.

    Accepts either representation. Infosets come in the order of their
    smallest member, which lists parents first under perfect recall. Raises
    ``ImperfectRecall`` when the members of one of the player's infosets
    follow different last sequences, and ``InvalidArgument`` when node ids
    do not list parents first.
    """
    last = _last_own(game, player)
    cells = (game.acting_infosets(player) if isinstance(game, ExtensiveFormRep)
             else game.infosets[player])
    sequences: List[Hashable] = [EMPTY]
    index: Dict[Hashable, int] = {EMPTY: 0}
    parent: List[int] = [-1]
    infoset_key: List[Optional[Hashable]] = [None]
    action: List[Optional[str]] = [None]
    rows: List[Tuple[Hashable, int, Tuple[int, ...]]] = []
    for key, members in sorted(cells.items(), key=lambda cell: min(cell[1])):
        if len({last[m] for m in members}) > 1:
            raise ImperfectRecall(f"player {player} has no perfect recall at infostate {key!r}")
        parent_idx = index[last[members[0]] or EMPTY]
        children = []
        for a in game.nodes[members[0]].actions:
            seq = (key, a)
            index[seq] = len(sequences)
            sequences.append(seq)
            parent.append(parent_idx)
            infoset_key.append(key)
            action.append(a)
            children.append(index[seq])
        rows.append((key, parent_idx, tuple(children)))
    seqs = SequenceSet(owner=player, sequences=sequences, index=index, parent=parent,
                       infoset_key=infoset_key, action=action, infoset_rows=rows)
    return seqs, [index[own or EMPTY] for own in last]


@dataclass
class SequenceLP:
    """Payoff matrix over sequence pairs plus both realization-plan systems."""

    row_sequences: SequenceSet
    col_sequences: SequenceSet
    payoff: np.ndarray                  # rows: player 1 sequences, cols: player 2
    e_matrix: np.ndarray
    e_vector: np.ndarray
    f_matrix: np.ndarray
    f_vector: np.ndarray


def _two_player_tree(rep, tree):
    """``tree``, or the ``SolverTree`` of ``rep``; raises NotZeroSum unless it has two players."""
    if tree is None:
        from .cfr import SolverTree  # a deferred import: cfr imports this module
        tree = SolverTree(rep)
    if tree.num_players != 2:
        raise NotZeroSum("the sequence-form program requires two players")
    return tree


def payoff_matrix(rep, *, tree=None) -> np.ndarray:
    """A[s, t] sums chance weight times player 1's utility over terminals with those sequences.

    Takes either tree form; ``tree`` is a prebuilt ``SolverTree`` of ``rep``.
    """
    tree = _two_player_tree(rep, tree)
    (seqs1, last1), (seqs2, last2) = tree.sequences(1), tree.sequences(2)
    a = np.zeros((len(seqs1), len(seqs2)))
    for nid, weight, utility in tree.terminals:
        a[last1[nid], last2[nid]] += weight * utility[0]
    return a


def constraint_matrices(rep, player: int) -> Tuple[np.ndarray, np.ndarray]:
    """Realization-plan constraints as (matrix, vector): row 0 pins the empty sequence."""
    seqs = enumerate_sequences(rep, player)
    return _constraint_matrices(seqs)


def _constraint_matrices(seqs: SequenceSet) -> Tuple[np.ndarray, np.ndarray]:
    rows = 1 + len(seqs.infoset_rows)
    e = np.zeros((rows, len(seqs)))
    e[0, 0] = 1.0
    for r, (_key, parent_idx, children) in enumerate(seqs.infoset_rows, start=1):
        e[r, parent_idx] = -1.0
        for child in children:
            e[r, child] = 1.0
    vec = np.zeros(rows)
    vec[0] = 1.0
    return e, vec


def build_sequence_lp(rep, *, tree=None) -> SequenceLP:
    """The sequence-form program of either tree form, read off ``tree`` (built when absent)."""
    tree = _two_player_tree(rep, tree)
    row, col = tree.sequences(1)[0], tree.sequences(2)[0]
    e_mat, e_vec = _constraint_matrices(row)
    f_mat, f_vec = _constraint_matrices(col)
    return SequenceLP(row_sequences=row, col_sequences=col,
                      payoff=payoff_matrix(rep, tree=tree),
                      e_matrix=e_mat, e_vector=e_vec,
                      f_matrix=f_mat, f_vector=f_vec)


@dataclass
class LPSolution:
    game_value: float
    row_plan: np.ndarray                # maximizer's plan, the slack columns' reduced costs
    col_plan: np.ndarray                # minimizer's plan (the primal variable)
    u_values: np.ndarray
    pivots: List[Tuple[int, int]] = field(default_factory=list)


def _zero_sum_tableau(lp: SequenceLP, a: np.ndarray, b: np.ndarray) -> None:
    """Write ``solve_zero_sum_lp``'s standard form into the zeroed tableau views ``a`` and ``b``.

    The artificial variables take no columns. The slack block is ``-I`` with
    negative zeros off the diagonal, bit for bit ``-np.eye``.
    """
    e_mat, f_mat = lp.e_matrix, lp.f_matrix
    k, n1 = e_mat.shape
    n2 = f_mat.shape[1]
    rows_f = f_mat.shape[0]
    a[:rows_f, 2 * k:2 * k + n2] = f_mat
    b[:rows_f] = lp.f_vector
    block = a[rows_f:]
    block[:, 0:k] = e_mat.T
    np.negative(e_mat.T, out=block[:, k:2 * k])
    np.negative(lp.payoff, out=block[:, 2 * k:2 * k + n2])
    slack = block[:, 2 * k + n2:]
    slack.fill(-0.0)
    slack[np.arange(n1), np.arange(n1)] = -1.0


def solve_zero_sum_lp(lp: SequenceLP) -> LPSolution:
    """Solve min e.u over Fy = f, E.T u - A y >= 0, y >= 0.

    Standard-form transcription, with block structure:

        variables: [u+ (k)] [u- (k)] [y (n2)] [slack s (n1)]
        rows:      F y = f                      (1 + infosets of player 2)
                   E.T u+ - E.T u- - A y - s = 0    (n1 rows)

    where k counts rows of E. The minimizing plan y is read from the primal
    solution. The maximizing plan x is the dual of the second row block, read
    from the final reduced costs: the slack column -e_s costs 0, so its
    reduced cost is 0 - yᵀ(-e_s) = y_s.
    """
    e_mat, e_vec = lp.e_matrix, lp.e_vector
    k = e_mat.shape[0]
    n1 = e_mat.shape[1]
    n2 = lp.f_matrix.shape[1]
    rows_f = lp.f_matrix.shape[0]
    c = np.zeros(2 * k + n2 + n1)
    c[0:k] = e_vec
    c[k:2 * k] = -e_vec

    result = solve_standard_form(c, rows_f + n1, lambda a, b: _zero_sum_tableau(lp, a, b))
    u = result.x[0:k] - result.x[k:2 * k]
    y = result.x[2 * k:2 * k + n2]
    x = result.reduced_costs[2 * k + n2:]
    return LPSolution(game_value=result.objective, row_plan=x, col_plan=y,
                      u_values=u, pivots=result.pivots)


def lp_dump(lp: SequenceLP) -> str:
    """Plain-text standard-form listing for cross-checking with external solvers."""
    lines = ["minimize e.u  subject to  F y = f,  E.T u - A y >= 0,  y >= 0", ""]
    lines.append(f"rows E: {lp.e_matrix.shape[0]}  cols E: {lp.e_matrix.shape[1]}")
    lines.append(f"rows F: {lp.f_matrix.shape[0]}  cols F: {lp.f_matrix.shape[1]}")
    lines.append("")
    lines.append("payoff matrix A (row sequences x column sequences):")
    for i, row in enumerate(lp.payoff):
        nz = [f"{lp.col_sequences.sequences[j]!r}: {v:.12g}" for j, v in enumerate(row) if v]
        if nz:
            lines.append(f"  {lp.row_sequences.sequences[i]!r}: " + ", ".join(nz))
    for name, mat, vec in (("E", lp.e_matrix, lp.e_vector), ("F", lp.f_matrix, lp.f_vector)):
        lines.append("")
        lines.append(f"{name} x = {name.lower()}:")
        for r in range(mat.shape[0]):
            terms = " + ".join(f"{mat[r, j]:+g}*x{j}" for j in range(mat.shape[1]) if mat[r, j])
            lines.append(f"  {terms} = {vec[r]:g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plans and behavioural policies


@dataclass
class RealizationPlan:
    values: Dict[Hashable, float]

    def vector(self, seqs: SequenceSet) -> np.ndarray:
        return np.array([self.values.get(seq, 0.0) for seq in seqs.sequences])


def plan_from_policy(seqs: SequenceSet, policy: Mapping[Hashable, Mapping[str, float]],
                     ) -> RealizationPlan:
    """Realization plan induced by a behavioural policy of the owner."""
    values: Dict[Hashable, float] = {EMPTY: 1.0}
    for idx in range(1, len(seqs)):
        key = seqs.infoset_key[idx]
        act = seqs.action[idx]
        parent_value = values[seqs.sequences[seqs.parent[idx]]]
        values[seqs.sequences[idx]] = parent_value * float(policy[key][act])
    return RealizationPlan(values=values)


def validate_plan(plan: RealizationPlan, seqs: SequenceSet, atol: float = 1e-9) -> List[str]:
    problems = []
    x = plan.vector(seqs)
    if abs(x[0] - 1.0) > atol:
        problems.append(f"empty sequence has mass {x[0]!r}")
    if (x < -atol).any():
        problems.append("negative sequence mass")
    for key, parent_idx, children in seqs.infoset_rows:
        flow = sum(x[c] for c in children)
        if abs(flow - x[parent_idx]) > atol:
            problems.append(f"flow violated at infostate {key!r}")
    return problems


def realization_to_behavioral(plan: RealizationPlan, seqs: SequenceSet,
                              atol: float = 1e-9) -> Dict[Hashable, Dict[str, float]]:
    """Behavioural policy x_sa over the children's clipped mass, uniform where that is zero.

    Dividing by the children's sum rather than the parent's mass keeps each
    row a distribution when rounding leaves the two apart, as it does in LP
    plans: a parent mass of 1e-16 under larger children gives probabilities
    above 1.
    """
    problems = validate_plan(plan, seqs, atol)
    if problems:
        raise InvalidPlan("; ".join(problems))
    x = np.maximum(plan.vector(seqs), 0.0)
    policy: Dict[Hashable, Dict[str, float]] = {}
    for key, _parent_idx, children in seqs.infoset_rows:
        mass = sum(x[c] for c in children)
        if mass > 0.0:
            policy[key] = {seqs.action[c]: x[c] / mass for c in children}
        else:
            policy[key] = {seqs.action[c]: 1.0 / len(children) for c in children}
    return policy


def lp_profile(rep: ExtensiveFormRep, solution: LPSolution, lp: SequenceLP) -> PolicyProfile:
    """Behavioural profile extracted from an LP solution."""
    x_plan = RealizationPlan(values={
        seq: float(v) for seq, v in zip(lp.row_sequences.sequences, solution.row_plan)})
    y_plan = RealizationPlan(values={
        seq: float(v) for seq, v in zip(lp.col_sequences.sequences, solution.col_plan)})
    return {
        1: realization_to_behavioral(x_plan, lp.row_sequences, atol=1e-6),
        2: realization_to_behavioral(y_plan, lp.col_sequences, atol=1e-6),
    }
