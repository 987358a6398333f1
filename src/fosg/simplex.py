"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves min c.x subject to A x = b, x >= 0. Phase one drives artificial
variables out of the basis; phase two optimizes the real objective. Bland's
rule (lowest eligible index enters, lowest-index basic variable leaves on
ratio ties) makes the pivot sequence a deterministic function of the input.

The kernel works on whole arrays but applies to every entry it changes the
same floating-point operations as a row-by-row elimination, so its pivots and
results are bitwise those of the plain loop (kept as the reference in the
tests). Pricing is one BLAS product over the full tableau slice: a product
over fewer rows or columns sums in another order and gives other bits. A
pivot skips rows whose pivot-column entry is zero and columns whose pivot-row
entry is zero. There the plain loop subtracts a signed zero, which can only
flip the sign of a zero entry; no comparison sees that, and the right-hand
side, which the solution is read from, is always updated. Bland's rule ends
only in exact arithmetic, so a solve that reaches ``PIVOTS_PER_DIMENSION``
pivots per row and column raises ``PivotLimit``.

A solve holds one dense matrix of the program's size, the tableau. The
columns of ``a`` that the duals need are kept as a sparse copy, and the
tableau is dropped before the duals are solved. ``solve_standard_form``
copies ``a`` into a new tableau; ``solve_tableau`` takes one its caller has
filled in place, so the program never exists as a separate matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import Infeasible, InvalidArgument, PivotLimit, Unbounded

TOL = 1e-9

# The largest completing benchmark LP needs 2.5 pivots per row and column.
PIVOTS_PER_DIMENSION = 50

# Most tableau entries one elimination block updates at a time.
_BLOCK_ENTRIES = 1 << 16


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    duals: np.ndarray
    basis: List[int]
    pivots: List[Tuple[int, int]] = field(default_factory=list)


class _BlockBuffers:
    """The index and product buffers of the elimination blocks, kept for one solve.

    Fresh buffers per pivot were a new mapping per block whenever a block
    outgrew the allocator's threshold for mapping memory, and every page of
    each was faulted in again (about a million faults on the first large solve
    of a process). The buffers grow to the largest block seen, and no further,
    so they add nothing to the peak of a solve.
    """

    def __init__(self) -> None:
        self.index = np.empty(0, dtype=np.intp)
        self.products = np.empty(0)

    def blocks(self, rows: int, cols: int) -> Tuple[np.ndarray, np.ndarray]:
        size = rows * cols
        if size > len(self.products):
            del self.index, self.products  # free the old pair before the new one exists
            self.index = np.empty(size, dtype=np.intp)
            self.products = np.empty(size)
        return (self.index[:size].reshape(rows, cols),
                self.products[:size].reshape(rows, cols))


def _pivot(tableau: np.ndarray, row: int, col: int, width: int,
           buffers: _BlockBuffers) -> None:
    """Pivot on (row, col), updating the first ``width`` columns and the right-hand side."""
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    column = tableau[:, col]
    hit = column != 0.0
    hit[row] = False
    rows = hit.nonzero()[0]
    keep = pivot_row != 0.0
    keep[width:] = False
    keep[-1] = True
    cols = keep.nonzero()[0]
    values = pivot_row[cols]
    flat = tableau.reshape(-1)  # a view: the tableau is built C-contiguous
    step = _BLOCK_ENTRIES // len(cols) or 1
    for start in range(0, len(rows), step):
        # A block's rows are not updated before it, so their pivot-column
        # entries are still the elimination factors.
        block = rows[start:start + step]
        index, products = buffers.blocks(len(block), len(cols))
        np.add.outer(block * tableau.shape[1], cols, out=index)
        np.multiply.outer(column[block], values, out=products)
        np.subtract.at(flat, index.reshape(-1), products.reshape(-1))


def _leaving_row(column: np.ndarray, rhs: np.ndarray, basis: List[int]) -> int:
    """Ratio test with Bland's tie-break, run in row order over the eligible rows."""
    rows = (column > TOL).nonzero()[0]
    if not len(rows):
        return -1
    ratios = (rhs[rows] / column[rows]).tolist()
    rows = rows.tolist()
    best_row, best_ratio = rows[0], ratios[0]
    for r, ratio in zip(rows[1:], ratios[1:]):
        if ratio < best_ratio - TOL or (
                abs(ratio - best_ratio) <= TOL and basis[r] < basis[best_row]):
            best_row, best_ratio = r, ratio
    return best_row


def _run_phase(tableau: np.ndarray, basis: List[int], costs: np.ndarray, width: int,
               pivots: List[Tuple[int, int]], budget: int, phase: int,
               buffers: _BlockBuffers) -> None:
    """Pivot until no column among the first ``width`` has a negative reduced cost.

    ``costs`` covers every column but the right-hand side; pricing always runs
    over all of them, so each reduced cost comes from the same BLAS call. The
    basic costs ``cb`` are kept in step with ``basis`` one entry per pivot.
    """
    priced = tableau[:, :len(costs)]
    rhs = tableau[:, -1]
    cb = costs[basis]
    while True:
        negative = costs[:width] - (cb @ priced)[:width] < -TOL
        entering = int(negative.argmax())
        if not negative[entering]:
            return
        row = _leaving_row(tableau[:, entering], rhs, basis)
        if row < 0:
            raise Unbounded(f"column {entering} unbounded")
        if len(pivots) >= budget:
            raise PivotLimit(f"simplex phase {phase} reached the pivot budget "
                             f"after {len(pivots)} pivots")
        pivots.append((entering, basis[row]))
        _pivot(tableau, row, entering, width, buffers)
        basis[row] = entering
        cb[row] = costs[entering]


def solve_standard_form(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> SimplexResult:
    """Minimize ``c.x`` over ``a x = b, x >= 0``.

    Raises Infeasible when phase one cannot reach zero, Unbounded when the
    objective has no finite minimum, and PivotLimit when the pivot budget runs
    out. Dual values are recovered from the final basis against the original
    data. ``a`` is left unchanged.
    """
    # The tableau is passed unnamed, so the kernel holds its only reference.
    return solve_tableau(np.asarray(c, dtype=float), _standard_tableau(a, b))


def _standard_tableau(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = np.shape(a)
    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = a
    tableau[:, -1] = b
    return tableau


def solve_tableau(c: np.ndarray, tableau: np.ndarray) -> SimplexResult:
    """``solve_standard_form`` on a program already laid out as its tableau.

    ``tableau`` is the C-contiguous m × (n + m + 1) float64 array
    ``[a | 0 | b]``. The solve overwrites it and frees it before the duals
    are solved when the caller passes it unnamed (on CPython 3.11+ the callee
    then holds its only reference).
    """
    if tableau.dtype != np.float64 or not tableau.flags.c_contiguous:
        raise InvalidArgument("the tableau must be a C-contiguous float64 array")
    m = tableau.shape[0]
    n = tableau.shape[1] - m - 1
    budget = PIVOTS_PER_DIMENSION * (m + n)

    # Phase 1 tableau: [A | I | b] with artificial costs, rows with b < 0 negated.
    flip = tableau[:, -1] < 0
    tableau[flip, :n] *= -1.0
    tableau[flip, -1] *= -1.0
    tableau[np.arange(m), n + np.arange(m)] = 1.0
    # The original columns for the duals: the non-zero entries, plus every
    # entry's sign bit so that the zeros of a column keep their sign.
    a_rows, a_cols = tableau[:, :n].nonzero()
    a_values = tableau[a_rows, a_cols]
    a_signs = np.packbits(np.signbit(tableau[:, :n]), axis=0)

    basis = list(range(n, n + m))
    costs = np.zeros(n + m)
    costs[n:] = 1.0
    pivots: List[Tuple[int, int]] = []
    buffers = _BlockBuffers()
    _run_phase(tableau, basis, costs, n + m, pivots, budget, 1, buffers)

    phase1_obj = float(costs[basis] @ tableau[:, -1])
    if phase1_obj > 1e-7:
        raise Infeasible(f"phase-1 objective {phase1_obj}")

    # Drive leftover artificial variables out of the basis; rows that cannot
    # pivot on a real column are redundant and stay harmlessly at zero. From
    # here on no artificial column enters, so their entries are left stale.
    for r in range(m):
        if basis[r] >= n:
            candidates = (np.abs(tableau[r, :n]) > TOL).nonzero()[0]
            if len(candidates):
                j = int(candidates[0])
                pivots.append((j, basis[r]))
                _pivot(tableau, r, j, n, buffers)
                basis[r] = j

    costs[:n] = c
    costs[n:] = 0.0
    _run_phase(tableau, basis, costs, n, pivots, budget, 2, buffers)

    order = np.array(basis)
    real = order < n
    x = np.zeros(n)
    x[order[real]] = tableau[real, -1]
    objective = float(c @ x)
    del tableau, buffers

    # Duals y solve B^T y = c_B for the final basis columns of the original A;
    # a leftover artificial in the basis contributes its identity column at cost 0.
    basis_matrix = np.zeros((m, m))
    columns = real.nonzero()[0]
    signs = np.unpackbits(a_signs[:, order[real]], axis=0, count=m)
    basis_matrix[:, columns] = np.where(signs, -0.0, 0.0)
    position = np.full(n, -1)
    position[order[real]] = columns
    at = position[a_cols]
    used = at >= 0
    basis_matrix[a_rows[used], at[used]] = a_values[used]
    basis_matrix[order[~real] - n, (~real).nonzero()[0]] = 1.0
    duals = np.linalg.solve(basis_matrix.T, costs[order])
    duals[flip] *= -1.0
    return SimplexResult(x=x, objective=objective, duals=duals, basis=basis, pivots=pivots)
