"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves min c.x subject to A x = b, x >= 0. Phase one drives the artificial
variables out of the basis. They have no columns: artificial ``n + r``
starts basic in row r as the unit column of that row, at cost 1, and once it
leaves the basis it never re-enters (the textbook rule). Phase one still
reaches zero on a feasible program, since any feasible x meets the
constraints with every artificial, dropped or basic, at zero. Phase two
optimizes the real objective. Bland's rule (lowest eligible index enters,
lowest-index basic variable leaves on ratio ties) makes the pivot sequence a
deterministic function of the input.

The tableau is column-major: an (n + 1) × m array with one contiguous row
per program column and a last row for the right-hand side. The layout stays
inside this module; callers write the program through the ``(a, b)`` views
``solve_tableau`` hands them. Pricing runs in Bland order over blocks of
about ``_BLOCK_ENTRIES`` tableau entries and stops at the first block that
holds a reduced cost below -TOL. The ratio test reads the entering column as
one contiguous row. The elimination updates the pivot row's non-zero columns
as dense contiguous rows, in chunks of at most ``_BLOCK_ENTRIES`` entries
and a quarter of the tableau, over the program rows from the first to the
last with a non-zero pivot-column entry.

The kernel applies to every entry it changes the same floating-point
operations as a row-by-row elimination, so its pivots and results are
bitwise those of the plain loop (kept as the reference in the tests). The
reference prices with one product over all columns, artificial ones too, in
a different summation order; both took the same pivots on every benchmark
and test program. The plain loop also divides the pivot row's zeros and
subtracts a product from every entry of each row it eliminates, where the
kernel skips zero pivot-row entries and leaves an entry alone when its
row's pivot-column entry is zero. There the plain loop can only flip the
sign of a zero, which no comparison sees. The right-hand side is the
exception: x is read from it, and a zero's sign reaches x's bits, so it is
always divided and, as in the plain loop, changes in exactly the rows whose
pivot-column entry is non-zero. Bland's rule ends only in exact arithmetic,
so a solve that reaches ``PIVOTS_PER_DIMENSION`` pivots per row and column
raises ``PivotLimit``.

A solve holds one dense matrix of the program's size, the tableau, plus the
elimination's two chunk-sized temporaries (a chunk's products and its rows),
at most half the tableau together. The columns of ``a`` that the
duals need are kept as a sparse copy, and the tableau is dropped before the
duals are solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from .errors import Infeasible, PivotLimit, Unbounded

TOL = 1e-9

# The largest completing benchmark LP needs 2.5 pivots per row and column.
PIVOTS_PER_DIMENSION = 50

# Most tableau entries one pricing block or elimination chunk spans.
_BLOCK_ENTRIES = 1 << 16


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    duals: np.ndarray
    basis: List[int]
    pivots: List[Tuple[int, int]] = field(default_factory=list)


def _entering(blocks: List[Tuple[int, np.ndarray, np.ndarray]], cb: np.ndarray) -> int:
    """Bland's rule: the lowest column with a reduced cost below -TOL, or -1.

    ``blocks`` holds the columns in order as (first column, columns, costs);
    pricing stops at the first block that holds such a column.
    """
    for start, columns, costs in blocks:
        negative = costs - columns @ cb < -TOL
        j = int(negative.argmax())
        if negative[j]:
            return start + j
    return -1


def _pivot(tableau: np.ndarray, row: int, col: int, chunk: int) -> None:
    """Pivot on (row, col), eliminating in chunks of at most ``chunk`` entries."""
    n = tableau.shape[0] - 1
    pivot_row = tableau[:, row]
    # A zero pivot-row entry is not divided; its quotient would be a zero.
    cols = pivot_row[:n].nonzero()[0]
    values = pivot_row[cols] / pivot_row[col]
    pivot_row[n] /= pivot_row[col]
    pivot_row[cols] = values
    factors = tableau[col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    if not len(rows):
        return
    rhs = tableau[n]
    rhs[rows] -= factors[rows] * pivot_row[n]
    lo, hi = int(rows[0]), int(rows[-1]) + 1
    span = tableau[:, lo:hi]
    factors = factors[lo:hi]
    step = max(chunk // (hi - lo), 1)
    for start in range(0, len(cols), step):
        # einsum, not a broadcast multiply: that takes a 64 KiB iteration
        # buffer per call and runs slower on large chunks.
        products = np.einsum("i,j->ij", values[start:start + step], factors)
        span[cols[start:start + step]] -= products


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


def _run_phase(tableau: np.ndarray, basis: List[int], costs: np.ndarray, cb: np.ndarray,
               pivots: List[Tuple[int, int]], budget: int, phase: int,
               chunk: int) -> None:
    """Pivot until no real column has a negative reduced cost.

    ``costs`` holds the phase's costs of the n real columns. ``cb`` holds the
    cost of each row's basic variable (a basic artificial costs 1 in phase 1
    and 0 in phase 2), kept in step with ``basis`` one entry per pivot.
    """
    priced = tableau[:-1]
    rhs = tableau[-1]
    # About _BLOCK_ENTRIES entries a block, so a small program is one block.
    width = max(_BLOCK_ENTRIES // max(len(cb), 1), 1)
    blocks = [(start, priced[start:start + width], costs[start:start + width])
              for start in range(0, len(costs), width)]
    while True:
        entering = _entering(blocks, cb)
        if entering < 0:
            return
        row = _leaving_row(priced[entering], rhs, basis)
        if row < 0:
            raise Unbounded(f"column {entering} unbounded")
        if len(pivots) >= budget:
            raise PivotLimit(f"simplex phase {phase} reached the pivot budget "
                             f"after {len(pivots)} pivots")
        pivots.append((entering, basis[row]))
        _pivot(tableau, row, entering, chunk)
        basis[row] = entering
        cb[row] = costs[entering]


def solve_standard_form(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> SimplexResult:
    """Minimize ``c.x`` over ``a x = b, x >= 0``.

    Raises Infeasible when phase one cannot reach zero, Unbounded when the
    objective has no finite minimum, and PivotLimit when the pivot budget runs
    out. Dual values are recovered from the final basis against the original
    data. ``a`` is left unchanged.
    """
    def fill(program: np.ndarray, rhs: np.ndarray) -> None:
        program[...] = a
        rhs[...] = b

    return solve_tableau(np.asarray(c, dtype=float), np.shape(a)[0], fill)


def solve_tableau(c: np.ndarray, m: int,
                  fill: Callable[[np.ndarray, np.ndarray], None]) -> SimplexResult:
    """``solve_standard_form`` on a program written straight into the tableau.

    The kernel allocates the zeroed column-major (n + 1) × m tableau and
    calls ``fill(a, b)`` once with writable views of it: ``a`` is the m × n
    constraint matrix (a transposed view of the first n rows) and ``b`` the
    right-hand side (the last row). The program never exists as a separate
    matrix, and the tableau is freed before the duals are solved.
    """
    n = len(c)
    budget = PIVOTS_PER_DIMENSION * (m + n)
    tableau = np.zeros((n + 1, m))
    fill(tableau[:n].T, tableau[n])

    # Rows with b < 0 are negated, so every artificial starts at b_r >= 0.
    flip = tableau[n] < 0
    np.negative(tableau, out=tableau, where=flip)
    # The original columns for the duals: the non-zero entries, plus every
    # entry's sign bit so that the zeros of a column keep their sign.
    a_cols, a_rows = tableau[:n].nonzero()
    a_values = tableau[a_cols, a_rows]
    a_signs = np.packbits(np.signbit(tableau[:n]), axis=1)

    basis = list(range(n, n + m))
    pivots: List[Tuple[int, int]] = []
    chunk = min(_BLOCK_ENTRIES, tableau.size // 4)
    cb = np.ones(m)
    _run_phase(tableau, basis, np.zeros(n), cb, pivots, budget, 1, chunk)

    phase1_obj = float(cb @ tableau[n])
    if phase1_obj > 1e-7:
        raise Infeasible(f"phase-1 objective {phase1_obj}")

    # Drive leftover artificial variables out of the basis; rows that cannot
    # pivot on a real column are redundant and stay harmlessly at zero.
    for r in range(m):
        if basis[r] >= n:
            candidates = (np.abs(tableau[:n, r]) > TOL).nonzero()[0]
            if len(candidates):
                j = int(candidates[0])
                pivots.append((j, basis[r]))
                _pivot(tableau, r, j, chunk)
                basis[r] = j

    cb = np.array([c[v] if v < n else 0.0 for v in basis])
    _run_phase(tableau, basis, c, cb, pivots, budget, 2, chunk)

    order = np.array(basis)
    real = order < n
    x = np.zeros(n)
    x[order[real]] = tableau[n, real]
    objective = float(c @ x)
    del tableau

    # Duals y solve B^T y = c_B for the final basis columns of the original A;
    # a leftover artificial in the basis contributes its unit column at cost 0.
    basis_matrix = np.zeros((m, m))
    columns = real.nonzero()[0]
    signs = np.unpackbits(a_signs[order[real]], axis=1, count=m)
    basis_matrix[:, columns] = np.where(signs.T, -0.0, 0.0)
    position = np.full(n, -1)
    position[order[real]] = columns
    at = position[a_cols]
    used = at >= 0
    basis_matrix[a_rows[used], at[used]] = a_values[used]
    basis_matrix[order[~real] - n, (~real).nonzero()[0]] = 1.0
    duals = np.linalg.solve(basis_matrix.T, cb)
    duals[flip] *= -1.0
    return SimplexResult(x=x, objective=objective, duals=duals, basis=basis, pivots=pivots)
