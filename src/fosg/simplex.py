"""Dense two-phase primal simplex with Bland's anti-cycling rule.

``solve_standard_form(c, m, fill)`` minimizes c.x subject to A x = b, x >= 0,
for a program its caller writes straight into the tableau. Phase one drives
the artificial variables out of the basis. They have no columns: artificial
``n + r`` starts basic in row r as the unit column of that row, at cost 1,
and once it leaves the basis it never re-enters (the textbook rule). Phase
one still reaches zero on a feasible program, since any feasible x meets the
constraints with every artificial, dropped or basic, at zero. Phase two
optimizes the real objective. Bland's rule (lowest eligible index enters,
lowest-index basic variable leaves on ratio ties) makes the pivot sequence a
deterministic function of the input.

The tableau is column-major: an (n + 1) × m array with one contiguous row
per program column and a last row for the right-hand side. The layout stays
inside this module; the caller's ``fill`` writes the program through the
``(a, b)`` views it is handed. The reduced costs d of the n program columns
are carried through the elimination, ``d[cols] -= values * d[col]`` over
the divided pivot row, so Bland's rule is a scan for the first one below
-TOL. Each phase starts from a fresh pricing (one product of the tableau
with the basic costs). When the carried costs show no entering column, the
phase prices afresh and ends only if that pricing shows none either; so a
fresh pricing certifies optimality, and the solve returns it as
``reduced_costs``, c - Aᵀy for the final basis's duals y. The ratio test
reads the entering column as one contiguous row. The elimination updates
the pivot row's non-zero columns as dense contiguous rows, in chunks of at
most ``_BLOCK_ENTRIES`` entries and a quarter of the tableau, over the
program rows from the first to the last with a non-zero pivot-column entry.

The kernel applies to every tableau entry it changes the same
floating-point operations as a row-by-row elimination, so its x is bitwise
that of the plain loop (kept as the reference in the tests) whenever both
take the same pivots. The reference prices every column afresh each pivot;
carried and fresh reduced costs differ only in rounding, and both took the
same pivots on every completing benchmark and test program. The plain loop
also divides the pivot row's zeros and subtracts a product from every entry
of each row it eliminates, where the kernel skips zero pivot-row entries and
leaves an entry alone when its row's pivot-column entry is zero. There the
plain loop can only flip the sign of a zero, which no comparison sees. The
right-hand side is the exception: x is read from it, and a zero's sign
reaches x's bits, so it is always divided and, as in the plain loop,
changes in exactly the rows whose pivot-column entry is non-zero. Bland's
rule ends only in exact arithmetic, so a solve that reaches
``PIVOTS_PER_DIMENSION`` pivots per row and column raises ``PivotLimit``.

A solve holds one dense matrix of the program's size, the tableau, plus the
elimination's two chunk-sized temporaries (a chunk's products and its rows),
at most half the tableau together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import Infeasible, InvalidArgument, PivotLimit, Unbounded

TOL = 1e-9

# The largest completing benchmark LP needs 2.5 pivots per row and column.
PIVOTS_PER_DIMENSION = 50

# Most tableau entries one elimination chunk spans.
_BLOCK_ENTRIES = 1 << 16


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    basis: List[int]
    pivots: List[Tuple[int, int]] = field(default_factory=list)
    # The last fresh pricing of the n program columns, c - Aᵀy.
    reduced_costs: Optional[np.ndarray] = None


def _pivot(tableau: np.ndarray, row: int, col: int, chunk: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pivot on (row, col) in chunks of at most ``chunk`` entries.

    Returns the pivot row's non-zero columns and their divided values.
    """
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
        return cols, values
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
    return cols, values


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
               chunk: int) -> np.ndarray:
    """Pivot until a fresh pricing shows no negative reduced cost; return that pricing.

    ``costs`` holds the phase's costs of the n real columns. ``cb`` holds the
    cost of each row's basic variable (a basic artificial costs 1 in phase 1
    and 0 in phase 2), kept in step with ``basis`` one entry per pivot.
    """
    priced = tableau[:-1]
    rhs = tableau[-1]
    reduced = costs - priced @ cb
    fresh = True
    while True:
        negative = (reduced < -TOL).nonzero()[0]
        if not len(negative):
            if fresh:
                return reduced
            reduced = costs - priced @ cb
            fresh = True
            continue
        entering = int(negative[0])
        row = _leaving_row(priced[entering], rhs, basis)
        if row < 0:
            raise Unbounded(f"column {entering} unbounded")
        if len(pivots) >= budget:
            raise PivotLimit(f"simplex phase {phase} reached the pivot budget "
                             f"after {len(pivots)} pivots")
        pivots.append((entering, basis[row]))
        cols, values = _pivot(tableau, row, entering, chunk)
        reduced[cols] -= values * reduced[entering]
        fresh = False
        basis[row] = entering
        cb[row] = costs[entering]


def solve_standard_form(c: np.ndarray, m: int,
                        fill: Callable[[np.ndarray, np.ndarray], None]) -> SimplexResult:
    """Minimize ``c.x`` over the m-row program ``fill`` writes into the tableau.

    The kernel allocates the zeroed column-major (n + 1) × m tableau and
    calls ``fill(a, b)`` once with writable views of it: ``a`` is the m × n
    constraint matrix (a transposed view of the first n rows) and ``b`` the
    right-hand side (the last row). The program never exists as a separate
    matrix. Raises InvalidArgument for a value that is not finite,
    Infeasible when phase one cannot reach zero, Unbounded when the
    objective has no finite minimum, and PivotLimit when the pivot budget
    runs out.
    """
    n = len(c)
    budget = PIVOTS_PER_DIMENSION * (m + n)
    tableau = np.zeros((n + 1, m))
    fill(tableau[:n].T, tableau[n])
    if not (np.isfinite(c).all() and np.isfinite(tableau).all()):
        raise InvalidArgument("the program holds a value that is not finite")

    # Rows with b < 0 are negated, so every artificial starts at b_r >= 0.
    np.negative(tableau, out=tableau, where=tableau[n] < 0)
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
    reduced = _run_phase(tableau, basis, c, cb, pivots, budget, 2, chunk)

    order = np.array(basis, dtype=int)
    real = order < n
    x = np.zeros(n)
    x[order[real]] = tableau[n, real]
    return SimplexResult(x=x, objective=float(c @ x), basis=basis, pivots=pivots,
                         reduced_costs=reduced)
