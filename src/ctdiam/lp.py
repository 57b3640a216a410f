"""Dense simplex solver for the monic min-max problems.

The primal problem is: minimize t over real coefficient variables u
subject to F u + g <= t componentwise, where each row encodes one
(mesh point, phase) pair of the regular polygon outer approximation of
the modulus.  With few variables and many rows, the efficient dense
formulation is the standard-form problem its multipliers solve:

    min (-g).lam   s.t.  F^T lam = 0,  sum lam = 1,  lam >= 0,

a tableau with d+1 rows and one column per constraint.  A two-phase
primal simplex runs on that dense matrix; the optimal basis multipliers
return the coefficients u and the optimum t* of the min-max itself.

Pricing is by most-negative reduced cost with the classical
lexicographic ratio test on the [rhs | B^-1] block, which is
deterministic and cannot cycle (Dantzig, Orden & Wolfe 1955).  This is
the only pivot rule: a phase that reaches _MAX_ITER iterations raises
SolverFailure at once, which a report records as a cell error.
A pivot updates the tableau in place, in blocks of rows: each block's
outer product c_i * r_j goes into one buffer of _BLOCK entries (256 KB,
cache-resident; one row if a row is wider) and is subtracted from the
block, so no tableau-sized temporary is allocated per iteration and
each entry receives the one product an outer-product update would
subtract.  Every solve is verified against its optimality certificate
before the result is returned.

Every check of an instance is made here, each a ValidationError raised
before anything is allocated: an integer m_phases >= 3 (read by
`check_m_phases`, which every caller that takes it calls first), a finite
log w^k at every point, and a tableau of at most _MAX_LP_ENTRIES floats.  One more check
reads the optimum: the weights enter as W = w^k / max w^k, and a point
whose W underflows to 0 drops out of the LP, so an optimum of 0 while
some W is 0 may stand for a positive one and is refused too.

Memory: a solve makes one tableau-sized array, the tableau
[F^T; 1 | I | e_last] of shape (n_x + 1, n_rows + n_x + 2), which is
also the shape the size cap reads.  The
constraint rows are written straight into its F^T block, one phase at a
time, and never exist elsewhere.  The right-hand side is the tableau's
last column, so a pivot eliminates it with every other entry.  After
the simplex the tableau is spent: F is written again into the first
n_rows * n_x entries of its buffer, and the multipliers and the
optimality certificate are read from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import as_int
from .errors import SolverFailure, ValidationError

_RC_TOL = 1e-9  # reduced-cost threshold
_PIV_TOL = 1e-9  # smallest acceptable pivot
_MAX_ITER = 50000  # per simplex phase; the largest solve seen takes a few hundred
_BLOCK = 2**15  # float64 entries of the pivot's block buffer: 256 KB, fits in L2
# float64 entries of the one tableau of a solve (256 MB; F is written into
# the tableau's memory after the simplex): about 100 times the largest
# benchmark instance (torus 16x16 at level 5, 0.34 M), above a torus 64x64
# at level 14 (31.4 M entries) and below one at level 15 (35.6 M, 285 MB)
_MAX_LP_ENTRIES = 2**25


def _pivot(tab, basis, row, col):
    """Pivot on (row, col) in place, in blocks of max(1, _BLOCK // width) rows.

    Every row but the pivot row subtracts c_i * r_j, computed into one
    block buffer, so each entry, the right-hand side column included,
    gets the bits of a row-by-row update.  A row the column does not
    reach (c_i == 0) subtracts +-0, which leaves its values unchanged but
    may turn a -0.0 into +0.0; no decision reads that sign (pricing, the
    ratio test, lexsort and the drive-out test treat +-0 alike).
    """
    m, width = tab.shape
    pivot_row = tab[row]
    pivot_row /= pivot_row[col]
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    step = max(1, _BLOCK // width)
    buf = np.empty((min(step, m), width))
    for first, stop in ((0, row), (row + 1, m)):
        for a in range(first, stop, step):
            b = min(a + step, stop)
            np.multiply.outer(colvals[a:b], pivot_row, out=buf[:b - a])
            np.subtract(tab[a:b], buf[:b - a], out=tab[a:b])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _run_simplex(tab, basis, cost, allowed):
    """Iterate to optimality on a tableau [A | I | rhs]; returns iteration count."""
    n_struct = tab.shape[1] - tab.shape[0] - 1
    iters = 0
    while True:
        iters += 1
        if iters > _MAX_ITER:
            raise SolverFailure("simplex iteration cap exceeded")
        reduced = cost[:allowed] - cost[basis] @ tab[:, :allowed]
        col = int(np.argmin(reduced))
        if not reduced[col] < -_RC_TOL:
            return iters
        column = tab[:, col]
        rows = np.flatnonzero(column > _PIV_TOL)
        if rows.size == 0:
            raise SolverFailure("standard-form LP unbounded; the min-max construction is broken")
        ratios = tab[rows, -1] / column[rows]
        best = ratios.min()
        at_best = rows[ratios == best]
        if at_best.size == 1:
            # the ratio is the lexicographic test's first key, so a row alone at the minimum wins
            row = int(at_best[0])
        else:
            # lexicographic comparison of [rhs | B^-1] rows scaled by the pivot; the slice is
            # [B^-1 | rhs] and lexsort reads its last key first: B^-1 columns m-1..0, then rhs
            tie = rows[ratios <= best + 1e-12]
            block = tab[tie, n_struct:] / column[tie, None]
            row = int(tie[np.lexsort((*block.T[-2::-1], block[:, -1]))[0]])
        _pivot(tab, basis, row, col)


def _two_phase(tab, c):
    """Two-phase simplex on the filled tableau [F^T; 1 | I | e_last].

    Returns (value, basis, iterations); tab is overwritten.
    """
    m = tab.shape[0]
    n = tab.shape[1] - m - 1
    basis = np.arange(n, n + m)
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    iters = _run_simplex(tab, basis, phase1_cost, n + m)
    if float(tab[basis >= n, -1].sum()) > 1e-7:
        raise SolverFailure("phase 1 ended infeasible")
    for row in range(m):  # drive artificial columns out of the basis when possible
        if basis[row] >= n:
            nz = np.flatnonzero(np.abs(tab[row, :n]) > 1e-7)
            if nz.size:
                _pivot(tab, basis, row, int(nz[0]))
    phase2_cost = np.concatenate([c, np.zeros(m)])
    iters += _run_simplex(tab, basis, phase2_cost, n)

    lam = np.zeros(n)
    in_struct = basis < n
    lam[basis[in_struct]] = tab[in_struct, -1]
    return float(c @ lam), basis, iters


def _multipliers(F, basis, c):
    """The multipliers pi of the final basis: its columns of [F^T; 1 | I], read from F."""
    n, m = F.shape[0], F.shape[1] + 1
    in_struct = basis < n
    basis_matrix = np.zeros((m, m))
    basis_cost = np.zeros(m)
    basis_matrix[:m - 1, in_struct] = F[basis[in_struct]].T
    basis_matrix[m - 1, in_struct] = 1.0
    basis_matrix[basis[~in_struct] - n, np.flatnonzero(~in_struct)] = 1.0
    basis_cost[in_struct] = c[basis[in_struct]]
    try:
        return np.linalg.solve(basis_matrix.T, basis_cost)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.lstsq(basis_matrix.T, basis_cost, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"no dual solution for the final basis: {exc}") from exc


def _fill_constraints(out, low_scaled, W, phases):
    """Write the constraint rows into `out`, an (n_rows, n_x) view of any layout.

    Real path (phases None): rows j and npts + j are W_j Re(l_j) and its
    negation.  Complex path: row p * npts + j is (Re, -Im)(phase_p l_j) W_j,
    computed one phase at a time.
    """
    d, npts = low_scaled.shape
    if phases is None:
        np.multiply(low_scaled.real, W, out=out[:npts].T)
        np.negative(out[:npts], out=out[npts:])
        return
    neg_W = -W
    for p, phase in enumerate(phases):
        rot = phase * low_scaled
        block = out[p * npts:(p + 1) * npts].T  # (2d, npts)
        np.multiply(rot.real, W, out=block[:d])
        np.multiply(rot.imag, neg_W, out=block[d:])  # (-a) * b and a * (-b) round alike


@dataclass
class MinimaxResult:
    """Certified solution of a monic min-max instance on one mesh.

    log_value is the log of the polygonal optimum t*; the true mesh
    min-max and the achieved norm of `coefficients` both lie in
    [log_value, log_value + log_bracket_factor].
    """

    log_value: float
    coefficients: np.ndarray  # complex, one per lower monomial
    bracket_factor: float  # 1.0 on the exact real path
    iterations: int
    real_path: bool
    feasibility_residual: float
    duality_gap: float

    @property
    def log_bracket_high(self) -> float:
        return self.log_value + math.log(self.bracket_factor)


def check_m_phases(m_phases) -> int:
    """m_phases read by `as_int` (32.0 reads 32); ValidationError below 3 phases."""
    if (m_phases := as_int(m_phases, "m_phases")) < 3:
        raise ValidationError(f"the polygon relaxation needs m_phases >= 3, got {m_phases}")
    return m_phases


def _check_zero_optimum(value: float, W: np.ndarray, log_weight_pow: np.ndarray) -> None:
    """Raise ValidationError when the optimum `value` is 0 but some W underflowed to 0."""
    if value <= 0 and not W.all():
        spread = float(log_weight_pow.max() - log_weight_pow.min())
        raise ValidationError(
            f"the min-max optimum reads 0, but w^k underflows to 0 relative to its maximum at "
            f"{W.size - np.count_nonzero(W)} of {W.size} mesh points (log w^k spreads over "
            f"{spread:.6g}), so the optimum may be positive")


def solve_minimax(lower_vals, target_vals, log_weight_pow, m_phases: int = 32) -> MinimaxResult:
    """Minimize max_zeta w^k |target(zeta) + sum_b a_b lower_b(zeta)| over complex a.

    `lower_vals` is (d, npts), `target_vals` (npts,), `log_weight_pow`
    the per-point log of w^k; an instance that fails a check of the
    module docstring raises ValidationError.
    Real-valued instances are solved exactly with two-sided constraints;
    otherwise the modulus is relaxed to a regular m_phases-gon, giving
    the certified bracket [t*, t*/cos(pi/m)].
    """
    lower_vals = np.asarray(lower_vals, dtype=complex)
    target_vals = np.asarray(target_vals, dtype=complex)
    log_weight_pow = np.asarray(log_weight_pow, dtype=float)
    d, npts = lower_vals.shape
    m_phases = check_m_phases(m_phases)
    if not np.all(np.isfinite(log_weight_pow)):
        raise ValidationError("log w^k is not finite at every mesh point "
                              "(a zero weight, or a power w^k beyond float range)")
    real_path = bool(np.all(lower_vals.imag == 0) and np.all(target_vals.imag == 0))
    n_rows, n_x = (2 * npts, d) if real_path else (m_phases * npts, 2 * d)
    shape = (n_x + 1, n_rows + n_x + 2)
    if math.prod(shape) > _MAX_LP_ENTRIES:
        raise ValidationError(
            f"the min-max LP for {d} lower monomials on {npts} mesh points with polygon_m={m_phases} "
            f"needs {math.prod(shape)} float64 entries, more than {_MAX_LP_ENTRIES}")

    shift = float(log_weight_pow.max())
    W = np.exp(log_weight_pow - shift)

    target_scale = float(np.max(W * np.abs(target_vals)))
    if d == 0 or target_scale == 0.0:
        # the class is {target} itself, or the target vanishes on the mesh
        # (then interpolation by zero coefficients is already optimal)
        _check_zero_optimum(target_scale, W, log_weight_pow)
        value = target_scale
        log_value = math.log(value) + shift if value > 0 else -math.inf
        return MinimaxResult(log_value, np.zeros(d, dtype=complex), 1.0, 0, real_path, 0.0, 0.0)

    col_scale = np.maximum(np.max(W * np.abs(lower_vals), axis=1), 1e-300)
    low_scaled = lower_vals / col_scale[:, None]
    tgt_scaled = target_vals / target_scale

    if real_path:
        phases = None
        g = np.concatenate([W * tgt_scaled.real, -(W * tgt_scaled.real)])
        bracket = 1.0
    else:
        phases = np.exp(2j * np.pi * np.arange(m_phases) / m_phases)
        rot_tgt = phases[:, None] * tgt_scaled[None, :]  # (m, npts)
        g = (rot_tgt.real * W[None, :]).reshape(-1)
        bracket = 1.0 / math.cos(math.pi / m_phases)

    # the standard form [F^T; 1] lam = e_last, lam >= 0, in one tableau [F^T; 1 | I | e_last]
    tab = np.zeros(shape)
    _fill_constraints(tab[:n_x, :n_rows].T, low_scaled, W, phases)
    tab[n_x, :n_rows] = 1.0
    tab[:, n_rows:-1] = np.eye(n_x + 1)
    tab[-1, -1] = 1.0
    c = -g
    value, basis, iters = _two_phase(tab, c)

    # F now takes the spent tableau's memory, in the layout that fixes the
    # bits of the certificate's gemv F @ u: column-major on the real path,
    # row-major on the complex path
    head = tab.reshape(-1)[:n_rows * n_x]
    F = head.reshape(n_x, n_rows).T if real_path else head.reshape(n_rows, n_x)
    _fill_constraints(F, low_scaled, W, phases)
    pi = _multipliers(F, basis, c)

    u = pi[:n_x]
    t_star = -pi[-1]
    t_lam = -value  # = g.lam, equal to t_star at optimality
    t_poly = float(np.max(F @ u + g))  # value achieved by the returned coefficients
    gap = abs(t_star - t_lam)
    feas = abs(t_poly - t_star)
    scale_ref = max(1.0, abs(t_star))
    if gap > 1e-5 * scale_ref or feas > 1e-5 * scale_ref:
        raise SolverFailure(
            f"optimality certificate failed (gap={gap:.3e}, achieved-vs-optimal={feas:.3e})"
        )

    if real_path:
        coeffs = (u / col_scale).astype(complex) * target_scale
    else:
        coeffs = (u[:d] + 1j * u[d:]) / col_scale * target_scale
    raw = max(t_poly, 0.0) * target_scale
    _check_zero_optimum(raw, W, log_weight_pow)
    log_value = math.log(raw) + shift if raw > 0 else -math.inf
    return MinimaxResult(log_value, coeffs, bracket, iters, real_path,
                         feasibility_residual=feas, duality_gap=gap)
