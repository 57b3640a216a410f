import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from ctdiam import ReportOptions, build_report, lp, parse_body_spec
from ctdiam.body import simplex_body
from ctdiam.cheb import chebyshev_constant, lower_monomials
from ctdiam.errors import SolverFailure, ValidationError
from ctdiam.lp import MinimaxResult, solve_minimax
from ctdiam.mesh import build_mesh, monomial_values
from ctdiam.order import CGREVLEX


def test_minimax_real_chebyshev_degree3():
    # classical: min over monic cubics of max |p| on [-1, 1] is 1/4
    x = -np.cos(np.pi * np.arange(401) / 400)
    lower = np.vstack([x**0, x**1, x**2]).astype(complex)
    target = (x**3).astype(complex)
    res = solve_minimax(lower, target, np.zeros(401))
    assert res.real_path and res.bracket_factor == 1.0
    assert math.exp(res.log_value) == pytest.approx(0.25, abs=2.5e-3)
    # optimal coefficients approximate z^3 - (3/4) z
    np.testing.assert_allclose(res.coefficients.real, [0, -0.75, 0], atol=2e-2)


def test_minimax_real_degree2_exact_coefficients():
    x = np.linspace(-1, 1, 201)
    lower = np.vstack([x**0, x**1]).astype(complex)
    res = solve_minimax(lower, (x**2).astype(complex), np.zeros(201))
    assert math.exp(res.log_value) == pytest.approx(0.5, abs=1e-4)
    np.testing.assert_allclose(res.coefficients.real, [-0.5, 0], atol=5e-3)


def test_minimax_complex_circle_monomial():
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    lower = np.vstack([z**a for a in range(3)])
    res = solve_minimax(lower, z**3, np.zeros(64), m_phases=32)
    assert not res.real_path
    assert res.bracket_factor == pytest.approx(1.0 / math.cos(math.pi / 32))
    # polygonal optimum below the true value 1, inside the bracket
    assert math.exp(res.log_value) <= 1.0 + 1e-9
    assert math.exp(res.log_bracket_high) >= 1.0 - 1e-9
    assert np.all(np.abs(res.coefficients) < 1e-6)


@pytest.mark.parametrize("complex_mesh", [True, False], ids=["complex", "real"])
def test_minimax_against_scipy_epigraph(complex_mesh):
    # cross-check the optimum against an independent epigraph LP: minimize t
    # subject to W Re(phase * (target + lower^T a)) <= t over every point and
    # phase, for complex a and 8 phases on a complex mesh (the polygonal
    # optimum) and for real a and the phases +-1 on a real mesh (the exact one)
    rng = np.random.default_rng(7)
    m = 8 if complex_mesh else 2
    phases = np.exp(2j * np.pi * np.arange(m) / m)
    for trial in range(20):
        lower, target, logw = _random_minimax(rng, complex_mesh)
        res = solve_minimax(lower, target, logw, m_phases=8)
        assert res.real_path is not complex_mesh
        d = lower.shape[0]
        W = np.exp(logw)
        rot_low = phases[:, None, None] * lower[None, :, :] * W
        rot_tgt = phases[:, None] * target[None, :] * W
        Fx = rot_low.real.transpose(0, 2, 1).reshape(-1, d)
        Fy = (-rot_low.imag).transpose(0, 2, 1).reshape(-1, d)
        blocks = [Fx, Fy] if complex_mesh else [Fx]
        A = np.hstack([*blocks, -np.ones((Fx.shape[0], 1))])
        b = -rot_tgt.real.reshape(-1)
        cost = np.zeros(A.shape[1])
        cost[-1] = 1.0
        ref = linprog(cost, A_ub=A, b_ub=b, bounds=[(None, None)] * A.shape[1], method="highs")
        assert ref.success
        assert math.exp(res.log_value) == pytest.approx(ref.fun, abs=1e-7 * max(1.0, ref.fun))


def test_minimax_weighted_shift_invariance():
    # adding a constant to all log weights shifts the optimum by exactly k * shift
    x = np.linspace(-1, 1, 51)
    lower = np.vstack([x**0]).astype(complex)
    target = (x**1).astype(complex)
    base = solve_minimax(lower, target, np.zeros(51))
    shifted = solve_minimax(lower, target, np.full(51, 250.0))
    assert shifted.log_value == pytest.approx(base.log_value + 250.0, abs=1e-9)


def test_minimax_empty_lower_class():
    x = np.linspace(0, 2, 5)
    res = solve_minimax(np.zeros((0, 5), dtype=complex), x.astype(complex), np.zeros(5))
    assert res.log_value == pytest.approx(math.log(2.0))
    assert res.iterations == 0 and res.bracket_factor == 1.0


def test_minimax_interpolation_reaches_zero():
    # one point, one free coefficient: the optimum is exactly zero
    res = solve_minimax(np.array([[1.0 + 0j]]), np.array([2.0 + 0j]), np.zeros(1))
    assert res.log_value == -math.inf


def test_minimax_rejects_infinite_weights():
    with pytest.raises(ValidationError, match=r"^log w\^k is not finite at every mesh point "):
        solve_minimax(np.zeros((0, 2), dtype=complex), np.ones(2, dtype=complex),
                      np.array([0.0, -math.inf]))


def test_minimax_rejects_degenerate_polygon():
    with pytest.raises(ValidationError, match="^the polygon relaxation needs m_phases >= 3, got 2$"):
        solve_minimax(np.ones((1, 3), dtype=complex), np.ones(3) + 1j, np.zeros(3), m_phases=2)


def _outer_product_pivot(tab, rhs, basis, row, col):
    """Reference pivot on [A | I] with a separate rhs: every reached row by one outer product."""
    piv = tab[row, col]
    tab[row] /= piv
    rhs[row] /= piv
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    mask = colvals != 0.0
    if mask.any():
        tab[mask] -= np.outer(colvals[mask], tab[row])
        rhs[mask] -= colvals[mask] * rhs[row]
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _random_minimax(rng, complex_mesh):
    npts, d = int(rng.integers(6, 30)), int(rng.integers(1, 5))
    z = rng.normal(size=npts) + (1j * rng.normal(size=npts) if complex_mesh else 0.0)
    lower = np.vstack([z**a for a in range(d)]).astype(complex)
    return lower, (z**d).astype(complex), rng.uniform(-1.0, 1.0, size=npts)


@pytest.mark.parametrize("complex_mesh", [False, True], ids=["real", "complex"])
def test_pivot_matches_outer_product_reference(complex_mesh):
    rng = np.random.default_rng(11 if complex_mesh else 10)
    instances = [_random_minimax(rng, complex_mesh) for _ in range(12)]
    block_pivot = [solve_minimax(*inst, m_phases=16) for inst in instances]
    outer_pivot = [_reference_minimax(*inst, m_phases=16, pivot=_outer_product_pivot)
                   for inst in instances]
    for new, ref in zip(block_pivot, outer_pivot):
        assert new.real_path is not complex_mesh
        assert new.log_value == ref.log_value
        assert new.iterations == ref.iterations > 0
        assert new.coefficients.tobytes() == ref.coefficients.tobytes()


def test_pivot_allocates_no_tableau_sized_temporary():
    # the shape of a level-5 complex transform LP on a 16x16 torus: 2*20 + 1
    # rows, 32 phases * 256 points + 41 artificial columns + the rhs column
    rng = np.random.default_rng(3)
    tab = rng.normal(size=(41, 8234))
    tab[:, -1] = rng.uniform(size=41)
    basis = np.arange(8192, 8233)
    tracemalloc.start()
    try:
        lp._pivot(tab, basis, 7, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tab.nbytes / 4
    assert basis[7] == 100 and tab[7, 100] == 1.0 and np.count_nonzero(tab[:, 100]) == 1


def _row_pivot(tab, rhs, basis, row, col):
    """Reference pivot on [A | I] with a separate rhs: one reached row at a time."""
    pivot_row = tab[row]
    piv = pivot_row[col]
    pivot_row /= piv
    rhs[row] /= piv
    colvals = tab[:, col].copy()
    colvals[row] = 0.0
    reached = np.flatnonzero(colvals)
    for i in reached:
        tab[i] -= colvals[i] * pivot_row
    rhs[reached] -= colvals[reached] * rhs[row]
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


@pytest.mark.parametrize("shape", [(41, 8234), (35, 4644), (23, 456)])
def test_block_pivot_matches_row_pivot(shape):
    # the largest torus-complex and pentagon tableaux, rhs column included
    # (blocks of 3 and 7 rows), and a small one (one block); pivot rows 0 and
    # m - 1 leave the rows before or after the pivot row empty, and the first
    # pivot column does not reach the even rows
    m, width = shape
    rng = np.random.default_rng(m)
    tab = rng.normal(size=shape)
    tab[::2, 5] = 0.0
    tab[:, -1] = rng.uniform(size=m)
    basis = np.arange(width - m - 1, width - 1)
    ref_tab, ref_rhs, ref_basis = tab[:, :-1].copy(), tab[:, -1].copy(), basis.copy()
    for row, col in [(1, 5), (0, 17), (m - 1, 40), (m // 2, 3), (m - 1, 9), (0, 2)]:
        lp._pivot(tab, basis, row, col)
        _row_pivot(ref_tab, ref_rhs, ref_basis, row, col)
    # array_equal: an unreached row may turn -0.0 into +0.0, which compares equal
    assert np.array_equal(tab, np.column_stack([ref_tab, ref_rhs]))
    assert np.array_equal(basis, ref_basis)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_block_pivot_solves_torus_like_row_pivot(weighted):
    # a complex torus 8x8 instance at level 4: 25 tableau rows in blocks of 15
    lower, target = _torus_instance(8, 4, (2, 2))
    logw = np.random.default_rng(4).uniform(-1.0, 1.0, 64) if weighted else np.zeros(64)
    new = solve_minimax(lower, target, logw)
    ref = _reference_minimax(lower, target, logw, pivot=_row_pivot)
    assert not new.real_path
    assert new.log_value == ref.log_value
    assert new.iterations == ref.iterations > 0
    assert new.coefficients.tobytes() == ref.coefficients.tobytes()


def test_block_pivot_peak_is_one_block_buffer():
    rng = np.random.default_rng(5)
    tab = rng.normal(size=(41, 8234))
    tab[:, -1] = rng.uniform(size=41)
    basis = np.arange(8192, 8233)
    tracemalloc.start()
    try:
        lp._pivot(tab, basis, 20, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * lp._BLOCK + tab[0].nbytes


def _reference_run_simplex(tab, rhs, basis, cost, allowed, n_struct, pivot):
    """Reference simplex on [A | I] with a separate rhs, as before the rhs became a column."""
    iters = 0
    while True:
        iters += 1
        if iters > lp._MAX_ITER:
            raise SolverFailure("simplex iteration cap exceeded")
        reduced = cost[:allowed] - cost[basis] @ tab[:, :allowed]
        col = int(np.argmin(reduced))
        if not reduced[col] < -lp._RC_TOL:
            return iters
        column = tab[:, col]
        rows = np.flatnonzero(column > lp._PIV_TOL)
        if rows.size == 0:
            raise SolverFailure("standard-form LP unbounded")
        ratios = rhs[rows] / column[rows]
        tie = rows[ratios <= ratios.min() + 1e-12]
        if tie.size == 1:
            row = int(tie[0])
        else:
            block = np.column_stack([rhs[tie], tab[tie, n_struct:]]) / column[tie, None]
            row = int(tie[np.lexsort(block.T[::-1])[0]])
        pivot(tab, rhs, basis, row, col)


def _reference_standard_form(B, h, c, pivot):
    """Reference solver: [Bw | I] built from a flipped copy of B, as by one hstack."""
    B = np.asarray(B, dtype=float)
    h = np.asarray(h, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = B.shape
    flip = h < 0
    Bw = B.copy()
    hw = h.copy()
    Bw[flip] *= -1.0
    hw[flip] *= -1.0

    tab = np.hstack([Bw, np.eye(m)])
    rhs = hw.copy()
    basis = np.arange(n, n + m)
    phase1_cost = np.concatenate([np.zeros(n), np.ones(m)])
    iters = _reference_run_simplex(tab, rhs, basis, phase1_cost, n + m, n, pivot)
    if float(rhs[basis >= n].sum()) > 1e-7 * max(1.0, float(np.abs(hw).max())):
        raise SolverFailure("phase 1 ended infeasible")
    for row in range(m):
        if basis[row] >= n:
            nz = np.flatnonzero(np.abs(tab[row, :n]) > 1e-7)
            if nz.size:
                pivot(tab, rhs, basis, row, int(nz[0]))
    phase2_cost = np.concatenate([c, np.zeros(m)])
    iters += _reference_run_simplex(tab, rhs, basis, phase2_cost, n, n, pivot)

    lam = np.zeros(n)
    in_struct = basis < n
    lam[basis[in_struct]] = rhs[in_struct]
    value = float(c @ lam)
    basis_matrix = np.zeros((m, m))
    basis_cost = np.zeros(m)
    basis_matrix[:, in_struct] = Bw[:, basis[in_struct]]
    basis_matrix[basis[~in_struct] - n, np.flatnonzero(~in_struct)] = 1.0
    basis_cost[in_struct] = c[basis[in_struct]]
    try:
        pi = np.linalg.solve(basis_matrix.T, basis_cost)
    except np.linalg.LinAlgError:
        pi = np.linalg.lstsq(basis_matrix.T, basis_cost, rcond=None)[0]
    pi[flip] *= -1.0
    return value, lam, pi, iters


def _reference_minimax(lower_vals, target_vals, log_weight_pow, m_phases=32, pivot=_outer_product_pivot):
    """Reference solver: F from Fx/Fy copies, then B = [F^T; 1] for the copying solver."""
    lower_vals = np.asarray(lower_vals, dtype=complex)
    target_vals = np.asarray(target_vals, dtype=complex)
    log_weight_pow = np.asarray(log_weight_pow, dtype=float)
    d, npts = lower_vals.shape if lower_vals.size else (0, target_vals.shape[0])
    shift = float(log_weight_pow.max())
    W = np.exp(log_weight_pow - shift)
    real_path = bool(np.all(lower_vals.imag == 0) and np.all(target_vals.imag == 0))
    target_scale = float(np.max(W * np.abs(target_vals)))
    if d == 0 or target_scale == 0.0:
        value = target_scale
        log_value = math.log(value) + shift if value > 0 else -math.inf
        return MinimaxResult(log_value, np.zeros(d, dtype=complex), 1.0, 0, real_path, 0.0, 0.0)

    col_scale = np.maximum(np.max(W * np.abs(lower_vals), axis=1), 1e-300)
    low_scaled = lower_vals / col_scale[:, None]
    tgt_scaled = target_vals / target_scale
    if real_path:
        base = (low_scaled.real * W).T
        F = np.vstack([base, -base])
        g = np.concatenate([W * tgt_scaled.real, -(W * tgt_scaled.real)])
        bracket = 1.0
        n_x = d
    else:
        phases = np.exp(2j * np.pi * np.arange(m_phases) / m_phases)
        rot_low = phases[:, None, None] * low_scaled[None, :, :]
        rot_tgt = phases[:, None] * tgt_scaled[None, :]
        Fx = (rot_low.real * W[None, None, :]).transpose(0, 2, 1).reshape(-1, d)
        Fy = (-rot_low.imag * W[None, None, :]).transpose(0, 2, 1).reshape(-1, d)
        F = np.hstack([Fx, Fy])
        g = (rot_tgt.real * W[None, :]).reshape(-1)
        bracket = 1.0 / math.cos(math.pi / m_phases)
        n_x = 2 * d

    B = np.vstack([F.T, np.ones((1, F.shape[0]))])
    h = np.zeros(n_x + 1)
    h[-1] = 1.0
    value, lam, pi, iters = _reference_standard_form(B, h, -g, pivot)
    u = pi[:n_x]
    t_star = -pi[-1]
    t_poly = float(np.max(F @ u + g))
    if real_path:
        coeffs = (u / col_scale).astype(complex) * target_scale
    else:
        coeffs = (u[:d] + 1j * u[d:]) / col_scale * target_scale
    raw = max(t_poly, 0.0) * target_scale
    log_value = math.log(raw) + shift if raw > 0 else -math.inf
    return MinimaxResult(log_value, coeffs, bracket, iters, real_path,
                         feasibility_residual=abs(t_poly - t_star),
                         duality_gap=abs(t_star - -value))


def _torus_instance(count, k, alpha):
    """Lower and target values of (k, alpha) for the simplex N=2 on a count x count torus."""
    mesh = build_mesh({"kind": "torus", "counts": [count, count]})
    lower = lower_monomials(simplex_body(2), k, alpha, CGREVLEX)
    return monomial_values(mesh.points, lower), monomial_values(mesh.points, [alpha])[0]


@pytest.mark.parametrize("kind", ["real", "complex", "unweighted", "torus"])
def test_minimax_bit_identical_to_copying_assembly(kind):
    rng = np.random.default_rng(20)
    if kind == "torus":
        instances = [(*_torus_instance(8, 4, alpha), np.zeros(64))
                     for alpha in simplex_body(2).lattice_points(4)]
    else:
        instances = [_random_minimax(rng, kind != "real") for _ in range(12)]
    if kind == "unweighted":
        instances = [(lower, target, np.zeros_like(logw)) for lower, target, logw in instances]
    for inst in instances:
        new, ref = solve_minimax(*inst, m_phases=16), _reference_minimax(*inst, m_phases=16)
        assert new.real_path is ref.real_path
        assert new.log_value == ref.log_value
        assert new.iterations == ref.iterations
        assert new.duality_gap == ref.duality_gap
        assert new.feasibility_residual == ref.feasibility_residual
        assert new.bracket_factor == ref.bracket_factor
        assert new.coefficients.tobytes() == ref.coefficients.tobytes()


def test_minimax_holds_only_f_and_one_tableau():
    # a level-5 complex transform LP on a 16x16 torus: the tableau has 41 rows
    # and 32 phases * 256 points + 41 + 1 columns; F, 8192 x 40, is written
    # into its memory after the simplex, so the one tableau bounds the peak
    lower, target = _torus_instance(16, 5, (5, 0))
    d, npts = lower.shape
    n_rows, n_x = 32 * npts, 2 * d
    tableau = 8 * (n_x + 1) * (n_rows + n_x + 2)
    tracemalloc.start()
    try:
        res = solve_minimax(lower, target, np.zeros(npts))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (d, npts) == (20, 256) and res.iterations > 0
    assert peak < 1.5 * tableau


def test_iteration_cap_fails_after_one_attempt(monkeypatch):
    # the cubic on 401 Chebyshev nodes needs 5 phase-1 iterations; a cap of 2
    # must raise at once, with no second simplex run under another pivot rule
    x = -np.cos(np.pi * np.arange(401) / 400)
    lower = np.vstack([x**0, x**1, x**2]).astype(complex)
    calls = []
    original = lp._run_simplex

    def spy(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(lp, "_MAX_ITER", 2)
    monkeypatch.setattr(lp, "_run_simplex", spy)
    with pytest.raises(SolverFailure, match="^simplex iteration cap exceeded$"):
        solve_minimax(lower, (x**3).astype(complex), np.zeros(401))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_lp_entries_counts_f_and_the_tableau(monkeypatch, kind):
    if kind == "real":
        x = -np.cos(np.pi * np.arange(41) / 40)
        lower, target = np.vstack([x**0, x**1, x**2]).astype(complex), (x**3).astype(complex)
    else:
        lower, target = _torus_instance(6, 2, (1, 1))
    tableaux, shared = [], []
    two_phase, multipliers = lp._two_phase, lp._multipliers

    def spy_two_phase(tab, cost):
        tableaux.append(tab)
        return two_phase(tab, cost)

    def spy_multipliers(F, basis, cost):
        shared.append(np.shares_memory(F, tableaux[-1]))
        return multipliers(F, basis, cost)

    monkeypatch.setattr(lp, "_two_phase", spy_two_phase)
    monkeypatch.setattr(lp, "_multipliers", spy_multipliers)
    res = solve_minimax(lower, target, np.zeros(target.shape[0]), m_phases=8)
    assert res.real_path == (kind == "real")
    d, npts = lower.shape
    n_rows, n_x = (2 * npts, d) if res.real_path else (8 * npts, 2 * d)
    assert [tab.size for tab in tableaux] == [(n_x + 1) * (n_rows + n_x + 2)]
    assert shared == [True]


def _scaled_ints(values):
    """Integers N and one power of two D with values[i] == N[i] / D exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    d = max(q for _, q in ratios)
    return [p * (d // q) for p, q in ratios], d


def _exact_bounds(F, basis, c, pi):
    """[lo, hi] around the exact optimum t* of the min-max LP the solver was posed.

    F and g = -c are floats, so the LP has exact (dyadic) data.  lo =
    g . lam for the final basis's exact lam (B lam = e_last): weak duality
    gives t* >= lo when lam >= 0 and every basic artificial is 0, which
    is asserted.  hi = max_r (F u + g)_r, exactly, for the solver's float
    u = pi[:n_x], a feasible point of the primal.
    """
    n, n_x = F.shape
    m = n_x + 1
    g = [-Fraction(x) for x in c.tolist()]
    # the basis columns of [F^T; 1 | I], augmented by e_last
    aug = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for col, j in enumerate(basis.tolist()):
        if j < n:
            for i in range(n_x):
                aug[i][col] = Fraction(F[j, i])
            aug[n_x][col] = Fraction(1)
        else:
            aug[j - n][col] = Fraction(1)
    aug[m - 1][m] = Fraction(1)
    for col in range(m):  # Gauss-Jordan elimination in exact arithmetic
        piv = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    lam = [aug[i][m] for i in range(m)]
    assert all(x >= 0 for x in lam)
    assert all(x == 0 for x, j in zip(lam, basis.tolist()) if j >= n)
    lo = sum(g[j] * x for x, j in zip(lam, basis.tolist()) if j < n)
    f_int, d_f = _scaled_ints(F.reshape(-1))
    u_int, d_u = _scaled_ints(pi[:n_x])
    g_int, d_g = _scaled_ints(-c)
    best = max(sum(a * b for a, b in zip(f_int[r * n_x:(r + 1) * n_x], u_int)) * d_g
               + g_int[r] * d_f * d_u for r in range(n))
    return lo, Fraction(best, d_f * d_u * d_g)


# the exact elimination of torus-complex's levels 4 and 5 would take seconds, so its
# report stops at level 3
_ORACLE_K_MAX = {"torus-complex": 3}


@pytest.mark.parametrize("workload, solves", [("interval-real", 12), ("cube3-real", 32),
                                              ("torus-complex", 9)])
def test_report_lps_lie_within_their_exact_bounds(monkeypatch, workload, solves):
    # every LP of the workload's seed-0 report: the float t_poly behind log_value lies in
    # [lo, hi] widened by 2 gamma_{n_x+1} max_r (|F| |u| + |g|)_r, a bound on the rounding of
    # F @ u + g in any summation order (the 2 covers evaluating the bound in float), and
    # the exact bracket [lo, hi] is narrow: the solver's basis is optimal to ~1e-12
    config = json.loads((Path(__file__).parents[1] / "bench" / "workloads"
                         / f"{workload}.json").read_text())
    k_max = _ORACLE_K_MAX.get(workload, config["run"]["k_max"])
    captured = []
    multipliers = lp._multipliers

    def capture(F, basis, c):
        pi = multipliers(F, basis, c)
        captured.append((F.copy(order="K"), basis.copy(), c.copy(), pi.copy()))
        return pi

    monkeypatch.setattr(lp, "_multipliers", capture)
    build_report(build_mesh(config["mesh"]), parse_body_spec(config["body"]),
                 k_max, ReportOptions())
    assert len(captured) == solves
    for F, basis, c, pi in captured:
        n_x = F.shape[1]
        u, g = pi[:n_x], -c
        t_poly = float(np.max(F @ u + g))
        unit = 2.0**-53
        gamma = (n_x + 1) * unit / (1 - (n_x + 1) * unit)
        slack = 2 * gamma * float(np.max(np.abs(F) @ np.abs(u) + np.abs(g)))
        lo, hi = _exact_bounds(F, basis, c, pi)
        assert lo - Fraction(slack) <= Fraction(t_poly) <= hi + Fraction(slack)
        assert 0 < lo <= hi
        assert (hi - lo) / lo < 1e-11


@pytest.mark.parametrize("target", [[0, 0, 5], [1, 1, 5]], ids=["target-vanishes", "after-simplex"])
def test_zero_optimum_on_underflowed_weights_is_refused(target):
    # W = exp(log w^k - max) underflows to 0 at the third point, so it drops
    # out of the LP; on the other two the target vanishes (shortcut) or the
    # constant interpolates it (simplex), and the optimum reads 0 though the
    # true one is positive, about e^-800 times the third point's residual
    with pytest.raises(ValidationError, match=r"^the min-max optimum reads 0, but w\^k underflows to 0 "
                                              r"relative to its maximum at 1 of 3 mesh points "
                                              r"\(log w\^k spreads over 800\)"):
        solve_minimax([[1, 1, 1]], target, [0.0, 0.0, -800.0])


def test_small_weights_that_do_not_underflow_keep_a_positive_optimum():
    result = solve_minimax([[1, 1, 1]], [1, 1, 5], [0.0, 0.0, -700.0])
    assert result.log_value == pytest.approx(math.log(4) - 700, rel=1e-12)


def test_chebyshev_constant_refuses_a_zero_optimum_on_underflowed_weights():
    # log w = 400 at the middle of 9 points: at k = 2 the other 8 points' W
    # underflow, z vanishes at the middle, and the optimum used to read -inf
    # although those 8 points keep weight 1
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 9,
                       "weight": {"kind": "table", "log_weights": [0] * 4 + [400] + [0] * 4}})
    body = simplex_body(1)
    assert math.isfinite(chebyshev_constant(mesh, body, 1, (1,)).log_nu)
    with pytest.raises(ValidationError, match=r"at 8 of 9 mesh points \(log w\^k spreads over 800\)"):
        chebyshev_constant(mesh, body, 2, (1,))
