import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ctdiam import build_mesh, chebyshev_constant, directional_constant, lower_monomials, transform_grid
from ctdiam.cheb import select_direction_exponent, solve_distinct, transform_to_csv
from ctdiam.errors import DimensionMismatch, SolverFailure, ThetaNotInterior, ValidationError
from ctdiam.mesh import weighted_sup_norm
from ctdiam.order import CGREVLEX, GREVLEX, cgrevlex_key, order_key


def test_lower_monomials_interval(simplex1):
    assert lower_monomials(simplex1, 3, (2,), GREVLEX) == [(0,), (1,)]
    assert lower_monomials(simplex1, 3, (2,), CGREVLEX) == [(0,), (1,)]


def test_lower_monomials_simplex2(simplex2):
    got = lower_monomials(simplex2, 2, (1, 1), GREVLEX)
    assert set(got) == {(0, 0), (0, 1), (1, 0), (0, 2)}


def test_lower_monomials_square(square):
    got = lower_monomials(square, 1, (1, 1), CGREVLEX)
    assert set(got) == {(0, 0), (0, 1), (1, 0)}


def test_lower_monomials_requires_membership(square):
    with pytest.raises(ValidationError):
        lower_monomials(square, 1, (2, 0), CGREVLEX)


@pytest.mark.parametrize("ordering", [GREVLEX, CGREVLEX])
@pytest.mark.parametrize("name", ["simplex2", "square", "skew_body", "pentagon", "cube3"])
def test_lower_monomials_match_key_filter(request, name, ordering):
    body = request.getfixturevalue(name)
    key = order_key(body, ordering)
    for k in range(7):
        pts = body.lattice_points(k)
        keys = [key(beta) for beta in pts]
        for alpha, cut in zip(pts, keys):
            want = [beta for beta, kb in zip(pts, keys) if kb < cut]
            assert lower_monomials(body, k, alpha, ordering) == want


def test_lower_monomials_outside_lattice(pentagon):
    # (-1, 1) has gauge 1 <= 2 but, with a negative entry, is no lattice point
    with pytest.raises(ValidationError, match=r"alpha=\(-1, 1\) is not a lattice point of level 2"):
        lower_monomials(pentagon, 2, (-1, 1), CGREVLEX)
    with pytest.raises(ValidationError, match=r"alpha=\(2, 2\) is not a lattice point of level 2"):
        lower_monomials(pentagon, 2, (2, 2), CGREVLEX)
    with pytest.raises(ValidationError, match="not a lattice point of level -1"):
        lower_monomials(pentagon, -1, (0, 0), GREVLEX)


def test_lower_monomials_are_sequence_predecessors(skew_body):
    for k in (1, 2, 3):
        pts = skew_body.lattice_points(k)
        for i, alpha in enumerate(pts):
            assert lower_monomials(skew_body, k, alpha, CGREVLEX) == pts[:i]


def test_cheb_circle_monomial(circle64, simplex1):
    rec = chebyshev_constant(circle64, simplex1, 1, (1,), GREVLEX)
    assert math.exp(rec.log_T) == pytest.approx(1.0, abs=6e-3)
    # rotational symmetry forces the centered monomial
    assert abs(rec.coefficients.terms.get((0,), 0.0)) < 1e-6
    assert rec.coefficients.is_monic_for((1,))


def test_cheb_interval_cubic(cheb401, simplex1):
    rec = chebyshev_constant(cheb401, simplex1, 3, (3,), CGREVLEX)
    assert math.exp(rec.log_nu) == pytest.approx(0.25, abs=2.5e-3)
    assert math.exp(rec.log_T) == pytest.approx(0.25 ** (1 / 3), abs=1e-3)
    assert rec.real_path and rec.bracket_factor == 1.0


def test_cheb_constant_class(cheb401, circle64, simplex1):
    for mesh in (cheb401, circle64):
        rec = chebyshev_constant(mesh, simplex1, 2, (0,), CGREVLEX)
        assert rec.log_nu == pytest.approx(0.0, abs=1e-14)  # (max w^k)=1
        assert set(rec.coefficients.terms) == {(0,)}


def test_cheb_record_invariants(cheb401, circle64, simplex1, square, torus16):
    cases = [
        (cheb401, simplex1, 4, (3,)),
        (circle64, simplex1, 3, (2,)),
        (torus16, square, 2, (1, 2)),
    ]
    for mesh, body, k, alpha in cases:
        for ordering in (GREVLEX, CGREVLEX):
            rec = chebyshev_constant(mesh, body, k, alpha, ordering)
            assert rec.coefficients.is_monic_for(alpha)
            key = order_key(body, ordering)
            for beta in rec.coefficients.terms:
                assert beta == alpha or key(beta) < key(alpha)
                assert body.gauge(beta) <= k
            achieved = weighted_sup_norm(mesh, rec.coefficients, k)
            assert rec.log_nu - 1e-7 <= achieved <= rec.log_bracket_high + 1e-7


def test_cheb_interpolation_zeroes_small_meshes(simplex1):
    # on {-1, 0, 1} the cubic class contains z^3 - z, which vanishes at all
    # three points; the solver must find the exact zero
    m3 = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 3, "spacing": "uniform"})
    rec = chebyshev_constant(m3, simplex1, 3, (3,), CGREVLEX)
    assert rec.log_nu == -math.inf
    assert rec.coefficients.terms[(1,)] == pytest.approx(-1.0)

    # z^4 aliases z^0 on the 4-point circle, so that class interpolates to
    # zero as well (numerically, far below any meaningful norm)
    m4 = build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 4})
    rec4 = chebyshev_constant(m4, simplex1, 4, (4,), CGREVLEX)
    assert rec4.log_nu < -30.0


def test_cheb_degenerate_weight(simplex1):
    mesh = build_mesh({"kind": "interval", "a": 0, "b": 1, "count": 3,
                       "weight": {"kind": "table", "log_weights": [0.0, -math.inf, -math.inf]}})
    rec = chebyshev_constant(mesh, simplex1, 1, (1,), GREVLEX)
    # one supported point: interpolation zeroes the class exactly
    assert rec.log_nu == -math.inf


def test_submultiplicative_on_real_meshes(cheb401, box_mesh, simplex1, square):
    rng = np.random.default_rng(2024)
    cases = [(cheb401, simplex1, 1), (box_mesh, square, 2)]
    for mesh, body, dim in cases:
        for _ in range(25):
            k1, k2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            pts1 = body.lattice_points(k1)
            pts2 = body.lattice_points(k2)
            a1 = pts1[int(rng.integers(0, len(pts1)))]
            a2 = pts2[int(rng.integers(0, len(pts2)))]
            r1 = chebyshev_constant(mesh, body, k1, a1, GREVLEX)
            r2 = chebyshev_constant(mesh, body, k2, a2, GREVLEX)
            r12 = chebyshev_constant(mesh, body, k1 + k2,
                                     tuple(x + y for x, y in zip(a1, a2)), GREVLEX)
            assert r12.log_nu <= r1.log_nu + r2.log_nu + 1e-6


def test_submultiplicative_bracketed_on_circle(circle64, simplex1):
    # on complex meshes the polygon bracket widens the certified inequality
    rng = np.random.default_rng(5)
    for _ in range(10):
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a1, a2 = int(rng.integers(0, k1 + 1)), int(rng.integers(0, k2 + 1))
        r1 = chebyshev_constant(circle64, simplex1, k1, (a1,), GREVLEX)
        r2 = chebyshev_constant(circle64, simplex1, k2, (a2,), GREVLEX)
        r12 = chebyshev_constant(circle64, simplex1, k1 + k2, (a1 + a2,), GREVLEX)
        assert r12.log_nu <= r1.log_bracket_high + r2.log_bracket_high + 1e-9


def test_power_stability_structure(cheb401, simplex1, box_mesh, square):
    # the optimal class polynomial raised to the j-th power keeps its
    # leading term under the graded order
    for mesh, body, k, alpha in [(cheb401, simplex1, 2, (2,)), (box_mesh, square, 1, (1, 1))]:
        rec = chebyshev_constant(mesh, body, k, alpha, CGREVLEX)
        for j in (2, 3):
            power = rec.coefficients
            for _ in range(j - 1):
                power = power * rec.coefficients
            j_alpha = tuple(j * a for a in alpha)
            assert power.is_monic_for(j_alpha)
            cut = cgrevlex_key(body, j_alpha)
            for beta in power.terms:
                assert body.gauge(beta) <= j * k
                assert beta == j_alpha or cgrevlex_key(body, beta) < cut


def test_scale_coherence_identical_instances(cheb401, circle64, simplex1):
    # unweighted graded classes for (j, alpha) and (k, alpha) coincide, so the
    # solver sees the same instance and returns bitwise-equal optima
    rng = np.random.default_rng(99)
    for mesh in (cheb401, circle64):
        for _ in range(10):
            j = int(rng.integers(1, 5))
            k = j + int(rng.integers(1, 4))
            alpha = (int(rng.integers(0, j + 1)),)
            rj = chebyshev_constant(mesh, simplex1, j, alpha, CGREVLEX)
            rk = chebyshev_constant(mesh, simplex1, k, alpha, CGREVLEX)
            assert rj.log_nu == rk.log_nu


def test_transform_grid_circle(circle256, simplex1):
    table = transform_grid(circle256, simplex1, 2, workers=1)
    assert len(table.rows) == 3
    for row in table.rows:
        for ordering in (GREVLEX, CGREVLEX):
            assert row.records[ordering].log_T == pytest.approx(0.0, abs=6e-3)


def test_transform_grid_interval(cheb401, simplex1):
    table = transform_grid(cheb401, simplex1, 2)
    nus = [math.exp(row.records[CGREVLEX].log_nu) for row in table.rows]
    assert nus == pytest.approx([1.0, 1.0, 0.5], abs=1e-3)
    assert [row.theta for row in table.rows] == [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),)]


def test_transform_row_upper_bound_single_point(square):
    mesh = build_mesh({"kind": "explicit", "points": [[0.3, 0.1, -0.2, 0.4]], "dim": 2})
    table = transform_grid(mesh, square, 1)
    from ctdiam.mesh import monomial_values

    for row in table.rows:
        bound = math.log(abs(monomial_values(mesh.points, [row.alpha])[0, 0]))
        for rec in row.records.values():
            assert rec.log_nu <= bound + 1e-9


def test_transform_grid_workers_deterministic(cheb401, simplex1):
    t1 = transform_grid(cheb401, simplex1, 3, workers=1)
    t2 = transform_grid(cheb401, simplex1, 3, workers=4)
    for r1, r2 in zip(t1.rows, t2.rows):
        for ordering in (GREVLEX, CGREVLEX):
            assert r1.records[ordering].log_nu == r2.records[ordering].log_nu


def test_transform_grid_isolates_row_failures(cheb401, simplex1, monkeypatch):
    import ctdiam.cheb as cheb_mod

    original = cheb_mod.solve_minimax

    def flaky(lower_vals, target_vals, log_weight_pow, m_phases=32):
        if lower_vals.shape[0] == 1:  # fail exactly one alpha
            raise SolverFailure("injected")
        return original(lower_vals, target_vals, log_weight_pow, m_phases)

    monkeypatch.setattr(cheb_mod, "solve_minimax", flaky)
    table = transform_grid(cheb401, simplex1, 2)
    failed = [row for row in table.rows if row.errors]
    ok = [row for row in table.rows if row.records]
    assert len(failed) == 1 and "SolverFailure" in failed[0].errors[CGREVLEX]
    assert len(ok) == 2


def test_transform_grid_records_iteration_cap_as_row_error(cheb401, simplex1, monkeypatch):
    from ctdiam import lp

    full = transform_grid(cheb401, simplex1, 3)
    # phases of alpha = 1, 2, 3 end after (3, 2), (4, 2) and (5, 3) iterations
    monkeypatch.setattr(lp, "_MAX_ITER", 4)
    capped = transform_grid(cheb401, simplex1, 3)
    assert [row.alpha for row in capped.rows if row.errors] == [(3,)]
    assert capped.rows[3].errors == {o: "SolverFailure: simplex iteration cap exceeded"
                                     for o in (GREVLEX, CGREVLEX)}
    for row, ref in zip(capped.rows[:3], full.rows):
        assert {o: r.log_nu for o, r in row.records.items()} == \
            {o: r.log_nu for o, r in ref.records.items()}


def test_transform_grid_records_a_failed_dual_solve_as_solver_failure(mesh7, simplex1, monkeypatch):
    # LAPACK fails on the final basis: solve raises, and so does its lstsq fallback
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "solve", failing)
    monkeypatch.setattr(np.linalg, "lstsq", failing)
    table = transform_grid(mesh7, simplex1, 1)
    assert [row.alpha for row in table.rows] == [(0,), (1,)]  # alpha = 0 needs no LP
    assert table.rows[0].errors == {}
    assert table.rows[1].errors == {o: "SolverFailure: no dual solution for the final basis: injected"
                                    for o in (GREVLEX, CGREVLEX)}


def test_transform_grid_propagates_programming_errors(mesh7, simplex1, monkeypatch):
    import ctdiam.cheb as cheb_mod

    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(cheb_mod, "solve_minimax", broken)
    with pytest.raises(TypeError):
        transform_grid(mesh7, simplex1, 1)


def test_transform_csv(tmp_path, cheb401, simplex1):
    table = transform_grid(cheb401, simplex1, 2)
    path = tmp_path / "transform.csv"
    transform_to_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("alpha,theta_1,gauge")
    assert len(lines) == 4


def test_select_direction_exponent(square, simplex2):
    assert select_direction_exponent(simplex2, (Fraction(1, 2), Fraction(1, 4)), 4) == (2, 1)
    # rounding both coordinates up would leave the level set; the larger
    # fraction is decremented first
    alpha = select_direction_exponent(simplex2, (Fraction(1, 2), Fraction(1, 2)), 3)
    assert simplex2.gauge(alpha) <= 3
    assert alpha in ((2, 1), (1, 2))


def test_directional_interval(cheb401, simplex1):
    res = directional_constant(cheb401, simplex1, ("1/2",), [8, 16])
    # classical monic values give T_k = 2**((1 - alpha_k)/k)
    for step in res.steps[CGREVLEX]:
        expect = 2.0 ** ((1 - step.alpha[0]) / step.k)
        assert math.exp(step.log_T) == pytest.approx(expect, rel=2e-3)
    assert res.final[CGREVLEX] == pytest.approx(2 ** (-7 / 16), rel=2e-3)
    assert res.final[GREVLEX] == pytest.approx(res.final[CGREVLEX], rel=1e-9)
    assert res.limit_guaranteed[CGREVLEX] and res.dagger_verdict == "holds-simplex"


def test_directional_iterates_past_the_float_range_read_inf(simplex1):
    # log w = 1000 everywhere: log T_k is near 1000, finite, but T_k is not;
    # the error proxy of two infinite iterates is inf - inf = nan
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 9,
                       "weight": {"kind": "table", "log_weights": [1000] * 9}})
    res = directional_constant(mesh, simplex1, ("1/2",), [2, 4])
    for ordering in (GREVLEX, CGREVLEX):
        assert all(math.isfinite(step.log_T) and step.log_T > 710 for step in res.steps[ordering])
        assert res.final[ordering] == math.inf
        assert math.isnan(res.error_proxy[ordering])


def test_directional_circle(circle256, simplex1):
    res = directional_constant(circle256, simplex1, ("1/2",), [4, 8, 12])
    assert res.final[CGREVLEX] == pytest.approx(1.0, abs=1e-2)
    assert res.error_proxy[CGREVLEX] < 1e-2


def test_directional_square_flags_heuristic_limit(box_mesh, square):
    res = directional_constant(box_mesh, square, ("1/2", "1/2"), [1, 2])
    assert res.dagger_verdict == "violated"
    assert not res.limit_guaranteed[CGREVLEX]
    assert res.limit_guaranteed[GREVLEX]


def test_directional_convexity_soft(cheb401, simplex1):
    # log T(theta) is convex in the limit; at finite levels the check holds
    # within the reported iterate errors
    schedule = [8, 16]
    thetas = {t: directional_constant(cheb401, simplex1, (t,), schedule)
              for t in (Fraction(1, 4), Fraction(3, 4))}
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        mid_theta = t * Fraction(1, 4) + (1 - t) * Fraction(3, 4)
        mid = directional_constant(cheb401, simplex1, (mid_theta,), schedule)
        lhs = math.log(mid.final[CGREVLEX])
        rhs = float(t) * math.log(thetas[Fraction(1, 4)].final[CGREVLEX]) + \
            (1 - float(t)) * math.log(thetas[Fraction(3, 4)].final[CGREVLEX])
        slack = (mid.error_proxy[CGREVLEX]
                 + thetas[Fraction(1, 4)].error_proxy[CGREVLEX]
                 + thetas[Fraction(3, 4)].error_proxy[CGREVLEX])
        assert lhs <= rhs + slack + 1e-9


def test_theta_not_interior(cheb401, circle256, simplex1, square, box_mesh):
    with pytest.raises(ThetaNotInterior):
        directional_constant(cheb401, simplex1, ("1",), [2, 4])
    with pytest.raises(ThetaNotInterior):
        directional_constant(cheb401, simplex1, ("3/2",), [2, 4])
    with pytest.raises(ThetaNotInterior):
        directional_constant(box_mesh, square, ("0", "1/2"), [1, 2])


def test_directional_solves_each_distinct_problem_once(torus16, simplex2, count_solves):
    # on a simplex both orders pose the same problem at every level
    theta, schedule = (Fraction(1, 3), Fraction(1, 3)), [3, 6, 9]
    calls = count_solves()
    res = directional_constant(torus16, simplex2, theta, schedule)
    assert len(calls) == 3
    for ordering in (GREVLEX, CGREVLEX):
        for step in res.steps[ordering]:
            rec = chebyshev_constant(torus16, simplex2, step.k, step.alpha, ordering)
            assert step.log_T == rec.log_T


def test_directional_solves_both_orders_on_a_box(torus16, square, count_solves):
    # the orders differ on the box, so every (level, ordering) pair is its own problem
    calls = count_solves()
    directional_constant(torus16, square, (Fraction(1, 2), Fraction(1, 3)), [3, 6, 9])
    assert len(calls) == 6


def test_directional_decides_the_verdict_without_witness_pairs(box_mesh, square, monkeypatch):
    import ctdiam.body as body_mod
    import ctdiam.cheb as cheb_mod

    verdicts = []

    def verdict(body, k_max):
        verdicts.append(k_max)
        return body_mod._dagger_verdict(body, k_max)

    monkeypatch.setattr(cheb_mod, "_dagger_verdict", verdict)
    monkeypatch.setattr(body_mod, "check_dagger", None)
    res = directional_constant(box_mesh, square, ("1/2", "1/2"), [1, 2])
    assert verdicts == [2] and res.dagger_verdict == "violated"


def test_directional_raises_solver_failure(cheb401, simplex1, monkeypatch):
    import ctdiam.cheb as cheb_mod

    def failing(*args, **kwargs):
        raise SolverFailure("injected")

    monkeypatch.setattr(cheb_mod, "solve_minimax", failing)
    with pytest.raises(SolverFailure, match="^injected$"):
        directional_constant(cheb401, simplex1, ("1/2",), [4, 8])


@pytest.mark.parametrize("theta, schedule, message", [
    (("1/3", "1/3"), [2, 4], "^theta has dimension 2, body has 1$"),
    (("1/3",), [6, 3], "^schedule must be a strictly increasing list of positive levels$"),
], ids=["theta-wrong-length", "schedule-decreasing"])
def test_directional_refuses_a_malformed_direction_or_schedule(mesh7, simplex1, theta, schedule, message):
    with pytest.raises(ValidationError, match=message):
        directional_constant(mesh7, simplex1, theta, schedule)


def test_transform_grid_refuses_a_level_below_one(mesh7, simplex1):
    with pytest.raises(ValidationError, match=r"^transform grid needs k >= 1$"):
        transform_grid(mesh7, simplex1, 0)


def test_directional_names_theta_in_rational_errors(cheb401, simplex1):
    with pytest.raises(ValidationError, match="^theta: not an exact rational: 'abc'"):
        directional_constant(cheb401, simplex1, ("abc",), [4, 8])


def _lp_entries(d, npts, m_phases, real_path):
    """float64 entries of the tableau of a min-max LP with d lower monomials."""
    n_rows, n_x = (2 * npts, d) if real_path else (m_phases * npts, 2 * d)
    return (n_x + 1) * (n_rows + n_x + 2)


def test_oversized_lp_is_refused_before_solving(torus16, simplex2, monkeypatch):
    import ctdiam.lp as lp_mod

    # a complex LP of 32 * 256 rows
    needed = _lp_entries(len(lower_monomials(simplex2, 2, (2, 0), CGREVLEX)), 256, 32, False)
    calls = []
    two_phase = lp_mod._two_phase
    monkeypatch.setattr(lp_mod, "_two_phase", lambda *args: calls.append(1) or two_phase(*args))
    monkeypatch.setattr(lp_mod, "_MAX_LP_ENTRIES", needed - 1)
    with pytest.raises(ValidationError) as exc:
        chebyshev_constant(torus16, simplex2, 2, (2, 0), CGREVLEX)
    assert calls == []
    message = str(exc.value)
    assert "5 lower monomials" in message and "256 mesh points" in message and "polygon_m=32" in message
    assert f"needs {needed} float64 entries, more than {needed - 1}" in message
    monkeypatch.setattr(lp_mod, "_MAX_LP_ENTRIES", needed)
    chebyshev_constant(torus16, simplex2, 2, (2, 0), CGREVLEX)
    assert len(calls) == 1


def test_oversized_lp_is_a_row_error_in_the_grid(cheb401, simplex1, monkeypatch):
    import ctdiam.lp as lp_mod

    monkeypatch.setattr(lp_mod, "_MAX_LP_ENTRIES", 0)
    table = transform_grid(cheb401, simplex1, 2)
    assert all(row.errors and not row.records for row in table.rows)
    assert "polygon_m=32" in table.rows[1].errors[CGREVLEX]


def test_lp_limit_sits_between_benchmark_and_oversized_instances():
    import ctdiam.lp as lp_mod

    # torus 16x16, simplex N=2, level 5: at most 20 lower monomials on 256 points
    assert _lp_entries(20, 256, 32, False) * 50 < lp_mod._MAX_LP_ENTRIES
    # torus 64x64, simplex N=2: level 14 (119 lower monomials on 4096 points,
    # 31.4 M entries) is admitted, level 15 (135, 35.6 M entries) is refused
    assert _lp_entries(119, 4096, 32, False) <= lp_mod._MAX_LP_ENTRIES
    assert _lp_entries(135, 4096, 32, False) > lp_mod._MAX_LP_ENTRIES


def test_chebyshev_constant_keeps_only_nonzero_terms(simplex1):
    # on {-1, 0, 1} the monic cubic of least norm is z^3 - z, which vanishes there; the
    # LP's zero coefficients of 1 and z^2 leave no term
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 3, "spacing": "uniform"})
    rec = chebyshev_constant(mesh, simplex1, 3, (3,))
    assert list(rec.coefficients.terms) == [(3,), (1,)]
    assert rec.coefficients.terms == {(3,): 1, (1,): -1}
    assert rec.log_nu == -math.inf


@pytest.mark.parametrize("fault, error, message", [
    ("dimension", DimensionMismatch, "mesh dimension 1 != body dimension 2"),
    ("m_phases", ValidationError, "the polygon relaxation needs m_phases >= 3, got 2"),
], ids=["mesh-of-another-dimension", "two-phases"])
def test_solve_distinct_raises_a_bad_instance_before_solving(mesh7, simplex1, simplex2, count_solves,
                                                             fault, error, message):
    # the instance checks raise once, for every caller, instead of one error per task
    body, m_phases = (simplex2, 32) if fault == "dimension" else (simplex1, 2)
    theta = ("1/4",) * body.dim
    alpha = select_direction_exponent(body, theta, 2)
    calls = count_solves()
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        solve_distinct(mesh7, body, 2, [(alpha, GREVLEX), (alpha, CGREVLEX)], m_phases)
    assert type(exc.value) is error
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        directional_constant(mesh7, body, theta, [2, 4], m_phases=m_phases)
    assert type(exc.value) is error
    assert calls == []
