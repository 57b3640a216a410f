import json
import math

import numpy as np
import pytest

from ctdiam import (
    BruteForce,
    Greedy,
    ReportOptions,
    build_mesh,
    build_report,
    d_estimate_transform,
    d_estimate_vdm,
    delta_k,
    final_delta,
)
from ctdiam.errors import InsufficientSupport
from ctdiam.mesh import Mesh
from ctdiam.order import CGREVLEX, GREVLEX
from ctdiam.tdiam import report_to_csv, report_to_json, transform_mean_log
from ctdiam.cheb import transform_grid


def test_delta_k_five_points(mesh5, simplex1):
    assert delta_k(mesh5, simplex1, 2, BruteForce()) == pytest.approx(2 ** (1 / 3), abs=1e-12)


def test_delta_k_circle_finite_level_value(circle256, simplex1):
    # the best 9 of 256 roots of unity are near-equispaced, so V is close to
    # the 9-point discriminant bound 9**4.5 and delta_8 close to 9**(1/8);
    # the classical limit 1.0 is approached only slowly in this normalization
    value = delta_k(circle256, simplex1, 8, Greedy(restarts=2))
    assert value <= 9.0 ** (1 / 8) + 1e-9
    assert value == pytest.approx(9.0 ** (1 / 8), abs=2e-3)


def test_delta_consistency_identity(mesh5, simplex1):
    m_k, _, l_k = simplex1.counts(2)
    d = d_estimate_vdm(mesh5, simplex1, 2, BruteForce())
    assert delta_k(mesh5, simplex1, 2, BruteForce()) == pytest.approx(d ** (2 * m_k / l_k), abs=1e-12)


def test_d_vdm_interval_between_sandwich_sides(cheb401, simplex1):
    # D_vdm sits between the transform mean and its factorial inflation
    k = 8
    d_vdm = d_estimate_vdm(cheb401, simplex1, k, Greedy(restarts=2))
    d_tr = d_estimate_transform(cheb401, simplex1, k)
    m_k, _, _ = simplex1.counts(k)
    inflation = math.exp(math.lgamma(m_k + 1) / (k * m_k))
    assert d_tr - 1e-6 <= d_vdm <= d_tr * inflation + 1e-6


def test_d_transform_interval_matches_classical_mean(cheb401, simplex1):
    # classical monic norms: nu(0) = 1 and nu(alpha) = 2**(1-alpha) for
    # alpha >= 1, so the level-8 lattice mean is 2**(-28/72) = 2**(-7/18)
    value = d_estimate_transform(cheb401, simplex1, 8)
    assert value == pytest.approx(2.0 ** (-7 / 18), abs=2e-4)


def test_d_transform_circle(circle256, simplex1):
    for ordering in (GREVLEX, CGREVLEX):
        value = d_estimate_transform(circle256, simplex1, 8, ordering=ordering)
        assert value == pytest.approx(1.0, abs=0.02)


def test_d_transform_zero_when_interpolation_kills_class(simplex1):
    mesh = build_mesh({"kind": "explicit", "points": [[0.0, 0.0]], "dim": 1})
    assert d_estimate_transform(mesh, simplex1, 1) == 0.0


def test_d_transform_cell_quadrature_cross_validation(cheb401, simplex1):
    lattice = d_estimate_transform(cheb401, simplex1, 12)
    cells = d_estimate_transform(cheb401, simplex1, 12, method="cell-quadrature")
    assert abs(math.log(cells) - math.log(lattice)) < 0.05


def test_route_agreement_bounded_by_factorial(mesh7, simplex1):
    # the gap between the two routes is controlled by log(M_k!)/(k M_k)
    for k in (1, 2, 3):
        d_vdm = d_estimate_vdm(mesh7, simplex1, k, BruteForce())
        d_tr = d_estimate_transform(mesh7, simplex1, k)
        m_k, _, _ = simplex1.counts(k)
        bound = math.lgamma(m_k + 1) / (k * m_k)
        assert abs(math.log(d_vdm) - math.log(d_tr)) <= bound + 1e-5


def test_final_delta_interval_transform_route(cheb401, simplex1):
    value, row = final_delta(cheb401, simplex1, 12, route="transform")
    assert value == pytest.approx(0.5564, abs=5e-3)
    assert row.k == 12


def test_final_delta_circle_transform_route(circle256, simplex1):
    value, row = final_delta(circle256, simplex1, 8, route="transform")
    assert value == pytest.approx(1.0, abs=0.03)


def test_final_delta_torus(torus16, square):
    # all class optima are exactly 1 on the product mesh (discrete mean-value
    # bound, no aliasing at this level), so the transform route returns 1
    value, row = final_delta(torus16, square, 2, route="transform")
    assert value == pytest.approx(1.0, abs=0.02)
    d_tr = row.d_transform[CGREVLEX]
    inflation = math.exp(math.lgamma(row.m_k + 1) / (row.k * row.m_k))
    assert d_tr - 1e-9 <= row.d_vdm <= d_tr * inflation + 1e-9


def test_leja_between_fekete_bounds_normalized(mesh7, simplex1):
    # (running determinant at M_k) ** (1/L_k) sits between the exact k-th
    # order diameter and its factorial deflation
    from ctdiam import leja_diameter, max_vdm

    report = leja_diameter(mesh7, simplex1, 3)
    for row in report.rows:
        exact = max_vdm(mesh7, simplex1, row.k, BruteForce())
        upper = math.exp(exact.value.log_abs / row.l_k)
        lower = math.exp((exact.value.log_abs - math.lgamma(row.m_k + 1)) / row.l_k)
        assert lower - 1e-9 <= row.value <= upper + 1e-9


def test_scaling_like_a_length(mesh5, simplex1):
    for c in (0.5, 3.0):
        scaled = mesh5.scaled(c)
        base = delta_k(mesh5, simplex1, 2, BruteForce())
        assert delta_k(scaled, simplex1, 2, BruteForce()) == pytest.approx(c * base, rel=1e-12)


def test_build_report_circle(circle256, simplex1):
    options = ReportOptions(strategy=Greedy(restarts=2), include_leja=True)
    report = build_report(circle256, simplex1, 8, options)
    assert len(report.rows) == 8
    assert all(not r.errors for r in report.rows)
    assert report.dagger_verdict == "holds-simplex"
    assert report.a_n == pytest.approx(0.5, abs=1e-12)
    last = report.rows[-1]
    assert last.d_transform[CGREVLEX] == pytest.approx(1.0, abs=0.02)
    assert last.d_transform[GREVLEX] == pytest.approx(last.d_transform[CGREVLEX], abs=5e-3)
    assert report.final_delta_transform == pytest.approx(1.0, abs=0.03)
    # determinant-route values carry the factorial bias at finite level
    assert last.delta == pytest.approx(9 ** (1 / 8), abs=2e-3)
    assert last.leja_value == pytest.approx(1.2844147, abs=1e-5)
    assert report.final_delta_vdm == pytest.approx(last.delta, rel=1e-12)


def test_build_report_sandwich_flag_small_mesh(mesh7, simplex1):
    options = ReportOptions(strategy=BruteForce())
    report = build_report(mesh7, simplex1, 3, options)
    for row in report.rows:
        assert row.exact is True
        assert row.sandwich_consistent is True


def test_build_report_isolates_failures(mesh5, simplex1):
    # level 5 needs 6 points but the mesh has 5: the vdm/leja columns fail,
    # the transform columns still fill in
    report = build_report(mesh5, simplex1, 5, ReportOptions(strategy=BruteForce(), include_leja=True))
    last = report.rows[-1]
    assert "vdm" in last.errors
    assert CGREVLEX in last.d_transform
    assert report.rows[0].log_vdm is not None


def test_build_report_collinear_mesh(collinear9, simplex2):
    # no point triple is unisolvent: the determinant cells read -inf, not errors
    report = build_report(collinear9, simplex2, 1, ReportOptions(include_leja=True))
    row = report.rows[0]
    assert row.errors == {}
    assert row.log_vdm == -math.inf and row.d_vdm == 0.0
    assert row.leja_value == 0.0


def test_build_report_propagates_programming_errors(mesh5, simplex1, monkeypatch):
    import ctdiam.tdiam as tdiam_mod

    def broken(*args, **kwargs):
        raise TypeError("not a package error")

    monkeypatch.setattr(tdiam_mod, "max_vdm", broken)
    with pytest.raises(TypeError):
        build_report(mesh5, simplex1, 1)


def test_build_report_rejects_empty_support(simplex1):
    mesh = build_mesh({"kind": "interval", "a": 0, "b": 1, "count": 4})
    lw = np.full(4, -math.inf)
    lw[0] = 0.0
    crippled = Mesh(1, mesh.points, lw)
    with pytest.raises(InsufficientSupport):
        build_report(crippled, simplex1, 2, ReportOptions(strategy=BruteForce()))


def test_report_serialization(tmp_path, mesh7, simplex1):
    report = build_report(mesh7, simplex1, 2, ReportOptions(strategy=BruteForce(), include_leja=True))
    csv_path = tmp_path / "diameter.csv"
    json_path = tmp_path / "report.json"
    report_to_csv(report, csv_path)
    report_to_json(report, json_path, config_echo={"note": "test"})
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[:5] == ["k", "M_k", "h_k", "L_k", "logV"]
    assert len(lines) == 3
    payload = json.loads(json_path.read_text())
    assert payload["dagger_verdict"] == "holds-simplex"
    assert len(payload["rows"]) == 2
    # CSV rows re-parse to the JSON values
    row2 = lines[2].split(",")
    assert float(row2[4]) == pytest.approx(payload["rows"][1]["log_vdm"])
    assert float(row2[6]) == pytest.approx(payload["rows"][1]["delta"])


def test_transform_mean_log_requires_complete_rows(mesh7, simplex1):
    table = transform_grid(mesh7, simplex1, 2, orderings=(GREVLEX,))
    with pytest.raises(Exception):
        transform_mean_log(table, CGREVLEX)
