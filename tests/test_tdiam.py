import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctdiam import (
    BruteForce,
    Greedy,
    Polynomial,
    ReportOptions,
    build_mesh,
    build_report,
    chebyshev_constant,
    d_estimate_transform,
    d_estimate_vdm,
    delta_k,
    directional_constant,
    final_delta,
    leja_diameter,
    leja_sequence,
    lower_monomials,
    max_vdm,
    monomial_sequence,
    simplex_body,
    validate_body,
    vandermonde_det,
)
from ctdiam.errors import CtdiamError, DimensionMismatch, InsufficientSupport, SolverFailure, ValidationError
from ctdiam.mesh import Mesh
from ctdiam.order import CGREVLEX, GREVLEX, ORDERINGS
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


@pytest.mark.parametrize("entry", ["build_report", "final_delta_vdm", "final_delta_transform",
                                   "transform_grid"])
def test_polygon_below_three_phases_rejected_before_any_cell(monkeypatch, circle64, simplex1, entry):
    # a per-cell error in every transform cell would hide the bad input
    monkeypatch.setattr("ctdiam.tdiam.max_vdm", lambda *args: pytest.fail("max_vdm ran"))
    calls = {
        "build_report": lambda: build_report(circle64, simplex1, 2, ReportOptions(m_phases=2)),
        "final_delta_vdm": lambda: final_delta(circle64, simplex1, 2, route="vdm", m_phases=2),
        "final_delta_transform": lambda: final_delta(circle64, simplex1, 2, route="transform",
                                                     m_phases=-1),
        "transform_grid": lambda: transform_grid(circle64, simplex1, 2, m_phases=2),
    }
    with pytest.raises(ValidationError, match=r"m_phases >= 3, got -?[12]$"):
        calls[entry]()


@pytest.mark.parametrize("call, name", [
    (lambda mesh, body: build_report(mesh, body, 0), "k_max"),
    (lambda mesh, body: final_delta(mesh, body, 0), "k"),
    (lambda mesh, body: final_delta(mesh, body, -1, route="transform"), "k"),
], ids=["build_report", "final_delta_vdm", "final_delta_transform"])
def test_level_below_one_names_the_callers_parameter(mesh7, simplex1, call, name):
    with pytest.raises(ValidationError, match=f"^{name} must be >= 1$"):
        call(mesh7, simplex1)


@pytest.mark.parametrize("entry", ["build_report", "final_delta", "max_vdm", "vandermonde_det",
                                   "leja_sequence", "leja_diameter", "transform_grid"])
@pytest.mark.parametrize("mesh_dim, body_dim", [(2, 1), (1, 2)], ids=["mesh-wider", "mesh-narrower"])
def test_mesh_body_dimension_mismatch_rejected_before_any_work(monkeypatch, entry, mesh_dim, body_dim):
    # a wider mesh used to be read through its first coordinates only, a
    # narrower one failed with an IndexError; now neither gets to a lattice
    from ctdiam import leja_diameter, leja_sequence, max_vdm, vandermonde_det

    monkeypatch.setattr("ctdiam.body._lattice_points", lambda *args: pytest.fail("a lattice was built"))
    mesh = build_mesh({"kind": "torus", "counts": [6, 6]} if mesh_dim == 2
                      else {"kind": "circle", "count": 6})
    body = simplex_body(body_dim)
    calls = {
        "build_report": lambda: build_report(mesh, body, 2),
        "final_delta": lambda: final_delta(mesh, body, 2),
        "max_vdm": lambda: max_vdm(mesh, body, 2),
        "vandermonde_det": lambda: vandermonde_det(mesh, body, 1, [0, 1]),
        "leja_sequence": lambda: leja_sequence(mesh, body, 3),
        "leja_diameter": lambda: leja_diameter(mesh, body, 2),
        "transform_grid": lambda: transform_grid(mesh, body, 2),
    }
    with pytest.raises(DimensionMismatch) as exc:
        calls[entry]()
    assert str(exc.value) == f"mesh dimension {mesh_dim} != body dimension {body_dim}"


def test_report_preamble_names_the_first_of_two_faults(mesh7, simplex1, simplex2):
    # build_report and final_delta share one preamble: dimensions, m_phases, k, support;
    # final_delta checks its route before it
    with pytest.raises(ValidationError, match=r"^the polygon relaxation needs m_phases >= 3, got 2$"):
        build_report(mesh7, simplex1, 0, ReportOptions(m_phases=2))
    with pytest.raises(ValidationError, match=r"^unknown route 'other'$"):
        final_delta(mesh7, simplex2, 1, route="other")
    with pytest.raises(DimensionMismatch):
        final_delta(mesh7, simplex2, 0, m_phases=2)


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


def test_build_report_records_overflowing_monomial_as_cell_error(simplex1):
    # level 2 squares 1e200: the vdm and leja cells carry the error, not nan
    mesh = Mesh(1, [[-1], [0], [1], [2], [3], [1e200]], np.zeros(6))
    report = build_report(mesh, simplex1, 2, ReportOptions(include_leja=True))
    first, second = report.rows
    assert "vdm" not in first.errors and math.isfinite(first.log_vdm)
    assert "degree 2" in second.errors["vdm"] and second.log_vdm is None
    assert "degree 2" in second.errors["leja"]


_FIVE = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]


def _five_and_a_zero_weight_point(far):
    """The 5-point mesh of [-1, 1] plus the point `far` with weight 0."""
    return Mesh(1, _FIVE + [[far]], [0.0] * 5 + [-math.inf])


def test_report_reads_a_zero_weight_point_nowhere(simplex1):
    # 1e200 squared overflows, but a zero-weight point is no Leja, Fekete or LP
    # candidate: the report is the 5 supported points' report, bit for bit
    mesh = _five_and_a_zero_weight_point(1e200)
    report = build_report(mesh, simplex1, 3, ReportOptions(include_leja=True))
    five = build_report(Mesh(1, _FIVE, np.zeros(5)), simplex1, 3, ReportOptions(include_leja=True))
    assert all(row.errors == {} for row in report.rows)
    assert [row.leja_value for row in report.rows] == [2.0, 1.2599210498948732, 0.9531842929969366]
    assert report.rows == five.rows
    assert 5 not in leja_sequence(mesh, simplex1, 5).indices


def test_zero_weight_point_splits_no_problem_by_level(simplex1, count_solves):
    # every supported weight is 1, so each exponent's problem is solved once for all
    # levels, as on the unweighted 5 points; weighting the far point made it 14 solves
    calls = count_solves()
    report = build_report(_five_and_a_zero_weight_point(2.0), simplex1, 4)
    assert len(calls) == 5
    five = build_report(Mesh(1, _FIVE, np.zeros(5)), simplex1, 4)
    assert len(calls) == 10
    assert [row.d_transform for row in report.rows] == [row.d_transform for row in five.rows]


def test_build_report_records_an_infinite_weight_power_as_cell_error(simplex1):
    # log w = -1e308 is finite, but k * log w is -inf from level 2 on: the LP
    # refuses those instances, and only the transform cells carry the error
    log_weights = [0.0] * 4 + [-1e308] + [0.0] * 4
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 9,
                       "weight": {"kind": "table", "log_weights": log_weights}})
    report = build_report(mesh, simplex1, 3, ReportOptions(include_leja=True))
    assert report.rows[0].errors == {} and CGREVLEX in report.rows[0].d_transform
    for row in report.rows[1:]:
        assert set(row.errors) == {"transform:grevlex", "transform:cgrevlex"}
        assert row.d_transform == {}
        assert row.d_vdm is not None and row.leja_value is not None
    cell = transform_grid(mesh, simplex1, 2).rows[0].errors[CGREVLEX]
    assert cell.startswith("ValidationError: log w^k is not finite at every mesh point")


@pytest.mark.parametrize("spec, body", [
    ({"kind": "interval", "a": -1, "b": 1, "count": 9}, simplex_body(1)),
    ({"kind": "torus", "counts": [4, 4]}, simplex_body(2)),
], ids=["interval9", "torus4x4"])
def test_build_report_on_infinite_weight_powers_holds_no_nan(tmp_path, spec, body):
    # every log weight 1e308: selection sums, weight powers and the level-1
    # mean of log T leave the float range upward and read inf, without a
    # warning; a singular Vandermonde or Leja pick under them reads -inf
    size = math.prod(spec.get("counts", [spec.get("count")]))
    mesh = build_mesh({**spec, "weight": {"kind": "table", "log_weights": [1e308] * size}})
    report = build_report(mesh, body, 2, ReportOptions(include_leja=True))
    report_to_json(report, tmp_path / "report.json")
    report_to_csv(report, tmp_path / "diameter.csv")
    for name in ("report.json", "diameter.csv"):
        assert "nan" not in (tmp_path / name).read_text()
    assert [row.log_vdm for row in report.rows] == [math.inf, math.inf]
    assert report.final_delta_vdm == math.inf


def _interval9_with_middle_log_weight(value):
    return build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 9,
                       "weight": {"kind": "table", "log_weights": [0.0] * 4 + [value] + [0.0] * 4}})


def test_build_report_records_a_zero_optimum_on_underflowed_weights_as_cell_error(simplex1):
    # log w = 400 at the middle point: from level 2 on, the other points' w^k
    # underflow against the middle one's, where z^alpha vanishes, so the LP
    # optimum reads 0 (it used to report D_transform = 0); the LP refuses it
    mesh = _interval9_with_middle_log_weight(400.0)
    report = build_report(mesh, simplex1, 3, ReportOptions(include_leja=True))
    assert report.rows[0].errors == {} and CGREVLEX in report.rows[0].d_transform
    for row in report.rows[1:]:
        assert set(row.errors) == {"transform:grevlex", "transform:cgrevlex"}
        assert row.d_transform == {}
        assert row.d_vdm is not None and row.leja_value is not None
    cells = {row.alpha: row.errors.get(CGREVLEX) for row in transform_grid(mesh, simplex1, 2).rows}
    assert cells[(0,)] is None
    assert cells[(1,)].startswith("ValidationError: the min-max optimum reads 0, but w^k underflows")


def test_final_delta_reads_inf_where_the_length_scaled_power_overflows(simplex1):
    # log w = 1000 at the middle point: D = e^500.3 at level 1 is finite, and
    # D ** (1/A_N) with A_N = 1/2 is past the float range
    value, row = final_delta(_interval9_with_middle_log_weight(1000.0), simplex1, 1)
    assert math.isfinite(row.d_vdm) and row.d_vdm > 1e217
    assert value == math.inf


@pytest.mark.parametrize("orderings", [("lex",), (GREVLEX, "lex"), ()],
                         ids=["unknown", "one-unknown", "empty"])
def test_build_report_refuses_bad_orderings_before_any_level(monkeypatch, count_solves, mesh7, simplex1,
                                                             orderings):
    # an unknown name would fill every transform cell with its error, and an
    # empty tuple would report no transform route at all
    monkeypatch.setattr("ctdiam.tdiam.max_vdm", lambda *args: pytest.fail("max_vdm ran"))
    calls = count_solves()
    with pytest.raises(ValidationError, match=r"^orderings must be a non-empty sequence of names from "):
        build_report(mesh7, simplex1, 2, ReportOptions(orderings=orderings))
    assert calls == []


# each run option's malformed values, and the calls of each entry point that takes the option
BAD_OPTIONS = {
    "m_phases": [4.5, "32"],
    "orderings": [(), "cgrevlex", ("lex",)],
    "strategy": [Greedy(restarts=2.5), Greedy(restarts=True), BruteForce(cap="x")],
}
OPTION_CALLS = {
    "build_report": {
        "m_phases": lambda mesh, body, v: build_report(mesh, body, 2, ReportOptions(m_phases=v)),
        "orderings": lambda mesh, body, v: build_report(mesh, body, 2, ReportOptions(orderings=v)),
        "strategy": lambda mesh, body, v: build_report(mesh, body, 2, ReportOptions(strategy=v)),
    },
    "final_delta": {
        "m_phases": lambda mesh, body, v: final_delta(mesh, body, 2, route="transform", m_phases=v),
        "strategy": lambda mesh, body, v: final_delta(mesh, body, 2, strategy=v),
    },
    "transform_grid": {
        "m_phases": lambda mesh, body, v: transform_grid(mesh, body, 2, m_phases=v),
        "orderings": lambda mesh, body, v: transform_grid(mesh, body, 2, orderings=v),
    },
    "directional_constant": {
        "m_phases": lambda mesh, body, v: directional_constant(mesh, body, ("1/2",), [2], m_phases=v),
        "orderings": lambda mesh, body, v: directional_constant(mesh, body, ("1/2",), [2], orderings=v),
    },
    "d_estimate_transform": {
        "m_phases": lambda mesh, body, v: d_estimate_transform(mesh, body, 2, m_phases=v),
    },
    "chebyshev_constant": {
        "m_phases": lambda mesh, body, v: chebyshev_constant(mesh, body, 2, (2,), m_phases=v),
    },
    "max_vdm": {"strategy": lambda mesh, body, v: max_vdm(mesh, body, 2, v)},
    "delta_k": {"strategy": lambda mesh, body, v: delta_k(mesh, body, 2, v)},
}
OPTION_MESSAGES = {"m_phases": r"^m_phases must be an integer, got ",
                   "orderings": r"^orderings must be a non-empty sequence of names from ",
                   "strategy": r"^run\.strategy\.(restarts|cap) must be an integer, got "}


@pytest.mark.parametrize("entry, option, value", [
    pytest.param(entry, option, value, id=f"{entry}-{option}-{value!r}")
    for entry, calls in OPTION_CALLS.items() for option in calls for value in BAD_OPTIONS[option]])
def test_a_malformed_run_option_is_refused_by_its_owner_before_any_solve(count_solves, circle64, simplex1,
                                                                         entry, option, value):
    # a fractional or string m_phases once reached the tableau shape, a fractional
    # restart count a slice, and an empty orderings tuple returned an empty result
    calls = count_solves()
    with pytest.raises(ValidationError, match=OPTION_MESSAGES[option]):
        OPTION_CALLS[entry][option](circle64, simplex1, value)
    assert calls == []


def test_integral_floats_give_the_bits_of_their_ints(tmp_path, circle64, simplex1):
    # a level or m_phases of 2.0 or 32.0 runs as 2 or 32, down to report.json's bytes
    for name, k, m_phases in (("float", 2.0, 32.0), ("int", 2, 32)):
        report_to_json(build_report(circle64, simplex1, k, ReportOptions(m_phases=m_phases)),
                       tmp_path / f"{name}.json")
    assert (tmp_path / "float.json").read_bytes() == (tmp_path / "int.json").read_bytes()
    rec = chebyshev_constant(circle64, simplex1, 2.0, (2.0,), m_phases=32.0)
    assert rec == chebyshev_constant(circle64, simplex1, 2, (2,), m_phases=32)
    assert type(rec.k) is int and type(rec.alpha[0]) is int
    result = max_vdm(circle64, simplex1, 2.0)
    assert result == max_vdm(circle64, simplex1, 2) and type(result.value.k) is int


@pytest.mark.parametrize("call, name", [
    (lambda mesh, body: chebyshev_constant(mesh, body, 2, (1.9,)), "alpha"),
    (lambda mesh, body: lower_monomials(body, 2, (1.9,), GREVLEX), "alpha"),
    (lambda mesh, body: Polynomial({(1.9,): 1}), "exponent"),
    (lambda mesh, body: directional_constant(mesh, body, ("1/2",), [2.9, 4]), "schedule"),
    (lambda mesh, body: vandermonde_det(mesh, body, 1, [0.5, 3]), "point_indices"),
    (lambda mesh, body: max_vdm(mesh, body, 2.5), "k"),
    (lambda mesh, body: chebyshev_constant(mesh, body, 2.5, (2,)), "k"),
    (lambda mesh, body: build_report(mesh, body, 2.5), "k_max"),
    (lambda mesh, body: final_delta(mesh, body, 2.5), "k"),
    (lambda mesh, body: leja_diameter(mesh, body, 2.5), "k_max"),
    (lambda mesh, body: leja_sequence(mesh, body, 2.5), "count"),
    (lambda mesh, body: monomial_sequence(body, 2.5), "count"),
    (lambda mesh, body: transform_grid(mesh, body, 2.5), "k"),
    (lambda mesh, body: transform_grid(mesh, body, "2"), "k"),
], ids=["cheb-alpha", "lower-alpha", "polynomial-key", "schedule", "point-index", "max-vdm-k",
        "cheb-k", "report-k-max", "final-delta-k", "leja-k-max", "leja-count", "monomial-count", "grid-k", "grid-k-string"])
def test_a_non_integral_count_is_refused_naming_its_argument(count_solves, mesh7, simplex1, call, name):
    # int() once truncated these, so 1.9 solved alpha (1,) and point 0.5 read point 0
    calls = count_solves()
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        call(mesh7, simplex1)
    assert calls == []


def test_a_transform_cell_error_quotes_the_first_failed_rows_own_error(simplex1):
    # log w = -1e308: from level 2 on the LP refuses every instance, and the cell
    # error once listed only the failed exponents, not why they failed
    mesh = _interval9_with_middle_log_weight(-1e308)
    report = build_report(mesh, simplex1, 2)
    for ordering in ORDERINGS:
        assert report.rows[1].errors[f"transform:{ordering}"] == (
            f"transform rows failed for {ordering}: [(0,), (1,), (2,)]; the first: ValidationError: "
            "log w^k is not finite at every mesh point (a zero weight, or a power w^k beyond float range)")
    with pytest.raises(ValidationError, match=r"; the first: ValidationError: log w\^k is not finite"):
        d_estimate_transform(mesh, simplex1, 2)


def test_build_report_propagates_programming_errors(mesh5, simplex1, monkeypatch):
    import ctdiam.tdiam as tdiam_mod

    def broken(*args, **kwargs):
        raise TypeError("not a package error")

    monkeypatch.setattr(tdiam_mod, "max_vdm", broken)
    with pytest.raises(TypeError):
        build_report(mesh5, simplex1, 1)


def test_build_report_propagates_linalg_errors(mesh5, simplex1, monkeypatch):
    # only package errors become cell errors; numpy's own failures surface
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "slogdet", failing)
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
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
    with pytest.raises(ValidationError, match=r"; the first: not solved$"):
        transform_mean_log(table, CGREVLEX)


CACHE_BODIES = [
    simplex_body(1),
    simplex_body(2),
    validate_body([(("1", "0"), "1"), (("0", "1"), "1"), (("1", "1"), "3/2")], 2),  # pentagon
]


@st.composite
def report_cases(draw):
    body = draw(st.sampled_from(CACHE_BODIES))
    n = draw(st.integers(4, 10))
    points = [[draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1j, 0.5 - 1j]))
               for _ in range(body.dim)] for _ in range(n)]
    if draw(st.booleans()):
        log_weights = [0.0] * n
    else:
        log_weights = draw(st.lists(st.sampled_from([0.0, -0.5, 1.0, -math.inf]),
                                    min_size=n, max_size=n))
        log_weights[:body.dim + 1] = [0.25] * (body.dim + 1)  # enough support for level 1
    mesh = Mesh(body.dim, np.array(points), np.array(log_weights))
    return body, mesh, draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))


def _record_bits(rec):
    terms = sorted((beta, float(c.real).hex(), float(c.imag).hex())
                   for beta, c in rec.coefficients.terms.items())
    return (rec.k, rec.alpha, rec.ordering, float(rec.log_nu).hex(),
            float(rec.bracket_factor).hex(), rec.iterations, rec.real_path, terms)


@settings(deadline=None, max_examples=40)
@given(case=report_cases())
def test_report_transform_cache_matches_direct_solves(case):
    import ctdiam.tdiam as tdiam_mod

    body, mesh, k_max, workers = case
    tables = []

    def recording_grid(*args, **kwargs):
        tables.append(transform_grid(*args, **kwargs))
        return tables[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tdiam_mod, "transform_grid", recording_grid)
        build_report(mesh, body, k_max, ReportOptions(workers=workers))
    assert [table.k for table in tables] == list(range(1, k_max + 1))
    for table in tables:
        for row in table.rows:
            for ordering in table.orderings:
                try:
                    fresh = chebyshev_constant(mesh, body, table.k, row.alpha, ordering)
                except CtdiamError as exc:
                    assert row.errors[ordering] == f"{type(exc).__name__}: {exc}"
                    continue
                assert _record_bits(row.records[ordering]) == _record_bits(fresh)


@pytest.mark.parametrize("workers", [1, 2])
def test_report_solves_each_distinct_problem_once(count_solves, simplex2, workers):
    # levels 1..3 pose 19 exponents in two orders; on the unweighted simplex
    # the 10 exponents of level 3 are the only distinct problems
    calls = count_solves()
    mesh = build_mesh({"kind": "torus", "counts": [8, 8]})
    report = build_report(mesh, simplex2, 3, ReportOptions(workers=workers))
    assert len(calls) == 10
    assert all(not row.errors for row in report.rows)


def test_transform_workers_start_no_thread(tmp_path, monkeypatch, simplex2):
    # `workers` is accepted and ignored: every solve runs on the calling thread
    import threading

    from ctdiam.cheb import transform_to_csv

    mesh = build_mesh({"kind": "torus", "counts": [8, 8]})

    def outputs(name, grid_workers, report_workers):
        transform_to_csv(transform_grid(mesh, simplex2, 3, workers=grid_workers),
                         tmp_path / f"{name}-transform.csv")
        report = build_report(mesh, simplex2, 3, ReportOptions(workers=report_workers))
        report_to_csv(report, tmp_path / f"{name}-diameter.csv")
        report_to_json(report, tmp_path / f"{name}-report.json")
        payload = json.loads((tmp_path / f"{name}-report.json").read_text())
        return [(tmp_path / f"{name}-{file}").read_bytes()
                for file in ("transform.csv", "diameter.csv")], payload

    serial_files, serial_payload = outputs("serial", 1, 1)

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    files, payload = outputs("asked", 4, 2)
    assert files == serial_files
    # the echoed option is the one report.json difference
    assert (payload["options"].pop("workers"), serial_payload["options"].pop("workers")) == (2, 1)
    assert payload == serial_payload


def test_transform_cache_reuses_a_failed_problem(count_solves, mesh7, simplex1):
    # alpha = 1 has the lower set {0} at every level and in both orders
    calls = count_solves(fail_single_lower=True)
    cache = {}
    tables = [transform_grid(mesh7, simplex1, k, cache=cache) for k in (1, 2, 3)]
    assert calls.count(1) == 1
    assert len(calls) == 4  # the distinct exponents 0..3
    for table in tables:
        failed = [row for row in table.rows if row.errors]
        assert [row.alpha for row in failed] == [(1,)]
        assert failed[0].errors == {GREVLEX: "SolverFailure: injected",
                                    CGREVLEX: "SolverFailure: injected"}
        assert all(len(row.records) == 2 for row in table.rows if row.alpha != (1,))


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, _bits(v)) for key, v in value.items()]
    return value


def _row_bits(row):
    return [(name, _bits(getattr(row, name))) for name in row.__dataclass_fields__]


@settings(deadline=None, max_examples=40)
@given(case=report_cases(), route=st.sampled_from(["vdm", "transform"]))
def test_final_delta_is_the_last_report_row_of_one_level(case, route):
    import ctdiam.tdiam as tdiam_mod

    body, mesh, k, workers = case
    report = build_report(mesh, body, k, ReportOptions(include_leja=False, workers=workers))
    last = report.rows[-1]
    calls = []

    def counted(name):
        original = getattr(tdiam_mod, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    d_value = last.d_vdm if route == "vdm" else last.d_transform.get(CGREVLEX)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("max_vdm", "transform_grid", "check_dagger"):
            mp.setattr(tdiam_mod, name, counted(name))
        if d_value is None:
            with pytest.raises(ValidationError):
                final_delta(mesh, body, k, route=route)
        else:
            value, row = final_delta(mesh, body, k, route=route)
            assert value.hex() == (d_value ** (1.0 / report.a_n)).hex()
            assert _row_bits(row) == _row_bits(last)
    assert sorted(calls) == ["max_vdm", "transform_grid"]
    for ordering, d_transform in last.d_transform.items():
        assert d_estimate_transform(mesh, body, k, ordering=ordering).hex() == d_transform.hex()
