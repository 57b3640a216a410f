"""Transfinite-diameter estimates and the per-level consistency report.

Two routes are assembled side by side.  The determinant route reads the
maximal Vandermonde value V_k and normalizes it two ways: the k-th order
diameter V_k^(1/L_k) and the size estimate D = V_k^(1/(k M_k)).  The
transform route averages the per-exponent Chebyshev logs over the
level-k lattice; the factorial sandwich
    prod T^k <= V_k <= M_k! * prod T^k
pins the two routes together within log(M_k!)/(k M_k) whenever V_k is
exact, which is also why the determinant route carries a finite-k bias
of that size.  The final length-scaled diameter is D ** (1/A) with A the
volume-averaged coordinate sum of the body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .body import ConvexBody, as_fraction, as_int, average_total_degree, check_dagger
from .cheb import TransformTable, transform_grid
from .errors import CtdiamError, ValidationError
from .leja import leja_diameter
from .lp import check_m_phases
from .mesh import Mesh, check_dimensions, check_support, exp_or_inf
from .order import CGREVLEX, GREVLEX, ORDERINGS, check_orderings
from .serialize import fmt, write_csv, write_json
from .vdm import Greedy, MaxVdmResult, max_vdm, strategy_from_config


def delta_k(mesh: Mesh, body: ConvexBody, k: int, strategy=None) -> float:
    """k-th order diameter: max |VDM| to the power 1/L_k."""
    result = max_vdm(mesh, body, k, strategy)
    _, _, l_k = body.counts(k)
    return exp_or_inf(result.value.log_abs / l_k)


def d_estimate_vdm(mesh: Mesh, body: ConvexBody, k: int, strategy=None) -> float:
    """Size estimate from the determinant route: max |VDM| to the power 1/(k M_k)."""
    result = max_vdm(mesh, body, k, strategy)
    m_k, _, _ = body.counts(k)
    return exp_or_inf(result.value.log_abs / (k * m_k))


def transform_mean_log(table: TransformTable, ordering: str) -> float:
    """Mean over the level lattice of log T_k; requires every row solved, else the
    error names the failed exponents and quotes the first one's own error."""
    failed = [row for row in table.rows if ordering not in row.records]
    if failed:
        raise ValidationError(f"transform rows failed for {ordering}: {[row.alpha for row in failed]}; "
                              f"the first: {failed[0].errors.get(ordering, 'not solved')}")
    with np.errstate(over="ignore"):  # a mean past the float range reads inf
        return float(np.mean([row.records[ordering].log_T for row in table.rows]))


def d_estimate_transform(mesh: Mesh, body: ConvexBody, k: int, ordering: str = CGREVLEX,
                         m_phases: int = 32) -> float:
    """Size estimate from the Chebyshev route: exp of the level-k lattice mean of log T_k."""
    table = transform_grid(mesh, body, k, orderings=(ordering,), m_phases=m_phases)
    return exp_or_inf(transform_mean_log(table, ordering))


def final_delta(mesh: Mesh, body: ConvexBody, k: int, strategy=None, route: str = "vdm",
                m_phases: int = 32, resolution=Fraction(1, 32), subsamples: int = 32):
    """Length-scaled diameter estimate D ** (1/A) plus its level-k report row."""
    if route not in ("vdm", "transform"):
        raise ValidationError(f"unknown route {route!r}")
    k, options = _check_inputs(mesh, body, k, "k", ReportOptions(strategy, m_phases=m_phases))
    a_n = average_total_degree(body, as_fraction(resolution, "resolution"), subsamples)
    row = _level_row(mesh, body, k, options, {}, None, None)
    d_value = row.d_vdm if route == "vdm" else row.d_transform.get(CGREVLEX)
    if d_value is None:
        raise ValidationError(f"route {route} unavailable: {row.errors}")
    return _length_scaled(d_value, a_n), row


@dataclass
class ReportOptions:
    strategy: object = field(default_factory=Greedy)
    orderings: tuple[str, ...] = ORDERINGS
    m_phases: int = 32
    include_leja: bool = False
    resolution: Fraction = Fraction(1, 32)
    subsamples: int = 32
    workers: int = 1
    transform_method: str = "lattice-average"


@dataclass
class ReportRow:
    k: int
    m_k: int
    h_k: int
    l_k: int
    log_vdm: float | None
    exact: bool | None
    delta: float | None
    d_vdm: float | None
    d_transform: dict[str, float]
    leja_value: float | None
    sandwich_consistent: bool | None
    errors: dict[str, str]


@dataclass
class DiameterReport:
    rows: list[ReportRow]
    a_n: float
    dagger_verdict: str
    final_delta_vdm: float | None
    final_delta_transform: float | None
    mesh_provenance: str
    options: ReportOptions


def _check_inputs(mesh: Mesh, body: ConvexBody, k, k_name: str, options: ReportOptions):
    """The checks shared by `build_report` and `final_delta`, in this order, before any
    level is computed: dimensions, m_phases, the level `k` (named `k_name` in an error),
    the support, the orderings, the strategy.  Returns k and `options` as their owners read them.
    """
    check_dimensions(mesh, body)
    m_phases = check_m_phases(options.m_phases)  # _level_row would record it as a row error
    if (k := as_int(k, k_name)) < 1:
        raise ValidationError(f"{k_name} must be >= 1")
    check_support(mesh, body.counts(1)[0])
    return k, replace(options, m_phases=m_phases, orderings=check_orderings(options.orderings),
                      strategy=strategy_from_config(options.strategy))


def _length_scaled(d_value: float | None, a_n: float) -> float | None:
    """D ** (1/A_N), or inf where that power of a finite D is past the float range."""
    try:
        return d_value ** (1.0 / a_n) if d_value is not None else None
    except OverflowError:
        return math.inf


def _level_row(mesh: Mesh, body: ConvexBody, k: int, options: ReportOptions,
               cache: dict, leja_value: float | None, leja_error: str | None) -> ReportRow:
    """Report row of level k: the vdm cell, the transform cells, the sandwich check."""
    m_k, h_k, l_k = body.counts(k)
    errors: dict[str, str] = {"leja": leja_error} if leja_error else {}
    log_vdm = exact = delta = d_vdm = None
    try:
        result: MaxVdmResult = max_vdm(mesh, body, k, options.strategy)
        log_vdm = result.value.log_abs
        exact = result.exact
        delta = exp_or_inf(log_vdm / l_k)
        d_vdm = exp_or_inf(log_vdm / (k * m_k))
    except CtdiamError as exc:
        errors["vdm"] = f"{type(exc).__name__}: {exc}"
    d_transform: dict[str, float] = {}
    sum_log_nu: dict[str, float] = {}
    table = transform_grid(mesh, body, k, orderings=options.orderings,
                           m_phases=options.m_phases, cache=cache)
    for ordering in options.orderings:
        try:
            mean_log = transform_mean_log(table, ordering)
            d_transform[ordering] = exp_or_inf(mean_log)
            sum_log_nu[ordering] = mean_log * k * m_k
        except ValidationError as exc:
            errors[f"transform:{ordering}"] = str(exc)
    sandwich = None
    if exact and CGREVLEX in sum_log_nu and math.isfinite(log_vdm):
        slack = 1e-6 * m_k
        lo = sum_log_nu[CGREVLEX]
        sandwich = (lo - slack <= log_vdm <= lo + math.lgamma(m_k + 1) + slack)
    return ReportRow(k=k, m_k=m_k, h_k=h_k, l_k=l_k, log_vdm=log_vdm, exact=exact, delta=delta,
                     d_vdm=d_vdm, d_transform=d_transform, leja_value=leja_value,
                     sandwich_consistent=sandwich, errors=errors)


def build_report(mesh: Mesh, body: ConvexBody, k_max: int, options: ReportOptions | None = None) -> DiameterReport:
    """Assemble per-level rows for k = 1..k_max; row-level failures never abort."""
    k_max, options = _check_inputs(mesh, body, k_max, "k_max", options or ReportOptions())
    dagger = check_dagger(body, k_max)
    a_n = average_total_degree(body, options.resolution, options.subsamples)

    leja_rows = {}
    leja_error = None
    if options.include_leja:
        try:
            leja_report = leja_diameter(mesh, body, k_max)
            leja_rows = {r.k: r.value for r in leja_report.rows}
        except CtdiamError as exc:
            leja_error = f"{type(exc).__name__}: {exc}"

    transform_cache: dict = {}  # one solve per distinct min-max problem of the report
    rows = [_level_row(mesh, body, k, options, transform_cache,
                       leja_rows.get(k), leja_error)
            for k in range(1, k_max + 1)]
    return DiameterReport(rows=rows, a_n=a_n, dagger_verdict=dagger.verdict,
                          final_delta_vdm=_length_scaled(rows[-1].d_vdm, a_n),
                          final_delta_transform=_length_scaled(rows[-1].d_transform.get(CGREVLEX), a_n),
                          mesh_provenance=mesh.provenance, options=options)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def report_to_csv(report: DiameterReport, path):
    header = ["k", "M_k", "h_k", "L_k", "logV", "exact", "delta_k", "D_vdm",
              "D_transform_C", "D_transform_grevlex", "leja_value"]
    write_csv(path, [header] + [
        [r.k, r.m_k, r.h_k, r.l_k, fmt(r.log_vdm),
         "" if r.exact is None else str(r.exact).lower(),
         fmt(r.delta), fmt(r.d_vdm),
         fmt(r.d_transform.get(CGREVLEX)), fmt(r.d_transform.get(GREVLEX)),
         fmt(r.leja_value)]
        for r in report.rows])


def report_to_json(report: DiameterReport, path, config_echo: dict | None = None):
    payload = {
        "a_n": report.a_n,
        "dagger_verdict": report.dagger_verdict,
        "final_delta_vdm": report.final_delta_vdm,
        "final_delta_transform": report.final_delta_transform,
        "mesh": report.mesh_provenance,
        "rows": report.rows,
        "options": report.options,
    }
    if config_echo is not None:
        payload["config"] = config_echo
    write_json(path, payload)
