"""Discrete Chebyshev constants, directional estimates, and the transform grid.

For a degree level k and a lattice exponent alpha, the monic class
consists of z^alpha plus arbitrary complex combinations of the strictly
preceding monomials inside the level-k lattice; the discrete constant
is the k-th root of the minimal weighted sup norm over the mesh.  Each
instance is one LP (`lp.solve_minimax`), exact on real meshes and
bracketed by the polygon factor otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .body import ConvexBody, Exponent, _dagger_verdict, as_fraction, as_int
from .errors import CtdiamError, ThetaNotInterior, ValidationError
from .lp import check_m_phases, solve_minimax
from .mesh import Mesh, Polynomial, check_dimensions, exp_or_inf, log_weight_power, monomial_values
from .order import CGREVLEX, GREVLEX, ORDERINGS, check_orderings, order_key
from .serialize import fmt, write_csv


@dataclass
class ChebyshevRecord:
    """One solved monic min-max instance.

    log_nu is the log of the optimal weighted sup norm (i.e. k * log T_k);
    the true mesh optimum and the achieved norm of `coefficients` both lie
    in [log_nu, log_nu + log(bracket_factor)].
    """

    k: int
    alpha: Exponent
    ordering: str
    log_nu: float
    coefficients: Polynomial
    bracket_factor: float
    iterations: int
    real_path: bool

    @property
    def log_T(self) -> float:
        """log of the k-th root of the optimal norm."""
        return self.log_nu / self.k if self.k else self.log_nu

    @property
    def log_bracket_high(self) -> float:
        return self.log_nu + math.log(self.bracket_factor)


@lru_cache(maxsize=None)
def _lattice_positions(body: ConvexBody, k: int) -> dict[Exponent, int]:
    """Index of each exponent in `body.lattice_points(k)`."""
    return {alpha: i for i, alpha in enumerate(body.lattice_points(k))}


def lower_monomials(body: ConvexBody, k: int, alpha: Exponent, ordering: str) -> list[Exponent]:
    """Exponents in the level-k lattice strictly preceding alpha under `ordering`.

    The lattice is sorted by the body-graded key, which no two exponents
    share, so under that order the answer is the prefix before alpha.
    """
    k = as_int(k, "k")
    alpha = tuple(as_int(a, "alpha") for a in alpha)
    # a negative level has no lattice points, so every alpha is rejected
    pos = _lattice_positions(body, k).get(alpha) if k >= 0 else None
    if pos is None:
        raise ValidationError(f"alpha={alpha} is not a lattice point of level {k}")
    if ordering == CGREVLEX:
        return body.lattice_points(k)[:pos]
    key = order_key(body, ordering)
    cut = key(alpha)
    return [beta for beta in body.lattice_points(k) if key(beta) < cut]


def _check_instance(mesh: Mesh, body: ConvexBody, m_phases: int) -> None:
    """The checks of a min-max instance that do not depend on k, alpha or the ordering."""
    check_dimensions(mesh, body)
    check_m_phases(m_phases)


def chebyshev_constant(mesh: Mesh, body: ConvexBody, k: int, alpha: Exponent,
                       ordering: str = CGREVLEX, m_phases: int = 32) -> ChebyshevRecord:
    """Solve the monic min-max for (k, alpha) on the mesh.

    `solve_minimax` makes the checks of the LP itself: an instance whose
    tableau would hold more than `lp._MAX_LP_ENTRIES` floats, or whose
    weight power w^k is not finite at a supported point, raises
    ValidationError before the LP allocates anything, and an optimum of 0
    while w^k underflows at a supported point raises it after the solve.
    """
    k, alpha = as_int(k, "k"), tuple(as_int(a, "alpha") for a in alpha)
    _check_instance(mesh, body, m_phases)
    support = mesh.support
    lower = lower_monomials(body, k, alpha, ordering)
    # the origin exponent precedes every other one in both orders, so only
    # alpha = 0 may have an empty class tail
    assert lower or alpha == (0,) * body.dim
    pts = mesh.points[support]
    result = solve_minimax(monomial_values(pts, lower), monomial_values(pts, [alpha])[0],
                           log_weight_power(mesh.log_weights[support], k), m_phases)
    return ChebyshevRecord(
        k=k,
        alpha=alpha,
        ordering=ordering,
        log_nu=result.log_value,
        coefficients=Polynomial({alpha: 1.0 + 0.0j, **dict(zip(lower, result.coefficients))}),
        bracket_factor=result.bracket_factor,
        iterations=result.iterations,
        real_path=result.real_path,
    )


def _outcome(mesh: Mesh, body: ConvexBody, k: int, task, m_phases: int):
    """The ChebyshevRecord of one (alpha, ordering) task, or the CtdiamError its solve raised."""
    try:
        return chebyshev_constant(mesh, body, k, *task, m_phases)
    except CtdiamError as exc:  # row-level isolation
        return exc


def solve_distinct(mesh: Mesh, body: ConvexBody, k: int, tasks: list, m_phases: int = 32,
                   cache: dict | None = None) -> list:
    """One outcome per (alpha, ordering) task of level k, in task order.

    The instance checks (dimensions, m_phases) raise at once, before any
    solve.  An outcome is the task's ChebyshevRecord, or the CtdiamError
    its own problem raised; callers decide whether to record or raise it.
    Any other exception propagates.  Each distinct min-max problem is
    solved once.  A problem is fixed by alpha, its lower monomials and, on
    a weighted mesh, the weight power k; the two orders coincide on a
    simplex, and on an unweighted mesh one exponent's problem repeats at
    every level where its lower set is the same.  `cache` carries the
    outcomes across calls with the same mesh, body and m_phases.
    """
    _check_instance(mesh, body, m_phases)
    k = as_int(k, "k")
    cache = {} if cache is None else cache
    weight_power = None if mesh.is_unweighted else k
    keys = [(alpha, tuple(lower_monomials(body, k, alpha, ordering)), weight_power)
            for alpha, ordering in tasks]
    pending = {}  # unsolved key -> the first task that poses it
    for key, task in zip(keys, tasks):
        if key not in cache:
            pending.setdefault(key, task)
    cache.update((key, _outcome(mesh, body, k, task, m_phases)) for key, task in pending.items())
    outcomes = [cache[key] for key in keys]
    return [replace(out, k=k, ordering=ordering) if isinstance(out, ChebyshevRecord) else out
            for out, (_, ordering) in zip(outcomes, tasks)]


# ---------------------------------------------------------------------------
# Transform grid: every lattice exponent of one level, both orderings.
# ---------------------------------------------------------------------------

@dataclass
class TransformRow:
    alpha: Exponent
    theta: tuple[Fraction, ...]
    gauge: Fraction
    records: dict[str, ChebyshevRecord]
    errors: dict[str, str]


@dataclass
class TransformTable:
    k: int
    orderings: tuple[str, ...]
    rows: list[TransformRow]


def transform_grid(mesh: Mesh, body: ConvexBody, k: int,
                   orderings=ORDERINGS, m_phases: int = 32,
                   workers: int = 1, cache: dict | None = None) -> TransformTable:
    """One ChebyshevRecord per lattice exponent of level k per ordering.

    Rows whose solve fails are kept with the error message recorded, so
    the table is always returned whole.  The rows come from
    `solve_distinct`, which solves each distinct problem once and fills
    `cache` (`build_report` passes one per report).  `workers` is ignored.
    """
    check_dimensions(mesh, body)
    if (k := as_int(k, "k")) < 1:
        raise ValidationError("transform grid needs k >= 1")
    orderings = check_orderings(orderings)
    alphas = body.lattice_points(k)
    tasks = [(alpha, ordering) for alpha in alphas for ordering in orderings]
    outcomes = iter(solve_distinct(mesh, body, k, tasks, m_phases, cache))
    rows = []
    for alpha in alphas:
        records: dict[str, ChebyshevRecord] = {}
        errors: dict[str, str] = {}
        for ordering in orderings:
            out = next(outcomes)
            if isinstance(out, ChebyshevRecord):
                records[ordering] = out
            else:
                errors[ordering] = f"{type(out).__name__}: {out}"
        rows.append(TransformRow(
            alpha=alpha,
            theta=tuple(Fraction(a, k) for a in alpha),
            gauge=body.gauge(alpha),
            records=records,
            errors=errors,
        ))
    return TransformTable(k=k, orderings=orderings, rows=rows)


def transform_rows(table: TransformTable) -> list[list]:
    """Header and one row per exponent: alpha, theta components, gauge, logT per ordering,
    bracket of the graded value."""
    dim = len(table.rows[0].alpha) if table.rows else 0
    rows = [["alpha"] + [f"theta_{i + 1}" for i in range(dim)]
            + ["gauge", "logT_grevlex", "logT_C", "bracket_low", "bracket_high"]]
    for row in table.rows:
        rec_g = row.records.get(GREVLEX)
        rec_c = row.records.get(CGREVLEX)
        ref = rec_c or rec_g
        rows.append([" ".join(map(str, row.alpha))] + [fmt(float(t)) for t in row.theta] + [
            fmt(float(row.gauge)),
            fmt(rec_g.log_T if rec_g else None),
            fmt(rec_c.log_T if rec_c else None),
            fmt(ref.log_T if ref else None),
            fmt(ref.log_bracket_high / max(ref.k, 1) if ref else None),
        ])
    return rows


def transform_to_csv(table: TransformTable, path):
    """`transform_rows(table)` as one CSV file."""
    write_csv(path, transform_rows(table))


# ---------------------------------------------------------------------------
# Directional estimates along a fixed interior direction.
# ---------------------------------------------------------------------------

@dataclass
class DirectionalStep:
    k: int
    alpha: Exponent
    log_T: float


@dataclass
class DirectionalResult:
    """Directional Chebyshev estimates for one interior theta, both orderings.

    error_proxy is the absolute difference of the last two iterates (not
    a bound; no extrapolation is attempted).  limit_guaranteed is False
    for the graded ordering when the leading-term stability check fails,
    in which case the value is still reported but the limit is heuristic.
    """

    theta: tuple[Fraction, ...]
    schedule: tuple[int, ...]
    steps: dict[str, list[DirectionalStep]]
    final: dict[str, float]
    error_proxy: dict[str, float]
    limit_guaranteed: dict[str, bool]
    dagger_verdict: str


def select_direction_exponent(body: ConvexBody, theta, k: int) -> Exponent:
    """Componentwise round of k*theta, repaired into the level-k lattice.

    Repair decrements the coordinate with the largest rounding fraction
    (lowest index on ties) until the gauge is at most k; any selection
    with alpha/k -> theta works, this one is deterministic.
    """
    theta = tuple(as_fraction(t, "theta") for t in theta)
    scaled = [k * t for t in theta]
    alpha = [math.floor(s + Fraction(1, 2)) for s in scaled]
    fracs = [s - math.floor(s) for s in scaled]
    while body.gauge(alpha) > k:
        candidates = [i for i, a in enumerate(alpha) if a >= 1]
        if not candidates:
            break
        i = min(candidates, key=lambda i: (-fracs[i], i))
        alpha[i] -= 1
    return tuple(alpha)


def directional_constant(mesh: Mesh, body: ConvexBody, theta, schedule,
                         orderings=ORDERINGS, m_phases: int = 32) -> DirectionalResult:
    """Estimate the directional constant T(theta) along increasing degree levels.

    The first failed solve is raised; each distinct problem is solved once.
    """
    theta = tuple(as_fraction(t, "theta") for t in theta)
    if len(theta) != body.dim:
        raise ValidationError(f"theta has dimension {len(theta)}, body has {body.dim}")
    if any(t <= 0 for t in theta) or body.gauge(theta) >= 1:
        raise ThetaNotInterior(f"theta={theta} is not strictly inside the body")
    schedule = tuple(as_int(k, "schedule") for k in schedule)
    if not schedule or any(k < 1 for k in schedule) or list(schedule) != sorted(set(schedule)):
        raise ValidationError("schedule must be a strictly increasing list of positive levels")
    orderings = check_orderings(orderings)
    verdict = _dagger_verdict(body, max(schedule))
    steps: dict[str, list[DirectionalStep]] = {o: [] for o in orderings}
    cache: dict = {}
    for k in schedule:
        alpha = select_direction_exponent(body, theta, k)
        outcomes = solve_distinct(mesh, body, k, [(alpha, o) for o in orderings], m_phases,
                                  cache=cache)
        for ordering, rec in zip(orderings, outcomes):
            if not isinstance(rec, ChebyshevRecord):
                raise rec
            steps[ordering].append(DirectionalStep(k=k, alpha=alpha, log_T=rec.log_T))
    final = {o: exp_or_inf(s[-1].log_T) for o, s in steps.items()}
    proxy = {
        o: abs(final[o] - exp_or_inf(s[-2].log_T)) if len(s) > 1 else math.inf
        for o, s in steps.items()
    }
    guaranteed = {
        o: (o == GREVLEX) or verdict != "violated" for o in orderings
    }
    return DirectionalResult(
        theta=theta,
        schedule=schedule,
        steps=steps,
        final=final,
        error_proxy=proxy,
        limit_guaranteed=guaranteed,
        dagger_verdict=verdict,
    )
