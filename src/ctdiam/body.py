"""Convex bodies in the nonnegative orthant and their lattice geometry.

A body is stored in H-representation with exact rational data,

    C = {x in R^N : x >= 0, a_i . x <= b_i for all i},

and must contain the unit simplex and be bounded.  The gauge
r(alpha) = inf{r >= 0 : alpha in r*C} then has the closed form
max(0, max_i (a_i . alpha) / b_i), which we evaluate exactly with
`fractions.Fraction`.  Order comparisons downstream depend on exact
gauge ties, so nothing in this module touches floating point except
the sampled boundary cells of `body_quadrature`.  Lattice membership and
cell classification use the halfspaces scaled once to integer rows
A x <= B, which keeps them exact and vectorized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    NonpositiveOffset,
    SimplexNotContained,
    Unbounded,
    ValidationError,
)

Exponent = tuple[int, ...]


def as_fraction(value) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to an exact Fraction.

    Floats are rejected: their binary expansion is almost never the
    rational the caller meant, and exactness is load-bearing here.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not an exact rational: {value!r} ({exc})") from exc
    raise ValidationError(f"expected an exact rational (int, Fraction, or 'p/q' string), got {value!r}")


# ---------------------------------------------------------------------------
# Exact rational LP:  maximize c.x  over  {x >= 0, A x <= b},  b >= 0.
# Used for boundedness checks, per-coordinate maxima (lattice bounding
# boxes), and halfspace redundancy tests.  Sizes are tiny, so a dense
# tableau with Bland's rule (guaranteed termination in exact arithmetic)
# is all we need.
# ---------------------------------------------------------------------------

def rational_lp_max(rows: list[list[Fraction]], rhs: list[Fraction], cost: list[Fraction]):
    """Return (value, bounded, maximizer). `bounded` False means unbounded.

    Requires rhs >= 0 so the origin is a basic feasible start; Bland's
    rule guarantees termination in exact arithmetic.
    """
    m = len(rows)
    n = len(cost)
    if any(b < 0 for b in rhs):
        raise ValueError("rational_lp_max requires nonnegative right-hand sides")
    # tableau columns: n structural + m slacks + rhs
    tab = [list(rows[i]) + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    obj = [-c for c in cost] + [Fraction(0)] * (m + 1)  # minimize -c.x
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            x = [Fraction(0)] * n
            for i, b in enumerate(basis):
                if b < n:
                    x[b] = tab[i][-1]
            return obj[-1], True, x
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            return None, False, None
        _, _, leave = min(ratios)
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter


@dataclass(frozen=True)
class ConvexBody:
    """Validated H-polytope in the nonnegative orthant containing the unit simplex."""

    dim: int
    halfspaces: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def gauge(self, alpha) -> Fraction:
        """Minkowski gauge r(alpha) = max(0, max_i (a_i.alpha)/b_i), exact."""
        if len(alpha) != self.dim:
            raise DimensionMismatch(f"point has dimension {len(alpha)}, body has {self.dim}")
        best = Fraction(0)
        for a, b in self.halfspaces:
            v = sum((ai * xi for ai, xi in zip(a, alpha)), Fraction(0)) / b
            if v > best:
                best = v
        return best

    def degree(self, alpha) -> int:
        """Graded degree of the monomial z^alpha: ceil of the gauge (0 for alpha = 0)."""
        return math.ceil(self.gauge(alpha))

    def contains(self, point, scale: Fraction = Fraction(1)) -> bool:
        """Exact membership of `point` in scale*C."""
        if any(as_fraction(x) < 0 for x in point):
            return False
        return self.gauge(point) <= scale

    def coordinate_max(self, j: int) -> Fraction:
        """Exact maximum of x_j over the body."""
        return _coordinate_max(self, j)

    def lattice_points(self, k: int) -> list[Exponent]:
        """All alpha in Z^N_+ with gauge(alpha) <= k, sorted by the graded order."""
        if k < 0:
            raise ValidationError("k must be nonnegative")
        return list(_lattice_points(self, k))

    def counts(self, k: int) -> tuple[int, int, int]:
        """(M_k, h_k, L_k): lattice count of kC, new points at level k, total ordinary degree."""
        if k < 1:
            raise ValidationError("counts requires k >= 1")
        pts = _lattice_points(self, k)
        m_k = len(pts)
        m_prev = len(_lattice_points(self, k - 1))
        l_k = sum(sum(a) for a in pts)
        return m_k, m_k - m_prev, l_k


def validate_body(halfspaces, dim: int) -> ConvexBody:
    """Build a ConvexBody from raw halfspace data, enforcing the standing assumptions.

    `halfspaces` is an iterable of (a, b) pairs (or {'a': [...], 'b': ...}
    mappings) with rational entries.  Raises NonpositiveOffset,
    SimplexNotContained, or Unbounded when an invariant fails.
    """
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    rows = []
    for entry in halfspaces:
        if isinstance(entry, dict):
            a, b = entry["a"], entry["b"]
        else:
            a, b = entry
        a = tuple(as_fraction(x) for x in a)
        b = as_fraction(b)
        if len(a) != dim:
            raise DimensionMismatch(f"halfspace normal {a} does not have dimension {dim}")
        if b <= 0:
            raise NonpositiveOffset(f"halfspace offset must be positive, got {b}")
        rows.append((a, b))
    for a, b in rows:
        for j, aj in enumerate(a):
            if aj > b:
                raise SimplexNotContained(
                    f"unit vector e_{j + 1} violates a.x <= {b} (coefficient {aj})"
                )
    body = ConvexBody(dim=dim, halfspaces=tuple(rows))
    _check_bounded(body)
    return body


def parse_body_spec(spec: dict) -> ConvexBody:
    """Body from its document form {'dim': N, 'halfspaces': [{'a': [...], 'b': ...}, ...]}."""
    try:
        dim = spec["dim"]
        halfspaces = spec["halfspaces"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"body spec must provide 'dim' and 'halfspaces': {exc}") from exc
    return validate_body(halfspaces, dim)


def _lp_data(body: ConvexBody):
    rows = [list(a) for a, _ in body.halfspaces]
    rhs = [b for _, b in body.halfspaces]
    return rows, rhs


def _check_bounded(body: ConvexBody):
    # bounded iff the recession cone {x >= 0 : A x <= 0} is trivial; the
    # box-capped LP both decides this and produces a witness direction
    rows, rhs = _lp_data(body)
    n = body.dim
    rec_rows = [list(a) for a in rows]
    rec_rhs = [Fraction(0)] * len(rows)
    for j in range(n):
        rec_rows.append([Fraction(int(i == j)) for i in range(n)])
        rec_rhs.append(Fraction(1))
    cost = [Fraction(1)] * n
    value, _, direction = rational_lp_max(rec_rows, rec_rhs, cost)
    if value > 0:
        dir_txt = "(" + ", ".join(str(d) for d in direction) + ")"
        raise Unbounded(f"the body is unbounded along the direction {dir_txt}")


@lru_cache(maxsize=None)
def _coordinate_max(body: ConvexBody, j: int) -> Fraction:
    rows, rhs = _lp_data(body)
    cost = [Fraction(int(i == j)) for i in range(body.dim)]
    value, bounded, _ = rational_lp_max(rows, rhs, cost)
    if not bounded:  # cannot happen for a validated body
        raise Unbounded(f"coordinate {j} is unbounded")
    return value


@lru_cache(maxsize=None)
def _integer_rows(body: ConvexBody):
    """The halfspaces a.x <= b scaled by their denominators to A x <= B.

    Entries are Python ints in object arrays, so they hold any rational
    exactly; `_box_excess` narrows them to int64 where that is exact.
    """
    a_rows, b_vals = [], []
    for a, b in body.halfspaces:
        scale = math.lcm(b.denominator, *(aj.denominator for aj in a))
        a_rows.append([int(aj * scale) for aj in a])
        b_vals.append(int(b * scale))
    return np.array(a_rows, dtype=object), np.array(b_vals, dtype=object)


def _box_excess(body: ConvexBody, corners, width: int, p: int, q: int):
    """q * (max, min) of A.x - B over each box [corner, corner + width] * p/q, exact.

    `corners` is an integer array with one box per row; the results have
    one column per halfspace and the signs of the true extremes.
    """
    a_int, b_int = _integer_rows(body)
    corners = np.asarray(corners)
    # every intermediate is at most `reach` in size, so int64 is exact below 2**62
    reach = (int(np.abs(corners).max()) + width) * max(np.abs(a_int).sum(axis=1)) * p
    if reach + max(np.abs(b_int)) * q < 2**62:
        a_int, b_int = a_int.astype(np.int64), b_int.astype(np.int64)
    at_corner = (corners @ a_int.T) * p - b_int * q
    up = np.where(a_int > 0, a_int, 0).sum(axis=1)
    down = np.where(a_int < 0, a_int, 0).sum(axis=1)
    return at_corner + width * p * up, at_corner + width * p * down


@lru_cache(maxsize=None)
def _lattice_points(body: ConvexBody, k: int) -> tuple[Exponent, ...]:
    from .order import cgrevlex_key  # local import to avoid a cycle

    box = [int(k * body.coordinate_max(j)) for j in range(body.dim)]
    candidates = list(itertools.product(*(range(u + 1) for u in box)))
    excess, _ = _box_excess(body, candidates, 0, 1, k)  # gauge(alpha) <= k iff A alpha <= k B
    pts = list(itertools.compress(candidates, np.all(excess <= 0, axis=1)))
    pts.sort(key=lambda a: cgrevlex_key(body, a))
    return tuple(pts)


def cells_in_interior(body: ConvexBody, alphas, k: int) -> np.ndarray:
    """Whether each lattice cell [alpha - 1/2, alpha + 1/2] / k lies in the interior of C.

    Exact; a cell that touches a coordinate plane is not interior.
    """
    corners = 2 * np.asarray(alphas) - 1  # the cell is [corner, corner + 2] / (2k)
    highest, _ = _box_excess(body, corners, 2, 1, 2 * k)
    return np.all(corners > 0, axis=1) & np.all(highest < 0, axis=1)


# ---------------------------------------------------------------------------
# Quadrature for the degree-normalization constant
#   A_N = (1 / vol C) * integral over C of (theta_1 + ... + theta_N)
# Midpoint rule on an axis-aligned cell grid.  Cells are classified
# exactly with the integer rows; boundary cells get a volume fraction
# and a mean coordinate sum sampled at sub^N midpoints.
# ---------------------------------------------------------------------------

def _classify_cells(body: ConvexBody, resolution: Fraction):
    """(cells, status) for every grid cell [c, c + 1] * resolution meeting the bounding box.

    status: 1 inside, 0 boundary, -1 outside.  A cell is inside iff every
    halfspace holds at its max corner, outside iff some halfspace fails at
    its min corner; both tests are exact for boxes.
    """
    counts = [math.ceil(body.coordinate_max(j) / resolution) for j in range(body.dim)]
    cells = np.stack([g.ravel() for g in np.meshgrid(*map(np.arange, counts), indexing="ij")], axis=1)
    highest, lowest = _box_excess(body, cells, 1, resolution.numerator, resolution.denominator)
    status = np.where(np.all(highest <= 0, axis=1), 1, np.where(np.any(lowest > 0, axis=1), -1, 0))
    return cells, status


def body_quadrature(body: ConvexBody, resolution=Fraction(1, 32), subsamples: int = 32):
    """(volume, integral of theta_1+...+theta_N over C) by midpoint quadrature.

    Full cells are exact for the linear integrand; boundary cells use a
    sampled fraction with sub^N midpoints.
    """
    resolution = as_fraction(resolution)
    if resolution <= 0:
        raise ValidationError("resolution must be positive")
    if subsamples < 1:
        raise ValidationError(f"subsamples must be >= 1, got {subsamples}")
    cells, status = _classify_cells(body, resolution)
    res_f = float(resolution)
    cell_vol = res_f ** body.dim
    volume = 0.0
    integral = 0.0
    inside = status == 1
    if inside.any():
        mids = (cells[inside] + 0.5) * res_f
        volume += cell_vol * int(inside.sum())
        integral += cell_vol * float(mids.sum())
    offs = (np.arange(subsamples) + 0.5) * (res_f / subsamples)
    offsets = np.stack([g.ravel() for g in np.meshgrid(*([offs] * body.dim), indexing="ij")], axis=1)
    a_mat = np.array([[float(aj) for aj in a] for a, _ in body.halfspaces])
    b_vec = np.array([float(b) for _, b in body.halfspaces])
    for idx in np.flatnonzero(status == 0):
        pts = offsets + np.array([float(c * resolution) for c in cells[idx].tolist()])
        keep = np.all(pts @ a_mat.T <= b_vec, axis=1)
        frac = keep.mean()
        mean_sum = float(pts[keep].sum(axis=1).mean()) if keep.any() else 0.0
        volume += cell_vol * frac
        integral += cell_vol * frac * mean_sum
    return volume, integral


def average_total_degree(body: ConvexBody, resolution=Fraction(1, 32), subsamples: int = 32) -> float:
    """Volume average of theta_1 + ... + theta_N over the body (midpoint quadrature).

    This is the constant that converts the size estimate D into the
    length-scaled diameter via delta = D**(1/A).  Error decreases with
    the grid resolution; on the unit simplex the exact value is N/(N+1).
    """
    volume, integral = body_quadrature(body, resolution, subsamples)
    if volume <= 0:
        raise ValidationError("quadrature produced nonpositive volume; refine the resolution")
    return integral / volume


# ---------------------------------------------------------------------------
# Leading-term stability diagnostics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DaggerReport:
    """Outcome of the leading-term stability check.

    verdict: 'holds-simplex' (single non-redundant facet besides the
    orthant, so gauge level sets are parallel hyperplanes),
    'holds-injective-gauge' (all lattice gauges pairwise distinct up to
    the cap), or 'violated' (gauge ties found and neither sufficient
    criterion applies; a warning, not a hard error).
    witness_pairs: (alpha, beta) with alpha != beta and equal exact gauge,
    alpha preceding beta in the graded order, up to the degree cap.
    """

    verdict: str
    witness_pairs: tuple[tuple[Exponent, Exponent], ...]
    k_max: int


def _nonredundant_halfspaces(body: ConvexBody) -> list[int]:
    """Indices of halfspaces whose removal changes the body (exact LP test)."""
    keep = []
    for i, (a, b) in enumerate(body.halfspaces):
        rows = [list(hs[0]) for j, hs in enumerate(body.halfspaces) if j != i]
        rhs = [hs[1] for j, hs in enumerate(body.halfspaces) if j != i]
        value, bounded, _ = rational_lp_max(rows, rhs, list(a))
        if not bounded or value > b:
            keep.append(i)
    return keep


def is_simplex(body: ConvexBody) -> bool:
    """True iff the body is {x >= 0 : c.x <= b} up to redundant halfspaces."""
    return len(_nonredundant_halfspaces(body)) == 1


def check_dagger(body: ConvexBody, k_max: int) -> DaggerReport:
    """Decide leading-term stability up to the degree cap `k_max`.

    Simplices qualify structurally.  Otherwise the body qualifies iff the
    gauge is injective on the lattice points of k_max*C; every exact gauge
    tie is reported as a witness pair.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    by_gauge: dict[Fraction, list[Exponent]] = {}
    for alpha in body.lattice_points(k_max):
        by_gauge.setdefault(body.gauge(alpha), []).append(alpha)
    witnesses = []
    for group in by_gauge.values():
        if len(group) > 1:
            witnesses.extend(itertools.combinations(group, 2))
    witnesses.sort(key=lambda pair: (sum(pair[0]), pair[0], pair[1]))
    if is_simplex(body):
        verdict = "holds-simplex"
    elif not witnesses:
        verdict = "holds-injective-gauge"
    else:
        verdict = "violated"
    return DaggerReport(verdict=verdict, witness_pairs=tuple(witnesses), k_max=k_max)


def simplex_body(dim: int) -> ConvexBody:
    """The standard unit simplex as a validated body."""
    return validate_body([(tuple(Fraction(1) for _ in range(dim)), Fraction(1))], dim)


def box_body(dim: int, sides=None) -> ConvexBody:
    """Axis-aligned box [0, s_1] x ... x [0, s_N] (unit cube by default)."""
    sides = [Fraction(1)] * dim if sides is None else [as_fraction(s) for s in sides]
    rows = []
    for j, s in enumerate(sides):
        a = tuple(Fraction(int(i == j)) for i in range(dim))
        rows.append((a, s))
    return validate_body(rows, dim)
