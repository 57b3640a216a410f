"""Convex bodies in the nonnegative orthant and their lattice geometry.

A body is stored in H-representation with exact rational data,

    C = {x in R^N : x >= 0, a_i . x <= b_i for all i},

and must contain the unit simplex and be bounded.  The gauge
r(alpha) = inf{r >= 0 : alpha in r*C} then has the closed form
max(0, max_i (a_i . alpha) / b_i).  The halfspaces are scaled once to
integer rows A x <= B; with D = lcm(B) and G_i = A_i * (D // B_i), the
gauge is the exact fraction max(0, max_i G_i . alpha) / D.  Order
comparisons downstream depend on exact gauge ties.  Lattice membership,
the gauge and its ties, cell classification and the test of each
quadrature sample all read the integer rows, exact and vectorized;
`body_quadrature` sums its samples as integers too, and floating point
enters only where it rounds each exact mean once and adds the cells.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
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


def as_fraction(value, field: str) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to an exact Fraction.

    A value that is none of these raises ValidationError naming `field`.

    Floats are rejected: their binary expansion is almost never the
    rational the caller meant, and exactness is load-bearing here.
    So are booleans, which Python counts as the ints 0 and 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{field}: not an exact rational: {value!r} ({exc})") from exc
    raise ValidationError(
        f"{field}: expected an exact rational (int, Fraction, or 'p/q' string), got {value!r}")


def as_int(value, field: str) -> int:
    """An integer, or a float that is one (4.0 reads 4), as an int; anything else raises
    ValidationError naming `field`.  int() alone would truncate 2.9 and Fraction(5, 2),
    overflow on JSON's Infinity, read true as 1 and parse the string "3".
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Exact rational LP:  maximize c.x  over  {x >= 0, A x <= b},  b >= 0.
# Used for the per-coordinate maxima, which decide boundedness and give
# the lattice bounding boxes.  Sizes are tiny, so a dense tableau with
# Bland's rule (guaranteed termination in exact arithmetic) is all we need.
# ---------------------------------------------------------------------------

def rational_lp_max(rows: list[list[Fraction]], rhs: list[Fraction], cost: list[Fraction]):
    """Return (value, bounded, x).

    Bounded: x is a maximizer.  Unbounded: value is None and x is a ray
    r >= 0, r != 0 with A r <= 0 and c.r > 0.  Requires rhs >= 0 so the
    origin is a basic feasible start; Bland's rule guarantees
    termination in exact arithmetic.
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
            # raising the entering variable moves each basic one by -tab[i][enter]
            ray = [Fraction(int(j == enter)) for j in range(n)]
            for i, b in enumerate(basis):
                if b < n:
                    ray[b] -= tab[i][enter]
            return None, False, ray
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

    def __post_init__(self):
        # every lru_cache lookup keyed on the body hashes it; hashing its
        # Fractions each time dominated the lattice and gauge calls
        object.__setattr__(self, "_hash", hash((self.dim, self.halfspaces)))

    def __hash__(self) -> int:
        return self._hash

    def gauge(self, alpha) -> Fraction:
        """Minkowski gauge r(alpha) = max(0, max_i G_i.alpha) / D at an int or Fraction point."""
        if len(alpha) != self.dim:
            raise DimensionMismatch(f"point has dimension {len(alpha)}, body has {self.dim}")
        try:
            x = [xi if isinstance(xi, Fraction) else operator.index(xi) for xi in alpha]
        except TypeError:
            raise ValidationError(f"gauge needs int or Fraction coordinates, got {tuple(alpha)!r}") from None
        rows, scale = _gauge_rows(self)
        return Fraction(max(0, *(sum(map(operator.mul, g, x)) for g in rows)), scale)

    def degree(self, alpha) -> int:
        """Graded degree of the monomial z^alpha: ceil of the gauge (0 for alpha = 0)."""
        return math.ceil(self.gauge(alpha))

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
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(halfspaces, (list, tuple)):
        raise ValidationError(f"body.halfspaces must be a list, got {halfspaces!r}")
    rows = []
    for i, entry in enumerate(halfspaces):
        a, b = _halfspace_entry(entry, f"body.halfspaces[{i}]")
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
    # a body in the orthant is bounded iff every coordinate is
    for j in range(dim):
        _coordinate_max(body, j)
    return body


def _halfspace_entry(entry, field: str) -> tuple[tuple[Fraction, ...], Fraction]:
    """(a, b) from a {'a': [...], 'b': ...} mapping or a pair, exact; errors name `field`."""
    if isinstance(entry, dict) and "a" in entry and "b" in entry:
        a, b = entry["a"], entry["b"]
    elif isinstance(entry, (list, tuple)) and len(entry) == 2:
        a, b = entry
    else:
        raise ValidationError(f"{field} must be {{'a': [...], 'b': ...}}, got {entry!r}")
    if not isinstance(a, (list, tuple)):
        raise ValidationError(f"{field}.a must be a list of rationals, got {a!r}")
    return tuple(as_fraction(x, field) for x in a), as_fraction(b, field)


def parse_body_spec(spec: dict) -> ConvexBody:
    """Body from its document form {'dim': N, 'halfspaces': [{'a': [...], 'b': ...}, ...]}."""
    try:
        dim = spec["dim"]
        halfspaces = spec["halfspaces"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"body spec must provide 'dim' and 'halfspaces': {exc}") from exc
    return validate_body(halfspaces, dim)


@lru_cache(maxsize=None)
def _coordinate_max(body: ConvexBody, j: int) -> Fraction:
    cost = [Fraction(int(i == j)) for i in range(body.dim)]
    rows = [a for a, _ in body.halfspaces]
    rhs = [b for _, b in body.halfspaces]
    value, bounded, ray = rational_lp_max(rows, rhs, cost)
    if not bounded:
        raise Unbounded(f"the body is unbounded along the direction ({', '.join(map(str, ray))})")
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


def _box_excess(body: ConvexBody, corners, p: int, q: int):
    """q * (max, min) of A.x - B over each box [corner, corner + 1] * p/q, exact.

    `corners` is an integer array with one box per row; the results have
    one column per halfspace and the signs of the true extremes.
    """
    a_int, b_int = _integer_rows(body)
    corners = np.asarray(corners)
    # every intermediate is at most `reach` in size, so int64 is exact below 2**62
    reach = (int(np.abs(corners).max(initial=0)) + 1) * max(np.abs(a_int).sum(axis=1)) * p
    if reach + max(np.abs(b_int)) * q < 2**62:
        a_int, b_int = a_int.astype(np.int64), b_int.astype(np.int64)
    at_corner = (corners @ a_int.T) * p - b_int * q
    up = np.where(a_int > 0, a_int, 0).sum(axis=1)
    down = np.where(a_int < 0, a_int, 0).sum(axis=1)
    return at_corner + p * up, at_corner + p * down


@lru_cache(maxsize=None)
def _gauge_rows(body: ConvexBody):
    """(G, D): D = lcm(B) and the rows G_i = A_i * (D // B_i), tuples of Python ints.

    G_i . alpha = D * (a_i . alpha) / b_i, so D * gauge(alpha) = max(0, max_i G_i . alpha).
    """
    a_int, b_int = _integer_rows(body)
    scale = math.lcm(*b_int)
    return tuple(map(tuple, (a_int * (scale // b_int)[:, None]).tolist())), scale


def _gauge_numerators(body: ConvexBody, points):
    """(keys, D): D * gauge(alpha) for each point as a Python int, and D = lcm(B).

    The keys order and tie the points exactly as their gauges do.
    """
    rows, scale = _gauge_rows(body)
    pts = np.array(points, dtype=object).reshape(len(points), body.dim)
    return np.maximum((pts @ np.array(rows, dtype=object).T).max(axis=1), 0).tolist(), scale


# A lattice box or quadrature grid with more cells than this, or a cell
# with more samples, is refused before anything is allocated.
_MAX_GRID = 2**22
# `body_quadrature` classifies its grid this many consecutive cells at a time
_CELL_BLOCK = 2**12


@lru_cache(maxsize=None)
def _lattice_points(body: ConvexBody, k: int) -> tuple[Exponent, ...]:
    box = [int(k * body.coordinate_max(j)) for j in range(body.dim)]
    if (count := math.prod(u + 1 for u in box)) > _MAX_GRID:
        raise ValidationError(f"k={k} makes {count} lattice candidates, more than {_MAX_GRID}")
    candidates = list(itertools.product(*(range(u + 1) for u in box)))
    keys, scale = _gauge_numerators(body, candidates)
    # gauge first, then the degree order: the body-graded order of `order.cgrevlex_key`
    ranked = sorted((key, sum(a), a) for key, a in zip(keys, candidates) if key <= k * scale)
    return tuple(a for _, _, a in ranked)


# ---------------------------------------------------------------------------
# Quadrature for the degree-normalization constant
#   A_N = (1 / vol C) * integral over C of (theta_1 + ... + theta_N)
# Midpoint rule on an axis-aligned cell grid.  Cells are classified
# exactly with the integer rows; boundary cells get a volume fraction
# and a mean coordinate sum sampled at sub^N midpoints.
#
# The grid is classified _CELL_BLOCK consecutive cells at a time, in C
# order, so no table spans the whole grid.  A block leaves only its
# inside count, the sum of 2c + 1 over its inside cells, and its
# boundary cells' coordinate sums with their keys.
#
# Samples are tested exactly, also with the integer rows.  With p/q the
# resolution, the samples of cell c are (c + w/(2*sub)) * p/q for the
# odd offsets w in {1, 3, ..., 2*sub - 1}^N, and with highest_i the
# exact `_box_excess` at the max corner and up_i the sum of the positive
# entries of A_i, a sample satisfies A_i x <= B_i iff
#     p * (A_i . w) <= 2 * sub * (p * up_i - highest_i).
# The left side is one table per call; the right side depends on the
# cell only through highest.  Boundary cells with the same highest, the
# key of a class of translates, therefore share one exact mask.  A
# halfspace that holds on the whole cell enters with highest_i = 0,
# where no sample reaches the bound.  A class whose mask keeps no sample
# gives (0.0, 0.0) to every member.
#
# The sums are exact integers too.  A sample of cell c at offset w has
# coordinate sum p * (2*sub * sum(c) + sum(w)) / (2*sub*q), and an inside
# cell's midpoint p * sum(2c + 1) / (2q).  A class keeps K samples whose
# offset sums total T, so a member's mean is
#     p * (2*sub * K * sum(c) + T) / (2*sub*q*K).
# That mean and the inside cells' total are each one Python int true
# division: the correctly rounded value of the exact rational, whatever
# the grid.
# ---------------------------------------------------------------------------

def _grid_counts(body: ConvexBody, resolution: Fraction) -> list[int]:
    """Cells per axis of the quadrature grid over the bounding box; a grid past `_MAX_GRID` is refused."""
    counts = [math.ceil(body.coordinate_max(j) / resolution) for j in range(body.dim)]
    if math.prod(counts) > _MAX_GRID:
        raise ValidationError(f"resolution {resolution} makes {math.prod(counts)} quadrature cells, "
                              f"more than {_MAX_GRID}")
    return counts


def _classify_cells(body: ConvexBody, resolution: Fraction, counts, start: int, stop: int):
    """(cells, status, highest) for the grid cells [c, c + 1] * resolution numbered start to stop - 1.

    Cells are numbered in C order over the grid of `counts` cells per
    axis.  status: 1 inside, 0 boundary, -1 outside.  A cell is inside
    iff every halfspace holds at its max corner, outside iff some
    halfspace fails at its min corner; both tests are exact for boxes.
    highest is the exact `_box_excess` at the max corner, one column per
    halfspace.
    """
    cells = np.stack(np.unravel_index(np.arange(start, stop), counts), axis=1)
    highest, lowest = _box_excess(body, cells, resolution.numerator, resolution.denominator)
    status = np.where(np.all(highest <= 0, axis=1), 1, np.where(np.any(lowest > 0, axis=1), -1, 0))
    return cells, status, highest


def _offset_products(a_int, p: int, subsamples: int):
    """p * (A_i . w) for every odd offset w, one row per row of `a_int`, offsets in row-major order.

    Entries and bounds stay below 2 * subsamples * p * max_i |A_i|_1, so
    int64 is exact below 2**62; Python ints hold the rest.
    """
    if 2 * subsamples * p * np.abs(a_int).sum(axis=1).max(initial=0) < 2**62:
        a_int = a_int.astype(np.int64)
    odd = np.arange(1, 2 * subsamples, 2).astype(a_int.dtype)
    products = np.zeros((len(a_int), 1), dtype=a_int.dtype)
    for column in a_int.T:
        step = np.multiply.outer(p * column, odd)
        width = products.shape[1] * subsamples
        products = (products[:, :, None] + step[:, None, :]).reshape(len(a_int), width)
    return products


def _class_keep(products, limits):
    """The samples of one class of translates inside the body: every products[i] <= limits[i]."""
    return np.all(products <= limits[:, None], axis=0)


def body_quadrature(body: ConvexBody, resolution=Fraction(1, 32), subsamples: int = 32):
    """(volume, integral of theta_1+...+theta_N over C) by midpoint quadrature.

    Full cells are exact for the linear integrand; boundary cells use a
    sampled fraction with sub^N midpoints, each tested exactly.
    """
    resolution = as_fraction(resolution, "resolution")
    if resolution <= 0:
        raise ValidationError("resolution must be positive")
    if subsamples < 1:
        raise ValidationError(f"subsamples must be >= 1, got {subsamples}")
    if subsamples ** body.dim > _MAX_GRID:
        raise ValidationError(f"subsamples {subsamples} makes {subsamples}**{body.dim} samples per cell, "
                              f"more than {_MAX_GRID}")
    counts = _grid_counts(body, resolution)
    n_cells = math.prod(counts)
    n_inside = inside_sum = 0  # the inside cells and their sum of 2c + 1
    corner_sums, keys = [], []  # sum(c) and the key of each boundary cell
    cutting = np.zeros(len(body.halfspaces), dtype=bool)
    for start in range(0, n_cells, _CELL_BLOCK):
        cells, status, highest = _classify_cells(body, resolution, counts, start,
                                                 min(start + _CELL_BLOCK, n_cells))
        inside = cells[status == 1]
        n_inside += inside.shape[0]
        inside_sum += 2 * int(inside.sum()) + inside.size
        on_boundary = status == 0
        corner_sums.extend(cells[on_boundary].sum(axis=1).tolist())
        # the key holds the exact excess of each cutting halfspace, 0 elsewhere, as Python ints
        excess = highest[on_boundary]
        excess = np.where(excess > 0, excess, 0)
        cutting |= np.any(excess > 0, axis=0)
        keys.extend(map(tuple, excess.tolist()))
    p, q = resolution.numerator, resolution.denominator
    cell_vol = float(resolution) ** body.dim
    volume = cell_vol * n_inside
    integral = cell_vol * (p * inside_sum / (2 * q))
    # the table holds only the halfspaces that cut some cell
    rows = np.flatnonzero(cutting)
    a_int = _integer_rows(body)[0][rows]
    products = _offset_products(a_int, p, subsamples)
    up = np.where(a_int > 0, a_int, 0).sum(axis=1)
    # sum(w) for every offset, in the mask's column order
    offset_sums = _offset_products(np.ones((1, body.dim), dtype=np.int64), 1, subsamples)[0]
    n_samples = offset_sums.size
    class_sums = {}  # key -> (K, T)
    for key, corner_sum in zip(keys, corner_sums):
        if key not in class_sums:
            limits = 2 * subsamples * (p * up - np.array(key, dtype=object)[rows])
            keep = _class_keep(products, limits.astype(products.dtype))
            class_sums[key] = int(np.count_nonzero(keep)), int(offset_sums[keep].sum())
        kept, total = class_sums[key]
        frac = kept / n_samples
        mean_sum = (p * (2 * subsamples * kept * corner_sum + total) / (2 * subsamples * q * kept)
                    if kept else 0.0)
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

    verdict: 'holds-simplex' (the body is {x >= 0 : a.x <= b} for one of
    its halfspaces, so gauge level sets are parallel hyperplanes),
    'holds-injective-gauge' (all lattice gauges pairwise distinct up to
    the cap), or 'violated' (gauge ties found and neither sufficient
    criterion applies; a warning, not a hard error).
    witness_pairs: (alpha, beta) with alpha != beta and equal exact gauge,
    alpha preceding beta in the graded order, up to the degree cap; sorted
    by (|alpha|, alpha, beta) and cut after the first `_MAX_WITNESS_PAIRS`.
    pair_count: the number of such pairs, listed or not.
    """

    verdict: str
    witness_pairs: tuple[tuple[Exponent, Exponent], ...]
    k_max: int
    pair_count: int


# check_dagger lists at most this many witness pairs; their number grows
# with the square of the lattice (1,272,960 for the box N=3 at k=16)
_MAX_WITNESS_PAIRS = 10_000


def is_simplex(body: ConvexBody) -> bool:
    """True iff the body is {x >= 0 : a.x <= b} for one of its halfspaces.

    That halfspace needs a > 0, and the body is its simplex iff every
    halfspace holds at the simplex's vertices (b / a_j) e_j, tested
    exactly on the integer rows as A_rj * B <= B_r * A_j.
    """
    a_int, b_int = _integer_rows(body)
    return any(np.all(a_int * b <= np.multiply.outer(b_int, a))
               for a, b in zip(a_int, b_int) if np.all(a > 0))


def check_dagger(body: ConvexBody, k_max: int) -> DaggerReport:
    """Decide leading-term stability up to the degree cap `k_max`.

    Simplices qualify structurally.  Otherwise the body qualifies iff the
    gauge is injective on the lattice points of k_max*C.  Unless it is,
    every exact gauge tie is counted, and the first `_MAX_WITNESS_PAIRS`
    are listed as witness pairs.
    """
    verdict = _dagger_verdict(body, k_max)
    runs = []
    if verdict != "holds-injective-gauge":
        pts = body.lattice_points(k_max)
        keys, _ = _gauge_numerators(body, pts)
        # the lattice is sorted by gauge, so equal gauges form runs
        runs = [run for _, group in itertools.groupby(pts, dict(zip(pts, keys)).get)
                if len(run := list(group)) > 1]
    # each tied alpha in (|alpha|, alpha) order, paired with the later members of its run
    tied = sorted((sum(a), a, i) for i, run in enumerate(runs) for a in run)
    members = [sorted(run) for run in runs]
    pairs = ((a, b) for s, a, i in tied for b in members[i] if (sum(b), b) > (s, a))
    return DaggerReport(verdict=verdict, witness_pairs=tuple(itertools.islice(pairs, _MAX_WITNESS_PAIRS)),
                        k_max=k_max, pair_count=sum(math.comb(len(run), 2) for run in runs))


def _dagger_verdict(body: ConvexBody, k_max: int) -> str:
    """The verdict of `check_dagger(body, k_max)`, without building witness pairs.

    A simplex is decided before any lattice point is enumerated; otherwise
    two lattice points with one integer gauge key are a tie.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    if is_simplex(body):
        return "holds-simplex"
    keys, _ = _gauge_numerators(body, body.lattice_points(k_max))
    return "violated" if len(set(keys)) < len(keys) else "holds-injective-gauge"


def simplex_body(dim: int) -> ConvexBody:
    """The standard unit simplex as a validated body."""
    return validate_body([(tuple(Fraction(1) for _ in range(dim)), Fraction(1))], dim)


def box_body(dim: int, sides=None) -> ConvexBody:
    """Axis-aligned box [0, s_1] x ... x [0, s_N] (unit cube by default)."""
    sides = [Fraction(1)] * dim if sides is None else [as_fraction(s, "sides") for s in sides]
    rows = []
    for j, s in enumerate(sides):
        a = tuple(Fraction(int(i == j)) for i in range(dim))
        rows.append((a, s))
    return validate_body(rows, dim)
