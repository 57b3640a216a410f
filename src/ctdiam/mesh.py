"""Finite weighted discretizations of compact sets in C^N.

A compact set enters every computation only through a finite mesh of
points with log-domain weights, so each sup-norm statement becomes an
exactly checkable finite max.  Weights are stored as log w (with -inf
for w = 0) because w^k under- and overflows for quite moderate k.
The rules at the edges of that log domain live here:
`log_weight_power` forms the log w^k of each point (0 at k = 0, and
+-inf past the float range), `log_weighted` adds a log w^k to a
log-magnitude log|v| (a nan reads -inf, so 0 * inf is 0),
`log_weighted_selection` does so for the weight k * sum(log w) of a
point selection, and `exp_or_inf` turns every reported log back into a
value (inf past the float range).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .body import _MAX_GRID, ConvexBody, as_int
from .errors import (
    DegenerateWeight,
    DimensionMismatch,
    EmptySpec,
    InsufficientSupport,
    ValidationError,
    WeightLengthMismatch,
)
from .serialize import fmt, write_csv

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class Mesh:
    """Ordered complex sample points with log weights."""

    dim: int
    points: np.ndarray  # (n, dim) complex
    log_weights: np.ndarray  # (n,), -inf allowed
    provenance: str = "explicit"

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"a mesh needs dimension >= 1, got {self.dim}")
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        lw = np.asarray(self.log_weights, dtype=float)
        if pts.shape[0] == 0:
            raise EmptySpec("a mesh needs at least one point")
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(f"points have dimension {pts.shape[1]}, mesh declared {self.dim}")
        if lw.shape != (pts.shape[0],):
            raise WeightLengthMismatch(
                f"{lw.shape[0] if lw.ndim == 1 else lw.shape} weights for {pts.shape[0]} points"
            )
        if not np.isfinite(pts).all():
            row = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise ValidationError(f"mesh point {row} is not finite: {pts[row].tolist()}")
        if np.isnan(lw).any() or np.isposinf(lw).any():
            raise ValidationError("log weights must not be NaN or +inf")
        if not np.any(np.isfinite(lw)):
            raise DegenerateWeight("every mesh point has zero weight")
        pts.flags.writeable = False
        lw.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "log_weights", lw)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def support(self) -> np.ndarray:
        """Indices of points with positive weight."""
        return np.flatnonzero(np.isfinite(self.log_weights))

    @property
    def is_unweighted(self) -> bool:
        """Every supported weight is 1; a zero weight enters no LP, determinant or Leja step."""
        return bool(np.all(self.log_weights[self.support] == 0.0))

    def scaled(self, factor: complex) -> "Mesh":
        """Mesh with every point multiplied by `factor` (weights unchanged)."""
        return Mesh(self.dim, self.points * factor, self.log_weights.copy(),
                    provenance=f"{self.provenance} * {factor}")


def log_weight_power(log_w, k: int):
    """log w^k from log w, elementwise: 0 at k = 0, because w^0 = 1 for zero
    weights too; otherwise k * log w, where a product past the float range
    reads +-inf, without a numpy warning."""
    if k == 0:
        return np.zeros_like(log_w, dtype=float)
    with np.errstate(over="ignore"):
        return k * log_w


def log_weighted(log_abs, log_wk):
    """log(w^k |v|) from log|v| and log w^k, elementwise: their sum, a nan
    reading -inf, so a zero value under an infinite weight power (-inf + inf)
    is 0 and an uncomputable magnitude never wins an argmax.  numpy flags
    -inf + inf as invalid: callers add under np.errstate(invalid="ignore")."""
    return np.fmax(np.add(log_abs, log_wk), -np.inf)


def log_weighted_selection(log_abs, log_w, k: int):
    """`log_weighted` for point selections, their log weights on the last axis
    of log_w: log w^k is k * sum(log w), by the rules of `log_weight_power`,
    a sum past the float range reading +-inf too, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return log_weighted(log_abs, 0.0 if k == 0 else k * log_w.sum(axis=-1))


def exp_or_inf(x: float) -> float:
    """The value e^x of a reported log x: math.exp(x), or inf where e^x is
    past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def check_dimensions(mesh: Mesh, body: ConvexBody) -> None:
    """Raise DimensionMismatch unless the mesh and the body live in one C^N."""
    if mesh.dim != body.dim:
        raise DimensionMismatch(f"mesh dimension {mesh.dim} != body dimension {body.dim}")


def check_support(mesh: Mesh, count: int) -> np.ndarray:
    """`mesh.support`, or InsufficientSupport unless it holds at least `count` points."""
    support = mesh.support
    if support.size < count:
        raise InsufficientSupport(f"{count} positively weighted points needed, the mesh has {support.size}")
    return support


def monomial_values(points: np.ndarray, exponents) -> np.ndarray:
    """Matrix of z^alpha(zeta): rows indexed by exponent, columns by point.

    A monomial that overflows at some point raises ValidationError naming
    its degree, so no inf or nan reaches a determinant or an LP.
    """
    pts = np.asarray(points, dtype=complex)
    out = np.empty((len(exponents), pts.shape[0]), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, alpha in enumerate(exponents):
            v = np.ones(pts.shape[0], dtype=complex)
            for i, e in enumerate(alpha):
                if e:
                    v = v * pts[:, i] ** e
            out[j] = v
    if not np.isfinite(out).all():
        alpha = tuple(exponents[int(np.argmin(np.isfinite(out).all(axis=1)))])
        raise ValidationError(
            f"monomial z^{alpha} of degree {sum(alpha)} is not finite on the mesh (overflow)")
    return out


# ---------------------------------------------------------------------------
# Polynomials as sparse exponent -> coefficient maps.
# ---------------------------------------------------------------------------

@dataclass
class Polynomial:
    """Finite exponent -> complex coefficient map; zero coefficients are dropped."""

    terms: dict[Exponent, complex] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        dim = None
        for alpha, c in self.terms.items():
            alpha = tuple(as_int(a, "exponent") for a in alpha)
            if any(a < 0 for a in alpha):
                raise ValidationError(f"negative exponent {alpha}")
            if dim is None:
                dim = len(alpha)
            elif len(alpha) != dim:
                raise DimensionMismatch("mixed exponent dimensions in one polynomial")
            c = complex(c)
            if c != 0:
                cleaned[alpha] = c
        self.terms = cleaned

    @property
    def dim(self) -> int | None:
        return len(next(iter(self.terms))) if self.terms else None

    def is_monic_for(self, alpha: Exponent) -> bool:
        return self.terms.get(tuple(alpha)) == 1

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if not self.terms:
            return np.zeros(pts.shape[0], dtype=complex)
        vals = monomial_values(pts, list(self.terms))
        coeffs = np.array(list(self.terms.values()))
        return coeffs @ vals

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Exponent, complex] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial(out)

    def scaled(self, c: complex) -> "Polynomial":
        return Polynomial({a: c * v for a, v in self.terms.items()})


def weighted_sup_norm(mesh: Mesh, poly: Polynomial, k: int) -> float:
    """log max over the mesh of w(zeta)^k |p(zeta)|; -inf for the zero polynomial."""
    if poly.dim is not None and poly.dim != mesh.dim:
        raise DimensionMismatch(f"polynomial dimension {poly.dim} != mesh dimension {mesh.dim}")
    values = poly.evaluate(mesh.points)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = np.log(np.abs(values))
        return float(np.max(log_weighted(log_abs, log_weight_power(mesh.log_weights, k))))


# ---------------------------------------------------------------------------
# Mesh generators.  All are deterministic; product orders are
# lexicographic in the factor indices.
# ---------------------------------------------------------------------------

def _as_real(value, field: str) -> float:
    if isinstance(value, bool):  # float(True) is 1.0
        raise ValidationError(f"{field} must be a real number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{field} must be a real number, got {value!r}") from None


def _as_list(value, field: str, length: int | None = None) -> list:
    if not isinstance(value, (list, tuple)) or (length is not None and len(value) != length):
        size = "a list" if length is None else f"a list of {length}"
        raise ValidationError(f"{field} must be {size}, got {value!r}")
    return list(value)


def _as_complex(value, field: str) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = _as_list(value, field, 2)
        return complex(_as_real(re, field), _as_real(im, field))
    if isinstance(value, bool):
        raise ValidationError(f"{field} must be a number or [re, im], got {value!r}")
    try:
        return complex(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{field} must be a number or [re, im], got {value!r}") from None


def _check_size(counts, field: str) -> None:
    """Refuse a count below 1 or a grid of more than _MAX_GRID points, naming `field`,
    before it is built."""
    if any(c < 1 for c in counts):
        raise EmptySpec(f"{field} must be >= 1, got {min(counts)}")
    if (total := math.prod(counts)) > _MAX_GRID:
        raise ValidationError(f"{field} makes {total} mesh points, more than {_MAX_GRID}")


def _circle_points(center: complex, radius: float, count: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(count) / count
    return (center + radius * np.exp(1j * ang)).reshape(-1, 1)


def _interval_points(a: float, b: float, count: int, spacing: str) -> np.ndarray:
    if count == 1:
        x = np.array([(a + b) / 2.0])
    elif spacing == "uniform":
        x = np.linspace(a, b, count)
    else:  # "chebyshev-nodes"
        # extreme points of the degree count-1 Chebyshev polynomial, ascending;
        # the sine form keeps them exactly symmetric (0 lands exactly on the
        # grid for odd counts), unlike -cos(pi*j/(count-1))
        n = count - 1
        t = np.sin(np.pi * (2.0 * np.arange(count) - n) / (2.0 * n))
        x = a + (b - a) * (t + 1.0) / 2.0
    return x.astype(complex).reshape(-1, 1)


def _cartesian(meshes: list[Mesh], provenance: str) -> Mesh:
    dim = sum(m.dim for m in meshes)
    pts_list = [m.points for m in meshes]
    counts = [p.shape[0] for p in pts_list]
    idx = np.stack([g.ravel() for g in np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")], axis=1)
    pts = np.hstack([p[idx[:, i]] for i, p in enumerate(pts_list)])
    lw = sum(meshes[i].log_weights[idx[:, i]] for i in range(len(meshes)))
    return Mesh(dim, pts, lw, provenance=provenance)


def build_mesh(spec: dict) -> Mesh:
    """Build a mesh from its document form.

    Kinds: circle{center, radius, count}, interval{a, b, count, spacing},
    box2d{x, y, counts}, torus{radii, counts[, centers]},
    product{factors}, explicit{points[, dim]}, csv{path, dim} (read by
    `mesh_from_csv`).  Every kind carries log weights: zeros, a csv
    file's weight column, or a product's factor sums.  An optional weight
    block {'kind': 'one' | 'radial-gaussian' | 'table', ...} adds to them.
    A malformed field raises ValidationError naming it, e.g.
    `mesh.factors[1].count`.
    """
    return _build(spec, "mesh")


def _build(spec, path: str) -> Mesh:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"{path} spec must be a mapping with a 'kind'")
    kind = spec["kind"]
    if kind == "circle":
        count = as_int(spec.get("count"), f"{path}.count")
        _check_size([count], f"{path}.count")
        pts = _circle_points(_as_complex(spec.get("center", 0), f"{path}.center"),
                             _as_real(spec.get("radius", 1), f"{path}.radius"), count)
        mesh = Mesh(1, pts, np.zeros(count), provenance=f"circle(center={spec.get('center', 0)}, "
                    f"radius={spec.get('radius', 1)}, count={spec['count']})")
    elif kind == "interval":
        count = as_int(spec.get("count"), f"{path}.count")
        _check_size([count], f"{path}.count")
        spacing = spec.get("spacing", "uniform")
        if spacing not in ("uniform", "chebyshev-nodes"):
            raise ValidationError(f"{path}.spacing must be 'uniform' or 'chebyshev-nodes', got {spacing!r}")
        pts = _interval_points(_as_real(spec.get("a"), f"{path}.a"), _as_real(spec.get("b"), f"{path}.b"),
                               count, spacing)
        mesh = Mesh(1, pts, np.zeros(count),
                    provenance=f"interval([{spec['a']}, {spec['b']}], count={spec['count']}, {spacing})")
    elif kind == "box2d":
        xa, xb = (_as_real(v, f"{path}.x") for v in _as_list(spec.get("x"), f"{path}.x", 2))
        ya, yb = (_as_real(v, f"{path}.y") for v in _as_list(spec.get("y"), f"{path}.y", 2))
        nx, ny = (as_int(c, f"{path}.counts") for c in _as_list(spec.get("counts"), f"{path}.counts", 2))
        _check_size([nx, ny], f"{path}.counts")
        mx = Mesh(1, _interval_points(xa, xb, nx, "uniform"), np.zeros(nx))
        my = Mesh(1, _interval_points(ya, yb, ny, "uniform"), np.zeros(ny))
        mesh = _cartesian([mx, my], f"box2d({nx}x{ny})")
    elif kind == "torus":
        counts = [as_int(c, f"{path}.counts") for c in _as_list(spec.get("counts"), f"{path}.counts")]
        radii = [_as_real(r, f"{path}.radii")
                 for r in _as_list(spec.get("radii", [1.0] * len(counts)), f"{path}.radii", len(counts))]
        centers = [_as_complex(c, f"{path}.centers")
                   for c in _as_list(spec.get("centers", [0.0] * len(counts)), f"{path}.centers",
                                     len(counts))]
        _check_size(counts, f"{path}.counts")
        factors = [Mesh(1, _circle_points(c, r, n), np.zeros(n)) for c, r, n in zip(centers, radii, counts)]
        mesh = _cartesian(factors, f"torus({'x'.join(map(str, counts))})")
    elif kind == "product":
        factors = []
        for i, f in enumerate(_as_list(spec.get("factors"), f"{path}.factors")):
            factors.append(_build(f, f"{path}.factors[{i}]"))
            # refused as soon as the factors built so far are too many points
            _check_size([len(m) for m in factors], f"{path}.factors")
        if not factors:
            raise EmptySpec(f"{path}.factors must list at least one factor")
        mesh = _cartesian(factors, " x ".join(m.provenance for m in factors))
    elif kind == "csv":
        if "path" not in spec:
            raise ValidationError("csv mesh needs a 'path'")
        mesh = mesh_from_csv(spec["path"], as_int(spec.get("dim"), f"{path}.dim"))
    elif kind == "explicit":
        raw = _as_list(spec.get("points"), f"{path}.points")
        if not raw:
            raise EmptySpec("explicit mesh has no points")
        width = len(_as_list(raw[0], f"{path}.points[0]"))
        flat = [[_as_real(x, f"{path}.points[{i}]") for x in _as_list(p, f"{path}.points[{i}]", width)]
                for i, p in enumerate(raw)]
        if width % 2 != 0:
            raise ValidationError(f"{path}.points need 2N real columns (re, im pairs), got {width}")
        dim = as_int(spec.get("dim", width // 2), f"{path}.dim")
        if dim * 2 != width:
            raise ValidationError(f"{path}.dim {dim} is inconsistent with {width} point columns")
        arr = np.array(flat)
        mesh = Mesh(dim, arr[:, 0::2] + 1j * arr[:, 1::2], np.zeros(len(raw)),
                    provenance=f"explicit({len(raw)} points)")
    else:
        raise ValidationError(f"unknown mesh kind {kind!r}")
    return _add_weight(mesh, spec.get("weight"), f"{path}.weight")


def _add_weight(mesh: Mesh, spec, field: str) -> Mesh:
    """`mesh` with the weight block `spec` added to the log weights it carries."""
    if spec is None:
        return mesh
    if not isinstance(spec, dict):
        raise ValidationError(f"{field} must be a mapping with a 'kind', got {spec!r}")
    kind = spec.get("kind")
    if kind == "one":
        block = np.zeros(len(mesh))
    elif kind == "radial-gaussian":
        sigma = _as_real(spec.get("sigma", 1.0), f"{field}.sigma")
        if sigma <= 0:
            raise ValidationError(f"{field}.sigma must be > 0, got {sigma}")
        block = -np.sum(np.abs(mesh.points) ** 2, axis=1) / (2.0 * sigma**2)
    elif kind == "table":
        block = np.array([_as_real(v, f"{field}.log_weights")
                          for v in _as_list(spec.get("log_weights"), f"{field}.log_weights")])
        if len(block) != len(mesh):
            raise WeightLengthMismatch(f"{len(block)} weights for {len(mesh)} points")
    else:
        raise ValidationError(f"{field}.kind must be 'one', 'radial-gaussian' or 'table', got {kind!r}")
    with np.errstate(invalid="ignore"):  # -inf + inf is NaN, which Mesh rejects
        lw = mesh.log_weights + block
    return Mesh(mesh.dim, mesh.points, lw, provenance=mesh.provenance)


def _csv_rows(path):
    """Yield the rows of the csv file `path`; one that cannot be read is a ValidationError."""
    try:
        with open(path, newline="") as fh:
            yield from csv.reader(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"csv mesh {path} cannot be read: {exc}") from exc


def mesh_from_csv(path, dim: int) -> Mesh:
    """Read an explicit mesh: 2N real columns per row, optional trailing log-weight."""
    if dim < 1:  # before any row is read against 2 * dim columns
        raise ValidationError(f"a mesh needs dimension >= 1, got {dim}")
    points = []
    weights = []
    for line, row in enumerate(_csv_rows(path), start=1):
        row = [c for c in row if c.strip() != ""]
        if not row or row[0].lstrip().startswith("#"):
            continue
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise ValidationError(f"{path} row {line} is not numeric: {row}") from exc
        if len(vals) == 2 * dim:
            lw = 0.0
        elif len(vals) == 2 * dim + 1:
            lw = vals[-1]
            vals = vals[:-1]
        else:
            raise ValidationError(f"{path} row {line} has {len(vals)} columns, "
                                  f"expected {2 * dim} or {2 * dim + 1}")
        points.append([complex(vals[2 * i], vals[2 * i + 1]) for i in range(dim)])
        weights.append(lw)
    if not points:
        raise EmptySpec(f"no mesh rows in {path}")
    return Mesh(dim, np.array(points), np.array(weights), provenance=f"csv:{path}")


def mesh_to_csv(mesh: Mesh, path):
    """One row per point: re and im of each coordinate, then the log weight."""
    write_csv(path, ([fmt(x) for z in p for x in (z.real, z.imag)] + [fmt(lw)]
                     for p, lw in zip(mesh.points, mesh.log_weights)))
