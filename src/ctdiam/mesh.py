"""Finite weighted discretizations of compact sets in C^N.

A compact set enters every computation only through a finite mesh of
points with log-domain weights, so each sup-norm statement becomes an
exactly checkable finite max.  Weights are stored as log w (with -inf
for w = 0) because w^k under- and overflows for quite moderate k.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateWeight,
    DimensionMismatch,
    EmptySpec,
    ValidationError,
    WeightLengthMismatch,
)

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class Mesh:
    """Ordered complex sample points with log weights."""

    dim: int
    points: np.ndarray  # (n, dim) complex
    log_weights: np.ndarray  # (n,), -inf allowed
    provenance: str = "explicit"

    def __post_init__(self):
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
        if np.isnan(lw).any():
            raise ValidationError("log weights must not be NaN")
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
        return bool(np.all(self.log_weights == 0.0))

    def scaled(self, factor: complex) -> "Mesh":
        """Mesh with every point multiplied by `factor` (weights unchanged)."""
        return Mesh(self.dim, self.points * factor, self.log_weights.copy(),
                    provenance=f"{self.provenance} * {factor}")


def monomial_values(points: np.ndarray, exponents) -> np.ndarray:
    """Matrix of z^alpha(zeta): rows indexed by exponent, columns by point."""
    pts = np.asarray(points, dtype=complex)
    out = np.empty((len(exponents), pts.shape[0]), dtype=complex)
    for j, alpha in enumerate(exponents):
        v = np.ones(pts.shape[0], dtype=complex)
        for i, e in enumerate(alpha):
            if e:
                v = v * pts[:, i] ** e
        out[j] = v
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
            alpha = tuple(int(a) for a in alpha)
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
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(values))
    if k == 0:
        return float(np.max(log_abs))
    # k * (-inf) must stay -inf, never NaN
    weighted = np.where(np.isfinite(mesh.log_weights), k * mesh.log_weights, -np.inf) + log_abs
    return float(np.max(weighted))


# ---------------------------------------------------------------------------
# Mesh generators.  All are deterministic; product orders are
# lexicographic in the factor indices.
# ---------------------------------------------------------------------------

def _weight_for(points: np.ndarray, spec) -> np.ndarray:
    n = points.shape[0]
    if spec is None:
        return np.zeros(n)
    kind = spec.get("kind")
    if kind == "one":
        return np.zeros(n)
    if kind == "radial-gaussian":
        sigma = float(spec.get("sigma", 1.0))
        if sigma <= 0:
            raise ValidationError("radial-gaussian weight needs sigma > 0")
        sq = np.sum(np.abs(points) ** 2, axis=1)
        return -sq / (2.0 * sigma**2)
    if kind == "table":
        table = [float(v) for v in spec["log_weights"]]
        if len(table) != n:
            raise WeightLengthMismatch(f"{len(table)} weights for {n} points")
        return np.array(table)
    raise ValidationError(f"unknown weight kind {kind!r}")


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(value)


def _circle_points(center: complex, radius: float, count: int) -> np.ndarray:
    if count < 1:
        raise EmptySpec("circle needs count >= 1")
    ang = 2.0 * np.pi * np.arange(count) / count
    return (center + radius * np.exp(1j * ang)).reshape(-1, 1)


def _interval_points(a: float, b: float, count: int, spacing: str) -> np.ndarray:
    if count < 1:
        raise EmptySpec("interval needs count >= 1")
    if count == 1:
        x = np.array([(a + b) / 2.0])
    elif spacing == "uniform":
        x = np.linspace(a, b, count)
    elif spacing == "chebyshev-nodes":
        # extreme points of the degree count-1 Chebyshev polynomial, ascending;
        # the sine form keeps them exactly symmetric (0 lands exactly on the
        # grid for odd counts), unlike -cos(pi*j/(count-1))
        n = count - 1
        t = np.sin(np.pi * (2.0 * np.arange(count) - n) / (2.0 * n))
        x = a + (b - a) * (t + 1.0) / 2.0
    else:
        raise ValidationError(f"unknown interval spacing {spacing!r}")
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
    product{factors}, explicit{points[, dim]}.  An optional weight block
    {'kind': 'one' | 'radial-gaussian' | 'table', ...} applies to the
    final point list.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("mesh spec must be a mapping with a 'kind'")
    kind = spec["kind"]
    weight_spec = spec.get("weight")
    if kind == "circle":
        pts = _circle_points(_as_complex(spec.get("center", 0)), float(spec.get("radius", 1)), int(spec["count"]))
        prov = f"circle(center={spec.get('center', 0)}, radius={spec.get('radius', 1)}, count={spec['count']})"
    elif kind == "interval":
        pts = _interval_points(float(spec["a"]), float(spec["b"]), int(spec["count"]),
                               spec.get("spacing", "uniform"))
        prov = f"interval([{spec['a']}, {spec['b']}], count={spec['count']}, {spec.get('spacing', 'uniform')})"
    elif kind == "box2d":
        (xa, xb), (ya, yb) = spec["x"], spec["y"]
        nx, ny = (int(c) for c in spec["counts"])
        mx = Mesh(1, _interval_points(float(xa), float(xb), nx, "uniform"), np.zeros(nx))
        my = Mesh(1, _interval_points(float(ya), float(yb), ny, "uniform"), np.zeros(ny))
        out = _cartesian([mx, my], f"box2d({nx}x{ny})")
        pts, prov = out.points, out.provenance
    elif kind == "torus":
        counts = [int(c) for c in spec["counts"]]
        radii = [float(r) for r in spec.get("radii", [1.0] * len(counts))]
        centers = [_as_complex(c) for c in spec.get("centers", [0.0] * len(counts))]
        if not (len(counts) == len(radii) == len(centers)):
            raise ValidationError("torus radii/counts/centers lengths differ")
        factors = [Mesh(1, _circle_points(c, r, n), np.zeros(n)) for c, r, n in zip(centers, radii, counts)]
        out = _cartesian(factors, f"torus({'x'.join(map(str, counts))})")
        pts, prov = out.points, out.provenance
    elif kind == "product":
        factors = [build_mesh(f) for f in spec["factors"]]
        if not factors:
            raise EmptySpec("product needs at least one factor")
        out = _cartesian(factors, " x ".join(m.provenance for m in factors))
        if weight_spec is None:
            return out
        pts, prov = out.points, out.provenance
    elif kind == "explicit":
        raw = spec["points"]
        if not raw:
            raise EmptySpec("explicit mesh has no points")
        first = raw[0]
        flat = [list(map(float, p)) for p in raw]
        width = len(first)
        if width % 2 != 0:
            raise ValidationError("explicit points need 2N real columns (re, im pairs)")
        dim = int(spec.get("dim", width // 2))
        if dim * 2 != width:
            raise ValidationError(f"{width} columns inconsistent with dim={dim}")
        arr = np.array(flat)
        pts = (arr[:, 0::2] + 1j * arr[:, 1::2]).astype(complex)
        prov = f"explicit({len(raw)} points)"
    else:
        raise ValidationError(f"unknown mesh kind {kind!r}")
    return Mesh(pts.shape[1], pts, _weight_for(pts, weight_spec), provenance=prov)


def mesh_from_csv(path, dim: int) -> Mesh:
    """Read an explicit mesh: 2N real columns per row, optional trailing log-weight."""
    points = []
    weights = []
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
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
                raise ValidationError(f"row has {len(vals)} columns, expected {2 * dim} or {2 * dim + 1}")
            points.append([complex(vals[2 * i], vals[2 * i + 1]) for i in range(dim)])
            weights.append(lw)
    if not points:
        raise EmptySpec(f"no mesh rows in {path}")
    return Mesh(dim, np.array(points), np.array(weights), provenance=f"csv:{path}")


def mesh_to_csv(mesh: Mesh, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for p, lw in zip(mesh.points, mesh.log_weights):
            row = []
            for z in p:
                row.extend((format(z.real, ".17g"), format(z.imag, ".17g")))
            row.append(format(lw, ".17g"))
            writer.writerow(row)
