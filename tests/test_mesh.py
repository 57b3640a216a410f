import dataclasses
import math

import numpy as np
import pytest

from ctdiam import Mesh, Polynomial, build_mesh, mesh_from_csv, weighted_sup_norm
from ctdiam.errors import (
    DegenerateWeight,
    DimensionMismatch,
    EmptySpec,
    ValidationError,
    WeightLengthMismatch,
)
from ctdiam.mesh import mesh_to_csv, monomial_values


def test_circle_fourth_roots():
    mesh = build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 4, "weight": {"kind": "one"}})
    np.testing.assert_allclose(mesh.points.ravel(), [1, 1j, -1, -1j], atol=1e-15)
    assert np.all(mesh.log_weights == 0.0)


def test_interval_uniform():
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 5, "spacing": "uniform"})
    np.testing.assert_allclose(mesh.points.ravel().real, [-1, -0.5, 0, 0.5, 1], atol=1e-15)


def test_chebyshev_nodes_contain_extrema(cheb401):
    x = cheb401.points.ravel().real
    assert x[0] == pytest.approx(-1) and x[-1] == pytest.approx(1)
    assert 0.0 in x  # odd count on a symmetric interval
    assert np.all(np.diff(x) > 0)


def test_product_of_circles_is_torus():
    spec = {"kind": "circle", "center": 0, "radius": 1, "count": 4}
    prod = build_mesh({"kind": "product", "factors": [spec, spec]})
    torus = build_mesh({"kind": "torus", "counts": [4, 4]})
    assert prod.dim == torus.dim == 2
    assert len(prod) == 16
    np.testing.assert_allclose(prod.points, torus.points, atol=1e-15)


def test_box2d_grid_order():
    mesh = build_mesh({"kind": "box2d", "x": [0, 1], "y": [0, 2], "counts": [2, 3]})
    assert len(mesh) == 6
    # lexicographic in factor indices: x outer, y inner
    np.testing.assert_allclose(mesh.points[:3, 0].real, [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(mesh.points[:3, 1].real, [0, 1, 2], atol=1e-15)
    assert np.all(mesh.points.imag == 0)


def test_explicit_and_csv_roundtrip(tmp_path):
    mesh = build_mesh({
        "kind": "explicit",
        "points": [[1, 0, 0, 1], [0.5, -0.25, 2, 0]],
        "weight": {"kind": "table", "log_weights": [0.0, -1.5]},
    })
    assert mesh.dim == 2
    path = tmp_path / "mesh.csv"
    mesh_to_csv(mesh, path)
    back = mesh_from_csv(path, 2)
    np.testing.assert_allclose(back.points, mesh.points, atol=1e-15)
    np.testing.assert_allclose(back.log_weights, mesh.log_weights, atol=1e-15)


def test_csv_mesh_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "mesh.csv"
    path.write_text("0,0\n1,abc\n")
    with pytest.raises(ValidationError, match="row 2"):
        mesh_from_csv(path, 1)


def test_csv_mesh_column_count_error_names_file_and_line(tmp_path):
    path = tmp_path / "mesh.csv"
    path.write_text("# re, im, re, im\n0,0,1,0\n1,0,2\n")
    with pytest.raises(ValidationError) as exc:
        mesh_from_csv(path, 2)
    assert str(exc.value) == f"{path} row 3 has 3 columns, expected 4 or 5"


def test_radial_gaussian_weight():
    mesh = build_mesh({"kind": "circle", "center": 0, "radius": 2, "count": 8,
                       "weight": {"kind": "radial-gaussian", "sigma": 1.0}})
    np.testing.assert_allclose(mesh.log_weights, -2.0, atol=1e-12)


WEIGHTED3 = {"kind": "interval", "a": -1, "b": 1, "count": 3,
             "weight": {"kind": "table", "log_weights": [-1, -2, -3]}}


def test_product_weight_adds_to_factor_weights():
    factor_sums = [-2, -3, -4, -3, -4, -5, -4, -5, -6]
    alone = build_mesh({"kind": "product", "factors": [WEIGHTED3, WEIGHTED3]})
    assert alone.log_weights.tolist() == factor_sums
    one = build_mesh({"kind": "product", "factors": [WEIGHTED3, WEIGHTED3], "weight": {"kind": "one"}})
    assert one.log_weights.tolist() == factor_sums
    table = build_mesh({"kind": "product", "factors": [WEIGHTED3, WEIGHTED3],
                        "weight": {"kind": "table", "log_weights": [0.5] * 8 + [-math.inf]}})
    assert table.log_weights.tolist() == [w + 0.5 for w in factor_sums[:8]] + [-math.inf]
    assert table.provenance == one.provenance == alone.provenance


def test_product_weight_on_unweighted_factors_is_the_weight():
    spec = {"kind": "circle", "center": 0, "radius": 2, "count": 4}
    weight = {"kind": "radial-gaussian", "sigma": 1.0}
    prod = build_mesh({"kind": "product", "factors": [spec, spec], "weight": weight})
    torus = build_mesh({"kind": "torus", "counts": [4, 4], "radii": [2, 2], "weight": weight})
    assert prod.log_weights.tobytes() == torus.log_weights.tobytes()


@pytest.mark.parametrize("spec, field", [
    ({"kind": "circle", "count": 9.7}, "mesh.count"),
    ({"kind": "circle", "count": "abc"}, "mesh.count"),
    ({"kind": "circle"}, "mesh.count"),
    ({"kind": "circle", "count": 4, "radius": "r"}, "mesh.radius"),
    ({"kind": "circle", "count": 4, "center": [1]}, "mesh.center"),
    ({"kind": "interval", "b": 1, "count": 3}, "mesh.a"),
    ({"kind": "box2d", "x": [0, 1], "y": [0], "counts": [2, 2]}, "mesh.y"),
    ({"kind": "box2d", "x": [0, 1], "y": [0, 1], "counts": [2, 2.5]}, "mesh.counts"),
    ({"kind": "torus", "counts": 16}, "mesh.counts"),
    ({"kind": "torus", "counts": [4, 4], "radii": ["x", 1]}, "mesh.radii"),
    ({"kind": "torus", "counts": [4, 4], "centers": [0, "c"]}, "mesh.centers"),
    ({"kind": "product"}, "mesh.factors"),
    ({"kind": "product", "factors": [{"kind": "circle", "count": 4}, {"kind": "circle"}]},
     "mesh.factors[1].count"),
    ({"kind": "explicit", "points": [[0, 0], [1]]}, "mesh.points[1]"),
    ({"kind": "explicit", "points": [[0, "x"]]}, "mesh.points[0]"),
    ({"kind": "explicit", "points": [[0, 0]], "dim": 0.5}, "mesh.dim"),
    ({"kind": "circle", "count": 4, "weight": "one"}, "mesh.weight"),
    ({"kind": "circle", "count": 4, "weight": {"kind": "radial-gaussian", "sigma": "abc"}},
     "mesh.weight.sigma"),
    ({"kind": "circle", "count": 2, "weight": {"kind": "table", "log_weights": [0, "w"]}},
     "mesh.weight.log_weights"),
    ({"kind": "circle", "count": 2, "weight": {"kind": "table"}}, "mesh.weight.log_weights"),
    ({"kind": "circle", "count": True}, "mesh.count"),
    ({"kind": "circle", "count": 4, "radius": True}, "mesh.radius"),
    ({"kind": "circle", "count": 4, "center": False}, "mesh.center"),
], ids=["count-fractional", "count-not-int", "count-missing", "radius-not-real", "center-not-a-pair",
        "a-missing", "y-not-a-pair", "counts-fractional", "counts-not-a-list", "radii-not-real",
        "centers-not-complex", "factors-missing", "factor-count-missing", "ragged-points",
        "point-not-real", "dim-fractional", "weight-not-a-mapping", "sigma-not-real",
        "log-weight-not-real", "log-weights-missing", "count-true", "radius-true", "center-false"])
def test_malformed_field_is_named(spec, field):
    with pytest.raises(ValidationError) as exc:
        build_mesh(spec)
    assert str(exc.value).startswith(field + " ")


def test_valid_provenance_unchanged():
    # provenance strings appear in report.json, so they echo the spec as given
    mesh = build_mesh({"kind": "circle", "center": [0, 0], "radius": 1, "count": 8.0})
    assert len(mesh) == 8
    assert mesh.provenance == "circle(center=[0, 0], radius=1, count=8.0)"
    mesh = build_mesh({"kind": "interval", "a": -1, "b": "1", "count": 5, "spacing": "chebyshev-nodes"})
    assert mesh.provenance == "interval([-1, 1], count=5, chebyshev-nodes)"


def test_weight_length_mismatch():
    with pytest.raises(WeightLengthMismatch):
        build_mesh({"kind": "interval", "a": 0, "b": 1, "count": 3,
                    "weight": {"kind": "table", "log_weights": [0.0]}})


def test_all_zero_weights_rejected():
    with pytest.raises(DegenerateWeight):
        build_mesh({"kind": "interval", "a": 0, "b": 1, "count": 2,
                    "weight": {"kind": "table", "log_weights": [-math.inf, -math.inf]}})


def _csv_without_weight(tmp_path):
    path = tmp_path / "mesh.csv"
    path.write_text("0,0,-inf\n1,0,-inf\n")
    return mesh_from_csv(path, 1)


@pytest.mark.parametrize("make", [
    lambda tmp_path: Mesh(1, [[0], [1]], np.full(2, -math.inf)),
    lambda tmp_path: dataclasses.replace(Mesh(1, [[0], [1]], np.zeros(2)),
                                         log_weights=np.full(2, -math.inf)),
    _csv_without_weight,
], ids=["constructor", "dataclasses-replace", "csv-weight-column"])
def test_every_mesh_has_a_positively_weighted_point(tmp_path, make):
    # the Chebyshev and Leja paths read a nonempty mesh.support without checking it;
    # test_all_zero_weights_rejected covers build_mesh's table weight
    with pytest.raises(DegenerateWeight, match="^every mesh point has zero weight$"):
        make(tmp_path)


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0),
                                 complex(0, -math.inf)], ids=["nan-re", "nan-im", "inf-re", "inf-im"])
def test_non_finite_point_rejected(bad):
    with pytest.raises(ValidationError, match="mesh point 2 is not finite"):
        Mesh(1, [[0], [1], [bad], [3]], np.zeros(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nan_or_infinite_log_weight_rejected(bad):
    # a +inf log weight used to drop its point from the support silently
    with pytest.raises(ValidationError, match="NaN or \\+inf"):
        Mesh(1, [[0], [1], [2], [3]], [0, 0, bad, 0])


def test_zero_dimensional_mesh_rejected(tmp_path):
    # no coordinates per point, as an explicit spec or as a csv of log weights only
    with pytest.raises(ValidationError, match="a mesh needs dimension >= 1, got 0"):
        build_mesh({"kind": "explicit", "points": [[], [], []]})
    path = tmp_path / "mesh.csv"
    path.write_text("0\n0\n0\n")
    with pytest.raises(ValidationError, match="a mesh needs dimension >= 1, got 0"):
        mesh_from_csv(path, 0)


def test_empty_specs_rejected():
    with pytest.raises(EmptySpec):
        build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 0})
    with pytest.raises(EmptySpec):
        build_mesh({"kind": "explicit", "points": []})
    with pytest.raises(ValidationError):
        build_mesh({"kind": "moebius"})


def test_polynomial_drops_zero_terms():
    p = Polynomial({(1, 0): 0.0, (0, 1): 2.0})
    assert (1, 0) not in p.terms
    assert p.is_monic_for((0, 1)) is False
    assert Polynomial({(2,): 1.0}).is_monic_for((2,))


def test_polynomial_product():
    p = Polynomial({(1,): 1.0, (0,): 1.0})
    q = Polynomial({(1,): 1.0, (0,): -1.0})
    assert (p * q).terms == {(2,): 1.0, (0,): -1.0}


def test_sup_norm_monomial_on_circle(circle64):
    assert weighted_sup_norm(circle64, Polynomial({(1,): 1.0}), 1) == pytest.approx(0.0, abs=1e-14)


def test_sup_norm_chebyshev2(cheb401):
    p = Polynomial({(2,): 1.0, (0,): -0.5})
    assert math.exp(weighted_sup_norm(cheb401, p, 2)) == pytest.approx(0.5, abs=1e-12)


def test_sup_norm_constants(circle64, cheb401):
    one = Polynomial({(0,): 1.0})
    for mesh in (circle64, cheb401):
        for k in (1, 3):
            assert weighted_sup_norm(mesh, one, k) == pytest.approx(0.0, abs=1e-14)


def test_sup_norm_zero_polynomial(circle64):
    assert weighted_sup_norm(circle64, Polynomial({}), 2) == -math.inf


def test_sup_norm_dimension_check(circle64):
    with pytest.raises(DimensionMismatch):
        weighted_sup_norm(circle64, Polynomial({(1, 1): 1.0}), 1)


def _random_poly(rng, dim, max_deg, n_terms):
    terms = {}
    for _ in range(n_terms):
        alpha = tuple(int(e) for e in rng.integers(0, max_deg + 1, size=dim))
        terms[alpha] = complex(rng.normal(), rng.normal())
    return Polynomial(terms)


def test_sup_norm_submultiplicative(circle64, cheb401):
    rng = np.random.default_rng(42)
    for mesh in (circle64, cheb401):
        for _ in range(50):
            p = _random_poly(rng, 1, 3, 3)
            q = _random_poly(rng, 1, 4, 3)
            k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            lhs = weighted_sup_norm(mesh, p * q, k + m)
            rhs = weighted_sup_norm(mesh, p, k) + weighted_sup_norm(mesh, q, m)
            assert lhs <= rhs + 1e-9


def test_sup_norm_refinement_monotone():
    coarse = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 9})
    fine = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 17})  # superset of coarse
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = _random_poly(rng, 1, 4, 3)
        assert weighted_sup_norm(fine, p, 2) >= weighted_sup_norm(coarse, p, 2) - 1e-12


def test_sup_norm_scaling_homogeneity(cheb401):
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = _random_poly(rng, 1, 4, 3)
        c = complex(rng.normal(), rng.normal())
        if c == 0:
            continue
        got = weighted_sup_norm(cheb401, p.scaled(c), 2)
        want = weighted_sup_norm(cheb401, p, 2) + math.log(abs(c))
        assert got == pytest.approx(want, abs=1e-12)


def test_monomial_values_shape(torus16):
    vals = monomial_values(torus16.points, [(0, 0), (1, 2)])
    assert vals.shape == (2, 256)
    np.testing.assert_allclose(np.abs(vals[1]), 1.0, atol=1e-12)


def test_mesh_requires_point(circle64):
    with pytest.raises(EmptySpec):
        Mesh(1, np.zeros((0, 1), dtype=complex), np.zeros(0))
