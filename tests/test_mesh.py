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


def test_radial_gaussian_weight():
    mesh = build_mesh({"kind": "circle", "center": 0, "radius": 2, "count": 8,
                       "weight": {"kind": "radial-gaussian", "sigma": 1.0}})
    np.testing.assert_allclose(mesh.log_weights, -2.0, atol=1e-12)


def test_weight_length_mismatch():
    with pytest.raises(WeightLengthMismatch):
        build_mesh({"kind": "interval", "a": 0, "b": 1, "count": 3,
                    "weight": {"kind": "table", "log_weights": [0.0]}})


def test_all_zero_weights_rejected():
    with pytest.raises(DegenerateWeight):
        build_mesh({"kind": "interval", "a": 0, "b": 1, "count": 2,
                    "weight": {"kind": "table", "log_weights": [-math.inf, -math.inf]}})


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
