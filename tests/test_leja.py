import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctdiam import (
    BruteForce,
    box_body,
    build_mesh,
    chebyshev_constant,
    leja_diameter,
    leja_sequence,
    max_vdm,
    simplex_body,
    validate_body,
    vandermonde_det,
)
from ctdiam.errors import InsufficientSupport, ValidationError
from ctdiam.leja import leja_to_csv
from ctdiam.mesh import Mesh
from ctdiam.order import CGREVLEX

BODIES = [
    simplex_body(1),
    simplex_body(2),
    box_body(2),
    validate_body([(("1", "0"), "1"), (("0", "1"), "1"), (("1", "1"), "3/2")], 2),  # pentagon
]
# few coordinate values make repeated and collinear points, hence all -inf
# steps and singular prefixes, likely
coordinates = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1j])


@st.composite
def weighted_cases(draw):
    body = draw(st.sampled_from(BODIES))
    n = draw(st.integers(2, 8))
    points = [[draw(coordinates) for _ in range(body.dim)] for _ in range(n)]
    log_weights = draw(st.lists(st.sampled_from([0.0, -0.5, 1.0, -math.inf]),
                                min_size=n, max_size=n))
    log_weights[draw(st.integers(0, n - 1))] = 0.0  # keep the support nonempty
    count = draw(st.integers(1, sum(map(math.isfinite, log_weights))))  # at most the support
    return body, Mesh(body.dim, np.array(points), np.array(log_weights)), count


def test_leja_five_point_interval(mesh5, simplex1):
    seq = leja_sequence(mesh5, simplex1, 3)
    assert seq.indices == [0, 4, 2]  # -1, then 1, then 0
    assert seq.k_values == [0, 1, 2]
    assert seq.log_values[0] == 0.0
    assert seq.log_values[2] == pytest.approx(math.log(2.0), abs=1e-12)


def test_leja_fourth_roots(simplex1):
    mesh = build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 4})
    seq = leja_sequence(mesh, simplex1, 2)
    assert seq.indices[0] == 0  # first index on weight ties
    assert abs(mesh.points[seq.indices[1], 0] - mesh.points[0, 0]) == pytest.approx(2.0)


def test_leja_weighted_first_point(simplex1):
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 5,
                       "weight": {"kind": "table", "log_weights": [-1, -1, 3.0, -1, -1]}})
    seq = leja_sequence(mesh, simplex1, 2)
    assert seq.indices[0] == 2  # argmax of the weight
    assert seq.log_values[0] == 0.0  # k_1 = 0 so the weight power is w^0 = 1


def test_leja_diameter_five_points(mesh5, simplex1):
    report = leja_diameter(mesh5, simplex1, 2)
    assert report.rows[-1].value == pytest.approx(2 ** (1 / 3), abs=1e-12)
    assert not report.heuristic


def test_leja_diameter_k1_unrolled(mesh5, simplex1):
    report = leja_diameter(mesh5, simplex1, 1)
    # first point is the first mesh point; the second maximizes the distance
    d = max(abs(z - mesh5.points[0, 0]) for z in mesh5.points[:, 0])
    assert report.rows[0].value == pytest.approx(float(d), abs=1e-12)


def test_leja_circle_convergence(circle256, simplex1):
    report = leja_diameter(circle256, simplex1, 8)
    assert report.rows[-1].value == pytest.approx(1.0, abs=0.35)
    # and the classical frozen value for this mesh and growth rule
    assert report.rows[-1].value == pytest.approx(1.2844147, abs=1e-6)


def test_leja_greedy_lower_bound(mesh5, mesh7, simplex1):
    # running determinant after M_k steps is at least V_k / M_k!
    for mesh in (mesh5, mesh7):
        for k in (1, 2):
            m_k, _, _ = simplex1.counts(k)
            seq = leja_sequence(mesh, simplex1, m_k)
            exact = max_vdm(mesh, simplex1, k, BruteForce())
            assert seq.log_values[m_k - 1] >= exact.value.log_abs - math.lgamma(m_k + 1) - 1e-8


def test_leja_below_fekete(mesh5, mesh7, circle64, simplex1):
    for mesh, ks in [(mesh5, (1, 2)), (mesh7, (1, 2, 3)), (circle64, (1, 2))]:
        for k in ks:
            m_k, _, _ = simplex1.counts(k)
            seq = leja_sequence(mesh, simplex1, m_k)
            exact = max_vdm(mesh, simplex1, k, BruteForce())
            assert seq.log_values[m_k - 1] <= exact.value.log_abs + 1e-9


def test_leja_per_step_chebyshev_bound(mesh7, circle64, simplex1):
    # each greedy gain is at least the optimal class norm at that step
    for mesh in (mesh7, circle64):
        m3, _, _ = simplex1.counts(3)
        seq = leja_sequence(mesh, simplex1, m3)
        for s in range(1, m3):
            alpha = seq.exponents[s]
            k = seq.k_values[s]
            rec = chebyshev_constant(mesh, simplex1, k, alpha, CGREVLEX)
            gain = seq.log_values[s] - seq.log_values[s - 1]
            assert gain >= rec.log_nu - 1e-6


def test_leja_determinism(circle64, simplex1):
    a = leja_sequence(circle64, simplex1, 9)
    b = leja_sequence(circle64, simplex1, 9)
    assert a.indices == b.indices
    assert a.log_values == b.log_values


def test_leja_prefix_consistency(circle64, simplex1):
    short = leja_sequence(circle64, simplex1, 5)
    long = leja_sequence(circle64, simplex1, 9)
    assert long.indices[:5] == short.indices


def test_leja_never_repeats_an_index(collinear9, simplex2):
    # past the second point every candidate scores -inf on this mesh
    seq = leja_sequence(collinear9, simplex2, 6)
    assert len(set(seq.indices)) == 6
    assert all(v == -math.inf for v in seq.log_values[2:])


def test_leja_insufficient_points(mesh5, simplex1):
    with pytest.raises(InsufficientSupport):
        leja_sequence(mesh5, simplex1, 6)
    with pytest.raises(InsufficientSupport):
        leja_diameter(mesh5, simplex1, 5)
    with pytest.raises(ValidationError):
        leja_sequence(mesh5, simplex1, 0)
    with pytest.raises(ValidationError, match=r"^k_max must be >= 1$"):
        leja_diameter(mesh5, simplex1, 0)


def test_leja_needs_the_support_that_max_vdm_needs(simplex1):
    # 3 of the 5 points are positively weighted: Leja and Fekete search both
    # refuse a fourth point with the one message of mesh.check_support
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 5,
                       "weight": {"kind": "table", "log_weights": [0, -math.inf, 0, -math.inf, 0]}})
    assert leja_sequence(mesh, simplex1, 3).indices == [0, 4, 2]
    message = r"^4 positively weighted points needed, the mesh has 3$"
    for call in (lambda: leja_sequence(mesh, simplex1, 4), lambda: leja_diameter(mesh, simplex1, 3),
                 lambda: max_vdm(mesh, simplex1, 3)):
        with pytest.raises(InsufficientSupport, match=message):
            call()


def test_leja_weighted_flagged_heuristic(simplex1):
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 9,
                       "weight": {"kind": "radial-gaussian", "sigma": 2.0}})
    report = leja_diameter(mesh, simplex1, 2)
    assert report.heuristic
    # a zero-weight point is no candidate at all, so it does not make Leja heuristic
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 6,
                       "weight": {"kind": "table", "log_weights": [0, 0, -math.inf, 0, 0, 0]}})
    assert not leja_diameter(mesh, simplex1, 2).heuristic


def test_leja_csv(tmp_path, mesh5, simplex1):
    report = leja_diameter(mesh5, simplex1, 2)
    path = tmp_path / "leja.csv"
    leja_to_csv(report, path)
    text = path.read_text().splitlines()
    assert text[0] == "s,k,re_1,im_1,log_vdm"
    assert any(line.startswith("k,M_k") for line in text)


@settings(deadline=None)
@given(case=weighted_cases())
def test_leja_values_match_vandermonde_det(case):
    body, mesh, count = case
    seq = leja_sequence(mesh, body, count)
    assert len(set(seq.indices)) == count
    assert all(math.isfinite(mesh.log_weights[i]) for i in seq.indices)
    for s in range(1, count + 1):
        expected = vandermonde_det(mesh, body, seq.k_values[s - 1], seq.indices[:s]).log_abs
        if expected == -math.inf:
            assert seq.log_values[s - 1] == -math.inf
        else:
            assert seq.log_values[s - 1] == pytest.approx(expected, abs=1e-9)


def test_leja_overflowing_monomial_is_a_validation_error(simplex1):
    mesh = Mesh(1, [[-1], [0], [1], [2], [3], [1e200]], np.zeros(6))
    with pytest.raises(ValidationError, match="degree 2"):
        leja_diameter(mesh, simplex1, 2)


def test_leja_under_infinite_weight_powers_reads_no_nan():
    # points 0 and 1 coincide and every log weight is 1e308: every weight
    # power from degree 1 on is inf, and a singular prefix reads -inf, not nan
    mesh = Mesh(1, [[0], [0], [1], [2]], [1e308] * 4)
    seq = leja_sequence(mesh, simplex_body(1), 3)
    assert seq.indices == [0, 2, 3]
    assert seq.log_values == [0.0, math.inf, math.inf]
    assert [row.value for row in leja_diameter(mesh, simplex_body(1), 2).rows] == [math.inf, math.inf]
    # on a 4 x 4 torus every weight power from degree 2 on is inf: the points
    # that score inf are ranked by their residual, so the level-2 prefix is
    # unisolvent and reads inf, where the lowest indices made it singular (-inf)
    torus = build_mesh({"kind": "torus", "counts": [4, 4],
                        "weight": {"kind": "table", "log_weights": [1e308] * 16}})
    rows = leja_diameter(torus, simplex_body(2), 2).rows
    assert [(row.log_vdm, row.value) for row in rows] == [(math.inf, math.inf), (math.inf, math.inf)]


def test_leja_fallback_under_infinite_weight_powers_ranks_by_determinant(monkeypatch):
    # with every residual solve refused, each step scores the full bordered
    # determinants; the points that score inf are ranked by log |det|, so no
    # prefix is singular, where the lowest indices read -inf from 5 points on
    def refused(*args, **kwargs):
        raise np.linalg.LinAlgError("refused")

    monkeypatch.setattr(np.linalg, "solve", refused)
    torus = build_mesh({"kind": "torus", "counts": [4, 4],
                        "weight": {"kind": "table", "log_weights": [1e308] * 16}})
    seq = leja_sequence(torus, simplex_body(2), 10)
    assert seq.log_values == [0.0] + [math.inf] * 9
