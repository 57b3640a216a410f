import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctdiam import average_total_degree, check_dagger, validate_body
from ctdiam.body import (
    _classify_cells,
    body_quadrature,
    cells_in_interior,
    parse_body_spec,
    rational_lp_max,
)
from ctdiam.errors import (
    DimensionMismatch,
    NonpositiveOffset,
    SimplexNotContained,
    Unbounded,
    ValidationError,
)
from ctdiam.order import cgrevlex_key


def test_validate_simplex_itself(simplex2):
    assert simplex2.dim == 2
    assert simplex2.gauge((1, 1)) == 2


def test_validate_unit_square(square):
    assert square.gauge((3, 2)) == 3


def test_validate_rejects_diagonal_cone():
    with pytest.raises(Unbounded) as exc:
        validate_body([(("1", "-1"), "1"), (("-1", "1"), "1")], 2)
    assert "direction" in str(exc.value)


def test_validate_rejects_nonpositive_offset():
    with pytest.raises(NonpositiveOffset):
        validate_body([(("1", "1"), "0")], 2)


def test_validate_rejects_body_missing_simplex():
    with pytest.raises(SimplexNotContained):
        validate_body([(("3", "1"), "2")], 2)


def test_validate_rejects_floats():
    with pytest.raises(ValidationError):
        validate_body([((0.5, 1), 1)], 2)


def test_parse_body_spec_roundtrip():
    body = parse_body_spec({"dim": 2, "halfspaces": [{"a": ["1", "2"], "b": "2"}, {"a": [2, 1], "b": 2}]})
    assert body.gauge((1, 1)) == Fraction(3, 2)


def test_gauge_spec_values(simplex2, square, skew_body):
    assert simplex2.gauge((1, 1)) == 2
    assert square.gauge((3, 2)) == 3
    assert skew_body.gauge((1, 1)) == Fraction(3, 2)
    assert simplex2.gauge((0, 0)) == 0


def test_gauge_dimension_mismatch(simplex2):
    with pytest.raises(DimensionMismatch):
        simplex2.gauge((1, 2, 3))


exponents2 = st.tuples(st.integers(0, 12), st.integers(0, 12))


@given(alpha=exponents2, j=st.integers(1, 10))
def test_gauge_homogeneity(square, skew_body, alpha, j):
    for body in (square, skew_body):
        scaled = tuple(j * a for a in alpha)
        assert body.gauge(scaled) == j * body.gauge(alpha)


@given(alpha=exponents2, beta=exponents2)
def test_gauge_subadditive(square, skew_body, alpha, beta):
    for body in (square, skew_body):
        total = tuple(a + b for a, b in zip(alpha, beta))
        assert body.gauge(total) <= body.gauge(alpha) + body.gauge(beta)


@given(alpha=exponents2)
def test_gauge_below_total_degree(simplex2, square, skew_body, alpha):
    # bodies contain the unit simplex, so the gauge never exceeds |alpha|
    for body in (simplex2, square, skew_body):
        assert body.gauge(alpha) <= sum(alpha)


@given(alpha=exponents2, beta=exponents2, j=st.integers(1, 5), k=st.integers(1, 5))
def test_gauge_scaling_combination(skew_body, alpha, beta, j, k):
    combined = tuple(j * a + k * b for a, b in zip(alpha, beta))
    assert skew_body.gauge(combined) <= j * skew_body.gauge(alpha) + k * skew_body.gauge(beta)


def test_lattice_simplex_k2(simplex2):
    assert set(simplex2.lattice_points(2)) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_lattice_square_k1(square):
    assert set(square.lattice_points(1)) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_lattice_skew_excludes_diagonal(skew_body):
    assert set(skew_body.lattice_points(1)) == {(0, 0), (1, 0), (0, 1)}


@pytest.mark.parametrize("k", range(1, 6))
def test_lattice_monotone(square, skew_body, k):
    for body in (square, skew_body):
        prev = set(body.lattice_points(k - 1))
        cur = set(body.lattice_points(k))
        assert prev <= cur
        m_k, h_k, _ = body.counts(k)
        assert h_k == len(cur) - len(prev) >= 0


def test_counts_spec_values(simplex1, simplex2, square):
    assert simplex2.counts(2) == (6, 3, 8)
    assert square.counts(1) == (4, 3, 4)
    assert simplex1.counts(2) == (3, 1, 3)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("k", range(1, 11))
def test_counts_simplex_binomial(dim, k):
    from ctdiam import simplex_body

    body = simplex_body(dim)
    m_k, _, _ = body.counts(k)
    assert m_k == math.comb(k + dim, dim)


def test_average_degree_interval(simplex1):
    assert average_total_degree(simplex1) == pytest.approx(0.5, abs=1e-12)


def test_average_degree_simplex2(simplex2):
    assert average_total_degree(simplex2) == pytest.approx(2 / 3, abs=1e-3)


def test_average_degree_square(square):
    assert average_total_degree(square) == pytest.approx(1.0, abs=1e-9)


def test_average_degree_simplex3(simplex3):
    value = average_total_degree(simplex3, Fraction(1, 24), 24)
    assert value == pytest.approx(0.75, abs=1e-3)


def test_average_degree_pins(skew_body):
    # exact cell classification pins A_N at the default resolution and subsamples
    pentagon = validate_body([(("1", "0"), "1"), (("0", "1"), "1"), (("1", "1"), "3/2")], 2)
    assert average_total_degree(pentagon) == 0.9049280312935843
    assert average_total_degree(skew_body) == 0.7777780427389239


@pytest.mark.parametrize("subsamples", [0, -1])
def test_quadrature_rejects_subsamples_below_one(skew_body, subsamples):
    with pytest.raises(ValidationError, match="subsamples"):
        body_quadrature(skew_body, Fraction(1, 8), subsamples)


# Fraction oracles for the integer-row geometry: the corner loops the
# float prefilter fell back to, and the gauge itself.

def _oracle_status(body, cell, resolution):
    lo = [c * resolution for c in cell]
    hi = [(c + 1) * resolution for c in cell]
    is_in, is_out = True, False
    for a, b in body.halfspaces:
        mx = sum((aj * (h if aj > 0 else l) for aj, l, h in zip(a, lo, hi)), Fraction(0))
        mn = sum((aj * (l if aj > 0 else h) for aj, l, h in zip(a, lo, hi)), Fraction(0))
        is_in = is_in and mx <= b
        is_out = is_out or mn > b
    return 1 if is_in else (-1 if is_out else 0)


def _oracle_interior(body, alpha, k):
    half = Fraction(1, 2 * k)
    lo = [Fraction(a, k) - half for a in alpha]
    hi = [Fraction(a, k) + half for a in alpha]
    if any(l <= 0 for l in lo):
        return False
    for a, b in body.halfspaces:
        if sum((aj * (h if aj > 0 else l) for aj, l, h in zip(a, lo, hi)), Fraction(0)) >= b:
            return False
    return True


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def bodies_and_resolutions(draw):
    dim = draw(st.integers(1, 3))
    # a first row with every a_j in [b/3, b] keeps the body inside [0, 3]^dim
    b0 = draw(st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)))
    rows = [(tuple(b0 * Fraction(draw(st.integers(2, 6)), 6) for _ in range(dim)), b0)]
    for _ in range(draw(st.integers(0, 2))):
        b = draw(st.builds(Fraction, st.integers(1, 5), st.integers(1, 3)))
        rows.append((tuple(min(draw(small_rationals), b) for _ in range(dim)), b))
    q_max = 9 if dim < 3 else 4
    resolution = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, q_max)))
    return validate_body(rows, dim), resolution


def _check_against_oracles(body, resolution, k):
    cells, status = _classify_cells(body, resolution)
    assert [_oracle_status(body, cell, resolution) for cell in cells.tolist()] == status.tolist()
    box = [range(int(k * body.coordinate_max(j)) + 1) for j in range(body.dim)]
    in_kc = [alpha for alpha in itertools.product(*box) if body.gauge(alpha) <= k]
    pts = body.lattice_points(k)
    assert pts == sorted(in_kc, key=lambda a: cgrevlex_key(body, a))
    assert cells_in_interior(body, pts, k).tolist() == [_oracle_interior(body, a, k) for a in pts]


@settings(max_examples=60, deadline=None)
@given(case=bodies_and_resolutions(), k=st.integers(1, 4))
def test_integer_rows_match_fraction_oracles(case, k):
    _check_against_oracles(*case, k)


@pytest.mark.parametrize("k", [1, 3])
def test_integer_rows_beyond_int64(k):
    # scaled rows reach 2**62, so the exact tests run on Python ints
    body = validate_body([((1, Fraction(2**62 - 1, 2**62)), 1), ((Fraction(-1, 2**61 + 1), 1), 1)], 2)
    _check_against_oracles(body, Fraction(1, 4), k)


def test_dagger_simplex(simplex2):
    assert check_dagger(simplex2, 3).verdict == "holds-simplex"


def test_dagger_square_violated(square):
    report = check_dagger(square, 1)
    assert report.verdict == "violated"
    assert ((0, 1), (1, 0)) in report.witness_pairs
    for a, b in report.witness_pairs:
        assert square.gauge(a) == square.gauge(b)  # exact rational equality


def test_dagger_wide_simplex_holds(wide_simplex):
    # the second halfspace is redundant, so this body is a simplex and the
    # stability condition holds even though gauge ties exist
    report = check_dagger(wide_simplex, 2)
    assert report.verdict == "holds-simplex"
    assert ((0, 1), (2, 0)) in report.witness_pairs


def test_dagger_generic_body_injective():
    # both facets non-redundant, distinct axis intercepts, no lattice gauge
    # collisions up to the cap
    body = validate_body([(("3/7", "3/5"), "1"), (("2/3", "1/11"), "1")], 2)
    report = check_dagger(body, 4)
    assert report.verdict == "holds-injective-gauge"
    assert report.witness_pairs == ()


def test_rational_lp_detects_unbounded_ray():
    rows = [[Fraction(1), Fraction(-1)]]
    rhs = [Fraction(0)]
    value, bounded, x = rational_lp_max(rows, rhs, [Fraction(1), Fraction(1)])
    assert not bounded and value is None and x is None


def test_rational_lp_solves_exactly():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    rhs = [Fraction(2), Fraction(2)]
    value, bounded, x = rational_lp_max(rows, rhs, [Fraction(1), Fraction(1)])
    assert bounded and value == Fraction(4, 3) and x == [Fraction(2, 3), Fraction(2, 3)]


def test_unbounded_message_names_direction():
    with pytest.raises(Unbounded) as exc:
        validate_body([(("1", "-1"), "1")], 2)
    assert "(" in str(exc.value) and ")" in str(exc.value)
