import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctdiam import average_total_degree, check_dagger, validate_body
from ctdiam.body import (
    _class_keep,
    _classify_cells,
    _dagger_verdict,
    _gauge_numerators,
    _grid_counts,
    _integer_rows,
    _lattice_points,
    _offset_products,
    body_quadrature,
    box_body,
    is_simplex,
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


@pytest.mark.parametrize("dim, ray", [(1, "(1)"), (2, "(1, 0)"), (3, "(1, 0, 0)")])
def test_validate_rejects_a_body_without_halfspaces(dim, ray):
    # the whole orthant: the first coordinate's LP has no rows and returns e_1
    with pytest.raises(Unbounded) as exc:
        validate_body([], dim)
    assert str(exc.value) == f"the body is unbounded along the direction {ray}"


def test_validate_rejects_nonpositive_offset():
    with pytest.raises(NonpositiveOffset):
        validate_body([(("1", "1"), "0")], 2)


def test_validate_rejects_body_missing_simplex():
    with pytest.raises(SimplexNotContained):
        validate_body([(("3", "1"), "2")], 2)


def test_validate_rejects_floats():
    with pytest.raises(ValidationError):
        validate_body([((0.5, 1), 1)], 2)


def test_equal_bodies_hash_alike_and_share_cache_entries():
    # two separately validated copies of one body are equal and hash alike,
    # so the second hits the first's lru_cache entries; the hash is kept, so
    # a lookup hashes no Fraction
    first = validate_body([(("1", "1/2"), "3/2"), (("0", "1"), "1")], 2)
    second = validate_body([((1, Fraction(1, 2)), Fraction(3, 2)), ((0, 1), 1)], 2)
    assert first == second and first is not second
    assert hash(first) == hash(second) == hash((2, first.halfspaces))
    assert first != validate_body([(("1", "1/2"), "3/2"), (("0", "1"), "2")], 2)
    points = first.lattice_points(5)
    before = _lattice_points.cache_info()
    with mock.patch.object(Fraction, "__hash__", side_effect=AssertionError("a Fraction was hashed")):
        assert second.lattice_points(5) == points
    after = _lattice_points.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("halfspaces, field", [
    ([{"b": "1"}], "body.halfspaces[0] "),
    ([{"a": ["1", "1"], "b": "1"}, {"a": ["1", "0"]}], "body.halfspaces[1] "),
    (5, "body.halfspaces "),
    ([{"a": "12", "b": "2"}], "body.halfspaces[0].a "),
    ([("1", "1")], "body.halfspaces[0].a "),
    ([(("1", "1"), "1", "2")], "body.halfspaces[0] "),
    ([{"a": ["1", "x"], "b": "1"}], "body.halfspaces[0]: "),
    ([{"a": ["1", "1"], "b": 1.5}], "body.halfspaces[0]: "),
], ids=["no-a", "no-b", "not-a-list", "normal-string", "normal-not-a-list", "triple",
        "normal-entry", "float-offset"])
def test_malformed_halfspace_is_named(halfspaces, field):
    with pytest.raises(ValidationError) as exc:
        parse_body_spec({"dim": 2, "halfspaces": halfspaces})
    assert str(exc.value).startswith(field)


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
    # the a_n of the cube3-real benchmark reference
    assert average_total_degree(validate_body(CUBE3, 3)) == 1.3500001716613441


@pytest.mark.parametrize("subsamples", [0, -1])
def test_quadrature_rejects_subsamples_below_one(skew_body, subsamples):
    with pytest.raises(ValidationError, match="subsamples"):
        body_quadrature(skew_body, Fraction(1, 8), subsamples)


@pytest.mark.parametrize("call, error, message", [
    (lambda: rational_lp_max([[Fraction(1)]], [Fraction(-1)], [Fraction(1)]), ValueError,
     "^rational_lp_max requires nonnegative right-hand sides$"),
    (lambda: validate_body([(("1",), "1")], 2), DimensionMismatch,
     r"^halfspace normal \(Fraction\(1, 1\),\) does not have dimension 2$"),
    (lambda: box_body(2).lattice_points(-1), ValidationError, "^k must be nonnegative$"),
    (lambda: box_body(2).counts(0), ValidationError, r"^counts requires k >= 1$"),
    (lambda: body_quadrature(box_body(2), 0), ValidationError, "^resolution must be positive$"),
    (lambda: body_quadrature(box_body(2), "-1/32"), ValidationError, "^resolution must be positive$"),
    # one cell of side 10 whose single midpoint (5) lies outside [0, 1]
    (lambda: average_total_degree(box_body(1), 10, 1), ValidationError,
     "^quadrature produced nonpositive volume; refine the resolution$"),
    (lambda: check_dagger(box_body(2), 0), ValidationError, r"^k_max must be >= 1$"),
], ids=["lp-negative-rhs", "normal-wrong-length", "lattice-level-negative", "counts-level-zero",
        "resolution-zero", "resolution-negative", "no-sample-kept", "dagger-level-zero"])
def test_out_of_range_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("resolution, subsamples, message", [
    (Fraction(1, 32), 3000, "subsamples 3000"),
    (Fraction(1, 5000), 32, "resolution 1/5000"),
], ids=["samples-per-cell", "cells"])
def test_quadrature_rejects_oversized_grid(cube3, resolution, subsamples, message):
    # 3000**3 samples per cell and 5000**3 cells would take hundreds of GiB
    with pytest.raises(ValidationError, match=message):
        body_quadrature(cube3, resolution, subsamples)


# Fraction oracles for the integer-row geometry: the corner loops the
# float prefilter fell back to, and the gauge itself.

def _oracle_gauge(body, x):
    # the per-halfspace Fraction sum ConvexBody.gauge used to evaluate
    best = Fraction(0)
    for a, b in body.halfspaces:
        v = sum((ai * xi for ai, xi in zip(a, x)), Fraction(0)) / b
        if v > best:
            best = v
    return best


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


def _whole_grid(body, resolution):
    # _classify_cells over the whole grid as one range of cells
    counts = _grid_counts(body, resolution)
    return _classify_cells(body, resolution, counts, 0, math.prod(counts))


def _check_against_oracles(body, resolution, k):
    cells, status, _ = _whole_grid(body, resolution)
    assert [_oracle_status(body, cell, resolution) for cell in cells.tolist()] == status.tolist()
    box = [range(int(k * body.coordinate_max(j)) + 1) for j in range(body.dim)]
    in_kc = [alpha for alpha in itertools.product(*box) if _oracle_gauge(body, alpha) <= k]
    pts = body.lattice_points(k)
    assert pts == sorted(in_kc, key=lambda a: (_oracle_gauge(body, a), sum(a), a))
    assert [cgrevlex_key(body, a) for a in pts] == [(_oracle_gauge(body, a), sum(a), a) for a in pts]


@settings(max_examples=60, deadline=None)
@given(case=bodies_and_resolutions(), k=st.integers(1, 4))
def test_integer_rows_match_fraction_oracles(case, k):
    _check_against_oracles(*case, k)


@st.composite
def wide_denominator_bodies(draw):
    # odd denominators from 2**40 + 1 up and negative coefficients: lcm(B) * G leaves int64
    dim = draw(st.integers(1, 3))
    dens = itertools.count(2**40 + 1, 2)
    b0 = Fraction(draw(st.integers(1, 4)), next(dens))
    rows = [(tuple(b0 * Fraction(draw(st.integers(2, 6)), 6) for _ in range(dim)), b0)]
    for _ in range(draw(st.integers(1, 2))):
        b = Fraction(draw(st.integers(1, 2**41)), next(dens))
        rows.append((tuple(min(Fraction(draw(st.integers(-2**41, 2**41)), next(dens)), b)
                           for _ in range(dim)), b))
    return validate_body(rows, dim)


@settings(max_examples=40, deadline=None)
@given(body=wide_denominator_bodies(), k=st.integers(1, 3))
def test_gauge_keys_beyond_int64_match_fraction_oracles(body, k):
    box = [range(int(k * body.coordinate_max(j)) + 1) for j in range(body.dim)]
    candidates = list(itertools.product(*box))
    keys, scale = _gauge_numerators(body, candidates)
    assert keys == [scale * _oracle_gauge(body, alpha) for alpha in candidates]
    _check_against_oracles(body, Fraction(1, 2), k)


# negative coordinates too, where the gauge is clamped at 0
fractions12 = st.builds(Fraction, st.integers(-12, 36), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(theta=st.lists(fractions12, min_size=3, max_size=3))
def test_gauge_at_rational_points_matches_fraction_oracle(skew_body, theta):
    assume(any(t.denominator > 1 for t in theta[:2]))
    skew_3d = validate_body(SKEW_3D, 3)
    for body, x in [(skew_body, theta[:2]), (skew_3d, theta)]:
        assert body.gauge(x) == _oracle_gauge(body, x)


def test_gauge_rejects_float_coordinates(skew_body):
    with pytest.raises(ValidationError, match="int or Fraction coordinates"):
        skew_body.gauge((0.5, Fraction(1, 3)))


def _reference_quadrature(body, resolution, subsamples, keep_ties=True, exact_sums=True):
    # body_quadrature as it was before boundary cells tested only their
    # cutting halfspaces: every sample against every halfspace.
    # A sample (c + w/(2*sub)) * p/q, w odd, satisfies a.x <= b iff
    # p * a'.(2*sub*c + w) <= 2*sub*q*b' for a', b' the row scaled to
    # integers; keep_ties=False drops the samples on a plane.  The sums are
    # exact Fractions, each mean rounded once; exact_sums=False adds float
    # samples instead, row sums and their mean, as the quadrature once did.
    cells, status, _ = _whole_grid(body, resolution)
    res_f = float(resolution)
    cell_vol = res_f ** body.dim
    volume = 0.0
    integral = 0.0
    inside = status == 1
    if inside.any():
        volume += cell_vol * int(inside.sum())
        if exact_sums:
            integral += cell_vol * float(Fraction(int((2 * cells[inside] + 1).sum()), 2) * resolution)
        else:
            integral += cell_vol * float(((cells[inside] + 0.5) * res_f).sum())
    offs = (np.arange(subsamples) + 0.5) * (res_f / subsamples)
    offsets = np.stack([g.ravel() for g in np.meshgrid(*([offs] * body.dim), indexing="ij")], axis=1)
    odd = np.arange(1, 2 * subsamples, 2)
    odd = np.stack([g.ravel() for g in np.meshgrid(*([odd] * body.dim), indexing="ij")], axis=1)
    scales = [math.lcm(b.denominator, *(aj.denominator for aj in a)) for a, b in body.halfspaces]
    a_int = np.array([[int(aj * s) for aj in a] for (a, _), s in zip(body.halfspaces, scales)], dtype=object)
    bounds = [2 * subsamples * resolution.denominator * int(b * s)
              for (_, b), s in zip(body.halfspaces, scales)]
    reach = 2 * subsamples * (int(cells.max(initial=0)) + 1) * resolution.numerator
    exact_int64 = max(reach * int(np.abs(a_int).sum(axis=1).max()), *map(abs, bounds)) < 2**62
    a_int = a_int.astype(np.int64 if exact_int64 else object)
    bounds = np.array(bounds, dtype=a_int.dtype)
    for idx in np.flatnonzero(status == 0):
        ticks = (odd + 2 * subsamples * cells[idx]).astype(a_int.dtype)
        lhs = resolution.numerator * (ticks @ a_int.T)
        keep = np.all(lhs <= bounds if keep_ties else lhs < bounds, axis=1)
        frac = keep.mean()
        if not keep.any():
            mean_sum = 0.0
        elif exact_sums:
            # every kept sample coordinate is tick/(2*sub) * resolution
            total = Fraction(int(ticks[keep].sum()), 2 * subsamples) * resolution
            mean_sum = float(total / int(keep.sum()))
        else:
            pts = offsets + np.array([float(c * resolution) for c in cells[idx].tolist()])
            mean_sum = float(pts[keep].sum(axis=1).mean())
        volume += cell_vol * frac
        integral += cell_vol * frac * mean_sum
    return volume, integral


def _exact_grid(body, resolution, subsamples):
    # the predicate under which the float sample sums were exact: every
    # sample, sample sum and partial sum of kept sums is a multiple of 1/q,
    # q the power-of-two denominator of the half-sample step, below 2**53/q
    q = (resolution / (2 * subsamples)).denominator
    reach = sum(body.coordinate_max(j) + resolution for j in range(body.dim))
    return (q & (q - 1)) == 0 and subsamples ** body.dim * reach * q < 2**53


PENTAGON = [(("1", "0"), "1"), (("0", "1"), "1"), (("1", "1"), "3/2")]
CUBE3 = [(("1", "0", "0"), "1"), (("0", "1", "0"), "1"), (("0", "0", "1"), "1"), (("1", "1", "1"), "2")]
# y/4 + z = 1 passes exactly through sample points at resolution 2/3 with 3 subsamples
TIE_3D = [(("0", "1/4", "1"), "1"), (("1", "0", "0"), "1")]
# 3x + 2y + 5z <= 6 has integer translations (1, 1, -1) along its plane, so
# the boundary cells form classes of up to 43 translates at resolution 1/12
SKEW_3D = [(("1/2", "1/3", "5/6"), "1"), (("2/3", "-1/3", "1"), "5/4"), (("0", "3/4", "1/4"), "7/8")]
# x + y = 97/64 passes exactly through samples of every boundary cell at resolution 1/32
TIE_9764 = [(("1", "0", "0"), "1"), (("0", "1", "0"), "1"), (("0", "0", "1"), "1"), (("1", "1", "0"), "97/64")]
# rows that scale to integers of 2**62 and more
WIDE_ROWS = [((1, Fraction(2**62 - 1, 2**62)), 1), ((Fraction(-1, 2**61 + 1), 1), 1)]
# bodies with samples on a cutting plane
TIE_CASES = [
    (validate_body(PENTAGON, 2), Fraction(1, 32), 32),
    (validate_body(TIE_3D, 3), Fraction(2, 3), 3),
]


@settings(max_examples=150, deadline=None)
@given(case=bodies_and_resolutions(), subsamples=st.integers(1, 8))
# x + y = 3/2 passes exactly through sample points at resolution 1/32
@example(case=(validate_body(PENTAGON, 2), Fraction(1, 32)), subsamples=8)
@example(case=TIE_CASES[0][:2], subsamples=TIE_CASES[0][2])
# an exact 3-D tie, which also tells (x + y) + z from x + (y + z)
@example(case=TIE_CASES[1][:2], subsamples=TIE_CASES[1][2])
# rounding-sensitive sums, samples on planes whose coefficients are not
# floats, and a cell cut by only one of two halfspaces
@example(case=(validate_body([(("1/3", "5/12", "5/12"), "1/2"), (("-1/2", "1", "0"), "1")], 3),
               Fraction(1, 4)), subsamples=5)
# one halfspace with samples on its plane, which a float product a.x misjudged
@example(case=(validate_body([(("2/9", "4/9", "2/9"), "2/3")], 3), Fraction(1, 4)), subsamples=8)
# every row scaled by 10**-310, where float products underflow; it reads the unscaled body's bits
@example(case=(validate_body([(tuple(Fraction(x) / 10**310 for x in a), Fraction(b) / 10**310) for a, b in
                              [(("1/2", "1/2", "1"), "3/2"), (("-1/2", "3/4", "2/3"), "4"),
                               (("1/2", "-1/2", "-2/3"), "3")]], 3), Fraction(1, 3)), subsamples=2)
# classes of many translates at non-dyadic resolutions: 64 cube3 cells in 3
# classes at 1/7, 61 in 21 at 2/9, and 589 skew cells in 98 at 1/12
@example(case=(validate_body(CUBE3, 3), Fraction(1, 7)), subsamples=5)
@example(case=(validate_body(CUBE3, 3), Fraction(2, 9)), subsamples=8)
@example(case=(validate_body(SKEW_3D, 3), Fraction(1, 12)), subsamples=3)
# exact (dyadic) grids, where float sums equal the exact ones: cube3, several
# skew classes with a negative coefficient, and ties decided by one product per class
@example(case=(validate_body(CUBE3, 3), Fraction(1, 16)), subsamples=8)
@example(case=(validate_body(SKEW_3D, 3), Fraction(1, 8)), subsamples=4)
@example(case=(validate_body(TIE_9764, 3), Fraction(1, 16)), subsamples=4)
# a dyadic grid past the 2**53 bound, where float sums may round
@example(case=(validate_body([(("1",), "8191/2")], 1), Fraction(1)), subsamples=2**20)
# integer rows past 2**62, so the sample tests run on Python ints
@example(case=(validate_body(WIDE_ROWS, 2), Fraction(1, 4)), subsamples=4)
def test_quadrature_matches_all_halfspace_reference(case, subsamples):
    body, resolution = case
    got = body_quadrature(body, resolution, subsamples)
    want = _reference_quadrature(body, resolution, subsamples)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    if _exact_grid(body, resolution, subsamples):
        # where float sums were exact, the exact sums keep their bits
        floats = _reference_quadrature(body, resolution, subsamples, exact_sums=False)
        assert [x.hex() for x in floats] == [x.hex() for x in want]


@pytest.mark.parametrize("body, resolution, subsamples", TIE_CASES)
def test_quadrature_ties_take_both_paths(body, resolution, subsamples):
    # samples on a cutting plane lie in the body and are kept: the result
    # is the reference's, and differs from the one that drops them
    got = [x.hex() for x in body_quadrature(body, resolution, subsamples)]
    assert got == [x.hex() for x in _reference_quadrature(body, resolution, subsamples)]
    assert got != [x.hex() for x in _reference_quadrature(body, resolution, subsamples, keep_ties=False)]


positive_rationals = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=60, deadline=None)
@given(case=bodies_and_resolutions(), subsamples=st.integers(1, 8), row=st.integers(0, 2),
       factor=positive_rationals)
# x/10 + y/10 <= 3/20, whose float coefficients misjudged the samples on x + y = 3/2
@example(case=(validate_body(PENTAGON, 2), Fraction(1, 32)), subsamples=32, row=2, factor=Fraction(1, 10))
@example(case=(validate_body(WIDE_ROWS, 2), Fraction(1, 4)), subsamples=4, row=1, factor=Fraction(1, 2**70))
def test_quadrature_ignores_how_a_halfspace_is_written(case, subsamples, row, factor):
    body, resolution = case
    row %= len(body.halfspaces)
    halfspaces = list(body.halfspaces)
    a, b = halfspaces[row]
    halfspaces[row] = (tuple(factor * aj for aj in a), factor * b)
    scaled = validate_body(halfspaces, body.dim)
    got = body_quadrature(scaled, resolution, subsamples)
    assert [x.hex() for x in got] == [x.hex() for x in body_quadrature(body, resolution, subsamples)]


def test_quadrature_rows_beyond_int64_test_python_ints():
    body = validate_body(WIDE_ROWS, 2)
    assert max(abs(x) for x in _integer_rows(body)[0].ravel()) >= 2**62
    with mock.patch("ctdiam.body._class_keep", wraps=_class_keep) as masks:
        got = body_quadrature(body, Fraction(1, 4), 4)
    assert masks.call_count > 0
    assert all(call.args[0].dtype == object for call in masks.call_args_list)
    assert [x.hex() for x in got] == [x.hex() for x in _reference_quadrature(body, Fraction(1, 4), 4)]
    # one step below the bound, the table is int64
    assert _offset_products(np.array([[2**58, 2**58 - 1]], dtype=object), 1, 4).dtype == np.int64


@pytest.mark.parametrize("halfspaces, resolution, subsamples, exact", [
    (CUBE3, Fraction(1, 32), 32, True),
    (CUBE3, Fraction(1, 7), 5, False),
    (CUBE3, Fraction(1, 32), 3, False),
    # 2**20 samples of sums up to b + 1 in steps of 2**-21: 4093 * 2**40 < 2**53 <= 8193 * 2**40
    ([(("1",), "4091/2")], Fraction(1), 2**20, True),
    ([(("1",), "8191/2")], Fraction(1), 2**20, False),
])
def test_exact_grid_needs_a_dyadic_step_and_the_bound(halfspaces, resolution, subsamples, exact):
    # the test module's predicate, which decides where the float reference must keep the exact bits
    body = validate_body(halfspaces, len(halfspaces[0][0]))
    assert _exact_grid(body, resolution, subsamples) is exact


def _count_quadrature_calls(body, resolution, subsamples):
    with mock.patch("ctdiam.body._class_keep", wraps=_class_keep) as masks:
        body_quadrature(body, resolution, subsamples)
    boundary = int(np.count_nonzero(_whole_grid(body, resolution)[1] == 0))
    return boundary, masks.call_count


def test_quadrature_certifies_each_class_once(cube3):
    # cube3's 1489 boundary cells at resolution 1/32 are translates of 3 cells, one exact mask each
    assert _count_quadrature_calls(cube3, Fraction(1, 32), 32) == (1489, 3)


def test_quadrature_exact_products_test_one_cell_per_class():
    # all 992 boundary cells have samples on x + y = 97/64, in 2 classes: one mask each
    assert _count_quadrature_calls(validate_body(TIE_9764, 3), Fraction(1, 32), 32) == (992, 2)


def test_quadrature_non_dyadic_grid_sums_each_cell(cube3):
    # h = 1/70: the 64 boundary cells in 3 classes take 3 masks, and each cell's
    # mean comes from its class's sums; the only sample tables are the call's
    # two, the cutting rows' products and the offset sums
    with mock.patch("ctdiam.body._offset_products", wraps=_offset_products) as tables:
        assert _count_quadrature_calls(cube3, Fraction(1, 7), 5) == (64, 3)
    assert tables.call_count == 2


def test_quadrature_classifies_in_bounded_memory(cube3):
    # the 32768 cells are classified a block at a time; classifying the
    # whole grid at once made the call's allocations peak at 4.0 MB
    body_quadrature(cube3, Fraction(1, 32), 32)  # fill the body's caches
    tracemalloc.start()
    try:
        body_quadrature(cube3, Fraction(1, 32), 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0e6


def test_quadrature_at_the_cell_cap_in_bounded_memory(pentagon):
    # resolution 1/2048 makes exactly 2**22 cells; holding every inside
    # midpoint as a float array made the call peak at 118 MB
    assert math.prod(_grid_counts(pentagon, Fraction(1, 2048))) == 2**22
    body_quadrature(pentagon, Fraction(1, 64), 32)  # fill the body's caches
    tracemalloc.start()
    try:
        body_quadrature(pentagon, Fraction(1, 2048), 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@settings(max_examples=40, deadline=None)
@given(case=bodies_and_resolutions(), subsamples=st.integers(1, 4))
# a 1-D body on a non-dyadic grid: 56 cells
@example(case=(validate_body([(("3",), "7")], 1), Fraction(1, 24)), subsamples=5)
# a 3-D body with a negative coefficient on a non-dyadic grid: 1134 cells
@example(case=(validate_body(SKEW_3D, 3), Fraction(1, 7)), subsamples=3)
def test_quadrature_is_independent_of_the_cell_block(case, subsamples):
    body, resolution = case
    counts = _grid_counts(body, resolution)
    n_cells = math.prod(counts)
    whole = _whole_grid(body, resolution)
    want = [x.hex() for x in body_quadrature(body, resolution, subsamples)]
    for block in (1, 7, n_cells + 1):
        with mock.patch("ctdiam.body._CELL_BLOCK", block):
            assert [x.hex() for x in body_quadrature(body, resolution, subsamples)] == want
        parts = [_classify_cells(body, resolution, counts, start, min(start + block, n_cells))
                 for start in range(0, n_cells, block)]
        for got, full in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(got), full)


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
    assert report.verdict == _dagger_verdict(body, 4) == "holds-injective-gauge"
    assert report.witness_pairs == ()


@pytest.mark.parametrize("name, k", [("simplex2", 3), ("square", 1), ("wide_simplex", 2), ("skew_body", 4)])
def test_dagger_verdict_matches_check_dagger(request, name, k):
    body = request.getfixturevalue(name)
    assert _dagger_verdict(body, k) == check_dagger(body, k).verdict


def test_dagger_verdict_decides_simplex_before_enumerating(wide_simplex):
    with mock.patch.object(type(wide_simplex), "lattice_points") as lattice:
        assert _dagger_verdict(wide_simplex, 20) == "holds-simplex"
    lattice.assert_not_called()


def test_dagger_verdict_stops_at_first_tie():
    # check_dagger counts 1,272,960 witness pairs for the box at k = 16; past
    # the enumeration, the verdict compares integer gauge keys, never a gauge
    box = box_body(3)
    box.lattice_points(16)
    with mock.patch.object(type(box), "gauge", autospec=True, side_effect=type(box).gauge) as gauge:
        assert _dagger_verdict(box, 16) == "violated"
    assert gauge.call_count == 0


def test_lattice_and_dagger_make_no_gauge_call(cube3, pentagon):
    with mock.patch.object(type(cube3), "gauge", autospec=True, side_effect=type(cube3).gauge) as gauge:
        for body in (cube3, pentagon):
            _lattice_points.__wrapped__(body, 3)  # cold, past the cache
            assert _dagger_verdict(body, 3) == check_dagger(body, 3).verdict == "violated"
    assert gauge.call_count == 0


def _full_witness_pairs(body, k_max):
    # every exact Fraction gauge tie, sorted as check_dagger lists them
    by_gauge = {}
    for alpha in body.lattice_points(k_max):
        by_gauge.setdefault(_oracle_gauge(body, alpha), []).append(alpha)
    pairs = [pair for group in by_gauge.values() for pair in itertools.combinations(group, 2)]
    return sorted(pairs, key=lambda pair: (sum(pair[0]), pair[0], pair[1]))


@pytest.mark.parametrize("name, k", [("square", 5), ("cube3", 5), ("pentagon", 6), ("wide_simplex", 6)])
@pytest.mark.parametrize("cap", [1, 7, 100, 10**9])
def test_witness_pairs_are_the_prefix_of_every_tie(request, name, k, cap):
    body = request.getfixturevalue(name)
    full = _full_witness_pairs(body, k)
    with mock.patch("ctdiam.body._MAX_WITNESS_PAIRS", cap):
        report = check_dagger(body, k)
    assert report.witness_pairs == tuple(full[:cap])
    assert report.pair_count == len(full)


def test_witness_pairs_stop_at_the_cap(cube3):
    box = check_dagger(box_body(3), 16)
    assert (box.verdict, box.pair_count, len(box.witness_pairs)) == ("violated", 1_272_960, 10_000)
    assert box.witness_pairs[0] == ((0, 0, 1), (0, 1, 0))
    # below the cap every pair is listed
    for body, k, count in [(cube3, 5, 3696), (box_body(3), 4, 2688)]:
        report = check_dagger(body, k)
        assert report.pair_count == len(report.witness_pairs) == count


# a quadrilateral whose first facet is listed twice, and the unit simplex listed twice
QUAD_REPEATED = [(("4/3", "3"), "3"), (("1", "1/3"), "1"), (("8/3", "6"), "6")]
SIMPLEX_REPEATED = [(("1", "1"), "1"), (("2", "2"), "2")]


@pytest.mark.parametrize("halfspaces, verdict", [
    (QUAD_REPEATED, "violated"),
    (QUAD_REPEATED[:2], "violated"),
    (SIMPLEX_REPEATED, "holds-simplex"),
    (SIMPLEX_REPEATED[:1], "holds-simplex"),
])
def test_repeated_halfspace_keeps_the_verdict(halfspaces, verdict):
    body = validate_body(halfspaces, 2)
    assert check_dagger(body, 3).verdict == _dagger_verdict(body, 3) == verdict


def _nonredundant_halfspaces(body):
    # the exact LP test is_simplex replaced: halfspaces whose removal changes the body
    keep = []
    for i, (a, b) in enumerate(body.halfspaces):
        rows = [list(hs[0]) for j, hs in enumerate(body.halfspaces) if j != i]
        rhs = [hs[1] for j, hs in enumerate(body.halfspaces) if j != i]
        value, bounded, _ = rational_lp_max(rows, rhs, list(a))
        if not bounded or value > b:
            keep.append(i)
    return keep


def _has_repeated_row(body):
    a_int, b_int = _integer_rows(body)
    rows = [tuple(x // math.gcd(b, *a) for x in (*a, b)) for a, b in zip(a_int.tolist(), b_int.tolist())]
    return len(set(rows)) < len(rows)


@st.composite
def simplex_candidates(draw):
    # a simplex row, maybe a looser parallel copy, and rows that may or may not be redundant
    body, _ = draw(bodies_and_resolutions())
    (a0, b0), *rest = body.halfspaces
    looser = [(a0, b0 * Fraction(draw(st.integers(3, 5)), 2)) for _ in range(draw(st.integers(0, 1)))]
    return validate_body([(a0, b0), *looser, *rest], body.dim)


@settings(max_examples=150, deadline=None)
@given(body=simplex_candidates())
@example(body=validate_body([(("1", "0"), "2"), (("1", "2"), "2")], 2))
@example(body=validate_body([(("1", "1"), "1"), (("1", "0"), "1")], 2))
@example(body=validate_body(QUAD_REPEATED[:2], 2))
def test_is_simplex_matches_the_redundancy_lp(body):
    assume(not _has_repeated_row(body))
    assert is_simplex(body) == (len(_nonredundant_halfspaces(body)) == 1)


def _is_ray(body_rows, r):
    # r >= 0, r != 0 and A r <= 0: the body contains t * r for every t >= 0
    return (all(x >= 0 for x in r) and any(x > 0 for x in r)
            and all(sum(aj * x for aj, x in zip(a, r)) <= 0 for a in body_rows))


def test_rational_lp_detects_unbounded_ray():
    rows = [[Fraction(1), Fraction(-1)]]
    rhs = [Fraction(0)]
    cost = [Fraction(1), Fraction(1)]
    value, bounded, r = rational_lp_max(rows, rhs, cost)
    assert not bounded and value is None
    assert _is_ray(rows, r) and sum(c * x for c, x in zip(cost, r)) > 0


def test_rational_lp_solves_exactly():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    rhs = [Fraction(2), Fraction(2)]
    value, bounded, x = rational_lp_max(rows, rhs, [Fraction(1), Fraction(1)])
    assert bounded and value == Fraction(4, 3) and x == [Fraction(2, 3), Fraction(2, 3)]


def test_unbounded_message_names_direction():
    with pytest.raises(Unbounded) as exc:
        validate_body([(("1", "-1"), "1")], 2)
    assert "(" in str(exc.value) and ")" in str(exc.value)


@st.composite
def orthant_bodies(draw):
    # halfspaces with small rational entries, often negative: many bodies are unbounded
    dim = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        b = draw(st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)))
        rows.append((tuple(min(draw(small_rationals), b) for _ in range(dim)), b))
    return rows, dim


def _recession_oracle(rows, dim):
    # the deleted boundedness LP: max sum(x) over {x >= 0, A x <= 0, x <= 1} is 0 iff bounded
    cone = [list(a) for a, _ in rows] + [[Fraction(int(i == j)) for i in range(dim)] for j in range(dim)]
    value, _, _ = rational_lp_max(cone, [Fraction(0)] * len(rows) + [Fraction(1)] * dim, [Fraction(1)] * dim)
    return value == 0


@settings(max_examples=200, deadline=None)
@given(case=orthant_bodies())
@example(case=([(("1", "-1", "-1"), "1")], 3))
def test_every_unbounded_body_names_a_recession_ray(case):
    rows, dim = case
    rows = [(tuple(Fraction(x) for x in a), Fraction(b)) for a, b in rows]
    try:
        validate_body(rows, dim)
    except Unbounded as exc:
        text = str(exc)
        r = [Fraction(x) for x in text[text.rindex("(") + 1:text.rindex(")")].split(", ")]
        assert len(r) == dim and _is_ray([a for a, _ in rows], r)
        assert not _recession_oracle(rows, dim)
    else:
        assert _recession_oracle(rows, dim)


def test_lattice_refuses_a_huge_box_at_once():
    # (10**6 + 1)**3 candidates would never fit in memory
    with pytest.raises(ValidationError, match=r"k=1000000 makes 1000003000003000001 lattice candidates"):
        box_body(3).lattice_points(10**6)
