import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctdiam.vdm as vdm_mod
from ctdiam import (
    BruteForce,
    Greedy,
    ReportOptions,
    box_body,
    build_mesh,
    build_report,
    chebyshev_constant,
    fekete_points,
    leja_sequence,
    max_vdm,
    simplex_body,
    validate_body,
    vandermonde_det,
)
from ctdiam.errors import (
    BruteForceCapExceeded,
    CtdiamError,
    InsufficientSupport,
    TooManyPoints,
    ValidationError,
)
from ctdiam.mesh import Mesh
from ctdiam.order import CGREVLEX, GREVLEX
from ctdiam.vdm import fekete_to_dict, log_abs_det, strategy_from_config


def test_log_abs_det_small_cases():
    assert log_abs_det(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(0.0)
    assert log_abs_det(np.array([[1.0, 1.0], [1.0, 1.0]])) == -math.inf
    assert log_abs_det(np.zeros((0, 0))) == 0.0
    rng = np.random.default_rng(0)
    for n in (3, 6, 10):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sign, ld = np.linalg.slogdet(a)
        assert log_abs_det(a) == pytest.approx(ld, abs=1e-9)


def test_vdm_unit_points(simplex1):
    mesh = build_mesh({"kind": "explicit", "points": [[0, 0], [1, 0]], "dim": 1})
    value = vandermonde_det(mesh, simplex1, 1, [0, 1])
    assert value.log_abs == pytest.approx(0.0, abs=1e-14)  # |det [[1,1],[0,1]]| = 1


def test_vdm_weighted_pair(simplex1):
    mesh = build_mesh({
        "kind": "explicit", "points": [[1, 0], [2, 0]], "dim": 1,
        "weight": {"kind": "table", "log_weights": [0.0, -math.log(2.0)]},
    })
    value = vandermonde_det(mesh, simplex1, 1, [0, 1])
    assert math.exp(value.log_abs) == pytest.approx(0.5, abs=1e-12)


def test_vdm_repeated_point_is_minus_infinity(simplex1, mesh5):
    assert vandermonde_det(mesh5, simplex1, 1, [1, 1]).log_abs == -math.inf


def test_vdm_too_many_points(simplex1, mesh5):
    with pytest.raises(TooManyPoints):
        vandermonde_det(mesh5, simplex1, 1, [0, 1, 2])


def test_vdm_permutation_invariance(circle64, simplex1, torus16, square):
    for mesh, body, k, ids in [(circle64, simplex1, 3, [3, 17, 40, 11]),
                               (torus16, square, 1, [0, 21, 100, 255])]:
        base = vandermonde_det(mesh, body, k, ids).log_abs
        for perm in itertools.permutations(ids):
            assert vandermonde_det(mesh, body, k, perm).log_abs == pytest.approx(base, abs=1e-10)


def test_vdm_basis_row_permutation_only_flips_sign(circle64, simplex1):
    # reordering the basis monomials permutes rows, leaving |det| unchanged
    from ctdiam.mesh import monomial_values

    ids = [1, 9, 25, 40]
    basis = simplex1.lattice_points(3)
    pts = circle64.points[ids]
    base = log_abs_det(monomial_values(pts, basis))
    for perm in itertools.permutations(basis):
        assert log_abs_det(monomial_values(pts, list(perm))) == pytest.approx(base, abs=1e-10)


def test_max_vdm_brute_force_five_points(mesh5, simplex1):
    result = max_vdm(mesh5, simplex1, 2, BruteForce())
    assert result.exact
    assert math.exp(result.value.log_abs) == pytest.approx(2.0, abs=1e-12)
    assert result.value.point_indices == (0, 2, 4)  # {-1, 0, 1}


def test_max_vdm_fourth_roots(simplex1):
    mesh = build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 4})
    result = max_vdm(mesh, simplex1, 1, BruteForce())
    assert math.exp(result.value.log_abs) == pytest.approx(2.0, abs=1e-12)
    i, j = result.value.point_indices
    assert abs(mesh.points[i, 0] - mesh.points[j, 0]) == pytest.approx(2.0)


def test_greedy_matches_brute_force(mesh5, simplex1):
    exact = max_vdm(mesh5, simplex1, 2, BruteForce())
    greedy = max_vdm(mesh5, simplex1, 2, Greedy(restarts=3))
    assert greedy.value.log_abs == pytest.approx(exact.value.log_abs, abs=1e-12)
    assert not greedy.exact

    mesh4 = build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 4})
    exact = max_vdm(mesh4, simplex1, 1, BruteForce())
    greedy = max_vdm(mesh4, simplex1, 1, Greedy(restarts=2))
    assert greedy.value.log_abs == pytest.approx(exact.value.log_abs, abs=1e-12)


def test_greedy_never_beats_brute_force(circle64, simplex1, square, torus16):
    rng = np.random.default_rng(8)
    # random sub-meshes keep the brute-force scans small
    sub = build_mesh({"kind": "explicit", "dim": 1,
                      "points": [[float(x), float(y)] for x, y in
                                 rng.normal(size=(9, 2))]})
    for k in (1, 2):
        exact = max_vdm(sub, simplex1, k, BruteForce())
        greedy = max_vdm(sub, simplex1, k, Greedy(restarts=3))
        assert greedy.value.log_abs <= exact.value.log_abs + 1e-9


def test_fekete_eight_roots_equilateral(simplex1):
    mesh = build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 8})
    ids = fekete_points(mesh, simplex1, 2, BruteForce())
    pts = mesh.points[ids, 0]
    dists = sorted(abs(a - b) for a, b in itertools.combinations(pts, 2))
    # an inscribed equilateral triangle maximizes the pairwise product;
    # on an 8-point mesh the best triple has gaps (3, 3, 2) in eighths
    value = math.prod(abs(a - b) for a, b in itertools.combinations(pts, 2))
    best = max(
        math.prod(abs(a - b) for a, b in itertools.combinations(mesh.points[list(c), 0], 2))
        for c in itertools.combinations(range(8), 3)
    )
    assert value == pytest.approx(best, abs=1e-12)


def test_fekete_single_point(simplex1):
    mesh = build_mesh({"kind": "explicit", "points": [[0.7, 0.2]], "dim": 1})
    # M_k = 1 needs k = 0 semantics; the smallest usable level has M_1 = 2,
    # so a one-point mesh only supports the trivial subset via vandermonde_det
    value = vandermonde_det(mesh, simplex1, 1, [0])
    assert value.s == 1 and math.isfinite(value.log_abs)


def test_sandwich_both_orderings(mesh7, simplex1):
    # prod T^k <= V_k <= M_k! prod T^k with exact V and exact real-path LPs
    for k in (1, 2, 3):
        exact = max_vdm(mesh7, simplex1, k, BruteForce())
        m_k = exact.value.s
        for ordering in (GREVLEX, CGREVLEX):
            total = sum(
                chebyshev_constant(mesh7, simplex1, k, alpha, ordering).log_nu
                for alpha in simplex1.lattice_points(k)
            )
            slack = 1e-6 * m_k
            assert total - slack <= exact.value.log_abs
            assert exact.value.log_abs <= total + math.lgamma(m_k + 1) + slack


def test_sandwich_where_orderings_differ(skew_body):
    # on this body the two orders genuinely disagree (e.g. (1,1) vs (0,2)),
    # so the factorial sandwich is a two-sided check of both class families
    mesh = build_mesh({"kind": "box2d", "x": [0, 1], "y": [0, 1], "counts": [3, 3]})
    for k in (1, 2):
        exact = max_vdm(mesh, skew_body, k, BruteForce())
        m_k = exact.value.s
        for ordering in (GREVLEX, CGREVLEX):
            total = sum(
                chebyshev_constant(mesh, skew_body, k, alpha, ordering).log_nu
                for alpha in skew_body.lattice_points(k)
            )
            slack = 1e-6 * m_k
            assert total - slack <= exact.value.log_abs <= total + math.lgamma(m_k + 1) + slack


def test_sandwich_weighted(simplex1):
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 7,
                       "weight": {"kind": "radial-gaussian", "sigma": 1.2}})
    for k in (1, 2):
        exact = max_vdm(mesh, simplex1, k, BruteForce())
        total = sum(
            chebyshev_constant(mesh, simplex1, k, alpha, CGREVLEX).log_nu
            for alpha in simplex1.lattice_points(k)
        )
        m_k = exact.value.s
        assert total - 1e-6 * m_k <= exact.value.log_abs <= total + math.lgamma(m_k + 1) + 1e-6 * m_k


def test_max_vdm_monotone_in_refinement(simplex1):
    coarse = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 5})
    fine = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 9})
    for k in (1, 2):
        v_coarse = max_vdm(coarse, simplex1, k, BruteForce()).value.log_abs
        v_fine = max_vdm(fine, simplex1, k, BruteForce()).value.log_abs
        assert v_fine >= v_coarse - 1e-12


def test_insufficient_support(simplex1):
    mesh = build_mesh({"kind": "interval", "a": 0, "b": 1, "count": 3,
                       "weight": {"kind": "table", "log_weights": [0.0, -math.inf, -math.inf]}})
    with pytest.raises(InsufficientSupport):
        max_vdm(mesh, simplex1, 1, BruteForce())


def test_brute_force_cap(circle256, simplex1):
    with pytest.raises(BruteForceCapExceeded):
        max_vdm(circle256, simplex1, 8, BruteForce(cap=1000))


def test_weighted_greedy_prefers_heavy_points(simplex1):
    mesh = build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 9,
                       "weight": {"kind": "table",
                                  "log_weights": [0, 0, 0, 0, 0, 0, 0, 0, -50.0]}})
    exact = max_vdm(mesh, simplex1, 2, BruteForce())
    greedy = max_vdm(mesh, simplex1, 2, Greedy(restarts=2))
    assert 8 not in exact.value.point_indices
    assert greedy.value.log_abs == pytest.approx(exact.value.log_abs, abs=1e-10)


def test_strategy_from_config():
    assert strategy_from_config(None) == Greedy()
    assert strategy_from_config({"kind": "brute-force", "cap": 10}) == BruteForce(cap=10)
    assert strategy_from_config({"kind": "greedy", "restarts": 2, "seed": 5}) == Greedy(2, 5)
    with pytest.raises(ValidationError):
        strategy_from_config({"kind": "annealing"})


@pytest.mark.parametrize("strategy, field", [(Greedy(restarts=0), "run.strategy.restarts"),
                                             (BruteForce(cap=-1), "run.strategy.cap")],
                         ids=["greedy", "brute-force"])
def test_nonpositive_strategy_counts_are_rejected(mesh5, simplex1, strategy, field):
    with pytest.raises(ValidationError, match=field):
        strategy_from_config(strategy)
    with pytest.raises(ValidationError, match=field):
        max_vdm(mesh5, simplex1, 2, strategy)


@pytest.mark.parametrize("k, strategy, message", [
    (0, None, r"^max_vdm needs k >= 1$"),
    (1, object(), "^unknown strategy <object object at "),
], ids=["level-zero", "unknown-strategy"])
def test_max_vdm_refuses_a_level_below_one_or_an_unknown_strategy(mesh5, simplex1, k, strategy, message):
    with pytest.raises(ValidationError, match=message):
        max_vdm(mesh5, simplex1, k, strategy)


def test_max_vdm_reads_the_config_form_of_a_strategy(mesh5, simplex1):
    # strategy_from_config is max_vdm's one reader, so the dict build_report
    # accepts is accepted here too (it used to raise "unknown strategy")
    assert max_vdm(mesh5, simplex1, 2, {"kind": "greedy"}) == max_vdm(mesh5, simplex1, 2, Greedy())
    assert max_vdm(mesh5, simplex1, 2, {"kind": "brute-force", "cap": 50.0}) == max_vdm(
        mesh5, simplex1, 2, BruteForce(cap=50))


def test_fekete_to_dict(mesh5, simplex1):
    result = max_vdm(mesh5, simplex1, 2, BruteForce())
    payload = fekete_to_dict(mesh5, result)
    assert payload["k"] == 2 and payload["exact"] is True
    assert payload["points"] == [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("strategy", [BruteForce(), Greedy(restarts=3)])
def test_max_vdm_without_unisolvent_subset(collinear9, simplex2, strategy):
    result = max_vdm(collinear9, simplex2, 1, strategy)
    assert result.value.log_abs == -math.inf
    assert len(set(result.value.point_indices)) == 3


def _full_scan_exchange(z, logw, k, sel, m_k):
    """Reference exchange passes that score every swap by slogdet."""
    ns = z.shape[1]
    val = vdm_mod.selection_value(z, logw, k, sel)
    improved = True
    while improved:
        improved = False
        for pos in range(m_k):
            cands = np.array([c for c in range(ns) if c not in sel])
            if cands.size == 0:
                continue
            trials = np.tile(np.array(sel), (cands.size, 1))
            trials[:, pos] = cands
            totals = vdm_mod._selection_values(z, logw, k, trials)
            i = int(np.argmax(totals))
            if totals[i] > val + 1e-12:
                sel[pos] = int(cands[i])
                val = float(totals[i])
                improved = True
    return sel, val


def _greedy_outcome(mesh, body, k):
    try:
        value = max_vdm(mesh, body, k, Greedy()).value
    except CtdiamError as exc:
        return type(exc), str(exc)
    return value.log_abs.hex(), value.point_indices


def _assert_exchange_matches_full_scan(mesh, body, k):
    ratio = _greedy_outcome(mesh, body, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vdm_mod, "_exchange_passes", _full_scan_exchange)
        full = _greedy_outcome(mesh, body, k)
    assert ratio == full


EXCHANGE_BODIES = [
    simplex_body(1),
    simplex_body(2),
    box_body(2),
    validate_body([(("1", "0"), "1"), (("0", "1"), "1"), (("1", "1"), "3/2")], 2),  # pentagon
]
GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


@st.composite
def exchange_cases(draw):
    body = draw(st.sampled_from(EXCHANGE_BODIES))
    n = draw(st.integers(3, 30))
    imag = GRID if draw(st.booleans()) else [0.0]
    coord = st.builds(complex, st.sampled_from(GRID), st.sampled_from(imag))
    points = np.array([[draw(coord) for _ in range(body.dim)] for _ in range(n)])
    log_weights = draw(st.lists(st.sampled_from([0.0, 0.0, -0.3, 0.2, -1.0, -math.inf]),
                                min_size=n, max_size=n)
                       .filter(lambda ws: max(ws) > -math.inf))  # some point has weight
    return Mesh(body.dim, points, np.array(log_weights)), body, draw(st.integers(1, 4))


@settings(deadline=None, max_examples=60)
@given(case=exchange_cases())
def test_exchange_matches_full_scan(case):
    # the ratio-scored exchange picks the same swaps, bit for bit, as scoring
    # every swap by slogdet; repeated points and zero weights make many ties
    _assert_exchange_matches_full_scan(*case)


@pytest.mark.parametrize("k", [1, 2])
def test_exchange_matches_full_scan_collinear(collinear9, simplex2, k):
    _assert_exchange_matches_full_scan(collinear9, simplex2, k)


def test_exchange_on_rank_deficient_mesh(simplex2):
    # repeated points leave some selections near-singular on the way; there
    # the determinant ratios misrank swaps, and the full scan must take over
    points = [(.5, 1), (.5, .5), (-1, -.5), (0, -.5), (0, 0), (0, 0), (.5, 1), (0, -1),
              (-.5, -.5), (1, 0), (-.5, .5), (.5, .5), (-.5, .5), (-.5, 0)]
    log_weights = [-.3, -1, 0, .2, -math.inf, -math.inf, -.3, -.3, .2, 0, .2, -1, 0, 0]
    mesh = Mesh(2, np.array(points, dtype=complex), np.array(log_weights))
    value = max_vdm(mesh, simplex2, 3).value
    assert value.log_abs == -42.50743807178562
    assert value.point_indices == (2, 11, 3, 12, 9, 7, 13, 8, 6, 10)


def test_exchange_scans_every_swap_when_cond_fails(monkeypatch, torus16, simplex2):
    # a failed inverse in the 1-norm conditioning test leaves the full scan to pick the swaps
    expected = max_vdm(torus16, simplex2, 2).value

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "cond", failing)
    value = max_vdm(torus16, simplex2, 2).value
    assert (value.log_abs, value.point_indices) == (expected.log_abs, expected.point_indices)


def test_exchange_scores_few_swaps_by_slogdet(monkeypatch, torus16, simplex2):
    # the full scan scores 29,520 selections here; ratio scoring re-scores
    # only near-ties, so a silent fallback to the full scan fails this
    scored = []
    original = vdm_mod._selection_values

    def counting(z, logw, k, selections):
        totals = original(z, logw, k, selections)
        scored.append(len(totals))
        return totals

    monkeypatch.setattr(vdm_mod, "_selection_values", counting)
    max_vdm(torus16, simplex2, 3)
    assert 0 < sum(scored) < 1000


def test_greedy_grow_forms_each_weight_power_once(monkeypatch, torus16, simplex2):
    # log w^k is formed once per distinct power: per Fekete restart, once by
    # the growth and once by its exchange passes; per Leja degree, once
    calls = []
    original = vdm_mod.log_weight_power
    monkeypatch.setattr(vdm_mod, "log_weight_power", lambda logw, k: calls.append(k) or original(logw, k))
    max_vdm(torus16, simplex2, 3, Greedy(restarts=3))
    assert calls == [3] * 6
    calls.clear()
    seq = leja_sequence(torus16, simplex2, 10)
    assert seq.k_values == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]
    assert calls == [1, 2, 3]


def _spy_on_updates(monkeypatch):
    """Record (updated R, sel, z) after each rank-1 update that passes its gate."""
    updates = []
    exchange, update = vdm_mod._exchange_passes, vdm_mod._update_ratios
    current_z = []

    def exchanging(z, *args):
        current_z[:] = [z]
        return exchange(z, *args)

    def updating(ratios, sel, *args):
        passed = update(ratios, sel, *args)
        if passed:
            updates.append((ratios.copy(), list(sel), current_z[0]))
        return passed

    monkeypatch.setattr(vdm_mod, "_exchange_passes", exchanging)
    monkeypatch.setattr(vdm_mod, "_update_ratios", updating)
    return updates


@settings(deadline=None, max_examples=60)
@given(case=exchange_cases())
def test_updated_ratios_match_a_fresh_solve(case):
    # every update that passes the residual gate stays within 1e-12 (relative
    # to the largest ratio) of solving A^{-1} z[:m_k] afresh, far inside the
    # 1e-9 window of ratio scores that slogdet re-scores
    with pytest.MonkeyPatch.context() as mp:
        updates = _spy_on_updates(mp)
        _greedy_outcome(*case)
    for ratios, sel, z in updates:
        fresh = np.linalg.solve(z[:len(sel), sel], z[:len(sel)])
        assert np.abs(ratios - fresh).max() <= 1e-12 * np.abs(fresh).max()


@pytest.mark.parametrize("residual", [vdm_mod._RATIO_RESIDUAL, 0.0], ids=["updated", "fallback"])
def test_exchange_solves_once_per_run_unless_an_update_fails(monkeypatch, torus16, simplex2,
                                                             residual):
    # R is solved once per exchange run and updated after each accepted swap;
    # a residual bound of 0 fails every update here, so each accepted swap
    # solves R again, and the picks still match the full scan either way
    solves = []
    original = vdm_mod._swap_ratios
    monkeypatch.setattr(vdm_mod, "_swap_ratios", lambda *args: solves.append(1) or original(*args))
    monkeypatch.setattr(vdm_mod, "_RATIO_RESIDUAL", residual)
    updates = _spy_on_updates(monkeypatch)
    _assert_exchange_matches_full_scan(torus16, simplex2, 3)
    if residual:
        assert len(solves) == Greedy().restarts and updates
    else:
        assert not updates and len(solves) > Greedy().restarts


def test_torus_report_calls_no_svd(monkeypatch):
    # the 1-norm conditioning test inverts by LU; no report step takes an SVD
    def failing(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg._linalg, "svd", failing)
    monkeypatch.setattr(np.linalg, "svd", failing)
    torus = build_mesh({"kind": "torus", "counts": [8, 8]})
    report = build_report(torus, simplex_body(2), 3, ReportOptions(include_leja=True))
    assert all(not row.errors and math.isfinite(row.log_vdm) for row in report.rows)


def test_max_vdm_overflowing_monomial_is_a_validation_error(simplex1):
    # 1e200 ** 2 overflows: the level-2 matrix would carry inf and the value nan
    mesh = Mesh(1, [[-1], [0], [1], [2], [3], [1e200]], np.zeros(6))
    assert math.isfinite(max_vdm(mesh, simplex1, 1).value.log_abs)
    with pytest.raises(ValidationError, match="degree 2"):
        max_vdm(mesh, simplex1, 2)


def _repeated_point_mesh():
    # points 0 and 1 coincide; every log weight is 1e308, so w^k is inf and
    # every selection's weight power reads inf
    return Mesh(1, [[0], [0], [1], [2]], [1e308] * 4)


@pytest.mark.parametrize("strategy", [BruteForce(), Greedy()], ids=["brute-force", "greedy"])
@pytest.mark.parametrize("k", [1, 2])
def test_max_vdm_under_infinite_weight_powers_skips_the_repeated_point(simplex1, strategy, k):
    # a singular selection is 0 * inf = 0 (log -inf), not nan: brute force
    # used to pick (0, 1) with log_abs nan, and greedy at k = 2 emptied its
    # swap shortlist on a nan ratio score and raised ValueError
    result = max_vdm(_repeated_point_mesh(), simplex1, k, strategy)
    assert result.value.log_abs == math.inf
    assert not {0, 1} <= set(result.value.point_indices)
    # every unisolvent selection ties at inf: brute force takes the lowest
    # indices, and greedy ranks the points that score inf by their residual
    # (w^1 is finite, so at k = 1 greedy's scores tie at a finite value)
    want = (0, 3, 2) if (k, strategy) == (2, Greedy()) else (0, 2, 3)[: k + 1]
    assert result.value.point_indices == want


def test_vandermonde_det_of_a_singular_selection_under_infinite_weight_powers(simplex1):
    assert vandermonde_det(_repeated_point_mesh(), simplex1, 2, [0, 1, 2]).log_abs == -math.inf
    assert vandermonde_det(_repeated_point_mesh(), simplex1, 2, [0, 2, 3]).log_abs == math.inf
