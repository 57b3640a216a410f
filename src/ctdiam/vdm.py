"""Weighted Vandermonde determinants in the log domain, and their maximizers.

The level-k basis is always the graded monomial stream restricted to the
level-k lattice; permuting it only flips the determinant's sign, which is
discarded.  Weight powers w^k are folded in as k * sum(log w) over the
chosen points, added to log |det| by `mesh.log_weighted_selection`, so the
monomial matrix itself never under- or overflows through the weights,
and a singular selection under an infinite weight power reads -inf; a
monomial that overflows on the mesh raises ValidationError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .body import ConvexBody, as_int
from .errors import (
    BruteForceCapExceeded,
    InsufficientSupport,
    TooManyPoints,
    ValidationError,
)
from .mesh import (Mesh, check_dimensions, log_weight_power, log_weighted, log_weighted_selection,
                   monomial_values)


def log_abs_det(matrix) -> float:
    """log |det| by LU with partial pivoting, accumulating pivot magnitudes.

    Returns -inf exactly when a pivot vanishes (e.g. repeated points make
    two columns bitwise equal, so elimination cancels them exactly).
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 0.0
    total = 0.0
    for col in range(n):
        piv = int(np.argmax(np.abs(a[col:, col]))) + col
        pval = a[piv, col]
        if pval == 0:
            return -math.inf
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        total += math.log(abs(pval))
        if col + 1 < n:
            a[col + 1:, col:] -= np.outer(a[col + 1:, col] / pval, a[col, col:])
    return total


@dataclass(frozen=True)
class VdmValue:
    """log |VDM| for one point selection at level k (s points, s <= M_k)."""

    log_abs: float
    point_indices: tuple[int, ...]
    k: int
    s: int


@dataclass(frozen=True)
class BruteForce:
    """Exhaustive scan of all M_k-subsets (exact); refuses above `cap` subsets."""

    cap: int = 2_000_000


@dataclass(frozen=True)
class Greedy:
    """Greedy growth plus single-point exchange passes (lower bound).

    Restart r starts from the r-th highest-weight point, so runs are
    deterministic; `seed` is accepted and echoed but drives nothing.
    """

    restarts: int = 4
    seed: int = 0


@dataclass(frozen=True)
class MaxVdmResult:
    value: VdmValue
    exact: bool


def vandermonde_det(mesh: Mesh, body: ConvexBody, k: int, point_indices) -> VdmValue:
    """log |det [w(zeta_l)^k z^(alpha_j)(zeta_l)]| for the first s basis monomials."""
    check_dimensions(mesh, body)
    indices = tuple(int(i) for i in point_indices)
    basis = body.lattice_points(k)
    s = len(indices)
    if s > len(basis):
        raise TooManyPoints(f"{s} points exceed the level-{k} dimension {len(basis)}")
    if len(set(indices)) < s:
        return VdmValue(-math.inf, indices, k, s)
    mat = monomial_values(mesh.points[list(indices)], basis[:s])
    value = selection_value(mat, mesh.log_weights[list(indices)], k, list(range(s)))
    return VdmValue(value, indices, k, s)


def _support_data(mesh: Mesh, body: ConvexBody, k: int):
    basis = body.lattice_points(k)
    support = mesh.support
    if support.size < len(basis):
        raise InsufficientSupport(
            f"need {len(basis)} positively weighted points, mesh has {support.size}"
        )
    return support, monomial_values(mesh.points[support], basis), mesh.log_weights[support]


def _brute_force(mesh, body, k, strategy: BruteForce):
    support, z, logw = _support_data(mesh, body, k)
    m_k = z.shape[0]
    ns = support.size
    n_subsets = math.comb(ns, m_k)
    if n_subsets > strategy.cap:
        raise BruteForceCapExceeded(
            f"C({ns},{m_k}) = {n_subsets} subsets exceed the cap {strategy.cap}"
        )
    chunk = max(1, int(2_000_000 / max(1, m_k * m_k)))
    best_val = -math.inf
    best_combo = None
    combos = itertools.combinations(range(ns), m_k)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            break
        totals = _selection_values(z, logw, k, block)
        i = int(np.argmax(totals))
        # strict: the lexicographically first subset wins ties, and the very
        # first subset stands in when none is unisolvent (all -inf)
        if best_combo is None or totals[i] > best_val:
            best_val = float(totals[i])
            best_combo = block[i]
    indices = tuple(int(support[i]) for i in best_combo)
    return MaxVdmResult(VdmValue(best_val, indices, k, m_k), exact=True)


def selection_value(z, logw, k, sel) -> float:
    """log |VDM| of the columns `sel` of z: the first len(sel) rows, weight power k."""
    return float(log_weighted_selection(log_abs_det(z[: len(sel), sel]), logw[sel], k))


def _selection_log_dets(z, sel) -> np.ndarray:
    """log |det| of the columns of each row of a 2-D stack of selections, unweighted."""
    # slogdet reads log|det| = -inf where det = 0, as log_abs_det does
    _, ld = np.linalg.slogdet(z[: sel.shape[1]][:, sel].transpose(1, 0, 2))  # (n, s, s)
    return ld


def _selection_values(z, logw, k, selections) -> np.ndarray:
    """`selection_value` for each row of a 2-D stack of selections, batched."""
    sel = np.asarray(selections)
    return log_weighted_selection(_selection_log_dets(z, sel), logw[sel], k)


def greedy_grow(z, logw, powers, start: int) -> list[int]:
    """Greedy determinant maximizer shared by approximate Fekete search and Leja sequences.

    z holds one row per basis monomial and one column per candidate point.
    From column `start`, step s appends the column c maximizing
    |det z[:s+1, sel + [c]]| * w(c)^powers[s] (lowest index on ties), scored
    as the residual of row s against the prefix rows; a singular prefix
    falls back to the full bordered determinants.  When every candidate
    scores -inf the lowest unselected column is taken, so no column repeats.
    When infinite weight powers make the best score +inf, the columns that
    score +inf are ranked by their unweighted magnitude, log |residual| or
    log |det| (lowest index on ties).  Each distinct power's log w^k is
    formed once.
    """
    ns = z.shape[1]
    sel = [start]
    log_wk = {}
    for s in range(1, len(powers)):
        k = powers[s]
        if k not in log_wk:
            log_wk[k] = log_weight_power(logw, k)
        cols = np.array(sel)
        try:
            y = np.linalg.solve(z[:s, cols].T, z[s, cols])
            with np.errstate(divide="ignore", invalid="ignore"):
                magnitude = np.log(np.abs(z[s] - y @ z[:s]))
                scores = log_weighted(magnitude, log_wk[k])
        except np.linalg.LinAlgError:
            trials = np.array([sel + [c] for c in range(ns)])
            magnitude = _selection_log_dets(z, trials)
            scores = log_weighted_selection(magnitude, logw[trials], k)
        scores[cols] = -np.inf
        nxt = int(np.argmax(scores))
        if scores[nxt] == np.inf:
            nxt = int(np.argmax(np.where(scores == np.inf, magnitude, -np.inf)))
        elif scores[nxt] == -np.inf:
            nxt = min(set(range(ns)).difference(sel))
        sel.append(nxt)
    return sel


_RATIO_TIE = 1e-9  # ratio scores this close to the best are re-scored by slogdet
_RATIO_COND = 1e6  # above this cond_1(A) the ratios may misrank swaps; scan them all
_RATIO_RESIDUAL = 1e-11  # an updated R whose R[:, sel] strays this far from I is solved again


def _swap_ratios(z, sel: list[int], m_k: int):
    """A^{-1} z[:m_k] for A = z[:m_k, sel]; None when A is singular or
    ill-conditioned in the 1-norm (or its inverse fails), or some ratio is
    not finite."""
    a = z[:m_k, sel]
    try:
        if not np.linalg.cond(a, 1) <= _RATIO_COND:
            return None
        ratios = np.linalg.solve(a, z[:m_k])
    except np.linalg.LinAlgError:
        return None
    return ratios if np.isfinite(ratios).all() else None


def _update_ratios(ratios, sel: list[int], pos: int, col, outer) -> bool:
    """Turn R = A^{-1} z[:m_k] into the R of A with column sel[pos] swapped in,
    in place: one product-form step through the buffers col (m_k,) and
    outer (m_k, ns).  False when the result is not finite or R[:, sel]
    strays from the identity by more than _RATIO_RESIDUAL."""
    np.copyto(col, ratios[:, sel[pos]])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios[pos] /= col[pos]
        col[pos] = 0
        np.multiply.outer(col, ratios[pos], out=outer)
        ratios -= outer
        residual = ratios[:, sel]
        residual.flat[:: len(sel) + 1] -= 1
        return bool(np.isfinite(ratios).all() and np.abs(residual).max() <= _RATIO_RESIDUAL)


def _exchange_passes(z, logw, k, sel: list[int], m_k: int):
    """Single-point exchanges until no swap raises the value by more than 1e-12.

    Each position takes the unselected column with the largest value
    (lowest index on ties), exactly as a full `_selection_values` scan over
    every swap would.  Swapping column c into position pos multiplies
    |det A| by |R[pos, c]| (Cramer's rule) and the weight term by
    (w(c) / w(sel[pos]))^k, where R = A^{-1} z[:m_k] is solved once per
    exchange run and carried across accepted swaps by `_update_ratios`, a
    rank-1 update (Dantzig & Orchard-Hays, 1954).  An update that is not
    finite or leaves R[:, sel] more than _RATIO_RESIDUAL from the identity
    is solved again.  These ratio scores only shortlist the swaps within
    _RATIO_TIE of the best; the shortlist is re-scored with
    `_selection_values`, so picks and values are those of the full scan.
    A value of -inf, a singular A or cond_1(A) above _RATIO_COND scans
    every swap instead.
    """
    ns = z.shape[1]
    log_wk = log_weight_power(logw, k)
    val = selection_value(z, logw, k, sel)
    ratios = _swap_ratios(z, sel, m_k) if val > -math.inf else None
    col = np.empty(m_k, dtype=z.dtype)
    outer = np.empty((m_k, ns), dtype=z.dtype)
    improved = True
    while improved:
        improved = False
        for pos in range(m_k):
            free = np.ones(ns, dtype=bool)
            free[sel] = False
            cands = np.flatnonzero(free)
            if cands.size == 0:
                continue
            if ratios is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    scores = log_weighted(np.log(np.abs(ratios[pos, cands])), log_wk[cands])
                cands = cands[scores >= scores.max() - _RATIO_TIE]
            trials = np.tile(np.array(sel), (cands.size, 1))
            trials[:, pos] = cands
            totals = _selection_values(z, logw, k, trials)
            i = int(np.argmax(totals))
            if totals[i] > val + 1e-12:
                sel[pos] = int(cands[i])
                val = float(totals[i])
                improved = True
                if ratios is None or not _update_ratios(ratios, sel, pos, col, outer):
                    ratios = _swap_ratios(z, sel, m_k)
    return sel, val


def _greedy(mesh, body, k, strategy: Greedy):
    support, z, logw = _support_data(mesh, body, k)
    m_k = z.shape[0]
    ns = support.size
    seeds = sorted(range(ns), key=lambda i: (-logw[i], i))[: min(strategy.restarts, ns)]
    best_val = -math.inf
    best_sel = None
    for start in seeds:
        sel = greedy_grow(z, logw, [k] * m_k, start)
        sel, val = _exchange_passes(z, logw, k, sel, m_k)
        if best_sel is None or val > best_val:
            best_val = val
            best_sel = sel
    indices = tuple(int(support[i]) for i in best_sel)
    return MaxVdmResult(VdmValue(best_val, indices, k, m_k), exact=False)


def max_vdm(mesh: Mesh, body: ConvexBody, k: int, strategy=None) -> MaxVdmResult:
    """Maximize log |VDM| over M_k-point subsets of the mesh.

    BruteForce is exact (subject to its subset cap); Greedy returns a
    certified lower bound that in practice reaches the optimum on the
    mesh sizes this package targets.
    """
    check_dimensions(mesh, body)
    if k < 1:
        raise ValidationError("max_vdm needs k >= 1")
    strategy = _checked(strategy if strategy is not None else Greedy())
    if isinstance(strategy, BruteForce):
        return _brute_force(mesh, body, k, strategy)
    if isinstance(strategy, Greedy):
        return _greedy(mesh, body, k, strategy)
    raise ValidationError(f"unknown strategy {strategy!r}")


def fekete_points(mesh: Mesh, body: ConvexBody, k: int, strategy=None) -> list[int]:
    """Mesh indices of the maximizing configuration from `max_vdm`."""
    return list(max_vdm(mesh, body, k, strategy).value.point_indices)


def _checked(strategy):
    """`strategy` itself, or ValidationError naming a restart count or cap below 1."""
    if isinstance(strategy, Greedy) and strategy.restarts < 1:
        raise ValidationError(f"run.strategy.restarts must be >= 1, got {strategy.restarts}")
    if isinstance(strategy, BruteForce) and strategy.cap < 1:
        raise ValidationError(f"run.strategy.cap must be >= 1, got {strategy.cap}")
    return strategy


def strategy_from_config(raw) -> BruteForce | Greedy:
    """Strategy object from its config form run.strategy = {'kind': 'brute-force' | 'greedy', ...}."""
    if raw is None:
        return Greedy()
    if isinstance(raw, (BruteForce, Greedy)):
        return _checked(raw)
    if not isinstance(raw, dict):
        raise ValidationError(f"run.strategy must be a JSON object with a 'kind', got {raw!r}")
    kind = raw.get("kind")
    if kind == "brute-force":
        strategy = BruteForce(cap=as_int(raw.get("cap", BruteForce.cap), "run.strategy.cap"))
    elif kind == "greedy":
        strategy = Greedy(
            restarts=as_int(raw.get("restarts", Greedy.restarts), "run.strategy.restarts"),
            seed=as_int(raw.get("seed", Greedy.seed), "run.strategy.seed"))
    else:
        raise ValidationError(f"unknown run.strategy kind {kind!r}")
    return _checked(strategy)


def fekete_to_dict(mesh: Mesh, result: MaxVdmResult) -> dict:
    """Structured-text form of a maximizer: k, log value, exactness, point coordinates."""
    pts = []
    for i in result.value.point_indices:
        row = []
        for zc in mesh.points[i]:
            row.extend([zc.real, zc.imag])
        pts.append(row)
    return {
        "k": result.value.k,
        "log_vdm": result.value.log_abs,
        "exact": result.exact,
        "points": pts,
    }
