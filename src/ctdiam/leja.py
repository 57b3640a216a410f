"""Greedy point sequences maximizing the running Vandermonde determinant.

The s-th determinant uses the first s monomials of the graded stream and
the weight power w^k with k the graded degree of the newest monomial.
Because the weight factors enter only through k * sum(log w) over the
chosen points, the monomial part of each determinant is independent of
k, so the sequence is `vdm.greedy_grow` (the kernel behind approximate
Fekete search) run with the per-step weight powers k; every stored
value is recomputed from scratch for robustness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body import ConvexBody, Exponent
from .errors import InsufficientSupport, ValidationError
from .mesh import Mesh, check_dimensions, exp_or_inf, monomial_values
from .order import monomial_sequence
from .serialize import fmt, write_csv
from .vdm import greedy_grow, selection_value


@dataclass
class LejaSequence:
    """Greedily chosen mesh indices with running log determinant values.

    log_values[s-1] is log |VDM| of the first s points at the degree
    level of the s-th monomial; it starts at k_1 * log w(zeta_1) = 0
    because the stream opens with the constant monomial (degree 0).
    The sequence of values need not be monotone once weights vary.
    """

    mesh: Mesh
    indices: list[int]
    log_values: list[float]
    k_values: list[int]
    exponents: list[Exponent]

    def __len__(self) -> int:
        return len(self.indices)


def leja_sequence(mesh: Mesh, body: ConvexBody, count: int) -> LejaSequence:
    """Grow a sequence of `count` points, one determinant-maximizing point at a time.

    The first point maximizes the weight (lowest index on ties); every
    later point maximizes the bordered determinant over the whole mesh
    (again lowest index on ties).
    """
    check_dimensions(mesh, body)
    if count < 1:
        raise ValidationError("count must be >= 1")
    if count > len(mesh):
        raise InsufficientSupport(f"count {count} exceeds mesh size {len(mesh)}")

    exponents = monomial_sequence(body, count)
    k_values = [body.degree(alpha) for alpha in exponents]
    z = monomial_values(mesh.points, exponents)
    logw = mesh.log_weights
    indices = greedy_grow(z, logw, k_values, int(np.argmax(logw)))
    log_values = [selection_value(z, logw, k_values[s - 1], indices[:s])
                  for s in range(1, count + 1)]
    return LejaSequence(mesh=mesh, indices=indices, log_values=log_values,
                        k_values=k_values, exponents=exponents)


@dataclass
class LejaDiameterRow:
    k: int
    m_k: int
    l_k: int
    log_vdm: float
    value: float  # (running determinant at length M_k) ** (1 / L_k)


@dataclass
class LejaDiameterReport:
    rows: list[LejaDiameterRow]
    sequence: LejaSequence
    heuristic: bool  # True when the mesh is weighted: the limit statement is unweighted


def leja_diameter(mesh: Mesh, body: ConvexBody, k_max: int) -> LejaDiameterReport:
    """Normalized running determinants at each level prefix M_k, k = 1..k_max."""
    check_dimensions(mesh, body)
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    m_last, _, _ = body.counts(k_max)
    if len(mesh) < m_last:
        raise InsufficientSupport(f"mesh has {len(mesh)} points, level {k_max} needs {m_last}")
    seq = leja_sequence(mesh, body, m_last)
    rows = []
    for k in range(1, k_max + 1):
        m_k, _, l_k = body.counts(k)
        log_vdm = seq.log_values[m_k - 1]
        rows.append(LejaDiameterRow(k=k, m_k=m_k, l_k=l_k, log_vdm=log_vdm,
                                    value=exp_or_inf(log_vdm / l_k)))
    return LejaDiameterReport(rows=rows, sequence=seq, heuristic=not mesh.is_unweighted)


def leja_to_csv(report: LejaDiameterReport, path):
    """Per-step rows (s, k, point coordinates, log_vdm) followed by per-k summaries."""
    seq = report.sequence
    coord_cols = [f"{part}_{i + 1}" for i in range(seq.mesh.dim) for part in ("re", "im")]
    rows = [["s", "k"] + coord_cols + ["log_vdm"]]
    for s, (idx, k, lv) in enumerate(zip(seq.indices, seq.k_values, seq.log_values), start=1):
        rows.append([s, k] + [fmt(x) for zc in seq.mesh.points[idx] for x in (zc.real, zc.imag)]
                    + [fmt(lv)])
    rows += [[], ["k", "M_k", "L_k", "log_vdm", "value"]]
    rows += [[r.k, r.m_k, r.l_k, fmt(r.log_vdm), fmt(r.value)] for r in report.rows]
    write_csv(path, rows)
