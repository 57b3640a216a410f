"""The factorial sandwich on every level, sharpened by Hadamard's inequality.

Write t_alpha for a cgrevlex record's `log_nu` and h_alpha for its
`log_bracket_high`.  Every level-k value log V of a determinant search
that starts at the highest-weight point and grows greedily satisfies

    sum t_alpha <= log V <= sum h_alpha + (M_k / 2) log M_k.

Lower side: each greedy step takes the largest weighted residual of the
next monomial, a monic polynomial of its cgrevlex class, so its factor is
at least that class's optimum; exchange passes only raise the value.
The same holds for the Leja value at M_k on an unweighted mesh, where the
stream's prefix before alpha is alpha's lower set at every level.  Upper
side: replacing each Vandermonde row by the LP's polynomial of that class
keeps |det| and bounds every entry by exp(h_alpha), so Hadamard's
inequality bounds the maximal determinant.  The slack 1e-6 * M_k covers
rounding: on a 1-D mesh at k = 1, V_1 meets the upper side exactly.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctdiam import BruteForce, box_body, leja_sequence, max_vdm, parse_body_spec, simplex_body, validate_body
from ctdiam.cheb import transform_grid
from ctdiam.mesh import Mesh, build_mesh
from ctdiam.order import CGREVLEX

WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads"


def _sandwich(mesh, body, k, cache=None):
    """The level-k bounds (sum t - slack, sum h + (M/2) log M + slack) and the smallest t."""
    m_k = body.counts(k)[0]
    table = transform_grid(mesh, body, k, orderings=(CGREVLEX,), cache=cache)
    records = [row.records[CGREVLEX] for row in table.rows]
    slack = 1e-6 * m_k
    low = sum(rec.log_nu for rec in records) - slack
    high = sum(rec.log_bracket_high for rec in records) + m_k / 2 * math.log(m_k) + slack
    return low, high, min(rec.log_nu for rec in records)


@pytest.mark.parametrize("workload", sorted(path.stem for path in WORKLOADS.glob("*.json")))
def test_every_workload_level_lies_in_the_sandwich(workload):
    # the default greedy on every level of the seed-0 report, and Leja on the unweighted meshes
    config = json.loads((WORKLOADS / f"{workload}.json").read_text())
    mesh, body = build_mesh(config["mesh"]), parse_body_spec(config["body"])
    k_max = config["run"]["k_max"]
    leja = leja_sequence(mesh, body, body.counts(k_max)[0]) if mesh.is_unweighted else None
    cache: dict = {}  # one solve per distinct problem of the workload, as in its report
    for k in range(1, k_max + 1):
        low, high, _ = _sandwich(mesh, body, k, cache)
        assert low <= max_vdm(mesh, body, k).value.log_abs <= high
        if leja is not None:
            assert low <= leja.log_values[body.counts(k)[0] - 1] <= high


BODIES = [
    simplex_body(1),
    simplex_body(2),
    box_body(2),
    validate_body([(("1", "0"), "1"), (("0", "1"), "1"), (("1", "1"), "3/2")], 2),  # pentagon
]
quarters = st.integers(-4, 4).map(lambda q: q / 4)


@st.composite
def small_cases(draw):
    body = draw(st.sampled_from(BODIES))
    k = draw(st.integers(1, 2))
    m_k = body.counts(k)[0]
    n = draw(st.integers(m_k, m_k + 3))
    if draw(st.booleans()):  # a real mesh, or a complex one on the polygon path
        coordinate = quarters.map(complex)
    else:
        coordinate = st.builds(complex, quarters, quarters)
    points = draw(st.lists(st.tuples(*[coordinate] * body.dim), min_size=n, max_size=n, unique=True))
    log_weights = draw(st.lists(st.sampled_from([0.0, -0.5, 0.5]), min_size=n, max_size=n))
    return body, k, Mesh(body.dim, np.array(points), np.array(log_weights))


@settings(deadline=None, max_examples=60)
@given(case=small_cases())
def test_exact_maximum_lies_in_the_sandwich(case):
    body, k, mesh = case
    low, high, smallest = _sandwich(mesh, body, k)
    # a class optimum near 0 leaves both sides to rounding
    assume(smallest > -10.0)
    assert low <= max_vdm(mesh, body, k, BruteForce()).value.log_abs <= high
