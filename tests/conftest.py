import numpy as np
import pytest
from hypothesis import settings

import ctdiam.cheb as cheb_mod
from ctdiam import box_body, build_mesh, simplex_body, validate_body
from ctdiam.errors import SolverFailure

# every run draws the same examples, so a failure found once recurs locally
# and in CI; a test's own @settings still sets its max_examples and deadline
settings.register_profile("ctdiam", derandomize=True)
settings.load_profile("ctdiam")


@pytest.fixture(scope="session")
def simplex1():
    return simplex_body(1)


@pytest.fixture(scope="session")
def simplex2():
    return simplex_body(2)


@pytest.fixture(scope="session")
def simplex3():
    return simplex_body(3)


@pytest.fixture(scope="session")
def square():
    return box_body(2)


@pytest.fixture(scope="session")
def skew_body():
    # {x, y >= 0 : x + 2y <= 2, 2x + y <= 2}; gauge((1,1)) = 3/2
    return validate_body([(("1", "2"), "2"), (("2", "1"), "2")], 2)


@pytest.fixture(scope="session")
def pentagon():
    # the unit square cut by x + y <= 3/2
    return validate_body([(("1", "0"), "1"), (("0", "1"), "1"), (("1", "1"), "3/2")], 2)


@pytest.fixture(scope="session")
def cube3():
    # the unit cube cut by x + y + z <= 2, the cube3-real benchmark body
    return validate_body([(("1", "0", "0"), "1"), (("0", "1", "0"), "1"), (("0", "0", "1"), "1"),
                          (("1", "1", "1"), "2")], 3)


@pytest.fixture(scope="session")
def wide_simplex():
    # the simplex conv{0, 2e1, e2}, given with one redundant halfspace
    return validate_body([(("1", "0"), "2"), (("1", "2"), "2")], 2)


@pytest.fixture(scope="session")
def mesh5():
    return build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 5, "spacing": "uniform"})


@pytest.fixture(scope="session")
def mesh7():
    return build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 7, "spacing": "uniform"})


@pytest.fixture(scope="session")
def cheb401():
    return build_mesh({"kind": "interval", "a": -1, "b": 1, "count": 401, "spacing": "chebyshev-nodes"})


@pytest.fixture(scope="session")
def circle64():
    return build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 64})


@pytest.fixture(scope="session")
def circle256():
    return build_mesh({"kind": "circle", "center": 0, "radius": 1, "count": 256})


@pytest.fixture(scope="session")
def torus16():
    return build_mesh({"kind": "torus", "counts": [16, 16]})


@pytest.fixture(scope="session")
def box_mesh():
    return build_mesh({"kind": "box2d", "x": [0, 1], "y": [0, 1], "counts": [5, 5]})


@pytest.fixture(scope="session")
def collinear9():
    # 9 points (t, t) in C^2: z1 = z2 on the mesh, so no three points are
    # unisolvent for the level-1 simplex basis {1, z1, z2}
    return build_mesh({"kind": "explicit", "dim": 2,
                       "points": [[t, 0, t, 0] for t in np.linspace(-1, 1, 9)]})


@pytest.fixture
def count_solves(monkeypatch):
    """Spy on `solve_minimax` as `cheb` calls it; returns each solve's lower-set size.

    With fail_single_lower, a solve with exactly one lower monomial raises
    SolverFailure.
    """
    def install(fail_single_lower=False):
        original, calls = cheb_mod.solve_minimax, []

        def counting(lower_vals, *args, **kwargs):
            calls.append(lower_vals.shape[0])
            if fail_single_lower and lower_vals.shape[0] == 1:
                raise SolverFailure("injected")
            return original(lower_vals, *args, **kwargs)

        monkeypatch.setattr(cheb_mod, "solve_minimax", counting)
        return calls

    return install
