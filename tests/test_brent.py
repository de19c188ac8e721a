"""``dispatch.minimize_scalar`` against scipy's bounded method, its oracle.

pevplan's bounded Brent is a transcription of scipy's
``_minimize_scalar_bounded``, so on every function and interval the two must
call the function at the same points in the same order and return the same
``x``, ``fun`` and ``nfev``, compared bit for bit.  scipy comes with the
``test`` extra only.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pevplan import dispatch
from pevplan.dispatch import _TRIAL_PENALTY, Scenario, dispatch_q

optimize = pytest.importorskip("scipy.optimize")

PEAK_HOUR = 19


def _searched(search, func, a, b, xatol, maxiter):
    """``(points, x, fun, nfev)`` of one search, floats as hex strings."""
    points = []

    def recorded(x):
        points.append(float(x).hex())
        return func(x)

    res = search(recorded, a, b, xatol, maxiter)
    return points, float(res.x).hex(), float(res.fun).hex(), int(res.nfev)


def scipy_search(func, a, b, xatol, maxiter):
    return optimize.minimize_scalar(func, bounds=(a, b), method="bounded",
                                    options={"xatol": xatol, "maxiter": maxiter})


def assert_same_search(func, a, b, xatol, maxiter):
    ours = _searched(dispatch.minimize_scalar, func, a, b, xatol, maxiter)
    theirs = _searched(scipy_search, func, a, b, xatol, maxiter)
    assert ours == theirs
    assert len(ours[0]) == ours[3]


@st.composite
def searches(draw):
    """Bounds, ``xatol`` and ``maxiter`` as dispatch draws them, and wider."""
    a = draw(st.floats(-2.0, 2.0))
    width = draw(st.sampled_from([0.0, 1e-9, 1e-4]) | st.floats(0.0, 3.0))
    b = a + width
    xatol = draw(st.sampled_from([1e-4, max(1e-4, 0.08 * width)])
                 | st.floats(1e-8, 1.0))
    maxiter = draw(st.sampled_from([10]) | st.integers(1, 60))
    return a, b, xatol, maxiter


def unimodal(draw, a, b):
    """A random function with one minimum, inside or outside ``[a, b]``."""
    m = draw(st.floats(a - 1.0, b + 1.0), label="minimum")
    power = draw(st.floats(0.5, 4.0), label="power")
    left = draw(st.floats(0.01, 100.0), label="left slope")
    right = draw(st.floats(0.01, 100.0), label="right slope")
    offset = draw(st.floats(-10.0, 10.0), label="offset")
    return lambda x: offset + (left if x < m else right) * abs(x - m) ** power


@settings(max_examples=300, deadline=None)
@given(search=searches(), data=st.data())
def test_random_unimodal_functions(search, data):
    a, b, xatol, maxiter = search
    assert_same_search(unimodal(data.draw, a, b), a, b, xatol, maxiter)


@settings(max_examples=100, deadline=None)
@given(search=searches(), data=st.data())
def test_distance_to_a_point(search, data):
    a, b, xatol, maxiter = search
    centre = data.draw(st.sampled_from([a, b, 0.5 * (a + b)]) | st.floats(a, b),
                       label="centre")
    assert_same_search(lambda x: abs(x - centre), a, b, xatol, maxiter)


@settings(max_examples=50, deadline=None)
@given(search=searches(), level=st.sampled_from([0.0, -0.0, 1.0, _TRIAL_PENALTY]))
def test_flat_functions(search, level):
    a, b, xatol, maxiter = search
    assert_same_search(lambda x: level, a, b, xatol, maxiter)


@settings(max_examples=200, deadline=None)
@given(search=searches(), data=st.data())
def test_functions_with_penalty_steps(search, data):
    # a trial whose solves fail scores _TRIAL_PENALTY; here the failures fill
    # a random band of the interval, or its ends
    a, b, xatol, maxiter = search
    f = unimodal(data.draw, a, b)
    lo = data.draw(st.floats(a - 0.5, b + 0.5), label="band low")
    hi = lo + data.draw(st.floats(0.0, 2.0), label="band width")
    assert_same_search(lambda x: _TRIAL_PENALTY if lo <= x <= hi else f(x),
                       a, b, xatol, maxiter)


def test_functions_with_nan_values():
    # a NaN score is never accepted, and the steps stay finite
    assert_same_search(lambda x: math.nan, -1.0, 2.0, 1e-4, 10)
    assert_same_search(lambda x: math.nan if x > 0.3 else (x + 0.2) ** 2,
                       -1.0, 2.0, 1e-4, 20)


def test_recorded_searches_of_a_bus33_hour(bus33, devices33, monkeypatch):
    # each search of one dgq+v2gq hour runs on both minimisers; a trial
    # score is a deterministic solve, so both see the same function
    ours = dispatch.minimize_scalar
    compared = []

    def both(func, a, b, xatol, maxiter):
        theirs = _searched(scipy_search, func, a, b, xatol, maxiter)
        mine = _searched(ours, func, a, b, xatol, maxiter)
        compared.append((mine, theirs))
        return ours(func, a, b, xatol, maxiter)

    monkeypatch.setattr(dispatch, "minimize_scalar", both)
    res = dispatch_q(bus33.network, devices33, PEAK_HOUR, Scenario(mode="dgq+v2gq"))
    assert res.score < res.base_score
    assert len(compared) >= len(devices33)
    for mine, theirs in compared:
        assert mine == theirs


@pytest.mark.parametrize("bounds", [
    (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (1.0, 0.0), (1e-12, 0.0),
])
def test_unusable_bounds_raise_as_in_scipy(bounds):
    with pytest.raises(ValueError) as theirs:
        scipy_search(lambda x: x * x, *bounds, 1e-4, 10)
    with pytest.raises(ValueError, match=str(theirs.value)):
        dispatch.minimize_scalar(lambda x: x * x, *bounds, 1e-4, 10)
