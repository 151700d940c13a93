import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_forge import cli
from contract_forge import solver_single as ss
from contract_forge.optimize import golden_rows, root_rows

_coord = st.floats(-10.0, 10.0)


def _quadratics(peaks):
    """f(rows, x) = -(x - peak)^2 per row; counts the calls."""
    calls = []

    def f(rows, x):
        calls.append(rows.size)
        return -((x - peaks[rows]) ** 2)

    return f, calls


@given(
    rows=st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=6),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]),
)
@settings(max_examples=200, deadline=None)
def test_concave_rows_land_within_tol_of_clamped_peak(rows, tol):
    ends = np.array([sorted(r[:2]) for r in rows])
    a, b = ends[:, 0], ends[:, 1]
    peaks = np.array([r[2] for r in rows])
    f, _ = _quadratics(peaks)
    x = golden_rows(f, a, b, tol)
    assert np.all(np.abs(x - np.clip(peaks, a, b)) <= tol)


def test_tie_at_zero_steps_left_toward_the_bump():
    """A bump at 0.2 and a zero plateau from 0.3: both first probes sit on
    the plateau. Stepping right on that tie returned a point near 1."""
    bump = lambda rows, x: np.maximum(0.0, 1.0 - ((x - 0.2) / 0.1) ** 2)
    assert golden_rows(bump, [0.0], [1.0], 1e-9)[0] == pytest.approx(0.2, abs=1e-8)
    # any other tie still steps right: a flat row returns a point in the right part
    assert golden_rows(lambda rows, x: np.ones_like(x), [0.0], [1.0], 1e-3)[0] > 0.99


def test_groups_equal_their_own_calls_bit_for_bit():
    rng = np.random.default_rng(3)
    a = rng.uniform(-5.0, 0.0, 12)
    b = a + rng.uniform(0.0, 4.0, 12)
    b[7] = a[7] + 1e-12  # a bracket within tol in a group with wider ones
    group = np.array([0, 2, 2, 5, 0, 5, 5, 2, 0, 2, 5, 0])
    peaks = rng.uniform(-6.0, 4.0, 12)
    batch = golden_rows(_quadratics(peaks)[0], a, b, 1e-8, group)
    for g in (0, 2, 5):
        mine = np.flatnonzero(group == g)
        alone = golden_rows(_quadratics(peaks[mine])[0], a[mine], b[mine], 1e-8)
        assert np.array_equal(batch[mine], alone)


def test_bracket_narrower_than_tol_returns_its_midpoint():
    f, calls = _quadratics(np.array([0.0, 0.0]))
    x = golden_rows(f, [1.0, -2.0], [1.0 + 1e-9, -2.0 + 5e-9], 1e-8)
    assert np.array_equal(x, [0.5 * (1.0 + (1.0 + 1e-9)), 0.5 * (-2.0 + (-2.0 + 5e-9))])
    assert calls == []


def _lines(roots, slope):
    """g(rows, x) = slope * (x - root) per row; counts the calls."""
    calls = []

    def g(rows, x):
        calls.append(rows.size)
        return slope * (x - roots[rows])

    return g, calls


def _ends(g, roots, lo=-3.0, hi=4.0):
    a, b = np.full(roots.size, lo), np.full(roots.size, hi)
    every = np.arange(roots.size)
    return a, b, g(every, a), g(every, b)


@pytest.mark.parametrize("slope", [1.0, -2.5])
def test_roots_of_increasing_and_decreasing_rows(slope):
    roots = np.array([-2.9, -1.0 / 3.0, 0.1, math.pi, 3.999])
    g, _ = _lines(roots, slope)
    x = root_rows(g, *_ends(g, roots), 1e-12)
    assert np.all(np.abs(x - roots) <= 1e-12)
    assert np.all(g(np.arange(roots.size), x) >= 0.0)  # the end where g >= 0


@pytest.mark.parametrize("slope", [1.0, -1.0])
def test_step_rows_return_the_end_where_g_is_nonnegative(slope):
    roots = np.array([-1.7, 0.3, 2.2])

    def g(rows, x):  # no zero to land on: only the sign of g is informative
        return np.where(slope * (x - roots[rows]) >= 0.0, 1.0, -1.0)

    x = root_rows(g, *_ends(g, roots), 1e-10)
    assert np.all(np.abs(x - roots) <= 1e-10)
    assert np.all(g(np.arange(roots.size), x) == 1.0)


def test_exact_zero_at_a_probe_ends_the_row():
    g, calls = _lines(np.array([0.5]), 1.0)
    x = root_rows(g, np.array([-1.0]), np.array([2.0]), np.array([-1.5]), np.array([1.5]), 1e-12)
    assert x[0] == 0.5  # the first probe bisects the bracket and hits the root
    assert calls == [1]


def test_bracket_narrower_than_tol_takes_no_step():
    g, calls = _lines(np.array([1.0, 1.0]), 1.0)
    a, b = np.array([1.0 - 1e-13, 1.0 + 2e-13]), np.array([1.0 + 1e-13, 1.0 - 1e-13])
    x = root_rows(g, a, b, g(np.arange(2), a), g(np.arange(2), b), 1e-12)
    assert np.array_equal(x, [1.0 + 1e-13, 1.0 + 2e-13])
    assert calls == [2, 2]  # the two end evaluations above


def test_rows_equal_their_own_calls_bit_for_bit():
    rng = np.random.default_rng(5)
    roots = rng.uniform(-2.9, 3.9, 9)

    def g(rows, x):  # curved rows, some rising, some falling
        sign = np.where(rows % 2 == 0, 1.0, -1.0)
        return sign * (np.exp(x) - np.exp(roots[rows]))

    batch = root_rows(g, *_ends(g, roots), 1e-13)
    for i in range(roots.size):
        def alone(rows, x, i=i):
            return g(np.full(rows.size, i), x)

        assert root_rows(alone, *_ends(alone, roots[i : i + 1]), 1e-13)[0] == batch[i]


def test_solve_kernel_pass_count(monkeypatch):
    # one x-grid pass, 33 golden-section passes over x (the first step
    # evaluates both interior points), one inner solve at the refined x
    passes = []
    inner_rows = ss._inner_rows

    def counted(*args, **kwargs):
        passes.append(1)
        return inner_rows(*args, **kwargs)

    monkeypatch.setattr(ss, "_inner_rows", counted)
    path = resources.files("contract_forge") / "fixtures" / "labor_single.json"
    report = cli.run(cli.parse_scenario(str(path)))
    assert report.exit_code == 0
    assert len(passes) == 35
    assert report.payload["results"]["x"] == pytest.approx(1.3194, abs=1e-3)
