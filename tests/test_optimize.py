from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contract_forge import cli
from contract_forge import solver_single as ss
from contract_forge.optimize import golden_rows

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
