import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contract_forge import cli
from contract_forge import solver_single as ss
from contract_forge.optimize import golden_rows, root_rows

_coord = st.floats(-10.0, 10.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_rows_reference(f, a, b, tol, group=None):
    """``golden_rows`` as it was before its groups stepped in lockstep: one
    pass per distinct step count. Frozen as the bit-for-bit reference."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    group = np.zeros(a.size, dtype=int) if group is None else np.asarray(group)
    widest = np.zeros(group.max() + 1)
    np.maximum.at(widest, group, b - a)
    counts = [math.ceil(math.log(tol / w) / math.log(_INV_PHI)) if w > tol else 0 for w in widest]
    steps = np.array(counts)[group]
    x = 0.5 * (a + b)
    for n in sorted(set(counts) - {0}):
        rows = np.flatnonzero(steps == n)
        lo, hi = a[rows], b[rows]
        dist = hi - lo
        c = lo + _INV_PHI_SQ * dist
        d = lo + _INV_PHI * dist
        fc, fd = f(rows, c), f(rows, d)
        for _ in range(n - 1):
            left = (fc > fd) | ((fc == 0.0) & (fd == 0.0))
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            dist = dist * _INV_PHI
            c = lo + _INV_PHI_SQ * dist
            d = lo + _INV_PHI * dist
            fp = f(rows, np.where(left, c, d))
            fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        x[rows] = np.where((fc > fd) | ((fc == 0.0) & (fd == 0.0)), 0.5 * (lo + d), 0.5 * (c + hi))
    return x


def _root_rows_reference(g, a, b, ga, gb, tol):
    """``root_rows`` as it was before its steps were trimmed: every array
    re-filtered at every step. Frozen as the bit-for-bit reference."""
    out = np.empty_like(a)
    rows = np.arange(a.size)
    x1, f1, x2, f2 = a, ga, b, gb
    x3 = f3 = np.full_like(a, np.nan)
    for _ in range(100):
        done = (f1 == 0.0) | (np.abs(x2 - x1) < tol)
        out[rows[done]] = np.where(f1[done] >= 0.0, x1[done], x2[done])
        rows, x1, f1, x2, f2, x3, f3 = (v[~done] for v in (rows, x1, f1, x2, f2, x3, f3))
        if not rows.size:
            return out
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            t = np.where(
                (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                f1 / (f2 - f1) * f3 / (f2 - f3)
                + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2),
                0.5,
            )
        t_min = 0.5 * tol / np.abs(x2 - x1)
        xt = x1 + np.clip(t, t_min, 1.0 - t_min) * (x2 - x1)
        ft = g(rows, xt)
        same = (ft >= 0.0) == (f1 >= 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xt, ft
    out[rows] = np.where(f1 >= 0.0, x1, x2)
    return out


def _logged(fn, size):
    """``fn`` recording, per row, the bytes of every point it is evaluated at."""
    log = [[] for _ in range(size)]

    def logged(rows, x):
        for r, p in zip(rows, x):
            log[r].append(np.float64(p).tobytes())
        return fn(rows, x)

    return logged, log


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


@given(
    rows=st.lists(
        st.tuples(_coord, st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.5, 3.0, 17.0]), _coord, st.integers(0, 3)),
        min_size=1, max_size=8,
    ),
    shape=st.sampled_from(["peak", "bump", "steps"]),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
)
@settings(max_examples=300, deadline=None)
def test_lockstep_groups_match_the_reference_bit_for_bit(rows, shape, tol):
    """Every row is evaluated at the same points and returns the same bits as
    the per-count passes did: mixed counts, brackets within ``tol``, ties at
    0 (bumps that both probes miss) and flat ties (rounded steps)."""
    a = np.array([r[0] for r in rows])
    b = a + np.array([r[1] for r in rows])
    peaks = np.array([r[2] for r in rows])
    group = np.array([r[3] for r in rows])

    def f(rows, x):
        if shape == "peak":
            return -((x - peaks[rows]) ** 2)
        if shape == "bump":
            return np.maximum(0.0, 1.0 - ((x - peaks[rows]) / 0.5) ** 2)
        return np.floor(2.0 * np.abs(x - peaks[rows])) * -1.0

    new, new_log = _logged(f, a.size)
    old, old_log = _logged(f, a.size)
    x = golden_rows(new, a, b, tol, group)
    assert x.tobytes() == _golden_rows_reference(old, a, b, tol, group).tobytes()
    assert new_log == old_log


def test_mixed_counts_take_one_call_per_step():
    """Groups of 44, 20 and 0 steps: max(count) + 1 = 45 calls of f, each
    over the rows still stepping (the per-count passes took 45 + 21)."""
    peaks, group = np.array([0.3, 0.7, 0.1, 0.5, 0.0]), np.array([0, 0, 1, 1, 2])
    a, b = np.zeros(5), np.array([1.0, 1.0, 1e-5, 1e-5, 1e-9])
    assert [math.ceil(math.log(1e-9 / w) / math.log(_INV_PHI)) for w in (1.0, 1e-5)] == [44, 20]
    f, calls = _quadratics(peaks)
    x = golden_rows(f, a, b, 1e-9, group)
    assert calls == [4, 4] + [4] * 19 + [2] * 24
    assert x.tobytes() == _golden_rows_reference(_quadratics(peaks)[0], a, b, 1e-9, group).tobytes()


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


@given(
    rows=st.lists(
        st.tuples(
            _coord,
            st.sampled_from([1e-14, 1e-10, 1e-9, 1e-4, 0.25, 1.0, 6.0]),  # some equal to tol
            st.floats(0.0, 1.0),
            st.sampled_from(["line", "cubic", "exp", "floor", "sign"]),
            st.sampled_from([1.0, -3.0]),
        ),
        min_size=1, max_size=8,
    ),
    tol=st.sampled_from([1e-13, 1e-10, 1e-4]),
)
@settings(max_examples=300, deadline=None)
def test_roots_match_the_reference_bit_for_bit(rows, tol):
    """Every row is evaluated at the same points and returns the same bits as
    the loop that re-filtered every array at every step: rows finishing at
    different steps, exact zeros (midpoint roots, floor plateaus), sign-only
    rows and brackets narrower than ``tol``, in either orientation."""
    a = np.array([r[0] for r in rows])
    b = a + np.array([r[1] for r in rows])
    roots = a + np.array([r[2] for r in rows]) * (b - a)
    kinds = [r[3] for r in rows]
    slopes = np.array([r[4] for r in rows])

    def g(rows, x):
        z = x - roots[rows]
        out = np.empty_like(z)
        for i, (r, zi) in enumerate(zip(rows, z)):
            out[i] = {
                "line": zi,
                "cubic": zi ** 3 + 0.1 * zi,
                "exp": math.expm1(zi),
                "floor": math.floor(4.0 * zi),
                "sign": 1.0 if zi >= 0.0 else -1.0,
            }[kinds[r]]
        return slopes[rows] * out

    every = np.arange(a.size)
    ga, gb = g(every, a), g(every, b)
    assume(np.all((ga >= 0.0) != (gb >= 0.0)))
    flip = slopes < 0.0  # half the brackets run from right to left
    a, b, ga, gb = np.where(flip, b, a), np.where(flip, a, b), np.where(flip, gb, ga), np.where(flip, ga, gb)
    new, new_log = _logged(g, a.size)
    old, old_log = _logged(g, a.size)
    x = root_rows(new, a, b, ga, gb, tol)
    assert x.tobytes() == _root_rows_reference(old, a, b, ga, gb, tol).tobytes()
    assert new_log == old_log


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
