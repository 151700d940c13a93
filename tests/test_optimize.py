import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contract_forge import cli
from contract_forge import solver_single as ss
from contract_forge.optimize import line_max_rows, root_rows

_coord = st.floats(-10.0, 10.0)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _brent_max_reference(f, a, b, tol):
    """One row's maximizer on [a, b] by Brent's localmin (Brent 1973,
    *Algorithms for Minimization without Derivatives*, ch. 5), step for
    step, with netlib ``fmin``'s tol1 = sqrt(eps)*|x| + tol/3, written for
    a maximum: each comparison of f is turned round, and a tie at 0 keeps
    the left point. A bracket within ``tol`` returns its midpoint without
    a call. ``f`` takes one point. Frozen as the bit-for-bit reference."""
    if not b - a > tol:
        return 0.5 * (a + b)
    c = (3.0 - math.sqrt(5.0)) / 2.0
    x = w = v = a + c * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        t2 = 2.0 * tol1
        if abs(x - m) <= t2 - 0.5 * (b - a):
            return x
        p = q = r = 0.0
        if abs(e) > tol1:  # fit a parabola
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q  # a parabolic interpolation step
            u = x + d
            if u - a < t2 or b - u < t2:  # f must not be evaluated too close to a or b
                d = tol1 if x < m else -tol1
        else:
            e = (b if x < m else a) - x  # a golden-section step
            d = c * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0.0 else -tol1))  # nor too close to x
        fu = f(u)
        if fu > fx or (fu == fx and (fx != 0.0 or u < x)):
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


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
@example(rows=[(0.0, 1.0, 1.0)], tol=1e-9)  # a peak at the bracket's end: x stops about 3e-8 short
@settings(max_examples=200, deadline=None)
def test_concave_rows_land_within_tol_of_clamped_peak(rows, tol):
    """Brent's guarantee: within 2*tol1 = 2*(sqrt(eps)*|x*| + tol/3) of the
    maximum x*. Near a smooth maximum f is flat to rounding within about
    sqrt(eps)*|x*|, so no search can do much better than the relative term."""
    ends = np.array([sorted(r[:2]) for r in rows])
    a, b = ends[:, 0], ends[:, 1]
    peaks = np.array([r[2] for r in rows])
    f, _ = _quadratics(peaks)
    x = line_max_rows(f, a, b, tol)
    best = np.clip(peaks, a, b)
    assert np.all(np.abs(x - best) <= 2.0 * (_SQRT_EPS * np.abs(best) + tol / 3.0))


def test_tie_at_zero_steps_left_toward_the_bump():
    """A bump at 0.2 and a zero plateau from 0.3: both first probes sit on
    the plateau. Stepping right on that tie returned a point near 1."""
    bump = lambda rows, x: np.maximum(0.0, 1.0 - ((x - 0.2) / 0.1) ** 2)
    assert line_max_rows(bump, [0.0], [1.0], 1e-9)[0] == pytest.approx(0.2, abs=1e-8)
    # any other tie still steps right: a flat row returns a point in the right part
    assert line_max_rows(lambda rows, x: np.ones_like(x), [0.0], [1.0], 1e-3)[0] > 0.99


def test_groups_equal_their_own_calls_bit_for_bit():
    rng = np.random.default_rng(3)
    a = rng.uniform(-5.0, 0.0, 12)
    b = a + rng.uniform(0.0, 4.0, 12)
    b[7] = a[7] + 1e-12  # a bracket within tol among wider ones
    group = np.array([0, 2, 2, 5, 0, 5, 5, 2, 0, 2, 5, 0])
    peaks = rng.uniform(-6.0, 4.0, 12)
    batch = line_max_rows(_quadratics(peaks)[0], a, b, 1e-8)
    for g in (0, 2, 5):
        mine = np.flatnonzero(group == g)
        alone = line_max_rows(_quadratics(peaks[mine])[0], a[mine], b[mine], 1e-8)
        assert np.array_equal(batch[mine], alone)


def _shape(shape, peaks):
    """Row objectives around ``peaks``: a smooth peak, a bump on a zero
    plateau, rounded steps (flat ties), or a kink with a plateau at 0 on
    its right, as participation objectives have."""
    def f(rows, x):
        z = x - peaks[rows]
        if shape == "peak":
            return -(z ** 2)
        if shape == "bump":
            return np.maximum(0.0, 1.0 - (z / 0.5) ** 2)
        if shape == "steps":
            return np.floor(2.0 * np.abs(z)) * -1.0
        return np.where(z <= 0.0, 1.0 + 0.3 * z - z ** 2, 0.0)

    return f


@given(
    rows=st.lists(
        st.tuples(_coord, st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.5, 3.0, 17.0]), _coord),
        min_size=1, max_size=8,
    ),
    shape=st.sampled_from(["peak", "bump", "steps", "kink"]),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
)
# a bump left of a zero plateau: the first two probes tie at 0
@example(rows=[(0.0, 1.0, -0.3), (0.0, 1.0, 0.2)], shape="bump", tol=1e-9)
# the second probe loses to both earlier points while v == w: it becomes v
@example(rows=[(0.0, 1.0, 0.55)], shape="peak", tol=1e-9)
@settings(max_examples=300, deadline=None)
def test_lockstep_rows_match_the_scalar_brent_bit_for_bit(rows, shape, tol):
    """Every row is evaluated at the same points, in the same order, and
    returns the same bits as the scalar Brent: rows leaving at different
    steps, brackets within ``tol``, ties at 0 (bumps that the first probes
    miss, plateaus right of a kink) and flat ties (rounded steps). Each
    call of f holds the rows that have not yet left."""
    a = np.array([r[0] for r in rows])
    b = a + np.array([r[1] for r in rows])
    f = _shape(shape, np.array([r[2] for r in rows]))
    new, new_log = _logged(f, a.size)
    sizes = []
    x = line_max_rows(lambda rows, x: sizes.append(rows.size) or new(rows, x), a, b, tol)
    old_log = []
    for i in range(a.size):
        one, log = _logged(lambda _, x, i=i: f(np.array([i]), x), 1)
        want = _brent_max_reference(lambda p: float(one(np.array([0]), np.array([p]))[0]), a[i], b[i], tol)
        assert x[i].tobytes() == np.float64(want).tobytes()
        old_log.append(log[0])
    assert new_log == old_log
    assert sizes == [sum(len(log) > k for log in old_log) for k in range(len(sizes))]


def test_rows_leaving_at_different_steps_share_one_call_per_step():
    """Rows of 1, 1e-5 and 1e-9 (within tol) width: one call of f per
    step, over the rows still stepping; the narrow row leaves first."""
    peaks = np.array([0.3, 0.7, 0.1, 0.5, 0.0])
    a, b = np.zeros(5), np.array([1.0, 1.0, 1e-5, 1e-5, 1e-9])
    f, calls = _quadratics(peaks)
    line_max_rows(f, a, b, 1e-9)
    counts = []
    for i in range(4):
        g, alone = _quadratics(peaks[i : i + 1])
        line_max_rows(g, a[i : i + 1], b[i : i + 1], 1e-9)
        counts.append(len(alone))
    assert min(counts) < max(counts) < 36  # golden section took 45 steps on the unit rows
    assert calls == [sum(n > k for n in counts) for k in range(max(counts))]


def test_bracket_narrower_than_tol_returns_its_midpoint():
    f, calls = _quadratics(np.array([0.0, 0.0]))
    x = line_max_rows(f, [1.0, -2.0], [1.0 + 1e-9, -2.0 + 5e-9], 1e-8)
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


def test_no_rows_take_no_call():
    g, calls = _lines(np.zeros(0), 1.0)
    empty = np.zeros(0)
    x = root_rows(g, empty, empty, empty, empty, 1e-12)
    assert x.shape == (0,)
    assert calls == []


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
    # one x-grid pass, 8 Brent steps over x (golden section took 33), one
    # inner solve at the refined x
    passes = []
    inner_rows = ss._inner_rows

    def counted(*args, **kwargs):
        passes.append(1)
        return inner_rows(*args, **kwargs)

    monkeypatch.setattr(ss, "_inner_rows", counted)
    path = resources.files("contract_forge") / "fixtures" / "labor_single.json"
    report = cli.run(cli.parse_scenario(str(path)))
    assert report.exit_code == 0
    assert len(passes) == 10
    assert report.payload["results"]["x"] == pytest.approx(1.3194, abs=1e-3)
