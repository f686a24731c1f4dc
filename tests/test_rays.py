from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cewave.charsys import ETA, FieldBackground, fresnel_roots
from cewave.errors import (
    BadParams,
    BadUsage,
    GridTooCoarse,
    OffShellStart,
    StepFailure,
)
from cewave.lagrangians import builtin
from cewave.rays import (
    BLOWUP_THRESHOLD,
    MAX_STEPS,
    ConeHamiltonian,
    QuarticHamiltonian,
    TransportState,
    _step_count,
    crossing_time,
    euler_defect,
    trace,
    transport_amplitude,
    write_ray_csv,
    write_transport_csv,
)
from oracles import (
    CallableHamiltonian,
    repr_csv,
    scalar_model_cone,
    transport_oracle,
)

BG = FieldBackground.vector([0.3, 0.0, 0.0], [0.0, 0.4, 0.0])
# the x and p columns of RayPath.states, whose columns are s, x0..x3,
# p0..p3, H
X, P = slice(1, 5), slice(5, 9)


class _WaveH:
    """Advection dispersion p0 + u(x1) p1 with analytic gradients, used
    to exercise the integrator on a genuinely x-dependent system."""

    degree = None

    def value(self, x, p):
        return p[0] + (0.5 + 0.3 * np.sin(x[1])) * p[1]

    def grad_p(self, x, p):
        return np.array([1.0, 0.5 + 0.3 * np.sin(x[1]), 0.0, 0.0])

    def grad_x(self, x, p):
        return np.array([0.0, 0.3 * np.cos(x[1]) * p[1], 0.0, 0.0])


def _wave_start():
    u0 = 0.5 + 0.3 * np.sin(0.4)
    return np.array([0.0, 0.4, 0.0, 0.0]), np.array([-u0, 1.0, 0.0, 0.0])


def test_metric_cone_ray_is_straight_and_exact():
    H = ConeHamiltonian.metric()
    p0 = np.array([-1.0, 1.0, 0.0, 0.0])
    ray = trace(H, np.zeros(4), p0, s_max=1.0)
    assert ray.drift == 0.0
    end = ray.states[-1]
    assert np.allclose(end[X], [2.0, 2.0, 0.0, 0.0], atol=1e-14)
    assert np.array_equal(end[P], p0)
    assert len(ray.states) == 101


def test_quartic_ray_on_coincident_pair_conserves_everything():
    # Coincident Fresnel pairs make the dispersion a perfect square, so
    # its gradient vanishes on shell and the traced curve degenerates to
    # a point; conservation still has to be exact.
    model = builtin("born-infeld")
    H = QuarticHamiltonian(model, BG)
    fr = fresnel_roots(model, BG, [1.0, 0.0, 0.0])
    p0 = np.array([-float(fr.roots[-1].real), 1.0, 0.0, 0.0])
    assert abs(H.value(np.zeros(4), p0)) < 1e-15
    ray = trace(H, np.zeros(4), p0, s_max=10.0)
    assert ray.drift < 1e-12
    assert np.max(np.abs(ray.states[-1, P] - p0)) == 0.0
    assert np.max(np.abs(ray.states[-1, X])) < 1e-12


def test_quartic_ray_on_simple_root_moves_and_conserves():
    model = builtin("perturbed-maxwell", [0.1])
    H = QuarticHamiltonian(model, BG)
    fr = fresnel_roots(model, BG, [1.0, 0.0, 0.0])
    p0 = np.array([-float(fr.roots[-1].real), 1.0, 0.0, 0.0])
    ray = trace(H, np.zeros(4), p0, s_max=10.0)
    assert ray.drift < 1e-12
    assert np.max(np.abs(ray.states[-1, P] - p0)) == 0.0
    assert abs(ray.states[-1, 2]) > 0.1


class _RK4Only:
    """Delegates to a Hamiltonian without its ``depends_on_x``
    declaration, so ``trace`` takes the RK4 step loop."""

    def __init__(self, H):
        self.H = H
        self.degree = H.degree

    def value(self, x, p):
        return self.H.value(x, p)

    def grad_p(self, x, p):
        return self.H.grad_p(x, p)

    def grad_x(self, x, p):
        return self.H.grad_x(x, p)


def _assert_same_ray(fast, loop):
    # every column (s, x, p and H), signs of zero included
    a, b = fast.states, loop.states
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert fast.drift == loop.drift == 0.0


def _seeded_quartic_rays(seed):
    rng = np.random.default_rng(seed)
    models = [builtin("born-infeld"),
              builtin("perturbed-maxwell", [float(rng.uniform(0.05, 0.2))]),
              builtin("sqrt-family", [float(rng.uniform(-1, 1)),
                                      float(rng.uniform(1.5, 3)),
                                      float(rng.uniform(0.3, 0.6))])]
    for model in models:
        for in_plane in (True, False):
            E = rng.uniform(-0.3, 0.3, size=3)
            B = rng.uniform(-0.3, 0.3, size=3)
            # an in-plane normal carries no Poynting flux
            nhat = (rng.uniform(-1, 1) * E + rng.uniform(-1, 1) * B
                    if in_plane else rng.uniform(-1, 1, size=3))
            n = nhat / np.linalg.norm(nhat)
            bg = FieldBackground.vector(E, B)
            roots = fresnel_roots(model, bg, n).roots
            yield (QuarticHamiltonian(model, bg),
                   np.array([float(np.min(roots.real)), *n]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_quartic_rays_equal_rk4_loop_bit_for_bit(seed):
    for H, p0 in _seeded_quartic_rays(seed):
        fast = trace(H, np.zeros(4), p0, s_max=3.0)
        loop = trace(_RK4Only(H), np.zeros(4), p0, s_max=3.0)
        assert len(fast.states) == 301
        _assert_same_ray(fast, loop)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_cone_rays_equal_rk4_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n = rng.uniform(-1, 1, size=3)
    n /= np.linalg.norm(n)
    cases = [(ConeHamiltonian.metric(), np.array([-1.0, *n]))]
    # scalar-bi cone: solve the quadratic in p0 along n
    bg = FieldBackground.scalar(*rng.uniform(-0.4, 0.4, size=4))
    H = scalar_model_cone(builtin("scalar-bi"), bg)
    G = H.G
    roots = np.roots([G[0, 0], 2.0 * (G[0, 1:] @ n), n @ G[1:, 1:] @ n])
    cases.append((H, np.array([float(np.min(roots.real)), *n])))
    x0 = rng.uniform(-1, 1, size=4)
    for H, p0 in cases:
        fast = trace(H, x0, p0, s_max=2.0, step=0.003)
        loop = trace(_RK4Only(H), x0, p0, s_max=2.0, step=0.003)
        _assert_same_ray(fast, loop)


@pytest.mark.parametrize("scale", [1e307, 1e308])
def test_closed_form_failure_matches_rk4_loop(scale):
    # 1e307: the slope is finite but x overflows near s = 9;
    # 1e308: the slope itself overflows
    H = ConeHamiltonian(ETA * scale)
    p0 = np.array([-1.0, 1.0, 0.0, 0.0])
    with pytest.raises(StepFailure) as fast:
        trace(H, np.zeros(4), p0, s_max=10.0)
    with pytest.raises(StepFailure) as loop:
        trace(_RK4Only(H), np.zeros(4), p0, s_max=10.0)
    assert str(fast.value) == str(loop.value)
    if scale == 1e307:
        assert str(fast.value) == "non-finite ray state at s=8.99"


class _SignedZeroCone:
    """H = p.eta p / 2 with an entry-wise gradient, which keeps the sign
    of a zero entry of p."""

    degree = 2
    depends_on_x = False

    def value(self, x, p):
        return 0.5 * float(-p[0] ** 2 + p[1] ** 2 + p[2] ** 2 + p[3] ** 2)

    def grad_p(self, x, p):
        return np.array([-p[0], p[1], p[2], p[3]])

    def grad_x(self, x, p):
        return np.zeros(4)


def test_negative_step_takes_the_step_loop():
    # A negative step adds +0.0 to p, so later RK4 stages see +0.0 where
    # the first saw -0.0; a closed form from the first slope would end
    # with x2 = +0.0 instead of -0.0.
    H = _SignedZeroCone()
    x0 = np.array([0.0, 0.0, -0.0, 0.0])
    p0 = np.array([-1.0, 1.0, -0.0, 0.0])
    back = trace(H, x0, p0, s_max=-1.0, step=-0.01)
    loop = trace(_RK4Only(H), x0, p0, s_max=-1.0, step=-0.01)
    _assert_same_ray(back, loop)
    assert np.allclose(back.states[-1, X], [-1.0, -1.0, 0.0, 0.0])
    assert np.signbit(back.states[-1, 3])


@pytest.mark.parametrize("s_max, step", [
    (np.inf, 0.01), (np.nan, 0.01), (1.0, 0.0), (1.0, np.nan),
    (1e300, 1e-300),
    # a step pointing away from s_max never reaches it
    (1.0, -0.01), (-1.0, 0.01),
])
def test_step_count_needs_finite_span_and_nonzero_step(s_max, step):
    with pytest.raises(BadParams):
        trace(ConeHamiltonian.metric(), np.zeros(4), [-1.0, 1.0, 0.0, 0.0],
              s_max=s_max, step=step)
    with pytest.raises(BadParams):
        transport_amplitude(TransportState(pi0=1.0), s_max=s_max, step=step)


def test_step_count_is_bounded():
    # the count itself, at and past the bound: nothing is stepped here
    assert _step_count(float(MAX_STEPS), 1.0) == MAX_STEPS
    assert _step_count(-float(MAX_STEPS), -1.0) == MAX_STEPS
    # ties round to even, so half a step past the bound is still in it
    assert _step_count(MAX_STEPS + 0.5, 1.0) == MAX_STEPS
    for s_max, step in ((MAX_STEPS + 1.0, 1.0), (1.0, 1e-300),
                        (-1e12, -1e-3)):
        with pytest.raises(BadParams, match=r"^s_max / step \(--s-max / "
                           r"--step\) asks for .* steps; at most "
                           f"{MAX_STEPS} are taken$"):
            _step_count(s_max, step)


def test_over_bound_step_counts_end_before_any_step():
    start = time.perf_counter()
    # 10^15 ray states would take about 71 PiB
    with pytest.raises(BadParams, match="asks for 1e\\+15 steps"):
        trace(ConeHamiltonian.metric(), np.zeros(4), [-1.0, 1.0, 0.0, 0.0],
              s_max=1e12, step=1e-3)
    with pytest.raises(BadParams, match="asks for 1e\\+15 steps"):
        transport_amplitude(TransportState(pi0=1.0), s_max=1e12, step=1e-3)
    assert time.perf_counter() - start < 1.0


def test_off_shell_start_is_rejected():
    H = ConeHamiltonian.metric()
    with pytest.raises(OffShellStart):
        trace(H, np.zeros(4), [-2.0, 1.0, 0.0, 0.0], s_max=1.0)


def test_loose_tolerance_admits_near_shell_start():
    H = ConeHamiltonian.metric()
    ray = trace(H, np.zeros(4), [-1.0 + 1e-5, 1.0, 0.0, 0.0],
                s_max=1.0, tol=1e-3)
    assert ray.drift < 1e-12


def test_non_finite_hamiltonian_raises_step_failure():
    def fn(x, p):
        if x[1] > 1.0:
            return float("nan")
        return p[0] + p[1] * np.sqrt(1.0 - x[1])

    H = CallableHamiltonian(fn)
    with pytest.raises(StepFailure):
        trace(H, np.zeros(4), [-1.0, 1.0, 0.0, 0.0], s_max=5.0)


def test_x_dependent_drift_small_at_default_step():
    x0, p0 = _wave_start()
    ray = trace(_WaveH(), x0, p0, s_max=2.0, step=1e-3)
    assert ray.drift < 1e-8


def test_callable_wrapper_reproduces_analytic_path():
    x0, p0 = _wave_start()
    fd = CallableHamiltonian(
        lambda x, p: p[0] + (0.5 + 0.3 * np.sin(x[1])) * p[1])
    ray_fd = trace(fd, x0, p0, s_max=2.0, step=1e-3)
    ray_an = trace(_WaveH(), x0, p0, s_max=2.0, step=1e-3)
    assert ray_fd.drift < 1e-8
    assert np.max(np.abs(ray_fd.states[-1, X] - ray_an.states[-1, X])) < 1e-8


def test_integrator_order_at_least_fourth_on_x_dependent_system():
    x0, p0 = _wave_start()
    drifts = [trace(_WaveH(), x0, p0, s_max=8.0, step=h).drift
              for h in (0.2, 0.1, 0.05)]
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) > 3.8


def test_euler_identity_defect_is_tiny_for_analytic_classes():
    model = builtin("born-infeld")
    H = QuarticHamiltonian(model, BG)
    fr = fresnel_roots(model, BG, [1.0, 0.0, 0.0])
    p_on = np.array([-float(fr.roots[-1].real), 1.0, 0.0, 0.0])
    assert euler_defect(H, None, p_on) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = rng.uniform(-1.0, 1.0, size=4)
        assert euler_defect(H, None, p) < 1e-12
    assert euler_defect(ConeHamiltonian.metric(), None, [1.0, 1.0, 0.0, 0.0]) == 0.0


def test_euler_defect_requires_declared_degree():
    with pytest.raises(BadUsage):
        euler_defect(_WaveH(), None, [1.0, 0.0, 0.0, 0.0])


def test_path_table_has_one_row_per_state():
    ray = trace(ConeHamiltonian.metric(), np.zeros(4),
                [-1.0, 1.0, 0.0, 0.0], s_max=0.5)
    assert ray.states.shape == (51, 10)
    assert ray.states.dtype == np.float64


@pytest.mark.parametrize("s_max, step, n_steps", [
    (0.5, 0.01, 50), (0.3, 0.07, 4), (-1.0, -0.01, 100), (1e-4, 0.01, 1),
])
def test_states_hold_one_row_per_step_and_the_start(s_max, step, n_steps):
    # the CLI's "N states" message and the traced benchmark's step count
    # both read len(states) - 1 as the number of steps
    H = ConeHamiltonian.metric()
    p0 = [-1.0, 1.0, 0.0, 0.0]
    for ray in (trace(H, np.zeros(4), p0, s_max=s_max, step=step),
                trace(_RK4Only(H), np.zeros(4), p0, s_max=s_max, step=step)):
        assert len(ray.states) == n_steps + 1


def test_transport_constant_amplitude_without_coefficients():
    res = transport_amplitude(TransportState(pi0=3.0), s_max=4.0)
    assert not res.blown_up
    assert res.s_star is None
    assert np.all(res.pi == 3.0)


def test_transport_pure_decay_matches_exponential():
    res = transport_amplitude(TransportState(pi0=1.0, m=0.7, c=0.0),
                              s_max=5.0)
    assert not res.blown_up
    assert abs(res.pi[-1] - np.exp(-3.5)) < 1e-8


def test_transport_linear_damping_stays_bounded_to_long_times():
    for mag in (0.01, 0.1, 1.0, 10.0, 100.0):
        for sign in (1.0, -1.0):
            res = transport_amplitude(
                TransportState(pi0=sign * mag, m=0.7, c=0.0), s_max=100.0)
            assert not res.blown_up
            assert abs(res.pi[-1]) <= mag


def test_transport_riccati_blowup_time_is_recovered():
    # dpi/ds = -pi^2 from pi0 = -2 has the closed form pi0/(1 + pi0 s)
    # with a pole at s = 1/2; the bisection refinement lands on it.
    res = transport_amplitude(TransportState(pi0=-2.0, m=0.0, c=1.0),
                              s_max=2.0)
    assert res.blown_up
    assert abs(res.s_star - 0.5) < 5e-3


def test_transport_damped_blowup_detected_past_analytic_pole():
    # With damping the pole sits at -ln((m + c pi0)/(c pi0))/m; detection
    # is by threshold crossing so it trails the pole slightly.
    res = transport_amplitude(TransportState(pi0=-5.0, m=1.0, c=1.0),
                              s_max=2.0)
    pole = -np.log(0.8)
    assert res.blown_up
    assert res.s_star >= pole - 1e-12
    assert res.s_star - pole < 0.05


def test_crossing_time_none_for_spreading_and_constant_profiles():
    phis = np.linspace(0.0, 1.0, 50)
    assert crossing_time(phis, phis) is None
    assert crossing_time(np.ones(50), phis) is None


def test_crossing_time_for_sinusoidal_speed_grid():
    phis = np.linspace(0.0, 2.0 * np.pi, 400)
    t_grid = crossing_time(np.sin(phis), phis)
    assert abs(t_grid - 1.0) < 0.02


def test_crossing_time_respects_horizon_cap():
    phis = np.linspace(0.0, 2.0 * np.pi, 400)
    assert crossing_time(np.sin(phis), phis, t_max=0.5) is None


def test_crossing_time_with_decreasing_parameters():
    # the first fan spreads apart; the second meets at t = 1, as it does
    # with its samples listed in increasing order
    assert crossing_time([1.0, 0.0, -1.0], [2.0, 1.0, 0.0]) is None
    assert crossing_time([-1.0, 0.0, 1.0], [2.0, 1.0, 0.0]) == 1.0
    assert crossing_time([1.0, 0.0, -1.0], [0.0, 1.0, 2.0]) == 1.0


def test_crossing_time_ignores_speeds_that_differ_by_rounding():
    # a speed constant but for one sample an ulp low would meet its
    # neighbour at t = dphi / ulp, about 2e13: a pair converges only
    # when |dlam| exceeds 8 eps max|lam|, here 1.2e-15
    phis = np.linspace(0.1, 0.6, 201)
    lam = np.full(201, 0.7)
    lam[100] = np.nextafter(0.7, 0.0)
    assert crossing_time(lam, phis, t_max=1e308) is None
    lam[100] = 0.7 - 2e-15
    t = crossing_time(lam, phis, t_max=1e308)
    assert t == (phis[100] - phis[99]) / (0.7 - lam[100])


def test_crossing_time_needs_enough_samples():
    with pytest.raises(GridTooCoarse):
        crossing_time([1.0, 0.5], [0.0, 1.0])
    with pytest.raises(GridTooCoarse):
        crossing_time([1.0, 0.5, 0.2], [0.0, 1.0])


def test_ray_csv_roundtrip(tmp_path):
    ray = trace(ConeHamiltonian.metric(), np.zeros(4),
                [-1.0, 1.0, 0.0, 0.0], s_max=0.1)
    out = tmp_path / "ray.csv"
    write_ray_csv(out, ray)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3", "H"]
    assert len(rows) == 12
    assert float(rows[-1][1]) == pytest.approx(0.2)


def test_ray_csv_keeps_the_sign_of_zero(tmp_path):
    # x1 starts at -0.0 and p1 stays -0.0: the constant slope adds -0.0
    # to it at every step
    ray = trace(ConeHamiltonian.metric(), [0.0, -0.0, 0.0, 0.0],
                [-1.0, -0.0, 0.0, 1.0], s_max=0.05)
    out = tmp_path / "ray.csv"
    write_ray_csv(out, ray)
    want = repr_csv(["s", "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
                     "H"], ray.states.tolist())
    assert out.read_bytes() == want
    rows = out.read_text().splitlines()
    assert rows[1].split(",")[2] == "-0.0"
    assert {row.split(",")[6] for row in rows[1:]} == {"-0.0"}


_ODD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300,
               1e300, -1e300, math.inf, -math.inf, math.nan]
_NEAR_THRESHOLD = [BLOWUP_THRESHOLD, -BLOWUP_THRESHOLD,
                   math.nextafter(BLOWUP_THRESHOLD, math.inf),
                   math.nextafter(-BLOWUP_THRESHOLD, -math.inf),
                   math.nextafter(BLOWUP_THRESHOLD, 0.0), 1e11, -1e11]
_STEPS = [0.01, -0.01, 1e-3, -1e-3, 0.25, -0.25, 0.0, -0.0, 5e-324, 1e-300,
          -1e-300, math.inf, math.nan]


def _few_steps(s_max: float, step: float) -> bool:
    """Whether the step count is small, or the call is rejected anyway."""
    try:
        ratio = s_max / step
    except ZeroDivisionError:
        return True
    return not math.isfinite(ratio) or abs(ratio) <= 4000.0


def _same_bits_but_nan(a, b) -> bool:
    """Same dtype, shape and bits, signs of zero included, where any nan
    equals any nan: IEEE 754 leaves the sign of a nan result open, and
    CPython's specialized float operations return another nan operand
    than its generic ones."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _same_s_star(a, b) -> bool:
    """Both None, or floats of one type with the same bits, where any
    nan equals any nan."""
    if a is None or b is None:
        return a is b
    return type(a) is type(b) and _same_bits_but_nan(a, b)


@settings(max_examples=400, deadline=None)
@given(pi0=st.one_of(st.sampled_from(_ODD_FLOATS + _NEAR_THRESHOLD),
                     st.floats(-10.0, 10.0)),
       m=st.one_of(st.sampled_from(_ODD_FLOATS), st.floats(-3.0, 3.0)),
       c=st.one_of(st.sampled_from(_ODD_FLOATS), st.floats(-3.0, 3.0)),
       s_max=st.one_of(st.sampled_from(_ODD_FLOATS), st.floats(-30.0, 30.0)),
       step=st.one_of(st.sampled_from(_STEPS), st.floats(-1.0, 1.0)))
# pole at s = 1/2 on either side of zero, refined by bisection
@example(pi0=-2.0, m=0.0, c=1.0, s_max=2.0, step=0.01)
@example(pi0=2.0, m=0.0, c=1.0, s_max=-2.0, step=-0.01)
# the first RK4 stage overflows and the step ends in nan
@example(pi0=-1e200, m=0.0, c=1.0, s_max=1.0, step=0.01)
# grows past the threshold after about 2.3 / 0.01 steps
@example(pi0=1e11, m=-1.0, c=0.0, s_max=5.0, step=0.01)
@example(pi0=BLOWUP_THRESHOLD, m=0.0, c=0.0, s_max=1.0, step=0.01)
@example(pi0=math.nextafter(BLOWUP_THRESHOLD, math.inf), m=0.0, c=0.0,
         s_max=1.0, step=0.01)
# nan + -nan: the sign of the nan depends on which float operations the
# interpreter has specialized by then
@example(pi0=math.nan, m=math.nan, c=-2.225073858507203e-309, s_max=0.0,
         step=1e-300)
def test_transport_matches_the_rk4_step_loop_bit_for_bit(pi0, m, c, s_max,
                                                          step):
    assume(_few_steps(s_max, step))
    ts = TransportState(pi0=pi0, m=m, c=c)
    try:
        want = transport_oracle(ts, s_max, step)
    except BadParams as exc:
        with pytest.raises(BadParams) as got:
            transport_amplitude(ts, s_max=s_max, step=step)
        assert str(got.value) == str(exc)
        return
    got = transport_amplitude(ts, s_max=s_max, step=step)
    assert _same_bits_but_nan(got.s, want.s)
    assert _same_bits_but_nan(got.pi, want.pi)
    assert got.blown_up is want.blown_up
    assert _same_s_star(got.s_star, want.s_star)


def test_transport_csv_roundtrip(tmp_path):
    res = transport_amplitude(TransportState(pi0=1.0, m=0.7, c=0.0),
                              s_max=1.0)
    out = tmp_path / "pi.csv"
    write_transport_csv(out, res)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "pi", "blown_up"]
    assert rows[1][2] == "false"
    assert len(rows) == len(res.s) + 1


@pytest.mark.parametrize("ts, s_max, blown_up, last_finite", [
    (TransportState(pi0=1.0, m=0.7, c=0.0), 1.0, False, True),
    (TransportState(pi0=-0.0, m=0.7, c=0.0), 1.0, False, True),
    # passes the blow-up threshold at a finite value
    (TransportState(pi0=-2.0, m=0.0, c=1.0), 1.0, True, True),
    # the first RK4 stage overflows and the step ends in nan
    (TransportState(pi0=-1e200, m=0.0, c=1.0), 1.0, True, False),
    # 2501 rows, past two row-block edges
    (TransportState(pi0=1.0, m=0.1, c=0.0), 25.0, False, True),
], ids=["decay", "signed-zero", "blowup", "overflow", "three-blocks"])
def test_transport_csv_bytes_match_the_csv_writer(ts, s_max, blown_up,
                                                  last_finite, tmp_path):
    res = transport_amplitude(ts, s_max=s_max)
    assert res.blown_up is blown_up
    assert np.isfinite(res.pi[-1]) == last_finite
    out = tmp_path / "pi.csv"
    write_transport_csv(out, res)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["s", "pi", "blown_up"])
    writer.writerows([repr(float(s)), repr(float(pi)),
                      str(res.blown_up).lower()]
                     for s, pi in zip(res.s, res.pi))
    assert out.read_bytes() == buf.getvalue().encode()
