from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cewave import shock1d
from cewave.charsys import FieldBackground, scalar_axis_block, scalar_system
from cewave.cli import main
from cewave.errors import (
    BadParams,
    CewaveError,
    CFLViolation,
    DegenerateSystem,
    DomainError,
    GridTooCoarse,
    KindError,
    ModeCollision,
)
from cewave.jets import Jet2, Jet3
from cewave.lagrangians import Kind, builtin, from_expression
from cewave.rays import crossing_time
from cewave.shock1d import (
    MoCSolution,
    Profile1D,
    ReducedSystem,
    Snapshot,
    _reduced_from_matrix,
    _track_mode,
    model_wave,
    moc_solve,
    moc_upwind_l1,
    scalar_reduced_factory,
    shock_time,
    simple_wave_construct,
    upwind_solve,
    write_characteristics_csv,
)
from oracles import (
    burgers_factory,
    reduced_from_matrix,
    repr_csv,
    scalar_reduced_oracle,
    simple_wave_oracle,
    track_mode,
    upwind_oracle,
    wave_alignment_sines,
    write_snapshot_csv,
)


def _identity(u):
    return u


def _burgers_flux(u):
    return 0.5 * u * u


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _same_eigen_data(got: ReducedSystem, want) -> bool:
    """Float-tuple eigen-data against an oracle's numpy arrays."""
    return (_same_bits(np.array(got.eigenvalues), want.eigenvalues)
            and _same_bits(np.array(got.right).T, want.right))


def _sin_profile(n=401):
    return Profile1D.from_callable(np.sin, 0.0, 2.0 * np.pi, n=n,
                                   periodic=True)


def test_profile_validation():
    with pytest.raises(BadParams):
        Profile1D(x=[0.0, 1.0], u=[0.0, 1e-6], periodic=True)
    with pytest.raises(BadParams):
        Profile1D(x=[0.0, 1.0, 0.5], u=[1.0, 2.0, 3.0])
    with pytest.raises(BadParams):
        Profile1D(x=[0.0, 1.0], u=[np.nan, 1.0])
    with pytest.raises(BadParams):
        Profile1D(x=[0.0], u=[1.0])


def test_profile_of_a_callable_that_returns_one_value():
    # a scalar result has the wrong shape, so fn is called per sample
    prof = Profile1D.from_callable(lambda x: 0.25, 0.0, 1.0, n=5)
    assert prof.u.tolist() == [0.25] * 5


def test_moc_push_keeps_values_and_flags_folding():
    prof = _sin_profile()
    early = moc_solve(_identity, prof, 0.5)
    late = moc_solve(_identity, prof, 1.5)
    assert not early.multivalued
    assert late.multivalued
    assert np.array_equal(early.u, prof.u)
    assert np.allclose(early.x, prof.x + np.sin(prof.x) * 0.5)


def test_moc_constant_speed_is_pure_translation():
    prof = _sin_profile()
    for t in (0.5, 5.0, 50.0):
        sol = moc_solve(lambda u: 2.0, prof, t)
        assert not sol.multivalued
        assert np.allclose(sol.x, prof.x + 2.0 * t)


def test_moc_rejects_negative_time():
    with pytest.raises(BadParams):
        moc_solve(_identity, _sin_profile(), -0.1)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_moc_rejects_non_finite_time(t):
    with pytest.raises(BadParams, match="characteristic push needs a finite t"):
        moc_solve(_identity, _sin_profile(), t)


def test_shock_time_examples():
    assert abs(shock_time(_identity, _sin_profile()) - 1.0) < 0.02
    rising = Profile1D.from_callable(lambda x: x, -2.0, 2.0, n=201)
    assert shock_time(_identity, rising) is None
    step = Profile1D.from_callable(lambda x: -np.tanh(x), -5.0, 5.0, n=401)
    assert abs(shock_time(_identity, step) - 1.0) < 0.02


def test_shock_time_needs_enough_samples():
    with pytest.raises(GridTooCoarse):
        shock_time(_identity, Profile1D(x=[0.0, 1.0], u=[1.0, 0.0]))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0))
def test_shock_time_scales_inversely_with_amplitude(scale):
    prof = _sin_profile()
    scaled = Profile1D(x=prof.x, u=scale * prof.u, periodic=True)
    t_base = shock_time(_identity, prof)
    t_scaled = shock_time(_identity, scaled)
    assert t_scaled == pytest.approx(t_base / scale, rel=1e-12)


def test_shock_time_agrees_with_crossing_time_on_random_profiles():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0, size=3)
        b = rng.uniform(0.0, 2.0 * np.pi, size=3)

        def fn(x):
            return (a[0] * np.sin(x + b[0]) + a[1] * np.sin(2 * x + b[1])
                    + a[2] * np.sin(3 * x + b[2]))

        prof = Profile1D.from_callable(fn, 0.0, 2.0 * np.pi, n=400)
        t_s = shock_time(_identity, prof)
        t_c = crossing_time(prof.u, prof.x)
        if t_s is None or t_c is None:
            assert t_s is None and t_c is None
            continue
        assert abs(t_s - t_c) / t_c < 0.02
        checked += 1
    assert checked >= 15


def test_upwind_matches_characteristics_at_first_order():
    prof = _sin_profile()
    exact = moc_solve(_identity, prof, 0.5)
    err_800 = moc_upwind_l1(exact, upwind_solve(_burgers_flux, prof, 0.5, nx=800))
    err_1600 = moc_upwind_l1(exact, upwind_solve(_burgers_flux, prof, 0.5, nx=1600))
    assert err_800 < 2e-2
    assert 1.5 < err_800 / err_1600 < 2.6


def test_upwind_initial_data_and_constant_state_are_exact():
    prof = _sin_profile()
    snap = upwind_solve(_burgers_flux, prof, 0.0, nx=128)
    assert np.max(np.abs(snap.u - np.sin(snap.x))) == 0.0
    const = Profile1D(x=[0.0, 1.0, 2.0, 3.0], u=np.full(4, 0.7),
                      periodic=True)
    snap_c = upwind_solve(_burgers_flux, const, 2.0, nx=64)
    assert np.max(np.abs(snap_c.u - 0.7)) == 0.0


def test_flux_of_one_float_falls_back_to_per_cell_calls_with_same_bits():
    # math.sqrt takes one float; np.sqrt is correctly rounded as well,
    # so both fluxes and both profiles give the same bits
    def u0_math(x):
        return math.sqrt(1.0 + x * x) - 1.2

    def u0_numpy(x):
        return np.sqrt(1.0 + x * x) - 1.2

    profiles = [Profile1D.from_callable(fn, -1.0, 1.0, n=101)
                for fn in (u0_math, u0_numpy)]
    assert _same_bits(profiles[0].u, profiles[1].u)
    snaps = [upwind_solve(flux, prof, 0.5, nx=64) for flux, prof in zip(
        (lambda u: math.sqrt(1.0 + u * u), lambda u: np.sqrt(1.0 + u * u)),
        profiles)]
    assert _same_bits(snaps[0].u, snaps[1].u)
    assert not _same_bits(snaps[1].u, u0_numpy(snaps[1].x))


def test_upwind_rejects_unstable_cfl():
    with pytest.raises(CFLViolation):
        upwind_solve(_burgers_flux, _sin_profile(), 0.1, nx=64, cfl=0.95)


def test_upwind_constant_flux_keeps_the_initial_cells():
    # every wave speed is zero, so the solve stops before its first step
    prof = _sin_profile()
    snap = upwind_solve(lambda u: 0.0 * u + 2.0, prof, 0.5, nx=64)
    assert _same_bits(snap.u, np.sin(snap.x))


@pytest.mark.parametrize("t, nx, cfl, message", [
    (0.1, 64, 0.0, "cfl must be positive"),
    (0.1, 64, -0.2, "cfl must be positive"),
    (-0.1, 64, 0.45, "upwind solve needs t >= 0"),
    (0.1, 3, 0.45, "upwind solve needs nx >= 4"),
    (0.1, 64, math.nan, "cfl must be positive"),
    (math.inf, 64, 0.45, "upwind solve needs a finite t"),
    (math.nan, 64, 0.45, "upwind solve needs a finite t"),
])
def test_upwind_rejects_bad_params(t, nx, cfl, message):
    with pytest.raises(BadParams) as err:
        upwind_solve(_burgers_flux, _sin_profile(), t, nx, cfl=cfl)
    assert str(err.value) == message


def _nan_outside_burgers(u):
    # no warning is raised: the nan is chosen, not computed
    return np.where(np.abs(u) <= 1.0, 0.5 * u * u, np.nan)


_UPWIND_FLUXES = {
    "burgers": _burgers_flux,
    # a flux of one float, called per cell through np.vectorize
    "math-sqrt": lambda u: math.sqrt(1.0 + u * u),
    # nan outside |u| <= 1: the CFL bound is nan as soon as one of its
    # three speeds is, wherever that speed stands among them
    "nan-outside": _nan_outside_burgers,
}

_LEVELS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0]),
                    st.floats(-1.4, 1.4))


@st.composite
def _upwind_profiles(draw) -> Profile1D:
    """Periodic sines, piecewise-constant profiles given by a callable
    and sampled profiles read by interpolation; the last two carry exact
    +0.0 and -0.0 cells."""
    shape = draw(st.sampled_from(["sin", "levels", "samples"]))
    periodic = draw(st.booleans())
    if shape == "sin":
        amp = draw(st.floats(0.1, 1.4))
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        return Profile1D.from_callable(lambda x: amp * np.sin(x + phase),
                                       0.0, 2.0 * math.pi, n=401,
                                       periodic=True)
    levels = draw(st.lists(_LEVELS, min_size=1, max_size=6))
    if periodic:
        levels.append(levels[0])
    if shape == "levels":
        values = np.array(levels)

        def fn(x):
            k = np.minimum((x + 2.0) * (len(values) / 4.0), len(values) - 1)
            return values[k.astype(int)]

        return Profile1D.from_callable(fn, -2.0, 2.0, n=201,
                                       periodic=periodic)
    x = np.linspace(-2.0, 2.0, max(len(levels), 2))
    return Profile1D(x=x, u=np.resize(levels, len(x)), periodic=periodic)


@settings(max_examples=80, deadline=None)
@given(flux=st.sampled_from(sorted(_UPWIND_FLUXES)),
       profile=_upwind_profiles(), nx=st.integers(4, 400),
       t=st.floats(0.0, 2.5), cfl=st.floats(0.2, 1.0))
def test_upwind_matches_the_loop_that_rebuilds_each_step_bit_for_bit(
        flux, profile, nx, t, cfl):
    args = (_UPWIND_FLUXES[flux], profile, t, nx, cfl)
    try:
        want = upwind_oracle(*args)
    except CewaveError as exc:
        with pytest.raises(type(exc)) as got:
            upwind_solve(*args)
        assert str(got.value) == str(exc)
        return
    got = upwind_solve(*args)
    assert got.t == want.t
    assert _same_bits(got.x, want.x) and _same_bits(got.u, want.u)


@pytest.mark.parametrize("nx", [100.5, np.float64(1e300), 64.0, "64", None])
def test_upwind_rejects_a_cell_count_that_is_not_an_integer(nx):
    # 100.5 used to give 101 cells of width L/100.5, the last one centred
    # on x_hi, and 1e300 to fail inside numpy
    with pytest.raises(BadParams) as err:
        upwind_solve(_burgers_flux, _sin_profile(), 0.1, nx)
    assert str(err.value) == ("upwind solve needs a whole number of cells, "
                              f"got nx={nx!r}")


def test_upwind_takes_numpy_integer_cell_counts():
    want = upwind_solve(_burgers_flux, _sin_profile(), 0.3, 64)
    got = upwind_solve(_burgers_flux, _sin_profile(), 0.3, np.int64(64))
    assert _same_bits(got.x, want.x) and _same_bits(got.u, want.u)


def test_l1_comparison_refuses_folded_push():
    prof = _sin_profile()
    folded = moc_solve(_identity, prof, 1.5)
    snap = upwind_solve(_burgers_flux, prof, 1.5, nx=64)
    with pytest.raises(BadParams):
        moc_upwind_l1(folded, snap)


def test_simple_wave_speed_constant_for_exceptional_scalar_model():
    factory = scalar_reduced_factory(builtin("scalar-bi"))
    wave = simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1])
    assert wave.lam_variation() < 1e-8
    assert np.max(np.abs(wave.states[:, wave.component] - wave.phis)) < 1e-10
    assert np.max(wave_alignment_sines(wave, factory)) < 1e-8


def test_scalar_reduction_equals_full_system_block_bit_for_bit():
    rng = np.random.default_rng(23)
    k, m, d = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(1, 2)
    c = rng.uniform(1.0, 2.5)
    models = [builtin("scalar-bi"), builtin("scalar-maxwell"),
              from_expression(f"{k!r} - {m!r}*sqrt({d!r} + {c!r}*z)",
                              "scalar")]
    states = [(rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.6))
              for _ in range(30)]
    states += [(0.0, 0.3), (-0.0, 0.3), (0.3, 0.0), (0.3, -0.0)]
    for model in models:
        factory = scalar_reduced_factory(model)
        for A, B in states:
            bg = FieldBackground.scalar(A, B, 0.0, 0.0)
            full = reduced_from_matrix(scalar_system(bg, model).matrix[:2, :2])
            assert _same_bits(scalar_axis_block(model, A, B), full.matrix)
            assert _same_eigen_data(factory(np.array([A, B])), full)


# The model and state of a shock job where z = (B^2 - A^2)/2 computed
# with A*A instead of A**2 is one ulp off and changes a speed.
_POW_TRAP = ("-0.727 - 1.247*sqrt(1.153 + 1.608*z)", 0.489757429652944,
             0.29250000000000015)

_SCALAR_MODELS = st.one_of(
    st.sampled_from(["scalar-bi", "scalar-maxwell"]).map(builtin),
    st.sampled_from(["z^2", "-z", "z + 0.3*z^2", "(1 + 2*z)^1.5"]).map(
        lambda text: from_expression(text, "scalar")),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
              st.floats(1.0, 2.0), st.floats(-2.5, 2.5)).map(
        lambda kmdc: from_expression(
            "{!r} - {!r}*sqrt({!r} + {!r}*z)".format(*kmdc), "scalar")),
)


@settings(max_examples=300, deadline=None)
@given(model=_SCALAR_MODELS, A=st.floats(-0.8, 0.8), B=st.floats(-0.8, 0.8))
@example(model=from_expression(_POW_TRAP[0], "scalar"), A=_POW_TRAP[1],
         B=_POW_TRAP[2])
@example(model=builtin("scalar-bi"), A=-0.0, B=0.0)
def test_scalar_reduction_matches_the_full_system_path_bit_for_bit(model, A,
                                                                   B):
    factory = scalar_reduced_factory(model)
    try:
        want = scalar_reduced_oracle(model, A, B)
    except CewaveError as exc:
        with pytest.raises(type(exc)):
            factory(np.array([A, B]))
        return
    assert _same_bits(scalar_axis_block(model, A, B), want.matrix)
    assert _same_eigen_data(factory(np.array([A, B])), want)


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       ref=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
# a nearly real conjugate pair -0.0 + 3.1e-98j, 0.0 - 3.1e-98j: the tie
# of the real parts is broken by the imaginary part, giving (0.0, -0.0)
@example(entries=[-0.0, 1.0, -9.89950385042583e-196, 0.0], ref=[1.0, 0.0])
def test_mode_tracking_on_floats_matches_numpy(entries, ref):
    M = np.array(entries).reshape(2, 2)
    try:
        want = reduced_from_matrix(M)
    except ModeCollision:
        with pytest.raises(ModeCollision):
            _reduced_from_matrix(M)
        return
    got = _reduced_from_matrix(M)
    assert _same_eigen_data(got, want)
    try:
        j_want, r_want = track_mode(want, np.array(ref))
    except ModeCollision:
        with pytest.raises(ModeCollision):
            _track_mode(got, ref)
        return
    j_got, r_got = _track_mode(got, ref)
    assert j_got == j_want
    assert _same_bits(np.array(r_got), r_want)


@settings(max_examples=100, deadline=None)
@given(model=_SCALAR_MODELS, A=st.floats(-0.8, 0.8), B=st.floats(-0.8, 0.8),
       mode=st.sampled_from([0, 1]), component=st.sampled_from([0, 1]),
       width=st.floats(1e-3, 1.0), n=st.integers(3, 25))
@example(model=from_expression(_POW_TRAP[0], "scalar"), A=_POW_TRAP[1],
         B=_POW_TRAP[2], mode=0, component=1, width=0.5, n=201)
@example(model=builtin("scalar-bi"), A=0.3, B=0.1, mode=1, component=0,
         width=0.5, n=41)
def test_simple_wave_matches_the_numpy_array_loop_bit_for_bit(
        model, A, B, mode, component, width, n):
    U0 = [A, B]
    phi_range = (U0[component], U0[component] + width)
    args = (mode, phi_range, U0, n, component)
    try:
        want = simple_wave_oracle(model, *args)
    except (CewaveError, ArithmeticError, RuntimeWarning) as exc:
        with pytest.raises(type(exc)):
            simple_wave_construct(scalar_reduced_factory(model), *args)
        return
    got = simple_wave_construct(scalar_reduced_factory(model), *args)
    for name, value in zip(("states", "lams", "xi"), want):
        assert _same_bits(getattr(got, name), value), name


def test_simple_waves_take_at_most_two_modes():
    with pytest.raises(BadParams):
        _reduced_from_matrix(np.eye(3))

    def factory(U):
        return ReducedSystem(eigenvalues=(0.0, 0.0, 0.0),
                             right=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                    (0.0, 0.0, 1.0)))

    with pytest.raises(BadParams):
        simple_wave_construct(factory, 0, (0.1, 0.6), [0.1, 0.0, 0.0])


def test_scalar_reduction_keeps_its_checks():
    # the kind is checked once, when the factory is made
    with pytest.raises(KindError):
        scalar_reduced_factory(builtin("born-infeld"))
    with pytest.raises(DomainError):
        scalar_reduced_factory(builtin("scalar-bi"))([np.inf, 0.1])
    with pytest.raises(DegenerateSystem):
        scalar_reduced_factory(from_expression("z^2", "scalar"))([0.0, 0.0])


def test_simple_wave_speed_varies_for_non_exceptional_model():
    model = from_expression("z^2", Kind.Scalar, name="quadratic")
    factory = scalar_reduced_factory(model)
    wave = simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1])
    assert wave.lam_variation() > 1e-2
    assert np.max(wave_alignment_sines(wave, factory)) < 1e-8


def test_simple_wave_stops_where_the_eigenvector_loses_its_component():
    def factory(U):
        return ReducedSystem(eigenvalues=(0.0, 1.0),
                             right=((1.0, 1e-13), (-1e-13, 1.0)))

    with pytest.raises(BadParams, match="normalizing component"):
        simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1],
                              component=1)


def test_simple_wave_rejects_a_zero_normalizing_component_at_the_start():
    def factory(U):
        return ReducedSystem((0.0, 1.0), ((1.0, 0.0), (0.0, 1.0)))

    with pytest.raises(BadParams, match="normalizing component"):
        simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1],
                              component=1)


def test_simple_wave_rejects_a_zero_normalizing_component_at_the_end():
    # a 3-node wave builds 9 systems: one per node and three RK4 stages
    # per step, so only the last node's system has the tracked
    # eigenvector (1, 0), whose normalizing component is exactly 0
    calls = []

    def factory(U):
        calls.append(U)
        if len(calls) == 9:
            return ReducedSystem((0.0, 1.0), ((1.0, 0.0), (0.0, 1.0)))
        return ReducedSystem((0.0, 1.0), ((0.8, 0.6), (-0.6, 0.8)))

    with pytest.raises(BadParams, match="normalizing component"):
        simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1], n=3,
                              component=1)
    assert len(calls) == 9


def _eig_test_matrices(rng: np.random.Generator, count: int) -> np.ndarray:
    """count 2x2 matrices in five equal families: random entries, the
    rows (m00, m01), (-1, 0) of the scalar reduction, repeated
    eigenvalues, complex pairs, and random entries of which about half
    are +0.0 or -0.0."""
    k = count // 5
    random = rng.uniform(-2.0, 2.0, (k, 2, 2))
    reduction = np.zeros((k, 2, 2))
    reduction[:, 0] = rng.uniform(-2.0, 2.0, (k, 2))
    reduction[:, 1, 0] = -1.0
    # (a - d)^2 + 4 b c = 0: a double eigenvalue (a + d) / 2
    a, b, d = rng.uniform(-2.0, 2.0, (3, k))
    b[b == 0.0] = 1.0
    repeated = np.stack([a, b, -(a - d) ** 2 / (4.0 * b), d],
                        axis=-1).reshape(k, 2, 2)
    repeated[: k // 4] = np.eye(2) * a[: k // 4, None, None]
    repeated[k // 4: k // 2, 1, 0] = 0.0
    repeated[k // 4: k // 2, 1, 1] = repeated[k // 4: k // 2, 0, 0]
    # [[a, -b], [b, a]] and its conjugates by random matrices
    s, t = rng.uniform(-2.0, 2.0, (2, k))
    pairs = np.stack([s, -np.abs(t) - 0.01, np.abs(t) + 0.01, s],
                     axis=-1).reshape(k, 2, 2)
    P = rng.uniform(-2.0, 2.0, (k, 2, 2)) + 3.0 * np.eye(2)
    pairs[k // 2:] = (P @ pairs @ np.linalg.inv(P))[k // 2:]
    zeros = rng.uniform(-2.0, 2.0, (k, 2, 2))
    signs = rng.integers(0, 3, (k, 2, 2))
    zeros[signs == 1] = 0.0
    zeros[signs == 2] = -0.0
    return np.concatenate([random, reduction, repeated, pairs, zeros])


def test_eig_helper_matches_numpy_eig_bit_for_bit():
    mats = _eig_test_matrices(np.random.default_rng(1616), 100_000)
    assert len(mats) == 100_000
    w, V = shock1d._eig(mats)
    # one stack, so numpy returns complex data for every matrix
    w_np, V_np = np.linalg.eig(mats)
    assert _same_bits(w, w_np) and _same_bits(V, V_np)
    assert (w.imag != 0.0).sum() > 20_000  # the complex pairs, at least
    # one matrix at a time, as the reduction calls it: numpy drops the
    # imaginary parts when they are all zero
    for i in np.random.default_rng(7).choice(len(mats), 2000,
                                             replace=False):
        wi, Vi = shock1d._eig(mats[i])
        assert _same_bits(wi, w[i]) and _same_bits(Vi, V[i])
        wi_np, Vi_np = np.linalg.eig(mats[i])
        assert _same_bits(wi.real, wi_np.real)
        assert _same_bits(Vi.real, Vi_np.real)
        assert np.array_equal(wi.imag, np.imag(wi_np))
        assert np.array_equal(Vi.imag, np.imag(Vi_np))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_helper_rejects_non_finite_matrices_as_numpy_does(bad):
    M = np.array([[0.3, bad], [-1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.eig(M)
    with pytest.raises(np.linalg.LinAlgError) as got:
        shock1d._eig(M)
    assert str(got.value) == str(want.value)


class _InvalidEig:
    """Stand-in for the LAPACK module whose eig raises numpy's invalid
    flag, as LAPACK's non-convergence does."""

    @staticmethod
    def eig(M, signature):
        return np.subtract(np.inf, np.inf), None


class _OverflowingEig:
    @staticmethod
    def eig(M, signature):
        return np.multiply(1e300, 1e300), None


def test_eig_helper_keeps_numpys_error_state(monkeypatch):
    M = np.array([[0.3, 0.2], [-1.0, 0.0]])
    monkeypatch.setattr(shock1d, "_umath_linalg", _InvalidEig)
    with pytest.raises(np.linalg.LinAlgError,
                       match="^Eigenvalues did not converge$"):
        shock1d._eig(M)
    # overflow is ignored inside; pyproject makes a RuntimeWarning an error
    monkeypatch.setattr(shock1d, "_umath_linalg", _OverflowingEig)
    w, _ = shock1d._eig(M)
    assert w == np.inf
    # and the caller's error state is back in force afterwards
    with pytest.raises(RuntimeWarning):
        np.multiply(1e300, 1e300)


def _overflow_raises() -> bool:
    try:
        np.multiply(1e300, 1e300)
    except FloatingPointError:
        return True
    return False


def test_eig_helper_puts_back_the_callers_error_state(monkeypatch):
    M = np.array([[0.3, 0.2], [-1.0, 0.0]])
    outside = np.geterr(), np.geterrcall()
    monkeypatch.setattr(shock1d, "_umath_linalg", _InvalidEig)
    with pytest.raises(np.linalg.LinAlgError):
        shock1d._eig(M)
    # back at once after the raise: pyproject makes a RuntimeWarning an
    # error, so numpy's own invalid flag warns again
    assert (np.geterr(), np.geterrcall()) == outside
    with pytest.raises(RuntimeWarning):
        np.subtract(np.inf, np.inf)

    def note(kind, flag):
        pass

    # a state the caller entered survives the call, raised or returned,
    # and is not replaced by numpy's default
    with np.errstate(call=note, over="raise", invalid="call",
                     divide="ignore", under="ignore"):
        entered = np.geterr(), np.geterrcall()
        with pytest.raises(np.linalg.LinAlgError):
            shock1d._eig(M)
        assert (np.geterr(), np.geterrcall()) == entered
        assert _overflow_raises()
        monkeypatch.setattr(shock1d, "_umath_linalg", _OverflowingEig)
        w, _ = shock1d._eig(M)  # overflow is ignored inside
        assert w == np.inf
        assert (np.geterr(), np.geterrcall()) == entered
        assert _overflow_raises()
    assert (np.geterr(), np.geterrcall()) == outside


def test_simple_wave_builds_each_state_system_once(monkeypatch):
    # node systems plus RK4 stages k2, k3 and k4; k1 is the node's
    # system, and each system is one eigen solve
    base = scalar_reduced_factory(builtin("scalar-bi"))
    calls, solves = [], []
    eig = shock1d._eig

    def factory(U):
        calls.append(U)
        return base(U)

    def counted_eig(M):
        solves.append(M)
        return eig(M)

    monkeypatch.setattr(shock1d, "_eig", counted_eig)
    simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1], n=201)
    assert len(calls) == 4 * 201 - 3
    assert len(solves) == len(calls)


def test_simple_wave_builds_no_constant_jet_for_a_float_operand(
        monkeypatch):
    # scalar-bi is 1.0 - sqrt(1.0 + 2.0*z): each system's jet is the
    # variable z and one jet per operation, and the floats 1.0, 2.0 and
    # 1.0 enter the rules as they are
    built, constants = [], []
    of = Jet2._of.__func__

    def counted_of(cls, *slots):
        built.append(slots)
        return of(cls, *slots)

    monkeypatch.setattr(Jet2, "_of", classmethod(counted_of))
    for cls in (Jet3, Jet2):
        monkeypatch.setattr(cls, "constant", classmethod(
            lambda cls, c, constant=cls.constant.__func__:
            constants.append(c) or constant(cls, c)))
    simple_wave_construct(scalar_reduced_factory(builtin("scalar-bi")), 0,
                          (0.1, 0.6), [0.3, 0.1], n=201)
    assert constants == []
    assert len(built) == 5 * (4 * 201 - 3)


def test_simple_wave_for_scalar_conservation_law_has_linear_speed():
    wave = simple_wave_construct(burgers_factory(), 0, (0.1, 0.6), [0.1])
    assert np.max(np.abs(wave.lams - wave.phis)) < 1e-10


def test_simple_wave_linear_model_runs_at_unit_speed():
    model = from_expression("-z", Kind.Scalar, name="linear")
    factory = scalar_reduced_factory(model)
    left = simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1],
                                 component=1)
    right = simple_wave_construct(factory, 1, (0.1, 0.6), [0.3, 0.1],
                                  component=1)
    assert np.max(np.abs(left.lams + 1.0)) < 1e-12
    assert np.max(np.abs(right.lams - 1.0)) < 1e-12


def test_simple_wave_input_validation():
    factory = burgers_factory()
    with pytest.raises(BadParams):
        simple_wave_construct(factory, 0, (0.1, 0.6), [0.4])
    with pytest.raises(BadParams):
        simple_wave_construct(factory, 3, (0.1, 0.6), [0.1])
    with pytest.raises(BadParams):
        simple_wave_construct(factory, 0, (0.6, 0.1), [0.6])
    with pytest.raises(GridTooCoarse):
        simple_wave_construct(factory, 0, (0.1, 0.6), [0.1], n=2)


def test_simple_wave_detects_mode_collision():
    # eigenvalues +-(0.3 - a) merge exponentially as the tracked mode
    # drives a toward 0.3, so the gap crosses the collision tolerance
    def factory(U):
        a = float(np.asarray(U).reshape(2)[0])
        M = np.array([[0.0, (0.3 - a) ** 2], [1.0, 0.0]])
        w, V = np.linalg.eig(M)
        order = np.argsort(w.real)
        return ReducedSystem(eigenvalues=tuple(w.real[order].tolist()),
                             right=tuple(map(tuple,
                                             V.real[:, order].T.tolist())))

    with pytest.raises(ModeCollision):
        simple_wave_construct(factory, 1, (0.1, 20.0), [0.25, 0.1],
                              component=1)


def test_flux_demo_contrasts_folding_and_exceptional_fans(tmp_path):
    out = tmp_path / "fan.json"
    assert main(["shock", "--model-builtin", "scalar-bi", "--t-list",
                 "0.5,1.0,2.0,5.0", "--out", str(out)]) == 0
    d = json.loads(out.read_text())["model"]
    assert abs(d["burgers_crossing"] - 1.0) < 0.02
    assert d["model_crossing"] is None
    assert d["model_lam_variation"] < 1e-8
    burgers = (tmp_path / "fan_burgers.csv").read_text().splitlines()
    assert len(burgers[0].split(",")) == 2 + 4
    assert d["model"] == "scalar-bi"
    wave, crossing = model_wave(builtin("scalar-bi"))
    assert crossing is None
    assert np.max(wave.lams) - np.min(wave.lams) < 1e-8


def test_flux_demo_reports_finite_crossing_for_genuinely_nonlinear_model():
    model = from_expression("z^2", Kind.Scalar, name="quadratic")
    wave, crossing = model_wave(model)
    assert crossing is not None
    assert 0.0 < crossing < 10.0
    assert crossing == crossing_time(wave.lams, wave.phis, t_max=10.0)
    # the horizon bounds the reported crossing
    assert model_wave(model, horizon=0.5 * crossing)[1] is None


def test_characteristics_csv_roundtrip(tmp_path):
    prof = _sin_profile(n=11)
    sols = [moc_solve(_identity, prof, t) for t in (0.5, 1.0)]
    out = tmp_path / "chars.csv"
    write_characteristics_csv(out, prof.x, prof.u,
                              [s.x for s in sols], [0.5, 1.0])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["phi", "lam", "x_t0.5", "x_t1.0"]
    assert len(rows) == 12
    assert float(rows[1][0]) == 0.0


def test_characteristics_csv_writes_non_finite_values_as_repr(tmp_path):
    phis = np.array([0.0, -0.0, 1e-310, 2.0])
    lams = np.array([np.nan, np.inf, -np.inf, 0.5])
    xs = [phis + 0.5 * lams, np.array([1.0, 1.0, np.nan, -0.0])]
    out = tmp_path / "chars.csv"
    write_characteristics_csv(out, phis, lams, xs, [0.5, 2])
    want = repr_csv(["phi", "lam", "x_t0.5", "x_t2.0"],
                    zip(phis, lams, *xs))
    assert out.read_bytes() == want
    assert out.read_text().splitlines()[1:4] == [
        "0.0,nan,nan,1.0", "-0.0,inf,inf,1.0", "1e-310,-inf,-inf,nan"]


def test_snapshot_csv_roundtrip(tmp_path):
    snap = Snapshot(t=0.0, x=np.array([0.0, 1.0]), u=np.array([0.25, -0.5]))
    out = tmp_path / "snap.csv"
    write_snapshot_csv(out, snap)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["x", "u"], ["0.0", "0.25"], ["1.0", "-0.5"]]
