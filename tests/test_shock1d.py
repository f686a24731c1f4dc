from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cewave.charsys import FieldBackground, scalar_system
from cewave.errors import (
    BadParams,
    CFLViolation,
    DomainError,
    GridTooCoarse,
    KindError,
    ModeCollision,
)
from cewave.lagrangians import Kind, builtin, from_expression
from cewave.rays import crossing_time
from cewave.shock1d import (
    MoCSolution,
    Profile1D,
    ReducedSystem,
    Snapshot,
    _reduced_from_matrix,
    burgers_factory,
    exceptional_flux_demo,
    moc_solve,
    moc_upwind_l1,
    scalar_reduced_factory,
    shock_time,
    simple_wave_construct,
    upwind_solve,
    write_characteristics_csv,
    write_snapshot_csv,
)
from oracles import wave_alignment_sines


def _identity(u):
    return u


def _burgers_flux(u):
    return 0.5 * u * u


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


def test_upwind_rejects_unstable_cfl():
    with pytest.raises(CFLViolation):
        upwind_solve(_burgers_flux, _sin_profile(), 0.1, nx=64, cfl=0.95)


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
            fast = factory(np.array([A, B]))
            full = _reduced_from_matrix(scalar_system(bg, model).matrix[:2, :2])
            for a, b in ((fast.matrix, full.matrix),
                         (fast.eigenvalues, full.eigenvalues),
                         (fast.right, full.right)):
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))


def test_scalar_reduction_keeps_its_checks():
    with pytest.raises(KindError):
        scalar_reduced_factory(builtin("born-infeld"))([0.3, 0.1])
    with pytest.raises(DomainError):
        scalar_reduced_factory(builtin("scalar-bi"))([np.inf, 0.1])


def test_simple_wave_speed_varies_for_non_exceptional_model():
    model = from_expression("z^2", Kind.Scalar, name="quadratic")
    factory = scalar_reduced_factory(model)
    wave = simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1])
    assert wave.lam_variation() > 1e-2
    assert np.max(wave_alignment_sines(wave, factory)) < 1e-8


def test_simple_wave_builds_each_state_system_once():
    # node systems plus RK4 stages k2, k3 and k4; k1 is the node's system
    base = scalar_reduced_factory(builtin("scalar-bi"))
    calls = []

    def factory(U):
        calls.append(U)
        return base(U)

    simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1], n=201)
    assert len(calls) == 4 * 201 - 3


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
        return ReducedSystem(matrix=M, eigenvalues=w.real[order],
                             right=V.real[:, order])

    with pytest.raises(ModeCollision):
        simple_wave_construct(factory, 1, (0.1, 20.0), [0.25, 0.1],
                              component=1)


def test_flux_demo_contrasts_folding_and_exceptional_fans():
    report = exceptional_flux_demo(builtin("scalar-bi"), _sin_profile(),
                                   [0.5, 1.0, 2.0, 5.0])
    assert abs(report.burgers_crossing - 1.0) < 0.02
    assert report.model_crossing is None
    assert np.max(report.model_lams) - np.min(report.model_lams) < 1e-8
    assert len(report.burgers_x) == 4
    d = report.to_dict()
    assert d["model_crossing"] is None
    assert d["model"] == "scalar-bi"


def test_flux_demo_reports_finite_crossing_for_genuinely_nonlinear_model():
    model = from_expression("z^2", Kind.Scalar, name="quadratic")
    report = exceptional_flux_demo(model, _sin_profile(), [0.5])
    assert report.model_crossing is not None
    assert 0.0 < report.model_crossing < 10.0


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


def test_snapshot_csv_roundtrip(tmp_path):
    snap = Snapshot(t=0.0, x=np.array([0.0, 1.0]), u=np.array([0.25, -0.5]))
    out = tmp_path / "snap.csv"
    write_snapshot_csv(out, snap)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["x", "u"], ["0.0", "0.25"], ["1.0", "-0.5"]]
