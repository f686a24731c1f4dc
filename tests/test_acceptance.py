"""Acceptance gate: one test per shipped claim, numbered 01-12.

Each test pins a user-facing guarantee of the package against an
independent oracle (closed forms, direct contractions, resolution
studies).  Tolerances are part of the contract and are not to be
loosened.  The module-level test suites freeze the measured behavior;
this file states the acceptance claims.

Criterion 10 asserts two values in their derived form, and both differ
from the claims first written for it.  The quadratic action at p = 3q
keeps a one-dimensional non-null kernel, not an empty one: at that
ratio the leading symbol is traceless, and the kernel is the
linearized conformal gauge mode phi(x)phi + (Q/2) g.  The trace
coefficient of the Einstein discontinuity is (D-2)/4, not (D+2)/4: the
trace of delta G is (1 - D/2) delta R, with delta R = phi phi pi - Q tr,
and the harmonic gauge sets phi phi pi = Q tr / 2.  (D+2)/4 is, up to
sign, the coefficient of Ric + g R/2, a sign slip in the trace
reversal.
"""

from __future__ import annotations

import numpy as np
import pytest

from cewave.ce import VectorCharData, classify, scalar_ce_residual
from cewave.charsys import (
    CharSystem,
    FieldBackground,
    exceptionality_per_mode,
    fresnel_roots,
    scalar_system,
    vector_system,
)
from cewave.cli import main
from cewave.errors import InputError, NumericalError
from cewave.gravity import (
    covector_q,
    einstein_tensor_disc,
    eta,
    kernel_survey,
    quadratic_operator,
    random_nonnull_covector,
)
from cewave.lagrangians import builtin, from_expression
from cewave.rays import (
    QuarticHamiltonian,
    TransportState,
    crossing_time,
    trace,
    transport_amplitude,
)
from cewave.shock1d import (
    Profile1D,
    moc_solve,
    scalar_reduced_factory,
    shock_time,
    simple_wave_construct,
)

from oracles import (
    appendix_raw,
    components_from_pi,
    crosscheck_cone_vs_eigen,
    gauge_project,
    general_ce_raw,
    nondegenerate_jet,
    scalar_model_cone,
)


def _accepted_vector_draws(probe, count, rng):
    """Backgrounds/directions for which `probe` succeeds; domain-guard
    and degeneracy rejections are redrawn."""
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 200 * count, "rejection rate implausibly high"
        E = rng.uniform(-1.0, 1.0, size=3)
        B = rng.uniform(-1.0, 1.0, size=3)
        nhat = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(nhat) < 1e-3:
            continue
        bg = FieldBackground.vector(E, B)
        try:
            probe(bg, nhat)
        except (InputError, NumericalError):
            continue
        out.append((bg, nhat))
    return out


def test_criterion_01_strong_ce_builtins_classify_clean():
    for name in ("born-infeld", "maxwell", "alpha-over-beta"):
        report = classify(builtin(name))
        assert report.label == "StronglyCE", f"{name}: {report.label}"
        assert report.max_residual < 1e-10, (
            f"{name}: max residual {report.max_residual:.3e}")


def test_criterion_02_scalar_ce_oracle():
    rng = np.random.default_rng(202)
    zs = rng.uniform(-0.45, 0.45, size=100)

    exceptional = [builtin("scalar-maxwell"), builtin("scalar-bi")]
    for _ in range(5):
        k = float(rng.uniform(-1.0, 1.0))
        d = float(rng.uniform(1.0, 2.0))
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0))
        exceptional.append(builtin("sqrt-family", [k, d, c]))

    for model in exceptional:
        worst = max(scalar_ce_residual(model.jet_at(model.point(z)))
                    for z in zs)
        assert worst < 1e-12, f"{model.name}: residual {worst:.3e}"

    cubic = from_expression("z + z^3", "scalar")
    worst = max(scalar_ce_residual(cubic.jet_at(cubic.point(z))) for z in zs)
    assert worst > 0.1, f"z + z^3 should fail but residual is {worst:.3e}"


def test_criterion_03_expanded_conditions_match_compact_up_to_one_factor():
    rng = np.random.default_rng(203)
    jets = [nondegenerate_jet(rng) for _ in range(1000)]

    factor = None
    for jet, point in jets:
        raw3, raw4, s3, s4 = general_ce_raw(VectorCharData.from_jet(jet, point))
        if abs(raw3) > 0.1 * s3 and abs(raw4) > 0.1 * s4:
            am1, am2, _, _ = appendix_raw(jet, point)
            f3, f4 = am1 / raw3, am2 / raw4
            assert abs(f3 - f4) < 1e-8 * max(abs(f3), abs(f4)), (
                "the two conditions would need different factors: "
                f"{f3!r} vs {f4!r}")
            factor = f3
            break
    assert factor is not None, "no well-conditioned jet found"

    for jet, point in jets:
        raw3, raw4, s3, s4 = general_ce_raw(VectorCharData.from_jet(jet, point))
        am1, am2, t1, t2 = appendix_raw(jet, point)
        assert abs(am1 - factor * raw3) / (s3 + t1) < 1e-8
        assert abs(am2 - factor * raw4) / (s4 + t2) < 1e-8


def test_criterion_04_birefringence_detection():
    bi = builtin("born-infeld")
    pm = builtin("perturbed-maxwell", [0.1])
    rng = np.random.default_rng(204)
    draws = _accepted_vector_draws(
        lambda bg, n: (fresnel_roots(bi, bg, n), fresnel_roots(pm, bg, n)),
        100, rng)

    pm_splits = []
    for bg, nhat in draws:
        fr = fresnel_roots(bi, bg, nhat)
        r = np.sort(fr.roots.real)
        assert max(r[1] - r[0], r[3] - r[2]) < 1e-8
        assert not fr.birefringent
        rp = np.sort(fresnel_roots(pm, bg, nhat).roots.real)
        pm_splits.append(min(rp[1] - rp[0], rp[3] - rp[2]))
    assert max(pm_splits) > 1e-3

    bg = FieldBackground.vector([0.3, 0.0, 0.0], [0.0, 0.4, 0.0])
    fr = fresnel_roots(pm, bg, (1.0, 0.0, 0.0))
    rp = np.sort(fr.roots.real)
    assert fr.birefringent
    assert min(rp[1] - rp[0], rp[3] - rp[2]) > 1e-3


def test_criterion_05_eigenvalues_land_on_the_cone():
    # fields sampled inside the hyperbolic regime: stronger draws push
    # the inner polarization cone complex and the comparison is not
    # defined there
    model = from_expression("1 - sqrt(1 + a)", "alpha")
    rng = np.random.default_rng(205)
    checked = 0
    while checked < 20:
        bg = FieldBackground.vector(rng.uniform(-0.5, 0.5, size=3),
                                    rng.uniform(-0.5, 0.5, size=3))
        if 1.0 + bg.alpha < 0.1:
            continue
        nhat = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(nhat) < 1e-3:
            continue
        worst = crosscheck_cone_vs_eigen(vector_system(bg, model, nhat),
                                         QuarticHamiltonian(model, bg))
        assert worst < 1e-8, f"vector crosscheck {worst:.3e}"
        checked += 1

    scalar = builtin("scalar-bi")
    for _ in range(20):
        bg = FieldBackground.scalar(*rng.uniform(-0.5, 0.5, size=4))
        worst = crosscheck_cone_vs_eigen(
            scalar_system(bg, scalar),
            scalar_model_cone(scalar, bg))
        assert worst < 1e-8, f"scalar crosscheck {worst:.3e}"


def test_criterion_06_exceptionality_gradient():
    burgers = CharSystem.from_builder([0.5], lambda s: [[s[0]]])
    assert exceptionality_per_mode(burgers, 0) == pytest.approx(1.0,
                                                                abs=1e-10)

    bg = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    sys = scalar_system(bg, builtin("scalar-bi"))
    for idx in (0, 3):
        assert abs(exceptionality_per_mode(sys, idx)) < 1e-7

    square = from_expression("z^2", "scalar")
    sys = scalar_system(FieldBackground.scalar(0.2, 0.5, 0.0, 0.0), square)
    assert abs(exceptionality_per_mode(sys, 0)) > 1e-2


def test_criterion_07_simple_wave_speed_constancy():
    factory = scalar_reduced_factory(builtin("scalar-bi"))
    wave = simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1])
    assert wave.lam_variation() < 1e-6, f"{wave.lam_variation():.3e}"

    factory = scalar_reduced_factory(from_expression("z^2", "scalar"))
    wave = simple_wave_construct(factory, 0, (0.1, 0.6), [0.3, 0.1])
    assert wave.lam_variation() > 1e-2, f"{wave.lam_variation():.3e}"


def test_criterion_08_burgers_shock_time_both_routes():
    profile = Profile1D.from_callable(np.sin, 0.0, 2.0 * np.pi, n=401,
                                      periodic=True)
    t_star = shock_time(lambda u: u, profile)
    assert abs(t_star - 1.0) < 0.02, f"slope route {t_star}"
    t_cross = crossing_time(profile.u, profile.x)
    assert abs(t_cross - 1.0) < 0.02, f"characteristics route {t_cross}"

    assert moc_solve(lambda u: u, profile, 1.5).multivalued
    assert not moc_solve(lambda u: u, profile, 0.5).multivalued


def test_criterion_09_transport_blowup():
    res = transport_amplitude(TransportState(pi0=-2.0, m=0.0, c=1.0),
                              s_max=2.0)
    assert res.blown_up
    assert abs(res.s_star - 0.5) < 0.005, f"s* = {res.s_star}"

    res = transport_amplitude(TransportState(pi0=-2.0, m=0.0, c=0.0),
                              s_max=100.0)
    assert not res.blown_up
    assert res.s[-1] == pytest.approx(100.0)
    assert np.max(np.abs(res.pi)) <= 2.0 + 1e-12


def test_criterion_10_gravity_null_cones():
    rng = np.random.default_rng(210)
    failures = []

    # Expected non-null kernels.  Einstein and the generic pair admit no
    # non-null characteristic.  p = 3q is p/q = 4(D-1)/D at D = 4, where
    # the leading symbol of p Ric^2 - q R^2 is traceless (Weyl-squared):
    # linearized Weyl rescaling, followed by the diffeomorphism that
    # restores harmonic gauge, leaves exactly the gauge mode
    # pi = phi(x)phi + Q/(D-2) g in the kernel of every normal.
    surveys = {
        "einstein": (dict(theory="einstein"), {"0": 200}),
        "quadratic p=1, q=0.3": (dict(theory="quadratic", p=1.0, q=0.3),
                                 {"0": 200}),
        "quadratic p=3q": (dict(theory="quadratic", p=3.0, q=1.0),
                           {"1": 200}),
    }
    for label, (kw, expected_non) in surveys.items():
        out = kernel_survey(kw.pop("theory"), 4, 200, rng, **kw)
        null_dims = {int(k) for k in out["null_kernel_dims"]}
        if min(null_dims) < 1:
            failures.append(
                f"{label}: null directions should always carry a kernel, "
                f"measured dims {sorted(null_dims)}")
        if out["nonnull_kernel_dims"] != expected_non:
            failures.append(
                f"{label}: non-null kernel dims expected {expected_non}, "
                f"measured {out['nonnull_kernel_dims']}")

    # The p = 3q kernel is spanned by the conformal gauge mode: compare
    # the right-singular vector of the smallest singular value of the
    # row-normalized operator with phi(x)phi + (Q/2) g on a fresh draw.
    phi = random_nonnull_covector(rng, 4)
    op = quadratic_operator(3.0, 1.0, phi)
    _, _, vt = np.linalg.svd(op / np.linalg.norm(op, axis=1, keepdims=True))
    mode = components_from_pi(np.outer(phi, phi)
                              + 0.5 * covector_q(phi) * eta(4))
    mode /= np.linalg.norm(mode)
    mismatch = min(np.linalg.norm(vt[-1] - mode),
                   np.linalg.norm(vt[-1] + mode))
    if mismatch >= 1e-8:
        failures.append(
            f"quadratic p=3q: non-null kernel vector differs from "
            f"phi(x)phi + (Q/2) g by {mismatch:.3e} (tolerance 1e-8)")

    for D in (4, 5, 6, 7):
        out = kernel_survey("fr", D, 20, rng, f2=1.0)
        worst_null = min(int(k) for k in out["null_kernel_dims"])
        best_non = max(int(k) for k in out["nonnull_kernel_dims"])
        if not worst_null > best_non:
            failures.append(
                f"fr D={D}: null kernel {worst_null} does not strictly "
                f"exceed non-null kernel {best_non}")

    # trace(delta G) = (1 - D/2) delta R with the textbook linearized
    # scalar curvature delta R = phi phi pi - Q tr; the harmonic gauge
    # sets phi phi pi = Q tr / 2, so the coefficient of Q tr is (D-2)/4.
    derived = lambda D: (D - 2.0) / 4.0
    for D in (4, 5, 6, 7):
        g = eta(D)
        worst_oracle = 0.0
        worst_coeff = 0.0
        draws = 0
        while draws < 10:
            phi = random_nonnull_covector(rng, D)
            raw = rng.uniform(-1.0, 1.0, size=(D, D))
            proj = gauge_project(phi, 0.5 * (raw + raw.T))
            Q = covector_q(phi)
            ptr = float(np.trace(g @ proj))
            denom = Q * ptr
            if abs(denom) < 1e-3:
                continue
            draws += 1
            tr = float(np.trace(g @ einstein_tensor_disc(phi, proj)))
            delta_r = float(phi @ g @ proj @ g @ phi) - Q * ptr
            oracle = (1.0 - 0.5 * D) * delta_r
            worst_oracle = max(worst_oracle, abs(tr - oracle) / abs(denom))
            worst_coeff = max(worst_coeff,
                              abs(tr - derived(D) * denom) / abs(denom))
        if worst_oracle >= 1e-10:
            failures.append(
                f"trace identity, D={D}: trace(delta G) differs from "
                f"(1 - D/2)(phi phi pi - Q tr) by {worst_oracle:.3e} "
                "(tolerance 1e-10)")
        if worst_coeff >= 1e-10:
            failures.append(
                f"trace identity, D={D}: residual against the derived "
                f"coefficient (D-2)/4 = {derived(D)} is {worst_coeff:.3e} "
                "(tolerance 1e-10)")

    assert not failures, "sub-claims failed:\n" + "\n".join(failures)


def test_criterion_11_ray_conservation_and_order():
    bg = FieldBackground.vector([0.3, 0.0, 0.0], [0.0, 0.4, 0.0])
    for model in (builtin("born-infeld"), builtin("perturbed-maxwell", [0.1])):
        fr = fresnel_roots(model, bg, (1.0, 0.0, 0.0))
        p0 = np.array([-float(np.max(fr.roots.real)), 1.0, 0.0, 0.0])
        ray = trace(QuarticHamiltonian(model, bg), np.zeros(4), p0,
                    s_max=10.0)
        assert ray.drift < 1e-12, f"{model.name}: drift {ray.drift:.3e}"

    class Wave:
        degree = None

        def value(self, x, p):
            return p[0] + (0.5 + 0.3 * np.sin(x[1])) * p[1]

        def grad_p(self, x, p):
            return np.array([1.0, 0.5 + 0.3 * np.sin(x[1]), 0.0, 0.0])

        def grad_x(self, x, p):
            return np.array([0.0, 0.3 * np.cos(x[1]) * p[1], 0.0, 0.0])

    u0 = 0.5 + 0.3 * np.sin(0.4)
    x0 = np.array([0.0, 0.4, 0.0, 0.0])
    p0 = np.array([-u0, 1.0, 0.0, 0.0])
    drifts = [trace(Wave(), x0, p0, s_max=8.0, step=h).drift
              for h in (0.2, 0.1, 0.05)]
    orders = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8, f"orders {orders}"


def test_criterion_12_cli_determinism(tmp_path):
    commands = {
        "check": ["ce", "check", "--builtin", "born-infeld"],
        "scan": ["fresnel", "--builtin", "born-infeld", "--trials", "5",
                 "--seed", "42"],
        "shock": ["shock", "--model-builtin", "scalar-bi",
                  "--t-list", "0.5,1.0"],
        "grav": ["gravity", "--theory", "quadratic", "--p", "3", "--q", "1",
                 "--trials", "10", "--seed", "42"],
        "ray": ["rays", "--builtin", "born-infeld", "--s-max", "2.0"],
    }
    suffix = {"check": ".json", "scan": ".csv", "shock": ".json",
              "grav": ".json", "ray": ".csv"}
    for label, argv in commands.items():
        outs = []
        for run in ("one", "two"):
            out = tmp_path / f"{label}_{run}{suffix[label]}"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0, f"{label} run {run} exited {rc}"
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes(), label
        if label == "shock":
            for side in ("_burgers.csv", "_model.csv"):
                a = tmp_path / f"{label}_one{side}"
                b = tmp_path / f"{label}_two{side}"
                assert a.read_bytes() == b.read_bytes(), side
