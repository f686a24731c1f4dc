from __future__ import annotations

import csv
import io
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cewave import charsys
from cewave.ce import VectorCharData, classify
from cewave.charsys import (
    COINCIDENCE_RTOL,
    ROW_BLOCK,
    CharSystem,
    FieldBackground,
    cone_degeneracy,
    exceptionality_per_mode,
    fresnel_batch,
    fresnel_roots,
    fresnel_scan_rows,
    rotation_to_x1,
    scalar_system,
    unit_direction,
    vector_system,
    write_csv,
    write_scan_csv,
)
from cewave.errors import (
    CewaveError,
    DegenerateQuartic,
    DegenerateSystem,
    DomainError,
    FloatOverflow,
    InputError,
    KindError,
    ModeCollision,
    NumericalError,
)
from cewave.jets import DomainMask, InvariantPoint
from cewave.lagrangians import Kind, builtin, builtin_names, from_expression
from cewave.rays import QuarticHamiltonian
from oracles import (
    alpha_model_cone,
    axis_matrices,
    biorthogonality_defect,
    crosscheck_cone_vs_eigen,
    fresnel_batch_numpy_helpers,
    jet3_model,
    repr_csv,
    scalar_axis_matrix,
    scalar_model_cone,
)

_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _eps4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        sign = 1
        q = list(p)
        for i in range(4):
            for j in range(i + 1, 4):
                if q[i] > q[j]:
                    sign = -sign
        eps[p] = sign
    return eps


def _bi_reduced():
    return from_expression("1 - sqrt(1 + a)", "alpha", name="bi-reduced")


# --- backgrounds ---------------------------------------------------------------

def test_vector_invariants_match_tensor_contractions():
    rng = np.random.default_rng(21)
    eps4 = _eps4()
    for _ in range(20):
        E = rng.uniform(-1, 1, 3)
        B = rng.uniform(-1, 1, 3)
        bg = FieldBackground.vector(E, B)
        F_up = bg.f_upper()
        F_dn = _ETA @ F_up @ _ETA
        alpha = 0.5 * np.sum(F_dn * F_up)
        dual_up = 0.5 * np.einsum("mnrs,rs->mn", eps4, F_dn)
        beta = 0.25 * np.sum(dual_up * F_dn)
        assert bg.alpha == pytest.approx(alpha, abs=1e-14)
        assert bg.beta == pytest.approx(beta, abs=1e-14)


def test_scalar_invariant_z_dual_route():
    rng = np.random.default_rng(22)
    for _ in range(20):
        sig = rng.uniform(-1, 1, 4)
        bg = FieldBackground.scalar(*sig)
        want = 0.5 * float(sig @ _ETA @ sig)  # eta is its own inverse
        assert bg.z == pytest.approx(want, abs=1e-14)


def test_unit_direction():
    n = unit_direction([3.0, 0.0, 4.0])
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError, match="must be nonzero"):
        unit_direction([0.0, 0.0, 0.0])


@pytest.mark.parametrize("nhat", [(1e300, 1e300, 0.0), (1e155, 0.0, 0.0),
                                  (1e-160, 0.0, 0.0), (1e-170, 0.0, 0.0),
                                  (5e-324, 0.0, 0.0)])
def test_directions_whose_squared_norm_is_not_normal_are_refused(nhat):
    # both the one-direction and the batch paths share the check
    for refuse in (unit_direction, lambda n: fresnel_batch(
            builtin("born-infeld"), [0.3, 0.0, 0.0], [0.0, 0.4, 0.0], n)):
        with pytest.raises(DomainError, match="normal double range"):
            refuse(nhat)


def test_unit_direction_keeps_the_bits_of_the_numpy_norm():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = rng.normal(size=3) * 10.0 ** rng.uniform(-150.0, 150.0)
        assert unit_direction(n).tobytes() == (
            n / float(np.linalg.norm(n))).tobytes()


def test_rotation_to_x1_is_proper():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = unit_direction(rng.normal(size=3))
        Q = rotation_to_x1(n)
        assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(Q @ n, [1.0, 0.0, 0.0], atol=1e-14)


# --- scalar system ---------------------------------------------------------------

def test_linear_scalar_system_matrix_and_eigen():
    bg = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    sys = scalar_system(bg, builtin("scalar-maxwell"))
    assert sys.matrix[0, 0] == 0.0
    assert sys.matrix[0, 1] == -1.0
    assert sys.matrix[1, 0] == -1.0
    assert np.allclose(sys.eigenvalues, [-1.0, 0.0, 0.0, 1.0], atol=1e-14)
    assert sys.zero_multiplicity == 2
    # the reduction factor theta = A^2 L'' - L' of the time matrix
    jet = builtin("scalar-maxwell").jet_at(bg.point(Kind.Scalar))
    assert bg.A ** 2 * jet.faa - jet.fa == 1.0


def test_scalar_sqrt_system_real_and_full_rank():
    bg = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    sys = scalar_system(bg, builtin("scalar-bi"))
    assert np.isrealobj(sys.eigenvalues)
    assert np.isfinite(sys.cond)
    assert sys.cond < 1e6


def test_scalar_charpoly_matches_closed_form():
    rng = np.random.default_rng(24)
    model = builtin("scalar-bi")
    for _ in range(10):
        bg = FieldBackground.scalar(*rng.uniform(-0.5, 0.5, 4))
        sys = scalar_system(bg, model)
        # det(lam - M) = lam^2 (lam^2 + a1 lam + a2) along x1
        jet = model.jet_at(bg.point(Kind.Scalar))
        A, s1 = bg.A, bg.sigma[1]
        theta = A * A * jet.faa - jet.fa
        a1 = 2.0 * A * s1 * jet.faa / theta
        a2 = (s1 ** 2 * jet.faa + jet.fa) / theta
        got = np.poly(sys.matrix)
        want = np.array([1.0, a1, a2, 0.0, 0.0])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_scalar_system_degenerate():
    bg = FieldBackground.scalar(1.0, np.sqrt(3.0), 0.0, 0.0)
    with pytest.raises(DegenerateSystem):
        scalar_system(bg, from_expression("z^2", "scalar"))


def test_scalar_axis_matrix_is_the_x1_system_matrix_bit_for_bit():
    rng = np.random.default_rng(17)
    models = [builtin("scalar-bi"), builtin("scalar-maxwell"),
              from_expression("-z", "scalar")]
    sigmas = [rng.uniform(-0.5, 0.5, size=4) for _ in range(20)]
    sigmas += [(0.0, 0.3, 0.0, 0.0), (-0.0, 0.3, -0.0, 0.0),
               (0.3, -0.0, 0.2, 0.0), (0.0, 0.0, 0.0, 0.0)]
    for model in models:
        for sigma in sigmas:
            bg = FieldBackground.scalar(*sigma)
            full = scalar_system(bg, model).matrix
            M = scalar_axis_matrix(bg, model)
            assert np.array_equal(M, full)
            assert np.array_equal(np.signbit(M), np.signbit(full))
    with pytest.raises(KindError):
        scalar_axis_matrix(FieldBackground.scalar(0.2, 0.5, 0.1, 0.3),
                           builtin("maxwell"))
    with pytest.raises(DegenerateSystem):
        scalar_axis_matrix(FieldBackground.scalar(0.0, 0.0, 0.0, 0.0),
                           from_expression("z^2", "scalar"))


def test_scalar_system_kind_check():
    bg = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    with pytest.raises(KindError):
        scalar_system(bg, builtin("maxwell"))


# --- scalar cone -----------------------------------------------------------------

def test_scalar_cone_null_covector_linear_model():
    bg = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    H = scalar_model_cone(builtin("scalar-maxwell"), bg)
    assert H.value(None, np.array([1.0, 1.0, 0.0, 0.0])) == 0.0
    assert H.value(None, np.zeros(4)) == 0.0


def test_scalar_cone_dense_contraction_oracle():
    bg = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    model = builtin("scalar-bi")
    jet = model.jet_at(bg.point(model.kind))
    sigma_up = np.array([-0.2, 0.5, 0.1, 0.3])
    G = _ETA * jet.fa + np.outer(sigma_up, sigma_up) * jet.faa
    H = scalar_model_cone(model, bg)
    rng = np.random.default_rng(25)
    for _ in range(10):
        p = rng.uniform(-1, 1, 4)
        assert H.value(None, p) == pytest.approx(
            float(p @ G @ p), rel=1e-13, abs=1e-15)


# --- vector system ---------------------------------------------------------------

def test_vector_system_maxwell_light_cone():
    bg = FieldBackground.vector([0.3, 0.0, 0.0], [0.0, 0.4, 0.0])
    sys = vector_system(bg, builtin("maxwell"))
    assert np.allclose(sys.eigenvalues, [-1, -1, 0, 0, 1, 1], atol=1e-12)
    # det(lam - M) = lam^2 (lam^2 - 1)^2: the doubled light cone and the
    # two constraint modes
    assert np.poly(sys.matrix) == pytest.approx([1, 0, -2, 0, 1, 0, 0],
                                                abs=1e-12)
    assert sys.zero_multiplicity == 2


def test_vector_system_vacuum_light_cone():
    bg = FieldBackground.vector([0, 0, 0], [0, 0, 0])
    sys = vector_system(bg, _bi_reduced())
    assert np.allclose(sys.eigenvalues, [-1, -1, 0, 0, 1, 1], atol=1e-12)


def test_vector_system_sqrt_model_two_distinct_pairs():
    # the four nonzero speeds are {+-1, +-v} with v != 1: the light-cone
    # pair and the slower birefringent pair stay separated
    bg = FieldBackground.vector([0.3, 0.0, 0.0], [0.0, 0.4, 0.0])
    sys = vector_system(bg, _bi_reduced())
    w = np.sort(np.real(sys.eigenvalues))
    v = 0.9284766908852594
    assert np.allclose(w, [-1.0, -v, 0.0, 0.0, v, 1.0], atol=1e-10)
    assert abs(1.0 - v) > 1e-3
    assert sys.zero_multiplicity == 2


def test_vector_system_quartic_roots_match_nonzero_eigenvalues():
    rng = np.random.default_rng(26)
    model = _bi_reduced()
    for _ in range(10):
        bg = FieldBackground.vector(rng.uniform(-0.5, 0.5, 3),
                                    rng.uniform(-0.5, 0.5, 3))
        if 1.0 + bg.alpha < 0.1:
            continue
        sys = vector_system(bg, model)
        # det(lam - M) = lam^2 q(lam), with q the dispersion quartic
        coeffs = np.real_if_close(np.poly(sys.matrix), tol=1000).real
        qroots = np.sort(np.roots(coeffs[:5]).real)
        w = np.sort(np.real(sys.eigenvalues))
        nonzero = w[np.abs(w) > 1e-8]
        assert np.allclose(qroots, nonzero, atol=1e-8)


def test_vector_system_zero_multiplicity_always_two():
    rng = np.random.default_rng(27)
    for model in (builtin("maxwell"), _bi_reduced()):
        for _ in range(15):
            bg = FieldBackground.vector(rng.uniform(-0.5, 0.5, 3),
                                        rng.uniform(-0.5, 0.5, 3))
            if 1.0 + bg.alpha < 0.1:
                continue
            n = unit_direction(rng.normal(size=3))
            assert vector_system(bg, model, nhat=n).zero_multiplicity == 2


def test_vector_system_degenerate_electric_block():
    # L = a^2 has L' = 0 in vacuum, so the electric block vanishes
    bg = FieldBackground.vector([0, 0, 0], [0, 0, 0])
    with pytest.raises(DegenerateSystem):
        vector_system(bg, from_expression("a^2", "alpha"))


def test_vector_system_kind_check():
    bg = FieldBackground.vector([0.3, 0, 0], [0, 0.4, 0])
    with pytest.raises(KindError):
        vector_system(bg, builtin("born-infeld"))


def test_rotation_route_matches_direct_axis_sum():
    rng = np.random.default_rng(28)
    for _ in range(3):
        n = unit_direction(rng.normal(size=3))
        bgv = FieldBackground.vector(rng.uniform(-0.5, 0.5, 3),
                                     rng.uniform(-0.5, 0.5, 3))
        sv = vector_system(bgv, _bi_reduced(), nhat=n)
        direct = sum(ni * Ai for ni, Ai in
                     zip(n, axis_matrices(bgv, _bi_reduced())))
        assert np.allclose(sv.matrix, direct, atol=1e-12)

        bgs = FieldBackground.scalar(*rng.uniform(-0.5, 0.5, 4))
        ss = scalar_system(bgs, builtin("scalar-bi"), nhat=n)
        direct = sum(ni * Ai for ni, Ai in
                     zip(n, axis_matrices(bgs, builtin("scalar-bi"))))
        assert np.allclose(ss.matrix, direct, atol=1e-12)


def test_biorthogonality_after_normalization():
    bgv = FieldBackground.vector([0.3, 0.1, -0.2], [0.1, 0.4, 0.2])
    bgs = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    systems = [
        vector_system(bgv, builtin("maxwell")),
        # E.B = 0 keeps the 6x6 system diagonalizable
        vector_system(FieldBackground.vector([0.3, 0, 0], [0, 0.4, 0]),
                      _bi_reduced()),
        scalar_system(bgs, builtin("scalar-bi")),
    ]
    for sys in systems:
        assert biorthogonality_defect(sys) < 1e-10


def test_defective_zero_block_keeps_propagating_modes_biorthonormal():
    # with E.B != 0 the two constraint modes form a Jordan block, so a
    # complete dual basis does not exist; the four propagating modes
    # must still come out biorthonormal
    bg = FieldBackground.vector([0.3, 0.1, -0.2], [0.1, 0.4, 0.2])
    sys = vector_system(bg, _bi_reduced())
    assert sys.cond > 1e10
    w = np.real(sys.eigenvalues)
    prop = np.abs(w) > 1e-8
    G = sys.left @ sys.right
    sub = G[np.ix_(prop, prop)] - np.eye(int(prop.sum()))
    assert np.max(np.abs(sub)) < 1e-10
    assert np.max(np.abs(G[np.ix_(prop, ~prop)])) < 1e-10


# --- dispersion quartic -----------------------------------------------------------

def test_fresnel_maxwell_double_light_cone():
    bg = FieldBackground.vector([0.3, 0, 0], [0, 0.4, 0])
    fr = fresnel_roots(builtin("maxwell"), bg, (1, 0, 0))
    assert np.allclose(fr.roots, [-1, -1, 1, 1], atol=1e-12)
    assert not fr.birefringent
    assert fr.coincident_with == (1, 0, 3, 2)


def test_fresnel_born_infeld_two_double_roots():
    bg = FieldBackground.vector([0.3, 0, 0], [0, 0.4, 0])
    fr = fresnel_roots(builtin("born-infeld"), bg, (1, 0, 0))
    assert abs(fr.roots[0] - fr.roots[1]) < 1e-8
    assert abs(fr.roots[2] - fr.roots[3]) < 1e-8
    assert not fr.birefringent


def test_fresnel_born_infeld_random_backgrounds():
    rng = np.random.default_rng(29)
    model = builtin("born-infeld")
    checked = 0
    while checked < 25:
        E = rng.uniform(-0.5, 0.5, 3)
        B = rng.uniform(-0.5, 0.5, 3)
        bg = FieldBackground.vector(E, B)
        if 1.0 + bg.alpha - bg.beta**2 < 0.1:
            continue
        n = unit_direction(rng.normal(size=3))
        fr = fresnel_roots(model, bg, n)
        assert not fr.birefringent
        assert np.max(np.abs(fr.roots.imag)) < 1e-10
        checked += 1


def test_fresnel_perturbed_maxwell_splits():
    bg = FieldBackground.vector([0.3, 0, 0], [0, 0.4, 0])
    fr = fresnel_roots(builtin("perturbed-maxwell", [0.1]), bg, (1, 0, 0))
    assert fr.birefringent
    assert fr.coincident_with == (-1, -1, -1, -1)
    assert abs(fr.roots[1] - fr.roots[0]) > 1e-3
    assert abs(fr.roots[3] - fr.roots[2]) > 1e-3


def test_fresnel_degenerate_quartic():
    bg = FieldBackground.vector([0, 0, 0], [0, 0, 0])
    with pytest.raises(DegenerateQuartic):
        fresnel_roots(from_expression("a^2", "alpha"), bg, (1, 0, 0))


def test_fresnel_kind_check():
    bg = FieldBackground.vector([0.3, 0, 0], [0, 0.4, 0])
    with pytest.raises(KindError):
        fresnel_roots(builtin("scalar-bi"), bg, (1, 0, 0))


def test_classify_and_fresnel_batch_agree_where_k_or_delta_vanishes():
    # cone_degeneracy decides both which points classify skips and how
    # fresnel_batch factors the quartic.  Where K counts as zero the
    # quartic keeps the metric cone g = 0, roots -1 and +1 along a unit
    # normal; where only Delta does, its two factors coincide and no
    # row is birefringent.
    models = [builtin(name, params) for name, params in (
        ("alpha-over-beta", None), ("born-infeld", None), ("maxwell", None),
        ("perturbed-maxwell", [0.1]), ("sqrt-family", [0.2, 1.6, 0.5]))]
    models += [from_expression(text, "alpha-beta") for text in (
        "1 - sqrt(1 + a - 0.5*b^2)", "-a/2 + 0.1*a^2 + 0.05*b^2",
        "1 - sqrt(1 + a + 0.3*b)")]
    rng = np.random.default_rng(31)
    k_rows = delta_rows = 0
    for model in models:
        E, B, n = (rng.uniform(-1.0, 1.0, size=(300, 3)) for _ in range(3))
        a = np.vecdot(B, B) - np.vecdot(E, E)
        point = (InvariantPoint(a=a) if model.kind is Kind.VectorAlpha
                 else InvariantPoint(a=a, b=-np.vecdot(B, E)))
        with DomainMask():
            batch = fresnel_batch(model, E, B, n)
            jet = model.jet_at(point)
        d = VectorCharData.from_jet(jet, point)
        k_small, delta_small = np.broadcast_arrays(*cone_degeneracy(
            jet.faa, jet.fab, jet.fbb, d.K, d.P, d.R, d.Delta), a)[:2]
        assert (d.degenerate() == k_small | delta_small).all()
        usable = batch.unusable == 0
        light = np.abs(batch.roots[:, :, None] - [-1.0, 1.0]) < 1e-12
        k_rows += np.count_nonzero(usable & k_small)
        assert light.any(axis=1).all(axis=1)[usable & k_small].all(), (
            model.name)
        only_delta = usable & delta_small & ~k_small
        delta_rows += np.count_nonzero(only_delta)
        assert not batch.birefringent[only_delta].any(), model.name
    assert k_rows > 1000 and delta_rows > 500


# --- mode probes -------------------------------------------------------------------

def test_exceptionality_scalar_conservation_law():
    sys = CharSystem.from_builder([0.5], lambda s: [[s[0]]])
    assert exceptionality_per_mode(sys, 0) == pytest.approx(1.0, abs=1e-10)


def test_exceptionality_scalar_sqrt_modes_vanish():
    bg = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    sys = scalar_system(bg, builtin("scalar-bi"))
    for idx in (0, 3):
        assert abs(exceptionality_per_mode(sys, idx)) < 1e-7


def test_exceptionality_square_model_does_not_vanish():
    bg = FieldBackground.scalar(0.2, 0.5, 0.0, 0.0)
    sys = scalar_system(bg, from_expression("z^2", "scalar"))
    assert abs(exceptionality_per_mode(sys, 0)) > 1e-2


def test_exceptionality_zero_modes_collide():
    bg = FieldBackground.scalar(0.2, 0.5, 0.1, 0.3)
    sys = scalar_system(bg, builtin("scalar-bi"))
    with pytest.raises(ModeCollision):
        exceptionality_per_mode(sys, 1)


# --- two routes to complete exceptionality --------------------------------------


def _mode_probes(model, seed: int, backgrounds: int = 12):
    """|grad lam . r| of every propagating mode of the model's system at
    random backgrounds inside the default classify grid and random
    normals, and the number of probes that ModeCollision skipped."""
    rng = np.random.default_rng(seed)
    probes, skipped = [], 0
    for _ in range(backgrounds):
        n = rng.normal(size=3)
        if model.kind is Kind.Scalar:
            bg = FieldBackground.scalar(*rng.uniform(-0.5, 0.5, 4))
            sys = scalar_system(bg, model, nhat=n)
        else:
            bg = FieldBackground.vector(rng.uniform(-0.4, 0.4, 3),
                                        rng.uniform(-0.4, 0.4, 3))
            sys = vector_system(bg, model, nhat=n)
        w = sys.eigenvalues
        assert np.isrealobj(w)  # hyperbolic at this background
        scale = 1.0 + np.max(np.abs(w))
        for mode in np.flatnonzero(np.abs(w) >= COINCIDENCE_RTOL * scale):
            try:
                probes.append(abs(exceptionality_per_mode(sys, mode)))
            except ModeCollision:
                skipped += 1
    return np.array(probes), skipped


def _assert_routes_agree(model, probes: np.ndarray) -> None:
    # a NotCE model may still be exceptional at isolated backgrounds (the
    # zero field), so NotCE asks for one clearly nonzero probe
    label = classify(model).label
    assert probes.size
    if label in ("CE", "StronglyCE"):
        assert probes.max() <= 1e-7, (label, probes.max())
    else:
        assert label == "NotCE"
        assert probes.max() >= 1e-2, (label, probes.max())


@pytest.mark.parametrize("model", [
    builtin("scalar-bi"),
    builtin("scalar-maxwell"),
    from_expression("z + 0.3*z^2", "scalar"),
    from_expression("1 - sqrt(1 + a)", "alpha"),
    from_expression("-a/2 + 0.1*a^2", "alpha"),
    builtin("sqrt-family", [0.5, 2.0, 0.4]),
], ids=lambda model: model.name)
def test_classify_label_matches_mode_probes(model):
    probes, skipped = _mode_probes(model, seed=31)
    assert skipped == 0
    _assert_routes_agree(model, probes)


@settings(max_examples=25, deadline=None)
@given(k=st.floats(-2.0, 2.0), d=st.floats(2.2, 4.0),
       c=st.floats(0.05, 1.0), c_sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
# a weak coupling: the two propagating modes split by about 5e-5
@example(k=0.0, d=4.0, c=0.0625, c_sign=-1.0, seed=65125741)
# two modes split by 9.6e-8, whose step spacing/10 would leave rounding
# error of about 3e-7 in their probes: they raise ModeCollision instead
@example(k=0.0, d=4.0, c=0.0625, c_sign=-1.0, seed=497)
def test_sqrt_family_label_matches_mode_probes(k, d, c, c_sign, seed):
    # d > 2|c| keeps d + c*a positive on the default grid's a in [-0.5, 2]
    model = from_expression(f"{k!r} + sqrt({d!r} + {c_sign * c!r}*a)",
                            "alpha")
    probes, skipped = _mode_probes(model, seed, backgrounds=6)
    assert skipped <= probes.size // 4
    _assert_routes_agree(model, probes)


@settings(max_examples=25, deadline=None)
@given(e=st.floats(0.1, 0.2), e_sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quadratic_family_label_matches_mode_probes(e, e_sign, seed):
    model = from_expression(f"-a/2 + {e_sign * e!r}*a^2", "alpha")
    probes, skipped = _mode_probes(model, seed, backgrounds=6)
    assert skipped <= probes.size // 4
    _assert_routes_agree(model, probes)


# --- cone / eigen crosschecks -------------------------------------------------------

def test_crosscheck_maxwell():
    bg = FieldBackground.vector([0.3, 0.1, -0.2], [0.1, 0.4, 0.2])
    model = builtin("maxwell")
    sys = vector_system(bg, model)
    assert crosscheck_cone_vs_eigen(sys, QuarticHamiltonian(model, bg)) < 1e-12


def test_crosscheck_sqrt_model_random():
    rng = np.random.default_rng(30)
    model = _bi_reduced()
    checked = 0
    while checked < 20:
        bg = FieldBackground.vector(rng.uniform(-0.5, 0.5, 3),
                                    rng.uniform(-0.5, 0.5, 3))
        if 1.0 + bg.alpha < 0.1:
            continue
        n = unit_direction(rng.normal(size=3))
        sys = vector_system(bg, model, nhat=n)
        assert crosscheck_cone_vs_eigen(sys, QuarticHamiltonian(model, bg)) < 1e-8
        checked += 1


def test_inner_cone_vanishes_on_slow_pair_only():
    bg = FieldBackground.vector([0.3, 0, 0], [0, 0.4, 0])
    model = _bi_reduced()
    H = alpha_model_cone(model, bg)

    def defect(lam: float) -> float:
        p = np.array([-lam, 1.0, 0.0, 0.0])
        return abs(H.value(None, p)) / H.magnitude(None, p)

    v = 0.9284766908852594
    assert defect(v) < 1e-12 and defect(-v) < 1e-12
    assert defect(1.0) > 1e-3


def test_alpha_cone_factors_the_quartic():
    # an L(alpha) model has K = 0, P = 2 L' L'' and R = L'^2, so its
    # quartic is g L' (2 u L'' + g L')
    model = _bi_reduced()
    bg = FieldBackground.vector([0.3, 0.1, -0.2], [0.1, 0.4, 0.2])
    cone = alpha_model_cone(model, bg)
    quartic = QuarticHamiltonian(model, bg)
    L1 = model.jet_at(bg.point(model.kind)).fa
    rng = np.random.default_rng(32)
    for _ in range(10):
        p = rng.uniform(-1, 1, 4)
        g = float(p @ _ETA @ p)
        assert quartic.value(None, p) == pytest.approx(
            g * L1 * cone.value(None, p), rel=1e-12, abs=1e-15)


def test_crosscheck_scalar_sqrt_random():
    rng = np.random.default_rng(31)
    model = builtin("scalar-bi")
    checked = 0
    while checked < 20:
        bg = FieldBackground.scalar(*rng.uniform(-0.5, 0.5, 4))
        if 1.0 + 2.0 * bg.z < 0.1:
            continue
        n = unit_direction(rng.normal(size=3))
        try:
            sys = scalar_system(bg, model, nhat=n)
        except DegenerateSystem:
            continue
        assert crosscheck_cone_vs_eigen(
            sys, scalar_model_cone(model, bg)) < 1e-8
        checked += 1


# --- CSV export ----------------------------------------------------------------------

def _scan_csv_oracle(model, E, B, n) -> bytes:
    # the scan's bytes as csv.writer writes them, row by row from
    # fresnel_roots
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(fresnel_scan_rows(model, fresnel_batch(model, E, B, n))[0])
    for k in range(len(E)):
        fr = fresnel_roots(model, FieldBackground.vector(E[k], B[k]), n[k])
        for i in range(4):
            writer.writerow([model.name,
                             *(repr(float(v)) for v in (*E[k], *B[k], *n[k])), i,
                             repr(float(fr.roots[i].real)),
                             fr.coincident_with[i],
                             str(fr.birefringent).lower()])
    return buf.getvalue().encode()


def test_fresnel_scan_csv(tmp_path):
    # sqrt-family's name holds commas, so the csv module quotes it
    model = builtin("sqrt-family", [0.5, 2.0, 0.4])
    E = np.array([[0.3, 0.0, 0.0], [0.1, 0.2, -0.0]])
    B = np.array([[0.0, 0.4, 0.0], [0.0, 0.1, 0.3]])
    n = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    batch = fresnel_batch(model, E, B, n)
    header, columns = fresnel_scan_rows(model, batch)
    assert header[0] == "model"
    assert header[-1] == "birefringent_flag"
    assert [len(column) for column in columns] == [8] * len(header)

    path = tmp_path / "scan.csv"
    write_scan_csv(str(path), header, columns)
    assert path.read_bytes() == _scan_csv_oracle(model, E, B, n)
    assert path.read_bytes().decode().startswith('model,Ex,Ey,Ez,Bx,By,Bz,nx,ny,nz,'
                                       'root_index,p0,coincident_with,'
                                       'birefringent_flag\r\n'
                                       '"sqrt-family[0.5,2,0.4]",0.3,')


# four rows per background: one and then two row-block edges crossed
@pytest.mark.parametrize("count", [ROW_BLOCK // 4 + 1, ROW_BLOCK // 2 + 1])
def test_fresnel_scan_csv_across_block_edges(count, tmp_path):
    model = builtin("sqrt-family", [0.5, 2.0, 0.4])
    rng = np.random.default_rng(count)
    E, B = rng.uniform(-0.4, 0.4, size=(2, count, 3))
    n = rng.standard_normal((count, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    path = tmp_path / "scan.csv"
    write_scan_csv(str(path), *fresnel_scan_rows(
        model, fresnel_batch(model, E, B, n)))
    assert path.read_bytes() == _scan_csv_oracle(model, E, B, n)


@pytest.mark.parametrize("count", [0, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                   2 * ROW_BLOCK + 1])
def test_float_csv_is_repr_csv_across_block_edges(count, tmp_path):
    rng = np.random.default_rng(count)
    pool = np.array([0.0, -0.0, 0.5, 1e-310, np.nan, np.inf, -np.inf])
    columns = [np.where(rng.random(count) < 0.5, rng.choice(pool, count),
                        rng.standard_normal(count)) for _ in range(3)]
    # a constant column repeats one bit pattern in every block
    columns.append(np.full(count, -0.0))
    path = tmp_path / "floats.csv"
    header = ["u", "v", "w", "zero"]
    write_csv(str(path), header, columns)
    assert path.read_bytes() == repr_csv(header, zip(*columns))


@pytest.mark.parametrize("count", [0, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                   2 * ROW_BLOCK + 1])
def test_csv_spells_bool_int_and_str_columns_across_block_edges(count,
                                                                 tmp_path):
    rng = np.random.default_rng(count)
    names = np.where(rng.random(count) < 0.5, "a,b", "c")
    columns = [rng.standard_normal(count), rng.random(count) < 0.5,
               rng.integers(-5, 5, count),
               # str fields come quoted, as fresnel_scan_rows quotes names
               np.where(names == "c", "c", '"a,b"')]
    header = ["float", "bool", "int", "str"]
    path = tmp_path / "mixed.csv"
    write_csv(str(path), header, columns)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(float(f)), str(bool(b)).lower(), int(i), name]
                     for f, b, i, name in zip(*columns[:3], names))
    assert path.read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("lengths", [(ROW_BLOCK, ROW_BLOCK + 1),
                                     (ROW_BLOCK + 1, ROW_BLOCK), (3, 2)])
def test_float_csv_rejects_columns_of_unequal_length(lengths, tmp_path):
    columns = [np.zeros(n) for n in lengths]
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "floats.csv"), ["u", "v"], columns)


# --- batched dispersion roots ---------------------------------------------------------


def test_stacked_quadratic_roots_equal_np_roots_bit_for_bit():
    rng = np.random.default_rng(3)
    a, b, c = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
    rows = [np.array(row, dtype=complex) for row in zip(a, b, c)]
    rows += [np.array(row, dtype=complex) for row in [
        [a[0], b[0], 0], [a[1], 0, 0], [a[2], -0.0, 0], [a[3], 0, c[3]],
        [-1, 0, 1], [1, 0, -1], [2.5, -1.5, 0.25], [1, 2, 1],
        [complex(3, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0)],
        [complex(1e-14, 1), 1e3, complex(0, -1e-300)]]]
    got = charsys._quadratic_roots(np.array(rows))
    for row, roots in zip(rows, got):
        assert roots.tobytes() == np.roots(row).astype(complex).tobytes()


_FIELD_PARAMS = {"sqrt-family": [0.5, 2.0, 0.4], "perturbed-maxwell": [0.1]}
_FIELD_BUILTINS = [model for model in (builtin(name, _FIELD_PARAMS.get(name))
                                        for name in builtin_names())
                   if model.kind in (Kind.VectorAlpha, Kind.VectorAlphaBeta)]
_component = st.floats(-2.0, 2.0, allow_subnormal=False)
_vector = st.lists(_component, min_size=3, max_size=3)
_normal = _vector.filter(lambda v: np.linalg.norm(v) > 1e-3)


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(_FIELD_BUILTINS),
       stack=st.lists(st.tuples(_vector, _vector, _normal), min_size=1,
                      max_size=6),
       data=st.data())
def test_fresnel_roots_is_the_row_of_a_batch(model, stack, data):
    E, B, n = (np.array(v) for v in zip(*stack))

    def alone(row):
        return fresnel_roots(model, FieldBackground.vector(E[row], B[row]),
                             n[row])

    try:
        with DomainMask() as mask:
            batch = fresnel_batch(model, E, B, n)
    except FloatOverflow:
        # raised for the whole stack when a power overflows at some row
        failed = []
        for row in range(len(stack)):
            try:
                alone(row)
            except FloatOverflow:
                failed.append(row)
            except (DomainError, DegenerateQuartic):
                pass
        assert failed
        return
    row = data.draw(st.integers(0, len(stack) - 1))
    try:
        fr = alone(row)
    except DomainError:
        assert np.broadcast_to(mask.bad, len(stack))[row]
        assert batch.unusable[row] != 0
        return
    except DegenerateQuartic as exc:
        error = batch.error(row)
        assert (type(error), str(error)) == (type(exc), str(exc))
        return
    assert batch.unusable[row] == 0
    assert batch.roots[row].tobytes() == fr.roots.tobytes()
    assert tuple(batch.coincident_with[row].tolist()) == fr.coincident_with
    assert bool(batch.birefringent[row]) is fr.birefringent
    assert batch.n[row].tobytes() == n[row].tobytes()


# models whose rows leave the domain (under a DomainMask), whose
# coefficients are not finite, or whose powers overflow for a whole
# stack; a*b has a vanishing factor at the zero field and a leading
# coefficient that vanishes where E = 0
_EDGE_MODELS = _FIELD_BUILTINS + [from_expression(text, kind) for text, kind in (
    ("sqrt(a - 1)", "alpha"), ("1e300*a^2", "alpha"), ("a^1500.5", "alpha"),
    ("1e200*a*b^2", "alpha-beta"), ("-a/2 + 0.1*a^2 + 0.3*b^2", "alpha-beta"),
    ("a*b", "alpha-beta"))]
_signed_zeros = st.lists(st.sampled_from([0.0, -0.0]), min_size=3, max_size=3)
_huge = st.lists(st.sampled_from([0.0, -0.0, 1.0, 1e155, -1e200]),
                 min_size=3, max_size=3)
_edge_row = st.one_of(st.tuples(_vector, _vector, _normal),
                      st.tuples(_signed_zeros, _signed_zeros, _normal),
                      st.tuples(_vector, _signed_zeros, _normal),
                      st.tuples(_signed_zeros, _vector, _normal),
                      st.tuples(_huge, _vector, _normal))


def _canonical(field: np.ndarray) -> tuple[np.dtype, tuple, bytes, bytes]:
    """dtype, shape, NaN positions and the bits of the rest of a batch
    field; a complex field is compared part by part."""
    parts = field.view(float) if field.dtype.kind == "c" else field
    nan = np.isnan(parts) if parts.dtype.kind == "f" else np.zeros(0, bool)
    rest = np.where(nan, 0.0, parts) if nan.size else parts
    return field.dtype, field.shape, nan.tobytes(), rest.tobytes()


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(_EDGE_MODELS),
       stack=st.lists(_edge_row, min_size=1, max_size=6))
# a*b: both factors vanish at the zero field (reason 3, though the
# leading coefficient vanishes too), and a leading coefficient vanishes
# alone where E = 0 (reason 4)
@example(model=_EDGE_MODELS[-1],
         stack=[([0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                ([0.0, 0.0, 0.0], [0.3, 0.1, 0.0], [0.0, 1.0, 0.5])])
# born-infeld outside its domain, then a row whose K, P, R overflow
@example(model=builtin("born-infeld"),
         stack=[([1.5, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                ([1e155, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
                ([0.1, 0.2, 0.0], [0.0, 0.3, 0.0], [1.0, 1.0, 0.0])])
def test_fresnel_batch_keeps_the_bits_of_the_numpy_helpers(model, stack):
    E, B, n = (np.array(v) for v in zip(*stack))

    def solve(batch_fn):
        try:
            with DomainMask():
                return batch_fn(model, E, B, n)
        except (InputError, NumericalError) as exc:
            return type(exc), str(exc)

    got = solve(fresnel_batch)
    want = solve(fresnel_batch_numpy_helpers)
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(vars(got)) == list(vars(want))
    for name, field in vars(want).items():
        assert _canonical(getattr(got, name)) == _canonical(field), name


@pytest.mark.parametrize("model, roots_hex", [
    (builtin("perturbed-maxwell", [0.1]),
     "ffffffffffffefbf0000000000000000fbf488eb656decbf0000000000000000"
     "aaaee63b07c6ef3f0000000000000000fcffffffffffef3f0000000000000000"),
    (builtin("born-infeld"),
     "ccbfc57d2ed4e9bf0000000000000000ccbfc57d2ed4e9bf0000000000000000"
     "7e1f674da997ef3f00000000000000807e1f674da997ef3f0000000000000080"),
])
def test_fresnel_roots_keep_the_bits_of_the_per_background_solve(
        model, roots_hex):
    # recorded with the per-background solve; (E.n)^2 goes through
    # Python's pow, and x*x is one ulp off here and moves the roots
    bg = FieldBackground.vector(
        [-0.009694253064587377, 0.5900161257981069, 0.5598950201504465],
        [0.18911940052261667, 0.43123435939441923, 0.11092123642424356])
    n = [0.20216687463168137, 0.23031793525197086, 0.3574262893715525]
    assert fresnel_roots(model, bg, n).roots.tobytes().hex() == roots_hex


def test_fresnel_roots_with_non_finite_coefficients_raise():
    bg = FieldBackground.vector([0.3, 0, 0], [0, 0.4, 0])
    with pytest.raises(DegenerateQuartic, match="not finite"):
        fresnel_roots(from_expression("1e300*a^2", "alpha"), bg, (1, 0, 0))
    # a power beyond the double range raises for the whole stack
    with pytest.raises(FloatOverflow):
        fresnel_batch(from_expression("1e200*a*b^2", "alpha-beta"),
                      [[0.3, 0, 0], [0, 0, 0]], [[0.2, 0.4, 0], [0, 0, 0]],
                      [[1, 0, 0], [1, 0, 0]])


# --- second-order jets against the Jet3 routes --------------------------------

# field models that read neither a nor b, or one of them only
_PARTIAL_FIELD_MODELS = [from_expression(text, kind) for text, kind in (
    ("1", "alpha"), ("0.5", "alpha-beta"), ("a", "alpha-beta"),
    ("b*b", "alpha-beta"), ("-0.5*a + b^4", "alpha-beta"),
    ("1 - sqrt(1 + 1e200*a)", "alpha"))]


def _outcome(call):
    try:
        with DomainMask(), np.errstate(all="ignore"):
            return call()
    except CewaveError as exc:
        return type(exc), str(exc)


_CUBE_OVERFLOW = (FloatOverflow,
                  "a power with exponent 3 leaves the double range")


def _only_the_jet3_overflows(got, want) -> bool:
    """Whether the Jet3 route raised where only its third derivatives
    left the double range (the cube of a first-order slot in the chain
    rule), and the route on second-order jets did not raise that: it
    gives a result or overflows later, in its own powers."""
    raised = isinstance(got, tuple) and isinstance(got[0], type)
    return (want == _CUBE_OVERFLOW and got != want
            and (not raised or got[0] is FloatOverflow))


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(_EDGE_MODELS + _PARTIAL_FIELD_MODELS),
       stack=st.lists(_edge_row, min_size=1, max_size=6))
@example(model=builtin("born-infeld"),
         stack=[([0.0, 0.0, 1e155], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])])
def test_fresnel_batch_matches_its_jet3_route(model, stack):
    # every field of the batch, NaN for NaN, or the same error; the Jet3
    # route also raises where only its third derivatives overflow
    E, B, n = (np.array(v) for v in zip(*stack))
    got = _outcome(lambda: fresnel_batch(model, E, B, n))
    want = _outcome(lambda: fresnel_batch(jet3_model(model), E, B, n))
    if _only_the_jet3_overflows(got, want) or isinstance(want, tuple):
        assert got == want or want == _CUBE_OVERFLOW
        return
    assert list(vars(got)) == list(vars(want))
    for name, field in vars(want).items():
        assert _canonical(getattr(got, name)) == _canonical(field), name


def _coefficient_bits(h: QuarticHamiltonian) -> tuple:
    return _canonical(np.array([h.K, h.P, h.R]))


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(_FIELD_BUILTINS + _PARTIAL_FIELD_MODELS),
       E=_vector, B=_vector)
@example(model=builtin("born-infeld"), E=[0.0, -0.0, 0.0], B=[-0.0, 0.0, 0.0])
@example(model=_PARTIAL_FIELD_MODELS[-1], E=[0.0, 0.0, 0.0], B=[0.0, 0.0, 0.0])
def test_quartic_hamiltonian_matches_its_jet3_route(model, E, B):
    bg = FieldBackground.vector(E, B)
    got = _outcome(lambda: _coefficient_bits(QuarticHamiltonian(model, bg)))
    want = _outcome(lambda: _coefficient_bits(
        QuarticHamiltonian(jet3_model(model), bg)))
    assert got == want or _only_the_jet3_overflows(got, want)


def test_axis_matrices_match_their_jet3_routes():
    rng = np.random.default_rng(23)
    Q = charsys.rotation_to_x1(np.array([0.6, 0.0, 0.8]))
    cases = [(charsys._scalar_axis_matrix, model, rng.uniform(-0.5, 0.5, 4))
             for model in (builtin("scalar-bi"), builtin("scalar-maxwell"),
                           from_expression("z - z^3", "scalar"),
                           from_expression("2", "scalar"))
             for _ in range(5)]
    cases += [(charsys._vector_axis_matrix, model, rng.uniform(-1.0, 1.0, 6))
              for model in (builtin("maxwell"),
                            builtin("perturbed-maxwell", [0.1]),
                            builtin("sqrt-family", [1.0, 3.0, 1.0]),
                            from_expression("1", "alpha"))
              for _ in range(5)]
    for build, model, state in cases:
        got = _outcome(lambda: build(model, Q, state).tobytes())
        want = _outcome(lambda: build(jet3_model(model), Q, state).tobytes())
        assert got == want
