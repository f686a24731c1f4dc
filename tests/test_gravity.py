from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cewave import gravity
from cewave.errors import (
    BadParams,
    InternalCheckError,
    NumericalError,
    ZeroCoupling,
    ZeroCouplings,
    ZeroCovector,
)
from cewave.gravity import (
    KernelReport,
    classify_covector,
    covector_q,
    einstein_operator,
    einstein_tensor_disc,
    einstein_trace_coeff,
    eta,
    fr_operator,
    gauge_vector,
    kernel_dim,
    kernel_survey,
    pi_from_components,
    quadratic_operator,
    random_nonnull_covector,
    random_null_covector,
)
from cewave.gravity import (_check_normals, _frame, _operators,
                            _row_normalized, _scalars, _survey_normals,
                            _theory)

from oracles import (GravityProbe, components_from_pi, covector_q_dot,
                     gauge_project, identity_checks, survey_normals_per_draw,
                     sym_dim, sym_pairs)

NULL4 = np.array([1.0, 1.0, 0.0, 0.0])
TIME4 = np.array([1.0, 0.0, 0.0, 0.0])
SPACE4 = np.array([0.0, 1.0, 0.0, 0.0])


def _random_sym(rng, D):
    return pi_from_components(rng.uniform(-1.0, 1.0, size=sym_dim(D)), D)


def test_symmetric_component_roundtrip():
    rng = np.random.default_rng(0)
    for D in (4, 5, 6):
        c = rng.uniform(-1.0, 1.0, size=sym_dim(D))
        P = pi_from_components(c, D)
        assert np.array_equal(P, P.T)
        assert np.array_equal(components_from_pi(P), c)
        assert len(sym_pairs(D)) == sym_dim(D)
        stack = rng.uniform(-1.0, 1.0, size=(3, 2, sym_dim(D)))
        assert np.array_equal(components_from_pi(pi_from_components(stack, D)),
                              stack)


def test_covector_classification():
    assert classify_covector(NULL4) == "NullDirection"
    assert classify_covector(TIME4) == "NonNull"
    assert classify_covector(SPACE4) == "NonNull"
    assert covector_q(TIME4) == -1.0
    assert covector_q(SPACE4) == 1.0


@pytest.mark.parametrize("check", [covector_q, classify_covector])
def test_covector_checks_reject_a_zero_covector(check):
    with pytest.raises(ZeroCovector):
        check([0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("check", [covector_q, classify_covector])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_covector_checks_reject_a_non_finite_covector(check, bad):
    with pytest.raises(BadParams):
        check([bad, 1.0, 0.0, 0.0])


def test_kernel_report_rejects_a_zero_covector():
    with pytest.raises(ZeroCovector):
        KernelReport.from_operator(einstein_operator(NULL4), np.zeros(4))


def test_operator_shapes_and_input_checks():
    op = einstein_operator(NULL4)
    assert op.shape == (14, 10)
    assert einstein_operator(np.ones(5), D=5).shape == (20, 15)
    with pytest.raises(ZeroCovector):
        einstein_operator(np.zeros(4))
    with pytest.raises(BadParams):
        einstein_operator(NULL4, D=5)
    with pytest.raises(BadParams):
        einstein_operator([1.0, 0.0, 0.0], D=3)


def test_dimension_bound_admits_the_bound_itself():
    D = gravity.MAX_DIMENSION
    survey = gravity.kernel_survey("einstein", D, 1, np.random.default_rng(0))
    assert survey["null_kernel_dims"] == {str(sym_dim(D) - D): 1}
    assert einstein_operator(np.ones(D), D).shape == (sym_dim(D) + D,
                                                     sym_dim(D))
    with pytest.raises(BadParams) as err:
        einstein_operator(np.ones(D + 1), D + 1)
    assert str(err.value) == (f"spacetime dimension D (--D) is {D + 1}; "
                              f"at most {D} is taken")


def test_einstein_kernel_examples():
    assert kernel_dim(einstein_operator(NULL4)) >= 1
    assert kernel_dim(einstein_operator(TIME4)) == 0
    assert kernel_dim(einstein_operator(SPACE4)) == 0


def test_einstein_null_kernel_is_the_gauge_complement():
    # with a null normal every gauge-compatible discontinuity survives,
    # so the kernel has dimension D(D+1)/2 - D
    for D in (4, 5, 6):
        phi = random_null_covector(np.random.default_rng(D), D)
        assert kernel_dim(einstein_operator(phi, D)) == sym_dim(D) - D


def test_trace_of_assembled_tensor_matches_measured_coefficient():
    rng = np.random.default_rng(5)
    for D in (4, 5, 6, 7):
        g = eta(D)
        for _ in range(10):
            phi = random_nonnull_covector(rng, D)
            P = gauge_project(phi, _random_sym(rng, D))
            Q = covector_q(phi)
            ptr = float(np.trace(g @ P))
            if abs(Q * ptr) < 1e-6:
                continue
            tr = float(np.trace(g @ einstein_tensor_disc(phi, P)))
            assert tr / (Q * ptr) == pytest.approx(einstein_trace_coeff(D),
                                                   abs=1e-10)


def test_quadratic_kernel_examples():
    assert kernel_dim(quadratic_operator(3.0, 1.0, NULL4)) >= 1
    assert kernel_dim(quadratic_operator(1.0, 0.0, TIME4)) == 0
    assert kernel_dim(quadratic_operator(3.0, 1.0, SPACE4)) == 1


def test_quadratic_couplings_validation():
    with pytest.raises(ZeroCouplings):
        quadratic_operator(0.0, 0.0, NULL4)


def test_quadratic_trace_free_combination_keeps_one_nonnull_mode():
    # p/q = 4(D-1)/D makes the leading symbol traceless (p = 3q at D=4):
    # pi proportional to phi phi + Q/(D-2) g, the linearized conformal
    # gauge mode, satisfies the gauge rows and the discontinuity
    # equations for any normal, so the non-null kernel is exactly
    # one-dimensional; 1% off that ratio the kernel closes.  The pair
    # p=1, q=0.3 of acceptance criterion 10 is generic only for D != 6:
    # 1/0.3 = 10/3 is the D=6 ratio, where its non-null kernel is 1.
    rng = np.random.default_rng(9)
    for D in (4, 5, 6, 7):
        g = eta(D)
        ratio = 4.0 * (D - 1) / D
        for _ in range(10):
            phi = random_nonnull_covector(rng, D)
            op = quadratic_operator(ratio, 1.0, phi, D)
            assert kernel_dim(op) == 1
            Q = covector_q(phi)
            special = np.outer(phi, phi) + Q / (D - 2) * g
            image = op @ components_from_pi(special)
            assert np.max(np.abs(image)) < 1e-10 * np.max(np.abs(op))
            assert kernel_dim(quadratic_operator(1.01 * ratio, 1.0,
                                                 phi, D)) == 0


def test_quadratic_pure_scalar_coupling_constraints_only_the_trace():
    assert kernel_dim(quadratic_operator(0.0, 1.0, TIME4)) == sym_dim(4) - 4 - 1


def test_fr_null_kernel_strictly_larger():
    rng = np.random.default_rng(11)
    for D, f2 in ((4, 1.0), (5, 2.0), (6, 1.0), (7, 0.3)):
        ker_null = kernel_dim(fr_operator(f2, random_null_covector(rng, D), D))
        ker_non = kernel_dim(fr_operator(f2, random_nonnull_covector(rng, D), D))
        assert ker_null == sym_dim(D) - D
        assert ker_non == sym_dim(D) - D - 1
        assert ker_null > ker_non


def test_fr_zero_coupling_rejected():
    with pytest.raises(ZeroCoupling):
        fr_operator(0.0, NULL4)


def test_gauge_projection_kills_gauge_vector():
    rng = np.random.default_rng(13)
    for _ in range(20):
        phi = random_nonnull_covector(rng, 4)
        P = gauge_project(phi, _random_sym(rng, 4))
        assert np.max(np.abs(gauge_vector(phi, P))) < 1e-12


def test_identity_residuals_for_gauge_bound_discontinuities():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        phi = random_nonnull_covector(rng, 4)
        P = gauge_project(phi, _random_sym(rng, 4))
        r1, r2 = identity_checks(phi, P)
        worst = max(worst, r1, r2)
    assert worst < 1e-10


def test_identity_residuals_negative_controls():
    rng = np.random.default_rng(19)
    raw = _random_sym(rng, 4)
    r1, r2 = identity_checks(TIME4, raw)
    assert r1 > 1e-2
    assert r2 > 1e-2
    z1, z2 = identity_checks(TIME4, np.zeros((4, 4)))
    assert z1 == 0.0
    assert z2 == 0.0


def test_kernel_dimension_is_scale_invariant():
    rng = np.random.default_rng(23)
    phi = random_nonnull_covector(rng, 4)
    phi_null = random_null_covector(rng, 4)
    for c in (2.0, -0.5, 10.0, 1e-3):
        for base in (phi, phi_null):
            assert (kernel_dim(einstein_operator(c * base))
                    == kernel_dim(einstein_operator(base)))
            assert (kernel_dim(quadratic_operator(1.0, 0.3, c * base))
                    == kernel_dim(quadratic_operator(1.0, 0.3, base)))
            assert (kernel_dim(fr_operator(1.0, c * base))
                    == kernel_dim(fr_operator(1.0, base)))


def test_kernel_report_counts_small_singular_values():
    rep = KernelReport.from_operator(einstein_operator(NULL4), NULL4)
    assert rep.kernel_dim == 6
    assert rep.classification == "NullDirection"
    assert len(rep.singular_values) == 10
    s_max = rep.singular_values[0]
    assert np.sum(rep.singular_values < 1e-10 * s_max) == rep.kernel_dim


def test_random_covector_constructions():
    rng = np.random.default_rng(29)
    for D in (4, 5):
        for _ in range(50):
            n = random_null_covector(rng, D)
            assert abs(covector_q(n)) < 1e-12 * float(n @ n)
            m = random_nonnull_covector(rng, D)
            assert abs(covector_q(m)) > 0.1


def test_kernel_survey_histograms():
    rep = kernel_survey("einstein", 4, 25, np.random.default_rng(31))
    assert rep["theory"] == "einstein"
    assert rep["D"] == 4
    assert rep["trials"] == 25
    assert rep["null_kernel_dims"] == {"6": 25}
    assert rep["nonnull_kernel_dims"] == {"0": 25}
    rep_q = kernel_survey("quadratic", 4, 10, np.random.default_rng(31),
                          p=3.0, q=1.0)
    assert rep_q["nonnull_kernel_dims"] == {"1": 10}
    assert rep_q["p"] == 3.0
    with pytest.raises(BadParams):
        kernel_survey("weyl", 4, 5, np.random.default_rng(0))
    with pytest.raises(BadParams):
        kernel_survey("einstein", 4, 0, np.random.default_rng(0))


class _NoDrawRng:
    def uniform(self, *args, **kwargs):
        pytest.fail("the survey drew a normal before checking D")


@pytest.mark.parametrize("D", [1, 0, 3])
def test_kernel_survey_rejects_low_dimension_before_drawing(D):
    # D = 1 used to loop forever drawing empty spatial vectors
    with pytest.raises(BadParams, match="D >= 4"):
        kernel_survey("einstein", D, 3, _NoDrawRng())


@pytest.mark.parametrize("draw, D, need", [
    (random_null_covector, 1, 2),
    (random_null_covector, 0, 2),
    (random_nonnull_covector, 0, 1),
])
def test_random_covectors_reject_dimensions_with_nothing_to_draw(draw, D,
                                                                 need):
    # these draws used to reject every candidate and redraw forever
    with pytest.raises(BadParams, match=f"needs dimension D >= {need}"):
        draw(np.random.default_rng(0), D)


def test_nonnull_covector_at_one_dimension_is_a_time_covector():
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(20):
        phi = random_nonnull_covector(rng, 1)
        while True:
            want = ref.uniform(-1.0, 1.0, size=1)
            if abs(covector_q_dot(want)) > gravity.MIN_NONNULL_Q:
                break
        assert phi.tobytes() == want.tobytes()
    assert rng.uniform() == ref.uniform()


def test_probe_record_validates_stored_scalars():
    probe = GravityProbe.build(NULL4, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert probe.Q == 0.0
    assert probe.trace == pytest.approx(8.0)
    with pytest.raises(BadParams):
        GravityProbe.build(TIME4, np.array([[0.0, 1.0], [2.0, 0.0]]))
    asym = np.zeros((4, 4))
    asym[0, 1] = 1.0
    with pytest.raises(BadParams):
        GravityProbe.build(TIME4, asym)
    with pytest.raises(BadParams):
        GravityProbe(D=4, phi=TIME4, pi=np.eye(4), theory="einstein",
                     Q=5.0, trace=2.0)


# --- the batched assembly against the per-column loop ---------------------------------
# The oracle is the single-normal, single-column assembly the batch
# replaced, with its formulas spelled as they were; the batch must agree
# bit for bit, since quadratic null kernels are set by rounding.


def _oracle_tensors(p, q, f2):
    def scalars(phi, P):
        g = eta(len(phi))
        return (g, float(phi @ g @ phi), float(np.trace(g @ P)),
                float(phi @ g @ P @ g @ phi))

    def einstein(phi, P):
        g, Q, trace, phiphi_pi = scalars(phi, P)
        v = phi @ (g @ P)
        t = (np.outer(phi, v) + np.outer(v, phi)
             - np.outer(phi, phi) * trace
             - Q * P
             - g * (phiphi_pi - Q * trace))
        return 0.5 * t

    def quadratic(phi, P):
        g, Q, trace, _ = scalars(phi, P)
        inner = (0.5 * (p - 2.0 * q) * np.outer(phi, phi) * trace
                 - 0.5 * p * Q * P
                 - 0.5 * (0.5 * p - 2.0 * q) * Q * trace * g)
        return Q * inner

    def fr(phi, P):
        g, Q, trace, phiphi_pi = scalars(phi, P)
        return (Q * g - np.outer(phi, phi)) * (phiphi_pi - Q * trace) * f2

    return {"einstein": einstein, "quadratic": quadratic, "fr": fr}


def _oracle_operator(tensor_fn, phi):
    D = len(phi)
    g = eta(D)
    pairs = sym_pairs(D)
    n = sym_dim(D)
    op = np.zeros((D + n, n))
    for k, (a, b) in enumerate(pairs):
        P = np.zeros((D, D))
        P[a, b] = P[b, a] = 1.0
        op[:D, k] = (2.0 * (g @ P @ g @ phi)
                     - float(np.trace(g @ P)) * (g @ phi))
        t = tensor_fn(phi, P)
        op[D:, k] = [t[i, j] for i, j in pairs]
    return op


SINGLE = {"einstein": lambda kw, phi, D: einstein_operator(phi, D),
          "quadratic": lambda kw, phi, D: quadratic_operator(
              kw["p"], kw["q"], phi, D),
          "fr": lambda kw, phi, D: fr_operator(kw["f2"], phi, D)}


@pytest.mark.parametrize("theory, kw", [
    ("einstein", {}),
    ("quadratic", {"p": 3.0, "q": 1.0}),
    ("quadratic", {"p": 1.0, "q": 0.5}),
    ("fr", {"f2": 0.7}),
], ids=["einstein", "quadratic-3-1", "quadratic-1-0.5", "fr"])
def test_batched_operators_equal_per_column_oracle(theory, kw):
    rng = np.random.default_rng(37)
    full = {"p": 1.0, "q": 0.0, "f2": 1.0, **kw}
    oracle = _oracle_tensors(full["p"], full["q"], full["f2"])[theory]
    for D in (4, 5, 6, 7):
        # one batch of 40 normals, more than a survey block
        phis = np.array([random_null_covector(rng, D) for _ in range(20)]
                        + [random_nonnull_covector(rng, D)
                           for _ in range(20)])
        batch = _operators(*_theory(theory, **kw), phis)
        assert batch.shape == (40, D + sym_dim(D), sym_dim(D))
        for phi, op in zip(phis, batch):
            want = _oracle_operator(oracle, phi)
            assert np.array_equal(op, want)
            assert np.array_equal(SINGLE[theory](full, phi, D), want)


# The operators ask each tensor for its upper-triangle entries only; the
# entries must be those of the full tensor bit for bit, so each formula
# has one definition.


def _normals_with_signed_zeros(rng, D, T, zeros):
    """T normals (T, D), null and non-null alternating, with the entries
    at the mask zeros (T, D) replaced by +0.0 or -0.0."""
    v = rng.uniform(-1.0, 1.0, size=(T, D))
    v[zeros] = np.where(rng.uniform(size=(T, D)) < 0.5, 0.0, -0.0)[zeros]
    v[::2, 0] = np.sqrt(np.sum(v[::2, 1:] ** 2, axis=1))
    return v[v.any(axis=1)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), D=st.integers(4, 7),
       T=st.integers(1, 6), m=st.integers(1, 4),
       zero_rate=st.sampled_from([0.0, 0.3, 0.6]))
def test_tensor_entries_equal_the_full_tensor(seed, D, T, m, zero_rate):
    rng = np.random.default_rng(seed)
    phis = _normals_with_signed_zeros(rng, D, T, rng.uniform(size=(T, D))
                                      < zero_rate)
    stack = rng.uniform(-1.0, 1.0, size=(m, sym_dim(D)))
    a, b = np.triu_indices(D)
    tensors = {"einstein": einstein_tensor_disc,
               "quadratic": lambda phi, P, at=None:
                   gravity.quadratic_tensor_disc(1.3, 0.4, phi, P, at),
               "fr": lambda phi, P, at=None:
                   gravity.fr_tensor_disc(0.7, phi, P, at)}
    for P in (pi_from_components(stack, D), _frame(D)[2]):
        for name, tensor in tensors.items():
            full = tensor(phis[:, None], P)[..., a, b]
            assert tensor(phis[:, None], P, (a, b)).tobytes() == full.tobytes()
    assert (gravity._gauge_modes(phis, (a, b)).tobytes()
            == gravity._gauge_modes(phis)[..., a, b].tobytes())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), D=st.integers(4, 9),
       T=st.sampled_from([1, 5, 16]), exponent=st.integers(-200, 150),
       zero_rate=st.sampled_from([0.0, 0.3, 0.6]))
def test_gauge_mode_scale_is_twice_the_largest_normal_entry(seed, D, T,
                                                           exponent,
                                                           zero_rate):
    # _check_gauge_modes scales by 2 max|phi| in place of the largest
    # entry of the modes themselves
    rng = np.random.default_rng(seed)
    phis = 10.0 ** exponent * _normals_with_signed_zeros(
        rng, D, T, rng.uniform(size=(T, D)) < zero_rate)
    modes = gravity._gauge_modes(phis, _frame(D)[:2])
    assert ((2.0 * np.abs(phis).max(axis=-1)).tobytes()
            == np.abs(modes).max(axis=(1, 2)).tobytes())


# survey histograms and the next draw of the shared generator, recorded
# with the per-column loop; quadratic p=3q null dims vary with rounding
FROZEN_SURVEYS = [
    (10, "quadratic", {"p": 3.0, "q": 1.0}, 6, 24,
     {"13": 1, "14": 23}, {"0": 24}, 0.40358283188626487),
    (10, "quadratic", {"p": 3.0, "q": 1.0}, 7, 24,
     {"19": 1, "20": 23}, {"0": 24}, 0.5597330055220254),
    (4, "quadratic", {"p": 3.0, "q": 1.0}, 4, 24,
     {"4": 1, "5": 23}, {"1": 24}, 0.9330184803740698),
    (22, "quadratic", {"p": 3.0, "q": 1.0}, 5, 24,
     {"8": 1, "9": 23}, {"0": 24}, 0.7825448718786666),
    (8, "quadratic", {"p": 1.0, "q": 0.5}, 6, 20,
     {"0": 20}, {"0": 20}, 0.7477759506336036),
    (3, "einstein", {}, 7, 20, {"21": 20}, {"0": 20}, 0.9886481576138294),
    (3, "fr", {"f2": 1.0}, 5, 20, {"10": 20}, {"9": 20}, 0.9648155495868265),
]


@pytest.mark.parametrize("seed, theory, kw, D, trials, null, nonnull, draw",
                         FROZEN_SURVEYS)
def test_kernel_survey_frozen_histograms(seed, theory, kw, D, trials, null,
                                         nonnull, draw):
    rng = np.random.default_rng(seed)
    rep = kernel_survey(theory, D, trials, rng, **kw)
    assert rep["null_kernel_dims"] == null
    assert rep["nonnull_kernel_dims"] == nonnull
    assert rng.uniform() == draw


def test_histogram_keys_ascend_numerically():
    hist = gravity._histogram(np.array([10, 9, 10]))
    assert list(hist.items()) == [("9", 1), ("10", 2)]


def test_gauge_mode_check_rejects_a_broken_tensor(monkeypatch):
    exact = gravity.fr_tensor_disc
    monkeypatch.setattr(gravity, "fr_tensor_disc",
                        lambda f2, phi, P, at=None: exact(f2, phi, P, at)
                        + 1e-6 * gravity._entries(P, at))
    with pytest.raises(InternalCheckError,
                       match=r"modes of \[1.0, 1.0, 0.0, 0.0\]: residual"):
        fr_operator(1.0, NULL4)


def test_gauge_mode_check_names_the_first_failing_normal(monkeypatch):
    exact = gravity.fr_tensor_disc

    def broken_if_phi0_large(f2, phi, P, at=None):
        # _operators asks for the entries (T, n, n) of normals (T, 1, D)
        large = phi[..., :1] > 1.5
        return exact(f2, phi, P, at) + 1e-6 * gravity._entries(P, at) * large

    monkeypatch.setattr(gravity, "fr_tensor_disc", broken_if_phi0_large)
    phis = np.array([NULL4, 2.0 * TIME4, 3.0 * NULL4, SPACE4])
    with pytest.raises(InternalCheckError,
                       match=r"modes of \[2.0, 0.0, 0.0, 0.0\]: residual"):
        _operators(*_theory("fr"), phis)


def test_curvature_squared_rows_are_exempt_from_the_gauge_mode_check():
    # harmonic gauge is substituted in their tensor, so a pure-gauge mode
    # phi xi + xi phi is not annihilated and must not be checked
    op = quadratic_operator(1.0, 0.5, TIME4)
    mode = components_from_pi(np.outer(TIME4, SPACE4)
                              + np.outer(SPACE4, TIME4))
    assert np.max(np.abs(op[4:] @ mode)) > 0.1


def test_row_normalization_keeps_every_bit_of_rows_in_range():
    rng = np.random.default_rng(41)
    op = rng.uniform(-1.0, 1.0, size=(3, 7, 5))
    op[1, 2] = 0.0   # a zero row stays zero
    op[2] *= 1e-150  # squares still sum in the normal range
    norms = np.linalg.norm(op, axis=-1, keepdims=True)
    expect = op / np.where(norms > 0.0, norms, 1.0)
    assert np.array_equal(_row_normalized(op), expect)


@pytest.mark.parametrize("scale", [1e200, 1e160, 1e-160, 1e-200],
                         ids=["overflow", "overflow-sum", "subnormal-sum",
                              "underflow"])
def test_row_normalization_rejects_rows_out_of_range(scale):
    # their norm squares leave the double range, so dividing by the
    # computed norm would zero the row or leave it unnormalized
    op = np.ones((2, 3, 4))
    op[1, 0] *= scale
    with pytest.raises(NumericalError, match="double range"):
        _row_normalized(op)


@pytest.mark.parametrize("theory, kw", [
    ("fr", {"f2": 1e200}),
    ("fr", {"f2": 1e-200}),
    ("fr", {"f2": 1e308}),
    ("quadratic", {"p": 1e160, "q": 0.0}),
    ("quadratic", {"p": 1e-200, "q": 0.0}),
])
def test_kernel_survey_rejects_couplings_whose_rows_leave_the_range(theory,
                                                                    kw):
    # the kernel does not depend on the coupling's scale; without the
    # check these surveys reported other dims than at f'' = 1 or p = 1
    with pytest.raises(NumericalError, match="double range"):
        kernel_survey(theory, 4, 5, np.random.default_rng(3), **kw)


@pytest.mark.parametrize("theory, kw, unit", [
    ("fr", {"f2": 1e100}, {"f2": 1.0}),
    ("fr", {"f2": 1e-100}, {"f2": 1.0}),
    ("quadratic", {"p": 1e100, "q": 0.0}, {"p": 1.0, "q": 0.0}),
    ("quadratic", {"p": 3e-100, "q": 1e-100}, {"p": 3.0, "q": 1.0}),
])
def test_kernel_survey_is_coupling_scale_free_inside_the_range(theory, kw,
                                                               unit):
    def dims(couplings):
        rep = kernel_survey(theory, 4, 5, np.random.default_rng(3),
                            **couplings)
        return rep["null_kernel_dims"], rep["nonnull_kernel_dims"]

    assert dims(kw) == dims(unit)


# --- survey normals drawn as arrays against the per-draw loop ---------------------------
# The survey draws every candidate's uniforms in one call and re-lays them
# after a rejection; the normals, their Q and the generator's state must
# equal those of one draw per candidate bit for bit.


def _survey_q(phis: np.ndarray) -> np.ndarray:
    """Q of each normal as the survey's operators see it."""
    return _scalars(phis[:, None], _frame(phis.shape[1])[2])[2].ravel()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), D=st.integers(4, 9),
       trials=st.integers(1, 64))
def test_survey_normals_equal_per_draw_oracle(seed, D, trials):
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    phis = _survey_normals(rng, D, trials)
    want = survey_normals_per_draw(ref, D, trials)
    assert phis.tobytes() == want.tobytes()
    q = np.array([covector_q_dot(phi) for phi in want])
    assert _survey_q(phis).tobytes() == q.tobytes()
    assert np.array([covector_q(phi) for phi in phis]).tobytes() == q.tobytes()
    assert rng.uniform() == ref.uniform()


class _CountingRng:
    def __init__(self, seed):
        self.rng, self.calls, self.most = np.random.default_rng(seed), 0, 0

    def uniform(self, *args, size=None, **kwargs):
        self.calls += 1
        self.most = max(self.most, int(np.prod(size or 1)))
        return self.rng.uniform(*args, size=size, **kwargs)


@pytest.mark.parametrize("D", [4, 9])
def test_survey_normals_of_many_trials_equal_per_draw_oracle(D):
    # 10,000 normals span many draw calls; a call and a rejection's
    # re-laying cover at most _DRAW_SLOTS normals, so the draw stays
    # linear in the trial count
    rng, ref = _CountingRng(D), _CountingRng(D)
    phis = _survey_normals(rng, D, 5000)
    want = survey_normals_per_draw(ref, D, 5000)
    assert phis.tobytes() == want.tobytes()
    rejections = ref.calls - 10000
    assert rng.calls <= -(-10000 // gravity._DRAW_SLOTS) + rejections
    assert rng.most <= gravity._DRAW_SLOTS * D
    assert rng.uniform() == ref.uniform()


class _StreamRng:
    """Uniforms from a scripted head, then from a seeded generator, so a
    draw split over several calls reads the same values as one call."""

    def __init__(self, head, seed=0):
        self.head = list(head)
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def uniform(self, low, high, size):
        self.calls += 1
        take, self.head = self.head[:size], self.head[size:]
        return np.concatenate([take, self.rng.uniform(low, high,
                                                      size=size - len(take))])


# D = 4 candidates: a null one takes 3 values, a non-null one 4
_SHORT = [1e-4, -2e-4, 3e-4]          # |v| <= 1e-3
_FLAT = [0.5, 0.5, 0.0, 0.0]          # Q = 0
_NULL_OK = [0.3, -0.4, 0.2]
_NONNULL_OK = [0.9, 0.1, 0.0, 0.2]


@pytest.mark.parametrize("head, rejections", [
    (_SHORT + _NULL_OK + _NONNULL_OK, 1),
    (_NULL_OK + _FLAT + _FLAT + _NONNULL_OK, 2),
    (_SHORT + _SHORT + _NULL_OK + _FLAT + _NONNULL_OK + _SHORT + _NULL_OK
     + _FLAT, 5),
], ids=["null", "nonnull-twice", "mixed"])
def test_survey_normals_redraw_rejected_candidates_like_the_loop(head,
                                                                 rejections):
    stub, ref = _StreamRng(head), _StreamRng(head)
    phis = _survey_normals(stub, 4, 3)
    want = survey_normals_per_draw(ref, 4, 3)
    assert phis.tobytes() == want.tobytes()
    assert ref.calls == 6 + rejections
    assert stub.calls == 1 + rejections
    assert stub.head == ref.head
    assert stub.rng.uniform() == ref.rng.uniform()


def test_survey_makes_no_per_normal_calls(monkeypatch):
    # 48 trials, 96 normals: one draw call plus one per rejected
    # candidate, no per-normal Q or norm (_row_normalized takes one
    # norm per block of operators)
    counts = {"covector_q": 0, "norm": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    ref = _CountingRng(5)
    survey_normals_per_draw(ref, 5, 48)
    rejections = ref.calls - 96
    assert rejections > 0
    monkeypatch.setattr(gravity, "covector_q",
                        counted("covector_q", gravity.covector_q))
    monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
    rng = _CountingRng(5)
    kernel_survey("fr", 5, 48, rng)
    assert counts["covector_q"] == 0
    assert counts["norm"] <= -(-96 // gravity._BLOCK)
    assert rng.calls <= 1 + rejections


@pytest.mark.parametrize("rows, error", [
    ([[1.0, 0.0, 0.0, 0.0], [0.0] * 4, [np.nan, 0.0, 0.0, 0.0]], ZeroCovector),
    ([[1.0, 0.0, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0], [0.0] * 4], BadParams),
])
def test_normal_checks_raise_for_the_first_bad_normal(rows, error):
    with pytest.raises(error):
        _check_normals(np.array(rows))


def test_frames_are_built_once_and_read_only():
    assert eta(6) is eta(6)
    a, b, basis = _frame(6)
    assert _frame(6)[2] is basis
    for x in (eta(6), a, b, basis):
        assert not x.flags.writeable
    assert np.array_equal(basis, pi_from_components(np.eye(sym_dim(6)), 6))
    assert _frame.cache_info().maxsize is not None
    assert eta.cache_info().maxsize is not None
