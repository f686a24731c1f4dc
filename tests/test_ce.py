from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cewave.ce import (
    GridSpec,
    VectorCharData,
    _tar_terms,
    classify,
    coupling_residuals,
    discriminant,
    general_ce_raw,
    general_ce_residuals,
    scalar_ce_residual,
    strong_ce_residuals,
)
from cewave.charsys import cone_coefficients
from cewave.errors import CewaveError, DegeneracyError, EmptyGrid
from cewave.jets import InvariantPoint, Jet3
from cewave.lagrangians import (
    Kind,
    LagrangianModel,
    builtin,
    builtin_names,
    from_expression,
)

from oracles import (
    _am_groups,
    appendix_c_residuals,
    appendix_raw,
    classify_per_point,
)


def _synthetic_jet(rng) -> tuple[Jet3, InvariantPoint]:
    vals = rng.uniform(-2.0, 2.0, size=12)
    jet = Jet3(f=vals[0], fa=vals[1], fb=vals[2], faa=vals[3], fab=vals[4],
               fbb=vals[5], faaa=vals[6], faab=vals[7], fabb=vals[8],
               fbbb=vals[9])
    point = InvariantPoint.alpha_beta(float(vals[10]), float(vals[11]))
    return jet, point


def _nondegenerate_jet(rng) -> tuple[Jet3, InvariantPoint]:
    while True:
        jet, point = _synthetic_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        if (abs(data.K) > 0.05 * (data.k_scale() + 1e-30)
                and abs(data.Delta) > 0.05 * (data.delta_scale() + 1e-30)):
            return jet, point


# --- scalar condition --------------------------------------------------------

def test_scalar_residual_linear_model_zero():
    model = builtin("scalar-maxwell")
    for z in (-0.3, 0.0, 0.4):
        assert scalar_ce_residual(model.jet_at(InvariantPoint.scalar(z))) == 0.0


def test_scalar_residual_sqrt_model_zero():
    model = builtin("scalar-bi")
    jet = model.jet_at(InvariantPoint.scalar(0.3))
    assert scalar_ce_residual(jet) < 1e-12


def test_scalar_residual_square_model():
    model = from_expression("z^2", "scalar")
    jet = model.jet_at(InvariantPoint.scalar(1.0))
    # L'=2, L''=2, L'''=0: raw residual -12, term sum 12
    assert jet.fa * jet.faaa - 3.0 * jet.faa**2 == -12.0
    assert scalar_ce_residual(jet) == pytest.approx(1.0)


def test_scalar_sqrt_family_random_params():
    rng = np.random.default_rng(11)
    for _ in range(5):
        k = float(rng.uniform(-1, 1))
        d = float(rng.uniform(0.5, 1.5))
        c = float(rng.uniform(0.1, 1.0)) * float(rng.choice([-1.0, 1.0]))
        model = from_expression(f"{k!r} + sqrt({d!r} + {c!r}*z)", "scalar")
        for z in rng.uniform(-0.45, 0.45, size=20):
            jet = model.jet_at(InvariantPoint.scalar(float(z)))
            assert scalar_ce_residual(jet) < 1e-12


# --- strong (no-birefringence) conditions ------------------------------------

def test_strong_residuals_born_infeld():
    model = builtin("born-infeld")
    p = InvariantPoint.alpha_beta(0.5, 0.4)
    r1, r2 = strong_ce_residuals(model.jet_at(p), p)
    assert r1 < 1e-10 and r2 < 1e-10


def test_strong_residuals_maxwell_exact_zero():
    model = builtin("maxwell")
    for a in (-0.3, 0.0, 1.7):
        p = InvariantPoint.alpha(a)
        assert strong_ce_residuals(model.jet_at(p), p) == (0.0, 0.0)


def test_strong_residuals_alpha_over_beta():
    model = builtin("alpha-over-beta")
    p = InvariantPoint.alpha_beta(1.0, 2.0)
    r1, r2 = strong_ce_residuals(model.jet_at(p), p)
    assert r1 < 1e-10 and r2 < 1e-10


def test_strong_residuals_perturbed_maxwell():
    model = builtin("perturbed-maxwell", [0.1])
    p = InvariantPoint.alpha(1.0)
    r1, r2 = strong_ce_residuals(model.jet_at(p), p)
    assert r1 > 0.1
    assert r2 == 0.0


def test_second_strong_residual_vanishes_for_alpha_models():
    rng = np.random.default_rng(12)
    models = [builtin("perturbed-maxwell", [0.3]),
              builtin("sqrt-family", [0.0, 2.0, 1.0]),
              builtin("maxwell")]
    for model in models:
        for a in rng.uniform(-0.4, 1.5, size=30):
            p = InvariantPoint.alpha(float(a))
            _, r2 = strong_ce_residuals(model.jet_at(p), p)
            assert r2 < 1e-14


# --- quartic-cone data --------------------------------------------------------

def test_data_k_recomputation_exact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        jet, point = _synthetic_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        assert data.K == jet.faa * jet.fbb - jet.fab * jet.fab


def test_discriminant_identity_quarter_vec1_sq_plus_4_vec2_sq():
    rng = np.random.default_rng(14)
    for _ in range(200):
        jet, point = _synthetic_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        a, b = data.alpha, data.beta
        vec1 = -jet.fa * (4.0 * jet.faa - jet.fbb) + 2.0 * a * data.K
        vec2 = -jet.fa * jet.fab + b * data.K
        want = 0.25 * vec1**2 + 4.0 * vec2**2
        scale = data.P**2 + abs(4.0 * data.K * data.R) + 1e-30
        assert abs(data.Delta - want) / scale < 1e-12
        assert data.Delta >= -scale * 1e-12


def test_data_gradients_match_finite_differences():
    model = from_expression(
        "a^2*b + a*b^2 + a^3 - 0.3*b^3 + 0.5*a - 0.2*b + a*b", "alpha-beta")
    point = InvariantPoint.alpha_beta(0.7, -0.4)
    data = VectorCharData.from_jet(model.jet_at(point), point)
    h = 1e-6

    def kpr(p: InvariantPoint) -> tuple[float, float, float]:
        d = VectorCharData.from_jet(model.jet_at(p), p)
        return d.K, d.P, d.R

    for idx, (ga, gb) in enumerate([(data.Ka, data.Kb), (data.Pa, data.Pb),
                                    (data.Ra, data.Rb)]):
        fa = (kpr(point.shifted("a", h))[idx]
              - kpr(point.shifted("a", -h))[idx]) / (2 * h)
        fb = (kpr(point.shifted("b", h))[idx]
              - kpr(point.shifted("b", -h))[idx]) / (2 * h)
        assert ga == pytest.approx(fa, rel=1e-7, abs=1e-7)
        assert gb == pytest.approx(fb, rel=1e-7, abs=1e-7)


def test_discriminant_values():
    bi = builtin("born-infeld")
    p = InvariantPoint.alpha_beta(0.5, 0.4)
    assert abs(discriminant(bi.jet_at(p), p)) < 1e-12

    mx = builtin("maxwell")
    p = InvariantPoint.alpha(1.0)
    assert discriminant(mx.jet_at(p), p) == 0.0

    pm = builtin("perturbed-maxwell", [0.1])
    p = InvariantPoint.alpha_beta(1.0, 1.0)
    jet = pm.jet_at(InvariantPoint.alpha(1.0))
    assert discriminant(jet, p) > 1e-4


def test_perfect_square_when_discriminant_vanishes():
    model = builtin("born-infeld")
    rng = np.random.default_rng(15)
    for _ in range(10):
        a = float(rng.uniform(-0.4, 1.5))
        b = float(rng.uniform(-0.8, 0.8))
        point = InvariantPoint.alpha_beta(a, b)
        d = VectorCharData.from_jet(model.jet_at(point), point)
        for _ in range(50):
            u = float(rng.uniform(-3, 3))
            g = float(rng.uniform(-3, 3))
            H = d.K * u * u + u * g * d.P + g * g * d.R
            h_min = -g * d.P / (2.0 * d.K)
            square = d.K * (u - h_min) ** 2
            scale = abs(d.K * u * u) + abs(u * g * d.P) + abs(g * g * d.R) + 1e-30
            assert abs(H - square) / scale < 1e-8


# --- general third-order conditions -------------------------------------------

def test_general_residuals_born_infeld_degenerate():
    model = builtin("born-infeld")
    point = InvariantPoint.alpha_beta(0.5, 0.4)
    with pytest.raises(DegeneracyError):
        general_ce_residuals(
            VectorCharData.from_jet(model.jet_at(point), point))


def test_general_residuals_alpha_only_degenerate():
    # K vanishes identically for any L(a); the birefringent-branch
    # conditions never apply there, whatever the claimed residual values
    model = builtin("perturbed-maxwell", [0.1])
    jet = model.jet_at(InvariantPoint.alpha(1.0))
    point = InvariantPoint.alpha_beta(1.0, 0.5)
    with pytest.raises(DegeneracyError):
        general_ce_residuals(VectorCharData.from_jet(jet, point))


def test_appendix_matches_general_raw_on_random_jets():
    rng = np.random.default_rng(16)
    for _ in range(200):
        jet, point = _nondegenerate_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        raw3, raw4, s3, s4 = general_ce_raw(data)
        am1, am2, t1, t2 = appendix_raw(jet, point)
        # the expanded and compact forms are the same polynomial (factor 1)
        assert abs(am1 - raw3) / (s3 + t1) < 1e-10
        assert abs(am2 - raw4) / (s4 + t2) < 1e-10


def test_appendix_and_general_on_third_partials_zero_jet():
    rng = np.random.default_rng(17)
    for _ in range(50):
        jet, point = _nondegenerate_jet(rng)
        jet.faaa = jet.faab = jet.fabb = jet.fbbb = 0.0
        data = VectorCharData.from_jet(jet, point)
        raw3, raw4, s3, s4 = general_ce_raw(data)
        am1, am2, _, _ = appendix_raw(jet, point)
        assert abs(am1 - raw3) / (s3 + 1e-30) < 1e-12
        assert abs(am2 - raw4) / (s4 + 1e-30) < 1e-12
        # both reduce to the closed-form non-derivative group
        K = data.K
        want3 = -1.5 * (4 * data.Laa + data.Lbb) * K**2 * (
            data.La * data.Lab - data.beta * K)
        want4 = -1.5 * K**2 * (
            4 * data.La + 4 * data.beta * data.Lab
            - data.alpha * data.Lbb) * (data.La * data.Lab - data.beta * K)
        assert raw3 == pytest.approx(want3, rel=1e-10, abs=1e-12)
        assert raw4 == pytest.approx(want4, rel=1e-10, abs=1e-12)


def test_expanded_conditions_match_compact_forms_symbolically():
    # Over symbolic L-partials, with the (a, b)-gradients of K, P, R taken
    # by the chain rule, the expanded groups and the compact K/P/R forms
    # are the same two polynomials (overall factor 1).
    sp = pytest.importorskip("sympy")
    La, Laa, Lab, Lbb, Laaa, Laab, Labb, Lbbb, a, b = sp.symbols(
        "La Laa Lab Lbb Laaa Laab Labb Lbbb a b")
    d_a = {La: Laa, Laa: Laaa, Lab: Laab, Lbb: Labb, a: 1, b: 0}
    d_b = {La: Lab, Laa: Laab, Lab: Labb, Lbb: Lbbb, a: 0, b: 1}

    def chain(f, d):
        return sum(sp.diff(f, v) * dv for v, dv in d.items())

    K, P, R = cone_coefficients(La, Laa, Lab, Lbb, a, b)
    data = VectorCharData(
        alpha=a, beta=b, La=La, Lb=0, Laa=Laa, Lab=Lab, Lbb=Lbb,
        Laaa=Laaa, Laab=Laab, Labb=Labb, Lbbb=Lbbb, K=K, P=P, R=R,
        p=2 * Laa, q=La + b * Lab, r=Lab, s=b * Lbb / 2,
        Delta=P**2 - 4 * K * R,
        Ka=chain(K, d_a), Kb=chain(K, d_b), Pa=chain(P, d_a),
        Pb=chain(P, d_b), Ra=chain(R, d_a), Rb=chain(R, d_b))
    t3, t4 = _tar_terms(data)
    g1, g2 = _am_groups(data)
    for compact, expanded in ((t3, g1), (t4, g2)):
        difference = sp.nsimplify(sum(compact) - sum(expanded), rational=True)
        assert sp.expand(difference) == 0


def test_general_residuals_normalized_range():
    rng = np.random.default_rng(18)
    for _ in range(100):
        jet, point = _nondegenerate_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        n3, n4 = general_ce_residuals(data)
        a1, a2 = appendix_c_residuals(jet, point)
        for v in (n3, n4, a1, a2):
            assert 0.0 <= v <= 1.0


# --- mixed coupling ------------------------------------------------------------

def test_coupling_residuals_separable_model():
    model = from_expression(
        "(1 - sqrt(1 + a - b^2)) + (1 - sqrt(1 + 2*z))", "vector-scalar")
    point = InvariantPoint.full(0.3, 0.2, 0.1)
    assert coupling_residuals(model, point, model.jet_at(point)) == (0.0, 0.0)


def test_coupling_residuals_bilinear_model():
    model = from_expression("a*z", "vector-scalar")
    point = InvariantPoint.full(0.5, 0.25, 0.1)
    ra, rb = coupling_residuals(model, point, model.jet_at(point))
    assert ra == 1.0
    assert rb == 0.0


def test_coupling_residuals_linear_model():
    model = from_expression("a + b + z", "vector-scalar")
    point = InvariantPoint.full(0.5, 0.25, 0.1)
    assert coupling_residuals(model, point, model.jet_at(point)) == (0.0, 0.0)


@pytest.mark.parametrize("a, z", [(0.5, 0.25), (0.7, -0.2)])
def test_coupling_residuals_closed_form(a, z):
    # L = a z^2 + b z: L_za = 2z, L_zb = 1, L_zz = 2a and L_aa = L_ab =
    # L_bb = 0, so the residuals are |2z| / (|2z| + |2a|) and
    # 1 / (1 + |2a|)
    model = from_expression("a*z^2 + b*z", "vector-scalar")
    point = InvariantPoint.full(a, 0.3, z)
    ra, rb = coupling_residuals(model, point, model.jet_at(point))
    assert ra == abs(2 * z) / (abs(2 * z) + abs(2 * a))
    assert rb == 1.0 / (1.0 + abs(2 * a))


# --- classification -------------------------------------------------------------

def test_classify_born_infeld_strongly_ce():
    report = classify(builtin("born-infeld"))
    assert report.label == "StronglyCE"
    assert report.max_residual < 1e-10
    assert report.counts["total"] == 441


def test_classify_maxwell_strongly_ce():
    report = classify(builtin("maxwell"))
    assert report.label == "StronglyCE"
    assert report.max_residual < 1e-14


def test_classify_alpha_over_beta_strongly_ce():
    report = classify(builtin("alpha-over-beta"))
    assert report.label == "StronglyCE"
    assert report.max_residual < 1e-10
    # the b=0 grid line is excluded by the domain guard
    assert report.counts["guard_excluded"] == 21


def test_classify_perturbed_maxwell_not_ce():
    report = classify(builtin("perturbed-maxwell", [0.1]))
    assert report.label == "NotCE"


def test_classify_sqrt_family_ce_but_not_strongly():
    report = classify(builtin("sqrt-family", [1.0, 3.0, 1.0]))
    assert report.label == "CE"


def test_classify_scalar_sqrt_family_strongly_ce():
    model = from_expression("1 + sqrt(1 - 2*z)", "scalar",
                            name="scalar-sqrt-family[1,1,-2]")
    report = classify(model)
    assert report.label == "StronglyCE"


def test_classify_scalar_cubic_not_ce():
    report = classify(from_expression("z + z^3", "scalar"))
    assert report.label == "NotCE"


def test_classify_separable_vector_scalar():
    model = from_expression(
        "(1 - sqrt(1 + a - b^2)) + (1 - sqrt(1 + 2*z))", "vector-scalar")
    report = classify(model)
    assert report.label == "StronglyCE"
    # the argmax is the point of the worst strong or scalar residual
    worst = max(report.per_point, key=lambda row: max(
        *row["residuals"]["strong"], *row["residuals"]["scalar"]))
    assert report.argmax_point == worst["point"]
    assert report.max_residual == max(*worst["residuals"]["strong"],
                                      *worst["residuals"]["scalar"])


@pytest.mark.parametrize("expr, failing", [
    ("a*z + b", "coupling"),
    # no coupling, but the scalar sector L(z) = 0.1 z^2 - z fails
    ("-a/2 + 0.1*z^2 - z", "scalar"),
    ("1 - sqrt(1 + a - b^2) + 0.1*z^2 - z", "scalar"),
    # couplings and scalar sector pass; the birefringent branch fails
    ("-a/2 + 0.1*a^2 + 0.05*b^2 + 1 - sqrt(1 + 2*z)", "general"),
], ids=["coupled", "maxwell-plus-failing-z", "born-infeld-plus-failing-z",
        "failing-general-branch"])
def test_classify_coupled_vector_scalar_not_ce(expr, failing):
    report = classify(from_expression(expr, "vector-scalar"))
    assert report.label == "NotCE"
    assert report.max_residual == pytest.approx(1.0)
    worst = max(report.per_point,
                key=lambda row: max(row["residuals"][failing]))
    assert report.argmax_point == worst["point"]


def test_classify_vector_scalar_ce_on_the_general_branch():
    # couplings and the scalar sector pass, the strong sector fails and
    # the birefringent-branch conditions hold
    model = from_expression(
        "1 - sqrt(1 + a - 0.5*b^2) + (1 - sqrt(1 + 2*z))", "vector-scalar")
    report = classify(model)
    assert report.label == "CE"
    assert report.max_residual < 1e-12
    assert report.argmax_point == {"a": -0.5, "b": -0.9, "z": -0.225}
    assert report.counts == {"total": 2205, "evaluated": 1756,
                             "guard_excluded": 449, "degenerate_skipped": 0}
    assert all(set(row["residuals"]) == {"coupling", "strong", "scalar",
                                         "general"}
               for row in report.per_point)


def test_classify_evaluates_one_primary_jet_per_point():
    # One array pass per grid: the model function runs once on the grid
    # and on each of its 2 * dim margin-shifted copies, and once for the
    # primary jet of every evaluated point, whatever the grid size; the
    # general branch reuses the jets of the strong pass.
    base = from_expression("-a/2 + 0.1*a^2 + 0.05*b^2", "alpha-beta")

    def calls_on(n: int) -> int:
        calls = []

        def counting(env):
            calls.append(env)
            return base.fn(env)

        model = LagrangianModel(name=base.name, kind=base.kind, fn=counting)
        report = classify(model, grid=GridSpec({"a": (-0.5, 2.0, n),
                                                "b": (-1.0, 1.0, n)}))
        assert report.label == "NotCE"
        assert "general" in report.per_point[0]["residuals"]
        assert report.counts["evaluated"] > 0
        return len(calls)

    assert calls_on(7) == calls_on(61) == (2 * 2 + 1) + 1


def test_classify_y_dependent_not_ce_without_evaluation():
    base = builtin("born-infeld")
    model = LagrangianModel(name="bi-with-y", kind=Kind.VectorScalar,
                            fn=lambda env: base.fn(env),
                            depends_on_y=True)
    report = classify(model)
    assert report.label == "NotCE"
    assert report.counts["evaluated"] == 0
    assert report.per_point == []


def test_classify_empty_grid():
    model = builtin("sqrt-family", [0.0, 0.01, -1.0])
    grid = GridSpec({"a": (1.0, 2.0, 5)})
    with pytest.raises(EmptyGrid):
        classify(model, grid=grid)


def test_classify_degenerate_when_guard_dominates():
    # guard 0.3 - a > 0 excludes two thirds of the default a-range
    report = classify(builtin("sqrt-family", [0.0, 0.3, -1.0]))
    assert report.label == "Degenerate"


def test_report_json_shape():
    report = classify(builtin("maxwell"))
    doc = report.to_json()
    assert doc["schema"] == "cewave-report/1"
    assert doc["label"] == "StronglyCE"
    assert "max" in doc["residual_summary"]
    assert "argmax_point" in doc["residual_summary"]
    assert doc["grid"]["a"]["n"] == 21
    assert len(doc["per_point"]) == doc["counts"]["evaluated"]


# --- the array pass against the per-point loop -------------------------------

def _nan_as_text(doc):
    # NaN != NaN, so compare report documents with NaN spelled out
    if isinstance(doc, float) and math.isnan(doc):
        return "nan"
    if isinstance(doc, dict):
        return {k: _nan_as_text(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(_nan_as_text(v) for v in doc)
    return doc


def _assert_same_as_per_point(model, grid=None):
    """classify gives the per-point loop's report, byte for byte as the
    command line writes it, or raises the same error."""
    try:
        want = classify_per_point(model, grid)
    except CewaveError as err:
        with pytest.raises(type(err)) as got:
            classify(model, grid)
        assert str(got.value) == str(err)
        return None
    got = classify(model, grid)
    assert _nan_as_text(got.to_json()) == _nan_as_text(want.to_json())
    assert (json.dumps(got.to_json(), sort_keys=True, indent=2)
            == json.dumps(want.to_json(), sort_keys=True, indent=2))
    return got


@pytest.mark.parametrize("name, params", [
    *((n, {"sqrt-family": [1.0, 3.0, 1.0],
           "perturbed-maxwell": [0.1]}.get(n)) for n in builtin_names()),
    ("sqrt-family", [0.0, 0.3, -1.0]),
])
def test_classify_builtin_matches_per_point_loop(name, params):
    _assert_same_as_per_point(builtin(name, params))


@pytest.mark.parametrize("text, kind", [
    ("a/b", "alpha-beta"),
    ("sqrt(a - 0.3)", "alpha"),
    ("(1 + 2*z)^-0.5", "scalar"),
])
def test_classify_excluding_points_matches_per_point_loop(text, kind):
    report = _assert_same_as_per_point(from_expression(text, kind))
    assert 0 < report.counts["guard_excluded"] < report.counts["total"]


@pytest.mark.parametrize("text, kind", [
    # every point evaluates as floats but not as jets (|value| < 1e-300)
    ("1/(1e-300*(2.5 - a))", "alpha"),
    # the primary jets evaluate; the z-jets of the couplings do not
    ("a + b + 1/(1e-300*z)", "vector-scalar"),
    ("1/0 + a", "alpha"),
    ("sqrt(a - 5)", "alpha"),
])
def test_classify_raises_what_the_per_point_loop_raises(text, kind):
    _assert_same_as_per_point(from_expression(text, kind))


# Dyadic grids and constants: sums and products of grid values are exact,
# so a divisor is either exactly zero or far from it, and no draw overflows.
_DYADIC_GRIDS = {
    "scalar": {"z": (-0.5, 0.5, 17)},
    "alpha": {"a": (-0.5, 2.0, 11)},
    "alpha-beta": {"a": (-0.5, 2.0, 11), "b": (-1.0, 1.0, 9)},
    "vector-scalar": {"a": (-0.5, 2.0, 6), "b": (-1.0, 1.0, 5),
                      "z": (-0.5, 0.5, 5)},
}
_CONSTANTS = ("0.25", "0.5", "0.75", "1", "2")
_EXPONENTS = ("2", "3", "0.5", "1.5", "-0.5", "-1", "-2")


def _expressions(names: tuple[str, ...], depth: int):
    leaf = st.sampled_from(names + _CONSTANTS)
    if depth == 0:
        return leaf
    sub = _expressions(names, depth - 1)
    return st.one_of(
        leaf,
        st.builds("({} {} {})".format, sub, st.sampled_from("+-*/"), sub),
        st.builds("sqrt({})".format, sub),
        st.builds("({})^{}".format, sub, st.sampled_from(_EXPONENTS)),
    )


_KIND_AND_TEXT = st.sampled_from(sorted(_DYADIC_GRIDS)).flatmap(
    lambda kind: st.tuples(
        st.just(kind), _expressions(Kind(kind).variables, 3)))


@settings(max_examples=80, deadline=None)
@given(kind_and_text=_KIND_AND_TEXT)
@example(kind_and_text=("alpha-beta", "(a / b)"))
@example(kind_and_text=("alpha", "sqrt((a - 0.25))"))
@example(kind_and_text=("scalar", "((1 + (2 * z)))^-0.5"))
@example(kind_and_text=("vector-scalar",
                        "(sqrt((1 + a)) + ((z - 0.25))^-1)"))
def test_classify_grammar_draws_match_per_point_loop(kind_and_text):
    kind, text = kind_and_text
    grid = GridSpec(dict(_DYADIC_GRIDS[kind]))
    _assert_same_as_per_point(from_expression(text, kind), grid)
