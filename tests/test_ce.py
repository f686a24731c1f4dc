from __future__ import annotations

import dataclasses
import io
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cewave import lagrangians
from cewave.ce import (
    REPORT_SCHEMA,
    CEReport,
    GridSpec,
    VectorCharData,
    _margin_ok,
    _scalar_sector,
    _tar_terms,
    _worst,
    classify,
    coupling_residuals,
    general_ce_residuals,
    scalar_ce_residual,
    strong_ce_residuals,
)
from cewave.charsys import ROW_BLOCK, cone_coefficients, fresnel_batch
from cewave.cli import main, parse_grid
from cewave.errors import CewaveError, DegeneracyError, EmptyGrid, FloatOverflow
from cewave.jets import DomainMask, InvariantPoint, Jet3, Jet3a
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
    general_ce_raw,
    jet3_model,
    margin_ok_flat,
    nondegenerate_jet,
    report_text,
    synthetic_jet,
    vector_char_data_jet3,
)


# --- scalar condition --------------------------------------------------------

def test_scalar_residual_linear_model_zero():
    model = builtin("scalar-maxwell")
    for z in (-0.3, 0.0, 0.4):
        assert scalar_ce_residual(model.jet_at(InvariantPoint(z=z))) == 0.0


def test_scalar_residual_sqrt_model_zero():
    model = builtin("scalar-bi")
    jet = model.jet_at(InvariantPoint(z=0.3))
    assert scalar_ce_residual(jet) < 1e-12


def test_scalar_residual_square_model():
    model = from_expression("z^2", "scalar")
    jet = model.jet_at(InvariantPoint(z=1.0))
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
            jet = model.jet_at(InvariantPoint(z=float(z)))
            assert scalar_ce_residual(jet) < 1e-12


# --- strong (no-birefringence) conditions ------------------------------------

def test_strong_residuals_born_infeld():
    model = builtin("born-infeld")
    p = InvariantPoint(a=0.5, b=0.4)
    r1, r2 = strong_ce_residuals(model.jet_at(p), p)
    assert r1 < 1e-10 and r2 < 1e-10


def test_strong_residuals_maxwell_exact_zero():
    model = builtin("maxwell")
    for a in (-0.3, 0.0, 1.7):
        p = InvariantPoint(a=a)
        assert strong_ce_residuals(model.jet_at(p), p) == (0.0, 0.0)


def test_strong_residuals_alpha_over_beta():
    model = builtin("alpha-over-beta")
    p = InvariantPoint(a=1.0, b=2.0)
    r1, r2 = strong_ce_residuals(model.jet_at(p), p)
    assert r1 < 1e-10 and r2 < 1e-10


def test_strong_residuals_perturbed_maxwell():
    model = builtin("perturbed-maxwell", [0.1])
    p = InvariantPoint(a=1.0)
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
            p = InvariantPoint(a=float(a))
            _, r2 = strong_ce_residuals(model.jet_at(p), p)
            assert r2 < 1e-14


# --- quartic-cone data --------------------------------------------------------

def test_data_k_recomputation_exact():
    rng = np.random.default_rng(13)
    for _ in range(50):
        jet, point = synthetic_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        assert data.K == jet.faa * jet.fbb - jet.fab * jet.fab


def test_discriminant_identity_quarter_vec1_sq_plus_4_vec2_sq():
    rng = np.random.default_rng(14)
    for _ in range(200):
        jet, point = synthetic_jet(rng)
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
    point = InvariantPoint(a=0.7, b=-0.4)
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
    p = InvariantPoint(a=0.5, b=0.4)
    assert abs(VectorCharData.from_jet(bi.jet_at(p), p).Delta) < 1e-12

    mx = builtin("maxwell")
    p = InvariantPoint(a=1.0)
    assert VectorCharData.from_jet(mx.jet_at(p), p).Delta == 0.0

    pm = builtin("perturbed-maxwell", [0.1])
    p = InvariantPoint(a=1.0, b=1.0)
    jet = pm.jet_at(InvariantPoint(a=1.0))
    assert VectorCharData.from_jet(jet, p).Delta > 1e-4


_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1e300]
_FLOAT = st.one_of(st.sampled_from(_EDGES), st.floats())
_LANES = 3
_LANE = st.lists(_FLOAT, min_size=_LANES, max_size=_LANES).map(np.array)


@st.composite
def _cone_inputs(draw):
    """A third-order jet and an (a[, b]) point: all floats, or arrays of
    _LANES entries (where a jet slot may also stay a float)."""
    arrays = draw(st.booleans())
    slot = st.one_of(_FLOAT, _LANE) if arrays else _FLOAT
    jet = Jet3._of(*(draw(slot) for _ in range(10)))
    coordinate = _LANE if arrays else _FLOAT
    b = draw(st.one_of(st.none(), coordinate))
    return jet, InvariantPoint(a=draw(coordinate), b=b)


def _field_bits(data: VectorCharData) -> dict:
    """Each field's type, dtype and bytes, with every nan written as the
    one nan ``math.nan``: IEEE 754 leaves the sign of a nan result open,
    and CPython's specialized float operations return another nan
    operand than its generic ones."""
    out = {}
    for f in dataclasses.fields(data):
        v = getattr(data, f.name)
        if f.name == "jet":
            out[f.name] = id(v)
            continue
        assert type(v) is float or type(v) is np.ndarray, f.name
        canonical = np.where(np.isnan(v), math.nan, v)
        out[f.name] = (type(v), canonical.dtype.str, canonical.shape,
                       canonical.tobytes())
    return out


@settings(max_examples=600, deadline=None)
@given(inputs=_cone_inputs())
def test_from_jet_keeps_the_bits_of_the_jet3_route(inputs):
    jet, point = inputs
    with np.errstate(all="ignore"):
        got = VectorCharData.from_jet(jet, point)
        want = vector_char_data_jet3(jet, point)
    assert _field_bits(got) == _field_bits(want)


def test_perfect_square_when_discriminant_vanishes():
    model = builtin("born-infeld")
    rng = np.random.default_rng(15)
    for _ in range(10):
        a = float(rng.uniform(-0.4, 1.5))
        b = float(rng.uniform(-0.8, 0.8))
        point = InvariantPoint(a=a, b=b)
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
    point = InvariantPoint(a=0.5, b=0.4)
    with pytest.raises(DegeneracyError):
        general_ce_residuals(
            VectorCharData.from_jet(model.jet_at(point), point))


def test_general_residuals_alpha_only_degenerate():
    # K vanishes identically for any L(a); the birefringent-branch
    # conditions never apply there, whatever the claimed residual values
    model = builtin("perturbed-maxwell", [0.1])
    jet = model.jet_at(InvariantPoint(a=1.0))
    point = InvariantPoint(a=1.0, b=0.5)
    with pytest.raises(DegeneracyError):
        general_ce_residuals(VectorCharData.from_jet(jet, point))


def test_appendix_matches_general_raw_on_random_jets():
    rng = np.random.default_rng(16)
    for _ in range(200):
        jet, point = nondegenerate_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        raw3, raw4, s3, s4 = general_ce_raw(data)
        am1, am2, t1, t2 = appendix_raw(jet, point)
        # the expanded and compact forms are the same polynomial (factor 1)
        assert abs(am1 - raw3) / (s3 + t1) < 1e-10
        assert abs(am2 - raw4) / (s4 + t2) < 1e-10


def test_appendix_and_general_on_third_partials_zero_jet():
    rng = np.random.default_rng(17)
    for _ in range(50):
        jet, point = nondegenerate_jet(rng)
        jet.faaa = jet.faab = jet.fabb = jet.fbbb = 0.0
        data = VectorCharData.from_jet(jet, point)
        raw3, raw4, s3, s4 = general_ce_raw(data)
        am1, am2, _, _ = appendix_raw(jet, point)
        assert abs(am1 - raw3) / (s3 + 1e-30) < 1e-12
        assert abs(am2 - raw4) / (s4 + 1e-30) < 1e-12
        # both reduce to the closed-form non-derivative group
        K = data.K
        want3 = -1.5 * (4 * data.jet.faa + data.jet.fbb) * K**2 * (
            data.jet.fa * data.jet.fab - data.beta * K)
        want4 = -1.5 * K**2 * (
            4 * data.jet.fa + 4 * data.beta * data.jet.fab
            - data.alpha * data.jet.fbb) * (
                data.jet.fa * data.jet.fab - data.beta * K)
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
    jet = types.SimpleNamespace(fa=La, faa=Laa, fab=Lab, fbb=Lbb, faaa=Laaa,
                                faab=Laab, fabb=Labb, fbbb=Lbbb)
    data = VectorCharData(
        jet=jet, alpha=a, beta=b, K=K, P=P, R=R, Delta=P**2 - 4 * K * R,
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
        jet, point = nondegenerate_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        n3, n4 = general_ce_residuals(data)
        a1, a2 = appendix_c_residuals(jet, point)
        for v in (n3, n4, a1, a2):
            assert 0.0 <= v <= 1.0


# --- the CE families in closed form --------------------------------------------

def test_ce_families_meet_their_conditions_symbolically():
    sp = pytest.importorskip("sympy")
    # scalar: w = (L')^-2 has w'' = -2 (L')^-4 (L' L''' - 3 L''^2), so the
    # scalar condition holds exactly where w is linear: L' ~ (1 + c z)^-1/2
    z = sp.symbols("z")
    L1 = sp.diff(sp.Function("L")(z), z)
    L2, L3 = sp.diff(L1, z), sp.diff(L1, z, 2)
    w = L1 ** -2
    assert sp.simplify(sp.diff(w, z, 2)
                       + 2 * L1 ** -4 * (L1 * L3 - 3 * L2 ** 2)) == 0

    # the Born-Infeld family c0 + c1 sqrt(1 + k a - k^2 b^2) meets both
    # strong (no-birefringence) conditions
    a, b, k, c0, c1 = sp.symbols("a b k c0 c1")
    L = c0 + c1 * sp.sqrt(1 + k * a - k ** 2 * b ** 2)
    La, Laa, Lab, Lbb = (sp.diff(L, *v) for v in ([a], [a, a], [a, b],
                                                  [b, b]))
    K = Laa * Lbb - Lab * Lab
    assert sp.simplify(-La * (4 * Laa - Lbb) + 2 * a * K) == 0
    assert sp.simplify(-La * Lab + b * K) == 0


def test_birefringent_born_infeld_family_meets_the_general_conditions():
    # 1 - sqrt(1 + a - c b^2) is birefringent for c != 1, and both
    # third-order conditions of _tar_terms vanish identically in (a, b, c)
    sp = pytest.importorskip("sympy")
    a, b, c = sp.symbols("a b c")
    s = sp.symbols("s", positive=True)
    L = 1 - sp.sqrt(1 + a - c * b ** 2)
    # on 1 + a - c b^2 = s^2 every partial is rational in s
    on_s = {a: s ** 2 - 1 + c * b ** 2}
    jet = types.SimpleNamespace(**{
        "f" + "a" * i + "b" * j: sp.diff(L, *[a] * i, *[b] * j).subs(on_s)
        for i in range(4) for j in range(4) if 1 <= i + j <= 3})
    K, P, R = cone_coefficients(*(sp.diff(L, *v) for v in (
        [a], [a, a], [a, b], [b, b])), a, b)
    data = VectorCharData(
        jet=jet, alpha=on_s[a], beta=b, K=K.subs(on_s), P=P.subs(on_s),
        R=R.subs(on_s), Delta=(P ** 2 - 4 * K * R).subs(on_s),
        **{f"{name}{v}": sp.diff(f, v).subs(on_s)
           for name, f in zip("KPR", (K, P, R)) for v in (a, b)})
    assert data.Delta.subs({s: 1, b: 1, c: 2}) != 0
    for terms in _tar_terms(data):
        assert sp.cancel(sp.nsimplify(sum(terms), rational=True)) == 0


def _signed(lo: float, hi: float):
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(lo, hi)).map(
        lambda pair: pair[0] * pair[1])


# the sqrt families on their default grids: 1 + c2 z, 1 + c2 a and
# 1 + k a - (k b)^2 stay positive on the grid and its guard margin
_CE_FAMILIES = st.one_of(
    st.builds(lambda c0, c1, c2: (
        f"{c0!r} + ({c1!r})*sqrt(1 + ({c2!r})*z)", "scalar", "z"),
        st.floats(-2.0, 2.0), _signed(0.1, 3.0), _signed(0.1, 1.9)),
    st.builds(lambda c0, c1, c2: (
        f"{c0!r} + ({c1!r})*sqrt(1 + ({c2!r})*a)", "alpha", "a"),
        st.floats(-2.0, 2.0), _signed(0.1, 3.0),
        st.one_of(st.floats(-0.45, -0.1), st.floats(0.1, 1.8))),
    st.builds(lambda c0, c1, k: (
        f"{c0!r} + ({c1!r})*sqrt(1 + {k!r}*a - ({k!r}*b)^2)", "alpha-beta",
        "a"),
        st.floats(-2.0, 2.0), _signed(0.1, 3.0), st.floats(0.1, 0.6)),
)


@settings(max_examples=160, deadline=None)
@given(family=_CE_FAMILIES, eps=_signed(0.01, 1.0))
def test_ce_families_classify_as_ce_and_a_cubic_term_breaks_them(family,
                                                                  eps):
    text, kind, variable = family
    assert classify(from_expression(text, kind)).label in ("CE",
                                                           "StronglyCE")
    perturbed = from_expression(f"{text} + ({eps!r})*{variable}^3", kind)
    assert classify(perturbed).label == "NotCE"


# k = n/64 makes k^2 = n^2/4096 a float exactly, so the text is the
# Born-Infeld family itself and not a rounded neighbour of it
@settings(max_examples=200, deadline=None)
@given(c0=st.floats(-2.0, 2.0), c1=_signed(0.1, 3.0), n=st.integers(7, 38),
       seed=st.integers(0, 2 ** 32 - 1))
def test_born_infeld_family_has_no_birefringent_background(c0, c1, n, seed):
    k = n / 64
    model = from_expression(
        f"{c0!r} + ({c1!r})*sqrt(1 + {k!r}*a - {k * k!r}*b^2)", "alpha-beta")
    rng = np.random.default_rng(seed)
    # |a|, |b| <= 0.75 keep 1 + k a - k^2 b^2 >= 0.35 for k <= 0.6
    E, B = rng.uniform(-0.5, 0.5, (2, 50, 3))
    batch = fresnel_batch(model, E, B, rng.normal(size=(50, 3)))
    usable = batch.unusable == 0
    assert usable.any()
    assert not batch.birefringent[usable].any()


# --- mixed coupling ------------------------------------------------------------

def test_coupling_residuals_separable_model():
    model = from_expression(
        "(1 - sqrt(1 + a - b^2)) + (1 - sqrt(1 + 2*z))", "vector-scalar")
    point = InvariantPoint(a=0.3, b=0.2, z=0.1)
    assert coupling_residuals(model, point, model.jet_at(point)) == (0.0, 0.0)


def test_coupling_residuals_bilinear_model():
    model = from_expression("a*z", "vector-scalar")
    point = InvariantPoint(a=0.5, b=0.25, z=0.1)
    ra, rb = coupling_residuals(model, point, model.jet_at(point))
    assert ra == 1.0
    assert rb == 0.0


def test_coupling_residuals_linear_model():
    model = from_expression("a + b + z", "vector-scalar")
    point = InvariantPoint(a=0.5, b=0.25, z=0.1)
    assert coupling_residuals(model, point, model.jet_at(point)) == (0.0, 0.0)


@pytest.mark.parametrize("a, z", [(0.5, 0.25), (0.7, -0.2)])
def test_coupling_residuals_closed_form(a, z):
    # L = a z^2 + b z: L_za = 2z, L_zb = 1, L_zz = 2a and L_aa = L_ab =
    # L_bb = 0, so the residuals are |2z| / (|2z| + |2a|) and
    # 1 / (1 + |2a|)
    model = from_expression("a*z^2 + b*z", "vector-scalar")
    point = InvariantPoint(a=a, b=0.3, z=z)
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


def _rows(report: CEReport) -> list[dict]:
    return json.loads(report_text(report))["per_point"]


def test_classify_separable_vector_scalar():
    model = from_expression(
        "(1 - sqrt(1 + a - b^2)) + (1 - sqrt(1 + 2*z))", "vector-scalar")
    report = classify(model)
    assert report.label == "StronglyCE"
    # the argmax is the point of the worst strong or scalar residual
    worst = max(_rows(report), key=lambda row: max(
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
    worst = max(_rows(report),
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
               for row in _rows(report))


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
        assert "general" in _rows(report)[0]["residuals"]
        assert report.counts["evaluated"] > 0
        return len(calls)

    assert calls_on(7) == calls_on(61) == (2 * 2 + 1) + 1


def test_classify_empty_grid():
    model = builtin("sqrt-family", [0.0, 0.01, -1.0])
    grid = GridSpec({"a": (1.0, 2.0, 5)})
    with pytest.raises(EmptyGrid):
        classify(model, grid=grid)


def test_classify_grid_without_points():
    with pytest.raises(EmptyGrid) as err:
        classify(builtin("maxwell"), grid=GridSpec({"a": (0, 1, 0)}))
    assert str(err.value) == "grid has no points"


def test_classify_degenerate_when_guard_dominates():
    # guard 0.3 - a > 0 excludes two thirds of the default a-range
    report = classify(builtin("sqrt-family", [0.0, 0.3, -1.0]))
    assert report.label == "Degenerate"


@pytest.mark.parametrize("text, kind, worst, arg", [
    ("z^0.5 + z^2", "scalar", 0.9809991795904043, {"z": 0.26999999999999996}),
    ("sqrt(0.3 - a) + 0.3*a*b^2 + 0.2*b^2", "alpha-beta", 0.8269815933362118,
     {"a": -0.5, "b": -0.09999999999999998}),
    ("sqrt(0.3 - a + b^2) + a^2*b", "alpha-beta", 0.9995729536203407,
     {"a": 0.25, "b": -0.9}),
])
def test_failing_sector_is_not_ce_when_the_guard_dominates(text, kind, worst,
                                                           arg):
    # more than half the grid is excluded, and a sector the evaluated
    # points reach fails: NotCE, with that sector's summary
    report = _assert_same_as_per_point(from_expression(text, kind))
    counts = report.counts
    assert counts["guard_excluded"] > 0.5 * counts["total"]
    assert counts["degenerate_skipped"] == 0
    assert report.label == "NotCE"
    assert report.max_residual == pytest.approx(worst, rel=1e-12)
    assert report.argmax_point == arg


def test_report_json_shape():
    report = classify(builtin("maxwell"))
    doc = json.loads(report_text(report))
    assert doc["schema"] == "cewave-report/1"
    assert doc["label"] == "StronglyCE"
    assert "max" in doc["residual_summary"]
    assert "argmax_point" in doc["residual_summary"]
    assert doc["grid"]["a"]["n"] == 21
    assert len(doc["per_point"]) == doc["counts"]["evaluated"]


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_report_text_spells_non_finite_values_as_json_does():
    inf, nan = math.inf, math.nan
    report = CEReport(
        model="m", kind="alpha-beta",
        grid=GridSpec({"a": (0.0, 1.0, 2), "b": (0.0, 1.0, 2)}), tol=1e-9,
        label="NotCE", max_residual=inf, argmax_point={"a": -inf, "b": nan},
        counts={"total": 4, "evaluated": 4},
        points={"b": np.array([inf, -inf, -0.0, 1e-310]),
                "a": np.array([0.0, 1.0, nan, 2.5])},
        residuals={"strong": [np.array([nan, inf, 0.0, 1.0]),
                              np.array([-inf, 5e-324, 1e300, -0.0])],
                   "general": [np.array([inf, 1.0, 2.0, 3.0]),
                               np.array([nan, -inf, 0.5, 0.25])]},
        general_rows=np.array([True, False, True, False]))
    text = report_text(report)
    doc = json.loads(text)
    assert _dumps(doc) == text
    for literal in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324"):
        assert literal in text
    # each row reads back its columns bit for bit; "general" only where
    # general_rows is set
    a, b = (report.points[n].tolist() for n in "ab")
    s0, s1, g0, g1 = (c.tolist() for c in (*report.residuals["strong"],
                                           *report.residuals["general"]))
    want = [{"point": {"a": a[i], "b": b[i]},
             "residuals": ({"general": [g0[i], g1[i]]} if i % 2 == 0 else {})
             | {"strong": [s0[i], s1[i]]}} for i in range(4)]
    assert repr(doc["per_point"]) == repr(want)


# --- the array pass against the per-point loop -------------------------------

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
    assert report_text(got) == _dumps(want)
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


@pytest.mark.parametrize("text, kind, check", [
    # overflowing values: NaN residuals and a NaN maximum
    ("1e200*a*a*1e200", "alpha",
     lambda r: math.isnan(r.max_residual) and r.argmax_point is None),
    # K = 0 on the b = 0 line: rows with and without "general"
    ("-a/2 + 0.1*a^2 + 0.05*b^3", "alpha-beta",
     lambda r: 0 < r.counts["degenerate_skipped"] < r.counts["evaluated"]),
    ("-a/2 + 0.1*a^2 + 0.05*b^3 + 1 - sqrt(1 + 2*z)", "vector-scalar",
     lambda r: 0 < r.counts["degenerate_skipped"]),
    # one-axis grids
    ("z + z^3", "scalar", lambda r: set(r.points) == {"z"}),
    ("-a/2 + 0.1*a^2", "alpha", lambda r: set(r.points) == {"a"}),
], ids=["overflow-nan", "degenerate-rows", "degenerate-rows-vector-scalar",
        "z-axis", "a-axis"])
def test_report_text_matches_per_point_loop(text, kind, check):
    assert check(_assert_same_as_per_point(from_expression(text, kind)))


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


# --- margin probes on the grid's open mesh -----------------------------------

def _assert_same_margin(model, grid):
    """_margin_ok on the grid's open mesh gives the mask of the probes on
    full shifted copies of the flat grid, or raises the same error."""
    names = model.kind.variables
    try:
        want = margin_ok_flat(model, grid.point(names), names)
    except CewaveError as err:
        with pytest.raises(type(err)) as got:
            _margin_ok(model, grid.mesh(names), names)
        assert str(got.value) == str(err)
        return None
    got = _margin_ok(model, grid.mesh(names), names)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


def _resized(kind: str, sizes: list[int]) -> GridSpec:
    return GridSpec({name: (lo, hi, n) for (name, (lo, hi, _)), n
                     in zip(_DYADIC_GRIDS[kind].items(), sizes)})


@settings(max_examples=80, deadline=None)
@given(kind_and_text=_KIND_AND_TEXT,
       sizes=st.lists(st.integers(1, 9), min_size=3, max_size=3))
@example(kind_and_text=("alpha-beta", "(a / b)"), sizes=[11, 9, 1])
@example(kind_and_text=("vector-scalar", "(sqrt((1 + a)) + ((z - 0.25))^-1)"),
         sizes=[6, 1, 5])
def test_margin_on_the_mesh_matches_the_flat_probes(kind_and_text, sizes):
    kind, text = kind_and_text
    model = from_expression(text, kind)
    _assert_same_margin(model, GridSpec(dict(_DYADIC_GRIDS[kind])))
    _assert_same_margin(model, _resized(kind, sizes))


@pytest.mark.parametrize("name, params", [
    *((n, {"sqrt-family": [1.0, 3.0, 1.0],
           "perturbed-maxwell": [0.1]}.get(n)) for n in builtin_names()),
    ("sqrt-family", [0.0, 0.3, -1.0]),
])
@pytest.mark.parametrize("n", [None, 1, 2, 61])
def test_margin_on_the_mesh_matches_the_flat_probes_of_builtins(name, params,
                                                                n):
    # alpha-over-beta's guard reads b alone; born-infeld's squares b
    model = builtin(name, params)
    grid = GridSpec.default(model.kind)
    if n is not None:
        grid = GridSpec({k: (lo, hi, n) for k, (lo, hi, _)
                         in grid.axes.items()})
    _assert_same_margin(model, grid)


@pytest.mark.parametrize("text, kind, grid", [
    # a model that reads fewer variables than its kind has
    ("-a/2 + 0.1*a^2", "alpha-beta", None),
    ("1 - sqrt(1 + 2*z) + 0.1*a", "vector-scalar", None),
    # a constant outside the domain fails at every point alike
    ("sqrt(-1)", "alpha", None),
    ("sqrt(-1) + a*b", "alpha-beta", None),
    ("1/b", "alpha-beta", None),
    # points that the margin alone excludes, along a and along b
    ("sqrt(a - 0.33) + b", "alpha-beta", None),
    ("sqrt(0.33 - b) + a", "alpha-beta", None),
    ("1/b", "alpha-beta", {"a": (-0.5, 2.0, 1), "b": (0.0, 1.0, 1)}),
    ("1/(a*b*z)", "vector-scalar",
     {"a": (-0.5, 2.0, 6), "b": (-1.0, 1.0, 5), "z": (-0.5, 0.5, 5)}),
    ("1 - sqrt(1 + a - b^2) + 0.1*z^2 - z", "vector-scalar", None),
    ("1 - sqrt(1 + a - b^2) + 0.1*z^2 - z", "vector-scalar",
     {"a": (-0.5, 2.0, 1), "b": (-1.0, 1.0, 7), "z": (-0.45, 0.45, 1)}),
])
def test_margin_on_the_mesh_matches_the_flat_probes_of_expressions(text, kind,
                                                                   grid):
    model = from_expression(text, kind)
    _assert_same_margin(model, GridSpec(grid) if grid
                        else GridSpec.default(model.kind))


def test_margin_on_the_mesh_raises_the_flat_overflow():
    model = from_expression("(1e200*a)^2", "alpha")
    grid = GridSpec.default(model.kind)
    with pytest.raises(FloatOverflow) as err:
        _margin_ok(model, grid.mesh(("a",)), ("a",))
    assert str(err.value) == ("a power with exponent 2 leaves the double "
                              "range")
    assert _assert_same_margin(model, grid) is None


@pytest.mark.parametrize("axes", [
    {"a": (0.0, 1.0, 0), "b": (-1.0, 1.0, 5)},
    {"a": (0.0, 1.0, 5), "b": (-1.0, 1.0, 0)},
])
def test_classify_grid_with_an_empty_axis_has_no_points(axes):
    with pytest.raises(EmptyGrid) as err:
        classify(builtin("born-infeld"), grid=GridSpec(axes))
    assert str(err.value) == "grid has no points"


def test_margin_probes_raise_powers_of_axis_values(monkeypatch):
    # a shifted probe moves one axis, so a power of a coordinate sees
    # the axis values, not the whole grid
    model = from_expression("-a/2 + 0.1*a^2 + 0.05*b^2", "alpha-beta")
    grid = GridSpec({"a": (-0.5, 2.0, 61), "b": (-1.0, 1.0, 61)})
    names = model.kind.variables
    sizes = []
    exact = lagrangians.power

    def counting(x, e):
        sizes.append(np.size(x))
        return exact(x, e)

    monkeypatch.setattr(lagrangians, "power", counting)
    mesh_ok = _margin_ok(model, grid.mesh(names), names)
    assert len(sizes) == 2 * (2 * 2 + 1) and max(sizes) == 61
    sizes.clear()
    flat_ok = margin_ok_flat(model, grid.point(names), names)
    assert set(sizes) == {61 * 61}
    assert mesh_ok.tobytes() == flat_ok.tobytes()


@pytest.mark.parametrize("axes", [
    {"z": (-0.45, 0.45, 21)},
    {"a": (-0.5, 2.0, 101), "b": (-1.0, 1.0, 101)},
    {"a": (-0.5, 2.0, 1), "b": (-1.0, 1.0, 7)},
    {"a": (-0.5, 2.0, 6), "b": (-1.0, 1.0, 5), "z": (-0.45, 0.45, 3)},
])
def test_grid_points_are_the_dense_meshgrid_coordinates(axes):
    names = tuple(axes)
    point = GridSpec(axes).point(names)
    dense = np.meshgrid(*(np.linspace(lo, hi, n)
                          for lo, hi, n in axes.values()), indexing="ij")
    for name, coords in zip(names, dense):
        got = point.get(name)
        assert got.dtype == coords.dtype and got.shape == (coords.size,)
        assert got.tobytes() == coords.ravel().tobytes()


# --- reports written in row blocks -------------------------------------------

_BLOCK_EDGES = [0, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]


def _report_doc(report: CEReport) -> dict:
    """The document of a report, built one row at a time from its fields."""
    names = sorted(report.points)
    count = len(report.points[names[0]])
    per_point = [{
        "point": {n: float(report.points[n][i]) for n in names},
        "residuals": {s: [float(c[i]) for c in components]
                      for s, components in report.residuals.items()
                      if s != "general" or report.general_rows[i]},
    } for i in range(count)]
    return {
        "schema": REPORT_SCHEMA, "report": "ce-classification",
        "model": report.model, "kind": report.kind,
        "grid": report.grid.to_json(), "tol": report.tol,
        "label": report.label,
        "residual_summary": {"max": report.max_residual,
                             "argmax_point": report.argmax_point},
        "counts": report.counts, "note": "", "per_point": per_point,
    }


def _draw_columns(rng, count: int, width: int) -> list[np.ndarray]:
    """Columns of repeated grid-like values, signed zeros, subnormals and
    non-finite values."""
    pool = np.array([0.0, -0.0, 1.0, -2.5, 1e-310, 5e-324, 1e300, 0.1,
                     np.nan, np.inf, -np.inf])
    return [np.where(rng.random(count) < 0.5, rng.choice(pool, count),
                     rng.standard_normal(count)) for _ in range(width)]


@pytest.mark.parametrize("general", [None, "mixed", "whole-blocks"],
                         ids=["plain", "general", "whole-blocks"])
@pytest.mark.parametrize("count", _BLOCK_EDGES)
def test_report_text_is_json_dumps_across_block_edges(count, general):
    rng = np.random.default_rng(count)
    a, b = _draw_columns(rng, count, 2)
    residuals = {"coupling": _draw_columns(rng, count, 2),
                 "scalar": _draw_columns(rng, count, 1),
                 "strong": _draw_columns(rng, count, 2)}
    general_rows = None
    if general:
        residuals["general"] = _draw_columns(rng, count, 2)
        # runs of both kinds of row, switching inside blocks; the rows on
        # each side of a block edge differ
        general_rows = rng.random(count) < 0.5
        if count > ROW_BLOCK:
            general_rows[ROW_BLOCK - 1:ROW_BLOCK + 1] = [True, False]
    if general == "whole-blocks":
        # every row of the first block carries the general sector, none of
        # the second, every row of the third
        general_rows = np.arange(count) // ROW_BLOCK % 2 == 0
    report = CEReport(
        model="m", kind="vector-scalar",
        grid=GridSpec({"a": (0.0, 1.0, count), "b": (0.0, 1.0, 1),
                       "z": (0.0, 0.0, 1)}),
        tol=1e-9, label="NotCE", max_residual=np.nan, argmax_point=None,
        counts={"total": count, "evaluated": count},
        points={"z": np.zeros(count), "b": b, "a": a},
        residuals=residuals, general_rows=general_rows)
    want = _dumps(_report_doc(report))
    assert report_text(report) == want
    fh = io.StringIO()
    report.write_json(fh)
    assert fh.getvalue() == want


@pytest.mark.parametrize("text, kind, grid", [
    ("-a/2 + 0.1*a^2", "alpha", "a:-0.5:2:{count}"),
    # every row carries the general sector
    ("1 - sqrt(1 + a - 0.5*b^2)", "alpha-beta", "a:0:2:{count},b:0.5:0.5:1"),
], ids=["alpha", "general"])
@pytest.mark.parametrize("count", _BLOCK_EDGES[1:])
def test_ce_check_file_is_json_dumps_across_block_edges(count, text, kind,
                                                        grid, tmp_path,
                                                        capsys):
    grid = grid.format(count=count)
    out = tmp_path / "r.json"
    assert main(["ce", "check", "--expr", text, "--kind", kind, "--grid",
                 grid, "--out", str(out)]) == 0
    capsys.readouterr()
    report = classify(from_expression(text, kind), parse_grid(grid))
    assert report.counts["evaluated"] == count
    want = _dumps(_report_doc(report))
    assert report_text(report) == want
    assert out.read_text() == want


def test_writing_a_report_holds_a_bounded_share_of_it(tmp_path):
    # 2 MB, fixed before the first run: the report is about 7.9 MB, and
    # writing it as one text peaked at about 3.3 times that
    report = classify(builtin("born-infeld"),
                      parse_grid("a:-0.5:2:201,b:-1:1:201"))
    out = tmp_path / "r.json"
    with open(out, "w") as fh:
        tracemalloc.start()
        try:
            report.write_json(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert out.stat().st_size > 7_000_000
    assert peak < 2_000_000


# --- readers of second-order and one-variable jets against their Jet3 routes --

def _column_bits(values) -> list:
    """Each value's type, shape, NaN positions and the bits of the rest."""
    out = []
    for v in values:
        a = np.asarray(v, dtype=float)
        nan = np.isnan(a)
        out.append((type(v), a.shape, nan.tobytes(),
                    np.where(nan, 0.0, a).tobytes()))
    return out


def _sector_outcome(call):
    try:
        with DomainMask(), np.errstate(all="ignore"):
            return _column_bits(call())
    except CewaveError as exc:
        return type(exc), str(exc)


def _assert_readers_match_jet3(model, point) -> None:
    """The coupling and z sectors give the columns of their Jet3 routes,
    NaN for NaN, at the grid's points and at single points."""
    jet3 = jet3_model(model)
    points = [point, *(point.take(i) for i in (0, -1, 7))]
    for p in points:
        try:
            with DomainMask(), np.errstate(all="ignore"):
                jet, old = model.jet_at(p), jet3.jet_at(p)
        except CewaveError:
            continue
        assert type(jet) is (Jet3a if model.kind is Kind.Scalar else Jet3)
        sectors = [_scalar_sector]
        if model.kind is Kind.VectorScalar:
            sectors.append(coupling_residuals)
        for sector in sectors:
            got = _sector_outcome(lambda: sector(model, p, jet))
            want = _sector_outcome(lambda: sector(jet3, p, old))
            assert got == want, sector.__name__


# models that read none of a, b or z, or only some of them, and chain
# rules whose mixed slots the couplings read
_PARTIAL_MODELS = ["1", "a", "b", "z", "b*b", "a*z", "0.5*z^2 - z",
                   "sqrt(1 + a) - z", "1/(a + 1)", "(b - 2)^-1 + z^3",
                   "sqrt(2 + a*z + b)", "(3 + a - b*z)^-1.5"]


@pytest.mark.parametrize("text", _PARTIAL_MODELS)
def test_coupling_and_z_sector_match_their_jet3_routes(text):
    grid = GridSpec(dict(_DYADIC_GRIDS["vector-scalar"]))
    _assert_readers_match_jet3(from_expression(text, "vector-scalar"),
                               grid.point(("a", "b", "z")))


@settings(max_examples=120, deadline=None)
@given(kind_and_text=_KIND_AND_TEXT.filter(
    lambda kt: kt[0] in ("scalar", "vector-scalar")))
@example(kind_and_text=("vector-scalar", "(sqrt((1 + a)) + ((z - 0.25))^-1)"))
@example(kind_and_text=("scalar", "((1 + (2 * z)))^-0.5"))
def test_readers_of_grammar_draws_match_their_jet3_routes(kind_and_text):
    kind, text = kind_and_text
    names = Kind(kind).variables
    grid = GridSpec(dict(_DYADIC_GRIDS[kind]))
    _assert_readers_match_jet3(from_expression(text, kind), grid.point(names))


@pytest.mark.parametrize("model", [
    builtin("scalar-bi"), builtin("scalar-maxwell"),
    from_expression("1 - sqrt(1 + a - b^2) + 0.1*z^2 - z", "vector-scalar"),
    from_expression("0.7*a*z + b", "vector-scalar"),
    from_expression("-0.5*a + 0.25*a^3 - b^2 + z + 2*z^2",
                    "vector-scalar"),
    from_expression("b", "vector-scalar"),
    from_expression("1e200*z*z*z", "vector-scalar"),
    from_expression("z + z^3", "scalar"),
    from_expression("2", "scalar"),
], ids=lambda m: m.name)
def test_classify_reports_the_bytes_of_the_jet3_routes(model):
    assert report_text(classify(model)) == report_text(
        classify(jet3_model(model)))


# --- a NaN residual fails its sector -------------------------------------------

def test_worst_is_nan_when_a_taking_part_row_is_nan():
    nan = math.nan
    first, second = np.array([0.1, nan, 0.3]), np.array([0.2, 0.0, nan])
    assert _worst([first], None)[1] is None
    assert _worst([second, first], None)[1] is None
    keep = np.array([True, False, False])
    assert _worst([first, second], keep) == (0.2, 0)
    assert _worst([np.array([0.1, 0.3, 0.3])], None) == (0.3, 1)
    worst, index = _worst([first], np.zeros(3, dtype=bool))
    assert math.isnan(worst) and index is None


@pytest.mark.parametrize("text, kind, sector, nan_rows", [
    # the rows of 21, 441 and 2205 whose sector residual is NaN; the
    # others pass
    ("1e200*a*a*a", "alpha", "strong", 20),
    ("1e160*(a*a*a + b*b*b)", "alpha-beta", "strong", 420),
    ("1e200*z*z*z", "vector-scalar", "scalar", 1764),
    # more than half the points fail the margin: NaN fails, so the
    # label stays NotCE and is not Degenerate
    ("1e200*a*a*a + sqrt(a - 1)", "alpha", "strong", None),
])
def test_a_nan_residual_fails_its_sector(text, kind, sector, nan_rows):
    model = from_expression(text, kind)
    report = classify(model)
    assert report.label == "NotCE"
    assert math.isnan(report.max_residual) and report.argmax_point is None
    rows = np.logical_or.reduce([np.isnan(c)
                                 for c in report.residuals[sector]])
    assert rows.any()
    if nan_rows is not None:
        assert int(rows.sum()) == nan_rows
    else:
        assert report.counts["guard_excluded"] > report.counts["total"] / 2
    _assert_same_as_per_point(model)
