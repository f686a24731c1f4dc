from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cewave.errors import DomainError
from cewave.jets import DomainMask, InvariantPoint, Jet3, power, sqrt
from cewave.lagrangians import builtin, builtin_names, from_expression

from oracles import jet_check_fd


def _bi_partials(a: float, b: float) -> dict[str, float]:
    # closed-form partials of 1 - sqrt(1 + a - b^2), worked out by hand
    w = math.sqrt(1.0 + a - b * b)
    return {
        "f": 1.0 - w,
        "fa": -1.0 / (2.0 * w),
        "fb": b / w,
        "faa": 1.0 / (4.0 * w**3),
        "fab": -b / (2.0 * w**3),
        "fbb": (1.0 + a) / w**3,
        "faaa": -3.0 / (8.0 * w**5),
        "faab": 3.0 * b / (4.0 * w**5),
        "fabb": -1.0 / (2.0 * w**3) - 3.0 * b * b / (2.0 * w**5),
        "fbbb": 3.0 * b * (1.0 + a) / w**5,
    }


def test_maxwell_jet_is_linear():
    jet = builtin("maxwell").jet_at(InvariantPoint.alpha(2.0))
    assert jet.f == -1.0
    assert jet.fa == -0.5
    for slot in ("fb", "faa", "fab", "fbb", "faaa", "faab", "fabb", "fbbb"):
        assert getattr(jet, slot) == 0.0


def test_born_infeld_jet_matches_closed_form():
    for (a, b) in [(0.0, 0.0), (0.3, 0.2), (1.5, -0.7), (-0.2, 0.35)]:
        jet = builtin("born-infeld").jet_at(InvariantPoint.alpha_beta(a, b))
        want = _bi_partials(a, b)
        for slot, expect in want.items():
            got = getattr(jet, slot)
            assert got == pytest.approx(expect, rel=1e-13, abs=1e-13), slot


def test_born_infeld_origin_example():
    jet = builtin("born-infeld").jet_at(InvariantPoint.alpha_beta(0.0, 0.0))
    assert jet.f == pytest.approx(0.0, abs=1e-15)
    assert jet.fa == pytest.approx(-0.5, rel=1e-14)
    assert jet.fb == pytest.approx(0.0, abs=1e-15)
    assert jet.faa == pytest.approx(0.25, rel=1e-14)


def test_scalar_square_jet():
    model = from_expression("z^2", "scalar")
    jet = model.jet_at(InvariantPoint.scalar(1.0))
    assert jet.f == 1.0
    assert jet.fa == 2.0
    assert jet.faa == 2.0
    assert jet.faaa == 0.0


def test_fd_crosscheck_born_infeld():
    dev = jet_check_fd(builtin("born-infeld"),
                       InvariantPoint.alpha_beta(0.3, 0.2), step=1e-4)
    assert dev < 1e-6


def test_fd_crosscheck_maxwell_exact():
    dev = jet_check_fd(builtin("maxwell"), InvariantPoint.alpha(0.7),
                       step=1e-4)
    assert dev < 1e-11


def test_fd_step_crossing_pole_raises():
    model = builtin("alpha-over-beta")
    with pytest.raises(DomainError):
        jet_check_fd(model, InvariantPoint.alpha_beta(1.0, 1e-4), step=1e-4)


def test_sqrt_negative_raises():
    model = builtin("born-infeld")
    with pytest.raises(DomainError):
        model.jet_at(InvariantPoint.alpha_beta(-3.0, 0.0))


def test_division_by_zero_value_raises():
    one = Jet3.constant(1.0)
    zero = Jet3.variable(0.0, "a")
    with pytest.raises(DomainError):
        one / zero


# --- property tests ---------------------------------------------------------

_coeff = st.floats(min_value=-2.0, max_value=2.0,
                   allow_nan=False, allow_infinity=False)


def _random_cubic(c: list[float], x: Jet3 | float, y: Jet3 | float):
    # dense bivariate cubic with supplied coefficients
    return (c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y
            + c[5] * y * y + c[6] * x * x * x + c[7] * x * x * y
            + c[8] * x * y * y + c[9] * y * y * y)


@settings(max_examples=1000, deadline=None)
@given(cf=st.lists(_coeff, min_size=10, max_size=10),
       cg=st.lists(_coeff, min_size=10, max_size=10),
       x0=_coeff, y0=_coeff)
def test_product_rule_property(cf, cg, x0, y0):
    x = Jet3.variable(x0, "a")
    y = Jet3.variable(y0, "b")
    f = _random_cubic(cf, x, y)
    g = _random_cubic(cg, x, y)
    if not isinstance(f, Jet3):
        f = Jet3.constant(f)
    if not isinstance(g, Jet3):
        g = Jet3.constant(g)
    prod = f * g

    # independent Leibniz combination, written out slot by slot
    want = Jet3(
        f.f * g.f,
        f.fa * g.f + f.f * g.fa,
        f.fb * g.f + f.f * g.fb,
        f.faa * g.f + 2 * f.fa * g.fa + f.f * g.faa,
        f.fab * g.f + f.fa * g.fb + f.fb * g.fa + f.f * g.fab,
        f.fbb * g.f + 2 * f.fb * g.fb + f.f * g.fbb,
        f.faaa * g.f + 3 * f.faa * g.fa + 3 * f.fa * g.faa + f.f * g.faaa,
        f.faab * g.f + f.faa * g.fb + 2 * f.fab * g.fa + 2 * f.fa * g.fab
        + f.fb * g.faa + f.f * g.faab,
        f.fabb * g.f + 2 * f.fab * g.fb + f.fbb * g.fa + f.fa * g.fbb
        + 2 * f.fb * g.fab + f.f * g.fabb,
        f.fbbb * g.f + 3 * f.fbb * g.fb + 3 * f.fb * g.fbb + f.f * g.fbbb,
    )
    for got, expect in zip(prod.as_tuple(), want.as_tuple()):
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(cf=st.lists(_coeff, min_size=10, max_size=10), x0=_coeff, y0=_coeff)
def test_sqrt_square_recombination(cf, x0, y0):
    x = Jet3.variable(x0, "a")
    y = Jet3.variable(y0, "b")
    u = _random_cubic(cf, x, y) + 5.0  # keep the value safely positive
    if not isinstance(u, Jet3):
        u = Jet3.constant(u)
    if u.f < 0.5:
        return
    r = u.sqrt()
    back = r * r
    for got, expect in zip(back.as_tuple(), u.as_tuple()):
        scale = 1.0 + abs(expect)
        assert abs(got - expect) / scale < 1e-12


def test_division_roundtrip():
    x = Jet3.variable(0.7, "a")
    y = Jet3.variable(-0.4, "b")
    f = 1.0 + x * x + y + x * y * y
    g = 2.0 + x + y * y
    h = f / g
    back = h * g
    for got, expect in zip(back.as_tuple(), f.as_tuple()):
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_half_integer_power_matches_sqrt():
    x = Jet3.variable(1.3, "a")
    u = 2.0 + x * x
    direct = u ** 0.5
    via_sqrt = u.sqrt()
    for got, expect in zip(direct.as_tuple(), via_sqrt.as_tuple()):
        assert got == pytest.approx(expect, rel=1e-13)


def test_negative_integer_power():
    x = Jet3.variable(0.8, "a")
    u = 1.0 + x
    inv2 = u ** -2
    expect = 1.0 / (u * u)
    for got, want in zip(inv2.as_tuple(), expect.as_tuple()):
        assert got == pytest.approx(want, rel=1e-13)


# --- array slots and scalar callers ------------------------------------------

@pytest.mark.parametrize("e", [2, 3, 1.5])
def test_power_applies_python_pow_to_each_entry(e):
    xs = np.random.default_rng(61).uniform(0.0, 3.0, size=200_000)
    want = np.array([x ** e for x in xs.tolist()])
    # numpy's vectorized pow rounds some of these entries differently
    # (a few percent on AVX-512 hosts); the helper must match Python
    # everywhere, those entries included
    numpy_differs = np.power(xs, e) != want
    assert np.array_equal(power(xs[numpy_differs], e), want[numpy_differs])
    assert np.array_equal(power(xs, e), want)


def test_power_domain_on_arrays():
    xs = np.array([-1.0, 0.0, 4.0])
    assert np.isnan(power(xs, 0.5)[0]) and power(xs, 0.5)[2] == 2.0
    with pytest.raises(DomainError):
        power(xs, -1)
    with DomainMask() as mask:
        out = power(xs, -1)
    assert mask.bad.tolist() == [False, True, False]
    assert out[0] == -1.0 and np.isnan(out[1]) and out[2] == 0.25


def test_array_jet_matches_float_jets_bit_for_bit():
    model = builtin("born-infeld")
    a = np.linspace(-0.4, 1.5, 40)
    b = np.linspace(-0.5, 0.5, 40)
    jet = model.jet_at(InvariantPoint(a=a, b=b))
    for i in range(len(a)):
        single = model.jet_at(InvariantPoint.alpha_beta(a[i], b[i]))
        assert [s[i] for s in jet.as_tuple()] == list(single.as_tuple())


def test_array_domain_failures_mark_entries():
    model = builtin("born-infeld")
    point = InvariantPoint(a=np.array([0.0, -3.0, 0.5]),
                           b=np.array([0.0, 0.0, 0.1]))
    with pytest.raises(DomainError):
        model.jet_at(point)
    with DomainMask() as mask:
        jet = model.jet_at(point)
    assert mask.bad.tolist() == [False, True, False]
    assert np.isnan(jet.fa[1]) and not np.isnan(jet.fa[[0, 2]]).any()


_VALID = {"a": 0.3, "b": 0.5, "z": 0.1}
_PARAMS = {"sqrt-family": [1.0, 3.0, 1.0], "perturbed-maxwell": [0.1]}


@pytest.mark.parametrize("name", builtin_names())
def test_scalar_callers_get_float_slots(name):
    model = builtin(name, _PARAMS.get(name))
    point = model.point(*(_VALID[v] for v in model.kind.variables))
    assert all(type(v) is float for v in model.jet_at(point).as_tuple())
    assert type(model.value_at(point)) is float
    assert type(model.guard_ok(point)) is bool


@pytest.mark.parametrize("call, message", [
    (lambda: sqrt(-1.0), "sqrt of a non-positive value -1"),
    (lambda: Jet3.variable(-1.0).sqrt(),
     "sqrt of a non-positive jet value -1"),
    (lambda: Jet3.constant(1.0) / Jet3.variable(0.0),
     "division by a jet whose value is zero"),
    (lambda: Jet3.variable(-2.0) ** 0.5,
     "fractional power of a non-positive jet value -2"),
    (lambda: from_expression("a^0.5", "alpha").value_at(
        InvariantPoint.alpha(-2.0)),
     "fractional power of a non-positive value -2"),
    (lambda: from_expression("1/a", "alpha").value_at(
        InvariantPoint.alpha(0.0)),
     "division by zero while evaluating 1/a"),
    (lambda: from_expression("a^-1", "alpha").value_at(
        InvariantPoint.alpha(0.0)),
     "division by zero while evaluating a^-1"),
    # the fresnel scan skips the zero background of alpha-over-beta on this
    (lambda: builtin("alpha-over-beta").jet_at(
        InvariantPoint.alpha_beta(0.0, 0.0)),
     "division by a jet whose value is zero"),
    (lambda: builtin("alpha-over-beta").value_at(
        InvariantPoint.alpha_beta(1.0, 0.0)),
     "division by zero while evaluating alpha-over-beta"),
], ids=["sqrt", "jet-sqrt", "jet-division", "jet-fractional-power",
        "fractional-power", "division", "negative-power", "builtin-jet",
        "builtin-value"])
def test_scalar_domain_errors_keep_their_messages(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
