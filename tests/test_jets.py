from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cewave import jets
from cewave.ce import GridSpec
from cewave.errors import DomainError, FloatOverflow, KindError
from cewave.jets import (
    DomainMask,
    InvariantPoint,
    Jet1,
    Jet2,
    Jet2ab,
    Jet3,
    Jet3a,
    divide,
    power,
    sqrt,
)
from cewave.lagrangians import (
    Kind,
    builtin,
    builtin_names,
    from_expression,
    parse_lagrangian,
)

from oracles import jet3_at, jet_check_fd


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
    jet = builtin("maxwell").jet_at(InvariantPoint(a=2.0))
    assert jet.f == -1.0
    assert jet.fa == -0.5
    for slot in ("fb", "faa", "fab", "fbb", "faaa", "faab", "fabb", "fbbb"):
        assert getattr(jet, slot) == 0.0


def test_born_infeld_jet_matches_closed_form():
    for (a, b) in [(0.0, 0.0), (0.3, 0.2), (1.5, -0.7), (-0.2, 0.35)]:
        jet = builtin("born-infeld").jet_at(InvariantPoint(a=a, b=b))
        want = _bi_partials(a, b)
        for slot, expect in want.items():
            got = getattr(jet, slot)
            assert got == pytest.approx(expect, rel=1e-13, abs=1e-13), slot


def test_born_infeld_origin_example():
    jet = builtin("born-infeld").jet_at(InvariantPoint(a=0.0, b=0.0))
    assert jet.f == pytest.approx(0.0, abs=1e-15)
    assert jet.fa == pytest.approx(-0.5, rel=1e-14)
    assert jet.fb == pytest.approx(0.0, abs=1e-15)
    assert jet.faa == pytest.approx(0.25, rel=1e-14)


def test_scalar_square_jet():
    model = from_expression("z^2", "scalar")
    jet = model.jet_at(InvariantPoint(z=1.0))
    assert jet.f == 1.0
    assert jet.fa == 2.0
    assert jet.faa == 2.0
    assert jet.faaa == 0.0


def test_fd_crosscheck_born_infeld():
    dev = jet_check_fd(builtin("born-infeld"),
                       InvariantPoint(a=0.3, b=0.2), step=1e-4)
    assert dev < 1e-6


def test_fd_crosscheck_maxwell_exact():
    dev = jet_check_fd(builtin("maxwell"), InvariantPoint(a=0.7),
                       step=1e-4)
    assert dev < 1e-11


def test_fd_step_crossing_pole_raises():
    model = builtin("alpha-over-beta")
    with pytest.raises(DomainError):
        jet_check_fd(model, InvariantPoint(a=1.0, b=1e-4), step=1e-4)


def test_sqrt_negative_raises():
    model = builtin("born-infeld")
    with pytest.raises(DomainError):
        model.jet_at(InvariantPoint(a=-3.0, b=0.0))


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


# sqrt-then-square misses by 2.7e-12 in fbbb here: the terms of r*r
# reach about 5.4e3 and cancel to u.fbbb = 0
_SQRT_CANCELLING = dict(cf=[-2.0, -1.875, 0.0, -1.9375, 0.0, -2.0, 2.0,
                            -1.96875, -1.9375, 0.0], x0=2.0, y0=-1.9375)


@settings(max_examples=300, deadline=None)
@given(cf=st.lists(_coeff, min_size=10, max_size=10), x0=_coeff, y0=_coeff)
@example(**_SQRT_CANCELLING)
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
    # each slot of r*r rounds relative to its terms, which can cancel:
    # the matching slot of |r|*|r| sums their magnitudes
    r_abs = Jet3(*(abs(v) for v in r.as_tuple()))
    terms = (r_abs * r_abs).as_tuple()
    for got, expect, size in zip(back.as_tuple(), u.as_tuple(), terms):
        assert abs(got - expect) / (1.0 + size) < 1e-12


def test_sqrt_matches_exact_derivatives():
    sp = pytest.importorskip("sympy")
    u = _random_cubic(_SQRT_CANCELLING["cf"],
                      Jet3.variable(_SQRT_CANCELLING["x0"], "a"),
                      Jet3.variable(_SQRT_CANCELLING["y0"], "b")) + 5.0
    a, b = sp.symbols("a b")
    f, fa, fb, faa, fab, fbb, faaa, faab, fabb, fbbb = (
        sp.Rational(v) for v in u.as_tuple())
    taylor = (f + fa * a + fb * b + faa * a**2 / 2 + fab * a * b
              + fbb * b**2 / 2 + faaa * a**3 / 6 + faab * a**2 * b / 2
              + fabb * a * b**2 / 2 + fbbb * b**3 / 6)
    root = sp.sqrt(taylor)
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (3, 0), (2, 1), (1, 2), (0, 3)]
    for got, (i, j) in zip(u.sqrt().as_tuple(), orders):
        exact = root
        for var, k in ((a, i), (b, j)):
            if k:
                exact = sp.diff(exact, var, k)
        exact = float(sp.N(exact.subs({a: 0, b: 0}), 40))
        assert abs(got - exact) <= 1e-15 * abs(exact)


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


def _random_jets(rng, lo: float, hi: float) -> list:
    """A Jet3 in a and b and a Jet2, each once with float slots and once
    with array slots, every slot drawn from [lo, hi)."""
    out = []
    for size in (None, 7):
        slots = rng.uniform(lo, hi, (10,) if size is None else (10, size))
        slots = [s if size else float(s) for s in slots]
        out += [Jet3(*slots), Jet2._of(*slots[:3])]
    return out


def _same_jet_bits(x, y) -> bool:
    return all(np.asarray(a, dtype=float).tobytes()
               == np.asarray(b, dtype=float).tobytes()
               for a, b in zip(x.as_tuple(), y.as_tuple(), strict=True))


def _counted_products(monkeypatch, cls) -> list:
    products = []
    mul = cls.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    return products


def test_square_and_cube_keep_their_products(monkeypatch):
    # classify-grid raises array jets to ^2 and ^3: their bits and their
    # number of products stay those of x*x and (x*x)*x
    for x in _random_jets(np.random.default_rng(71), -1.5, 1.5):
        square, cube = x * x, (x * x) * x
        products = _counted_products(monkeypatch, type(x))
        assert _same_jet_bits(x ** 2, square) and len(products) == 1
        assert _same_jet_bits(x ** 3, cube) and len(products) == 3
        assert _same_jet_bits(x ** -2, 1.0 / square)
        assert x ** 1 is x
        monkeypatch.undo()


@pytest.mark.parametrize("n", [4, 5, 7, 8, 13, 64, 100])
def test_integer_powers_agree_with_repeated_products(n):
    # positive slots: no term of the product rule cancels another, so
    # both routes stay within a few n ulps of the exact slots
    for x in _random_jets(np.random.default_rng(n), 0.5, 1.5):
        repeated = x
        for _ in range(n - 1):
            repeated = repeated * x
        for got, want in zip((x ** n).as_tuple(), repeated.as_tuple()):
            np.testing.assert_allclose(got, want, rtol=4 * n * 2.0 ** -52,
                                       atol=0.0)


def test_integer_powers_take_logarithmically_many_products(monkeypatch):
    x = Jet3.variable(0.999, "a")
    products = _counted_products(monkeypatch, Jet3)
    out = x ** 100_000_000
    # 27 bits: 26 squarings and one more product per further set bit
    assert len(products) == 26 + bin(100_000_000).count("1") - 1
    assert out.as_tuple() == Jet3.constant(0.0).as_tuple()


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


# --- power on arrays: each distinct entry once ----------------------------------

_CUT = jets._DEDUPE_SIZE
# shapes on both sides of the cutoff; each array is drawn with its last
# axis twice as long, then cut, sliced or transposed to its shape
_POWER_SHAPES = [(1,), (21,), (_CUT - 1,), (_CUT,), (_CUT + 1,), (1000,),
                 (3, 7), (15, 17), (16, 16), (21, 21), (40, 25)]
_POWER_EXPONENTS = [0, 2, 3, -1, -2, 0.5, 1.5]
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1.3e-154,
    1e103, 6e102, 1e154, 1.4e154, 1e308, 1.7976931348623157e308, -1e154,
    1.0, -1.0, 0.1, 2.0, -2.5])
_POWER_VALUES = _EDGE_FLOATS | st.floats()
_POWER_INTS = (st.integers(-50, 50) | st.integers(-2**63, 2**63 - 1)
               | st.sampled_from([2**53 + 1, -(2**53 + 1), 2**62 + 3]))


@st.composite
def _power_arrays(draw):
    """Arrays with repeated entries: picks from a small pool of floats or
    of integers, or a grid axis tiled the way a grid column repeats."""
    shape = draw(st.sampled_from(_POWER_SHAPES))
    layout = draw(st.sampled_from(["flat", "sliced", "transposed"]))
    wide = shape[:-1] + (2 * shape[-1],)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = draw(st.sampled_from(["floats", "ints", "grid"]))
    if source == "grid":
        lo, hi = draw(st.tuples(_POWER_VALUES, _POWER_VALUES))
        with np.errstate(all="ignore"):
            axis = np.linspace(lo, hi, draw(st.integers(1, 101)))
        xs = np.resize(axis, wide)
    else:
        values, dtype = ((_POWER_VALUES, float) if source == "floats"
                         else (_POWER_INTS, np.int64))
        pool = np.array(draw(st.lists(values, min_size=1, max_size=8)),
                        dtype=dtype)
        xs = rng.choice(pool, wide)
    if layout == "flat":
        return np.ascontiguousarray(xs[..., :shape[-1]])
    if layout == "sliced":
        return xs[..., ::2]
    return np.ascontiguousarray(xs[..., ::2].T).T


def _per_entry_power(xs, e, masked):
    """What ``power(xs, e)`` gives, worked out one entry at a time with
    Python's pow: the result's bits and the mask's bits, or the error."""
    values = [float(x) for x in xs.ravel().tolist()]
    zero = [e < 0 and x == 0.0 for x in values]
    if any(zero) and not masked:
        return DomainError, "zero raised to a negative power"
    try:
        out = [math.nan if z or (e != int(e) and x < 0.0) else pow(x, float(e))
               for x, z in zip(values, zero)]
    except OverflowError:
        return (FloatOverflow,
                f"a power with exponent {e:g} leaves the double range")
    bad = np.array(zero).reshape(xs.shape) if any(zero) else False
    return (np.array(out).reshape(xs.shape).view(np.int64).tolist(),
            np.asarray(bad).tolist())


def _power_outcome(xs, e, masked):
    """``power(xs, e)`` in the terms of ``_per_entry_power``."""
    try:
        if masked:
            with DomainMask() as mask:
                out = power(xs, e)
            bad = mask.bad
        else:
            out, bad = power(xs, e), False
    except (DomainError, FloatOverflow) as exc:
        return type(exc), str(exc)
    assert out.shape == xs.shape and out.dtype == float
    return out.view(np.int64).tolist(), np.asarray(bad).tolist()


@settings(max_examples=600, deadline=None)
@given(xs=_power_arrays(), e=st.sampled_from(_POWER_EXPONENTS),
       masked=st.booleans())
def test_power_on_arrays_is_per_entry_pow_bit_for_bit(xs, e, masked):
    before = xs.copy()
    assert _power_outcome(xs, e, masked) == _per_entry_power(xs, e, masked)
    assert np.array_equal(xs, before, equal_nan=True)


@pytest.mark.parametrize("size", [21, 1000])
@pytest.mark.parametrize("values, e, masked, error", [
    ([1e200, 2.0, 1e200, 3.0], 2, False, FloatOverflow),
    ([2.0, 0.0, -0.0, 3.0, 0.0], -1, False, DomainError),
    ([2.0, 0.0, -0.0, 3.0, 0.0], -2, True, None),
    ([-2.0, 0.0, 4.0, -0.0, math.nan], 0.5, True, None),
])
def test_power_errors_and_masks_match_per_entry_pow(values, e, masked,
                                                     error, size):
    xs = np.resize(np.array(values), size)
    got = _power_outcome(xs, e, masked)
    assert got == _per_entry_power(xs, e, masked)
    assert got[0] is error if error else isinstance(got[0], list)


def _count_pow(monkeypatch):
    calls = []

    def counted(x, e):
        calls.append(x)
        return pow(x, e)
    monkeypatch.setattr(jets, "pow", counted, raising=False)
    return calls


def test_power_of_a_grid_column_raises_each_distinct_entry_once(monkeypatch):
    grid = GridSpec({"a": (-0.5, 2.0, 101), "b": (-1.0, 1.0, 101)})
    b = grid.point(("a", "b")).b
    calls = _count_pow(monkeypatch)
    out = power(b, 2)
    assert len(calls) == 101
    assert out.tolist() == [x ** 2 for x in b.tolist()]


def test_power_below_the_cutoff_raises_every_entry(monkeypatch):
    xs = np.zeros(21)
    calls = _count_pow(monkeypatch)
    power(xs, 3)
    assert len(calls) == 21


# zero to a negative power raises, as a float or as an array entry
@pytest.mark.parametrize("x, e", [
    (x, e) for x in (-2.0, -math.inf, -1e-300, -0.0, 4.0, math.inf)
    for e in (0.5, 1.5, -0.5) if not (x == 0.0 and e < 0)])
def test_fractional_power_of_a_float_has_the_bits_of_its_array_entry(x, e):
    got = power(x, e)
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack(
        "<d", power(np.array([x]), e)[0])
    # a negative base has no real fractional power; -0.0 is not negative
    # and gives 0.0
    assert math.isnan(got) is (x < 0.0)


def test_sqrt_family_value_is_nan_below_its_branch_point():
    # sqrt(0 + 1 * a) at a = -2: the float path returned a complex number
    model = builtin("sqrt-family", [0.0, 1.0, 1.0])
    assert math.isnan(model.value_at(InvariantPoint(a=-2.0)))


def test_array_jet_matches_float_jets_bit_for_bit():
    model = builtin("born-infeld")
    a = np.linspace(-0.4, 1.5, 40)
    b = np.linspace(-0.5, 0.5, 40)
    jet = model.jet_at(InvariantPoint(a=a, b=b))
    for i in range(len(a)):
        single = model.jet_at(InvariantPoint(a=a[i], b=b[i]))
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
        InvariantPoint(a=-2.0)),
     "fractional power of a non-positive value -2"),
    (lambda: from_expression("1/a", "alpha").value_at(
        InvariantPoint(a=0.0)),
     "division by zero while evaluating 1/a"),
    (lambda: from_expression("a^-1", "alpha").value_at(
        InvariantPoint(a=0.0)),
     "division by zero while evaluating a^-1"),
    # the fresnel scan skips the zero background of alpha-over-beta on this
    (lambda: builtin("alpha-over-beta").jet_at(
        InvariantPoint(a=0.0, b=0.0)),
     "division by a jet whose value is zero"),
    (lambda: builtin("alpha-over-beta").value_at(
        InvariantPoint(a=1.0, b=0.0)),
     "division by zero while evaluating alpha-over-beta"),
], ids=["sqrt", "jet-sqrt", "jet-division", "jet-fractional-power",
        "fractional-power", "division", "negative-power", "builtin-jet",
        "builtin-value"])
def test_scalar_domain_errors_keep_their_messages(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


# --- the order-2 jet in z ------------------------------------------------------

def _leading_bits(jet) -> tuple[bytes, ...]:
    # bits, so that -0.0 and 0.0 differ
    return tuple(struct.pack("<d", v) for v in (jet.f, jet.fa, jet.faa))


def _outcome(call):
    """The leading-slot bits of a jet, or the type and text of what the
    call raised."""
    try:
        return _leading_bits(call())
    except Exception as exc:
        return type(exc), str(exc)


def _assert_jet2_matches_jet_at(model, z: float) -> None:
    want = _outcome(lambda: model.jet_at(InvariantPoint(z=z)))
    got = _outcome(lambda: model.jet2_at(z))
    if want[0] is FloatOverflow and got != want:
        # only Jet3's third derivative left the double range
        assert isinstance(got[0], bytes)
        return
    assert got == want


_Z_POINTS = [0.0, -0.0, 0.3, -0.3, -0.5, -0.5 + 1e-17, -0.7, 1e-310, 2.5,
             -4.0]


@pytest.mark.parametrize("name", ["scalar-bi", "scalar-maxwell"])
def test_jet2_matches_jet_at_on_scalar_builtins(name):
    model = builtin(name)
    zs = _Z_POINTS + np.random.default_rng(17).uniform(-1.0, 1.0,
                                                         200).tolist()
    for z in zs:
        _assert_jet2_matches_jet_at(model, z)
    if name == "scalar-bi":
        with pytest.raises(DomainError, match="sqrt of a non-positive"):
            model.jet2_at(-0.7)


_LITERAL = st.floats(0.1, 3.0).map(repr)
_EXPONENT = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "0.5", "1.5",
                             "-0.5", "-1.5"])


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"sqrt({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, _EXPONENT).map(lambda t: f"({t[0]})^{t[1]}"))


_SCALAR_EXPR = st.recursive(st.one_of(st.just("z"), _LITERAL), _grow,
                            max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(text=_SCALAR_EXPR, z=st.floats(-3.0, 3.0))
@example(text="sqrt(1 + 2*z)", z=-0.5)
@example(text="(z - 0.5)^-2 / sqrt(z)", z=-0.0)
@example(text="(z * z)^1.5 + 1/z", z=0.0)
def test_jet2_matches_jet_at_on_expressions(text, z):
    model = from_expression(text, "scalar")
    _assert_jet2_matches_jet_at(model, z)


def test_jet2_dispatch_and_kind():
    z = Jet2.variable(0.5)
    assert _leading_bits(sqrt(z)) == _leading_bits(
        sqrt(Jet3.variable(0.5)))
    assert _leading_bits(divide(1.0, z)) == _leading_bits(
        divide(1.0, Jet3.variable(0.5)))
    with pytest.raises(DomainError, match="division by a jet"):
        divide(z, Jet2.variable(0.0))
    with pytest.raises(KindError):
        builtin("maxwell").jet2_at(0.5)


# --- float operands ------------------------------------------------------------

_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
          2.2250738585072014e-308, 1e-300, -1e-300, 9.99e-301, 1e300]
_SLOT = st.one_of(st.sampled_from(_EDGES), st.floats())
_LANES = 3


def _slots(size: int, arrays: bool):
    if arrays:
        return st.lists(st.lists(_SLOT, min_size=_LANES, max_size=_LANES).map(
            np.array), min_size=size, max_size=size)
    return st.lists(_SLOT, min_size=size, max_size=size)


_JET = st.one_of(
    *(st.tuples(st.just(cls), _slots(len(cls.constant(0.0).as_tuple()),
                                     arrays))
      for cls in (Jet3, Jet2) for arrays in (False, True))).map(
    lambda cs: cs[0]._of(*cs[1]))
_NUMBER = st.one_of(_SLOT, _SLOT.map(np.float64), st.booleans(),
                    st.integers(-10, 10), st.integers(-2 ** 1100, 2 ** 1100))
_OPERAND = st.one_of(_NUMBER, st.lists(_SLOT, min_size=_LANES,
                                       max_size=_LANES).map(np.array))
# each rule with the route it took before: the operand coerced to a
# constant jet k; a reflected + or * ran as ``jet + k`` or ``jet * k``
_RULES = {
    "jet + c": (lambda j, c: j + c, lambda j, k: j + k),
    "c + jet": (lambda j, c: c + j, lambda j, k: j + k),
    "jet - c": (lambda j, c: j - c, lambda j, k: j - k),
    "c - jet": (lambda j, c: c - j, lambda j, k: k - j),
    "jet * c": (lambda j, c: j * c, lambda j, k: j * k),
    "c * jet": (lambda j, c: c * j, lambda j, k: j * k),
    "jet / c": (lambda j, c: j / c, lambda j, k: j / k),
    "c / jet": (lambda j, c: c / j, lambda j, k: k / j),
}


def _slot_bits(jet) -> tuple:
    """The jet's type and the bits of its slots, with every nan written
    as the one nan ``math.nan``: IEEE 754 leaves the sign of a nan result
    open, and CPython's specialized float operations return another nan
    operand than its generic ones."""
    out = []
    for v in jet.as_tuple():
        assert type(v) is float or type(v) is np.ndarray
        if type(v) is float:
            out.append(struct.pack("<d", math.nan if math.isnan(v) else v))
        else:
            canonical = np.where(np.isnan(v), math.nan, v)
            out.append((v.dtype.str, v.shape, canonical.tobytes()))
    return type(jet), tuple(out)


def _rule_outcome(call):
    try:
        with np.errstate(all="ignore"):
            return _slot_bits(call())
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=1500, deadline=None)
@given(jet=_JET, c=_OPERAND, rule=st.sampled_from(sorted(_RULES)))
@example(jet=Jet2._of(-0.0, -0.0, math.inf), c=-0.0, rule="jet * c")
@example(jet=Jet3.variable(2.0), c=-0.0, rule="c / jet")
@example(jet=Jet2.variable(0.5), c=1e-300, rule="jet / c")
@example(jet=Jet2.variable(0.5), c=9.99e-301, rule="jet / c")
@example(jet=Jet3.variable(0.5), c=2 ** 1100, rule="c - jet")
def test_float_operands_match_the_constant_jet_bit_for_bit(jet, c, rule):
    # the rule on a plain operand runs the operations of the rule on the
    # explicit constant jet of that operand, so every slot keeps its bits,
    # signs of zero included, a nan stays a nan, and every error keeps its
    # type and text
    op, before = _RULES[rule]
    got = _rule_outcome(lambda: op(jet, c))
    want = _rule_outcome(lambda: before(jet, jet.constant(c)))
    assert got == want


def test_float_operands_build_no_constant_jet(monkeypatch):
    built = []
    for cls in (Jet3, Jet2):
        constant = cls.constant
        monkeypatch.setattr(cls, "constant", classmethod(
            lambda cls, c, constant=constant: built.append(c)
            or constant(c)))
    for jet in (Jet3.variable(0.5), Jet2.variable(0.5)):
        for op, _ in _RULES.values():
            assert isinstance(op(jet, 2.0), type(jet))
    assert built == []


# --- first-order jets ---------------------------------------------------------

_JET1_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__pow__")


def test_jet1_binds_the_shared_rules():
    for name in _JET1_OPS:
        assert vars(Jet1)[name] is vars(Jet3)[name] is vars(Jet2)[name]
    for name in ("__truediv__", "__rtruediv__"):
        assert name not in vars(Jet1)
    assert Jet1 in jets.JETS


_ZEROS7 = (0.0,) * 7
_JET1 = st.one_of(_slots(3, False), _slots(3, True)).map(
    lambda slots: Jet1._of(*slots))
# a Jet1 and its Jet3 with the same f, fa and fb; the Jet3's other slots
# are drawn too, since no first-order slot may depend on them
_JET1_PAIR = st.tuples(_JET1, _slots(7, False)).map(
    lambda t: (t[0], Jet3._of(*t[0].as_tuple(), *t[1])))
_JET1_OPERAND = st.one_of(_OPERAND.map(lambda c: (c, c)), _JET1_PAIR)
_JET1_RULES = {
    "jet + c": lambda j, c: j + c,
    "c + jet": lambda j, c: c + j,
    "jet - c": lambda j, c: j - c,
    "c - jet": lambda j, c: c - j,
    "jet * c": lambda j, c: j * c,
    "c * jet": lambda j, c: c * j,
    "-jet": lambda j, c: -j,
    **{f"jet ** {n}": lambda j, c, n=n: j ** n for n in range(6)},
}


def _first_order(jet):
    return Jet1._of(*jet.as_tuple()[:3])


@settings(max_examples=1500, deadline=None)
@given(pair=_JET1_PAIR, c=_JET1_OPERAND, rule=st.sampled_from(
    sorted(_JET1_RULES)))
@example(pair=(Jet1.variable(0.5, "b"), Jet3.variable(0.5, "b")),
         c=(-0.0, -0.0), rule="c * jet")
@example(pair=(Jet1._of(math.inf, -0.0, math.nan),
               Jet3._of(math.inf, -0.0, math.nan, *_ZEROS7)),
         c=(Jet1._of(0.0, math.inf, -math.inf),
            Jet3._of(0.0, math.inf, -math.inf, *_ZEROS7)), rule="jet * c")
def test_jet1_matches_the_first_order_slots_of_jet3_bit_for_bit(pair, c,
                                                                rule):
    # the same rule on the Jet3 computes f, fa and fb by the same
    # operations, so a Jet1 keeps their bits, signs of zero included, and
    # every error keeps its type and text
    op = _JET1_RULES[rule]
    jet1, jet3 = pair
    got = _rule_outcome(lambda: op(jet1, c[0]))
    want = _rule_outcome(lambda: _first_order(op(jet3, c[1])))
    assert got == want


def test_jet1_evaluates_a_polynomial_model_as_its_jet3_does():
    fn = parse_lagrangian("a^2*b - 0.5*a + b^3 - (1 - a)*(b + 2)^2",
                          Kind.VectorAlphaBeta)
    for a, b in [(0.3, -0.7), (-0.0, 2.5), (1e154, 3.0)]:
        got = fn({"a": Jet1.variable(a, "a"), "b": Jet1.variable(b, "b")})
        want = fn({"a": Jet3.variable(a, "a"), "b": Jet3.variable(b, "b")})
        assert isinstance(got, Jet1)
        assert _slot_bits(got) == _slot_bits(_first_order(want))


_REFUSED = {
    "sqrt": lambda j: sqrt(j),
    "sqrt method": lambda j: j.sqrt(),
    "jet / c": lambda j: j / 2.0,
    "c / jet": lambda j: 1.0 / j,
    "array / jet": lambda j: np.ones(3) / j,
    "divide(jet, c)": lambda j: divide(j, 2.0),
    "divide(c, jet)": lambda j: divide(2.0, j),
    "jet ** 0.5": lambda j: j ** 0.5,
    "jet ** -1": lambda j: j ** -1,
    "jet ** -1.5": lambda j: j ** -1.5,
    "model sqrt": lambda j: parse_lagrangian(
        "sqrt(1 + a)", Kind.VectorAlpha)({"a": j}),
    "model fractional power": lambda j: parse_lagrangian(
        "a^0.5", Kind.VectorAlpha)({"a": j}),
    "model division": lambda j: parse_lagrangian(
        "b / a", Kind.VectorAlphaBeta)({"a": j, "b": j}),
}


@pytest.mark.parametrize("value", [2.0, -1.0, 0.0,
                                   np.array([2.0, -1.0, 0.0])])
@pytest.mark.parametrize("call", sorted(_REFUSED))
def test_jet1_refuses_the_rules_it_does_not_carry(call, value):
    # a TypeError that names the type, before any domain check, whether a
    # DomainMask is active or not
    jet = Jet1.variable(value, "a")
    with pytest.raises(TypeError, match="Jet1"):
        _REFUSED[call](jet)
    with DomainMask(), pytest.raises(TypeError, match="Jet1"):
        _REFUSED[call](jet)


# --- second-order jets in (a, b) and third-order jets in a ---------------------

_RULE_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "compose",
             "sqrt", "__pow__")


@pytest.mark.parametrize("cls", [Jet2ab, Jet3a])
def test_narrow_jets_bind_the_shared_rules(cls):
    for name in _RULE_OPS:
        assert vars(cls)[name] is vars(Jet3)[name] is vars(Jet2)[name]
    assert cls in jets.JETS


# The slots of a Jet3 that each narrower type keeps, by position in
# Jet3.as_tuple(): f fa fb faa fab fbb faaa faab fabb fbbb.
_KEPT = {Jet2ab: (0, 1, 2, 3, 4, 5), Jet3a: (0, 1, 3, 6)}


def _narrowed(cls, jet3: Jet3):
    slots = jet3.as_tuple()
    return cls._of(*(slots[i] for i in _KEPT[cls]))


def _riding_jet3(cls, slots: list) -> Jet3:
    """The Jet3 whose kept slots are ``slots``: a Jet2ab's Jet3 draws its
    third-order slots too, since no second-order slot may depend on
    them; a Jet3a's Jet3 rides slot a, with zero b-slots."""
    out = [0.0] * 10
    for i, v in zip(_KEPT[cls], slots):
        out[i] = v
    if cls is Jet2ab:
        out[6:] = slots[len(_KEPT[cls]):]
    return Jet3._of(*out)


def _narrow_pair(cls):
    """(narrow jet, its Jet3), slots all floats or all arrays."""
    size = len(_KEPT[cls]) + (4 if cls is Jet2ab else 0)
    return st.one_of(_slots(size, False), _slots(size, True)).map(
        lambda slots: (cls._of(*slots[:len(_KEPT[cls])]),
                       _riding_jet3(cls, slots)))


_NARROW_RULES = {
    **_JET1_RULES,
    "jet / c": lambda j, c: j / c,
    "c / jet": lambda j, c: c / j,
    "divide(c, jet)": lambda j, c: divide(c, j),
    "sqrt": lambda j, c: sqrt(j),
    **{f"jet ** {e}": lambda j, c, e=e: j ** e
       for e in (-2, -1, 0.5, 1.5, -0.5, 2.5)},
    "compose": lambda j, c: j.compose(2.0, -0.5, 3.0, 1e300),
}


def _assert_narrow_matches_jet3(cls, op, pair, c) -> None:
    narrow, jet3 = pair
    got = _rule_outcome(lambda: op(narrow, c[0]))
    want = _rule_outcome(lambda: _narrowed(cls, op(jet3, c[1])))
    if (cls is Jet2ab and want[0] is FloatOverflow
            and isinstance(got[0], type) and got[0] is Jet2ab):
        # only the Jet3's third derivatives left the double range: the
        # cube of a first-order slot in the chain rule
        assert want[1] == "a power with exponent 3 leaves the double range"
        return
    assert got == want


_PAIR_OF = {cls: _narrow_pair(cls) for cls in _KEPT}


@pytest.mark.parametrize("cls", [Jet2ab, Jet3a])
@settings(max_examples=1000, deadline=None)
@given(data=st.data(), rule=st.sampled_from(sorted(_NARROW_RULES)))
def test_narrow_jets_match_the_slots_of_jet3_bit_for_bit(cls, data, rule):
    # the same rule on the Jet3 computes the kept slots by the same
    # operations, so the narrow jet keeps their bits, signs of zero
    # included, a NaN stays a NaN, and every DomainError and
    # FloatOverflow keeps its text
    pair = data.draw(_PAIR_OF[cls])
    c = data.draw(st.one_of(_OPERAND.map(lambda c: (c, c)), _PAIR_OF[cls]))
    _assert_narrow_matches_jet3(cls, _NARROW_RULES[rule], pair, c)


@pytest.mark.parametrize("cls, pair, c, rule", [
    # the cube of fb = 1e200 overflows in the Jet3's fbbb only
    (Jet2ab, (Jet2ab._of(4.0, 1.0, 1e200, 0.0, 0.0, 0.0),
              Jet3._of(4.0, 1.0, 1e200, *(0.0,) * 7)), (0.0, 0.0), "sqrt"),
    (Jet3a, (Jet3a._of(-0.0, math.inf, math.nan, -0.0),
             Jet3._of(-0.0, math.inf, 0.0, math.nan, 0.0, 0.0, -0.0,
                      0.0, 0.0, 0.0)), (-0.0, -0.0), "c * jet"),
    (Jet2ab, (Jet2ab._of(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
              Jet3._of(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)),
     (1.0, 1.0), "c / jet"),
])
def test_narrow_jets_match_jet3_at_the_edges(cls, pair, c, rule):
    _assert_narrow_matches_jet3(cls, _NARROW_RULES[rule], pair, c)


def test_narrow_jets_raise_where_jet3_does():
    # a Jet2ab carries no third derivative that could overflow
    with pytest.raises(FloatOverflow, match="exponent 3"):
        sqrt(Jet3._of(4.0, 1.0, 1e200, *(0.0,) * 7))
    assert sqrt(Jet2ab._of(4.0, 1.0, 1e200, 0.0, 0.0, 0.0)).fb == 2.5e199
    with pytest.raises(FloatOverflow, match="exponent 3"):
        sqrt(Jet3a.variable(4.0) * 1e200 + 1.0)
    for cls in (Jet2ab, Jet3a):
        with pytest.raises(DomainError, match="sqrt of a non-positive jet"):
            sqrt(cls.variable(-1.0))
        with pytest.raises(DomainError, match="division by a jet"):
            1.0 / cls.variable(0.0)
        with DomainMask() as mask:
            out = sqrt(cls.variable(np.array([4.0, -1.0])))
        assert mask.bad.tolist() == [False, True]
        assert np.isnan(out.f[1]) and out.f[0] == 2.0


_JET_TYPES = {(1, 2): Jet2, (1, 3): Jet3a, (2, 2): Jet2ab, (2, 3): Jet3}


@pytest.mark.parametrize("text, kind, point", [
    ("a*a*b - 0.5*a + b^3", "alpha-beta", InvariantPoint(a=0.3, b=-0.7)),
    ("a*z + b*b*z - z^3", "vector-scalar",
     InvariantPoint(a=0.5, b=0.25, z=-0.3)),
    ("1.5", "vector-scalar", InvariantPoint(a=0.5, b=0.25, z=-0.3)),
    ("-0.5*a + 0.1*a^2", "alpha", InvariantPoint(a=0.4)),
    ("z - z^2", "scalar", InvariantPoint(z=0.2)),
])
def test_jet_at_picks_the_type_from_variables_and_order(text, kind, point):
    model = from_expression(text, kind)
    names = [n for n in ("a", "b", "z") if n in model.kind.variables]
    for wrt in [None, *((n,) for n in names),
                *((m, n) for m in names for n in names if m != n)]:
        count = len(model.kind.jet_variables if wrt is None else wrt)
        want3 = jet3_at(model, point, wrt if wrt is not None
                        else tuple(model.kind.variables[:2]))
        for order in (1, 2, 3):
            cls = _JET_TYPES.get((count, order))
            if cls is None:
                with pytest.raises(ValueError, match="no jet of order"):
                    model.jet_at(point, wrt, order)
                continue
            got = model.jet_at(point, wrt, order)
            assert type(got) is cls  # constant outputs too
            kept = dict(zip(jets._SLOTS, want3.as_tuple()))
            assert got.as_tuple() == tuple(kept[s] for s in cls.__slots__)


def test_jet_at_of_a_one_variable_field_model_is_an_ab_jet():
    # the L(a) readers (strong sector, cone) read b-slots, which are zero
    jet = builtin("perturbed-maxwell", [0.1]).jet_at(InvariantPoint(a=1.0))
    assert type(jet) is Jet3
    assert (jet.fb, jet.fab, jet.fbb, jet.faab, jet.fabb, jet.fbbb) == (
        (0.0,) * 6)
    assert type(builtin("scalar-bi").jet_at(InvariantPoint(z=0.1))) is Jet3a
    with pytest.raises(ValueError, match="at most two"):
        builtin("born-infeld").jet_at(InvariantPoint(a=0.1, b=0.2, z=0.0),
                                      ("a", "b", "z"))


@pytest.mark.parametrize("cls", [Jet3, Jet2ab, Jet3a, Jet2, Jet1])
def test_variable_and_constant_of_every_type(cls):
    names = [s for s in "ab" if "f" + s in cls.__slots__]
    for slot in names:
        jet = cls.variable(0.5, slot)
        assert jet.as_tuple() == tuple(
            0.5 if s == "f" else float(s == "f" + slot)
            for s in cls.__slots__)
    with pytest.raises(ValueError, match="slot must be 'a'"):
        cls.variable(0.5, "z")
    if names == ["a"]:
        with pytest.raises(ValueError, match="slot must be 'a', got 'b'"):
            cls.variable(0.5, "b")
    assert cls.constant(2).as_tuple() == (2.0,) + (0.0,) * (
        len(cls.__slots__) - 1)
