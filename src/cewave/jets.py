"""Truncated Taylor jets of order 3 in at most two variables.

A ``Jet3`` stores the value of a function of (x, y) together with every
partial derivative up to third order, and propagates all of them exactly
through arithmetic.  One-variable models simply ride the first slot and
keep the y-derivatives at zero.  A ``Jet2`` keeps only the slots f, fa
and faa of such a one-variable jet: every rule computes those slots from
the same slots of its operands, so the two types share one copy of the
rules for them and agree bit for bit.

The derivative coefficients are stored raw (not divided by factorials), so
``jet.faa`` literally equals d2f/dx2 at the expansion point.

Forward-mode propagation rules are the standard multivariate Leibniz and
Faa di Bruno formulas truncated at order 3; division solves the Leibniz
triangle backwards in dependency order.  A number or array operand
(``2.0 * jet``, ``1.0 - jet``, ``jet / 2``) enters a rule as its value
with derivative slots 0.0, and no constant jet is built for it; the rule
runs the operations it would run on that constant jet, so the result has
the same bits.

A slot holds a Python float, or a numpy array to evaluate many points at
once (a slot that does not vary may stay a float).  Array arithmetic is
the float arithmetic entry by entry, bit for bit: ``+ - * /`` and square
roots are correctly rounded either way, and every power goes through
``power``, which applies Python's float pow to each distinct entry once.
Where a single point would raise ``DomainError``, an array marks that
entry in the active ``DomainMask`` instead and carries NaN there.
"""

from __future__ import annotations

import contextvars
import math
import operator
from itertools import repeat

import numpy as np

from .errors import DomainError, FloatOverflow

_TINY = 1e-300

# From this many entries on, ``power`` finds an array's distinct values
# first: np.unique costs a fixed 10-15 us, which mapping pow over about
# 250 grid-like entries outweighs.
_DEDUPE_SIZE = 256

_SLOTS = ("f", "fa", "fb", "faa", "fab", "fbb", "faaa", "faab", "fabb", "fbbb")
_slot_values = operator.attrgetter(*_SLOTS)
_ZEROS = (0.0,) * 9

_ACTIVE_MASK: contextvars.ContextVar = contextvars.ContextVar(
    "cewave_domain_mask", default=None)


class DomainMask:
    """Entries at which an array evaluation left the domain.

    Inside ``with DomainMask() as mask:``, an array operation that would
    raise ``DomainError`` at some entries records them in ``mask.bad`` (a
    boolean array, or False while nothing failed) and goes on with NaN
    there.  A failing float, which fails at every entry alike, still
    raises, and so does a failing array outside the block.
    """

    def __init__(self):
        self.bad = False
        self._token = None

    def __enter__(self) -> "DomainMask":
        self._token = _ACTIVE_MASK.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_MASK.reset(self._token)


def check_domain(value, bad, message: str):
    """``value``, of which ``bad`` marks what lies outside the domain.

    ``bad`` is a bool for a float value and a boolean array for an array
    value.  A true bool raises ``DomainError(message.format(value))``.
    Failing array entries are recorded in the active ``DomainMask`` and
    come back as NaN; with no mask active the first of them raises.
    """
    if not isinstance(bad, np.ndarray):
        if bad:
            raise DomainError(message.format(value))
        return value
    if not bad.any():
        return value
    mask = _ACTIVE_MASK.get()
    if mask is None:
        first = np.broadcast_to(value, bad.shape)[bad][0]
        raise DomainError(message.format(first))
    mask.bad = mask.bad | bad
    return np.where(bad, np.nan, value)


def distinct(x) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of array ``x`` as float64, one per bit pattern
    (so -0.0 stays apart from 0.0), and the index into them of each
    entry of the flattened ``x``."""
    bits = np.asarray(x, dtype=float).ravel().view(np.int64)
    bits, back = np.unique(bits, return_inverse=True)
    return bits.view(float), back


def power(x, e):
    """``x ** e``; on an array, Python's float pow applied to each
    distinct entry once.

    numpy's vectorized pow can differ from the C library pow behind
    Python's ``**`` in the last bit, so arrays go through Python floats.
    An array of at least ``_DEDUPE_SIZE`` entries (grid axes and their
    shifted copies repeat a lot) is raised one distinct bit pattern at a
    time and the results gathered back; pow is a function of its input's
    bits, so every entry, -0.0 and NaN included, keeps its bits.
    A zero array entry raised to a negative power is outside the domain
    (Python raises ZeroDivisionError); a negative value raised to a
    fractional power gives NaN (Python would return a complex number).
    A result beyond the double range raises FloatOverflow where Python
    raises OverflowError.
    """
    try:
        if not isinstance(x, np.ndarray):
            if isinstance(x, (int, float)) and x < 0.0 and e != int(e):
                return math.nan
            return x ** e  # a jet raises by its own rule
        if e < 0:
            x = check_domain(x, x == 0.0, "zero raised to a negative power")
        if e != int(e):
            x = np.where(x < 0.0, np.nan, x)
        values, back = x.ravel(), slice(None)
        if values.size >= _DEDUPE_SIZE:
            values, back = distinct(values)
        out = np.fromiter(map(pow, values.tolist(), repeat(float(e))),
                          float, values.size)[back]
    except OverflowError:
        raise FloatOverflow(f"a power with exponent {e:g} leaves the "
                            "double range") from None
    return out.reshape(x.shape)


def _root(v):
    # math.sqrt and np.sqrt are both correctly rounded
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _slot(x):
    if isinstance(x, np.ndarray):
        return x.astype(float, copy=False)
    return float(x)


def _short(x) -> str:
    return f"<{x.size} values>" if isinstance(x, np.ndarray) else f"{x:.6g}"


# --- rules shared by Jet3 and Jet2 ------------------------------------------
#
# Both jet types bind these functions as their operations.  The slots f,
# fa and faa of a result come from the same slots of the operands alone,
# so each rule computes those first, and a Jet3 goes on to its others.
# The product, quotient and chain rules call their operand jets f and g,
# as the formulas do.
#
# A binary rule takes its operand as a value and a jet that supplies the
# derivative slots (see _operand); for a number or an array that jet is
# the type's zero jet.  The terms ``x + 0.0`` and ``x * 0.0`` this leaves
# in a formula must stay: they turn -0.0 into 0.0 and inf into NaN, as
# on a constant jet.


def _operand(jet, other):
    """The value of ``other`` as an operand of ``jet``, and a jet of
    ``jet``'s type that supplies its derivative slots: ``other`` itself,
    or the type's zero jet for a number or an array, whose value is
    coerced as ``_slot`` does.  (NotImplemented, None) for anything
    else."""
    if isinstance(other, jet.__class__):
        return other.f, other
    if isinstance(other, (int, float)):
        return float(other), jet._zero
    if isinstance(other, np.ndarray):
        return other.astype(float, copy=False), jet._zero
    return NotImplemented, None


def _difference(ff, f, gf, g):
    """f - g, where f has the value ff and g the value gf."""
    hf = ff - gf
    ha = f.fa - g.fa
    haa = f.faa - g.faa
    if f.__class__ is Jet2:
        return Jet2._of(hf, ha, haa)
    return Jet3._of(hf, ha, f.fb - g.fb, haa, f.fab - g.fab, f.fbb - g.fbb,
                    f.faaa - g.faaa, f.faab - g.faab, f.fabb - g.fabb,
                    f.fbbb - g.fbbb)


def _quotient(ff, f, gf, g):
    """f / g, where f has the value ff and g the value gf."""
    gf = check_domain(gf, abs(gf) < _TINY,
                      "division by a jet whose value is zero")
    hf = ff / gf
    ha = (f.fa - hf * g.fa) / gf
    haa = (f.faa - 2.0 * ha * g.fa - hf * g.faa) / gf
    if f.__class__ is Jet2:
        return Jet2._of(hf, ha, haa)
    hb = (f.fb - hf * g.fb) / gf
    hab = (f.fab - ha * g.fb - hb * g.fa - hf * g.fab) / gf
    hbb = (f.fbb - 2.0 * hb * g.fb - hf * g.fbb) / gf
    haaa = (f.faaa - 3.0 * haa * g.fa - 3.0 * ha * g.faa
            - hf * g.faaa) / gf
    haab = (f.faab - haa * g.fb - 2.0 * hab * g.fa
            - 2.0 * ha * g.fab - hb * g.faa - hf * g.faab) / gf
    habb = (f.fabb - 2.0 * hab * g.fb - hbb * g.fa
            - ha * g.fbb - 2.0 * hb * g.fab - hf * g.fabb) / gf
    hbbb = (f.fbbb - 3.0 * hbb * g.fb - 3.0 * hb * g.fbb
            - hf * g.fbbb) / gf
    return Jet3._of(hf, ha, hb, haa, hab, hbb, haaa, haab, habb, hbbb)


def _add(f, other):
    gf, g = _operand(f, other)
    if g is None:
        return NotImplemented
    hf = f.f + gf
    ha = f.fa + g.fa
    haa = f.faa + g.faa
    if f.__class__ is Jet2:
        return Jet2._of(hf, ha, haa)
    return Jet3._of(hf, ha, f.fb + g.fb, haa, f.fab + g.fab, f.fbb + g.fbb,
                    f.faaa + g.faaa, f.faab + g.faab, f.fabb + g.fabb,
                    f.fbbb + g.fbbb)


def _neg(self):
    return self._of(*map(operator.neg, self.as_tuple()))


def _sub(self, other):
    gf, g = _operand(self, other)
    if g is None:
        return NotImplemented
    return _difference(self.f, self, gf, g)


def _rsub(self, other):
    gf, g = _operand(self, other)
    if g is None:
        return NotImplemented
    return _difference(gf, g, self.f, self)


def _mul(f, other):
    gf, g = _operand(f, other)
    if g is None:
        return NotImplemented
    hf = f.f * gf
    ha = f.fa * gf + f.f * g.fa
    haa = f.faa * gf + 2.0 * f.fa * g.fa + f.f * g.faa
    if f.__class__ is Jet2:
        return Jet2._of(hf, ha, haa)
    return Jet3._of(
        hf,
        ha,
        f.fb * gf + f.f * g.fb,
        haa,
        f.fab * gf + f.fa * g.fb + f.fb * g.fa + f.f * g.fab,
        f.fbb * gf + 2.0 * f.fb * g.fb + f.f * g.fbb,
        f.faaa * gf + 3.0 * f.faa * g.fa + 3.0 * f.fa * g.faa + f.f * g.faaa,
        f.faab * gf + f.faa * g.fb + 2.0 * f.fab * g.fa
        + 2.0 * f.fa * g.fab + f.fb * g.faa + f.f * g.faab,
        f.fabb * gf + 2.0 * f.fab * g.fb + f.fbb * g.fa
        + f.fa * g.fbb + 2.0 * f.fb * g.fab + f.f * g.fabb,
        f.fbbb * gf + 3.0 * f.fbb * g.fb + 3.0 * f.fb * g.fbb + f.f * g.fbbb,
    )


def _truediv(self, other):
    gf, g = _operand(self, other)
    if g is None:
        return NotImplemented
    return _quotient(self.f, self, gf, g)


def _rtruediv(self, other):
    gf, g = _operand(self, other)
    if g is None:
        return NotImplemented
    return _quotient(gf, g, self.f, self)


def _compose(f, g0, g1, g2, g3):
    """Chain rule for h = g(f) given g, g', g'', g''' at f.f (a Jet2 has
    no use for g''')."""
    ha = g1 * f.fa
    haa = g2 * f.fa * f.fa + g1 * f.faa
    if f.__class__ is Jet2:
        return Jet2._of(g0, ha, haa)
    return Jet3._of(
        g0,
        ha,
        g1 * f.fb,
        haa,
        g2 * f.fa * f.fb + g1 * f.fab,
        g2 * f.fb * f.fb + g1 * f.fbb,
        g3 * power(f.fa, 3) + 3.0 * g2 * f.fa * f.faa + g1 * f.faaa,
        (g3 * f.fa * f.fa * f.fb
         + g2 * (f.faa * f.fb + 2.0 * f.fa * f.fab) + g1 * f.faab),
        (g3 * f.fa * f.fb * f.fb
         + g2 * (f.fbb * f.fa + 2.0 * f.fb * f.fab) + g1 * f.fabb),
        g3 * power(f.fb, 3) + 3.0 * g2 * f.fb * f.fbb + g1 * f.fbbb,
    )


def _sqrt(self):
    v = check_domain(self.f, self.f < _TINY,
                     "sqrt of a non-positive jet value {:.6g}")
    r = _root(v)
    return self.compose(r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r))


def _pow(self, exponent):
    e = float(exponent)
    if e == int(e):
        n = int(e)
        if n == 0:
            return self.constant(1.0)
        if n < 0:
            return 1.0 / (self ** (-n))
        # square and multiply, from the leading bit of n down: x^2 is
        # x*x and x^3 is (x*x)*x, and n takes O(log n) products
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out
    # fractional exponent: real branch only, positive base required
    v = check_domain(self.f, self.f < _TINY,
                     "fractional power of a non-positive jet value {:.6g}")
    g0 = power(v, e)
    g1 = e * power(v, e - 1.0)
    g2 = e * (e - 1.0) * power(v, e - 2.0)
    g3 = e * (e - 1.0) * (e - 2.0) * power(v, e - 3.0)
    return self.compose(g0, g1, g2, g3)


class Jet3:
    """Order-3 Taylor jet in two variables."""

    __slots__ = _SLOTS

    # numpy defers mixed arithmetic to Jet3 (array + jet -> jet.__radd__)
    __array_ufunc__ = None

    def __init__(self, f=0.0, fa=0.0, fb=0.0, faa=0.0, fab=0.0, fbb=0.0,
                 faaa=0.0, faab=0.0, fabb=0.0, fbbb=0.0):
        self.f = _slot(f)
        self.fa = _slot(fa)
        self.fb = _slot(fb)
        self.faa = _slot(faa)
        self.fab = _slot(fab)
        self.fbb = _slot(fbb)
        self.faaa = _slot(faaa)
        self.faab = _slot(faab)
        self.fabb = _slot(fabb)
        self.fbbb = _slot(fbbb)

    # --- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Jet3":
        return cls._of(_slot(c), *_ZEROS)

    @classmethod
    def variable(cls, value, slot: str = "a") -> "Jet3":
        if slot == "a":
            return cls._of(_slot(value), 1.0, *_ZEROS[1:])
        if slot == "b":
            return cls._of(_slot(value), 0.0, 1.0, *_ZEROS[2:])
        raise ValueError(f"slot must be 'a' or 'b', got {slot!r}")

    @classmethod
    def _of(cls, *slots) -> "Jet3":
        """A jet of slots that are already floats or float arrays."""
        jet = object.__new__(cls)
        (jet.f, jet.fa, jet.fb, jet.faa, jet.fab, jet.fbb,
         jet.faaa, jet.faab, jet.fabb, jet.fbbb) = slots
        return jet

    # --- helpers ---------------------------------------------------------

    def as_tuple(self) -> tuple[float, ...]:
        return _slot_values(self)

    def __repr__(self) -> str:
        parts = ", ".join(f"{s}={_short(getattr(self, s))}" for s in _SLOTS)
        return f"Jet3({parts})"

    # --- operations (see the shared rules above) -------------------------

    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __truediv__ = _truediv
    __rtruediv__ = _rtruediv
    compose = _compose
    sqrt = _sqrt
    __pow__ = _pow


class Jet2:
    """Order-2 Taylor jet in one variable: the slots f, fa and faa of the
    Jet3 that rides its first slot, by the same rules and so with the
    same bits.  It raises where that Jet3 does, except where only the
    Jet3's third derivative leaves the double range."""

    __slots__ = ("f", "fa", "faa")

    __array_ufunc__ = None

    @classmethod
    def constant(cls, c) -> "Jet2":
        return cls._of(_slot(c), 0.0, 0.0)

    @classmethod
    def variable(cls, value) -> "Jet2":
        return cls._of(_slot(value), 1.0, 0.0)

    @classmethod
    def _of(cls, f, fa, faa) -> "Jet2":
        jet = object.__new__(cls)
        jet.f, jet.fa, jet.faa = f, fa, faa
        return jet

    def as_tuple(self) -> tuple[float, ...]:
        return self.f, self.fa, self.faa

    __add__ = __radd__ = _add
    __neg__ = _neg
    __sub__ = _sub
    __rsub__ = _rsub
    __mul__ = __rmul__ = _mul
    __truediv__ = _truediv
    __rtruediv__ = _rtruediv
    compose = _compose
    sqrt = _sqrt
    __pow__ = _pow


# the derivative slots of a number or array operand (see _operand)
Jet3._zero = Jet3.constant(0.0)
Jet2._zero = Jet2.constant(0.0)

JETS = (Jet3, Jet2)


def sqrt(x):
    """Square root that accepts a jet, a plain number or an array."""
    if isinstance(x, JETS):
        return x.sqrt()
    v = _slot(x)
    return _root(check_domain(v, v < _TINY,
                              "sqrt of a non-positive value {:.6g}"))


def divide(x, y):
    """``x / y``, where a zero plain divisor lies outside the domain.

    A float divisor raises ZeroDivisionError, as ``/`` does on floats; an
    array divisor marks its zero entries (see ``check_domain``).  Jets
    keep their own check.
    """
    if isinstance(x, JETS) or isinstance(y, JETS):
        return x / y
    if isinstance(y, np.ndarray):
        y = check_domain(y, y == 0.0, "division by zero")
    elif y == 0.0:
        raise ZeroDivisionError("float division by zero")
    return x / y


# --- evaluation points -------------------------------------------------------

class InvariantPoint:
    """A point in invariant space: any subset of (a, b, z) may be active.

    Coordinates are floats, or equal-length arrays for a set of points.
    """

    __slots__ = ("a", "b", "z")

    def __init__(self, a=None, b=None, z=None):
        self.a = None if a is None else _slot(a)
        self.b = None if b is None else _slot(b)
        self.z = None if z is None else _slot(z)

    def get(self, name: str):
        v = getattr(self, name)
        if v is None:
            raise ValueError(f"invariant {name!r} not set on this point")
        return v

    def shifted(self, name: str, delta: float) -> "InvariantPoint":
        kw = {"a": self.a, "b": self.b, "z": self.z}
        kw[name] = kw[name] + delta
        return InvariantPoint(**kw)

    def take(self, index) -> "InvariantPoint":
        """Of a set of points, the point at an integer ``index``, or the
        points a boolean mask selects."""
        kw = {"a": self.a, "b": self.b, "z": self.z}
        return InvariantPoint(**{n: None if v is None else v[index]
                                 for n, v in kw.items()})

    def __repr__(self) -> str:
        parts = [f"{n}={_short(getattr(self, n))}" for n in ("a", "b", "z")
                 if getattr(self, n) is not None]
        return "InvariantPoint(" + ", ".join(parts) + ")"


def richardson_central(fn, h: float):
    """Derivative at 0 of fn(t) from central differences with steps h and
    h/2 plus one Richardson extrapolation step, (4 D(h/2) - D(h)) / 3."""

    def central(k: float):
        return (fn(k) - fn(-k)) / (2.0 * k)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0
