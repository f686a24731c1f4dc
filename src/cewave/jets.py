"""Truncated Taylor jets of order 3 in at most two variables.

A ``Jet3`` stores the value of a function of (x, y) together with every
partial derivative up to third order, and propagates all of them exactly
through arithmetic.  One-variable models simply ride the first slot and
keep the y-derivatives at zero.

The derivative coefficients are stored raw (not divided by factorials), so
``jet.faa`` literally equals d2f/dx2 at the expansion point.

Forward-mode propagation rules are the standard multivariate Leibniz and
Faa di Bruno formulas truncated at order 3; division solves the Leibniz
triangle backwards in dependency order.

A slot holds a Python float, or a numpy array to evaluate many points at
once (a slot that does not vary may stay a float).  Array arithmetic is
the float arithmetic entry by entry, bit for bit: ``+ - * /`` and square
roots are correctly rounded either way, and every power goes through
``power``, which applies Python's float pow to each entry.  Where a single
point would raise ``DomainError``, an array marks that entry in the active
``DomainMask`` instead and carries NaN there.
"""

from __future__ import annotations

import contextvars
import math
import operator
from itertools import repeat

import numpy as np

from .errors import DomainError

_TINY = 1e-300

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


def power(x, e):
    """``x ** e``; on an array, Python's float pow applied to each entry.

    numpy's vectorized pow can differ from the C library pow behind
    Python's ``**`` in the last bit, so arrays go through Python floats.
    A zero array entry raised to a negative power is outside the domain
    (Python raises ZeroDivisionError); a negative entry raised to a
    fractional power gives NaN (Python would return a complex number).
    """
    if not isinstance(x, np.ndarray):
        return x ** e
    if e < 0:
        x = check_domain(x, x == 0.0, "zero raised to a negative power")
    if e != int(e):
        x = np.where(x < 0.0, np.nan, x)
    out = np.fromiter(map(pow, x.ravel().tolist(), repeat(float(e))), float,
                      x.size)
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

    @staticmethod
    def _coerce(x) -> "Jet3":
        if isinstance(x, Jet3):
            return x
        if isinstance(x, (int, float, np.ndarray)):
            return Jet3.constant(x)
        return NotImplemented

    # --- ring operations --------------------------------------------------

    def __add__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet3._of(*map(operator.add, self.as_tuple(), o.as_tuple()))

    __radd__ = __add__

    def __neg__(self):
        return Jet3._of(*map(operator.neg, self.as_tuple()))

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet3._of(*map(operator.sub, self.as_tuple(), o.as_tuple()))

    def __rsub__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f, g = self, o
        return Jet3._of(
            f.f * g.f,
            f.fa * g.f + f.f * g.fa,
            f.fb * g.f + f.f * g.fb,
            f.faa * g.f + 2.0 * f.fa * g.fa + f.f * g.faa,
            f.fab * g.f + f.fa * g.fb + f.fb * g.fa + f.f * g.fab,
            f.fbb * g.f + 2.0 * f.fb * g.fb + f.f * g.fbb,
            f.faaa * g.f + 3.0 * f.faa * g.fa + 3.0 * f.fa * g.faa + f.f * g.faaa,
            f.faab * g.f + f.faa * g.fb + 2.0 * f.fab * g.fa
            + 2.0 * f.fa * g.fab + f.fb * g.faa + f.f * g.faab,
            f.fabb * g.f + 2.0 * f.fab * g.fb + f.fbb * g.fa
            + f.fa * g.fbb + 2.0 * f.fb * g.fab + f.f * g.fabb,
            f.fbbb * g.f + 3.0 * f.fbb * g.fb + 3.0 * f.fb * g.fbb + f.f * g.fbbb,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        f, g = self, o
        gf = check_domain(g.f, abs(g.f) < _TINY,
                          "division by a jet whose value is zero")
        hf = f.f / gf
        ha = (f.fa - hf * g.fa) / gf
        hb = (f.fb - hf * g.fb) / gf
        haa = (f.faa - 2.0 * ha * g.fa - hf * g.faa) / gf
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

    def __rtruediv__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    # --- composition with a scalar outer function -------------------------

    def compose(self, g0, g1, g2, g3) -> "Jet3":
        """Chain rule for h = g(self) given g, g', g'', g''' at self.f."""
        f = self
        return Jet3._of(
            g0,
            g1 * f.fa,
            g1 * f.fb,
            g2 * f.fa * f.fa + g1 * f.faa,
            g2 * f.fa * f.fb + g1 * f.fab,
            g2 * f.fb * f.fb + g1 * f.fbb,
            g3 * power(f.fa, 3) + 3.0 * g2 * f.fa * f.faa + g1 * f.faaa,
            (g3 * f.fa * f.fa * f.fb
             + g2 * (f.faa * f.fb + 2.0 * f.fa * f.fab) + g1 * f.faab),
            (g3 * f.fa * f.fb * f.fb
             + g2 * (f.fbb * f.fa + 2.0 * f.fb * f.fab) + g1 * f.fabb),
            g3 * power(f.fb, 3) + 3.0 * g2 * f.fb * f.fbb + g1 * f.fbbb,
        )

    def sqrt(self) -> "Jet3":
        v = check_domain(self.f, self.f < _TINY,
                         "sqrt of a non-positive jet value {:.6g}")
        r = _root(v)
        return self.compose(r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r))

    def __pow__(self, exponent):
        e = float(exponent)
        if e == int(e):
            n = int(e)
            if n == 0:
                return Jet3.constant(1.0)
            if n < 0:
                return 1.0 / (self ** (-n))
            out = self
            for _ in range(n - 1):
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


def sqrt(x):
    """Square root that accepts a Jet3, a plain number or an array."""
    if isinstance(x, Jet3):
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
    if isinstance(x, Jet3) or isinstance(y, Jet3):
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

    @classmethod
    def scalar(cls, z: float) -> "InvariantPoint":
        return cls(z=z)

    @classmethod
    def alpha(cls, a: float) -> "InvariantPoint":
        return cls(a=a)

    @classmethod
    def alpha_beta(cls, a: float, b: float) -> "InvariantPoint":
        return cls(a=a, b=b)

    @classmethod
    def full(cls, a: float, b: float, z: float) -> "InvariantPoint":
        return cls(a=a, b=b, z=z)

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
