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
"""

from __future__ import annotations

import math

from .errors import DomainError

_TINY = 1e-300

_SLOTS = ("f", "fa", "fb", "faa", "fab", "fbb", "faaa", "faab", "fabb", "fbbb")


class Jet3:
    """Order-3 Taylor jet in two variables."""

    __slots__ = _SLOTS

    def __init__(self, f=0.0, fa=0.0, fb=0.0, faa=0.0, fab=0.0, fbb=0.0,
                 faaa=0.0, faab=0.0, fabb=0.0, fbbb=0.0):
        self.f = float(f)
        self.fa = float(fa)
        self.fb = float(fb)
        self.faa = float(faa)
        self.fab = float(fab)
        self.fbb = float(fbb)
        self.faaa = float(faaa)
        self.faab = float(faab)
        self.fabb = float(fabb)
        self.fbbb = float(fbbb)

    # --- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "Jet3":
        return cls(f=float(c))

    @classmethod
    def variable(cls, value: float, slot: str = "a") -> "Jet3":
        if slot == "a":
            return cls(f=float(value), fa=1.0)
        if slot == "b":
            return cls(f=float(value), fb=1.0)
        raise ValueError(f"slot must be 'a' or 'b', got {slot!r}")

    # --- helpers ---------------------------------------------------------

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, s) for s in _SLOTS)

    def __repr__(self) -> str:
        parts = ", ".join(f"{s}={getattr(self, s):.6g}" for s in _SLOTS)
        return f"Jet3({parts})"

    @staticmethod
    def _coerce(x) -> "Jet3":
        if isinstance(x, Jet3):
            return x
        if isinstance(x, (int, float)):
            return Jet3.constant(x)
        return NotImplemented

    # --- ring operations --------------------------------------------------

    def __add__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet3(*(a + b for a, b in zip(self.as_tuple(), o.as_tuple())))

    __radd__ = __add__

    def __neg__(self):
        return Jet3(*(-a for a in self.as_tuple()))

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet3(*(a - b for a, b in zip(self.as_tuple(), o.as_tuple())))

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
        return Jet3(
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
        if abs(g.f) < _TINY:
            raise DomainError("division by a jet whose value is zero")
        h = Jet3()
        h.f = f.f / g.f
        h.fa = (f.fa - h.f * g.fa) / g.f
        h.fb = (f.fb - h.f * g.fb) / g.f
        h.faa = (f.faa - 2.0 * h.fa * g.fa - h.f * g.faa) / g.f
        h.fab = (f.fab - h.fa * g.fb - h.fb * g.fa - h.f * g.fab) / g.f
        h.fbb = (f.fbb - 2.0 * h.fb * g.fb - h.f * g.fbb) / g.f
        h.faaa = (f.faaa - 3.0 * h.faa * g.fa - 3.0 * h.fa * g.faa
                  - h.f * g.faaa) / g.f
        h.faab = (f.faab - h.faa * g.fb - 2.0 * h.fab * g.fa
                  - 2.0 * h.fa * g.fab - h.fb * g.faa - h.f * g.faab) / g.f
        h.fabb = (f.fabb - 2.0 * h.fab * g.fb - h.fbb * g.fa
                  - h.fa * g.fbb - 2.0 * h.fb * g.fab - h.f * g.fabb) / g.f
        h.fbbb = (f.fbbb - 3.0 * h.fbb * g.fb - 3.0 * h.fb * g.fbb
                  - h.f * g.fbbb) / g.f
        return h

    def __rtruediv__(self, other):
        o = Jet3._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    # --- composition with a scalar outer function -------------------------

    def compose(self, g0: float, g1: float, g2: float, g3: float) -> "Jet3":
        """Chain rule for h = g(self) given g, g', g'', g''' at self.f."""
        f = self
        h = Jet3()
        h.f = g0
        h.fa = g1 * f.fa
        h.fb = g1 * f.fb
        h.faa = g2 * f.fa * f.fa + g1 * f.faa
        h.fab = g2 * f.fa * f.fb + g1 * f.fab
        h.fbb = g2 * f.fb * f.fb + g1 * f.fbb
        h.faaa = g3 * f.fa ** 3 + 3.0 * g2 * f.fa * f.faa + g1 * f.faaa
        h.faab = (g3 * f.fa * f.fa * f.fb
                  + g2 * (f.faa * f.fb + 2.0 * f.fa * f.fab) + g1 * f.faab)
        h.fabb = (g3 * f.fa * f.fb * f.fb
                  + g2 * (f.fbb * f.fa + 2.0 * f.fb * f.fab) + g1 * f.fabb)
        h.fbbb = g3 * f.fb ** 3 + 3.0 * g2 * f.fb * f.fbb + g1 * f.fbbb
        return h

    def sqrt(self) -> "Jet3":
        v = self.f
        if v < _TINY:
            raise DomainError(f"sqrt of a non-positive jet value {v:.6g}")
        r = math.sqrt(v)
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
        v = self.f
        if v < _TINY:
            raise DomainError(
                f"fractional power of a non-positive jet value {v:.6g}")
        g0 = v ** e
        g1 = e * v ** (e - 1.0)
        g2 = e * (e - 1.0) * v ** (e - 2.0)
        g3 = e * (e - 1.0) * (e - 2.0) * v ** (e - 3.0)
        return self.compose(g0, g1, g2, g3)


def sqrt(x):
    """Square root that accepts a Jet3 or a plain number."""
    if isinstance(x, Jet3):
        return x.sqrt()
    v = float(x)
    if v < _TINY:
        raise DomainError(f"sqrt of a non-positive value {v:.6g}")
    return math.sqrt(v)


# --- evaluation points -------------------------------------------------------

class InvariantPoint:
    """A point in invariant space: any subset of (a, b, z) may be active."""

    __slots__ = ("a", "b", "z")

    def __init__(self, a: float | None = None, b: float | None = None,
                 z: float | None = None):
        self.a = None if a is None else float(a)
        self.b = None if b is None else float(b)
        self.z = None if z is None else float(z)

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

    def get(self, name: str) -> float:
        v = getattr(self, name)
        if v is None:
            raise ValueError(f"invariant {name!r} not set on this point")
        return v

    def shifted(self, name: str, delta: float) -> "InvariantPoint":
        kw = {"a": self.a, "b": self.b, "z": self.z}
        kw[name] = kw[name] + delta
        return InvariantPoint(**kw)

    def __repr__(self) -> str:
        parts = [f"{n}={getattr(self, n):.6g}" for n in ("a", "b", "z")
                 if getattr(self, n) is not None]
        return "InvariantPoint(" + ", ".join(parts) + ")"


def richardson_central(fn, h: float):
    """Derivative at 0 of fn(t) from central differences with steps h and
    h/2 plus one Richardson extrapolation step, (4 D(h/2) - D(h)) / 3."""

    def central(k: float):
        return (fn(k) - fn(-k)) / (2.0 * k)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def jet_check_fd(model, point: InvariantPoint, step: float = 1e-5) -> float:
    """Compare a model's jet against central finite differences.

    Checks first derivatives and the full second-derivative block of the
    model's primary invariants; returns the largest deviation relative to
    1 + |finite difference value|.  An independent cross-check that the
    forward-mode propagation rules are wired correctly.
    """
    jet = model.jet_at(point)
    names = model.jet_vars()
    h = float(step)

    def val(p: InvariantPoint) -> float:
        return model.value_at(p)

    worst = 0.0

    def track(got: float, fd: float) -> None:
        nonlocal worst
        worst = max(worst, abs(got - fd) / (1.0 + abs(fd)))

    v0 = val(point)
    first = {"a": jet.fa, "b": jet.fb}
    pure2 = {"a": jet.faa, "b": jet.fbb}
    for slot, name in zip(("a", "b"), names):
        vp = val(point.shifted(name, +h))
        vm = val(point.shifted(name, -h))
        track(first[slot], (vp - vm) / (2.0 * h))
        track(pure2[slot], (vp - 2.0 * v0 + vm) / (h * h))
    if len(names) == 2:
        na, nb = names
        vpp = val(point.shifted(na, +h).shifted(nb, +h))
        vpm = val(point.shifted(na, +h).shifted(nb, -h))
        vmp = val(point.shifted(na, -h).shifted(nb, +h))
        vmm = val(point.shifted(na, -h).shifted(nb, -h))
        track(jet.fab, (vpp - vpm - vmp + vmm) / (4.0 * h * h))
    return worst
