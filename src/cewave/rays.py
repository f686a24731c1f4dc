"""Characteristic rays and discontinuity-amplitude transport.

Rays are integral curves of dx/ds = dH/dp, dp/ds = -dH/dx for a
dispersion function H(x, p); on constant backgrounds H does not depend
on x and the momentum is conserved exactly.  The discontinuity
amplitude of a single mode obeys a scalar Riccati equation
dpi/ds = -m pi - c pi^2 whose quadratic coefficient vanishes exactly
for exceptional modes, which is what keeps their amplitudes bounded.

A ray on a constant background is a straight line built in closed
form, equal to the last bit to what fixed-step RK4 would give; an
x-dependent H integrates with fixed-step RK4.  Both give reproducible
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charsys import (
    ETA,
    FieldBackground,
    _check_field_model,
    cone_coefficients,
    scalar_cone_matrix,
    u_and_g,
    write_csv,
)
from .errors import (
    BadParams,
    BadUsage,
    GridTooCoarse,
    OffShellStart,
    StepFailure,
)
from .lagrangians import Kind, LagrangianModel

_TINY = 1e-300
DEFAULT_TOL = 1e-9
DEFAULT_STEP = 1e-2
BLOWUP_THRESHOLD = 1e12
# a ray or transport run takes at most this many fixed steps: 100 times
# the longest run of the benchmark and the README (10,000 steps); a ray's
# states then take at most 80 MB
MAX_STEPS = 1_000_000


class ConeHamiltonian:
    """Quadratic dispersion H = G^{mu nu} p_mu p_nu with a constant
    coefficient matrix; gradients are analytic."""

    degree = 2
    depends_on_x = False

    def __init__(self, G: np.ndarray):
        self.G = np.asarray(G, dtype=float).reshape(4, 4)

    @classmethod
    def metric(cls) -> "ConeHamiltonian":
        return cls(ETA)

    @classmethod
    def scalar_model(cls, model: LagrangianModel,
                     bg: FieldBackground) -> "ConeHamiltonian":
        return cls(scalar_cone_matrix(model.jet_at(bg.point(Kind.Scalar)), bg))

    @classmethod
    def alpha_model(cls, model: LagrangianModel,
                    bg: FieldBackground) -> "ConeHamiltonian":
        """The cone 2 u L'' + g L' of an L(alpha) model on an (E, B)
        background: G = L' eta + 2 L'' F eta F^T, since u = p F eta F^T p."""
        jet = model.jet_at(bg.point(Kind.VectorAlpha))
        F = bg.f_upper()
        return cls(ETA * jet.fa + 2.0 * jet.faa * (F @ ETA @ F.T))

    def value(self, x: np.ndarray, p: np.ndarray) -> float:
        return float(p @ self.G @ p)

    def grad_p(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return 2.0 * (self.G @ p)

    def grad_x(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.zeros(4)

    def magnitude(self, x: np.ndarray, p: np.ndarray) -> float:
        """Sum of absolute term magnitudes of H at (x, p); stays O(|p|^2)
        even where the signed terms cancel on the cone."""
        pa = np.abs(p)
        return float(pa @ np.abs(self.G) @ pa)


class QuarticHamiltonian:
    """Full two-invariant dispersion H = K u^2 + u g P + g^2 R on a
    constant (E, B) background, with u = U.U for U^mu = F^{lam mu} p_lam
    and g = p.p.  Gradients in p are analytic:
    du/dp_mu = 2 U_nu F^{mu nu}, dg/dp_mu = 2 p^mu."""

    degree = 4
    depends_on_x = False

    def __init__(self, model: LagrangianModel, bg: FieldBackground):
        _check_field_model(model)
        point = bg.point(model.kind)
        jet = model.jet_at(point)
        b = point.b if point.b is not None else 0.0
        K, P, R = cone_coefficients(jet.fa, jet.faa, jet.fab, jet.fbb,
                                    point.a, b)
        self.K, self.P, self.R = float(K), float(P), float(R)
        self.F = bg.f_upper()

    def value(self, x: np.ndarray, p: np.ndarray) -> float:
        _, _, u, g = u_and_g(self.F, p)
        return self.K * u * u + u * g * self.P + g * g * self.R

    def grad_p(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        _, U_dn, u, g = u_and_g(self.F, p)
        du = 2.0 * (self.F @ U_dn)
        dg = 2.0 * (ETA @ p)
        return (2.0 * self.K * u + g * self.P) * du + (
            u * self.P + 2.0 * g * self.R) * dg

    def grad_x(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.zeros(4)

    def magnitude(self, x: np.ndarray, p: np.ndarray) -> float:
        """Sum of absolute term magnitudes of H at (x, p).  On-shell the
        signed terms cancel (and for a coincident pair the gradient does
        too), so defect ratios need this as the reference scale."""
        U_up, _, _, _ = u_and_g(self.F, p)
        u_abs, g_abs = float(U_up @ U_up), float(p @ p)
        return (abs(self.K) * u_abs ** 2 + u_abs * g_abs * abs(self.P)
                + g_abs ** 2 * abs(self.R) + _TINY)


RAY_HEADER = ["s", "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3", "H"]


@dataclass(frozen=True)
class RayPath:
    """A traced ray as one table: row k is the state after k steps, with
    the columns of RAY_HEADER (s, x0..x3, p0..p3, H)."""

    states: np.ndarray
    drift: float


def rk4_step(f: Callable, y, k1, h: float):
    """One classical fourth-order Runge-Kutta step of dy/ds = f(y), given
    the first stage k1 = f(y).

    This is the one definition of the step.  ``transport_amplitude`` and
    ``shock1d.simple_wave_construct`` write its stages out on Python
    floats with the same operations in the same order, and tests pin
    both loops to it bit for bit."""
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# an overflow surfaces as a non-finite state, which raises StepFailure
@np.errstate(over="ignore", invalid="ignore")
def trace(H, x0, p0, s_max: float, step: float = DEFAULT_STEP,
          tol: float = DEFAULT_TOL) -> RayPath:
    """Fixed-step RK4 ray from (x0, p0); requires the start on the
    cone and reports the worst |H - H0| drift along the path.

    When H declares ``depends_on_x = False`` and the step is positive,
    the path is built in closed form: p then stays equal to p0 to the
    last bit, all four RK4 stages see the same slope, and every step adds
    the same increment, so a cumulative sum gives the RK4 path exactly.
    """
    x = np.asarray(x0, dtype=float).reshape(4).copy()
    p = np.asarray(p0, dtype=float).reshape(4).copy()
    H0 = H.value(x, p)
    if not np.isfinite(H0) or abs(H0) >= tol:
        raise OffShellStart(
            f"initial dispersion value |H|={abs(H0):.3e} is not below "
            f"tol={tol:.1e}; the start point is off the cone")

    def deriv(y: np.ndarray) -> np.ndarray:
        # y stacks the position and the momentum: y = [x, p]
        out = np.empty(8)
        out[:4] = H.grad_p(y[:4], y[4:])
        out[4:] = -H.grad_x(y[:4], y[4:])
        if not np.all(np.isfinite(out)):
            raise StepFailure("non-finite ray derivative")
        return out

    n_steps = _step_count(s_max, step)
    states = np.empty((n_steps + 1, 10))
    # s adds the step in sequence, as a running s += step does
    s = states[:, 0]
    s[0] = 0.0
    s[1:] = step
    np.cumsum(s, out=s)
    y = np.concatenate([x, p])
    # a negative step would add +0.0 to p, turning its -0.0 entries into
    # +0.0, so the RK4 stages could differ in the sign of a zero
    if not getattr(H, "depends_on_x", True) and step > 0.0:
        _straight_ray(deriv(y), y, states, step)
        # H depends on p alone, and p never changes
        states[:, 9] = H0
        return RayPath(states=states, drift=0.0)

    states[0, 1:9] = y
    states[0, 9] = H0
    drift = 0.0
    for k in range(1, n_steps + 1):
        y = rk4_step(deriv, y, deriv(y), step)
        if not np.all(np.isfinite(y)):
            raise StepFailure(f"non-finite ray state at s={s[k]:.6g}")
        Hk = H.value(y[:4], y[4:])
        drift = max(drift, abs(Hk - H0))
        states[k, 1:9] = y
        states[k, 9] = Hk
    return RayPath(states=states, drift=drift)


def _step_count(s_max: float, step: float) -> int:
    """Number of fixed steps from 0 toward s_max: ``s_max / step``
    rounded to the nearest whole number (ties to even), and at least
    one, so the last state can fall short of s_max or pass it by up to
    half a step, or by more when the count is raised to one.  The step
    must point from 0 toward s_max, and the count be at most
    MAX_STEPS."""
    if not (np.isfinite(s_max) and np.isfinite(step) and step != 0.0
            and np.isfinite(float(s_max) / float(step))):
        raise BadParams(f"need a finite s_max and a finite nonzero step, "
                        f"got s_max={s_max:g}, step={step:g}")
    if s_max / step < 0.0:
        raise BadParams(f"the step must have the sign of s_max, got "
                        f"s_max={s_max:g}, step={step:g}")
    count = max(1, int(round(s_max / step)))
    if count > MAX_STEPS:
        raise BadParams(f"s_max / step (--s-max / --step) asks for "
                        f"{s_max / step:.6g} steps; at most {MAX_STEPS} "
                        "are taken")
    return count


def _straight_ray(k: np.ndarray, y0: np.ndarray, states: np.ndarray,
                  step: float) -> None:
    """Fill the x and p columns of ``states`` with the RK4 path of a
    constant slope k = [dH/dp, -dH/dx] from y0: ``np.cumsum`` adds the
    rows in sequence, as the step loop does."""
    rows = states[:, 1:9]
    rows[0] = y0
    rows[1:] = (step / 6.0) * (k + 2 * k + 2 * k + k)
    np.cumsum(rows, axis=0, out=rows)
    finite = np.all(np.isfinite(rows[1:]), axis=1)
    if not finite.all():
        bad = int(np.argmin(finite)) + 1
        raise StepFailure(f"non-finite ray state at s={states[bad, 0]:.6g}")


def euler_defect(H, x, p) -> float:
    """Violation of p . dH/dp = N H relative to N times H's term
    magnitude at (x, p); requires the evaluator to declare its degree."""
    if H.degree is None:
        raise BadUsage("Hamiltonian declares no homogeneity degree")
    x = np.zeros(4) if x is None else np.asarray(x, dtype=float).reshape(4)
    p = np.asarray(p, dtype=float).reshape(4)
    gp = H.grad_p(x, p)
    lhs = float(p @ gp)
    rhs = H.degree * H.value(x, p)
    scale = H.degree * H.magnitude(x, p)
    return abs(lhs - rhs) / (scale + _TINY)


# --- amplitude transport ---------------------------------------------------------


@dataclass(frozen=True)
class TransportState:
    """Single-mode discontinuity amplitude with its linear coefficient
    m and quadratic coefficient c (zero for exceptional modes)."""

    pi0: float
    m: float = 0.0
    c: float = 0.0


@dataclass(frozen=True)
class TransportResult:
    s: np.ndarray
    pi: np.ndarray
    blown_up: bool
    s_star: float | None


def transport_amplitude(ts: TransportState, s_max: float,
                        step: float = DEFAULT_STEP) -> TransportResult:
    """Integrate dpi/ds = -m pi - c pi^2 with RK4 and blow-up
    detection.  Blow-up is an outcome, not an error.  When m = 0 the
    detected location is refined by bisecting the closed-form solution
    denominator 1 + c pi0 s, which RK4 alone overshoots.

    The step loop is rk4_step written out on floats, with the same
    operations in the same order."""
    m, c = ts.m, ts.c
    n_steps = _step_count(s_max, step)
    half, sixth = 0.5 * step, step / 6.0
    v = ts.pi0
    pis = [v]
    blown = False
    for _ in range(n_steps):
        k1 = -m * v - c * v * v
        w = v + half * k1
        k2 = -m * w - c * w * w
        w = v + half * k2
        k3 = -m * w - c * w * w
        w = v + step * k3
        k4 = -m * w - c * w * w
        v = v + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        pis.append(v)
        # also true for nan and +-inf
        if not abs(v) <= BLOWUP_THRESHOLD:
            blown = True
            break
    # s adds the step in sequence, as a running s += step does
    s = np.empty(len(pis))
    s[0] = 0.0
    s[1:] = step
    np.cumsum(s, out=s)

    s_star = float(s[-1]) if blown else None
    if blown and m == 0.0 and c * ts.pi0 < 0.0:
        # denominator of pi(s) = pi0 / (1 + c pi0 s)
        lo, hi = 0.0, s_star
        d = lambda t: 1.0 + c * ts.pi0 * t
        if d(hi) < 0.0 < d(lo):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if d(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            s_star = 0.5 * (lo + hi)
    return TransportResult(s=s, pi=np.array(pis),
                           blown_up=blown, s_star=s_star)


# --- characteristic crossings -------------------------------------------------------


def ternary_argmin(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Ternary-search the minimizer of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    for _ in range(200):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if fn(m1) <= fn(m2):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def crossing_time(lam, phis, t_max: float = np.inf) -> float | None:
    """Earliest positive intersection time of the straight
    characteristics x(t) = phi + lam(phi) t, from adjacent sample
    pairs t = -dphi/dlam, with phis in either order; None when no pair
    converges within t_max.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.size < 3:
        raise GridTooCoarse("need at least 3 characteristic samples")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != phis.shape:
        raise GridTooCoarse("speed samples must match the parameter grid")

    dphi = np.diff(phis)
    dlam = np.diff(lam)
    # opposite signs converge; the product dphi * dlam could underflow
    converging = np.sign(dphi) * np.sign(dlam) < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        times = np.where(converging, -dphi / dlam, np.inf)
    t_star = float(np.min(times))
    if not np.isfinite(t_star):
        return None
    return t_star if t_star <= t_max else None


# --- CSV export -----------------------------------------------------------------------


def write_ray_csv(path: str, ray: RayPath) -> None:
    write_csv(path, RAY_HEADER, ray.states.T)


def write_transport_csv(path: str, result: TransportResult) -> None:
    """Columns s, pi and the run's blown_up flag on every row."""
    write_csv(path, ["s", "pi", "blown_up"],
              [result.s, result.pi, np.full(len(result.s), result.blown_up)])
