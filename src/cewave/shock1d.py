"""1+1D method-of-characteristics laboratory.

A quasilinear hyperbolic system in one space dimension carries each
initial value along a straight characteristic x(t) = phi + lam(u0(phi)) t.
When the propagation speed genuinely varies with the state the
characteristics cross in finite time and the profile steepens into a
shock; when the tracked mode is exceptional the speed is constant along
a simple wave and the characteristic fan never folds.  This module
builds both kinds of object explicitly: exact characteristic pushes, a
first-order finite-volume cross-check, simple-wave integration through
state space, and the simple wave of a scalar model with the time its
characteristic fan folds, if it does.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
from numpy._core._ufunc_config import _extobj_contextvar
from numpy._core.umath import _make_extobj
from numpy.linalg._linalg import _raise_linalgerror_eigenvalues_nonconvergence

from .charsys import (
    COINCIDENCE_RTOL,
    scalar_axis_entries,
    scalar_system,  # unused here; bench/test_bench.py patches this binding
    write_csv,
)
from .errors import (
    BadParams,
    CFLViolation,
    GridTooCoarse,
    KindError,
    ModeCollision,
)
from .lagrangians import Kind, LagrangianModel, builtin_names
from .rays import crossing_time, ternary_argmin

MULTIVALUED_TOL = 1e-12
PERIODIC_TOL = 1e-12
MAX_CFL = 0.9


# --- initial data -----------------------------------------------------------------


def _elementwise(fn: Callable, x: np.ndarray) -> np.ndarray:
    """fn applied to every entry of x.  fn is called once on the whole
    array; a function of one float (say, written with ``math``) raises
    TypeError there or returns the wrong shape, and is then called once
    per entry through ``np.vectorize``."""
    try:
        out = np.asarray(fn(x), dtype=float)
    except TypeError:
        out = None
    if out is None or out.shape != x.shape:
        out = np.vectorize(fn, otypes=[float])(x)
    return out


@dataclass(frozen=True)
class Profile1D:
    """Initial data u0 on a 1D interval, stored as samples plus the
    generating callable when one exists."""

    x: np.ndarray
    u: np.ndarray
    periodic: bool = False
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        if x.ndim != 1 or x.shape != u.shape:
            raise BadParams("profile needs matching 1D x and u arrays")
        if len(x) < 2:
            raise BadParams("profile needs at least two samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise BadParams("profile contains non-finite values")
        if np.any(np.diff(x) <= 0.0):
            raise BadParams("profile grid must be strictly increasing")
        if self.periodic and abs(u[0] - u[-1]) >= PERIODIC_TOL:
            raise BadParams(
                "periodic profile endpoints differ by "
                f"{abs(u[0] - u[-1]):.3e}")

    @classmethod
    def from_callable(cls, fn: Callable, x_lo: float, x_hi: float,
                      n: int = 401, periodic: bool = False) -> "Profile1D":
        x = np.linspace(float(x_lo), float(x_hi), int(n))
        return cls(x=x, u=_elementwise(fn, x), periodic=periodic, fn=fn)


# --- exact characteristic push ------------------------------------------------------


@dataclass(frozen=True)
class MoCSolution:
    """Pushed positions x, the values u riding them, and whether x folds."""

    x: np.ndarray
    u: np.ndarray
    multivalued: bool


def _speed_samples(speed: Callable, u: np.ndarray) -> np.ndarray:
    lam = np.asarray(speed(u), dtype=float)
    if lam.ndim == 0:
        lam = np.full_like(u, float(lam))
    return lam


def moc_solve(speed: Callable, profile: Profile1D, t: float) -> MoCSolution:
    """Push every profile sample along x = phi + lam(u0(phi)) t.

    The value riding each characteristic is frozen, so the solution at
    time t is exact wherever the pushed positions are still monotone;
    a fold (non-monotone positions) marks the profile as multivalued.
    """
    if t < 0.0:
        raise BadParams("characteristic push needs t >= 0")
    if not math.isfinite(t):
        raise BadParams("characteristic push needs a finite t")
    lam = _speed_samples(speed, profile.u)
    x_t = profile.x + lam * t
    multivalued = bool(np.any(np.diff(x_t) < -MULTIVALUED_TOL))
    return MoCSolution(x=x_t, u=profile.u.copy(), multivalued=multivalued)


def shock_time(speed: Callable, profile: Profile1D) -> float | None:
    """First crossing time of straight characteristics,
    t* = -1 / min_phi d[lam(u0(phi))]/dphi over negative slopes.

    Returns None when the speed never decreases along the grid.  Slopes
    are central differences, which is deliberately a different estimator
    from the adjacent-pair intersection used by rays.crossing_time.
    """
    if len(profile.x) < 3:
        raise GridTooCoarse("shock time needs at least 3 samples")
    lam = _speed_samples(speed, profile.u)
    slopes = np.gradient(lam, profile.x)
    worst = float(np.min(slopes))
    if worst >= 0.0:
        return None
    return -1.0 / worst


# --- first-order finite-volume cross-check ------------------------------------------


@dataclass(frozen=True)
class Snapshot:
    t: float
    x: np.ndarray
    u: np.ndarray


def _nan_max(*values):
    """The largest of values, or the first nan among them, as np.max
    gives it; max() alone keeps a nan only when it comes first."""
    for v in values:
        if v != v:
            return v
    return max(values)


def upwind_solve(flux: Callable, profile: Profile1D, t: float, nx: int,
                 cfl: float = 0.45) -> Snapshot:
    """Godunov first-order finite-volume solution for a convex flux.

    Serves as an independent cross-check of moc_solve before the shock
    time; afterwards it keeps computing the entropy solution while the
    characteristic push goes multivalued.

    The flux must be elementwise: flux(v)[k] depends on v[k] alone.  Each
    step calls it once on the cells with their two ghost cells and once
    on the clipped interface states (a flux of one float is called per
    entry instead, see _elementwise), and on single floats for speeds.
    The cells live in one array between their two ghost cells, and the
    speed at the flux's minimizer, which never moves, is taken once.
    """
    if cfl > MAX_CFL:
        raise CFLViolation(f"cfl={cfl:g} exceeds the stability bound "
                           f"{MAX_CFL:g}")
    if not cfl > 0.0:
        raise BadParams("cfl must be positive")
    if t < 0.0:
        raise BadParams("upwind solve needs t >= 0")
    if not math.isfinite(t):
        raise BadParams("upwind solve needs a finite t")
    try:
        nx = operator.index(nx)
    except TypeError:
        raise BadParams(f"upwind solve needs a whole number of cells, "
                        f"got nx={nx!r}") from None
    if nx < 4:
        raise BadParams("upwind solve needs nx >= 4")

    x_lo, x_hi = float(profile.x[0]), float(profile.x[-1])
    dx = (x_hi - x_lo) / nx
    centers = x_lo + dx * (np.arange(nx) + 0.5)
    u_ext = np.empty(nx + 2)
    u, u_left, u_right = u_ext[1:-1], u_ext[:-1], u_ext[1:]
    if profile.fn is not None:
        u[:] = _elementwise(profile.fn, centers)
    else:
        u[:] = np.interp(centers, profile.x, profile.u)
    left, right = (-1, 0) if profile.periodic else (0, -1)

    h = 1e-6

    def speed(v):
        return abs((flux(v + h) - flux(v - h)) / (2.0 * h))

    u_star = ternary_argmin(flux, float(u.min()) - 1.0, float(u.max()) + 1.0)
    s_star = speed(u_star)
    # np.clip(u_star, lo, hi) without converting u_star in every step
    star = np.array(u_star)

    elapsed = 0.0
    while elapsed < t:
        s_max = float(_nan_max(speed(float(u.min())), speed(float(u.max())),
                               s_star))
        if s_max == 0.0:
            break
        dt = min(cfl * dx / s_max, t - elapsed)
        u_ext[0], u_ext[-1] = u[left], u[right]  # the ghost cells
        lo = np.minimum(u_left, u_right)
        hi = np.maximum(u_left, u_right)
        f_min = _elementwise(flux, star.clip(lo, hi))
        f = _elementwise(flux, u_ext)  # once per cell, ghost cells included
        f_max = np.maximum(f[:-1], f[1:])
        fluxes = np.where(u_left <= u_right, f_min, f_max)
        u -= (dt / dx) * (fluxes[1:] - fluxes[:-1])
        elapsed += dt
    return Snapshot(t=float(t), x=centers, u=u.copy())


def moc_upwind_l1(sol: MoCSolution, snap: Snapshot) -> float:
    """Integral of |moc - upwind| over the common interval, with the
    single-valued characteristic solution interpolated onto the
    finite-volume centers."""
    if sol.multivalued:
        raise BadParams("L1 comparison needs a single-valued push")
    u_moc = np.interp(snap.x, sol.x, sol.u)
    dx = snap.x[1] - snap.x[0]
    return float(np.sum(np.abs(u_moc - snap.u)) * dx)


# --- simple waves through state space -----------------------------------------------


class ReducedSystem(NamedTuple):
    """Eigen-data of a small quasilinear system at one state, as Python
    floats: at most two modes, eigenvalues ascending, and right[k] the
    right eigenvector of mode k as a unit column."""

    eigenvalues: tuple[float, ...]
    right: tuple[tuple[float, ...], ...]


MAX_MODES = 2


def _check_size(n: int) -> None:
    if n > MAX_MODES:
        raise BadParams(f"simple waves take systems of at most {MAX_MODES} "
                        f"modes, got {n}")


def _unit(x: float, y: float) -> tuple[float, float]:
    norm = math.sqrt(x * x + y * y)
    return x / norm, y / norm


# numpy's error state inside _eig, that of np.linalg.eig: LAPACK's
# non-convergence sets the invalid flag, which raises LinAlgError, and
# the other flags are ignored.  It is built once (its buffer size is the
# one in force at import, which no ufunc of _eig reads)
_EIG_STATE = _make_extobj(call=_raise_linalgerror_eigenvalues_nonconvergence,
                          invalid="call", over="ignore", divide="ignore",
                          under="ignore")


def _eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors (columns) of the real matrix M,
    both complex: the LAPACK gufunc behind np.linalg.eig under that
    wrapper's finiteness check and error state, so with its bits, but
    without its shape and type checks, casts and real-result test.  The
    error state is entered by setting the prebuilt _EIG_STATE on numpy's
    context variable, as np.errstate does, and the caller's is put back
    on the way out, also when LAPACK raises."""
    if not all(map(math.isfinite, M.ravel().tolist())):
        raise LinAlgError("Array must not contain infs or NaNs")
    token = _extobj_contextvar.set(_EIG_STATE)
    try:
        return _umath_linalg.eig(M, signature="d->DD")
    finally:
        _extobj_contextvar.reset(token)


def _reduced_from_matrix(M) -> ReducedSystem:
    """Eigen-data of the float matrix M (see _reduced_2x2), which must
    have at most two modes."""
    _check_size(len(M))
    return _reduced_2x2(M)


def _reduced_2x2(M: np.ndarray) -> ReducedSystem:
    """Sorted, real, unit-normalized eigen-data of the 2x2 float matrix M
    from one LAPACK call.  The bookkeeping runs on Python floats and
    gives the bits of charsys.sorted_eig, nearly_real and a numpy column
    norm."""
    w, V = _eig(M)
    (w0, w1), ((v00, v01), (v10, v11)) = w.tolist(), V.real.tolist()
    # a real M has two real eigenvalues or a conjugate pair (equal real
    # parts, conjugate eigenvectors), so w0 alone decides nearly_real.
    # Equal real parts are ordered by the imaginary part, as sorted_eig
    # does: a nearly real pair may carry real parts -0.0 and 0.0
    lam0, lam1 = w0.real, w1.real
    if not abs(w0.imag) <= 1e-10 * (1.0 + abs(lam0)):
        raise ModeCollision("complex eigenvalues: system is not "
                            "hyperbolic at this state")
    r0, r1 = _unit(v00, v10), _unit(v01, v11)
    if lam1 < lam0 or (lam1 == lam0 and w1.imag < w0.imag):
        return ReducedSystem((lam1, lam0), (r1, r0))
    return ReducedSystem((lam0, lam1), (r0, r1))


def scalar_reduced_factory(
        model: LagrangianModel
) -> Callable[[tuple[float, ...]], ReducedSystem]:
    """1+1 reduction of a scalar-field model: states (A, B) with the
    remaining gradient components zero, which closes on the leading
    2x2 block of the full axis system."""
    if model.kind is not Kind.Scalar:
        raise KindError("the scalar reduction needs a model in the field "
                        "invariant z, such as the builtins "
                        + ", ".join(builtin_names((Kind.Scalar,))))

    def make(U) -> ReducedSystem:
        A, B = U
        m00, m01 = scalar_axis_entries(model, A, B)
        return _reduced_2x2(np.array(((m00, m01), (-1.0, 0.0))))

    return make


@dataclass(frozen=True)
class SimpleWave:
    """One-parameter family of states whose tangent follows a single
    right eigenvector; the recorded speed samples tell whether the mode
    is exceptional (constant lam) or genuinely nonlinear."""

    mode: int
    component: int
    phis: np.ndarray
    states: np.ndarray
    lams: np.ndarray
    xi: np.ndarray

    def lam_variation(self) -> float:
        return float(np.max(self.lams) - np.min(self.lams))


def _track_mode(sys: ReducedSystem,
                r_ref) -> tuple[int, tuple[float, ...]]:
    """Index and sign-aligned right eigenvector of the mode of sys that
    best overlaps r_ref; ModeCollision when the mode is no longer
    distinct.  Runs on Python floats (at most two modes)."""
    columns = sys.right
    if len(columns) == 1:
        j, dot = 0, r_ref[0] * columns[0][0]
    else:
        x, y = r_ref
        (a0, a1), (b0, b1) = columns
        dots = (x * a0 + y * a1, x * b0 + y * b1)
        overlaps = (abs(dots[0]), abs(dots[1]))
        # the first of equal overlaps wins, as in argmax
        j = 1 if overlaps[1] > overlaps[0] else 0
        dot = dots[j]
        lam = sys.eigenvalues
        gap = abs(lam[1 - j] - lam[j])
        scale = 1.0 + max(abs(lam[0]), abs(lam[1]))
        if gap < COINCIDENCE_RTOL * scale:
            raise ModeCollision(
                f"eigenvalue gap {gap:.3e} below "
                f"{COINCIDENCE_RTOL * scale:.3e} while tracking a mode")
        runner_up = overlaps[1 - j]
        if runner_up > 0.99 * overlaps[j]:
            raise ModeCollision(
                "eigenvectors no longer distinguish the tracked mode "
                f"(overlap ratio {runner_up / overlaps[j]:.4f})")
    r = columns[j]
    if dot < 0.0:
        r = tuple([-c for c in r])
    return j, r


def simple_wave_construct(factory: Callable[[tuple[float, ...]],
                                            ReducedSystem],
                          mode: int, phi_range: tuple[float, float],
                          U0, n: int = 201,
                          component: int | None = None) -> SimpleWave:
    """Integrate dU/dphi = xi(phi) R(U) with RK4 from U0 across the
    parameter range, scaling xi so the tracked state component equals
    phi itself (which requires U0 to carry the range start in that
    component).  The component defaults to the largest entry of the
    starting eigenvector.

    The state is a tuple of Python floats, one per component, and each
    RK4 step is rays.rk4_step written out on those floats with the same
    operations in the same order; each state's system is built once (the
    node's system is RK4 stage k1) and its eigen-data stay Python floats.
    The factory receives the state tuple.
    """
    U0 = tuple(np.asarray(U0, dtype=float).reshape(-1).tolist())
    lo, hi = (float(v) for v in phi_range)
    if not hi > lo:
        raise BadParams("phi range must be increasing")
    if n < 3:
        raise GridTooCoarse("simple wave needs at least 3 nodes")

    sys0 = factory(U0)
    _check_size(len(sys0.eigenvalues))
    if not 0 <= mode < len(sys0.eigenvalues):
        raise BadParams(f"mode index {mode} out of range for a "
                        f"{len(sys0.eigenvalues)}-mode system")
    r0 = sys0.right[mode]
    if component is None:
        component = int(np.argmax(np.abs(r0)))
    elif not 0 <= component < len(U0):
        raise BadParams(f"component index {component} out of range")
    if abs(U0[component] - lo) > 1e-12:
        raise BadParams(
            "U0 must start the parameter range in the tracked "
            f"component: U0[{component}]={U0[component]:g} vs lo={lo:g}")

    phis = np.linspace(lo, hi, int(n))
    h = float(phis[1] - phis[0])

    def normalizer(r: tuple[float, ...]) -> float:
        rc = r[component]
        if abs(rc) < 1e-12:
            raise BadParams("tracked eigenvector loses its normalizing "
                            "component along the wave")
        return rc

    def slope(sysk: ReducedSystem) -> tuple[float, ...]:
        # follows the mode tracked at the current node, r_ref
        _, r = _track_mode(sysk, r_ref)
        rc = normalizer(r)
        return tuple([c / rc for c in r])

    def rhs(U: tuple[float, ...]) -> tuple[float, ...]:
        return slope(factory(U))

    half, sixth = 0.5 * h, h / 6.0

    states, lams, xis = [], [], []
    r_ref = r0 if r0[component] > 0 else tuple([-c for c in r0])
    U, sysk = U0, sys0
    for k in range(len(phis)):
        j, r = _track_mode(sysk, r_ref)
        states.append(U)
        lams.append(sysk.eigenvalues[j])
        xis.append(1.0 / normalizer(r))
        r_ref = r
        if k == len(phis) - 1:
            break
        k1 = slope(sysk)
        k2 = rhs(tuple([u + half * du for u, du in zip(U, k1)]))
        k3 = rhs(tuple([u + half * du for u, du in zip(U, k2)]))
        k4 = rhs(tuple([u + h * du for u, du in zip(U, k3)]))
        U = tuple([u + sixth * (a + 2 * b + 2 * c + d)
                   for u, a, b, c, d in zip(U, k1, k2, k3, k4)])
        sysk = factory(U)

    return SimpleWave(mode=mode, component=component, phis=phis,
                      states=np.array(states), lams=np.array(lams),
                      xi=np.array(xis))


# --- a model's simple-wave fan ------------------------------------------------------


def model_wave(model: LagrangianModel,
               horizon: float = 10.0) -> tuple[SimpleWave, float | None]:
    """The simple wave of a scalar model that ``cewave shock`` fans out,
    mode 0 from (A, B) = (0.3, 0.1) for B across [0.1, 0.6], and the
    time within the horizon at which its characteristics first cross
    (None when the fan does not fold by then)."""
    wave = simple_wave_construct(scalar_reduced_factory(model), 0, (0.1, 0.6),
                                 np.array([0.3, 0.1]), component=1)
    return wave, crossing_time(wave.lams, wave.phis, t_max=horizon)


# --- plot-ready exports --------------------------------------------------------------


def write_characteristics_csv(path, phis, lams, x_by_t,
                              t_list) -> None:
    """Columns phi, lam, then one pushed-position column per time."""
    write_csv(
        path, ["phi", "lam"] + [f"x_t{repr(float(t))}" for t in t_list],
        [phis, lams, *x_by_t])
