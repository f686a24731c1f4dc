"""Per-point reference implementations that only the tests use.

``classify_per_point`` is the classification loop that evaluates one grid
point at a time with float jets; ``ce.classify`` must reproduce its report
exactly, which ``report_text`` writes out.  ``margin_ok_flat`` probes the
guard margin on full shifted copies of the flat grid.  ``_am_groups``
writes the third-order conditions out in L-partials, ``general_ce_raw`` gives the raw values and normalizers of
their compact forms, ``vector_char_data_jet3`` builds the cone data
through full third-order jets, ``synthetic_jet`` and ``nondegenerate_jet`` draw
random third-order jets, and ``jet_check_fd`` cross-checks jets against
finite differences.  ``biorthogonality_defect`` measures a
characteristic system's left and right eigenvectors against each other,
and ``crosscheck_cone_vs_eigen`` inserts its eigenvalues into a
dispersion function.  ``CallableHamiltonian`` traces rays of an
arbitrary H with central-difference gradients, and ``scalar_model_cone`` and
``alpha_model_cone`` build the quadratic cones of a scalar and an L(alpha)
model.  ``axis_matrices`` writes a characteristic
system out per coordinate axis.  ``burgers_factory`` is the 2x2 system
of a Burgers mode and a passive one.  ``scalar_reduced_oracle`` builds a simple
wave's 2x2 eigen-data through the full scalar system with numpy
bookkeeping, ``track_mode`` follows a mode with numpy,
``simple_wave_oracle`` integrates a whole simple wave on those arrays, and
``wave_alignment_sines`` measures how closely a simple wave follows its
eigenvector.  ``transport_oracle`` integrates the amplitude transport
with one ``rk4_step`` call per step.  ``repr_csv`` writes float rows one
repr at a time through the csv module, as the column CSV writers must,
``write_snapshot_csv`` writes an upwind snapshot through the float CSV
writer, ``upwind_oracle`` is the Godunov loop that rebuilds its ghost
cells and all three wave speeds in every step, ``fresnel_batch_numpy_helpers`` is
the dispersion solve written with ``np.cross`` and ``np.select``, and
``fresnel_scan_per_draw`` is the dispersion scan that draws and solves
one background at a time.  ``sym_pairs`` and ``sym_dim``
enumerate and count the independent components of a symmetric D x D
matrix, ``gauge_project`` projects a discontinuity onto the gauge
constraint, ``identity_checks`` and ``GravityProbe`` check gauge-bound
gravity discontinuities, and ``survey_normals_per_draw`` draws a gravity
survey's normals one candidate at a time, with Q as ``covector_q_dot``
and the null norm as ``null_norm``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cewave.ce import (
    _CLASSIFY_TABLE,
    _SECTORS,
    DEFAULT_TOL,
    GUARD_MARGIN,
    REPORT_SCHEMA,
    CEReport,
    GridSpec,
    VectorCharData,
    _evaluate,
    _tar_terms,
    general_ce_residuals,
)
from cewave.charsys import (
    _METRIC_FACTOR,
    COINCIDENCE_RTOL,
    ETA,
    CharSystem,
    FieldBackground,
    FresnelBatch,
    _check_field_model,
    _quadratic_roots,
    _scalar_axis_matrix,
    cone_coefficients,
    cone_degeneracy,
    fresnel_roots,
    nearly_real,
    sorted_eig,
    unit_direction,
    unit_rows,
    write_csv,
)
from cewave.errors import (
    BadParams,
    CFLViolation,
    DegeneracyError,
    DegenerateSystem,
    DomainError,
    EmptyGrid,
    GridTooCoarse,
    InputError,
    KindError,
    ModeCollision,
    NumericalError,
)
from cewave.gravity import (
    MIN_NONNULL_Q,
    RANK_RTOL,
    _check_covector,
    _frame,
    _phi_pi_terms,
    _phiphi_pi,
    _scalars,
    covector_q,
    eta,
    gauge_vector,
    pi_from_components,
)
from cewave.jets import TINY, InvariantPoint, Jet3, power
from cewave.lagrangians import Kind, LagrangianModel
from cewave.rays import (
    BLOWUP_THRESHOLD,
    ConeHamiltonian,
    TransportResult,
    TransportState,
    _step_count,
    rk4_step,
    ternary_argmin,
)
from cewave.shock1d import (
    MAX_CFL,
    Profile1D,
    ReducedSystem,
    SimpleWave,
    Snapshot,
    _elementwise,
)


# ---------------------------------------------------------------------------
# Expanded third-order conditions
# ---------------------------------------------------------------------------

def _am_groups(d: VectorCharData) -> tuple[list[float], list[float]]:
    """Additive groups of the fully expanded third-order conditions.

    These are the same two polynomials as the compact K/P/R-gradient
    forms, written out in L-partials only; the equality is exact (checked
    symbolically during development, overall factor 1).  Note the middle
    factor of the last bracket in the second condition's Lbbb group is the
    mixed partial Lab: with the pure partial Lbb there instead, the two
    routes differ by La^2*Laa*Lbbb*b*(Lab-Lbb)*(8*Laa^2-3*Laa*Lbb+5*Lab^2)
    and no constant factor relates them.
    """
    La = d.jet.fa
    Laa, Lab, Lbb = d.jet.faa, d.jet.fab, d.jet.fbb
    Laaa, Laab, Labb, Lbbb = d.jet.faaa, d.jet.faab, d.jet.fabb, d.jet.fbbb
    al, be = d.alpha, d.beta
    K = d.K

    g1 = [
        1.5 * La * Labb * (
            La * (16 * Laa**3 * Lab + 8 * Laa * Lab**3 + Lab**3 * Lbb)
            - K * (8 * al * Laa**2 * Lab
                   + be * (8 * Laa * Lab**2 + 4 * Laa**2 * Lbb
                           + Lab**2 * Lbb))),
        0.5 * La * Laaa * (
            La * Lab * (16 * Laa * Lab**2 + 8 * Lab**2 * Lbb + Lbb**3)
            - K * (8 * al * Lab**3 + be * Lbb * (12 * Lab**2 + Lbb**2))),
        -1.5 * La * Lab * Laab * (
            La * Lab * (16 * Laa**2 + 4 * Lab**2 + 4 * Laa * Lbb + Lbb**2)
            - K * (8 * al * Laa * Lab
                   + be * (4 * Lab**2 + 8 * Laa * Lbb + Lbb**2))),
        -0.5 * La * Lbbb * (
            La * (16 * Laa**4 + 12 * Laa**2 * Lab**2 + Lab**4
                  - 4 * Laa**3 * Lbb)
            - K * (8 * al * Laa**3 + be * Lab * (12 * Laa**2 + Lab**2))),
        -1.5 * (4 * Laa + Lbb) * K**2 * (La * Lab - be * K),
    ]

    g2 = [
        -1.5 * La * Laab * (
            (4 * Laa + Lbb) * (2 * La**2 * Lab**2 - al * La * Lab**2 * Lbb)
            + be * La * Lab * (16 * Laa * Lab**2 + 6 * Lab**2 * Lbb
                               - 2 * Laa * Lbb**2)
            - be * K * (-al * Lab * Lbb**2
                        + 2 * be * (4 * Laa * Lab**2 + 2 * Lab**2 * Lbb
                                    + Laa * Lbb**2))),
        1.5 * La * Labb * (
            (4 * Laa**2 + Lab**2) * (2 * La**2 * Lab - al * La * Lab * Lbb)
            - be * K * Lab * (-al * Lab * Lbb
                              + 2 * be * (4 * Laa**2 + Lab**2
                                          + 2 * Laa * Lbb))
            + 2 * be * La * (8 * Laa**2 * Lab**2 + 2 * Lab**4
                             + Laa * Lbb * Lab**2 - Laa**2 * Lbb**2)),
        0.5 * La * Laaa * (
            (4 * Lab**2 + Lbb**2) * (2 * La**2 * Lab - al * La * Lab * Lbb)
            + be * La * (16 * Lab**4 + 6 * Lab**2 * Lbb**2
                         - 2 * Laa * Lbb**3)
            - be * K * (8 * be * Lab**3 + 6 * be * Lab * Lbb**2
                        - al * Lbb**3)),
        -0.5 * La * Lbbb * (
            2 * La**2 * Laa * (4 * Laa**2 + 2 * Lab**2 - Laa * Lbb)
            + 2 * be * La * Laa * Lab * (8 * Laa**2 + 5 * Lab**2
                                         - 3 * Laa * Lbb)
            - be * K * (8 * be * Laa**3 + 6 * be * Laa * Lab**2
                        - al * Lab**3)
            - al * La * (Lab**4 + 4 * Laa**3 * Lbb)),
        -1.5 * K**2 * (4 * La + 4 * be * Lab - al * Lbb)
        * (La * Lab - be * K),
    ]
    return g1, g2


def _raw_pair(first, second) -> tuple[float, float, float, float]:
    """(raw1, raw2, scale1, scale2) of two additive term lists."""
    return (sum(first), sum(second), sum(abs(t) for t in first) + TINY,
            sum(abs(t) for t in second) + TINY)


def general_ce_raw(data: VectorCharData) -> tuple[float, float, float, float]:
    """Raw values and normalizers of the two third-order conditions."""
    return _raw_pair(*_tar_terms(data))


def appendix_raw(jet: Jet3, point: InvariantPoint
                 ) -> tuple[float, float, float, float]:
    return _raw_pair(*_am_groups(VectorCharData.from_jet(jet, point)))


def appendix_c_residuals(jet: Jet3, point: InvariantPoint
                         ) -> tuple[float, float]:
    """Normalized residuals of the expanded third-order conditions."""
    VectorCharData.from_jet(jet, point).check_nondegenerate()
    raw1, raw2, s1, s2 = appendix_raw(jet, point)
    return abs(raw1) / s1, abs(raw2) / s2


def vector_char_data_jet3(jet: Jet3, point: InvariantPoint
                          ) -> VectorCharData:
    """``VectorCharData.from_jet`` on the full third-order route: its
    L-partial and (a, b) jets are ``Jet3`` values, of which only the
    slots f, fa and fb are read."""
    a = point.get("a")
    b = point.b if point.b is not None else 0.0
    # first-order jets of each L-partial as functions of (a, b)
    La_j = Jet3(f=jet.fa, fa=jet.faa, fb=jet.fab)
    Laa_j = Jet3(f=jet.faa, fa=jet.faaa, fb=jet.faab)
    Lab_j = Jet3(f=jet.fab, fa=jet.faab, fb=jet.fabb)
    Lbb_j = Jet3(f=jet.fbb, fa=jet.fabb, fb=jet.fbbb)
    a_j = Jet3.variable(a, "a")
    b_j = Jet3.variable(b, "b")

    K_j, P_j, R_j = cone_coefficients(La_j, Laa_j, Lab_j, Lbb_j, a_j, b_j)

    return VectorCharData(
        jet=jet, alpha=a, beta=b,
        K=K_j.f, P=P_j.f, R=R_j.f,
        Delta=P_j.f * P_j.f - 4.0 * K_j.f * R_j.f,
        Ka=K_j.fa, Kb=K_j.fb,
        Pa=P_j.fa, Pb=P_j.fb,
        Ra=R_j.fa, Rb=R_j.fb,
    )


def synthetic_jet(rng) -> tuple[Jet3, InvariantPoint]:
    """A jet and an (a, b) point from 12 uniforms on [-2, 2]."""
    vals = rng.uniform(-2.0, 2.0, size=12)
    jet = Jet3(f=vals[0], fa=vals[1], fb=vals[2], faa=vals[3], fab=vals[4],
               fbb=vals[5], faaa=vals[6], faab=vals[7], fabb=vals[8],
               fbbb=vals[9])
    point = InvariantPoint(a=float(vals[10]), b=float(vals[11]))
    return jet, point


def nondegenerate_jet(rng) -> tuple[Jet3, InvariantPoint]:
    """The first synthetic jet whose K and Delta both clear 5% of their
    degeneracy scales."""
    while True:
        jet, point = synthetic_jet(rng)
        data = VectorCharData.from_jet(jet, point)
        k_scale = abs(jet.faa * jet.fbb) + jet.fab ** 2
        delta_scale = data.P * data.P + abs(4.0 * data.K * data.R)
        if (abs(data.K) > 0.05 * (k_scale + 1e-30)
                and abs(data.Delta) > 0.05 * (delta_scale + 1e-30)):
            return jet, point


# ---------------------------------------------------------------------------
# Finite-difference check of jets
# ---------------------------------------------------------------------------

def jet_check_fd(model, point: InvariantPoint, step: float = 1e-5) -> float:
    """Compare a model's jet against central finite differences.

    Checks first derivatives and the full second-derivative block of the
    model's primary invariants; returns the largest deviation relative to
    1 + |finite difference value|.  An independent cross-check that the
    forward-mode propagation rules are wired correctly.
    """
    jet = model.jet_at(point)
    names = model.kind.variables[:2]
    h = float(step)

    def val(p: InvariantPoint) -> float:
        return model.value_at(p)

    worst = 0.0

    def track(got: float, fd: float) -> None:
        nonlocal worst
        worst = max(worst, abs(got - fd) / (1.0 + abs(fd)))

    v0 = val(point)
    for slot, name in zip(("a", "b"), names):
        vp = val(point.shifted(name, +h))
        vm = val(point.shifted(name, -h))
        track(getattr(jet, "f" + slot), (vp - vm) / (2.0 * h))
        track(getattr(jet, "f" + 2 * slot), (vp - 2.0 * v0 + vm) / (h * h))
    if len(names) == 2:
        na, nb = names
        vpp = val(point.shifted(na, +h).shifted(nb, +h))
        vpm = val(point.shifted(na, +h).shifted(nb, -h))
        vmp = val(point.shifted(na, -h).shifted(nb, +h))
        vmm = val(point.shifted(na, -h).shifted(nb, -h))
        track(jet.fab, (vpp - vpm - vmp + vmm) / (4.0 * h * h))
    return worst


# ---------------------------------------------------------------------------
# The third-order jets the readers took before they took narrower ones
# ---------------------------------------------------------------------------

def jet3_at(model: LagrangianModel, point: InvariantPoint,
            wrt: tuple[str, ...] | None = None) -> Jet3:
    """The model's ``Jet3`` in ``wrt`` (default: the first two variables
    of its kind), the first riding slot a: one-variable jets keep zero
    b-slots.  This is what ``LagrangianModel.jet_at`` gave every reader
    before it picked the type from the variable count and the order."""
    names = model.kind.variables[:2] if wrt is None else wrt
    env = {name: point.get(name) for name in model.kind.variables}
    for slot, name in zip("ab", names):
        env[name] = Jet3.variable(point.get(name), slot)
    out = model._eval(env)
    return out if isinstance(out, Jet3) else Jet3.constant(out)


class Jet3Model(LagrangianModel):
    """A model whose every jet is its ``Jet3`` (``jet3_at``), whatever
    variables and order a reader asks for: each reader of ``jet_at``
    runs its route from before the narrower types on it."""

    def jet_at(self, point: InvariantPoint,
               wrt: tuple[str, ...] | None = None, order: int = 3) -> Jet3:
        return jet3_at(self, point, wrt)


def jet3_model(model: LagrangianModel) -> Jet3Model:
    return Jet3Model(model.name, model.kind, model.fn, model.guard)


# ---------------------------------------------------------------------------
# Per-point classification
# ---------------------------------------------------------------------------

def grid_points(grid: GridSpec,
                names: tuple[str, ...]) -> list[InvariantPoint]:
    axes = []
    for name in names:
        lo, hi, n = grid.axes[name]
        axes.append(np.linspace(lo, hi, int(n)))
    grids = np.meshgrid(*axes, indexing="ij")
    flat = [g.ravel() for g in grids]
    out = []
    for values in zip(*flat):
        kw = dict(zip(names, (float(v) for v in values)))
        out.append(InvariantPoint(**kw))
    return out


def _point_dict(point: InvariantPoint) -> dict[str, float]:
    return {n: getattr(point, n) for n in ("a", "b", "z")
            if getattr(point, n) is not None}


def _margin_ok(model: LagrangianModel, point: InvariantPoint,
               names: tuple[str, ...]) -> bool:
    probes = [point]
    for name in names:
        for sign in (+1.0, -1.0):
            probes.append(point.shifted(name, sign * GUARD_MARGIN))
    for p in probes:
        if not model.guard_ok(p):
            return False
    # Expression models carry no declared guard, so probe the evaluator
    # itself; a DomainError marks the point as outside the usable domain.
    try:
        for p in probes:
            model.value_at(p)
    except DomainError:
        return False
    return True


def margin_ok_flat(model: LagrangianModel, point: InvariantPoint,
                   names: tuple[str, ...]) -> np.ndarray:
    """The margin mask of ``ce.classify`` probed on flat point sets: the
    model's guard and value on every point and on full copies of the set
    shifted by GUARD_MARGIN along each axis."""
    ok = np.ones(point.get(names[0]).shape, dtype=bool)
    probes = [point]
    for name in names:
        for sign in (+1.0, -1.0):
            probes.append(point.shifted(name, sign * GUARD_MARGIN))
    for p in probes:
        ok &= model.guard_ok(p)
        ok &= np.logical_not(_evaluate(model.value_at, p)[1])
    return ok


def report_text(report: CEReport) -> str:
    """The text that ``report.write_json`` writes."""
    buf = io.StringIO()
    report.write_json(buf)
    return buf.getvalue()


def classify_per_point(model: LagrangianModel, grid: GridSpec | None = None,
                       tol: float = DEFAULT_TOL) -> dict:
    """The report document that ``ce.classify`` writes as JSON text,
    computed one grid point at a time, every sector on the model's
    ``Jet3`` (``jet3_model``)."""
    if grid is None:
        grid = GridSpec.default(model.kind)
    names = model.kind.variables
    all_points = grid_points(grid, names)
    total = len(all_points)
    if total == 0:
        raise EmptyGrid("grid has no points")

    def document(label, worst, arg, counts, per_point):
        return {
            "schema": REPORT_SCHEMA, "report": "ce-classification",
            "model": model.name, "kind": model.kind.value,
            "grid": {name: {"lo": lo, "hi": hi, "n": n}
                     for name, (lo, hi, n) in grid.axes.items()},
            "tol": tol, "label": label,
            "residual_summary": {"max": worst, "argmax_point": arg},
            "counts": counts, "note": "", "per_point": per_point,
        }

    points = [p for p in all_points if _margin_ok(model, p, names)]
    guard_excluded = total - len(points)
    if not points:
        raise EmptyGrid("every grid point violates the domain guard "
                        "(or its margin)")

    gates, strong, fallback = _CLASSIFY_TABLE[model.kind]
    sectors = [s for s in dict.fromkeys((*gates, *strong, fallback))
               if s in _SECTORS]
    jet3 = jet3_model(model)
    jets = [jet3.jet_at(pt) for pt in points]
    per_point = [{"point": _point_dict(pt),
                  "residuals": {s: _SECTORS[s](jet3, pt, jet)
                                for s in sectors}}
                 for pt, jet in zip(points, jets)]
    degenerate_skipped = 0

    def summarize(key: str) -> tuple[float, dict | None]:
        # a NaN residual fails the sector, with no argmax
        worst, arg = -1.0, None
        for row in per_point:
            if key in row["residuals"]:
                values = row["residuals"][key]
                if any(map(math.isnan, values)):
                    return float("nan"), None
                if max(values) > worst:
                    worst, arg = max(values), row["point"]
        return (worst if worst >= 0 else float("nan")), arg

    failing = [pair for pair in map(summarize, gates)
               if not pair[0] < tol]
    if failing:
        label, (worst, arg) = "NotCE", failing[0]
    else:
        # a NaN maximum wins, and ties keep the earlier sector
        worst, arg = max(map(summarize, strong),
                         key=lambda pair: (math.isnan(pair[0]), pair[0]))
        if worst < tol:
            label = "StronglyCE"
        elif fallback is None:
            label = "NotCE"
        else:
            if fallback == "general":
                # the vector sector may still pass on the birefringent branch
                for row, pt, jet in zip(per_point, points, jets):
                    try:
                        row["residuals"]["general"] = general_ce_residuals(
                            VectorCharData.from_jet(jet, pt))
                    except DegeneracyError:
                        degenerate_skipped += 1
            worst, arg = summarize(fallback)
            label = "CE" if worst < tol else "NotCE"
            no_row = degenerate_skipped == len(points)
            if (fallback == "general" and (worst < tol or no_row)
                    and guard_excluded + degenerate_skipped > 0.5 * total):
                label, worst, arg = "Degenerate", float("nan"), None

    # a failing residual at an evaluated point stays NotCE
    if guard_excluded > 0.5 * total and worst < tol:
        label = "Degenerate"

    return document(label, worst, arg,
                    {"total": total, "evaluated": len(points),
                     "guard_excluded": guard_excluded,
                     "degenerate_skipped": degenerate_skipped}, per_point)


# ---------------------------------------------------------------------------
# Characteristic systems against their cones
# ---------------------------------------------------------------------------

def biorthogonality_defect(system: CharSystem) -> float:
    """Max |L_I R_J - delta_IJ| with the identity time matrix."""
    G = system.left @ system.right
    return float(np.max(np.abs(G - np.eye(system.n))))


def crosscheck_cone_vs_eigen(system: CharSystem, H) -> float:
    """Insert each nonzero eigenvalue as p = (-lam, system.nhat) into the
    dispersion function H; return the max of |H| over its magnitude."""
    n = unit_direction(system.nhat)
    w = np.real(system.eigenvalues)
    scale = 1.0 + float(np.max(np.abs(w))) if w.size else 1.0
    worst = 0.0
    for lam in w:
        if abs(lam) < COINCIDENCE_RTOL * scale:
            continue
        p = np.array([-lam, *n])
        worst = max(worst, abs(H.value(None, p)) / (H.magnitude(None, p)
                                                    + TINY))
    return worst


# ---------------------------------------------------------------------------
# Rays and simple waves
# ---------------------------------------------------------------------------

class CallableHamiltonian:
    """Wrap an arbitrary H(x, p) with central-difference gradients."""

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], float],
                 step: float = 1e-6, degree: int | None = None):
        self.fn = fn
        self.step = step
        self.degree = degree

    def value(self, x: np.ndarray, p: np.ndarray) -> float:
        return float(self.fn(x, p))

    def _central(self, fn: Callable[[np.ndarray], float],
                 v: np.ndarray) -> np.ndarray:
        out = np.zeros(4)
        for mu in range(4):
            e = np.zeros(4)
            e[mu] = self.step
            out[mu] = (fn(v + e) - fn(v - e)) / (2.0 * self.step)
        return out

    def grad_p(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._central(lambda q: self.fn(x, q), p)

    def grad_x(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._central(lambda y: self.fn(y, p), x)


def scalar_model_cone(model: LagrangianModel,
                      bg: FieldBackground) -> ConeHamiltonian:
    """The cone G^{mu nu} p_mu p_nu = 0 of a scalar model on a constant
    gradient background, G^{mu nu} = eta L' + sigma^mu sigma^nu L''."""
    jet = model.jet_at(bg.point(Kind.Scalar))
    sigma_up = np.array([-bg.sigma[0], *bg.sigma[1:]])
    return ConeHamiltonian(ETA * jet.fa
                           + np.outer(sigma_up, sigma_up) * jet.faa)


def alpha_model_cone(model: LagrangianModel,
                     bg: FieldBackground) -> ConeHamiltonian:
    """The cone 2 u L'' + g L' of an L(alpha) model on an (E, B)
    background: G = L' eta + 2 L'' F eta F^T, since u = p F eta F^T p."""
    jet = model.jet_at(bg.point(Kind.VectorAlpha))
    F = bg.f_upper()
    return ConeHamiltonian(ETA * jet.fa + 2.0 * jet.faa * (F @ ETA @ F.T))


def scalar_axis_matrix(bg: FieldBackground,
                       model: LagrangianModel) -> np.ndarray:
    """The matrix of ``scalar_system(bg, model)`` along x1, without its
    eigensystem.  Adding 0.0 makes zero entries +0.0, as the rotation
    product in scalar_system leaves them: LAPACK orders eigenpairs by
    the sign of a zero."""
    if model.kind is not Kind.Scalar:
        raise KindError("scalar_system needs a model in the field invariant z")
    return _scalar_axis_matrix(model, np.eye(3), bg.state()) + 0.0


# spatial Levi-Civita symbol, eps[i, j, k]
_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k], _EPS3[_i, _k, _j] = 1.0, -1.0


def axis_matrices(bg: FieldBackground,
                  model: LagrangianModel) -> list[np.ndarray]:
    """The matrices A_i of the characteristic system along each
    coordinate axis i, written out per axis without rotations, so that
    the system along a unit normal n is sum_i n_i A_i.  A scalar model
    on a gradient (A, s) gives row 0 (-2 A s_i L'', s_i s_j L'' +
    delta_ij L') / theta and -1 at (i + 1, 0); an L(alpha) model on
    (E, B) gives the flux blocks of the E and B equations along axis i,
    built from eps[i], reduced by the inverse of the electric time
    block."""
    jet = model.jet_at(bg.point(model.kind))
    L1, L2 = jet.fa, jet.faa
    out = []
    if model.kind is Kind.Scalar:
        A, s = bg.A, bg.sigma_spatial
        theta = A * A * L2 - L1
        for i in range(3):
            M = np.zeros((4, 4))
            M[0, 0] = -2.0 * A * s[i] * L2 / theta
            M[0, 1:] = (s[i] * s * L2 + L1 * np.eye(3)[i]) / theta
            M[i + 1, 0] = -1.0
            out.append(M)
        return out
    E, B = bg.E, bg.B
    P_inv = np.linalg.inv(2.0 * L2 * np.outer(E, E) - L1 * np.eye(3))
    Qb = -2.0 * L2 * np.outer(E, B)
    for axis in range(3):
        eps = _EPS3[axis]
        epsB = eps @ B
        S = 2.0 * L2 * np.outer(epsB, E)
        R = -2.0 * L2 * np.outer(epsB, B) - L1 * eps
        out.append(np.block([[P_inv @ (S + Qb @ eps), P_inv @ R],
                             [-eps, np.zeros((3, 3))]]))
    return out


def burgers_factory() -> Callable[[tuple[float, float]], ReducedSystem]:
    """2x2 system of states (u, w): mode 0 is Burgers, speed u along
    (1, 0), and mode 1 a passive component w, carried at the constant
    speed 10 along (0, 1), far above the u of the tests."""

    def make(U) -> ReducedSystem:
        u, _ = U
        return ReducedSystem((float(u), 10.0), ((1.0, 0.0), (0.0, 1.0)))

    return make


@dataclass(frozen=True)
class ArrayReduced:
    """Eigen-data of a small system as numpy arrays: the matrix, its
    eigenvalues ascending and its right eigenvectors as unit columns."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray


def reduced_from_matrix(M: np.ndarray) -> ArrayReduced:
    """Eigen-data of M with numpy bookkeeping: sorted_eig, nearly_real
    and unit columns by np.linalg.norm."""
    M = np.asarray(M, dtype=float)
    w, V = sorted_eig(M)
    if not nearly_real(w):
        raise ModeCollision("complex eigenvalues: system is not "
                            "hyperbolic at this state")
    return ArrayReduced(matrix=M, eigenvalues=w.real,
                        right=V.real / np.linalg.norm(V.real, axis=0))


def scalar_reduced_oracle(model: LagrangianModel, A: float,
                          B: float) -> ArrayReduced:
    """The 1+1 reduction at the gradient (A, B, 0, 0) sliced from the
    full 4x4 axis matrix of a FieldBackground."""
    bg = FieldBackground.scalar(A, B, 0.0, 0.0)
    return reduced_from_matrix(scalar_axis_matrix(bg, model)[:2, :2])


def track_mode(sys: ArrayReduced,
               r_ref: np.ndarray) -> tuple[int, np.ndarray]:
    """The mode of sys that best overlaps r_ref, with numpy arrays:
    argmax of the overlaps, gap and overlap-ratio checks, sign
    alignment."""
    overlaps = np.abs(np.asarray(r_ref) @ sys.right)
    j = int(np.argmax(overlaps))
    lam = sys.eigenvalues
    if len(lam) > 1:
        gaps = np.abs(lam - lam[j])
        gaps[j] = np.inf
        scale = 1.0 + float(np.max(np.abs(lam)))
        if float(np.min(gaps)) < COINCIDENCE_RTOL * scale:
            raise ModeCollision("eigenvalue gap below tolerance")
        runner_up = float(np.partition(overlaps, -2)[-2])
        if runner_up > 0.99 * float(overlaps[j]):
            raise ModeCollision("eigenvectors no longer distinguish "
                                "the tracked mode")
    r = sys.right[:, j]
    if float(r @ r_ref) < 0.0:
        r = -r
    return j, r


def simple_wave_oracle(model: LagrangianModel, mode: int,
                       phi_range: tuple[float, float], U0, n: int,
                       component: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States, speeds and xi of ``simple_wave_construct`` on the scalar
    reduction of model, by the loop that keeps every state's eigen-data
    in numpy arrays: each system sliced from the full 4x4 axis matrix
    (``scalar_reduced_oracle``), each mode followed by ``track_mode``, and
    the node's system reused as RK4 stage k1.  A system whose
    theta = A^2 L'' - L' has another sign than the first one's raises
    DegenerateSystem.  The caller passes valid arguments; the checks of
    the inputs are not repeated here."""
    forward = None

    def factory(U: np.ndarray) -> ArrayReduced:
        nonlocal forward
        A, B = U.tolist()
        system = scalar_reduced_oracle(model, A, B)
        jet = model.jet_at(FieldBackground.scalar(A, B, 0.0, 0.0)
                           .point(Kind.Scalar))
        positive = A * A * jet.faa - jet.fa > 0.0
        if forward is None:
            forward = positive
        if positive != forward:
            raise DegenerateSystem("theta changes sign along the wave")
        return system

    def normalizer(r: np.ndarray) -> float:
        if abs(r[component]) < 1e-12:
            raise BadParams("tracked eigenvector loses its normalizing "
                            "component along the wave")
        return float(r[component])

    def slope(sysk: ArrayReduced) -> np.ndarray:
        _, r = track_mode(sysk, r_ref)
        return r / normalizer(r)

    U = np.asarray(U0, dtype=float).reshape(2).copy()
    phis = np.linspace(*phi_range, n)
    h = phis[1] - phis[0]
    states = np.zeros((n, 2))
    lams = np.zeros(n)
    xis = np.zeros(n)
    sysk = factory(U)
    r_ref = sysk.right[:, mode]
    if not r_ref[component] > 0:
        r_ref = -r_ref
    for k in range(n):
        j, r = track_mode(sysk, r_ref)
        states[k] = U
        lams[k] = sysk.eigenvalues[j]
        xis[k] = 1.0 / normalizer(r)
        r_ref = r
        if k == n - 1:
            break
        U = rk4_step(lambda V: slope(factory(V)), U, slope(sysk), h)
        sysk = factory(U)
    return states, lams, xis


def transport_oracle(ts: TransportState, s_max: float,
                     step: float) -> TransportResult:
    """``transport_amplitude`` by the loop that steps the amplitude with
    ``rk4_step`` and a closure for the slope, keeping s as a running sum
    and testing blow-up with ``math.isfinite`` and a threshold."""
    m, c = ts.m, ts.c

    def f(v: float) -> float:
        return -m * v - c * v * v

    n_steps = _step_count(s_max, step)
    ss = [0.0]
    pis = [ts.pi0]
    blown = False
    s_detect = None
    v = ts.pi0
    s = 0.0
    for _ in range(n_steps):
        v = rk4_step(f, v, f(v), step)
        s += step
        ss.append(s)
        pis.append(v)
        if not math.isfinite(v) or abs(v) > BLOWUP_THRESHOLD:
            blown = True
            s_detect = s
            break

    s_star = None
    if blown:
        s_star = s_detect
        if m == 0.0 and c * ts.pi0 < 0.0:
            # denominator of pi(s) = pi0 / (1 + c pi0 s)
            lo, hi = 0.0, s_detect
            d = lambda t: 1.0 + c * ts.pi0 * t
            if d(hi) < 0.0 < d(lo):
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if d(mid) > 0.0:
                        lo = mid
                    else:
                        hi = mid
                s_star = 0.5 * (lo + hi)
    return TransportResult(s=np.array(ss), pi=np.array(pis),
                           blown_up=blown, s_star=s_star)


def repr_csv(header: list[str], rows) -> bytes:
    """The bytes of a CSV file with this header and repr(float(v)) for
    each value of each row, written by csv.writer."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(float(v)) for v in row] for row in rows)
    return buf.getvalue().encode()


def write_snapshot_csv(path, snap: Snapshot) -> None:
    write_csv(path, ["x", "u"], [snap.x, snap.u])


def upwind_oracle(flux: Callable, profile: Profile1D, t: float, nx: int,
                  cfl: float = 0.45) -> Snapshot:
    """``shock1d.upwind_solve`` by the loop that, in every step, takes
    all three wave speeds of its CFL bound (at min u, max u and the
    flux's minimizer u_star) through ``np.max``, concatenates the ghost
    cells onto the cells and clips u_star into each interface's range
    with ``np.clip``."""
    if cfl > MAX_CFL:
        raise CFLViolation(f"cfl={cfl:g} exceeds the stability bound "
                           f"{MAX_CFL:g}")
    if not cfl > 0.0:
        raise BadParams("cfl must be positive")
    if t < 0.0:
        raise BadParams("upwind solve needs t >= 0")
    if not math.isfinite(t):
        raise BadParams("upwind solve needs a finite t")
    if nx < 4:
        raise BadParams("upwind solve needs nx >= 4")

    x_lo, x_hi = float(profile.x[0]), float(profile.x[-1])
    dx = (x_hi - x_lo) / nx
    centers = x_lo + dx * (np.arange(nx) + 0.5)
    if profile.fn is not None:
        u = _elementwise(profile.fn, centers)
    else:
        u = np.interp(centers, profile.x, profile.u)

    h = 1e-6

    def speed(v):
        return (flux(v + h) - flux(v - h)) / (2.0 * h)

    u_star = ternary_argmin(flux, float(np.min(u)) - 1.0,
                            float(np.max(u)) + 1.0)

    def godunov(u_ext: np.ndarray) -> np.ndarray:
        u_left, u_right = u_ext[:-1], u_ext[1:]
        lo = np.minimum(u_left, u_right)
        hi = np.maximum(u_left, u_right)
        f_min = _elementwise(flux, np.clip(u_star, lo, hi))
        f = _elementwise(flux, u_ext)
        f_max = np.maximum(f[:-1], f[1:])
        return np.where(u_left <= u_right, f_min, f_max)

    elapsed = 0.0
    while elapsed < t:
        speeds = np.abs(np.asarray([speed(v) for v in
                                    (float(np.min(u)), float(np.max(u)),
                                     u_star)]))
        s_max = float(np.max(speeds))
        if s_max == 0.0:
            break
        dt = min(cfl * dx / s_max, t - elapsed)
        if profile.periodic:
            u_ext = np.concatenate([[u[-1]], u, [u[0]]])
        else:
            u_ext = np.concatenate([[u[0]], u, [u[-1]]])
        fluxes = godunov(u_ext)
        u = u - (dt / dx) * (fluxes[1:] - fluxes[:-1])
        elapsed += dt
    return Snapshot(t=float(t), x=centers, u=u)


@np.errstate(all="ignore")
def fresnel_batch_numpy_helpers(model: LagrangianModel, E, B,
                                nhat) -> FresnelBatch:
    """``charsys.fresnel_batch`` as it was written with ``np.cross`` for
    n x B and ``np.select`` over its seven reasons for ``unusable``; it
    must give every field of the batch bit for bit.  (Its jet is the
    second-order one ``fresnel_batch`` reads; ``jet3_model`` gives the
    route on the ``Jet3``.)"""
    _check_field_model(model)
    E, B, nhat = (np.asarray(v, dtype=float).reshape(-1, 3)
                  for v in (E, B, nhat))
    a = np.vecdot(B, B) - np.vecdot(E, E)
    b = -np.vecdot(B, E)
    if model.kind is Kind.VectorAlpha:
        point, b = InvariantPoint(a=a), 0.0
    else:
        point = InvariantPoint(a=a, b=b)
    jet = model.jet_at(point, order=2)
    K, P, R = np.broadcast_arrays(
        *cone_coefficients(jet.fa, jet.faa, jet.fab, jet.fbb, a, b), a)[:3]
    delta = P * P - 4.0 * K * R
    k_small, delta_small = cone_degeneracy(jet.faa, jet.fab, jet.fbb, K, P,
                                           R, delta)

    if not np.isfinite(nhat).all():
        raise DomainError("vector components must be finite")
    n = unit_rows(nhat)
    nxB = np.cross(n, B)
    u0 = np.vecdot(E, E)
    u1 = -2.0 * np.vecdot(E, nxB)
    u2 = np.vecdot(nxB, nxB) - power(np.vecdot(E, n), 2)

    delta[delta_small] = 0.0
    sq = np.sqrt(delta.astype(complex))
    h = np.stack([-P + sq, -P - sq], axis=-1) / (2.0 * K)[:, None]
    C = np.empty(h.shape + (3,), dtype=complex)
    C[..., 0] = u0[:, None] + h
    C[..., 1] = u1[:, None]
    C[..., 2] = u2[:, None] - h

    quadratic = ~k_small
    linear = ~quadratic & (np.abs(P) > TINY)
    metric = ~quadratic & ~linear & (np.abs(R) > TINY)
    C[~quadratic, 0] = _METRIC_FACTOR
    C[linear, 1] = np.stack([u0 * P - R, u1 * P, u2 * P + R],
                            axis=-1)[linear]
    C[metric, 1] = _METRIC_FACTOR

    top = np.abs(C).max(axis=-1)
    vanishes = top < TINY
    escapes = np.hypot(C[..., 0].real, C[..., 0].imag) <= 1e-14 * top
    unusable = np.select(
        [~np.isfinite([K, P, R]).all(axis=0), ~(quadratic | linear | metric),
         ~np.isfinite(C).all(axis=(1, 2)), vanishes[:, 0], escapes[:, 0],
         vanishes[:, 1], escapes[:, 1]],
        [1, 2, 1, 3, 4, 3, 4], 0)
    C[unusable != 0] = _METRIC_FACTOR
    roots = np.sort_complex(_quadratic_roots(C).reshape(-1, 4))
    roots[unusable != 0] = np.nan

    tol_c = COINCIDENCE_RTOL * (1.0 + np.abs(roots).max(axis=-1))
    gap = roots[:, :, None] - roots[:, None, :]
    close = np.hypot(gap.real, gap.imag) < tol_c[:, None, None]
    close[:, range(4), range(4)] = False
    partner = np.where(close.any(axis=-1), close.argmax(axis=-1), -1)
    two_pairs = close[:, 0, 1] & close[:, 2, 3]
    return FresnelBatch(E=E, B=B, n=nhat, roots=roots,
                        coincident_with=partner, birefringent=~two_pairs,
                        unusable=unusable)


def fresnel_scan_per_draw(model: LagrangianModel, trials: int,
                          seed: int) -> bytes | None:
    """The bytes of ``cewave fresnel`` written by the per-draw loop: the
    zero field, then one draw of E, B and nhat after another, each solved
    by fresnel_roots along its normal made unit twice, until ``trials``
    are usable; None when 200 draws per trial are not enough."""
    def solved(E, B, nhat):
        n = unit_direction(nhat / np.linalg.norm(nhat))
        try:
            return E, B, n, fresnel_roots(model, FieldBackground.vector(E, B),
                                          n)
        except (InputError, NumericalError):
            return None

    rng = np.random.default_rng(seed)
    found = [solved(np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 0.0]))]
    draws = 0
    while sum(row is not None for row in found[1:]) < trials:
        if draws == 200 * trials:
            return None
        E, B, nhat = (rng.uniform(-1.0, 1.0, size=3) for _ in range(3))
        draws += 1
        if np.linalg.norm(nhat) >= 1e-3:
            found.append(solved(E, B, nhat))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["model", "Ex", "Ey", "Ez", "Bx", "By", "Bz", "nx", "ny",
                     "nz", "root_index", "p0", "coincident_with",
                     "birefringent_flag"])
    for E, B, n, fr in filter(None, found):
        for i in range(4):
            writer.writerow([model.name, *(repr(float(v)) for v in (*E, *B, *n)),
                             i, repr(float(fr.roots[i].real)),
                             fr.coincident_with[i],
                             str(fr.birefringent).lower()])
    return buf.getvalue().encode()


def wave_alignment_sines(wave: SimpleWave,
                         factory: Callable[[np.ndarray], ReducedSystem]
                         ) -> np.ndarray:
    """Sine of the angle between the finite-difference tangent dU/dphi
    and the tracked eigenvector at each interior node.  A five-point
    stencil keeps the tangent estimate well below the alignment
    tolerance even for strongly curved waves."""
    if len(wave.phis) < 5:
        raise GridTooCoarse("alignment check needs at least 5 nodes")
    h = wave.phis[1] - wave.phis[0]
    sines = []
    for k in range(2, len(wave.phis) - 2):
        dU = (wave.states[k - 2] - 8.0 * wave.states[k - 1]
              + 8.0 * wave.states[k + 1] - wave.states[k + 2]) / (12.0 * h)
        norm = np.linalg.norm(dU) + 1e-300
        right = np.array(factory(wave.states[k]).right).T
        j = int(np.argmax(np.abs(dU @ right)))
        r = right[:, j]
        # rejection of dU off the eigenvector keeps full precision at
        # small angles, unlike sqrt(1 - cos^2)
        rej = dU - (dU @ r) * r
        sines.append(float(np.linalg.norm(rej) / norm))
    return np.asarray(sines)


# ---------------------------------------------------------------------------
# Gravity: contraction identities and a validated probe record
# ---------------------------------------------------------------------------

def sym_pairs(D: int) -> list[tuple[int, int]]:
    """Index pairs (a <= b) enumerating independent symmetric components."""
    return [(a, b) for a in range(D) for b in range(a, D)]


def sym_dim(D: int) -> int:
    return D * (D + 1) // 2


def components_from_pi(P: np.ndarray) -> np.ndarray:
    """Upper-triangle component vectors (..., n) of symmetric matrices,
    the inverse of gravity.pi_from_components."""
    P = np.asarray(P, dtype=float)
    return P[(...,) + np.triu_indices(P.shape[-1])]


def identity_checks(phi, P: np.ndarray) -> tuple[float, float]:
    """Residuals of the two contraction identities implied by the gauge
    constraint: the symmetric phi-contraction combination and the
    double-contraction half-trace relation.  Both are normalized by the
    natural magnitude |phi|^2 max|pi|."""
    P = np.asarray(P, dtype=float)
    phi, g, Q, trace = _scalars(phi, P)
    phiphi_pi = _phiphi_pi(phi, g, P)
    scale = float(phi @ phi) * (np.max(np.abs(P)) + 1e-300)
    first = _phi_pi_terms(phi, P, g, trace)
    res2 = abs(phiphi_pi - 0.5 * Q * trace)
    return float(np.max(np.abs(first))) / scale, float(res2[0, 0]) / scale


def gauge_project(phi, P: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a symmetric discontinuity onto the
    subspace satisfying the gauge constraint."""
    D = len(phi)
    phi = _check_covector(phi, D)
    _, sv, vt = np.linalg.svd(gauge_vector(phi, _frame(D)[2]).T)
    rank = int(np.sum(sv > RANK_RTOL * (float(sv[0]) + TINY)))
    null_basis = vt[rank:]
    c = null_basis.T @ (null_basis @ components_from_pi(P))
    return pi_from_components(c, D)


@dataclass(frozen=True)
class GravityProbe:
    """One discontinuity experiment: a surface normal, a symmetric
    discontinuity, and the theory it is probed against."""

    D: int
    phi: np.ndarray
    pi: np.ndarray
    theory: str
    Q: float
    trace: float

    @classmethod
    def build(cls, phi, pi, theory: str = "einstein") -> "GravityProbe":
        phi = _check_covector(phi)
        D = len(phi)
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (D, D):
            raise BadParams(f"discontinuity tensor has shape {pi.shape}, "
                            f"expected ({D}, {D})")
        if not np.allclose(pi, pi.T, atol=1e-12):
            raise BadParams("discontinuity tensor must be symmetric")
        return cls(D=D, phi=phi, pi=pi, theory=theory,
                   Q=covector_q(phi), trace=float(np.trace(eta(D) @ pi)))

    def __post_init__(self):
        scale = float(self.phi @ self.phi) + 1e-300
        if abs(self.Q - covector_q(self.phi)) > 1e-10 * scale:
            raise BadParams("stored Q does not match the covector")
        t_scale = float(np.max(np.abs(self.pi))) + 1e-300
        if abs(self.trace - np.trace(eta(self.D) @ self.pi)) > 1e-10 * t_scale:
            raise BadParams("stored trace does not match the tensor")


# ---------------------------------------------------------------------------
# Gravity: survey normals drawn one candidate at a time
# ---------------------------------------------------------------------------

def covector_q_dot(phi) -> float:
    """Q of one normal as the dot product phi eta phi."""
    return float(phi @ eta(len(phi)) @ phi)


def null_norm(v) -> float:
    return float(np.linalg.norm(v))


def survey_normals_per_draw(rng, D: int, trials: int) -> np.ndarray:
    """A null then a non-null normal per trial, each candidate drawn by
    its own ``rng.uniform`` call and redrawn until it is accepted."""
    def null():
        while True:
            v = rng.uniform(-1.0, 1.0, size=D - 1)
            norm = null_norm(v)
            if norm > 1e-3:
                return np.concatenate([[norm], v])

    def nonnull():
        while True:
            phi = rng.uniform(-1.0, 1.0, size=D)
            if abs(covector_q_dot(phi)) > MIN_NONNULL_Q:
                return phi

    return np.array([draw() for _ in range(trials)
                     for draw in (null, nonnull)])
