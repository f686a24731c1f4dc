"""Per-point reference implementations that only the tests use.

``classify_per_point`` is the classification loop that evaluates one grid
point at a time with float jets; ``ce.classify`` must reproduce its report
exactly.  ``_am_groups`` writes the third-order conditions out in
L-partials, and ``jet_check_fd`` cross-checks jets against finite
differences.
"""

from __future__ import annotations

import numpy as np

from cewave.ce import (
    _CLASSIFY_TABLE,
    _SECTORS,
    DEFAULT_TOL,
    GUARD_MARGIN,
    CEReport,
    GridSpec,
    VectorCharData,
    _raw_pair,
    general_ce_residuals,
)
from cewave.errors import DegeneracyError, DomainError, EmptyGrid
from cewave.jets import InvariantPoint, Jet3
from cewave.lagrangians import LagrangianModel


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
    La = d.La
    Laa, Lab, Lbb = d.Laa, d.Lab, d.Lbb
    Laaa, Laab, Labb, Lbbb = d.Laaa, d.Laab, d.Labb, d.Lbbb
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


def appendix_raw(jet: Jet3, point: InvariantPoint
                 ) -> tuple[float, float, float, float]:
    return _raw_pair(*_am_groups(VectorCharData.from_jet(jet, point)))


def appendix_c_residuals(jet: Jet3, point: InvariantPoint
                         ) -> tuple[float, float]:
    """Normalized residuals of the expanded third-order conditions."""
    VectorCharData.from_jet(jet, point).check_nondegenerate()
    raw1, raw2, s1, s2 = appendix_raw(jet, point)
    return abs(raw1) / s1, abs(raw2) / s2


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


def classify_per_point(model: LagrangianModel, grid: GridSpec | None = None,
                       tol: float = DEFAULT_TOL) -> CEReport:
    """``ce.classify`` computed one grid point at a time."""
    if grid is None:
        grid = GridSpec.default(model.kind)
    names = model.kind.variables
    all_points = grid_points(grid, names)
    total = len(all_points)
    if total == 0:
        raise EmptyGrid("grid has no points")

    if model.depends_on_y:
        return CEReport(
            model=model.name, kind=model.kind.value, grid=grid, tol=tol,
            label="NotCE", max_residual=float("nan"), argmax_point=None,
            counts={"total": total, "evaluated": 0, "guard_excluded": 0,
                    "degenerate_skipped": 0},
            note="declares dependence on the cross invariant y; no model "
                 "with that dependence is exceptional, so no residuals "
                 "are evaluated",
        )

    points = [p for p in all_points if _margin_ok(model, p, names)]
    guard_excluded = total - len(points)
    if not points:
        raise EmptyGrid("every grid point violates the domain guard "
                        "(or its margin)")

    gates, strong, fallback = _CLASSIFY_TABLE[model.kind]
    sectors = [s for s in dict.fromkeys((*gates, *strong, fallback))
               if s in _SECTORS]
    jets = [model.jet_at(pt) for pt in points]
    per_point = [{"point": _point_dict(pt),
                  "residuals": {s: _SECTORS[s](model, pt, jet)
                                for s in sectors}}
                 for pt, jet in zip(points, jets)]
    degenerate_skipped = 0

    def summarize(key: str) -> tuple[float, dict | None]:
        worst, arg = -1.0, None
        for row in per_point:
            if key in row["residuals"]:
                value = max(row["residuals"][key])
                if value > worst:
                    worst, arg = value, row["point"]
        return (worst if worst >= 0 else float("nan")), arg

    failing = [pair for pair in map(summarize, gates) if pair[0] >= tol]
    if failing:
        label, (worst, arg) = "NotCE", failing[0]
    else:
        # ties keep the earlier sector
        worst, arg = max(map(summarize, strong), key=lambda pair: pair[0])
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
            if (fallback == "general"
                    and guard_excluded + degenerate_skipped > 0.5 * total):
                label, worst, arg = "Degenerate", float("nan"), None

    if guard_excluded > 0.5 * total:
        label = "Degenerate"

    return CEReport(
        model=model.name, kind=model.kind.value, grid=grid, tol=tol,
        label=label, max_residual=worst, argmax_point=arg,
        per_point=per_point,
        counts={"total": total, "evaluated": len(points),
                "guard_excluded": guard_excluded,
                "degenerate_skipped": degenerate_skipped},
    )
