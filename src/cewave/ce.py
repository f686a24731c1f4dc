"""Exceptionality residuals and Lagrangian classification.

A wave mode is exceptional when its speed does not change along its own
wave; a model is completely exceptional (CE) when every mode is.  For the
model families handled here that property collapses to a small set of
differential constraints on the Lagrangian density:

* scalar models ``L(z)``: ``L'L''' - 3(L'')^2 = 0``;
* vector models ``L(a,b)`` without birefringence ("strongly CE"): the
  pair ``vec1 = -L_a(4L_aa - L_bb) + 2aK`` and ``vec2 = -L_a L_ab + bK``
  with ``K = L_aa L_bb - L_ab^2``;
* vector models in the birefringent regime: two third-order conditions
  (``tar3``/``tar4`` below) built from the quartic-cone coefficients
  K, P, R and their (a, b) gradients;
* mixed ``L(a,b,z)`` models: the vector and scalar constraints plus
  vanishing mixed partials ``L_za = L_zb = 0`` (no cross coupling).

Every residual is normalized: the raw value divided by the sum of the
absolute values of its additive terms (plus 1e-300), so "zero" is
scale-free and tolerances are dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charsys import DEGENERACY_RTOL, cone_coefficients, degeneracy_scales
from .errors import DegeneracyError, DomainError, EmptyGrid
from .jets import InvariantPoint, Jet3
from .lagrangians import Kind, LagrangianModel

_TINY = 1e-300

DEFAULT_TOL = 1e-9
GUARD_MARGIN = 0.05

REPORT_SCHEMA = "cewave-report/1"


def _raw_and_scale(terms) -> tuple[float, float]:
    return float(sum(terms)), float(sum(abs(t) for t in terms)) + _TINY


def _norm(terms) -> float:
    raw, scale = _raw_and_scale(terms)
    return abs(raw) / scale


def _raw_pair(first, second) -> tuple[float, float, float, float]:
    """(raw1, raw2, scale1, scale2) of two additive term lists."""
    raw1, scale1 = _raw_and_scale(first)
    raw2, scale2 = _raw_and_scale(second)
    return raw1, raw2, scale1, scale2


# ---------------------------------------------------------------------------
# Scalar and strong (no-birefringence) conditions
# ---------------------------------------------------------------------------

def scalar_ce_residual(jet: Jet3) -> float:
    """Normalized residual of L'L''' - 3(L'')^2 for a one-variable jet."""
    terms = (jet.fa * jet.faaa, -3.0 * jet.faa * jet.faa)
    return _norm(terms)


def strong_ce_residuals(jet: Jet3, point: InvariantPoint) -> tuple[float, float]:
    """Normalized residuals of the two no-birefringence conditions.

    A one-variable ``L(a)`` jet embeds naturally: its b-partials are zero,
    so the second residual vanishes identically.
    """
    a = point.get("a")
    b = point.b if point.b is not None else 0.0
    K = jet.faa * jet.fbb - jet.fab * jet.fab
    v1_terms = (-4.0 * jet.fa * jet.faa, jet.fa * jet.fbb, 2.0 * a * K)
    v2_terms = (-jet.fa * jet.fab, b * K)
    return _norm(v1_terms), _norm(v2_terms)


# ---------------------------------------------------------------------------
# Quartic-cone data and the general third-order conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorCharData:
    """Quartic-cone coefficients of an L(a,b) model at one point.

    K, P, R are the coefficients of the dispersion quartic
    ``H = K u^2 + u g P + g^2 R`` (u the field-dependent square, g the
    flat quadratic); p, q, r, s are the mode-decomposition combinations;
    Delta = P^2 - 4KR is the pair-splitting discriminant.  Gradients of
    K, P, R with respect to (a, b) are propagated exactly with first-order
    jet arithmetic over the third-order input jet.
    """

    alpha: float
    beta: float
    La: float
    Lb: float
    Laa: float
    Lab: float
    Lbb: float
    Laaa: float
    Laab: float
    Labb: float
    Lbbb: float
    K: float
    P: float
    R: float
    p: float
    q: float
    r: float
    s: float
    Delta: float
    Ka: float
    Kb: float
    Pa: float
    Pb: float
    Ra: float
    Rb: float

    @classmethod
    def from_jet(cls, jet: Jet3, point: InvariantPoint) -> "VectorCharData":
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

        return cls(
            alpha=a, beta=b,
            La=jet.fa, Lb=jet.fb,
            Laa=jet.faa, Lab=jet.fab, Lbb=jet.fbb,
            Laaa=jet.faaa, Laab=jet.faab, Labb=jet.fabb, Lbbb=jet.fbbb,
            K=K_j.f, P=P_j.f, R=R_j.f,
            p=2.0 * jet.faa,
            q=jet.fa + b * jet.fab,
            r=jet.fab,
            s=0.5 * b * jet.fbb,
            Delta=P_j.f * P_j.f - 4.0 * K_j.f * R_j.f,
            Ka=K_j.fa, Kb=K_j.fb,
            Pa=P_j.fa, Pb=P_j.fb,
            Ra=R_j.fa, Rb=R_j.fb,
        )

    def k_scale(self) -> float:
        return self._scales()[0]

    def delta_scale(self) -> float:
        return self._scales()[1]

    def _scales(self) -> tuple[float, float]:
        return degeneracy_scales(self.Laa, self.Lab, self.Lbb,
                                 self.K, self.P, self.R)

    def check_nondegenerate(self) -> None:
        k_scale, delta_scale = self._scales()
        if abs(self.K) < DEGENERACY_RTOL * k_scale + _TINY:
            raise DegeneracyError(
                "K below tolerance: the quartic factorizes and the "
                "birefringent-branch conditions do not apply")
        if abs(self.Delta) < DEGENERACY_RTOL * delta_scale + _TINY:
            raise DegeneracyError(
                "discriminant below tolerance: single shared cone, "
                "use the no-birefringence conditions instead")


def _tar_terms(d: VectorCharData) -> tuple[list[float], list[float]]:
    K, P, R = d.K, d.P, d.R
    p, q, r, s = d.p, d.q, d.r, d.s
    t3 = [
        2.0 * d.Ka * r * P * P,
        -2.0 * d.Ka * s * P * K,
        -2.0 * d.Ka * r * R * K,
        d.Kb * q * P * K,
        -d.Kb * p * P * P,
        d.Kb * p * R * K,
        2.0 * d.Pa * s * K * K,
        -2.0 * d.Pa * r * P * K,
        K * d.Pb * p * P,
        -K * d.Pb * q * K,
        2.0 * d.Ra * r * K * K,
        -d.Rb * p * K * K,
        -2.0 * r * P * K * K,
        4.0 * s * K * K * K,
    ]
    t4 = [
        2.0 * d.Ka * r * P * R,
        -2.0 * d.Ka * s * R * K,
        d.Kb * q * R * K,
        -d.Kb * p * R * P,
        -2.0 * d.Pa * r * R * K,
        d.Pb * p * K * R,
        2.0 * d.Ra * s * K * K,
        -d.Rb * q * K * K,
        -4.0 * r * R * K * K,
        2.0 * s * P * K * K,
    ]
    return t3, t4


def general_ce_raw(data: VectorCharData) -> tuple[float, float, float, float]:
    """Raw values and normalizers of the two third-order conditions."""
    return _raw_pair(*_tar_terms(data))


def general_ce_residuals(data: VectorCharData) -> tuple[float, float]:
    """Normalized third-order CE residuals on the birefringent branch."""
    data.check_nondegenerate()
    raw3, raw4, s3, s4 = general_ce_raw(data)
    return abs(raw3) / s3, abs(raw4) / s4


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


def discriminant(jet: Jet3, point: InvariantPoint) -> float:
    """Pair-splitting discriminant P^2 - 4KR of the dispersion quartic."""
    return VectorCharData.from_jet(jet, point).Delta


# ---------------------------------------------------------------------------
# Mixed vector-scalar coupling probe
# ---------------------------------------------------------------------------

def coupling_residuals(model: LagrangianModel,
                       point: InvariantPoint) -> tuple[float, float]:
    """Normalized mixed partials L_za, L_zb of an L(a,b,z) model.

    Both are read exactly from third-order jets: L_za is the mixed slot
    of the (a, z)-jet, L_zb that of the (b, z)-jet, and the (a, z)-jet's
    z-z slot gives the L_zz of the normalization.
    """
    az = model.jet_at(point, wrt=("a", "z"))
    bz = model.jet_at(point, wrt=("b", "z"))
    jet = model.jet_at(point)
    Lza, Lzb, Lzz = az.fab, bz.fab, az.fbb
    ref = abs(Lzz) + abs(jet.faa) + abs(jet.fab) + abs(jet.fbb)

    res_a = abs(Lza) / (abs(Lza) + ref + _TINY)
    res_b = abs(Lzb) / (abs(Lzb) + ref + _TINY)
    return res_a, res_b


# ---------------------------------------------------------------------------
# Grid classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Axis ranges for classification grids: name -> (lo, hi, n)."""

    axes: dict[str, tuple[float, float, int]]

    @classmethod
    def default(cls, kind: Kind) -> "GridSpec":
        vector = {"a": (-0.5, 2.0, 21), "b": (-1.0, 1.0, 21)}
        scalar = {"z": (-0.45, 0.45, 21)}
        if kind is Kind.Scalar:
            return cls(dict(scalar))
        if kind is Kind.VectorAlpha:
            return cls({"a": vector["a"]})
        if kind is Kind.VectorAlphaBeta:
            return cls(dict(vector))
        mixed = dict(vector)
        mixed["z"] = (-0.45, 0.45, 5)
        return cls(mixed)

    def points(self, names: tuple[str, ...]) -> list[InvariantPoint]:
        axes = []
        for name in names:
            lo, hi, n = self.axes[name]
            axes.append(np.linspace(lo, hi, int(n)))
        grids = np.meshgrid(*axes, indexing="ij")
        flat = [g.ravel() for g in grids]
        out = []
        for values in zip(*flat):
            kw = dict(zip(names, (float(v) for v in values)))
            out.append(InvariantPoint(**kw))
        return out

    def to_json(self) -> dict:
        return {name: {"lo": lo, "hi": hi, "n": n}
                for name, (lo, hi, n) in self.axes.items()}


@dataclass
class CEReport:
    """Result of classifying one model over a grid."""

    model: str
    kind: str
    grid: GridSpec
    tol: float
    label: str
    max_residual: float
    argmax_point: dict[str, float] | None
    per_point: list[dict] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    note: str = ""

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "report": "ce-classification",
            "model": self.model,
            "kind": self.kind,
            "grid": self.grid.to_json(),
            "tol": self.tol,
            "label": self.label,
            "residual_summary": {
                "max": self.max_residual,
                "argmax_point": self.argmax_point,
            },
            "counts": self.counts,
            "note": self.note,
            "per_point": self.per_point,
        }


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


def _scalar_sector(model: LagrangianModel, point: InvariantPoint,
                   jet: Jet3) -> tuple[float]:
    # a scalar model's primary jet is already its z-jet
    if model.kind is not Kind.Scalar:
        jet = model.jet_at(point, wrt=("z",))
    return (scalar_ce_residual(jet),)


# Per-point residual rows: sector name -> f(model, point, primary jet).
_SECTORS = {
    "scalar": _scalar_sector,
    "strong": lambda model, point, jet: strong_ce_residuals(jet, point),
    "alpha_ce": lambda model, point, jet: (scalar_ce_residual(jet),),
    "coupling": lambda model, point, jet: coupling_residuals(model, point),
}

# kind -> (gate sectors, strong sectors, fallback sector).  The first
# failing gate sector gives NotCE; otherwise passing every strong sector
# gives StronglyCE, and failing one hands the label to the fallback (CE or
# NotCE; no fallback means NotCE).  "general" is the birefringent branch,
# evaluated only when the fallback is reached.
_CLASSIFY_TABLE = {
    Kind.Scalar: ((), ("scalar",), None),
    Kind.VectorAlpha: ((), ("strong",), "alpha_ce"),
    Kind.VectorAlphaBeta: ((), ("strong",), "general"),
    Kind.VectorScalar: (("coupling", "scalar"), ("strong", "scalar"),
                        "general"),
}


def classify(model: LagrangianModel, grid: GridSpec | None = None,
             tol: float = DEFAULT_TOL) -> CEReport:
    """Classify a model as StronglyCE / CE / NotCE / Degenerate on a grid."""
    if grid is None:
        grid = GridSpec.default(model.kind)
    names = model.kind.variables
    all_points = grid.points(names)
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
