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

The residual functions take jets and points with float or array slots
alike; ``classify`` evaluates a whole grid as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charsys import DEGENERACY_RTOL, cone_coefficients, degeneracy_scales
from .errors import DegeneracyError, DomainError, EmptyGrid, InternalCheckError
from .jets import DomainMask, InvariantPoint, Jet3
from .lagrangians import Kind, LagrangianModel

_TINY = 1e-300

DEFAULT_TOL = 1e-9
GUARD_MARGIN = 0.05

REPORT_SCHEMA = "cewave-report/1"


def _raw_and_scale(terms) -> tuple[float, float]:
    return sum(terms), sum(abs(t) for t in terms) + _TINY


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
    """Quartic-cone coefficients of an L(a,b) model at one point (floats)
    or at a set of points (arrays).

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

    def _below_tolerance(self):
        """(K small, discriminant small), bools or boolean arrays."""
        k_scale, delta_scale = self._scales()
        return (abs(self.K) < DEGENERACY_RTOL * k_scale + _TINY,
                abs(self.Delta) < DEGENERACY_RTOL * delta_scale + _TINY)

    def degenerate(self):
        """Where the birefringent-branch conditions do not apply."""
        k_small, delta_small = self._below_tolerance()
        return k_small | delta_small

    def check_nondegenerate(self) -> None:
        k_small, delta_small = self._below_tolerance()
        if k_small:
            raise DegeneracyError(
                "K below tolerance: the quartic factorizes and the "
                "birefringent-branch conditions do not apply")
        if delta_small:
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
    return _general(data)


def _general(data: VectorCharData) -> tuple[float, float]:
    t3, t4 = _tar_terms(data)
    return _norm(t3), _norm(t4)


def discriminant(jet: Jet3, point: InvariantPoint) -> float:
    """Pair-splitting discriminant P^2 - 4KR of the dispersion quartic."""
    return VectorCharData.from_jet(jet, point).Delta


# ---------------------------------------------------------------------------
# Mixed vector-scalar coupling probe
# ---------------------------------------------------------------------------

def coupling_residuals(model: LagrangianModel, point: InvariantPoint,
                       jet: Jet3) -> tuple[float, float]:
    """Normalized mixed partials L_za, L_zb of an L(a,b,z) model.

    Both are read exactly from third-order jets: L_za is the mixed slot
    of the (a, z)-jet, L_zb that of the (b, z)-jet, and the (a, z)-jet's
    z-z slot gives the L_zz of the normalization.  ``jet`` is the model's
    primary (a, b)-jet at ``point``, which supplies the other terms.
    """
    az = model.jet_at(point, wrt=("a", "z"))
    bz = model.jet_at(point, wrt=("b", "z"))
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

    def point(self, names: tuple[str, ...]) -> InvariantPoint:
        """Every grid point, as flat coordinate arrays in C order (the
        last axis varies fastest)."""
        axes = []
        for name in names:
            lo, hi, n = self.axes[name]
            axes.append(np.linspace(lo, hi, int(n)))
        grids = np.meshgrid(*axes, indexing="ij")
        return InvariantPoint(**{name: g.ravel()
                                 for name, g in zip(names, grids)})

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


def _evaluate(compute, point: InvariantPoint):
    """(compute(point), bad) on a set of points; ``bad`` marks the points
    where computing left the domain (True: a failure shared by all)."""
    with DomainMask() as mask:
        try:
            return compute(point), mask.bad
        except DomainError:
            return None, True


def _on_grid(compute, point: InvariantPoint, single=None):
    """compute(point) on a set of points.

    Computing the points one at a time, in order, would stop at the first
    one outside the domain; that point's own DomainError is raised here,
    by ``single`` (default ``compute``) on that point alone.
    """
    out, bad = _evaluate(compute, point)
    if np.any(bad):
        index = int(np.argmax(bad))
        (single or compute)(point.take(index))
        raise InternalCheckError(
            f"grid point {index} left the domain in the array pass only")
    return out


def _margin_ok(model: LagrangianModel, point: InvariantPoint,
               names: tuple[str, ...]) -> np.ndarray:
    """Which points of a set keep the guard, and evaluate, at the point
    and GUARD_MARGIN away along each axis."""
    ok = np.ones(point.get(names[0]).shape, dtype=bool)
    probes = [point]
    for name in names:
        for sign in (+1.0, -1.0):
            probes.append(point.shifted(name, sign * GUARD_MARGIN))
    for p in probes:
        ok &= model.guard_ok(p)
        # Expression models carry no declared guard, so probe the evaluator
        # itself; leaving the domain marks the point as outside it.
        ok &= np.logical_not(_evaluate(model.value_at, p)[1])
    return ok


def _worst(components: list[np.ndarray], skip: np.ndarray | None,
           points: list[dict]) -> tuple[float, dict | None]:
    """Largest residual and its point, as a scan of the rows in order finds
    it: each row's largest component (the first of equal ones), then the
    first row above every earlier one; NaN never compares larger."""
    value = components[0]
    for c in components[1:]:
        value = np.where(c > value, c, value)
    eligible = value > -1.0
    if skip is not None:
        eligible &= ~skip
    if not eligible.any():
        return float("nan"), None
    index = int(np.argmax(np.where(eligible, value, -np.inf)))
    worst = float(value[index])
    return (worst if worst >= 0 else float("nan")), points[index]


def _scalar_sector(model: LagrangianModel, point: InvariantPoint,
                   jet: Jet3) -> tuple[float]:
    # a scalar model's primary jet is already its z-jet
    if model.kind is not Kind.Scalar:
        jet = model.jet_at(point, wrt=("z",))
    return (scalar_ce_residual(jet),)


# Residual rows: sector name -> f(model, point, primary jet).
_SECTORS = {
    "scalar": _scalar_sector,
    "strong": lambda model, point, jet: strong_ce_residuals(jet, point),
    "alpha_ce": lambda model, point, jet: (scalar_ce_residual(jet),),
    "coupling": lambda model, point, jet: coupling_residuals(model, point,
                                                             jet),
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
    """Classify a model as StronglyCE / CE / NotCE / Degenerate on a grid.

    The grid is one array pass: the model's guard and value on the grid
    and on its 2*dim GUARD_MARGIN-shifted copies select the evaluated
    points, then each jet the sectors need is evaluated once over all of
    them.  Where evaluating the points one at a time would raise, the same
    DomainError is raised.
    """
    if grid is None:
        grid = GridSpec.default(model.kind)
    names = model.kind.variables
    grid_point = grid.point(names)
    total = grid_point.get(names[0]).size
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

    point = grid_point.take(_margin_ok(model, grid_point, names))
    evaluated = point.get(names[0]).size
    guard_excluded = total - evaluated
    if not evaluated:
        raise EmptyGrid("every grid point violates the domain guard "
                        "(or its margin)")

    gates, strong, fallback = _CLASSIFY_TABLE[model.kind]
    sectors = [s for s in dict.fromkeys((*gates, *strong, fallback))
               if s in _SECTORS]

    def sector_residuals(p: InvariantPoint, jet: Jet3) -> dict:
        return {s: _SECTORS[s](model, p, jet) for s in sectors}

    def columns(values) -> list[np.ndarray]:
        return [np.broadcast_to(v, (evaluated,)) for v in values]

    def per_point_tuples(values) -> list[tuple]:
        return list(zip(*(v.tolist() for v in values)))

    jet = _on_grid(model.jet_at, point)
    residuals = _on_grid(lambda p: sector_residuals(p, jet), point,
                         lambda p: sector_residuals(p, model.jet_at(p)))
    residuals = {s: columns(values) for s, values in residuals.items()}
    points = _records({n: point.get(n).tolist() for n in names})
    per_point = [{"point": p, "residuals": r} for p, r in zip(
        points, _records({s: per_point_tuples(values)
                          for s, values in residuals.items()}))]
    degenerate = np.zeros(evaluated, dtype=bool)

    def summarize(key: str) -> tuple[float, dict | None]:
        skip = degenerate if key == "general" else None
        return _worst(residuals[key], skip, points)

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
                data = VectorCharData.from_jet(jet, point)
                degenerate |= data.degenerate()
                residuals["general"] = columns(_general(data))
                for row, residual, skip in zip(
                        per_point, per_point_tuples(residuals["general"]),
                        degenerate.tolist()):
                    if not skip:
                        row["residuals"]["general"] = residual
            worst, arg = summarize(fallback)
            label = "CE" if worst < tol else "NotCE"
            if (fallback == "general"
                    and guard_excluded + degenerate.sum() > 0.5 * total):
                label, worst, arg = "Degenerate", float("nan"), None

    if guard_excluded > 0.5 * total:
        label = "Degenerate"

    return CEReport(
        model=model.name, kind=model.kind.value, grid=grid, tol=tol,
        label=label, max_residual=worst, argmax_point=arg,
        per_point=per_point,
        counts={"total": total, "evaluated": evaluated,
                "guard_excluded": guard_excluded,
                "degenerate_skipped": int(degenerate.sum())},
    )


def _records(columns: dict[str, list]) -> list[dict]:
    """One dict per position of equal-length columns, keys in column
    order; filling them column by column is much faster than building
    each dict from a zip."""
    records = [{} for _ in next(iter(columns.values()))]
    for key, column in columns.items():
        for record, value in zip(records, column):
            record[key] = value
    return records
