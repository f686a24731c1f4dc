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

import json
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

from .charsys import (
    ROW_BLOCK,
    cone_coefficients,
    cone_degeneracy,
    float_texts,
)
from .errors import (
    BadParams,
    DegeneracyError,
    DomainError,
    EmptyGrid,
    InternalCheckError,
)
from .jets import TINY, DomainMask, InvariantPoint, Jet1, Jet3, Jet3a
from .lagrangians import Kind, LagrangianModel

DEFAULT_TOL = 1e-9
GUARD_MARGIN = 0.05

REPORT_SCHEMA = "cewave-report/1"

Slot = float | np.ndarray  # a value at one point, or at a set of points


def _norm(terms) -> float:
    return abs(sum(terms)) / (sum(abs(t) for t in terms) + TINY)


# ---------------------------------------------------------------------------
# Scalar and strong (no-birefringence) conditions
# ---------------------------------------------------------------------------

def scalar_ce_residual(jet: Jet3 | Jet3a) -> float:
    """Normalized residual of L'L''' - 3(L'')^2 in a jet's a-slots."""
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
    """Quartic-cone coefficients of an L(a,b) model at one point or at a
    set of points: every field but ``jet`` is a float, or an array over
    the points.

    ``jet`` holds the L-partials (any object with slots fa ... fbbb);
    K, P, R are the coefficients of the dispersion quartic
    ``H = K u^2 + u g P + g^2 R`` (u the field-dependent square, g the
    flat quadratic); Delta = P^2 - 4KR is the pair-splitting
    discriminant.  Their (a, b)-gradients are propagated exactly by
    ``cone_coefficients`` on first-order jets (``Jet1``) of the
    L-partials.
    """

    jet: Jet3
    alpha: Slot
    beta: Slot
    K: Slot
    P: Slot
    R: Slot
    Delta: Slot
    Ka: Slot
    Kb: Slot
    Pa: Slot
    Pb: Slot
    Ra: Slot
    Rb: Slot

    @classmethod
    def from_jet(cls, jet: Jet3, point: InvariantPoint) -> "VectorCharData":
        a = point.get("a")
        b = point.b if point.b is not None else 0.0
        # first-order jets of each L-partial as functions of (a, b)
        La_j = Jet1(jet.fa, jet.faa, jet.fab)
        Laa_j = Jet1(jet.faa, jet.faaa, jet.faab)
        Lab_j = Jet1(jet.fab, jet.faab, jet.fabb)
        Lbb_j = Jet1(jet.fbb, jet.fabb, jet.fbbb)
        a_j = Jet1.variable(a, "a")
        b_j = Jet1.variable(b, "b")

        K_j, P_j, R_j = cone_coefficients(La_j, Laa_j, Lab_j, Lbb_j, a_j, b_j)

        return cls(
            jet=jet, alpha=a, beta=b,
            K=K_j.f, P=P_j.f, R=R_j.f,
            Delta=P_j.f * P_j.f - 4.0 * K_j.f * R_j.f,
            Ka=K_j.fa, Kb=K_j.fb,
            Pa=P_j.fa, Pb=P_j.fb,
            Ra=R_j.fa, Rb=R_j.fb,
        )

    def _below_tolerance(self):
        """(K small, discriminant small), bools or boolean arrays."""
        return cone_degeneracy(self.jet.faa, self.jet.fab, self.jet.fbb,
                               self.K, self.P, self.R, self.Delta)

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
    K, P, R, jet, b = d.K, d.P, d.R, d.jet, d.beta
    # the mode-decomposition combinations
    p, q, r, s = (2.0 * jet.faa, jet.fa + b * jet.fab, jet.fab,
                  0.5 * b * jet.fbb)
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


def general_ce_residuals(data: VectorCharData) -> tuple[float, float]:
    """Normalized third-order CE residuals on the birefringent branch."""
    data.check_nondegenerate()
    return _general(data)


def _general(data: VectorCharData) -> tuple[float, float]:
    t3, t4 = _tar_terms(data)
    return _norm(t3), _norm(t4)


# ---------------------------------------------------------------------------
# Mixed vector-scalar coupling probe
# ---------------------------------------------------------------------------

def coupling_residuals(model: LagrangianModel, point: InvariantPoint,
                       jet: Jet3) -> tuple[float, float]:
    """Normalized mixed partials L_za, L_zb of an L(a,b,z) model.

    Both are read exactly from second-order jets: L_za is the mixed
    slot of the (a, z)-jet, L_zb that of the (b, z)-jet, and the (a,
    z)-jet's z-z slot gives the L_zz of the normalization.  ``jet`` is
    the model's primary (a, b)-jet at ``point``, which supplies the
    other terms.
    """
    az = model.jet_at(point, wrt=("a", "z"), order=2)
    bz = model.jet_at(point, wrt=("b", "z"), order=2)
    Lza, Lzb, Lzz = az.fab, bz.fab, az.fbb
    ref = abs(Lzz) + abs(jet.faa) + abs(jet.fab) + abs(jet.fbb)

    res_a = abs(Lza) / (abs(Lza) + ref + TINY)
    res_b = abs(Lzb) / (abs(Lzb) + ref + TINY)
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

    def mesh(self, names: tuple[str, ...]) -> InvariantPoint:
        """The grid as an open mesh: axis k of ``names`` is an n_k-long
        array shaped to lie along dimension k (``np.meshgrid(...,
        indexing="ij", sparse=True)``), so the coordinates broadcast to
        every grid point.  The grid must have exactly one axis per
        name."""
        wanted = ", ".join(names)
        for name in names:
            if name not in self.axes:
                raise BadParams(f"grid has no axis '{name}'; the model's "
                                f"invariants are {wanted}")
        for name in self.axes:
            if name not in names:
                raise BadParams(f"grid axis '{name}' is not an invariant of "
                                f"the model ({wanted})")
        axes = [np.linspace(lo, hi, int(n))
                for lo, hi, n in map(self.axes.get, names)]
        return InvariantPoint(**dict(zip(
            names, np.meshgrid(*axes, indexing="ij", sparse=True))))

    def point(self, names: tuple[str, ...]) -> InvariantPoint:
        """Every grid point, as flat coordinate arrays in C order (the
        last axis varies fastest): the open mesh broadcast to the whole
        grid."""
        mesh = self.mesh(names)
        grids = np.broadcast_arrays(*(mesh.get(name) for name in names))
        return InvariantPoint(**{name: g.ravel()
                                 for name, g in zip(names, grids)})

    def to_json(self) -> dict:
        return {name: {"lo": lo, "hi": hi, "n": n}
                for name, (lo, hi, n) in self.axes.items()}


_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_items(doc: dict) -> str:
    """The item lines between the braces of
    json.dumps(doc, sort_keys=True, indent=2), for a non-empty doc."""
    return json.dumps(doc, sort_keys=True, indent=2)[2:-2]


def _row_template(names: list[str], widths: dict[str, int]) -> list[str]:
    """The constant pieces of a per_point row as json.dumps(indent=2)
    writes it inside the report: the texts around its fields, one per
    point coordinate and residual component (sectors in sorted order)."""
    point = ",\n".join(f'        "{n}": %s' for n in names)
    sectors = ",\n".join(
        f'        "{s}": [\n' + ",\n".join(["          %s"] * widths[s])
        + "\n        ]" for s in sorted(widths))
    row = ('    {\n      "point": {\n' + point + '\n      },\n'
           '      "residuals": {\n' + sectors + '\n      }\n    }')
    return row.split("%s")


@dataclass
class CEReport:
    """Result of classifying one model over a grid.

    The evaluated points and their residuals are kept as columns: one
    array per point coordinate, one array per component of each sector's
    residuals, and ``general_rows`` marks the rows that carry the
    "general" sector.
    """

    model: str
    kind: str
    grid: GridSpec
    tol: float
    label: str
    max_residual: float
    argmax_point: dict[str, float] | None
    counts: dict[str, int] = field(default_factory=dict)
    points: dict[str, np.ndarray] = field(default_factory=dict)
    residuals: dict[str, list[np.ndarray]] = field(default_factory=dict)
    general_rows: np.ndarray | None = None

    def write_json(self, fh) -> None:
        """Write the report to ``fh`` as ``json.dumps(doc, sort_keys=True,
        indent=2)`` writes it, plus a newline; the per_point rows are
        written straight from the columns, one ROW_BLOCK at a time."""
        head = {
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
            "note": "",  # always empty; the report schema keeps the key
        }
        # json.dumps sorts "per_point" between "note" and "report"
        fh.write("{\n" + _json_items(
            {k: v for k, v in head.items() if k < "per_point"})
            + ',\n  "per_point": ')
        count = len(next(iter(self.points.values()), ()))
        for start in range(0, count, ROW_BLOCK):
            fh.write((",\n" if start else "[\n") + ",\n".join(
                self._per_point_rows(slice(start, start + ROW_BLOCK))))
        fh.write(("\n  ]" if count else "[]") + ",\n" + _json_items(
            {k: v for k, v in head.items() if k > "per_point"}) + "\n}\n")

    def _per_point_rows(self, block: slice) -> list[str]:
        names = sorted(self.points)
        columns = {**{n: [self.points[n]] for n in names}, **self.residuals}
        text = {key: [float_texts(c[block], _JSON_CONSTANTS) for c in cs]
                for key, cs in columns.items()}

        def rows_of(sectors: list[str], keep=None):
            pieces = _row_template(
                names, {s: len(self.residuals[s]) for s in sectors})
            fields = [c if keep is None else compress(c, keep)
                      for key in (*names, *sorted(sectors)) for c in text[key]]
            return map("".join, zip(*chain.from_iterable(
                zip(map(repeat, pieces), fields)), repeat(pieces[-1])))

        plain = [s for s in self.residuals if s != "general"]
        if self.general_rows is None:
            return list(rows_of(plain))
        keep = self.general_rows[block]
        rows = np.empty(len(keep), dtype=object)
        for sectors, mask in ((list(self.residuals), keep), (plain, ~keep)):
            rows[mask] = np.fromiter(rows_of(sectors, mask.tolist()), object)
        return rows.tolist()


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


def _margin_ok(model: LagrangianModel, mesh: InvariantPoint,
               names: tuple[str, ...]) -> np.ndarray:
    """Which grid points keep the guard, and evaluate, at the point and
    GUARD_MARGIN away along each axis, as a flat mask in C order.

    The probes run on the grid's open mesh (``GridSpec.mesh``), so a
    shifted probe moves one n_k-long axis, and a value that reads some
    of the axes is computed on their product alone; the masks meet at
    the grid's broadcast shape.  Every entry is the IEEE operation the
    flat grid would make there, so the mask, and any error raised, are
    those of probing every point.
    """
    ok = np.ones(np.broadcast_shapes(*(mesh.get(n).shape for n in names)),
                 dtype=bool)
    probes = [mesh]
    for name in names:
        for sign in (+1.0, -1.0):
            probes.append(mesh.shifted(name, sign * GUARD_MARGIN))
    for p in probes:
        ok &= model.guard_ok(p)
        # Expression models carry no declared guard, so probe the evaluator
        # itself; leaving the domain marks the point as outside it.
        ok &= np.logical_not(_evaluate(model.value_at, p)[1])
    return ok.ravel()


def _worst(components: list[np.ndarray],
           rows: np.ndarray | None) -> tuple[float, int | None]:
    """Largest residual and its row, as a scan of the rows in order finds
    it: each row's largest component, then the first row above every
    earlier one.  Only the rows that ``rows`` marks (default all) take
    part.  A NaN residual in one of them fails the sector, and the result
    is (nan, None), as when no row takes part."""
    value = components[0]
    for c in components[1:]:
        value = np.maximum(value, c)  # NaN if either is
    if rows is not None:
        value = np.where(rows, value, -1.0)  # residuals are never negative
    index = int(np.argmax(value))  # the first NaN, if there is one
    worst = float(value[index])
    return (worst, index) if worst >= 0.0 else (float("nan"), None)


def _scalar_sector(model: LagrangianModel, point: InvariantPoint,
                   jet: Jet3 | Jet3a) -> tuple[float]:
    # a scalar model's primary jet is already its third-order z-jet
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


# overflowing values become inf or NaN residuals; numpy's warnings about
# them would only repeat what the report says
@np.errstate(all="ignore")
def classify(model: LagrangianModel, grid: GridSpec | None = None,
             tol: float = DEFAULT_TOL) -> CEReport:
    """Classify a model as StronglyCE / CE / NotCE / Degenerate on a grid.

    The grid is one array pass: the model's guard and value on the
    grid's open mesh and on its 2*dim copies with one axis shifted by
    GUARD_MARGIN select the evaluated points, then each jet the sectors
    need is evaluated once over all of them.  Where evaluating the
    points one at a time would raise, the same DomainError is raised.
    """
    if grid is None:
        grid = GridSpec.default(model.kind)
    names = model.kind.variables
    grid_point = grid.point(names)
    total = grid_point.get(names[0]).size
    if total == 0:
        raise EmptyGrid("grid has no points")

    point = grid_point.take(_margin_ok(model, grid.mesh(names), names))
    evaluated = point.get(names[0]).size
    guard_excluded = total - evaluated
    if not evaluated:
        raise EmptyGrid("every grid point violates the domain guard "
                        "(or its margin)")

    gates, strong, fallback = _CLASSIFY_TABLE[model.kind]
    sectors = [s for s in dict.fromkeys((*gates, *strong, fallback))
               if s in _SECTORS]

    def sector_residuals(p: InvariantPoint, jet: Jet3 | Jet3a) -> dict:
        return {s: _SECTORS[s](model, p, jet) for s in sectors}

    def columns(values) -> list[np.ndarray]:
        return [np.broadcast_to(v, (evaluated,)) for v in values]

    jet = _on_grid(model.jet_at, point)
    residuals = _on_grid(lambda p: sector_residuals(p, jet), point,
                         lambda p: sector_residuals(p, model.jet_at(p)))
    residuals = {s: columns(values) for s, values in residuals.items()}
    points = {n: point.get(n) for n in names}
    general_rows, degenerate_skipped = None, 0

    def summarize(key: str) -> tuple[float, dict | None]:
        worst, index = _worst(residuals[key],
                              general_rows if key == "general" else None)
        if index is None:
            return worst, None
        return worst, {n: float(c[index]) for n, c in points.items()}

    # a NaN maximum fails its sector
    failing = [pair for pair in map(summarize, gates) if not pair[0] < tol]
    if failing:
        label, (worst, arg) = "NotCE", failing[0]
    else:
        # a NaN maximum wins, and ties keep the earlier sector
        worst, arg = max(map(summarize, strong),
                         key=lambda pair: (np.isnan(pair[0]), pair[0]))
        if worst < tol:
            label = "StronglyCE"
        elif fallback is None:
            label = "NotCE"
        else:
            if fallback == "general":
                # the vector sector may still pass on the birefringent
                # branch, at the points where it is not degenerate
                data = VectorCharData.from_jet(jet, point)
                general_rows = ~np.broadcast_to(data.degenerate(),
                                                (evaluated,))
                degenerate_skipped = evaluated - int(general_rows.sum())
                residuals["general"] = columns(_general(data))
            worst, arg = summarize(fallback)
            label = "CE" if worst < tol else "NotCE"

    # too few points decided: a failing residual still gives NotCE, and a
    # birefringent-branch verdict, or a fallback that decided no row,
    # reports no maximum
    if (guard_excluded + degenerate_skipped > 0.5 * total
            and (worst < tol or degenerate_skipped == evaluated)):
        label = "Degenerate"
        if general_rows is not None:
            worst, arg = float("nan"), None

    return CEReport(
        model=model.name, kind=model.kind.value, grid=grid, tol=tol,
        label=label, max_residual=worst, argmax_point=arg,
        counts={"total": total, "evaluated": evaluated,
                "guard_excluded": guard_excluded,
                "degenerate_skipped": degenerate_skipped},
        points=points, residuals=residuals, general_rows=general_rows,
    )

