"""Output checks for benchmark jobs.

``check(job, outcome, files, reference)`` returns a list of failures.  A
failure tagged with a defect id is a defect of the program documented in
README.md ("Known defects"): it counts in ``error_rate`` but not as an
unexpected failure.

Oracles come first (closed forms, identities, statuses frozen by the
test suite).  Jobs with seed-independent inputs (``anchor``) are also
compared with ``reference.json``: discrete fields exactly, floats within
``REL_TOL``/``ABS_TOL``.  Those tolerances accept reassociated arithmetic
(exact-jet, einsum and batched rewrites differ from the seed commit in
the last digits; residuals below 1e-9 are rounding noise) and still
catch a changed formula.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from cewave import lagrangians, rays, shock1d
from cewave.charsys import FieldBackground

REL_TOL = 1e-6
ABS_TOL = 1e-9

LABELS = ("StronglyCE", "CE", "NotCE", "Degenerate")


@dataclass(frozen=True)
class Failure:
    message: str
    defect: str | None = None


def digest(outcome, files: dict[str, bytes]) -> str:
    """Hash of everything a job produced, to compare passes byte for byte."""
    h = hashlib.sha256()
    h.update(repr((outcome.rc, outcome.stdout, outcome.error)).encode())
    for suffix in sorted(files):
        h.update(suffix.encode())
        h.update(files[suffix])
    for key, value in sorted((outcome.value or {}).items()):
        h.update(key.encode())
        h.update(np.asarray(value).tobytes() if isinstance(value, np.ndarray)
                 else repr(value).encode())
    return h.hexdigest()


def _csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _close(a: float, b: float, rel: float = REL_TOL,
           abs_: float = ABS_TOL) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _arg(argv, flag: str) -> str | None:
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    return None


# --- per-family oracles -------------------------------------------------------------


def _check_ce(job, outcome, files, reference):
    doc = json.loads(files[".json"])
    fails = []
    counts = doc["counts"]
    grid_points = math.prod(axis["n"] for axis in doc["grid"].values())
    if counts["total"] != grid_points:
        fails.append(Failure(f"counts.total {counts['total']} != grid size "
                             f"{grid_points}"))
    if counts["evaluated"] + counts["guard_excluded"] != counts["total"]:
        fails.append(Failure(f"evaluated + guard_excluded != total: {counts}"))
    if len(doc["per_point"]) != counts["evaluated"]:
        fails.append(Failure(f"{len(doc['per_point'])} per-point rows for "
                             f"{counts['evaluated']} evaluated points"))
    label = doc["label"]
    if label not in LABELS:
        fails.append(Failure(f"unknown label {label!r}"))
    want = job.expect["label"]
    if label != want:
        # A vector-scalar model whose z-part alone is NotCE is NotCE.
        defect = ("vector-scalar-degenerate"
                  if job.expect.get("zpart_notce") and label == "Degenerate"
                  else None)
        fails.append(Failure(f"label {label}, expected {want}", defect))
    if label in ("StronglyCE", "CE") and not doc["residual_summary"]["max"] < doc["tol"]:
        fails.append(Failure(f"{label} with max residual "
                             f"{doc['residual_summary']['max']}"))
    if f": {label} " not in outcome.stdout:
        fails.append(Failure("summary line does not state the label"))
    return fails


def _check_gravity(job, outcome, files, reference):
    doc = json.loads(files[".json"])
    fails = []
    allowed = reference["gravity_kernel_dims"].get(job.expect["config"])
    if allowed is None:
        return [Failure(f"no recorded kernel dims for {job.expect['config']}")]
    for side in ("null", "nonnull"):
        hist = doc[f"{side}_kernel_dims"]
        if sum(hist.values()) != job.expect["trials"]:
            fails.append(Failure(f"{side} histogram {hist} does not sum to "
                                 f"{job.expect['trials']} trials"))
        # Where the recorded survey saw several dimensions (quadratic on
        # null normals: its equation rows are Q ~ 1e-16 times a tensor, and
        # row normalisation scales that rounding noise to unit norm), the
        # dimension is set by rounding and cannot be checked.
        extra = sorted(set(hist) - set(allowed[side]))
        if extra and len(allowed[side]) == 1:
            fails.append(Failure(f"{side} kernel dims {extra} outside the "
                                 f"recorded set {allowed[side]}"))
    if doc["D"] != job.expect["D"] or doc["trials"] != job.expect["trials"]:
        fails.append(Failure("report does not echo D and trials"))
    return fails


def _job_model(argv):
    name = _arg(argv, "--builtin")
    params = _arg(argv, "--params")
    return lagrangians.builtin(
        name, [float(p) for p in params.split(",")] if params else None)


def _check_fresnel(job, outcome, files, reference):
    rows = _csv(files[".csv"])
    header, body = rows[0], rows[1:]
    fails = []
    n_bg = job.expect["trials"] + 1
    if len(body) != 4 * n_bg:
        return [Failure(f"{len(body)} rows for {n_bg} backgrounds")]
    col = {name: i for i, name in enumerate(header)}
    model = _job_model(job.argv)
    flags = [r[col["birefringent_flag"]] for r in body]
    if job.expect["model"] == "born-infeld" and "true" in flags:
        fails.append(Failure("born-infeld has no birefringence, yet rows are "
                             "flagged"))
    zero = sorted(float(r[col["p0"]]) for r in body[:4])
    if not np.allclose(zero, [-1, -1, 1, 1], rtol=0, atol=1e-12) or "true" in flags[:4]:
        fails.append(Failure(f"zero background roots {zero}, expected the "
                             "doubled light cone"))
    # Each real root is a zero of the ray Hamiltonian K u^2 + u g P + g^2 R
    # at p = (p0, n), which builds u from the field tensor instead of the
    # factored polynomials in p0 that the solver uses.  The table keeps
    # only real parts, so a complex pair shows as two equal p0 values that
    # are not marked coincident.
    worst = 0.0
    for k in range(4, len(body), 4):
        r = body[k]
        E = [float(r[col[c]]) for c in ("Ex", "Ey", "Ez")]
        B = [float(r[col[c]]) for c in ("Bx", "By", "Bz")]
        n = [float(r[col[c]]) for c in ("nx", "ny", "nz")]
        H = rays.QuarticHamiltonian(model, FieldBackground.vector(E, B))
        p0s = [float(rr[col["p0"]]) for rr in body[k:k + 4]]
        coincident = [int(rr[col["coincident_with"]]) for rr in body[k:k + 4]]
        for i, p0 in enumerate(p0s):
            complex_pair = coincident[i] < 0 and any(
                j != i and abs(q - p0) <= 1e-9 * (1 + abs(p0))
                for j, q in enumerate(p0s))
            if not complex_pair:
                p = np.array([p0, *n])
                worst = max(worst, abs(H.value(None, p)) / H.magnitude(None, p))
    if worst > 1e-9:
        fails.append(Failure(f"a real root misses the dispersion surface by "
                             f"{worst:.3e} (relative)"))
    return fails


def _check_rays(job, outcome, files, reference):
    rows = _csv(files[".csv"])
    data = np.array(rows[1:], dtype=float)
    fails = []
    steps = job.expect["steps"]
    if data.shape != (steps + 1, 10):
        return [Failure(f"ray table shape {data.shape}, expected "
                        f"{(steps + 1, 10)}")]
    s, x, p, H = data[:, 0], data[:, 1:5], data[:, 5:9], data[:, 9]
    # Constant background: p is conserved, H stays on the cone and x moves
    # on a straight line at the constant group velocity.
    if not np.array_equal(p, np.broadcast_to(p[0], p.shape)):
        fails.append(Failure("momentum not conserved on a constant background"))
    if np.max(np.abs(H)) > 1e-9:
        fails.append(Failure(f"|H| reaches {np.max(np.abs(H)):.3e}"))
    v = x[1] / s[1]
    if "cone_nhat" in job.expect:
        v_exact = 2.0 * np.array([1.0, *job.expect["cone_nhat"]])
        if not np.allclose(v, v_exact, rtol=1e-12, atol=1e-12):
            fails.append(Failure(f"cone ray velocity {v} != {v_exact}"))
    if np.max(np.abs(x - np.outer(s, v))) > 1e-9 * (1.0 + np.max(np.abs(x))):
        fails.append(Failure("ray is not a straight line"))
    return fails


_PROFILE_SIZES = {"sin": 401, "linear": 201, "step": 401}


def _check_shock(job, outcome, files, reference):
    doc = json.loads(files[".json"])
    fails = []
    profile = job.expect["profile"]
    # Burgers breaks at t* = -1/min u0' = 1 for sin and -tanh, never for x.
    for key in ("shock_time", "crossing_time"):
        t = doc["burgers"][key]
        if profile == "linear":
            if t is not None:
                fails.append(Failure(f"linear profile has Burgers {key} {t}"))
        elif t is None or abs(t - 1.0) > 1e-2:
            fails.append(Failure(f"Burgers {key} {t}, expected 1"))
    n_t = len(doc["t_list"])
    for suffix, n_rows in (("_burgers.csv", _PROFILE_SIZES[profile]),
                           ("_model.csv", 201)):
        if suffix in files:
            table = _csv(files[suffix])
            if len(table) != n_rows + 1 or len(table[0]) != 2 + n_t:
                fails.append(Failure(f"{suffix} has {len(table)} rows of "
                                     f"{len(table[0])} columns"))
    if job.expect.get("exceptional"):
        model = doc["model"]
        # An exceptional scalar mode keeps its speed along the simple wave,
        # so the fan never folds.
        if model["model_crossing"] is not None:
            fails.append(Failure(f"exceptional model fan crosses at "
                                 f"{model['model_crossing']}"))
        if model["model_lam_variation"] > 1e-8:
            fails.append(Failure(f"exceptional model speed varies by "
                                 f"{model['model_lam_variation']:.3e}"))
    return fails


def _check_upwind(job, outcome, files, reference):
    x, u = outcome.value["x"], outcome.value["u"]
    phase, t = job.params["phase"], job.params["t"]
    dx = x[1] - x[0]
    fails = []
    if not np.all(np.isfinite(u)):
        return [Failure("non-finite upwind state")]
    # Conservative periodic scheme: the cell mass is conserved exactly.
    drift = abs(float(np.sum(u) - np.sum(np.sin(x + phase)))) * dx
    if drift > 1e-10:
        fails.append(Failure(f"mass drift {drift:.3e}"))
    if t < 1.0:
        # Before the shock time the exact solution is the characteristic push.
        profile = shock1d.Profile1D.from_callable(
            lambda y: np.sin(y + phase), 0.0, 2.0 * math.pi, n=401,
            periodic=True)
        l1 = shock1d.moc_upwind_l1(shock1d.moc_solve(lambda v: v, profile, t),
                                   shock1d.Snapshot(t=t, x=x, u=u))
        if l1 > 0.1:
            fails.append(Failure(f"L1 distance to the exact solution {l1:.3e}"))
    return fails


def _check_transport(job, outcome, files, reference):
    v = outcome.value
    p = job.params
    want = job.expect["s_star"]
    if want is not None:
        # pi(s) = pi0 / (1 + c pi0 s) blows up at s* = -1 / (c pi0).
        if not v["blown_up"] or not _close(v["s_star"], want, 1e-9, 0.0):
            return [Failure(f"blow-up at {v['s_star']}, expected {want}")]
        return []
    exact = p["pi0"] * math.exp(-p["m"] * p["s_max"])
    if v["blown_up"] or not _close(float(v["pi"][-1]), exact, 1e-9, 0.0):
        return [Failure(f"pi(s_max) = {v['pi'][-1]}, expected {exact}")]
    return []


_CHECKS = {"ce": _check_ce, "gravity": _check_gravity,
           "fresnel": _check_fresnel, "rays": _check_rays,
           "shock": _check_shock, "upwind": _check_upwind,
           "transport": _check_transport}


# --- reference summaries --------------------------------------------------------------


def _residual_stats(per_point):
    stats: dict[str, list[float]] = {}
    for row in per_point:
        for key, values in row["residuals"].items():
            stats.setdefault(key, []).extend(values)
    return {key: {"n": len(vals), "max": max(vals),
                  "mean": float(np.mean(vals))}
            for key, vals in sorted(stats.items())}


def summarize(job, outcome, files) -> dict:
    """Fields of an anchor job's output that reference.json records."""
    if job.family == "ce":
        doc = json.loads(files[".json"])
        counts = doc["counts"]
        if job.expect.get("zpart_notce"):
            # Only what the known mislabel leaves untouched.
            return {"counts": {k: counts[k] for k in
                               ("total", "evaluated", "guard_excluded")}}
        return {"label": doc["label"], "counts": counts,
                "max": doc["residual_summary"]["max"],
                "residuals": _residual_stats(doc["per_point"])}
    if job.family == "rays":
        data = np.array(_csv(files[".csv"])[1:], dtype=float)
        return {"rows": len(data), "final": [float(v) for v in data[-1, :9]],
                "max_abs_H": float(np.max(np.abs(data[:, 9])))}
    if job.family == "shock":
        doc = json.loads(files[".json"])
        tables = {}
        for suffix in job.outputs[1:]:
            data = np.array(_csv(files[suffix])[1:], dtype=float)
            tables[suffix] = {"rows": len(data),
                              "column_sums": [float(c) for c in data.sum(axis=0)]}
        return {"burgers": doc["burgers"], "model": doc["model"],
                "tables": tables}
    raise ValueError(f"no reference summary for {job.family} jobs")


def _compare(got, want, path: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [m for k in want for m in _compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) \
                and _close(float(got), float(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def check(job, outcome, files, reference) -> list[Failure]:
    """All failures of one job's output (empty when it is correct)."""
    if outcome.error is not None:
        return [Failure(outcome.error.strip().splitlines()[-1])]
    if outcome.rc != 0:
        off_cone = (job.family == "rays" and outcome.rc == 3
                    and "off the cone" in outcome.stderr)
        return [Failure(f"exit code {outcome.rc}: {outcome.stderr.strip()}",
                        "rays-start-off-cone" if off_cone else None)]
    missing = [s for s in job.outputs if s not in files]
    if missing:
        return [Failure(f"missing outputs {missing}")]
    fails = _CHECKS[job.family](job, outcome, files, reference)
    if job.anchor:
        want = reference["jobs"].get(" ".join(job.argv))
        if want is None:
            fails.append(Failure("no reference recorded for these inputs"))
        else:
            fails += [Failure(f"differs from reference: {m}") for m in
                      _compare(summarize(job, outcome, files), want, "summary")]
    return fails
