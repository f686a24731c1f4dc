"""Seeded job lists for the benchmark workloads, and the job runner.

A job is either an argv list handed in-process to ``cewave.cli.main`` or
a direct library call, for the two capabilities that have no command
line path (``shock1d.upwind_solve`` and ``rays.transport_amplitude``).
Every random value comes from ``numpy.random.default_rng(seed)``.  Job
sizes (grids, trial counts, step counts) are fixed per job slot, so the
seed changes the values a job works on but not how much work it does.

Jobs marked ``anchor`` have inputs that do not depend on the seed; their
outputs are compared with ``reference.json``, recorded on the commit that
introduced the benchmark.  Every other job is checked against oracles
(closed forms, identities, known statuses), see ``checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
from dataclasses import dataclass, field

import numpy as np

from cewave import cli, rays, shock1d

WORKLOADS = ("classify-grid", "gravity-survey", "wave-lab")


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work.

    ``argv`` entries may contain ``{out}``, replaced by the job's output
    stem; ``outputs`` lists the suffixes of the files the job writes.
    ``expect`` carries the parameters of the family's output checks.
    """

    name: str
    family: str
    argv: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    call: str = ""
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    anchor: bool = False


@dataclass
class Outcome:
    """What one execution of a job produced."""

    rc: int | None
    stdout: str
    stderr: str
    value: dict | None = None
    error: str | None = None


def _num(x: float) -> str:
    """Three-decimal literal: short, readable argv and exact in the parser."""
    return f"{x:.3f}"


def _vec(v) -> str:
    return ",".join(repr(float(c)) for c in v)


# --- classify-grid ----------------------------------------------------------------


def _ce_job(name: str, model: tuple[str, ...], expect: dict,
            grid: str | None = None, anchor: bool = False) -> Job:
    argv = ("ce", "check", *model)
    if grid is not None:
        argv += ("--grid", grid)
    argv += ("--out", "{out}.json")
    return Job(name=name, family="ce", argv=argv, outputs=(".json",),
               expect=expect, anchor=anchor)


def _expr(text: str, kind: str) -> tuple[str, ...]:
    return (f"--expr={text}", "--kind", kind)


# Builtin statuses frozen by tests/test_ce.py and the acceptance gate.
_BUILTINS = (
    ("maxwell", None, "StronglyCE"),
    ("born-infeld", None, "StronglyCE"),
    ("alpha-over-beta", None, "StronglyCE"),
    ("scalar-maxwell", None, "StronglyCE"),
    ("scalar-bi", None, "StronglyCE"),
    ("perturbed-maxwell", "0.1", "NotCE"),
    ("sqrt-family", "1,3,1", "CE"),
)


def _classify_grid(rng: np.random.Generator, tiny: bool) -> list[Job]:
    jobs = []
    for name, params, label in _BUILTINS:
        model = ("--builtin", name) + ((f"--params={params}",) if params else ())
        jobs.append(_ce_job(f"ce-{name}", model, {"label": label},
                            anchor=True))

    # Expression families whose status is known in closed form.  The
    # scalar condition L'L''' = 3L''^2 is solved exactly by k + m*sqrt(d + c z)
    # and by linear L; Born-Infeld keeps its status under a change of field
    # scale c and an overall factor m.
    def sqrt_z():
        k, m = rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(0.5, 2)
        d, c = rng.uniform(1, 2), rng.choice([-1, 1]) * rng.uniform(0.3, 1.5)
        return (f"{_num(k)} + {_num(m)}*sqrt({_num(d)} + {_num(c)}*z)",
                "scalar", "StronglyCE")

    def cubic_z():
        return f"z + {_num(rng.uniform(0.2, 1))}*z^3", "scalar", "NotCE"

    def linear_a():
        return f"-{_num(rng.uniform(0.5, 2))}*a", "alpha", "StronglyCE"

    def sqrt_a():
        k, d, c = rng.uniform(-1, 1), rng.uniform(1.5, 3), rng.uniform(0.3, 0.6)
        return f"{_num(k)} + sqrt({_num(d)} + {_num(c)}*a)", "alpha", "CE"

    def quartic_a():
        return f"-a/2 + {_num(rng.uniform(0.05, 0.3))}*a^2", "alpha", "NotCE"

    def bi_scaled():
        c = round(rng.uniform(0.5, 1.0), 3)
        m = rng.uniform(0.5, 2)
        return (f"{_num(m)}*(1 - sqrt(1 + {c:.3f}*a - {c * c:.6f}*b^2))",
                "alpha-beta", "StronglyCE")

    def sqrt_ab():
        return (f"1 - sqrt(1 + a - {_num(rng.uniform(0.3, 0.7))}*b^2)",
                "alpha-beta", "CE")

    def quad_ab():
        e1, e2 = rng.uniform(0.02, 0.2, size=2)
        return (f"-a/2 + {_num(e1)}*a^2 + {_num(e2)}*b^2", "alpha-beta",
                "NotCE")

    def separable_abz():
        c = round(rng.uniform(0.5, 0.9), 3)
        k, m = rng.uniform(-1, 1), rng.uniform(0.5, 2)
        d, e = rng.uniform(1, 2), rng.choice([-1, 1]) * rng.uniform(0.3, 1.5)
        return (f"(1 - sqrt(1 + {c:.3f}*a - {c * c:.6f}*b^2))"
                f" + ({_num(k)} - {_num(m)}*sqrt({_num(d)} + {_num(e)}*z))",
                "vector-scalar", "StronglyCE")

    def coupled_abz():
        return (f"{_num(rng.uniform(0.3, 1.5))}*a*z + b", "vector-scalar",
                "NotCE")

    # Counts put the median job among the 2-D (a, b) grids and the 90th
    # percentile among the large grids, which are about 15% of the jobs;
    # see README.md.
    families = ((sqrt_z, 2), (cubic_z, 2), (linear_a, 2), (sqrt_a, 2),
                (quartic_a, 1), (bi_scaled, 6), (sqrt_ab, 6), (quad_ab, 5),
                (separable_abz, 1), (coupled_abz, 1))
    if tiny:
        families = tuple((f, 1) for f, _ in families if f not in (
            separable_abz, coupled_abz))
    for make, count in families:
        for i in range(count):
            text, kind, label = make()
            jobs.append(_ce_job(f"ce-{make.__name__.replace('_', '-')}-{i}",
                                _expr(text, kind), {"label": label}))

    if tiny:
        ab, vs, z = "a:-0.5:2:9,b:-1:1:9", "a:-0.5:2:5,b:-1:1:5,z:-0.45:0.45:3", 101
    else:
        ab, vs, z = "a:-0.5:2:101,b:-1:1:101", None, 10001
    ab61 = "a:-0.5:2:9,b:-1:1:9" if tiny else "a:-0.5:2:61,b:-1:1:61"
    jobs += [
        # strong-residual path and a ~2 MB per-point report
        _ce_job("ce-born-infeld-large", ("--builtin", "born-infeld"),
                {"label": "StronglyCE"}, grid=ab, anchor=True),
        # fails the strong test: third-order residuals at every point
        _ce_job("ce-quadratic-large",
                _expr("-a/2 + 0.1*a^2 + 0.05*b^2", "alpha-beta"),
                {"label": "NotCE"}, grid=ab61, anchor=True),
        # CE on the general (birefringent) branch
        _ce_job("ce-sqrt-ab-large", _expr("1 - sqrt(1 + a - 0.5*b^2)",
                                          "alpha-beta"),
                {"label": "CE"}, grid=ab61, anchor=True),
        # z finite differences in coupling_residuals; the z-part
        # 0.1*z^2 - z alone gives L'L''' - 3L''^2 = -0.12, so NotCE
        _ce_job("ce-vector-scalar-zpart-notce",
                _expr("1 - sqrt(1 + a - b^2) + 0.1*z^2 - z", "vector-scalar"),
                {"label": "NotCE", "zpart_notce": True}, grid=vs,
                anchor=True),
        _ce_job("ce-scalar-bi-fine", ("--builtin", "scalar-bi"),
                {"label": "StronglyCE"}, grid=f"z:-0.45:0.45:{z}",
                anchor=True),
    ]
    return jobs


# --- gravity-survey ---------------------------------------------------------------

# (label, flags, params); quadratic p = 3q is criterion 10's case, (1, 0.5)
# a generic pair below every critical ratio 4(D-1)/D.
GRAVITY_THEORIES = (
    ("einstein", ("--theory", "einstein"), {}),
    ("quadratic-p3-q1", ("--theory", "quadratic", "--p", "3", "--q", "1"),
     {"p": 3.0, "q": 1.0}),
    ("quadratic-p1-q0.5", ("--theory", "quadratic", "--p", "1", "--q", "0.5"),
     {"p": 1.0, "q": 0.5}),
    ("fr", ("--theory", "fr", "--fpp", "1"), {"f2": 1.0}),
)


def _gravity_survey(rng: np.random.Generator, tiny: bool) -> list[Job]:
    dims = (4, 5) if tiny else (4, 5, 6, 7)
    trials = (1, 3) if tiny else (1, 2, 4, 8, 16, 48)
    jobs = []
    for label, flags, params in GRAVITY_THEORIES:
        for D in dims:
            for n in trials:
                seed = int(rng.integers(0, 2**31))
                argv = ("gravity", *flags, "--D", str(D), "--trials", str(n),
                        "--seed", str(seed), "--out", "{out}.json")
                jobs.append(Job(
                    name=f"gravity-{label}-D{D}-n{n}", family="gravity",
                    argv=argv, outputs=(".json",),
                    expect={"config": f"{label}-D{D}",
                            "trials": n, "D": D, **params}))
    return jobs


# --- wave-lab ---------------------------------------------------------------------


def _fresnel_models(rng):
    eps = rng.choice([-1, 1]) * rng.uniform(0.05, 0.2)
    k, d, c = rng.uniform(-1, 1), rng.uniform(1.5, 3), rng.uniform(0.3, 0.6)
    return (
        (("--builtin", "perturbed-maxwell", f"--params={_num(eps)}"),
         "perturbed-maxwell"),
        (("--builtin", "born-infeld"), "born-infeld"),
        (("--builtin", "sqrt-family", f"--params={_num(k)},{_num(d)},{_num(c)}"),
         "sqrt-family"),
    )


def _ray_background(rng, in_plane: bool):
    E = rng.uniform(-0.3, 0.3, size=3)
    B = rng.uniform(-0.3, 0.3, size=3)
    if in_plane:
        # A normal in the E-B plane carries no Poynting flux, so the
        # dispersion roots come in +-pairs.
        al, be = rng.uniform(-1, 1, size=2)
        nhat = al * E + be * B
    else:
        nhat = rng.uniform(-1, 1, size=3)
    return E, B, nhat / np.linalg.norm(nhat)


def _wave_lab(rng: np.random.Generator, tiny: bool) -> list[Job]:
    jobs = []
    models = _fresnel_models(rng)

    for model, label in models:
        for i, n in enumerate((5,) if tiny else (5, 10, 15, 20, 30, 40, 50, 60)):
            argv = ("fresnel", *model, "--trials", str(n), "--seed",
                    str(int(rng.integers(0, 2**31))), "--out", "{out}.csv")
            jobs.append(Job(name=f"fresnel-{label}-{i}", family="fresnel",
                            argv=argv, outputs=(".csv",),
                            expect={"model": label,
                                    "trials": n}))

    step = 0.01
    for model, label in models:
        for i, s_max in enumerate((0.5,) if tiny else (1.0, 2.0, 4.0, 6.0, 8.0,
                                                       10.0, 12.0, 16.0)):
            E, B, nhat = _ray_background(rng, in_plane=True)
            argv = ("rays", *model, f"--E={_vec(E)}", f"--B={_vec(B)}",
                    f"--nhat={_vec(nhat)}", "--s-max", repr(s_max),
                    "--step", repr(step), "--out", "{out}.csv")
            jobs.append(Job(name=f"rays-{label}-{i}", family="rays",
                            argv=argv, outputs=(".csv",),
                            expect={"steps": round(s_max / step)}))
    for i, s_max in enumerate((0.5,) if tiny else (1.0, 2.0, 4.0, 8.0, 12.0,
                                                   16.0)):
        _, _, nhat = _ray_background(rng, in_plane=False)
        argv = ("rays", "--cone", f"--nhat={_vec(nhat)}", "--s-max",
                repr(s_max), "--step", repr(step), "--out", "{out}.csv")
        jobs.append(Job(name=f"rays-cone-{i}", family="rays", argv=argv,
                        outputs=(".csv",),
                        expect={"steps": round(s_max / step),
                                "cone_nhat": [float(v) for v in nhat]}))
    # A normal with Poynting flux along it: the default start covector
    # must still lie on the cone.
    E, B, nhat = _ray_background(rng, in_plane=False)
    jobs.append(Job(
        name="rays-born-infeld-flux", family="rays",
        argv=("rays", "--builtin", "born-infeld", f"--E={_vec(E)}",
              f"--B={_vec(B)}", f"--nhat={_vec(nhat)}", "--s-max", "1.0",
              "--out", "{out}.csv"),
        outputs=(".csv",), expect={"steps": 100}))
    jobs.append(Job(
        name="rays-born-infeld-readme", family="rays",
        argv=("rays", "--builtin", "born-infeld", "--E", "0.3,0,0", "--B",
              "0,0.4,0", "--s-max", "1.0" if tiny else "10.0",
              "--out", "{out}.csv"),
        outputs=(".csv",),
        expect={"steps": 100 if tiny else 1000},
        anchor=True))

    for profile in ("sin", "linear", "step"):
        expect = {"profile": profile}
        for k, t_list in enumerate(("0.5,1.0,2.0,5.0", "0.25,0.75,1.5")):
            jobs.append(Job(name=f"shock-{profile}-t{k}", family="shock",
                            argv=("shock", "--profile", profile, "--t-list",
                                  t_list, "--out", "{out}.json"),
                            outputs=(".json", "_burgers.csv"),
                            expect=expect, anchor=True))
        if tiny and profile != "sin":
            continue
        base = ("shock", "--profile", profile, "--t-list", "0.5,1.0,2.0,5.0")
        jobs.append(Job(name=f"shock-{profile}-scalar-bi", family="shock",
                        argv=base + ("--model-builtin", "scalar-bi", "--out",
                                     "{out}.json"),
                        outputs=(".json", "_burgers.csv", "_model.csv"),
                        expect={**expect, "exceptional": True}, anchor=True))
        for i in range(1 if tiny else 2):
            k, m, d = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(1, 2)
            c = rng.uniform(1.0, 2.5)
            jobs.append(Job(
                name=f"shock-{profile}-sqrt-z-{i}", family="shock",
                argv=base + (f"--model-expr={_num(k)} - {_num(m)}*sqrt("
                             f"{_num(d)} + {_num(c)}*z)", "--model-kind",
                             "scalar", "--out", "{out}.json"),
                outputs=(".json", "_burgers.csv", "_model.csv"),
                expect={**expect, "exceptional": True}))

    for t in ((0.5, 1.5) if tiny else (0.5, 1.5, 2.0)):
        for nx in ((100,) if tiny else (100, 200, 300, 400)):
            jobs.append(Job(name=f"upwind-t{t}-nx{nx}", family="upwind",
                            call="upwind",
                            params={"phase": float(rng.uniform(0, 2 * np.pi)),
                                    "t": t, "nx": nx},
                            expect={}))

    # Blow-up at a fixed s* per slot, so the step count does not depend
    # on the seed; c = -1/(pi0 s*).
    for i, s_star in enumerate((0.5,) if tiny else (0.5, 1, 2, 3, 4, 6, 8) * 3):
        pi0 = float(rng.uniform(0.5, 2))
        jobs.append(Job(name=f"transport-blowup-{i}", family="transport",
                        call="transport",
                        params={"pi0": pi0, "m": 0.0, "c": -1.0 / (pi0 * s_star),
                                "s_max": 10.0, "step": 1e-3},
                        expect={"s_star": s_star}))
    for i in range(1 if tiny else 3):
        jobs.append(Job(name=f"transport-exceptional-{i}", family="transport",
                        call="transport",
                        params={"pi0": float(rng.uniform(0.5, 2)),
                                "m": float(rng.uniform(0.1, 0.5)), "c": 0.0,
                                "s_max": 2.0 if tiny else 10.0, "step": 1e-3},
                        expect={"s_star": None}))
    return jobs


_GENERATORS = {"classify-grid": _classify_grid,
               "gravity-survey": _gravity_survey,
               "wave-lab": _wave_lab}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The job list of one workload; the same seed gives the same jobs."""
    jobs = _GENERATORS[workload](np.random.default_rng(seed), tiny)
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in workload {workload}")
    return jobs


# --- execution ----------------------------------------------------------------------


def _upwind(phase: float, t: float, nx: int) -> dict:
    profile = shock1d.Profile1D.from_callable(
        lambda x: np.sin(x + phase), 0.0, 2.0 * math.pi, n=401, periodic=True)
    snap = shock1d.upwind_solve(lambda u: 0.5 * u * u, profile, t, nx)
    return {"x": snap.x, "u": snap.u}


def _transport(pi0: float, m: float, c: float, s_max: float,
               step: float) -> dict:
    res = rays.transport_amplitude(rays.TransportState(pi0=pi0, m=m, c=c),
                                   s_max=s_max, step=step)
    return {"s": res.s, "pi": res.pi, "blown_up": res.blown_up,
            "s_star": res.s_star}


LIBRARY_CALLS = {"upwind": _upwind, "transport": _transport}


def execute(job: Job, stem: str) -> Outcome:
    """Run one job to completion; exceptions become a failed outcome."""
    out, err = io.StringIO(), io.StringIO()
    rc, value, error = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job.call:
                value = LIBRARY_CALLS[job.call](**job.params)
                rc = 0
            else:
                rc = cli.main([a.replace("{out}", stem) for a in job.argv])
        except Exception:  # a bug in the program: record it, keep the loop going
            error = traceback.format_exc()
    return Outcome(rc=rc, stdout=out.getvalue(), stderr=err.getvalue(),
                   value=value, error=error)
