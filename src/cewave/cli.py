"""Command-line front end.

Every analysis writes a flat file (JSON or CSV) whose bytes depend only
on the arguments and the seed, plus a one-line summary on stdout.  Exit
codes: 0 success, 2 bad input (parse, domain, usage, an output that
cannot be written), 3 numerical precondition failure, 4 internal
consistency violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .ce import DEFAULT_TOL as CE_TOL, GridSpec, REPORT_SCHEMA, classify
from .charsys import (
    FIELD_KINDS,
    FieldBackground,
    FresnelBatch,
    _check_field_model,
    fresnel_batch,
    fresnel_roots,
    fresnel_scan_rows,
    unit_direction,
    unit_rows,
    write_scan_csv,
)
from .errors import (
    BadParams,
    BadUsage,
    DegeneracyError,
    FloatOverflow,
    InputError,
    InternalCheckError,
    NumericalError,
    ParseError,
)
from .gravity import kernel_survey
from .jets import DomainMask
from .lagrangians import Kind, LagrangianModel, builtin, builtin_names, from_expression
from .rays import (
    DEFAULT_STEP,
    DEFAULT_TOL as RAY_TOL,
    MAX_STEPS,
    ConeHamiltonian,
    QuarticHamiltonian,
    crossing_time,
    euler_defect,
    trace,
    write_ray_csv,
)
from .shock1d import (
    Profile1D,
    model_wave,
    shock_time,
    write_characteristics_csv,
)

DEFAULT_SEED = 42
# the Euler identity of a degree-N dispersion function holds to rounding
# (at most 6.7e-18 over the rays jobs of 39 benchmark seeds)
EULER_DEFECT_TOL = 1e-10
# a ce check takes about 0.25-0.5 KB of RSS per grid point (born-infeld
# and vector-scalar expressions, up to 1000x1000 points), so this bound
# keeps a run near 0.5 GB and a few seconds
MAX_GRID_POINTS = 1_000_000
# a fresnel scan or gravity survey takes at most this many trials, 500
# times the README's 200-trial survey; time grows about linearly in
# trials, and so does a scan's memory (a 20,000-trial born-infeld scan
# took 0.39 s and 58 MiB, a 2,000-trial D = 7 quadratic survey 0.44 s
# and 38 MiB)
MAX_TRIALS = 100_000


# --- shared argument plumbing ---------------------------------------------------------


def _parse_floats(text: str, n: int | None = None) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise BadParams(f"could not parse '{text}' as comma-separated "
                        "floats") from exc
    if n is not None and len(values) != n:
        raise BadParams(f"expected {n} comma-separated values, got "
                        f"{len(values)} in '{text}'")
    return values


def parse_grid(text: str) -> GridSpec:
    """Parse 'a:lo:hi:n,b:lo:hi:n' into grid axes."""
    axes: dict[str, tuple[float, float, int]] = {}
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 4:
            raise BadParams(f"grid axis '{chunk}' is not name:lo:hi:n")
        name = parts[0].strip()
        if not name:
            raise BadParams(f"grid axis '{chunk}' has an empty name")
        if name in axes:
            raise BadParams(f"grid axis '{name}' is given more than once")
        try:
            lo, hi = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise BadParams(f"grid axis '{chunk}' has non-numeric "
                            "bounds") from exc
        try:
            n = int(parts[3])
        except ValueError as exc:
            raise BadParams(f"grid axis '{name}' needs an integer point "
                            f"count, got '{parts[3]}'") from exc
        if n < 1:
            raise BadParams(f"grid axis '{name}' needs n >= 1")
        if not np.isfinite([lo, hi, hi - lo]).all():
            raise BadParams(f"grid axis '{name}' needs finite bounds a "
                            "finite distance apart")
        axes[name] = (lo, hi, n)
    points = math.prod(n for _, _, n in axes.values())
    if points > MAX_GRID_POINTS:
        raise BadParams(f"--grid asks for {points} points; a ce check takes "
                        f"at most {MAX_GRID_POINTS}")
    return GridSpec(axes)


def _check_trials(trials: int, run: str) -> None:
    if trials > MAX_TRIALS:
        raise BadParams(f"--trials asks for {trials}; a {run} takes at most "
                        f"{MAX_TRIALS}")


_MODEL_FLAGS = ("builtin", "params", "expr", "kind")


def _add_model_flags(p: argparse.ArgumentParser, prefix: str = "",
                     kinds: tuple[Kind, ...] = tuple(Kind),
                     builtin_kinds: tuple[Kind, ...] | None = None) -> None:
    """The model flags; ``kinds`` are the choices of the kind flag, and
    the builtin help names the builtins of ``builtin_kinds`` (default
    ``kinds``), the ones that run there, unless those are all."""
    dash = f"--{prefix}"
    builtin_kinds = kinds if builtin_kinds is None else builtin_kinds
    names = ("" if builtin_kinds == tuple(Kind)
             else f"{', '.join(builtin_names(builtin_kinds))}; ")
    p.add_argument(f"{dash}builtin", default=None, metavar="NAME",
                   help=f"builtin model name ({names}`cewave "
                        "--list-builtins` lists every builtin)")
    p.add_argument(f"{dash}params", default=None, metavar="P1,P2",
                   help="comma-separated parameters for the builtin")
    p.add_argument(f"{dash}expr", default=None, metavar="TEXT",
                   help="model expression text")
    p.add_argument(f"{dash}kind", default=None,
                   choices=[k.value for k in kinds],
                   help=f"invariant signature of {dash}expr")


def _model_flags(args, prefix: str = "") -> list:
    """The values of the model flags that _add_model_flags(p, prefix)
    added, in _MODEL_FLAGS order."""
    dest = prefix.replace("-", "_")
    return [getattr(args, dest + flag) for flag in _MODEL_FLAGS]


def _resolve_model(args, prefix: str = "") -> LagrangianModel:
    builtin_name, params, expr, kind = _model_flags(args, prefix)
    dash = f"--{prefix}"
    if builtin_name is not None and expr is not None:
        raise BadUsage(f"give either {dash}builtin or {dash}expr, not both")
    if builtin_name is not None:
        if kind is not None:
            raise BadUsage(f"{dash}kind applies to {dash}expr only, not to "
                           f"{dash}builtin")
        values = _parse_floats(params) if params else None
        return builtin(builtin_name, values)
    if expr is not None:
        if params is not None:
            raise BadUsage(f"{dash}params applies to {dash}builtin only, "
                           f"not to {dash}expr")
        if kind is None:
            raise BadUsage(f"{dash}expr needs {dash}kind")
        return from_expression(expr, kind)
    raise BadUsage(f"no model given; use {dash}builtin NAME or {dash}expr "
                   f"TEXT {dash}kind KIND")


def _check_tol(tol: float) -> float:
    if not tol > 0.0:
        raise BadParams(f"tolerance must be positive, got {tol:g}")
    if not math.isfinite(tol):
        raise BadParams(f"tolerance must be finite, got {tol:g}")
    return tol


def _rng(seed: int) -> np.random.Generator:
    """The generator that --seed names; numpy takes no negative seed."""
    if seed < 0:
        raise BadParams(f"--seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- ce check ---------------------------------------------------------------------------


def cmd_ce_check(args) -> int:
    model = _resolve_model(args)
    grid = None if args.grid is None else parse_grid(args.grid)
    report = classify(model, grid=grid, tol=_check_tol(args.tol))
    with open(args.out, "w") as fh:
        report.write_json(fh)
    print(f"{model.name}: {report.label} "
          f"(max residual {report.max_residual:.3e}) -> {args.out}")
    return 0


# --- fresnel scan ------------------------------------------------------------------------


def _usable(model: LagrangianModel, E: np.ndarray, B: np.ndarray,
            n: np.ndarray) -> list[FresnelBatch]:
    """The rows of (E, B, n) that have dispersion roots, as a list of
    batches; a row outside the model's domain, or without roots, is
    left out."""
    try:
        with DomainMask():
            batch = fresnel_batch(model, E, B, n)
    except FloatOverflow:
        # a power overflowing at one row raises for the whole stack, so
        # each row is solved alone to leave out only the rows it reaches
        if len(E) == 1:
            return []
        return [row for i in range(len(E))
                for row in _usable(model, E[i:i + 1], B[i:i + 1], n[i:i + 1])]
    except (InputError, NumericalError):
        # anything else fails at every row alike, such as a constant
        # outside the model's domain
        return []
    return [batch.take(batch.unusable == 0)]


def _fresnel_scan(model: LagrangianModel, trials: int,
                  rng: np.random.Generator) -> FresnelBatch:
    """The zero field along x1, unless it lies outside the model's
    domain, then ``trials`` usable random backgrounds.

    Each round draws one (E, B, nhat) row of uniforms on [-1, 1] per
    background still missing, the values that drawing E, B and nhat in
    turn gives, and solves the rows whose |nhat| >= 1e-3 along the unit
    normal the scan prints.  So every written background is solved once
    and none is drawn past the last one, and after 200 draws per trial
    the scan gives up.
    """
    zero = np.zeros((1, 3))
    found = _usable(model, zero, zero, np.array([[1.0, 0.0, 0.0]]))
    count = drawn = 0
    while count < trials:
        need = min(trials - count, 200 * trials - drawn)
        if need == 0:
            raise DegeneracyError("could not draw enough usable backgrounds "
                                  "for the dispersion scan")
        rows = rng.uniform(-1.0, 1.0, size=(need, 9))
        drawn += need
        rows = rows[np.sqrt(np.vecdot(rows[:, 6:], rows[:, 6:])) >= 1e-3]
        # normalized twice, as the unit normal has always been printed
        n = unit_rows(unit_rows(rows[:, 6:]))
        batches = _usable(model, rows[:, :3], rows[:, 3:6], n)
        count += sum(map(len, batches))
        found += batches
    return FresnelBatch.concat(found)


def cmd_fresnel(args) -> int:
    model = _resolve_model(args)
    _check_field_model(model)  # before the first draw
    if args.trials < 1:
        raise BadParams("--trials must be at least 1")
    _check_trials(args.trials, "fresnel scan")
    scan = _fresnel_scan(model, args.trials, _rng(args.seed))
    header, columns = fresnel_scan_rows(model, scan)
    write_scan_csv(args.out, header, columns)
    flagged = 4 * int(np.count_nonzero(scan.birefringent))
    print(f"{model.name}: {4 * len(scan)} roots over {len(scan)} backgrounds, "
          f"{flagged} birefringent rows -> {args.out}")
    return 0


# --- shock laboratory ----------------------------------------------------------------------


_PROFILES = {
    "sin": lambda: Profile1D.from_callable(np.sin, 0.0, 2.0 * np.pi,
                                           n=401, periodic=True),
    "linear": lambda: Profile1D.from_callable(lambda x: x, -2.0, 2.0,
                                              n=201),
    "step": lambda: Profile1D.from_callable(lambda x: -np.tanh(x),
                                            -5.0, 5.0, n=401),
}


def _stem(path: str) -> str:
    return path[:-5] if path.endswith(".json") else path


def cmd_shock(args) -> int:
    if args.profile not in _PROFILES:
        raise BadParams(f"unknown profile '{args.profile}'; expected one "
                        f"of {sorted(_PROFILES)}")
    profile = _PROFILES[args.profile]()
    t_list = _parse_floats(args.t_list)
    if not t_list:
        raise BadParams("--t-list needs at least one time")
    if not np.isfinite(t_list).all():
        raise BadParams("t values must be finite")
    if any(t < 0 for t in t_list):
        raise BadParams("t values must be nonnegative")
    if not np.isfinite(args.horizon):
        raise BadParams(f"--horizon must be finite, got {args.horizon:g}")
    if args.horizon < 0:
        raise BadParams(f"--horizon must be nonnegative, got "
                        f"{args.horizon:g}")
    model = None
    if any(value is not None for value in _model_flags(args, "model-")):
        model = _resolve_model(args, "model-")

    t_star = shock_time(lambda u: u, profile)
    t_cross = crossing_time(profile.u, profile.x, t_max=args.horizon)
    payload = {
        "schema": REPORT_SCHEMA,
        "report": "shock-summary",
        "profile": args.profile,
        "t_list": t_list,
        "horizon": args.horizon,
        "burgers": {"shock_time": t_star, "crossing_time": t_cross},
        "model": None,
    }

    stem = _stem(args.out)
    outputs = [args.out, f"{stem}_burgers.csv"]
    wave = model_crossing = None
    if model is not None:
        wave, model_crossing = model_wave(model, horizon=args.horizon)
        payload["model"] = {
            "t_list": t_list,
            "burgers_crossing": t_cross,
            "model": model.name,
            "model_crossing": model_crossing,
            "model_lam_variation": wave.lam_variation(),
            "horizon": args.horizon,
        }
        outputs.append(f"{stem}_model.csv")

    # the report is opened first: an --out that cannot be written leaves
    # no fan file behind
    with open(args.out, "w") as report:
        write_characteristics_csv(
            f"{stem}_burgers.csv", profile.x, profile.u,
            [profile.x + profile.u * t for t in t_list], t_list)
        if wave is not None:
            write_characteristics_csv(
                f"{stem}_model.csv", wave.phis, wave.lams,
                [wave.phis + wave.lams * t for t in t_list], t_list)
        report.write(_json_text(payload))
    print(f"profile={args.profile} shock_time={t_star} "
          f"model_crossing={model_crossing} -> {', '.join(outputs)}")
    return 0


# --- gravity kernel survey -------------------------------------------------------------------


def cmd_gravity(args) -> int:
    _check_trials(args.trials, "gravity survey")
    rng = _rng(args.seed)
    survey = kernel_survey(args.theory, args.D, args.trials, rng,
                           p=args.p, q=args.q, f2=args.fpp)
    payload = {"schema": REPORT_SCHEMA, "report": "gravity-kernel-survey"}
    payload.update(survey)
    with open(args.out, "w") as fh:
        fh.write(_json_text(payload))
    print(f"{args.theory} D={args.D}: null {survey['null_kernel_dims']} "
          f"nonnull {survey['nonnull_kernel_dims']} -> {args.out}")
    return 0


# --- ray tracing ---------------------------------------------------------------------------


def cmd_rays(args) -> int:
    E = _parse_floats(args.E, 3)
    B = _parse_floats(args.B, 3)
    nhat = np.array(_parse_floats(args.nhat, 3))
    bg = FieldBackground.vector(E, B)

    if args.cone:
        given = [f"--{flag}" for flag, value in
                 zip(_MODEL_FLAGS, _model_flags(args)) if value is not None]
        if given:
            raise BadUsage(f"--cone traces the metric cone and takes no "
                           f"model; drop {', '.join(given)}")
        H = ConeHamiltonian.metric()
        label = "metric-cone"
    else:
        model = _resolve_model(args)
        H = QuarticHamiltonian(model, bg)
        label = model.name
    if args.p0:
        p0 = np.array(_parse_floats(args.p0, 4))
    elif args.cone:
        p0 = np.array([-1.0, *unit_direction(nhat)])
    else:
        # fresnel_roots solves H((p0, n)) = 0 for p0 itself; the smallest
        # root is the fastest mode along n
        roots = fresnel_roots(model, bg, nhat).roots
        p0 = np.array([float(np.min(roots.real)), *unit_direction(nhat)])

    tol = _check_tol(args.tol)
    # an overflowing start gives a nan defect, and trace rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        defect = euler_defect(H, None, p0)
    if defect > EULER_DEFECT_TOL:
        raise InternalCheckError(
            f"{label}: p . dH/dp = {H.degree} H fails at the start "
            f"covector (relative defect {defect:.3e})")
    ray = trace(H, np.zeros(4), p0, s_max=args.s_max, step=args.step,
                tol=tol)
    write_ray_csv(args.out, ray)
    print(f"{label}: {len(ray.states)} states, drift {ray.drift:.3e} "
          f"-> {args.out}")
    return 0


# --- parser ---------------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one in the process, so in-process callers of main pay
    for its 50 add_argument calls once.  Callers must not mutate it.
    Each subparser binds its cmd_* handler when the parser is built;
    nothing rebinds those names, and the handlers look up the library
    functions they call at call time, so patching a library binding
    still reaches a shared parser."""
    parser = argparse.ArgumentParser(
        prog="cewave",
        description="Exceptional-wave analyses of nonlinear field models",
        epilog="`cewave --list-builtins` lists the builtin model names.")
    sub = parser.add_subparsers(dest="command", required=True)

    ce = sub.add_parser("ce", help="classification commands")
    ce_sub = ce.add_subparsers(dest="ce_command", required=True)
    check = ce_sub.add_parser("check",
                              help="classify a model over an invariant grid")
    _add_model_flags(check)
    check.add_argument("--grid", default=None,
                       help="axis spec 'a:lo:hi:n,b:lo:hi:n', at most "
                            f"{MAX_GRID_POINTS} points in all")
    check.add_argument("--tol", type=float, default=CE_TOL)
    check.add_argument("--out", default="ce_report.json")
    check.set_defaults(handler=cmd_ce_check)

    fres = sub.add_parser("fresnel",
                          help="scan quartic dispersion roots over "
                               "random backgrounds")
    # a model of another kind reaches the dispersion check and its message
    _add_model_flags(fres, builtin_kinds=FIELD_KINDS)
    fres.add_argument("--trials", type=int, default=50,
                      help=f"backgrounds to solve, at most {MAX_TRIALS}")
    fres.add_argument("--seed", type=int, default=DEFAULT_SEED)
    fres.add_argument("--out", default="fresnel.csv")
    fres.set_defaults(handler=cmd_fresnel)

    shock = sub.add_parser("shock",
                           help="characteristic fans and shock times")
    shock.add_argument("--profile", default="sin",
                       help="initial data: sin, linear, or step")
    shock.add_argument("--t-list", default="0.5,1.0,2.0,5.0",
                       help="comma-separated output times")
    shock.add_argument("--horizon", type=float, default=10.0)
    # the simple-wave fan runs scalar models only
    _add_model_flags(shock, "model-", kinds=(Kind.Scalar,))
    shock.add_argument("--out", default="shock_summary.json")
    shock.set_defaults(handler=cmd_shock)

    grav = sub.add_parser("gravity",
                          help="kernel survey of metric-discontinuity "
                               "operators")
    grav.add_argument("--theory", default="einstein",
                      choices=["einstein", "quadratic", "fr"])
    grav.add_argument("--trials", type=int, default=200,
                      help="null and non-null normal pairs to draw, at most "
                           f"{MAX_TRIALS}")
    grav.add_argument("--D", type=int, default=4)
    grav.add_argument("--p", type=float, default=1.0)
    grav.add_argument("--q", type=float, default=0.0)
    grav.add_argument("--fpp", type=float, default=1.0)
    grav.add_argument("--seed", type=int, default=DEFAULT_SEED)
    grav.add_argument("--out", default="gravity.json")
    grav.set_defaults(handler=cmd_gravity)

    rays = sub.add_parser("rays", help="trace a dispersion-surface ray")
    _add_model_flags(rays, builtin_kinds=FIELD_KINDS)
    rays.add_argument("--cone", action="store_true",
                      help="use the flat metric cone instead of a model")
    rays.add_argument("--E", default="0.3,0.0,0.0")
    rays.add_argument("--B", default="0.0,0.4,0.0")
    rays.add_argument("--nhat", default="1.0,0.0,0.0")
    rays.add_argument("--p0", default=None,
                      help="explicit start covector 'p0,p1,p2,p3'")
    rays.add_argument("--s-max", type=float, default=10.0,
                      help="ray parameter to reach, in at most "
                           f"{MAX_STEPS} steps of --step")
    rays.add_argument("--step", type=float, default=DEFAULT_STEP)
    rays.add_argument("--tol", type=float, default=RAY_TOL)
    rays.add_argument("--out", default="ray.csv")
    rays.set_defaults(handler=cmd_rays)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--list-builtins":
        for name in builtin_names():
            print(name)
        return 0
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"input error at offset {exc.offset}: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # the handlers open no file but their outputs
        print(f"input error: cannot write output: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
