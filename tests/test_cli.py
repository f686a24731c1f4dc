"""End-to-end checks of the command-line front end.

The tests drive ``main(argv)`` directly and inspect exit codes plus
the files it writes, so the process boundary (argparse, error-to-exit
mapping, serialization) is covered without spawning subprocesses; only
the check that importing the module builds no parser needs a fresh
interpreter.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from cewave import cli, gravity, rays, shock1d
from cewave.ce import classify
from cewave.cli import MAX_GRID_POINTS, MAX_TRIALS, main, parse_grid
from cewave.errors import BadParams
from cewave.lagrangians import Kind, builtin, builtin_names, from_expression
from oracles import fresnel_scan_per_draw


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- ce check -------------------------------------------------------------------------


def test_ce_check_born_infeld(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["ce", "check", "--builtin", "born-infeld", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["schema"] == "cewave-report/1"
    assert payload["label"] == "StronglyCE"
    assert payload["model"] == "born-infeld"
    assert "StronglyCE" in capsys.readouterr().out


def test_ce_check_expression_not_ce(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["ce", "check", "--expr=-a/2 + 0.1*a^2", "--kind", "alpha",
               "--out", str(out)])
    assert rc == 0
    assert _read_json(out)["label"] == "NotCE"


def test_ce_check_custom_grid(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["ce", "check", "--builtin", "born-infeld",
               "--grid", "a:-0.2:0.2:5,b:-0.2:0.2:5", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["label"] == "StronglyCE"
    assert payload["counts"]["evaluated"] == 25


def test_ce_check_parse_error_reports_offset(tmp_path, capsys):
    rc = main(["ce", "check", "--expr", "sqrt(", "--kind", "alpha",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "offset" in err


@pytest.mark.parametrize("expr, message", [
    ("1 + \u00e9", "input error at offset 4: unexpected character 'é'\n"),
    ("\u0661 + a", "input error at offset 0: unexpected character '١'\n"),
    # exponent literals: one that reads as infinity, one that overflows
    # when doubled
    ("a^1e999", "input error at offset 2: exponent must be an integer or "
                "half-integer literal\n"),
    ("2*a^-1e308", "input error at offset 5: exponent must be an integer "
                   "or half-integer literal\n"),
])
def test_ce_check_parse_error_names_the_offset_once(expr, message, tmp_path,
                                                   capsys):
    rc = main(["ce", "check", f"--expr={expr}", "--kind", "alpha",
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "r.json").exists()


def test_ce_check_power_overflow_exits_3(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["ce", "check", "--expr=(1e200*a)^2", "--kind", "alpha",
               "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical error: a power with exponent 2 "
                            "leaves the double range\n")
    assert not out.exists()


def test_ce_check_overflowing_values_print_no_warnings(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["ce", "check", "--expr=1e200*a*a*1e200", "--kind", "alpha",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (f"1e200*a*a*1e200: NotCE (max residual nan) "
                            f"-> {out}\n")


# The five large grids of the benchmark's classify-grid workload: a 2 MB
# strong-pass report, third-order residuals at every point, the
# birefringent branch, a vector-scalar model and a 10001-point scalar grid.
@pytest.mark.parametrize("model, flags, grid", [
    (("born-infeld", None), ["--builtin", "born-infeld"],
     "a:-0.5:2:101,b:-1:1:101"),
    (("-a/2 + 0.1*a^2 + 0.05*b^2", "alpha-beta"),
     ["--expr=-a/2 + 0.1*a^2 + 0.05*b^2", "--kind", "alpha-beta"],
     "a:-0.5:2:61,b:-1:1:61"),
    (("1 - sqrt(1 + a - 0.5*b^2)", "alpha-beta"),
     ["--expr=1 - sqrt(1 + a - 0.5*b^2)", "--kind", "alpha-beta"],
     "a:-0.5:2:61,b:-1:1:61"),
    (("1 - sqrt(1 + a - b^2) + 0.1*z^2 - z", "vector-scalar"),
     ["--expr=1 - sqrt(1 + a - b^2) + 0.1*z^2 - z", "--kind",
      "vector-scalar"], None),
    (("scalar-bi", None), ["--builtin", "scalar-bi"], "z:-0.45:0.45:10001"),
], ids=["born-infeld-101", "quadratic-61", "sqrt-ab-61", "vector-scalar",
        "scalar-bi-10001"])
def test_ce_check_writes_the_bytes_of_json_dumps(model, flags, grid,
                                                 tmp_path):
    out = tmp_path / "r.json"
    argv = ["ce", "check", *flags, "--out", str(out)]
    if grid is not None:
        argv += ["--grid", grid]
    assert main(argv) == 0
    text, kind = model
    report = classify(builtin(text) if kind is None
                      else from_expression(text, kind),
                      grid=parse_grid(grid) if grid else None)
    text = report.to_json_text()
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == hashlib.sha256(text.encode()).hexdigest())
    # the text is what json.dumps writes for the document it holds
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["ce", "check", "--builtin", "maxwell", "--grid", "a:0:1"],
    ["ce", "check", "--builtin", "maxwell", "--tol", "-1"],
    ["ce", "check", "--builtin", "maxwell", "--tol", "0"],
    ["ce", "check", "--builtin", "no-such-model"],
    ["ce", "check", "--builtin", "maxwell", "--expr", "a", "--kind", "alpha"],
    ["ce", "check"],
    ["ce", "check", "--expr", "a"],
    ["ce", "check", "--builtin", "maxwell", "--format", "csv"],
    ["ce", "check", "--builtin", "sqrt-family", "--params", "1.0"],
    # non-finite bounds, and bounds whose distance overflows
    ["ce", "check", "--builtin", "maxwell", "--grid", "a:nan:1:3"],
    ["ce", "check", "--builtin", "maxwell", "--grid", "a:0:inf:3"],
    ["ce", "check", "--builtin", "maxwell", "--grid", "a:-1e308:1e308:3"],
    # nothing in a classification is random
    ["ce", "check", "--builtin", "maxwell", "--seed", "1"],
    # letters outside ASCII: e with an acute accent, fullwidth a
    ["ce", "check", "--expr=1 + \u00e9", "--kind", "alpha"],
    ["ce", "check", "--expr=\uff41", "--kind", "alpha"],
])
def test_ce_check_input_errors_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("model, grid, message", [
    ("maxwell", "q:0:1:3",
     "grid has no axis 'a'; the model's invariants are a"),
    ("born-infeld", "a:0:1:3",
     "grid has no axis 'b'; the model's invariants are a, b"),
    ("maxwell", "a:0:1:3,q:0:1:2",
     "grid axis 'q' is not an invariant of the model (a)"),
    ("scalar-bi", "z:0:0.1:3,a:0:1:3",
     "grid axis 'a' is not an invariant of the model (z)"),
    # the last copy of a repeated axis used to replace the first
    ("maxwell", "a:0:1:3,a:5:6:3", "grid axis 'a' is given more than once"),
    # an empty value used to classify on the default grid
    ("maxwell", "", "grid axis '' is not name:lo:hi:n"),
    # a point count that is not an integer used to read as a bad bound
    ("maxwell", "a:0:1:3.0",
     "grid axis 'a' needs an integer point count, got '3.0'"),
    ("maxwell", "a:0:1:1e3",
     "grid axis 'a' needs an integer point count, got '1e3'"),
])
def test_ce_check_grid_needs_exactly_the_models_axes(model, grid, message,
                                                      tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["ce", "check", "--builtin", model, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_parse_grid():
    spec = parse_grid("a:-0.5:2:21,b:-1:1:3")
    assert spec.axes["a"] == (-0.5, 2.0, 21)
    assert spec.axes["b"] == (-1.0, 1.0, 3)


@pytest.mark.parametrize("text", ["a:0:1", "a:0:x:5", ":0:1:5", "a:0:1:0", "",
                                  "a:nan:1:3", "a:0:inf:3",
                                  "a:-1e308:1e308:3", "a:0:1:3,a:5:6:3",
                                  "a:0:1:3,b:0:1:3, a :0:1:3"])
def test_parse_grid_rejects(text):
    with pytest.raises(BadParams):
        parse_grid(text)


def test_parse_grid_bounds_the_point_count():
    side = math.isqrt(MAX_GRID_POINTS)
    assert parse_grid(f"a:0:1:{side},b:0:1:{side}").axes["b"][2] == side
    with pytest.raises(BadParams, match="--grid asks for"):
        parse_grid(f"a:0:1:{side},b:0:1:{side + 1}")
    with pytest.raises(BadParams, match="--grid asks for"):
        parse_grid(f"a:0:1:2,b:0:1:3,z:0:1:{MAX_GRID_POINTS // 6 + 1}")


def test_ce_check_oversized_grid_exits_2_at_once(tmp_path, capsys,
                                                 monkeypatch):
    # 10^10 points would ask for about 75 GiB
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    rc = main(["ce", "check", "--builtin", "born-infeld",
               "--grid", "a:0:1:100000,b:0:1:100000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert capsys.readouterr().err == (
        "input error: --grid asks for 10000000000 points; a ce check takes "
        f"at most {MAX_GRID_POINTS}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    # 10^15 ray states would take about 71 PiB
    (["rays", "--cone", "--s-max", "1e12", "--step", "1e-3"],
     "s_max / step (--s-max / --step) asks for 1e+15 steps; at most "
     f"{rays.MAX_STEPS} are taken"),
    # 10^11 trials would draw about 186 GiB of normals
    (["gravity", "--trials", "100000000000"],
     f"--trials asks for 100000000000; a gravity survey takes at most "
     f"{MAX_TRIALS}"),
    (["fresnel", "--builtin", "born-infeld", "--trials", "100000000000"],
     f"--trials asks for 100000000000; a fresnel scan takes at most "
     f"{MAX_TRIALS}"),
])
def test_over_bound_work_exits_2_at_once(argv, message, tmp_path, capsys,
                                         monkeypatch):
    monkeypatch.chdir(tmp_path)  # where each command's default --out goes
    start = time.perf_counter()
    rc = main(argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, runner", [
    (["gravity", "--D", "7"], "kernel_survey"),
    (["fresnel", "--builtin", "born-infeld"], "_fresnel_scan"),
])
def test_trials_bound_admits_the_bound_itself(argv, runner, monkeypatch):
    # the survey or scan is stubbed out, so no run at the bound is made
    class Reached(Exception):
        pass

    def stub(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, runner, stub)
    with pytest.raises(Reached):
        main([*argv, "--trials", str(MAX_TRIALS)])
    assert main([*argv, "--trials", str(MAX_TRIALS + 1)]) == 2


def test_shock_with_a_huge_integer_power_ends_at_once(tmp_path):
    # z^100000000 takes 37 jet products, where it took 10^8 - 1
    start = time.perf_counter()
    rc = main(["shock", "--model-expr", "1-sqrt(1+2*z)+z^100000000",
               "--model-kind", "scalar", "--out", str(tmp_path / "s.json")])
    assert time.perf_counter() - start < 1.0
    assert rc == 0

# --- fresnel scan ---------------------------------------------------------------------


def test_fresnel_born_infeld_never_birefringent(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["fresnel", "--builtin", "born-infeld", "--trials", "8",
               "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    header, data = rows[0], rows[1:]
    assert header == ["model", "Ex", "Ey", "Ez", "Bx", "By", "Bz",
                      "nx", "ny", "nz", "root_index", "p0",
                      "coincident_with", "birefringent_flag"]
    assert len(data) == 4 * 9
    flag = header.index("birefringent_flag")
    assert all(r[flag] == "false" for r in data)
    # the scan always leads with the zero-field background: light-cone
    # roots, pairwise coincident
    mate = header.index("coincident_with")
    for r in data[:4]:
        assert all(float(r[i]) == 0.0 for i in range(1, 7))
        assert abs(abs(float(r[header.index("p0")])) - 1.0) < 1e-9
        assert r[mate] != "-1"


def test_fresnel_perturbed_maxwell_flags_split_roots(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["fresnel", "--builtin", "perturbed-maxwell",
               "--params", "0.1", "--trials", "5", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    flag = rows[0].index("birefringent_flag")
    assert all(r[flag] == "false" for r in rows[1:5])
    assert any(r[flag] == "true" for r in rows[5:])


def test_fresnel_skips_zero_background_outside_domain(tmp_path):
    # alpha-over-beta needs b != 0, so the zero field is skipped like a
    # rejected random draw instead of aborting the scan
    out = tmp_path / "scan.csv"
    rc = main(["fresnel", "--builtin", "alpha-over-beta", "--trials", "6",
               "--out", str(out)])
    assert rc == 0
    assert len(_read_csv(out)) == 1 + 4 * 6


@pytest.mark.parametrize("model", [["--builtin", "perturbed-maxwell",
                                    "--params", "0.1"],
                                   ["--builtin", "alpha-over-beta"]])
def test_fresnel_solves_each_written_background_once(model, tmp_path,
                                                     monkeypatch):
    solved = []

    def counting(*args, **kwargs):
        batch = exact(*args, **kwargs)
        solved.append(int(np.count_nonzero(batch.unusable == 0)))
        return batch

    exact = cli.fresnel_batch
    monkeypatch.setattr(cli, "fresnel_batch", counting)
    out = tmp_path / "scan.csv"
    assert main(["fresnel", *model, "--trials", "7", "--out", str(out)]) == 0
    written = len(_read_csv(out)) - 1
    assert written % 4 == 0
    assert sum(solved) == written // 4


def test_fresnel_gives_up_after_200_draws_per_trial(tmp_path, capsys,
                                                    monkeypatch):
    # sqrt(a - 10) is undefined on every background the scan draws
    rows = []

    def counting(model, E, B, n):
        rows.append(len(E))
        return exact(model, E, B, n)

    exact = cli.fresnel_batch
    monkeypatch.setattr(cli, "fresnel_batch", counting)
    rc = main(["fresnel", "--expr", "sqrt(a - 10)", "--kind", "alpha",
               "--trials", "2", "--out", str(tmp_path / "scan.csv")])
    assert rc == 3
    assert "usable backgrounds" in capsys.readouterr().err
    assert sum(rows) == 1 + 200 * 2  # the zero field, then every draw


@pytest.mark.parametrize("model", [
    ["--builtin", "born-infeld"],
    ["--builtin", "sqrt-family", "--params", "0.2,1.6,0.5"],
    ["--builtin", "alpha-over-beta"],
    ["--expr", "-a/2 + 0.1*a^2 + 0.3*b^2", "--kind", "alpha-beta"],
    # a power that overflows at some rows raises for a whole stack
    ["--expr", "a^1500.5", "--kind", "alpha"],
    ["--expr", "1e200*a*b^2", "--kind", "alpha-beta"],
    # non-finite coefficients at every background
    ["--expr", "1e300*a^2", "--kind", "alpha"],
])
def test_fresnel_scan_writes_the_bytes_of_the_per_draw_loop(model, tmp_path,
                                                            capsys):
    out = tmp_path / "scan.csv"
    rc = main(["fresnel", *model, "--trials", "12", "--seed", "5",
               "--out", str(out)])
    capsys.readouterr()
    want = fresnel_scan_per_draw(cli._resolve_model(
        cli.build_parser().parse_args(["fresnel", *model])), 12, 5)
    if want is None:
        assert rc == 3 and not out.exists()
    else:
        assert rc == 0 and out.read_bytes() == want


def test_fresnel_skips_backgrounds_with_non_finite_coefficients(tmp_path,
                                                                capsys):
    # K, P and R overflow on every background; RuntimeWarnings are errors
    out = tmp_path / "scan.csv"
    rc = main(["fresnel", "--expr", "1e300*a^2", "--kind", "alpha",
               "--trials", "3", "--seed", "1", "--out", str(out)])
    assert rc == 3
    assert "usable backgrounds" in capsys.readouterr().err
    assert not out.exists()


def test_fresnel_gives_up_when_every_row_fails_alike(tmp_path, capsys):
    # sqrt(0 - 1) is outside the domain at every background, so each
    # batch raises as a whole and no row is kept
    out = tmp_path / "scan.csv"
    rc = main(["fresnel", "--expr", "sqrt(0 - 1) + a", "--kind", "alpha",
               "--trials", "2", "--out", str(out)])
    assert rc == 3
    assert "could not draw enough usable backgrounds" in capsys.readouterr().err
    assert not out.exists()


def test_rays_start_with_non_finite_coefficients_exits_3(tmp_path, capsys):
    out = tmp_path / "ray.csv"
    rc = main(["rays", "--expr", "1e300*a^2", "--kind", "alpha",
               "--E", "0.3,0,0", "--B", "0,0.4,0", "--out", str(out)])
    assert rc == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", [["--builtin", "scalar-bi"],
                                   ["--expr", "z^2", "--kind", "scalar"]])
def test_fresnel_rejects_a_scalar_model_before_drawing(model, tmp_path,
                                                       capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_rng", lambda seed: calls.append("rng"))
    monkeypatch.setattr(cli, "fresnel_batch",
                        lambda *args: calls.append("solve"))
    out = tmp_path / "scan.csv"
    rc = main(["fresnel", *model, "--trials", "5", "--out", str(out)])
    assert rc == 2
    assert ("dispersion quartic needs a field-strength model"
            in capsys.readouterr().err)
    assert not out.exists()
    assert calls == []


def test_fresnel_rejects_zero_trials(capsys):
    assert main(["fresnel", "--builtin", "maxwell", "--trials", "0"]) == 2
    capsys.readouterr()


# --- shock ----------------------------------------------------------------------------


def test_shock_default_sine(tmp_path):
    out = tmp_path / "s.json"
    rc = main(["shock", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["schema"] == "cewave-report/1"
    assert payload["report"] == "shock-summary"
    assert payload["profile"] == "sin"
    assert payload["model"] is None
    assert abs(payload["burgers"]["shock_time"] - 1.0) < 0.02
    assert abs(payload["burgers"]["crossing_time"] - 1.0) < 0.02
    fan = _read_csv(tmp_path / "s_burgers.csv")
    assert fan[0] == ["phi", "lam", "x_t0.5", "x_t1.0", "x_t2.0", "x_t5.0"]
    assert len(fan) == 402


def test_shock_linear_profile_never_breaks(tmp_path):
    out = tmp_path / "s.json"
    rc = main(["shock", "--profile", "linear", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["burgers"]["shock_time"] is None
    assert payload["burgers"]["crossing_time"] is None


def test_shock_with_exceptional_model(tmp_path):
    out = tmp_path / "s.json"
    rc = main(["shock", "--model-builtin", "scalar-bi", "--t-list", "0.5,1.0",
               "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    block = payload["model"]
    assert block["model"] == "scalar-bi"
    assert block["model_crossing"] is None
    assert block["model_lam_variation"] < 1e-8
    fan = _read_csv(tmp_path / "s_model.csv")
    assert fan[0][:2] == ["phi", "lam"]
    assert len(fan) == 202


@pytest.mark.parametrize("profile", ["sin", "linear", "step"])
def test_shock_with_a_model_builds_one_burgers_fan(profile, tmp_path,
                                                   monkeypatch):
    # one crossing time for the Burgers fan and one for the model's
    # simple wave, counted at every binding of each function
    calls = {"crossing_time": 0, "simple_wave_construct": 0}
    package = [m for n, m in sys.modules.items()
               if n == "cewave" or n.startswith("cewave.")]
    patched = set()
    for name, fn in (("crossing_time", rays.crossing_time),
                     ("simple_wave_construct",
                      shock1d.simple_wave_construct)):

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in package:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
                    patched.add((module.__name__, attr))
    assert {("cewave.cli", "crossing_time"),
            ("cewave.shock1d", "crossing_time"),
            ("cewave.shock1d", "simple_wave_construct")} <= patched

    out = tmp_path / "s.json"
    assert main(["shock", "--profile", profile, "--model-builtin",
                 "scalar-bi", "--out", str(out)]) == 0
    assert calls == {"crossing_time": 2, "simple_wave_construct": 1}
    payload = _read_json(out)
    assert (payload["model"]["burgers_crossing"]
            == payload["burgers"]["crossing_time"])


@pytest.mark.parametrize("argv", [
    ["shock", "--profile", "sawtooth"],
    ["shock", "--t-list", "0.5,-1.0"],
    ["shock", "--t-list", "abc"],
    ["shock", "--format", "csv"],
    ["shock", "--horizon", "nan"],
    ["shock", "--horizon", "inf"],
    ["shock", "--horizon=-1"],
    # times must be finite, and there must be at least one
    ["shock", "--t-list", "nan"],
    ["shock", "--t-list", "0.5,inf"],
    ["shock", "--t-list", ","],
])
def test_shock_input_errors_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


_NO_MODEL = ("no model given; use --{0}builtin NAME or --{0}expr TEXT "
             "--{0}kind KIND")


@pytest.mark.parametrize("argv, message", [
    (["ce", "check", "--expr", "a"], "--expr needs --kind"),
    (["ce", "check", "--builtin", "maxwell", "--expr", "a"],
     "give either --builtin or --expr, not both"),
    (["ce", "check"], _NO_MODEL.format("")),
    (["rays", "--params", "0.1"], _NO_MODEL.format("")),
    (["shock", "--model-expr", "1 - sqrt(1 + 2*z)"],
     "--model-expr needs --model-kind"),
    (["shock", "--model-builtin", "scalar-bi", "--model-expr", "z"],
     "give either --model-builtin or --model-expr, not both"),
    # any model flag asks for a model, even an empty expression
    (["shock", "--model-expr", ""], "--model-expr needs --model-kind"),
    (["shock", "--model-params", "0.1"], _NO_MODEL.format("model-")),
    (["shock", "--model-kind", "scalar"], _NO_MODEL.format("model-")),
    # parameters belong to builtins; an expression would drop them
    (["ce", "check", "--expr", "a", "--kind", "alpha", "--params", "1"],
     "--params applies to --builtin only, not to --expr"),
    (["shock", "--model-expr", "1 - sqrt(1 + 2*z)", "--model-kind",
      "scalar", "--model-params", "1"],
     "--model-params applies to --model-builtin only, not to --model-expr"),
    # a builtin has its own kind
    (["ce", "check", "--builtin", "maxwell", "--kind", "scalar"],
     "--kind applies to --expr only, not to --builtin"),
    (["shock", "--model-builtin", "scalar-bi", "--model-kind", "scalar"],
     "--model-kind applies to --model-expr only, not to --model-builtin"),
    # the metric cone takes no model, not even an unknown one
    (["rays", "--cone", "--builtin", "no-such"],
     "--cone traces the metric cone and takes no model; drop --builtin"),
    (["rays", "--cone", "--expr", "a", "--kind", "alpha"],
     "--cone traces the metric cone and takes no model; drop --expr, "
     "--kind"),
])
def test_model_flag_errors_name_the_commands_flags(argv, message, tmp_path,
                                                   capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {message}\n"
    assert captured.out == ""
    # the model is resolved before anything is written
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["alpha", "alpha-beta", "vector-scalar"])
def test_shock_offers_scalar_models_only(kind, tmp_path, capsys,
                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["shock", "--model-expr", "a", "--model-kind", kind]) == 2
    err = capsys.readouterr().err
    assert f"--model-kind: invalid choice: '{kind}'" in err
    assert "(choose from 'scalar')" in err
    assert list(tmp_path.iterdir()) == []
    assert main(["shock", "--help"]) == 0
    assert "--model-kind {scalar}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["ce", "check", "--help"],
                                  ["fresnel", "--help"], ["rays", "--help"],
                                  ["shock", "--help"]])
def test_help_names_the_list_builtins_command(argv, capsys):
    # the flag works only in front of every subcommand
    assert main(argv) == 0
    assert "`cewave --list-builtins`" in " ".join(
        capsys.readouterr().out.split())


def test_shock_help_lists_exactly_the_scalar_builtins(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # one line per option
    assert main(["shock", "--help"]) == 0
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.lstrip().startswith("--model-builtin NAME")]
    listed = line.split("builtin model name (")[1].split(";")[0].split(", ")
    assert listed == ["scalar-bi", "scalar-maxwell"]
    assert all(builtin(name).kind is Kind.Scalar for name in listed)
    field_kinds = tuple(kind for kind in Kind if kind is not Kind.Scalar)
    assert (sorted(builtin_names(field_kinds) + tuple(listed))
            == list(builtin_names()))


_FIELD_BUILTINS = ["alpha-over-beta", "born-infeld", "maxwell",
                   "perturbed-maxwell", "sqrt-family"]


@pytest.mark.parametrize("command", ["rays", "fresnel"])
def test_quartic_help_lists_exactly_the_field_builtins(command, capsys,
                                                       monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # one line per option
    assert main([command, "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    line, = [line for line in lines
             if line.lstrip().startswith("--builtin NAME")]
    listed = line.split("builtin model name (")[1].split(";")[0].split(", ")
    assert listed == _FIELD_BUILTINS
    assert (sorted(builtin_names((Kind.Scalar,)) + tuple(listed))
            == list(builtin_names()))
    # the kind flag still offers every kind: a scalar --expr reaches the
    # dispersion check and its message, not an argparse error
    kind_line, = [line for line in lines
                  if line.lstrip().startswith("--kind {")]
    assert kind_line.split("{")[1].split("}")[0].split(",") == [
        kind.value for kind in Kind]


@pytest.mark.parametrize("command", ["rays", "fresnel"])
@pytest.mark.parametrize("model", [["--builtin", "scalar-bi"],
                                   ["--builtin", "scalar-maxwell"],
                                   ["--expr", "z^2", "--kind", "scalar"]])
def test_quartic_commands_name_the_field_builtins_on_a_scalar_model(
        command, model, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, *model, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: dispersion quartic needs a "
                          "field-strength model")
    assert err.rstrip().endswith("such as the builtins "
                                 + ", ".join(_FIELD_BUILTINS))
    assert not out.exists()


@pytest.mark.parametrize("model", [
    ["maxwell"], ["born-infeld"], ["alpha-over-beta"],
    ["perturbed-maxwell", "--model-params", "0.1"],
    ["sqrt-family", "--model-params", "0,1,1"],
])
def test_shock_field_builtin_exits_2_naming_the_scalar_builtins(
        model, tmp_path, capsys):
    rc = main(["shock", "--model-builtin", *model,
               "--out", str(tmp_path / "s.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("input error")
    assert err.rstrip().endswith("such as the builtins scalar-bi, "
                                 "scalar-maxwell")
    assert list(tmp_path.iterdir()) == []


def test_shock_empty_model_expression_exits_2(tmp_path, capsys):
    rc = main(["shock", "--model-expr", "", "--model-kind", "scalar",
               "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model", [[], ["--model-builtin", "scalar-bi"]])
def test_shock_unwritable_out_writes_no_file(model, tmp_path, capsys):
    out = tmp_path / "fan"
    out.mkdir()
    assert main(["shock", *model, "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["fan"]
    assert list(out.iterdir()) == []


def test_shock_failing_model_fan_writes_no_file(tmp_path, capsys):
    # sqrt(z) leaves its domain on the model fan, after the Burgers fan
    rc = main(["shock", "--model-expr", "sqrt(z)", "--model-kind", "scalar",
               "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error")
    assert list(tmp_path.iterdir()) == []


# --- gravity --------------------------------------------------------------------------


def test_gravity_einstein_survey(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["gravity", "--theory", "einstein", "--trials", "20",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["schema"] == "cewave-report/1"
    assert payload["report"] == "gravity-kernel-survey"
    assert payload["theory"] == "einstein"
    assert payload["D"] == 4
    assert payload["null_kernel_dims"] == {"6": 20}
    assert payload["nonnull_kernel_dims"] == {"0": 20}


def test_gravity_quadratic_special_couplings(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["gravity", "--theory", "quadratic", "--p", "3", "--q", "1",
               "--trials", "10", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert payload["p"] == 3.0
    assert payload["q"] == 1.0
    assert payload["nonnull_kernel_dims"] == {"1": 10}


@pytest.mark.parametrize("D", ["4", "7"])
def test_gravity_quadratic_p_twice_q(D, tmp_path):
    # p = 2q is below the conformal ratio 4(D-1)/D, so non-null normals
    # leave no kernel; the null dims are set by the rounding of Q and are
    # not asserted
    out = tmp_path / "g.json"
    rc = main(["gravity", "--theory", "quadratic", "--p", "2", "--q", "1",
               "--D", D, "--trials", "40", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    assert sum(payload["null_kernel_dims"].values()) == 40
    assert sum(payload["nonnull_kernel_dims"].values()) == 40
    assert payload["nonnull_kernel_dims"] == {"0": 40}


def test_gravity_fr_dimension_five(tmp_path):
    out = tmp_path / "g.json"
    rc = main(["gravity", "--theory", "fr", "--D", "5", "--trials", "10",
               "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    # sym dim 15 in five dimensions: null kernel 15-5, non-null one less
    assert payload["null_kernel_dims"] == {"10": 10}
    assert payload["nonnull_kernel_dims"] == {"9": 10}


def test_gravity_rejects_zero_trials(capsys):
    assert main(["gravity", "--trials", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("D", ["1", "0", "3"])
def test_gravity_low_dimension_exits_2(D, tmp_path, capsys, monkeypatch):
    class NoDrawRng:
        def uniform(self, *args, **kwargs):
            pytest.fail("the survey drew a normal before checking D")

    monkeypatch.setattr(cli.np.random, "default_rng",
                        lambda seed: NoDrawRng())
    rc = main(["gravity", "--D", D, "--trials", "1",
               "--out", str(tmp_path / "g.json")])
    assert rc == 2
    assert "D >= 4" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("argv", [
    ["--theory", "quadratic", "--p", "nan"],
    ["--theory", "quadratic", "--p", "inf", "--q", "1"],
    ["--theory", "fr", "--fpp", "inf"],
])
def test_gravity_non_finite_coupling_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gravity", *argv, "--trials", "1", "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--theory", "fr", "--fpp", "1e200"],
    ["--theory", "fr", "--fpp", "1e-200"],
    ["--theory", "fr", "--fpp", "1e308"],
    ["--theory", "quadratic", "--p", "1e160", "--q", "0"],
    ["--theory", "quadratic", "--p", "1e-200", "--q", "0"],
])
def test_gravity_couplings_whose_rows_leave_the_range_exit_3(argv, tmp_path,
                                                            capsys):
    out = tmp_path / "g.json"
    assert main(["gravity", *argv, "--D", "4", "--trials", "5", "--seed",
                 "3", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical error: an operator row's norm leaves the double range")
    assert not out.exists()


def test_gravity_einstein_ignores_couplings(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gravity", "--p", "nan", "--fpp", "inf", "--trials", "2",
                 "--out", str(out)]) == 0
    assert _read_json(out)["null_kernel_dims"] == {"6": 2}


def test_gravity_broken_gauge_invariance_exits_4(tmp_path, capsys,
                                                 monkeypatch):
    # Einstein rows must annihilate the pure-gauge modes phi xi + xi phi;
    # a corrupted tensor trips the internal check
    exact = gravity.einstein_tensor_disc
    monkeypatch.setattr(gravity, "einstein_tensor_disc",
                        lambda phi, P, at=None: exact(phi, P, at)
                        + 1e-3 * gravity._entries(P, at))
    rc = main(["gravity", "--theory", "einstein", "--trials", "3",
               "--out", str(tmp_path / "g.json")])
    assert rc == 4
    assert "pure-gauge" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


# --- rays -----------------------------------------------------------------------------


def test_rays_metric_cone_straight_line(tmp_path):
    out = tmp_path / "ray.csv"
    rc = main(["rays", "--cone", "--s-max", "1.0", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert rows[0] == ["s", "x0", "x1", "x2", "x3",
                       "p0", "p1", "p2", "p3", "H"]
    assert len(rows) == 102
    last = [float(v) for v in rows[-1]]
    assert abs(last[1] - 2.0) < 1e-12
    assert abs(last[2] - 2.0) < 1e-12
    assert all(abs(float(r[-1])) < 1e-12 for r in rows[1:])


@pytest.mark.parametrize("background", [
    [],
    # Poynting flux along nhat: the dispersion roots are not +- pairs
    ["--E=0.31,-0.2,0.1", "--B=0.1,0.4,0.2", "--nhat=0.41,0.6,-0.1"],
], ids=["default-background", "poynting-flux"])
def test_rays_born_infeld_default_start(background, tmp_path, capsys):
    out = tmp_path / "ray.csv"
    rc = main(["rays", "--builtin", "born-infeld", "--s-max", "2.0",
               "--out", str(out)] + background)
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 202
    assert all(abs(float(row[-1])) <= 1e-9 for row in rows[1:])
    if not background:
        assert "drift 0.000e+00" in capsys.readouterr().out


@pytest.mark.parametrize("model", [["--builtin", "scalar-bi"],
                                   ["--expr", "z^2", "--kind", "scalar"]])
def test_rays_rejects_a_scalar_model(model, tmp_path, capsys):
    out = tmp_path / "ray.csv"
    rc = main(["rays", *model, "--out", str(out)])
    assert rc == 2
    assert ("dispersion quartic needs a field-strength model"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("model", [["--cone"], ["--builtin", "born-infeld"]])
def test_rays_broken_euler_identity_exits_4(model, tmp_path, capsys,
                                            monkeypatch):
    # p . dH/dp = N H holds for every homogeneous dispersion function; a
    # corrupted gradient trips the check before any file is written
    for cls in (rays.ConeHamiltonian, rays.QuarticHamiltonian):
        monkeypatch.setattr(cls, "grad_p",
                            lambda self, x, p, exact=cls.grad_p:
                            exact(self, x, p) + 1e-3 * p)
    out = tmp_path / "ray.csv"
    assert main(["rays", *model, "--out", str(out)]) == 4
    assert "internal check failed" in capsys.readouterr().err
    assert not out.exists()


def test_rays_step_pointing_away_from_s_max_exits_2(tmp_path, capsys):
    out = tmp_path / "ray.csv"
    rc = main(["rays", "--cone", "--nhat=1,0,0", "--s-max", "1",
               "--step", "-0.01", "--out", str(out)])
    assert rc == 2
    assert "the step must have the sign of s_max" in capsys.readouterr().err
    assert not out.exists()


def test_rays_off_shell_start_exit_3(tmp_path, capsys):
    rc = main(["rays", "--cone", "--p0=-2,1,0,0",
               "--out", str(tmp_path / "ray.csv")])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rays", "--cone", "--p0", "1,2,3"],
    ["rays", "--cone", "--E", "0.1,0.2"],
    ["rays", "--cone", "--tol", "-1e-9"],
    ["rays", "--builtin", "born-infeld", "--format", "json"],
    ["rays"],
    ["rays", "--cone", "--s-max", "inf"],
    ["rays", "--cone", "--s-max", "nan"],
    ["rays", "--cone", "--step", "0"],
    ["rays", "--builtin", "born-infeld", "--step", "nan"],
    # the default start covector needs a nonzero, finite direction
    ["rays", "--cone", "--nhat", "0,0,0"],
    ["rays", "--cone", "--nhat", "nan,0,0"],
    ["rays", "--builtin", "born-infeld", "--nhat", "0,0,0"],
    ["rays", "--builtin", "born-infeld", "--nhat", "nan,0,0"],
])
def test_rays_input_errors_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    # StronglyCE at an infinite tolerance, NotCE at the default
    ["ce", "check", "--expr=-a/2 + 0.1*a^2", "--kind", "alpha"],
    # an off-cone start, |H| = 171
    ["rays", "--builtin", "born-infeld", "--p0=-5,1,0,0"],
])
def test_infinite_tolerance_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--tol", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: tolerance must be finite, got inf\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# --- seeds and outputs ----------------------------------------------------------------


@pytest.mark.parametrize("argv, seed", [
    (["fresnel", "--builtin", "maxwell"], "-1"),
    (["gravity"], "-5"),
])
def test_negative_seed_exits_2(argv, seed, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: --seed must be nonnegative, got " \
                           f"{seed}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["ce", "check", "--builtin", "maxwell"],
    ["fresnel", "--builtin", "maxwell", "--trials", "2"],
    ["shock"],
    ["gravity", "--trials", "1"],
    ["rays", "--cone", "--s-max", "0.1"],
], ids=lambda argv: argv[0])
def test_output_in_a_missing_directory_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: cannot write output: "
                                   "[Errno 2] No such file or directory")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# --- one parser per process -----------------------------------------------------------

# every subcommand, parse errors, --help at the top and at subcommands, a
# handler that exits 3, and --list-builtins, with their exit codes
_MIXED_SEQUENCE = [
    (["ce", "check", "--builtin", "born-infeld", "--out", "r.json"], 0),
    (["--help"], 0),
    (["gravity", "--D", "five"], 2),
    (["fresnel", "--builtin", "born-infeld", "--trials", "3",
      "--out", "f.csv"], 0),
    (["rays", "--cone", "--p0=-2,1,0,0", "--out", "bad.csv"], 3),
    (["shock", "--profile", "linear", "--t-list", "0.5", "--out",
      "s.json"], 0),
    (["--list-builtins"], 0),
    (["gravity", "--help"], 0),
    (["gravity", "--theory", "quadratic", "--p", "3", "--q", "1",
      "--trials", "4", "--out", "g.json"], 0),
    (["no-such-command"], 2),
    (["rays", "--builtin", "born-infeld", "--s-max", "0.5", "--out",
      "ray.csv"], 0),
    (["ce", "check", "--help"], 0),
    (["shock", "--model-builtin", "scalar-bi", "--t-list", "0.5,1.0",
      "--out", "m.json"], 0),
]


def _outcome(argv, where, capsys, monkeypatch):
    """What parsing argv and running main(argv) in the directory where
    give: the parsed namespace (or parse exit code) with its output, the
    exit code of main, its stdout and stderr, and the files it wrote."""
    where.mkdir(parents=True)
    monkeypatch.chdir(where)
    try:
        parsed = vars(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        parsed = exc.code
    parse_output = capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in where.iterdir()}
    return parsed, parse_output, rc, captured.out, captured.err, files


def test_one_parser_serves_a_process_as_a_fresh_one_would(tmp_path, capsys,
                                                          monkeypatch):
    cli.build_parser.cache_clear()
    sequence = _MIXED_SEQUENCE * 2  # reused after errors, help and exits
    shared = [_outcome(argv, tmp_path / "shared" / str(i), capsys,
                       monkeypatch)
              for i, (argv, _) in enumerate(sequence)]
    assert cli.build_parser.cache_info().misses == 1
    assert [outcome[2] for outcome in shared] == [rc for _, rc in sequence]
    with monkeypatch.context() as fresh_parsers:
        fresh_parsers.setattr(cli, "build_parser",
                              cli.build_parser.__wrapped__)
        fresh = [_outcome(argv, tmp_path / "fresh" / str(i), capsys,
                          monkeypatch)
                 for i, (argv, _) in enumerate(sequence)]
    for argv_rc, one, other in zip(sequence, shared, fresh):
        assert one == other, argv_rc[0]
    helps = [outcome[3] for outcome, (argv, _) in zip(shared, sequence)
             if "--help" in argv]
    assert all(text.startswith("usage: cewave") for text in helps)


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first main call, not at import
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import cewave.cli\n"
            "print(len(built))\n"
            "cewave.cli.main(['--help'])\n"
            "print(len(built) > 0)\n")
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "0"
    assert lines[-1] == "True"


# --- determinism and top-level dispatch -----------------------------------------------


def test_fixed_seed_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["fresnel", "--builtin", "born-infeld", "--trials", "5",
                   "--seed", "42", "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()

    ga, gb = tmp_path / "ga.json", tmp_path / "gb.json"
    for path in (ga, gb):
        rc = main(["gravity", "--theory", "quadratic", "--p", "3", "--q", "1",
                   "--trials", "10", "--seed", "9", "--out", str(path)])
        assert rc == 0
    assert ga.read_bytes() == gb.read_bytes()


def test_different_seed_changes_scan(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["fresnel", "--builtin", "maxwell", "--trials", "5",
          "--seed", "1", "--out", str(a)])
    main(["fresnel", "--builtin", "maxwell", "--trials", "5",
          "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_list_builtins(capsys):
    assert main(["--list-builtins"]) == 0
    names = capsys.readouterr().out.split()
    assert names == sorted(names)
    assert "born-infeld" in names and "sqrt-family" in names
    assert len(names) == 7


def test_unknown_subcommand_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
