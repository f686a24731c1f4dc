"""Output bytes frozen against recorded sha256 digests.

The digests were recorded before the simple-wave, upwind and CSV kernels
were rewritten for speed, the fresnel scans before the scan was solved
as one batch, the two shock runs whose speed varies along the wave
before simple waves kept their eigen-data as floats, the shock run
with float operands before the jet rules took floats without a constant
jet, the transport arrays before the transport loop wrote its RK4
stages out on floats, the upwind arrays of the step profile before each
Godunov step evaluated the flux once per cell, the ``ce check`` reports
of two expression models before parsed expressions were evaluated as
closures, two larger reports and a longer ray before reports and float
CSVs were written in row blocks, four gravity surveys before their normals were drawn,
checked and contracted as arrays, and a 1204-row fresnel scan before one
writer spelled every CSV column by its dtype, so these tests pin the rewritten code
to the bytes of the code it replaced.  The ``a^700`` fresnel scan was
re-recorded when integer jet powers became square-and-multiply.
They were recorded with numpy 2.4
(OpenBLAS) on x86-64; the eigen solves of a simple wave go through
LAPACK, whose last bits may differ on another build.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from cewave.cli import main
from cewave.rays import TransportState, transport_amplitude
from cewave.shock1d import Profile1D, upwind_solve

_SQRT_Z = "-0.727 - 1.247*sqrt(1.153 + 1.608*z)"

_CASES = {
    "shock-step-sqrt-z": (
        ["shock", "--profile", "step", "--model-expr", _SQRT_Z,
         "--model-kind", "scalar", "--out", "{dir}/fan.json"],
        {"fan.json": "15ba444ab1dcaa9d1e133ca34537870c"
                     "d07faf3f2fc0beea4eb38627a063e3cc",
         "fan_burgers.csv": "c419d776362f8e53eec0522771263efc"
                            "509b67f84f4bb69b839696348e26157f",
         "fan_model.csv": "e5d78a67d2fcdc5dfc62a73cb24c8b70"
                          "a77c5d287499fa53243c9318db088533"}),
    "shock-scalar-bi": (
        ["shock", "--model-builtin", "scalar-bi", "--out", "{dir}/fan.json"],
        {"fan.json": "22382243d4566ae9f8cfeeff1e03b1f6"
                     "4db1552f7cf5f1aef1b7ca110a8c40b6",
         "fan_burgers.csv": "663238afaa6180b958949f7f1318b6fa"
                            "5c4d394f66d8d0f2a0fac39961c82a4c",
         "fan_model.csv": "006fcb754ff8c0dab5b623d20eeb7e63"
                          "b9132554d6779ad2fe5279b4d27ecb11"}),
    # speeds that vary along the wave: the model fan folds at
    # 0.8670062498710356
    "shock-quadratic": (
        ["shock", "--model-expr", "z^2", "--model-kind", "scalar", "--out",
         "{dir}/fan.json"],
        {"fan.json": "cda6a72f9ef42b5c28a41b905b942fdf"
                     "0394925d5563799d56788c96d8c7b55e",
         "fan_burgers.csv": "663238afaa6180b958949f7f1318b6fa"
                            "5c4d394f66d8d0f2a0fac39961c82a4c",
         "fan_model.csv": "abb97677214b17955e6194ac1438fcbb"
                          "1ac202b64f6287c077e1ab1fc9088f86"}),
    "shock-linear-cubic": (
        ["shock", "--profile", "linear", "--t-list", "0.25,0.75,1.5",
         "--model-expr=-z^3", "--model-kind", "scalar", "--out",
         "{dir}/fan.json"],
        {"fan.json": "8bd798b52b64c23664bbe88254118261"
                     "32b88fd2c423970d010aebafdd1ff23c",
         "fan_burgers.csv": "be9896aad3beca2300fdb937c0ff1ced"
                            "f897983b29483ad0c1b0813ad8d79f6b",
         "fan_model.csv": "4c7e8b21dc38736fcb44137e091728d5"
                          "c46ce661f8c60d10cdea18dde6c40f30"}),
    # float operands on every side of the jet rules: jet / c, jet - c,
    # jet + c, c / jet, c - jet and jet * c
    "shock-float-operands": (
        ["shock", "--model-expr", "z/2 - 0.25 + (0.5 - 1/(z + 3))*0.8",
         "--model-kind", "scalar", "--out", "{dir}/fan.json"],
        {"fan.json": "be6668df6a0a9f721e6efd3785b9c1b6"
                     "4a5abba3fd6531d2cc30aca1fe134033",
         "fan_burgers.csv": "663238afaa6180b958949f7f1318b6fa"
                            "5c4d394f66d8d0f2a0fac39961c82a4c",
         "fan_model.csv": "cd1a4da22734094ffe5ee748b58f376d"
                          "61cd315735848e79b1c5175fff300f20"}),
    # the README ray: 1001 states
    "rays-born-infeld": (
        ["rays", "--builtin", "born-infeld", "--E", "0.3,0,0", "--B",
         "0,0.4,0", "--s-max", "10", "--out", "{dir}/ray.csv"],
        {"ray.csv": "e96c961dc711b94f7191c8ff0927dfef"
                    "6da017316e6efd9c5f6aabf895c02d12"}),
}


def _fresnel(model: list[str], digest: str):
    return (["fresnel", *model, "--trials", "60", "--seed", "11", "--out",
             "{dir}/scan.csv"], {"scan.csv": digest})


_CASES.update({
    "fresnel-perturbed-maxwell": _fresnel(
        ["--builtin", "perturbed-maxwell", "--params", "0.1"],
        "bac57e78b4aeea1ea450d528c02247411341da73c4dbafaf4a3f3fc1910c1bb6"),
    "fresnel-born-infeld": _fresnel(
        ["--builtin", "born-infeld"],
        "d6a5b3c6e9e1aa1c5be9cbfd41b8a4ccc320772a2dc824289ea3ba30d189dc5c"),
    "fresnel-sqrt-family": _fresnel(
        ["--builtin", "sqrt-family", "--params", "0.5,2,0.4"],
        "cd4a06546ebcd516883410738d6422a45d30b7fbc11193030c2fc67d995dd88c"),
    # the zero field is outside the domain and skipped
    "fresnel-alpha-over-beta": _fresnel(
        ["--builtin", "alpha-over-beta"],
        "9e5de688b725d7697ac84981c9d4b1ae4debb9ca3a993522fe6bf422e783471b"),
    # CE through the birefringent branch
    "fresnel-birefringent-branch": _fresnel(
        ["--expr", "1 - sqrt(1 + a - 0.5*b^2)", "--kind", "alpha-beta"],
        "e94fa2b74c3aff3c6f7abb8b1d8dd12e214d8e22dd7afc656dd3d0587ee7ebf5"),
    # backgrounds whose coefficients overflow are skipped; re-recorded
    # when integer jet powers became square-and-multiply, which moved
    # p0 by up to 34 ulps in 53 of the 240 rows
    "fresnel-overflow": _fresnel(
        ["--expr", "a^700", "--kind", "alpha"],
        "57581539ad4f7d600775c0b4e7f10a22d846a5091650dd81e8d295326ce819c5"),
    # 1204 rows: two row blocks, and a model name quoted for its commas
    "fresnel-sqrt-family-300": (
        ["fresnel", "--builtin", "sqrt-family", "--params", "0.5,2,0.4",
         "--trials", "300", "--seed", "5", "--out", "{dir}/scan.csv"],
        {"scan.csv": "db5192d2793eb4a51e242c02f3889fc0"
                     "33d4b2d1827ceb786604872344df7041"}),
})


def _ce_check(expr: str, kind: str, digest: str):
    return (["ce", "check", "--expr", expr, "--kind", kind, "--out",
             "{dir}/report.json"], {"report.json": digest})


# expression models on their default grids
_CASES.update({
    "ce-check-vector-scalar-expr": _ce_check(
        "1 - sqrt(1 + a - b^2) + 0.1*z^2 - z", "vector-scalar",
        "edf3cf7dae85b37d96d839691601b10dbdc5420b13e56d4d349eccb57f56fb43"),
    "ce-check-alpha-beta-expr": _ce_check(
        "-a/2 + 0.1*a^2 + 0.05*b^2", "alpha-beta",
        "13fd590851f749f8f75ccec5446d078f495c480f6ad84b6b808d430838f20ca2"),
})


# reports and a ray that span several row blocks of the writers
_CASES.update({
    "ce-check-born-infeld-101x101": (
        ["ce", "check", "--builtin", "born-infeld", "--grid",
         "a:-0.5:2:101,b:-1:1:101", "--out", "{dir}/report.json"],
        {"report.json": "f5f404b56b3a00719bb5757275d4f53b"
                        "548ee65e0eb85408c90d8195ddd7ba7c"}),
    # 3715 of the 3721 rows carry the general sector
    "ce-check-general-rows-61x61": (
        ["ce", "check", "--expr", "1 - sqrt(1 + a - 0.5*b^2)", "--kind",
         "alpha-beta", "--grid", "a:-0.5:2:61,b:-1:1:61", "--out",
         "{dir}/report.json"],
        {"report.json": "a29fe76e603084a89ae26ce5d504af85"
                        "6e272e33ff9ccbabad825b2dcc607fe8"}),
    # 1601 states
    "rays-born-infeld-s16": (
        ["rays", "--builtin", "born-infeld", "--E", "0.3,0,0", "--B",
         "0,0.4,0", "--s-max", "16", "--out", "{dir}/ray.csv"],
        {"ray.csv": "560463239ab1d8834c6258f8d1b16e14"
                    "4724f0dd4deddf46f42db8d088bce420"}),
})


def _gravity(flags: list[str], digest: str):
    return (["gravity", *flags, "--trials", "48", "--out",
             "{dir}/gravity.json"], {"gravity.json": digest})


# quadratic p = 3q at D = 4 and 7: null dims set by rounding
_CASES.update({
    "gravity-einstein-D7": _gravity(
        ["--theory", "einstein", "--D", "7"],
        "472f50d75b349d1a51ab1bf00f9ae2e12489879699f4d4270d88ceba9cab7ad3"),
    "gravity-fr-D5": _gravity(
        ["--theory", "fr", "--D", "5"],
        "b0de8b03aa08f5f848f58952a7e362cbc325fcca92efbc4c477208fe27eb0743"),
    "gravity-quadratic-p3-q1-D4": _gravity(
        ["--theory", "quadratic", "--p", "3", "--q", "1", "--D", "4"],
        "4142bcd546577b2d653f1805905db5e9aa9047dea80395a89c6b82a6226bbf43"),
    "gravity-quadratic-p3-q1-D7": _gravity(
        ["--theory", "quadratic", "--p", "3", "--q", "1", "--D", "7"],
        "6997af89b63978124812b741ac8f25c06fc4a51207d227636c4b39237758abb3"),
})


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(_CASES))
def test_cli_outputs_keep_their_recorded_bytes(case, tmp_path, capsys):
    argv, digests = _CASES[case]
    assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    for name, digest in digests.items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name


def test_upwind_arrays_keep_their_recorded_bytes():
    profile = Profile1D.from_callable(np.sin, 0.0, 2.0 * np.pi, n=401,
                                      periodic=True)
    snap = upwind_solve(lambda u: 0.5 * u * u, profile, 2.0, nx=400)
    assert _sha256(snap.x.tobytes()) == ("64f6715f0d9e2fc7a8ba4f73b68965a1"
                                         "a63daa5bde7b9feba6b30185ee3f0c71")
    assert _sha256(snap.u.tobytes()) == ("8c012dea8eeb6ba065d3d5d0e84c3e32"
                                         "722d8ec23d829c449ffb8fce0f0d291f")


@pytest.mark.parametrize("flux, u_digest", [
    (lambda u: 0.5 * u * u,
     "cba715c27bc1b38f1351d710eded640ee3b7c6c76f9a2dc75220330a8e71ba2c"),
    # a flux of one float, called per cell through np.vectorize
    (lambda u: math.sqrt(1.0 + u * u),
     "1f2dc56a17bfc9d6ec9b1fb6146d55006dec2ead96a7ad29253537f5418290ab"),
], ids=["burgers", "float-flux"])
def test_upwind_step_profile_keeps_its_recorded_bytes(flux, u_digest):
    # the CLI's non-periodic step profile, run past its shock time (~1.0)
    profile = Profile1D.from_callable(lambda x: -np.tanh(x), -5.0, 5.0,
                                      n=401)
    snap = upwind_solve(flux, profile, 2.0, nx=200)
    assert _sha256(snap.x.tobytes()) == ("b53eda950fd618569edc77a60a0ba919"
                                         "fd8f7c8793192fd6b2e6192d9ff9fb78")
    assert _sha256(snap.u.tobytes()) == u_digest


@pytest.mark.parametrize("ts, s_max, s_star, s_digest, pi_digest", [
    # blows up at the pole s = 1/2, located by bisection
    (TransportState(pi0=-2.0, m=0.0, c=1.0), 2.0, 0.5,
     "3f0a138dc53d235aa6c085bb5f9d2e511166425225c96561536c040ca95f3884",
     "c1ccfc2a43ff040217b6b9c7834c72292d76e9424a2ff1c5b45be3ef804631b8"),
    # exceptional: c = 0, so the amplitude only decays
    (TransportState(pi0=-2.0, m=0.3, c=0.0), 10.0, None,
     "56715afa76002573bef3d599b38627daede33499f9073e7b6e25aa74ca62a6d1",
     "c2bc5c62639c2f655c631b81ba2049abf7d7bba5b5295b4a7e7cbcd94e11466a"),
], ids=["blowup", "exceptional"])
def test_transport_arrays_keep_their_recorded_bytes(ts, s_max, s_star,
                                                    s_digest, pi_digest):
    res = transport_amplitude(ts, s_max=s_max)
    assert res.blown_up is (s_star is not None)
    assert res.s_star == s_star
    assert _sha256(res.s.tobytes()) == s_digest
    assert _sha256(res.pi.tobytes()) == pi_digest
