"""Output bytes frozen against recorded sha256 digests.

The digests were recorded before the simple-wave, upwind and CSV kernels
were rewritten for speed, so these tests pin the rewritten kernels to
the bytes of the code they replaced.  They were recorded with numpy 2.4
(OpenBLAS) on x86-64; the eigen solves of a simple wave go through
LAPACK, whose last bits may differ on another build.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cewave.cli import main
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
    # the README ray: 1001 states
    "rays-born-infeld": (
        ["rays", "--builtin", "born-infeld", "--E", "0.3,0,0", "--B",
         "0,0.4,0", "--s-max", "10", "--out", "{dir}/ray.csv"],
        {"ray.csv": "e96c961dc711b94f7191c8ff0927dfef"
                    "6da017316e6efd9c5f6aabf895c02d12"}),
}


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
