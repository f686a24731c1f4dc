"""Every benchmark workload job of seed 13 keeps its recorded bytes.

Each job of ``generate(workload, 13)`` for the three workloads runs in
process through ``bench/workloads.execute`` into a temporary directory.
Its exit code, stdout and stderr (with the temporary directory replaced),
whether it raised, its library values (dtype, shape and bytes) and its
output files are hashed into one sha256 per job and compared with
``tests/data/workload_manifest_13.json``.  A change that moves any byte
names every job that moved.  To re-record the manifest after a change
that moves bytes on purpose, run ``python tests/test_workload_manifest.py``
with ``src`` on ``PYTHONPATH``.  This test reads ``bench/`` and changes
nothing there.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
_MANIFEST = _ROOT / "tests" / "data" / "workload_manifest_13.json"
_SEED = 13


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", _ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _update(digest, label: str, data: bytes) -> None:
    digest.update(f"{label}:{len(data)}:".encode())
    digest.update(data)


def _job_digest(workloads, job, outdir: Path) -> str:
    stem = str(outdir / job.name)
    outcome = workloads.execute(job, stem)
    digest = hashlib.sha256()
    _update(digest, "rc", repr(outcome.rc).encode())
    for label, text in (("stdout", outcome.stdout),
                        ("stderr", outcome.stderr)):
        _update(digest, label, text.replace(str(outdir), "<tmp>").encode())
    _update(digest, "raised", repr(outcome.error is not None).encode())
    for key, value in sorted((outcome.value or {}).items()):
        if value is None:
            _update(digest, key, b"None")
            continue
        array = np.asarray(value)
        _update(digest, key, f"{array.dtype.str}{array.shape}".encode()
                + array.tobytes())
    for suffix in job.outputs:
        path = Path(stem + suffix)
        _update(digest, suffix,
                path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


def manifest(outdir: Path) -> dict[str, str]:
    """Job name -> sha256 of everything the job produced."""
    workloads = _workloads()
    return {f"{workload}/{job.name}": _job_digest(workloads, job, outdir)
            for workload in workloads.WORKLOADS
            for job in workloads.generate(workload, _SEED)}


def test_every_workload_job_keeps_its_recorded_bytes(tmp_path):
    recorded = json.loads(_MANIFEST.read_text())
    produced = manifest(tmp_path)
    assert sorted(produced) == sorted(recorded)
    moved = sorted(name for name in recorded
                   if produced[name] != recorded[name])
    assert not moved, f"{len(moved)} jobs moved: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = manifest(Path(tmp))
    _MANIFEST.parent.mkdir(exist_ok=True)
    _MANIFEST.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(result)} jobs in {_MANIFEST}", file=sys.stderr)
