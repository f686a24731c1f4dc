"""Every benchmark workload job of seeds 13, 31 and 777 keeps its recorded
bytes.

Each job of ``generate(workload, seed)`` for the three workloads runs in
process through ``bench/workloads.execute`` into a temporary directory.
Its exit code, stdout and stderr (with the temporary directory replaced),
whether it raised, its library values (dtype, shape and bytes) and its
output files are hashed into one sha256 per job and compared with
``tests/data/workload_manifest_<seed>.json``.  A change that moves any byte
names every job that moved.  Each job's output also goes through the
benchmark's own checks, ``bench/checks.check`` with
``bench/reference.json``, so a change that the benchmark would count as
a failed job fails here first.  To re-record a seed's manifest after a
change that moves bytes on purpose, run
``python tests/test_workload_manifest.py <seed>`` with ``src`` on
``PYTHONPATH``.  This test reads ``bench/`` and changes
nothing there.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SEEDS = (13, 31, 777)


def _manifest(seed: int) -> Path:
    return _ROOT / "tests" / "data" / f"workload_manifest_{seed}.json"


def _bench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", _ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _update(digest, label: str, data: bytes) -> None:
    digest.update(f"{label}:{len(data)}:".encode())
    digest.update(data)


def _run(workloads, checks, reference, job,
         outdir: Path) -> tuple[str, list[str]]:
    """The sha256 of everything one job produced, and the failures the
    benchmark's checks find in it."""
    stem = str(outdir / job.name)
    outcome = workloads.execute(job, stem)
    files = {suffix: Path(stem + suffix).read_bytes()
             for suffix in job.outputs if Path(stem + suffix).exists()}
    failures = [f.message for f in checks.check(job, outcome, files,
                                                reference)]
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
        _update(digest, suffix, files.get(suffix, b"<missing>"))
    return digest.hexdigest(), failures


def run_jobs(outdir: Path, seed: int) -> dict[str, tuple[str, list[str]]]:
    """Job name -> the sha256 of everything the job produced, and the
    failures bench/checks.check finds in it."""
    workloads, checks = _bench("workloads"), _bench("checks")
    reference = json.loads((_ROOT / "bench" / "reference.json").read_text())
    return {f"{workload}/{job.name}": _run(workloads, checks, reference, job,
                                           outdir)
            for workload in workloads.WORKLOADS
            for job in workloads.generate(workload, seed)}


@pytest.mark.parametrize("seed", _SEEDS)
def test_every_workload_job_keeps_its_recorded_bytes(tmp_path, seed):
    recorded = json.loads(_manifest(seed).read_text())
    produced = run_jobs(tmp_path, seed)
    assert sorted(produced) == sorted(recorded)
    moved = sorted(name for name in recorded
                   if produced[name][0] != recorded[name])
    assert not moved, f"{len(moved)} jobs moved: {moved}"
    failed = {name: fails for name, (_, fails) in produced.items() if fails}
    assert not failed, f"{len(failed)} jobs fail the bench checks: {failed}"


if __name__ == "__main__":
    import tempfile

    seed = int(sys.argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        result = {name: sha
                  for name, (sha, _) in run_jobs(Path(tmp), seed).items()}
    manifest = _manifest(seed)
    manifest.parent.mkdir(exist_ok=True)
    manifest.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(result)} jobs in {manifest}", file=sys.stderr)
