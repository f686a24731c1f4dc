#!/usr/bin/env python3
"""Record bench/reference.json from the current checkout.

    python3 bench/record_reference.py

Stores, for every anchor job (inputs independent of the seed) at both
the full and the smoke-test size, the summary that checks.py compares,
and for every gravity configuration the set of kernel dimensions a long
survey observes.  Run it only on a commit whose outputs are the
reference; the file then travels with the benchmark unchanged.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out" / "reference-jobs"
SURVEY_TRIALS = {4: 3000, 5: 2000, 6: 800, 7: 500}

sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from cewave.gravity import kernel_survey  # noqa: E402


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    jobs: dict[str, dict] = {}
    dims: dict[str, dict] = {}
    reference = {"jobs": jobs, "gravity_kernel_dims": dims}
    for label, flags, params in workloads.GRAVITY_THEORIES:
        for D, trials in SURVEY_TRIALS.items():
            survey = kernel_survey(flags[1], D, trials,
                                   np.random.default_rng(1000 + D), **params)
            dims[f"{label}-D{D}"] = {
                side: sorted(survey[f"{side}_kernel_dims"])
                for side in ("null", "nonnull")}
    try:
        for workload in workloads.WORKLOADS:
            for tiny in (False, True):
                for job in workloads.generate(workload, 0, tiny):
                    if not job.anchor:
                        continue
                    stem = str(OUT / job.name)
                    outcome = workloads.execute(job, stem)
                    files = {s: Path(stem + s).read_bytes()
                             for s in job.outputs if Path(stem + s).exists()}
                    jobs[" ".join(job.argv)] = checks.summarize(job, outcome,
                                                                files)
                    for f in checks.check(job, outcome, files, reference):
                        print(f"{job.name}: {f.message} [{f.defect}]")
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1,
                                                    sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
