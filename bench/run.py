#!/usr/bin/env python3
"""cewave benchmark: one workload per process, a closed loop of checked jobs.

Run from the repository root:

    python3 bench/run.py --workload classify-grid --seed 1 --seconds 24 --trace 0

One client runs the workload's jobs one after another in this process,
with BLAS pinned to one thread.  An untimed warm-up pass comes first;
timed passes follow until ``--seconds`` is used up (at least three).  Every
output is checked (see checks.py) and later passes must reproduce the
warm-up pass byte for byte.  With ``--trace 1`` the second half of the
window runs traced passes and the per-layer metrics are printed instead
of the end-to-end ones.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a fuller record goes
to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
MIN_TIMED_PASSES = 3
# Times are reported in units where calibrate() takes this long; see
# README.md ("Host-speed calibration").
CAL_REFERENCE_S = 0.003

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("job_p50_s", "s"),
              ("job_p90_s", "s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio")]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: a few small jobs per workload")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- set-up time ----------------------------------------------------------------------


def calibrate() -> float:
    """Wall time of a fixed mix of object churn, JSON encoding, small
    eigen solves and small-array arithmetic, about 3 ms.  Run between
    jobs: a shared host can alternate between a fast and a slow phase
    (1.5-2x apart) over seconds, and this mix slows down with the jobs."""
    import numpy as np
    t0 = time.perf_counter()
    json.dumps([{"a": i * 0.5, "b": (i, i + 1)} for i in range(600)])
    m = np.arange(16.0).reshape(4, 4) + np.eye(4)
    for _ in range(30):
        np.linalg.eig(m)
    v = np.linspace(0.0, 1.0, 16)
    for _ in range(100):
        v = np.sqrt(v * v + 1.0) - 1.0
    return time.perf_counter() - t0


def probe_setup(args) -> None:
    """Body of a set-up probe: import the CLI, generate the jobs, report."""
    import cewave.cli  # noqa: F401  (the import is what is measured)
    import workloads
    workloads.generate(args.workload, args.seed, args.tiny)
    print("ready", flush=True)


class SetupProbes:
    """Fresh-interpreter time to the first job, sampled at even intervals
    across the timed window: the host's speed drifts over tens of seconds,
    and back-to-back probes would all see one phase of it."""

    def __init__(self, args, window: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--probe-setup", "--workload", args.workload, "--seed",
                    str(args.seed), "--seconds", "0"]
        self.cmd += ["--tiny"] if args.tiny else []
        self.interval = window / SETUP_PROBES
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.t0 = time.perf_counter()
        self._probe()  # warms the file cache and compiled bytecode; discarded
        self.raw.clear()

    def _probe(self) -> float:
        before = calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        self.raw.append(elapsed)
        return elapsed * 2.0 * CAL_REFERENCE_S / (before + calibrate())

    def start(self) -> None:
        self.t0 = time.perf_counter()

    def poll(self) -> None:
        """Take the next probe if it is due; called between jobs."""
        if (len(self.samples) < SETUP_PROBES and time.perf_counter() - self.t0
                >= len(self.samples) * self.interval):
            self.samples.append(self._probe())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(self._probe())
        return self.samples


# --- passes -----------------------------------------------------------------------------


class Pass:
    """Per-job wall times, outcomes and output digests of one pass.

    ``raw`` holds wall times; ``times`` scales each by the host speed,
    the median of the calibrations taken between the jobs around it.
    ``between`` runs after each job, outside the timed region."""

    def __init__(self, jobs, rundir: Path, tracer=None, keep: bool = False,
                 between=None):
        from checks import digest
        from workloads import execute
        self.raw, self.digests, self.outcomes, self.files = [], [], [], []
        self.cals = [calibrate()]
        for i, job in enumerate(jobs):
            stem = str(rundir / job.name)
            for suffix in job.outputs:
                Path(stem + suffix).unlink(missing_ok=True)
            if tracer is not None:
                tracer.current_job = i
            t0 = time.perf_counter()
            outcome = execute(job, stem)
            self.raw.append(time.perf_counter() - t0)
            self.cals.append(calibrate())
            files = {s: Path(stem + s).read_bytes() for s in job.outputs
                     if Path(stem + s).exists()}
            self.digests.append(digest(outcome, files))
            if keep:
                self.outcomes.append(outcome)
                self.files.append(files)
            if between is not None:
                between()
        # cals[i] and cals[i + 1] bracket job i; three on each side smooth
        # the calibration's own noise over well under the host's phase length
        self.times = [t * CAL_REFERENCE_S
                      / statistics.median(self.cals[max(0, i - 2):i + 4])
                      for i, t in enumerate(self.raw)]
        self.wall = sum(self.times)


def timed_passes(jobs, rundir, window: float, min_passes: int,
                 traced: bool = False, between=None) -> list[tuple[Pass, object]]:
    """Passes until the next one would end after ``window`` seconds."""
    from tracing import Tracer
    passes = []
    t0 = time.perf_counter()
    while True:
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            p = Pass(jobs, rundir, tracer, between=between)
        finally:
            if tracer is not None:
                tracer.restore()
        passes.append((p, tracer))
        if (len(passes) >= min_passes
                and time.perf_counter() - t0 + p.wall > window):
            return passes


# --- results ----------------------------------------------------------------------------


def evaluate(jobs, warm: Pass, passes: list[Pass], reference: dict):
    """Per-job status from the checks on the warm-up outputs plus the
    byte-for-byte comparison of every later pass."""
    from checks import Failure, check
    records = []
    for i, job in enumerate(jobs):
        fails = check(job, warm.outcomes[i], warm.files[i], reference)
        differing = sum(p.digests[i] != warm.digests[i] for p in passes)
        if differing:
            fails.append(Failure(f"output differs from the warm-up pass in "
                                 f"{differing} pass(es)"))
        unexpected = [f for f in fails if f.defect is None]
        status = "failed" if unexpected else ("known-defect" if fails else "ok")
        records.append({
            "name": job.name, "family": job.family, "status": status,
            "failed_executions": (1 + len(passes)) if unexpected else 0,
            "failures": [{"message": f.message, "defect": f.defect}
                         for f in fails]})
    return records


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "loadavg": os.getloadavg(),
    }


def metric_block(values: dict[str, float], units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def run(args) -> int:
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    # One CPU for this process and its set-up probes: on a shared host the
    # CPUs run at different speeds, and migrating between them is noise.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    if not (SRC / "cewave" / "__init__.py").is_file():
        print(f"bench: no cewave sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        probe_setup(args)
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    window = args.seconds / 2 if args.trace else args.seconds
    probes = SetupProbes(args, window)

    import numpy as np
    from tracing import PER_LAYER
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    jobs = workloads.generate(args.workload, args.seed, args.tiny)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = OUT / f"jobs-{tag}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        warm = Pass(jobs, rundir, keep=True)
        probes.start()
        untraced = [p for p, _ in timed_passes(
            jobs, rundir, window, 1 if args.trace else MIN_TIMED_PASSES,
            between=probes.poll)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = probes.finish()
        traced = (timed_passes(jobs, rundir, args.seconds - window, 1,
                               traced=True) if args.trace else [])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    records = evaluate(jobs, warm, untraced + [p for p, _ in traced], reference)
    failed_jobs = sum(r["status"] != "ok" for r in records)
    # Each job's median over the timed passes drops the executions during
    # which the calibration tracked the host's speed poorly; percentiles
    # then sit at fixed positions among the jobs.
    per_job = [statistics.median(p.times[i] for p in untraced)
               for i in range(len(jobs))]
    executions = [t for p in untraced for t in p.times]
    p90 = statistics.quantiles(per_job, n=10, method="inclusive")[-1]
    run_s = sum(per_job)
    e2e = {
        "setup_s": statistics.median(setup),
        "run_s": run_s,
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": p90,
        "peak_rss_mb": peak_rss_mb,
        # rule of succession over distinct jobs: never 0, and any new
        # failing job raises it by at least 1/(jobs + 2)
        "error_rate": (failed_jobs + 1) / (len(jobs) + 2),
    }
    result = {
        "provenance": provenance(args),
        "samples": {"jobs": len(jobs), "warmup_passes": 1,
                    "timed_passes": len(untraced), "traced_passes": len(traced),
                    "executions": len(executions),
                    "executions_above_p90": sum(t > p90 for t in executions),
                    "setup_probes": setup},
        "end_to_end": e2e,
        "raw_wall_s": {"run_s": sum(statistics.median(p.raw[i] for p in untraced)
                                    for i in range(len(jobs))),
                       "setup_s": statistics.median(probes.raw)},
        "failed_jobs": failed_jobs,
        "raw_error_rate": failed_jobs / len(jobs),
        "jobs": [dict(r, median_s=t, times=[p.times[i] for p in untraced],
                      raw_times=[p.raw[i] for p in untraced])
                 for i, (r, t) in enumerate(zip(records, per_job))],
    }
    if args.trace:
        families = [job.family for job in jobs]
        bytes_out = float(sum(len(data) for job, files in zip(jobs, warm.files)
                              if job.argv for data in files.values()))
        layers = [tracer.layer_metrics(families, {
            "cli.bytes_out": bytes_out,
            "trace.overhead_s": p.wall - run_s}) for p, tracer in traced]
        result["per_layer"] = {m: statistics.median(v[m] for v in layers)
                               for m, _ in PER_LAYER}
        result["absent"] = traced[0][1].absent
        spans = {}
        for k, (_, tracer) in enumerate(traced):
            spans.update({f"pass{k}_{col}": arr
                          for col, arr in tracer.arrays().items()})
        np.savez(OUT / f"spans-{tag}.npz", names=np.array(traced[0][1].names),
                 **spans)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))

    for r in records:
        for f in r["failures"]:
            kind = f"known defect {f['defect']}" if f["defect"] else "FAILED"
            print(f"# {kind}: {r['name']}: {f['message']}")
    print(f"# {args.workload} seed={args.seed}: {len(jobs)} jobs, "
          f"{len(untraced)} timed + {len(traced)} traced passes, "
          f"record in {OUT.name}/result-{tag}.json")
    unexpected = sum(r["failed_executions"] for r in records)
    metrics = (metric_block(result["per_layer"], PER_LAYER) if args.trace
               else metric_block(e2e, END_TO_END))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(jobs) * (1 + len(untraced) + len(traced)),
        "failed": unexpected,
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
