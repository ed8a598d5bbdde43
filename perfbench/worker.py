"""Benchmark worker: runs one workload's job list in a fresh process.

The launcher (run.py) starts this script once per set-up sample with
`--setup-only`, then once more to measure. A measuring worker:

1. imports specwalk from the checkout's `src/` and builds the job configs;
2. runs timed passes until `--seconds` have passed and at least three
   were made. The first pass warms up: its outputs get every check, and
   its first-call costs drop out because `wall_s` takes each job at its
   fastest. With `--trace 1` passes alternate untraced and traced, and
   the traced ones yield the per-layer metrics.

It prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# a job's fastest of three passes tracks its work; see README.md, "wall_s"
MIN_PASSES = 3


def import_specwalk():
    """Import specwalk from this checkout's `src/`, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import specwalk
    if Path(specwalk.__file__).resolve().parent != src / "specwalk":
        raise ImportError(f"specwalk imported from {specwalk.__file__}, not {src}")
    return specwalk


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "seed": seed,
    }


class Bench:
    """One workload's jobs and checks, bound to a work directory."""

    def __init__(self, workload: str, seed: int, work: Path, reference=None):
        import_specwalk()
        from specwalk import cli
        from specwalk.spectral import Spectrum, degeneracy_table

        self.cli = cli
        self.count_clusters = lambda lam: len(degeneracy_table(Spectrum(lam)))
        self.seed = seed
        self.work = work
        self.jobs = workloads.jobs(workload, seed)
        self.configs = {job.id: self._config(job) for job in self.jobs}
        self.graph_sizes = {job_id: workloads.graph_size(config.graph)
                            for job_id, config in self.configs.items()
                            if config.graph is not None}
        self.reference = reference or {}
        self.checked_digests: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _config(self, job):
        base = self.cli.preset(job.preset) if job.preset else self.cli.ExperimentConfig()
        return replace(base, **job.config, out=str(self.work / "out" / job.id))

    def _reference_for(self, job):
        if job.seeded and self.seed != workloads.DEFAULT_SEED:
            return None
        return self.reference.get(job.id)

    def run_job(self, job, tracer=None) -> tuple[float, int]:
        """Run one job; returns (seconds, artifact bytes written)."""
        config = self.configs[job.id]
        out = Path(config.out)
        shutil.rmtree(out, ignore_errors=True)
        started = time.perf_counter()
        if tracer is None:
            self.cli.run_experiment(config)
        else:
            tracer.job(job.id, self.cli.run_experiment, config)
        elapsed = time.perf_counter() - started
        # manifest.txt is left out: it records the run's duration and paths
        written = sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.txt")
        return elapsed, written

    def check(self, job) -> list[str]:
        """Outputs byte-identical to ones that passed every check pass at once."""
        config = self.configs[job.id]
        digests, problems = checks.manifest_digests(Path(config.out))
        if problems or digests != self.checked_digests.get(job.id):
            problems = checks.check_outputs(job, config, self.graph_sizes.get(job.id),
                                            self._reference_for(job))
            if not problems:
                self.checked_digests[job.id] = digests
        return problems

    def run_pass(self, tracer=None) -> dict[str, tuple[float, int]]:
        """Run every job once; returns job id -> (seconds, bytes written)
        for the jobs that ran and passed their checks."""
        per_job = {}
        for job in self.jobs:
            self.attempted += 1
            try:
                per_job[job.id] = self.run_job(job, tracer)
                problems = self.check(job)
            except Exception:  # a job that raises counts as failed; keep going
                problems = [traceback.format_exc(limit=3)]
            if problems:
                per_job.pop(job.id, None)
                self.failed += 1
                self.problems.append(f"{job.id}: " + "; ".join(problems))
                print(f"job {job.id} failed: {problems}", file=sys.stderr)
        return per_job

    def traced_pass(self, tracer) -> tuple[dict, dict]:
        """A pass with every layer traced; returns (per-job data, layer metrics)."""
        tracer.begin_pass()
        tracer.install()
        try:
            per_job = self.run_pass(tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.pass_metrics(tracer.passes[-1], self.count_clusters)
        metrics["cli.bytes_written"] = sum(w for _, w in per_job.values())
        self_total = sum(metrics[name] for name in tracing.SELF_TIMES)
        job_total = sum(s for s, _ in per_job.values())
        if abs(self_total - job_total) > 1e-3 * job_total + 1e-3:
            self.problems.append(f"layer self times sum to {self_total!r} s, "
                                 f"traced jobs took {job_total!r} s")
        return per_job, metrics


def best_pass(passes: list[dict]) -> float:
    """One pass with each job at its fastest: the sum over jobs of the
    least time the job took in any of `passes`."""
    fastest: dict[str, float] = {}
    for per_job in passes:
        for job_id, (seconds, _) in per_job.items():
            fastest[job_id] = min(seconds, fastest.get(job_id, seconds))
    return sum(fastest.values())


def measure(bench: Bench, seconds: float, trace: bool, trace_file: Path | None) -> dict:
    """Run passes until `seconds` have passed and at least MIN_PASSES were
    made. The first pass warms up: its outputs get every check, and its
    first-call costs drop out of `best_pass`. With `trace`, passes
    alternate untraced and traced, so a traced run makes no more passes
    than an untraced one."""
    tracer = tracing.Tracer() if trace else None
    plain, traced, layers = [], [], []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(plain) + len(traced) < MIN_PASSES or (trace and not traced)):
        if trace and len(traced) < len(plain):
            per_job, metrics = bench.traced_pass(tracer)
            traced.append(per_job)
            layers.append(metrics)
        else:
            plain.append(bench.run_pass())

    result = {"best_pass_s": best_pass(plain),
              "pass_s": [sum(s for s, _ in p.values()) for p in plain]}
    if trace:
        result["traced_pass_s"] = [sum(s for s, _ in p.values()) for p in traced]
        result["layers"] = {name: statistics.median(m[name] for m in layers)
                            for name in layers[0]}
        result["layers"]["trace.overhead_s"] = best_pass(traced) - best_pass(plain)
        if trace_file is not None:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps({"env": environment(bench.seed),
                                              "passes": tracer.dump()}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() when the launcher started this process")
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, args.work, json.loads(REFERENCE.read_text()))
    result = {"setup_s": time.time() - args.spawned}
    if not args.setup_only:
        result.update(measure(bench, args.seconds, bool(args.trace), args.trace_file))
        result.update(attempted=bench.attempted, failed=bench.failed,
                      problems=bench.problems, env=environment(args.seed),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
