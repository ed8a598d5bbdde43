"""Benchmark of the specwalk pipeline, one workload per invocation.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; specwalk is imported from its `src/`.
The load is a closed loop with one client: a fresh worker process runs
the workload's jobs one at a time (see worker.py and workloads.py).

With `--trace 0` the result carries the end-to-end metrics: `setup_s`
(median of several fresh set-ups: interpreter start, import, job set-up),
`wall_s` (one pass over the job list, each job at its fastest of the
timed passes) and `peak_rss_mb`
(the measuring worker's `ru_maxrss`). With `--trace 1` it carries the
per-layer metrics of traced passes instead, and the spans are written to
`.bench_work/traces/`. The last line of output is one JSON object; the
exit code is 1 when any job failed or a check did not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREADS = min(2, os.cpu_count() or 1)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {name: "s" for name in (*tracing.TIMED, *tracing.SELF_TIMES)}
    units.update({name: "bytes" if "bytes" in name else "count"
                  for name in tracing.COUNTS})
    units.update({f"job.{job_id}_s": "s" for job_id in workloads.all_job_ids()})
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    pass


def _worker(args, work: Path, deadline: float, setup_only: bool) -> dict:
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work),
               "--trace-file", str(ROOT / ".bench_work" / "traces"
                                   / f"{args.workload}-seed{args.seed}.json"),
               "--spawned", repr(time.time())]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               **{k: str(BLAS_THREADS) for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {DEADLINE_S:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "specwalk" / "__init__.py").is_file():
        print(f"error: no specwalk sources under {ROOT / 'src'}; "
              "run from the root of a specwalk checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        setups = [_worker(args, work / f"setup{k}", deadline, setup_only=True)["setup_s"]
                  for k in range(SETUP_SAMPLES)]
        result = _worker(args, work / "run", deadline, setup_only=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["pass_s"]
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"]
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}, seed {args.seed}, BLAS threads {BLAS_THREADS}: "
          f"{len(passes) + len(result.get('traced_pass_s', []))} passes, "
          f"the first one warming up")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted}")
    if args.trace:
        units = per_layer_units()
        values = {name: result["layers"].get(name, 0.0) for name in units}
        print(f"traced passes {result['traced_pass_s']}, untraced passes {passes}")
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": statistics.median(setups),
                  "wall_s": result["best_pass_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        print(f"setup samples {setups}; pass times {passes}, "
              f"median {statistics.median(passes)!r} s")
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
