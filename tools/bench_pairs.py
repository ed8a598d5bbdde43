"""Alternating parent/change pairs of the benchmark, recorded as BENCH_*.json.

    python3 tools/bench_pairs.py --parent 48227e1 --change worktree \\
        --workload graph_spectra --pairs 10 --seed 1 --out BENCH_19.json \\
        --note "what the change does and what it claims"

Each side is a git revision, exported with `git archive`, or `worktree`:
the tracked and unignored files of the working tree, copied. Neither
checkout carries `__pycache__`, and every run has PYTHONDONTWRITEBYTECODE=1.
Pair k runs `perfbench/run.py` once per side in the side's checkout, the
parent first in odd-numbered pairs and the change first in even-numbered
ones, so that drift of the machine falls on both sides alike.

The record holds `change` (the note), `parent`, `machine`, `command`,
`pairing`, `summary` and `runs`. `runs` keeps each run's exit code and the
JSON line it printed. `summary` has, per set, workload and end-to-end
metric, the pairs in which both runs exited 0, the count of those in which
the change read lower, and each side's quartiles (linear interpolation,
as numpy's default percentile) with the change's median relative to the
parent's. With `--append` the runs join those of an existing record as
its next set, and the summary is rebuilt from all runs.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
WORKTREE = "worktree"
PAIRING_RULE = ("the parent runs first in odd-numbered pairs, the change in even-numbered "
                "ones; checkouts made with git archive or a file copy, without "
                "__pycache__, and run with PYTHONDONTWRITEBYTECODE=1")


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs) -> list[dict]:
    """One entry per (set, workload, metric) of the runs, in the order the
    runs give them, pairs joined on (set, workload, seed, pair); a pair
    counts when both runs exited 0, and a workload needs two such pairs."""
    sides = {}
    for run in runs:
        key = (run["set"], run["workload"], run["seed"], run["pair"])
        sides.setdefault(key, {})[run["side"]] = run
    groups = {}
    for (set_, workload, *_), pair in sides.items():
        if all(side in pair and pair[side]["exit"] == 0 for side in ("parent", "change")):
            groups.setdefault((set_, workload), []).append(pair)
    summary = []
    for (set_, workload), pairs in groups.items():
        if len(pairs) < 2:
            continue
        for metric in METRICS:
            value = {side: [p[side]["result"]["metrics"][metric]["value"] for p in pairs]
                     for side in ("parent", "change")}
            parent, change = quartiles(value["parent"]), quartiles(value["change"])
            summary.append({
                "set": set_, "workload": workload, "metric": metric, "pairs": len(pairs),
                "change_lower_in": sum(c < p for p, c in zip(value["parent"], value["change"])),
                "parent": parent, "change": change,
                "median_change_rel": change["median"] / parent["median"] - 1.0,
            })
    return summary


def checkout(side: str, into: Path) -> str:
    """Export a side into an empty directory; returns how it is named in the record."""
    into.mkdir(parents=True)
    if side == WORKTREE:
        listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                                 "--exclude-standard"], cwd=ROOT, check=True,
                                capture_output=True).stdout.decode().split("\0")
        for name in filter(None, listed):
            source = ROOT / name
            if source.is_file():
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, into / name)
        return "working tree of this change"
    archive = subprocess.run(["git", "archive", "--format=tar", side], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", "--short", side], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: int):
    """(exit code, the run's JSON result or None, the run's env line or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, env


def machine(env) -> str:
    """The machine line of a record, from the env line a run printed."""
    if env is None:
        return f"{os.cpu_count()} CPUs"
    threads = sorted({v for v in env["blas_threads"].values() if v})
    return (f"{env['nproc']} CPUs, {env['blas']}, BLAS threads {'/'.join(threads)}, "
            f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default=WORKTREE,
                        help=f"git revision of the change, or {WORKTREE!r} (default)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="", help="the record's `change` text")
    parser.add_argument("--append", action="store_true",
                        help="add the runs to --out as its next set")
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.append else {"runs": []}
    set_ = 1 + max((run["set"] for run in record["runs"]), default=0)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: work / side for side in ("parent", "change")}
        sources = {"parent": checkout(args.parent, trees["parent"]),
                   "change": checkout(args.change, trees["change"])}
        env = None
        for workload in args.workload:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    code, result, run_env = run_once(trees[side], workload, args.seed,
                                                     args.seconds)
                    env = env or run_env
                    record["runs"].append({"side": side, "workload": workload,
                                           "seed": args.seed, "pair": pair, "exit": code,
                                           "result": result, "source": sources[side],
                                           "set": set_})
                    print(f"set {set_} {workload} pair {pair} {side}: exit {code}",
                          file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    this_set = (f"set {set_}: {args.pairs} pairs per workload ({', '.join(args.workload)}) "
                f"at seed {args.seed}, {sources['change']} against {sources['parent']}")
    earlier = record.get("pairing", "").removesuffix("; " + PAIRING_RULE)
    record.update({
        "change": record.get("change") or args.note,
        "parent": record.get("parent") or sources["parent"],
        "machine": record.get("machine") or machine(env),
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "pairing": "; ".join(filter(None, [earlier, this_set, PAIRING_RULE])),
    })
    record["summary"] = summarize(record["runs"])
    order = ("change", "parent", "machine", "command", "pairing", "summary", "runs")
    args.out.write_text(json.dumps({k: record[k] for k in order}, indent=1) + "\n")
    return 0 if all(run["exit"] == 0 for run in record["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
