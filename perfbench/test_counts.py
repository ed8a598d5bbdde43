"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_counts.py -q

The count test runs one traced pass of every workload twice (about a
minute on two cores); `-k graph_spectra` and the like pick one.
"""

import json

import pytest

import run
import tracing
import workloads
from worker import ROOT, Bench

# counts that depend only on the inputs, so they must repeat exactly
EXACT_COUNTS = ("graphs.edges", "spectral.clusters", "transport.phase_elems",
                "continuum.points", "scaling.points", "cli.bytes_written")


def traced_counts(workload, seed, work):
    bench = Bench(workload, seed, work)
    _, metrics = bench.traced_pass(tracing.Tracer())
    assert bench.failed == 0 and not bench.problems, bench.problems
    return {name: metrics[name] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_counts(workload, tmp_path):
    seed = 7
    first = traced_counts(workload, seed, tmp_path / "first")
    second = traced_counts(workload, seed, tmp_path / "second")
    assert first == second
    assert any(first.values())


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
