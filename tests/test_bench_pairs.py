import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(side, pair, wall, exit=0, workload="graph_spectra", set_=1, seed=1):
    metrics = {"wall_s": wall, "setup_s": 0.2 + wall, "peak_rss_mb": 100.0 * wall}
    return {"side": side, "workload": workload, "seed": seed, "pair": pair, "exit": exit,
            "set": set_, "source": "x",
            "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}


class TestSummary:
    def test_quartiles_are_numpy_linear_percentiles(self):
        values = [0.3, 1.7, 0.2, 5.0, 2.5, 0.9, 1.1]
        got = bench_pairs.quartiles(values)
        np.testing.assert_allclose([got["q1"], got["median"], got["q3"]],
                                   np.percentile(values, [25, 50, 75]), rtol=1e-15)

    def test_pairs_lower_count_and_relative_median(self):
        parent = [1.0, 1.2, 0.9, 1.1, 1.3]
        change = [0.8, 1.25, 0.85, 1.0, 1.3]  # lower in pairs 1, 3 and 4; a tie in 5
        runs = [run("parent", k, v) for k, v in enumerate(parent, 1)]
        runs += [run("change", k, v) for k, v in enumerate(change, 1)]
        summary = bench_pairs.summarize(runs)
        assert [s["metric"] for s in summary] == list(bench_pairs.METRICS)
        wall = summary[0]
        assert wall["pairs"] == 5 and wall["change_lower_in"] == 3
        assert wall["parent"]["median"] == 1.1 and wall["change"]["median"] == 1.0
        assert wall["median_change_rel"] == pytest.approx(1.0 / 1.1 - 1.0, rel=1e-15)
        assert wall["parent"]["q1"] == 1.0 and wall["parent"]["q3"] == 1.2

    def test_failed_runs_drop_their_pair(self):
        runs = [run("parent", 1, 1.0), run("change", 1, 9.0, exit=1),
                run("parent", 2, 1.0), run("change", 2, 0.5),
                run("parent", 3, 2.0), run("change", 3, 1.0),
                run("parent", 4, 3.0)]  # pair 4 has no change run
        (wall, *_) = bench_pairs.summarize(runs)
        assert wall["pairs"] == 2 and wall["change_lower_in"] == 2
        assert wall["parent"]["median"] == 1.5 and wall["change"]["median"] == 0.75

    def test_sets_and_workloads_stay_apart(self):
        runs = []
        for set_, workload, scale in [(1, "paper", 1.0), (1, "eigvec_chi", 2.0),
                                      (2, "eigvec_chi", 3.0)]:
            for k in (1, 2, 3):
                runs += [run("parent", k, scale * k, workload=workload, set_=set_),
                         run("change", k, scale * k + 1, workload=workload, set_=set_)]
        summary = bench_pairs.summarize(runs)
        keys = [(s["set"], s["workload"]) for s in summary if s["metric"] == "wall_s"]
        assert keys == [(1, "paper"), (1, "eigvec_chi"), (2, "eigvec_chi")]
        medians = [s["parent"]["median"] for s in summary if s["metric"] == "wall_s"]
        assert medians == [2.0, 4.0, 6.0]
        assert all(s["change_lower_in"] == 0 for s in summary)

    def test_one_pair_gives_no_quartiles(self):
        assert bench_pairs.summarize([run("parent", 1, 1.0), run("change", 1, 0.5)]) == []

    def test_rebuilds_a_committed_record(self):
        # BENCH_18.json's summary was written before this tool; its runs give it back
        record = json.loads((_PATH.parents[1] / "BENCH_18.json").read_text())
        assert bench_pairs.summarize(record["runs"]) == record["summary"]
