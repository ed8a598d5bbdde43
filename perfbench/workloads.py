"""The benchmark's workloads: job lists and what their outputs must satisfy.

A job is one call of `specwalk.cli.run_experiment`. Nothing here imports
specwalk, so the launcher can validate a workload name without loading
the library; the worker turns a job into an `ExperimentConfig`.

The workload seed sets every Erdos-Renyi seed and nothing else, so the
jobs without an Erdos-Renyi graph are the same at every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 1

FIG2A_GRID = "linear:0.05,250,5000+log:250,1e4,350"
FIG3_GRID = "linear:0.01,100,9900+log:100,1e4,200"

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Job:
    """One run, with what its outputs must satisfy.

    `expect` maps a report.txt key to (value, tolerance): the paper's
    exponents and limits, at the tolerances of the acceptance suite.
    `lower` maps a report key to a value it must exceed.
    """

    id: str
    preset: str | None = None
    config: dict = field(default_factory=dict)
    seeded: bool = False
    expect: dict = field(default_factory=dict)
    lower: dict = field(default_factory=dict)


def _run(job_id, graph, seeded=False, **config):
    return Job(id=job_id, config=dict(graph=graph, **config), seeded=seeded)


def _paper(seed):
    lifshits = dict(dos="lifshits:b=2", grid="log:1e-3,3e4,350",
                    fit_window=(50.0, 2e4))
    return [
        Job("fig1a", preset="fig1a",
            expect={"classical_exponent": (-0.5, 0.05),
                    "quantum_exponent": (-1.0, 0.10)}),
        Job("fig1b", preset="fig1b",
            expect={"classical_exponent": (-1.5, 0.08),
                    "quantum_exponent": (-3.0, 0.15)}),
        Job("fig2a", preset="fig2a",
            expect={"classical_exponent": (-0.5, 0.05),
                    "quantum_exponent": (-1.0, 0.10)}),
        # quantum localization: the tail stays 10x above 1/N = 1/3070
        Job("fig2b", preset="fig2b",
            lower={"saturation_quantum_mean": 10.0 / 3070}),
        Job("fig3", preset="fig3",
            expect={"saturation_classical_mean": (0.1, 1e-6),
                    "saturation_quantum_mean": (16 / 25, 0.05)}),
        Job("lifshits", config=lifshits,
            expect={"classical_decay_coeff": (2.0, 0.05),
                    "quantum_decay_coeff": (2.0 * SQRT2, 0.05),
                    "delta_p_asymptotic": (SQRT2, 0.05)}),
    ]


def _graph_spectra(seed):
    return [
        _run("er3000", f"er:3000,0.05,seed={seed}", seeded=True),
        _run("torus50", "torus:50,2"),
        _run("dendrimer10", "dendrimer:10,3"),
        _run("ring2000", "ring:2000"),
        _run("star2000", "star:2000"),
    ]


def _eigvec_chi(seed):
    return [
        _run("dendrimer8_chi", "dendrimer:8,3", vectors=True, chi=True),
        _run("star1500", "star:1500", vectors=True, grid=FIG3_GRID),
        _run("er800_chi", f"er:800,0.02,seed={seed}", seeded=True,
             vectors=True, chi=True, grid=FIG2A_GRID),
        _run("ring600_chi", "ring:600", vectors=True, chi=True, grid=FIG2A_GRID),
    ]


WORKLOADS = {
    "paper": _paper,
    "graph_spectra": _graph_spectra,
    "eigvec_chi": _eigvec_chi,
}


def jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed)


def all_job_ids() -> list[str]:
    return [job.id for name in WORKLOADS for job in jobs(name, DEFAULT_SEED)]


def graph_size(spec: str) -> tuple[int, int]:
    """(nodes, edges) of a graph spec, computed without the library.

    Closed forms for the regular families; Erdos-Renyi repeats the
    documented draw (pair k is an edge iff raw Philox4x64-10 draw k,
    keyed by the seed, is below floor(p * 2**64)).
    """
    family, _, params = spec.partition(":")
    parts = params.split(",")
    if family == "ring":
        n = int(parts[0])
        return n, n
    if family == "star":
        n = int(parts[0])
        return n, n - 1
    if family == "dendrimer":
        g, z = int(parts[0]), int(parts[1])
        n = 1 + z * ((z - 1) ** g - 1) // (z - 2)
        return n, n - 1
    if family == "torus":
        side, d = int(parts[0]), int(parts[1])
        return side**d, d * side**d
    if family == "er":
        n, p = int(parts[0]), float(parts[1])
        seed = int(parts[2].partition("=")[2])
        raw = np.random.Philox(key=seed).random_raw(n * (n - 1) // 2)
        return n, int(np.count_nonzero(raw < int(p * 2**64)))
    raise ValueError(f"no closed-form size for graph spec {spec!r}")
