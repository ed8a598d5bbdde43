"""Correctness gate for one job's output directory.

Every check here holds at any seed:

- the manifest's sha256 digests match the files (an independent re-hash);
- the sum of the eigenvalues equals 2 * edges, with the edge count taken
  from `workloads.graph_size`, not from the library;
- p(0) = 1 where the grid has t = 0, and p does not increase;
- |alpha|^2 <= pi_bar <= 1 where pi_bar is written;
- every chi column sums to 1;
- the paper's exponents and limits, for the jobs that carry them.

Recorded reference values (reference.json, written from the unmodified
library at the default seed) are compared as well, for every job that
does not depend on the seed and, at the default seed, for those that do.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# series agree with the reference to this relative tolerance; the floor
# sits near double underflow because Lifshits series reach 1e-280
SERIES_RTOL = 1e-5
SERIES_FLOOR = 1e-300
# graph quantum series are sums of unit phases: rounding is absolute
PHASE_ATOL = 1e-13
REPORT_RTOL = 1e-4
REPORT_ATOL = 1e-9
REPORT_KEYS = ("classical_exponent", "quantum_exponent",
               "classical_prefactor_exponent", "quantum_prefactor_exponent",
               "classical_decay_coeff", "quantum_decay_coeff",
               "delta_p_asymptotic", "saturation_classical_mean",
               "saturation_quantum_mean")
PROB_TOL = 1e-10
SUM_RTOL = 1e-9
SAMPLES = 41


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_digests(out_dir: Path) -> tuple[dict[str, str], list[str]]:
    """Digests listed in manifest.txt, and the files that fail re-hashing."""
    files = {}
    for line in (out_dir / "manifest.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("file."):
            files[key[len("file."):]] = value
    bad = [f"manifest: {name} digest mismatch" for name, digest in files.items()
           if not (out_dir / name).is_file() or _sha256(out_dir / name) != digest]
    return files, bad


def _expected_files(config) -> set[str]:
    names = {"series.csv", "report.txt"}
    if config.graph is not None:
        names |= {"spectrum.csv", "degeneracies.csv"}
    if config.chi:
        names.add("chi.csv")
    return names


def read_series(path: Path) -> dict[str, np.ndarray]:
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def read_report(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        try:
            out[key] = float(value)
        except ValueError:
            pass
    return out


def _series_problems(config, s) -> list[str]:
    problems = []
    want = ["t", "p_bar", "alpha_bar_sq"] + (["pi_bar"] if config.vectors else [])
    if list(s) != want:
        return [f"series columns {list(s)} != {want}"]
    if not all(np.all(np.isfinite(col)) for col in s.values()):
        return ["series has non-finite values"]
    t, p, a = s["t"], s["p_bar"], s["alpha_bar_sq"]
    if t[0] == 0.0 and abs(p[0] - 1.0) > 1e-9:
        problems.append(f"p(0) = {p[0]!r} != 1")
    rises = np.diff(p) > 1e-9 * p[:-1]
    if rises.any():
        k = int(np.argmax(rises))
        problems.append(f"p increases at t = {t[k + 1]!r}")
    if p.min() <= 0 or p.max() > 1 + PROB_TOL:
        problems.append("p outside (0, 1]")
    if a.min() < 0 or a.max() > 1 + PROB_TOL:
        problems.append("|alpha|^2 outside [0, 1]")
    if "pi_bar" in s:
        pi = s["pi_bar"]
        if np.any(a > pi + PROB_TOL):
            problems.append("|alpha|^2 exceeds pi_bar")
        if pi.max() > 1 + PROB_TOL:
            problems.append("pi_bar exceeds 1")
    return problems


def _spectrum_problems(out_dir: Path, nodes: int, edges: int) -> list[str]:
    problems = []
    lam = np.loadtxt(out_dir / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    if len(lam) != nodes:
        problems.append(f"{len(lam)} eigenvalues for {nodes} nodes")
    if abs(lam.sum() - 2 * edges) > SUM_RTOL * max(1.0, 2 * edges):
        problems.append(f"eigenvalue sum {lam.sum()!r} != 2 * {edges} edges")
    mult = np.loadtxt(out_dir / "degeneracies.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    if int(mult.sum()) != nodes:
        problems.append(f"multiplicities sum to {int(mult.sum())}, not {nodes}")
    return problems


def _chi_problems(path: Path, nodes: int) -> list[str]:
    chi = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    if chi.shape != (nodes, nodes):
        return [f"chi has shape {chi.shape}, not {nodes}x{nodes}"]
    gap = np.abs(chi.sum(axis=0) - 1.0).max()
    return [f"chi column sums off 1 by {gap:.3e}"] if gap > SUM_RTOL else []


def _close(value, ref, rtol, atol) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


def _reference_problems(config, out_dir: Path, ref: dict) -> list[str]:
    problems = []
    s = read_series(out_dir / "series.csv")
    rows = ref["series"]["rows"]
    if len(s["t"]) <= max(rows):
        return ["series shorter than the reference"]
    atol = PHASE_ATOL if config.graph is not None else SERIES_FLOOR
    for col, values in ref["series"]["values"].items():
        got = s[col][rows]
        bad = [k for k, (g, r) in enumerate(zip(got, values))
               if not _close(g, r, SERIES_RTOL, SERIES_FLOOR if col == "t" else atol)]
        if bad:
            k = bad[0]
            problems.append(f"{col} at row {rows[k]}: {got[k]!r} vs reference {values[k]!r}")
    report = read_report(out_dir / "report.txt")
    for key, value in ref["report"].items():
        if key not in report or not _close(report[key], value, REPORT_RTOL, REPORT_ATOL):
            problems.append(f"report {key} = {report.get(key)!r} vs reference {value!r}")
    return problems


def check_outputs(job, config, graph_size, reference) -> list[str]:
    """Every problem found in one job's outputs; empty when all checks pass.

    `config` is the job's ExperimentConfig, `graph_size` (nodes, edges)
    for graph jobs, and `reference` the recorded entry for this job, or
    None where it does not apply.
    """
    out_dir = Path(config.out)
    files, problems = manifest_digests(out_dir)
    missing = _expected_files(config) - set(files)
    if missing:
        problems.append(f"missing artifacts {sorted(missing)}")
    if problems:
        return problems
    problems += _series_problems(config, read_series(out_dir / "series.csv"))
    if graph_size is not None:
        problems += _spectrum_problems(out_dir, *graph_size)
        if config.chi:
            problems += _chi_problems(out_dir / "chi.csv", graph_size[0])
    report = read_report(out_dir / "report.txt")
    for key, (target, tol) in job.expect.items():
        if key not in report or abs(report[key] - target) > tol:
            problems.append(f"{key} = {report.get(key)!r}, paper value {target!r} +- {tol}")
    for key, bound in job.lower.items():
        if key not in report or not report[key] > bound:
            problems.append(f"{key} = {report.get(key)!r} not above {bound!r}")
    if reference is not None:
        problems += _reference_problems(config, out_dir, reference)
    return problems


def sample_outputs(out_dir: Path) -> dict:
    """The reference entry of one job: sampled series rows and report values."""
    report = read_report(out_dir / "report.txt")
    s = read_series(out_dir / "series.csv")
    rows = sorted({int(k) for k in np.linspace(0, len(s["t"]) - 1, SAMPLES)})
    return {"report": {k: report[k] for k in REPORT_KEYS if k in report},
            "series": {"rows": rows,
                       "values": {col: [float(x) for x in values[rows]]
                                  for col, values in s.items()}}}
