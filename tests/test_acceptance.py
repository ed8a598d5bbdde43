"""Acceptance suite: one test per headline claim, at fixed tolerances.

Each test prints a single `[criterion N] name: PASS/FAIL` line (visible
with `pytest -s`), and fails with the collected reasons otherwise. Where a
claim is slope- or limit-based the tolerance is stated inline next to the
assertion; none are tuned at runtime.
"""

import math
import platform
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy
from scipy.linalg import expm

import specwalk as sw
from specwalk.cli import PRESETS, ExperimentConfig, run_experiment
from specwalk.transport import TimeGrid


def _report(number, name, failures):
    status = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    print(f"\n[criterion {number}] {name}: {status}")
    assert not failures, f"criterion {number} {name}: {failures}"


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def _spectrum(graph, vectors=False):
    return sw.decompose(graph, with_vectors=vectors)


def _series(spec, grid, exact=False):
    return sw.transport_series(spec, grid, with_exact_quantum=exact)


def _rebuilt(spec, rates):
    """V diag(exp(rates * lam)) V^T from the eigenpairs: exp(-L t) for
    rates -t, exp(-i L t) for rates -i t."""
    return (spec.eigenvectors * np.exp(rates * spec.eigenvalues)) @ spec.eigenvectors.T


def test_criterion_1_ring_scaling():
    started = time.monotonic()
    failures = []
    spec = _spectrum(sw.build_ring(200))

    p = _series(spec, sw.log_grid()).p_bar
    cl_fit = sw.fit_power_law(sw.log_grid().times[1:], p[1:], (1.0, 100.0))
    _check(failures, abs(cl_fit.exponent - (-0.50)) <= 0.05,
           f"classical exponent {cl_fit.exponent:.3f} not within -0.50 +- 0.05")

    dense = sw.linear_grid(0.5, 200.0, 9976)
    alpha = _series(spec, dense).alpha_bar_sq
    env = sw.extract_envelope(dense.times, alpha)
    qm_fit = sw.fit_power_law(env.times, env.values, (1.0, 100.0))
    _check(failures, abs(qm_fit.exponent - (-1.00)) <= 0.10,
           f"quantum envelope exponent {qm_fit.exponent:.3f} not within -1.00 +- 0.10")

    late = sw.log_grid(1e3, 1e4, 400, include_zero=False)
    tail = _series(spec, late).alpha_bar_sq
    first, second = tail[:200].mean(), tail[200:].mean()
    level = (first + second) / 2
    _check(failures, abs(first - second) <= 0.2 * level,
           f"saturation drifts: half-means {first:.4f} vs {second:.4f}")

    elapsed = time.monotonic() - started
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.1f}s >= 5s")
    _report(1, "ring N=200 scaling", failures)


def test_criterion_2_semicircle_scaling():
    started = time.monotonic()
    failures = []
    dos = sw.PowerSemicircle(nu=0.5, lam_max=2.0)

    grid = sw.log_grid(1.0, 1000.0, 120, include_zero=False)
    p = sw.continuum_series(dos, grid).p_bar
    cl_fit = sw.fit_power_law(grid.times, p, (10.0, 100.0))
    _check(failures, abs(cl_fit.exponent - (-1.50)) <= 0.08,
           f"classical exponent {cl_fit.exponent:.3f} not within -1.50 +- 0.08")

    dense = sw.linear_grid(8.0, 110.0, 1021)
    alpha = sw.continuum_series(dos, dense).alpha_bar_sq
    env = sw.extract_envelope(dense.times, alpha)
    qm_fit = sw.fit_power_law(env.times, env.values, (10.0, 100.0))
    _check(failures, abs(qm_fit.exponent - (-3.0)) <= 0.15,
           f"quantum envelope exponent {qm_fit.exponent:.3f} not within -3.0 +- 0.15")

    elapsed = time.monotonic() - started
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s")
    _report(2, "semicircle DOS scaling", failures)


def test_criterion_3_one_dimensional_continuum():
    failures = []
    dense = sw.linear_grid(5.0, 1100.0, 54751)
    series = sw.lattice_return_1d_product(1, dense)
    env = sw.extract_envelope(dense.times, series)
    fit = sw.fit_power_law(env.times, env.values, (10.0, 1000.0))
    _check(failures, abs(fit.exponent - (-1.00)) <= 0.05,
           f"J0(2t)^2 envelope exponent {fit.exponent:.3f} not within -1.00 +- 0.05")

    spec = _spectrum(sw.build_ring(1000))
    grid = sw.linear_grid(0.5, 249.5, 996)
    alpha = _series(spec, grid).alpha_bar_sq
    reference = sw.lattice_return_1d_product(1, grid)
    worst = np.abs(alpha - reference).max()
    _check(failures, worst <= 1e-6,
           f"ring N=1000 deviates from J0(2t)^2 by {worst:.2e} before t=250")
    _report(3, "1D continuum envelope and finite-size match", failures)


def test_criterion_4_lifshits_limit():
    started = time.monotonic()
    failures = []
    target = math.sqrt(2.0)
    for b in (2.0, 3.0):
        dos = sw.Lifshits(b=b)
        grid = sw.log_grid(1e-2, 3e4, 400, include_zero=False)
        series = sw.continuum_series(dos, grid)
        p, alpha = series.p_bar, series.alpha_bar_sq
        # the quantum curve does not oscillate here, so it is its own envelope
        ratio = sw.efficiency_ratio_series(grid.times, p, (grid.times, alpha))
        _check(failures, abs(ratio.asymptotic - target) <= 0.05,
               f"b={b}: ratio {ratio.asymptotic:.4f} not within sqrt(2) +- 0.05")
        crossover = sw.detect_crossover(ratio.times, ratio.values)
        _check(failures, crossover is not None, f"b={b}: no crossover found")

    elapsed = time.monotonic() - started
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s >= 60s")
    _report(4, "Lifshits-tail efficiency ratio", failures)


def test_criterion_5_star_localization():
    failures = []
    spec = _spectrum(sw.build_star(10), vectors=True)

    window = sw.linear_grid(10.0, 100.0, 2000)
    tail_mean = _series(spec, window).alpha_bar_sq.mean()
    _check(failures, abs(tail_mean - 16 / 25) <= 0.05,
           f"|alpha|^2 mean {tail_mean:.4f} not within 0.64 +- 0.05")
    # the exact long-time mean of |alpha|^2 is sum_E m_E^2 / N^2: the
    # levels 0, 1 and N of multiplicities 1, N - 2 and 1
    n, mult = 10, sw.graph_spectrum(sw.build_star(10)).mult.tolist()
    limit = Fraction(sum(m * m for m in mult), n * n)
    _check(failures, limit == Fraction((n - 2) ** 2 + 2, n * n) == Fraction(66, 100),
           f"|alpha|^2 long-time limit {limit} != 33/50")

    grid = sw.merge_grids(sw.linear_grid(0.01, 100.0, 5000),
                          sw.log_grid(100.0, 1e4, 200, include_zero=False))
    series = _series(spec, grid, exact=True)
    p, pi = series.p_bar, series.pi_bar
    _check(failures, bool(np.all(p < pi)),
           "classical return not strictly below exact quantum return")

    final = _series(spec, TimeGrid(np.array([1e4]))).p_bar[0]
    _check(failures, abs(final - 0.1) <= 1e-6,
           f"classical plateau {final!r} not within 1e-6 of 1/10")
    _report(5, "star N=10 localization", failures)


def test_criterion_6_dendrimer_non_scaling():
    failures = []
    started = time.monotonic()
    graph = sw.build_dendrimer(10, 3)
    _check(failures, graph.n == 3070, f"node count {graph.n} != 3070")
    spec = _spectrum(graph)  # eigenvalues only
    eig_elapsed = time.monotonic() - started
    _check(failures, eig_elapsed < 60.0,
           f"eigenvalue-only runtime {eig_elapsed:.1f}s >= 60s")

    grid = sw.log_grid()
    t = grid.times[1:]
    p_dend = _series(spec, grid).p_bar[1:]
    p_ring = _series(_spectrum(sw.build_ring(200)), grid).p_bar[1:]

    matched = (1.0, 100.0)
    resid_dend = sw.fit_power_law(t, p_dend, matched).residual
    resid_ring = sw.fit_power_law(t, p_ring, matched).residual
    _check(failures, resid_dend > 3.0 * resid_ring,
           f"matched-window residual ratio {resid_dend / resid_ring:.2f} <= 3")
    # no intermediate-time decade scales either (t >= 2 skips the initial
    # transient, where neither graph is in its scaling regime)
    for lo in (2.0, 5.0, 10.0, 30.0, 100.0):
        rd = sw.fit_power_law(t, p_dend, (lo, 10 * lo)).residual
        rr = sw.fit_power_law(t, p_ring, (lo, 10 * lo)).residual
        _check(failures, rd > 3.0 * rr,
               f"decade [{lo},{10 * lo}] residual ratio {rd / rr:.2f} <= 3")

    late = sw.log_grid(1e3, 1e4, 400, include_zero=False)
    qm_tail = _series(spec, late).alpha_bar_sq.mean()
    _check(failures, qm_tail > 10.0 / graph.n,
           f"quantum tail {qm_tail:.4f} not 10x above 1/N={1 / graph.n:.2e}")
    # N |alpha|^2(inf) = sum_E m_E^2 / N, the localization ratio: 1 would be
    # a spectrum without degeneracy
    ratio = sum(m * m for m in sw.graph_spectrum(graph).mult.tolist()) / graph.n
    _check(failures, abs(ratio - 367.1726384364821) <= 1e-9,
           f"N |alpha|^2(inf) = {ratio!r} not within 1e-9 of 367.1726384364821")
    _report(6, "dendrimer generation 10 non-scaling", failures)


FAMILIES = {
    "ring": sw.build_ring(48),
    "star": sw.build_star(33),
    "dendrimer": sw.build_dendrimer(4, 3),
    "torus": sw.build_hypercubic(6, 2),
    "er": sw.build_erdos_renyi(40, 0.3, seed=5),
}

TINY = {
    "ring": sw.build_ring(6),
    "star": sw.build_star(5),
    "dendrimer": sw.build_dendrimer(1, 3),
    "torus": sw.build_hypercubic(3, 1),
    "er": sw.build_erdos_renyi(8, 0.5, seed=2),
}


def test_criterion_7_property_suite():
    failures = []
    grid = sw.log_grid(1e-2, 1e3, 150)
    spot_times = (0.7, 7.3)

    for name, graph in FAMILIES.items():
        lap = sw.laplacian(graph)
        _check(failures, bool(np.all(lap.sum(axis=1) == 0.0)),
               f"{name}: Laplacian row sums not exactly zero")
        spec = _spectrum(graph, vectors=True)

        trace_gap = abs(spec.eigenvalues.sum() - 2 * graph.edge_count)
        _check(failures, trace_gap <= 1e-10 * max(1, 2 * graph.edge_count),
               f"{name}: trace identity off by {trace_gap:.2e}")

        series = _series(spec, grid, exact=True)
        alpha, pi = series.alpha_bar_sq, series.pi_bar
        _check(failures, float((pi - alpha).min()) >= -1e-10,
               f"{name}: Cauchy-Schwarz bound violated by {(alpha - pi).max():.2e}")

        for t in spot_times:
            trans = _rebuilt(spec, -t)
            col_gap = np.abs(trans.sum(axis=0) - 1).max()
            _check(failures, col_gap <= 1e-9,
                   f"{name}: stochasticity off by {col_gap:.2e} at t={t}")
            _check(failures,
                   trans.min() >= -1e-9 and trans.max() <= 1 + 1e-9,
                   f"{name}: transition entries leave [0,1] at t={t}")
            prob = np.abs(_rebuilt(spec, -1j * t)) ** 2
            row_gap = np.abs(prob.sum(axis=1) - 1).max()
            _check(failures, row_gap <= 1e-9,
                   f"{name}: unitarity off by {row_gap:.2e} at t={t}")

        chi = sw.chi_matrix(spec)
        chi_gap = np.abs(chi.sum(axis=0) - 1).max()
        _check(failures, chi_gap <= 1e-9, f"{name}: chi columns off by {chi_gap:.2e}")
        _check(failures, chi.min() >= -1e-12 and chi.max() <= 1 + 1e-12,
               f"{name}: chi entries leave [0,1]")

    for name in ("ring", "torus"):
        spec = _spectrum(FAMILIES[name], vectors=True)
        series = _series(spec, grid, exact=True)
        gap = np.abs(series.pi_bar - series.alpha_bar_sq).max()
        _check(failures, gap <= 1e-9,
               f"{name}: regular-graph exactness off by {gap:.2e}")

    for name, graph in TINY.items():
        spec = _spectrum(graph, vectors=True)
        lap = sw.laplacian(graph)
        for t in spot_times:
            cl_gap = np.abs(_rebuilt(spec, -t) - expm(-lap * t)).max()
            qm_gap = np.abs(np.abs(_rebuilt(spec, -1j * t)) ** 2
                            - np.abs(expm(-1j * lap * t)) ** 2).max()
            _check(failures, cl_gap <= 1e-8,
                   f"{name}: classical expm oracle off by {cl_gap:.2e}")
            _check(failures, qm_gap <= 1e-8,
                   f"{name}: quantum expm oracle off by {qm_gap:.2e}")
    _report(7, "property suite over all families", failures)


def test_criterion_8_preset_determinism(tmp_path):
    failures = []
    for name in sorted(PRESETS):
        first = run_experiment(ExperimentConfig(
            **{**PRESETS[name].__dict__, "out": str(tmp_path / name / "a")}))
        second = run_experiment(ExperimentConfig(
            **{**PRESETS[name].__dict__, "out": str(tmp_path / name / "b")}))
        csvs = [f for f in first.files if f.endswith(".csv")]
        _check(failures, bool(csvs), f"{name}: produced no CSV artifacts")
        for artifact in csvs:
            same = (tmp_path / name / "a" / artifact).read_bytes() == \
                (tmp_path / name / "b" / artifact).read_bytes()
            _check(failures, same, f"{name}: {artifact} differs between reruns")
    _report(8, "preset byte-reproducibility", failures)


def _numeric_build():
    """What decides the last digit of a computed value beyond the code:
    the machine, numpy and scipy with the OpenBLAS each links, and the
    SIMD targets numpy found on this CPU, which also steer OpenBLAS's
    choice of kernels at run time."""
    versions = (platform.machine(), np.__version__, scipy.__version__)
    if versions != PRESET_CSV_BUILD[:3]:
        return versions  # before numpy 1.26, show_config has no mode
    blas = [lib.show_config(mode="dicts")["Build Dependencies"].get("blas", {}).get("version")
            for lib in (np, scipy)]
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    return (*versions, *blas, *simd)


# sha256 of every preset CSV as the writers produced it before they moved
# to the vectorised formatter, recorded on the build below; fig2b's
# spectrum and degeneracies and fig3's series were re-recorded when the
# trees moved to one shell reduction, which sets the stationary level to
# exactly 0.0 and takes the star's amplitudes from its 2 x 2 block, and
# fig2b's degeneracies, series and deltap again when the clusters moved to
# the modes, which keeps each level of bit-identical copies at their value,
# and fig3's series when pi_bar moved to the projector factor, which moved
# it on 5716 rows by at most 5.6e-16 (see CHANGES.md). The presets take
# closed-form spectra or quadrature, but numpy's SIMD loops and the series kernel's BLAS block products may
# round a last digit differently on another build or CPU, so there the
# digests do not apply.
PRESET_CSV_BUILD = ("x86_64", "2.4.6", "1.17.1", "0.3.31.188.0", "0.3.30",
                    "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
PRESET_CSV_SHA256 = {
    "fig1a": {
        "deltap.csv": "10553388510bdc36395ead5a277f48bea31faa934afbff456af15eb38ed27993",
        "series.csv": "4b54b14fe962255262f16272dacbb00918c1a198b0d564f4bd4d662388dc6eaa",
    },
    "fig1b": {
        "deltap.csv": "7f69139e5ad2ad81cee9a0310d7e2e6ac778a58c4e7bf699822622ca0a31e6b6",
        "series.csv": "044fd68fea5a9944b117629268f79650d89cc217a1b725c6d201c6241792a726",
    },
    "fig2a": {
        "degeneracies.csv": "d885027a20c35bec99f96c58523e810d10c6b01316006845ebe24edfaac7b948",
        "deltap.csv": "10141e2eaf3f632631741dc78b1a9082e45a8c970e54011ef8aa521eef9d6c30",
        "series.csv": "03d106ff2cf198cece4fc6543acfde67ac0127cc79e32fd0e42b287141d3d7c3",
        "spectrum.csv": "155d57859608869a953a16c06b6e1ccdc087bd3248a3d3fa975847dded7d366f",
    },
    "fig2b": {
        "degeneracies.csv": "66922ef843404ba706ce04c0ca8ad9279bda54b99452098323e1da99882080af",
        "deltap.csv": "ad511975046c204823d83e4f274663f8581807b540299656e8a91021d1c072ad",
        "series.csv": "7293d012e3ec7defc3672bd392b3a45a169895dc031cbb01b0fb4a97ba5216f8",
        "spectrum.csv": "85fb001c7d630b743ff8b2aa95685cd21fba892d43c33bf6bdde3f953f78b734",
    },
    "fig3": {
        "degeneracies.csv": "4452882323410047f823e348f06542a65d30dd9b1622ad21ef5f98567fce50a7",
        "deltap.csv": "5fed9fdbb2b285d01049bab3c12b6674700adf49f3871416fb0ae84d25e918f4",
        "series.csv": "ab8cabb32bfbab202e3f6e06f8631a8c5627cee0964ed46b43037e6da8fb5565",
        "spectrum.csv": "db43f8b4fabe78b268694b3452b9fc2901b2a7d3febe128c2d5c394684d61480",
    },
}


def test_preset_csvs_match_recorded_digests(tmp_path):
    """Preset CSVs stay byte-identical to the recorded ones, not only to
    a rerun of the same code as criterion 8 checks."""
    assert sorted(PRESET_CSV_SHA256) == sorted(PRESETS)
    build = _numeric_build()
    if build != PRESET_CSV_BUILD:
        pytest.skip(f"digests were recorded on {PRESET_CSV_BUILD}, not on {build}")
    for name, recorded in PRESET_CSV_SHA256.items():
        manifest = run_experiment(ExperimentConfig(
            **{**PRESETS[name].__dict__, "out": str(tmp_path / name)}))
        csvs = {f: digest for f, digest in manifest.files.items() if f.endswith(".csv")}
        assert csvs == recorded, name


# sha256 of chi.csv on the three chi graphs of the benchmark, recorded on
# PRESET_CSV_BUILD when chi.csv still went through an n^2 sort of chi's
# bit patterns: the orbit tables and the symmetric triangle must write the
# same bytes
CHI_CSV_SHA256 = {
    "ring:600": "c24ca4bb9252431b85e797ddf42b3a6fc9f68221d06b8f55fbac72736f82c938",
    "dendrimer:8,3": "ee9adbd3e4cfcea60544670d2104d2d712f819a3ff02ab9a5e6697a4d140e7e7",
    "er:800,0.02,seed=1": "ae385fb7f1eaf11207c8be2663cfed82c0443f2466332b14c86f2f9e847fb12a",
}


@pytest.mark.parametrize("graph", sorted(CHI_CSV_SHA256))
def test_chi_csvs_match_recorded_digests(tmp_path, graph):
    build = _numeric_build()
    if build != PRESET_CSV_BUILD:
        pytest.skip(f"digests were recorded on {PRESET_CSV_BUILD}, not on {build}")
    manifest = run_experiment(ExperimentConfig(graph=graph, chi=True, out=str(tmp_path)),
                              "spectrum")
    assert manifest.files["chi.csv"] == CHI_CSV_SHA256[graph]
