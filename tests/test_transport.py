import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import specwalk.cli as cli
from specwalk import spectral, transport

from specwalk import (
    Graph,
    NumericalError,
    ParseError,
    ResourceLimitError,
    Spectrum,
    build_dendrimer,
    build_erdos_renyi,
    build_hypercubic,
    build_ring,
    build_star,
    chi_matrix,
    decompose,
    graph_spectrum,
    laplacian,
    linear_grid,
    log_grid,
    merge_grids,
    parse_graph_spec,
    transport_series,
)
import specwalk._csvtext as _csvtext
from specwalk._csvtext import _REPR_BELOW, float_text, int_text
from specwalk.scaling import EfficiencyRatioSeries, efficiency_report, ratio_csv
from specwalk.spectral import _blocks, projector_factor, spectrum_csv
from specwalk.transport import (TimeGrid, TransportSeries, chi_csv, clamp_unit_interval,
                                read_series_csv, series_csv)


def csv_text(blocks):
    """The text of a streamed writer's byte blocks."""
    return b"".join(blocks).decode()


def spectrum_of(g, vectors=False):
    return decompose(g, with_vectors=vectors)


def p_bar(s, grid):
    return transport_series(s, grid).p_bar


def alpha_bar_sq(s, grid):
    return transport_series(s, grid).alpha_bar_sq


def pi_bar(s, grid):
    return transport_series(s, grid, with_exact_quantum=True).pi_bar


def transition_matrix(s, t):
    """exp(-L t) rebuilt from the eigenpairs."""
    return (s.eigenvectors * np.exp(-np.clip(s.eigenvalues, 0.0, None) * t)) @ s.eigenvectors.T


def amplitude_matrix(s, t):
    """exp(-i L t) rebuilt from the eigenpairs."""
    return (s.eigenvectors * np.exp(-1j * s.eigenvalues * t)) @ s.eigenvectors.T


def disjoint_union(*graphs):
    edges, offset = set(), 0
    for g in graphs:
        edges |= {(i + offset, j + offset) for i, j in g.edges}
        offset += g.n
    return Graph(n=offset, edges=frozenset(edges))


def relabel(g, perm):
    return Graph(n=g.n, edges=frozenset(
        (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges))


# per-eigenvalue oracle: every eigenvalue and eigenvector on its own, in
# complex arithmetic over the whole grid at once

def oracle_classical(s, grid):
    lam = np.clip(s.eigenvalues, 0.0, None)
    with np.errstate(under="ignore"):
        return np.exp(-np.outer(grid.times, lam)).mean(axis=1)


def oracle_quantum_bound(s, grid):
    lam = np.clip(s.eigenvalues, 0.0, None)
    return np.abs(np.exp(-1j * np.outer(grid.times, lam)).mean(axis=1)) ** 2


def oracle_exact_average(s, grid):
    lam = np.clip(s.eigenvalues, 0.0, None)
    amps = np.exp(-1j * np.outer(grid.times, lam)) @ (s.eigenvectors**2).T
    return (np.abs(amps) ** 2).mean(axis=1)


def oracle_chi(s):
    # one projector per cluster of the running-mean rule at the default
    # tolerance, singletons included
    lam, v = s.eigenvalues, s.eigenvectors
    tol = 1e-8 * max(1.0, lam[-1])
    bounds, start = [], 0
    for k in range(1, s.n + 1):
        if k == s.n or abs(lam[k] - lam[start:k].mean()) > tol:
            bounds.append((start, k))
            start = k
    chi = np.zeros((s.n, s.n))
    for start, stop in bounds:
        proj = v[:, start:stop] @ v[:, start:stop].T
        chi += proj**2
    return chi


def chi_csv_forms(chi):
    """(text, oracle text) of chi through each index `chi_csv` reads:
    an array, here each entry read from the reversed entries with one
    value no entry reads, and the packed lower triangle of a symmetric
    chi, here chi with its upper triangle mirrored from its lower one."""
    n = len(chi)
    index = (n * n - 1 - np.arange(n * n)).reshape(n, n)
    sym = chi.copy()
    upper = np.triu_indices(n, 1)
    sym[upper] = chi.T[upper]
    triangle = sym[np.tri(n, dtype=bool)], transport._TriangleIndex(n)
    return [(csv_text(chi_csv(np.append(chi.ravel()[::-1], np.nan), index)), oracle_chi_csv(chi)),
            (csv_text(chi_csv(*triangle)), oracle_chi_csv(sym))]


def oracle_triangle_index(n):
    """The n x n index of a symmetric matrix's entries in its lower
    triangle packed in np.tril_indices order, materialized."""
    index = np.zeros((n, n), dtype=np.int64)
    rows, cols = np.tril_indices(n)
    index[rows, cols] = index[cols, rows] = np.arange(len(rows))
    return index


def oracle_chi_csv(chi):
    n = chi.shape[0]
    lines = ["node," + ",".join(str(k) for k in range(n))]
    for j in range(n):
        lines.append(f"{j}," + ",".join(repr(float(x)) for x in chi[j]))
    return "\n".join(lines) + "\n"


ORACLE_GRAPHS = ["star:1500", "ring:600", "dendrimer:8,3", "er:800,0.02,seed=1", "union"]


@pytest.fixture(scope="module")
def oracle_spectra():
    cache = {}

    def get(name):
        if name not in cache:
            g = (disjoint_union(build_ring(30), build_star(25)) if name == "union"
                 else parse_graph_spec(name))
            cache[name] = spectrum_of(g, vectors=True)
        return cache[name]

    return get


class TestTimeGrid:
    def test_default_grid(self):
        grid = log_grid()
        assert grid.times[0] == 0.0
        assert len(grid) == 601
        assert grid.times[1] == pytest.approx(1e-2)
        assert grid.times[-1] == pytest.approx(1e4)

    def test_log_grid_without_zero(self):
        grid = log_grid(0.1, 10, 5, include_zero=False)
        assert grid.times[0] == pytest.approx(0.1)

    def test_merge_dedups(self):
        merged = merge_grids(linear_grid(0, 1, 11), linear_grid(0.5, 2, 16))
        assert np.all(np.diff(merged.times) > 0)

    @pytest.mark.parametrize("times", [
        [], [-1.0, 2.0], [0.0, 0.0, 1.0], [1.0, np.inf], [2.0, 1.0],
    ])
    def test_rejects_bad_grids(self, times):
        with pytest.raises(ValueError):
            TimeGrid(np.array(times, dtype=float))


class TestClassicalReturn:
    def test_starts_at_one(self):
        s = spectrum_of(build_erdos_renyi(20, 0.4, seed=3))
        p = p_bar(s, log_grid())
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_star_closed_form(self):
        # spectrum {0, 1 x (N-2), N} turns the average into
        # (1 + (N-2) e^-t + e^-Nt) / N; the largest rate is the eigenvalue N
        s = spectrum_of(build_star(10))
        grid = linear_grid(0.0, 20.0, 81)
        expected = (1 + 8 * np.exp(-grid.times) + np.exp(-10 * grid.times)) / 10
        np.testing.assert_allclose(p_bar(s, grid), expected, atol=1e-12)

    def test_monotone_non_increasing(self):
        for g in [build_ring(30), build_dendrimer(3, 3), build_erdos_renyi(25, 0.3, seed=1)]:
            p = p_bar(spectrum_of(g), log_grid())
            assert np.all(np.diff(p) <= 1e-15)

    def test_connected_limit_is_one_over_n(self):
        g = build_ring(16)
        p = p_bar(spectrum_of(g), TimeGrid(np.array([1e6])))
        assert p[0] == pytest.approx(1 / 16, abs=1e-12)

    def test_disconnected_limit_counts_components(self):
        g = build_erdos_renyi(12, 0.08, seed=3)  # 4 components
        s = spectrum_of(g)
        p = p_bar(s, TimeGrid(np.array([1e8])))
        # near-zero eigenvalues sit at ~1e-16, so the plateau is exact
        # only to ~1e-16 * t at this horizon
        zero_cluster = s.mult[0]
        assert zero_cluster == 4
        assert p[0] == pytest.approx(zero_cluster / 12, abs=1e-7)

    def test_underflow_is_flushed(self):
        s = spectrum_of(build_star(10))
        p = p_bar(s, TimeGrid(np.array([1e5])))
        assert np.isfinite(p[0])
        assert p[0] == pytest.approx(0.1, abs=1e-15)


class TestQuantumReturnBound:
    def test_starts_at_one(self):
        s = spectrum_of(build_dendrimer(2, 3))
        a = alpha_bar_sq(s, log_grid())
        assert a[0] == pytest.approx(1.0, abs=1e-12)

    def test_ring4_revival_at_pi(self):
        # spectrum {0, 2, 2, 4}: all phases realign at t = pi
        s = spectrum_of(build_ring(4))
        a = alpha_bar_sq(s, TimeGrid(np.array([np.pi])))
        assert a[0] == pytest.approx(1.0, abs=1e-12)

    def test_star_fluctuates_about_dominant_term(self):
        s = spectrum_of(build_star(10))
        grid = linear_grid(10, 100, 1800)
        a = alpha_bar_sq(s, grid)
        assert a.mean() == pytest.approx((10 - 2) ** 2 / 10**2, abs=0.05)

    def test_bounded_by_one(self):
        s = spectrum_of(build_erdos_renyi(30, 0.3, seed=9))
        a = alpha_bar_sq(s, log_grid())
        assert np.all((a >= 0) & (a <= 1))


class TestExactAverageReturn:
    def test_needs_vectors(self):
        s = spectrum_of(build_ring(8))
        with pytest.raises(ValueError, match="eigenvector"):
            pi_bar(s, log_grid())

    def test_starts_at_one(self):
        s = spectrum_of(build_star(6), vectors=True)
        pi = pi_bar(s, log_grid())
        assert pi[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [build_ring(50), build_hypercubic(5, 2)],
                             ids=["ring", "torus"])
    def test_exact_on_regular_graphs(self, g):
        s = spectrum_of(g, vectors=True)
        grid = log_grid(1e-2, 1e3, 200)
        pi = pi_bar(s, grid)
        alpha = alpha_bar_sq(s, grid)
        np.testing.assert_allclose(pi, alpha, atol=1e-9)

    def test_star_classical_below_exact_quantum(self):
        s = spectrum_of(build_star(10), vectors=True)
        grid = log_grid(1e-2, 1e3, 300, include_zero=False)
        assert np.all(p_bar(s, grid) < pi_bar(s, grid))

    def test_cauchy_schwarz_bound(self):
        for g in [build_star(12), build_dendrimer(3, 3),
                  build_erdos_renyi(24, 0.3, seed=5)]:
            s = spectrum_of(g, vectors=True)
            grid = log_grid(1e-2, 1e3, 150)
            gap = pi_bar(s, grid) - alpha_bar_sq(s, grid)
            assert gap.min() >= -1e-10

    def test_unnormalized_vectors_raise(self):
        # vectors scaled by 1.1 give pi_bar(0) = 1.1**4, no rounding slip
        s = spectrum_of(build_star(6), vectors=True)
        bad = Spectrum(s.values, eigenvectors=1.1 * s.eigenvectors)
        with pytest.raises(NumericalError, match="outside"):
            pi_bar(bad, log_grid())


class TestClampUnitInterval:
    def test_rounding_slips_are_clipped(self):
        got = clamp_unit_interval(np.array([-1e-13, 0.5, 1.0 + 1e-13]))
        np.testing.assert_array_equal(got, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("bad", [-2e-12, 1.0 + 2e-12, np.nan])
    def test_material_overshoot_raises(self, bad):
        with pytest.raises(NumericalError, match="index 1"):
            clamp_unit_interval(np.array([0.5, bad, 0.25]))


class TestPairwise:
    """The eigenpairs carry the transition probabilities between nodes."""

    def test_return_at_zero(self):
        s = spectrum_of(build_ring(7), vectors=True)
        assert transition_matrix(s, 0.0)[3, 3] == pytest.approx(1.0)
        assert abs(amplitude_matrix(s, 0.0)[3, 3]) ** 2 == pytest.approx(1.0)

    def test_triangle_equipartition(self):
        s = spectrum_of(build_ring(3), vectors=True)
        assert transition_matrix(s, 1e6)[1, 0] == pytest.approx(1 / 3, abs=1e-12)

    def test_star_core_to_leaf_equipartition(self):
        s = spectrum_of(build_star(10), vectors=True)
        assert transition_matrix(s, 1e6)[5, 0] == pytest.approx(1 / 10, abs=1e-12)

    def test_classical_row_normalization(self):
        s = spectrum_of(build_dendrimer(2, 3), vectors=True)
        for t in (0.3, 2.0, 50.0):
            assert transition_matrix(s, t)[:, 4].sum() == pytest.approx(1.0, abs=1e-9)

    def test_quantum_unitarity(self):
        s = spectrum_of(build_erdos_renyi(12, 0.5, seed=7), vectors=True)
        total = (np.abs(amplitude_matrix(s, 7.3)[:, 2]) ** 2).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


class TestMatrixExponentialOracle:
    """The eigenpairs and the averaged series must agree with dense expm on
    small graphs."""

    small_graphs = [
        build_ring(6),
        build_star(5),
        build_dendrimer(1, 3),
        build_hypercubic(3, 1),
        build_erdos_renyi(8, 0.5, seed=2),
        Graph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3)})),
    ]

    @pytest.mark.parametrize("g", small_graphs)
    @pytest.mark.parametrize("t", [0.0, 0.4, np.pi / 2, 7.3])
    def test_classical_matches_expm(self, g, t):
        s = spectrum_of(g, vectors=True)
        oracle = expm(-laplacian(g) * t)
        np.testing.assert_allclose(transition_matrix(s, t), oracle, atol=1e-8)

    @pytest.mark.parametrize("g", small_graphs)
    @pytest.mark.parametrize("t", [0.0, 0.4, np.pi / 2, 7.3])
    def test_quantum_matches_expm(self, g, t):
        s = spectrum_of(g, vectors=True)
        oracle = expm(-1j * laplacian(g) * t)
        np.testing.assert_allclose(np.abs(amplitude_matrix(s, t)) ** 2,
                                   np.abs(oracle) ** 2, atol=1e-8)

    def test_ring4_pairwise_quantum_value(self):
        g = build_ring(4)
        s = spectrum_of(g, vectors=True)
        t = np.pi / 2
        oracle = np.abs(expm(-1j * laplacian(g) * t)[2, 0]) ** 2
        assert abs(amplitude_matrix(s, t)[2, 0]) ** 2 == pytest.approx(oracle, abs=1e-10)

    def test_averages_match_expm(self):
        g = build_erdos_renyi(7, 0.6, seed=3)
        s = spectrum_of(g, vectors=True)
        grid = TimeGrid(np.array([0.9, 3.7]))
        for idx, t in enumerate(grid.times):
            cl = np.trace(expm(-laplacian(g) * t)) / g.n
            qm = np.mean(np.abs(np.diag(expm(-1j * laplacian(g) * t))) ** 2)
            assert p_bar(s, grid)[idx] == pytest.approx(cl, abs=1e-8)
            assert pi_bar(s, grid)[idx] == pytest.approx(qm, abs=1e-8)


class TestChiMatrix:
    def test_single_node(self):
        s = decompose(Graph(n=1, edges=[]), with_vectors=True)
        np.testing.assert_array_equal(chi_matrix(s), [[1.0]])

    def test_columns_sum_to_one(self):
        for g in [build_ring(20), build_star(9), build_dendrimer(3, 3)]:
            chi = chi_matrix(spectrum_of(g, vectors=True))
            np.testing.assert_allclose(chi.sum(axis=0), 1.0, atol=1e-9)
            assert chi.min() >= -1e-12 and chi.max() <= 1 + 1e-12
            np.testing.assert_allclose(chi, chi.T, atol=1e-12)

    def test_matches_brute_force_time_average(self):
        s = spectrum_of(build_star(6), vectors=True)
        chi = chi_matrix(s)
        ts = np.linspace(0.0, 2000.0, 40001)
        phases = np.exp(-1j * np.outer(ts, s.eigenvalues))
        for j, k in [(0, 0), (0, 1), (1, 2), (3, 3)]:
            amps = phases @ (s.eigenvectors[k] * s.eigenvectors[j])
            assert np.mean(np.abs(amps) ** 2) == pytest.approx(chi[k, j], abs=1e-3)

    def test_ring_has_entries_on_both_sides_of_equipartition(self):
        chi = chi_matrix(spectrum_of(build_ring(200), vectors=True))
        assert chi.min() < 1 / 200 < chi.max()

    def test_dendrimer_localization(self):
        # long-time transition probabilities far below the classical 1/N
        g = build_dendrimer(5, 3)
        chi = chi_matrix(spectrum_of(g, vectors=True))
        assert chi.min() < 0.1 / g.n

    def test_dendrimer_generation_10_localization(self):
        # the full-size case, from the closed-form pair orbits
        g = build_dendrimer(10, 3)
        chi = chi_matrix(graph_spectrum(g, with_vectors=True))
        assert chi.min() < 0.01 / g.n
        np.testing.assert_allclose(chi.sum(axis=0), 1.0, atol=1e-9)


class TestSeriesCSV:
    def test_round_trip(self):
        s = spectrum_of(build_star(6), vectors=True)
        grid = log_grid(0.1, 10, 20)
        series = transport_series(s, grid, with_exact_quantum=True)
        times_text, blocks = series_csv(series)
        text = csv_text(blocks)
        assert text.splitlines()[0] == "t,p_bar,alpha_bar_sq,pi_bar"
        assert times_text.tolist() == float_text(series.times).tolist()
        data = np.genfromtxt(text.splitlines(), delimiter=",", names=True)
        np.testing.assert_array_equal(data["t"], series.times)
        np.testing.assert_array_equal(data["p_bar"], series.p_bar)
        np.testing.assert_array_equal(data["pi_bar"], series.pi_bar)

    def test_without_pi(self):
        s = spectrum_of(build_ring(5))
        series = transport_series(s, log_grid(0.1, 1, 5))
        assert csv_text(series_csv(series)[1]).splitlines()[0] == "t,p_bar,alpha_bar_sq"

    def test_blocks_join_to_the_text(self):
        # 20k rows of three columns: two blocks of rows, and the series
        # and ratio writers both held to the per-element loop
        grid = linear_grid(0.01, 200.0, 20_000)
        series = transport_series(spectrum_of(build_ring(40)), grid)
        times_text, blocks = series_csv(series)
        blocks = list(blocks)
        assert len(blocks) > 2 and all(isinstance(b, bytes) for b in blocks)
        cols = (series.times, series.p_bar, series.alpha_bar_sq)
        assert csv_text(blocks) == oracle_csv("t,p_bar,alpha_bar_sq", *cols)
        ratio = EfficiencyRatioSeries(times=grid.times, values=series.p_bar,
                                      asymptotic=1.0, excluded_points=0)
        blocks = list(ratio_csv(ratio, grid.times, times_text))
        assert len(blocks) > 2 and all(isinstance(b, bytes) for b in blocks)
        assert csv_text(blocks) == oracle_csv("t,delta_p", grid.times, series.p_bar)

    def test_chi_csv_header(self):
        chi = transport.chi_table(spectrum_of(build_ring(4), vectors=True))
        lines = csv_text(chi_csv(*chi)).splitlines()
        assert lines[0] == "node,0,1,2,3"
        assert len(lines) == 5


class TestSharedHalfAngleBlock:
    """transport_series evaluates one half-angle block per chunk of times
    for both quantum columns; at every chunk length, chunks of a single
    time included, each column equals the per-eigenvalue oracle kernels
    (see TestClusterKernelsAgainstOracle for the tolerance)."""

    @pytest.mark.parametrize("g", [build_star(40), build_dendrimer(4, 3), build_ring(30),
                                   build_erdos_renyi(60, 0.1, seed=3)])
    @pytest.mark.parametrize("chunk", [None, 7, 1])
    def test_columns_equal_the_kernels(self, g, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(spectral, "_BLOCK_ELEMS", chunk)
        grid = merge_grids(linear_grid(0.0, 20.0, 401), log_grid(20.0, 1e3, 200))
        dense = spectrum_of(g, vectors=True)
        for s in (graph_spectrum(g, with_vectors=True), dense):
            series = transport_series(s, grid, with_exact_quantum=True)
            for got, oracle in [(series.p_bar, oracle_classical),
                                (series.alpha_bar_sq, oracle_quantum_bound),
                                (series.pi_bar, oracle_exact_average)]:
                np.testing.assert_allclose(got, oracle(dense, grid), rtol=0, atol=1e-12)


class TestSeriesInvariants:
    def test_t0_values(self):
        s = spectrum_of(build_dendrimer(2, 3), vectors=True)
        series = transport_series(s, log_grid(), with_exact_quantum=True)
        assert series.p_bar[0] == pytest.approx(1.0, abs=1e-12)
        assert series.alpha_bar_sq[0] == pytest.approx(1.0, abs=1e-12)
        assert series.pi_bar[0] == pytest.approx(1.0, abs=1e-12)

    def test_values_in_unit_interval(self):
        s = spectrum_of(build_erdos_renyi(30, 0.2, seed=13), vectors=True)
        series = transport_series(s, log_grid(), with_exact_quantum=True)
        for arr in (series.p_bar, series.alpha_bar_sq, series.pi_bar):
            assert arr.min() >= 0.0 and arr.max() <= 1.0


class TestClusterKernelsAgainstOracle:
    """The cluster-compressed kernels against the per-eigenvalue oracle.

    Both sides round each phase lam * t to double precision, the kernels
    once per cluster mean and the oracle once per eigenvalue, so they part
    by about eps * lam_max * t_max; t_max = 1e3 keeps that below 1e-12.
    """

    grid = merge_grids(linear_grid(0.0, 20.0, 401), log_grid(20.0, 1e3, 200))

    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    @pytest.mark.parametrize("kernel,oracle", [
        (p_bar, oracle_classical),
        (alpha_bar_sq, oracle_quantum_bound),
        (pi_bar, oracle_exact_average),
    ], ids=["p_bar", "alpha_bar_sq", "pi_bar"])
    def test_series(self, oracle_spectra, name, kernel, oracle):
        s = oracle_spectra(name)
        np.testing.assert_allclose(kernel(s, self.grid), oracle(s, self.grid),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    def test_chi(self, oracle_spectra, name):
        s = oracle_spectra(name)
        np.testing.assert_allclose(chi_matrix(s), oracle_chi(s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("times", [[0.0], [7.5], [1e4]])
    def test_one_point_grid(self, oracle_spectra, times):
        s = oracle_spectra("dendrimer:8,3")
        grid = TimeGrid(np.array(times))
        for kernel, oracle in [(p_bar, oracle_classical),
                               (alpha_bar_sq, oracle_quantum_bound),
                               (pi_bar, oracle_exact_average)]:
            got = kernel(s, grid)
            assert got.shape == (1,)
            assert got[0] == pytest.approx(oracle(s, grid)[0], abs=1e-11)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_edges(self, oracle_spectra, monkeypatch, extra):
        # chunks of 7 times: grids one short of, equal to and one past a
        # multiple of the chunk length
        s = oracle_spectra("union")
        k = len(s.levels)
        monkeypatch.setattr(spectral, "_BLOCK_ELEMS", 7 * k)
        grid = linear_grid(0.0, 30.0, 21 + extra)
        for kernel, oracle in [(p_bar, oracle_classical),
                               (alpha_bar_sq, oracle_quantum_bound),
                               (pi_bar, oracle_exact_average)]:
            got = kernel(s, grid)
            assert got.shape == (len(grid),)
            np.testing.assert_allclose(got, oracle(s, grid), rtol=0, atol=1e-12)

    def test_chunk_smaller_than_one_row(self, oracle_spectra, monkeypatch):
        s = oracle_spectra("union")
        monkeypatch.setattr(spectral, "_BLOCK_ELEMS", 1)
        grid = linear_grid(0.0, 5.0, 3)
        np.testing.assert_allclose(pi_bar(s, grid),
                                   oracle_exact_average(s, grid), rtol=0, atol=1e-12)

    def test_memory_is_bounded_on_long_grids(self, oracle_spectra):
        # the oracle would hold two 100k x 1500 complex arrays, 4.8 GB
        s = oracle_spectra("star:1500")
        grid = linear_grid(0.0, 1e3, 100_000)
        tracemalloc.start()
        try:
            pi = pi_bar(s, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert pi.shape == (100_000,)

    def test_dense_working_set(self):
        # fig2a's grid on a graph of 800 singleton clusters: the factor (the
        # squared vectors) and three 2 MB times x K blocks; with
        # 8 MB blocks the peak more than doubles
        s = graph_spectrum(parse_graph_spec("er:800,0.02,seed=1"), with_vectors=True)
        assert len(s.levels) == 800
        grid = merge_grids(linear_grid(0.05, 250.0, 5000), log_grid(250.0, 1e4, 350))
        tracemalloc.start()
        try:
            series = transport_series(s, grid, with_exact_quantum=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20
        assert series.pi_bar.shape == (5350,)

    def test_kernel_keeps_three_blocks(self):
        # F, the n x n squared vectors, which the call builds and frees,
        # three 2 MB times x K blocks and the output columns, where
        # separate products would hold five blocks
        s = graph_spectrum(parse_graph_spec("er:800,0.02,seed=1"), with_vectors=True)
        grid = merge_grids(linear_grid(0.05, 250.0, 5000), log_grid(250.0, 1e4, 350))
        tracemalloc.start()
        try:
            transport_series(s, grid, with_exact_quantum=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * s.n**2 + 7 * 2**20


class TestChiCSVFormat:
    @pytest.mark.parametrize("g", [build_ring(12), build_star(7), build_dendrimer(3, 3),
                                   build_erdos_renyi(25, 0.3, seed=2)])
    def test_byte_identical_to_plain_writer(self, g):
        s = spectrum_of(g, vectors=True)
        assert csv_text(chi_csv(*transport.chi_table(s))) == oracle_chi_csv(chi_matrix(s))

    def test_dense_chi_is_exactly_symmetric(self, oracle_spectra):
        # chi_table keeps only a dense chi's lower triangle, and every reader
        # takes each upper entry from it: from clusters of one, two and more
        # vectors, the product's chi[i, j] and chi[j, i] are the same bits
        s = oracle_spectra("union")
        assert {1, 2} <= set(s.mult.tolist()) and s.mult.max() > 2
        chi = transport._dense_chi(s)
        assert np.array_equal(chi.view(np.uint64), chi.T.view(np.uint64))
        assert np.array_equal(chi_matrix(s).view(np.uint64), chi.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 7, 362])
    def test_triangle_index_against_materialized(self, n):
        # 362 is the first n whose n (n + 1) / 2 positions need 32 bits;
        # blocks of 1, 3 and the chi readers' rows, and slices across
        # their edges, give the rows of the whole index
        index, oracle = transport._TriangleIndex(n), oracle_triangle_index(n)
        assert len(index) == n
        np.testing.assert_array_equal(index[:], oracle)
        np.testing.assert_array_equal(index.diagonal(), oracle.diagonal())
        for step in {1, 3, max(1, _csvtext._CSV_BLOCK_CELLS // n), _blocks(n, 8 * n)[0].stop}:
            for lo in range(0, n, step):
                np.testing.assert_array_equal(index[lo:lo + step], oracle[lo:lo + step])
                edge = slice(max(lo - 1, 0), lo + 2)
                np.testing.assert_array_equal(index[edge], oracle[edge])

    def test_dense_table_is_the_packed_triangle(self, oracle_spectra):
        s = oracle_spectra("er:800,0.02,seed=1")
        values, index = transport.chi_table(s)
        chi = transport._dense_chi(s)
        np.testing.assert_array_equal(values, chi[np.tril_indices(s.n)])
        assert isinstance(index, transport._TriangleIndex) and len(index) == s.n

    def test_special_values(self):
        chi = np.array([[0.0, -0.0, np.nan], [np.inf, 1e-300, 5e-324], [1.0, 0.1, 1 / 3]])
        for got, want in chi_csv_forms(chi):
            assert got == want

    def test_blocks_join_to_the_text(self, oracle_spectra):
        s = oracle_spectra("er:800,0.02,seed=1")
        blocks = list(chi_csv(*transport.chi_table(s)))
        assert len(blocks) > 2 and all(isinstance(b, bytes) for b in blocks)
        assert csv_text(blocks) == oracle_chi_csv(chi_matrix(s))


# values whose repr is easy to get wrong: signed zero, non-finite values,
# the smallest subnormal, the first integer-valued float written with an
# exponent, and the neighbours of 1e-4, where repr switches notation
SPECIAL_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-4,
                  np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0)]
csv_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                       st.floats(allow_nan=True, allow_infinity=True))
CSV_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def oracle_csv(header, *columns):
    """Rows of per-element repr(float(x)), the form every writer must keep."""
    rows = [",".join(repr(float(col[i])) for col in columns)
            for i in range(len(columns[0]))]
    return "\n".join([header, *rows]) + "\n"


class TestCSVWritersOracle:
    @CSV_SETTINGS
    @given(st.data(), st.booleans())
    def test_series_csv(self, data, with_pi):
        times = data.draw(st.lists(st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-4, np.nextafter(1e-4, 0.0),
                             np.nextafter(1e-4, 1.0), 1e16]),
            st.floats(0.0, 1e300)), min_size=1, max_size=40, unique=True))
        times = np.sort(times)
        cols = [np.array(data.draw(st.lists(csv_floats, min_size=len(times),
                                            max_size=len(times))))
                for _ in range(3 if with_pi else 2)]
        series = TransportSeries(grid=TimeGrid(times), p_bar=cols[0],
                                 alpha_bar_sq=cols[1],
                                 pi_bar=cols[2] if with_pi else None)
        header = "t,p_bar,alpha_bar_sq" + (",pi_bar" if with_pi else "")
        times_text, blocks = series_csv(series)
        assert csv_text(blocks) == oracle_csv(header, times, *cols)
        assert times_text.tolist() == float_text(times).tolist()

    @CSV_SETTINGS
    @given(st.lists(st.tuples(csv_floats.filter(lambda x: not np.isnan(x)), csv_floats,
                              st.booleans()),
                    min_size=1, max_size=40, unique_by=lambda row: row[0]))
    def test_ratio_csv(self, rows):
        # the ratio keeps any subset of the sorted series times, interior
        # ones dropped too, and its t column is gathered from their text
        times, values, kept = (np.array(col) for col in zip(*sorted(rows)))
        t, v = times[kept], values[kept]
        ratio = EfficiencyRatioSeries(times=t, values=v, asymptotic=1.0,
                                      excluded_points=0)
        want = oracle_csv("t,delta_p", t, v)
        assert csv_text(ratio_csv(ratio, times)) == want
        assert csv_text(ratio_csv(ratio, times, float_text(times))) == want

    def test_ratio_times_off_the_series_times(self):
        times = np.linspace(0.5, 2.0, 7)
        for t in (np.nextafter(times[3:4], 3.0), np.array([2.5]), -times[:1]):
            ratio = EfficiencyRatioSeries(times=t, values=np.ones(1), asymptotic=1.0,
                                          excluded_points=0)
            with pytest.raises(ValueError, match="not points of the series"):
                ratio_csv(ratio, times)

    def test_deltap_csv_of_each_source(self, tmp_path):
        # deltap.csv on a graph, a DOS and a series file whose p_bar touches
        # 1 at interior rows, so that the ratio's rows are not contiguous
        t = np.linspace(0.5, 60.0, 600)
        p, alpha = np.exp(-0.05 * t), np.exp(-0.1 * t) * (0.75 + 0.25 * np.cos(3 * t))
        p[[100, 101, 300]] = 1.0
        crafted = tmp_path / "crafted.csv"
        crafted.write_text(oracle_csv("t,p_bar,alpha_bar_sq", t, p, alpha))
        sources = {"graph": dict(graph="star:10", vectors=True, grid="linear:0.01,100,2000"),
                   "dos": dict(dos="semicircle:nu=0.5,lmax=2", grid="log:1e-2,1e2,300"),
                   "fit": dict(series=str(crafted))}
        for name, spec in sources.items():
            cfg = cli.ExperimentConfig(**spec, out=str(tmp_path / name))
            cli.run_experiment(cfg, "fit" if name == "fit" else "run")
            series = read_series_csv(crafted if name == "fit"
                                     else tmp_path / name / "series.csv")
            ratio = efficiency_report(series.times, series.p_bar, series.alpha_bar_sq,
                                      cfg.fit_window).ratio
            text = (tmp_path / name / "deltap.csv").read_text()
            assert text == oracle_csv("t,delta_p", ratio.times, ratio.values)
        assert ratio.excluded_points == 3
        assert (np.diff(np.searchsorted(t, ratio.times)) > 1).sum() == 2

    @CSV_SETTINGS
    @given(st.lists(csv_floats, min_size=1, max_size=40))
    def test_spectrum_csv(self, values):
        lam = np.array(values)
        rows = [f"{k},{repr(float(x))}" for k, x in enumerate(lam)]
        want = "\n".join(["index,eigenvalue", *rows]) + "\n"
        assert csv_text(spectrum_csv(Spectrum(lam))) == want

    @CSV_SETTINGS
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(csv_floats, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_chi_csv(self, rows):
        for got, want in chi_csv_forms(np.array(rows)):
            assert got == want


def canonical_bits(x):
    """The bits of x with every NaN made numpy's NaN: "nan" reads back as
    that one NaN, whatever the payload and sign written."""
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


class TestReadSeriesCSV:
    @CSV_SETTINGS
    @given(st.data(), st.booleans())
    def test_reads_back_what_series_csv_writes(self, tmp_path_factory, data, with_pi):
        times = data.draw(st.lists(st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-4, 1.0, 1e16]), st.floats(0.0, 1e300)),
            min_size=1, max_size=40, unique=True))
        times = np.sort(times)
        values = st.one_of(csv_floats, st.just(1.0))
        cols = [np.array(data.draw(st.lists(values, min_size=len(times), max_size=len(times))))
                for _ in range(3 if with_pi else 2)]
        series = TransportSeries(grid=TimeGrid(times), p_bar=cols[0], alpha_bar_sq=cols[1],
                                 pi_bar=cols[2] if with_pi else None)
        blank = st.lists(st.sampled_from(["\n", " \n", "\t\n", "  \t \n"]), max_size=2)
        text = "".join(line + "".join(data.draw(blank)) for line in
                       csv_text(series_csv(series)[1]).splitlines(keepends=True))
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        path.write_text(text)
        got = read_series_csv(path)
        assert (got.pi_bar is None) == (not with_pi)
        for name, want in zip(["times", "p_bar", "alpha_bar_sq", "pi_bar"], [times, *cols]):
            assert np.array_equal(canonical_bits(getattr(got, name)), canonical_bits(want))

    def test_valid_input_is_parsed_once(self, tmp_path, monkeypatch):
        calls, loadtxt = [], np.loadtxt

        def counting(*args, **kwargs):
            calls.append(1)
            return loadtxt(*args, **kwargs)

        def boom(*args):
            raise AssertionError("valid input scanned a second time")

        monkeypatch.setattr(np, "loadtxt", counting)
        monkeypatch.setattr(transport, "_raise_at_bad_row", boom)
        path = tmp_path / "s.csv"
        path.write_text("\n t , p_bar,alpha_bar_sq\n0.0,1.0,1.0\n \n1.5,0.5,0.25\n")
        series = read_series_csv(path)
        assert calls == [1]
        assert series.times.tolist() == [0.0, 1.5] and series.alpha_bar_sq[1] == 0.25

    def test_rows_past_the_limit_are_not_read(self, tmp_path, monkeypatch):
        # the limit is MAX_GRID_POINTS + 1 rows
        monkeypatch.setattr(transport, "MAX_GRID_POINTS", 2)
        path = tmp_path / "s.csv"
        rows = "".join(f"{t}.0,0.5,0.25\n\n" for t in range(3))
        path.write_text("t,p_bar,alpha_bar_sq\n" + rows)
        assert len(read_series_csv(path).times) == 3
        # the fourth row is refused for its count, so it is never parsed
        path.write_text("t,p_bar,alpha_bar_sq\n" + rows + "not,a,row\n")
        with pytest.raises(ResourceLimitError, match="more than the limit of 3 rows"):
            read_series_csv(path)

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "0x1p3", "#1", "1 2", ""])
    def test_a_field_numpy_refuses_names_its_line(self, tmp_path, field):
        # float() takes the first two, np.loadtxt does not; the rescan
        # must find the row the parse failed on
        path = tmp_path / "s.csv"
        path.write_text(f"t,p_bar,alpha_bar_sq\n1.0,0.5,0.25\n\n2.0,0.4,{field}\n")
        with pytest.raises(ParseError, match="^line 4: expected 3 "):
            read_series_csv(path)


def formatter_sweep():
    """Doubles where shortest round-trip text is easy to get wrong: every
    binade at both signs, every subnormal binade, the powers of ten, the
    points where repr switches notation, and the integers near 2^53 and
    2^54, most with their +-1-ulp neighbours; deterministic."""
    rng = np.random.default_rng(11)
    top = (1 << 52) - 1
    mantissas = np.concatenate([[0, 1, top], rng.integers(2, top, 8)]).astype(np.uint64)
    exps = np.arange(2047, dtype=np.uint64)[:, None]
    binades = ((exps << np.uint64(52)) | mantissas).ravel()
    subnormal = []
    for k in range(52):
        lo, hi = 1 << k, (1 << (k + 1)) - 1
        subnormal += [lo, lo + 1, hi - 1, hi, *rng.integers(lo, hi + 1, 4)]
    patterns = np.concatenate([binades, np.array(subnormal, dtype=np.uint64)])
    values = [float(f"1e{k}") for k in range(-323, 309)]
    values += [1e-5, 1e-4, 1e15, 1e16]
    values += [float(2**p + d) for p in (53, 54) for d in range(-4, 5)]
    values = np.array(values)
    values = np.concatenate([values, np.nextafter(values, 0.0),
                             np.nextafter(values, np.inf)])
    values = np.concatenate([patterns.view(float), values])
    values = np.concatenate([values, -values, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    return values


class TestFloatTextSweep:
    def test_matches_repr(self):
        values = formatter_sweep()
        assert len(values) > 45_000
        got = [cell.replace(b"\0", b"").decode() for cell in float_text(values).tolist()]
        wrong = [(x, g) for x, g in zip(values.tolist(), got) if g != repr(x)]
        assert not wrong, wrong[:10]

    @pytest.mark.parametrize("length", [1, 3, 66, _REPR_BELOW - 1, _REPR_BELOW,
                                        _REPR_BELOW + 1, 1000])
    def test_matches_repr_on_both_sides_of_the_cutoff(self, length):
        rng = np.random.default_rng(length)
        sweep = formatter_sweep()
        for _ in range(10):
            values = rng.choice(sweep, length)
            got = [cell.replace(b"\0", b"").decode() for cell in float_text(values).tolist()]
            assert got == list(map(repr, values.tolist()))

    def test_short_arrays_skip_the_vectorised_path(self, monkeypatch):
        def boom(*args):
            raise AssertionError("vectorised path below the cutoff")

        monkeypatch.setattr(_csvtext, "_format", boom)
        assert float_text(np.full((5, _REPR_BELOW // 5), 0.1)).shape == (5, _REPR_BELOW // 5)
        with pytest.raises(AssertionError):
            float_text(np.full(_REPR_BELOW, 0.1))

    def test_shape_and_integers(self):
        assert float_text(np.ones((3, 4))).shape == (3, 4)
        assert float_text(np.ones((3, _REPR_BELOW))).shape == (3, _REPR_BELOW)
        assert float_text([]).shape == (0,)
        ints = [0, 7, 10, 99, 12345, 10**16, 10**17 - 1]
        assert [c.replace(b"\0", b"").decode() for c in int_text(ints).tolist()] == \
            list(map(str, ints))


small_graphs = st.builds(
    build_erdos_renyi, st.integers(2, 12), st.floats(0.15, 0.9),
    seed=st.integers(0, 2**32 - 1))
graphs_with_unions = st.one_of(small_graphs, st.builds(disjoint_union, small_graphs,
                                                       small_graphs))
symmetric_graphs = st.one_of(
    st.builds(build_ring, st.integers(3, 80)),
    st.builds(build_hypercubic, st.integers(3, 7), st.integers(1, 3)),
    st.builds(build_star, st.integers(3, 300)),
    st.builds(build_dendrimer, st.integers(0, 6), st.integers(3, 5)))


# a fixed example sequence keeps the suite reproducible run to run
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestInvariantProperties:
    grid = log_grid(1e-2, 1e3, 80)

    @PROPERTY_SETTINGS
    @given(graphs_with_unions)
    def test_bound_below_exact_below_one(self, g):
        s = spectrum_of(g, vectors=True)
        alpha = alpha_bar_sq(s, self.grid)
        pi = pi_bar(s, self.grid)
        assert np.all(alpha <= pi + 1e-12)
        assert np.all(pi <= 1.0)
        assert pi[0] == pytest.approx(1.0, abs=1e-12)

    @PROPERTY_SETTINGS
    @given(st.one_of(symmetric_graphs, graphs_with_unions))
    def test_mean_chi_return_is_the_gram_trace(self, g):
        # (1/N) tr chi = sum_E sum_j W_jE^2 / N = tr(F^T F) / N: pi_bar's
        # long-time limit, chi from the pair orbits or the eigenvectors
        # against F from their diagonal orbit or the squared eigenvectors
        s = graph_spectrum(g, with_vectors=True)
        limit = (projector_factor(s)**2).sum() / s.n
        assert np.trace(chi_matrix(s)) / s.n == pytest.approx(limit, rel=1e-13, abs=0)

    @PROPERTY_SETTINGS
    @given(graphs_with_unions)
    def test_chi_columns_sum_to_one(self, g):
        chi = chi_matrix(spectrum_of(g, vectors=True))
        np.testing.assert_allclose(chi.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_relabelling_leaves_pi_and_chi_unchanged(self, data):
        g = data.draw(graphs_with_unions)
        perm = np.array(data.draw(st.permutations(range(g.n))))
        s, s_perm = spectrum_of(g, vectors=True), spectrum_of(relabel(g, perm), vectors=True)
        np.testing.assert_allclose(pi_bar(s_perm, self.grid),
                                   pi_bar(s, self.grid), rtol=0, atol=1e-10)
        chi = chi_matrix(s)
        chi_perm = chi_matrix(s_perm)
        np.testing.assert_allclose(chi_perm[np.ix_(perm, perm)], chi, rtol=0, atol=1e-10)
