import ctypes.util
import glob
import itertools
import math
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from specwalk import (
    Graph,
    NumericalError,
    ParseError,
    ResourceLimitError,
    build_dendrimer,
    build_erdos_renyi,
    build_hypercubic,
    build_ring,
    build_star,
    decompose,
    degeneracy_table,
    dendrimer_node_count,
    from_edge_list,
    graph_spectrum,
    laplacian,
    parse_graph_spec,
)
import specwalk.cli as cli
import specwalk.graphs as graphs
import specwalk.spectral as spectral
from specwalk.cli import ExperimentConfig, run_experiment
from specwalk.graphs import _build_tree
from specwalk.spectral import (ShellTree, Spectrum, TorusPairs, _blocks, _checked_residual,
                               _lower_laplacian, default_cluster_tol, degeneracies_csv,
                               projector_factor, read_levels, spectrum_csv)
from specwalk.transport import TimeGrid, chi_matrix, log_grid, transport_series


def csv_text(blocks):
    """The text of a streamed writer's byte blocks."""
    return b"".join(blocks).decode()


def path_graph(n):
    return Graph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


# the drivers `spectral._lapack` binds
DRIVERS = ("syevd", "syevd_2stage")
# scipy's bundled LP64 OpenBLAS: the same drivers, with 32-bit integers
SCIPY_OPENBLAS = glob.glob(str(Path(scipy.__file__).parents[1] / "scipy.libs"
                               / "libscipy_openblas-*"))


def zero_multiplicity(spectrum):
    """Size of the near-zero cluster at the default tolerance; equals the
    number of components."""
    lam = spectrum.eigenvalues
    return int(np.sum(np.abs(lam) <= default_cluster_tol(lam)))


def component_count(g):
    # independent BFS oracle
    adj = {v: [] for v in range(g.n)}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, comps = set(), 0
    for v in range(g.n):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(adj[u])
    return comps


class TestDecompose:
    def test_star10(self):
        s = decompose(build_star(10))
        np.testing.assert_allclose(s.eigenvalues, [0] + [1] * 8 + [10], atol=1e-9)

    def test_ring4(self):
        s = decompose(build_ring(4))
        np.testing.assert_allclose(s.eigenvalues, [0, 2, 2, 4], atol=1e-12)

    def test_single_node(self):
        s = decompose(Graph(n=1, edges=frozenset()))
        np.testing.assert_array_equal(s.eigenvalues, [0.0])

    def test_sorted_ascending(self):
        s = decompose(build_erdos_renyi(40, 0.3, seed=4))
        assert np.all(np.diff(s.eigenvalues) >= 0)

    def test_vectors_orthonormal_and_reconstruct(self):
        g = build_dendrimer(3, 3)
        s = decompose(g, with_vectors=True)
        v = s.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(s.n), atol=1e-12)
        np.testing.assert_allclose((v * s.eigenvalues) @ v.T, laplacian(g),
                                   atol=1e-10)

    def test_residual_contract(self):
        g = build_ring(50)
        s = decompose(g, with_vectors=True)
        v = s.eigenvectors
        resid = np.linalg.norm(laplacian(g) @ v - v * s.eigenvalues, axis=0)
        assert resid.max() <= 1e-9 * max(1.0, s.eigenvalues[-1])

    def test_deterministic(self):
        g = build_erdos_renyi(30, 0.4, seed=6)
        a = decompose(g, with_vectors=True)
        b = decompose(g, with_vectors=True)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_numerical_error_reports_size(self, monkeypatch):
        def failing(work, with_vectors):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(spectral, "_lapack", lambda: dict.fromkeys(DRIVERS, failing))
        with pytest.raises(NumericalError, match="failed on a 30x30 matrix"):
            decompose(parse_graph_spec("er:30,0.3,seed=1"), with_vectors=True)

    @pytest.mark.parametrize("with_vectors", [False, True], ids=["values", "vectors"])
    def test_refuses_above_the_cap_before_the_buffer(self, monkeypatch, with_vectors):
        def boom(*args, **kwargs):
            raise AssertionError("n x n buffer mapped above the node cap")

        monkeypatch.setattr(spectral, "_lower_laplacian", boom)
        n = graphs.DEFAULT_SIZE_CAP + 1
        with pytest.raises(ResourceLimitError,
                           match=f"dense spectrum of a graph of {n} nodes exceeds size cap"):
            decompose(Graph(n, []), with_vectors=with_vectors)

    def test_residual_check_refuses_a_perturbed_pair(self):
        g = parse_graph_spec("er:60,0.2,seed=2")
        s = decompose(g, with_vectors=True)
        assert _checked_residual(g, s.eigenvectors, s.values) == s.residual <= 1e-14
        vals = s.values.copy()
        vals[17] += 1e-6
        with pytest.raises(NumericalError, match="for a 60x60 matrix"):
            _checked_residual(g, s.eigenvectors, vals)
        vecs = s.eigenvectors.copy()
        vecs[:, 17] = vecs[:, 18]
        with pytest.raises(NumericalError, match="eigenpair residual"):
            _checked_residual(g, vecs, s.values)

    def test_residual_check_refuses_a_nan_pair(self):
        # a NaN residual compares false against the bound, and a running
        # max(resid, nan) kept the finite value: the pair passed
        g = parse_graph_spec("er:60,0.2,seed=2")
        s = decompose(g, with_vectors=True)
        vecs = s.eigenvectors.copy()
        vecs[5, 17] = np.nan
        with pytest.raises(NumericalError, match="eigenpair residual nan exceeds"):
            _checked_residual(g, vecs, s.values)


# a path, a triangle and an isolated node, read back without a family
DISCONNECTED = from_edge_list("n 8\n0 1\n1 2\n2 3\n4 5\n5 6\n4 6\n")


class TestOwnedBufferSolve:
    """decompose(graph) solves in the Laplacian's own buffer and must give
    what numpy's eigvalsh and eigh give, bit for bit."""

    @pytest.mark.parametrize("g", [
        parse_graph_spec("er:800,0.02,seed=1"), build_dendrimer(8, 3), build_star(12),
        DISCONNECTED,
    ], ids=["er800", "dendrimer8", "star12", "disconnected"])
    def test_bit_identical_to_numpy(self, g):
        lap = laplacian(g)
        values = decompose(g).eigenvalues
        assert np.array_equal(values.view(np.uint64),
                              np.linalg.eigvalsh(lap).view(np.uint64))
        ref_values, ref_vectors = np.linalg.eigh(lap)
        s = decompose(g, with_vectors=True)
        assert np.array_equal(s.eigenvalues.view(np.uint64), ref_values.view(np.uint64))
        assert np.array_equal(s.eigenvectors.view(np.uint64),
                              ref_vectors.view(np.uint64))
        assert 0 <= s.residual <= 1e-9

    @pytest.mark.parametrize("spec", ["er:300,0.05,seed=3", "er:500,0.3,seed=4"])
    def test_bit_identical_to_scipy_on_the_full_matrix(self, spec):
        # the lower triangle alone gives what the whole matrix gives
        g = parse_graph_spec(spec)
        lap = laplacian(g)
        ref_values = scipy.linalg.eigh(lap, driver="evd", eigvals_only=True)
        assert np.array_equal(decompose(g).values.view(np.uint64),
                              ref_values.view(np.uint64))
        ref_values, ref_vectors = scipy.linalg.eigh(lap, driver="evd")
        s = decompose(g, with_vectors=True)
        assert np.array_equal(s.values.view(np.uint64), ref_values.view(np.uint64))
        assert np.array_equal(s.eigenvectors.view(np.uint64),
                              ref_vectors.view(np.uint64))

    def test_solves_in_the_lower_triangle_only(self):
        g = parse_graph_spec("er:60,0.2,seed=2")
        work = _lower_laplacian(g)
        assert work.flags.f_contiguous and work.flags.writeable
        assert np.array_equal(work, np.tril(laplacian(g)))

    def test_lower_triangle_makes_no_edge_sized_array(self):
        g = build_erdos_renyi(3000, 1.0, seed=0)
        tracemalloc.start()
        try:
            work = _lower_laplacian(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the triangle sits on a mapping that tracemalloc does not see; the
        # index array i * n + j of every edge at once was 36 MB here
        assert peak <= 0.3 * g.edges.nbytes
        assert work[1, 0] == -1.0 and work[0, 0] == 2999.0

    def test_residual_checks_every_column_block(self):
        n = 600
        assert len(_blocks(n, n)) > 1
        vals = np.zeros(n)
        vals[-1] = 1e-3  # n isolated nodes, L = 0: only the last pair is off
        with pytest.raises(NumericalError, match="residual 1.000e-03"):
            _checked_residual(Graph(n=n, edges=[]), np.eye(n), vals)

    def test_vectors_memory_is_bounded(self):
        g = parse_graph_spec("er:800,0.02,seed=1")
        graph_spectrum(build_erdos_renyi(30, 0.2, seed=1), with_vectors=True)  # imports
        tracemalloc.start()
        try:
            graph_spectrum(g, with_vectors=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # tracemalloc sees neither the Laplacian, which sits on a mapping
        # and becomes the eigenvectors, nor the 2 n^2 workspace that LAPACKE
        # allocates, but the residual check's blocks of rows (about 1.2 n^2
        # here); a copy of the input or a dense L @ V breaks it. The
        # Laplacian's n^2 doubles are added
        assert peak + 8 * g.n**2 <= 3.2 * 8 * g.n**2

    def test_dense_gram_makes_no_copies(self):
        s = graph_spectrum(parse_graph_spec("er:800,0.02,seed=1"), with_vectors=True)
        assert len(s.levels) == s.n  # singleton clusters: the squares are W
        tracemalloc.start()
        try:
            factor = projector_factor(s)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the squared vectors are F itself: no Gram product, no copy
        assert peak <= 1.1 * 8 * s.n**2
        assert kept <= 1.1 * factor.nbytes

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                        reason="needs the VmHWM line of /proc/self/status")
    def test_values_rss_growth_is_one_matrix(self, tmp_path):
        # VmHWM, the peak RSS of the process's own address space, starts
        # afresh at exec; ru_maxrss would carry the high-water mark of the
        # forking test process into the child and hide the growth
        g = parse_graph_spec("er:2000,0.05,seed=1")
        # the edges are read back, so the child makes nothing near n x n
        # before it measures, and every page of the Laplacian gets written
        np.save(tmp_path / "edges.npy", g.edges)
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {str(Path(__file__).parents[1] / "src")!r})
            import numpy as np
            from specwalk import Graph, build_ring, graph_spectrum

            def peak_rss():
                with open("/proc/self/status") as status:
                    line = next(ln for ln in status if ln.startswith("VmHWM:"))
                return 1024 * int(line.split()[1])

            g = Graph({g.n}, np.load({str(tmp_path / "edges.npy")!r}))
            graph_spectrum(Graph(30, build_ring(30).edges))  # imports, BLAS set-up
            before = peak_rss()
            graph_spectrum(g, with_vectors=False)
            print(peak_rss() - before)
        """)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True)
        # only the lower triangle the solver reads is ever written: 0.79
        # n^2 doubles here, where the full matrix took 1.07
        assert int(out.stdout) <= 0.9 * 8 * g.n**2


@pytest.mark.skipif(spectral._lapack() is None,
                    reason="numpy's bundled OpenBLAS with its ILP64 LAPACKE drivers not found")
class TestTwoStageSolve:
    """Eigenvalue-only solves from _TWO_STAGE_MIN_N nodes up take
    ?syevd_2stage, which agrees with ?syevd to rounding; below it, with
    vectors, or where it cannot be bound, they take ?syevd, bit for bit."""

    @staticmethod
    def evd_values(g):
        return scipy.linalg.eigh(laplacian(g), driver="evd", eigvals_only=True)

    @pytest.mark.parametrize("spec", ["er:2000,0.05,seed=1", "er:3000,0.01,seed=2"])
    def test_values_agree_with_evd(self, spec):
        g = parse_graph_spec(spec)
        s = decompose(g)
        want = self.evd_values(g)
        assert s.solver == "syevd_2stage"
        assert np.abs(s.values - want).max() <= 1e-13 * max(1.0, want[-1])
        assert 0 <= s.trace_error <= 1e-12

    def test_degenerate_star_keeps_its_clusters(self):
        # a star read back without its family: 3 clusters, one of them
        # 2498-fold, as the closed form gives them
        n = 2500
        s = decompose(Graph(n, build_star(n).edges))
        closed = graph_spectrum(build_star(n))
        assert s.solver == "syevd_2stage"
        assert np.array_equal(s.mult, closed.mult)
        assert np.abs(s.levels - closed.levels).max() <= 1e-13 * n
        want = self.evd_values(Graph(n, build_star(n).edges))
        assert np.abs(s.values - want).max() <= 1e-13 * max(1.0, want[-1])

    def test_below_the_threshold_and_with_vectors_take_evd(self, monkeypatch):
        # the threshold is the only switch: lowered to 300 nodes, an
        # er:300 values solve takes the two-stage driver, and its vectors
        # solve still does not
        g = parse_graph_spec("er:300,0.05,seed=3")
        assert decompose(g).solver == "syevd"
        monkeypatch.setattr(spectral, "_TWO_STAGE_MIN_N", 300)
        assert decompose(g).solver == "syevd_2stage"
        assert decompose(g, with_vectors=True).solver == "syevd"

    def test_unbound_driver_gives_evd_bits(self, monkeypatch):
        monkeypatch.setattr(spectral, "_lapack", lambda: None)
        g = parse_graph_spec("er:2000,0.05,seed=1")
        want_values, want_vectors = scipy.linalg.eigh(laplacian(g), driver="evd")
        want = self.evd_values(g)

        def not_called(*args, **kwargs):
            raise AssertionError("scipy.linalg.eigh called")

        monkeypatch.setattr(scipy.linalg, "eigh", not_called)
        s = decompose(g)
        assert s.solver == "syevd"
        assert np.array_equal(s.values.view(np.uint64), want.view(np.uint64))
        s = decompose(g, with_vectors=True)
        assert s.solver == "syevd"
        assert np.array_equal(s.values.view(np.uint64), want_values.view(np.uint64))
        assert np.array_equal(s.eigenvectors.view(np.uint64), want_vectors.view(np.uint64))

    # scipy's LP64 library exports the drivers without the ILP64 names, and
    # must never be called with 64-bit integers
    @pytest.mark.parametrize("found", [
        [], ["/nonexistent/libscipy_openblas-0.so"], [ctypes.util.find_library("m")],
        pytest.param(SCIPY_OPENBLAS, marks=pytest.mark.skipif(
            not SCIPY_OPENBLAS, reason="scipy bundles no OpenBLAS"))],
        ids=["no library", "unloadable", "no symbol", "LP64 library"])
    def test_binder_without_the_driver_gives_none(self, found, monkeypatch):
        monkeypatch.setattr(glob, "glob", lambda pattern: found)
        assert spectral._lapack.__wrapped__() is None

    def test_failure_reports_size(self, monkeypatch):
        def failing(work, with_vectors):
            raise np.linalg.LinAlgError("LAPACKE_dsyevd_2stage returned 7")

        drivers = {**spectral._lapack(), "syevd_2stage": failing}
        monkeypatch.setattr(spectral, "_lapack", lambda: drivers)
        with pytest.raises(NumericalError, match="failed on a 2000x2000 matrix: .* 7"):
            decompose(Graph(2000, build_ring(2000).edges))


@pytest.mark.skipif(spectral._lapack() is None,
                    reason="numpy's bundled OpenBLAS with its ILP64 LAPACKE drivers not found")
class TestBoundEvd:
    """Below _TWO_STAGE_MIN_N nodes, and with vectors, decompose calls the
    bound ?syevd, the routine that np.linalg.eigh and
    scipy.linalg.eigh(driver="evd") call, and gives their bits without
    loading scipy.linalg."""

    @pytest.mark.parametrize("g", [
        parse_graph_spec("er:300,0.1,seed=1"), parse_graph_spec("er:1999,0.01,seed=5"),
        Graph(1500, build_star(1500).edges),
    ], ids=["er300", "er1999", "star1500"])
    def test_gives_evd_bits(self, g, monkeypatch):
        # the star, read without its family, holds a 1498-fold level, whose
        # eigenvectors are one basis of many
        lap = laplacian(g)
        want = scipy.linalg.eigh(lap, driver="evd", eigvals_only=True)
        want_values, want_vectors = scipy.linalg.eigh(lap, driver="evd")

        def not_called(*args, **kwargs):
            raise AssertionError("scipy.linalg.eigh called")

        monkeypatch.setattr(scipy.linalg, "eigh", not_called)
        s = decompose(g)
        assert s.solver == "syevd"
        assert np.array_equal(s.values.view(np.uint64), want.view(np.uint64))
        s = decompose(g, with_vectors=True)
        assert s.solver == "syevd"
        assert np.array_equal(s.values.view(np.uint64), want_values.view(np.uint64))
        assert np.array_equal(s.eigenvectors.view(np.uint64), want_vectors.view(np.uint64))

    def test_refuses_a_buffer_it_cannot_solve_in_place(self):
        solve = spectral._lapack()["syevd"]
        for work in (np.eye(3), np.asfortranarray(np.eye(3, dtype=np.float32)),
                     np.asfortranarray(np.ones((3, 2)))):
            with pytest.raises(ValueError, match="Fortran-ordered"):
                solve(work, False)


BUDGET = spectral._BLOCK_ELEMS


class TestBlocks:
    @pytest.mark.parametrize("width,step", [(0, BUDGET), (1, BUDGET), (BUDGET - 1, 1),
                                            (BUDGET, 1), (BUDGET + 1, 1), (3 * BUDGET, 1)])
    @pytest.mark.parametrize("count", [0, 1, 7, 2 * BUDGET + 1])
    def test_tiles_the_range(self, count, width, step):
        # consecutive, non-empty blocks from 0 to count, each of `step`
        # items but the last, which holds what is left
        blocks = _blocks(count, width)
        starts = np.array([b.start for b in blocks], dtype=np.int64)
        stops = np.array([b.stop for b in blocks], dtype=np.int64)
        assert all(b.step is None for b in blocks)
        assert len(blocks) == -(-count // step)
        if count:
            assert starts[0] == 0 and stops[-1] == count
            assert np.array_equal(starts[1:], stops[:-1])
            assert np.all(stops[:-1] - starts[:-1] == step)
            assert 0 < stops[-1] - starts[-1] <= step


class TestTraceIdentity:
    @pytest.mark.parametrize("g", [
        build_ring(60), build_star(25), build_dendrimer(4, 3),
        build_erdos_renyi(50, 0.25, seed=12),
    ], ids=["ring", "star", "dendrimer", "er"])
    def test_sum_matches_edge_count(self, g):
        s = decompose(g)
        total = s.eigenvalues.sum()
        assert abs(total - 2 * g.edge_count) <= 1e-10 * max(1.0, 2 * g.edge_count)
        assert s.trace_error == abs(total - 2 * g.edge_count) / max(1.0, 2 * g.edge_count)

    @pytest.mark.skipif(spectral._lapack() is None,
                        reason="numpy's bundled OpenBLAS with its ILP64 LAPACKE drivers not found")
    @pytest.mark.parametrize("with_vectors", [False, True])
    def test_solve_off_the_trace_raises(self, with_vectors, monkeypatch):
        # a solve whose eigenvalues sum 1e-5 off tr L = 2 |E| (about 4e-8
        # relative) fails its check, which runs before the residual's
        syevd = spectral._lapack()["syevd"]

        def off_by_1e5(work, with_vectors):
            values = syevd(work, with_vectors)
            values[-1] += 1e-5
            return values

        monkeypatch.setattr(spectral, "_lapack", lambda: dict.fromkeys(DRIVERS, off_by_1e5))
        with pytest.raises(NumericalError, match="off the trace .* 30x30 matrix"):
            decompose(parse_graph_spec("er:30,0.3,seed=1"), with_vectors)


class TestZeroCluster:
    def test_connected_families_have_one_zero(self):
        for g in [build_ring(20), build_star(8), build_dendrimer(3, 3)]:
            s = decompose(g)
            assert zero_multiplicity(s) == 1

    def test_disconnected_er_counts_components(self):
        g = build_erdos_renyi(12, 0.08, seed=3)
        s = decompose(g)
        comps = component_count(g)
        assert comps > 1
        assert zero_multiplicity(s) == comps


class TestDegeneracyTable:
    def test_star10(self):
        s = decompose(build_star(10))
        table = degeneracy_table(s)
        assert [(round(v), m) for v, m in table] == [(0, 1), (1, 8), (10, 1)]

    def test_all_distinct(self):
        s = decompose(path_graph(4))
        table = degeneracy_table(s)
        assert [m for _, m in table] == [1, 1, 1, 1]

    def test_dendrimer_leaf_cluster(self):
        # leaves sharing a parent give degenerate unit eigenvalues
        s = decompose(build_dendrimer(2, 3))
        table = degeneracy_table(s)
        ones = [m for v, m in table if abs(v - 1) < 1e-6]
        assert ones and ones[0] >= 3

    def test_multiplicities_sum_to_n(self):
        s = decompose(build_erdos_renyi(35, 0.3, seed=8))
        assert sum(m for _, m in degeneracy_table(s)) == s.n


def projector_diagonals(s):
    """W[j, E]: the diagonal of the projector onto cluster E at node j,
    from the eigenvectors of each cluster."""
    v = s.eigenvectors
    return np.column_stack([np.diag(v[:, a:a + m] @ v[:, a:a + m].T)
                            for a, m in zip(s.starts, s.mult)])


def gram(s):
    """G = F^T F, the Gram matrix of the projector diagonals, from the
    spectrum's factor."""
    factor = projector_factor(s)
    return factor.T @ factor


def running_mean_table(eigenvalues, tol):
    # the clustering rule written out once more, element by element; a
    # run's level is its first member plus the members' mean deviation from
    # it, so a run of bit-identical members keeps their value
    def level(run):
        return run[0] + math.fsum(lam - run[0] for lam in run) / len(run)

    table, run = [], []
    for lam in eigenvalues:
        if run and abs(lam - sum(run) / len(run)) <= tol:
            run.append(lam)
        else:
            if run:
                table.append((level(run), len(run)))
            run = [lam]
    return table + [(level(run), len(run))]


class TestClusters:
    graphs = [build_star(12), build_dendrimer(3, 3), build_ring(40),
              build_erdos_renyi(30, 0.2, seed=4)]

    @pytest.mark.parametrize("g", graphs)
    def test_matches_running_mean_rule(self, g):
        s = decompose(g)
        want = running_mean_table(s.eigenvalues.tolist(), 1e-8 * max(1.0, s.eigenvalues[-1]))
        assert list(zip(s.levels.tolist(), s.mult.tolist())) == want
        assert s.mult.sum() == s.n
        np.testing.assert_array_equal(s.starts, np.cumsum(s.mult) - s.mult)

    def test_bit_identical_dense_run_keeps_its_value(self):
        # the running mean of three copies of 0.1 is 0.10000000000000002
        lam = [0.1, 0.1, 0.1, 0.7, 0.7 + 1e-12, 0.7 + 2e-12]
        s = Spectrum(np.array(lam))
        assert list(zip(s.levels.tolist(), s.mult.tolist())) == running_mean_table(lam, 1e-8)
        assert s.levels[0] == 0.1
        assert s.levels[1] == lam[3] + ((lam[4] - lam[3]) + (lam[5] - lam[3])) / 3

    def test_built_once(self):
        s = decompose(build_star(9), with_vectors=True)
        assert s.levels is s.levels and s.mult is s.mult and s.starts is s.starts

    @pytest.mark.parametrize("g", graphs)
    def test_weights_are_projector_diagonals(self, g):
        s = decompose(g, with_vectors=True)
        w = projector_diagonals(s)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(gram(s), w.T @ w, rtol=0, atol=1e-13)
        assert gram(s).sum() == pytest.approx(s.n, rel=1e-12)

    def test_weights_need_vectors(self):
        s = decompose(build_ring(6))
        with pytest.raises(ValueError, match="eigenvector"):
            projector_factor(s)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0.0, 3e-12, 1e-11]),
                              st.integers(1, 6)), min_size=1, max_size=24))
    def test_modes_match_their_expansion(self, modes):
        # unsorted, non-negative modes on levels k / 7, some bit-identical,
        # some a little apart, all far inside the tolerance of their cluster
        values = np.array([k / 7 + jitter for k, jitter, _ in modes])
        counts = np.array([c for _, _, c in modes])
        collapsed = Spectrum(values, counts)
        expanded = Spectrum(np.sort(np.repeat(values, counts)))
        np.testing.assert_array_equal(collapsed.mult, expanded.mult)
        np.testing.assert_array_equal(collapsed.starts, expanded.starts)
        np.testing.assert_allclose(collapsed.levels, expanded.levels, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(collapsed.eigenvalues, expanded.eigenvalues)
        assert collapsed.n == expanded.n == counts.sum()

    def test_degeneracies_csv_unchanged(self):
        # the table goes through float means, exactly as the scalar loop did
        s = decompose(build_dendrimer(4, 3))
        want = running_mean_table(list(s.eigenvalues), default_cluster_tol(s.eigenvalues))
        lines = ["value,multiplicity"] + [f"{repr(float(v))},{m}" for v, m in want]
        assert csv_text(degeneracies_csv(s)) == "\n".join(lines) + "\n"


# trees that are neither star nor dendrimer: a branching of 1 makes a
# block of multiplicity 0, a root of one child a path above the tree, and
# 34 shells more pair orbits (34^3) than a 16-bit signed index holds
GENERAL_TREES = [_build_tree(b) for b in [(2,), (1, 2), (2, 1, 1, 1), (3, 1, 4), (1, 3, 2),
                                          (4, 2, 2, 3), (1, 1, 5), (5, 1), (2, 2, 2, 2, 2),
                                          (2,) + (1,) * 32]]

SYMMETRIC_FAMILIES = (
    [build_ring(n) for n in range(3, 41)]
    + [build_hypercubic(side, d) for side in range(3, 8) for d in (1, 2, 3)]
    + [build_star(n) for n in range(3, 41)]
    + [build_dendrimer(g, z) for z in (3, 4, 5) for g in range(10)
       if dendrimer_node_count(g, z) <= 1500]
    + [build_dendrimer(10, 3)]
    + GENERAL_TREES
)


def exact_levels(g):
    """The distinct Laplacian eigenvalues of a torus or shell tree at the
    working mpmath precision, with their multiplicities, ascending; no
    shell block or float of the code under test enters.

    Torus levels are the sums over the axes of 4 sin^2(pi k / side), one
    per wave vector. A tree's are isolated by bisection on the number of
    eigenvalues below x, the negative pivots of L - x I eliminated from
    the leaves up (Sylvester's inertia): elimination on a tree makes no
    fill-in, and all nodes of one shell share their pivot."""
    name, *params = g.family
    tiny = mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    if name == "torus":
        side, d = params
        waves = [4 * mpmath.sin(mpmath.pi * k / side) ** 2 for k in range(side)]
        table = []
        for lam in sorted(sum(axes) for axes in itertools.product(waves, repeat=d)):
            if table and lam - table[-1][0] < tiny:
                table[-1][1] += 1
            else:
                table.append([lam, 1])
        return [(lam, m) for lam, m in table]
    (branching,) = params
    sizes = np.cumprod((1,) + branching).tolist()

    def count_below(x):
        below, pivot = 0, None
        for shell in reversed(range(len(sizes))):
            if shell == len(branching):
                d = int(shell > 0) - x
            else:
                d = branching[shell] + int(shell > 0) - x - branching[shell] / pivot
            pivot = d if d != 0 else tiny**2
            below += sizes[shell] * (pivot < 0)
        return below

    table, stack = [], [(-mpmath.mpf(1) / 3, 2 * max(branching, default=0) + 2.5, 0, g.n)]
    while stack:
        lo, hi, n_lo, n_hi = stack.pop()
        if n_lo == n_hi:
            continue
        if hi - lo < tiny:
            table.append(((lo + hi) / 2, n_hi - n_lo))
            continue
        mid = (lo + hi) / 2
        n_mid = count_below(mid)
        stack += [(mid, hi, n_mid, n_hi), (lo, mid, n_lo, n_mid)]
    return sorted(table)


def test_laplacian_matches_dense_assembly():
    # the dense oracle: degrees on the diagonal, -1 at (i, j) and (j, i) per edge
    for g in SYMMETRIC_FAMILIES + [parse_graph_spec("er:300,0.05,seed=3"),
                                   parse_graph_spec("er:800,0.02,seed=1"), DISCONNECTED]:
        i, j = g.edges.T
        dense = np.zeros((g.n, g.n))
        dense[i, j] = dense[j, i] = -1.0
        dense.flat[::g.n + 1] = g.degrees()
        lap = laplacian(g)
        assert lap.dtype == np.float64 and lap.flags.c_contiguous
        assert np.array_equal(lap.view(np.uint64), dense.view(np.uint64))


@pytest.mark.parametrize("draw_block", [7, graphs._DRAW_BLOCK])
def test_laplacian_row_blocks_stack_to_the_whole(draw_block, monkeypatch):
    # blocks of rows, each scanning the edges a few at a time or in one
    # block, stack to the whole matrix, whose lower triangle is the one
    # the solve is given
    for g in [parse_graph_spec("er:300,0.05,seed=3"), build_dendrimer(4, 3), DISCONNECTED,
              Graph(5, [])]:
        whole = laplacian(g)
        assert np.array_equal(np.tril(whole), _lower_laplacian(g))
        monkeypatch.setattr(graphs, "_DRAW_BLOCK", draw_block)
        for step in (1, 7, 64, g.n):
            blocks = [laplacian(g, slice(lo, lo + step)) for lo in range(0, g.n, step)]
            assert np.array_equal(np.vstack(blocks), whole)
        assert laplacian(g, slice(3, 3)).shape == (0, g.n)
        monkeypatch.undo()


class TestGraphSpectrum:
    @pytest.fixture(scope="class")
    def pairs(self):
        # (closed form, dense oracle with vectors) for every member of the sweep
        return [(graph_spectrum(g), decompose(g, with_vectors=True))
                for g in SYMMETRIC_FAMILIES]

    def test_equals_dense_as_multiset(self, pairs):
        for g, (exact, dense) in zip(SYMMETRIC_FAMILIES, pairs):
            assert exact.path == "closed_form" and dense.path == "dense"
            assert exact.n == g.n and exact.eigenvectors is None
            assert exact.pairs is None
            assert np.all(np.diff(exact.eigenvalues) >= 0), g.family
            np.testing.assert_allclose(exact.eigenvalues, dense.eigenvalues,
                                       rtol=0, atol=1e-10, err_msg=str(g.family))

    def test_degeneracies_match_dense(self, pairs):
        for g, (exact, dense) in zip(SYMMETRIC_FAMILIES, pairs):
            got, want = degeneracy_table(exact), degeneracy_table(dense)
            assert [m for _, m in got] == [m for _, m in want], g.family
            np.testing.assert_allclose([v for v, _ in got], [v for v, _ in want],
                                       rtol=0, atol=1e-10, err_msg=str(g.family))

    def test_orbit_weights_match_dense(self, pairs):
        # pi_bar on the default grid against the dense projectors at the
        # closed form's levels, so that only the weights differ: at t = 1e4
        # one ulp of a level moves pi_bar by about 1e-11, and the dense
        # levels, means over up to thousands of eigenvalues, are off by more
        grid = log_grid()
        for g, (_, dense) in zip(SYMMETRIC_FAMILIES, pairs):
            orbit = graph_spectrum(g, with_vectors=True)
            assert orbit.pairs is not None and orbit.eigenvectors is None
            np.testing.assert_array_equal(orbit.eigenvalues, graph_spectrum(g).eigenvalues)
            np.testing.assert_array_equal(orbit.mult, dense.mult, err_msg=str(g.family))
            sizes, omega = orbit.pairs.diagonal(orbit.cluster)
            assert sizes.sum() == g.n and (len(sizes) < g.n or g.n == 1)
            assert omega.shape == (len(sizes), len(orbit.levels))
            weights = np.repeat(omega, sizes, axis=0)
            np.testing.assert_allclose(weights, projector_diagonals(dense), rtol=0,
                                       atol=1e-11, err_msg=f"{g.family} weights")
            np.testing.assert_allclose(gram(orbit), gram(dense), rtol=0,
                                       atol=1e-11, err_msg=f"{g.family} gram")
            at_levels = Spectrum(orbit.values, orbit.counts, eigenvectors=dense.eigenvectors)
            np.testing.assert_allclose(
                transport_series(orbit, grid, with_exact_quantum=True).pi_bar,
                transport_series(at_levels, grid, with_exact_quantum=True).pi_bar,
                rtol=0, atol=1e-13, err_msg=str(g.family))

    def test_factor_gram_is_the_projector_gram(self, pairs):
        # F^T F against G = W^T W as it was built before the factor: W the
        # diagonal orbits scaled by the square roots of their sizes, or the
        # squared eigenvectors summed per cluster, where F is W itself or,
        # with degenerate clusters, the R of its QR decomposition
        for g, (_, dense) in zip(SYMMETRIC_FAMILIES, pairs):
            orbit = graph_spectrum(g, with_vectors=True)
            sizes, omega = orbit.pairs.diagonal(orbit.cluster)
            for s, w in [(orbit, omega * np.sqrt(sizes)[:, None]),
                         (dense, np.add.reduceat(dense.eigenvectors**2, dense.starts, axis=1))]:
                k, want = len(s.levels), w.T @ w
                factor = projector_factor(s)
                assert factor.shape[1] == k and len(factor) <= k, g.family
                # relative to G's largest entry: on a dendrimer a cluster of
                # hundreds of vectors has G_EE near 100, and both products
                # round there by several ulp
                np.testing.assert_allclose(gram(s), want, rtol=0,
                                           atol=1e-13 * max(1.0, want.max()),
                                           err_msg=f"{g.family} {s.path}")
            # one diagonal orbit on a torus, one per shell on a tree
            orbits = 1 if g.family[0] == "torus" else len(g.family[1]) + 1
            assert len(projector_factor(orbit)) == orbits

    def test_dense_pi_bar_at_late_times(self, pairs):
        # the dense levels of decompose(dendrimer:6,4), clusters of up to
        # 648 eigenvalues, and its projectors, against 50 digits: at t near
        # 1e4 a level error d moves pi_bar by up to 2 t |d|; levels taken as
        # running sums over the members put it 1.5e-11 off at these times,
        # as the first member plus the mean deviation 6.2e-13
        g = build_dendrimer(6, 4)
        dense = pairs[SYMMETRIC_FAMILIES.index(g)][1]
        times = [8765.25, 9500.0, 1e4]
        v = dense.eigenvectors
        w = np.column_stack([(v[:, a:a + m] ** 2).sum(axis=1)
                             for a, m in zip(dense.starts, dense.mult)])
        with mpmath.workdps(50):
            table = exact_levels(g)
            assert [m for _, m in table] == dense.mult.tolist()
            g_exact = mpmath.matrix((w.T @ w).tolist())
            exact = []
            for t in times:
                c = mpmath.matrix([mpmath.cos(lam * t) for lam, _ in table])
                s = mpmath.matrix([mpmath.sin(lam * t) for lam, _ in table])
                exact.append(float(((c.T * g_exact * c)[0] + (s.T * g_exact * s)[0]) / g.n))
        got = transport_series(dense, TimeGrid(np.array(times)), with_exact_quantum=True).pi_bar
        np.testing.assert_allclose(got, exact, rtol=0, atol=2e-12)

    @pytest.mark.parametrize("g", [build_dendrimer(6, 4), build_hypercubic(5, 3),
                                   build_dendrimer(10, 3), build_star(30), _build_tree((1, 3, 2))])
    def test_pi_bar_matches_forty_digits(self, pairs, g):
        # end to end against 40 digits: exact levels, and the Gram matrix
        # of the dense projectors. pi_bar(t) = (c G c + s G s) / n with
        # c_E = cos(lam_E t), s_E = sin(lam_E t), so a level error d moves
        # it by up to 2 t |d|; at t = 1e4 the dense running-mean levels,
        # up to 28 ulp off, miss by 1.1e-11, the closed form's by 6.5e-13
        with mpmath.workdps(40):
            table = exact_levels(g)
            dense = pairs[SYMMETRIC_FAMILIES.index(g)][1]
            orbit = graph_spectrum(g, with_vectors=True)
            assert [m for _, m in table] == orbit.mult.tolist() == dense.mult.tolist()
            want = np.array([float(lam) for lam, _ in table])
            # a few ulp of the largest level, the error of a small dense solve
            assert np.abs(orbit.levels - want).max() <= 8 * np.spacing(want[-1]), g.family
            v = dense.eigenvectors
            w = np.column_stack([(v[:, a:a + m] ** 2).sum(axis=1)
                                 for a, m in zip(dense.starts, dense.mult)])
            gram = mpmath.matrix((w.T @ w).tolist())
            times = [0.5, 3.0, 20.0, 150.0, 1e3, 4321.5, 1e4]
            exact = []
            for t in times:
                c = mpmath.matrix([mpmath.cos(lam * t) for lam, _ in table])
                s = mpmath.matrix([mpmath.sin(lam * t) for lam, _ in table])
                exact.append(float(((c.T * gram * c)[0] + (s.T * gram * s)[0]) / g.n))
        np.testing.assert_allclose(
            transport_series(orbit, TimeGrid(np.array(times)), with_exact_quantum=True).pi_bar,
            exact, rtol=0, atol=1e-11, err_msg=str(g.family))

    def test_bit_identical_clusters_keep_their_value(self):
        # a running mean of equal values drifts by rounding; it moved 25
        # levels of dendrimer:10,3 by up to 48 ulp, and 129 of torus:50,2
        # by up to 2 ulp
        for g in SYMMETRIC_FAMILIES + [build_hypercubic(50, 2)]:
            s = graph_spectrum(g)
            lam = s.eigenvalues
            first, last = lam[s.starts], lam[s.starts + s.mult - 1]
            np.testing.assert_array_equal(s.levels[first == last], first[first == last],
                                          err_msg=str(g.family))

    @pytest.mark.parametrize("side, d", [(5, 3), (5, 4), (7, 3), (9, 3)])
    def test_permuted_wave_vectors_give_equal_bits(self, side, d):
        # each mode's axis terms are summed in ascending order; left to
        # right, one cluster of torus:5,3 held two values and three of
        # torus:5,4 did. Even sides also have levels that different term
        # sets reach (0 + 4 = 2 + 2 on side 4): test_every_cluster_holds_one_value
        s = graph_spectrum(build_hypercubic(side, d))
        for e in range(len(s.levels)):
            assert len(np.unique(s.values[s.cluster == e])) == 1, e

    @pytest.mark.parametrize("g", [build_ring(7), build_ring(600), build_hypercubic(50, 2),
                                   build_hypercubic(6, 2)])
    def test_one_and_two_axes_keep_their_bits(self, g):
        # a ring takes its axis terms in double; two axes are summed in
        # long double, where a sum of two terms commutes, so the outer sum
        # of the long-double axis terms, rounded once, gives the same bits
        side, d = g.family[1:]
        k = np.arange(side)
        if d == 1:
            want = 4.0 * np.sin(np.pi * np.minimum(k, side - k) / side) ** 2
        else:
            pi = 4 * np.arctan(np.longdouble(1))
            axis = 4 * np.sin(pi * np.minimum(k, side - k) / side) ** 2
            want = np.add.outer(axis, axis).ravel().astype(float)
        np.testing.assert_array_equal(graph_spectrum(g).values.view(np.uint64),
                                      want.view(np.uint64))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double on this platform")
    @pytest.mark.parametrize("side, d", [(4, 3), (6, 3), (8, 3), (10, 3), (50, 2), (30, 3)])
    def test_every_cluster_holds_one_value(self, side, d):
        # levels that different term sets reach (0 + 4 = 2 + 2 on side 4)
        # are equal bits too when the sums are rounded once from long
        # double; summed in double, 3 of the 7 clusters of torus:4,3 and
        # 129 of the 419 of torus:30,3 held two values
        s = graph_spectrum(build_hypercubic(side, d))
        pairs = np.unique(np.column_stack([s.cluster, s.values]), axis=0)
        assert len(pairs) == len(s.levels)
        # and each level is within an ulp of its exact value
        with mpmath.workdps(30):
            exact = np.array([float(lam) for lam, _ in exact_levels(build_hypercubic(side, d))])
        assert len(exact) == len(s.levels)
        assert np.all(np.abs(s.levels - exact) <= np.spacing(exact))

    def test_generation_zero_is_one_node(self):
        np.testing.assert_array_equal(graph_spectrum(build_dendrimer(0, 4)).eigenvalues, [0.0])

    def test_stationary_level_is_exactly_zero(self):
        # no solver noise on the zero level, nor on the uniform mode of a
        # tree, whose amplitude is 1/sqrt(N) on every shell
        for g in SYMMETRIC_FAMILIES:
            values = graph_spectrum(g).eigenvalues
            assert values[0] == 0.0 and (values[1:] > 0.0).all(), g.family
            s = graph_spectrum(g, with_vectors=True)
            assert s.eigenvalues[0] == 0.0 and s.levels[0] == 0.0, g.family
            if g.family[0] == "tree":
                assert s.values[0] == 0.0, g.family
                np.testing.assert_array_equal(s.pairs.amplitudes[0],
                                              1.0 / np.sqrt(g.n), err_msg=str(g.family))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 4), max_size=4))
    def test_any_branching_matches_dense(self, branching):
        g = _build_tree(branching)
        exact = graph_spectrum(g, with_vectors=True)
        dense = decompose(g, with_vectors=True)
        np.testing.assert_allclose(exact.eigenvalues, dense.eigenvalues, rtol=0,
                                   atol=1e-10 * max(1.0, dense.eigenvalues[-1]))
        np.testing.assert_array_equal(exact.mult, dense.mult)
        np.testing.assert_allclose(chi_matrix(exact), chi_matrix(dense), rtol=0, atol=1e-13)

    def test_frucht_graph_pi_exceeds_bound(self):
        # |alpha|^2 is exact on walk-regular graphs, where every projector
        # diagonal P_E(j, j) is the same for all j; the Frucht graph is
        # 3-regular with no nontrivial automorphism, and not walk-regular
        lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
        g = Graph(12, [(i, (i + 1) % 12) for i in range(12)]
                  + [(i, (i + step) % 12) for i, step in enumerate(lcf)])
        assert g.edge_count == 18 and set(g.degrees().tolist()) == {3}
        s = decompose(g, with_vectors=True)
        series = transport_series(s, log_grid(), with_exact_quantum=True)
        assert (series.pi_bar - series.alpha_bar_sq).max() > 0.1

    @pytest.mark.parametrize("g", [build_star(12), build_dendrimer(3, 3)])
    def test_vectors_take_the_pair_orbits(self, g):
        s = graph_spectrum(g, with_vectors=True)
        assert s.path == "closed_form"
        assert s.eigenvectors is None and s.residual is None
        assert isinstance(s.pairs, ShellTree)
        np.testing.assert_array_equal(s.eigenvalues, graph_spectrum(g).eigenvalues)
        dense = decompose(g, with_vectors=True)
        np.testing.assert_allclose(gram(s), gram(dense), rtol=0, atol=1e-12)
        np.testing.assert_allclose(chi_matrix(s), chi_matrix(dense), rtol=0, atol=1e-13)

    def test_ring_and_torus_chi_is_translation_invariant(self, pairs):
        for g, (exact, dense) in zip(SYMMETRIC_FAMILIES, pairs):
            if g.family[0] != "torus":
                continue
            s = graph_spectrum(g, with_vectors=True)
            assert isinstance(s.pairs, TorusPairs) and s.eigenvectors is None, g.family
            np.testing.assert_array_equal(s.eigenvalues, exact.eigenvalues)
            chi = chi_matrix(s)
            # a shift by one step along axis 0, and the reflection of every
            # axis, are automorphisms: chi is the same function of the
            # folded displacement everywhere
            side, d = g.family[1:]
            coords = np.indices((side,) * d).reshape(d, -1)[::-1]
            for image in ((coords + np.eye(d, dtype=int)[:, :1]) % side, -coords % side):
                perm = np.ravel_multi_index(image[::-1], (side,) * d)
                assert np.array_equal(chi[np.ix_(perm, perm)], chi), g.family
            np.testing.assert_allclose(chi, chi_matrix(dense), rtol=0, atol=1e-13,
                                       err_msg=str(g.family))

    @pytest.mark.parametrize("n", [10, 1500, 2000])
    def test_star_gram_against_exact_rationals(self, n):
        # W at the centre and at each leaf, per cluster (eigenvalue 0, 1, n);
        # the bound is relative, since the leaf entry (n - 2)^2 / (n - 1) has
        # a float spacing of 2.3e-13 at n = 1500
        centre = [Fraction(1, n), Fraction(0), Fraction(n - 1, n)]
        leaf = [Fraction(1, n), Fraction(n - 2, n - 1), Fraction(1, n * (n - 1))]
        g = gram(graph_spectrum(build_star(n), with_vectors=True))
        for a, b in itertools.product(range(3), repeat=2):
            exact = centre[a] * centre[b] + (n - 1) * leaf[a] * leaf[b]
            assert abs(Fraction(g[a, b]) - exact) <= Fraction(1e-15) * exact, (a, b)

    @pytest.fixture(scope="class")
    def large_dendrimer(self):
        # 3,145,726 nodes in 21 shells and 231 modes: one float64 per node
        # is 24 MB, its edge array 50 MB
        return build_dendrimer(20, 3)

    def test_gram_memory_on_a_large_dendrimer(self, large_dendrimer):
        gram(graph_spectrum(build_dendrimer(3, 3), with_vectors=True))  # imports
        tracemalloc.start()
        try:
            gram(graph_spectrum(large_dendrimer, with_vectors=True))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # nothing n-length: the modes' amplitudes and factors, and K x K
        # arrays
        assert peak <= 2**20

    @pytest.mark.parametrize("with_vectors", [False, True])
    def test_closed_form_run_builds_no_n_length_array(self, large_dendrimer, with_vectors):
        transport_series(graph_spectrum(build_dendrimer(3, 3)), log_grid())  # imports
        tracemalloc.start()
        try:
            s = graph_spectrum(large_dendrimer, with_vectors=with_vectors)
            transport_series(s, log_grid(), with_exact_quantum=with_vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.n == large_dendrimer.n and len(s.values) == 231
        assert peak <= 4 * 2**20

    def test_vertex_transitive_pi_equals_bound(self):
        for g in (build_ring(600), build_hypercubic(12, 3)):
            s = graph_spectrum(g, with_vectors=True)
            series = transport_series(s, log_grid(), with_exact_quantum=True)
            np.testing.assert_allclose(series.pi_bar, series.alpha_bar_sq, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("spec", ["star:1500", "dendrimer:10,3"])
    def test_vectors_run_skips_the_dense_solve(self, spec, tmp_path, monkeypatch):
        eigh = np.linalg.eigh

        def small_only(a, *args, **kwargs):
            # the dendrimer's shell blocks are at most G + 1 = 11 rows
            if len(a) > 32:
                raise AssertionError(f"dense solve of a {len(a)}-row matrix")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", small_only)
        out = tmp_path / "v"
        run_experiment(ExperimentConfig(graph=spec, vectors=True, out=str(out),
                                        grid="log:1e-2,1e3,200"))
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "spectrum.vectors = orbit" in manifest
        assert "pi_bar" in (out / "series.csv").read_text().splitlines()[0]

    def test_other_graphs_take_the_dense_path(self):
        ring = build_ring(9)
        read_back = from_edge_list(f"n {ring.n}\n" + "".join(
            f"{i} {j}\n" for i, j in ring.edges.tolist()))
        assert read_back == ring and hash(read_back) == hash(ring)
        assert read_back.family is None
        for g in (read_back, build_erdos_renyi(30, 0.2, seed=5)):
            s = graph_spectrum(g)
            assert s.path == "dense"
            np.testing.assert_array_equal(s.eigenvalues, decompose(g).eigenvalues)
            s = graph_spectrum(g, with_vectors=True)
            assert s.path == "dense" and s.eigenvectors is not None and s.pairs is None


# every family member with a dense oracle in reach: dendrimers of
# generation 0..7 up to 1500 nodes, stars to 200 nodes, the general trees,
# rings to 64 and tori of side 3..8 in one to three dimensions
CHI_FAMILIES = (
    [build_dendrimer(g, z) for z in (3, 4, 5) for g in range(8)
     if dendrimer_node_count(g, z) <= 1500]
    + [build_star(n) for n in range(3, 201)]
    + GENERAL_TREES
    + [build_ring(n) for n in range(3, 65)]
    + [build_hypercubic(side, d) for side in range(3, 9) for d in (1, 2, 3)]
)


class TestPairOrbitChi:
    def test_equals_dense_chi(self):
        for g in CHI_FAMILIES:
            s = graph_spectrum(g, with_vectors=True)
            assert s.eigenvectors is None and s.pairs is not None, g.family
            chi = chi_matrix(s)
            assert np.array_equal(chi, chi.T), g.family
            np.testing.assert_allclose(chi, chi_matrix(decompose(g, with_vectors=True)),
                                       rtol=0, atol=1e-13, err_msg=str(g.family))

    @pytest.mark.parametrize("spec", ["dendrimer:5,3", "star:40", "ring:50", "torus:7,2",
                                      "torus:6,3"])
    def test_orbit_index_in_blocks_of_rows(self, spec, monkeypatch):
        # blocks of 5 rows build the index that one block builds, and chi
        # from it is still dense chi
        g = parse_graph_spec(spec)
        s = graph_spectrum(g, with_vectors=True)
        whole = s.pairs.orbit_index()
        monkeypatch.setattr(spectral, "_BLOCK_ELEMS", 5 * g.n)
        assert np.array_equal(s.pairs.orbit_index(), whole)
        np.testing.assert_allclose(chi_matrix(s), chi_matrix(decompose(g, with_vectors=True)),
                                   rtol=0, atol=1e-13)

    def test_values_spectrum_has_no_chi(self):
        with pytest.raises(ValueError, match="pair orbits"):
            chi_matrix(graph_spectrum(build_ring(8)))

    def test_chi_run_solves_only_shell_blocks(self, tmp_path, monkeypatch):
        # a --chi run on dendrimer:10,3: no solve larger than a shell block
        # (G + 1 = 11 rows), and while chi's table and diagnostics are built
        # no n x n float array; the chi.csv text (190 MB here) is not written
        largest = [0]

        def sized(solver):
            def run(a, *args, **kwargs):
                largest[0] = max(largest[0], len(a))
                return solver(a, *args, **kwargs)
            return run

        for module, name in [(np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (scipy.linalg, "eigh")]:
            monkeypatch.setattr(module, name, sized(getattr(module, name)))
        drivers = spectral._lapack()
        if drivers is not None:
            sized_drivers = {name: sized(solve) for name, solve in drivers.items()}
            monkeypatch.setattr(spectral, "_lapack", lambda: sized_drivers)
        seen = {}

        def chi_header_only(values, index):
            seen["cells"], seen["peak"] = index.size, tracemalloc.get_traced_memory()[1]
            return iter([b"node\n"])

        monkeypatch.setattr(cli, "chi_csv", chi_header_only)
        cfg = ExperimentConfig(graph="dendrimer:10,3", chi=True, out=str(tmp_path))
        tracemalloc.start()
        try:
            run_experiment(cfg, "spectrum")
        finally:
            tracemalloc.stop()
        assert largest[0] == 11
        # the 16-bit orbit index is a quarter of an n x n float chi, which
        # is never made; its column sums are gathered a block at a time
        assert seen["cells"] == 3070**2 and seen["peak"] <= 0.3 * 8 * seen["cells"]

    def test_deep_tree_projectors_stay_in_blocks(self):
        # 81 nodes in 41 shells: 41^3 pair orbits, so one modes x orbits
        # array of the projectors took chi_matrix to 134.5 MB
        g = _build_tree((2,) + (1,) * 39)
        s = graph_spectrum(g, with_vectors=True)
        chi_matrix(graph_spectrum(build_dendrimer(2, 3), with_vectors=True))  # imports
        tracemalloc.start()
        try:
            chi = chi_matrix(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        np.testing.assert_allclose(chi, chi_matrix(decompose(g, with_vectors=True)),
                                   rtol=0, atol=1e-13)


def test_er_semicircle_ks():
    # standardized Laplacian spectrum of a dense random graph vs the
    # unit-variance semicircle CDF on [-2, 2]
    g = build_erdos_renyi(1000, 0.1, seed=1)
    s = decompose(g)
    z = np.sort((s.eigenvalues - s.eigenvalues.mean()) / s.eigenvalues.std())

    def semicircle_cdf(x):
        x = np.clip(x, -2.0, 2.0)
        return 0.5 + x * np.sqrt(4.0 - x**2) / (4 * np.pi) + np.arcsin(x / 2) / np.pi

    n = len(z)
    cdf = semicircle_cdf(z)
    ks = max(np.abs(np.arange(1, n + 1) / n - cdf).max(),
             np.abs(np.arange(0, n) / n - cdf).max())
    assert ks < 0.05


class TestCSV:
    def test_spectrum_csv(self):
        s = decompose(build_ring(4))
        lines = csv_text(spectrum_csv(s)).splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5
        assert float(lines[-1].split(",")[1]) == pytest.approx(4.0)

    def test_degeneracies_csv(self):
        s = decompose(build_star(10))
        lines = csv_text(degeneracies_csv(s)).splitlines()
        assert lines[0] == "value,multiplicity"
        assert [int(ln.split(",")[1]) for ln in lines[1:]] == [1, 8, 1]


class TestReadLevels:
    """`read_levels`, the one CSV reader: what `degeneracies_csv` writes,
    read back in one numpy parse. The bad rows it refuses, each by its
    line, are listed in test_cli.TestLevelsSource."""

    @pytest.mark.parametrize("graph", ["er:40,0.2,seed=1", "dendrimer:4,3", "star:12",
                                       "torus:6,2"])
    def test_reads_back_what_degeneracies_csv_writes(self, tmp_path, graph):
        s = graph_spectrum(parse_graph_spec(graph))
        path = tmp_path / "degeneracies.csv"
        path.write_text(csv_text(degeneracies_csv(s)))
        got = read_levels(path)
        assert got.path == "levels" and got.n == s.n
        assert got.values.view(np.uint64).tolist() == s.levels.view(np.uint64).tolist()
        assert got.counts.dtype == np.int64 and got.counts.tolist() == s.mult.tolist()
        # each level is its own cluster again, with the same bits
        assert got.levels.view(np.uint64).tolist() == s.levels.view(np.uint64).tolist()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.booleans())
    def test_reads_any_table(self, tmp_path_factory, data, swapped):
        rows = data.draw(st.lists(st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(1, graphs.SPEC_NODE_CAP // 30)), min_size=1, max_size=30))
        blank = st.lists(st.sampled_from(["\n", " \n", "\t\n"]), max_size=2)
        lines = [" multiplicity , value\n" if swapped else "value,multiplicity\n"]
        lines += [f"{c}, {v!r}\n" if swapped else f"{v!r},{c}\n" for v, c in rows]
        path = tmp_path_factory.getbasetemp() / "levels.csv"
        path.write_text("".join(data.draw(blank)) + "".join(
            line + "".join(data.draw(blank)) for line in lines))
        got = read_levels(path)
        values, counts = zip(*rows)
        assert got.values.view(np.uint64).tolist() == np.array(values).view(np.uint64).tolist()
        assert got.counts.tolist() == list(counts)

    def test_valid_input_is_parsed_once(self, tmp_path, monkeypatch):
        calls, loadtxt = [], np.loadtxt

        def counting(*args, **kwargs):
            calls.append(1)
            return loadtxt(*args, **kwargs)

        def boom(*args):
            raise AssertionError("valid input scanned a second time")

        monkeypatch.setattr(np, "loadtxt", counting)
        monkeypatch.setattr(spectral, "_raise_at_first_bad_level", boom)
        path = tmp_path / "levels.csv"
        path.write_text("\n value , multiplicity\n0.0,1\n \n1.5,3\n")
        got = read_levels(path)
        assert calls == [1]
        assert got.values.tolist() == [0.0, 1.5] and got.counts.tolist() == [1, 3]

    def test_rows_past_the_limit_are_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graphs, "SPEC_NODE_CAP", 3)
        path = tmp_path / "levels.csv"
        rows = "".join(f"{k}.0,1\n\n" for k in range(3))
        path.write_text("value,multiplicity\n" + rows)
        assert read_levels(path).n == 3
        # the fourth row is refused for its count, so it is never parsed
        path.write_text("value,multiplicity\n" + rows + "not,a,row\n")
        with pytest.raises(ResourceLimitError, match="more than the limit of 3 rows"):
            read_levels(path)

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "0x1p3", "#1", "1 2", ""])
    def test_a_field_numpy_refuses_names_its_line(self, tmp_path, field):
        # float() takes the first two, np.loadtxt does not; the rescan
        # must find the row the parse failed on
        path = tmp_path / "levels.csv"
        path.write_text(f"value,multiplicity\n1.0,2\n\n2.0,{field}\n")
        with pytest.raises(ParseError, match="^line 4: expected 2 "):
            read_levels(path)

    def test_read_memory(self, tmp_path):
        # the rows are parsed straight into one array, 16 B a row of two
        # columns, and the spectrum keeps a level and a count, 16 B a row
        n = 200_000
        path = tmp_path / "levels.csv"
        path.write_text("value,multiplicity\n" + "".join(f"{k * 0.001!r},{k % 7 + 1}\n"
                                                          for k in range(n)))
        tracemalloc.start()
        try:
            got = read_levels(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.n == sum(k % 7 + 1 for k in range(n))
        assert held <= 17 * n and peak <= 40 * n
