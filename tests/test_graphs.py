import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

import specwalk.graphs as graphs
from specwalk import (
    Graph,
    ParseError,
    ResourceLimitError,
    build_dendrimer,
    build_erdos_renyi,
    build_hypercubic,
    build_ring,
    build_star,
    dendrimer_node_count,
    from_edge_list,
    laplacian,
    parse_graph_spec,
)
from specwalk.cli import main


def to_edge_list(g):
    """The edge-list text `from_edge_list` reads: 'n <count>', then one
    'i j' line per edge, ascending; the round-trip oracle."""
    lines = [f"n {g.n}"] + [f"{i} {j}" for i, j in g.edges.tolist()]
    return "\n".join(lines) + "\n"


def is_connected(g):
    """True if a single component spans all nodes."""
    i, j = g.edges.T
    adjacency = csr_array((np.ones(len(i)), (i, j)), shape=(g.n, g.n))
    return connected_components(adjacency, directed=False, return_labels=False) == 1


def ring_eigenvalues(n):
    # closed form for the cycle Laplacian
    return np.sort(2 - 2 * np.cos(2 * np.pi * np.arange(n) / n))


def triu_mask_erdos_renyi(n, p, seed):
    # the construction over all n(n-1)/2 index pairs, kept as the oracle
    # for the pair mapping of build_erdos_renyi
    iu, ju = np.triu_indices(n, k=1)
    raw = np.random.Philox(key=seed).random_raw(len(iu))
    if p < 1:
        mask = raw < int(p * 2**64)
        iu, ju = iu[mask], ju[mask]
    return np.column_stack((iu, ju))


def per_edge_torus(side, d):
    # the builder written out node by node, as it was before vectorising
    n = side**d
    edges = []
    for v in range(n):
        for axis in range(d):
            stride = side**axis
            c = (v // stride) % side
            edges.append((v, v + ((c + 1) % side - c) * stride))
    return Graph(n=n, edges=frozenset((min(e), max(e)) for e in edges))


def per_edge_dendrimer(generation, z):
    edges, shell, nxt = [], [0], 1
    for g in range(1, generation + 1):
        new_shell = []
        for parent in shell:
            for _ in range(z if g == 1 else z - 1):
                edges.append((parent, nxt))
                new_shell.append(nxt)
                nxt += 1
        shell = new_shell
    return Graph(n=nxt, edges=frozenset(edges))


class TestRing:
    def test_triangle(self):
        g = build_ring(3)
        assert g.n == 3
        assert g.edge_count == 3

    def test_two_hundred_ring(self):
        g = build_ring(200)
        assert g.edge_count == 200
        assert set(g.degrees().tolist()) == {2}

    def test_ring4_spectrum(self):
        lam = np.linalg.eigvalsh(laplacian(build_ring(4)))
        np.testing.assert_allclose(lam, [0, 2, 2, 4], atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_small(self, n):
        with pytest.raises(ValueError):
            build_ring(n)


class TestStar:
    def test_smallest(self):
        g = build_star(3)
        assert g.edge_count == 2
        assert sorted(g.degrees().tolist()) == [1, 1, 2]

    def test_degrees(self):
        g = build_star(10)
        deg = g.degrees()
        assert deg[0] == 9
        assert set(deg[1:].tolist()) == {1}

    def test_star5_spectrum(self):
        lam = np.linalg.eigvalsh(laplacian(build_star(5)))
        np.testing.assert_allclose(lam, [0, 1, 1, 1, 5], atol=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_star(2)


class TestDendrimer:
    def test_bare_core(self):
        g = build_dendrimer(0, 3)
        assert g.n == 1
        assert g.edge_count == 0

    def test_generation_10_size(self):
        assert build_dendrimer(10, 3).n == 3 * 2**10 - 2 == 3070

    def test_generation_2(self):
        g = build_dendrimer(2, 3)
        assert g.n == 10
        assert (g.degrees() == 1).sum() == 6  # leaves

    @pytest.mark.parametrize("z", [3, 4, 5])
    @pytest.mark.parametrize("generation", range(5))
    def test_node_count_closed_form(self, generation, z):
        g = build_dendrimer(generation, z)
        assert g.n == dendrimer_node_count(generation, z)
        if z == 3:
            assert g.n == 3 * 2**generation - 2

    def test_is_tree(self):
        g = build_dendrimer(4, 3)
        assert g.edge_count == g.n - 1
        assert is_connected(g)

    def test_bad_functionality(self):
        with pytest.raises(ValueError):
            build_dendrimer(3, 2)


class TestBuildersMatchPerEdgeLoops:
    @pytest.mark.parametrize("side,d", [(3, 1), (3, 2), (3, 3), (4, 3), (7, 2), (5, 4)])
    def test_torus(self, side, d):
        assert build_hypercubic(side, d) == per_edge_torus(side, d)

    @pytest.mark.parametrize("generation,z", [(0, 3), (1, 3), (2, 3), (6, 3), (1, 4),
                                              (4, 4), (3, 5)])
    def test_dendrimer(self, generation, z):
        assert build_dendrimer(generation, z) == per_edge_dendrimer(generation, z)

    @pytest.mark.parametrize("n", [3, 4, 5, 200])
    def test_ring_and_star(self, n):
        assert build_ring(n) == Graph(n=n, edges=[(i, (i + 1) % n) for i in range(n)])
        assert build_star(n) == Graph(n=n, edges=[(0, i) for i in range(1, n)])


class TestHypercubic:
    def test_1d_equals_ring(self):
        assert build_hypercubic(200, 1) == build_ring(200)

    def test_triangle(self):
        assert build_hypercubic(3, 1) == build_ring(3)

    def test_2d_spectrum_is_tensor_sum(self):
        lam = np.linalg.eigvalsh(laplacian(build_hypercubic(4, 2)))
        one_d = ring_eigenvalues(4)
        expected = np.sort(np.add.outer(one_d, one_d).ravel())
        np.testing.assert_allclose(lam, expected, atol=1e-12)

    def test_degrees(self):
        assert set(build_hypercubic(3, 3).degrees().tolist()) == {6}

    @pytest.mark.parametrize("n", [*range(3, 65), 1000, 4999, 5001, 100_000])
    def test_ring_is_the_1d_torus(self, n):
        ring, torus = build_ring(n), build_hypercubic(n, 1)
        assert ring == torus == Graph(n=n, edges=[(i, (i + 1) % n) for i in range(n)])
        assert ring.family == torus.family == ("torus", n, 1)

    def test_builds_above_the_dense_cap(self):
        # the builder checks no cap; the spec and the n x n paths do
        g = build_hypercubic(80, 2)
        assert (g.n, g.edge_count) == (6400, 12800)


class TestErdosRenyi:
    def test_two_nodes_full(self):
        g = build_erdos_renyi(2, 1.0, seed=42)
        assert np.array_equal(g.edges, [[0, 1]])

    def test_complete_graph_spectrum(self):
        g = build_erdos_renyi(100, 1.0, seed=0)
        lam = np.linalg.eigvalsh(laplacian(g))
        np.testing.assert_allclose(lam[0], 0, atol=1e-10)
        np.testing.assert_allclose(lam[1:], 100.0, atol=1e-10)

    def test_bit_reproducible(self):
        a = build_erdos_renyi(60, 0.2, seed=7)
        b = build_erdos_renyi(60, 0.2, seed=7)
        assert np.array_equal(a.edges, b.edges)
        c = build_erdos_renyi(60, 0.2, seed=8)
        assert not np.array_equal(a.edges, c.edges)

    def test_connectivity_flag(self):
        sparse = build_erdos_renyi(12, 0.08, seed=3)
        assert not is_connected(sparse)
        assert is_connected(build_erdos_renyi(12, 1.0, seed=3))

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**128 - 1])
    @pytest.mark.parametrize("p", [0.01, 0.2, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 400])
    def test_matches_triu_mask_oracle(self, n, p, seed):
        g = build_erdos_renyi(n, p, seed=seed)
        assert np.array_equal(g.edges, triu_mask_erdos_renyi(n, p, seed))

    def test_benchmark_size_matches_oracle(self):
        g = parse_graph_spec("er:3000,0.05,seed=1")
        assert np.array_equal(g.edges, triu_mask_erdos_renyi(3000, 0.05, 1))

    @pytest.mark.parametrize("block", [1, 7, 1000])
    @pytest.mark.parametrize("n, p, seed", [(2, 0.5, 1), (45, 0.3, 2), (120, 0.02, 9),
                                            (301, 0.5, 2**40 + 3)])
    def test_blocks_continue_the_one_shot_draw(self, monkeypatch, block, n, p, seed):
        # blocks that end mid-row, and a last block shorter than the rest
        monkeypatch.setattr(graphs, "_DRAW_BLOCK", block)
        g = build_erdos_renyi(n, p, seed=seed)
        assert np.array_equal(g.edges, triu_mask_erdos_renyi(n, p, seed))

    def test_draws_stay_in_blocks(self):
        build_erdos_renyi(10, 0.5, seed=1)
        tracemalloc.start()
        try:
            g = build_erdos_renyi(3000, 0.05, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block of draws and a few arrays of the edges' size (12 MB
        # here); the draws for all 4.5M pairs at once took it to 39 MB
        assert peak <= 1.25 * 8 * graphs._DRAW_BLOCK + 4 * g.edges.nbytes

    def test_complete_graph_build_holds_one_edge_array(self):
        # the edge array is filled, and its order checked, a block of pairs
        # at a time; whole-size index arrays and order keys beside it took
        # the build of er:5000,1 (a 200 MB edge array) to 2.56 times that
        build_erdos_renyi(10, 1.0, seed=0)
        tracemalloc.start()
        try:
            g = parse_graph_spec("er:5000,1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count == 5000 * 4999 // 2
        assert peak <= 1.4 * g.edges.nbytes

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["-1", "2**128"])
    def test_seed_outside_the_key_range(self, seed):
        # the message of the library, which numpy's would not be: seed 0 is a key
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*128\)$"):
            build_erdos_renyi(10, 0.5, seed=seed)
        with pytest.raises(ParseError, match=r"^seed must be in \[0, 2\*\*128\) \(in "):
            parse_graph_spec(f"er:10,0.5,seed={seed}")

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_bad_probability(self, p):
        with pytest.raises(ValueError):
            build_erdos_renyi(10, p, seed=0)


class TestLaplacian:
    def test_triangle_entries(self):
        L = laplacian(build_ring(3))
        np.testing.assert_array_equal(np.diag(L), [2, 2, 2])
        assert L[0, 1] == L[1, 2] == L[0, 2] == -1

    def test_star_core_degree(self):
        assert laplacian(build_star(10))[0, 0] == 9

    def test_exact_row_sums_and_symmetry(self):
        for g in [build_ring(17), build_star(9), build_dendrimer(3, 3),
                  build_hypercubic(4, 2), build_erdos_renyi(30, 0.3, seed=1)]:
            L = laplacian(g)
            assert np.all(L.sum(axis=1) == 0.0)  # integer arithmetic, exact
            assert np.array_equal(L, L.T)

    def test_positive_semidefinite(self):
        for g in [build_ring(11), build_dendrimer(2, 4), build_erdos_renyi(25, 0.2, seed=2)]:
            lam = np.linalg.eigvalsh(laplacian(g))
            assert lam.min() > -1e-9

    @pytest.mark.parametrize("g", [
        Graph(n=1, edges=frozenset()), build_star(9), build_dendrimer(3, 3),
        build_hypercubic(4, 3), build_erdos_renyi(200, 0.1, seed=3),
    ])
    def test_matches_per_edge_loop(self, g):
        # the assembly written out edge by edge, as it was before vectorising
        L = np.zeros((g.n, g.n))
        deg = np.zeros(g.n, dtype=np.int64)
        for i, j in g.edges:
            L[i, j] = L[j, i] = -1.0
            L[i, i] += 1.0
            L[j, j] += 1.0
            deg[i] += 1
            deg[j] += 1
        assert np.array_equal(laplacian(g), L)
        assert np.array_equal(g.degrees(), deg) and g.degrees().dtype == np.int64


    def test_row_block_makes_no_edge_sized_array(self):
        # the rows of one residual block of the complete graph: only the
        # prefix of edges that can reach them is scanned, a block of
        # edges at a time; the CSR matrix of the whole graph peaked at
        # five times the edge array
        g = build_erdos_renyi(3000, 1.0, seed=0)
        laplacian(g, slice(0, 1))
        tracemalloc.start()
        try:
            block = laplacian(g, slice(1000, 1087))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(block[:, 1000:1087], 3000 * np.eye(87) - 1)
        assert peak <= block.nbytes + 4 * 8 * graphs._DRAW_BLOCK < 0.3 * g.edges.nbytes

    def test_rows_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous slice, got step 2"):
            laplacian(build_ring(6), slice(0, 6, 2))


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=frozenset({(0, 3)}))

    def test_edges_are_canonical_read_only_array(self):
        g = build_erdos_renyi(40, 0.3, seed=4)
        assert g.edges.dtype == np.int64 and g.edges.shape == (g.edge_count, 2)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        keys = g.edges[:, 0] * g.n + g.edges[:, 1]
        assert np.all(np.diff(keys) > 0)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1

    def test_input_array_is_copied(self):
        edges = np.array([[0, 1], [1, 2]])
        g = Graph(n=3, edges=edges)
        edges[0] = [0, 2]
        assert np.array_equal(g.edges, [[0, 1], [1, 2]])

    def test_builder_array_is_kept(self):
        # a builder's fresh edge array is not copied: 16 B per edge, once
        edges = np.array([[0, 1], [1, 2]])
        g = Graph(n=3, edges=graphs._Fresh(edges))
        assert np.shares_memory(g.edges, edges) and not g.edges.flags.writeable
        assert g == Graph(n=3, edges=[(0, 1), (1, 2)])

    def test_degrees_copy_no_edge_array(self):
        # np.bincount copies a read-only input whole, so the degrees are
        # counted a block of edges at a time
        g = build_erdos_renyi(3000, 1.0, seed=0)
        tracemalloc.start()
        try:
            degrees = g.degrees()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(degrees, np.full(3000, 2999))
        assert peak <= 1.25 * 16 * graphs._DRAW_BLOCK < 0.3 * g.edges.nbytes

    def test_unsorted_and_repeated_pairs_canonicalise(self):
        messy = Graph(n=5, edges=[(3, 4), (1, 0), (0, 1), (4, 3), (2, 0)])
        assert np.array_equal(messy.edges, [[0, 1], [0, 2], [3, 4]])
        tidy = Graph(n=5, edges=np.array([[0, 1], [0, 2], [3, 4]]))
        assert messy == tidy and hash(messy) == hash(tidy)
        assert to_edge_list(messy) == to_edge_list(tidy)

    @pytest.mark.parametrize("g", [
        build_ring(9), build_star(7), build_dendrimer(3, 4), build_hypercubic(4, 2),
        build_erdos_renyi(60, 0.1, seed=5), Graph(n=1, edges=frozenset()),
    ])
    def test_edge_list_round_trip_equality_and_hash(self, g):
        back = from_edge_list(to_edge_list(g))
        assert back == g and hash(back) == hash(g)
        assert back.family is None
        assert to_edge_list(back).encode() == to_edge_list(g).encode()

    def test_equality_needs_same_node_count_and_edges(self):
        assert Graph(n=3, edges=[(0, 1)]) != Graph(n=4, edges=[(0, 1)])
        assert Graph(n=3, edges=[(0, 1)]) != Graph(n=3, edges=[(0, 2)])
        assert Graph(n=3, edges=[(0, 1)]) != Graph(n=3, edges=[(0, 1), (1, 2)])
        assert Graph(n=3, edges=[(0, 1)]) != "graph"

    def test_rejects_pairs_of_wrong_shape(self):
        with pytest.raises(ValueError, match="pairs"):
            Graph(n=3, edges=[(0, 1, 2)])

    def test_path_graph_by_hand(self):
        g = Graph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))
        assert is_connected(g)
        assert sorted(g.degrees().tolist()) == [1, 1, 2, 2]


class TestEdgeList:
    def test_format(self):
        text = to_edge_list(build_ring(4))
        lines = text.splitlines()
        assert lines[0] == "n 4"
        assert lines[1:] == ["0 1", "0 3", "1 2", "2 3"]

    def test_round_trip(self):
        for g in [build_star(7), build_dendrimer(2, 3), build_erdos_renyi(15, 0.4, seed=9)]:
            assert np.array_equal(from_edge_list(to_edge_list(g)).edges, g.edges)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            from_edge_list("4\n0 1\n")

    @pytest.mark.parametrize("text", ["n\n0 1\n", "n x\n0 1\n", "n 3 4\n", ""])
    def test_malformed_header(self, text):
        with pytest.raises(ParseError, match="must start with 'n <count>'"):
            from_edge_list(text)

    @pytest.mark.parametrize("line", ["0 1 2", "0", "0 x"])
    def test_malformed_line_names_line_number(self, line):
        with pytest.raises(ParseError, match="line 4: expected two integer"):
            from_edge_list(f"n 3\n0 1\n\n{line}\n")

    @pytest.mark.parametrize("text", ["n 3\n0 1\n0 1", "n 3\n0 1\n1 0"])
    def test_duplicate_edge_names_line_number(self, text):
        with pytest.raises(ParseError, match=r"line 3: duplicate edge \(0, 1\)"):
            from_edge_list(text)

    @pytest.mark.parametrize("text", ["n 3\n0 5", "n 3\n0 1\n-1 2"])
    def test_out_of_range_node_names_line_number(self, text):
        line = len(text.splitlines())
        with pytest.raises(ParseError, match=f"line {line}: node out of range for n=3"):
            from_edge_list(text)

    def test_self_loop_names_line_number(self):
        with pytest.raises(ParseError, match="line 2: self-loop at node 1"):
            from_edge_list("n 3\n1 1")


class TestParseGraphSpec:
    @pytest.mark.parametrize("spec,n,edges", [
        ("ring:200", 200, 200),
        ("star:10", 10, 9),
        ("dendrimer:2,3", 10, 9),
        ("torus:200,1", 200, 200),
    ])
    def test_families(self, spec, n, edges):
        g = parse_graph_spec(spec)
        assert (g.n, g.edge_count) == (n, edges)

    def test_er_with_seed(self):
        g = parse_graph_spec("er:30,0.2,seed=5")
        assert np.array_equal(g.edges, build_erdos_renyi(30, 0.2, seed=5).edges)

    def test_er_default_seed(self):
        g = parse_graph_spec("er:30,0.2")
        assert np.array_equal(g.edges, build_erdos_renyi(30, 0.2, seed=0).edges)

    @pytest.mark.parametrize("bad", [
        "ring", "ring:", "ring:2", "ring:2,3", "blob:5", "er:10,0.5,foo=1",
        "dendrimer:3", "torus:4", "star:abc",
    ])
    def test_bad_specs(self, bad):
        with pytest.raises(ParseError):
            parse_graph_spec(bad)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_graph_spec("blob:5")
        assert err.value.position is not None

    @pytest.mark.parametrize("spec, position", [
        ("ring", 0),                          # no colon
        ("blob:5", 0),                        # unknown family
        ("dendrimer:3", 11),                  # a value missing: at the end
        ("ring:5,6", 7),                      # a value too many
        ("er:10,seed=1,0.5", 13),             # a value after a key
        ("star:abc", 5),                      # a bad value
        ("er:10,0.5,foo=1", 10),              # an unknown key
        ("er:10,0.5,seed=1,seed=2", 17),      # a repeated key
        ("ring:2", 5),                        # a value the builder refuses
    ])
    def test_parse_error_points_at_its_part(self, spec, position):
        with pytest.raises(ParseError) as err:
            parse_graph_spec(spec)
        assert err.value.position == position

    @pytest.mark.parametrize("spec", [" RING : 12 ", "er:12, 0.5 , seed = 3"])
    def test_spaces_and_family_case_are_ignored(self, spec):
        compact = spec.replace(" ", "").lower()
        assert parse_graph_spec(spec) == parse_graph_spec(compact)

    def test_er_size_cap_raises_before_any_draw(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("drew or built before checking the size cap")

        monkeypatch.setattr(graphs, "build_erdos_renyi", forbidden)
        monkeypatch.setattr(np.random, "Philox", forbidden)
        with pytest.raises(ResourceLimitError, match="200000 nodes exceeds size cap 5000"):
            parse_graph_spec("er:200000,0.001")
        monkeypatch.setattr(graphs, "DEFAULT_SIZE_CAP", 50)
        with pytest.raises(ResourceLimitError):
            parse_graph_spec("er:51,0.5,seed=2")

    def test_er_at_size_cap_builds(self, monkeypatch):
        monkeypatch.setattr(graphs, "DEFAULT_SIZE_CAP", 50)
        assert parse_graph_spec("er:50,0.5,seed=2").n == 50

    def test_size_cap_is_not_a_parse_error(self):
        # 10^9 nodes, 3 * 10^9 edges
        with pytest.raises(ResourceLimitError):
            parse_graph_spec("torus:1000,3")

    @pytest.mark.parametrize("family", ["torus:{},-1", "dendrimer:-1,{}"])
    def test_negative_exponent_of_a_huge_base_is_a_parse_error(self, family):
        # the size rule takes no negative power, which a base of 400
        # digits would overflow as a float
        with pytest.raises(ParseError, match="must be >= "):
            parse_graph_spec(family.format("9" * 400))

    @pytest.mark.parametrize("spec", ["ring:10000001", "star:10000001", "dendrimer:22,3",
                                      "dendrimer:1000000000,3", "torus:3,100000000",
                                      "torus:1000000000000,2"])
    def test_spec_node_cap_raises_before_any_build(self, spec, tmp_path, capsys):
        # 3^(10^8) takes minutes to compute, so the exponent is bounded first
        started = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="node cap 10000000 "):
                parse_graph_spec(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert time.perf_counter() - started < 0.5
        assert main(["spectrum", "--graph", spec, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_spec_at_node_cap_builds(self, monkeypatch):
        monkeypatch.setattr(graphs, "SPEC_NODE_CAP", 10)
        # dendrimer:2,3 has 10 nodes, dendrimer:3,3 has 22; torus:3,2 has
        # 9 nodes and 18 edges
        for spec in ("ring:10", "star:10", "dendrimer:2,3", "torus:10,1"):
            assert parse_graph_spec(spec).n == 10
        for spec in ("ring:11", "star:11", "dendrimer:3,3", "torus:3,2"):
            with pytest.raises(ResourceLimitError, match="node cap 10"):
                parse_graph_spec(spec)
