"""Graph constructors and Laplacian assembly.

All graphs are simple, undirected and unweighted, with nodes indexed
0..n-1. Every builder is a pure function of its arguments, so two calls
with the same arguments give identical edge sets. Hop rates between
connected nodes are all 1, which makes the combinatorial Laplacian both
the generator of the classical walk (negated) and the quantum
Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ParseError, ResourceLimitError

DEFAULT_SIZE_CAP = 5000


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: node count plus a set of (i, j) pairs, i < j.

    `family` is set by the builders of the symmetric families, as
    ("ring", n), ("star", n), ("torus", side, d) or ("dendrimer", G, z),
    so that `spectral.graph_spectrum` can use their closed-form spectra.
    Equality and hashing ignore it: a graph read back from an edge list
    equals the one built, and simply takes the general path. It is not
    checked against the edges, so a copy with other edges (say from
    `dataclasses.replace`) must not keep it.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    family: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one node, got n={self.n}")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_index(self) -> np.ndarray:
        """The edges as an (m, 2) int64 array, in the set's iteration order."""
        flat = np.fromiter(chain.from_iterable(self.edges), dtype=np.int64,
                           count=2 * len(self.edges))
        return flat.reshape(-1, 2)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_index().ravel(), minlength=self.n)

    @cached_property
    def connected(self) -> bool:
        """True if a single component spans all nodes (union-find)."""
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        root = find(0)
        return all(find(v) == root for v in range(self.n))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _make_graph(n, edge_iter, family=None):
    edges = frozenset((i, j) if i < j else (j, i) for i, j in edge_iter)
    return Graph(n=n, edges=edges, family=family)


def build_ring(n: int) -> Graph:
    """Cycle of n nodes with periodic boundary; every degree is 2."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    return _make_graph(n, ((i, (i + 1) % n) for i in range(n)), ("ring", n))


def build_star(n: int) -> Graph:
    """Node 0 is the core, nodes 1..n-1 hang off it and nothing else."""
    if n < 3:
        raise ValueError(f"star needs n >= 3, got {n}")
    return _make_graph(n, ((0, i) for i in range(1, n)), ("star", n))


def build_dendrimer(generation: int, z: int = 3) -> Graph:
    """Tree with a core of functionality z; each later node has z-1 children.

    Nodes are indexed breadth-first from the core, children in creation
    order, so shell g occupies a contiguous index range. For z=3 the node
    count is 3 * 2**generation - 2.
    """
    if z < 3:
        raise ValueError(f"dendrimer functionality must be >= 3, got z={z}")
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    edges = []
    shell = [0]
    nxt = 1
    for g in range(1, generation + 1):
        new_shell = []
        for parent in shell:
            for _ in range(z if g == 1 else z - 1):
                edges.append((parent, nxt))
                new_shell.append(nxt)
                nxt += 1
        shell = new_shell
    return _make_graph(nxt, edges, ("dendrimer", generation, z))


def dendrimer_node_count(generation: int, z: int = 3) -> int:
    """Closed form for the dendrimer size: 1 + z*((z-1)**G - 1)/(z-2)."""
    if z < 3:
        raise ValueError(f"dendrimer functionality must be >= 3, got z={z}")
    return 1 + z * ((z - 1) ** generation - 1) // (z - 2)


def build_hypercubic(side: int, d: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Periodic d-dimensional torus with `side` nodes per axis; degree 2d.

    Node index encodes coordinates base `side`, axis 0 fastest. The 1D
    case is the ring under the identity relabeling.
    """
    if side < 3:
        raise ValueError(f"torus needs side >= 3, got {side}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    n = side**d
    if n > size_cap:
        raise ResourceLimitError(
            f"torus {side}^{d} = {n} nodes exceeds size cap {size_cap}"
        )
    strides = [side**k for k in range(d)]
    edges = []
    for v in range(n):
        for axis in range(d):
            c = (v // strides[axis]) % side
            w = v + ((c + 1) % side - c) * strides[axis]
            edges.append((v, w))
    return _make_graph(n, edges, ("torus", side, d))


def build_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a counter-based generator so draws are platform-stable.

    Each of the n*(n-1)/2 pairs, taken in lexicographic order, is included
    iff the matching raw 64-bit draw from Philox4x64-10 keyed by `seed` is
    below floor(p * 2**64). The inclusion probability is exact to 2**-64
    and the edge set is bit-reproducible for fixed (n, p, seed).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0 < p <= 1):
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    iu, ju = np.triu_indices(n, k=1)
    raw = np.random.Philox(key=seed).random_raw(len(iu))
    if p < 1:
        mask = raw < int(p * 2**64)
        iu, ju = iu[mask], ju[mask]
    return _make_graph(n, zip(iu.tolist(), ju.tolist()))


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian: degrees on the diagonal, -1 per edge.

    Rows sum to zero exactly (integer-valued entries), and the matrix is
    symmetric positive semi-definite.
    """
    index = g.edge_index()
    i, j = index.T
    L = np.zeros((g.n, g.n))
    L[i, j] = -1.0
    L[j, i] = -1.0
    L.flat[::g.n + 1] = np.bincount(index.ravel(), minlength=g.n)
    return L


# -- edge-list serialization --------------------------------------------------

def to_edge_list(g: Graph) -> str:
    """Text form: first line 'n <count>', then one 'i j' line per edge, ascending."""
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    """Inverse of `to_edge_list`; blank lines are skipped.

    A line that is not two integers, names a node outside [0, n), makes a
    self-loop or repeats an edge raises ParseError naming its 1-based line
    number.
    """
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    header = lines[0][1].split() if lines else []
    if len(header) != 2 or header[0] != "n" or not header[1].isdigit():
        raise ParseError("edge list must start with 'n <count>'",
                         text=lines[0][1] if lines else "", position=0)
    n = int(header[1])
    edges = set()
    for no, ln in lines[1:]:
        try:
            i, j = map(int, ln.split())
        except ValueError:
            raise ParseError(f"line {no}: expected two integer node indices",
                             text=ln, position=0) from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"line {no}: node out of range for n={n}", text=ln, position=0)
        if i == j:
            raise ParseError(f"line {no}: self-loop at node {i}", text=ln, position=0)
        edge = (i, j) if i < j else (j, i)
        if edge in edges:
            raise ParseError(f"line {no}: duplicate edge {edge}", text=ln, position=0)
        edges.add(edge)
    return _make_graph(n, edges)


# -- spec-string parsing ------------------------------------------------------

def parse_graph_spec(spec: str, default_seed: int = 0,
                     size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Build a graph from a compact family spec.

    Accepted forms: ring:N, star:N, dendrimer:G,Z, torus:SIDE,D,
    er:N,P[,seed=S]. The ER seed falls back to `default_seed` when the
    spec does not carry one.
    """
    if ":" not in spec:
        raise ParseError("expected '<family>:<params>'", text=spec, position=len(spec))
    family, _, params = spec.partition(":")
    family = family.strip().lower()
    parts = [p.strip() for p in params.split(",")] if params else []

    def want(k):
        if len(parts) != k:
            raise ParseError(f"{family} spec takes {k} parameter(s)", text=spec,
                             position=len(family) + 1)

    try:
        if family == "ring":
            want(1)
            return build_ring(int(parts[0]))
        if family == "star":
            want(1)
            return build_star(int(parts[0]))
        if family == "dendrimer":
            want(2)
            return build_dendrimer(int(parts[0]), int(parts[1]))
        if family == "torus":
            want(2)
            return build_hypercubic(int(parts[0]), int(parts[1]), size_cap=size_cap)
        if family == "er":
            if len(parts) not in (2, 3):
                raise ParseError("er spec is er:N,P[,seed=S]", text=spec,
                                 position=len(family) + 1)
            seed = default_seed
            if len(parts) == 3:
                key, _, val = parts[2].partition("=")
                if key.strip() != "seed":
                    raise ParseError("third er parameter must be seed=<int>",
                                     text=spec, position=spec.find(parts[2]))
                seed = int(val)
            return build_erdos_renyi(int(parts[0]), float(parts[1]), seed)
    except ValueError as exc:
        if isinstance(exc, (ParseError, ResourceLimitError)):
            raise
        raise ParseError(str(exc), text=spec, position=len(family) + 1) from exc
    raise ParseError(f"unknown graph family {family!r}", text=spec, position=0)
