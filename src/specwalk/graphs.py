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

import numpy as np

from .errors import ParseError, ResourceLimitError, _read_spec

# node cap of er: specs and of every n x n array: dense Laplacian, eigenvectors, chi
DEFAULT_SIZE_CAP = 5000
# cap on the node and the edge count of the ring, star, dendrimer and torus
# specs, whose spectra need no n x n array; at 10^6 nodes or edges a
# spectrum run peaks near 200 MB
SPEC_NODE_CAP = 10**7
# raw draws of one block of Erdos-Renyi node pairs, 8 MB
_DRAW_BLOCK = 1 << 20


def check_size_cap(n: int, what: str):
    """Raise ResourceLimitError when `what`, of n nodes, exceeds DEFAULT_SIZE_CAP."""
    if n > DEFAULT_SIZE_CAP:
        raise ResourceLimitError(f"{what} of {n} nodes exceeds size cap {DEFAULT_SIZE_CAP}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph: node count plus its edges as an (m, 2) array.

    `edges` is read-only int64, one row (i, j) per edge with i < j, rows
    sorted and unique. The constructor also accepts any iterable of pairs,
    in any order or orientation and with repeats, and canonicalises it;
    input that is already canonical (as every builder's is) is not sorted
    again. Two graphs are equal when their node counts and edge arrays are.

    `family` is set by the builders of the symmetric families, so that
    `spectral.graph_spectrum` can use their closed-form spectra: ("torus",
    side, d) for the periodic torus, the ring being ("torus", n, 1), and
    ("tree", branching) for the tree whose shell-g nodes each have
    branching[g] children, the star being ("tree", (n - 1,)) and
    `dendrimer:G,z` ("tree", (z, z - 1, ..., z - 1)).
    Equality and hashing ignore it: a graph read back from an edge list
    equals the one built, and simply takes the general path. It is not
    checked against the edges, so a copy with other edges (say from
    `dataclasses.replace`) must not keep it.
    """

    n: int
    edges: np.ndarray
    family: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one node, got n={self.n}")
        edges = self.edges
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edges = np.array(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be (i, j) pairs, got shape {edges.shape}")
        i, j = edges.T
        keys = i * self.n + j
        in_range = edges.size == 0 or (edges.min() >= 0 and edges.max() < self.n)
        if not (in_range and (i < j).all() and (keys[1:] > keys[:-1]).all()):
            edges = _canonical_edges(self.n, edges)
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def _canonical_edges(n, edges):
    """Sorted unique (min, max) rows of an (m, 2) array; rejects self-loops
    and nodes outside [0, n)."""
    i, j = edges.T
    loops = np.flatnonzero(i == j)
    if loops.size:
        raise ValueError(f"self-loop at node {i[loops[0]]}")
    bad = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1))
    if bad.size:
        raise ValueError(f"edge ({i[bad[0]]}, {j[bad[0]]}) out of range for n={n}")
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    return np.column_stack(np.divmod(keys, n))


def _build_tree(branching) -> Graph:
    """Tree numbered shell by shell: node 0 is the root, and every node of
    shell g has branching[g] children, numbered in the order of their
    parents, so shell g occupies a contiguous index range."""
    branching = tuple(branching)
    # the node count of each shell that has children
    sizes = np.cumprod((1,) + branching, dtype=np.int64)[:-1]
    parent = np.repeat(np.arange(sizes.sum()),
                       np.repeat(np.array(branching, dtype=np.int64), sizes))
    n = len(parent) + 1
    return Graph(n=n, edges=np.column_stack((parent, np.arange(1, n))),
                 family=("tree", branching))


def build_star(n: int) -> Graph:
    """Node 0 is the core, nodes 1..n-1 hang off it and nothing else."""
    if n < 3:
        raise ValueError(f"star needs n >= 3, got {n}")
    return _build_tree((n - 1,))


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
    return _build_tree((z,) + (z - 1,) * (generation - 1) if generation else ())


def dendrimer_node_count(generation: int, z: int = 3) -> int:
    """Closed form for the dendrimer size: 1 + z*((z-1)**G - 1)/(z-2)."""
    if z < 3:
        raise ValueError(f"dendrimer functionality must be >= 3, got z={z}")
    return 1 + z * ((z - 1) ** generation - 1) // (z - 2)


def build_hypercubic(side: int, d: int) -> Graph:
    """Periodic d-dimensional torus with `side` nodes per axis; degree 2d.

    Node index encodes coordinates base `side`, axis 0 fastest.
    """
    if side < 3:
        raise ValueError(f"ring or torus side must be >= 3, got {side}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    n = side**d
    # each node v owns, per axis of stride s and coordinate c, the edge to
    # v + s when c < side-1 and the wrap-around edge to v + (side-1) s when
    # c == 0; since s < (side-1) s < side s, taking the axes in order lists
    # every row's partners in ascending order
    v = np.arange(n)
    partners = []
    for axis in range(d):
        stride = side**axis
        c = (v // stride) % side
        partners.append(np.where(c < side - 1, v + stride, -1))
        partners.append(np.where(c == 0, v + (side - 1) * stride, -1))
    partners = np.column_stack(partners)
    owners = np.broadcast_to(v[:, None], partners.shape)
    keep = partners >= 0
    return Graph(n=n, edges=np.column_stack((owners[keep], partners[keep])),
                 family=("torus", side, d))


def build_ring(n: int) -> Graph:
    """Cycle of n nodes with periodic boundary, the 1-d torus; every degree is 2."""
    return build_hypercubic(n, 1)


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
    pairs = n * (n - 1) // 2
    if p < 1:
        # consecutive random_raw calls continue one stream, so drawing in
        # blocks keeps the edge set and bounds the draws' memory
        bits, threshold = np.random.Philox(key=seed), int(p * 2**64)
        k = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            np.flatnonzero(bits.random_raw(min(_DRAW_BLOCK, pairs - lo)) < threshold) + lo
            for lo in range(0, pairs, _DRAW_BLOCK)])
    else:
        k = np.arange(pairs)
    # row i's pairs (i, i+1), ..., (i, n-1) start at k = i*(2n-i-1)/2
    rows = np.arange(n)
    offsets = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(offsets, k, side="right") - 1
    return Graph(n=n, edges=np.column_stack((i, k - offsets[i] + i + 1)))


def laplacian(g: Graph):
    """The combinatorial Laplacian as a scipy.sparse CSR array: degrees on
    the diagonal, -1 at (i, j) and (j, i) per edge, 2 |E| + n stored
    entries. They are integers, so rows sum to zero exactly. The eigenpair
    residual check applies it (`spectral.decompose`), and its `.toarray()`
    is the dense reference the solve is tested against. scipy.sparse is
    imported on the call, so importing the package loads no scipy module.
    """
    from scipy.sparse import coo_array

    i, j = g.edges.T
    data = np.r_[np.full(2 * len(i), -1.0), g.degrees()]
    return coo_array((data, (np.r_[i, j, :g.n], np.r_[j, i, :g.n])),
                     shape=(g.n, g.n)).tocsr()


# -- edge-list parsing --------------------------------------------------------

def from_edge_list(text: str) -> Graph:
    """The graph of an edge list: first line 'n <count>', then one 'i j'
    line per edge; blank lines are skipped.

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
    return Graph(n=n, edges=edges)


# -- spec-string parsing ------------------------------------------------------

# `_read_spec` rows: family -> (usage, positional types, {key: type})
_GRAPH_SPECS = {
    "ring": ("ring:N", (int,), {}),
    "star": ("star:N", (int,), {}),
    "dendrimer": ("dendrimer:G,Z", (int, int), {}),
    "torus": ("torus:SIDE,D", (int, int), {}),
    "er": ("er:N,P[,seed=S]", (int, float), {"seed": int}),
}


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from a spec of one of the `_GRAPH_SPECS` forms. The ER
    seed is 0 when the spec does not carry one. This is where every spec is
    sized, before anything is built: an ER graph of more than
    DEFAULT_SIZE_CAP nodes, as its draw and its dense solve are both
    quadratic, and a ring, star, dendrimer or torus of more than
    SPEC_NODE_CAP nodes or edges raise ResourceLimitError. The ring is the
    1-d torus, and a torus has d * side^d edges.
    """
    family, args, keys = _read_spec(spec, _GRAPH_SPECS, "graph spec")
    try:
        if family == "er":
            check_size_cap(args[0], "Erdos-Renyi graph")
            return build_erdos_renyi(*args, keys.get("seed", 0))
        # each count passes the cap well before an exponent of 64, so a huge
        # exponent is refused without its power; a negative one builds nothing
        if family == "torus":
            side, d = args
            size = d * side ** min(max(d, 0), 64)
        elif family == "dendrimer":
            size = dendrimer_node_count(min(max(args[0], 0), 64), args[1])
        else:
            size = args[0]
        if size > SPEC_NODE_CAP:
            raise ResourceLimitError(
                f"graph {spec!r} exceeds the node cap {SPEC_NODE_CAP} in nodes or edges")
        return {"ring": build_ring, "star": build_star, "dendrimer": build_dendrimer,
                "torus": build_hypercubic}[family](*args)
    except ResourceLimitError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), text=spec, position=spec.find(":") + 1) from exc
