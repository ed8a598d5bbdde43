"""Laplacian spectra and degeneracy clustering.

Everything here works on the full spectrum. `graph_spectrum` serves
three needs: eigenvalues, projector weights (for the exact quantum
average) and eigenvectors (for chi). The symmetric families (ring,
torus, star, dendrimer) take their eigenvalues and, being symmetric,
their projector weights from closed forms; ring and torus also take
their eigenvectors from the real Fourier basis. Every
other graph, and star and dendrimer eigenvectors, go through `decompose`,
a dense symmetric solve. The graphs of interest stay below a few thousand
nodes, where that solve is affordable and, unlike iterative methods,
deterministic; it is also the oracle the closed forms are tested against.
An n x n solve, dense or Fourier, above the node cap
`graphs.DEFAULT_SIZE_CAP` raises ResourceLimitError before it allocates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import graphs
from ._csvtext import _columns, _csv_blocks, _labelled, _repr_table, float_text, int_text
from .errors import NumericalError, ResourceLimitError
from .graphs import Graph, laplacian

RESIDUAL_RTOL = 1e-9
# elements of one column block in the sign fix and the residual check
_BLOCK_ELEMS = 1 << 18
NEEDS = ("values", "weights", "vectors")


def default_cluster_tol(eigenvalues) -> float:
    """Degeneracy tolerance: 1e-8 * max(1, largest eigenvalue).

    Sits well below the integer gaps of the star/dendrimer spectra and
    well above accumulated eigensolver error.
    """
    lam_max = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return 1e-8 * max(1.0, lam_max)


@dataclass(frozen=True)
class Spectrum:
    """Sorted Laplacian eigenvalues, optionally with orthonormal eigenvectors
    or orbit weights, and their degeneracy clusters, which every transport
    kernel reads.

    Column k of `eigenvectors` pairs with `eigenvalues[k]`. Vector signs
    follow the convention that the first component of magnitude above
    1e-12 is positive, which keeps downstream matrices reproducible.
    `path` says how the eigenvalues were obtained: "dense" (the symmetric
    solver) or "closed_form". `residual` is the largest eigenpair residual
    ||L v - lam v|| over ||L||_2, where eigenvectors were checked.

    `orbits`, when set, is (s, w): the graph's nodes fall into orbits of
    sizes s, contiguous in node order, on which every eigenspace projector
    has a constant diagonal, and w[r, k] is the weight eigenvalue k puts on
    each node of orbit r (in the sum over a degenerate eigenspace, the
    squared eigenvector components). It carries the projector weights of
    the exact quantum average without n x n eigenvectors.

    Cluster E covers eigenvalue indices starts[E] .. starts[E] + mult[E] - 1;
    `levels` are the cluster means. Near-equal eigenvalues join a cluster
    while they stay within `default_cluster_tol` of its running mean, so
    the multiplicities sum to n. The clusters and `gram` are built on
    first use; the spectrum is treated as immutable, so they are never
    rebuilt.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    path: str = "dense"
    orbits: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    residual: float | None = None

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def weights_path(self) -> str | None:
        """Where the projector weights come from: "dense" (solver
        eigenvectors), "fourier" (closed-form eigenvectors), "orbit"
        (closed-form orbit weights alone), or None without any."""
        if self.eigenvectors is not None:
            return "fourier" if self.path == "closed_form" else "dense"
        return "orbit" if self.orbits is not None else None

    @cached_property
    def _clusters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        tol = default_cluster_tol(self.eigenvalues)
        values, mult = [], []
        run_sum, run_count = 0.0, 0
        for lam in np.asarray(self.eigenvalues, dtype=float).tolist():
            if run_count and abs(lam - run_sum / run_count) <= tol:
                run_sum += lam
                run_count += 1
            else:
                if run_count:
                    values.append(run_sum / run_count)
                    mult.append(run_count)
                run_sum, run_count = lam, 1
        if run_count:
            values.append(run_sum / run_count)
            mult.append(run_count)
        mult = np.array(mult, dtype=np.int64)
        return np.array(values, dtype=float), mult, np.cumsum(mult) - mult

    @property
    def levels(self) -> np.ndarray:
        """The K cluster means, ascending."""
        return self._clusters[0]

    @property
    def mult(self) -> np.ndarray:
        return self._clusters[1]

    @property
    def starts(self) -> np.ndarray:
        return self._clusters[2]

    @cached_property
    def gram(self) -> np.ndarray:
        """G = W^T W, K x K, where W[j, E] is the diagonal of the projector
        onto cluster E at node j, whatever basis spans the cluster.

        W is constant on the orbits, so it is held per orbit: sizes s and
        weights Omega (o x K), and G = Omega^T diag(s) Omega. Eigenvectors
        without orbits are the case of n singleton orbits: they build one
        n x n array, their squares, and since singleton clusters need no
        sum and singleton orbits no sqrt(s) scaling, that array is Omega
        itself, and nothing of it outlives G.
        """
        if self.orbits is not None:
            sizes, weights = self.orbits
        elif self.eigenvectors is not None:
            sizes, weights = None, self.eigenvectors**2
        else:
            raise ValueError("operation needs eigenvectors or orbit weights; "
                             "use graph_spectrum(graph, need='weights')")
        if len(self.levels) < weights.shape[1]:
            weights = np.add.reduceat(weights, self.starts, axis=1)
        if sizes is not None:
            weights = weights * np.sqrt(sizes)[:, None]
        return weights.T @ weights


def _column_blocks(shape):
    """Slices of consecutive column blocks of an array of this shape, each
    block holding about _BLOCK_ELEMS elements."""
    rows, cols = shape
    step = max(1, _BLOCK_ELEMS // max(rows, 1))
    return [slice(lo, lo + step) for lo in range(0, cols, step)]


def _fix_signs(vecs):
    """Negate, in place, each column whose first component of magnitude
    above 1e-12 is negative; returns vecs. Works one column block at a
    time, so its temporaries stay small."""
    for cols in _column_blocks(vecs.shape):
        v = vecs[:, cols]
        nonzero = np.abs(v) > 1e-12
        first = v[nonzero.argmax(axis=0), np.arange(v.shape[1])]
        np.negative(v, out=v, where=nonzero.any(axis=0) & (first < 0))
    return vecs


def _checked_residual(graph, vecs, vals) -> float:
    """max ||L v - lam v|| / ||L||_2 over the eigenpairs, L the graph's
    Laplacian applied from its edge list, without a dense L, one column
    block at a time; above RESIDUAL_RTOL it raises NumericalError with the
    matrix size."""
    from scipy.sparse import coo_array

    i, j = graph.edges.T
    adjacency = coo_array((np.ones(2 * len(i)), (np.r_[i, j], np.r_[j, i])),
                          shape=(graph.n, graph.n)).tocsr()
    degrees = graph.degrees()[:, None]
    scale = max(1.0, float(np.abs(vals).max()))
    resid = 0.0
    for cols in _column_blocks(vecs.shape):
        block = vecs[:, cols]
        diff = degrees * block - adjacency @ block
        diff -= block * vals[cols]
        resid = max(resid, float(np.linalg.norm(diff, axis=0).max()))
    if resid > RESIDUAL_RTOL * scale:
        raise NumericalError(
            f"eigenpair residual {resid:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||L|| "
            f"for a {len(vecs)}x{len(vecs)} matrix"
        )
    return resid / scale


def decompose(graph: Graph, with_vectors: bool = False) -> Spectrum:
    """Eigendecompose a graph's Laplacian, ascending eigenvalues.

    LAPACK ?syevd runs in one n x n buffer, the Laplacian assembled here,
    and leaves the eigenvectors in it.

    When vectors are requested the residual ||L v - lam v|| is checked
    against 1e-9 * ||L||_2 per pair and recorded on the spectrum; a
    violation or a LAPACK failure raises NumericalError with the matrix
    size.
    """
    from scipy.linalg import eigh

    # exactly symmetric by construction; its transpose is the
    # Fortran-ordered view of the same matrix that LAPACK works in
    work = laplacian(graph).T
    n = len(work)
    try:
        result = eigh(work, overwrite_a=True, check_finite=False, driver="evd",
                      eigvals_only=not with_vectors)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigensolver failed on a {n}x{n} matrix: {exc}") from exc
    if not with_vectors:
        return Spectrum(eigenvalues=result)
    vals, vecs = result
    vecs = _fix_signs(vecs)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs,
                    residual=_checked_residual(graph, vecs, vals))


def graph_spectrum(graph: Graph, need: str = "values") -> Spectrum:
    """The Laplacian spectrum of a graph, from closed forms where they exist.

    `need` is one of NEEDS:

    - "values": eigenvalues only;
    - "weights": also the projector weights that pi_bar in
      `transport_series` reads;
    - "vectors": also orthonormal eigenvectors, for `chi_matrix`.

    Graphs from `build_ring`, `build_hypercubic`, `build_star` and
    `build_dendrimer` take eigenvalues and orbit weights from closed
    forms; ring and torus eigenvectors are the real Fourier basis, checked
    against the graph's Laplacian like the dense ones. Every other graph,
    and star and dendrimer eigenvectors, take the dense solve. Either n x n
    path raises ResourceLimitError first when n exceeds
    `graphs.DEFAULT_SIZE_CAP`.
    """
    if need not in NEEDS:
        raise ValueError(f"need must be one of {NEEDS}, got {need!r}")
    name, *params = graph.family or (None,)
    if (name is None or need == "vectors") and graph.n > graphs.DEFAULT_SIZE_CAP:
        raise ResourceLimitError(f"graph of {graph.n} nodes exceeds size cap "
                                 f"{graphs.DEFAULT_SIZE_CAP} for an n x n spectrum")
    if name is None or (need == "vectors" and name not in _FOURIER):
        return decompose(graph, with_vectors=need != "values")
    values, orbits = _CLOSED_FORMS[name](*params, weights=need != "values")
    order = np.argsort(values, kind="stable")
    if need == "values":
        return Spectrum(eigenvalues=values[order], path="closed_form")
    sizes, per_value = orbits
    spectrum = Spectrum(eigenvalues=values[order], path="closed_form",
                        orbits=(sizes, per_value[:, order]))
    if need == "weights":
        return spectrum
    vecs = _FOURIER[name](*params)[:, order]
    return replace(spectrum, eigenvectors=vecs,
                   residual=_checked_residual(graph, vecs, spectrum.eigenvalues))


def _torus_eigenvalues(side, d, weights=False):
    # Fourier modes: 2 - 2cos(2 pi k / side) = 4 sin^2(pi k / side) per axis,
    # with k folded onto min(k, side - k) so that +k and -k give equal bits;
    # the order is that of the Kronecker products in `_fourier_basis`.
    # A vertex-transitive graph is one orbit, of weight 1/n per eigenvalue.
    k = np.arange(side)
    axis = 4.0 * np.sin(np.pi * np.minimum(k, side - k) / side) ** 2
    values = np.zeros(1)
    for _ in range(d):
        values = np.add.outer(values, axis).ravel()
    n = len(values)
    return values, (np.array([n]), np.full((1, n), 1.0 / n)) if weights else None


def _fourier_basis(side, d):
    """Real orthonormal eigenvectors of the torus, column for column with
    `_torus_eigenvalues`: Kronecker products over the axes (node index
    base `side`, axis 0 fastest) of the ring modes. Ring column k is the
    mode of min(k, side - k): the constant at k = 0, the cosine below
    side/2, the sine above it and the alternating vector at side/2."""
    k = np.arange(side)
    # node j of mode k sits at angle 2 pi ((j k) mod side) / side
    turns = (k[:, None] * np.minimum(k, side - k)) % side
    angle = 2.0 * np.pi * k / side
    scale = np.sqrt(2.0 / side)
    ring = np.where(2 * k < side, (scale * np.cos(angle))[turns],
                    (scale * np.sin(angle))[turns])
    ring[:, 0] = 1.0 / np.sqrt(side)
    if side % 2 == 0:
        ring[:, side // 2] = np.cos(angle)[turns[:, side // 2]] / np.sqrt(side)
    basis = ring
    for _ in range(d - 1):
        basis = np.kron(ring, basis)
    return basis


def _star_eigenvalues(n, weights=False):
    # orbits: the centre, then the n - 1 leaves; per eigenvalue 0, 1 (each
    # of the n - 2 leaf-antisymmetric vectors) and n, the weight on one
    # centre node and on one leaf node
    values = np.ones(n)
    values[0], values[-1] = 0.0, float(n)
    if not weights:
        return values, None
    centre, leaf = np.zeros(n), np.full(n, 1.0 / (n - 1))
    centre[0], centre[-1] = 1.0 / n, (n - 1.0) / n
    leaf[0], leaf[-1] = 1.0 / n, 1.0 / (n * (n - 1.0))
    return values, (np.array([1, n - 1]), np.vstack((centre, leaf)))


def _dendrimer_eigenvalues(generation, z, weights=False):
    """Shell-symmetric reduction of the dendrimer Laplacian (Cai & Chen,
    Macromolecules 30, 5104 (1997); Muelken, Bierbaum & Blumen, J. Chem.
    Phys. 124, 124905 (2006)).

    Eigenvectors constant on the shells of a subtree, and antisymmetric
    between sibling subtrees, reduce L to tridiagonal blocks with diagonal
    z, ..., z, 1 and off-diagonal -sqrt(z-1). The block starting at shell
    g0 has size G+1-g0: g0 = 0 is the symmetric block (first off-diagonal
    -sqrt(z)), g0 = 1 the core-antisymmetric block with multiplicity z-1,
    and for 2 <= g0 <= G the block below each shell-(g0-1) node, with
    multiplicity z (z-1)^(g0-2) (z-2).

    The shells are the orbits. A block eigenvector u puts weight
    u_k^2 / N_(g0+k) on each of the N_(g0+k) nodes of shell g0 + k, per
    copy (exactly so in the sum over its copies).
    """
    if generation == 0:
        return np.zeros(1), (np.ones(1, dtype=np.int64), np.ones((1, 1))) if weights else None

    branch = np.sqrt(z - 1.0)
    shells = np.array([1] + [z * (z - 1) ** (g - 1) for g in range(1, generation + 1)])
    values, columns = [], []
    for g0 in range(generation + 1):
        size = generation + 1 - g0
        mult = 1 if g0 == 0 else z - 1 if g0 == 1 else z * (z - 1) ** (g0 - 2) * (z - 2)
        diag = np.full(size, float(z))
        diag[-1] = 1.0
        off = np.full(size - 1, -branch)
        if g0 == 0:
            off[:1] = -np.sqrt(float(z))
        block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        values.append(np.repeat(np.linalg.eigvalsh(block), mult))
        if weights:
            per_shell = np.zeros((generation + 1, size))
            per_shell[g0:] = np.linalg.eigh(block)[1] ** 2 / shells[g0:, None]
            columns.append(np.repeat(per_shell, mult, axis=1))
    values = np.concatenate(values)
    return values, (shells, np.concatenate(columns, axis=1)) if weights else None


_CLOSED_FORMS = {
    "ring": lambda n, weights=False: _torus_eigenvalues(n, 1, weights),
    "torus": _torus_eigenvalues,
    "star": _star_eigenvalues,
    "dendrimer": _dendrimer_eigenvalues,
}

_FOURIER = {
    "ring": lambda n: _fourier_basis(n, 1),
    "torus": _fourier_basis,
}


def degeneracy_table(spectrum: Spectrum):
    """Cluster near-equal eigenvalues; returns [(mean value, multiplicity), ...].

    A value joins the current cluster while it stays within
    `default_cluster_tol` of the running cluster mean. Multiplicities sum
    to n.
    """
    return list(zip(spectrum.levels.tolist(), spectrum.mult.tolist()))


# -- CSV export ---------------------------------------------------------------

def spectrum_csv(spectrum: Spectrum) -> str:
    """Each distinct eigenvalue formatted once: closed-form spectra are
    highly degenerate (dendrimer:10,3 has 66 distinct values in 3070)."""
    text, index = _repr_table(spectrum.eigenvalues)
    blocks = _csv_blocks("index,eigenvalue\n", len(index), 2,
                         _labelled(lambda lo, hi: text[index[lo:hi], None]))
    return b"".join(blocks).decode()


def degeneracies_csv(spectrum: Spectrum) -> str:
    blocks = _csv_blocks("value,multiplicity\n", len(spectrum.levels), 2,
                         _columns(float_text(spectrum.levels), int_text(spectrum.mult)))
    return b"".join(blocks).decode()
