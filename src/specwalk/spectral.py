"""Laplacian spectra and degeneracy clustering.

Everything here works on the full spectrum, held as modes, eigenvalues
with their counts of copies. `graph_spectrum` gives them and, with
vectors, the eigenspace projectors that the exact quantum average and
`chi` read. The symmetric families, tori (the ring is d = 1) and shell
trees (star, dendrimer), take both from closed forms and never build an
eigenvector: one mode per Fourier wave vector or per shell-block
eigenvalue, and the pair orbits (`ShellTree`, `TorusPairs`) on which
every eigenspace projector is constant, the diagonal orbit (j, j)
included. Every other graph goes through `decompose`, a dense symmetric
solve and the only source of eigenvectors. The graphs of interest stay
below a few thousand nodes, where that solve is affordable and, unlike
iterative methods, deterministic; it is also the oracle the closed forms
are tested against. `decompose` refuses a graph above the node cap
`graphs.DEFAULT_SIZE_CAP` with ResourceLimitError before it allocates.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import graphs
from ._csvtext import _columns, _csv_blocks, float_text, int_text
from .errors import NumericalError
from .graphs import Graph

RESIDUAL_RTOL = 1e-9
# bound on |sum of the eigenvalues - tr L| / max(1, tr L) of a dense solve
TRACE_RTOL = 1e-9
# eigenvalue-only dense solves from this many nodes up take ?syevd_2stage
# (`_lapack`), whose reduction goes dense -> band -> tridiagonal
# in BLAS-3 where ?syevd's ?sytrd is half BLAS-2 (Bischof, Lang & Sun, ACM
# TOMS 26, 581 (2000)): its time over ?syevd's was 1.50 at n = 1000, 1.06 at
# 1500, 0.88 at 2000, 0.75 at 3000 and 0.66 at 5000 (2 vCPUs, 2 BLAS threads)
_TWO_STAGE_MIN_N = 2000
# elements of one block of every n-sized float loop (`_blocks`): 2 MB of
# float64, which stays in a core's L2 cache
_BLOCK_ELEMS = 1 << 18


def default_cluster_tol(values) -> float:
    """Degeneracy tolerance: 1e-8 * max(1, largest eigenvalue).

    Sits well below the integer gaps of the star/dendrimer spectra and
    well above accumulated eigensolver error.
    """
    return 1e-8 * max(1.0, float(np.max(values, initial=0.0)))


@dataclass(frozen=True)
class Spectrum:
    """Laplacian eigenvalues as modes, optionally with orthonormal
    eigenvectors or pair orbits, and their degeneracy clusters, which every
    transport kernel reads.

    `values` holds one eigenvalue per mode, `counts` the copies of each
    (`dendrimer:10,3` has 66 modes for 3070 nodes). Without `counts` each
    eigenvalue is its own mode, and `values` must be ascending, as the dense
    solver gives them: the clusters take them in the order given, and
    column k of `eigenvectors` pairs with `values[k]`. `path` says how the
    eigenvalues were obtained: "dense" (the symmetric solver) or
    "closed_form". A dense spectrum also names its LAPACK driver
    (`solver`, "syevd" or "syevd_2stage") and carries `trace_error`,
    |sum of eigenvalues - tr L| / max(1, tr L). `residual` is the largest
    eigenpair residual ||L v - lam v|| over ||L||_2, where eigenvectors
    were checked.

    `pairs`, when set, is a `ShellTree` or `TorusPairs`: the pair orbits
    of a symmetric graph, on which every eigenspace projector is
    constant, and from which `projector_factor` and `transport.chi_table`
    take the projectors of the modes' clusters without eigenvectors.

    Taken in ascending order and weighted by their copies, modes join a
    cluster while they stay within `default_cluster_tol` of its running
    mean. The cluster's level is its first member plus the members' mean
    deviation from it, so bit-identical copies keep their value.
    `cluster[i]` is the cluster of mode i; cluster E covers
    `eigenvalues[starts[E]:starts[E] + mult[E]]`, so the multiplicities sum
    to n. The clusters are built on first use; the spectrum is treated as
    immutable, so they are never rebuilt.
    """

    values: np.ndarray
    counts: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    path: str = "dense"
    residual: float | None = None
    solver: str | None = None
    trace_error: float | None = None
    pairs: ShellTree | TorusPairs | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.values) if self.counts is None else int(self.counts.sum())

    @property
    def eigenvalues(self) -> np.ndarray:
        """All n eigenvalues: `values` as given, or each over its copies, ascending."""
        if self.counts is None:
            return self.values
        return np.sort(np.repeat(self.values, self.counts))

    @cached_property
    def _clusters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        values = np.asarray(self.values, dtype=float)
        order = np.arange(len(values)) if self.counts is None else np.argsort(values, kind="stable")
        counts = np.ones(len(values), dtype=np.int64) if self.counts is None else self.counts
        tol, ranked, copies = default_cluster_tol(values), values[order], counts[order]
        sums, mult, modes = [], [], []  # per cluster: sum and count of members, modes
        for lam, c in zip(ranked.tolist(), copies.tolist()):
            if mult and abs(lam - sums[-1] / mult[-1]) <= tol:
                sums[-1] += lam * c
                mult[-1] += c
                modes[-1] += 1
            else:
                sums.append(lam * c)
                mult.append(c)
                modes.append(1)
        mult, modes = np.array(mult, dtype=np.int64), np.array(modes, dtype=np.intp)
        heads = np.cumsum(modes) - modes
        first = ranked[heads]
        # deviations from the first member are small, so their mean does not
        # drift with the cluster's size as a running sum does
        deviation = np.add.reduceat((ranked - np.repeat(first, modes)) * copies, heads)
        cluster = np.empty(len(values), dtype=np.intp)
        cluster[order] = np.repeat(np.arange(len(modes)), modes)
        return first + deviation / mult, mult, np.cumsum(mult) - mult, cluster

    @property
    def levels(self) -> np.ndarray:
        """The K cluster levels, ascending."""
        return self._clusters[0]

    @property
    def mult(self) -> np.ndarray:
        return self._clusters[1]

    @property
    def starts(self) -> np.ndarray:
        return self._clusters[2]

    @property
    def cluster(self) -> np.ndarray:
        """The cluster of each mode, in the order of `values`."""
        return self._clusters[3]


def projector_factor(spectrum: Spectrum) -> np.ndarray:
    """F, r x K, with F^T F = W^T W, where W[j, E] is the diagonal of the
    projector onto cluster E at node j, whatever basis spans the cluster;
    pi_bar reads it at T x K x r. It is computed anew on every call, so it
    lives as long as its caller holds it.

    With pair orbits, W is constant on the orbits of the diagonal, and
    `pairs.diagonal` holds it per orbit: sizes s and Omega (o x K), so
    F = diag(sqrt(s)) Omega, and r is 1 on a torus and the shell count on
    a tree. From eigenvectors, W is their squares summed per cluster,
    n x K. F is W when every cluster is one vector (n = K), else the K x K
    R of W's QR decomposition, so that r <= K.
    """
    if spectrum.pairs is not None:
        sizes, omega = spectrum.pairs.diagonal(spectrum.cluster)
        return omega * np.sqrt(sizes)[:, None]
    if spectrum.eigenvectors is None:
        raise ValueError("operation needs eigenvectors or pair orbits; "
                         "use graph_spectrum(graph, with_vectors=True)")
    weights = spectrum.eigenvectors**2
    if len(spectrum.levels) == weights.shape[1]:
        return weights
    return np.linalg.qr(np.add.reduceat(weights, spectrum.starts, axis=1), mode="r")


def _blocks(count, width):
    """Slices tiling range(count) in consecutive blocks, each of about
    _BLOCK_ELEMS / width items, so that a block of `width`-wide rows holds
    about _BLOCK_ELEMS elements."""
    step = max(1, _BLOCK_ELEMS // max(width, 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _checked_residual(graph, vecs, vals) -> float:
    """max ||L v - lam v|| / ||L||_2 over the eigenpairs, L applied as the
    dense rows of `graphs.laplacian` one block of rows at a time, the
    squared column norms summed over the blocks; above RESIDUAL_RTOL it
    raises NumericalError with the matrix size."""
    scale = max(1.0, float(np.abs(vals).max()))
    squares = np.zeros(len(vals))
    for rows in _blocks(len(vecs), len(vecs)):
        diff = graphs.laplacian(graph, rows) @ vecs
        diff -= vecs[rows] * vals
        diff *= diff
        squares += diff.sum(axis=0)
    resid = math.sqrt(float(squares.max()))
    if not resid <= RESIDUAL_RTOL * scale:
        raise NumericalError(
            f"eigenpair residual {resid:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||L|| "
            f"for a {len(vecs)}x{len(vecs)} matrix"
        )
    return resid / scale


def _checked_trace(graph, vals) -> float:
    """|sum lam - tr L| / max(1, tr L), tr L = 2 |E|, the sum of the
    degrees; above TRACE_RTOL it raises NumericalError with the matrix
    size."""
    trace = 2.0 * graph.edge_count
    error = abs(float(vals.sum()) - trace) / max(1.0, trace)
    if error > TRACE_RTOL:
        raise NumericalError(
            f"eigenvalue sum is off the trace by {error:.3e} > {TRACE_RTOL:.0e} "
            f"relative for a {len(vals)}x{len(vals)} matrix")
    return error


def _lower_laplacian(graph: Graph) -> np.ndarray:
    """The Laplacian's lower triangle, degrees on the diagonal and -1 at
    (max(i, j), min(i, j)) per edge, in a Fortran-ordered n x n view of
    an anonymous private mapping, the upper triangle left unwritten.

    Neither driver `decompose` takes, ?syevd and ?syevd_2stage with
    uplo='L', reads the strictly upper triangle, so its pages are never
    made resident. The mapping takes 4 KiB pages where the platform lets
    it: one huge page would span many columns' unread heads.
    """
    n = graph.n
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    buffer = mmap.mmap(-1, 8 * n * n, **flags)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    # column c of the Fortran-ordered matrix is run c of the buffer
    flat = np.frombuffer(buffer, dtype=float)
    # a block of edges at a time, so that no index array is the edges' size
    for rows in _blocks(graph.edge_count, 2):
        i, j = graph.edges[rows].T
        flat[i * n + j] = -1.0
    flat[::n + 1] = graph.degrees()
    return flat.reshape(n, n).T


@cache
def _lapack():
    """The symmetric drivers of the OpenBLAS that scipy's wheels bundle
    (scipy.libs/libscipy_openblas-*), bound through ctypes on first use:
    {"syevd": solve, "syevd_2stage": solve}, or None where the library or
    either symbol cannot be bound. solve(work, with_vectors) runs
    LAPACKE_d<driver> (uplo='L') in place on a Fortran-ordered lower
    triangle, `_lower_laplacian`'s, leaves the eigenvectors in it when
    asked and returns the ascending eigenvalues; a failure raises
    np.linalg.LinAlgError, as scipy's eigh does. ?syevd is the routine
    that scipy.linalg.eigh(driver="evd") calls in the same library, so
    both give the same bits; scipy wraps no two-stage driver, which
    computes eigenvalues only. Binding here keeps scipy.linalg unloaded,
    and importing the package loads no library.
    """
    import ctypes
    import glob
    import importlib.util
    import os

    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    site = os.path.dirname(spec.submodule_search_locations[0])
    libraries = glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas-*"))
    try:
        library = ctypes.CDLL(libraries[0])
        routines = {name: getattr(library, f"scipy_LAPACKE_d{name}")
                    for name in ("syevd", "syevd_2stage")}
    except (IndexError, OSError, AttributeError):
        return None

    def bind(name, routine):
        routine.restype = ctypes.c_int
        routine.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int,
                            ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p]

        def solve(work, with_vectors):
            n = len(work)
            if not (work.dtype == np.float64 and work.shape == (n, n)
                    and work.flags.f_contiguous and work.flags.writeable):
                raise ValueError("need a writeable Fortran-ordered n x n float64 array")
            values = np.empty(n)
            # 102 is LAPACK_COL_MAJOR
            info = routine(102, b"V" if with_vectors else b"N", b"L", n, work.ctypes.data, n,
                           values.ctypes.data)
            if info:
                raise np.linalg.LinAlgError(f"LAPACKE_d{name} returned {info}")
            return values
        return solve
    return {name: bind(name, routine) for name, routine in routines.items()}


def decompose(graph: Graph, with_vectors: bool = False) -> Spectrum:
    """Eigendecompose a graph's Laplacian, ascending eigenvalues.

    LAPACK runs in one n x n buffer, the Laplacian's lower triangle
    assembled here (`_lower_laplacian`), and leaves the eigenvectors in
    it. The drivers are those `_lapack` binds: eigenvalue-only solves from
    _TWO_STAGE_MIN_N nodes up take ?syevd_2stage, the rest ?syevd. Where
    they cannot be bound, every solve takes ?syevd through
    `scipy.linalg.eigh(driver="evd")`.

    The eigenvalues' sum is checked against the trace, 2 |E|, within
    TRACE_RTOL; with vectors the residual ||L v - lam v|| is checked
    against RESIDUAL_RTOL * ||L||_2 per pair. Both are recorded on the
    spectrum with the driver's name; a violation or a LAPACK failure
    raises NumericalError with the matrix size. Above the node cap
    `graphs.DEFAULT_SIZE_CAP` it raises ResourceLimitError first.
    """
    graphs.check_size_cap(graph.n, "dense spectrum of a graph")
    work = _lower_laplacian(graph)
    n = len(work)
    drivers = _lapack()
    solver = ("syevd_2stage" if drivers is not None and not with_vectors
              and n >= _TWO_STAGE_MIN_N else "syevd")
    vecs = work if with_vectors else None
    try:
        if drivers is not None:
            vals = drivers[solver](work, with_vectors)
        else:
            from scipy.linalg import eigh

            result = eigh(work, lower=True, overwrite_a=True, check_finite=False,
                          driver="evd", eigvals_only=not with_vectors)
            vals, vecs = result if with_vectors else (result, None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigensolver failed on a {n}x{n} matrix: {exc}") from exc
    return Spectrum(vals, eigenvectors=vecs, solver=solver,
                    trace_error=_checked_trace(graph, vals),
                    residual=None if vecs is None else _checked_residual(graph, vecs, vals))


def graph_spectrum(graph: Graph, with_vectors: bool = False) -> Spectrum:
    """The Laplacian spectrum of a graph, from closed forms where they exist;
    `with_vectors` adds the eigenspace projectors that pi_bar in
    `transport_series` and `chi_matrix` read.

    Graphs whose builder tags their `family`, tori (`build_hypercubic`,
    the ring being d = 1) and shell trees (`build_star`, `build_dendrimer`),
    take eigenvalues and, with vectors, their pair orbits from closed
    forms; no eigenvector is built. Every other graph takes the dense
    solve, `decompose`, which raises ResourceLimitError first when n
    exceeds `graphs.DEFAULT_SIZE_CAP`.
    """
    name, *params = graph.family or (None,)
    if name is None:
        return decompose(graph, with_vectors)
    values, counts, pairs = _CLOSED_FORMS[name](*params, with_vectors=with_vectors)
    return Spectrum(values, counts, path="closed_form", pairs=pairs)


@dataclass(frozen=True)
class TorusPairs:
    """Pair orbits of the periodic torus with `side` nodes per axis in d
    dimensions (the ring is d = 1), its nodes numbered as
    `graphs.build_hypercubic` numbers them.

    Mode m is the Fourier wave vector k whose component on axis a is digit
    a of m in base `side`, axis 0 fastest. A cluster E of modes is closed
    under flipping the sign of any component of k, so its projector
    P_E(j, l) = (1/n) sum_(k in E) exp(2 pi i k . (x_j - x_l) / side) is
    real and depends only on the folded displacement, min(|r_a|, side -
    |r_a|) per axis of r = x_j - x_l: the pair orbits.
    """

    side: int
    d: int

    def projectors(self, cluster):
        """P_E on every pair orbit, flattened with axis 0 fastest, in
        blocks of consecutive clusters: yields (clusters) x (orbits)
        arrays. cluster[m] is the cluster of mode m."""
        side, d = self.side, self.d
        n = side**d
        of_mode = cluster.reshape((side,) * d)
        # the transform of a real, even indicator is real; rfftn keeps the
        # folded half of the last axis, the slice that of the others
        half = (slice(None),) + (slice(0, side // 2 + 1),) * (d - 1)
        for part in _blocks(int(cluster.max()) + 1, n):
            ids = np.arange(part.start, part.stop).reshape((-1,) + (1,) * d)
            indicator = (of_mode == ids).astype(float)
            block = np.fft.rfftn(indicator, axes=tuple(range(1, d + 1)))[half].real / n
            yield block.reshape(len(ids), -1)

    def diagonal(self, cluster):
        """(sizes, Omega): the torus is one orbit of the diagonal pairs, on
        which P_E is m_E / n, the share of the cluster's modes."""
        n = len(cluster)
        return np.array([n]), np.bincount(cluster)[None, :] / n

    def orbit_index(self) -> np.ndarray:
        """The n x n int16 array of the orbit of each node pair, in the
        order of the `projectors` columns, built a block of about
        _BLOCK_ELEMS elements at a time."""
        side, n = self.side, self.side**self.d
        node = np.arange(n)
        coords = [(node // side**axis % side).astype(np.int16) for axis in range(self.d)]
        index = np.zeros((n, n), dtype=np.int16)
        for rows in _blocks(n, n):
            for axis, x in enumerate(coords):
                r = np.subtract.outer(x[rows], x)
                np.abs(r, out=r)
                np.minimum(r, side - r, out=r)
                r *= (side // 2 + 1) ** axis
                index[rows] += r
        return index


@dataclass(frozen=True)
class ShellTree:
    """Pair orbits of a tree numbered shell by shell, as
    `graphs.build_star` and `graphs.build_dendrimer` number it: a root
    (shell 0), and branching[g] children under every node of shell g, each
    shell in the order of its parents. The star is the branching (n - 1,),
    `dendrimer:G,z` the branching (z, z - 1, ..., z - 1) of length G.

    A mode is one eigenvector of a block of the shell reduction (see
    `_tree_eigenvalues`): its block g0 (`blocks`) and its amplitude f[g]
    on shell g (`amplitudes`, modes x shells). Block 0 puts f[g] on every
    node of shell g. Block g0 >= 1 puts a_i f[g] on the shell-g nodes
    below child i of one shell-(g0 - 1) node, over every such node and
    every a with sum_i a_i = 0 over its b = branching[g0 - 1] children, and
    f[g] = 0 above shell g0. Summed over those copies, the projector of a
    mode at nodes j, k is c f[gj] f[gk], where c = 1 in block 0 and
    otherwise 1 - 1/b when the lowest common ancestor of j and k lies in
    shell g0 or deeper, -1/b when it is the shell-(g0 - 1) node and 0 when
    it lies higher. So every eigenspace projector, and chi, depends only
    on (gj, gk, shell of the lowest common ancestor): the pair orbits.
    """

    branching: tuple
    blocks: np.ndarray
    amplitudes: np.ndarray

    def _factors(self):
        """c[mode, l], the factor of each mode at a pair whose lowest
        common ancestor lies in shell l."""
        g0 = self.blocks[:, None]
        # block 0 has no b; its c is 1
        b = np.array((1,) + self.branching)[g0]
        lca = np.arange(len(self.branching) + 1)
        c = np.where(lca >= g0, 1.0 - 1.0 / b, np.where(lca == g0 - 1, -1.0 / b, 0.0))
        c[self.blocks == 0] = 1.0
        return c

    def projectors(self, cluster):
        """P_E on every pair orbit (gj, gk, l), flattened in that order,
        l fastest, in blocks of consecutive clusters of about _BLOCK_ELEMS
        elements: yields (clusters) x (orbits) arrays. cluster[m] is the
        cluster of mode m."""
        f, c = self.amplitudes, self._factors()
        orbits = f.shape[1] ** 3
        for part in _blocks(int(cluster.max()) + 1, orbits):
            lo, hi = part.start, part.stop
            modes = np.flatnonzero((cluster >= lo) & (cluster < hi))
            terms = f[modes, :, None, None] * f[modes, None, :, None] * c[modes, None, None, :]
            out = np.zeros((hi - lo, orbits))
            np.add.at(out, cluster[modes] - lo, terms.reshape(len(modes), -1))
            yield out

    def diagonal(self, cluster):
        """(sizes, Omega): the shells are the orbits of the diagonal pairs,
        each its own lowest common ancestor, so Omega[g, E] is the sum over
        the modes of cluster E of c f[g]^2 at l = g."""
        omega = np.zeros((int(cluster.max()) + 1, len(self.branching) + 1))
        np.add.at(omega, cluster, self._factors() * self.amplitudes**2)
        return _shell_sizes(self.branching), omega.T

    def orbit_index(self) -> np.ndarray:
        """The n x n array of the orbit of each node pair, in the order of
        the `projectors` columns, of the smallest unsigned type that holds
        all (G + 1)^3 of them: 16 bits up to 40 shells."""
        sizes = _shell_sizes(self.branching)
        shells, starts = len(sizes), np.cumsum(sizes) - sizes
        n = int(sizes.sum())
        shell = np.repeat(np.arange(shells), sizes)
        offset = np.arange(n) - starts[shell]
        dtype = np.min_scalar_type(shells**3 - 1)
        index = np.zeros((n, n), dtype=dtype)
        # the shell of the lowest common ancestor counts the shells a >= 1
        # where both nodes have the same ancestor; every node of shell a or
        # deeper, a suffix in node order, has its shell-a ancestor at
        # offset o // (N_g / N_a); compared a block of rows at a time
        for a in range(1, shells):
            ancestor = offset[starts[a]:] // (sizes[shell[starts[a]:]] // sizes[a])
            below = index[starts[a]:, starts[a]:]
            for rows in _blocks(len(ancestor), n):
                below[rows] += ancestor[rows, None] == ancestor
        index += (shell * shells**2).astype(dtype)[:, None]
        index += (shell * shells).astype(dtype)
        return index


def _shell_sizes(branching):
    """The node count N_g of each shell of a tree numbered as `ShellTree`'s."""
    return np.cumprod((1,) + branching, dtype=np.int64)


def _torus_eigenvalues(side, d, with_vectors=False):
    # Fourier modes: 2 - 2cos(2 pi k / side) = 4 sin^2(pi k / side) per axis,
    # with k folded onto min(k, side - k) so that +k and -k give equal bits,
    # in the mode order of `TorusPairs`, one copy each. For d > 1 the axis
    # terms and each mode's sum of them, in ascending order, run in long
    # double and are rounded once: wave vectors whose exact sums are equal,
    # permutations of each other or not, then give equal bits (where long
    # double is wider than double, as on x86)
    pi = np.pi if d == 1 else 4 * np.arctan(np.longdouble(1))
    k = np.arange(side)
    values = axis = 4 * np.sin(pi * np.minimum(k, side - k) / side) ** 2
    if d > 1:
        terms = np.sort(axis[np.indices((side,) * d).reshape(d, -1)], axis=0)
        values = terms[0]
        for term in terms[1:]:
            values = values + term
    counts = np.ones(len(values), dtype=np.int64)
    return values.astype(float, copy=False), counts, TorusPairs(side, d) if with_vectors else None


def _tree_eigenvalues(branching, with_vectors=False):
    """Shell reduction of the Laplacian of a `ShellTree` (Cai & Chen,
    Macromolecules 30, 5104 (1997); Muelken, Bierbaum & Blumen, J. Chem.
    Phys. 124, 124905 (2006)).

    Eigenvectors constant on the shells of a subtree, and antisymmetric
    between sibling subtrees, reduce L to tridiagonal blocks. Block g0
    covers shells g0..G, with the shell degrees on its diagonal and
    -sqrt(b_g) between shells g and g + 1, b = branching. Block 0 is
    symmetric over the whole tree; block g0 >= 1 lies below one
    shell-(g0 - 1) node and is antisymmetric between its b_(g0-1)
    children, with multiplicity N_(g0-1) (b_(g0-1) - 1); blocks of
    multiplicity 0 are skipped. Returns (values, counts, pairs): each
    block's eigenvalues once, block by block, with that multiplicity as
    their copies.

    A block eigenvector u is one `ShellTree` mode. Its amplitude on shell
    g is u[g - g0] / sqrt(b_g0 ... b_(g-1)), the count of shell-g nodes
    that one copy covers below its shell-g0 node. The stationary mode,
    eigenvalue 0 with amplitude 1/sqrt(N) on every shell, is set exactly
    over the solver's.
    """
    sizes = _shell_sizes(branching)
    shells = len(sizes)
    degrees = np.append(branching, 0.0) + (np.arange(shells) > 0)
    off = -np.sqrt(np.array(branching, dtype=float))
    reduced = np.diag(degrees) + np.diag(off, 1) + np.diag(off, -1)
    values, counts, blocks, amplitudes = [], [], [], []
    for g0 in range(shells):
        mult = 1 if g0 == 0 else sizes[g0 - 1] * (branching[g0 - 1] - 1)
        if mult == 0:
            continue
        block = reduced[g0:, g0:]
        values.append(np.linalg.eigvalsh(block))
        counts.append(np.full(shells - g0, mult))
        if not with_vectors:
            continue
        u = np.linalg.eigh(block)[1]
        amplitude = np.zeros((shells - g0, shells))
        amplitude[:, g0:] = (u / np.sqrt(sizes[g0:] // sizes[g0])[:, None]).T
        amplitudes.append(amplitude)
        blocks.append(np.full(shells - g0, g0))
    # the lowest value of block 0 is the stationary level
    values = np.concatenate(values)
    values[0] = 0.0
    counts = np.concatenate(counts)
    if not with_vectors:
        return values, counts, None
    amplitudes = np.vstack(amplitudes)
    amplitudes[0] = 1.0 / np.sqrt(sizes.sum())
    return values, counts, ShellTree(branching, np.concatenate(blocks), amplitudes)


_CLOSED_FORMS = {"torus": _torus_eigenvalues, "tree": _tree_eigenvalues}


def spectrum_diagnostics(spectrum: Spectrum) -> dict[str, str]:
    """What the run manifest records of a spectrum: its path, its cluster
    count, the smallest gap between adjacent levels over the cluster
    tolerance, the source of its projectors, its eigenpair residual, and
    its LAPACK driver and trace error, each where there is one."""
    levels = spectrum.levels
    out = {"spectrum.path": spectrum.path, "spectrum.clusters": str(len(levels))}
    if len(levels) >= 2:
        tol = default_cluster_tol(spectrum.values)
        out["spectrum.min_gap_over_tol"] = repr(float(np.diff(levels).min() / tol))
    if spectrum.eigenvectors is not None or spectrum.pairs is not None:
        out["spectrum.vectors"] = "orbit" if spectrum.eigenvectors is None else "dense"
    if spectrum.residual is not None:
        out["spectrum.residual"] = repr(spectrum.residual)
    if spectrum.solver is not None:
        out["spectrum.solver"] = spectrum.solver
        out["spectrum.trace_error"] = repr(spectrum.trace_error)
    return out


def degeneracy_table(spectrum: Spectrum):
    """[(level, multiplicity), ...] of the spectrum's degeneracy
    clusters, as `Spectrum` builds them."""
    return list(zip(spectrum.levels.tolist(), spectrum.mult.tolist()))


# -- CSV export ---------------------------------------------------------------

def spectrum_csv(spectrum: Spectrum):
    """Columns index,eigenvalue, as byte blocks like
    `transport.series_csv`'s. Each mode's value is formatted once and
    repeated over its copies: closed-form spectra are highly degenerate
    (dendrimer:10,3 has 66 modes for 3070 eigenvalues)."""
    text = float_text(spectrum.values)
    if spectrum.counts is not None:
        order = np.argsort(spectrum.values, kind="stable")
        text = np.repeat(text[order], spectrum.counts[order])
    return _csv_blocks("index,eigenvalue\n", len(text), 1,
                       lambda lo, hi: text[lo:hi, None], labelled=True)


def degeneracies_csv(spectrum: Spectrum):
    """Columns value,multiplicity of the clusters, as byte blocks."""
    return _csv_blocks("value,multiplicity\n", len(spectrum.levels), 2,
                       _columns(float_text(spectrum.levels), int_text(spectrum.mult)))
