"""Laplacian spectra, degeneracy clustering, DOS histograms.

Everything here works on the full spectrum. `graph_spectrum` takes the
eigenvalues of the symmetric families (ring, torus, star, dendrimer) from
their closed forms; every other graph, and every request for
eigenvectors, goes through `decompose`, a dense symmetric solve. The
graphs of interest stay below a few thousand nodes, where that solve is
affordable and, unlike iterative methods, deterministic; it is also the
oracle the closed forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .graphs import Graph, laplacian

RESIDUAL_RTOL = 1e-9
_SYMMETRY_BAND = 256


def default_cluster_tol(eigenvalues) -> float:
    """Degeneracy tolerance: 1e-8 * max(1, largest eigenvalue).

    Sits well below the integer gaps of the star/dendrimer spectra and
    well above accumulated eigensolver error.
    """
    lam_max = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return 1e-8 * max(1.0, lam_max)


@dataclass(frozen=True)
class Spectrum:
    """Sorted Laplacian eigenvalues, optionally with orthonormal eigenvectors.

    Column k of `eigenvectors` pairs with `eigenvalues[k]`. Vector signs
    follow the convention that the first component of magnitude above
    1e-12 is positive, which keeps downstream matrices reproducible.
    `path` says how the eigenvalues were obtained: "dense" (the symmetric
    solver) or "closed_form".
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    path: str = "dense"

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def has_vectors(self) -> bool:
        return self.eigenvectors is not None

    def zero_multiplicity(self, cluster_tol: float | None = None) -> int:
        """Size of the near-zero cluster; equals the number of components."""
        tol = default_cluster_tol(self.eigenvalues) if cluster_tol is None else cluster_tol
        return int(np.sum(np.abs(self.eigenvalues) <= tol))

    @cached_property
    def clusters(self) -> ClusterView:
        """Degeneracy clusters at the default tolerance, built on first use.

        The spectrum is treated as immutable: the view is never rebuilt.
        """
        return ClusterView.of(self, default_cluster_tol(self.eigenvalues))

    def clusters_at(self, cluster_tol: float | None) -> ClusterView:
        """`clusters`, or a fresh view when a tolerance is given."""
        return self.clusters if cluster_tol is None else ClusterView.of(self, cluster_tol)


@dataclass(frozen=True)
class ClusterView:
    """The distinct eigenvalues of a spectrum and, with vectors, the cluster
    projector diagonals that every transport kernel reads.

    Cluster E covers eigenvalue indices starts[E] .. starts[E] + mult[E] - 1;
    `values` are the cluster means. Near-equal eigenvalues join a cluster
    while they stay within cluster_tol of its running mean, so the
    multiplicities sum to n.
    """

    values: np.ndarray
    mult: np.ndarray
    starts: np.ndarray
    vectors: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def of(cls, spectrum: Spectrum, cluster_tol: float) -> ClusterView:
        if cluster_tol <= 0:
            raise ValueError(f"cluster tolerance must be positive, got {cluster_tol}")
        values, mult = [], []
        run_sum, run_count = 0.0, 0
        for lam in np.asarray(spectrum.eigenvalues, dtype=float).tolist():
            if run_count and abs(lam - run_sum / run_count) <= cluster_tol:
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
        return cls(values=np.array(values, dtype=float), mult=mult,
                   starts=np.cumsum(mult) - mult, vectors=spectrum.eigenvectors)

    def __len__(self):
        return len(self.values)

    @cached_property
    def weights(self) -> np.ndarray:
        """W[j, E] = sum over n in E of v_jn**2, an n x K array: the diagonal
        of the projector onto cluster E, whatever basis the solver picked
        inside the cluster."""
        if self.vectors is None:
            raise ValueError("operation needs eigenvectors; decompose with with_vectors=True")
        return np.add.reduceat(self.vectors**2, self.starts, axis=1)

    @cached_property
    def gram(self) -> np.ndarray:
        """G = W^T W, K x K."""
        return self.weights.T @ self.weights


def _fix_signs(vecs):
    v = vecs.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            v[:, k] = -col
    return v


def _is_symmetric(a):
    """|a - a^T| <= 1e-12 everywhere, so a NaN or an infinity fails.

    Rows lo..hi of the upper part are compared with the matching columns
    one band at a time, so no n x n temporary is made.
    """
    n = a.shape[0]
    with np.errstate(invalid="ignore"):
        for lo in range(0, n, _SYMMETRY_BAND):
            hi = min(lo + _SYMMETRY_BAND, n)
            if not np.all(np.abs(a[lo:hi, lo:] - a[lo:, lo:hi].T) <= 1e-12):
                return False
    return True


def decompose(lap: np.ndarray, with_vectors: bool = False) -> Spectrum:
    """Eigendecompose a symmetric Laplacian, ascending eigenvalues.

    When vectors are requested the residual ||L v - lam v|| is checked
    against 1e-9 * ||L||_2 per pair; a violation or a LAPACK failure
    raises NumericalError with the matrix size.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {lap.shape}")
    if not _is_symmetric(lap):
        raise ValueError("matrix is not symmetric")
    try:
        if with_vectors:
            vals, vecs = np.linalg.eigh(lap)
        else:
            vals = np.linalg.eigvalsh(lap)
            vecs = None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigensolver failed on a {lap.shape[0]}x{lap.shape[0]} matrix: {exc}"
        ) from exc
    if vecs is not None:
        vecs = _fix_signs(vecs)
        scale = max(1.0, float(np.abs(vals).max()))
        resid = np.linalg.norm(lap @ vecs - vecs * vals, axis=0).max()
        if resid > RESIDUAL_RTOL * scale:
            raise NumericalError(
                f"eigenpair residual {resid:.3e} exceeds {RESIDUAL_RTOL:.0e} * ||L|| "
                f"for a {lap.shape[0]}x{lap.shape[0]} matrix"
            )
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def graph_spectrum(graph: Graph, with_vectors: bool = False) -> Spectrum:
    """The Laplacian spectrum of a graph, from a closed form where one exists.

    Eigenvalue-only requests on graphs from `build_ring`, `build_star`,
    `build_hypercubic` and `build_dendrimer` skip the dense solve; every
    other graph, and every request for eigenvectors, is decomposed densely.
    """
    if with_vectors or graph.family is None:
        return decompose(laplacian(graph), with_vectors=with_vectors)
    name, *params = graph.family
    return Spectrum(eigenvalues=_CLOSED_FORMS[name](*params), path="closed_form")


def _torus_eigenvalues(side, d):
    # Fourier modes: 2 - 2cos(2 pi k / side) = 4 sin^2(pi k / side) per axis,
    # with k folded onto min(k, side - k) so that +k and -k give equal bits
    k = np.arange(side)
    axis = 4.0 * np.sin(np.pi * np.minimum(k, side - k) / side) ** 2
    values = np.zeros(1)
    for _ in range(d):
        values = np.add.outer(values, axis).ravel()
    return np.sort(values)


def _star_eigenvalues(n):
    values = np.ones(n)
    values[0], values[-1] = 0.0, float(n)
    return values


def _dendrimer_eigenvalues(generation, z):
    """Shell-symmetric reduction of the dendrimer Laplacian (Cai & Chen,
    Macromolecules 30, 5104 (1997); Muelken, Bierbaum & Blumen, J. Chem.
    Phys. 124, 124905 (2006)).

    Eigenvectors constant on the shells of a subtree, and antisymmetric
    between sibling subtrees, reduce L to tridiagonal blocks with diagonal
    z, ..., z, 1 and off-diagonal -sqrt(z-1): the symmetric block of size
    G+1 (first off-diagonal -sqrt(z)), the core-antisymmetric block of size
    G with multiplicity z-1, and for 1 <= g <= G-1 the block of size G-g
    below each shell-g node, with multiplicity z (z-1)^(g-1) (z-2).
    """
    if generation == 0:
        return np.zeros(1)

    branch = np.sqrt(z - 1.0)

    def block(size, first=branch):
        diag = np.full(size, float(z))
        diag[-1] = 1.0
        off = np.full(size - 1, -branch)
        off[:1] = -first
        return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    parts = [block(generation + 1, first=np.sqrt(float(z))),
             np.repeat(block(generation), z - 1)]
    for g in range(1, generation):
        parts.append(np.repeat(block(generation - g), z * (z - 1) ** (g - 1) * (z - 2)))
    return np.sort(np.concatenate(parts))


_CLOSED_FORMS = {
    "ring": lambda n: _torus_eigenvalues(n, 1),
    "torus": _torus_eigenvalues,
    "star": _star_eigenvalues,
    "dendrimer": _dendrimer_eigenvalues,
}


def degeneracy_table(spectrum: Spectrum, cluster_tol: float | None = None):
    """Cluster near-equal eigenvalues; returns [(mean value, multiplicity), ...].

    A value joins the current cluster while it stays within cluster_tol of
    the running cluster mean. Multiplicities sum to n.
    """
    view = spectrum.clusters_at(cluster_tol)
    return list(zip(view.values.tolist(), view.mult.tolist()))


@dataclass(frozen=True)
class DOSHistogram:
    """Normalized eigenvalue histogram: sum(counts * widths) = 1."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def bin_mass(self) -> np.ndarray:
        return self.counts * np.diff(self.bin_edges)


def dos_histogram(spectrum: Spectrum, bins: int) -> DOSHistogram:
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    counts, edges = np.histogram(spectrum.eigenvalues, bins=bins, density=True)
    return DOSHistogram(bin_edges=edges, counts=counts)


# -- CSV export ---------------------------------------------------------------

def spectrum_csv(spectrum: Spectrum) -> str:
    lines = ["index,eigenvalue"]
    lines.extend(f"{k},{repr(float(v))}" for k, v in enumerate(spectrum.eigenvalues))
    return "\n".join(lines) + "\n"


def degeneracies_csv(spectrum: Spectrum, cluster_tol: float | None = None) -> str:
    lines = ["value,multiplicity"]
    lines.extend(f"{repr(float(v))},{m}" for v, m in degeneracy_table(spectrum, cluster_tol))
    return "\n".join(lines) + "\n"
