"""Return probabilities of continuous-time walks from a discrete spectrum.

The classical walk is generated by the negated Laplacian, the quantum walk
by the Laplacian itself, both at unit hop rate. Averaged over start nodes
the classical return probability and the quantum lower bound need only
eigenvalues; the exact quantum average and anything pairwise need the
eigenvectors as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .spectral import Spectrum, cluster_slices

EIG_CLAMP_TOL = 1e-8
# rounding may push a probability past [0, 1] by a few ulps, never by more
PROB_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, non-negative times with a spacing label."""

    times: np.ndarray
    spacing: str = "linear"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or len(t) == 0:
            raise ValueError("time grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(t)):
            raise ValueError("time grid contains non-finite entries")
        if t[0] < 0:
            raise ValueError(f"times must be >= 0, got t[0]={t[0]}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)


def linear_grid(lo: float, hi: float, num: int) -> TimeGrid:
    return TimeGrid(np.linspace(lo, hi, num), spacing="linear")


def log_grid(lo: float = 1e-2, hi: float = 1e4, num: int = 600,
             include_zero: bool = True) -> TimeGrid:
    """Logarithmic grid, optionally with t=0 prepended for normalization checks."""
    t = np.geomspace(lo, hi, num)
    if include_zero:
        t = np.concatenate(([0.0], t))
    return TimeGrid(t, spacing="logarithmic")


def default_grid() -> TimeGrid:
    """600 log-spaced points on [1e-2, 1e4] plus t=0."""
    return log_grid()


def merge_grids(*grids: TimeGrid) -> TimeGrid:
    """Union of several grids, deduplicated; spacing becomes 'composite'."""
    t = np.unique(np.concatenate([g.times for g in grids]))
    return TimeGrid(t, spacing="composite")


@dataclass(frozen=True)
class TransportSeries:
    """p_bar, |alpha_bar|^2 and optionally pi_bar sampled on a common grid."""

    grid: TimeGrid
    p_bar: np.ndarray
    alpha_bar_sq: np.ndarray
    pi_bar: np.ndarray | None = None

    @property
    def times(self) -> np.ndarray:
        return self.grid.times


def _clamped_eigenvalues(spectrum: Spectrum) -> np.ndarray:
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    tol = EIG_CLAMP_TOL * max(1.0, float(np.abs(lam).max(initial=0.0)))
    if lam.min(initial=0.0) < -tol:
        raise ValueError(
            f"spectrum has eigenvalue {lam.min():.3e} below -{tol:.1e}; not a Laplacian"
        )
    return np.clip(lam, 0.0, None)


def clamp_unit_interval(values: np.ndarray) -> np.ndarray:
    """Clip probabilities to [0, 1], raising NumericalError if rounding
    cannot explain the overshoot (more than PROB_CLAMP_TOL outside)."""
    worst = int(np.argmax(np.maximum(-values, values - 1.0)))
    if not -PROB_CLAMP_TOL <= values[worst] <= 1.0 + PROB_CLAMP_TOL:
        raise NumericalError(
            f"probability {values[worst]!r} at index {worst} lies outside [0, 1]")
    return np.clip(values, 0.0, 1.0)


def classical_return(spectrum: Spectrum, grid: TimeGrid) -> np.ndarray:
    """Average classical return probability: mean over n of exp(-lam_n t).

    Monotonically non-increasing; tends to 1/N on a connected graph.
    Underflowing terms flush to zero, which is harmless in the average.
    """
    lam = _clamped_eigenvalues(spectrum)
    with np.errstate(under="ignore"):
        return np.exp(-np.outer(grid.times, lam)).mean(axis=1)


def quantum_return_bound(spectrum: Spectrum, grid: TimeGrid) -> np.ndarray:
    """Eigenvalue-only lower bound |mean_n exp(-i lam_n t)|^2 on the quantum return.

    Exact on regular graphs; elsewhere it reproduces the local maxima of
    the true average well.
    """
    lam = _clamped_eigenvalues(spectrum)
    phases = np.exp(-1j * np.outer(grid.times, lam))
    return clamp_unit_interval(np.abs(phases.mean(axis=1)) ** 2)


def _squared_vectors(spectrum: Spectrum) -> np.ndarray:
    if not spectrum.has_vectors():
        raise ValueError("operation needs eigenvectors; decompose with with_vectors=True")
    return spectrum.eigenvectors**2


def exact_average_return(spectrum: Spectrum, grid: TimeGrid) -> np.ndarray:
    """Exact average quantum return probability, from squared eigenvector weights.

    pi_bar(t) = mean over j of |sum_n exp(-i lam_n t) v_jn^2|^2. Only the
    diagonal transition amplitudes are needed, so this is one dense
    matrix-vector product per time point.
    """
    w = _squared_vectors(spectrum)
    lam = _clamped_eigenvalues(spectrum)
    phases = np.exp(-1j * np.outer(grid.times, lam))
    amps = phases @ w.T
    return clamp_unit_interval((np.abs(amps) ** 2).mean(axis=1))


def transport_series(spectrum: Spectrum, grid: TimeGrid,
                     with_exact_quantum: bool = False) -> TransportSeries:
    pi = exact_average_return(spectrum, grid) if with_exact_quantum else None
    return TransportSeries(
        grid=grid,
        p_bar=classical_return(spectrum, grid),
        alpha_bar_sq=quantum_return_bound(spectrum, grid),
        pi_bar=pi,
    )


# -- pairwise quantities ------------------------------------------------------

def _check_node(spectrum, *nodes):
    for v in nodes:
        if not (0 <= v < spectrum.n):
            raise IndexError(f"node {v} out of range for n={spectrum.n}")


def classical_transition_matrix(spectrum: Spectrum, t: float) -> np.ndarray:
    """exp(-L t) reconstructed from the eigenpairs; columns sum to 1."""
    if not spectrum.has_vectors():
        raise ValueError("operation needs eigenvectors; decompose with with_vectors=True")
    lam = _clamped_eigenvalues(spectrum)
    v = spectrum.eigenvectors
    with np.errstate(under="ignore"):
        return (v * np.exp(-lam * t)) @ v.T


def quantum_amplitude_matrix(spectrum: Spectrum, t: float) -> np.ndarray:
    """Unitary exp(-i L t) reconstructed from the eigenpairs."""
    if not spectrum.has_vectors():
        raise ValueError("operation needs eigenvectors; decompose with with_vectors=True")
    lam = _clamped_eigenvalues(spectrum)
    v = spectrum.eigenvectors
    return (v * np.exp(-1j * lam * t)) @ v.T


def pairwise_classical(spectrum: Spectrum, j: int, k: int, t: float) -> float:
    """Probability to sit at node k at time t after starting at node j."""
    _check_node(spectrum, j, k)
    if not spectrum.has_vectors():
        raise ValueError("operation needs eigenvectors; decompose with with_vectors=True")
    lam = _clamped_eigenvalues(spectrum)
    v = spectrum.eigenvectors
    with np.errstate(under="ignore"):
        return float(np.sum(np.exp(-lam * t) * v[k] * v[j]))


def pairwise_quantum(spectrum: Spectrum, j: int, k: int, t: float) -> float:
    """Quantum transition probability |<k| exp(-i L t) |j>|^2."""
    _check_node(spectrum, j, k)
    if not spectrum.has_vectors():
        raise ValueError("operation needs eigenvectors; decompose with with_vectors=True")
    lam = _clamped_eigenvalues(spectrum)
    v = spectrum.eigenvectors
    amp = np.sum(np.exp(-1j * lam * t) * v[k] * v[j])
    return float(np.abs(amp) ** 2)


def chi_matrix(spectrum: Spectrum, cluster_tol: float | None = None) -> np.ndarray:
    """Long-time average of the quantum transition probabilities.

    Time-averaging kills every cross term between distinct eigenvalues, so
    chi_kj = sum over degenerate clusters E of |sum_{n in E} v_kn v_jn|^2.
    Cross terms inside a cluster survive, which is why the degeneracy
    clustering (same tolerance as the degeneracy table) is load-bearing:
    splitting a true cluster would push chi toward the naive diagonal form.
    Columns sum to 1.
    """
    if not spectrum.has_vectors():
        raise ValueError("operation needs eigenvectors; decompose with with_vectors=True")
    v = spectrum.eigenvectors
    n = spectrum.n
    chi = np.zeros((n, n))
    for start, stop in cluster_slices(spectrum, cluster_tol):
        block = v[:, start:stop]
        proj = block @ block.T
        chi += proj**2
    return chi


# -- CSV export ---------------------------------------------------------------

def series_csv(series: TransportSeries) -> str:
    """Columns t,p_bar,alpha_bar_sq[,pi_bar]; shortest round-trip floats."""
    has_pi = series.pi_bar is not None
    header = "t,p_bar,alpha_bar_sq" + (",pi_bar" if has_pi else "")
    lines = [header]
    for idx, t in enumerate(series.times):
        row = [repr(float(t)), repr(float(series.p_bar[idx])),
               repr(float(series.alpha_bar_sq[idx]))]
        if has_pi:
            row.append(repr(float(series.pi_bar[idx])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def chi_csv(chi: np.ndarray) -> str:
    """Matrix CSV with a node-index header row."""
    n = chi.shape[0]
    lines = ["node," + ",".join(str(k) for k in range(n))]
    for j in range(n):
        lines.append(f"{j}," + ",".join(repr(float(x)) for x in chi[j]))
    return "\n".join(lines) + "\n"
