"""Return probabilities of continuous-time walks from a discrete spectrum.

The classical walk is generated by the negated Laplacian, the quantum walk
by the Laplacian itself, both at unit hop rate. `transport_series`
evaluates the three series the efficiency measure needs, each averaged
over start nodes: the classical return p_bar and the quantum lower bound
|alpha_bar|^2 need only eigenvalues; the exact quantum average pi_bar
and `chi_matrix` need the eigenspace projectors as well: eigenvectors
or, on the symmetric families, their pair orbits.

Both read the spectrum's degeneracy clusters, built once per spectrum:
K distinct levels with their multiplicities and, with vectors or pair
orbits, a factor of the Gram matrix of the cluster projector diagonals,
which `transport_series` computes for its call only. The series work in
real arithmetic on blocks of about `spectral._BLOCK_ELEMS` / K times, at
most three such blocks alive at once, so their cost scales with K rather
than n and their memory does not grow with the grid.
`parse_grid_spec` reads a run's time grid from its spec, at most
MAX_GRID_POINTS points, and `series_csv` writes a series as CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvtext import _columns, _csv_blocks, float_text
from . import graphs
from .errors import NumericalError, ParseError, ResourceLimitError, _read_spec
from .spectral import Spectrum, _blocks, projector_factor

# the series and its CSV are O(points) in memory: a million points write a
# 70 MB series.csv, streamed a block of rows at a time from 24 B of text a
# value (72 MB for three columns); the t column's text, 24 MB, is held
# until deltap.csv is written
MAX_GRID_POINTS = 1_000_000
EIG_CLAMP_TOL = 1e-8
# rounding may push a probability past [0, 1] by a few ulps, never by more
PROB_CLAMP_TOL = 1e-12
# exp(-708) = 3.3e-308 is still a normal double
EXP_FLOOR = -708.0
SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, non-negative times."""

    times: np.ndarray

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
    return TimeGrid(np.linspace(lo, hi, num))


def log_grid(lo: float = 1e-2, hi: float = 1e4, num: int = 600,
             include_zero: bool = True) -> TimeGrid:
    """Logarithmic grid, optionally with t=0 prepended for normalization
    checks; the defaults give 600 points on [1e-2, 1e4] plus t=0."""
    t = np.geomspace(lo, hi, num)
    if include_zero:
        t = np.concatenate(([0.0], t))
    return TimeGrid(t)


def merge_grids(*grids: TimeGrid) -> TimeGrid:
    """Union of several grids, deduplicated."""
    return TimeGrid(np.unique(np.concatenate([g.times for g in grids])))


# `_read_spec` rows; the segment names its kind, so the usage is the rest
_GRID_SEGMENTS = dict.fromkeys(("log", "linear"), ("LO,HI,N", (float, float, int), {}))


def parse_grid_spec(spec: str) -> TimeGrid:
    """Parse 'log:LO,HI,N' or 'linear:LO,HI,N', optionally joined with '+'.

    Log segments get t=0 prepended so normalization shows up in the series;
    joined segments are merged and deduplicated. Each segment needs N >= 1,
    finite bounds with LO >= 0 (LO, HI > 0 on a log segment) and, for
    N > 1, LO < HI. A total N above MAX_GRID_POINTS raises
    ResourceLimitError before any grid is made.
    """
    segments, start = [], 0
    for part in spec.split("+"):
        kind, (lo, hi, num), _ = _read_spec(spec, _GRID_SEGMENTS, "grid segment",
                                            start, start + len(part))
        floor = "0 < LO, HI" if kind == "log" else "0 <= LO"
        above = min(lo, hi) > 0 if kind == "log" else lo >= 0
        if not (num >= 1 and above and np.isfinite([lo, hi]).all() and (num == 1 or lo < hi)):
            raise ParseError(f"{kind} grid segment needs N >= 1, finite {floor} and, for "
                             f"N > 1, LO < HI: {part!r}", text=spec, position=start)
        segments.append((kind, lo, hi, num))
        start += len(part) + 1
    total = sum(num for *_, num in segments)
    if total > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid of {total} points exceeds the limit of {MAX_GRID_POINTS}")
    grids = [(log_grid if kind == "log" else linear_grid)(lo, hi, num)
             for kind, lo, hi, num in segments]
    return grids[0] if len(grids) == 1 else merge_grids(*grids)


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


def _levels(spectrum: Spectrum) -> np.ndarray:
    """The spectrum's cluster levels clipped to >= 0. An eigenvalue
    below -EIG_CLAMP_TOL * max(1, |lam|_max) is not rounding and raises
    ValueError."""
    lam = np.asarray(spectrum.values, dtype=float)
    lo, hi = float(lam.min(initial=0.0)), float(lam.max(initial=0.0))
    tol = EIG_CLAMP_TOL * max(1.0, -lo, hi)
    if lo < -tol:
        raise ValueError(f"spectrum has eigenvalue {lo:.3e} below -{tol:.1e}; not a Laplacian")
    return np.clip(spectrum.levels, 0.0, None)


def _cos_sin(t: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of outer(t, lam) from the tangent u of the half angle:
    cos = 2/(1+u^2) - 1, sin = 2u/(1+u^2), accurate to about one ulp of 1.

    One tangent replaces a sine and a cosine, and numpy vectorises tan
    with SIMD where its float64 sin and cos run scalar (numpy 2.4 on an
    AVX-512 Xeon: about 2.5 ns against 23 ns an element).
    """
    u = np.outer(t, 0.5 * lam)
    np.tan(u, out=u)
    one_plus_cos = u * u
    one_plus_cos += 1.0
    np.divide(2.0, one_plus_cos, out=one_plus_cos)
    sin = np.multiply(u, one_plus_cos, out=u)
    one_plus_cos -= 1.0
    return one_plus_cos, sin


def clamp_unit_interval(values: np.ndarray) -> np.ndarray:
    """Clip probabilities to [0, 1], raising NumericalError if rounding
    cannot explain the overshoot (more than PROB_CLAMP_TOL outside)."""
    worst = int(np.argmax(np.maximum(-values, values - 1.0)))
    if not -PROB_CLAMP_TOL <= values[worst] <= 1.0 + PROB_CLAMP_TOL:
        raise NumericalError(
            f"probability {values[worst]!r} at index {worst} lies outside [0, 1]")
    return np.clip(values, 0.0, 1.0)


def transport_series(spectrum: Spectrum, grid: TimeGrid,
                     with_exact_quantum: bool = False) -> TransportSeries:
    """p_bar and |alpha_bar|^2, and pi_bar with `with_exact_quantum`, from
    the K clusters E of the spectrum, with values lam_E, multiplicities
    m_E and C, S = cos, sin(lam_E t):

    - p_bar(t) = sum_E (m_E / N) exp(-lam_E t), the average classical
      return probability. It falls monotonically to 1/N on a connected
      graph. Terms below exp(EXP_FLOOR) flush to zero, which is harmless
      in the average and skips numpy's slow path for subnormal results.
    - |alpha_bar(t)|^2 = ((C m)^2 + (S m)^2) / N^2, the eigenvalue-only
      lower bound |mean_n exp(-i lam_n t)|^2 on the quantum return. It is
      exact on walk-regular graphs (Godsil & McKay, Linear Algebra Appl.
      30, 51 (1980)), where every projector diagonal P_E(j, j) is the same
      for all j, as on vertex-transitive ones; a regular graph alone does
      not suffice. Elsewhere it reproduces the local maxima of the true
      average well.
    - pi_bar(t) = mean over j of |sum_E exp(-i lam_E t) W_jE|^2, the exact
      average quantum return, with W_jE the diagonal of the projector onto
      cluster E. Expanded, that is (1/N) sum_{E,E'} G_EE' cos((lam_E -
      lam_E') t) with G = W^T W = F^T F, evaluated as rowsum((C F^T)^2 +
      (S F^T)^2) / N: T x K x r real flops, where F (`projector_factor`)
      has r rows, 1 on a torus, one per shell on a tree and at most K from
      eigenvectors. F comes from the pair orbits, so a closed-form spectrum
      needs no eigenvectors. F is computed once per call and freed when
      the call returns.

    The times run in blocks of `spectral._blocks` rows, each times x K
    array about `spectral._BLOCK_ELEMS` elements; one half-angle block per
    block of times feeds both quantum columns.
    """
    lam = _levels(spectrum)
    n, mult = spectrum.n, spectrum.mult.astype(float)
    factor = projector_factor(spectrum).T if with_exact_quantum else None

    def kernel(t):
        # at most three times x K blocks are alive at once
        decay = np.outer(t, -lam)
        keep = decay > EXP_FLOOR
        np.exp(decay, out=decay, where=keep)
        np.copyto(decay, 0.0, where=~keep)
        p = decay @ mult / n
        del decay, keep
        cos, sin = _cos_sin(t, lam)
        columns = [p, ((cos @ mult) ** 2 + (sin @ mult) ** 2) / n**2]
        if factor is not None:
            # (C F^T)^2 + (S F^T)^2, C freed before S F^T is built
            pi = cos @ factor
            del cos
            pi *= pi
            sf = sin @ factor
            sf *= sf
            pi += sf
            columns.append(pi.sum(axis=1) / n)
        return np.column_stack(columns)

    t = grid.times
    columns = np.concatenate([kernel(t[rows]) for rows in _blocks(len(t), len(lam))]).T
    return TransportSeries(
        grid=grid, p_bar=columns[0], alpha_bar_sq=clamp_unit_interval(columns[1]),
        pi_bar=None if factor is None else clamp_unit_interval(columns[2]))


def chi_matrix(spectrum: Spectrum) -> np.ndarray:
    """Long-time average of the quantum transition probabilities, as one
    n x n array: `chi_table`'s values gathered through its whole index.

    Time-averaging kills every cross term between distinct eigenvalues, so
    chi = sum over degenerate clusters E of P_E o P_E, with P_E the
    projector onto cluster E. Cross terms inside a cluster survive, which
    is why the degeneracy clustering (`Spectrum.mult`) is
    load-bearing: splitting a true cluster would push chi toward the
    naive diagonal form. Columns sum to 1.
    """
    values, index = chi_table(spectrum)
    return values[index[:]]


@dataclass(frozen=True)
class _TriangleIndex:
    """The n x n index of chi = values[index] when values is chi's lower
    triangle packed row by row: entry (i, j) sits at k (k + 1) / 2 + l,
    k = max(i, j), l = min(i, j). No n x n integer array is held;
    `index[lo:hi]` computes rows lo..hi-1 as the whole array would give
    them."""

    n: int

    def __len__(self):
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        node = np.arange(self.n)
        i = node[rows, None]
        return np.where(node <= i, i * (i + 1) // 2 + node, node * (node + 1) // 2 + i)

    def diagonal(self) -> np.ndarray:
        node = np.arange(self.n)
        return node * (node + 3) // 2


def _dense_chi(spectrum: Spectrum) -> np.ndarray:
    """chi from eigenvectors, n x n. Clusters of one or two vectors a, b
    contribute rank-one terms (a o a)(a o a)^T, (b o b)(b o b)^T and
    2 (a o b)(a o b)^T, which go into a single product Z Z^T; only larger
    clusters build an n x n projector. Z Z^T and each projector run as
    symmetric rank-k updates, so chi is exactly symmetric."""
    v = spectrum.eigenvectors
    if v is None:
        raise ValueError("chi needs eigenvectors or pair orbits; use "
                         "graph_spectrum(graph, with_vectors=True)")
    starts, mult = spectrum.starts, spectrum.mult
    single = starts[mult == 1]
    pair = starts[mult == 2]
    a, b = v[:, pair], v[:, pair + 1]
    z = np.hstack([v[:, single] ** 2, a * a, b * b, SQRT2 * a * b])
    chi = z @ z.T
    large = mult > 2
    for start, m in zip(starts[large].tolist(), mult[large].tolist()):
        block = v[:, start:start + m]
        proj = block @ block.T
        chi += proj * proj
    return chi


def chi_table(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray | _TriangleIndex]:
    """chi in the one form its readers take: (values, index), chi =
    values[index], where index gives rows a block at a time
    (`index[lo:hi]`), `len(index)` and `index.diagonal()`. Above the node
    cap `graphs.DEFAULT_SIZE_CAP` it raises ResourceLimitError before any
    n x n array.

    A closed-form spectrum carries its graph's pair orbits
    (`Spectrum.pairs`), on which every P_E is constant: values is the
    orbit table, sum_E P_E^2 per orbit, and index the n x n small-int
    orbit index. From eigenvectors, values is chi's lower triangle packed
    row by row and index a `_TriangleIndex`; the full product
    (`_dense_chi`) is freed before the call returns.
    """
    graphs.check_size_cap(spectrum.n, "chi")
    pairs = spectrum.pairs
    if pairs is None:
        n = spectrum.n
        return _dense_chi(spectrum)[np.tri(n, dtype=bool)], _TriangleIndex(n)
    # each block's first row carries the total so far, so that every orbit
    # sums its clusters one after another, whatever the blocks' size
    table = 0.0
    for p in pairs.projectors(spectrum.cluster):
        rows = p * p
        rows[0] += table
        table = rows.sum(axis=0)
    return table, pairs.orbit_index()


def chi_diagnostics(values, index) -> dict[str, str]:
    """The largest |column sum - 1| of chi = values[index] and (1/N) tr
    chi, the long-time limit of pi_bar, as the run manifest records them.

    Rows are gathered through the index a block at a time into a buffer
    whose first row holds the column sums so far. Summing the buffer adds
    the rows one after another, as chi.sum(axis=0) adds them, so the sums
    keep their bits and no n x n array is made."""
    n = len(index)
    # a gathered row costs its float row, its index row and, from a
    # _TriangleIndex, the temporaries that compute it: fewer than eight
    # n-element rows of 8-byte words, so blocks of 8 n keep the gather
    # within _BLOCK_ELEMS words
    blocks = _blocks(n, 8 * n)
    rows = np.zeros((blocks[0].stop + 1, n))
    for block in blocks:
        m = block.stop - block.start
        # every index is in range; mode="raise" would copy out first
        np.take(values, index[block], out=rows[1:1 + m], mode="clip")
        rows[0] = rows[:1 + m].sum(axis=0)
    return {"chi.column_sum_error": repr(float(np.abs(rows[0] - 1.0).max())),
            "chi.mean_return": repr(float(values[index.diagonal()].sum() / n))}


# -- CSV export ---------------------------------------------------------------

def series_csv(series: TransportSeries):
    """Columns t,p_bar,alpha_bar_sq[,pi_bar]; shortest round-trip floats.

    Every value is formatted before the call returns, in one pass over
    the columns laid end to end. Returns a copy of the t column's text,
    from which `scaling.ratio_csv` gathers its times, and an iterator of
    ASCII byte blocks whose concatenation is the CSV text, rows assembled
    a block at a time as it is consumed.
    """
    names = ("t", "p_bar", "alpha_bar_sq", "pi_bar")[:3 if series.pi_bar is None else 4]
    text = float_text([series.times] + [getattr(series, name) for name in names[1:]])
    return text[0].copy(), _csv_blocks(",".join(names) + "\n", len(series.times),
                                       len(names), _columns(*text))


def chi_csv(values: np.ndarray, index):
    """Matrix CSV of chi = values[index], as `chi_table` gives it, with a
    node-index header row, as byte blocks like `series_csv`'s. Each value
    is formatted once, before the call returns; each block of rows is
    gathered from that text through its rows of the index, so neither
    the whole text nor an n x n array is held."""
    n, text = len(index), float_text(values)
    header = "node," + ",".join(map(str, range(n))) + "\n"
    return _csv_blocks(header, n, n, lambda lo, hi: text[index[lo:hi]], labelled=True)
