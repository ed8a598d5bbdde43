"""Analytic density-of-states families and their transport integrals.

Two families cover the cases of interest: a bounded power-of-semicircle
density on [0, lam_max], and an unbounded density with an exp(-1/lam)
low-eigenvalue suppression (Lifshits tail) and an algebraic lam**-b high
tail. The classical return probability is the Laplace transform of the
density, the quantum bound the squared modulus of its Fourier transform;
`continuum_series` gives both as the `TransportSeries` a graph run gets.

Numerics: both families have Bessel closed forms, evaluated vectorised
over the whole grid. For the power semicircle, with v = nu + 1/2 and
x = lam_max t / 2, the Poisson integrals (DLMF 10.9.4, 10.32.2) give
p = Gamma(v+1) (2/x)**v ive(v, x) = exp(-x) 0F1(;v+1;x**2/4) and
alpha = Gamma(v+1) (2/x)**v J_v(x) exp(-ix) = exp(-ix) 0F1(;v+1;-x**2/4).
While x**2/4 <= v+1 the 0F1 series is summed directly (exactly 1 at t=0,
no cancellation, no Gamma overflow at large nu); beyond it the Bessel form
runs with its prefactor in log space, which holds up to nu of about 340.
Above x = _LARGE_X, where scipy's ive and jv are still finite (they turn
NaN past about 1.07e9), both Bessel factors come from their large-argument
expansions (DLMF 10.40.1, 10.17.3), so no t is too large.
For the Lifshits family u = 1/lam gives (DLMF 10.32.10, Gradshteyn & Ryzhik
3.471.9) p = 2 t**((b-1)/2) K_{b-1}(2 sqrt t) / Gamma(b-1), and alpha is
the same with t -> i t on the principal branch; the exponentially scaled
kve keeps both accurate down to values near 1e-300. Where kve overflows
(b of about 150 and up, at small t, where the power underflows), ln K
comes from an upward recurrence in the order instead. Where the value's
log-magnitude falls below double underflow it is 0, taken directly, before
kve turns NaN (near |2 sqrt(i t)| = 1.2e9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParseError, _read_spec
from .transport import TimeGrid, TransportSeries, clamp_unit_interval

# scipy.special is imported where it is first used, and it is the only
# scipy module the package loads: a dense solve takes numpy's LAPACK
# (`spectral._lapack`), so importing the package and graph runs stay cheap
_SQRT2 = math.sqrt(2.0)
# log-magnitude below which density values flush to zero (double underflow)
_LOG_TINY = -740.0


@dataclass(frozen=True)
class PowerSemicircle:
    """Density proportional to (lam * lam_max - lam**2)**nu on [0, lam_max].

    nu = -1/2 is the one-dimensional lattice band edge law, nu = 1/2 the
    semicircle of a large random matrix; general nu > -1 interpolates the
    spectral-dimension family d_s = 2 * (1 + nu).
    """

    nu: float
    lam_max: float

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > -1):
            raise ValueError(f"need finite nu > -1, got {self.nu}")
        if not (math.isfinite(self.lam_max) and self.lam_max > 0):
            raise ValueError(f"need finite lam_max > 0, got {self.lam_max}")

    @property
    def log_norm(self) -> float:
        # integral of (lam*(lam_max - lam))**nu over [0, lam_max]
        from scipy import special

        return (2 * self.nu + 1) * math.log(self.lam_max) + \
            float(special.betaln(self.nu + 1, self.nu + 1))

    def density(self, lam):
        lam = np.asarray(lam, dtype=float)
        inside = (lam > 0) & (lam < self.lam_max)
        out = np.zeros_like(lam)
        x = lam[inside]
        out[inside] = np.exp(self.nu * (np.log(x) + np.log(self.lam_max - x))
                             - self.log_norm)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Lifshits:
    """Density proportional to lam**-b * exp(-1/lam) on (0, inf), b > 1.

    The normalization constant has the closed form Gamma(b - 1) under
    u = 1/lam, so no quadrature is needed to normalize.
    """

    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 1):
            raise ValueError(f"need finite b > 1, got {self.b}")

    @property
    def log_norm(self) -> float:
        from scipy import special

        return float(special.gammaln(self.b - 1))

    def density(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        pos = lam > 0
        x = lam[pos]
        logv = -self.b * np.log(x) - 1.0 / x - self.log_norm
        out[pos] = np.where(logv > _LOG_TINY, np.exp(np.clip(logv, _LOG_TINY, None)), 0.0)
        return out if out.ndim else float(out)


ContinuousDOS = PowerSemicircle | Lifshits


# -- closed-form transforms ---------------------------------------------------

# terms summed in both truncated series: the 0F1 series where its argument is
# small, whose term ratio is at most 1/k (_hyp0f1_small), and the large-argument
# Bessel expansions above _LARGE_X, whose term ratio is below 6e-4/k
# (_large_x_bessel); 20 terms take either far past double precision
_SERIES_TERMS = 20
# bound on the log-magnitude of the Bessel-form prefactor times exp(x) at the
# series/Bessel switch-over: exp(-709) leaves the normal double range
_LOG_HUGE = 700.0
# x above which the semicircle's Bessel factors come from their
# large-argument expansions, a decade below scipy's NaN at 1.07e9
_LARGE_X = 1e8


def _hyp0f1_small(a, z):
    """0F1(;a;z) by direct summation, for |z| <= a.

    Term k+1 over term k is z / ((a + k)(k + 1)), at most 1/(k + 1) in
    modulus when |z| <= a, so the terms fall at least as fast as 1/k!:
    twenty of them reach double precision and, for z < 0, the alternating
    sum cannot cancel.
    """
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(1, _SERIES_TERMS):
        term = term * z / ((a + k - 1) * k)
        total += term
    return total


def _large_x_bessel(v, x, quantum: bool) -> np.ndarray:
    """ive(v, x) or J_v(x) for x above _LARGE_X from the large-argument
    expansions, with a_k = prod_(j<=k) (4v**2 - (2j-1)**2) / (k! 8**k):
    ive = sum_k (-1)**k a_k / x**k / sqrt(2 pi x) (DLMF 10.40.1) and
    J_v = sqrt(2/(pi x)) (cos w sum_k (-1)**k a_2k / x**2k - sin w
    sum_k (-1)**k a_(2k+1) / x**(2k+1)), w = x - v pi/2 - pi/4 (10.17.3).

    Term k over term k-1 is (4v**2 - (2k-1)**2) / (8 k x), below 6e-4 / k
    for the v up to 341 that the Bessel form allows, so _SERIES_TERMS of
    them are far past double precision. cos w and sin w are expanded over
    cos x and sin x, so x is not rounded by a shift of its phase. Each
    product or square root that holds x divides by x or sqrt(x) last, so
    that no intermediate overflows up to the largest double.
    """
    mu = 4.0 * v * v
    term = np.ones_like(x)
    sums = [np.ones_like(x), np.zeros_like(x)]
    for k in range(1, _SERIES_TERMS):
        term = term * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) / x
        if quantum:
            sums[k % 2] += term if k // 2 % 2 == 0 else -term
        else:
            sums[0] += term if k % 2 == 0 else -term
    if not quantum:
        return sums[0] / math.sqrt(2 * math.pi) / np.sqrt(x)
    phase = v * math.pi / 2 + math.pi / 4
    cos, sin = np.cos(x), np.sin(x)
    cos_w = cos * math.cos(phase) + sin * math.sin(phase)
    sin_w = sin * math.cos(phase) - cos * math.sin(phase)
    return (cos_w * sums[0] - sin_w * sums[1]) * math.sqrt(2 / math.pi) / np.sqrt(x)


def _semicircle_factor(v, x, quantum: bool) -> np.ndarray:
    """Gamma(v+1) (2/x)**v times ive(v, x) (Laplace) or J_v(x) (Fourier):
    the 0F1 series up to x**2/4 = v+1, the Bessel form beyond, its Bessel
    factor from the large-argument expansions above _LARGE_X."""
    from scipy import special

    out = np.empty_like(x)
    x0 = 2 * math.sqrt(v + 1)
    near = x <= x0
    z = x[near] ** 2 / 4
    out[near] = (_hyp0f1_small(v + 1, -z) if quantum
                 else np.exp(-x[near]) * _hyp0f1_small(v + 1, z))
    far = x[~near]
    if far.size:
        # the Bessel factor at the switch-over is about exp(-log prefactor - x0)
        # and grows past it; it must not start below the normal double range
        if special.gammaln(v + 1) + v * math.log(2 / x0) + x0 > _LOG_HUGE:
            raise NumericalError(
                f"nu={v - 0.5} is beyond the range of the Bessel closed form "
                f"(nu up to about 340)")
        large = far > _LARGE_X
        bessel = np.empty_like(far)
        bessel[~large] = (special.jv if quantum else special.ive)(v, far[~large])
        bessel[large] = _large_x_bessel(v, far[large], quantum)
        out[~near] = np.exp(special.gammaln(v + 1) + v * np.log(2 / far)) * bessel
    return out


def _lifshits_transform(dos: Lifshits, s: np.ndarray) -> np.ndarray:
    """2 s**((b-1)/2) K_{b-1}(2 sqrt s) / Gamma(b-1): the Laplace transform
    at s = t, the Fourier transform at s = i t.

    Its distance from 1 is below |s|**m (1 + |ln|s||), m = min(b-1, 1)
    (the leading small-argument terms of K_{b-1}, checked against mpmath
    for b-1 in [0.1, 10]). Where that falls below a quarter ulp of 1 the
    value is 1 to double precision and is taken from the s = 0 branch,
    before kve overflows and the power underflows.

    Far out, the value's log-magnitude is that of K's leading large-argument
    term, sqrt(pi / (2w)) exp(-w) at w = 2 sqrt(s), within 1/2 where
    |w| > (b-1)**2 (DLMF 10.40.1). Where it lies below _LOG_TINY the value
    is 0 to double precision and is taken as such, before kve turns NaN.
    Where kve overflows, the value is exp(ln 2 + (nu/2) ln s + ln K_nu -
    ln Gamma(nu)), ln K_nu from `_log_bessel_k`.
    """
    from scipy import special

    nu = dos.b - 1
    out = np.ones_like(s)
    size = np.abs(s)
    pos = size > 0
    pos[pos] = (size[pos] ** min(nu, 1.0) * (1 + np.abs(np.log(size[pos])))
                >= 0.25 * np.finfo(float).eps)
    w = 2 * np.sqrt(s[pos])
    log_size = (0.5 * nu * np.log(size[pos]) - w.real - dos.log_norm
                + 0.5 * np.log(2 * np.pi / np.abs(w)))
    gone = (np.abs(w) > nu * nu) & (log_size < _LOG_TINY)
    out[pos] = 0.0
    pos[pos] = ~gone
    w = w[~gone]
    bessel = special.kve(nu, w)
    # an overflowing kve is inf at real w and NaN at complex w
    over = ~np.isfinite(bessel)
    bessel[over] = 0.0
    value = 2 * np.exp(0.5 * nu * np.log(s[pos]) - w - dos.log_norm) * bessel
    if over.any():
        value[over] = np.exp(math.log(2) + 0.5 * nu * np.log(s[pos][over])
                             + _log_bessel_k(nu, w[over]) - dos.log_norm)
    out[pos] = value
    return out


def _log_bessel_k(nu, z):
    """ln K_nu(z) where kve overflows, by the upward recurrence of the ratio
    r_mu = K_(mu+1)(z) / K_mu(z), r_mu = 1 / r_(mu-1) + 2 mu / z (DLMF
    10.29.1), started from kve at the fractional orders nu0 = nu - floor(nu)
    and nu0 + 1: ln K_nu = ln kve(nu0, z) - z + sum of ln r_mu over mu =
    nu0, ..., nu - 1. K is the dominant solution upward in the order, so the
    recurrence is stable; its floor(nu) steps are one vector operation each.
    The sum runs compensated (Kahan): it reaches thousands at b = 1000,
    where plain summation was 1.7e-11 off 40-digit mpmath, relative.
    """
    from scipy import special

    nu0 = nu - math.floor(nu)
    start = special.kve(nu0, z)
    log_k = np.log(start) - z
    carry = np.zeros_like(log_k)
    ratio = special.kve(nu0 + 1, z) / start
    for mu in nu0 + 1 + np.arange(math.floor(nu)):
        term = np.log(ratio) - carry
        total = log_k + term
        carry = (total - log_k) - term
        log_k = total
        ratio = 1 / ratio + 2 * mu / z
    return log_k


def _transform(dos, times: np.ndarray, quantum: bool) -> np.ndarray:
    """Laplace (classical) or Fourier (quantum) transform of the density."""
    if isinstance(dos, PowerSemicircle):
        x = 0.5 * dos.lam_max * times
        factor = _semicircle_factor(dos.nu + 0.5, x, quantum)
        values = factor * np.exp(-1j * x) if quantum else factor
    elif isinstance(dos, Lifshits):
        values = _lifshits_transform(dos, 1j * times if quantum else times)
    else:
        raise TypeError(f"unknown DOS family: {type(dos).__name__}")
    bad = ~np.isfinite(values)
    if bad.any():
        raise NumericalError(f"closed form for {dos} is not finite at "
                             f"t={float(times[bad][0])!r}")
    return values


# -- public operations --------------------------------------------------------

def continuum_series(dos, grid: TimeGrid) -> TransportSeries:
    """p_bar, the Laplace transform of the density, with p_bar(0) = 1, and
    |alpha_bar|^2, the squared modulus of its Fourier transform checked
    to lie in [0, 1], on the grid."""
    p_bar = _transform(dos, grid.times, quantum=False)
    alpha = _transform(dos, grid.times, quantum=True)
    return TransportSeries(grid, p_bar, clamp_unit_interval(np.abs(alpha) ** 2))


def lattice_return_1d_product(d: int, grid: TimeGrid) -> np.ndarray:
    """Quantum return of the infinite d-dimensional torus: J0(2t)**(2d)."""
    from scipy import special

    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return special.j0(2.0 * grid.times) ** (2 * d)


# -- closed-form large-t laws -------------------------------------------------

@dataclass(frozen=True)
class PowerLawDecay:
    """value ~ t**exponent, valid for t >> 1."""

    exponent: float
    note: str = "t >> 1"


@dataclass(frozen=True)
class StretchedExpDecay:
    """value ~ t**prefactor_exponent * exp(-decay_coeff * t**stretch), t >> 1."""

    prefactor_exponent: float
    decay_coeff: float
    stretch: float = 0.5
    note: str = "t >> 1"


def asymptotic_law(dos, which: str):
    """Large-t decay law for 'classical' p_bar or the 'quantum' envelope.

    Bounded power densities give power laws whose quantum exponent doubles
    the classical one; the Lifshits family gives stretched exponentials
    exp(-2 sqrt(t)) classically and exp(-2 sqrt(2 t)) quantum mechanically,
    each times a power prefactor.
    """
    if which not in ("classical", "quantum"):
        raise ValueError(f"which must be 'classical' or 'quantum', got {which!r}")
    if isinstance(dos, PowerSemicircle):
        base = 1.0 + dos.nu
        return PowerLawDecay(-base if which == "classical" else -2.0 * base)
    if isinstance(dos, Lifshits):
        if which == "classical":
            return StretchedExpDecay((2 * dos.b - 3) / 4.0, 2.0)
        return StretchedExpDecay((2 * dos.b - 3) / 2.0, 2.0 * _SQRT2)
    raise TypeError(f"unknown DOS family: {type(dos).__name__}")


# -- spec-string parsing ------------------------------------------------------

# `_read_spec` rows; every key is required
_DOS_SPECS = {
    "semicircle": ("semicircle:nu=V,lmax=V", (), {"nu": float, "lmax": float}),
    "lifshits": ("lifshits:b=V", (), {"b": float}),
}


def parse_dos_spec(spec: str) -> ContinuousDOS:
    """Parse 'semicircle:nu=0.5,lmax=2' or 'lifshits:b=2'."""
    family, _, kv = _read_spec(spec, _DOS_SPECS, "DOS spec")
    try:
        return (PowerSemicircle(nu=kv["nu"], lam_max=kv["lmax"])
                if family == "semicircle" else Lifshits(b=kv["b"]))
    except KeyError:  # a key left out, as the reader refuses unknown ones
        raise ParseError(f"DOS spec needs {_DOS_SPECS[family][0]}", text=spec,
                         position=len(spec)) from None
    except ValueError as exc:
        raise ParseError(str(exc), text=spec, position=spec.find(":") + 1) from exc
