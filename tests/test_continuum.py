import math
import warnings
from dataclasses import dataclass

import mpmath

import numpy as np
import pytest
from scipy import integrate, optimize, special

from specwalk import (
    Lifshits,
    NumericalError,
    ParseError,
    PowerLawDecay,
    PowerSemicircle,
    StretchedExpDecay,
    asymptotic_law,
    continuum_series,
    fit_power_law,
    lattice_return_1d_product,
    parse_dos_spec,
)
from specwalk.continuum import _LARGE_X, _transform
from specwalk.transport import TimeGrid, linear_grid, log_grid


def classical_return_continuum(dos, grid):
    """p_bar of `continuum_series`: the Laplace transform of the density."""
    return continuum_series(dos, grid).p_bar


def quantum_return_bound_continuum(dos, grid):
    """|alpha_bar|^2 of `continuum_series`: the squared modulus of the
    density's Fourier transform."""
    return continuum_series(dos, grid).alpha_bar_sq


# closed-form oracles, derived independently of the quadrature code paths

def semicircle_classical_oracle(nu, lam_max, t):
    # Kummer M(nu+1, 2nu+2, -lam_max t) via the beta-weighted Laplace transform
    return special.hyp1f1(nu + 1, 2 * nu + 2, -lam_max * t)

def band_edge_quantum_oracle(lam_max, t):
    # nu = -1/2 (arcsine law): |alpha|^2 = J0(lam_max t / 2)^2
    return special.j0(lam_max * t / 2) ** 2

def wigner_quantum_oracle(lam_max, t):
    # nu = +1/2 (semicircle): |alpha|^2 = (2 J1(z)/z)^2, z = lam_max t / 2
    z = lam_max * t / 2
    return (2 * special.j1(z) / z) ** 2

def lifshits_classical_oracle(b, t):
    # u = 1/lam maps to int u^{b-2} e^{-u - t/u} du = 2 t^{(b-1)/2} K_{b-1}(2 sqrt t)
    return 2 * t ** ((b - 1) / 2) * special.kv(b - 1, 2 * np.sqrt(t)) / special.gamma(b - 1)

def lifshits_quantum_oracle(b, t):
    amp = 2 * (1j * t) ** ((b - 1) / 2) * special.kv(b - 1, 2 * np.sqrt(1j * t)) \
        / special.gamma(b - 1)
    return np.abs(amp) ** 2


# quadrature oracle: the transforms integrated numerically by QUADPACK, one
# time point at a time, independently of the library's closed forms

def _quad(f, a, b, **kw):
    # QUADPACK flags roundoff at tolerances below double precision; only a
    # flagged result with a material error estimate is unusable
    res = integrate.quad(f, a, b, full_output=1, **kw)
    assert len(res) == 3 or res[1] <= 1e-8, f"oracle failed: {res[3].splitlines()[0]}"
    return res[0]


def _scalar_density(dos):
    if isinstance(dos, PowerSemicircle):
        def f(lam):
            if lam <= 0.0 or lam >= dos.lam_max:
                return 0.0
            return math.exp(dos.nu * (math.log(lam) + math.log(dos.lam_max - lam))
                            - dos.log_norm)
        return f
    return lambda lam: float(dos.density(lam))


def quad_classical(dos, t):
    # at large t all mass sits near lam=0: split there so QUADPACK sees it
    if t == 0:
        return 1.0
    density = _scalar_density(dos)
    f = lambda lam: density(lam) * math.exp(-lam * t)
    kw = dict(limit=400, epsabs=1e-300, epsrel=1e-10)
    split = 20.0 / t
    if split >= dos.lam_max / 2:
        return _quad(f, 0.0, dos.lam_max, **kw)
    return _quad(f, 0.0, split, **kw) + _quad(f, split, dos.lam_max, **kw)


def quad_amplitude(dos, t):
    # QUADPACK's oscillatory (QAWO) weights
    if t == 0:
        return 1.0 + 0.0j
    density = _scalar_density(dos)
    kw = dict(wvar=t, limit=2000, epsabs=1e-13, epsrel=1e-10)
    re = _quad(density, 0.0, dos.lam_max, weight="cos", **kw)
    im = _quad(density, 0.0, dos.lam_max, weight="sin", **kw)
    return complex(re, -im)


def quad_lifshits_classical(b, t):
    # u = 1/lam: int u^{b-2} e^{-u - t/u} du / Gamma(b-1), peaked at u = sqrt(t)
    if t == 0:
        return 1.0
    log_norm = special.gammaln(b - 1)
    f = lambda u: math.exp((b - 2) * math.log(u) - u - t / u - log_norm) if u > 0 else 0.0
    kw = dict(limit=400, epsabs=1e-300, epsrel=1e-11)
    split = math.sqrt(t)
    return _quad(f, 0.0, split, **kw) + _quad(f, split, np.inf, **kw)


def quad_lifshits_amplitude(b, t):
    # on the ray lam = r e^{-i pi/4} through the saddle of the phase the
    # integrand peak matches the result, so no cancellation at any t
    if t == 0:
        return 1.0 + 0.0j
    w = complex(math.cos(math.pi / 4), -math.sin(math.pi / 4))
    log_norm = special.gammaln(b - 1)

    def g(r):
        if r <= 0.0 or -b * math.log(r) - (r * t + 1 / r) / math.sqrt(2) - log_norm < -740:
            return 0.0j
        lam = r * w
        return lam**-b * np.exp(-1 / lam - 1j * lam * t - log_norm) * w

    kw = dict(limit=800, epsabs=1e-300, epsrel=1e-9)
    total = 0.0j
    for lo, hi in ((0.0, 1 / math.sqrt(t)), (1 / math.sqrt(t), np.inf)):
        total += complex(_quad(lambda r: g(r).real, lo, hi, **kw),
                         _quad(lambda r: g(r).imag, lo, hi, **kw))
    return total


def mp_semicircle(nu, lam_max, t):
    # (p, alpha) from 0F1 at 40 digits: exp(-x) 0F1(;v+1;x^2/4), exp(-ix) 0F1(;v+1;-x^2/4)
    with mpmath.workdps(40):
        v = mpmath.mpf(nu) + mpmath.mpf(1) / 2
        x = mpmath.mpf(lam_max) * mpmath.mpf(t) / 2
        p = mpmath.exp(-x) * mpmath.hyp0f1(v + 1, x**2 / 4)
        alpha = mpmath.exp(-1j * x) * mpmath.hyp0f1(v + 1, -x**2 / 4)
        return float(p), complex(alpha)


class TestDensities:
    @pytest.mark.parametrize("dos", [
        PowerSemicircle(nu=-0.5, lam_max=4.0),
        PowerSemicircle(nu=0.5, lam_max=2.0),
        PowerSemicircle(nu=1.0, lam_max=1.0),
        PowerSemicircle(nu=2.5, lam_max=3.0),
    ])
    def test_semicircle_normalized(self, dos):
        val, _ = integrate.quad(dos.density, 0, dos.lam_max, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("b", [1.5, 2.0, 3.0, 4.0])
    def test_lifshits_normalized(self, b):
        dos = Lifshits(b=b)
        val, _ = integrate.quad(dos.density, 0, np.inf, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_density_non_negative(self):
        lam = np.linspace(-1, 5, 400)
        assert np.all(PowerSemicircle(nu=0.5, lam_max=2.0).density(lam) >= 0)
        assert np.all(Lifshits(b=2.0).density(lam) >= 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerSemicircle(nu=-1.0, lam_max=2.0)
        with pytest.raises(ValueError):
            PowerSemicircle(nu=0.5, lam_max=0.0)
        with pytest.raises(ValueError):
            Lifshits(b=1.0)


class TestClassicalContinuum:
    def test_unit_at_zero(self):
        grid = TimeGrid(np.array([0.0, 1.0]))
        for dos in (PowerSemicircle(nu=0.5, lam_max=2.0), Lifshits(b=2.0)):
            assert classical_return_continuum(dos, grid)[0] == 1.0

    @pytest.mark.parametrize("nu,lam_max", [(0.5, 2.0), (-0.5, 4.0), (1.5, 1.0)])
    def test_semicircle_matches_kummer(self, nu, lam_max):
        dos = PowerSemicircle(nu=nu, lam_max=lam_max)
        grid = log_grid(1e-2, 1e3, 40, include_zero=False)
        got = classical_return_continuum(dos, grid)
        want = semicircle_classical_oracle(nu, lam_max, grid.times)
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_band_edge_matches_bessel_i(self):
        # nu=-1/2, lam_max=4 is exp(-2t) I0(2t)
        dos = PowerSemicircle(nu=-0.5, lam_max=4.0)
        grid = log_grid(1e-1, 1e3, 30, include_zero=False)
        want = special.ive(0, 2 * grid.times)  # I0(2t) e^{-2t}
        np.testing.assert_allclose(classical_return_continuum(dos, grid),
                                   want, rtol=1e-8)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_lifshits_matches_bessel_k(self, b):
        dos = Lifshits(b=b)
        grid = TimeGrid(np.array([0.1, 1.0, 10.0, 1e3, 1e4, 3e4]))
        got = classical_return_continuum(dos, grid)
        want = lifshits_classical_oracle(b, grid.times)
        np.testing.assert_allclose(got, want, rtol=1e-9)


class TestQuantumContinuum:
    def test_unit_at_zero(self):
        grid = TimeGrid(np.array([0.0, 2.0]))
        for dos in (PowerSemicircle(nu=0.5, lam_max=2.0), Lifshits(b=3.0)):
            assert quantum_return_bound_continuum(dos, grid)[0] == 1.0

    def test_wigner_matches_bessel_j(self):
        dos = PowerSemicircle(nu=0.5, lam_max=2.0)
        grid = log_grid(1e-1, 500, 40, include_zero=False)
        got = quantum_return_bound_continuum(dos, grid)
        want = wigner_quantum_oracle(2.0, grid.times)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_band_edge_matches_j0(self):
        dos = PowerSemicircle(nu=-0.5, lam_max=4.0)
        grid = log_grid(1e-1, 500, 40, include_zero=False)
        got = quantum_return_bound_continuum(dos, grid)
        want = band_edge_quantum_oracle(4.0, grid.times)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_lifshits_matches_bessel_k(self, b):
        # the complex-ray evaluation must stay accurate far beyond the
        # reach of real-axis oscillatory quadrature
        dos = Lifshits(b=b)
        grid = TimeGrid(np.array([0.1, 1.0, 10.0, 1e3, 1e4, 3e4]))
        got = quantum_return_bound_continuum(dos, grid)
        want = lifshits_quantum_oracle(b, grid.times)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("b", [1.1, 2.0, 4.0])
    @pytest.mark.parametrize("transform", [classical_return_continuum,
                                           quantum_return_bound_continuum])
    def test_lifshits_tiny_times(self, b, transform):
        # kve(b-1, 2 sqrt t) overflows near t = 1e-300 at b = 4; the value
        # is 1 to double precision long before that
        grid = TimeGrid(np.concatenate(([1e-300, 1e-200], np.geomspace(1e-190, 1e-6, 400))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transform(Lifshits(b=b), grid)
        t = grid.times
        # 1 - p(s) is below |s|^m (1 + |ln|s||), m = min(b-1, 1); squaring
        # doubles it on the quantum side
        bound = 2 * t ** min(b - 1, 1.0) * (1 + np.abs(np.log(t))) + 1e-13
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got[:2], 1.0)
        assert np.all(np.abs(got - 1) <= bound)
        quantum = transform is quantum_return_bound_continuum
        for tk, value in zip(t[2::40], got[2::40]):
            with mpmath.workdps(30):
                s = mpmath.mpc(0, tk) if quantum else mpmath.mpf(tk)
                amp = 2 * s ** ((b - 1) / 2) * mpmath.besselk(b - 1, 2 * mpmath.sqrt(s)) \
                    / mpmath.gamma(b - 1)
                want = float(abs(amp) ** 2) if quantum else float(amp.real)
            assert value == pytest.approx(want, abs=1e-13)

    def test_lifshits_does_not_oscillate(self):
        dos = Lifshits(b=2.0)
        grid = log_grid(1.0, 1e4, 120, include_zero=False)
        a = quantum_return_bound_continuum(dos, grid)
        assert np.all(np.diff(a) < 0)

    def test_lifshits_classical_stretched_shape(self):
        # p(t) / (t^{(2b-3)/4} e^{-2 sqrt t}) is flat in t for large t
        dos = Lifshits(b=2.0)
        grid = TimeGrid(np.array([200.0, 2000.0, 20000.0]))
        p = classical_return_continuum(dos, grid)
        shape = grid.times**0.25 * np.exp(-2 * np.sqrt(grid.times))
        ratios = p / shape
        assert ratios.max() / ratios.min() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_lifshits_fitted_decay_parameters(self, b):
        from specwalk import fit_stretched_exp
        from specwalk.transport import log_grid

        dos = Lifshits(b=b)
        grid = log_grid(50.0, 2e4, 150, include_zero=False)
        p = classical_return_continuum(dos, grid)
        a = quantum_return_bound_continuum(dos, grid)
        window = (50.0, 2e4)
        fc = fit_stretched_exp(grid.times, p, window)
        assert fc.prefactor_exponent == pytest.approx((2 * b - 3) / 4, abs=0.05)
        assert fc.decay_coeff == pytest.approx(2.0, abs=0.01)
        fq = fit_stretched_exp(grid.times, a, window)
        assert fq.prefactor_exponent == pytest.approx((2 * b - 3) / 2, abs=0.05)
        assert fq.decay_coeff == pytest.approx(2 * math.sqrt(2), abs=0.01)

    def test_lifshits_crossover_time_grows_with_b(self):
        from specwalk import detect_crossover, efficiency_ratio_series
        from specwalk.transport import log_grid

        crossings = []
        for b in (2.0, 4.0):
            dos = Lifshits(b=b)
            grid = log_grid(1e-3, 1e3, 250, include_zero=False)
            p = classical_return_continuum(dos, grid)
            a = quantum_return_bound_continuum(dos, grid)
            ratio = efficiency_ratio_series(grid.times, p, (grid.times, a))
            crossings.append(detect_crossover(ratio.times, ratio.values))
        assert crossings[0] is not None and crossings[1] is not None
        assert crossings[0] != crossings[1]
        assert crossings[0] < crossings[1]


class TestClosedFormsAgainstOracles:
    # 60 log-spaced times over the span of fig1a/fig1b, plus t=0
    TIMES = np.concatenate(([0.0], np.geomspace(0.05, 220.0, 60)))

    @pytest.mark.parametrize("nu", [-0.9, -0.5, 0.5, 1.3, 2.5, 200.0])
    def test_semicircle_matches_quadrature(self, nu):
        dos = PowerSemicircle(nu=nu, lam_max=2.0)
        grid = TimeGrid(self.TIMES)
        p = [quad_classical(dos, t) for t in self.TIMES]
        amp = [quad_amplitude(dos, t) for t in self.TIMES]
        np.testing.assert_allclose(classical_return_continuum(dos, grid), p, rtol=1e-9)
        # QAWO keeps about 1e-8 absolute next to the lam^-0.9 endpoint
        # singularity; the mpmath test below pins those values tighter
        np.testing.assert_allclose(_transform(dos, grid.times, quantum=True), amp,
                                   rtol=0, atol=1e-8)

    @pytest.mark.parametrize("b", [1.5, 2.0, 3.0])
    def test_lifshits_matches_quadrature(self, b):
        # down to |alpha|^2 of about 1e-210 at t = 3e4
        times = np.concatenate(([0.0], np.geomspace(1e-3, 3e4, 40)))
        dos = Lifshits(b=b)
        grid = TimeGrid(times)
        p = [quad_lifshits_classical(b, t) for t in times]
        amp = [quad_lifshits_amplitude(b, t) for t in times]
        np.testing.assert_allclose(classical_return_continuum(dos, grid), p, rtol=1e-9)
        np.testing.assert_allclose(_transform(dos, grid.times, quantum=True), amp,
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("nu", [-0.99, -0.9, 200.0, 300.0])
    def test_extreme_nu_matches_mpmath(self, nu):
        # points on both sides of the series/Bessel switch at x^2/4 = nu + 3/2
        x0 = 2 * math.sqrt(nu + 1.5)
        times = np.unique([0.3 * x0, 0.999 * x0, 1.001 * x0, 2 * x0, 50.0, 1000.0])
        grid = TimeGrid(times)
        p = classical_return_continuum(PowerSemicircle(nu=nu, lam_max=2.0), grid)
        amp = _transform(PowerSemicircle(nu=nu, lam_max=2.0), times, quantum=True)
        for k, t in enumerate(times):
            want_p, want_amp = mp_semicircle(nu, 2.0, t)
            assert p[k] == pytest.approx(want_p, rel=1e-11, abs=1e-300)
            assert abs(amp[k] - want_amp) <= 1e-11 * abs(want_amp) + 1e-300

    @pytest.mark.parametrize("dos", [
        PowerSemicircle(nu=-0.9, lam_max=2.0),
        PowerSemicircle(nu=0.5, lam_max=2.0),
        PowerSemicircle(nu=200.0, lam_max=2.0),
        Lifshits(b=1.5),
        Lifshits(b=3.0),
    ])
    def test_exactly_one_at_zero(self, dos):
        grid = TimeGrid(np.array([0.0, 1.0]))
        assert classical_return_continuum(dos, grid)[0] == 1.0
        assert _transform(dos, grid.times, quantum=True)[0] == 1.0 + 0.0j

    @pytest.mark.parametrize("dos,times", [
        # x = lam_max t / 2 from 700 to 1e6
        (PowerSemicircle(nu=-0.9, lam_max=2.0), np.geomspace(700.0, 1e6, 30)),
        (PowerSemicircle(nu=0.5, lam_max=2.0), np.geomspace(700.0, 1e6, 30)),
        (PowerSemicircle(nu=200.0, lam_max=2.0), np.geomspace(700.0, 1e6, 30)),
        # the Lifshits series underflow to zero here
        (Lifshits(b=1.5), np.geomspace(2e5, 1e8, 30)),
        (Lifshits(b=3.0), np.geomspace(2e5, 1e8, 30)),
    ])
    def test_far_past_switch_over_finite_and_quiet(self, dos, times):
        grid = TimeGrid(times)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = classical_return_continuum(dos, grid)
            a = quantum_return_bound_continuum(dos, grid)
        assert np.all(np.isfinite(p)) and np.all(np.isfinite(a))
        assert np.all((p >= 0) & (p <= 1)) and np.all((a >= 0) & (a <= 1))
        assert np.all(np.diff(p) <= 0)

    def test_nu_beyond_bessel_range_raises(self):
        # the scaled Bessel factor would leave the double range at the switch
        dos = PowerSemicircle(nu=400.0, lam_max=2.0)
        grid = TimeGrid(np.array([0.0, 1.0, 100.0]))
        with pytest.raises(NumericalError, match="nu=400"):
            classical_return_continuum(dos, grid)
        with pytest.raises(NumericalError, match="nu=400"):
            _transform(dos, grid.times, quantum=True)


def mp_bessel_semicircle(nu, x):
    """(p, alpha) at x = lam_max t / 2 from the Bessel forms at 40 digits,
    and the modulus of the large-argument leading term of each."""
    with mpmath.workdps(40):
        v, x = mpmath.mpf(nu) + mpmath.mpf(1) / 2, mpmath.mpf(x)
        pre = mpmath.gamma(v + 1) * (2 / x) ** v
        p = pre * mpmath.besseli(v, x) * mpmath.exp(-x)
        alpha = pre * mpmath.besselj(v, x) * mpmath.exp(-1j * x)
        return (float(p), complex(alpha),
                float(pre / mpmath.sqrt(2 * mpmath.pi * x)),
                float(pre * mpmath.sqrt(2 / (mpmath.pi * x))))


def mp_lifshits(b, s):
    """2 s^((b-1)/2) K_(b-1)(2 sqrt s) / Gamma(b-1) at 40 digits."""
    with mpmath.workdps(40):
        nu, s = mpmath.mpf(b) - 1, mpmath.mpmathify(s)
        return complex(2 * s ** (nu / 2) * mpmath.besselk(nu, 2 * mpmath.sqrt(s))
                       / mpmath.gamma(nu))


class TestLargeTimes:
    """Past x = lam_max t / 2 of about 1.07e9 scipy's ive and jv, and past
    |2 sqrt(i t)| of about 1.2e9 its kve, return NaN; the transforms stay
    finite there."""

    @pytest.mark.parametrize("nu", [-0.5, 0.5, 2.0])
    @pytest.mark.parametrize("x", [np.nextafter(_LARGE_X, 0.0), _LARGE_X,
                                   np.nextafter(_LARGE_X, np.inf), 1e10, 1e12, 1e15])
    def test_semicircle_matches_mpmath(self, nu, x):
        # lam_max = 2, so x = t; below _LARGE_X scipy's Bessel functions,
        # above it their large-argument expansions
        dos = PowerSemicircle(nu=nu, lam_max=2.0)
        times = np.array([x])
        want_p, want_alpha, size_p, size_alpha = mp_bessel_semicircle(nu, x)
        assert abs(_transform(dos, times, quantum=False)[0] - want_p) <= 1e-13 * size_p
        assert abs(_transform(dos, times, quantum=True)[0] - want_alpha) <= 1e-13 * size_alpha

    def test_semicircle_series_to_1e12(self):
        grid = log_grid(1.0, 1e12, 50)
        series = continuum_series(PowerSemicircle(nu=0.5, lam_max=2.0), grid)
        assert np.all(np.isfinite(series.p_bar)) and np.all(np.isfinite(series.alpha_bar_sq))
        # p ~ (2/x) / sqrt(2 pi x) at x = t = 1e12
        assert series.p_bar[-1] == pytest.approx(2e-12 / math.sqrt(2 * math.pi * 1e12),
                                                  rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.5, 0.5, 2.0])
    def test_semicircle_series_to_the_largest_double(self, nu):
        # x = t up to 1e308: no product that holds x overflows, and for
        # nu >= 0.5 both series underflow to 0
        grid = log_grid(1e300, 1e308, 10, include_zero=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = continuum_series(PowerSemicircle(nu=nu, lam_max=2.0), grid)
        assert np.all(np.isfinite(series.p_bar)) and np.all(np.isfinite(series.alpha_bar_sq))
        if nu == -0.5:
            # p = ive(0, t) = 1 / sqrt(2 pi t) to double precision
            np.testing.assert_allclose(
                series.p_bar, 1 / math.sqrt(2 * math.pi) / np.sqrt(grid.times), rtol=1e-15)
        else:
            assert np.array_equal(series.p_bar, np.zeros(10))
            assert np.array_equal(series.alpha_bar_sq, np.zeros(10))

    @pytest.mark.parametrize("b", [1.5, 2.0, 11.0])
    @pytest.mark.parametrize("t", [1e3, 1e5, 2e5, 3e5, 1e6, 3.7649358067924864e17, 1e18])
    def test_lifshits_matches_mpmath_down_to_zero(self, b, t):
        # below the double range the value is 0; above it, the closed form
        for s, quantum in [(t, False), (1j * t, True)]:
            got = _transform(Lifshits(b=b), np.array([t]), quantum=quantum)[0]
            want = mp_lifshits(b, s)
            assert abs(got - want) <= 1e-10 * abs(want) + 1e-300, (s, got, want)
        if t > 1e17:
            assert _transform(Lifshits(b=b), np.array([t]), quantum=True)[0] == 0

    @pytest.mark.parametrize("b", [150.0, 151.7, 200.0, 1000.0])
    def test_large_b_matches_mpmath_where_kve_overflows(self, b):
        # kve(b - 1, 2 sqrt s) overflows where the power prefactor underflows;
        # there the closed form takes ln K by the ratio recurrence, quietly
        times = np.geomspace(1e-2, 1e4, 13)
        for s, quantum in [(times, False), (1j * times, True)]:
            assert not np.isfinite(special.kve(b - 1, 2 * np.sqrt(s[:1])))[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _transform(Lifshits(b=b), times, quantum=quantum)
            for sk, value in zip(s, got):
                want = mp_lifshits(b, sk)
                assert abs(value - want) <= 1e-11 * abs(want), (sk, value, want)

    def test_lifshits_series_to_1e18(self):
        grid = log_grid(1e-3, 1e18, 100)
        series = continuum_series(Lifshits(b=2.0), grid)
        assert np.all(np.isfinite(series.p_bar)) and np.all(np.isfinite(series.alpha_bar_sq))
        assert series.p_bar[-1] == 0 and series.alpha_bar_sq[-1] == 0


class TestPurePowerIdentity:
    def test_amplitude_equals_classical_for_soft_spectrum(self):
        # for a density ~ lam^nu with nu < 0 the band edge contributes only
        # O(1/t), so |alpha(t)| approaches p(t) itself at large t
        @dataclass(frozen=True)
        class PurePower:
            nu: float
            lam_max: float

            def density(self, lam):
                norm = self.lam_max ** (self.nu + 1) / (self.nu + 1)
                if np.isscalar(lam):
                    if lam <= 0 or lam >= self.lam_max:
                        return 0.0
                    return lam**self.nu / norm
                lam = np.asarray(lam, dtype=float)
                out = np.zeros_like(lam)
                ok = (lam > 0) & (lam < self.lam_max)
                out[ok] = lam[ok] ** self.nu / norm
                return out

        # the band edge enters at relative size ~ t^nu, so the sampling
        # times and tolerances scale with nu
        cases = [(-0.5, [2000.0, 5000.0], 0.03), (-0.3, [2e4, 5e4], 0.08)]
        for nu, times, tol in cases:
            dos = PurePower(nu=nu, lam_max=1.0)
            p = np.array([quad_classical(dos, t) for t in times])
            amp = np.abs([quad_amplitude(dos, t) for t in times])
            np.testing.assert_allclose(amp / p, 1.0, atol=tol)


class TestLatticeReturn:
    def test_unit_at_zero(self):
        grid = TimeGrid(np.array([0.0, 1.0]))
        for d in (1, 2, 5):
            assert lattice_return_1d_product(d, grid)[0] == 1.0

    def test_matches_bessel_power(self):
        grid = linear_grid(0.0, 30.0, 500)
        for d in (1, 2, 3):
            want = special.j0(2 * grid.times) ** (2 * d)
            np.testing.assert_allclose(lattice_return_1d_product(d, grid),
                                       want, atol=1e-12)

    def test_first_zero_from_independent_root_finder(self):
        root = optimize.brentq(lambda t: special.j0(2 * t), 1.0, 1.5, xtol=1e-12)
        grid = TimeGrid(np.array([root]))
        assert lattice_return_1d_product(1, grid)[0] == pytest.approx(0.0, abs=1e-12)
        assert root == pytest.approx(1.2024, abs=5e-5)

    def test_envelope_decays_like_one_over_t(self):
        from specwalk import extract_envelope
        grid = linear_grid(5.0, 1100.0, 55000)
        series = lattice_return_1d_product(1, grid)
        env = extract_envelope(grid.times, series, half_width=3)
        fit = fit_power_law(env.times, env.values, (10.0, 1000.0))
        assert fit.exponent == pytest.approx(-1.0, abs=0.05)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            lattice_return_1d_product(0, linear_grid(0, 1, 10))


class TestAsymptoticLaw:
    def test_band_edge_classical(self):
        law = asymptotic_law(PowerSemicircle(nu=-0.5, lam_max=4.0), "classical")
        assert isinstance(law, PowerLawDecay)
        assert law.exponent == pytest.approx(-0.5)

    def test_wigner_quantum(self):
        law = asymptotic_law(PowerSemicircle(nu=0.5, lam_max=2.0), "quantum")
        assert law.exponent == pytest.approx(-3.0)

    def test_quantum_exponent_doubles_classical(self):
        for nu in (-0.5, 0.0, 0.5, 2.0):
            dos = PowerSemicircle(nu=nu, lam_max=1.0)
            cl = asymptotic_law(dos, "classical").exponent
            qm = asymptotic_law(dos, "quantum").exponent
            assert qm == pytest.approx(2 * cl)

    @pytest.mark.parametrize("b", [2.0, 3.0])
    def test_lifshits_laws(self, b):
        cl = asymptotic_law(Lifshits(b=b), "classical")
        qm = asymptotic_law(Lifshits(b=b), "quantum")
        assert isinstance(cl, StretchedExpDecay)
        assert cl.prefactor_exponent == pytest.approx((2 * b - 3) / 4)
        assert cl.decay_coeff == pytest.approx(2.0)
        assert cl.stretch == 0.5
        assert qm.prefactor_exponent == pytest.approx((2 * b - 3) / 2)
        assert qm.decay_coeff == pytest.approx(2 * math.sqrt(2))

    def test_bad_which(self):
        with pytest.raises(ValueError):
            asymptotic_law(Lifshits(b=2.0), "sideways")


class TestQuadratureMatchesAsymptotics:
    """Fitted slopes of the integrated series vs the closed-form exponents."""

    @pytest.mark.parametrize("nu,lam_max", [(0.5, 2.0), (-0.5, 4.0)])
    def test_classical_slope(self, nu, lam_max):
        dos = PowerSemicircle(nu=nu, lam_max=lam_max)
        grid = log_grid(1.0, 1000.0, 120, include_zero=False)
        p = classical_return_continuum(dos, grid)
        fit = fit_power_law(grid.times, p, (10.0, 100.0))
        want = asymptotic_law(dos, "classical").exponent
        assert abs(fit.exponent - want) <= 0.05 * abs(want)

    def test_quantum_envelope_slope(self):
        from specwalk import extract_envelope
        dos = PowerSemicircle(nu=0.5, lam_max=2.0)
        grid = linear_grid(8.0, 110.0, 1021)
        a = quantum_return_bound_continuum(dos, grid)
        env = extract_envelope(grid.times, a, half_width=3)
        fit = fit_power_law(env.times, env.values, (10.0, 100.0))
        want = asymptotic_law(dos, "quantum").exponent
        assert abs(fit.exponent - want) <= 0.05 * abs(want)

    def test_sharply_peaked_density_decays_like_single_mode(self):
        # large nu concentrates the density at lam_max/2
        dos = PowerSemicircle(nu=200.0, lam_max=2.0)
        grid = TimeGrid(np.array([2.0]))
        p = classical_return_continuum(dos, grid)
        assert p[0] / math.exp(-1.0 * 2.0) == pytest.approx(1.0, abs=0.01)


class TestUnsupportedDOS:
    def test_unknown_family_raises_type_error(self):
        @dataclass(frozen=True)
        class Gaussian:
            lam_max: float = 1.0

            def density(self, lam):
                return np.exp(-lam**2)

        grid = TimeGrid(np.array([0.0, 1.0]))
        for fn in (classical_return_continuum, quantum_return_bound_continuum):
            with pytest.raises(TypeError, match="Gaussian"):
                fn(Gaussian(), grid)
        with pytest.raises(TypeError, match="Gaussian"):
            _transform(Gaussian(), grid.times, quantum=True)


class TestParseDOSSpec:
    def test_semicircle(self):
        dos = parse_dos_spec("semicircle:nu=0.5,lmax=2")
        assert dos == PowerSemicircle(nu=0.5, lam_max=2.0)

    def test_negative_nu(self):
        dos = parse_dos_spec("semicircle:nu=-0.5,lmax=4")
        assert dos == PowerSemicircle(nu=-0.5, lam_max=4.0)

    def test_lifshits(self):
        assert parse_dos_spec("lifshits:b=2") == Lifshits(b=2.0)

    @pytest.mark.parametrize("bad", [
        "semicircle", "semicircle:nu=0.5", "semicircle:nu=0.5,lmax=2,x=1",
        "lifshits:b=0.5", "lifshits:c=2", "gauss:s=1", "semicircle:nu=zzz,lmax=2",
    ])
    def test_bad_specs(self, bad):
        with pytest.raises(ParseError):
            parse_dos_spec(bad)

    @pytest.mark.parametrize("spec, position", [
        ("semicircle:nu=0.5,nu=1,lmax=2", 18),
        ("semicircle:nu=0.5,lmax=2,lmax=3", 25),
        ("lifshits:b=2,b=3", 13),
    ])
    def test_repeated_key_raises_at_its_second_use(self, spec, position):
        with pytest.raises(ParseError, match="repeated key") as err:
            parse_dos_spec(spec)
        assert err.value.position == position

    @pytest.mark.parametrize("spec, position", [
        ("lifshits", 0),                      # no colon
        ("gauss:s=1", 0),                     # unknown family
        ("semicircle:nu=0.5", 17),            # a key missing: at the end
        ("semicircle:nu=0.5,0.5", 18),        # a positional value
        ("semicircle:nu=zzz,lmax=2", 11),     # a bad value
        ("lifshits:c=2", 9),                  # an unknown key
        ("lifshits:b=0.5", 9),                # a value out of range
    ])
    def test_parse_error_points_at_its_part(self, spec, position):
        with pytest.raises(ParseError) as err:
            parse_dos_spec(spec)
        assert err.value.position == position
