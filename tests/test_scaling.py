import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwalk import (
    PowerLawFit,
    StretchedExpFit,
    build_star,
    decompose,
    detect_crossover,
    efficiency_ratio_series,
    extract_envelope,
    fit_power_law,
    fit_stretched_exp,
    linear_grid,
    log_grid,
    saturation,
    transport_series,
)
from specwalk.scaling import (DEFAULT_TAIL_FRACTION, HALF_WIDTH,
                              EfficiencyReport, Envelope, efficiency_report,
                              ratio_csv, report_text)

# a fixed example sequence keeps the suite reproducible run to run
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)
ONE_BELOW, ONE_ABOVE = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)


def oracle_extract_envelope(times, values, half_width):
    """The per-point loop extract_envelope replaced: strict against earlier
    neighbours, non-strict against later ones, windows cut at the ends."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = []
    for i in range(len(v)):
        left = v[max(0, i - half_width):i]
        right = v[i + 1:i + 1 + half_width]
        if (left < v[i]).all() and (right <= v[i]).all():
            keep.append(i)
    if not keep:
        keep = [int(np.argmax(v))]
    idx = np.array(keep)
    return Envelope(times=t[idx], values=v[idx])


def oracle_detect_crossover(times, values):
    """The per-point loop detect_crossover replaced."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    for i in range(len(v) - 1):
        if not (np.isfinite(v[i]) and np.isfinite(v[i + 1])):
            continue
        if v[i] < 1.0 <= v[i + 1]:
            if v[i + 1] == 1.0:
                return float(t[i + 1])
            frac = (1.0 - v[i]) / (v[i + 1] - v[i])
            return float(t[i] + frac * (t[i + 1] - t[i]))
    return None


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def plateau_series(draw, pool, min_runs=3):
    """At least min_runs runs of 1-4 equal values, so ties and plateaus
    are common."""
    element = st.one_of(st.sampled_from(pool),
                        st.floats(allow_nan=True, allow_infinity=True))
    runs = draw(st.lists(st.tuples(element, st.integers(1, 4)), min_size=min_runs,
                         max_size=30))
    return np.array([x for x, repeat in runs for _ in range(repeat)], dtype=float)


class TestExtractEnvelope:
    def test_monotone_decreasing_keeps_initial_point(self):
        t = np.linspace(1, 10, 50)
        env = extract_envelope(t, 1.0 / t)
        assert len(env.times) == 1
        assert env.times[0] == t[0]

    def test_constant_series_keeps_initial_point(self):
        t = np.linspace(1, 10, 20)
        env = extract_envelope(t, np.ones(20))
        assert len(env.times) == 1

    def test_oscillation_peaks(self):
        t = np.linspace(0, 20 * np.pi, 4000)
        v = (2 + np.sin(t)) / 4
        env = extract_envelope(t, v)
        # one maximum per period, plus possibly a rising-edge boundary point
        interior = (env.times > t[3]) & (env.times < t[-4])
        assert interior.sum() == 10
        np.testing.assert_allclose(env.values[interior], 0.75, atol=1e-4)

    def test_plateau_keeps_first_point(self):
        v = np.array([0.0, 1.0, 1.0, 1.0, 0.5, 0.2, 0.1])
        env = extract_envelope(np.arange(7.0), v)
        assert list(env.times) == [1.0]

    def test_envelope_dominates_series(self):
        t = np.linspace(0.5, 60, 2500)
        v = np.abs(np.sinc(t)) + 1e-6
        env = extract_envelope(t, v)
        interp = np.interp(env.times, t, v)
        assert np.all(env.values >= interp - 1e-15)

    def test_envelope_of_envelope_is_subset(self):
        t = np.linspace(0.5, 100, 5000)
        v = (1 + np.cos(3 * t)) / (2 * t)
        env = extract_envelope(t, v)
        env2 = extract_envelope(env.times, env.values)
        assert set(env2.times).issubset(set(env.times))

    def test_alternating_envelope_is_fixed_point(self):
        # when every envelope point dominates its new neighbors, a second
        # extraction changes nothing; peaks 4 apart are each one's envelope
        t = np.arange(40.0)
        v = np.where(np.arange(40) % 4 == 1, np.linspace(1.0, 0.9, 40), 0.1)
        env = extract_envelope(t, v)
        assert list(env.times) == list(t[1::4])
        env2 = extract_envelope(env.times, env.values)
        if len(env.times) >= 2 * HALF_WIDTH + 1 and np.all(np.diff(env.values) < 0):
            assert len(env2.times) == 1  # decaying envelope collapses
        else:
            np.testing.assert_array_equal(env2.times, env.times)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            extract_envelope([1.0, 2.0], [1.0, 2.0])

    def test_star_series_fluctuates_about_dominant_term(self):
        # the series itself is centered near (N-2)^2/N^2; its envelope rides
        # the interference peaks, one cross-term amplitude 2(N-2)/N^2 higher
        s = decompose(build_star(10))
        grid = linear_grid(5.0, 200.0, 6000)
        a = transport_series(s, grid).alpha_bar_sq
        tail = a[grid.times >= 20]
        assert tail.mean() == pytest.approx(16 / 25, abs=0.05)
        env = extract_envelope(grid.times, a)
        late = env.values[env.times >= 20]
        assert late.mean() > tail.mean()
        assert late.mean() == pytest.approx(16 / 25 + 2 * 8 / 100, abs=0.05)


class TestFitPowerLaw:
    def test_exact_recovery(self):
        t = np.geomspace(1, 100, 60)
        fit = fit_power_law(t, 3.7 * t**-1.5, (1, 100))
        assert fit.exponent == pytest.approx(-1.5, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
        assert fit.residual < 1e-13
        assert fit.stderr < 1e-13

    def test_window_restricts_points(self):
        t = np.geomspace(0.1, 1000, 200)
        v = t**-2.0
        v[t < 1] = 1.0  # corrupt outside the window
        fit = fit_power_law(t, v, (10, 100))
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.window == (10.0, 100.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="window"):
            fit_power_law(np.array([1.0, 2.0, 3.0]), np.ones(3), (1, 3))

    def test_non_positive_values(self):
        t = np.geomspace(1, 10, 20)
        v = t**-1.0
        v[7] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_power_law(t, v, (1, 10))

    @pytest.mark.parametrize("fit", [fit_power_law, fit_stretched_exp])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values(self, fit, bad):
        t = np.geomspace(1, 10, 20)
        v = t**-1.0
        v[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit(t, v, (1, 10))
        # outside the window a non-finite value is not read
        v[7] = 1 / t[7]
        v[-1] = bad
        assert fit(t, v, (1, 9)).npoints == 19

    def test_exponent_invariant_under_prefactor(self):
        t = np.geomspace(1, 100, 50)
        v = t**-1.25
        f1 = fit_power_law(t, v, (1, 100))
        f2 = fit_power_law(t, 0.37 * v, (1, 100))
        assert f1.exponent == pytest.approx(f2.exponent, abs=1e-12)


class TestFitStretchedExp:
    def test_exact_recovery(self):
        t = np.geomspace(5, 500, 120)
        v = 1.3 * t**0.25 * np.exp(-2.0 * np.sqrt(t))
        fit = fit_stretched_exp(t, v, (5, 500))
        assert fit.prefactor_exponent == pytest.approx(0.25, abs=1e-10)
        assert fit.decay_coeff == pytest.approx(2.0, abs=1e-10)
        assert fit.warning is None

    def test_model_mismatch_warning(self):
        t = np.geomspace(1, 50, 40)
        v = np.exp(+0.5 * np.sqrt(t))  # growing: c comes out negative
        fit = fit_stretched_exp(t, v, (1, 50))
        assert fit.decay_coeff < 0
        assert fit.warning is not None

    def test_stretch_is_fixed(self):
        t = np.geomspace(2, 200, 50)
        fit = fit_stretched_exp(t, t**0.5 * np.exp(-3 * np.sqrt(t)), (2, 200))
        assert fit.stretch == 0.5


class TestEfficiencyRatio:
    def test_equal_series_gives_one(self):
        t = np.geomspace(1.1, 1000, 200)
        v = 0.9 * t**-1.0
        ratio = efficiency_ratio_series(t, v, (t, v))
        np.testing.assert_allclose(ratio.values, 1.0, atol=1e-12)
        assert ratio.asymptotic == pytest.approx(1.0, abs=1e-12)

    def test_power_law_pair_tends_to_exponent_ratio(self):
        t = np.geomspace(1.5, 1e4, 400)
        classical = 0.9 * t**-1.5
        quantum = 0.8 * t**-3.0
        ratio = efficiency_ratio_series(t, classical, (t, quantum))
        assert ratio.asymptotic == pytest.approx(2.0, abs=0.01)

    def test_excluded_points_are_counted(self):
        t = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        classical = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])  # exactly 1 at t=1
        quantum = classical**2
        ratio = efficiency_ratio_series(t, classical, (t, quantum))
        assert ratio.excluded_points == 1
        assert len(ratio.times) == 4

    def test_zero_envelope_points_are_excluded_and_counted(self):
        # a series that underflows to 0 in its middle and at its tail: the
        # zeros, and the grid points between them and their neighbours,
        # are excluded and counted; every other point keeps the ratio that
        # the positive points alone give
        t = np.geomspace(1.0, 1e3, 49)
        p = 0.5 * t**-1.0
        env_t = t[::4]
        env_v = 0.5 * env_t**-2.0
        env_v[[5, 11, 12]] = 0.0
        ratio = efficiency_ratio_series(t, p, (env_t, env_v))
        zero = (t > env_t[4]) & (t < env_t[6]) | (t > env_t[10])
        assert ratio.excluded_points == zero.sum() == 7 + 8
        np.testing.assert_array_equal(ratio.times, t[~zero])
        live = env_v > 0
        want = efficiency_ratio_series(t[~zero], p[~zero], (env_t[live], env_v[live]))
        np.testing.assert_array_equal(ratio.values, want.values)

    def test_rejects_negative_envelope(self):
        t = np.geomspace(1, 10, 20)
        with pytest.raises(ValueError, match="non-negative"):
            efficiency_ratio_series(t, np.full(20, 0.5), (t, np.full(20, -0.1)))

    def test_rejects_all_invalid(self):
        t = np.geomspace(1, 10, 20)
        with pytest.raises(ValueError):
            efficiency_ratio_series(t, np.full(20, 2.0), (t, np.full(20, 2.0)))


class TestEnvelopeOracle:
    @PROPERTY_SETTINGS
    @given(plateau_series([0.0, -0.0, 1.0, 2.0, -1.0, np.nan, np.inf, -np.inf],
                          min_runs=2 * HALF_WIDTH + 1))
    def test_equals_per_point_loop(self, v):
        t = np.arange(len(v), dtype=float)
        env = extract_envelope(t, v)
        ref = oracle_extract_envelope(t, v, HALF_WIDTH)
        assert same_bits(env.times, ref.times)
        assert same_bits(env.values, ref.values)

    def test_safety_net_on_all_nan(self):
        env = extract_envelope(np.arange(7.0), np.full(7, np.nan))
        assert list(env.times) == [0.0]


class TestCrossoverOracle:
    @PROPERTY_SETTINGS
    @given(plateau_series([0.5, 1.0, 1.5, ONE_BELOW, ONE_ABOVE, -0.0, np.nan,
                           np.inf, -np.inf]),
           st.floats(1e-3, 1e3))
    def test_equals_per_point_loop(self, v, step):
        t = step * np.arange(len(v), dtype=float)
        assert repr(detect_crossover(t, v)) == repr(oracle_detect_crossover(t, v))

    @pytest.mark.parametrize("v", [[], [0.5], [1.5]])
    def test_too_short_for_a_crossing(self, v):
        assert detect_crossover(np.arange(len(v), dtype=float), v) is None


class TestDetectCrossover:
    def test_none_when_always_above(self):
        t = np.geomspace(1, 100, 50)
        assert detect_crossover(t, np.full(50, 2.0)) is None

    def test_none_when_always_below(self):
        t = np.geomspace(1, 100, 50)
        assert detect_crossover(t, np.full(50, 0.5)) is None

    def test_linear_interpolation(self):
        t = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, 0.75, 1.25])
        # crosses 1 halfway between t=2 and t=3
        assert detect_crossover(t, v) == pytest.approx(2.5)

    def test_exact_touch_counts(self):
        t = np.array([1.0, 2.0, 3.0])
        v = np.array([0.5, 1.0, 2.0])
        assert detect_crossover(t, v) == pytest.approx(2.0)

    def test_first_crossing_wins(self):
        t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        v = np.array([0.5, 1.5, 0.5, 1.5, 1.5])
        assert detect_crossover(t, v) == pytest.approx(1.5)


class TestSaturation:
    def test_constant_tail(self):
        v = np.concatenate([np.linspace(1, 0.2, 50), np.full(50, 0.2)])
        stats = saturation(v, tail_fraction=0.25)
        assert stats.mean == pytest.approx(0.2)
        assert stats.fluctuation == pytest.approx(0.0, abs=1e-15)
        assert stats.tail_points == 25

    def test_oscillating_tail(self):
        t = np.linspace(0, 100, 1000)
        v = 0.5 + 0.1 * np.sin(t)
        stats = saturation(v, tail_fraction=0.5)
        assert stats.mean == pytest.approx(0.5, abs=0.01)
        assert stats.fluctuation == pytest.approx(0.1, abs=0.01)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.6, 1.5])
    def test_bad_fraction(self, bad):
        with pytest.raises(ValueError):
            saturation(np.ones(10), tail_fraction=bad)

    def test_ring_classical_equipartition(self):
        # slowest ring mode decays at rate 2 - 2cos(2 pi / N) ~ 1e-3, so the
        # plateau is clean only past t ~ 1e4
        from specwalk import build_ring

        s = decompose(build_ring(200))
        p = transport_series(s, log_grid(1e4, 1e5, 100, include_zero=False)).p_bar
        stats = saturation(p, tail_fraction=0.5)
        assert stats.mean == pytest.approx(1 / 200, abs=1e-6)


class TestEfficiencyReport:
    T = np.concatenate(([0.0], np.linspace(0.05, 200.0, 4000)))
    P = np.exp(-0.01 * T)
    ALPHA = np.exp(-0.03 * T) * (0.6 + 0.4 * np.cos(T) ** 2)
    # five envelope maxima, at t = 0.05, 0.25, ..., 0.85, and none after
    EARLY_PEAKS = np.exp(-0.03 * T) * np.where((np.arange(T.size) % 4 == 1) & (T < 0.9),
                                               1.0, 0.5)

    def by_hand(self, t, p, alpha, window, fit):
        """The analysis assembled from its parts: envelope, fits, ratio,
        crossover and saturation on the times t > 0."""
        keep = t > 0
        t, p, alpha = t[keep], p[keep], alpha[keep]
        env = extract_envelope(t, alpha)
        quantum = (env.times, env.values) if len(env.times) >= 5 else (t, alpha)
        ratio = efficiency_ratio_series(t, p, quantum)
        return EfficiencyReport(
            classical_fit=fit(t, p, window), quantum_fit=fit(*quantum, window),
            ratio=ratio, saturation_classical=saturation(p, DEFAULT_TAIL_FRACTION),
            saturation_quantum=saturation(alpha, DEFAULT_TAIL_FRACTION),
            envelope_points=len(env.times),
            crossover_time=detect_crossover(ratio.times, ratio.values))

    @pytest.mark.parametrize("stretched", [False, True])
    def test_equals_its_parts(self, stretched):
        fit = fit_stretched_exp if stretched else fit_power_law
        got = efficiency_report(self.T, self.P, self.ALPHA, (1.0, 100.0), stretched=stretched)
        want = self.by_hand(self.T, self.P, self.ALPHA, (1.0, 100.0), fit)
        assert report_text(got) == report_text(want)
        assert got.envelope_points == want.envelope_points > 5
        assert np.array_equal(got.ratio.times, want.ratio.times)
        assert np.array_equal(got.ratio.values, want.ratio.values)
        assert isinstance(got.classical_fit, StretchedExpFit if stretched else PowerLawFit)

    def test_quiet_series_is_its_own_envelope(self):
        # a monotone |alpha|^2 has one envelope point, the first
        alpha = np.exp(-0.03 * self.T)
        got = efficiency_report(self.T, self.P, alpha, (1.0, 100.0))
        assert got.envelope_points == 1
        keep = self.T > 0
        want = fit_power_law(self.T[keep], alpha[keep], (1.0, 100.0))
        assert got.quantum_fit == want
        assert report_text(got) == report_text(self.by_hand(
            self.T, self.P, alpha, (1.0, 100.0), fit_power_law))

    def test_one_window_and_a_keyword_stretch(self):
        # a second window, as a quantum window once was, binds to nothing
        with pytest.raises(TypeError):
            efficiency_report(self.T, self.P, self.ALPHA, (1.0, 100.0), (2.0, 150.0))
        with pytest.raises(TypeError):
            efficiency_report(self.T, self.P, self.ALPHA, (1.0, 100.0), True)

    def test_reads_only_positive_times(self):
        # the t = 0 row never reaches the envelope, the fits or the tail
        with_zero = efficiency_report(self.T, self.P, self.ALPHA, (1.0, 100.0))
        without = efficiency_report(self.T[1:], self.P[1:], self.ALPHA[1:], (1.0, 100.0))
        assert report_text(with_zero) == report_text(without)
        assert with_zero.envelope_points == without.envelope_points

    @pytest.mark.parametrize("kwargs, match", [
        (dict(window=(1e5, 1e6)), "only 0 points"),
        # t = 0 and 2 * HALF_WIDTH positive times: one too few for the envelope
        (dict(window=(1.0, 100.0), rows=2 * HALF_WIDTH + 1), "too short"),
    ])
    def test_refuses_what_its_parts_refuse(self, kwargs, match):
        kwargs = dict(kwargs)
        rows = slice(kwargs.pop("rows", None))
        with pytest.raises(ValueError, match=match):
            efficiency_report(self.T[rows], self.P[rows], self.ALPHA[rows], **kwargs)

    @pytest.mark.parametrize("window, alpha, message", [
        ((1e5, 1e6), ALPHA, r"classical p_bar fit: only 0 points in window "
                            r".*; the \d+ points given span t = 0.05 to "),
        ((1.0, 100.0), EARLY_PEAKS, r"quantum envelope fit: only 0 points in window "
                                    r".*; the 5 points given span t = 0.05 to 0.85$"),
        # monotone, so its own envelope, and 0 from t = 50 on
        ((1.0, 100.0), np.exp(-0.03 * T) * (T < 50),
         r"quantum series fit: non-positive values inside fit window \(1.0, 100.0\)$"),
    ], ids=["classical", "envelope", "series"])
    def test_names_the_fit_that_failed(self, window, alpha, message):
        with pytest.raises(ValueError, match=rf"^{message}"):
            efficiency_report(self.T, self.P, alpha, window)

    def test_names_a_failed_ratio(self):
        # p_bar at 1 throughout, as on a graph with no edges, leaves no point
        # strictly inside (0, 1)
        ones = np.ones_like(self.T)
        with pytest.raises(ValueError, match=r"^delta_p ratio: no valid points: series "
                                             r"must lie strictly inside \(0, 1\)$"):
            efficiency_report(self.T, ones, ones, (1.0, 100.0))


class TestReportSerialization:
    def test_report_text_keys(self):
        t = np.geomspace(1.5, 1000, 300)
        classical = 0.9 * t**-1.0
        quantum = 0.8 * t**-2.0
        text = report_text(efficiency_report(t, classical, quantum, (10, 1000)))
        for key in ("classical_exponent", "quantum_exponent",
                    "delta_p_asymptotic", "saturation_classical_mean"):
            assert key in text
        # flat key = value shape
        for line in text.strip().splitlines():
            assert " = " in line

    def test_ratio_csv(self):
        t = np.geomspace(1.5, 100, 50)
        ratio = efficiency_ratio_series(t, 0.9 * t**-1.0, (t, 0.9 * t**-1.0))
        lines = b"".join(ratio_csv(ratio, t)).decode().splitlines()
        assert lines[0] == "t,delta_p"
        assert len(lines) == len(ratio.times) + 1
