import gc
import tracemalloc

import numpy as np
import pytest

from timebin.analysis import (FringeScan, GateConfig, RateReport,
                              StreamAnalyzer, analyze_stream, car,
                              fit_fringe, klyshko, max_visibility_from_car,
                              power_series_fit)
from timebin.simulate import (CH_IDLER, CH_SIGNAL, ExperimentConfig,
                              iter_simulate, iter_simulate_single_bin,
                              simulate)

from conftest import assert_same_result, tie_cuts


def reference_rates_report(duration=10.0):
    """Counts giving rates 1210 / 1090 / 46 per second at 76.2 MHz."""
    return RateReport(n_signal=12100, n_idler=10900, n_coinc=460,
                      n_trigger=762_000_000, duration=duration)


class TestGateConfig:
    def test_rejects_overlapping_gates(self):
        with pytest.raises(ValueError):
            GateConfig(gate_width=2e-9, offsets={CH_SIGNAL: [0.0, 1e-9]})

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            GateConfig(gate_width=0.0)

    def test_time_bin_layout(self):
        cfg = ExperimentConfig()
        g = GateConfig.time_bin(cfg)
        np.testing.assert_allclose(g.offsets[CH_SIGNAL], [2e-9, 5e-9, 8e-9])


class TestGatedSingles:
    def test_uniform_darks_thinned_by_gate_fraction(self):
        cfg = ExperimentConfig(rep_rate=1e5, duration=0.5,
                               mean_pairs_per_pulse=0.0,
                               dark_rate_signal=5e4, rng_seed=31)
        gates = GateConfig(gate_width=2e-6, offsets={CH_SIGNAL: [5e-6]})
        res = analyze_stream(simulate(cfg), gates, hist_bin=1e-7)
        expected = cfg.dark_rate_signal * cfg.duration * (2e-6 / 1e-5)
        assert abs(res.gated_signal.sum() - expected) < 4 * np.sqrt(expected)
        # the histogram holds every tag, gated or not
        assert res.histograms[CH_SIGNAL].sum() == pytest.approx(
            cfg.dark_rate_signal * cfg.duration, abs=4 * np.sqrt(25000))

    def test_three_peak_singles_ratio(self):
        cfg = ExperimentConfig(duration=0.02, mean_pairs_per_pulse=0.05,
                               rng_seed=32)
        res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg))
        early, central, late = res.gated_signal
        for side in (early, late):
            sigma = np.sqrt(central + 4 * side)
            assert abs(central - 2 * side) < 4 * sigma

    def test_unsorted_stream_rejected(self):
        cfg = ExperimentConfig(duration=1e-4, mean_pairs_per_pulse=0.1,
                               rng_seed=33)
        tags = simulate(cfg)[::-1].copy()
        with pytest.raises(ValueError):
            analyze_stream(tags, GateConfig.time_bin(cfg))

    def test_no_triggers_rejected(self):
        cfg = ExperimentConfig(duration=1e-4, mean_pairs_per_pulse=0.1,
                               rng_seed=34)
        tags = simulate(cfg)
        tags = tags[tags["channel"] != 2]
        with pytest.raises(ValueError):
            analyze_stream(tags, GateConfig.time_bin(cfg))


class TestCoincidences:
    def test_five_delay_peaks(self):
        cfg = ExperimentConfig(duration=0.02, mean_pairs_per_pulse=0.05,
                               phi_s=np.pi, rng_seed=35)
        d = analyze_stream(simulate(cfg), GateConfig.time_bin(cfg)).delay_counts
        assert set(d) == {-2, -1, 0, 1, 2}
        # fringe maximum: central peak carries 2x each single satellite
        # peak, and the outer delays are accidental-level
        assert d[0] > 1.5 * (d[1] / 2 + d[-1] / 2)
        assert d[2] + d[-2] < 0.05 * d[0]

    def test_fringe_minimum_central_suppressed(self):
        cfg = ExperimentConfig(duration=0.05, mean_pairs_per_pulse=0.01,
                               phi_s=0.0, rng_seed=36)
        res = analyze_stream(simulate(cfg), GateConfig.time_bin(cfg))
        satellites = res.joint[0, 0] + res.joint[2, 2]
        assert res.joint[1, 1] < 0.05 * satellites

    def test_accidental_diagnostic_matches_poisson_rate(self):
        # uncorrelated darks: same-pulse and neighbor-pulse coincidences
        # agree within errors
        cfg = ExperimentConfig(rep_rate=1e5, duration=1.0,
                               mean_pairs_per_pulse=0.0,
                               dark_rate_signal=2e4, dark_rate_idler=2e4,
                               detection_delay=5e-6, rng_seed=37)
        gates = GateConfig(gate_width=5e-6,
                           offsets={CH_SIGNAL: [5e-6], CH_IDLER: [5e-6]})
        res = analyze_stream(iter_simulate_single_bin(cfg), gates)
        same = res.joint.sum()
        neigh = res.neighbor_joint.sum()
        assert abs(same - neigh) < 4 * np.sqrt(same + neigh)


class TestCar:
    def test_reference_rates(self):
        q = car(reference_rates_report())
        assert q.value == pytest.approx(2657.7, abs=0.1)
        assert q.error > 0

    def test_error_dominated_by_coincidences(self):
        q = car(reference_rates_report())
        assert q.error == pytest.approx(q.value / np.sqrt(460), rel=0.1)

    def test_uncorrelated_counts_give_one(self):
        r = RateReport(n_signal=1000, n_idler=2000, n_coinc=20,
                       n_trigger=100_000, duration=1.0)
        assert car(r).value == pytest.approx(1.0)

    def test_scaling_in_singles(self):
        a = car(reference_rates_report()).value
        r = RateReport(n_signal=24200, n_idler=21800, n_coinc=460,
                       n_trigger=762_000_000, duration=10.0)
        assert car(r).value == pytest.approx(a / 4)

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            car(RateReport(0, 10, 5, 100, 1.0))


class TestKlyshko:
    def test_reference_rates(self):
        eta_s, eta_i = klyshko(reference_rates_report())
        assert eta_s.value == pytest.approx(0.0422, abs=0.0001)
        assert eta_i.value == pytest.approx(0.0380, abs=0.0001)

    def test_lossless_approaches_unity(self):
        cfg = ExperimentConfig(duration=0.01, mean_pairs_per_pulse=0.002,
                               rng_seed=38)
        res = analyze_stream(iter_simulate_single_bin(cfg),
                             GateConfig.single_bin(cfg))
        eta_s, eta_i = klyshko(res.rate_report())
        assert eta_s.value == pytest.approx(1.0, abs=3 * eta_s.error + 0.005)
        assert eta_i.value == pytest.approx(1.0, abs=3 * eta_i.error + 0.005)

    def test_rejects_zero_singles(self):
        with pytest.raises(ValueError):
            klyshko(RateReport(0, 10, 5, 100, 1.0))


class TestPowerSeries:
    @staticmethod
    def synthetic_points(eta_s=0.0412, eta_i=0.0377, yield_per_w=2.0,
                         brightness=750.0, duration=100.0, rep=76.2e6):
        points = []
        for p in (0.05, 0.1, 0.2, 0.4, 0.8):
            mu = yield_per_w * p
            n_c = int(round(brightness * p * duration))
            n_s = int(round(rep * mu * eta_s * duration))
            n_i = int(round(rep * mu * eta_i * duration))
            points.append((p, RateReport(n_s, n_i, n_c,
                                         int(rep * duration), duration)))
        return points

    def test_noiseless_brightness_slope(self):
        fit = power_series_fit(self.synthetic_points())
        assert fit.brightness.value == pytest.approx(750.0, rel=1e-6)

    def test_noiseless_car_slope_minus_one(self):
        fit = power_series_fit(self.synthetic_points())
        assert fit.car_loglog_slope.value == pytest.approx(-1.0, abs=1e-6)

    def test_klyshko_intercepts(self):
        # with n_c linear in power the efficiency ratio is constant, so
        # the intercept equals the per-point value n_c / n_partner
        fit = power_series_fit(self.synthetic_points())
        expected_s = 750.0 / (76.2e6 * 2.0 * 0.0377)
        expected_i = 750.0 / (76.2e6 * 2.0 * 0.0412)
        assert fit.klyshko_signal_intercept.value == pytest.approx(expected_s, rel=1e-3)
        assert fit.klyshko_idler_intercept.value == pytest.approx(expected_i, rel=1e-3)

    def test_exclude_below_drops_points(self):
        pts = self.synthetic_points()
        # corrupt the lowest-power point with a background floor
        p0, r0 = pts[0]
        pts[0] = (p0, RateReport(r0.n_signal + 500_000, r0.n_idler + 500_000,
                                 r0.n_coinc, r0.n_trigger, r0.duration))
        biased = power_series_fit(pts)
        clean = power_series_fit(pts, exclude_below=0.06)
        truth = 750.0 / (76.2e6 * 2.0 * 0.0377)
        assert abs(clean.klyshko_signal_intercept.value - truth) < \
            abs(biased.klyshko_signal_intercept.value - truth)

    def test_needs_three_distinct_powers(self):
        pts = self.synthetic_points()[:2]
        with pytest.raises(ValueError):
            power_series_fit(pts)
        with pytest.raises(ValueError):
            power_series_fit(self.synthetic_points(), exclude_below=0.5)


class TestFringeFit:
    @staticmethod
    def scan(amp, vis, phi0, phases, t=1.0, rng=None):
        rates = amp * (1.0 - vis * np.cos(phases + phi0))
        counts = rates * t if rng is None else rng.poisson(rates * t)
        return FringeScan(phases, np.asarray(counts, dtype=float),
                          np.full(phases.size, t))

    def test_noiseless_recovery(self):
        phases = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        fit = fit_fringe(self.scan(100.0, 0.902, 0.7, phases))
        assert fit.visibility.value == pytest.approx(0.902, abs=1e-6)
        assert fit.amplitude == pytest.approx(100.0, rel=1e-6)
        assert np.cos(fit.phase_offset) == pytest.approx(np.cos(0.7), abs=1e-6)

    def test_flat_scan_zero_visibility(self):
        phases = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        fit = fit_fringe(self.scan(50.0, 0.0, 0.0, phases))
        assert fit.visibility.value == pytest.approx(0.0, abs=1e-6)

    def test_rejects_too_few_phases(self):
        phases = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_fringe(self.scan(10.0, 0.5, 0.0, phases))

    def test_rejects_narrow_span(self):
        phases = np.linspace(0, 1.0, 8)
        with pytest.raises(ValueError):
            fit_fringe(self.scan(10.0, 0.5, 0.0, phases))

    def test_visibility_stays_in_unit_interval(self):
        rng = np.random.default_rng(40)
        phases = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        fit = fit_fringe(self.scan(5.0, 0.99, 0.0, phases, t=1.0, rng=rng))
        assert 0.0 <= fit.visibility.value <= 1.0

    def test_self_consistency_coverage(self):
        # parametric bootstrap of the fit's own error bars: the fitted
        # visibility should land within 3 sigma of truth in >= 99% of
        # 1000 Poisson resamples of the model
        rng = np.random.default_rng(41)
        phases = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        hits = 0
        for _ in range(1000):
            amp = rng.uniform(200.0, 500.0)
            vis = rng.uniform(0.3, 0.95)
            phi0 = rng.uniform(0, 2 * np.pi)
            fit = fit_fringe(self.scan(amp, vis, phi0, phases, rng=rng),
                             poisson_weights=True)
            if abs(fit.visibility.value - vis) <= 3 * fit.visibility.error:
                hits += 1
        assert hits >= 990


class TestStreamingEquivalence:
    def test_chunked_feed_matches_single_pass(self):
        cfg = ExperimentConfig(duration=5e-3, mean_pairs_per_pulse=0.05,
                               dark_rate_signal=1e4, dark_rate_idler=1e4,
                               rng_seed=42)
        tags = simulate(cfg)
        gates = GateConfig.time_bin(cfg)
        whole = analyze_stream(tags, gates)
        an = StreamAnalyzer(gates)
        for part in np.array_split(tags, 13):
            an.feed(part)
        assert_same_result(an.result(), whole)

    @pytest.mark.parametrize("cfg", [
        # every slot-0 photon lands at its trigger's time
        ExperimentConfig(duration=1e-3, mean_pairs_per_pulse=0.05,
                         jitter_sigma=0.0, detection_delay=0.0, rng_seed=1),
        # default timing: a few dark counts fall on a trigger's picosecond
        ExperimentConfig(duration=4e-3, mean_pairs_per_pulse=2.0,
                         dark_rate_signal=1e7, dark_rate_idler=1e7, rng_seed=3),
    ], ids=["photon-ties", "dark-ties"])
    def test_split_at_every_tie(self, cfg):
        # The simulator puts a detection ahead of a trigger at the same
        # time; the one-pass association gives it to that trigger, and a
        # chunk boundary between the two must not change that.
        tags = simulate(cfg)
        cuts = tie_cuts(tags)
        assert cuts.size > 0
        gates = GateConfig.time_bin(cfg)
        an = StreamAnalyzer(gates)
        for part in np.split(tags, cuts):
            an.feed(part)
        assert_same_result(an.result(), analyze_stream(tags, gates))


class TestBoundedMemory:
    def test_retained_memory_does_not_grow_with_stream_length(self):
        cfg = ExperimentConfig(duration=1e-3, mean_pairs_per_pulse=0.3,
                               dark_rate_signal=1e5, dark_rate_idler=1e5,
                               rng_seed=11)
        chunks = np.array_split(simulate(cfg), 8)
        gates = GateConfig.time_bin(cfg)

        def retained(parts):
            gc.collect()
            tracemalloc.start()
            try:
                an = StreamAnalyzer(gates)
                for part in parts:
                    an.feed(part)
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # 8x the gated events (about 2800 per chunk); the histograms may
        # still lengthen by a few hundred bins
        assert retained(chunks) < retained(chunks[:1]) + 16 * 1024


class TestMaxVisibility:
    def test_reference_car(self):
        assert max_visibility_from_car(530.0) == pytest.approx(0.99623, abs=5e-5)

    def test_limits(self):
        assert max_visibility_from_car(1.0) == 0.0
        assert max_visibility_from_car(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_sub_unity(self):
        with pytest.raises(ValueError):
            max_visibility_from_car(0.5)
