import gc
import time
import tracemalloc

import numpy as np
import pytest

from timebin.analysis import (AnalysisResult, FringeScan, GateConfig, RateReport,
                              StreamAnalyzer, _linfit, analyze_stream, car,
                              fit_fringe, klyshko, max_visibility_from_car,
                              power_series_fit)
from timebin.simulate import (CH_IDLER, CH_SIGNAL, CH_TRIGGER, TAG_DTYPE,
                              ExperimentConfig, PulseGrid, iter_simulate,
                              iter_simulate_single_bin)

from conftest import assert_same_result, run_gates, tie_cuts
from fringe_oracle import oracle_fit_fringe


def tag_array(channels, times_ps):
    tags = np.zeros(len(channels), dtype=TAG_DTYPE)
    tags["channel"] = channels
    tags["time_ps"] = times_ps
    return tags


# Triggers at 0 and 13000 ps, for hand-built detections.
TWO_PULSES = PulseGrid(2, 13000.0)


def detections(cfg, sim=iter_simulate):
    """The detections of a simulated run as one array."""
    return np.concatenate(list(sim(cfg)))


def reference_rates_report(duration=10.0):
    """Counts giving rates 1210 / 1090 / 46 per second at 76.2 MHz."""
    return RateReport(n_signal=12100, n_idler=10900, n_coinc=460,
                      n_trigger=762_000_000, duration=duration)


class TestGateConfig:
    def test_rejects_overlapping_gates(self):
        with pytest.raises(ValueError):
            GateConfig(gate_width=2e-9, offsets=(0.0, 1e-9))

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            GateConfig(gate_width=0.0)

    @pytest.mark.parametrize("width", [np.nan, np.inf, True, pytest.param(10**400, id="10**400")])
    def test_rejects_width_that_is_not_finite(self, width):
        # True was a 1 s gate; 10**400 was an OverflowError.
        with pytest.raises(ValueError, match="gate_width"):
            GateConfig(gate_width=width)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, True, pytest.param(10**400, id="10**400")])
    def test_rejects_offset_that_is_not_finite(self, offset):
        with pytest.raises(ValueError, match="offsets"):
            GateConfig(offsets=(1e-9, offset))

    def test_rejects_offset_past_the_float_range_in_ps(self):
        # 1e300 s is finite, but 1e300 * 1e12 ps is not: OverflowError
        # ("cannot convert float infinity to integer") in the rounding.
        with pytest.raises(ValueError, match="offsets must be finite in ps"):
            GateConfig(offsets=(1e300,))

    def test_accepts_touching_gates(self):
        gates = GateConfig(gate_width=2e-9, offsets=(1e-9, 3e-9))
        tags = tag_array([CH_SIGNAL, CH_SIGNAL], [2000, 2001])
        # rel 2000 ps is the shared edge; 2001 ps lies only in the later gate
        assert analyze_stream(tags, gates, grid=TWO_PULSES).gated_signal.tolist() == [1, 1]

    @pytest.mark.parametrize("width", [1e-13, 0.5e-12], ids=["0.1ps", "0.5ps"])
    def test_rejects_width_of_no_whole_ps(self, width):
        # Rounded to 0 ps, such a width would pass duplicate offsets.
        with pytest.raises(ValueError, match=r"^gate_width must lie within 1 and 2\^62 ps "
                                             r"in whole ps, got"):
            GateConfig(width, (2e-9, 2e-9))
        GateConfig(0.6e-12, (2e-9, 2.001e-9))  # 1 ps gates, touching

    @pytest.mark.parametrize("width, offsets, message", [
        (1e-9, (4.7e6,), "^gate 0 spans 4699999999999999500 to 4700000000000000500 ps "),
        (1e-9, (0.0, -4.7e6), "^gate 0 spans -4700000000000000500 to -4699999999999999500 ps "),
        (4.7e6, (), r"^gate_width must lie within 1 and 2\^62 ps"),
    ], ids=["offset-past-2^62-ps", "offset-below-minus-2^62-ps", "width-past-2^62-ps"])
    def test_rejects_gates_whose_int64_edges_would_overflow(self, width, offsets, message):
        # GateConfig bounds the width; the analyzer refuses an offset
        # outside the period, in Python ints, before it builds int64 edges.
        with pytest.raises(ValueError, match=message):
            StreamAnalyzer(GateConfig(width, offsets), grid=TWO_PULSES)

    def test_gates_at_2_to_the_62_ps_are_refused_by_the_analyzer(self):
        # GateConfig once accepted these, and the analyzer gated nothing in them.
        edge = 2**62 * 1e-12
        gates = GateConfig(4e6, (-edge, edge))
        assert max(abs(round(x * 1e12)) for x in (gates.gate_width, *gates.offsets)) == 2**62
        for offset in gates.offsets:
            with pytest.raises(ValueError, match=r"^gate 0 spans -?\d+ to -?\d+ ps after its "
                                                 r"trigger, not within 0 and 12999 ps"):
                StreamAnalyzer(GateConfig(4e6, (offset,)), grid=TWO_PULSES)

    @pytest.mark.parametrize("period, last", [(13000.0, 12999), (13123.36, 13121)],
                             ids=["whole-ps", "fractional"])
    def test_gates_lie_between_their_trigger_and_the_next(self, period, last):
        # 1 ps gates: each spans its offset alone.  A whole-ps period puts
        # the next trigger a period on; another puts it more than period - 2
        # ps on, so a gate may end on the ps before that.
        grid = PulseGrid(3, period)
        kept = GateConfig(1e-12, (0.0, last * 1e-12))
        res = analyze_stream(tag_array([CH_SIGNAL, CH_IDLER], [0, last]), kept, grid=grid)
        assert res.gated_signal.tolist() == [1, 0] and res.gated_idler.tolist() == [0, 1]
        for k, offsets in ((0, (-1e-12, 2e-12)), (1, (0.0, (last + 1) * 1e-12))):
            with pytest.raises(ValueError, match=f"^gate {k} spans .* not within 0 and {last} ps, "
                                                 f"before the next trigger$"):
                StreamAnalyzer(GateConfig(1e-12, offsets), grid=grid)

    def test_time_bin_layout(self):
        cfg = ExperimentConfig()
        g = GateConfig.time_bin(cfg)
        np.testing.assert_allclose(g.offsets, [2e-9, 5e-9, 8e-9])

    @pytest.mark.parametrize("build", [GateConfig.time_bin, GateConfig.single_bin],
                             ids=["time-bin", "single-bin"])
    def test_every_default_slot_holds_501_whole_ps(self, build):
        # One signal and one idler detection on each ps within 300 ps of
        # each offset, one ps per pulse: a slot's count is its width in ps.
        # One shared normalization of the 16 tomography counts needs every
        # slot to accept the same time.
        gates = build(ExperimentConfig())
        rels = [round(o * 1e12) + d for o in gates.offsets for d in range(-300, 301)]
        grid = PulseGrid(len(rels) + 1, 13123.359580052494)
        times = np.repeat(grid.times(np.arange(len(rels))).astype(np.int64) + rels, 2)
        tags = tag_array([CH_SIGNAL, CH_IDLER] * len(rels), times)
        res = analyze_stream(tags, gates, hist_bin=1e-9, grid=grid)
        n = len(gates.offsets)
        assert res.gated_signal.tolist() == res.gated_idler.tolist() == [501] * n
        np.testing.assert_array_equal(res.joint, 501 * np.eye(n, dtype=np.int64))


class TestGatedSingles:
    def test_slot_is_nearest_gate_in_time_order(self):
        # Unsorted, unequally spaced gates: slot k is the k-th gate in time.
        gates = GateConfig(gate_width=1.5e-9, offsets=(7e-9, 1e-9, 3e-9))
        rel_ps = [300, 1700, 2001, 2300, 3700, 4999, 6300, 6800, 7700, 9000]
        res = analyze_stream(tag_array([CH_SIGNAL] * len(rel_ps), rel_ps), gates,
                             grid=TWO_PULSES)
        assert res.gated_signal.tolist() == [2, 2, 3]

    def test_detection_on_a_shared_gate_edge_goes_to_the_earlier_slot(self):
        # 2.5 ns is 2500 ps exactly, so the touching gates share the edge at 2500 ps.
        gates = GateConfig(gate_width=2.5e-9, offsets=(1.25e-9, 3.75e-9))
        tags = tag_array([CH_SIGNAL], [2500])
        assert analyze_stream(tags, gates, grid=TWO_PULSES).gated_signal.tolist() == [1, 0]

    def test_uniform_darks_thinned_by_gate_fraction(self):
        cfg = ExperimentConfig(rep_rate=1e5, duration=0.5,
                               mean_pairs_per_pulse=0.0,
                               dark_rate_signal=5e4, rng_seed=31)
        gates = GateConfig(gate_width=2e-6, offsets=(5e-6,))
        res = analyze_stream(iter_simulate(cfg), gates, hist_bin=1e-7, grid=PulseGrid.of(cfg))
        expected = cfg.dark_rate_signal * cfg.duration * (2e-6 / 1e-5)
        assert abs(res.gated_signal.sum() - expected) < 4 * np.sqrt(expected)
        # the histogram holds every tag, gated or not
        assert res.histograms[CH_SIGNAL].sum() == pytest.approx(
            cfg.dark_rate_signal * cfg.duration, abs=4 * np.sqrt(25000))

    def test_three_peak_singles_ratio(self):
        cfg = ExperimentConfig(duration=0.02, mean_pairs_per_pulse=0.05,
                               rng_seed=32)
        res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg),
                             grid=PulseGrid.of(cfg))
        early, central, late = res.gated_signal
        for side in (early, late):
            sigma = np.sqrt(central + 4 * side)
            assert abs(central - 2 * side) < 4 * sigma

    def test_unsorted_stream_rejected(self):
        cfg = ExperimentConfig(duration=1e-4, mean_pairs_per_pulse=0.1,
                               rng_seed=33)
        tags = detections(cfg)[::-1].copy()
        with pytest.raises(ValueError):
            analyze_stream(tags, GateConfig.time_bin(cfg), grid=PulseGrid.of(cfg))

    @pytest.mark.parametrize("pulses, period_ps", [(1, 13000.0), (2, 0.0)],
                             ids=["one-trigger", "two-at-one-time"])
    def test_stream_without_duration_rejected(self, pulses, period_ps):
        with pytest.raises(ValueError):
            analyze_stream(tag_array([CH_SIGNAL], [2000]),
                           GateConfig.time_bin(ExperimentConfig()),
                           grid=PulseGrid(pulses, period_ps))

    @pytest.mark.parametrize("channel, fault", [(CH_TRIGGER, "trigger record;"),
                                                (7, "unknown channel 7$")], ids=["2", "7"])
    def test_tag_off_the_detection_channels_rejected(self, channel, fault):
        # Dropping such a tag would leave a direct caller's result short;
        # the refused chunk counts nothing.
        analyzer = StreamAnalyzer(GateConfig.time_bin(ExperimentConfig()), grid=TWO_PULSES)
        tags = tag_array([CH_SIGNAL, channel, CH_IDLER], [2000, 2100, 2200])
        with pytest.raises(ValueError, match=f"^record 1 of the chunk: {fault}"):
            analyzer.feed(tags)
        analyzer.feed(tags[[0, 2]])
        res = analyzer.result()
        assert res.gated_signal.tolist() == res.gated_idler.tolist() == [1, 0, 0]
        assert res.joint[0, 0] == 1 and res.out_of_range == 0

    def test_detection_past_the_grid_is_counted_out_of_range(self):
        # The grid's live time ends at round(100 P) ps.  A time there or
        # later, such as a corrupted one near 2^62 ps, belongs to no pulse
        # and must not size a histogram.
        grid = PulseGrid(100, 13123.36)
        end = int(grid.times(grid.pulses))
        tags = tag_array([CH_SIGNAL, CH_IDLER, CH_SIGNAL, CH_IDLER],
                         [2000, end - 1, end, 2**62])
        analyzer = StreamAnalyzer(GateConfig.time_bin(ExperimentConfig()), 10e-12, grid=grid)
        analyzer.feed(tags[:3])
        analyzer.feed(tags[3:])
        res = analyzer.result()
        assert res.out_of_range == 2
        assert res.histograms[CH_SIGNAL].sum() == res.histograms[CH_IDLER].sum() == 1
        assert max(h.size for h in res.histograms.values()) <= np.ceil(grid.period_ps / 10)

    @pytest.mark.parametrize("time_ps", [2**63, 2**64 - 1])
    def test_time_past_int64_rejected(self, time_ps):
        # Cast to int64 first, 2^64 - 1 read as -1 ps, 12 999 ps after the
        # trigger of pulse -1, and went through a gate that ends there.
        grid = PulseGrid(4, 13000.0)
        analyzer = StreamAnalyzer(GateConfig(1e-9, (12.499e-9,)), grid=grid)
        tags = tag_array([CH_SIGNAL, CH_SIGNAL], [2000, time_ps])
        with pytest.raises(ValueError, match=f"^record 1 of the chunk: time {time_ps} ps "
                                             f"is 2\\^63 ps or more$"):
            analyzer.feed(tags)
        res = analyzer.result()
        assert res.histograms == {} and res.gated_signal.tolist() == [0]
        assert res.out_of_range == 0

    @pytest.mark.parametrize("hist_bin, bin_ps", [(1e-9, 1000), (2e-9, 2000)])
    def test_detection_at_k_bins_goes_to_bin_k(self, hist_bin, bin_ps):
        # 1e-9 * 1e12 is 1000.0000000000001, so a float rule put 1000 ps in bin 0.
        tags = tag_array([CH_SIGNAL] * 4, [bin_ps - 1, bin_ps, 2 * bin_ps, 3 * bin_ps])
        res = analyze_stream(tags, GateConfig(), hist_bin, grid=PulseGrid(2, 13000.0))
        assert res.histograms[CH_SIGNAL].tolist() == [1, 1, 1, 1]
        assert res.hist_bin == bin_ps * 1e-12

    @pytest.mark.parametrize("hist_bin", [0.0, -10e-12, np.nan, np.inf])
    def test_bad_hist_bin_rejected(self, hist_bin):
        with pytest.raises(ValueError, match="hist_bin"):
            StreamAnalyzer(GateConfig(), hist_bin, grid=TWO_PULSES)

    def test_hist_bin_finer_than_a_tag_picosecond_rejected(self):
        # The bin is rounded to whole ps, as the gate width is: 0.4 ps to
        # none, 0.6 ps to one.
        with pytest.raises(ValueError, match="hist_bin"):
            StreamAnalyzer(GateConfig(), 0.4e-12, grid=TWO_PULSES)
        for hist_bin in (0.6e-12, 0.999e-12, 1e-12):
            StreamAnalyzer(GateConfig(), hist_bin, grid=TWO_PULSES)


    def test_histogram_is_sized_once_from_the_period(self):
        # A 100 Hz grid: 10 ps bins over its 1e10 ps period asked numpy for
        # 14.8 GiB in the first chunk that reached late in a pulse.
        grid = PulseGrid(50, 1e10)
        with pytest.raises(ValueError, match=r"^hist_bin of 10 ps cuts the 10000000000.0 ps "
                                             r"period into 1000000001 bins, more than 2\^22$"):
            StreamAnalyzer(GateConfig(), 10e-12, grid=grid)
        analyzer = StreamAnalyzer(GateConfig(), 1e-6, grid=grid)
        analyzer.feed(tag_array([CH_SIGNAL, CH_IDLER], [2000, 2 * 10**10 - 1]))
        assert analyzer.result().histograms[CH_IDLER].size == 10**4

    def test_histogram_holds_the_latest_detection_of_every_pulse(self):
        # The time before each trigger, on a grid whose last trigger is
        # just below 2^53 ps and whose period is no whole ps, in 1 ps bins.
        period = 4097.3
        grid = PulseGrid(int(2**53 // period), period)
        k = np.arange(grid.pulses - 2000, grid.pulses, dtype=np.int64)
        analyzer = StreamAnalyzer(GateConfig(), 1e-12, grid=grid)
        analyzer.feed(tag_array([CH_SIGNAL] * k.size, grid.times((k + 1).astype(float)) - 1))
        res = analyzer.result()
        assert res.out_of_range == 0 and res.histograms[CH_SIGNAL].sum() == k.size
        assert res.histograms[CH_SIGNAL].size <= np.ceil(period)


def whole_ps_slot(gates, rel):
    """The gate slot of a detection ``rel`` whole ps after its trigger, or
    None, by the gate rule in Python ints: the nearest of the sorted
    offsets rounded to whole ps, the earlier one on a midpoint, and inside
    it when |rel - offset| <= w/2, w the gate width rounded to whole ps."""
    offs = sorted(round(o * 1e12) for o in gates.offsets)
    slot = sum(a + b < 2 * rel for a, b in zip(offs, offs[1:]))
    return slot if 2 * abs(rel - offs[slot]) <= round(gates.gate_width * 1e12) else None


def probe_rels(gates, period):
    """Whole ps 0 <= rel < period within 3 ps of each gate's ends, offset
    and midpoint."""
    half = round(gates.gate_width * 1e12) // 2
    offs = sorted(round(o * 1e12) for o in gates.offsets)
    near = {0, *(x for o in offs for x in (o - half, o, o + half)),
            *((a + b) // 2 for a, b in zip(offs, offs[1:]))}
    return sorted({x + d for x in near for d in range(-3, 4) if 0 <= x + d < period})


class TestGateOracle:
    """Each detection's slot against the gate rule, evaluated per
    detection in Python ints."""

    CASES = {
        # The default gates: offsets 2000, 5000 and 8000 ps and a width of
        # 500 ps, so 1750 ps is in the first gate.
        "time-bin": (GateConfig.time_bin(ExperimentConfig()), 13123.359580052494),
        "touching": (GateConfig(2e-9, (1e-9, 3e-9)), 10000.0),
        "touching-three": (GateConfig(2e-9, (1.5e-9, 4.2e-9, 7.7e-9)), 10000.0),
        "odd-offsets": (GateConfig(0.3e-9, (1.23456789e-9, 2.0000000003e-9)), 5000.25),
        "odd-offsets-at-the-trigger": (GateConfig(0.3e-9, (0.15e-9, 0.45e-9, 3.333e-9)),
                                       5000.25),
        "0.4s-at-1Hz": (GateConfig(0.5e-9, (0.4, 0.4 + 3e-9)), 1e12),
        "0.4s-at-1Hz-one-gate": (GateConfig(0.5e-9, (0.4 + 1e-9,)), 1e12),
        # Gates 1 ps wide 1.7e14 ps after the trigger, on a grid of 51
        # pulses whose last probe lies within 2e13 ps of the cap of 2^53 ps.
        "1.7e14-ps": (GateConfig(1e-12, (170.0, 170.0 + 3e-9)), 1.8e14),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_each_detection_gets_the_float_rule_slot(self, case):
        gates, period = self.CASES[case]
        rels = probe_rels(gates, period)
        probes = [(ch, r) for r in rels for ch in (CH_SIGNAL, CH_IDLER)]
        grid = PulseGrid(len(probes) + 1, period)
        # One detection per pulse; a bin longer than any period keeps the
        # histogram to one bin.
        analyzer = StreamAnalyzer(gates, hist_bin=1e5, grid=grid)
        seen = {CH_SIGNAL: 0, CH_IDLER: 0}
        for p, (ch, r) in enumerate(probes):
            analyzer.feed(tag_array([ch], [round(p * period) + r]))
            res = analyzer.result()
            counts = res.gated_signal if ch == CH_SIGNAL else res.gated_idler
            new = counts - seen[ch]
            seen[ch] = counts
            got = int(np.flatnonzero(new)[0]) if new.any() else None
            assert got == whole_ps_slot(gates, r), (ch, r)
        if case == "time-bin":
            assert [whole_ps_slot(gates, r) for r in (1749, 1750, 2250, 2251)] == \
                [None, 0, 0, None]

    def test_gate_structure_grows_with_the_gates_not_their_times(self):
        # Gates 0.4 s after the trigger: a lookup table over the time after
        # the trigger would need 4e11 entries.
        gates, _ = self.CASES["0.4s-at-1Hz"]
        gc.collect()
        tracemalloc.start()
        try:
            StreamAnalyzer(gates, hist_bin=1e-3, grid=PulseGrid(3, 1e12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_pile_up_in_one_pulse_takes_linear_work(self):
        # 2^18 gated detections in one pulse make 2^34 pairs; they must be
        # counted from slot counts, and an open pulse carried across 256
        # chunks must cost about what a spread-out stream does.
        gates = GateConfig.time_bin(ExperimentConfig())
        n = 1 << 18
        rng = np.random.default_rng(3)
        rel = np.sort(rng.choice([2000, 5000, 8000], n) + rng.integers(-240, 241, n))
        channels = rng.integers(0, 2, n).astype(np.uint8)
        period = 13123.359580052494

        def fed(times, chunks):
            analyzer = StreamAnalyzer(gates, grid=PulseGrid(n + 2, period))
            start = time.perf_counter()
            for part in np.array_split(tag_array(channels, times), chunks):
                analyzer.feed(part)
            res = analyzer.result()
            return res, time.perf_counter() - start

        trigger = round(period)  # all of pulse 1
        res, _ = fed(trigger + rel, 1)
        slots = [whole_ps_slot(gates, r) for r in range(1500, 8500)]
        counts = [np.bincount([slots[r - 1500] for r in rel[channels == ch]], minlength=3)
                  for ch in (CH_SIGNAL, CH_IDLER)]
        np.testing.assert_array_equal(res.joint, np.outer(*counts))
        assert res.neighbor_joint.sum() == 0
        spread = np.round(np.arange(1, n + 1) * period).astype(np.int64) + rel
        pile_up = min(fed(trigger + rel, 256)[1] for _ in range(2))
        spread_out = min(fed(spread, 256)[1] for _ in range(2))
        assert pile_up < 3 * spread_out


class TestAnalysisResult:
    @staticmethod
    def build(n_triggers, duration):
        empty = np.zeros(1, dtype=np.int64)
        return AnalysisResult(histograms={}, hist_bin=10e-12, gated_signal=empty,
                              gated_idler=empty, joint=np.zeros((1, 1), dtype=np.int64),
                              neighbor_joint=np.zeros((1, 1), dtype=np.int64),
                              n_triggers=n_triggers, duration=duration,
                              dropped_pre_trigger=0, out_of_range=0)

    def test_two_triggers_over_a_positive_duration_accepted(self):
        assert self.build(2, 26e-9).rate_report().trigger_rate == pytest.approx(2 / 26e-9)

    @pytest.mark.parametrize("n_triggers, duration", [
        (0, 0.0), (1, 13e-9), (2, 0.0), (2, -1.0), (2, np.nan),
    ])
    def test_rejects_result_without_duration(self, n_triggers, duration):
        with pytest.raises(ValueError):
            self.build(n_triggers, duration)


class TestCoincidences:
    def test_five_delay_peaks(self):
        cfg = ExperimentConfig(duration=0.02, mean_pairs_per_pulse=0.05,
                               phi_s=np.pi, rng_seed=35)
        d = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg),
                           grid=PulseGrid.of(cfg)).delay_counts
        assert set(d) == {-2, -1, 0, 1, 2}
        # fringe maximum: central peak carries 2x each single satellite
        # peak, and the outer delays are accidental-level
        assert d[0] > 1.5 * (d[1] / 2 + d[-1] / 2)
        assert d[2] + d[-2] < 0.05 * d[0]

    def test_fringe_minimum_central_suppressed(self):
        cfg = ExperimentConfig(duration=0.05, mean_pairs_per_pulse=0.01,
                               phi_s=0.0, rng_seed=36)
        res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg), grid=PulseGrid.of(cfg))
        satellites = res.joint[0, 0] + res.joint[2, 2]
        assert res.joint[1, 1] < 0.05 * satellites

    def test_accidental_diagnostic_matches_poisson_rate(self):
        # uncorrelated darks: same-pulse and neighbor-pulse coincidences
        # agree within errors
        cfg = ExperimentConfig(rep_rate=1e5, duration=1.0,
                               mean_pairs_per_pulse=0.0,
                               dark_rate_signal=2e4, dark_rate_idler=2e4,
                               detection_delay=5e-6, rng_seed=37)
        gates = GateConfig(gate_width=5e-6, offsets=(5e-6,))
        res = analyze_stream(iter_simulate_single_bin(cfg), gates, grid=PulseGrid.of(cfg))
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
                             GateConfig.single_bin(cfg), grid=PulseGrid.of(cfg))
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

    @pytest.mark.parametrize("lo, hi", [(0.05, 0.8), (np.log(0.05), np.log(0.8))],
                             ids=["linear", "log"])
    def test_line_fit_matches_polyfit(self, lo, hi):
        rng = np.random.default_rng(43)
        for n in (3, 5, 12):
            for _ in range(20):
                x = np.sort(rng.uniform(lo, hi, n))
                y = -1.3 * x + 0.4 + rng.normal(0.0, 0.05, n)
                coef, cov = np.polyfit(x, y, 1, cov=True)
                np.testing.assert_allclose(_linfit(x, y),
                                           [*coef, *np.sqrt(np.diag(cov))], rtol=1e-10)

    def test_needs_three_distinct_powers(self):
        pts = self.synthetic_points()[:2]
        with pytest.raises(ValueError):
            power_series_fit(pts)


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

    def test_rejects_rate_that_is_not_finite(self):
        phases = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        scan = self.scan(10.0, 0.5, 0.0, phases)
        scan.counts[3] = np.nan
        with pytest.raises(ValueError):
            fit_fringe(scan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_phase_that_is_not_finite(self, bad):
        phases = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        scan = self.scan(10.0, 0.5, 0.0, phases)
        scan.phases[3] = bad
        with pytest.raises(ValueError, match="phases that are not finite"):
            fit_fringe(scan)

    def test_visibility_stays_in_unit_interval(self):
        rng = np.random.default_rng(40)
        phases = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        fit = fit_fringe(self.scan(5.0, 0.99, 0.0, phases, t=1.0, rng=rng))
        assert 0.0 <= fit.visibility.value <= 1.0

    @pytest.mark.parametrize("clamped", [False, True], ids=["interior", "clamped"])
    @pytest.mark.parametrize("phases", [np.linspace(0, 2 * np.pi, 12, endpoint=False),
                                        np.array([0.0, 0.4, 1.1, 1.5, 2.6, 3.3, 4.0, 5.2, 5.9])],
                             ids=["even12-unweighted", "uneven9-unweighted"])
    def test_matches_curve_fit_oracle(self, phases, clamped):
        # Interior scans have true V in [0, 0.95]; clamped ones are V = 1
        # scans whose unconstrained linear fit gives V > 1.  The ids and
        # the 0 in each seed are those of the unweighted cases from when
        # the fit also took Poisson weights.
        rng = np.random.default_rng([phases.size, 0, clamped])
        design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
        done = 0
        while done < (6 if clamped else 50):
            amp = rng.uniform(20.0, 60.0) if clamped else rng.uniform(50.0, 500.0)
            vis = 1.0 if clamped else rng.uniform(0.0, 0.95)
            phi0 = rng.uniform(-np.pi, np.pi)
            t = rng.uniform(0.5, 2.0, phases.size)
            counts = rng.poisson(amp * t * (1.0 - vis * np.cos(phases + phi0))).astype(float)
            a, b, c = np.linalg.lstsq(design, counts / t, rcond=None)[0]
            if (a <= 0 or np.hypot(b, c) > a) != clamped:
                continue
            done += 1
            fit = fit_fringe(FringeScan(phases, counts, t))
            vis_o, err_o, phi0_o, amp_o = oracle_fit_fringe(phases, counts, t)
            if clamped:
                assert fit.visibility.value == 1.0
                assert vis_o == pytest.approx(1.0, abs=1e-12)
            else:
                assert fit.visibility.value == pytest.approx(vis_o, rel=1e-6)
            assert fit.visibility.error == pytest.approx(err_o, rel=1e-5 if clamped else 1e-6)
            assert fit.amplitude == pytest.approx(amp_o, rel=1e-6)
            dphi = (fit.phase_offset - phi0_o + np.pi) % (2 * np.pi) - np.pi
            assert abs(dphi) < 1e-6

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
            fit = fit_fringe(self.scan(amp, vis, phi0, phases, rng=rng))
            if abs(fit.visibility.value - vis) <= 3 * fit.visibility.error:
                hits += 1
        assert hits >= 990


class TestStreamingEquivalence:
    def test_chunked_feed_matches_single_pass(self):
        cfg = ExperimentConfig(duration=5e-3, mean_pairs_per_pulse=0.05,
                               dark_rate_signal=1e4, dark_rate_idler=1e4,
                               rng_seed=42)
        tags, grid = detections(cfg), PulseGrid.of(cfg)
        gates = GateConfig.time_bin(cfg)
        whole = analyze_stream(tags, gates, grid=grid)
        an = StreamAnalyzer(gates, grid=grid)
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
        # A detection at a trigger's time belongs to that trigger's pulse,
        # and a chunk boundary just after it must not change that.
        tags, grid = detections(cfg), PulseGrid.of(cfg)
        cuts = tie_cuts(tags, grid)
        assert cuts.size > 0
        gates = run_gates(cfg)
        if cfg.detection_delay == 0:  # the first gate opens on the ties' picosecond
            ties = analyze_stream(tags[cuts - 1], gates, grid=grid)
            assert ties.gated_signal[0] + ties.gated_idler[0] == cuts.size
        an = StreamAnalyzer(gates, grid=grid)
        for part in np.split(tags, cuts):
            an.feed(part)
        assert_same_result(an.result(), analyze_stream(tags, gates, grid=grid))


class TestBoundedMemory:
    def test_retained_memory_does_not_grow_with_stream_length(self):
        cfg = ExperimentConfig(duration=1e-3, mean_pairs_per_pulse=0.3,
                               dark_rate_signal=1e5, dark_rate_idler=1e5,
                               rng_seed=11)
        chunks = np.array_split(detections(cfg), 8)
        gates = GateConfig.time_bin(cfg)

        def retained(parts):
            gc.collect()
            tracemalloc.start()
            try:
                an = StreamAnalyzer(gates, grid=PulseGrid.of(cfg))
                for part in parts:
                    an.feed(part)
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # 8x the gated events (about 2800 per chunk); the histograms may
        # still lengthen by a few hundred bins
        assert retained(chunks) < retained(chunks[:1]) + 16 * 1024

    def test_grid_chunk_leaves_no_copy_of_itself_behind(self):
        # One 2^18-detection chunk of a fringe scan at mu = 0.3: between
        # chunks the fold keeps counts, not slices of the chunk's arrays.
        cfg = ExperimentConfig(duration=0.014, mean_pairs_per_pulse=0.3,
                               interference_visibility=0.95, rng_seed=11)
        chunk = next(iter_simulate(cfg))[:1 << 18]
        assert chunk.size == 1 << 18
        gc.collect()
        tracemalloc.start()
        try:
            analyzer = StreamAnalyzer(GateConfig.time_bin(cfg), grid=PulseGrid.of(cfg))
            analyzer.feed(chunk)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        histograms = sum(h.nbytes for h in analyzer.result().histograms.values())
        assert retained < 64 * 1024 + histograms

    def test_histogram_step_costs_its_detections_not_the_span(self):
        # A 100 Hz grid in 2.4 ns bins: 4.2 M bins, 64 MiB of histogram.  A
        # fold step that counted into a fresh array of the whole span would
        # allocate as much again.
        grid = PulseGrid(50, 1e10)
        analyzer = StreamAnalyzer(GateConfig(), 2.4e-9, grid=grid)
        rng = np.random.default_rng(1)
        chunk = tag_array(rng.integers(0, 2, 1 << 15),
                          np.sort(rng.integers(0, 50 * 10**10, 1 << 15)))
        gc.collect()
        tracemalloc.start()
        try:
            analyzer.feed(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_result_costs_its_tables_not_a_copy(self):
        # The same 64 MiB histogram: result() copies out what it returns,
        # the trimmed histograms, and no more.  A copy of the analyzer
        # would cost the whole histogram again.
        analyzer = StreamAnalyzer(GateConfig(), 2.4e-9, grid=PulseGrid(50, 1e10))
        rng = np.random.default_rng(1)
        analyzer.feed(tag_array(rng.integers(0, 2, 1 << 15),
                                np.sort(rng.integers(0, 50 * 10**10, 1 << 15))))
        gc.collect()
        tracemalloc.start()
        try:
            result = analyzer.result()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(h.nbytes for h in result.histograms.values()) + 2 * 2**20


class TestMaxVisibility:
    def test_reference_car(self):
        assert max_visibility_from_car(530.0) == pytest.approx(0.99623, abs=5e-5)

    def test_limits(self):
        assert max_visibility_from_car(1.0) == 0.0
        assert max_visibility_from_car(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_sub_unity(self):
        with pytest.raises(ValueError):
            max_visibility_from_car(0.5)
