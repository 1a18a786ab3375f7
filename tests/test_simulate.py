import bisect
import dataclasses
import hashlib
import inspect
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import timebin

from timebin import simulate, streams
from timebin.analysis import GateConfig, analyze_stream, car
from timebin.streams import iter_read_tags, write_tags
from timebin.simulate import (BLOCK_PULSES, CH_SIGNAL, CH_TRIGGER, ExperimentConfig,
                              PulseGrid, _detected, _draw_outcomes, _outcome_table,
                              iter_simulate, iter_simulate_single_bin)

from conftest import full_stream
from slot_oracle import hand_written_slot_weights


def monitored(phi_p, phi_s, phi_i, v0):
    """The joint slot table of ``_outcome_table`` with both photons at the
    monitored ports, and the signal and idler singles marginals."""
    probs, s_slot, i_slot, s_mon, i_mon = _outcome_table(phi_p, phi_s, phi_i, v0)
    both = s_mon & i_mon
    joint = np.zeros((3, 3))
    joint[s_slot[both], i_slot[both]] = probs[both]
    return (joint, np.bincount(s_slot[s_mon], weights=probs[s_mon], minlength=3),
            np.bincount(i_slot[i_mon], weights=probs[i_mon], minlength=3))


class TestJointSlotDistribution:
    """The outcome table at the monitored ports against the hand-written law."""

    def test_matches_hand_written_weights(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            phases = rng.uniform(-10.0, 10.0, 3)
            v0 = rng.uniform()
            joint, signal, idler = monitored(*phases, v0)
            want_joint, marginal = hand_written_slot_weights(*phases, v0)
            np.testing.assert_array_equal(joint, want_joint)
            # summing the two central-slot ports may round by one ulp
            np.testing.assert_allclose(signal, marginal, rtol=0, atol=1e-16)
            np.testing.assert_allclose(idler, marginal, rtol=0, atol=1e-16)

    def test_fringe_maximum(self):
        joint = monitored(0.0, np.pi, 0.0, 1.0)[0]
        assert joint[1, 1] == pytest.approx(2.0 / 16.0)
        assert joint[1, 1] == pytest.approx(4 * joint[0, 0])

    def test_fringe_minimum(self):
        joint = monitored(0.0, 0.0, 0.0, 1.0)[0]
        assert joint[1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_singles_marginal_ratios(self):
        for phases in [(0.0, 0.0, 0.0), (0.3, 1.2, 2.0), (1.0, np.pi, 0.5)]:
            for marginal in monitored(*phases, v0=0.9)[1:]:
                assert marginal[1] == pytest.approx(2 * marginal[0])
                assert marginal[1] == pytest.approx(2 * marginal[2])

    def test_forbidden_corners_and_equal_satellites(self):
        joint = monitored(0.4, 1.0, 2.5, 0.8)[0]
        assert joint[0, 2] == 0.0
        assert joint[2, 0] == 0.0
        sats = [joint[s, i] for s, i in
                ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2))]
        assert np.ptp(sats) == 0.0

    def test_full_outcome_table_normalized(self):
        probs, s_slot, i_slot, s_mon, i_mon = _outcome_table(0.0, 0.7, 0.2, 0.95)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)
        # no pair outcome ever lands in the forbidden corner slots
        assert not np.any((s_slot == 0) & (i_slot == 2))
        assert not np.any((s_slot == 2) & (i_slot == 0))

    def test_outcome_table_matches_monitored_joint(self):
        probs, s_slot, i_slot, s_mon, i_mon = _outcome_table(0.1, 2.0, 0.4, 0.9)
        joint, _ = hand_written_slot_weights(0.1, 2.0, 0.4, 0.9)
        for s in range(3):
            for i in range(3):
                sel = (s_slot == s) & (i_slot == i) & s_mon & i_mon
                assert probs[sel].sum() == pytest.approx(joint[s, i])

    def test_outcome_table_matches_singles_marginal(self):
        probs, s_slot, i_slot, s_mon, i_mon = _outcome_table(0.6, 1.1, 2.9, 1.0)
        _, marginal = hand_written_slot_weights(0.6, 1.1, 2.9, 1.0)
        for s in range(3):
            assert probs[(s_slot == s) & s_mon].sum() == pytest.approx(marginal[s])
            assert probs[(i_slot == s) & i_mon].sum() == pytest.approx(marginal[s])


def choice_cdf(probs):
    """The cdf that ``Generator.choice(p=probs)`` searches."""
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


class StubGenerator:
    """Hands out given uniforms as ``random`` draws."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)

    def random(self, n):
        assert n == self.uniforms.size
        return self.uniforms.copy()


def random_tables():
    rng = np.random.default_rng(7)
    tables = [rng.random(n) for n in (1, 2, 3, 28, 200)]
    tables += [rng.random(28) ** 8, rng.random(28) * 1e-9]  # skewed, tiny
    for zeros in ([0], [27], [0, 1, 2], [5, 6, 20], [1, 3, 5, 7, 26, 27]):
        p = rng.random(28)
        p[zeros] = 0.0
        tables.append(p)
    return [p / p.sum() for p in tables]


class TestOutcomeDraw:
    """``_draw_outcomes`` against ``Generator.choice``, its oracle."""

    @staticmethod
    def assert_matches_choice(probs, n, seed):
        mine, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_outcomes(mine, probs, n)
        want = numpy_rng.choice(probs.size, size=n, p=probs)
        np.testing.assert_array_equal(got, want)
        # the same number of draws was taken
        assert mine.random() == numpy_rng.random()

    @pytest.mark.parametrize("v0", [0.0, 0.5, 0.95, 1.0])
    def test_outcome_tables_match_choice(self, v0):
        for k, delta in enumerate(np.linspace(0.0, 2 * np.pi, 13)):
            probs = _outcome_table(0.0, delta, 0.0, v0)[0]
            self.assert_matches_choice(probs, 20000, seed=k)

    def test_zero_probability_outcomes_never_drawn(self):
        for delta in (0.0, np.pi):
            probs = _outcome_table(0.0, delta, 0.0, 1.0)[0]
            assert (probs == 0).sum() == 2
            got = _draw_outcomes(np.random.default_rng(3), probs, 100000)
            assert np.all(probs[got] > 0)

    def test_single_bin_law_draws_nothing(self):
        mine, numpy_rng = np.random.default_rng(5), np.random.default_rng(5)
        np.testing.assert_array_equal(_draw_outcomes(mine, None, 7), numpy_rng.choice(1, 7))
        assert mine.random() == numpy_rng.random()

    @pytest.mark.parametrize("probs", random_tables(), ids=lambda p: f"{p.size}-rows")
    def test_random_tables_match_choice(self, probs):
        self.assert_matches_choice(probs, 5000, seed=probs.size)
        self.assert_matches_choice(probs, 0, seed=1)

    @pytest.mark.parametrize("probs", random_tables() + [
        _outcome_table(0.0, d, 0.0, v0)[0] for d in (0.0, 1.0, np.pi) for v0 in (0.5, 1.0)
    ], ids=lambda p: f"{p.size}-rows")
    def test_uniforms_at_every_cdf_entry_and_its_neighbours(self, probs):
        cdf = choice_cdf(probs)
        edges = np.concatenate([cdf, np.arange(4097) / 4096])
        u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = _draw_outcomes(StubGenerator(u), probs, u.size)
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))


def field_stem(value):
    """The id of a test parameter: a field by its name less its unit
    suffix, so the ids stay those the suite has always printed."""
    return re.sub(r"_(hz|s|w|rad)$", "", value) if isinstance(value, str) else None


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    @pytest.mark.parametrize("field,value", [
        ("eta_signal", 1.4), ("eta_idler", -0.1), ("duration_s", -1.0),
        ("mean_pairs_per_pulse", -0.5), ("interference_visibility", 2.0),
        ("rep_rate_hz", 0.0), ("phi_p_rad", np.inf),
    ], ids=field_stem)
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_accepts_bins_past_the_period(self):
        # The config knows no gate: whether a run's gates fit its period is
        # the analyzer's to check, against the gates it is given.
        ExperimentConfig(bin_delay_s=6e-9)

    @pytest.mark.parametrize("field, value, total", [
        ("duration_s", 1e4, "1e+16"), ("detection_delay_s", 1e4, "1e+16"),
        ("bin_delay_s", 5e3, "1e+16"), ("jitter_sigma_s", 1e7, "1e+20"),
    ], ids=field_stem)
    def test_rejects_times_past_2_to_the_53_ps(self, field, value, total):
        # duration_s + detection_delay_s + 2 bin_delay_s + 10 jitter_sigma_s: the
        # bound the grid keeps on its triggers.  Past it the error names the
        # largest term.
        with pytest.raises(ValueError, match=f"^{field} = {value!r} puts detections up to "
                                             f"{re.escape(total)} ps into the run, 2\\^53 ps"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("rep_rate_hz", np.nan), ("duration_s", np.nan), ("duration_s", np.inf),
        ("dark_rate_signal_hz", np.nan), ("mean_pairs_per_pulse", np.nan),
        ("pair_yield_per_watt", np.inf), ("bin_delay_s", "3e-9"), ("rng_seed", "7"),
        ("pair_yield_per_watt", [1.0]), ("rep_rate_hz", None), ("duration_s", True),
        ("rng_seed", True), pytest.param("duration_s", 10**400, id="duration-10**400"),
    ], ids=field_stem)
    def test_rejects_value_that_is_not_a_finite_number(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("mean_pairs_per_pulse", 1e9), ("dark_rate_signal_hz", 1e15), ("dark_rate_idler_hz", 1e15),
        ("mean_pairs_per_pulse", 16.5), ("dark_rate_idler_hz", 1.3e9),
    ], ids=field_stem)
    def test_rejects_rates_past_the_block_draw_bound(self, field, value):
        with pytest.raises(ValueError, match=f"{field} = .* more than 2\\^24"):
            ExperimentConfig(**{field: value, "duration_s": 1.0})

    def test_rejects_yield_past_the_block_draw_bound(self):
        # The yield describes the pair rate; the bound names the rate.
        with pytest.raises(ValueError, match="mean_pairs_per_pulse = 1000000000.0 "):
            ExperimentConfig(mean_pairs_per_pulse=1e9, pair_yield_per_watt=1e9, pump_power_w=1.0)

    def test_largest_rates_in_use_stay_valid(self):
        # mu = 2 with 1e8 darks/s per arm, the largest rates of the tests,
        # demos and benchmark workloads, over full blocks and a short run;
        # 9000 s is about the longest run whose detections stay below 2^53 ps
        for duration in (1e-3, 1.0, 9000.0):
            ExperimentConfig(duration_s=duration, mean_pairs_per_pulse=2.0,
                             dark_rate_signal_hz=1e8, dark_rate_idler_hz=1e8)

    def test_accepts_any_integer_seed(self):
        assert ExperimentConfig(rng_seed=10**40).rng_seed == 10**40

    @pytest.mark.parametrize("seed", [-1, 2.0, True + 0.5])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            ExperimentConfig(rng_seed=seed)

    def test_copies_are_checked_too(self):
        with pytest.raises(ValueError, match="pump_power_w"):
            dataclasses.replace(ExperimentConfig(), pump_power_w=-1.0)

    def test_rejects_negative_yield(self):
        # A yield of -1 agrees with a pair rate of 0 at zero power, so the
        # agreement rule alone let it through.
        with pytest.raises(ValueError, match="^pair_yield_per_watt must be non-negative$"):
            ExperimentConfig(mean_pairs_per_pulse=0.0, pair_yield_per_watt=-1.0, pump_power_w=0.0)
        ExperimentConfig(mean_pairs_per_pulse=0.0, pair_yield_per_watt=0.0, pump_power_w=0.0)

    def test_yield_times_power_must_equal_the_pair_rate(self):
        # mean_pairs_per_pulse is the rate drawn; a yield that disagrees
        # used to win without a word.  0.1 * 0.3 misses 0.03 by one ulp.
        ExperimentConfig(mean_pairs_per_pulse=0.03, pair_yield_per_watt=0.1, pump_power_w=0.3)
        ExperimentConfig(mean_pairs_per_pulse=0.0, pair_yield_per_watt=2.0, pump_power_w=0.0)
        for mean, power in ((0.5, 0.25 * (1 + 1e-8)), (0.5, 0.2), (0.5, 0.0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"pair_yield_per_watt * pump_power_w = 2.0 * {power!r} disagrees with "
                    f"mean_pairs_per_pulse = {mean!r}")):
                ExperimentConfig(mean_pairs_per_pulse=mean, pair_yield_per_watt=2.0,
                                 pump_power_w=power)


class TestPulseGrid:
    @pytest.mark.parametrize("pulses, period", [
        (1, 1000.0), (2.0, 1000.0), ("7620", 1000.0), (True, 1000.0), (2**53 + 1, 1000.0),
        (7620, 0.0), (7620, -1000.0), (7620, np.nan), (7620, np.inf), (7620, "1000"),
        (7620, True), (2**40, 2.0**30), (2, 2.0**63), (2, 10**400),
        (2**20, 1.0 - 2**-40), (2**20, 0.999),
        # Past 2^53 ps floats are 2 ps or more apart: near the end of these
        # grids consecutive triggers would lie 0 or 1024 ps apart, and 0 or 2.
        (2**53, 1000.0), (2**53, 1.5),
        (2**53, 1000.3), (1000, (2**63 - 2**12) / 999), (2, 2.0**63 - 2**11),
        (2**53 + 1, 1.0), (2, 2.0**53), (6004799503160662, 1.5),
    ], ids=["one-pulse", "float-count", "string-count", "bool-count", "count-past-2^53",
            "zero-period", "negative-period", "nan-period", "inf-period", "string-period",
            "bool-period", "last-trigger-past-2^63", "last-trigger-at-2^63",
            "huge-int-period", "below-1ps", "0.999ps",
            "2^53-pulses-of-1000ps", "2^53-pulses-of-1.5ps",
            "2^53-pulses", "near-2^63", "two-near-2^63",
            "last-trigger-at-2^53", "two-at-2^53", "last-trigger-rounds-to-2^53"])
    def test_rejects_a_grid_outside_its_rules(self, pulses, period):
        with pytest.raises(ValueError, match="grid"):
            PulseGrid(pulses, period)

    def test_count_and_period_are_normalized(self):
        grid = PulseGrid(np.int64(2**43), 1000)
        assert type(grid.pulses) is int and type(grid.period_ps) is float
        assert grid == PulseGrid(2**43, 1000.0)

    # The largest grids of some periods: one more pulse puts the last
    # trigger at 2^53 ps or more.
    LARGEST = [(2**53, 1.0), (6004799503160661, 1.5), (9007199254741, 1000.0),
               (686348583212, 13123.359580052494)]
    LARGEST_IDS = ["largest-1ps", "largest-1.5ps", "largest-1000ps", "largest-76.2MHz"]

    @pytest.mark.parametrize("pulses, period", LARGEST, ids=LARGEST_IDS)
    def test_largest_grid_keeps_its_triggers_apart(self, pulses, period):
        grid = PulseGrid(pulses, period)
        times = grid.times(np.arange(pulses - 10**4, pulses))
        assert times[-1] < 2**53
        assert np.all(np.diff(times) >= 1)
        with pytest.raises(ValueError, match="2\\^53 ps or more"):
            PulseGrid(pulses + 1, period)

    @pytest.mark.parametrize("pulses, period", [
        (7620, 13123.359580052494),          # 76.2 MHz
        (2**20, 1.0), (2**20, 1.0 + 2**-40),
        *LARGEST,
        *((int(n), float(p)) for n, p in zip(
            np.random.default_rng(7).integers(2, 10**6, 6),
            np.random.default_rng(8).uniform(1.0, 1e7, 6))),
    ], ids=["76.2MHz", "1ps", "above-1ps", *LARGEST_IDS,
            *(f"random-{k}" for k in range(6))])
    def test_index_matches_bisect_over_trigger_times(self, pulses, period):
        # Trigger k is at round(k * period) ps, in Python floats (round half
        # to even, as numpy rounds); the latest one at or before t is found
        # by bisection over those times.
        grid = PulseGrid(pulses, period)

        def trigger(k):
            return round(k * grid.period_ps)

        ks = sorted({*range(min(3, pulses)), *range(max(pulses - 3, 0), pulses),
                     *np.random.default_rng(pulses).integers(0, pulses, 40).tolist()})
        t = sorted({trigger(k) + d for k in ks for d in (-1, 0, 1)} | {-1, 2**63 - 1})
        expect = [bisect.bisect_right(range(pulses), ti, key=trigger) - 1 for ti in t]
        pulse, rel = grid.locate(np.array(t, dtype=np.int64))
        np.testing.assert_array_equal(pulse, expect)
        np.testing.assert_array_equal(rel, [ti - trigger(k) for ti, k in zip(t, expect)])

    @pytest.mark.parametrize("sim", [iter_simulate, iter_simulate_single_bin],
                             ids=["time-bin", "single-bin"])
    def test_run_shorter_than_two_pulses_rejected(self, sim):
        with pytest.raises(ValueError, match="grid pulse count 1"):
            next(sim(ExperimentConfig(duration_s=1e-8)))


class TestSimulate:
    def test_no_pairs_no_darks_gives_only_triggers(self):
        cfg = ExperimentConfig(duration_s=1e-4, mean_pairs_per_pulse=0.0, rng_seed=1)
        tags = full_stream(iter_simulate, cfg)
        assert np.all(tags["channel"] == CH_TRIGGER)
        assert tags.size == int(round(cfg.duration_s * cfg.rep_rate_hz))

    def test_one_trigger_per_pulse_period(self):
        cfg = ExperimentConfig(duration_s=1e-4, mean_pairs_per_pulse=0.2, rng_seed=2)
        tags = full_stream(iter_simulate, cfg)
        trig = tags[tags["channel"] == CH_TRIGGER]["time_ps"].astype(np.int64)
        period = 1e12 / cfg.rep_rate_hz
        assert trig.size == int(round(cfg.duration_s * cfg.rep_rate_hz))
        np.testing.assert_array_equal(np.diff(trig) > 0.9 * period, True)

    def test_stream_is_sorted(self):
        cfg = ExperimentConfig(duration_s=2e-3, mean_pairs_per_pulse=0.1,
                               dark_rate_signal_hz=5e4, dark_rate_idler_hz=5e4, rng_seed=3)
        tags = full_stream(iter_simulate, cfg)
        t = tags["time_ps"].astype(np.int64)
        assert np.all(np.diff(t) >= 0)

    @pytest.mark.parametrize("sim", [iter_simulate, iter_simulate_single_bin],
                             ids=["time-bin", "single-bin"])
    @pytest.mark.parametrize("cfg", [
        # photons of a block's first pulse jittered before the block's
        # start, ahead of dark counts late in the previous block
        *(ExperimentConfig(duration_s=1e-3, mean_pairs_per_pulse=2.0,
                           jitter_sigma_s=2e-9, detection_delay_s=0.0,
                           dark_rate_signal_hz=1e8, dark_rate_idler_hz=1e8,
                           rng_seed=seed) for seed in (1, 2)),
        # jitter beyond a pulse period, ahead of the previous block's
        # last triggers
        ExperimentConfig(duration_s=1e-3, mean_pairs_per_pulse=0.05,
                         jitter_sigma_s=20e-9, detection_delay_s=0.0, rng_seed=1),
    ], ids=["early-photons-1", "early-photons-2", "wide-jitter"])
    def test_sorted_across_block_boundaries(self, monkeypatch, cfg, sim):
        # 4096-pulse blocks put 18 block boundaries into 1 ms
        monkeypatch.setattr("timebin.simulate.BLOCK_PULSES", 1 << 12)
        tags = full_stream(sim, cfg)
        t = tags["time_ps"].astype(np.int64)
        assert np.all(np.diff(t) >= 0)
        n_pulses = int(round(cfg.duration_s * cfg.rep_rate_hz))
        np.testing.assert_array_equal(
            t[tags["channel"] == CH_TRIGGER],
            np.round(np.arange(n_pulses) * (1e12 / cfg.rep_rate_hz)))

    def test_deterministic_replay(self):
        cfg = ExperimentConfig(duration_s=1e-3, mean_pairs_per_pulse=0.1,
                               dark_rate_signal_hz=1e4, rng_seed=77)
        a, b = full_stream(iter_simulate, cfg), full_stream(iter_simulate, cfg)
        assert a.tobytes() == b.tobytes()

    def test_chunked_equals_whole(self, tmp_path):
        # The reader's trigger view, in chunks of 1000 tags, is the whole stream.
        cfg = ExperimentConfig(duration_s=1e-3, mean_pairs_per_pulse=0.1, rng_seed=5)
        whole = full_stream(iter_simulate, cfg)
        path = tmp_path / "run.tags"
        write_tags(path, iter_simulate(cfg), cfg.to_dict())
        it = iter_read_tags(path, chunk_records=1000)
        next(it)
        chunked = np.concatenate(list(it))
        assert whole.tobytes() == chunked.tobytes()

    def test_rejects_invalid_config_before_output(self):
        with pytest.raises(ValueError):
            iter_simulate(ExperimentConfig(eta_signal=2.0))

    def test_signal_singles_rate_matches_monitored_mass(self):
        # marginal monitored mass is 1/8 + 1/4 + 1/8 = 1/2 per photon
        cfg = ExperimentConfig(duration_s=0.02, mean_pairs_per_pulse=0.01, rng_seed=6)
        tags = np.concatenate(list(iter_simulate(cfg)))
        n_signal = int(np.count_nonzero(tags["channel"] == CH_SIGNAL))
        expected = cfg.rep_rate_hz * cfg.duration_s * cfg.mean_pairs_per_pulse * 0.5
        assert abs(n_signal - expected) < 3 * np.sqrt(expected)

    def test_empirical_joint_matches_distribution(self):
        cfg = ExperimentConfig(duration_s=0.3, mean_pairs_per_pulse=0.005,
                               phi_s_rad=2.0, phi_i_rad=0.7, phi_p_rad=0.4,
                               interference_visibility=0.85, rng_seed=8)
        res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg),
                             grid=PulseGrid.of(cfg))
        joint, _ = hand_written_slot_weights(cfg.phi_p_rad, cfg.phi_s_rad, cfg.phi_i_rad,
                                             cfg.interference_visibility)
        n_pairs = cfg.rep_rate_hz * cfg.duration_s * cfg.mean_pairs_per_pulse
        for s in range(3):
            for i in range(3):
                if (s, i) in ((0, 2), (2, 0)):
                    continue  # accidental-only cells, checked separately
                expected = n_pairs * joint[s, i]
                sigma = np.sqrt(max(expected, 1.0))
                assert abs(res.joint[s, i] - expected) < 4 * sigma + 4, (s, i)

    def test_corner_slots_accidentals_only(self):
        cfg = ExperimentConfig(duration_s=0.05, mean_pairs_per_pulse=0.002,
                               phi_s_rad=np.pi, rng_seed=9)
        res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg),
                             grid=PulseGrid.of(cfg))
        # pair-origin coincidences never reach the corners; only the
        # O(mu^2) multi-pair accidentals can, as in the offset-pulse rate
        accidental_scale = res.neighbor_joint.sum() + 1
        assert res.joint[0, 2] + res.joint[2, 0] <= 5 * accidental_scale

    def test_zero_visibility_removes_phase_dependence(self):
        counts = []
        for phi in (0.0, np.pi / 2, np.pi, 4.0):
            cfg = ExperimentConfig(duration_s=0.01, mean_pairs_per_pulse=0.02,
                                   phi_s_rad=phi, interference_visibility=0.0,
                                   rng_seed=10)
            res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg),
                                 grid=PulseGrid.of(cfg))
            counts.append(res.joint[1, 1])
        spread = max(counts) - min(counts)
        assert spread < 3 * np.sqrt(np.mean(counts)) * np.sqrt(2)


class TestSingleBin:
    def test_single_peak_structure(self):
        cfg = ExperimentConfig(duration_s=5e-3, mean_pairs_per_pulse=0.05, rng_seed=11)
        tags = np.concatenate(list(iter_simulate_single_bin(cfg)))
        res = analyze_stream(tags, GateConfig.single_bin(cfg), grid=PulseGrid.of(cfg))
        # all detections fall in the one configured gate (the 250 ps
        # half-width is 5 jitter sigmas, so allow a stray tag or two)
        n_signal = int(np.count_nonzero(tags["channel"] == CH_SIGNAL))
        assert res.gated_signal.sum() >= n_signal - 2
        assert res.joint.shape == (1, 1)

    def test_car_inverse_mu(self):
        cfg = ExperimentConfig(duration_s=0.05, mean_pairs_per_pulse=0.001, rng_seed=12)
        res = analyze_stream(iter_simulate_single_bin(cfg),
                             GateConfig.single_bin(cfg), grid=PulseGrid.of(cfg))
        value = car(res.rate_report()).value
        assert value == pytest.approx(1000.0, rel=0.10)

    def test_darks_only_car_near_one(self):
        cfg = ExperimentConfig(rep_rate_hz=1e5, duration_s=0.5,
                               mean_pairs_per_pulse=0.0,
                               dark_rate_signal_hz=2e4, dark_rate_idler_hz=2e4,
                               detection_delay_s=5e-6, rng_seed=13)
        gates = GateConfig(gate_width=5e-6, offsets=(5e-6,))
        res = analyze_stream(iter_simulate_single_bin(cfg), gates, grid=PulseGrid.of(cfg))
        q = car(res.rate_report())
        assert abs(q.value - 1.0) < 3 * q.error


class TestGoldenStreams:
    """SHA-256 of simulated streams, pinned so refactors keep them byte-identical."""

    def test_time_bin_stream(self):
        # two generation blocks, so the carry of late events is covered
        cfg = ExperimentConfig(duration_s=0.015, mean_pairs_per_pulse=0.01,
                               phi_p_rad=0.4, phi_s_rad=2.1, phi_i_rad=0.7,
                               interference_visibility=0.85,
                               dark_rate_signal_hz=2e4, dark_rate_idler_hz=3e4,
                               rng_seed=101)
        tags = full_stream(iter_simulate, cfg)
        assert tags.size == 1155264
        assert hashlib.sha256(tags.tobytes()).hexdigest() == (
            "4c6b02970b120648bfc94fd30305164ef748694e70d5b433b8cf97dd3cc2eefe")

    def test_single_bin_stream(self):
        cfg = ExperimentConfig(duration_s=2e-3, mean_pairs_per_pulse=0.05,
                               eta_signal=0.6, eta_idler=0.4,
                               dark_rate_signal_hz=2e4, dark_rate_idler_hz=3e4,
                               rng_seed=102)
        tags = full_stream(iter_simulate_single_bin, cfg)
        assert tags.size == 160050
        assert hashlib.sha256(tags.tobytes()).hexdigest() == (
            "3c59abeaac2a565b3f81f8b6d7ee4ffc76f83b8d3b01c2596f6cf61e8e01d456")

    # Edge configurations of the detection/trigger merge order.
    TIES = ExperimentConfig(duration_s=2e-3, mean_pairs_per_pulse=0.05,
                            jitter_sigma_s=0.0, detection_delay_s=0.0,
                            dark_rate_signal_hz=2e4, dark_rate_idler_hz=3e4,
                            rng_seed=103)
    CLIP = ExperimentConfig(duration_s=5e-4, mean_pairs_per_pulse=2.0,
                            jitter_sigma_s=100e-12, detection_delay_s=0.0,
                            dark_rate_signal_hz=2e4, dark_rate_idler_hz=3e4,
                            rng_seed=113)
    # Three blocks; late arrivals of the last pulse of a block spill past
    # its end.  This seed carries 1 and 2 detections over the two block
    # boundaries in time-bin mode, 1 and 1 in single-bin mode.
    CARRY = ExperimentConfig(duration_s=0.028, mean_pairs_per_pulse=0.3,
                             jitter_sigma_s=2e-9, detection_delay_s=12e-9,
                             bin_delay_s=0.2e-9,
                             dark_rate_signal_hz=1e6, dark_rate_idler_hz=1e6,
                             rng_seed=114)

    @pytest.mark.parametrize("cfg, sim, size, digest", [
        (TIES, iter_simulate, 159991,
         "4aef3c2efa9a724df87fbc6f617f9f38555651f1af460f836680f1ed3dc0c7a8"),
        (TIES, iter_simulate_single_bin, 167656,
         "271199c9966dffc31bc899296e2e92a45939a2ace6174436cde58625043a8118"),
        (CLIP, iter_simulate, 113668,
         "4720841c3897a6d0c36c8d5830c289b40220685f7dd691937e72185376631c64"),
        (CLIP, iter_simulate_single_bin, 189503,
         "772242dce465a30acec1bbf4d805ac7002097d40115ce24f9095b683dde0678a"),
        (CARRY, iter_simulate, 2829459,
         "bded70ea5de53a2b32ffe5034707ed41170637a6e4ad46e0942669d59c0a4f08"),
        (CARRY, iter_simulate_single_bin, 3468076,
         "9c8896deb2b014770f4f2ea822ba6898277b9212741f1dea4339fa458b4f869e"),
    ], ids=["ties-time-bin", "ties-single-bin", "clip-time-bin",
            "clip-single-bin", "carry-time-bin", "carry-single-bin"])
    def test_edge_stream(self, cfg, sim, size, digest):
        tags = full_stream(sim, cfg)
        assert tags.size == size
        detections = tags["time_ps"][tags["channel"] != CH_TRIGGER]
        triggers = tags["time_ps"][tags["channel"] == CH_TRIGGER]
        if cfg is self.TIES:
            # detections that share their time with a trigger
            assert np.isin(detections, triggers).any()
        if cfg is self.CLIP:
            # early jitter of a pulse-0 photon clipped to time 0
            assert (detections == 0).any()
        assert hashlib.sha256(tags.tobytes()).hexdigest() == digest

    # Detection streams (no trigger tags) of outcome laws with empty rows.
    # V0 = 1 at delta = 0 gives the like-port central outcomes probability 0.
    V0_ONE = ExperimentConfig(duration_s=2e-3, mean_pairs_per_pulse=0.05,
                              interference_visibility=1.0, eta_signal=0.7,
                              dark_rate_signal_hz=2e4, dark_rate_idler_hz=3e4,
                              rng_seed=115)
    NO_IDLER = ExperimentConfig(duration_s=2e-3, mean_pairs_per_pulse=0.05, phi_s_rad=1.1,
                                interference_visibility=0.9, eta_idler=0.0,
                                dark_rate_signal_hz=2e4, dark_rate_idler_hz=3e4,
                                rng_seed=116)
    # Exactly one full generation block of 2^20 pulses.
    FULL_BLOCK = ExperimentConfig(duration_s=BLOCK_PULSES / 76.2e6, mean_pairs_per_pulse=0.3,
                                  phi_s_rad=0.3, interference_visibility=0.95,
                                  dark_rate_signal_hz=1e3, dark_rate_idler_hz=1e3,
                                  rng_seed=117)

    @pytest.mark.parametrize("cfg, sim, size, digest", [
        (V0_ONE, iter_simulate, 6683,
         "7c5303c4b8255212dc324c5c3945fa66d7a0cd5a47c6d17787df3efe22289e02"),
        (NO_IDLER, iter_simulate, 3767,
         "f2223ebdbab0c690fc53c5cb0b41ea319616fd8322b08ec60d0fa050e1a22b99"),
        (FULL_BLOCK, iter_simulate, 314609,
         "71b38668cae34865deeee7b8a82a1340a61730aa96579b723828dc7d72acb937"),
        (FULL_BLOCK, iter_simulate_single_bin, 630670,
         "5b0271ce555eebb6c948e8c7dfeebd4f6f04401f1510a9d4c71289db3bb3abc9"),
    ], ids=["v0-one-time-bin", "no-idler-time-bin", "full-block-time-bin",
            "full-block-single-bin"])
    def test_detection_stream(self, cfg, sim, size, digest):
        if cfg is self.FULL_BLOCK:
            assert PulseGrid.of(cfg).pulses == BLOCK_PULSES
        tags = np.concatenate(list(sim(cfg)))
        assert tags.size == size
        assert hashlib.sha256(tags.tobytes()).hexdigest() == digest


def test_simulate_and_write_hold_one_block_beyond_the_draw(tmp_path):
    # Traced peak of simulating and writing three blocks at mu = 0.3, per
    # pair of one block.  The drawing thread draws block b + 1 while the
    # keys of block b are built and sorted, and block b + 2 while chunk b
    # is written; a draw places its photons a slice of pairs at a time.
    # The peak is one draw next to a key build or next to a chunk being
    # written, whichever the thread's timing overlaps: 31.7-37.4 B.
    cfg = ExperimentConfig(duration_s=3 * BLOCK_PULSES / 76.2e6, mean_pairs_per_pulse=0.3,
                           interference_visibility=0.95, rng_seed=5)
    tracemalloc.start()
    try:
        write_tags(tmp_path / "run.tags", iter_simulate(cfg), cfg.to_dict())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (cfg.mean_pairs_per_pulse * BLOCK_PULSES) < 45


THREE_BLOCKS = ExperimentConfig(duration_s=3 * BLOCK_PULSES / 76.2e6,
                                mean_pairs_per_pulse=0.001, rng_seed=9)


def test_a_draw_that_fails_on_the_thread_fails_the_write(tmp_path, monkeypatch):
    emit, fault = simulate._emit_block, RuntimeError("block 1 failed")

    def failing(config, grid, block, law):
        if block == 1:
            raise fault
        return emit(config, grid, block, law)

    monkeypatch.setattr(simulate, "_emit_block", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as excinfo:
        write_tags(tmp_path / "run.tags", iter_simulate(THREE_BLOCKS), THREE_BLOCKS.to_dict())
    assert excinfo.value is fault
    assert list(tmp_path.iterdir()) == []  # no .tmp and no tag file
    assert threading.active_count() == threads


def test_closing_after_one_chunk_joins_the_drawing_thread():
    threads = threading.active_count()
    chunks = iter_simulate(THREE_BLOCKS)
    next(chunks)
    assert threading.active_count() == threads + 1
    chunks.close()
    assert threading.active_count() == threads


def test_a_refused_record_stops_the_drawing_thread(tmp_path, monkeypatch):
    monkeypatch.setattr(streams, "first_bad_record", lambda tags, last: (0, "planted fault"))
    threads = threading.active_count()
    with pytest.raises(ValueError, match="record 0: planted fault"):
        write_tags(tmp_path / "run.tags", iter_simulate(THREE_BLOCKS), THREE_BLOCKS.to_dict())
    assert threading.active_count() == threads
    assert list(tmp_path.iterdir()) == []


def test_stream_does_not_depend_on_thread_timing(monkeypatch):
    # 19 blocks of 4096 pulses, replayed while the interpreter switches
    # threads as often as it can.
    monkeypatch.setattr(simulate, "BLOCK_PULSES", 1 << 12)
    cfg = ExperimentConfig(duration_s=1e-3, mean_pairs_per_pulse=2.0, jitter_sigma_s=2e-9,
                           rng_seed=3)
    want = np.concatenate(list(iter_simulate(cfg))).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.concatenate(list(iter_simulate(cfg))).tobytes() == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_efficiency_of_0_or_1_skips_its_uniforms(eta):
    # advance() also drops PCG64's spare 32-bit word, so the draws that
    # follow are compared, not the generator states.
    for seed in range(6):
        n = 1000 + 997 * seed
        mine, numpy_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        for rng in (mine, numpy_rng):
            rng.integers(0, 1 << 20, n, dtype=np.int32)  # as a block draws before
        np.testing.assert_array_equal(np.broadcast_to(_detected(mine, eta, n), n),
                                      numpy_rng.random(n) < eta)
        np.testing.assert_array_equal(mine.normal(0.0, 50.0, 500),
                                      numpy_rng.normal(0.0, 50.0, 500))
        np.testing.assert_array_equal(mine.random(500), numpy_rng.random(500))


def test_package_attribute_is_the_simulate_module():
    assert inspect.ismodule(timebin.simulate)
