import hashlib
import inspect

import numpy as np
import pytest

import timebin

from timebin.analysis import GateConfig, analyze_stream, car
from timebin.simulate import (CH_IDLER, CH_SIGNAL, CH_TRIGGER,
                              ExperimentConfig, _outcome_table,
                              iter_simulate, iter_simulate_single_bin,
                              joint_slot_distribution, simulate,
                              simulate_no_pump_interferometer)


def hand_written_slot_weights(phi_p, phi_s, phi_i, v0):
    """Closed-form monitored-port weights, the oracle for the outcome table.

    Each of the six satellite joint slots carries 1/32; the central slot
    (1, 1) carries (1 - v0 cos(phi_s + phi_i - phi_p))/16.  The singles
    marginal is 1/8, 1/4, 1/8.
    """
    joint = np.zeros((3, 3))
    for s, i in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)):
        joint[s, i] = 1.0 / 32.0
    joint[1, 1] = (1.0 - v0 * np.cos(phi_s + phi_i - phi_p)) / 16.0
    return joint, np.array([1.0 / 8.0, 1.0 / 4.0, 1.0 / 8.0])


class TestJointSlotDistribution:
    def test_matches_hand_written_weights(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            phases = rng.uniform(-10.0, 10.0, 3)
            v0 = rng.uniform()
            d = joint_slot_distribution(*phases, v0)
            joint, marginal = hand_written_slot_weights(*phases, v0)
            np.testing.assert_array_equal(d.joint, joint)
            # summing the two central-slot ports may round by one ulp
            np.testing.assert_allclose(d.marginal, marginal, rtol=0, atol=1e-16)

    def test_fringe_maximum(self):
        d = joint_slot_distribution(0.0, np.pi, 0.0, 1.0)
        assert d.joint[1, 1] == pytest.approx(2.0 / 16.0)
        assert d.joint[1, 1] == pytest.approx(4 * d.joint[0, 0])

    def test_fringe_minimum(self):
        d = joint_slot_distribution(0.0, 0.0, 0.0, 1.0)
        assert d.joint[1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_singles_marginal_ratios(self):
        for phases in [(0.0, 0.0, 0.0), (0.3, 1.2, 2.0), (1.0, np.pi, 0.5)]:
            d = joint_slot_distribution(*phases, v0=0.9)
            assert d.marginal[1] == pytest.approx(2 * d.marginal[0])
            assert d.marginal[1] == pytest.approx(2 * d.marginal[2])

    def test_forbidden_corners_and_equal_satellites(self):
        d = joint_slot_distribution(0.4, 1.0, 2.5, 0.8)
        assert d.joint[0, 2] == 0.0
        assert d.joint[2, 0] == 0.0
        sats = [d.joint[s, i] for s, i in
                ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2))]
        assert np.ptp(sats) == 0.0

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            joint_slot_distribution(0, 0, 0, 1.5)

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


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    @pytest.mark.parametrize("field,value", [
        ("eta_signal", 1.4), ("eta_idler", -0.1), ("duration", -1.0),
        ("mean_pairs_per_pulse", -0.5), ("interference_visibility", 2.0),
        ("rep_rate", 0.0), ("phi_p", np.inf),
    ])
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_rejects_bins_overflowing_period(self):
        with pytest.raises(ValueError):
            ExperimentConfig(bin_delay=6e-9)

    @pytest.mark.parametrize("field,value", [
        ("rep_rate", np.nan), ("duration", np.nan), ("duration", np.inf),
        ("dark_rate_signal", np.nan), ("mean_pairs_per_pulse", np.nan),
        ("pair_yield_per_watt", np.inf), ("bin_delay", "3e-9"), ("rng_seed", "7"),
        ("pair_yield_per_watt", [1.0]), ("rep_rate", None),
    ])
    def test_rejects_value_that_is_not_a_finite_number(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            ExperimentConfig(**{field: value})

    def test_accepts_any_integer_seed(self):
        assert ExperimentConfig(rng_seed=10**40).rng_seed == 10**40

    @pytest.mark.parametrize("seed", [-1, 2.0, True + 0.5])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            ExperimentConfig(rng_seed=seed)

    def test_copies_are_checked_too(self):
        with pytest.raises(ValueError, match="pump_power"):
            ExperimentConfig().with_power(-1.0)

    def test_power_scaling(self):
        cfg = ExperimentConfig(pair_yield_per_watt=2.0, pump_power=0.25)
        assert cfg.mu == pytest.approx(0.5)
        assert cfg.with_power(0.5).mu == pytest.approx(1.0)


class TestSimulate:
    def test_no_pairs_no_darks_gives_only_triggers(self):
        cfg = ExperimentConfig(duration=1e-4, mean_pairs_per_pulse=0.0, rng_seed=1)
        tags = simulate(cfg)
        assert np.all(tags["channel"] == CH_TRIGGER)
        assert tags.size == int(round(cfg.duration * cfg.rep_rate))

    def test_one_trigger_per_pulse_period(self):
        cfg = ExperimentConfig(duration=1e-4, mean_pairs_per_pulse=0.2, rng_seed=2)
        tags = simulate(cfg)
        trig = tags[tags["channel"] == CH_TRIGGER]["time_ps"].astype(np.int64)
        period = 1e12 / cfg.rep_rate
        assert trig.size == int(round(cfg.duration * cfg.rep_rate))
        np.testing.assert_array_equal(np.diff(trig) > 0.9 * period, True)

    def test_stream_is_sorted(self):
        cfg = ExperimentConfig(duration=2e-3, mean_pairs_per_pulse=0.1,
                               dark_rate_signal=5e4, dark_rate_idler=5e4, rng_seed=3)
        tags = simulate(cfg)
        t = tags["time_ps"].astype(np.int64)
        assert np.all(np.diff(t) >= 0)

    @pytest.mark.parametrize("sim", [simulate, simulate_no_pump_interferometer],
                             ids=["time-bin", "single-bin"])
    @pytest.mark.parametrize("cfg", [
        # photons of a block's first pulse jittered before the block's
        # start, ahead of dark counts late in the previous block
        *(ExperimentConfig(duration=1e-3, mean_pairs_per_pulse=2.0,
                           jitter_sigma=2e-9, detection_delay=0.0,
                           dark_rate_signal=1e8, dark_rate_idler=1e8,
                           rng_seed=seed) for seed in (1, 2)),
        # jitter beyond a pulse period, ahead of the previous block's
        # last triggers
        ExperimentConfig(duration=1e-3, mean_pairs_per_pulse=0.05,
                         jitter_sigma=20e-9, detection_delay=0.0, rng_seed=1),
    ], ids=["early-photons-1", "early-photons-2", "wide-jitter"])
    def test_sorted_across_block_boundaries(self, monkeypatch, cfg, sim):
        # 4096-pulse blocks put 18 block boundaries into 1 ms
        monkeypatch.setattr("timebin.simulate.BLOCK_PULSES", 1 << 12)
        tags = sim(cfg)
        t = tags["time_ps"].astype(np.int64)
        assert np.all(np.diff(t) >= 0)
        n_pulses = int(round(cfg.duration * cfg.rep_rate))
        np.testing.assert_array_equal(
            t[tags["channel"] == CH_TRIGGER],
            np.round(np.arange(n_pulses) * (1e12 / cfg.rep_rate)))

    def test_deterministic_replay(self):
        cfg = ExperimentConfig(duration=1e-3, mean_pairs_per_pulse=0.1,
                               dark_rate_signal=1e4, rng_seed=77)
        a, b = simulate(cfg), simulate(cfg)
        assert a.tobytes() == b.tobytes()

    def test_chunked_equals_whole(self):
        cfg = ExperimentConfig(duration=1e-3, mean_pairs_per_pulse=0.1, rng_seed=5)
        whole = simulate(cfg)
        chunked = np.concatenate(list(iter_simulate(cfg)))
        assert whole.tobytes() == chunked.tobytes()

    def test_rejects_invalid_config_before_output(self):
        with pytest.raises(ValueError):
            simulate(ExperimentConfig(eta_signal=2.0))

    def test_signal_singles_rate_matches_monitored_mass(self):
        # marginal monitored mass is 1/8 + 1/4 + 1/8 = 1/2 per photon
        cfg = ExperimentConfig(duration=0.02, mean_pairs_per_pulse=0.01, rng_seed=6)
        tags = simulate(cfg)
        n_signal = int(np.count_nonzero(tags["channel"] == CH_SIGNAL))
        expected = cfg.rep_rate * cfg.duration * cfg.mu * 0.5
        assert abs(n_signal - expected) < 3 * np.sqrt(expected)

    def test_empirical_joint_matches_distribution(self):
        cfg = ExperimentConfig(duration=0.3, mean_pairs_per_pulse=0.005,
                               phi_s=2.0, phi_i=0.7, phi_p=0.4,
                               interference_visibility=0.85, rng_seed=8)
        res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg))
        d = joint_slot_distribution(cfg.phi_p, cfg.phi_s, cfg.phi_i,
                                    cfg.interference_visibility)
        n_pairs = cfg.rep_rate * cfg.duration * cfg.mu
        for s in range(3):
            for i in range(3):
                if (s, i) in ((0, 2), (2, 0)):
                    continue  # accidental-only cells, checked separately
                expected = n_pairs * d.joint[s, i]
                sigma = np.sqrt(max(expected, 1.0))
                assert abs(res.joint[s, i] - expected) < 4 * sigma + 4, (s, i)

    def test_corner_slots_accidentals_only(self):
        cfg = ExperimentConfig(duration=0.05, mean_pairs_per_pulse=0.002,
                               phi_s=np.pi, rng_seed=9)
        res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg))
        # pair-origin coincidences never reach the corners; only the
        # O(mu^2) multi-pair accidentals can, as in the offset-pulse rate
        accidental_scale = res.neighbor_joint.sum() + 1
        assert res.joint[0, 2] + res.joint[2, 0] <= 5 * accidental_scale

    def test_zero_visibility_removes_phase_dependence(self):
        counts = []
        for phi in (0.0, np.pi / 2, np.pi, 4.0):
            cfg = ExperimentConfig(duration=0.01, mean_pairs_per_pulse=0.02,
                                   phi_s=phi, interference_visibility=0.0,
                                   rng_seed=10)
            res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg))
            counts.append(res.joint[1, 1])
        spread = max(counts) - min(counts)
        assert spread < 3 * np.sqrt(np.mean(counts)) * np.sqrt(2)


class TestSingleBin:
    def test_single_peak_structure(self):
        cfg = ExperimentConfig(duration=5e-3, mean_pairs_per_pulse=0.05, rng_seed=11)
        tags = simulate_no_pump_interferometer(cfg)
        res = analyze_stream(tags, GateConfig.single_bin(cfg))
        # all detections fall in the one configured gate (the 250 ps
        # half-width is 5 jitter sigmas, so allow a stray tag or two)
        n_signal = int(np.count_nonzero(tags["channel"] == CH_SIGNAL))
        assert res.gated_signal.sum() >= n_signal - 2
        assert res.joint.shape == (1, 1)

    def test_car_inverse_mu(self):
        cfg = ExperimentConfig(duration=0.05, mean_pairs_per_pulse=0.001, rng_seed=12)
        res = analyze_stream(iter_simulate_single_bin(cfg),
                             GateConfig.single_bin(cfg))
        value = car(res.rate_report()).value
        assert value == pytest.approx(1000.0, rel=0.10)

    def test_darks_only_car_near_one(self):
        cfg = ExperimentConfig(rep_rate=1e5, duration=0.5,
                               mean_pairs_per_pulse=0.0,
                               dark_rate_signal=2e4, dark_rate_idler=2e4,
                               detection_delay=5e-6, rng_seed=13)
        gates = GateConfig(gate_width=5e-6,
                           offsets={CH_SIGNAL: [5e-6], CH_IDLER: [5e-6]})
        res = analyze_stream(iter_simulate_single_bin(cfg), gates)
        q = car(res.rate_report())
        assert abs(q.value - 1.0) < 3 * q.error


class TestGoldenStreams:
    """SHA-256 of simulated streams, pinned so refactors keep them byte-identical."""

    def test_time_bin_stream(self):
        # two generation blocks, so the carry of late events is covered
        cfg = ExperimentConfig(duration=0.015, mean_pairs_per_pulse=0.01,
                               phi_p=0.4, phi_s=2.1, phi_i=0.7,
                               interference_visibility=0.85,
                               dark_rate_signal=2e4, dark_rate_idler=3e4,
                               rng_seed=101)
        tags = simulate(cfg)
        assert tags.size == 1155264
        assert hashlib.sha256(tags.tobytes()).hexdigest() == (
            "4c6b02970b120648bfc94fd30305164ef748694e70d5b433b8cf97dd3cc2eefe")

    def test_single_bin_stream(self):
        cfg = ExperimentConfig(duration=2e-3, mean_pairs_per_pulse=0.05,
                               eta_signal=0.6, eta_idler=0.4,
                               dark_rate_signal=2e4, dark_rate_idler=3e4,
                               rng_seed=102)
        tags = simulate_no_pump_interferometer(cfg)
        assert tags.size == 160050
        assert hashlib.sha256(tags.tobytes()).hexdigest() == (
            "3c59abeaac2a565b3f81f8b6d7ee4ffc76f83b8d3b01c2596f6cf61e8e01d456")

    # Edge configurations of the detection/trigger merge order.
    TIES = ExperimentConfig(duration=2e-3, mean_pairs_per_pulse=0.05,
                            jitter_sigma=0.0, detection_delay=0.0,
                            dark_rate_signal=2e4, dark_rate_idler=3e4,
                            rng_seed=103)
    CLIP = ExperimentConfig(duration=5e-4, mean_pairs_per_pulse=2.0,
                            jitter_sigma=100e-12, detection_delay=0.0,
                            dark_rate_signal=2e4, dark_rate_idler=3e4,
                            rng_seed=113)
    # Three blocks; late arrivals of the last pulse of a block spill past
    # its end.  This seed carries 1 and 2 detections over the two block
    # boundaries in time-bin mode, 1 and 1 in single-bin mode.
    CARRY = ExperimentConfig(duration=0.028, mean_pairs_per_pulse=0.3,
                             jitter_sigma=2e-9, detection_delay=12e-9,
                             bin_delay=0.2e-9,
                             dark_rate_signal=1e6, dark_rate_idler=1e6,
                             rng_seed=114)

    @pytest.mark.parametrize("cfg, sim, size, digest", [
        (TIES, simulate, 159991,
         "4aef3c2efa9a724df87fbc6f617f9f38555651f1af460f836680f1ed3dc0c7a8"),
        (TIES, simulate_no_pump_interferometer, 167656,
         "271199c9966dffc31bc899296e2e92a45939a2ace6174436cde58625043a8118"),
        (CLIP, simulate, 113668,
         "101249716e734b04bddf079f49f9a2d7a31212e35ab1e6143c3b143bdc2acf03"),
        (CLIP, simulate_no_pump_interferometer, 189503,
         "effd4bc0cedb3a81fe28bf8ee923d4a565cec82afa5ea55207ad55abf95ae1b3"),
        (CARRY, simulate, 2829459,
         "b09ececf23ec9fe37ee9f0cdd00818b83055f1019006eed6f35b6275b6d92d0c"),
        (CARRY, simulate_no_pump_interferometer, 3468076,
         "dfde24ded33507b3770cc309ffdd5622b6f233fb6c016404e45b944bdff69895"),
    ], ids=["ties-time-bin", "ties-single-bin", "clip-time-bin",
            "clip-single-bin", "carry-time-bin", "carry-single-bin"])
    def test_edge_stream(self, cfg, sim, size, digest):
        tags = sim(cfg)
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


def test_package_attribute_is_the_simulate_module():
    assert inspect.ismodule(timebin.simulate)
