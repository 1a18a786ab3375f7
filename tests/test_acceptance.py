"""Acceptance suite: the quantitative targets the package must hit.

Each test covers one numbered criterion; the terminal summary prints one
PASS/FAIL line per criterion (see conftest).  Tolerances are pinned, not
derived from the code under test.
"""

import json
import time

import numpy as np
import pytest

from timebin import quantum
from timebin.analysis import (GateConfig, analyze_stream, car,
                              fit_fringe, klyshko, max_visibility_from_car,
                              power_series_fit, RateReport, StreamAnalyzer)
from timebin.cli import main
from timebin.quantum import bell_phi_plus, chsh_bounds, concurrence, \
    fidelity_to_pure, measurement_operator
from timebin.simulate import (ExperimentConfig, PulseGrid, iter_simulate,
                              iter_simulate_single_bin)
from timebin.tomography import counts_from_phase_settings, mle_reconstruct

from conftest import (EXPERIMENT_RHO_REAL, ginibre_density_matrix,
                      random_unitary, wootters_oracle)
from slot_oracle import DIAL_PHASE, SETTINGS, setting_tables


def test_criterion_01_fidelity_closed_form():
    f = fidelity_to_pure(EXPERIMENT_RHO_REAL, bell_phi_plus())
    assert f == pytest.approx(0.9425, abs=0.0005)
    # runtime: a warmed-up call must finish in well under a millisecond
    fidelity_to_pure(EXPERIMENT_RHO_REAL, bell_phi_plus())
    best = min(
        (lambda t0: (fidelity_to_pure(EXPERIMENT_RHO_REAL, bell_phi_plus()),
                     time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5))
    assert best < 1e-3


def test_criterion_02_concurrence_vs_oracle():
    c = concurrence(EXPERIMENT_RHO_REAL)
    assert c == pytest.approx(0.889, abs=0.02)
    assert c == pytest.approx(wootters_oracle(EXPERIMENT_RHO_REAL), abs=1e-9)


def test_criterion_03_chsh_bounds():
    lo, hi = chsh_bounds(0.889)
    assert lo == pytest.approx(2.514, abs=0.01)
    assert hi == pytest.approx(2.676, abs=0.01)


def test_criterion_04_visibility_ceiling():
    assert max_visibility_from_car(530.0) == pytest.approx(0.99623, abs=0.0001)


def test_criterion_05_car_and_klyshko_from_rates():
    rates = RateReport(n_signal=12100, n_idler=10900, n_coinc=460,
                       n_trigger=762_000_000, duration=10.0)
    assert car(rates).value == pytest.approx(2658, abs=1)
    eta_s, eta_i = klyshko(rates)
    assert eta_s.value == pytest.approx(0.0422, abs=0.0001)
    assert eta_i.value == pytest.approx(0.0380, abs=0.0001)


def _single_bin_sweep(mus, duration, **config_overrides):
    points = []
    for mu in mus:
        cfg = ExperimentConfig(mean_pairs_per_pulse=mu, pump_power_w=mu,
                               duration_s=duration, rng_seed=601,
                               **config_overrides)
        res = analyze_stream(iter_simulate_single_bin(cfg),
                             GateConfig.single_bin(
                                 cfg, config_overrides.get("gate_width", 0.5e-9)),
                             grid=PulseGrid.of(cfg))
        points.append((mu, res.rate_report()))
    return points


def test_criterion_06_car_slope_sweep():
    t0 = time.monotonic()
    # darks off: CAR is inverse in the pair rate, so the log-log slope
    # over one decade is -1
    ideal = power_series_fit(_single_bin_sweep(
        [0.002, 0.0035, 0.006, 0.011, 0.02], duration=0.3))
    assert ideal.car_loglog_slope.value == pytest.approx(-1.00, abs=0.03)

    # darks on: the background floor flattens the low-rate end, pulling
    # the fitted slope up toward the -0.92 regime (direction check)
    points = []
    for mu in (1e-5, 2.2e-5, 4.6e-5, 1e-4):
        cfg = ExperimentConfig(mean_pairs_per_pulse=mu, pump_power_w=mu,
                               duration_s=2.0, dark_rate_signal_hz=360.0,
                               dark_rate_idler_hz=390.0, detection_delay_s=4e-9,
                               rng_seed=602)
        gates = GateConfig.single_bin(cfg, gate_width=5e-9)
        res = analyze_stream(iter_simulate_single_bin(cfg), gates, grid=PulseGrid.of(cfg))
        points.append((mu, res.rate_report()))
    with_darks = power_series_fit(points)
    assert with_darks.car_loglog_slope.value > \
        ideal.car_loglog_slope.value + 0.03
    assert -1.0 < with_darks.car_loglog_slope.value < -0.8
    assert time.monotonic() - t0 < 120


def test_criterion_07_klyshko_intercepts():
    t0 = time.monotonic()
    points = _single_bin_sweep([0.05, 0.1, 0.2, 0.3, 0.5], duration=0.2,
                               eta_signal=0.0412, eta_idler=0.0377)
    fit = power_series_fit(points)
    assert fit.klyshko_signal_intercept.value == pytest.approx(0.0412, abs=0.003)
    assert fit.klyshko_idler_intercept.value == pytest.approx(0.0377, abs=0.003)
    assert time.monotonic() - t0 < 120


def test_criterion_08_fringe_scan():
    points = []
    first = None
    for k, phase in enumerate(np.linspace(0.0, 2 * np.pi, 12, endpoint=False)):
        cfg = ExperimentConfig(duration_s=0.05, mean_pairs_per_pulse=0.01,
                               phi_s_rad=float(phase), interference_visibility=0.902,
                               rng_seed=800 + k)
        res = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg),
                             grid=PulseGrid.of(cfg))
        points.append((phase, float(res.joint[1, 1]), cfg.duration_s))
        if first is None:
            first = res
    fit = fit_fringe(points)
    assert fit.visibility.value == pytest.approx(0.902, abs=0.02)

    # 1:2:1 singles peaks within 4 sigma on both arms
    for gated in (first.gated_signal, first.gated_idler):
        early, central, late = gated
        for side in (early, late):
            assert abs(central - 2 * side) < 4 * np.sqrt(central + 4 * side)

    # the forbidden corner slots hold only accidental-level counts
    accidental_scale = first.neighbor_joint.sum() + 1
    assert first.joint[0, 2] + first.joint[2, 0] <= 5 * accidental_scale


def _ideal_record(n_pairs, v0=1.0, rng=None, accidentals=0.0):
    # counts from the hand-written pair law, not from the simulator's table
    return counts_from_phase_settings(setting_tables(n_pairs, v0=v0, rng=rng,
                                                     accidentals=accidentals))


def test_criterion_09_tomography_round_trips():
    t0 = time.monotonic()
    # ideal statistics, ~1e6 counts per setting
    result = mle_reconstruct(_ideal_record(3_200_000))
    assert result.converged
    assert result.fidelity >= 0.999

    # noisy regime: reduced interference contrast plus an accidentals
    # floor matching a coincidence-to-accidentals ratio near 530
    ok = 0
    for seed in range(20):
        rng = np.random.default_rng([900, seed])
        fit = mle_reconstruct(_ideal_record(128_000, v0=0.902, rng=rng,
                                            accidentals=30.0))
        if fit.converged and 0.85 <= fit.concurrence <= 0.93 \
                and fit.chsh_lower > 2.0:
            ok += 1
    assert ok >= 19
    assert time.monotonic() - t0 < 600


def test_criterion_11_paper_row_through_the_cli(tmp_path):
    """The paper's tomography row, C = 0.889 and F = 0.942, from the forward
    model through the command line: simulate -> analyze for the four dial
    settings, then tomo, for K = 10 seeds.

    A pump phase 0.106 rad off the dials' calibration, at visibility 0.889,
    gives C = 0.889 and F = 0.942 in the large-count limit.  At mu = 0.002
    and 0.105 s a setting (about 16 000 coincidences over the four), the
    mean of K = 10 fits has an SE of 0.004-0.006 in C and 0.002-0.003 in
    F, so K = 10 cannot tell F = 0.942 from 0.9445, the value at
    phi_p = 0: this checks that the chain reaches the row, not the offset.
    """
    t0 = time.monotonic()
    figures = []
    for k in range(10):
        settings = []
        for j, (ds, di) in enumerate(SETTINGS):
            stem = tmp_path / f"s{k}_{ds}_{di}"
            stem.with_suffix(".cfg").write_text(
                "rep_rate_hz = 76.2e6\nduration_s = 0.105\nmean_pairs_per_pulse = 0.002\n"
                "interference_visibility = 0.889\nphi_p_rad = 0.106\n"
                f"phi_s_rad = {np.pi + DIAL_PHASE[ds]!r}\nphi_i_rad = {DIAL_PHASE[di]!r}\n"
                f"rng_seed = {1100 + 4 * k + j}\n")
            assert main(["simulate", "--config", f"{stem}.cfg", "--out", f"{stem}.tags"]) == 0
            assert main(["analyze", "--in", f"{stem}.tags", "--out", f"{stem}.json"]) == 0
            settings.append(f"{ds},{di}:{stem}.json")
        out = tmp_path / f"tomo{k}.json"
        assert main(["tomo", *settings, "--out", str(out), "--replicas", "2"]) == 0
        tomo = json.loads(out.read_text())
        figures.append((tomo["concurrence"], tomo["fidelity_phi_plus"]))
    c, f = np.array(figures).T
    for values, paper in ((c, 0.889), (f, 0.942)):
        assert abs(values.mean() - paper) < 3 * values.std(ddof=1) / np.sqrt(len(values))
    assert time.monotonic() - t0 < 60


def test_criterion_10_property_suites():
    rng = np.random.default_rng(1000)

    # density-matrix invariants over random states
    for _ in range(200):
        rho = ginibre_density_matrix(rng)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        c = concurrence(rho)
        assert 0.0 <= c <= 1.0 + 1e-12

    # local-unitary invariance of concurrence, 1000 random states
    worst = 0.0
    for _ in range(1000):
        rho = ginibre_density_matrix(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        d = abs(concurrence(rho)
                - concurrence(u @ rho @ u.conj().T))
        worst = max(worst, d)
    assert worst <= 1e-9

    # the sixteen measurement operators span the full operator space
    ops = [measurement_operator(a, b)
           for a in quantum.BASIS_LABELS for b in quantum.BASIS_LABELS]
    gram = np.array([[np.real(np.trace(x.conj().T @ y)) for y in ops]
                     for x in ops])
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 16

    # streaming chunk equivalence
    cfg = ExperimentConfig(duration_s=2e-3, mean_pairs_per_pulse=0.05,
                           dark_rate_signal_hz=1e4, rng_seed=1001)
    tags = np.concatenate(list(iter_simulate(cfg)))
    gates, grid = GateConfig.time_bin(cfg), PulseGrid.of(cfg)
    whole = analyze_stream(tags, gates, grid=grid)
    an = StreamAnalyzer(gates, grid=grid)
    for part in np.array_split(tags, 11):
        an.feed(part)
    chunked = an.result()
    np.testing.assert_array_equal(whole.joint, chunked.joint)
    np.testing.assert_array_equal(whole.gated_signal, chunked.gated_signal)

    # deterministic replay by seed
    assert np.concatenate(list(iter_simulate(cfg))).tobytes() == tags.tobytes()
