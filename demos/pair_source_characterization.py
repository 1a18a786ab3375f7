"""Characterize a simulated photon-pair source in single-bin mode.

Sweeps the pump power, measures gated singles and coincidence rates,
then extracts the three standard figures of merit: the brightness slope,
the Klyshko (heralded) efficiencies extrapolated to zero power, and the
log-log slope of the coincidences-to-accidentals ratio.

Run with:  python demos/pair_source_characterization.py
"""

import numpy as np

from timebin.analysis import (GateConfig, analyze_stream, car, klyshko,
                              power_series_fit)
from timebin.simulate import ExperimentConfig, PulseGrid, iter_simulate_single_bin

# A lossy source: a few percent heralded efficiency per arm, realistic
# dark counts, mean pair number proportional to pump power.
YIELD_PER_W = 2.0                  # mean pairs per pulse per watt

powers = np.array([0.02, 0.05, 0.1, 0.2, 0.4])  # watts
points = []
print("power sweep")
print(f"{'P (W)':>8} {'R_s (1/s)':>10} {'R_i (1/s)':>10} {'R_C (1/s)':>10} {'CAR':>9}")
for p in powers:
    cfg = ExperimentConfig(pump_power_w=float(p), pair_yield_per_watt=YIELD_PER_W,
                           mean_pairs_per_pulse=YIELD_PER_W * float(p),
                           eta_signal=0.0412, eta_idler=0.0377,
                           dark_rate_signal_hz=360.0, dark_rate_idler_hz=390.0,
                           duration_s=0.5, rng_seed=1)
    result = analyze_stream(iter_simulate_single_bin(cfg),
                            GateConfig.single_bin(cfg), grid=PulseGrid.of(cfg))
    rates = result.rate_report()
    points.append((float(p), rates))
    print(f"{p:8.2f} {rates.singles_signal.value:10.0f} "
          f"{rates.singles_idler.value:10.0f} "
          f"{rates.coincidence_rate.value:10.1f} {car(rates).value:9.1f}")

fit = power_series_fit(points)
print()
print(f"brightness       {fit.brightness.value:8.1f} "
      f"+- {fit.brightness.error:.1f} coincidences/s/W")
print(f"Klyshko signal   {100 * fit.klyshko_signal_intercept.value:8.2f} % "
      f"(zero-power intercept; configured 4.12 %)")
print(f"Klyshko idler    {100 * fit.klyshko_idler_intercept.value:8.2f} % "
      f"(configured 3.77 %)")
print(f"CAR slope        {fit.car_loglog_slope.value:8.3f} "
      f"+- {fit.car_loglog_slope.error:.3f} (log-log; -1 without background)")

eta_s, eta_i = klyshko(points[-1][1])
print(f"\nat P = {powers[-1]} W: eta_s = {100 * eta_s.value:.2f} %, "
      f"eta_i = {100 * eta_i.value:.2f} % (multi-pair emission biases "
      f"these upward, hence the extrapolation)")
