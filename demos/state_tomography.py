"""Reconstruct the two-qubit time-bin state from four phase settings.

Simulates the four calibrated interferometer dial settings (0/90 degrees
on each arm), assembles the sixteen tomography counts from the slot
tables, runs the maximum-likelihood fit, and attaches bootstrap error
bars to concurrence, fidelity and the CHSH bounds.

Run with:  python demos/state_tomography.py
"""

import numpy as np

from timebin.analysis import GateConfig, analyze_stream
from timebin.simulate import ExperimentConfig, PulseGrid, iter_simulate
from timebin.tomography import (SETTINGS, bootstrap_errors,
                                counts_from_phase_settings, setting_phases)

V0 = 0.95  # source interference contrast; concurrence should land here

setting_counts = {}
print("collecting the four settings")
for k, (dial_s, dial_i) in enumerate(SETTINGS):
    phi_s, phi_i = setting_phases(dial_s, dial_i)
    cfg = ExperimentConfig(duration_s=0.1, mean_pairs_per_pulse=0.004,
                           phi_s_rad=phi_s, phi_i_rad=phi_i,
                           interference_visibility=V0, rng_seed=40 + k)
    result = analyze_stream(iter_simulate(cfg), GateConfig.time_bin(cfg),
                            grid=PulseGrid.of(cfg))
    setting_counts[(dial_s, dial_i)] = result.joint
    print(f"  dials ({dial_s:2d}, {dial_i:2d}): central "
          f"{int(result.joint[1, 1]):5d}, total {int(result.joint.sum()):5d}")

record = counts_from_phase_settings(setting_counts)
result = bootstrap_errors(record, n_replicas=100, seed=7)

print("\nreconstructed density matrix (real part):")
for row in result.rho.real:
    print("   " + "  ".join(f"{v:7.4f}" for v in row))

err = result.errors
print(f"\nconcurrence  {result.concurrence:.4f} "
      f"+- {err['concurrence']['std']:.4f}")
print(f"fidelity     {result.fidelity:.4f} +- {err['fidelity']['std']:.4f} "
      f"(to the Bell state (|00> + |11>)/sqrt(2))")
print(f"CHSH bounds  [{result.chsh_lower:.3f}, {result.chsh_upper:.3f}] "
      f"(> 2 rules out a local model)")
print(f"replicas     {result.n_replicas - result.n_replicas_dropped} kept, "
      f"{result.n_replicas_dropped} dropped"
      + ("  ** low precision **" if result.low_precision else ""))
