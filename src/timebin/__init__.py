"""Time-bin entangled photon-pair toolkit.

Simulates a pulsed photon-pair source with time-bin interferometers,
processes the resulting time-tag streams into singles/coincidence rates,
Klyshko efficiencies, CAR, brightness and fringe visibilities, and
reconstructs the two-qubit state by maximum-likelihood tomography with
concurrence, fidelity and CHSH bounds.
"""

__version__ = "0.1.0"

from .quantum import (BASIS_LABELS, DensityMatrix2Q, bell_phi_plus,
                      chsh_bounds, concurrence, fidelity_to_pure,
                      measurement_operator, projector, pure_to_dm,
                      time_bin_state)
from .simulate import (CH_IDLER, CH_SIGNAL, CH_TRIGGER, TAG_DTYPE,
                       ExperimentConfig, JointSlotDistribution,
                       joint_slot_distribution,
                       simulate_no_pump_interferometer)
from .analysis import (FringeScan, GateConfig, Quantity, RateReport,
                       StreamAnalyzer, analyze_stream, car, fit_fringe,
                       klyshko, max_visibility_from_car, power_series_fit)
from .tomography import (SETTINGS, MeasurementRecord, TomographyResult,
                         bootstrap_errors, counts_from_phase_settings,
                         linear_inversion, mle_reconstruct)
