"""Monte-Carlo forward model of the pulsed photon-pair experiment.

Generates time-tag streams for either the plain pair-characterization
setup (one time bin, no analysis interferometers) or the full time-bin
configuration: pump interferometer, pair creation, one analysis
interferometer per arm, detection losses, timing jitter and dark counts.

Interference is handled at the level of analytic outcome probabilities
per pair rather than amplitude tracking: each created pair is assigned a
(signal slot, idler slot, signal port, idler port) outcome drawn from the
exact quantum probabilities, which reproduces the central-peak fringe
law rate ~ 1 - V cos(phi_s + phi_i - phi_p) by construction.

Streams are numpy structured arrays with fields ``channel`` (u8) and
``time_ps`` (u64).  Generation is organized in fixed-size pulse blocks,
each with its own RNG substream derived from (seed, block index), so the
output is deterministic and independent of how it is chunked or
parallelized.

Tags are ordered by (float time, channel).  A block's trigger grid
round(k * period) is sorted by construction, so only the detections
are sorted; they are then merged into the grid, each one ahead of any
trigger at an equal time (CH_TRIGGER is the largest channel).
A block is emitted once the next block's detections are drawn: every tag
from the end of its last pulse period, or from the next block's earliest
detection if that comes first, is carried into the next block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, asdict
from typing import Iterator

import numpy as np

__all__ = [
    "CH_SIGNAL",
    "CH_IDLER",
    "CH_TRIGGER",
    "TAG_DTYPE",
    "ExperimentConfig",
    "JointSlotDistribution",
    "joint_slot_distribution",
    "simulate",
    "simulate_no_pump_interferometer",
    "iter_simulate",
    "iter_simulate_single_bin",
]

CH_SIGNAL = 0
CH_IDLER = 1
CH_TRIGGER = 2

# The on-disk record of the tag file format as well (see ``streams``).
TAG_DTYPE = np.dtype([("channel", "<u1"), ("time_ps", "<u8")])

# Pulses per generation block; fixed so that RNG substreams (and hence the
# output stream) do not depend on consumer chunking.
BLOCK_PULSES = 1 << 20

DEFAULT_GATE_WIDTH = 0.5e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, interferometer, detector and noise parameters of one run.

    Defaults follow the apparatus this models: 76.2 MHz pulsed pump,
    ~3 ns bin delay (13.1 ns pulse period), dark rates of a few hundred
    per second.
    """

    rep_rate: float = 76.2e6          # pulses / s
    bin_delay: float = 3e-9           # early/late separation, s
    mean_pairs_per_pulse: float = 0.001
    pump_power: float = 0.0           # W; reporting / mu scaling only
    pair_yield_per_watt: float | None = None  # mu = yield * power when set
    eta_signal: float = 1.0
    eta_idler: float = 1.0
    dark_rate_signal: float = 0.0     # counts / s
    dark_rate_idler: float = 0.0
    phi_p: float = 0.0
    phi_s: float = 0.0
    phi_i: float = 0.0
    interference_visibility: float = 1.0   # V0, mode-overlap ceiling
    duration: float = 0.01            # s
    rng_seed: int = 0
    jitter_sigma: float = 50e-12      # detector timing jitter, s
    detection_delay: float = 2e-9     # optical/electronic delay after trigger, s

    @property
    def mu(self) -> float:
        """Mean pairs per pump pulse, resolved from power if configured."""
        if self.pair_yield_per_watt is not None:
            return self.pair_yield_per_watt * self.pump_power
        return self.mean_pairs_per_pulse

    @property
    def pulse_period(self) -> float:
        return 1.0 / self.rep_rate

    def with_power(self, power: float) -> "ExperimentConfig":
        """Copy of this config at a different pump power."""
        return replace(self, pump_power=power)

    def validate(self) -> None:
        if self.rep_rate <= 0:
            raise ValueError("rep_rate must be positive")
        for name in ("bin_delay", "mean_pairs_per_pulse", "dark_rate_signal",
                     "dark_rate_idler", "duration", "jitter_sigma",
                     "detection_delay", "pump_power"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("eta_signal", "eta_idler", "interference_visibility"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("phi_p", "phi_s", "phi_i"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mu < 0:
            raise ValueError("mean pairs per pulse must be non-negative")
        # Keep the late-late slot plus a detection gate inside one period so
        # coincidence peaks of neighboring pulses cannot overlap.
        if self.detection_delay + 2 * self.bin_delay + DEFAULT_GATE_WIDTH >= self.pulse_period:
            raise ValueError("2*bin_delay + gate width does not fit in the pulse period")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class JointSlotDistribution:
    """Pair outcome weights over arrival slots at the monitored ports.

    ``joint`` is the 3x3 table over (signal slot, idler slot) with slots
    0 = short/early, 1 = central, 2 = long/late; ``marginal`` is the
    per-photon slot distribution of a single arm.  Both retain the
    non-unity total mass left after the unmonitored interferometer ports.
    """

    joint: np.ndarray
    marginal: np.ndarray


def joint_slot_distribution(
    phi_p: float, phi_s: float, phi_i: float, v0: float
) -> JointSlotDistribution:
    """Monitored-port slot weights of one photon pair.

    The marginal of :func:`_outcome_table` over the monitored ports: the
    joint table keeps the outcomes with both photons monitored, the
    singles marginal those with the signal photon monitored.
    """
    if not 0.0 <= v0 <= 1.0:
        raise ValueError(f"v0 must lie in [0, 1], got {v0}")
    probs, s_slot, i_slot, s_mon, i_mon = _outcome_table(phi_p, phi_s, phi_i, v0)
    both = s_mon & i_mon
    joint = np.zeros((3, 3))
    joint[s_slot[both], i_slot[both]] = probs[both]
    marginal = np.bincount(s_slot[s_mon], weights=probs[s_mon], minlength=3)
    return JointSlotDistribution(joint=joint, marginal=marginal)


def _outcome_table(phi_p: float, phi_s: float, phi_i: float, v0: float):
    """Full pair outcome table including the unmonitored ports.

    This is the one encoding of the pair-outcome law.  Returns
    (probabilities, signal slot, idler slot, signal monitored, idler
    monitored) arrays over the 28 outcomes: 7 reachable slot pairs times
    2 ports per photon (the corners (0, 2) and (2, 0) never occur).
    Satellite slots are port-independent at 1/32 each.  The central slot
    splits (1 -/+ v0 cos delta)/16, delta = phi_s + phi_i - phi_p, between
    like and unlike port combinations: the two-photon interference of the
    early-pump/long-paths and late-pump/short-paths amplitudes.  A single
    photon shows no interference; its central slot just collects two
    indistinguishable path alternatives.  The table sums to exactly 1.
    """
    delta = phi_s + phi_i - phi_p
    interference = v0 * np.cos(delta)
    probs, s_slot, i_slot, s_mon, i_mon = [], [], [], [], []
    for s in range(3):
        for i in range(3):
            if (s, i) in ((0, 2), (2, 0)):
                continue
            for ps in (True, False):
                for pi in (True, False):
                    if s == 1 and i == 1:
                        sign = -1.0 if ps == pi else 1.0
                        p = (1.0 + sign * interference) / 16.0
                    else:
                        p = 1.0 / 32.0
                    probs.append(p)
                    s_slot.append(s)
                    i_slot.append(i)
                    s_mon.append(ps)
                    i_mon.append(pi)
    probs = np.array(probs)
    probs = probs / probs.sum()
    return (probs, np.array(s_slot), np.array(i_slot),
            np.array(s_mon), np.array(i_mon))


def _block_range(config: ExperimentConfig):
    n_pulses = int(round(config.duration * config.rep_rate))
    n_blocks = max(1, -(-n_pulses // BLOCK_PULSES)) if n_pulses else 0
    return n_pulses, n_blocks


def _dark_tags(rng, rate, t0_ps, t1_ps):
    if rate <= 0 or t1_ps <= t0_ps:
        return np.empty(0, dtype=np.float64)
    span_s = (t1_ps - t0_ps) * 1e-12
    n = rng.poisson(rate * span_s)
    return t0_ps + rng.random(n) * (t1_ps - t0_ps)


def _emit_block(config, block, n_pulses, table, time_bin: bool):
    """Generate the detections of one pulse block.

    Returns (times, channels, t_end): the unsorted detections as float ps
    clipped at 0, in draw order (signal photons, signal darks, idler
    photons, idler darks), and the end of the block's last pulse period.
    Equal (time, channel) detections keep this order through the stable
    sort in :func:`_iter_tags`.  Pulse k's trigger is at round(k * period)
    ps; the trigger grid itself is built where it is merged.

    Pair counts use the superposition property of the Poisson process:
    one total Poisson draw for the block, pulse indices assigned
    uniformly, which is distributionally identical to a per-pulse draw.
    """
    period_ps = 1e12 / config.rep_rate
    first = block * BLOCK_PULSES
    count = min(BLOCK_PULSES, n_pulses - first)
    rng = np.random.default_rng([config.rng_seed, block])

    n_pairs = rng.poisson(config.mu * count)
    pulse_of_pair = np.sort(rng.integers(0, count, n_pairs))
    base = np.round((first + pulse_of_pair) * period_ps) + config.detection_delay * 1e12

    jitter_ps = config.jitter_sigma * 1e12
    bin_ps = config.bin_delay * 1e12

    if time_bin:
        probs, s_slot, i_slot, s_mon, i_mon = table
        outcome = rng.choice(len(probs), size=n_pairs, p=probs)
        det_s = s_mon[outcome] & (rng.random(n_pairs) < config.eta_signal)
        det_i = i_mon[outcome] & (rng.random(n_pairs) < config.eta_idler)
        t_s = base[det_s] + s_slot[outcome][det_s] * bin_ps
        t_i = base[det_i] + i_slot[outcome][det_i] * bin_ps
    else:
        det_s = rng.random(n_pairs) < config.eta_signal
        det_i = rng.random(n_pairs) < config.eta_idler
        t_s = base[det_s]
        t_i = base[det_i]
    t_s = t_s + rng.normal(0.0, jitter_ps, t_s.size)
    t_i = t_i + rng.normal(0.0, jitter_ps, t_i.size)

    t0 = np.round(first * period_ps)
    t1 = np.round((first + count - 1) * period_ps) + period_ps
    dark_rng = np.random.default_rng([config.rng_seed, block, 1])
    d_s = _dark_tags(dark_rng, config.dark_rate_signal, t0, t1)
    d_i = _dark_tags(dark_rng, config.dark_rate_idler, t0, t1)

    times = np.clip(np.concatenate([t_s, d_s, t_i, d_i]), 0.0, None)
    channels = np.concatenate([
        np.full(t_s.size + d_s.size, CH_SIGNAL, dtype=np.uint8),
        np.full(t_i.size + d_i.size, CH_IDLER, dtype=np.uint8),
    ])
    return times, channels, t1


def _merge(grid, times, channels) -> np.ndarray:
    """Tag array of time-sorted detections merged into a trigger grid.

    Detection k lands at ``searchsorted(grid, t_k, "left") + k``: before
    any trigger at an equal time, the order a (time, channel) sort gives
    because CH_TRIGGER is the largest channel.  The triggers fill the
    remaining slots in grid order, so no trigger is ever sorted.
    """
    pos = np.searchsorted(grid, times, side="left") + np.arange(times.size)
    out = np.empty(grid.size + times.size, dtype=TAG_DTYPE)
    is_trigger = np.ones(out.size, dtype=bool)
    is_trigger[pos] = False
    time_ps = out["time_ps"]
    time_ps[is_trigger] = grid
    time_ps[pos] = np.round(times)
    channel = out["channel"]
    channel[...] = CH_TRIGGER
    channel[pos] = channels
    return out


def _iter_tags(config: ExperimentConfig, time_bin: bool) -> Iterator[np.ndarray]:
    config.validate()
    n_pulses, n_blocks = _block_range(config)
    if n_pulses == 0:
        return
    table = _outcome_table(config.phi_p, config.phi_s, config.phi_i,
                           config.interference_visibility) if time_bin else None

    period_ps = 1e12 / config.rep_rate
    k0 = 0  # first pulse whose trigger is not yet emitted
    carry_t = np.empty(0, dtype=np.float64)
    carry_c = np.empty(0, dtype=np.uint8)
    upcoming = _emit_block(config, 0, n_pulses, table, time_bin)
    for block in range(n_blocks):
        times, channels, t_end = upcoming
        # Only the detections are sorted; carried ones come first, so the
        # stable sort keeps them ahead of equal (time, channel) newcomers.
        times = np.concatenate([carry_t, times])
        channels = np.concatenate([carry_c, channels])
        order = np.lexsort((channels, times))
        times, channels = times[order], channels[order]
        # Jittered events may spill past the block's last pulse, and the
        # next block's first pulses may place photons before its start.
        # Hold back every tag from the earlier of the two on, so emitted
        # chunks stay globally time-sorted.
        cut_t = np.inf
        if block < n_blocks - 1:
            upcoming = _emit_block(config, block + 1, n_pulses, table, time_bin)
            cut_t = min(t_end, upcoming[0].min(initial=t_end))
        cut = np.searchsorted(times, cut_t, side="left")
        carry_t, carry_c = times[cut:], channels[cut:]
        grid = np.round(np.arange(k0, min((block + 1) * BLOCK_PULSES, n_pulses))
                        * period_ps)
        grid = grid[:np.searchsorted(grid, cut_t, side="left")]
        k0 += grid.size
        yield _merge(grid, times[:cut], channels[:cut])


def iter_simulate(config: ExperimentConfig) -> Iterator[np.ndarray]:
    """Stream the full time-bin experiment in memory-bounded chunks."""
    return _iter_tags(config, time_bin=True)


def iter_simulate_single_bin(config: ExperimentConfig) -> Iterator[np.ndarray]:
    """Stream the single-bin characterization experiment in chunks."""
    return _iter_tags(config, time_bin=False)


def _collect(chunks) -> np.ndarray:
    parts = list(chunks)
    if not parts:
        return np.empty(0, dtype=TAG_DTYPE)
    return np.concatenate(parts)


def simulate(config: ExperimentConfig) -> np.ndarray:
    """Full time-bin run as one sorted tag array.

    Per pump pulse: one trigger tag; Poisson(mu) pairs, each sent through
    the pump and analysis interferometers via the analytic outcome table,
    thinned by the detection efficiencies, time-stamped with Gaussian
    jitter; dark counts superimposed as homogeneous Poisson processes.
    """
    return _collect(iter_simulate(config))


def simulate_no_pump_interferometer(config: ExperimentConfig) -> np.ndarray:
    """Single-bin run: pairs occupy one slot, no analysis interferometers.

    This is the configuration used for Klyshko/CAR/brightness
    characterization; the coincidence histogram has a single peak per
    pulse.
    """
    return _collect(iter_simulate_single_bin(config))
