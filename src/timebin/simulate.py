"""Monte-Carlo forward model of the pulsed photon-pair experiment.

Generates the detections of a run, either of the plain
pair-characterization setup (one time bin, no analysis interferometers)
or of the full time-bin configuration: pump interferometer, pair
creation, one analysis interferometer per arm, detection losses, timing
jitter and dark counts.

Interference is handled at the level of analytic outcome probabilities
per pair rather than amplitude tracking: each created pair is assigned a
(signal slot, idler slot, signal port, idler port) outcome drawn from the
exact quantum probabilities, which reproduces the central-peak fringe
law rate ~ 1 - V cos(phi_s + phi_i - phi_p) by construction.

Tags are numpy structured arrays with fields ``channel`` (u8) and
``time_ps`` (u64).  The pump triggers are arithmetic, a :class:`PulseGrid`:
pulse k's trigger sits at round(k * period) ps, so :func:`iter_simulate`
and :func:`iter_simulate_single_bin` yield only the detections, and every
consumer takes them with ``PulseGrid.of(config)``.  Generation is
organized in fixed-size pulse blocks, each with its own RNG substream
derived from (seed, block index), so the output is deterministic and
independent of how it is chunked.  A stream depends on the bit streams
of ``Generator.poisson``, ``integers``, ``random`` and ``normal`` alone:
the pair outcomes are the indices ``Generator.choice`` would draw, found
from the same uniforms without calling it (:func:`_draw_outcomes`), and
an efficiency of 0 or 1 skips its uniforms with ``advance``
(:func:`_detected`).

Detections are ordered by (float time, channel), by one sort of their
bits as integer keys, and then rounded to whole picoseconds.  A
detection goes ahead of a trigger at an equal time.  A block is emitted
once the next block's detections are drawn: every detection from the end
of its last pulse period, or from the next block's earliest detection if
that comes first, is carried into the next block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict
from typing import Iterator

import numpy as np

from . import finite_number

__all__ = [
    "CH_SIGNAL",
    "CH_IDLER",
    "TAG_DTYPE",
    "ExperimentConfig",
    "PulseGrid",
    "iter_simulate",
    "iter_simulate_single_bin",
    "first_bad_record",
]

CH_SIGNAL = 0
CH_IDLER = 1
CH_TRIGGER = 2

# The on-disk record of the tag file format as well (see ``streams``).
TAG_DTYPE = np.dtype([("channel", "<u1"), ("time_ps", "<u8")])
_MAX_TIME_PS = np.uint64(np.iinfo(np.int64).max)  # times are analyzed as int64

# Pulses per generation block; fixed so that RNG substreams (and hence the
# output stream) do not depend on consumer chunking.
BLOCK_PULSES = 1 << 20
# Most pairs plus darks one block may expect; mu = 2, 1e8 darks/s expect 4.9e6.
MAX_BLOCK_DRAWS = 1 << 24
# How far yield * power may stray from mean_pairs_per_pulse: a few ulps,
# as 0.1 * 0.3 misses 0.03 by one.
_PAIR_RATE_REL_TOL = 1e-9


def first_bad_record(tags, last) -> tuple[int, str] | None:
    """(index, fault) of the first of ``tags``, following a record at time
    ``last``, that is not a detection record: one on a channel but 0 and 1,
    at a time of 2^63 ps or more, or before the previous record's.  None if
    there is none.  This is the one record rule: the tag file reader and
    writer and ``StreamAnalyzer.feed`` all keep it."""
    channel, time_ps = tags["channel"], tags["time_ps"]
    if tags.size == 0 or (channel.max() <= CH_IDLER and time_ps[0] >= last
                          and not np.any(time_ps[1:] < time_ps[:-1])
                          and time_ps[-1] <= _MAX_TIME_PS):
        return None
    bad_channel = channel > CH_IDLER
    bad_time = time_ps > _MAX_TIME_PS
    unsorted = time_ps < np.concatenate([[np.uint64(last)], time_ps[:-1]])
    k = int(np.argmax(bad_channel | bad_time | unsorted))
    if channel[k] == CH_TRIGGER:
        return k, "trigger record; the pulse grid holds the triggers"
    if bad_channel[k]:
        return k, f"unknown channel {channel[k]}"
    if bad_time[k]:
        return k, f"time {time_ps[k]} ps is 2^63 ps or more"
    return k, f"time {time_ps[k]} ps is before the previous record's"


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, interferometer, detector and noise parameters of one run;
    a field's name, unit included, is also its config-file key.

    Defaults follow the apparatus this models: a 76.2 MHz pulsed pump,
    ~3 ns bin delay (13.1 ns pulse period).  ``mean_pairs_per_pulse`` is
    the run's pair rate; a ``pair_yield_per_watt`` times ``pump_power_w``
    describes it and must agree with it.  :meth:`validate`, run on
    construction, is the one check of a run: it keeps every detection
    below 2^53 ps, requires that ``PulseGrid.of`` give the run a pulse
    grid and checks no gate, which the analyzer fits to the pulse period.
    """

    rep_rate_hz: float = 76.2e6
    bin_delay_s: float = 3e-9               # early/late separation
    mean_pairs_per_pulse: float = 0.001
    pump_power_w: float = 0.0
    pair_yield_per_watt: float | None = None  # pairs / pulse / W; times power if set
    eta_signal: float = 1.0
    eta_idler: float = 1.0
    dark_rate_signal_hz: float = 0.0
    dark_rate_idler_hz: float = 0.0
    phi_p_rad: float = 0.0
    phi_s_rad: float = 0.0
    phi_i_rad: float = 0.0
    interference_visibility: float = 1.0    # V0, mode-overlap ceiling
    duration_s: float = 0.01
    rng_seed: int = 0
    jitter_sigma_s: float = 50e-12          # detector timing jitter
    detection_delay_s: float = 2e-9         # optical/electronic delay after trigger

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, value in vars(self).items():
            if value is not None or name != "pair_yield_per_watt":
                finite_number(value, name)
        if not isinstance(self.rng_seed, numbers.Integral) or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        if self.rep_rate_hz <= 0:
            raise ValueError("rep_rate_hz must be positive")
        for name in ("bin_delay_s", "mean_pairs_per_pulse", "dark_rate_signal_hz",
                     "dark_rate_idler_hz", "duration_s", "jitter_sigma_s",
                     "detection_delay_s", "pump_power_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("eta_signal", "eta_idler", "interference_visibility"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.pair_yield_per_watt is not None and not math.isclose(
                self.pair_yield_per_watt * self.pump_power_w, self.mean_pairs_per_pulse,
                rel_tol=_PAIR_RATE_REL_TOL):
            raise ValueError(f"pair_yield_per_watt * pump_power_w = {self.pair_yield_per_watt!r} "
                             f"* {self.pump_power_w!r} disagrees with mean_pairs_per_pulse = "
                             f"{self.mean_pairs_per_pulse!r}")
        # How late a detection may lie: below 2^53 ps, as a trigger does.
        times = {"duration_s": self.duration_s * 1e12,
                 "detection_delay_s": self.detection_delay_s * 1e12,
                 "bin_delay_s": 2e12 * self.bin_delay_s,
                 "jitter_sigma_s": 10e12 * self.jitter_sigma_s}
        if (total := sum(times.values())) >= 2**53:
            name = max(times, key=times.get)
            raise ValueError(f"{name} = {getattr(self, name)!r} puts detections up to "
                             f"{total:.3g} ps into the run, 2^53 ps or more")
        pulses = round(min(BLOCK_PULSES, self.duration_s * self.rep_rate_hz))  # largest block
        draws = {"mean_pairs_per_pulse": self.mean_pairs_per_pulse * pulses,
                 "dark_rate_signal_hz": self.dark_rate_signal_hz * pulses / self.rep_rate_hz,
                 "dark_rate_idler_hz": self.dark_rate_idler_hz * pulses / self.rep_rate_hz}
        if (total := sum(draws.values())) > MAX_BLOCK_DRAWS:
            name = max(draws, key=draws.get)
            raise ValueError(f"{name} = {getattr(self, name)!r} expects {total:.3g} random "
                             f"draws in a block of {pulses} pulses, more than 2^24")
        try:
            PulseGrid.of(self)
        except ValueError as exc:
            raise ValueError(f"rep_rate_hz = {self.rep_rate_hz!r} and duration_s = "
                             f"{self.duration_s!r} give no pulse grid: {exc}") from None
        if (self.pair_yield_per_watt or 0) < 0:  # agrees only at zero power and pair rate
            raise ValueError("pair_yield_per_watt must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PulseGrid:
    """The pump triggers of a run as arithmetic, not tags.

    Trigger k of ``pulses`` sits at round(k * period_ps) ps, in float64.
    This is the one home of that rule: the simulator places photons by it,
    ``streams`` rebuilds trigger tags by it and the analyzer assigns
    detections to pulses by it.  A grid has an integer count of at least 2
    pulses, a finite period of at least 1 ps, the resolution of a tag, and
    its last trigger below 2^53 ps, so every index and every trigger time
    is exact in float64 and no two triggers share a picosecond; it follows
    that a grid has at most 2^53 pulses.  Construction raises
    ``ValueError`` otherwise.
    """

    pulses: int
    period_ps: float

    def __post_init__(self):
        n, period = self.pulses, self.period_ps
        if not isinstance(n, numbers.Integral) or n < 2:
            raise ValueError(f"grid pulse count {n!r} is not an integer of at least 2")
        if finite_number(period, "grid period_ps") < 1:
            raise ValueError(f"grid period {period!r} ps is less than 1")
        # The count test comes first: a huge count has no float.
        if n > 2**53 or np.round((n - 1) * float(period)) >= 2.0**53:
            raise ValueError(f"grid of {n} pulses every {period!r} ps puts its last "
                             f"trigger at 2^53 ps or more")
        object.__setattr__(self, "pulses", int(n))
        object.__setattr__(self, "period_ps", float(period))

    @classmethod
    def of(cls, config: ExperimentConfig) -> "PulseGrid":
        pulses = min(config.duration_s * config.rep_rate_hz, 2.0**63)  # inf has no int
        return cls(int(round(pulses)), 1e12 / config.rep_rate_hz)

    def times(self, k):
        """Trigger times in float ps of the pulse indices ``k``."""
        t = k * self.period_ps
        return np.round(t, out=t) if isinstance(t, np.ndarray) else np.round(t)

    def locate(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(latest pulse, at most ``pulses - 1``, whose trigger is at or
        before each int64 time ``t``, -1 before the first trigger; int64 ps
        from that trigger to ``t``).

        The estimate is floor((t + 0.5)/period), clipped to the grid.  On a
        grid that ends below 2^52 ps, float error moves a trigger by at most
        1/4 ps off round(k * period), which is within half a ps of
        k * period, so consecutive triggers lie more than period - 2 ps
        apart.  The estimate is then the answer wherever its trigger is at
        or before t and t is less than period - 2 ps after it: for a period
        of at least 2 ps, every time but those 2 ps or so before a trigger.
        The other times, and all of them on a larger grid, are walked to the
        answer by single steps, which the monotone rule allows.  Times are
        compared as integers, so the answer is exact.
        """
        t = np.asarray(t, dtype=np.int64)
        k = np.clip((t + 0.5) / self.period_ps, 0, self.pulses - 1).astype(np.int64)
        rel = t - self._ps(k)
        near = self.period_ps - 2 if self.times(self.pulses) < 2.0**52 else -np.inf
        unsure = np.flatnonzero((rel < 0) | (rel >= near))
        if unsure.size:
            k[unsure] = self._walk(t[unsure], k[unsure])
            rel[unsure] = t[unsure] - self._ps(k[unsure])
        return k, rel

    def _ps(self, k):
        """``times(k)`` as int64, which holds them exactly: whole numbers
        of ps below 2^63."""
        return self.times(k).astype(np.int64)

    def _walk(self, t, k):
        """The pulses of ``t`` by single steps from the estimates ``k``."""
        last = self.pulses - 1
        while True:
            step = ((k < last) & (self._ps(np.minimum(k + 1, last)) <= t)).astype(np.int64)
            step -= (k >= 0) & (self._ps(k) > t)
            if not step.any():
                return k
            k += step


def _outcome_table(phi_p: float, phi_s: float, phi_i: float, v0: float):
    """Full pair outcome table including the unmonitored ports.

    This is the one encoding of the time-bin pair-outcome law; the
    single-bin law is the one-row ``_SINGLE_BIN_TABLE``.  Returns
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


# The single-bin law: one outcome, both photons monitored in slot 0.  It
# draws nothing for the outcome, as numpy's uniform choice of one item does.
_SINGLE_BIN_TABLE = (None, np.zeros(1, dtype=int), np.zeros(1, dtype=int),
                     np.ones(1, dtype=bool), np.ones(1, dtype=bool))

_GUIDE_BUCKETS = 1 << 12  # a power of two, so u * _GUIDE_BUCKETS is exact
_PAIR_SLICE = 1 << 14  # pairs mapped or placed at a time, so temporaries stay small


def _draw_outcomes(rng, probs, n):
    """``rng.choice(probs.size, n, p=probs)``, the same indices from the
    same draws in the smallest unsigned type; ``probs`` None, the
    single-bin law, draws nothing.

    ``choice`` returns, for each u = ``rng.random()``, how many entries of
    cdf = cumsum(probs) / its last entry are at most u.  Bucket b of the
    guide table holds that count at u = b / buckets, and a u in the bucket
    steps up from it while cdf[idx] <= u (Chen & Asau 1974; Devroye 1986,
    III.2.4): past zero-probability rows, never past the last entry, 1.
    """
    if probs is None:
        return np.zeros(n, dtype=np.uint8)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    guide = cdf.searchsorted(np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS, side="right")
    u = rng.random(n)
    out = np.empty(n, dtype=np.min_scalar_type(probs.size - 1))
    for lo in range(0, n, _PAIR_SLICE):
        us = u[lo:lo + _PAIR_SLICE]
        idx = guide[(us * _GUIDE_BUCKETS).astype(np.intp)]
        walk = np.flatnonzero(cdf[idx] <= us)
        while walk.size:
            idx[walk] += 1
            walk = walk[cdf[idx[walk]] <= us[walk]]
        out[lo:lo + us.size] = idx
    return out


def _detected(rng, eta, n):
    """``rng.random(n) < eta``, which of n photons of efficiency ``eta`` are
    detected.  At an efficiency of 0 or 1 the uniforms decide nothing, so
    the generator is advanced past them instead: the same later draws."""
    if eta == 0.0 or eta == 1.0:
        rng.bit_generator.advance(n)
        return eta == 1.0
    return rng.random(n) < eta


def _dark_tags(rng, rate, t0_ps, t1_ps):
    if rate <= 0 or t1_ps <= t0_ps:
        return np.empty(0, dtype=np.float64)
    span_s = (t1_ps - t0_ps) * 1e-12
    n = rng.poisson(rate * span_s)
    return t0_ps + rng.random(n) * (t1_ps - t0_ps)


def _emit_block(config, grid, block, law):
    """Generate the detections of one pulse block, pairs drawn from ``law``.

    Returns (times, channels, t_end): the unsorted detections as float ps
    clipped at 0, in draw order (signal photons, signal darks, idler
    photons, idler darks), and the end of the block's last pulse period.

    Pair counts use the superposition property of the Poisson process:
    one total Poisson draw for the block, pulse indices assigned
    uniformly, which is distributionally identical to a per-pulse draw.
    The block's generator draws the pair count (``poisson``), each pair's
    pulse (``integers``) and outcome (``random``, none when single-bin),
    each photon's detection (``random``) and each detected one's jitter
    (``normal``), in that order, and no other ``Generator`` method.  The
    darks come from a generator of their own, so they are drawn first, and
    the photons are placed straight into the returned array a slice of
    pairs at a time: little beyond that array is held while a block is
    drawn next to the sorted one before it.
    """
    first = block * BLOCK_PULSES
    count = min(BLOCK_PULSES, grid.pulses - first)
    rng = np.random.default_rng([config.rng_seed, block])

    n_pairs = rng.poisson(config.mean_pairs_per_pulse * count)
    # indices are below 2^20, so int32 holds them and sorts faster
    pulse_of_pair = np.sort(rng.integers(0, count, n_pairs, dtype=np.int32))

    probs, s_slot, i_slot, s_mon, i_mon = law
    outcome = _draw_outcomes(rng, probs, n_pairs)
    seen_s = _detected(rng, config.eta_signal, n_pairs) & s_mon[outcome]
    seen_i = _detected(rng, config.eta_idler, n_pairs) & i_mon[outcome]

    t0 = grid.times(first)
    t1 = grid.times(first + count - 1) + grid.period_ps
    dark_rng = np.random.default_rng([config.rng_seed, block, 1])
    d_s = _dark_tags(dark_rng, config.dark_rate_signal_hz, t0, t1)
    d_i = _dark_tags(dark_rng, config.dark_rate_idler_hz, t0, t1)

    n_signal = np.count_nonzero(seen_s) + d_s.size
    times = np.empty(n_signal + np.count_nonzero(seen_i) + d_i.size)
    end = 0
    for seen, slot, darks in ((seen_s, s_slot, d_s), (seen_i, i_slot, d_i)):
        offsets = slot * (config.bin_delay_s * 1e12)
        for lo in range(0, n_pairs, _PAIR_SLICE):
            pick = np.flatnonzero(seen[lo:lo + _PAIR_SLICE])
            pick += lo
            t = grid.times(np.int64(first) + pulse_of_pair.take(pick))
            t += config.detection_delay_s * 1e12
            t += offsets.take(outcome.take(pick))
            t += rng.normal(0.0, config.jitter_sigma_s * 1e12, t.size)
            times[end:end + t.size] = t
            end += t.size
        times[end:end + darks.size] = darks
        end += darks.size
    del pulse_of_pair, outcome, seen_s, seen_i  # before the channels are made
    np.maximum(times, 0.0, out=times)
    channels = np.full(times.size, CH_IDLER, dtype=np.uint8)
    channels[:n_signal] = CH_SIGNAL
    return times, channels, t1


def _iter_tags(config: ExperimentConfig, law) -> Iterator[np.ndarray]:
    """Detection tags of a run, one time-sorted chunk per pulse block.

    The chunks hold no trigger tags: the triggers are ``PulseGrid.of(config)``.
    Block b is sorted, then block b + 1 is drawn (:func:`_emit_block`) and
    chunk b is cut from the sorted block and yielded, so at most the
    sorted block b and block b + 1 are held.
    """
    grid = PulseGrid.of(config)
    n_blocks = -(-grid.pulses // BLOCK_PULSES)
    carry = np.empty(0, dtype=np.uint64)
    upcoming = _emit_block(config, grid, 0, law)
    for block in range(n_blocks):
        times, channels, t_end = upcoming
        del upcoming
        # Times are never negative, and such floats order as their bits,
        # so key = bits << 1 | channel orders as (time, channel); the
        # shift drops the sign bit of a -0.0.  Equal keys are equal
        # records, so an in-place sort of the keys is the stream.
        key = np.empty(carry.size + times.size, dtype=np.uint64)
        key[:carry.size] = carry
        np.left_shift(times.view(np.uint64), 1, out=key[carry.size:])
        key[carry.size:] |= channels
        del times, channels
        key.sort()
        channels = key.astype(np.uint8)
        channels &= 1
        key >>= 1
        times = key.view(np.float64)
        del key
        # Jittered events may spill past the block's last pulse, and the
        # next block's first pulses may place photons before its start.
        # Hold back every detection from the earlier of the two on, so
        # emitted chunks stay globally time-sorted.
        upcoming = _emit_block(config, grid, block + 1, law) if block + 1 < n_blocks else None
        cut_t = np.inf if upcoming is None else min(t_end, upcoming[0].min(initial=t_end))
        cut = np.searchsorted(times, cut_t, side="left")
        carry = times[cut:].view(np.uint64) << 1 | channels[cut:]
        tags = np.empty(cut, dtype=TAG_DTYPE)
        tags["time_ps"] = np.round(times[:cut], out=times[:cut])
        tags["channel"] = channels[:cut]
        del times, channels
        yield tags
        del tags  # before the next block is sorted, as the consumer has let go of it


def iter_simulate(config: ExperimentConfig) -> Iterator[np.ndarray]:
    """Detections of the full time-bin experiment in memory-bounded,
    time-sorted chunks; the triggers are ``PulseGrid.of(config)``."""
    return _iter_tags(config, _outcome_table(config.phi_p_rad, config.phi_s_rad,
                                             config.phi_i_rad, config.interference_visibility))


def iter_simulate_single_bin(config: ExperimentConfig) -> Iterator[np.ndarray]:
    """Detections of the single-bin characterization experiment in chunks;
    the triggers are ``PulseGrid.of(config)``."""
    return _iter_tags(config, _SINGLE_BIN_TABLE)
