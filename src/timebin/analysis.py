"""Single-pass analysis of time-tag streams.

Turns a sorted stream of trigger/signal/idler tags into the standard
figures of merit: relative-to-trigger histograms, gated singles and
coincidence rates, CAR, Klyshko efficiencies, brightness and log-log
power fits, and sinusoidal fringe visibilities.

The engine is a fold over the stream (:class:`StreamAnalyzer`): feed it
chunks in time order, then call :meth:`~StreamAnalyzer.result`.  Counts
are exactly additive, so processing one pass or concatenated chunks gives
identical results.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .simulate import (CH_IDLER, CH_SIGNAL, CH_TRIGGER, DEFAULT_GATE_WIDTH,
                       ExperimentConfig)

__all__ = [
    "GateConfig",
    "Quantity",
    "RateReport",
    "FringeScan",
    "StreamAnalyzer",
    "AnalysisResult",
    "analyze_stream",
    "car",
    "klyshko",
    "power_series_fit",
    "PowerSeriesFit",
    "fit_fringe",
    "FringeFit",
    "max_visibility_from_car",
]


@dataclass(frozen=True)
class Quantity:
    """A measured value with a one-sigma statistical error."""

    value: float
    error: float

    def to_dict(self) -> dict:
        return {"value": self.value, "error": self.error}


@dataclass(frozen=True)
class GateConfig:
    """Detection gates: width plus expected slot offsets per channel.

    Offsets are seconds relative to the associated trigger; a detection
    falls in slot k of its channel when it lies within gate_width/2 of
    offset k.  Gates of one channel must not overlap.
    """

    gate_width: float = DEFAULT_GATE_WIDTH
    offsets: dict = field(default_factory=dict)  # channel -> list of seconds

    def __post_init__(self):
        if self.gate_width <= 0:
            raise ValueError("gate_width must be positive")
        for ch, offs in self.offsets.items():
            offs = sorted(offs)
            for a, b in zip(offs, offs[1:]):
                if b - a < self.gate_width:
                    raise ValueError(f"overlapping gates on channel {ch}: {a} and {b}")

    @classmethod
    def single_bin(cls, config: ExperimentConfig, gate_width: float = DEFAULT_GATE_WIDTH):
        off = [config.detection_delay]
        return cls(gate_width, {CH_SIGNAL: off, CH_IDLER: off})

    @classmethod
    def time_bin(cls, config: ExperimentConfig, gate_width: float = DEFAULT_GATE_WIDTH):
        offs = [config.detection_delay + k * config.bin_delay for k in range(3)]
        return cls(gate_width, {CH_SIGNAL: offs, CH_IDLER: offs})


@dataclass(frozen=True)
class RateReport:
    """Gated singles, coincidence and trigger rates of one run."""

    n_signal: int
    n_idler: int
    n_coinc: int
    n_trigger: int
    duration: float
    n_central: int = 0

    def _rate(self, n: int) -> Quantity:
        return Quantity(n / self.duration, np.sqrt(n) / self.duration)

    @property
    def singles_signal(self) -> Quantity:
        return self._rate(self.n_signal)

    @property
    def singles_idler(self) -> Quantity:
        return self._rate(self.n_idler)

    @property
    def coincidence_rate(self) -> Quantity:
        return self._rate(self.n_coinc)

    @property
    def central_rate(self) -> Quantity:
        return self._rate(self.n_central)

    @property
    def trigger_rate(self) -> float:
        return self.n_trigger / self.duration

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration,
            "trigger_rate_hz": self.trigger_rate,
            "singles_signal": self.singles_signal.to_dict(),
            "singles_idler": self.singles_idler.to_dict(),
            "coincidence": self.coincidence_rate.to_dict(),
            "central": self.central_rate.to_dict(),
            "counts": {"signal": self.n_signal, "idler": self.n_idler,
                       "coincidence": self.n_coinc, "central": self.n_central,
                       "trigger": self.n_trigger},
        }


class StreamAnalyzer:
    """Fold over a sorted tag stream.

    Each detection is associated with the latest trigger at or before its
    time; events before the first trigger are dropped and counted in
    ``dropped_pre_trigger``.  Coincidences are signal-idler pairs whose
    gated slots belong to the same pulse; pairing each signal event with
    the idler events of the next pulse gives the accidentals diagnostic.

    A pair is counted as soon as a later trigger closes its idler event's
    pulse.  Between chunks the analyzer holds only the gated events of the
    open pulses (idler events of the last pulse, signal events of the last
    two) and the detections at the chunk's final timestamp, which a trigger
    at that same time opening the next chunk would claim.
    """

    def __init__(self, gates: GateConfig, hist_bin: float = 10e-12):
        self.gates = gates
        self.hist_bin_ps = hist_bin * 1e12
        self.n_triggers = 0
        self.dropped_pre_trigger = 0
        self._first_trigger = self._last_trigger = None
        self._last_time = -1
        self._hist = {}          # channel -> counts array (lazy length)
        self._offs_ps = {ch: np.asarray(gates.offsets.get(ch, ()), dtype=float) * 1e12
                         for ch in (CH_SIGNAL, CH_IDLER)}
        self._gated = {ch: np.zeros(max(offs.size, 1), dtype=np.int64)
                       for ch, offs in self._offs_ps.items()}
        shape = (self._gated[CH_SIGNAL].size, self._gated[CH_IDLER].size)
        self._joint = np.zeros(shape, dtype=np.int64)
        self._neighbor = np.zeros(shape, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._open = {ch: (empty, empty) for ch in self._gated}  # (pulse, slot)
        self._held = {ch: empty for ch in self._gated}           # detection times

    def feed(self, tags: np.ndarray) -> None:
        if tags.size == 0:
            return
        times = tags["time_ps"].astype(np.int64)
        if np.any(np.diff(times) < 0) or times[0] < self._last_time:
            raise ValueError("stream is not time-sorted")
        self._last_time = int(times[-1])
        self._fold(times, tags["channel"], final=False)

    def _fold(self, times, channels, final):
        """Associate, gate and pair one chunk's detections.

        Unless ``final``, the detections at the chunk's last timestamp are
        held for the next chunk and the last trigger's pulse stays open.
        """
        trig_times = times[channels == CH_TRIGGER]
        # The carried last trigger keeps the association of early events.
        table = (trig_times if self._last_trigger is None
                 else np.concatenate([[self._last_trigger], trig_times]))
        base_index = max(self.n_triggers - 1, 0)
        if trig_times.size:
            if self._first_trigger is None:
                self._first_trigger = int(trig_times[0])
            self._last_trigger = int(trig_times[-1])
            self.n_triggers += int(trig_times.size)

        for ch, offs in self._offs_ps.items():
            t = np.concatenate([self._held[ch], times[channels == ch]])
            if not final:
                cut = np.searchsorted(t, times[-1], side="left")
                t, self._held[ch] = t[:cut], t[cut:]
            idx = np.searchsorted(table, t, side="right") - 1
            good = idx >= 0
            self.dropped_pre_trigger += int(np.count_nonzero(~good))
            if not np.any(good):
                continue
            rel = (t[good] - table[idx[good]]).astype(float)
            self._histogram(ch, rel)
            if offs.size == 0:
                continue
            d = np.abs(rel[:, None] - offs[None, :])
            slot = np.argmin(d, axis=1)
            ok = d[np.arange(d.shape[0]), slot] <= self.gates.gate_width * 1e12 / 2
            self._gated[ch] += np.bincount(slot[ok], minlength=offs.size)
            pulse, slots = self._open[ch]
            self._open[ch] = (np.concatenate([pulse, idx[good][ok] + base_index]),
                              np.concatenate([slots, slot[ok]]))

        # A later trigger closes every pulse before the last one; both event
        # lists are in pulse order, since detections come in time order.
        last = self.n_triggers - 1
        sp, ss = self._open[CH_SIGNAL]
        ip, islot = self._open[CH_IDLER]
        close = ip.size if final else np.searchsorted(ip, last, side="left")
        q, q_slot = ip[:close], islot[:close]
        # Signal events of pulses q - 1 and q are the runs [e0, e1) and
        # [e1, e2) of sp; a slot's running count turns a run into a count.
        e0, e1, e2 = (np.searchsorted(sp, q + d) for d in (-1, 0, 1))
        running = np.zeros(sp.size + 1, dtype=np.int64)
        for s in range(self._joint.shape[0]):
            np.cumsum(ss == s, out=running[1:])
            for table, lo, hi in ((self._neighbor, e0, e1), (self._joint, e1, e2)):
                pairs = np.bincount(q_slot, running[hi] - running[lo],
                                    minlength=table.shape[1])
                table[s] += pairs.astype(np.int64)
        self._open[CH_IDLER] = ip[close:], islot[close:]
        keep = np.searchsorted(sp, last - 1, side="left")
        self._open[CH_SIGNAL] = sp[keep:], ss[keep:]

    def _histogram(self, ch, rel):
        new = np.bincount((rel / self.hist_bin_ps).astype(np.int64))
        old = self._hist.get(ch, new[:0])
        size = max(old.size, new.size)
        self._hist[ch] = np.pad(old, (0, size - old.size)) + np.pad(new, (0, size - new.size))

    def result(self) -> "AnalysisResult":
        """Counts so far, with the held detections and open pulses closed
        on a copy: the analyzer itself is unchanged and may be fed on."""
        end = copy.deepcopy(self)
        end._fold(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), final=True)
        period = (float(end._last_trigger - end._first_trigger) / (end.n_triggers - 1)
                  if end.n_triggers > 1 else 0.0)
        return AnalysisResult(
            histograms=end._hist,
            hist_bin=self.hist_bin_ps * 1e-12,
            gated_signal=end._gated[CH_SIGNAL],
            gated_idler=end._gated[CH_IDLER],
            joint=end._joint,
            neighbor_joint=end._neighbor,
            n_triggers=end.n_triggers,
            duration=end.n_triggers * period * 1e-12,
            dropped_pre_trigger=end.dropped_pre_trigger,
        )


@dataclass(frozen=True)
class AnalysisResult:
    """Accumulated histograms and counts of one analyzed stream.

    ``joint[s, i]`` counts same-pulse coincidences by (signal slot, idler
    slot); ``neighbor_joint`` counts pairs formed against the next pulse,
    the accidentals diagnostic.
    """

    histograms: dict
    hist_bin: float
    gated_signal: np.ndarray
    gated_idler: np.ndarray
    joint: np.ndarray
    neighbor_joint: np.ndarray
    n_triggers: int
    duration: float
    dropped_pre_trigger: int

    @property
    def delay_counts(self) -> dict:
        """Coincidences per delay d = idler slot - signal slot.

        Keys run 0, 1, 2, ... then -1, -2, ...; each value is the sum of
        the d-th diagonal of ``joint``.
        """
        n_s, n_i = self.joint.shape
        return {d: int(np.trace(self.joint, offset=d))
                for d in (*range(n_i), *range(-1, -n_s, -1))}

    def rate_report(self) -> RateReport:
        if self.n_triggers == 0 or self.duration <= 0:
            raise ValueError("stream contains no triggers")
        central = 0
        if self.joint.shape == (3, 3):
            central = int(self.joint[1, 1])
        return RateReport(
            n_signal=int(self.gated_signal.sum()),
            n_idler=int(self.gated_idler.sum()),
            n_coinc=int(self.joint.sum()),
            n_trigger=self.n_triggers,
            duration=self.duration,
            n_central=central,
        )


def analyze_stream(chunks, gates: GateConfig, hist_bin: float = 10e-12) -> AnalysisResult:
    """Run the full analysis over an array or an iterable of tag chunks."""
    analyzer = StreamAnalyzer(gates, hist_bin)
    if isinstance(chunks, np.ndarray):
        chunks = [chunks]
    for chunk in chunks:
        analyzer.feed(chunk)
    result = analyzer.result()
    if result.n_triggers == 0:
        raise ValueError("stream contains no triggers")
    return result


def car(rates: RateReport) -> Quantity:
    """Coincidences-to-accidentals ratio R_C R_t / (R_s R_i).

    The accidental rate is R_s R_i / R_t; errors are first-order
    propagation of the Poisson counting errors.
    """
    if min(rates.n_signal, rates.n_idler, rates.n_coinc, rates.n_trigger) <= 0:
        raise ValueError("CAR requires nonzero singles, coincidence and trigger counts")
    value = (rates.n_coinc * rates.n_trigger) / (rates.n_signal * rates.n_idler)
    rel = np.sqrt(1.0 / rates.n_coinc + 1.0 / rates.n_signal
                  + 1.0 / rates.n_idler + 1.0 / rates.n_trigger)
    return Quantity(value, value * rel)


def klyshko(rates: RateReport) -> tuple[Quantity, Quantity]:
    """Klyshko (heralded) efficiencies: coincidences over partner singles.

    Returns (eta_signal, eta_idler) = (R_C/R_i, R_C/R_s).
    """
    if rates.n_signal <= 0 or rates.n_idler <= 0:
        raise ValueError("Klyshko efficiency requires nonzero singles counts")
    nc = rates.n_coinc
    rel = np.sqrt(1.0 / max(nc, 1))
    eta_s = nc / rates.n_idler
    eta_i = nc / rates.n_signal
    return (Quantity(eta_s, eta_s * np.sqrt(rel**2 + 1.0 / rates.n_idler)),
            Quantity(eta_i, eta_i * np.sqrt(rel**2 + 1.0 / rates.n_signal)))


def _linfit(x, y):
    """Least-squares line y = a*x + b; returns (a, b, err_a, err_b)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.ptp(x) == 0:
        raise ValueError("degenerate abscissae: all x values identical")
    if x.size > 2:
        coef, cov = np.polyfit(x, y, 1, cov=True)
        err = np.sqrt(np.diag(cov))
    else:
        coef = np.polyfit(x, y, 1)
        err = np.array([0.0, 0.0])
    return coef[0], coef[1], err[0], err[1]


@dataclass(frozen=True)
class PowerSeriesFit:
    """Linear fits over a pump-power sweep."""

    brightness: Quantity            # coincidence rate per unit power
    klyshko_signal_intercept: Quantity
    klyshko_idler_intercept: Quantity
    car_loglog_slope: Quantity
    powers: np.ndarray

    def to_dict(self) -> dict:
        return {
            "brightness_per_power": self.brightness.to_dict(),
            "klyshko_signal_intercept": self.klyshko_signal_intercept.to_dict(),
            "klyshko_idler_intercept": self.klyshko_idler_intercept.to_dict(),
            "car_loglog_slope": self.car_loglog_slope.to_dict(),
            "powers": self.powers.tolist(),
        }


def power_series_fit(points, exclude_below: float | None = None) -> PowerSeriesFit:
    """Fit brightness, Klyshko intercepts and the log-log CAR slope.

    ``points`` is a sequence of (power, RateReport).  ``exclude_below``
    drops low-power points from the Klyshko intercept fits only; at weak
    pumping the gated singles are dominated by background, which pulls the
    apparent efficiency down.
    """
    points = sorted(points, key=lambda pr: pr[0])
    if len(points) < 3:
        raise ValueError("need at least 3 distinct powers")
    powers = np.array([p for p, _ in points], dtype=float)
    if np.unique(powers).size < 3:
        raise ValueError("need at least 3 distinct powers")

    rc = np.array([r.coincidence_rate.value for _, r in points])
    b_slope, _, b_err, _ = _linfit(powers, rc)

    kly = [klyshko(r) for _, r in points]
    keep = np.ones(len(points), dtype=bool)
    if exclude_below is not None:
        keep = powers >= exclude_below
        if np.count_nonzero(keep) < 3:
            raise ValueError("exclude_below leaves fewer than 3 points")
    ks = np.array([k[0].value for k in kly])
    ki = np.array([k[1].value for k in kly])
    _, ks0, _, ks0_err = _linfit(powers[keep], ks[keep])
    _, ki0, _, ki0_err = _linfit(powers[keep], ki[keep])

    cars = np.array([car(r).value for _, r in points])
    slope, _, slope_err, _ = _linfit(np.log(powers), np.log(cars))

    return PowerSeriesFit(
        brightness=Quantity(b_slope, b_err),
        klyshko_signal_intercept=Quantity(ks0, ks0_err),
        klyshko_idler_intercept=Quantity(ki0, ki0_err),
        car_loglog_slope=Quantity(slope, slope_err),
        powers=powers,
    )


@dataclass(frozen=True)
class FringeScan:
    """Central-peak coincidence counts versus interferometer phase."""

    phases: np.ndarray          # radians
    counts: np.ndarray
    integration_times: np.ndarray  # seconds

    @classmethod
    def from_points(cls, points) -> "FringeScan":
        phases, counts, times = zip(*points)
        return cls(np.asarray(phases, dtype=float),
                   np.asarray(counts, dtype=float),
                   np.asarray(times, dtype=float))

    def validate(self) -> None:
        if np.unique(self.phases).size < 5:
            raise ValueError("fringe fit needs at least 5 distinct phases")
        if np.ptp(self.phases) < np.pi:
            raise ValueError("fringe scan must span at least half a period")


@dataclass(frozen=True)
class FringeFit:
    """Result of the sinusoidal fringe fit A*(1 - V cos(phase + offset))."""

    visibility: Quantity
    phase_offset: float
    amplitude: float

    def to_dict(self) -> dict:
        return {"visibility": self.visibility.to_dict(),
                "phase_offset_rad": self.phase_offset,
                "amplitude": self.amplitude}


def fit_fringe(scan: FringeScan, poisson_weights: bool = False) -> FringeFit:
    """Least-squares fit of the fringe law rate = A*(1 - V cos(phi + phi0)).

    V is constrained to [0, 1].  With ``poisson_weights`` the fit uses
    sqrt(count) errors; the default is unweighted.
    """
    # Imported here so that only fringe fits pay for loading scipy.optimize.
    from scipy.optimize import curve_fit

    scan.validate()
    rates = scan.counts / scan.integration_times

    def model(phi, amp, vis, phi0):
        return amp * (1.0 - vis * np.cos(phi + phi0))

    mean = float(np.mean(rates))
    if mean <= 0:
        return FringeFit(Quantity(0.0, 0.0), 0.0, 0.0)
    spread = float(np.ptp(rates)) / 2.0
    # Phase of the first harmonic fixes the offset guess; the model has
    # its minimum at phi + phi0 = 0.
    z = np.mean(rates * np.exp(-1j * scan.phases))
    phi0_guess = float(np.angle(-z))
    p0 = [mean, min(spread / mean, 1.0), phi0_guess]
    sigma = None
    if poisson_weights:
        sigma = np.sqrt(np.clip(scan.counts, 1.0, None)) / scan.integration_times
    popt, pcov = curve_fit(
        model, scan.phases, rates, p0=p0,
        bounds=([0.0, 0.0, -2 * np.pi], [np.inf, 1.0, 2 * np.pi]),
        sigma=sigma, absolute_sigma=poisson_weights, maxfev=10000)
    perr = np.sqrt(np.diag(pcov))
    return FringeFit(Quantity(float(popt[1]), float(perr[1])),
                     float(popt[2]), float(popt[0]))


def max_visibility_from_car(car_value: float) -> float:
    """Visibility ceiling (CAR - 1)/(CAR + 1) imposed by accidentals."""
    if car_value < 1.0:
        raise ValueError(f"CAR must be >= 1, got {car_value}")
    return (car_value - 1.0) / (car_value + 1.0)
