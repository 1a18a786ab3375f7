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
                       ExperimentConfig, PulseGrid)

__all__ = [
    "GateConfig",
    "Quantity",
    "RateReport",
    "FringeScan",
    "MIN_HIST_BIN",
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


# Tags are whole picoseconds, so a finer histogram bin resolves nothing.
MIN_HIST_BIN = 1e-12


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
    the k-th offset in time order.  Gates of one channel must not overlap;
    they may touch, compared in whole picoseconds, the resolution of a tag.
    """

    gate_width: float = DEFAULT_GATE_WIDTH
    offsets: dict = field(default_factory=dict)  # channel -> list of seconds

    def __post_init__(self):
        if not (np.isfinite(self.gate_width) and self.gate_width > 0):
            raise ValueError(f"gate_width must be a positive finite number, "
                             f"got {self.gate_width!r}")
        width_ps = round(self.gate_width * 1e12)
        for ch, offs in self.offsets.items():
            if not np.all(np.isfinite(offs)):
                raise ValueError(f"gate offsets on channel {ch} must be finite, got {offs!r}")
            offs_ps = sorted(round(o * 1e12) for o in offs)
            for a, b in zip(offs_ps, offs_ps[1:]):
                if b - a < width_ps:
                    raise ValueError(f"overlapping gates on channel {ch}: {a} ps and {b} ps")

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
    """Fold over a time-sorted tag stream.

    Each detection belongs to the pulse of the latest trigger at or before
    its time.  Two front ends find that pulse and feed one fold over
    (pulse index, channel, time after the trigger):

    - **explicit** (no ``grid``): trigger tags in the stream, looked up by
      ``searchsorted``; events before the first trigger are dropped and
      counted in ``dropped_pre_trigger``.  Between chunks it holds the
      detections at the chunk's final timestamp, which a trigger at that
      same time opening the next chunk would claim.
    - **arithmetic** (a :class:`~timebin.simulate.PulseGrid`): the stream
      holds detections only, and ``grid.index`` gives each one's pulse; no
      trigger is ever built.

    Coincidences are signal-idler pairs whose gated slots belong to the
    same pulse; pairing each signal event with the idler events of the
    next pulse gives the accidentals diagnostic.  A pair is counted as soon
    as a later detection or trigger closes its idler event's pulse, so
    between chunks the fold holds only the gated events of the open pulses
    (idler events of the last pulse, signal events of the last two).
    ``hist_bin`` is at least ``MIN_HIST_BIN``, 1 ps, the resolution of a tag.
    """

    def __init__(self, gates: GateConfig, hist_bin: float = 10e-12,
                 grid: PulseGrid | None = None):
        if not (np.isfinite(hist_bin) and hist_bin >= MIN_HIST_BIN):
            raise ValueError(f"hist_bin must be a finite number of at least {MIN_HIST_BIN:g} s, "
                             f"got {hist_bin!r}")
        self.gates = gates
        self.hist_bin_ps = hist_bin * 1e12
        self.grid = grid
        self.n_triggers = 0
        self.dropped_pre_trigger = 0
        self._first_trigger = self._last_trigger = None
        if grid is not None:
            self.n_triggers = grid.pulses
            self._first_trigger, self._last_trigger = (
                int(t) for t in grid.times(np.array([0, grid.pulses - 1])))
        self._last_time = -1
        self._hist = {}          # channel -> counts array (lazy length)
        self._offs_ps = {ch: np.sort(np.asarray(gates.offsets.get(ch, ()), dtype=float) * 1e12)
                         for ch in (CH_SIGNAL, CH_IDLER)}
        self._gated = {ch: np.zeros(max(offs.size, 1), dtype=np.int64)
                       for ch, offs in self._offs_ps.items()}
        shape = (self._gated[CH_SIGNAL].size, self._gated[CH_IDLER].size)
        self._joint = np.zeros(shape, dtype=np.int64)
        self._neighbor = np.zeros(shape, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._open = {ch: (empty, empty) for ch in self._gated}  # (pulse, slot)
        self._held = (empty, np.empty(0, dtype=np.uint8))       # times, channels

    def feed(self, tags: np.ndarray) -> None:
        if tags.size == 0:
            return
        times = tags["time_ps"].astype(np.int64)
        if np.any(np.diff(times) < 0) or times[0] < self._last_time:
            raise ValueError("stream is not time-sorted")
        self._last_time = int(times[-1])
        if self.grid is None:
            self._associate(times, tags["channel"], final=False)
        else:
            pulse = self.grid.index(times)
            rel = times - self.grid.times(pulse)
            self._fold(pulse, tags["channel"], rel, open_pulse=int(pulse[-1]))

    def _associate(self, times, channels, final):
        """Explicit front end: pulses of one chunk's detections from its
        trigger tags.  Unless ``final``, the detections at the chunk's last
        timestamp are held for the next chunk and the last trigger's pulse
        stays open."""
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
        detection = (channels == CH_SIGNAL) | (channels == CH_IDLER)
        t = np.concatenate([self._held[0], times[detection]])
        c = np.concatenate([self._held[1], channels[detection]])
        if not final:
            cut = np.searchsorted(t, times[-1], side="left")
            t, c, self._held = t[:cut], c[:cut], (t[cut:], c[cut:])
        idx = np.searchsorted(table, t, side="right") - 1
        good = idx >= 0
        self.dropped_pre_trigger += int(np.count_nonzero(~good))
        idx = idx[good]
        self._fold(idx + base_index, c[good], t[good] - table[idx],
                   open_pulse=None if final else self.n_triggers - 1)

    def _fold(self, pulse, channels, rel, open_pulse):
        """Gate and pair detections given as (pulse, channel, ps after the
        pulse's trigger).  Pulses before ``open_pulse`` are closed: no later
        detection belongs to them.  ``None`` closes every pulse."""
        rel = np.asarray(rel, dtype=float)
        for ch, offs in self._offs_ps.items():
            on = channels == ch
            if not np.any(on):
                continue
            r = rel[on]
            self._histogram(ch, r)
            if offs.size == 0:
                continue
            # Nearest gate; a detection on a midpoint goes to the earlier one.
            slot = np.searchsorted((offs[1:] + offs[:-1]) / 2, r)
            ok = np.abs(r - offs[slot]) <= self.gates.gate_width * 1e12 / 2
            self._gated[ch] += np.bincount(slot[ok], minlength=offs.size)
            open_p, open_s = self._open[ch]
            self._open[ch] = (np.concatenate([open_p, pulse[on][ok]]),
                              np.concatenate([open_s, slot[ok]]))

        # Both event lists are in pulse order, since detections come in
        # time order.
        sp, ss = self._open[CH_SIGNAL]
        ip, islot = self._open[CH_IDLER]
        close = ip.size if open_pulse is None else np.searchsorted(ip, open_pulse, side="left")
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
        if open_pulse is not None:
            keep = np.searchsorted(sp, open_pulse - 1, side="left")
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
        if end.grid is None:
            end._associate(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8),
                           final=True)
        else:
            empty = np.empty(0, dtype=np.int64)
            end._fold(empty, empty, empty, open_pulse=None)
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

    def __post_init__(self):
        if self.n_triggers < 2 or not self.duration > 0:
            raise ValueError(f"stream has {self.n_triggers} trigger(s) spanning "
                             f"{self.duration} s; a duration needs two at distinct times")

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


def analyze_stream(chunks, gates: GateConfig, hist_bin: float = 10e-12,
                   grid: PulseGrid | None = None) -> AnalysisResult:
    """Run the full analysis over an array or an iterable of tag chunks:
    explicit trigger tags, or detections on ``grid``."""
    analyzer = StreamAnalyzer(gates, hist_bin, grid)
    if isinstance(chunks, np.ndarray):
        chunks = [chunks]
    for chunk in chunks:
        analyzer.feed(chunk)
    return analyzer.result()


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


def _wls(design, y, weights=None, at=None):
    """(coef, cov) minimizing sum w (y - design @ coef)^2.

    ``cov`` is (X^T W X)^-1, scaled by chi^2/(n - p) unless ``weights`` are
    given as absolute inverse variances: the convention of both
    ``np.polyfit(cov=True)`` and ``curve_fit``.  chi^2 is taken at ``at``
    if given, for a fit held on the edge of its domain.
    """
    sw = np.ones_like(y) if weights is None else np.sqrt(weights)
    u, s, vt = np.linalg.svd(design * sw[:, None], full_matrices=False)
    coef = vt.T @ (u.T @ (y * sw) / s)
    cov = (vt.T / s**2) @ vt
    if weights is None:
        resid = y - design @ (coef if at is None else at)
        cov *= (resid @ resid) / (y.size - design.shape[1])
    return coef, cov


def _linfit(x, y):
    """Least-squares line y = a*x + b; returns (a, b, err_a, err_b)."""
    if np.ptp(x) == 0:
        raise ValueError("degenerate abscissae: all x values identical")
    coef, cov = _wls(np.column_stack([x, np.ones_like(x)]), y)
    return (*coef, *np.sqrt(np.diag(cov)))


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
    powers = np.array([p for p, _ in points], dtype=float)
    if np.unique(powers).size < 3:
        raise ValueError("need at least 3 distinct powers")

    rc = np.array([r.coincidence_rate.value for _, r in points])
    b_slope, _, b_err, _ = _linfit(powers, rc)

    kly = [klyshko(r) for _, r in points]
    keep = powers >= (-np.inf if exclude_below is None else exclude_below)
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
        if not np.all(np.isfinite(self.phases)):
            bad = self.phases[~np.isfinite(self.phases)]
            raise ValueError(f"fringe scan holds phases that are not finite: {bad.tolist()}")
        if np.unique(self.phases).size < 5:
            raise ValueError("fringe fit needs at least 5 distinct phases")
        if np.ptp(self.phases) < np.pi:
            raise ValueError("fringe scan must span at least half a period")
        if not np.all(np.isfinite(self.counts / self.integration_times)):
            raise ValueError("fringe scan holds a rate that is not finite")


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

    The law is linear in (a, b, c) = (A, -AV cos phi0, AV sin phi0), so one
    weighted linear solve gives A = a, V = hypot(b, c)/a, phi0 = atan2(c, -b)
    and, by the delta method, sigma_V.  If a <= 0 or V > 1, the optimum
    lies on the edge V = 1 of the convex cone hypot(b, c) <= a: there
    A(phi0) = <g, wy>/<g, wg> with g = 1 - cos(phi + phi0), and phi0
    maximizes <g, wy>^2/<g, wg>.  With ``poisson_weights`` sqrt(count) are
    absolute errors; unweighted errors are scaled by the residuals.
    """
    scan.validate()
    rates = scan.counts / scan.integration_times
    if float(np.mean(rates)) <= 0:
        return FringeFit(Quantity(0.0, 0.0), 0.0, 0.0)
    weights = (scan.integration_times**2 / np.clip(scan.counts, 1.0, None)
               if poisson_weights else None)
    design = np.column_stack([np.ones_like(scan.phases), np.cos(scan.phases),
                              np.sin(scan.phases)])
    (a, b, c), cov = _wls(design, rates, weights)
    vis = np.hypot(b, c) / a if a > 0 else np.inf
    if vis > 1:
        a, b, c = edge = _edge_fringe(design, rates, weights)
        _, cov = _wls(design, rates, weights, at=edge)
        vis = 1.0
    phi0 = np.arctan2(c, -b)
    # Gradient of V = hypot(b, c)/a, with (b, c)/hypot(b, c) = (-cos, sin) phi0.
    grad = np.array([-vis, -np.cos(phi0), np.sin(phi0)]) / a
    return FringeFit(Quantity(float(vis), float(np.sqrt(grad @ cov @ grad))),
                     float(phi0), float(a))


def _edge_fringe(design, rates, weights):
    """Coefficients A*u of the best V = 1 fringe: g = design @ u with
    u = (1, -cos phi0, sin phi0), so <g, wy>^2/<g, wg> = (u.h)^2/(u.G u),
    maximized over A >= 0 on grids that each span one step either side of
    the previous grid's best phase, down to a step of 2e-10 rad."""
    w = np.ones_like(rates) if weights is None else weights
    gram, h = design.T @ (w[:, None] * design), design.T @ (w * rates)
    phi0, half = np.pi, np.pi
    for _ in range(4):
        grid = phi0 + np.linspace(-half, half, 721)
        u = np.stack([np.ones_like(grid), -np.cos(grid), np.sin(grid)])
        phi0 = grid[np.argmax(np.maximum(h @ u, 0) ** 2 / np.einsum("ik,ij,jk->k", u, gram, u))]
        half = grid[1] - grid[0]
    u = np.array([1.0, -np.cos(phi0), np.sin(phi0)])
    return (h @ u) / (u @ gram @ u) * u


def max_visibility_from_car(car_value: float) -> float:
    """Visibility ceiling (CAR - 1)/(CAR + 1) imposed by accidentals."""
    if car_value < 1.0:
        raise ValueError(f"CAR must be >= 1, got {car_value}")
    return (car_value - 1.0) / (car_value + 1.0)
