"""Single-pass analysis of time-tag streams.

Turns the time-sorted signal and idler detections of a run on its pump
pulse grid into the standard figures of merit: relative-to-trigger
histograms, gated singles and coincidence rates, CAR, Klyshko
efficiencies, brightness and log-log power fits, and sinusoidal fringe
visibilities.

The engine is a fold over the stream (:class:`StreamAnalyzer`): feed it
chunks in time order, then call :meth:`~StreamAnalyzer.result`.  Counts
are exactly additive, so processing one pass or concatenated chunks gives
identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_GATE_WIDTH, DEFAULT_HIST_BIN, finite_number
from .simulate import CH_IDLER, CH_SIGNAL, ExperimentConfig, PulseGrid, first_bad_record

__all__ = [
    "GateConfig",
    "Quantity",
    "RateReport",
    "whole_ps",
    "StreamAnalyzer",
    "AnalysisResult",
    "analyze_stream",
    "car",
    "klyshko",
    "power_series_fit",
    "PowerSeriesFit",
    "check_fringe_phases",
    "fit_fringe",
    "FringeFit",
    "max_visibility_from_car",
]


# Bound on a gate width, and a histogram bin, in whole ps.
MAX_GATE_PS = 2**62

# Detections per step of the fold, a slice of the chunk's records; the int64
# temporaries, its times as ``PulseGrid.locate`` casts them first, take 256 KiB.
# Unless the heap top is padded (``cli.run`` pads it), glibc maps such blocks
# afresh on each step, and the fold faults its memory in again.  A cold
# ``feed`` of a fringe-scan phase took 7802 minor faults at 2^14 records a
# step and 11971 at 2^15 unpadded; padded, 957 at 2^14, 1486 at 2^15 and 7166
# at 2^16, and 2^15 was the fastest of the three (medians of 8: 70.1, 61.6
# and 66.6 ms).
FOLD_RECORDS = 1 << 15


def whole_ps(seconds, name: str) -> int:
    """``seconds`` rounded to whole ps, the resolution of a tag: the one
    conversion of a gate width and a histogram bin.  Either must be finite
    and round to 1 to ``MAX_GATE_PS`` ps, else a ValueError names ``name``."""
    ps = finite_number(seconds, name) * 1e12  # inf for a finite 1e300 s, which round() refuses
    if not (np.isfinite(ps) and 1 <= round(ps) <= MAX_GATE_PS):
        raise ValueError(f"{name} must lie within 1 and 2^62 ps in whole ps, got {seconds!r} s")
    return round(ps)


@dataclass(frozen=True)
class Quantity:
    """A measured value with a one-sigma statistical error."""

    value: float
    error: float

    def to_dict(self) -> dict:
        return {"value": self.value, "error": self.error}


@dataclass(frozen=True)
class GateConfig:
    """Detection gates: one width and the expected slot offsets, shared by
    the signal and the idler.

    Offsets are seconds after the pulse's trigger, kept as a sorted tuple of
    floats.  The gate rule works in whole picoseconds, the resolution of a
    tag, with each offset and the width rounded to whole ps once
    (:meth:`_whole_ps`): a detection of either channel falls in slot k when
    it lies within gate_width/2 of the k-th offset, and a ps shared by two
    touching gates goes to the earlier one.  So every slot holds
    2 (width // 2) + 1 ps, the one shared with an earlier gate aside.  Gates
    must not overlap, though they may touch; the width is checked by
    :func:`whole_ps`.  Whether the gates fit a pulse period is the
    :class:`StreamAnalyzer`'s to check, which holds the period.
    """

    gate_width: float = DEFAULT_GATE_WIDTH
    offsets: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(sorted(
            float(finite_number(o, "gate offsets")) for o in self.offsets)))
        if not all(math.isfinite(o * 1e12) for o in self.offsets):
            raise ValueError(f"gate offsets must be finite in ps, got {self.offsets!r}")
        offs_ps, width_ps = self._whole_ps()
        for a, b in zip(offs_ps, offs_ps[1:]):
            if b - a < width_ps:
                raise ValueError(f"overlapping gates: {a} ps and {b} ps")

    def _whole_ps(self):
        """(offsets, width) rounded to whole ps, as Python ints."""
        return [round(o * 1e12) for o in self.offsets], whole_ps(self.gate_width, "gate_width")

    @classmethod
    def single_bin(cls, config: ExperimentConfig, gate_width: float = DEFAULT_GATE_WIDTH):
        return cls(gate_width, (config.detection_delay_s,))

    @classmethod
    def time_bin(cls, config: ExperimentConfig, gate_width: float = DEFAULT_GATE_WIDTH):
        return cls(gate_width, tuple(config.detection_delay_s + k * config.bin_delay_s
                                     for k in range(3)))


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
    """Fold over the detection records of a run on its pulse grid.

    The records keep the tag file's rule across chunks
    (:func:`~timebin.simulate.first_bad_record`): a chunk that breaks it is
    a ``ValueError`` naming the record, and nothing of it is counted.  Each
    detection belongs to the pulse of the latest trigger at or before its
    time.  The triggers are the :class:`~timebin.simulate.PulseGrid`
    ``grid``, never tags: ``grid.locate`` gives each detection's pulse and
    time after its trigger, and those feed the fold.  Detections at or past
    the end of the grid's live time, ``grid.times(grid.pulses)``, belong to
    no pulse: they are neither histogrammed nor gated but counted in
    ``out_of_range``, so a corrupted time cannot size a histogram.  A
    ``ValueError`` names a gate that opens before its trigger or ends at or
    past the next one: a period on for a whole-ps period, else more than
    period - 2 ps on (``PulseGrid.locate``).

    The fold takes at most ``FOLD_RECORDS`` detections at a time.  The
    count of gate edges at or below the whole ps after the trigger, edges
    of one table of whole ps that both channels share, worked out once from
    the gate rule in whole ps (see :func:`_gate_edges`), gives each
    detection its slot.  Of the 2 n slots of n gates the idler's come first.
    Coincidences are signal-idler pairs whose gated slots belong to the same
    pulse; pairing each signal event with the idler events of the next pulse
    gives the accidentals diagnostic.  Gated events arrive in pulse order,
    so each pulse's events form a run, and one ``bincount`` gives each run's
    signal and idler slot counts S and I: the run adds the outer product S I
    to ``joint``, and to ``neighbor_joint`` that of the previous run's S
    with its I when their pulses are adjacent.  A run is counted once a
    later run starts; between chunks the fold holds only the counts of the
    last two runs.  ``hist_bin`` is rounded to whole ps by :func:`whole_ps`,
    and a detection ``rel`` ps after its trigger goes to bin rel // bin.
    The histogram spans one period and is sized once: a bin that cuts it
    into more than 2^22 bins, 32 MiB per channel, is a ``ValueError``.
    """

    def __init__(self, gates: GateConfig, hist_bin: float = DEFAULT_HIST_BIN, *, grid: PulseGrid):
        offs_ps, width_ps = gates._whole_ps()
        m, period = width_ps // 2, grid.period_ps
        last = math.ceil(period if period.is_integer() else period - 2) - 1
        for k, o in enumerate(offs_ps):  # Python ints, before any int64 edge
            if o - m < 0 or o + m > last:
                raise ValueError(f"gate {k} spans {o - m} to {o + m} ps after its trigger, "
                                 f"not within 0 and {last} ps, before the next trigger")
        self.grid = grid
        self.out_of_range = 0
        self._bin_ps = whole_ps(hist_bin, "hist_bin")
        self._end = int(grid.times(grid.pulses))
        self._last = 0  # time of the latest record fed
        # Triggers lie within 1 ps of k * period, and on it for a whole
        # period, so a detection is at most ceil(period) ps after its own.
        bins = math.ceil(grid.period_ps) // self._bin_ps + 1
        if bins > 2**22:
            raise ValueError(f"hist_bin of {self._bin_ps} ps cuts the {grid.period_ps!r} ps "
                             f"period into {bins} bins, more than 2^22")
        self._hist = np.zeros(2 * bins, dtype=np.int64)  # bin * 2 + channel -> count
        self._edges = _gate_edges(offs_ps, width_ps)
        n = self._n = len(offs_ps)
        self._gated = np.zeros(2 * n, dtype=np.int64)
        self._tables = np.zeros((2, n, n), dtype=np.int64)  # joint, neighbor_joint
        # The last two runs, (pulse, slot counts): the closed one before the
        # open one.  Runs of no count pair with nothing.
        self._tail = (np.full(2, -1, dtype=np.int64),
                      np.zeros((self._gated.size, 2), dtype=np.int64))

    def feed(self, detections: np.ndarray) -> None:
        """Fold a chunk of detection records ``FOLD_RECORDS`` at a time, each
        step a slice of the records: no copy of the whole chunk is made."""
        if (bad := first_bad_record(detections, self._last)) is not None:
            raise ValueError(f"record {bad[0]} of the chunk: {bad[1]}")
        if detections.size == 0:
            return
        times = detections["time_ps"]
        self._last = int(times[-1])
        live = times.size if self._last < self._end else int(np.searchsorted(times, self._end))
        self.out_of_range += times.size - live
        for lo in range(0, live, FOLD_RECORDS):
            step = detections[lo:min(lo + FOLD_RECORDS, live)]
            self._fold(*self.grid.locate(step["time_ps"]), step["channel"])

    def _fold(self, pulse, rel_ps, channels):
        """Histogram, gate and pair detections given in pulse order as
        (pulse, int64 ps after the pulse's trigger, channel 0 or 1).  Gate
        k is slot k of an idler detection and slot n + k of a signal one."""
        key = rel_ps // self._bin_ps
        key *= 2
        key += channels
        np.add.at(self._hist, key, 1)

        edge = np.zeros(rel_ps.size, dtype=np.min_scalar_type(self._edges.size))
        for e in self._edges.tolist():  # few edges: counting beats searchsorted
            edge += rel_ps >= e
        inside = np.flatnonzero(edge & 1)
        if inside.size == 0:
            return
        slot = edge.take(inside).astype(np.intp)
        slot >>= 1
        slot += self._n * (channels.take(inside) == CH_SIGNAL)
        pulse = pulse.take(inside)
        n_slots = self._gated.size
        self._gated += np.bincount(slot, minlength=n_slots)
        # Runs 0 and 1 are the carried ones, and a run starts where the
        # pulse changes: the first event continues run 1 on the open run's
        # pulse or opens run 2, and each start after it opens the next run.
        tail_pulse, tail_counts = self._tail
        opens = np.empty(pulse.size, dtype=bool)
        opens[0] = pulse[0] != tail_pulse[1]
        np.not_equal(pulse[1:], pulse[:-1], out=opens[1:])
        run = np.cumsum(opens, dtype=np.intp)
        starts = np.flatnonzero(opens)
        n_runs = int(run[-1]) + 2
        slot *= n_runs  # the bincount key slot * n_runs + run + 1, in place
        slot += run
        slot += 1
        counts = np.bincount(slot, minlength=n_slots * n_runs).reshape(n_slots, n_runs)
        counts[:, :2] += tail_counts
        run_pulse = np.concatenate([tail_pulse, pulse.take(starts)])
        # Every run before the last is closed: no later event joins it.
        self._tables += self._pairs(run_pulse[:-1], counts[:, :-1])
        self._tail = run_pulse[-2:].copy(), counts[:, -2:].copy()

    def _pairs(self, run_pulse, counts):
        """The (joint, neighbor) increments, stacked in a new array, of the
        pairs of runs 1, 2, ... (the columns of ``counts``), each with its
        previous run; run 0 was counted before."""
        i, s = counts[:self._n], counts[self._n:]
        after = np.flatnonzero(run_pulse[1:] == run_pulse[:-1] + 1)
        return np.stack([np.einsum("sr,ir->si", s[:, 1:], i[:, 1:]),
                         np.einsum("sr,ir->si", s.take(after, axis=1), i.take(after + 1, axis=1))])

    def result(self) -> "AnalysisResult":
        """Counts so far.  The open run is closed on the running tables,
        and only what is returned is copied: the analyzer is unchanged, may
        be fed on and shares no memory with the result."""
        joint, neighbor = self._tables + self._pairs(*self._tail)
        histograms = {}
        for ch in (CH_SIGNAL, CH_IDLER):
            h = self._hist[ch::2]
            seen = np.flatnonzero(h)
            if seen.size:
                histograms[ch] = h[:seen[-1] + 1].copy()
        n = self.grid.pulses
        period = float(self.grid.times(n - 1)) / (n - 1)  # the first trigger is at 0 ps
        return AnalysisResult(
            histograms=histograms,
            hist_bin=self._bin_ps * 1e-12,
            gated_signal=self._gated[self._n:].copy(),
            gated_idler=self._gated[:self._n].copy(),
            joint=joint,
            neighbor_joint=neighbor,
            n_triggers=n,
            duration=n * period * 1e-12,
            out_of_range=self.out_of_range,
        )


def _gate_edges(offs_ps, width_ps) -> np.ndarray:
    """Sorted int64 edges, in whole ps, of the slots of gates at the sorted
    whole-ps offsets ``offs_ps``, ``width_ps`` wide.

    A detection ``rel`` whole ps after its trigger lies inside slot k when
    2 k + 1 edges are at or below it, and outside every gate when an even
    number are.  With offsets o_k and width w in whole ps, |rel - o_k| <=
    w/2 holds for rel from o_k - m to o_k + m, m = w // 2, so slot k opens
    at o_k - m and closes at o_k + m + 1.  Touching gates share at most one
    ps; the running maximum opens the later slot past it.
    """
    offs, m = np.array(offs_ps, dtype=np.int64), width_ps // 2
    return np.maximum.accumulate(np.column_stack([offs - m, offs + m + 1]).ravel())


@dataclass(frozen=True)
class AnalysisResult:
    """Accumulated histograms and counts of one analyzed stream.

    ``joint[s, i]`` counts same-pulse coincidences by (signal slot, idler
    slot); ``neighbor_joint`` counts pairs formed against the next pulse,
    the accidentals diagnostic.  ``out_of_range`` counts the detections at
    or past the end of the pulse grid's live time.  ``dropped_pre_trigger``
    is always 0: a grid's first trigger is at time 0, before every
    detection.  The ``analyze`` report leaves it out; it stays here because
    the benchmark's tracer (``perfbench/tracing.py``) reads it.
    """

    histograms: dict
    hist_bin: float
    gated_signal: np.ndarray
    gated_idler: np.ndarray
    joint: np.ndarray
    neighbor_joint: np.ndarray
    n_triggers: int
    duration: float
    out_of_range: int
    dropped_pre_trigger: int = 0

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


def analyze_stream(chunks, gates: GateConfig, hist_bin: float = DEFAULT_HIST_BIN, *,
                   grid: PulseGrid) -> AnalysisResult:
    """Run the full analysis over an array or an iterable of detection
    chunks on ``grid``."""
    analyzer = StreamAnalyzer(gates, hist_bin, grid=grid)
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


def _lsq(design, y, at=None):
    """(coef, cov) minimizing sum (y - design @ coef)^2.

    ``cov`` is (X^T X)^-1 scaled by chi^2/(n - p), the convention of both
    ``np.polyfit(cov=True)`` and ``curve_fit`` without ``sigma``.  chi^2
    is taken at ``at`` if given, for a fit held on the edge of its domain.
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    coef = vt.T @ (u.T @ y / s)
    cov = (vt.T / s**2) @ vt
    resid = y - design @ (coef if at is None else at)
    cov *= (resid @ resid) / (y.size - design.shape[1])
    return coef, cov


def _linfit(x, y):
    """Least-squares line y = a*x + b; returns (a, b, err_a, err_b)."""
    if np.ptp(x) == 0:
        raise ValueError("degenerate abscissae: all x values identical")
    coef, cov = _lsq(np.column_stack([x, np.ones_like(x)]), y)
    return (*coef, *np.sqrt(np.diag(cov)))


@dataclass(frozen=True)
class PowerSeriesFit:
    """Linear fits over a pump-power sweep."""

    brightness: Quantity            # coincidence rate per unit power
    klyshko_signal_intercept: Quantity
    klyshko_idler_intercept: Quantity
    car_loglog_slope: Quantity


def power_series_fit(points) -> PowerSeriesFit:
    """Fit brightness, Klyshko intercepts and the log-log CAR slope.

    ``points`` is a sequence of (power, RateReport).
    """
    points = sorted(points, key=lambda pr: pr[0])
    powers = np.array([p for p, _ in points], dtype=float)
    if np.unique(powers).size < 3:
        raise ValueError("need at least 3 distinct powers")

    rc = np.array([r.coincidence_rate.value for _, r in points])
    b_slope, _, b_err, _ = _linfit(powers, rc)

    kly = [klyshko(r) for _, r in points]
    ks = np.array([k[0].value for k in kly])
    ki = np.array([k[1].value for k in kly])
    _, ks0, _, ks0_err = _linfit(powers, ks)
    _, ki0, _, ki0_err = _linfit(powers, ki)

    cars = np.array([car(r).value for _, r in points])
    slope, _, slope_err, _ = _linfit(np.log(powers), np.log(cars))

    return PowerSeriesFit(
        brightness=Quantity(b_slope, b_err),
        klyshko_signal_intercept=Quantity(ks0, ks0_err),
        klyshko_idler_intercept=Quantity(ki0, ki0_err),
        car_loglog_slope=Quantity(slope, slope_err),
    )


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


def check_fringe_phases(phases) -> None:
    """The phase rule of a fringe scan, a ValueError unless the phases in
    rad are finite, at least 5 distinct and span at least half a period."""
    phases = np.asarray(phases, dtype=float)
    if not np.all(np.isfinite(phases)):
        bad = phases[~np.isfinite(phases)]
        raise ValueError(f"fringe scan holds phases that are not finite: {bad.tolist()}")
    if (distinct := np.unique(phases).size) < 5:
        raise ValueError(f"fringe fit needs at least 5 distinct phases, got {distinct}")
    if np.ptp(phases) < np.pi:
        raise ValueError(f"fringe scan must span at least half a period, pi rad; its "
                         f"phases span {np.ptp(phases)!r} rad")


def fit_fringe(points) -> FringeFit:
    """Least-squares fit of the fringe law rate = A*(1 - V cos(phi + phi0)).

    ``points`` is a sequence of (phase_rad, count, integration_s); the
    phases must keep :func:`check_fringe_phases`, and the mean rate must be
    positive, else it is a ValueError.

    The law is linear in (a, b, c) = (A, -AV cos phi0, AV sin phi0), so one
    linear solve gives A = a, V = hypot(b, c)/a, phi0 = atan2(c, -b) and,
    by the delta method, sigma_V, with errors scaled by the residuals.  If
    a <= 0 or V > 1, the optimum lies on the edge V = 1 of the convex cone
    hypot(b, c) <= a: there A(phi0) = <g, y>/<g, g> with
    g = 1 - cos(phi + phi0), and phi0 maximizes <g, y>^2/<g, g>.

    A fit with a figure that is not finite is a ValueError, with no float
    warning: rates past the float range give one, and so do rates near
    1e163, whose squared residuals pass it.
    """
    phases, counts, times = (np.asarray(col, dtype=float) for col in zip(*points))
    check_fringe_phases(phases)
    with np.errstate(all="ignore"):
        rates = counts / times
        if (mean := float(np.mean(rates))) <= 0:
            raise ValueError(f"fringe scan has no counts: mean rate {mean!r}")
        design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
        (a, b, c), cov = _lsq(design, rates)
        vis = np.hypot(b, c) / a if a > 0 else np.inf
        if vis > 1:
            a, b, c = edge = _edge_fringe(design, rates)
            _, cov = _lsq(design, rates, at=edge)
            vis = 1.0
        phi0 = np.arctan2(c, -b)
        # Gradient of V = hypot(b, c)/a, with (b, c)/hypot(b, c) = (-cos, sin) phi0.
        grad = np.array([-vis, -np.cos(phi0), np.sin(phi0)]) / a
        error = np.sqrt(grad @ cov @ grad)
    figures = (float(vis), float(error), float(phi0), float(a))
    if not np.all(np.isfinite(figures)):
        raise ValueError("fringe fit is not finite: visibility {!r} +- {!r}, phase offset "
                         "{!r} rad, amplitude {!r}".format(*figures))
    return FringeFit(Quantity(*figures[:2]), *figures[2:])


def _edge_fringe(design, rates):
    """Coefficients A*u of the best V = 1 fringe: g = design @ u with
    u = (1, -cos phi0, sin phi0), so <g, y>^2/<g, g> = (u.h)^2/(u.G u),
    maximized over A >= 0 on grids that each span one step either side of
    the previous grid's best phase, down to a step of 2e-10 rad."""
    gram, h = design.T @ design, design.T @ rates
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
