"""The three benchmark workloads: configs, CLI chains and closed-form checks.

Each workload turns a seed into run configs (the program sees only these
files), a chain of ``timebin`` commands, and checks of the chain's outputs
against closed forms of the configs, never against the program itself.

Why these three (shares measured on a 2-core host when the benchmark
was added):

* ``pair_sweep``: single-bin pump-power sweep.  About 99 % of the tags
  are triggers, so simulate, tag I/O, the trigger path of
  ``StreamAnalyzer.feed`` and manifest hashing carry the chain.
  Tomography does no work.
* ``tomo_chain``: the four tomography dial settings, then ``tomo`` with
  200 bootstrap replicas.  MLE and bootstrap take about half of the
  chain; process start-up and the stream work share the rest.
* ``fringe_dense``: a fringe scan at mu = 0.3, where about 23 % of tags
  are detections.  It stresses the gating path of ``feed``, the pairing
  in ``result()`` and the memory held for gated events.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REP_RATE_HZ = 76.2e6
GATE_WIDTH_S = 0.5e-9          # the CLI's default detection gate
SIGMAS = 5.0                   # statistical tolerance of every check


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Step:
    """One ``timebin`` command of a chain."""

    kind: str                       # the CLI sub-command
    argv: list                      # arguments after ``timebin``
    streams: tuple = ()             # tag files the step writes


@dataclass
class Plan:
    steps: list
    check: Callable[[], list]       # closed-form checks of the outputs

    @property
    def streams(self) -> list:
        return [s for step in self.steps for s in step.streams]


def _write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
    return str(path)


def _load(path) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _within(name, value, expected, tol, unit=""):
    ok = value is not None and math.isfinite(value) and abs(value - expected) <= tol
    return Check(name, ok, f"{value} vs {expected:.6g} +- {tol:.3g}{unit}")


def _missing(name, path):
    return Check(name, False, f"missing or unreadable output {path}")


# -- pair_sweep ---------------------------------------------------------------

SWEEP_MUS = np.geomspace(0.002, 0.02, 5)
SWEEP_YIELD_PER_W = 0.1        # mean pairs per pulse per watt of pump
SWEEP_ETA = (0.5, 0.45)        # signal, idler detection efficiency
SWEEP_DARKS_HZ = (360.0, 390.0)
SWEEP_DURATION_S = 0.1


def pair_sweep(work: Path, seed: int) -> Plan:
    eta_s, eta_i = SWEEP_ETA
    steps, reports, configs = [], [], []
    for k, mu in enumerate(SWEEP_MUS):
        values = {
            "rep_rate_hz": REP_RATE_HZ,
            "duration_s": SWEEP_DURATION_S,
            "mean_pairs_per_pulse": float(mu),
            "pair_yield_per_watt": SWEEP_YIELD_PER_W,
            "pump_power_w": float(mu) / SWEEP_YIELD_PER_W,
            "eta_signal": eta_s,
            "eta_idler": eta_i,
            "dark_rate_signal_hz": SWEEP_DARKS_HZ[0],
            "dark_rate_idler_hz": SWEEP_DARKS_HZ[1],
            "rng_seed": seed * 1000 + k,
        }
        cfg = _write_config(work / f"sweep{k}.cfg", values)
        tags, rep = str(work / f"sweep{k}.tags"), str(work / f"sweep{k}.json")
        steps.append(Step("simulate", ["simulate", "--config", cfg, "--out", tags,
                                       "--mode", "single-bin"], (tags,)))
        steps.append(Step("analyze", ["analyze", "--in", tags, "--out", rep]))
        reports.append(rep)
        configs.append(values)
    summary = str(work / "sweep_summary.json")
    steps.append(Step("report", ["report", *reports, "--out", summary]))

    def check() -> list:
        out = []
        points = []
        for k, (rep_path, cfg) in enumerate(zip(reports, configs)):
            out += _check_sweep_point(k, rep_path, cfg, points)
        out.append(_check_sweep_fit(points, configs))
        summary_doc = _load(summary)
        out.append(Check("sweep.report", summary_doc is not None
                         and len(summary_doc.get("reports", ())) == len(reports),
                         f"{summary} bundles {len(reports)} reports"))
        return out

    return Plan(steps, check)


def _dark_per_pulse(rate_hz):
    """Mean dark counts inside one detection gate."""
    return rate_hz * GATE_WIDTH_S


def _check_sweep_point(k, rep_path, cfg, points) -> list:
    """Coincidences and CAR of one sweep point.

    Per pulse, a Poisson(mu) pair number N gives E[N(N-1)] = mu^2, so the
    same-pulse signal-idler pairs number eta_s*eta_i*(mu + mu^2) and the
    singles eta*mu each: CAR = 1 + 1/mu.  Dark counts add at most the
    cross terms eta*mu*D of a gate's dark probability D, which widen the
    tolerance instead of entering the expected value.
    """
    rep = _load(rep_path)
    if rep is None:
        return [_missing(f"sweep{k}.coincidences", rep_path)]
    mu, eta_s, eta_i = cfg["mean_pairs_per_pulse"], cfg["eta_signal"], cfg["eta_idler"]
    d_s = _dark_per_pulse(cfg["dark_rate_signal_hz"])
    d_i = _dark_per_pulse(cfg["dark_rate_idler_hz"])
    pulses = round(cfg["duration_s"] * cfg["rep_rate_hz"])
    counts = rep["rates"]["counts"]
    n_c = counts["coincidence"]
    expected = eta_s * eta_i * (mu + mu * mu) * pulses
    dark = pulses * (eta_s * mu * d_i + eta_i * mu * d_s + d_s * d_i)
    out = [
        Check(f"sweep{k}.triggers", counts["trigger"] == pulses,
              f"{counts['trigger']} triggers vs {pulses} pulses"),
        _within(f"sweep{k}.coincidences", n_c, expected,
                SIGMAS * math.sqrt(expected) + dark),
    ]
    car = (rep.get("car") or {}).get("value")
    rel = math.sqrt(1 / expected + 1 / (eta_s * mu * pulses) + 1 / (eta_i * mu * pulses))
    car_expected = 1 + 1 / mu
    out.append(_within(f"sweep{k}.car", car, car_expected,
                       car_expected * (SIGMAS * rel + d_s / (eta_s * mu) + d_i / (eta_i * mu))))
    points.append((cfg["pump_power_w"], counts, rep["rates"]["duration_s"]))
    return out


def _check_sweep_fit(points, configs) -> Check:
    """Brightness slope of ``power_series_fit`` vs the closed-form rates.

    The expected slope is the least-squares line through the closed-form
    coincidence rates eta_s*eta_i*(mu + mu^2)*rep_rate at the swept
    powers; its tolerance propagates the Poisson error of each point
    through the same line fit.
    """
    from timebin import analysis

    if len(points) != len(configs):
        return Check("sweep.brightness", False, "a sweep point is missing")
    rates = [(p, analysis.RateReport(n_signal=c["signal"], n_idler=c["idler"],
                                     n_coinc=c["coincidence"], n_trigger=c["trigger"],
                                     duration=d, n_central=c["central"]))
             for p, c, d in points]
    fit = analysis.power_series_fit(rates)
    powers = np.array([c["pump_power_w"] for c in configs])
    mus = np.array([c["mean_pairs_per_pulse"] for c in configs])
    eta = configs[0]["eta_signal"] * configs[0]["eta_idler"]
    rate = configs[0]["rep_rate_hz"]
    duration = configs[0]["duration_s"]
    closed = eta * (mus + mus ** 2) * rate
    weights = (powers - powers.mean()) / np.sum((powers - powers.mean()) ** 2)
    slope = float(weights @ closed)
    sigma = float(np.sqrt(np.sum(weights ** 2 * closed / duration)))
    return _within("sweep.brightness", fit.brightness.value, slope, SIGMAS * sigma, " 1/s/W")


# -- tomo_chain ---------------------------------------------------------------

TOMO_SETTINGS = ((0, 0), (0, 90), (90, 0), (90, 90))
TOMO_MU = 0.02
TOMO_V0 = 0.95
TOMO_DURATION_S = 0.2


def tomo_chain(work: Path, seed: int) -> Plan:
    steps, settings, reports = [], [], []
    for k, (dial_s, dial_i) in enumerate(TOMO_SETTINGS):
        # Dials are calibrated to the fringe maximum of the target state:
        # phi_s = pi + dial_s, phi_i = dial_i (see tomography.setting_phases).
        values = {
            "rep_rate_hz": REP_RATE_HZ,
            "duration_s": TOMO_DURATION_S,
            "mean_pairs_per_pulse": TOMO_MU,
            "interference_visibility": TOMO_V0,
            "phi_s_rad": math.pi + math.radians(dial_s),
            "phi_i_rad": math.radians(dial_i),
            "rng_seed": seed * 1000 + k,
        }
        cfg = _write_config(work / f"tomo{k}.cfg", values)
        tags, rep = str(work / f"tomo{k}.tags"), str(work / f"tomo{k}.json")
        steps.append(Step("simulate", ["simulate", "--config", cfg, "--out", tags,
                                       "--mode", "time-bin"], (tags,)))
        steps.append(Step("analyze", ["analyze", "--in", tags, "--out", rep]))
        settings.append(f"{dial_s},{dial_i}:{rep}")
        reports.append(rep)
    tomo = str(work / "tomo.json")
    steps.append(Step("tomo", ["tomo", *settings, "--out", tomo, "--seed", str(seed)]))
    summary = str(work / "tomo_summary.json")
    steps.append(Step("report", ["report", tomo, *reports, "--out", summary]))

    def check() -> list:
        return _check_tomo(tomo, reports) + [
            Check("tomo.report", _load(summary) is not None, f"{summary} written")]

    return Plan(steps, check)


def _check_tomo(tomo_path, reports) -> list:
    """Concurrence ~ V0 and fidelity ~ (1 + V0)/2 of the MLE state.

    The source state is the Bell state mixed down to contrast V0, whose
    concurrence is V0 and Phi+ fidelity (1 + V0)/2.  Multi-pair accidentals
    add a bias of order mu.  The statistical part scales as 1/sqrt(N) with
    N the summed joint-slot coincidences of the four settings; the
    bootstrap spread of the concurrence at these sizes is 2 to 3.5/sqrt(N),
    so sigma is taken as 4/sqrt(N).
    """
    doc = _load(tomo_path)
    if doc is None:
        return [_missing("tomo.concurrence", tomo_path)]
    n = 0
    for path in reports:
        rep = _load(path)
        n += int(np.sum(rep["joint_slot_counts"])) if rep else 0
    tol = SIGMAS * 4.0 / math.sqrt(max(n, 1)) + 2 * TOMO_MU
    diag = doc.get("diagnostics", {})
    return [
        _within("tomo.concurrence", doc.get("concurrence"), TOMO_V0, tol),
        _within("tomo.fidelity", doc.get("fidelity_phi_plus"), (1 + TOMO_V0) / 2, tol / 2),
        Check("tomo.converged", diag.get("converged") is True,
              f"converged={diag.get('converged')}"),
        Check("tomo.replicas", diag.get("n_replicas") == 200
              and diag.get("n_replicas_dropped") == 0,
              f"{diag.get('n_replicas')} replicas, {diag.get('n_replicas_dropped')} dropped"),
    ]


# -- fringe_dense -------------------------------------------------------------

FRINGE_PHASES = 6
FRINGE_MU = 0.3
FRINGE_V0 = 0.95
FRINGE_DURATION_S = 0.05


def fringe_dense(work: Path, seed: int) -> Plan:
    steps, points, reports = [], [], []
    for k in range(FRINGE_PHASES):
        phase = 2 * math.pi * k / FRINGE_PHASES
        values = {
            "rep_rate_hz": REP_RATE_HZ,
            "duration_s": FRINGE_DURATION_S,
            "mean_pairs_per_pulse": FRINGE_MU,
            "interference_visibility": FRINGE_V0,
            "phi_s_rad": phase,
            "rng_seed": seed * 1000 + k,
        }
        cfg = _write_config(work / f"fringe{k}.cfg", values)
        tags, rep = str(work / f"fringe{k}.tags"), str(work / f"fringe{k}.json")
        steps.append(Step("simulate", ["simulate", "--config", cfg, "--out", tags,
                                       "--mode", "time-bin"], (tags,)))
        steps.append(Step("analyze", ["analyze", "--in", tags, "--out", rep]))
        points.append(f"{phase!r}:{rep}")
        reports.append(rep)
    fringe = str(work / "fringe.json")
    steps.append(Step("fringe", ["fringe", *points, "--out", fringe]))
    summary = str(work / "fringe_summary.json")
    steps.append(Step("report", ["report", fringe, *reports, "--out", summary]))

    def check() -> list:
        return [_check_fringe(fringe, reports),
                Check("fringe.report", _load(summary) is not None, f"{summary} written")]

    return Plan(steps, check)


def _check_fringe(fringe_path, reports) -> Check:
    """Fitted visibility ~ V0 * (1 - A/C).

    The central slot counts C*(1 - V cos) + A with a phase-free accidental
    floor A, which the neighbour-pulse pairs measure; fitting the fringe
    law to that gives V0 * C_true / (C_true + A).  A least-squares sine over
    n points of mean count C has sigma_V = sqrt(2 / (n C)).
    """
    doc = _load(fringe_path)
    reps = [_load(p) for p in reports]
    if doc is None or any(r is None for r in reps):
        return _missing("fringe.visibility", fringe_path)
    central = np.array([r["joint_slot_counts"][1][1] for r in reps], dtype=float)
    floor = np.array([r["neighbor_joint_counts"][1][1] for r in reps], dtype=float)
    c, a, n = central.mean(), floor.mean(), len(reps)
    expected = FRINGE_V0 * (1 - a / c)
    tol = SIGMAS * (math.sqrt(2 / (n * c)) + FRINGE_V0 * math.sqrt(a / n) / c)
    return _within("fringe.visibility", doc["fit"]["visibility"]["value"], expected, tol)


WORKLOADS = {
    "pair_sweep": pair_sweep,
    "tomo_chain": tomo_chain,
    "fringe_dense": fringe_dense,
}
