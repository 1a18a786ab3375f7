import dataclasses
import hashlib
import json
import os
import re

# One BLAS thread for the whole suite, set before numpy loads: the small
# matrix calls of the oracle tests slow down several-fold when a default
# thread pool competes with another process for the cores.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import scipy.linalg

from timebin.analysis import GateConfig
from timebin.simulate import CH_TRIGGER, TAG_DTYPE

ACCEPTANCE_DESCRIPTIONS = {
    1: "closed-form fidelity of the reconstructed state to the Bell target",
    2: "concurrence of the reconstructed state vs independent oracle",
    3: "CHSH bounds from concurrence",
    4: "visibility ceiling from CAR",
    5: "CAR and Klyshko ratios from quoted rates",
    6: "single-bin sweep: log-log CAR slope, darks off and on",
    7: "Klyshko intercepts from a power sweep",
    8: "fringe visibility, 1:2:1 singles, accidental-only corner slots",
    9: "tomography round trips, ideal and noisy",
    10: "property suites: invariants, equivalence, determinism",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_criterion_(\d+)", nodeid)
            if m and getattr(rep, "when", "call") == "call":
                n = int(m.group(1))
                results[n] = results.get(n, True) and outcome == "passed"
    if not results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance summary")
    for n in sorted(results):
        verdict = "PASS" if results[n] else "FAIL"
        desc = ACCEPTANCE_DESCRIPTIONS.get(n, "")
        terminalreporter.write_line(f"  criterion {n:2d}: {verdict}  {desc}")


def ginibre_density_matrix(rng, dim=4, rank=None):
    """Random density matrix from a complex Ginibre ensemble."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim=4):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def wootters_oracle(rho):
    """Independent concurrence route via the Hermitian sqrtm construction.

    C = max(0, 2*max(lam) - sum(lam)) with lam the eigenvalues of
    sqrtm(sqrtm(rho) rho_tilde sqrtm(rho)), rho_tilde the spin-flipped
    matrix.  Uses matrix square roots instead of the product-eigenvalue
    shortcut, so it checks the production path independently.
    """
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    rho_tilde = yy @ rho.conj() @ yy
    s = scipy.linalg.sqrtm(rho)
    r = scipy.linalg.sqrtm(s @ rho_tilde @ s)
    lam = np.sort(np.real(np.linalg.eigvals(r)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# Absolute values of the reconstructed experimental density matrix, taken
# with all off-diagonal phases set to zero (the all-real completion).
EXPERIMENT_RHO_REAL = np.array([
    [50.9, 1.7, 1.8, 44.5],
    [1.7, 0.3, 0.17, 2.5],
    [1.8, 0.17, 0.21, 1.4],
    [44.5, 2.5, 1.4, 48.6],
]) / 100.0


def assert_same_result(a, b):
    """Every field of two AnalysisResults equal; arrays exactly, with dtype."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys(), f.name
            pairs = [(x[k], y[k]) for k in x]
        else:
            pairs = [(x, y)]
        for u, v in pairs:
            np.testing.assert_array_equal(u, v, err_msg=f.name)
            assert np.asarray(u).dtype == np.asarray(v).dtype, f.name


def merge_triggers(detections, pulses, period_ps):
    """Time-sorted ``detections`` with the triggers of a grid of ``pulses``
    every ``period_ps`` merged in as tags, as one array.

    The independent merge for checking the tag reader's trigger view: the
    triggers are materialized, trigger k at round(k * period_ps) ps, and
    each detection goes ahead of those at or after its time.  Unsorted
    detections fail an assertion rather than being sorted, so a test of
    the simulator's order cannot pass on a stream this put in order.
    """
    t = detections["time_ps"]
    assert np.all(t[1:] >= t[:-1]), "detections are not time-sorted"
    trig = np.round(np.arange(pulses) * period_ps).astype(np.uint64)
    at = np.searchsorted(trig, t, side="left") + np.arange(t.size)
    tags = np.empty(pulses + t.size, dtype=TAG_DTYPE)
    is_trigger = np.ones(tags.size, dtype=bool)
    is_trigger[at] = False
    tags[at] = detections
    tags["channel"][is_trigger] = CH_TRIGGER
    tags["time_ps"][is_trigger] = trig
    return tags


def full_stream(sim, cfg):
    """The detections of ``sim(cfg)`` with the run's triggers merged in
    as tags by :func:`merge_triggers`, as one array."""
    detections = np.concatenate([*sim(cfg), np.empty(0, dtype=TAG_DTYPE)])
    return merge_triggers(detections, round(cfg.duration * cfg.rep_rate), 1e12 / cfg.rep_rate)


def run_gates(cfg, time_bin=True):
    """The default gates of ``cfg``'s mode, moved later where they would
    open before their trigger, which the analyzer refuses: with
    ``detection_delay=0`` the first gate opens on the trigger's picosecond,
    where the run's slot-0 photons land without jitter."""
    gates = (GateConfig.time_bin if time_bin else GateConfig.single_bin)(cfg)
    shift = max(0.0, gates.gate_width / 2 - cfg.detection_delay)
    return GateConfig(gates.gate_width, tuple(o + shift for o in gates.offsets))


def tie_cuts(detections, grid):
    """Indices that cut just after each detection at a trigger's time."""
    _, rel = grid.locate(detections["time_ps"].astype(np.int64))
    return np.flatnonzero(rel == 0) + 1


DEFAULT_GRID = {"pulses": 100, "period_ps": 13123.36}


def write_grid_stream(path, channels, times_ps, config_echo, grid=DEFAULT_GRID):
    """A format-3 file of the given detection records, built by hand, so it
    may hold records the writer refuses; ``grid`` is its header's grid
    entry, any JSON value, valid or not.  The trailer holds the SHA-256 of
    the header line and the records."""
    tags = np.zeros(len(channels), dtype=TAG_DTYPE)
    tags["channel"] = channels
    tags["time_ps"] = times_ps
    header = {"format": "timebin-tags", "version": 3, "config": config_echo, "grid": grid}
    body = json.dumps(header).encode() + b"\n" + tags.tobytes()
    path.write_bytes(body + b"TAGSEND3" + len(tags).to_bytes(8, "little")
                     + hashlib.sha256(body).digest())
    return path
