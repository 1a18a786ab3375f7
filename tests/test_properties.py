"""Invariant checks over randomized inputs."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timebin.analysis import (GateConfig, RateReport, StreamAnalyzer,
                              analyze_stream, car, klyshko)
from timebin.quantum import DensityMatrix2Q, chsh_bounds, concurrence
from timebin.simulate import (CH_IDLER, CH_SIGNAL, CH_TRIGGER,
                              ExperimentConfig, PulseGrid, iter_simulate,
                              iter_simulate_single_bin, simulate,
                              simulate_no_pump_interferometer)
from timebin.streams import iter_read_tags, write_tags
from timebin.tomography import MeasurementRecord

from conftest import assert_same_result, ginibre_density_matrix, tie_cuts

KEYS = [(a, b) for a in ("Z0", "Z1", "X+", "Y+") for b in ("Z0", "Z1", "X+", "Y+")]


@given(st.floats(min_value=0.0, max_value=1.0))
def test_chsh_bounds_ordered_and_in_range(c):
    lo, hi = chsh_bounds(c)
    assert 0.0 <= lo <= hi + 1e-12
    assert hi <= 2 * np.sqrt(2) + 1e-12


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**4),
       st.integers(min_value=2, max_value=20))
def test_car_invariant_under_duration_rescaling(ns, ni, nc, k):
    # CAR is a ratio of rates, so scaling every count by the same factor
    # (longer run, same physics) leaves the value unchanged
    a = car(RateReport(ns, ni, nc, 10**7, 1.0))
    b = car(RateReport(k * ns, k * ni, k * nc, k * 10**7, float(k)))
    assert b.value == pytest.approx(a.value, rel=1e-12)
    assert b.error < a.error


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=0, max_value=10**4))
def test_klyshko_bounded_by_count_ratio(ns, ni, nc):
    eta_s, eta_i = klyshko(RateReport(ns, ni, nc, 10**7, 1.0))
    assert eta_s.value == pytest.approx(nc / ni)
    assert eta_i.value == pytest.approx(nc / ns)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_density_matrix_invariants(seed):
    rng = np.random.default_rng(seed)
    rho = ginibre_density_matrix(rng)
    dm = DensityMatrix2Q.from_matrix(rho, fix=True)
    m = dm.matrix
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(m).min() >= -1e-9
    c = concurrence(dm)
    assert 0.0 <= c <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_density_matrix_json_round_trip(seed):
    rng = np.random.default_rng(seed)
    dm = DensityMatrix2Q.from_matrix(ginibre_density_matrix(rng))
    again = DensityMatrix2Q.from_json(dm.to_json())
    assert np.array_equal(dm.matrix, again.matrix)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_record_swap_is_involution(seed):
    rng = np.random.default_rng(seed)
    counts = {k: int(rng.integers(0, 1000)) for k in KEYS}
    rec = MeasurementRecord(counts=counts)
    assert rec.swapped().swapped().counts == rec.counts


# A short stream with exact detection-trigger ties: zero jitter and delay
# put every slot-0 photon on its trigger's picosecond.
CHUNKING_CFG = ExperimentConfig(duration=2e-4, mean_pairs_per_pulse=0.3,
                                jitter_sigma=0.0, detection_delay=0.0,
                                dark_rate_signal=1e6, dark_rate_idler=1e6,
                                rng_seed=5)
CHUNKING_TAGS = simulate(CHUNKING_CFG)
CHUNKING_GATES = GateConfig.time_bin(CHUNKING_CFG)
CHUNKING_WHOLE = analyze_stream(CHUNKING_TAGS, CHUNKING_GATES)
# Cut anchors: between a detection and a trigger at its time, and at
# detections (inside a pulse, next to other detections).
TIE_CUTS = tie_cuts(CHUNKING_TAGS).tolist()
DETECTION_CUTS = np.flatnonzero(CHUNKING_TAGS["channel"] != CH_TRIGGER).tolist()


def dense_pair_oracle(tags, gates):
    """Gated counts and pair tables from a dense (pulse, slot) count matrix.

    Joint pairs of pulse p are the outer product of its signal and idler
    slot counts, so joint = S^T I and the next-pulse table S[:-1]^T I[1:].
    """
    t = tags["time_ps"].astype(np.int64)
    trig = t[tags["channel"] == CH_TRIGGER]
    counts = []
    for ch in (CH_SIGNAL, CH_IDLER):
        tc = t[tags["channel"] == ch]
        pulse = np.searchsorted(trig, tc, side="right") - 1
        tc, pulse = tc[pulse >= 0], pulse[pulse >= 0]
        rel = (tc - trig[pulse]).astype(float)
        m = np.zeros((trig.size, len(gates.offsets[ch])), dtype=np.int64)
        for k, off in enumerate(gates.offsets[ch]):
            hit = np.abs(rel - off * 1e12) <= gates.gate_width * 1e12 / 2
            np.add.at(m[:, k], pulse[hit], 1)
        counts.append(m)
    s, i = counts
    return s.sum(axis=0), i.sum(axis=0), s.T @ i, s[:-1].T @ i[1:]


def test_one_pass_matches_dense_pair_oracle():
    gated_s, gated_i, joint, neighbor = dense_pair_oracle(CHUNKING_TAGS, CHUNKING_GATES)
    assert joint.sum() > 1000
    np.testing.assert_array_equal(CHUNKING_WHOLE.gated_signal, gated_s)
    np.testing.assert_array_equal(CHUNKING_WHOLE.gated_idler, gated_i)
    np.testing.assert_array_equal(CHUNKING_WHOLE.joint, joint)
    np.testing.assert_array_equal(CHUNKING_WHOLE.neighbor_joint, neighbor)


@st.composite
def adversarial_cuts(draw):
    """Sorted cut indices: each anchor starts a run of 0-3 tags, so the
    draw holds empty chunks, trigger-free chunks of a few detections,
    cuts inside a pulse and cuts at detection-trigger ties."""
    n = CHUNKING_TAGS.size
    anchor = st.one_of(st.sampled_from(TIE_CUTS), st.sampled_from(DETECTION_CUTS),
                       st.integers(0, n))
    runs = draw(st.lists(st.tuples(anchor, st.integers(0, 3)), max_size=25))
    return sorted([a for a, _ in runs] + [min(a + w, n) for a, w in runs])


@settings(max_examples=40, deadline=None)
@given(adversarial_cuts())
def test_any_chunking_matches_one_pass(cuts):
    an = StreamAnalyzer(CHUNKING_GATES)
    for part in np.split(CHUNKING_TAGS, cuts):
        an.feed(part)
    first = an.result()
    assert_same_result(first, CHUNKING_WHOLE)
    assert_same_result(an.result(), first)


# Pulse-grid streams: small blocks put several block boundaries into a run.
GRID_BLOCK_PULSES = 1 << 12


@st.composite
def grid_runs(draw):
    """A short run at 33.3, 76.2 or 80 MHz in either mode: up to 2 ns jitter,
    zero detection delay to force detection/trigger ties, up to 1e7 darks/s."""
    cfg = ExperimentConfig(
        rep_rate=draw(st.sampled_from([33.3e6, 76.2e6, 80e6])),
        duration=3e-4,
        mean_pairs_per_pulse=draw(st.floats(0.0, 0.5)),
        jitter_sigma=draw(st.floats(0.0, 2e-9)),
        detection_delay=draw(st.sampled_from([0.0, 2e-9])),
        dark_rate_signal=draw(st.floats(0.0, 1e7)),
        dark_rate_idler=draw(st.floats(0.0, 1e7)),
        rng_seed=draw(st.integers(0, 2**31 - 1)))
    return cfg, draw(st.booleans())


def simulated(cfg, time_bin):
    """(detection chunks, materialized stream, gates) of one run."""
    with mock.patch("timebin.simulate.BLOCK_PULSES", GRID_BLOCK_PULSES):
        if time_bin:
            return list(iter_simulate(cfg)), simulate(cfg), GateConfig.time_bin(cfg)
        return (list(iter_simulate_single_bin(cfg)), simulate_no_pump_interferometer(cfg),
                GateConfig.single_bin(cfg))


def chunked(tags, fractions):
    return np.split(tags, sorted(int(f * tags.size) for f in fractions))


@settings(max_examples=30, deadline=None)
@given(grid_runs(), st.lists(st.floats(0.0, 1.0), max_size=12),
       st.lists(st.floats(0.0, 1.0), max_size=12))
def test_grid_path_matches_explicit_trigger_oracle(run, grid_cuts, explicit_cuts):
    # The explicit path looks each detection's trigger up among trigger
    # tags; the grid path computes it.  Every field must agree.
    cfg, time_bin = run
    detections, tags, gates = simulated(cfg, time_bin)
    on_grid = StreamAnalyzer(gates, grid=PulseGrid.of(cfg))
    for part in chunked(np.concatenate(detections), grid_cuts):
        on_grid.feed(part)
    explicit = StreamAnalyzer(gates)
    for part in chunked(tags, explicit_cuts):
        explicit.feed(part)
    assert_same_result(on_grid.result(), explicit.result())


@settings(max_examples=30, deadline=None)
@given(grid_runs())
def test_grid_file_reads_back_as_simulated_stream(run):
    cfg, time_bin = run
    detections, tags, _ = simulated(cfg, time_bin)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.tags"
        assert write_tags(path, detections, grid=PulseGrid.of(cfg)) == tags.size
        it = iter_read_tags(path, chunk_records=1000)
        next(it)
        chunks = list(it)
    assert max(c.size for c in chunks) <= 1000
    assert np.concatenate(chunks).tobytes() == tags.tobytes()
