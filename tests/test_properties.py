"""Invariant checks over randomized inputs."""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timebin.analysis import (FOLD_RECORDS, GateConfig, RateReport, StreamAnalyzer,
                              analyze_stream, car, klyshko)
from timebin.cli import main
from timebin.quantum import _physical, chsh_bounds, concurrence, validate_density_matrix
from timebin.simulate import (CH_IDLER, CH_SIGNAL, TAG_DTYPE, ExperimentConfig, PulseGrid,
                              iter_simulate, iter_simulate_single_bin)
from timebin.streams import StreamFormatError, iter_read_tags, write_tags
from timebin.tomography import MeasurementRecord, mle_reconstruct

from conftest import (assert_same_result, full_stream, ginibre_density_matrix, merge_triggers,
                      run_gates, tie_cuts, write_grid_stream)
from fold_oracle import explicit_trigger_result
from mle_oracle import SLOT_OPS


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
    m = _physical(rho)
    validate_density_matrix(m)
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(m).min() >= -1e-9
    c = concurrence(m)
    assert 0.0 <= c <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
@example(9)
def test_density_matrix_json_round_trip(seed):
    # tomo.json holds the fitted state as to_json writes it: every bit comes back
    rng = np.random.default_rng(seed)
    rho = ginibre_density_matrix(rng)
    probs = np.einsum("kij,ji->k", SLOT_OPS, rho).real
    result = mle_reconstruct(MeasurementRecord(rng.poisson(4e5 * np.clip(probs, 0, None))))
    obj = json.loads(result.to_json())["rho"]
    assert np.array(obj["re"]).tobytes() == result.rho.real.tobytes()
    assert np.array(obj["im"]).tobytes() == result.rho.imag.tobytes()


# A short stream with exact detection-trigger ties: zero jitter and delay
# put every slot-0 photon on its trigger's picosecond, where the gates open.
CHUNKING_CFG = ExperimentConfig(duration_s=2e-4, mean_pairs_per_pulse=0.3,
                                jitter_sigma_s=0.0, detection_delay_s=0.0,
                                dark_rate_signal_hz=1e6, dark_rate_idler_hz=1e6,
                                rng_seed=5)
CHUNKING_GRID = PulseGrid.of(CHUNKING_CFG)
CHUNKING_TAGS = np.concatenate(list(iter_simulate(CHUNKING_CFG)))
CHUNKING_GATES = run_gates(CHUNKING_CFG)
CHUNKING_WHOLE = analyze_stream(CHUNKING_TAGS, CHUNKING_GATES, grid=CHUNKING_GRID)
# Cut anchors: just after a detection at a trigger's time, and at the
# start of each pulse's detections.
TIE_CUTS = tie_cuts(CHUNKING_TAGS, CHUNKING_GRID).tolist()
PULSE_CUTS = np.flatnonzero(np.diff(CHUNKING_GRID.locate(
    CHUNKING_TAGS["time_ps"].astype(np.int64))[0], prepend=-1)).tolist()


def test_one_pass_matches_dense_pair_oracle():
    oracle = explicit_trigger_result(full_stream(iter_simulate, CHUNKING_CFG), CHUNKING_GATES)
    assert oracle.joint.sum() > 1000
    # The first gate opens on the trigger's picosecond, so it counts every tie.
    ties = analyze_stream(CHUNKING_TAGS[np.array(TIE_CUTS) - 1], CHUNKING_GATES,
                          grid=CHUNKING_GRID)
    assert ties.gated_signal[0] + ties.gated_idler[0] == len(TIE_CUTS) > 0
    assert_same_result(CHUNKING_WHOLE, oracle)


# Long enough for one feed of more than three fold steps; darks put
# ungated detections between the gated ones.
STEPS_CFG = ExperimentConfig(duration_s=5e-3, mean_pairs_per_pulse=0.3,
                             dark_rate_signal_hz=1e6, dark_rate_idler_hz=1e6, rng_seed=7)


def test_feed_across_fold_steps_matches_dense_pair_oracle():
    # The stream starts where the fold's first step boundary falls between
    # a gated signal and a gated idler event of one pulse, inside its run,
    # and its second between a gated signal event and a gated idler event
    # of the next pulse: a pair and a neighbour pair across steps.
    grid, gates = PulseGrid.of(STEPS_CFG), run_gates(STEPS_CFG)
    detections = np.concatenate(list(iter_simulate(STEPS_CFG)))
    detections = detections[detections["time_ps"] < grid.times(grid.pulses)]
    pulse, rel = grid.locate(detections["time_ps"].astype(np.int64))
    offs = np.array([round(o * 1e12) for o in gates.offsets])
    gated = np.any(2 * np.abs(rel[:, None] - offs) <= round(gates.gate_width * 1e12), axis=1)
    channel = detections["channel"]
    both = gated[:-1] & gated[1:]  # entry j: detections j and j + 1
    in_run = both & (pulse[1:] == pulse[:-1]) & (channel[1:] != channel[:-1])
    neighbours = (both & (pulse[1:] == pulse[:-1] + 1)
                  & (channel[:-1] == CH_SIGNAL) & (channel[1:] == CH_IDLER))
    step = FOLD_RECORDS
    n = detections.size - 3 * step
    start = np.flatnonzero(in_run[step - 1:step - 1 + n]
                           & neighbours[2 * step - 1:2 * step - 1 + n])[0]
    fed = detections[start:]
    an = StreamAnalyzer(gates, grid=grid)
    an.feed(fed)
    oracle = explicit_trigger_result(merge_triggers(fed, grid.pulses, grid.period_ps), gates)
    assert oracle.joint.sum() > 10000 and oracle.neighbor_joint.sum() > 100
    assert oracle.gated_signal.sum() + oracle.gated_idler.sum() < fed.size
    assert_same_result(an.result(), oracle)


@st.composite
def adversarial_cuts(draw):
    """Sorted cut indices: each anchor starts a run of 0-3 detections, so
    the draw holds empty chunks, chunks of a few detections, cuts inside a
    pulse, at its start and just after a detection at a trigger's time."""
    n = CHUNKING_TAGS.size
    anchor = st.one_of(st.sampled_from(TIE_CUTS), st.sampled_from(PULSE_CUTS),
                       st.integers(0, n))
    runs = draw(st.lists(st.tuples(anchor, st.integers(0, 3)), max_size=25))
    return sorted([a for a, _ in runs] + [min(a + w, n) for a, w in runs])


@settings(max_examples=40, deadline=None)
@given(adversarial_cuts(), st.integers(0, 50))
def test_any_chunking_matches_one_pass(cuts, probe):
    # A result() taken between two chunks, every array of it then
    # overwritten, must leave the fold as it was.
    an = StreamAnalyzer(CHUNKING_GATES, grid=CHUNKING_GRID)
    for k, part in enumerate(np.split(CHUNKING_TAGS, cuts)):
        if k == probe % (len(cuts) + 1):
            early = an.result()
            for array in (*early.histograms.values(), early.gated_signal, early.gated_idler,
                          early.joint, early.neighbor_joint):
                array.fill(-1)
        an.feed(part)
    first = an.result()
    assert_same_result(first, CHUNKING_WHOLE)
    assert_same_result(an.result(), first)


# Pulse-grid streams: small blocks put several block boundaries into a run.
GRID_BLOCK_PULSES = 1 << 12


@st.composite
def grid_runs(draw):
    """A short run at 33.3, 76.2 or 80 MHz in either mode: up to 2 ns jitter,
    zero detection delay to force detection/trigger ties, up to 1e7 darks/s.
    ``simulated`` gates it by ``run_gates``, which gates the ties."""
    cfg = ExperimentConfig(
        rep_rate_hz=draw(st.sampled_from([33.3e6, 76.2e6, 80e6])),
        duration_s=3e-4,
        mean_pairs_per_pulse=draw(st.floats(0.0, 0.5)),
        jitter_sigma_s=draw(st.floats(0.0, 2e-9)),
        detection_delay_s=draw(st.sampled_from([0.0, 2e-9])),
        dark_rate_signal_hz=draw(st.floats(0.0, 1e7)),
        dark_rate_idler_hz=draw(st.floats(0.0, 1e7)),
        rng_seed=draw(st.integers(0, 2**31 - 1)))
    return cfg, draw(st.booleans())


def simulated(cfg, time_bin):
    """(detection chunks, stream with the triggers as tags, gates) of one run."""
    sim = iter_simulate if time_bin else iter_simulate_single_bin
    with mock.patch("timebin.simulate.BLOCK_PULSES", GRID_BLOCK_PULSES):
        detections = list(sim(cfg))
    grid = PulseGrid.of(cfg)
    tags = merge_triggers(np.concatenate(detections), grid.pulses, grid.period_ps)
    return detections, tags, run_gates(cfg, time_bin)


def chunked(tags, fractions):
    return np.split(tags, sorted(int(f * tags.size) for f in fractions))


# Jitter puts one detection of this run's last pulse past the grid's end.
SPILL_PAST_END = ExperimentConfig(rep_rate_hz=80e6, duration_s=3e-4, mean_pairs_per_pulse=0.5,
                                  jitter_sigma_s=2e-9, detection_delay_s=2e-9, rng_seed=45)


@settings(max_examples=30, deadline=None)
@given(grid_runs(), st.lists(st.floats(0.0, 1.0), max_size=12),
       st.sampled_from([10e-12, 0.6e-12, 7.3e-12, 1e-9, 2e-9]))
@example((SPILL_PAST_END, True), [], 10e-12)
def test_grid_path_matches_explicit_trigger_oracle(run, cuts, hist_bin):
    # The oracle looks each detection's trigger up among trigger tags; the
    # analyzer computes it.  Every field must agree, once the detections at
    # or past the grid's end, which the analyzer counts as out of range and
    # the oracle gives the last pulse, are taken out of the oracle's stream.
    cfg, time_bin = run
    detections, tags, gates = simulated(cfg, time_bin)
    grid = PulseGrid.of(cfg)
    on_grid = StreamAnalyzer(gates, hist_bin, grid=grid)
    for part in chunked(np.concatenate(detections), cuts):
        on_grid.feed(part)
    live = tags[tags["time_ps"] < grid.times(grid.pulses)]
    result = on_grid.result()
    assert result.out_of_range == tags.size - live.size
    assert_same_result(dataclasses.replace(result, out_of_range=0),
                       explicit_trigger_result(live, gates, hist_bin))


@settings(max_examples=30, deadline=None)
@given(grid_runs())
def test_grid_file_reads_back_as_simulated_stream(run):
    cfg, time_bin = run
    detections, tags, _ = simulated(cfg, time_bin)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.tags"
        assert write_tags(path, detections, cfg.to_dict())[0] == tags.size
        it = iter_read_tags(path, chunk_records=1000)
        next(it)
        chunks = list(it)
    assert max(c.size for c in chunks) <= 1000
    assert np.concatenate(chunks).tobytes() == tags.tobytes()


RULE_CFG = ExperimentConfig(duration_s=3 / 76.2e6)
RULE_GRID = PulseGrid.of(RULE_CFG)  # 3 pulses of 13123.36 ps


@st.composite
def record_chunks(draw):
    """(channels, times, cuts): time-sorted records on channels 0 and 1 over
    four periods of ``RULE_GRID``, then up to two given any channel byte and
    up to two any u64 time, and the cuts that chunk them."""
    n = draw(st.integers(0, 24))
    times = sorted(draw(st.lists(st.integers(0, 4 * 13124), min_size=n, max_size=n)))
    channels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if n:
        index = st.integers(0, n - 1)
        for i, c in draw(st.lists(st.tuples(index, st.integers(0, 255)), max_size=2)):
            channels[i] = c
        for i, t in draw(st.lists(st.tuples(index, st.integers(0, 2**64 - 1)), max_size=2)):
            times[i] = t
    return channels, times, sorted(draw(st.lists(st.integers(0, n), max_size=4)))


def refused_record(exc, start=0):
    """(index, fault) of a refusal: "record k[ of the chunk]: fault", the
    chunk starting at record ``start``."""
    m = re.fullmatch(r"record (\d+)(?: of the chunk)?: (.*)", str(exc))
    return start + int(m[1]), m[2]


@settings(max_examples=200, deadline=None)
@given(record_chunks())
@example(([CH_SIGNAL, CH_SIGNAL], [2000, 2**64 - 1], [1]))
@example(([CH_SIGNAL, CH_SIGNAL], [2000, 2**63], []))
@example(([CH_SIGNAL, 7, CH_SIGNAL], [500, 600, 400], [2]))
def test_every_consumer_refuses_the_same_first_record(data):
    # The reader, the writer and the analyzer keep one record rule: they
    # refuse the first record on a channel but 0 and 1, at 2^63 ps or more,
    # or before the previous record's, or accept all.
    channels, times, cuts = data
    expected = next((i for i, (c, t) in enumerate(zip(channels, times))
                     if c > 1 or t >= 2**63 or (i and t < times[i - 1])), None)
    tags = np.zeros(len(times), dtype=TAG_DTYPE)
    tags["channel"], tags["time_ps"] = channels, times
    chunks, starts = np.split(tags, cuts), [0, *cuts]
    refused = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_grid_stream(Path(tmp) / "hand.tags", channels, times, {})
        records_at = path.read_bytes().index(b"\n") + 1
        it = iter_read_tags(path, chunk_records=5, raw=True)
        next(it)
        try:
            list(it)
        except StreamFormatError as exc:
            fault = re.fullmatch(r"(.*) \(byte offset \d+\)", str(exc))[1]
            refused["reader"] = ((exc.byte_offset - records_at) // TAG_DTYPE.itemsize, fault)
        try:
            write_tags(Path(tmp) / "written.tags", chunks, RULE_CFG.to_dict())
        except ValueError as exc:
            refused["writer"] = refused_record(exc)
    analyzer = StreamAnalyzer(GateConfig.time_bin(RULE_CFG), grid=RULE_GRID)
    for start, chunk in zip(starts, chunks):
        try:
            analyzer.feed(chunk)
        except ValueError as exc:
            refused["feed"] = refused_record(exc, start)
            break
    if expected is None:
        assert refused == {}
        res = analyzer.result()
        assert sum(int(h.sum()) for h in res.histograms.values()) + res.out_of_range == len(times)
    else:
        assert refused.keys() == {"reader", "writer", "feed"}
        assert {k for k, _ in refused.values()} == {expected}
        assert len(set(refused.values())) == 1


def _small_tag_file():
    """The bytes of a format-5 file of a 1524-pulse time-bin run."""
    cfg = ExperimentConfig(duration_s=2e-5, mean_pairs_per_pulse=0.05, dark_rate_signal_hz=1e5,
                           rng_seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.tags"
        write_tags(path, iter_simulate(cfg), {**cfg.to_dict(), "mode": "time-bin"})
        return path.read_bytes()


SMALL_FILE = _small_tag_file()
SMALL_HEADER = SMALL_FILE.index(b"\n") + 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.just("flip"), st.integers(0, len(SMALL_FILE) - 1),
                           st.integers(1, 255)),
                 st.tuples(st.just("cut"), st.integers(0, len(SMALL_FILE) - 1), st.just(0))))
@example(("flip", SMALL_FILE.index(b'"duration_s": ') + 14, 1))  # 2e-05 s to 3e-05: the grid
@example(("flip", SMALL_FILE.index(b'"bin_delay_s": ') + 15, 7))  # "3e-09" to "4e-09"
@example(("flip", SMALL_FILE.index(b'"bin_delay_s": ') + 18, 1))  # "3e-19": overlapping gates
@example(("flip", SMALL_FILE.index(b'"bin_delay_s": ') + 18, 2))  # "3e-29": overlapping gates
@example(("flip", SMALL_HEADER - 1, 0x0A ^ 0x20))  # the header's newline
@example(("flip", SMALL_HEADER + 9 * 3 + 1, 1))  # the low byte of a record's time
@example(("flip", len(SMALL_FILE) - 40, 1))  # the trailer's record count
@example(("cut", SMALL_HEADER, 0))
@example(("cut", len(SMALL_FILE) - 48 - 9, 0))  # on a record boundary
def test_hostile_byte_never_gives_a_result(edit):
    # One byte changed anywhere, or the file cut anywhere: analyze exits 3
    # and writes nothing, also where the changed header makes a flag unfit.
    kind, at, xor = edit
    raw = bytearray(SMALL_FILE)
    if kind == "flip":
        raw[at] ^= xor
    else:
        del raw[at:]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.tags"
        path.write_bytes(raw)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", "--in", str(path), "--out", str(Path(tmp) / "r.json")])
        written = sorted(p.name for p in Path(tmp).iterdir())
    err = err.getvalue()
    assert written == ["run.tags"] and err.startswith("error: ")
    assert code == 3
