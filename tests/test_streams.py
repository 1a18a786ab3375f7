import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from timebin.simulate import (CH_TRIGGER, TAG_DTYPE, ExperimentConfig, PulseGrid,
                              iter_simulate)
from timebin.streams import (FORMAT_VERSION, StreamFormatError, header_run,
                             iter_read_tags, write_tags)

from conftest import full_stream, write_grid_stream


TRAILER_SIZE = 48

CFG = ExperimentConfig(duration_s=2e-4, mean_pairs_per_pulse=0.1,
                       dark_rate_signal_hz=1e4, rng_seed=21)
ECHO = CFG.to_dict()
GRID = PulseGrid.of(CFG)


def read_back(path, raw=False):
    """(header, the file's chunks joined into one array)."""
    it = iter_read_tags(path, raw=raw)
    header = next(it)
    return header, np.concatenate([*it, np.empty(0, dtype=TAG_DTYPE)])


@pytest.fixture
def tags():
    return np.concatenate(list(iter_simulate(CFG)))


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path, tags):
        path = tmp_path / "run.tags"
        n, _ = write_tags(path, tags, ECHO)
        header, back = read_back(path, raw=True)
        assert n == tags.size + GRID.pulses
        assert back.tobytes() == tags.tobytes()
        assert header["version"] == FORMAT_VERSION
        assert header["config"]["rng_seed"] == 21

    def test_trailer_digest_covers_every_byte_before_it(self, tmp_path, tags):
        # Worked out from the file's bytes alone: the trailer holds the
        # SHA-256 of the header line and the records, and the writer
        # returns that of the whole file.
        path = tmp_path / "run.tags"
        _, digest = write_tags(path, tags, ECHO)
        raw = path.read_bytes()
        body, trailer = raw[:-TRAILER_SIZE], raw[-TRAILER_SIZE:]
        assert trailer[:16] == b"TAGSEND3" + tags.size.to_bytes(8, "little")
        assert trailer[16:] == hashlib.sha256(body).digest()
        assert digest == hashlib.sha256(raw).hexdigest()
        assert body.index(b"\n") + 1 + tags.nbytes == len(body)

    def test_round_trip_from_chunks(self, tmp_path, tags):
        path = tmp_path / "run.tags"
        chunks = np.array_split(tags, 7)
        write_tags(path, chunks, ECHO)
        _, back = read_back(path, raw=True)
        assert back.tobytes() == tags.tobytes()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.tags"
        write_tags(path, np.empty(0, dtype=TAG_DTYPE), ECHO)
        header, back = read_back(path, raw=True)
        assert back.size == 0
        assert header["format"] == "timebin-tags"
        _, back = read_back(path)
        assert back.size == GRID.pulses and np.all(back["channel"] == CH_TRIGGER)

    def test_iter_read_chunking_invariant(self, tmp_path, tags):
        # In chunks of any size, the trigger view is the stream that the
        # independent merge builds, and no chunk holds more tags than asked.
        path = tmp_path / "run.tags"
        write_tags(path, tags, ECHO)
        want = full_stream(iter_simulate, CFG).tobytes()
        for chunk_records in (1, 7, 1000, 1 << 18):
            it = iter_read_tags(path, chunk_records=chunk_records)
            next(it)
            chunks = list(it)
            assert max(c.size for c in chunks) <= chunk_records
            assert np.concatenate(chunks).tobytes() == want

    def test_truncated_record_reports_offset(self, tmp_path, tags):
        # The file shrinks, 4 bytes into its final record, after the reader
        # has checked the trailer.
        path = tmp_path / "cut.tags"
        write_tags(path, tags, ECHO)
        raw = path.read_bytes()
        it = iter_read_tags(path)
        next(it)
        path.write_bytes(raw[:-TRAILER_SIZE - 4])
        header_len = raw.index(b"\n") + 1
        with pytest.raises(StreamFormatError, match="truncated record") as err:
            list(it)
        assert err.value.byte_offset == header_len + (tags.size - 1) * TAG_DTYPE.itemsize

    def test_truncated_file_reports_offset(self, tmp_path, tags):
        # Cut 4 bytes into the final record: no trailer ends the file.
        path = tmp_path / "cut.tags"
        write_tags(path, tags, ECHO)
        raw = path.read_bytes()
        path.write_bytes(raw[:-TRAILER_SIZE - 4])
        with pytest.raises(StreamFormatError, match="trailer") as err:
            read_back(path)
        assert err.value.byte_offset == len(raw) - 2 * TRAILER_SIZE - 4

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.tags"
        path.write_bytes(json.dumps({"format": "other", "version": 1}).encode() + b"\n")
        with pytest.raises(StreamFormatError):
            next(iter_read_tags(path))

    @pytest.mark.parametrize("line", [b"[1]", b"7", b'"timebin-tags"', b"null"])
    def test_rejects_header_that_is_not_an_object(self, tmp_path, line):
        path = tmp_path / "bad.tags"
        path.write_bytes(line + b"\n")
        with pytest.raises(StreamFormatError) as err:
            next(iter_read_tags(path))
        assert err.value.byte_offset == 0

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v99.tags"
        path.write_bytes(
            json.dumps({"format": "timebin-tags", "version": 99}).encode() + b"\n")
        with pytest.raises(StreamFormatError):
            read_back(path)

    @pytest.mark.parametrize("chunk_records", [1 << 18, 9])
    def test_out_of_order_record_rejected_with_offset(self, tmp_path, tags, chunk_records):
        # With 9-record chunks the swapped-in record 9 opens the second
        # chunk.  The writer refuses it, so the file is built by hand.
        path = tmp_path / "swapped.tags"
        swapped = tags.copy()
        swapped[[8, 9]] = swapped[[9, 8]]
        assert swapped["time_ps"][9] < swapped["time_ps"][8]
        write_grid_stream(path, swapped["channel"], swapped["time_ps"], ECHO)
        records_at = path.read_bytes().index(b"\n") + 1
        it = iter_read_tags(path, chunk_records=chunk_records)
        next(it)
        with pytest.raises(StreamFormatError, match="before the previous record") as err:
            list(it)
        assert err.value.byte_offset == records_at + 9 * 9

    def test_rejects_binary_garbage_header(self, tmp_path):
        path = tmp_path / "junk.tags"
        path.write_bytes(b"\xff\xfe\x00garbage\n" + b"\x00" * 18)
        with pytest.raises(StreamFormatError) as err:
            next(iter_read_tags(path))
        assert err.value.byte_offset == 0

    @pytest.mark.parametrize("echo, fault", [
        ({}, "is not an object of run config values"),
        ({**ECHO, "wavelength": 1e-6}, "unexpected keyword argument 'wavelength'"),
        ({**ECHO, "duration_s": 1e-8}, "grid pulse count 1 is not an integer of at least 2"),
        ({**ECHO, "mode": "triple-bin"}, "unknown mode 'triple-bin'"),
        ({**ECHO, "pair_yield_per_watt": 0.1, "pump_power_w": 0.02},
         "0.1 \\* 0.02 disagrees with mean_pairs_per_pulse = 0.1"),
    ], ids=["empty", "unknown-field", "one-pulse", "unknown-mode", "yield-disagrees"])
    def test_writer_refuses_an_echo_that_states_no_run(self, tmp_path, tags, echo, fault):
        # The header's echo is its one statement of the run and its grid.
        with pytest.raises(ValueError, match=fault):
            write_tags(tmp_path / "run.tags", tags, echo)
        assert list(tmp_path.iterdir()) == []

    def test_only_the_trigger_view_reads_the_echo(self, tmp_path, tags):
        # The raw records need no grid; the trigger view is refused at its
        # first chunk, at byte offset 0, when the echo states no run.
        path = write_grid_stream(tmp_path / "run.tags", tags["channel"], tags["time_ps"],
                                 {**ECHO, "rep_rate_hz": 0.0})
        assert read_back(path, raw=True)[1].tobytes() == tags.tobytes()
        with pytest.raises(StreamFormatError, match="rep_rate_hz must be positive") as err:
            read_back(path)
        assert err.value.byte_offset == 0

    def test_trigger_view_refuses_an_unknown_mode(self, tmp_path, tags):
        # The mode is read with the run; only the command line's analyze
        # used to refuse it.
        path = write_grid_stream(tmp_path / "run.tags", tags["channel"], tags["time_ps"],
                                 {**ECHO, "mode": "triple-bin"})
        with pytest.raises(StreamFormatError, match="unknown mode 'triple-bin'") as err:
            read_back(path)
        assert err.value.byte_offset == 0

    @pytest.mark.parametrize("extra", [0, 1])
    def test_header_line_of_at_most_1_mib_is_read(self, tmp_path, extra):
        # 1 MiB, newline included, is read; one byte more is refused.
        line = json.dumps({"format": "timebin-tags", "version": 5, "config": ECHO}).encode()
        body = line + b" " * ((1 << 20) - len(line) - 1 + extra) + b"\n"
        path = tmp_path / "padded.tags"
        path.write_bytes(body + b"TAGSEND3" + bytes(8) + hashlib.sha256(body).digest())
        if extra:
            with pytest.raises(StreamFormatError, match="^invalid header line: longer than "
                                                        "1048576 bytes") as err:
                next(iter_read_tags(path))
            assert err.value.byte_offset == 0
        else:
            assert read_back(path)[0]["config"] == ECHO

    def test_header_line_without_newline_is_refused_after_1_mib(self, tmp_path):
        # The whole file was read as the line, and held more than once: a
        # 32.5 MiB peak for these 16 MiB.
        path = tmp_path / "no-newline.tags"
        path.write_bytes(b"{" * (16 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(StreamFormatError, match="^invalid header line: longer") as err:
                next(iter_read_tags(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.byte_offset == 0 and peak < 4 << 20


class TestGridFiles:
    """Format 4: detection records on the pulse grid of the header's echo,
    implied triggers."""

    CFG = ExperimentConfig(duration_s=1e-3, mean_pairs_per_pulse=0.05, jitter_sigma_s=100e-12,
                           detection_delay_s=0.0, dark_rate_signal_hz=1e6, rng_seed=22)

    @pytest.fixture
    def grid_file(self, tmp_path):
        path = tmp_path / "grid.tags"
        n, _ = write_tags(path, iter_simulate(self.CFG), self.CFG.to_dict())
        return path, n

    def test_reads_back_as_the_simulated_stream(self, grid_file):
        path, n = grid_file
        tags = full_stream(iter_simulate, self.CFG)
        # detections that share their time with a trigger
        is_trigger = tags["channel"] == CH_TRIGGER
        assert np.isin(tags["time_ps"][~is_trigger], tags["time_ps"][is_trigger]).any()
        header, back = read_back(path)
        assert n == tags.size
        assert back.tobytes() == tags.tobytes()
        # The echo is the whole header but its format: the grid is the echo's.
        assert header == {"format": "timebin-tags", "version": 5, "config": self.CFG.to_dict()}
        assert PulseGrid.of(self.CFG) == PulseGrid(76200, 1e12 / 76.2e6)
        assert path.stat().st_size < 0.1 * tags.nbytes

    def test_raw_read_gives_the_stored_detections(self, grid_file):
        path, _ = grid_file
        it = iter_read_tags(path, chunk_records=1000, raw=True)
        assert header_run(next(it)) == (self.CFG, PulseGrid.of(self.CFG), "time-bin")
        chunks = list(it)
        assert max(c.size for c in chunks) == 1000
        detections = np.concatenate(list(iter_simulate(self.CFG)))
        assert np.concatenate(chunks).tobytes() == detections.tobytes()

    @pytest.mark.parametrize("fault", ["cut-on-record", "count", "hash"])
    def test_trailer_faults_report_offset(self, grid_file, fault):
        path, _ = grid_file
        raw = bytearray(path.read_bytes())
        trailer_at = len(raw) - TRAILER_SIZE
        if fault == "cut-on-record":
            raw = raw[:trailer_at - 9]
            expected, message = trailer_at - 9 - TRAILER_SIZE, "missing or short trailer"
        elif fault == "count":
            raw[trailer_at + 8] ^= 1
            expected, message = trailer_at, "trailer counts"
        else:
            raw[raw.index(b"\n") + 1 + 9 * 5 + 1] ^= 1  # low byte of a time
            expected, message = trailer_at, "SHA-256"
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError, match=message) as err:
            read_back(path)
        assert err.value.byte_offset == expected

    def test_trigger_record_rejected_with_offset(self, grid_file):
        path, _ = grid_file
        raw = bytearray(path.read_bytes())
        at = raw.index(b"\n") + 1 + 9 * 7
        raw[at] = CH_TRIGGER
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError, match="trigger record") as err:
            read_back(path)
        assert err.value.byte_offset == at

    def test_channel_bit_rejected_with_offset(self, grid_file):
        path, _ = grid_file
        raw = bytearray(path.read_bytes())
        at = raw.index(b"\n") + 1 + 9 * 7
        raw[at] |= 0x80
        path.write_bytes(bytes(raw))
        with pytest.raises(StreamFormatError, match="unknown channel 12[89]") as err:
            read_back(path)
        assert err.value.byte_offset == at

    @pytest.mark.parametrize("chunk_records", [1 << 18, 11])
    def test_out_of_order_record_rejected_with_offset(self, grid_file, chunk_records):
        # 0x40 in byte 5 of record 10's time moves it about 70 s on, past
        # every later record, so record 11 is out of order.  With 11-record
        # chunks record 11 opens the second chunk.
        path, _ = grid_file
        raw = bytearray(path.read_bytes())
        records_at = raw.index(b"\n") + 1
        raw[records_at + 9 * 10 + 1 + 5] = 0x40
        path.write_bytes(bytes(raw))
        it = iter_read_tags(path, chunk_records=chunk_records)
        next(it)
        with pytest.raises(StreamFormatError, match="before the previous record") as err:
            list(it)
        assert err.value.byte_offset == records_at + 9 * 11

    def test_writer_rejects_trigger_tags(self, tmp_path):
        path = tmp_path / "bad.tags"
        with pytest.raises(ValueError, match="trigger"):
            write_tags(path, full_stream(iter_simulate, self.CFG), self.CFG.to_dict())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fault, cut", [
        ("channel", None), ("time", None), ("order", None), ("order", 11),
    ], ids=["unknown-channel", "time-past-int64", "out-of-order", "out-of-order-across-chunks"])
    def test_writer_refuses_a_record_the_reader_would(self, tmp_path, fault, cut):
        # Such a file would carry a valid trailer and fail every read.
        detections = np.concatenate(list(iter_simulate(self.CFG)))
        k = 11
        if fault == "channel":
            detections["channel"][k] = 7
        elif fault == "time":
            detections["time_ps"][k:] = 2**63
        else:
            detections[[k - 1, k]] = detections[[k, k - 1]]
        chunks = [detections] if cut is None else [detections[:cut], detections[cut:]]
        with pytest.raises(ValueError, match=f"^record {k}: "):
            write_tags(tmp_path / "bad.tags", chunks, self.CFG.to_dict())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path, grid_file):
        path, _ = grid_file
        before = path.read_bytes()

        def chunks():
            yield from iter_simulate(self.CFG)
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            write_tags(path, chunks(), self.CFG.to_dict())
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["grid.tags"]
