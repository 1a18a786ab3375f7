import json

import numpy as np
import pytest

from timebin.simulate import (CH_TRIGGER, TAG_DTYPE, ExperimentConfig, PulseGrid,
                              iter_simulate)
from timebin.streams import (FORMAT_VERSION, StreamFormatError, header_grid,
                             iter_read_tags, read_header, write_tags)

from conftest import full_stream, write_grid_stream


TRAILER_SIZE = 48

CFG = ExperimentConfig(duration=2e-4, mean_pairs_per_pulse=0.1,
                       dark_rate_signal=1e4, rng_seed=21)
GRID = PulseGrid.of(CFG)


def read_back(path, raw=False, chunk_records=1 << 18):
    """(header, the file's chunks joined into one array)."""
    it = iter_read_tags(path, chunk_records=chunk_records, raw=raw)
    header = next(it)
    return header, np.concatenate([*it, np.empty(0, dtype=TAG_DTYPE)])


@pytest.fixture
def tags():
    return np.concatenate(list(iter_simulate(CFG)))


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path, tags):
        path = tmp_path / "run.tags"
        n = write_tags(path, tags, config_echo={"rng_seed": 21}, grid=GRID)
        header, back = read_back(path, raw=True)
        assert n == tags.size + GRID.pulses
        assert back.tobytes() == tags.tobytes()
        assert header["version"] == FORMAT_VERSION
        assert header["config"]["rng_seed"] == 21

    def test_round_trip_from_chunks(self, tmp_path, tags):
        path = tmp_path / "run.tags"
        chunks = np.array_split(tags, 7)
        write_tags(path, chunks, grid=GRID)
        _, back = read_back(path, raw=True)
        assert back.tobytes() == tags.tobytes()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.tags"
        write_tags(path, np.empty(0, dtype=TAG_DTYPE), grid=GRID)
        header, back = read_back(path, raw=True)
        assert back.size == 0
        assert header["format"] == "timebin-tags"
        _, back = read_back(path)
        assert back.size == GRID.pulses and np.all(back["channel"] == CH_TRIGGER)

    def test_iter_read_chunking_invariant(self, tmp_path, tags):
        path = tmp_path / "run.tags"
        write_tags(path, tags, grid=GRID)
        _, back = read_back(path, chunk_records=1000)
        assert back.tobytes() == full_stream(iter_simulate, CFG).tobytes()

    def test_truncated_record_reports_offset(self, tmp_path, tags):
        # The file shrinks, 4 bytes into its final record, after the reader
        # has checked the trailer.
        path = tmp_path / "cut.tags"
        write_tags(path, tags, grid=GRID)
        raw = path.read_bytes()
        it = iter_read_tags(path)
        next(it)
        path.write_bytes(raw[:-TRAILER_SIZE - 4])
        header_len = raw.index(b"\n") + 1
        with pytest.raises(StreamFormatError, match="truncated record") as err:
            list(it)
        assert err.value.byte_offset == header_len + (tags.size - 1) * TAG_DTYPE.itemsize

    def test_truncated_format_2_reports_offset(self, tmp_path, tags):
        # Cut 4 bytes into the final record: no trailer ends the file.
        path = tmp_path / "cut.tags"
        write_tags(path, tags, grid=GRID)
        raw = path.read_bytes()
        path.write_bytes(raw[:-TRAILER_SIZE - 4])
        with pytest.raises(StreamFormatError, match="trailer") as err:
            read_back(path)
        assert err.value.byte_offset == len(raw) - 2 * TRAILER_SIZE - 4

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.tags"
        path.write_bytes(json.dumps({"format": "other", "version": 1}).encode() + b"\n")
        with pytest.raises(StreamFormatError):
            read_header(path)

    @pytest.mark.parametrize("line", [b"[1]", b"7", b'"timebin-tags"', b"null"])
    def test_rejects_header_that_is_not_an_object(self, tmp_path, line):
        path = tmp_path / "bad.tags"
        path.write_bytes(line + b"\n")
        with pytest.raises(StreamFormatError) as err:
            read_header(path)
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
        write_grid_stream(path, swapped["channel"], swapped["time_ps"], {},
                          {"pulses": GRID.pulses, "period_ps": GRID.period_ps})
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
            read_header(path)
        assert err.value.byte_offset == 0


class TestGridFiles:
    """Format 2 with a pulse grid: detection records, implied triggers."""

    CFG = ExperimentConfig(duration=1e-3, mean_pairs_per_pulse=0.05, jitter_sigma=100e-12,
                           detection_delay=0.0, dark_rate_signal=1e6, rng_seed=22)

    @pytest.fixture
    def grid_file(self, tmp_path):
        path = tmp_path / "grid.tags"
        n = write_tags(path, iter_simulate(self.CFG), config_echo={"rng_seed": 22},
                       grid=PulseGrid.of(self.CFG))
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
        assert header["grid"] == {"pulses": 76200, "period_ps": 1e12 / 76.2e6}
        assert path.stat().st_size < 0.1 * tags.nbytes

    def test_raw_read_gives_the_stored_detections(self, grid_file):
        path, _ = grid_file
        it = iter_read_tags(path, chunk_records=1000, raw=True)
        assert header_grid(next(it)) == PulseGrid.of(self.CFG)
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
            write_tags(path, full_stream(iter_simulate, self.CFG), grid=PulseGrid.of(self.CFG))
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
            write_tags(tmp_path / "bad.tags", chunks, grid=PulseGrid.of(self.CFG))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path, grid_file):
        path, _ = grid_file
        before = path.read_bytes()

        def chunks():
            yield from iter_simulate(self.CFG)
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError):
            write_tags(path, chunks(), grid=PulseGrid.of(self.CFG))
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["grid.tags"]
