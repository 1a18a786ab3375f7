import json

import numpy as np
import pytest

from timebin.simulate import TAG_DTYPE, ExperimentConfig, simulate
from timebin.streams import (FORMAT_VERSION, StreamFormatError,
                             iter_read_tags, read_header, read_tags,
                             write_tags)


@pytest.fixture
def tags():
    cfg = ExperimentConfig(duration=2e-4, mean_pairs_per_pulse=0.1,
                           dark_rate_signal=1e4, rng_seed=21)
    return simulate(cfg)


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path, tags):
        path = tmp_path / "run.tags"
        n = write_tags(path, tags, config_echo={"rng_seed": 21})
        header, back = read_tags(path)
        assert n == tags.size
        assert back.tobytes() == tags.tobytes()
        assert header["version"] == FORMAT_VERSION
        assert header["config"]["rng_seed"] == 21

    def test_round_trip_from_chunks(self, tmp_path, tags):
        path = tmp_path / "run.tags"
        chunks = np.array_split(tags, 7)
        write_tags(path, chunks)
        _, back = read_tags(path)
        assert back.tobytes() == tags.tobytes()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.tags"
        write_tags(path, np.empty(0, dtype=TAG_DTYPE))
        header, back = read_tags(path)
        assert back.size == 0
        assert header["format"] == "timebin-tags"

    def test_iter_read_chunking_invariant(self, tmp_path, tags):
        path = tmp_path / "run.tags"
        write_tags(path, tags)
        it = iter_read_tags(path, chunk_records=1000)
        next(it)  # header
        back = np.concatenate(list(it))
        assert back.tobytes() == tags.tobytes()

    def test_truncated_record_reports_offset(self, tmp_path, tags):
        path = tmp_path / "cut.tags"
        write_tags(path, tags)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])  # chop into the final record
        header_len = raw.index(b"\n") + 1
        record_size = 9
        n_whole = (len(raw) - 4 - header_len) // record_size
        with pytest.raises(StreamFormatError) as err:
            read_tags(path)
        assert err.value.byte_offset == header_len + n_whole * record_size

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
            read_tags(path)

    def test_rejects_binary_garbage_header(self, tmp_path):
        path = tmp_path / "junk.tags"
        path.write_bytes(b"\xff\xfe\x00garbage\n" + b"\x00" * 18)
        with pytest.raises(StreamFormatError) as err:
            read_header(path)
        assert err.value.byte_offset == 0
