"""Time-tag stream file format.

Binary format: one JSON header line (UTF-8, newline-terminated) carrying
the format version and a config echo, followed by little-endian records
of (channel: u8, timestamp: u64 picoseconds).
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

import numpy as np

from .simulate import CH_IDLER, CH_SIGNAL, CH_TRIGGER, TAG_DTYPE

__all__ = [
    "FORMAT_VERSION",
    "StreamFormatError",
    "write_tags",
    "read_tags",
    "iter_read_tags",
    "read_header",
]

FORMAT_VERSION = 1

_RECORD_SIZE = TAG_DTYPE.itemsize
_MAX_CHANNEL = max(CH_SIGNAL, CH_IDLER, CH_TRIGGER)
_MAX_TIME_PS = np.uint64(np.iinfo(np.int64).max)  # times are analyzed as int64


class StreamFormatError(ValueError):
    """Raised on a malformed tag file; carries the offending byte offset."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def write_tags(path, chunks: Iterable[np.ndarray] | np.ndarray, config_echo: dict | None = None) -> int:
    """Write tag chunks to ``path``; returns the number of records written."""
    if isinstance(chunks, np.ndarray):
        chunks = [chunks]
    header = {"format": "timebin-tags", "version": FORMAT_VERSION,
              "config": config_echo or {}}
    n = 0
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for chunk in chunks:
            rec = np.ascontiguousarray(chunk, dtype=TAG_DTYPE)
            fh.write(rec.data)
            n += rec.size
    return n


def read_header(path) -> dict:
    with open(path, "rb") as fh:
        line = fh.readline()
    return _parse_header(line)


def _parse_header(line: bytes) -> dict:
    try:
        header = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StreamFormatError(f"invalid header line: {exc}", 0) from exc
    if not isinstance(header, dict) or header.get("format") != "timebin-tags":
        raise StreamFormatError("not a timebin tag file", 0)
    if header.get("version") != FORMAT_VERSION:
        raise StreamFormatError(f"unsupported format version {header.get('version')}", 0)
    return header


def iter_read_tags(path, chunk_records: int = 1 << 20) -> Iterator[np.ndarray]:
    """Yield tag chunks from a binary stream file.

    The first yielded item is the header dict; subsequent items are
    read-only ``TAG_DTYPE`` arrays over the file's bytes.  A truncated
    trailing record, a channel other than signal, idler or trigger, or a
    time of 2^63 ps or more raise :class:`StreamFormatError` with the byte
    offset of the bad record.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        yield _parse_header(line)
        offset = len(line)
        while True:
            buf = fh.read(chunk_records * _RECORD_SIZE)
            if not buf:
                break
            if len(buf) % _RECORD_SIZE:
                raise StreamFormatError(
                    "truncated record", offset + len(buf) - len(buf) % _RECORD_SIZE)
            tags = np.frombuffer(buf, dtype=TAG_DTYPE)
            channel, time_ps = tags["channel"], tags["time_ps"]
            if channel.max() > _MAX_CHANNEL or time_ps.max() > _MAX_TIME_PS:
                k = int(np.argmax((channel > _MAX_CHANNEL) | (time_ps > _MAX_TIME_PS)))
                what = (f"unknown channel {channel[k]}" if channel[k] > _MAX_CHANNEL
                        else f"time {time_ps[k]} ps is 2^63 ps or more")
                raise StreamFormatError(what, offset + k * _RECORD_SIZE)
            offset += len(buf)
            yield tags


def read_tags(path) -> tuple[dict, np.ndarray]:
    """Read a whole binary stream file into (header, tag array)."""
    it = iter_read_tags(path)
    header = next(it)
    chunks = list(it)
    tags = np.concatenate(chunks) if chunks else np.empty(0, dtype=TAG_DTYPE)
    return header, tags
