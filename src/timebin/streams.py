"""Time-tag stream file format.

A tag file is one JSON header line (UTF-8, newline-terminated), then
little-endian records of (channel: u8, timestamp: u64 picoseconds), then
a trailer.

- **Header.** ``{"format": "timebin-tags", "version": 2, "config": {...},
  "grid": {"pulses": n, "period_ps": P}}`` with the run's config echo and
  its pulse grid: the triggers are implied at round(k * P) ps for k < n
  (see :class:`~timebin.simulate.PulseGrid`), and the records are the
  detections only, on channels 0 and 1, in time order.  A detection at a
  trigger's time belongs to that trigger's pulse.
- **Trailer** (48 bytes): the magic ``TAGSEND2``, the record count as u64
  and the SHA-256 of the record bytes.  A file cut anywhere, even on a
  record boundary, fails the read instead of reading back short.

A header without a grid, such as that of a format 1 file (header, then
every tag, no trailer), is refused at byte offset 0.  The writer writes
``path + ".tmp"`` and renames it over ``path``, so a crash leaves no
half-written file under the final name.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Iterator

import numpy as np

from .simulate import CH_IDLER, CH_TRIGGER, TAG_DTYPE, PulseGrid, with_triggers

__all__ = [
    "FORMAT_VERSION",
    "StreamFormatError",
    "write_tags",
    "iter_read_tags",
    "read_header",
    "header_grid",
]

FORMAT_VERSION = 2

_RECORD_SIZE = TAG_DTYPE.itemsize
_MAX_TIME_PS = np.uint64(np.iinfo(np.int64).max)  # times are analyzed as int64
_TRAILER_MAGIC = b"TAGSEND2"
_TRAILER_SIZE = len(_TRAILER_MAGIC) + 8 + 32


class StreamFormatError(ValueError):
    """Raised on a malformed tag file; carries the offending byte offset."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def write_tags(path, chunks: Iterable[np.ndarray] | np.ndarray, config_echo: dict | None = None,
               *, grid: PulseGrid, file_digest=None) -> int:
    """Write detection chunks on ``grid`` to ``path`` in format 2; returns
    the number of tags, the grid's implied triggers included.

    ``file_digest``, a ``hashlib`` object, is fed every byte written.  Each
    chunk is let go before the next is pulled.
    """
    if isinstance(chunks, np.ndarray):
        chunks = [chunks]
    header = {"format": "timebin-tags", "version": FORMAT_VERSION,
              "config": config_echo or {},
              "grid": {"pulses": grid.pulses, "period_ps": grid.period_ps}}
    n = 0
    digest = hashlib.sha256()
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            def emit(data):
                fh.write(data)
                if file_digest is not None:
                    file_digest.update(data)

            emit(json.dumps(header).encode() + b"\n")
            for chunk in chunks:
                rec = np.ascontiguousarray(chunk, dtype=TAG_DTYPE)
                if np.any(rec["channel"] == CH_TRIGGER):
                    raise ValueError("trigger tag in a stream written with a pulse grid")
                emit(rec.data)
                digest.update(rec.data)
                n += rec.size
                del chunk, rec
            emit(_TRAILER_MAGIC + n.to_bytes(8, "little") + digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return n + grid.pulses


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
    version = header.get("version")
    if version not in (1, FORMAT_VERSION):
        raise StreamFormatError(f"unsupported format version {version}", 0)
    if version == 1 or "grid" not in header:
        raise StreamFormatError(f"format {version} file has no pulse grid", 0)
    header_grid(header)
    return header


def header_grid(header: dict) -> PulseGrid:
    """The pulse grid a parsed header describes.

    A grid entry that is not ``{"pulses": n, "period_ps": P}``, or that
    :class:`~timebin.simulate.PulseGrid` refuses, is a
    :class:`StreamFormatError` at byte offset 0.
    """
    spec = header["grid"]
    if not isinstance(spec, dict) or spec.keys() != {"pulses", "period_ps"}:
        raise StreamFormatError(f"header grid {spec!r} is not "
                                f"{{'pulses': n, 'period_ps': P}}", 0)
    try:
        return PulseGrid(spec["pulses"], spec["period_ps"])
    except ValueError as exc:
        raise StreamFormatError(str(exc), 0) from exc


def _trailer(fh, size: int, records_at: int) -> bytes:
    """The SHA-256 of a trailer whose record count matches the bytes
    between the header and the trailer."""
    at = size - _TRAILER_SIZE
    if at < records_at:
        raise StreamFormatError("missing or short trailer", records_at)
    fh.seek(at)
    raw = fh.read(_TRAILER_SIZE)
    if raw[:len(_TRAILER_MAGIC)] != _TRAILER_MAGIC:
        raise StreamFormatError("missing or short trailer", at)
    count = int.from_bytes(raw[len(_TRAILER_MAGIC):-32], "little")
    if count * _RECORD_SIZE != at - records_at:
        raise StreamFormatError(f"trailer counts {count} records, the file holds "
                                f"{(at - records_at) / _RECORD_SIZE:g}", at)
    fh.seek(records_at)
    return raw[-32:]


def _records(fh, offset, end, chunk_records) -> Iterator[np.ndarray]:
    """Validated record chunks from ``offset`` to ``end``, the trailer."""
    last = np.zeros(1, dtype=np.uint64)  # time of the record before the chunk
    while offset < end:
        want = min(chunk_records * _RECORD_SIZE, end - offset)
        buf = fh.read(want)
        if len(buf) < want:  # the file shrank after its trailer was read
            raise StreamFormatError(
                "truncated record", offset + len(buf) - len(buf) % _RECORD_SIZE)
        tags = np.frombuffer(buf, dtype=TAG_DTYPE)
        channel, time_ps = tags["channel"], tags["time_ps"]
        bad_channel = channel > CH_IDLER
        bad_time = time_ps > _MAX_TIME_PS
        unsorted = time_ps < np.concatenate([last, time_ps[:-1]])
        bad = bad_channel | bad_time | unsorted
        if bad.any():
            k = int(np.argmax(bad))
            if bad_channel[k] and channel[k] == CH_TRIGGER:
                what = "trigger record in a file with a pulse grid"
            elif bad_channel[k]:
                what = f"unknown channel {channel[k]}"
            elif bad_time[k]:
                what = f"time {time_ps[k]} ps is 2^63 ps or more"
            else:
                what = f"time {time_ps[k]} ps is before the previous record's"
            raise StreamFormatError(what, offset + k * _RECORD_SIZE)
        last = time_ps[-1:].copy()
        offset += len(buf)
        yield tags


def iter_read_tags(path, chunk_records: int = 1 << 18, raw: bool = False) -> Iterator[np.ndarray]:
    """Yield the header dict, then tag chunks of at most ``chunk_records``.

    By default the grid's implied triggers are rebuilt and merged in, so
    the file reads back as the full (channel, time_ps) stream.  With
    ``raw`` the records come as stored, as read-only arrays over the file's
    bytes: the detections, for an analyzer built with :func:`header_grid`.
    A header without a valid grid, a trigger record, an unknown channel, a
    time of 2^63 ps or more, a time before the previous record's, or a
    trailer that is missing or whose record count or SHA-256 disagrees
    raise :class:`StreamFormatError` with a byte offset.  The default chunk
    bounds memory: the analyzer and the trigger rebuild keep several 8-byte
    temporaries per record of a chunk.
    """
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be at least 1, got {chunk_records}")
    with open(path, "rb") as fh:
        line = fh.readline()
        header = _parse_header(line)
        size = os.fstat(fh.fileno()).st_size
        want = _trailer(fh, size, len(line))
        end = size - _TRAILER_SIZE
        yield header
        records = _hashed(_records(fh, len(line), end, chunk_records), want, end)
        if not raw:
            records = with_triggers(header_grid(header), records, chunk_records)
        yield from records


def _hashed(records, want: bytes, trailer_at: int) -> Iterator[np.ndarray]:
    digest = hashlib.sha256()
    for tags in records:
        digest.update(tags.data)
        yield tags
    if digest.digest() != want:
        raise StreamFormatError("records do not match the trailer's SHA-256", trailer_at)

