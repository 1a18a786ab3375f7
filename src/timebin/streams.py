"""Time-tag stream file format.

A tag file is one JSON header line (UTF-8, newline-terminated, at most
1 MiB), then little-endian records of (channel: u8, timestamp: u64
picoseconds), then a trailer.

- **Header.** ``{"format": "timebin-tags", "version": 5, "config": {...}}``
  with the run's config echo, its one statement of the run and its mode
  (:func:`header_run`): the triggers are implied on the echo's
  ``PulseGrid.of``, at round(k * P) ps for k < n, and the records are the
  detections only, by the rule of
  :func:`~timebin.simulate.first_bad_record`: on channels 0 and 1, below
  2^63 ps, in time order.  A detection at a trigger's time belongs to
  that trigger's pulse.
- **Trailer** (48 bytes): the magic ``TAGSEND3``, the record count as u64
  and the SHA-256 of every byte before it, header line included.  A file
  cut or changed anywhere, even on a record boundary, fails the read.

Any other version, such as 1 (every tag, no trailer), 2 (a trailer over
the records only), 3 (a grid entry beside the echo) or 4 (echo keys
without units, such as ``rep_rate``), is refused at byte offset 0.  The
writer writes ``path + ".tmp"`` and renames it over ``path``, so a crash
leaves no half-written file under the final name.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Iterator

import numpy as np

from . import FORMAT_VERSION, MODES
from .simulate import CH_TRIGGER, TAG_DTYPE, ExperimentConfig, PulseGrid, first_bad_record

__all__ = [
    "FORMAT_VERSION",
    "StreamFormatError",
    "write_tags",
    "iter_read_tags",
    "header_run",
]

_RECORD_SIZE = TAG_DTYPE.itemsize
_TRAILER_MAGIC = b"TAGSEND3"
_TRAILER_SIZE = len(_TRAILER_MAGIC) + 8 + 32
# The longest header line read, newline included; a default header is 469 bytes.
_MAX_HEADER_LINE = 1 << 20


class StreamFormatError(ValueError):
    """Raised on a malformed tag file; carries the offending byte offset."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def write_tags(path, chunks: Iterable[np.ndarray] | np.ndarray,
               config_echo: dict) -> tuple[int, str]:
    """Write the detection chunks of the run ``config_echo`` states to
    ``path`` in format 5; returns the number of tags, the run's implied
    triggers included, and the SHA-256 of the whole file in hex.

    An echo that states no run is refused as by :func:`header_run`, and a
    record that the reader would refuse (see :func:`iter_read_tags`) is a
    ``ValueError`` naming its index; either way no file is written.  One
    SHA-256 runs over the file; the trailer holds it as of the last record.
    Each chunk is let go before the next is pulled.
    """
    if isinstance(chunks, np.ndarray):
        chunks = [chunks]
    header = {"format": "timebin-tags", "version": FORMAT_VERSION, "config": config_echo}
    _, grid, _ = header_run(header)
    line = json.dumps(header).encode() + b"\n"
    n, last = 0, np.uint64(0)
    digest = hashlib.sha256(line)
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(line)
            for chunk in chunks:
                rec = np.ascontiguousarray(chunk, dtype=TAG_DTYPE)
                if (bad := first_bad_record(rec, last)) is not None:
                    raise ValueError(f"record {n + bad[0]}: {bad[1]}")
                last = rec["time_ps"][-1] if rec.size else last
                fh.write(rec.data)
                digest.update(rec.data)
                n += rec.size
                del chunk, rec
            trailer = _TRAILER_MAGIC + n.to_bytes(8, "little") + digest.digest()
            fh.write(trailer)
            digest.update(trailer)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return n + grid.pulses, digest.hexdigest()


def _parse_header(line: bytes) -> dict:
    if len(line) > _MAX_HEADER_LINE:
        raise StreamFormatError(f"invalid header line: longer than {_MAX_HEADER_LINE} bytes", 0)
    try:
        header = json.loads(line.decode())
    # ValueError: not UTF-8 or JSON, or an integer of over 4300 digits.
    except (ValueError, RecursionError) as exc:
        raise StreamFormatError(f"invalid header line: {exc}", 0) from exc
    if not isinstance(header, dict) or header.get("format") != "timebin-tags":
        raise StreamFormatError("not a timebin tag file", 0)
    if (version := header.get("version")) != FORMAT_VERSION:
        raise StreamFormatError(f"unsupported format version {version}", 0)
    return header


def header_run(header: dict) -> tuple[ExperimentConfig, PulseGrid, str]:
    """(run config, pulse grid, mode) of the run a parsed header states:
    its config echo less its ``mode`` entry as an ``ExperimentConfig``,
    ``PulseGrid.of`` that config, and the mode, time-bin if the echo
    states none.  This is the one reader of a header's run.

    An echo that is no run or empty, a mode but those of ``MODES``, or a
    header that holds an entry besides its format, version and echo, such
    as the grid that format 3 stored, is a :class:`StreamFormatError` at
    byte offset 0.
    """
    echo = header.get("config")
    try:
        if extra := sorted(header.keys() - {"format", "version", "config"}):
            raise ValueError(f"it holds {extra} besides its config echo")
        if not isinstance(echo, dict) or not echo:
            raise ValueError(f"config echo {echo!r} is not an object of run config values")
        if (mode := echo.get("mode", "time-bin")) not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        config = ExperimentConfig(**{k: v for k, v in echo.items() if k != "mode"})
        return config, PulseGrid.of(config), mode
    except (TypeError, ValueError) as exc:  # TypeError: an unknown key
        raise StreamFormatError(f"header states no run: {exc}", 0) from exc


def _trailer(fh, size: int, records_at: int) -> bytes:
    """The SHA-256 in a trailer whose record count matches the bytes
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


def _records(fh, line: bytes, end: int, want: bytes, chunk_records) -> Iterator[np.ndarray]:
    """Validated record chunks from the end of the header ``line`` to
    ``end``, the trailer, then a check that the SHA-256 of the line and
    the records is ``want``."""
    offset, last = len(line), np.uint64(0)  # last: time of the record before the chunk
    digest = hashlib.sha256(line)
    while offset < end:
        size = min(chunk_records * _RECORD_SIZE, end - offset)
        buf = fh.read(size)
        if len(buf) < size:  # the file shrank after its trailer was read
            raise StreamFormatError(
                "truncated record", offset + len(buf) - len(buf) % _RECORD_SIZE)
        tags = np.frombuffer(buf, dtype=TAG_DTYPE)
        if (bad := first_bad_record(tags, last)) is not None:
            raise StreamFormatError(bad[1], offset + bad[0] * _RECORD_SIZE)
        last = tags["time_ps"][-1]
        digest.update(buf)
        offset += len(buf)
        yield tags
    if digest.digest() != want:
        raise StreamFormatError("header and records do not match the trailer's SHA-256", end)


def _with_triggers(grid: PulseGrid, records, chunk_records: int) -> Iterator[np.ndarray]:
    """Tag chunks of ``grid``'s triggers merged into the record chunks of
    :func:`_records`, which has checked them, at most ``chunk_records``
    tags each.  Detection t has locate(t - 1) + 1 triggers ahead of it,
    those strictly earlier: it goes ahead of a trigger at its own time.
    The triggers after the latest detection wait for the next chunk or the
    end."""
    k = 0  # triggers emitted
    for chunk in records:
        before = grid.locate(chunk["time_ps"].astype(np.int64) - 1)[0] + 1
        pos = before + np.arange(chunk.size)  # merged position, less k + i
        i = 0  # detections of this chunk emitted
        while i < chunk.size:
            lo = k + i
            hi = int(np.searchsorted(pos, lo + chunk_records, side="left"))
            n_trig = before[-1] - k if hi == chunk.size else chunk_records - (hi - i)
            out = np.empty(n_trig + hi - i, dtype=TAG_DTYPE)
            slot = pos[i:hi] - lo
            is_trigger = np.ones(out.size, dtype=bool)
            is_trigger[slot] = False
            out["time_ps"][is_trigger] = grid.times(np.arange(k, k + n_trig))
            out["time_ps"][slot] = chunk["time_ps"][i:hi]
            out["channel"] = CH_TRIGGER
            out["channel"][slot] = chunk["channel"][i:hi]
            yield out
            k += n_trig
            i = hi
    while k < grid.pulses:
        out = np.empty(min(chunk_records, grid.pulses - k), dtype=TAG_DTYPE)
        out["channel"] = CH_TRIGGER
        out["time_ps"] = grid.times(np.arange(k, k + out.size))
        yield out
        k += out.size


def iter_read_tags(path, chunk_records: int = 1 << 18, raw: bool = False) -> Iterator[np.ndarray]:
    """Yield the header dict, then tag chunks of at most ``chunk_records``.

    By default the grid's implied triggers are rebuilt and merged in, so
    the file reads back as the full (channel, time_ps) stream: the view the
    benchmark's fingerprints hash, which no program path reads.  With
    ``raw`` the records come as stored, as read-only arrays over the file's
    bytes, and the caller reads the run with :func:`header_run`.  A header
    line over 1 MiB, a header of another version, or in the default view
    one that states no run, a record that breaks the record rule
    (:func:`~timebin.simulate.first_bad_record`), or a trailer that is
    missing or whose record count or SHA-256 disagrees raise
    :class:`StreamFormatError` with a byte offset; the SHA-256 is checked
    after the last chunk.  The default chunk bounds memory: the analyzer
    and the trigger rebuild keep several 8-byte temporaries per record of
    a chunk.
    """
    if chunk_records < 1:
        raise ValueError(f"chunk_records must be at least 1, got {chunk_records}")
    with open(path, "rb") as fh:
        line = fh.readline(_MAX_HEADER_LINE + 1)
        header = _parse_header(line)
        size = os.fstat(fh.fileno()).st_size
        want = _trailer(fh, size, len(line))
        yield header
        records = _records(fh, line, size - _TRAILER_SIZE, want, chunk_records)
        if not raw:
            records = _with_triggers(header_run(header)[1], records, chunk_records)
        yield from records
