"""In-memory spans around the public entry points of each timebin layer.

The wrappers replace module and class attributes that the program looks
up at call time, so no file of the program changes.  Spans are kept in a
list and written out when the run ends; a layer's self time is its spans'
durations minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager

# (layer, owner, attribute, kind): ``owner`` is a module path, optionally
# followed by ``:Class``; ``kind`` is "call" or, for functions returning
# an iterator, "iter", whose every ``next()`` becomes one span.
PATCHES = (
    ("simulate", "timebin.cli", "iter_simulate", "iter"),
    ("simulate", "timebin.cli", "iter_simulate_single_bin", "iter"),
    ("streams", "timebin.streams", "write_tags", "call"),
    ("streams", "timebin.streams", "iter_read_tags", "iter"),
    ("analysis", "timebin.analysis:StreamAnalyzer", "feed", "call"),
    ("analysis", "timebin.analysis:StreamAnalyzer", "result", "call"),
    ("analysis", "timebin.cli", "fit_fringe", "call"),
    ("analysis", "timebin.analysis", "power_series_fit", "call"),
    ("tomography", "timebin.tomography", "bootstrap_errors", "call"),
    ("tomography", "timebin.tomography", "mle_reconstruct", "call"),
    ("tomography", "timebin.tomography", "linear_inversion", "call"),
    ("quantum", "timebin.quantum", "concurrence", "call"),
    ("quantum", "timebin.quantum", "fidelity_to_pure", "call"),
    ("quantum", "timebin.quantum", "chsh_bounds", "call"),
)

LAYERS = ("cli", "simulate", "streams", "analysis", "tomography", "quantum")

# Index of the fields of one span record.
NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [{"name": s[NAME], "start": s[START], "end": s[END],
                                  "parent": s[PARENT], "run_id": self.run_id, **s[ATTRS]}
                                 for s in self.spans]}, fh)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _attrs(name, args, out, rec):
    """Counts recorded at the span's boundary, from its arguments and result."""
    attrs = rec[ATTRS]
    if name == "streams.write_tags":
        attrs["bytes"] = os.path.getsize(args[0])
    elif name == "analysis.feed":
        attrs["tags"] = int(args[1].size)
    elif name == "analysis.result":
        attrs["gated"] = int(out.gated_signal.sum() + out.gated_idler.sum())
        attrs["dropped_pre_trigger"] = int(out.dropped_pre_trigger)
    elif name == "tomography.mle_reconstruct":
        attrs["iterations"] = int(out.iterations)
        attrs["converged"] = bool(out.converged)
    elif name == "tomography.bootstrap_errors":
        attrs["replicas"] = int(out.n_replicas)


def _wrap_call(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        _attrs(name, args, out, rec)
        return out
    return wrapper


def _wrap_iter(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = {"bytes": os.path.getsize(args[0])} if name == "streams.iter_read_tags" else {}
        return _spanned(tracer, name, fn(*args, **kwargs), attrs)
    return wrapper


def _spanned(tracer, name, iterator, first_attrs):
    """Yield from ``iterator``, one span per ``next()``; the first carries ``first_attrs``."""
    it = iter(iterator)
    while True:
        with tracer.span(name) as rec:
            rec[ATTRS].update(first_attrs)
            first_attrs = {}
            try:
                item = next(it)
            except StopIteration:
                return
        yield item


@contextmanager
def installed(tracer: Tracer):
    """Wrap every name in PATCHES for the duration of the block."""
    saved = []
    try:
        for layer, owner_path, attr, kind in PATCHES:
            owner = _owner(owner_path)
            original = owner.__dict__[attr]
            wrap = _wrap_iter if kind == "iter" else _wrap_call
            setattr(owner, attr, wrap(tracer, f"{layer}.{attr}", original))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, manifest_bytes: int, stream_counts: dict) -> dict:
    """Per-layer metrics of one traced chain.

    ``stream_counts`` holds the tag, trigger and detection counts of the
    chain's streams as read back after the chain; ``manifest_bytes`` the
    summed size of the files the commands' manifests hash.
    """
    own = self_times(spans)
    by = {}
    for s, t in zip(spans, own):
        by.setdefault(s[NAME], []).append((s, t))

    def total(name):
        return sum(s[END] - s[START] for s, _ in by.get(name, ()))

    def attr_sum(name, key):
        return sum(s[ATTRS].get(key, 0) for s, _ in by.get(name, ()))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    tags = stream_counts["tags"]
    detections = stream_counts["detections"]
    sim_busy = total("simulate.iter_simulate") + total("simulate.iter_simulate_single_bin")
    write_s = sum(t for _, t in by.get("streams.write_tags", ()))
    read_s = total("streams.iter_read_tags")
    written = attr_sum("streams.write_tags", "bytes")
    read = attr_sum("streams.iter_read_tags", "bytes")
    feed_s = total("analysis.feed")
    gated = attr_sum("analysis.result", "gated")
    dropped = attr_sum("analysis.result", "dropped_pre_trigger")
    fits = by.get("tomography.mle_reconstruct", ())
    fit_ms = sorted(1e3 * (s[END] - s[START]) for s, _ in fits)
    linv_ms = sorted(1e3 * (s[END] - s[START]) for s, _ in by.get("tomography.linear_inversion", ()))
    boot_s = total("tomography.bootstrap_errors")
    quantum = [item for name, items in by.items() if name.startswith("quantum.") for item in items]
    cli = [item for name, items in by.items() if name.startswith("cli.") for item in items]
    return {
        "simulate.busy_s": (sim_busy, "s"),
        "simulate.mtag_per_s": (rate(tags / 1e6, sim_busy), "Mtag/s"),
        "simulate.tags": (tags, "count"),
        "simulate.trigger_frac": (rate(stream_counts["triggers"], tags), "ratio"),
        "streams.write_s": (write_s, "s"),
        "streams.write_mb_per_s": (rate(written / 1e6, write_s), "MB/s"),
        "streams.read_s": (read_s, "s"),
        "streams.read_mb_per_s": (rate(read / 1e6, read_s), "MB/s"),
        "streams.bytes": (written, "count"),
        "analysis.feed_s": (feed_s, "s"),
        "analysis.feed_mtag_per_s": (rate(attr_sum("analysis.feed", "tags") / 1e6, feed_s), "Mtag/s"),
        "analysis.result_s": (total("analysis.result"), "s"),
        "analysis.gated_events": (gated, "count"),
        "analysis.gated_frac": (rate(gated, detections), "ratio"),
        "analysis.unaccounted": (detections - gated - dropped, "count"),
        "analysis.fit_s": (total("analysis.fit_fringe") + total("analysis.power_series_fit"), "s"),
        "tomography.fits": (len(fits), "count"),
        "tomography.unconverged": (sum(not s[ATTRS]["converged"] for s, _ in fits), "count"),
        "tomography.mle_iters": (attr_sum("tomography.mle_reconstruct", "iterations"), "count"),
        "tomography.fit_ms_p50": (_pct(fit_ms, 50), "ms"),
        "tomography.fit_ms_p95": (_pct(fit_ms, 95), "ms"),
        "tomography.linv_ms_p50": (_pct(linv_ms, 50), "ms"),
        "tomography.bootstrap_s": (boot_s, "s"),
        "tomography.replicas_per_s": (rate(attr_sum("tomography.bootstrap_errors", "replicas"), boot_s), "1/s"),
        "quantum.calls": (len(quantum), "count"),
        "quantum.busy_s": (sum(s[END] - s[START] for s, _ in quantum), "s"),
        "cli.self_s": (sum(t for _, t in cli), "s"),
        "cli.hashed_mb": (manifest_bytes / 1e6, "MB"),
        "cli.commands": (len(cli), "count"),
    }


def layer_self_times(spans) -> dict:
    """Summed self time per layer, for the printed breakdown."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        if layer in out:
            out[layer] += t
    return out
