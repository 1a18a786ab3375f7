"""Write, read and fold over a binary time-tag stream.

Simulates a run and stores it in the tag file format 5: a JSON header
line that carries the run's config echo, from which the reader rebuilds
the pump's trigger grid, the detection records only,
and a trailer with the record count and the SHA-256 of every byte before
it.  The header is the first item the reader yields; the file is then
processed back in bounded chunks, each detection assigned to its pulse
by arithmetic.  The analysis is an exact fold: chunked processing of the
file gives byte-identical results to a single pass over the simulated
detections in memory.

Run with:  python demos/stream_processing.py
"""

import tempfile
from pathlib import Path

import numpy as np

from timebin.analysis import GateConfig, StreamAnalyzer, analyze_stream
from timebin.simulate import TAG_DTYPE, ExperimentConfig, PulseGrid, iter_simulate
from timebin.streams import header_run, iter_read_tags, write_tags

cfg = ExperimentConfig(duration_s=0.02, mean_pairs_per_pulse=0.02,
                       dark_rate_signal_hz=360.0, dark_rate_idler_hz=390.0,
                       phi_s_rad=np.pi, rng_seed=3)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "run.tags"
    n, _ = write_tags(path, iter_simulate(cfg), cfg.to_dict())
    size_mb = path.stat().st_size / 1e6
    print(f"wrote {n} tags to {path.name}: {size_mb:.2f} MB on disk, "
          f"{n * TAG_DTYPE.itemsize / 1e6:.1f} MB as materialized records")
    chunks = iter_read_tags(path, chunk_records=2_000, raw=True)
    run, grid, mode = header_run(next(chunks))
    print(f"header echo: {mode}, seed {run.rng_seed}, duration {run.duration_s} s, "
          f"grid {grid.pulses} pulses every {grid.period_ps:.2f} ps")

    # fold over the file's detections in small chunks
    gates = GateConfig.time_bin(cfg)
    analyzer = StreamAnalyzer(gates, grid=grid)
    n_chunks = 0
    for chunk in chunks:
        analyzer.feed(chunk)
        n_chunks += 1
    result = analyzer.result()
    print(f"\nprocessed {n_chunks} chunks of detections")

    # identical to the pass over the simulated detections in memory
    whole = analyze_stream(iter_simulate(cfg), gates, grid=PulseGrid.of(cfg))
    assert np.array_equal(result.joint, whole.joint)
    assert result.duration == whole.duration
    print("chunked fold matches the single pass exactly")

print("\njoint slot table (signal slot x idler slot):")
for row in result.joint:
    print("   " + " ".join(f"{int(v):6d}" for v in row))
print("\ndelay histogram (idler slot - signal slot):")
delays = result.delay_counts
for d, c in sorted(delays.items()):
    print(f"  {d:+d}: {c:6d}  " + "#" * int(40 * c / max(delays.values())))
rates = result.rate_report()
print(f"\ngated singles {rates.singles_signal.value:.0f} / "
      f"{rates.singles_idler.value:.0f} per s, "
      f"coincidences {rates.coincidence_rate.value:.0f} per s")
