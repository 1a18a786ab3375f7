"""Write, read and fold over a binary time-tag stream.

Simulates a run and stores it in the tag file format 2: a JSON header
line that carries the pump's trigger grid, the detection records only,
and a trailer with the record count and SHA-256.  The file is then
processed back in bounded chunks, each detection assigned to its pulse
by arithmetic.  The analysis is an exact fold: chunked processing of the
detections gives byte-identical results to a single pass over the full
stream with every trigger materialized as a tag.

Run with:  python demos/stream_processing.py
"""

import tempfile
from pathlib import Path

import numpy as np

from timebin.analysis import GateConfig, StreamAnalyzer, analyze_stream
from timebin.simulate import TAG_DTYPE, ExperimentConfig, PulseGrid, iter_simulate, simulate
from timebin.streams import header_grid, iter_read_tags, read_header, write_tags

cfg = ExperimentConfig(duration=0.02, mean_pairs_per_pulse=0.02,
                       dark_rate_signal=360.0, dark_rate_idler=390.0,
                       phi_s=np.pi, rng_seed=3)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "run.tags"
    n = write_tags(path, iter_simulate(cfg), config_echo=cfg.to_dict(),
                   grid=PulseGrid.of(cfg))
    size_mb = path.stat().st_size / 1e6
    print(f"wrote {n} tags to {path.name}: {size_mb:.2f} MB on disk, "
          f"{n * TAG_DTYPE.itemsize / 1e6:.1f} MB as materialized records")
    header = read_header(path)
    print(f"header echo: seed {header['config']['rng_seed']}, "
          f"duration {header['config']['duration']} s, "
          f"grid {header['grid']['pulses']} pulses every "
          f"{header['grid']['period_ps']:.2f} ps")

    # fold over the file's detections in small chunks
    gates = GateConfig.time_bin(cfg)
    chunks = iter_read_tags(path, chunk_records=2_000, raw=True)
    analyzer = StreamAnalyzer(gates, grid=header_grid(next(chunks)))
    n_chunks = 0
    for chunk in chunks:
        analyzer.feed(chunk)
        n_chunks += 1
    result = analyzer.result()
    print(f"\nprocessed {n_chunks} chunks of detections")

    # identical to the whole-array pass over explicit trigger tags
    whole = analyze_stream(simulate(cfg), gates)
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
