"""Write, read and fold over a binary time-tag stream.

Simulates a run, stores it in the tag file format (JSON header line plus
fixed-size binary records), then processes it back in bounded chunks.
The analysis is an exact fold: chunked processing gives byte-identical
results to a single pass, so arbitrarily long streams fit in memory.

Run with:  python demos/stream_processing.py
"""

import tempfile
from pathlib import Path

import numpy as np

from timebin.analysis import GateConfig, StreamAnalyzer, analyze_stream
from timebin.simulate import ExperimentConfig, iter_simulate, simulate
from timebin.streams import iter_read_tags, read_header, write_tags

cfg = ExperimentConfig(duration=0.02, mean_pairs_per_pulse=0.02,
                       dark_rate_signal=360.0, dark_rate_idler=390.0,
                       phi_s=np.pi, rng_seed=3)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "run.tags"
    n = write_tags(path, iter_simulate(cfg), config_echo=cfg.to_dict())
    size_mb = path.stat().st_size / 1e6
    print(f"wrote {n} tags ({size_mb:.1f} MB) to {path.name}")
    print(f"header echo: seed {read_header(path)['config']['rng_seed']}, "
          f"duration {read_header(path)['config']['duration']} s")

    # fold over the file in small chunks
    gates = GateConfig.time_bin(cfg)
    analyzer = StreamAnalyzer(gates)
    chunks = iter_read_tags(path, chunk_records=100_000)
    next(chunks)  # header
    n_chunks = 0
    for chunk in chunks:
        analyzer.feed(chunk)
        n_chunks += 1
    result = analyzer.result()
    print(f"\nprocessed {n_chunks} chunks")

    # identical to the whole-array pass
    whole = analyze_stream(simulate(cfg), gates)
    assert np.array_equal(result.joint, whole.joint)
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
