"""Every output byte of a short run of each benchmark chain, pinned.

Three chains run through ``timebin.cli.main`` in a temporary directory,
with relative paths:

- a 5-point single-bin pump-power sweep, each point analyzed, then
  ``report``;
- the four tomography dial settings, analyzed, then ``tomo --replicas 20``;
- a 6-phase fringe scan at mu = 0.3, analyzed, then ``fringe``.

The SHA-256 of every output (tag files, JSON documents, CSV sidecars)
must equal its pin in ``golden_outputs.json``.  A manifest is pinned
as written, key order and layout included, less its ``wall_clock_s``.
Every stream spans two pulse blocks, so the carry between blocks is
pinned too.

Each tag file has a second pin, ``<name>.tags:records``, over its
records alone: the bytes between the header line and the trailer.  A
change to the header (its format version or config echo) moves the
file's pin and keeps this one; a moved ``:records`` pin means the
streams changed.

A change that means to move bytes rewrites the pins with

    PYTHONPATH=src python tests/test_golden_outputs.py

and lists each changed file in ``CHANGES.md``.
"""

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import pytest

# The tomo bytes depend on BLAS rounding; as in conftest.py, one thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from timebin.cli import main  # noqa: E402

PINS = Path(__file__).with_name("golden_outputs.json")
REP_RATE_HZ = 76.2e6
TRAILER_SIZE = 48  # magic, record count, SHA-256


def _config(name, **values):
    path = f"{name}.cfg"
    Path(path).write_text("".join(f"{k} = {v!r}\n" for k, v in
                                  {"rep_rate_hz": REP_RATE_HZ, **values}.items()))
    return path


def _run(*argv):
    code = main(list(argv))
    if code != 0:
        raise AssertionError(f"timebin {' '.join(argv)} exited {code}")


def _simulate_and_analyze(name, mode, **values):
    cfg = _config(name, **values)
    _run("simulate", "--config", cfg, "--out", f"{name}.tags", "--mode", mode)
    _run("analyze", "--in", f"{name}.tags", "--out", f"{name}.json")
    return f"{name}.json"


def run_chains():
    """Run the three chains in the current directory."""
    reports = []
    for k in range(5):
        mu = 0.002 * 10 ** (k / 4)
        reports.append(_simulate_and_analyze(
            f"sweep{k}", "single-bin", duration_s=0.015, mean_pairs_per_pulse=mu,
            pair_yield_per_watt=0.1, pump_power_w=mu / 0.1, eta_signal=0.5,
            eta_idler=0.45, dark_rate_signal_hz=360.0, dark_rate_idler_hz=390.0,
            rng_seed=k))
    _run("report", *reports, "--out", "sweep_summary.json")

    settings = []
    for k, (dial_s, dial_i) in enumerate(((0, 0), (0, 90), (90, 0), (90, 90))):
        rep = _simulate_and_analyze(
            f"tomo{k}", "time-bin", duration_s=0.015, mean_pairs_per_pulse=0.02,
            interference_visibility=0.95, phi_s_rad=math.pi + math.radians(dial_s),
            phi_i_rad=math.radians(dial_i), rng_seed=10 + k)
        settings.append(f"{dial_s},{dial_i}:{rep}")
    _run("tomo", *settings, "--out", "tomo.json", "--replicas", "20", "--seed", "3")

    points = []
    for k in range(6):
        phase = 2 * math.pi * k / 6
        rep = _simulate_and_analyze(
            f"fringe{k}", "time-bin", duration_s=0.015, mean_pairs_per_pulse=0.3,
            interference_visibility=0.95, phi_s_rad=phase, rng_seed=20 + k)
        points.append(f"{phase!r}:{rep}")
    _run("fringe", *points, "--out", "fringe.json")


def output_digests(directory: Path) -> dict:
    """SHA-256 of every file in ``directory`` but the configs; a manifest
    is hashed as its JSON without ``wall_clock_s``, and a tag file's
    records, the bytes between its header line and its trailer, are
    hashed once more on their own under ``<name>.tags:records``."""
    digests = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".cfg":
            continue
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            # Re-dumped as the CLI dumps it, in the order it was written, so
            # the pin covers every byte but the wall-clock value.
            manifest = json.loads(data)
            assert json.dumps(manifest, indent=2).encode() == data, path.name
            del manifest["wall_clock_s"]
            data = json.dumps(manifest, indent=2).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".tags":
            records = data[data.index(b"\n") + 1:-TRAILER_SIZE]
            digests[f"{path.name}:records"] = hashlib.sha256(records).hexdigest()
    return digests


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("chains")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        run_chains()
    finally:
        os.chdir(cwd)
    return work


def test_chain_outputs_match_golden_pins(chain_dir):
    got = output_digests(chain_dir)
    want = json.loads(PINS.read_text())
    assert got.keys() == want.keys()
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"outputs differ from their golden pins: {changed}"


def test_manifest_digests_are_those_of_the_files(chain_dir):
    # Each command takes its outputs' SHA-256 as it writes them; the oracle
    # reads every file back.  10 sweep, 9 tomography and 13 fringe manifests.
    manifests = sorted(chain_dir.glob("*.manifest.json"))
    assert len(manifests) == 32
    for manifest in manifests:
        outputs = json.loads(manifest.read_text())["outputs"]
        assert outputs, manifest.name
        for name, digest in outputs.items():
            assert digest == hashlib.sha256((chain_dir / name).read_bytes()).hexdigest(), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        run_chains()
        pins = output_digests(Path(work))
        os.chdir(Path(__file__).resolve().parent)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} outputs in {PINS}", file=sys.stderr)
