"""The benchmark's tracer wraps program attributes by name, and its
fingerprints hash the tag stream that ``iter_read_tags`` reads back; a
rename or a change of that view must fail here, not only in
``perfbench/run.py``."""

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from timebin import cli
from timebin.simulate import BLOCK_PULSES, ExperimentConfig, PulseGrid, iter_simulate
from timebin.streams import write_tags

from conftest import VALID_ECHO, merge_triggers
from slot_oracle import setting_tables

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module, compiled from its text so that
    nothing (not even a bytecode cache) is written next to it.  It is in
    ``sys.modules`` while it runs, where ``dataclass`` looks it up."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    with mock.patch.dict(sys.modules, {module.__name__: module}):
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


tracing = load_perfbench("tracing")


@pytest.mark.parametrize("layer, owner_path, attr, kind", tracing.PATCHES,
                         ids=[f"{p[1]}.{p[2]}" for p in tracing.PATCHES])
def test_traced_attribute_exists_on_its_owner(layer, owner_path, attr, kind):
    # ``installed()`` reads ``owner.__dict__[attr]``, so an inherited or
    # re-exported name elsewhere does not count.
    owner = tracing._owner(owner_path)
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])
    assert layer in tracing.LAYERS and kind in ("call", "iter")


def test_traced_chain_sees_every_layer_it_calls(tmp_path):
    # The tracer sees only calls the program makes through the patched
    # names at call time, e.g. ``tomography`` reaching ``quantum.concurrence``
    # through the module.  A sub-millisecond single-bin simulate -> analyze
    # and a tomo on four synthetic reports, run in-process under the tracer.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rep_rate_hz = 76.2e6\nduration_s = 0.0005\n"
                   "mean_pairs_per_pulse = 0.01\nrng_seed = 3\n")
    settings = []
    for (ds, di), joint in setting_tables(1e4).items():
        report = tmp_path / f"t{ds}_{di}.json"
        report.write_text(json.dumps({"config": VALID_ECHO, "joint_slot_counts": joint.tolist()}))
        settings.append(f"{ds},{di}:{report}")
    tags, out = str(tmp_path / "run.tags"), str(tmp_path / "run.json")
    chain = (["simulate", "--config", str(cfg), "--out", tags, "--mode", "single-bin"],
             ["analyze", "--in", tags, "--out", out],
             ["tomo", *settings, "--out", str(tmp_path / "tomo.json"), "--replicas", "3"])
    tracer = tracing.Tracer("tier1")
    with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in chain]
    assert codes == [0, 0, 0]
    names = [s[tracing.NAME] for s in tracer.spans]
    for name in ("simulate.iter_simulate_single_bin", "streams.write_tags",
                 "streams.iter_read_tags", "analysis.feed", "analysis.result",
                 "tomography.bootstrap_errors", "tomography.mle_reconstruct",
                 "tomography.linear_inversion", "quantum.concurrence",
                 "quantum.fidelity_to_pure", "quantum.chsh_bounds"):
        assert name in names, name
    # once for the point estimate and once for the bootstrap stack
    assert names.count("quantum.concurrence") == 2


def test_fingerprint_hashes_the_stream_with_its_triggers(tmp_path):
    # The pinned fingerprints are SHA-256s of the default read-back view:
    # the detections with the grid's triggers merged in as tags.
    cfg = ExperimentConfig(duration_s=1.5 * BLOCK_PULSES / 76.2e6, mean_pairs_per_pulse=0.01,
                           dark_rate_signal_hz=1e4, dark_rate_idler_hz=1e4, rng_seed=4)
    grid = PulseGrid.of(cfg)
    assert grid.pulses > BLOCK_PULSES
    path = tmp_path / "run.tags"
    write_tags(path, iter_simulate(cfg), cfg.to_dict())
    stored = int.from_bytes(path.read_bytes()[-40:-32], "little")  # the trailer's count
    want = hashlib.sha256(merge_triggers(np.concatenate(list(iter_simulate(cfg))),
                                         grid.pulses, grid.period_ps).tobytes())
    digests, counts = load_perfbench("run").fingerprint([str(path)])
    assert digests == {"run.tags": want.hexdigest()}
    assert counts["triggers"] == grid.pulses
    assert counts["detections"] == stored > 0
    assert counts["tags"] == grid.pulses + stored
