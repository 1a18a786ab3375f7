"""The benchmark's tracer wraps program attributes by name; a rename in the
program must fail here, not only in ``perfbench/run.py --trace 1``."""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module, compiled from its text so that
    nothing (not even a bytecode cache) is written next to it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer, owner_path, attr, kind", tracing.PATCHES,
                         ids=[f"{p[1]}.{p[2]}" for p in tracing.PATCHES])
def test_traced_attribute_exists_on_its_owner(layer, owner_path, attr, kind):
    # ``installed()`` reads ``owner.__dict__[attr]``, so an inherited or
    # re-exported name elsewhere does not count.
    owner = tracing._owner(owner_path)
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])
    assert layer in tracing.LAYERS and kind in ("call", "iter")
