import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_stream_processing_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "stream_processing.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "chunked fold matches the single pass exactly" in out
    assert "delay histogram" in out


@pytest.mark.parametrize("demo, last_line", [
    ("fringe_visibility.py", "visibility ceiling (CAR-1)/(CAR+1)"),
    ("state_tomography.py", "kept,"),
])
def test_demo_runs_to_its_last_line(capsys, demo, last_line):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert last_line in capsys.readouterr().out.splitlines()[-1]
