import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_stream_processing_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "stream_processing.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "chunked fold matches the single pass exactly" in out
    assert "delay histogram" in out
