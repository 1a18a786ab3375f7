import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# What each demo prints last; a demo without an entry fails, so none goes
# unrun.  A demo checks its own claims, such as stream_processing.py's
# chunked fold, before it prints its last line.
LAST_LINES = {
    "fringe_visibility.py": "visibility ceiling (CAR-1)/(CAR+1)",
    "pair_source_characterization.py": "hence the extrapolation)",
    "state_tomography.py": "kept,",
    "stream_processing.py": "coincidences",
}


@pytest.mark.parametrize("demo, last_line", [(path.name, LAST_LINES.get(path.name))
                                             for path in sorted(DEMOS.glob("*.py"))])
def test_demo_runs_to_its_last_line(capsys, demo, last_line):
    assert last_line is not None, f"add {demo}'s last line to LAST_LINES"
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert last_line in capsys.readouterr().out.splitlines()[-1]
