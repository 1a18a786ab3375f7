"""`tomo --replicas 200000` under a 1 GiB address-space limit must exit 0.

    PYTHONPATH=src python scripts/tomo_replicas_under_1gib.py [--replicas N]

Simulates and analyzes the four tomography dial settings of a short run in
a temporary directory, then runs ``timebin tomo`` on them in a child
process whose ``RLIMIT_AS`` is 1 GiB.  ``bootstrap_errors`` fits its
replicas a slice at a time, so its memory does not grow with
``--replicas``; fitted at once, 200 000 replicas asked numpy for 781 MiB in
one array and ended in a MemoryError traceback, exit 1.  At about 1 ms a
replica on one core, the default run takes a few minutes.  Not part of the
test suite for that reason.
"""

import argparse
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 1 << 30
CHILD = ("import resource, sys\n"
         f"resource.setrlimit(resource.RLIMIT_AS, ({LIMIT}, {LIMIT}))\n"
         "from timebin.cli import main\nsys.exit(main(sys.argv[1:]))\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=200_000)
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}

    def timebin(*argv, limited=False):
        head = ["-c", CHILD] if limited else ["-m", "timebin.cli"]
        return subprocess.run([sys.executable, *head, *argv], env=env, text=True,
                              capture_output=True)

    with tempfile.TemporaryDirectory() as tmp:
        settings = []
        for k, (dial_s, dial_i) in enumerate(((0, 0), (0, 90), (90, 0), (90, 90))):
            base = Path(tmp) / f"tomo{k}"
            base.with_suffix(".cfg").write_text(
                "rep_rate_hz = 76200000.0\nduration_s = 0.015\nmean_pairs_per_pulse = 0.02\n"
                f"interference_visibility = 0.95\nphi_s_rad = {math.pi + math.radians(dial_s)!r}\n"
                f"phi_i_rad = {math.radians(dial_i)!r}\nrng_seed = {10 + k}\n")
            for argv in (["simulate", "--config", f"{base}.cfg", "--out", f"{base}.tags"],
                         ["analyze", "--in", f"{base}.tags", "--out", f"{base}.json"]):
                if (done := timebin(*argv)).returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
            settings.append(f"{dial_s},{dial_i}:{base}.json")
        t0 = time.monotonic()
        done = timebin("tomo", *settings, "--out", str(Path(tmp) / "tomo.json"),
                       "--replicas", str(args.replicas), limited=True)
        wall = time.monotonic() - t0
    print(done.stdout + done.stderr, end="")
    print(f"tomo --replicas {args.replicas} under RLIMIT_AS = 1 GiB: exit {done.returncode} "
          f"in {wall:.1f} s ({args.replicas / wall:.0f} replicas/s)")
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
