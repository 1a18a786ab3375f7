"""Cold wall time, CPU time, own peak RSS and minor page faults of one
``timebin`` command, alternating between checkouts.

    python3 scripts/command_cost.py --checkout A --checkout B [--rounds 12] \
        [--cpus 0] -- simulate --config run.cfg --out run.tags

Each round runs the command once from each checkout's ``src/``, as
``python3 -m timebin.cli``, with the checkouts' order alternating from one
round to the next, and reads from ``os.wait4``:

- ``wall_ms``: from spawn to reaped exit;
- ``cpu_ms``: user plus system time of the command, its threads included;
- ``rss_mb``: the command's ``ru_maxrss``;
- ``minflt``: the command's minor page faults, ``ru_minflt``.

A child inherits the high-water mark of the process that starts it, so
this launcher imports nothing but the standard library: a command's
``ru_maxrss`` is then its own.  ``perfbench``'s ``peak_rss_mb`` reads the
benchmark's own mark whenever that is higher, so it cannot show a change
of a few MB.

Before each run the outputs of the command are deleted: ``--out``, its
``.manifest.json``, the writer's ``.tmp`` and the CSV sidecars of every
command.  Overwriting a 10 MB file that was just written can take more
than a whole ``simulate`` on ext4.  ``--cpus`` pins this launcher, and so
every command, to the given cores with ``os.sched_setaffinity``.  The
environment is passed on as it is; the benchmark sets
``OPENBLAS_NUM_THREADS`` to the core count.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDECARS = (".singles_signal.csv", ".singles_idler.csv", ".delays.csv", ".fringe.csv",
            ".rho.csv")


def outputs(argv):
    """Every file the command ``argv`` may write."""
    try:
        out = argv[argv.index("--out") + 1]
    except (ValueError, IndexError):
        raise SystemExit("the command must name its --out") from None
    base = out[:-5] if out.endswith(".json") else out
    return [out, out + ".manifest.json", out + ".tmp", *(base + s for s in SIDECARS)]


def run_once(src, argv):
    for path in outputs(argv):
        if os.path.exists(path):
            os.remove(path)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "timebin.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stderr.close()
    if (code := os.waitstatus_to_exitcode(status)) != 0:
        raise SystemExit(f"{src}: exit {code}: {err.decode(errors='replace')}")
    return {"wall_ms": wall * 1e3, "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1e3,
            "rss_mb": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:8.1f} [{q1:.1f}, {q3:.1f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append", required=True,
                        help="root of a source checkout; give it once per side")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--cpus", type=int, nargs="+", help="cores to pin the commands to")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- then the timebin command and its arguments")
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv or args.rounds < 2:
        parser.error("give a command after -- and at least 2 rounds")
    if args.cpus:
        os.sched_setaffinity(0, args.cpus)
    sources = [str(Path(c).resolve() / "src") for c in args.checkout]
    runs = [[] for _ in sources]
    for k in range(args.rounds):
        order = range(len(sources)) if k % 2 == 0 else reversed(range(len(sources)))
        for side in order:
            runs[side].append(run_once(sources[side], argv))
        print(f"round {k}: " + "  ".join(
            f"{side[-1]['wall_ms']:.1f}/{side[-1]['cpu_ms']:.1f}/{side[-1]['rss_mb']:.1f}"
            f"/{side[-1]['minflt']}"
            for side in runs), flush=True)
    print(f"{args.rounds} rounds; median [quartiles]; cores "
          f"{sorted(os.sched_getaffinity(0))}; wall ms / CPU ms / RSS MB / minor faults per "
          "round above")
    for side, checkout in zip(runs, args.checkout):
        print(f"{checkout}:")
        for key in ("wall_ms", "cpu_ms", "rss_mb", "minflt"):
            print(f"  {key:7} {quartiles([r[key] for r in side])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
