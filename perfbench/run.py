"""Benchmark of the timebin CLI chain: simulate -> analyze -> fringe/tomo -> report.

    python3 perfbench/run.py --workload pair_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` every command of the workload's chain runs
as its own ``python3 -m timebin.cli`` process, one after another, and the
chain repeats while it fits in ``--seconds``; the end-to-end metrics are
medians over the chains of the run, and ``setup_s`` the median of several
cold starts.  ``fail_frac`` (failed over attempted operations) and, on
``tomo_chain``, ``tomo_s`` are printed with them.  With ``--trace 1`` the
chain runs three times in this process through ``timebin.cli.main``:
plain to warm up, with spans around each layer's public functions (see
``tracing.py``), and plain again; the per-layer metrics come from the
traced chain and the tracing overhead from the last two.

Every run checks the outputs against closed forms of the configs (see
``workloads.py``), hashes the tag records of every stream read back
through ``timebin.streams.iter_read_tags`` and compares the hashes with
the ones pinned in ``fingerprints.json``.  Work files, span dumps and a
JSON record of each run go to ``perfbench/work/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_STARTS = 5               # cold starts per run behind setup_s
RUN_LIMIT_S = 170.0            # every run ends well inside 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COLD_START = "import timebin.cli as cli; cli.build_parser()"

END_TO_END_UNITS = {
    "chain_s": "s",
    "setup_s": "s",
    "simulate_mtag_per_s": "Mtag/s",
    "analyze_mtag_per_s": "Mtag/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Command:
    kind: str
    start: float
    wall_s: float
    code: int | None
    rss_mb: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback (most recent call last)" not in self.error


class Ledger:
    """Operations attempted and failed: processes and commands, and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.checked = []

    def command(self, cmd: Command) -> None:
        self.attempted += 1
        if not cmd.ok:
            self.failures.append(f"command {cmd.kind} exited {cmd.code}: {cmd.error[-500:]}")

    def checks(self, checks) -> None:
        for c in checks:
            self.attempted += 1
            self.checked.append(f"{c.name}: {'ok' if c.ok else 'FAILED'} {c.detail}")
            if not c.ok:
                self.failures.append(f"check {c.name} failed: {c.detail}")


def host_info(nproc: int) -> dict:
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    return {"nproc": nproc, "cpu_model": model, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "stream_reads": "page cache"}


def cap_blas_threads(nproc: int) -> None:
    """Cap BLAS threads at nproc, here and in every child process."""
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= nproc:
            os.environ[var] = str(nproc)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, env, kind, deadline) -> Command:
    """Run one process to completion and take its own max RSS from wait4."""
    start = time.perf_counter()
    with open(os.devnull, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return Command(kind, start, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                   err.decode(errors="replace"))


def cold_start_s(env, deadline, ledger) -> float:
    cmd = spawn([sys.executable, "-c", COLD_START], env, "setup", deadline)
    ledger.command(cmd)
    return cmd.wall_s


def run_chain_processes(plan, env, deadline) -> list:
    return [spawn([sys.executable, "-m", "timebin.cli", *step.argv], env, step.kind, deadline)
            for step in plan.steps]


def run_chain_inprocess(plan, tracer=None) -> list:
    import timebin.cli

    commands = []
    for step in plan.steps:
        span = tracer.span(f"cli.{step.kind}") if tracer else contextlib.nullcontext()
        err = io.StringIO()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = timebin.cli.main(step.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
        commands.append(Command(step.kind, start, time.perf_counter() - start, code,
                                error=err.getvalue()))
    return commands


def run_checks(plan) -> list:
    from workloads import Check

    try:
        return plan.check()
    except Exception:
        return [Check("checks", False, traceback.format_exc())]


def clear_outputs(work: Path) -> None:
    for path in work.iterdir():
        if path.suffix != ".cfg":
            path.unlink()


def fingerprint(streams_paths) -> tuple:
    """SHA-256 of each stream's records as read back, plus tag counts."""
    import numpy as np
    from timebin import streams
    from timebin.simulate import CH_TRIGGER

    record = np.dtype([("channel", "<u1"), ("time_ps", "<u8")])
    digests, counts = {}, {"tags": 0, "triggers": 0, "detections": 0}
    for path in streams_paths:
        h = hashlib.sha256()
        with contextlib.suppress(OSError, ValueError):
            it = streams.iter_read_tags(path)
            next(it)
            for chunk in it:
                h.update(chunk.astype(record).tobytes())
                triggers = int(np.count_nonzero(chunk["channel"] == CH_TRIGGER))
                counts["tags"] += chunk.size
                counts["triggers"] += triggers
                counts["detections"] += chunk.size - triggers
            digests[Path(path).name] = h.hexdigest()
    return digests, counts


def fingerprint_checks(workload, seed, digests) -> list:
    from workloads import Check

    pinned = json.loads((HERE / "fingerprints.json").read_text()).get(workload, {}).get(str(seed))
    if pinned is None:
        return []
    return [Check(f"fingerprint.{name}", digests.get(name) == want,
                  f"{digests.get(name)} vs pinned {want}") for name, want in pinned.items()]


def manifest_bytes(work: Path) -> int:
    """Summed size of the files that the commands' manifests hash."""
    total = 0
    for path in work.glob("*.manifest.json"):
        for out in json.loads(path.read_text())["outputs"]:
            with contextlib.suppress(OSError):
                total += os.path.getsize(out)
    return total


def chain_metrics(commands, tags) -> dict:
    def wall(kind):
        return sum(c.wall_s for c in commands if c.kind == kind)

    end = commands[-1].start + commands[-1].wall_s
    out = {
        "chain_s": end - commands[0].start,
        "simulate_mtag_per_s": tags / 1e6 / wall("simulate"),
        "analyze_mtag_per_s": tags / 1e6 / wall("analyze"),
        "peak_rss_mb": max(c.rss_mb for c in commands),
    }
    if any(c.kind == "tomo" for c in commands):
        out["tomo_s"] = wall("tomo")
    return out


def measure_untraced(args, plan, work, env, ledger, t_start):
    """Cold starts, then whole chains of processes while they fit in --seconds."""
    deadline = t_start + RUN_LIMIT_S
    setup = [cold_start_s(env, deadline, ledger) for _ in range(SETUP_STARTS)]
    chains, digests, counts = [], None, None
    t0 = time.perf_counter()
    while True:
        clear_outputs(work)
        commands = run_chain_processes(plan, env, deadline)
        for cmd in commands:
            ledger.command(cmd)
        ledger.checks(run_checks(plan))
        if digests is None:
            digests, counts = fingerprint(plan.streams)
            ledger.checks(fingerprint_checks(args.workload, args.seed, digests))
        chains.append(commands)
        longest = max(c[-1].start + c[-1].wall_s - c[0].start for c in chains)
        if time.perf_counter() - t0 + longest > args.seconds:
            break
    per_chain = [chain_metrics(c, counts["tags"]) for c in chains]
    metrics = {k: statistics.median(m[k] for m in per_chain) for k in per_chain[0]}
    metrics["setup_s"] = statistics.median(setup)
    extra = {"chains": len(chains), "setup_starts_s": setup, "digests": digests,
             "per_chain": per_chain}
    return metrics, extra


def measure_traced(args, plan, work, ledger):
    """In-process chains: plain, traced, plain; layers from the traced one.

    The first plain chain warms the process (lazy imports, first calls), so
    the tracing overhead is the traced chain against the second plain one.
    """
    import tracing

    def chain(tracer=None):
        clear_outputs(work)
        t0 = time.perf_counter()
        commands = run_chain_inprocess(plan, tracer)
        elapsed = time.perf_counter() - t0
        with tracer.span("bench.check") if tracer else contextlib.nullcontext():
            checks = run_checks(plan)
        for cmd in commands:
            ledger.command(cmd)
        ledger.checks(checks)
        return elapsed

    warm_s = chain()
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    with tracing.installed(tracer):
        traced_s = chain(tracer)
    hashed = manifest_bytes(work)
    digests, counts = fingerprint(plan.streams)
    ledger.checks(fingerprint_checks(args.workload, args.seed, digests))
    plain_s = chain()

    metrics = tracing.layer_metrics(tracer.spans, hashed, counts)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    extra = {"warm_chain_s": warm_s, "traced_chain_s": traced_s, "plain_chain_s": plain_s,
             "digests": digests, "layer_self_s": tracing.layer_self_times(tracer.spans),
             "spans": str(spans_path)}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "timebin" / "cli.py").is_file():
        print(f"error: no timebin sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    # Before numpy loads, since BLAS reads its thread count once.
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = WORKLOADS[args.workload](work, args.seed)
    ledger = Ledger()
    try:
        if args.trace:
            metrics, extra = measure_traced(args, plan, work, ledger)
        else:
            values, extra = measure_untraced(args, plan, work, child_env(), ledger, t_start)
            metrics = {k: (v, END_TO_END_UNITS.get(k, "s")) for k, v in values.items()}
    finally:
        clear_outputs(work)

    host = host_info(nproc)
    failed = len(ledger.failures)
    fail_frac = failed / ledger.attempted
    report(args, host, metrics, extra, ledger, fail_frac)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "host": host, "metrics": metrics, "fail_frac": fail_frac,
                    "failures": ledger.failures, "checks": ledger.checked, **extra}, indent=1, default=str))
    keep = tuple(END_TO_END_UNITS) if not args.trace else tuple(metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in keep},
    }))
    return 0


def report(args, host, metrics, extra, ledger, fail_frac) -> None:
    print(f"host: {host['nproc']} cpus ({host['cpu_model']}), python {host['python']}, "
          f"numpy {host['numpy']}, scipy {host['scipy']}; BLAS threads <= "
          f"{host['blas_threads']}; commands run one at a time; stream reads hit the page cache")
    mode = "traced in-process chain" if args.trace else f"{extra['chains']} chain(s) of processes"
    print(f"workload {args.workload}, seed {args.seed}: {mode}")
    for name, (value, unit) in metrics.items():
        label = " (page cache)" if name == "streams.read_mb_per_s" else ""
        print(f"  {name:28s} {value:14.6g} {unit}{label}")
    print(f"  {'fail_frac':28s} {fail_frac:14.6g} ratio "
          f"({len(ledger.failures)} of {ledger.attempted} operations failed)")
    if args.trace:
        print("  layer self time (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in extra["layer_self_s"].items()))
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
