"""Command-line front end: simulate -> analyze -> fringe/tomo -> report.

Run configs are flat ``key = value`` text files keyed by the field names
of ``ExperimentConfig``, units included (``rep_rate_hz``, ...).  Every
command except ``report`` writes a manifest next to its outputs with a
config echo, RNG seeds and content checksums, so each figure is
reproducible from its JSON alone.

Exit codes: 0 success, 2 usage or config error, an ``--out`` that
cannot be written or an output that is one of the command's inputs, 3
data error, 4 numerical non-convergence; an error's message goes to
standard error.
The ``timebin`` script and ``python -m timebin.cli`` exit through ``run``,
which freezes the garbage collector before ``sys.exit``: the final
collection would only free objects that the OS reclaims anyway.

``run`` also sets ``OPENBLAS_THREAD_TIMEOUT`` to 4 (2^4 cycles, the least
OpenBLAS takes) unless it is set, before any handler imports numpy.  With
more than one BLAS thread, OpenBLAS's idle workers otherwise spin for
about 0.1 s after numpy loads, most of a command, and the command's own
thread runs slower beside them.  On a 2-vCPU host with
``OPENBLAS_NUM_THREADS=2``, cold commands on a fringe-scan phase (0.05 s
at 0.3 pairs a pulse) took, without and with this timeout: ``analyze``
262.0 and 195.6 ms, ``simulate`` 292.4 and 228.9 ms, and a ``tomo`` of
four 0.2 s settings 340.1 and 261.8 ms (medians of 20 alternating
rounds, CPU time close to wall time in each).  A value the user set is
kept.

``run`` also has glibc keep 16 MiB of free memory at the top of its heap
(``mallopt(M_TOP_PAD, 16 MiB)``), where the C library has ``mallopt``.
Without the pad, glibc maps each block of 128 KiB or more afresh and
unmaps it when it is freed, or trims the heap top after it, so every
step of the fold or of the simulator faults its temporaries in again;
with it, such blocks are cut from the kept top.  In a cold ``analyze`` of
a fringe-scan phase (0.05 s at 0.3 pairs a pulse, 1.14 M detections),
``feed`` took 11971 minor page faults without the pad and 1486 with it.
The pad is a fixed setting of the process, as the timeout is; ``main``
sets neither.

Process start-up is most of a short command's wall time, so each command
imports only the modules it runs: ``report`` loads no numpy, ``simulate``
no analysis or tomography.  ``iter_simulate``, ``iter_simulate_single_bin``
and ``fit_fringe`` stay functions of this module that import the real
function on each call and forward to it, and the handlers call them
through this module's globals: the benchmark's tracer
(``perfbench/tracing.py``) wraps them here by name.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time

from . import (DEFAULT_GATE_WIDTH, DEFAULT_HIST_BIN, FORMAT_VERSION, MODES, __version__,
               finite_number, whole_count)

__all__ = ["main", "run", "load_config", "ConfigError", "DataError", "ConvergenceError"]

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NONCONVERGED = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class ConvergenceError(Exception):
    pass


_EXIT_CODES = {ConfigError: EXIT_USAGE, DataError: EXIT_DATA,
               ConvergenceError: EXIT_NONCONVERGED}

_CSV_HEADER = "slot_or_phase,count,error"


def iter_simulate(config):
    """:func:`timebin.simulate.iter_simulate`, imported when called."""
    from . import simulate
    return simulate.iter_simulate(config)


def iter_simulate_single_bin(config):
    """:func:`timebin.simulate.iter_simulate_single_bin`, imported when called."""
    from . import simulate
    return simulate.iter_simulate_single_bin(config)


def fit_fringe(scan):
    """:func:`timebin.analysis.fit_fringe`, imported when called."""
    from . import analysis
    return analysis.fit_fringe(scan)


def load_config(path):
    """Parse a UTF-8 ``key = value`` run config, keyed by the field names,
    into an ``ExperimentConfig``; unknown, repeated or missing keys are fatal."""
    from dataclasses import fields

    from .simulate import ExperimentConfig

    keys = {f.name for f in fields(ExperimentConfig)}
    values, line_of = {}, {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown config field '{key}'")
        if (first := line_of.setdefault(key, lineno)) != lineno:
            raise ConfigError(f"{path}:{lineno}: config field '{key}' repeats line {first}")
        try:
            values[key] = (int if key == "rng_seed" else float)(val.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {exc}") from exc
    for key in ("rep_rate_hz", "duration_s", "mean_pairs_per_pulse"):
        if key not in line_of:
            raise ConfigError(f"{path}: missing required config field '{key}'")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# What each command writes besides --out: suffixes of --out (the tag
# writer's temporary file, the manifest), then CSV sidecars, suffixes of
# --out less its ".json" (see _write_outputs).
_WRITES = {
    "simulate": ((".tmp", ".manifest.json"), ()),
    "analyze": ((".manifest.json",), (".singles_signal.csv", ".singles_idler.csv",
                                      ".delays.csv")),
    "fringe": ((".manifest.json",), (".fringe.csv",)),
    "tomo": ((".manifest.json",), (".rho.csv",)),
    "report": ((), ()),
}


def _same_file(a, b):
    try:
        return os.path.samefile(a, b)
    except OSError:  # one is missing, so they are one file only by name
        return os.path.abspath(a) == os.path.abspath(b)


def _refuse_writing_over(args, inputs):
    """A ConfigError, raised before anything is read, if a file the command
    writes is one of its ``inputs``."""
    beside, sidecars = _WRITES[args.command]
    base = args.out[:-5] if args.out.endswith(".json") else args.out
    for path in (args.out, *(args.out + s for s in beside), *(base + s for s in sidecars)):
        for source in inputs:
            if _same_file(path, source):
                raise ConfigError(f"output {path} would overwrite the input {source}")


def _write_manifest(out_path, config_echo, inputs, outputs, seed, t_start):
    """``outputs`` maps each output path to the SHA-256 it was written with."""
    manifest = {
        "software_version": __version__,
        "format_version": FORMAT_VERSION,
        "config": config_echo,
        "rng_seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": outputs,
        "wall_clock_s": time.monotonic() - t_start,
    }
    with open(str(out_path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _write_outputs(out, document, sidecars, echo, inputs, seed, t_start):
    """Write a command's JSON ``document`` text to ``out``, its CSV sidecars
    and the manifest.  ``sidecars`` maps a suffix, appended to ``out``
    less its ``.json``, to a (header, rows) pair."""
    import hashlib

    base = out[:-5] if out.endswith(".json") else out
    texts = {out: document}
    for suffix, (header, rows) in sidecars.items():
        texts[base + suffix] = "".join(f"{line}\n" for line in
                                       [header, *(",".join(map(str, row)) for row in rows)])
    outputs = {}
    for path, text in texts.items():
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        outputs[path] = hashlib.sha256(data).hexdigest()
    _write_manifest(out, echo, inputs, outputs, seed, t_start)


def _cmd_simulate(args) -> int:
    from . import streams

    t0 = time.monotonic()
    _refuse_writing_over(args, [args.config])
    config = load_config(args.config)
    echo = config.to_dict()
    echo["mode"] = args.mode
    chunks = (iter_simulate if args.mode == "time-bin" else iter_simulate_single_bin)(config)
    n, digest = streams.write_tags(args.out, chunks, echo)
    _write_manifest(args.out, echo, [args.config], {args.out: digest}, config.rng_seed, t0)
    print(f"wrote {n} tags to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    import numpy as np

    from . import analysis, streams
    from .simulate import CH_IDLER, CH_SIGNAL

    t0 = time.monotonic()
    _refuse_writing_over(args, [args.input])
    try:  # before the file is read
        analysis.whole_ps(args.gate_width_s, "--gate-width-s")
        analysis.whole_ps(args.hist_bin_s, "--hist-bin-s")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        it = streams.iter_read_tags(args.input, raw=True)
        header = next(it)
        try:  # a fault of the run's header, then of a flag
            config, grid, mode = streams.header_run(header)
            gates = (analysis.GateConfig.single_bin if mode == "single-bin"
                     else analysis.GateConfig.time_bin)
            analyzer = analysis.StreamAnalyzer(gates(config, args.gate_width_s), args.hist_bin_s,
                                               grid=grid)
        except ValueError as exc:
            for _ in it:  # the trailer's SHA-256 and the record rule speak first
                pass
            if isinstance(exc, streams.StreamFormatError):
                raise
            flag = ("--hist-bin-s" if str(exc).startswith("hist_bin")
                    else f"--gate-width-s {args.gate_width_s!r}")
            raise ConfigError(f"{flag} does not fit the run: {exc}") from exc
        for chunk in it:
            analyzer.feed(chunk)
        result = analyzer.result()
    except OSError as exc:
        raise DataError(f"cannot read tag file {args.input}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{args.input}: {exc}") from exc

    echo = header["config"]
    rates, delays = result.rate_report(), result.delay_counts
    report = {
        "format_version": FORMAT_VERSION,
        "config": echo,
        "rates": rates.to_dict(),
        "car": (analysis.car(rates).to_dict()
                if min(rates.n_signal, rates.n_idler, rates.n_coinc) > 0 else None),
        "joint_slot_counts": result.joint.tolist(),
        "neighbor_joint_counts": result.neighbor_joint.tolist(),
        "gated_slot_counts": {"signal": result.gated_signal.tolist(),
                              "idler": result.gated_idler.tolist()},
        "delay_counts": {str(k): v for k, v in delays.items()},
        "out_of_range": result.out_of_range,
    }
    if rates.n_signal > 0 and rates.n_idler > 0:
        eta_s, eta_i = analysis.klyshko(rates)
        report["klyshko"] = {"signal": eta_s.to_dict(), "idler": eta_i.to_dict()}
    sidecars = {}
    for ch, name in ((CH_SIGNAL, "signal"), (CH_IDLER, "idler")):
        if (h := result.histograms.get(ch)) is not None:
            bins = np.flatnonzero(h)
            sidecars[f".singles_{name}.csv"] = (_CSV_HEADER, [
                (i * result.hist_bin, c, math.sqrt(c))
                for i, c in zip(bins.tolist(), h[bins].tolist())])
    sidecars[".delays.csv"] = (_CSV_HEADER, [
        (d, c, math.sqrt(c)) for d, c in sorted(delays.items())])
    _write_outputs(args.out, json.dumps(report, indent=2), sidecars, echo, [args.input],
                   echo.get("rng_seed"), t0)
    print(f"analyzed {args.input}: {rates.n_coinc} coincidences in {rates.duration:.3g} s")
    return 0


def _load_report(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    # ValueError: not UTF-8 or JSON, or an integer of over 4300 digits.
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc


def _report_field(report, path, *keys):
    """``report[k0][k1]...``; a missing field is a DataError naming the file."""
    value = report
    try:
        for key in keys:
            value = value[key]
    except (KeyError, IndexError, TypeError):
        raise DataError(f"{path}: report has no {'.'.join(keys)}") from None
    return value


def _report_number(report, path, *keys, rule=finite_number):
    try:
        return rule(_report_field(report, path, *keys), ".".join(keys))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _cmd_fringe(args) -> int:
    import numpy as np

    from .analysis import FringeScan

    t0 = time.monotonic()
    specs = [spec_arg.partition(":") for spec_arg in args.points]
    inputs = [path for _, _, path in specs]
    _refuse_writing_over(args, inputs)
    points = []
    for spec_arg, (phase_str, _, path) in zip(args.points, specs):
        if not path:
            raise ConfigError(f"fringe point {spec_arg!r} must look like PHASE_RAD:REPORT.json")
        try:
            phase = finite_number(float(phase_str), "phase")
        except ValueError as exc:
            raise ConfigError(f"bad phase in {spec_arg!r}: {exc}") from exc
        report = _load_report(path)
        counts = _report_number(report, path, "rates", "counts", "central", rule=whole_count)
        duration = _report_number(report, path, "rates", "duration_s")
        if duration <= 0:
            raise DataError(f"{path}: rates.duration_s must be positive, got {duration!r}")
        points.append((phase, counts, duration))
    if len(points) < 5:
        raise ConfigError(f"fringe fit needs at least 5 points, got {len(points)}")
    scan = FringeScan.from_points(points)
    try:
        fit = fit_fringe(scan)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    out = {"fit": fit.to_dict(),
           "points": [{"phase_rad": p, "count": c, "integration_s": t}
                      for p, c, t in points]}
    _write_outputs(args.out, json.dumps(out, indent=2),
                   {".fringe.csv": (_CSV_HEADER, [(p, c, float(np.sqrt(c)))
                                                  for p, c, t in points])},
                   {}, inputs, None, t0)
    print(f"fringe visibility {fit.visibility.value:.4f} +- {fit.visibility.error:.4f}")
    return 0


def _cmd_tomo(args) -> int:
    from . import tomography

    t0 = time.monotonic()
    specs = [spec_arg.partition(":") for spec_arg in args.settings]
    inputs = [path for _, _, path in specs]
    _refuse_writing_over(args, inputs)
    for flag, value, least in (("--replicas", args.replicas, 2), ("--max-iter", args.max_iter, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    setting_counts = {}
    for spec_arg, (dials, _, path) in zip(args.settings, specs):
        try:
            ds, di = (int(x) for x in dials.split(","))
        except ValueError as exc:
            raise ConfigError(f"setting {spec_arg!r} must look like DS,DI:REPORT.json") from exc
        if (ds, di) not in tomography.SETTINGS:
            raise ConfigError(f"setting {spec_arg!r}: dials must be one of "
                              f"{list(tomography.SETTINGS)}")
        if (ds, di) in setting_counts:
            raise ConfigError(f"setting {ds},{di} is given more than once")
        setting_counts[(ds, di)] = _report_field(_load_report(path), path, "joint_slot_counts")
    missing = [s for s in tomography.SETTINGS if s not in setting_counts]
    if missing:
        raise ConfigError(f"missing phase settings {missing}")
    try:
        record = tomography.counts_from_phase_settings(setting_counts)
        result = tomography.bootstrap_errors(record, n_replicas=args.replicas, seed=args.seed,
                                             max_iter=args.max_iter)
    except ValueError as exc:  # e.g. a table entry that is not a count, or no counts at all
        raise DataError(f"reports {', '.join(inputs)}: {exc}") from exc
    rows = [[part, *map(repr, row)]
            for part, m in (("re", result.rho.real), ("im", result.rho.imag))
            for row in m]
    _write_outputs(args.out, result.to_json(), {".rho.csv": ("part,c00,c01,c10,c11", rows)},
                   {}, inputs, args.seed, t0)
    print(f"concurrence {result.concurrence:.4f}, fidelity {result.fidelity:.4f}, "
          f"CHSH [{result.chsh_lower:.3f}, {result.chsh_upper:.3f}]")
    if not result.converged:
        raise ConvergenceError("maximum-likelihood fit did not converge")
    return 0


def _cmd_report(args) -> int:
    _refuse_writing_over(args, args.reports)
    summary = {"reports": [{"path": str(path), "content": _load_report(path)}
                           for path in args.reports]}
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"combined {len(args.reports)} reports into {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timebin", description="time-bin photon-pair simulation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a time-tag stream")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES, default="time-bin")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="histogram and rate analysis of a tag stream")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gate-width-s", type=float, default=DEFAULT_GATE_WIDTH)
    p.add_argument("--hist-bin-s", type=float, default=DEFAULT_HIST_BIN)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fringe", help="sinusoidal visibility fit over analyzed runs")
    p.add_argument("points", nargs="+", metavar="PHASE_RAD:REPORT.json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fringe)

    p = sub.add_parser("tomo", help="maximum-likelihood tomography from four settings")
    p.add_argument("settings", nargs="+", metavar="DS,DI:REPORT.json")
    p.add_argument("--out", required=True)
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=2000)
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("report", help="bundle analysis outputs into one summary")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        except OSError as exc:  # an input's OSError is mapped where it is read
            raise ConfigError(f"cannot write --out {args.out}: {exc}") from exc
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


def _pad_heap():
    """Have glibc keep 16 MiB of free memory at the top of its heap
    (``mallopt(M_TOP_PAD, ...)``); a C library without ``mallopt`` is left
    as it is."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-2, 16 << 20)  # -2 is M_TOP_PAD in glibc's <malloc.h>


def run():
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")  # before numpy is imported
    _pad_heap()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
