import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import timebin
from timebin import cli
from timebin.cli import main
from timebin.simulate import CH_SIGNAL, CH_IDLER, CH_TRIGGER, TAG_DTYPE, ExperimentConfig
from timebin.streams import iter_read_tags

from conftest import DEFAULT_GRID, VALID_ECHO, write_grid_stream

README = Path(__file__).resolve().parents[1] / "README.md"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(path, **overrides):
    values = {
        "rep_rate_hz": 76.2e6,
        "duration_s": 0.002,
        "mean_pairs_per_pulse": 0.05,
        "rng_seed": 7,
    }
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def run_pipeline(tmp_path, name, mode="time-bin", **overrides):
    """simulate + analyze with the given config; returns the report path."""
    cfg = write_config(tmp_path / f"{name}.cfg", **overrides)
    tags = tmp_path / f"{name}.tags"
    report = tmp_path / f"{name}.report.json"
    assert main(["simulate", "--config", str(cfg), "--out", str(tags),
                 "--mode", mode]) == 0
    assert main(["analyze", "--in", str(tags), "--out", str(report)]) == 0
    return report


TRAILER_SIZE = 48

# Runs that give no pulse grid, and the grid's fault.
GRID_FAULTS = pytest.mark.parametrize("run, fault", [
    ({"rep_rate_hz": 2e12}, "grid period 0.5 ps is less than 1"),
    ({"duration_s": 1e-8}, "grid pulse count 1 is not an integer of at least 2"),
], ids=["period-below-1-ps", "one-pulse"])


def no_grid(run, fault):
    """The message of a ``run`` whose pulse grid has ``fault``."""
    return (f"rep_rate_hz = {run['rep_rate_hz']!r} and duration_s = {run['duration_s']!r} "
            f"give no pulse grid: {fault}")

# JSON that the parser refuses past its grammar: nesting deeper than the
# recursion limit, and an integer of more than the 4300 digits int() takes.
HOSTILE_JSON = {
    "nested-100000-deep": "[" * 100_000 + "]" * 100_000,
    "5001-digit-int": '{"format": "timebin-tags", "version": 5, "config": {"duration_s": 1'
                      + "0" * 5000 + "}}",
}

# Hostile JSON values.  The second range of each kind draws more of the
# values that hold.
HOSTILE_INTS = st.integers(-5, 10**30) | st.integers(-5, 10**9)
HOSTILE_FLOATS = st.floats(0.5, 1e300) | st.floats(0.5, 1e9)
HOSTILE_VALUE = st.one_of(HOSTILE_INTS, st.booleans(), HOSTILE_FLOATS,
                          st.sampled_from([math.nan, math.inf, -math.inf]),
                          st.text(max_size=4), st.none())


def analyze_by_hand(echo, **entries):
    """(exit code, standard error, report or None) of ``analyze`` on a
    hand-built file of two detections whose header holds ``echo`` and
    ``entries``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        tags = write_grid_stream(Path(tmp) / "run.tags", [CH_SIGNAL, CH_IDLER], [2000, 2100],
                                 echo, **entries)
        out = Path(tmp) / "r.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", "--in", str(tags), "--out", str(out)])
        report = json.loads(out.read_text()) if code == 0 else None
    return code, err.getvalue(), report


class TestConfig:
    def test_unknown_field_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rep_rate_hz = 1e6\nduration_s = 0.1\n"
                       "mean_pairs_per_pulse = 0.1\nwavelength_nm = 900\n")
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2
        assert "wavelength_nm" in capsys.readouterr().err

    def test_missing_required_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rep_rate_hz = 1e6\nmean_pairs_per_pulse = 0.1\n")
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2
        assert "duration_s" in capsys.readouterr().err

    def test_bad_value_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rep_rate_hz = fast\nduration_s = 0.1\n"
                       "mean_pairs_per_pulse = 0.1\n")
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2
        err = capsys.readouterr().err
        assert "rep_rate_hz" in err and ":1" in err

    def test_out_of_range_value_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", eta_signal=1.5)
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2
        assert "eta_signal" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("duration_s", "inf"), ("rep_rate_hz", "nan"),
                                            ("dark_rate_signal_hz", "nan")])
    def test_value_that_is_not_finite_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "bad.cfg", **{key: value})
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2
        err = capsys.readouterr().err
        assert "must be a finite number" in err and "Traceback" not in err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", rng_seed=-1)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tags")])
        assert code == 2
        assert "rng_seed must be a non-negative integer" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2

    @pytest.mark.parametrize("key, value, message", [
        ("duration_s", "-1", "duration_s must be non-negative"),
        ("dark_rate_idler_hz", "-5", "dark_rate_idler_hz must be non-negative"),
        ("phi_s_rad", "inf", "phi_s_rad must be a finite number"),
        # Unbounded, this jitter ended in write_tags' refusal of a record at
        # 2^63 ps or more, a traceback with exit 1.
        ("jitter_sigma_s", "1e7", "jitter_sigma_s = 10000000.0 puts detections up to 1e+20 ps "
                                  "into the run, 2^53 ps or more"),
    ])
    def test_config_error_names_the_key_written(self, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path / "bad.cfg", **{key: value})
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        # The last value used to win silently.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rep_rate_hz = 76.2e6\nduration_s = 0.0001\n"
                       "mean_pairs_per_pulse = 0.01\n# again\nduration_s = 0.0002\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tags")])
        assert code == 2
        assert f"{cfg}:5: config field 'duration_s' repeats line 2" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# a run\nrep_rate_hz = 76.2e6  # pump\n\n"
                       "duration_s = 0.0001\nmean_pairs_per_pulse = 0.01\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.tags")]) == 0

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        # A Latin-1 e-acute in a comment was a UnicodeDecodeError traceback, exit 1.
        cfg = write_config(tmp_path / "run.cfg")
        cfg.write_bytes(b"# r\xe9glage\n" + cfg.read_bytes())
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tags")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xe9" in err
        assert "Traceback" not in err and list(tmp_path.iterdir()) == [cfg]

    def test_yield_that_disagrees_with_the_pair_rate_is_usage_error(self, tmp_path, capsys):
        # The config states its pair rate once.  This one simulated at
        # yield * power, 0.002 pairs a pulse, and exited 0, while its echo
        # and manifest said 0.5.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.01, mean_pairs_per_pulse=0.5,
                           pair_yield_per_watt=0.1, pump_power_w=0.02)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tags"),
                     "--mode", "single-bin"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: pair_yield_per_watt * pump_power_w = 0.1 * 0.02 disagrees " \
            f"with mean_pairs_per_pulse = 0.5" in err
        assert "Traceback" not in err and list(tmp_path.iterdir()) == [cfg]

    def test_negative_yield_is_usage_error(self, tmp_path, capsys):
        # At zero power and pair rate a yield of -1 agrees with the pair
        # rate, and this config was simulated with exit 0.
        cfg = write_config(tmp_path / "run.cfg", mean_pairs_per_pulse=0, pair_yield_per_watt=-1,
                           pump_power_w=0)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tags")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: pair_yield_per_watt must be non-negative" in err
        assert "Traceback" not in err and list(tmp_path.iterdir()) == [cfg]

    def test_config_with_a_byte_order_mark_is_read(self, tmp_path):
        # An editor's UTF-8 byte-order mark was read into the first key, an
        # unknown field '\ufeffrep_rate_hz' whose first character no
        # terminal shows: exit 2.
        cfg = write_config(tmp_path / "run.cfg")
        plain = cli.load_config(cfg)
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert cli.load_config(cfg) == plain
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tags")]) == 0

    def test_readme_lists_every_config_key(self):
        # A setting has one name: its config key is its field, and the
        # README's table of keys lists the fields in order, with defaults.
        text = README.read_text()
        head = "| key | unit | default | meaning |\n| --- | --- | --- | --- |\n"
        rows = text[text.index(head) + len(head):].split("\n\n", 1)[0].splitlines()
        table = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
        fields = dataclasses.fields(ExperimentConfig)
        assert [key for key, *_ in table] == [f"`{field.name}`" for field in fields]
        for (key, _, default, _), field in zip(table, fields):
            assert (None if default == "none" else float(default)) == field.default, key


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001)
        a, b = tmp_path / "a.tags", tmp_path / "b.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert sha256(a) == sha256(b)

    def test_seed_flag_is_usage_error(self, tmp_path, capsys):
        # The config's rng_seed is the one seed of a run: simulate has no
        # --seed to override it.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001)
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b.tags"),
                  "--seed", "99"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 99" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_manifest_checksums_match(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        manifest = json.loads((tmp_path / "run.tags.manifest.json").read_text())
        assert manifest["outputs"][str(tags)] == sha256(tags)
        assert manifest["rng_seed"] == 7
        assert manifest["config"]["mean_pairs_per_pulse"] == 0.05

    def test_run_shorter_than_two_pulses_is_usage_error(self, tmp_path, capsys):
        # One pulse: the file would hold an echo its own reader refuses.
        cfg = write_config(tmp_path / "run.cfg", duration_s=1e-8)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 2
        err = capsys.readouterr().err
        assert "grid pulse count 1" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_pump_too_fast_for_a_grid_is_usage_error(self, tmp_path, capsys):
        # 9000 s at 1e308 Hz is 9e311 pulses, past the float range; its
        # count was an OverflowError traceback, exit 1.
        cfg = write_config(tmp_path / "run.cfg", rep_rate_hz=1e308, duration_s=9000)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 2
        err = capsys.readouterr().err
        assert "grid period 1e-296 ps is less than 1" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    @GRID_FAULTS
    def test_grid_fault_names_its_keys(self, tmp_path, capsys, run, fault):
        # The grid's message named neither key.
        cfg = write_config(tmp_path / "run.cfg", **run)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tags")]) == 2
        err = capsys.readouterr().err
        stated = {"rep_rate_hz": 76.2e6, "duration_s": 0.002, **run}  # write_config's, or run's
        assert f"error: {cfg}: {no_grid(stated, fault)}" in err
        assert "Traceback" not in err and list(tmp_path.iterdir()) == [cfg]

    def test_run_past_2_to_the_53_ps_is_usage_error(self, tmp_path, capsys):
        # 1e4 pulses of 1 s put the last trigger near 1e16 ps; a slow pump
        # and no darks keep the run small should the config let it through.
        cfg = write_config(tmp_path / "run.cfg", rep_rate_hz=1.0, duration_s=1e4,
                           dark_rate_signal_hz=0.0, dark_rate_idler_hz=0.0)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 2
        err = capsys.readouterr().err
        assert "duration_s = 10000.0 puts detections up to 1e+16 ps into the run, 2^53 ps " \
            "or more" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key, value", [("mean_pairs_per_pulse", "1e9"),
                                            ("dark_rate_signal_hz", "1e15")])
    def test_absurd_rate_is_usage_error(self, tmp_path, capsys, key, value):
        # Unchecked, these ask numpy for 554 TiB and 7.28 TiB of draws.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001, **{key: value})
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 2
        err = capsys.readouterr().err
        assert f"{key} = {float(value)!r}" in err
        assert "more than 2^24" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_single_bin_run_past_118_mhz_is_simulated(self, tmp_path):
        # A single-bin run uses one slot; the config once required
        # detection_delay_s + 2 bin_delay_s + 0.5 ns to fit in a period, in
        # either mode, so any rate above about 118 MHz exited 2.
        report = run_pipeline(tmp_path, "fast", mode="single-bin", rep_rate_hz=150e6,
                              duration_s=0.0005)
        counts = json.loads(report.read_text())["rates"]["counts"]
        assert counts["trigger"] == 75000 and counts["coincidence"] > 0

    def test_chunks_failing_mid_stream_leave_no_file(self, tmp_path, monkeypatch):
        def failing(config):
            yield np.zeros(3, dtype=TAG_DTYPE)
            raise RuntimeError("draw failed")

        monkeypatch.setattr(cli, "iter_simulate", failing)
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        with pytest.raises(RuntimeError, match="draw failed"):
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run.tags")])
        assert list(tmp_path.iterdir()) == [cfg]  # no .tmp, tag file or manifest

    def test_format_flag_is_a_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0001)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg),
                  "--out", str(tmp_path / "run.csv"), "--format", "csv"])
        assert exc.value.code == 2


class TestAnalyze:
    def test_report_contents(self, tmp_path):
        report = run_pipeline(tmp_path, "run")
        data = json.loads(report.read_text())
        assert np.array(data["joint_slot_counts"]).shape == (3, 3)
        assert data["rates"]["counts"]["coincidence"] > 0
        assert data["car"]["value"] > 1
        assert set(data["delay_counts"]) == {"-2", "-1", "0", "1", "2"}
        assert data["klyshko"]["signal"]["value"] > 0
        assert data["out_of_range"] == 0 and "dropped_pre_trigger" not in data

    def test_sidecar_csv_files(self, tmp_path):
        report = run_pipeline(tmp_path, "run")
        base = str(report)[:-5]
        for suffix in (".singles_signal.csv", ".singles_idler.csv", ".delays.csv"):
            lines = Path(base + suffix).read_text().splitlines()
            assert lines[0] == "slot_or_phase,count,error"
            assert len(lines) > 1

    def test_truncated_stream_reports_offset(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        raw = tags.read_bytes()
        tags.write_bytes(raw[:-5])
        code = main(["analyze", "--in", str(tags),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("channel", 7), ("time_ps", 2**63 + 5)],
                             ids=["unknown-channel", "time-past-int64"])
    def test_unrepresentable_tag_reports_offset(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags),
                     "--mode", "single-bin"]) == 0
        it = iter_read_tags(tags, raw=True)
        header = next(it)
        records = np.concatenate(list(it))
        # A later time keeps the stream sorted, so only the value is wrong.
        # The writer refuses such a record, so the file is built by hand.
        k = records.size // 2 if field == "channel" else records.size - 1
        records[field][k] = value
        write_grid_stream(tags, records["channel"], records["time_ps"], header["config"])
        offset = tags.read_bytes().index(b"\n") + 1 + k * TAG_DTYPE.itemsize
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert f"byte offset {offset})" in capsys.readouterr().err

    def test_file_cut_on_a_record_boundary_is_data_error(self, tmp_path, capsys):
        # Without the trailer such a file read back 1000 records short.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001,
                           dark_rate_signal_hz=1e6, dark_rate_idler_hz=1e6)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags),
                     "--mode", "single-bin"]) == 0
        raw = tags.read_bytes()
        header_len = raw.index(b"\n") + 1
        records = (len(raw) - header_len - TRAILER_SIZE) // TAG_DTYPE.itemsize
        keep = header_len + (records - 1000) * TAG_DTYPE.itemsize
        tags.write_bytes(raw[:keep])
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"missing or short trailer (byte offset {keep - TRAILER_SIZE})" in err

    @pytest.mark.parametrize("grid", [
        {"pulses": 1, "period_ps": 13123.36},
        {"pulses": 2.0, "period_ps": 13123.36},
        {"pulses": "7620", "period_ps": 13123.36},
        {"pulses": True, "period_ps": 13123.36},
        {"pulses": 2**53 + 1, "period_ps": 13123.36},
        {"pulses": 7620, "period_ps": 0.0},
        {"pulses": 7620, "period_ps": -13123.36},
        {"pulses": 7620, "period_ps": float("nan")},
        {"pulses": 7620, "period_ps": float("inf")},
        {"pulses": 7620, "period_ps": "13123.36"},
        {"pulses": 2**40, "period_ps": 2.0**30},
        {"pulses": 2, "period_ps": 2.0**63},
        {"pulses": 2, "period_ps": 10**400},
        {"pulses": 4, "period_ps": 0.3},
        {"pulses": 7620},
        [7620, 13123.36],
        {"pulses": 2**53, "period_ps": 1000.0},
    ], ids=["one-pulse", "float-count", "string-count", "bool-count", "count-past-2^53",
            "zero-period", "negative-period", "nan-period", "inf-period", "string-period",
            "last-trigger-past-2^63", "last-trigger-at-2^63", "huge-int-period",
            "sub-ps-period", "no-period", "not-a-dict", "last-trigger-past-2^53"])
    def test_hostile_grid_header_is_data_error(self, tmp_path, capsys, grid):
        # Format 4 states the grid once, in the echo: a grid entry beside
        # it, as format 3 stored, is refused whatever it holds.
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL, CH_IDLER], [2000, 2100],
                                 VALID_ECHO, grid=grid)
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "grid" in err and "(byte offset 0)" in err and "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_json_grid_header_is_refused_or_read(self, data):
        # A header with a grid entry beside its echo ends in a data error at
        # byte offset 0, the echo's own grid and the valid grids the first
        # branch draws more of included; without one, in a report of the
        # echo's pulses.
        entry = st.one_of(HOSTILE_VALUE, st.lists(HOSTILE_VALUE, max_size=2))
        grid = data.draw(st.one_of(
            st.fixed_dictionaries({"pulses": HOSTILE_INTS,
                                   "period_ps": HOSTILE_FLOATS | HOSTILE_INTS}),
            st.fixed_dictionaries({"pulses": entry, "period_ps": entry}),
            st.fixed_dictionaries({}, optional={"pulses": entry, "period_ps": entry,
                                                "extra": entry}),
            entry, st.just(DEFAULT_GRID)))
        entries = data.draw(st.sampled_from([{}, {"grid": grid}]))
        code, err, report = analyze_by_hand(VALID_ECHO, **entries)
        assert "Traceback" not in err
        if entries:
            assert code == 3 and "holds ['grid'] besides its config echo (byte offset 0)" in err
        else:
            assert code == 0 and report["rates"]["counts"]["trigger"] == DEFAULT_GRID["pulses"]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(set(VALID_ECHO) - {"mode"})), HOSTILE_VALUE)
    @example("duration_s", 10**400)
    def test_any_echo_number_is_refused_or_read(self, field, value):
        # One echo field takes a hostile value.  A run the header cannot
        # describe is a data error; gates that do not fit the run name
        # their flag.  10**400 s was an OverflowError traceback.
        code, err, _ = analyze_by_hand({**VALID_ECHO, field: value})
        assert "Traceback" not in err
        if code == 3:
            assert "(byte offset 0)" in err
        elif code == 2:
            assert "error: --gate-width-s " in err or "error: --hist-bin-s " in err
        else:
            assert code == 0

    @pytest.mark.parametrize("field, value, entries, fault", [
        ("rep_rate_hz", 10**30, {}, "grid period 1e-18 ps is less than 1"),
        ("duration_s", True, {}, "duration_s must be a finite number, got True"),
        ("rng_seed", True, {}, "rng_seed must be a finite number, got True"),
        ("duration_s", 10**400, {}, "duration_s must be a finite number, got 1000"),
        ("duration_s", 0.02, {"grid": DEFAULT_GRID},
         "header states no run: it holds ['grid'] besides its config echo"),
    ], ids=["rep-rate-of-no-grid", "bool-duration", "bool-seed", "duration-past-the-floats",
            "grid-not-the-echo's"])
    def test_echo_of_another_run_is_data_error(self, tmp_path, capsys, field, value, entries,
                                               fault):
        # Each gave exit 0 over a format-3 grid entry but the fourth, an
        # OverflowError traceback: a report of a 1e30 Hz run with a 76.2 MHz
        # trigger rate, of a run of True s or seed True, or of 0.02 s
        # counted over the 0.01 s of pulses of its grid entry, which
        # format 4 and later refuse whatever it holds.
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL, CH_IDLER], [2000, 2100],
                                 {**VALID_ECHO, field: value}, **entries)
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert fault in err and "(byte offset 0)" in err
        assert "Traceback" not in err and not out.exists()

    @GRID_FAULTS
    def test_echo_grid_fault_names_its_keys(self, tmp_path, capsys, run, fault):
        echo = {**VALID_ECHO, **run}
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL], [2000], echo)
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"header states no run: {no_grid(echo, fault)} (byte offset 0)" in err
        assert not out.exists()

    @pytest.mark.parametrize("echo, entries", [
        ({**VALID_ECHO, "bin_delay_s": "3e-9"}, {}),
        ({**VALID_ECHO, "duration_s": 0.02}, {"grid": DEFAULT_GRID}),
    ], ids=["echo-fault", "grid-not-the-echo's"])
    def test_header_fault_waits_for_the_records(self, tmp_path, capsys, echo, entries):
        # A fault of the run is raised once the reader is drained, as a
        # flag's is, so a bad record speaks first.  The echo's fault used to
        # be raised before any record was read.
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL, CH_TRIGGER], [2000, 13123],
                                 echo, **entries)
        offset = tags.read_bytes().index(b"\n") + 1 + TAG_DTYPE.itemsize
        assert main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")]) == 3
        assert f"trigger record; the pulse grid holds the triggers (byte offset {offset})" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("line", HOSTILE_JSON.values(), ids=HOSTILE_JSON.keys())
    def test_header_json_past_the_parser_is_data_error(self, tmp_path, capsys, line):
        # The first was a RecursionError traceback, the second exit 3
        # without a byte offset.
        tags = tmp_path / "run.tags"
        tags.write_bytes(line.encode() + b"\n" + bytes(TRAILER_SIZE))
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{tags}: invalid header line: " in err and "(byte offset 0)" in err
        assert not out.exists()

    def test_trigger_record_in_grid_file_is_data_error(self, tmp_path, capsys):
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL, CH_TRIGGER, CH_IDLER],
                                 [2000, 13123, 15123], VALID_ECHO)
        offset = tags.read_bytes().index(b"\n") + 1 + TAG_DTYPE.itemsize
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert f"trigger record; the pulse grid holds the triggers (byte offset {offset})" in \
            capsys.readouterr().err

    def test_largest_grid_is_never_built(self, tmp_path):
        # A 1 ns grid, so the gate sits 500 ps after each trigger.  Its last
        # trigger is at 9007199254732000 ps.  The run's detections reach
        # 7000 ps past its end, so one pulse more would take them to 2^53 ps.
        pulses = 9007199254733
        echo = {**VALID_ECHO, "mode": "single-bin", "detection_delay_s": 5e-10,
                "rep_rate_hz": 1e9, "duration_s": pulses * 1e-9}
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL, CH_IDLER], [3500, 3500],
                                 echo)
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out)]) == 0
        counts = json.loads(out.read_text())["rates"]["counts"]
        assert counts["trigger"] == pulses and counts["coincidence"] == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.tags"
        code = main(["analyze", "--in", str(missing),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--hist-bin-s", "--gate-width-s"])
    @pytest.mark.parametrize("value", ["0", "-1.0", "nan"])
    def test_nonpositive_width_is_usage_error(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json"),
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    def test_gate_width_of_no_whole_ps_is_usage_error(self, tmp_path, capsys):
        # 1e-13 s rounds to 0 whole ps, which would let all three gates
        # through the overlap check.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out),
                     "--gate-width-s", "1e-13"]) == 2
        err = capsys.readouterr().err
        assert "--gate-width-s must lie within 1 and 2^62 ps in whole ps, got 1e-13 s" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e-15", "1e-20"])
    def test_sub_picosecond_hist_bin_is_usage_error(self, tmp_path, capsys, value):
        # 1e-20 s asked numpy for a 5.92 TiB histogram.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001, rng_seed=1)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out),
                     "--hist-bin-s", value]) == 2
        err = capsys.readouterr().err
        assert "--hist-bin-s" in err and "Traceback" not in err
        assert not out.exists()
        assert main(["analyze", "--in", str(tags), "--out", str(out),
                     "--hist-bin-s", "1e-12"]) == 0

    @pytest.mark.parametrize("value, code", [("0.6e-12", 0), ("4.7e6", 2), ("1e300", 2)])
    def test_hist_bin_is_rounded_to_whole_ps(self, tmp_path, capsys, value, code):
        # 0.6 ps rounds to a 1 ps bin; 4.7e6 s is past 2^62 ps, and 1e300 s
        # is inf ps.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out),
                     "--hist-bin-s", value]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "--hist-bin-s must lie within 1 and 2^62 ps" in capsys.readouterr().err

    def test_out_of_order_record_is_data_error(self, tmp_path, capsys):
        # 0x40 in byte 5 of record 10's time moves it about 70 s on, so
        # record 11 comes before it; the SHA-256 check is never reached.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001, rng_seed=1)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        raw = bytearray(tags.read_bytes())
        records_at = raw.index(b"\n") + 1
        raw[records_at + 10 * TAG_DTYPE.itemsize + 1 + 5] = 0x40
        tags.write_bytes(bytes(raw))
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        offset = records_at + 11 * TAG_DTYPE.itemsize
        assert f"before the previous record's (byte offset {offset})" in capsys.readouterr().err

    def test_corrupted_last_time_is_trailer_mismatch(self, tmp_path, capsys):
        # 0x40 in byte 6 of the last record's time moves it about 5 h on and
        # keeps the records in order.  The analyzer used to size a histogram
        # by it ("Unable to allocate 12.8 PiB"); it is now out of the grid's
        # range, so the read reaches the SHA-256 check.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001, rng_seed=1)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        raw = bytearray(tags.read_bytes())
        raw[len(raw) - TRAILER_SIZE - TAG_DTYPE.itemsize + 1 + 6] = 0x40
        tags.write_bytes(bytes(raw))
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "do not match the trailer's SHA-256" in err and "Traceback" not in err

    @pytest.mark.parametrize("echo", [
        [1, 2],
        {**VALID_ECHO, "bogus_field": 1.0},
        {**VALID_ECHO, "bin_delay_s": "3e-9"},
        {**VALID_ECHO, "mode": "triple-bin"},
        {**VALID_ECHO, "mean_pairs_per_pulse": 0.5, "pair_yield_per_watt": 0.1,
         "pump_power_w": 0.02},
    ], ids=["not-a-dict", "unknown-key", "wrong-type", "unknown-mode", "yield-disagrees"])
    def test_bad_config_echo_is_data_error(self, tmp_path, capsys, echo):
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL], [2000], echo)
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(tags) in err and "config" in err and "Traceback" not in err
        assert f"{tags}: header states no run: " in err and "(byte offset 0)" in err

    def test_overlapping_gates_are_usage_error(self, tmp_path, capsys):
        # Default time-bin slots are 3 ns apart; 4 ns gates overlap.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json"),
                     "--gate-width-s", "4e-9"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--gate-width-s" in err and "overlapping" in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides, flags, fault", [
        ({"bin_delay_s": 6e-9}, [], "gate 2 spans 13750 to 14250 ps"),
        ({"detection_delay_s": 0.0}, [], "gate 0 spans -250 to 250 ps"),
        ({"detection_delay_s": 6.5e-9, "jitter_sigma_s": 0.4e-9}, ["--gate-width-s", "2.9e-9"],
         "gate 2 spans 11050 to 13950 ps"),
    ], ids=["late-gate-past-the-next-trigger", "early-gate-before-its-trigger", "wide-gates"])
    def test_gate_outside_its_pulse_is_usage_error(self, tmp_path, capsys, overrides, flags,
                                                   fault):
        # Each run is simulated.  Its gates used to count short without an
        # error: a detection before its trigger, or at or past the next
        # one, belongs to another pulse, where no gate takes it.  The first
        # run's config was refused by a rule on the default gate width.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005, **overrides)
        tags, out = tmp_path / "run.tags", tmp_path / "r.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        assert main(["analyze", "--in", str(tags), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        width = float(flags[1]) if flags else 5e-10
        assert f"error: --gate-width-s {width!r} does not fit the run: {fault} after its " \
            f"trigger, not within 0 and 13121 ps, before the next trigger" in err
        assert "Traceback" not in err and not out.exists()

    def test_echo_past_the_old_period_rule_is_usage_error(self, tmp_path, capsys):
        # The echo is a valid run config whose late gate ends past the next
        # trigger; it used to be refused as no valid run config, exit 3.
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL], [2000],
                                 {**VALID_ECHO, "bin_delay_s": 6e-9})
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--gate-width-s 5e-10 does not fit the run: gate 2 spans 13750 to 14250 ps" in err

    def test_echo_without_bin_delay_is_usage_error(self, tmp_path, capsys):
        # Three time-bin slots at one offset overlap at any gate width.
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL], [2000],
                                 {**VALID_ECHO, "bin_delay_s": 0.0})
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--gate-width-s" in capsys.readouterr().err

    @pytest.mark.parametrize("run", [{"duration_s": 1 / 76.2e6},
                                     {"rep_rate_hz": 1e13, "duration_s": 2e-13}],
                             ids=["one-trigger", "two-at-one-time"])
    def test_stream_without_duration_is_data_error(self, tmp_path, capsys, run):
        # A run of one pulse, or of two 0.1 ps apart, rounds to one picosecond.
        tags = write_grid_stream(tmp_path / "run.tags", [CH_SIGNAL], [2000],
                                 {**VALID_ECHO, **run})
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(tags) in err and "grid" in err

    @pytest.mark.parametrize("version", [1, 2, 3],
                             ids=["format-1", "format-2-without-grid", "format-3-without-grid"])
    def test_file_without_a_pulse_grid_is_data_error(self, tmp_path, capsys, version):
        # Trigger tags in the records: a format 1 file has no trailer; a
        # format 2 one has a trailer over its records, a format 3 one over
        # its header and records, and no grid entry, which format 3 needed.
        tags = np.zeros(3, dtype=TAG_DTYPE)
        tags["channel"] = [CH_TRIGGER, CH_SIGNAL, CH_TRIGGER]
        tags["time_ps"] = [0, 2000, 13123]
        header = {"format": "timebin-tags", "version": version, "config": VALID_ECHO}
        line, records = json.dumps(header).encode() + b"\n", tags.tobytes()
        hashed = {1: b"", 2: records, 3: line + records}[version]
        trailer = (f"TAGSEND{version}".encode() + len(tags).to_bytes(8, "little")
                   + hashlib.sha256(hashed).digest()) if version > 1 else b""
        path = tmp_path / "run.tags"
        path.write_bytes(line + records + trailer)
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"unsupported format version {version} (byte offset 0)" in err
        assert "Traceback" not in err and not out.exists()

    def test_format_2_file_is_data_error(self, tmp_path, capsys):
        # Format 2's trailer held the SHA-256 of the records alone.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        raw = tags.read_bytes()
        line_end = raw.index(b"\n")
        header = {**json.loads(raw[:line_end]), "version": 2}
        records = raw[line_end + 1:-TRAILER_SIZE]
        tags.write_bytes(json.dumps(header).encode() + b"\n" + records + b"TAGSEND2"
                         + raw[-40:-32] + hashlib.sha256(records).digest())
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "unsupported format version 2 (byte offset 0)" in err and not out.exists()

    def test_format_4_file_is_data_error(self, tmp_path, capsys):
        # A format 4 file has the records and trailer of format 5, under an
        # echo that names each setting without its unit: rep_rate for
        # rep_rate_hz.  Read as format 5, that echo would state no run.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        raw = tags.read_bytes()
        line_end = raw.index(b"\n")
        header = json.loads(raw[:line_end])
        echo = {re.sub(r"_(hz|s|w|rad)$", "", key): value
                for key, value in header["config"].items()}
        assert {"rep_rate", "duration", "phi_p", "pump_power"} <= echo.keys()
        line = json.dumps({**header, "version": 4, "config": echo}).encode() + b"\n"
        records = raw[line_end + 1:-TRAILER_SIZE]
        tags.write_bytes(line + records + raw[-TRAILER_SIZE:-32]
                         + hashlib.sha256(line + records).digest())
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "unsupported format version 4 (byte offset 0)" in err and not out.exists()

    @pytest.mark.parametrize("old, new", [
        (b'"duration_s": 0.01', b'"duration_s": 0.06'),
        (b'"interference_visibility": 1.0', b'"interference_visibility": 0.0'),
        (b'"bin_delay_s": 3e-09', b'"bin_delay_s": 4e-09'),
    ], ids=["pulses", "interference-visibility", "bin-delay"])
    def test_edited_header_is_data_error(self, tmp_path, capsys, old, new):
        # Before the trailer's SHA-256 covered the header, each edit gave
        # exit 0: 820 of 1362 coincidences over 0.00606 s when a format-3
        # grid entry's pulse count was edited (the echo's duration now
        # states it), a visibility of 0 copied into the report, or gates
        # moved by 1 ns.
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.01, mean_pairs_per_pulse=0.01,
                           rng_seed=3)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        raw = tags.read_bytes()
        assert old in raw[:raw.index(b"\n")]
        tags.write_bytes(raw.replace(old, new, 1))
        out = tmp_path / "r.json"
        assert main(["analyze", "--in", str(tags), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (f"header and records do not match the trailer's SHA-256 "
                f"(byte offset {len(raw) - TRAILER_SIZE})") in err
        assert not out.exists()

    def test_histogram_past_its_bound_is_usage_error(self, tmp_path):
        # A 100 Hz run: 10 ps bins over its 1e10 ps period once asked numpy
        # for 14.8 GiB.  Under a 1 GiB address-space limit a lost bound
        # fails here instead of swapping.
        cfg = write_config(tmp_path / "run.cfg", rep_rate_hz=100, duration_s=0.5,
                           mean_pairs_per_pulse=0.01, dark_rate_signal_hz=100, rng_seed=3)
        tags, out = tmp_path / "run.tags", tmp_path / "r.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from timebin.cli import main\nsys.exit(main(sys.argv[1:]))\n")
        done = run_python("-c", script, "analyze", "--in", str(tags), "--out", str(out))
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: --hist-bin-s does not fit the run: hist_bin "
                                      "of 10 ps cuts the 10000000000.0 ps period")
        assert "Traceback" not in done.stderr and not out.exists()
        assert main(["analyze", "--in", str(tags), "--out", str(out),
                     "--hist-bin-s", "1e-6"]) == 0

    def test_stream_without_idler_writes_no_idler_singles(self, tmp_path):
        report = run_pipeline(tmp_path, "run", duration_s=0.0005, eta_idler=0.0)
        data = json.loads(report.read_text())
        assert data["rates"]["counts"]["idler"] == 0 and data["car"] is None
        base = str(report)[:-5]
        assert os.path.exists(base + ".singles_signal.csv")
        assert not os.path.exists(base + ".singles_idler.csv")

    def test_not_a_tag_file(self, tmp_path):
        bad = tmp_path / "junk.tags"
        bad.write_bytes(b"\x00\x01\x02 not a stream\n")
        code = main(["analyze", "--in", str(bad),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_single_bin_mode(self, tmp_path):
        report = run_pipeline(tmp_path, "sb", mode="single-bin",
                              duration_s=0.005, mean_pairs_per_pulse=0.01)
        data = json.loads(report.read_text())
        assert np.array(data["joint_slot_counts"]).shape == (1, 1)
        # lossless single-bin: CAR tracks 1/mu
        assert data["car"]["value"] == pytest.approx(100.0, rel=0.2)


class TestFringe:
    def test_scan_recovers_visibility(self, tmp_path):
        points = []
        for k, phase in enumerate(np.linspace(0, 2 * np.pi, 6, endpoint=False)):
            report = run_pipeline(tmp_path, f"f{k}", phi_s_rad=repr(float(phase)),
                                  duration_s=0.002, rng_seed=100 + k)
            points.append(f"{phase}:{report}")
        out = tmp_path / "fringe.json"
        assert main(["fringe", *points, "--out", str(out)]) == 0
        fit = json.loads(out.read_text())["fit"]
        assert fit["visibility"]["value"] > 0.9
        assert (tmp_path / "fringe.fringe.csv").exists()

    def test_too_few_points(self, tmp_path, capsys):
        report = run_pipeline(tmp_path, "one")
        code = main(["fringe", f"0.0:{report}", f"1.0:{report}",
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "5" in capsys.readouterr().err

    def test_malformed_point(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"rates": {"counts": {"central": 5}, "duration_s": 1.0}}))
        missing = tmp_path / "missing.json"
        # Too few points, a span under pi and five points of three distinct
        # phases, each found before the missing report is opened.
        for points in (["zero"], [f"0.0:{missing}", f"1.0:{report}"],
                       [f"0:{missing}", *(f"0.{k}:{report}" for k in range(1, 5))],
                       [f"{phase}:{path}" for phase, path in ((0, missing), (0, report),
                                                              (1.5, report), (3.2, report),
                                                              (3.2, report))]):
            assert main(["fringe", *points, "--out", str(tmp_path / "f.json")]) == 2, points
            assert "cannot read report" not in capsys.readouterr().err

    @pytest.mark.parametrize("phase", ["nan", "inf"])
    def test_phase_that_is_not_finite_is_usage_error(self, tmp_path, capsys, phase):
        report = run_pipeline(tmp_path, "one", duration_s=0.0005)
        points = [f"{k}.0:{report}" for k in range(5)] + [f"{phase}:{report}"]
        code = main(["fringe", *points, "--out", str(tmp_path / "f.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{phase}:{report}" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [
        {"joint_slot_counts": [[1]]},
        {"rates": {"counts": {"central": 5}}},
        {"rates": {"counts": {"central": "many"}, "duration_s": 1.0}},
        [1, 2, 3],
        {"rates": {"counts": {"central": 5}, "duration_s": 0}},
        {"rates": {"counts": {"central": 5}, "duration_s": -1.0}},
        {"rates": {"counts": {"central": 5}, "duration_s": float("inf")}},
        {"rates": {"counts": {"central": 5}, "duration_s": float("nan")}},
        {"rates": {"counts": {"central": float("nan")}, "duration_s": 1.0}},
        {"rates": {"counts": {"central": 10**400}, "duration_s": 1.0}},
        {"rates": {"counts": {"central": -5}, "duration_s": 1.0}},
        {"rates": {"counts": {"central": 2.5}, "duration_s": 1.0}},
        {"rates": {"counts": {"central": 2**60}, "duration_s": 1.0}},
        # A scan with no counts has no visibility; it was fitted as 0 +- 0.
        {"rates": {"counts": {"central": 0}, "duration_s": 1.0}},
    ])
    def test_unusable_report_is_data_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        points = [f"{k}.0:{bad}" for k in range(6)]
        code = main(["fringe", *points, "--out", str(tmp_path / "f.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err
        assert not list(tmp_path.glob("f.*"))

    @pytest.mark.parametrize("duration_s", [1e-160, 1e-310])
    def test_fit_that_cannot_be_finite_is_data_error(self, tmp_path, capsys, duration_s):
        # Rates near 1e163 fit, but their squared residuals, and so the
        # visibility's error, pass the float range; 1e-310 s puts the rates
        # themselves past it.
        points = []
        for k in range(5):
            report = tmp_path / f"r{k}.json"
            report.write_text(json.dumps({"rates": {"counts": {"central": 1000 + 100 * k},
                                                    "duration_s": duration_s}}))
            points.append(f"{1.3 * k}:{report}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fringe", *points, "--out", str(tmp_path / "f.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "fringe fit is not finite" in err and "Traceback" not in err
        assert not list(tmp_path.glob("f.*"))


@pytest.fixture(scope="module")
def setting_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tomo")
    args = []
    for k, (ds, di) in enumerate(((0, 0), (0, 90), (90, 0), (90, 90))):
        phi_s = np.pi + np.deg2rad(ds)
        phi_i = np.deg2rad(di)
        report = run_pipeline(tmp, f"t{k}", phi_s_rad=repr(float(phi_s)),
                              phi_i_rad=repr(float(phi_i)),
                              duration_s=0.08, mean_pairs_per_pulse=0.004,
                              rng_seed=200 + k)
        args.append(f"{ds},{di}:{report}")
    return tmp, args


class TestTomo:
    def test_ideal_pipeline_high_fidelity(self, setting_reports):
        tmp, args = setting_reports
        out = tmp / "tomo.json"
        assert main(["tomo", *args, "--out", str(out), "--replicas", "20"]) == 0
        result = json.loads(out.read_text())
        assert result["fidelity_phi_plus"] > 0.99
        assert result["concurrence"] > 0.98
        assert result["chsh_lower"] > 2.7
        assert result["errors"]["concurrence"]["std"] < 0.05
        assert (tmp / "tomo.rho.csv").exists()

    def test_solver_diagnostics(self, setting_reports):
        tmp, args = setting_reports
        out = tmp / "diag.json"
        assert main(["tomo", *args, "--out", str(out), "--replicas", "20",
                     "--max-iter", "2000"]) == 0
        diag = json.loads(out.read_text())["diagnostics"]
        assert diag["converged"] and diag["n_replicas"] == 20
        assert diag["n_replicas_dropped"] == diag["n_replicas_max_iter"] == 0
        assert 0 <= diag["certificate_nats"] <= 1e-2
        assert -1e-12 < diag["min_eigenvalue"] < 0.25
        assert 1 <= diag["bootstrap_iterations_median"] <= diag["bootstrap_iterations_max"] <= 2000

    def test_missing_setting(self, setting_reports, capsys):
        tmp, args = setting_reports
        code = main(["tomo", *args[:3], "--out", str(tmp / "x.json")])
        assert code == 2
        assert "90" in capsys.readouterr().err

    def test_malformed_setting(self, setting_reports, capsys):
        tmp, args = setting_reports
        report = args[0].partition(":")[2]
        # The last is a bad setting, found before the missing report is opened.
        for first in ([f"diag:{report}"], ["0,0"], ["0,0:"],
                      [f"0,0:{tmp / 'missing.json'}", f"diag:{report}"]):
            code = main(["tomo", *first, *args[1:], "--out", str(tmp / "x.json")])
            assert code == 2, first
            assert "cannot read report" not in capsys.readouterr().err

    def test_single_bin_reports_are_data_error(self, tmp_path, capsys):
        report = run_pipeline(tmp_path, "sb", mode="single-bin", duration_s=0.0005)
        args = [f"{ds},{di}:{report}" for ds, di in ((0, 0), (0, 90), (90, 0), (90, 90))]
        code = main(["tomo", *args, "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(report) in err and "3x3" in err

    @pytest.mark.parametrize("content", [
        {"rates": {}},
        {"joint_slot_counts": [[1, 2, 3], [4, "five", 6], [7, 8, 9]]},
        {"joint_slot_counts": [[1, 2, 3], [4, -5, 6], [7, 8, 9]]},
        {"joint_slot_counts": [[1, 2, 3], [4, 5]]},
        # Each was a traceback: past the float range, and past the 2^53
        # the fit takes counts to.
        {"joint_slot_counts": [[1, 2, 3], [4, 10**400, 6], [7, 8, 9]]},
        {"joint_slot_counts": [[1, 2, 3], [4, 2**60, 6], [7, 8, 9]]},
        # Each was fitted as a count of 1 and 625, and tomo exited 0.
        {"joint_slot_counts": [[1, 2, 3], [4, True, 6], [7, 8, 9]]},
        {"joint_slot_counts": [[1, 2, 3], [4, "625", 6], [7, 8, 9]]},
        # Tables with no config echo to tell their slot geometry by.
        {"joint_slot_counts": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]},
    ])
    def test_unusable_report_is_data_error(self, setting_reports, capsys, content):
        tmp, args = setting_reports
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(content))
        code = main(["tomo", "0,0:" + str(bad), *args[1:],
                     "--out", str(tmp / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def test_counts_summed_past_2_to_the_53_are_data_error(self, setting_reports, capsys):
        # Two slot counts of 2^52 and the runs' own counts pass 2^53 in all,
        # each count within bounds.  This was a traceback.
        tmp, args = setting_reports
        big = tmp / "big.json"
        big.write_text(json.dumps({"joint_slot_counts": [[2**52, 0, 0], [0, 0, 0], [0, 0, 0]]}))
        code = main(["tomo", f"0,0:{big}", f"0,90:{big}", *args[2:],
                     "--out", str(tmp / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"reports {big}, {big}, " in err
        assert "the slot counts add up to " in err and ", past 2^53" in err

    def test_reports_without_counts_are_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"config": VALID_ECHO, "joint_slot_counts": [[0] * 3] * 3}))
        args = [f"{ds},{di}:{empty}" for ds, di in ((0, 0), (0, 90), (90, 0), (90, 90))]
        code = main(["tomo", *args, "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(empty) in err and "no counts" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--replicas", "1"), ("--replicas", "0"),
                                             ("--max-iter", "0"), ("--seed", "-1")])
    def test_bad_solver_flag_is_usage_error(self, setting_reports, capsys, flag, value):
        tmp, args = setting_reports
        code = main(["tomo", *args, "--out", str(tmp / "x.json"), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    def test_unknown_dial_setting(self, setting_reports, capsys):
        tmp, args = setting_reports
        extra = "45,0:" + args[0].partition(":")[2]
        code = main(["tomo", *args, extra, "--out", str(tmp / "x.json")])
        assert code == 2
        assert "45,0" in capsys.readouterr().err

    def test_repeated_setting(self, setting_reports, capsys):
        tmp, args = setting_reports
        code = main(["tomo", *args, args[0], "--out", str(tmp / "x.json")])
        assert code == 2
        assert "more than once" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, setting_reports):
        tmp, args = setting_reports
        code = main(["tomo", *args, "--out", str(tmp / "nc.json"),
                     "--replicas", "2", "--max-iter", "1"])
        assert code == 4

    def test_reports_of_another_slot_geometry_are_data_error(self, setting_reports, capsys):
        # A (0,0) run with its late slot 0.5 ns further on was fitted with
        # the others', and tomo exited 0.
        tmp, args = setting_reports
        other = run_pipeline(tmp, "late", phi_s_rad=repr(np.pi), duration_s=0.08,
                             mean_pairs_per_pulse=0.004, bin_delay_s=3.5e-9, rng_seed=200)
        out = tmp / "geometry.json"
        code = main(["tomo", f"0,0:{other}", *args[1:], "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "differ in bin_delay_s" in err and str(other) in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uncertified_fit_exits_before_any_replica(self, tmp_path, seed):
        # Tables that no state explains: the base fit stops uncertified at
        # 2000 iterations, and 200 replicas would do the same for seconds.
        tables = np.random.default_rng(seed).integers(0, 10**6, (4, 3, 3), endpoint=True)
        args = []
        for (ds, di), table in zip(((0, 0), (0, 90), (90, 0), (90, 90)), tables):
            report = tmp_path / f"{ds}_{di}.json"
            report.write_text(json.dumps({"config": VALID_ECHO,
                                          "joint_slot_counts": table.tolist()}))
            args.append(f"{ds},{di}:{report}")
        out = tmp_path / "tomo.json"
        start = time.perf_counter()
        assert main(["tomo", *args, "--out", str(out)]) == 4
        assert time.perf_counter() - start < 1.0
        result = json.loads(out.read_text())
        diag = result["diagnostics"]
        assert not diag["converged"] and diag["iterations"] == 2000
        assert diag["n_replicas"] == diag["n_replicas_dropped"] == 0
        assert diag["low_precision"] and result["errors"] is None


class TestReport:
    def test_bundles_reports(self, tmp_path):
        r1 = run_pipeline(tmp_path, "a", duration_s=0.0005)
        r2 = run_pipeline(tmp_path, "b", duration_s=0.0005, rng_seed=8)
        out = tmp_path / "summary.json"
        assert main(["report", str(r1), str(r2), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["reports"]) == 2
        assert data["reports"][0]["content"]["rates"]["counts"]["trigger"] > 0

    def test_missing_input(self, tmp_path):
        code = main(["report", str(tmp_path / "ghost.json"),
                     "--out", str(tmp_path / "s.json")])
        assert code == 3


@pytest.mark.parametrize("document", HOSTILE_JSON.values(), ids=HOSTILE_JSON.keys())
@pytest.mark.parametrize("command", ["fringe", "tomo", "report"])
def test_report_json_past_the_parser_is_data_error(tmp_path, capsys, command, document):
    # Each was a traceback: a RecursionError, or a ValueError of the digit limit.
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    inputs = {"fringe": [f"{k}.0:{bad}" for k in range(5)],
              "tomo": [f"{ds},{di}:{bad}" for ds, di in ((0, 0), (0, 90), (90, 0), (90, 90))],
              "report": [str(bad)]}[command]
    out = tmp_path / "out.json"
    assert main([command, *inputs, "--out", str(out)]) == 3
    assert f"cannot read report {bad}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze", "fringe", "tomo", "report"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, command):
    # An --out in a directory that does not exist used to end in a
    # traceback and exit 1.
    report = run_pipeline(tmp_path, "run", duration_s=0.0005)
    inputs = {"simulate": ["--config", str(tmp_path / "run.cfg")],
              "analyze": ["--in", str(tmp_path / "run.tags")],
              "fringe": [f"{k}.0:{report}" for k in range(5)],
              "tomo": [f"{ds},{di}:{report}" for ds, di in ((0, 0), (0, 90), (90, 0), (90, 90))]
              + ["--replicas", "2"],
              "report": [str(report)]}[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    out = tmp_path / "missing" / "out.json"
    assert main([command, *inputs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write --out {out}" in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


# (command, the input's file name, --out): each output is the input, as
# --out itself, the tag writer's .tmp, the manifest or a CSV sidecar.
WRITING_OVER_AN_INPUT = {
    "simulate-out": ("simulate", "run.cfg", "run.cfg"),
    "simulate-tmp": ("simulate", "run.tags.tmp", "run.tags"),
    "simulate-manifest": ("simulate", "run.tags.manifest.json", "run.tags"),
    "analyze-out": ("analyze", "a.tags", "a.tags"),
    "analyze-manifest": ("analyze", "r.json.manifest.json", "r.json"),
    "analyze-sidecar": ("analyze", "r.delays.csv", "r.json"),
    "fringe-out": ("fringe", "r.json", "r.json"),
    "fringe-sidecar": ("fringe", "f.fringe.csv", "f.json"),
    "tomo-out": ("tomo", "r.json", "r.json"),
    "tomo-sidecar": ("tomo", "t.rho.csv", "t.json"),
    "report-out": ("report", "r.json", "r.json"),
}


@pytest.mark.parametrize("command, name, out", WRITING_OVER_AN_INPUT.values(),
                         ids=WRITING_OVER_AN_INPUT.keys())
def test_output_over_an_input_is_usage_error(tmp_path, capsys, command, name, out):
    # Each exited 0 and destroyed its input.
    report = run_pipeline(tmp_path, "run", duration_s=0.0005)
    source = {"simulate": tmp_path / "run.cfg", "analyze": tmp_path / "run.tags"}.get(command,
                                                                                   report)
    given = tmp_path / name
    if given != source:
        given.write_bytes(source.read_bytes())
    inputs = {"simulate": ["--config", str(given)],
              "analyze": ["--in", str(given)],
              "fringe": [f"{k}.0:{given if k == 0 else report}" for k in range(5)],
              "tomo": [f"{ds},{di}:{given if ds == di == 0 else report}"
                       for ds, di in ((0, 0), (0, 90), (90, 0), (90, 90))]
              + ["--replicas", "2"],
              "report": [str(given)]}[command]
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(tmp_path / out)]) == 2
    assert "would overwrite the input" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["simulate", "analyze", "fringe", "tomo", "report"])
def test_every_file_a_command_writes_is_checked_against_its_inputs(tmp_path, command):
    report = run_pipeline(tmp_path, "run", duration_s=0.0005)
    inputs = {"simulate": ["--config", str(tmp_path / "run.cfg")],
              "analyze": ["--in", str(tmp_path / "run.tags")],
              "fringe": [f"{k}.0:{report}" for k in range(5)],
              "tomo": [f"{ds},{di}:{report}" for ds, di in ((0, 0), (0, 90), (90, 0), (90, 90))]
              + ["--replicas", "2"],
              "report": [str(report)]}[command]
    out = tmp_path / "out" / "x.json"
    out.parent.mkdir()
    assert main([command, *inputs, "--out", str(out)]) == 0
    beside, sidecars = cli._WRITES[command]
    checked = {str(out), *(str(out) + s for s in beside),
               *(str(out)[:-5] + s for s in sidecars)}
    assert {str(path) for path in out.parent.iterdir()} <= checked


@pytest.mark.parametrize("link", [os.link, os.symlink], ids=["hard-link", "symlink"])
def test_output_that_is_an_input_by_another_name_is_usage_error(tmp_path, capsys, link):
    run_pipeline(tmp_path, "run", duration_s=0.0005)
    tags = tmp_path / "run.tags"
    link(tags, tmp_path / "other.json")
    data = tags.read_bytes()
    assert main(["analyze", "--in", str(tags), "--out", str(tmp_path / "other.json")]) == 2
    assert f"would overwrite the input {tags}" in capsys.readouterr().err
    assert tags.read_bytes() == data


def modules_loaded_by(code, *argv):
    """Names in ``sys.modules`` after a fresh interpreter, with this
    checkout's ``src`` first on its path, runs ``code``, which must exit
    0, with ``argv`` as its arguments."""
    src = str(Path(timebin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code += "\nimport sys\nprint(*sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def run_python(*args):
    """``python`` with ``args``, this checkout's ``src`` first on its path,
    its output read through pipes."""
    src = str(Path(timebin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_module(*argv):
    """``python -m timebin.cli`` with ``argv``."""
    return run_python("-m", "timebin.cli", *argv)


def test_module_run_exit_codes_and_messages(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
    tags = tmp_path / "run.tags"
    done = run_module("simulate", "--config", str(cfg), "--out", str(tags))
    assert done.returncode == 0 and done.stderr == ""
    assert re.fullmatch(rf"wrote \d+ tags to {re.escape(str(tags))}\n", done.stdout)

    bad_cfg = write_config(tmp_path / "bad.cfg", duration_s=-1)
    usage = run_module("simulate", "--config", str(bad_cfg), "--out", str(tmp_path / "x.tags"))
    assert usage.returncode == 2 and "duration_s must be non-negative" in usage.stderr

    data = bytearray(tags.read_bytes())
    data[-1] ^= 0xFF  # the last byte of the trailer's SHA-256
    tags.write_bytes(bytes(data))
    corrupt = run_module("analyze", "--in", str(tags), "--out", str(tmp_path / "r.json"))
    assert corrupt.returncode == 3 and "SHA-256" in corrupt.stderr
    for proc in (usage, corrupt):
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


def test_console_script_exits_through_run(tmp_path):
    # The ``timebin`` script and ``python -m timebin.cli`` share one exit
    # path, which freezes the collector before the interpreter's last one.
    # The entry is read by a pattern, as tomllib needs Python 3.11.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, func = re.search(r'^timebin = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    assert (module, func) == ("timebin.cli", "run")
    cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
    # The generated script's body, with the collector reported at exit.
    script = ("import atexit, gc, sys\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
              f"from {module} import {func}\nsys.exit({func}())\n")
    done = run_python("-c", script, "simulate", "--config", str(cfg),
                      "--out", str(tmp_path / "run.tags"))
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.endswith(" tags to " + str(tmp_path / "run.tags") + "\nfrozen True\n")


@pytest.mark.parametrize("given, kept", [(None, "4"), ("7", "7")], ids=["unset", "user-set"])
def test_run_keeps_openblas_workers_from_spinning(tmp_path, monkeypatch, given, kept):
    # A value the user set wins; numpy is not loaded before run() sets it.
    if given is None:
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", given)
    cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
    script = ("import atexit, os, sys\n"
              "atexit.register(lambda: print(os.environ.get('OPENBLAS_THREAD_TIMEOUT')))\n"
              "from timebin.cli import run\nassert 'numpy' not in sys.modules\nrun()\n")
    done = run_python("-c", script, "simulate", "--config", str(cfg),
                      "--out", str(tmp_path / "run.tags"))
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.endswith(f"\n{kept}\n")


def test_run_without_mallopt_writes_the_same_report(tmp_path):
    # run() pads glibc's heap through mallopt; a C library without it is
    # skipped, and the command's output does not depend on the pad.
    cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
    tags = tmp_path / "run.tags"
    assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
    no_mallopt = ("import atexit, ctypes\n"
                  "asked = []\n"
                  "class CDLL(ctypes.CDLL):\n"
                  "    def __getattr__(self, name):\n"
                  "        if name == 'mallopt':\n"
                  "            asked.append(self._name)\n"
                  "            raise AttributeError(name)\n"
                  "        return super().__getattr__(name)\n"
                  "ctypes.CDLL = CDLL\n"
                  "atexit.register(lambda: print('asked', asked))\n")
    reports = []
    for k, prelude in enumerate(["", no_mallopt]):
        report = tmp_path / f"run{k}.json"
        done = run_python("-c", prelude + "from timebin.cli import run\nrun()\n",
                          "analyze", "--in", str(tags), "--out", str(report))
        assert done.returncode == 0 and done.stderr == ""
        reports.append(report.read_bytes())
    assert done.stdout.endswith("\nasked [None]\n")
    assert reports[0] == reports[1]


def test_main_in_process_leaves_the_collector_unfrozen(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run.tags")]) == 0
    assert gc.get_freeze_count() == 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    # The program runs on numpy alone: importing the CLI and running the
    # fringe fit and the power-series fit loads no scipy.
    loaded = modules_loaded_by(textwrap.dedent("""
        import numpy as np
        import timebin.cli
        from timebin.analysis import RateReport, fit_fringe, power_series_fit
        phases = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        fit_fringe([(p, 100 * (1 - 0.9 * np.cos(p)), 1.0) for p in phases])
        power_series_fit([(p, RateReport(5000 * p, 4000 * p, 100 * p, 10**8, 1.0))
                          for p in (1, 2, 3)])
        """))
    scipy = sorted(m for m in loaded if m.split(".")[0] == "scipy")
    assert not scipy, f"{len(scipy)} scipy modules loaded: {scipy[:5]}"


def test_each_command_imports_only_what_it_runs(tmp_path):
    # Start-up is most of a short command's wall time.
    assert "numpy" not in modules_loaded_by("import timebin")
    cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
    tags, report = str(tmp_path / "run.tags"), str(tmp_path / "run.json")
    run_main = "import sys, timebin.cli\nassert timebin.cli.main(sys.argv[1:]) == 0"
    for argv, absent in [
        (["simulate", "--config", str(cfg), "--out", tags],
         {"timebin.analysis", "timebin.tomography", "queue"}),
        (["analyze", "--in", tags, "--out", report], {"timebin.tomography", "timebin.quantum"}),
        (["report", report, "--out", str(tmp_path / "summary.json")], {"numpy"}),
        (["tomo", *(f"{ds},{di}:{report}" for ds, di in ((0, 0), (0, 90), (90, 0), (90, 90))),
          "--out", str(tmp_path / "tomo.json"), "--replicas", "2"],
         {"timebin.simulate", "timebin.analysis", "timebin.streams"}),
    ]:
        loaded = modules_loaded_by(run_main, *argv)
        assert not loaded & absent, (argv[0], loaded & absent)
