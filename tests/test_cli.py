import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import timebin
from timebin.cli import main
from timebin.simulate import CH_SIGNAL, CH_TRIGGER, TAG_DTYPE, ExperimentConfig
from timebin.streams import read_tags, write_tags


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


def write_stream(path, channels, times_ps, config_echo):
    tags = np.zeros(len(channels), dtype=TAG_DTYPE)
    tags["channel"] = channels
    tags["time_ps"] = times_ps
    write_tags(path, tags, config_echo=config_echo)
    return path


VALID_ECHO = {**ExperimentConfig().to_dict(), "mode": "time-bin"}


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

    @pytest.mark.parametrize("cli_seed", [None, "-3"])
    def test_negative_seed_rejected(self, tmp_path, capsys, cli_seed):
        cfg = write_config(tmp_path / "run.cfg", rng_seed=-1 if cli_seed is None else 7)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.tags")]
        code = main(argv + (["--seed", cli_seed] if cli_seed else []))
        assert code == 2
        assert "rng_seed must be a non-negative integer" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# a run\nrep_rate_hz = 76.2e6  # pump\n\n"
                       "duration_s = 0.0001\nmean_pairs_per_pulse = 0.01\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.tags")]) == 0


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001)
        a, b = tmp_path / "a.tags", tmp_path / "b.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert sha256(a) == sha256(b)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.001)
        a, b = tmp_path / "a.tags", tmp_path / "b.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b),
                     "--seed", "99"]) == 0
        assert sha256(a) != sha256(b)

    def test_manifest_checksums_match(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", duration_s=0.0005)
        tags = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(cfg), "--out", str(tags)]) == 0
        manifest = json.loads((tmp_path / "run.tags.manifest.json").read_text())
        assert manifest["outputs"][str(tags)] == sha256(tags)
        assert manifest["rng_seed"] == 7
        assert manifest["config"]["mean_pairs_per_pulse"] == 0.05

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

    def test_sidecar_csv_files(self, tmp_path):
        report = run_pipeline(tmp_path, "run")
        base = str(report)[:-5]
        for suffix in (".singles_signal.csv", ".singles_idler.csv", ".delays.csv"):
            lines = open(base + suffix).read().splitlines()
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
        header, records = read_tags(tags)
        records = records.copy()
        # A later time keeps the stream sorted, so only the value is wrong.
        k = records.size // 2 if field == "channel" else records.size - 1
        records[field][k] = value
        write_tags(tags, records, config_echo=header["config"])
        offset = tags.read_bytes().index(b"\n") + 1 + k * TAG_DTYPE.itemsize
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert f"byte offset {offset})" in capsys.readouterr().err

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

    @pytest.mark.parametrize("echo", [
        [1, 2],
        {**VALID_ECHO, "bogus_field": 1.0},
        {**VALID_ECHO, "bin_delay": "3e-9"},
        {**VALID_ECHO, "mode": "triple-bin"},
    ], ids=["not-a-dict", "unknown-key", "wrong-type", "unknown-mode"])
    def test_bad_config_echo_is_data_error(self, tmp_path, capsys, echo):
        tags = write_stream(tmp_path / "run.tags", [CH_TRIGGER, CH_SIGNAL, CH_TRIGGER],
                            [0, 2000, 13123], echo)
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(tags) in err and "config" in err and "Traceback" not in err

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

    def test_echo_without_bin_delay_is_usage_error(self, tmp_path, capsys):
        # Three time-bin slots at one offset overlap at any gate width.
        tags = write_stream(tmp_path / "run.tags", [CH_TRIGGER, CH_SIGNAL, CH_TRIGGER],
                            [0, 2000, 13123], {**VALID_ECHO, "bin_delay": 0.0})
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--gate-width-s" in capsys.readouterr().err

    @pytest.mark.parametrize("trigger_times", [[1000], [1000, 1000]],
                             ids=["one-trigger", "two-at-one-time"])
    def test_stream_without_duration_is_data_error(self, tmp_path, capsys, trigger_times):
        tags = write_stream(tmp_path / "run.tags",
                            [CH_TRIGGER] * len(trigger_times) + [CH_SIGNAL],
                            trigger_times + [3000], VALID_ECHO)
        code = main(["analyze", "--in", str(tags), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(tags) in err and "trigger" in err

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

    def test_malformed_point(self, tmp_path):
        code = main(["fringe", "zero", "--out", str(tmp_path / "f.json")])
        assert code == 2

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
    ])
    def test_unusable_report_is_data_error(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        points = [f"{k}.0:{bad}" for k in range(6)]
        code = main(["fringe", *points, "--out", str(tmp_path / "f.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err


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

    def test_malformed_setting(self, setting_reports):
        tmp, args = setting_reports
        code = main(["tomo", "diag:" + args[0].partition(":")[2],
                     *args[1:], "--out", str(tmp / "x.json")])
        assert code == 2

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

    def test_reports_without_counts_are_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"joint_slot_counts": [[0] * 3] * 3}))
        args = [f"{ds},{di}:{empty}" for ds, di in ((0, 0), (0, 90), (90, 0), (90, 90))]
        code = main(["tomo", *args, "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(empty) in err and "no counts" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--replicas", "1"), ("--replicas", "0"),
                                             ("--max-iter", "0")])
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # The program runs on numpy alone: importing the CLI and running the
    # fringe fit (both weightings) and the power-series fit loads no scipy.
    src = str(Path(timebin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import timebin.cli
        from timebin.analysis import FringeScan, RateReport, fit_fringe, power_series_fit
        phases = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        scan = FringeScan(phases, 100 * (1 - 0.9 * np.cos(phases)), np.ones(12))
        fit_fringe(scan)
        fit_fringe(scan, poisson_weights=True)
        power_series_fit([(p, RateReport(5000 * p, 4000 * p, 100 * p, 10**8, 1.0))
                          for p in (1, 2, 3)])
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        sys.exit(f"{len(loaded)} scipy modules loaded: {loaded[:5]}" if loaded else None)
        """)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
