"""CLI: run / analyze / experiment subcommands and console entry point."""

import csv
import json
import os
from pathlib import Path

import pytest

from pilotkit.cli import main
from pilotkit.client import create_session
from pilotkit.core import TaskDescription

from conftest import run_console_script


def workload_config(tmp_path, n_tasks=6, duration=0.5):
    cfg = {
        "pilot": {
            "uid": "p0",
            "fabric": "simulated",
            "nodes": 2,
            "cores_per_node": 4,
        },
        "tasks": [
            {"uid": f"t{i}", "executable": "pilotkit-emulate",
             "arguments": ["--duration", str(duration)]}
            for i in range(n_tasks)
        ],
        "seed": 5,
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def find_session_dir(workdir):
    entries = [e for e in os.listdir(workdir) if e.startswith("session_")]
    assert len(entries) == 1
    return os.path.join(workdir, entries[0])


class TestRun:
    def test_run_all_done_exits_zero(self, tmp_path, capsys):
        cfg_path, _ = workload_config(tmp_path)
        rc = main(["run", "--config", str(cfg_path),
                   "--workdir", str(tmp_path / "wd")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "6/6 tasks DONE" in out

    def test_run_with_failure_exits_nonzero(self, tmp_path, capsys):
        cfg_path, cfg = workload_config(tmp_path, n_tasks=2)
        cfg["tasks"][1]["cores_per_task"] = 99  # cannot fit, MPI off
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path),
                   "--workdir", str(tmp_path / "wd")])
        assert rc == 1

    def test_run_with_invalid_task_is_an_input_error(self, tmp_path, capsys):
        cfg_path, cfg = workload_config(tmp_path, n_tasks=2)
        cfg["tasks"][1]["cores_per_task"] = 0
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--workdir", str(tmp_path / "wd")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("pilotkit: error: "), err
        assert "cores_per_task must be >= 1" in err[0]
        assert not (tmp_path / "wd").exists()

    @pytest.mark.parametrize("where, key", [
        ("task", "cores"), ("task", "tag"), ("task", "expected_runtime_s"),
        ("pilot", "dvm_max_node"), ("pilot_profile", "gpus"),
        ("latency_model", "ack_mean"), ("workload", "timeout"),
        ("spec_pilot", "gpus"), ("spec_latency_model", "ack_mean")])
    def test_unknown_key_is_an_input_error(self, tmp_path, capsys, sim_pilot, where, key):
        cfg_path, cfg = workload_config(tmp_path, n_tasks=2)
        cfg["pilot"]["latency_model"] = {"ack_mean_s": 0.1}
        profile = sim_pilot(nodes=1, cores=4).to_dict()
        spec = {"kind": "strong", "pilots": [{"nodes": 1, "cores_per_node": 4}],
                "tasks_per_pilot": [4], "latency_model": {"ack_mean_s": 0.1}}
        target = {"task": cfg["tasks"][1], "pilot": cfg["pilot"], "pilot_profile": profile,
                  "latency_model": cfg["pilot"]["latency_model"], "workload": cfg,
                  "spec_pilot": spec["pilots"][0],
                  "spec_latency_model": spec["latency_model"]}[where]
        target[key] = 2
        if where == "pilot_profile":
            del cfg["pilot"]
            cfg["pilot_profile"] = str(tmp_path / "pilot.json")
            (tmp_path / "pilot.json").write_text(json.dumps(profile))
        cfg_path.write_text(json.dumps(spec if where.startswith("spec") else cfg))
        wd = str(tmp_path / "wd")
        with pytest.raises(SystemExit) as exc:
            if where.startswith("spec"):
                main(["experiment", "--spec", str(cfg_path), "--out", wd])
            else:
                main(["run", "--config", str(cfg_path), "--workdir", wd])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"pilotkit: error: {cfg_path}: "), err
        assert err[0].endswith(f" keys: {key}"), err
        assert not (tmp_path / "wd").exists()

    def test_run_with_pilot_profile(self, tmp_path, capsys, sim_pilot):
        profile = tmp_path / "pilot.json"
        profile.write_text(json.dumps(sim_pilot(nodes=1, cores=4).to_dict()))
        cfg = {"pilot_profile": str(profile),
               "tasks": [{"uid": "t0", "executable": "pilotkit-emulate",
                          "arguments": ["--duration", "0.1"]}]}
        cfg_path = tmp_path / "w.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path),
                     "--workdir", str(tmp_path / "wd")]) == 0


class TestAnalyze:
    def run_session(self, tmp_path):
        cfg_path, _ = workload_config(tmp_path)
        assert main(["run", "--config", str(cfg_path),
                     "--workdir", str(tmp_path / "wd")]) == 0
        return find_session_dir(tmp_path / "wd")

    def test_analyze_session_dir(self, tmp_path, capsys):
        session_dir = self.run_session(tmp_path)
        out_dir = tmp_path / "analysis"
        rc = main(["analyze", session_dir, "--out", str(out_dir)])
        assert rc == 0
        with open(out_dir / "summary.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert int(row["tasks"]) == 6
        # 6 x 0.5 s tasks on 8 cores: one generation, TTX 0.5
        assert float(row["ttx_s"]) == pytest.approx(0.5, abs=1e-6)
        assert "TTX" in capsys.readouterr().out

    def test_analyze_trace_dir_directly(self, tmp_path, capsys):
        session_dir = self.run_session(tmp_path)
        trace_dir = os.path.join(session_dir, "pilots", "p0", "traces")
        assert main(["analyze", trace_dir, "--out", str(tmp_path / "a2")]) == 0

    def run_two_pilots(self, tmp_path, sim_pilot):
        session = create_session(str(tmp_path / "wd"), seed=5)
        pm = session.create_pilot_manager()
        pm.submit_pilot(sim_pilot(uid="p1", nodes=1, cores=4))
        pm.submit_pilot(sim_pilot(uid="p2", nodes=1, cores=8))
        tm = session.create_task_manager()
        handles = tm.submit_tasks([
            TaskDescription(uid=f"t{i}", executable="pilotkit-emulate",
                            arguments=["--duration", "0.5"]) for i in range(6)])
        assert tm.wait_tasks(handles) == ["DONE"] * 6
        session.close()
        return session.directory

    def test_analyze_two_pilots_writes_a_report_each(self, tmp_path, sim_pilot):
        session_dir = self.run_two_pilots(tmp_path, sim_pilot)
        out_dir = tmp_path / "analysis"
        assert main(["analyze", session_dir, "--out", str(out_dir)]) == 0
        cores = {}
        for uid in ("p1", "p2"):
            with open(out_dir / uid / "summary.csv") as fh:
                cores[uid] = int(list(csv.DictReader(fh))[0]["cores"])
        assert cores == {"p1": 4, "p2": 8}

    @pytest.mark.parametrize("manifest", ["truncated", "walltime_s", "not_an_object"])
    def test_unreadable_manifest_reported_others_analyzed(self, tmp_path, capsys, sim_pilot,
                                                          manifest):
        session_dir = self.run_two_pilots(tmp_path, sim_pilot)
        bad = os.path.join(session_dir, "pilots", "p1", "traces")
        path = Path(bad) / "manifest.json"
        if manifest == "truncated":  # as a killed run can leave it
            path.write_text('{"components": [')
        elif manifest == "not_an_object":
            path.write_text("[]")
        else:  # a pilot snapshot written before the field was removed
            m = json.loads(path.read_text())
            m["pilot"]["walltime_s"] = 3600.0
            path.write_text(json.dumps(m))
        capsys.readouterr()
        out_dir = tmp_path / "analysis"
        assert main(["analyze", session_dir, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"pilotkit: error: {bad}: "), err
        assert manifest != "walltime_s" or err[0].endswith("keys: walltime_s"), err
        assert manifest != "not_an_object" or str(path) in err[0], err
        assert os.listdir(out_dir) == ["p2"]
        assert os.path.exists(out_dir / "p2" / "summary.csv")

    def test_incomplete_trace_reported_others_analyzed(self, tmp_path, capsys, sim_pilot):
        session_dir = self.run_two_pilots(tmp_path, sim_pilot)
        bad = os.path.join(session_dir, "pilots", "p1", "traces")
        path = Path(bad) / "agent.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))  # a killed run
        capsys.readouterr()
        out_dir = tmp_path / "analysis"
        assert main(["analyze", session_dir, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"pilotkit: error: {bad}: IncompleteTrace: "
                       "missing pilot_start/agent_ready/agent_stop events"]
        assert os.listdir(out_dir) == ["p2"]
        assert os.path.exists(out_dir / "p2" / "summary.csv")

    def test_unwritable_out_reported_for_each_dir(self, tmp_path, capsys, sim_pilot):
        session_dir = self.run_two_pilots(tmp_path, sim_pilot)
        (tmp_path / "file").write_text("")
        capsys.readouterr()
        assert main(["analyze", session_dir, "--out", str(tmp_path / "file" / "a")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:3] for line in err] == [
            ["pilotkit", "error", os.path.join(session_dir, "pilots", uid, "traces")]
            for uid in ("p1", "p2")], err
        assert all(": UnwritableOutput: " in line for line in err), err

    def test_analyze_missing_dir(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope")]) == 1

    @pytest.mark.parametrize("width", ["-1", "0", "1e-9", "nan", "x"])
    def test_bin_width_below_one_microsecond_is_a_usage_error(self, tmp_path, capsys,
                                                              width):
        session_dir = self.run_session(tmp_path)
        capsys.readouterr()
        out_dir = tmp_path / "analysis"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", session_dir, f"--bin-width={width}", "--out", str(out_dir)])
        assert exc.value.code == 2
        assert "argument --bin-width" in capsys.readouterr().err
        assert not out_dir.exists()


class TestExperiment:
    def test_experiment_spec_to_summary(self, tmp_path, capsys):
        spec = {
            "kind": "strong",
            "pilots": [{"nodes": 1, "cores_per_node": 4},
                       {"nodes": 2, "cores_per_node": 4}],
            "tasks_per_pilot": [16, 16],
            "duration_range_s": [0.1, 0.1],
            "seed": 2,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["experiment", "--spec", str(spec_path),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        with open(tmp_path / "out" / "summary.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        # doubling cores halves the generation count
        assert int(rows[0]["generations"]) == 4
        assert int(rows[1]["generations"]) == 2

    def test_unknown_spec_key_is_an_input_error(self, tmp_path, capsys):
        spec = {"kind": "strong", "pilots": [{"nodes": 1, "cores_per_node": 4}],
                "tasks_per_pilot": [4], "sede": 2, "repetition": 3}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"pilotkit: error: {spec_path}: ValueError: "
                       "unknown ExperimentSpec keys: repetition, sede"]
        assert not (tmp_path / "out").exists()


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = run_console_script("pilotkit", "--help")
        assert proc.returncode == 0
        for sub in ("run", "analyze", "experiment"):
            assert sub in proc.stdout

    def test_missing_subcommand_errors(self):
        proc = run_console_script("pilotkit")
        # argparse's usage error, not an import failure of the entry point
        assert proc.returncode == 2
        assert "required" in proc.stderr
