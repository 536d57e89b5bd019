"""Experiment harness: spec validation, task generation, cell runs and
summary emission."""

import csv
import json
import random
from pathlib import Path

import pytest

from pilotkit.core import Fabric, LatencyModel, PilotDescription, ValidationError
from pilotkit.harness import (
    ExperimentSpec,
    SCALE_NOTE,
    generate_tasks,
    pilot_from_cell,
    run_cell,
    run_experiment,
    write_summary,
)


EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def weak_spec(**kw):
    base = dict(
        kind="weak",
        pilots=[{"nodes": 2, "cores_per_node": 4},
                {"nodes": 4, "cores_per_node": 4}],
        tasks_per_pilot=[16, 32],
        duration_range_s=[0.2, 0.2],
        seed=3,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpec:
    def test_weak_requires_constant_ratio(self):
        with pytest.raises(ValueError):
            weak_spec(tasks_per_pilot=[16, 20])

    def test_strong_requires_fixed_count(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="strong",
                           pilots=[{"nodes": 1, "cores_per_node": 4},
                                   {"nodes": 2, "cores_per_node": 4}],
                           tasks_per_pilot=[10, 20])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="bogus", pilots=[], tasks_per_pilot=[])

    def test_misaligned_pilots(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="strong",
                           pilots=[{"nodes": 1, "cores_per_node": 4}],
                           tasks_per_pilot=[4, 4])

    @pytest.mark.parametrize("entry, error", [
        ({"nodes": 4, "cores_per_node": 4, "gpus": 1}, "unknown PilotDescription keys: gpus"),
        ({"nodes": 4, "cores_per_node": 4, "uid": "p"}, "'uid'"),
        ({"nodes": 4, "cores_per_node": 4, "bootstrap_s": 1.0}, "'bootstrap_s'"),
        ({"nodes": 0, "cores_per_node": 4}, "nodes must be >= 1"),
    ])
    def test_pilot_entries_checked_at_load(self, entry, error):
        # An entry may not set what the spec sets for every cell.
        with pytest.raises((ValueError, TypeError, ValidationError), match=error):
            weak_spec(pilots=[{"nodes": 2, "cores_per_node": 4}, entry])

    def test_from_file_round_trip(self, tmp_path):
        spec = weak_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "kind": spec.kind, "pilots": spec.pilots,
            "tasks_per_pilot": spec.tasks_per_pilot,
            "duration_range_s": spec.duration_range_s, "seed": spec.seed}))
        loaded = ExperimentSpec.from_file(str(path))
        assert loaded.kind == "weak" and loaded.tasks_per_pilot == [16, 32]

    @pytest.mark.parametrize("path", sorted(EXPERIMENTS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_spec_loads(self, path):
        # Loading builds every cell's pilot; the tasks are built here.
        spec = ExperimentSpec.from_file(str(path))
        assert len(generate_tasks(spec, 100, random.Random(spec.seed))) == 100


class TestGenerate:
    def test_counts_and_uids(self):
        tds = generate_tasks(weak_spec(), 10, random.Random(0))
        assert [td.uid for td in tds] == [f"t{i:06d}" for i in range(10)]

    def test_heterogeneous_ranges(self):
        spec = weak_spec(cores_per_task=[1, 4], mpi_fraction=0.5)
        tds = generate_tasks(spec, 200, random.Random(1))
        cores = {td.cores_per_task for td in tds}
        assert cores == {1, 2, 3, 4}
        mpi = sum(td.uses_mpi for td in tds) / len(tds)
        assert 0.3 < mpi < 0.7

    def test_duration_range_fixed_args(self):
        tds = generate_tasks(weak_spec(), 3, random.Random(0))
        for td in tds:
            assert td.arguments[0] == "--duration"
            assert float(td.arguments[1]) == pytest.approx(0.2)

    def test_reproducible_with_seeded_rng(self):
        spec = weak_spec(cores_per_task=[1, 4])
        a = generate_tasks(spec, 50, random.Random(9))
        b = generate_tasks(spec, 50, random.Random(9))
        assert a == b

    def test_pilot_from_cell(self):
        pd = pilot_from_cell(weak_spec(latency_model={"ack_mean_s": 0.1}), 1, uid="p")
        assert pd.total_cores == 16
        assert pd.bootstrap_s == 0.1
        assert (pd.uid, pd.fabric, pd.latency_model) == \
            ("p", Fabric.SIMULATED, LatencyModel(ack_mean_s=0.1))
        defaults = PilotDescription(uid="d")
        assert (pd.gpus_per_node, pd.dvm_max_nodes) == \
            (defaults.gpus_per_node, defaults.dvm_max_nodes)


class TestRun:
    def test_run_cell_metrics(self, tmp_path):
        row = run_cell(weak_spec(), cell=0, rep=0, out_dir=str(tmp_path))
        assert row["tasks"] == row["done"] == 16
        assert row["generations"] == 2  # 16 tasks on 8 cores
        assert row["ttx_s"] == pytest.approx(0.4, abs=1e-6)
        assert 0 < row["ru_pct"] <= 100

    def test_run_experiment_summary(self, tmp_path):
        spec = weak_spec(repetitions=2)
        rows = run_experiment(spec, str(tmp_path / "out"))
        assert len(rows) == 4
        with open(tmp_path / "out" / "summary.csv") as fh:
            header = fh.readline()
            assert header.startswith("#") and SCALE_NOTE in header
            table = list(csv.DictReader(fh))
        assert len(table) == 2
        assert all(r["complete"] == "ok" for r in table)
        # weak scaling with uniform tasks: flat TTX across cells
        ttxs = [float(r["ttx_mean_s"]) for r in table]
        assert ttxs[0] == pytest.approx(ttxs[1], rel=0.01)

    def test_failed_cell_reported_not_fatal(self, tmp_path):
        spec = weak_spec()
        rows = [{"cell": 0, "rep": 0, "error": "boom"},
                {"cell": 1, "rep": 0, "cores": 16, "tasks": 32,
                 "generations": 2, "ttx_s": 0.4, "ovh_pct": 1.0,
                 "ru_pct": 50.0}]
        path = tmp_path / "summary.csv"
        write_summary(spec, rows, str(path))
        with open(path) as fh:
            fh.readline()
            table = list(csv.DictReader(fh))
        assert table[0]["complete"] == "incomplete"
        assert table[1]["complete"] == "ok"
