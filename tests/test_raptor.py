"""Master/worker function framework: builtins, exactly-once results,
capacity checks, worker-crash redispatch."""

import time

import pytest

from pilotkit.client import create_session
from pilotkit.raptor import (
    CALL_REGISTRY,
    CapacityExceeded,
    MasterConfig,
    _arith,
    execute_call,
    launch_master,
    launch_workers,
)

from conftest import task  # noqa: F401  (keeps fixture import pattern uniform)


class TestArith:
    def test_basic(self):
        assert _arith("2+2") == "4"
        assert _arith("3*(4+5)") == "27"
        assert _arith("7/2") == "3.5"
        assert _arith("2**10") == "1024"

    def test_integral_float_normalized(self):
        assert _arith("6/2") == "3"

    def test_names_rejected(self):
        with pytest.raises(ValueError):
            _arith("__import__('os')")
        with pytest.raises(ValueError):
            _arith("x+1")

    def test_calls_rejected(self):
        with pytest.raises(ValueError):
            _arith("abs(-1)")


class TestExecuteCall:
    def test_noop(self):
        res = execute_call({"uid": "c0", "fn": "noop", "payload": ""})
        assert res == {"uid": "c0", "ok": True, "value": ""}

    def test_arith_call(self):
        res = execute_call({"uid": "c1", "fn": "arith", "payload": "2+2"})
        assert res["ok"] and res["value"] == "4"

    def test_unknown_function(self):
        res = execute_call({"uid": "c2", "fn": "nope"})
        assert not res["ok"] and "unknown function" in res["error"]

    def test_error_becomes_failed_result(self):
        res = execute_call({"uid": "c3", "fn": "arith", "payload": "nonsense!"})
        assert not res["ok"]

    def test_builtin_registry_contents(self):
        assert {"noop", "sleep", "spin", "arith", "crash"} <= set(CALL_REGISTRY)


@pytest.fixture
def raptor_session(tmp_path, local_pilot):
    s = create_session(str(tmp_path / "work"), seed=0, uid="s")
    pd = local_pilot(uid="pl", cores=12)
    s.create_pilot_manager().submit_pilot(pd)
    tm = s.create_task_manager()
    yield s, tm, pd
    s.close()


def run_calls(s, tm, pd, calls, cfg=None, timeout_s=120.0):
    cfg = cfg or MasterConfig(workers_per_master=2, cores_per_worker=2)
    handle = launch_master(s, tm, cfg, pilot_pd=pd)
    launch_workers(handle)
    handle.submit_calls(calls)
    results = handle.results(len(calls), timeout_s=timeout_s)
    handle.close()
    return results


class TestEndToEnd:
    def test_exactly_once_results(self, raptor_session):
        s, tm, pd = raptor_session
        calls = [{"uid": f"c{i:04d}", "fn": "noop", "payload": ""}
                 for i in range(500)]
        results = run_calls(s, tm, pd, calls)
        uids = [r["uid"] for r in results]
        assert sorted(uids) == sorted(c["uid"] for c in calls)
        assert len(set(uids)) == len(uids)
        assert all(r["ok"] for r in results)

    def test_arith_values_round_trip(self, raptor_session):
        s, tm, pd = raptor_session
        calls = [{"uid": f"a{i}", "fn": "arith", "payload": f"{i}+{i}"}
                 for i in range(50)]
        results = run_calls(s, tm, pd, calls)
        values = {r["uid"]: r["value"] for r in results}
        assert all(values[f"a{i}"] == str(2 * i) for i in range(50))

    def test_mixed_ok_and_failed(self, raptor_session):
        s, tm, pd = raptor_session
        calls = [{"uid": "good", "fn": "noop", "payload": ""},
                 {"uid": "bad", "fn": "no_such_fn", "payload": ""}]
        results = {r["uid"]: r for r in run_calls(s, tm, pd, calls)}
        assert results["good"]["ok"]
        assert not results["bad"]["ok"]

    def test_capacity_exceeded(self, raptor_session):
        s, tm, pd = raptor_session
        cfg = MasterConfig(workers_per_master=8, cores_per_worker=4)
        with pytest.raises(CapacityExceeded):
            launch_master(s, tm, cfg, muid="mbig", pilot_pd=pd)

    def test_worker_crash_redispatches_once(self, raptor_session):
        s, tm, pd = raptor_session
        cfg = MasterConfig(workers_per_master=2, cores_per_worker=1)
        handle = launch_master(s, tm, cfg, muid="mcrash", pilot_pd=pd)
        launch_workers(handle)
        calls = [{"uid": "boom", "fn": "crash", "payload": ""}]
        calls += [{"uid": f"c{i}", "fn": "sleep", "payload": "0.05"}
                  for i in range(20)]
        handle.submit_calls(calls)
        results = handle.results(len(calls), timeout_s=60.0)
        by_uid = {r["uid"]: r for r in results}
        assert len(by_uid) == len(calls)
        # the crashing call eventually fails after its single retry
        assert not by_uid["boom"]["ok"]
        assert all(by_uid[f"c{i}"]["ok"] for i in range(20))
        handle.close()

    def test_last_worker_lost_fails_held_calls(self, tmp_path, local_pilot):
        s = create_session(str(tmp_path / "work"), seed=0, uid="s")
        try:
            pd = local_pilot(uid="pl", cores=2)
            s.create_pilot_manager().submit_pilot(pd)
            tm = s.create_task_manager()
            cfg = MasterConfig(workers_per_master=1, cores_per_worker=1)
            handle = launch_master(s, tm, cfg, muid="mlast", pilot_pd=pd)
            launch_workers(handle)
            handle.submit_calls([{"uid": "boom", "fn": "crash", "payload": ""},
                                 {"uid": "c0", "fn": "noop", "payload": ""}])
            results = handle.results(2, timeout_s=10.0)
            assert sorted(r["uid"] for r in results) == ["boom", "c0"]
            assert not any(r["ok"] for r in results)
            handle.close(timeout_s=10.0)
        finally:
            s.close()

    def test_worker_still_starting_keeps_held_calls(self, tmp_path, local_pilot):
        # Two cores hold the master and one worker, so the second worker
        # starts only once the first one is lost.
        s = create_session(str(tmp_path / "work"), seed=0, uid="s")
        try:
            pd = local_pilot(uid="pl", cores=2)
            s.create_pilot_manager().submit_pilot(pd)
            tm = s.create_task_manager()
            cfg = MasterConfig(workers_per_master=1, cores_per_worker=1)
            handle = launch_master(s, tm, cfg, muid="mnext", pilot_pd=pd)
            launch_workers(handle, 2)
            handle.submit_calls([{"uid": "boom", "fn": "crash", "payload": ""},
                                 {"uid": "c0", "fn": "noop", "payload": ""}])
            results = {r["uid"]: r for r in handle.results(2, timeout_s=10.0)}
            assert results["c0"]["ok"]
            assert results["boom"]["error"] == "worker lost twice"
            handle.close(timeout_s=10.0)
        finally:
            s.close()

    def test_in_flight_plateau_bounded_by_capacity(self, raptor_session):
        from pilotkit.analytics import concurrency_series, load_session_traces

        s, tm, pd = raptor_session
        cfg = MasterConfig(workers_per_master=2, cores_per_worker=2)
        handle = launch_master(s, tm, cfg, muid="mconc", pilot_pd=pd)
        launch_workers(handle)
        calls = [{"uid": f"c{i:03d}", "fn": "sleep", "payload": "0.02"}
                 for i in range(120)]
        handle.submit_calls(calls)
        results = handle.results(len(calls), timeout_s=60.0)
        assert len(results) == len(calls)
        handle.close()
        pilot_handle = s.pilots["pl"]
        pilot_handle.tracer.flush()
        pilot_handle.tracer.close()
        s.close()
        trace = load_session_traces(pilot_handle.trace_dir)
        series = concurrency_series(trace, 0.05, start_name="call_dispatch",
                                    stop_name="call_result")
        capacity = cfg.workers_per_master * cfg.cores_per_worker
        assert series.peak() <= capacity + 1e-6
        assert series.peak() >= capacity * 0.5
