"""End-to-end tests for ``repro serve``.

A real :class:`~repro.serve.app.ServerThread` binds an ephemeral port
per test; requests go over actual sockets via :mod:`urllib`.  The
acceptance contracts:

* a spec measured through ``POST /v1/measure`` produces **byte-identical**
  pooled and per-replication cache cells to ``repro run`` of the same
  spec;
* a repeated POST is answered from cache (200) without touching the
  worker pool;
* a cancelled-then-resubmitted job resumes from its persisted
  per-replication cells rather than recomputing them;
* alias spellings normalise onto the same cache cell over HTTP exactly
  as they do in the CLI.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.runner import ResultsStore, ScenarioSpec, measure
from repro.serve import ServerThread
from repro.serve.http import Request

SPEC = {"name": "serve-t", "d": 3, "rho": 0.5, "horizon": 60.0,
        "replications": 4}
TERMINAL = ("done", "failed", "cancelled")


def _request(method: str, url: str, payload=None, timeout: float = 60.0):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _poll_terminal(base: str, job_id: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = _request("GET", f"{base}/v1/jobs/{job_id}")
        assert status == 200
        if body["state"] in TERMINAL:
            return body
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def _read_events(url: str, timeout: float = 120.0):
    events, current = [], {}
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        for raw in resp:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                current["event"] = line[len("event: "):]
            elif line.startswith("data: "):
                current["data"] = json.loads(line[len("data: "):])
            elif not line and current:
                events.append(current)
                if current.get("event") in TERMINAL:
                    break
                current = {}
    return events


@pytest.fixture
def server(tmp_path):
    thread = ServerThread(cache_dir=tmp_path / "cache", workers=2).start()
    try:
        yield thread
    finally:
        thread.stop()


class TestPlumbing:
    def test_healthz(self, server):
        status, body = _request("GET", f"{server.base_url}/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 2
        assert body["store"]["backend"] == "locked"

    def test_scenario_catalog(self, server):
        status, body = _request("GET", f"{server.base_url}/v1/scenarios")
        assert status == 200
        names = {s["name"] for s in body["scenarios"]}
        assert "smoke" in names

    def test_unknown_route_is_404(self, server):
        assert _request("GET", f"{server.base_url}/nope")[0] == 404
        assert _request("GET", f"{server.base_url}/v1/nope")[0] == 404
        assert _request("GET", f"{server.base_url}/v1/jobs/missing")[0] == 404

    def test_wrong_method_is_405(self, server):
        assert _request("POST", f"{server.base_url}/v1/healthz", {})[0] == 405
        assert _request("GET", f"{server.base_url}/v1/measure")[0] == 405

    def test_bad_bodies_are_400(self, server):
        url = f"{server.base_url}/v1/measure"
        req = urllib.request.Request(url, data=b"{ not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        status, body = _request("POST", url, {"name": "x", "d": -3})
        assert status == 400 and "invalid spec" in body["error"]
        status, body = _request("POST", url, {"scenario": "no-such"})
        assert status == 400

    def test_request_parser_roundtrip(self):
        # the hand-rolled parser's corner: query strings and encodings
        req = Request(method="POST", path="/v1/measure", body=b'{"a": 1}')
        assert req.json() == {"a": 1}


class TestMeasureEndpoint:
    def test_miss_then_hit_without_worker_pool(self, server):
        base = server.base_url
        status, body = _request("POST", f"{base}/v1/measure", SPEC)
        assert status == 202 and body["cache"] == "miss"
        terminal = _poll_terminal(base, body["job"])
        assert terminal["state"] == "done"
        assert terminal["progress"]["completed"] == SPEC["replications"]

        jobs_before = _request("GET", f"{base}/v1/jobs")[1]["jobs"]
        status, hit = _request("POST", f"{base}/v1/measure", SPEC)
        assert status == 200 and hit["cache"] == "hit"
        assert hit["result"] == terminal["result"]
        # answered straight from the store: no new job was created
        jobs_after = _request("GET", f"{base}/v1/jobs")[1]["jobs"]
        assert len(jobs_after) == len(jobs_before)

    def test_result_matches_direct_measure(self, server, tmp_path):
        from repro.runner.results import measurement_from_dict

        base = server.base_url
        status, body = _request("POST", f"{base}/v1/measure", SPEC)
        assert status == 202
        terminal = _poll_terminal(base, body["job"])
        served = measurement_from_dict(terminal["result"])
        direct = measure(
            ScenarioSpec(**SPEC), store=ResultsStore(tmp_path / "direct")
        )
        assert served == direct

    def test_cells_byte_identical_to_repro_run(self, server, tmp_path,
                                               monkeypatch, capsys):
        """The golden acceptance bit: HTTP-measured cells == CLI cells."""
        from repro.__main__ import main

        base = server.base_url
        status, body = _request(
            "POST", f"{base}/v1/measure", {"scenario": "smoke"}
        )
        assert status == 202
        assert _poll_terminal(base, body["job"])["state"] == "done"

        cli_root = tmp_path / "cli-cache"
        assert main(["run", "smoke", "--cache-dir", str(cli_root)]) == 0
        capsys.readouterr()

        server_root = server.server.store_root
        cli_cells = sorted(cli_root.rglob("*.json"))
        served_cells = sorted(server_root.rglob("*.json"))
        assert [p.name for p in cli_cells] == [p.name for p in served_cells]
        assert len(cli_cells) == 1 + 2  # pooled + two replications
        for a, b in zip(cli_cells, served_cells):
            assert a.read_bytes() == b.read_bytes()

    def test_alias_spelling_shares_the_cache_cell(self, server):
        base = server.base_url
        status, body = _request("POST", f"{base}/v1/measure", SPEC)
        assert status == 202
        _poll_terminal(base, body["job"])
        aliased = dict(SPEC, network="cube", traffic="bernoulli")
        status, hit = _request("POST", f"{base}/v1/measure", aliased)
        assert status == 200 and hit["cache"] == "hit"

    def test_concurrent_posts_coalesce_onto_one_job(self, server):
        base = server.base_url
        slow = dict(SPEC, horizon=400.0, replications=16, name="serve-co")
        status, first = _request("POST", f"{base}/v1/measure", slow)
        assert status == 202
        status, second = _request("POST", f"{base}/v1/measure", slow)
        if status == 202:  # not already finished (the usual case)
            assert second["job"] == first["job"]
            assert second["coalesced"] is True
        _poll_terminal(base, first["job"])

    def test_events_stream_progress_to_done(self, server):
        base = server.base_url
        status, body = _request("POST", f"{base}/v1/measure", SPEC)
        assert status == 202
        events = _read_events(base + body["events"])
        assert events[-1]["event"] == "done"
        beats = [e["data"] for e in events if e["event"] == "progress"]
        assert beats, "no progress beats before the terminal event"
        assert beats[-1]["completed"] + beats[-1]["cached"] == SPEC["replications"]
        assert events[-1]["data"]["result"]["num_packets"] > 0


class TestCancelAndResume:
    #: big enough that cancellation lands mid-run with wide margin
    #: (~100 ms per replication, ~4 s total on one core)
    BIG = {"name": "serve-big", "d": 6, "rho": 0.8, "horizon": 1500.0,
           "replications": 40}

    def test_cancel_then_resubmit_resumes_from_cells(self, server):
        base = server.base_url
        status, body = _request("POST", f"{base}/v1/measure", self.BIG)
        assert status == 202
        job_id = body["job"]
        # wait until at least one replication has completed...
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            state = _request("GET", f"{base}/v1/jobs/{job_id}")[1]
            if state["progress"]["completed"] >= 1:
                break
            time.sleep(0.02)
        assert state["progress"]["completed"] >= 1
        # ...then cancel and let the worker stop at the wave boundary
        status, ack = _request("DELETE", f"{base}/v1/jobs/{job_id}")
        assert status == 200 and ack["cancelled"] is True
        terminal = _poll_terminal(base, job_id)
        assert terminal["state"] == "cancelled"

        store = ResultsStore(server.server.store_root)
        persisted = store.stats().replications
        assert 1 <= persisted < self.BIG["replications"]

        # resubmitting resumes from the persisted cells, not from scratch
        status, body = _request("POST", f"{base}/v1/measure", self.BIG)
        assert status == 202 and body["cache"] == "miss"
        events = _read_events(base + body["events"])
        assert events[-1]["event"] == "done"
        beats = [e["data"] for e in events if e["event"] == "progress"]
        resumed_cached = max(b["cached"] for b in beats)
        assert resumed_cached >= persisted
        completed = max(b["completed"] for b in beats)
        assert completed + resumed_cached == self.BIG["replications"]

    def test_cancelling_a_finished_job_is_a_conflict(self, server):
        base = server.base_url
        status, body = _request("POST", f"{base}/v1/measure", SPEC)
        assert status == 202
        _poll_terminal(base, body["job"])
        status, ack = _request("DELETE", f"{base}/v1/jobs/{body['job']}")
        assert status == 409 and ack["cancelled"] is False


class TestJobRetention:
    """Terminal jobs are retained for ``job_ttl`` seconds and then
    evicted (table entry and job directory); active jobs survive the
    sweep untouched."""

    def test_done_job_404s_after_ttl_while_running_job_survives(
        self, tmp_path
    ):
        thread = ServerThread(
            cache_dir=tmp_path / "cache", workers=2, job_ttl=0.6
        ).start()
        try:
            base = thread.base_url
            status, body = _request("POST", f"{base}/v1/measure", SPEC)
            assert status == 202
            done_id = body["job"]
            _poll_terminal(base, done_id)
            status, body = _request("GET", f"{base}/v1/jobs/{done_id}")
            assert status == 200 and body["state"] == "done"
            done_dir = thread.server.manager.jobs[done_id].job_dir
            assert done_dir.exists()
            # a long-running sibling, still active when the TTL lapses
            big = {"name": "serve-ttl-big", "d": 6, "rho": 0.8,
                   "horizon": 2000.0, "replications": 60}
            status, body = _request("POST", f"{base}/v1/measure", big)
            assert status == 202
            run_id = body["job"]
            time.sleep(0.9)  # > job_ttl since the first job finished
            assert _request("GET", f"{base}/v1/jobs/{done_id}")[0] == 404
            assert not done_dir.exists()
            status, body = _request("GET", f"{base}/v1/jobs/{run_id}")
            assert status == 200 and body["state"] not in TERMINAL
            _request("DELETE", f"{base}/v1/jobs/{run_id}")
        finally:
            thread.stop()

    def test_manager_rejects_nonpositive_ttl(self, tmp_path):
        from repro.serve.jobs import JobManager

        with pytest.raises(ValueError, match="job_ttl"):
            JobManager(tmp_path, "locked", 1, job_ttl=0.0)

    def test_refused_dispatch_leaves_no_job_behind(self, tmp_path):
        import asyncio

        from repro.serve.jobs import JobManager

        state = tmp_path / "state"
        state.mkdir()
        manager = JobManager(tmp_path / "store", "locked", 1, state_dir=state)
        manager.executor.shutdown()
        loop = asyncio.new_event_loop()
        try:
            spec = ScenarioSpec.from_dict(SPEC)
            with pytest.raises(RuntimeError, match="shutdown"):
                manager.submit(loop, spec)
            assert manager.counts()["queued"] == 0
            # nothing left active to coalesce onto: the retry fails too
            with pytest.raises(RuntimeError, match="shutdown"):
                manager.submit(loop, spec)
            assert manager.jobs == {}
            assert list(state.iterdir()) == []
        finally:
            loop.close()
            manager.shutdown()
