"""Tests for the JSONL run ledger (repro.campaign.ledger)."""

import json

import pytest

from repro.campaign import CampaignError, Ledger


def _journal(path, events):
    with Ledger(str(path)).open() as ledger:
        for event in events:
            ledger.record(event)


HEADER = {"event": "campaign", "fingerprint": "abc123", "points": 3,
          "meta": {"kind": "fn"}}
POINTS = [{"event": "point", "run_id": f"p{i}", "index": i,
           "params": {"depth": 2 ** i}, "seed": 100 + i} for i in range(3)]


class TestReplay:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _journal(path, [HEADER, *POINTS,
                        {"event": "start", "run_id": "p0", "attempt": 1},
                        {"event": "done", "run_id": "p0", "attempt": 1,
                         "duration": 0.5, "result": {"value": 42}}])
        state = Ledger.load(str(path))
        assert state.fingerprint == "abc123"
        assert state.points == 3
        assert state.runs["p0"].status == "done"
        assert state.runs["p0"].result == {"value": 42}
        assert state.runs["p0"].params == {"depth": 1}
        assert state.runs["p1"].status == "pending"
        assert state.completed_ids() == ["p0"]

    def test_started_but_unfinished_is_not_done(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _journal(path, [HEADER, *POINTS,
                        {"event": "start", "run_id": "p1", "attempt": 1}])
        state = Ledger.load(str(path))
        assert state.runs["p1"].status == "running"
        assert state.completed_ids() == []

    def test_failed_then_retried_then_done(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _journal(path, [HEADER, *POINTS,
                        {"event": "start", "run_id": "p2", "attempt": 1},
                        {"event": "failed", "run_id": "p2", "attempt": 1,
                         "kind": "crash", "error": "exitcode -9"},
                        {"event": "start", "run_id": "p2", "attempt": 2},
                        {"event": "done", "run_id": "p2", "attempt": 2,
                         "duration": 1.0, "result": {"ok": True}}])
        run = Ledger.load(str(path)).runs["p2"]
        assert run.status == "done"
        assert run.attempts == 2
        assert run.error is None

    def test_gave_up_is_terminal_failure(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _journal(path, [HEADER, *POINTS,
                        {"event": "failed", "run_id": "p0", "attempt": 2,
                         "kind": "error", "error": "ValueError: nope"},
                        {"event": "gave_up", "run_id": "p0", "attempts": 2}])
        run = Ledger.load(str(path)).runs["p0"]
        assert run.status == "failed"
        assert "ValueError" in run.error


class TestDurability:
    def test_torn_tail_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _journal(path, [HEADER, *POINTS,
                        {"event": "done", "run_id": "p0", "attempt": 1,
                         "result": {}}])
        with open(path, "a") as handle:
            handle.write('{"event": "done", "run_id": "p1", "resu')  # crash
        state = Ledger.load(str(path))
        assert state.runs["p0"].status == "done"
        assert state.runs["p1"].status == "pending"

    def test_corrupt_interior_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps(HEADER) + "\n")
            handle.write("not json at all\n")
            handle.write(json.dumps(POINTS[0]) + "\n")
        with pytest.raises(CampaignError, match="corrupt ledger line"):
            Ledger.load(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="no ledger"):
            Ledger.load(str(tmp_path / "absent.jsonl"))

    def test_record_requires_open(self, tmp_path):
        with pytest.raises(CampaignError, match="not open"):
            Ledger(str(tmp_path / "x.jsonl")).record({"event": "point"})

    def test_clean_journal_reports_no_truncation(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _journal(path, [HEADER, *POINTS])
        state = Ledger.load(str(path))
        assert state.truncated is False
        assert state.truncated_line is None

    def test_torn_tail_is_reported_with_line_number(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _journal(path, [HEADER, *POINTS])
        with open(path, "a") as handle:
            handle.write('{"event": "done", "run_id": "p2", "res')  # crash
        state = Ledger.load(str(path))
        assert state.truncated is True
        assert state.truncated_line == 5  # header + 3 points + torn tail
        assert state.runs["p2"].status == "pending"

    def test_record_is_one_write_syscall_per_event(self, tmp_path):
        """The whole line (payload + newline) must be a single write().

        That is the invariant behind torn-tail tolerance: a crash can
        truncate the final line but can never interleave two events.
        """
        calls = []

        class Spy:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                calls.append(data)
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        path = tmp_path / "run.jsonl"
        with Ledger(str(path)).open() as ledger:
            ledger._handle = Spy(ledger._handle)
            ledger.record(HEADER)
            ledger.record(POINTS[0])
        assert len(calls) == 2
        for data in calls:
            assert data.endswith("\n")
            json.loads(data)  # each write is one complete event

    def test_fsync_knob(self, tmp_path, monkeypatch):
        import os as _os
        synced = []
        real_fsync = _os.fsync
        monkeypatch.setattr("repro.campaign.ledger.os.fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        path = tmp_path / "run.jsonl"
        with Ledger(str(path), fsync=True).open() as ledger:
            ledger.record(HEADER)
            ledger.record(POINTS[0])
        assert len(synced) == 2
        with Ledger(str(path), fsync=False).open(append=True) as ledger:
            ledger.record(POINTS[1])
        assert len(synced) == 2  # off by default

    def test_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _journal(path, [HEADER, *POINTS,
                        {"event": "done", "run_id": "p0", "attempt": 1,
                         "result": {}}])
        summary = Ledger.load(str(path)).summary()
        assert "3 points" in summary
        assert "1 done" in summary


class TestResumeMeta:
    """A resume compares the header's shared keys, not just the sweep."""

    @staticmethod
    def _job(**kw):
        from repro.campaign.job import JobSpec
        points = [{"run_id": "p0", "index": 0, "params": {}, "seed": 1}]
        kw.setdefault("kind", "lss")
        kw.setdefault("lss_text", "system a;\n")
        return JobSpec(name="j", points=points, sweep_fingerprint="abc123",
                       **kw)

    def test_other_spec_text_is_refused(self, tmp_path):
        from repro.campaign.job import open_journal
        path = str(tmp_path / "run.jsonl")
        open_journal(self._job(), path, resume=False, meta={})[0].close()
        before = open(path, "rb").read()
        with pytest.raises(CampaignError, match="spec="):
            open_journal(self._job(lss_text="system b;\n"), path,
                         resume=True, meta={})
        assert open(path, "rb").read() == before
        ledger, _ = open_journal(self._job(), path, resume=True, meta={})
        ledger.close()

    def test_key_an_older_header_lacks_is_not_compared(self, tmp_path):
        from repro.campaign.job import open_journal
        path = tmp_path / "run.jsonl"
        _journal(path, [dict(HEADER, meta={"kind": "lss", "cycles": 1000}),
                        *POINTS])
        ledger, _ = open_journal(self._job(), str(path), resume=True,
                                 meta={})
        ledger.close()
        with pytest.raises(CampaignError, match="kind='lss', not 'fn'"):
            open_journal(self._job(kind="fn", lss_text=None, target="m:f"),
                         str(path), resume=True, meta={})
