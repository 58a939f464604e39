"""The durable run ledger: an append-only JSONL manifest.

Every campaign writes one event per line as it happens — header first,
then per-run lifecycle events — and flushes after each write, so the
file is a faithful journal even if the orchestrator is killed half-way.
``Ledger.load`` replays the journal into per-run state; a truncated
final line (the classic crash-during-write artifact) is tolerated and
ignored.

Event kinds::

    {"event": "campaign", "fingerprint": ..., "points": N, "meta": {...}}
    {"event": "point",  "run_id": ..., "index": i, "params": {...}, "seed": s}
    {"event": "start",  "run_id": ..., "attempt": k[, "task": id]}
    {"event": "done",   "run_id": ..., "attempt": k, "duration": secs,
                        "result": {...}}
    {"event": "failed", "run_id": ..., "attempt": k, "kind":
                        "error"|"timeout"|"crash", "error": "..."}
    {"event": "gave_up", "run_id": ..., "attempts": k}

``resume`` semantics: a run whose latest terminal event is ``done`` is
skipped; everything else (never started, started-but-unfinished,
failed, gave up) is executed again.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .errors import CampaignError


@dataclass
class RunState:
    """Replayed per-run view of the journal."""

    run_id: str
    index: int = -1
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    status: str = "pending"   # pending | running | done | failed
    attempts: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    duration: Optional[float] = None
    #: Id of the task the run last started in: a batch task's id, else
    #: the run's own (what its checkpoint file is named after).
    task: Optional[str] = None


@dataclass
class LedgerState:
    """Everything ``Ledger.load`` recovers from a journal file."""

    fingerprint: Optional[str] = None
    points: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    runs: Dict[str, RunState] = field(default_factory=dict)
    #: ``True`` when the journal ended in a torn (half-written) line —
    #: the classic artifact of a process killed mid-``record``.  The
    #: replayed state is still valid (the torn event never happened,
    #: exactly as if the crash hit one instruction earlier), but
    #: resuming callers can surface it; ``truncated_line`` is the
    #: 1-based line number of the torn tail.
    truncated: bool = False
    truncated_line: Optional[int] = None

    def completed_ids(self) -> List[str]:
        return [rid for rid, r in self.runs.items() if r.status == "done"]

    def summary(self) -> str:
        by_status: Dict[str, int] = {}
        for run in self.runs.values():
            by_status[run.status] = by_status.get(run.status, 0) + 1
        parts = [f"{n} {s}" for s, n in sorted(by_status.items())]
        return f"{self.points} points: " + (", ".join(parts) or "none started")


class Ledger:
    """Append-only writer for the campaign journal.

    ``fsync=True`` additionally forces each event to stable storage
    before :meth:`record` returns — the multi-host durability knob: a
    coordinator that acknowledged a completion must still know about
    it after a power loss, not just after a process crash.
    """

    def __init__(self, path: str, *, fsync: bool = False):
        self.path = path
        self.fsync = fsync
        self._handle = None

    # -- writing ---------------------------------------------------------
    def open(self, append: bool = False) -> "Ledger":
        mode = "a" if append else "w"
        self._handle = open(self.path, mode, encoding="utf-8")
        return self

    def record(self, event: Dict[str, Any]) -> None:
        if self._handle is None:
            raise CampaignError(f"ledger {self.path!r} is not open")
        # One write() per event: the whole line (payload + newline)
        # reaches the OS in a single syscall, so a crash between events
        # can only ever leave a torn *final* line, never an event
        # spliced into the middle of another — the invariant load()'s
        # truncation tolerance depends on.
        line = json.dumps(event, sort_keys=True, default=repr) + "\n"
        self._handle.write(line)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay ----------------------------------------------------------
    @staticmethod
    def load(path: str) -> LedgerState:
        """Replay a journal into per-run state.

        A corrupt *final* line is tolerated (the crash-mid-write
        artifact) and **reported** via ``state.truncated`` /
        ``state.truncated_line``, so resuming callers can tell the
        operator the previous process died mid-event; a corrupt line
        anywhere else raises :class:`CampaignError`, since that means
        the journal was edited or interleaved.
        """
        state = LedgerState()
        if not os.path.exists(path):
            raise CampaignError(f"no ledger at {path!r}")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    state.truncated = True
                    state.truncated_line = lineno + 1
                    break  # torn tail write from a crash; journal still valid
                raise CampaignError(
                    f"{path}:{lineno + 1}: corrupt ledger line") from None
            Ledger._apply(state, event)
        return state

    @staticmethod
    def _apply(state: LedgerState, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == "campaign":
            state.fingerprint = event.get("fingerprint")
            state.points = event.get("points", 0)
            state.meta = event.get("meta", {})
            return
        run_id = event.get("run_id")
        if run_id is None:
            return
        run = state.runs.setdefault(run_id, RunState(run_id))
        if kind == "point":
            run.index = event.get("index", -1)
            run.params = event.get("params", {})
            run.seed = event.get("seed", 0)
        elif kind == "start":
            run.status = "running"
            run.attempts = max(run.attempts, event.get("attempt", 1))
            run.task = event.get("task", run_id)
        elif kind == "done":
            run.status = "done"
            run.result = event.get("result")
            run.duration = event.get("duration")
            run.error = None
        elif kind == "failed":
            # A later retry may still succeed; terminal only if gave_up.
            if run.status != "done":
                run.status = "failed"
                run.error = event.get("error")
        elif kind == "gave_up":
            if run.status != "done":
                run.status = "failed"
