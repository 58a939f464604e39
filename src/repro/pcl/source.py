"""Traffic/data sources.

:class:`Source` is the generic producer template; its ``pattern``
parameter selects among built-in emission disciplines and its
``generator`` algorithmic parameter replaces them entirely.  It is the
"statistical packet generator" of the paper's §2.2 when customized with
a stochastic pattern, and a plain stimulus block otherwise.
"""

from __future__ import annotations

import zlib
from typing import Any, Optional

import numpy as np

from ..core import LeafModule, Parameter, PortDecl, OUTPUT

_PATTERNS = ("always", "bernoulli", "periodic", "counter", "list", "custom")


class Source(LeafModule):
    """Produce a value on each output index according to a pattern.

    Parameters
    ----------
    pattern:
        One of ``'always'`` (emit ``payload`` every cycle),
        ``'bernoulli'`` (emit with probability ``rate``),
        ``'periodic'`` (emit every ``period`` cycles),
        ``'counter'`` (emit 0, 1, 2, ... unconditionally),
        ``'list'`` (emit successive elements of ``items``, then stop),
        ``'custom'`` (call the algorithmic ``generator``).
    payload:
        Datum emitted by ``'always'``/``'bernoulli'``/``'periodic'``.
        If callable, invoked as ``payload(now, index)`` per emission.
    rate, period, items:
        Pattern-specific knobs.
    generator:
        Algorithmic parameter for ``'custom'``:
        ``generator(now, index, rng) -> value | None`` (None = idle).
    seed:
        Per-instance RNG seed; combined with the instance path so
        replicated sources decorrelate deterministically.
    blocking:
        If True, an emitted-but-refused datum is retried next cycle
        (lossless source); if False it is dropped and regenerated.

    Statistics: ``emitted`` (transfers), ``offered``, ``dropped``.
    """

    PARAMS = (
        Parameter("pattern", "always",
                  validate=lambda v: v in _PATTERNS,
                  doc="emission discipline"),
        Parameter("payload", 1, doc="datum (or callable(now, index))"),
        Parameter("rate", 0.5, validate=lambda v: 0.0 <= v <= 1.0,
                  doc="bernoulli emission probability"),
        Parameter("period", 1, validate=lambda v: v >= 1,
                  doc="cycles between periodic emissions"),
        Parameter("items", (), doc="sequence for pattern='list'"),
        Parameter("generator", None, doc="custom generator fn", kind="value"),
        Parameter("seed", 0, doc="rng seed"),
        Parameter("blocking", True, doc="retry refused data next cycle"),
    )
    PORTS = (PortDecl("out", OUTPUT, min_width=1,
                      doc="produced data stream(s)"),)
    DEPS = {}  # Moore: outputs depend only on internal state
    #: Vectorization introspection: the emission discipline selects the
    #: vec impl's code path (uniform per lockstep group), while the
    #: numeric knobs broadcast per lane — a random sweep over ``rate``
    #: stays in one batch.
    VEC_UNIFORM_PARAMS = ("pattern",)
    VEC_LANE_PARAMS = ("rate", "period", "blocking")

    def init(self) -> None:
        width = self.io_out.width
        base = (self.p["seed"] * 1000003) ^ zlib.crc32(self.path.encode())
        self.rng = np.random.default_rng(base & 0x7FFFFFFF)
        self._counter = 0
        self._list_pos = 0
        self._pending: list = [None] * width
        self._plan(0)

    # ------------------------------------------------------------------
    def _make_value(self, now: int, index: int) -> Optional[Any]:
        pattern = self.p["pattern"]
        payload = self.p["payload"]
        if pattern == "always":
            return payload(now, index) if callable(payload) else payload
        if pattern == "bernoulli":
            if self.rng.random() < self.p["rate"]:
                return payload(now, index) if callable(payload) else payload
            return None
        if pattern == "periodic":
            if now % self.p["period"] == 0:
                return payload(now, index) if callable(payload) else payload
            return None
        if pattern == "counter":
            value = self._counter
            self._counter += 1
            return value
        if pattern == "list":
            items = self.p["items"]
            if self._list_pos < len(items):
                value = items[self._list_pos]
                self._list_pos += 1
                return value
            return None
        # custom
        gen = self.p["generator"]
        if gen is None:
            return None
        return gen(now, index, self.rng)

    def _plan(self, now: int) -> None:
        """Decide, once per timestep, what each index offers."""
        for i in range(len(self._pending)):
            if self._pending[i] is None:
                self._pending[i] = self._make_value(now, i)

    def react(self) -> None:
        # Must stay idempotent: the worklist engine may invoke react
        # several times per timestep, so statistics are counted once in
        # update() instead of here (cross-engine parity).
        out = self.io_out
        for i in range(out.width):
            value = self._pending[i]
            if value is None:
                out.send_nothing(i)
            else:
                out.send(i, value)

    def update(self) -> None:
        out = self.io_out
        for i in range(out.width):
            if self._pending[i] is not None:
                self.collect("offered")
                if out.took(i):
                    self.collect("emitted")
                    self._pending[i] = None
                elif not self.p["blocking"]:
                    self.collect("dropped")
                    self._pending[i] = None
        self._plan(self.now + 1)


class TraceSource(LeafModule):
    """Replay a timestamped trace: emit ``value`` exactly at ``cycle``.

    The ``trace`` parameter is an iterable of ``(cycle, value)`` pairs,
    sorted by cycle.  Values whose cycle has passed while a previous
    value was blocked queue up behind it (the trace is lossless).

    Statistics: ``emitted``, ``backlog_max``.
    """

    PARAMS = (
        Parameter("trace", (), doc="iterable of (cycle, value), sorted"),
    )
    PORTS = (PortDecl("out", OUTPUT, min_width=1, max_width=1),)
    DEPS = {}

    def init(self) -> None:
        self._trace = list(self.p["trace"])
        self._pos = 0
        self._backlog: list = []

    def _refill(self, now: int) -> None:
        while self._pos < len(self._trace) and self._trace[self._pos][0] <= now:
            self._backlog.append(self._trace[self._pos][1])
            self._pos += 1
        hist = self.sim.stats if self.sim else None
        if hist is not None and self._backlog:
            current = self.sim.stats.counter(self.path, "backlog_max")
            if len(self._backlog) > current:
                self.sim.stats.add(self.path, "backlog_max",
                                   len(self._backlog) - current)

    def react(self) -> None:
        self._refill(self.now)
        out = self.io_out
        if self._backlog:
            out.send(0, self._backlog[0])
        else:
            out.send_nothing(0)

    def update(self) -> None:
        out = self.io_out
        if self._backlog and out.took(0):
            self._backlog.pop(0)
            self.collect("emitted")
        self._refill(self.now + 1)
