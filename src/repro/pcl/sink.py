"""Data sinks with configurable acceptance (backpressure) behaviour."""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np

from ..core import LeafModule, Parameter, PortDecl, INPUT

_ACCEPT = ("always", "never", "bernoulli", "custom")


class Sink(LeafModule):
    """Consume data, optionally exerting backpressure.

    Parameters
    ----------
    accept:
        ``'always'``, ``'never'``, ``'bernoulli'`` (probability
        ``rate``) or ``'custom'`` (algorithmic ``policy``).
    rate:
        Acceptance probability for ``'bernoulli'``.
    policy:
        Algorithmic parameter for ``'custom'``:
        ``policy(now, index, rng) -> bool``.
    on_consume:
        Optional callback ``on_consume(now, index, value)`` fired for
        every consumed datum (hook for checks and scoreboards).
    seed:
        Per-instance RNG seed (path-decorrelated).

    Statistics: ``consumed``, ``refused``; histogram ``value`` when the
    consumed data are numeric.
    """

    PARAMS = (
        Parameter("accept", "always", validate=lambda v: v in _ACCEPT),
        Parameter("rate", 0.5, validate=lambda v: 0.0 <= v <= 1.0),
        Parameter("policy", None),
        Parameter("on_consume", None),
        Parameter("record_values", False,
                  doc="sample numeric payloads into the 'value' histogram"),
        Parameter("seed", 0),
    )
    PORTS = (PortDecl("in", INPUT, min_width=1, doc="data to consume"),)
    DEPS = {}  # acks decided from per-cycle pre-drawn state only
    #: Vectorization introspection: acceptance mode is structural
    #: (uniform), the bernoulli rate broadcasts per lane.
    VEC_UNIFORM_PARAMS = ("accept",)
    VEC_LANE_PARAMS = ("rate",)

    def init(self) -> None:
        width = self.io_in.width
        base = (self.p["seed"] * 999331) ^ zlib.crc32(self.path.encode())
        self.rng = np.random.default_rng(base & 0x7FFFFFFF)
        self._accepts = [True] * width
        self._draw(0)

    def _draw(self, now: int) -> None:
        mode = self.p["accept"]
        for i in range(len(self._accepts)):
            if mode == "always":
                self._accepts[i] = True
            elif mode == "never":
                self._accepts[i] = False
            elif mode == "bernoulli":
                self._accepts[i] = bool(self.rng.random() < self.p["rate"])
            else:
                policy = self.p["policy"]
                self._accepts[i] = bool(policy(now, i, self.rng)) \
                    if policy is not None else True

    def react(self) -> None:
        inp = self.io_in
        for i in range(inp.width):
            inp.set_ack(i, self._accepts[i])

    def update(self) -> None:
        inp = self.io_in
        callback = self.p["on_consume"]
        for i in range(inp.width):
            if inp.took(i):
                self.collect("consumed")
                value = inp.value(i)
                if callback is not None:
                    callback(self.now, i, value)
                if self.p["record_values"] and isinstance(value, (int, float)):
                    self.record("value", float(value))
            elif inp.present(i) and not self._accepts[i]:
                self.collect("refused")
        self._draw(self.now + 1)


class LatencySink(LeafModule):
    """A sink that measures end-to-end latency of timestamped payloads.

    Expects payloads exposing a creation timestep either as the
    attribute named by ``stamp_attr`` or via the algorithmic ``stamp``
    extractor.  Always accepts.

    Statistics: ``consumed``; histogram ``latency``.
    """

    PARAMS = (
        Parameter("stamp_attr", "created", doc="attribute holding the birth cycle"),
        Parameter("stamp", None, doc="algorithmic extractor stamp(value)->int"),
    )
    PORTS = (PortDecl("in", INPUT, min_width=1),)
    DEPS = {}

    def react(self) -> None:
        inp = self.io_in
        for i in range(inp.width):
            inp.set_ack(i, True)

    def update(self) -> None:
        inp = self.io_in
        extractor = self.p["stamp"]
        for i in range(inp.width):
            if inp.took(i):
                self.collect("consumed")
                value = inp.value(i)
                if extractor is not None:
                    born = extractor(value)
                else:
                    born = getattr(value, self.p["stamp_attr"], None)
                if born is not None:
                    self.record("latency", float(self.now - born))
