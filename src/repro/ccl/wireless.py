"""Wireless fabric abstraction for sensor networks (§3.3).

The paper's CCL "targets ... wireless fabrics in sensor networks" and
reports "various abstractions of different traffic patterns in mobile
sensor networks".  :class:`WirelessMedium` is that abstraction: a
shared broadcast medium with per-cycle channel arbitration (perfect
CSMA or collision semantics) and a Bernoulli loss process.

Convention: input index *i* and output index *i* belong to the same
radio; a winner's packet is delivered to every *other* output index
(receivers filter by destination address).
"""

from __future__ import annotations

import zlib
from typing import List, Optional

import numpy as np

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT, ack, fwd


class WirelessMedium(LeafModule):
    """Shared radio channel: one transmission per cycle, lossy.

    Parameters
    ----------
    mac:
        ``'csma'`` — exactly one contender wins each cycle (rotating
        priority), the rest are refused (they retry: carrier sensing);
        ``'collide'`` — if more than one radio transmits, *all* their
        packets are lost (pure ALOHA).
    loss:
        Per-receiver probability that a delivered packet is corrupted
        and dropped.
    seed:
        RNG seed (path-decorrelated).

    Statistics: ``transmissions``, ``collisions``, ``losses``,
    ``deliveries``.
    """

    PARAMS = (
        Parameter("mac", "csma", validate=lambda v: v in ("csma", "collide")),
        Parameter("loss", 0.0, validate=lambda v: 0.0 <= v <= 1.0),
        Parameter("seed", 0),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, doc="radio transmit ports"),
        PortDecl("out", OUTPUT, min_width=1, doc="radio receive ports"),
    )
    DEPS = {
        fwd("out"): (fwd("in"),),
        ack("in"): (fwd("in"),),
    }

    def init(self) -> None:
        base = (self.p["seed"] * 2_654_435_761) ^ zlib.crc32(self.path.encode())
        self.rng = np.random.default_rng(base & 0x7FFFFFFF)
        self._rotor = 0
        self._plan_cycle = -1
        self._winner: Optional[int] = None
        self._collided = False
        self._drops: List[bool] = []

    def _plan(self) -> None:
        """Choose the winner and loss draws once per cycle."""
        if self._plan_cycle == self.now:
            return
        inp = self.io_in
        senders = inp.indices_present()
        self._plan_cycle = self.now
        self._collided = False
        self._winner = None
        out_width = self.io_out.width
        self._drops = [bool(self.rng.random() < self.p["loss"])
                       for _ in range(out_width)]
        if not senders:
            return
        if len(senders) > 1 and self.p["mac"] == "collide":
            self._collided = True
            return
        ordered = sorted(senders,
                         key=lambda i: (i - self._rotor) % max(1, inp.width))
        self._winner = ordered[0]

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        if not inp.all_known():
            return
        self._plan()
        winner = self._winner
        for i in range(inp.width):
            if self._collided:
                inp.set_ack(i, inp.present(i))  # consumed (and lost)
            else:
                inp.set_ack(i, i == winner)
        if winner is None:
            for j in range(out.width):
                out.send_nothing(j)
            return
        packet = inp.value(winner)
        for j in range(out.width):
            if j == winner or self._drops[j]:
                out.send_nothing(j)
            else:
                out.send(j, packet)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        if self._collided:
            lost = len(inp.indices_present())
            self.collect("collisions")
            self.collect("losses", lost)
        elif self._winner is not None and inp.took(self._winner):
            self.collect("transmissions")
            self._rotor = self._winner + 1
            for j in range(out.width):
                if j == self._winner:
                    continue
                if out.took(j):
                    self.collect("deliveries")
                elif self._drops[j]:
                    self.collect("losses")
        self._plan_cycle = -1
        self._winner = None
        self._collided = False
