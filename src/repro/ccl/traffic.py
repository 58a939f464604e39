"""Traffic workload generation — "modeling of traffic workloads" is the
first challenge Orion names (§3.3), and the statistical packet
generator of §2.2's abstraction-swap story lives here.

:class:`PacketInjector` generates :class:`~repro.ccl.packet.Packet`
streams under the classic NoC traffic patterns; :class:`PacketEjector`
consumes them, checking delivery and recording end-to-end latency.
Both are Moore modules, so they never create scheduling cycles.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

import numpy as np

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from .packet import Packet

_PATTERNS = ("uniform", "transpose", "bitcomp", "hotspot", "neighbor",
             "custom")


def _transpose(node, shape) -> Tuple[int, int]:
    return (node[1], node[0])


def _bitcomp(node, shape) -> Tuple[int, int]:
    width, height = shape
    return (width - 1 - node[0], height - 1 - node[1])


class PacketInjector(LeafModule):
    """Inject packets from one node under a statistical pattern.

    Parameters
    ----------
    node:
        This injector's network address (e.g. mesh ``(x, y)``).
    nodes:
        All addresses in the network (destination domain).
    pattern:
        ``'uniform'`` — uniform random over other nodes;
        ``'transpose'`` — fixed destination ``(y, x)``;
        ``'bitcomp'`` — fixed mirror destination (needs ``shape``);
        ``'hotspot'`` — probability ``hotspot_frac`` to ``hotspot``,
        else uniform; ``'neighbor'`` — uniform over nodes at hop
        distance 1 (needs ``topology``); ``'custom'`` — algorithmic
        ``choose(now, rng) -> dst | None``.
    rate:
        Injection probability per cycle (offered load,
        packets/node/cycle).
    size:
        Packet size in flits.
    shape, topology, hotspot, hotspot_frac, choose, seed:
        Pattern-specific knobs.

    Statistics: ``injected``, ``source_queued`` (cycles a generated
    packet waited for the network to accept it).
    """

    PARAMS = (
        Parameter("node", None),
        Parameter("nodes", ()),
        Parameter("pattern", "uniform",
                  validate=lambda v: v in _PATTERNS),
        Parameter("rate", 0.1, validate=lambda v: 0.0 <= v <= 1.0),
        Parameter("size", 1, validate=lambda v: v >= 1),
        Parameter("shape", None),
        Parameter("topology", None),
        Parameter("hotspot", None),
        Parameter("hotspot_frac", 0.2),
        Parameter("choose", None),
        Parameter("seed", 0),
        Parameter("payload_of", None,
                  doc="optional payload factory payload_of(now, dst)"),
    )
    PORTS = (PortDecl("out", OUTPUT, min_width=1, max_width=1),)
    DEPS = {}

    def init(self) -> None:
        base = (self.p["seed"] * 7_368_787) ^ zlib.crc32(self.path.encode())
        self.rng = np.random.default_rng(base & 0x7FFFFFFF)
        self._others = [n for n in self.p["nodes"] if n != self.p["node"]]
        self._pending: Optional[Packet] = None
        self._decide(0)

    def _pick_dst(self, now: int):
        pattern = self.p["pattern"]
        node = self.p["node"]
        if pattern == "uniform":
            return self._others[self.rng.integers(len(self._others))] \
                if self._others else None
        if pattern == "transpose":
            dst = _transpose(node, self.p["shape"])
            return dst if dst != node else None
        if pattern == "bitcomp":
            dst = _bitcomp(node, self.p["shape"])
            return dst if dst != node else None
        if pattern == "hotspot":
            hot = self.p["hotspot"]
            if hot != node and self.rng.random() < self.p["hotspot_frac"]:
                return hot
            return self._others[self.rng.integers(len(self._others))] \
                if self._others else None
        if pattern == "neighbor":
            topo = self.p["topology"]
            near = [n for n in self._others if topo.hop_distance(node, n) == 1]
            return near[self.rng.integers(len(near))] if near else None
        chooser = self.p["choose"]
        return chooser(now, self.rng) if chooser is not None else None

    def _decide(self, now: int) -> None:
        if self._pending is not None:
            return
        if self.rng.random() >= self.p["rate"]:
            return
        dst = self._pick_dst(now)
        if dst is None:
            return
        factory = self.p["payload_of"]
        payload = factory(now, dst) if factory is not None else None
        self._pending = Packet(self.p["node"], dst, payload=payload,
                               size=self.p["size"], created=now)

    def react(self) -> None:
        out = self.io_out
        if self._pending is not None:
            out.send(0, self._pending)
        else:
            out.send_nothing(0)

    def update(self) -> None:
        out = self.io_out
        if self._pending is not None:
            if out.took(0):
                self.collect("injected")
                self._pending = None
            else:
                self.collect("source_queued")
        self._decide(self.now + 1)


class PacketEjector(LeafModule):
    """Consume packets at a node; verify delivery; record latency/hops.

    Statistics: ``ejected``, ``misrouted``; histograms ``latency``
    (end-to-end, including source queuing) and ``hops``.
    """

    PARAMS = (
        Parameter("node", None),
        Parameter("on_packet", None,
                  doc="callback(now, packet) per delivered packet"),
    )
    PORTS = (PortDecl("in", INPUT, min_width=1, max_width=1),)
    DEPS = {}

    def react(self) -> None:
        self.io_in.set_ack(0, True)

    def update(self) -> None:
        inp = self.io_in
        if inp.took(0):
            packet: Packet = inp.value(0)
            self.collect("ejected")
            node = self.p["node"]
            if node is not None and packet.dst != node:
                self.collect("misrouted")
            self.record("latency", float(self.now - packet.created))
            self.record("hops", float(packet.hops))
            callback = self.p["on_packet"]
            if callback is not None:
                callback(self.now, packet)


def attach_traffic(body, mesh, routers, *, pattern: str = "uniform",
                   rate: float = 0.1, size: int = 1, seed: int = 0,
                   hotspot=None, prefix: str = "") -> Tuple[List, List]:
    """Attach a :class:`PacketInjector`/:class:`PacketEjector` pair to
    every router's LOCAL ports.  Returns (injector handles, ejector
    handles) in ``mesh.nodes()`` order.
    """
    from .topology import LOCAL
    injectors, ejectors = [], []
    nodes = mesh.nodes()
    shape = (mesh.width, mesh.height)
    for node in nodes:
        x, y = node
        inj = body.instance(f"{prefix}inj_{x}_{y}", PacketInjector,
                            node=node, nodes=tuple(nodes), pattern=pattern,
                            rate=rate, size=size, seed=seed,
                            shape=shape, topology=mesh, hotspot=hotspot)
        ej = body.instance(f"{prefix}ej_{x}_{y}", PacketEjector, node=node)
        body.connect(inj.port("out"), routers[node].port("in", LOCAL))
        body.connect(routers[node].port("out", LOCAL), ej.port("in"))
        injectors.append(inj)
        ejectors.append(ej)
    return injectors, ejectors
