"""Analytical network representation (paper §3.4).

"The support for multiple levels of abstraction in LSE also allows for
simulation acceleration by integrating a detailed simulator of some
portions with analytical representations of other system components.
Such abstraction may increase the applicability of workload-driven
analytical models proposed for multiprocessor performance
evaluation [24]."

:class:`AnalyticalFabric` is that analytical representation for a
network: it presents the *same port shape* as a mesh built from
structural routers (one in/out pair per node, packets in, packets
out), but instead of simulating buffers, arbiters and links it
computes each packet's delivery time from a queueing model:

    latency = hops * hop_cost + M/M/1 waiting time per hop,
    W = rho / (1 - rho) * hop_cost,   rho = measured offered load

with ``rho`` estimated online from an exponentially-weighted moving
average of the injection rate (workload-driven, as [24] prescribes).
A simulation can therefore swap the detailed CCL network for this
module — or mix the two in one system — trading fidelity for speed
without touching any endpoint.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from typing import Dict, List, Tuple

import numpy as np

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from .packet import Packet
from .topology import Mesh


class AnalyticalFabric(LeafModule):
    """A whole network reduced to a latency formula.

    Ports ``in``/``out`` are indexed by node order (``topology.nodes()``),
    exactly like the LOCAL ports of a detailed ``build_mesh_network``
    construction — endpoint modules cannot tell the difference.

    Parameters
    ----------
    topology:
        Provides ``nodes()`` and ``hop_distance`` (Mesh/Torus/Ring).
    hop_cost:
        Cycles per hop at zero load (router + link traversal).
    capacity:
        Saturation throughput in packets/node/cycle; the utilization
        estimate is ``offered_load / capacity``, clamped below 1.
    ewma:
        Smoothing factor for the online load estimate.
    jitter:
        Uniform +/- fraction applied to each latency sample (a cheap
        stand-in for contention variance; 0 = deterministic).
    seed:
        RNG seed for jitter.

    Statistics: ``accepted``, ``delivered``; histogram ``model_latency``
    (the sampled delays); gauge-ish counter ``rho_percent_max``.
    """

    PARAMS = (
        Parameter("topology", None),
        Parameter("hop_cost", 2.0, validate=lambda v: v > 0),
        Parameter("capacity", 0.5, validate=lambda v: v > 0),
        Parameter("ewma", 0.05, validate=lambda v: 0 < v <= 1),
        Parameter("jitter", 0.0, validate=lambda v: 0 <= v < 1),
        Parameter("seed", 0),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1),
        PortDecl("out", OUTPUT, min_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        base = (self.p["seed"] * 40_503) ^ zlib.crc32(self.path.encode())
        self.rng = np.random.default_rng(base & 0x7FFFFFFF)
        self.nodes: List = list(self.p["topology"].nodes())
        self.index_of: Dict = {n: i for i, n in enumerate(self.nodes)}
        self._inflight: List[Tuple[int, int, int, Packet]] = []  # heap
        self._tiebreak = itertools.count()
        self._arrivals_this_cycle = 0
        self.rho = 0.0

    # ------------------------------------------------------------------
    def _latency(self, packet: Packet) -> int:
        topo = self.p["topology"]
        hops = max(1, topo.hop_distance(packet.src, packet.dst))
        hop_cost = self.p["hop_cost"]
        rho = min(0.95, self.rho)
        waiting = rho / (1.0 - rho) * hop_cost
        total = hops * hop_cost + hops * waiting
        jitter = self.p["jitter"]
        if jitter:
            total *= 1.0 + self.rng.uniform(-jitter, jitter)
        return max(1, int(round(total)))

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        for i in range(inp.width):
            inp.set_ack(i, True)  # infinite analytical capacity
        ready: Dict[int, Packet] = {}
        for due, _, dst_index, packet in self._inflight:
            if due <= self.now and dst_index not in ready:
                ready[dst_index] = packet
        for j in range(out.width):
            if j in ready:
                out.send(j, ready[j])
            else:
                out.send_nothing(j)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        # Deliveries (re-deriving the heads offered in react).
        ready: Dict[int, Tuple[int, int, int, Packet]] = {}
        for entry in self._inflight:
            due, _, dst_index, _ = entry
            if due <= self.now and dst_index not in ready:
                ready[dst_index] = entry
        for j, entry in ready.items():
            if j < out.width and out.took(j):
                self._inflight.remove(entry)
                self.collect("delivered")
        heapq.heapify(self._inflight)
        # Arrivals.
        arrivals = 0
        for i in range(inp.width):
            if inp.took(i):
                packet: Packet = inp.value(i)
                arrivals += 1
                delay = self._latency(packet)
                self.record("model_latency", float(delay))
                packet.hops = self.p["topology"].hop_distance(packet.src,
                                                              packet.dst)
                dst_index = self.index_of.get(packet.dst, 0)
                heapq.heappush(self._inflight,
                               (self.now + delay, next(self._tiebreak),
                                dst_index, packet))
                self.collect("accepted")
        # Online load estimate (packets/node/cycle), EWMA-smoothed.
        offered = arrivals / max(1, len(self.nodes))
        alpha = self.p["ewma"]
        load = (1 - alpha) * (self.rho * self.p["capacity"]) \
            + alpha * offered
        self.rho = min(0.99, load / self.p["capacity"])


def attach_analytical_traffic(body, topology, fabric, *, pattern="uniform",
                              rate=0.1, seed=0, prefix=""):
    """Attach injector/ejector pairs to an :class:`AnalyticalFabric`.

    Mirrors :func:`repro.ccl.traffic.attach_traffic` so the same
    endpoint code drives either network representation.
    """
    from .traffic import PacketEjector, PacketInjector
    injectors, ejectors = [], []
    nodes = list(topology.nodes())
    shape = (getattr(topology, "width", len(nodes)),
             getattr(topology, "height", 1))
    for index, node in enumerate(nodes):
        x, y = node if isinstance(node, tuple) else (node, 0)
        inj = body.instance(f"{prefix}inj_{x}_{y}", PacketInjector,
                            node=node, nodes=tuple(nodes), pattern=pattern,
                            rate=rate, seed=seed, shape=shape,
                            topology=topology)
        ej = body.instance(f"{prefix}ej_{x}_{y}", PacketEjector, node=node)
        body.connect(inj.port("out"), fabric.port("in", index))
        body.connect(fabric.port("out", index), ej.port("in"))
        injectors.append(inj)
        ejectors.append(ej)
    return injectors, ejectors
