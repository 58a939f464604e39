"""Figure 2(c): grids-in-a-box — a message-passing multiprocessor.

"Similar modules used to simulate a chip multiprocessor can now be
extended to simulate systems of a totally different scale — a petaflops
multi-processor grid-in-a-box, with many GP modules from UPL,
sophisticated network interface controllers from NIL, interconnected
with high-speed electrical or optical fabrics from CCL, and glued with
MPL modules."

Each grid node is a GP core + local memory + MMIO register file + DMA
engine (MPL's "DMA controllers for simulating low-overhead
message-passing systems") behind a :class:`GridNI` network interface;
the board-to-board interconnect is a routed CCL :class:`~repro.ccl.bus.Bus`.
The default workload is a ring reduction: node *i* sums its local
array, adds the accumulator received from node *i-1*, and DMAs the
running total (plus a doorbell) into node *i+1*'s memory.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..ccl.bus import Bus
from ..ccl.packet import BusTransaction
from ..core import (HierBody, HierTemplate, LeafModule, Parameter, PortDecl,
                    INPUT, OUTPUT)
from ..core.backends import DEFAULT_ENGINE
from ..core.lss import LSS
from ..mpl.dma import DMAController
from ..nil.firmware import HOST_WINDOW
from ..nil.registers import NICRegisters
from ..pcl.arbiter import Arbiter, fixed_priority
from ..pcl.memory import MemoryArray, MemRequest, MemResponse
from ..pcl.routing import Demux
from ..upl.assembler import assemble
from ..upl.core import SimpleCore
from ..upl.isa import MMIO_BASE, Program

#: Per-node span of the global (remote) address space.
NODE_SPAN = 4096

#: Local-memory layout of the ring-reduce workload.
FLAG_ADDR = 16          # doorbell from the predecessor
ACC_ADDR = 17           # accumulator delivered by the predecessor
OUT_ADDR = 18           # staging: value this node sends onward
RESULT_ADDR = 19        # final total (written by the last node)
DATA_BASE = 64


class GridNI(LeafModule):
    """Network interface: global-address writes <-> bus transactions.

    Outbound (``dma_req``): write requests whose address encodes
    ``HOST_WINDOW + target_node * NODE_SPAN + local_addr`` become
    routed :class:`~repro.ccl.packet.BusTransaction` posts; the DMA
    sees its write acknowledged as soon as the bus accepts it (posted
    writes, as real NIs do).

    Inbound (``bus_in``): remote transactions unwrap into local-memory
    writes through ``mem_req``/``mem_resp``.

    Statistics: ``posted``, ``delivered``.
    """

    PARAMS = (
        Parameter("node", 0),
    )
    PORTS = (
        PortDecl("dma_req", INPUT, min_width=1, max_width=1),
        PortDecl("dma_resp", OUTPUT, min_width=1, max_width=1),
        PortDecl("bus_out", OUTPUT, min_width=1, max_width=1),
        PortDecl("bus_in", INPUT, min_width=1, max_width=1),
        PortDecl("mem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("mem_resp", INPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self._out: Optional[BusTransaction] = None
        self._ack: Optional[MemResponse] = None
        self._inbound: Optional[MemRequest] = None
        self._inbound_busy = False

    def react(self) -> None:
        dma_req = self.io_dma_req
        dma_resp = self.io_dma_resp
        bus_out = self.io_bus_out
        mem_req = self.io_mem_req
        self.io_bus_in.set_ack(0, self._inbound is None)
        self.io_mem_resp.set_ack(0, True)
        dma_req.set_ack(0, self._out is None and self._ack is None)
        if self._out is not None:
            bus_out.send(0, self._out)
        else:
            bus_out.send_nothing(0)
        if self._ack is not None:
            dma_resp.send(0, self._ack)
        else:
            dma_resp.send_nothing(0)
        if self._inbound is not None and not self._inbound_busy:
            mem_req.send(0, self._inbound)
        else:
            mem_req.send_nothing(0)

    def update(self) -> None:
        dma_req = self.io_dma_req
        dma_resp = self.io_dma_resp
        bus_out = self.io_bus_out
        bus_in = self.io_bus_in
        mem_req = self.io_mem_req
        mem_resp = self.io_mem_resp

        if self._ack is not None and dma_resp.took(0):
            self._ack = None
        if self._out is not None and bus_out.took(0):
            # Posted write: acknowledge the DMA now.
            request = self._out.payload
            self._ack = MemResponse("write", request.addr, request.value,
                                    request.tag)
            self._out = None
            self.collect("posted")
        if self._inbound is not None and mem_req.took(0):
            self._inbound_busy = True
        if mem_resp.took(0) and self._inbound_busy:
            self._inbound = None
            self._inbound_busy = False
            self.collect("delivered")
        if bus_in.took(0):
            txn: BusTransaction = bus_in.value(0)
            self._inbound = txn.payload
        if self._out is None and self._ack is None and dma_req.took(0):
            request: MemRequest = dma_req.value(0)
            offset = request.addr - HOST_WINDOW
            target = offset // NODE_SPAN
            local = offset % NODE_SPAN
            self._out = BusTransaction(
                self.p["node"], target,
                MemRequest(request.op, local, value=request.value,
                           tag=request.tag),
                created=self.now)


def _route_core(request: MemRequest, out_width: int, now: int) -> int:
    return 1 if request.addr >= MMIO_BASE else 0


def _route_dma(request: MemRequest, out_width: int, now: int) -> int:
    return 1 if request.addr >= HOST_WINDOW else 0


class GridNode(HierTemplate):
    """One grid node: GP core + local memory + DMA + register file + NI.

    Exported ports: ``bus_out`` / ``bus_in`` (the board-to-board
    interconnect attachment).
    """

    PARAMS = (
        Parameter("program", None),
        Parameter("node", 0),
        Parameter("mem_size", 1024),
        Parameter("init", None),
    )
    PORTS = (
        PortDecl("bus_out", OUTPUT),
        PortDecl("bus_in", INPUT),
    )

    def build(self, body: HierBody, p: Dict) -> None:
        from ..nil.tigon import _rebase  # shared address-rebasing control
        core = body.instance("core", SimpleCore, program=p["program"])
        mem = body.instance("mem", MemoryArray, size=p["mem_size"],
                            latency=1, init=p["init"])
        regs = body.instance("regs", NICRegisters)
        dma = body.instance("dma", DMAController, burst=1)
        ni = body.instance("ni", GridNI, node=p["node"])

        cdec = body.instance("cdec", Demux, route=_route_core)
        cmerge = body.instance("cmerge", Arbiter, policy=fixed_priority)
        body.connect(core.port("dmem_req"), cdec.port("in"))
        body.connect(cdec.port("out", 0), mem.port("req", 0))
        body.connect(cdec.port("out", 1), regs.port("req"),
                     control=_rebase(MMIO_BASE))
        body.connect(mem.port("resp", 0), cmerge.port("in", 0))
        body.connect(regs.port("resp"), cmerge.port("in", 1))
        body.connect(cmerge.port("out"), core.port("dmem_resp"))

        body.connect(regs.port("dma_cmd"), dma.port("cmd"))
        body.connect(dma.port("done"), regs.port("dma_done"))
        ddec = body.instance("ddec", Demux, route=_route_dma)
        dmerge = body.instance("dmerge", Arbiter, policy=fixed_priority)
        body.connect(dma.port("mem_req"), ddec.port("in"))
        body.connect(ddec.port("out", 0), mem.port("req", 1))
        body.connect(ddec.port("out", 1), ni.port("dma_req"))
        body.connect(mem.port("resp", 1), dmerge.port("in", 0))
        body.connect(ni.port("dma_resp"), dmerge.port("in", 1))
        body.connect(dmerge.port("out"), dma.port("mem_resp"))

        # Inbound remote writes land on memory port 2.
        body.connect(ni.port("mem_req"), mem.port("req", 2))
        body.connect(mem.port("resp", 2), ni.port("mem_resp"))

        body.export("bus_out", ni, "bus_out")
        body.export("bus_in", ni, "bus_in")


def _load_remote(reg: str, node: int, local: int) -> str:
    """Assembly loading ``node``'s remote address of ``local`` into ``reg``.

    A ``lui``/``ori`` pair.  I-format immediates are sign-extended, so
    when the low half has bit 15 set (remote offsets of 2^15 and beyond,
    i.e. more than 8 nodes) the pair is ``lui`` of the next upper half
    and a negative ``addi`` instead.
    """
    addr = HOST_WINDOW + node * NODE_SPAN + local
    upper, lower = addr >> 16, addr & 0xFFFF
    if lower < 0x8000:
        return f"lui  {reg}, {upper:#x}\n        ori  {reg}, {reg}, {lower}"
    return (f"lui  {reg}, {upper + 1:#x}\n"
            f"        addi {reg}, {reg}, {lower - 0x10000}")


def ring_reduce_program(node: int, n_nodes: int, *, k_words: int) -> Program:
    """Node ``node`` of the ring reduction (see module docstring)."""
    next_node = (node + 1) % n_nodes
    wait = "" if node == 0 else f"""
    wait:
        lw   t5, {FLAG_ADDR}(zero)
        beq  t5, zero, wait
        lw   t6, {ACC_ADDR}(zero)
        add  a0, a0, t6
    """
    finish = f"""
        li   t0, {RESULT_ADDR}
        sw   a0, 0(t0)
        halt
    """ if node == n_nodes - 1 else f"""
        sw   a0, {OUT_ADDR}(zero)
        lui  t0, 0x40            # MMIO
        li   t1, {OUT_ADDR}
        sw   t1, 2(t0)           # DMA_SRC
        {_load_remote("t1", next_node, ACC_ADDR)}
        sw   t1, 3(t0)           # DMA_DST
        li   t1, 1
        sw   t1, 4(t0)           # DMA_LEN
        {_load_remote("t1", next_node, FLAG_ADDR)}
        sw   t1, 7(t0)           # DMA_BELL -> neighbor's flag
        li   t1, 1
        sw   t1, 8(t0)           # DMA_BELLVAL
        sw   t1, 5(t0)           # DMA_GO
    drain:
        lw   t1, 6(t0)           # DMA_DONE
        beq  t1, zero, drain
        halt
    """
    return assemble(f"""
        li   t0, {DATA_BASE}
        li   t1, {k_words}
        li   a0, 0
    sum:
        lw   t2, 0(t0)
        add  a0, a0, t2
        addi t0, t0, 1
        addi t1, t1, -1
        bne  t1, zero, sum
        {wait}
        {finish}
    """)


def build_fig2c_grid(n_nodes: int = 8, *, k_words: int = 8,
                     bus_latency: int = 2,
                     spec_name: str = "fig2c_grid") -> Tuple[LSS, dict]:
    """Build the grid-in-a-box ring-reduction system."""
    if n_nodes * NODE_SPAN > HOST_WINDOW:
        raise ValueError("too many nodes for the remote window")
    spec = LSS(spec_name)
    bus = spec.instance("fabric", Bus, latency=bus_latency, mode="routed")
    expected_total = 0
    for node in range(n_nodes):
        init = {}
        for offset in range(k_words):
            value = (node * 13 + offset * 7 + 3) % 97
            init[DATA_BASE + offset] = value
            expected_total += value
        handle = spec.instance(
            f"g{node}", GridNode, node=node,
            program=ring_reduce_program(node, n_nodes, k_words=k_words),
            init=init)
        spec.connect(handle.port("bus_out"), bus.port("in", node))
        spec.connect(bus.port("out", node), handle.port("bus_in"))
    info = {"n_nodes": n_nodes, "expected_total": expected_total}
    return spec, info


def run_fig2c(n_nodes: int = 8, *, k_words: int = 8,
              engine: str = DEFAULT_ENGINE, max_cycles: int = 100_000) -> dict:
    """Build, run until the last node halts, verify the reduction."""
    from ..core.constructor import build_simulator
    spec, info = build_fig2c_grid(n_nodes, k_words=k_words)
    sim = build_simulator(spec, engine=engine)
    last_core = sim.instance(f"g{n_nodes - 1}/core")
    for _ in range(max_cycles):
        sim.step()
        if last_core.halted:
            break
    total = sim.instance(f"g{n_nodes - 1}/mem").peek(RESULT_ADDR)
    return {
        "sim": sim,
        "cycles": sim.now,
        "halted": last_core.halted,
        "total": total,
        "expected_total": info["expected_total"],
        "correct": total == info["expected_total"],
        "messages": sim.stats.total("posted"),
    }
