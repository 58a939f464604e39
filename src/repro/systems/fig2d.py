"""Figure 2(d): a complex system of systems, at mixed abstraction.

"We envision small sensor nodes peppered around an area, collecting and
communicating data wirelessly back to coarser-grain nodes with chip
multiprocessors ... finally, analyzed data is aggregated back to a base
camp where there are petaflops grids-in-a-box ... It also allows users
to work at different levels of abstraction."

The composition: detailed Figure-2b sensor nodes transmit summaries
over the wireless medium to a *gateway*; the gateway's backend — the
CMP aggregation tier — is instantiated at the abstraction level the
caller picks (§2.2's swap):

* ``backend='statistical'`` — a Bernoulli-accepting sink stands in for
  the busy CMP (the "abstract statistical model");
* ``backend='detailed'`` — a :class:`~repro.nil.tigon.ProgrammableNIC`
  running real receive firmware forwards every frame into the base
  camp's host memory by DMA (the "detailed model"), where the grid tier
  would pick it up.

The *field* tier gets the same treatment via the ``field`` knob:

* ``field='detailed'`` (default) — Figure-2b sensor nodes with real
  firmware, programmable NICs and the CSMA wireless medium;
* ``field='statistical'`` — each sensor node collapses to a Bernoulli
  summary source (one summary per ``aggregate_every`` readings in
  steady state) feeding a pipeline register (the node's serialization
  stage) and a fixed-latency uplink; the shared medium's contention
  becomes a round-robin arbiter granting one uplink per cycle, tapped
  by an audit sink and demultiplexed by origin into the gateway queue.
  This tier is built entirely from parts-catalog templates with
  vectorized implementations, so a lockstep batch of these configs
  runs almost fully on the SoA fast path.

Every variant is the *same specification* except for the swapped
subtrees — demonstrating that the rest of the model is reused
untouched across abstraction levels.
"""

from __future__ import annotations

from typing import Tuple

from ..core.backends import DEFAULT_ENGINE
from ..core.lss import LSS
from ..ccl.wireless import WirelessMedium
from ..nil.firmware import receive_forward, sensor_aggregate
from ..nil.tigon import ProgrammableNIC
from ..pcl.arbiter import Arbiter, round_robin
from ..pcl.memory import MemoryArray
from ..pcl.queue import Delay, PipelineReg, Queue
from ..pcl.routing import Demux, Tee
from ..pcl.sink import Sink
from ..pcl.source import Source
from .fig2b import _sensor_generator


def _route_by_origin(value, width, now):
    """Demux route: spread summaries across queue ports by node id."""
    if isinstance(value, tuple) and len(value) == 2:
        return (value[1] - 1) % width
    return 0


def build_fig2d(n_sensors: int = 2, *, readings_per_node: int = 8,
                aggregate_every: int = 4, backend: str = "statistical",
                backend_rate: float = 0.5, seed: int = 0,
                field: str = "detailed",
                spec_name: str = "fig2d_sos") -> Tuple[LSS, dict]:
    """Build the system-of-systems with the chosen tier abstractions."""
    if backend not in ("statistical", "detailed"):
        raise ValueError(f"unknown backend {backend!r}")
    if field not in ("statistical", "detailed"):
        raise ValueError(f"unknown field {field!r}")
    if (field, backend) == ("statistical", "detailed"):
        raise ValueError(
            "field='statistical' cannot feed backend='detailed': the "
            "statistical field tier sends ('summary', k) tuples, the "
            "detailed backend tier's MAC expects packet frames "
            "(to_words()); use field='detailed' or backend='statistical'")
    spec = LSS(spec_name)
    gw_queue = spec.instance("gw_queue", Queue, depth=8)
    if field == "statistical":
        # Abstract field tier, pure parts-catalog: per-node Bernoulli
        # summary emission -> serialization register -> audit tap ->
        # uplink delay, contending for the "air" through a round-robin
        # arbiter; the granted stream is routed by origin into the
        # gateway queue's input ports.  (Tee outputs feed only Moore
        # templates — Sink, Delay — so no levelization cluster forms.)
        air = spec.instance("air", Arbiter, policy=round_robin)
        audit = spec.instance("audit", Sink)
        rate = min(1.0, 1.0 / max(aggregate_every, 1))
        for k in range(1, n_sensors + 1):
            sensor = spec.instance(f"sensor{k}", Source,
                                   pattern="bernoulli", rate=rate,
                                   payload=("summary", k), seed=seed + k)
            reg = spec.instance(f"reg{k}", PipelineReg)
            tap = spec.instance(f"tap{k}", Tee, mode="any")
            link = spec.instance(f"link{k}", Delay,
                                 latency=1 + ((k - 1) % 3))
            spec.connect(sensor.port("out"), reg.port("in"))
            spec.connect(reg.port("out"), tap.port("in"))
            spec.connect(tap.port("out"), link.port("in"))
            spec.connect(tap.port("out"), audit.port("in"))
            spec.connect(link.port("out"), air.port("in"))
        classify = spec.instance("classify", Demux, route=_route_by_origin)
        spec.connect(air.port("out"), classify.port("in"))
        spec.connect(classify.port("out"), gw_queue.port("in"))
        spec.connect(classify.port("out"), gw_queue.port("in"))
    else:
        medium = spec.instance("air", WirelessMedium, mac="csma", seed=seed)
        # Field tier: detailed sensor nodes (identical to Figure 2b).
        for k in range(1, n_sensors + 1):
            firmware = sensor_aggregate(readings_per_node,
                                        every=aggregate_every, node_id=k)
            sensor = spec.instance(f"sensor{k}", Source, pattern="custom",
                                   generator=_sensor_generator(k, 6),
                                   seed=seed + k)
            node = spec.instance(f"node{k}", ProgrammableNIC,
                                 firmware=firmware, with_tx=True)
            spec.connect(sensor.port("out"), node.port("wire_in"))
            spec.connect(node.port("wire_out"), medium.port("in", k))
            ear = spec.instance(f"ear{k}", Sink)
            spec.connect(medium.port("out", k), ear.port("in"))
            scratch = spec.instance(f"scratch{k}", MemoryArray, size=64)
            spec.connect(node.port("host_req"), scratch.port("req"))
            spec.connect(scratch.port("resp"), node.port("host_resp"))
        # Gateway radio on channel 0, buffered.
        idle = spec.instance("gw_tx", Source, pattern="custom",
                             generator=None)
        spec.connect(idle.port("out"), medium.port("in", 0))
        spec.connect(medium.port("out", 0), gw_queue.port("in"))

    expected = n_sensors * (readings_per_node // aggregate_every)
    if backend == "statistical":
        # Abstract CMP tier: consumes summaries stochastically.
        cmp_tier = spec.instance("cmp_tier", Sink, accept="bernoulli",
                                 rate=backend_rate, seed=seed)
        spec.connect(gw_queue.port("out"), cmp_tier.port("in"))
    else:
        # Detailed CMP-tier front end: a programmable NIC DMAs every
        # summary into base-camp host memory.
        gw_fw = receive_forward(expected, slots=8, slot_words=16)
        gateway = spec.instance("gateway", ProgrammableNIC,
                                firmware=gw_fw, with_tx=False)
        camp_mem = spec.instance("camp_mem", MemoryArray, size=4096,
                                 latency=2)
        spec.connect(gw_queue.port("out"), gateway.port("wire_in"))
        spec.connect(gateway.port("host_req"), camp_mem.port("req"))
        spec.connect(camp_mem.port("resp"), gateway.port("host_resp"))
    info = {"expected_summaries": expected, "backend": backend,
            "field": field, "n_sensors": n_sensors}
    return spec, info


def run_fig2d(n_sensors: int = 2, *, backend: str = "statistical",
              field: str = "detailed",
              readings_per_node: int = 8, aggregate_every: int = 4,
              engine: str = DEFAULT_ENGINE, max_cycles: int = 20_000) -> dict:
    """Build, run until field cores halt (plus drain time), summarize."""
    from ..core.constructor import build_simulator
    spec, info = build_fig2d(n_sensors, readings_per_node=readings_per_node,
                             aggregate_every=aggregate_every,
                             backend=backend, field=field)
    sim = build_simulator(spec, engine=engine)
    if field == "statistical":
        # No firmware to halt: the statistical field emits forever, so
        # run a fixed horizon and read the contention stats directly.
        sim.run(min(max_cycles, 2_000))
        halted = True
        transmissions = sim.stats.counter("air", "grants")
    else:
        cores = [sim.instance(f"node{k}/core")
                 for k in range(1, n_sensors + 1)]
        drained = 0
        for _ in range(max_cycles):
            sim.step()
            if all(core.halted for core in cores):
                drained += 1
                if drained > 600:
                    break
        halted = all(core.halted for core in cores)
        transmissions = sim.stats.counter("air", "transmissions")
    out = {
        "sim": sim,
        "cycles": sim.now,
        "halted": halted,
        "backend": backend,
        "field": field,
        "expected_summaries": info["expected_summaries"],
        "transmissions": transmissions,
    }
    if backend == "statistical":
        out["summaries_delivered"] = sim.stats.counter("cmp_tier", "consumed")
    else:
        camp = sim.instance("camp_mem")
        out["summaries_delivered"] = camp.peek(0)  # host producer counter
        out["gateway_halted"] = sim.instance("gateway/core").halted
    return out
