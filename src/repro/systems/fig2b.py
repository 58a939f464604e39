"""Figure 2(b): sensor network nodes.

"A sensor network node ... is composed of a general-purpose processor
(GP) and a digital signal processor (DSP) from UPL, linked with a bus
from CCL, and interfacing to a wireless radio component from CCL
through a radio interface from NIL."

Each node here is a :class:`~repro.nil.tigon.ProgrammableNIC` whose
embedded core runs the DSP aggregation firmware
(:func:`~repro.nil.firmware.sensor_aggregate`); its receive MAC doubles
as the sensor's acquisition assist ("the memory array primitive ...
can double as bus queuing buffers" — §3 reuse in action), a
:class:`~repro.pcl.source.Source` plays the transducer, and the
transmit MAC is the radio interface onto the shared
:class:`~repro.ccl.wireless.WirelessMedium`.  A base-station sink
collects the aggregated summary frames.
"""

from __future__ import annotations

from typing import Tuple

from ..ccl.wireless import WirelessMedium
from ..core.backends import DEFAULT_ENGINE
from ..core.lss import LSS
from ..nil.firmware import sensor_aggregate
from ..nil.formats import EthernetFrame
from ..nil.tigon import ProgrammableNIC
from ..pcl.sink import Sink
from ..pcl.source import Source


def _sensor_generator(node_id: int, period: int):
    """The transducer: one reading frame every ``period`` cycles."""
    def generate(now: int, index: int, rng):
        if now % period == 0:
            reading = int(50 + 40 * ((now // period + node_id * 7) % 5) / 4
                          + node_id)
            return EthernetFrame(src=node_id, dst=node_id,
                                 payload=(reading,), created=now)
        return None
    return generate


def build_fig2b_sensors(n_nodes: int = 2, *, readings_per_node: int = 8,
                        aggregate_every: int = 4, sensor_period: int = 6,
                        loss: float = 0.0, seed: int = 0,
                        spec_name: str = "fig2b_sensors") -> Tuple[LSS, dict]:
    """Build ``n_nodes`` sensor nodes + base station on one radio channel.

    Radio index 0 is the base station; node *k* transmits on radio
    index *k*.  Returns ``(spec, info)``.
    """
    spec = LSS(spec_name)
    medium = spec.instance("air", WirelessMedium, mac="csma", loss=loss,
                           seed=seed)
    base = spec.instance("base", Sink)
    # Base station: receive-only radio on channel index 0.
    idle = spec.instance("base_tx", Source, pattern="custom", generator=None)
    spec.connect(idle.port("out"), medium.port("in", 0))
    spec.connect(medium.port("out", 0), base.port("in"))
    nodes = []
    for k in range(1, n_nodes + 1):
        firmware = sensor_aggregate(readings_per_node,
                                    every=aggregate_every, node_id=k)
        sensor = spec.instance(f"sensor{k}", Source, pattern="custom",
                               generator=_sensor_generator(k, sensor_period),
                               seed=seed + k)
        node = spec.instance(f"node{k}", ProgrammableNIC,
                             firmware=firmware, with_tx=True)
        spec.connect(sensor.port("out"), node.port("wire_in"))
        spec.connect(node.port("wire_out"), medium.port("in", k))
        # Radios hear each other; nodes ignore what they receive by
        # leaving their receive channel attached to a dropping sink.
        drop = spec.instance(f"ear{k}", Sink)
        spec.connect(medium.port("out", k), drop.port("in"))
        # The host-side port is unused in the field (no PCI host in a
        # sensor mote) — partial specification: a tiny scratch memory
        # absorbs doorbells if firmware ever rings one.
        from ..pcl.memory import MemoryArray
        scratch = spec.instance(f"scratch{k}", MemoryArray, size=64)
        spec.connect(node.port("host_req"), scratch.port("req"))
        spec.connect(scratch.port("resp"), node.port("host_resp"))
        nodes.append(node)
    info = {"n_nodes": n_nodes, "readings_per_node": readings_per_node,
            "aggregate_every": aggregate_every,
            "expected_summaries": n_nodes * (readings_per_node
                                             // aggregate_every)}
    return spec, info


def run_fig2b(n_nodes: int = 2, *, readings_per_node: int = 8,
              aggregate_every: int = 4, engine: str = DEFAULT_ENGINE,
              max_cycles: int = 20_000, loss: float = 0.0) -> dict:
    """Build, run until all DSP cores halt, and summarize."""
    from ..core.constructor import build_simulator
    spec, info = build_fig2b_sensors(n_nodes,
                                     readings_per_node=readings_per_node,
                                     aggregate_every=aggregate_every,
                                     loss=loss)
    sim = build_simulator(spec, engine=engine)
    cores = [sim.instance(f"node{k}/core") for k in range(1, n_nodes + 1)]
    drained = 0
    for _ in range(max_cycles):
        sim.step()
        if all(core.halted for core in cores):
            # Keep the fabric running so in-flight transmissions land.
            drained += 1
            if drained > 200:
                break
    return {
        "sim": sim,
        "cycles": sim.now,
        "halted": all(core.halted for core in cores),
        "summaries_received": sim.stats.counter("base", "consumed"),
        "expected_summaries": info["expected_summaries"],
        "transmissions": sim.stats.counter("air", "transmissions"),
        "losses": sim.stats.counter("air", "losses"),
        "readings": sim.stats.total("frames_rx"),
    }
