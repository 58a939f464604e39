"""VCD waveform tracing — the offline half of the paper's "interactive
system visualizer" (§1).

:class:`VCDTracer` samples selected wires after every timestep resolves
and writes an IEEE-1364 value-change-dump file viewable in GTKWave.
Per traced wire three variables are emitted:

* ``<name>.data``   — a string variable with the datum's ``repr``
  (``$``-prefixed empty when nothing is offered);
* ``<name>.enable`` and ``<name>.ack`` — scalar bits (``x`` while a
  signal was force-relaxed is not distinguishable — both commit to
  0/1 by end of step, which is what is dumped).

Usage::

    sim = build_simulator(spec)
    tracer = VCDTracer(sim, path="run.vcd")     # all non-stub wires
    sim.run(100)
    tracer.close()
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, TextIO

from .signals import CtrlStatus, DataStatus, Wire

_IDCHARS = ("!#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
            "[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~")


def _vcd_id(index: int) -> str:
    """Short printable identifier for variable ``index``."""
    base = len(_IDCHARS)
    out = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, base)
        out = _IDCHARS[digit] + out
    return out


class VCDTracer:
    """Dump wire activity of a running simulator to a VCD file.

    Parameters
    ----------
    sim:
        Any engine instance (worklist/levelized).
    path:
        Output file path; alternatively pass an open text ``stream``.
    wires:
        Wires to trace (default: every non-stub wire of the design).
    timescale:
        VCD timescale string (cosmetic; one timestep = one unit).
    """

    def __init__(self, sim, path: Optional[str] = None, *,
                 stream: Optional[TextIO] = None,
                 wires: Optional[List[Wire]] = None,
                 timescale: str = "1 ns"):
        if (path is None) == (stream is None):
            raise ValueError("pass exactly one of path/stream")
        self._own_stream = stream is None
        self.stream: TextIO = open(path, "w") if path else stream
        self.wires = list(wires) if wires is not None \
            else list(sim.design.real_wires)
        self._last: Dict[int, tuple] = {}
        self._ids: Dict[int, tuple] = {}
        self._write_header(sim, timescale)
        sim.add_observer(self._sample)
        self._closed = False

    # ------------------------------------------------------------------
    def _wire_label(self, wire: Wire) -> str:
        src = f"{wire.src.instance.path}.{wire.src.port}" if wire.src \
            else "const"
        dst = f"{wire.dst.instance.path}.{wire.dst.port}" if wire.dst \
            else "open"
        return f"{src}__to__{dst}".replace("/", ".")

    def _write_header(self, sim, timescale: str) -> None:
        w = self.stream.write
        w(f"$comment repro VCD trace of design "
          f"{sim.design.name!r} $end\n")
        w(f"$timescale {timescale} $end\n")
        w("$scope module design $end\n")
        counter = 0
        for wire in self.wires:
            label = self._wire_label(wire)
            ids = (_vcd_id(counter), _vcd_id(counter + 1),
                   _vcd_id(counter + 2))
            counter += 3
            self._ids[wire.wid] = ids
            w(f"$var string 1 {ids[0]} {label}.data $end\n")
            w(f"$var wire 1 {ids[1]} {label}.enable $end\n")
            w(f"$var wire 1 {ids[2]} {label}.ack $end\n")
        w("$upscope $end\n$enddefinitions $end\n")

    @staticmethod
    def _bit(status: CtrlStatus) -> str:
        if status is CtrlStatus.ASSERTED:
            return "1"
        if status is CtrlStatus.DEASSERTED:
            return "0"
        return "x"

    def _sample(self, sim) -> None:
        if self._closed:
            return
        w = self.stream.write
        wrote_time = False
        store = sim.design.store
        for wire in self.wires:
            slot = wire.wid
            status = store.ds[slot]
            if status is DataStatus.SOMETHING:
                data = repr(store.dv[slot])
            elif status is DataStatus.NOTHING:
                data = "-"
            else:
                data = "x"
            snapshot = (data, self._bit(store.en[slot]),
                        self._bit(store.ak[slot]))
            if self._last.get(slot) == snapshot:
                continue
            if not wrote_time:
                w(f"#{sim.now}\n")
                wrote_time = True
            ids = self._ids[slot]
            token = data.replace(" ", "_") or "-"
            w(f"s{token} {ids[0]}\n")
            w(f"{snapshot[1]}{ids[1]}\n")
            w(f"{snapshot[2]}{ids[2]}\n")
            self._last[slot] = snapshot

    def close(self) -> None:
        """Flush and (if this tracer opened the file) close it."""
        if self._closed:
            return
        self._closed = True
        self.stream.flush()
        if self._own_stream:
            self.stream.close()
