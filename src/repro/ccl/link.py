"""Network links: pipelined point-to-point channels.

:class:`Link` specializes the PCL :class:`~repro.pcl.queue.Delay`
primitive for network use: it counts hop traversals into the packets it
carries and accumulates the flit-traffic statistics the Orion power
models consume (§3.3).
"""

from __future__ import annotations

from ..core import Parameter
from ..pcl.queue import Delay


class Link(Delay):
    """A fixed-latency unidirectional link.

    Inherits the :class:`~repro.pcl.queue.Delay` contract (always
    accepts; delivers after ``latency`` cycles).  Adds:

    * ``packet.hops`` incrementing for payloads that track hops;
    * ``flits`` statistic (sum of packet sizes carried) — the activity
      count Orion's link energy model multiplies by energy-per-flit.

    Parameters: ``latency`` (cycles), ``drop`` — see ``Delay`` — plus
    ``length_mm`` recorded for the power model's per-length capacitance.

    Under the ``batched-vec`` backend the link runs as
    :class:`repro.pcl.vec.VecLink`; ``react`` is inherited unchanged
    from ``Delay``.
    """

    PARAMS = Delay.PARAMS + (
        Parameter("length_mm", 1.0, validate=lambda v: v > 0,
                  doc="physical length used by Orion link energy"),
    )

    def update(self) -> None:
        inp = self.io_in
        if inp.took(0):
            packet = inp.value(0)
            if hasattr(packet, "hops"):
                packet.hops += 1
            self.collect("flits", getattr(packet, "size", 1))
        super().update()
