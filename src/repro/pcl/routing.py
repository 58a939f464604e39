"""Dataflow plumbing: fan-out, selection, distribution, joining.

These combinational connectors let datapaths be described without
custom glue modules — the "minimal control" style the default control
semantics enable (§2.1).
"""

from __future__ import annotations

from typing import Optional

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT, ack, fwd


class Tee(LeafModule):
    """Broadcast one input to every output index.

    ``mode='all'`` (default) completes the transfer only when *every*
    destination accepts (the input ack is the AND of output acks);
    ``mode='any'`` forwards to whichever destinations accept and acks
    the input if at least one did (replication with loss).

    Statistics: ``broadcasts``.
    """

    PARAMS = (
        Parameter("mode", "all", validate=lambda v: v in ("all", "any")),
    )
    #: The broadcast discipline selects the vec impl's code path, so it
    #: must be uniform across a lockstep group.
    VEC_UNIFORM_PARAMS = ("mode",)
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1),
    )
    DEPS = {
        fwd("out"): (fwd("in"), ack("out")),
        ack("in"): (fwd("in"), ack("out")),
    }

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        if not inp.known(0):
            return
        if not inp.present(0):
            for j in range(out.width):
                out.send_nothing(j)
            inp.set_ack(0, False)
            return
        value = inp.value(0)
        if self.p["mode"] == "any":
            # Deliver to whoever accepts; the input completes if anyone
            # did (refusers simply miss this datum).
            for j in range(out.width):
                out.send(j, value)
            if all(out.ack_known(j) for j in range(out.width)):
                inp.set_ack(0, any(out.accepted(j)
                                   for j in range(out.width)))
            return
        # 'all' mode: an atomic broadcast.  Offer the data early but
        # commit the enables only once every destination's ack is known,
        # so no destination observes a completed transfer unless all of
        # them accepted.  (Destinations must therefore resolve their
        # acks from state, not from the offered data — true of all PCL
        # consumers; a data-sensitive consumer would be relaxed to a
        # non-transfer by the engine's cycle policy.)
        from ..core.signals import DataStatus
        for j in range(out.width):
            out.drive_data(j, DataStatus.SOMETHING, value)
        if all(out.ack_known(j) for j in range(out.width)):
            unanimous = all(out.accepted(j) for j in range(out.width))
            for j in range(out.width):
                out.drive_enable(j, unanimous)
            inp.set_ack(0, unanimous)

    def update(self) -> None:
        if self.io_in.took(0):
            self.collect("broadcasts")


class Mux(LeafModule):
    """Forward the input chosen by the ``sel`` port (an integer index).

    When ``sel`` carries no datum this cycle, nothing is forwarded and
    every input is refused.  Unselected inputs are refused.

    Statistics: ``selected``.
    """

    PARAMS = ()
    PORTS = (
        PortDecl("in", INPUT, min_width=1),
        PortDecl("sel", INPUT, min_width=1, max_width=1,
                 doc="index of the input to forward"),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {
        fwd("out"): (fwd("in"), fwd("sel")),
        ack("in"): (fwd("in"), fwd("sel"), ack("out")),
        ack("sel"): (fwd("sel"),),
    }

    def react(self) -> None:
        inp = self.io_in
        sel = self.io_sel
        out = self.io_out
        if not sel.known(0):
            return
        sel.set_ack(0, True)
        chosen: Optional[int] = None
        if sel.present(0):
            index = sel.value(0)
            if isinstance(index, int) and 0 <= index < inp.width:
                chosen = index
        if chosen is None:
            out.send_nothing(0)
            for i in range(inp.width):
                if inp.known(i):
                    inp.set_ack(i, False)
            return
        for i in range(inp.width):
            if i != chosen and inp.known(i):
                inp.set_ack(i, False)
        if not inp.known(chosen):
            return
        if inp.present(chosen):
            out.send(0, inp.value(chosen))
            if out.ack_known(0):
                inp.set_ack(chosen, out.accepted(0))
        else:
            out.send_nothing(0)
            inp.set_ack(chosen, False)

    def update(self) -> None:
        if self.io_out.took(0):
            self.collect("selected")


class Demux(LeafModule):
    """Route the input to the output chosen by an algorithmic function.

    ``route(value, width, now) -> int`` picks the destination index.
    The input ack mirrors the chosen output's ack; other outputs send
    nothing.

    Statistics: ``routed``, per-output histogram via ``route_to``.
    """

    PARAMS = (
        Parameter("route", None, kind="algorithmic",
                  doc="route(value, out_width, now) -> output index"),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1),
    )
    DEPS = {
        fwd("out"): (fwd("in"),),
        ack("in"): (fwd("in"), ack("out")),
    }

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        if not inp.known(0):
            return
        if not inp.present(0):
            for j in range(out.width):
                out.send_nothing(j)
            inp.set_ack(0, False)
            return
        value = inp.value(0)
        target = self.p["route"](value, out.width, self.now)
        target = max(0, min(out.width - 1, int(target)))
        for j in range(out.width):
            if j == target:
                out.send(j, value)
            else:
                out.send_nothing(j)
        if out.ack_known(target):
            inp.set_ack(0, out.accepted(target))

    def update(self) -> None:
        out = self.io_out
        for j in range(out.width):
            if out.took(j):
                self.collect("routed")
                self.record("route_to", float(j))


class Combine(LeafModule):
    """Join N inputs into one output datum.

    Waits until every input offers a datum, merges them with the
    algorithmic ``merge`` function (default: tuple), and completes all
    N input transfers together iff the output is accepted.  If any
    input is idle this cycle, nothing is produced and all inputs are
    refused (a synchronous join/barrier).

    Statistics: ``joined``, ``partial_stalls``.
    """

    PARAMS = (
        Parameter("merge", None, doc="merge(values_list) -> value"),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {
        fwd("out"): (fwd("in"),),
        ack("in"): (fwd("in"), ack("out")),
    }

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        if not inp.all_known():
            return
        if all(inp.present(i) for i in range(inp.width)):
            values = [inp.value(i) for i in range(inp.width)]
            merge = self.p["merge"]
            out.send(0, merge(values) if merge is not None else tuple(values))
            if out.ack_known(0):
                accept = out.accepted(0)
                for i in range(inp.width):
                    inp.set_ack(i, accept)
        else:
            out.send_nothing(0)
            for i in range(inp.width):
                inp.set_ack(i, False)

    def update(self) -> None:
        inp = self.io_in
        if self.io_out.took(0):
            self.collect("joined")
        elif any(inp.present(i) for i in range(inp.width)) \
                and not all(inp.present(i) for i in range(inp.width)):
            self.collect("partial_stalls")


class Splitter(LeafModule):
    """Distribute a single input stream across outputs, round-robin.

    Each datum goes to exactly one output; the rotation pointer only
    advances on completed transfers, so a stalled destination does not
    lose data.  With ``spill=True`` a refused datum tries the next
    output in the same cycle's rotation order instead of stalling.

    Statistics: ``distributed``.
    """

    PARAMS = (
        Parameter("spill", False, doc="try other outputs when first refuses"),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1),
    )
    DEPS = {
        fwd("out"): (fwd("in"),),
        ack("in"): (fwd("in"), ack("out")),
    }

    def init(self) -> None:
        self._next = 0

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        if not inp.known(0):
            return
        if not inp.present(0):
            for j in range(out.width):
                out.send_nothing(j)
            inp.set_ack(0, False)
            return
        value = inp.value(0)
        width = out.width
        primary = self._next % width
        if not self.p["spill"]:
            for j in range(width):
                if j == primary:
                    out.send(j, value)
                else:
                    out.send_nothing(j)
            if out.ack_known(primary):
                inp.set_ack(0, out.accepted(primary))
            return
        # Spill mode: walk the rotation until someone accepts.  Each
        # output must be driven before we can observe its ack, so this
        # resolves incrementally across react invocations.
        order = [(primary + k) % width for k in range(width)]
        accepted_at: Optional[int] = None
        undecided = False
        for j in order:
            if accepted_at is None:
                out.send(j, value)
                if not out.ack_known(j):
                    undecided = True
                    break
                if out.accepted(j):
                    accepted_at = j
            else:
                out.send_nothing(j)
        if undecided:
            return
        inp.set_ack(0, accepted_at is not None)

    def update(self) -> None:
        out = self.io_out
        for j in range(out.width):
            if out.took(j):
                self.collect("distributed")
                self._next = j + 1
                break
