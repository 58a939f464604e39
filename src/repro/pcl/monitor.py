"""Transparent instrumentation and flow-gating pass-throughs."""

from __future__ import annotations


from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT, ack, fwd


class Monitor(LeafModule):
    """A transparent probe: forwards data unchanged while recording.

    Inserted on any connection without perturbing timing (combinational
    pass-through in both directions).  Records transfer counts, numeric
    payload histograms, and optional user callbacks.

    Statistics: ``transfers``; histogram ``payload`` for numeric data.
    """

    PARAMS = (
        Parameter("on_transfer", None,
                  doc="callback(now, value) per completed transfer"),
        Parameter("record_numeric", True),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {
        fwd("out"): (fwd("in"),),
        ack("in"): (ack("out"),),
    }

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        if inp.known(0):
            if inp.present(0):
                out.send(0, inp.value(0))
            else:
                out.send_nothing(0)
        if out.ack_known(0):
            inp.set_ack(0, out.accepted(0))

    def update(self) -> None:
        inp = self.io_in
        if inp.took(0):
            self.collect("transfers")
            value = inp.value(0)
            callback = self.p["on_transfer"]
            if callback is not None:
                callback(self.now, value)
            if self.p["record_numeric"] and isinstance(value, (int, float)):
                self.record("payload", float(value))


class Gate(LeafModule):
    """A pass-through that drops or stalls data while closed.

    The algorithmic ``open`` predicate — ``open(now, value) -> bool`` —
    is evaluated per offered datum.  While closed, ``mode='drop'``
    swallows the datum (acks it and forwards nothing) and
    ``mode='stall'`` refuses it (backpressure).

    Statistics: ``passed``, ``dropped``, ``stalled``.
    """

    PARAMS = (
        Parameter("open", None, kind="algorithmic",
                  doc="open(now, value) -> bool"),
        Parameter("mode", "drop", validate=lambda v: v in ("drop", "stall")),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
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
            out.send_nothing(0)
            inp.set_ack(0, False)
            return
        value = inp.value(0)
        if self.p["open"](self.now, value):
            out.send(0, value)
            if out.ack_known(0):
                inp.set_ack(0, out.accepted(0))
        else:
            out.send_nothing(0)
            if self.p["mode"] == "drop":
                inp.set_ack(0, True)
            else:
                inp.set_ack(0, False)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        if out.took(0):
            self.collect("passed")
        elif inp.took(0):
            self.collect("dropped")
        elif inp.present(0):
            self.collect("stalled")
