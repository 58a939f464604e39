"""Arbiters — the paper's example of a cross-library primitive (§3.1).

"The same arbiter module can be used in CCL to control access to
network buffers and links, and in UPL to regulate access to
synchronization locks."  :class:`Arbiter` grants up to ``out``-width
requests per cycle; the grant order is an algorithmic parameter, with
fixed-priority, round-robin and oldest-first disciplines shipped.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT, ack, fwd


def fixed_priority(requesters: Sequence[int], state: dict, now: int) -> List[int]:
    """Grant in ascending input-index order (index 0 wins ties)."""
    return sorted(requesters)


def round_robin(requesters: Sequence[int], state: dict, now: int) -> List[int]:
    """Rotate priority: the index after the last winner goes first.

    ``state['last']`` is maintained by the arbiter after each cycle
    with at least one completed grant.
    """
    if not requesters:
        return []
    start = (state.get("last", -1) + 1)
    width = state.get("width", max(requesters) + 1)
    order = sorted(requesters, key=lambda i: (i - start) % max(width, 1))
    return order


def oldest_first(requesters: Sequence[int], state: dict, now: int) -> List[int]:
    """Grant the request that has been waiting the longest.

    ``state['since'][i]`` tracks when input ``i`` began requesting.
    """
    since = state.get("since", {})
    return sorted(requesters, key=lambda i: (since.get(i, now), i))


class Arbiter(LeafModule):
    """Grant up to M of N competing requests per cycle.

    Inputs request by offering data; the ``policy`` algorithmic
    parameter orders the requesters; the first *M* (output width)
    winners are forwarded, one per output index.  A winner's input ack
    mirrors the corresponding output's ack (backpressure propagates
    through the arbiter); losers are nacked.

    Combinational dependencies (declared for the static scheduler):
    output forwards depend on input forwards; input acks additionally
    depend on output acks.

    Statistics: ``grants``, ``conflicts`` (cycles with more requesters
    than grants).
    """

    PARAMS = (
        Parameter("policy", fixed_priority, kind="algorithmic",
                  doc="policy(requester_indices, state, now) -> grant order"),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, doc="competing requests"),
        PortDecl("out", OUTPUT, min_width=1, doc="granted requests"),
    )
    DEPS = {
        fwd("out"): (fwd("in"),),
        ack("in"): (fwd("in"), ack("out")),
    }

    def init(self) -> None:
        self.state: dict = {"last": -1, "since": {},
                            "width": self.io_in.width}
        self._grants: List[int] = []   # out index -> in index (this cycle)
        self._grant_cycle = -1

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        if not inp.all_known():
            return  # wait until every requester has resolved
        if self._grant_cycle != self.now:
            self._grant_cycle = self.now
            requesters = inp.indices_present()
            for i in requesters:  # maintain aging info for oldest_first
                self.state["since"].setdefault(i, self.now)
            order = list(self.p["policy"](requesters, self.state, self.now))
            self._grants = order[:out.width]
            if len(requesters) > len(self._grants):
                self.collect("conflicts")
        granted = set(self._grants)
        for j in range(out.width):
            if j < len(self._grants):
                out.send(j, inp.value(self._grants[j]))
            else:
                out.send_nothing(j)
        # Losers are refused outright.
        for i in range(inp.width):
            if i not in granted:
                inp.set_ack(i, False)
        # Winners inherit downstream acks as they resolve.
        for j, i in enumerate(self._grants):
            if out.ack_known(j):
                inp.set_ack(i, out.accepted(j))

    def update(self) -> None:
        inp = self.io_in
        completed = [i for j, i in enumerate(self._grants)
                     if self.io_out.took(j)]
        for i in completed:
            self.collect("grants")
            self.state["last"] = i
            self.state["since"].pop(i, None)
        # Requests that vanished stop aging.
        for i in list(self.state["since"]):
            if not inp.present(i):
                self.state["since"].pop(i, None)
        self._grants = []
        self._grant_cycle = -1
