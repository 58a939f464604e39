"""DMA controllers (MPL §3.4: "DMA controllers for implementing
message passing").

:class:`DMAController` executes block-copy descriptors against any
memory system reachable through its ``mem_req``/``mem_resp`` ports,
signalling completion both on its ``done`` port and (optionally) with a
doorbell store — the primitive low-overhead message-passing systems and
the NIL's network interfaces are built from.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Optional

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..pcl.memory import MemRequest, MemResponse


class DMARequest:
    """A block-copy descriptor: ``length`` words from ``src`` to ``dst``.

    ``doorbell``/``doorbell_value``: optional address written (with the
    value) after the copy completes — how firmware polls for completion.
    """

    __slots__ = ("src", "dst", "length", "tag", "doorbell", "doorbell_value")

    _ids = itertools.count()

    def __init__(self, src: int, dst: int, length: int, tag: Any = None,
                 doorbell: Optional[int] = None, doorbell_value: int = 1):
        self.src = src
        self.dst = dst
        self.length = length
        self.tag = tag if tag is not None else next(DMARequest._ids)
        self.doorbell = doorbell
        self.doorbell_value = doorbell_value

    def __repr__(self) -> str:
        return f"DMARequest({self.src}->{self.dst} x{self.length})"


class DMADone:
    """Completion notification echoing the descriptor's tag."""

    __slots__ = ("tag", "words")

    def __init__(self, tag: Any, words: int):
        self.tag = tag
        self.words = words

    def __eq__(self, other) -> bool:
        return (isinstance(other, DMADone) and other.tag == self.tag
                and other.words == self.words)

    def __hash__(self) -> int:
        return hash((self.tag, self.words))

    def __repr__(self) -> str:
        return f"DMADone(tag={self.tag!r}, words={self.words})"


class DMAController(LeafModule):
    """Copy engine: accepts descriptors, streams read/write pairs.

    One descriptor at a time; one outstanding memory operation at a
    time (``burst`` > 1 pipelines reads ahead of writes up to that many
    words).

    Ports: ``cmd`` in (:class:`DMARequest`), ``mem_req`` out /
    ``mem_resp`` in, ``done`` out (:class:`DMADone`).

    Statistics: ``descriptors``, ``words_copied``, ``busy_cycles``.
    """

    PARAMS = (
        Parameter("burst", 1, validate=lambda v: v >= 1),
    )
    PORTS = (
        PortDecl("cmd", INPUT, min_width=1, max_width=1),
        PortDecl("mem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("mem_resp", INPUT, min_width=1, max_width=1),
        PortDecl("done", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self._job: Optional[DMARequest] = None
        self._reads_issued = 0
        self._writes_issued = 0
        self._writes_acked = 0
        self._write_queue: Deque[MemRequest] = deque()
        self._outstanding = 0
        self._done: Optional[DMADone] = None
        self._doorbell_pending = False

    def _next_request(self) -> Optional[MemRequest]:
        job = self._job
        if job is None:
            return None
        if self._write_queue:
            return self._write_queue[0]
        if self._doorbell_pending and self._writes_acked == job.length \
                and self._outstanding == 0:
            return MemRequest("write", job.doorbell,
                              value=job.doorbell_value, tag="doorbell")
        if self._reads_issued < job.length \
                and self._outstanding < self.p["burst"]:
            offset = self._reads_issued
            return MemRequest("read", job.src + offset, tag=("dma", offset))
        return None

    def react(self) -> None:
        cmd = self.io_cmd
        mem_req = self.io_mem_req
        done = self.io_done
        self.io_mem_resp.set_ack(0, True)
        cmd.set_ack(0, self._job is None)
        request = self._next_request()
        if request is not None:
            mem_req.send(0, request)
        else:
            mem_req.send_nothing(0)
        if self._done is not None:
            done.send(0, self._done)
        else:
            done.send_nothing(0)

    def update(self) -> None:
        cmd = self.io_cmd
        mem_req = self.io_mem_req
        mem_resp = self.io_mem_resp
        done = self.io_done
        job = self._job

        if self._done is not None and done.took(0):
            self._done = None

        if job is not None:
            self.collect("busy_cycles")

        if mem_req.took(0):
            # State is unchanged since react, so this is the request that
            # was offered (and just accepted).
            sent: MemRequest = self._next_request()
            if sent.tag == "doorbell":
                self._doorbell_pending = False
                self._outstanding += 1
            elif sent.op == "read":
                self._reads_issued += 1
                self._outstanding += 1
            else:
                self._write_queue.popleft()
                self._writes_issued += 1
                self._outstanding += 1

        if mem_resp.took(0):
            response: MemResponse = mem_resp.value(0)
            self._outstanding -= 1
            if response.op == "read" and isinstance(response.tag, tuple) \
                    and response.tag[0] == "dma":
                offset = response.tag[1]
                self._write_queue.append(
                    MemRequest("write", job.dst + offset,
                               value=response.value, tag=("dmaw", offset)))
            elif response.op == "write" and response.tag != "doorbell":
                self._writes_acked += 1
                self.collect("words_copied")

        # Completion: all words written (+doorbell drained) and quiet.
        if job is not None and self._writes_acked == job.length \
                and not self._write_queue and not self._doorbell_pending \
                and self._outstanding == 0 and self._done is None:
            self._done = DMADone(job.tag, job.length)
            self.collect("descriptors")
            self._job = None

        if self._job is None and cmd.took(0):
            self._job = cmd.value(0)
            self._reads_issued = 0
            self._writes_issued = 0
            self._writes_acked = 0
            self._write_queue.clear()
            self._outstanding = 0
            self._doorbell_pending = self._job.doorbell is not None
