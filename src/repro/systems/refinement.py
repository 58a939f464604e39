"""Iterative refinement of a processor model (paper §2.2).

"The typical design process starts by first specifying simple fetch and
issue logic.  Then, once satisfied with this behavior, we add a
pipeline specification, speculation control logic, predictors, and
memory hierarchies in turn.  At each stage in this refinement process,
the specification is compilable into a working simulator."

:func:`build_stage` reproduces that exact progression; every stage
builds and runs (``tests/systems`` asserts it), leaning on
unconnected-port defaults for the pieces not yet specified:

1. **fetch+issue** — just a fetch unit feeding a sink; the redirect
   port is unconnected (default: never redirects).
2. **pipeline** — fetch/decode/execute/writeback with pipeline
   registers and the register-file scoreboard; straight-line code.
3. **speculation** — the execute->fetch redirect is connected; control
   flow (loops) now works, squashing wrong-path work.
4. **predictors** — the fetch unit's algorithmic predictor parameter is
   upgraded from static not-taken to a bimodal table.  The *structure*
   is untouched.
5. **memory hierarchy** — the memory stage, an L1 cache and a backing
   memory array complete the machine; load/store programs run.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.backends import DEFAULT_ENGINE
from ..core.lss import LSS
from ..pcl.memory import MemoryArray
from ..pcl.queue import PipelineReg
from ..pcl.sink import Sink
from ..upl.assembler import assemble
from ..upl.cache import Cache
from ..upl.isa import Program
from ..upl.pipeline import (DecodeStage, ExecuteStage, MemStage,
                            PipelineShared, ProgFetch, WriteBack)
from ..upl.predictors import BimodalPredictor, StaticPredictor
from ..upl.regfile import RegFile

#: Straight-line program for stages 1-2 (no branches, no memory).
STRAIGHT_LINE = """
    li   t0, 5
    li   t1, 7
    add  a0, t0, t1
    add  a0, a0, a0
    addi a0, a0, 100
    halt
"""
STRAIGHT_LINE_A0 = (5 + 7) * 2 + 100

#: Loop program for stages 3-4 (branches, no memory).
LOOP_SUM = """
    li   a0, 0
    li   t0, 10
loop:
    add  a0, a0, t0
    addi t0, t0, -1
    bne  t0, zero, loop
    halt
"""
LOOP_SUM_A0 = 55

#: Memory program for stage 5.
MEM_SUM = """
    li   t0, 64
    li   t1, 8
    li   a0, 0
loop:
    lw   t2, 0(t0)
    add  a0, a0, t2
    addi t0, t0, 1
    addi t1, t1, -1
    bne  t1, zero, loop
    halt
"""
MEM_SUM_INIT = {64 + i: 2 * i + 1 for i in range(8)}
MEM_SUM_A0 = sum(MEM_SUM_INIT.values())


def build_stage(stage: int, *, program: Optional[Program] = None
                ) -> Tuple[LSS, dict]:
    """Build refinement stage 1-5; returns ``(spec, info)``.

    ``info`` carries ``shared`` (for halt detection from stage 2 on),
    the default program's expected ``a0``, and instance paths.
    """
    if not 1 <= stage <= 5:
        raise ValueError(f"stage must be 1..5, got {stage}")
    spec = LSS(f"refine_stage{stage}")
    shared = PipelineShared()
    info: dict = {"shared": shared, "expected_a0": None}

    if stage == 1:
        prog = program or assemble(STRAIGHT_LINE)
        fetch = spec.instance("fetch", ProgFetch, program=prog,
                              predictor=StaticPredictor(False),
                              shared=shared)
        sink = spec.instance("issue", Sink)
        spec.connect(fetch.port("out"), sink.port("in"))
        # The redirect input is left unconnected: partial specification.
        return spec, info

    if stage == 5:
        prog = program or assemble(MEM_SUM)
        info["expected_a0"] = MEM_SUM_A0 if program is None else None
    elif stage >= 3:
        prog = program or assemble(LOOP_SUM)
        info["expected_a0"] = LOOP_SUM_A0 if program is None else None
    else:
        prog = program or assemble(STRAIGHT_LINE)
        info["expected_a0"] = STRAIGHT_LINE_A0 if program is None else None

    predictor = BimodalPredictor(64) if stage >= 4 \
        else StaticPredictor(False)
    fetch = spec.instance("fetch", ProgFetch, program=prog,
                          predictor=predictor, shared=shared)
    f2d = spec.instance("f2d", PipelineReg)
    dec = spec.instance("decode", DecodeStage, shared=shared)
    d2x = spec.instance("d2x", PipelineReg)
    ex = spec.instance("execute", ExecuteStage, shared=shared,
                       predictor=predictor)
    rf = spec.instance("rf", RegFile, shared=shared)
    wb = spec.instance("wb", WriteBack, shared=shared)
    spec.connect(fetch.port("out"), f2d.port("in"))
    spec.connect(f2d.port("out"), dec.port("in"))
    spec.connect(dec.port("rf_req"), rf.port("rd_req"))
    spec.connect(rf.port("rd_resp"), dec.port("rf_resp"))
    spec.connect(dec.port("claim"), rf.port("claim"))
    spec.connect(dec.port("out"), d2x.port("in"))
    spec.connect(d2x.port("out"), ex.port("in"))
    spec.connect(wb.port("wr"), rf.port("wr"))

    if stage >= 3:
        # Speculation control: resolve mispredictions back into fetch.
        spec.connect(ex.port("redirect"), fetch.port("redirect"))
    # (At stage 2 the redirect ports stay unconnected: straight-line
    # code never mispredicts under not-taken prediction.)

    if stage == 5:
        x2m = spec.instance("x2m", PipelineReg)
        mem = spec.instance("mem", MemStage)
        m2w = spec.instance("m2w", PipelineReg)
        l1 = spec.instance("l1", Cache, sets=8, ways=2, block=2)
        ram = spec.instance("ram", MemoryArray, size=1024, latency=4,
                            init=dict(MEM_SUM_INIT))
        spec.connect(ex.port("out"), x2m.port("in"))
        spec.connect(x2m.port("out"), mem.port("in"))
        spec.connect(mem.port("dmem_req"), l1.port("cpu_req"))
        spec.connect(l1.port("cpu_resp"), mem.port("dmem_resp"))
        spec.connect(l1.port("mem_req"), ram.port("req"))
        spec.connect(ram.port("resp"), l1.port("mem_resp"))
        spec.connect(mem.port("out"), m2w.port("in"))
        spec.connect(m2w.port("out"), wb.port("in"))
    else:
        x2w = spec.instance("x2w", PipelineReg)
        spec.connect(ex.port("out"), x2w.port("in"))
        spec.connect(x2w.port("out"), wb.port("in"))
    return spec, info


def run_stage(stage: int, *, engine: str = DEFAULT_ENGINE,
              max_cycles: int = 5_000) -> dict:
    """Build and run one refinement stage to completion."""
    from ..core.constructor import build_simulator
    spec, info = build_stage(stage)
    sim = build_simulator(spec, engine=engine)
    shared = info["shared"]
    if stage == 1:
        sim.run(60)
        return {"sim": sim, "stage": stage, "cycles": sim.now,
                "fetched": sim.stats.counter("fetch", "fetched"),
                "working": sim.stats.counter("fetch", "fetched") > 0}
    for _ in range(max_cycles):
        sim.step()
        if shared.halted:
            break
    a0 = sim.instance("rf").read_reg(10)
    return {"sim": sim, "stage": stage, "cycles": sim.now,
            "halted": shared.halted, "a0": a0,
            "expected_a0": info["expected_a0"],
            "working": shared.halted and a0 == info["expected_a0"],
            "retired": shared.retired,
            "mispredicts": sim.stats.counter("execute", "mispredicts")}
