"""Figure 2(a): a chip multiprocessor.

"A chip multi-processor will consist of general-purpose processor (GP)
modules from UPL, interface modules (NI) from NIL, and network fabric
modules provided by CCL, glued with multiprocessor modules from MPL."

This builder assembles exactly that: LibertyRISC cores (UPL) over a
mesh NoC of structural routers (CCL), with directory coherence
controllers and interleaved home nodes (MPL) bridging the two.  The
default workload is a data-parallel sum: core *i* sums its segment of a
shared array and publishes partial result and done-flag through the
coherent shared memory.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ccl.topology import Mesh
from ..core.backends import DEFAULT_ENGINE
from ..core.lss import LSS
from ..mpl.smp import build_directory_cmp
from ..upl.assembler import assemble
from ..upl.isa import Program

#: Shared-memory layout of the default CMP workload.
DATA_BASE = 1024
RESULT_BASE = 512
FLAG_BASE = 544


def worker_program(index: int, *, seg_words: int,
                   data_base: int = DATA_BASE,
                   result_base: int = RESULT_BASE,
                   flag_base: int = FLAG_BASE) -> Program:
    """Core ``index``: sum ``seg_words`` shared words, publish, flag."""
    seg_base = data_base + index * seg_words
    return assemble(f"""
        li   t0, {seg_base}
        li   t1, {seg_words}
        li   a0, 0
    loop:
        lw   t2, 0(t0)
        add  a0, a0, t2
        addi t0, t0, 1
        addi t1, t1, -1
        bne  t1, zero, loop
        li   t3, {result_base + index}
        sw   a0, 0(t3)
        li   t4, 1
        li   t3, {flag_base + index}
        sw   t4, 0(t3)
        halt
    """)


def build_fig2a_cmp(width: int = 2, height: int = 2, *,
                    seg_words: int = 8, cache_lines: int = 64,
                    link_latency: int = 1,
                    spec_name: str = "fig2a_cmp") -> Tuple[LSS, dict]:
    """Build the Figure-2a CMP specification.

    Returns ``(spec, info)`` where ``info`` carries the mesh, handles,
    the initial memory image, and the expected per-core results.
    """
    mesh = Mesh(width, height)
    ncores = width * height
    init_mem: Dict[int, int] = {}
    expected: List[int] = []
    for core in range(ncores):
        total = 0
        for offset in range(seg_words):
            value = (core * 37 + offset * 11 + 5) % 101
            init_mem[DATA_BASE + core * seg_words + offset] = value
            total += value
        expected.append(total)
    programs = [worker_program(i, seg_words=seg_words)
                for i in range(ncores)]
    spec = LSS(spec_name)
    handles = build_directory_cmp(spec, mesh, programs,
                                  cache_lines=cache_lines,
                                  link_latency=link_latency,
                                  init_mem=init_mem)
    info = {"mesh": mesh, "handles": handles, "init_mem": init_mem,
            "expected": expected, "ncores": ncores}
    return spec, info


def read_results(sim, mesh: Mesh) -> Tuple[List[int], List[int]]:
    """(results, flags) read back from the interleaved home nodes."""
    nodes = list(mesh.nodes())
    homes = {n: sim.instance(f"home_{n[0]}_{n[1]}") for n in nodes}

    def peek(addr: int) -> int:
        return homes[nodes[addr % len(nodes)]].peek(addr)

    ncores = len(nodes)
    results = [peek(RESULT_BASE + i) for i in range(ncores)]
    flags = [peek(FLAG_BASE + i) for i in range(ncores)]
    return results, flags


def run_fig2a(width: int = 2, height: int = 2, *, seg_words: int = 8,
              engine: str = DEFAULT_ENGINE, max_cycles: int = 60_000) -> dict:
    """Build, run to completion, verify, and summarize the CMP."""
    from ..core.constructor import build_simulator
    spec, info = build_fig2a_cmp(width, height, seg_words=seg_words)
    sim = build_simulator(spec, engine=engine)
    cores = [sim.instance(f"core_{x}_{y}") for x, y in info["mesh"].nodes()]
    for _ in range(max_cycles):
        sim.step()
        if all(core.halted for core in cores):
            break
    results, flags = read_results(sim, info["mesh"])
    return {
        "sim": sim,
        "cycles": sim.now,
        "halted": all(core.halted for core in cores),
        "results": results,
        "flags": flags,
        "expected": info["expected"],
        "correct": results == info["expected"] and all(flags),
        "net_transfers": sim.transfers_total,
        "read_misses": sim.stats.total("read_misses"),
        "read_hits": sim.stats.total("read_hits"),
        "invals": sim.stats.total("invals_sent"),
        "mesh": info["mesh"],
    }
