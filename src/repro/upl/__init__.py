"""UPL — the Uniprocessor Library (paper §3.2).

Building blocks for microprocessor models: the LibertyRISC ISA with its
assembler and functional emulator (the instruction-set-emulation box of
Figure 1), a multi-cycle port-structural core, a five-stage in-order
pipeline assembled from stage templates, branch predictors, caches, and
a register file with scoreboard.  The reorder buffer and instruction
window of the paper's reuse story are instantiations of
:class:`repro.pcl.Buffer` — see ``benchmarks/bench_claim_reuse.py``.
"""

from .isa import (ALU_OPS, BRANCH_OPS, Instruction, LOAD_OPS, MMIO_BASE,
                  NUM_REGS, Program, STORE_OPS, decode, encode,
                  sign_extend16, to_signed32, to_unsigned32)
from .assembler import assemble
from .emulator import (ArchState, FlatMemory, FunctionalEmulator,
                       OP_IFETCH, OP_READ, OP_WRITE, begin, branch_taken,
                       execute_alu, resume)
from .core import SimpleCore
from .cache import Cache
from .regfile import ReadReq, ReadResp, RegFile
from .predictors import (BimodalPredictor, GSharePredictor,
                         ReturnStackPredictor, StaticPredictor)
from .pipeline import (DecodeStage, ExecuteStage, InOrderPipeline, MemStage,
                       PipelineShared, ProgFetch, Uop, WriteBack)
from .ooo import (ALUUnit, CDBMsg, CommitUnit, Dispatch, MicroOp, OoOCore,
                  OoOShared)
from . import programs

__all__ = [
    # ISA
    "Instruction", "Program", "decode", "encode", "assemble",
    "NUM_REGS", "MMIO_BASE", "ALU_OPS", "BRANCH_OPS", "LOAD_OPS",
    "STORE_OPS", "to_signed32", "to_unsigned32", "sign_extend16",
    # emulation
    "ArchState", "FlatMemory", "FunctionalEmulator", "begin", "resume",
    "execute_alu", "branch_taken", "OP_IFETCH", "OP_READ", "OP_WRITE",
    # structural components
    "SimpleCore", "Cache", "RegFile", "ReadReq", "ReadResp",
    "StaticPredictor", "BimodalPredictor", "GSharePredictor",
    "ReturnStackPredictor",
    "ProgFetch", "DecodeStage", "ExecuteStage", "MemStage", "WriteBack",
    "InOrderPipeline", "PipelineShared", "Uop",
    "OoOCore", "OoOShared", "MicroOp", "CDBMsg",
    "Dispatch", "ALUUnit", "CommitUnit",
    "programs",
]
