"""The optimizer passes, one module per pass.

Each module exposes ``NAME`` (the pass's report name) and
``run(ctx) -> dict`` — mutate the shared
:class:`~repro.core.opt.pipeline.OptContext` and return pass-specific
delta counts for the explain report.  Ordering and level gating live
in :data:`repro.core.opt.pipeline.PASS_TABLE`.
"""

from . import dead_code, specialize

__all__ = ["dead_code", "specialize"]
