"""The IR optimizer: decide what an engine binds, not its order.

The paper's construction-time argument (§2.3) is that a fixed model of
computation lets the *system* analyze and optimize a specification
before any engine animates it.  The schedule itself is that analysis:
:func:`repro.core.optimize.build_schedule` orders it once, fused and
instance-affine, for every engine at every level, and port views are
bound into the instances at wiring time
(:meth:`repro.core.module.LeafModule.bind_port`), so a template's one
``react`` is already the specialized one.  What remains to rewrite
afterwards is one pass (:mod:`repro.core.opt.pipeline`) over the
compiled-model IR (:class:`repro.core.ir.CompiledModel`), producing a
portable *opt block* every engine applies at construction:

``dead-code`` (``--opt 2`` only)
    Eliminates instances that cannot reach a consuming endpoint —
    the exact ``connectivity.dead-instance`` semantics of
    :mod:`repro.analysis.connectivity` — restricted to *closed* dead
    subgraphs so no surviving instance's environment changes, and
    drops their entries from the schedule.  The eliminated instances'
    own statistics vanish with them, which is why this is level 2.

Optimization levels: ``0`` skips the pipeline, ``1`` runs the
observation-equivalent passes — none remain, so it takes the same
staged path with an empty pass list — and ``2`` adds dead-code
elimination.
Optimized artifacts are cached by :func:`repro.core.ir.compile_model`
under a ``(fingerprint, opt_level, OPT_VERSION)`` key
(:func:`opt_cache_key`) so warm constructions skip the pipeline
entirely.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from ..errors import SpecificationError

#: Bump when a pass changes behavior; folded into the optimized-IR
#: cache key so stale on-disk artifacts are never rebound.
#: 2: specialize + group-merge passes, ``specialized`` block key.
#: 3: fusion/prune folded into build_schedule; const-prop, group-merge
#: and control-inline deleted with the ``static``/``controls`` keys;
#: specialize moved to level 1.
#: 4: specialize deleted with the ``specialized`` block key (port views
#: are bound into the instances at wiring time instead); ``passes`` is
#: the list of pass names run.
OPT_VERSION = 4

#: Environment variable naming the default optimization level.
OPT_ENV_VAR = "REPRO_OPT"

#: Highest supported level.
MAX_OPT_LEVEL = 2


def resolve_opt_level(level: Union[int, str, None] = None) -> int:
    """Validate ``level``, defaulting from the ``REPRO_OPT`` environment.

    ``None`` consults ``REPRO_OPT`` and falls back to ``0`` — no
    pipeline — when unset.  Accepts ints or
    numeric strings; anything outside ``0..2`` raises
    :class:`~repro.core.errors.SpecificationError`.
    """
    if level is None:
        raw = os.environ.get(OPT_ENV_VAR, "").strip()
        if not raw:
            return 0
        level = raw
    try:
        value = int(level)
    except (TypeError, ValueError):
        raise SpecificationError(
            f"optimization level must be an integer in 0..{MAX_OPT_LEVEL}, "
            f"got {level!r}") from None
    if not 0 <= value <= MAX_OPT_LEVEL:
        raise SpecificationError(
            f"optimization level must be in 0..{MAX_OPT_LEVEL}, "
            f"got {value}")
    return value


def opt_cache_key(fingerprint: str, level: int) -> str:
    """The compile-cache key of one optimized artifact.

    Composite over the structural fingerprint, the opt level and
    :data:`OPT_VERSION`, so the same design caches its unoptimized and
    per-level optimized forms side by side and a pass-behavior change
    invalidates exactly the optimized entries.
    """
    return f"{fingerprint}@opt{level}.{OPT_VERSION}"


def opt_level_argument(text: str) -> int:
    """``argparse`` type for ``--opt`` flags: uniform CLI validation.

    Every CLI accepting an optimization level (``run``, ``profile``,
    ``campaign``, fabric ``submit``, ``opt``) shares this converter so
    garbage and out-of-range levels fail identically — exit 2 with a
    message naming the valid range, mirroring how engine-name typos
    are reported for ``REPRO_ENGINE``.
    """
    import argparse
    try:
        return resolve_opt_level(text)
    except SpecificationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def __getattr__(name: str):
    # Lazy re-exports: importing repro.core.opt for the level knobs
    # must not pull networkx/the pipeline in.
    if name in ("optimize_model", "OptResult", "explain_report",
                "schedule_signature", "react_calls"):
        from . import pipeline
        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["OPT_VERSION", "OPT_ENV_VAR", "MAX_OPT_LEVEL",
           "resolve_opt_level", "opt_cache_key", "opt_level_argument",
           "optimize_model", "OptResult", "explain_report",
           "schedule_signature", "react_calls"]
