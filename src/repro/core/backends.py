"""The backend registry: one name space for every execution engine.

The paper's construction-time argument (§2.3) separates *what* a
specification means from *how* the system chooses to animate it.  This
module is that seam: each engine registers here under a short name, one
per genuinely different strategy — ``"worklist"`` (the dynamic
reference interpreter), ``"levelized"`` (the static engine: a generated
stepper over the static schedule) and ``"batched"`` (the lockstep
engine: N structurally identical designs under one vectorized plan).
Every consumer — :func:`repro.core.constructor.build_simulator`, the
CLI ``--engine`` flags, the campaign layer, the benchmarks, the test
matrix — resolves names through the registry instead of hard-coding
the list.  :data:`DEFAULT_ENGINE` (``"levelized"``) is the one default
every API signature and CLI flag shares; the worklist interpreter stays
the reference semantics the others are checked against.  The former
names ``"codegen"`` and ``"batched-vec"`` still resolve, to the static
and lockstep engines, but are not listed (see :data:`ALIASES`).

Registration is **lazy**: a backend records a ``"module:attr"`` target
string and the class is imported only when first resolved, so merely
importing the registry (e.g. to enumerate names for an argparse
``choices=``) pulls in none of the engines.

The ``REPRO_ENGINE`` environment variable selects the engine
:func:`default_engine` returns when a caller passes no explicit name —
handy for running an entire test suite against a different backend
without touching call sites (CLI flags default to the constant and
ignore it).  ``REPRO_OPT`` plays the same role for the optimizer level
(:mod:`repro.core.opt`): engines that receive no explicit ``opt=``
argument resolve it from the environment, so ``REPRO_OPT=2 pytest``
runs everything over optimized IR.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, Optional, Tuple

from .errors import SpecificationError

#: The engine used when no explicit name is given: the fastest solo
#: engine, bit-identical to the worklist reference.
DEFAULT_ENGINE = "levelized"

#: Environment variable naming the default engine.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Former engine names that still resolve, unlisted, while the
#: benchmark harness in ``perf/`` names them.
ALIASES = {"codegen": "levelized", "batched-vec": "batched"}


class Backend:
    """One registered engine: a name bound to a lazily imported class.

    ``consumes`` tags the staged compile-time artifacts the engine
    executes (see :func:`repro.core.ir.compile_model`): ``"stepper"``
    for a generated Python stepper, ``"vec"`` for the compile-time vec
    plan.  The tags live on the registration — not the class — so
    cache warming can ask what an engine needs without importing it.
    """

    __slots__ = ("name", "target", "doc", "consumes", "_cls")

    def __init__(self, name: str, target: str, doc: str = "",
                 consumes: Tuple[str, ...] = ()):
        self.name = name
        self.target = target
        self.doc = doc
        self.consumes = tuple(consumes)
        self._cls = None

    def cls(self):
        """Import (once) and return the simulator class."""
        if self._cls is None:
            module_name, _, attr = self.target.partition(":")
            self._cls = getattr(importlib.import_module(module_name), attr)
        return self._cls

    def __repr__(self) -> str:
        return f"<Backend {self.name!r} -> {self.target}>"


_REGISTRY: Dict[str, Backend] = {}


def register_backend(name: str, target: str, *, doc: str = "",
                     consumes: Tuple[str, ...] = (),
                     replace: bool = False) -> Backend:
    """Register an engine class under ``name``.

    ``target`` is a ``"module:attr"`` string imported on first use.
    ``consumes`` tags the staged artifacts the engine executes (see
    :class:`Backend`).  Re-registering an existing name requires
    ``replace=True`` so typos cannot silently shadow a built-in
    engine.
    """
    if name in _REGISTRY and not replace:
        raise SpecificationError(
            f"engine {name!r} is already registered "
            f"({_REGISTRY[name].target}); pass replace=True to override")
    backend = Backend(name, target, doc, consumes)
    _REGISTRY[name] = backend
    return backend


def engine_names() -> Tuple[str, ...]:
    """All registered engine names, in registration order."""
    return tuple(_REGISTRY)


def engine_choices() -> Tuple[str, ...]:
    """Every name an ``--engine`` flag accepts: the registered engines,
    then the :data:`ALIASES`."""
    return engine_names() + tuple(ALIASES)


def get_backend(name: str) -> Backend:
    """The :class:`Backend` registered under ``name`` (or the one an
    alias names).

    Raises :class:`~repro.core.errors.SpecificationError` listing the
    registered names when ``name`` is unknown — the one error message
    every CLI and campaign typo funnels through.
    """
    try:
        return _REGISTRY[ALIASES.get(name, name)]
    except KeyError:
        known = ", ".join(repr(n) for n in _REGISTRY)
        raise SpecificationError(
            f"unknown engine {name!r}; registered engines: {known}") \
            from None


def resolve_engine(name: str):
    """The simulator class registered under ``name``."""
    return get_backend(name).cls()


def default_engine() -> str:
    """The engine used when no explicit name is given.

    Honours the ``REPRO_ENGINE`` environment variable (validated
    against the registry) and falls back to :data:`DEFAULT_ENGINE` when
    unset.
    """
    name = os.environ.get(ENGINE_ENV_VAR, "").strip()
    if not name:
        return DEFAULT_ENGINE
    get_backend(name)  # validate, with the helpful listing on a typo
    return name


def default_opt_level() -> int:
    """The optimizer level used when no explicit ``opt=`` is given.

    Honours the ``REPRO_OPT`` environment variable (validated against
    the supported range) and falls back to 0 — optimization off —
    when unset.  The symmetric companion of :func:`default_engine`.
    """
    from .opt import resolve_opt_level
    return resolve_opt_level(None)


def compile_options_for(name: str, *, opt: Optional[int] = None):
    """The ``CompileOptions`` that warm the cache for engine ``name``.

    Built from the registration's ``consumes`` tags, so campaign and
    fabric cache priming ask the registry what an engine executes —
    generated stepper, compile-time vec plan — instead of hard-coding
    per-engine knowledge (and without importing the engine class).
    ``opt=None`` resolves the level from ``REPRO_OPT``.
    """
    from .ir import CompileOptions
    from .opt import resolve_opt_level
    consumes = get_backend(name).consumes
    return CompileOptions(opt_level=resolve_opt_level(opt),
                          need_stepper="stepper" in consumes,
                          vec="vec" in consumes)


# -- built-in engines ------------------------------------------------------
register_backend(
    "worklist", "repro.core.engine:Simulator",
    doc="dynamic worklist interpreter; the reference semantics")
register_backend(
    "levelized", "repro.core.optimize:LevelizedSimulator",
    doc="generated per-design stepper over the static schedule",
    consumes=("stepper",))
register_backend(
    "batched", "repro.core.batched:BatchedSimulator",
    doc="lockstep execution of N structurally identical designs with "
        "numpy structure-of-arrays lane state; without a plan each lane "
        "runs its own static stepper",
    consumes=("vec",))
