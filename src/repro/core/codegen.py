"""Simulator code generation: compile the static schedule to Python.

The final stage of the Figure-1 pipeline.  Where the worklist engine
*interprets* the reactive semantics and the levelized engine walks a
precomputed schedule, this engine **generates a specialized Python
stepper** for the concrete design: an unrolled sequence of bound
``react`` calls with no per-step scheduling logic at all, produced as
real source text (inspectable via :attr:`CodegenSimulator.generated_source`)
and compiled with :func:`exec`.

This mirrors what LSE's C backend does — weave the specification and
module instances together into an executable simulator — at the
abstraction level the reproduction bands call for ("easy DSL and
codegen, slower simulation acceptable").
"""

from __future__ import annotations

import io
from typing import Callable, List, Optional

from .netlist import Design
from .optimize import LevelizedSimulator


def generate_stepper_source(schedule, design_name: str) -> str:
    """Emit Python source for a specialized per-timestep stepper.

    The generated module defines ``make_stepper(sim, entries)`` where
    ``entries`` is the schedule; acyclic entries become direct bound
    calls hoisted into locals, clusters become ``sim._run_cluster``
    invocations over their slot lists.
    """
    buf = io.StringIO()
    w = buf.write
    w(f'"""Generated stepper for design {design_name!r}. Do not edit."""\n\n')
    w("def make_stepper(sim, entries, cluster_slots):\n")
    # Hoist bound react methods into closure locals, one local per
    # distinct instance: an instance occurring at several (non-adjacent)
    # schedule positions shares a single hoist.
    hoisted: dict = {}
    lines: List[str] = []
    body: List[str] = []
    for i, entry in enumerate(schedule):
        if entry.cluster:
            body.append(f"        sim._run_cluster(entries[{i}], "
                        f"cluster_slots[{i}])")
        else:
            inst = entry.instances[0]
            local = hoisted.get(id(inst))
            if local is None:
                local = f"r{len(hoisted)}"
                hoisted[id(inst)] = local
                lines.append(
                    f"    {local} = entries[{i}].instances[0].react")
            body.append(f"        {local}()")
    for line in lines:
        w(line + "\n")
    w("    begin = sim._begin_step\n")
    w("    end = sim._end_step\n")
    w("    fallback = sim._fallback\n")
    w("    store = sim._store\n")
    w("    def step():\n")
    w("        begin()\n")
    for line in body:
        w(line + "\n")
    w("        if store.unknown > 0:\n")
    w("            fallback()\n")
    w("        end()\n")
    w("    return step\n")
    return buf.getvalue()


def generate_vec_stepper_source(schedule, entry_ops, design_name: str,
                                provenance: Optional[str] = None) -> str:
    """Emit Python source for a *vectorized* lockstep stepper.

    The generated module defines ``make_vec_stepper(owner, vec_reacts)``
    where ``owner`` is a :class:`~repro.core.batched_vec.
    VectorizedBatchedSimulator` and ``vec_reacts`` the bound ``react``
    methods of its plan's vectorized implementations.  ``entry_ops``
    parallels ``schedule`` (see :class:`~repro.core.vec.VecPlan`): a
    ``("vec", k)`` entry becomes a hoisted array-wide react call
    covering every lane at once (a Mealy implementation's index repeats
    at each of its schedule occurrences — one hoist, several re-entrant
    calls), ``("skip",)`` entries (later schedule occurrences of an
    already-run Moore vec instance) vanish from the body entirely,
    ``("scalar",)`` entries iterate the owner's flat per-lane react
    list, and clusters run per lane through
    ``owner._run_entry_cluster``.

    ``provenance`` — where the plan came from ("planned live" vs
    "adopted from compiled artifact") — is stamped into the module
    docstring so ``generated_vec_source`` shows whether this stepper
    executed a shipped compile-time plan or a local replan.
    """
    buf = io.StringIO()
    w = buf.write
    tag = f" Plan {provenance}." if provenance else ""
    w(f'"""Generated vectorized stepper for design {design_name!r}.'
      f'{tag} Do not edit."""\n\n')
    w("def make_vec_stepper(owner, vec_reacts):\n")
    lines: List[str] = []
    body: List[str] = []
    need_cluster = False
    hoisted_vec: set = set()
    for i, (entry, op) in enumerate(zip(schedule, entry_ops)):
        kind = op[0]
        if kind == "vec":
            if op[1] not in hoisted_vec:
                hoisted_vec.add(op[1])
                lines.append(f"    v{op[1]} = vec_reacts[{op[1]}]")
            body.append(f"        v{op[1]}()")
        elif kind == "skip":
            pass
        elif kind == "cluster":
            need_cluster = True
            body.append(f"        run_cluster({i})")
        else:  # scalar: the lanes' flat bound-react list for this entry
            lines.append(f"    s{i} = owner._entry_reacts[{i}]")
            body.append(f"        for r in s{i}:")
            body.append("            r()")
    for line in lines:
        w(line + "\n")
    if need_cluster:
        w("    run_cluster = owner._run_entry_cluster\n")
    w("    begin = owner._vec_begin\n")
    w("    end = owner._vec_end\n")
    w("    def step():\n")
    w("        begin()\n")
    for line in body:
        w(line + "\n")
    w("        end()\n")
    w("    return step\n")
    return buf.getvalue()


class CodegenSimulator(LevelizedSimulator):
    """Engine executing a generated, design-specialized stepper.

    Semantics are identical to :class:`~repro.core.engine.Simulator`
    and :class:`~repro.core.optimize.LevelizedSimulator`; only the
    per-timestep dispatch differs.
    """

    #: Tells the IR compiler to attach a stepper to the CompiledModel.
    NEEDS_STEPPER = True

    def __init__(self, design: Design, **kw):
        super().__init__(design, **kw)
        try:
            # The generated source depends only on the schedule shape,
            # so on a compile-cache hit both the text and its compiled
            # code object come straight off the CompiledModel (the code
            # object via the in-memory layer only).
            self.generated_source = self.compiled.stepper_source
            self._stepper_code = self.compiled.code
            self._build_stepper()
            if self.compiled.code is None:
                # Share the freshly compiled code object through the
                # in-memory cache layer for later constructions.
                self.compiled.code = self._stepper_code
        except BaseException:
            # Base construction succeeded, so the design is already
            # bound and (possibly) opt-stripped; release it so a failed
            # stepper build leaves the Design reusable.
            self.close()
            raise

    def _build_stepper(self) -> None:
        namespace: dict = {}
        if self._stepper_code is None:
            self._stepper_code = compile(
                self.generated_source,
                f"<generated stepper {self.design.name!r}>", "exec")
        exec(self._stepper_code, namespace)
        self._stepper: Callable[[], None] = namespace["make_stepper"](
            self, self.schedule, self._cluster_slots)

    def _instrumentation_changed(self) -> None:
        """Rebind the stepper's hoisted ``react`` references.

        The generated stepper closes over bound methods captured at
        build time; attaching or detaching a profiler replaces the
        per-instance dispatch, so the stepper must be rebuilt to pick
        the new bindings up.
        """
        self._build_stepper()

    def _step(self) -> None:
        self._stepper()

    def close(self) -> None:
        super().close()
        # The stepper closes over this simulator's bound methods: with
        # it gone a closed simulator is freed by reference counting.
        self._stepper = None
