"""Simulator code generation: compile the static schedule to Python.

The final stage of the Figure-1 pipeline.  Where the worklist engine
*interprets* the reactive semantics, the static engine
(:class:`~repro.core.optimize.LevelizedSimulator`) runs a **generated,
design-specialized stepper**: an unrolled sequence of bound ``react``
calls with no per-step scheduling logic at all, produced as real
source text (inspectable via its ``generated_source``) and compiled
with :func:`exec`.  The lockstep engine
(:class:`~repro.core.batched.BatchedSimulator`) runs the vectorized
counterpart, :func:`generate_vec_stepper_source`.

This mirrors what LSE's C backend does — weave the specification and
module instances together into an executable simulator — at the
abstraction level the reproduction bands call for ("easy DSL and
codegen, slower simulation acceptable").
"""

from __future__ import annotations

import io
from typing import List, Optional


def stepper_instances(schedule) -> list:
    """The instances a generated stepper hoists, in hoist order.

    One per distinct instance of an acyclic entry, first occurrence
    first: an instance at several (non-adjacent) schedule positions
    shares one hoist.  The stepper's ``reacts`` argument is their bound
    ``react`` methods, in this order.
    """
    return list({id(entry.instances[0]): entry.instances[0]
                 for entry in schedule if not entry.cluster}.values())


def generate_stepper_source(schedule, design_name: str) -> str:
    """Emit Python source for a specialized per-timestep stepper.

    The generated module defines ``make_stepper(sim, reacts, entries,
    cluster_slots)``: ``reacts`` are the bound methods of
    :func:`stepper_instances`, unpacked into closure locals in one
    statement; acyclic entries become direct calls of those locals, and
    clusters become ``sim._run_cluster`` invocations over their slot
    lists.
    """
    buf = io.StringIO()
    w = buf.write
    w(f'"""Generated stepper for design {design_name!r}. Do not edit."""\n\n')
    w("def make_stepper(sim, reacts, entries, cluster_slots):\n")
    local = {id(inst): f"r{k}"
             for k, inst in enumerate(stepper_instances(schedule))}
    if local:
        comma = "," if len(local) == 1 else ""
        w(f"    {', '.join(local.values())}{comma} = reacts\n")
    w("    begin = sim._begin_step\n")
    w("    end = sim._end_step\n")
    w("    fallback = sim._fallback\n")
    w("    store = sim._store\n")
    w("    def step():\n")
    w("        begin()\n")
    for i, entry in enumerate(schedule):
        if entry.cluster:
            w(f"        sim._run_cluster(entries[{i}], cluster_slots[{i}])\n")
        else:
            w(f"        {local[id(entry.instances[0])]}()\n")
    w("        if store.unknown > 0:\n")
    w("            fallback()\n")
    w("        end()\n")
    w("    return step\n")
    return buf.getvalue()


def generate_vec_stepper_source(schedule, entry_ops, design_name: str,
                                provenance: Optional[str] = None) -> str:
    """Emit Python source for a *vectorized* lockstep stepper.

    The generated module defines ``make_vec_stepper(owner, vec_reacts,
    entry_reacts)`` where ``owner`` is a :class:`~repro.core.batched.
    BatchedSimulator`, ``vec_reacts`` the bound ``react`` methods of its
    plan's vectorized implementations and ``entry_reacts[i]`` the flat
    per-lane react list of scalar entry ``i``.  ``entry_ops``
    parallels ``schedule`` (see :class:`~repro.core.vec.VecPlan`): a
    ``("vec", k)`` entry becomes a hoisted array-wide react call
    covering every lane at once (a Mealy implementation's index repeats
    at each of its schedule occurrences — one hoist, several re-entrant
    calls), ``("skip",)`` entries (later schedule occurrences of an
    already-run Moore vec instance) vanish from the body entirely,
    ``("scalar",)`` entries iterate their per-lane react list, and
    clusters run per lane through
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
    w("def make_vec_stepper(owner, vec_reacts, entry_reacts):\n")
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
            lines.append(f"    s{i} = entry_reacts[{i}]")
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
