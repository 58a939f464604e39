"""``repro.fabric`` — the distributed campaign fabric.

A campaign that outgrows one machine becomes a *job*: the same
materialized sweep, shipped to a coordinator that shards it by
structural fingerprint (each batch shard one lockstep batch, cut by
the rule a local ``Campaign`` uses), leases shards to
workers over a length-prefixed JSON socket protocol, transfers
compiled-model artifacts by content hash so workers skip compilation,
and merges per-lane results into the same durable JSONL ledger a local
campaign writes — so resume, dedup, and reporting work identically
whether one process or twenty hosts did the simulating.

Layering (each module depends only on the ones above it)::

    protocol    framing + blocking Channel + FabricError
    artifacts   content-addressed CompiledModel transfer
    shards      Shard wire form, planning, execution (the JobSpec a
                shard belongs to is repro.campaign.job's)
    coordinator asyncio service: queue, leases, merge, ledger
    worker      synchronous lease/execute/complete loop
    client      FabricClient + sweep<->job bridges
    cli         ``repro serve|submit|status|results|work``
"""

from .artifacts import (ArtifactError, export_artifact, have_artifact,
                        install_artifact, verify_artifact)
from .client import FabricClient, job_from_sweep, result_from_rows
from .coordinator import Coordinator, CoordinatorThread
from .protocol import Channel, FabricError, one_shot
from .shards import JobSpec, Shard, ShardPlan, execute_shard, plan_shards
from .worker import Worker, worker_main

__all__ = [
    "ArtifactError",
    "Channel",
    "Coordinator",
    "CoordinatorThread",
    "FabricClient",
    "FabricError",
    "JobSpec",
    "Shard",
    "ShardPlan",
    "Worker",
    "execute_shard",
    "export_artifact",
    "have_artifact",
    "install_artifact",
    "job_from_sweep",
    "one_shot",
    "plan_shards",
    "result_from_rows",
    "verify_artifact",
    "worker_main",
]
