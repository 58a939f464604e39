"""repro.campaign — parallel, resumable experiment campaigns.

The experiment-frame layer over the simulator constructor: one LSS
spec (or builder callable) plus a parameter sweep becomes a managed
*campaign* of independent runs — executed by a fault-tolerant
multiprocess worker pool with per-run timeouts and bounded
retry-with-backoff, journaled to a durable JSONL ledger so an
interrupted campaign resumes where it stopped, checkpointing engine
state mid-run so retries restart from the last snapshot, and
aggregated into a campaign-level statistics table.

Quickstart
----------
>>> from repro.campaign import Campaign, GridSweep
>>> def build(depth, rate):                       # doctest: +SKIP
...     from repro import LSS
...     from repro.pcl import Source, Queue, Sink
...     spec = LSS("pipe")
...     src = spec.instance("src", Source, pattern="bernoulli", rate=rate)
...     q = spec.instance("q", Queue, depth=depth)
...     snk = spec.instance("snk", Sink)
...     spec.connect(src.port("out"), q.port("in"))
...     spec.connect(q.port("out"), snk.port("in"))
...     return spec
>>> campaign = Campaign("depth-x-rate",           # doctest: +SKIP
...                     GridSweep({"depth": [1, 2, 4, 8],
...                                "rate": [0.3, 0.9]}),
...                     target=build, kind="spec", cycles=2000, workers=4)
>>> result = campaign.run()                       # doctest: +SKIP
>>> result.group_by("depth", "snk:consumed")      # doctest: +SKIP
"""

from .aggregate import CampaignResult, RunRow                     # noqa: F401
from .campaign import (Campaign, cut_sweep,                       # noqa: F401
                       fingerprint_groups, result_from_ledger)
from .checkpoint import (load_state, run_with_checkpoints,        # noqa: F401
                         save_state)
from .errors import CampaignError                                 # noqa: F401
from .job import (JobSpec, cut_task, job_from_sweep,              # noqa: F401
                  open_journal)
from .executor import (InlineExecutor, ProcessExecutor,           # noqa: F401
                       RunOutcome, RunTask, execute_task,
                       resolve_target)
from .ledger import Ledger, LedgerState, RunState                 # noqa: F401
from .sweep import (GridSweep, RandomSweep, Sweep, SweepPoint,    # noqa: F401
                    point_seed)

__all__ = [
    "Campaign", "CampaignError", "CampaignResult", "RunRow",
    "GridSweep", "RandomSweep", "Sweep", "SweepPoint", "point_seed",
    "Ledger", "LedgerState", "RunState",
    "InlineExecutor", "ProcessExecutor", "RunOutcome", "RunTask",
    "execute_task", "resolve_target",
    "save_state", "load_state", "run_with_checkpoints",
    "result_from_ledger", "fingerprint_groups", "cut_sweep",
    "JobSpec", "job_from_sweep", "cut_task", "open_journal",
]
