"""The worker fabric: one executor/transport layer for serving and sweeps.

``repro.runtime`` owns the worker abstraction for the whole codebase.
A :class:`Worker` executes :class:`WorkItem` batches on warm engines and
returns logits plus per-image trace aggregates; three interchangeable
executors ship (``thread``, ``process``, ``remote`` — the last over
TCP to a host running ``repro worker --listen``, speaking zero-copy
RBF1 frames from the first byte); a
:class:`WorkerGroup` schedules items across any mix of them with work
stealing, heartbeat liveness tracking and crash requeueing.  Each item
resolves one future exactly once, whatever lane finishes it; the fabric
keeps no result store, so nothing outlives the caller's reference.

The serving pool (``repro.serve.pool.EnginePool``) and the sweep driver
(``repro.harness.sweep.SweepDriver``) are thin policy layers over this
fabric — serving keeps its micro-batch flush policies, sweeps keep
sharding and the persistent store — and both inherit the fabric's
contract: **any executor mix merges bit-identically to a serial
single-process run.**

Quick tour::

    from repro.runtime import (Deployment, WorkItem, WorkerGroup,
                               create_workers)

    group = WorkerGroup(create_workers(["thread", "host:7601"]),
                        deployments=[Deployment(network, config)])
    with group:
        results = group.run([WorkItem(0, 0, images)])
"""

from repro.runtime.codec import (
    attach_token,
    check_token,
    decode_frame,
    encode_frame,
    fabric_auth,
    parse_frame_prefix,
    read_frame,
)
from repro.runtime.chaos import ChaosEvent, ChaosPolicy
from repro.runtime.group import (DEFAULT_DISPATCH_COST_S, GroupMetrics,
                                 WorkerGroup)
from repro.runtime.registry import DeploymentRegistry, RegisteredDeployment
from repro.runtime.remote import (
    GroupListener,
    JoinStats,
    RemoteWorker,
    WorkerServer,
    join_fabric,
)
from repro.runtime.shm import ShmArena, shm_available
from repro.runtime.work import (
    Deployment,
    WorkItem,
    WorkResult,
    execute_item,
)
from repro.runtime.workers import (
    ProcessWorker,
    ThreadWorker,
    Worker,
    create_workers,
    normalize_worker_specs,
)

__all__ = [
    "ChaosEvent",
    "ChaosPolicy",
    "DEFAULT_DISPATCH_COST_S",
    "Deployment",
    "DeploymentRegistry",
    "GroupListener",
    "GroupMetrics",
    "JoinStats",
    "ProcessWorker",
    "RegisteredDeployment",
    "RemoteWorker",
    "ShmArena",
    "ThreadWorker",
    "WorkItem",
    "WorkResult",
    "Worker",
    "WorkerGroup",
    "WorkerServer",
    "attach_token",
    "check_token",
    "create_workers",
    "decode_frame",
    "encode_frame",
    "execute_item",
    "fabric_auth",
    "join_fabric",
    "normalize_worker_specs",
    "parse_frame_prefix",
    "read_frame",
    "shm_available",
]
