"""Parallel runtime substrate: pluggable executor backends, in-process
MPI subset, RMA window, work-stealing load balancer, buffer serde, the
discrete-event cluster simulator, and the meshing service daemon."""

from .client import MeshReply, ServiceClient
from .comm import ANY_SOURCE, ANY_TAG, CommError, Message, ThreadComm, run_spmd
from .counters import Counters, Histogram, KernelCounters, current, phase, use_counters
from .executor import (
    Backend,
    ExecutorError,
    available_backends,
    get_backend,
)
from .loadbalance import DistributedWorker, WorkItem, WorkQueue
from .rma import Window
from .service import (
    MeshCache,
    MeshService,
    ServiceError,
    ServiceThread,
    ServiceUnavailable,
)
from .simulator import (
    NetworkModel,
    SimConfig,
    SimResult,
    SimTask,
    simulate,
    strong_scaling,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Backend",
    "CommError",
    "Counters",
    "DistributedWorker",
    "ExecutorError",
    "Histogram",
    "KernelCounters",
    "MeshCache",
    "MeshReply",
    "MeshService",
    "Message",
    "NetworkModel",
    "ServiceClient",
    "ServiceError",
    "ServiceThread",
    "ServiceUnavailable",
    "SimConfig",
    "SimResult",
    "SimTask",
    "ThreadComm",
    "Window",
    "WorkItem",
    "WorkQueue",
    "available_backends",
    "current",
    "get_backend",
    "phase",
    "run_spmd",
    "simulate",
    "strong_scaling",
    "use_counters",
]
