"""Parallel runtime substrate: pluggable executor backends, in-process
MPI subset, RMA window, work-stealing load balancer, buffer serde, the
discrete-event cluster simulator, and the meshing service daemon."""

from .._lazy import lazy_exports

#: re-exported name -> defining submodule, imported on first use: the
#: mesher reaches ``executor``/``serde``/``counters`` without loading
#: the service daemon (``asyncio``), the SPMD runtime or the simulator.
_EXPORTS = {
    "MeshReply": "client",
    "ServiceClient": "client",
    "ANY_SOURCE": "comm",
    "ANY_TAG": "comm",
    "CommError": "comm",
    "Message": "comm",
    "ThreadComm": "comm",
    "run_spmd": "comm",
    "Counters": "counters",
    "Histogram": "counters",
    "KernelCounters": "counters",
    "current": "counters",
    "phase": "counters",
    "use_counters": "counters",
    "Backend": "executor",
    "ExecutorError": "executor",
    "available_backends": "executor",
    "get_backend": "executor",
    "DistributedWorker": "loadbalance",
    "WorkItem": "loadbalance",
    "WorkQueue": "loadbalance",
    "Window": "rma",
    "MeshCache": "service",
    "MeshService": "service",
    "ServiceError": "service",
    "ServiceThread": "service",
    "ServiceUnavailable": "service",
    "NetworkModel": "simulator",
    "SimConfig": "simulator",
    "SimResult": "simulator",
    "SimTask": "simulator",
    "simulate": "simulator",
    "strong_scaling": "simulator",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
