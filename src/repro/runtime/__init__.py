"""Parallel runtime: the ``serial`` and ``processes`` executor backends,
buffer serde, profiling counters, the discrete-event cluster simulator
(the paper's §II.F work stealing, modelled), and the meshing service
daemon."""

from .._lazy import lazy_exports

#: re-exported name -> defining submodule, imported on first use: the
#: mesher reaches ``executor``/``serde``/``counters`` without loading
#: the service daemon (``asyncio``) or the simulator.
_EXPORTS = {
    "MeshReply": "client",
    "ServiceClient": "client",
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
    "MeshCache": "service",
    "MeshService": "service",
    "ServiceError": "service",
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
