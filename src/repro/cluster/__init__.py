"""repro.cluster — the N-node fabric: coordinator, fleets, peer routing.

PRs 1–5 built a *pairwise* machine: one driver, one worker it spawned
itself, one channel between them.  This package turns that into a mesh:

* :mod:`repro.cluster.coordinator` — the fleet's name service: registers
  workers, assigns globally unique channel ids and placements, answers
  lookups, tracks liveness via heartbeats (its own process, same CRC32
  frame protocol as the workers);
* :mod:`repro.cluster.membership` — the client side of the coordinator
  protocol: an RPC client, the worker-side register-and-heartbeat loop,
  and the fleet worker process that runs it;
* :mod:`repro.cluster.fleet` — the driver front-end: ``Fleet.connect``,
  ``Fleet.channel_to(worker)``, ``Fleet.broadcast``, and peer-to-peer
  transfers (worker A clones straight into worker B — a shuffle fetch
  that never bounces through the driver);
* :mod:`repro.cluster.harness` — spawn-a-whole-fleet test/bench harness
  with kill/restart fault injection.
"""

from __future__ import annotations

from repro.transport.errors import (
    ClusterConfigError,
    ClusterError,
    ClusterProtocolError,
    CoordinatorUnavailableError,
    PeerGoneError,
)

__all__ = [
    "ClusterConfigError",
    "ClusterError",
    "ClusterProtocolError",
    "CoordinatorHandle",
    "CoordinatorClient",
    "CoordinatorSpec",
    "CoordinatorUnavailableError",
    "Fleet",
    "FleetChannel",
    "FleetHarness",
    "LocalCoordinator",
    "PeerGoneError",
    "RESERVED_CHANNEL_ID",
    "WorkerMembership",
]

_LAZY = {
    "CoordinatorHandle": "repro.cluster.coordinator",
    "CoordinatorSpec": "repro.cluster.coordinator",
    "LocalCoordinator": "repro.cluster.coordinator",
    "RESERVED_CHANNEL_ID": "repro.cluster.coordinator",
    "CoordinatorClient": "repro.cluster.membership",
    "WorkerMembership": "repro.cluster.membership",
    "Fleet": "repro.cluster.fleet",
    "FleetChannel": "repro.cluster.fleet",
    "FleetHarness": "repro.cluster.harness",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.cluster' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
