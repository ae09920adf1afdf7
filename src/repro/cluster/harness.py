"""Spawn-a-whole-fleet harness for tests.

One :class:`FleetHarness` owns a coordinator process plus N strict-mode
worker processes, waits for every worker's registration to land, and
offers the two fault injections the failure matrix needs:

* :meth:`kill_worker` — SIGKILL, no goodbye: the coordinator finds out
  through missed heartbeats (or a sender's ``report_dead``);
* :meth:`restart_worker` — a fresh process under the same name; its
  re-registration bumps the generation, which is what forces every
  existing channel to it through the FULL-resync path.

Everything is reaped in :meth:`stop` (idempotent, context-manager
friendly), so no coordinator or worker outlives a test.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.cluster.coordinator import CoordinatorHandle, CoordinatorSpec
from repro.cluster.membership import (
    CoordinatorClient,
    FleetWorkerHandle,
    FleetWorkerSpec,
)
from repro.transport.bootstrap import MB
from repro.transport.errors import ClusterConfigError, WorkerStartupError
from repro.transport.testing import SAMPLE_FACTORY


class FleetHarness:
    """A live fleet: one coordinator, N registered workers."""

    def __init__(
        self,
        size: int,
        classpath_factory: str = SAMPLE_FACTORY,
        name: str = "fleet",
        heartbeat_interval: float = 0.2,
        miss_limit: int = 3,
        read_timeout: float = 30.0,
        young_bytes: int = 4 * MB,
        old_bytes: int = 64 * MB,
        startup_timeout: float = 30.0,
    ) -> None:
        if size < 1:
            raise ClusterConfigError("a fleet needs at least one worker")
        self.size = size
        self.name = name
        self._classpath_factory = classpath_factory
        self._read_timeout = read_timeout
        self._young_bytes = young_bytes
        self._old_bytes = old_bytes
        self._startup_timeout = startup_timeout
        self._stopped = False
        self.coordinator = CoordinatorHandle.spawn(
            CoordinatorSpec(
                name=f"{name}-coordinator",
                heartbeat_interval=heartbeat_interval,
                miss_limit=miss_limit,
            ),
            startup_timeout=startup_timeout,
        )
        self.workers: Dict[str, FleetWorkerHandle] = {}
        try:
            for index in range(size):
                worker = f"{name}-w{index}"
                self.workers[worker] = FleetWorkerHandle.spawn(
                    self._worker_spec(worker),
                    startup_timeout=startup_timeout,
                )
            self.wait_all_alive()
        except Exception:
            self.stop()
            raise

    def _worker_spec(self, worker: str) -> FleetWorkerSpec:
        return FleetWorkerSpec(
            name=worker,
            classpath_factory=self._classpath_factory,
            read_timeout=self._read_timeout,
            young_bytes=self._young_bytes,
            old_bytes=self._old_bytes,
            coordinator_host=self.coordinator.host,
            coordinator_port=self.coordinator.port,
            strict_channels=True,
        )

    @property
    def worker_names(self) -> List[str]:
        return sorted(self.workers)

    # -- registration convergence -----------------------------------------

    def wait_all_alive(self, timeout: Optional[float] = None,
                       names: Optional[List[str]] = None) -> None:
        """Block until every named worker is registered and alive at the
        coordinator (registration is in the worker's startup path, so this
        converges in one heartbeat round)."""
        wanted = set(names if names is not None else self.workers)
        deadline = time.monotonic() + (
            timeout if timeout is not None else self._startup_timeout
        )
        with CoordinatorClient(self.coordinator.host,
                               self.coordinator.port) as client:
            while True:
                records = client.call("workers")["workers"]
                alive = {r["name"] for r in records if r["alive"]}
                if wanted <= alive:
                    return
                if time.monotonic() > deadline:
                    raise WorkerStartupError(
                        f"workers never registered: "
                        f"{sorted(wanted - alive)}"
                    )
                time.sleep(0.05)

    def generation_of(self, worker: str) -> int:
        with CoordinatorClient(self.coordinator.host,
                               self.coordinator.port) as client:
            record = client.call("lookup", name=worker)
        return int(record["generation"]) if record.get("found") else 0

    # -- fault injection ---------------------------------------------------

    def kill_worker(self, worker: str) -> None:
        """SIGKILL — the worker vanishes without a goodbye; the
        coordinator learns from silence (or a sender's report)."""
        self.workers[worker].kill()

    def restart_worker(self, worker: str,
                       timeout: Optional[float] = None) -> FleetWorkerHandle:
        """A fresh process under the same name.  Returns once the new
        incarnation's registration (a *newer* generation) has landed."""
        old_generation = self.generation_of(worker)
        handle = self.workers[worker]
        if handle.process.is_alive():
            handle.kill()
        new_handle = FleetWorkerHandle.spawn(
            self._worker_spec(worker),
            startup_timeout=self._startup_timeout,
        )
        self.workers[worker] = new_handle
        deadline = time.monotonic() + (
            timeout if timeout is not None else self._startup_timeout
        )
        while self.generation_of(worker) <= old_generation:
            if time.monotonic() > deadline:
                raise WorkerStartupError(
                    f"restarted worker {worker!r} never re-registered"
                )
            time.sleep(0.05)
        return new_handle

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Reap everything; safe to call twice (and from fixtures)."""
        if self._stopped:
            return
        self._stopped = True
        for handle in self.workers.values():
            try:
                handle.stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
        try:
            self.coordinator.stop()
        except Exception:  # noqa: BLE001 - teardown best-effort
            pass

    def __enter__(self) -> "FleetHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
