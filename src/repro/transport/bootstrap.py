"""Building a Skyway runtime (and its listening socket) inside a fresh
process — and hosting a server loop there (:func:`serve_reporting_port`,
spawned through :class:`ProcessHandle`) or on a thread (:class:`ThreadHost`).

``multiprocessing.spawn`` pickles worker arguments, and a
:class:`~repro.core.runtime.SkywayRuntime` (heap bytearrays, klass graphs,
hooks) is not meaningfully picklable — so workers are described by a
*recipe*: the dotted name of a zero-argument classpath factory plus JVM
sizing.  Parent and child both call :func:`build_runtime`, which also
gives tests an identical in-process reference runtime for the
byte-identical round-trip check.

:func:`bind_listener` is the harness's other bootstrap step: binding the
server port with a *bounded* retry on address-in-use, so spawning a whole
fleet of workers on one host never flakes on an ephemeral-port race (a
just-released port lingering in TIME_WAIT, or two spawns landing on the
same kernel-chosen port between bind and listen).
"""

from __future__ import annotations

import errno
import importlib
import logging
import multiprocessing
import os
import socket
import threading
import time
from typing import Callable

from repro.core.runtime import SkywayRuntime
from repro.core.type_registry import DriverRegistry
from repro.jvm.jvm import JVM
from repro.transport.errors import WorkerStartupError
from repro.types.classdef import ClassPath

MB = 1024 * 1024

#: errnos that mean "this port is (still) taken" — the transient class
#: worth retrying; anything else (bad address, permissions) fails fast.
_BIND_RETRY_ERRNOS = frozenset(
    e for e in (
        getattr(errno, "EADDRINUSE", None),
        getattr(errno, "EADDRNOTAVAIL", None),
    ) if e is not None
)


def bind_listener(
    host: str,
    port: int,
    attempts: int = 5,
    backoff: float = 0.05,
    backlog: int = 8,
) -> socket.socket:
    """Bind and listen on ``host:port`` with bounded port-in-use retry.

    Retries only the transient "address in use" class with exponential
    backoff (``backoff * 2**n`` between tries); the budget is bounded so a
    genuinely occupied fixed port surfaces as a typed
    :class:`WorkerStartupError` instead of a hang.  ``port=0`` asks the
    kernel for an ephemeral port, which can *still* race another process
    between allocation and listen — the retry covers that case too.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    last_error: Exception = None  # type: ignore[assignment]
    for attempt in range(attempts):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
            listener.listen(backlog)
            return listener
        except OSError as exc:
            listener.close()
            if exc.errno not in _BIND_RETRY_ERRNOS:
                raise WorkerStartupError(
                    f"cannot bind {host}:{port}: {exc}"
                ) from exc
            last_error = exc
            if attempt + 1 < attempts:
                time.sleep(backoff * (2 ** attempt))
    raise WorkerStartupError(
        f"port {host}:{port} still in use after {attempts} bind "
        f"attempt(s): {last_error}"
    )


def configure_worker_logging() -> None:
    """Structured logging for spawned processes: level from REPRO_LOG_LEVEL
    (default WARNING), records tagged with the per-server logger name."""
    level_name = os.environ.get("REPRO_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(levelname)s %(name)s [pid %(process)d] "
               "%(message)s",
    )


def serve_reporting_port(port_pipe, host: str, port: int,
                         build: Callable[[int], object],
                         backlog: int = 8) -> None:
    """The body of a spawned server process: bind (with the bounded
    port-in-use retry — fleets spawn many servers on one host), call
    ``build(bound_port)`` for the :class:`~repro.transport.loop.FrameLoop`
    to serve, report ``("ok", port)`` — or ``("error", why)`` — through
    ``port_pipe``, then serve until the loop exits."""
    configure_worker_logging()
    listener = None
    try:
        listener = bind_listener(host, port, backlog=backlog)
        bound = listener.getsockname()[1]
        loop = build(bound)
        loop.log.info("listening on %s:%d", host, bound)
        port_pipe.send(("ok", bound))
    except Exception as exc:  # noqa: BLE001 - parent re-raises as typed error
        try:
            port_pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            if listener is not None:
                listener.close()
        return
    finally:
        port_pipe.close()
    try:
        loop.serve_forever(listener)
    finally:
        listener.close()


class ProcessHandle:
    """A spawned server process and the port it listens on.  Subclasses
    name what it is (``kind``) and its entry point (``main``)."""

    def __init__(self, spec, process, port: int) -> None:
        self.spec = spec
        self.process = process
        self.host = spec.host
        self.port = port

    @classmethod
    def spawn(cls, spec, startup_timeout: float = 30.0):
        """Start the process (``multiprocessing.spawn`` — a fresh
        interpreter, like a fresh JVM) and wait for its listening port."""
        ctx = multiprocessing.get_context("spawn")
        parent_pipe, child_pipe = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=cls.main, args=(spec, child_pipe),
            name=f"skyway-{cls.kind}-{spec.name}", daemon=True,
        )
        process.start()
        child_pipe.close()
        try:
            if not parent_pipe.poll(startup_timeout):
                raise WorkerStartupError(
                    f"{cls.kind} {spec.name!r} reported no port within "
                    f"{startup_timeout}s"
                )
            status, value = parent_pipe.recv()
        except (EOFError, OSError) as exc:
            process.terminate()
            process.join(timeout=5)
            raise WorkerStartupError(
                f"{cls.kind} {spec.name!r} died during startup: {exc}"
            ) from exc
        finally:
            parent_pipe.close()
        if status != "ok":
            process.join(timeout=5)
            raise WorkerStartupError(
                f"{cls.kind} {spec.name!r} failed to start: {value}"
            )
        return cls(spec, process, int(value))

    def kill(self) -> None:
        """SIGKILL — the fault-injection path (server dies mid-stream)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5)

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate and reap (fixtures call this; no zombie processes)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=timeout)
        self.kill()  # last resort; a no-op once SIGTERM has been obeyed


class ThreadHost:
    """A :class:`~repro.transport.loop.FrameLoop` served from a daemon
    thread in *this* interpreter: real sockets carry the protocol while a
    test reaches the server object (``.loop``) directly."""

    def __init__(self, loop, name: str, host: str, port: int,
                 backlog: int = 8) -> None:
        self.loop = loop
        self._listener = bind_listener(host, port, backlog=backlog)
        self.host = host
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(
            target=loop.serve_forever, args=(self._listener,),
            name=name, daemon=True,
        )

    def start(self):
        if not self._thread.is_alive():
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Returns within one loop tick."""
        self.loop.shutdown()
        self._thread.join(timeout=timeout)
        self._listener.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def resolve_classpath_factory(spec: str) -> Callable[[], ClassPath]:
    """``"pkg.module:function"`` -> the callable it names."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise WorkerStartupError(
            f"classpath factory {spec!r} is not of the form 'module:function'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise WorkerStartupError(
            f"cannot import classpath factory module {module_name!r}: {exc}"
        ) from exc
    factory = getattr(module, attr, None)
    if not callable(factory):
        raise WorkerStartupError(
            f"{module_name!r} has no callable {attr!r}"
        )
    return factory


def build_runtime(
    name: str,
    classpath_factory: str,
    young_bytes: int = 4 * MB,
    old_bytes: int = 64 * MB,
) -> SkywayRuntime:
    """A self-driving Skyway runtime (each process is its own registry
    driver; cross-process agreement comes from the HELLO merge)."""
    classpath = resolve_classpath_factory(classpath_factory)()
    jvm = JVM(name, classpath=classpath,
              young_bytes=young_bytes, old_bytes=old_bytes)
    return SkywayRuntime(jvm, DriverRegistry(), is_driver=True)
