"""The socket substrate: epochs delivered to a worker process.

A :class:`SocketGraphChannel` frames epochs with the same
:class:`~repro.delta.channel.DeltaSendChannel` the loopback substrate uses
and ships each frame through :meth:`WorkerClient.send_epoch` (an EPOCH
header, MUX_DATA chunks and a MUX_TRAILER tagged with the channel id,
written inline: the frame is already in hand, so there is no writer thread
and no per-channel pipeline knob; any number of channels share the
client's one socket).  The worker applies it through *its* runtime's delta
endpoint and answers with receiver roots and a semantic graph digest — the
same handle the loopback receipt carries, so the two substrates are
directly comparable.

NACK recovery is the client's
(:meth:`~repro.transport.client.WorkerClient.send_epoch_recovering`): a
stale receiver (worker restarted, full GC on the worker heap, epoch gap)
answers a per-channel ``ok=false`` RESULT naming ``DeltaStaleError``; the
connection survives, the channel forces the next epoch full, and the
resend goes out on the same socket — one ``send()`` call, two wire frames,
receipt flagged ``nack_recovered=True``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.runtime import SkywayRuntime
from repro.delta.channel import DeltaSendChannel
from repro.exchange.capabilities import (
    ChannelCapabilities,
    DEFAULT_REQUEST,
    SOCKET_OFFER,
)
from repro.exchange.channel import GraphChannel, SendReceipt, collect_roots
from repro.exchange.errors import ExchangeConfigError
from repro.policy import SendPlan
from repro.simtime import Category
from repro.transport.client import WorkerClient


class SocketGraphChannel(GraphChannel):
    """One sending endpoint bound to a worker connection (which any
    number of channels may share)."""

    substrate = "socket"

    def __init__(
        self,
        runtime: SkywayRuntime,
        client: WorkerClient,
        requested: ChannelCapabilities = DEFAULT_REQUEST,
        policy=None,
        channel_id: Optional[int] = None,
        destination: Optional[str] = None,
    ) -> None:
        dest = destination if destination is not None else (
            client.peer_name or f"{client.host}:{client.port}"
        )
        super().__init__(dest, requested, SOCKET_OFFER)
        if client.runtime is not runtime:
            raise ExchangeConfigError(
                f"client speaks for runtime {client.runtime.jvm.name!r}, "
                f"channel for {runtime.jvm.name!r}"
            )
        self.runtime = runtime
        self.client = client
        self._channel = DeltaSendChannel(
            runtime,
            destination=dest,
            policy=policy,
            channel_id=channel_id,
            delta_enabled=self.capabilities.delta,
            use_kernels=self.capabilities.kernel,
            capabilities=self.capabilities,
        )

    def rebind(self, client: WorkerClient) -> None:
        """Point this channel at a replacement connection (typically to a
        restarted worker).  The epoch record is kept: the next delta will
        draw the fresh worker's NACK and converge through the forced-full
        path — which is the behavior under test for restarts."""
        if client.runtime is not self.runtime:
            raise ExchangeConfigError(
                f"replacement client speaks for runtime "
                f"{client.runtime.jvm.name!r}, channel for "
                f"{self.runtime.jvm.name!r}"
            )
        self.client = client

    def recover(self, client: WorkerClient,
                channel_id: Optional[int] = None) -> None:
        """Rebind to a replacement worker incarnation (the fleet restart
        path): point at the new connection and, when the coordinator
        assigned this channel a fresh id, adopt it.  Either way the next
        epoch is forced FULL — a restarted worker retains nothing, and
        waiting for its NACK would cost an extra round trip."""
        self.rebind(client)
        channel = self._require_open()
        if channel_id is not None:
            channel.reassign(channel_id)
        else:
            channel.force_full_next()

    # ------------------------------------------------------------------

    def _send_impl(self, roots: Sequence[int],
                   digest: Optional[bool] = None,
                   plan: Optional[SendPlan] = None) -> SendReceipt:
        channel = self._require_open()
        roots = collect_roots(roots)
        clock = self.runtime.jvm.clock
        snap = clock.snapshot()
        with clock.phase(Category.SERIALIZATION):
            frame = channel.send(roots, plan=plan)
        executed = channel.last_plan
        if digest is None:
            # No explicit override: the plan decides.
            digest = bool(executed.digest) if executed is not None else False
        started = time.perf_counter()

        def reframe() -> bytes:
            nonlocal started
            with clock.phase(Category.SERIALIZATION):
                fresh = channel.send(roots)
            started = time.perf_counter()  # time the frame that lands
            return fresh

        result, shipped = self.client.send_epoch_recovering(
            channel, frame, reframe, digest=digest)
        frame = shipped[-1]
        executed = channel.last_plan
        # Feed the measured wire back into the engine's bandwidth EWMA.
        channel.engine.observe_transfer(
            channel.channel_id, len(frame), time.perf_counter() - started)
        self._note_sim(clock.since(snap))
        receipt = SendReceipt(
            mode=executed.mode,
            reason=executed.reason,
            epoch=channel.epoch,
            wire_bytes=sum(map(len, shipped)),
            frame=frame,
            roots=tuple(result.get("root_addresses", ())),
            digest=result.get("digest"),
            nack_recovered=len(shipped) > 1,
            result=result,
            plan=executed,
        )
        return self._account_send(receipt)

    def _transport_dict(self):
        return self.client.metrics.as_dict()
