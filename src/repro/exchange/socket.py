"""The socket substrate: epochs delivered to a worker process.

A :class:`SocketGraphChannel` is the shared
:class:`~repro.exchange.channel.GraphChannel` send body (same
:class:`~repro.delta.channel.DeltaSendChannel` as the loopback substrate)
plus a ``_deliver`` that ships each frame through
:meth:`WorkerClient.deliver_epoch` (one stream whose id is the channel id — STREAM opener, DATA chunks,
TRAILER — written inline: the frame is
already in hand, so there is no writer thread and no per-channel pipeline
knob; any number of channels share the client's one socket).  The worker
applies it through *its* runtime's delta endpoint and answers with
receiver roots and a semantic graph digest — the same handle the loopback
receipt carries, so the two substrates are directly comparable.

A stale receiver (worker restarted, full GC on the worker heap, epoch gap)
answers a per-channel ``ok=false`` RESULT naming ``DeltaStaleError``; the
client raises it as that type, the connection survives, and
``DeltaSendChannel.ship`` resends a forced FULL on the same socket — one
``send()`` call, two wire frames, receipt flagged ``nack_recovered=True``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.runtime import SkywayRuntime
from repro.exchange.capabilities import (
    ChannelCapabilities,
    DEFAULT_REQUEST,
    SOCKET_OFFER,
)
from repro.exchange.channel import GraphChannel
from repro.exchange.errors import ExchangeConfigError
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
        # Validated before the base registers anything: a rejected
        # construction must leave no obs source behind.
        if client.runtime is not runtime:
            raise ExchangeConfigError(
                f"client speaks for runtime {client.runtime.jvm.name!r}, "
                f"channel for {runtime.jvm.name!r}"
            )
        self.client = client
        super().__init__(
            runtime,
            destination if destination is not None else (
                client.peer_name or f"{client.host}:{client.port}"),
            requested, SOCKET_OFFER, policy=policy, channel_id=channel_id,
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

    def _deliver(self, frame: bytes, digest: bool):
        channel = self._require_open()
        result = self.client.deliver_epoch(
            frame, channel.channel_id, channel.epoch, digest)
        return result.get("root_addresses", ()), result.get("digest"), result

    def _transport_dict(self):
        return self.client.metrics.as_dict()
