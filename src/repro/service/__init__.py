"""The multi-tenant check service (``repro serve`` v3).

This package splits the former monolithic ``repro.serve`` module into three
layers:

* :mod:`repro.service.protocol` — the typed wire protocol: request /
  response envelopes, per-method params and payload dataclasses with
  versioned JSON codecs, and the exhaustive :data:`~repro.service.protocol.METHODS`
  registry shared by the server, the client and the docs.
* :mod:`repro.service.core` — the synchronous service core: a
  :class:`~repro.service.core.SessionManager` holding many isolated tenant
  workspaces (LRU-evicted past ``CheckConfig.service.max_tenants``) and the
  typed dispatcher :class:`~repro.service.core.ServiceCore` used by both the
  stdio compatibility server and the asyncio socket server.
* :mod:`repro.service.server` — the asyncio TCP server: per-tenant request
  lanes with bounded queues (backpressure), superseding-edit cancellation
  through :class:`repro.core.cancel.CancelToken`, and a thread pool running
  the CPU-bound checks off the event loop.

The stdio ``repro serve`` loop (:mod:`repro.serve`) remains the
``repro-serve/2`` compatibility shim: it is now a thin adapter over
:class:`~repro.service.core.ServiceCore` and replays v2 NDJSON transcripts
byte-identically.  The synchronous :class:`repro.client.Client` speaks the
v3 protocol over either a socket or an in-process core.
"""

from repro.service.core import ServiceCore, SessionManager, TenantSession
from repro.service.protocol import METHODS, PROTOCOL_V2, PROTOCOL_V3
from repro.service.server import AsyncCheckServer

__all__ = [
    "AsyncCheckServer",
    "METHODS",
    "PROTOCOL_V2",
    "PROTOCOL_V3",
    "ServiceCore",
    "SessionManager",
    "TenantSession",
]
