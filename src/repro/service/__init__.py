"""The multi-tenant check service (``repro serve``, ``repro-serve/3``).

Three layers:

* :mod:`repro.service.protocol` — the typed wire protocol: per-method
  params and payload dataclasses with JSON codecs, and the exhaustive
  :data:`~repro.service.protocol.METHODS` registry shared by the servers,
  the client and ``hello``.
* :mod:`repro.service.core` — the synchronous service core: a
  :class:`~repro.service.core.SessionManager` holding many isolated tenant
  workspaces (LRU-evicted past ``CheckConfig.service.max_tenants``) and the
  typed dispatcher :class:`~repro.service.core.ServiceCore`.  Its
  ``stats`` method is the one stats surface of a server: per tenant the
  service counters, a latency window and the typed solver and store
  stats; lifetime totals that count evicted tenants too.
* :mod:`repro.service.server` — the two transports over one core: the
  stdio loop (:func:`~repro.service.server.serve`) and the asyncio TCP
  server with per-tenant request lanes, bounded queues (backpressure),
  superseding-edit cancellation through
  :class:`repro.core.cancel.CancelToken`, and a thread pool running the
  CPU-bound checks off the event loop.

Both transports speak the same protocol, so one driver works over either.
The synchronous :class:`repro.client.Client` speaks it over a socket or an
in-process core.
"""

from repro.service.core import ServiceCore, SessionManager, TenantSession
from repro.service.protocol import METHODS, PROTOCOL_V3
from repro.service.server import AsyncCheckServer

__all__ = [
    "AsyncCheckServer",
    "METHODS",
    "PROTOCOL_V3",
    "ServiceCore",
    "SessionManager",
    "TenantSession",
]
