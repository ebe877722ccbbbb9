"""Real-socket serving: ``repro serve`` (see docs/serving.md).

``server`` runs one storage node per OS process on the asyncio
transport, ``cluster`` launches and supervises the fleet, and ``driver``
replays a seeded workload from a client peer and cross-checks every
answer against the discrete-event simulator twin.  ``http`` puts a
STAC-style HTTP facade (aggregate / paginated search / drill) in front
of either backend.
"""

from repro.serve.driver import run_serve
from repro.serve.http import SimBackend, SocketBackend, StashHttpServer

__all__ = [
    "run_serve",
    "SimBackend",
    "SocketBackend",
    "StashHttpServer",
]
