"""The socket runtime behind the engine/network seam.

Node and client logic is written against two duck-typed handles — an
engine (the :class:`~repro.sim.engine.Simulator` surface) and a network
(the :class:`~repro.sim.network.Network` surface).  The simulator pair
lives in :mod:`repro.sim`; ``asyncio_net`` provides the same pair on
real sockets, with ``codec`` and ``framing`` as its wire format.  See
``docs/serving.md``.
"""
