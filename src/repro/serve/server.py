"""One storage-node server process for ``repro serve``.

Each child process regenerates the (seeded, deterministic) dataset,
builds the *same* :class:`~repro.core.node.StashNode` the simulator
runs — same catalog, same partitioner, same handlers — and serves it on
an :class:`~repro.transport.asyncio_net.AsyncioTransport`.  The only
difference from the sim twin is the transport underneath.

Parent/child protocol over a :mod:`multiprocessing` pipe:

1. child binds port 0, sends ``("ready", node_id, host, port)``
2. parent broadcasts ``("peers", {peer_id: (host, port)})``
3. child installs the address map, sends ``("serving", node_id)``
4. parent sends ``("stop",)``; child closes the transport and exits

Any child-side exception is reported as ``("error", node_id, repr)``
before the process dies, so the launcher fails fast instead of hanging
on a half-started cluster.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

from repro.config import StashConfig
from repro.core.node import StashNode
from repro.data.generator import DatasetSpec, SyntheticNAMGenerator
from repro.dht.partitioner import PrefixPartitioner
from repro.faults.membership import Membership
from repro.geo.resolution import ResolutionSpace
from repro.storage.backend import StorageCatalog
from repro.transport.asyncio_net import AsyncioTransport


@dataclass(frozen=True)
class NodeSpec:
    """Everything a child process needs to build its node (picklable)."""

    node_index: int
    node_ids: tuple[str, ...]
    dataset: DatasetSpec
    config: StashConfig

    @property
    def node_id(self) -> str:
        return self.node_ids[self.node_index]


def build_node(spec: NodeSpec, transport: AsyncioTransport) -> StashNode:
    """The serve-side mirror of ``StashCluster._start_nodes`` for one node.

    The dataset is regenerated from its seed instead of shipped over a
    pipe: generation is cheap, deterministic, and keeps every child's
    catalog bit-identical to the simulator twin's.
    """
    dataset = SyntheticNAMGenerator(spec.dataset).generate()
    partitioner = PrefixPartitioner(
        list(spec.node_ids), spec.config.cluster.partition_precision
    )
    catalog = StorageCatalog(
        partitioner, block_precision=spec.config.cluster.block_precision
    )
    catalog.ingest(dataset)
    return StashNode(
        transport.engine,
        transport.network,
        catalog,
        spec.node_id,
        spec.config,
        space=ResolutionSpace(1, 8),
        attribute_names=dataset.attribute_names,
        node_index=spec.node_index,
        membership=Membership(partitioner),
    )


async def _serve(spec: NodeSpec, conn: Any) -> None:
    serve_cfg = spec.config.serve
    transport = AsyncioTransport(
        spec.node_id, time_scale=serve_cfg.time_scale
    )
    host, port = await transport.start(serve_cfg.host, 0)
    node = build_node(spec, transport)
    node.start()
    conn.send(("ready", spec.node_id, host, port))
    loop = asyncio.get_running_loop()
    try:
        while True:
            command = await loop.run_in_executor(None, conn.recv)
            if command[0] == "peers":
                transport.network.set_peers(command[1])
                conn.send(("serving", spec.node_id))
            elif command[0] == "stop":
                return
    finally:
        await transport.aclose()


def serve_node_entry(spec: NodeSpec, conn: Any) -> None:
    """Child-process entry point (must be importable for spawn)."""
    try:
        asyncio.run(_serve(spec, conn))
    except (EOFError, KeyboardInterrupt):  # parent died / ^C: just exit
        pass
    except Exception as exc:
        try:
            conn.send(("error", spec.node_id, repr(exc)))
        except (OSError, BrokenPipeError):
            pass
        raise
