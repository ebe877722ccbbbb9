"""Wire codec: the repo's message payloads <-> bytes.

The simulator passes payloads by reference; real sockets need a faithful
byte encoding.  The codec lowers a payload into a *tagged tree* — plain
JSON-compatible structure where every non-JSON type (tuples, sets,
``CellKey``-keyed dicts, query/summary/geometry objects, RPC sentinels,
exceptions) becomes a ``{"__t": tag, ...}`` node — then serializes the
tree as compact JSON.

Faithfulness requirements, in equivalence-suite order of importance:

* **Floats round-trip bit-exactly** (JSON uses ``repr``; ±inf pass
  through as JSON ``Infinity``), so a :class:`SummaryVector` decoded on
  the client compares ``==`` to the simulator twin's.
* **Dicts are order-preserving and key-faithful**: every dict except a
  cells map is encoded as an item *list*, so ``CellKey`` keys survive and
  iteration order — which fixes float merge order downstream — is
  preserved.  A cells map (``CellKey`` -> ``SummaryVector``, one attribute
  order, exact ``int`` counts and ``float`` fields) crosses as one
  ``cells`` node of columns, keys still in iteration order.
* **RPC sentinels keep identity**: ``RPC_FAILED`` decodes to the interned
  sentinel, so ``reply is RPC_FAILED`` works across the wire.
"""

from __future__ import annotations

import base64
import json
import sys
from array import array
from itertools import chain
from math import isnan
from typing import Any

import numpy as np

from repro import errors as _errors
from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.statistics import AttributeSummary, SummaryVector
from repro.errors import ReproError
from repro.faults.membership import _RpcSentinel
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.obs.recorder import QueryContext
from repro.query.model import AggregationQuery


class CodecError(ReproError):
    """A payload the wire codec cannot carry, or bytes it cannot lift."""


class RemoteRpcError(ReproError):
    """A server-side exception whose class the client does not know."""


#: Exception classes reconstructible by name (every repro error type).
_ERROR_CLASSES: dict[str, type[BaseException]] = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _lower(value: Any) -> Any:
    """Recursively lower a payload value into the tagged tree."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, TemporalResolution):
        # IntEnum: must be tagged before the plain-int branch swallows it.
        return {"__t": "tres", "v": int(value)}
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, bytes):
        return {"__t": "bytes", "b": base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        cells = _lower_cells(value)
        if cells is not None:
            return cells
        # Every other dict becomes an item list: keys may be CellKeys,
        # and order must survive (it fixes downstream float merge order).
        return {"__t": "map", "i": [[_lower(k), _lower(v)] for k, v in value.items()]}
    if isinstance(value, list):
        return [_lower(v) for v in value]
    if isinstance(value, tuple):
        # Named tuples are tagged by type: a plain tuple equal to a key
        # must still cross as a "tup".
        if isinstance(value, CellKey):
            return {"__t": "cellkey", "s": str(value)}
        if isinstance(value, AttributeSummary):
            return {"__t": "asum", "v": list(value)}
        if isinstance(value, TimeKey):
            return {"__t": "timekey", "c": list(value.components)}
        if isinstance(value, BlockId):
            return {"__t": "blockid", "g": value.geohash, "d": value.day}
        if isinstance(value, Resolution):
            return {"__t": "res", "s": value.spatial, "t": int(value.temporal)}
        return {"__t": "tup", "i": [_lower(v) for v in value]}
    if isinstance(value, frozenset):
        return {"__t": "fset", "i": sorted((_lower(v) for v in value), key=repr)}
    if isinstance(value, set):
        return {"__t": "set", "i": sorted((_lower(v) for v in value), key=repr)}
    if isinstance(value, TimeRange):
        return {"__t": "timerange", "s": value.start, "e": value.end}
    if isinstance(value, BoundingBox):
        return {
            "__t": "bbox",
            "b": [value.south, value.north, value.west, value.east],
        }
    if isinstance(value, SummaryVector):
        return {
            "__t": "svec",
            "a": [
                [name, [s.count, s.total, s.total_sq, s.minimum, s.maximum]]
                for name, s in value._summaries.items()
            ],
        }
    if isinstance(value, AggregationQuery):
        return {
            "__t": "query",
            "bbox": _lower(value.bbox),
            "time": _lower(value.time_range),
            "res": _lower(value.resolution),
            "attrs": None if value.attributes is None else list(value.attributes),
            "kind": value.kind,
            "id": value.query_id,
        }
    if isinstance(value, QueryContext):
        return {
            "__t": "qctx",
            "q": value.query_id,
            "a": value.attempt,
            "l": value.leg,
            "r": value.redirect_depth,
        }
    if isinstance(value, _RpcSentinel):
        return {"__t": "rpc", "n": repr(value)}
    if isinstance(value, BaseException):
        return {"__t": "exc", "cls": type(value).__name__, "msg": str(value)}
    raise CodecError(f"cannot encode {type(value).__name__} for the wire")


#: A ``cells`` node's float buffer is little-endian whatever the host.
_SWAP = sys.byteorder == "big"


def _lower_cells(cells: dict) -> dict | None:
    """A cells map as one ``cells`` node of columns (``docs/serving.md``,
    "The wire format"): key strings in iteration order, attribute names
    once, counts, and every total, then total_sq, minimum and maximum as
    one base64 float64 buffer.  ``None`` — keep the item list — unless
    every key is exactly a ``CellKey`` and every value exactly a
    ``SummaryVector`` with one attribute order, ``int`` counts and
    ``float`` fields: anything else would not lift back as the same type.
    """
    if set(map(type, cells)) != {CellKey}:
        return None
    vectors = list(cells.values())
    if set(map(type, vectors)) != {SummaryVector}:
        return None
    names = tuple(vectors[0]._summaries)
    if not names or any(tuple(v._summaries) != names for v in vectors):
        return None
    rows = [s for v in vectors for s in v._summaries.values()]
    if set(map(type, rows)) != {AttributeSummary}:
        return None
    counts, *columns = zip(*rows)
    floats = list(chain(*columns))
    if set(map(type, counts)) != {int} or set(map(type, floats)) != {float}:
        return None
    packed = array("d", floats)
    if _SWAP:
        packed.byteswap()
    return {
        "__t": "cells",
        "k": list(map(str, cells)),
        "a": list(names),
        "n": list(counts),
        "f": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


#: The fields after ``count`` of the empty summary, the monoid identity.
_EMPTY_FIELDS = tuple(AttributeSummary.empty())[1:]


def _lift_summary(fields: list) -> AttributeSummary:
    """An :class:`AttributeSummary` from a peer, refusing impossible ones.

    Checked here, not in the constructor: the aggregation hot path only
    builds summaries of real data, while a peer's bytes can say anything.
    ``count`` is an ``int`` >= 0; an empty summary is exactly the
    identity; any other has ``total_sq >= 0``, ``minimum <= maximum`` and
    no NaN (``isnan`` also refuses a non-number where a float is due).
    """
    count, total, total_sq, minimum, maximum = fields
    if type(count) is not int or count < 0:
        raise CodecError(f"summary count {count!r} is not a non-negative int")
    if count:
        if not (total_sq >= 0 and minimum <= maximum) or isnan(total) or isnan(minimum):
            raise CodecError(f"impossible summary {fields!r}")
    elif (total, total_sq, minimum, maximum) != _EMPTY_FIELDS:
        raise CodecError(f"empty summary {fields!r} is not the identity")
    return AttributeSummary(count, total, total_sq, minimum, maximum)


def _lift_cells(keys: Any, names: Any, counts: Any, packed: Any) -> dict:
    """Inverse of :func:`_lower_cells`: the column lengths are checked
    before anything is built, then every key goes through
    ``CellKey.parse`` and every summary through :func:`_lift_summary`."""
    if not (type(keys) is type(names) is type(counts) is list):
        raise CodecError("cells columns k, a and n must be lists")
    width = len(names)
    if len(counts) != len(keys) * width:
        raise CodecError(
            f"cells node has {len(counts)} counts for {len(keys)} keys x {width} names"
        )
    floats = array("d", base64.b64decode(packed, validate=True))
    if _SWAP:
        floats.byteswap()
    m = len(counts)
    if len(floats) != 4 * m:
        raise CodecError(f"cells node has {len(floats)} floats for {m} summaries")
    columns = (floats[i * m : (i + 1) * m] for i in range(4))
    summaries = [_lift_summary(fields) for fields in zip(counts, *columns)]
    return {
        CellKey.parse(key): SummaryVector._trusted(
            dict(zip(names, summaries[i * width : (i + 1) * width]))
        )
        for i, key in enumerate(keys)
    }


def _raise_tree(node: dict) -> Any:
    raise CodecError(f"unknown wire tag {node.get('__t')!r}")


def _lift(node: Any) -> Any:
    """Inverse of :func:`_lower`."""
    if isinstance(node, list):
        return [_lift(v) for v in node]
    if not isinstance(node, dict):
        return node
    tag = node.get("__t")
    if tag == "cells":
        return _lift_cells(node["k"], node["a"], node["n"], node["f"])
    if tag == "map":
        return {_lift(k): _lift(v) for k, v in node["i"]}
    if tag == "tup":
        return tuple(_lift(v) for v in node["i"])
    if tag == "set":
        return {_lift(v) for v in node["i"]}
    if tag == "fset":
        return frozenset(_lift(v) for v in node["i"])
    if tag == "bytes":
        return base64.b64decode(node["b"])
    if tag == "cellkey":
        return CellKey.parse(node["s"])
    if tag == "timekey":
        return TimeKey(tuple(node["c"]))
    if tag == "timerange":
        return TimeRange(node["s"], node["e"])
    if tag == "blockid":
        return BlockId(geohash=node["g"], day=node["d"])
    if tag == "bbox":
        south, north, west, east = node["b"]
        return BoundingBox(south, north, west, east)
    if tag == "tres":
        return TemporalResolution(node["v"])
    if tag == "res":
        return Resolution(node["s"], TemporalResolution(node["t"]))
    if tag == "asum":
        return _lift_summary(node["v"])
    if tag == "svec":
        return SummaryVector._trusted(
            {name: _lift_summary(v) for name, v in node["a"]}
        )
    if tag == "query":
        return AggregationQuery(
            bbox=_lift(node["bbox"]),
            time_range=_lift(node["time"]),
            resolution=_lift(node["res"]),
            attributes=None if node["attrs"] is None else tuple(node["attrs"]),
            kind=node["kind"],
            query_id=node["id"],
        )
    if tag == "qctx":
        return QueryContext(
            query_id=node["q"], attempt=node["a"], leg=node["l"],
            redirect_depth=node["r"],
        )
    if tag == "rpc":
        return _RpcSentinel(node["n"])
    if tag == "exc":
        cls = _ERROR_CLASSES.get(node["cls"])
        if cls is not None:
            return cls(node["msg"])
        return RemoteRpcError(f"{node['cls']}: {node['msg']}")
    return _raise_tree(node)


def encode(value: Any) -> bytes:
    """Serialize one payload value to bytes.

    A payload that refers to itself, or nests past the recursion limit,
    is a :class:`CodecError`, as it is for :func:`decode`.
    """
    # separators: canonical compact form; allow_nan lets ±inf through
    # (AttributeSummary.empty() carries them by design); _lower always
    # builds a fresh acyclic tree, so json need not look for cycles.
    try:
        return json.dumps(
            _lower(value), separators=(",", ":"), allow_nan=True, check_circular=False
        ).encode("utf-8")
    except RecursionError as exc:
        raise CodecError(f"cannot encode a payload nested this deep: {exc}") from exc


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`.

    The bytes come from a peer: whatever is wrong with them — not UTF-8,
    not JSON, a tagged node missing a field or holding the wrong type, a
    value its class refuses, nesting past the recursion limit — is a
    :class:`CodecError`, never the underlying exception.
    """
    try:
        return _lift(json.loads(data.decode("utf-8")))
    except CodecError:
        raise
    except (
        ValueError,
        LookupError,
        TypeError,
        AttributeError,  # a number where a method-bearing string was due
        OverflowError,  # an integer no C field can hold
        ReproError,
        RecursionError,
    ) as exc:
        raise CodecError(
            f"malformed wire payload: {type(exc).__name__}: {exc}"
        ) from exc
